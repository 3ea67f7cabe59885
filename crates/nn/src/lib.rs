//! Neural-network substrate for the Vortex reproduction.
//!
//! The paper trains a single weight layer (a `784 × 10` crossbar, one
//! column per class, "1 vs. all") on the MNIST digit task. MNIST itself is
//! not available in this environment, so [`dataset`] provides
//! **SynthDigits** — a deterministic synthetic 10-class digit benchmark
//! rendered from stroke prototypes with affine jitter and pixel noise (see
//! `DESIGN.md` for the substitution rationale). Everything downstream
//! (training-rate/test-rate methodology, under-sampling to 14×14 and 7×7,
//! train/validation/test splits) follows the paper.
//!
//! * [`dataset`] — SynthDigits generation, block-average under-sampling.
//! * [`split`] — stratified train/validation/test splits.
//! * [`classifier::LinearClassifier`] — the `y = x·W`, argmax model.
//! * [`gdt`] — hinge-loss (sub)gradient-descent training (the paper's GDT,
//!   Eq. (3)).
//! * [`metrics`] — training rate, test rate, confusion matrices.
//! * [`executor`] — [`run_trials`](executor::run_trials), the one
//!   Monte-Carlo draw loop in the workspace (pre-split seed streams,
//!   ordered reassembly; bit-exact across thread counts).
//! * [`pool`] — the persistent worker pool every fan-out in the
//!   workspace rides (the executor's scoped fan-outs and the serve
//!   scheduler's batch pumps share one pool).
//!
//! # Example
//!
//! ```
//! use vortex_nn::dataset::{SynthDigits, DatasetConfig};
//! use vortex_nn::gdt::GdtTrainer;
//! use vortex_nn::metrics;
//!
//! # fn main() -> Result<(), vortex_nn::NnError> {
//! let data = SynthDigits::generate(&DatasetConfig::tiny(), 42)?;
//! let w = GdtTrainer::default().train(&data)?;
//! let acc = metrics::accuracy_of_weights(&w, &data);
//! assert!(acc > 0.5); // well above the 0.1 chance level
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

pub mod classifier;
pub mod dataset;
pub mod executor;
pub mod gdt;
pub mod isa;
pub mod metrics;
pub mod pool;
pub mod split;

pub use classifier::LinearClassifier;
pub use dataset::{Dataset, DatasetConfig, SynthDigits};

/// Errors produced by the NN substrate.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum NnError {
    /// A parameter was outside its valid domain.
    InvalidParameter {
        /// Name of the offending parameter.
        name: &'static str,
        /// The violated requirement.
        requirement: &'static str,
    },
    /// Dataset/model dimensions do not agree.
    ShapeMismatch {
        /// Description of the operation.
        context: &'static str,
        /// Expected dimension.
        expected: usize,
        /// Supplied dimension.
        actual: usize,
    },
}

impl std::fmt::Display for NnError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NnError::InvalidParameter { name, requirement } => {
                write!(f, "invalid parameter `{name}`: {requirement}")
            }
            NnError::ShapeMismatch {
                context,
                expected,
                actual,
            } => write!(
                f,
                "shape mismatch in {context}: expected {expected}, got {actual}"
            ),
        }
    }
}

impl std::error::Error for NnError {}

/// Convenience alias used across the crate.
pub type Result<T> = std::result::Result<T, NnError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_display() {
        let e = NnError::ShapeMismatch {
            context: "predict",
            expected: 784,
            actual: 196,
        };
        assert!(e.to_string().contains("predict"));
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<NnError>();
    }
}
