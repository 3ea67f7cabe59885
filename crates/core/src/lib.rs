//! **Vortex** — variation-aware training for memristor crossbars.
//!
//! Reproduction of Liu et al., *"Vortex: Variation-aware Training for
//! Memristor X-bar"*, DAC 2015. The crate implements the paper's two
//! techniques and the baselines they are measured against:
//!
//! * [`vat`] — **Variation-Aware Training**: per-column hinge training
//!   with an analytic "penalty of variations" term bounded through the
//!   Chi-square confidence radius [`rho`] (Eq. (4)–(10)).
//! * [`tuning`] — the γ **self-tuning** loop (Fig. 5): scan the penalty
//!   scale on a held-out validation split with injected variation.
//! * [`amp`] — **Adaptive Mapping**: pre-test devices, rank weight rows by
//!   variation sensitivity (Eq. (11)), greedily match them to crossbar
//!   rows by summed weighted variation (Eq. (12), Algorithm 1), with
//!   optional redundant rows and defect avoidance.
//! * [`old`] / [`cld`] — the **open-loop off-device** and **close-loop
//!   on-device** baselines of §2.2.3 and §3.
//! * [`vortex`] — the integrated VAT + AMP pipeline (§4.3).
//! * [`pipeline`] — the shared hardware-evaluation harness (fabricate →
//!   program → read → test rate).
//!
//! # Quickstart
//!
//! ```
//! use vortex_core::pipeline::HardwareEnv;
//! use vortex_core::vortex::{VortexPipeline, VortexConfig};
//! use vortex_nn::dataset::{DatasetConfig, SynthDigits};
//! use vortex_nn::split::stratified_split;
//! use vortex_linalg::rng::Xoshiro256PlusPlus;
//!
//! # fn main() -> Result<(), vortex_core::CoreError> {
//! let mut rng = Xoshiro256PlusPlus::seed_from_u64(1);
//! let data = SynthDigits::generate(&DatasetConfig::tiny(), 1)?;
//! let split = stratified_split(&data, 200, 100, &mut rng)?;
//! let env = HardwareEnv::with_sigma(0.4)?;
//! let mut config = VortexConfig::fast();
//! config.redundant_rows = 0;
//! let outcome = VortexPipeline::new(config).run(&split.train, &split.test, &env, &mut rng)?;
//! assert!(outcome.rates.test_rate > 0.2);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

pub mod amp;
pub mod cld;
pub mod column;
pub mod error;
pub mod old;
pub mod pipeline;
pub mod prelude;
pub mod report;
pub mod rho;
pub mod tiling;
pub mod tuning;
pub mod vat;
pub mod vortex;

pub use pipeline::HardwareEnv;
pub use vat::VatTrainer;

/// Errors produced by the Vortex core.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum CoreError {
    /// A parameter was outside its valid domain.
    InvalidParameter {
        /// Name of the offending parameter.
        name: &'static str,
        /// The violated requirement.
        requirement: &'static str,
    },
    /// An underlying numerical routine failed.
    Numeric(vortex_linalg::LinalgError),
    /// An underlying device-model operation failed.
    Device(vortex_device::DeviceError),
    /// An underlying crossbar operation failed.
    Xbar(vortex_xbar::XbarError),
    /// An underlying NN-substrate operation failed.
    Nn(vortex_nn::NnError),
    /// An underlying inference-runtime operation failed.
    Runtime(vortex_runtime::RuntimeError),
}

impl std::fmt::Display for CoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CoreError::InvalidParameter { name, requirement } => {
                write!(f, "invalid parameter `{name}`: {requirement}")
            }
            CoreError::Numeric(e) => write!(f, "numerical error: {e}"),
            CoreError::Device(e) => write!(f, "device error: {e}"),
            CoreError::Xbar(e) => write!(f, "crossbar error: {e}"),
            CoreError::Nn(e) => write!(f, "nn error: {e}"),
            CoreError::Runtime(e) => write!(f, "runtime error: {e}"),
        }
    }
}

impl std::error::Error for CoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CoreError::Numeric(e) => Some(e),
            CoreError::Device(e) => Some(e),
            CoreError::Xbar(e) => Some(e),
            CoreError::Nn(e) => Some(e),
            CoreError::Runtime(e) => Some(e),
            CoreError::InvalidParameter { .. } => None,
        }
    }
}

impl From<vortex_linalg::LinalgError> for CoreError {
    fn from(e: vortex_linalg::LinalgError) -> Self {
        CoreError::Numeric(e)
    }
}

impl From<vortex_device::DeviceError> for CoreError {
    fn from(e: vortex_device::DeviceError) -> Self {
        CoreError::Device(e)
    }
}

impl From<vortex_xbar::XbarError> for CoreError {
    fn from(e: vortex_xbar::XbarError) -> Self {
        CoreError::Xbar(e)
    }
}

impl From<vortex_nn::NnError> for CoreError {
    fn from(e: vortex_nn::NnError) -> Self {
        CoreError::Nn(e)
    }
}

impl From<vortex_runtime::RuntimeError> for CoreError {
    fn from(e: vortex_runtime::RuntimeError) -> Self {
        CoreError::Runtime(e)
    }
}

/// Convenience alias used across the crate.
pub type Result<T> = std::result::Result<T, CoreError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_conversions() {
        let e: CoreError = vortex_linalg::LinalgError::Singular { pivot: 1 }.into();
        assert!(e.to_string().contains("numerical"));
        let e: CoreError = vortex_nn::NnError::InvalidParameter {
            name: "x",
            requirement: "y",
        }
        .into();
        assert!(e.to_string().contains("nn error"));
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<CoreError>();
    }
}
