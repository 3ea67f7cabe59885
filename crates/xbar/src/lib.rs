//! Memristor crossbar array simulator.
//!
//! This crate models everything between the device ([`vortex_device`]) and
//! the training algorithms ([`vortex_core`](https://docs.rs/vortex-core)):
//!
//! * [`crossbar::Crossbar`] — an `m × n` array of [`vortex_device::Memristor`]
//!   with per-device variation realizations and defects. With perfect
//!   wires its read is the analog vector–matrix multiply `y = xᵀ·G`
//!   ([`vortex_linalg::Matrix::vecmat`] of its conductances).
//! * [`circuit::NodalAnalysis`] — exact resistive-mesh solve of the array
//!   including wire resistance (IR-drop), for both compute (read) and
//!   programming bias conditions.
//! * [`irdrop`] — fast analytic IR-drop approximations plus the paper's
//!   β/D decomposition of programming-voltage degradation (§3.2).
//! * [`program`] — [`program_with_protocol`](program::program_with_protocol),
//!   the one programmer: the V/2 half-select open-loop protocol (§2.2.2)
//!   with optional IR-drop compensation and half-select disturb.
//! * [`sensing`] — ADC/DAC models (§3.3, §5.2).
//! * [`pretest`] — AMP's device pre-testing procedure (§4.2.1).
//! * [`pair`] — differential (positive/negative) crossbar pair mapping of
//!   signed weight matrices (§2.2.1).
//! * [`encoding`] — the weight→conductance encoding step
//!   ([`EncodingSpec::encode`]): continuous differential (the paper),
//!   fixed multi-level-cell quantization, or sensitivity-driven per-row
//!   adaptive quantization, with the per-row [`EncodingTable`] that
//!   prices the programming pulses.
//!
//! # Example
//!
//! ```
//! use vortex_device::DeviceParams;
//! use vortex_linalg::Matrix;
//! use vortex_xbar::crossbar::Crossbar;
//! use vortex_xbar::program::{program_with_protocol, ProgramOptions};
//! use vortex_linalg::rng::Xoshiro256PlusPlus;
//!
//! # fn main() -> Result<(), vortex_xbar::XbarError> {
//! let mut rng = Xoshiro256PlusPlus::seed_from_u64(7);
//! let mut xbar = Crossbar::ideal(4, 3, DeviceParams::default());
//! let targets = Matrix::filled(4, 3, 5e-5); // 20 kΩ everywhere
//! program_with_protocol(&mut xbar, &targets, None, &ProgramOptions::default(), &mut rng)?;
//! let y = xbar.conductances().vecmat(&[1.0, 1.0, 1.0, 1.0]);
//! assert!((y[0] - 4.0 * 5e-5).abs() < 1e-6);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

pub mod circuit;
pub mod cost;
pub mod crossbar;
pub mod encoding;
pub mod irdrop;
pub mod pair;
pub mod pretest;
pub mod program;
pub mod sensing;

pub use crossbar::{Crossbar, CrossbarConfig};
pub use encoding::{EncodingScheme, EncodingSpec, EncodingTable};
pub use pair::{DifferentialPair, FrozenPairState};
pub use sensing::Adc;

/// Errors produced by the crossbar simulator.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum XbarError {
    /// A parameter was outside its valid domain.
    InvalidParameter {
        /// Name of the offending parameter.
        name: &'static str,
        /// The violated requirement.
        requirement: &'static str,
    },
    /// Matrix/vector dimensions do not agree with the crossbar shape.
    ShapeMismatch {
        /// Description of the operation.
        context: &'static str,
        /// Expected dimension.
        expected: usize,
        /// Dimension actually supplied.
        actual: usize,
    },
    /// An underlying device-model operation failed.
    Device(vortex_device::DeviceError),
    /// An underlying numerical routine failed.
    Numeric(vortex_linalg::LinalgError),
}

impl std::fmt::Display for XbarError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            XbarError::InvalidParameter { name, requirement } => {
                write!(f, "invalid crossbar parameter `{name}`: {requirement}")
            }
            XbarError::ShapeMismatch {
                context,
                expected,
                actual,
            } => write!(
                f,
                "shape mismatch in {context}: expected {expected}, got {actual}"
            ),
            XbarError::Device(e) => write!(f, "device model error: {e}"),
            XbarError::Numeric(e) => write!(f, "numerical error: {e}"),
        }
    }
}

impl std::error::Error for XbarError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            XbarError::Device(e) => Some(e),
            XbarError::Numeric(e) => Some(e),
            _ => None,
        }
    }
}

impl From<vortex_device::DeviceError> for XbarError {
    fn from(e: vortex_device::DeviceError) -> Self {
        XbarError::Device(e)
    }
}

impl From<vortex_linalg::LinalgError> for XbarError {
    fn from(e: vortex_linalg::LinalgError) -> Self {
        XbarError::Numeric(e)
    }
}

/// Convenience alias used across the crate.
pub type Result<T> = std::result::Result<T, XbarError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_conversions_and_display() {
        let d: XbarError = vortex_device::DeviceError::InvalidParameter {
            name: "x",
            requirement: "y",
        }
        .into();
        assert!(d.to_string().contains("device model error"));
        let n: XbarError = vortex_linalg::LinalgError::Singular { pivot: 0 }.into();
        assert!(n.to_string().contains("numerical error"));
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<XbarError>();
    }
}
