//! Linear algebra, random-number and statistics substrate for the Vortex
//! memristor-crossbar reproduction.
//!
//! The crate is self-contained (no external math dependencies) and provides
//! exactly the numerical tools the rest of the workspace needs:
//!
//! * [`Matrix`] / [`vector`] — dense row-major matrices and slice-based
//!   vector kernels (dot products, norms, AXPY, …).
//! * [`lu`] — LU factorization with partial pivoting for small dense
//!   systems (used to validate the iterative circuit solvers).
//! * [`sparse`] — compressed-sparse-row matrices assembled from triplets
//!   (used for the crossbar IR-drop nodal equations).
//! * [`iterative`] — preconditioned conjugate gradient for the sparse,
//!   symmetric positive definite nodal systems, with Jacobi or
//!   tridiagonal-line preconditioning.
//! * [`rng`] — a deterministic, seedable xoshiro256++ generator, so every
//!   Monte-Carlo experiment in the workspace is reproducible.
//! * [`distributions`] — normal / lognormal / Bernoulli sampling, the
//!   variation models of the paper (Lee et al., VLSIT'12 lognormal).
//! * [`stats`] — summary statistics used by the experiment harness.
//! * [`chi2`] — the Chi-square inverse CDF used to compute the confidence
//!   radius `ρ` of the VAT penalty bound (Eq. (7)–(9) of the paper).
//!
//! # Example
//!
//! ```
//! use vortex_linalg::{Matrix, rng::Xoshiro256PlusPlus, distributions::Normal};
//!
//! let mut rng = Xoshiro256PlusPlus::seed_from_u64(7);
//! let normal = Normal::new(0.0, 1.0).expect("valid parameters");
//! let a = Matrix::from_fn(3, 3, |i, j| if i == j { 2.0 } else { 0.5 });
//! let x = vec![1.0, 2.0, 3.0];
//! let y = a.matvec(&x);
//! assert_eq!(y.len(), 3);
//! let _sample = normal.sample(&mut rng);
//! ```

#![warn(missing_docs)]

pub mod chi2;
pub mod distributions;
pub mod iterative;
pub mod lu;
pub mod matrix;
pub mod rng;
pub mod sparse;
pub mod stats;
pub mod vector;

pub use matrix::Matrix;
pub use rng::Xoshiro256PlusPlus;
pub use sparse::CsrMatrix;

/// Error type for numerical routines in this crate.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum LinalgError {
    /// Matrix/vector dimensions do not agree for the requested operation.
    DimensionMismatch {
        /// Human-readable description of the operation that failed.
        context: &'static str,
        /// Expected dimension.
        expected: usize,
        /// Dimension actually supplied.
        actual: usize,
    },
    /// A factorization or solve hit a (numerically) singular pivot.
    Singular {
        /// Index of the offending pivot.
        pivot: usize,
    },
    /// An iterative solver failed to reach the requested tolerance.
    NotConverged {
        /// Iterations performed before giving up.
        iterations: usize,
        /// Residual norm at the final iteration.
        residual: f64,
    },
    /// A parameter was outside its valid domain.
    InvalidParameter {
        /// Name of the offending parameter.
        name: &'static str,
        /// Description of the violated requirement.
        requirement: &'static str,
    },
}

impl std::fmt::Display for LinalgError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LinalgError::DimensionMismatch {
                context,
                expected,
                actual,
            } => write!(
                f,
                "dimension mismatch in {context}: expected {expected}, got {actual}"
            ),
            LinalgError::Singular { pivot } => {
                write!(f, "matrix is singular at pivot {pivot}")
            }
            LinalgError::NotConverged {
                iterations,
                residual,
            } => write!(
                f,
                "iterative solver did not converge after {iterations} iterations \
                 (residual {residual:.3e})"
            ),
            LinalgError::InvalidParameter { name, requirement } => {
                write!(f, "invalid parameter `{name}`: {requirement}")
            }
        }
    }
}

impl std::error::Error for LinalgError {}

/// Convenience alias used across the crate.
pub type Result<T> = std::result::Result<T, LinalgError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_display_is_informative() {
        let e = LinalgError::DimensionMismatch {
            context: "matvec",
            expected: 4,
            actual: 3,
        };
        let s = e.to_string();
        assert!(s.contains("matvec"));
        assert!(s.contains('4'));
        assert!(s.contains('3'));
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<LinalgError>();
    }

    #[test]
    fn not_converged_display() {
        let e = LinalgError::NotConverged {
            iterations: 100,
            residual: 1e-3,
        };
        assert!(e.to_string().contains("100"));
    }

    #[test]
    fn singular_display() {
        let e = LinalgError::Singular { pivot: 2 };
        assert!(e.to_string().contains("pivot 2"));
    }
}
