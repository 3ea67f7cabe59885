//! Device variation models.
//!
//! Two variabilities, following §2.1 of the paper:
//!
//! * **Parametric variation** — device-to-device, from fabrication: a
//!   device programmed to nominal conductance `g` realizes `g·e^θ` with
//!   `θ ~ N(0, σ²)` (lognormal, Lee et al. VLSIT'12). This is the dominant
//!   effect and the one Vortex compensates.
//! * **Switching variation** — cycle-to-cycle on a single device: each
//!   programming event lands with an extra multiplicative jitter
//!   `e^ε`, `ε ~ N(0, σ_sw²)`, normally negligible next to the parametric
//!   term (σ_sw ≪ σ).

use serde::{Deserialize, Serialize};
use vortex_linalg::distributions::Normal;
use vortex_linalg::rng::Xoshiro256PlusPlus;
use vortex_linalg::Matrix;

use crate::{DeviceError, Result};

/// Lognormal parametric + Gaussian switching variation model.
///
/// # Example
///
/// ```
/// use vortex_device::VariationModel;
/// use vortex_linalg::rng::Xoshiro256PlusPlus;
///
/// # fn main() -> Result<(), vortex_device::DeviceError> {
/// let model = VariationModel::new(0.6, 0.02)?;
/// let mut rng = Xoshiro256PlusPlus::seed_from_u64(1);
/// let theta = model.sample_theta(&mut rng);
/// let g_actual = VariationModel::apply(1e-4, theta);
/// assert!(g_actual > 0.0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct VariationModel {
    sigma: f64,
    sigma_switching: f64,
}

impl VariationModel {
    /// Creates a variation model with parametric log-std `sigma` and
    /// switching log-std `sigma_switching`.
    ///
    /// # Errors
    ///
    /// Returns [`DeviceError::InvalidParameter`] if either sigma is
    /// negative or non-finite.
    pub fn new(sigma: f64, sigma_switching: f64) -> Result<Self> {
        if !(sigma.is_finite() && sigma >= 0.0) {
            return Err(DeviceError::InvalidParameter {
                name: "sigma",
                requirement: "must be finite and non-negative",
            });
        }
        if !(sigma_switching.is_finite() && sigma_switching >= 0.0) {
            return Err(DeviceError::InvalidParameter {
                name: "sigma_switching",
                requirement: "must be finite and non-negative",
            });
        }
        Ok(Self {
            sigma,
            sigma_switching,
        })
    }

    /// Pure parametric model (no switching variation).
    ///
    /// # Errors
    ///
    /// See [`Self::new`].
    pub fn parametric(sigma: f64) -> Result<Self> {
        Self::new(sigma, 0.0)
    }

    /// The ideal, variation-free model.
    pub fn none() -> Self {
        Self {
            sigma: 0.0,
            sigma_switching: 0.0,
        }
    }

    /// Parametric log-domain standard deviation σ.
    pub fn sigma(&self) -> f64 {
        self.sigma
    }

    /// Switching (cycle-to-cycle) log-domain standard deviation.
    pub fn sigma_switching(&self) -> f64 {
        self.sigma_switching
    }

    /// Returns a copy with a different parametric σ.
    ///
    /// Used by the VAT/AMP integration (§4.3): after AMP reduces the
    /// *effective* variation seen by sensitive rows, VAT re-tunes against
    /// the reduced σ.
    pub fn with_sigma(&self, sigma: f64) -> Result<Self> {
        Self::new(sigma, self.sigma_switching)
    }

    /// Samples one parametric deviation θ ~ N(0, σ²).
    pub fn sample_theta(&self, rng: &mut Xoshiro256PlusPlus) -> f64 {
        if self.sigma == 0.0 {
            return 0.0;
        }
        Normal::standard().sample(rng) * self.sigma
    }

    /// Samples a `rows × cols` matrix of parametric deviations — one θ per
    /// crossbar cell.
    pub fn sample_theta_matrix(
        &self,
        rows: usize,
        cols: usize,
        rng: &mut Xoshiro256PlusPlus,
    ) -> Matrix {
        Matrix::from_fn(rows, cols, |_, _| self.sample_theta(rng))
    }

    /// Samples one switching (cycle-to-cycle) deviation ε ~ N(0, σ_sw²).
    pub fn sample_switching(&self, rng: &mut Xoshiro256PlusPlus) -> f64 {
        if self.sigma_switching == 0.0 {
            return 0.0;
        }
        Normal::standard().sample(rng) * self.sigma_switching
    }

    /// Applies a log-domain deviation to a nominal conductance:
    /// `g_actual = g_nominal · e^θ`.
    pub fn apply(g_nominal: f64, theta: f64) -> f64 {
        g_nominal * theta.exp()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vortex_linalg::stats;

    #[test]
    fn validation() {
        assert!(VariationModel::new(-0.1, 0.0).is_err());
        assert!(VariationModel::new(0.5, -0.1).is_err());
        assert!(VariationModel::new(f64::NAN, 0.0).is_err());
        assert!(VariationModel::new(0.6, 0.02).is_ok());
    }

    #[test]
    fn none_model_is_deterministic() {
        let m = VariationModel::none();
        let mut rng = Xoshiro256PlusPlus::seed_from_u64(1);
        for _ in 0..10 {
            assert_eq!(m.sample_theta(&mut rng), 0.0);
            assert_eq!(m.sample_switching(&mut rng), 0.0);
        }
    }

    #[test]
    fn theta_moments() {
        let m = VariationModel::parametric(0.6).unwrap();
        let mut rng = Xoshiro256PlusPlus::seed_from_u64(2);
        let xs: Vec<f64> = (0..100_000).map(|_| m.sample_theta(&mut rng)).collect();
        assert!(stats::mean(&xs).abs() < 0.01);
        assert!((stats::std_dev(&xs) - 0.6).abs() < 0.01);
    }

    #[test]
    fn theta_matrix_shape_and_spread() {
        let m = VariationModel::parametric(0.3).unwrap();
        let mut rng = Xoshiro256PlusPlus::seed_from_u64(3);
        let t = m.sample_theta_matrix(50, 40, &mut rng);
        assert_eq!(t.shape(), (50, 40));
        let s = stats::std_dev(t.as_slice());
        assert!((s - 0.3).abs() < 0.02, "std {s}");
    }

    #[test]
    fn apply_is_multiplicative_lognormal() {
        assert_eq!(VariationModel::apply(2e-5, 0.0), 2e-5);
        assert!((VariationModel::apply(1.0, 0.6) - 0.6_f64.exp()).abs() < 1e-12);
        assert!(VariationModel::apply(1e-4, -3.0) > 0.0);
    }

    #[test]
    fn programmed_resistances_follow_lognormal() {
        // Fig. 1(c): programming many devices to LRS yields a lognormal
        // spread around 10 kΩ.
        let m = VariationModel::parametric(0.4).unwrap();
        let mut rng = Xoshiro256PlusPlus::seed_from_u64(4);
        let g_on = 1e-4;
        let gs: Vec<f64> = (0..50_000)
            .map(|_| VariationModel::apply(g_on, m.sample_theta(&mut rng)))
            .collect();
        // log(g/g_on) should be N(0, 0.4²).
        let logs: Vec<f64> = gs.iter().map(|g| (g / g_on).ln()).collect();
        assert!(stats::mean(&logs).abs() < 0.01);
        assert!((stats::std_dev(&logs) - 0.4).abs() < 0.01);
    }

    #[test]
    fn with_sigma_replaces_only_parametric() {
        let m = VariationModel::new(0.6, 0.02).unwrap();
        let m2 = m.with_sigma(0.3).unwrap();
        assert_eq!(m2.sigma(), 0.3);
        assert_eq!(m2.sigma_switching(), 0.02);
    }
}

/// Spatially correlated variation: every cell's deviation is the sum of
/// an independent per-cell term, a shared per-row term and a shared
/// per-column term, `θ_ij = θ_cell + θ_row(i) + θ_col(j)`.
///
/// §4.1.3 of the paper notes that the proposed techniques "are not
/// restricted to any particular variation models"; this model probes
/// that claim. Row-correlated variation is the regime where AMP's
/// row-granularity remapping is most effective (a systematically bad row
/// can be dodged wholesale), while purely i.i.d. variation is its
/// hardest case.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CorrelatedVariationModel {
    sigma_cell: f64,
    sigma_row: f64,
    sigma_col: f64,
}

impl CorrelatedVariationModel {
    /// Creates a correlated model from the three component log-stds.
    ///
    /// # Errors
    ///
    /// Returns [`DeviceError::InvalidParameter`] if any component is
    /// negative or non-finite.
    pub fn new(sigma_cell: f64, sigma_row: f64, sigma_col: f64) -> Result<Self> {
        for (name, v) in [
            ("sigma_cell", sigma_cell),
            ("sigma_row", sigma_row),
            ("sigma_col", sigma_col),
        ] {
            if !(v.is_finite() && v >= 0.0) {
                let _ = name;
                return Err(DeviceError::InvalidParameter {
                    name: "sigma component",
                    requirement: "must be finite and non-negative",
                });
            }
        }
        Ok(Self {
            sigma_cell,
            sigma_row,
            sigma_col,
        })
    }

    /// Per-cell (independent) component σ.
    pub fn sigma_cell(&self) -> f64 {
        self.sigma_cell
    }

    /// Per-row (shared) component σ.
    pub fn sigma_row(&self) -> f64 {
        self.sigma_row
    }

    /// Per-column (shared) component σ.
    pub fn sigma_col(&self) -> f64 {
        self.sigma_col
    }

    /// Total per-cell standard deviation
    /// `sqrt(σ_cell² + σ_row² + σ_col²)` — the σ an i.i.d. model would
    /// need to match this model's marginal spread.
    pub fn total_sigma(&self) -> f64 {
        (self.sigma_cell * self.sigma_cell
            + self.sigma_row * self.sigma_row
            + self.sigma_col * self.sigma_col)
            .sqrt()
    }

    /// Samples a full `rows × cols` deviation field.
    pub fn sample_theta_matrix(
        &self,
        rows: usize,
        cols: usize,
        rng: &mut Xoshiro256PlusPlus,
    ) -> Matrix {
        let normal = Normal::standard();
        let row_terms: Vec<f64> = (0..rows)
            .map(|_| normal.sample(rng) * self.sigma_row)
            .collect();
        let col_terms: Vec<f64> = (0..cols)
            .map(|_| normal.sample(rng) * self.sigma_col)
            .collect();
        Matrix::from_fn(rows, cols, |i, j| {
            normal.sample(rng) * self.sigma_cell + row_terms[i] + col_terms[j]
        })
    }
}

#[cfg(test)]
mod correlated_tests {
    use super::*;
    use vortex_linalg::stats;

    #[test]
    fn validation_and_total_sigma() {
        assert!(CorrelatedVariationModel::new(-0.1, 0.0, 0.0).is_err());
        assert!(CorrelatedVariationModel::new(0.0, f64::NAN, 0.0).is_err());
        let m = CorrelatedVariationModel::new(0.3, 0.4, 0.0).unwrap();
        assert!((m.total_sigma() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn marginal_spread_matches_total_sigma() {
        let m = CorrelatedVariationModel::new(0.3, 0.4, 0.2).unwrap();
        let mut rng = Xoshiro256PlusPlus::seed_from_u64(5);
        let field = m.sample_theta_matrix(200, 100, &mut rng);
        let s = stats::std_dev(field.as_slice());
        assert!((s - m.total_sigma()).abs() < 0.03, "marginal std {s}");
    }

    #[test]
    fn row_correlation_is_visible() {
        // With a dominant row component, within-row spread is much
        // smaller than the overall spread.
        let m = CorrelatedVariationModel::new(0.1, 0.8, 0.0).unwrap();
        let mut rng = Xoshiro256PlusPlus::seed_from_u64(6);
        let field = m.sample_theta_matrix(100, 50, &mut rng);
        let overall = stats::std_dev(field.as_slice());
        let within: f64 = (0..100).map(|i| stats::std_dev(field.row(i))).sum::<f64>() / 100.0;
        assert!(
            within < overall / 3.0,
            "within-row {within} vs overall {overall}"
        );
    }

    #[test]
    fn iid_limit_matches_plain_model() {
        let m = CorrelatedVariationModel::new(0.6, 0.0, 0.0).unwrap();
        let mut rng = Xoshiro256PlusPlus::seed_from_u64(7);
        let field = m.sample_theta_matrix(80, 80, &mut rng);
        let s = stats::std_dev(field.as_slice());
        assert!((s - 0.6).abs() < 0.02);
        // Rows are then uncorrelated: within-row spread ≈ overall spread.
        let within: f64 = (0..80).map(|i| stats::std_dev(field.row(i))).sum::<f64>() / 80.0;
        assert!((within - s).abs() < 0.05);
    }
}
