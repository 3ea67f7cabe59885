//! Retention drift: conductance relaxation over time.
//!
//! Filamentary resistive devices lose conductance after programming,
//! classically modeled as a power law `g(t) = g₀·(1 + t/τ)^{−ν}` with a
//! device-to-device spread in the drift exponent ν. The paper does not
//! evaluate retention, but its variation machinery applies unchanged: a
//! per-device random ν is just one more multiplicative disturbance, so
//! VAT's guard band should buy retention time. [`DriftProcess`] is the
//! one way the workspace ages a crossbar pair.

use serde::{Deserialize, Serialize};
use vortex_linalg::distributions::Normal;
use vortex_linalg::rng::Xoshiro256PlusPlus;
use vortex_linalg::Matrix;

use crate::{DeviceError, Result};

/// Power-law retention model with lognormal-ish exponent spread.
///
/// # Example
///
/// ```
/// use vortex_device::drift::RetentionModel;
///
/// # fn main() -> Result<(), vortex_device::DeviceError> {
/// let model = RetentionModel::new(0.05, 0.02, 1.0)?;
/// let after_a_year = model.decay_factor(0.05, 3.15e7);
/// assert!(after_a_year < 1.0 && after_a_year > 0.1);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RetentionModel {
    /// Mean drift exponent ν (typical TaOx/HfOx values: 0.01–0.1).
    pub nu_mean: f64,
    /// Device-to-device standard deviation of ν (negative samples clamp
    /// to 0 — some devices simply do not drift).
    pub nu_sigma: f64,
    /// Reference time constant τ in seconds.
    pub tau_s: f64,
}

impl RetentionModel {
    /// Creates a retention model.
    ///
    /// # Errors
    ///
    /// Returns [`DeviceError::InvalidParameter`] for negative/non-finite
    /// parameters or a non-positive τ.
    pub fn new(nu_mean: f64, nu_sigma: f64, tau_s: f64) -> Result<Self> {
        if !(nu_mean.is_finite() && nu_mean >= 0.0) {
            return Err(DeviceError::InvalidParameter {
                name: "nu_mean",
                requirement: "must be finite and non-negative",
            });
        }
        if !(nu_sigma.is_finite() && nu_sigma >= 0.0) {
            return Err(DeviceError::InvalidParameter {
                name: "nu_sigma",
                requirement: "must be finite and non-negative",
            });
        }
        if !(tau_s.is_finite() && tau_s > 0.0) {
            return Err(DeviceError::InvalidParameter {
                name: "tau_s",
                requirement: "must be finite and positive",
            });
        }
        Ok(Self {
            nu_mean,
            nu_sigma,
            tau_s,
        })
    }

    /// Samples one device's drift exponent (clamped at 0).
    pub fn sample_nu(&self, rng: &mut Xoshiro256PlusPlus) -> f64 {
        (self.nu_mean + Normal::standard().sample(rng) * self.nu_sigma).max(0.0)
    }

    /// The decay factor of a device with exponent `nu` after `t_s`
    /// seconds: `(1 + t/τ)^{−ν}` (1 at `t = 0`, monotone decreasing).
    pub fn decay_factor(&self, nu: f64, t_s: f64) -> f64 {
        (1.0 + t_s.max(0.0) / self.tau_s).powf(-nu.max(0.0))
    }

    /// Samples one drift exponent per device, row-major (the sampling
    /// order is part of the determinism contract: the same generator
    /// state always yields the same matrix, bit for bit).
    ///
    /// Evaluating [`Self::decay_matrix`] of one sampled population at
    /// several times describes that population aging: decay is monotone
    /// in time per device, which is what lifetime simulations
    /// (drift-aged serving, canary probing) need.
    pub fn sample_nu_matrix(
        &self,
        rows: usize,
        cols: usize,
        rng: &mut Xoshiro256PlusPlus,
    ) -> Matrix {
        Matrix::from_fn(rows, cols, |_, _| self.sample_nu(rng))
    }

    /// The per-device decay-factor matrix of a fixed exponent population
    /// `nu` after `t_s` seconds: elementwise `(1 + t/τ)^{−ν}`.
    pub fn decay_matrix(&self, nu: &Matrix, t_s: f64) -> Matrix {
        nu.map(|v| self.decay_factor(v, t_s))
    }
}

/// The single workspace drift implementation: a [`RetentionModel`] plus
/// the seed its per-device exponents are drawn from.
///
/// Every consumer that ages a differential crossbar pair — the chaos
/// plan's one-shot aging (`CompiledModel::age_with`), the lifetime
/// timeline's continuous aging (`vortex_serve::lifetime`) — goes through
/// this type, so there is exactly one definition of "drift at time t":
/// one generator seeded with [`DriftProcess::seed`], the positive
/// crossbar's ν sampled first (row-major), then the negative crossbar's,
/// each device decaying as `(1 + t/τ)^{−ν}`. That draw order is part of
/// the determinism contract; a regression test pins it bit for bit.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DriftProcess {
    /// The power-law retention model ν is drawn from.
    pub retention: RetentionModel,
    /// Seed of the ν draws; equal seeds yield bit-identical populations.
    pub seed: u64,
}

impl DriftProcess {
    /// A drift process drawing its exponents from `retention` under
    /// `seed`.
    pub fn new(retention: RetentionModel, seed: u64) -> Self {
        Self { retention, seed }
    }

    /// The frozen per-device exponent populations of a `rows` × `cols`
    /// differential pair: `(ν_pos, ν_neg)`, positive crossbar sampled
    /// first, row-major, from one generator seeded with
    /// [`Self::seed`].
    pub fn nu_matrices(&self, rows: usize, cols: usize) -> (Matrix, Matrix) {
        let mut rng = Xoshiro256PlusPlus::seed_from_u64(self.seed);
        let nu_pos = self.retention.sample_nu_matrix(rows, cols, &mut rng);
        let nu_neg = self.retention.sample_nu_matrix(rows, cols, &mut rng);
        (nu_pos, nu_neg)
    }

    /// The decay-factor matrices `(d_pos, d_neg)` of the pair after
    /// `t_s` seconds — [`Self::nu_matrices`] pushed through
    /// [`RetentionModel::decay_matrix`]. Pure in `(seed, t_s)`: the same
    /// process evaluated at several times describes *one* population
    /// aging monotonically.
    pub fn decay_matrices(&self, rows: usize, cols: usize, t_s: f64) -> (Matrix, Matrix) {
        let (nu_pos, nu_neg) = self.nu_matrices(rows, cols);
        (
            self.retention.decay_matrix(&nu_pos, t_s),
            self.retention.decay_matrix(&nu_neg, t_s),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vortex_linalg::stats;

    fn model() -> RetentionModel {
        RetentionModel::new(0.05, 0.02, 1.0).unwrap()
    }

    #[test]
    fn validation() {
        assert!(RetentionModel::new(-0.1, 0.0, 1.0).is_err());
        assert!(RetentionModel::new(0.05, -0.1, 1.0).is_err());
        assert!(RetentionModel::new(0.05, 0.02, 0.0).is_err());
    }

    #[test]
    fn no_decay_at_time_zero() {
        let m = model();
        assert_eq!(m.decay_factor(0.08, 0.0), 1.0);
        let mut rng = Xoshiro256PlusPlus::seed_from_u64(1);
        let d = m.decay_matrix(&m.sample_nu_matrix(5, 5, &mut rng), 0.0);
        assert!(d.as_slice().iter().all(|&v| (v - 1.0).abs() < 1e-12));
    }

    #[test]
    fn decay_is_monotone_in_time_and_nu() {
        let m = model();
        let f1 = m.decay_factor(0.05, 1e3);
        let f2 = m.decay_factor(0.05, 1e6);
        assert!(f2 < f1 && f1 < 1.0);
        assert!(m.decay_factor(0.1, 1e3) < m.decay_factor(0.02, 1e3));
        // ν = 0 devices never drift.
        assert_eq!(m.decay_factor(0.0, 1e9), 1.0);
    }

    #[test]
    fn spread_grows_with_time() {
        let m = model();
        let mut rng = Xoshiro256PlusPlus::seed_from_u64(2);
        // Two independent populations, one observed early, one late.
        let early = m.decay_matrix(&m.sample_nu_matrix(50, 50, &mut rng), 1e2);
        let late = m.decay_matrix(&m.sample_nu_matrix(50, 50, &mut rng), 1e7);
        assert!(
            stats::std_dev(late.as_slice()) > stats::std_dev(early.as_slice()),
            "drift dispersion must grow with time"
        );
    }

    #[test]
    fn fixed_nu_population_ages_monotonically() {
        let m = model();
        let mut rng = Xoshiro256PlusPlus::seed_from_u64(7);
        let nu = m.sample_nu_matrix(8, 8, &mut rng);
        let early = m.decay_matrix(&nu, 1e3);
        let late = m.decay_matrix(&nu, 1e6);
        for (e, l) in early.as_slice().iter().zip(late.as_slice()) {
            assert!(l <= e, "decay must be monotone per device: {l} > {e}");
        }
        // Same generator state ⇒ bit-identical population.
        let mut rng2 = Xoshiro256PlusPlus::seed_from_u64(7);
        let nu2 = m.sample_nu_matrix(8, 8, &mut rng2);
        for (a, b) in nu.as_slice().iter().zip(nu2.as_slice()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn drift_process_reproduces_pre_refactor_values_bit_for_bit() {
        // Pinned from the pre-unification chaos path (an inline
        // seed_from_u64 → sample_nu_matrix(pos) → sample_nu_matrix(neg)
        // → decay_matrix sequence): the refactor onto DriftProcess must
        // not move a single bit, or every chaos/lifetime replay breaks.
        let process = DriftProcess::new(RetentionModel::new(0.6, 0.3, 1e-3).unwrap(), 0xC0FFEE);
        let (d_pos, d_neg) = process.decay_matrices(3, 2, 1e6);
        let expect_pos: [u64; 6] = [
            4518005782706378296,
            4458723452706915587,
            4472439513132427618,
            4529014695660425918,
            4526183680163417058,
            4572551542985347622,
        ];
        let expect_neg: [u64; 6] = [
            4520508902767501407,
            4560851213747250929,
            4559927379194066258,
            4574849801410893411,
            4536156391521418422,
            4460434047817344323,
        ];
        for (got, want) in d_pos.as_slice().iter().zip(expect_pos) {
            assert_eq!(got.to_bits(), want, "positive-crossbar decay moved");
        }
        for (got, want) in d_neg.as_slice().iter().zip(expect_neg) {
            assert_eq!(got.to_bits(), want, "negative-crossbar decay moved");
        }
    }

    #[test]
    fn drift_process_is_pure_in_seed_and_time() {
        let process = DriftProcess::new(model(), 42);
        assert_eq!(
            process.decay_matrices(4, 3, 1e5),
            process.decay_matrices(4, 3, 1e5)
        );
        // One population aging: ν is frozen, so decay is monotone per
        // device across evaluation times.
        let (early, _) = process.decay_matrices(4, 3, 1e3);
        let (late, _) = process.decay_matrices(4, 3, 1e6);
        for (e, l) in early.as_slice().iter().zip(late.as_slice()) {
            assert!(l <= e);
        }
        let other = DriftProcess::new(model(), 43);
        assert_ne!(
            process.decay_matrices(4, 3, 1e5),
            other.decay_matrices(4, 3, 1e5)
        );
    }

    #[test]
    fn factors_in_unit_interval() {
        let m = model();
        let mut rng = Xoshiro256PlusPlus::seed_from_u64(3);
        let d = m.decay_matrix(&m.sample_nu_matrix(30, 30, &mut rng), 1e5);
        assert!(d.as_slice().iter().all(|&v| v > 0.0 && v <= 1.0));
    }
}
