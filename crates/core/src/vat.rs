//! Variation-Aware Training (VAT) — §4.1 of the paper.
//!
//! Starting from the conventional per-column hinge constraints (Eq. (3)),
//! VAT linearizes the lognormal device variation `e^θ ≈ α₀ + α₁·θ`
//! (Eq. (5)), splits the constraint into the conventional term plus a
//! "penalty of variations" (Eq. (6)), and replaces the random penalty by
//! its Chi-square-confidence upper bound `ρ·‖x⁽ⁱ⁾ ∘ W_r‖₂` (Eq. (7)).
//! A scale knob `γ ∈ [0, 1]` interpolates between conventional GDT
//! (`γ = 0`) and the full estimated penalty (`γ = 1`) (Eq. (10)).
//!
//! The optimization runs the epoch-shuffled subgradient descent of
//! [`vortex_nn::gdt`] ([`GdtTrainer::train_column_penalized`]); the extra
//! penalty contributes the subgradient `γ·ρ·(x ∘ x ∘ w)/‖x ∘ w‖₂`
//! whenever the padded margin is violated.

use serde::{Deserialize, Serialize};
use vortex_linalg::rng::Xoshiro256PlusPlus;
use vortex_linalg::Matrix;
use vortex_nn::dataset::Dataset;
use vortex_nn::executor::Parallelism;
use vortex_nn::gdt::GdtTrainer;
use vortex_nn::pool::WorkerPool;

use crate::rho::RhoConfig;
use crate::{CoreError, Result};

/// VAT trainer: hinge subgradient descent with the variation penalty.
///
/// # Example
///
/// ```
/// use vortex_core::vat::VatTrainer;
/// use vortex_nn::dataset::{DatasetConfig, SynthDigits};
///
/// # fn main() -> Result<(), vortex_core::CoreError> {
/// let data = SynthDigits::generate(&DatasetConfig::tiny(), 1)?;
/// let trainer = VatTrainer {
///     epochs: 5,
///     gamma: 0.3,   // penalty scale of Eq. (10)
///     sigma: 0.6,   // the device variation to guard against
///     ..Default::default()
/// };
/// let weights = trainer.train(&data)?;
/// assert_eq!(weights.shape(), (data.num_features(), 10));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct VatTrainer {
    /// Number of passes over the training data.
    pub epochs: usize,
    /// Initial learning rate.
    pub learning_rate: f64,
    /// L2 regularization coefficient.
    pub l2: f64,
    /// Target margin (1 in the paper's constraints).
    pub margin: f64,
    /// Penalty scale γ ∈ [0, 1] (Eq. (10)); 0 recovers conventional GDT.
    pub gamma: f64,
    /// Device-variation log-std σ the penalty is computed against.
    pub sigma: f64,
    /// Linearization coefficient α₀ of `e^θ ≈ α₀ + α₁θ` (1 in the paper).
    pub alpha0: f64,
    /// Linearization coefficient α₁ (1 in the paper).
    pub alpha1: f64,
    /// Chi-square confidence for ρ.
    pub rho_config: RhoConfig,
    /// Shuffle seed.
    pub seed: u64,
}

impl Default for VatTrainer {
    fn default() -> Self {
        Self {
            epochs: 30,
            learning_rate: 0.05,
            l2: 1e-4,
            margin: 1.0,
            gamma: 0.2,
            sigma: 0.6,
            alpha0: 1.0,
            alpha1: 1.0,
            rho_config: RhoConfig::default(),
            seed: 0xB01D,
        }
    }
}

impl VatTrainer {
    /// A copy with a different γ (used by the self-tuning scan).
    pub fn with_gamma(mut self, gamma: f64) -> Self {
        self.gamma = gamma;
        self
    }

    /// A copy with a different σ (used by the AMP integration, §4.3).
    pub fn with_sigma(mut self, sigma: f64) -> Self {
        self.sigma = sigma;
        self
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidParameter`] on out-of-domain fields.
    pub fn validate(&self) -> Result<()> {
        if self.epochs == 0 {
            return Err(CoreError::InvalidParameter {
                name: "epochs",
                requirement: "must be positive",
            });
        }
        if !(self.learning_rate.is_finite() && self.learning_rate > 0.0) {
            return Err(CoreError::InvalidParameter {
                name: "learning_rate",
                requirement: "must be finite and positive",
            });
        }
        if !(self.l2.is_finite() && self.l2 >= 0.0) {
            return Err(CoreError::InvalidParameter {
                name: "l2",
                requirement: "must be finite and non-negative",
            });
        }
        if !((0.0..=1.0).contains(&self.gamma)) {
            return Err(CoreError::InvalidParameter {
                name: "gamma",
                requirement: "must lie in [0, 1]",
            });
        }
        if !(self.sigma.is_finite() && self.sigma >= 0.0) {
            return Err(CoreError::InvalidParameter {
                name: "sigma",
                requirement: "must be finite and non-negative",
            });
        }
        if !(self.margin.is_finite() && self.margin > 0.0) {
            return Err(CoreError::InvalidParameter {
                name: "margin",
                requirement: "must be finite and positive",
            });
        }
        if !(self.alpha0.is_finite() && self.alpha0 > 0.0) {
            return Err(CoreError::InvalidParameter {
                name: "alpha0",
                requirement: "must be finite and positive",
            });
        }
        if !self.alpha1.is_finite() {
            return Err(CoreError::InvalidParameter {
                name: "alpha1",
                requirement: "must be finite",
            });
        }
        Ok(())
    }

    /// The effective penalty coefficient `κ·γ·ρ_rms·|α₁|` for `n` input
    /// rows, using the RMS-normalized confidence radius
    /// ([`RhoConfig::rho_rms`] — see there for the calibration
    /// rationale). The fixed factor `κ = 2` aligns the γ axis with the
    /// paper's: under it the with-variation test-rate peak lands in the
    /// paper's 0.2–0.5 band rather than at the top of the sweep.
    ///
    /// # Errors
    ///
    /// Propagates ρ computation errors.
    pub fn penalty_coefficient(&self, n: usize) -> Result<f64> {
        const KAPPA: f64 = 2.0;
        let rho = self.rho_config.rho_rms(self.sigma, n)?;
        Ok(KAPPA * self.gamma * rho * self.alpha1.abs())
    }

    /// Trains all columns, returning the `features × classes` weight
    /// matrix: [`Self::train_grid`] at this trainer's γ alone, serially.
    ///
    /// Each call records one `pipeline.vat_train_seconds` span. The
    /// self-tuner does not call this: it trains its whole grid in one
    /// [`Self::train_grid`] call, timed by its `tuning.*` spans instead.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidParameter`] for invalid configuration
    /// or an empty dataset.
    pub fn train(&self, data: &Dataset) -> Result<Matrix> {
        let _span = vortex_obs::span!("pipeline.vat_train_seconds");
        Ok(self
            .train_grid(&[self.gamma], data, Parallelism::Serial)?
            .remove(0))
    }

    /// Trains this trainer at every γ in `gammas` on `data`, returning
    /// one `features × classes` weight matrix per γ, each bit-identical
    /// to `self.with_gamma(γ).train(data)`.
    ///
    /// Each class trains its γ candidates in lockstep, in blocks of up to
    /// four lanes of [`GdtTrainer::train_columns_penalized`]; a single γ
    /// takes one lane. A short last block is padded with coefficient-0
    /// lanes whose output is dropped. The (class, block) tasks are
    /// independent and draw no randomness, so they fan out one task each
    /// on the global pool, up to `parallelism` wide, without changing a
    /// bit.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Self::train`], for `self` at every γ.
    pub fn train_grid(
        &self,
        gammas: &[f64],
        data: &Dataset,
        parallelism: Parallelism,
    ) -> Result<Vec<Matrix>> {
        self.validate()?;
        if data.is_empty() {
            return Err(CoreError::InvalidParameter {
                name: "data",
                requirement: "must be non-empty",
            });
        }
        let coeffs = gammas
            .iter()
            .map(|&gamma| {
                let trainer = self.with_gamma(gamma);
                trainer.validate()?;
                trainer.penalty_coefficient(data.num_features())
            })
            .collect::<Result<Vec<f64>>>()?;
        if coeffs.len() == 1 {
            self.train_lanes::<1>(&coeffs, data, parallelism)
        } else {
            self.train_lanes::<4>(&coeffs, data, parallelism)
        }
    }

    /// [`Self::train_grid`] with the penalty coefficients already formed,
    /// `L` lanes per block.
    fn train_lanes<const L: usize>(
        &self,
        coeffs: &[f64],
        data: &Dataset,
        parallelism: Parallelism,
    ) -> Result<Vec<Matrix>> {
        let classes = data.num_classes();
        let blocks = coeffs.len().div_ceil(L);
        let gdt = self.gdt();
        let task = |t: usize| {
            let mut block = [0.0; L];
            for (lane, &coeff) in block.iter_mut().zip(&coeffs[t % blocks * L..]) {
                *lane = coeff;
            }
            gdt.train_columns_penalized(data, (t / blocks) as u8, self.alpha0, block)
        };
        // A serial call leaves the global pool unspawned: `train` runs in
        // processes that never fan out.
        let lanes: Vec<_> = match parallelism.resolve() {
            1 => (0..classes * blocks).map(task).collect(),
            width => WorkerPool::global().run_indexed(classes * blocks, width, task),
        };
        let mut grid = vec![Matrix::zeros(data.num_features(), classes); coeffs.len()];
        for (t, lanes) in lanes.into_iter().enumerate() {
            let (class, block) = (t / blocks, t % blocks);
            for (q, lane) in lanes?.iter().enumerate() {
                for (w, &v) in grid[block * L..].iter_mut().zip(lane) {
                    w.row_mut(q)[class] = v;
                }
            }
        }
        Ok(grid)
    }

    /// Trains one column with "1 vs. all" targets: the hinge loop of
    /// [`GdtTrainer::train_column_penalized`] with this trainer's α₀ and
    /// [`Self::penalty_coefficient`].
    ///
    /// # Errors
    ///
    /// Same conditions as [`Self::train`].
    pub fn train_column(&self, data: &Dataset, class: u8) -> Result<Vec<f64>> {
        self.validate()?;
        if data.is_empty() {
            return Err(CoreError::InvalidParameter {
                name: "data",
                requirement: "must be non-empty",
            });
        }
        let coeff = self.penalty_coefficient(data.num_features())?;
        Ok(self
            .gdt()
            .train_column_penalized(data, class, self.alpha0, coeff)?)
    }

    /// The hinge-SGD settings this trainer shares with GDT.
    fn gdt(&self) -> GdtTrainer {
        GdtTrainer {
            epochs: self.epochs,
            learning_rate: self.learning_rate,
            l2: self.l2,
            margin: self.margin,
            seed: self.seed,
        }
    }
}

/// Injects one draw of lognormal variation into a weight matrix:
/// `w'_ij = w_ij · e^{θ_ij}`, `θ ~ N(0, σ²)` — the validation step of the
/// self-tuning loop (Fig. 5) and the weight-domain abstraction of an
/// open-loop programmed crossbar.
pub fn inject_variation(w: &Matrix, sigma: f64, rng: &mut Xoshiro256PlusPlus) -> Matrix {
    if sigma == 0.0 {
        return w.clone();
    }
    w.map(|v| {
        let theta = vortex_linalg::distributions::standard_normal(rng) * sigma;
        v * theta.exp()
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use vortex_nn::dataset::{DatasetConfig, SynthDigits};
    use vortex_nn::metrics::accuracy_of_weights;

    fn data() -> Dataset {
        SynthDigits::generate(&DatasetConfig::tiny(), 71).unwrap()
    }

    fn fast(gamma: f64, sigma: f64) -> VatTrainer {
        VatTrainer {
            epochs: 12,
            gamma,
            sigma,
            ..Default::default()
        }
    }

    #[test]
    fn gamma_zero_matches_plain_hinge_closely() {
        // With γ = 0 the penalty vanishes; VAT reduces to conventional GDT
        // (same loss, same kind of optimizer).
        let d = data();
        let w = fast(0.0, 0.6).train(&d).unwrap();
        let acc = accuracy_of_weights(&w, &d);
        assert!(acc > 0.6, "γ=0 training accuracy {acc}");
    }

    #[test]
    fn validation_rejects_bad_fields() {
        let d = data();
        let mut t = fast(0.2, 0.6);
        t.gamma = 1.5;
        assert!(t.train(&d).is_err());
        t = fast(0.2, 0.6);
        t.sigma = -0.1;
        assert!(t.train(&d).is_err());
        t = fast(0.2, 0.6);
        t.epochs = 0;
        assert!(t.train(&d).is_err());
        // A NaN α₀ fails every margin test, which would silently train
        // all-zero weights.
        for alpha0 in [f64::NAN, f64::INFINITY, 0.0, -1.0] {
            t = fast(0.2, 0.6);
            t.alpha0 = alpha0;
            assert!(t.validate().is_err(), "alpha0 = {alpha0}");
            assert!(t.train_column(&d, 0).is_err(), "alpha0 = {alpha0}");
        }
        for alpha1 in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            t = fast(0.2, 0.6);
            t.alpha1 = alpha1;
            assert!(t.validate().is_err(), "alpha1 = {alpha1}");
            assert!(t.train(&d).is_err(), "alpha1 = {alpha1}");
        }
    }

    #[test]
    fn training_is_deterministic() {
        let d = data();
        let t = fast(0.3, 0.6);
        assert_eq!(t.train(&d).unwrap(), t.train(&d).unwrap());
    }

    #[test]
    fn grid_training_is_bit_identical_to_training_each_gamma() {
        let d = data();
        let t = fast(0.0, 0.7);
        let bits = |w: &Matrix| w.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        // One lane, blocks of four padded by two and by one lane, and a
        // full block followed by a padded one.
        for gammas in [
            vec![0.4],
            vec![0.0, 1.0],
            vec![0.9, 0.0, 0.45],
            vec![0.0, 0.2, 0.4, 0.6, 0.8],
        ] {
            for parallelism in [Parallelism::Serial, Parallelism::Fixed(3)] {
                let grid = t.train_grid(&gammas, &d, parallelism).unwrap();
                assert_eq!(grid.len(), gammas.len());
                for (&gamma, w) in gammas.iter().zip(&grid) {
                    let want = t.with_gamma(gamma).train(&d).unwrap();
                    assert_eq!(bits(w), bits(&want), "γ = {gamma} of {gammas:?}");
                }
            }
        }
        assert!(t
            .train_grid(&[], &d, Parallelism::Serial)
            .unwrap()
            .is_empty());
        assert!(t.train_grid(&[0.2, 1.5], &d, Parallelism::Serial).is_err());
        assert!(t
            .train_grid(&[0.2], &d.subset(&[]), Parallelism::Serial)
            .is_err());
    }

    #[test]
    fn penalty_lowers_training_rate() {
        // §4.1.2: "such a method applies a tighter constraint … potentially
        // lower training rate".
        let d = data();
        let w0 = fast(0.0, 0.8).train(&d).unwrap();
        let w1 = fast(1.0, 0.8).train(&d).unwrap();
        let a0 = accuracy_of_weights(&w0, &d);
        let a1 = accuracy_of_weights(&w1, &d);
        assert!(
            a1 <= a0 + 0.02,
            "full penalty should not fit better: γ=0 → {a0}, γ=1 → {a1}"
        );
    }

    #[test]
    fn vat_improves_robustness_under_variation() {
        // The core claim: at moderate γ the *with-variation* accuracy beats
        // conventional training's, even if the clean fit is slightly worse.
        let d = data();
        let sigma = 0.8;
        let w_plain = fast(0.0, sigma).train(&d).unwrap();
        let w_vat = fast(0.35, sigma).train(&d).unwrap();
        let mut rng = Xoshiro256PlusPlus::seed_from_u64(5);
        let eval = |w: &Matrix, rng: &mut Xoshiro256PlusPlus| {
            let draws = 12;
            (0..draws)
                .map(|_| accuracy_of_weights(&inject_variation(w, sigma, rng), &d))
                .sum::<f64>()
                / draws as f64
        };
        let robust_plain = eval(&w_plain, &mut rng);
        let robust_vat = eval(&w_vat, &mut rng);
        assert!(
            robust_vat > robust_plain - 0.01,
            "VAT should not be less robust: plain {robust_plain} vat {robust_vat}"
        );
    }

    #[test]
    fn penalty_coefficient_scales() {
        // RMS normalization: the coefficient approaches γ·σ from above as
        // n grows (the finite-n Chi-square tail shrinks relatively).
        let t = fast(0.5, 0.6);
        let c100 = t.penalty_coefficient(100).unwrap();
        let c784 = t.penalty_coefficient(784).unwrap();
        let limit = 2.0 * 0.5 * 0.6; // κ·γ·σ
        assert!(c100 > c784, "finite-n tail: {c100} vs {c784}");
        assert!(
            c784 > limit && c784 < limit * 1.2,
            "c784 {c784} vs κγσ {limit}"
        );
        let t0 = fast(0.0, 0.6);
        assert_eq!(t0.penalty_coefficient(100).unwrap(), 0.0);
    }

    #[test]
    fn inject_variation_statistics() {
        let w = Matrix::filled(50, 20, 1.0);
        let mut rng = Xoshiro256PlusPlus::seed_from_u64(8);
        let wv = inject_variation(&w, 0.4, &mut rng);
        let logs: Vec<f64> = wv.as_slice().iter().map(|v| v.ln()).collect();
        let s = vortex_linalg::stats::std_dev(&logs);
        assert!((s - 0.4).abs() < 0.03, "log-std {s}");
        // σ = 0 is the identity.
        assert_eq!(inject_variation(&w, 0.0, &mut rng), w);
    }

    #[test]
    fn inject_variation_preserves_sign() {
        let w = Matrix::from_fn(10, 4, |i, j| if (i + j) % 2 == 0 { 1.0 } else { -1.0 });
        let mut rng = Xoshiro256PlusPlus::seed_from_u64(9);
        let wv = inject_variation(&w, 0.8, &mut rng);
        for (a, b) in w.as_slice().iter().zip(wv.as_slice()) {
            assert_eq!(a.signum(), b.signum());
        }
    }
}
