//! The γ self-tuning loop — §4.1.3 and Fig. 5 of the paper.
//!
//! Training samples are split into a large group (actual training) and a
//! small group (validation). For each candidate γ the network is trained
//! on the large group, device variation is *injected into the trained
//! weights* (Monte-Carlo draws of `W ∘ e^θ`), and the accuracy on the
//! validation group is measured. The γ with the best with-variation
//! validation accuracy wins and is used for the final training pass on all
//! samples.

use serde::{Deserialize, Serialize};
use vortex_linalg::rng::Xoshiro256PlusPlus;
use vortex_linalg::Matrix;
use vortex_nn::dataset::Dataset;
use vortex_nn::executor::{run_trials, Parallelism};
use vortex_nn::metrics::accuracy_of_weights;
use vortex_nn::split::tuning_split;

use crate::vat::{inject_variation, VatTrainer};
use crate::{CoreError, Result};

/// One row of the tuning curve (the data behind Fig. 4 / Fig. 7).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct GammaPoint {
    /// Penalty scale γ.
    pub gamma: f64,
    /// Fraction of (large-group) training samples fitted.
    pub training_rate: f64,
    /// Mean validation accuracy with injected variation.
    pub validation_with_variation: f64,
    /// Validation accuracy of the clean (un-injected) weights.
    pub validation_without_variation: f64,
}

/// Outcome of a self-tuning scan.
#[derive(Debug, Clone, PartialEq)]
pub struct TuningOutcome {
    /// The winning γ.
    pub best_gamma: f64,
    /// The full scan curve.
    pub curve: Vec<GammaPoint>,
    /// Weights from the final training pass (all training samples, best
    /// γ).
    pub weights: Matrix,
    /// The noise margin the winner selection used: the binomial standard
    /// error of the top validation estimate. The smallest γ within this
    /// margin of the maximum wins (the one-standard-error rule), so a
    /// reduced-scale scan cannot crown an extreme γ on sampling luck.
    pub selection_margin: f64,
}

/// Self-tuner configuration.
///
/// # Example
///
/// ```
/// use vortex_core::tuning::SelfTuner;
/// use vortex_core::vat::VatTrainer;
/// use vortex_nn::dataset::{DatasetConfig, SynthDigits};
///
/// # fn main() -> Result<(), vortex_core::CoreError> {
/// let data = SynthDigits::generate(&DatasetConfig::tiny(), 2)?;
/// let base = VatTrainer { epochs: 4, sigma: 0.6, ..Default::default() };
/// let outcome = SelfTuner::coarse().tune(&base, &data)?;
/// assert!((0.0..=1.0).contains(&outcome.best_gamma));
/// assert_eq!(outcome.curve.len(), 4); // one point per grid value
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SelfTuner {
    /// Candidate γ values to scan (e.g. `0.0, 0.1, …, 1.0`).
    pub gamma_grid: Vec<f64>,
    /// Fraction of training samples held out for validation.
    pub validation_fraction: f64,
    /// Monte-Carlo variation draws per validation measurement.
    pub mc_draws: usize,
    /// RNG seed for the split and the injections.
    pub seed: u64,
    /// Worker count for the scan. Training fans out one task per class
    /// and block of up to four γ lanes ([`VatTrainer::train_grid`]), and
    /// the final pass one one-lane task per class; validation fans out
    /// one trial per γ. Every setting produces identical results (column
    /// training draws no randomness, and each candidate γ validates on
    /// its own pre-split stream); only wall-clock time changes.
    ///
    /// Independently of this setting, every training task and validation
    /// trial runs the hinge-SGD kernel and the batch scorer on the copy
    /// [`vortex_nn::isa::Isa::host`] selects at run time: AVX2 when the
    /// CPU has it, baseline x86-64 otherwise. The copies give the same
    /// bits.
    pub parallelism: Parallelism,
}

impl Default for SelfTuner {
    fn default() -> Self {
        Self {
            gamma_grid: (0..=10).map(|k| k as f64 / 10.0).collect(),
            validation_fraction: 0.2,
            mc_draws: 10,
            seed: 0x7E57,
            parallelism: Parallelism::Auto,
        }
    }
}

impl SelfTuner {
    /// A coarse, fast grid for tests.
    pub fn coarse() -> Self {
        Self {
            gamma_grid: vec![0.0, 0.2, 0.5, 1.0],
            mc_draws: 4,
            ..Default::default()
        }
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidParameter`] for an empty grid,
    /// out-of-range γ values, or zero draws.
    pub fn validate(&self) -> Result<()> {
        if self.gamma_grid.is_empty() {
            return Err(CoreError::InvalidParameter {
                name: "gamma_grid",
                requirement: "must be non-empty",
            });
        }
        if self
            .gamma_grid
            .iter()
            .any(|g| !(0.0..=1.0).contains(g) || !g.is_finite())
        {
            return Err(CoreError::InvalidParameter {
                name: "gamma_grid",
                requirement: "all values must lie in [0, 1]",
            });
        }
        if self.mc_draws == 0 {
            return Err(CoreError::InvalidParameter {
                name: "mc_draws",
                requirement: "must be positive",
            });
        }
        if !(self.validation_fraction > 0.0 && self.validation_fraction < 1.0) {
            return Err(CoreError::InvalidParameter {
                name: "validation_fraction",
                requirement: "must lie strictly between 0 and 1",
            });
        }
        Ok(())
    }

    /// Runs the scan and the final training pass.
    ///
    /// `base` provides every VAT parameter except γ (which the scan
    /// overrides). The injected variation uses `base.sigma`.
    ///
    /// The whole call records a `tuning.tune_seconds` span, split into
    /// `tuning.scan_seconds` (training every candidate),
    /// `tuning.validate_seconds` (the Monte-Carlo validation) and
    /// `tuning.final_seconds` (the all-samples pass).
    ///
    /// # Errors
    ///
    /// Propagates configuration, split and training errors.
    pub fn tune(&self, base: &VatTrainer, train: &Dataset) -> Result<TuningOutcome> {
        self.validate()?;
        base.validate()?;
        let _span = vortex_obs::span!("tuning.tune_seconds");
        vortex_obs::counter!("tuning.scans").incr();
        vortex_obs::counter!("tuning.candidates").add(self.gamma_grid.len() as u64);
        let mut rng = Xoshiro256PlusPlus::seed_from_u64(self.seed);
        let split = tuning_split(train, self.validation_fraction, &mut rng)?;

        let scan = {
            let _span = vortex_obs::span!("tuning.scan_seconds");
            base.train_grid(&self.gamma_grid, &split.train, self.parallelism)?
        };
        // One executor trial per candidate γ: each measures with-variation
        // validation accuracy over its own pre-split injection streams, so
        // validation fans out without changing any reported number.
        let curve = {
            let _span = vortex_obs::span!("tuning.validate_seconds");
            run_trials(
                &mut rng,
                self.gamma_grid.len(),
                self.parallelism,
                |k, gamma_rng| {
                    let w = &scan[k];
                    let training_rate = accuracy_of_weights(w, &split.train);
                    let clean = accuracy_of_weights(w, &split.test);
                    let mut acc = 0.0;
                    for _ in 0..self.mc_draws {
                        let mut draw_rng = gamma_rng.split();
                        let wv = inject_variation(w, base.sigma, &mut draw_rng);
                        acc += accuracy_of_weights(&wv, &split.test);
                    }
                    GammaPoint {
                        gamma: self.gamma_grid[k],
                        training_rate,
                        validation_with_variation: acc / self.mc_draws as f64,
                        validation_without_variation: clean,
                    }
                },
            )
        };
        // Winner selection: the paper's Fig. 5 scan takes the γ with the
        // best with-variation validation accuracy. That estimate averages
        // `mc_draws` accuracies over `split.test`, so it carries a
        // binomial standard error of ~√(p(1−p)/N) with N = draws ×
        // validation samples — at reduced scale easily larger than the
        // gap between candidates. Apply the one-standard-error rule:
        // among candidates within one SE of the maximum, prefer the
        // *smallest* γ (grid order), so the tuner never crowns an extreme
        // penalty on sampling noise. At paper scale the margin shrinks
        // toward zero and this reduces to the plain argmax.
        let mut top = f64::MIN;
        for p in &curve {
            if p.validation_with_variation > top {
                top = p.validation_with_variation;
            }
        }
        let n_eff = (split.test.len() * self.mc_draws) as f64;
        let selection_margin = (top.clamp(0.0, 1.0) * (1.0 - top.clamp(0.0, 1.0)) / n_eff).sqrt();
        let best_gamma = curve
            .iter()
            .find(|p| p.validation_with_variation >= top - selection_margin)
            .map_or(self.gamma_grid[0], |p| p.gamma);
        vortex_obs::gauge!("tuning.best_gamma").set(best_gamma);
        // Final pass on every training sample with the winning γ.
        let weights = {
            let _span = vortex_obs::span!("tuning.final_seconds");
            base.train_grid(&[best_gamma], train, self.parallelism)?
                .remove(0)
        };
        Ok(TuningOutcome {
            best_gamma,
            curve,
            weights,
            selection_margin,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vortex_nn::dataset::{DatasetConfig, SynthDigits};

    fn data() -> Dataset {
        SynthDigits::generate(&DatasetConfig::tiny(), 91).unwrap()
    }

    fn base(sigma: f64) -> VatTrainer {
        VatTrainer {
            epochs: 8,
            sigma,
            ..Default::default()
        }
    }

    #[test]
    fn validation_rejects_bad_config() {
        let mut t = SelfTuner::coarse();
        t.gamma_grid.clear();
        assert!(t.validate().is_err());
        t = SelfTuner::coarse();
        t.gamma_grid.push(1.5);
        assert!(t.validate().is_err());
        t = SelfTuner::coarse();
        t.mc_draws = 0;
        assert!(t.validate().is_err());
        t = SelfTuner::coarse();
        t.validation_fraction = 0.0;
        assert!(t.validate().is_err());
    }

    #[test]
    fn tune_produces_full_curve_and_best_gamma() {
        let d = data();
        let tuner = SelfTuner::coarse();
        let out = tuner.tune(&base(0.6), &d).unwrap();
        assert_eq!(out.curve.len(), 4);
        assert!(tuner.gamma_grid.contains(&out.best_gamma));
        // One-standard-error rule: the winner sits within the selection
        // margin of the curve's maximum, and no smaller γ does.
        let best_point = out
            .curve
            .iter()
            .find(|p| p.gamma == out.best_gamma)
            .unwrap();
        let top = out
            .curve
            .iter()
            .map(|p| p.validation_with_variation)
            .fold(f64::MIN, f64::max);
        assert!(out.selection_margin >= 0.0);
        assert!(
            best_point.validation_with_variation >= top - out.selection_margin - 1e-12,
            "winner {} vs top {} (margin {})",
            best_point.validation_with_variation,
            top,
            out.selection_margin
        );
        for p in &out.curve {
            if p.gamma < out.best_gamma {
                assert!(
                    p.validation_with_variation < top - out.selection_margin,
                    "γ = {} should have won instead",
                    p.gamma
                );
            }
        }
        assert_eq!(out.weights.rows(), d.num_features());
    }

    #[test]
    fn tuning_is_deterministic() {
        let d = data();
        let tuner = SelfTuner::coarse();
        let a = tuner.tune(&base(0.6), &d).unwrap();
        let b = tuner.tune(&base(0.6), &d).unwrap();
        assert_eq!(a.best_gamma, b.best_gamma);
        assert_eq!(a.weights, b.weights);
    }

    #[test]
    fn tuning_is_invariant_under_thread_count() {
        let d = data();
        let serial = SelfTuner {
            parallelism: Parallelism::Serial,
            ..SelfTuner::coarse()
        }
        .tune(&base(0.6), &d)
        .unwrap();
        for threads in [2, 8] {
            let par = SelfTuner {
                parallelism: Parallelism::Fixed(threads),
                ..SelfTuner::coarse()
            }
            .tune(&base(0.6), &d)
            .unwrap();
            assert_eq!(serial.best_gamma, par.best_gamma);
            assert_eq!(
                serial.curve, par.curve,
                "curve changed at {threads} threads"
            );
            assert_eq!(serial.weights, par.weights);
        }
    }

    /// `tune` as it was before training moved out of the validation
    /// trials: each `run_trials` trial trains its γ, then validates, and
    /// the final pass is one serial `VatTrainer::train`.
    fn reference_tune(tuner: &SelfTuner, base: &VatTrainer, train: &Dataset) -> TuningOutcome {
        let mut rng = Xoshiro256PlusPlus::seed_from_u64(tuner.seed);
        let split = tuning_split(train, tuner.validation_fraction, &mut rng).unwrap();
        let curve = run_trials(
            &mut rng,
            tuner.gamma_grid.len(),
            tuner.parallelism,
            |k, gamma_rng| {
                let gamma = tuner.gamma_grid[k];
                let w = base.with_gamma(gamma).train(&split.train).unwrap();
                let training_rate = accuracy_of_weights(&w, &split.train);
                let clean = accuracy_of_weights(&w, &split.test);
                let mut acc = 0.0;
                for _ in 0..tuner.mc_draws {
                    let mut draw_rng = gamma_rng.split();
                    let wv = inject_variation(&w, base.sigma, &mut draw_rng);
                    acc += accuracy_of_weights(&wv, &split.test);
                }
                GammaPoint {
                    gamma,
                    training_rate,
                    validation_with_variation: acc / tuner.mc_draws as f64,
                    validation_without_variation: clean,
                }
            },
        );
        let mut top = f64::MIN;
        for p in &curve {
            if p.validation_with_variation > top {
                top = p.validation_with_variation;
            }
        }
        let n_eff = (split.test.len() * tuner.mc_draws) as f64;
        let selection_margin = (top.clamp(0.0, 1.0) * (1.0 - top.clamp(0.0, 1.0)) / n_eff).sqrt();
        let best_gamma = curve
            .iter()
            .find(|p| p.validation_with_variation >= top - selection_margin)
            .map_or(tuner.gamma_grid[0], |p| p.gamma);
        let weights = base.with_gamma(best_gamma).train(train).unwrap();
        TuningOutcome {
            best_gamma,
            curve,
            weights,
            selection_margin,
        }
    }

    fn outcome_bits(o: &TuningOutcome) -> Vec<u64> {
        let mut bits = vec![o.best_gamma.to_bits(), o.selection_margin.to_bits()];
        for p in &o.curve {
            bits.extend(
                [
                    p.gamma,
                    p.training_rate,
                    p.validation_with_variation,
                    p.validation_without_variation,
                ]
                .map(f64::to_bits),
            );
        }
        bits.extend(o.weights.as_slice().iter().map(|v| v.to_bits()));
        bits
    }

    #[test]
    fn tune_is_bit_identical_to_training_inside_each_trial() {
        let d = data();
        for parallelism in [
            Parallelism::Serial,
            Parallelism::Fixed(2),
            Parallelism::Fixed(8),
        ] {
            let tuner = SelfTuner {
                gamma_grid: vec![0.0, 0.3, 0.7, 1.0],
                parallelism,
                ..SelfTuner::coarse()
            };
            let expected = reference_tune(&tuner, &base(0.6), &d);
            let got = tuner.tune(&base(0.6), &d).unwrap();
            assert_eq!(
                outcome_bits(&got),
                outcome_bits(&expected),
                "{parallelism:?}"
            );
        }
    }

    #[test]
    fn training_rate_trend_is_non_increasing_overall() {
        // Fig. 4: the training rate falls as γ grows. Allow small local
        // noise, require the endpoint drop.
        let d = data();
        let tuner = SelfTuner {
            gamma_grid: vec![0.0, 0.5, 1.0],
            ..SelfTuner::coarse()
        };
        let out = tuner.tune(&base(0.8), &d).unwrap();
        let first = out.curve.first().unwrap().training_rate;
        let last = out.curve.last().unwrap().training_rate;
        assert!(
            last <= first + 0.02,
            "training rate should not grow with γ: {first} → {last}"
        );
    }

    #[test]
    fn zero_sigma_prefers_gamma_zero_region() {
        // With no variation to tolerate, the penalty can only hurt, so the
        // winning γ should be at (or near) zero.
        let d = data();
        let tuner = SelfTuner {
            gamma_grid: vec![0.0, 0.6, 1.0],
            mc_draws: 2,
            ..SelfTuner::coarse()
        };
        let out = tuner.tune(&base(0.0), &d).unwrap();
        assert!(
            out.best_gamma < 0.7,
            "σ=0 should not choose a large γ: {}",
            out.best_gamma
        );
    }
}
