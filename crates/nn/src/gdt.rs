//! Gradient-descent training (GDT) of the linear classifier.
//!
//! Eq. (3) of the paper: each column `W_r` is trained independently to
//! satisfy the soft margin constraints
//! `ŷ_r⁽ⁱ⁾ · (x⁽ⁱ⁾·W_r) ≥ 1 − ε⁽ⁱ⁾` with `ŷ ∈ {−1, +1}` ("1 vs. all"),
//! minimizing `Σ ε⁽ⁱ⁾` — i.e. per-column hinge loss, optimized here with
//! epoch-shuffled subgradient descent and an inverse-time step decay.

use serde::{Deserialize, Serialize};
use vortex_linalg::rng::Xoshiro256PlusPlus;
use vortex_linalg::Matrix;

use crate::dataset::Dataset;
use crate::isa::Isa;
use crate::{NnError, Result};

/// Hinge-loss subgradient trainer configuration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct GdtTrainer {
    /// Number of passes over the training data.
    pub epochs: usize,
    /// Initial learning rate.
    pub learning_rate: f64,
    /// L2 regularization coefficient (0 disables).
    pub l2: f64,
    /// Target margin (the paper's constraints use 1).
    pub margin: f64,
    /// Shuffle seed, so training is deterministic.
    pub seed: u64,
}

impl Default for GdtTrainer {
    fn default() -> Self {
        Self {
            epochs: 30,
            learning_rate: 0.05,
            l2: 1e-4,
            margin: 1.0,
            seed: 0x5EED,
        }
    }
}

impl GdtTrainer {
    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::InvalidParameter`] on non-positive epochs,
    /// learning rate or margin, or a negative `l2`.
    pub fn validate(&self) -> Result<()> {
        if self.epochs == 0 {
            return Err(NnError::InvalidParameter {
                name: "epochs",
                requirement: "must be positive",
            });
        }
        if !(self.learning_rate.is_finite() && self.learning_rate > 0.0) {
            return Err(NnError::InvalidParameter {
                name: "learning_rate",
                requirement: "must be finite and positive",
            });
        }
        if !(self.l2.is_finite() && self.l2 >= 0.0) {
            return Err(NnError::InvalidParameter {
                name: "l2",
                requirement: "must be finite and non-negative",
            });
        }
        if !(self.margin.is_finite() && self.margin > 0.0) {
            return Err(NnError::InvalidParameter {
                name: "margin",
                requirement: "must be finite and positive",
            });
        }
        Ok(())
    }

    /// Trains all 10 columns on `data`, returning the
    /// `features × classes` weight matrix.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::InvalidParameter`] for an invalid configuration
    /// or empty dataset.
    pub fn train(&self, data: &Dataset) -> Result<Matrix> {
        self.validate()?;
        if data.is_empty() {
            return Err(NnError::InvalidParameter {
                name: "data",
                requirement: "must be non-empty",
            });
        }
        let n = data.num_features();
        let m = data.num_classes();
        let mut w = Matrix::zeros(n, m);
        for class in 0..m {
            let col = self.train_column(data, class as u8)?;
            w.set_col(class, &col);
        }
        Ok(w)
    }

    /// Trains the single column for `class` ("1 vs. all" targets).
    ///
    /// The plain hinge loop: [`Self::train_column_penalized`] with
    /// `α₀ = 1` and no penalty.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Self::train`].
    pub fn train_column(&self, data: &Dataset, class: u8) -> Result<Vec<f64>> {
        self.train_column_penalized(data, class, 1.0, 0.0)
    }

    /// Trains the column for `class` against the padded hinge constraint
    /// `α₀·ŷ·(x·w) − coeff·‖x ∘ w‖₂ ≥ margin` — the variation-aware
    /// constraint of the paper's Eq. (10), with `coeff = 0` giving
    /// Eq. (3).
    ///
    /// The one-lane case of [`Self::train_columns_penalized`].
    ///
    /// # Errors
    ///
    /// Same conditions as [`Self::train`], plus a non-finite or
    /// non-positive `alpha0` and a non-finite or negative `coeff`.
    pub fn train_column_penalized(
        &self,
        data: &Dataset,
        class: u8,
        alpha0: f64,
        coeff: f64,
    ) -> Result<Vec<f64>> {
        let lanes = self.train_columns_penalized(data, class, alpha0, [coeff])?;
        Ok(lanes.into_iter().map(|[w]| w).collect())
    }

    /// Trains `L` columns for `class` in lockstep, lane `k` against the
    /// padded hinge constraint with penalty coefficient `coeffs[k]`
    /// (see [`Self::train_column_penalized`]). Lane `k` of the result,
    /// `w[q][k]`, is bit-identical to a separate one-lane run at
    /// `coeffs[k]`.
    ///
    /// The lanes share everything but the coefficient: the shuffle
    /// order, every step's rate, decay, target and hinge step, and the
    /// sample. Each step allocates nothing and makes one or two passes
    /// over the interleaved weights:
    ///
    /// - Pass 1 forms `p = x_q·w_q` per lane and accumulates `x·w = Σp`
    ///   and `‖x ∘ w‖₂² = Σp²` left to right. The `L` lanes are `L`
    ///   independent accumulator chains, which is where lockstep gains
    ///   over one lane.
    /// - Pass 2 runs only if some lane violates its margin. Per element
    ///   it forms the decayed weight, the hinge step
    ///   `+(α·α₀)·ŷ·x_q` on top of it, and the penalty subgradient
    ///   `−(s·x_q)·(x_q·w_q)` on top of that, with `s = α·coeff/‖x ∘ w‖₂`
    ///   and `w_q` the pre-decay weight. Each lane keeps one of the three
    ///   by a bit mask, never by arithmetic blending, which could turn a
    ///   −0 into +0.
    ///
    /// A step that violates no lane only records its L2 decay. The next
    /// pass 1 multiplies it in before forming `p`, and one last sweep
    /// applies the final step's. The products and sums are those of the
    /// separate `dot`, `norm2 ∘ hadamard`, `scale` and `axpy` passes, in
    /// the same order, so every lane is bit-identical to them.
    ///
    /// The step loop is one body compiled for baseline x86-64 and for
    /// AVX2, where one lane block of `L = 4` fits one `ymm` register per
    /// sum; this runs the copy [`Isa::host`] selects at run time. Both
    /// copies give the same bits (see [`crate::isa`]).
    ///
    /// Each call adds its step count to the `gdt.steps` counter and the
    /// number of steps that ran pass 2 to `gdt.update_steps`.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Self::train_column_penalized`], for every
    /// lane's coefficient.
    pub fn train_columns_penalized<const L: usize>(
        &self,
        data: &Dataset,
        class: u8,
        alpha0: f64,
        coeffs: [f64; L],
    ) -> Result<Vec<[f64; L]>> {
        self.train_columns_penalized_on(Isa::host(), data, class, alpha0, coeffs)
    }

    /// [`Self::train_columns_penalized`] on the copy of the step loop
    /// compiled for `isa`. Every `isa` gives bit-identical weights.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Self::train_columns_penalized`].
    pub fn train_columns_penalized_on<const L: usize>(
        &self,
        isa: Isa,
        data: &Dataset,
        class: u8,
        alpha0: f64,
        coeffs: [f64; L],
    ) -> Result<Vec<[f64; L]>> {
        self.validate()?;
        if data.is_empty() {
            return Err(NnError::InvalidParameter {
                name: "data",
                requirement: "must be non-empty",
            });
        }
        if !(alpha0.is_finite() && alpha0 > 0.0) {
            return Err(NnError::InvalidParameter {
                name: "alpha0",
                requirement: "must be finite and positive",
            });
        }
        if !coeffs.iter().all(|c| c.is_finite() && *c >= 0.0) {
            return Err(NnError::InvalidParameter {
                name: "coeff",
                requirement: "must be finite and non-negative",
            });
        }
        #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
        if isa.is_avx2() {
            // SAFETY: an `Isa` with AVX2 exists only on a host whose CPU
            // supports AVX2 (`Isa::avx2` checks it).
            return Ok(unsafe { self.hinge_steps_avx2(data, class, alpha0, coeffs) });
        }
        #[cfg(not(any(target_arch = "x86", target_arch = "x86_64")))]
        let _ = isa;
        Ok(self.hinge_steps(data, class, alpha0, coeffs))
    }

    /// The step loop of [`Self::train_columns_penalized_on`] on checked
    /// arguments, counters included. The one body behind both ISA
    /// copies.
    #[inline(always)]
    fn hinge_steps<const L: usize>(
        &self,
        data: &Dataset,
        class: u8,
        alpha0: f64,
        coeffs: [f64; L],
    ) -> Vec<[f64; L]> {
        let n = data.num_features();
        let mut w = vec![[0.0_f64; L]; n];
        let mut order: Vec<usize> = (0..data.len()).collect();
        let mut rng = Xoshiro256PlusPlus::seed_from_u64(self.seed ^ (class as u64) << 32);
        let decays = self.l2 > 0.0;
        // The decay of the last step when it violated no lane, not yet
        // applied to `w`.
        let mut pending_decay = None;
        let mut step_count = 0usize;
        let mut update_steps = 0u64;
        for _epoch in 0..self.epochs {
            rng.shuffle(&mut order);
            for &i in &order {
                step_count += 1;
                let alpha = self.learning_rate / (1.0 + step_count as f64 * self.l2.max(1e-6));
                let x = data.image(i);
                let target = if data.label(i) == class { 1.0 } else { -1.0 };
                let (score, norm_sq) = score_lanes(&mut w, x, pending_decay.take());
                // Per lane, exactly one mask is all ones: keep the decayed
                // weight, add the hinge step, or add the hinge step and
                // the penalty subgradient.
                let mut keep = [0u64; L];
                let mut hinge_only = [0u64; L];
                let mut penalized = [0u64; L];
                let mut scale = [0.0; L];
                for k in 0..L {
                    let penalty_norm = f64::sqrt(norm_sq[k]);
                    let violated =
                        alpha0 * target * score[k] - coeffs[k] * penalty_norm < self.margin;
                    if !violated {
                        keep[k] = u64::MAX;
                    } else if coeffs[k] > 0.0 && penalty_norm > 1e-12 {
                        penalized[k] = u64::MAX;
                        scale[k] = alpha * coeffs[k] / penalty_norm;
                    } else {
                        hinge_only[k] = u64::MAX;
                    }
                }
                // Exactly 1 when `l2 = 0`, and `w·1 = w` bit for bit.
                let decay = 1.0 - alpha * self.l2;
                if keep.iter().all(|&m| m != 0) {
                    // The L2 shrink applies regardless of margin violation;
                    // with no hinge step it can wait for the next pass 1.
                    if decays {
                        pending_decay = Some(decay);
                    }
                    continue;
                }
                update_steps += 1;
                let hinge = alpha * alpha0 * target;
                for (wq, &xq) in w.iter_mut().zip(x) {
                    let step = hinge * xq;
                    for k in 0..L {
                        let shrunk = wq[k] * decay;
                        let stepped = shrunk + step;
                        let penalized_w = stepped - scale[k] * xq * (xq * wq[k]);
                        wq[k] = f64::from_bits(
                            (shrunk.to_bits() & keep[k])
                                | (stepped.to_bits() & hinge_only[k])
                                | (penalized_w.to_bits() & penalized[k]),
                        );
                    }
                }
            }
        }
        if let Some(decay) = pending_decay {
            w.iter_mut().flatten().for_each(|v| *v *= decay);
        }
        vortex_obs::counter!("gdt.steps").add(step_count as u64);
        vortex_obs::counter!("gdt.update_steps").add(update_steps);
        w
    }

    /// [`Self::hinge_steps`] compiled for AVX2.
    ///
    /// # Safety
    ///
    /// The CPU must support AVX2.
    #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
    #[target_feature(enable = "avx2")]
    unsafe fn hinge_steps_avx2<const L: usize>(
        &self,
        data: &Dataset,
        class: u8,
        alpha0: f64,
        coeffs: [f64; L],
    ) -> Vec<[f64; L]> {
        self.hinge_steps(data, class, alpha0, coeffs)
    }
}

/// Pass 1: scales `w` by a deferred `decay`, if any, then returns per
/// lane `x·w` and `‖x ∘ w‖₂²`, each summed left to right from +0. The
/// sums are only compared, so starting at +0 rather than the −0 of
/// `Iterator::sum` cannot change a step.
///
/// Always inlined, so each ISA copy of the step loop gets its own copy
/// of pass 1. Out of line it stays baseline code: the AVX2 scan then ran
/// no faster than the baseline one. The baseline copy measured the same
/// inlined or not.
#[inline(always)]
fn score_lanes<const L: usize>(
    w: &mut [[f64; L]],
    x: &[f64],
    decay: Option<f64>,
) -> ([f64; L], [f64; L]) {
    let mut score = [0.0; L];
    let mut norm_sq = [0.0; L];
    for (wq, &xq) in w.iter_mut().zip(x) {
        if let Some(decay) = decay {
            *wq = wq.map(|v| v * decay);
        }
        for k in 0..L {
            let p = xq * wq[k];
            score[k] += p;
            norm_sq[k] += p * p;
        }
    }
    (score, norm_sq)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::classifier::LinearClassifier;
    use crate::dataset::{DatasetConfig, SynthDigits};

    fn data() -> Dataset {
        SynthDigits::generate(&DatasetConfig::tiny(), 33).unwrap()
    }

    #[test]
    fn config_validation() {
        let t = GdtTrainer {
            epochs: 0,
            ..Default::default()
        };
        assert!(t.validate().is_err());
        let t = GdtTrainer {
            learning_rate: 0.0,
            ..Default::default()
        };
        assert!(t.validate().is_err());
        let t = GdtTrainer {
            l2: -1.0,
            ..Default::default()
        };
        assert!(t.validate().is_err());
        let t = GdtTrainer {
            margin: 0.0,
            ..Default::default()
        };
        assert!(t.validate().is_err());
        assert!(GdtTrainer::default().validate().is_ok());
    }

    #[test]
    fn training_beats_chance_significantly() {
        let d = data();
        let w = GdtTrainer::default().train(&d).unwrap();
        let c = LinearClassifier::new(w).unwrap();
        let acc = c.accuracy(&d).unwrap();
        assert!(acc > 0.6, "training accuracy {acc}");
    }

    #[test]
    fn training_is_deterministic() {
        let d = data();
        let t = GdtTrainer::default();
        let w1 = t.train(&d).unwrap();
        let w2 = t.train(&d).unwrap();
        assert_eq!(w1, w2);
    }

    #[test]
    fn more_epochs_do_not_hurt_much() {
        let d = data();
        let short = GdtTrainer {
            epochs: 2,
            ..Default::default()
        };
        let long = GdtTrainer {
            epochs: 40,
            ..Default::default()
        };
        let acc = |t: &GdtTrainer| {
            LinearClassifier::new(t.train(&d).unwrap())
                .unwrap()
                .accuracy(&d)
                .unwrap()
        };
        let a_short = acc(&short);
        let a_long = acc(&long);
        assert!(a_long >= a_short - 0.05, "short {a_short} long {a_long}");
    }

    #[test]
    fn column_targets_its_own_class() {
        let d = data();
        let t = GdtTrainer::default();
        let col3 = t.train_column(&d, 3).unwrap();
        // Mean score of class-3 samples must exceed mean score of others.
        let mut pos = 0.0;
        let mut npos = 0;
        let mut negv = 0.0;
        let mut nneg = 0;
        for i in 0..d.len() {
            let s = vortex_linalg::vector::dot(d.image(i), &col3);
            if d.label(i) == 3 {
                pos += s;
                npos += 1;
            } else {
                negv += s;
                nneg += 1;
            }
        }
        assert!(pos / npos as f64 > negv / nneg as f64 + 0.5);
    }

    #[test]
    fn full_train_matches_per_column() {
        let d = data();
        let t = GdtTrainer::default();
        let w = t.train(&d).unwrap();
        let col5 = t.train_column(&d, 5).unwrap();
        assert_eq!(w.col(5), col5);
    }

    /// The separate-pass hinge loop `train_column` used before it became
    /// the `coeff = 0` case of `train_column_penalized`, with the
    /// `dot`/`scale`/`axpy` primitives it called copied verbatim.
    fn reference_column(t: &GdtTrainer, data: &Dataset, class: u8) -> Vec<f64> {
        fn dot(x: &[f64], y: &[f64]) -> f64 {
            assert_eq!(x.len(), y.len(), "dot: length mismatch");
            x.iter().zip(y).map(|(a, b)| a * b).sum()
        }
        fn axpy(alpha: f64, x: &[f64], y: &mut [f64]) {
            assert_eq!(x.len(), y.len(), "axpy: length mismatch");
            for (yi, xi) in y.iter_mut().zip(x) {
                *yi += alpha * xi;
            }
        }
        fn scale(alpha: f64, x: &mut [f64]) {
            for xi in x.iter_mut() {
                *xi *= alpha;
            }
        }
        let mut w = vec![0.0_f64; data.num_features()];
        let mut order: Vec<usize> = (0..data.len()).collect();
        let mut rng = Xoshiro256PlusPlus::seed_from_u64(t.seed ^ (class as u64) << 32);
        let mut step_count = 0usize;
        for _epoch in 0..t.epochs {
            rng.shuffle(&mut order);
            for &i in &order {
                step_count += 1;
                let alpha = t.learning_rate / (1.0 + step_count as f64 * t.l2.max(1e-6));
                let x = data.image(i);
                let target = if data.label(i) == class { 1.0 } else { -1.0 };
                let score = dot(x, &w);
                if t.l2 > 0.0 {
                    scale(1.0 - alpha * t.l2, &mut w);
                }
                if target * score < t.margin {
                    axpy(alpha * target, x, &mut w);
                }
            }
        }
        w
    }

    #[test]
    fn train_is_bit_identical_to_the_separate_pass_loop() {
        let d = data();
        for (epochs, l2, seed) in [(30, 1e-4, 0x5EED), (7, 0.0, 3), (3, 1e-2, u64::MAX)] {
            let t = GdtTrainer {
                epochs,
                l2,
                seed,
                ..Default::default()
            };
            let w = t.train(&d).unwrap();
            for class in 0..d.num_classes() {
                let expected = reference_column(&t, &d, class as u8);
                let got: Vec<u64> = w.col(class).iter().map(|v| v.to_bits()).collect();
                let want: Vec<u64> = expected.iter().map(|v| v.to_bits()).collect();
                assert_eq!(got, want, "class {class} at {t:?}");
            }
        }
    }

    #[test]
    fn penalized_column_rejects_bad_coefficients() {
        let d = data();
        let t = GdtTrainer::default();
        for (alpha0, coeff) in [
            (f64::NAN, 0.0),
            (0.0, 0.0),
            (1.0, -1.0),
            (1.0, f64::INFINITY),
        ] {
            assert!(t.train_column_penalized(&d, 0, alpha0, coeff).is_err());
        }
    }

    #[test]
    fn empty_dataset_rejected() {
        let d = data().subset(&[]);
        assert!(GdtTrainer::default().train(&d).is_err());
    }
}
