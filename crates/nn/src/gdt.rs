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
    /// Each step makes two passes over `w` and allocates nothing. The
    /// first forms `p = x_q·w_q` and accumulates `x·w = Σp` and
    /// `‖x ∘ w‖₂² = Σp²` left to right. The second applies, per element,
    /// the L2 decay, the hinge step `+(α·α₀)·ŷ·x_q` and the penalty
    /// subgradient `−(s·x_q)·(x_q·w_q)` with `s = α·coeff/‖x ∘ w‖₂`,
    /// where `w_q` is the pre-decay weight. The sums and groupings are
    /// those of the separate `dot`, `norm2 ∘ hadamard`, `scale` and
    /// `axpy` passes, so the result is bit-identical to them.
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
        if !(coeff.is_finite() && coeff >= 0.0) {
            return Err(NnError::InvalidParameter {
                name: "coeff",
                requirement: "must be finite and non-negative",
            });
        }
        let n = data.num_features();
        let mut w = vec![0.0_f64; n];
        let mut order: Vec<usize> = (0..data.len()).collect();
        let mut rng = Xoshiro256PlusPlus::seed_from_u64(self.seed ^ (class as u64) << 32);
        let decays = self.l2 > 0.0;
        let mut step_count = 0usize;
        for _epoch in 0..self.epochs {
            rng.shuffle(&mut order);
            for &i in &order {
                step_count += 1;
                let alpha = self.learning_rate / (1.0 + step_count as f64 * self.l2.max(1e-6));
                let x = data.image(i);
                let target = if data.label(i) == class { 1.0 } else { -1.0 };
                // `score` is only compared, so starting at +0 rather than
                // the −0 of `Iterator::sum` cannot change a step.
                let mut score = 0.0;
                let mut norm_sq = 0.0;
                for (&xq, &wq) in x.iter().zip(&w) {
                    let p = xq * wq;
                    score += p;
                    norm_sq += p * p;
                }
                let penalty_norm = f64::sqrt(norm_sq);
                let violated = alpha0 * target * score - coeff * penalty_norm < self.margin;
                let decay = 1.0 - alpha * self.l2;
                let hinge = alpha * alpha0 * target;
                if !violated {
                    // L2 shrink (applied regardless of margin violation).
                    if decays {
                        w.iter_mut().for_each(|wq| *wq *= decay);
                    }
                } else if coeff > 0.0 && penalty_norm > 1e-12 {
                    let scale = alpha * coeff / penalty_norm;
                    for (wq, &xq) in w.iter_mut().zip(x) {
                        let xwq = xq * *wq;
                        let shrunk = if decays { *wq * decay } else { *wq };
                        *wq = (shrunk + hinge * xq) - scale * xq * xwq;
                    }
                } else {
                    for (wq, &xq) in w.iter_mut().zip(x) {
                        let shrunk = if decays { *wq * decay } else { *wq };
                        *wq = shrunk + hinge * xq;
                    }
                }
            }
        }
        Ok(w)
    }
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
