//! The CLD baseline: Close-Loop on-Device training — §2.2.3 / §3 of the
//! paper.
//!
//! CLD runs the gradient-descent loop *against the physical crossbar*:
//! sense the output, compare with the target, nudge the device weights,
//! repeat (Eq. (1)). Because every update's *outcome* is re-sensed, device
//! variation is absorbed automatically — but two hardware effects remain:
//!
//! * **Sensing resolution** (§3.3): the convergence criterion only sees
//!   the ADC-quantized output.
//! * **IR-drop** (§3.2): the programming voltage reaching row `i` of
//!   column `j` is degraded, which through the sinh switching nonlinearity
//!   scales the achieved update by the diagonal matrix `D` and the
//!   per-column factor `β` of Eq. (2). On large arrays the skew of `D`
//!   leaves the far rows effectively untrainable.
//!
//! # Simulation abstraction
//!
//! CLD is simulated in the *weight domain*: one multiplicative variation
//! factor `e^θ` per weight cell scales every achieved update (open-loop
//! increments land `e^θ` off their intended size; the closed loop then
//! compensates by iterating), and the IR-drop distortion multiplies
//! updates by the `β·D` profile computed from the analytic
//! programming-voltage map of the *current* conductance state (refreshed
//! every epoch). This matches the paper's own analytical treatment
//! (Eq. (2)) while keeping the paper-scale experiments tractable.
//!
//! The per-sample update loop itself is [`DeltaRule::epoch`], the one
//! delta-rule kernel in the workspace: [`CldTrainer`] runs it, and so
//! does `vortex_train`'s resumable stepper.

use serde::{Deserialize, Serialize};
use vortex_linalg::rng::Xoshiro256PlusPlus;
use vortex_linalg::Matrix;
use vortex_nn::dataset::Dataset;
use vortex_nn::metrics::{accuracy_of_weights, Rates};
use vortex_xbar::irdrop::{update_rate_profile, ProgramVoltageMap};
use vortex_xbar::pair::WeightMapping;
use vortex_xbar::sensing::Adc;

use crate::old::PipelineOutcome;
use crate::pipeline::HardwareEnv;
use crate::{CoreError, Result};

/// The CLD pipeline configuration.
///
/// # Example
///
/// ```
/// use vortex_core::cld::CldTrainer;
/// use vortex_core::pipeline::HardwareEnv;
/// use vortex_linalg::rng::Xoshiro256PlusPlus;
/// use vortex_nn::dataset::{DatasetConfig, SynthDigits};
/// use vortex_nn::split::stratified_split;
///
/// # fn main() -> Result<(), vortex_core::CoreError> {
/// let mut rng = Xoshiro256PlusPlus::seed_from_u64(3);
/// let data = SynthDigits::generate(&DatasetConfig::tiny(), 3)?;
/// let split = stratified_split(&data, 150, 80, &mut rng)?;
/// let env = HardwareEnv::with_sigma(0.5)?; // CLD absorbs this
/// let out = CldTrainer::fast().run(&split.train, &split.test, &env, &mut rng)?;
/// assert!(out.rates.test_rate > 0.2);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CldTrainer {
    /// Training epochs (full passes over the data).
    pub epochs: usize,
    /// Learning rate α of Eq. (1).
    pub learning_rate: f64,
    /// Sensing ADC resolution in bits (`None` = ideal sensing).
    pub sense_bits: Option<u32>,
    /// Full scale of the sensed output, in weight-domain output units.
    pub sense_full_scale: f64,
    /// Whether IR-drop distorts the training updates (Eq. (2)).
    pub model_irdrop: bool,
    /// Compute the β·D profile from the all-LRS worst case (§3.2's
    /// "worst case that all memristors are at LRS") instead of the
    /// current conductance state. The paper's Table 1 collapse at 784
    /// rows corresponds to this pessimistic loading assumption; the
    /// current-state profile is milder because early training happens
    /// while the array is still mostly high-resistance.
    pub worst_case_irdrop_profile: bool,
    /// Early-stop when the mean squared sensed error falls below this.
    pub tolerance: f64,
    /// Monte-Carlo fabrication draws.
    pub mc_draws: usize,
}

impl Default for CldTrainer {
    fn default() -> Self {
        Self {
            epochs: 25,
            learning_rate: 0.01,
            sense_bits: Some(6),
            sense_full_scale: 4.0,
            model_irdrop: false,
            worst_case_irdrop_profile: false,
            tolerance: 1e-4,
            mc_draws: 3,
        }
    }
}

impl CldTrainer {
    /// A faster configuration for tests.
    pub fn fast() -> Self {
        Self {
            epochs: 12,
            mc_draws: 2,
            ..Default::default()
        }
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidParameter`] on out-of-domain fields.
    pub fn validate(&self) -> Result<()> {
        if self.epochs == 0 || self.mc_draws == 0 {
            return Err(CoreError::InvalidParameter {
                name: "epochs/mc_draws",
                requirement: "must be positive",
            });
        }
        if !(self.learning_rate.is_finite() && self.learning_rate > 0.0) {
            return Err(CoreError::InvalidParameter {
                name: "learning_rate",
                requirement: "must be finite and positive",
            });
        }
        if !(self.sense_full_scale.is_finite() && self.sense_full_scale > 0.0) {
            return Err(CoreError::InvalidParameter {
                name: "sense_full_scale",
                requirement: "must be finite and positive",
            });
        }
        Ok(())
    }

    /// Runs the CLD pipeline: on-device training per Monte-Carlo draw,
    /// then test-rate measurement on the trained (hardware) weights.
    ///
    /// # Errors
    ///
    /// Propagates configuration and model errors.
    pub fn run(
        &self,
        train: &Dataset,
        test: &Dataset,
        env: &HardwareEnv,
        rng: &mut Xoshiro256PlusPlus,
    ) -> Result<PipelineOutcome> {
        self.validate()?;
        if train.is_empty() {
            return Err(CoreError::InvalidParameter {
                name: "train",
                requirement: "must be non-empty",
            });
        }
        let adc = match self.sense_bits {
            Some(bits) => Some(Adc::new(bits, self.sense_full_scale).map_err(CoreError::Xbar)?),
            None => None,
        };
        let mut per_draw = Vec::with_capacity(self.mc_draws);
        let mut train_rates = Vec::with_capacity(self.mc_draws);
        let mut last_weights = Matrix::zeros(train.num_features(), train.num_classes());
        for _ in 0..self.mc_draws {
            let mut draw_rng = rng.split();
            let realized = self.train_on_device(train, env, adc.as_ref(), &mut draw_rng)?;
            train_rates.push(accuracy_of_weights(&realized, train));
            per_draw.push(accuracy_of_weights(&realized, test));
            last_weights = realized;
        }
        let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
        Ok(PipelineOutcome {
            rates: Rates {
                training_rate: mean(&train_rates),
                test_rate: mean(&per_draw),
            },
            weights: last_weights,
            per_draw,
        })
    }

    /// One on-device training run: returns the realized hardware weight
    /// matrix.
    fn train_on_device(
        &self,
        train: &Dataset,
        env: &HardwareEnv,
        adc: Option<&Adc>,
        rng: &mut Xoshiro256PlusPlus,
    ) -> Result<Matrix> {
        let n = train.num_features();
        let c = train.num_classes();
        let update_scale = achieved_update_scale(env, n, c, rng);

        let mut w = Matrix::zeros(n, c);
        let mut order: Vec<usize> = (0..train.len()).collect();
        let wm = WeightMapping::new(&env.device, env.w_max).map_err(CoreError::Xbar)?;
        let step_scale = nlms_step_scale(train, self.learning_rate);

        for epoch in 0..self.epochs {
            // Refresh the IR-drop update-rate profile from the current
            // conductance state.
            let irdrop_profile = if self.model_irdrop && env.r_wire > 0.0 {
                Some(self.irdrop_update_profile(&w, &wm, env)?)
            } else {
                None
            };
            rng.shuffle(&mut order);
            let rule = DeltaRule {
                step_scale,
                update_scale: &update_scale,
                irdrop_profile: irdrop_profile.as_ref(),
                adc,
                w_max: env.w_max,
            };
            let mse = rule.epoch(&mut w, train, &order);
            if mse < self.tolerance && epoch > 0 {
                break;
            }
        }
        Ok(w)
    }

    /// The per-cell `β·D` update-rate profile of Eq. (2), from the
    /// analytic programming-voltage map of the current weights.
    fn irdrop_update_profile(
        &self,
        w: &Matrix,
        wm: &WeightMapping,
        env: &HardwareEnv,
    ) -> Result<Matrix> {
        // Conductance loading: either the paper's all-LRS worst case or
        // the positive-part targets of the current weights (the dominant
        // crossbar for the strongly driven cells).
        let g = if self.worst_case_irdrop_profile {
            Matrix::filled(w.rows(), w.cols(), env.device.g_on())
        } else {
            w.map(|v| {
                let (gp, gn) = wm.to_conductance_pair(v);
                gp.max(gn)
            })
        };
        let map = ProgramVoltageMap::analytic(&g, env.r_wire, env.device.v_program())
            .map_err(CoreError::Xbar)?;
        let mut profile = Matrix::zeros(w.rows(), w.cols());
        for j in 0..w.cols() {
            let d = update_rate_profile(&map, &env.device, j);
            for (i, &di) in d.iter().enumerate() {
                profile[(i, j)] = di;
            }
        }
        Ok(profile)
    }
}

/// The per-cell achieved-update multipliers `clamp(e^θ, 0.05, 3.0)` of a
/// freshly fabricated `rows × cols` array, drawn from `env`'s variation
/// model.
///
/// The clamp models a real close-loop programmer's bounded pulse widths:
/// a pathologically fast device cannot blow an update up without limit,
/// which also keeps the per-cell effective learning rate inside the
/// delta-rule stability region.
pub fn achieved_update_scale(
    env: &HardwareEnv,
    rows: usize,
    cols: usize,
    rng: &mut Xoshiro256PlusPlus,
) -> Matrix {
    let theta = env.variation.sample_theta_matrix(rows, cols, rng);
    theta.map(|t| t.exp().clamp(0.05, 3.0))
}

/// The normalized-LMS step scale `learning_rate / max(mean ‖x‖², 1e-9)`.
///
/// Dividing by the mean input energy keeps the per-cell effective rate
/// inside the delta-rule stability region regardless of the input
/// dimension (a 784-pixel image carries ~16x the energy of a 49-pixel
/// one).
pub fn nlms_step_scale(train: &Dataset, learning_rate: f64) -> f64 {
    let mut acc = 0.0;
    for i in 0..train.len() {
        acc += vortex_linalg::vector::dot(train.image(i), train.image(i));
    }
    learning_rate / (acc / train.len() as f64).max(1e-9)
}

/// One fabricated array's delta-rule update (Eq. (1)): what a sensed
/// error does to each weight cell.
///
/// Cell `(q, j)` of a sample `x` with sensed class-`j` error `e` moves by
/// `((step_scale · e) · x_q · update_scale[q, j]) · irdrop_profile[q, j]`,
/// then saturates at `±w_max`. Classes sensed exactly on target
/// (`e == 0`) and zero inputs are skipped.
#[derive(Debug, Clone, Copy)]
pub struct DeltaRule<'a> {
    /// Normalized-LMS step scale (see [`nlms_step_scale`]).
    pub step_scale: f64,
    /// Per-cell achieved-update multipliers (see
    /// [`achieved_update_scale`]), `features × classes`.
    pub update_scale: &'a Matrix,
    /// Per-cell IR-drop `β·D` update-rate profile of Eq. (2), if modelled.
    pub irdrop_profile: Option<&'a Matrix>,
    /// Sensing ADC (`None` = ideal sensing).
    pub adc: Option<&'a Adc>,
    /// Weight saturation magnitude.
    pub w_max: f64,
}

impl DeltaRule<'_> {
    /// Runs one pass of per-sample delta-rule updates over `train` in
    /// `order` against `weights` (`features × classes`), and returns the
    /// mean squared sensed error of the pass.
    ///
    /// The pass allocates two class-length buffers and nothing per
    /// sample. Each sample's output is `x·W` accumulated row by row, in
    /// the same order as [`Matrix::vecmat`]. The update then walks each
    /// contiguous weight row once, across every class off target. Cells
    /// are independent within a sample, so the result is bit-identical
    /// to a per-(class, feature) loop.
    ///
    /// # Panics
    ///
    /// Panics if `weights`, `update_scale`, `irdrop_profile` and `train`
    /// disagree on shape, or if an `order` index is out of bounds.
    pub fn epoch(&self, weights: &mut Matrix, train: &Dataset, order: &[usize]) -> f64 {
        let (n, c) = (weights.rows(), weights.cols());
        assert_eq!(n, train.num_features(), "DeltaRule: feature mismatch");
        assert_eq!(
            (self.update_scale.rows(), self.update_scale.cols()),
            (n, c),
            "DeltaRule: update-scale shape mismatch"
        );
        if let Some(profile) = self.irdrop_profile {
            assert_eq!(
                (profile.rows(), profile.cols()),
                (n, c),
                "DeltaRule: IR-drop profile shape mismatch"
            );
        }
        let w = weights.as_mut_slice();
        let scale = self.update_scale.as_slice();
        let profile = self.irdrop_profile.map(Matrix::as_slice);
        let mut y = vec![0.0; c];
        // `(class, step_scale · err)` of every class off target.
        let mut steps: Vec<(usize, f64)> = Vec::with_capacity(c);
        let mut sq_err = 0.0;
        for &i in order {
            let x = train.image(i);
            let label = train.label(i) as usize;
            y.fill(0.0);
            for (&xq, row) in x.iter().zip(w.chunks_exact(c)) {
                if xq == 0.0 {
                    continue;
                }
                for (yj, &wqj) in y.iter_mut().zip(row) {
                    *yj += xq * wqj;
                }
            }
            steps.clear();
            for (j, &yj) in y.iter().enumerate() {
                let sensed = match self.adc {
                    Some(adc) => adc.quantize_signed(yj),
                    None => yj,
                };
                let target = if label == j { 1.0 } else { -1.0 };
                let err = target - sensed;
                sq_err += err * err;
                if err != 0.0 {
                    steps.push((j, self.step_scale * err));
                }
            }
            if steps.is_empty() {
                continue;
            }
            for (q, &xq) in x.iter().enumerate() {
                if xq == 0.0 {
                    continue;
                }
                let cells = q * c..(q + 1) * c;
                let (row, scale_row) = (&mut w[cells.clone()], &scale[cells.clone()]);
                let profile_row = profile.map(|p| &p[cells]);
                for &(j, step) in &steps {
                    // The achieved update is scaled by the device's e^θ …
                    let mut delta = step * xq * scale_row[j];
                    // … and by the IR-drop β·D profile.
                    if let Some(p) = profile_row {
                        delta *= p[j];
                    }
                    row[j] = (row[j] + delta).clamp(-self.w_max, self.w_max);
                }
            }
        }
        sq_err / (order.len() * c) as f64
    }
}

/// Convenience: sensed-output mean absolute error of a weight matrix
/// against the ±1 targets (used by tests and the Fig. 2 reproduction).
pub fn mean_target_error(w: &Matrix, data: &Dataset) -> f64 {
    let mut acc = 0.0;
    for i in 0..data.len() {
        let y = w.vecmat(data.image(i));
        for (j, &yj) in y.iter().enumerate() {
            let target = if data.label(i) as usize == j {
                1.0
            } else {
                -1.0
            };
            acc += (target - yj).abs();
        }
    }
    acc / (data.len() * data.num_classes()) as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use vortex_nn::dataset::{DatasetConfig, SynthDigits};
    use vortex_nn::split::stratified_split;

    fn rng() -> Xoshiro256PlusPlus {
        Xoshiro256PlusPlus::seed_from_u64(99)
    }

    fn setup() -> (Dataset, Dataset) {
        let d = SynthDigits::generate(&DatasetConfig::tiny(), 29).unwrap();
        let s = stratified_split(&d, 200, 100, &mut rng()).unwrap();
        (s.train, s.test)
    }

    #[test]
    fn validation() {
        let mut t = CldTrainer::fast();
        t.epochs = 0;
        assert!(t.validate().is_err());
        t = CldTrainer::fast();
        t.learning_rate = -0.1;
        assert!(t.validate().is_err());
        t = CldTrainer::fast();
        t.sense_full_scale = 0.0;
        assert!(t.validate().is_err());
    }

    #[test]
    fn cld_learns_on_ideal_hardware() {
        let (train, test) = setup();
        let out = CldTrainer::fast()
            .run(&train, &test, &HardwareEnv::ideal(), &mut rng())
            .unwrap();
        assert!(out.rates.training_rate > 0.6, "{}", out.rates.training_rate);
        assert!(out.rates.test_rate > 0.4, "{}", out.rates.test_rate);
    }

    #[test]
    fn cld_tolerates_variation_better_than_its_own_no_variation_loss() {
        // The close loop should keep most of its accuracy under σ = 0.8.
        let (train, test) = setup();
        let t = CldTrainer::fast();
        let clean = t
            .run(&train, &test, &HardwareEnv::ideal(), &mut rng())
            .unwrap();
        let noisy = t
            .run(
                &train,
                &test,
                &HardwareEnv::with_sigma(0.8).unwrap(),
                &mut rng(),
            )
            .unwrap();
        assert!(
            noisy.rates.test_rate > clean.rates.test_rate - 0.15,
            "CLD should absorb variation: clean {} noisy {}",
            clean.rates.test_rate,
            noisy.rates.test_rate
        );
    }

    #[test]
    fn coarse_sensing_limits_convergence_precision() {
        // §3.3: the convergence criterion only sees the quantized output,
        // so a coarse ADC cannot drive the outputs as close to the ±1
        // targets as a fine one (its dead zone stops the updates early).
        let (train, _) = setup();
        let fine = CldTrainer {
            sense_bits: Some(10),
            ..CldTrainer::fast()
        };
        let coarse = CldTrainer {
            sense_bits: Some(2),
            ..CldTrainer::fast()
        };
        let env = HardwareEnv::ideal();
        let f = fine.run(&train, &train, &env, &mut rng()).unwrap();
        let c = coarse.run(&train, &train, &env, &mut rng()).unwrap();
        let err_fine = mean_target_error(&f.weights, &train);
        let err_coarse = mean_target_error(&c.weights, &train);
        assert!(
            err_coarse > err_fine,
            "2-bit sensing must leave larger target error: coarse {err_coarse} fine {err_fine}"
        );
    }

    #[test]
    fn ir_drop_hurts_cld() {
        let (train, test) = setup();
        let without = CldTrainer {
            model_irdrop: false,
            ..CldTrainer::fast()
        };
        let with = CldTrainer {
            model_irdrop: true,
            ..CldTrainer::fast()
        };
        // Strong wires to make the effect visible on a small array.
        let env = HardwareEnv {
            r_wire: 120.0,
            ..HardwareEnv::ideal()
        };
        let a = without.run(&train, &test, &env, &mut rng()).unwrap();
        let b = with.run(&train, &test, &env, &mut rng()).unwrap();
        assert!(
            b.rates.training_rate <= a.rates.training_rate + 0.02,
            "IR-drop should not improve CLD: without {} with {}",
            a.rates.training_rate,
            b.rates.training_rate
        );
    }

    #[test]
    fn worst_case_profile_is_more_damaging_than_current_state() {
        // The paper's Table 1 collapse assumes all-LRS loading; the
        // physically-refreshing profile is milder.
        let (train, test) = setup();
        let env = HardwareEnv {
            r_wire: 40.0,
            ..HardwareEnv::ideal()
        };
        let current = CldTrainer {
            model_irdrop: true,
            ..CldTrainer::fast()
        };
        let worst = CldTrainer {
            model_irdrop: true,
            worst_case_irdrop_profile: true,
            ..CldTrainer::fast()
        };
        let a = current.run(&train, &test, &env, &mut rng()).unwrap();
        let b = worst.run(&train, &test, &env, &mut rng()).unwrap();
        assert!(
            b.rates.training_rate <= a.rates.training_rate + 0.02,
            "worst-case profile {} should not out-train current-state {}",
            b.rates.training_rate,
            a.rates.training_rate
        );
    }

    #[test]
    fn run_is_deterministic() {
        let (train, test) = setup();
        let t = CldTrainer::fast();
        let env = HardwareEnv::with_sigma(0.5).unwrap();
        let a = t.run(&train, &test, &env, &mut rng()).unwrap();
        let b = t.run(&train, &test, &env, &mut rng()).unwrap();
        assert_eq!(a.per_draw, b.per_draw);
    }

    #[test]
    fn mean_target_error_decreases_with_training() {
        let (train, _) = setup();
        let zero = Matrix::zeros(train.num_features(), train.num_classes());
        let err0 = mean_target_error(&zero, &train);
        let out = CldTrainer::fast()
            .run(&train, &train, &HardwareEnv::ideal(), &mut rng())
            .unwrap();
        let err1 = mean_target_error(&out.weights, &train);
        assert!(
            err1 < err0,
            "training must reduce target error: {err0} → {err1}"
        );
    }
}
