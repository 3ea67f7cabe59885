//! The resumable delta-rule stepper.
//!
//! [`DeltaStepper`] is the CLD training loop of `vortex_core::cld`
//! re-cut into *mini-epochs*: one call to [`DeltaStepper::step`] is one
//! full shuffled pass over the training set through
//! [`DeltaRule::epoch`], the same kernel `CldTrainer` runs. Between any
//! two calls the complete training state freezes into a
//! [`TrainingCheckpoint`] — weights, normalized-LMS step scale, epoch
//! and sample counters, and the exact position of the RNG stream.
//!
//! # Determinism contract
//!
//! A stepper restored via [`DeltaStepper::resume`] continues the run
//! **bit-identically**: for the same dataset, environment and
//! [`TrainerConfig`], `fresh → step×k → checkpoint → resume → step×m`
//! produces exactly the same weights as `fresh → step×(k+m)`. Two
//! ingredients make this hold:
//!
//! * the shuffle order and nothing else consumes the training RNG, and
//!   its full 256-bit state rides in the checkpoint
//!   ([`Xoshiro256PlusPlus::state`]);
//! * the per-cell `e^θ` variation multipliers are *not* checkpointed —
//!   they model the fabricated array, which does not change across a
//!   process restart — and are re-derived from a **separate** RNG stream
//!   seeded from `config.seed`, so re-deriving them never perturbs the
//!   training stream.

use vortex_core::cld::{achieved_update_scale, nlms_step_scale, DeltaRule};
use vortex_core::pipeline::HardwareEnv;
use vortex_linalg::rng::Xoshiro256PlusPlus;
use vortex_linalg::Matrix;
use vortex_nn::dataset::Dataset;
use vortex_runtime::TrainingCheckpoint;
use vortex_xbar::sensing::Adc;

use crate::{Result, TrainError};

/// Domain-separation constant for the variation-matrix RNG stream: the
/// fabricated array's `e^θ` draws must not share a stream with the
/// epoch shuffles (resuming re-derives the former but restores the
/// latter from the checkpoint).
const VARIATION_STREAM: u64 = 0x56_41_52_5f_53_54_52_4d; // "VAR_STRM"

/// Hyper-parameters of a resumable delta-rule job.
///
/// The subset of [`vortex_core::cld::CldTrainer`] that is meaningful
/// per-mini-epoch (the epoch budget and Monte-Carlo draw count live on
/// [`crate::JobConfig`]; IR-drop modelling is out of scope for the
/// serving-side job engine).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrainerConfig {
    /// Learning rate α of the delta rule (Eq. (1) of the paper).
    pub learning_rate: f64,
    /// Sensing ADC resolution in bits (`None` = ideal sensing).
    pub sense_bits: Option<u32>,
    /// Full scale of the sensed output, in weight-domain output units.
    pub sense_full_scale: f64,
    /// Convergence threshold on the mean squared sensed error.
    pub tolerance: f64,
    /// Seed of the job: fixes the fabricated array, the shuffle stream
    /// and (downstream) the compile seed of the promoted model.
    pub seed: u64,
}

impl Default for TrainerConfig {
    fn default() -> Self {
        Self {
            learning_rate: 0.01,
            sense_bits: Some(6),
            sense_full_scale: 4.0,
            tolerance: 1e-4,
            seed: 0,
        }
    }
}

impl TrainerConfig {
    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`TrainError::InvalidParameter`] on out-of-domain fields.
    pub fn validate(&self) -> Result<()> {
        if !(self.learning_rate.is_finite() && self.learning_rate > 0.0) {
            return Err(TrainError::InvalidParameter {
                name: "learning_rate",
                requirement: "must be finite and positive",
            });
        }
        if !(self.sense_full_scale.is_finite() && self.sense_full_scale > 0.0) {
            return Err(TrainError::InvalidParameter {
                name: "sense_full_scale",
                requirement: "must be finite and positive",
            });
        }
        if !(self.tolerance.is_finite() && self.tolerance >= 0.0) {
            return Err(TrainError::InvalidParameter {
                name: "tolerance",
                requirement: "must be finite and non-negative",
            });
        }
        Ok(())
    }
}

/// One resumable on-device training run. See the module docs for the
/// determinism contract.
#[derive(Debug, Clone)]
pub struct DeltaStepper {
    config: TrainerConfig,
    adc: Option<Adc>,
    /// Per-cell achieved-update multipliers `clamp(e^θ, 0.05, 3.0)` of
    /// the fabricated array (re-derived on resume, never checkpointed).
    update_scale_variation: Matrix,
    w_max: f64,
    weights: Matrix,
    epoch: u64,
    samples_seen: u64,
    step_scale: f64,
    last_mse: f64,
    rng: Xoshiro256PlusPlus,
}

impl DeltaStepper {
    /// Derives the parts of the stepper that are functions of
    /// `(train, env, config)` rather than training progress: the ADC,
    /// the fabricated array's variation multipliers and the
    /// normalized-LMS step scale.
    fn derived(
        train: &Dataset,
        env: &HardwareEnv,
        config: &TrainerConfig,
    ) -> Result<(Option<Adc>, Matrix, f64)> {
        config.validate()?;
        if train.is_empty() {
            return Err(TrainError::InvalidParameter {
                name: "train",
                requirement: "must be non-empty",
            });
        }
        let adc = match config.sense_bits {
            Some(bits) => Some(
                Adc::new(bits, config.sense_full_scale).map_err(vortex_core::CoreError::Xbar)?,
            ),
            None => None,
        };
        // The fabricated array: a separate, domain-separated RNG stream
        // so that resuming (which re-runs this derivation) cannot shift
        // the training stream.
        let mut fab_rng = Xoshiro256PlusPlus::seed_from_u64(config.seed ^ VARIATION_STREAM);
        let update_scale_variation =
            achieved_update_scale(env, train.num_features(), train.num_classes(), &mut fab_rng);
        let step_scale = nlms_step_scale(train, config.learning_rate);
        Ok((adc, update_scale_variation, step_scale))
    }

    /// Starts a fresh run: zero weights, epoch 0, the training RNG at
    /// the start of the `config.seed` stream.
    ///
    /// # Errors
    ///
    /// Returns [`TrainError::InvalidParameter`] on an invalid
    /// configuration or an empty dataset; propagates ADC construction
    /// failures as [`TrainError::Core`].
    pub fn fresh(train: &Dataset, env: &HardwareEnv, config: TrainerConfig) -> Result<Self> {
        let (adc, update_scale_variation, step_scale) = Self::derived(train, env, &config)?;
        Ok(Self {
            adc,
            update_scale_variation,
            w_max: env.w_max,
            weights: Matrix::zeros(train.num_features(), train.num_classes()),
            epoch: 0,
            samples_seen: 0,
            step_scale,
            last_mse: f64::INFINITY,
            rng: Xoshiro256PlusPlus::seed_from_u64(config.seed),
            config,
        })
    }

    /// Restores a stepper from a checkpoint so that subsequent
    /// [`step`](Self::step) calls continue the interrupted run
    /// bit-identically.
    ///
    /// The checkpoint carries the training progress (weights, counters,
    /// RNG position); everything that is a pure function of
    /// `(train, env, config)` — the ADC, the variation matrix, the step
    /// scale — is re-derived, and the re-derived step scale must agree
    /// with the checkpointed one (a mismatch means the checkpoint was
    /// produced against different data or hyper-parameters).
    ///
    /// # Errors
    ///
    /// [`TrainError::CheckpointMismatch`] when the checkpoint does not
    /// belong to this job (wrong seed, wrong shape, inconsistent step
    /// scale, or an unrestorable RNG state).
    pub fn resume(
        train: &Dataset,
        env: &HardwareEnv,
        config: TrainerConfig,
        ck: &TrainingCheckpoint,
    ) -> Result<Self> {
        let (adc, update_scale_variation, step_scale) = Self::derived(train, env, &config)?;
        if ck.seed != config.seed {
            return Err(TrainError::CheckpointMismatch {
                context: "checkpoint seed differs from the job seed",
            });
        }
        if ck.weights.rows() != train.num_features() || ck.weights.cols() != train.num_classes() {
            return Err(TrainError::CheckpointMismatch {
                context: "checkpoint weight shape differs from the dataset",
            });
        }
        if ck.step_scale.to_bits() != step_scale.to_bits() {
            return Err(TrainError::CheckpointMismatch {
                context: "checkpoint step scale differs from the derived one",
            });
        }
        let rng = ck.rng().ok_or(TrainError::CheckpointMismatch {
            context: "checkpoint RNG state is unrestorable",
        })?;
        Ok(Self {
            adc,
            update_scale_variation,
            w_max: env.w_max,
            weights: ck.weights.clone(),
            epoch: ck.epoch,
            samples_seen: ck.samples_seen,
            step_scale,
            last_mse: ck.last_mse,
            rng,
            config,
        })
    }

    /// Runs one mini-epoch — a full shuffled pass of delta-rule updates
    /// against the simulated crossbar — and returns the mean squared
    /// *sensed* error of the pass.
    ///
    /// This is the serial unit of work the job engine schedules on the
    /// shared pool; determinism follows from the RNG being the only
    /// source of order.
    pub fn step(&mut self, train: &Dataset) -> f64 {
        let mut order: Vec<usize> = (0..train.len()).collect();
        self.rng.shuffle(&mut order);
        let rule = DeltaRule {
            step_scale: self.step_scale,
            update_scale: &self.update_scale_variation,
            irdrop_profile: None,
            adc: self.adc.as_ref(),
            w_max: self.w_max,
        };
        self.last_mse = rule.epoch(&mut self.weights, train, &order);
        self.epoch += 1;
        self.samples_seen += train.len() as u64;
        self.last_mse
    }

    /// Freezes the complete training state at this epoch boundary.
    pub fn checkpoint(&self) -> TrainingCheckpoint {
        TrainingCheckpoint {
            weights: self.weights.clone(),
            epoch: self.epoch,
            samples_seen: self.samples_seen,
            seed: self.config.seed,
            step_scale: self.step_scale,
            last_mse: self.last_mse,
            rng_state: self.rng.state(),
        }
    }

    /// Whether the run has met the convergence criterion: at least one
    /// epoch completed and the sensed MSE below the tolerance.
    pub fn converged(&self) -> bool {
        self.epoch > 0 && self.last_mse < self.config.tolerance
    }

    /// The current weight matrix.
    pub fn weights(&self) -> &Matrix {
        &self.weights
    }

    /// Completed epochs.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Samples consumed across all completed epochs.
    pub fn samples_seen(&self) -> u64 {
        self.samples_seen
    }

    /// Mean squared sensed error of the last completed epoch
    /// (`+inf` before the first).
    pub fn last_mse(&self) -> f64 {
        self.last_mse
    }

    /// The configuration this stepper runs under.
    pub fn config(&self) -> &TrainerConfig {
        &self.config
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vortex_nn::dataset::{DatasetConfig, SynthDigits};
    use vortex_nn::metrics::accuracy_of_weights;
    use vortex_nn::split::stratified_split;

    fn setup() -> Dataset {
        let d = SynthDigits::generate(&DatasetConfig::tiny(), 29).unwrap();
        let mut rng = Xoshiro256PlusPlus::seed_from_u64(99);
        stratified_split(&d, 160, 40, &mut rng).unwrap().train
    }

    fn config() -> TrainerConfig {
        TrainerConfig {
            seed: 7,
            ..TrainerConfig::default()
        }
    }

    #[test]
    fn validation_rejects_bad_fields() {
        let mut c = config();
        c.learning_rate = 0.0;
        assert!(c.validate().is_err());
        c = config();
        c.sense_full_scale = f64::NAN;
        assert!(c.validate().is_err());
        c = config();
        c.tolerance = -1.0;
        assert!(c.validate().is_err());
        assert!(config().validate().is_ok());
    }

    #[test]
    fn stepping_learns() {
        let train = setup();
        let env = HardwareEnv::ideal();
        let mut s = DeltaStepper::fresh(&train, &env, config()).unwrap();
        let first = s.step(&train);
        for _ in 0..11 {
            s.step(&train);
        }
        assert!(s.last_mse() < first, "{} !< {first}", s.last_mse());
        assert!(accuracy_of_weights(s.weights(), &train) > 0.6);
        assert_eq!(s.epoch(), 12);
        assert_eq!(s.samples_seen(), 12 * train.len() as u64);
    }

    #[test]
    fn checkpoint_resume_is_bit_identical() {
        let train = setup();
        let env = HardwareEnv::with_sigma(0.5).unwrap();
        let cfg = config();

        // Uninterrupted: 9 epochs straight through.
        let mut a = DeltaStepper::fresh(&train, &env, cfg).unwrap();
        for _ in 0..9 {
            a.step(&train);
        }

        // Interrupted: 4 epochs, freeze, thaw, 5 more.
        let mut b = DeltaStepper::fresh(&train, &env, cfg).unwrap();
        for _ in 0..4 {
            b.step(&train);
        }
        let ck = b.checkpoint();
        drop(b);
        let mut b = DeltaStepper::resume(&train, &env, cfg, &ck).unwrap();
        for _ in 0..5 {
            b.step(&train);
        }

        assert_eq!(a.weights().as_slice(), b.weights().as_slice());
        assert_eq!(a.last_mse().to_bits(), b.last_mse().to_bits());
        assert_eq!(a.checkpoint(), b.checkpoint());
    }

    #[test]
    fn resume_rejects_foreign_checkpoints() {
        let train = setup();
        let env = HardwareEnv::ideal();
        let mut s = DeltaStepper::fresh(&train, &env, config()).unwrap();
        s.step(&train);
        let ck = s.checkpoint();

        // Wrong seed.
        let other = TrainerConfig {
            seed: 8,
            ..config()
        };
        assert!(matches!(
            DeltaStepper::resume(&train, &env, other, &ck),
            Err(TrainError::CheckpointMismatch { .. })
        ));

        // Wrong hyper-parameters change the derived step scale.
        let other = TrainerConfig {
            learning_rate: 0.02,
            ..config()
        };
        assert!(matches!(
            DeltaStepper::resume(&train, &env, other, &ck),
            Err(TrainError::CheckpointMismatch { .. })
        ));

        // Wrong shape.
        let mut bad = ck.clone();
        bad.weights = Matrix::zeros(3, 3);
        assert!(matches!(
            DeltaStepper::resume(&train, &env, config(), &bad),
            Err(TrainError::CheckpointMismatch { .. })
        ));
    }

    #[test]
    fn convergence_requires_a_completed_epoch() {
        let train = setup();
        let env = HardwareEnv::ideal();
        let cfg = TrainerConfig {
            tolerance: f64::MAX,
            ..config()
        };
        let mut s = DeltaStepper::fresh(&train, &env, cfg).unwrap();
        assert!(!s.converged(), "no epoch has run yet");
        s.step(&train);
        assert!(s.converged());
    }

    #[test]
    fn variation_stream_is_independent_of_the_training_stream() {
        // Two steppers with the same seed see the same fabricated array,
        // and deriving it does not advance the training RNG: the first
        // shuffle of a fresh stepper matches a bare RNG's first shuffle.
        let train = setup();
        let env = HardwareEnv::with_sigma(0.5).unwrap();
        let s = DeltaStepper::fresh(&train, &env, config()).unwrap();
        let mut bare = Xoshiro256PlusPlus::seed_from_u64(config().seed);
        let mut expect: Vec<usize> = (0..4).collect();
        bare.shuffle(&mut expect);
        let mut got: Vec<usize> = (0..4).collect();
        s.rng.clone().shuffle(&mut got);
        assert_eq!(expect, got);
    }
}
