//! The integrated Vortex pipeline — VAT + AMP (§4.3 of the paper).
//!
//! Per experiment run:
//!
//! 1. **VAT with self-tuned γ** trains robust weights in software
//!    ([`crate::vat`], [`crate::tuning`]).
//! 2. Per fabricated chip (Monte-Carlo draw):
//!    - **Pre-test** every device of both crossbars through the
//!      configured ADC ([`vortex_xbar::pretest`]);
//!    - flag defective physical rows and **greedily map** weight rows to
//!      physical rows by sensitivity and SWV ([`crate::amp`]);
//!    - optionally **re-tune** VAT against the reduced effective σ the
//!      mapping leaves behind (the §4.3 stacking);
//!    - **program** the pair open-loop (with IR-drop compensation when
//!      wires are modeled) and measure the hardware **test rate**.
//!
//! The `use_vat` / `use_amp` switches expose the ablations of Fig. 9.

use serde::{Deserialize, Serialize};
use vortex_linalg::rng::Xoshiro256PlusPlus;
use vortex_linalg::Matrix;
use vortex_nn::dataset::Dataset;
use vortex_nn::executor::{run_trials, Parallelism};
use vortex_nn::metrics::{accuracy_of_weights, Rates};
use vortex_runtime::CompiledModel;
use vortex_xbar::encoding::EncodingSpec;
use vortex_xbar::pair::{DifferentialPair, WeightMapping};
use vortex_xbar::pretest::{pretest, PretestConfig};
use vortex_xbar::sensing::Adc;

use crate::amp::greedy::{greedy_map, RowMapping};
use crate::amp::redundancy::{defective_rows_pair, exclude_physical_rows};
use crate::amp::{sensitivity, swv};
use crate::pipeline::{
    evaluate_draws, score_model, HardwareEnv, HardwareEvaluation, ModelCompiler,
};
use crate::tuning::{GammaPoint, SelfTuner};
use crate::vat::VatTrainer;
use crate::{CoreError, Result};

/// Configuration of the integrated pipeline.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct VortexConfig {
    /// Base VAT parameters (γ is overridden by the tuner; σ by the
    /// environment).
    pub vat: VatTrainer,
    /// The γ self-tuner.
    pub tuner: SelfTuner,
    /// Extra physical rows available to AMP (the paper's `p`, §5.3).
    pub redundant_rows: usize,
    /// Pre-test ADC resolution in bits (§5.2 sweeps this).
    pub pretest_bits: u32,
    /// Pre-test program/sense repetitions.
    pub pretest_repeats: usize,
    /// |θ̂| beyond which a pre-tested row is treated as defective.
    pub defect_theta_threshold: f64,
    /// Whether to re-tune VAT against the post-AMP effective σ (§4.3).
    pub retune_after_amp: bool,
    /// Monte-Carlo fabrication draws.
    pub mc_draws: usize,
    /// Enable the VAT component (off = plain GDT weights).
    pub use_vat: bool,
    /// Enable the AMP component (off = identity mapping).
    pub use_amp: bool,
    /// Worker pool for the per-chip Monte-Carlo fan-out (and, via
    /// [`SelfTuner::parallelism`], the γ scan). Results are bit-identical
    /// for every setting; only wall-clock time changes.
    pub parallelism: Parallelism,
}

impl Default for VortexConfig {
    fn default() -> Self {
        Self {
            vat: VatTrainer::default(),
            tuner: SelfTuner::default(),
            redundant_rows: 0,
            pretest_bits: 6,
            pretest_repeats: 3,
            defect_theta_threshold: 2.5,
            retune_after_amp: false,
            mc_draws: 5,
            use_vat: true,
            use_amp: true,
            parallelism: Parallelism::Auto,
        }
    }
}

impl VortexConfig {
    /// A fast configuration for tests: few epochs, coarse γ grid, few
    /// draws.
    pub fn fast() -> Self {
        Self {
            vat: VatTrainer {
                epochs: 8,
                ..Default::default()
            },
            tuner: SelfTuner::coarse(),
            pretest_repeats: 1,
            mc_draws: 2,
            ..Default::default()
        }
    }
}

/// Outcome of a Vortex run.
#[derive(Debug, Clone, PartialEq)]
pub struct VortexOutcome {
    /// Training rate of the tuned weights and mean hardware test rate.
    pub rates: Rates,
    /// The trained (software) weights.
    pub weights: Matrix,
    /// The γ the self-tuner selected.
    pub best_gamma: f64,
    /// The tuning curve (data behind Fig. 4 / Fig. 7).
    pub tuning_curve: Vec<GammaPoint>,
    /// Per-draw hardware test rates.
    pub per_draw: Vec<f64>,
    /// Mean post-AMP effective σ over draws (equals the raw σ without
    /// AMP).
    pub effective_sigma_mean: f64,
}

/// The integrated Vortex pipeline.
#[derive(Debug, Clone, PartialEq)]
pub struct VortexPipeline {
    config: VortexConfig,
}

impl VortexPipeline {
    /// Creates the pipeline with the given configuration.
    pub fn new(config: VortexConfig) -> Self {
        Self { config }
    }

    /// The configuration.
    pub fn config(&self) -> &VortexConfig {
        &self.config
    }

    /// Runs the full pipeline.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidParameter`] for zero `mc_draws`, before
    /// any tuning; otherwise propagates training, pre-test, mapping,
    /// programming and readout errors.
    pub fn run(
        &self,
        train: &Dataset,
        test: &Dataset,
        env: &HardwareEnv,
        rng: &mut Xoshiro256PlusPlus,
    ) -> Result<VortexOutcome> {
        let cfg = &self.config;
        if cfg.mc_draws == 0 {
            return Err(CoreError::InvalidParameter {
                name: "mc_draws",
                requirement: "must be positive",
            });
        }
        let _span = vortex_obs::span!("pipeline.vortex_seconds");
        let sigma = env.variation.sigma();
        let base_vat = cfg.vat.with_sigma(sigma);

        // 1. Software training (VAT + self-tuning, or plain GDT-equivalent).
        let (weights, best_gamma, tuning_curve) = if cfg.use_vat && sigma > 0.0 {
            let outcome = cfg.tuner.tune(&base_vat, train)?;
            (outcome.weights, outcome.best_gamma, outcome.curve)
        } else {
            let w = base_vat.with_gamma(0.0).train(train)?;
            (w, 0.0, Vec::new())
        };
        let training_rate = accuracy_of_weights(&weights, train);

        // 2. Per-chip mapping, programming and scoring.
        let physical_rows = weights.rows() + cfg.redundant_rows;
        let mean_abs_input = sensitivity::mean_abs_inputs(train);
        let amp_opts = AmpChipOptions {
            pretest_bits: cfg.pretest_bits,
            pretest_repeats: cfg.pretest_repeats,
            defect_theta_threshold: cfg.defect_theta_threshold,
            redundant_rows: cfg.redundant_rows,
            pretest_compensation: false,
        };
        let amp = cfg
            .use_amp
            .then_some((&amp_opts, mean_abs_input.as_slice()));
        let compiler = env.compiler().with_calibration(&test.mean_input());
        // Chips fabricate independently: pre-split one stream per draw and
        // fan out (bit-identical to the serial loop for any pool size).
        let draws = run_trials(rng, cfg.mc_draws, cfg.parallelism, |_, draw_rng| {
            // §4.3: the reduced effective variation after AMP can justify
            // a smaller penalty; optionally re-train against it.
            let retune = |eff: f64| -> Result<Option<Matrix>> {
                if cfg.retune_after_amp && cfg.use_vat && eff > 0.0 {
                    Ok(Some(
                        cfg.tuner.tune(&cfg.vat.with_sigma(eff), train)?.weights,
                    ))
                } else {
                    Ok(None)
                }
            };
            let (model, eff_sigma) =
                compile_chip(&compiler, &weights, physical_rows, amp, retune, draw_rng)?;
            Ok::<_, CoreError>((score_model(&model, test)?, eff_sigma))
        });
        let mut per_draw = Vec::with_capacity(cfg.mc_draws);
        let mut sigma_acc = 0.0;
        for draw in draws {
            let (rate, eff_sigma) = draw?;
            per_draw.push(rate);
            sigma_acc += eff_sigma;
        }
        let test_rate = per_draw.iter().sum::<f64>() / per_draw.len() as f64;
        Ok(VortexOutcome {
            rates: Rates {
                training_rate,
                test_rate,
            },
            weights,
            best_gamma,
            tuning_curve,
            per_draw,
            effective_sigma_mean: sigma_acc / cfg.mc_draws as f64,
        })
    }
}

/// Chip-level AMP options (shared by [`VortexPipeline`], [`amp_evaluate`]
/// and per-tile AMP in [`TiledEvaluator`](crate::tiling::TiledEvaluator)).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AmpChipOptions {
    /// Pre-test ADC resolution in bits.
    pub pretest_bits: u32,
    /// Pre-test program/sense repetitions.
    pub pretest_repeats: usize,
    /// |θ̂| beyond which a pre-tested row is treated as defective.
    pub defect_theta_threshold: f64,
    /// Extra physical rows beyond the weight-matrix rows.
    pub redundant_rows: usize,
    /// Extension beyond the paper: also divide each device's open-loop
    /// conductance target by its pre-tested multiplier `e^θ̂`, so the
    /// realized conductance lands back on target (clamped to the device
    /// window where the correction is unreachable). The paper only
    /// *remaps rows* with the pre-test data; this uses it per cell.
    pub pretest_compensation: bool,
}

impl Default for AmpChipOptions {
    fn default() -> Self {
        Self {
            pretest_bits: 6,
            pretest_repeats: 3,
            defect_theta_threshold: 2.5,
            redundant_rows: 0,
            pretest_compensation: false,
        }
    }
}

/// Fabricates a differential pair on `env` with the given physical row
/// count.
///
/// # Errors
///
/// Propagates configuration errors.
pub fn fabricate_pair(
    cols: usize,
    physical_rows: usize,
    env: &HardwareEnv,
    rng: &mut Xoshiro256PlusPlus,
) -> Result<DifferentialPair> {
    let config = env.crossbar_config(physical_rows, cols);
    let wm = WeightMapping::new(&env.device, env.w_max).map_err(CoreError::Xbar)?;
    DifferentialPair::fabricate(config, wm, rng).map_err(CoreError::Xbar)
}

/// Outcome of pre-testing and planning one chip.
#[derive(Debug, Clone, PartialEq)]
pub struct AmpPlanOutcome {
    /// Weight-row → physical-row assignment.
    pub mapping: RowMapping,
    /// Post-mapping weighted residual σ.
    pub effective_sigma: f64,
    /// Pre-tested conductance multipliers of the positive crossbar.
    pub mult_pos: Matrix,
    /// Pre-tested conductance multipliers of the negative crossbar.
    pub mult_neg: Matrix,
}

/// Pre-tests a fabricated pair and plans the AMP mapping for `weights`.
///
/// # Errors
///
/// Propagates pre-test and planning errors.
pub fn pretest_and_plan(
    pair: &mut DifferentialPair,
    weights: &Matrix,
    mean_abs_input: &[f64],
    opts: &AmpChipOptions,
    env: &HardwareEnv,
    rng: &mut Xoshiro256PlusPlus,
) -> Result<AmpPlanOutcome> {
    let adc = Adc::new(opts.pretest_bits, 1.5 * env.device.g_on()).map_err(CoreError::Xbar)?;
    let mut pt_cfg = PretestConfig::with_adc(adc).map_err(CoreError::Xbar)?;
    pt_cfg.repeats = opts.pretest_repeats;
    let rep_pos = pretest(pair.pos_mut(), &pt_cfg, rng).map_err(CoreError::Xbar)?;
    let rep_neg = pretest(pair.neg_mut(), &pt_cfg, rng).map_err(CoreError::Xbar)?;
    let mult_pos = rep_pos.multiplier_hat;
    let mult_neg = rep_neg.multiplier_hat;

    let sens = sensitivity::row_sensitivity(weights, mean_abs_input);
    let mut swv_m = swv::swv_matrix_pair(weights, &mult_pos, &mult_neg)?;
    let bad = defective_rows_pair(&mult_pos, &mult_neg, opts.defect_theta_threshold);
    // Only exclude as many rows as redundancy allows.
    let excludable = bad
        .iter()
        .copied()
        .take(opts.redundant_rows)
        .collect::<Vec<_>>();
    if !excludable.is_empty() {
        swv_m = exclude_physical_rows(&swv_m, &excludable)?;
    }
    let mapping = greedy_map(&sens, &swv_m)?;
    let eff = crate::amp::effective_sigma(weights, &mult_pos, &mult_neg, &mapping);
    Ok(AmpPlanOutcome {
        mapping,
        effective_sigma: eff,
        mult_pos,
        mult_neg,
    })
}

/// Per-cell target compensation from pre-test estimates: each device's
/// target conductance is divided by its measured multiplier `e^θ̂` so the
/// realized value `g·e^θ` lands back on target. Corrections falling
/// outside the device window clamp (those cells stay partially wrong —
/// the physical limit of the technique).
pub fn compensate_targets(
    targets: &Matrix,
    multipliers_hat: &Matrix,
    device: &vortex_device::DeviceParams,
) -> Matrix {
    Matrix::from_fn(targets.rows(), targets.cols(), |i, j| {
        let m = multipliers_hat[(i, j)].max(1e-6);
        (targets[(i, j)] / m).clamp(device.g_off(), device.g_on())
    })
}

/// Open-loop programs `weights` into `pair` through `mapping`, honoring
/// the environment's cell topology and programming-path IR-drop settings
/// (the differential encoding, through the [`ModelCompiler`]'s one
/// programming step).
///
/// # Errors
///
/// Propagates programming errors.
pub fn program_mapped(
    pair: &mut DifferentialPair,
    weights: &Matrix,
    mapping: &RowMapping,
    env: &HardwareEnv,
    rng: &mut Xoshiro256PlusPlus,
) -> Result<()> {
    let spec = EncodingSpec::DifferentialPair;
    env.compiler()
        .program_into(pair, weights, mapping, spec, None, rng)
        .map(drop)
}

/// The one route by which the Monte-Carlo harnesses turn weights into a
/// chip ([`amp_evaluate`], [`VortexPipeline::run`] and every tile of
/// [`TiledEvaluator`](crate::tiling::TiledEvaluator)):
///
/// 1. fabricate a pair with `physical_rows` rows on `compiler`'s
///    substrate;
/// 2. with `amp = Some((options, mean_abs_input))`, pre-test and plan the
///    AMP mapping; otherwise route the weight rows identically;
/// 3. program through the compiler's one programming step, dividing every
///    target by its pre-tested multiplier when
///    [`AmpChipOptions::pretest_compensation`] is set;
/// 4. freeze through `compiler` (its calibration input, its read path,
///    the 1T-1R access-transistor mapping).
///
/// `retune` runs between plan and program with the post-mapping
/// effective σ and may replace the weights (the §4.3 stacking); it draws
/// no RNG, so the stream is consumed in the same order either way.
/// Returns the frozen model and the effective σ (the raw σ without AMP).
pub(crate) fn compile_chip(
    compiler: &ModelCompiler,
    weights: &Matrix,
    physical_rows: usize,
    amp: Option<(&AmpChipOptions, &[f64])>,
    retune: impl FnOnce(f64) -> Result<Option<Matrix>>,
    rng: &mut Xoshiro256PlusPlus,
) -> Result<(CompiledModel, f64)> {
    let env = compiler.env();
    let mut pair = fabricate_pair(weights.cols(), physical_rows, env, rng)?;
    let (mapping, effective_sigma, mults, retuned) = match amp {
        Some((opts, mean_abs_input)) => {
            let plan = pretest_and_plan(&mut pair, weights, mean_abs_input, opts, env, rng)?;
            let retuned = retune(plan.effective_sigma)?;
            let mults = opts
                .pretest_compensation
                .then_some((plan.mult_pos, plan.mult_neg));
            (plan.mapping, plan.effective_sigma, mults, retuned)
        }
        None => (
            RowMapping::identity_into(weights.rows(), physical_rows),
            env.variation.sigma(),
            None,
            None,
        ),
    };
    let weights = retuned.as_ref().unwrap_or(weights);
    let mults = mults.as_ref().map(|(pos, neg)| (pos, neg));
    let spec = EncodingSpec::DifferentialPair;
    let table = compiler.program_into(&mut pair, weights, &mapping, spec, mults, rng)?;
    let model = compiler.freeze_with_table(&pair, &mapping, table)?;
    Ok((model, effective_sigma))
}

/// Evaluates fixed, already-trained `weights` with per-chip AMP mapping —
/// the measurement behind Fig. 7/8/9: fabricate, pre-test, plan, program,
/// score, for `mc_draws` chips.
///
/// Chips fan out over [`Parallelism::Auto`]; use [`amp_evaluate_with`] to
/// pin the pool size. Results are bit-identical either way.
///
/// # Errors
///
/// Propagates chip-level errors.
pub fn amp_evaluate(
    weights: &Matrix,
    mean_abs_input: &[f64],
    opts: &AmpChipOptions,
    env: &HardwareEnv,
    test: &Dataset,
    mc_draws: usize,
    rng: &mut Xoshiro256PlusPlus,
) -> Result<HardwareEvaluation> {
    amp_evaluate_with(
        weights,
        mean_abs_input,
        opts,
        env,
        test,
        mc_draws,
        rng,
        Parallelism::Auto,
    )
}

/// [`amp_evaluate`] with an explicit executor configuration. Per-chip
/// streams are pre-split from `rng` in draw order, so every
/// [`Parallelism`] setting produces the same per-draw rates.
///
/// # Errors
///
/// Propagates chip-level errors.
#[allow(clippy::too_many_arguments)]
pub fn amp_evaluate_with(
    weights: &Matrix,
    mean_abs_input: &[f64],
    opts: &AmpChipOptions,
    env: &HardwareEnv,
    test: &Dataset,
    mc_draws: usize,
    rng: &mut Xoshiro256PlusPlus,
    parallelism: Parallelism,
) -> Result<HardwareEvaluation> {
    let physical_rows = weights.rows() + opts.redundant_rows;
    let compiler = env.compiler().with_calibration(&test.mean_input());
    evaluate_draws(rng, mc_draws, parallelism, |draw_rng| {
        let amp = Some((opts, mean_abs_input));
        let (model, _) = compile_chip(
            &compiler,
            weights,
            physical_rows,
            amp,
            |_| Ok(None),
            draw_rng,
        )?;
        score_model(&model, test)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use vortex_nn::dataset::{DatasetConfig, SynthDigits};
    use vortex_nn::split::stratified_split;

    fn rng() -> Xoshiro256PlusPlus {
        Xoshiro256PlusPlus::seed_from_u64(4242)
    }

    fn setup() -> (Dataset, Dataset) {
        let d = SynthDigits::generate(&DatasetConfig::tiny(), 61).unwrap();
        let s = stratified_split(&d, 200, 100, &mut rng()).unwrap();
        (s.train, s.test)
    }

    #[test]
    fn vortex_runs_end_to_end() {
        let (train, test) = setup();
        let env = HardwareEnv::with_sigma(0.6).unwrap();
        let mut cfg = VortexConfig::fast();
        cfg.redundant_rows = 10;
        let out = VortexPipeline::new(cfg)
            .run(&train, &test, &env, &mut rng())
            .unwrap();
        assert!(
            out.rates.test_rate > 0.25,
            "test rate {}",
            out.rates.test_rate
        );
        assert_eq!(out.per_draw.len(), 2);
        assert!(!out.tuning_curve.is_empty());
        assert!(out.effective_sigma_mean > 0.0);
    }

    #[test]
    fn vortex_beats_plain_old_under_strong_variation() {
        let (train, test) = setup();
        let env = HardwareEnv::with_sigma(1.0).unwrap();
        let mut r = rng();
        let vortex = VortexPipeline::new(VortexConfig {
            redundant_rows: 20,
            ..VortexConfig::fast()
        })
        .run(&train, &test, &env, &mut r)
        .unwrap();
        let old = crate::old::OldPipeline::fast()
            .run(&train, &test, &env, &mut r)
            .unwrap();
        assert!(
            vortex.rates.test_rate > old.rates.test_rate - 0.02,
            "Vortex {} should not lose to OLD {}",
            vortex.rates.test_rate,
            old.rates.test_rate
        );
    }

    #[test]
    fn ablation_switches_work() {
        let (train, test) = setup();
        let env = HardwareEnv::with_sigma(0.6).unwrap();
        let mut r = rng();
        let amp_only = VortexPipeline::new(VortexConfig {
            use_vat: false,
            redundant_rows: 10,
            ..VortexConfig::fast()
        })
        .run(&train, &test, &env, &mut r)
        .unwrap();
        assert_eq!(amp_only.best_gamma, 0.0);
        assert!(amp_only.tuning_curve.is_empty());
        let vat_only = VortexPipeline::new(VortexConfig {
            use_amp: false,
            ..VortexConfig::fast()
        })
        .run(&train, &test, &env, &mut r)
        .unwrap();
        assert!((vat_only.effective_sigma_mean - 0.6).abs() < 1e-9);
    }

    #[test]
    fn zero_sigma_skips_tuning() {
        let (train, test) = setup();
        let env = HardwareEnv::ideal();
        let out = VortexPipeline::new(VortexConfig::fast())
            .run(&train, &test, &env, &mut rng())
            .unwrap();
        assert_eq!(out.best_gamma, 0.0);
        assert!(out.rates.test_rate > 0.4);
    }

    #[test]
    fn zero_draws_are_rejected_before_tuning() {
        let (train, test) = setup();
        let env = HardwareEnv::with_sigma(0.5).unwrap();
        let p = VortexPipeline::new(VortexConfig {
            mc_draws: 0,
            ..VortexConfig::fast()
        });
        let mut r = rng();
        let before = r.state();
        match p.run(&train, &test, &env, &mut r) {
            Err(CoreError::InvalidParameter { name, requirement }) => {
                assert_eq!((name, requirement), ("mc_draws", "must be positive"));
            }
            other => panic!("expected InvalidParameter, got {other:?}"),
        }
        // Rejected up front: no chip stream was split off.
        assert_eq!(r.state(), before);
    }

    /// FNV-1a of a byte string, for pinning compiled artifacts.
    fn fnv1a(bytes: &[u8]) -> u64 {
        bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
        })
    }

    /// Golden bytes of the AMP chip route: pre-test, greedy plan over four
    /// redundant rows, per-cell pre-test compensation, programming-path
    /// IR drop and a calibrated freeze, all from one fixed seed.
    #[test]
    fn amp_chip_bytes_are_pinned() {
        let (train, test) = setup();
        let weights = vortex_nn::gdt::GdtTrainer {
            epochs: 5,
            ..Default::default()
        }
        .train(&train)
        .unwrap();
        let env = HardwareEnv::with_sigma(0.5).unwrap().with_ir_drop(4.0);
        let opts = AmpChipOptions {
            redundant_rows: 4,
            pretest_compensation: true,
            ..Default::default()
        };
        let mean_abs_input = sensitivity::mean_abs_inputs(&train);
        let compiler = env.compiler().with_calibration(&test.mean_input());
        let (model, effective_sigma) = compile_chip(
            &compiler,
            &weights,
            weights.rows() + opts.redundant_rows,
            Some((&opts, mean_abs_input.as_slice())),
            |_| Ok(None),
            &mut rng(),
        )
        .unwrap();
        let bytes = model.to_bytes();
        assert_eq!(
            (bytes.len(), fnv1a(&bytes), effective_sigma.to_bits()),
            (66203, 0x28d0_5576_0880_e370, 0x3fd4_88b3_605c_4130),
            "AMP chip bytes moved"
        );
    }

    #[test]
    fn run_is_deterministic() {
        let (train, test) = setup();
        let env = HardwareEnv::with_sigma(0.5).unwrap();
        let p = VortexPipeline::new(VortexConfig::fast());
        let a = p.run(&train, &test, &env, &mut rng()).unwrap();
        let b = p.run(&train, &test, &env, &mut rng()).unwrap();
        assert_eq!(a.per_draw, b.per_draw);
        assert_eq!(a.best_gamma, b.best_gamma);
    }
}
