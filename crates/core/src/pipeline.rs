//! Shared hardware-evaluation harness: fabricate → map → program →
//! compile → infer.
//!
//! Every training scheme in this crate (OLD, CLD, Vortex) is ultimately
//! judged the same way the paper judges them: program the trained weights
//! into a (simulated) crossbar pair and measure the fraction of *test*
//! samples the hardware classifies correctly, averaged over Monte-Carlo
//! fabrication draws.
//!
//! Since the runtime split, the read path lives in `vortex_runtime`: each
//! draw is compiled **once** into an immutable [`CompiledModel`] by a
//! [`ModelCompiler`] ([`HardwareEnv::compiler`]) — fabricate, program and
//! calibrate happen there — and scoring is a pure batched inference over
//! the test set. The compiled read is bit-exact with the live
//! [`DifferentialPair::read`], so evaluation numbers are unchanged.

use serde::{Deserialize, Serialize};
use vortex_device::cell::CellKind;
use vortex_device::defects::DefectModel;
use vortex_device::{DeviceParams, VariationModel};
use vortex_linalg::rng::{SplitMix64, Xoshiro256PlusPlus};
use vortex_linalg::Matrix;
use vortex_nn::dataset::Dataset;
use vortex_nn::executor::{run_trials, Parallelism};
use vortex_nn::pool::WorkerPool;
use vortex_runtime::{CompiledModel, Fidelity, ReadOptions};
use vortex_xbar::crossbar::{Crossbar, CrossbarConfig};
use vortex_xbar::encoding::{EncodedTargets, EncodingSpec, EncodingTable};
use vortex_xbar::irdrop::ProgramVoltageMap;
use vortex_xbar::pair::DifferentialPair;
use vortex_xbar::program::{program_with_protocol, ProgramOptions};
use vortex_xbar::sensing::Adc;

use crate::amp::greedy::RowMapping;
use crate::amp::sensitivity::row_sensitivity;
use crate::vortex::{compensate_targets, fabricate_pair};
use crate::{CoreError, Result};

/// Read-path circuit fidelity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ReadFidelity {
    /// Perfect wires.
    Ideal,
    /// Rank-1 calibrated attenuation (one mesh solve per fabrication).
    FastIrDrop,
    /// Exact nodal IR drop, compiled into one transfer matrix per
    /// crossbar (`cols` mesh solves per fabrication).
    ExactIrDrop,
}

/// The physical substrate an experiment runs on.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct HardwareEnv {
    /// Nominal device corner.
    pub device: DeviceParams,
    /// Device variation model (σ of the paper's sweeps).
    pub variation: VariationModel,
    /// Fabrication defects.
    pub defects: DefectModel,
    /// Wire resistance per segment (Ω); 0 disables IR-drop entirely.
    pub r_wire: f64,
    /// Readout ADC resolution in bits (`None` = ideal sensing).
    pub adc_bits: Option<u32>,
    /// Input DAC resolution in bits (`None` = ideal drivers). The paper's
    /// setup drives rows with digital voltages (§2.1), so finite input
    /// resolution is part of the substrate.
    pub dac_bits: Option<u32>,
    /// Read-path fidelity.
    pub read_fidelity: ReadFidelity,
    /// Whether programming pulses suffer IR-drop degradation.
    pub program_irdrop: bool,
    /// Whether the open-loop programmer compensates its pulse widths with
    /// the analytic IR-drop estimate (Liu et al., ICCAD'14 — reference
    /// \[10\] of the paper).
    pub compensate_program_irdrop: bool,
    /// Largest weight magnitude the conductance mapping must represent.
    pub w_max: f64,
    /// Cell topology: the paper's passive 1R crossbar (default) or a
    /// 1T-1R array whose access transistor compresses effective
    /// conductance. Every programming route — [`ModelCompiler`] requests
    /// and the [`crate::vortex`] phase functions alike — pre-distorts the
    /// targets NEAT-style to counteract it (saturating at the top of the
    /// weight range).
    pub cell: CellKind,
}

impl HardwareEnv {
    /// An ideal substrate: no variation, no defects, no IR-drop, ideal
    /// sensing.
    pub fn ideal() -> Self {
        Self {
            device: DeviceParams::default(),
            variation: VariationModel::none(),
            defects: DefectModel::none(),
            r_wire: 0.0,
            adc_bits: None,
            dac_bits: None,
            read_fidelity: ReadFidelity::Ideal,
            program_irdrop: false,
            compensate_program_irdrop: false,
            w_max: 2.0,
            cell: CellKind::OneR,
        }
    }

    /// An environment with lognormal parametric variation σ and otherwise
    /// ideal periphery — the setting of Fig. 4 / Fig. 9.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidParameter`] for a negative σ.
    pub fn with_sigma(sigma: f64) -> Result<Self> {
        Ok(Self {
            variation: VariationModel::parametric(sigma)?,
            ..Self::ideal()
        })
    }

    /// Enables IR-drop with the given wire resistance on both the
    /// programming and read paths (fast models).
    pub fn with_ir_drop(mut self, r_wire: f64) -> Self {
        self.r_wire = r_wire;
        self.read_fidelity = if r_wire > 0.0 {
            ReadFidelity::FastIrDrop
        } else {
            ReadFidelity::Ideal
        };
        self.program_irdrop = r_wire > 0.0;
        self
    }

    /// The crossbar configuration for an `rows × cols` array on this
    /// substrate.
    pub fn crossbar_config(&self, rows: usize, cols: usize) -> CrossbarConfig {
        CrossbarConfig {
            rows,
            cols,
            device: self.device,
            r_wire: self.r_wire,
            variation: self.variation,
            defects: self.defects,
        }
    }

    /// The readout ADC for an array with `rows` driven rows, if sensing is
    /// quantized. Full scale is sized to the worst-case column current
    /// (every device at LRS, every input at full drive).
    ///
    /// # Errors
    ///
    /// Propagates ADC construction errors.
    pub fn read_adc(&self, rows: usize) -> Result<Option<Adc>> {
        match self.adc_bits {
            None => Ok(None),
            Some(bits) => {
                let full_scale = rows as f64 * self.device.g_on();
                Ok(Some(Adc::new(bits, full_scale).map_err(CoreError::Xbar)?))
            }
        }
    }

    /// The input driver DAC (unit reference voltage — pixel inputs live in
    /// `[0, 1]`), if input quantization is modeled.
    ///
    /// # Errors
    ///
    /// Propagates DAC construction errors.
    pub fn input_dac(&self) -> Result<Option<vortex_xbar::sensing::Dac>> {
        match self.dac_bits {
            None => Ok(None),
            Some(bits) => Ok(Some(
                vortex_xbar::sensing::Dac::new(bits, 1.0).map_err(CoreError::Xbar)?,
            )),
        }
    }

    /// The runtime read-path options for an array with `rows` physical
    /// rows: fidelity plus the sized peripheral converters.
    ///
    /// # Errors
    ///
    /// Propagates converter construction errors.
    pub fn read_options(&self, rows: usize) -> Result<ReadOptions> {
        Ok(ReadOptions {
            fidelity: match self.read_fidelity {
                ReadFidelity::Ideal => Fidelity::Ideal,
                ReadFidelity::FastIrDrop => Fidelity::Calibrated,
                ReadFidelity::ExactIrDrop => Fidelity::Exact,
            },
            adc: self.read_adc(rows)?,
            dac: self.input_dac()?,
        })
    }
}

/// Outcome of one hardware evaluation.
#[derive(Debug, Clone, PartialEq)]
pub struct HardwareEvaluation {
    /// Mean test rate over the Monte-Carlo draws.
    pub mean_test_rate: f64,
    /// Per-draw test rates.
    pub per_draw: Vec<f64>,
}

/// Programs `weights` into a freshly fabricated crossbar pair under
/// `mapping` and measures classification accuracy on `test`, repeated for
/// `mc_draws` independent fabrications.
///
/// Fabrication draws fan out over [`Parallelism::Auto`] (the
/// `VORTEX_MC_THREADS` override applies); results are bit-identical to
/// the serial loop for any thread count. Use [`evaluate_hardware_with`]
/// to pin the pool size.
///
/// # Errors
///
/// Propagates fabrication, programming and readout errors.
pub fn evaluate_hardware(
    weights: &Matrix,
    mapping: &RowMapping,
    env: &HardwareEnv,
    test: &Dataset,
    mc_draws: usize,
    rng: &mut Xoshiro256PlusPlus,
) -> Result<HardwareEvaluation> {
    evaluate_hardware_with(
        weights,
        mapping,
        env,
        test,
        mc_draws,
        rng,
        Parallelism::Auto,
    )
}

/// [`evaluate_hardware`] with an explicit executor configuration.
///
/// Each draw's generator is pre-split from `rng` in draw order before
/// fan-out, so every [`Parallelism`] setting produces the same per-draw
/// rates, in the same order. When several draws fail, the error of the
/// earliest (by draw index) is returned, again independent of scheduling.
///
/// # Errors
///
/// Propagates fabrication, programming and readout errors.
#[allow(clippy::too_many_arguments)]
pub fn evaluate_hardware_with(
    weights: &Matrix,
    mapping: &RowMapping,
    env: &HardwareEnv,
    test: &Dataset,
    mc_draws: usize,
    rng: &mut Xoshiro256PlusPlus,
    parallelism: Parallelism,
) -> Result<HardwareEvaluation> {
    if weights.rows() != mapping.logical_rows() {
        return Err(CoreError::InvalidParameter {
            name: "mapping",
            requirement: "logical row count must match the weight matrix",
        });
    }
    let compiler = env.compiler().with_calibration(&test.mean_input());
    evaluate_draws(rng, mc_draws, parallelism, |draw_rng| {
        // Compile once per fabrication draw, then batch-infer the test
        // set through the frozen read path.
        let model = compiler.request(weights, mapping).compile_with(draw_rng)?;
        score_model(&model, test)
    })
}

/// The Monte-Carlo harness behind every [`HardwareEvaluation`]: scores
/// `mc_draws` chips with `score_draw`, each on its own stream pre-split
/// from `rng` by [`run_trials`], and averages them. Rejects zero draws;
/// when several draws fail, returns the error of the earliest (by draw
/// index), independent of scheduling.
pub(crate) fn evaluate_draws(
    rng: &mut Xoshiro256PlusPlus,
    mc_draws: usize,
    parallelism: Parallelism,
    score_draw: impl Fn(&mut Xoshiro256PlusPlus) -> Result<f64> + Sync,
) -> Result<HardwareEvaluation> {
    if mc_draws == 0 {
        return Err(CoreError::InvalidParameter {
            name: "mc_draws",
            requirement: "must be positive",
        });
    }
    let _span = vortex_obs::span!("pipeline.evaluate_seconds");
    vortex_obs::counter!("pipeline.evaluations").incr();
    vortex_obs::counter!("pipeline.draws").add(mc_draws as u64);
    let per_draw = run_trials(rng, mc_draws, parallelism, |_, draw_rng| {
        score_draw(draw_rng)
    })
    .into_iter()
    .collect::<Result<Vec<f64>>>()?;
    let mean_test_rate = per_draw.iter().sum::<f64>() / per_draw.len() as f64;
    Ok(HardwareEvaluation {
        mean_test_rate,
        per_draw,
    })
}

/// The compile path from trained weights to a servable [`CompiledModel`],
/// as a builder: fabricate → program → freeze, on one [`HardwareEnv`].
///
/// Obtained from [`HardwareEnv::compiler`]. The builder owns its
/// substrate (a `Copy` of the env) and the optional IR-drop calibration
/// input, so the pipeline stages — [`program`](Self::program),
/// [`freeze`](Self::freeze), and the one-shot [`request`](Self::request)
/// — need only the per-model arguments. Every stage programs through the
/// same open-loop step as the phase functions in [`crate::vortex`], so a
/// seed compiled here and through `fabricate_pair → program_mapped →
/// freeze` gives the same model.
///
/// ```no_run
/// # use vortex_core::pipeline::HardwareEnv;
/// # use vortex_core::amp::greedy::RowMapping;
/// # use vortex_linalg::{Matrix, Xoshiro256PlusPlus};
/// # fn demo(weights: &Matrix, mapping: &RowMapping, calibration: &[f64],
/// #         rng: &mut Xoshiro256PlusPlus) -> vortex_core::Result<()> {
/// let env = HardwareEnv::ideal().with_ir_drop(4.0);
/// let model = env
///     .compiler()
///     .with_calibration(calibration)
///     .request(weights, mapping)
///     .compile_with(rng)?;
/// # let _ = model; Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct ModelCompiler {
    env: HardwareEnv,
    calibration: Option<Vec<f64>>,
}

impl HardwareEnv {
    /// A [`ModelCompiler`] over this substrate.
    pub fn compiler(&self) -> ModelCompiler {
        ModelCompiler::new(*self)
    }
}

impl ModelCompiler {
    /// A compiler over `env`, with no calibration input yet.
    pub fn new(env: HardwareEnv) -> Self {
        Self {
            env,
            calibration: None,
        }
    }

    /// Sets the logical-space reference input used for IR-drop
    /// calibration (conventionally the mean test input). Every compile
    /// also routes it into the per-row sensitivity the encoding step
    /// reads, so its length must match the mapping's logical row count at
    /// every fidelity.
    pub fn with_calibration(mut self, calibration: &[f64]) -> Self {
        self.calibration = Some(calibration.to_vec());
        self
    }

    /// The substrate this compiler programs onto.
    pub fn env(&self) -> &HardwareEnv {
        &self.env
    }

    /// Starts a [`CompileRequest`] for `weights` under `mapping`: the
    /// compile path from trained weights to a servable [`CompiledModel`]
    /// (fabricate → program → freeze), carrying encoding, seed, canary
    /// and parallelism choices.
    pub fn request<'a>(
        &'a self,
        weights: &'a Matrix,
        mapping: &'a RowMapping,
    ) -> CompileRequest<'a> {
        CompileRequest {
            compiler: self,
            weights,
            mapping,
            encoding: EncodingSpec::DifferentialPair,
            seed: None,
            canary_inputs: None,
            parallelism: Parallelism::Serial,
        }
    }

    /// Fabricates a pair and open-loop programs `weights` through
    /// `mapping` (the physical array has `mapping.physical_rows()` rows).
    ///
    /// # Errors
    ///
    /// Propagates fabrication and programming errors.
    pub fn program(
        &self,
        weights: &Matrix,
        mapping: &RowMapping,
        rng: &mut Xoshiro256PlusPlus,
    ) -> Result<DifferentialPair> {
        let mut pair = fabricate_pair(weights.cols(), mapping.physical_rows(), &self.env, rng)?;
        let spec = EncodingSpec::DifferentialPair;
        self.program_into(&mut pair, weights, mapping, spec, None, rng)?;
        Ok(pair)
    }

    /// The one open-loop programming step behind every compile route
    /// ([`CompileRequest`], [`Self::program`] and the phase functions in
    /// [`crate::vortex`]):
    ///
    /// 1. route `weights` onto the physical rows of `mapping`, and the
    ///    calibration input (if set) into a per-physical-row AMP
    ///    sensitivity `|x̄·w|`;
    /// 2. encode them into per-crossbar targets with
    ///    [`EncodingSpec::encode`];
    /// 3. on a 1T-1R substrate, NEAT-style pre-distortion — program the
    ///    conductance that reads as the desired one through the access
    ///    transistor;
    /// 4. optional pre-test compensation, so the device lands on
    ///    `program_target(g)/e^θ̂`;
    /// 5. the programming-path IR-drop map (and its pulse-width
    ///    compensation, when enabled);
    /// 6. the V/2 protocol on the positive crossbar, then the negative one.
    ///
    /// Returns the encoding table the targets were written under.
    pub(crate) fn program_into(
        &self,
        pair: &mut DifferentialPair,
        weights: &Matrix,
        mapping: &RowMapping,
        spec: EncodingSpec,
        pretest_mults: Option<(&Matrix, &Matrix)>,
        rng: &mut Xoshiro256PlusPlus,
    ) -> Result<EncodingTable> {
        let env = &self.env;
        let physical_weights = mapping.apply_to_rows(weights, 0.0);
        let sensitivity = match self.calibration.as_deref() {
            None => None,
            Some(cal) if cal.len() != mapping.logical_rows() => {
                return Err(CoreError::InvalidParameter {
                    name: "calibration",
                    requirement: "length must match the logical row count",
                })
            }
            Some(cal) => {
                let mut mean_abs = vec![0.0; physical_weights.rows()];
                for (p, &q) in mapping.assignment().iter().enumerate() {
                    mean_abs[q] = cal[p].abs();
                }
                Some(row_sensitivity(&physical_weights, &mean_abs))
            }
        };
        let EncodedTargets {
            pos: mut targets_pos,
            neg: mut targets_neg,
            table,
        } = spec
            .encode(&physical_weights, pair.mapping(), sensitivity.as_deref())
            .map_err(CoreError::Xbar)?;
        if !env.cell.is_one_r() {
            let (g_min, g_max) = (pair.mapping().g_min(), pair.mapping().g_max());
            let cell = env.cell;
            targets_pos.map_inplace(|g| cell.program_target(g, g_min, g_max));
            targets_neg.map_inplace(|g| cell.program_target(g, g_min, g_max));
        }
        if let Some((mp, mn)) = pretest_mults {
            targets_pos = compensate_targets(&targets_pos, mp, &env.device);
            targets_neg = compensate_targets(&targets_neg, mn, &env.device);
        }
        let program =
            |xbar: &mut Crossbar, targets: &Matrix, rng: &mut Xoshiro256PlusPlus| -> Result<()> {
                let actual = if env.program_irdrop && env.r_wire > 0.0 {
                    Some(
                        ProgramVoltageMap::analytic(targets, env.r_wire, env.device.v_program())
                            .map_err(CoreError::Xbar)?,
                    )
                } else {
                    None
                };
                let options = ProgramOptions {
                    compensation: if env.compensate_program_irdrop {
                        actual.clone()
                    } else {
                        None
                    },
                    half_select_disturb: false,
                };
                program_with_protocol(xbar, targets, actual.as_ref(), &options, rng)
                    .map_err(CoreError::Xbar)
            };
        program(pair.pos_mut(), &targets_pos, rng)?;
        program(pair.neg_mut(), &targets_neg, rng)?;
        Ok(table)
    }

    /// Freezes a programmed pair into an immutable [`CompiledModel`]
    /// under the substrate's read path, using the calibration input set
    /// via [`with_calibration`](Self::with_calibration) (if any).
    ///
    /// # Errors
    ///
    /// Propagates calibration and configuration errors.
    pub fn freeze(&self, pair: &DifferentialPair, mapping: &RowMapping) -> Result<CompiledModel> {
        self.freeze_with_table(pair, mapping, EncodingTable::differential(pair.rows()))
    }

    /// [`Self::freeze`] carrying the encoding table the programming step
    /// produced. On a 1T-1R substrate the frozen conductances are mapped
    /// through the access transistor here, so the compiled read path —
    /// and its calibration — see what the sense amplifiers would.
    pub(crate) fn freeze_with_table(
        &self,
        pair: &DifferentialPair,
        mapping: &RowMapping,
        table: EncodingTable,
    ) -> Result<CompiledModel> {
        let options = self.env.read_options(pair.rows())?;
        let mut state = pair.freeze();
        if !self.env.cell.is_one_r() {
            let cell = self.env.cell;
            state.g_pos.map_inplace(|g| cell.effective_conductance(g));
            state.g_neg.map_inplace(|g| cell.effective_conductance(g));
        }
        CompiledModel::compile(
            &state,
            mapping.assignment(),
            &options,
            self.calibration.as_deref(),
            table,
        )
        .map_err(CoreError::Runtime)
    }
}

/// A single compile invocation, built fluently from
/// [`ModelCompiler::request`]: weights + routing + encoding, seed, canary
/// and parallelism choices.
///
/// This is the one way to compile trained weights into a servable model:
/// from an external RNG stream ([`compile_with`](Self::compile_with)),
/// from a bare variation seed ([`compile`](Self::compile)), or as seeded
/// replicas ([`compile_replicas`](Self::compile_replicas)).
///
/// # Example
///
/// ```no_run
/// # use vortex_core::pipeline::HardwareEnv;
/// # use vortex_core::amp::greedy::RowMapping;
/// # use vortex_linalg::Matrix;
/// # use vortex_xbar::encoding::EncodingSpec;
/// # fn demo(weights: &Matrix, mapping: &RowMapping,
/// #         calibration: &[f64]) -> vortex_core::Result<()> {
/// let env = HardwareEnv::with_sigma(0.3)?;
/// let compiler = env.compiler().with_calibration(calibration);
/// let model = compiler
///     .request(weights, mapping)
///     .encoding(EncodingSpec::AdaptiveRowQuant {
///         low_bits: 2,
///         high_bits: 6,
///         fine_fraction: 0.5,
///     })
///     .seed(42)
///     .compile()?;
/// # let _ = model; Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct CompileRequest<'a> {
    compiler: &'a ModelCompiler,
    weights: &'a Matrix,
    mapping: &'a RowMapping,
    encoding: EncodingSpec,
    seed: Option<u64>,
    canary_inputs: Option<Vec<Vec<f64>>>,
    parallelism: Parallelism,
}

impl CompileRequest<'_> {
    /// Sets the weight→conductance encoding (default: the
    /// paper's continuous differential pair).
    pub fn encoding(mut self, spec: EncodingSpec) -> Self {
        self.encoding = spec;
        self
    }

    /// Sets the variation seed. Required by [`Self::compile`] and
    /// [`Self::compile_replicas`] (as the replica base seed); unused by
    /// [`Self::compile_with`], which takes an external stream.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = Some(seed);
        self
    }

    /// Freezes `inputs` as the compiled model's canary probe set right
    /// after compilation (see `CompiledModel::with_canary_inputs`).
    pub fn canary_inputs(mut self, inputs: Vec<Vec<f64>>) -> Self {
        self.canary_inputs = Some(inputs);
        self
    }

    /// Sets the fan-out for [`Self::compile_replicas`]. Defaults to
    /// [`Parallelism::Serial`]; any setting produces bit-identical models
    /// because every replica's RNG stream is derived from its own seed.
    pub fn parallelism(mut self, parallelism: Parallelism) -> Self {
        self.parallelism = parallelism;
        self
    }

    /// Compiles with an external RNG stream (the Monte-Carlo harness
    /// path); the request's seed is ignored here.
    ///
    /// # Errors
    ///
    /// Propagates fabrication, programming, calibration and canary
    /// errors.
    pub fn compile_with(&self, rng: &mut Xoshiro256PlusPlus) -> Result<CompiledModel> {
        let _span = vortex_obs::span!("pipeline.compile_seconds");
        let (compiler, weights, mapping) = (self.compiler, self.weights, self.mapping);
        let mut pair = fabricate_pair(weights.cols(), mapping.physical_rows(), &compiler.env, rng)?;
        let table = compiler.program_into(&mut pair, weights, mapping, self.encoding, None, rng)?;
        let model = compiler.freeze_with_table(&pair, mapping, table)?;
        match &self.canary_inputs {
            Some(inputs) => model
                .with_canary_inputs(inputs.clone())
                .map_err(CoreError::Runtime),
            None => Ok(model),
        }
    }

    /// Compiles from the request's seed alone — one seed, one simulated chip,
    /// bit-reproducible.
    ///
    /// # Errors
    ///
    /// [`CoreError::InvalidParameter`] when no seed was set; otherwise
    /// see [`Self::compile_with`].
    pub fn compile(&self) -> Result<CompiledModel> {
        let mut rng = Xoshiro256PlusPlus::seed_from_u64(self.require_seed()?);
        self.compile_with(&mut rng)
    }

    /// Compiles `n` replicas from seeds pre-split off the request's seed,
    /// fanning out over its parallelism (results are in replica
    /// order and bit-identical at any setting). Returns `(seed, model)`
    /// pairs.
    ///
    /// # Errors
    ///
    /// [`CoreError::InvalidParameter`] when no seed was set; the first
    /// failing replica (by replica index) aborts the batch.
    pub fn compile_replicas(&self, n: usize) -> Result<Vec<(u64, CompiledModel)>> {
        let mut stream = SplitMix64::new(self.require_seed()?);
        let seeds: Vec<u64> = (0..n).map(|_| stream.next_u64()).collect();
        let compile_one = |i: usize| -> Result<(u64, CompiledModel)> {
            let mut rng = Xoshiro256PlusPlus::seed_from_u64(seeds[i]);
            Ok((seeds[i], self.compile_with(&mut rng)?))
        };
        let workers = self.parallelism.resolve().min(n);
        if workers <= 1 {
            return (0..n).map(compile_one).collect();
        }
        WorkerPool::global()
            .run_indexed(n, workers, compile_one)
            .into_iter()
            .collect()
    }

    fn require_seed(&self) -> Result<u64> {
        self.seed.ok_or(CoreError::InvalidParameter {
            name: "seed",
            requirement: "set a seed on the request (or use compile_with an external rng)",
        })
    }
}

/// Scores a compiled model on `test` (serial batched inference).
pub(crate) fn score_model(model: &CompiledModel, test: &Dataset) -> Result<f64> {
    let _span = vortex_obs::span!("pipeline.score_seconds");
    model.accuracy(test).map_err(|e| match e {
        // Shape problems are caller bugs and surface as such; read-path
        // failures keep the historical error shape of this harness.
        vortex_runtime::RuntimeError::InvalidParameter { .. } => CoreError::Runtime(e),
        _ => CoreError::InvalidParameter {
            name: "readout",
            requirement: "hardware read failed during scoring",
        },
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::amp::greedy::RowMapping;
    use vortex_nn::dataset::{DatasetConfig, SynthDigits};
    use vortex_nn::gdt::GdtTrainer;
    use vortex_nn::metrics::accuracy_of_weights;

    fn rng() -> Xoshiro256PlusPlus {
        Xoshiro256PlusPlus::seed_from_u64(123)
    }

    fn small_setup() -> (Dataset, Matrix) {
        let data = SynthDigits::generate(&DatasetConfig::tiny(), 7).unwrap();
        let w = GdtTrainer {
            epochs: 10,
            ..Default::default()
        }
        .train(&data)
        .unwrap();
        (data, w)
    }

    #[test]
    fn ideal_hardware_matches_software_accuracy() {
        let (data, w) = small_setup();
        let env = HardwareEnv::ideal();
        let mapping = RowMapping::identity(w.rows());
        let eval = evaluate_hardware(&w, &mapping, &env, &data, 1, &mut rng()).unwrap();
        let software = accuracy_of_weights(&w, &data);
        assert!(
            (eval.mean_test_rate - software).abs() < 0.05,
            "hardware {} vs software {}",
            eval.mean_test_rate,
            software
        );
    }

    #[test]
    fn variation_degrades_test_rate() {
        let (data, w) = small_setup();
        let mapping = RowMapping::identity(w.rows());
        let ideal =
            evaluate_hardware(&w, &mapping, &HardwareEnv::ideal(), &data, 1, &mut rng()).unwrap();
        let noisy = evaluate_hardware(
            &w,
            &mapping,
            &HardwareEnv::with_sigma(1.2).unwrap(),
            &data,
            3,
            &mut rng(),
        )
        .unwrap();
        assert!(
            noisy.mean_test_rate < ideal.mean_test_rate,
            "σ=1.2 {} vs ideal {}",
            noisy.mean_test_rate,
            ideal.mean_test_rate
        );
    }

    #[test]
    fn evaluation_is_deterministic_per_seed() {
        let (data, w) = small_setup();
        let env = HardwareEnv::with_sigma(0.6).unwrap();
        let mapping = RowMapping::identity(w.rows());
        let a = evaluate_hardware(&w, &mapping, &env, &data, 2, &mut rng()).unwrap();
        let b = evaluate_hardware(&w, &mapping, &env, &data, 2, &mut rng()).unwrap();
        assert_eq!(a.per_draw, b.per_draw);
    }

    #[test]
    fn mc_draws_validated() {
        let (data, w) = small_setup();
        let env = HardwareEnv::ideal();
        let mapping = RowMapping::identity(w.rows());
        assert!(evaluate_hardware(&w, &mapping, &env, &data, 0, &mut rng()).is_err());
        let bad_mapping = RowMapping::identity(w.rows() + 1);
        assert!(evaluate_hardware(&w, &bad_mapping, &env, &data, 1, &mut rng()).is_err());
    }

    #[test]
    fn coarse_adc_hurts() {
        let (data, w) = small_setup();
        let mapping = RowMapping::identity(w.rows());
        let mut env = HardwareEnv::ideal();
        env.adc_bits = Some(2);
        let coarse = evaluate_hardware(&w, &mapping, &env, &data, 1, &mut rng()).unwrap();
        env.adc_bits = None;
        let clean = evaluate_hardware(&w, &mapping, &env, &data, 1, &mut rng()).unwrap();
        assert!(
            coarse.mean_test_rate <= clean.mean_test_rate + 1e-9,
            "2-bit {} vs ideal {}",
            coarse.mean_test_rate,
            clean.mean_test_rate
        );
    }

    #[test]
    fn coarse_input_dac_degrades_gracefully() {
        let (data, w) = small_setup();
        let mapping = RowMapping::identity(w.rows());
        let mut env = HardwareEnv::ideal();
        env.dac_bits = Some(1); // binary input drivers
        let coarse = evaluate_hardware(&w, &mapping, &env, &data, 1, &mut rng()).unwrap();
        env.dac_bits = Some(8);
        let fine = evaluate_hardware(&w, &mapping, &env, &data, 1, &mut rng()).unwrap();
        env.dac_bits = None;
        let ideal = evaluate_hardware(&w, &mapping, &env, &data, 1, &mut rng()).unwrap();
        assert!(fine.mean_test_rate >= coarse.mean_test_rate - 0.05);
        assert!((fine.mean_test_rate - ideal.mean_test_rate).abs() < 0.05);
        // Even 1-bit inputs keep the classifier well above chance.
        assert!(
            coarse.mean_test_rate > 0.3,
            "1-bit inputs: {}",
            coarse.mean_test_rate
        );
    }

    #[test]
    fn fast_ir_drop_read_path_works() {
        // Read-path IR-drop alone (no programming degradation): smooth
        // attenuation mostly preserves argmax.
        let (data, w) = small_setup();
        let mapping = RowMapping::identity(w.rows());
        let mut env = HardwareEnv::ideal();
        env.r_wire = 5.0;
        env.read_fidelity = ReadFidelity::FastIrDrop;
        let eval = evaluate_hardware(&w, &mapping, &env, &data, 1, &mut rng()).unwrap();
        assert!(
            eval.mean_test_rate > 0.5,
            "test rate {}",
            eval.mean_test_rate
        );
    }

    #[test]
    fn staged_compile_matches_the_one_shot_builder() {
        let (data, w) = small_setup();
        let mapping = RowMapping::identity(w.rows());
        let env = HardwareEnv::with_sigma(0.4).unwrap().with_ir_drop(4.0);
        let calibration = data.mean_input();

        let one_shot = env
            .compiler()
            .with_calibration(&calibration)
            .request(&w, &mapping)
            .compile_with(&mut rng())
            .unwrap();
        // program → freeze staged through the same builder must produce
        // the same frozen read, sample for sample: same seed, same
        // substrate, same calibration fold.
        let compiler = env.compiler().with_calibration(&calibration);
        let pair = compiler.program(&w, &mapping, &mut rng()).unwrap();
        let staged = compiler.freeze(&pair, &mapping).unwrap();
        for k in 0..data.len() {
            let x = data.image(k);
            assert_eq!(
                staged.scores(x).unwrap(),
                one_shot.scores(x).unwrap(),
                "sample {k} diverged between staged and one-shot compiles"
            );
        }
    }

    #[test]
    fn uncompensated_program_ir_drop_is_destructive_and_compensation_recovers() {
        let (data, w) = small_setup();
        let mapping = RowMapping::identity(w.rows());
        let uncomp = HardwareEnv::ideal().with_ir_drop(5.0);
        let mut comp = uncomp;
        comp.compensate_program_irdrop = true;
        let bad = evaluate_hardware(&w, &mapping, &uncomp, &data, 1, &mut rng()).unwrap();
        let good = evaluate_hardware(&w, &mapping, &comp, &data, 1, &mut rng()).unwrap();
        assert!(
            good.mean_test_rate > bad.mean_test_rate,
            "compensation {} must beat uncompensated {}",
            good.mean_test_rate,
            bad.mean_test_rate
        );
    }
}
