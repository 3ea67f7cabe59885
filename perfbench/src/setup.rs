//! The deployment under test and the timed set-up shared by workloads.
//!
//! The deployment — data set, trained weights, served chips — is the same
//! on every run, so accuracy and per-op cost do not swing with the seed.
//! The run seed drives what the workloads feed it: request times, the
//! samples requested and their routing keys, and `vortex_offline`'s
//! Monte-Carlo chips.

use std::time::Instant;

use vortex_core::amp::sensitivity;
use vortex_core::pipeline::HardwareEnv;
use vortex_core::vat::VatTrainer;
use vortex_core::vortex::{fabricate_pair, pretest_and_plan, program_mapped, AmpChipOptions};
use vortex_linalg::rng::{SplitMix64, Xoshiro256PlusPlus};
use vortex_linalg::Matrix;
use vortex_nn::dataset::{Dataset, DatasetConfig, SynthDigits};
use vortex_nn::split::stratified_split;
use vortex_runtime::CompiledModel;

use crate::probes;
use crate::report::Report;
use crate::trace::Tracer;

/// Set-up is repeated this many times per run; `setup_s` is the median.
const SETUP_REPS: usize = 5;

/// Training and test samples (14×14 data: 600/300).
const N_TRAIN: usize = 600;
const N_TEST: usize = 300;

/// Device variation σ of every workload.
const SIGMA: f64 = 0.5;
/// The paper's wire resistance per segment, Ω.
const R_WIRE: f64 = 2.5;
/// Spare physical rows AMP may map onto (the paper's `p`).
pub const REDUNDANT_ROWS: usize = 20;

/// Independent sub-seeds of the run seed, one per purpose, so changing
/// how one input is drawn never shifts another.
pub fn sub_seed(seed: u64, purpose: u64) -> u64 {
    SplitMix64::new(seed ^ purpose.wrapping_mul(0x9E37_79B9_7F4A_7C15)).next_u64()
}

/// Seeds of the fixed deployment.
const DATA_SEED: u64 = 2015;
pub const SERVED_CHIP_SEED: u64 = 0xC41B;

/// Purposes of the run seed's sub-seeds.
pub const CHIP_SEED: u64 = 2;
pub const TRAFFIC_SEED: u64 = 3;
pub const SAMPLE_SEED: u64 = 4;
pub const TRAIN_SEED: u64 = 5;

/// Synthetic digits at `side`×`side`, split 600/300.
pub fn dataset(side: usize) -> (Dataset, Dataset) {
    let cfg = DatasetConfig {
        side,
        samples_per_class: (N_TRAIN + N_TEST) / 10 + 10,
        ..DatasetConfig::paper()
    };
    let full = SynthDigits::generate(&cfg, DATA_SEED).expect("valid dataset config");
    let mut rng = Xoshiro256PlusPlus::seed_from_u64(DATA_SEED);
    let split =
        stratified_split(&full, N_TRAIN, N_TEST, &mut rng).expect("sample counts fit the dataset");
    (split.train, split.test)
}

/// The substrate: variation σ, IR-drop at the paper's wire resistance
/// (calibrated read path unless the caller switches fidelity).
pub fn env() -> HardwareEnv {
    HardwareEnv::with_sigma(SIGMA)
        .expect("valid sigma")
        .with_ir_drop(R_WIRE)
}

/// Variation-aware weights for the served model: VAT at the default
/// penalty γ, without the self-tuning scan (that is `vortex_offline`'s
/// op).
pub fn weights(train: &Dataset) -> Matrix {
    VatTrainer::default()
        .with_sigma(SIGMA)
        .train(train)
        .expect("VAT training")
}

/// Compiles one chip the way the paper deploys it, through the core
/// phase functions: fabricate with `redundant_rows` spare rows, pre-test
/// and plan the AMP row mapping, program, then freeze into a servable
/// model (the calibration solve). Each phase is a span when tracing.
pub fn compile(
    env: &HardwareEnv,
    weights: &Matrix,
    train: &Dataset,
    test: &Dataset,
    redundant_rows: usize,
    chip_seed: u64,
    tracer: Option<&Tracer>,
) -> CompiledModel {
    let opts = AmpChipOptions {
        redundant_rows,
        ..AmpChipOptions::default()
    };
    let mean_abs_input = sensitivity::mean_abs_inputs(train);
    let mut rng = Xoshiro256PlusPlus::seed_from_u64(chip_seed);
    let rows = weights.rows() + redundant_rows;
    let t0 = Instant::now();
    let mut pair = fabricate_pair(weights.cols(), rows, env, &mut rng).expect("fabrication");
    let t1 = Instant::now();
    let plan = pretest_and_plan(&mut pair, weights, &mean_abs_input, &opts, env, &mut rng)
        .expect("pre-test and AMP plan");
    let t2 = Instant::now();
    program_mapped(&mut pair, weights, &plan.mapping, env, &mut rng).expect("programming");
    let t3 = Instant::now();
    let model = env
        .compiler()
        .with_calibration(&test.mean_input())
        .freeze(&pair, &plan.mapping)
        .expect("freeze");
    if let Some(t) = tracer {
        t.record("core.fabricate", t0, t1, None, 0);
        t.record("core.pretest_plan", t1, t2, None, 0);
        t.record("core.program", t2, t3, None, 0);
        t.record("runtime.freeze", t3, Instant::now(), None, 0);
    }
    model
}

/// Per-layer medians of the compile-phase spans [`compile`] recorded.
pub fn compile_layers(report: &mut Report, tracer: &Tracer) {
    for (metric, span) in [
        ("core.fabricate_ms", "core.fabricate"),
        ("core.pretest_plan_ms", "core.pretest_plan"),
        ("core.program_ms", "core.program"),
        ("runtime.freeze_ms", "runtime.freeze"),
    ] {
        report.set(metric, probes::median(&tracer.durations_ms(span)));
    }
}

/// Runs `build` [`SETUP_REPS`] times, keeping the last result, and
/// returns it with the median duration in seconds. Earlier instances are
/// dropped (pools joined, schedulers shut down) before the next starts.
pub fn timed_setups<T>(mut build: impl FnMut() -> T) -> (T, f64) {
    let mut durations = Vec::with_capacity(SETUP_REPS);
    let mut last = None;
    for _ in 0..SETUP_REPS {
        drop(last.take());
        let t0 = Instant::now();
        let built = build();
        durations.push(t0.elapsed().as_secs_f64());
        last = Some(built);
    }
    (
        last.expect("at least one set-up"),
        probes::median(&durations),
    )
}
