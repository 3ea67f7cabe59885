//! `vortex_offline`: closed loop, one client; one op is one full
//! `VortexPipeline::run` (VAT self-tune, then per chip: fabricate,
//! pre-test + AMP plan, program, freeze, score) with a fresh chip seed.
//!
//! The traced run calls the same phase functions itself, on the same
//! pre-split per-draw streams (`run_trials`), and must reproduce every
//! op's `per_draw` bit for bit — proof that the decomposition measured
//! the same work.

use std::path::Path;
use std::time::Instant;

use vortex_core::amp::sensitivity;
use vortex_core::pipeline::HardwareEnv;
use vortex_core::tuning::SelfTuner;
use vortex_core::vortex::{
    fabricate_pair, pretest_and_plan, program_mapped, AmpChipOptions, VortexConfig, VortexPipeline,
};
use vortex_linalg::rng::Xoshiro256PlusPlus;
use vortex_nn::dataset::Dataset;
use vortex_nn::executor::{run_trials, Parallelism};
use vortex_nn::metrics::accuracy_of_weights;
use vortex_nn::pool::WorkerPool;

use crate::probes::{self, median, quantile, CpuTimes};
use crate::report::Report;
use crate::serving::FallbackMeter;
use crate::setup::{self, sub_seed, CHIP_SEED};
use crate::trace::Tracer;
use crate::Args;

/// Planned op rate; a run makes `seconds × OPS_PER_S` ops.
const OPS_PER_S: f64 = 1.1;
/// Latency limit for `slo_share`: about 3× the op time this workload
/// was sized at (0.88 s on 2 cores).
const SLO_S: f64 = 2.5;
/// Sanity floor on an op's hardware test rate (chance is 0.1).
const MIN_TEST_RATE: f64 = 0.3;
/// Monte-Carlo chips per op.
const MC_DRAWS: usize = 5;

fn config(workers: usize) -> VortexConfig {
    VortexConfig {
        redundant_rows: setup::REDUNDANT_ROWS,
        mc_draws: MC_DRAWS,
        parallelism: Parallelism::Fixed(workers),
        tuner: SelfTuner {
            parallelism: Parallelism::Fixed(workers),
            ..SelfTuner::default()
        },
        ..VortexConfig::default()
    }
}

/// The chip stream of op `k`: every op fabricates new chips.
fn chip_rng(seed: u64, k: usize) -> Xoshiro256PlusPlus {
    Xoshiro256PlusPlus::seed_from_u64(sub_seed(seed, CHIP_SEED) ^ k as u64)
}

struct Inputs {
    train: Dataset,
    test: Dataset,
    env: HardwareEnv,
    pipeline: VortexPipeline,
    /// `per_draw` of the warm-up op, which uses op 0's chip seed.
    warm_per_draw: Vec<f64>,
}

struct Op {
    latency_s: f64,
    /// Host steal share of all CPUs while the op ran.
    steal: f64,
    /// Time from the previous op's return to this op's start.
    gap_s: f64,
    per_draw: Vec<f64>,
    test_rate: f64,
}

pub fn run(args: &Args, run_dir: &Path) -> Report {
    let workers = probes::nproc();
    let (inputs, setup_s) = setup::timed_setups(|| {
        let (train, test) = setup::dataset(14);
        let env = setup::env();
        let pipeline = VortexPipeline::new(config(workers));
        WorkerPool::global();
        let warm = pipeline
            .run(&train, &test, &env, &mut chip_rng(args.seed, 0))
            .expect("warm-up op");
        Inputs {
            train,
            test,
            env,
            pipeline,
            warm_per_draw: warm.per_draw,
        }
    });
    let n_ops = ((args.seconds * OPS_PER_S).round() as usize).max(2);
    let mut report = Report {
        correct: true,
        attempted: n_ops as u64,
        ..Report::default()
    };

    let cpu0 = CpuTimes::of(None);
    let ops = measure(n_ops, |k| {
        inputs
            .pipeline
            .run(
                &inputs.train,
                &inputs.test,
                &inputs.env,
                &mut chip_rng(args.seed, k),
            )
            .map(|o| (o.per_draw, o.rates.test_rate))
            .map_err(|e| e.to_string())
    });
    let steal = cpu0.steal_share_until(&CpuTimes::of(None));
    check_ops(&ops, &inputs, &mut report);
    let ok: Vec<&Op> = ops.iter().filter_map(|o| o.as_ref().ok()).collect();
    let calm = calm_ops(&ok);
    let latencies: Vec<f64> = calm.iter().map(|o| o.latency_s * 1e3).collect();
    let accuracy = ok.iter().map(|o| o.test_rate).sum::<f64>() / n_ops as f64;
    let within_slo = ok.iter().filter(|o| o.latency_s <= SLO_S).count();
    report.failed = (n_ops - ok.len()) as u64;

    if !args.trace {
        report.set("setup_s", setup_s);
        report.set("latency_p50_ms", median(&latencies));
        report.set("latency_p90_ms", quantile(&latencies, 0.9));
        let calm_s: f64 = calm.iter().map(|o| o.latency_s + o.gap_s).sum();
        report.set("ops_per_s", calm.len() as f64 / calm_s);
        report.set("slo_share", within_slo as f64 / n_ops as f64);
        report.set("accuracy", accuracy);
        report.set("peak_rss_mb", probes::peak_rss_mb());
        let gaps: Vec<f64> = ok.iter().map(|o| o.gap_s * 1e3).collect();
        report.notes.push(format!(
            "host steal share {steal:.4}, generator late p99 {:.4} ms",
            quantile(&gaps, 0.99)
        ));
        return report;
    }

    // Traced run: the same ops again, decomposed into phase calls.
    let tracer = Tracer::new();
    let meter = FallbackMeter::start();
    let cpu0 = CpuTimes::of(None);
    let traced = measure(n_ops, |k| {
        traced_op(&inputs, &mut chip_rng(args.seed, k), &tracer, k as u64)
    });
    let steal = cpu0.steal_share_until(&CpuTimes::of(None));
    let fallback_share = meter.share();
    for (k, (plain, traced)) in ops.iter().zip(&traced).enumerate() {
        match (plain, traced) {
            (Ok(a), Ok(b)) if bits(&a.per_draw) == bits(&b.per_draw) => {}
            (Ok(_), Ok(_)) => report.fail_check(format!("op {k}: traced per_draw differs")),
            _ => report.fail_check(format!("op {k}: an op failed")),
        }
    }
    let traced_ok: Vec<&Op> = traced.iter().filter_map(|o| o.as_ref().ok()).collect();
    let traced_accuracy = traced_ok.iter().map(|o| o.test_rate).sum::<f64>() / n_ops as f64;
    if traced_accuracy.to_bits() != accuracy.to_bits() {
        report.fail_check("traced accuracy differs from the untraced run");
    }
    let traced_latencies: Vec<f64> = calm_ops(&traced_ok)
        .iter()
        .map(|o| o.latency_s * 1e3)
        .collect();

    let score_ms = tracer.durations_ms("core.score");
    // Chip spans are recorded in op order, `MC_DRAWS` per fan-out.
    let used = workers.min(MC_DRAWS) as f64;
    let efficiency: Vec<f64> = tracer
        .durations_ms("nn.fanout")
        .iter()
        .zip(tracer.durations_ms("core.chip").chunks(MC_DRAWS))
        .map(|(wall, chips)| chips.iter().sum::<f64>() / (wall * used))
        .collect();
    report.set("core.tune_s", median(&tracer.self_ms("core.tune")) / 1e3);
    setup::compile_layers(&mut report, &tracer);
    report.set("core.score_ms", median(&score_ms));
    report.set(
        "runtime.read_us_per_sample",
        median(&score_ms) * 1e3 / inputs.test.len() as f64,
    );
    report.set("runtime.fast_fallback_share", fallback_share);
    report.set("nn.fanout_efficiency", median(&efficiency));
    report.set(
        "nn.pool_wake_us_p50",
        probes::pool_wake_us_p50(WorkerPool::global(), 50),
    );
    let all_ms: Vec<f64> = traced_ok.iter().map(|o| o.latency_s * 1e3).collect();
    report.set("bench.latency_p99_ms", quantile(&all_ms, 0.99));
    report.set("bench.error_share", report.failed as f64 / n_ops as f64);
    let gaps: Vec<f64> = traced_ok.iter().map(|o| o.gap_s * 1e3).collect();
    report.set("bench.generator_late_p99_ms", quantile(&gaps, 0.99));
    report.set("bench.host_steal_share", steal);
    report.set(
        "bench.trace_overhead_ratio",
        median(&traced_latencies) / median(&latencies),
    );
    if let Err(e) = tracer.write_jsonl(&run_dir.join("spans.jsonl")) {
        report.notes.push(format!("span file not written: {e}"));
    }
    report
}

/// Runs `n` ops back to back (closed loop, one client).
fn measure(
    n: usize,
    mut op: impl FnMut(usize) -> Result<(Vec<f64>, f64), String>,
) -> Vec<Result<Op, String>> {
    let mut prev_end = Instant::now();
    let mut out = Vec::with_capacity(n);
    for k in 0..n {
        let cpu0 = CpuTimes::of(None);
        let t0 = Instant::now();
        let result = op(k);
        let t1 = Instant::now();
        let steal = cpu0.steal_share_until(&CpuTimes::of(None));
        out.push(result.map(|(per_draw, test_rate)| Op {
            latency_s: (t1 - t0).as_secs_f64(),
            steal,
            gap_s: (t0 - prev_end).as_secs_f64(),
            per_draw,
            test_rate,
        }));
        prev_end = t1;
    }
    out
}

/// The calm ops: those during which the host stole no more than during
/// the median op (the serving workloads select steal windows the same
/// way).
fn calm_ops<'a>(ops: &[&'a Op]) -> Vec<&'a Op> {
    let cut = median(&ops.iter().map(|o| o.steal).collect::<Vec<_>>());
    ops.iter().copied().filter(|o| o.steal <= cut).collect()
}

fn check_ops(ops: &[Result<Op, String>], inputs: &Inputs, report: &mut Report) {
    for (k, op) in ops.iter().enumerate() {
        match op {
            Err(e) => report.fail_check(format!("op {k} failed: {e}")),
            Ok(o) => {
                let sane = o.per_draw.len() == MC_DRAWS
                    && o.per_draw.iter().all(|r| (0.0..=1.0).contains(r))
                    && o.test_rate >= MIN_TEST_RATE;
                if !sane {
                    report.fail_check(format!("op {k}: implausible rates {:?}", o.per_draw));
                }
            }
        }
    }
    // Op 0 repeats the warm-up's chips: the pipeline must be
    // deterministic run to run.
    if let Some(Ok(first)) = ops.first() {
        if bits(&first.per_draw) != bits(&inputs.warm_per_draw) {
            report.fail_check("op 0 does not reproduce the warm-up op");
        }
    }
}

fn bits(xs: &[f64]) -> Vec<u64> {
    xs.iter().map(|x| x.to_bits()).collect()
}

/// One op through the phase functions, mirroring `VortexPipeline::run`
/// for this workload's configuration (VAT on, AMP on, no re-tune).
fn traced_op(
    inputs: &Inputs,
    rng: &mut Xoshiro256PlusPlus,
    tracer: &Tracer,
    op: u64,
) -> Result<(Vec<f64>, f64), String> {
    let cfg = inputs.pipeline.config();
    assert!(cfg.use_vat && cfg.use_amp && !cfg.retune_after_amp);
    let (train, test, env) = (&inputs.train, &inputs.test, &inputs.env);
    let root = tracer.begin("vortex.op", None, op);
    let base_vat = cfg.vat.with_sigma(env.variation.sigma());
    let tuned = tracer
        .time("core.tune", Some(root), op, || {
            cfg.tuner.tune(&base_vat, train)
        })
        .map_err(|e| e.to_string())?;
    let weights = tuned.weights;
    std::hint::black_box(accuracy_of_weights(&weights, train));
    let physical_rows = weights.rows() + cfg.redundant_rows;
    let mean_abs_input = sensitivity::mean_abs_inputs(train);
    let opts = AmpChipOptions {
        pretest_bits: cfg.pretest_bits,
        pretest_repeats: cfg.pretest_repeats,
        defect_theta_threshold: cfg.defect_theta_threshold,
        redundant_rows: cfg.redundant_rows,
        pretest_compensation: false,
    };
    let calibration = test.mean_input();
    let fan = tracer.begin("nn.fanout", Some(root), op);
    let draws = run_trials(rng, cfg.mc_draws, cfg.parallelism, |_, r| {
        let chip = tracer.begin("core.chip", Some(fan), op);
        let mut pair = tracer
            .time("core.fabricate", Some(chip), op, || {
                fabricate_pair(weights.cols(), physical_rows, env, r)
            })
            .map_err(|e| e.to_string())?;
        let plan = tracer
            .time("core.pretest_plan", Some(chip), op, || {
                pretest_and_plan(&mut pair, &weights, &mean_abs_input, &opts, env, r)
            })
            .map_err(|e| e.to_string())?;
        tracer
            .time("core.program", Some(chip), op, || {
                program_mapped(&mut pair, &weights, &plan.mapping, env, r)
            })
            .map_err(|e| e.to_string())?;
        let model = tracer
            .time("runtime.freeze", Some(chip), op, || {
                env.compiler()
                    .with_calibration(&calibration)
                    .freeze(&pair, &plan.mapping)
            })
            .map_err(|e| e.to_string())?;
        let rate = tracer
            .time("core.score", Some(chip), op, || model.accuracy(test))
            .map_err(|e| e.to_string())?;
        tracer.end(chip);
        Ok::<f64, String>(rate)
    });
    tracer.end(fan);
    let per_draw = draws.into_iter().collect::<Result<Vec<f64>, String>>()?;
    let test_rate = per_draw.iter().sum::<f64>() / per_draw.len().max(1) as f64;
    tracer.end(root);
    Ok((per_draw, test_rate))
}
