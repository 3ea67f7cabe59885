//! End-to-end and per-layer benchmark of the Vortex workspace.
//!
//! `vortex-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//! runs one workload and prints, as the last line of standard output, one
//! JSON object `{"correct", "attempted", "failed", "metrics"}`. With
//! `--trace 0` the metrics are the end-to-end set ([`END_TO_END`]); with
//! `--trace 1` the run is repeated with the benchmark's own clocks around
//! every call into a layer, and the metrics are the per-layer set
//! ([`PER_LAYER`]). A human-readable summary goes to standard error.
//!
//! See `perfbench/README.md` for why each workload exists and which
//! end-to-end metric each per-layer metric should move.

mod offline;
mod openloop;
mod probes;
mod report;
mod serving;
mod setup;
mod trace;
mod train_serve;

use std::path::PathBuf;

use report::Report;

/// End-to-end metrics: reported by every workload, untraced.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("ops_per_s", "1/s"),
    ("slo_share", "fraction"),
    ("accuracy", "fraction"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics: reported by the traced run. A layer that a
/// workload never calls reports 0 (see the README's layer map).
pub const PER_LAYER: &[(&str, &str)] = &[
    ("core.tune_s", "s"),
    ("core.fabricate_ms", "ms"),
    ("core.pretest_plan_ms", "ms"),
    ("core.program_ms", "ms"),
    ("core.score_ms", "ms"),
    ("runtime.freeze_ms", "ms"),
    ("runtime.read_us_per_sample", "us"),
    ("runtime.fast_fallback_share", "fraction"),
    ("runtime.exact_read_ms", "ms"),
    ("serve.batch_size_mean", "count"),
    ("serve.sched_ms_p50", "ms"),
    ("serve.submit_us_p50", "us"),
    ("serve.downgraded_share", "fraction"),
    ("serve.capacity_rps", "1/s"),
    ("fleet.submit_us_p50", "us"),
    ("fleet.replica_share_max", "fraction"),
    ("nn.pool_wake_us_p50", "us"),
    ("nn.fanout_efficiency", "fraction"),
    ("train.epoch_ms", "ms"),
    ("train.checkpoint_ms", "ms"),
    ("train.epochs_per_s", "1/s"),
    ("train.yields", "count"),
    ("bench.latency_p99_ms", "ms"),
    ("bench.error_share", "fraction"),
    ("bench.generator_late_p99_ms", "ms"),
    ("bench.host_steal_share", "fraction"),
    ("bench.trace_overhead_ratio", "ratio"),
];

/// The workloads, in `BENCHMARK.json` order.
const WORKLOADS: &[&str] = &[
    "vortex_offline",
    "serve_calibrated",
    "serve_exact",
    "train_serve",
];

/// One invocation's settings.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Scratch directory inside the checkout (checkpoints, span files).
    pub work_dir: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut work_dir = PathBuf::from(".bench_build/perfbench-work");
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0 && s <= 120.0) {
                    return Err("--seconds must lie in (0, 120]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            "--work-dir" => work_dir = PathBuf::from(value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload}; expected one of {WORKLOADS:?}"
        ));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        work_dir,
    })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("vortex-perfbench: {e}");
            std::process::exit(2);
        }
    };
    // The process-wide pool backs `VortexPipeline::run`'s Monte-Carlo
    // fan-out. Left alone it holds at least 8 threads; size it so the
    // pool threads plus the calling thread match the cores. Set before
    // any thread exists, so no other thread can read the environment.
    std::env::set_var(
        vortex_nn::pool::POOL_THREADS_ENV_VAR,
        (probes::nproc().saturating_sub(1)).max(1).to_string(),
    );
    let run_dir = args
        .work_dir
        .join(format!("{}-{}", args.workload, std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&run_dir) {
        eprintln!("vortex-perfbench: cannot create {}: {e}", run_dir.display());
        std::process::exit(2);
    }
    let report: Report = match args.workload.as_str() {
        "vortex_offline" => offline::run(&args, &run_dir),
        "serve_calibrated" => serving::run_calibrated(&args, &run_dir),
        "serve_exact" => serving::run_exact(&args, &run_dir),
        "train_serve" => train_serve::run(&args, &run_dir),
        _ => unreachable!("validated in parse_args"),
    };
    // Checkpoints are scratch; a traced run's span file stays for
    // inspection, and an untraced run leaves nothing behind.
    let _ = std::fs::remove_dir_all(run_dir.join("ckpt"));
    let _ = std::fs::remove_dir(&run_dir);
    eprint!("{}", report.summary(&args));
    println!("{}", report.to_json(args.trace));
}
