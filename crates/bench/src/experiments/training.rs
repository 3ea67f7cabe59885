//! Training co-residency — crash-recovery exactness and the inference
//! tail next to a co-resident training job (robustness extension).
//!
//! Two measurements, both bit-deterministic:
//!
//! * **Crash recovery** — two *real* [`TrainingJob`] runs at the same
//!   seed on explicit fixed-size worker pools: one undisturbed, one
//!   battered by a seeded chaos plan (mini-epoch kills plus bit flips in
//!   the newest checkpoint). The determinism contract says the battered
//!   job must recover onto **exactly** the clean run's trajectory, so
//!   the test-set accuracy delta `training_recovery_delta_pp` is pinned
//!   **exactly 0** by `bench/baseline_training.json` — any recovery
//!   drift, however small, fails CI outright.
//! * **Tail under co-residency** — a virtual-time discrete-event
//!   simulation of one shared worker: seeded Poisson inference arrivals
//!   (70% load) contend with training mini-epochs under the job
//!   engine's high/low-water yield discipline, against two controls
//!   (inference alone; a greedy trainer that never yields). The gated
//!   ceiling `training_p99_inflation_x` caps the p99 inflation the
//!   *yielding* trainer may impose over inference running alone; the
//!   greedy row documents what the priority class is buying. No wall
//!   clock anywhere — every number in the payload is a pure function of
//!   the seeds, so `BENCH_training.json` is bit-identical at any
//!   `VORTEX_MC_THREADS` / `VORTEX_POOL_THREADS` setting.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use vortex_core::pipeline::HardwareEnv;
use vortex_core::report::{fixed, Table};
use vortex_linalg::stats::percentile;
use vortex_nn::dataset::Dataset;
use vortex_nn::metrics::accuracy_of_weights;
use vortex_nn::pool::WorkerPool;
use vortex_serve::chaos::{ChaosConfig, ChaosPlan};
use vortex_serve::Hysteresis;
use vortex_train::{JobConfig, JobReport, TrainerConfig, TrainingJob};

use super::common::Scale;
use crate::traffic::{ArrivalProcess, TrafficGen};

/// Seed of the chaos plan injecting kills and checkpoint bit flips.
const CHAOS_SEED: u64 = 41;
/// Seed of both training jobs (same seed — that is the point).
const TRAIN_SEED: u64 = 21;
/// Checkpoint cadence, in mini-epochs.
const CHECKPOINT_EVERY: u64 = 3;
/// Explicit pool size of the recovery jobs: fixed here, NOT inherited
/// from `VORTEX_POOL_THREADS`, so the payload cannot depend on it.
const RECOVERY_POOL: usize = 2;

// ---- virtual-time co-residency constants (virtual seconds) ----
/// Fixed per-batch dispatch overhead.
const T_BATCH: f64 = 4.0e-4;
/// Fixed per-sample service cost.
const T_SAMPLE: f64 = 1.0e-4;
/// Micro-batch ceiling of the simulated worker.
const SIM_MAX_BATCH: usize = 16;
/// Offered inference load, arrivals/s — 70% of the worker's 8 000/s
/// ceiling (16 samples per 2 ms batch).
const RATE: f64 = 5_600.0;
/// Virtual horizon of the arrival trace.
const HORIZON: f64 = 0.5;
/// Virtual cost of one training mini-epoch.
const T_EPOCH: f64 = 3.0e-3;
/// Mini-epochs the simulated job wants to run.
const SIM_EPOCHS: usize = 40;
/// Queue depth at which the yielding trainer parks…
const HIGH_WATER: usize = 8;
/// …and the depth it waits for before taking the worker again.
const LOW_WATER: usize = 2;
/// Arrival-trace seed (independent of the scale's model seed).
const TRAFFIC_SEED: u64 = 0x7EA1;

/// Distinguishes concurrent `run()` invocations' checkpoint
/// directories (tests run experiments in parallel threads).
static RUN_COUNTER: AtomicU64 = AtomicU64::new(0);

/// One real training run of the recovery comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct RecoveryRun {
    /// Row label.
    pub label: &'static str,
    /// Mini-epochs completed.
    pub epochs: u64,
    /// Injected kills survived.
    pub kills: u64,
    /// Supervisor restarts.
    pub restarts: u32,
    /// Checkpoints rejected during recovery (corrupted slots).
    pub rejected_checkpoints: u64,
    /// Test-set accuracy of the final weights (software evaluation).
    pub accuracy: f64,
}

/// One scenario row of the virtual-time co-residency simulation.
#[derive(Debug, Clone, PartialEq)]
pub struct SimRow {
    /// Scenario label.
    pub scenario: &'static str,
    /// Inference arrivals over the horizon.
    pub arrivals: usize,
    /// Virtual time the last training mini-epoch finished (0 when the
    /// scenario runs no training).
    pub train_done_ms: f64,
    /// Median inference latency, virtual milliseconds.
    pub p50_ms: f64,
    /// 99th-percentile inference latency, virtual milliseconds.
    pub p99_ms: f64,
}

/// Result of the training experiment.
#[derive(Debug, Clone, PartialEq)]
pub struct TrainingResult {
    /// The undisturbed job.
    pub clean: RecoveryRun,
    /// The chaos-battered job (same seed, same config).
    pub recovered: RecoveryRun,
    /// `clean − recovered` test accuracy, percentage points — the
    /// exactness gate (bit-identical recovery makes this exactly 0).
    pub recovery_delta_pp: f64,
    /// Simulation rows: inference alone, yielding trainer, greedy
    /// trainer — in that order.
    pub sims: Vec<SimRow>,
}

impl TrainingResult {
    /// p99 with the *yielding* trainer over p99 alone — the gated
    /// ceiling key.
    pub fn p99_inflation_x(&self) -> f64 {
        self.sims[1].p99_ms / self.sims[0].p99_ms
    }

    /// The experiment as structured tables.
    pub fn tables(&self) -> Vec<Table> {
        let mut rec = Table::new(
            "Crash recovery at equal seed — clean vs chaos-battered".to_string(),
            &[
                "run",
                "epochs",
                "kills",
                "restarts",
                "rejected ckpts",
                "test accuracy",
            ],
        );
        for r in [&self.clean, &self.recovered] {
            rec.add_row([
                r.label.to_string(),
                r.epochs.to_string(),
                r.kills.to_string(),
                r.restarts.to_string(),
                r.rejected_checkpoints.to_string(),
                fixed(r.accuracy, 4),
            ]);
        }
        let mut sim = Table::new(
            format!(
                "Inference tail with a co-resident trainer — {:.0}/s over {:.1}s, {} x {:.0}ms epochs",
                RATE,
                HORIZON,
                SIM_EPOCHS,
                1e3 * T_EPOCH
            ),
            &[
                "scenario",
                "arrivals",
                "train done ms",
                "p50 ms",
                "p99 ms",
                "p99 x",
            ],
        );
        let alone_p99 = self.sims[0].p99_ms;
        for r in &self.sims {
            sim.add_row([
                r.scenario.to_string(),
                r.arrivals.to_string(),
                if r.train_done_ms > 0.0 {
                    fixed(r.train_done_ms, 1)
                } else {
                    "-".to_string()
                },
                fixed(r.p50_ms, 2),
                fixed(r.p99_ms, 2),
                fixed(r.p99_ms / alone_p99, 2),
            ]);
        }
        vec![rec, sim]
    }

    /// Renders the experiment as text tables plus a summary line.
    pub fn render(&self) -> String {
        let mut out = super::common::render_tables(&self.tables());
        out.push_str(&format!(
            "recovery: {} kills + {} rejected checkpoints, accuracy delta {:+.2} pp; \
             co-residency: p99 {:.2} ms alone -> {:.2} ms yielding ({:.2}x) vs {:.2} ms greedy\n",
            self.recovered.kills,
            self.recovered.rejected_checkpoints,
            self.recovery_delta_pp,
            self.sims[0].p99_ms,
            self.sims[1].p99_ms,
            self.p99_inflation_x(),
            self.sims[2].p99_ms,
        ));
        out
    }

    /// Machine-readable summary (the `BENCH_training.json` payload):
    /// flat gated fields plus the structured tables.
    pub fn to_json(&self) -> String {
        format!(
            concat!(
                "{{\"training_recovery_delta_pp\":{:.2},",
                "\"training_clean_accuracy\":{:.4},",
                "\"training_recovered_accuracy\":{:.4},",
                "\"training_epochs\":{},\"training_kills\":{},",
                "\"training_restarts\":{},\"training_rejected_checkpoints\":{},",
                "\"training_p99_inflation_x\":{:.3},",
                "\"training_p99_alone_ms\":{:.3},",
                "\"training_p99_yield_ms\":{:.3},",
                "\"training_p99_greedy_ms\":{:.3},",
                "\"tables\":{}}}"
            ),
            self.recovery_delta_pp,
            self.clean.accuracy,
            self.recovered.accuracy,
            self.recovered.epochs,
            self.recovered.kills,
            self.recovered.restarts,
            self.recovered.rejected_checkpoints,
            self.p99_inflation_x(),
            self.sims[0].p99_ms,
            self.sims[1].p99_ms,
            self.sims[2].p99_ms,
            super::common::tables_to_json(&self.tables()),
        )
    }
}

/// Replays one arrival trace through a single simulated worker shared
/// with a training job. Whenever the worker frees up, the trainer takes
/// it for one `T_EPOCH` mini-epoch unless it has parked (queue depth
/// reached [`HIGH_WATER`]; it unparks at [`LOW_WATER`] — the job
/// engine's hysteresis); otherwise the worker serves one micro-batch of
/// everything already arrived. A greedy trainer (`yields == false`)
/// never parks. Pure virtual time — no wall clock, no threads.
fn simulate(trace: &[f64], scenario: &'static str, epochs: usize, yields: bool) -> SimRow {
    let mut t = 0.0_f64;
    let mut idx = 0usize;
    let mut queue: VecDeque<f64> = VecDeque::new();
    let mut latencies: Vec<f64> = Vec::with_capacity(trace.len());
    let mut epochs_left = epochs;
    let mut band = Hysteresis::new(HIGH_WATER, LOW_WATER).expect("valid watermarks");
    let mut train_done = 0.0_f64;
    loop {
        while idx < trace.len() && trace[idx] <= t {
            queue.push_back(trace[idx]);
            idx += 1;
        }
        band.observe(queue.len());
        if epochs_left > 0 && (!yields || !band.is_degraded()) {
            t += T_EPOCH;
            epochs_left -= 1;
            if epochs_left == 0 {
                train_done = t;
            }
            continue;
        }
        if !queue.is_empty() {
            let n = queue.len().min(SIM_MAX_BATCH);
            let done = t + T_BATCH + n as f64 * T_SAMPLE;
            for _ in 0..n {
                let arrived = queue.pop_front().expect("counted above");
                latencies.push(done - arrived);
            }
            t = done;
            continue;
        }
        if idx < trace.len() {
            t = trace[idx];
            continue;
        }
        break;
    }
    latencies.sort_by(|a, b| a.partial_cmp(b).expect("finite latencies"));
    SimRow {
        scenario,
        arrivals: trace.len(),
        train_done_ms: 1e3 * train_done,
        p50_ms: 1e3 * percentile(&latencies, 50.0),
        p99_ms: 1e3 * percentile(&latencies, 99.0),
    }
}

/// Runs one real training job on an explicit fixed-size pool and
/// returns its report.
fn run_job(scale: &Scale, train: &Dataset, chaos: Option<ChaosPlan>, tag: &str) -> JobReport {
    let dir = std::env::temp_dir().join(format!(
        "vortex-bench-training-{tag}-{}-{}",
        std::process::id(),
        RUN_COUNTER.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let cfg = JobConfig {
        max_epochs: scale.epochs as u64,
        checkpoint_every: CHECKPOINT_EVERY,
        restart_base: Duration::from_millis(1),
        restart_cap: Duration::from_millis(4),
        ..JobConfig::new(
            TrainerConfig {
                seed: TRAIN_SEED,
                ..TrainerConfig::default()
            },
            &dir,
        )
    };
    let env = HardwareEnv::with_sigma(0.5).expect("valid sigma");
    let mut job = TrainingJob::new(cfg, Arc::new(train.clone()), env)
        .expect("valid job config")
        .with_pool(Arc::new(WorkerPool::new(RECOVERY_POOL)));
    if let Some(plan) = chaos {
        job = job.with_chaos(plan);
    }
    let report = job.run().expect("job inside its restart budget");
    let _ = std::fs::remove_dir_all(&dir);
    report
}

/// Runs the experiment: the clean-vs-battered recovery comparison, then
/// the virtual-time co-residency scenarios.
///
/// # Panics
///
/// Panics only on internal configuration errors (the defaults are
/// valid) or a job exceeding its restart budget (the chaos plan injects
/// fewer kills than the budget allows).
pub fn run(scale: &Scale) -> TrainingResult {
    let (train, test) = scale.dataset(7);

    let clean = run_job(scale, &train, None, "clean");
    // Kills land inside the epoch budget by construction; the bit flips
    // corrupt the newest checkpoint slot after each kill.
    let plan = ChaosPlan::generate(
        &ChaosConfig::new(CHAOS_SEED, train.num_features(), train.num_classes())
            .with_train_kills(2, scale.epochs as u64)
            .with_checkpoint_bit_flips(4),
    );
    let battered = run_job(scale, &train, Some(plan), "chaos");

    let clean = RecoveryRun {
        label: "clean",
        epochs: clean.epochs,
        kills: clean.kills,
        restarts: clean.restarts,
        rejected_checkpoints: clean.rejected_checkpoints,
        accuracy: accuracy_of_weights(&clean.weights, &test),
    };
    let recovered = RecoveryRun {
        label: "chaos-battered",
        epochs: battered.epochs,
        kills: battered.kills,
        restarts: battered.restarts,
        rejected_checkpoints: battered.rejected_checkpoints,
        accuracy: accuracy_of_weights(&battered.weights, &test),
    };
    let recovery_delta_pp = (clean.accuracy - recovered.accuracy) * 100.0;

    let trace: Vec<f64> = TrafficGen::new(ArrivalProcess::poisson(RATE), TRAFFIC_SEED)
        .take_while(|&t| t < HORIZON)
        .collect();
    let sims = vec![
        simulate(&trace, "inference alone", 0, true),
        simulate(&trace, "training, yielding", SIM_EPOCHS, true),
        simulate(&trace, "training, greedy", SIM_EPOCHS, false),
    ];

    TrainingResult {
        clean,
        recovered,
        recovery_delta_pp,
        sims,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::common::json_field;

    #[test]
    fn recovery_is_exact_and_chaos_actually_bites() {
        let r = run(&Scale::bench());
        assert_eq!(r.clean.kills, 0);
        assert_eq!(r.clean.restarts, 0);
        assert!(
            r.recovered.kills >= 1,
            "the chaos plan must actually kill the job"
        );
        assert_eq!(r.recovered.kills as u32, r.recovered.restarts);
        assert_eq!(r.clean.epochs, r.recovered.epochs);
        // Bit-identical recovery: not merely close, *exactly* zero.
        assert_eq!(
            r.recovery_delta_pp, 0.0,
            "recovered weights must score exactly like the clean run"
        );
        assert_eq!(r.clean.accuracy.to_bits(), r.recovered.accuracy.to_bits());
    }

    #[test]
    fn yield_discipline_bounds_the_tail() {
        let r = run(&Scale::bench());
        let (alone, yielding, greedy) = (&r.sims[0], &r.sims[1], &r.sims[2]);
        assert_eq!(alone.train_done_ms, 0.0);
        assert!(yielding.train_done_ms > 0.0, "yielding trainer finishes");
        assert!(greedy.train_done_ms > 0.0, "greedy trainer finishes");
        assert!(alone.p50_ms <= alone.p99_ms);
        assert!(
            alone.p99_ms <= yielding.p99_ms,
            "co-residency cannot improve the tail"
        );
        assert!(
            greedy.p99_ms > 4.0 * yielding.p99_ms,
            "the greedy control must show what yielding buys: {} !> 4x {}",
            greedy.p99_ms,
            yielding.p99_ms
        );
        assert!(
            r.p99_inflation_x() < 4.0,
            "yielding inflation out of range: {}",
            r.p99_inflation_x()
        );
    }

    #[test]
    fn payload_is_bit_identical_across_runs() {
        // Real jobs recover deterministically and the simulation is
        // virtual-time, so the *entire* payload — accuracies, counters
        // and every latency cell — is a pure function of the seeds.
        let scale = Scale::bench();
        let a = run(&scale);
        let b = run(&scale);
        assert_eq!(a, b);
        assert_eq!(a.to_json(), b.to_json());
    }

    #[test]
    fn render_and_json_carry_the_gated_fields() {
        let r = run(&Scale::bench());
        let s = r.render();
        assert!(s.contains("Crash recovery at equal seed"));
        assert!(s.contains("co-resident trainer"));
        let j = r.to_json();
        for key in [
            "training_recovery_delta_pp",
            "training_clean_accuracy",
            "training_recovered_accuracy",
            "training_epochs",
            "training_kills",
            "training_restarts",
            "training_rejected_checkpoints",
            "training_p99_inflation_x",
            "training_p99_alone_ms",
            "training_p99_yield_ms",
            "training_p99_greedy_ms",
            "tables",
        ] {
            assert!(json_field(&j, key), "missing {key} in {j}");
        }
        assert_eq!(
            crate::gate::extract_number(&j, "training_recovery_delta_pp"),
            Some(0.0)
        );
        let infl = crate::gate::extract_number(&j, "training_p99_inflation_x")
            .expect("inflation key parses");
        assert!((1.0..4.0).contains(&infl), "inflation {infl} out of range");
    }
}
