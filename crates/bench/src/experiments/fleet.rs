//! Fleet serving — ensemble-vs-single accuracy, tail latency under
//! open-loop load, and goodput under overload (extension beyond the
//! paper).
//!
//! Three measurements, three determinism regimes:
//!
//! * **Ensemble accuracy** — five replicas compiled from distinct
//!   variation seeds
//!   ([`CompileRequest::compile_replicas`](vortex_core::pipeline::CompileRequest::compile_replicas))
//!   classify a
//!   dedicated evaluation set at each sigma; the per-sample majority
//!   vote is scored against every single chip. A deliberately large
//!   eval set (600 samples at every scale) keeps the *best single chip*
//!   an honest baseline: with a small set the max over five chips is
//!   mostly binomial luck. Pure seeded computation — bit-identical on
//!   every run. CI gates `ensemble_accuracy_delta_pp` (best single
//!   minus ensemble, percentage points, worst case over sigma ≥ 0.3)
//!   with a ceiling of 0: the vote must beat every chip once variation
//!   dominates.
//! * **Tail latency / goodput under load** — a virtual-time
//!   discrete-event simulation: seeded arrivals from
//!   [`traffic`](crate::traffic) (Poisson at 1×, a square-wave 2×
//!   overload burst), the *real* [`Router`] deciding placement (the
//!   same code path live serving runs), and five single-server queues
//!   with micro-batching at fixed virtual service costs. No wall clock
//!   anywhere, so p50/p99/p999, shed rates and per-tenant goodput are
//!   bit-identical on every run — the experiment's tables are a pure
//!   function of the seed.
//! * **Measured goodput** — the one wall-clock number: a real five
//!   replica [`Fleet`] on the process worker pool drains a prefilled
//!   backlog, metered exactly like the `serve` experiment. Gated as
//!   `fleet_goodput_samples_per_sec` with the usual noise margin; it is
//!   a flat JSON field only, never a table cell, so the determinism
//!   contract on tables holds.

use std::collections::VecDeque;
use std::sync::Arc;
use std::time::{Duration, Instant};

use vortex_core::amp::greedy::RowMapping;
use vortex_core::pipeline::HardwareEnv;
use vortex_core::report::{fixed, Table};
use vortex_fleet::ensemble::ensemble_accuracy;
use vortex_fleet::routing::{Router, RoutingPolicy};
use vortex_fleet::{Fleet, FleetConfig};
use vortex_linalg::stats::percentile;
use vortex_nn::dataset::{DatasetConfig, SynthDigits};
use vortex_nn::executor::Parallelism;
use vortex_runtime::CompiledModel;
use vortex_serve::{SchedulerConfig, Ticket};

use super::common::Scale;
use crate::traffic::{ArrivalProcess, Request, Tenant, Workload};

/// Replicas in the fleet — five distinct simulated chips.
pub const REPLICAS: usize = 5;
/// Sigma grid of the accuracy sweep; the delta gate covers ≥ 0.3.
pub const SIGMAS: [f64; 3] = [0.15, 0.30, 0.45];
/// Eval samples per class (600 total): large enough that the best
/// single chip is signal, not max-order-statistic luck.
const EVAL_PER_CLASS: usize = 60;
/// Fabrication-seed stream tag for the replica compiles.
const REPLICA_SEED_TAG: u64 = 0xF1EE7;

// ---- virtual-time simulation constants (virtual seconds) ----
/// Fixed per-batch dispatch overhead.
const T_BATCH: f64 = 4.0e-4;
/// Fixed per-sample service cost.
const T_SAMPLE: f64 = 1.0e-4;
/// Micro-batch ceiling of a simulated replica.
const SIM_MAX_BATCH: usize = 16;
/// Per-replica queue capacity; arrivals beyond it are shed.
const SIM_QUEUE_CAP: usize = 64;
/// 1× offered load, arrivals/s — 70% of the fleet's 40 000/s ceiling
/// (five replicas × 16 samples per 2 ms batch).
const RATE_1X: f64 = 28_000.0;
/// Burst-window offered load of the overload scenario — 2× the ceiling.
const RATE_BURST: f64 = 80_000.0;
/// Burst cycle length and in-burst fraction.
const BURST_PERIOD: f64 = 0.25;
const BURST_FRACTION: f64 = 0.3;
/// Virtual horizon of each scenario.
const HORIZON: f64 = 0.5;
/// Arrival-trace seed (independent of the scale's model seed).
const TRAFFIC_SEED: u64 = 0x70AD;
/// Interactive tenant deadline — 8 virtual ms, tight enough that a
/// burst-deep queue (the cap bounds sojourn near 10 ms) blows it: under
/// overload the interactive tenant loses goodput to *lateness*, not
/// just shedding, while the batch tenant's 200 ms budget absorbs the
/// queueing.
const DEADLINE_INTERACTIVE: f64 = 0.008;
/// Batch tenant deadline — 200 virtual ms.
const DEADLINE_BATCH: f64 = 0.200;

/// Requests per metered wall-clock drain pass.
const METER_TRACE: usize = 320;

/// One sigma row of the accuracy sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct AccuracyRow {
    /// Programming-noise sigma.
    pub sigma: f64,
    /// Every replica's accuracy, fleet order.
    pub singles: Vec<f64>,
    /// The best single chip.
    pub best: f64,
    /// The 5-chip majority vote.
    pub ensemble: f64,
}

impl AccuracyRow {
    /// Mean single-chip accuracy.
    pub fn mean_single(&self) -> f64 {
        self.singles.iter().sum::<f64>() / self.singles.len().max(1) as f64
    }

    /// `best single − ensemble`, percentage points (≤ 0 = vote wins).
    pub fn delta_pp(&self) -> f64 {
        (self.best - self.ensemble) * 100.0
    }
}

/// One (policy, scenario) row of the virtual-time simulation.
#[derive(Debug, Clone, PartialEq)]
pub struct SimRow {
    /// Routing policy name.
    pub policy: &'static str,
    /// Offered arrivals over the horizon.
    pub arrivals: usize,
    /// Arrivals shed at a full replica queue.
    pub shed: usize,
    /// Completions inside their tenant deadline.
    pub on_time: usize,
    /// Latency percentiles over completions, virtual milliseconds.
    pub p50_ms: f64,
    /// 99th percentile, virtual milliseconds.
    pub p99_ms: f64,
    /// 99.9th percentile, virtual milliseconds.
    pub p999_ms: f64,
    /// Per-tenant `(arrivals, on-time)` in tenant order.
    pub tenant_on_time: Vec<(usize, usize)>,
}

impl SimRow {
    /// On-time completions as a share of *offered* load, percent —
    /// shed requests count against goodput.
    pub fn goodput_pct(&self) -> f64 {
        100.0 * self.on_time as f64 / self.arrivals.max(1) as f64
    }

    /// Shed share of offered load, percent.
    pub fn shed_pct(&self) -> f64 {
        100.0 * self.shed as f64 / self.arrivals.max(1) as f64
    }
}

/// Result of the fleet experiment.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetResult {
    /// Replicas per fleet.
    pub replicas: usize,
    /// Eval samples behind the accuracy sweep.
    pub eval_samples: usize,
    /// The accuracy sweep, one row per sigma.
    pub accuracy: Vec<AccuracyRow>,
    /// 1× Poisson simulation, one row per routing policy.
    pub load_1x: Vec<SimRow>,
    /// 2× overload-burst simulation, one row per routing policy.
    pub load_2x: Vec<SimRow>,
    /// Tenant names, in the order `SimRow::tenant_on_time` uses.
    pub tenants: Vec<&'static str>,
    /// Measured wall-clock fleet goodput, samples/sec (flat field only —
    /// never in a table).
    pub goodput_sps: f64,
}

impl FleetResult {
    /// Worst-case `best single − ensemble` (pp) over sigma ≥ 0.3 — the
    /// gated ceiling key: ≤ 0 means the vote beats every chip wherever
    /// variation dominates.
    pub fn ensemble_accuracy_delta_pp(&self) -> f64 {
        self.accuracy
            .iter()
            .filter(|r| r.sigma >= 0.3)
            .map(AccuracyRow::delta_pp)
            .fold(f64::MIN, f64::max)
    }

    /// The high-sigma accuracy row (the headline comparison).
    fn high_sigma(&self) -> &AccuracyRow {
        self.accuracy.last().expect("non-empty sigma grid")
    }

    /// The least-loaded overload row (the headline tail).
    fn overload_headline(&self) -> &SimRow {
        self.load_2x
            .iter()
            .find(|r| r.policy == "least_loaded")
            .expect("least_loaded runs in every scenario")
    }

    /// The experiment as structured tables.
    pub fn tables(&self) -> Vec<Table> {
        let mut acc = Table::new(
            format!(
                "Ensemble vs single chip — {} replicas, {}-sample eval",
                self.replicas, self.eval_samples
            ),
            &["sigma", "worst", "mean", "best", "ensemble", "delta pp"],
        );
        for row in &self.accuracy {
            let worst = row.singles.iter().cloned().fold(f64::MAX, f64::min);
            acc.add_row([
                fixed(row.sigma, 2),
                fixed(worst, 3),
                fixed(row.mean_single(), 3),
                fixed(row.best, 3),
                fixed(row.ensemble, 3),
                fixed(row.delta_pp(), 1),
            ]);
        }
        let sim_table = |title: String, rows: &[SimRow]| {
            let mut t = Table::new(
                title,
                &[
                    "policy",
                    "arrivals",
                    "shed %",
                    "p50 ms",
                    "p99 ms",
                    "p999 ms",
                    "goodput %",
                ],
            );
            for r in rows {
                t.add_row([
                    r.policy.to_string(),
                    r.arrivals.to_string(),
                    fixed(r.shed_pct(), 1),
                    fixed(r.p50_ms, 2),
                    fixed(r.p99_ms, 2),
                    fixed(r.p999_ms, 2),
                    fixed(r.goodput_pct(), 1),
                ]);
            }
            t
        };
        let one_x = sim_table(
            format!(
                "Virtual-time tail latency — 1x Poisson ({:.0}/s over {:.1}s, {} replicas)",
                RATE_1X, HORIZON, self.replicas
            ),
            &self.load_1x,
        );
        let two_x = sim_table(
            format!(
                "Goodput under overload — 2x burst ({:.0}/s for {:.0}% of each {:.2}s cycle)",
                RATE_BURST,
                BURST_FRACTION * 100.0,
                BURST_PERIOD
            ),
            &self.load_2x,
        );
        let mut tenants = Table::new(
            "Per-tenant on-time share under the 2x burst".to_string(),
            &["policy", "tenant", "arrivals", "on-time %"],
        );
        for row in &self.load_2x {
            for (i, &(arrived, on_time)) in row.tenant_on_time.iter().enumerate() {
                tenants.add_row([
                    row.policy.to_string(),
                    self.tenants[i].to_string(),
                    arrived.to_string(),
                    fixed(100.0 * on_time as f64 / arrived.max(1) as f64, 1),
                ]);
            }
        }
        vec![acc, one_x, two_x, tenants]
    }

    /// Renders the experiment as text tables plus a summary line.
    pub fn render(&self) -> String {
        let mut out = super::common::render_tables(&self.tables());
        let high = self.high_sigma();
        out.push_str(&format!(
            "sigma {:.2}: 5-chip vote {:.3} vs best single {:.3} ({:+.1} pp); measured fleet goodput {:.0} samples/s\n",
            high.sigma,
            high.ensemble,
            high.best,
            -high.delta_pp(),
            self.goodput_sps
        ));
        out
    }

    /// Machine-readable summary (the `BENCH_fleet.json` payload): flat
    /// gated fields plus the structured tables.
    pub fn to_json(&self) -> String {
        let high = self.high_sigma();
        let over = self.overload_headline();
        format!(
            concat!(
                "{{\"replicas\":{},\"eval_samples\":{},",
                "\"best_single_accuracy\":{:.4},\"ensemble_accuracy\":{:.4},",
                "\"ensemble_accuracy_delta_pp\":{:.2},",
                "\"fleet_goodput_samples_per_sec\":{:.3},",
                "\"p999_overload_ms\":{:.3},\"goodput_overload_pct\":{:.2},",
                "\"shed_overload_pct\":{:.2},\"tables\":{}}}"
            ),
            self.replicas,
            self.eval_samples,
            high.best,
            high.ensemble,
            self.ensemble_accuracy_delta_pp(),
            self.goodput_sps,
            over.p999_ms,
            over.goodput_pct(),
            over.shed_pct(),
            super::common::tables_to_json(&self.tables()),
        )
    }
}

/// The tenant mix every scenario runs: latency-sensitive interactive
/// traffic over a best-effort batch floor.
fn tenant_mix() -> Vec<Tenant> {
    vec![
        Tenant {
            name: "interactive",
            weight: 4.0,
            deadline: Some(DEADLINE_INTERACTIVE),
        },
        Tenant {
            name: "batch",
            weight: 1.0,
            deadline: Some(DEADLINE_BATCH),
        },
    ]
}

/// One simulated replica: a single server with micro-batching at fixed
/// virtual costs behind a bounded queue.
struct SimReplica {
    busy_until: f64,
    queue: VecDeque<Request>,
}

/// A completed request: when it finished and whether it made its
/// deadline.
struct Completion {
    latency: f64,
    on_time: bool,
    tenant: usize,
}

impl SimReplica {
    fn new() -> Self {
        Self {
            busy_until: 0.0,
            queue: VecDeque::new(),
        }
    }

    /// Runs every batch that *starts* before virtual time `t`. The
    /// server is non-idling: whenever it frees up it takes whatever has
    /// arrived (up to [`SIM_MAX_BATCH`]); requests arriving mid-batch
    /// wait for the next one.
    fn advance(&mut self, t: f64, completions: &mut Vec<Completion>) {
        while let Some(head) = self.queue.front() {
            let start = self.busy_until.max(head.time);
            if start >= t {
                break;
            }
            let batch = self
                .queue
                .iter()
                .take(SIM_MAX_BATCH)
                .take_while(|r| r.time <= start)
                .count();
            let done = start + T_BATCH + batch as f64 * T_SAMPLE;
            for _ in 0..batch {
                let req = self.queue.pop_front().expect("counted above");
                completions.push(Completion {
                    latency: done - req.time,
                    on_time: req.deadline.map_or(true, |d| done <= d),
                    tenant: req.tenant,
                });
            }
            self.busy_until = done;
        }
    }
}

/// Replays one arrival trace through the real [`Router`] and the
/// virtual-time replicas. Everything is a pure function of the trace
/// and the policy — no wall clock, no threads.
fn simulate(policy: RoutingPolicy, name: &'static str, trace: &[Request]) -> SimRow {
    let router = Router::new(policy, REPLICAS).expect("non-empty fleet");
    let routable = vec![true; REPLICAS];
    let mut replicas: Vec<SimReplica> = (0..REPLICAS).map(|_| SimReplica::new()).collect();
    let mut completions = Vec::with_capacity(trace.len());
    let mut shed = 0usize;
    let mut tenant_counts = vec![(0usize, 0usize); tenant_mix().len()];
    for (i, req) in trace.iter().enumerate() {
        for r in &mut replicas {
            r.advance(req.time, &mut completions);
        }
        let depths: Vec<usize> = replicas.iter().map(|r| r.queue.len()).collect();
        let target = router
            .route(i as u64, &routable, &depths)
            .expect("all replicas routable");
        tenant_counts[req.tenant].0 += 1;
        if replicas[target].queue.len() >= SIM_QUEUE_CAP {
            shed += 1;
        } else {
            replicas[target].queue.push_back(req.clone());
        }
    }
    for r in &mut replicas {
        r.advance(f64::INFINITY, &mut completions);
    }
    let mut latencies: Vec<f64> = completions.iter().map(|c| c.latency).collect();
    latencies.sort_by(|a, b| a.partial_cmp(b).expect("finite latencies"));
    let mut on_time = 0usize;
    for c in &completions {
        if c.on_time {
            on_time += 1;
            tenant_counts[c.tenant].1 += 1;
        }
    }
    SimRow {
        policy: name,
        arrivals: trace.len(),
        shed,
        on_time,
        p50_ms: 1e3 * percentile(&latencies, 50.0),
        p99_ms: 1e3 * percentile(&latencies, 99.0),
        p999_ms: 1e3 * percentile(&latencies, 99.9),
        tenant_on_time: tenant_counts,
    }
}

/// Collects one open-loop trace and runs it under every routing policy.
fn simulate_scenario(process: ArrivalProcess) -> Vec<SimRow> {
    let trace: Vec<Request> = Workload::new(process, tenant_mix(), TRAFFIC_SEED)
        .take_while(|r| r.time < HORIZON)
        .collect();
    [
        (RoutingPolicy::RoundRobin, "round_robin"),
        (RoutingPolicy::ConsistentHash, "consistent_hash"),
        (RoutingPolicy::LeastLoaded, "least_loaded"),
    ]
    .into_iter()
    .map(|(policy, name)| simulate(policy, name, &trace))
    .collect()
}

/// Meters the real fleet as repeated pure queue drains (the `serve`
/// experiment's meter, fleet-wide): prefill every paused replica round
/// robin, then time `resume_all()` → last response.
fn meter_fleet(models: &[(u64, Arc<CompiledModel>)], trace: &[Vec<f64>]) -> f64 {
    let floor_s = 0.15;
    let mut drained_s = 0.0;
    let mut served = 0usize;
    while drained_s < floor_s {
        let fleet = Fleet::new(
            models.to_vec(),
            FleetConfig::new(RoutingPolicy::RoundRobin).with_scheduler(
                SchedulerConfig::new(Parallelism::Fixed(1))
                    .with_queue_capacity(trace.len())
                    .with_batching(SIM_MAX_BATCH, Duration::ZERO)
                    .paused(),
            ),
        )
        .expect("replicas share one shape");
        let tickets: Vec<Ticket> = trace
            .iter()
            .enumerate()
            .map(|(k, x)| {
                fleet
                    .submit(k as u64, x.clone(), None)
                    .expect("prefill fits the queues")
                    .1
            })
            .collect();
        let start = Instant::now();
        fleet.resume_all();
        for ticket in tickets.into_iter().rev() {
            ticket.wait().expect("drain answers every request");
        }
        drained_s += start.elapsed().as_secs_f64();
        served += trace.len();
        fleet.shutdown();
    }
    served as f64 / drained_s
}

/// Runs the experiment: accuracy sweep, virtual-time load scenarios,
/// then the measured fleet drain.
///
/// # Panics
///
/// Panics only on internal configuration errors (the defaults are valid).
pub fn run(scale: &Scale) -> FleetResult {
    // One trained model; every replica is a different fabrication of it.
    // The trainer gets an epoch floor independent of the scale: a
    // half-trained model's mistakes are *shared* by every replica, and
    // no amount of voting fixes correlated errors. Training the side-7
    // model out properly is cheap and leaves the residual errors
    // variation-dominated — the regime the ensemble claim is about.
    let (train, _) = scale.dataset(7);
    let mut trainer = scale.gdt();
    trainer.epochs = trainer.epochs.max(30);
    let weights = trainer.train(&train).expect("training");
    let mapping = RowMapping::identity(weights.rows());
    // The dedicated eval set: fixed 600 samples at every scale, so the
    // best-single baseline measures chips, not sampling luck.
    let eval = SynthDigits::generate(
        &DatasetConfig {
            samples_per_class: EVAL_PER_CLASS,
            ..DatasetConfig::paper()
        },
        scale.seed ^ 0x5CA1E,
    )
    .expect("valid dataset config")
    .downsample(4)
    .expect("7 divides 28");

    let base_seed = scale.rng(REPLICA_SEED_TAG).next_u64();
    let mut accuracy = Vec::with_capacity(SIGMAS.len());
    let mut high_sigma_models: Vec<(u64, Arc<CompiledModel>)> = Vec::new();
    for &sigma in &SIGMAS {
        let env = HardwareEnv::with_sigma(sigma)
            .expect("valid sigma")
            .with_ir_drop(5.0);
        let compiler = env.compiler().with_calibration(&eval.mean_input());
        let replicas = compiler
            .request(&weights, &mapping)
            .seed(base_seed)
            .compile_replicas(REPLICAS)
            .expect("compilation");
        let singles: Vec<f64> = replicas
            .iter()
            .map(|(_, m)| m.accuracy(&eval).expect("eval read"))
            .collect();
        let refs: Vec<&CompiledModel> = replicas.iter().map(|(_, m)| m).collect();
        let ensemble = ensemble_accuracy(&refs, &eval).expect("eval read");
        let best = singles.iter().cloned().fold(f64::MIN, f64::max);
        accuracy.push(AccuracyRow {
            sigma,
            singles,
            best,
            ensemble,
        });
        high_sigma_models = replicas
            .into_iter()
            .map(|(seed, m)| (seed, Arc::new(m)))
            .collect();
    }

    let load_1x = simulate_scenario(ArrivalProcess::poisson(RATE_1X));
    let load_2x = simulate_scenario(ArrivalProcess::poisson_burst(
        RATE_1X,
        RATE_BURST,
        BURST_PERIOD,
        BURST_FRACTION,
    ));

    let meter_trace: Vec<Vec<f64>> = (0..METER_TRACE)
        .map(|k| eval.image(k % eval.len()).to_vec())
        .collect();
    let goodput_sps = meter_fleet(&high_sigma_models, &meter_trace);

    FleetResult {
        replicas: REPLICAS,
        eval_samples: eval.len(),
        accuracy,
        load_1x,
        load_2x,
        tenants: tenant_mix().iter().map(|t| t.name).collect(),
        goodput_sps,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::common::json_field;

    #[test]
    fn ensemble_beats_every_single_chip_at_high_sigma() {
        let r = run(&Scale::bench());
        for row in r.accuracy.iter().filter(|row| row.sigma >= 0.3) {
            assert!(
                row.ensemble >= row.best,
                "sigma {}: vote {:.3} below best single {:.3}",
                row.sigma,
                row.ensemble,
                row.best
            );
        }
        assert!(r.ensemble_accuracy_delta_pp() <= 0.0);
        assert_eq!(r.eval_samples, 600);
    }

    #[test]
    fn virtual_tables_are_bit_identical_across_runs() {
        let scale = Scale::bench();
        let a = run(&scale);
        let b = run(&scale);
        // Everything but the wall-clock goodput field is a pure
        // function of the seed — including every table cell.
        assert_eq!(
            super::super::common::tables_to_json(&a.tables()),
            super::super::common::tables_to_json(&b.tables())
        );
        assert_eq!(a.accuracy, b.accuracy);
        assert_eq!(a.load_1x, b.load_1x);
        assert_eq!(a.load_2x, b.load_2x);
    }

    #[test]
    fn overload_sheds_and_stretches_the_tail() {
        let r = run(&Scale::bench());
        for (one, two) in r.load_1x.iter().zip(&r.load_2x) {
            assert_eq!(one.policy, two.policy);
            assert!(one.p50_ms <= one.p99_ms && one.p99_ms <= one.p999_ms);
            assert!(
                two.shed + 50 > one.shed,
                "{}: overload should shed at least as much",
                one.policy
            );
            assert!(one.goodput_pct() > 95.0, "{} healthy at 1x", one.policy);
            assert!(
                two.goodput_pct() < one.goodput_pct(),
                "{}: overload must cost goodput",
                two.policy
            );
        }
        // Balancing by live depth beats blind rotation when the load is
        // bursty.
        let rr = &r.load_2x[0];
        let ll = r.overload_headline();
        assert!(ll.goodput_pct() >= rr.goodput_pct());
    }

    #[test]
    fn render_and_json_carry_the_gated_fields() {
        let r = run(&Scale::bench());
        assert!(r.goodput_sps > 0.0);
        let s = r.render();
        assert!(s.contains("Ensemble vs single chip"));
        assert!(s.contains("Goodput under overload"));
        let j = r.to_json();
        for key in [
            "replicas",
            "eval_samples",
            "best_single_accuracy",
            "ensemble_accuracy",
            "ensemble_accuracy_delta_pp",
            "fleet_goodput_samples_per_sec",
            "p999_overload_ms",
            "goodput_overload_pct",
            "shed_overload_pct",
            "tables",
        ] {
            assert!(json_field(&j, key), "missing {key} in {j}");
        }
    }
}
