//! Serving throughput — requests/sec through the `vortex-serve`
//! scheduler, serial vs pooled micro-batching, plus a deterministic
//! degradation-ladder scenario (extension beyond the paper).
//!
//! The model is compiled once (fabricate → map → program → calibrate)
//! and shared across scheduler configurations via `Arc`. Two scenarios
//! are metered on the calibrated read path:
//!
//! * **serial** — closed-loop dispatch: one request in flight at a time
//!   (`submit_wait`, pool of one, `max_batch 1`). Every request pays the
//!   full round trip on its own — queue transaction, worker hand-off,
//!   inference, response hand-off — which is what request-at-a-time
//!   serving costs.
//! * **pooled** — open-loop burst: the whole trace is admitted while the
//!   scheduler is paused, then four workers drain it in micro-batches of
//!   up to `max_batch 64`, so those fixed costs amortize across a batch.
//!
//! The pooled clock runs from `resume()` to the last response — a pure
//! queue drain. On a single-core host the pooled gain is therefore the
//! batching gain, not hardware parallelism — which is the point: batching
//! pays even where threads cannot.
//!
//! The degradation scenario bursts more traffic than an `Exact`-fidelity
//! primary can queue: admissions above the
//! high-water mark are downgraded to the `Calibrated` fallback, overflow
//! is rejected, and the run asserts the ladder releases after the drain.

use std::sync::Arc;
use std::time::{Duration, Instant};

use vortex_core::amp::greedy::RowMapping;
use vortex_core::pipeline::{HardwareEnv, ReadFidelity};
use vortex_core::report::{fixed, Table};
use vortex_nn::executor::Parallelism;
use vortex_runtime::CompiledModel;
use vortex_serve::{Scheduler, SchedulerConfig, ServeError};

use super::common::{meter_drains, Scale};

/// Pool size of the pooled scenario.
const POOL: usize = 4;
/// Micro-batch ceiling of the pooled scenario.
const MAX_BATCH: usize = 64;
/// Requests per metered drain pass.
const TRACE_LEN: usize = 256;
/// Degradation scenario: burst size and queue geometry.
const BURST: usize = 200;
const BURST_CAPACITY: usize = 128;
const HIGH_WATER: usize = 64;
const LOW_WATER: usize = 16;

/// Result of the serving throughput experiment.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeResult {
    /// Physical crossbar rows of the compiled model.
    pub rows: usize,
    /// Crossbar columns (= classes).
    pub cols: usize,
    /// Requests per metered drain pass.
    pub requests: usize,
    /// Worker count of the pooled scenario.
    pub pool: usize,
    /// Micro-batch ceiling of the pooled scenario.
    pub max_batch: usize,
    /// Serial (closed-loop, one request in flight) throughput,
    /// requests/sec.
    pub serial_sps: f64,
    /// Pooled micro-batching throughput, requests/sec.
    pub pooled_sps: f64,
    /// Degradation burst: requests admitted at `Exact` fidelity.
    pub exact_served: usize,
    /// Degradation burst: requests downgraded to the fallback.
    pub degraded_served: usize,
    /// Degradation burst: requests rejected by backpressure.
    pub rejected_full: usize,
    /// Whether the ladder released after the burst drained.
    pub recovered: bool,
}

impl ServeResult {
    /// Pooled speedup over serial.
    pub fn speedup(&self) -> f64 {
        if self.serial_sps > 0.0 {
            self.pooled_sps / self.serial_sps
        } else {
            0.0
        }
    }

    /// The experiment as structured tables.
    pub fn tables(&self) -> Vec<Table> {
        let mut t = Table::new(
            format!(
                "Serving throughput — {}x{} compiled model, {} requests/pass",
                self.rows, self.cols, self.requests
            ),
            &["scenario", "workers", "max batch", "requests/sec"],
        );
        t.add_row([
            "serial".to_string(),
            "1".to_string(),
            "1".to_string(),
            fixed(self.serial_sps, 0),
        ]);
        t.add_row([
            "pooled".to_string(),
            self.pool.to_string(),
            self.max_batch.to_string(),
            fixed(self.pooled_sps, 0),
        ]);
        let mut d = Table::new(
            format!(
                "Degradation ladder — burst {} at capacity {}, watermarks {}/{}",
                BURST, BURST_CAPACITY, HIGH_WATER, LOW_WATER
            ),
            &["outcome", "requests"],
        );
        d.add_row(["served exact".to_string(), self.exact_served.to_string()]);
        d.add_row([
            "served degraded".to_string(),
            self.degraded_served.to_string(),
        ]);
        d.add_row([
            "rejected (queue full)".to_string(),
            self.rejected_full.to_string(),
        ]);
        d.add_row(["ladder recovered".to_string(), self.recovered.to_string()]);
        vec![t, d]
    }

    /// Renders the experiment as text tables plus a summary line.
    pub fn render(&self) -> String {
        let mut out = super::common::render_tables(&self.tables());
        out.push_str(&format!(
            "pooled speedup {:.2}x over serial dispatch\n",
            self.speedup()
        ));
        out
    }

    /// Machine-readable summary (the `BENCH_serve.json` payload): flat
    /// throughput fields plus the structured tables.
    pub fn to_json(&self) -> String {
        format!(
            concat!(
                "{{\"rows\":{},\"cols\":{},\"requests\":{},\"pool\":{},\"max_batch\":{},",
                "\"serial_samples_per_sec\":{:.3},\"pooled_samples_per_sec\":{:.3},",
                "\"speedup\":{:.4},\"exact_served\":{},\"degraded_served\":{},",
                "\"rejected_full\":{},\"recovered\":{},\"tables\":{}}}"
            ),
            self.rows,
            self.cols,
            self.requests,
            self.pool,
            self.max_batch,
            self.serial_sps,
            self.pooled_sps,
            self.speedup(),
            self.exact_served,
            self.degraded_served,
            self.rejected_full,
            self.recovered,
            super::common::tables_to_json(&self.tables()),
        )
    }
}

/// Meters closed-loop serial dispatch: one scheduler worker, `max_batch
/// 1`, and a synchronous client — each request is submitted with
/// [`Scheduler::submit_wait`] only after the previous response arrived,
/// so exactly one request is ever in flight.
fn meter_closed_loop(model: &Arc<CompiledModel>, trace: &[Vec<f64>]) -> f64 {
    let floor_s = 0.15;
    let scheduler = Scheduler::new(
        Arc::clone(model),
        None,
        SchedulerConfig::new(Parallelism::Fixed(1))
            .with_queue_capacity(trace.len())
            .with_batching(1, Duration::ZERO),
    )
    .expect("valid scheduler config");
    let start = Instant::now();
    let mut served = 0usize;
    loop {
        for x in trace {
            scheduler
                .submit_wait(x.clone())
                .expect("closed-loop response");
        }
        served += trace.len();
        let elapsed = start.elapsed().as_secs_f64();
        if elapsed >= floor_s {
            return served as f64 / elapsed;
        }
    }
}

/// Runs the experiment: compile once, meter serial vs pooled drains, then
/// the deterministic degradation burst.
///
/// # Panics
///
/// Panics only on internal configuration errors (the defaults are valid).
pub fn run(scale: &Scale) -> ServeResult {
    // The side-7 benchmark keeps the per-sample read cheap, so the
    // scheduler's dispatch overhead — the thing micro-batching amortizes —
    // dominates the serial scenario.
    let (train, test) = scale.dataset(7);
    let weights = scale.gdt().train(&train).expect("training");
    let mapping = RowMapping::identity(weights.rows());
    let env = HardwareEnv::with_sigma(0.4)
        .expect("valid sigma")
        .with_ir_drop(5.0);
    let mut rng = scale.rng(77);
    let compiler = env.compiler().with_calibration(&test.mean_input());
    // One programmed pair, frozen twice: the calibrated model serves the
    // throughput scenarios and doubles as the degradation fallback; the
    // exact freeze is the degradation primary.
    let pair = compiler
        .program(&weights, &mapping, &mut rng)
        .expect("programming");
    let calibrated = Arc::new(compiler.freeze(&pair, &mapping).expect("calibrated freeze"));
    let mut exact_env = env;
    exact_env.read_fidelity = ReadFidelity::ExactIrDrop;
    let exact = Arc::new(
        exact_env
            .compiler()
            .with_calibration(&test.mean_input())
            .freeze(&pair, &mapping)
            .expect("exact freeze"),
    );

    let trace: Vec<Vec<f64>> = (0..TRACE_LEN)
        .map(|k| test.image(k % test.len()).to_vec())
        .collect();
    let serial_sps = meter_closed_loop(&calibrated, &trace);
    let pooled_sps = meter_drains(
        &trace,
        SchedulerConfig::new(Parallelism::Fixed(POOL)).with_batching(MAX_BATCH, Duration::ZERO),
        |config| Scheduler::new(Arc::clone(&calibrated), None, config).expect("valid config"),
        |scheduler, _, x| {
            scheduler
                .try_submit(x, None)
                .expect("prefill fits the queue")
        },
        Scheduler::resume,
        Scheduler::shutdown,
    );

    let (exact_served, degraded_served, rejected_full, recovered) =
        degradation_burst(&exact, &calibrated, &trace);

    ServeResult {
        rows: calibrated.rows(),
        cols: calibrated.classes(),
        requests: trace.len(),
        pool: POOL,
        max_batch: MAX_BATCH,
        serial_sps,
        pooled_sps,
        exact_served,
        degraded_served,
        rejected_full,
        recovered,
    }
}

/// The deterministic overload burst: more traffic than the queue holds,
/// admitted while the pool is paused so every ladder decision is a pure
/// function of queue depth.
fn degradation_burst(
    exact: &Arc<CompiledModel>,
    calibrated: &Arc<CompiledModel>,
    trace: &[Vec<f64>],
) -> (usize, usize, usize, bool) {
    let scheduler = Scheduler::new(
        Arc::clone(exact),
        Some(Arc::clone(calibrated)),
        SchedulerConfig::new(Parallelism::Fixed(1))
            .with_queue_capacity(BURST_CAPACITY)
            .with_batching(MAX_BATCH, Duration::ZERO)
            .with_watermarks(HIGH_WATER, LOW_WATER)
            .paused(),
    )
    .expect("valid scheduler config");
    let mut tickets = Vec::new();
    let mut rejected_full = 0usize;
    for k in 0..BURST {
        match scheduler.try_submit(trace[k % trace.len()].clone(), None) {
            Ok(t) => tickets.push(t),
            Err(ServeError::QueueFull { .. }) => rejected_full += 1,
            Err(e) => panic!("unexpected admission error: {e}"),
        }
    }
    scheduler.resume();
    let mut exact_served = 0usize;
    let mut degraded_served = 0usize;
    for ticket in tickets {
        let p = ticket.wait().expect("burst responses");
        if p.downgraded {
            degraded_served += 1;
        } else {
            exact_served += 1;
        }
    }
    // The drain crossed the low-water mark, so a fresh probe must be
    // served at primary fidelity again.
    let probe = scheduler
        .submit_wait(trace[0].clone())
        .expect("probe after drain");
    let recovered = !scheduler.is_degraded() && !probe.downgraded;
    (exact_served, degraded_served, rejected_full, recovered)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::common::json_field;

    #[test]
    fn throughput_is_positive_and_degradation_is_exact() {
        let r = run(&Scale::bench());
        assert!(r.serial_sps > 0.0 && r.pooled_sps > 0.0);
        assert_eq!(r.requests, TRACE_LEN);
        assert_eq!(r.rows, 49, "side-7 physical rows");
        assert_eq!(r.cols, 10);
        // The burst's admission decisions are a pure function of queue
        // depth, so the split is exact: the ladder engages on the push
        // that reaches the high-water mark and every later admission is
        // degraded until the queue fills.
        assert_eq!(r.exact_served, HIGH_WATER - 1);
        assert_eq!(r.degraded_served, BURST_CAPACITY - (HIGH_WATER - 1));
        assert_eq!(r.rejected_full, BURST - BURST_CAPACITY);
        assert!(r.recovered, "ladder must release after the drain");
    }

    #[test]
    fn render_and_json_carry_the_headline_fields() {
        let r = run(&Scale::bench());
        let s = r.render();
        assert!(s.contains("Serving throughput"));
        assert!(s.contains("Degradation ladder"));
        let j = r.to_json();
        for key in [
            "rows",
            "cols",
            "requests",
            "pool",
            "max_batch",
            "serial_samples_per_sec",
            "pooled_samples_per_sec",
            "speedup",
            "exact_served",
            "degraded_served",
            "rejected_full",
            "recovered",
            "tables",
        ] {
            assert!(json_field(&j, key), "missing {key} in {j}");
        }
    }
}
