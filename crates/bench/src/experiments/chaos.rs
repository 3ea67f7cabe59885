//! Self-healing chaos — the full fault-and-recovery loop under a seeded
//! [`ChaosPlan`] (extension beyond the paper).
//!
//! One run tells the whole reliability story, deterministically:
//!
//! 1. **Compile** a calibrated model with a frozen canary set and score
//!    it (`fresh_accuracy`).
//! 2. **Break it** the way hardware breaks: retention drift plus
//!    stuck-at devices from the plan (`aged_accuracy` drops).
//! 3. **Serve through the storm**: the degraded model serves a traffic
//!    trace while the plan panics worker dispatches mid-drain. The
//!    supervisor requeues and respawns; every accepted request resolves
//!    — `lost_requests` must be **0** and is CI-gated exactly.
//! 4. **Heal**: the health monitor replays the canaries, sees the floor
//!    breach, recompiles with the *same* seed and hot-swaps the fresh
//!    replica into the running scheduler, then serves a second trace.
//!    `recovered_accuracy_delta_pp` (fresh minus recovered, in
//!    percentage points) is CI-gated against a 0.5 pp ceiling — and is
//!    exactly 0.0 here, because a fixed-seed recompile is bit-identical.
//!
//! Everything is drawn from fixed seeds and the scheduler runs in its
//! deterministic configuration, so the result — counts included — is a
//! pure value: the unit test asserts `run == run`.

use std::sync::Arc;
use std::time::Duration;

use vortex_core::amp::greedy::RowMapping;
use vortex_core::pipeline::HardwareEnv;
use vortex_core::report::{fixed, Table};
use vortex_device::drift::RetentionModel;
use vortex_nn::executor::Parallelism;
use vortex_runtime::CompiledModel;
use vortex_serve::chaos::{ChaosConfig, ChaosPlan};
use vortex_serve::{HealthConfig, HealthMonitor, ProbeOutcome, Scheduler, SchedulerConfig, Ticket};

use super::common::Scale;

/// Chaos-plan master seed.
const CHAOS_SEED: u64 = 2024;
/// Requests per traffic phase (before and after healing).
const TRACE_LEN: usize = 128;
/// Micro-batch ceiling; with `TRACE_LEN` this yields 16 batches a phase.
const MAX_BATCH: usize = 16;
/// Batch window the plan draws its panics and slowdowns from — the first
/// (pre-healing) phase.
const HORIZON: u64 = (TRACE_LEN / MAX_BATCH) as u64;
/// Worker panics injected while the degraded model serves.
const PANICS: usize = 2;
/// Batches served slow.
const SLOW: usize = 1;
/// Stuck-at-off devices injected alongside drift.
const STUCK_CELLS: usize = 8;
/// Retention age applied to the serving model (seconds).
const DRIFT_T_S: f64 = 1e8;
/// Canary probes frozen into the model.
const CANARIES: usize = 24;
/// Canary-accuracy floor that triggers recalibration.
const ACCURACY_FLOOR: f64 = 1.0;

/// Result of the self-healing chaos experiment.
#[derive(Debug, Clone, PartialEq)]
pub struct ChaosBenchResult {
    /// Physical crossbar rows of the compiled model.
    pub rows: usize,
    /// Crossbar columns (= classes).
    pub cols: usize,
    /// Requests accepted across both traffic phases.
    pub accepted: usize,
    /// Requests answered with a prediction.
    pub answered: usize,
    /// Requests answered with a typed error (e.g. a double worker crash).
    pub typed_errors: usize,
    /// Accepted requests that never resolved — the zero-loss invariant,
    /// gated exactly in CI.
    pub lost_requests: usize,
    /// Injected worker panics that actually fired.
    pub panics: usize,
    /// Test accuracy of the fresh compile.
    pub fresh_accuracy: f64,
    /// Test accuracy after drift + stuck-at faults.
    pub aged_accuracy: f64,
    /// Test accuracy of the model serving after the hot swap.
    pub recovered_accuracy: f64,
    /// Canary accuracy that triggered healing (below the floor).
    pub canary_before: f64,
    /// Canary accuracy of the hot-swapped replacement.
    pub canary_after: f64,
    /// Whether the monitor actually recompiled and swapped.
    pub swapped: bool,
}

impl ChaosBenchResult {
    /// Fresh-minus-recovered test accuracy in percentage points — the
    /// CI-gated ceiling metric (0.0 when the fixed-seed recompile is
    /// bit-identical to the original).
    pub fn recovered_accuracy_delta_pp(&self) -> f64 {
        (self.fresh_accuracy - self.recovered_accuracy) * 100.0
    }

    /// The experiment as structured tables.
    pub fn tables(&self) -> Vec<Table> {
        let mut t = Table::new(
            format!(
                "Self-healing chaos — {}x{} model, {} requests, {} injected panics",
                self.rows, self.cols, self.accepted, self.panics
            ),
            &["outcome", "requests"],
        );
        t.add_row(["accepted".to_string(), self.accepted.to_string()]);
        t.add_row(["answered".to_string(), self.answered.to_string()]);
        t.add_row(["typed errors".to_string(), self.typed_errors.to_string()]);
        t.add_row(["lost".to_string(), self.lost_requests.to_string()]);
        let mut a = Table::new(
            "Recovery — canary-triggered recompile and hot swap".to_string(),
            &["stage", "test accuracy", "canary accuracy"],
        );
        a.add_row([
            "fresh".to_string(),
            fixed(self.fresh_accuracy, 4),
            "1.0000".to_string(),
        ]);
        a.add_row([
            "aged (drift + stuck cells)".to_string(),
            fixed(self.aged_accuracy, 4),
            fixed(self.canary_before, 4),
        ]);
        a.add_row([
            "recovered (hot-swapped)".to_string(),
            fixed(self.recovered_accuracy, 4),
            fixed(self.canary_after, 4),
        ]);
        vec![t, a]
    }

    /// Renders the experiment as text tables plus a summary line.
    pub fn render(&self) -> String {
        let mut out = super::common::render_tables(&self.tables());
        out.push_str(&format!(
            "lost {} of {} accepted; recovered within {:.3} pp of fresh\n",
            self.lost_requests,
            self.accepted,
            self.recovered_accuracy_delta_pp()
        ));
        out
    }

    /// Machine-readable summary (the `BENCH_chaos.json` payload): the
    /// flat CI-gated fields plus the structured tables.
    pub fn to_json(&self) -> String {
        format!(
            concat!(
                "{{\"rows\":{},\"cols\":{},\"accepted\":{},\"answered\":{},",
                "\"typed_errors\":{},\"lost_requests\":{},\"panics\":{},",
                "\"fresh_accuracy\":{:.6},\"aged_accuracy\":{:.6},",
                "\"recovered_accuracy\":{:.6},",
                "\"recovered_accuracy_delta_pp\":{:.6},",
                "\"canary_before\":{:.6},\"canary_after\":{:.6},",
                "\"swapped\":{},\"tables\":{}}}"
            ),
            self.rows,
            self.cols,
            self.accepted,
            self.answered,
            self.typed_errors,
            self.lost_requests,
            self.panics,
            self.fresh_accuracy,
            self.aged_accuracy,
            self.recovered_accuracy,
            self.recovered_accuracy_delta_pp(),
            self.canary_before,
            self.canary_after,
            self.swapped,
            super::common::tables_to_json(&self.tables()),
        )
    }
}

/// Drains one prefilled traffic phase through the scheduler, counting
/// answered predictions and typed errors. The queue is built paused so
/// batch composition — and with it every chaos trigger — is
/// deterministic.
fn serve_phase(scheduler: &Scheduler, trace: &[Vec<f64>]) -> (usize, usize, usize) {
    scheduler.pause();
    let mut accepted = 0usize;
    let tickets: Vec<Ticket> = trace
        .iter()
        .map(|x| {
            accepted += 1;
            scheduler
                .try_submit(x.clone(), None)
                .expect("prefill fits the queue")
        })
        .collect();
    scheduler.resume();
    let mut answered = 0usize;
    let mut typed_errors = 0usize;
    for ticket in tickets {
        match ticket.wait() {
            Ok(_) => answered += 1,
            Err(_) => typed_errors += 1,
        }
    }
    (accepted, answered, typed_errors)
}

/// Runs the experiment: compile → break → serve through panics → heal →
/// serve again. Deterministic end to end.
///
/// # Panics
///
/// Panics only on internal configuration errors (the defaults are valid).
pub fn run(scale: &Scale) -> ChaosBenchResult {
    let (train, test) = scale.dataset(7);
    let weights = scale.gdt().train(&train).expect("training");
    let mapping = RowMapping::identity(weights.rows());
    let env = HardwareEnv::with_sigma(0.4)
        .expect("valid sigma")
        .with_ir_drop(5.0);
    let calibration = test.mean_input();
    let canaries: Vec<Vec<f64>> = (0..CANARIES)
        .map(|k| test.image(k % test.len()).to_vec())
        .collect();

    // The deterministic compile path, reused verbatim by the recompile
    // hook: same seed, same substrate, bit-identical model.
    let compile_fresh = {
        let (env, weights, mapping) = (env, weights.clone(), mapping.clone());
        let (calibration, canaries) = (calibration.clone(), canaries.clone());
        let seed_rng = scale.rng(77);
        move || -> CompiledModel {
            env.compiler()
                .with_calibration(&calibration)
                .request(&weights, &mapping)
                .compile_with(&mut seed_rng.clone())
                .expect("compile")
                .with_canary_inputs(canaries.clone())
                .expect("canary freeze")
        }
    };

    let fresh = compile_fresh();
    let fresh_accuracy = fresh.accuracy(&test).expect("fresh scoring");

    let plan = ChaosPlan::generate(
        &ChaosConfig::new(CHAOS_SEED, fresh.rows(), fresh.classes())
            .with_horizon(HORIZON)
            .with_worker_panics(PANICS)
            .with_slow_batches(SLOW, Duration::from_micros(500))
            .with_stuck_cells(STUCK_CELLS, 0.0)
            .with_drift(DRIFT_T_S),
    );
    let (t_s, drift_seed) = plan.drift().expect("plan carries drift");
    let retention = RetentionModel::new(0.6, 0.3, 1e-3).expect("retention model");
    let aged = fresh
        .age_with(&retention, t_s, drift_seed)
        .expect("aging")
        .with_cell_faults(plan.cell_faults())
        .expect("stuck cells");
    let aged_accuracy = aged.accuracy(&test).expect("aged scoring");

    let scheduler = Arc::new(
        Scheduler::with_chaos(
            Arc::new(aged),
            None,
            SchedulerConfig::new(Parallelism::Fixed(1))
                .with_queue_capacity(TRACE_LEN)
                .with_batching(MAX_BATCH, Duration::ZERO)
                .with_respawn_backoff(Duration::ZERO, Duration::ZERO)
                .paused(),
            Some(plan.clone()),
        )
        .expect("valid scheduler config"),
    );
    let trace: Vec<Vec<f64>> = (0..TRACE_LEN)
        .map(|k| test.image(k % test.len()).to_vec())
        .collect();

    // Phase one: the degraded model serves while the plan panics workers
    // mid-drain. The supervisor requeues and respawns; nothing is lost.
    let (accepted1, answered1, errors1) = serve_phase(&scheduler, &trace);
    let panics = plan
        .panic_batches()
        .iter()
        .filter(|&&seq| seq < scheduler.batches_dispatched())
        .count();

    // Heal: canary breach → fixed-seed recompile → hot swap, while the
    // scheduler keeps running.
    let canary_before = scheduler
        .primary()
        .canary_accuracy()
        .expect("canary replay");
    let monitor = HealthMonitor::new(
        Arc::clone(&scheduler),
        HealthConfig::new(ACCURACY_FLOOR, Duration::from_millis(50)).expect("valid floor"),
        move || Ok(Arc::new(compile_fresh())),
    );
    let (canary_after, swapped) = match monitor.probe().expect("probe") {
        ProbeOutcome::Recovered { after, .. } => (after, true),
        ProbeOutcome::Healthy { canary_accuracy }
        | ProbeOutcome::RecompileFailed {
            canary_accuracy, ..
        } => (canary_accuracy, false),
    };

    // Phase two: traffic against the hot-swapped replica (the plan's
    // horizon is behind us, so this phase runs clean).
    let (accepted2, answered2, errors2) = serve_phase(&scheduler, &trace);
    let recovered_accuracy = scheduler
        .primary()
        .accuracy(&test)
        .expect("recovered scoring");

    let accepted = accepted1 + accepted2;
    let answered = answered1 + answered2;
    let typed_errors = errors1 + errors2;
    ChaosBenchResult {
        rows: scheduler.primary().rows(),
        cols: scheduler.primary().classes(),
        accepted,
        answered,
        typed_errors,
        lost_requests: accepted - answered - typed_errors,
        panics,
        fresh_accuracy,
        aged_accuracy,
        recovered_accuracy,
        canary_before,
        canary_after,
        swapped,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::common::json_field;

    #[test]
    fn chaos_run_loses_nothing_and_recovers_exactly() {
        let r = run(&Scale::bench());
        assert_eq!(r.accepted, 2 * TRACE_LEN);
        assert_eq!(r.lost_requests, 0, "accepted requests must all resolve");
        assert_eq!(r.answered + r.typed_errors, r.accepted);
        assert_eq!(r.panics, PANICS, "every planned panic fires");
        assert!(
            r.canary_before < 1.0,
            "drift must break the canaries (got {})",
            r.canary_before
        );
        assert!(r.swapped, "the monitor must recompile and swap");
        assert_eq!(r.canary_after, 1.0, "a fixed-seed recompile is perfect");
        assert_eq!(
            r.recovered_accuracy_delta_pp(),
            0.0,
            "bit-identical recompile ⇒ zero accuracy delta"
        );
        assert!(r.recovered_accuracy_delta_pp() <= 0.5, "CI ceiling");
    }

    #[test]
    fn chaos_run_is_deterministic() {
        assert_eq!(run(&Scale::bench()), run(&Scale::bench()));
    }

    #[test]
    fn render_and_json_carry_the_gated_fields() {
        let r = run(&Scale::bench());
        let s = r.render();
        assert!(s.contains("Self-healing chaos"));
        assert!(s.contains("Recovery"));
        let j = r.to_json();
        for key in [
            "rows",
            "cols",
            "accepted",
            "answered",
            "typed_errors",
            "lost_requests",
            "panics",
            "fresh_accuracy",
            "aged_accuracy",
            "recovered_accuracy",
            "recovered_accuracy_delta_pp",
            "canary_before",
            "canary_after",
            "swapped",
            "tables",
        ] {
            assert!(json_field(&j, key), "missing {key} in {j}");
        }
        assert_eq!(
            crate::gate::extract_number(&j, "lost_requests"),
            Some(0.0),
            "the gate must see zero lost requests"
        );
    }
}
