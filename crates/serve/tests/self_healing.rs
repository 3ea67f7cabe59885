//! Self-healing serving under injected faults: supervised workers,
//! exactly-once requeue, submit retries, canary-triggered recompiles and
//! hot swaps — all driven by deterministic [`ChaosPlan`]s so every run
//! is assertable.
//!
//! Obs counters are asserted with `>=` deltas: the registry is global
//! and tests in this binary run concurrently.

use std::sync::Arc;
use std::time::{Duration, Instant};

use vortex_device::drift::RetentionModel;
use vortex_device::DeviceParams;
use vortex_linalg::{Matrix, Xoshiro256PlusPlus};
use vortex_runtime::{CompiledModel, ReadOptions};
use vortex_serve::prelude::*;
use vortex_serve::ServeError;
use vortex_xbar::crossbar::CrossbarConfig;
use vortex_xbar::encoding::EncodingTable;
use vortex_xbar::pair::{DifferentialPair, WeightMapping};
use vortex_xbar::program::{program_with_protocol, ProgramOptions};

const ROWS: usize = 6;
const COLS: usize = 3;

/// A freshly compiled 6×3 model with a 24-probe canary set frozen in.
/// Pure function of its arguments — calling it twice yields bit-identical
/// models, which is what makes the recompile hook deterministic.
fn fresh_model() -> CompiledModel {
    let device = DeviceParams::default();
    let config = CrossbarConfig {
        r_wire: 8.0,
        ..CrossbarConfig::ideal(ROWS, COLS, device)
    };
    let mapping = WeightMapping::new(&device, 1.0).unwrap();
    let mut rng = Xoshiro256PlusPlus::seed_from_u64(42);
    let mut pair = DifferentialPair::fabricate(config, mapping, &mut rng).unwrap();
    let w = Matrix::from_fn(ROWS, COLS, |i, j| {
        ((i * COLS + j) as f64 * 0.53).sin() * 0.8
    });
    let (tp, tn) = pair.mapping().weights_to_targets(&w);
    let protocol = ProgramOptions::default();
    program_with_protocol(pair.pos_mut(), &tp, None, &protocol, &mut rng).unwrap();
    program_with_protocol(pair.neg_mut(), &tn, None, &protocol, &mut rng).unwrap();
    let assignment: Vec<usize> = (0..ROWS).collect();
    let calibration = vec![0.5; ROWS];
    CompiledModel::compile(
        &pair.freeze(),
        &assignment,
        &ReadOptions::new(Fidelity::Calibrated),
        Some(&calibration),
        EncodingTable::differential(pair.rows()),
    )
    .unwrap()
    .with_canary_inputs((0..24).map(input).collect())
    .unwrap()
}

/// The drift-aged variant the healing tests start from: canary accuracy
/// is below 1.0, so a floor of 1.0 always breaches.
fn aged_model() -> CompiledModel {
    let retention = RetentionModel::new(0.6, 0.3, 1e-3).unwrap();
    fresh_model().age_with(&retention, 1e8, 7).unwrap()
}

fn input(k: usize) -> Vec<f64> {
    (0..ROWS)
        .map(|i| ((i * 7 + k) as f64 * 0.37).sin().abs())
        .collect()
}

#[test]
fn injected_panic_loses_no_accepted_request() {
    let panics = vortex_obs::counter!("serve.worker_panics");
    let respawns = vortex_obs::counter!("serve.supervisor.respawns");
    let requeued = vortex_obs::counter!("serve.supervisor.requeued");
    let (panics0, respawns0, requeued0) = (panics.get(), respawns.get(), requeued.get());

    let model = Arc::new(fresh_model());
    let direct: Vec<u8> = (0..8).map(|k| model.infer(&input(k)).unwrap()).collect();

    // One panic somewhere in the first four batches; eight requests at
    // max_batch 2 dispatch exactly four, so the panic always fires.
    let plan = ChaosPlan::generate(
        &ChaosConfig::new(11, ROWS, COLS)
            .with_horizon(4)
            .with_worker_panics(1),
    );
    assert_eq!(plan.panic_batches().len(), 1);
    let scheduler = vortex_serve::Scheduler::with_chaos(
        Arc::clone(&model),
        None,
        SchedulerConfig::deterministic()
            .with_batching(2, Duration::ZERO)
            .with_queue_capacity(16)
            .paused(),
        Some(plan),
    )
    .unwrap();

    let tickets: Vec<Ticket> = (0..8)
        .map(|k| scheduler.try_submit(input(k), None).unwrap())
        .collect();
    scheduler.resume();
    let served: Vec<u8> = tickets
        .into_iter()
        .map(|t| t.wait().expect("requeued requests still answer").class)
        .collect();
    assert_eq!(served, direct, "healing changed a prediction");

    assert!(panics.get() - panics0 >= 1);
    assert!(respawns.get() - respawns0 >= 1);
    assert!(
        requeued.get() - requeued0 >= 2,
        "the crashed batch requeues"
    );
}

#[test]
fn second_crash_answers_with_typed_error_not_a_hang() {
    let crashed = vortex_obs::counter!("serve.supervisor.crashed");
    let crashed0 = crashed.get();

    // Horizon 2 with two panics pins the schedule: batch 0 panics, its
    // requeued retry (batch 1) panics again.
    let plan = ChaosPlan::generate(
        &ChaosConfig::new(3, ROWS, COLS)
            .with_horizon(2)
            .with_worker_panics(2),
    );
    assert_eq!(plan.panic_batches(), vec![0, 1]);
    let model = Arc::new(fresh_model());
    let scheduler = vortex_serve::Scheduler::with_chaos(
        Arc::clone(&model),
        None,
        SchedulerConfig::deterministic()
            .with_batching(2, Duration::ZERO)
            .with_queue_capacity(16)
            .paused(),
        Some(plan),
    )
    .unwrap();

    let tickets: Vec<Ticket> = (0..2)
        .map(|k| scheduler.try_submit(input(k), None).unwrap())
        .collect();
    scheduler.resume();
    for ticket in tickets {
        match ticket.wait() {
            Err(ServeError::WorkerCrashed) => {}
            other => panic!("expected WorkerCrashed, got {other:?}"),
        }
    }
    assert!(crashed.get() - crashed0 >= 2);

    // The pool healed: batch 2 is past the panic horizon and serves.
    assert!(scheduler.submit_wait(input(5)).is_ok());
}

#[test]
fn slow_batches_delay_but_still_answer() {
    let slow = vortex_obs::counter!("serve.chaos.slow_batches");
    let slow0 = slow.get();
    let plan = ChaosPlan::generate(
        &ChaosConfig::new(5, ROWS, COLS)
            .with_horizon(1)
            .with_slow_batches(1, Duration::from_millis(5)),
    );
    let scheduler = vortex_serve::Scheduler::with_chaos(
        Arc::new(fresh_model()),
        None,
        SchedulerConfig::deterministic(),
        Some(plan),
    )
    .unwrap();
    assert!(scheduler.submit_wait(input(0)).is_ok());
    assert!(slow.get() - slow0 >= 1);
}

#[test]
fn submit_retry_backs_off_then_exhausts_or_admits() {
    let exhausted = vortex_obs::counter!("serve.retry.exhausted");
    let attempts = vortex_obs::counter!("serve.retry.attempts");
    let (exhausted0, attempts0) = (exhausted.get(), attempts.get());

    let scheduler = Arc::new(
        Scheduler::new(
            Arc::new(fresh_model()),
            None,
            SchedulerConfig::deterministic()
                .with_queue_capacity(1)
                .paused(),
        )
        .unwrap(),
    );
    let _held = scheduler.try_submit(input(0), None).unwrap();

    // Paused and full: the policy runs dry and the last QueueFull surfaces.
    let policy = RetryPolicy::new(3, Duration::from_millis(1), Duration::from_millis(2)).unwrap();
    match scheduler.submit_with_retry(input(1), None, &policy) {
        Err(ServeError::QueueFull { capacity: 1 }) => {}
        other => panic!("expected QueueFull after exhaustion, got {other:?}"),
    }
    assert!(exhausted.get() - exhausted0 >= 1);
    assert!(attempts.get() - attempts0 >= 2);

    // A deadline that cannot survive the next backoff fails fast.
    let slow_policy = RetryPolicy::new(5, Duration::from_secs(1), Duration::from_secs(1)).unwrap();
    match scheduler.submit_with_retry(
        input(2),
        Some(Instant::now() + Duration::from_millis(5)),
        &slow_policy,
    ) {
        Err(ServeError::Timeout { stage: "submit" }) => {}
        other => panic!("expected fast-fail Timeout, got {other:?}"),
    }

    // Seeded jitter must not weaken the fast-fail: the jittered delay is
    // still bounded below by the base, which outlives this deadline.
    match scheduler.submit_with_retry(
        input(2),
        Some(Instant::now() + Duration::from_millis(5)),
        &slow_policy.with_jitter(9),
    ) {
        Err(ServeError::Timeout { stage: "submit" }) => {}
        other => panic!("expected fast-fail Timeout with jitter, got {other:?}"),
    }

    // Resume mid-retry: the backlog drains and a retried submit lands.
    let resumer = {
        let scheduler = Arc::clone(&scheduler);
        std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(5));
            scheduler.resume();
        })
    };
    let patient =
        RetryPolicy::new(200, Duration::from_millis(1), Duration::from_millis(4)).unwrap();
    let ticket = scheduler
        .submit_with_retry(input(3), None, &patient)
        .expect("retry admits once the queue drains");
    assert!(ticket.wait().is_ok());
    resumer.join().unwrap();
}

#[test]
fn canary_breach_recompiles_and_hot_swaps_without_draining() {
    let swaps = vortex_obs::counter!("serve.health.swaps");
    let breaches = vortex_obs::counter!("serve.health.floor_breaches");
    let (swaps0, breaches0) = (swaps.get(), breaches.get());

    let fresh = fresh_model();
    let aged = aged_model();
    let before_expected = aged.canary_accuracy().unwrap();
    assert!(
        before_expected < 1.0,
        "drift must degrade the canaries for this test to bite"
    );
    let fresh_direct: Vec<u8> = (0..8).map(|k| fresh.infer(&input(k)).unwrap()).collect();

    let scheduler =
        Arc::new(Scheduler::new(Arc::new(aged), None, SchedulerConfig::deterministic()).unwrap());
    // Traffic against the degraded model is served (degraded), not shed.
    assert!(scheduler.submit_wait(input(0)).is_ok());

    let monitor = HealthMonitor::new(
        Arc::clone(&scheduler),
        HealthConfig::new(1.0, Duration::from_millis(50)).unwrap(),
        move || Ok::<_, Box<dyn std::error::Error + Send + Sync>>(Arc::new(fresh_model())),
    );
    match monitor.probe().unwrap() {
        ProbeOutcome::Recovered { before, after } => {
            assert_eq!(
                before, before_expected,
                "probe must measure the aged canaries"
            );
            assert_eq!(
                after, 1.0,
                "a fixed-seed recompile answers its own canaries"
            );
        }
        other => panic!("expected Recovered, got {other:?}"),
    }
    assert!(swaps.get() - swaps0 >= 1);
    assert!(breaches.get() - breaches0 >= 1);

    // The running scheduler now serves the fresh replica, bit for bit,
    // with no restart in between.
    assert_eq!(scheduler.primary().canary_accuracy().unwrap(), 1.0);
    let served: Vec<u8> = (0..8)
        .map(|k| scheduler.submit_wait(input(k)).unwrap().class)
        .collect();
    assert_eq!(served, fresh_direct);

    // A healthy model re-probes as healthy — no swap loop.
    match monitor.probe().unwrap() {
        ProbeOutcome::Healthy { canary_accuracy } => assert_eq!(canary_accuracy, 1.0),
        other => panic!("expected Healthy after the swap, got {other:?}"),
    }
}

#[test]
fn background_health_loop_heals_and_stops_promptly() {
    let scheduler = Arc::new(
        Scheduler::new(
            Arc::new(aged_model()),
            None,
            SchedulerConfig::deterministic(),
        )
        .unwrap(),
    );
    let monitor = HealthMonitor::new(
        Arc::clone(&scheduler),
        HealthConfig::new(1.0, Duration::from_millis(2)).unwrap(),
        move || Ok::<_, Box<dyn std::error::Error + Send + Sync>>(Arc::new(fresh_model())),
    );
    let mut handle = monitor.run_background();
    let deadline = Instant::now() + Duration::from_secs(5);
    while scheduler.primary().canary_accuracy().unwrap() < 1.0 {
        assert!(Instant::now() < deadline, "background probe never healed");
        std::thread::sleep(Duration::from_millis(2));
    }
    handle.stop();
    // Stop is idempotent and the scheduler keeps serving afterwards.
    handle.stop();
    assert!(scheduler.submit_wait(input(1)).is_ok());
}

#[test]
fn failed_recompile_leaves_the_degraded_model_serving() {
    let scheduler = Arc::new(
        Scheduler::new(
            Arc::new(aged_model()),
            None,
            SchedulerConfig::deterministic(),
        )
        .unwrap(),
    );
    let monitor = HealthMonitor::new(
        Arc::clone(&scheduler),
        HealthConfig::new(1.0, Duration::from_millis(50)).unwrap(),
        move || {
            Err::<Arc<CompiledModel>, Box<dyn std::error::Error + Send + Sync>>(
                "pipeline unavailable".into(),
            )
        },
    );
    match monitor.probe().unwrap() {
        ProbeOutcome::RecompileFailed {
            canary_accuracy,
            error,
        } => {
            assert!(canary_accuracy < 1.0);
            assert!(error.contains("pipeline unavailable"));
        }
        other => panic!("expected RecompileFailed, got {other:?}"),
    }
    // Degraded but alive beats dead: requests still serve.
    assert!(scheduler.submit_wait(input(0)).is_ok());
}

#[test]
fn swap_primary_rejects_a_shape_mismatch() {
    let scheduler = Scheduler::new(
        Arc::new(fresh_model()),
        None,
        SchedulerConfig::deterministic(),
    )
    .unwrap();
    let device = DeviceParams::default();
    let config = CrossbarConfig {
        r_wire: 8.0,
        ..CrossbarConfig::ideal(4, COLS, device)
    };
    let mapping = WeightMapping::new(&device, 1.0).unwrap();
    let mut rng = Xoshiro256PlusPlus::seed_from_u64(1);
    let mut pair = DifferentialPair::fabricate(config, mapping, &mut rng).unwrap();
    let w = Matrix::from_fn(4, COLS, |i, j| ((i + j) as f64 * 0.3).cos() * 0.5);
    let (tp, tn) = pair.mapping().weights_to_targets(&w);
    let protocol = ProgramOptions::default();
    program_with_protocol(pair.pos_mut(), &tp, None, &protocol, &mut rng).unwrap();
    program_with_protocol(pair.neg_mut(), &tn, None, &protocol, &mut rng).unwrap();
    let wrong_shape = CompiledModel::compile(
        &pair.freeze(),
        &[0, 1, 2, 3],
        &ReadOptions::new(Fidelity::Calibrated),
        Some(&[0.5; 4]),
        EncodingTable::differential(pair.rows()),
    )
    .unwrap();
    match scheduler.swap_primary(Arc::new(wrong_shape)) {
        Err(ServeError::InvalidParameter { name: "model", .. }) => {}
        other => panic!("expected InvalidParameter, got {other:?}"),
    }
}

#[test]
fn panicked_pool_task_poisons_nothing_and_the_slot_is_reusable() {
    use vortex_nn::executor::run_trials;
    use vortex_nn::pool::WorkerPool;

    let job_panics = vortex_obs::counter!("pool.job_panics");
    let job_panics0 = job_panics.get();

    // Baselines before any fault: the model's own labels and a serial
    // Monte-Carlo run.
    let model = Arc::new(fresh_model());
    let direct: Vec<u8> = (0..6).map(|k| model.infer(&input(k)).unwrap()).collect();
    let f = |_: usize, r: &mut Xoshiro256PlusPlus| r.next_u64();
    let mut rng = Xoshiro256PlusPlus::seed_from_u64(23);
    let want_mc = run_trials(&mut rng, 31, Parallelism::Serial, f);

    // Fault 1: a chaos-injected pump panic on the shared global pool.
    let plan = ChaosPlan::generate(
        &ChaosConfig::new(29, ROWS, COLS)
            .with_horizon(3)
            .with_worker_panics(1),
    );
    let scheduler = vortex_serve::Scheduler::with_chaos(
        Arc::clone(&model),
        None,
        SchedulerConfig::deterministic()
            .with_batching(2, Duration::ZERO)
            .with_queue_capacity(16)
            .paused(),
        Some(plan),
    )
    .unwrap();
    let tickets: Vec<Ticket> = (0..6)
        .map(|k| scheduler.try_submit(input(k), None).unwrap())
        .collect();
    scheduler.resume();
    let served: Vec<u8> = tickets
        .into_iter()
        .map(|t| t.wait().expect("pump panic must not lose requests").class)
        .collect();
    assert_eq!(served, direct);

    // Fault 2: detached jobs that panic *inside the pool itself* — the
    // worker's catch_unwind must absorb them without killing the thread.
    for _ in 0..3 {
        WorkerPool::global().submit(|| panic!("poison attempt"));
    }
    let deadline = Instant::now() + Duration::from_secs(5);
    while job_panics.get() - job_panics0 < 3 {
        assert!(Instant::now() < deadline, "pool never absorbed the panics");
        std::thread::sleep(Duration::from_millis(1));
    }

    // Nothing is poisoned and every slot is reusable: the same pool still
    // runs a bit-exact executor fan-out and keeps serving the scheduler.
    let mut rng = Xoshiro256PlusPlus::seed_from_u64(23);
    let got_mc = run_trials(&mut rng, 31, Parallelism::Fixed(8), f);
    assert_eq!(want_mc, got_mc, "executor drifted after pool panics");
    for (k, want) in direct.iter().enumerate() {
        assert_eq!(scheduler.submit_wait(input(k)).unwrap().class, *want);
    }
}

#[test]
fn policy_monitor_refreshes_a_healthy_model_without_failing() {
    use vortex_serve::lifetime::{Periodic, PolicyObservation, RecalibrationPolicy};

    // A healthy primary (canary accuracy 1.0). The classic monitor never
    // recompiles it; a periodic policy with a zero interval refreshes it
    // on every probe — and the equal-accuracy replacement is accepted,
    // because a scheduled refresh only demands "no worse", not the
    // strict improvement a floor breach does.
    let scheduler = Arc::new(
        Scheduler::new(
            Arc::new(fresh_model()),
            None,
            SchedulerConfig::deterministic(),
        )
        .unwrap(),
    );
    let classic = HealthMonitor::new(
        Arc::clone(&scheduler),
        HealthConfig::new(0.9, Duration::from_millis(50)).unwrap(),
        move || Ok::<_, Box<dyn std::error::Error + Send + Sync>>(Arc::new(fresh_model())),
    );
    assert!(matches!(
        classic.probe().unwrap(),
        ProbeOutcome::Healthy { .. }
    ));

    struct EveryProbe;
    impl RecalibrationPolicy for EveryProbe {
        fn name(&self) -> &'static str {
            "every-probe"
        }
        fn decide(&mut self, _obs: &PolicyObservation) -> bool {
            true
        }
    }
    let refresher = HealthMonitor::with_policy(
        Arc::clone(&scheduler),
        HealthConfig::new(0.9, Duration::from_millis(50)).unwrap(),
        move || Ok::<_, Box<dyn std::error::Error + Send + Sync>>(Arc::new(fresh_model())),
        EveryProbe,
    );
    match refresher.probe().unwrap() {
        ProbeOutcome::Recovered { before, after } => {
            assert_eq!(before, 1.0);
            assert_eq!(after, 1.0, "equal accuracy is an accepted refresh");
        }
        other => panic!("expected a scheduled refresh to swap, got {other:?}"),
    }
    // The interval-based policy exists end to end too: a huge interval
    // never fires on a young chip.
    let lazy = HealthMonitor::with_policy(
        Arc::clone(&scheduler),
        HealthConfig::new(0.9, Duration::from_millis(50)).unwrap(),
        move || Ok::<_, Box<dyn std::error::Error + Send + Sync>>(Arc::new(fresh_model())),
        Periodic::new(3600.0).unwrap(),
    );
    assert!(matches!(
        lazy.probe().unwrap(),
        ProbeOutcome::Healthy { .. }
    ));
    assert!(scheduler.submit_wait(input(2)).is_ok());
}

#[test]
fn predictions_are_bit_identical_across_pool_sizes_under_chaos() {
    let model = Arc::new(fresh_model());
    let trace: Vec<Vec<f64>> = (0..40).map(input).collect();
    let direct: Vec<u8> = trace.iter().map(|x| model.infer(x).unwrap()).collect();

    // One panic plus one slowdown in the first eight batches: enough to
    // exercise the healing path in every pool without risking a
    // double-crash (a single planned panic can never fire twice).
    let config = ChaosConfig::new(17, ROWS, COLS)
        .with_horizon(8)
        .with_worker_panics(1)
        .with_slow_batches(1, Duration::from_millis(1));

    for pool in [Parallelism::Fixed(1), Parallelism::Fixed(4)] {
        let scheduler = vortex_serve::Scheduler::with_chaos(
            Arc::clone(&model),
            None,
            SchedulerConfig::new(pool)
                .with_queue_capacity(64)
                .with_batching(8, Duration::from_micros(100))
                .with_respawn_backoff(Duration::ZERO, Duration::ZERO),
            Some(ChaosPlan::generate(&config)),
        )
        .unwrap();
        let tickets: Vec<Ticket> = trace
            .iter()
            .map(|x| scheduler.try_submit(x.clone(), None).unwrap())
            .collect();
        let served: Vec<u8> = tickets
            .into_iter()
            .map(|t| t.wait().expect("chaos must not lose requests").class)
            .collect();
        assert_eq!(served, direct, "pool {pool:?} diverged under chaos");
    }
}
