//! Scheduler edge cases: backpressure, deadlines, the degradation
//! ladder, shutdown, and pool-size invariance of predictions.
//!
//! Every test that needs an exact queue shape uses a paused scheduler:
//! admissions land while the workers sleep, so queue depths — and with
//! them every admission decision and ladder transition — are fully
//! deterministic.

use std::sync::Arc;
use std::time::{Duration, Instant};

use vortex_device::DeviceParams;
use vortex_linalg::{Matrix, Xoshiro256PlusPlus};
use vortex_runtime::{CompiledModel, Fidelity, ReadOptions};
use vortex_serve::prelude::*;
use vortex_xbar::crossbar::CrossbarConfig;
use vortex_xbar::encoding::EncodingTable;
use vortex_xbar::pair::{DifferentialPair, WeightMapping};
use vortex_xbar::program::{program_with_protocol, ProgramOptions};

const ROWS: usize = 6;
const COLS: usize = 3;

fn compiled(fidelity: Fidelity) -> Arc<CompiledModel> {
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
    Arc::new(
        CompiledModel::compile(
            &pair.freeze(),
            &assignment,
            &ReadOptions::new(fidelity),
            Some(&calibration),
            EncodingTable::differential(pair.rows()),
        )
        .unwrap(),
    )
}

fn input(k: usize) -> Vec<f64> {
    (0..ROWS)
        .map(|i| ((i * 7 + k) as f64 * 0.37).sin().abs())
        .collect()
}

#[test]
fn zero_capacity_queue_rejects_immediately() {
    let scheduler = Scheduler::new(
        compiled(Fidelity::Calibrated),
        None,
        SchedulerConfig::deterministic().with_queue_capacity(0),
    )
    .unwrap();
    match scheduler.try_submit(input(0), None) {
        Err(ServeError::QueueFull { capacity: 0 }) => {}
        other => panic!("expected QueueFull, got {other:?}"),
    }
}

#[test]
fn expired_deadline_is_rejected_at_submit() {
    let scheduler = Scheduler::new(
        compiled(Fidelity::Calibrated),
        None,
        SchedulerConfig::deterministic(),
    )
    .unwrap();
    match scheduler.try_submit(input(0), Some(Instant::now())) {
        Err(ServeError::Timeout { stage: "submit" }) => {}
        other => panic!("expected submit-stage Timeout, got {other:?}"),
    }
}

#[test]
fn deadline_can_expire_while_queued() {
    let scheduler = Scheduler::new(
        compiled(Fidelity::Calibrated),
        None,
        SchedulerConfig::deterministic().paused(),
    )
    .unwrap();
    let ticket = scheduler
        .try_submit(input(0), Some(Instant::now() + Duration::from_millis(5)))
        .unwrap();
    std::thread::sleep(Duration::from_millis(20));
    scheduler.resume();
    match ticket.wait() {
        Err(ServeError::Timeout { stage: "queue" }) => {}
        other => panic!("expected queue-stage Timeout, got {other:?}"),
    }
}

#[test]
fn wrong_input_length_is_rejected() {
    let scheduler = Scheduler::new(
        compiled(Fidelity::Calibrated),
        None,
        SchedulerConfig::deterministic(),
    )
    .unwrap();
    match scheduler.try_submit(vec![0.0; ROWS + 1], None) {
        Err(ServeError::InvalidParameter { name: "input", .. }) => {}
        other => panic!("expected InvalidParameter, got {other:?}"),
    }
}

#[test]
fn backpressure_engages_at_capacity_and_admits_after_drain() {
    let scheduler = Scheduler::new(
        compiled(Fidelity::Calibrated),
        None,
        SchedulerConfig::deterministic()
            .with_queue_capacity(4)
            .paused(),
    )
    .unwrap();
    let tickets: Vec<Ticket> = (0..4)
        .map(|k| scheduler.try_submit(input(k), None).unwrap())
        .collect();
    assert_eq!(scheduler.queue_depth(), 4);
    match scheduler.try_submit(input(4), None) {
        Err(ServeError::QueueFull { capacity: 4 }) => {}
        other => panic!("expected QueueFull, got {other:?}"),
    }
    scheduler.resume();
    for ticket in tickets {
        assert!(ticket.wait().is_ok());
    }
    // Queue drained: admission works again.
    assert!(scheduler.submit_wait(input(5)).is_ok());
}

#[test]
fn degradation_engages_under_overload_and_recovers() {
    let downgraded = vortex_obs::counter!("serve.downgraded");
    let entered = vortex_obs::counter!("serve.degradation_entered");
    let exited = vortex_obs::counter!("serve.degradation_exited");
    let (downgraded0, entered0, exited0) = (downgraded.get(), entered.get(), exited.get());

    let scheduler = Scheduler::new(
        compiled(Fidelity::Exact),
        Some(compiled(Fidelity::Calibrated)),
        SchedulerConfig::new(Parallelism::Fixed(1))
            .with_queue_capacity(32)
            .with_batching(64, Duration::ZERO)
            .with_watermarks(8, 2)
            .paused(),
    )
    .unwrap();

    // Burst 12 requests into the paused queue: depths 1..=12. The ladder
    // engages on the push that reaches depth 8, so requests 8..=12 (five
    // of them) are admitted degraded.
    let tickets: Vec<Ticket> = (0..12)
        .map(|k| scheduler.try_submit(input(k), None).unwrap())
        .collect();
    assert!(scheduler.is_degraded());

    scheduler.resume();
    let predictions: Vec<Prediction> = tickets.into_iter().map(|t| t.wait().unwrap()).collect();
    for (k, p) in predictions.iter().enumerate() {
        if k < 7 {
            assert!(!p.downgraded, "request {k} should have stayed exact");
            assert_eq!(p.fidelity, Fidelity::Exact);
        } else {
            assert!(p.downgraded, "request {k} should have been downgraded");
            assert_eq!(p.fidelity, Fidelity::Calibrated);
        }
        // The whole burst dispatched as one micro-batch.
        assert_eq!(p.batch_size, 12);
    }

    // Draining the burst crossed the low-water mark: the ladder released
    // and new admissions are exact again.
    assert!(!scheduler.is_degraded());
    let probe = scheduler.submit_wait(input(99)).unwrap();
    assert!(!probe.downgraded);
    assert_eq!(probe.fidelity, Fidelity::Exact);

    // This test is the only one with watermarks enabled, so the ladder
    // counters moved by exactly this test's transitions.
    assert_eq!(downgraded.get() - downgraded0, 5);
    assert_eq!(entered.get() - entered0, 1);
    assert_eq!(exited.get() - exited0, 1);
}

#[test]
fn predictions_are_bit_identical_across_pool_sizes() {
    let model = compiled(Fidelity::Calibrated);
    let trace: Vec<Vec<f64>> = (0..40).map(input).collect();
    let direct: Vec<u8> = trace.iter().map(|x| model.infer(x).unwrap()).collect();

    for pool in [Parallelism::Fixed(1), Parallelism::Fixed(4)] {
        let scheduler = Scheduler::new(
            Arc::clone(&model),
            None,
            SchedulerConfig::new(pool)
                .with_queue_capacity(64)
                .with_batching(8, Duration::from_micros(100)),
        )
        .unwrap();
        let tickets: Vec<Ticket> = trace
            .iter()
            .map(|x| scheduler.try_submit(x.clone(), None).unwrap())
            .collect();
        let served: Vec<u8> = tickets
            .into_iter()
            .map(|t| t.wait().unwrap().class)
            .collect();
        assert_eq!(
            served, direct,
            "pool {pool:?} diverged from direct inference"
        );
    }
}

#[test]
fn shutdown_answers_queued_requests_and_closes_admission() {
    let scheduler = Scheduler::new(
        compiled(Fidelity::Calibrated),
        None,
        SchedulerConfig::deterministic().paused(),
    )
    .unwrap();
    let tickets: Vec<Ticket> = (0..3)
        .map(|k| scheduler.try_submit(input(k), None).unwrap())
        .collect();
    scheduler.shutdown();
    for ticket in tickets {
        match ticket.wait() {
            Err(ServeError::ShuttingDown) => {}
            other => panic!("expected ShuttingDown, got {other:?}"),
        }
    }
    match scheduler.try_submit(input(9), None) {
        Err(ServeError::ShuttingDown) => {}
        other => panic!("expected ShuttingDown, got {other:?}"),
    }
}

#[test]
fn shutdown_rejection_outranks_backpressure() {
    // Regression: a closed scheduler must reject with the typed
    // ShuttingDown error even when the queue was at capacity at close —
    // QueueFull would invite pointless retries against a dead scheduler.
    let scheduler = Scheduler::new(
        compiled(Fidelity::Calibrated),
        None,
        SchedulerConfig::deterministic()
            .with_queue_capacity(2)
            .paused(),
    )
    .unwrap();
    let tickets: Vec<Ticket> = (0..2)
        .map(|k| scheduler.try_submit(input(k), None).unwrap())
        .collect();
    match scheduler.try_submit(input(2), None) {
        Err(ServeError::QueueFull { capacity: 2 }) => {}
        other => panic!("expected QueueFull before shutdown, got {other:?}"),
    }
    scheduler.shutdown();
    match scheduler.try_submit(input(3), None) {
        Err(ServeError::ShuttingDown) => {}
        other => panic!("expected ShuttingDown after shutdown, got {other:?}"),
    }
    for ticket in tickets {
        match ticket.wait() {
            Err(ServeError::ShuttingDown) => {}
            other => panic!("expected ShuttingDown for drained requests, got {other:?}"),
        }
    }
}

#[test]
fn invalid_configurations_are_rejected() {
    let model = compiled(Fidelity::Exact);
    let fallback = compiled(Fidelity::Calibrated);

    let zero_batch = SchedulerConfig::deterministic().with_batching(0, Duration::ZERO);
    assert!(matches!(
        Scheduler::new(Arc::clone(&model), None, zero_batch),
        Err(ServeError::InvalidParameter {
            name: "max_batch",
            ..
        })
    ));

    let no_fallback = SchedulerConfig::deterministic().with_watermarks(8, 2);
    assert!(matches!(
        Scheduler::new(Arc::clone(&model), None, no_fallback),
        Err(ServeError::InvalidParameter {
            name: "fallback",
            ..
        })
    ));

    let inverted = SchedulerConfig::deterministic().with_watermarks(2, 8);
    assert!(matches!(
        Scheduler::new(Arc::clone(&model), Some(Arc::clone(&fallback)), inverted),
        Err(ServeError::InvalidParameter {
            name: "high_water",
            ..
        })
    ));
}
