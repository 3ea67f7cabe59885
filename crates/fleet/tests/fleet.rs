//! Fleet integration tests: routing determinism across pool sizes,
//! hot-swap atomicity under concurrent traffic, drain transparency, and
//! end-to-end ensemble voting.
//!
//! Models are built straight from the crossbar primitives (no training)
//! so each test fabricates its replicas in milliseconds; every replica
//! programs the *same* logical weights from a *different* fabrication
//! seed — the fleet's whole premise in miniature.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use vortex_device::DeviceParams;
use vortex_fleet::prelude::*;
use vortex_linalg::{Matrix, Xoshiro256PlusPlus};
use vortex_nn::pool::WorkerPool;
use vortex_runtime::{CompiledModel, Fidelity, ReadOptions};
use vortex_xbar::crossbar::CrossbarConfig;
use vortex_xbar::encoding::EncodingTable;
use vortex_xbar::pair::{DifferentialPair, WeightMapping};
use vortex_xbar::program::{program_with_protocol, ProgramOptions};

const ROWS: usize = 6;
const COLS: usize = 3;

/// One simulated chip: the shared logical weights programmed under the
/// given fabrication seed.
fn chip(seed: u64) -> Arc<CompiledModel> {
    let device = DeviceParams::default();
    let config = CrossbarConfig {
        r_wire: 8.0,
        ..CrossbarConfig::ideal(ROWS, COLS, device)
    };
    let mapping = WeightMapping::new(&device, 1.0).unwrap();
    let mut rng = Xoshiro256PlusPlus::seed_from_u64(seed);
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
            &ReadOptions::new(Fidelity::Calibrated),
            Some(&calibration),
            EncodingTable::differential(pair.rows()),
        )
        .unwrap(),
    )
}

fn chips(n: usize) -> Vec<(u64, Arc<CompiledModel>)> {
    (0..n as u64).map(|s| (s + 100, chip(s + 100))).collect()
}

fn input(k: usize) -> Vec<f64> {
    (0..ROWS)
        .map(|i| ((i * 7 + k) as f64 * 0.37).sin().abs())
        .collect()
}

/// The replica sequence a serialized caller observes must not depend on
/// the worker-pool size underneath — the routing decision happens at
/// submit, not at dispatch.
#[test]
fn routing_is_deterministic_across_pool_sizes_1_4_8() {
    for policy in [RoutingPolicy::RoundRobin, RoutingPolicy::ConsistentHash] {
        let mut sequences: Vec<Vec<usize>> = Vec::new();
        for pool_size in [1usize, 4, 8] {
            let pool = Arc::new(WorkerPool::new(pool_size));
            let fleet = Fleet::on_pool(
                pool,
                chips(3),
                FleetConfig::new(policy).with_scheduler(SchedulerConfig::deterministic()),
            )
            .unwrap();
            let mut sequence = Vec::new();
            for k in 0..60u64 {
                let (replica, ticket) = fleet
                    .submit(k.wrapping_mul(0x9E37), input(k as usize), None)
                    .unwrap();
                ticket.wait().unwrap();
                sequence.push(replica);
            }
            fleet.shutdown();
            sequences.push(sequence);
        }
        assert_eq!(
            sequences[0], sequences[1],
            "{policy:?}: pool 1 vs 4 disagree"
        );
        assert_eq!(
            sequences[1], sequences[2],
            "{policy:?}: pool 4 vs 8 disagree"
        );
        match policy {
            RoutingPolicy::RoundRobin => {
                // Strict rotation: replica (n mod 3) for the n-th submit.
                assert!(sequences[0].iter().enumerate().all(|(n, &r)| r == n % 3));
            }
            _ => {
                // Consistent hashing spreads the 60 distinct keys.
                let mut seen = [false; 3];
                for &r in &sequences[0] {
                    seen[r] = true;
                }
                assert!(seen.iter().all(|&s| s), "some replica never keyed");
            }
        }
    }
}

/// Hammer one replica with reads while another thread hot-swaps its
/// model back and forth: every answer must equal the old model's or the
/// new model's prediction for that input — a torn model (half-old,
/// half-new state) would produce something else.
#[test]
fn hot_swap_under_concurrent_traffic_never_tears_the_model() {
    let old = chip(100);
    let new = chip(777);
    // Offline ground truth from each frozen chip.
    let old_pred: Vec<u8> = (0..32).map(|k| old.infer(&input(k)).unwrap()).collect();
    let new_pred: Vec<u8> = (0..32).map(|k| new.infer(&input(k)).unwrap()).collect();

    let pool = Arc::new(WorkerPool::new(4));
    let fleet = Arc::new(
        Fleet::on_pool(
            pool,
            vec![(100, Arc::clone(&old))],
            FleetConfig::new(RoutingPolicy::RoundRobin).with_scheduler(
                SchedulerConfig::new(Parallelism::Fixed(2)).with_queue_capacity(256),
            ),
        )
        .unwrap(),
    );

    let stop = Arc::new(AtomicBool::new(false));
    let swapper = {
        let fleet = Arc::clone(&fleet);
        let stop = Arc::clone(&stop);
        let (old, new) = (Arc::clone(&old), Arc::clone(&new));
        std::thread::spawn(move || {
            let mut flips = 0u32;
            while !stop.load(Ordering::Relaxed) {
                let model = if flips % 2 == 0 { &new } else { &old };
                fleet.swap_replica(0, Arc::clone(model)).unwrap();
                flips += 1;
                std::thread::yield_now();
            }
        })
    };

    for round in 0..50 {
        let tickets: Vec<(usize, Ticket)> = (0..32)
            .map(|k| {
                let (_, t) = fleet
                    .submit((round * 32 + k) as u64, input(k), None)
                    .unwrap();
                (k, t)
            })
            .collect();
        for (k, ticket) in tickets {
            let p = ticket.wait().unwrap();
            assert!(
                p.class == old_pred[k] || p.class == new_pred[k],
                "request {k}: class {} is neither old ({}) nor new ({}) — torn model",
                p.class,
                old_pred[k],
                new_pred[k]
            );
        }
    }
    stop.store(true, Ordering::Relaxed);
    swapper.join().unwrap();
    fleet.shutdown();
}

/// Draining a replica must (a) let its in-flight requests finish, (b)
/// route every new request around it, and (c) be reversible.
#[test]
fn drain_routes_around_a_replica_without_losing_in_flight_requests() {
    let pool = Arc::new(WorkerPool::new(4));
    let fleet = Arc::new(
        Fleet::on_pool(
            pool,
            chips(3),
            FleetConfig::new(RoutingPolicy::RoundRobin).with_scheduler(
                SchedulerConfig::deterministic()
                    .with_queue_capacity(64)
                    .paused(),
            ),
        )
        .unwrap(),
    );

    // Backlog lands while every pump sleeps: four requests per replica.
    let tickets: Vec<Ticket> = (0..12)
        .map(|k| fleet.submit(k as u64, input(k), None).unwrap().1)
        .collect();
    assert!(fleet.queue_depths().iter().all(|&d| d == 4));

    // Drain replica 1 from another thread; it must block until the
    // backlog empties, which only happens once the pumps resume.
    let drainer = {
        let fleet = Arc::clone(&fleet);
        std::thread::spawn(move || fleet.drain(1))
    };
    while fleet.status(1) != ReplicaStatus::Draining {
        std::thread::yield_now();
    }
    fleet.resume_all();
    drainer.join().unwrap();

    // (a) every in-flight request answered.
    for t in tickets {
        t.wait().unwrap();
    }
    // (b) new traffic routes around the draining replica…
    assert_eq!(fleet.status(1), ReplicaStatus::Draining);
    assert_eq!(fleet.routable(), vec![true, false, true]);
    for k in 0..10 {
        let (replica, ticket) = fleet.submit(k as u64, input(k), None).unwrap();
        assert_ne!(replica, 1, "drained replica took new traffic");
        ticket.wait().unwrap();
    }
    // …and an ensemble read skips it too.
    let verdict = fleet.ensemble_submit(input(0), 3).unwrap().wait().unwrap();
    assert_eq!(
        verdict.votes.iter().map(|v| v.replica).collect::<Vec<_>>(),
        vec![0, 2]
    );

    // (c) undrain returns it to rotation.
    fleet.undrain(1);
    assert_eq!(fleet.status(1), ReplicaStatus::Serving);
    let picks: Vec<usize> = (0..6)
        .map(|k| {
            let (replica, t) = fleet.submit(k as u64, input(k), None).unwrap();
            t.wait().unwrap();
            replica
        })
        .collect();
    assert!(picks.contains(&1), "undrained replica never rejoined");
    fleet.shutdown();
}

/// Healing a drift-aged replica hot-swaps a fresh compile in
/// (`Recovered`); healing a fresh one leaves it in place (`Healthy`).
#[test]
fn heal_replica_recovers_a_drifted_chip_and_keeps_a_healthy_one() {
    use std::time::Duration;
    use vortex_device::drift::RetentionModel;

    // Replica 0 serves a drift-aged chip with a frozen canary set; the
    // rest are fresh.
    let with_canaries = |m: Arc<CompiledModel>| {
        Arc::new(
            (*m).clone()
                .with_canary_inputs((0..16).map(input).collect())
                .unwrap(),
        )
    };
    let fresh0 = with_canaries(chip(100));
    let retention = RetentionModel::new(0.6, 0.3, 1e-3).unwrap();
    let aged0 = Arc::new(fresh0.age_with(&retention, 1e8, 7).unwrap());
    assert!(aged0.canary_accuracy().unwrap() < 1.0);
    let models = vec![
        (100u64, aged0),
        (101, with_canaries(chip(101))),
        (102, with_canaries(chip(102))),
    ];
    let pool = Arc::new(WorkerPool::new(2));
    let fleet = Fleet::on_pool(
        pool,
        models,
        FleetConfig::new(RoutingPolicy::RoundRobin)
            .with_scheduler(SchedulerConfig::deterministic()),
    )
    .unwrap();

    let replacement = fresh0;
    let outcome = fleet
        .heal_replica(
            0,
            HealthConfig::new(1.0, Duration::from_millis(10)).unwrap(),
            move || Ok(Arc::clone(&replacement)),
        )
        .unwrap();
    assert!(matches!(outcome, ProbeOutcome::Recovered { .. }));

    let replacement1 = with_canaries(chip(101));
    let outcome = fleet
        .heal_replica(
            1,
            HealthConfig::new(0.5, Duration::from_millis(10)).unwrap(),
            move || Ok(Arc::clone(&replacement1)),
        )
        .unwrap();
    assert!(matches!(outcome, ProbeOutcome::Healthy { .. }));
    fleet.shutdown();
}

/// The served ensemble verdict must equal the offline majority vote of
/// the individual chips, leg for leg.
#[test]
fn ensemble_read_votes_exactly_like_the_offline_models() {
    let models = chips(5);
    let pool = Arc::new(WorkerPool::new(4));
    let fleet = Fleet::on_pool(
        pool,
        models.clone(),
        FleetConfig::new(RoutingPolicy::RoundRobin)
            .with_scheduler(SchedulerConfig::deterministic()),
    )
    .unwrap();

    for k in 0..24 {
        let x = input(k);
        let offline: Vec<u8> = models.iter().map(|(_, m)| m.infer(&x).unwrap()).collect();
        let expected = majority_vote(&offline).unwrap();
        let verdict = fleet.ensemble_submit(x, 5).unwrap().wait().unwrap();
        assert_eq!(verdict.class, expected, "sample {k}");
        assert_eq!(verdict.votes.len(), 5);
        for (leg, vote) in verdict.votes.iter().enumerate() {
            assert_eq!(vote.replica, leg, "legs in fleet-index order");
            assert_eq!(vote.class, offline[leg], "leg {leg} of sample {k}");
        }
        assert_eq!(
            verdict.unanimous,
            offline.iter().all(|&c| c == expected),
            "sample {k}"
        );
    }

    // k larger than the fleet clamps; k = 0 is rejected.
    let verdict = fleet.ensemble_submit(input(0), 99).unwrap().wait().unwrap();
    assert_eq!(verdict.votes.len(), 5);
    assert!(matches!(
        fleet.ensemble_submit(input(0), 0),
        Err(FleetError::InvalidParameter { name: "k", .. })
    ));
    fleet.shutdown();
}

/// Two replicas on one pool thread: a replica's pump lingering for a
/// partial batch on the otherwise idle pool hands the thread over as soon
/// as the other replica's pump is queued, instead of waiting out
/// `max_wait`. The last linger ends on shutdown, as on any idle pool.
#[test]
fn replicas_sharing_one_pool_thread_cut_each_others_linger_short() {
    use std::time::{Duration, Instant};

    let pool = Arc::new(WorkerPool::new(1));
    let fleet = Fleet::on_pool(
        pool,
        chips(2),
        FleetConfig::new(RoutingPolicy::RoundRobin).with_scheduler(
            SchedulerConfig::new(Parallelism::Fixed(1)).with_batching(64, Duration::from_secs(10)),
        ),
    )
    .unwrap();
    // A replica's queue reads empty once its pump has drained the request
    // and parked for the rest of its batch. (A scheduler that does not
    // publish the drained depth before lingering gets a second.)
    let drained = |replica: usize| {
        let by = Instant::now() + Duration::from_secs(1);
        while fleet.queue_depths()[replica] > 0 && Instant::now() < by {
            std::thread::yield_now();
        }
    };
    let (first, lingering) = fleet.submit(0, input(0), None).unwrap();
    let mut tickets = vec![(first, lingering)];
    // Round robin alternates replicas: each submission queues the other
    // replica's pump behind the one lingering on the only thread.
    for k in 1..3 {
        drained(tickets.last().unwrap().0);
        let (replica, ticket) = fleet.submit(k, input(k as usize), None).unwrap();
        let queued = Instant::now();
        let (previous, lingering) = tickets.last().unwrap();
        assert_ne!(replica, *previous, "round robin alternates replicas");
        lingering
            .wait_timeout(Duration::from_secs(5))
            .expect("the pump kept lingering after the other replica's pump was queued")
            .expect("the request is served");
        let waited = queued.elapsed();
        assert!(
            waited < Duration::from_millis(500),
            "replica {previous} answered after {waited:?}"
        );
        tickets.push((replica, ticket));
    }
    fleet.shutdown();
    let (_, last) = tickets.pop().unwrap();
    last.wait()
        .expect("shutdown dispatches the lingering batch");
}
