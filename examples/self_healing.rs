//! Self-healing serving, end to end: train and compile a classifier
//! with a frozen canary set, break it the way hardware breaks
//! (retention drift + stuck-at devices) while a chaos plan panics a
//! worker mid-drain, then watch the stack heal itself — the supervisor
//! requeues the crashed batch and respawns the worker, the health
//! monitor catches the canary-accuracy breach, recompiles with the same
//! seed and hot-swaps the fresh replica into the running scheduler. No
//! accepted request is lost, and accuracy returns to the fresh value
//! exactly.
//!
//! ```text
//! cargo run --release --example self_healing
//! ```

use std::sync::Arc;
use std::time::Duration;

use vortex_core::amp::greedy::RowMapping;
use vortex_core::error::Error;
use vortex_core::pipeline::HardwareEnv;
use vortex_device::drift::RetentionModel;
use vortex_linalg::rng::Xoshiro256PlusPlus;
use vortex_nn::dataset::{Dataset, DatasetConfig, SynthDigits};
use vortex_nn::gdt::GdtTrainer;
use vortex_nn::split::stratified_split;
use vortex_serve::prelude::*;

/// Drains `test` through the scheduler and returns (answered, errors,
/// fraction correct).
fn drain(scheduler: &Scheduler, test: &Dataset) -> (usize, usize, f64) {
    scheduler.pause();
    let tickets: Vec<(usize, Ticket)> = (0..test.len())
        .map(|k| {
            let t = scheduler
                .try_submit(test.image(k).to_vec(), None)
                .expect("queue sized for the whole set");
            (k, t)
        })
        .collect();
    scheduler.resume();
    let (mut answered, mut errors, mut correct) = (0usize, 0usize, 0usize);
    for (k, ticket) in tickets {
        match ticket.wait() {
            Ok(p) => {
                answered += 1;
                if p.class == test.label(k) {
                    correct += 1;
                }
            }
            Err(_) => errors += 1,
        }
    }
    (answered, errors, correct as f64 / test.len() as f64)
}

fn main() -> Result<(), Error> {
    // 1. Train a small digit classifier and freeze it with a canary set:
    //    24 probe inputs whose fresh predictions become golden answers.
    let mut rng = Xoshiro256PlusPlus::seed_from_u64(17);
    let data = SynthDigits::generate(
        &DatasetConfig {
            side: 7,
            samples_per_class: 60,
            ..DatasetConfig::paper()
        },
        7,
    )?;
    let split = stratified_split(&data, 400, 200, &mut rng)?;
    let weights = GdtTrainer {
        epochs: 12,
        ..Default::default()
    }
    .train(&split.train)?;
    let mapping = RowMapping::identity(weights.rows());
    let env = HardwareEnv::with_sigma(0.3)?.with_ir_drop(4.0);
    let canaries: Vec<Vec<f64>> = (0..24).map(|k| split.test.image(k).to_vec()).collect();
    let compile_fresh = {
        let (test, canaries) = (split.test.clone(), canaries);
        move || -> CompiledModel {
            let mut rng = Xoshiro256PlusPlus::seed_from_u64(99);
            env.compiler()
                .with_calibration(&test.mean_input())
                .request(&weights, &mapping)
                .compile_with(&mut rng)
                .expect("compile")
                .with_canary_inputs(canaries.clone())
                .expect("canary freeze")
        }
    };
    let fresh = compile_fresh();
    let fresh_accuracy = fresh.accuracy(&split.test)?;
    println!(
        "fresh   : {}x{} model, test accuracy {:.1}%, canary accuracy {:.3}",
        fresh.rows(),
        fresh.classes(),
        100.0 * fresh_accuracy,
        fresh.canary_accuracy()?
    );

    // 2. One seed, one reproducible disaster: two worker panics in the
    //    first drain, stuck-off devices, and 10^8 s of retention drift.
    let plan = ChaosPlan::generate(
        &ChaosConfig::new(2024, fresh.rows(), fresh.classes())
            .with_horizon((split.test.len() / 16) as u64)
            .with_worker_panics(2)
            .with_stuck_cells(8, 0.0)
            .with_drift(1e8),
    );
    let (t_s, drift_seed) = plan.drift().expect("plan carries drift");
    let retention = RetentionModel::new(0.6, 0.3, 1e-3).expect("retention model");
    let aged = fresh
        .age_with(&retention, t_s, drift_seed)
        .expect("aging")
        .with_cell_faults(plan.cell_faults())
        .expect("stuck cells");
    println!(
        "aged    : drift {t_s:.0e}s + {} stuck cells, test accuracy {:.1}%, canary accuracy {:.3}",
        plan.cell_faults().len(),
        100.0 * aged.accuracy(&split.test)?,
        aged.canary_accuracy()?
    );

    // 3. Serve the degraded model through the storm: the plan panics two
    //    batch dispatches, the supervisor requeues and respawns.
    let scheduler = Arc::new(
        Scheduler::with_chaos(
            Arc::new(aged),
            None,
            SchedulerConfig::new(Parallelism::Fixed(2))
                .with_queue_capacity(split.test.len())
                .with_batching(16, Duration::ZERO)
                .paused(),
            Some(plan.clone()),
        )
        .expect("scheduler config is valid"),
    );
    let (answered, errors, rate) = drain(&scheduler, &split.test);
    println!(
        "storm   : {answered} answered + {errors} typed errors = {} accepted (0 lost), \
         test rate {:.1}%, panics planned {:?}",
        answered + errors,
        100.0 * rate,
        plan.panic_batches()
    );
    assert_eq!(answered + errors, split.test.len(), "nothing may be lost");

    // 4. Heal: the canary probe breaches the floor, the monitor
    //    recompiles with the same seed and hot-swaps — queue not drained,
    //    scheduler not restarted.
    let monitor = HealthMonitor::new(
        Arc::clone(&scheduler),
        HealthConfig::new(1.0, Duration::from_millis(50)).expect("valid floor"),
        move || Ok(Arc::new(compile_fresh())),
    );
    match monitor.probe().expect("probe") {
        ProbeOutcome::Recovered { before, after } => {
            println!("healed  : canary accuracy {before:.3} -> {after:.3} after hot swap");
        }
        other => panic!("expected a recovery, got {other:?}"),
    }

    // 5. The same traffic now serves at fresh accuracy — bit-exactly,
    //    because the recompile used the same seed.
    let (answered, errors, rate) = drain(&scheduler, &split.test);
    println!(
        "after   : {answered} answered, {errors} errors, test rate {:.1}% \
         (fresh was {:.1}%)",
        100.0 * rate,
        100.0 * fresh_accuracy
    );
    assert_eq!(errors, 0, "the storm is over");
    assert!(
        (rate - fresh_accuracy).abs() < 1e-12,
        "recovered accuracy must match the fresh compile"
    );

    // 6. The whole episode is on the record.
    let snapshot = vortex_obs::snapshot();
    for name in [
        "serve.worker_panics",
        "serve.supervisor.requeued",
        "serve.supervisor.respawns",
        "serve.supervisor.crashed",
        "serve.health.probes",
        "serve.health.floor_breaches",
        "serve.health.swaps",
    ] {
        println!("metrics : {name} = {}", snapshot.counter(name).unwrap_or(0));
    }
    Ok(())
}
