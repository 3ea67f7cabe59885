//! Fault-tolerant on-device training, end to end: a delta-rule training
//! job runs next to live inference traffic on the shared worker pool,
//! checkpoints on a deterministic cadence, gets killed mid-run by a
//! seeded chaos plan — which then flips bits in the newest checkpoint —
//! and still recovers to **exactly** the weights of an undisturbed run.
//! On convergence the job compiles its weights through the
//! `CompileRequest` builder and hot-swaps the degraded serving primary
//! through the `HealthMonitor` acceptance path.
//!
//! ```text
//! cargo run --release --example train_job
//! ```

use std::sync::Arc;
use std::time::Duration;

use vortex_core::amp::greedy::RowMapping;
use vortex_core::pipeline::HardwareEnv;
use vortex_device::drift::RetentionModel;
use vortex_linalg::rng::Xoshiro256PlusPlus;
use vortex_nn::dataset::{DatasetConfig, SynthDigits};
use vortex_nn::gdt::GdtTrainer;
use vortex_nn::pool::WorkerPool;
use vortex_serve::chaos::{ChaosConfig, ChaosPlan};
use vortex_serve::health::ProbeOutcome;
use vortex_serve::scheduler::{Scheduler, SchedulerConfig};
use vortex_train::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. A serving stack: a GDT-compiled classifier with a frozen canary
    //    set, degraded by retention drift and stuck cells — the incumbent
    //    a training job will eventually replace.
    let mut rng = Xoshiro256PlusPlus::seed_from_u64(17);
    let data = SynthDigits::generate(
        &DatasetConfig {
            side: 7,
            samples_per_class: 60,
            ..DatasetConfig::paper()
        },
        7,
    )?;
    let split = vortex_nn::split::stratified_split(&data, 400, 200, &mut rng)?;
    let weights = GdtTrainer::default().train(&split.train)?;
    let mapping = RowMapping::identity(weights.rows());
    let env = HardwareEnv::with_sigma(0.3)?;
    let canaries: Vec<Vec<f64>> = (0..24).map(|k| split.test.image(k).to_vec()).collect();
    let fresh = env
        .compiler()
        .with_calibration(&split.test.mean_input())
        .request(&weights, &mapping)
        .compile_with(&mut rng)?
        .with_canary_inputs(canaries.clone())?;
    let serve_plan = ChaosPlan::generate(
        &ChaosConfig::new(2024, fresh.rows(), fresh.classes())
            .with_stuck_cells(10, 0.0)
            .with_drift(1e8),
    );
    let (t_s, drift_seed) = serve_plan.drift().expect("plan carries drift");
    let retention = RetentionModel::new(0.6, 0.3, 1e-3)?;
    let aged = fresh
        .age_with(&retention, t_s, drift_seed)?
        .with_cell_faults(serve_plan.cell_faults())?;
    println!(
        "serving : incumbent canary accuracy {:.3} (drift {t_s:.0e}s + {} stuck cells)",
        aged.canary_accuracy()?,
        serve_plan.cell_faults().len()
    );
    let scheduler = Arc::new(Scheduler::on_pool(
        Arc::new(WorkerPool::new(4)),
        Arc::new(aged),
        None,
        SchedulerConfig::deterministic(),
        None,
    )?);

    // 2. A training job on the scheduler's pool, with kills and
    //    checkpoint corruption injected from a seeded chaos plan.
    let ckpt_dir = std::env::temp_dir().join(format!("vortex-train-job-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&ckpt_dir);
    let config = JobConfig {
        max_epochs: 15,
        checkpoint_every: 3,
        restart_base: Duration::from_millis(1),
        restart_cap: Duration::from_millis(8),
        ..JobConfig::new(
            TrainerConfig {
                seed: 21,
                ..TrainerConfig::default()
            },
            &ckpt_dir,
        )
    };
    let train_plan = ChaosPlan::generate(
        &ChaosConfig::new(7, 4, 4)
            .with_train_kills(2, 12)
            .with_checkpoint_bit_flips(4),
    );
    println!(
        "chaos   : kills planned at epochs {:?}, 4 checkpoint bit flips armed",
        train_plan.train_kill_epochs()
    );
    let train_set = Arc::new(split.train.clone());
    let job = TrainingJob::new(config.clone(), Arc::clone(&train_set), env)?
        .with_scheduler(Arc::clone(&scheduler))
        .with_chaos(train_plan);

    // 3. Run it while inference traffic flows through the shared pool.
    let trainer = std::thread::spawn(move || job.run());
    while !trainer.is_finished() {
        for k in 0..split.test.len().min(32) {
            scheduler
                .submit_wait(split.test.image(k).to_vec())
                .expect("serving must never observe a training fault");
        }
    }
    let report = trainer.join().expect("trainer thread")?;
    println!(
        "trained : {} epochs, final MSE {:.5}, {} kills survived, {} restarts, \
         {} corrupt checkpoints rejected, inference served throughout",
        report.epochs, report.final_mse, report.kills, report.restarts, report.rejected_checkpoints
    );

    // 4. Recovery is exact: an undisturbed job lands on the same bits.
    let clean_dir = ckpt_dir.with_extension("clean");
    let _ = std::fs::remove_dir_all(&clean_dir);
    let clean = TrainingJob::new(
        JobConfig {
            checkpoint_dir: clean_dir.clone(),
            ..config
        },
        train_set,
        env,
    )?
    .run()?;
    assert_eq!(clean.epochs, report.epochs);
    let identical = clean
        .weights
        .as_slice()
        .iter()
        .zip(report.weights.as_slice())
        .all(|(a, b)| a.to_bits() == b.to_bits());
    assert!(identical, "recovered weights must match the clean run");
    println!("verify  : chaos-battered weights == undisturbed weights, bit for bit");

    // 5. Promote: compile the trained weights (seeded, with canaries)
    //    and offer them to the live scheduler through the HealthMonitor.
    let job = TrainingJob::new(
        JobConfig {
            checkpoint_dir: ckpt_dir.clone(),
            ..JobConfig::new(
                TrainerConfig {
                    seed: 21,
                    ..TrainerConfig::default()
                },
                &ckpt_dir,
            )
        },
        Arc::new(split.train.clone()),
        env,
    )?;
    match job.promote(&report.weights, &scheduler, canaries, 0.9)? {
        ProbeOutcome::Recovered { before, after } => {
            println!("promote : hot-swapped — canary accuracy {before:.3} -> {after:.3}")
        }
        other => println!("promote : not swapped ({other:?})"),
    }

    // 6. The obs registry saw the whole story. How often training yielded
    //    to serving (`train.preemptions`) and how many predictions were
    //    served depend on wall-clock interleaving, so they stay in the
    //    registry and off the printed lines, which are identical run to run.
    let snapshot = vortex_obs::snapshot();
    for name in [
        "train.epochs",
        "train.checkpoints",
        "train.kills",
        "train.restarts",
        "train.checkpoint.rejected",
        "train.promotions",
        "pool.job_panics",
    ] {
        println!("metrics : {name} = {}", snapshot.counter(name).unwrap_or(0));
    }
    let _ = std::fs::remove_dir_all(&ckpt_dir);
    let _ = std::fs::remove_dir_all(&clean_dir);
    Ok(())
}
