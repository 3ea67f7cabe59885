//! Crash-recovery acceptance suite: chaos-battered training jobs must
//! land on **exactly** the weights of an undisturbed run — at any pool
//! size — and training faults must be invisible to the serving path
//! that shares the pool.

use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

use vortex_core::amp::greedy::RowMapping;
use vortex_core::pipeline::HardwareEnv;
use vortex_device::drift::RetentionModel;
use vortex_linalg::rng::Xoshiro256PlusPlus;
use vortex_nn::dataset::{Dataset, DatasetConfig, SynthDigits};
use vortex_nn::gdt::GdtTrainer;
use vortex_nn::pool::WorkerPool;
use vortex_nn::split::stratified_split;
use vortex_serve::chaos::{ChaosConfig, ChaosPlan};
use vortex_serve::health::ProbeOutcome;
use vortex_serve::scheduler::{Scheduler, SchedulerConfig};
use vortex_train::{JobConfig, JobReport, TrainerConfig, TrainingJob};

fn dataset() -> Arc<Dataset> {
    let d = SynthDigits::generate(&DatasetConfig::tiny(), 29).unwrap();
    let mut rng = Xoshiro256PlusPlus::seed_from_u64(99);
    Arc::new(stratified_split(&d, 160, 40, &mut rng).unwrap().train)
}

fn job_config(tag: &str) -> JobConfig {
    let dir = std::env::temp_dir().join(format!("vortex-recovery-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    JobConfig {
        max_epochs: 12,
        checkpoint_every: 3,
        restart_base: Duration::from_millis(1),
        restart_cap: Duration::from_millis(4),
        ..JobConfig::new(
            TrainerConfig {
                seed: 21,
                ..TrainerConfig::default()
            },
            dir,
        )
    }
}

fn run_job(
    cfg: JobConfig,
    env: HardwareEnv,
    chaos: Option<ChaosPlan>,
    pool_size: usize,
) -> JobReport {
    let dir = cfg.checkpoint_dir.clone();
    let mut job = TrainingJob::new(cfg, dataset(), env)
        .unwrap()
        .with_pool(Arc::new(WorkerPool::new(pool_size)));
    if let Some(plan) = chaos {
        job = job.with_chaos(plan);
    }
    let report = job.run().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
    report
}

fn assert_bit_identical(a: &JobReport, b: &JobReport, context: &str) {
    assert_eq!(a.epochs, b.epochs, "{context}: epoch counts differ");
    assert_eq!(
        a.final_mse.to_bits(),
        b.final_mse.to_bits(),
        "{context}: final MSE differs"
    );
    let (wa, wb) = (a.weights.as_slice(), b.weights.as_slice());
    assert_eq!(wa.len(), wb.len(), "{context}: weight shapes differ");
    for (k, (x, y)) in wa.iter().zip(wb).enumerate() {
        assert_eq!(
            x.to_bits(),
            y.to_bits(),
            "{context}: weight {k} differs ({x} vs {y})"
        );
    }
}

#[test]
fn kill_recovery_is_bit_identical_at_pool_sizes_1_and_4() {
    let env = HardwareEnv::with_sigma(0.5).unwrap();
    let baseline = run_job(job_config("baseline"), env, None, 1);
    assert_eq!(baseline.kills, 0);
    assert_eq!(baseline.restarts, 0);

    let plan = ChaosPlan::generate(&ChaosConfig::new(7, 4, 4).with_train_kills(2, 10));
    for pool_size in [1usize, 4] {
        let tag = format!("kills-p{pool_size}");
        let report = run_job(job_config(&tag), env, Some(plan.clone()), pool_size);
        assert!(
            report.kills >= 1,
            "the plan must actually kill the job (kill epochs {:?})",
            plan.train_kill_epochs()
        );
        assert_eq!(report.kills as u32, report.restarts);
        assert_bit_identical(&baseline, &report, &tag);
    }
}

#[test]
fn corrupt_newest_checkpoint_falls_back_to_the_older_slot() {
    let env = HardwareEnv::with_sigma(0.5).unwrap();
    let baseline = run_job(job_config("flip-baseline"), env, None, 1);

    // A seed whose single kill lands late enough that *two* checkpoint
    // slots (epochs 3 and 6) already exist: corrupting the newest one
    // forces recovery through the older slot, replaying more epochs.
    let plan = (0..64)
        .map(|seed| {
            ChaosPlan::generate(
                &ChaosConfig::new(seed, 4, 4)
                    .with_train_kills(1, 12)
                    .with_checkpoint_bit_flips(6),
            )
        })
        .find(|plan| plan.train_kill_epochs()[0] >= 7)
        .expect("some seed in 0..64 draws a kill at epoch >= 7");

    let report = run_job(job_config("flip"), env, Some(plan), 1);
    assert!(report.kills >= 1);
    assert!(
        report.rejected_checkpoints >= 1,
        "the corrupted newest slot must be rejected during recovery"
    );
    assert_bit_identical(&baseline, &report, "bit-flip fallback");
}

#[test]
fn training_faults_are_invisible_to_serving() {
    // Serving and training share one pool; chaos kills the training job
    // while inference traffic flows. Serving must answer every request
    // (no `WorkerCrashed`), and the pool's own panic backstop — the
    // counter serving alarms on — must never fire for a training fault.
    let mut rng = Xoshiro256PlusPlus::seed_from_u64(17);
    let data = SynthDigits::generate(&DatasetConfig::tiny(), 29).unwrap();
    let split = stratified_split(&data, 160, 80, &mut rng).unwrap();
    let weights = GdtTrainer::default().train(&split.train).unwrap();
    let mapping = RowMapping::identity(weights.rows());
    let env = HardwareEnv::with_sigma(0.3).unwrap();
    let primary = Arc::new(
        env.compiler()
            .with_calibration(&split.test.mean_input())
            .request(&weights, &mapping)
            .compile_with(&mut rng)
            .unwrap(),
    );

    let scheduler = Arc::new(
        Scheduler::on_pool(
            Arc::new(WorkerPool::new(4)),
            primary,
            None,
            SchedulerConfig::deterministic(),
            None,
        )
        .unwrap(),
    );

    let panics_before = vortex_obs::counter("pool.job_panics").get();

    let plan = ChaosPlan::generate(&ChaosConfig::new(5, 4, 4).with_train_kills(3, 10));
    let job = TrainingJob::new(
        job_config("serve-shared"),
        Arc::new(split.train.clone()),
        env,
    )
    .unwrap()
    .with_scheduler(Arc::clone(&scheduler))
    .with_chaos(plan);
    let trainer = std::thread::spawn(move || job.run().unwrap());

    // Pump inference through the shared pool until the job finishes,
    // then once more: not one request may error.
    let mut served = 0usize;
    loop {
        let finished = trainer.is_finished();
        for k in 0..split.test.len() {
            let p = scheduler
                .submit_wait(split.test.image(k).to_vec())
                .expect("serving must never observe a training fault");
            assert!(p.class < split.test.num_classes() as u8);
            served += 1;
        }
        if finished {
            break;
        }
    }
    let report = trainer.join().unwrap();
    let _ = std::fs::remove_dir_all(job_config("serve-shared").checkpoint_dir);

    assert!(report.kills >= 1, "chaos must have killed the job");
    assert!(served >= split.test.len() * 2);
    assert_eq!(
        vortex_obs::counter("pool.job_panics").get(),
        panics_before,
        "a contained training kill must not reach the pool's panic backstop"
    );
}

#[test]
fn converged_job_promotes_through_the_health_monitor() {
    // A drifted, stuck-celled primary serves; a training job converges
    // next to it and offers its compiled weights through the
    // HealthMonitor acceptance path. The swap happens only because the
    // trained model answers the golden canaries better than the
    // degraded incumbent.
    let mut rng = Xoshiro256PlusPlus::seed_from_u64(17);
    let data = SynthDigits::generate(
        &DatasetConfig {
            side: 7,
            samples_per_class: 60,
            ..DatasetConfig::paper()
        },
        7,
    )
    .unwrap();
    let split = stratified_split(&data, 400, 200, &mut rng).unwrap();
    let weights = GdtTrainer::default().train(&split.train).unwrap();
    let mapping = RowMapping::identity(weights.rows());
    let env = HardwareEnv::with_sigma(0.3).unwrap();
    let canaries: Vec<Vec<f64>> = (0..24).map(|k| split.test.image(k).to_vec()).collect();
    let fresh = env
        .compiler()
        .with_calibration(&split.test.mean_input())
        .request(&weights, &mapping)
        .compile_with(&mut rng)
        .unwrap()
        .with_canary_inputs(canaries.clone())
        .unwrap();

    // Break the primary the way hardware breaks: retention drift plus
    // stuck-off devices.
    let plan = ChaosPlan::generate(
        &ChaosConfig::new(2024, fresh.rows(), fresh.classes())
            .with_stuck_cells(10, 0.0)
            .with_drift(1e8),
    );
    let (t_s, drift_seed) = plan.drift().unwrap();
    let retention = RetentionModel::new(0.6, 0.3, 1e-3).unwrap();
    let aged = fresh
        .age_with(&retention, t_s, drift_seed)
        .unwrap()
        .with_cell_faults(plan.cell_faults())
        .unwrap();
    let before_accuracy = aged.canary_accuracy().unwrap();
    assert!(
        before_accuracy < 1.0,
        "the incumbent must actually be degraded, got {before_accuracy}"
    );

    let scheduler =
        Arc::new(Scheduler::new(Arc::new(aged), None, SchedulerConfig::deterministic()).unwrap());

    let cfg = JobConfig {
        max_epochs: 15,
        ..job_config("promote")
    };
    let dir: PathBuf = cfg.checkpoint_dir.clone();
    let job = TrainingJob::new(cfg, Arc::new(split.train.clone()), env).unwrap();
    let report = job.run().unwrap();
    let _ = std::fs::remove_dir_all(&dir);

    let outcome = job
        .promote(&report.weights, &scheduler, canaries, 0.9)
        .unwrap();
    match outcome {
        ProbeOutcome::Recovered { before, after } => {
            assert_eq!(before.to_bits(), before_accuracy.to_bits());
            assert!(after > before, "swap requires strict improvement");
        }
        other => panic!("expected a hot-swap, got {other:?}"),
    }
    // The new primary is the trained model, whose own canary set was
    // frozen at compile time: it answers those canaries perfectly.
    assert_eq!(scheduler.primary().canary_accuracy().unwrap(), 1.0);
}
