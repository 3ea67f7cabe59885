//! The real yield path: a training job next to a backed-up scheduler
//! parks before its next mini-epoch, resumes once the backlog drains,
//! and — because yielding only delays work — lands on exactly the
//! weights of a job that never met a scheduler.

use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use vortex_core::amp::greedy::RowMapping;
use vortex_core::pipeline::HardwareEnv;
use vortex_linalg::rng::Xoshiro256PlusPlus;
use vortex_nn::dataset::{DatasetConfig, SynthDigits};
use vortex_nn::gdt::GdtTrainer;
use vortex_nn::pool::WorkerPool;
use vortex_nn::split::stratified_split;
use vortex_serve::scheduler::{Scheduler, SchedulerConfig};
use vortex_train::{JobConfig, TrainerConfig, TrainingJob};

const HIGH_WATER: usize = 4;
const BACKLOG: usize = 8;

fn job_config(tag: &str) -> JobConfig {
    let dir = std::env::temp_dir().join(format!("vortex-yield-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    JobConfig {
        max_epochs: 6,
        // Every finished epoch leaves a slot file: none may appear while
        // the job is parked.
        checkpoint_every: 1,
        high_water: HIGH_WATER,
        low_water: 0,
        ..JobConfig::new(
            TrainerConfig {
                seed: 21,
                ..TrainerConfig::default()
            },
            dir,
        )
    }
}

fn slot_files(dir: &Path) -> usize {
    std::fs::read_dir(dir).map_or(0, |entries| entries.count())
}

#[test]
fn job_parks_behind_a_backlog_and_resumes_bit_identically() {
    let mut rng = Xoshiro256PlusPlus::seed_from_u64(17);
    let data = SynthDigits::generate(&DatasetConfig::tiny(), 29).unwrap();
    let split = stratified_split(&data, 160, 40, &mut rng).unwrap();
    let train = Arc::new(split.train.clone());
    let env = HardwareEnv::with_sigma(0.3).unwrap();

    let weights = GdtTrainer::default().train(&split.train).unwrap();
    let mapping = RowMapping::identity(weights.rows());
    let model = Arc::new(
        env.compiler()
            .with_calibration(&split.test.mean_input())
            .request(&weights, &mapping)
            .compile_with(&mut rng)
            .unwrap(),
    );
    let scheduler =
        Arc::new(Scheduler::new(model, None, SchedulerConfig::deterministic().paused()).unwrap());
    let tickets: Vec<_> = (0..BACKLOG)
        .map(|k| {
            scheduler
                .try_submit(split.test.image(k).to_vec(), None)
                .unwrap()
        })
        .collect();
    assert!(scheduler.queue_depth() >= HIGH_WATER);

    let cfg = job_config("parked");
    let dir = cfg.checkpoint_dir.clone();
    let yields_before = vortex_obs::counter("train.yields").get();
    let job = TrainingJob::new(cfg, Arc::clone(&train), env)
        .unwrap()
        .with_scheduler(Arc::clone(&scheduler))
        .with_pool(Arc::new(WorkerPool::new(1)));
    let trainer = std::thread::spawn(move || job.run().unwrap());

    // The job must park before its first mini-epoch...
    let deadline = Instant::now() + Duration::from_secs(30);
    while vortex_obs::counter("train.yields").get() == yields_before {
        assert!(Instant::now() < deadline, "the job never parked");
        std::thread::sleep(Duration::from_millis(1));
    }
    // ...and stay parked, with no epoch run, while the backlog stands.
    std::thread::sleep(Duration::from_millis(50));
    assert!(!trainer.is_finished(), "a parked job finished");
    assert_eq!(slot_files(&dir), 0, "a parked job advanced an epoch");

    scheduler.resume();
    for ticket in tickets {
        ticket.wait().expect("the backlog drains");
    }
    let parked = trainer.join().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
    assert!(parked.yields >= 1, "the report must count the yield");

    let cfg = job_config("alone");
    let dir = cfg.checkpoint_dir.clone();
    let alone = TrainingJob::new(cfg, train, env)
        .unwrap()
        .with_pool(Arc::new(WorkerPool::new(1)))
        .run()
        .unwrap();
    let _ = std::fs::remove_dir_all(&dir);
    assert_eq!(alone.yields, 0);

    assert_eq!(parked.epochs, alone.epochs);
    assert_eq!(parked.final_mse.to_bits(), alone.final_mse.to_bits());
    let (a, b) = (parked.weights.as_slice(), alone.weights.as_slice());
    assert_eq!(a.len(), b.len());
    for (k, (x, y)) in a.iter().zip(b).enumerate() {
        assert_eq!(x.to_bits(), y.to_bits(), "weight {k} differs ({x} vs {y})");
    }
}
