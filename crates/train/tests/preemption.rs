//! The work-conserving shared pool: a mini-epoch cut into slices by
//! preemption lands on exactly the bits of the whole one, a training
//! job beside live serving traffic yields mid-epoch without moving its
//! weights — attached to the scheduler alone, it runs on the
//! scheduler's pool — and a pump never lingers while other pool work
//! waits, whether that work was queued before its linger or during it.
//! A lingering pump keeps the degradation ladder where its batch left
//! it until the batch is dispatched.

use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

use vortex_core::amp::greedy::RowMapping;
use vortex_core::pipeline::HardwareEnv;
use vortex_linalg::rng::Xoshiro256PlusPlus;
use vortex_nn::dataset::{Dataset, DatasetConfig, SynthDigits};
use vortex_nn::executor::Parallelism;
use vortex_nn::gdt::GdtTrainer;
use vortex_nn::pool::WorkerPool;
use vortex_nn::split::{stratified_split, Split};
use vortex_runtime::CompiledModel;
use vortex_serve::scheduler::{Scheduler, SchedulerConfig};
use vortex_train::{DeltaStepper, JobConfig, JobReport, TrainerConfig, TrainingJob};

const EPOCHS: u64 = 5;

fn split() -> Split {
    let data = SynthDigits::generate(&DatasetConfig::tiny(), 29).unwrap();
    let mut rng = Xoshiro256PlusPlus::seed_from_u64(99);
    stratified_split(&data, 160, 40, &mut rng).unwrap()
}

fn trainer() -> TrainerConfig {
    TrainerConfig {
        // Unreachable: every job runs exactly its epoch budget.
        tolerance: 0.0,
        seed: 31,
        ..TrainerConfig::default()
    }
}

fn env() -> HardwareEnv {
    HardwareEnv::with_sigma(0.5).unwrap()
}

fn bits(w: &[f64]) -> Vec<u64> {
    w.iter().map(|x| x.to_bits()).collect()
}

/// `epochs` whole mini-epochs through `step`.
fn whole(train: &Dataset, epochs: u64) -> DeltaStepper {
    let mut s = DeltaStepper::fresh(train, &env(), trainer()).unwrap();
    for _ in 0..epochs {
        s.step(train);
    }
    s
}

/// `epochs` mini-epochs through `step_until` under `preempt`; returns
/// the stepper, each epoch's returned error and the slice count.
fn sliced(
    train: &Dataset,
    epochs: u64,
    mut preempt: impl FnMut() -> bool,
) -> (DeltaStepper, Vec<f64>, usize) {
    let mut s = DeltaStepper::fresh(train, &env(), trainer()).unwrap();
    let (mut mses, mut slices) = (Vec::new(), 0);
    while s.epoch() < epochs {
        slices += 1;
        if let Some(mse) = s.step_until(train, &mut preempt) {
            mses.push(mse);
        }
    }
    (s, mses, slices)
}

#[test]
fn sliced_epochs_are_bit_identical_to_whole_ones() {
    let train = split().train;
    let mut reference = DeltaStepper::fresh(&train, &env(), trainer()).unwrap();
    let want_mses: Vec<u64> = (0..EPOCHS)
        .map(|_| reference.step(&train).to_bits())
        .collect();
    let want = reference.checkpoint();

    let mut every_7th = 0u64;
    let mut coin = Xoshiro256PlusPlus::seed_from_u64(5);
    let runs = [
        ("every poll", sliced(&train, EPOCHS, || true)),
        (
            "every 7th poll",
            sliced(&train, EPOCHS, || {
                every_7th += 1;
                every_7th % 7 == 0
            }),
        ),
        (
            "seeded random",
            sliced(&train, EPOCHS, || coin.next_below(3) == 0),
        ),
        ("never", sliced(&train, EPOCHS, || false)),
    ];
    for (pattern, (stepper, mses, slices)) in runs {
        let got = stepper.checkpoint();
        assert_eq!(
            bits(got.weights.as_slice()),
            bits(want.weights.as_slice()),
            "{pattern}: weights differ"
        );
        assert_eq!(
            stepper.last_mse().to_bits(),
            reference.last_mse().to_bits(),
            "{pattern}: last_mse differs"
        );
        assert_eq!(
            mses.iter().map(|m| m.to_bits()).collect::<Vec<_>>(),
            want_mses,
            "{pattern}: per-epoch errors differ"
        );
        assert_eq!(got.rng_state, want.rng_state, "{pattern}: RNG differs");
        assert_eq!(
            got.to_bytes(),
            want.to_bytes(),
            "{pattern}: checkpoint bytes differ"
        );
        match pattern {
            // One sample per slice.
            "every poll" => assert_eq!(slices, EPOCHS as usize * train.len()),
            "never" => assert_eq!(slices, EPOCHS as usize),
            _ => assert!(slices > EPOCHS as usize, "{pattern}: never preempted"),
        }
    }
}

#[test]
#[should_panic(expected = "checkpoint taken mid-epoch")]
fn a_preempted_epoch_cannot_be_checkpointed() {
    let train = split().train;
    let mut s = DeltaStepper::fresh(&train, &env(), trainer()).unwrap();
    assert!(s.step_until(&train, || true).is_none());
    let _ = s.checkpoint();
}

fn served_model(split: &Split) -> Arc<CompiledModel> {
    let mut rng = Xoshiro256PlusPlus::seed_from_u64(17);
    let weights = GdtTrainer::default().train(&split.train).unwrap();
    let mapping = RowMapping::identity(weights.rows());
    Arc::new(
        HardwareEnv::with_sigma(0.3)
            .unwrap()
            .compiler()
            .with_calibration(&split.test.mean_input())
            .request(&weights, &mapping)
            .compile_with(&mut rng)
            .unwrap(),
    )
}

/// Serialises the tests that run a job, so a move of the global
/// `train.preemptions` counter is one job's.
fn serial() -> MutexGuard<'static, ()> {
    static JOBS: Mutex<()> = Mutex::new(());
    JOBS.lock().unwrap_or_else(PoisonError::into_inner)
}

fn job_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("vortex-preempt-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// One training job, attached to a scheduler on a private pool of
/// `pool_size` threads, beside two clients submitting through
/// `try_submit` until the job ends. Returns the job's report and the
/// requests served (every one answered).
fn job_beside_traffic(
    split: &Split,
    pool_size: usize,
    epochs: u64,
    tag: &str,
) -> (JobReport, usize) {
    let scheduler = Arc::new(
        Scheduler::on_pool(
            Arc::new(WorkerPool::new(pool_size)),
            served_model(split),
            None,
            SchedulerConfig::new(Parallelism::Fixed(pool_size)),
            None,
        )
        .unwrap(),
    );
    let dir = job_dir(tag);
    let config = JobConfig {
        max_epochs: epochs,
        checkpoint_every: 4,
        ..JobConfig::new(trainer(), &dir)
    };
    let job = TrainingJob::new(config, Arc::new(split.train.clone()), env())
        .unwrap()
        .with_scheduler(Arc::clone(&scheduler));
    let done = Arc::new(AtomicBool::new(false));
    let clients: Vec<_> = (0..2)
        .map(|client| {
            let (scheduler, done) = (Arc::clone(&scheduler), Arc::clone(&done));
            let inputs: Vec<Vec<f64>> = (0..split.test.len())
                .map(|k| split.test.image(k).to_vec())
                .collect();
            std::thread::spawn(move || {
                let mut served = 0usize;
                loop {
                    let input = inputs[(served * 2 + client) % inputs.len()].clone();
                    let ticket = scheduler.try_submit(input, None).expect("admitted");
                    ticket.wait().expect("every request is answered");
                    served += 1;
                    if done.load(Ordering::Acquire) {
                        return served;
                    }
                }
            })
        })
        .collect();
    let report = job.run().unwrap();
    done.store(true, Ordering::Release);
    let served = clients.into_iter().map(|c| c.join().unwrap()).sum();
    let _ = std::fs::remove_dir_all(&dir);
    (report, served)
}

#[test]
fn jobs_yield_mid_epoch_to_serving_and_keep_their_bits() {
    let _serial = serial();
    let split = split();
    let epochs = 12;
    let solo = bits(whole(&split.train, epochs).weights().as_slice());
    for pool_size in [1usize, 4] {
        let deadline = Instant::now() + Duration::from_secs(60);
        for round in 0.. {
            let before = vortex_obs::counter("train.preemptions").get();
            let tag = format!("p{pool_size}-r{round}");
            let (report, served) = job_beside_traffic(&split, pool_size, epochs, &tag);
            let moved = vortex_obs::counter("train.preemptions").get() - before;
            assert_eq!(
                report.yields, moved,
                "{tag}: yields are the job's preemptions"
            );
            assert_eq!(report.epochs, epochs, "{tag}: epoch count");
            assert_eq!(report.restarts, 0, "{tag}: restarted");
            assert!(served >= 2, "{tag}: a client went unanswered");
            assert_eq!(
                bits(report.weights.as_slice()),
                solo,
                "{tag}: weights differ"
            );
            // Only a 1-thread pool must preempt: on a wider pool an idle
            // thread usually picks the pump up at once.
            if pool_size > 1 || report.yields >= 1 {
                break;
            }
            assert!(
                Instant::now() < deadline,
                "no slice yielded to serving on a 1-thread pool"
            );
        }
    }
}

#[test]
fn a_job_attached_to_a_scheduler_alone_preempts_on_its_pool() {
    // `job_beside_traffic` gives the job no pool of its own: it must
    // find the scheduler's private pool through `with_scheduler`, or
    // its slices run elsewhere and never see a pump waiting.
    let _serial = serial();
    let split = split();
    let solo = bits(whole(&split.train, EPOCHS).weights().as_slice());
    let deadline = Instant::now() + Duration::from_secs(60);
    for round in 0.. {
        let tag = format!("attached-r{round}");
        let (report, _) = job_beside_traffic(&split, 1, EPOCHS, &tag);
        assert_eq!(
            bits(report.weights.as_slice()),
            solo,
            "{tag}: weights differ"
        );
        if report.yields >= 1 {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "the job never preempted for its scheduler's pumps"
        );
    }
}

#[test]
fn a_pump_skips_its_linger_when_other_pool_work_waits() {
    let split = split();
    let pool = Arc::new(WorkerPool::new(1));
    let (started_tx, started_rx) = mpsc::channel();
    let (release_tx, release_rx) = mpsc::channel::<()>();
    pool.submit(move || {
        let _ = started_tx.send(());
        let _ = release_rx.recv();
    });
    started_rx.recv().unwrap();

    let scheduler = Scheduler::on_pool(
        Arc::clone(&pool),
        served_model(&split),
        None,
        SchedulerConfig::new(Parallelism::Fixed(1)).with_batching(64, Duration::from_secs(10)),
        None,
    )
    .unwrap();
    let skipped = vortex_obs::counter("serve.linger_skipped").get();
    // Queued behind the blocker: the request's pump, then a foreign job.
    let ticket = scheduler
        .try_submit(split.test.image(0).to_vec(), None)
        .unwrap();
    let (ran_tx, ran_rx) = mpsc::channel();
    pool.submit(move || {
        let _ = ran_tx.send(());
    });

    let released = Instant::now();
    release_tx.send(()).unwrap();
    let answer = ticket
        .wait_timeout(Duration::from_secs(5))
        .expect("the pump lingered for its partial batch while a job waited");
    answer.expect("the request is served");
    let waited = released.elapsed();
    assert!(
        waited < Duration::from_millis(500),
        "answered after {waited:?}"
    );
    assert!(vortex_obs::counter("serve.linger_skipped").get() > skipped);
    ran_rx
        .recv_timeout(Duration::from_secs(5))
        .expect("the foreign job runs");
}

#[test]
fn a_pump_cuts_its_linger_short_when_pool_work_arrives_mid_linger() {
    let split = split();
    let pool = Arc::new(WorkerPool::new(1));
    let scheduler = Scheduler::on_pool(
        Arc::clone(&pool),
        served_model(&split),
        None,
        SchedulerConfig::new(Parallelism::Fixed(1)).with_batching(64, Duration::from_secs(10)),
        None,
    )
    .unwrap();
    let skipped = vortex_obs::counter("serve.linger_skipped").get();
    // On an idle pool the request's pump drains it, publishes the empty
    // queue and parks for the rest of its batch. (A scheduler that does
    // not publish the drained depth before lingering gets a second.)
    let ticket = scheduler
        .try_submit(split.test.image(0).to_vec(), None)
        .unwrap();
    let drained_by = Instant::now() + Duration::from_secs(1);
    while scheduler.queue_depth() > 0 && Instant::now() < drained_by {
        std::thread::yield_now();
    }
    assert!(
        ticket.wait_timeout(Duration::ZERO).is_none(),
        "the pump dispatched before any other work arrived"
    );

    let (ran_tx, ran_rx) = mpsc::channel();
    let queued = Instant::now();
    pool.submit(move || {
        let _ = ran_tx.send(());
    });
    let answer = ticket
        .wait_timeout(Duration::from_secs(5))
        .expect("the pump kept lingering after a job was queued");
    answer.expect("the request is served");
    let waited = queued.elapsed();
    assert!(
        waited < Duration::from_millis(500),
        "answered after {waited:?}"
    );
    assert!(vortex_obs::counter("serve.linger_skipped").get() > skipped);
    ran_rx
        .recv_timeout(Duration::from_secs(5))
        .expect("the foreign job runs");
}

#[test]
fn a_lingering_pump_holds_the_ladder_until_its_batch_leaves() {
    let split = split();
    let pool = Arc::new(WorkerPool::new(1));
    let model = served_model(&split);
    let scheduler = Scheduler::on_pool(
        Arc::clone(&pool),
        Arc::clone(&model),
        Some(model),
        SchedulerConfig::new(Parallelism::Fixed(1))
            .with_batching(64, Duration::from_secs(10))
            .with_watermarks(3, 1)
            .paused(),
        None,
    )
    .unwrap();
    // Four admissions into the paused queue reach the high mark.
    let tickets: Vec<_> = (0..4)
        .map(|k| {
            scheduler
                .try_submit(split.test.image(k).to_vec(), None)
                .unwrap()
        })
        .collect();
    assert!(scheduler.is_degraded());

    // The pump drains all four and parks for the rest of its batch. The
    // published depth drops to zero, but the ladder observes the queue
    // only at admission and when a batch leaves: it stays engaged.
    scheduler.resume();
    let drained_by = Instant::now() + Duration::from_secs(1);
    while scheduler.queue_depth() > 0 && Instant::now() < drained_by {
        std::thread::yield_now();
    }
    assert_eq!(scheduler.queue_depth(), 0, "the pump never drained");
    assert!(
        tickets[0].wait_timeout(Duration::ZERO).is_none(),
        "the pump dispatched before any other work arrived"
    );
    assert!(
        scheduler.is_degraded(),
        "the ladder released while the pump still held its batch"
    );

    // Foreign pool work ends the linger; the batch leaves and the ladder
    // sees the empty queue.
    pool.submit(|| {});
    for ticket in tickets {
        ticket
            .wait_timeout(Duration::from_secs(5))
            .expect("the pump kept lingering after a job was queued")
            .expect("the request is served");
    }
    assert!(!scheduler.is_degraded());
}
