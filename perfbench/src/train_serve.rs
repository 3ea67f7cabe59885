//! `train_serve`: a `TrainingJob` and a `Scheduler` serving the same
//! calibrated model share one 1-thread pool — writes beside reads. Serve
//! latency is head-of-line blocking behind mini-epochs.
//!
//! Like the other serving workloads it runs on one CPU. The pool thread
//! trains almost all the time, so it runs at the lowest priority and the
//! load generator blocks instead of spinning: an arrival or an answer wakes
//! the generator, which then takes precedence over the mini-epoch.
//!
//! The arrival rate keeps arrivals per mini-epoch at or below a quarter
//! of the job's yield `high_water`, so training never parks and the
//! latency distribution has one mode. The epoch budget is sized at
//! set-up from the measured epoch time so that training covers the whole
//! serving window; convergence is unreachable (tolerance 0), so the job
//! always runs exactly that budget.

use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use vortex_core::pipeline::HardwareEnv;
use vortex_nn::dataset::Dataset;
use vortex_nn::executor::Parallelism;
use vortex_nn::pool::WorkerPool;
use vortex_runtime::CompiledModel;
use vortex_serve::{Scheduler, SchedulerConfig};
use vortex_train::{DeltaStepper, JobConfig, JobReport, TrainerConfig, TrainingJob};

use crate::openloop::{self, Arrival, Measured, Pace};
use crate::probes::{self, median};
use crate::report::Report;
use crate::serving::{self, FallbackMeter};
use crate::setup::{self, sub_seed, TRAFFIC_SEED, TRAIN_SEED};
use crate::trace::Tracer;
use crate::Args;

/// Arrival rate, requests/s: ≈7 arrivals per 13 ms mini-epoch, under a
/// quarter of the default `high_water` (64).
const RPS: f64 = 500.0;
/// Latency limit for `slo_share`.
const SLO_S: f64 = 0.040;
const CHECKPOINT_EVERY: u64 = 4;
/// Training is sized to run this multiple of the serving window.
const EPOCH_COVER: f64 = 1.2;
const WARMUP_REQUESTS: usize = 200;
const WARMUP_EPOCHS: usize = 5;

struct Inputs {
    train: Arc<Dataset>,
    test: Dataset,
    env: HardwareEnv,
    model: Arc<CompiledModel>,
    scheduler: Arc<Scheduler>,
    pool: Arc<WorkerPool>,
    /// Fastest solo epoch of the warm-up, s.
    epoch_s: f64,
}

/// One serving window with a co-resident job.
struct Window {
    measured: Measured,
    job: JobReport,
    job_wall_s: f64,
}

pub fn run(args: &Args, run_dir: &Path) -> Report {
    let cpu = probes::pin_to_one_cpu();
    let tracer = args.trace.then(Tracer::new);
    let trainer = TrainerConfig {
        tolerance: 0.0,
        seed: sub_seed(args.seed, TRAIN_SEED),
        ..TrainerConfig::default()
    };
    let (inputs, setup_s) = setup::timed_setups(|| {
        let (train, test) = setup::dataset(14);
        let weights = setup::weights(&train);
        let env = setup::env();
        let model = Arc::new(setup::compile(
            &env,
            &weights,
            &train,
            &test,
            setup::REDUNDANT_ROWS,
            setup::SERVED_CHIP_SEED,
            tracer.as_ref(),
        ));
        let pool = Arc::new(WorkerPool::new(1));
        probes::deprioritize_pool_thread(&pool);
        let scheduler = Arc::new(
            Scheduler::on_pool(
                Arc::clone(&pool),
                Arc::clone(&model),
                None,
                SchedulerConfig::new(Parallelism::Fixed(1)),
                None,
            )
            .expect("valid scheduler"),
        );
        for k in 0..WARMUP_REQUESTS {
            scheduler
                .submit_wait(test.image(k % test.len()).to_vec())
                .expect("warm-up request");
        }
        let mut stepper = DeltaStepper::fresh(&train, &env, trainer).expect("stepper");
        // The fastest warm-up epoch: a host disturbance can only slow an
        // epoch, and an underestimate would leave the window's tail
        // without training.
        let epoch_s = (0..WARMUP_EPOCHS)
            .map(|_| {
                let t0 = Instant::now();
                stepper.step(&train);
                t0.elapsed().as_secs_f64()
            })
            .fold(f64::INFINITY, f64::min);
        Inputs {
            train: Arc::new(train),
            test,
            env,
            model,
            scheduler,
            pool,
            epoch_s,
        }
    });
    let max_epochs = (EPOCH_COVER * args.seconds / inputs.epoch_s).ceil() as u64;
    let reference = vec![serving::reference_labels(
        &inputs.model,
        &serving::all_inputs(&inputs.test),
    )];
    let arrivals = openloop::schedule(
        RPS,
        args.seconds,
        sub_seed(args.seed, TRAFFIC_SEED),
        inputs.test.len(),
    );
    let mut report = Report {
        correct: true,
        ..Report::default()
    };
    report.notes.push(format!("pinned to cpu {cpu:?}"));

    let window = serve_beside_training(
        &inputs,
        trainer,
        max_epochs,
        &arrivals,
        cpu,
        &run_dir.join("ckpt/job"),
        None,
    );
    let scored = serving::score(&window.measured, &arrivals, &reference, &inputs.test, SLO_S);
    serving::tally(&mut report, &scored, "open loop");
    // The solo reference run doubles as the traced run's epoch and
    // checkpoint probe.
    let solo_dir = run_dir.join("ckpt/solo");
    let solo_bits = solo_run(&inputs, trainer, max_epochs, &solo_dir, tracer.as_ref());
    check_job(&window, &solo_bits, max_epochs, &mut report);
    report.notes.push(format!(
        "epochs {max_epochs}, train_epochs_per_s {:.2}, yields {}",
        max_epochs as f64 / window.job_wall_s,
        window.job.yields,
    ));
    report.notes.push(serving::validity_note(&window.measured));
    let Some(tracer) = tracer else {
        serving::end_to_end(&mut report, &scored, setup_s);
        return report;
    };

    let meter = FallbackMeter::start();
    let traced = serve_beside_training(
        &inputs,
        trainer,
        max_epochs,
        &arrivals,
        cpu,
        &run_dir.join("ckpt/traced-job"),
        Some(&tracer),
    );
    let fallback_share = meter.share();
    let traced_scored =
        serving::score(&traced.measured, &arrivals, &reference, &inputs.test, SLO_S);
    serving::tally(&mut report, &traced_scored, "traced open loop");
    check_job(&traced, &solo_bits, max_epochs, &mut report);
    let batch = serving::mean_batch(&traced.measured.outcomes).round() as usize;
    let read_us =
        serving::read_us_per_sample(&inputs.model, &serving::all_inputs(&inputs.test), batch);
    serving::serving_layers(
        &mut report,
        &traced.measured,
        &traced_scored,
        read_us,
        scored.calm_latency_ms(0.5),
    );
    let submit_us: Vec<f64> = traced
        .measured
        .outcomes
        .iter()
        .map(|o| o.submit_s * 1e6)
        .collect();
    report.set("serve.submit_us_p50", median(&submit_us));
    report.set("train.epoch_ms", median(&tracer.durations_ms("train.step")));
    report.set(
        "train.checkpoint_ms",
        median(&tracer.durations_ms("train.checkpoint")),
    );
    report.set("train.epochs_per_s", max_epochs as f64 / traced.job_wall_s);
    report.set("train.yields", traced.job.yields as f64);
    report.set("runtime.fast_fallback_share", fallback_share);
    setup::compile_layers(&mut report, &tracer);
    report.set(
        "nn.pool_wake_us_p50",
        probes::pool_wake_us_p50(&inputs.pool, 50),
    );
    report.set("bench.host_steal_share", traced.measured.steal.overall);
    if let Err(e) = tracer.write_jsonl(&run_dir.join("spans.jsonl")) {
        report.notes.push(format!("span file not written: {e}"));
    }
    report
}

/// Starts the job on its own thread (its mini-epochs run on the shared
/// pool), drives the open loop, then waits for the job.
fn serve_beside_training(
    inputs: &Inputs,
    trainer: TrainerConfig,
    max_epochs: u64,
    arrivals: &[Arrival],
    cpu: Option<usize>,
    checkpoint_dir: &Path,
    tracer: Option<&Tracer>,
) -> Window {
    let _ = std::fs::remove_dir_all(checkpoint_dir);
    let config = JobConfig {
        max_epochs,
        checkpoint_every: CHECKPOINT_EVERY,
        ..JobConfig::new(trainer, checkpoint_dir)
    };
    let job = TrainingJob::new(config, Arc::clone(&inputs.train), inputs.env)
        .expect("valid job")
        .with_scheduler(Arc::clone(&inputs.scheduler))
        .with_pool(Arc::clone(&inputs.pool));
    let handle = std::thread::spawn(move || {
        let t0 = Instant::now();
        let report = job.run();
        (report, t0.elapsed().as_secs_f64())
    });
    let measured = openloop::drive(
        arrivals,
        Pace::Block,
        cpu,
        |a| {
            inputs
                .scheduler
                .try_submit(inputs.test.image(a.sample).to_vec(), None)
                .map(|t| (0, t))
                .map_err(|e| e.to_string())
        },
        tracer.map(|t| (t, "serve.submit")),
    );
    let (job, job_wall_s) = handle.join().expect("training thread");
    Window {
        measured,
        job: job.expect("training job"),
        job_wall_s,
    }
}

/// The same training alone: `DeltaStepper::step` `epochs` times on this
/// thread, saving a checkpoint at the job's cadence (each a span when
/// tracing). Returns the final weights' bits, the reference the job must
/// match bit for bit.
fn solo_run(
    inputs: &Inputs,
    trainer: TrainerConfig,
    epochs: u64,
    dir: &Path,
    tracer: Option<&Tracer>,
) -> Vec<u64> {
    std::fs::create_dir_all(dir).expect("checkpoint dir");
    let path = dir.join("solo.vxck");
    let mut stepper = DeltaStepper::fresh(&inputs.train, &inputs.env, trainer).expect("stepper");
    let span = |name, t0: Instant, epoch: u64| {
        if let Some(t) = tracer {
            t.record(name, t0, Instant::now(), None, epoch);
        }
    };
    while stepper.epoch() < epochs {
        let t0 = Instant::now();
        stepper.step(&inputs.train);
        span("train.step", t0, stepper.epoch());
        if stepper.epoch().is_multiple_of(CHECKPOINT_EVERY) {
            let t0 = Instant::now();
            stepper.checkpoint().save(&path).expect("checkpoint save");
            span("train.checkpoint", t0, stepper.epoch());
        }
    }
    stepper
        .weights()
        .as_slice()
        .iter()
        .map(|w| w.to_bits())
        .collect()
}

fn check_job(window: &Window, solo_bits: &[u64], epochs: u64, report: &mut Report) {
    let job = &window.job;
    if job.epochs != epochs || job.restarts != 0 {
        report.fail_check(format!(
            "job ran {} of {epochs} epochs with {} restarts",
            job.epochs, job.restarts
        ));
    }
    let bits: Vec<u64> = job.weights.as_slice().iter().map(|w| w.to_bits()).collect();
    if bits != solo_bits {
        report.fail_check("job weights differ from the solo DeltaStepper run");
    }
}
