//! `serve_calibrated` (open loop through a 2-replica fleet) and
//! `serve_exact` (closed loop on the per-sample nodal read), plus the
//! scoring and serving-layer metrics `train_serve` shares.

use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use vortex_core::pipeline::ReadFidelity;
use vortex_fleet::{Fleet, FleetConfig, RoutingPolicy};
use vortex_linalg::rng::Xoshiro256PlusPlus;
use vortex_nn::dataset::Dataset;
use vortex_nn::executor::Parallelism;
use vortex_nn::pool::WorkerPool;
use vortex_runtime::CompiledModel;
use vortex_serve::{Scheduler, SchedulerConfig, Ticket};

use crate::openloop::{self, Arrival, Measured, Outcome, Pace};
use crate::probes::{self, median, quantile, steal_window, StealClock, STEAL_WINDOW_S};
use crate::report::Report;
use crate::setup::{self, sub_seed, SAMPLE_SEED, TRAFFIC_SEED};
use crate::trace::Tracer;
use crate::Args;

/// `serve_calibrated` arrival rate, requests/s: about 8% of the
/// backlog-drain capacity this workload was sized at (240–275k/s).
const CALIBRATED_RPS: f64 = 20_000.0;
/// `serve_calibrated` latency limit for `slo_share`.
const CALIBRATED_SLO_S: f64 = 0.005;
/// Replicas behind the fleet router.
const REPLICAS: u64 = 2;
/// Closed-loop warm-up requests inside `setup_s`.
const WARMUP_REQUESTS: usize = 200;
/// Backlog-drain phase: requests per drain and drains per run.
const DRAIN_BACKLOG: usize = 1200;
const DRAIN_REPS: usize = 20;

/// `serve_exact` planned op rate (4.7 ms per Exact 49×10 read).
const EXACT_OPS_PER_S: f64 = 200.0;
/// `serve_exact` latency limit for `slo_share`.
const EXACT_SLO_S: f64 = 0.020;
/// Distinct test inputs `serve_exact` cycles through (reference labels
/// cost one Exact read each).
const EXACT_INPUTS: usize = 96;
const EXACT_WARMUP: usize = 10;
/// Per-request tallies of one measured window.
#[derive(Debug, Default)]
pub struct Scored {
    pub attempted: usize,
    pub failed: usize,
    /// Ground-truth hits.
    pub hits: usize,
    /// Correct answers within the latency limit.
    pub within_slo: usize,
    /// Latencies of correct answers, ms.
    pub latencies_ms: Vec<f64>,
    /// The steal window each of those requests was due (or sent) in.
    pub windows: Vec<usize>,
    /// The steal window each of those answers was observed in.
    pub answered_windows: Vec<usize>,
    /// Which steal windows were calm (see
    /// [`StealShares::calm`](crate::probes::StealShares::calm)).
    pub calm: Vec<bool>,
}

impl Scored {
    fn is_calm(&self, w: usize) -> bool {
        self.calm.get(w).copied().unwrap_or(false)
    }

    /// The `q`-quantile of the latencies of requests due in calm windows:
    /// a slower program moves every window, the host's steal only some.
    /// Falls back to every answer when fewer than 10 are calm.
    pub fn calm_latency_ms(&self, q: f64) -> f64 {
        let calm: Vec<f64> = self
            .windows
            .iter()
            .zip(&self.latencies_ms)
            .filter(|(&w, _)| self.is_calm(w))
            .map(|(_, &l)| l)
            .collect();
        if calm.len() < 10 {
            return quantile(&self.latencies_ms, q);
        }
        quantile(&calm, q)
    }

    /// Correct answers observed in calm windows, per second of calm
    /// window.
    pub fn calm_ops_per_s(&self) -> f64 {
        let n_calm = self.calm.iter().filter(|&&c| c).count();
        let answered = self
            .answered_windows
            .iter()
            .filter(|&&w| self.is_calm(w))
            .count();
        answered as f64 / (n_calm.max(1) as f64 * STEAL_WINDOW_S)
    }
}

/// Checks every answer against the f64 reference label of the replica
/// that served it and against the ground truth.
pub fn score(
    measured: &Measured,
    arrivals: &[Arrival],
    reference: &[Vec<u8>],
    test: &Dataset,
    slo_s: f64,
) -> Scored {
    let mut s = Scored {
        attempted: measured.outcomes.len(),
        calm: measured.steal.calm(),
        ..Scored::default()
    };
    for (o, a) in measured.outcomes.iter().zip(arrivals) {
        let ok = matches!(&o.answer, Ok(p)
            if p.class == reference[o.replica][a.sample] && !p.downgraded);
        if !ok {
            s.failed += 1;
            continue;
        }
        if matches!(&o.answer, Ok(p) if p.class == test.label(a.sample)) {
            s.hits += 1;
        }
        if o.latency_s <= slo_s {
            s.within_slo += 1;
        }
        s.latencies_ms.push(o.latency_s * 1e3);
        s.windows.push(o.window);
        s.answered_windows.push(o.answered_window);
    }
    s
}

/// Writes the end-to-end metrics of a serving window.
pub fn end_to_end(report: &mut Report, s: &Scored, setup_s: f64) {
    let n = s.attempted.max(1) as f64;
    report.set("setup_s", setup_s);
    report.set("latency_p50_ms", s.calm_latency_ms(0.5));
    report.set("latency_p90_ms", s.calm_latency_ms(0.9));
    report.set("ops_per_s", s.calm_ops_per_s());
    report.set("slo_share", s.within_slo as f64 / n);
    report.set("accuracy", s.hits as f64 / n);
    report.set("peak_rss_mb", probes::peak_rss_mb());
}

/// Records the tallies in the result line's counters and checks.
pub fn tally(report: &mut Report, s: &Scored, what: &str) {
    report.attempted += s.attempted as u64;
    report.failed += s.failed as u64;
    if s.failed > 0 {
        report.fail_check(format!(
            "{what}: {} of {} requests failed or answered wrong",
            s.failed, s.attempted
        ));
    }
}

/// The f64 reference labels of `model` for `inputs` (certified fast
/// path off).
pub fn reference_labels(model: &CompiledModel, inputs: &[&[f64]]) -> Vec<u8> {
    model
        .clone()
        .with_reference_kernel()
        .infer_batch(inputs, Parallelism::Serial)
        .expect("reference read")
}

pub fn all_inputs(test: &Dataset) -> Vec<&[f64]> {
    (0..test.len()).map(|i| test.image(i)).collect()
}

/// Serial `infer_batch` cost per sample at batch size `batch`, µs:
/// consecutive batches cycle through `inputs` for at least one full pass
/// and 100 ms.
pub fn read_us_per_sample(model: &CompiledModel, inputs: &[&[f64]], batch: usize) -> f64 {
    let batch = batch.clamp(1, inputs.len());
    let deadline = Instant::now() + Duration::from_millis(100);
    let (mut samples, mut start) = (0usize, 0usize);
    let t0 = Instant::now();
    while samples < inputs.len() || Instant::now() < deadline {
        let end = (start + batch).min(inputs.len());
        std::hint::black_box(
            model
                .infer_batch(&inputs[start..end], Parallelism::Serial)
                .expect("probe read"),
        );
        samples += end - start;
        start = if end == inputs.len() { 0 } else { end };
    }
    t0.elapsed().as_secs_f64() * 1e6 / samples as f64
}

/// Serving-layer metrics of a traced open-loop window.
pub fn serving_layers(
    report: &mut Report,
    traced: &Measured,
    s: &Scored,
    read_us: f64,
    untraced_p50_ms: f64,
) {
    let outcomes = &traced.outcomes;
    let answered: Vec<&Outcome> = outcomes.iter().filter(|o| o.answer.is_ok()).collect();
    let batch: Vec<f64> = answered
        .iter()
        .filter_map(|o| o.answer.as_ref().ok().map(|p| p.batch_size as f64))
        .collect();
    let sched_ms: Vec<f64> = answered
        .iter()
        .zip(&batch)
        .map(|(o, b)| (o.after_submit_s - b * read_us * 1e-6) * 1e3)
        .collect();
    let downgraded = answered
        .iter()
        .filter(|o| matches!(&o.answer, Ok(p) if p.downgraded))
        .count();
    let late_ms: Vec<f64> = outcomes.iter().map(|o| o.late_s * 1e3).collect();
    let n = s.attempted.max(1) as f64;
    report.set("runtime.read_us_per_sample", read_us);
    report.set("serve.batch_size_mean", mean_batch(outcomes));
    report.set("serve.sched_ms_p50", median(&sched_ms));
    report.set("serve.downgraded_share", downgraded as f64 / n);
    report.set("bench.latency_p99_ms", quantile(&s.latencies_ms, 0.99));
    report.set("bench.error_share", s.failed as f64 / n);
    report.set("bench.generator_late_p99_ms", quantile(&late_ms, 0.99));
    report.set(
        "bench.trace_overhead_ratio",
        s.calm_latency_ms(0.5) / untraced_p50_ms,
    );
}

/// The line every run prints so a run the host disturbed can be told
/// apart: steal on the measured CPU and how late the generator ran.
pub fn validity_note(m: &Measured) -> String {
    let late_ms: Vec<f64> = m.outcomes.iter().map(|o| o.late_s * 1e3).collect();
    format!(
        "host steal share {:.4}, generator late p99 {:.4} ms",
        m.steal.overall,
        quantile(&late_ms, 0.99)
    )
}

/// Mean micro-batch size of the answered requests.
pub fn mean_batch(outcomes: &[Outcome]) -> f64 {
    let sizes: Vec<f64> = outcomes
        .iter()
        .filter_map(|o| o.answer.as_ref().ok().map(|p| p.batch_size as f64))
        .collect();
    sizes.iter().sum::<f64>() / sizes.len().max(1) as f64
}

/// Counts `runtime.fast_fallbacks / runtime.samples` over a window.
pub struct FallbackMeter(u64, u64);

impl FallbackMeter {
    pub fn start() -> Self {
        Self(
            vortex_obs::counter("runtime.fast_fallbacks").get(),
            vortex_obs::counter("runtime.samples").get(),
        )
    }

    pub fn share(&self) -> f64 {
        let fallbacks = vortex_obs::counter("runtime.fast_fallbacks").get() - self.0;
        let samples = vortex_obs::counter("runtime.samples").get() - self.1;
        fallbacks as f64 / samples.max(1) as f64
    }
}

struct Calibrated {
    test: Dataset,
    models: Vec<Arc<CompiledModel>>,
    fleet: Fleet,
    pool: Arc<WorkerPool>,
}

pub fn run_calibrated(args: &Args, run_dir: &Path) -> Report {
    let cpu = probes::pin_to_one_cpu();
    let tracer = args.trace.then(Tracer::new);
    let (inputs, setup_s) = setup::timed_setups(|| {
        let (train, test) = setup::dataset(14);
        let weights = setup::weights(&train);
        let env = setup::env();
        let models: Vec<Arc<CompiledModel>> = (0..REPLICAS)
            .map(|r| {
                let m = setup::compile(
                    &env,
                    &weights,
                    &train,
                    &test,
                    setup::REDUNDANT_ROWS,
                    setup::SERVED_CHIP_SEED ^ r,
                    tracer.as_ref(),
                );
                Arc::new(m)
            })
            .collect();
        let pool = Arc::new(WorkerPool::new(1));
        let fleet = Fleet::on_pool(
            Arc::clone(&pool),
            (0..REPLICAS).zip(models.iter().cloned()).collect(),
            FleetConfig::new(RoutingPolicy::ConsistentHash),
        )
        .expect("valid fleet");
        for k in 0..WARMUP_REQUESTS {
            fleet
                .submit_wait(k as u64, test.image(k % test.len()).to_vec())
                .expect("warm-up request");
        }
        Calibrated {
            test,
            models,
            fleet,
            pool,
        }
    });
    let Calibrated {
        test,
        models,
        fleet,
        pool,
    } = &inputs;
    let reference: Vec<Vec<u8>> = models
        .iter()
        .map(|m| reference_labels(m, &all_inputs(test)))
        .collect();
    let arrivals = openloop::schedule(
        CALIBRATED_RPS,
        args.seconds,
        sub_seed(args.seed, TRAFFIC_SEED),
        test.len(),
    );
    let submit = |a: &Arrival| -> Result<(usize, Ticket), String> {
        fleet
            .submit(a.key, test.image(a.sample).to_vec(), None)
            .map_err(|e| e.to_string())
    };
    let mut report = Report {
        correct: true,
        ..Report::default()
    };
    report.notes.push(format!("pinned to cpu {cpu:?}"));

    let measured = openloop::drive(&arrivals, Pace::Spin, cpu, submit, None);
    let scored = score(&measured, &arrivals, &reference, test, CALIBRATED_SLO_S);
    tally(&mut report, &scored, "open loop");
    let capacity = drain_capacity(fleet, test, &reference, args.seed, &mut report);
    report.notes.push(format!("capacity_rps {capacity:.0}"));
    report.notes.push(validity_note(&measured));
    let Some(tracer) = tracer else {
        end_to_end(&mut report, &scored, setup_s);
        return report;
    };

    let meter = FallbackMeter::start();
    let traced = openloop::drive(
        &arrivals,
        Pace::Spin,
        cpu,
        submit,
        Some((&tracer, "fleet.submit")),
    );
    let fallback_share = meter.share();
    let traced_scored = score(&traced, &arrivals, &reference, test, CALIBRATED_SLO_S);
    tally(&mut report, &traced_scored, "traced open loop");
    let batch = mean_batch(&traced.outcomes).round() as usize;
    let read_us = read_us_per_sample(&models[0], &all_inputs(test), batch);
    serving_layers(
        &mut report,
        &traced,
        &traced_scored,
        read_us,
        scored.calm_latency_ms(0.5),
    );
    let mut per_replica = [0usize; REPLICAS as usize];
    for o in &traced.outcomes {
        per_replica[o.replica] += 1;
    }
    let submit_us: Vec<f64> = traced.outcomes.iter().map(|o| o.submit_s * 1e6).collect();
    report.set("fleet.submit_us_p50", median(&submit_us));
    report.set(
        "fleet.replica_share_max",
        *per_replica.iter().max().expect("replicas") as f64 / traced.outcomes.len().max(1) as f64,
    );
    report.set("serve.capacity_rps", capacity);
    report.set("runtime.fast_fallback_share", fallback_share);
    setup::compile_layers(&mut report, &tracer);
    report.set("nn.pool_wake_us_p50", probes::pool_wake_us_p50(pool, 50));
    report.set("bench.host_steal_share", traced.steal.overall);
    if let Err(e) = tracer.write_jsonl(&run_dir.join("spans.jsonl")) {
        report.notes.push(format!("span file not written: {e}"));
    }
    report
}

/// Backlog-drain phase: with the replicas paused, admit a pre-built
/// backlog, then time resume → last answer. Returns the median drain
/// rate over [`DRAIN_REPS`] drains, requests/s.
fn drain_capacity(
    fleet: &Fleet,
    test: &Dataset,
    reference: &[Vec<u8>],
    seed: u64,
    report: &mut Report,
) -> f64 {
    let mut pick = Xoshiro256PlusPlus::seed_from_u64(sub_seed(seed, SAMPLE_SEED));
    let backlog: Vec<(u64, usize)> = (0..DRAIN_BACKLOG)
        .map(|_| (pick.next_u64(), pick.next_below(test.len())))
        .collect();
    let mut rates = Vec::with_capacity(DRAIN_REPS);
    let mut failed = 0usize;
    for _ in 0..DRAIN_REPS {
        let inputs: Vec<Vec<f64>> = backlog
            .iter()
            .map(|&(_, i)| test.image(i).to_vec())
            .collect();
        fleet.pause_all();
        let mut pending: Vec<(usize, usize, Ticket)> = Vec::with_capacity(DRAIN_BACKLOG);
        for (k, (input, &(key, _))) in inputs.into_iter().zip(&backlog).enumerate() {
            match fleet.submit(key, input, None) {
                Ok((replica, ticket)) => pending.push((k, replica, ticket)),
                Err(_) => failed += 1,
            }
        }
        let admitted = pending.len();
        let t0 = Instant::now();
        fleet.resume_all();
        let mut last = t0;
        while !pending.is_empty() {
            let mut i = 0;
            while i < pending.len() {
                match pending[i].2.wait_timeout(Duration::ZERO) {
                    None => i += 1,
                    Some(answer) => {
                        last = Instant::now();
                        let (k, replica, _) = pending.swap_remove(i);
                        let sample = backlog[k].1;
                        if !matches!(answer, Ok(p) if p.class == reference[replica][sample]) {
                            failed += 1;
                        }
                    }
                }
            }
        }
        rates.push(admitted as f64 / (last - t0).as_secs_f64());
    }
    report.attempted += (DRAIN_BACKLOG * DRAIN_REPS) as u64;
    report.failed += failed as u64;
    if failed > 0 {
        report.fail_check(format!(
            "backlog drain: {failed} requests refused or answered wrong"
        ));
    }
    median(&rates)
}

struct Exact {
    test: Dataset,
    model: Arc<CompiledModel>,
    scheduler: Scheduler,
    pool: Arc<WorkerPool>,
}

pub fn run_exact(args: &Args, run_dir: &Path) -> Report {
    let cpu = probes::pin_to_one_cpu();
    let tracer = args.trace.then(Tracer::new);
    let (inputs, setup_s) = setup::timed_setups(|| {
        let (train, test) = setup::dataset(7);
        let weights = setup::weights(&train);
        let mut env = setup::env();
        env.read_fidelity = ReadFidelity::ExactIrDrop;
        // No spare rows: the Exact read stays on the 49×10 array.
        let model = Arc::new(setup::compile(
            &env,
            &weights,
            &train,
            &test,
            0,
            setup::SERVED_CHIP_SEED,
            tracer.as_ref(),
        ));
        let pool = Arc::new(WorkerPool::new(1));
        // Default configuration: the degradation ladder is off.
        let scheduler = Scheduler::on_pool(
            Arc::clone(&pool),
            Arc::clone(&model),
            None,
            SchedulerConfig::new(Parallelism::Fixed(1)),
            None,
        )
        .expect("valid scheduler");
        for k in 0..EXACT_WARMUP {
            scheduler
                .submit_wait(test.image(k).to_vec())
                .expect("warm-up request");
        }
        Exact {
            test,
            model,
            scheduler,
            pool,
        }
    });
    let Exact {
        test,
        model,
        scheduler,
        pool,
    } = &inputs;
    let served: Vec<&[f64]> = (0..EXACT_INPUTS).map(|i| test.image(i)).collect();
    let reference = vec![reference_labels(model, &served)];
    let n_ops = ((args.seconds * EXACT_OPS_PER_S).round() as usize).max(1);
    // Every input is sent equally often (to within one), in a seeded
    // order, so accuracy does not hinge on which inputs a seed draws.
    let mut order: Vec<usize> = (0..EXACT_INPUTS).collect();
    Xoshiro256PlusPlus::seed_from_u64(sub_seed(args.seed, SAMPLE_SEED)).shuffle(&mut order);
    // Closed loop: nothing is due at a set time.
    let arrivals: Vec<Arrival> = (0..n_ops)
        .map(|k| Arrival {
            due_s: 0.0,
            sample: order[k % EXACT_INPUTS],
            key: 0,
        })
        .collect();
    let mut report = Report {
        correct: true,
        ..Report::default()
    };
    report.notes.push(format!("pinned to cpu {cpu:?}"));

    let measured = closed_loop(scheduler, test, &arrivals, cpu, None);
    let scored = score(&measured, &arrivals, &reference, test, EXACT_SLO_S);
    tally(&mut report, &scored, "closed loop");
    report.notes.push(validity_note(&measured));
    let Some(tracer) = tracer else {
        end_to_end(&mut report, &scored, setup_s);
        return report;
    };

    let meter = FallbackMeter::start();
    let traced = closed_loop(scheduler, test, &arrivals, cpu, Some(&tracer));
    let fallback_share = meter.share();
    let traced_scored = score(&traced, &arrivals, &reference, test, EXACT_SLO_S);
    tally(&mut report, &traced_scored, "traced closed loop");
    let read_us = read_us_per_sample(model, &served, 1);
    serving_layers(
        &mut report,
        &traced,
        &traced_scored,
        read_us,
        scored.calm_latency_ms(0.5),
    );
    let exact_ms: Vec<f64> = served
        .iter()
        .map(|x| {
            let t0 = Instant::now();
            std::hint::black_box(model.infer(x).expect("exact read"));
            t0.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    let submit_us: Vec<f64> = traced.outcomes.iter().map(|o| o.submit_s * 1e6).collect();
    report.set("runtime.exact_read_ms", median(&exact_ms));
    report.set("serve.submit_us_p50", median(&submit_us));
    report.set("runtime.fast_fallback_share", fallback_share);
    setup::compile_layers(&mut report, &tracer);
    report.set("nn.pool_wake_us_p50", probes::pool_wake_us_p50(pool, 50));
    report.set("bench.host_steal_share", traced.steal.overall);
    if let Err(e) = tracer.write_jsonl(&run_dir.join("spans.jsonl")) {
        report.notes.push(format!("span file not written: {e}"));
    }
    report
}

/// One client: each request is sent when the previous answer arrives.
/// Untraced it calls `submit_wait`; traced, the same `try_submit` +
/// `wait` pair with the submit timed. `late_s` is the client's own gap
/// between an answer and the next send; `window` is the second it was
/// sent in.
fn closed_loop(
    scheduler: &Scheduler,
    test: &Dataset,
    arrivals: &[Arrival],
    cpu: Option<usize>,
    tracer: Option<&Tracer>,
) -> Measured {
    let start = Instant::now();
    let mut steal = StealClock::start(cpu, start);
    let mut prev = start;
    let mut outcomes = Vec::with_capacity(arrivals.len());
    for (k, a) in arrivals.iter().enumerate() {
        let input = test.image(a.sample).to_vec();
        let t0 = Instant::now();
        steal.tick(t0);
        let (answer, submit_end) = match tracer {
            None => (scheduler.submit_wait(input), t0),
            Some(_) => match scheduler.try_submit(input, None) {
                Ok(ticket) => {
                    let submit_end = Instant::now();
                    (ticket.wait(), submit_end)
                }
                Err(e) => (Err(e), Instant::now()),
            },
        };
        let t1 = Instant::now();
        if let Some(t) = tracer {
            let root = t.record("request", t0, t1, None, k as u64);
            t.record("serve.submit", t0, submit_end, Some(root), k as u64);
        }
        outcomes.push(Outcome {
            replica: 0,
            late_s: (t0 - prev).as_secs_f64(),
            submit_s: (submit_end - t0).as_secs_f64(),
            latency_s: (t1 - t0).as_secs_f64(),
            after_submit_s: (t1 - submit_end).as_secs_f64(),
            window: steal_window((t0 - start).as_secs_f64()),
            answered_window: steal_window((t1 - start).as_secs_f64()),
            answer: answer.map_err(|e| e.to_string()),
        });
        prev = t1;
    }
    Measured {
        outcomes,
        steal: steal.finish(),
    }
}
