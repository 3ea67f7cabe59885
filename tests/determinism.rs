//! The determinism contract, enforced end to end: every Monte-Carlo loop
//! in the workspace produces **bit-identical** results on any worker
//! count. See `vortex_nn::executor` for the mechanism (pre-split seed
//! streams, sharded execution, ordered reassembly).

use std::time::{Duration, Instant};

use vortex_bench::experiments::common::Scale;
use vortex_bench::experiments::fig2;
use vortex_core::amp::greedy::RowMapping;
use vortex_core::amp::sensitivity::mean_abs_inputs;
use vortex_core::pipeline::{evaluate_hardware_with, HardwareEnv};
use vortex_core::vortex::{amp_evaluate_with, AmpChipOptions, VortexConfig, VortexPipeline};
use vortex_linalg::rng::Xoshiro256PlusPlus;
use vortex_nn::dataset::{Dataset, DatasetConfig, SynthDigits};
use vortex_nn::executor::{run_trials, Parallelism, THREADS_ENV_VAR};
use vortex_nn::gdt::GdtTrainer;
use vortex_nn::split::stratified_split;

/// Thread counts every assertion sweeps, per the contract.
const THREAD_COUNTS: [usize; 3] = [1, 2, 8];

fn rng(seed: u64) -> Xoshiro256PlusPlus {
    Xoshiro256PlusPlus::seed_from_u64(seed)
}

fn dataset(seed: u64) -> (Dataset, Dataset) {
    let data = SynthDigits::generate(&DatasetConfig::tiny(), seed).expect("dataset");
    let split = stratified_split(&data, 200, 100, &mut rng(seed)).expect("split");
    (split.train, split.test)
}

// ---------------------------------------------------------------------------
// Executor-level properties.
// ---------------------------------------------------------------------------

#[test]
fn executor_is_bit_exact_across_thread_counts_and_odd_trial_counts() {
    let f = |k: usize, r: &mut Xoshiro256PlusPlus| (k as f64).mul_add(1e-9, r.next_f64());
    // Odd, even, tiny and prime trial counts all round-trip identically.
    for trials in [1usize, 2, 7, 37, 101] {
        let baseline = run_trials(&mut rng(42), trials, Parallelism::Serial, f);
        for threads in THREAD_COUNTS {
            let got = run_trials(&mut rng(42), trials, Parallelism::Fixed(threads), f);
            assert_eq!(baseline.len(), got.len());
            for (k, (a, b)) in baseline.iter().zip(&got).enumerate() {
                assert_eq!(
                    a.to_bits(),
                    b.to_bits(),
                    "trial {k}/{trials} diverged at {threads} threads"
                );
            }
        }
    }
}

#[test]
fn results_stay_in_trial_order_under_skewed_workloads() {
    // Early trials are given far more work than late ones, so on a real
    // pool the *completion* order inverts — the output order must not.
    let f = |k: usize, r: &mut Xoshiro256PlusPlus| {
        let spins = if k < 8 { 20_000 } else { 10 };
        let mut acc = 0u64;
        for _ in 0..spins {
            acc = acc.wrapping_add(r.next_u64());
        }
        (k, acc)
    };
    let out = run_trials(&mut rng(3), 33, Parallelism::Fixed(8), f);
    let indices: Vec<usize> = out.iter().map(|&(k, _)| k).collect();
    assert_eq!(indices, (0..33).collect::<Vec<_>>());
    // And the values still match the serial loop exactly.
    assert_eq!(out, run_trials(&mut rng(3), 33, Parallelism::Serial, f));
}

#[test]
fn trials_are_prefix_stable_and_independent() {
    // Child k is a pure function of (seed, k): adding more trials must not
    // change the earlier ones, and no two children may share a stream.
    let f = |_: usize, r: &mut Xoshiro256PlusPlus| r.next_u64();
    let short = run_trials(&mut rng(11), 13, Parallelism::Fixed(2), f);
    let long = run_trials(&mut rng(11), 41, Parallelism::Fixed(8), f);
    assert_eq!(short[..], long[..13], "prefix changed when trials grew");
    let mut uniq = long.clone();
    uniq.sort_unstable();
    uniq.dedup();
    assert_eq!(uniq.len(), long.len(), "child streams collided");
}

#[test]
fn parent_generator_continues_identically_after_fan_out() {
    let mut serial = rng(8);
    let _ = run_trials(&mut serial, 19, Parallelism::Serial, |_, r| r.next_f64());
    for threads in THREAD_COUNTS {
        let mut parallel = rng(8);
        let _ = run_trials(&mut parallel, 19, Parallelism::Fixed(threads), |_, r| {
            r.next_f64()
        });
        let mut s = serial.clone();
        assert_eq!(
            s.next_u64(),
            parallel.next_u64(),
            "parent stream diverged after {threads}-thread fan-out"
        );
    }
}

#[test]
fn env_var_controls_auto_resolution() {
    // Whatever Auto resolves to, results are bit-identical — this test
    // only checks the *pool size* plumbing. The value is harmless to any
    // concurrently-running test for exactly that reason.
    std::env::set_var(THREADS_ENV_VAR, "3");
    assert_eq!(Parallelism::Auto.resolve(), 3);
    std::env::set_var(THREADS_ENV_VAR, "not a number");
    assert!(Parallelism::Auto.resolve() >= 1);
    std::env::remove_var(THREADS_ENV_VAR);
    assert!(Parallelism::Auto.resolve() >= 1);
}

#[test]
fn run_trials_matches_serial_split_loop_at_every_thread_count() {
    // The reference is the loop the CLD trainer and the tiler used to
    // carry: one `parent.split()` per draw, in order.
    let f = |_: usize, r: &mut Xoshiro256PlusPlus| r.next_f64();
    let mut serial_parent = rng(77);
    let serial: Vec<f64> = (0..51).map(|k| f(k, &mut serial_parent.split())).collect();
    let after = serial_parent.next_u64();
    for threads in THREAD_COUNTS {
        let mut parent = rng(77);
        let par = run_trials(&mut parent, 51, Parallelism::Fixed(threads), f);
        assert_eq!(serial, par, "run_trials diverged at {threads} threads");
        assert_eq!(
            after,
            parent.next_u64(),
            "parent stream moved at {threads} threads"
        );
    }
}

// ---------------------------------------------------------------------------
// Experiment closures: three real pipelines, bit-exact across pools.
// ---------------------------------------------------------------------------

#[test]
fn hardware_evaluation_is_thread_invariant() {
    let (train, test) = dataset(21);
    let weights = GdtTrainer {
        epochs: 6,
        ..Default::default()
    }
    .train(&train)
    .expect("training");
    let mapping = RowMapping::identity(weights.rows());
    let env = HardwareEnv::with_sigma(0.6).expect("env");

    let mut serial_rng = rng(210);
    let serial = evaluate_hardware_with(
        &weights,
        &mapping,
        &env,
        &test,
        5,
        &mut serial_rng,
        Parallelism::Serial,
    )
    .expect("serial eval");
    for threads in THREAD_COUNTS {
        let mut par_rng = rng(210);
        let par = evaluate_hardware_with(
            &weights,
            &mapping,
            &env,
            &test,
            5,
            &mut par_rng,
            Parallelism::Fixed(threads),
        )
        .expect("parallel eval");
        assert_eq!(serial.per_draw, par.per_draw, "{threads} threads");
        assert_eq!(serial.mean_test_rate, par.mean_test_rate);
        // The caller's generator must be reusable identically afterwards.
        assert_eq!(serial_rng.clone().next_u64(), par_rng.next_u64());
    }
}

#[test]
fn amp_evaluation_is_thread_invariant() {
    let (train, test) = dataset(22);
    let weights = GdtTrainer {
        epochs: 6,
        ..Default::default()
    }
    .train(&train)
    .expect("training");
    let mean_abs = mean_abs_inputs(&train);
    let opts = AmpChipOptions {
        redundant_rows: 10,
        ..AmpChipOptions::default()
    };
    let env = HardwareEnv::with_sigma(0.8).expect("env");

    let serial = amp_evaluate_with(
        &weights,
        &mean_abs,
        &opts,
        &env,
        &test,
        5,
        &mut rng(220),
        Parallelism::Serial,
    )
    .expect("serial amp");
    for threads in THREAD_COUNTS {
        let par = amp_evaluate_with(
            &weights,
            &mean_abs,
            &opts,
            &env,
            &test,
            5,
            &mut rng(220),
            Parallelism::Fixed(threads),
        )
        .expect("parallel amp");
        assert_eq!(serial.per_draw, par.per_draw, "{threads} threads");
        assert_eq!(serial.mean_test_rate, par.mean_test_rate);
    }
}

#[test]
fn full_vortex_pipeline_is_thread_invariant() {
    let (train, test) = dataset(23);
    let env = HardwareEnv::with_sigma(0.7).expect("env");
    let cfg = |parallelism| VortexConfig {
        parallelism,
        ..VortexConfig::fast()
    };
    let serial = VortexPipeline::new(cfg(Parallelism::Serial))
        .run(&train, &test, &env, &mut rng(230))
        .expect("serial vortex");
    for threads in THREAD_COUNTS {
        let par = VortexPipeline::new(cfg(Parallelism::Fixed(threads)))
            .run(&train, &test, &env, &mut rng(230))
            .expect("parallel vortex");
        assert_eq!(serial.per_draw, par.per_draw, "{threads} threads");
        assert_eq!(serial.best_gamma, par.best_gamma);
        assert_eq!(serial.weights, par.weights);
        assert_eq!(serial.rates, par.rates);
    }
}

// ---------------------------------------------------------------------------
// Observability: metrics keep recording, results do not move.
// ---------------------------------------------------------------------------

#[test]
fn metrics_collection_does_not_perturb_results_across_env_thread_counts() {
    // The obs layer watches the executor from the outside — atomics and
    // wall-clock timers only — so flipping `VORTEX_MC_THREADS` between 1
    // and 8 must leave Monte-Carlo output bit-identical while the
    // instrumentation stays live. (As with `env_var_controls_auto_resolution`,
    // mutating the variable is harmless to concurrent tests precisely
    // because results never depend on the pool size.)
    let f = |_: usize, r: &mut Xoshiro256PlusPlus| r.next_f64();
    let mut runs = Vec::new();
    for threads in ["1", "8"] {
        std::env::set_var(THREADS_ENV_VAR, threads);
        runs.push(run_trials(&mut rng(515), 64, Parallelism::Auto, f));
    }
    std::env::remove_var(THREADS_ENV_VAR);
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    assert_eq!(
        bits(&runs[0]),
        bits(&runs[1]),
        "instrumented runs diverged between 1 and 8 threads"
    );

    // And the metrics were actively recording during those runs, not
    // compiled out or short-circuited.
    let snap = vortex_obs::snapshot();
    assert!(snap.counter("executor.trials").unwrap_or(0) >= 128);
    assert!(
        snap.histogram("executor.run_seconds")
            .map_or(0, |h| h.count)
            >= 2
    );
}

// ---------------------------------------------------------------------------
// End to end: Fig. 2 at bench scale — identical statistics, faster clock.
// ---------------------------------------------------------------------------

#[test]
fn fig2_statistics_are_identical_on_any_pool_and_parallel_is_not_slower() {
    let scale = Scale {
        column_runs: 240,
        ..Scale::bench()
    };
    let timed = |parallelism| {
        let start = Instant::now();
        let result = fig2::run_with(&scale, parallelism);
        (result, start.elapsed())
    };

    let (serial, serial_elapsed) = timed(Parallelism::Serial);
    let mut parallel_elapsed = Duration::MAX;
    for threads in THREAD_COUNTS {
        let (par, elapsed) = timed(Parallelism::Fixed(threads));
        assert_eq!(
            serial, par,
            "Fig. 2 statistics changed at {threads} threads"
        );
        if threads > 1 {
            parallel_elapsed = parallel_elapsed.min(elapsed);
        }
    }

    // Timing is soft-gated: only meaningful with real cores and a run long
    // enough to swamp thread start-up. A loaded CI box still gets slack.
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    if cores >= 4 && serial_elapsed > Duration::from_millis(200) {
        assert!(
            parallel_elapsed < serial_elapsed.mul_f64(1.1),
            "parallel Fig. 2 ({parallel_elapsed:?}) should not be slower than serial ({serial_elapsed:?})"
        );
    }
}

// ---------------------------------------------------------------------------
// The shared worker pool: one pool, many clients, zero drift.
// ---------------------------------------------------------------------------

mod shared_pool {
    use super::*;
    use std::sync::Arc;

    use vortex_device::DeviceParams;
    use vortex_linalg::Matrix;
    use vortex_nn::executor::run_trials_on;
    use vortex_nn::pool::WorkerPool;
    use vortex_runtime::{CompiledModel, Fidelity, ReadOptions};
    use vortex_serve::{Scheduler, SchedulerConfig};
    use vortex_xbar::crossbar::CrossbarConfig;
    use vortex_xbar::encoding::EncodingTable;
    use vortex_xbar::pair::{DifferentialPair, WeightMapping};
    use vortex_xbar::program::{program_with_protocol, ProgramOptions};

    const ROWS: usize = 6;
    const COLS: usize = 3;

    fn compiled() -> Arc<CompiledModel> {
        let device = DeviceParams::default();
        let config = CrossbarConfig {
            r_wire: 8.0,
            ..CrossbarConfig::ideal(ROWS, COLS, device)
        };
        let mapping = WeightMapping::new(&device, 1.0).unwrap();
        let mut rng = rng(42);
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

    fn request(k: usize) -> Vec<f64> {
        (0..ROWS)
            .map(|i| ((i * 7 + k) as f64 * 0.37).sin().abs())
            .collect()
    }

    /// One long-lived pool reused across many `run_trials_on` calls must
    /// behave exactly like a fresh executor every time, at every pool
    /// size — determinism cannot depend on pool warm-up or job history.
    #[test]
    fn reused_pool_is_bit_identical_across_runs_and_sizes() {
        let f = |k: usize, r: &mut Xoshiro256PlusPlus| (k as f64).mul_add(1e-9, r.next_f64());
        let baseline: Vec<Vec<f64>> = [13usize, 1, 37, 8]
            .iter()
            .map(|&trials| run_trials(&mut rng(7), trials, Parallelism::Serial, f))
            .collect();
        for size in [1usize, 2, 8] {
            let pool = WorkerPool::new(size);
            // Several rounds over the same pool: results never drift.
            for _round in 0..3 {
                for (&trials, want) in [13usize, 1, 37, 8].iter().zip(&baseline) {
                    let got =
                        run_trials_on(&pool, &mut rng(7), trials, Parallelism::Fixed(size), f);
                    assert_eq!(want.len(), got.len());
                    for (a, b) in want.iter().zip(&got) {
                        assert_eq!(
                            a.to_bits(),
                            b.to_bits(),
                            "pool of {size} drifted on {trials} trials"
                        );
                    }
                }
            }
        }
    }

    /// The tentpole contract: the Monte-Carlo executor and the serve
    /// scheduler share one pool, interleaved, and neither perturbs the
    /// other — executor output stays bit-exact, scheduler predictions
    /// stay equal to the model's own `infer`.
    #[test]
    fn interleaved_executor_and_serve_clients_share_one_pool() {
        let f = |_: usize, r: &mut Xoshiro256PlusPlus| r.next_u64();
        let want_mc = run_trials(&mut rng(19), 29, Parallelism::Serial, f);
        let model = compiled();
        let want_labels: Vec<u8> = (0..12).map(|k| model.infer(&request(k)).unwrap()).collect();

        for size in [1usize, 2, 8] {
            let pool = Arc::new(WorkerPool::new(size));
            let scheduler = Scheduler::on_pool(
                Arc::clone(&pool),
                Arc::clone(&model),
                None,
                SchedulerConfig::deterministic(),
                None,
            )
            .unwrap();
            for round in 0..3 {
                // Executor fan-out on the shared pool…
                let got = run_trials_on(&pool, &mut rng(19), 29, Parallelism::Fixed(size), f);
                assert_eq!(want_mc, got, "MC drifted at pool size {size} round {round}");
                // …interleaved with serve traffic on the same pool.
                for (k, want) in want_labels.iter().enumerate() {
                    let got = scheduler.submit_wait(request(k)).unwrap();
                    assert_eq!(got.class, *want, "serve prediction drifted");
                }
            }
            scheduler.shutdown();
        }
    }

    /// `VORTEX_MC_THREADS=1` must force the executor serial even when a
    /// big shared pool is available — Auto resolves from the env var,
    /// not from the pool it happens to run on.
    #[test]
    fn mc_threads_env_is_honored_on_a_shared_pool() {
        // Mutating the var is harmless to concurrent tests for the usual
        // reason: results never depend on the resolved thread count.
        let f = |_: usize, r: &mut Xoshiro256PlusPlus| r.next_f64();
        let want = run_trials(&mut rng(31), 23, Parallelism::Serial, f);
        let pool = WorkerPool::new(8);
        std::env::set_var(THREADS_ENV_VAR, "1");
        assert_eq!(Parallelism::Auto.resolve(), 1);
        let got = run_trials_on(&pool, &mut rng(31), 23, Parallelism::Auto, f);
        std::env::remove_var(THREADS_ENV_VAR);
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&want), bits(&got));
    }
}

// ---------------------------------------------------------------------------
// Self-healing chaos: the whole fault-and-recovery loop is a pure value.
// ---------------------------------------------------------------------------

#[test]
fn lifetime_policy_race_is_deterministic_in_virtual_time() {
    use vortex_bench::experiments::lifetime;

    // The whole two-day virtual timeline — wear, diurnal temperature,
    // Arrhenius-accelerated drift, three policies racing over the same
    // seeded arrival trace — is a pure function of the scale. Like the
    // chaos loop below, this also runs in CI's `VORTEX_MC_THREADS=1`
    // re-invocation, so nothing here may depend on the pool size.
    let baseline = lifetime::run(&Scale::bench());
    assert_eq!(
        baseline,
        lifetime::run(&Scale::bench()),
        "lifetime race diverged between identical runs"
    );
    assert_eq!(
        baseline.to_json(),
        lifetime::run(&Scale::bench()).to_json(),
        "lifetime JSON payload is not byte-stable"
    );
    // The gated invariants hold at bench scale too, not just --quick.
    assert_eq!(baseline.recompile_budget_delta(), 0);
    assert!(
        baseline.predictive_minus_periodic_accuracy_hours() < 0.0,
        "drift-predictive must strictly beat periodic at equal budget"
    );
}

#[test]
fn chaos_self_healing_loop_is_deterministic_and_loses_nothing() {
    use vortex_bench::experiments::chaos;

    // Two full runs — compile, drift, injected panics, requeue, canary
    // breach, fixed-seed recompile, hot swap, second drain — must agree
    // field for field. This test also runs in CI's `VORTEX_MC_THREADS=1`
    // re-invocation, so the counts and accuracies must not depend on the
    // executor's thread count either.
    let baseline = chaos::run(&Scale::bench());
    assert_eq!(
        baseline,
        chaos::run(&Scale::bench()),
        "chaos loop diverged between identical runs"
    );
    assert_eq!(baseline.lost_requests, 0, "no accepted request may vanish");
    assert!(baseline.swapped, "the canary breach must trigger a swap");
    assert_eq!(
        baseline.recovered_accuracy_delta_pp(),
        0.0,
        "a fixed-seed recompile must restore accuracy bit-exactly"
    );
}
