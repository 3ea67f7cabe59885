//! Deterministic parallel trial execution.
//!
//! Every Monte-Carlo loop in the workspace follows the same shape: a
//! parent [`Xoshiro256PlusPlus`] splits one child generator per trial, and
//! each trial consumes only its own child. Because the children depend
//! *only* on the parent stream — never on what previous trials did with
//! their children — the whole set of child generators can be pre-split
//! **before** fan-out. That is the determinism contract of this module:
//!
//! 1. **Pre-split**: child generator `k` is `parent.split()` number `k`,
//!    taken serially from the parent before any worker starts. The parent
//!    ends in exactly the state the serial loop would leave it in.
//! 2. **Pooled execution**: trials are claimed dynamically from the
//!    persistent [`WorkerPool`] — no per-call
//!    thread spawn, no channel setup (see [`crate::pool`]).
//! 3. **Ordered reassembly**: results land in a slot vector by trial
//!    index, so the output `Vec` is in trial order regardless of which
//!    worker finished first.
//!
//! Consequently [`run_trials`] is **bit-exact** across thread counts *and*
//! across claiming orders: trial `k` sees only child `k`, so one thread,
//! eight threads and the serial fallback all produce identical output for
//! the same seed. `tests/determinism.rs` in the bench crate enforces this,
//! including across many `run_trials` calls reusing one pool and with the
//! serve scheduler sharing that pool concurrently.
//!
//! The fan-out width comes from [`Parallelism`]: `Serial` forces the
//! in-place loop, `Fixed(n)` uses `n` claiming threads, and `Auto` (the
//! default everywhere) honors the `VORTEX_MC_THREADS` environment
//! variable, falling back to [`std::thread::available_parallelism`].
//!
//! # Observability
//!
//! Every [`run_trials`] call reports to the `vortex_obs` global registry:
//! `executor.runs` / `executor.trials` (counters), `executor.workers`
//! (gauge), and the histograms `executor.run_seconds` (whole fan-out) and
//! `executor.split_seconds` (serial pre-split). Metrics observe timing
//! only — no RNG, no control flow — so they cannot perturb the
//! bit-exactness contract above.

use std::time::Instant;
use vortex_linalg::rng::Xoshiro256PlusPlus;

use crate::pool::WorkerPool;

/// Name of the environment variable that overrides the `Auto` pool size.
pub const THREADS_ENV_VAR: &str = "VORTEX_MC_THREADS";

/// How many workers a Monte-Carlo loop fans out over.
///
/// All variants produce bit-identical results — the choice only affects
/// wall-clock time.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub enum Parallelism {
    /// Run trials in the calling thread, in order.
    Serial,
    /// Use exactly this many worker threads (values below 1 behave as 1).
    Fixed(usize),
    /// Use `VORTEX_MC_THREADS` if set to a positive integer, otherwise
    /// [`std::thread::available_parallelism`].
    #[default]
    Auto,
}

impl Parallelism {
    /// Resolves to a concrete worker count (always ≥ 1).
    pub fn resolve(self) -> usize {
        match self {
            Self::Serial => 1,
            Self::Fixed(n) => n.max(1),
            Self::Auto => env_threads().unwrap_or_else(available_threads),
        }
    }
}

fn env_threads() -> Option<usize> {
    std::env::var(THREADS_ENV_VAR)
        .ok()?
        .trim()
        .parse::<usize>()
        .ok()
        .filter(|&n| n >= 1)
}

fn available_threads() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

/// Runs `trials` independent evaluations of `f`, each with its own child
/// generator pre-split from `parent`, and returns the results **in trial
/// order**. Fan-out runs on the process-wide [`WorkerPool::global`].
///
/// `f` receives the trial index and the trial's child generator. The
/// output is bit-identical for every [`Parallelism`] setting; see the
/// module docs for the mechanism. `parent` is left in the same state the
/// equivalent serial split-per-trial loop would leave it in, so callers
/// may keep drawing from it afterwards.
pub fn run_trials<T, F>(
    parent: &mut Xoshiro256PlusPlus,
    trials: usize,
    parallelism: Parallelism,
    f: F,
) -> Vec<T>
where
    T: Send,
    F: Fn(usize, &mut Xoshiro256PlusPlus) -> T + Sync,
{
    run_trials_on(WorkerPool::global(), parent, trials, parallelism, f)
}

/// [`run_trials`] on an explicit pool. Library code and tests that need
/// an isolated or specifically-sized pool (the determinism harness pins
/// pool sizes 1, 2 and 8) call this directly.
pub fn run_trials_on<T, F>(
    pool: &WorkerPool,
    parent: &mut Xoshiro256PlusPlus,
    trials: usize,
    parallelism: Parallelism,
    f: F,
) -> Vec<T>
where
    T: Send,
    F: Fn(usize, &mut Xoshiro256PlusPlus) -> T + Sync,
{
    let _run_span = vortex_obs::span!("executor.run_seconds");
    vortex_obs::counter!("executor.runs").incr();
    vortex_obs::counter!("executor.trials").add(trials as u64);

    // Step 1 of the contract: split every child serially, up front.
    let split_start = Instant::now();
    let children: Vec<Xoshiro256PlusPlus> = (0..trials).map(|_| parent.split()).collect();
    vortex_obs::histogram!("executor.split_seconds").record(split_start.elapsed().as_secs_f64());
    let workers = parallelism.resolve().min(trials.max(1));
    vortex_obs::gauge!("executor.workers").set(workers as f64);
    if workers <= 1 {
        return children
            .into_iter()
            .enumerate()
            .map(|(k, mut child)| f(k, &mut child))
            .collect();
    }

    // Steps 2 + 3: dynamic claiming over the persistent pool, results
    // reassembled by index. Trial `k` clones child `k` out of the
    // pre-split vector, so the value stream is a pure function of `k` —
    // which thread runs it, and in what order, cannot matter.
    pool.run_indexed(trials, workers, |k| {
        let mut child = children[k].clone();
        f(k, &mut child)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parent(seed: u64) -> Xoshiro256PlusPlus {
        Xoshiro256PlusPlus::seed_from_u64(seed)
    }

    #[test]
    fn serial_and_parallel_agree_bit_for_bit() {
        let f = |k: usize, rng: &mut Xoshiro256PlusPlus| (k as f64) + rng.next_f64();
        let baseline = run_trials(&mut parent(7), 23, Parallelism::Serial, f);
        for threads in [1, 2, 3, 8, 64] {
            let got = run_trials(&mut parent(7), 23, Parallelism::Fixed(threads), f);
            let same = baseline
                .iter()
                .zip(&got)
                .all(|(a, b)| a.to_bits() == b.to_bits());
            assert!(same, "thread count {threads} changed the output");
        }
    }

    #[test]
    fn explicit_pool_matches_global_pool() {
        let f = |k: usize, rng: &mut Xoshiro256PlusPlus| (k as u64, rng.next_u64());
        let global = run_trials(&mut parent(13), 19, Parallelism::Fixed(3), f);
        for size in [1, 2, 8] {
            let pool = WorkerPool::new(size);
            let got = run_trials_on(&pool, &mut parent(13), 19, Parallelism::Fixed(3), f);
            assert_eq!(global, got, "pool size {size} changed the output");
        }
    }

    #[test]
    fn parent_state_matches_serial_loop() {
        let mut serial = parent(9);
        for _ in 0..10 {
            let _ = serial.split();
        }
        let mut fanned = parent(9);
        let _ = run_trials(&mut fanned, 10, Parallelism::Fixed(4), |_, rng| {
            rng.next_u64()
        });
        assert_eq!(serial.next_u64(), fanned.next_u64());
    }

    #[test]
    fn results_are_in_trial_order() {
        let out = run_trials(&mut parent(1), 101, Parallelism::Fixed(8), |k, _| k);
        assert_eq!(out, (0..101).collect::<Vec<_>>());
    }

    #[test]
    fn zero_trials_is_empty() {
        let out = run_trials(&mut parent(2), 0, Parallelism::Auto, |k, _| k);
        assert!(out.is_empty());
    }

    #[test]
    fn more_workers_than_trials_is_fine() {
        let out = run_trials(&mut parent(3), 2, Parallelism::Fixed(16), |k, rng| {
            (k, rng.next_u64())
        });
        assert_eq!(out.len(), 2);
        assert_eq!(out[0].0, 0);
        assert_eq!(out[1].0, 1);
    }

    #[test]
    fn resolve_is_at_least_one() {
        assert_eq!(Parallelism::Serial.resolve(), 1);
        assert_eq!(Parallelism::Fixed(0).resolve(), 1);
        assert_eq!(Parallelism::Fixed(5).resolve(), 5);
        assert!(Parallelism::Auto.resolve() >= 1);
    }
}
