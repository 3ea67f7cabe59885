//! A persistent worker pool shared by every fan-out in the workspace.
//!
//! Before this module existed, each Monte-Carlo [`run_trials`](crate::executor::run_trials) call and
//! each serve-scheduler batch paid for its own `std::thread::spawn` +
//! `mpsc` channel pair — measurably slower than serial once trials got
//! cheap (see `BENCH_runtime.json` history). A [`WorkerPool`] is created
//! **once** (usually via [`WorkerPool::global`]) and amortizes thread
//! creation across every fan-out for the life of the process. Two very
//! different clients ride the same abstraction:
//!
//! * the Monte-Carlo executor ([`crate::executor::run_trials`]) uses the
//!   scoped, blocking [`WorkerPool::run_indexed`] fan-out;
//! * the serve scheduler submits long-lived detached "pump" jobs, and
//!   training jobs their mini-epoch slices, via [`WorkerPool::submit`].
//!   Both poll [`WorkerPool::has_queued`] so that neither holds a thread
//!   while other work waits.
//!
//! # Work claiming
//!
//! [`WorkerPool::run_indexed`] is a *scoped* fan-out: it enqueues up to
//! `concurrency - 1` helper jobs and then **participates from the calling
//! thread**. Caller and helpers claim task indices from a shared atomic
//! cursor — an idle thread simply claims the next undone index, which is
//! the degenerate (and contention-free) form of work stealing: there is
//! one global deque of remaining indices and every worker steals from its
//! head. Dynamic claiming also load-balances skewed task costs for free,
//! where the old per-call implementation striped tasks statically.
//!
//! Caller participation is what makes the pool deadlock-free under
//! nesting and undersizing: even if every pool thread is busy (or the
//! pool has a single thread occupied by a serve pump), the caller alone
//! drains all indices and `run_indexed` completes.
//!
//! # Determinism
//!
//! The pool itself is order-agnostic: `run_indexed(tasks, c, f)` calls
//! `f(k)` exactly once per `k` and returns results indexed by `k`. Any
//! determinism contract (such as the executor's pre-split RNG streams) is
//! layered on top by making `f(k)` depend only on `k` — never on which
//! thread runs it or in which order. `tests/determinism.rs` in the bench
//! crate pins that contract at pool sizes 1, 2 and 8.
//!
//! # Panics
//!
//! A panicking task does **not** poison the pool. Per-task panics inside
//! `run_indexed` are caught, the fan-out runs to quiescence, and the
//! first payload is re-raised on the *calling* thread (matching
//! `std::thread::scope` semantics). Panics escaping a detached
//! [`WorkerPool::submit`] job are caught and counted
//! (`pool.job_panics`); the worker thread survives and keeps serving the
//! queue — the slot is immediately reusable.

use std::any::Any;
use std::cell::UnsafeCell;
use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::thread::JoinHandle;

/// Environment variable overriding the size of the global pool.
pub const POOL_THREADS_ENV_VAR: &str = "VORTEX_POOL_THREADS";

/// Distinguishes fan-outs in the shared queue so one fan-out can purge
/// its own unstarted helpers without touching anyone else's jobs.
/// `DETACHED_RUN` marks fire-and-forget jobs, which are never purged.
const DETACHED_RUN: u64 = 0;

static NEXT_RUN_ID: AtomicU64 = AtomicU64::new(1);

struct Job {
    run: u64,
    call: Box<dyn FnOnce() + Send>,
}

struct JobQueue {
    jobs: VecDeque<Job>,
    shutdown: bool,
}

struct PoolShared {
    queue: Mutex<JobQueue>,
    available: Condvar,
}

/// A persistent pool of worker threads. See the module docs.
pub struct WorkerPool {
    shared: Arc<PoolShared>,
    threads: Mutex<Vec<JoinHandle<()>>>,
    size: usize,
}

impl std::fmt::Debug for WorkerPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkerPool")
            .field("size", &self.size)
            .finish()
    }
}

fn worker_loop(shared: &PoolShared) {
    loop {
        let job = {
            let mut queue = shared.queue.lock().expect("pool queue lock");
            loop {
                if let Some(job) = queue.jobs.pop_front() {
                    break job;
                }
                if queue.shutdown {
                    return;
                }
                queue = shared.available.wait(queue).expect("pool queue lock");
            }
        };
        // A panicking job must not take the worker thread down with it:
        // catch, count, keep serving. (Scoped fan-outs catch their own
        // panics before this point; this is the detached-job backstop.)
        if catch_unwind(AssertUnwindSafe(job.call)).is_err() {
            vortex_obs::counter!("pool.job_panics").incr();
        }
    }
}

impl WorkerPool {
    /// Creates a pool with `size` worker threads (at least 1).
    pub fn new(size: usize) -> Self {
        let size = size.max(1);
        let shared = Arc::new(PoolShared {
            queue: Mutex::new(JobQueue {
                jobs: VecDeque::new(),
                shutdown: false,
            }),
            available: Condvar::new(),
        });
        let threads = (0..size)
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("vortex-pool-{i}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("pool worker thread spawns")
            })
            .collect();
        vortex_obs::gauge!("pool.threads").set(size as f64);
        Self {
            shared,
            threads: Mutex::new(threads),
            size,
        }
    }

    /// The process-wide pool: every `Parallelism`-driven fan-out that
    /// does not carry an explicit pool runs here, so thread creation is
    /// paid once per process instead of once per call.
    ///
    /// Sized from `VORTEX_POOL_THREADS` when set, otherwise
    /// `available_parallelism` clamped to `[8, 32]` — oversizing relative
    /// to the core count is deliberate, so that `Fixed(n)` fan-outs with
    /// `n` above the core count still get `n`-way interleaving (parked
    /// threads are cheap; the clamp keeps huge hosts bounded).
    pub fn global() -> &'static Arc<WorkerPool> {
        static GLOBAL: OnceLock<Arc<WorkerPool>> = OnceLock::new();
        GLOBAL.get_or_init(|| {
            let size = std::env::var(POOL_THREADS_ENV_VAR)
                .ok()
                .and_then(|raw| raw.trim().parse::<usize>().ok())
                .filter(|&n| n >= 1)
                .unwrap_or_else(|| {
                    std::thread::available_parallelism()
                        .map(std::num::NonZeroUsize::get)
                        .unwrap_or(1)
                        .clamp(8, 32)
                });
            Arc::new(WorkerPool::new(size))
        })
    }

    /// Number of worker threads.
    pub fn size(&self) -> usize {
        self.size
    }

    /// Whether any job waits in the queue for a free thread: a detached
    /// job or a fan-out helper, submitted but not yet started.
    ///
    /// This is what makes the pool work-conserving for its co-resident
    /// clients. A training slice stops at the next sample and requeues
    /// itself behind the waiting job. A serve pump skips its partial-batch
    /// linger instead of holding the thread idle.
    pub fn has_queued(&self) -> bool {
        !self
            .shared
            .queue
            .lock()
            .expect("pool queue lock")
            .jobs
            .is_empty()
    }

    /// Enqueues a detached fire-and-forget job. Used by long-lived
    /// clients (the serve scheduler's batch pumps); a panic in `f` is
    /// caught and counted, and the worker thread keeps serving.
    pub fn submit<F>(&self, f: F)
    where
        F: FnOnce() + Send + 'static,
    {
        vortex_obs::counter!("pool.jobs").incr();
        let mut queue = self.shared.queue.lock().expect("pool queue lock");
        queue.jobs.push_back(Job {
            run: DETACHED_RUN,
            call: Box::new(f),
        });
        drop(queue);
        self.shared.available.notify_one();
    }

    /// Runs `f(k)` once for every `k < tasks` using up to `concurrency`
    /// threads (the caller plus at most `concurrency - 1` pool helpers),
    /// returning results in index order. Blocks until every task is done
    /// and every helper has left the fan-out.
    ///
    /// Tasks are claimed dynamically from a shared cursor, so the
    /// assignment of tasks to threads is load-balanced but unspecified —
    /// `f` must depend only on `k` for deterministic output.
    ///
    /// # Panics
    ///
    /// If any task panics, the fan-out still runs to completion (every
    /// index is claimed; panicked tasks produce no value) and the first
    /// panic payload is re-raised here, on the calling thread.
    pub fn run_indexed<T, F>(&self, tasks: usize, concurrency: usize, f: F) -> Vec<T>
    where
        T: Send,
        F: Fn(usize) -> T + Sync,
    {
        if tasks == 0 {
            return Vec::new();
        }
        let helpers = concurrency.saturating_sub(1).min(tasks - 1).min(self.size);
        if helpers == 0 {
            return (0..tasks).map(f).collect();
        }

        let mut slots: Vec<UnsafeCell<Option<T>>> = Vec::with_capacity(tasks);
        slots.resize_with(tasks, || UnsafeCell::new(None));
        let run = Run {
            f: &f,
            slots: slots.as_ptr(),
            tasks,
            cursor: AtomicUsize::new(0),
            progress: Mutex::new(Progress {
                completed: 0,
                helpers,
            }),
            done: Condvar::new(),
            panic: Mutex::new(None),
        };
        let run_id = NEXT_RUN_ID.fetch_add(1, Ordering::Relaxed);
        vortex_obs::counter!("pool.jobs").add(helpers as u64);
        {
            // All helpers are enqueued (and counted in `progress.helpers`)
            // before any can run, so the quiescence wait below can never
            // miss one.
            let ptr = SendPtr(&run as *const Run<'_, T, F> as *const ());
            let enter: unsafe fn(*const ()) = enter_run::<T, F>;
            let mut queue = self.shared.queue.lock().expect("pool queue lock");
            for _ in 0..helpers {
                queue.jobs.push_back(Job {
                    run: run_id,
                    // SAFETY (deferred): see `Run` — the pointer stays
                    // valid because this function does not return while
                    // any enqueued-or-running helper can still touch it.
                    // `ptr.get()` keeps 2021 precise capture from peeling
                    // the non-`Send` raw pointer out of the `Send` wrapper.
                    call: Box::new(move || unsafe { enter(ptr.get()) }),
                });
            }
        }
        self.shared.available.notify_all();

        // The caller participates: this is what makes the fan-out
        // deadlock-free even when every pool thread is busy elsewhere.
        run.claim();

        // Wait until every index has produced a value (or a caught
        // panic) ...
        {
            let mut progress = run.progress.lock().expect("pool run progress lock");
            while progress.completed < tasks {
                progress = run.done.wait(progress).expect("pool run progress lock");
            }
        }
        // ... then purge helpers that never left the queue and wait for
        // the ones that did to step out of the run. After this, no other
        // thread holds a pointer into our stack frame.
        let purged = {
            let mut queue = self.shared.queue.lock().expect("pool queue lock");
            let before = queue.jobs.len();
            queue.jobs.retain(|job| job.run != run_id);
            before - queue.jobs.len()
        };
        {
            let mut progress = run.progress.lock().expect("pool run progress lock");
            progress.helpers -= purged;
            while progress.helpers > 0 {
                progress = run.done.wait(progress).expect("pool run progress lock");
            }
        }
        if let Some(payload) = run.panic.lock().expect("pool run panic lock").take() {
            resume_unwind(payload);
        }
        slots
            .into_iter()
            .map(|cell| {
                cell.into_inner()
                    .expect("no panic was re-raised, so every task wrote its slot")
            })
            .collect()
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        {
            let mut queue = self.shared.queue.lock().expect("pool queue lock");
            queue.shutdown = true;
        }
        self.shared.available.notify_all();
        for handle in self.threads.lock().expect("pool thread handles").drain(..) {
            let _ = handle.join();
        }
    }
}

/// Progress of one scoped fan-out, guarded by `Run::progress`.
struct Progress {
    /// Task indices whose closure has returned (or panicked-and-been-
    /// caught).
    completed: usize,
    /// Helpers that are enqueued or inside the run. Decremented when a
    /// helper leaves `enter_run`, or by the purge for helpers that never
    /// started.
    helpers: usize,
}

/// Shared state of one `run_indexed` call, living on the caller's stack.
///
/// Raw pointers (not references) so the type has no lifetime parameter
/// and a plain `fn(*const ())` can recover it inside a `'static` boxed
/// job.
///
/// # Safety
///
/// * `f` and `slots` point into `run_indexed`'s frame, which outlives
///   every access: `run_indexed` returns (or unwinds) only after the
///   queue purge and the `helpers == 0` quiescence wait prove no helper
///   can touch the `Run` again.
/// * `slots[k]` is written by exactly one thread — the one that claimed
///   `k` from the cursor — and read only after quiescence.
struct Run<'f, T, F> {
    f: &'f F,
    slots: *const UnsafeCell<Option<T>>,
    tasks: usize,
    cursor: AtomicUsize,
    progress: Mutex<Progress>,
    done: Condvar,
    panic: Mutex<Option<Box<dyn Any + Send>>>,
}

unsafe impl<T: Send, F: Sync> Sync for Run<'_, T, F> {}

impl<T, F> Run<'_, T, F>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    /// Claims and runs task indices until the cursor runs past the end.
    fn claim(&self) {
        loop {
            let k = self.cursor.fetch_add(1, Ordering::Relaxed);
            if k >= self.tasks {
                return;
            }
            match catch_unwind(AssertUnwindSafe(|| (self.f)(k))) {
                // SAFETY: `k` was claimed from the cursor exactly once,
                // so this thread has exclusive access to slot `k`.
                Ok(value) => unsafe {
                    *(*self.slots.add(k)).get() = Some(value);
                },
                Err(payload) => {
                    let mut first = self.panic.lock().expect("pool run panic lock");
                    first.get_or_insert(payload);
                }
            }
            let mut progress = self.progress.lock().expect("pool run progress lock");
            progress.completed += 1;
            if progress.completed == self.tasks {
                self.done.notify_all();
            }
        }
    }
}

/// Type-erased pointer to a `Run`, `Send` so it can ride a boxed job to
/// a worker thread; the `Run` it points to is `Sync` (asserted above).
#[derive(Clone, Copy)]
struct SendPtr(*const ());

unsafe impl Send for SendPtr {}

impl SendPtr {
    fn get(self) -> *const () {
        self.0
    }
}

/// Helper-side entry: claim tasks, then check out of the run. The
/// check-out notification under the progress lock is the last touch of
/// the `Run`; after it, `run_indexed` is free to return.
unsafe fn enter_run<T, F>(ptr: *const ())
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let run = &*(ptr as *const Run<'_, T, F>);
    run.claim();
    let mut progress = run.progress.lock().expect("pool run progress lock");
    progress.helpers -= 1;
    if progress.helpers == 0 {
        run.done.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU32;

    #[test]
    fn run_indexed_returns_results_in_index_order() {
        let pool = WorkerPool::new(4);
        let out = pool.run_indexed(100, 4, |k| k * k);
        assert_eq!(out, (0..100).map(|k| k * k).collect::<Vec<_>>());
    }

    #[test]
    fn every_task_runs_exactly_once() {
        let pool = WorkerPool::new(8);
        let hits: Vec<AtomicU32> = (0..500).map(|_| AtomicU32::new(0)).collect();
        let _ = pool.run_indexed(500, 8, |k| hits[k].fetch_add(1, Ordering::Relaxed));
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn zero_tasks_is_empty() {
        let pool = WorkerPool::new(2);
        let out: Vec<u32> = pool.run_indexed(0, 2, |_| unreachable!());
        assert!(out.is_empty());
    }

    #[test]
    fn concurrency_one_runs_inline() {
        let pool = WorkerPool::new(4);
        let caller = std::thread::current().id();
        let out = pool.run_indexed(10, 1, |k| {
            assert_eq!(std::thread::current().id(), caller);
            k
        });
        assert_eq!(out.len(), 10);
    }

    #[test]
    fn pool_is_reusable_across_many_fan_outs() {
        let pool = WorkerPool::new(3);
        for round in 0..50 {
            let out = pool.run_indexed(17, 3, move |k| k + round);
            assert_eq!(out, (0..17).map(|k| k + round).collect::<Vec<_>>());
        }
    }

    #[test]
    fn task_panic_is_reraised_on_the_caller_and_pool_survives() {
        let pool = WorkerPool::new(2);
        let caught = catch_unwind(AssertUnwindSafe(|| {
            pool.run_indexed(20, 2, |k| {
                if k == 7 {
                    panic!("boom at 7");
                }
                k
            })
        }));
        assert!(caught.is_err(), "task panic must surface to the caller");
        // The pool is not poisoned: the same threads serve the next run.
        let out = pool.run_indexed(20, 2, |k| k);
        assert_eq!(out.len(), 20);
    }

    #[test]
    fn detached_job_panic_does_not_kill_the_worker() {
        let pool = WorkerPool::new(1);
        pool.submit(|| panic!("detached boom"));
        // The single worker survives the panic and still serves fan-outs
        // (the caller would finish alone anyway, but the helper check-in
        // below proves the thread is alive).
        let ran = Arc::new(AtomicU32::new(0));
        let flag = Arc::clone(&ran);
        pool.submit(move || {
            flag.fetch_add(1, Ordering::Relaxed);
        });
        for _ in 0..200 {
            if ran.load(Ordering::Relaxed) == 1 {
                return;
            }
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        panic!("worker thread died after a detached job panic");
    }

    #[test]
    fn undersized_pool_still_completes_via_caller_participation() {
        // One pool thread, deliberately wedged by a detached job; the
        // caller drains the whole fan-out alone.
        let pool = WorkerPool::new(1);
        let (wedge_tx, wedge_rx) = std::sync::mpsc::channel::<()>();
        pool.submit(move || {
            let _ = wedge_rx.recv();
        });
        let out = pool.run_indexed(25, 4, |k| k);
        assert_eq!(out, (0..25).collect::<Vec<_>>());
        wedge_tx.send(()).expect("wedged worker still listening");
    }

    #[test]
    fn nested_fan_outs_do_not_deadlock() {
        let pool = Arc::new(WorkerPool::new(2));
        let inner = Arc::clone(&pool);
        let out = pool.run_indexed(4, 2, move |k| {
            let sub = inner.run_indexed(3, 2, |j| j + k);
            sub.iter().sum::<usize>()
        });
        assert_eq!(out, vec![3, 6, 9, 12]);
    }

    #[test]
    fn has_queued_sees_only_jobs_waiting_for_a_thread() {
        let pool = WorkerPool::new(1);
        assert!(!pool.has_queued());
        let (wedge_tx, wedge_rx) = std::sync::mpsc::channel::<()>();
        let (started_tx, started_rx) = std::sync::mpsc::channel::<()>();
        pool.submit(move || {
            let _ = started_tx.send(());
            let _ = wedge_rx.recv();
        });
        started_rx.recv().expect("wedge job starts");
        // The running job is not queued work.
        assert!(!pool.has_queued());
        let (done_tx, done_rx) = std::sync::mpsc::channel::<()>();
        pool.submit(move || {
            let _ = done_tx.send(());
        });
        assert!(pool.has_queued());
        wedge_tx.send(()).expect("wedged worker still listening");
        done_rx.recv().expect("queued job runs");
        assert!(!pool.has_queued());
    }

    #[test]
    fn global_pool_is_a_singleton() {
        let a = Arc::as_ptr(WorkerPool::global());
        let b = Arc::as_ptr(WorkerPool::global());
        assert_eq!(a, b);
        assert!(WorkerPool::global().size() >= 1);
    }
}
