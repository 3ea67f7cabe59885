//! The batched inference scheduler: bounded admission, micro-batching
//! on the shared worker pool, deadlines, the degradation ladder, and
//! self-healing dispatch.
//!
//! One [`Scheduler`] holds an [`Arc`] onto a frozen [`CompiledModel`]
//! replica pair (primary and optional degraded fallback — frozen state
//! is shared, never copied). Callers submit single-sample requests
//! through [`Scheduler::try_submit`], which either admits the request
//! into a bounded queue and returns a [`Ticket`], or rejects it
//! *immediately* with a typed error — [`ServeError::QueueFull`] is the
//! backpressure signal; the scheduler never blocks a producer. Callers
//! that would rather wait briefly than shed wrap submission in a
//! [`RetryPolicy`] via [`Scheduler::submit_with_retry`].
//!
//! # Pumps on the shared pool
//!
//! The scheduler owns no threads. Dispatch runs as **pump** tasks
//! submitted to the workspace-wide
//! [`WorkerPool`] — the same pool the
//! Monte-Carlo executor fans out over. A pump exists only while there is
//! work: admission spawns pumps (up to the configured pool size, never
//! more than the backlog) and each pump drains batches until the queue
//! is empty or paused, then retires, returning its pool thread. Batching
//! semantics are unchanged from the dedicated-thread design: a pump
//! drains up to [`SchedulerConfig::max_batch`] requests, lingers up to
//! [`SchedulerConfig::max_wait`] for the batch to fill, and dispatches
//! the whole batch through one [`CompiledModel::infer_batch`] call.
//! The linger applies only on an otherwise idle pool: when another job
//! waits in the pool queue ([`WorkerPool::has_queued`]) — a co-resident
//! training slice, another scheduler's pump — the pump dispatches what
//! it holds at once (`serve.linger_skipped`) instead of holding the
//! thread idle.
//! Batching never changes predictions — the compiled read is a pure
//! per-sample function, so the response for a given input is
//! bit-identical whatever batch it rides in and whatever the pump count
//! (`Parallelism::Fixed(1)` against `Fixed(4)` is asserted in the crate
//! tests).
//!
//! # Self-healing: a panic loses no accepted request
//!
//! Every dispatch runs under `catch_unwind`. When a pump panics —
//! whether from a genuine bug or a [`ChaosPlan`] injection — the batch
//! it held is still unanswered, because dispatch computes *every*
//! response before sending *any*: the pump pushes the whole batch back
//! onto the queue front (order preserved), sleeps a bounded
//! deterministic backoff (`base · 2^min(crashes, 6)`, capped), and
//! resumes pumping in place — the pool thread survives the caught panic,
//! so the "respawn" is the same slot picking the requeued batch back up.
//! Nothing is poisoned: the pool keeps serving every other client
//! throughout. A request that has already survived one crash is not
//! requeued twice: the second failure answers it with the typed
//! [`ServeError::WorkerCrashed`]. Accepted requests therefore always
//! resolve — a prediction, or a typed error.
//!
//! # Hot swap
//!
//! [`Scheduler::swap_primary`] atomically replaces the primary model
//! between batches without draining the queue: pumps re-read the
//! replica at each dispatch. A health monitor uses this to install a
//! freshly recompiled model when canary accuracy sags (see
//! [`crate::health`]).
//!
//! # Scheduling is deterministic where it matters
//!
//! Admission decisions (reject-full, deadline, downgrade) depend only on
//! queue depth at submit time, and the queue depth sequence is
//! deterministic whenever producers are serialized — the integration
//! tests and the bench harness use [`Scheduler::pause`] to build an exact
//! backlog before releasing the pumps, which makes every admission
//! decision, every downgrade, and every prediction assertable. Under
//! [`SchedulerConfig::deterministic`] the batch sequence numbers a
//! [`ChaosPlan`] keys on are deterministic too, so an injected crash
//! hits the same batch — and produces the same answers — on every run.

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Condvar, Mutex, MutexGuard, RwLock};
use std::time::{Duration, Instant};

use vortex_nn::executor::Parallelism;
use vortex_nn::pool::WorkerPool;
use vortex_runtime::{CompiledModel, Fidelity, RuntimeError};

use crate::chaos::ChaosPlan;
use crate::degradation::{Hysteresis, Transition};
use crate::retry::{bounded_doubling, RetryPolicy};
use crate::{Result, ServeError};

/// How the scheduler answers one admitted request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Prediction {
    /// Predicted class (argmax of the read scores).
    pub class: u8,
    /// Fidelity of the model that actually served the request.
    pub fidelity: Fidelity,
    /// Whether the degradation ladder rerouted this request to the
    /// fallback model.
    pub downgraded: bool,
    /// Size of the micro-batch this request was dispatched in.
    pub batch_size: usize,
}

/// Configuration of a [`Scheduler`].
#[derive(Debug, Clone, PartialEq)]
pub struct SchedulerConfig {
    /// Maximum concurrent pumps, as the workspace-wide [`Parallelism`]
    /// type. `Fixed(1)` is the deterministic test mode: one pump
    /// dispatches batches strictly in admission order.
    pub pool: Parallelism,
    /// Admission queue capacity; a full queue rejects with
    /// [`ServeError::QueueFull`]. Zero rejects every submission.
    pub queue_capacity: usize,
    /// Largest micro-batch a pump dispatches (≥ 1).
    pub max_batch: usize,
    /// How long a pump lingers for a partial batch to fill before
    /// dispatching it. [`Duration::ZERO`] dispatches whatever is queued.
    /// A pump lingers only while no other job waits in the pool queue:
    /// with other pool work pending it dispatches the partial batch at
    /// once, so the thread never idles while work waits.
    pub max_wait: Duration,
    /// Queue depth at which new admissions degrade to the fallback model.
    /// `usize::MAX` (the default) disables the ladder.
    pub high_water: usize,
    /// Queue depth at which degraded admission recovers.
    pub low_water: usize,
    /// Start with the pumps paused (see [`Scheduler::pause`]); used by
    /// tests and benchmarks to build an exact backlog.
    pub start_paused: bool,
    /// Backoff before a crashed pump resumes; doubles per crash of this
    /// scheduler.
    pub respawn_base: Duration,
    /// Upper bound on any single respawn backoff.
    pub respawn_cap: Duration,
}

impl SchedulerConfig {
    /// A production-shaped configuration for the given pool.
    pub fn new(pool: Parallelism) -> Self {
        Self {
            pool,
            queue_capacity: 1024,
            max_batch: 64,
            max_wait: Duration::from_micros(200),
            high_water: usize::MAX,
            low_water: 0,
            start_paused: false,
            respawn_base: Duration::from_micros(500),
            respawn_cap: Duration::from_millis(32),
        }
    }

    /// The deterministic test mode: one pump, no linger, ladder off,
    /// immediate respawn — batches dispatch strictly in admission order
    /// and carry deterministic sequence numbers.
    pub fn deterministic() -> Self {
        Self {
            max_wait: Duration::ZERO,
            respawn_base: Duration::ZERO,
            respawn_cap: Duration::ZERO,
            ..Self::new(Parallelism::Fixed(1))
        }
    }

    /// This configuration with the given queue capacity.
    pub fn with_queue_capacity(mut self, capacity: usize) -> Self {
        self.queue_capacity = capacity;
        self
    }

    /// This configuration with the given batching policy.
    pub fn with_batching(mut self, max_batch: usize, max_wait: Duration) -> Self {
        self.max_batch = max_batch;
        self.max_wait = max_wait;
        self
    }

    /// This configuration with the degradation ladder enabled at the
    /// given watermarks (engage at `high_water`, recover at `low_water`).
    pub fn with_watermarks(mut self, high_water: usize, low_water: usize) -> Self {
        self.high_water = high_water;
        self.low_water = low_water;
        self
    }

    /// This configuration with the given crash-recovery backoff band.
    pub fn with_respawn_backoff(mut self, base: Duration, cap: Duration) -> Self {
        self.respawn_base = base;
        self.respawn_cap = cap;
        self
    }

    /// This configuration starting paused.
    pub fn paused(mut self) -> Self {
        self.start_paused = true;
        self
    }
}

/// One queued request.
struct Request {
    input: Vec<f64>,
    deadline: Option<Instant>,
    downgraded: bool,
    submitted: Instant,
    /// How many pump crashes this request has already survived.
    attempts: u32,
    tx: mpsc::Sender<Result<Prediction>>,
}

/// A handle onto one admitted request's eventual response.
#[derive(Debug)]
pub struct Ticket {
    rx: mpsc::Receiver<Result<Prediction>>,
}

impl Ticket {
    /// Blocks until the scheduler answers.
    ///
    /// # Errors
    ///
    /// Propagates the request's typed rejection ([`ServeError::Timeout`],
    /// [`ServeError::Inference`], [`ServeError::WorkerCrashed`]); returns
    /// [`ServeError::ShuttingDown`] when the scheduler was torn down
    /// before answering.
    pub fn wait(self) -> Result<Prediction> {
        self.rx.recv().unwrap_or(Err(ServeError::ShuttingDown))
    }

    /// [`Self::wait`] with an upper bound; `None` means not answered yet
    /// (the ticket stays valid).
    pub fn wait_timeout(&self, timeout: Duration) -> Option<Result<Prediction>> {
        match self.rx.recv_timeout(timeout) {
            Ok(result) => Some(result),
            Err(mpsc::RecvTimeoutError::Timeout) => None,
            Err(mpsc::RecvTimeoutError::Disconnected) => Some(Err(ServeError::ShuttingDown)),
        }
    }
}

/// Everything the queue lock guards.
struct QueueState {
    queue: std::collections::VecDeque<Request>,
    ladder: Hysteresis,
    closed: bool,
    paused: bool,
    /// Pumps currently live (enqueued on the pool or running). Guarded by
    /// the state lock so spawn decisions can never race a retiring pump.
    active_pumps: usize,
}

struct Shared {
    state: Mutex<QueueState>,
    available: Condvar,
    /// Signaled by the last retiring pump; shutdown waits on it.
    idle: Condvar,
    capacity: usize,
    max_batch: usize,
    max_wait: Duration,
    /// Maximum concurrent pumps — the configured "pool size".
    pump_limit: usize,
    /// The serving replica, swappable between batches (see
    /// [`Scheduler::swap_primary`]). Pumps take the read lock once per
    /// dispatch; the write lock is held only for the pointer swap.
    primary: RwLock<Arc<CompiledModel>>,
    fallback: Option<Arc<CompiledModel>>,
    chaos: Option<ChaosPlan>,
    /// Monotone dispatch sequence; the key a [`ChaosPlan`] fires on.
    batch_seq: AtomicU64,
    depth: AtomicUsize,
    /// Crashes this scheduler has absorbed (drives the backoff doubling).
    crashes: AtomicU32,
    respawn_base: Duration,
    respawn_cap: Duration,
    /// The pool pumps run on; retained so admission can spawn them.
    pool: Arc<WorkerPool>,
}

impl Shared {
    /// Publishes the queue depth (gauge + lock-free mirror) and feeds the
    /// ladder. Must be called with the state lock held, after any
    /// push/drain. Returns the transition for counter attribution.
    fn note_depth(&self, state: &mut QueueState) -> Transition {
        let depth = state.queue.len();
        self.depth.store(depth, Ordering::Relaxed);
        vortex_obs::gauge!("serve.queue_depth").set(depth as f64);
        let transition = state.ladder.observe(depth);
        match transition {
            Transition::Entered => vortex_obs::counter!("serve.degradation_entered").incr(),
            Transition::Exited => vortex_obs::counter!("serve.degradation_exited").incr(),
            Transition::None => {}
        }
        transition
    }

    /// Spawns pumps up to the configured limit, never more than the
    /// backlog. Must be called with the state lock held so the
    /// `active_pumps` check-and-increment is atomic with the spawn.
    fn spawn_pumps(self: &Arc<Self>, state: &mut QueueState) {
        while !state.paused
            && !state.closed
            && state.active_pumps < self.pump_limit
            && state.active_pumps < state.queue.len()
        {
            state.active_pumps += 1;
            let shared = Arc::clone(self);
            self.pool.submit(move || pump_loop(&shared));
        }
    }

    /// One pump checks out. Must be called with the state lock held.
    fn retire_pump(&self, state: &mut QueueState) {
        state.active_pumps -= 1;
        if state.active_pumps == 0 {
            self.idle.notify_all();
        }
    }
}

/// The batched inference scheduler. See the module docs.
pub struct Scheduler {
    shared: Arc<Shared>,
}

impl Scheduler {
    /// Builds a scheduler over `primary`, with `fallback` as the degraded
    /// tier of the ladder, dispatching on the process-wide
    /// [`WorkerPool::global`].
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::InvalidParameter`] for a zero `max_batch`,
    /// an inverted watermark band or respawn-backoff band, a ladder
    /// without a fallback model, or a fallback whose shape disagrees with
    /// the primary.
    pub fn new(
        primary: Arc<CompiledModel>,
        fallback: Option<Arc<CompiledModel>>,
        config: SchedulerConfig,
    ) -> Result<Self> {
        Self::with_chaos(primary, fallback, config, None)
    }

    /// [`Self::new`] with a fault-injection plan wired into the dispatch
    /// path: the plan decides per batch sequence number whether the
    /// dispatching pump panics or runs slow. Production schedulers
    /// pass `None` (via [`Self::new`]); chaos tests and the `chaos`
    /// bench experiment pass a generated plan.
    ///
    /// # Errors
    ///
    /// See [`Self::new`].
    pub fn with_chaos(
        primary: Arc<CompiledModel>,
        fallback: Option<Arc<CompiledModel>>,
        config: SchedulerConfig,
        chaos: Option<ChaosPlan>,
    ) -> Result<Self> {
        Self::on_pool(
            Arc::clone(WorkerPool::global()),
            primary,
            fallback,
            config,
            chaos,
        )
    }

    /// [`Self::with_chaos`] on an explicit pool — the determinism harness
    /// uses this to pin schedulers and executors onto one shared pool of
    /// a specific size.
    ///
    /// # Errors
    ///
    /// See [`Self::new`].
    pub fn on_pool(
        pool: Arc<WorkerPool>,
        primary: Arc<CompiledModel>,
        fallback: Option<Arc<CompiledModel>>,
        config: SchedulerConfig,
        chaos: Option<ChaosPlan>,
    ) -> Result<Self> {
        if config.max_batch == 0 {
            return Err(ServeError::InvalidParameter {
                name: "max_batch",
                requirement: "must be at least 1",
            });
        }
        if config.respawn_cap < config.respawn_base {
            return Err(ServeError::InvalidParameter {
                name: "respawn_cap",
                requirement: "respawn backoff cap must be at least the base",
            });
        }
        let ladder = if config.high_water == usize::MAX {
            Hysteresis::disabled()
        } else {
            let ladder = Hysteresis::new(config.high_water, config.low_water).ok_or(
                ServeError::InvalidParameter {
                    name: "high_water",
                    requirement: "watermarks need 1 <= low_water <= high_water",
                },
            )?;
            if fallback.is_none() {
                return Err(ServeError::InvalidParameter {
                    name: "fallback",
                    requirement: "the degradation ladder needs a fallback model",
                });
            }
            ladder
        };
        if let Some(fb) = &fallback {
            if fb.logical_rows() != primary.logical_rows() || fb.classes() != primary.classes() {
                return Err(ServeError::InvalidParameter {
                    name: "fallback",
                    requirement: "fallback model must share the primary's logical shape",
                });
            }
        }
        let pump_limit = config.pool.resolve();
        let shared = Arc::new(Shared {
            state: Mutex::new(QueueState {
                queue: std::collections::VecDeque::with_capacity(config.queue_capacity.min(4096)),
                ladder,
                closed: false,
                paused: config.start_paused,
                active_pumps: 0,
            }),
            available: Condvar::new(),
            idle: Condvar::new(),
            capacity: config.queue_capacity,
            max_batch: config.max_batch,
            max_wait: config.max_wait,
            pump_limit,
            primary: RwLock::new(primary),
            fallback,
            chaos,
            batch_seq: AtomicU64::new(0),
            depth: AtomicUsize::new(0),
            crashes: AtomicU32::new(0),
            respawn_base: config.respawn_base,
            respawn_cap: config.respawn_cap,
            pool,
        });
        vortex_obs::gauge!("serve.pool_workers").set(pump_limit as f64);
        // Registered up front, so a metrics snapshot shows a zero.
        let _ = vortex_obs::counter!("serve.linger_skipped");
        Ok(Self { shared })
    }

    /// Submits one logical input for classification, with an optional
    /// absolute deadline. Never blocks: the request is either admitted
    /// (the returned [`Ticket`] resolves to its response) or rejected
    /// with a typed error right here.
    ///
    /// # Errors
    ///
    /// [`ServeError::QueueFull`] when the bounded queue is at capacity
    /// (backpressure — retry later or shed the request),
    /// [`ServeError::Timeout`] when `deadline` has already passed,
    /// [`ServeError::ShuttingDown`] after shutdown, and
    /// [`ServeError::InvalidParameter`] for a wrong input length.
    pub fn try_submit(&self, input: Vec<f64>, deadline: Option<Instant>) -> Result<Ticket> {
        let logical_rows = self
            .shared
            .primary
            .read()
            .expect("primary lock")
            .logical_rows();
        if input.len() != logical_rows {
            return Err(ServeError::InvalidParameter {
                name: "input",
                requirement: "length must match the model's logical row count",
            });
        }
        let now = Instant::now();
        if deadline.is_some_and(|d| d <= now) {
            vortex_obs::counter!("serve.rejected_timeout").incr();
            return Err(ServeError::Timeout { stage: "submit" });
        }
        let mut state = self.shared.state.lock().expect("queue lock");
        if state.closed {
            return Err(ServeError::ShuttingDown);
        }
        if state.queue.len() >= self.shared.capacity {
            vortex_obs::counter!("serve.rejected_full").incr();
            return Err(ServeError::QueueFull {
                capacity: self.shared.capacity,
            });
        }
        let (tx, rx) = mpsc::channel();
        let downgraded = {
            // Admit at the depth this request creates, so the ladder sees
            // the queue as the request leaves it.
            state.queue.push_back(Request {
                input,
                deadline,
                downgraded: false,
                submitted: now,
                attempts: 0,
                tx,
            });
            let _ = self.shared.note_depth(&mut state);
            state.ladder.is_degraded() && self.shared.fallback.is_some()
        };
        if downgraded {
            state
                .queue
                .back_mut()
                .expect("request was just pushed")
                .downgraded = true;
            vortex_obs::counter!("serve.downgraded").incr();
        }
        vortex_obs::counter!("serve.admitted").incr();
        self.shared.spawn_pumps(&mut state);
        drop(state);
        // Wake any pump lingering for a partial batch.
        self.shared.available.notify_one();
        Ok(Ticket { rx })
    }

    /// [`Self::try_submit`] with bounded-backoff retries on
    /// [`ServeError::QueueFull`]. Only backpressure is retried —
    /// deadline, shutdown and validation rejections surface immediately,
    /// and a deadline that would expire during the next backoff fails
    /// fast with [`ServeError::Timeout`].
    ///
    /// # Errors
    ///
    /// See [`Self::try_submit`]; after the policy's final attempt the
    /// last `QueueFull` is returned.
    pub fn submit_with_retry(
        &self,
        input: Vec<f64>,
        deadline: Option<Instant>,
        policy: &RetryPolicy,
    ) -> Result<Ticket> {
        let mut attempt = 0u32;
        loop {
            match self.try_submit(input.clone(), deadline) {
                Err(ServeError::QueueFull { capacity }) => match policy.backoff_after(attempt) {
                    Some(delay) => {
                        vortex_obs::counter!("serve.retry.attempts").incr();
                        if deadline.is_some_and(|d| Instant::now() + delay >= d) {
                            vortex_obs::counter!("serve.rejected_timeout").incr();
                            return Err(ServeError::Timeout { stage: "submit" });
                        }
                        if delay > Duration::ZERO {
                            std::thread::sleep(delay);
                        }
                        attempt += 1;
                    }
                    None => {
                        vortex_obs::counter!("serve.retry.exhausted").incr();
                        return Err(ServeError::QueueFull { capacity });
                    }
                },
                other => return other,
            }
        }
    }

    /// Submits and blocks for the response — the one-call convenience
    /// wrapper over [`Self::try_submit`] + [`Ticket::wait`].
    ///
    /// # Errors
    ///
    /// See [`Self::try_submit`] and [`Ticket::wait`].
    pub fn submit_wait(&self, input: Vec<f64>) -> Result<Prediction> {
        self.try_submit(input, None)?.wait()
    }

    /// The current primary serving replica.
    pub fn primary(&self) -> Arc<CompiledModel> {
        Arc::clone(&self.shared.primary.read().expect("primary lock"))
    }

    /// Atomically replaces the primary model without draining the queue:
    /// in-flight batches finish on the replica they started with, the
    /// next dispatch reads the new one. The health monitor calls this
    /// after a canary-triggered recompile.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::InvalidParameter`] when the replacement's
    /// logical shape differs from the serving model's.
    pub fn swap_primary(&self, model: Arc<CompiledModel>) -> Result<()> {
        let mut slot = self.shared.primary.write().expect("primary lock");
        if model.logical_rows() != slot.logical_rows() || model.classes() != slot.classes() {
            return Err(ServeError::InvalidParameter {
                name: "model",
                requirement: "replacement must share the serving model's logical shape",
            });
        }
        *slot = model;
        drop(slot);
        vortex_obs::counter!("serve.health.swaps").incr();
        Ok(())
    }

    /// Current queue depth (admitted, not yet dispatched).
    ///
    /// This is the single source of truth for load-aware routing: the
    /// fleet layer's least-loaded policy and its
    /// `fleet.replica.*.queue_depth` gauges both read this lock-free
    /// mirror, so dashboards and routing decisions can never disagree.
    pub fn queue_depth(&self) -> usize {
        self.shared.depth.load(Ordering::Relaxed)
    }

    /// Blocks until every admitted request has been dispatched and every
    /// pump has retired — the queue is empty and nothing is in flight.
    /// Admission stays open throughout; combined with an upstream router
    /// that has stopped sending traffic here (a *draining* fleet
    /// replica), this empties the scheduler without dropping a request.
    ///
    /// A paused scheduler with a backlog drains only once it is resumed;
    /// this call keeps waiting until then.
    pub fn drain(&self) {
        let mut state = self.shared.state.lock().expect("queue lock");
        while !(state.queue.is_empty() && state.active_pumps == 0) {
            // The idle condvar fires when the last pump retires; the
            // bounded wait also covers wake-ups the pumps cannot signal
            // (a paused scheduler being resumed by another thread).
            let (next, _) = self
                .shared
                .idle
                .wait_timeout(state, Duration::from_millis(1))
                .expect("queue lock");
            state = next;
        }
    }

    /// Whether the degradation ladder is currently engaged.
    pub fn is_degraded(&self) -> bool {
        self.shared
            .state
            .lock()
            .expect("queue lock")
            .ladder
            .is_degraded()
    }

    /// Maximum concurrent pumps (the configured pool size).
    pub fn pool_size(&self) -> usize {
        self.shared.pump_limit
    }

    /// Number of micro-batches dispatched so far (the sequence a
    /// [`ChaosPlan`] keys on).
    pub fn batches_dispatched(&self) -> u64 {
        self.shared.batch_seq.load(Ordering::Relaxed)
    }

    /// Stops pumps from dispatching; admissions continue. Paired with
    /// [`Self::resume`], this builds an exact, assertable backlog.
    pub fn pause(&self) {
        self.shared.state.lock().expect("queue lock").paused = true;
        self.shared.available.notify_all();
    }

    /// Releases a paused scheduler: pumps spawn for whatever backlog
    /// built up.
    pub fn resume(&self) {
        let mut state = self.shared.state.lock().expect("queue lock");
        state.paused = false;
        self.shared.spawn_pumps(&mut state);
        drop(state);
        self.shared.available.notify_all();
    }

    /// Closes admission, lets the pumps drain the queue, and waits for
    /// every pump to retire. Requests still queued when the scheduler was
    /// paused are answered with [`ServeError::ShuttingDown`]. Idempotent;
    /// also runs on drop.
    pub fn shutdown(&self) {
        let mut state = self.shared.state.lock().expect("queue lock");
        state.closed = true;
        // Wake lingering pumps so they dispatch what they hold and see
        // `closed`.
        self.shared.available.notify_all();
        while state.active_pumps > 0 {
            state = self.shared.idle.wait(state).expect("queue lock");
        }
        // A paused (or crashed-at-close) scheduler retires its pumps
        // without draining; answer the leftovers.
        while let Some(request) = state.queue.pop_front() {
            let _ = request.tx.send(Err(ServeError::ShuttingDown));
        }
        let _ = self.shared.note_depth(&mut state);
    }
}

impl Drop for Scheduler {
    fn drop(&mut self) {
        self.shutdown();
    }
}

impl std::fmt::Debug for Scheduler {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Scheduler")
            .field("pool_size", &self.shared.pump_limit)
            .field("capacity", &self.shared.capacity)
            .field("max_batch", &self.shared.max_batch)
            .field("queue_depth", &self.queue_depth())
            .finish()
    }
}

/// One pump: drain batches until the queue is empty, paused or closed,
/// then retire. Runs as a detached job on the shared pool. On a dispatch
/// panic the batch is requeued and — after the bounded backoff — this
/// same task resumes pumping in place ("respawn" without a thread
/// death: the pool thread survives the caught panic).
fn pump_loop(shared: &Arc<Shared>) {
    loop {
        let Some(mut batch) = next_batch(shared) else {
            return; // retired inside next_batch, under the state lock
        };
        if batch.is_empty() {
            continue;
        }
        let seq = shared.batch_seq.fetch_add(1, Ordering::Relaxed);
        let outcome = catch_unwind(AssertUnwindSafe(|| dispatch(shared, &mut batch, seq)));
        if outcome.is_err() {
            // Dispatch computes every answer before sending any, so a
            // panic means the whole batch is still in `batch`, unanswered.
            vortex_obs::counter!("serve.worker_panics").incr();
            requeue_unanswered(shared, &mut batch);
            let crashes = shared.crashes.fetch_add(1, Ordering::Relaxed);
            let backoff = bounded_doubling(shared.respawn_base, crashes.min(6), shared.respawn_cap);
            if shared.state.lock().expect("queue lock").closed {
                // Shutdown answers the requeued leftovers; don't resume.
                let mut state = shared.state.lock().expect("queue lock");
                shared.retire_pump(&mut state);
                return;
            }
            if backoff > Duration::ZERO {
                std::thread::sleep(backoff);
            }
            vortex_obs::counter!("serve.supervisor.respawns").incr();
        }
    }
}

/// Collects the next micro-batch: drains greedily, then lingers up to
/// `max_wait` for the batch to fill — unless other work waits in the
/// pool queue, which a lingering pump would hold off its thread.
/// Returns `None` — retiring the pump under the state lock — when the
/// queue is empty, paused, or being shut down with nothing left to
/// drain.
fn next_batch(shared: &Arc<Shared>) -> Option<Vec<Request>> {
    let mut state: MutexGuard<'_, QueueState> = shared.state.lock().expect("queue lock");
    if state.paused || state.queue.is_empty() {
        shared.retire_pump(&mut state);
        return None;
    }
    let mut batch = Vec::with_capacity(shared.max_batch.min(state.queue.len()));
    drain_into(&mut state, &mut batch, shared.max_batch);
    let lingers = batch.len() < shared.max_batch && shared.max_wait > Duration::ZERO;
    if lingers && shared.pool.has_queued() {
        vortex_obs::counter!("serve.linger_skipped").incr();
    } else if lingers {
        let linger_until = Instant::now() + shared.max_wait;
        while batch.len() < shared.max_batch && !state.closed {
            let now = Instant::now();
            if now >= linger_until {
                break;
            }
            let (next, _) = shared
                .available
                .wait_timeout(state, linger_until - now)
                .expect("queue lock");
            state = next;
            if !state.paused {
                drain_into(&mut state, &mut batch, shared.max_batch);
            }
        }
    }
    let _ = shared.note_depth(&mut state);
    Some(batch)
}

fn drain_into(state: &mut QueueState, batch: &mut Vec<Request>, max_batch: usize) {
    while batch.len() < max_batch {
        match state.queue.pop_front() {
            Some(request) => batch.push(request),
            None => break,
        }
    }
}

/// Pushes a crashed pump's batch back onto the queue front (order
/// preserved). A request that already survived one crash is answered
/// with [`ServeError::WorkerCrashed`] instead of riding a third dispatch.
fn requeue_unanswered(shared: &Shared, batch: &mut Vec<Request>) {
    let mut state = shared.state.lock().expect("queue lock");
    for mut request in batch.drain(..).rev() {
        if request.attempts >= 1 {
            vortex_obs::counter!("serve.supervisor.crashed").incr();
            let _ = request.tx.send(Err(ServeError::WorkerCrashed));
        } else {
            request.attempts += 1;
            vortex_obs::counter!("serve.supervisor.requeued").incr();
            state.queue.push_front(request);
        }
    }
    let _ = shared.note_depth(&mut state);
    drop(state);
    shared.available.notify_all();
}

/// Runs one fidelity tier's samples through its model, timing the read.
fn tier_outcome(
    model: &CompiledModel,
    inputs: &[&[f64]],
) -> std::result::Result<Vec<u8>, RuntimeError> {
    if inputs.is_empty() {
        return Ok(Vec::new());
    }
    let infer_start = Instant::now();
    // Pumps are the parallelism; the intra-batch read stays serial (a
    // nested pool fan-out from inside a pool job would only thrash).
    let outcome = model.infer_batch(inputs, Parallelism::Serial);
    vortex_obs::histogram!("serve.infer_seconds").record(infer_start.elapsed().as_secs_f64());
    outcome
}

/// Dispatches one micro-batch: consult the chaos plan, expire deadlines,
/// compute every tier's answers, then respond.
///
/// The two-phase shape is the panic-safety contract: phase one only
/// *borrows* the requests (any panic — injected or genuine — leaves the
/// whole batch in `batch` for [`requeue_unanswered`]); phase two drains
/// and answers, and contains nothing that can panic.
fn dispatch(shared: &Shared, batch: &mut Vec<Request>, seq: u64) {
    if let Some(chaos) = &shared.chaos {
        if let Some(delay) = chaos.slow_down(seq) {
            vortex_obs::counter!("serve.chaos.slow_batches").incr();
            std::thread::sleep(delay);
        }
        if chaos.should_panic(seq) {
            vortex_obs::counter!("serve.chaos.panics").incr();
            // `resume_unwind` unwinds like `panic!` but skips the panic
            // hook: a contained, expected fault prints nothing.
            resume_unwind(Box::new(format!(
                "chaos: injected worker panic at batch {seq}"
            )));
        }
    }
    let now = Instant::now();
    // Phase one: partition the *borrowed* inputs by tier and compute all
    // answers. The primary replica is re-read every dispatch, so a hot
    // swap takes effect at the next batch boundary.
    let primary = Arc::clone(&shared.primary.read().expect("primary lock"));
    let mut primary_inputs: Vec<&[f64]> = Vec::new();
    let mut fallback_inputs: Vec<&[f64]> = Vec::new();
    for request in batch.iter() {
        if request.deadline.is_some_and(|d| d <= now) {
            continue;
        }
        if request.downgraded {
            fallback_inputs.push(&request.input);
        } else {
            primary_inputs.push(&request.input);
        }
    }
    let batch_size = primary_inputs.len() + fallback_inputs.len();
    if batch_size > 0 {
        vortex_obs::histogram!("serve.batch_size").record(batch_size as f64);
    }
    let primary_out = tier_outcome(&primary, &primary_inputs);
    let fallback_out = match &shared.fallback {
        Some(fallback) => tier_outcome(fallback, &fallback_inputs),
        None => Ok(Vec::new()),
    };
    let fallback_fidelity = shared.fallback.as_ref().map(|m| m.fidelity());

    // Phase two: every answer exists; drain and send.
    let answered = Instant::now();
    let mut primary_classes = primary_out.map(Vec::into_iter);
    let mut fallback_classes = fallback_out.map(Vec::into_iter);
    for request in batch.drain(..) {
        if request.deadline.is_some_and(|d| d <= now) {
            vortex_obs::counter!("serve.rejected_timeout").incr();
            let _ = request.tx.send(Err(ServeError::Timeout { stage: "queue" }));
            continue;
        }
        let (classes, fidelity) = if request.downgraded {
            (
                &mut fallback_classes,
                fallback_fidelity.expect("downgraded requests require a fallback"),
            )
        } else {
            (&mut primary_classes, primary.fidelity())
        };
        let response = match classes {
            Ok(iter) => {
                let class = iter.next().expect("one class per live request");
                vortex_obs::counter!("serve.completed").incr();
                vortex_obs::histogram!("serve.latency_seconds")
                    .record((answered - request.submitted).as_secs_f64());
                Ok(Prediction {
                    class,
                    fidelity,
                    downgraded: request.downgraded,
                    batch_size,
                })
            }
            Err(e) => {
                vortex_obs::counter!("serve.errors").incr();
                Err(ServeError::Inference(e.clone()))
            }
        };
        let _ = request.tx.send(response);
    }
}
