//! The supervised training-job engine: priority classes, a checkpoint
//! cadence, and a crash-recovery supervisor.
//!
//! A [`TrainingJob`] drives a [`DeltaStepper`] one mini-epoch at a time
//! on the shared [`WorkerPool`] — the *same* pool that serves inference
//! batches — under three production disciplines:
//!
//! * **Priority classes.** Inference outranks training, at two grains.
//!   Within a mini-epoch, the job runs as a chain of pool jobs, one
//!   slice each: between samples a slice polls
//!   [`WorkerPool::has_queued`], and when any other job waits — a serve
//!   pump, typically — it stops and requeues its continuation *behind*
//!   that job (`train.preemptions`). A request that arrives mid-epoch
//!   therefore waits for one sample, not for the rest of the epoch.
//!   Between mini-epochs the job feeds the serving [`Scheduler`]'s
//!   [`queue_depth`](Scheduler::queue_depth) to its [`YieldGate`]: at
//!   or above [`JobConfig::high_water`] it parks until the backlog
//!   drains to [`JobConfig::low_water`] (`train.yields`). Slicing
//!   changes no sample order and no error sum, so a preempted job
//!   lands on exactly the weights of an undisturbed one.
//! * **Checkpoint/resume.** Every [`JobConfig::checkpoint_every`]
//!   epochs the stepper's full state is frozen into a
//!   [`TrainingCheckpoint`] and written **atomically** to one of two
//!   alternating slot files (`ckpt_a.vxck` / `ckpt_b.vxck`), so a crash
//!   mid-write can at worst lose the newest slot, never both.
//! * **Crash recovery.** Each slice runs inside `catch_unwind`
//!   *within* the submitted pool job, so a training fault is contained
//!   before the pool's own panic backstop can see it — the
//!   `pool.job_panics` counter (the signal serving alarms on) stays
//!   untouched, and inference jobs sharing the pool never observe a
//!   `WorkerCrashed`. The supervisor then restarts from the newest
//!   checkpoint that still decodes (falling back to the older slot,
//!   then to a fresh run), with bounded exponential backoff and a hard
//!   restart budget.
//!
//! Faults are injected from the same seeded [`ChaosPlan`] that drives
//! the serving chaos suite: `should_kill_training` kills the epoch's
//! first slice after its first sample has updated the weights (the
//! recovery must discard a half-applied mini-epoch), and
//! `corrupt_checkpoint` flips bits in the newest slot
//! file — and because resume is bit-identical (see
//! [`crate::stepper`]), a chaos-battered run must land on **exactly**
//! the weights of an undisturbed one, which the recovery tests pin at
//! several pool sizes.

use std::collections::BTreeSet;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

use vortex_core::amp::greedy::RowMapping;
use vortex_core::pipeline::HardwareEnv;
use vortex_linalg::Matrix;
use vortex_nn::dataset::Dataset;
use vortex_nn::pool::WorkerPool;
use vortex_runtime::TrainingCheckpoint;
use vortex_serve::chaos::ChaosPlan;
use vortex_serve::health::{HealthConfig, HealthMonitor, ProbeOutcome};
use vortex_serve::lifetime::{PolicyObservation, RecalibrationPolicy};
use vortex_serve::retry::bounded_doubling;
use vortex_serve::scheduler::Scheduler;
use vortex_serve::Hysteresis;

use crate::stepper::{DeltaStepper, TrainerConfig};
use crate::{Result, TrainError};

/// File names of the two alternating checkpoint slots.
const SLOT_FILES: [&str; 2] = ["ckpt_a.vxck", "ckpt_b.vxck"];

/// Poll interval of a job parked behind its [`YieldGate`].
const YIELD_POLL: Duration = Duration::from_millis(1);

/// The training-yield rule, run by [`TrainingJob`] and by the bench's
/// simulated trainer: park once the serving backlog reaches
/// `high_water`, resume once it drains to `low_water` (a [`Hysteresis`]
/// band, like the scheduler's degradation ladder).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct YieldGate {
    band: Hysteresis,
}

impl YieldGate {
    /// A gate parking at `high_water` (at least 1) and resuming at
    /// `low_water`; `None` when `low_water > high_water.max(1)`.
    pub fn new(high_water: usize, low_water: usize) -> Option<Self> {
        Hysteresis::new(high_water.max(1), low_water).map(|band| Self { band })
    }

    /// Feeds one observed backlog depth through the rule: whether the
    /// trainer is parked, i.e. must not start a mini-epoch.
    pub fn parked(&mut self, depth: usize) -> bool {
        self.band.observe(depth);
        self.band.is_degraded()
    }
}

/// Configuration of a [`TrainingJob`].
#[derive(Debug, Clone, PartialEq)]
pub struct JobConfig {
    /// Hyper-parameters of the underlying delta-rule stepper.
    pub trainer: TrainerConfig,
    /// Epoch budget: the job stops here even if unconverged.
    pub max_epochs: u64,
    /// Checkpoint cadence in epochs (deterministic: epoch counts, not
    /// wall clocks, decide when to persist).
    pub checkpoint_every: u64,
    /// Directory holding the two alternating checkpoint slots.
    pub checkpoint_dir: PathBuf,
    /// Restart budget: one more crash than this fails the job with
    /// [`TrainError::RestartsExhausted`].
    pub max_restarts: u32,
    /// Base of the exponential restart backoff.
    pub restart_base: Duration,
    /// Ceiling of the restart backoff.
    pub restart_cap: Duration,
    /// Scheduler queue depth at which training yields to inference.
    pub high_water: usize,
    /// Queue depth the backlog must drain to before training resumes.
    pub low_water: usize,
}

impl JobConfig {
    /// A job configuration with production-flavored defaults, training
    /// under `trainer` and checkpointing into `checkpoint_dir`.
    pub fn new<P: Into<PathBuf>>(trainer: TrainerConfig, checkpoint_dir: P) -> Self {
        Self {
            trainer,
            max_epochs: 25,
            checkpoint_every: 4,
            checkpoint_dir: checkpoint_dir.into(),
            max_restarts: 8,
            restart_base: Duration::from_millis(2),
            restart_cap: Duration::from_millis(64),
            high_water: 64,
            low_water: 8,
        }
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`TrainError::InvalidParameter`] on out-of-domain fields.
    pub fn validate(&self) -> Result<()> {
        self.trainer.validate()?;
        if self.max_epochs == 0 {
            return Err(TrainError::InvalidParameter {
                name: "max_epochs",
                requirement: "must be positive",
            });
        }
        if self.checkpoint_every == 0 {
            return Err(TrainError::InvalidParameter {
                name: "checkpoint_every",
                requirement: "must be positive",
            });
        }
        if self.low_water > self.high_water {
            return Err(TrainError::InvalidParameter {
                name: "low_water",
                requirement: "must not exceed high_water",
            });
        }
        Ok(())
    }

    /// Paths of the two checkpoint slots.
    fn slot_paths(&self) -> [PathBuf; 2] {
        SLOT_FILES.map(|f| self.checkpoint_dir.join(f))
    }

    /// The slot a checkpoint at `epoch` lands in: alternating by
    /// checkpoint ordinal, so the newest write never clobbers the only
    /// other good copy.
    fn slot_for_epoch(&self, epoch: u64) -> PathBuf {
        let ordinal = epoch / self.checkpoint_every;
        self.checkpoint_dir.join(SLOT_FILES[(ordinal % 2) as usize])
    }
}

/// What a finished [`TrainingJob::run`] did and produced.
#[derive(Debug, Clone)]
pub struct JobReport {
    /// The trained weight matrix.
    pub weights: Matrix,
    /// Epochs completed (over the whole job, across restarts the epochs
    /// re-run after a crash are not double counted — this is the
    /// stepper's own epoch counter).
    pub epochs: u64,
    /// Whether the convergence criterion was met within the budget.
    pub converged: bool,
    /// Mean squared sensed error of the final epoch.
    pub final_mse: f64,
    /// Supervisor restarts performed (0 for an undisturbed run).
    pub restarts: u32,
    /// Chaos kills injected into this run.
    pub kills: u64,
    /// Checkpoint files that existed but were rejected during recovery
    /// (corrupt, foreign, or unrestorable).
    pub rejected_checkpoints: u64,
    /// Times the job parked behind the scheduler's high-water mark.
    pub yields: u64,
}

/// A fault-tolerant training job. See the module docs.
pub struct TrainingJob {
    config: JobConfig,
    train: Arc<Dataset>,
    env: HardwareEnv,
    scheduler: Option<Arc<Scheduler>>,
    chaos: Option<ChaosPlan>,
    pool: Arc<WorkerPool>,
}

impl TrainingJob {
    /// A job training on `train` under the hardware environment `env`,
    /// running its mini-epochs on the process-global pool.
    ///
    /// # Errors
    ///
    /// Returns [`TrainError::InvalidParameter`] on an invalid
    /// configuration.
    pub fn new(config: JobConfig, train: Arc<Dataset>, env: HardwareEnv) -> Result<Self> {
        config.validate()?;
        // Registered up front, so a metrics snapshot shows a zero.
        let _ = vortex_obs::counter!("train.preemptions");
        Ok(Self {
            config,
            train,
            env,
            scheduler: None,
            chaos: None,
            pool: Arc::clone(WorkerPool::global()),
        })
    }

    /// Attaches the serving scheduler whose queue depth gates training
    /// (no scheduler = the job never yields).
    #[must_use]
    pub fn with_scheduler(mut self, scheduler: Arc<Scheduler>) -> Self {
        self.scheduler = Some(scheduler);
        self
    }

    /// Attaches a seeded chaos plan injecting kills and checkpoint
    /// corruption.
    #[must_use]
    pub fn with_chaos(mut self, plan: ChaosPlan) -> Self {
        self.chaos = Some(plan);
        self
    }

    /// Runs the mini-epochs on an explicit pool instead of the global
    /// one (tests pin the recovery contract at several pool sizes).
    #[must_use]
    pub fn with_pool(mut self, pool: Arc<WorkerPool>) -> Self {
        self.pool = pool;
        self
    }

    /// Runs the job to convergence or its epoch budget, surviving
    /// injected and organic crashes. See the module docs for the full
    /// discipline.
    ///
    /// # Errors
    ///
    /// [`TrainError::RestartsExhausted`] when crashes outrun
    /// [`JobConfig::max_restarts`]; checkpoint I/O failures surface as
    /// [`TrainError::Runtime`].
    pub fn run(&self) -> Result<JobReport> {
        std::fs::create_dir_all(&self.config.checkpoint_dir)
            .map_err(|e| TrainError::Runtime(vortex_runtime::RuntimeError::Artifact(e.into())))?;
        let mut restarts: u32 = 0;
        let mut kills: u64 = 0;
        let mut yields: u64 = 0;
        let mut rejected = 0u64;
        // A planned kill fires exactly once: `should_kill_training` says
        // *where* kills land, this set records which already did. Without
        // it the supervisor would re-inject the same kill after every
        // restart of the same epoch and never make progress.
        let mut fired_kills: BTreeSet<u64> = BTreeSet::new();
        let mut stepper = self.recover_or_fresh(&mut rejected)?;

        loop {
            if stepper.converged() || stepper.epoch() >= self.config.max_epochs {
                break;
            }
            self.yield_for_inference(&mut yields);
            let kill = self
                .chaos
                .as_ref()
                .is_some_and(|plan| plan.should_kill_training(stepper.epoch()))
                && fired_kills.insert(stepper.epoch());
            match self.step_on_pool(stepper, kill) {
                Ok(revived) => {
                    stepper = revived;
                    vortex_obs::counter!("train.epochs").incr();
                    vortex_obs::gauge!("train.mse").set(stepper.last_mse());
                    vortex_obs::gauge!("train.epoch").set(stepper.epoch() as f64);
                    if stepper.epoch() % self.config.checkpoint_every == 0 {
                        self.write_checkpoint(&stepper)?;
                    }
                }
                Err(()) => {
                    // The in-memory stepper died with the pool job; all
                    // that survives is what was checkpointed.
                    kills += 1;
                    vortex_obs::counter!("train.kills").incr();
                    restarts += 1;
                    if restarts > self.config.max_restarts {
                        return Err(TrainError::RestartsExhausted { restarts });
                    }
                    vortex_obs::counter!("train.restarts").incr();
                    self.maybe_corrupt_newest_checkpoint();
                    std::thread::sleep(backoff(
                        self.config.restart_base,
                        self.config.restart_cap,
                        restarts,
                    ));
                    stepper = self.recover_or_fresh(&mut rejected)?;
                }
            }
        }

        // Final checkpoint so a later job (or an operator) can pick the
        // run up exactly where it ended.
        self.write_checkpoint(&stepper)?;
        Ok(JobReport {
            weights: stepper.weights().clone(),
            epochs: stepper.epoch(),
            converged: stepper.converged(),
            final_mse: stepper.last_mse(),
            restarts,
            kills,
            rejected_checkpoints: rejected,
            yields,
        })
    }

    /// Compiles `weights` through the [`CompileRequest`] builder (seeded
    /// from the job seed, carrying `canary_inputs` as the new model's
    /// canary set) and offers it to the live scheduler through the
    /// [`HealthMonitor`] acceptance path: the replacement is judged on
    /// the *serving* primary's golden canaries and hot-swapped only if
    /// it is no worse.
    ///
    /// [`CompileRequest`]: vortex_core::pipeline::CompileRequest
    ///
    /// # Errors
    ///
    /// Compile failures surface as [`TrainError::Core`]; probe failures
    /// (for example a canary-free serving primary) as
    /// [`TrainError::Serve`]. A replacement judged worse is not an
    /// error — it reports as [`ProbeOutcome::RecompileFailed`] and the
    /// old model keeps serving.
    pub fn promote(
        &self,
        weights: &Matrix,
        scheduler: &Arc<Scheduler>,
        canary_inputs: Vec<Vec<f64>>,
        accuracy_floor: f64,
    ) -> Result<ProbeOutcome> {
        let mapping = RowMapping::identity(weights.rows());
        let compiler = self
            .env
            .compiler()
            .with_calibration(&self.train.mean_input());
        let model = Arc::new(
            compiler
                .request(weights, &mapping)
                .seed(self.config.trainer.seed)
                .canary_inputs(canary_inputs)
                .compile()?,
        );

        /// Promotion is an unconditional refresh offer: the *acceptance*
        /// check (no worse on the golden canaries) stays with the
        /// monitor, only the "when" is forced to "now".
        struct PromoteNow;
        impl RecalibrationPolicy for PromoteNow {
            fn name(&self) -> &'static str {
                "train-promotion"
            }
            fn decide(&mut self, _obs: &PolicyObservation) -> bool {
                true
            }
        }

        let monitor = HealthMonitor::with_policy(
            Arc::clone(scheduler),
            HealthConfig::new(accuracy_floor, Duration::from_secs(3600))?,
            move || Ok(Arc::clone(&model)),
            PromoteNow,
        );
        let outcome = monitor.probe()?;
        if matches!(outcome, ProbeOutcome::Recovered { .. }) {
            vortex_obs::counter!("train.promotions").incr();
        }
        Ok(outcome)
    }

    /// One mini-epoch as a chain of preemptible slices on the shared
    /// pool (see [`run_slice`]). The stepper *moves into* the chain and
    /// comes back over one channel — no shared mutable state, so a
    /// crash cannot poison anything. `Err` means the stepper died with a
    /// slice.
    fn step_on_pool(
        &self,
        stepper: DeltaStepper,
        kill: bool,
    ) -> std::result::Result<DeltaStepper, ()> {
        let (tx, rx) = mpsc::channel();
        let slice = Slice {
            stepper,
            train: Arc::clone(&self.train),
            kill,
            busy: Duration::ZERO,
            tx,
        };
        let pool = Arc::clone(&self.pool);
        self.pool.submit(move || run_slice(pool, slice));
        rx.recv().map_err(|_| ())?
    }

    /// Parks the job behind its [`YieldGate`] while the serving backlog
    /// says so.
    fn yield_for_inference(&self, yields: &mut u64) {
        let Some(scheduler) = &self.scheduler else {
            return;
        };
        let mut gate = YieldGate::new(self.config.high_water, self.config.low_water)
            .expect("validated config: low_water <= high_water");
        if !gate.parked(scheduler.queue_depth()) {
            return;
        }
        *yields += 1;
        vortex_obs::counter!("train.yields").incr();
        while gate.parked(scheduler.queue_depth()) {
            std::thread::sleep(YIELD_POLL);
        }
    }

    /// Atomically persists the stepper's state into this epoch's slot.
    fn write_checkpoint(&self, stepper: &DeltaStepper) -> Result<()> {
        let _span = vortex_obs::span!("train.checkpoint_seconds");
        let path = self.config.slot_for_epoch(stepper.epoch());
        stepper.checkpoint().save(&path)?;
        vortex_obs::counter!("train.checkpoints").incr();
        Ok(())
    }

    /// Applies the chaos plan's checkpoint bit flips to the
    /// newest-by-epoch slot file, simulating storage corruption striking
    /// between a crash and its recovery. Raw `fs::write` on purpose —
    /// corruption does not go through the atomic-rename path.
    fn maybe_corrupt_newest_checkpoint(&self) {
        let Some(plan) = &self.chaos else { return };
        let newest = self
            .config
            .slot_paths()
            .into_iter()
            .filter_map(|p| TrainingCheckpoint::load(&p).ok().map(|ck| (ck.epoch, p)))
            .max_by_key(|(epoch, _)| *epoch);
        let Some((_, path)) = newest else { return };
        let Ok(mut bytes) = std::fs::read(&path) else {
            return;
        };
        if plan.corrupt_checkpoint(&mut bytes) > 0 {
            let _ = std::fs::write(&path, &bytes);
            vortex_obs::counter!("train.checkpoints.corrupted").incr();
        }
    }

    /// Restarts from the newest slot that decodes *and* belongs to this
    /// job; a corrupt or foreign newest slot falls back to the older
    /// one, and an empty directory starts fresh. Rejections are counted
    /// (`train.checkpoint.rejected`) — silent fallback would mask
    /// storage rot.
    fn recover_or_fresh(&self, rejected: &mut u64) -> Result<DeltaStepper> {
        let mut best: Option<DeltaStepper> = None;
        for path in self.config.slot_paths() {
            if !path.exists() {
                continue;
            }
            let revived = TrainingCheckpoint::load(&path)
                .map_err(TrainError::from)
                .and_then(|ck| {
                    DeltaStepper::resume(&self.train, &self.env, self.config.trainer, &ck)
                });
            match revived {
                Ok(stepper) => {
                    // (`Option::is_none_or` needs 1.82; the workspace MSRV is 1.80.)
                    if best.as_ref().map_or(true, |b| stepper.epoch() > b.epoch()) {
                        best = Some(stepper);
                    }
                }
                Err(_) => {
                    *rejected += 1;
                    vortex_obs::counter!("train.checkpoint.rejected").incr();
                }
            }
        }
        match best {
            Some(stepper) => Ok(stepper),
            None => DeltaStepper::fresh(&self.train, &self.env, self.config.trainer),
        }
    }
}

/// What a mini-epoch carries from one pool slice to the next.
struct Slice {
    stepper: DeltaStepper,
    train: Arc<Dataset>,
    /// Fire the injected chaos kill in this slice.
    kill: bool,
    /// Time spent computing in the slices so far.
    busy: Duration,
    tx: mpsc::Sender<std::result::Result<DeltaStepper, ()>>,
}

/// Runs one slice of a mini-epoch on a pool thread: samples until the
/// mini-epoch ends or another job waits in the pool queue, then either
/// requeues the continuation behind that job or sends the result.
///
/// The `catch_unwind` lives **inside** the pool job: a training fault
/// is contained before the pool's detached-job backstop sees it, so
/// `pool.job_panics` — the counter serving alarms on — is never
/// incremented by a training crash. An injected kill fires after the
/// slice's first sample has updated the weights, so recovery always
/// discards a half-applied mini-epoch. It unwinds through
/// [`resume_unwind`], which skips the panic hook: an expected fault
/// prints nothing.
fn run_slice(pool: Arc<WorkerPool>, mut slice: Slice) {
    let started = Instant::now();
    let kill = slice.kill;
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        let mse = slice
            .stepper
            .step_until(&slice.train, || kill || pool.has_queued());
        if kill {
            resume_unwind(Box::new("chaos: injected training kill"));
        }
        mse
    }));
    slice.busy += started.elapsed();
    match outcome {
        Ok(None) => {
            vortex_obs::counter!("train.preemptions").incr();
            let continuation = Arc::clone(&pool);
            pool.submit(move || run_slice(continuation, slice));
        }
        outcome => {
            if outcome.is_ok() {
                vortex_obs::histogram!("train.step_seconds").record(slice.busy.as_secs_f64());
            }
            // Release this slice's hold on the pool before answering:
            // once the job thread has its answer it may drop the last
            // other handle, and a pool must never be dropped from one
            // of its own threads.
            drop(pool);
            let Slice { stepper, tx, .. } = slice;
            // A dropped receiver just discards the result; never panic
            // out of the containment scope.
            let _ = tx.send(outcome.map(|_| stepper).map_err(|_| ()));
        }
    }
}

/// Restart backoff: `min(base · 2^(restarts−1), cap)`, the exponent
/// clamped at 16.
fn backoff(base: Duration, cap: Duration, restarts: u32) -> Duration {
    bounded_doubling(base, restarts.saturating_sub(1).min(16), cap)
}

#[cfg(test)]
mod tests {
    use super::*;
    use vortex_linalg::rng::Xoshiro256PlusPlus;
    use vortex_nn::dataset::{DatasetConfig, SynthDigits};
    use vortex_nn::split::stratified_split;

    fn dataset() -> Arc<Dataset> {
        let d = SynthDigits::generate(&DatasetConfig::tiny(), 29).unwrap();
        let mut rng = Xoshiro256PlusPlus::seed_from_u64(99);
        Arc::new(stratified_split(&d, 160, 40, &mut rng).unwrap().train)
    }

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("vortex-train-job-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn config(tag: &str) -> JobConfig {
        JobConfig {
            max_epochs: 10,
            checkpoint_every: 3,
            ..JobConfig::new(
                TrainerConfig {
                    seed: 11,
                    ..TrainerConfig::default()
                },
                tmp_dir(tag),
            )
        }
    }

    #[test]
    fn validation_rejects_bad_configs() {
        let mut c = config("validate");
        c.max_epochs = 0;
        assert!(c.validate().is_err());
        c = config("validate");
        c.checkpoint_every = 0;
        assert!(c.validate().is_err());
        c = config("validate");
        c.low_water = c.high_water + 1;
        assert!(c.validate().is_err());
    }

    #[test]
    fn undisturbed_run_trains_and_checkpoints() {
        let cfg = config("plain");
        let dir = cfg.checkpoint_dir.clone();
        let job = TrainingJob::new(cfg, dataset(), HardwareEnv::ideal()).unwrap();
        let report = job.run().unwrap();
        assert_eq!(report.restarts, 0);
        assert_eq!(report.kills, 0);
        assert!(report.epochs > 0);
        assert!(report.final_mse.is_finite());
        // The final checkpoint always lands.
        let slots: Vec<_> = SLOT_FILES.iter().filter(|f| dir.join(f).exists()).collect();
        assert!(!slots.is_empty(), "no checkpoint slot was written");
        // Every mini-epoch and every checkpoint write is timed.
        for name in ["train.step_seconds", "train.checkpoint_seconds"] {
            assert!(
                vortex_obs::histogram(name).count() > 0,
                "{name} recorded no spans"
            );
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn slots_alternate_by_checkpoint_ordinal() {
        let cfg = config("slots");
        assert_eq!(
            cfg.slot_for_epoch(3),
            cfg.checkpoint_dir.join("ckpt_b.vxck")
        );
        assert_eq!(
            cfg.slot_for_epoch(6),
            cfg.checkpoint_dir.join("ckpt_a.vxck")
        );
        assert_eq!(
            cfg.slot_for_epoch(9),
            cfg.checkpoint_dir.join("ckpt_b.vxck")
        );
    }

    #[test]
    fn backoff_is_bounded() {
        let base = Duration::from_millis(2);
        let cap = Duration::from_millis(10);
        assert_eq!(backoff(base, cap, 1), base);
        assert_eq!(backoff(base, cap, 2), base * 2);
        assert_eq!(backoff(base, cap, 30), cap);
    }

    #[test]
    fn restart_budget_is_enforced() {
        // A fresh-seeded plan with kills at more epochs than the budget
        // allows: since the stepper loses unchecked progress on every
        // kill and the kill epochs are dense, the job must give up.
        let mut cfg = config("budget");
        cfg.max_restarts = 1;
        cfg.checkpoint_every = 100; // never checkpoint: every kill restarts from scratch
        let plan = ChaosPlan::generate(
            &vortex_serve::chaos::ChaosConfig::new(5, 4, 4).with_train_kills(8, 8),
        );
        // Re-firing at epoch 0 forever requires > 1 distinct kill epochs;
        // dense kills guarantee the second restart trips the budget.
        let job = TrainingJob::new(cfg.clone(), dataset(), HardwareEnv::ideal())
            .unwrap()
            .with_chaos(plan)
            .with_pool(Arc::new(WorkerPool::new(1)));
        match job.run() {
            Err(TrainError::RestartsExhausted { restarts }) => assert_eq!(restarts, 2),
            other => panic!("expected RestartsExhausted, got {other:?}"),
        }
        let _ = std::fs::remove_dir_all(&cfg.checkpoint_dir);
    }
}
