//! The [`Fleet`]: N per-seed chip replicas behind one router.
//!
//! Each replica pairs a frozen [`CompiledModel`] (one simulated physical
//! chip, compiled from its own variation seed) with its own
//! [`Scheduler`] — bounded queue, micro-batching, deadlines, supervised
//! pumps — all sharing the process-wide worker pool. The fleet routes
//! each request to one replica under the configured
//! [`RoutingPolicy`], masks *draining* replicas out of rotation, and
//! exposes per-replica queue depths both to the least-loaded policy and
//! to the `fleet.replica.*.queue_depth` gauges, from the same
//! [`Scheduler::queue_depth`] source of truth.
//!
//! # Drain-aware healing
//!
//! [`Fleet::heal_replica`] is the scale-out version of the PR-5 healing
//! loop: mark the replica draining (new traffic routes around it), let
//! its queue empty ([`Scheduler::drain`]), replay its canaries through
//! the existing [`HealthMonitor`] — recompiling and hot-swapping on a
//! floor breach — then return it to rotation. In-flight requests finish
//! on the model they were dispatched with ([`Scheduler::swap_primary`]
//! is atomic between batches), so callers never observe a torn model,
//! only a replica that briefly takes less traffic.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

use vortex_nn::pool::WorkerPool;
use vortex_runtime::CompiledModel;
use vortex_serve::{
    HealthConfig, HealthMonitor, ProbeOutcome, Recompile, Scheduler, SchedulerConfig, Ticket,
};

use crate::ensemble::EnsembleTicket;
use crate::routing::{Router, RoutingPolicy};
use crate::{FleetError, Result};

/// Configuration of a [`Fleet`].
#[derive(Debug, Clone, PartialEq)]
pub struct FleetConfig {
    /// How requests are routed across replicas.
    pub policy: RoutingPolicy,
    /// The scheduler every replica runs (queue capacity, batching,
    /// backoff — see [`SchedulerConfig`]).
    pub scheduler: SchedulerConfig,
}

impl FleetConfig {
    /// A production-shaped fleet configuration under `policy`.
    pub fn new(policy: RoutingPolicy) -> Self {
        Self {
            policy,
            scheduler: SchedulerConfig::new(vortex_nn::executor::Parallelism::Fixed(1)),
        }
    }

    /// This configuration with the given per-replica scheduler.
    pub fn with_scheduler(mut self, scheduler: SchedulerConfig) -> Self {
        self.scheduler = scheduler;
        self
    }
}

/// Whether a replica is taking new traffic.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReplicaStatus {
    /// In rotation.
    Serving,
    /// Masked out of routing while its queue empties (recompile,
    /// maintenance); in-flight requests still complete.
    Draining,
}

struct Replica {
    seed: u64,
    scheduler: Arc<Scheduler>,
    draining: AtomicBool,
}

/// N per-seed chip replicas behind one router. See the module docs.
pub struct Fleet {
    replicas: Vec<Replica>,
    router: Router,
}

impl Fleet {
    /// Builds a fleet over `(variation seed, model)` pairs on the
    /// process-wide [`WorkerPool::global`]. The seed is carried for
    /// observability and replica identity — compile the models with
    /// `CompileRequest::compile`/`compile_replicas` so it is the actual
    /// fabrication seed.
    ///
    /// # Errors
    ///
    /// Returns [`FleetError::InvalidParameter`] for an empty fleet, for
    /// replicas of disagreeing logical shape, or for an invalid
    /// scheduler configuration.
    pub fn new(models: Vec<(u64, Arc<CompiledModel>)>, config: FleetConfig) -> Result<Self> {
        Self::on_pool(Arc::clone(WorkerPool::global()), models, config)
    }

    /// [`Self::new`] on an explicit pool — tests use this to pin the
    /// whole fleet onto one shared pool of a specific size.
    ///
    /// # Errors
    ///
    /// See [`Self::new`].
    pub fn on_pool(
        pool: Arc<WorkerPool>,
        models: Vec<(u64, Arc<CompiledModel>)>,
        config: FleetConfig,
    ) -> Result<Self> {
        if models.is_empty() {
            return Err(FleetError::InvalidParameter {
                name: "models",
                requirement: "a fleet needs at least one replica",
            });
        }
        let (rows, classes) = (models[0].1.logical_rows(), models[0].1.classes());
        if models
            .iter()
            .any(|(_, m)| m.logical_rows() != rows || m.classes() != classes)
        {
            return Err(FleetError::InvalidParameter {
                name: "models",
                requirement: "every replica must share one logical shape",
            });
        }
        let router = Router::new(config.policy, models.len())?;
        let replicas = models
            .into_iter()
            .map(|(seed, model)| {
                let scheduler = Scheduler::on_pool(
                    Arc::clone(&pool),
                    model,
                    None,
                    config.scheduler.clone(),
                    None,
                )
                .map_err(|source| FleetError::Replica { replica: 0, source })?;
                Ok(Replica {
                    seed,
                    scheduler: Arc::new(scheduler),
                    draining: AtomicBool::new(false),
                })
            })
            .collect::<Result<Vec<_>>>()?;
        vortex_obs::gauge!("fleet.replicas").set(replicas.len() as f64);
        Ok(Self { replicas, router })
    }

    /// Number of replicas (serving and draining).
    pub fn len(&self) -> usize {
        self.replicas.len()
    }

    /// Whether the fleet holds no replicas (never true post-construction).
    pub fn is_empty(&self) -> bool {
        self.replicas.is_empty()
    }

    /// The router spreading traffic across this fleet.
    pub fn router(&self) -> &Router {
        &self.router
    }

    /// Replica `idx`'s scheduler (for health monitors, direct metering).
    ///
    /// # Panics
    ///
    /// Panics on an out-of-range index.
    pub fn scheduler(&self, idx: usize) -> Arc<Scheduler> {
        Arc::clone(&self.replicas[idx].scheduler)
    }

    /// Replica `idx`'s variation seed.
    ///
    /// # Panics
    ///
    /// Panics on an out-of-range index.
    pub fn seed(&self, idx: usize) -> u64 {
        self.replicas[idx].seed
    }

    /// Replica `idx`'s routing status.
    ///
    /// # Panics
    ///
    /// Panics on an out-of-range index.
    pub fn status(&self, idx: usize) -> ReplicaStatus {
        if self.replicas[idx].draining.load(Ordering::Acquire) {
            ReplicaStatus::Draining
        } else {
            ReplicaStatus::Serving
        }
    }

    /// The routable mask the router sees: `true` for every replica not
    /// draining.
    pub fn routable(&self) -> Vec<bool> {
        self.replicas
            .iter()
            .map(|r| !r.draining.load(Ordering::Acquire))
            .collect()
    }

    /// Every replica's current queue depth, in fleet order, published to
    /// the `fleet.replica.<i>.queue_depth` gauges as a side effect. The
    /// least-loaded policy and the dashboards both read these numbers —
    /// one source of truth ([`Scheduler::queue_depth`]).
    pub fn queue_depths(&self) -> Vec<usize> {
        self.replicas
            .iter()
            .enumerate()
            .map(|(i, r)| {
                let depth = r.scheduler.queue_depth();
                vortex_obs::gauge(&format!("fleet.replica.{i}.queue_depth")).set(depth as f64);
                depth
            })
            .collect()
    }

    /// Routes and submits one request. Returns the chosen replica's
    /// fleet index alongside the response ticket, so callers can
    /// attribute latency and verify stickiness.
    ///
    /// # Errors
    ///
    /// [`FleetError::NoRoutableReplica`] when every replica is draining;
    /// [`FleetError::Replica`] wrapping the replica's typed rejection
    /// (queue full, deadline, shutdown, bad input length).
    pub fn submit(
        &self,
        key: u64,
        input: Vec<f64>,
        deadline: Option<Instant>,
    ) -> Result<(usize, Ticket)> {
        let routable = self.routable();
        let depths = self.queue_depths();
        let replica = self.router.route(key, &routable, &depths)?;
        vortex_obs::counter!("fleet.routed").incr();
        match self.replicas[replica].scheduler.try_submit(input, deadline) {
            Ok(ticket) => Ok((replica, ticket)),
            Err(source) => {
                vortex_obs::counter!("fleet.rejected").incr();
                Err(FleetError::Replica { replica, source })
            }
        }
    }

    /// [`Self::submit`] + wait — the one-call convenience wrapper.
    ///
    /// # Errors
    ///
    /// See [`Self::submit`].
    pub fn submit_wait(&self, key: u64, input: Vec<f64>) -> Result<vortex_serve::Prediction> {
        let (replica, ticket) = self.submit(key, input, None)?;
        ticket
            .wait()
            .map_err(|source| FleetError::Replica { replica, source })
    }

    /// Fans one request to the first `k` routable replicas (fleet-index
    /// order, so the slate is deterministic) for a majority-voted read.
    /// `k` is clamped to the routable count; the vote logic lives in
    /// [`EnsembleTicket::wait`].
    ///
    /// # Errors
    ///
    /// [`FleetError::NoRoutableReplica`] when every replica is draining;
    /// [`FleetError::Replica`] when any chosen leg rejects at submit
    /// (ensemble reads are all-or-nothing at admission).
    pub fn ensemble_submit(&self, input: Vec<f64>, k: usize) -> Result<EnsembleTicket> {
        if k == 0 {
            return Err(FleetError::InvalidParameter {
                name: "k",
                requirement: "an ensemble read needs at least one leg",
            });
        }
        let legs: Vec<usize> = self
            .routable()
            .iter()
            .enumerate()
            .filter_map(|(i, &ok)| ok.then_some(i))
            .take(k)
            .collect();
        if legs.is_empty() {
            return Err(FleetError::NoRoutableReplica);
        }
        let mut parts = Vec::with_capacity(legs.len());
        for replica in legs {
            let ticket = self.replicas[replica]
                .scheduler
                .try_submit(input.clone(), None)
                .map_err(|source| FleetError::Replica { replica, source })?;
            parts.push((replica, ticket));
        }
        vortex_obs::counter!("fleet.ensemble.reads").incr();
        Ok(EnsembleTicket { parts })
    }

    /// Takes replica `idx` out of rotation and blocks until its queue is
    /// empty and nothing is in flight. New traffic routes around it from
    /// the moment this is called; call [`Self::undrain`] to return it.
    ///
    /// # Panics
    ///
    /// Panics on an out-of-range index.
    pub fn drain(&self, idx: usize) {
        self.replicas[idx].draining.store(true, Ordering::Release);
        vortex_obs::counter!("fleet.drains").incr();
        self.replicas[idx].scheduler.drain();
    }

    /// Returns a drained replica to rotation.
    ///
    /// # Panics
    ///
    /// Panics on an out-of-range index.
    pub fn undrain(&self, idx: usize) {
        self.replicas[idx].draining.store(false, Ordering::Release);
    }

    /// Atomically replaces replica `idx`'s model without taking it out
    /// of rotation — in-flight batches finish on the model they started
    /// with (see [`Scheduler::swap_primary`]).
    ///
    /// # Errors
    ///
    /// [`FleetError::Replica`] when the replacement's logical shape
    /// disagrees with the serving model's.
    ///
    /// # Panics
    ///
    /// Panics on an out-of-range index.
    pub fn swap_replica(&self, idx: usize, model: Arc<CompiledModel>) -> Result<()> {
        self.replicas[idx]
            .scheduler
            .swap_primary(model)
            .map_err(|source| FleetError::Replica {
                replica: idx,
                source,
            })
    }

    /// The drain-on-breach healing loop for one replica: drain it out of
    /// rotation, replay its canaries through a [`HealthMonitor`]
    /// (recompiling and hot-swapping on a floor breach, exactly the PR-5
    /// loop), then return it to rotation — whatever the probe found. The
    /// rest of the fleet keeps serving throughout, so healing is
    /// invisible to callers.
    ///
    /// # Errors
    ///
    /// Propagates the probe's error (e.g. a canary-free model) as
    /// [`FleetError::Replica`]; the replica is returned to rotation
    /// either way.
    ///
    /// # Panics
    ///
    /// Panics on an out-of-range index.
    pub fn heal_replica(
        &self,
        idx: usize,
        config: HealthConfig,
        recompile: impl Recompile + 'static,
    ) -> Result<ProbeOutcome> {
        self.drain(idx);
        let monitor = HealthMonitor::new(self.scheduler(idx), config, recompile);
        let outcome = monitor.probe();
        self.undrain(idx);
        vortex_obs::counter!("fleet.heals").incr();
        outcome.map_err(|source| FleetError::Replica {
            replica: idx,
            source,
        })
    }

    /// Pauses every replica's pumps (admissions continue) — used with
    /// [`Self::resume_all`] to build exact backlogs for metering.
    pub fn pause_all(&self) {
        for r in &self.replicas {
            r.scheduler.pause();
        }
    }

    /// Releases every paused replica.
    pub fn resume_all(&self) {
        for r in &self.replicas {
            r.scheduler.resume();
        }
    }

    /// Shuts every replica down, draining queues and retiring pumps.
    /// Idempotent; also runs on drop (via each scheduler's drop).
    pub fn shutdown(&self) {
        for r in &self.replicas {
            r.scheduler.shutdown();
        }
    }
}

impl std::fmt::Debug for Fleet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Fleet")
            .field("replicas", &self.replicas.len())
            .field("policy", &self.router.policy())
            .field("draining", &self.routable().iter().filter(|r| !**r).count())
            .finish()
    }
}
