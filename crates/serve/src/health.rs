//! Canary-probe health monitoring with drift-triggered recalibration.
//!
//! A compiled model can carry a frozen canary set — probe inputs and the
//! golden predictions the *fresh* model gave them (see
//! [`CompiledModel::with_canary_inputs`]). The [`HealthMonitor`] replays
//! those probes against the scheduler's current primary replica: while
//! the model still answers its own canaries, it is healthy; when
//! conductance drift (or stuck devices) pushes canary accuracy below the
//! configured floor, the monitor triggers a recompile through its
//! [`Recompile`] hook, verifies the replacement against the *same*
//! golden answers, and hot-swaps it into the running scheduler via
//! [`Scheduler::swap_primary`] — no queue drain, no dropped requests.
//!
//! The serve crate stays training-free: [`Recompile`] is a trait (blanket
//! implemented for closures), so the caller decides what "recompile"
//! means — typically a `vortex_core` pipeline run with a fixed seed,
//! which makes the recovered model (and hence the whole healing loop)
//! bit-reproducible.
//!
//! Probing is pull-based by default ([`HealthMonitor::probe`], called
//! from tests or an ops loop); [`HealthMonitor::run_background`] spawns
//! the same probe on a fixed interval with prompt shutdown.

use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use vortex_runtime::CompiledModel;

use crate::lifetime::{CanaryTriggered, PolicyObservation, RecalibrationPolicy};
use crate::scheduler::Scheduler;
use crate::{Result, ServeError};

/// The recalibration hook: produces a replacement model when canary
/// accuracy breaches the floor. Blanket-implemented for closures, so the
/// usual spelling is
/// `move || compiler.request(&w, &m).seed(s).compile().map(Arc::new).map_err(Into::into)`.
pub trait Recompile: Send + Sync {
    /// Builds a fresh replacement model.
    ///
    /// # Errors
    ///
    /// Any error the underlying pipeline produces; the monitor reports it
    /// as [`ProbeOutcome::RecompileFailed`] rather than panicking.
    fn recompile(
        &self,
    ) -> std::result::Result<Arc<CompiledModel>, Box<dyn std::error::Error + Send + Sync>>;
}

impl<F> Recompile for F
where
    F: Fn() -> std::result::Result<Arc<CompiledModel>, Box<dyn std::error::Error + Send + Sync>>
        + Send
        + Sync,
{
    fn recompile(
        &self,
    ) -> std::result::Result<Arc<CompiledModel>, Box<dyn std::error::Error + Send + Sync>> {
        self()
    }
}

/// Configuration of a [`HealthMonitor`].
#[derive(Debug, Clone, PartialEq)]
pub struct HealthConfig {
    /// Canary accuracy below which a recompile is triggered, in `[0, 1]`.
    pub accuracy_floor: f64,
    /// Interval between background probes
    /// ([`HealthMonitor::run_background`] only).
    pub probe_interval: Duration,
}

impl HealthConfig {
    /// A monitor configuration with the given accuracy floor.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::InvalidParameter`] for a floor outside
    /// `[0, 1]` (or NaN).
    pub fn new(accuracy_floor: f64, probe_interval: Duration) -> Result<Self> {
        if !(0.0..=1.0).contains(&accuracy_floor) {
            return Err(ServeError::InvalidParameter {
                name: "accuracy_floor",
                requirement: "must be a fraction in [0, 1]",
            });
        }
        Ok(Self {
            accuracy_floor,
            probe_interval,
        })
    }
}

/// What one health probe found and did.
#[derive(Debug, Clone, PartialEq)]
pub enum ProbeOutcome {
    /// Canary accuracy is at or above the floor; nothing to do.
    Healthy {
        /// Measured canary accuracy of the serving primary.
        canary_accuracy: f64,
    },
    /// Accuracy breached the floor; a replacement was compiled, verified
    /// against the same golden canaries, and hot-swapped in.
    Recovered {
        /// Canary accuracy of the degraded model that triggered healing.
        before: f64,
        /// Canary accuracy of the replacement now serving.
        after: f64,
    },
    /// Accuracy breached the floor but no swap happened — the
    /// [`Recompile`] hook failed, or its model was no better on the
    /// canaries than the degraded one.
    RecompileFailed {
        /// Canary accuracy of the still-serving degraded model.
        canary_accuracy: f64,
        /// Why the replacement was not installed.
        error: String,
    },
}

/// Probes the scheduler's primary replica against its embedded canary
/// set and heals it when accuracy sags. See the module docs.
pub struct HealthMonitor {
    scheduler: Arc<Scheduler>,
    config: HealthConfig,
    recompile: Box<dyn Recompile>,
    policy: Mutex<Box<dyn RecalibrationPolicy>>,
    started: Instant,
    /// `(completed recalibrations, elapsed seconds at the last one)`.
    recal_state: Mutex<(u64, f64)>,
}

impl HealthMonitor {
    /// Builds a monitor over `scheduler` whose floor breaches are healed
    /// by `recompile` — the classic canary-triggered loop
    /// ([`Self::with_policy`] with [`CanaryTriggered`]).
    pub fn new(
        scheduler: Arc<Scheduler>,
        config: HealthConfig,
        recompile: impl Recompile + 'static,
    ) -> Self {
        Self::with_policy(scheduler, config, recompile, CanaryTriggered)
    }

    /// Builds a monitor whose *when to recalibrate* decision is
    /// delegated to `policy` — periodic refresh, predictive
    /// recalibration ahead of the floor breach, or the default
    /// [`CanaryTriggered`]. The policy observes wall-clock seconds since
    /// the monitor was built.
    ///
    /// Acceptance of the recompiled model is trigger-aware: a
    /// floor-breach recalibration keeps the strict requirement that the
    /// replacement be *better* on the canaries, while a policy firing on
    /// a still-healthy model (a scheduled or predictive refresh) accepts
    /// any replacement that is no worse — refreshing a perfect chip with
    /// another perfect chip is the intended outcome, not a failure.
    pub fn with_policy(
        scheduler: Arc<Scheduler>,
        config: HealthConfig,
        recompile: impl Recompile + 'static,
        policy: impl RecalibrationPolicy + 'static,
    ) -> Self {
        Self {
            scheduler,
            config,
            recompile: Box::new(recompile),
            policy: Mutex::new(Box::new(policy)),
            started: Instant::now(),
            recal_state: Mutex::new((0, 0.0)),
        }
    }

    /// Runs one probe: replay the primary's canaries, ask the policy,
    /// and on a trigger recompile → verify → hot-swap. Deterministic end
    /// to end when the [`Recompile`] hook is (fixed-seed compiles are).
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::Inference`] when the serving model carries
    /// no canary set or a canary replay itself fails. A *recompile*
    /// failure is not an error — it reports as
    /// [`ProbeOutcome::RecompileFailed`] so a background loop keeps
    /// probing.
    pub fn probe(&self) -> Result<ProbeOutcome> {
        let primary = self.scheduler.primary();
        let before = primary.canary_accuracy()?;
        vortex_obs::counter!("serve.health.probes").incr();
        vortex_obs::gauge!("serve.health.canary_accuracy").set(before);
        let breached = before < self.config.accuracy_floor;
        let t_s = self.started.elapsed().as_secs_f64();
        let (reprograms, last_recal_s) = *self.recal_state.lock().expect("recal state");
        let triggered = self
            .policy
            .lock()
            .expect("health policy")
            .decide(&PolicyObservation {
                t_s,
                canary_accuracy: before,
                accuracy_floor: self.config.accuracy_floor,
                since_reprogram_s: t_s - last_recal_s,
                reprograms,
            });
        if !triggered {
            return Ok(ProbeOutcome::Healthy {
                canary_accuracy: before,
            });
        }
        if breached {
            vortex_obs::counter!("serve.health.floor_breaches").incr();
        }
        let replacement = match self.recompile.recompile() {
            Ok(model) => model,
            Err(e) => {
                return Ok(ProbeOutcome::RecompileFailed {
                    canary_accuracy: before,
                    error: e.to_string(),
                })
            }
        };
        // Judge the replacement against the *degraded* model's canary
        // set — the golden answers frozen when the model was fresh. A
        // breach demands strict improvement; a healthy-model refresh
        // only demands no regression.
        let canary = primary
            .canary()
            .expect("canary_accuracy succeeded, so a canary set exists");
        let after = canary.accuracy_on(&replacement)?;
        if after < before || (breached && after == before) {
            return Ok(ProbeOutcome::RecompileFailed {
                canary_accuracy: before,
                error: format!(
                    "replacement is no better on the canaries ({after:.3} vs {before:.3})"
                ),
            });
        }
        self.scheduler.swap_primary(replacement)?;
        let t_done = self.started.elapsed().as_secs_f64();
        *self.recal_state.lock().expect("recal state") = (reprograms + 1, t_done);
        self.policy
            .lock()
            .expect("health policy")
            .notify_reprogrammed(t_done);
        Ok(ProbeOutcome::Recovered { before, after })
    }

    /// Moves the monitor onto a background thread that probes every
    /// [`HealthConfig::probe_interval`] until the returned handle is
    /// stopped (or dropped). Probe errors (for example a canary-free
    /// model) are counted on `serve.health.probe_errors` and do not kill
    /// the loop.
    pub fn run_background(self) -> HealthHandle {
        let stop = Arc::new((Mutex::new(false), Condvar::new()));
        let interval = self.config.probe_interval;
        let handle = {
            let stop = Arc::clone(&stop);
            std::thread::Builder::new()
                .name("vortex-serve-health".into())
                .spawn(move || {
                    let (flag, signal) = &*stop;
                    let mut stopped = flag.lock().expect("health stop flag");
                    loop {
                        let (next, timeout) = signal
                            .wait_timeout(stopped, interval)
                            .expect("health stop flag");
                        stopped = next;
                        if *stopped {
                            return;
                        }
                        if timeout.timed_out() && self.probe().is_err() {
                            vortex_obs::counter!("serve.health.probe_errors").incr();
                        }
                    }
                })
                .expect("health thread spawns")
        };
        HealthHandle {
            stop,
            handle: Some(handle),
        }
    }
}

impl std::fmt::Debug for HealthMonitor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HealthMonitor")
            .field("config", &self.config)
            .finish()
    }
}

/// Handle onto a background health loop; stopping joins the thread.
#[derive(Debug)]
pub struct HealthHandle {
    stop: Arc<(Mutex<bool>, Condvar)>,
    handle: Option<JoinHandle<()>>,
}

impl HealthHandle {
    /// Stops the probe loop promptly and joins it. Idempotent; also runs
    /// on drop.
    pub fn stop(&mut self) {
        let (flag, signal) = &*self.stop;
        *flag.lock().expect("health stop flag") = true;
        signal.notify_all();
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for HealthHandle {
    fn drop(&mut self) {
        self.stop();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_validates_the_floor() {
        assert!(HealthConfig::new(-0.1, Duration::from_millis(1)).is_err());
        assert!(HealthConfig::new(1.1, Duration::from_millis(1)).is_err());
        assert!(HealthConfig::new(f64::NAN, Duration::from_millis(1)).is_err());
        assert!(HealthConfig::new(0.9, Duration::from_millis(1)).is_ok());
    }
}
