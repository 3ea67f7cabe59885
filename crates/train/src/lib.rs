//! # vortex-train — fault-tolerant close-loop training jobs
//!
//! The paper's CLD baseline (`vortex_core::cld`) runs delta-rule learning
//! against the simulated crossbar as an *offline* pipeline: one call, one
//! trained weight matrix, nothing survives a crash. This crate turns that
//! loop into a production job subsystem that trains *next to* live
//! inference traffic and survives everything the chaos layer throws at
//! serving:
//!
//! * **Resumable stepper** ([`stepper::DeltaStepper`]): the delta rule is
//!   refactored into mini-epochs whose complete state — weights, the
//!   normalized-LMS step scale, the epoch counter and the exact RNG
//!   stream position — freezes into a
//!   [`vortex_runtime::TrainingCheckpoint`] at any epoch boundary.
//!   A restored stepper replays the remaining epochs bit-identically to a
//!   run that was never interrupted, at any pool size (each mini-epoch is
//!   serial by construction; the *job* is the unit of parallelism).
//! * **Priority classes** ([`job::TrainingJob`]): training runs as
//!   preemptible units of work on the shared [`vortex_nn::pool::WorkerPool`],
//!   one slice of a mini-epoch at a time. A slice *stops between
//!   samples* whenever other work waits in the pool queue and requeues
//!   itself behind it, and the job *parks between mini-epochs* whenever
//!   the serving scheduler's queue depth crosses its high-water mark —
//!   inference always outranks learning.
//! * **Crash recovery**: every slice executes under `catch_unwind`;
//!   a panic (organic or injected by a seeded
//!   [`vortex_serve::chaos::ChaosPlan`] kill) discards the in-memory
//!   state and the supervisor restarts from the newest checkpoint that
//!   still decodes, with bounded backoff. Checkpoints alternate between
//!   two slots and are written atomically, so a corrupted or torn newest
//!   checkpoint falls back to the older good one — and the replayed run
//!   still lands on the same final weights, bit for bit.
//! * **Promotion**: a converged job compiles its weights through the
//!   [`CompileRequest`](vortex_core::pipeline::CompileRequest) builder
//!   and hot-swaps the live model through the existing
//!   [`vortex_serve::health::HealthMonitor`] acceptance path.
//!
//! Everything is observable through `vortex-obs` `train.*` counters and
//! gauges: epochs, checkpoints, restarts, injected kills, rejected
//! checkpoints, preemptions, yields and promotions.

#![warn(missing_docs)]

pub mod job;
pub mod stepper;

pub use job::{JobConfig, JobReport, TrainingJob, YieldGate};
pub use stepper::{DeltaStepper, TrainerConfig};

/// Canonical imports for training jobs:
/// `use vortex_train::prelude::*;`.
pub mod prelude {
    pub use crate::{DeltaStepper, JobConfig, JobReport, TrainError, TrainerConfig, TrainingJob};
    pub use vortex_runtime::TrainingCheckpoint;
}

/// Errors produced by the training-job subsystem.
#[derive(Debug)]
#[non_exhaustive]
pub enum TrainError {
    /// A parameter was outside its valid domain.
    InvalidParameter {
        /// Name of the offending parameter.
        name: &'static str,
        /// The violated requirement.
        requirement: &'static str,
    },
    /// A checkpoint decoded cleanly but does not belong to this job
    /// (wrong seed, wrong shape) and must not be resumed from.
    CheckpointMismatch {
        /// What was found to be inconsistent.
        context: &'static str,
    },
    /// The supervisor exhausted its restart budget: the job crashed more
    /// times than [`JobConfig::max_restarts`] allows.
    RestartsExhausted {
        /// How many restarts were attempted before giving up.
        restarts: u32,
    },
    /// A compile/simulation operation of the core pipeline failed.
    Core(vortex_core::CoreError),
    /// A runtime (artifact/checkpoint/model) operation failed.
    Runtime(vortex_runtime::RuntimeError),
    /// A serving-layer operation (scheduler, health monitor) failed.
    Serve(vortex_serve::ServeError),
}

impl std::fmt::Display for TrainError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::InvalidParameter { name, requirement } => {
                write!(f, "invalid parameter `{name}`: {requirement}")
            }
            Self::CheckpointMismatch { context } => {
                write!(f, "checkpoint does not belong to this job: {context}")
            }
            Self::RestartsExhausted { restarts } => {
                write!(
                    f,
                    "training job crashed past its restart budget ({restarts} restarts)"
                )
            }
            Self::Core(e) => write!(f, "core pipeline error: {e}"),
            Self::Runtime(e) => write!(f, "runtime error: {e}"),
            Self::Serve(e) => write!(f, "serving error: {e}"),
        }
    }
}

impl std::error::Error for TrainError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Self::Core(e) => Some(e),
            Self::Runtime(e) => Some(e),
            Self::Serve(e) => Some(e),
            _ => None,
        }
    }
}

impl From<vortex_core::CoreError> for TrainError {
    fn from(e: vortex_core::CoreError) -> Self {
        Self::Core(e)
    }
}

impl From<vortex_runtime::RuntimeError> for TrainError {
    fn from(e: vortex_runtime::RuntimeError) -> Self {
        Self::Runtime(e)
    }
}

impl From<vortex_serve::ServeError> for TrainError {
    fn from(e: vortex_serve::ServeError) -> Self {
        Self::Serve(e)
    }
}

/// Convenient result alias for training operations.
pub type Result<T> = std::result::Result<T, TrainError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_display_and_source() {
        let e = TrainError::InvalidParameter {
            name: "x",
            requirement: "y",
        };
        assert!(e.to_string().contains("invalid parameter"));
        let e = TrainError::RestartsExhausted { restarts: 3 };
        assert!(e.to_string().contains("restart budget"));
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<TrainError>();
    }
}
