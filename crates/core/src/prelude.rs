//! The one-import front door: `use vortex_core::prelude::*;`.
//!
//! Re-exports the canonical entry points of the whole workspace — the
//! substrate description ([`HardwareEnv`], [`CellKind`]), the compile
//! path ([`ModelCompiler`] via [`HardwareEnv::compiler`], the
//! [`CompileRequest`] builder and its [`EncodingSpec`] choice), the frozen read
//! ([`CompiledModel`], [`Fidelity`], [`EncodingTable`]), the Monte-Carlo
//! executor knob ([`Parallelism`]) and the unified [`Error`]/[`Result`]
//! facade — so an application can go from trained weights to a servable
//! model without hunting through seven crates.

pub use crate::error::{Error, Result};
pub use crate::pipeline::{
    evaluate_hardware, evaluate_hardware_with, CompileRequest, HardwareEnv, HardwareEvaluation,
    ModelCompiler, ReadFidelity,
};
pub use crate::vortex::{VortexConfig, VortexPipeline};
pub use crate::CoreError;
pub use vortex_device::cell::CellKind;
pub use vortex_nn::executor::Parallelism;
pub use vortex_runtime::{CompiledModel, Fidelity, ReadOptions};
pub use vortex_xbar::encoding::{EncodingScheme, EncodingSpec, EncodingTable};
