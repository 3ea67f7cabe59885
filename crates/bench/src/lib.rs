//! Experiment harness regenerating every table and figure of the Vortex
//! paper (DAC 2015).
//!
//! Each module under [`experiments`] implements one figure/table as a
//! pure function from an [`experiments::common::Scale`] to a structured
//! result with a text renderer. The `experiments` binary drives them from
//! the command line and times each run; the workspace integration tests
//! assert the qualitative shapes.
//!
//! | Paper artifact | Module |
//! |---|---|
//! | Fig. 1 (device preliminaries) | [`experiments::fig1`] |
//! | Fig. 2 (column training vs σ) | [`experiments::fig2`] |
//! | Fig. 3 (IR-drop decomposition) | [`experiments::fig3`] |
//! | Fig. 4 (γ tradeoff) | [`experiments::fig4`] |
//! | Fig. 7 (AMP effectiveness) | [`experiments::fig7`] |
//! | Fig. 8 (ADC resolution) | [`experiments::fig8`] |
//! | Fig. 9 (design redundancy) | [`experiments::fig9`] |
//! | Table 1 (crossbar sizes) | [`experiments::table1`] |
//! | Design-choice ablations | [`experiments::ablation`] |
//! | Runtime throughput (extension) | [`experiments::runtime`] |
//! | Serving throughput (extension) | [`experiments::serve`] |
//! | Self-healing chaos (extension) | [`experiments::chaos`] |
//! | Fleet serving + ensemble (extension) | [`experiments::fleet`] |
//! | Lifetime policy race (extension) | [`experiments::lifetime`] |

#![warn(missing_docs)]

pub mod experiments;
pub mod gate;
pub mod traffic;

pub use experiments::common::Scale;
