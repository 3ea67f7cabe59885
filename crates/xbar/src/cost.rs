//! Hardware-overhead accounting: programming time, programming energy,
//! and converter activity.
//!
//! The paper's case for open-loop training is cost (§1, §4): CLD needs a
//! high-resolution ADC in a feedback loop and many program/sense
//! iterations, while OLD/Vortex pay once up front (plus, for Vortex, the
//! pre-test pass). Fig. 9 frames redundancy as *overhead vs. test rate*.
//! This module provides the bookkeeping to make those comparisons
//! quantitative.

use serde::{Deserialize, Serialize};

use crate::Result;
use crate::XbarError;

/// Hardware activity of a training/programming session, as estimated by
/// [`SchemeCostModel`].
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct CostLedger {
    /// Number of programming pulses issued.
    pub pulse_count: u64,
    /// Total programming time: the sum of pulse widths, in seconds.
    pub program_time_s: f64,
    /// Programming energy in joules (`V²·g·t` per pulse, using the
    /// device's conductance during the pulse as a first-order estimate).
    pub program_energy_j: f64,
    /// ADC conversions performed (sensing operations).
    pub adc_conversions: u64,
    /// DAC settlements performed (input drives).
    pub dac_settlements: u64,
    /// Crossbar cells occupied (area proxy).
    pub cells_used: u64,
}

impl std::fmt::Display for CostLedger {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} pulses, {:.3e} s, {:.3e} J, {} ADC conv, {} DAC settle, {} cells",
            self.pulse_count,
            self.program_time_s,
            self.program_energy_j,
            self.adc_conversions,
            self.dac_settlements,
            self.cells_used
        )
    }
}

/// Analytic per-scheme cost estimates for an `rows × cols` crossbar pair.
///
/// These are closed-form expected costs built from the protocol
/// definitions — the quantities the paper compares qualitatively in
/// §1/§4.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SchemeCostModel {
    /// Logical rows of the weight matrix.
    pub rows: usize,
    /// Columns (classes).
    pub cols: usize,
    /// Redundant rows (Vortex only).
    pub redundant_rows: usize,
    /// Mean single-device programming pulse width, seconds.
    pub mean_pulse_width_s: f64,
    /// Pre-test repeats per device (Vortex only).
    pub pretest_repeats: usize,
    /// Training samples per epoch (CLD only).
    pub samples: usize,
    /// Training epochs (CLD only).
    pub epochs: usize,
}

impl SchemeCostModel {
    /// Validates the model.
    ///
    /// # Errors
    ///
    /// Returns [`XbarError::InvalidParameter`] for zero-sized arrays or a
    /// non-positive pulse width.
    pub fn validate(&self) -> Result<()> {
        if self.rows == 0 || self.cols == 0 {
            return Err(XbarError::InvalidParameter {
                name: "rows/cols",
                requirement: "must both be positive",
            });
        }
        if !(self.mean_pulse_width_s.is_finite() && self.mean_pulse_width_s > 0.0) {
            return Err(XbarError::InvalidParameter {
                name: "mean_pulse_width_s",
                requirement: "must be finite and positive",
            });
        }
        Ok(())
    }

    /// Number of physical cells in the differential pair (both crossbars,
    /// including redundancy).
    pub fn physical_cells(&self) -> u64 {
        (2 * (self.rows + self.redundant_rows) * self.cols) as u64
    }

    /// OLD: one reset + one SET pulse per cell, no sensing at all.
    ///
    /// # Errors
    ///
    /// Propagates validation errors.
    pub fn old_cost(&self) -> Result<CostLedger> {
        self.validate()?;
        let cells = (2 * self.rows * self.cols) as u64;
        Ok(CostLedger {
            pulse_count: 2 * cells,
            program_time_s: 2.0 * cells as f64 * self.mean_pulse_width_s,
            program_energy_j: 0.0, // filled by callers that track g; kept 0 in the closed form
            adc_conversions: 0,
            dac_settlements: cells,
            cells_used: cells,
        })
    }

    /// CLD: every training step senses all columns and re-programs every
    /// touched cell; per epoch that is ≈ `samples·cols` conversions and
    /// up to `samples·rows·cols` micro-pulses.
    ///
    /// # Errors
    ///
    /// Propagates validation errors.
    pub fn cld_cost(&self) -> Result<CostLedger> {
        self.validate()?;
        let steps = (self.samples * self.epochs) as u64;
        let conversions = steps * self.cols as u64;
        let micro_pulses = steps * (self.rows * self.cols) as u64;
        Ok(CostLedger {
            pulse_count: micro_pulses,
            // Micro-pulses are much shorter than full-swing pulses; use a
            // tenth of the mean width as the per-update estimate.
            program_time_s: micro_pulses as f64 * self.mean_pulse_width_s * 0.1,
            program_energy_j: 0.0,
            adc_conversions: conversions,
            dac_settlements: steps * self.rows as u64,
            cells_used: (2 * self.rows * self.cols) as u64,
        })
    }

    /// Vortex: OLD's programming plus the pre-test pass (program + sense
    /// `pretest_repeats` times per physical cell).
    ///
    /// # Errors
    ///
    /// Propagates validation errors.
    pub fn vortex_cost(&self) -> Result<CostLedger> {
        self.validate()?;
        let mut ledger = self.old_cost()?;
        let physical = self.physical_cells();
        let pretest_pulses = physical * (2 * self.pretest_repeats) as u64;
        ledger.pulse_count += pretest_pulses;
        ledger.program_time_s += pretest_pulses as f64 * self.mean_pulse_width_s;
        ledger.adc_conversions += physical * self.pretest_repeats as u64;
        ledger.cells_used = physical;
        Ok(ledger)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model() -> SchemeCostModel {
        SchemeCostModel {
            rows: 784,
            cols: 10,
            redundant_rows: 100,
            mean_pulse_width_s: 1e-6,
            pretest_repeats: 3,
            samples: 4000,
            epochs: 20,
        }
    }

    #[test]
    fn old_needs_no_adc() {
        let c = model().old_cost().unwrap();
        assert_eq!(c.adc_conversions, 0);
        assert!(c.to_string().contains("pulses"));
        assert_eq!(c.pulse_count, 2 * 2 * 784 * 10);
    }

    #[test]
    fn cld_dominates_adc_usage() {
        let m = model();
        let cld = m.cld_cost().unwrap();
        let vortex = m.vortex_cost().unwrap();
        assert!(
            cld.adc_conversions > 10 * vortex.adc_conversions,
            "CLD {} vs Vortex {} conversions",
            cld.adc_conversions,
            vortex.adc_conversions
        );
    }

    #[test]
    fn vortex_overhead_is_pretest_plus_redundancy() {
        let m = model();
        let old = m.old_cost().unwrap();
        let vortex = m.vortex_cost().unwrap();
        assert!(vortex.pulse_count > old.pulse_count);
        assert_eq!(vortex.cells_used, 2 * (784 + 100) * 10);
        assert_eq!(old.cells_used, 2 * 784 * 10);
        // Pre-test ADC activity is one conversion per repeat per cell.
        assert_eq!(vortex.adc_conversions, 2 * (784 + 100) * 10 * 3);
    }

    #[test]
    fn validation() {
        let mut m = model();
        m.rows = 0;
        assert!(m.validate().is_err());
        m = model();
        m.mean_pulse_width_s = 0.0;
        assert!(m.validate().is_err());
    }
}
