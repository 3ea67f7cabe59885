//! Crossbar cell topologies: bare memristor (1R) vs. 1T-1R.
//!
//! The paper's arrays are passive 1R crossbars — every cell is just a
//! memristor between a word line and a bit line. Foundry arrays are more
//! often 1T-1R: a series access transistor isolates the cell from sneak
//! paths, at the cost of a finite on-resistance in series with the device
//! (NEAT, arXiv 2012.00261). The transistor compresses the *effective*
//! conductance seen by the read circuit:
//!
//! ```text
//! g_eff = g / (1 + g · r_access)
//! ```
//!
//! which is most severe near the LRS end of the range (with the paper's
//! 10 kΩ LRS and a 5 kΩ access transistor, g·r = 0.5 — a 33% loss). The
//! compile pipeline counteracts it NEAT-style at *program time*: targets
//! are pre-distorted through [`CellKind::program_target`] so that, after
//! the transistor, the array realizes the conductances the mapping asked
//! for — up to the hard ceiling `1/r_access` beyond which no programmable
//! state can reach (the top of the weight range saturates).

use crate::DeviceError;

/// Cell topology of a crossbar array.
///
/// Selected per-environment (see `HardwareEnv` in `vortex-core`) and
/// applied at program/freeze time; [`CellKind::OneR`] is the paper's
/// passive array and is the default everywhere.
#[derive(Debug, Clone, Copy, Default, PartialEq, serde::Serialize, serde::Deserialize)]
pub enum CellKind {
    /// Bare memristor cell (passive crossbar) — no series element.
    #[default]
    OneR,
    /// Memristor in series with an access transistor of the given
    /// on-resistance in ohms (1T-1R array).
    OneT1R {
        /// Access-transistor on-resistance in ohms (finite, > 0).
        r_access: f64,
    },
}

impl CellKind {
    /// A 1T-1R cell with the given access-transistor on-resistance.
    ///
    /// # Errors
    ///
    /// [`DeviceError::InvalidParameter`] unless `r_access` is finite and
    /// strictly positive.
    pub fn one_t1r(r_access: f64) -> Result<Self, DeviceError> {
        if !r_access.is_finite() || r_access <= 0.0 {
            return Err(DeviceError::InvalidParameter {
                name: "r_access",
                requirement: "must be finite and > 0",
            });
        }
        Ok(CellKind::OneT1R { r_access })
    }

    /// True for the bare-memristor (paper) topology.
    pub fn is_one_r(&self) -> bool {
        matches!(self, CellKind::OneR)
    }

    /// Conductance the read circuit sees for a memristor programmed to
    /// `g` siemens: the series combination with the access transistor.
    pub fn effective_conductance(&self, g: f64) -> f64 {
        match *self {
            CellKind::OneR => g,
            CellKind::OneT1R { r_access } => g / (1.0 + g * r_access),
        }
    }

    /// Memristor conductance to *program* so the cell reads as
    /// `g_desired` after the series transistor, clamped to the
    /// programmable window `[g_min, g_max]`.
    ///
    /// Inverts `g_eff = g / (1 + g·r)` to `g = g_eff / (1 − g_eff·r)`.
    /// Desired values at or beyond the `1/r_access` ceiling — or beyond
    /// what `g_max` can reach through the transistor — clamp to `g_max`:
    /// that is the NEAT saturation of the top of the weight range.
    pub fn program_target(&self, g_desired: f64, g_min: f64, g_max: f64) -> f64 {
        match *self {
            CellKind::OneR => g_desired,
            CellKind::OneT1R { r_access } => {
                let denom = 1.0 - g_desired * r_access;
                if denom <= 0.0 {
                    return g_max;
                }
                (g_desired / denom).clamp(g_min, g_max)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_r_is_identity() {
        let cell = CellKind::OneR;
        assert_eq!(cell.effective_conductance(1e-4), 1e-4);
        assert_eq!(cell.program_target(1e-4, 1e-6, 1e-4), 1e-4);
        assert!(cell.is_one_r());
    }

    #[test]
    fn transistor_compresses_lrs_end() {
        let cell = CellKind::one_t1r(5e3).unwrap();
        // g·r = 0.5 at the LRS corner: a third of the conductance is lost.
        let eff = cell.effective_conductance(1e-4);
        assert!((eff - 1e-4 / 1.5).abs() < 1e-18);
        // The HRS corner is nearly untouched (g·r = 5e-3).
        let hrs = cell.effective_conductance(1e-6);
        assert!((hrs - 1e-6).abs() / 1e-6 < 6e-3);
    }

    #[test]
    fn program_target_inverts_effective_conductance() {
        let cell = CellKind::one_t1r(5e3).unwrap();
        let (g_min, g_max) = (1e-6, 1e-4);
        for k in 0..=20 {
            let g = g_min + (g_max - g_min) * f64::from(k) / 20.0;
            let desired = cell.effective_conductance(g);
            let target = cell.program_target(desired, g_min, g_max);
            assert!(
                (target - g).abs() / g < 1e-12,
                "round-trip failed at g={g:e}: target={target:e}"
            );
        }
    }

    #[test]
    fn unreachable_targets_clamp_to_g_max() {
        let cell = CellKind::one_t1r(5e3).unwrap();
        let (g_min, g_max) = (1e-6, 1e-4);
        // 1/r_access = 2e-4: nothing programmable can read that high.
        assert_eq!(cell.program_target(2e-4, g_min, g_max), g_max);
        assert_eq!(cell.program_target(3e-4, g_min, g_max), g_max);
        // Just above what g_max reaches through the transistor also clamps.
        let ceiling = cell.effective_conductance(g_max);
        assert_eq!(cell.program_target(ceiling * 1.01, g_min, g_max), g_max);
    }

    #[test]
    fn invalid_r_access_is_rejected() {
        assert!(CellKind::one_t1r(0.0).is_err());
        assert!(CellKind::one_t1r(-1.0).is_err());
        assert!(CellKind::one_t1r(f64::NAN).is_err());
        assert!(CellKind::one_t1r(f64::INFINITY).is_err());
    }

    #[test]
    fn effective_conductance_is_monotone() {
        let cell = CellKind::one_t1r(8e3).unwrap();
        let mut last = -1.0;
        for k in 0..=50 {
            let g = 1e-6 + (1e-4 - 1e-6) * f64::from(k) / 50.0;
            let eff = cell.effective_conductance(g);
            assert!(eff > last);
            last = eff;
        }
    }
}
