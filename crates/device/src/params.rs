//! Nominal device parameters.
//!
//! The default corner follows the paper's experimental setup (§3.1, §5):
//! on-state (LRS) resistance 10 kΩ, off-state (HRS) resistance 1 MΩ. The
//! switching constants are fitted so that a full HRS→LRS transition under
//! the nominal 2.8 V programming voltage completes in about a microsecond,
//! matching the pulse-width scale of Fig. 1(a) (Yu et al., APL 2011), and so
//! that a half-selected device (V/2 = 1.4 V) moves about three orders of
//! magnitude more slowly — the property the V/2 programming scheme relies
//! on (§2.2.2).

use serde::{Deserialize, Serialize};

use crate::{DeviceError, Result};

/// Nominal (variation-free) memristor parameters.
///
/// The internal state variable `w ∈ [0, 1]` interpolates conductance
/// linearly between the off-state (`w = 0`) and on-state (`w = 1`)
/// conductances.
///
/// # Example
///
/// ```
/// use vortex_device::DeviceParams;
///
/// let p = DeviceParams::default();
/// assert_eq!(p.r_on(), 10e3);
/// assert_eq!(p.r_off(), 1e6);
/// let w = p.w_from_resistance(10e3);
/// assert!((w - 1.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DeviceParams {
    r_on: f64,
    r_off: f64,
    v_threshold: f64,
    v_char: f64,
    rate_set: f64,
    rate_reset: f64,
    v_program: f64,
}

impl Default for DeviceParams {
    fn default() -> Self {
        Self {
            r_on: 10e3,
            r_off: 1e6,
            v_threshold: 1.3,
            v_char: 0.25,
            rate_set: 137.0,
            rate_reset: 137.0,
            v_program: 2.8,
        }
    }
}

impl DeviceParams {
    /// Creates parameters with explicit resistances, defaulting the
    /// switching constants.
    ///
    /// # Errors
    ///
    /// Returns [`DeviceError::InvalidParameter`] unless
    /// `0 < r_on < r_off` and both are finite.
    pub fn new(r_on: f64, r_off: f64) -> Result<Self> {
        if !(r_on.is_finite() && r_on > 0.0) {
            return Err(DeviceError::InvalidParameter {
                name: "r_on",
                requirement: "must be finite and positive",
            });
        }
        if !(r_off.is_finite() && r_off > r_on) {
            return Err(DeviceError::InvalidParameter {
                name: "r_off",
                requirement: "must be finite and greater than r_on",
            });
        }
        Ok(Self {
            r_on,
            r_off,
            ..Self::default()
        })
    }

    /// On-state (LRS) resistance in ohms.
    pub fn r_on(&self) -> f64 {
        self.r_on
    }

    /// Off-state (HRS) resistance in ohms.
    pub fn r_off(&self) -> f64 {
        self.r_off
    }

    /// On-state conductance in siemens.
    pub fn g_on(&self) -> f64 {
        1.0 / self.r_on
    }

    /// Off-state conductance in siemens.
    pub fn g_off(&self) -> f64 {
        1.0 / self.r_off
    }

    /// Switching threshold voltage in volts.
    pub fn v_threshold(&self) -> f64 {
        self.v_threshold
    }

    /// Characteristic voltage of the sinh nonlinearity, in volts.
    pub fn v_char(&self) -> f64 {
        self.v_char
    }

    /// SET-direction rate constant (1/s per unit drive).
    pub fn rate_set(&self) -> f64 {
        self.rate_set
    }

    /// RESET-direction rate constant (1/s per unit drive).
    pub fn rate_reset(&self) -> f64 {
        self.rate_reset
    }

    /// Nominal full-select programming voltage magnitude in volts.
    pub fn v_program(&self) -> f64 {
        self.v_program
    }

    /// Conductance at internal state `w` (clamped to `[0, 1]`).
    pub fn conductance_from_w(&self, w: f64) -> f64 {
        let w = w.clamp(0.0, 1.0);
        self.g_off() + w * (self.g_on() - self.g_off())
    }

    /// Internal state reproducing conductance `g` (clamped to the valid
    /// conductance range).
    pub fn w_from_conductance(&self, g: f64) -> f64 {
        let g = g.clamp(self.g_off(), self.g_on());
        (g - self.g_off()) / (self.g_on() - self.g_off())
    }

    /// Internal state reproducing resistance `r`.
    pub fn w_from_resistance(&self, r: f64) -> f64 {
        self.w_from_conductance(1.0 / r)
    }

    /// Resistance at internal state `w`.
    pub fn resistance_from_w(&self, w: f64) -> f64 {
        1.0 / self.conductance_from_w(w)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_paper_corner() {
        let p = DeviceParams::default();
        assert_eq!(p.r_on(), 10e3);
        assert_eq!(p.r_off(), 1e6);
        assert!(p.v_program() > p.v_threshold());
    }

    #[test]
    fn validation() {
        assert!(DeviceParams::new(-1.0, 1e6).is_err());
        assert!(DeviceParams::new(1e6, 1e4).is_err());
        assert!(DeviceParams::new(1e4, 1e4).is_err());
        assert!(DeviceParams::new(1e4, 1e6).is_ok());
    }

    #[test]
    fn w_conductance_roundtrip() {
        let p = DeviceParams::default();
        for &w in &[0.0, 0.25, 0.5, 0.75, 1.0] {
            let g = p.conductance_from_w(w);
            assert!((p.w_from_conductance(g) - w).abs() < 1e-12);
        }
    }

    #[test]
    fn w_endpoints_map_to_corner_resistances() {
        let p = DeviceParams::default();
        assert!((p.resistance_from_w(1.0) - 10e3).abs() < 1e-6);
        assert!((p.resistance_from_w(0.0) - 1e6).abs() < 1e-3);
    }

    #[test]
    fn out_of_range_inputs_clamp() {
        let p = DeviceParams::default();
        assert_eq!(p.conductance_from_w(2.0), p.g_on());
        assert_eq!(p.conductance_from_w(-1.0), p.g_off());
        assert_eq!(p.w_from_conductance(1.0), 1.0);
        assert_eq!(p.w_from_conductance(0.0), 0.0);
    }

    #[test]
    fn conductance_monotone_in_w() {
        let p = DeviceParams::default();
        let mut prev = 0.0;
        for i in 0..=10 {
            let g = p.conductance_from_w(i as f64 / 10.0);
            assert!(g >= prev);
            prev = g;
        }
    }
}
