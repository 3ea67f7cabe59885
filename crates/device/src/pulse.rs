//! Programming pulses and open-loop pulse pre-calculation.
//!
//! OLD (and Vortex, which is an OLD-family scheme) programs each device by
//! *pre-calculating* the pulse from the characterized switching model
//! (§2.2.3 of the paper): given the current and target resistance and a
//! programming voltage, invert the model to get the pulse width. Device
//! variation is exactly what this calculation cannot see — the programmed
//! device then lands off target, which is the error Vortex compensates.

use serde::{Deserialize, Serialize};

use crate::params::DeviceParams;
use crate::switching;
use crate::{DeviceError, Result};

/// A rectangular programming pulse: signed voltage and width.
///
/// Positive voltage SETs (towards LRS), negative RESETs (towards HRS).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Pulse {
    voltage: f64,
    width_s: f64,
}

impl Pulse {
    /// Creates a pulse.
    ///
    /// # Errors
    ///
    /// Returns [`DeviceError::InvalidParameter`] if the width is negative
    /// or either field is non-finite.
    pub fn new(voltage: f64, width_s: f64) -> Result<Self> {
        if !voltage.is_finite() {
            return Err(DeviceError::InvalidParameter {
                name: "voltage",
                requirement: "must be finite",
            });
        }
        if !(width_s.is_finite() && width_s >= 0.0) {
            return Err(DeviceError::InvalidParameter {
                name: "width_s",
                requirement: "must be finite and non-negative",
            });
        }
        Ok(Self { voltage, width_s })
    }

    /// The zero pulse (no effect on any device).
    pub fn none() -> Self {
        Self {
            voltage: 0.0,
            width_s: 0.0,
        }
    }

    /// Signed pulse voltage in volts.
    pub fn voltage(&self) -> f64 {
        self.voltage
    }

    /// Pulse width in seconds.
    pub fn width_s(&self) -> f64 {
        self.width_s
    }

    /// Whether this pulse moves nothing (zero width or zero voltage).
    pub fn is_none(&self) -> bool {
        self.width_s == 0.0 || self.voltage == 0.0
    }
}

/// Pre-calculates the pulse that takes a device from `r_from` to `r_to`
/// ohms, assuming the *nominal* switching model (no variation knowledge).
///
/// The pulse voltage is `±v_program` depending on direction. Targets at
/// the exact corner resistances are nudged inside by a relative margin of
/// `1e-6` since the boundaries are only reached asymptotically.
///
/// # Errors
///
/// Returns [`DeviceError::TargetUnreachable`] if the model inversion fails
/// (should not happen for in-range resistances) and
/// [`DeviceError::InvalidParameter`] for non-positive resistances.
pub fn precalculate_pulse(params: &DeviceParams, r_from: f64, r_to: f64) -> Result<Pulse> {
    if !(r_from.is_finite() && r_from > 0.0) {
        return Err(DeviceError::InvalidParameter {
            name: "r_from",
            requirement: "must be finite and positive",
        });
    }
    if !(r_to.is_finite() && r_to > 0.0) {
        return Err(DeviceError::InvalidParameter {
            name: "r_to",
            requirement: "must be finite and positive",
        });
    }
    let w0 = params.w_from_resistance(r_from);
    let mut wt = params.w_from_resistance(r_to);
    // Nudge asymptotic endpoints inward.
    const MARGIN: f64 = 1e-6;
    wt = wt.clamp(MARGIN, 1.0 - MARGIN);
    let w0c = w0.clamp(0.0, 1.0);

    if (wt - w0c).abs() < 1e-12 {
        return Ok(Pulse::none());
    }
    let voltage = if wt > w0c {
        params.v_program()
    } else {
        -params.v_program()
    };
    match switching::width_for_target(params, w0c, wt, voltage) {
        Some(width) => Pulse::new(voltage, width),
        None => Err(DeviceError::TargetUnreachable {
            from_ohms: r_from,
            to_ohms: r_to,
        }),
    }
}

/// Pre-calculates a pulse in the *conductance* domain.
///
/// # Errors
///
/// Same conditions as [`precalculate_pulse`].
pub fn precalculate_pulse_conductance(
    params: &DeviceParams,
    g_from: f64,
    g_to: f64,
) -> Result<Pulse> {
    if !(g_from.is_finite() && g_from > 0.0) {
        return Err(DeviceError::InvalidParameter {
            name: "g_from",
            requirement: "must be finite and positive",
        });
    }
    if !(g_to.is_finite() && g_to > 0.0) {
        return Err(DeviceError::InvalidParameter {
            name: "g_to",
            requirement: "must be finite and positive",
        });
    }
    precalculate_pulse(params, 1.0 / g_from, 1.0 / g_to)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::switching::evolve_state;

    fn p() -> DeviceParams {
        DeviceParams::default()
    }

    #[test]
    fn pulse_validation() {
        assert!(Pulse::new(2.8, -1.0).is_err());
        assert!(Pulse::new(f64::NAN, 1.0).is_err());
        assert!(Pulse::new(2.8, 0.0).unwrap().is_none());
        assert!(Pulse::none().is_none());
    }

    #[test]
    fn precalculated_pulse_hits_target_on_nominal_device() {
        let p = p();
        for &(from, to) in &[(1e6, 50e3), (1e6, 10.1e3), (10e3, 500e3), (20e3, 100e3)] {
            let pulse = precalculate_pulse(&p, from, to).unwrap();
            let w0 = p.w_from_resistance(from);
            let w = evolve_state(&p, w0, pulse.voltage(), pulse.width_s());
            let r = p.resistance_from_w(w);
            assert!(
                (r - to).abs() / to < 1e-3,
                "from {from:.1e} to {to:.1e}: landed at {r:.4e}"
            );
        }
    }

    #[test]
    fn direction_is_chosen_from_target() {
        let p = p();
        // Towards lower resistance (higher conductance) ⇒ SET, positive V.
        let set = precalculate_pulse(&p, 1e6, 20e3).unwrap();
        assert!(set.voltage() > 0.0);
        // Towards higher resistance ⇒ RESET, negative V.
        let reset = precalculate_pulse(&p, 20e3, 1e6).unwrap();
        assert!(reset.voltage() < 0.0);
    }

    #[test]
    fn corner_targets_are_nudged_not_errors() {
        let p = p();
        // Exact r_on / r_off are asymptotic; the pre-calculation must still
        // return a finite pulse that lands within a tiny margin.
        let to_on = precalculate_pulse(&p, 1e6, 10e3).unwrap();
        assert!(to_on.width_s().is_finite() && to_on.width_s() > 0.0);
        let to_off = precalculate_pulse(&p, 10e3, 1e6).unwrap();
        assert!(to_off.width_s().is_finite() && to_off.width_s() > 0.0);
    }

    #[test]
    fn no_move_needed_gives_none_pulse() {
        let p = p();
        let pulse = precalculate_pulse(&p, 50e3, 50e3).unwrap();
        assert!(pulse.is_none());
    }

    #[test]
    fn invalid_resistances_rejected() {
        let p = p();
        assert!(precalculate_pulse(&p, -5.0, 1e4).is_err());
        assert!(precalculate_pulse(&p, 1e4, 0.0).is_err());
        assert!(precalculate_pulse(&p, f64::INFINITY, 1e4).is_err());
    }

    #[test]
    fn conductance_domain_agrees_with_resistance_domain() {
        let p = p();
        let a = precalculate_pulse(&p, 1e6, 50e3).unwrap();
        let b = precalculate_pulse_conductance(&p, 1e-6, 2e-5).unwrap();
        assert!((a.voltage() - b.voltage()).abs() < 1e-12);
        assert!((a.width_s() - b.width_s()).abs() / a.width_s() < 1e-9);
    }

    #[test]
    fn out_of_range_targets_clamp_to_corners() {
        let p = p();
        // 1 kΩ is below r_on: clamps to (just inside) r_on.
        let pulse = precalculate_pulse(&p, 1e6, 1e3).unwrap();
        let w = evolve_state(&p, 0.0, pulse.voltage(), pulse.width_s());
        assert!(w > 0.999);
    }
}
