//! The V/2 half-select open-loop programming protocol (§2.2.2): the one
//! way a [`Crossbar`] is programmed.
//!
//! [`program_with_protocol`] bulk-resets the array to HRS, then gives each
//! cell one SET pulse whose width is pre-calculated from the *nominal*
//! device model — variation-blind, as OLD and Vortex must be. On top of
//! that plain write it models the protocol features studied by the paper:
//!
//! * **IR-drop compensation** (§3.2, after Liu et al. ICCAD'14): the pulse
//!   pre-calculation can use an *estimated* degradation map to lengthen
//!   pulses so that the degraded voltage still lands on target.
//! * **Half-select disturb**: while cell `(p, q)` is programmed, every
//!   other cell on row `p` and column `q` sees ±V/2 and drifts slightly;
//!   the sinh threshold makes this nearly — but not exactly — zero.

use vortex_device::pulse::Pulse;
use vortex_device::switching::width_for_target;
use vortex_linalg::rng::Xoshiro256PlusPlus;
use vortex_linalg::Matrix;

use crate::crossbar::Crossbar;
use crate::irdrop::ProgramVoltageMap;
use crate::{Result, XbarError};

/// Options for [`program_with_protocol`].
#[derive(Debug, Clone, Default)]
pub struct ProgramOptions {
    /// Degradation map the *programmer believes* (used to compensate pulse
    /// widths). `None` disables compensation.
    pub compensation: Option<ProgramVoltageMap>,
    /// Whether to simulate the tiny drift of half-selected cells.
    pub half_select_disturb: bool,
}

/// Programs `xbar` to the target conductances with the V/2 protocol.
///
/// `actual_irdrop` is the physical degradation each cell's programming
/// voltage suffers; `options.compensation` is the programmer's *estimate*
/// of it. When the estimate matches reality the compensation is exact (up
/// to device variation, which no open-loop scheme can see).
///
/// # Errors
///
/// * [`XbarError::ShapeMismatch`] if `targets` does not match the array.
/// * [`XbarError::Device`] if a target is unreachable — e.g. the degraded
///   programming voltage falls below the switching threshold.
pub fn program_with_protocol(
    xbar: &mut Crossbar,
    targets: &Matrix,
    actual_irdrop: Option<&ProgramVoltageMap>,
    options: &ProgramOptions,
    rng: &mut Xoshiro256PlusPlus,
) -> Result<()> {
    let (m, n) = (xbar.rows(), xbar.cols());
    if targets.shape() != (m, n) {
        return Err(XbarError::ShapeMismatch {
            context: "program_with_protocol targets",
            expected: m * n,
            actual: targets.rows() * targets.cols(),
        });
    }
    let params = xbar.config().device;
    let variation = xbar.config().variation;
    let v_nom = params.v_program();

    // Phase 1: global reset to HRS (bulk erase, no per-cell selection).
    xbar.reset_all();

    // Phase 2: per-cell SET pulses.
    for p in 0..m {
        for q in 0..n {
            let g_target = targets[(p, q)].clamp(params.g_off(), params.g_on());
            let mut w_target = params.w_from_conductance(g_target);
            const MARGIN: f64 = 1e-6;
            w_target = w_target.clamp(MARGIN, 1.0 - MARGIN);

            // The programmer plans with its *estimated* effective voltage.
            // A cell whose estimated voltage falls at or below the
            // switching threshold cannot be fully compensated by pulse
            // width alone — the plan clamps just above threshold and the
            // cell simply lands short (the physical limit of open-loop
            // compensation).
            let v_planned = match &options.compensation {
                Some(est) => {
                    let v_est = v_nom * est.factor(p, q);
                    v_est.max(params.v_threshold() * 1.05)
                }
                None => v_nom,
            };
            let w0 = xbar.device(p, q).state();
            let width = match width_for_target(&params, w0, w_target, v_planned) {
                Some(wd) => wd,
                None => {
                    return Err(XbarError::Device(
                        vortex_device::DeviceError::TargetUnreachable {
                            from_ohms: params.resistance_from_w(w0),
                            to_ohms: 1.0 / g_target,
                        },
                    ))
                }
            };

            // Physics: the cell actually sees the *actual* degraded voltage.
            let v_actual = match actual_irdrop {
                Some(map) => v_nom * map.factor(p, q),
                None => v_nom,
            };
            let pulse = Pulse::new(v_actual, width)?;
            let eps = variation.sample_switching(rng);
            if eps == 0.0 {
                xbar.device_mut(p, q).apply_pulse(&pulse);
            } else {
                xbar.device_mut(p, q).apply_pulse_with_jitter(&pulse, eps);
            }

            // Half-select disturb on row/column mates.
            if options.half_select_disturb {
                let half = Pulse::new(v_nom / 2.0, width)?;
                for j in 0..n {
                    if j != q {
                        xbar.device_mut(p, j).apply_pulse(&half);
                    }
                }
                for i in 0..m {
                    if i != p {
                        xbar.device_mut(i, q).apply_pulse(&half);
                    }
                }
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    use crate::crossbar::CrossbarConfig;
    use vortex_device::{DeviceParams, VariationModel};

    fn rng() -> Xoshiro256PlusPlus {
        Xoshiro256PlusPlus::seed_from_u64(31)
    }

    fn ideal_xbar(m: usize, n: usize) -> Crossbar {
        Crossbar::ideal(m, n, DeviceParams::default())
    }

    fn targets(m: usize, n: usize) -> Matrix {
        Matrix::from_fn(m, n, |i, j| 5e-6 + ((i * n + j) % 7) as f64 * 1e-5)
    }

    fn max_rel_err(xbar: &Crossbar, t: &Matrix) -> f64 {
        let g = xbar.conductances();
        let mut worst = 0.0_f64;
        for i in 0..t.rows() {
            for j in 0..t.cols() {
                worst = worst.max((g[(i, j)] - t[(i, j)]).abs() / t[(i, j)]);
            }
        }
        worst
    }

    #[test]
    fn plain_protocol_hits_targets_without_irdrop() {
        let mut xbar = ideal_xbar(4, 4);
        let t = targets(4, 4);
        program_with_protocol(&mut xbar, &t, None, &ProgramOptions::default(), &mut rng()).unwrap();
        assert!(max_rel_err(&xbar, &t) < 1e-2);
    }

    #[test]
    fn an_ideal_device_hits_its_targets() {
        let mut xbar = ideal_xbar(3, 3);
        let t = Matrix::from_fn(3, 3, |i, j| 2e-6 + (i * 3 + j) as f64 * 1e-5);
        program_with_protocol(&mut xbar, &t, None, &ProgramOptions::default(), &mut rng()).unwrap();
        let g = xbar.conductances();
        for i in 0..3 {
            for j in 0..3 {
                assert!(
                    (g[(i, j)] - t[(i, j)]).abs() / t[(i, j)] < 1e-2,
                    "cell ({i},{j}): {} vs {}",
                    g[(i, j)],
                    t[(i, j)]
                );
            }
        }
    }

    #[test]
    fn misses_under_variation() {
        // The pulse is planned on the nominal model, so every cell lands
        // on its target scaled by its own fabricated deviation: g·e^θ.
        let config = CrossbarConfig {
            variation: VariationModel::parametric(0.6).unwrap(),
            ..CrossbarConfig::ideal(10, 10, DeviceParams::default())
        };
        let mut r = rng();
        let mut xbar = Crossbar::new(config, &mut r).unwrap();
        let t = Matrix::filled(10, 10, 5e-5);
        program_with_protocol(&mut xbar, &t, None, &ProgramOptions::default(), &mut r).unwrap();
        let g = xbar.conductances();
        for i in 0..10 {
            for j in 0..10 {
                let expected = 5e-5 * xbar.device(i, j).theta().exp();
                assert!(
                    (g[(i, j)] - expected).abs() / expected < 1e-2,
                    "cell ({i},{j})"
                );
            }
        }
        assert!(
            max_rel_err(&xbar, &t) > 0.1,
            "σ 0.6 should miss the targets"
        );
    }

    #[test]
    fn uncompensated_irdrop_misses_targets() {
        let mut xbar = ideal_xbar(8, 8);
        let t = Matrix::filled(8, 8, 8e-5); // near-LRS targets, heavy loading
        let map =
            ProgramVoltageMap::analytic(&t, 15.0, DeviceParams::default().v_program()).unwrap();
        program_with_protocol(
            &mut xbar,
            &t,
            Some(&map),
            &ProgramOptions::default(),
            &mut rng(),
        )
        .unwrap();
        let err = max_rel_err(&xbar, &t);
        assert!(err > 0.05, "uncompensated IR drop should miss: {err}");
    }

    #[test]
    fn perfect_compensation_recovers_targets() {
        let mut xbar = ideal_xbar(8, 8);
        let t = Matrix::filled(8, 8, 8e-5);
        let map =
            ProgramVoltageMap::analytic(&t, 15.0, DeviceParams::default().v_program()).unwrap();
        let opts = ProgramOptions {
            compensation: Some(map.clone()),
            half_select_disturb: false,
        };
        program_with_protocol(&mut xbar, &t, Some(&map), &opts, &mut rng()).unwrap();
        let err = max_rel_err(&xbar, &t);
        assert!(err < 1e-2, "perfect compensation should land: {err}");
    }

    #[test]
    fn imperfect_compensation_is_between() {
        let mut uncomp = ideal_xbar(8, 8);
        let mut partial = ideal_xbar(8, 8);
        let t = Matrix::filled(8, 8, 8e-5);
        let v = DeviceParams::default().v_program();
        let actual = ProgramVoltageMap::analytic(&t, 15.0, v).unwrap();
        // A cruder estimate: analytic map computed at half the real r_wire.
        let estimate = ProgramVoltageMap::analytic(&t, 7.5, v).unwrap();
        program_with_protocol(
            &mut uncomp,
            &t,
            Some(&actual),
            &ProgramOptions::default(),
            &mut rng(),
        )
        .unwrap();
        let opts = ProgramOptions {
            compensation: Some(estimate),
            half_select_disturb: false,
        };
        program_with_protocol(&mut partial, &t, Some(&actual), &opts, &mut rng()).unwrap();
        assert!(max_rel_err(&partial, &t) < max_rel_err(&uncomp, &t));
    }

    #[test]
    fn half_select_disturb_is_small_but_nonzero() {
        let mut clean = ideal_xbar(6, 6);
        let mut disturbed = ideal_xbar(6, 6);
        let t = targets(6, 6);
        program_with_protocol(&mut clean, &t, None, &ProgramOptions::default(), &mut rng())
            .unwrap();
        let opts = ProgramOptions {
            compensation: None,
            half_select_disturb: true,
        };
        program_with_protocol(&mut disturbed, &t, None, &opts, &mut rng()).unwrap();
        let diff = disturbed
            .conductances()
            .sub(&clean.conductances())
            .frobenius_norm();
        let base = clean.conductances().frobenius_norm();
        let rel = diff / base;
        assert!(rel > 0.0, "disturb should not be exactly zero");
        assert!(rel < 0.05, "V/2 disturb must stay small: {rel}");
    }

    #[test]
    fn degradation_below_threshold_lands_short_not_error() {
        // A pathological degradation: 10 % of nominal voltage is below the
        // switching threshold. Pulse-width compensation cannot fix that —
        // the plan clamps just above threshold, the actual sub-threshold
        // voltage moves nothing, and the cells simply stay at HRS.
        let mut xbar = ideal_xbar(2, 2);
        let t = Matrix::filled(2, 2, 5e-5);
        let crushed = ProgramVoltageMap::from_factors(Matrix::filled(2, 2, 0.1));
        let opts = ProgramOptions {
            compensation: Some(crushed.clone()),
            half_select_disturb: false,
        };
        program_with_protocol(&mut xbar, &t, Some(&crushed), &opts, &mut rng()).unwrap();
        let g_off = DeviceParams::default().g_off();
        for i in 0..2 {
            for j in 0..2 {
                let g = xbar.conductances()[(i, j)];
                assert!(
                    (g - g_off).abs() / g_off < 1e-6,
                    "sub-threshold cell should stay at HRS, got {g}"
                );
            }
        }
    }

    #[test]
    fn shape_mismatch_rejected() {
        let mut xbar = ideal_xbar(3, 3);
        let t = Matrix::filled(2, 3, 1e-5);
        assert!(
            program_with_protocol(&mut xbar, &t, None, &ProgramOptions::default(), &mut rng())
                .is_err()
        );
    }
}
