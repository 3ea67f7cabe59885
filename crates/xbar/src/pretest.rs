//! Device pre-testing (AMP step 1, §4.2.1 of the paper).
//!
//! After fabrication, every device is programmed to a known target state
//! and its resistance sensed back; the measured deviation estimates the
//! device's parametric variation `θ`. To keep IR-drop and sneak paths out
//! of the measurement, one device is tested at a time: only its row is
//! driven during sensing and every other device sits at HRS. Sensing runs
//! through a k-bit ADC; repeating the program/sense cycle and averaging
//! cancels switching (cycle-to-cycle) variation.
//!
//! Stuck-at defects show up as extreme estimates: a stuck-HRS cell reads
//! far below the target (large negative θ̂), a stuck-LRS cell far above —
//! so the same pre-test output drives both AMP's variation-aware mapping
//! and its defect avoidance.

use serde::{Deserialize, Serialize};
use vortex_device::pulse::precalculate_pulse_conductance;
use vortex_linalg::rng::Xoshiro256PlusPlus;
use vortex_linalg::Matrix;

use crate::crossbar::Crossbar;
use crate::sensing::Adc;
use crate::{Result, XbarError};

/// Configuration of the pre-test procedure.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PretestConfig {
    /// Conductance every device is programmed to before sensing.
    /// The geometric mid-range of the device window is a good default: it
    /// keeps `±3σ` lognormal excursions inside the sensable range.
    pub target_conductance: f64,
    /// Sensing voltage applied to the device's row.
    pub v_sense: f64,
    /// ADC used to read the column current.
    pub adc: Adc,
    /// Number of program/sense cycles averaged per device.
    pub repeats: usize,
}

impl PretestConfig {
    /// A sensible default for the paper's device corner: mid-range target
    /// (100 kΩ), 1 V sensing, the given ADC, 3 repeats.
    ///
    /// # Errors
    ///
    /// Returns [`XbarError::InvalidParameter`] via [`Self::validate`].
    pub fn with_adc(adc: Adc) -> Result<Self> {
        let cfg = Self {
            target_conductance: 1e-5,
            v_sense: 1.0,
            adc,
            repeats: 3,
        };
        cfg.validate()?;
        Ok(cfg)
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`XbarError::InvalidParameter`] on a non-positive target
    /// conductance, sensing voltage, or repeat count.
    pub fn validate(&self) -> Result<()> {
        if !(self.target_conductance.is_finite() && self.target_conductance > 0.0) {
            return Err(XbarError::InvalidParameter {
                name: "target_conductance",
                requirement: "must be finite and positive",
            });
        }
        if !(self.v_sense.is_finite() && self.v_sense > 0.0) {
            return Err(XbarError::InvalidParameter {
                name: "v_sense",
                requirement: "must be finite and positive",
            });
        }
        if self.repeats == 0 {
            return Err(XbarError::InvalidParameter {
                name: "repeats",
                requirement: "must be at least 1",
            });
        }
        Ok(())
    }
}

/// Result of pre-testing a crossbar.
#[derive(Debug, Clone, PartialEq)]
pub struct PretestReport {
    /// Estimated per-device deviation `θ̂ = ln(ĝ / g_target)`.
    pub theta_hat: Matrix,
    /// Estimated per-device conductance multiplier `e^θ̂`.
    pub multiplier_hat: Matrix,
}

/// Runs the pre-test procedure on a crossbar, leaving every device back at
/// HRS afterwards.
///
/// # Errors
///
/// * [`XbarError::InvalidParameter`] for an invalid configuration.
/// * [`XbarError::Device`] if the pulse pre-calculation fails.
pub fn pretest(
    xbar: &mut Crossbar,
    config: &PretestConfig,
    rng: &mut Xoshiro256PlusPlus,
) -> Result<PretestReport> {
    config.validate()?;
    let (m, n) = (xbar.rows(), xbar.cols());
    let params = xbar.config().device;
    let variation = xbar.config().variation;
    let g_t = config
        .target_conductance
        .clamp(params.g_off(), params.g_on());
    let pulse = precalculate_pulse_conductance(&params, params.g_off(), g_t)?;

    let mut theta_hat = Matrix::zeros(m, n);
    let mut multiplier_hat = Matrix::zeros(m, n);

    xbar.reset_all();
    for i in 0..m {
        for j in 0..n {
            let mut acc = 0.0;
            for _ in 0..config.repeats {
                // Program this device to the target.
                let eps = variation.sample_switching(rng);
                {
                    let dev = xbar.device_mut(i, j);
                    dev.reset_to_hrs();
                    if eps == 0.0 {
                        dev.apply_pulse(&pulse);
                    } else {
                        dev.apply_pulse_with_jitter(&pulse, eps);
                    }
                }
                // Sense: drive only row i; every other device is at HRS so
                // the column current is v·g (sneak-free by construction).
                let current = config.v_sense * xbar.device(i, j).conductance();
                acc += config.adc.quantize(current);
            }
            let mean_current = acc / config.repeats as f64;
            // Guard against a zero readout (deep-HRS or coarse ADC).
            let g_hat = (mean_current / config.v_sense).max(params.g_off() * 1e-3);
            let mult = g_hat / g_t;
            theta_hat[(i, j)] = mult.ln();
            multiplier_hat[(i, j)] = mult;
            xbar.device_mut(i, j).reset_to_hrs();
        }
    }
    Ok(PretestReport {
        theta_hat,
        multiplier_hat,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::crossbar::CrossbarConfig;
    use vortex_device::defects::{DefectKind, DefectModel};
    use vortex_device::{DeviceParams, VariationModel};

    fn rng() -> Xoshiro256PlusPlus {
        Xoshiro256PlusPlus::seed_from_u64(41)
    }

    fn config(sigma: f64, sigma_sw: f64) -> CrossbarConfig {
        CrossbarConfig {
            rows: 12,
            cols: 8,
            device: DeviceParams::default(),
            r_wire: 2.5,
            variation: VariationModel::new(sigma, sigma_sw).unwrap(),
            defects: DefectModel::none(),
        }
    }

    fn fine_adc() -> Adc {
        Adc::new(12, 150e-6).unwrap()
    }

    #[test]
    fn config_validation() {
        let mut c = PretestConfig::with_adc(fine_adc()).unwrap();
        c.repeats = 0;
        assert!(c.validate().is_err());
        c.repeats = 1;
        c.v_sense = -1.0;
        assert!(c.validate().is_err());
        c.v_sense = 1.0;
        c.target_conductance = 0.0;
        assert!(c.validate().is_err());
    }

    #[test]
    fn fine_adc_recovers_theta_accurately() {
        let mut r = rng();
        let mut xbar = Crossbar::new(config(0.5, 0.0), &mut r).unwrap();
        let true_theta = xbar.thetas();
        let cfg = PretestConfig::with_adc(fine_adc()).unwrap();
        let report = pretest(&mut xbar, &cfg, &mut r).unwrap();
        for i in 0..12 {
            for j in 0..8 {
                let err = (report.theta_hat[(i, j)] - true_theta[(i, j)]).abs();
                assert!(
                    err < 0.15,
                    "cell ({i},{j}): est {} true {}",
                    report.theta_hat[(i, j)],
                    true_theta[(i, j)]
                );
            }
        }
    }

    #[test]
    fn coarse_adc_estimates_are_worse() {
        let mut r1 = rng();
        let mut r2 = rng();
        let mut xbar_f = Crossbar::new(config(0.5, 0.0), &mut r1).unwrap();
        let mut xbar_c = Crossbar::new(config(0.5, 0.0), &mut r2).unwrap();
        let true_f = xbar_f.thetas();
        let true_c = xbar_c.thetas();
        let fine = PretestConfig::with_adc(fine_adc()).unwrap();
        let coarse = PretestConfig::with_adc(Adc::new(4, 150e-6).unwrap()).unwrap();
        let rf = pretest(&mut xbar_f, &fine, &mut r1).unwrap();
        let rc = pretest(&mut xbar_c, &coarse, &mut r2).unwrap();
        let err = |rep: &PretestReport, truth: &Matrix| {
            rep.theta_hat.sub(truth).frobenius_norm() / (truth.rows() as f64).sqrt()
        };
        assert!(
            err(&rc, &true_c) > err(&rf, &true_f),
            "coarse {} fine {}",
            err(&rc, &true_c),
            err(&rf, &true_f)
        );
    }

    #[test]
    fn repeats_average_out_switching_variation() {
        let mut r1 = rng();
        let mut r2 = rng();
        let mut xbar_1 = Crossbar::new(config(0.3, 0.15), &mut r1).unwrap();
        let mut xbar_k = Crossbar::new(config(0.3, 0.15), &mut r2).unwrap();
        let true_1 = xbar_1.thetas();
        let true_k = xbar_k.thetas();
        let mut once = PretestConfig::with_adc(fine_adc()).unwrap();
        once.repeats = 1;
        let mut many = once;
        many.repeats = 15;
        let r_once = pretest(&mut xbar_1, &once, &mut r1).unwrap();
        let r_many = pretest(&mut xbar_k, &many, &mut r2).unwrap();
        let err = |rep: &PretestReport, truth: &Matrix| rep.theta_hat.sub(truth).frobenius_norm();
        assert!(
            err(&r_many, &true_k) < err(&r_once, &true_1),
            "averaging should help: once {} many {}",
            err(&r_once, &true_1),
            err(&r_many, &true_k)
        );
    }

    #[test]
    fn stuck_cells_appear_as_outliers() {
        let mut r = rng();
        let mut c = config(0.2, 0.0);
        c.defects = DefectModel::none();
        let mut xbar = Crossbar::new(c, &mut r).unwrap();
        // Inject two known defects directly.
        *xbar.device_mut(3, 4) = vortex_device::Memristor::fresh(DeviceParams::default())
            .with_defect(Some(DefectKind::StuckHrs));
        *xbar.device_mut(7, 1) = vortex_device::Memristor::fresh(DeviceParams::default())
            .with_defect(Some(DefectKind::StuckLrs));
        let cfg = PretestConfig::with_adc(fine_adc()).unwrap();
        let report = pretest(&mut xbar, &cfg, &mut r).unwrap();
        // Stuck-HRS reads low (θ̂ < 0), stuck-LRS reads high (θ̂ > 0).
        assert!(
            report.theta_hat[(3, 4)] < -1.5,
            "stuck-HRS must be an outlier"
        );
        assert!(
            report.theta_hat[(7, 1)] > 1.5,
            "stuck-LRS must be an outlier"
        );
    }

    #[test]
    fn devices_left_at_hrs() {
        let mut r = rng();
        let mut xbar = Crossbar::new(config(0.3, 0.0), &mut r).unwrap();
        let cfg = PretestConfig::with_adc(fine_adc()).unwrap();
        let _ = pretest(&mut xbar, &cfg, &mut r).unwrap();
        for i in 0..xbar.rows() {
            for j in 0..xbar.cols() {
                assert_eq!(xbar.device(i, j).state(), 0.0);
            }
        }
    }
}
