//! The crossbar array: a grid of memristors with shared wiring.
//!
//! A [`Crossbar`] is fabricated here and programmed by
//! [`program_with_protocol`](crate::program::program_with_protocol), the
//! crate's one programmer. Reads go through
//! [`DifferentialPair::read`](crate::pair::DifferentialPair::read) or,
//! with wire resistance, [`crate::circuit::NodalAnalysis`].

use serde::{Deserialize, Serialize};
use vortex_device::defects::{DefectMap, DefectModel};
use vortex_device::{DeviceParams, Memristor, VariationModel};
use vortex_linalg::rng::Xoshiro256PlusPlus;
use vortex_linalg::Matrix;

use crate::{Result, XbarError};

/// Static configuration of a crossbar instance.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CrossbarConfig {
    /// Number of word (input) lines.
    pub rows: usize,
    /// Number of bit (output) lines.
    pub cols: usize,
    /// Nominal device corner.
    pub device: DeviceParams,
    /// Wire resistance per segment, in ohms (the paper's Table 1 uses
    /// 2.5 Ω).
    pub r_wire: f64,
    /// Device variation model used when instantiating the array.
    pub variation: VariationModel,
    /// Fabrication defect model used when instantiating the array.
    pub defects: DefectModel,
}

impl CrossbarConfig {
    /// A variation-free, defect-free, zero-wire-resistance configuration.
    pub fn ideal(rows: usize, cols: usize, device: DeviceParams) -> Self {
        Self {
            rows,
            cols,
            device,
            r_wire: 0.0,
            variation: VariationModel::none(),
            defects: DefectModel::none(),
        }
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`XbarError::InvalidParameter`] for an empty array or a
    /// negative/non-finite wire resistance.
    pub fn validate(&self) -> Result<()> {
        if self.rows == 0 || self.cols == 0 {
            return Err(XbarError::InvalidParameter {
                name: "rows/cols",
                requirement: "must both be positive",
            });
        }
        if !(self.r_wire.is_finite() && self.r_wire >= 0.0) {
            return Err(XbarError::InvalidParameter {
                name: "r_wire",
                requirement: "must be finite and non-negative",
            });
        }
        Ok(())
    }
}

/// An `rows × cols` memristor crossbar.
///
/// Each cell carries its own parametric-variation realization θ (drawn at
/// construction — variation is a property of the fabricated device) and
/// possibly a stuck-at defect.
#[derive(Debug, Clone)]
pub struct Crossbar {
    config: CrossbarConfig,
    devices: Vec<Memristor>,
    defect_map: DefectMap,
}

impl Crossbar {
    /// Fabricates a crossbar: samples per-device variation and defects.
    ///
    /// # Errors
    ///
    /// Returns [`XbarError::InvalidParameter`] if the configuration is
    /// invalid.
    pub fn new(config: CrossbarConfig, rng: &mut Xoshiro256PlusPlus) -> Result<Self> {
        config.validate()?;
        let defect_map = config.defects.sample_map(config.rows, config.cols, rng);
        let mut devices = Vec::with_capacity(config.rows * config.cols);
        for i in 0..config.rows {
            for j in 0..config.cols {
                let theta = config.variation.sample_theta(rng);
                let dev =
                    Memristor::with_theta(config.device, theta).with_defect(defect_map.get(i, j));
                devices.push(dev);
            }
        }
        Ok(Self {
            config,
            devices,
            defect_map,
        })
    }

    /// Fabricates a crossbar with an externally supplied per-device
    /// deviation field (e.g. a spatially correlated model such as
    /// [`vortex_device::variation::CorrelatedVariationModel`]); defects
    /// are still drawn from the configuration's defect model.
    ///
    /// # Errors
    ///
    /// Returns [`XbarError::InvalidParameter`] for an invalid
    /// configuration or [`XbarError::ShapeMismatch`] if the field's shape
    /// disagrees with the configuration.
    pub fn with_theta_field(
        config: CrossbarConfig,
        theta: &Matrix,
        rng: &mut Xoshiro256PlusPlus,
    ) -> Result<Self> {
        config.validate()?;
        if theta.shape() != (config.rows, config.cols) {
            return Err(XbarError::ShapeMismatch {
                context: "with_theta_field",
                expected: config.rows * config.cols,
                actual: theta.rows() * theta.cols(),
            });
        }
        let defect_map = config.defects.sample_map(config.rows, config.cols, rng);
        let mut devices = Vec::with_capacity(config.rows * config.cols);
        for i in 0..config.rows {
            for j in 0..config.cols {
                let dev = Memristor::with_theta(config.device, theta[(i, j)])
                    .with_defect(defect_map.get(i, j));
                devices.push(dev);
            }
        }
        Ok(Self {
            config,
            devices,
            defect_map,
        })
    }

    /// An ideal (variation-free, defect-free, zero-wire) crossbar.
    ///
    /// # Panics
    ///
    /// Panics if `rows == 0` or `cols == 0`.
    pub fn ideal(rows: usize, cols: usize, device: DeviceParams) -> Self {
        let config = CrossbarConfig::ideal(rows, cols, device);
        let mut rng = Xoshiro256PlusPlus::seed_from_u64(0);
        Self::new(config, &mut rng).expect("ideal config with positive dims is valid")
    }

    /// The configuration this array was fabricated with.
    pub fn config(&self) -> &CrossbarConfig {
        &self.config
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.config.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.config.cols
    }

    /// Borrow device `(i, j)`.
    ///
    /// # Panics
    ///
    /// Panics if out of bounds.
    pub fn device(&self, i: usize, j: usize) -> &Memristor {
        assert!(i < self.rows() && j < self.cols(), "device index oob");
        &self.devices[i * self.cols() + j]
    }

    /// Mutably borrow device `(i, j)`.
    ///
    /// # Panics
    ///
    /// Panics if out of bounds.
    pub fn device_mut(&mut self, i: usize, j: usize) -> &mut Memristor {
        assert!(i < self.rows() && j < self.cols(), "device index oob");
        let cols = self.cols();
        &mut self.devices[i * cols + j]
    }

    /// The fabrication defect map.
    pub fn defect_map(&self) -> &DefectMap {
        &self.defect_map
    }

    /// Realized conductance matrix (includes variation and defects) — what
    /// the physics actually computes with.
    pub fn conductances(&self) -> Matrix {
        Matrix::from_fn(self.rows(), self.cols(), |i, j| {
            self.device(i, j).conductance()
        })
    }

    /// True per-device deviations θ (testing/oracle use; real hardware
    /// only sees these through [`crate::pretest`]).
    pub fn thetas(&self) -> Matrix {
        Matrix::from_fn(self.rows(), self.cols(), |i, j| self.device(i, j).theta())
    }

    /// Resets every device to HRS.
    pub fn reset_all(&mut self) {
        for d in &mut self.devices {
            d.reset_to_hrs();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::{program_with_protocol, ProgramOptions};

    fn rng() -> Xoshiro256PlusPlus {
        Xoshiro256PlusPlus::seed_from_u64(11)
    }

    fn config(rows: usize, cols: usize, sigma: f64) -> CrossbarConfig {
        CrossbarConfig {
            rows,
            cols,
            device: DeviceParams::default(),
            r_wire: 2.5,
            variation: VariationModel::parametric(sigma).unwrap(),
            defects: DefectModel::none(),
        }
    }

    #[test]
    fn validation_rejects_degenerate() {
        let mut r = rng();
        let mut c = config(0, 4, 0.0);
        assert!(Crossbar::new(c, &mut r).is_err());
        c = config(4, 4, 0.0);
        c.r_wire = -1.0;
        assert!(Crossbar::new(c, &mut r).is_err());
    }

    #[test]
    fn fabrication_samples_theta_per_device() {
        let mut r = rng();
        let xbar = Crossbar::new(config(20, 20, 0.5), &mut r).unwrap();
        let thetas = xbar.thetas();
        let spread = vortex_linalg::stats::std_dev(thetas.as_slice());
        assert!((spread - 0.5).abs() < 0.1, "theta spread {spread}");
    }

    #[test]
    fn ideal_crossbar_has_no_variation() {
        let xbar = Crossbar::ideal(5, 5, DeviceParams::default());
        assert!(xbar.thetas().as_slice().iter().all(|&t| t == 0.0));
        assert_eq!(xbar.defect_map().defect_count(), 0);
    }

    #[test]
    fn reset_all_returns_to_hrs() {
        let mut r = rng();
        let mut xbar = Crossbar::ideal(3, 3, DeviceParams::default());
        let targets = Matrix::filled(3, 3, 9e-5);
        program_with_protocol(
            &mut xbar,
            &targets,
            None,
            &ProgramOptions::default(),
            &mut r,
        )
        .unwrap();
        xbar.reset_all();
        let g_off = DeviceParams::default().g_off();
        for i in 0..3 {
            for j in 0..3 {
                assert!((xbar.device(i, j).conductance() - g_off).abs() / g_off < 1e-9);
            }
        }
    }

    #[test]
    fn defective_cells_survive_in_map_and_devices() {
        let mut r = rng();
        let mut c = config(30, 30, 0.0);
        c.defects = DefectModel::new(0.05, 0.05).unwrap();
        let xbar = Crossbar::new(c, &mut r).unwrap();
        let n_def = xbar.defect_map().defect_count();
        assert!(n_def > 10, "expected some defects, got {n_def}");
        // Device view must agree with the map.
        for i in 0..30 {
            for j in 0..30 {
                assert_eq!(xbar.device(i, j).defect(), xbar.defect_map().get(i, j));
            }
        }
    }
}
