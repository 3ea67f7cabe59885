//! Differential crossbar pair: signed weights on unsigned conductances.
//!
//! §2.2.1 of the paper: a signed weight matrix `W` is realized by two
//! crossbars holding the magnitudes of its positive and negative parts;
//! the sensed output is the difference of the two column currents. The
//! [`WeightMapping`] fixes the affine weight→conductance transfer; the
//! shared baseline conductance `g_min` cancels in the subtraction, so the
//! reconstruction `w = (g⁺ − g⁻)/s` is exact for in-range weights.

use serde::{Deserialize, Serialize};
use vortex_device::DeviceParams;
use vortex_linalg::rng::Xoshiro256PlusPlus;
use vortex_linalg::Matrix;

use crate::circuit::NodalAnalysis;
use crate::crossbar::{Crossbar, CrossbarConfig};
use crate::irdrop::ComputeAttenuationMap;
use crate::{Result, XbarError};

/// Affine weight ↔ conductance-pair transfer.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct WeightMapping {
    g_min: f64,
    g_max: f64,
    w_max: f64,
}

impl WeightMapping {
    /// Creates a mapping that places weights of magnitude up to `w_max`
    /// onto the device conductance range.
    ///
    /// # Errors
    ///
    /// Returns [`XbarError::InvalidParameter`] if `w_max` is not positive
    /// and finite.
    pub fn new(device: &DeviceParams, w_max: f64) -> Result<Self> {
        if !(w_max.is_finite() && w_max > 0.0) {
            return Err(XbarError::InvalidParameter {
                name: "w_max",
                requirement: "must be finite and positive",
            });
        }
        Ok(Self {
            g_min: device.g_off(),
            g_max: device.g_on(),
            w_max,
        })
    }

    /// Derives the mapping from the largest weight magnitude in `w`
    /// (falls back to 1.0 for an all-zero matrix).
    ///
    /// # Errors
    ///
    /// See [`Self::new`].
    pub fn fit(device: &DeviceParams, w: &Matrix) -> Result<Self> {
        let w_max = w.max_abs();
        Self::new(device, if w_max > 0.0 { w_max } else { 1.0 })
    }

    /// Conductance per unit weight.
    pub fn scale(&self) -> f64 {
        (self.g_max - self.g_min) / self.w_max
    }

    /// Largest representable weight magnitude.
    pub fn w_max(&self) -> f64 {
        self.w_max
    }

    /// Baseline conductance (a zero weight programs both sides here).
    pub fn g_min(&self) -> f64 {
        self.g_min
    }

    /// Top of the conductance window (`±w_max` lands here on one side).
    pub fn g_max(&self) -> f64 {
        self.g_max
    }

    /// Maps one signed weight to its `(g⁺, g⁻)` conductance pair. Weights
    /// beyond `±w_max` saturate.
    pub fn to_conductance_pair(&self, w: f64) -> (f64, f64) {
        let w = w.clamp(-self.w_max, self.w_max);
        if w >= 0.0 {
            (self.g_min + self.scale() * w, self.g_min)
        } else {
            (self.g_min, self.g_min + self.scale() * (-w))
        }
    }

    /// Maps a whole weight matrix to target conductance matrices for the
    /// positive and negative crossbars.
    pub fn weights_to_targets(&self, w: &Matrix) -> (Matrix, Matrix) {
        let mut pos = Matrix::zeros(w.rows(), w.cols());
        let mut neg = Matrix::zeros(w.rows(), w.cols());
        for i in 0..w.rows() {
            for j in 0..w.cols() {
                let (gp, gn) = self.to_conductance_pair(w[(i, j)]);
                pos[(i, j)] = gp;
                neg[(i, j)] = gn;
            }
        }
        (pos, neg)
    }

    /// Reconstructs a weight-domain output from a differential current
    /// pair produced with unit input voltage scaling.
    pub fn currents_to_weight_output(&self, i_pos: f64, i_neg: f64) -> f64 {
        (i_pos - i_neg) / self.scale()
    }

    /// Reconstructs the realized weight matrix from the two conductance
    /// matrices.
    ///
    /// # Panics
    ///
    /// Panics if shapes differ.
    pub fn conductances_to_weights(&self, g_pos: &Matrix, g_neg: &Matrix) -> Matrix {
        g_pos.sub(g_neg).scaled(1.0 / self.scale())
    }
}

/// Readout fidelity for [`DifferentialPair::read`].
#[derive(Debug, Clone)]
pub enum ReadCircuit {
    /// Perfect wires — ideal MVM.
    Ideal,
    /// Rank-1 calibrated attenuation maps for the two crossbars (one mesh
    /// solve each at calibration time, then closed-form reads).
    Fast {
        /// Attenuation of the positive crossbar.
        pos: ComputeAttenuationMap,
        /// Attenuation of the negative crossbar.
        neg: ComputeAttenuationMap,
    },
    /// Exact IR drop: the nodal mesh of each crossbar compiled into its
    /// transfer matrix ([`NodalAnalysis::transfer_matrix`]), so a read is
    /// one matrix-vector product per crossbar. The matrices hold the
    /// conductances the pair had when [`ReadCircuit::exact_for`] built
    /// them; rebuild the circuit after reprogramming.
    Exact {
        /// Transfer matrix of the positive crossbar.
        pos: Matrix,
        /// Transfer matrix of the negative crossbar.
        neg: Matrix,
    },
}

impl ReadCircuit {
    /// Builds the fast calibrated model for the pair's current conductance
    /// state using `reference_input` (see
    /// [`ComputeAttenuationMap::calibrate`]).
    ///
    /// # Errors
    ///
    /// Propagates solver errors; returns [`XbarError::InvalidParameter`]
    /// if the pair has zero wire resistance (use [`ReadCircuit::Ideal`]).
    pub fn fast_for(pair: &DifferentialPair, reference_input: &[f64]) -> Result<Self> {
        let r_wire = pair.config().r_wire;
        let na = NodalAnalysis::new(pair.rows(), pair.cols(), r_wire)?;
        Ok(ReadCircuit::Fast {
            pos: ComputeAttenuationMap::calibrate(
                &na,
                &pair.pos().conductances(),
                reference_input,
            )?,
            neg: ComputeAttenuationMap::calibrate(
                &na,
                &pair.neg().conductances(),
                reference_input,
            )?,
        })
    }

    /// Builds the exact model for the pair's current conductance state:
    /// one transfer matrix per crossbar (`cols` mesh solves each).
    ///
    /// # Errors
    ///
    /// Returns [`XbarError::InvalidParameter`] if the wire resistance is
    /// zero; propagates solver errors.
    pub fn exact_for(pair: &DifferentialPair) -> Result<Self> {
        let na = NodalAnalysis::new(pair.rows(), pair.cols(), pair.config().r_wire)?;
        Ok(ReadCircuit::Exact {
            pos: na.transfer_matrix(&pair.pos().conductances())?,
            neg: na.transfer_matrix(&pair.neg().conductances())?,
        })
    }
}

/// Immutable snapshot of a programmed pair's read-relevant state.
///
/// Everything a read needs, decoupled from the live device lattice: the
/// two conductance matrices as they stand after programming, the
/// weight-reconstruction scale, and the wire resistance that fixes the
/// IR-drop behavior. [`DifferentialPair::freeze`] produces one; the
/// inference runtime builds its compiled models from it.
#[derive(Debug, Clone, PartialEq)]
pub struct FrozenPairState {
    /// Conductances of the positive crossbar.
    pub g_pos: Matrix,
    /// Conductances of the negative crossbar.
    pub g_neg: Matrix,
    /// Conductance per unit weight ([`WeightMapping::scale`]).
    pub scale: f64,
    /// Wire resistance per segment (Ω); 0 means ideal wires.
    pub r_wire: f64,
}

impl FrozenPairState {
    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.g_pos.rows()
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.g_pos.cols()
    }
}

/// A positive/negative crossbar pair realizing a signed weight matrix.
#[derive(Debug, Clone)]
pub struct DifferentialPair {
    pos: Crossbar,
    neg: Crossbar,
    mapping: WeightMapping,
}

impl DifferentialPair {
    /// Fabricates the two crossbars (independent variation draws) and
    /// fixes the weight mapping.
    ///
    /// # Errors
    ///
    /// Propagates configuration errors.
    pub fn fabricate(
        config: CrossbarConfig,
        mapping: WeightMapping,
        rng: &mut Xoshiro256PlusPlus,
    ) -> Result<Self> {
        Ok(Self {
            pos: Crossbar::new(config, rng)?,
            neg: Crossbar::new(config, rng)?,
            mapping,
        })
    }

    /// The shared configuration.
    pub fn config(&self) -> &CrossbarConfig {
        self.pos.config()
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.pos.rows()
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.pos.cols()
    }

    /// The positive crossbar.
    pub fn pos(&self) -> &Crossbar {
        &self.pos
    }

    /// The negative crossbar.
    pub fn neg(&self) -> &Crossbar {
        &self.neg
    }

    /// Mutable access to the positive crossbar.
    pub fn pos_mut(&mut self) -> &mut Crossbar {
        &mut self.pos
    }

    /// Mutable access to the negative crossbar.
    pub fn neg_mut(&mut self) -> &mut Crossbar {
        &mut self.neg
    }

    /// The weight ↔ conductance mapping.
    pub fn mapping(&self) -> &WeightMapping {
        &self.mapping
    }

    /// Snapshots the pair's current read-relevant state (conductances,
    /// scale, wire resistance) into an immutable [`FrozenPairState`].
    pub fn freeze(&self) -> FrozenPairState {
        FrozenPairState {
            g_pos: self.pos.conductances(),
            g_neg: self.neg.conductances(),
            scale: self.mapping.scale(),
            r_wire: self.config().r_wire,
        }
    }

    /// The weight matrix the pair currently realizes (including variation
    /// and defects) under ideal readout.
    pub fn realized_weights(&self) -> Matrix {
        self.mapping
            .conductances_to_weights(&self.pos.conductances(), &self.neg.conductances())
    }

    /// Weight-domain read `y = xᵀ·W_realized` under the chosen circuit
    /// fidelity, optionally quantizing each column current with `adc`
    /// before subtraction.
    ///
    /// # Errors
    ///
    /// Returns [`XbarError::ShapeMismatch`] for an input of the wrong
    /// length.
    pub fn read(
        &self,
        x: &[f64],
        circuit: &ReadCircuit,
        adc: Option<&crate::sensing::Adc>,
    ) -> Result<Vec<f64>> {
        if x.len() != self.rows() {
            return Err(XbarError::ShapeMismatch {
                context: "differential read input",
                expected: self.rows(),
                actual: x.len(),
            });
        }
        let (ip, in_) = match circuit {
            ReadCircuit::Ideal => (
                self.pos.conductances().vecmat(x),
                self.neg.conductances().vecmat(x),
            ),
            ReadCircuit::Fast { pos, neg } => (
                pos.compute(&self.pos.conductances(), x),
                neg.compute(&self.neg.conductances(), x),
            ),
            ReadCircuit::Exact { pos, neg } => (pos.vecmat(x), neg.vecmat(x)),
        };
        let (ip, in_) = match adc {
            Some(adc) => (adc.quantize_vec(&ip), adc.quantize_vec(&in_)),
            None => (ip, in_),
        };
        Ok(ip
            .iter()
            .zip(&in_)
            .map(|(&p, &n)| self.mapping.currents_to_weight_output(p, n))
            .collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::{program_with_protocol, ProgramOptions};
    use vortex_device::defects::DefectModel;
    use vortex_device::{DeviceParams, VariationModel};

    fn rng() -> Xoshiro256PlusPlus {
        Xoshiro256PlusPlus::seed_from_u64(21)
    }

    /// Programs `w` as the compiler does: both crossbars through the V/2
    /// protocol, positive first.
    fn program(pair: &mut DifferentialPair, w: &Matrix) {
        let (tp, tn) = pair.mapping().weights_to_targets(w);
        let mut r = rng();
        let protocol = ProgramOptions::default();
        program_with_protocol(pair.pos_mut(), &tp, None, &protocol, &mut r).unwrap();
        program_with_protocol(pair.neg_mut(), &tn, None, &protocol, &mut r).unwrap();
    }

    fn ideal_pair(rows: usize, cols: usize, w_max: f64) -> DifferentialPair {
        let device = DeviceParams::default();
        let config = CrossbarConfig::ideal(rows, cols, device);
        let mapping = WeightMapping::new(&device, w_max).unwrap();
        DifferentialPair::fabricate(config, mapping, &mut rng()).unwrap()
    }

    #[test]
    fn mapping_roundtrip() {
        let device = DeviceParams::default();
        let m = WeightMapping::new(&device, 2.0).unwrap();
        for &w in &[-2.0, -1.0, -0.3, 0.0, 0.7, 2.0] {
            let (gp, gn) = m.to_conductance_pair(w);
            assert!(gp >= device.g_off() && gp <= device.g_on());
            assert!(gn >= device.g_off() && gn <= device.g_on());
            let back = (gp - gn) / m.scale();
            assert!((back - w).abs() < 1e-12, "w {w} back {back}");
        }
    }

    #[test]
    fn mapping_saturates_out_of_range() {
        let device = DeviceParams::default();
        let m = WeightMapping::new(&device, 1.0).unwrap();
        let (gp, _) = m.to_conductance_pair(5.0);
        assert!((gp - device.g_on()).abs() < 1e-12);
    }

    #[test]
    fn fit_uses_max_abs() {
        let device = DeviceParams::default();
        let w = Matrix::from_rows(&[vec![0.5, -3.0], vec![1.0, 2.0]]);
        let m = WeightMapping::fit(&device, &w).unwrap();
        assert_eq!(m.w_max(), 3.0);
        let zeros = Matrix::zeros(2, 2);
        assert_eq!(WeightMapping::fit(&device, &zeros).unwrap().w_max(), 1.0);
    }

    #[test]
    fn ideal_pair_realizes_weights_exactly() {
        let mut pair = ideal_pair(4, 3, 1.0);
        let w = Matrix::from_fn(4, 3, |i, j| ((i + j) as f64 * 0.37).sin());
        program(&mut pair, &w);
        let realized = pair.realized_weights();
        for i in 0..4 {
            for j in 0..3 {
                assert!(
                    (realized[(i, j)] - w[(i, j)]).abs() < 2e-2,
                    "cell ({i},{j}): {} vs {}",
                    realized[(i, j)],
                    w[(i, j)]
                );
            }
        }
    }

    #[test]
    fn ideal_read_matches_matrix_product() {
        let mut pair = ideal_pair(5, 2, 1.0);
        let w = Matrix::from_fn(5, 2, |i, j| if (i + j) % 2 == 0 { 0.5 } else { -0.5 });
        program(&mut pair, &w);
        let x = [1.0, 0.0, 1.0, 0.5, 0.25];
        let y = pair.read(&x, &ReadCircuit::Ideal, None).unwrap();
        let expect = w.vecmat(&x);
        for (a, b) in y.iter().zip(&expect) {
            assert!((a - b).abs() < 3e-2, "{a} vs {b}");
        }
    }

    #[test]
    fn variation_perturbs_realized_weights() {
        let device = DeviceParams::default();
        let config = CrossbarConfig {
            rows: 6,
            cols: 4,
            device,
            r_wire: 0.0,
            variation: VariationModel::parametric(0.6).unwrap(),
            defects: DefectModel::none(),
        };
        let mapping = WeightMapping::new(&device, 1.0).unwrap();
        let mut pair = DifferentialPair::fabricate(config, mapping, &mut rng()).unwrap();
        let w = Matrix::filled(6, 4, 0.5);
        program(&mut pair, &w);
        let realized = pair.realized_weights();
        let err = realized.sub(&w).frobenius_norm() / w.frobenius_norm();
        assert!(err > 0.05, "σ=0.6 should visibly distort weights: {err}");
    }

    #[test]
    fn exact_read_shows_ir_drop() {
        let device = DeviceParams::default();
        let config = CrossbarConfig {
            rows: 8,
            cols: 3,
            device,
            r_wire: 20.0,
            variation: VariationModel::none(),
            defects: DefectModel::none(),
        };
        let mapping = WeightMapping::new(&device, 1.0).unwrap();
        let mut pair = DifferentialPair::fabricate(config, mapping, &mut rng()).unwrap();
        let w = Matrix::filled(8, 3, 1.0); // all strongly positive → pos xbar all LRS
        program(&mut pair, &w);
        let x = vec![1.0; 8];
        let ideal = pair.read(&x, &ReadCircuit::Ideal, None).unwrap();
        let exact = pair
            .read(&x, &ReadCircuit::exact_for(&pair).unwrap(), None)
            .unwrap();
        // IR drop attenuates the positive (LRS-heavy) crossbar more, so the
        // differential output magnitude must shrink.
        assert!(exact[0] < ideal[0], "exact {} ideal {}", exact[0], ideal[0]);
    }

    #[test]
    fn fast_read_tracks_exact_read() {
        let device = DeviceParams::default();
        let config = CrossbarConfig {
            rows: 8,
            cols: 3,
            device,
            r_wire: 10.0,
            variation: VariationModel::none(),
            defects: DefectModel::none(),
        };
        let mapping = WeightMapping::new(&device, 1.0).unwrap();
        let mut pair = DifferentialPair::fabricate(config, mapping, &mut rng()).unwrap();
        let w = Matrix::from_fn(8, 3, |i, _| if i % 2 == 0 { 0.8 } else { -0.6 });
        program(&mut pair, &w);
        let reference = vec![0.5; 8];
        let fast = ReadCircuit::fast_for(&pair, &reference).unwrap();
        let exact = ReadCircuit::exact_for(&pair).unwrap();
        let x = vec![1.0, 0.0, 1.0, 1.0, 0.0, 1.0, 1.0, 0.0];
        let yf = pair.read(&x, &fast, None).unwrap();
        let ye = pair.read(&x, &exact, None).unwrap();
        for (a, b) in yf.iter().zip(&ye) {
            assert!(
                (a - b).abs() < 0.15 * b.abs().max(0.1),
                "fast {a} vs exact {b}"
            );
        }
    }

    #[test]
    fn adc_quantizes_read() {
        let mut pair = ideal_pair(4, 2, 1.0);
        let w = Matrix::filled(4, 2, 0.5);
        program(&mut pair, &w);
        let x = [1.0; 4];
        let adc = crate::sensing::Adc::new(3, 1e-3).unwrap(); // very coarse
        let quantized = pair.read(&x, &ReadCircuit::Ideal, Some(&adc)).unwrap();
        let clean = pair.read(&x, &ReadCircuit::Ideal, None).unwrap();
        // Coarse quantization must visibly distort the output.
        let dist: f64 = quantized
            .iter()
            .zip(&clean)
            .map(|(a, b)| (a - b).abs())
            .sum();
        assert!(dist > 1e-3, "3-bit ADC should distort: {dist}");
    }

    #[test]
    fn read_rejects_bad_input_length() {
        let pair = ideal_pair(4, 2, 1.0);
        assert!(pair.read(&[1.0; 3], &ReadCircuit::Ideal, None).is_err());
    }
}
