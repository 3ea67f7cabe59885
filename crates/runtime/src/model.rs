//! The immutable compiled model: a frozen crossbar read path.
//!
//! Compilation happens once — [`CompiledModel::compile`] takes the
//! snapshot of a programmed differential pair, the logical→physical row
//! routing, and the read-path options, performs the (expensive) IR-drop
//! calibration if requested, and freezes everything the read needs:
//!
//! * the two conductance matrices as programmed,
//! * the differential scale `s` with `w = (i⁺ − i⁻)/s`,
//! * the calibrated per-cell attenuation folded into *effective*
//!   conductance matrices (`g∘a`, computed once instead of per sample),
//!   or, for [`Fidelity::Exact`], the nodal mesh compiled into transfer
//!   matrices in the same slot,
//! * converter resolutions (ADC on the columns, DAC on the rows),
//! * the row routing.
//!
//! Inference is then a pure function of the input: no fabrication state,
//! no solver, and no per-sample conductance-matrix rebuilds — every
//! fidelity reads through one matrix-vector product per crossbar. The
//! per-sample arithmetic is kept bit-identical to the live read of
//! [`vortex_xbar::pair::DifferentialPair::read`] — same values, same
//! floating-point operation order — so a compiled model reproduces the
//! training-side evaluation numbers exactly.

use vortex_device::drift::{DriftProcess, RetentionModel};
use vortex_linalg::{vector, Matrix};
use vortex_nn::dataset::Dataset;
use vortex_nn::executor::Parallelism;
use vortex_nn::pool::WorkerPool;
use vortex_xbar::circuit::NodalAnalysis;
use vortex_xbar::encoding::EncodingTable;
use vortex_xbar::irdrop::ComputeAttenuationMap;
use vortex_xbar::pair::FrozenPairState;
use vortex_xbar::sensing::{Adc, Dac};

use crate::kernels::{gemv_ref, FastGemv};
use crate::{Result, RuntimeError};

/// Samples per executor chunk in [`CompiledModel::infer_batch`]: large
/// enough to amortize channel traffic, small enough to keep a 100-sample
/// test set parallel.
const BATCH_CHUNK: usize = 32;

/// Read-path fidelity of a compiled model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fidelity {
    /// Perfect wires: `i = gᵀx`.
    Ideal,
    /// Calibrated IR-drop: per-cell attenuation from one exact mesh solve
    /// at compile time, folded into effective conductances.
    Calibrated,
    /// Exact IR drop: the nodal mesh of each crossbar compiled into its
    /// transfer matrix at compile time (`cols` mesh solves per crossbar,
    /// rebuilt whenever the conductances change); a read is then one
    /// matrix-vector product per crossbar, like [`Fidelity::Calibrated`].
    Exact,
}

impl Fidelity {
    /// Stable wire code used by the artifact codec.
    pub(crate) fn code(self) -> u8 {
        match self {
            Fidelity::Ideal => 0,
            Fidelity::Calibrated => 1,
            Fidelity::Exact => 2,
        }
    }

    pub(crate) fn from_code(code: u8) -> Option<Self> {
        match code {
            0 => Some(Fidelity::Ideal),
            1 => Some(Fidelity::Calibrated),
            2 => Some(Fidelity::Exact),
            _ => None,
        }
    }
}

/// Peripheral configuration of the read path.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReadOptions {
    /// Circuit fidelity.
    pub fidelity: Fidelity,
    /// Column ADC (`None` = ideal sensing).
    pub adc: Option<Adc>,
    /// Row driver DAC (`None` = ideal drivers).
    pub dac: Option<Dac>,
}

impl ReadOptions {
    /// Ideal periphery at the given fidelity.
    pub fn new(fidelity: Fidelity) -> Self {
        Self {
            fidelity,
            adc: None,
            dac: None,
        }
    }
}

/// A frozen probe set with golden predictions: the artifact carries the
/// answers the model gave at compile time, so a health monitor can later
/// measure how far drift (or any other degradation) has pulled the live
/// read path away from its freshly programmed behaviour — without access
/// to labeled data.
#[derive(Debug, Clone, PartialEq)]
pub struct CanarySet {
    inputs: Vec<Vec<f64>>,
    golden: Vec<u8>,
}

impl CanarySet {
    /// Pairs probe inputs with their golden predictions.
    ///
    /// # Errors
    ///
    /// Returns [`RuntimeError::InvalidParameter`] when the set is empty,
    /// the counts disagree, or the inputs are ragged/non-finite.
    pub fn new(inputs: Vec<Vec<f64>>, golden: Vec<u8>) -> Result<Self> {
        if inputs.is_empty() {
            return Err(RuntimeError::InvalidParameter {
                name: "canary",
                requirement: "canary set must contain at least one input",
            });
        }
        if inputs.len() != golden.len() {
            return Err(RuntimeError::InvalidParameter {
                name: "canary",
                requirement: "canary inputs and golden predictions must pair up",
            });
        }
        let width = inputs[0].len();
        for x in &inputs {
            if x.len() != width || x.iter().any(|v| !v.is_finite()) {
                return Err(RuntimeError::InvalidParameter {
                    name: "canary",
                    requirement: "canary inputs must be finite and equally sized",
                });
            }
        }
        Ok(Self { inputs, golden })
    }

    /// The probe inputs, in order.
    pub fn inputs(&self) -> &[Vec<f64>] {
        &self.inputs
    }

    /// The golden predictions, one per input.
    pub fn golden(&self) -> &[u8] {
        &self.golden
    }

    /// Number of probes in the set.
    pub fn len(&self) -> usize {
        self.inputs.len()
    }

    /// Whether the set is empty (never true for a constructed set).
    pub fn is_empty(&self) -> bool {
        self.inputs.is_empty()
    }

    /// Fraction of probes `model` still answers like the golden run.
    ///
    /// # Errors
    ///
    /// See [`CompiledModel::infer`].
    pub fn accuracy_on(&self, model: &CompiledModel) -> Result<f64> {
        // Batched so the probes share one scratch allocation and go
        // through the same (possibly certified-f32) kernel as serving
        // traffic; labels are identical to per-sample `infer` by the
        // certification contract.
        let samples: Vec<&[f64]> = self.inputs.iter().map(Vec::as_slice).collect();
        let predicted = model.infer_batch(&samples, Parallelism::Serial)?;
        let hits = predicted
            .iter()
            .zip(&self.golden)
            .filter(|(p, g)| p == g)
            .count();
        Ok(hits as f64 / self.inputs.len() as f64)
    }
}

/// One device stuck at a fixed conductance (a fabrication or lifetime
/// stuck-at defect injected into a frozen read path).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CellFault {
    /// Physical row of the faulty device.
    pub row: usize,
    /// Column of the faulty device.
    pub col: usize,
    /// `true` targets the negative crossbar, `false` the positive one.
    pub negative: bool,
    /// Conductance the device is stuck at (S).
    pub conductance: f64,
}

/// Per-thread scratch buffers for the batched read.
struct Scratch {
    routed: Vec<f64>,
    i_pos: Vec<f64>,
    i_neg: Vec<f64>,
    scores: Vec<f64>,
    /// f32 staging for the certified fast path (empty when disabled).
    x32: Vec<f32>,
    s32: Vec<f32>,
}

/// An immutable, servable model: compile once, infer many.
#[derive(Debug, Clone)]
pub struct CompiledModel {
    // --- persisted state (the artifact codec serializes exactly this) ---
    pub(crate) fidelity: Fidelity,
    pub(crate) r_wire: f64,
    pub(crate) scale: f64,
    pub(crate) adc: Option<Adc>,
    pub(crate) dac: Option<Dac>,
    pub(crate) physical_rows: usize,
    pub(crate) assignment: Vec<usize>,
    pub(crate) g_pos: Matrix,
    pub(crate) g_neg: Matrix,
    pub(crate) att_pos: Option<Matrix>,
    pub(crate) att_neg: Option<Matrix>,
    pub(crate) canary: Option<CanarySet>,
    pub(crate) encoding: EncodingTable,
    // --- derived state, rebuilt on load ---
    eff_pos: Matrix,
    eff_neg: Matrix,
    /// The certified f32 label fast path; `None` where the tolerance
    /// proof does not hold (quantized sensing) or when disabled via
    /// [`Self::with_reference_kernel`].
    fast: Option<FastGemv>,
}

impl CompiledModel {
    /// Compiles a programmed pair snapshot into a servable model.
    ///
    /// `assignment[p]` is the physical row carrying logical input `p`
    /// (unassigned physical rows receive zero drive). For
    /// [`Fidelity::Calibrated`], `calibration` must hold a logical-space
    /// reference input (typically the mean test input); the one exact mesh
    /// solve per crossbar happens here, never at inference time. For
    /// [`Fidelity::Exact`] the per-crossbar transfer matrices are built
    /// here (and rebuilt by every derived copy and on artifact load).
    ///
    /// # Errors
    ///
    /// Returns [`RuntimeError::InvalidParameter`] for inconsistent shapes
    /// or routing, and propagates calibration and transfer-matrix solver
    /// errors.
    pub fn compile(
        state: &FrozenPairState,
        assignment: &[usize],
        options: &ReadOptions,
        calibration: Option<&[f64]>,
    ) -> Result<Self> {
        Self::compile_encoded(
            state,
            assignment,
            options,
            calibration,
            EncodingTable::differential(state.rows()),
        )
    }

    /// [`Self::compile`] carrying the per-row [`EncodingTable`] the
    /// compiler's weight encoding produced; the table is persisted with
    /// the artifact (format v3) so a reloaded model still knows its own
    /// programming resolution and pulse cost.
    ///
    /// # Errors
    ///
    /// See [`Self::compile`]; additionally rejects a table whose row
    /// count disagrees with the frozen pair.
    pub fn compile_encoded(
        state: &FrozenPairState,
        assignment: &[usize],
        options: &ReadOptions,
        calibration: Option<&[f64]>,
        encoding: EncodingTable,
    ) -> Result<Self> {
        let _span = vortex_obs::span!("runtime.compile_seconds");
        vortex_obs::counter!("runtime.compiles").incr();
        let (att_pos, att_neg) = match options.fidelity {
            Fidelity::Calibrated => {
                let reference = match calibration {
                    Some(c) => route(assignment, state.rows(), c)?,
                    None => {
                        return Err(RuntimeError::InvalidParameter {
                            name: "calibration",
                            requirement: "calibrated fidelity needs a reference input",
                        })
                    }
                };
                let na = NodalAnalysis::new(state.rows(), state.cols(), state.r_wire)?;
                let pos = ComputeAttenuationMap::calibrate(&na, &state.g_pos, &reference)?;
                let neg = ComputeAttenuationMap::calibrate(&na, &state.g_neg, &reference)?;
                (
                    Some(pos.attenuation().clone()),
                    Some(neg.attenuation().clone()),
                )
            }
            Fidelity::Ideal | Fidelity::Exact => (None, None),
        };
        Self::from_parts(
            options.fidelity,
            state.r_wire,
            state.scale,
            options.adc,
            options.dac,
            state.rows(),
            assignment.to_vec(),
            state.g_pos.clone(),
            state.g_neg.clone(),
            att_pos,
            att_neg,
            None,
            encoding,
        )
    }

    /// Assembles a model from its persisted parts, validating and
    /// rebuilding the derived read state. This is the single constructor
    /// both [`Self::compile`] and the artifact decoder go through, so it
    /// checks values as well as shapes: conductances must be finite and
    /// non-negative, attenuation factors in `[0, 1]`.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn from_parts(
        fidelity: Fidelity,
        r_wire: f64,
        scale: f64,
        adc: Option<Adc>,
        dac: Option<Dac>,
        physical_rows: usize,
        assignment: Vec<usize>,
        g_pos: Matrix,
        g_neg: Matrix,
        att_pos: Option<Matrix>,
        att_neg: Option<Matrix>,
        canary: Option<CanarySet>,
        encoding: EncodingTable,
    ) -> Result<Self> {
        if encoding.rows() != physical_rows {
            return Err(RuntimeError::InvalidParameter {
                name: "encoding",
                requirement: "encoding table must cover every physical row",
            });
        }
        if g_pos.rows() == 0 || g_pos.cols() == 0 {
            return Err(RuntimeError::InvalidParameter {
                name: "g_pos",
                requirement: "conductance matrices must be non-empty",
            });
        }
        if g_pos.shape() != g_neg.shape() || g_pos.rows() != physical_rows {
            return Err(RuntimeError::InvalidParameter {
                name: "g_neg",
                requirement: "conductance matrices must share the physical shape",
            });
        }
        if !(scale.is_finite() && scale > 0.0) {
            return Err(RuntimeError::InvalidParameter {
                name: "scale",
                requirement: "must be finite and positive",
            });
        }
        if !(r_wire.is_finite() && r_wire >= 0.0) {
            return Err(RuntimeError::InvalidParameter {
                name: "r_wire",
                requirement: "must be finite and non-negative",
            });
        }
        for (name, g) in [("g_pos", &g_pos), ("g_neg", &g_neg)] {
            if g.as_slice().iter().any(|&v| !(v.is_finite() && v >= 0.0)) {
                return Err(RuntimeError::InvalidParameter {
                    name,
                    requirement: "conductances must be finite and non-negative",
                });
            }
        }
        let mut seen = vec![false; physical_rows];
        for &q in &assignment {
            if q >= physical_rows || seen[q] {
                return Err(RuntimeError::InvalidParameter {
                    name: "assignment",
                    requirement: "must map logical rows to distinct physical rows in range",
                });
            }
            seen[q] = true;
        }
        match fidelity {
            Fidelity::Calibrated => {
                for att in [&att_pos, &att_neg] {
                    match att {
                        Some(a) if a.shape() == g_pos.shape() => {
                            if a.as_slice().iter().any(|v| !(0.0..=1.0).contains(v)) {
                                return Err(RuntimeError::InvalidParameter {
                                    name: "attenuation",
                                    requirement: "attenuation factors must lie in [0, 1]",
                                });
                            }
                        }
                        _ => {
                            return Err(RuntimeError::InvalidParameter {
                                name: "attenuation",
                                requirement:
                                    "calibrated models need attenuation maps of the array shape",
                            })
                        }
                    }
                }
            }
            Fidelity::Ideal | Fidelity::Exact => {
                if att_pos.is_some() || att_neg.is_some() {
                    return Err(RuntimeError::InvalidParameter {
                        name: "attenuation",
                        requirement: "only calibrated models carry attenuation maps",
                    });
                }
            }
        }
        // Derived read state: the matrices every read multiplies by —
        // the conductances, the calibrated `g∘a` (the per-sample hadamard
        // of the live read, done once), or the exact transfer matrices.
        let (eff_pos, eff_neg) = match fidelity {
            Fidelity::Ideal => (g_pos.clone(), g_neg.clone()),
            Fidelity::Calibrated => {
                let ap = att_pos.as_ref().expect("validated above");
                let an = att_neg.as_ref().expect("validated above");
                (g_pos.hadamard(ap), g_neg.hadamard(an))
            }
            Fidelity::Exact => {
                let na = NodalAnalysis::new(g_pos.rows(), g_pos.cols(), r_wire)?;
                (na.transfer_matrix(&g_pos)?, na.transfer_matrix(&g_neg)?)
            }
        };
        // The certified f32 label path exists only where its tolerance
        // proof holds: ideal sensing. A DAC is fine — it quantizes the
        // *input* in f64 before either kernel sees it. ADC quantization
        // happens *after* the product, where an f32 score could land in a
        // different bin, so those models stay on the reference.
        let fast = adc
            .is_none()
            .then(|| FastGemv::from_effective(&eff_pos, &eff_neg, scale));
        if let Some(c) = &canary {
            if c.inputs[0].len() != assignment.len() {
                return Err(RuntimeError::InvalidParameter {
                    name: "canary",
                    requirement: "canary input length must match the logical row count",
                });
            }
            if c.golden.iter().any(|&g| usize::from(g) >= g_pos.cols()) {
                return Err(RuntimeError::InvalidParameter {
                    name: "canary",
                    requirement: "golden predictions must name existing classes",
                });
            }
        }
        Ok(Self {
            fidelity,
            r_wire,
            scale,
            adc,
            dac,
            physical_rows,
            assignment,
            g_pos,
            g_neg,
            att_pos,
            att_neg,
            canary,
            encoding,
            eff_pos,
            eff_neg,
            fast,
        })
    }

    /// Number of physical crossbar rows.
    pub fn rows(&self) -> usize {
        self.physical_rows
    }

    /// Number of logical input features.
    pub fn logical_rows(&self) -> usize {
        self.assignment.len()
    }

    /// Number of output classes (crossbar columns).
    pub fn classes(&self) -> usize {
        self.g_pos.cols()
    }

    /// Read-path fidelity.
    pub fn fidelity(&self) -> Fidelity {
        self.fidelity
    }

    /// Conductance per unit weight.
    pub fn scale(&self) -> f64 {
        self.scale
    }

    /// Wire resistance per segment (Ω).
    pub fn r_wire(&self) -> f64 {
        self.r_wire
    }

    /// The logical→physical row assignment.
    pub fn assignment(&self) -> &[usize] {
        &self.assignment
    }

    /// Column ADC, if sensing is quantized.
    pub fn adc(&self) -> Option<&Adc> {
        self.adc.as_ref()
    }

    /// Row driver DAC, if input quantization is modeled.
    pub fn dac(&self) -> Option<&Dac> {
        self.dac.as_ref()
    }

    /// The weight matrix the frozen pair realizes under ideal readout.
    pub fn realized_weights(&self) -> Matrix {
        self.g_pos.sub(&self.g_neg).scaled(1.0 / self.scale)
    }

    /// The frozen canary set, if one was baked into this model.
    pub fn canary(&self) -> Option<&CanarySet> {
        self.canary.as_ref()
    }

    /// How this model's weights were encoded onto devices: the per-row
    /// level table the compile-time [`vortex_xbar::encoding`] strategy
    /// produced (all-continuous for pre-v3 artifacts and the default
    /// differential encoding).
    pub fn encoding(&self) -> &EncodingTable {
        &self.encoding
    }

    /// Freezes `inputs` as the model's canary set: the *current* read
    /// path answers each probe, and those answers become the golden
    /// predictions persisted with the artifact. Call this on a freshly
    /// compiled model, before any degradation is applied.
    ///
    /// # Errors
    ///
    /// Returns [`RuntimeError::InvalidParameter`] for an empty, ragged,
    /// or wrongly sized probe set; propagates read-path errors.
    pub fn with_canary_inputs(mut self, inputs: Vec<Vec<f64>>) -> Result<Self> {
        let mut golden = Vec::with_capacity(inputs.len());
        for x in &inputs {
            golden.push(self.infer(x)?);
        }
        // `infer` above already vetted every input's length, so the set
        // is consistent with the routing by construction.
        self.canary = Some(CanarySet::new(inputs, golden)?);
        Ok(self)
    }

    /// Fraction of canary probes the model still answers like the golden
    /// run (1.0 on a pristine model by construction).
    ///
    /// # Errors
    ///
    /// Returns [`RuntimeError::InvalidParameter`] when the model carries
    /// no canary set; propagates read-path errors.
    pub fn canary_accuracy(&self) -> Result<f64> {
        match &self.canary {
            Some(c) => c.accuracy_on(self),
            None => Err(RuntimeError::InvalidParameter {
                name: "canary",
                requirement: "model carries no canary set",
            }),
        }
    }

    /// A copy whose conductances are multiplied elementwise by arbitrary
    /// positive factor matrices. Retention decay shrinks a device
    /// (factor ≤ 1, see [`Self::age_with`]); a temperature excursion can
    /// *raise* its conductance (factor > 1). The canary set and, for
    /// calibrated models, the compile-time attenuation maps carry over
    /// unchanged — the read degrades while the model keeps *believing*
    /// its fresh calibration, exactly the mismatch a health monitor exists
    /// to catch. An Exact model rebuilds its transfer matrices from the
    /// new conductances (`cols` mesh solves per crossbar).
    ///
    /// # Errors
    ///
    /// Returns [`RuntimeError::InvalidParameter`] for factor matrices of
    /// the wrong shape or with non-finite/non-positive entries.
    pub fn with_conductance_factors(&self, f_pos: &Matrix, f_neg: &Matrix) -> Result<Self> {
        for (name, m) in [("f_pos", f_pos), ("f_neg", f_neg)] {
            if m.shape() != self.g_pos.shape() {
                return Err(RuntimeError::InvalidParameter {
                    name,
                    requirement: "factor matrix must match the crossbar shape",
                });
            }
            if m.as_slice().iter().any(|&v| !(v.is_finite() && v > 0.0)) {
                return Err(RuntimeError::InvalidParameter {
                    name,
                    requirement: "conductance factors must be finite and positive",
                });
            }
        }
        Self::from_parts(
            self.fidelity,
            self.r_wire,
            self.scale,
            self.adc,
            self.dac,
            self.physical_rows,
            self.assignment.clone(),
            self.g_pos.hadamard(f_pos),
            self.g_neg.hadamard(f_neg),
            self.att_pos.clone(),
            self.att_neg.clone(),
            self.canary.clone(),
            self.encoding.clone(),
        )
    }

    /// A drift-aged copy under the workspace's one drift implementation:
    /// the decay matrices of `DriftProcess::new(*retention, seed)` — one
    /// ν per device (seeded, so bit-reproducible — positive crossbar
    /// sampled first, row-major), evaluated after `t_s` seconds — applied
    /// through [`Self::with_conductance_factors`]. Decay factors lie in
    /// `(0, 1]` by construction.
    ///
    /// # Errors
    ///
    /// See [`Self::with_conductance_factors`].
    pub fn age_with(&self, retention: &RetentionModel, t_s: f64, seed: u64) -> Result<Self> {
        let (rows, cols) = self.g_pos.shape();
        let (decay_pos, decay_neg) =
            DriftProcess::new(*retention, seed).decay_matrices(rows, cols, t_s);
        self.with_conductance_factors(&decay_pos, &decay_neg)
    }

    /// A copy with stuck-at device faults applied: each fault pins one
    /// device of one crossbar to a fixed conductance. Calibration maps
    /// and the canary set carry over, as in
    /// [`Self::with_conductance_factors`]; an Exact
    /// model rebuilds its transfer matrices.
    ///
    /// # Errors
    ///
    /// Returns [`RuntimeError::InvalidParameter`] for out-of-range cells
    /// or non-finite/negative conductances.
    pub fn with_cell_faults(&self, faults: &[CellFault]) -> Result<Self> {
        let mut g_pos = self.g_pos.clone();
        let mut g_neg = self.g_neg.clone();
        for f in faults {
            if f.row >= g_pos.rows() || f.col >= g_pos.cols() {
                return Err(RuntimeError::InvalidParameter {
                    name: "faults",
                    requirement: "fault cell must lie inside the crossbar",
                });
            }
            if !(f.conductance.is_finite() && f.conductance >= 0.0) {
                return Err(RuntimeError::InvalidParameter {
                    name: "faults",
                    requirement: "stuck conductance must be finite and non-negative",
                });
            }
            let target = if f.negative { &mut g_neg } else { &mut g_pos };
            target[(f.row, f.col)] = f.conductance;
        }
        Self::from_parts(
            self.fidelity,
            self.r_wire,
            self.scale,
            self.adc,
            self.dac,
            self.physical_rows,
            self.assignment.clone(),
            g_pos,
            g_neg,
            self.att_pos.clone(),
            self.att_neg.clone(),
            self.canary.clone(),
            self.encoding.clone(),
        )
    }

    fn scratch(&self) -> Scratch {
        let (x32, s32) = if self.fast.is_some() {
            (vec![0f32; self.physical_rows], vec![0f32; self.classes()])
        } else {
            (Vec::new(), Vec::new())
        };
        Scratch {
            routed: vec![0.0; self.physical_rows],
            i_pos: vec![0.0; self.classes()],
            i_neg: vec![0.0; self.classes()],
            scores: vec![0.0; self.classes()],
            x32,
            s32,
        }
    }

    /// Whether this model currently answers labels through the certified
    /// f32 fast path (with per-sample fallback to the reference).
    pub fn fast_path_enabled(&self) -> bool {
        self.fast.is_some()
    }

    /// This model with the f32 fast path disabled: every label comes from
    /// the f64 reference kernel. Predictions are identical by the
    /// certification contract — this switch exists so tests and benches
    /// can measure and assert exactly that. The setting applies to this
    /// instance only; derived copies ([`Self::with_conductance_factors`],
    /// [`Self::with_cell_faults`], artifact round-trips) rebuild their
    /// read state and re-enable the fast path where eligible.
    pub fn with_reference_kernel(mut self) -> Self {
        self.fast = None;
        self
    }

    /// One frozen read into `s.scores`, bit-exact with the live pair read.
    fn score_into(&self, x: &[f64], s: &mut Scratch) -> Result<()> {
        if x.len() != self.assignment.len() {
            return Err(RuntimeError::InvalidParameter {
                name: "x",
                requirement: "input length must match the logical row count",
            });
        }
        s.routed.fill(0.0);
        for (p, &q) in self.assignment.iter().enumerate() {
            s.routed[q] = x[p];
        }
        if let Some(dac) = &self.dac {
            for v in &mut s.routed {
                *v = dac.convert(*v);
            }
        }
        gemv_ref(&self.eff_pos, &s.routed, &mut s.i_pos);
        gemv_ref(&self.eff_neg, &s.routed, &mut s.i_neg);
        if let Some(adc) = &self.adc {
            for v in &mut s.i_pos {
                *v = adc.quantize(*v);
            }
            for v in &mut s.i_neg {
                *v = adc.quantize(*v);
            }
        }
        for ((out, &p), &n) in s.scores.iter_mut().zip(&s.i_pos).zip(&s.i_neg) {
            *out = (p - n) / self.scale;
        }
        Ok(())
    }

    /// Class scores for one logical input vector.
    ///
    /// # Errors
    ///
    /// Returns [`RuntimeError::InvalidParameter`] for a wrong input length.
    pub fn scores(&self, x: &[f64]) -> Result<Vec<f64>> {
        let mut s = self.scratch();
        self.score_into(x, &mut s)?;
        Ok(s.scores)
    }

    /// One label, fast path first: route + DAC in f64, then ask the
    /// certified f32 kernel; any sample it cannot certify (tight margin,
    /// NaN, non-finite input) reruns through the f64 reference. Returns
    /// the label and whether the fast path answered it.
    fn label_into(&self, x: &[f64], s: &mut Scratch) -> Result<(u8, bool)> {
        if let Some(fast) = &self.fast {
            if x.len() != self.assignment.len() {
                return Err(RuntimeError::InvalidParameter {
                    name: "x",
                    requirement: "input length must match the logical row count",
                });
            }
            s.routed.fill(0.0);
            for (p, &q) in self.assignment.iter().enumerate() {
                s.routed[q] = x[p];
            }
            if let Some(dac) = &self.dac {
                for v in &mut s.routed {
                    *v = dac.convert(*v);
                }
            }
            if let Some(label) = fast.certified_label(&s.routed, &mut s.x32, &mut s.s32) {
                return Ok((label as u8, true));
            }
        }
        self.score_into(x, s)?;
        Ok((vector::argmax(&s.scores).unwrap_or(0) as u8, false))
    }

    /// Predicted class of one sample (argmax of [`Self::scores`]).
    ///
    /// Labels may be answered by the certified f32 fast path — which by
    /// construction agrees with the reference argmax exactly (see
    /// [`crate::kernels`]) — so this is always the same class
    /// [`Self::scores`] would yield.
    ///
    /// # Errors
    ///
    /// See [`Self::scores`].
    pub fn infer(&self, x: &[f64]) -> Result<u8> {
        let mut s = self.scratch();
        let (label, fast) = self.label_into(x, &mut s)?;
        if fast {
            vortex_obs::counter!("runtime.fast_labels").incr();
        } else {
            vortex_obs::counter!("runtime.fast_fallbacks").incr();
        }
        Ok(label)
    }

    /// Predicted classes for a batch of samples, fanned out over the
    /// persistent [`WorkerPool`].
    ///
    /// Samples are split into fixed-size chunks; each chunk reuses one set
    /// of scratch buffers, and chunks are claimed dynamically from the
    /// process-wide pool (no per-call thread spawn). Predictions are
    /// **bit-identical** for every [`Parallelism`] setting, and arrive in
    /// sample order. When several samples fail, the error of the earliest
    /// one is returned.
    ///
    /// # Errors
    ///
    /// See [`Self::scores`].
    pub fn infer_batch(&self, samples: &[&[f64]], parallelism: Parallelism) -> Result<Vec<u8>> {
        let batch_start = std::time::Instant::now();
        let chunks = samples.len().div_ceil(BATCH_CHUNK);
        // Each chunk's labels depend only on its sample range — never on
        // which pool thread runs it — so the fan-out is deterministic.
        let run_chunk = |k: usize| {
            let lo = k * BATCH_CHUNK;
            let hi = (lo + BATCH_CHUNK).min(samples.len());
            let mut s = self.scratch();
            let mut out = Vec::with_capacity(hi - lo);
            let mut fast_hits = 0usize;
            for x in &samples[lo..hi] {
                let (label, fast) = self.label_into(x, &mut s)?;
                fast_hits += usize::from(fast);
                out.push(label);
            }
            Ok::<(Vec<u8>, usize), RuntimeError>((out, fast_hits))
        };
        let workers = parallelism.resolve().min(chunks.max(1));
        let per_chunk: Vec<std::result::Result<(Vec<u8>, usize), RuntimeError>> = if workers <= 1 {
            (0..chunks).map(run_chunk).collect()
        } else {
            WorkerPool::global().run_indexed(chunks, workers, run_chunk)
        };
        let mut predictions = Vec::with_capacity(samples.len());
        let mut fast_total = 0usize;
        for chunk in per_chunk {
            let (labels, fast_hits) = chunk?;
            predictions.extend(labels);
            fast_total += fast_hits;
        }
        let elapsed = batch_start.elapsed().as_secs_f64();
        vortex_obs::histogram!("runtime.batch_seconds").record(elapsed);
        vortex_obs::counter!("runtime.samples").add(samples.len() as u64);
        vortex_obs::counter!("runtime.fast_labels").add(fast_total as u64);
        vortex_obs::counter!("runtime.fast_fallbacks").add((predictions.len() - fast_total) as u64);
        if !samples.is_empty() && elapsed > 0.0 {
            vortex_obs::gauge!("runtime.samples_per_sec").set(samples.len() as f64 / elapsed);
        }
        Ok(predictions)
    }

    /// Predicted classes for every sample of a dataset, in sample order.
    ///
    /// # Errors
    ///
    /// See [`Self::infer_batch`].
    pub fn infer_dataset(&self, data: &Dataset, parallelism: Parallelism) -> Result<Vec<u8>> {
        let samples: Vec<&[f64]> = (0..data.len()).map(|i| data.image(i)).collect();
        self.infer_batch(&samples, parallelism)
    }

    /// Fraction of `data` classified correctly (0 for an empty dataset).
    ///
    /// # Errors
    ///
    /// See [`Self::infer_batch`].
    pub fn accuracy(&self, data: &Dataset) -> Result<f64> {
        self.accuracy_with(data, Parallelism::Serial)
    }

    /// [`Self::accuracy`] with an explicit executor configuration — the
    /// result is identical for every setting.
    ///
    /// # Errors
    ///
    /// See [`Self::infer_batch`].
    pub fn accuracy_with(&self, data: &Dataset, parallelism: Parallelism) -> Result<f64> {
        let predictions = self.infer_dataset(data, parallelism)?;
        Ok(vortex_nn::metrics::accuracy_of_predictions(
            &predictions,
            data,
        ))
    }
}

/// Routes a logical input onto the physical rows (unassigned rows get
/// zero drive), validating the length.
fn route(assignment: &[usize], physical_rows: usize, x: &[f64]) -> Result<Vec<f64>> {
    if x.len() != assignment.len() {
        return Err(RuntimeError::InvalidParameter {
            name: "calibration",
            requirement: "reference length must match the logical row count",
        });
    }
    let mut out = vec![0.0; physical_rows];
    for (p, &q) in assignment.iter().enumerate() {
        out[q] = x[p];
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use vortex_device::DeviceParams;
    use vortex_linalg::rng::Xoshiro256PlusPlus;
    use vortex_xbar::crossbar::CrossbarConfig;
    use vortex_xbar::pair::{DifferentialPair, ReadCircuit, WeightMapping};

    fn rng(seed: u64) -> Xoshiro256PlusPlus {
        Xoshiro256PlusPlus::seed_from_u64(seed)
    }

    fn programmed_pair(rows: usize, cols: usize, r_wire: f64, seed: u64) -> DifferentialPair {
        let device = DeviceParams::default();
        let config = CrossbarConfig {
            r_wire,
            ..CrossbarConfig::ideal(rows, cols, device)
        };
        let mapping = WeightMapping::new(&device, 1.0).unwrap();
        let mut pair = DifferentialPair::fabricate(config, mapping, &mut rng(seed)).unwrap();
        let w = Matrix::from_fn(rows, cols, |i, j| {
            ((i * cols + j) as f64 * 0.53).sin() * 0.8
        });
        pair.program_open_loop(&w, None, &mut rng(seed + 1))
            .unwrap();
        pair
    }

    fn identity(n: usize) -> Vec<usize> {
        (0..n).collect()
    }

    #[test]
    fn ideal_model_matches_live_read_bit_for_bit() {
        let pair = programmed_pair(6, 3, 0.0, 5);
        let model = CompiledModel::compile(
            &pair.freeze(),
            &identity(6),
            &ReadOptions::new(Fidelity::Ideal),
            None,
        )
        .unwrap();
        let x = [0.3, 0.0, 1.0, 0.7, 0.2, 0.9];
        let live = pair.read(&x, &ReadCircuit::Ideal, None).unwrap();
        let frozen = model.scores(&x).unwrap();
        for (a, b) in live.iter().zip(&frozen) {
            assert_eq!(a.to_bits(), b.to_bits(), "live {a} vs frozen {b}");
        }
    }

    #[test]
    fn calibrated_model_matches_live_fast_read_bit_for_bit() {
        let pair = programmed_pair(8, 3, 8.0, 9);
        let reference = vec![0.5; 8];
        let live_circuit = ReadCircuit::fast_for(&pair, &reference).unwrap();
        let model = CompiledModel::compile(
            &pair.freeze(),
            &identity(8),
            &ReadOptions::new(Fidelity::Calibrated),
            Some(&reference),
        )
        .unwrap();
        let x = [1.0, 0.0, 0.5, 0.25, 0.8, 0.0, 0.4, 1.0];
        let live = pair.read(&x, &live_circuit, None).unwrap();
        let frozen = model.scores(&x).unwrap();
        for (a, b) in live.iter().zip(&frozen) {
            assert_eq!(a.to_bits(), b.to_bits(), "live {a} vs frozen {b}");
        }
    }

    #[test]
    fn exact_model_matches_live_exact_read_bit_for_bit() {
        let pair = programmed_pair(5, 2, 12.0, 13);
        let model = CompiledModel::compile(
            &pair.freeze(),
            &identity(5),
            &ReadOptions::new(Fidelity::Exact),
            None,
        )
        .unwrap();
        let x = [0.9, 0.1, 0.0, 0.6, 0.3];
        let live = pair
            .read(&x, &ReadCircuit::exact_for(&pair).unwrap(), None)
            .unwrap();
        let frozen = model.scores(&x).unwrap();
        for (a, b) in live.iter().zip(&frozen) {
            assert_eq!(a.to_bits(), b.to_bits(), "live {a} vs frozen {b}");
        }
    }

    #[test]
    fn converters_apply_in_the_live_order() {
        let pair = programmed_pair(6, 3, 0.0, 21);
        let adc = Adc::new(6, 6.0 * DeviceParams::default().g_on()).unwrap();
        let dac = Dac::new(4, 1.0).unwrap();
        let options = ReadOptions {
            fidelity: Fidelity::Ideal,
            adc: Some(adc),
            dac: Some(dac),
        };
        let model = CompiledModel::compile(&pair.freeze(), &identity(6), &options, None).unwrap();
        let x = [0.31, 0.77, 0.0, 0.52, 0.93, 0.18];
        let routed = dac.convert_vec(&x);
        let live = pair.read(&routed, &ReadCircuit::Ideal, Some(&adc)).unwrap();
        let frozen = model.scores(&x).unwrap();
        for (a, b) in live.iter().zip(&frozen) {
            assert_eq!(a.to_bits(), b.to_bits(), "live {a} vs frozen {b}");
        }
    }

    #[test]
    fn routing_redirects_and_zero_fills() {
        let pair = programmed_pair(4, 2, 0.0, 33);
        // Logical 0 → physical 2, logical 1 → physical 0; rows 1 and 3 idle.
        let model = CompiledModel::compile(
            &pair.freeze(),
            &[2, 0],
            &ReadOptions::new(Fidelity::Ideal),
            None,
        )
        .unwrap();
        assert_eq!(model.logical_rows(), 2);
        let frozen = model.scores(&[0.4, 0.9]).unwrap();
        let live = pair
            .read(&[0.9, 0.0, 0.4, 0.0], &ReadCircuit::Ideal, None)
            .unwrap();
        for (a, b) in live.iter().zip(&frozen) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn batch_is_bit_exact_across_parallelism() {
        let pair = programmed_pair(8, 4, 0.0, 41);
        let model = CompiledModel::compile(
            &pair.freeze(),
            &identity(8),
            &ReadOptions::new(Fidelity::Ideal),
            None,
        )
        .unwrap();
        let inputs: Vec<Vec<f64>> = (0..101)
            .map(|k| {
                (0..8)
                    .map(|i| ((k * 8 + i) as f64 * 0.17).sin().abs())
                    .collect()
            })
            .collect();
        let samples: Vec<&[f64]> = inputs.iter().map(Vec::as_slice).collect();
        let serial = model.infer_batch(&samples, Parallelism::Serial).unwrap();
        assert_eq!(serial.len(), samples.len());
        for threads in [1, 2, 8] {
            let par = model
                .infer_batch(&samples, Parallelism::Fixed(threads))
                .unwrap();
            assert_eq!(serial, par, "{threads} threads changed predictions");
        }
    }

    #[test]
    fn compile_validates_inputs() {
        let pair = programmed_pair(4, 2, 0.0, 55);
        let state = pair.freeze();
        // Out-of-range physical row.
        assert!(
            CompiledModel::compile(&state, &[0, 9], &ReadOptions::new(Fidelity::Ideal), None)
                .is_err()
        );
        // Duplicate physical row.
        assert!(
            CompiledModel::compile(&state, &[1, 1], &ReadOptions::new(Fidelity::Ideal), None)
                .is_err()
        );
        // Calibrated without a reference.
        assert!(CompiledModel::compile(
            &state,
            &[0, 1, 2, 3],
            &ReadOptions::new(Fidelity::Calibrated),
            None
        )
        .is_err());
        // Wrong input length at inference time.
        let model = CompiledModel::compile(
            &state,
            &[0, 1, 2, 3],
            &ReadOptions::new(Fidelity::Ideal),
            None,
        )
        .unwrap();
        assert!(model.infer(&[1.0]).is_err());
    }

    #[test]
    fn canary_is_perfect_when_fresh_and_degrades_with_drift() {
        use vortex_device::drift::RetentionModel;
        let pair = programmed_pair(8, 4, 0.0, 91);
        let inputs: Vec<Vec<f64>> = (0..24)
            .map(|k| {
                (0..8)
                    .map(|i| ((k * 8 + i) as f64 * 0.29).sin().abs())
                    .collect()
            })
            .collect();
        let model = CompiledModel::compile(
            &pair.freeze(),
            &identity(8),
            &ReadOptions::new(Fidelity::Ideal),
            None,
        )
        .unwrap()
        .with_canary_inputs(inputs)
        .unwrap();
        // Golden answers come from this very model: perfect by construction.
        assert_eq!(model.canary_accuracy().unwrap(), 1.0);
        assert_eq!(model.canary().unwrap().len(), 24);

        // Severe asymmetric aging flips predictions; the canary notices.
        let retention = RetentionModel::new(0.6, 0.3, 1e-3).unwrap();
        let aged = model.age_with(&retention, 1e8, 7).unwrap();
        assert!(
            aged.canary_accuracy().unwrap() < 1.0,
            "aging went unnoticed"
        );
        // The original model is untouched.
        assert_eq!(model.canary_accuracy().unwrap(), 1.0);
        // Aging is bit-deterministic per seed.
        let again = model.age_with(&retention, 1e8, 7).unwrap();
        for (a, b) in aged.g_pos.as_slice().iter().zip(again.g_pos.as_slice()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn aged_validates_decay_matrices() {
        let pair = programmed_pair(4, 2, 0.0, 3);
        let model = CompiledModel::compile(
            &pair.freeze(),
            &identity(4),
            &ReadOptions::new(Fidelity::Ideal),
            None,
        )
        .unwrap();
        // The decay matrices `age_with` applies lie in (0, 1].
        let retention = RetentionModel::new(0.6, 0.3, 1e-3).unwrap();
        let (d_pos, d_neg) = DriftProcess::new(retention, 99).decay_matrices(4, 2, 1e6);
        for &v in d_pos.as_slice().iter().chain(d_neg.as_slice()) {
            assert!(v > 0.0 && v <= 1.0, "decay factor {v} outside (0, 1]");
        }
        // Decay matrices of the wrong shape are rejected on either crossbar.
        let ones = Matrix::from_fn(4, 2, |_, _| 1.0);
        let wrong_shape = Matrix::from_fn(3, 2, |_, _| 1.0);
        assert!(model.with_conductance_factors(&wrong_shape, &ones).is_err());
        assert!(model.with_conductance_factors(&ones, &wrong_shape).is_err());
        // Identity decay reproduces the model bit-for-bit.
        let same = model.with_conductance_factors(&ones, &ones).unwrap();
        let x = [0.3, 0.9, 0.1, 0.7];
        for (a, b) in model
            .scores(&x)
            .unwrap()
            .iter()
            .zip(&same.scores(&x).unwrap())
        {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn conductance_factors_generalize_aged() {
        let pair = programmed_pair(4, 2, 0.0, 3);
        let model = CompiledModel::compile(
            &pair.freeze(),
            &identity(4),
            &ReadOptions::new(Fidelity::Ideal),
            None,
        )
        .unwrap();
        // Factors above 1 are fine — a hot chip conducts more, it does
        // not "un-decay".
        let hot = Matrix::from_fn(4, 2, |_, _| 1.02);
        let ones = Matrix::from_fn(4, 2, |_, _| 1.0);
        let warmed = model.with_conductance_factors(&hot, &ones).unwrap();
        let x = [0.3, 0.9, 0.1, 0.7];
        let (base, warm) = (model.scores(&x).unwrap(), warmed.scores(&x).unwrap());
        assert!(warm[0] > base[0], "positive crossbar must conduct more");
        // Shape and domain are still validated.
        let wrong_shape = Matrix::from_fn(3, 2, |_, _| 1.0);
        assert!(model.with_conductance_factors(&wrong_shape, &ones).is_err());
        let zero = Matrix::from_fn(4, 2, |_, _| 0.0);
        assert!(model.with_conductance_factors(&zero, &ones).is_err());
        let nan = Matrix::from_fn(4, 2, |_, _| f64::NAN);
        assert!(model.with_conductance_factors(&ones, &nan).is_err());
    }

    #[test]
    fn age_with_process_is_the_age_with_path() {
        let pair = programmed_pair(4, 2, 0.0, 3);
        let model = CompiledModel::compile(
            &pair.freeze(),
            &identity(4),
            &ReadOptions::new(Fidelity::Ideal),
            None,
        )
        .unwrap();
        let retention = RetentionModel::new(0.6, 0.3, 1e-3).unwrap();
        let a = model.age_with(&retention, 1e6, 99).unwrap();
        let (d_pos, d_neg) = DriftProcess::new(retention, 99).decay_matrices(4, 2, 1e6);
        let b = model.with_conductance_factors(&d_pos, &d_neg).unwrap();
        for (x, y) in a.g_pos.as_slice().iter().zip(b.g_pos.as_slice()) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
        for (x, y) in a.g_neg.as_slice().iter().zip(b.g_neg.as_slice()) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
    }

    #[test]
    fn cell_faults_pin_devices_and_validate() {
        let pair = programmed_pair(4, 2, 0.0, 17);
        let model = CompiledModel::compile(
            &pair.freeze(),
            &identity(4),
            &ReadOptions::new(Fidelity::Ideal),
            None,
        )
        .unwrap();
        let faulted = model
            .with_cell_faults(&[CellFault {
                row: 1,
                col: 0,
                negative: false,
                conductance: 0.0,
            }])
            .unwrap();
        assert_eq!(faulted.g_pos[(1, 0)], 0.0);
        assert_eq!(faulted.g_neg[(1, 0)], model.g_neg[(1, 0)]);
        assert!(model
            .with_cell_faults(&[CellFault {
                row: 9,
                col: 0,
                negative: false,
                conductance: 0.0
            }])
            .is_err());
        assert!(model
            .with_cell_faults(&[CellFault {
                row: 0,
                col: 0,
                negative: true,
                conductance: -1.0
            }])
            .is_err());
    }

    #[test]
    fn canary_requires_consistent_probes() {
        let pair = programmed_pair(4, 2, 0.0, 23);
        let model = CompiledModel::compile(
            &pair.freeze(),
            &identity(4),
            &ReadOptions::new(Fidelity::Ideal),
            None,
        )
        .unwrap();
        assert!(model.canary().is_none());
        assert!(model.canary_accuracy().is_err());
        assert!(model.clone().with_canary_inputs(vec![]).is_err());
        assert!(model
            .clone()
            .with_canary_inputs(vec![vec![0.5; 3]])
            .is_err());
        assert!(CanarySet::new(vec![vec![0.5; 4]], vec![0, 1]).is_err());
        assert!(CanarySet::new(vec![vec![f64::NAN; 4]], vec![0]).is_err());
    }

    #[test]
    fn realized_weights_round_trip() {
        let pair = programmed_pair(5, 3, 0.0, 77);
        let model = CompiledModel::compile(
            &pair.freeze(),
            &identity(5),
            &ReadOptions::new(Fidelity::Ideal),
            None,
        )
        .unwrap();
        let a = pair.realized_weights();
        let b = model.realized_weights();
        for (x, y) in a.as_slice().iter().zip(b.as_slice()) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
    }
}
