//! Weight→conductance encodings (§2.2.1 generalized).
//!
//! The paper programs every weight onto a differential pair through one
//! global affine transfer — an *analog* encoding with a single scale.
//! [`EncodingSpec`] makes the encoding a compile-time choice, and
//! [`EncodingSpec::encode`] is the one step that turns routed weights into
//! programming targets:
//!
//! * [`EncodingSpec::DifferentialPair`] — the paper's behaviour,
//!   bit-for-bit: targets come straight from
//!   [`WeightMapping::weights_to_targets`].
//! * [`EncodingSpec::MultiLevelCell`] — quantizes every conductance
//!   target to one of `2^bits` uniform levels (endpoints included, so the
//!   `g_min` baseline of a zero weight stays exactly representable),
//!   modelling an MLC program-verify write at a configurable resolution.
//! * [`EncodingSpec::AdaptiveRowQuant`] — per-row level selection driven
//!   by the AMP sensitivity metric `|x·w|`: only the most output-critical
//!   rows get fine quantization, the rest are written coarsely at a lower
//!   pulse cost.
//!
//! Every encoding returns an [`EncodingTable`] — the per-physical-row
//! level counts actually used — which travels with the compiled model into
//! the on-disk artifact (format v3) and prices the programming effort via
//! [`EncodingTable::programming_pulses`].

use serde::{Deserialize, Serialize};
use vortex_linalg::Matrix;

use crate::pair::WeightMapping;
use crate::{Result, XbarError};

/// Snaps a conductance to the nearest of `levels` uniform points spanning
/// `[g_min, g_max]` inclusive.
///
/// The grid includes both endpoints (`level_k = g_min + k·Δ` with
/// `Δ = (g_max − g_min)/(levels − 1)`), so the zero-weight baseline
/// `g_min` survives quantization exactly at any level count. Inputs
/// outside the window clamp first. `levels == 0` (the continuous/analog
/// sentinel used by [`EncodingTable`]) and `levels == 1` return the input
/// clamped but unquantized.
pub fn quantize_to_levels(g: f64, g_min: f64, g_max: f64, levels: u16) -> f64 {
    let g = g.clamp(g_min, g_max);
    if levels < 2 || g_max <= g_min {
        return g;
    }
    let step = (g_max - g_min) / f64::from(levels - 1);
    let k = ((g - g_min) / step).round();
    g_min + k * step
}

/// Identifies which [`EncodingSpec`] variant produced a table; stored as
/// a single byte in the artifact's `ENCT` section.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum EncodingScheme {
    /// Continuous differential-pair targets (the paper's encoding).
    Differential,
    /// Fixed multi-level-cell quantization, same level count on each row.
    MultiLevel,
    /// Sensitivity-driven per-row level selection.
    AdaptiveRow,
}

impl EncodingScheme {
    /// Wire code used by the artifact codec.
    pub fn code(self) -> u8 {
        match self {
            EncodingScheme::Differential => 0,
            EncodingScheme::MultiLevel => 1,
            EncodingScheme::AdaptiveRow => 2,
        }
    }

    /// Inverse of [`Self::code`]; `None` for unknown codes.
    pub fn from_code(code: u8) -> Option<Self> {
        match code {
            0 => Some(EncodingScheme::Differential),
            1 => Some(EncodingScheme::MultiLevel),
            2 => Some(EncodingScheme::AdaptiveRow),
            _ => None,
        }
    }
}

/// Per-physical-row record of how a compiled model's weights were encoded.
///
/// `levels[q]` is the number of discrete conductance levels used on
/// physical row `q`; `0` marks a continuous (analog differential) row.
/// The table is persisted in artifact format v3 so a reloaded model still
/// knows its own programming cost and resolution.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct EncodingTable {
    scheme: EncodingScheme,
    levels: Vec<u16>,
}

impl EncodingTable {
    /// Level counts must be `0` (continuous) or at least 2; a 1-level row
    /// could only store a constant.
    pub fn new(scheme: EncodingScheme, levels: Vec<u16>) -> Result<Self> {
        if levels.contains(&1) {
            return Err(XbarError::InvalidParameter {
                name: "levels",
                requirement: "each row must use 0 (continuous) or >= 2 levels",
            });
        }
        Ok(Self { scheme, levels })
    }

    /// The all-continuous table the paper's encoding produces — also what
    /// pre-v3 artifacts decode to.
    pub fn differential(rows: usize) -> Self {
        Self {
            scheme: EncodingScheme::Differential,
            levels: vec![0; rows],
        }
    }

    /// Which encoding produced this table.
    pub fn scheme(&self) -> EncodingScheme {
        self.scheme
    }

    /// Number of physical rows covered.
    pub fn rows(&self) -> usize {
        self.levels.len()
    }

    /// Per-row level counts (`0` = continuous).
    pub fn levels(&self) -> &[u16] {
        &self.levels
    }

    /// Bits needed to address `levels` states (`ceil(log2)`); rows are
    /// written with one program-verify pulse per bit.
    pub fn bits_for(levels: u16) -> u32 {
        debug_assert!(levels >= 2);
        16 - (levels - 1).leading_zeros()
    }

    /// Mean per-row resolution in bits. Continuous rows have no finite
    /// bit count, so any table containing one reports `f64::INFINITY`
    /// (render as "analog").
    pub fn effective_bits(&self) -> f64 {
        if self.levels.is_empty() {
            return 0.0;
        }
        let mut sum = 0.0;
        for &l in &self.levels {
            if l == 0 {
                return f64::INFINITY;
            }
            sum += f64::from(Self::bits_for(l));
        }
        sum / self.levels.len() as f64
    }

    /// Programming-pulse slots for one device on a row with `levels`
    /// states: a global reset plus either one pre-calculated SET
    /// (continuous row, the paper's open-loop write) or one
    /// successive-approximation pulse per bit.
    pub fn pulses_per_device(levels: u16) -> u64 {
        if levels == 0 {
            2
        } else {
            1 + u64::from(Self::bits_for(levels))
        }
    }

    /// Total programming-pulse slots to write a `rows × cols` weight
    /// matrix under this table — both crossbars of the differential pair.
    pub fn programming_pulses(&self, cols: usize) -> u64 {
        self.levels
            .iter()
            .map(|&l| Self::pulses_per_device(l) * cols as u64 * 2)
            .sum()
    }
}

/// Targets produced by an encoding: conductance matrices for the two
/// crossbars plus the per-row table describing how they were discretized.
#[derive(Debug, Clone)]
pub struct EncodedTargets {
    /// Target conductances for the positive crossbar.
    pub pos: Matrix,
    /// Target conductances for the negative crossbar.
    pub neg: Matrix,
    /// Per-row level counts used.
    pub table: EncodingTable,
}

/// Plain-data description of an encoding choice — what travels in compile
/// options, environments, and bench configs. [`EncodingSpec::encode`]
/// turns routed weights into programming targets under it.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub enum EncodingSpec {
    /// The paper's continuous differential-pair encoding (default).
    #[default]
    DifferentialPair,
    /// Fixed multi-level-cell quantization.
    MultiLevelCell {
        /// Bits per cell (`2^bits` levels), in `1..=12`.
        bits: u8,
    },
    /// Sensitivity-driven per-row level selection.
    AdaptiveRowQuant {
        /// Bits for insensitive rows, in `1..=12`.
        low_bits: u8,
        /// Bits for sensitive rows, `>= low_bits`, in `1..=12`.
        high_bits: u8,
        /// Share of rows written at `high_bits`, in `[0, 1]`.
        fine_fraction: f64,
    },
}

impl EncodingSpec {
    /// Encodes a physical weight matrix (already routed to crossbar rows)
    /// into per-crossbar conductance targets plus the per-row table of
    /// levels used. Deterministic — no RNG — so the Monte-Carlo
    /// determinism harness sees no extra stream consumption.
    ///
    /// `row_sensitivity[q]` is the AMP sensitivity `|x̄·w|` of physical
    /// row `q` (mean absolute input times the row's L1 weight mass). Only
    /// [`Self::AdaptiveRowQuant`] reads it; without it, that encoding
    /// ranks rows by weight mass alone (the `x̄ = 1` case of the metric).
    /// Ties break on the lower row index.
    ///
    /// # Errors
    ///
    /// [`XbarError::InvalidParameter`] for `bits` outside `1..=12`,
    /// `low_bits > high_bits` or `fine_fraction` outside `[0, 1]`;
    /// [`XbarError::ShapeMismatch`] when the adaptive encoding is given a
    /// sensitivity whose length is not the row count.
    ///
    /// # Example
    ///
    /// ```
    /// use vortex_device::DeviceParams;
    /// use vortex_linalg::Matrix;
    /// use vortex_xbar::encoding::EncodingSpec;
    /// use vortex_xbar::pair::WeightMapping;
    ///
    /// # fn main() -> Result<(), vortex_xbar::XbarError> {
    /// let mapping = WeightMapping::new(&DeviceParams::default(), 1.0)?;
    /// let weights = Matrix::from_rows(&[vec![0.8, -0.2], vec![0.1, -0.9]]);
    /// let encoded = EncodingSpec::MultiLevelCell { bits: 4 }.encode(&weights, &mapping, None)?;
    /// assert_eq!(encoded.table.rows(), 2);
    /// assert_eq!(encoded.table.levels(), &[16, 16]);
    /// # Ok(())
    /// # }
    /// ```
    pub fn encode(
        &self,
        weights: &Matrix,
        mapping: &WeightMapping,
        row_sensitivity: Option<&[f64]>,
    ) -> Result<EncodedTargets> {
        let rows = weights.rows();
        let quantized = match *self {
            EncodingSpec::DifferentialPair => None,
            EncodingSpec::MultiLevelCell { bits } => {
                check_bits(bits)?;
                Some((EncodingScheme::MultiLevel, vec![1u16 << bits; rows]))
            }
            EncodingSpec::AdaptiveRowQuant {
                low_bits,
                high_bits,
                fine_fraction,
            } => {
                check_bits(low_bits)?;
                check_bits(high_bits)?;
                if low_bits > high_bits {
                    return Err(XbarError::InvalidParameter {
                        name: "low_bits",
                        requirement: "must not exceed high_bits",
                    });
                }
                if !(0.0..=1.0).contains(&fine_fraction) {
                    return Err(XbarError::InvalidParameter {
                        name: "fine_fraction",
                        requirement: "must be in [0, 1]",
                    });
                }
                let sensitivity: Vec<f64> = match row_sensitivity {
                    Some(s) if s.len() != rows => {
                        return Err(XbarError::ShapeMismatch {
                            context: "adaptive row sensitivity",
                            expected: rows,
                            actual: s.len(),
                        })
                    }
                    Some(s) => s.to_vec(),
                    None => (0..rows)
                        .map(|q| weights.row(q).iter().map(|w| w.abs()).sum())
                        .collect(),
                };
                let mut levels = vec![1u16 << low_bits; rows];
                for q in fine_rows(&sensitivity, fine_fraction) {
                    levels[q] = 1 << high_bits;
                }
                Some((EncodingScheme::AdaptiveRow, levels))
            }
        };
        let (mut pos, mut neg) = mapping.weights_to_targets(weights);
        let Some((scheme, levels)) = quantized else {
            return Ok(EncodedTargets {
                pos,
                neg,
                table: EncodingTable::differential(rows),
            });
        };
        let (g_min, g_max) = (mapping.g_min(), mapping.g_max());
        for (q, &l) in levels.iter().enumerate() {
            for g in pos.row_mut(q) {
                *g = quantize_to_levels(*g, g_min, g_max, l);
            }
            for g in neg.row_mut(q) {
                *g = quantize_to_levels(*g, g_min, g_max, l);
            }
        }
        Ok(EncodedTargets {
            pos,
            neg,
            table: EncodingTable::new(scheme, levels)?,
        })
    }
}

/// Bits per cell must lie in `1..=12` (4096 levels is already beyond any
/// demonstrated MLC device).
fn check_bits(bits: u8) -> Result<()> {
    if (1..=12).contains(&bits) {
        Ok(())
    } else {
        Err(XbarError::InvalidParameter {
            name: "bits",
            requirement: "must be in 1..=12",
        })
    }
}

/// Indices of the `fine_fraction` most sensitive rows (rounded to
/// nearest), by descending sensitivity with index tie-break.
fn fine_rows(sensitivity: &[f64], fine_fraction: f64) -> Vec<usize> {
    let n_fine = (fine_fraction * sensitivity.len() as f64).round() as usize;
    let n_fine = n_fine.min(sensitivity.len());
    let mut order: Vec<usize> = (0..sensitivity.len()).collect();
    order.sort_by(|&a, &b| {
        sensitivity[b]
            .partial_cmp(&sensitivity[a])
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(a.cmp(&b))
    });
    order.truncate(n_fine);
    order
}

#[cfg(test)]
mod tests {
    use super::*;
    use vortex_device::DeviceParams;

    fn mapping() -> WeightMapping {
        WeightMapping::new(&DeviceParams::default(), 1.0).unwrap()
    }

    fn weights() -> Matrix {
        Matrix::from_rows(&[
            vec![0.9, -0.1, 0.0],
            vec![0.05, -0.02, 0.01],
            vec![-0.7, 0.6, -0.5],
            vec![0.2, 0.0, -0.2],
        ])
    }

    #[test]
    fn differential_encoding_matches_legacy_targets_bitwise() {
        let m = mapping();
        let w = weights();
        let enc = EncodingSpec::DifferentialPair.encode(&w, &m, None).unwrap();
        let (pos, neg) = m.weights_to_targets(&w);
        assert_eq!(enc.pos.as_slice(), pos.as_slice());
        assert_eq!(enc.neg.as_slice(), neg.as_slice());
        assert_eq!(enc.table, EncodingTable::differential(4));
        assert!(enc.table.effective_bits().is_infinite());
    }

    #[test]
    fn mlc_snaps_to_grid_and_keeps_zero_exact() {
        let m = mapping();
        let w = weights();
        let enc = EncodingSpec::MultiLevelCell { bits: 3 }
            .encode(&w, &m, None)
            .unwrap();
        let step = (m.g_max() - m.g_min()) / 7.0;
        for &g in enc.pos.as_slice().iter().chain(enc.neg.as_slice()) {
            let k = (g - m.g_min()) / step;
            assert!((k - k.round()).abs() < 1e-9, "off-grid target {g:e}");
        }
        // Zero weight → baseline on both sides, exactly.
        assert_eq!(enc.pos[(0, 2)], m.g_min());
        assert_eq!(enc.neg[(0, 2)], m.g_min());
        assert_eq!(enc.table.effective_bits(), 3.0);
    }

    #[test]
    fn quantizer_is_idempotent_and_monotone_on_a_sweep() {
        let (g_min, g_max) = (1e-6, 1e-4);
        let mut last = -1.0;
        for k in 0..=100 {
            let g = g_min + (g_max - g_min) * f64::from(k) / 100.0;
            let q = quantize_to_levels(g, g_min, g_max, 16);
            assert_eq!(quantize_to_levels(q, g_min, g_max, 16), q);
            assert!(q >= last);
            last = q;
        }
    }

    #[test]
    fn adaptive_gives_fine_levels_to_sensitive_rows() {
        let m = mapping();
        let w = weights();
        // Row 2 has the largest L1 mass, row 0 second; fraction 0.5 of 4
        // rows = 2 fine rows.
        let spec = adaptive(2, 6, 0.5);
        let enc = spec.encode(&w, &m, None).unwrap();
        assert_eq!(enc.table.levels(), &[64, 4, 64, 4]);
        // Explicit sensitivity overrides the weight-mass fallback.
        let enc = spec.encode(&w, &m, Some(&[0.0, 9.0, 0.1, 8.0])).unwrap();
        assert_eq!(enc.table.levels(), &[4, 64, 4, 64]);
    }

    #[test]
    fn adaptive_rejects_mismatched_sensitivity() {
        let err = adaptive(2, 6, 0.5)
            .encode(&weights(), &mapping(), Some(&[1.0; 3]))
            .unwrap_err();
        assert!(matches!(
            err,
            XbarError::ShapeMismatch {
                context: "adaptive row sensitivity",
                expected: 4,
                actual: 3,
            }
        ));
    }

    fn adaptive(low_bits: u8, high_bits: u8, fine_fraction: f64) -> EncodingSpec {
        EncodingSpec::AdaptiveRowQuant {
            low_bits,
            high_bits,
            fine_fraction,
        }
    }

    #[test]
    fn spec_validation() {
        let rejected = |spec: EncodingSpec| match spec.encode(&weights(), &mapping(), None) {
            Err(XbarError::InvalidParameter { name, .. }) => name,
            other => panic!("{spec:?} accepted: {other:?}"),
        };
        assert_eq!(rejected(EncodingSpec::MultiLevelCell { bits: 0 }), "bits");
        assert_eq!(rejected(EncodingSpec::MultiLevelCell { bits: 13 }), "bits");
        assert_eq!(rejected(adaptive(0, 6, 0.5)), "bits");
        assert_eq!(rejected(adaptive(2, 13, 0.5)), "bits");
        assert_eq!(rejected(adaptive(6, 2, 0.5)), "low_bits");
        assert_eq!(rejected(adaptive(2, 6, 1.5)), "fine_fraction");
        assert_eq!(rejected(adaptive(2, 6, -0.1)), "fine_fraction");
        // Validation precedes the sensitivity shape check.
        let err = adaptive(6, 2, 0.5)
            .encode(&weights(), &mapping(), Some(&[1.0; 3]))
            .unwrap_err();
        assert!(matches!(
            err,
            XbarError::InvalidParameter {
                name: "low_bits",
                ..
            }
        ));
    }

    /// FNV-1a over the bit patterns of both target matrices.
    fn targets_hash(enc: &EncodedTargets) -> u64 {
        let bytes = enc.pos.as_slice().iter().chain(enc.neg.as_slice());
        bytes.fold(0xcbf2_9ce4_8422_2325, |h, v| {
            v.to_bits().to_le_bytes().iter().fold(h, |h, &b| {
                (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
            })
        })
    }

    /// The targets and tables of every spec, bit for bit, on a fixed
    /// weight matrix with explicit row sensitivity.
    #[test]
    fn encoded_targets_are_pinned() {
        let m = mapping();
        let w = Matrix::from_fn(6, 4, |i, j| ((i * 4 + j) as f64 * 0.71).sin() * 0.9);
        let sens = [0.3, 0.1, 0.9, 0.2, 0.8, 0.05];
        let got = [
            EncodingSpec::DifferentialPair,
            EncodingSpec::MultiLevelCell { bits: 3 },
            adaptive(2, 5, 0.5),
        ]
        .map(|spec| {
            let enc = spec.encode(&w, &m, Some(&sens)).unwrap();
            (targets_hash(&enc), enc.table.levels().to_vec())
        });
        assert_eq!(
            got,
            [
                (0xb551_a7ea_9f6b_5250, vec![0; 6]),
                (0xd7e8_4ecc_9438_70b9, vec![8; 6]),
                (0x9908_1576_a264_b39b, vec![32, 4, 32, 4, 32, 4]),
            ],
            "encoded targets moved"
        );
    }

    #[test]
    fn equal_budget_construction_holds_for_even_rows() {
        // low=2 / high=6 at fraction 1/2 prices identically to fixed 4-bit
        // whenever the row count is even: (3 + 7)/2 = 5 slots per device.
        let fixed = EncodingTable::new(EncodingScheme::MultiLevel, vec![16; 8]).unwrap();
        let mut mixed = vec![4u16; 4];
        mixed.extend_from_slice(&[64; 4]);
        let adaptive = EncodingTable::new(EncodingScheme::AdaptiveRow, mixed).unwrap();
        assert_eq!(
            fixed.programming_pulses(10),
            adaptive.programming_pulses(10)
        );
    }

    #[test]
    fn scheme_codes_round_trip() {
        for s in [
            EncodingScheme::Differential,
            EncodingScheme::MultiLevel,
            EncodingScheme::AdaptiveRow,
        ] {
            assert_eq!(EncodingScheme::from_code(s.code()), Some(s));
        }
        assert_eq!(EncodingScheme::from_code(7), None);
    }

    #[test]
    fn table_rejects_single_level_rows() {
        assert!(EncodingTable::new(EncodingScheme::MultiLevel, vec![1, 4]).is_err());
    }
}
