//! IR-drop models: fast analytic approximations and the paper's β/D
//! decomposition (§3.2).
//!
//! The exact mesh solve ([`crate::circuit::NodalAnalysis`]) costs one
//! sparse solve per bias condition; programming a whole `m × n` array that
//! way costs `m·n` solves. This module provides:
//!
//! * [`ProgramVoltageMap`] — per-cell programming-voltage degradation
//!   factors, computed either exactly (small arrays / validation) or with
//!   a lumped analytic model (large arrays).
//! * [`ComputeAttenuationMap`] — a rank-1 "calibrated attenuation"
//!   approximation of compute-mode IR-drop: one exact solve on a reference
//!   input yields per-cell factors reused for every sample.
//! * [`decompose_beta_d`] — the paper's decomposition of the degradation
//!   trend into a horizontal per-column factor β and a vertical diagonal
//!   matrix `D`, plus the switching-domain update-rate profile whose
//!   skewness drives CLD's failure on large arrays.

use vortex_device::DeviceParams;
use vortex_linalg::Matrix;

use crate::circuit::NodalAnalysis;
use crate::{Result, XbarError};

/// Per-cell programming-voltage degradation: the selected cell `(i, j)`
/// actually sees `factor(i, j) · v_program` across its terminals.
#[derive(Debug, Clone, PartialEq)]
pub struct ProgramVoltageMap {
    factors: Matrix,
}

impl ProgramVoltageMap {
    /// The no-degradation map (ideal wires).
    pub fn none(rows: usize, cols: usize) -> Self {
        Self {
            factors: Matrix::filled(rows, cols, 1.0),
        }
    }

    /// Builds the map from a raw factor matrix (values clamped to
    /// `[0, 1]`).
    pub fn from_factors(factors: Matrix) -> Self {
        Self {
            factors: factors.map(|f| f.clamp(0.0, 1.0)),
        }
    }

    /// Exact map: one full mesh solve per cell. Accurate but `O(m·n)`
    /// solves — use for small arrays and for validating the analytic
    /// model.
    ///
    /// # Errors
    ///
    /// Propagates solver errors.
    pub fn from_exact(na: &NodalAnalysis, g: &Matrix, v_program: f64) -> Result<Self> {
        let (m, n) = (na.rows(), na.cols());
        let mut factors = Matrix::zeros(m, n);
        for i in 0..m {
            for j in 0..n {
                let bias = na.program_bias(g, (i, j), v_program)?;
                factors[(i, j)] = (bias[(i, j)] / v_program).clamp(0.0, 1.0);
            }
        }
        Ok(Self { factors })
    }

    /// Transmission-line analytic map.
    ///
    /// During programming of cell `(p, q)`, every half-selected cell
    /// injects leakage into the shared wires; treating each wire as a
    /// resistive line with distributed conductance (per-segment mean of
    /// the wire's devices) gives closed-form node-voltage profiles with
    /// characteristic length `λ = 1/sqrt(r_wire·ḡ)`:
    ///
    /// * **column `q`** (grounded at the bottom): the column spine rises
    ///   from 0 at ground towards the half-select level `V/2` with depth,
    ///   `u(d) = (V/2)·(1 − cosh((L−d)/λ)/cosh(L/λ))` for `d` segments
    ///   above ground;
    /// * **row `p`** (driven at `V` on the left, open right end): the row
    ///   voltage relaxes from `V` towards `V/2`,
    ///   `v(s) = V/2 + (V/2)·cosh((L−s)/λ)/cosh(L/λ)`.
    ///
    /// The selected device sees `v(q) − u(m−p)`, minus the series drop of
    /// its own programming current over its `q+1 + (m−p)` path segments
    /// (a divider term). Validated against the exact mesh solve to a few
    /// percent up to 784×10 (see `tests/crossbar_physics.rs` and the
    /// Fig. 3 exact-check column).
    ///
    /// # Errors
    ///
    /// Returns [`XbarError::InvalidParameter`] for a negative wire
    /// resistance or non-positive programming voltage.
    pub fn analytic(g: &Matrix, r_wire: f64, v_program: f64) -> Result<Self> {
        if !(r_wire.is_finite() && r_wire >= 0.0) {
            return Err(XbarError::InvalidParameter {
                name: "r_wire",
                requirement: "must be finite and non-negative",
            });
        }
        if !(v_program.is_finite() && v_program > 0.0) {
            return Err(XbarError::InvalidParameter {
                name: "v_program",
                requirement: "must be finite and positive",
            });
        }
        let (m, n) = g.shape();
        if r_wire == 0.0 {
            return Ok(Self {
                factors: Matrix::filled(m, n, 1.0),
            });
        }
        // Per-wire mean conductances (the distributed line loading).
        let row_mean: Vec<f64> = (0..m)
            .map(|i| (0..n).map(|j| g[(i, j)]).sum::<f64>() / n as f64)
            .collect();
        let col_mean: Vec<f64> = (0..n)
            .map(|j| (0..m).map(|i| g[(i, j)]).sum::<f64>() / m as f64)
            .collect();
        // cosh-ratio with overflow protection: for large arguments
        // cosh(a)/cosh(b) = e^{a−b} to double precision.
        let cosh_ratio = |a: f64, b: f64| -> f64 {
            if b > 30.0 {
                (a - b).exp()
            } else {
                a.cosh() / b.cosh()
            }
        };
        let half = v_program / 2.0;
        let mut factors = Matrix::zeros(m, n);
        for p in 0..m {
            let lambda_row = 1.0 / (r_wire * row_mean[p].max(1e-15)).sqrt();
            for q in 0..n {
                let lambda_col = 1.0 / (r_wire * col_mean[q].max(1e-15)).sqrt();
                // Row node voltage at the selected column (driver at V,
                // open far end).
                let s = (q + 1) as f64;
                let l_row = n as f64;
                let v_row = half + half * cosh_ratio((l_row - s) / lambda_row, l_row / lambda_row);
                // Column spine voltage at the selected row (ground at the
                // bottom, open top).
                let d = (m - p) as f64;
                let l_col = m as f64;
                let u_col = half * (1.0 - cosh_ratio((l_col - d) / lambda_col, l_col / lambda_col));
                // Series drop of the selected device's own current over
                // its path (divider form).
                let r_path = r_wire * (s + d);
                let r_dev = 1.0 / g[(p, q)].max(1e-12);
                let divider = r_dev / (r_path + r_dev);
                let v_dev = (v_row - u_col) * divider;
                factors[(p, q)] = (v_dev / v_program).clamp(0.0, 1.0);
            }
        }
        Ok(Self { factors })
    }

    /// Degradation factor of cell `(i, j)` in `[0, 1]`.
    ///
    /// # Panics
    ///
    /// Panics if out of bounds.
    pub fn factor(&self, i: usize, j: usize) -> f64 {
        self.factors[(i, j)]
    }

    /// The full factor matrix.
    pub fn factors(&self) -> &Matrix {
        &self.factors
    }

    /// Worst (smallest) factor over the array.
    pub fn worst_factor(&self) -> f64 {
        self.factors
            .as_slice()
            .iter()
            .copied()
            .fold(1.0_f64, f64::min)
    }
}

/// Rank-1 calibrated compute-mode attenuation: `y_j ≈ Σ_i x_i·g_ij·a_ij`.
///
/// Calibrated with one exact mesh solve on a reference input; the per-cell
/// attenuation `a_ij = V_device(i,j) / x_ref_i` is then reused for every
/// sample. Exact for inputs proportional to the reference; a controlled
/// approximation otherwise, bounded against the exact mesh by the
/// `attenuation_map_is_reasonable_off_reference` unit test and
/// `tests/crossbar_physics.rs::attenuation_model_validated_against_exact_mesh`.
#[derive(Debug, Clone, PartialEq)]
pub struct ComputeAttenuationMap {
    attenuation: Matrix,
}

impl ComputeAttenuationMap {
    /// No attenuation (ideal wires).
    pub fn none(rows: usize, cols: usize) -> Self {
        Self {
            attenuation: Matrix::filled(rows, cols, 1.0),
        }
    }

    /// Calibrates the map with one exact solve on `reference_input`
    /// (entries of zero fall back to attenuation 1).
    ///
    /// # Errors
    ///
    /// Propagates solver/shape errors.
    pub fn calibrate(na: &NodalAnalysis, g: &Matrix, reference_input: &[f64]) -> Result<Self> {
        let sol = na.compute(g, reference_input)?;
        let attenuation = Matrix::from_fn(na.rows(), na.cols(), |i, j| {
            let xi = reference_input[i];
            if xi.abs() < 1e-12 {
                1.0
            } else {
                (sol.device_voltages[(i, j)] / xi).clamp(0.0, 1.0)
            }
        });
        Ok(Self { attenuation })
    }

    /// Attenuation factor of cell `(i, j)`.
    ///
    /// # Panics
    ///
    /// Panics if out of bounds.
    pub fn factor(&self, i: usize, j: usize) -> f64 {
        self.attenuation[(i, j)]
    }

    /// The full per-cell attenuation matrix.
    pub fn attenuation(&self) -> &Matrix {
        &self.attenuation
    }

    /// Rebuilds a map from a raw attenuation matrix (values clamped to
    /// `[0, 1]`), e.g. one thawed from a persisted artifact.
    pub fn from_attenuation(attenuation: Matrix) -> Self {
        Self {
            attenuation: attenuation.map(|a| a.clamp(0.0, 1.0)),
        }
    }

    /// Effective conductance matrix `g_ij·a_ij` to use with the ideal MVM.
    pub fn effective_conductances(&self, g: &Matrix) -> Matrix {
        g.hadamard(&self.attenuation)
    }

    /// Approximate compute-mode read using the calibrated attenuation.
    ///
    /// # Panics
    ///
    /// Panics if `x.len()` differs from the calibrated row count.
    pub fn compute(&self, g: &Matrix, x: &[f64]) -> Vec<f64> {
        self.effective_conductances(g).vecmat(x)
    }
}

/// Decomposes a programming-voltage degradation map into the paper's
/// horizontal per-column factors `β_j` and vertical profile `d_i`
/// (Eq. (2)): `factor(i, j) ≈ β_j · d_i`, with `d` normalized to
/// `max(d) = 1`.
pub fn decompose_beta_d(map: &ProgramVoltageMap) -> (Vec<f64>, Vec<f64>) {
    let f = map.factors();
    let (m, n) = f.shape();
    // Vertical profile: mean over columns, normalized to max 1.
    let mut d: Vec<f64> = (0..m)
        .map(|i| (0..n).map(|j| f[(i, j)]).sum::<f64>() / n as f64)
        .collect();
    let dmax = d.iter().copied().fold(f64::MIN, f64::max).max(1e-12);
    for di in &mut d {
        *di /= dmax;
    }
    // Horizontal factor per column: least-squares fit of column j against d.
    let d_norm2: f64 = d.iter().map(|v| v * v).sum();
    let beta: Vec<f64> = (0..n)
        .map(|j| {
            let num: f64 = (0..m).map(|i| f[(i, j)] * d[i]).sum();
            num / d_norm2.max(1e-12)
        })
        .collect();
    (beta, d)
}

/// Switching-domain update-rate profile of one column: for each row, the
/// relative state-movement rate achieved when the programming voltage is
/// degraded by the map — `drive(v·factor) / drive(v)`.
///
/// This is the diagonal of the paper's `D` matrix as it enters the GDT
/// update (Eq. (2)); the sinh switching nonlinearity makes its skewness far
/// larger than the voltage skewness (§3.2's "Δw₁ⱼ < Δwₙⱼ/1000" effect).
pub fn update_rate_profile(map: &ProgramVoltageMap, params: &DeviceParams, col: usize) -> Vec<f64> {
    let v = params.v_program();
    let base = vortex_device::switching::drive(params, v).max(1e-300);
    (0..map.factors().rows())
        .map(|i| vortex_device::switching::drive(params, v * map.factor(i, col)) / base)
        .collect()
}

/// Skewness of a profile: `max / min` (∞ if the minimum is 0).
pub fn skewness(profile: &[f64]) -> f64 {
    let mx = profile.iter().copied().fold(f64::MIN, f64::max);
    let mn = profile.iter().copied().fold(f64::MAX, f64::min);
    if mn <= 0.0 {
        f64::INFINITY
    } else {
        mx / mn
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn all_lrs(m: usize, n: usize) -> Matrix {
        Matrix::filled(m, n, 1e-4)
    }

    #[test]
    fn none_maps_are_unity() {
        let p = ProgramVoltageMap::none(3, 4);
        assert_eq!(p.factor(2, 3), 1.0);
        assert_eq!(p.worst_factor(), 1.0);
        let c = ComputeAttenuationMap::none(3, 4);
        assert_eq!(c.factor(0, 0), 1.0);
    }

    #[test]
    fn exact_map_worst_cell_is_far_corner() {
        let na = NodalAnalysis::new(8, 6, 5.0).unwrap();
        let g = all_lrs(8, 6);
        let map = ProgramVoltageMap::from_exact(&na, &g, 2.8).unwrap();
        // Far corner (top-right: row 0, last column) is worst; near corner
        // (bottom-left) is best.
        let far = map.factor(0, 5);
        let near = map.factor(7, 0);
        assert!(far < near, "far {far} near {near}");
        assert!((map.worst_factor() - far).abs() < 1e-12);
    }

    #[test]
    fn analytic_map_tracks_exact_shape() {
        let m = 10;
        let n = 6;
        let g = all_lrs(m, n);
        let na = NodalAnalysis::new(m, n, 2.5).unwrap();
        let exact = ProgramVoltageMap::from_exact(&na, &g, 2.8).unwrap();
        let approx = ProgramVoltageMap::analytic(&g, 2.5, 2.8).unwrap();
        // Same ordering of corners and ≤ 10 % absolute error per cell for
        // this mild case.
        for i in 0..m {
            for j in 0..n {
                let e = exact.factor(i, j);
                let a = approx.factor(i, j);
                assert!((e - a).abs() < 0.1, "cell ({i},{j}): exact {e} approx {a}");
            }
        }
        assert!(approx.factor(0, n - 1) < approx.factor(m - 1, 0));
    }

    #[test]
    fn attenuation_map_reproduces_reference_solution() {
        let na = NodalAnalysis::new(6, 4, 10.0).unwrap();
        let g = all_lrs(6, 4);
        let x = vec![1.0; 6];
        let map = ComputeAttenuationMap::calibrate(&na, &g, &x).unwrap();
        let exact = na.compute(&g, &x).unwrap().column_currents;
        let approx = map.compute(&g, &x);
        for (a, e) in approx.iter().zip(&exact) {
            assert!((a - e).abs() / e < 0.02, "approx {a} exact {e}");
        }
    }

    #[test]
    fn attenuation_map_is_reasonable_off_reference() {
        let na = NodalAnalysis::new(8, 4, 5.0).unwrap();
        let g = Matrix::from_fn(8, 4, |i, j| 1e-5 + ((i + j) % 3) as f64 * 3e-5);
        let reference = vec![0.5; 8];
        let map = ComputeAttenuationMap::calibrate(&na, &g, &reference).unwrap();
        // A different (binary) input: approximation should stay within ~15 %.
        let x = vec![1.0, 0.0, 1.0, 1.0, 0.0, 1.0, 0.0, 1.0];
        let exact = na.compute(&g, &x).unwrap().column_currents;
        let approx = map.compute(&g, &x);
        for (a, e) in approx.iter().zip(&exact) {
            assert!(
                (a - e).abs() / e.abs().max(1e-12) < 0.15,
                "approx {a} exact {e}"
            );
        }
    }

    #[test]
    fn beta_d_rank_one_reconstruction() {
        let g = all_lrs(12, 6);
        let map = ProgramVoltageMap::analytic(&g, 2.5, 2.8).unwrap();
        let (beta, d) = decompose_beta_d(&map);
        assert_eq!(beta.len(), 6);
        assert_eq!(d.len(), 12);
        assert!(beta.iter().all(|&b| b > 0.0 && b <= 1.0 + 1e-9));
        // Reconstruction error should be small for this smooth map.
        let mut max_err = 0.0_f64;
        for (i, di) in d.iter().enumerate() {
            for (j, bj) in beta.iter().enumerate() {
                let err = (map.factor(i, j) - bj * di).abs();
                max_err = max_err.max(err);
            }
        }
        assert!(max_err < 0.05, "rank-1 reconstruction error {max_err}");
    }

    #[test]
    fn vertical_profile_decreases_towards_top() {
        // Our row 0 is the *top* (far from the bottom ground): the vertical
        // degradation profile d must be smallest there.
        let g = all_lrs(16, 4);
        let map = ProgramVoltageMap::analytic(&g, 5.0, 2.8).unwrap();
        let (_, d) = decompose_beta_d(&map);
        assert!(d[0] < d[15], "top {} bottom {}", d[0], d[15]);
    }

    #[test]
    fn update_rate_skewness_exceeds_voltage_skewness() {
        // The sinh nonlinearity amplifies voltage skew into orders of
        // magnitude of update-rate skew (§3.2).
        let params = DeviceParams::default();
        let g = all_lrs(64, 8);
        let map = ProgramVoltageMap::analytic(&g, 2.5, params.v_program()).unwrap();
        let voltage_profile: Vec<f64> = (0..64).map(|i| map.factor(i, 0)).collect();
        let rate_profile = update_rate_profile(&map, &params, 0);
        let sv = skewness(&voltage_profile);
        let sr = skewness(&rate_profile);
        assert!(sr > sv, "rate skew {sr} must exceed voltage skew {sv}");
        assert!(sr > 2.0, "expect noticeable rate skew, got {sr}");
    }

    #[test]
    fn skewness_edge_cases() {
        assert_eq!(skewness(&[0.5, 1.0]), 2.0);
        assert!(skewness(&[0.0, 1.0]).is_infinite());
        assert_eq!(skewness(&[0.7, 0.7]), 1.0);
    }

    #[test]
    fn analytic_validation() {
        let g = all_lrs(4, 4);
        assert!(ProgramVoltageMap::analytic(&g, -1.0, 2.8).is_err());
        assert!(ProgramVoltageMap::analytic(&g, 2.5, 0.0).is_err());
        // Zero wire resistance ⇒ no degradation anywhere.
        let map = ProgramVoltageMap::analytic(&g, 0.0, 2.8).unwrap();
        for i in 0..4 {
            for j in 0..4 {
                assert!(map.factor(i, j) > 0.99);
            }
        }
    }
}
