//! Exact resistive-mesh (nodal analysis) solve of a crossbar with wire
//! resistance.
//!
//! Geometry (Fig. 1(b) of the paper): row (word) wires are driven from the
//! **left**, column (bit) wires are grounded/sensed at the **bottom**. Each
//! wire is a chain of segments with resistance `r_wire`; the memristor at
//! `(i, j)` bridges row-wire node `T(i,j)` and column-wire node `B(i,j)`.
//!
//! The mesh has one boundary: every row wire is driven at a voltage
//! through one segment at its left end, and every column wire is
//! terminated at a voltage through one segment at its bottom. No line
//! floats. The entry points differ only in those voltages:
//!
//! * **compute** — every row driven at its input voltage, every column at
//!   virtual ground: the sensed column currents are the degraded analog
//!   MVM.
//! * **programming** — one selected cell sees the full programming voltage
//!   path, every other wire is held at V/2 (the half-select scheme,
//!   §2.2.2): the solve yields the *actual* voltage across every device,
//!   which is what the IR-drop analysis of §3.2 is about.
//! * **transfer matrix** — every boundary at 0 V except one excited
//!   column termination, once per column (see
//!   [`NodalAnalysis::transfer_matrix`]).
//!
//! The stamped matrix therefore depends only on the conductances and the
//! geometry; the boundary voltages enter the right-hand side alone. The
//! resulting system is a symmetric positive definite conductance
//! Laplacian with Dirichlet boundary segments. It is strongly
//! anisotropic: a wire segment conducts `1 / r_wire` (≈ 0.4 S), a device
//! 1–100 µS. Every solve runs conjugate gradient preconditioned with the
//! wires themselves ([`LinePreconditioner`]): each row wire `T(i,·)` and
//! each column wire `B(·,j)` is a tridiagonal chain, factored once and
//! inverted exactly, so CG only resolves the weak device couplings
//! between wires. That takes a handful of iterations at any array size,
//! where point (Jacobi) preconditioning needs hundreds to carry charge
//! along a wire. Each solve's iteration count goes to the sink installed
//! with [`observe_solve_iterations`].
//!
//! For frozen conductances the compute-mode read is linear in the row
//! voltages, so [`NodalAnalysis::transfer_matrix`] compiles it once into
//! a `rows × cols` matrix (one adjoint solve per column). Serving reads go
//! through that matrix; [`NodalAnalysis::compute`] solves the mesh for one
//! input and remains the reference it is tested against.

use std::sync::OnceLock;

use vortex_linalg::iterative::{preconditioned_cg, Line, LinePreconditioner, SolveOptions};
use vortex_linalg::sparse::{CsrMatrix, TripletBuilder};
use vortex_linalg::Matrix;

use crate::{Result, XbarError};

static SOLVE_OBSERVER: OnceLock<fn(usize)> = OnceLock::new();

/// Installs the process-wide sink that receives the CG iteration count
/// of every nodal solve (every [`NodalAnalysis`] entry point, and each
/// column of [`NodalAnalysis::transfer_matrix`]). The first sink
/// installed stays; returns whether this call installed `sink`.
///
/// This crate records no metrics itself; a binary that exports them
/// installs a sink that forwards into its metrics registry.
pub fn observe_solve_iterations(sink: fn(usize)) -> bool {
    SOLVE_OBSERVER.set(sink).is_ok()
}

/// Result of a compute-mode (read) circuit solve.
#[derive(Debug, Clone)]
pub struct ComputeSolution {
    /// Sensed current of every column (amperes, flowing into the ground
    /// terminal).
    pub column_currents: Vec<f64>,
    /// Voltage across every device: `T(i,j) − B(i,j)`.
    pub device_voltages: Matrix,
}

/// Nodal analysis of an `rows × cols` crossbar mesh.
///
/// # Example
///
/// ```
/// use vortex_linalg::Matrix;
/// use vortex_xbar::circuit::NodalAnalysis;
///
/// # fn main() -> Result<(), vortex_xbar::XbarError> {
/// let na = NodalAnalysis::new(4, 2, 2.5)?; // 4×2 mesh, 2.5 Ω segments
/// let g = Matrix::filled(4, 2, 1e-4);      // all LRS
/// let sol = na.compute(&g, &[1.0, 1.0, 1.0, 1.0])?;
/// // IR drop keeps each column below the ideal 4 × 100 µA.
/// assert!(sol.column_currents[0] < 4e-4);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct NodalAnalysis {
    rows: usize,
    cols: usize,
    g_wire: f64,
    options: SolveOptions,
    /// Point (Jacobi) instead of wire-line preconditioning: the
    /// reference the line solve is tested against.
    #[cfg(test)]
    jacobi: bool,
}

impl NodalAnalysis {
    /// Creates a solver for the given geometry.
    ///
    /// # Errors
    ///
    /// Returns [`XbarError::InvalidParameter`] for an empty array or a
    /// non-positive / non-finite wire resistance (use the ideal model for
    /// `r_wire == 0`).
    pub fn new(rows: usize, cols: usize, r_wire: f64) -> Result<Self> {
        if rows == 0 || cols == 0 {
            return Err(XbarError::InvalidParameter {
                name: "rows/cols",
                requirement: "must both be positive",
            });
        }
        if !(r_wire.is_finite() && r_wire > 0.0) {
            return Err(XbarError::InvalidParameter {
                name: "r_wire",
                requirement: "must be finite and positive (use ideal::compute for 0)",
            });
        }
        Ok(Self {
            rows,
            cols,
            g_wire: 1.0 / r_wire,
            options: SolveOptions {
                max_iterations: 200_000,
                tolerance: 1e-9,
            },
            #[cfg(test)]
            jacobi: false,
        })
    }

    /// Overrides the iterative-solver options.
    pub fn with_options(mut self, options: SolveOptions) -> Self {
        self.options = options;
        self
    }

    /// Number of rows of the mesh.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns of the mesh.
    pub fn cols(&self) -> usize {
        self.cols
    }

    fn t_idx(&self, i: usize, j: usize) -> usize {
        i * self.cols + j
    }

    fn b_idx(&self, i: usize, j: usize) -> usize {
        self.rows * self.cols + i * self.cols + j
    }

    /// Stamps the mesh with the given per-row source voltages and per-column
    /// termination voltages, then solves. Returns node voltages.
    fn solve_mesh(
        &self,
        g: &Matrix,
        row_voltages: &[f64],
        col_voltages: &[f64],
    ) -> Result<Vec<f64>> {
        let (a, rhs) = self.stamp(g, row_voltages, col_voltages);
        let preconditioner = self.preconditioner(&a)?;
        self.solve(&a, &rhs, &preconditioner, &self.options)
    }

    /// Stamps the conductance Laplacian of the mesh and the right-hand
    /// side its boundary voltages induce: row `i` is driven at
    /// `row_voltages[i]`, column `j` terminated at `col_voltages[j]`,
    /// each through one wire segment.
    fn stamp(
        &self,
        g: &Matrix,
        row_voltages: &[f64],
        col_voltages: &[f64],
    ) -> (CsrMatrix, Vec<f64>) {
        let (m, n) = (self.rows, self.cols);
        let gw = self.g_wire;
        let n_nodes = 2 * m * n;
        let mut a = TripletBuilder::new(n_nodes, n_nodes);
        let mut rhs = vec![0.0; n_nodes];

        for i in 0..m {
            for j in 0..n {
                let t = self.t_idx(i, j);
                let b = self.b_idx(i, j);
                let gd = g[(i, j)];

                // Device between T and B.
                a.add(t, t, gd);
                a.add(b, b, gd);
                a.add(t, b, -gd);
                a.add(b, t, -gd);

                // Row wire: left neighbour or driver.
                if j == 0 {
                    a.add(t, t, gw);
                    rhs[t] += gw * row_voltages[i];
                } else {
                    let left = self.t_idx(i, j - 1);
                    a.add(t, t, gw);
                    a.add(left, left, gw);
                    a.add(t, left, -gw);
                    a.add(left, t, -gw);
                }

                // Column wire: lower neighbour or termination.
                if i == m - 1 {
                    a.add(b, b, gw);
                    rhs[b] += gw * col_voltages[j];
                } else {
                    let below = self.b_idx(i + 1, j);
                    a.add(b, b, gw);
                    a.add(below, below, gw);
                    a.add(b, below, -gw);
                    a.add(below, b, -gw);
                }
            }
        }
        (a.build(), rhs)
    }

    /// The wires as strided lines of the node numbering: row wire `i`
    /// is `T(i,0..cols)` (stride 1), column wire `j` is `B(0..rows,j)`
    /// (stride `cols`). Together they cover every node once.
    fn wire_lines(&self) -> Vec<Line> {
        let (m, n) = (self.rows, self.cols);
        let rows = (0..m).map(|i| Line {
            start: self.t_idx(i, 0),
            stride: 1,
            len: n,
        });
        let cols = (0..n).map(|j| Line {
            start: self.b_idx(0, j),
            stride: n,
            len: m,
        });
        rows.chain(cols).collect()
    }

    /// Factors the wire-line preconditioner of a stamped mesh.
    fn preconditioner(&self, a: &CsrMatrix) -> Result<LinePreconditioner> {
        #[cfg(test)]
        if self.jacobi {
            return LinePreconditioner::jacobi(a).map_err(XbarError::Numeric);
        }
        LinePreconditioner::new(a, self.wire_lines()).map_err(XbarError::Numeric)
    }

    fn solve(
        &self,
        a: &CsrMatrix,
        rhs: &[f64],
        preconditioner: &LinePreconditioner,
        options: &SolveOptions,
    ) -> Result<Vec<f64>> {
        let report =
            preconditioned_cg(a, rhs, preconditioner, options).map_err(XbarError::Numeric)?;
        if let Some(sink) = SOLVE_OBSERVER.get() {
            sink(report.iterations);
        }
        Ok(report.x)
    }

    /// The compute-mode read compiled into a `rows × cols` transfer
    /// matrix: for conductances `g`, the sensed column currents of a read
    /// at input `x` are `Tᵀx` (`y_j = Σᵢ xᵢ·T[i][j]`), with IR drop
    /// included.
    ///
    /// With the conductances fixed, the compute-mode mesh (rows driven
    /// through their driver segment, columns terminated at 0 V) is a
    /// linear network, so the map from row voltages to column currents is
    /// linear. Its Laplacian `A` is symmetric, so by reciprocity column
    /// `j` of the map is one adjoint solve: excite column `j`'s
    /// termination at 1 V (`rhs[B(m−1,j)] = g_wire`) with every row
    /// driver at 0 V, and read `T[i][j] = g_wire · v[T(i,0)]` off the
    /// row-wire node next to each driver. That is
    /// `cols` solves against one stamped and factored matrix, instead of
    /// one solve per read.
    ///
    /// Each adjoint solve stops at `tolerance / rows`, not `tolerance`. A
    /// read `Tᵀx` sums `rows` entries weighted by `xᵢ ∈ [0, 1]`, so their
    /// stopping errors add up to `rows` times one entry's; the tighter
    /// stop gives the compiled read the same error guarantee as a single
    /// per-sample solve at `tolerance`. It costs about two more
    /// iterations per column.
    ///
    /// # Errors
    ///
    /// * [`XbarError::ShapeMismatch`] if `g` disagrees with the mesh.
    /// * [`XbarError::Numeric`] if a CG solve fails.
    pub fn transfer_matrix(&self, g: &Matrix) -> Result<Matrix> {
        self.check_shape(g)?;
        let (a, mut rhs) = self.stamp(g, &vec![0.0; self.rows], &vec![0.0; self.cols]);
        let preconditioner = self.preconditioner(&a)?;
        let options = SolveOptions {
            tolerance: self.options.tolerance / self.rows as f64,
            ..self.options
        };
        let mut t = Matrix::zeros(self.rows, self.cols);
        for j in 0..self.cols {
            let excited = self.b_idx(self.rows - 1, j);
            rhs.fill(0.0);
            rhs[excited] = self.g_wire;
            let v = self.solve(&a, &rhs, &preconditioner, &options)?;
            for i in 0..self.rows {
                t[(i, j)] = self.g_wire * v[self.t_idx(i, 0)];
            }
        }
        Ok(t)
    }

    /// Compute-mode (read) solve: rows driven at `x`, columns at virtual
    /// ground.
    ///
    /// # Errors
    ///
    /// * [`XbarError::ShapeMismatch`] if `g` or `x` disagree with the mesh
    ///   geometry.
    /// * [`XbarError::Numeric`] if the CG solve fails.
    pub fn compute(&self, g: &Matrix, x: &[f64]) -> Result<ComputeSolution> {
        self.check_shape(g)?;
        if x.len() != self.rows {
            return Err(XbarError::ShapeMismatch {
                context: "compute input vector",
                expected: self.rows,
                actual: x.len(),
            });
        }
        let v = self.solve_mesh(g, x, &vec![0.0; self.cols])?;
        let currents = (0..self.cols)
            .map(|j| self.g_wire * v[self.b_idx(self.rows - 1, j)])
            .collect();
        let device_voltages = Matrix::from_fn(self.rows, self.cols, |i, j| {
            v[self.t_idx(i, j)] - v[self.b_idx(i, j)]
        });
        Ok(ComputeSolution {
            column_currents: currents,
            device_voltages,
        })
    }

    /// Programming-mode solve with the V/2 half-select scheme: row `p`
    /// driven at `v_program`, column `q` grounded, all other wires held at
    /// `v_program / 2`.
    ///
    /// Returns the voltage across every device; entry `(p, q)` is the
    /// degraded full-select programming voltage, the rest are half-select
    /// disturb voltages.
    ///
    /// # Errors
    ///
    /// * [`XbarError::ShapeMismatch`] / [`XbarError::InvalidParameter`] on
    ///   bad arguments.
    /// * [`XbarError::Numeric`] if the CG solve fails.
    pub fn program_bias(
        &self,
        g: &Matrix,
        selected: (usize, usize),
        v_program: f64,
    ) -> Result<Matrix> {
        self.check_shape(g)?;
        let (p, q) = selected;
        if p >= self.rows || q >= self.cols {
            return Err(XbarError::InvalidParameter {
                name: "selected",
                requirement: "cell coordinates must lie inside the array",
            });
        }
        let half = v_program / 2.0;
        let row_sources: Vec<f64> = (0..self.rows)
            .map(|i| if i == p { v_program } else { half })
            .collect();
        let col_terms: Vec<f64> = (0..self.cols)
            .map(|j| if j == q { 0.0 } else { half })
            .collect();
        let v = self.solve_mesh(g, &row_sources, &col_terms)?;
        Ok(Matrix::from_fn(self.rows, self.cols, |i, j| {
            v[self.t_idx(i, j)] - v[self.b_idx(i, j)]
        }))
    }

    fn check_shape(&self, g: &Matrix) -> Result<()> {
        if g.shape() != (self.rows, self.cols) {
            return Err(XbarError::ShapeMismatch {
                context: "conductance matrix",
                expected: self.rows * self.cols,
                actual: g.rows() * g.cols(),
            });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ideal;
    use proptest::prelude::*;
    use std::cell::RefCell;
    use vortex_linalg::rng::Xoshiro256PlusPlus;

    thread_local! {
        static ITERATIONS: RefCell<Vec<usize>> = const { RefCell::new(Vec::new()) };
    }

    fn record_iterations(iterations: usize) {
        ITERATIONS.with(|log| log.borrow_mut().push(iterations));
    }

    /// Runs `f` and returns the iteration counts of the nodal solves it
    /// made on this thread.
    fn iterations_of(f: impl FnOnce()) -> Vec<usize> {
        observe_solve_iterations(record_iterations);
        ITERATIONS.with(|log| log.borrow_mut().clear());
        f();
        ITERATIONS.with(|log| log.take())
    }

    /// A random `rows × cols` mesh: conductances in `[1 µS, 100 µS]`.
    fn random_mesh(rows: usize, cols: usize, rng: &mut Xoshiro256PlusPlus) -> Matrix {
        Matrix::from_fn(rows, cols, |_, _| 1e-6 + 99e-6 * rng.next_f64())
    }

    fn max_gap(a: &[f64], b: &[f64]) -> f64 {
        a.iter()
            .zip(b)
            .map(|(u, v)| (u - v).abs())
            .fold(0.0, f64::max)
    }

    fn matrix_gap(a: &Matrix, b: &Matrix) -> f64 {
        max_gap(a.as_slice(), b.as_slice())
    }

    /// FNV-1a over the bit patterns of `values`, one 64-bit word each.
    fn bit_hash<'a>(values: impl IntoIterator<Item = &'a f64>) -> u64 {
        values.into_iter().fold(0xcbf2_9ce4_8422_2325, |h, v| {
            (h ^ v.to_bits()).wrapping_mul(0x0000_0100_0000_01b3)
        })
    }

    /// Every mesh entry point, bit for bit: compute's column currents
    /// and device voltages, program bias at a corner and an interior
    /// cell, and the transfer matrix. Stamping, preconditioning or CG
    /// changes that move one bit fail here, where this module's
    /// tolerance tests would pass.
    #[test]
    fn mesh_entry_points_are_bit_pinned() {
        let pins: [(usize, usize, [u64; 5]); 2] = [
            (
                12,
                5,
                [
                    0x3d4655d3b24f7636,
                    0x5ee87d77de0baeee,
                    0x98460eaf020fd72b,
                    0x7c4108fadfa8e6d5,
                    0x9cd53ad1dbeabe12,
                ],
            ),
            (
                49,
                10,
                [
                    0x33a15a404107096f,
                    0xdae2a03c71ea387f,
                    0x6c96fb90ec056537,
                    0xd5bfe74fe2c9a2da,
                    0x099dfb22e1f589c6,
                ],
            ),
        ];
        for (rows, cols, want) in pins {
            let mut rng = Xoshiro256PlusPlus::seed_from_u64((rows * cols) as u64);
            let g = random_mesh(rows, cols, &mut rng);
            let x: Vec<f64> = (0..rows).map(|_| rng.next_f64()).collect();
            let na = NodalAnalysis::new(rows, cols, 2.5).unwrap();
            let sol = na.compute(&g, &x).unwrap();
            let corner = na.program_bias(&g, (0, cols - 1), 2.8).unwrap();
            let interior = na.program_bias(&g, (rows / 2, cols / 2), 2.8).unwrap();
            let got = [
                bit_hash(&sol.column_currents),
                bit_hash(sol.device_voltages.as_slice()),
                bit_hash(corner.as_slice()),
                bit_hash(interior.as_slice()),
                bit_hash(na.transfer_matrix(&g).unwrap().as_slice()),
            ];
            assert_eq!(got, want, "{rows}×{cols} mesh moved");
        }
    }

    #[test]
    fn wire_line_solves_converge_in_a_few_iterations() {
        // Point preconditioning needs ≈550 iterations at 216×10 (more at
        // 784×10); a silent fallback to it fails this budget.
        let mut rng = Xoshiro256PlusPlus::seed_from_u64(216);
        for rows in [216, 784] {
            for r_wire in [2.5, 10.0] {
                let na = NodalAnalysis::new(rows, 10, r_wire).unwrap();
                let g = random_mesh(rows, 10, &mut rng);
                let x: Vec<f64> = (0..rows).map(|_| rng.next_f64()).collect();
                let its = iterations_of(|| {
                    na.compute(&g, &x).unwrap();
                    na.program_bias(&g, (rows / 2, 7), 2.8).unwrap();
                    if rows == 216 {
                        na.transfer_matrix(&g).unwrap();
                    }
                });
                assert!(its.len() >= 2, "solves not observed: {its:?}");
                assert!(
                    its.iter().all(|&k| k <= 25),
                    "{rows}×10 at {r_wire} Ω: {its:?}"
                );
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// Line PCG and Jacobi PCG both land within the stopping-error
        /// bound of a 1e-15 solve, at every entry point. A solve stopped
        /// at residual ∞-norm `tol` is off by `A⁻¹r` in node voltage;
        /// `A⁻¹ ≥ 0` and each entry is at most `L·r_wire` (`L =
        /// max(rows, cols)` segments to a driven boundary), so with `N`
        /// nodes a sensed current (or transfer entry) is off by at most
        /// `N·L·tol` and a device voltage by `2·N·L·r_wire·tol`.
        #[test]
        fn line_and_jacobi_solves_match_a_tight_solve(rows in 2usize..12,
                                                      cols in 2usize..6,
                                                      r_wire in 0.5..20.0f64,
                                                      seed in proptest::num::u64::ANY) {
            let mut rng = Xoshiro256PlusPlus::seed_from_u64(seed);
            let g = random_mesh(rows, cols, &mut rng);
            let x: Vec<f64> = (0..rows).map(|_| rng.next_f64()).collect();
            let tol = 1e-9;
            let line = NodalAnalysis::new(rows, cols, r_wire).unwrap();
            let jacobi = NodalAnalysis { jacobi: true, ..line.clone() };
            let tight = line.clone().with_options(SolveOptions {
                max_iterations: 200_000,
                tolerance: 1e-15,
            });
            let n_l = (2 * rows * cols * rows.max(cols)) as f64;
            let current_bound = n_l * tol;
            let voltage_bound = 2.0 * n_l * r_wire * tol;
            let selected = (seed as usize % rows, (seed >> 8) as usize % cols);

            let reference = tight.compute(&g, &x).unwrap();
            let reference_bias = tight.program_bias(&g, selected, 2.8).unwrap();
            let reference_t = tight.transfer_matrix(&g).unwrap();
            for na in [&line, &jacobi] {
                let sol = na.compute(&g, &x).unwrap();
                prop_assert!(max_gap(&sol.column_currents, &reference.column_currents) <= current_bound);
                prop_assert!(matrix_gap(&sol.device_voltages, &reference.device_voltages) <= voltage_bound);
                let bias = na.program_bias(&g, selected, 2.8).unwrap();
                prop_assert!(matrix_gap(&bias, &reference_bias) <= voltage_bound);
                let t = na.transfer_matrix(&g).unwrap();
                prop_assert!(matrix_gap(&t, &reference_t) <= current_bound);
            }
        }
    }

    #[test]
    fn one_by_one_matches_series_circuit() {
        // v → r_wire → device → r_wire → ground: I = v / (2·r_w + r_dev).
        let r_wire = 2.5;
        let r_dev = 10e3;
        let na = NodalAnalysis::new(1, 1, r_wire).unwrap();
        let g = Matrix::filled(1, 1, 1.0 / r_dev);
        let sol = na.compute(&g, &[1.0]).unwrap();
        let expect = 1.0 / (2.0 * r_wire + r_dev);
        assert!(
            (sol.column_currents[0] - expect).abs() / expect < 1e-6,
            "{} vs {}",
            sol.column_currents[0],
            expect
        );
        // Device voltage = I · r_dev.
        let vd = sol.device_voltages[(0, 0)];
        assert!((vd - expect * r_dev).abs() < 1e-6);
    }

    #[test]
    fn tiny_wire_resistance_approaches_ideal() {
        let na = NodalAnalysis::new(4, 3, 1e-6).unwrap();
        let g = Matrix::from_fn(4, 3, |i, j| 1e-5 + (i + j) as f64 * 1e-5);
        let x = [1.0, 0.8, 0.5, 0.2];
        let sol = na.compute(&g, &x).unwrap();
        let ideal_y = ideal::compute(&g, &x);
        for (a, b) in sol.column_currents.iter().zip(&ideal_y) {
            assert!((a - b).abs() / b < 1e-4, "{a} vs {b}");
        }
    }

    #[test]
    fn wire_resistance_only_reduces_current() {
        let g = Matrix::filled(8, 4, 1e-4); // all LRS — worst case
        let x = vec![1.0; 8];
        let ideal_y = ideal::compute(&g, &x);
        let na = NodalAnalysis::new(8, 4, 10.0).unwrap();
        let sol = na.compute(&g, &x).unwrap();
        for (a, b) in sol.column_currents.iter().zip(&ideal_y) {
            assert!(*a < *b, "IR drop must reduce current: {a} vs {b}");
            assert!(*a > 0.5 * b, "but not absurdly");
        }
    }

    #[test]
    fn degradation_grows_with_wire_resistance() {
        let g = Matrix::filled(8, 4, 1e-4);
        let x = vec![1.0; 8];
        let mut prev = f64::INFINITY;
        for &rw in &[0.5, 2.5, 10.0, 50.0] {
            let na = NodalAnalysis::new(8, 4, rw).unwrap();
            let y = na.compute(&g, &x).unwrap().column_currents[0];
            assert!(y < prev, "current must fall as r_wire grows");
            prev = y;
        }
    }

    #[test]
    fn program_bias_selected_cell_sees_most_voltage() {
        let na = NodalAnalysis::new(6, 4, 2.5).unwrap();
        let g = Matrix::filled(6, 4, 1e-4);
        let v = 2.8;
        let bias = na.program_bias(&g, (2, 1), v).unwrap();
        let sel = bias[(2, 1)];
        assert!(sel > 0.9 * v, "selected cell voltage {sel}");
        assert!(sel < v, "IR drop must eat some voltage");
        // Half-selected cells see roughly V/2 or less.
        for i in 0..6 {
            for j in 0..4 {
                if (i, j) != (2, 1) {
                    assert!(
                        bias[(i, j)].abs() < 0.55 * v + 1e-9,
                        "half-select cell ({i},{j}) sees {}",
                        bias[(i, j)]
                    );
                }
            }
        }
    }

    #[test]
    fn program_bias_far_cell_degrades_more() {
        // All-LRS worst case: the cell far from both drivers (top-right in
        // our orientation) sees less programming voltage than the near one
        // (bottom-left).
        let m = 16;
        let n = 8;
        let na = NodalAnalysis::new(m, n, 5.0).unwrap();
        let g = Matrix::filled(m, n, 1e-4);
        let v = 2.8;
        let near = na.program_bias(&g, (m - 1, 0), v).unwrap()[(m - 1, 0)];
        let far = na.program_bias(&g, (0, n - 1), v).unwrap()[(0, n - 1)];
        assert!(
            far < near,
            "far cell should be more degraded: far={far} near={near}"
        );
    }

    #[test]
    fn invalid_arguments_rejected() {
        assert!(NodalAnalysis::new(0, 3, 2.5).is_err());
        assert!(NodalAnalysis::new(3, 3, 0.0).is_err());
        assert!(NodalAnalysis::new(3, 3, -2.5).is_err());
        let na = NodalAnalysis::new(3, 3, 2.5).unwrap();
        let g = Matrix::filled(2, 3, 1e-5);
        assert!(na.compute(&g, &[1.0; 3]).is_err());
        let g = Matrix::filled(3, 3, 1e-5);
        assert!(na.compute(&g, &[1.0; 2]).is_err());
        assert!(na.program_bias(&g, (5, 0), 2.8).is_err());
    }

    #[test]
    fn zero_input_gives_zero_output() {
        let na = NodalAnalysis::new(4, 2, 2.5).unwrap();
        let g = Matrix::filled(4, 2, 1e-4);
        let sol = na.compute(&g, &[0.0; 4]).unwrap();
        for c in &sol.column_currents {
            assert!(c.abs() < 1e-12);
        }
    }

    #[test]
    fn superposition_approximately_holds() {
        // The network is linear: y(x1 + x2) = y(x1) + y(x2).
        let na = NodalAnalysis::new(4, 3, 2.5).unwrap();
        let g = Matrix::from_fn(4, 3, |i, j| 1e-5 * (1 + (i * 3 + j) % 4) as f64);
        let x1 = [1.0, 0.0, 0.5, 0.0];
        let x2 = [0.0, 1.0, 0.0, 0.25];
        let xs: Vec<f64> = x1.iter().zip(&x2).map(|(a, b)| a + b).collect();
        let y1 = na.compute(&g, &x1).unwrap().column_currents;
        let y2 = na.compute(&g, &x2).unwrap().column_currents;
        let ys = na.compute(&g, &xs).unwrap().column_currents;
        for j in 0..3 {
            assert!((ys[j] - (y1[j] + y2[j])).abs() < 1e-9);
        }
    }
}
