//! Iterative solvers for sparse linear systems.
//!
//! The crossbar nodal systems are symmetric positive definite, so they are
//! solved with preconditioned conjugate gradient. There is one PCG loop,
//! [`preconditioned_cg`], and one preconditioner type,
//! [`LinePreconditioner`]: an exact tridiagonal (Thomas) solve on each of
//! a set of disjoint strided lines of unknowns. A crossbar mesh passes its
//! wires as the lines, which inverts the stiff wire couplings (siemens)
//! and leaves CG only the weak device couplings (micro-siemens) to
//! resolve. [`conjugate_gradient`] is the same loop with every line of
//! length 1, i.e. Jacobi (diagonal) preconditioning, for generic systems.

use crate::sparse::CsrMatrix;
use crate::{vector, LinalgError, Result};

/// Stopping criteria for the iterative solvers.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SolveOptions {
    /// Maximum number of iterations before giving up.
    pub max_iterations: usize,
    /// Convergence tolerance on the residual ∞-norm.
    pub tolerance: f64,
}

impl Default for SolveOptions {
    fn default() -> Self {
        Self {
            max_iterations: 20_000,
            tolerance: 1e-10,
        }
    }
}

impl SolveOptions {
    /// Options with the given tolerance, other fields defaulted.
    pub fn with_tolerance(tolerance: f64) -> Self {
        Self {
            tolerance,
            ..Self::default()
        }
    }
}

/// Outcome of an iterative solve.
#[derive(Debug, Clone, PartialEq)]
pub struct SolveReport {
    /// The solution vector.
    pub x: Vec<f64>,
    /// Iterations actually performed.
    pub iterations: usize,
    /// Final residual ∞-norm.
    pub residual: f64,
}

/// One line of unknowns: nodes `start, start + stride, …`, `len` of
/// them, coupled to their neighbours on the line by a tridiagonal block.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Line {
    /// First node of the line.
    pub start: usize,
    /// Index distance between consecutive nodes.
    pub stride: usize,
    /// Number of nodes.
    pub len: usize,
}

impl Line {
    /// Node `t` of the line.
    fn node(&self, t: usize) -> usize {
        self.start + t * self.stride
    }
}

/// Block-diagonal preconditioner: the exact inverse of the tridiagonal
/// part of `A` along each of a set of disjoint lines that together cover
/// every unknown.
///
/// Each line is factored once (Thomas algorithm) into three node-indexed
/// arrays: the coupling to the previous node on the line, the inverse
/// pivot, and `c′ = (coupling to the next node) / pivot`. Applying it is
/// a forward and a backward sweep per line, `O(n)` with no allocation.
///
/// With every line of length 1 ([`LinePreconditioner::jacobi`]) the
/// coupling and `c′` arrays are all zero and the sweeps reduce to
/// `z = r / diag(A)`, bit for bit: `r − 0·0 = r` and `z − 0·0 = z`.
#[derive(Debug, Clone, PartialEq)]
pub struct LinePreconditioner {
    lines: Vec<Line>,
    sub: Vec<f64>,
    inv_pivot: Vec<f64>,
    c_prime: Vec<f64>,
}

/// `1/d`, or 1 for a (numerically) zero pivot, which leaves that
/// unknown unpreconditioned instead of dividing by zero.
fn invert_pivot(d: f64) -> f64 {
    if d.abs() > 1e-300 {
        1.0 / d
    } else {
        1.0
    }
}

impl LinePreconditioner {
    /// Factors the tridiagonal block of `a` along every line.
    ///
    /// # Errors
    ///
    /// * [`LinalgError::DimensionMismatch`] if `a` is not square.
    /// * [`LinalgError::InvalidParameter`] if a line is empty, has a zero
    ///   stride while longer than one node, runs past the matrix, or the
    ///   lines do not cover every unknown exactly once.
    pub fn new(a: &CsrMatrix, lines: Vec<Line>) -> Result<Self> {
        let n = a.rows();
        if a.cols() != n {
            return Err(LinalgError::DimensionMismatch {
                context: "line preconditioner (matrix must be square)",
                expected: n,
                actual: a.cols(),
            });
        }
        let invalid = |requirement| LinalgError::InvalidParameter {
            name: "lines",
            requirement,
        };
        let mut covered = vec![false; n];
        for line in &lines {
            if line.len == 0 || (line.len > 1 && line.stride == 0) {
                return Err(invalid("every line needs a node and a positive stride"));
            }
            let last = (line.len - 1)
                .checked_mul(line.stride)
                .and_then(|span| span.checked_add(line.start));
            if !last.is_some_and(|k| k < n) {
                return Err(invalid("every line must lie inside the matrix"));
            }
            for t in 0..line.len {
                let k = line.node(t);
                if std::mem::replace(&mut covered[k], true) {
                    return Err(invalid("lines must be disjoint"));
                }
            }
        }
        if covered.contains(&false) {
            return Err(invalid("lines must cover every unknown"));
        }

        let mut sub = vec![0.0; n];
        let mut inv_pivot = vec![0.0; n];
        let mut c_prime = vec![0.0; n];
        for line in &lines {
            let mut c_prev = 0.0;
            for t in 0..line.len {
                let k = line.node(t);
                if t > 0 {
                    sub[k] = a.get(k, line.node(t - 1));
                }
                let inv = invert_pivot(a.get(k, k) - sub[k] * c_prev);
                inv_pivot[k] = inv;
                if t + 1 < line.len {
                    c_prime[k] = a.get(k, line.node(t + 1)) * inv;
                }
                c_prev = c_prime[k];
            }
        }
        Ok(Self {
            lines,
            sub,
            inv_pivot,
            c_prime,
        })
    }

    /// Jacobi (diagonal) preconditioning: every unknown its own line.
    ///
    /// # Errors
    ///
    /// [`LinalgError::DimensionMismatch`] if `a` is not square.
    pub fn jacobi(a: &CsrMatrix) -> Result<Self> {
        let lines = (0..a.rows())
            .map(|start| Line {
                start,
                stride: 1,
                len: 1,
            })
            .collect();
        Self::new(a, lines)
    }

    /// Number of unknowns the preconditioner acts on.
    pub(crate) fn dim(&self) -> usize {
        self.inv_pivot.len()
    }

    /// `z = M⁻¹·r`: one tridiagonal solve per line.
    ///
    /// # Panics
    ///
    /// Panics if `r` or `z` is not [`Self::dim`] long.
    pub(crate) fn apply(&self, r: &[f64], z: &mut [f64]) {
        assert_eq!(r.len(), self.dim(), "line preconditioner: rhs length");
        assert_eq!(z.len(), self.dim(), "line preconditioner: output length");
        for line in &self.lines {
            let mut prev = 0.0;
            for t in 0..line.len {
                let k = line.node(t);
                prev = (r[k] - self.sub[k] * prev) * self.inv_pivot[k];
                z[k] = prev;
            }
            let mut next = 0.0;
            for t in (0..line.len).rev() {
                let k = line.node(t);
                next = z[k] - self.c_prime[k] * next;
                z[k] = next;
            }
        }
    }
}

/// Jacobi-preconditioned conjugate gradient for symmetric positive
/// definite systems: [`preconditioned_cg`] with
/// [`LinePreconditioner::jacobi`].
///
/// # Errors
///
/// * [`LinalgError::DimensionMismatch`] if shapes disagree.
/// * [`LinalgError::NotConverged`] if the tolerance is not reached within
///   `options.max_iterations`.
pub fn conjugate_gradient(a: &CsrMatrix, b: &[f64], options: &SolveOptions) -> Result<SolveReport> {
    let preconditioner = LinePreconditioner::jacobi(a)?;
    preconditioned_cg(a, b, &preconditioner, options)
}

/// Preconditioned conjugate gradient for symmetric positive definite
/// systems, started from `x = 0`. Stops once the residual ∞-norm reaches
/// `options.tolerance`; the iteration allocates nothing.
///
/// # Errors
///
/// * [`LinalgError::DimensionMismatch`] if shapes disagree.
/// * [`LinalgError::NotConverged`] if the tolerance is not reached within
///   `options.max_iterations`.
pub fn preconditioned_cg(
    a: &CsrMatrix,
    b: &[f64],
    preconditioner: &LinePreconditioner,
    options: &SolveOptions,
) -> Result<SolveReport> {
    let n = a.rows();
    if a.cols() != n {
        return Err(LinalgError::DimensionMismatch {
            context: "conjugate_gradient (matrix must be square)",
            expected: n,
            actual: a.cols(),
        });
    }
    if b.len() != n {
        return Err(LinalgError::DimensionMismatch {
            context: "conjugate_gradient rhs",
            expected: n,
            actual: b.len(),
        });
    }
    if preconditioner.dim() != n {
        return Err(LinalgError::DimensionMismatch {
            context: "conjugate_gradient preconditioner",
            expected: n,
            actual: preconditioner.dim(),
        });
    }
    let mut x = vec![0.0; n];
    if n == 0 {
        return Ok(SolveReport {
            x,
            iterations: 0,
            residual: 0.0,
        });
    }

    let mut ap = vec![0.0; n];
    // From x = 0 the initial residual is b itself.
    let mut r = b.to_vec();
    let mut z = vec![0.0; n];
    preconditioner.apply(&r, &mut z);
    let mut p = z.clone();
    let mut rz = vector::dot(&r, &z);

    let mut best_residual = vector::norm_inf(&r);
    if best_residual <= options.tolerance {
        return Ok(SolveReport {
            x,
            iterations: 0,
            residual: best_residual,
        });
    }

    for iter in 1..=options.max_iterations {
        a.matvec_into(&p, &mut ap);
        let pap = vector::dot(&p, &ap);
        if pap.abs() < 1e-300 {
            break;
        }
        let alpha = rz / pap;
        vector::axpy(alpha, &p, &mut x);
        vector::axpy(-alpha, &ap, &mut r);
        best_residual = vector::norm_inf(&r);
        if best_residual <= options.tolerance {
            return Ok(SolveReport {
                x,
                iterations: iter,
                residual: best_residual,
            });
        }
        preconditioner.apply(&r, &mut z);
        let rz_new = vector::dot(&r, &z);
        let beta = rz_new / rz;
        rz = rz_new;
        for (pi, zi) in p.iter_mut().zip(&z) {
            *pi = zi + beta * *pi;
        }
    }
    Err(LinalgError::NotConverged {
        iterations: options.max_iterations,
        residual: best_residual,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sparse::TripletBuilder;

    /// 1-D Poisson (tridiagonal [-1, 2, -1]) — SPD, classic test problem.
    fn poisson(n: usize) -> CsrMatrix {
        let mut b = TripletBuilder::new(n, n);
        for i in 0..n {
            b.add(i, i, 2.0);
            if i > 0 {
                b.add(i, i - 1, -1.0);
            }
            if i + 1 < n {
                b.add(i, i + 1, -1.0);
            }
        }
        b.build()
    }

    /// A `rows × cols` grid shaped like a crossbar mesh: stiff couplings
    /// (0.4) along each grid row, weak ones (1e-5 scale) across rows,
    /// and a grounding term on the first column.
    fn anisotropic_grid(rows: usize, cols: usize) -> CsrMatrix {
        let n = rows * cols;
        let mut t = TripletBuilder::new(n, n);
        let couple = |t: &mut TripletBuilder, u: usize, v: usize, g: f64| {
            t.add(u, u, g);
            t.add(v, v, g);
            t.add(u, v, -g);
            t.add(v, u, -g);
        };
        for i in 0..rows {
            t.add(i * cols, i * cols, 0.4);
            for j in 0..cols {
                let k = i * cols + j;
                if j + 1 < cols {
                    couple(&mut t, k, k + 1, 0.4);
                }
                if i + 1 < rows {
                    couple(&mut t, k, k + cols, 1e-5 * (1 + (k % 7)) as f64);
                }
            }
        }
        t.build()
    }

    fn grid_rows(rows: usize, cols: usize) -> Vec<Line> {
        (0..rows)
            .map(|i| Line {
                start: i * cols,
                stride: 1,
                len: cols,
            })
            .collect()
    }

    /// The Jacobi-preconditioned CG loop exactly as it stood before the
    /// line preconditioner existed: the reference the length-1-lines
    /// path must reproduce bit for bit.
    fn reference_jacobi_cg(
        a: &CsrMatrix,
        b: &[f64],
        options: &SolveOptions,
    ) -> (Vec<f64>, usize, f64) {
        let mut x = vec![0.0; a.rows()];
        let inv_diag: Vec<f64> = a
            .diagonal()
            .iter()
            .map(|&d| if d.abs() > 1e-300 { 1.0 / d } else { 1.0 })
            .collect();
        let ax = a.matvec(&x);
        let mut r = vector::sub(b, &ax);
        let mut z = vector::hadamard(&inv_diag, &r);
        let mut p = z.clone();
        let mut rz = vector::dot(&r, &z);
        let mut best_residual = vector::norm_inf(&r);
        if best_residual <= options.tolerance {
            return (x, 0, best_residual);
        }
        for iter in 1..=options.max_iterations {
            let ap = a.matvec(&p);
            let pap = vector::dot(&p, &ap);
            if pap.abs() < 1e-300 {
                break;
            }
            let alpha = rz / pap;
            vector::axpy(alpha, &p, &mut x);
            vector::axpy(-alpha, &ap, &mut r);
            best_residual = vector::norm_inf(&r);
            if best_residual <= options.tolerance {
                return (x, iter, best_residual);
            }
            z = vector::hadamard(&inv_diag, &r);
            let rz_new = vector::dot(&r, &z);
            let beta = rz_new / rz;
            rz = rz_new;
            for (pi, zi) in p.iter_mut().zip(&z) {
                *pi = zi + beta * *pi;
            }
        }
        panic!("reference CG did not converge");
    }

    #[test]
    fn cg_solves_poisson() {
        let n = 64;
        let a = poisson(n);
        let x_true: Vec<f64> = (0..n).map(|i| ((i as f64) * 0.1).cos()).collect();
        let b = a.matvec(&x_true);
        let rep = conjugate_gradient(&a, &b, &SolveOptions::default()).unwrap();
        for (u, v) in rep.x.iter().zip(&x_true) {
            assert!((u - v).abs() < 1e-7, "{u} vs {v}");
        }
        assert!(rep.iterations <= n + 5);
    }

    #[test]
    fn jacobi_lines_are_bit_identical_to_the_reference_loop() {
        let options = SolveOptions::with_tolerance(1e-12);
        for a in [poisson(48), anisotropic_grid(9, 7)] {
            let n = a.rows();
            let b: Vec<f64> = (0..n).map(|i| ((i * 37 % 11) as f64 - 5.0) * 0.1).collect();
            let (x, iterations, residual) = reference_jacobi_cg(&a, &b, &options);
            let rep = conjugate_gradient(&a, &b, &options).unwrap();
            assert_eq!(rep.iterations, iterations);
            assert_eq!(rep.residual.to_bits(), residual.to_bits());
            for (u, v) in rep.x.iter().zip(&x) {
                assert_eq!(u.to_bits(), v.to_bits());
            }
        }
    }

    #[test]
    fn one_line_is_a_direct_tridiagonal_solve() {
        // A single line covering a tridiagonal matrix is its exact
        // inverse: PCG lands on the solution in one step.
        let n = 50;
        let a = poisson(n);
        let x_true: Vec<f64> = (0..n).map(|i| (i as f64).sqrt()).collect();
        let b = a.matvec(&x_true);
        let pc = LinePreconditioner::new(
            &a,
            vec![Line {
                start: 0,
                stride: 1,
                len: n,
            }],
        )
        .unwrap();
        let rep = preconditioned_cg(&a, &b, &pc, &SolveOptions::with_tolerance(1e-9)).unwrap();
        assert_eq!(rep.iterations, 1);
        for (u, v) in rep.x.iter().zip(&x_true) {
            assert!((u - v).abs() < 1e-9, "{u} vs {v}");
        }
    }

    #[test]
    fn strided_lines_cut_iterations_on_an_anisotropic_grid() {
        // Storing the grid column-major makes its stiff rows strided.
        let (rows, cols) = (40, 12);
        let a = anisotropic_grid(rows, cols);
        let b: Vec<f64> = (0..rows * cols).map(|k| (k % 5) as f64 * 0.01).collect();
        let options = SolveOptions::with_tolerance(1e-12);
        let jacobi = conjugate_gradient(&a, &b, &options).unwrap();
        let pc = LinePreconditioner::new(&a, grid_rows(rows, cols)).unwrap();
        let line = preconditioned_cg(&a, &b, &pc, &options).unwrap();
        assert!(
            line.iterations * 4 < jacobi.iterations,
            "line {} vs jacobi {}",
            line.iterations,
            jacobi.iterations
        );
        for (u, v) in line.x.iter().zip(&jacobi.x) {
            assert!((u - v).abs() < 1e-6, "{u} vs {v}");
        }

        // The same rows, numbered column-major, are strided lines.
        let perm = |k: usize| (k % cols) * rows + k / cols;
        let mut t = TripletBuilder::new(rows * cols, rows * cols);
        for k in 0..rows * cols {
            for (c, v) in a.row_iter(k) {
                t.add(perm(k), perm(c), v);
            }
        }
        let strided: Vec<Line> = (0..rows)
            .map(|i| Line {
                start: i,
                stride: rows,
                len: cols,
            })
            .collect();
        let at = t.build();
        let pc_t = LinePreconditioner::new(&at, strided).unwrap();
        let mut bt = vec![0.0; rows * cols];
        for (k, &v) in b.iter().enumerate() {
            bt[perm(k)] = v;
        }
        let line_t = preconditioned_cg(&at, &bt, &pc_t, &options).unwrap();
        assert!(line_t.iterations <= line.iterations + 1);
        for (k, &v) in line.x.iter().enumerate() {
            assert!((line_t.x[perm(k)] - v).abs() < 1e-9);
        }
    }

    #[test]
    fn line_preconditioner_rejects_bad_lines() {
        let a = poisson(6);
        let line = |start, stride, len| Line { start, stride, len };
        for lines in [
            vec![line(0, 1, 6), line(5, 1, 1)],          // overlap
            vec![line(0, 1, 5)],                         // node 5 uncovered
            vec![line(0, 2, 4)],                         // runs past the end
            vec![line(0, 0, 6)],                         // zero stride
            vec![line(0, 1, 6), line(0, 1, 0)],          // empty line
            vec![line(0, 1, 6), line(1, usize::MAX, 2)], // stride overflows
        ] {
            assert!(matches!(
                LinePreconditioner::new(&a, lines),
                Err(LinalgError::InvalidParameter { .. })
            ));
        }
        let evens_and_odds = vec![line(0, 2, 3), line(1, 2, 3)];
        assert!(LinePreconditioner::new(&a, evens_and_odds).is_ok());
        let pc = LinePreconditioner::jacobi(&poisson(5)).unwrap();
        assert!(preconditioned_cg(&a, &[1.0; 6], &pc, &SolveOptions::default()).is_err());
    }

    #[test]
    fn cg_reports_non_convergence() {
        let n = 128;
        let a = poisson(n);
        let b = vec![1.0; n];
        let opts = SolveOptions {
            max_iterations: 2,
            tolerance: 1e-14,
        };
        match conjugate_gradient(&a, &b, &opts) {
            Err(LinalgError::NotConverged { iterations, .. }) => assert_eq!(iterations, 2),
            other => panic!("expected NotConverged, got {other:?}"),
        }
    }

    #[test]
    fn dimension_mismatch_rejected() {
        let a = poisson(4);
        assert!(conjugate_gradient(&a, &[1.0; 3], &SolveOptions::default()).is_err());
        assert!(conjugate_gradient(&a, &[1.0; 5], &SolveOptions::default()).is_err());
        let rect = TripletBuilder::new(3, 4).build();
        assert!(LinePreconditioner::jacobi(&rect).is_err());
    }

    #[test]
    fn empty_system() {
        let a = TripletBuilder::new(0, 0).build();
        let rep = conjugate_gradient(&a, &[], &SolveOptions::default()).unwrap();
        assert!(rep.x.is_empty());
        let pc = LinePreconditioner::new(&a, Vec::new()).unwrap();
        let rep = preconditioned_cg(&a, &[], &pc, &SolveOptions::default()).unwrap();
        assert!(rep.x.is_empty());
    }

    #[test]
    fn badly_scaled_diagonal_still_converges() {
        // Mimics the nodal matrix: wire conductance ~0.4 S, device ~1e-5 S.
        let n = 30;
        let mut t = TripletBuilder::new(n, n);
        for i in 0..n {
            let big = 0.4;
            let small = 1e-5 * (1.0 + i as f64);
            t.add(i, i, 2.0 * big + small);
            if i > 0 {
                t.add(i, i - 1, -big);
            }
            if i + 1 < n {
                t.add(i, i + 1, -big);
            }
        }
        let a = t.build();
        let x_true: Vec<f64> = (0..n).map(|i| 1.0 + (i as f64) * 0.01).collect();
        let b = a.matvec(&x_true);
        let rep = conjugate_gradient(&a, &b, &SolveOptions::with_tolerance(1e-12)).unwrap();
        for (u, v) in rep.x.iter().zip(&x_true) {
            assert!((u - v).abs() < 1e-6);
        }
    }
}
