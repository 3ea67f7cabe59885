//! LU factorization with partial pivoting.
//!
//! Used for small dense systems: validating the iterative nodal solvers in
//! [`crate::iterative`] and solving the reduced circuit models directly when
//! the crossbar is small enough that a direct solve is cheaper.

use crate::{LinalgError, Matrix, Result};

/// LU factorization `P·A = L·U` of a square matrix, with partial pivoting.
///
/// # Example
///
/// ```
/// use vortex_linalg::{Matrix, lu::LuFactorization};
///
/// # fn main() -> Result<(), vortex_linalg::LinalgError> {
/// let a = Matrix::from_rows(&[vec![4.0, 3.0], vec![6.0, 3.0]]);
/// let lu = LuFactorization::compute(&a)?;
/// let x = lu.solve(&[10.0, 12.0])?;
/// assert!((x[0] - 1.0).abs() < 1e-12);
/// assert!((x[1] - 2.0).abs() < 1e-12);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct LuFactorization {
    /// Packed L (unit lower, below diagonal) and U (upper incl. diagonal).
    lu: Matrix,
    /// Row permutation: `perm[i]` is the original row now in position `i`.
    perm: Vec<usize>,
}

impl LuFactorization {
    /// Factorizes a square matrix.
    ///
    /// # Errors
    ///
    /// * [`LinalgError::DimensionMismatch`] if the matrix is not square.
    /// * [`LinalgError::Singular`] if a pivot is (numerically) zero.
    pub fn compute(a: &Matrix) -> Result<Self> {
        let n = a.rows();
        if a.cols() != n {
            return Err(LinalgError::DimensionMismatch {
                context: "LuFactorization::compute (matrix must be square)",
                expected: n,
                actual: a.cols(),
            });
        }
        let mut lu = a.clone();
        let mut perm: Vec<usize> = (0..n).collect();

        for k in 0..n {
            // Partial pivoting: largest |entry| in column k at or below row k.
            let mut pivot_row = k;
            let mut pivot_val = lu[(k, k)].abs();
            for i in (k + 1)..n {
                let v = lu[(i, k)].abs();
                if v > pivot_val {
                    pivot_val = v;
                    pivot_row = i;
                }
            }
            if pivot_val < 1e-300 {
                return Err(LinalgError::Singular { pivot: k });
            }
            if pivot_row != k {
                for j in 0..n {
                    let tmp = lu[(k, j)];
                    lu[(k, j)] = lu[(pivot_row, j)];
                    lu[(pivot_row, j)] = tmp;
                }
                perm.swap(k, pivot_row);
            }
            let pivot = lu[(k, k)];
            for i in (k + 1)..n {
                let factor = lu[(i, k)] / pivot;
                lu[(i, k)] = factor;
                for j in (k + 1)..n {
                    let delta = factor * lu[(k, j)];
                    lu[(i, j)] -= delta;
                }
            }
        }
        Ok(Self { lu, perm })
    }

    /// Solves `A·x = b`.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] if `b.len()` differs from
    /// the factorized dimension.
    #[allow(clippy::needless_range_loop)] // triangular solves read x[j] while writing x[i]
    pub fn solve(&self, b: &[f64]) -> Result<Vec<f64>> {
        let n = self.lu.rows();
        if b.len() != n {
            return Err(LinalgError::DimensionMismatch {
                context: "LuFactorization::solve",
                expected: n,
                actual: b.len(),
            });
        }
        // Apply permutation, then forward substitution (L has unit diagonal).
        let mut x: Vec<f64> = self.perm.iter().map(|&p| b[p]).collect();
        for i in 1..n {
            let mut s = x[i];
            for j in 0..i {
                s -= self.lu[(i, j)] * x[j];
            }
            x[i] = s;
        }
        // Back substitution with U.
        for i in (0..n).rev() {
            let mut s = x[i];
            for j in (i + 1)..n {
                s -= self.lu[(i, j)] * x[j];
            }
            x[i] = s / self.lu[(i, i)];
        }
        Ok(x)
    }
}

/// One-shot convenience: solve `A·x = b` by LU.
///
/// # Errors
///
/// See [`LuFactorization::compute`] and [`LuFactorization::solve`].
pub fn solve(a: &Matrix, b: &[f64]) -> Result<Vec<f64>> {
    LuFactorization::compute(a)?.solve(b)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn residual(a: &Matrix, x: &[f64], b: &[f64]) -> f64 {
        let ax = a.matvec(x);
        ax.iter()
            .zip(b)
            .map(|(u, v)| (u - v).abs())
            .fold(0.0, f64::max)
    }

    #[test]
    fn solve_2x2() {
        let a = Matrix::from_rows(&[vec![2.0, 1.0], vec![1.0, 3.0]]);
        let b = [5.0, 10.0];
        let x = solve(&a, &b).unwrap();
        assert!(residual(&a, &x, &b) < 1e-12);
        assert!((x[0] - 1.0).abs() < 1e-12);
        assert!((x[1] - 3.0).abs() < 1e-12);
    }

    #[test]
    fn solve_requires_pivoting() {
        // Zero on the diagonal forces a row swap.
        let a = Matrix::from_rows(&[vec![0.0, 1.0], vec![1.0, 0.0]]);
        let x = solve(&a, &[3.0, 4.0]).unwrap();
        assert_eq!(x, vec![4.0, 3.0]);
    }

    #[test]
    fn singular_is_detected() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0], vec![2.0, 4.0]]);
        match LuFactorization::compute(&a) {
            Err(LinalgError::Singular { .. }) => {}
            other => panic!("expected Singular, got {other:?}"),
        }
    }

    #[test]
    fn non_square_rejected() {
        let a = Matrix::zeros(2, 3);
        assert!(matches!(
            LuFactorization::compute(&a),
            Err(LinalgError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn one_factorization_solves_every_unit_rhs() {
        let a = Matrix::from_rows(&[
            vec![4.0, -2.0, 1.0],
            vec![3.0, 6.0, -4.0],
            vec![2.0, 1.0, 8.0],
        ]);
        // One factorization, reused for every unit right-hand side: the
        // solutions are the columns of A⁻¹.
        let lu = LuFactorization::compute(&a).unwrap();
        for j in 0..3 {
            let mut e = vec![0.0; 3];
            e[j] = 1.0;
            let col = lu.solve(&e).unwrap();
            assert!(residual(&a, &col, &e) < 1e-10);
        }
    }

    #[test]
    fn random_spd_system() {
        // Build an SPD-ish diagonally dominant matrix and check the solve.
        let n = 20;
        let a = Matrix::from_fn(n, n, |i, j| {
            if i == j {
                10.0 + i as f64
            } else {
                1.0 / (1.0 + (i as f64 - j as f64).abs())
            }
        });
        let x_true: Vec<f64> = (0..n).map(|i| (i as f64 * 0.37).sin()).collect();
        let b = a.matvec(&x_true);
        let x = solve(&a, &b).unwrap();
        for (u, v) in x.iter().zip(&x_true) {
            assert!((u - v).abs() < 1e-9);
        }
    }

    #[test]
    fn solve_wrong_rhs_length() {
        let a = Matrix::identity(3);
        let lu = LuFactorization::compute(&a).unwrap();
        assert!(lu.solve(&[1.0, 2.0]).is_err());
    }
}
