//! Compressed-sparse-row matrices.
//!
//! The crossbar IR-drop nodal equations produce large, very sparse,
//! diagonally dominant systems (≤ 6 non-zeros per row: each wire node
//! couples to at most two wire neighbours, one device, and itself). CSR
//! with triplet assembly is all we need.

/// Triplet-based builder for a [`CsrMatrix`].
///
/// Duplicate `(row, col)` entries are summed at build time, which matches
/// the usual finite-difference / nodal-analysis stamping workflow.
#[derive(Debug, Clone, Default)]
pub struct TripletBuilder {
    rows: usize,
    cols: usize,
    entries: Vec<(usize, usize, f64)>,
}

impl TripletBuilder {
    /// Creates a builder for a `rows × cols` matrix.
    pub fn new(rows: usize, cols: usize) -> Self {
        Self {
            rows,
            cols,
            entries: Vec::new(),
        }
    }

    /// Adds `value` at `(row, col)` (accumulating with prior entries).
    ///
    /// # Panics
    ///
    /// Panics if the coordinates are out of bounds.
    pub fn add(&mut self, row: usize, col: usize, value: f64) {
        assert!(
            row < self.rows && col < self.cols,
            "triplet ({row},{col}) out of bounds for {}x{}",
            self.rows,
            self.cols
        );
        if value != 0.0 {
            self.entries.push((row, col, value));
        }
    }

    /// Number of raw (pre-deduplication) entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether no entries have been added.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Builds the CSR matrix, summing duplicates.
    pub fn build(mut self) -> CsrMatrix {
        self.entries.sort_unstable_by_key(|&(r, c, _)| (r, c));
        let mut values = Vec::with_capacity(self.entries.len());
        let mut col_idx = Vec::with_capacity(self.entries.len());
        let mut row_ptr = vec![0usize; self.rows + 1];

        let mut it = self.entries.into_iter().peekable();
        for r in 0..self.rows {
            while let Some(&(er, ec, _)) = it.peek() {
                if er != r {
                    break;
                }
                let mut sum = 0.0;
                while let Some(&(er2, ec2, v)) = it.peek() {
                    if er2 == r && ec2 == ec {
                        sum += v;
                        it.next();
                    } else {
                        break;
                    }
                }
                if sum != 0.0 {
                    values.push(sum);
                    col_idx.push(ec);
                }
            }
            row_ptr[r + 1] = values.len();
        }
        CsrMatrix {
            rows: self.rows,
            cols: self.cols,
            values,
            col_idx,
            row_ptr,
        }
    }
}

/// Compressed-sparse-row matrix of `f64`.
///
/// # Example
///
/// ```
/// use vortex_linalg::sparse::TripletBuilder;
///
/// let mut b = TripletBuilder::new(2, 2);
/// b.add(0, 0, 2.0);
/// b.add(1, 1, 3.0);
/// let m = b.build();
/// assert_eq!(m.matvec(&[1.0, 1.0]), vec![2.0, 3.0]);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct CsrMatrix {
    rows: usize,
    cols: usize,
    values: Vec<f64>,
    col_idx: Vec<usize>,
    row_ptr: Vec<usize>,
}

impl CsrMatrix {
    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Number of stored non-zeros.
    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// Iterator over `(col, value)` pairs of row `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= rows`.
    pub fn row_iter(&self, i: usize) -> impl Iterator<Item = (usize, f64)> + '_ {
        assert!(i < self.rows, "row {i} out of bounds");
        let start = self.row_ptr[i];
        let end = self.row_ptr[i + 1];
        self.col_idx[start..end]
            .iter()
            .copied()
            .zip(self.values[start..end].iter().copied())
    }

    /// Value at `(i, j)` (0 if not stored).
    pub fn get(&self, i: usize, j: usize) -> f64 {
        self.row_iter(i)
            .find(|&(c, _)| c == j)
            .map_or(0.0, |(_, v)| v)
    }

    /// Diagonal entries (length `min(rows, cols)`).
    pub fn diagonal(&self) -> Vec<f64> {
        (0..self.rows.min(self.cols))
            .map(|i| self.get(i, i))
            .collect()
    }

    /// Matrix–vector product `y = A·x`.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != cols`.
    pub fn matvec(&self, x: &[f64]) -> Vec<f64> {
        let mut y = vec![0.0; self.rows];
        self.matvec_into(x, &mut y);
        y
    }

    /// Matrix–vector product into a caller-owned buffer: `y ← A·x`.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != cols` or `y.len() != rows`.
    pub fn matvec_into(&self, x: &[f64], y: &mut [f64]) {
        assert_eq!(x.len(), self.cols, "sparse matvec: length mismatch");
        assert_eq!(y.len(), self.rows, "sparse matvec: output length mismatch");
        for (i, yi) in y.iter_mut().enumerate() {
            *yi = self.row_iter(i).map(|(c, v)| v * x[c]).sum();
        }
    }

    /// Converts to a dense [`crate::Matrix`] (testing/small systems only).
    pub fn to_dense(&self) -> crate::Matrix {
        let mut m = crate::Matrix::zeros(self.rows, self.cols);
        for i in 0..self.rows {
            for (j, v) in self.row_iter(i) {
                m[(i, j)] += v;
            }
        }
        m
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> CsrMatrix {
        let mut b = TripletBuilder::new(3, 3);
        b.add(0, 0, 4.0);
        b.add(0, 1, -1.0);
        b.add(1, 0, -1.0);
        b.add(1, 1, 4.0);
        b.add(1, 2, -1.0);
        b.add(2, 1, -1.0);
        b.add(2, 2, 4.0);
        b.build()
    }

    #[test]
    fn build_and_get() {
        let m = sample();
        assert_eq!(m.nnz(), 7);
        assert_eq!(m.get(0, 0), 4.0);
        assert_eq!(m.get(0, 2), 0.0);
        assert_eq!(m.get(2, 1), -1.0);
    }

    #[test]
    fn duplicates_are_summed() {
        let mut b = TripletBuilder::new(2, 2);
        b.add(0, 0, 1.0);
        b.add(0, 0, 2.5);
        b.add(1, 1, 1.0);
        let m = b.build();
        assert_eq!(m.get(0, 0), 3.5);
        assert_eq!(m.nnz(), 2);
    }

    #[test]
    fn zero_entries_skipped() {
        let mut b = TripletBuilder::new(2, 2);
        b.add(0, 0, 0.0);
        b.add(1, 0, 1.0);
        b.add(1, 0, -1.0); // cancels to zero at build
        let m = b.build();
        assert_eq!(m.nnz(), 0);
    }

    #[test]
    fn matvec_matches_dense() {
        let m = sample();
        let d = m.to_dense();
        let x = vec![1.0, 2.0, 3.0];
        let ys = m.matvec(&x);
        let yd = d.matvec(&x);
        assert_eq!(ys, yd);
    }

    #[test]
    fn diagonal_extraction() {
        let m = sample();
        assert_eq!(m.diagonal(), vec![4.0, 4.0, 4.0]);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn triplet_out_of_bounds_panics() {
        let mut b = TripletBuilder::new(2, 2);
        b.add(2, 0, 1.0);
    }

    #[test]
    fn empty_matrix() {
        let b = TripletBuilder::new(0, 0);
        assert!(b.is_empty());
        let m = b.build();
        assert_eq!(m.nnz(), 0);
        assert!(m.matvec(&[]).is_empty());
    }
}
