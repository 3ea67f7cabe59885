//! The linear "1 vs. all" classifier realized by a crossbar.
//!
//! §4.1.1: the computation is `y = x·W` with `W` an `n × m` weight matrix
//! (one column per class); the predicted class is the argmax output.

use vortex_linalg::{vector, Matrix};

use crate::dataset::Dataset;
use crate::isa::Isa;
use crate::metrics::accuracy_of_predictions;
use crate::{NnError, Result};

/// A linear multi-class classifier `y = x·W`, class = argmax(y).
#[derive(Debug, Clone, PartialEq)]
pub struct LinearClassifier {
    weights: Matrix,
}

impl LinearClassifier {
    /// Wraps a weight matrix (`features × classes`).
    ///
    /// # Errors
    ///
    /// Returns [`NnError::InvalidParameter`] for an empty matrix.
    pub fn new(weights: Matrix) -> Result<Self> {
        if weights.rows() == 0 || weights.cols() == 0 {
            return Err(NnError::InvalidParameter {
                name: "weights",
                requirement: "must be non-empty",
            });
        }
        Ok(Self { weights })
    }

    /// The weight matrix.
    pub fn weights(&self) -> &Matrix {
        &self.weights
    }

    /// Number of input features.
    pub fn num_features(&self) -> usize {
        self.weights.rows()
    }

    /// Number of classes.
    pub fn num_classes(&self) -> usize {
        self.weights.cols()
    }

    /// Raw class scores `x·W`.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::ShapeMismatch`] if `x` has the wrong length.
    pub fn scores(&self, x: &[f64]) -> Result<Vec<f64>> {
        if x.len() != self.num_features() {
            return Err(NnError::ShapeMismatch {
                context: "LinearClassifier::scores",
                expected: self.num_features(),
                actual: x.len(),
            });
        }
        Ok(self.weights.vecmat(x))
    }

    /// Predicted class of one sample.
    ///
    /// # Errors
    ///
    /// See [`Self::scores`].
    pub fn predict(&self, x: &[f64]) -> Result<u8> {
        let s = self.scores(x)?;
        Ok(vector::argmax(&s).unwrap_or(0) as u8)
    }

    /// Predicted class of every sample of `data`, in sample order, each
    /// bit-identical to [`Self::predict`] on that sample.
    ///
    /// Runs the batch scorer compiled for `isa`: it packs the weights
    /// once, scores four samples at a time and allocates nothing per
    /// sample. Every `isa` gives the same predictions.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::ShapeMismatch`] if feature counts disagree.
    pub fn predictions_on(&self, isa: Isa, data: &Dataset) -> Result<Vec<u8>> {
        if data.num_features() != self.num_features() {
            return Err(NnError::ShapeMismatch {
                context: "LinearClassifier::predictions",
                expected: self.num_features(),
                actual: data.num_features(),
            });
        }
        Ok(batch_predictions(&self.weights, data, isa))
    }

    /// Fraction of `data` classified correctly, scored by
    /// [`Self::predictions_on`] on the copy [`Isa::host`] selects.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::ShapeMismatch`] if feature counts disagree.
    pub fn accuracy(&self, data: &Dataset) -> Result<f64> {
        let predictions = self.predictions_on(Isa::host(), data)?;
        Ok(accuracy_of_predictions(&predictions, data))
    }
}

/// Classes scored per pass of the batch scorer.
const WIDTH: usize = 12;
/// Samples scored per block of the batch scorer.
const BLOCK: usize = 4;

/// Predicted class of every sample of `data` under the `features ×
/// classes` matrix `weights`, in sample order, on the batch scorer
/// compiled for `isa`.
///
/// The scorer packs the weights once into rows of [`WIDTH`] classes,
/// zero-padded, and scores [`BLOCK`] samples at a time into fixed
/// accumulators, one per sample and class, each summed over the features
/// in [`Matrix::vecmat`]'s row order. It allocates nothing per sample.
///
/// Each prediction is bit-identical to [`LinearClassifier::predict`].
/// `vecmat` skips zero pixels; the dense sum adds their `±0` products
/// instead, which changes nothing: an accumulator starts at +0 and so can
/// never be −0, and adding ±0 to anything else leaves it as it is. That
/// holds only while every weight is finite (`0·∞` is NaN), so a matrix
/// with a non-finite weight, like one with no rows, is scored through
/// `predict`'s per-sample path instead.
///
/// # Panics
///
/// Panics if `weights.rows() != data.num_features()`.
pub(crate) fn batch_predictions(weights: &Matrix, data: &Dataset, isa: Isa) -> Vec<u8> {
    assert_eq!(
        weights.rows(),
        data.num_features(),
        "batch_predictions: feature count mismatch"
    );
    if weights.rows() == 0 || !weights.as_slice().iter().all(|w| w.is_finite()) {
        return (0..data.len())
            .map(|i| vector::argmax(&weights.vecmat(data.image(i))).unwrap_or(0) as u8)
            .collect();
    }
    let classes = weights.cols();
    let mut packed = Vec::with_capacity(classes.div_ceil(WIDTH) * weights.rows());
    for first in (0..classes).step_by(WIDTH) {
        let width = WIDTH.min(classes - first);
        packed.extend((0..weights.rows()).map(|q| {
            let mut row = [0.0; WIDTH];
            row[..width].copy_from_slice(&weights.row(q)[first..first + width]);
            row
        }));
    }
    let mut out = vec![0; data.len()];
    #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
    if isa.is_avx2() {
        // SAFETY: an `Isa` with AVX2 exists only on a host whose CPU
        // supports AVX2 (`Isa::avx2` checks it).
        unsafe { score_blocks_avx2(&packed, classes, data, &mut out) };
        return out;
    }
    #[cfg(not(any(target_arch = "x86", target_arch = "x86_64")))]
    let _ = isa;
    score_blocks(&packed, classes, data, &mut out);
    out
}

/// The batch scorer's loop: fills `out` with the prediction of every
/// sample of `data` under the packed weights. The one body behind both
/// ISA copies.
#[inline(always)]
fn score_blocks(packed: &[[f64; WIDTH]], classes: usize, data: &Dataset, out: &mut [u8]) {
    let n = data.num_features();
    let padded = packed.len() / n * WIDTH;
    let last = data.len().saturating_sub(1);
    let mut scores = vec![0.0; BLOCK * padded];
    for (b, preds) in out.chunks_mut(BLOCK).enumerate() {
        // A short last block repeats its last sample in the spare slots.
        let x: [&[f64]; BLOCK] = std::array::from_fn(|s| data.image((b * BLOCK + s).min(last)));
        for (pass, rows) in packed.chunks_exact(n).enumerate() {
            let mut acc = [[0.0; WIDTH]; BLOCK];
            for (q, wq) in rows.iter().enumerate() {
                for (acc_s, x_s) in acc.iter_mut().zip(&x) {
                    let xq = x_s[q];
                    for (a, &w) in acc_s.iter_mut().zip(wq) {
                        *a += xq * w;
                    }
                }
            }
            for (s, acc_s) in acc.iter().enumerate() {
                scores[s * padded + pass * WIDTH..][..WIDTH].copy_from_slice(acc_s);
            }
        }
        for (s, pred) in preds.iter_mut().enumerate() {
            let sample = &scores[s * padded..][..classes];
            *pred = vector::argmax(sample).unwrap_or(0) as u8;
        }
    }
}

/// [`score_blocks`] compiled for AVX2.
///
/// # Safety
///
/// The CPU must support AVX2.
#[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
#[target_feature(enable = "avx2")]
unsafe fn score_blocks_avx2(
    packed: &[[f64; WIDTH]],
    classes: usize,
    data: &Dataset,
    out: &mut [u8],
) {
    score_blocks(packed, classes, data, out);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::{DatasetConfig, SynthDigits};

    #[test]
    fn validation() {
        assert!(LinearClassifier::new(Matrix::zeros(0, 3)).is_err());
        assert!(LinearClassifier::new(Matrix::zeros(4, 0)).is_err());
        assert!(LinearClassifier::new(Matrix::zeros(4, 3)).is_ok());
    }

    #[test]
    fn predict_argmax() {
        // Weights that route feature k to class k.
        let w = Matrix::identity(3);
        let c = LinearClassifier::new(w).unwrap();
        assert_eq!(c.predict(&[0.1, 0.9, 0.2]).unwrap(), 1);
        assert_eq!(c.predict(&[1.0, 0.0, 0.0]).unwrap(), 0);
        assert!(c.predict(&[1.0, 0.0]).is_err());
    }

    #[test]
    fn accuracy_of_perfect_oracle() {
        let data = SynthDigits::generate(&DatasetConfig::tiny(), 17).unwrap();
        // An oracle predicts every label.
        let acc = accuracy_of_predictions(data.labels(), &data);
        assert_eq!(acc, 1.0);
    }

    #[test]
    fn accuracy_of_constant_classifier_is_class_rate() {
        let data = SynthDigits::generate(&DatasetConfig::tiny(), 18).unwrap();
        let acc = accuracy_of_predictions(&vec![3; data.len()], &data);
        assert!((acc - 0.1).abs() < 1e-9); // balanced classes
    }

    #[test]
    fn accuracy_checks_shapes() {
        let data = SynthDigits::generate(&DatasetConfig::tiny(), 19).unwrap();
        let c = LinearClassifier::new(Matrix::zeros(5, 10)).unwrap();
        assert!(c.accuracy(&data).is_err());
    }
}
