//! Classification metrics: training rate, test rate, confusion matrices.
//!
//! The paper's vocabulary (§2.2.3): "training rate" is the fraction of
//! *training* samples fitted by the trained network; "test rate" is the
//! fraction of *test* samples classified correctly by the *programmed*
//! (hardware, variation-bearing) network.

use vortex_linalg::Matrix;

use crate::classifier::{batch_predictions, LinearClassifier};
use crate::dataset::Dataset;
use crate::isa::Isa;
use crate::Result;

/// Fraction of samples classified correctly by a weight matrix under
/// ideal (software) evaluation, scored like
/// [`LinearClassifier::accuracy`] but without copying the matrix.
///
/// Returns 0 for an empty dataset or matrix, and when the matrix's row
/// count differs from the dataset's feature count.
pub fn accuracy_of_weights(weights: &Matrix, data: &Dataset) -> f64 {
    if weights.rows() == 0 || weights.cols() == 0 || weights.rows() != data.num_features() {
        return 0.0;
    }
    accuracy_of_predictions(&batch_predictions(weights, data, Isa::host()), data)
}

/// Fraction of `data` whose label matches the given per-sample
/// predictions (0 for an empty dataset).
///
/// The arithmetic (`correct / len`) is identical to
/// [`crate::classifier::accuracy_with`], so scoring through a prediction
/// vector is bit-exact with scoring inline.
///
/// # Panics
///
/// Panics if `predictions.len() != data.len()`.
pub fn accuracy_of_predictions(predictions: &[u8], data: &Dataset) -> f64 {
    assert_eq!(
        predictions.len(),
        data.len(),
        "accuracy_of_predictions: length mismatch"
    );
    if data.is_empty() {
        return 0.0;
    }
    let correct = predictions
        .iter()
        .enumerate()
        .filter(|&(i, &p)| p == data.label(i))
        .count();
    correct as f64 / data.len() as f64
}

/// Confusion matrix (`true class × predicted class`, counts).
///
/// # Errors
///
/// Returns a shape error if the classifier and dataset disagree.
pub fn confusion_matrix(classifier: &LinearClassifier, data: &Dataset) -> Result<Matrix> {
    let k = data.num_classes();
    let mut cm = Matrix::zeros(k, k);
    for i in 0..data.len() {
        let pred = classifier.predict(data.image(i))? as usize;
        let truth = data.label(i) as usize;
        cm[(truth, pred.min(k - 1))] += 1.0;
    }
    Ok(cm)
}

/// Per-class recall (diagonal of the row-normalized confusion matrix).
pub fn per_class_recall(cm: &Matrix) -> Vec<f64> {
    (0..cm.rows())
        .map(|i| {
            let total: f64 = (0..cm.cols()).map(|j| cm[(i, j)]).sum();
            if total > 0.0 {
                cm[(i, i)] / total
            } else {
                0.0
            }
        })
        .collect()
}

/// A labelled pair of the paper's two headline rates.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Rates {
    /// Fraction of training samples fitted (ideal weights).
    pub training_rate: f64,
    /// Fraction of test samples classified correctly (programmed
    /// hardware).
    pub test_rate: f64,
}

impl std::fmt::Display for Rates {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "training rate {:.1}%, test rate {:.1}%",
            100.0 * self.training_rate,
            100.0 * self.test_rate
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::{DatasetConfig, SynthDigits};
    use crate::gdt::GdtTrainer;

    fn data() -> Dataset {
        SynthDigits::generate(&DatasetConfig::tiny(), 55).unwrap()
    }

    #[test]
    fn accuracy_of_weights_matches_classifier() {
        let d = data();
        let w = GdtTrainer::default().train(&d).unwrap();
        let via_helper = accuracy_of_weights(&w, &d);
        let via_classifier = LinearClassifier::new(w).unwrap().accuracy(&d).unwrap();
        assert_eq!(via_helper, via_classifier);
    }

    #[test]
    fn confusion_matrix_row_sums_are_class_counts() {
        let d = data();
        let w = GdtTrainer::default().train(&d).unwrap();
        let c = LinearClassifier::new(w).unwrap();
        let cm = confusion_matrix(&c, &d).unwrap();
        for digit in 0..10 {
            let row_sum: f64 = (0..10).map(|j| cm[(digit, j)]).sum();
            assert_eq!(row_sum as usize, 30);
        }
        let total: f64 = cm.as_slice().iter().sum();
        assert_eq!(total as usize, d.len());
    }

    #[test]
    fn recall_matches_diagonal() {
        let d = data();
        let w = GdtTrainer::default().train(&d).unwrap();
        let c = LinearClassifier::new(w).unwrap();
        let cm = confusion_matrix(&c, &d).unwrap();
        let recall = per_class_recall(&cm);
        assert_eq!(recall.len(), 10);
        for (digit, r) in recall.iter().enumerate() {
            assert!((*r - cm[(digit, digit)] / 30.0).abs() < 1e-12);
        }
        // Overall accuracy equals the mean recall (balanced classes).
        let acc = c.accuracy(&d).unwrap();
        let mean_recall: f64 = recall.iter().sum::<f64>() / 10.0;
        assert!((acc - mean_recall).abs() < 1e-9);
    }

    #[test]
    fn rates_display() {
        let r = Rates {
            training_rate: 0.947,
            test_rate: 0.849,
        };
        let s = r.to_string();
        assert!(s.contains("94.7"));
        assert!(s.contains("84.9"));
    }
}
