//! Classification metrics: training rate and test rate.
//!
//! The paper's vocabulary (§2.2.3): "training rate" is the fraction of
//! *training* samples fitted by the trained network; "test rate" is the
//! fraction of *test* samples classified correctly by the *programmed*
//! (hardware, variation-bearing) network.

use vortex_linalg::Matrix;

use crate::classifier::batch_predictions;
use crate::dataset::Dataset;
use crate::isa::Isa;

/// Fraction of samples classified correctly by a weight matrix under
/// ideal (software) evaluation, scored like
/// [`crate::classifier::LinearClassifier::accuracy`] but without copying
/// the matrix.
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
/// This is the one accuracy rule: the classifier, [`accuracy_of_weights`],
/// the compiled hardware model and the tiled evaluator all score their
/// argmax predictions through it.
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
    use crate::classifier::LinearClassifier;
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
