//! Variation-sensitivity analysis — Eq. (11) of the paper.
//!
//! `∂y_j/∂e^{θ_ij} = x_i · w_ij`: the damage a device's variation can do
//! is proportional to the product of its input and its weight. A weight
//! *row* shares one input line, so its aggregate sensitivity is
//! `E[|x_i|] · Σ_j |w_ij|`.

use vortex_linalg::Matrix;
use vortex_nn::dataset::Dataset;

/// Per-feature mean absolute input over a dataset.
pub fn mean_abs_inputs(data: &Dataset) -> Vec<f64> {
    let mut acc = vec![0.0; data.num_features()];
    for i in 0..data.len() {
        for (a, &v) in acc.iter_mut().zip(data.image(i)) {
            *a += v.abs();
        }
    }
    let n = data.len().max(1) as f64;
    for a in &mut acc {
        *a /= n;
    }
    acc
}

/// Sensitivity of every weight row: `s_p = x̄_p · Σ_j |w_pj|`.
///
/// # Panics
///
/// Panics if `mean_abs_input.len() != weights.rows()`.
pub fn row_sensitivity(weights: &Matrix, mean_abs_input: &[f64]) -> Vec<f64> {
    assert_eq!(
        mean_abs_input.len(),
        weights.rows(),
        "sensitivity: input length mismatch"
    );
    (0..weights.rows())
        .map(|p| {
            let row_l1: f64 = weights.row(p).iter().map(|w| w.abs()).sum();
            mean_abs_input[p] * row_l1
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use vortex_nn::dataset::{DatasetConfig, SynthDigits};

    #[test]
    fn mean_abs_inputs_matches_manual() {
        let d = SynthDigits::generate(&DatasetConfig::tiny(), 3).unwrap();
        let m = mean_abs_inputs(&d);
        let manual: f64 = (0..d.len()).map(|i| d.image(i)[10].abs()).sum::<f64>() / d.len() as f64;
        assert!((m[10] - manual).abs() < 1e-12);
    }

    #[test]
    fn row_sensitivity_orders_by_weight_and_input() {
        let w = Matrix::from_rows(&[
            vec![1.0, 1.0], // big weights
            vec![0.1, 0.1], // small weights
            vec![1.0, 1.0], // big weights but dead input
        ]);
        let xbar = vec![1.0, 1.0, 0.0];
        let s = row_sensitivity(&w, &xbar);
        assert!(s[0] > s[1]);
        assert_eq!(s[2], 0.0);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn wrong_input_length_panics() {
        let w = Matrix::zeros(3, 2);
        let _ = row_sensitivity(&w, &[1.0, 2.0]);
    }
}
