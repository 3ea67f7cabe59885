//! The fused VAT column kernel against the separate-pass loop it
//! replaced: `VatTrainer::train_column` must reproduce the reference
//! below to the last bit for any γ, σ, L2 and epoch count.
//!
//! The reference is the earlier hinge-SGD loop kept here verbatim,
//! together with the `vortex_linalg::vector` primitives it called, so a
//! later change to those primitives cannot move the reference with the
//! code under test.

use proptest::prelude::*;
use vortex_core::vat::VatTrainer;
use vortex_linalg::rng::Xoshiro256PlusPlus;
use vortex_nn::dataset::{Dataset, DatasetConfig, SynthDigits};

fn dot(x: &[f64], y: &[f64]) -> f64 {
    assert_eq!(x.len(), y.len(), "dot: length mismatch");
    x.iter().zip(y).map(|(a, b)| a * b).sum()
}

fn norm2(x: &[f64]) -> f64 {
    dot(x, x).sqrt()
}

fn axpy(alpha: f64, x: &[f64], y: &mut [f64]) {
    assert_eq!(x.len(), y.len(), "axpy: length mismatch");
    for (yi, xi) in y.iter_mut().zip(x) {
        *yi += alpha * xi;
    }
}

fn scale(alpha: f64, x: &mut [f64]) {
    for xi in x.iter_mut() {
        *xi *= alpha;
    }
}

fn hadamard(x: &[f64], y: &[f64]) -> Vec<f64> {
    assert_eq!(x.len(), y.len(), "hadamard: length mismatch");
    x.iter().zip(y).map(|(a, b)| a * b).collect()
}

/// The separate-pass VAT column loop: `dot`, then `norm2(hadamard(..))`,
/// then `scale`, `axpy` and the penalty update, one pass each.
fn reference_column(t: &VatTrainer, data: &Dataset, class: u8) -> Vec<f64> {
    let n = data.num_features();
    let coeff = t.penalty_coefficient(n).unwrap();
    let mut w = vec![0.0_f64; n];
    let mut order: Vec<usize> = (0..data.len()).collect();
    let mut rng = Xoshiro256PlusPlus::seed_from_u64(t.seed ^ ((class as u64) << 32));
    let mut step_count = 0usize;

    for _epoch in 0..t.epochs {
        rng.shuffle(&mut order);
        for &i in &order {
            step_count += 1;
            let alpha = t.learning_rate / (1.0 + step_count as f64 * t.l2.max(1e-6));
            let x = data.image(i);
            let target = if data.label(i) == class { 1.0 } else { -1.0 };
            let score = dot(x, &w);
            let xw = hadamard(x, &w);
            let penalty_norm = norm2(&xw);
            let violated = t.alpha0 * target * score - coeff * penalty_norm < t.margin;
            if t.l2 > 0.0 {
                scale(1.0 - alpha * t.l2, &mut w);
            }
            if violated {
                axpy(alpha * t.alpha0 * target, x, &mut w);
                if coeff > 0.0 && penalty_norm > 1e-12 {
                    let scale = alpha * coeff / penalty_norm;
                    for ((wq, &xq), &xwq) in w.iter_mut().zip(x).zip(&xw) {
                        *wq -= scale * xq * xwq;
                    }
                }
            }
        }
    }
    w
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn fused_column_kernel_is_bit_identical_to_the_separate_passes(
        gamma in prop_oneof![Just(0.0), 0.0..1.0f64, Just(1.0)],
        sigma in prop_oneof![Just(0.0), 0.3..0.8f64],
        l2 in prop_oneof![Just(0.0), Just(1e-4)],
        epochs in 1usize..7,
        alpha0 in prop_oneof![Just(1.0), 0.5..1.5f64],
        data_seed in 0u64..1_000,
        seed in proptest::num::u64::ANY,
    ) {
        let data = SynthDigits::generate(&DatasetConfig::tiny(), data_seed).unwrap();
        let t = VatTrainer {
            epochs,
            gamma,
            sigma,
            l2,
            alpha0,
            seed,
            ..Default::default()
        };
        for class in 0..data.num_classes() as u8 {
            let fused = t.train_column(&data, class).unwrap();
            prop_assert_eq!(bits(&fused), bits(&reference_column(&t, &data, class)));
        }
    }
}
