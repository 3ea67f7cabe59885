//! The two ISA copies of the wide kernels against each other and
//! against their oracles.
//!
//! - Hinge-SGD step loop: `GdtTrainer::train_columns_penalized_on` must
//!   give bit-equal weights on `Isa::BASELINE` and on AVX2, and every
//!   lane must equal the separate-pass loop below at its coefficient.
//! - Batch scorer: `LinearClassifier::predictions_on` must equal the
//!   per-sample `predict` loop prediction for prediction, on both copies.
//!
//! On a host without AVX2 only the baseline half runs, with a note.

use vortex_linalg::rng::Xoshiro256PlusPlus;
use vortex_linalg::Matrix;
use vortex_nn::dataset::{Dataset, DatasetConfig, SynthDigits};
use vortex_nn::gdt::GdtTrainer;
use vortex_nn::isa::Isa;
use vortex_nn::metrics::accuracy_of_weights;
use vortex_nn::LinearClassifier;

/// Every copy this host can run, baseline first.
fn isas() -> Vec<Isa> {
    let mut isas = vec![Isa::BASELINE];
    match Isa::avx2() {
        Some(avx2) => isas.push(avx2),
        None => println!("note: this CPU has no AVX2; only the baseline copy is tested"),
    }
    isas
}

fn bits<const L: usize>(w: &[[f64; L]]) -> Vec<u64> {
    w.iter().flatten().map(|v| v.to_bits()).collect()
}

/// Trains `coeffs` on every copy and asserts they agree bit for bit;
/// returns the weights.
fn train_on_every_isa<const L: usize>(
    t: &GdtTrainer,
    data: &Dataset,
    class: u8,
    coeffs: [f64; L],
) -> Vec<[f64; L]> {
    let isas = isas();
    let base = t
        .train_columns_penalized_on(isas[0], data, class, 1.0, coeffs)
        .unwrap();
    for &isa in &isas[1..] {
        let wide = t
            .train_columns_penalized_on(isa, data, class, 1.0, coeffs)
            .unwrap();
        assert!(
            bits(&wide) == bits(&base),
            "{isa:?} differs from baseline: L = {L}, class {class}, coeffs {coeffs:?}, {t:?}"
        );
    }
    base
}

/// The separate-pass loop the kernel fuses, for one coefficient at
/// `α₀ = 1`: `x·w`, then `‖x ∘ w‖₂`, then the L2 shrink, the hinge step
/// and the penalty step, one pass each.
fn reference_column(t: &GdtTrainer, data: &Dataset, class: u8, coeff: f64) -> Vec<f64> {
    let mut w = vec![0.0_f64; data.num_features()];
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
            let score: f64 = x.iter().zip(&w).map(|(a, b)| a * b).sum();
            let xw: Vec<f64> = x.iter().zip(&w).map(|(a, b)| a * b).collect();
            let penalty_norm = xw.iter().map(|v| v * v).sum::<f64>().sqrt();
            let violated = target * score - coeff * penalty_norm < t.margin;
            if t.l2 > 0.0 {
                w.iter_mut().for_each(|v| *v *= 1.0 - alpha * t.l2);
            }
            if violated {
                for (wq, &xq) in w.iter_mut().zip(x) {
                    *wq += alpha * target * xq;
                }
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

#[test]
fn hinge_copies_are_bit_identical_to_each_other_and_the_separate_passes() {
    let data = SynthDigits::generate(&DatasetConfig::tiny(), 7).unwrap();
    for (epochs, l2, seed) in [(6, 0.0, 1), (6, 1e-4, 2), (3, 1e-2, u64::MAX)] {
        let t = GdtTrainer {
            epochs,
            l2,
            seed,
            ..Default::default()
        };
        for class in [0, 4, 9] {
            let mut lanes: Vec<(f64, Vec<f64>)> = Vec::new();
            for coeff in [0.0, 0.35] {
                let w = train_on_every_isa(&t, &data, class, [coeff]);
                lanes.push((coeff, w.iter().map(|[v]| *v).collect()));
            }
            for coeffs in [[0.0; 4], [0.0, 0.2, 0.7, 1.3], [0.9, 0.0, 0.4, 0.0]] {
                let w = train_on_every_isa(&t, &data, class, coeffs);
                for (k, &coeff) in coeffs.iter().enumerate() {
                    lanes.push((coeff, w.iter().map(|lane| lane[k]).collect()));
                }
            }
            for (coeff, lane) in lanes {
                let want = reference_column(&t, &data, class, coeff);
                assert!(
                    lane.iter()
                        .map(|v| v.to_bits())
                        .eq(want.iter().map(|v| v.to_bits())),
                    "class {class} at coeff {coeff}, {t:?}"
                );
            }
        }
    }
}

/// One one-pixel sample of the trained class, at a rate that meets the
/// margin after the first step: every later step, and so every later
/// epoch, violates no lane and only defers its L2 decay. The weight must
/// then be the first step's `α₁` shrunk by each later step's decay in
/// turn, as the separate-pass loop computes it.
#[test]
fn epochs_without_violations_defer_their_decay_on_every_copy() {
    let data = Dataset::from_parts(Matrix::from_vec(1, 1, vec![1.0]).unwrap(), vec![3], 1).unwrap();
    let t = GdtTrainer {
        epochs: 40,
        learning_rate: 2.0,
        l2: 1e-3,
        ..Default::default()
    };
    let alpha = |step: usize| t.learning_rate / (1.0 + step as f64 * t.l2);
    let mut want = alpha(1);
    for step in 2..=t.epochs {
        want *= 1.0 - alpha(step) * t.l2;
    }
    // The weight stays above 1.8, so the padded margin (1 − coeff)·w
    // stays above 1 for every coeff ≤ 0.4.
    let w = train_on_every_isa(&t, &data, 3, [0.0, 0.1, 0.3, 0.4]);
    for (k, &lane) in w[0].iter().enumerate() {
        assert_eq!(lane.to_bits(), want.to_bits(), "lane {k}: {lane} vs {want}");
    }
    let w = train_on_every_isa(&t, &data, 3, [0.25]);
    assert_eq!(w[0][0].to_bits(), want.to_bits());
}

/// A dataset of `len` samples with `side²` pixels: about 20% `+0`, 10%
/// `−0`, and the rest either continuous in `[−1, 1]` or, when
/// `quantized`, one of a few dyadic values, so that scores tie exactly.
fn pixels(len: usize, side: usize, quantized: bool, rng: &mut Xoshiro256PlusPlus) -> Dataset {
    let images = Matrix::from_fn(len, side * side, |_, _| {
        let u = rng.next_f64();
        if u < 0.2 {
            0.0
        } else if u < 0.3 {
            -0.0
        } else if quantized {
            [0.25, 0.5, 1.0, -0.5][rng.next_below(4)]
        } else {
            rng.range_f64(-1.0, 1.0)
        }
    });
    let labels = (0..len).map(|_| rng.next_below(10) as u8).collect();
    Dataset::from_parts(images, labels, side).unwrap()
}

/// Weights for `classes` classes. Quantized weights are small integers,
/// so sums of dyadic products tie across classes; column 1, when there
/// is one, copies column 0, so those two tie on every sample.
fn weights(
    features: usize,
    classes: usize,
    quantized: bool,
    rng: &mut Xoshiro256PlusPlus,
) -> Matrix {
    let mut w = Matrix::from_fn(features, classes, |_, _| {
        if quantized {
            rng.next_below(5) as f64 - 2.0
        } else {
            rng.range_f64(-1.0, 1.0)
        }
    });
    if classes > 1 {
        for q in 0..features {
            w[(q, 1)] = w[(q, 0)];
        }
    }
    w
}

/// Asserts that every copy's batch predictions equal the per-sample
/// `predict` loop, and that the batch accuracies equal its rate.
fn check_scorer(w: Matrix, data: &Dataset) {
    let c = LinearClassifier::new(w).unwrap();
    let oracle: Vec<u8> = (0..data.len())
        .map(|i| c.predict(data.image(i)).unwrap())
        .collect();
    for isa in isas() {
        assert_eq!(
            c.predictions_on(isa, data).unwrap(),
            oracle,
            "{isa:?}: {} classes, {} samples",
            c.num_classes(),
            data.len()
        );
    }
    let correct = (0..data.len())
        .filter(|&i| oracle[i] == data.label(i))
        .count();
    let rate = correct as f64 / data.len() as f64;
    assert_eq!(c.accuracy(data).unwrap().to_bits(), rate.to_bits());
    assert_eq!(
        accuracy_of_weights(c.weights(), data).to_bits(),
        rate.to_bits()
    );
}

#[test]
fn batch_scorer_predicts_like_predict() {
    let mut rng = Xoshiro256PlusPlus::seed_from_u64(20);
    for classes in [1, 3, 10, 13] {
        for len in [1, 5, 480] {
            for side in [3, 7] {
                for quantized in [false, true] {
                    let data = pixels(len, side, quantized, &mut rng);
                    let w = weights(side * side, classes, quantized, &mut rng);
                    check_scorer(w, &data);
                }
            }
        }
    }
}

/// `0·∞` is NaN, so dense accumulation would differ from `vecmat`'s zero
/// skip: a column holding ±∞ or NaN must still score like `predict`.
/// Pixels are non-negative here and class 0's other weights large, so
/// class 0 wins every sample whose pixel 0 is zero, and dropping the
/// finiteness guard would turn its score into NaN and change the winner.
#[test]
fn non_finite_weights_score_like_predict() {
    let mut rng = Xoshiro256PlusPlus::seed_from_u64(21);
    for bad in [f64::INFINITY, f64::NEG_INFINITY, f64::NAN] {
        for (classes, len) in [(3, 5), (10, 480), (13, 97)] {
            let signed = pixels(len, 7, false, &mut rng);
            let images = Matrix::from_fn(len, 49, |i, q| {
                let v = signed.image(i)[q];
                if v == 0.0 {
                    v
                } else {
                    v.abs()
                }
            });
            let data = Dataset::from_parts(images, signed.labels().to_vec(), 7).unwrap();
            let mut w = weights(49, classes, false, &mut rng);
            for q in 0..49 {
                w[(q, 0)] = 8.0;
            }
            w[(0, 0)] = bad;
            let zero_pixel = (0..len).any(|i| data.image(i)[0] == 0.0);
            assert!(zero_pixel || len < 10, "no sample exercises 0·{bad}");
            check_scorer(w, &data);
        }
    }
}
