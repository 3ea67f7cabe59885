//! The f32 fast-path contract, property-tested: scores stay inside the
//! analytic error radius of the f64 reference, and certified labels are
//! *exactly* the reference labels — on random matrices and on compiled
//! models shaped like the bench datasets, across batch shapes and worker
//! counts.

use proptest::prelude::*;
use vortex_device::DeviceParams;
use vortex_linalg::rng::Xoshiro256PlusPlus;
use vortex_linalg::{vector, Matrix};
use vortex_nn::executor::Parallelism;
use vortex_runtime::kernels::{gemv_ref, FastGemv};
use vortex_runtime::{CompiledModel, Fidelity, ReadOptions};
use vortex_xbar::crossbar::CrossbarConfig;
use vortex_xbar::encoding::EncodingTable;
use vortex_xbar::pair::{DifferentialPair, WeightMapping};
use vortex_xbar::program::{program_with_protocol, ProgramOptions};
use vortex_xbar::sensing::{Adc, Dac};

/// Compiles a small model on fabricated hardware; `adc` switches the
/// quantized back end (which must disable the fast path) on and off.
fn compiled(rows: usize, fidelity: Fidelity, adc: bool, seed: u64) -> CompiledModel {
    let cols = 4;
    let device = DeviceParams::default();
    let config = CrossbarConfig {
        r_wire: 4.0,
        ..CrossbarConfig::ideal(rows, cols, device)
    };
    let mapping = WeightMapping::new(&device, 1.0).unwrap();
    let mut rng = Xoshiro256PlusPlus::seed_from_u64(seed);
    let mut pair = DifferentialPair::fabricate(config, mapping, &mut rng).unwrap();
    let w = Matrix::from_fn(rows, cols, |i, j| {
        ((i * cols + j) as f64 * 0.37).sin() * 0.7
    });
    let (tp, tn) = pair.mapping().weights_to_targets(&w);
    let protocol = ProgramOptions::default();
    program_with_protocol(pair.pos_mut(), &tp, None, &protocol, &mut rng).unwrap();
    program_with_protocol(pair.neg_mut(), &tn, None, &protocol, &mut rng).unwrap();
    let assignment: Vec<usize> = (0..rows).collect();
    let mut options = ReadOptions::new(fidelity);
    if adc {
        options.adc = Some(Adc::new(8, 1e-3).unwrap());
    }
    options.dac = Some(Dac::new(6, 1.0).unwrap());
    let reference = vec![0.4; rows];
    CompiledModel::compile(
        &pair.freeze(),
        &assignment,
        &options,
        Some(&reference),
        EncodingTable::differential(pair.rows()),
    )
    .unwrap()
}

fn inputs_for(rows: usize, count: usize) -> Vec<Vec<f64>> {
    (0..count)
        .map(|k| {
            (0..rows)
                .map(|i| (((i * 7 + k * 13) % 9) as f64) / 8.0)
                .collect()
        })
        .collect()
}

/// The f64 reference of the combined differential read:
/// `(pos - neg)/scale` per column, in `gemv_ref`'s operation order.
fn reference_scores(pos: &Matrix, neg: &Matrix, scale: f64, x: &[f64]) -> Vec<f64> {
    let cols = pos.shape().1;
    let mut ip = vec![0.0; cols];
    let mut in_ = vec![0.0; cols];
    gemv_ref(pos, x, &mut ip);
    gemv_ref(neg, x, &mut in_);
    ip.iter().zip(&in_).map(|(p, n)| (p - n) / scale).collect()
}

/// A conductance-shaped random pair: positive entries around `scale`.
fn random_pair(rows: usize, cols: usize, seed: u64, scale: f64) -> (Matrix, Matrix) {
    let mut rng = Xoshiro256PlusPlus::seed_from_u64(seed);
    let mut draw = |_: usize, _: usize| scale * (0.05 + 1.9 * rng.next_f64());
    let pos = Matrix::from_fn(rows, cols, &mut draw);
    let neg = Matrix::from_fn(rows, cols, &mut draw);
    (pos, neg)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The analytic radius really bounds the f32/f64 disagreement: for
    /// random conductance pairs and random inputs, every f32 score sits
    /// within `‖x‖₁ · radius(j)` of the f64 reference score.
    #[test]
    fn f32_scores_stay_inside_the_analytic_radius(rows in 1usize..96,
                                                  cols in 1usize..12,
                                                  seed in proptest::num::u64::ANY) {
        let scale = 2.5e-4;
        let (pos, neg) = random_pair(rows, cols, seed, scale);
        let fast = FastGemv::from_effective(&pos, &neg, scale);
        let mut rng = Xoshiro256PlusPlus::seed_from_u64(seed ^ 0x9e37_79b9);
        let x: Vec<f64> = (0..rows).map(|_| 2.0 * rng.next_f64() - 0.5).collect();
        let norm1: f64 = x.iter().map(|v| v.abs()).sum();
        let reference = reference_scores(&pos, &neg, scale, &x);

        let mut x32 = vec![0f32; rows];
        let mut s32 = vec![0f32; cols];
        for (dst, &v) in x32.iter_mut().zip(&x) {
            *dst = v as f32;
        }
        fast.scores_into(&x32, &mut s32);
        for j in 0..cols {
            let err = (f64::from(s32[j]) - reference[j]).abs();
            let bound = norm1 * fast.radius(j);
            prop_assert!(
                err <= bound,
                "col {j}: |{} - {}| = {err:e} exceeds radius {bound:e}",
                s32[j], reference[j]
            );
        }
    }

    /// Certification is sound on arbitrary random instances: whenever the
    /// fast path answers at all, its label is the reference argmax.
    #[test]
    fn certified_labels_equal_the_reference_argmax(rows in 1usize..96,
                                                   cols in 2usize..12,
                                                   seed in proptest::num::u64::ANY) {
        let scale = 2.5e-4;
        let (pos, neg) = random_pair(rows, cols, seed, scale);
        let fast = FastGemv::from_effective(&pos, &neg, scale);
        let mut x32 = vec![0f32; rows];
        let mut s32 = vec![0f32; cols];
        let mut rng = Xoshiro256PlusPlus::seed_from_u64(!seed);
        for _ in 0..8 {
            let x: Vec<f64> = (0..rows).map(|_| rng.next_f64()).collect();
            let reference = reference_scores(&pos, &neg, scale, &x);
            let want = vector::argmax(&reference).unwrap();
            if let Some(got) = fast.certified_label(&x, &mut x32, &mut s32) {
                prop_assert_eq!(got, want);
            }
        }
    }

    /// End to end on a compiled model: the fast-path `infer` and the
    /// forced-reference `infer` agree label for label, and the batched
    /// read agrees at every batch shape and worker count — for the
    /// calibrated read and for the exact read's transfer matrices.
    #[test]
    fn compiled_model_labels_are_kernel_invariant(rows in 2usize..24,
                                                  exact in 0u8..2,
                                                  seed in proptest::num::u64::ANY) {
        let fidelity = if exact == 1 { Fidelity::Exact } else { Fidelity::Calibrated };
        let fast = compiled(rows, fidelity, false, seed);
        prop_assert!(fast.fast_path_enabled(), "ADC-free {fidelity:?} model must take the fast path");
        let reference = fast.clone().with_reference_kernel();
        prop_assert!(!reference.fast_path_enabled());

        let inputs = inputs_for(rows, 37);
        let refs: Vec<&[f64]> = inputs.iter().map(Vec::as_slice).collect();
        for x in &inputs {
            prop_assert_eq!(fast.infer(x).unwrap(), reference.infer(x).unwrap());
            // Scores are the reference kernel's on both: bit-identical.
            let a = fast.scores(x).unwrap();
            let b = reference.scores(x).unwrap();
            for (u, v) in a.iter().zip(&b) {
                prop_assert_eq!(u.to_bits(), v.to_bits());
            }
        }
        let golden = reference.infer_batch(&refs, Parallelism::Serial).unwrap();
        for workers in [1, 2, 8] {
            let got = fast.infer_batch(&refs, Parallelism::Fixed(workers)).unwrap();
            prop_assert_eq!(&golden, &got);
        }
        // Batch shape must not matter either: per-sample == one batch.
        for (x, &want) in inputs.iter().zip(&golden) {
            prop_assert_eq!(fast.infer(x).unwrap(), want);
        }
    }
}

#[test]
fn fast_path_gating_follows_fidelity_and_adc() {
    // ADC-free reads of every fidelity may use the fast path (Exact
    // compiles its nodal mesh into static transfer matrices); an ADC
    // quantizes *after* the analog product, so its presence forces the
    // reference.
    assert!(compiled(9, Fidelity::Ideal, false, 7).fast_path_enabled());
    assert!(compiled(9, Fidelity::Calibrated, false, 7).fast_path_enabled());
    assert!(compiled(9, Fidelity::Exact, false, 7).fast_path_enabled());
    assert!(!compiled(9, Fidelity::Ideal, true, 7).fast_path_enabled());
    assert!(!compiled(9, Fidelity::Calibrated, true, 7).fast_path_enabled());
    assert!(!compiled(9, Fidelity::Exact, true, 7).fast_path_enabled());
    assert!(!compiled(9, Fidelity::Calibrated, false, 7)
        .with_reference_kernel()
        .fast_path_enabled());
}

#[test]
fn bench_shaped_dataset_labels_agree_exactly() {
    // The runtime bench compiles a 196-row digit classifier with
    // calibration and no ADC — the exact configuration the fast path
    // serves. Labels must match the reference on every sample.
    let rows = 196;
    let fast = compiled(rows, Fidelity::Calibrated, false, 1234);
    assert!(fast.fast_path_enabled());
    let reference = fast.clone().with_reference_kernel();
    let inputs = inputs_for(rows, 211);
    let refs: Vec<&[f64]> = inputs.iter().map(Vec::as_slice).collect();
    let a = fast.infer_batch(&refs, Parallelism::Fixed(4)).unwrap();
    let b = reference.infer_batch(&refs, Parallelism::Serial).unwrap();
    assert_eq!(a, b, "bench-shaped labels diverged between kernels");
}

#[test]
fn artifact_roundtrip_reenables_the_fast_path() {
    // The derived matrix is rebuilt on load, so a saved-then-loaded model
    // keeps the fast path — and keeps the same labels.
    let model = compiled(11, Fidelity::Calibrated, false, 99);
    let revived = CompiledModel::from_bytes(&model.to_bytes()).unwrap();
    assert!(revived.fast_path_enabled());
    for x in inputs_for(11, 17) {
        assert_eq!(model.infer(&x).unwrap(), revived.infer(&x).unwrap());
    }
}
