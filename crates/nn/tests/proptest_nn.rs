//! Property-based tests for the NN substrate.

use proptest::prelude::*;
use vortex_linalg::rng::Xoshiro256PlusPlus;
use vortex_linalg::Matrix;
use vortex_nn::dataset::glyphs::glyph_strokes;
use vortex_nn::dataset::raster::{downsample, rasterize};
use vortex_nn::dataset::{Dataset, DatasetConfig, SynthDigits};
use vortex_nn::executor::{run_trials, Parallelism};
use vortex_nn::split::stratified_split;

fn tiny_dataset(seed: u64) -> Dataset {
    SynthDigits::generate(&DatasetConfig::tiny(), seed).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn generation_is_deterministic_per_seed(seed in proptest::num::u64::ANY) {
        let a = tiny_dataset(seed);
        let b = tiny_dataset(seed);
        prop_assert_eq!(a, b);
    }

    #[test]
    fn downsample_preserves_mean(img in proptest::collection::vec(0.0..1.0f64, 16 * 16),
                                 factor in prop_oneof![Just(2usize), Just(4), Just(8)]) {
        let d = downsample(&img, 16, factor);
        let mean_in: f64 = img.iter().sum::<f64>() / img.len() as f64;
        let mean_out: f64 = d.iter().sum::<f64>() / d.len() as f64;
        prop_assert!((mean_in - mean_out).abs() < 1e-9);
        prop_assert_eq!(d.len(), (16 / factor) * (16 / factor));
    }

    #[test]
    fn rasterized_digits_stay_in_unit_range(digit in 0u8..10, side in 8usize..32,
                                            width in 0.01..0.1f64) {
        let img = rasterize(&glyph_strokes(digit), side, width);
        prop_assert_eq!(img.len(), side * side);
        for &v in &img {
            prop_assert!((0.0..=1.0).contains(&v));
        }
    }

    #[test]
    fn split_partitions_exactly(seed in proptest::num::u64::ANY,
                                n_train in 50usize..150, n_test in 20usize..100) {
        let data = tiny_dataset(1);
        prop_assume!(n_train + n_test <= data.len());
        let mut rng = Xoshiro256PlusPlus::seed_from_u64(seed);
        let s = stratified_split(&data, n_train, n_test, &mut rng).unwrap();
        prop_assert_eq!(s.train.len(), n_train);
        prop_assert_eq!(s.test.len(), n_test);
        prop_assert_eq!(s.train.num_features(), data.num_features());
    }

    #[test]
    fn subset_preserves_labels(seed in proptest::num::u64::ANY) {
        let data = tiny_dataset(2);
        let mut rng = Xoshiro256PlusPlus::seed_from_u64(seed);
        let k = 1 + rng.next_below(data.len() - 1);
        let idx = rng.sample_indices(data.len(), k);
        let sub = data.subset(&idx);
        prop_assert_eq!(sub.len(), k);
        for (pos, &i) in idx.iter().enumerate() {
            prop_assert_eq!(sub.label(pos), data.label(i));
            prop_assert_eq!(sub.image(pos), data.image(i));
        }
    }

    #[test]
    fn classifier_scores_are_linear_in_input(w_vals in proptest::collection::vec(-1.0..1.0f64, 6 * 10),
                                             x in proptest::collection::vec(0.0..1.0f64, 6),
                                             k in 0.1..3.0f64) {
        let w = Matrix::from_vec(6, 10, w_vals).unwrap();
        let c = vortex_nn::classifier::LinearClassifier::new(w).unwrap();
        let s1 = c.scores(&x).unwrap();
        let xk: Vec<f64> = x.iter().map(|v| v * k).collect();
        let s2 = c.scores(&xk).unwrap();
        for (a, b) in s1.iter().zip(&s2) {
            prop_assert!((b - k * a).abs() < 1e-9 * (1.0 + a.abs()));
        }
        // Scaling all inputs uniformly never changes the argmax decision
        // (analog amplitude invariance of the crossbar classifier).
        prop_assert_eq!(c.predict(&x).unwrap(), c.predict(&xk).unwrap());
    }

    #[test]
    fn run_trials_matches_a_serial_split_loop(seed in proptest::num::u64::ANY,
                                              trials in 1usize..40,
                                              threads in 2usize..9) {
        // The reference is the hand-written loop every Monte-Carlo harness
        // used to carry: one `parent.split()` per draw, run in order. The
        // executor must give the same per-draw bits on any worker count,
        // and leave the parent exactly where that loop leaves it.
        let draw = |k: usize, rng: &mut Xoshiro256PlusPlus| {
            (k as f64).mul_add(1e-3, rng.next_f64())
        };
        let mut serial_parent = Xoshiro256PlusPlus::seed_from_u64(seed);
        let serial: Vec<u64> = (0..trials)
            .map(|k| draw(k, &mut serial_parent.split()).to_bits())
            .collect();
        let mut fanned_parent = Xoshiro256PlusPlus::seed_from_u64(seed);
        let fanned: Vec<u64> = run_trials(&mut fanned_parent, trials, Parallelism::Fixed(threads), draw)
            .into_iter()
            .map(f64::to_bits)
            .collect();
        prop_assert_eq!(serial, fanned);
        prop_assert_eq!(serial_parent.next_u64(), fanned_parent.next_u64());
    }
}
