//! The fused delta-rule kernel against the per-(class, feature) loop it
//! replaced: `DeltaRule::epoch` must reproduce the reference below to the
//! last bit, weights and mean squared error alike, for any shape, ADC,
//! IR-drop profile and saturation bound.
//!
//! The reference is the earlier CLD loop kept here verbatim (a fresh
//! `vecmat` and sensed-output `Vec` per sample, then the weights updated
//! class by class down each column), together with the `vecmat` it
//! called, so a later change to the library cannot move the reference
//! with the code under test.

use proptest::prelude::*;
use vortex_core::cld::{achieved_update_scale, nlms_step_scale, DeltaRule};
use vortex_core::pipeline::HardwareEnv;
use vortex_linalg::rng::Xoshiro256PlusPlus;
use vortex_linalg::Matrix;
use vortex_nn::dataset::Dataset;
use vortex_xbar::sensing::Adc;

fn vecmat(w: &Matrix, x: &[f64]) -> Vec<f64> {
    let mut y = vec![0.0; w.cols()];
    for (i, &xi) in x.iter().enumerate() {
        if xi == 0.0 {
            continue;
        }
        for (yj, wij) in y.iter_mut().zip(w.row(i)) {
            *yj += xi * wij;
        }
    }
    y
}

/// One pass of the per-(class, feature) loop. Returns the mean squared
/// sensed error and how many (sample, class) pairs were sensed exactly
/// on target.
fn reference_epoch(
    w: &mut Matrix,
    train: &Dataset,
    order: &[usize],
    rule: &DeltaRule<'_>,
) -> (f64, usize) {
    let c = train.num_classes();
    let mut sq_err = 0.0;
    let mut on_target = 0;
    for &i in order {
        let x = train.image(i);
        let label = train.label(i);
        let y = vecmat(w, x);
        let y_sensed: Vec<f64> = match rule.adc {
            Some(adc) => y.iter().map(|&v| adc.quantize_signed(v)).collect(),
            None => y,
        };
        for j in 0..c {
            let target = if label as usize == j { 1.0 } else { -1.0 };
            let err = target - y_sensed[j];
            sq_err += err * err;
            if err == 0.0 {
                on_target += 1;
                continue;
            }
            let step = rule.step_scale * err;
            for (q, &xq) in x.iter().enumerate() {
                if xq == 0.0 {
                    continue;
                }
                let mut delta = step * xq;
                delta *= rule.update_scale[(q, j)];
                if let Some(profile) = rule.irdrop_profile {
                    delta *= profile[(q, j)];
                }
                w[(q, j)] = (w[(q, j)] + delta).clamp(-rule.w_max, rule.w_max);
            }
        }
    }
    (sq_err / (train.len() * c) as f64, on_target)
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// A random `samples × side²` dataset: pixels of either sign with about a
/// third exact zeros (the kernel's input skip), labels over all ten
/// classes.
fn random_dataset(side: usize, samples: usize, rng: &mut Xoshiro256PlusPlus) -> Dataset {
    let images = Matrix::from_fn(samples, side * side, |_, _| {
        if rng.bool_with_probability(0.3) {
            0.0
        } else {
            rng.range_f64(-0.5, 1.0)
        }
    });
    let labels = (0..samples).map(|_| rng.next_below(10) as u8).collect();
    Dataset::from_parts(images, labels, side).unwrap()
}

/// Starting weights inside `±w_max`, with exact `±0.0` and `±w_max`
/// cells: a class sensed on target must leave a `-0.0` cell alone, which
/// an update by a zero step would flip to `+0.0`.
fn random_weights(rows: usize, w_max: f64, rng: &mut Xoshiro256PlusPlus) -> Matrix {
    Matrix::from_fn(rows, 10, |_, _| match rng.next_below(6) {
        0 => -0.0,
        1 => 0.0,
        2 => w_max,
        3 => -w_max,
        _ => rng.range_f64(-w_max, w_max),
    })
}

/// Runs `epochs` passes of the kernel and of the reference from the same
/// start and asserts every pass agrees bit for bit. Returns the
/// reference's on-target count over all passes.
fn assert_bit_identical(
    train: &Dataset,
    start: &Matrix,
    rule: &DeltaRule<'_>,
    epochs: usize,
    shuffle_seed: u64,
) -> usize {
    let mut fused = start.clone();
    let mut reference = start.clone();
    let mut order: Vec<usize> = (0..train.len()).collect();
    let mut rng = Xoshiro256PlusPlus::seed_from_u64(shuffle_seed);
    let mut on_target = 0;
    for epoch in 0..epochs {
        rng.shuffle(&mut order);
        let mse = rule.epoch(&mut fused, train, &order);
        let (want, hits) = reference_epoch(&mut reference, train, &order, rule);
        on_target += hits;
        assert_eq!(
            mse.to_bits(),
            want.to_bits(),
            "mse differs at epoch {epoch}"
        );
        assert_eq!(
            bits(fused.as_slice()),
            bits(reference.as_slice()),
            "weights differ at epoch {epoch}"
        );
    }
    on_target
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn fused_epoch_is_bit_identical_to_the_per_class_loop(
        side in 1usize..9,
        samples in 1usize..40,
        sigma in prop_oneof![Just(0.0), 0.2..1.5f64],
        adc_bits in prop_oneof![Just(None), Just(Some(2u32)), Just(Some(6u32))],
        with_profile in prop_oneof![Just(false), Just(true)],
        w_max in prop_oneof![Just(0.02), 0.02..2.0f64],
        learning_rate in prop_oneof![Just(0.01), 0.01..2.0f64],
        epochs in 1usize..6,
        seed in proptest::num::u64::ANY,
    ) {
        let mut rng = Xoshiro256PlusPlus::seed_from_u64(seed);
        let train = random_dataset(side, samples, &mut rng);
        let n = train.num_features();
        let env = HardwareEnv::with_sigma(sigma).unwrap();
        let update_scale = achieved_update_scale(&env, n, 10, &mut rng);
        let profile = Matrix::from_fn(n, 10, |_, _| rng.range_f64(0.1, 1.0));
        // A 2-bit ADC over full scale 4 has a 1.0 step and a 6-bit one a
        // 1/16 step: both sense ±1 exactly, so the on-target skip runs.
        let adc = adc_bits.map(|bits| Adc::new(bits, 4.0).unwrap());
        let rule = DeltaRule {
            step_scale: nlms_step_scale(&train, learning_rate),
            update_scale: &update_scale,
            irdrop_profile: with_profile.then_some(&profile),
            adc: adc.as_ref(),
            w_max,
        };
        let start = random_weights(n, w_max, &mut rng);
        assert_bit_identical(&train, &start, &rule, epochs, seed ^ 0x5eed);
    }
}

#[test]
fn on_target_classes_leave_their_cells_untouched() {
    // Ideal sensing, two pixels both lit: class j's output is
    // `w[0][j] + w[1][j]`. Row 0 sits exactly on the ±1 targets of label
    // 3 and row 1 is `-0.0`, so every class is sensed on target and the
    // pass must not touch a single cell — not even to turn `-0.0` into
    // `+0.0` with a zero-sized step.
    let images = Matrix::from_fn(2, 4, |_, q| if q < 2 { 1.0 } else { 0.0 });
    let train = Dataset::from_parts(images, vec![3, 3], 2).unwrap();
    let start = Matrix::from_fn(4, 10, |q, j| match q {
        0 if j == 3 => 1.0,
        0 => -1.0,
        1 => -0.0,
        _ => 0.5,
    });
    let update_scale = Matrix::filled(4, 10, 1.0);
    let rule = DeltaRule {
        step_scale: 0.25,
        update_scale: &update_scale,
        irdrop_profile: None,
        adc: None,
        w_max: 1.0,
    };
    let mut w = start.clone();
    let mse = rule.epoch(&mut w, &train, &[0, 1]);
    assert_eq!(mse, 0.0);
    assert_eq!(bits(w.as_slice()), bits(start.as_slice()));
    assert_eq!(assert_bit_identical(&train, &start, &rule, 3, 1), 60);
}

#[test]
fn saturating_runs_hit_the_targets_exactly() {
    // A large step drives the weights into the `±w_max` clamp, the
    // sensed outputs land on ±1 exactly, and from then on the skip
    // carries most of the pass — the kernel must still agree with the
    // reference bit for bit, with the default 6-bit ADC and ideal
    // sensing alike.
    let mut rng = Xoshiro256PlusPlus::seed_from_u64(11);
    let images = Matrix::from_fn(20, 9, |i, q| if q == i % 9 { 1.0 } else { 0.0 });
    let labels = (0..20).map(|i| (i % 9) as u8).collect();
    let train = Dataset::from_parts(images, labels, 3).unwrap();
    let update_scale =
        achieved_update_scale(&HardwareEnv::with_sigma(0.5).unwrap(), 9, 10, &mut rng);
    let adc = Adc::new(6, 4.0).unwrap();
    for adc in [None, Some(&adc)] {
        let rule = DeltaRule {
            step_scale: nlms_step_scale(&train, 5.0),
            update_scale: &update_scale,
            irdrop_profile: None,
            adc,
            w_max: 1.0,
        };
        let start = Matrix::zeros(9, 10);
        let hits = assert_bit_identical(&train, &start, &rule, 6, 2);
        assert!(hits > 0, "no class was ever sensed on target");
    }
}
