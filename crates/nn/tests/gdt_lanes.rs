//! Lockstep lanes of the hinge-SGD kernel: lane `k` of
//! `GdtTrainer::train_columns_penalized` must equal, to the last bit, a
//! separate one-lane run at `coeffs[k]`, for any mix of penalty
//! coefficients, L2, α₀, epoch count and class.

use proptest::prelude::*;
use vortex_nn::dataset::{Dataset, DatasetConfig, SynthDigits};
use vortex_nn::gdt::GdtTrainer;
use vortex_nn::NnError;

fn lane_bits<const L: usize>(w: &[[f64; L]], k: usize) -> Vec<u64> {
    w.iter().map(|lanes| lanes[k].to_bits()).collect()
}

fn check_lanes<const L: usize>(
    t: &GdtTrainer,
    data: &Dataset,
    class: u8,
    alpha0: f64,
    coeffs: [f64; L],
) -> proptest::TestCaseResult {
    let lanes = t
        .train_columns_penalized(data, class, alpha0, coeffs)
        .unwrap();
    prop_assert_eq!(lanes.len(), data.num_features());
    for (k, &coeff) in coeffs.iter().enumerate() {
        let single = t
            .train_column_penalized(data, class, alpha0, coeff)
            .unwrap();
        let want: Vec<u64> = single.iter().map(|v| v.to_bits()).collect();
        prop_assert!(
            lane_bits(&lanes, k) == want,
            "lane {k} of {L} at coeff {coeff}"
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn every_lane_is_bit_identical_to_its_own_one_lane_run(
        coeffs in proptest::collection::vec(prop_oneof![Just(0.0), 0.0..1.5f64], 4),
        l2 in prop_oneof![Just(0.0), Just(1e-4)],
        alpha0 in prop_oneof![Just(1.0), 0.5..1.5f64],
        epochs in 1usize..7,
        data_seed in 0u64..1_000,
        seed in proptest::num::u64::ANY,
    ) {
        let data = SynthDigits::generate(&DatasetConfig::tiny(), data_seed).unwrap();
        let t = GdtTrainer {
            epochs,
            l2,
            seed,
            ..Default::default()
        };
        for class in 0..data.num_classes() as u8 {
            check_lanes(&t, &data, class, alpha0, [coeffs[0]])?;
            check_lanes(&t, &data, class, alpha0, [coeffs[1], coeffs[2]])?;
            check_lanes(&t, &data, class, alpha0, [coeffs[0], coeffs[1], coeffs[2], coeffs[3]])?;
            // A short block padded with a coefficient-0 lane, and a zero
            // lane between penalized ones.
            check_lanes(&t, &data, class, alpha0, [coeffs[3], coeffs[2], coeffs[1], 0.0])?;
            check_lanes(&t, &data, class, alpha0, [0.7, 0.0, 1.2, coeffs[0]])?;
        }
    }
}

#[test]
fn a_bad_coefficient_in_any_lane_is_rejected() {
    let data = SynthDigits::generate(&DatasetConfig::tiny(), 5).unwrap();
    let t = GdtTrainer::default();
    for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -1e-9] {
        for lane in 0..4 {
            let mut coeffs = [0.0, 0.3, 0.6, 0.9];
            coeffs[lane] = bad;
            let err = t
                .train_columns_penalized(&data, 0, 1.0, coeffs)
                .unwrap_err();
            assert!(
                matches!(err, NnError::InvalidParameter { name: "coeff", .. }),
                "lane {lane} = {bad}: {err:?}"
            );
        }
        assert!(matches!(
            t.train_columns_penalized(&data, 0, 1.0, [0.3, bad]),
            Err(NnError::InvalidParameter { name: "coeff", .. })
        ));
    }
}
