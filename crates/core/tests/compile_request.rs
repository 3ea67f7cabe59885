//! Equivalence and behaviour tests for the [`CompileRequest`] builder.
//!
//! Every route to a programmed chip shares one programming step; these
//! tests pin that equivalence at the strongest available granularity —
//! byte equality of the serialized artifact.

use vortex_core::amp::greedy::RowMapping;
use vortex_core::pipeline::HardwareEnv;
use vortex_core::vortex::{fabricate_pair, program_mapped};
use vortex_core::CoreError;
use vortex_device::cell::CellKind;
use vortex_linalg::rng::Xoshiro256PlusPlus;
use vortex_linalg::Matrix;
use vortex_nn::dataset::{Dataset, DatasetConfig, SynthDigits};
use vortex_nn::executor::Parallelism;
use vortex_nn::gdt::GdtTrainer;
use vortex_xbar::encoding::{EncodingScheme, EncodingSpec};

fn small_setup() -> (Dataset, Matrix) {
    let data = SynthDigits::generate(&DatasetConfig::tiny(), 7).unwrap();
    let w = GdtTrainer {
        epochs: 10,
        ..Default::default()
    }
    .train(&data)
    .unwrap();
    (data, w)
}

/// The request builder and the Vortex phase functions are two routes to
/// the same programmed chip: drawn from one seed, they must freeze into
/// byte-identical artifacts on every substrate, including the 1T-1R
/// array whose targets need pre-distortion.
#[test]
fn request_and_phase_functions_agree_byte_for_byte() {
    let (data, w) = small_setup();
    let mapping = RowMapping::identity(w.rows());
    let ir_drop = HardwareEnv::with_sigma(0.3).unwrap().with_ir_drop(4.0);
    let mut compensated = ir_drop;
    compensated.compensate_program_irdrop = true;
    let mut one_t1r = HardwareEnv::with_sigma(0.3).unwrap();
    one_t1r.cell = CellKind::one_t1r(3.0e3).unwrap();

    for (name, env) in [
        ("1R + IR-drop", ir_drop),
        ("1R + compensated IR-drop", compensated),
        ("1T-1R", one_t1r),
    ] {
        let compiler = env.compiler().with_calibration(&data.mean_input());
        let via_request = compiler.request(&w, &mapping).seed(31).compile().unwrap();

        let mut rng = Xoshiro256PlusPlus::seed_from_u64(31);
        let mut pair = fabricate_pair(w.cols(), mapping.physical_rows(), &env, &mut rng).unwrap();
        program_mapped(&mut pair, &w, &mapping, &env, &mut rng).unwrap();
        let via_phases = compiler.freeze(&pair, &mapping).unwrap();
        assert_eq!(
            via_request.to_bytes(),
            via_phases.to_bytes(),
            "{name}: request and phase functions compiled different models"
        );
    }
}

#[test]
fn replica_compilation_is_parallelism_invariant() {
    let (data, w) = small_setup();
    let mapping = RowMapping::identity(w.rows());
    let env = HardwareEnv::with_sigma(0.3).unwrap();
    let compiler = env.compiler().with_calibration(&data.mean_input());

    let replicas = |parallelism| {
        compiler
            .request(&w, &mapping)
            .seed(9)
            .parallelism(parallelism)
            .compile_replicas(4)
            .unwrap()
    };
    let serial = replicas(Parallelism::Serial);
    let parallel = replicas(Parallelism::Fixed(4));
    assert_eq!(serial.len(), 4);
    assert_eq!(serial.len(), parallel.len());
    for ((sa, ma), (sb, mb)) in serial.iter().zip(&parallel) {
        assert_eq!(sa, sb);
        assert_eq!(ma.to_bytes(), mb.to_bytes());
    }
}

#[test]
fn mlc_encoding_records_a_uniform_level_table() {
    let (data, w) = small_setup();
    let mapping = RowMapping::identity(w.rows());
    let env = HardwareEnv::with_sigma(0.2).unwrap();
    let compiler = env.compiler().with_calibration(&data.mean_input());

    let model = compiler
        .request(&w, &mapping)
        .encoding(EncodingSpec::MultiLevelCell { bits: 4 })
        .seed(3)
        .compile()
        .unwrap();
    let table = model.encoding();
    assert_eq!(table.scheme(), EncodingScheme::MultiLevel);
    assert_eq!(table.rows(), mapping.physical_rows());
    assert!(table.levels().iter().all(|&l| l == 16));
    assert!((table.effective_bits() - 4.0).abs() < 1e-12);
}

#[test]
fn adaptive_encoding_splits_rows_between_the_two_budgets() {
    let (data, w) = small_setup();
    let mapping = RowMapping::identity(w.rows());
    let env = HardwareEnv::with_sigma(0.2).unwrap();
    let compiler = env.compiler().with_calibration(&data.mean_input());

    let model = compiler
        .request(&w, &mapping)
        .encoding(EncodingSpec::AdaptiveRowQuant {
            low_bits: 2,
            high_bits: 6,
            fine_fraction: 0.5,
        })
        .seed(3)
        .compile()
        .unwrap();
    let table = model.encoding();
    assert_eq!(table.scheme(), EncodingScheme::AdaptiveRow);
    let fine = table.levels().iter().filter(|&&l| l == 64).count();
    let coarse = table.levels().iter().filter(|&&l| l == 4).count();
    assert_eq!(fine + coarse, table.rows());
    let expected_fine = (0.5 * table.rows() as f64).round() as usize;
    assert_eq!(fine, expected_fine);
}

#[test]
fn one_t1r_cell_compiles_and_differs_from_the_passive_array() {
    let (data, w) = small_setup();
    let mapping = RowMapping::identity(w.rows());
    let mut env = HardwareEnv::with_sigma(0.2).unwrap();
    let one_r = env
        .compiler()
        .with_calibration(&data.mean_input())
        .request(&w, &mapping)
        .seed(11)
        .compile()
        .unwrap();
    env.cell = CellKind::one_t1r(3.0e3).unwrap();
    let one_t1r = env
        .compiler()
        .with_calibration(&data.mean_input())
        .request(&w, &mapping)
        .seed(11)
        .compile()
        .unwrap();
    // The access transistor reshapes the frozen conductances …
    assert_ne!(one_r.to_bytes(), one_t1r.to_bytes());
    // … but NEAT pre-distortion keeps the classifier serviceable.
    let acc = one_t1r.accuracy(&data).unwrap();
    assert!(acc > 0.5, "1T-1R accuracy collapsed to {acc}");
}

#[test]
fn canary_inputs_ride_the_request() {
    let (data, w) = small_setup();
    let mapping = RowMapping::identity(w.rows());
    let env = HardwareEnv::with_sigma(0.2).unwrap();
    let probes: Vec<Vec<f64>> = (0..3).map(|k| data.image(k).to_vec()).collect();
    let model = env
        .compiler()
        .with_calibration(&data.mean_input())
        .request(&w, &mapping)
        .seed(21)
        .canary_inputs(probes)
        .compile()
        .unwrap();
    let canary = model.canary().expect("request should freeze a canary set");
    assert_eq!(canary.len(), 3);
    assert!((model.canary_accuracy().unwrap() - 1.0).abs() < 1e-12);
}

#[test]
fn missing_seed_is_a_typed_error() {
    let (_, w) = small_setup();
    let mapping = RowMapping::identity(w.rows());
    let env = HardwareEnv::ideal();
    let compiler = env.compiler();
    let err = compiler.request(&w, &mapping).compile().unwrap_err();
    assert!(matches!(
        err,
        CoreError::InvalidParameter { name: "seed", .. }
    ));
}

/// FNV-1a of a byte string, for pinning compiled artifacts.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Golden bytes of the encoding step: every spec compiled from a fixed
/// seed on a calibrated 1R + IR-drop substrate, through a reversed
/// mapping with two redundant rows so the sensitivity routing is pinned
/// too. A change to the targets any encoding produces, to the programming
/// step or to the artifact layout fails here.
#[test]
fn encoded_compiles_are_pinned() {
    let (data, w) = small_setup();
    let n = w.rows();
    let mapping = RowMapping::from_assignment((1..=n).rev().collect(), n + 2).unwrap();
    let env = HardwareEnv::with_sigma(0.3).unwrap().with_ir_drop(4.0);
    let compiler = env.compiler().with_calibration(&data.mean_input());
    let got = [
        EncodingSpec::DifferentialPair,
        EncodingSpec::MultiLevelCell { bits: 4 },
        EncodingSpec::AdaptiveRowQuant {
            low_bits: 2,
            high_bits: 6,
            fine_fraction: 0.5,
        },
    ]
    .map(|spec| {
        let model = compiler
            .request(&w, &mapping)
            .encoding(spec)
            .seed(17)
            .compile()
            .unwrap();
        let bytes = model.to_bytes();
        (bytes.len(), fnv1a(&bytes))
    });
    assert_eq!(
        got,
        [
            (65559, 0x9fc5_5494_f0f6_86eb),
            (65559, 0xca60_7cc4_3d8d_dc0f),
            (65559, 0x93b8_b941_4a38_a696),
        ],
        "compiled bytes moved"
    );
}

/// One calibration-length rule: a calibration input whose length
/// disagrees with the mapping's logical row count is rejected for every
/// encoding, even on an Ideal substrate that never reads it.
#[test]
fn mismatched_calibration_is_rejected_for_every_encoding() {
    let (data, w) = small_setup();
    let mapping = RowMapping::identity(w.rows());
    let short = &data.mean_input()[..w.rows() - 1];
    let compiler = HardwareEnv::ideal().compiler().with_calibration(short);
    for spec in [
        EncodingSpec::DifferentialPair,
        EncodingSpec::MultiLevelCell { bits: 4 },
    ] {
        let err = compiler
            .request(&w, &mapping)
            .encoding(spec)
            .seed(5)
            .compile()
            .unwrap_err();
        assert!(
            matches!(
                err,
                CoreError::InvalidParameter {
                    name: "calibration",
                    ..
                }
            ),
            "{spec:?}: {err:?}"
        );
    }
}
