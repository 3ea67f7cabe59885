//! Artifact codec integration tests: round-trips, corruption handling,
//! and cross-worker determinism of the serving path.

use proptest::prelude::*;
use vortex_device::DeviceParams;
use vortex_linalg::rng::Xoshiro256PlusPlus;
use vortex_linalg::Matrix;
use vortex_nn::executor::Parallelism;
use vortex_runtime::artifact::{crc32, ArtifactError, FORMAT_VERSION, MAGIC, MIN_FORMAT_VERSION};
use vortex_runtime::{CompiledModel, Fidelity, ReadOptions, RuntimeError};
use vortex_xbar::crossbar::CrossbarConfig;
use vortex_xbar::pair::{DifferentialPair, WeightMapping};
use vortex_xbar::sensing::{Adc, Dac};

fn compiled(rows: usize, cols: usize, r_wire: f64, fidelity: Fidelity, seed: u64) -> CompiledModel {
    let device = DeviceParams::default();
    let config = CrossbarConfig {
        r_wire,
        ..CrossbarConfig::ideal(rows, cols, device)
    };
    let mapping = WeightMapping::new(&device, 1.0).unwrap();
    let mut rng = Xoshiro256PlusPlus::seed_from_u64(seed);
    let mut pair = DifferentialPair::fabricate(config, mapping, &mut rng).unwrap();
    let w = Matrix::from_fn(rows, cols, |i, j| {
        ((i * cols + j) as f64 * 0.37).sin() * 0.7
    });
    pair.program_open_loop(&w, None, &mut rng).unwrap();
    let assignment: Vec<usize> = (0..rows).collect();
    let mut options = ReadOptions::new(fidelity);
    options.adc = Some(Adc::new(8, 1e-3).unwrap());
    options.dac = Some(Dac::new(6, 1.0).unwrap());
    let reference = vec![0.4; rows];
    CompiledModel::compile(&pair.freeze(), &assignment, &options, Some(&reference)).unwrap()
}

fn artifact_err(r: vortex_runtime::Result<CompiledModel>) -> ArtifactError {
    match r {
        Err(RuntimeError::Artifact(e)) => e,
        other => panic!("expected an artifact error, got {other:?}"),
    }
}

fn probe_inputs(rows: usize) -> Vec<Vec<f64>> {
    (0..7)
        .map(|k| {
            (0..rows)
                .map(|i| (((i + 3 * k) % 5) as f64) / 4.0)
                .collect()
        })
        .collect()
}

#[test]
fn saved_then_loaded_model_predicts_identically() {
    let model = compiled(9, 4, 6.0, Fidelity::Calibrated, 77);
    let path = std::env::temp_dir().join(format!("vxrt-roundtrip-{}.bin", std::process::id()));
    model.save(&path).unwrap();
    let loaded = CompiledModel::load(&path).unwrap();
    std::fs::remove_file(&path).ok();
    for x in probe_inputs(9) {
        let a = model.scores(&x).unwrap();
        let b = loaded.scores(&x).unwrap();
        for (u, v) in a.iter().zip(&b) {
            assert_eq!(u.to_bits(), v.to_bits(), "saved/loaded scores diverge");
        }
        assert_eq!(model.infer(&x).unwrap(), loaded.infer(&x).unwrap());
    }
}

#[test]
fn torn_write_leaves_previous_artifact_intact() {
    use vortex_runtime::artifact::atomic_write;
    let a = compiled(6, 3, 0.0, Fidelity::Ideal, 5);
    let b = compiled(6, 3, 0.0, Fidelity::Ideal, 6);
    let path = std::env::temp_dir().join(format!("vxrt-torn-{}.bin", std::process::id()));
    a.save(&path).unwrap();

    // A crash mid-write of the replacement leaves only a torn temp file
    // beside the target — exactly the on-disk state atomic_write's
    // temp → fsync → rename protocol produces if the process dies before
    // the rename.
    let tmp = path.with_extension("tmp-vxrt");
    let replacement = b.to_bytes();
    std::fs::write(&tmp, &replacement[..replacement.len() / 2]).unwrap();

    // The target never saw a byte of the torn write: it still loads as
    // the previous model, bit for bit.
    let loaded = CompiledModel::load(&path).unwrap();
    for x in probe_inputs(6) {
        assert_eq!(a.infer(&x).unwrap(), loaded.infer(&x).unwrap());
    }

    // A subsequent healthy save simply overwrites the torn temp and
    // promotes the replacement atomically.
    atomic_write(&path, &replacement).unwrap();
    let loaded = CompiledModel::load(&path).unwrap();
    for x in probe_inputs(6) {
        assert_eq!(b.infer(&x).unwrap(), loaded.infer(&x).unwrap());
    }
    assert!(!tmp.exists(), "temp file must not outlive a healthy save");
    std::fs::remove_file(&path).ok();
}

#[test]
fn load_missing_file_is_a_typed_io_error() {
    let path = std::env::temp_dir().join("vxrt-does-not-exist.bin");
    match artifact_err(CompiledModel::load(&path)) {
        ArtifactError::Io { kind, .. } => {
            assert_eq!(kind, std::io::ErrorKind::NotFound);
        }
        other => panic!("expected Io error, got {other:?}"),
    }
}

#[test]
fn truncated_bytes_yield_truncated_or_checksum_errors() {
    let bytes = compiled(6, 3, 0.0, Fidelity::Ideal, 5).to_bytes();
    // Every proper prefix must fail loudly — never decode to a model.
    for cut in 0..bytes.len() {
        let err = artifact_err(CompiledModel::from_bytes(&bytes[..cut]));
        assert!(
            matches!(
                err,
                ArtifactError::Truncated { .. }
                    | ArtifactError::ChecksumMismatch { .. }
                    | ArtifactError::BadMagic
            ),
            "prefix of {cut} bytes gave {err:?}"
        );
    }
}

#[test]
fn flipped_byte_yields_checksum_mismatch() {
    let bytes = compiled(6, 3, 0.0, Fidelity::Ideal, 5).to_bytes();
    // Flip one byte in the section region (past magic + version, before
    // the trailing CRC); the CRC check must catch it before decoding.
    let mut corrupt = bytes.clone();
    let idx = 20;
    corrupt[idx] ^= 0x40;
    match artifact_err(CompiledModel::from_bytes(&corrupt)) {
        ArtifactError::ChecksumMismatch { stored, computed } => {
            assert_ne!(stored, computed);
        }
        other => panic!("expected ChecksumMismatch, got {other:?}"),
    }
}

#[test]
fn wrong_version_yields_unsupported_version() {
    let mut bytes = compiled(6, 3, 0.0, Fidelity::Ideal, 5).to_bytes();
    // The version field sits right after the magic.
    bytes[MAGIC.len()..MAGIC.len() + 4].copy_from_slice(&99u32.to_le_bytes());
    match artifact_err(CompiledModel::from_bytes(&bytes)) {
        ArtifactError::UnsupportedVersion { found, supported } => {
            assert_eq!(found, 99);
            assert_eq!(supported, FORMAT_VERSION);
        }
        other => panic!("expected UnsupportedVersion, got {other:?}"),
    }
}

#[test]
fn canary_survives_the_byte_roundtrip_bit_exactly() {
    let model = compiled(9, 4, 6.0, Fidelity::Calibrated, 77)
        .with_canary_inputs(probe_inputs(9))
        .unwrap();
    assert_eq!(model.canary_accuracy().unwrap(), 1.0);
    let revived = CompiledModel::from_bytes(&model.to_bytes()).unwrap();
    let (a, b) = (model.canary().unwrap(), revived.canary().unwrap());
    assert_eq!(a.golden(), b.golden());
    for (x, y) in a.inputs().iter().zip(b.inputs()) {
        for (u, v) in x.iter().zip(y) {
            assert_eq!(u.to_bits(), v.to_bits(), "canary inputs diverged");
        }
    }
    assert_eq!(revived.canary_accuracy().unwrap(), 1.0);
}

#[test]
fn version_one_artifacts_without_canary_still_load() {
    // A canary-free model's sections are exactly the v1 layout, so
    // rewriting the version field (and the CRC over the patched bytes)
    // synthesizes a faithful v1 artifact.
    let model = compiled(6, 3, 0.0, Fidelity::Ideal, 5);
    let mut bytes = model.to_bytes();
    bytes[MAGIC.len()..MAGIC.len() + 4].copy_from_slice(&MIN_FORMAT_VERSION.to_le_bytes());
    let body = bytes.len() - 4;
    let crc = crc32(&bytes[..body]).to_le_bytes();
    bytes[body..].copy_from_slice(&crc);
    let loaded = CompiledModel::from_bytes(&bytes).unwrap();
    assert!(loaded.canary().is_none());
    for x in probe_inputs(6) {
        assert_eq!(model.infer(&x).unwrap(), loaded.infer(&x).unwrap());
    }
}

#[test]
fn malformed_canary_section_is_a_typed_error() {
    let model = compiled(6, 3, 0.0, Fidelity::Ideal, 5)
        .with_canary_inputs(probe_inputs(6))
        .unwrap();
    let bytes = model.to_bytes();
    // The CNRY section sits last; its payload starts with the probe
    // count. Inflate it so the golden bytes run out, and re-seal the CRC
    // so only the structural error can fire.
    let tag_at = bytes
        .windows(4)
        .rposition(|w| w == b"CNRY")
        .expect("canary section present");
    let mut corrupt = bytes.clone();
    corrupt[tag_at + 12..tag_at + 20].copy_from_slice(&u64::MAX.to_le_bytes());
    let body = corrupt.len() - 4;
    let crc = crc32(&corrupt[..body]).to_le_bytes();
    corrupt[body..].copy_from_slice(&crc);
    match artifact_err(CompiledModel::from_bytes(&corrupt)) {
        ArtifactError::Truncated { .. } | ArtifactError::Malformed { .. } => {}
        other => panic!("expected Truncated/Malformed, got {other:?}"),
    }
}

#[test]
fn every_canary_artifact_prefix_fails_loudly() {
    let bytes = compiled(6, 3, 0.0, Fidelity::Ideal, 5)
        .with_canary_inputs(probe_inputs(6))
        .unwrap()
        .to_bytes();
    for cut in (0..bytes.len()).step_by(7) {
        let err = artifact_err(CompiledModel::from_bytes(&bytes[..cut]));
        assert!(
            matches!(
                err,
                ArtifactError::Truncated { .. }
                    | ArtifactError::ChecksumMismatch { .. }
                    | ArtifactError::BadMagic
            ),
            "prefix of {cut} bytes gave {err:?}"
        );
    }
}

/// Byte offset of a section's payload: tag (4) + length (8).
const SECTION_HEADER: usize = 12;

fn enct_tag_at(bytes: &[u8]) -> usize {
    bytes
        .windows(4)
        .rposition(|w| w == b"ENCT")
        .expect("encoding section present")
}

fn reseal_crc(bytes: &mut [u8]) {
    let body = bytes.len() - 4;
    let crc = crc32(&bytes[..body]).to_le_bytes();
    bytes[body..].copy_from_slice(&crc);
}

#[test]
fn version_two_artifacts_without_enct_load_as_differential() {
    // v2 writers never emitted ENCT: excise the section, stamp version 2
    // and re-seal the CRC to synthesize a faithful v2 artifact. It must
    // load with the default continuous differential-pair table.
    let model = compiled(6, 3, 0.0, Fidelity::Ideal, 5);
    let mut bytes = model.to_bytes();
    let tag_at = enct_tag_at(&bytes);
    let len = u64::from_le_bytes(bytes[tag_at + 4..tag_at + 12].try_into().unwrap()) as usize;
    bytes.drain(tag_at..tag_at + SECTION_HEADER + len);
    bytes[MAGIC.len()..MAGIC.len() + 4].copy_from_slice(&2u32.to_le_bytes());
    // One fewer section than the writer announced.
    let count_at = MAGIC.len() + 4;
    let count = u32::from_le_bytes(bytes[count_at..count_at + 4].try_into().unwrap());
    bytes[count_at..count_at + 4].copy_from_slice(&(count - 1).to_le_bytes());
    reseal_crc(&mut bytes);
    let loaded = CompiledModel::from_bytes(&bytes).unwrap();
    assert_eq!(
        loaded.encoding().scheme(),
        vortex_xbar::encoding::EncodingScheme::Differential
    );
    assert_eq!(loaded.encoding().rows(), 6);
    assert!(loaded.encoding().levels().iter().all(|&l| l == 0));
    for x in probe_inputs(6) {
        assert_eq!(model.infer(&x).unwrap(), loaded.infer(&x).unwrap());
    }
}

#[test]
fn version_three_roundtrips_per_row_encoding_tables() {
    use vortex_xbar::encoding::{EncodingScheme, EncodingTable};
    let device = DeviceParams::default();
    let config = CrossbarConfig::ideal(6, 3, device);
    let mapping = WeightMapping::new(&device, 1.0).unwrap();
    let mut rng = Xoshiro256PlusPlus::seed_from_u64(17);
    let mut pair = DifferentialPair::fabricate(config, mapping, &mut rng).unwrap();
    let w = Matrix::from_fn(6, 3, |i, j| ((i * 3 + j) as f64 * 0.37).sin() * 0.7);
    pair.program_open_loop(&w, None, &mut rng).unwrap();
    let assignment: Vec<usize> = (0..6).collect();
    let options = ReadOptions::new(Fidelity::Ideal);
    // A mixed table: continuous rows (0) interleaved with quantized ones.
    let table = EncodingTable::new(EncodingScheme::AdaptiveRow, vec![0, 4, 16, 64, 4, 0]).unwrap();
    let model =
        CompiledModel::compile_encoded(&pair.freeze(), &assignment, &options, None, table.clone())
            .unwrap();
    assert_eq!(model.encoding(), &table);
    let revived = CompiledModel::from_bytes(&model.to_bytes()).unwrap();
    assert_eq!(revived.encoding(), &table);
    let reloaded = CompiledModel::from_bytes(&revived.to_bytes()).unwrap();
    assert_eq!(reloaded.encoding(), &table);
}

#[test]
fn corrupt_enct_scheme_is_a_typed_error() {
    let mut bytes = compiled(6, 3, 0.0, Fidelity::Ideal, 5).to_bytes();
    let tag_at = enct_tag_at(&bytes);
    // The payload's first byte is the scheme code; 99 maps to nothing.
    bytes[tag_at + SECTION_HEADER] = 99;
    reseal_crc(&mut bytes);
    match artifact_err(CompiledModel::from_bytes(&bytes)) {
        ArtifactError::Malformed { .. } => {}
        other => panic!("expected Malformed, got {other:?}"),
    }
}

#[test]
fn corrupt_enct_row_count_is_a_typed_error() {
    let mut bytes = compiled(6, 3, 0.0, Fidelity::Ideal, 5).to_bytes();
    let tag_at = enct_tag_at(&bytes);
    // Announce far more rows than the payload carries.
    bytes[tag_at + SECTION_HEADER + 1..tag_at + SECTION_HEADER + 9]
        .copy_from_slice(&u64::MAX.to_le_bytes());
    reseal_crc(&mut bytes);
    match artifact_err(CompiledModel::from_bytes(&bytes)) {
        ArtifactError::Malformed { .. } | ArtifactError::Truncated { .. } => {}
        other => panic!("expected Malformed/Truncated, got {other:?}"),
    }
}

#[test]
fn inflated_matrix_and_routing_counts_are_typed_errors() {
    // A CRC-valid artifact whose GPOS row count or ROUT logical-row count
    // announces far more entries than the payload carries must fail typed
    // before the decoder sizes an allocation from it.
    let model = compiled(6, 3, 3.0, Fidelity::Exact, 5);
    for (tag, field) in [(b"GPOS", 0), (b"ROUT", 8)] {
        for announced in [1u64 << 40, u64::MAX / 8, u64::MAX] {
            let mut bytes = model.to_bytes();
            let tag_at = bytes
                .windows(4)
                .position(|w| w == tag)
                .expect("section present");
            let at = tag_at + SECTION_HEADER + field;
            bytes[at..at + 8].copy_from_slice(&announced.to_le_bytes());
            reseal_crc(&mut bytes);
            match artifact_err(CompiledModel::from_bytes(&bytes)) {
                ArtifactError::Malformed { .. } => {}
                other => panic!("expected Malformed for {tag:?}, got {other:?}"),
            }
        }
    }
}

#[test]
fn wrong_magic_yields_bad_magic() {
    let mut bytes = compiled(6, 3, 0.0, Fidelity::Ideal, 5).to_bytes();
    bytes[0] = b'X';
    assert_eq!(
        artifact_err(CompiledModel::from_bytes(&bytes)),
        ArtifactError::BadMagic
    );
}

#[test]
fn infer_batch_is_bit_exact_across_worker_counts() {
    let model = compiled(11, 4, 4.0, Fidelity::Calibrated, 31);
    let inputs: Vec<Vec<f64>> = (0..103)
        .map(|k| {
            (0..11)
                .map(|i| (((i * 7 + k * 13) % 9) as f64) / 8.0)
                .collect()
        })
        .collect();
    let refs: Vec<&[f64]> = inputs.iter().map(Vec::as_slice).collect();
    let serial = model.infer_batch(&refs, Parallelism::Serial).unwrap();
    for workers in [1, 2, 8] {
        let parallel = model
            .infer_batch(&refs, Parallelism::Fixed(workers))
            .unwrap();
        assert_eq!(serial, parallel, "{workers} workers diverged from serial");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn byte_roundtrip_preserves_inference_bits(rows in 2usize..10,
                                               cols in 2usize..5,
                                               seed in proptest::num::u64::ANY) {
        let fidelity = if seed % 2 == 0 { Fidelity::Exact } else { Fidelity::Calibrated };
        let model = compiled(rows, cols, 3.0, fidelity, seed);
        let revived = CompiledModel::from_bytes(&model.to_bytes()).unwrap();
        prop_assert_eq!(revived.fidelity(), model.fidelity());
        prop_assert_eq!(revived.rows(), model.rows());
        prop_assert_eq!(revived.classes(), model.classes());
        for x in probe_inputs(rows) {
            let a = model.scores(&x).unwrap();
            let b = revived.scores(&x).unwrap();
            for (u, v) in a.iter().zip(&b) {
                prop_assert_eq!(u.to_bits(), v.to_bits());
            }
        }
    }
}
