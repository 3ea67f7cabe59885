//! Training-job checkpoints: the `TRNC` section of the artifact format.
//!
//! A close-loop training job (see `vortex-train`) periodically freezes its
//! full resumable state — learned weights, optimizer scale, epoch counter
//! and the exact RNG stream position — so that a crashed job restarted
//! from the last good checkpoint replays the remaining epochs
//! *bit-identically* to a run that was never interrupted.
//!
//! Checkpoints are sealed and opened by the same framing code as model
//! artifacts (see [`crate::artifact`]: magic, format version,
//! length-prefixed tagged sections, trailing CRC-32), carrying a single
//! `TRNC` section:
//!
//! ```text
//! TRNC   epoch u64 · samples seen u64 · job seed u64 ·
//!        step scale f64 · last mse f64 · rng state u64 × 4 ·
//!        weights (rows u64 · cols u64 · values f64 × rows·cols)
//! ```
//!
//! The section is new in format version 4 and model artifacts never carry
//! it, so a checkpoint container older than v4 cannot be genuine and is
//! rejected as [`ArtifactError::Malformed`]. Decoding verifies magic,
//! version range and checksum before trusting any field, and structurally
//! impossible contents — a second `TRNC` section, an all-zero RNG state, a
//! weight count that disagrees with the payload length — fail with typed
//! [`ArtifactError::Malformed`] errors rather than a panic or a silently
//! wrong resume. Saves go through [`artifact::atomic_write`], so a crash
//! mid-checkpoint leaves the previous checkpoint intact.

use std::path::Path;

use vortex_linalg::rng::Xoshiro256PlusPlus;
use vortex_linalg::Matrix;

use crate::artifact::{self, atomic_write, ArtifactError};
use crate::{Result, RuntimeError};

const TAG_TRNC: [u8; 4] = *b"TRNC";

/// The format version that introduced `TRNC`.
const TRNC_SINCE: u32 = 4;

/// The complete resumable state of a training job at a mini-epoch
/// boundary.
///
/// Restoring a checkpoint and replaying the remaining epochs produces
/// weights bit-identical to an uninterrupted run: the weights, the
/// normalized-LMS step scale and the generator state are all captured
/// exactly (floats round-trip via [`f64::to_le_bytes`]).
#[derive(Debug, Clone, PartialEq)]
pub struct TrainingCheckpoint {
    /// Learned weight matrix (features × classes) at the boundary.
    pub weights: Matrix,
    /// Completed mini-epochs.
    pub epoch: u64,
    /// Total training samples consumed so far.
    pub samples_seen: u64,
    /// Seed of the job this checkpoint belongs to; a supervisor refuses
    /// to resume a job from a checkpoint carrying a different seed.
    pub seed: u64,
    /// Normalized-LMS step scale (the optimizer state of the delta rule).
    pub step_scale: f64,
    /// Mean squared sensed error of the last completed mini-epoch.
    pub last_mse: f64,
    /// xoshiro256++ state at the boundary, for bit-exact stream resume.
    pub rng_state: [u64; 4],
}

impl TrainingCheckpoint {
    /// Rebuilds the training RNG positioned exactly where the checkpoint
    /// captured it.
    ///
    /// Returns `None` for an all-zero state, which no live generator can
    /// occupy (decoding already rejects it, so this only fires on a
    /// hand-constructed checkpoint).
    pub fn rng(&self) -> Option<Xoshiro256PlusPlus> {
        Xoshiro256PlusPlus::from_state(self.rng_state)
    }

    /// Serializes the checkpoint into the versioned artifact container.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut payload =
            Vec::with_capacity(88 + 8 * self.weights.rows() * self.weights.cols() + 16);
        payload.extend_from_slice(&self.epoch.to_le_bytes());
        payload.extend_from_slice(&self.samples_seen.to_le_bytes());
        payload.extend_from_slice(&self.seed.to_le_bytes());
        payload.extend_from_slice(&self.step_scale.to_le_bytes());
        payload.extend_from_slice(&self.last_mse.to_le_bytes());
        for &s in &self.rng_state {
            payload.extend_from_slice(&s.to_le_bytes());
        }
        artifact::put_matrix(&mut payload, &self.weights);
        let mut out = Vec::new();
        artifact::seal_into(&mut out, &[(TAG_TRNC, &payload)]);
        out
    }

    /// Deserializes a checkpoint, verifying magic, version and checksum
    /// before trusting any field.
    ///
    /// # Errors
    ///
    /// Returns [`RuntimeError::Artifact`] with a typed [`ArtifactError`]:
    /// `BadMagic` / `UnsupportedVersion` / `ChecksumMismatch` for a file
    /// that is not a healthy artifact, `Truncated` or `Malformed` for a
    /// structurally broken container or `TRNC` section (corrupt
    /// epoch/length fields, an impossible RNG state, a missing or
    /// duplicated section, a container older than format v4).
    pub fn from_bytes(bytes: &[u8]) -> Result<Self> {
        let (version, sections) = artifact::open(bytes)?;
        if version < TRNC_SINCE {
            return Err(RuntimeError::Artifact(ArtifactError::Malformed {
                context: "TRNC before format v4",
            }));
        }
        // Unknown tags are future minor extensions: skipped.
        let (_, payload) = sections
            .into_iter()
            .find(|(tag, _)| *tag == TAG_TRNC)
            .ok_or(ArtifactError::Malformed {
                context: "missing TRNC section",
            })?;
        Ok(decode_trnc(payload)?)
    }

    /// Writes the checkpoint to `path` through
    /// [`artifact::atomic_write`]: a crash mid-save leaves the previous
    /// checkpoint file intact. The two stages are timed as
    /// `train.checkpoint.serialize_seconds` (sealing the bytes) and
    /// `train.checkpoint.write_seconds` (the atomic file write with its
    /// fsync and rename).
    ///
    /// # Errors
    ///
    /// Returns [`RuntimeError::Artifact`] wrapping the I/O failure.
    pub fn save<P: AsRef<Path>>(&self, path: P) -> Result<()> {
        let bytes = {
            let _span = vortex_obs::span!("train.checkpoint.serialize_seconds");
            self.to_bytes()
        };
        let _span = vortex_obs::span!("train.checkpoint.write_seconds");
        atomic_write(path, &bytes).map_err(|e| RuntimeError::Artifact(ArtifactError::from(e)))
    }

    /// Reads a checkpoint from `path`.
    ///
    /// # Errors
    ///
    /// See [`Self::from_bytes`]; file-system failures surface as
    /// [`ArtifactError::Io`].
    pub fn load<P: AsRef<Path>>(path: P) -> Result<Self> {
        Self::from_bytes(&std::fs::read(path).map_err(ArtifactError::from)?)
    }
}

fn decode_trnc(payload: &[u8]) -> std::result::Result<TrainingCheckpoint, ArtifactError> {
    let mut c = artifact::Cursor::new(payload);
    let epoch = c.u64("TRNC epoch")?;
    let samples_seen = c.u64("TRNC samples seen")?;
    let seed = c.u64("TRNC seed")?;
    let step_scale = c.f64("TRNC step scale")?;
    let last_mse = c.f64("TRNC last mse")?;
    if !(step_scale.is_finite() && step_scale > 0.0) {
        return Err(ArtifactError::Malformed {
            context: "TRNC step scale",
        });
    }
    let mut rng_state = [0u64; 4];
    for s in &mut rng_state {
        *s = c.u64("TRNC rng state")?;
    }
    if rng_state == [0, 0, 0, 0] {
        // xoshiro256++ can never occupy the all-zero state; a checkpoint
        // carrying it is corrupt by construction.
        return Err(ArtifactError::Malformed {
            context: "TRNC rng state",
        });
    }
    // `get_matrix` verifies the announced dimensions consume exactly the
    // remaining payload, so corrupt length fields fail typed here.
    let weights = artifact::get_matrix(&mut c, "TRNC weights")?;
    Ok(TrainingCheckpoint {
        weights,
        epoch,
        samples_seen,
        seed,
        step_scale,
        last_mse,
        rng_state,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::artifact::tests::fnv1a;
    use crate::artifact::{crc32, FORMAT_VERSION, MAGIC};

    fn sample() -> TrainingCheckpoint {
        let mut rng = Xoshiro256PlusPlus::seed_from_u64(41);
        for _ in 0..13 {
            rng.next_u64();
        }
        TrainingCheckpoint {
            weights: Matrix::from_fn(5, 3, |i, j| ((i * 3 + j) as f64 * 0.31).sin()),
            epoch: 7,
            samples_seen: 7 * 120,
            seed: 41,
            step_scale: 0.004_2,
            last_mse: 0.37,
            rng_state: rng.state(),
        }
    }

    fn checkpoint_err(r: Result<TrainingCheckpoint>) -> ArtifactError {
        match r {
            Err(RuntimeError::Artifact(e)) => e,
            other => panic!("expected an artifact error, got {other:?}"),
        }
    }

    fn reseal(bytes: &mut [u8]) {
        let body = bytes.len() - 4;
        let crc = crc32(&bytes[..body]).to_le_bytes();
        bytes[body..].copy_from_slice(&crc);
    }

    #[test]
    fn byte_round_trip_is_exact() {
        let ck = sample();
        let revived = TrainingCheckpoint::from_bytes(&ck.to_bytes()).unwrap();
        assert_eq!(revived, ck);
        // The revived RNG continues the original stream bit-exactly.
        let mut a = ck.rng().unwrap();
        let mut b = revived.rng().unwrap();
        for _ in 0..50 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn save_load_round_trip() {
        let ck = sample();
        let path = std::env::temp_dir().join(format!("vxrt-ckpt-{}.bin", std::process::id()));
        ck.save(&path).unwrap();
        let loaded = TrainingCheckpoint::load(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(loaded, ck);
    }

    #[test]
    fn flipped_bit_is_a_checksum_mismatch() {
        let mut bytes = sample().to_bytes();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x01;
        assert!(matches!(
            checkpoint_err(TrainingCheckpoint::from_bytes(&bytes)),
            ArtifactError::ChecksumMismatch { .. }
        ));
    }

    #[test]
    fn every_prefix_fails_loudly() {
        let bytes = sample().to_bytes();
        for cut in 0..bytes.len() {
            let err = checkpoint_err(TrainingCheckpoint::from_bytes(&bytes[..cut]));
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
    fn all_zero_rng_state_is_malformed() {
        let mut ck = sample();
        ck.rng_state = [0; 4];
        assert!(ck.rng().is_none());
        let bytes = ck.to_bytes();
        assert!(matches!(
            checkpoint_err(TrainingCheckpoint::from_bytes(&bytes)),
            ArtifactError::Malformed {
                context: "TRNC rng state"
            }
        ));
    }

    #[test]
    fn corrupt_weight_dimensions_are_malformed() {
        let ck = sample();
        let mut bytes = ck.to_bytes();
        // The weights' row count sits 56 bytes into the TRNC payload
        // (5 u64/f64 fields + 4 rng words); the section payload starts
        // after magic + version + count + tag + length.
        let payload_at = MAGIC.len() + 4 + 4 + 4 + 8;
        let rows_at = payload_at + 9 * 8;
        bytes[rows_at..rows_at + 8].copy_from_slice(&u64::MAX.to_le_bytes());
        reseal(&mut bytes);
        assert!(matches!(
            checkpoint_err(TrainingCheckpoint::from_bytes(&bytes)),
            ArtifactError::Malformed { .. } | ArtifactError::Truncated { .. }
        ));
    }

    #[test]
    fn model_artifact_is_not_a_checkpoint() {
        // A model artifact shares the container but has no TRNC section;
        // loading it as a checkpoint must fail typed, not panic.
        let mut out = Vec::new();
        out.extend_from_slice(&MAGIC);
        out.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
        out.extend_from_slice(&0u32.to_le_bytes());
        let crc = crc32(&out);
        out.extend_from_slice(&crc.to_le_bytes());
        assert!(matches!(
            checkpoint_err(TrainingCheckpoint::from_bytes(&out)),
            ArtifactError::Malformed {
                context: "missing TRNC section"
            }
        ));
    }

    #[test]
    fn pre_v4_container_is_malformed() {
        // TRNC is new in v4, so a checkpoint stamped v3 cannot be genuine.
        let mut bytes = sample().to_bytes();
        bytes[MAGIC.len()..MAGIC.len() + 4].copy_from_slice(&3u32.to_le_bytes());
        reseal(&mut bytes);
        assert_eq!(
            checkpoint_err(TrainingCheckpoint::from_bytes(&bytes)),
            ArtifactError::Malformed {
                context: "TRNC before format v4"
            }
        );
    }

    #[test]
    fn second_trnc_section_is_malformed() {
        // Two TRNC sections could resume from either; neither is trusted.
        let bytes = sample().to_bytes();
        let header = MAGIC.len() + 8;
        let section = &bytes[header..bytes.len() - 4];
        let mut twice = bytes[..header].to_vec();
        twice[MAGIC.len() + 4..].copy_from_slice(&2u32.to_le_bytes());
        twice.extend_from_slice(section);
        twice.extend_from_slice(section);
        twice.extend_from_slice(&[0; 4]);
        reseal(&mut twice);
        assert_eq!(
            checkpoint_err(TrainingCheckpoint::from_bytes(&twice)),
            ArtifactError::Malformed {
                context: "duplicate section"
            }
        );
    }

    /// The checkpoint writer, byte for byte: any change to the framing or
    /// the `TRNC` layout fails here.
    #[test]
    fn checkpoint_bytes_are_pinned() {
        let bytes = sample().to_bytes();
        assert_eq!(
            (bytes.len(), fnv1a(&bytes)),
            (240, 0x0793_af4f_e8b4_4c20),
            "checkpoint bytes moved"
        );
    }
}
