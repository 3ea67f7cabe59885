//! Versioned on-disk artifact format for [`CompiledModel`].
//!
//! The build environment has no registry access, so the codec is fully
//! self-contained. The layout (all integers little-endian):
//!
//! ```text
//! offset 0   magic            8 bytes   b"VXRTMODL"
//!            version          u32       currently 2
//!            section count    u32
//!            sections         repeated  tag [u8;4] · payload len u64 · payload
//! trailer    checksum         u32       CRC-32 (IEEE) of every preceding byte
//! ```
//!
//! Sections, in write order:
//!
//! | tag    | since | payload                                                |
//! |--------|-------|--------------------------------------------------------|
//! | `META` | v1    | fidelity u8 · flags u8 · r_wire f64 · scale f64 · adc bits u32 · adc full-scale f64 · dac bits u32 · dac v_ref f64 |
//! | `ROUT` | v1    | physical rows u64 · logical rows u64 · assignment u64 × n |
//! | `GPOS` | v1    | rows u64 · cols u64 · conductances f64 × rows·cols     |
//! | `GNEG` | v1    | likewise for the negative crossbar                     |
//! | `APOS` | v1    | attenuation matrix, only for calibrated models         |
//! | `ANEG` | v1    | likewise for the negative crossbar                     |
//! | `CNRY` | v2    | probe count u64 · input len u64 · inputs f64 × count·len · golden u8 × count |
//! | `ENCT` | v3    | scheme u8 · row count u64 · levels u16 × rows          |
//! | `TRNC` | v4    | training checkpoint (see [`crate::checkpoint`]); never written into model artifacts |
//!
//! `flags` bit 0 marks an ADC present, bit 1 a DAC. All floats are
//! serialized via [`f64::to_le_bytes`], so a round-trip is bit-exact and
//! a loaded model infers identically to the in-memory one. Unknown
//! section tags are skipped (minor extensions don't need a version bump);
//! a major layout change must bump `FORMAT_VERSION`. Version 2 only
//! *added* the optional `CNRY` canary section, version 3 only adds the
//! `ENCT` per-row encoding table, and version 4 only adds the `TRNC`
//! training-checkpoint section (carried by standalone checkpoint files,
//! not by model artifacts), so this build still reads every version from
//! [`MIN_FORMAT_VERSION`] up — a v1 artifact simply loads as a model
//! without a canary, and any pre-v3 artifact loads with the all-continuous
//! differential encoding table (which is exactly how it was programmed).
//! Decoding verifies the checksum before touching any section, and every
//! failure mode is a distinct [`ArtifactError`] variant.
//!
//! Every on-disk write goes through [`atomic_write`] — temp file, fsync,
//! atomic rename — so a crash mid-save can never leave a torn file where
//! a good one used to be.

use std::io::Read as _;
use std::io::Write as _;
use std::path::Path;

use vortex_linalg::Matrix;
use vortex_xbar::encoding::{EncodingScheme, EncodingTable};
use vortex_xbar::sensing::{Adc, Dac};

use crate::model::{CanarySet, CompiledModel, Fidelity};
use crate::{Result, RuntimeError};

/// Leading magic bytes of every artifact.
pub const MAGIC: [u8; 8] = *b"VXRTMODL";

/// The format version this build writes.
pub const FORMAT_VERSION: u32 = 4;

/// The oldest format version this build still reads.
pub const MIN_FORMAT_VERSION: u32 = 1;

pub(crate) const TAG_TRNC: [u8; 4] = *b"TRNC";

const TAG_META: [u8; 4] = *b"META";
const TAG_ROUT: [u8; 4] = *b"ROUT";
const TAG_GPOS: [u8; 4] = *b"GPOS";
const TAG_GNEG: [u8; 4] = *b"GNEG";
const TAG_APOS: [u8; 4] = *b"APOS";
const TAG_ANEG: [u8; 4] = *b"ANEG";
const TAG_CNRY: [u8; 4] = *b"CNRY";
const TAG_ENCT: [u8; 4] = *b"ENCT";

const FLAG_ADC: u8 = 1 << 0;
const FLAG_DAC: u8 = 1 << 1;

/// Errors of the artifact codec. Every failure mode is distinguishable,
/// so callers can tell a stale format from a corrupt file.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum ArtifactError {
    /// The underlying file operation failed.
    Io {
        /// Kind of the I/O failure.
        kind: std::io::ErrorKind,
        /// Human-readable message of the original error.
        message: String,
    },
    /// The file does not start with the artifact magic.
    BadMagic,
    /// The file's format version is not supported by this build.
    UnsupportedVersion {
        /// Version found in the file.
        found: u32,
        /// Version this build supports.
        supported: u32,
    },
    /// The trailing CRC-32 does not match the file contents.
    ChecksumMismatch {
        /// Checksum stored in the file.
        stored: u32,
        /// Checksum computed over the file contents.
        computed: u32,
    },
    /// The file ends before the structure it announces.
    Truncated {
        /// What was being read when the bytes ran out.
        context: &'static str,
    },
    /// A section payload is structurally invalid.
    Malformed {
        /// What was found to be inconsistent.
        context: &'static str,
    },
}

impl std::fmt::Display for ArtifactError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ArtifactError::Io { kind, message } => write!(f, "i/o error ({kind:?}): {message}"),
            ArtifactError::BadMagic => write!(f, "not a vortex-runtime artifact (bad magic)"),
            ArtifactError::UnsupportedVersion { found, supported } => write!(
                f,
                "unsupported artifact version {found} (this build reads versions \
                 {MIN_FORMAT_VERSION} through {supported})"
            ),
            ArtifactError::ChecksumMismatch { stored, computed } => write!(
                f,
                "artifact checksum mismatch (stored {stored:#010x}, computed {computed:#010x})"
            ),
            ArtifactError::Truncated { context } => {
                write!(f, "artifact truncated while reading {context}")
            }
            ArtifactError::Malformed { context } => write!(f, "artifact malformed: {context}"),
        }
    }
}

impl std::error::Error for ArtifactError {}

impl From<std::io::Error> for ArtifactError {
    fn from(e: std::io::Error) -> Self {
        ArtifactError::Io {
            kind: e.kind(),
            message: e.to_string(),
        }
    }
}

/// Writes `bytes` to `path` atomically: the bytes land in a sibling temp
/// file first, are fsynced, and only then renamed over the target.
///
/// A crash — or a panic, or a pulled plug — at any point of the sequence
/// leaves either the complete previous file or the complete new file at
/// `path`, never a torn mixture. Every artifact and checkpoint save in the
/// workspace routes through this helper. The temp file carries a
/// `.tmp-vxrt` suffix next to the target so the rename stays on one
/// filesystem; it is removed on failure.
///
/// # Errors
///
/// Propagates the underlying I/O failure (create, write, fsync or rename).
pub fn atomic_write<P: AsRef<Path>>(path: P, bytes: &[u8]) -> std::io::Result<()> {
    let path = path.as_ref();
    let tmp = path.with_extension("tmp-vxrt");
    let write = || -> std::io::Result<()> {
        let mut f = std::fs::File::create(&tmp)?;
        f.write_all(bytes)?;
        f.sync_all()?;
        std::fs::rename(&tmp, path)
    };
    write().inspect_err(|_| {
        let _ = std::fs::remove_file(&tmp);
    })
}

/// CRC-32 (IEEE 802.3, reflected, poly 0xEDB88320) of `bytes`.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = 0xFFFF_FFFFu32;
    for &b in bytes {
        crc ^= u32::from(b);
        for _ in 0..8 {
            let mask = (crc & 1).wrapping_neg();
            crc = (crc >> 1) ^ (0xEDB8_8320 & mask);
        }
    }
    !crc
}

// ---------------------------------------------------------------------------
// Encoding.
// ---------------------------------------------------------------------------

pub(crate) fn put_matrix(payload: &mut Vec<u8>, m: &Matrix) {
    payload.extend_from_slice(&(m.rows() as u64).to_le_bytes());
    payload.extend_from_slice(&(m.cols() as u64).to_le_bytes());
    for &v in m.as_slice() {
        payload.extend_from_slice(&v.to_le_bytes());
    }
}

pub(crate) fn put_section(out: &mut Vec<u8>, tag: [u8; 4], payload: &[u8]) {
    out.extend_from_slice(&tag);
    out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    out.extend_from_slice(payload);
}

/// Serializes a model into the current artifact byte layout.
pub(crate) fn encode(model: &CompiledModel) -> Vec<u8> {
    let mut meta = Vec::with_capacity(64);
    meta.push(model.fidelity.code());
    let mut flags = 0u8;
    if model.adc.is_some() {
        flags |= FLAG_ADC;
    }
    if model.dac.is_some() {
        flags |= FLAG_DAC;
    }
    meta.push(flags);
    meta.extend_from_slice(&model.r_wire.to_le_bytes());
    meta.extend_from_slice(&model.scale.to_le_bytes());
    let (adc_bits, adc_fs) = model.adc.map_or((0, 0.0), |a| (a.bits(), a.full_scale()));
    meta.extend_from_slice(&adc_bits.to_le_bytes());
    meta.extend_from_slice(&adc_fs.to_le_bytes());
    let (dac_bits, dac_vref) = model.dac.map_or((0, 0.0), |d| (d.bits(), d.v_ref()));
    meta.extend_from_slice(&dac_bits.to_le_bytes());
    meta.extend_from_slice(&dac_vref.to_le_bytes());

    let mut rout = Vec::with_capacity(16 + 8 * model.assignment.len());
    rout.extend_from_slice(&(model.physical_rows as u64).to_le_bytes());
    rout.extend_from_slice(&(model.assignment.len() as u64).to_le_bytes());
    for &q in &model.assignment {
        rout.extend_from_slice(&(q as u64).to_le_bytes());
    }

    let mut sections: Vec<([u8; 4], Vec<u8>)> = vec![(TAG_META, meta), (TAG_ROUT, rout)];
    for (tag, m) in [(TAG_GPOS, &model.g_pos), (TAG_GNEG, &model.g_neg)] {
        let mut payload = Vec::with_capacity(16 + 8 * m.rows() * m.cols());
        put_matrix(&mut payload, m);
        sections.push((tag, payload));
    }
    for (tag, m) in [(TAG_APOS, &model.att_pos), (TAG_ANEG, &model.att_neg)] {
        if let Some(m) = m {
            let mut payload = Vec::with_capacity(16 + 8 * m.rows() * m.cols());
            put_matrix(&mut payload, m);
            sections.push((tag, payload));
        }
    }
    if let Some(canary) = &model.canary {
        let count = canary.len();
        let width = canary.inputs()[0].len();
        let mut payload = Vec::with_capacity(16 + 8 * count * width + count);
        payload.extend_from_slice(&(count as u64).to_le_bytes());
        payload.extend_from_slice(&(width as u64).to_le_bytes());
        for x in canary.inputs() {
            for &v in x {
                payload.extend_from_slice(&v.to_le_bytes());
            }
        }
        payload.extend_from_slice(canary.golden());
        sections.push((TAG_CNRY, payload));
    }
    {
        let levels = model.encoding.levels();
        let mut payload = Vec::with_capacity(9 + 2 * levels.len());
        payload.push(model.encoding.scheme().code());
        payload.extend_from_slice(&(levels.len() as u64).to_le_bytes());
        for &l in levels {
            payload.extend_from_slice(&l.to_le_bytes());
        }
        sections.push((TAG_ENCT, payload));
    }

    let mut out = Vec::new();
    out.extend_from_slice(&MAGIC);
    out.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
    out.extend_from_slice(&(sections.len() as u32).to_le_bytes());
    for (tag, payload) in &sections {
        put_section(&mut out, *tag, payload);
    }
    let checksum = crc32(&out);
    out.extend_from_slice(&checksum.to_le_bytes());
    out
}

// ---------------------------------------------------------------------------
// Decoding.
// ---------------------------------------------------------------------------

/// A bounds-checked little-endian byte cursor.
pub(crate) struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    pub(crate) fn new(bytes: &'a [u8]) -> Self {
        Self { bytes, pos: 0 }
    }

    pub(crate) fn take(
        &mut self,
        n: usize,
        context: &'static str,
    ) -> std::result::Result<&'a [u8], ArtifactError> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.bytes.len())
            .ok_or(ArtifactError::Truncated { context })?;
        let slice = &self.bytes[self.pos..end];
        self.pos = end;
        Ok(slice)
    }

    pub(crate) fn u8(&mut self, context: &'static str) -> std::result::Result<u8, ArtifactError> {
        Ok(self.take(1, context)?[0])
    }

    fn u16(&mut self, context: &'static str) -> std::result::Result<u16, ArtifactError> {
        Ok(u16::from_le_bytes(
            self.take(2, context)?.try_into().expect("2 bytes"),
        ))
    }

    pub(crate) fn u32(&mut self, context: &'static str) -> std::result::Result<u32, ArtifactError> {
        Ok(u32::from_le_bytes(
            self.take(4, context)?.try_into().expect("4 bytes"),
        ))
    }

    pub(crate) fn u64(&mut self, context: &'static str) -> std::result::Result<u64, ArtifactError> {
        Ok(u64::from_le_bytes(
            self.take(8, context)?.try_into().expect("8 bytes"),
        ))
    }

    pub(crate) fn u64_usize(
        &mut self,
        context: &'static str,
    ) -> std::result::Result<usize, ArtifactError> {
        let v = self.u64(context)?;
        usize::try_from(v).map_err(|_| ArtifactError::Malformed { context })
    }

    pub(crate) fn f64(&mut self, context: &'static str) -> std::result::Result<f64, ArtifactError> {
        Ok(f64::from_le_bytes(
            self.take(8, context)?.try_into().expect("8 bytes"),
        ))
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.pos == self.bytes.len()
    }

    /// Bytes not yet consumed.
    fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }
}

pub(crate) fn get_matrix(
    c: &mut Cursor<'_>,
    context: &'static str,
) -> std::result::Result<Matrix, ArtifactError> {
    let rows = c.u64_usize(context)?;
    let cols = c.u64_usize(context)?;
    // Size the announced contents against the payload *before* any
    // allocation, as the canary decoder does: the matrix must consume
    // exactly the remaining bytes.
    let count = rows
        .checked_mul(cols)
        .filter(|n| n.checked_mul(8) == Some(c.remaining()))
        .ok_or(ArtifactError::Malformed { context })?;
    let mut data = Vec::with_capacity(count);
    for _ in 0..count {
        data.push(c.f64(context)?);
    }
    Matrix::from_vec(rows, cols, data).map_err(|_| ArtifactError::Malformed { context })
}

struct Decoded {
    fidelity: Fidelity,
    r_wire: f64,
    scale: f64,
    adc: Option<Adc>,
    dac: Option<Dac>,
    physical_rows: usize,
    assignment: Vec<usize>,
    g_pos: Matrix,
    g_neg: Matrix,
    att_pos: Option<Matrix>,
    att_neg: Option<Matrix>,
    canary: Option<CanarySet>,
    encoding: Option<EncodingTable>,
}

struct Meta {
    fidelity: Fidelity,
    r_wire: f64,
    scale: f64,
    adc: Option<Adc>,
    dac: Option<Dac>,
}

fn decode_meta(payload: &[u8]) -> std::result::Result<Meta, ArtifactError> {
    let mut c = Cursor::new(payload);
    let fidelity = Fidelity::from_code(c.u8("META fidelity")?).ok_or(ArtifactError::Malformed {
        context: "META fidelity code",
    })?;
    let flags = c.u8("META flags")?;
    let r_wire = c.f64("META r_wire")?;
    let scale = c.f64("META scale")?;
    let adc_bits = c.u32("META adc")?;
    let adc_fs = c.f64("META adc")?;
    let dac_bits = c.u32("META dac")?;
    let dac_vref = c.f64("META dac")?;
    if !c.is_empty() {
        return Err(ArtifactError::Malformed {
            context: "META trailing bytes",
        });
    }
    let adc = if flags & FLAG_ADC != 0 {
        Some(
            Adc::new(adc_bits, adc_fs).map_err(|_| ArtifactError::Malformed {
                context: "META adc parameters",
            })?,
        )
    } else {
        None
    };
    let dac = if flags & FLAG_DAC != 0 {
        Some(
            Dac::new(dac_bits, dac_vref).map_err(|_| ArtifactError::Malformed {
                context: "META dac parameters",
            })?,
        )
    } else {
        None
    };
    Ok(Meta {
        fidelity,
        r_wire,
        scale,
        adc,
        dac,
    })
}

fn decode_cnry(payload: &[u8]) -> std::result::Result<CanarySet, ArtifactError> {
    let mut c = Cursor::new(payload);
    let count = c.u64_usize("CNRY probe count")?;
    let width = c.u64_usize("CNRY input length")?;
    // Size the announced contents against the payload *before* any
    // allocation, so absurd counts fail typed instead of aborting.
    let announced = count
        .checked_mul(width)
        .and_then(|n| n.checked_mul(8))
        .and_then(|n| n.checked_add(count))
        .ok_or(ArtifactError::Malformed {
            context: "CNRY announced size",
        })?;
    if announced != payload.len() - 16 {
        return Err(ArtifactError::Malformed {
            context: "CNRY announced size",
        });
    }
    let mut inputs = Vec::with_capacity(count);
    for _ in 0..count {
        let mut x = Vec::with_capacity(width);
        for _ in 0..width {
            x.push(c.f64("CNRY inputs")?);
        }
        inputs.push(x);
    }
    let golden = c.take(count, "CNRY golden predictions")?.to_vec();
    if !c.is_empty() {
        return Err(ArtifactError::Malformed {
            context: "CNRY trailing bytes",
        });
    }
    CanarySet::new(inputs, golden).map_err(|_| ArtifactError::Malformed {
        context: "CNRY probe set",
    })
}

fn decode_enct(payload: &[u8]) -> std::result::Result<EncodingTable, ArtifactError> {
    let mut c = Cursor::new(payload);
    let scheme =
        EncodingScheme::from_code(c.u8("ENCT scheme")?).ok_or(ArtifactError::Malformed {
            context: "ENCT scheme code",
        })?;
    let rows = c.u64_usize("ENCT row count")?;
    // Size the announced contents against the payload *before* any
    // allocation, as the canary decoder does.
    let announced = rows.checked_mul(2).ok_or(ArtifactError::Malformed {
        context: "ENCT announced size",
    })?;
    if announced != payload.len() - 9 {
        return Err(ArtifactError::Malformed {
            context: "ENCT announced size",
        });
    }
    let mut levels = Vec::with_capacity(rows);
    for _ in 0..rows {
        levels.push(c.u16("ENCT levels")?);
    }
    if !c.is_empty() {
        return Err(ArtifactError::Malformed {
            context: "ENCT trailing bytes",
        });
    }
    EncodingTable::new(scheme, levels).map_err(|_| ArtifactError::Malformed {
        context: "ENCT level table",
    })
}

fn decode_rout(payload: &[u8]) -> std::result::Result<(usize, Vec<usize>), ArtifactError> {
    let mut c = Cursor::new(payload);
    let physical_rows = c.u64_usize("ROUT physical rows")?;
    let logical_rows = c.u64_usize("ROUT logical rows")?;
    // Size the announced routing against the payload before allocating.
    if logical_rows.checked_mul(8) != Some(c.remaining()) {
        return Err(ArtifactError::Malformed {
            context: "ROUT announced size",
        });
    }
    let mut assignment = Vec::with_capacity(logical_rows);
    for _ in 0..logical_rows {
        assignment.push(c.u64_usize("ROUT assignment")?);
    }
    Ok((physical_rows, assignment))
}

/// Parses the artifact byte layout into model parts, verifying magic,
/// version and checksum first.
fn decode(bytes: &[u8]) -> std::result::Result<Decoded, ArtifactError> {
    if bytes.len() < MAGIC.len() {
        return Err(ArtifactError::Truncated { context: "magic" });
    }
    if bytes[..MAGIC.len()] != MAGIC {
        return Err(ArtifactError::BadMagic);
    }
    let mut c = Cursor::new(&bytes[MAGIC.len()..]);
    let version = c.u32("version")?;
    if !(MIN_FORMAT_VERSION..=FORMAT_VERSION).contains(&version) {
        return Err(ArtifactError::UnsupportedVersion {
            found: version,
            supported: FORMAT_VERSION,
        });
    }
    // Checksum is verified before any section is trusted.
    if bytes.len() < MAGIC.len() + 8 + 4 {
        return Err(ArtifactError::Truncated {
            context: "checksum",
        });
    }
    let body_len = bytes.len() - 4;
    let stored = u32::from_le_bytes(bytes[body_len..].try_into().expect("4 bytes"));
    let computed = crc32(&bytes[..body_len]);
    if stored != computed {
        return Err(ArtifactError::ChecksumMismatch { stored, computed });
    }

    let mut c = Cursor::new(&bytes[MAGIC.len() + 4..body_len]);
    let section_count = c.u32("section count")?;
    let mut meta = None;
    let mut rout = None;
    let mut g_pos = None;
    let mut g_neg = None;
    let mut att_pos = None;
    let mut att_neg = None;
    let mut canary = None;
    let mut encoding = None;
    for _ in 0..section_count {
        let tag: [u8; 4] = c.take(4, "section tag")?.try_into().expect("4 bytes");
        let len = c.u64_usize("section length")?;
        let payload = c.take(len, "section payload")?;
        match tag {
            TAG_META => meta = Some(decode_meta(payload)?),
            TAG_ROUT => rout = Some(decode_rout(payload)?),
            TAG_GPOS => g_pos = Some(get_matrix(&mut Cursor::new(payload), "GPOS matrix")?),
            TAG_GNEG => g_neg = Some(get_matrix(&mut Cursor::new(payload), "GNEG matrix")?),
            TAG_APOS => att_pos = Some(get_matrix(&mut Cursor::new(payload), "APOS matrix")?),
            TAG_ANEG => att_neg = Some(get_matrix(&mut Cursor::new(payload), "ANEG matrix")?),
            TAG_CNRY => canary = Some(decode_cnry(payload)?),
            TAG_ENCT => encoding = Some(decode_enct(payload)?),
            // Unknown tags are future minor extensions: skipped.
            _ => {}
        }
    }
    if !c.is_empty() {
        return Err(ArtifactError::Malformed {
            context: "bytes after last section",
        });
    }
    let Meta {
        fidelity,
        r_wire,
        scale,
        adc,
        dac,
    } = meta.ok_or(ArtifactError::Malformed {
        context: "missing META section",
    })?;
    let (physical_rows, assignment) = rout.ok_or(ArtifactError::Malformed {
        context: "missing ROUT section",
    })?;
    Ok(Decoded {
        fidelity,
        r_wire,
        scale,
        adc,
        dac,
        physical_rows,
        assignment,
        g_pos: g_pos.ok_or(ArtifactError::Malformed {
            context: "missing GPOS section",
        })?,
        g_neg: g_neg.ok_or(ArtifactError::Malformed {
            context: "missing GNEG section",
        })?,
        att_pos,
        att_neg,
        canary,
        encoding,
    })
}

impl CompiledModel {
    /// Serializes the model to the versioned artifact byte format.
    pub fn to_bytes(&self) -> Vec<u8> {
        encode(self)
    }

    /// Deserializes a model from artifact bytes, rebuilding the derived
    /// read state.
    ///
    /// # Errors
    ///
    /// Returns [`RuntimeError::Artifact`] for a bad magic, an unsupported
    /// version, a checksum mismatch, or truncated/malformed contents; a
    /// structurally valid artifact with inconsistent model state yields
    /// [`RuntimeError::InvalidParameter`].
    pub fn from_bytes(bytes: &[u8]) -> Result<Self> {
        let d = decode(bytes).map_err(RuntimeError::Artifact)?;
        // Pre-v3 artifacts carry no table; they were programmed with the
        // continuous differential encoding by definition.
        let encoding = d
            .encoding
            .unwrap_or_else(|| EncodingTable::differential(d.physical_rows));
        Self::from_parts(
            d.fidelity,
            d.r_wire,
            d.scale,
            d.adc,
            d.dac,
            d.physical_rows,
            d.assignment,
            d.g_pos,
            d.g_neg,
            d.att_pos,
            d.att_neg,
            d.canary,
            encoding,
        )
    }

    /// Writes the artifact to `path` through [`atomic_write`], so a crash
    /// mid-save never leaves a torn artifact behind.
    ///
    /// # Errors
    ///
    /// Returns [`RuntimeError::Artifact`] wrapping the I/O failure.
    pub fn save<P: AsRef<Path>>(&self, path: P) -> Result<()> {
        atomic_write(path, &self.to_bytes())
            .map_err(|e| RuntimeError::Artifact(ArtifactError::from(e)))
    }

    /// Reads an artifact from `path`.
    ///
    /// # Errors
    ///
    /// See [`Self::from_bytes`]; file-system failures surface as
    /// [`ArtifactError::Io`].
    pub fn load<P: AsRef<Path>>(path: P) -> Result<Self> {
        let mut bytes = Vec::new();
        std::fs::File::open(path.as_ref())
            .and_then(|mut f| f.read_to_end(&mut bytes))
            .map_err(|e| RuntimeError::Artifact(ArtifactError::from(e)))?;
        Self::from_bytes(&bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_matches_known_vectors() {
        // Standard IEEE test vector.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn error_display_is_informative() {
        let e = ArtifactError::UnsupportedVersion {
            found: 9,
            supported: 1,
        };
        assert!(e.to_string().contains("version 9"));
        let e = ArtifactError::ChecksumMismatch {
            stored: 1,
            computed: 2,
        };
        assert!(e.to_string().contains("checksum"));
    }
}
