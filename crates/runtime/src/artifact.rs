//! Versioned on-disk artifact format for [`CompiledModel`].
//!
//! The build environment has no registry access, so the codec is fully
//! self-contained. The layout (all integers little-endian):
//!
//! ```text
//! offset 0   magic            8 bytes   b"VXRTMODL"
//!            version          u32       currently 4
//!            section count    u32
//!            sections         repeated  tag [u8;4] · payload len u64 · payload
//! trailer    checksum         u32       CRC-32 (IEEE) of every preceding byte
//! ```
//!
//! This framing lives in two functions only: `seal_into` writes it
//! around a list of sections and `open` checks it and hands back the
//! sections. Model artifacts and training checkpoints
//! ([`crate::checkpoint`]) both go through them, so the two file kinds
//! can never drift apart.
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
//! Decoding verifies magic, version and checksum before touching any
//! section, rejects a tag that appears twice, and every failure mode is a
//! distinct [`ArtifactError`] variant.
//!
//! Every on-disk write goes through [`atomic_write`] — temp file, fsync,
//! atomic rename — so a crash mid-save can never leave a torn file where
//! a good one used to be.

use std::collections::HashSet;
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

/// One section of an opened container: its tag and its payload.
pub(crate) type Section<'a> = ([u8; 4], &'a [u8]);

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

/// Byte-at-a-time lookup table of the reflected IEEE polynomial
/// 0xEDB88320: entry `n` is the CRC register after shifting byte `n`
/// through it eight bit steps.
const CRC32_TABLE: [u32; 256] = {
    let mut table = [0u32; 256];
    let mut n = 0;
    while n < 256 {
        let mut crc = n as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = (crc >> 1) ^ (0xEDB8_8320 & (crc & 1).wrapping_neg());
            bit += 1;
        }
        table[n] = crc;
        n += 1;
    }
    table
};

/// CRC-32 (IEEE 802.3, reflected, poly 0xEDB88320) of `bytes`, one table
/// lookup per byte.
pub fn crc32(bytes: &[u8]) -> u32 {
    !bytes.iter().fold(0xFFFF_FFFF, |crc, &b| {
        CRC32_TABLE[((crc ^ u32::from(b)) & 0xFF) as usize] ^ (crc >> 8)
    })
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

/// Appends one sealed container to `out`: magic, [`FORMAT_VERSION`],
/// the section count, each `(tag, payload)` section as tag · payload
/// length · payload, and the CRC-32 of everything this call wrote. Every
/// artifact and checkpoint writer goes through here.
pub(crate) fn seal_into<P: AsRef<[u8]>>(out: &mut Vec<u8>, sections: &[([u8; 4], P)]) {
    let start = out.len();
    let payloads: usize = sections.iter().map(|(_, p)| 12 + p.as_ref().len()).sum();
    out.reserve(MAGIC.len() + 8 + payloads + 4);
    out.extend_from_slice(&MAGIC);
    out.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
    out.extend_from_slice(&(sections.len() as u32).to_le_bytes());
    for (tag, payload) in sections {
        let payload = payload.as_ref();
        out.extend_from_slice(tag);
        out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
        out.extend_from_slice(payload);
    }
    let checksum = crc32(&out[start..]);
    out.extend_from_slice(&checksum.to_le_bytes());
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
    seal_into(&mut out, &sections);
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

    fn take(
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

    fn u8(&mut self, context: &'static str) -> std::result::Result<u8, ArtifactError> {
        Ok(self.take(1, context)?[0])
    }

    fn u16(&mut self, context: &'static str) -> std::result::Result<u16, ArtifactError> {
        Ok(u16::from_le_bytes(
            self.take(2, context)?.try_into().expect("2 bytes"),
        ))
    }

    fn u32(&mut self, context: &'static str) -> std::result::Result<u32, ArtifactError> {
        Ok(u32::from_le_bytes(
            self.take(4, context)?.try_into().expect("4 bytes"),
        ))
    }

    pub(crate) fn u64(&mut self, context: &'static str) -> std::result::Result<u64, ArtifactError> {
        Ok(u64::from_le_bytes(
            self.take(8, context)?.try_into().expect("8 bytes"),
        ))
    }

    fn u64_usize(&mut self, context: &'static str) -> std::result::Result<usize, ArtifactError> {
        let v = self.u64(context)?;
        usize::try_from(v).map_err(|_| ArtifactError::Malformed { context })
    }

    pub(crate) fn f64(&mut self, context: &'static str) -> std::result::Result<f64, ArtifactError> {
        Ok(f64::from_le_bytes(
            self.take(8, context)?.try_into().expect("8 bytes"),
        ))
    }

    fn is_empty(&self) -> bool {
        self.pos == self.bytes.len()
    }

    /// Bytes not yet consumed.
    fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    /// The one sizing rule for an announced count: `count` items of
    /// `width` bytes must fill exactly the bytes left. Decoders check it
    /// before sizing any allocation from `count`, so an absurd count
    /// fails typed instead of aborting.
    fn expect_items(
        &self,
        count: usize,
        width: usize,
        context: &'static str,
    ) -> std::result::Result<(), ArtifactError> {
        if count.checked_mul(width) == Some(self.remaining()) {
            Ok(())
        } else {
            Err(ArtifactError::Malformed { context })
        }
    }
}

pub(crate) fn get_matrix(
    c: &mut Cursor<'_>,
    context: &'static str,
) -> std::result::Result<Matrix, ArtifactError> {
    let rows = c.u64_usize(context)?;
    let cols = c.u64_usize(context)?;
    // An overflowing rows × cols saturates, and then fails the rule.
    let count = rows.saturating_mul(cols);
    c.expect_items(count, 8, context)?;
    let mut data = Vec::with_capacity(count);
    for _ in 0..count {
        data.push(c.f64(context)?);
    }
    Matrix::from_vec(rows, cols, data).map_err(|_| ArtifactError::Malformed { context })
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
    // Each probe is `width` f64 inputs and one golden byte.
    let probe_bytes = width.saturating_mul(8).saturating_add(1);
    c.expect_items(count, probe_bytes, "CNRY announced size")?;
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
    c.expect_items(rows, 2, "ENCT announced size")?;
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
    c.expect_items(logical_rows, 8, "ROUT announced size")?;
    let mut assignment = Vec::with_capacity(logical_rows);
    for _ in 0..logical_rows {
        assignment.push(c.u64_usize("ROUT assignment")?);
    }
    Ok((physical_rows, assignment))
}

/// Opens a sealed container: verifies magic, the version range
/// [`MIN_FORMAT_VERSION`]`..=`[`FORMAT_VERSION`] and the CRC-32 before any
/// section is trusted, then walks the sections. Returns the version and
/// the `(tag, payload)` list in file order. A tag that appears twice and
/// bytes after the last section are [`ArtifactError::Malformed`];
/// unknown tags are passed through for the caller to skip.
pub(crate) fn open(bytes: &[u8]) -> std::result::Result<(u32, Vec<Section<'_>>), ArtifactError> {
    if bytes.len() < MAGIC.len() {
        return Err(ArtifactError::Truncated { context: "magic" });
    }
    if bytes[..MAGIC.len()] != MAGIC {
        return Err(ArtifactError::BadMagic);
    }
    let version = Cursor::new(&bytes[MAGIC.len()..]).u32("version")?;
    if !(MIN_FORMAT_VERSION..=FORMAT_VERSION).contains(&version) {
        return Err(ArtifactError::UnsupportedVersion {
            found: version,
            supported: FORMAT_VERSION,
        });
    }
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
    // The count is untrusted: the list grows as sections actually parse.
    let mut sections = Vec::new();
    let mut seen = HashSet::new();
    for _ in 0..section_count {
        let tag: [u8; 4] = c.take(4, "section tag")?.try_into().expect("4 bytes");
        let len = c.u64_usize("section length")?;
        let payload = c.take(len, "section payload")?;
        if !seen.insert(tag) {
            return Err(ArtifactError::Malformed {
                context: "duplicate section",
            });
        }
        sections.push((tag, payload));
    }
    if !c.is_empty() {
        return Err(ArtifactError::Malformed {
            context: "bytes after last section",
        });
    }
    Ok((version, sections))
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
    /// structurally valid artifact with inconsistent model state or
    /// out-of-domain values (a non-finite or negative conductance, an
    /// attenuation factor outside `[0, 1]`) yields
    /// [`RuntimeError::InvalidParameter`].
    pub fn from_bytes(bytes: &[u8]) -> Result<Self> {
        let (_, sections) = open(bytes)?;
        let mut meta = None;
        let mut rout = None;
        let mut g_pos = None;
        let mut g_neg = None;
        let mut att_pos = None;
        let mut att_neg = None;
        let mut canary = None;
        let mut encoding = None;
        for (tag, payload) in sections {
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
        let missing = |context| RuntimeError::Artifact(ArtifactError::Malformed { context });
        let meta = meta.ok_or(missing("missing META section"))?;
        let (physical_rows, assignment) = rout.ok_or(missing("missing ROUT section"))?;
        let g_pos = g_pos.ok_or(missing("missing GPOS section"))?;
        let g_neg = g_neg.ok_or(missing("missing GNEG section"))?;
        // Pre-v3 artifacts carry no table; they were programmed with the
        // continuous differential encoding by definition. Its size must be
        // a count the payload bounds: the ROUT row count is not, and GPOS
        // rows are only when there is at least one column (an empty
        // matrix passes the sizing rule with any row count). A table that
        // disagrees with ROUT is rejected typed by `from_parts`.
        let rows = if g_pos.cols() == 0 { 0 } else { g_pos.rows() };
        let encoding = encoding.unwrap_or_else(|| EncodingTable::differential(rows));
        Self::from_parts(
            meta.fidelity,
            meta.r_wire,
            meta.scale,
            meta.adc,
            meta.dac,
            physical_rows,
            assignment,
            g_pos,
            g_neg,
            att_pos,
            att_neg,
            canary,
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
        Self::from_bytes(&std::fs::read(path).map_err(ArtifactError::from)?)
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    #[test]
    fn crc32_matches_known_vectors() {
        // Standard IEEE test vector.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    /// The bit-at-a-time CRC-32 the table is built from: eight
    /// shift/mask steps per byte.
    fn crc32_bitwise(bytes: &[u8]) -> u32 {
        let mut crc = 0xFFFF_FFFFu32;
        for &b in bytes {
            crc ^= u32::from(b);
            for _ in 0..8 {
                crc = (crc >> 1) ^ (0xEDB8_8320 & (crc & 1).wrapping_neg());
            }
        }
        !crc
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(256))]

        /// The table-driven CRC equals the bitwise one on random bytes of
        /// random length, the empty string included.
        #[test]
        fn crc32_table_matches_the_bitwise_oracle(
            bytes in proptest::collection::vec(0u16..256, 0..4096)
        ) {
            let bytes: Vec<u8> = bytes.into_iter().map(|b| b as u8).collect();
            proptest::prop_assert_eq!(crc32(&bytes), crc32_bitwise(&bytes));
        }
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

    /// FNV-1a of a byte string, for pinning writer output.
    pub(crate) fn fnv1a(bytes: &[u8]) -> u64 {
        bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
        })
    }

    /// The writer, byte for byte: a Calibrated model with ADC, DAC, a
    /// canary and a multi-level encoding table, and an Exact model, both
    /// built from fixed parts so the pin does not move with the compile
    /// path. Any change to the framing or a section layout fails here.
    #[test]
    fn artifact_bytes_are_pinned() {
        let (rows, cols) = (6, 3);
        let g = |phase: f64| {
            Matrix::from_fn(rows, cols, |i, j| {
                1e-5 * (1.5 + ((i * cols + j) as f64 * 0.37 + phase).sin())
            })
        };
        let att = |phase: f64| {
            Matrix::from_fn(rows, cols, |i, j| {
                0.9 + 0.05 * ((i * cols + j) as f64 * 0.11 + phase).cos()
            })
        };
        let canary = CanarySet::new(
            vec![vec![0.25; 5], vec![0.5, 0.0, 1.0, 0.75, 0.125]],
            vec![2, 0],
        )
        .unwrap();
        let calibrated = CompiledModel::from_parts(
            Fidelity::Calibrated,
            2.5,
            1e-5,
            Some(Adc::new(8, 1e-3).unwrap()),
            Some(Dac::new(6, 1.0).unwrap()),
            rows,
            vec![4, 0, 2, 5, 1],
            g(0.0),
            g(1.0),
            Some(att(0.0)),
            Some(att(2.0)),
            Some(canary),
            EncodingTable::new(EncodingScheme::AdaptiveRow, vec![0, 4, 16, 64, 4, 0]).unwrap(),
        )
        .unwrap();
        let exact = CompiledModel::from_parts(
            Fidelity::Exact,
            3.0,
            2e-5,
            None,
            None,
            rows,
            (0..rows).collect(),
            g(0.5),
            g(1.5),
            None,
            None,
            None,
            EncodingTable::differential(rows),
        )
        .unwrap();
        let got = [calibrated, exact].map(|m| {
            let bytes = m.to_bytes();
            (bytes.len(), fnv1a(&bytes))
        });
        assert_eq!(
            got,
            [(973, 0xa572_5f5f_0222_de97), (527, 0xf34a_825e_2a52_b8d3)],
            "artifact bytes moved"
        );
    }
}
