//! Crash-safe snapshot codec for the search engines.
//!
//! A snapshot is a single self-describing byte string:
//!
//! ```text
//! magic "DTRSNAP\0" (8 bytes)
//! version: u32 LE
//! kind:    u32 LE          (KIND_DTR_PHASE2 | KIND_MTR_ROBUST)
//! payload_len: u64 LE
//! payload  (length-prefixed sections, all integers LE, f64 via to_bits)
//! checksum: u64 LE         (FNV-1a over every byte before it)
//! ```
//!
//! The codec is dependency-free and bit-exact: `f64` values round-trip
//! through [`f64::to_bits`]/[`f64::from_bits`], so a restored search state
//! is field-for-field identical to the saved one, NaN payloads included.
//!
//! Durability comes from [`save_atomic`]: bytes are written to a sibling
//! temporary file and atomically renamed over the target, so a crash
//! mid-checkpoint never destroys the previous good snapshot. The
//! [`FileSink`] checkpoint sink exposes a deterministic torn-write fault
//! (partial temp-file write, no rename) so tests can prove exactly that.
//!
//! Every failure mode is a typed [`SnapshotError`]; decoding never panics
//! on truncated, corrupted or version-skewed input.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fmt;
use std::path::{Path, PathBuf};

/// Leading magic bytes of every snapshot file.
pub const MAGIC: [u8; 8] = *b"DTRSNAP\0";
/// Current (and only supported) snapshot format version. Version 2 is
/// the layout of the shared robust-search driver (`dtr_core::driver`):
/// both kinds carry the current normal-conditions cost and the full
/// search stats, and the engine's config fingerprint follows the shared
/// fields. Version-1 snapshots are refused with
/// [`SnapshotError::UnsupportedVersion`], never misparsed.
pub const VERSION: u32 = 2;
/// Snapshot kind: DTR phase-2 robust search state.
pub const KIND_DTR_PHASE2: u32 = 1;
/// Snapshot kind: MTR robust search state.
pub const KIND_MTR_ROBUST: u32 = 2;

/// Typed snapshot failure. Decoding and checkpoint I/O never panic; every
/// malformed input maps to one of these variants.
#[derive(Debug)]
pub enum SnapshotError {
    /// Underlying filesystem error while reading or writing a snapshot.
    Io(std::io::Error),
    /// Input ended before a read of `need` bytes could complete.
    Truncated {
        /// Bytes the decoder needed for the next field.
        need: usize,
        /// Bytes actually remaining.
        have: usize,
    },
    /// The leading magic bytes are not `DTRSNAP\0`.
    BadMagic,
    /// The snapshot was written by an unsupported format version.
    UnsupportedVersion {
        /// Version recorded in the snapshot.
        found: u32,
        /// Version this build supports.
        supported: u32,
    },
    /// The snapshot kind does not match what the caller asked to restore.
    WrongKind {
        /// Kind recorded in the snapshot.
        found: u32,
        /// Kind the caller expected.
        expected: u32,
    },
    /// Stored FNV-1a checksum disagrees with the recomputed one.
    ChecksumMismatch {
        /// Checksum stored in the trailer.
        stored: u64,
        /// Checksum recomputed over the received bytes.
        computed: u64,
    },
    /// Structurally invalid payload (bad section tag, impossible length,
    /// trailing bytes, out-of-range enum discriminant, ...).
    Corrupt(&'static str),
    /// The snapshot is internally valid but was taken under a different
    /// search configuration than the one it is being restored into.
    Mismatch(&'static str),
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::Io(e) => write!(f, "snapshot i/o error: {e}"),
            SnapshotError::Truncated { need, have } => {
                write!(f, "snapshot truncated: needed {need} bytes, had {have}")
            }
            SnapshotError::BadMagic => write!(f, "not a snapshot file (bad magic)"),
            SnapshotError::UnsupportedVersion { found, supported } => {
                write!(
                    f,
                    "unsupported snapshot version {found} (supported: {supported})"
                )
            }
            SnapshotError::WrongKind { found, expected } => {
                write!(f, "wrong snapshot kind {found} (expected {expected})")
            }
            SnapshotError::ChecksumMismatch { stored, computed } => write!(
                f,
                "snapshot checksum mismatch: stored {stored:#018x}, computed {computed:#018x}"
            ),
            SnapshotError::Corrupt(what) => write!(f, "corrupt snapshot: {what}"),
            SnapshotError::Mismatch(what) => {
                write!(f, "snapshot/configuration mismatch: {what}")
            }
        }
    }
}

impl std::error::Error for SnapshotError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SnapshotError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for SnapshotError {
    fn from(e: std::io::Error) -> Self {
        SnapshotError::Io(e)
    }
}

/// FNV-1a 64-bit hash over `bytes` (the snapshot trailer checksum).
#[inline]
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Snapshot writer with a reusable internal buffer.
///
/// `begin` clears the buffer but keeps its capacity, so a checkpoint loop
/// that reuses one `Encoder` stops allocating once the buffer has grown to
/// the steady-state snapshot size.
#[derive(Debug, Default)]
pub struct Encoder {
    buf: Vec<u8>,
    sections: Vec<usize>,
}

impl Encoder {
    /// New encoder with an empty buffer.
    pub fn new() -> Self {
        Encoder::default()
    }

    /// Start a snapshot of the given kind: resets the buffer and writes the
    /// magic/version/kind header plus a payload-length placeholder.
    pub fn begin(&mut self, kind: u32) {
        self.buf.clear();
        self.sections.clear();
        self.buf.extend_from_slice(&MAGIC);
        self.buf.extend_from_slice(&VERSION.to_le_bytes());
        self.buf.extend_from_slice(&kind.to_le_bytes());
        self.buf.extend_from_slice(&0u64.to_le_bytes());
    }

    /// Finish the snapshot: patch the payload length, append the FNV-1a
    /// checksum and return the complete byte string.
    pub fn finish(&mut self) -> &[u8] {
        debug_assert!(self.sections.is_empty(), "unclosed snapshot section");
        let header = MAGIC.len() + 4 + 4 + 8;
        let payload_len = (self.buf.len() - header) as u64;
        let at = header - 8;
        self.buf[at..at + 8].copy_from_slice(&payload_len.to_le_bytes());
        let sum = fnv1a(&self.buf);
        self.buf.extend_from_slice(&sum.to_le_bytes());
        &self.buf
    }

    /// Open a length-prefixed section with the given tag.
    pub fn begin_section(&mut self, tag: u32) {
        self.buf.extend_from_slice(&tag.to_le_bytes());
        self.sections.push(self.buf.len());
        self.buf.extend_from_slice(&0u64.to_le_bytes());
    }

    /// Close the innermost open section, patching its length prefix.
    pub fn end_section(&mut self) {
        let at = self
            .sections
            .pop()
            .expect("end_section without begin_section");
        let len = (self.buf.len() - at - 8) as u64;
        self.buf[at..at + 8].copy_from_slice(&len.to_le_bytes());
    }

    /// Append one byte.
    #[inline]
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Append a bool as one byte (0 or 1).
    #[inline]
    pub fn put_bool(&mut self, v: bool) {
        self.buf.push(v as u8);
    }

    /// Append a `u32`, little-endian.
    #[inline]
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append a `u64`, little-endian.
    #[inline]
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append a `usize` as a `u64`.
    #[inline]
    pub fn put_usize(&mut self, v: usize) {
        self.put_u64(v as u64);
    }

    /// Append an `f64` bit-exactly via [`f64::to_bits`].
    #[inline]
    pub fn put_f64(&mut self, v: f64) {
        self.put_u64(v.to_bits());
    }

    /// Append raw bytes (no length prefix).
    #[inline]
    pub fn put_bytes(&mut self, v: &[u8]) {
        self.buf.extend_from_slice(v);
    }

    /// Append a length-prefixed `u32` slice.
    pub fn put_slice_u32(&mut self, v: &[u32]) {
        self.put_usize(v.len());
        for &x in v {
            self.put_u32(x);
        }
    }

    /// Append a length-prefixed `f64` slice, bit-exact.
    pub fn put_slice_f64(&mut self, v: &[f64]) {
        self.put_usize(v.len());
        for &x in v {
            self.put_f64(x);
        }
    }
}

/// Snapshot reader over a validated payload.
#[derive(Debug)]
pub struct Decoder<'a> {
    buf: &'a [u8],
    pos: usize,
}

/// Validate the framing of `bytes` (magic, version, kind, payload length,
/// checksum) and return a [`Decoder`] positioned at the start of the
/// payload.
pub fn open(bytes: &[u8], expect_kind: u32) -> Result<Decoder<'_>, SnapshotError> {
    let header = MAGIC.len() + 4 + 4 + 8;
    if bytes.len() < header + 8 {
        return Err(SnapshotError::Truncated {
            need: header + 8,
            have: bytes.len(),
        });
    }
    if bytes[..MAGIC.len()] != MAGIC {
        return Err(SnapshotError::BadMagic);
    }
    let mut rd = Decoder {
        buf: bytes,
        pos: MAGIC.len(),
    };
    let version = rd.take_u32()?;
    if version != VERSION {
        return Err(SnapshotError::UnsupportedVersion {
            found: version,
            supported: VERSION,
        });
    }
    let kind = rd.take_u32()?;
    let payload_len = rd.take_u64()? as usize;
    if bytes.len() != header + payload_len + 8 {
        return Err(SnapshotError::Truncated {
            need: header + payload_len + 8,
            have: bytes.len(),
        });
    }
    let body_end = bytes.len() - 8;
    let stored = u64::from_le_bytes(bytes[body_end..].try_into().expect("8-byte trailer"));
    let computed = fnv1a(&bytes[..body_end]);
    if stored != computed {
        return Err(SnapshotError::ChecksumMismatch { stored, computed });
    }
    // Kind is checked after the checksum so a corrupted kind field reports
    // as corruption, not as a confusing wrong-kind error.
    if kind != expect_kind {
        return Err(SnapshotError::WrongKind {
            found: kind,
            expected: expect_kind,
        });
    }
    Ok(Decoder {
        buf: &bytes[..body_end],
        pos: header,
    })
}

impl<'a> Decoder<'a> {
    #[inline]
    fn take(&mut self, n: usize) -> Result<&'a [u8], SnapshotError> {
        let have = self.buf.len() - self.pos;
        if have < n {
            return Err(SnapshotError::Truncated { need: n, have });
        }
        let out = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    /// Bytes not yet consumed.
    #[inline]
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Read one byte.
    #[inline]
    pub fn take_u8(&mut self) -> Result<u8, SnapshotError> {
        Ok(self.take(1)?[0])
    }

    /// Read a bool; any byte other than 0 or 1 is corruption.
    #[inline]
    pub fn take_bool(&mut self) -> Result<bool, SnapshotError> {
        match self.take_u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(SnapshotError::Corrupt("bool byte out of range")),
        }
    }

    /// Read a little-endian `u32`.
    #[inline]
    pub fn take_u32(&mut self) -> Result<u32, SnapshotError> {
        Ok(u32::from_le_bytes(
            self.take(4)?.try_into().expect("4 bytes"),
        ))
    }

    /// Read a little-endian `u64`.
    #[inline]
    pub fn take_u64(&mut self) -> Result<u64, SnapshotError> {
        Ok(u64::from_le_bytes(
            self.take(8)?.try_into().expect("8 bytes"),
        ))
    }

    /// Read a `usize` stored as `u64`; lengths wider than the platform
    /// `usize` are corruption.
    #[inline]
    pub fn take_usize(&mut self) -> Result<usize, SnapshotError> {
        usize::try_from(self.take_u64()?)
            .map_err(|_| SnapshotError::Corrupt("length exceeds platform usize"))
    }

    /// Read an `f64` bit-exactly via [`f64::from_bits`].
    #[inline]
    pub fn take_f64(&mut self) -> Result<f64, SnapshotError> {
        Ok(f64::from_bits(self.take_u64()?))
    }

    /// Read a length-prefixed `u32` vector.
    pub fn take_vec_u32(&mut self) -> Result<Vec<u32>, SnapshotError> {
        let n = self.take_len(4)?;
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            out.push(self.take_u32()?);
        }
        Ok(out)
    }

    /// Read a length-prefixed `f64` vector, bit-exact.
    pub fn take_vec_f64(&mut self) -> Result<Vec<f64>, SnapshotError> {
        let n = self.take_len(8)?;
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            out.push(self.take_f64()?);
        }
        Ok(out)
    }

    /// Read a length prefix for elements of `elem_size` bytes, rejecting
    /// lengths that could not possibly fit in the remaining payload (so a
    /// corrupted length cannot trigger a huge allocation).
    #[inline]
    pub fn take_len(&mut self, elem_size: usize) -> Result<usize, SnapshotError> {
        let n = self.take_usize()?;
        if n.checked_mul(elem_size)
            .is_none_or(|b| b > self.remaining())
        {
            return Err(SnapshotError::Corrupt("length prefix exceeds payload"));
        }
        Ok(n)
    }

    /// Read a section header and verify its tag; the declared length must
    /// fit in the remaining payload.
    pub fn section(&mut self, tag: u32) -> Result<(), SnapshotError> {
        let found = self.take_u32()?;
        if found != tag {
            return Err(SnapshotError::Corrupt("unexpected section tag"));
        }
        let len = self.take_usize()?;
        if len > self.remaining() {
            return Err(SnapshotError::Corrupt("section length exceeds payload"));
        }
        Ok(())
    }

    /// Assert the whole payload was consumed.
    pub fn finish(self) -> Result<(), SnapshotError> {
        if self.remaining() != 0 {
            return Err(SnapshotError::Corrupt("trailing bytes after payload"));
        }
        Ok(())
    }
}

fn tmp_path(path: &Path) -> PathBuf {
    let mut name = path
        .file_name()
        .map(|n| n.to_os_string())
        .unwrap_or_default();
    name.push(".tmp");
    path.with_file_name(name)
}

/// Write `bytes` to `path` atomically: write a sibling `<name>.tmp` file,
/// then rename it over the target. A crash before the rename leaves the
/// previous snapshot at `path` untouched.
pub fn save_atomic(path: &Path, bytes: &[u8]) -> Result<(), SnapshotError> {
    let tmp = tmp_path(path);
    std::fs::write(&tmp, bytes)?;
    std::fs::rename(&tmp, path)?;
    Ok(())
}

/// Read a snapshot file written by [`save_atomic`].
pub fn load(path: &Path) -> Result<Vec<u8>, SnapshotError> {
    Ok(std::fs::read(path)?)
}

/// Destination for periodic checkpoints emitted at search boundaries.
pub trait CheckpointSink {
    /// Persist one complete snapshot byte string.
    fn store(&mut self, bytes: &[u8]) -> Result<(), SnapshotError>;
}

/// Simulated torn write: on store number `at_store` (0-based), only the
/// first `keep_bytes` bytes reach the temporary file and the atomic rename
/// never happens — modeling a crash mid-checkpoint.
#[derive(Debug, Clone, Copy)]
pub struct TornWrite {
    /// Which store call (0-based) the fault fires on.
    pub at_store: u64,
    /// How many bytes of the snapshot make it to the temp file.
    pub keep_bytes: usize,
}

/// File-backed checkpoint sink using atomic write-rename, with an optional
/// deterministic torn-write fault for crash-safety tests.
#[derive(Debug)]
pub struct FileSink {
    path: PathBuf,
    fault: Option<TornWrite>,
    stores: u64,
}

impl FileSink {
    /// Sink writing snapshots to `path`.
    pub fn new(path: impl Into<PathBuf>) -> Self {
        FileSink {
            path: path.into(),
            fault: None,
            stores: 0,
        }
    }

    /// Arm a deterministic torn-write fault.
    pub fn with_torn_write(mut self, fault: TornWrite) -> Self {
        self.fault = Some(fault);
        self
    }

    /// Path the sink writes to.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Number of store calls so far (including the torn one).
    pub fn stores(&self) -> u64 {
        self.stores
    }

    /// Read back the last durably stored snapshot.
    pub fn load(&self) -> Result<Vec<u8>, SnapshotError> {
        load(&self.path)
    }
}

impl CheckpointSink for FileSink {
    fn store(&mut self, bytes: &[u8]) -> Result<(), SnapshotError> {
        let n = self.stores;
        self.stores += 1;
        if let Some(f) = self.fault {
            if f.at_store == n {
                // Crash mid-checkpoint: partial temp-file write, no rename.
                let keep = f.keep_bytes.min(bytes.len());
                std::fs::write(tmp_path(&self.path), &bytes[..keep])?;
                return Ok(());
            }
        }
        save_atomic(&self.path, bytes)
    }
}

/// In-memory checkpoint sink recording every snapshot, for tests that kill
/// and restore a search without touching the filesystem.
#[derive(Debug, Default)]
pub struct MemorySink {
    /// Every snapshot stored, in order.
    pub snapshots: Vec<Vec<u8>>,
}

impl MemorySink {
    /// Empty sink.
    pub fn new() -> Self {
        MemorySink::default()
    }

    /// The most recent snapshot, if any checkpoint fired.
    pub fn latest(&self) -> Option<&[u8]> {
        self.snapshots.last().map(|s| s.as_slice())
    }
}

impl CheckpointSink for MemorySink {
    fn store(&mut self, bytes: &[u8]) -> Result<(), SnapshotError> {
        self.snapshots.push(bytes.to_vec());
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Vec<u8> {
        let mut enc = Encoder::new();
        enc.begin(KIND_DTR_PHASE2);
        enc.begin_section(0x11);
        enc.put_u32(7);
        enc.put_u64(u64::MAX);
        enc.put_f64(f64::from_bits(0x7ff8_dead_beef_0001)); // NaN payload
        enc.put_bool(true);
        enc.put_slice_u32(&[3, 1, 4, 1, 5]);
        enc.put_slice_f64(&[-0.0, 1.5e-300]);
        enc.end_section();
        enc.finish().to_vec()
    }

    fn decode_sample(bytes: &[u8]) -> Result<(), SnapshotError> {
        let mut rd = open(bytes, KIND_DTR_PHASE2)?;
        rd.section(0x11)?;
        assert_eq!(rd.take_u32()?, 7);
        assert_eq!(rd.take_u64()?, u64::MAX);
        assert_eq!(rd.take_f64()?.to_bits(), 0x7ff8_dead_beef_0001);
        assert!(rd.take_bool()?);
        assert_eq!(rd.take_vec_u32()?, vec![3, 1, 4, 1, 5]);
        let fs = rd.take_vec_f64()?;
        assert_eq!(fs[0].to_bits(), (-0.0f64).to_bits());
        assert_eq!(fs[1], 1.5e-300);
        rd.finish()
    }

    #[test]
    fn round_trip_bit_exact() {
        decode_sample(&sample()).expect("round trip");
    }

    #[test]
    fn encoder_reuse_is_clean() {
        let mut enc = Encoder::new();
        enc.begin(KIND_MTR_ROBUST);
        enc.put_u64(42);
        let _ = enc.finish();
        // Second use must not leak bytes from the first.
        enc.begin(KIND_DTR_PHASE2);
        enc.begin_section(0x11);
        enc.put_u32(9);
        enc.end_section();
        let bytes = enc.finish().to_vec();
        let mut rd = open(&bytes, KIND_DTR_PHASE2).expect("open");
        rd.section(0x11).expect("section");
        assert_eq!(rd.take_u32().expect("u32"), 9);
        rd.finish().expect("fully consumed");
    }

    #[test]
    fn truncation_at_every_length_errors_never_panics() {
        let bytes = sample();
        for cut in 0..bytes.len() {
            let err = decode_sample(&bytes[..cut]).expect_err("truncated input must fail");
            match err {
                SnapshotError::Truncated { .. }
                | SnapshotError::ChecksumMismatch { .. }
                | SnapshotError::Corrupt(_)
                | SnapshotError::BadMagic => {}
                other => panic!("unexpected error for cut {cut}: {other}"),
            }
        }
    }

    #[test]
    fn bad_magic() {
        let mut bytes = sample();
        bytes[0] ^= 0xff;
        assert!(matches!(
            decode_sample(&bytes),
            Err(SnapshotError::BadMagic)
        ));
    }

    #[test]
    fn version_skew() {
        let mut bytes = sample();
        // Version field sits right after the 8-byte magic.
        bytes[8..12].copy_from_slice(&99u32.to_le_bytes());
        assert!(matches!(
            decode_sample(&bytes),
            Err(SnapshotError::UnsupportedVersion {
                found: 99,
                supported: VERSION
            })
        ));
    }

    #[test]
    fn wrong_kind() {
        let bytes = sample();
        assert!(matches!(
            open(&bytes, KIND_MTR_ROBUST),
            Err(SnapshotError::WrongKind {
                found: KIND_DTR_PHASE2,
                expected: KIND_MTR_ROBUST
            })
        ));
    }

    #[test]
    fn flipped_checksum_byte() {
        let mut bytes = sample();
        let last = bytes.len() - 1;
        bytes[last] ^= 0x01;
        assert!(matches!(
            decode_sample(&bytes),
            Err(SnapshotError::ChecksumMismatch { .. })
        ));
    }

    #[test]
    fn every_flipped_payload_bit_is_caught_or_structural() {
        let bytes = sample();
        // Flip one bit in each byte past the magic; every corruption must
        // surface as a typed error (checksum catches all single flips).
        for i in MAGIC.len()..bytes.len() {
            let mut b = bytes.clone();
            b[i] ^= 0x40;
            assert!(decode_sample(&b).is_err(), "flip at byte {i} undetected");
        }
    }

    #[test]
    fn trailing_bytes_are_corrupt() {
        let mut enc = Encoder::new();
        enc.begin(KIND_DTR_PHASE2);
        enc.put_u32(1);
        enc.put_u32(2);
        let bytes = enc.finish().to_vec();
        let mut rd = open(&bytes, KIND_DTR_PHASE2).expect("open");
        assert_eq!(rd.take_u32().expect("u32"), 1);
        assert!(matches!(
            rd.finish(),
            Err(SnapshotError::Corrupt("trailing bytes after payload"))
        ));
    }

    #[test]
    fn hostile_length_prefix_rejected_without_allocation() {
        let mut enc = Encoder::new();
        enc.begin(KIND_DTR_PHASE2);
        enc.put_u64(u64::MAX); // absurd element count
        let bytes = enc.finish().to_vec();
        let mut rd = open(&bytes, KIND_DTR_PHASE2).expect("open");
        assert!(matches!(rd.take_vec_f64(), Err(SnapshotError::Corrupt(_))));
    }

    #[test]
    fn atomic_save_survives_torn_write() {
        let dir = std::env::temp_dir().join(format!(
            "dtr_persist_test_{}_{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::create_dir_all(&dir).expect("mkdir");
        let path = dir.join("search.snap");

        let good = sample();
        let mut sink = FileSink::new(&path).with_torn_write(TornWrite {
            at_store: 1,
            keep_bytes: 10,
        });
        sink.store(&good).expect("first store");
        assert_eq!(sink.load().expect("readable"), good);

        // Second store tears mid-write: the previous snapshot must survive
        // and still decode.
        let mut second = sample();
        second[20] ^= 0xff; // a different (still framed) payload
        sink.store(&second)
            .expect("torn store reports ok (crash model)");
        let survived = sink.load().expect("previous snapshot intact");
        assert_eq!(survived, good);
        decode_sample(&survived).expect("previous snapshot still valid");

        // The torn temp file exists but is partial garbage.
        let tmp = tmp_path(&path);
        let torn = std::fs::read(&tmp).expect("torn temp file exists");
        assert_eq!(torn.len(), 10);
        assert!(open(&torn, KIND_DTR_PHASE2).is_err());

        // A third store (post-restart) atomically replaces the snapshot.
        sink.store(&good).expect("third store");
        assert_eq!(sink.load().expect("readable"), good);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn error_display_and_source() {
        let io = SnapshotError::from(std::io::Error::new(std::io::ErrorKind::NotFound, "gone"));
        assert!(std::error::Error::source(&io).is_some());
        let s = format!(
            "{} | {} | {}",
            SnapshotError::BadMagic,
            SnapshotError::Truncated { need: 8, have: 3 },
            SnapshotError::Mismatch("seed differs"),
        );
        assert!(s.contains("magic") && s.contains("needed 8") && s.contains("seed"));
    }
}
