//! Codec v3: the checkpoint container for campaign analysis state.
//!
//! Versions 1/2 of the `PSCT` format ([`crate::codec`]) persist *traces*;
//! version 3 persists *accumulated analysis state* so a long campaign can
//! checkpoint → crash → resume bit-identically. A checkpoint frame is a
//! small tagged container:
//!
//! ```text
//! magic "PSCT" | version u16 = 3 | section count u16
//! | per section: tag u16 | payload len u32 | payload bytes
//! | crc32 u32 (IEEE, over everything before the trailer)
//! ```
//!
//! All integers little-endian; `f64` fields travel as their exact IEEE-754
//! bit patterns ([`f64::to_bits`]), so restored Welford/CPA accumulators
//! continue their streams **bit-identically**. Decoding is strict and
//! panic-free: bad magic, unknown versions, truncated payloads, trailing
//! bytes and CRC mismatches all come back as [`CheckpointError`], and no
//! allocation ever exceeds the input length (a corrupt length field cannot
//! OOM the reader).
//!
//! This module owns the *framing* and the payload codecs for `psc-sca`'s
//! own accumulator types ([`RunningMoments`], [`TvlaAccumulator`],
//! [`TvlaTracker`], [`CpaState`]); the telemetry and session layers
//! compose them into per-shard campaign snapshots.

use crate::cpa::CpaState;
use crate::stats::RunningMoments;
use crate::tvla::TvlaAccumulator;
use crate::tvla::TvlaTracker;

const MAGIC: &[u8; 4] = b"PSCT";
/// The checkpoint container format version.
pub const CHECKPOINT_VERSION: u16 = 3;
/// Fixed bin count of a serialized [`CpaState`] (16 key bytes × 256
/// input-byte values).
pub const CPA_BINS: usize = 16 * 256;

/// Errors from checkpoint decoding (encoding is infallible in memory).
#[derive(Debug)]
pub enum CheckpointError {
    /// Underlying I/O failure (from callers layering file reads on top).
    Io(std::io::Error),
    /// Magic bytes did not match.
    BadMagic,
    /// Unsupported container version.
    UnsupportedVersion(u16),
    /// The payload ended early or a declared length overran the input.
    Truncated,
    /// The CRC trailer did not match the frame contents.
    BadCrc {
        /// CRC recorded in the trailer.
        expected: u32,
        /// CRC computed over the received frame.
        actual: u32,
    },
    /// Structurally invalid contents (bad field values, trailing bytes).
    Corrupt(&'static str),
    /// The frame was taken by a different campaign: its identity record
    /// first differs from the resuming campaign's at this field.
    ForeignCampaign(String),
}

impl core::fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            CheckpointError::Io(e) => write!(f, "i/o error: {e}"),
            CheckpointError::BadMagic => write!(f, "not a PSCT checkpoint"),
            CheckpointError::UnsupportedVersion(v) => {
                write!(f, "unsupported checkpoint version {v}")
            }
            CheckpointError::Truncated => write!(f, "truncated checkpoint payload"),
            CheckpointError::BadCrc { expected, actual } => {
                write!(f, "checkpoint CRC mismatch: trailer {expected:#010x}, frame {actual:#010x}")
            }
            CheckpointError::Corrupt(what) => write!(f, "corrupt checkpoint: {what}"),
            CheckpointError::ForeignCampaign(field) => {
                write!(f, "checkpoint belongs to a different campaign: its {field} differs")
            }
        }
    }
}

impl std::error::Error for CheckpointError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CheckpointError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for CheckpointError {
    fn from(e: std::io::Error) -> Self {
        CheckpointError::Io(e)
    }
}

/// Slice-by-16 CRC-32 tables: `CRC_TABLES[0]` is the bytewise table of
/// the IEEE 802.3 reflected polynomial — the ubiquitous `crc32` everyone
/// (zlib, PNG, ethernet) means by "CRC-32" — and `CRC_TABLES[k][i]` is
/// the CRC of byte `i` followed by `k` zero bytes, so one 16-byte chunk
/// folds in with 16 independent lookups.
const fn crc32_tables() -> [[u32; 256]; 16] {
    let mut tables = [[0u32; 256]; 16];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 { (crc >> 1) ^ 0xEDB8_8320 } else { crc >> 1 };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 16 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
}

static CRC_TABLES: [[u32; 256]; 16] = crc32_tables();

/// CRC-32 (IEEE) of `bytes` — the checkpoint trailer checksum. Runs
/// slice-by-16: each 16-byte chunk is folded in with one lookup per byte
/// into [`crc32_tables`], all independent, and the tail bytewise.
#[must_use]
pub fn crc32(bytes: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let mut crc = 0xFFFF_FFFFu32;
    let mut chunks = bytes.chunks_exact(16);
    for c in &mut chunks {
        let head = crc ^ u32::from_le_bytes([c[0], c[1], c[2], c[3]]);
        let [b0, b1, b2, b3] = head.to_le_bytes();
        crc = t[15][usize::from(b0)]
            ^ t[14][usize::from(b1)]
            ^ t[13][usize::from(b2)]
            ^ t[12][usize::from(b3)]
            ^ t[11][usize::from(c[4])]
            ^ t[10][usize::from(c[5])]
            ^ t[9][usize::from(c[6])]
            ^ t[8][usize::from(c[7])]
            ^ t[7][usize::from(c[8])]
            ^ t[6][usize::from(c[9])]
            ^ t[5][usize::from(c[10])]
            ^ t[4][usize::from(c[11])]
            ^ t[3][usize::from(c[12])]
            ^ t[2][usize::from(c[13])]
            ^ t[1][usize::from(c[14])]
            ^ t[0][usize::from(c[15])];
    }
    for &b in chunks.remainder() {
        crc = (crc >> 8) ^ t[0][usize::from(crc as u8 ^ b)];
    }
    !crc
}

/// One tagged section of a checkpoint frame. Tags are assigned by the
/// layer that composes the frame (the session driver); this module treats
/// them as opaque.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Section {
    /// Section tag.
    pub tag: u16,
    /// Raw payload bytes (build with [`PayloadWriter`], read with
    /// [`PayloadReader`]).
    pub payload: Vec<u8>,
}

/// Serialize sections into one framed, CRC-trailed checkpoint blob.
///
/// # Panics
///
/// Panics if there are more than `u16::MAX` sections or a payload exceeds
/// `u32::MAX` bytes — both far beyond any real checkpoint.
#[must_use]
pub fn encode_frame(sections: &[Section]) -> Vec<u8> {
    let body: usize = sections.iter().map(|s| 6 + s.payload.len()).sum();
    let mut out = Vec::with_capacity(4 + 2 + 2 + body + 4);
    out.extend_from_slice(MAGIC);
    out.extend_from_slice(&CHECKPOINT_VERSION.to_le_bytes());
    let count = u16::try_from(sections.len()).expect("checkpoint section count fits u16");
    out.extend_from_slice(&count.to_le_bytes());
    for s in sections {
        out.extend_from_slice(&s.tag.to_le_bytes());
        let len = u32::try_from(s.payload.len()).expect("checkpoint section fits u32");
        out.extend_from_slice(&len.to_le_bytes());
        out.extend_from_slice(&s.payload);
    }
    let crc = crc32(&out);
    out.extend_from_slice(&crc.to_le_bytes());
    out
}

/// Parse and verify a checkpoint frame produced by [`encode_frame`].
///
/// Strict: the magic, version, every declared length, the section count
/// and the CRC trailer must all check out, and the frame must end exactly
/// after the trailer. No allocation exceeds the input length, so corrupt
/// length fields cannot cause OOM.
///
/// # Errors
///
/// See [`CheckpointError`] for the failure modes.
pub fn decode_frame(bytes: &[u8]) -> Result<Vec<Section>, CheckpointError> {
    if bytes.len() < 4 {
        return Err(CheckpointError::Truncated);
    }
    if &bytes[..4] != MAGIC {
        return Err(CheckpointError::BadMagic);
    }
    if bytes.len() < 8 {
        return Err(CheckpointError::Truncated);
    }
    let version = u16::from_le_bytes([bytes[4], bytes[5]]);
    if version != CHECKPOINT_VERSION {
        return Err(CheckpointError::UnsupportedVersion(version));
    }
    if bytes.len() < 12 {
        return Err(CheckpointError::Truncated);
    }
    let (frame, trailer) = bytes.split_at(bytes.len() - 4);
    let expected = u32::from_le_bytes(trailer.try_into().expect("split gave 4 bytes"));
    let actual = crc32(frame);
    if expected != actual {
        return Err(CheckpointError::BadCrc { expected, actual });
    }
    let count = u16::from_le_bytes([bytes[6], bytes[7]]) as usize;
    let mut pos = 8usize;
    let mut sections = Vec::with_capacity(count.min(frame.len() / 6 + 1));
    for _ in 0..count {
        if frame.len() - pos < 6 {
            return Err(CheckpointError::Truncated);
        }
        let tag = u16::from_le_bytes([frame[pos], frame[pos + 1]]);
        let len =
            u32::from_le_bytes([frame[pos + 2], frame[pos + 3], frame[pos + 4], frame[pos + 5]])
                as usize;
        pos += 6;
        if frame.len() - pos < len {
            return Err(CheckpointError::Truncated);
        }
        sections.push(Section { tag, payload: frame[pos..pos + len].to_vec() });
        pos += len;
    }
    if pos != frame.len() {
        return Err(CheckpointError::Corrupt("trailing bytes after last section"));
    }
    Ok(sections)
}

/// Little-endian payload builder for one [`Section`].
#[derive(Debug, Default)]
pub struct PayloadWriter {
    buf: Vec<u8>,
}

impl PayloadWriter {
    /// Empty payload.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Append one byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Append a little-endian `u16`.
    pub fn put_u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append a little-endian `u32`.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append a little-endian `u64`.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append an `f64` as its exact IEEE-754 bit pattern.
    pub fn put_f64(&mut self, v: f64) {
        self.put_u64(v.to_bits());
    }

    /// Append raw bytes with no length prefix (fixed-width fields whose
    /// length both sides know statically).
    pub fn put_bytes(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Append a `u16`-length-prefixed UTF-8 string.
    ///
    /// # Panics
    ///
    /// Panics if `s` exceeds `u16::MAX` bytes.
    pub fn put_str(&mut self, s: &str) {
        let len = u16::try_from(s.len()).expect("checkpoint string fits u16");
        self.put_u16(len);
        self.buf.extend_from_slice(s.as_bytes());
    }

    /// Finish the payload as a tagged [`Section`].
    #[must_use]
    pub fn into_section(self, tag: u16) -> Section {
        Section { tag, payload: self.buf }
    }

    /// Finish as raw payload bytes (a section body without its tag), for
    /// callers that nest one encoded payload inside another section.
    #[must_use]
    pub fn into_payload(self) -> Vec<u8> {
        self.buf
    }
}

/// Strict bounds-checked reader over one section payload.
#[derive(Debug)]
pub struct PayloadReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> PayloadReader<'a> {
    /// Read from the start of `payload`.
    #[must_use]
    pub fn new(payload: &'a [u8]) -> Self {
        Self { buf: payload, pos: 0 }
    }

    /// Bytes not yet consumed.
    #[must_use]
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], CheckpointError> {
        if self.remaining() < n {
            return Err(CheckpointError::Truncated);
        }
        let out = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    /// Read one byte.
    ///
    /// # Errors
    ///
    /// [`CheckpointError::Truncated`] when the payload is exhausted.
    pub fn get_u8(&mut self) -> Result<u8, CheckpointError> {
        Ok(self.take(1)?[0])
    }

    /// Read a little-endian `u16`.
    ///
    /// # Errors
    ///
    /// [`CheckpointError::Truncated`] when the payload is exhausted.
    pub fn get_u16(&mut self) -> Result<u16, CheckpointError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().expect("take gave 2 bytes")))
    }

    /// Read a little-endian `u32`.
    ///
    /// # Errors
    ///
    /// [`CheckpointError::Truncated`] when the payload is exhausted.
    pub fn get_u32(&mut self) -> Result<u32, CheckpointError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("take gave 4 bytes")))
    }

    /// Read a little-endian `u64`.
    ///
    /// # Errors
    ///
    /// [`CheckpointError::Truncated`] when the payload is exhausted.
    pub fn get_u64(&mut self) -> Result<u64, CheckpointError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("take gave 8 bytes")))
    }

    /// Read an `f64` bit pattern written by [`PayloadWriter::put_f64`].
    ///
    /// # Errors
    ///
    /// [`CheckpointError::Truncated`] when the payload is exhausted.
    pub fn get_f64(&mut self) -> Result<f64, CheckpointError> {
        Ok(f64::from_bits(self.get_u64()?))
    }

    /// Read a fixed-width byte array written by
    /// [`PayloadWriter::put_bytes`].
    ///
    /// # Errors
    ///
    /// [`CheckpointError::Truncated`] when the payload is exhausted.
    pub fn get_bytes<const N: usize>(&mut self) -> Result<[u8; N], CheckpointError> {
        Ok(self.take(N)?.try_into().expect("take gave N bytes"))
    }

    /// Read a `u16`-length-prefixed UTF-8 string.
    ///
    /// # Errors
    ///
    /// [`CheckpointError::Truncated`] on exhaustion,
    /// [`CheckpointError::Corrupt`] on invalid UTF-8.
    pub fn get_str(&mut self) -> Result<String, CheckpointError> {
        let len = self.get_u16()? as usize;
        let bytes = self.take(len)?;
        core::str::from_utf8(bytes)
            .map(str::to_owned)
            .map_err(|_| CheckpointError::Corrupt("string is not valid UTF-8"))
    }

    /// Assert the payload was fully consumed — trailing bytes mean the
    /// writer and reader disagree about the schema.
    ///
    /// # Errors
    ///
    /// [`CheckpointError::Corrupt`] when bytes remain.
    pub fn finish(&self) -> Result<(), CheckpointError> {
        if self.remaining() == 0 {
            Ok(())
        } else {
            Err(CheckpointError::Corrupt("trailing bytes in section"))
        }
    }
}

/// Append a `u32`-length blob — for payloads that can outgrow
/// [`PayloadWriter::put_str`]'s `u16` length (spec and report text,
/// encoded analysis state, identity records).
///
/// # Panics
///
/// Panics if `bytes` exceeds `u32::MAX` bytes.
pub fn put_blob(w: &mut PayloadWriter, bytes: &[u8]) {
    w.put_u32(u32::try_from(bytes.len()).expect("blob fits in u32"));
    w.put_bytes(bytes);
}

/// Read a blob written by [`put_blob`].
///
/// # Errors
///
/// [`CheckpointError::Truncated`] when the payload ends inside it.
pub fn get_blob(r: &mut PayloadReader<'_>) -> Result<Vec<u8>, CheckpointError> {
    let len = r.get_u32()? as usize;
    Ok(r.take(len)?.to_vec())
}

/// Read a [`put_blob`] blob as UTF-8 text.
///
/// # Errors
///
/// [`CheckpointError::Truncated`] when the payload ends inside it,
/// [`CheckpointError::Corrupt`] when it is not UTF-8.
pub fn get_blob_str(r: &mut PayloadReader<'_>) -> Result<String, CheckpointError> {
    String::from_utf8(get_blob(r)?).map_err(|_| CheckpointError::Corrupt("blob is not UTF-8"))
}

/// Serialize one Welford accumulator (24 bytes).
pub fn put_moments(w: &mut PayloadWriter, m: &RunningMoments) {
    let (n, mean, m2) = m.raw();
    w.put_u64(n);
    w.put_f64(mean);
    w.put_f64(m2);
}

/// Deserialize one Welford accumulator written by [`put_moments`].
///
/// # Errors
///
/// [`CheckpointError::Truncated`] when the payload is exhausted.
pub fn get_moments(r: &mut PayloadReader<'_>) -> Result<RunningMoments, CheckpointError> {
    let n = r.get_u64()?;
    let mean = r.get_f64()?;
    let m2 = r.get_f64()?;
    Ok(RunningMoments::from_raw(n, mean, m2))
}

/// Serialize a full TVLA accumulator: the six `[pass][class]` moment
/// accumulators in order (144 bytes).
pub fn put_tvla_accumulator(w: &mut PayloadWriter, acc: &TvlaAccumulator) {
    for pass in &acc.raw() {
        for m in pass {
            put_moments(w, m);
        }
    }
}

/// Deserialize a TVLA accumulator written by [`put_tvla_accumulator`].
///
/// # Errors
///
/// [`CheckpointError::Truncated`] when the payload is exhausted.
pub fn get_tvla_accumulator(r: &mut PayloadReader<'_>) -> Result<TvlaAccumulator, CheckpointError> {
    let mut moments = [[RunningMoments::new(); 3]; 2];
    for pass in &mut moments {
        for m in pass.iter_mut() {
            *m = get_moments(r)?;
        }
    }
    Ok(TvlaAccumulator::from_raw(moments))
}

/// Serialize a two-dataset TVLA tracker (48 bytes).
pub fn put_tracker(w: &mut PayloadWriter, tracker: &TvlaTracker) {
    let (a, b) = tracker.raw();
    put_moments(w, &a);
    put_moments(w, &b);
}

/// Deserialize a tracker written by [`put_tracker`].
///
/// # Errors
///
/// [`CheckpointError::Truncated`] when the payload is exhausted.
pub fn get_tracker(r: &mut PayloadReader<'_>) -> Result<TvlaTracker, CheckpointError> {
    let a = get_moments(r)?;
    let b = get_moments(r)?;
    Ok(TvlaTracker::from_raw(a, b))
}

/// Serialize a raw CPA accumulator state: model name, trace moments and
/// all 16 × 256 bins (~64 KB).
///
/// # Panics
///
/// Panics if `state.bins` does not hold exactly [`CPA_BINS`] entries.
pub fn put_cpa_state(w: &mut PayloadWriter, state: &CpaState) {
    assert_eq!(state.bins.len(), CPA_BINS, "CpaState must carry 16x256 bins");
    w.put_str(&state.model_name);
    w.put_u64(state.n);
    w.put_f64(state.sum_t);
    w.put_f64(state.sum_tt);
    for &(count, sum_t) in &state.bins {
        w.put_u64(count);
        w.put_f64(sum_t);
    }
}

/// Deserialize a CPA state written by [`put_cpa_state`]. The bin count is
/// fixed, so a corrupt length cannot over-allocate.
///
/// # Errors
///
/// See [`CheckpointError`] for the failure modes.
pub fn get_cpa_state(r: &mut PayloadReader<'_>) -> Result<CpaState, CheckpointError> {
    let model_name = r.get_str()?;
    let n = r.get_u64()?;
    let sum_t = r.get_f64()?;
    let sum_tt = r.get_f64()?;
    if r.remaining() < CPA_BINS * 16 {
        return Err(CheckpointError::Truncated);
    }
    let mut bins = Vec::with_capacity(CPA_BINS);
    for _ in 0..CPA_BINS {
        let count = r.get_u64()?;
        let s = r.get_f64()?;
        bins.push((count, s));
    }
    Ok(CpaState { model_name, bins, n, sum_t, sum_tt })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_matches_known_vectors() {
        // The classic zlib/PNG check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    /// The textbook bitwise-table CRC-32, one byte per step: the reference
    /// the slice-by-16 loop must match.
    fn crc32_bytewise(bytes: &[u8]) -> u32 {
        let mut crc = 0xFFFF_FFFFu32;
        for &b in bytes {
            crc = (crc >> 8) ^ CRC_TABLES[0][((crc ^ u32::from(b)) & 0xFF) as usize];
        }
        !crc
    }

    fn noise(len: usize, mut state: u64) -> Vec<u8> {
        (0..len)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                (state >> 24) as u8
            })
            .collect()
    }

    #[test]
    fn crc32_matches_bytewise_reference_at_every_length_and_offset() {
        // Every tail length and chunk count up to 1 100 bytes, starting at
        // three alignments of the buffer.
        let buf = noise(1_100 + 3, 0xC3C3_5A5A);
        for offset in 0..3 {
            for len in 0..=1_100 {
                let bytes = &buf[offset..offset + len];
                assert_eq!(crc32(bytes), crc32_bytewise(bytes), "offset {offset} len {len}");
            }
        }
        for seed in [1u64, 0xDEAD_BEEF, 0x0123_4567_89AB_CDEF] {
            let big = noise(256 * 1024, seed);
            assert_eq!(crc32(&big), crc32_bytewise(&big), "256 KiB, seed {seed:#x}");
        }
    }

    #[test]
    fn frame_over_256_kib_round_trips_and_catches_one_bit_flip() {
        let big = Section { tag: 4, payload: noise(300 * 1024, 77) };
        let frame = encode_frame(&[big.clone(), Section { tag: 5, payload: b"tail".to_vec() }]);
        let sections = decode_frame(&frame).expect("valid frame");
        assert_eq!(sections[0], big);
        let mut flipped = frame.clone();
        flipped[frame.len() / 3] ^= 0x10;
        assert!(matches!(decode_frame(&flipped), Err(CheckpointError::BadCrc { .. })));
    }

    fn sample_sections() -> Vec<Section> {
        let mut a = PayloadWriter::new();
        a.put_u64(42);
        a.put_str("PHPC");
        let mut b = PayloadWriter::new();
        b.put_f64(-0.0);
        b.put_f64(f64::NAN);
        vec![a.into_section(1), b.into_section(7), Section { tag: 9, payload: Vec::new() }]
    }

    #[test]
    fn frame_round_trips() {
        let sections = sample_sections();
        let bytes = encode_frame(&sections);
        let back = decode_frame(&bytes).unwrap();
        assert_eq!(back, sections);
    }

    #[test]
    fn empty_frame_round_trips() {
        let bytes = encode_frame(&[]);
        assert_eq!(decode_frame(&bytes).unwrap(), Vec::<Section>::new());
    }

    #[test]
    fn truncation_at_every_offset_is_a_clean_error() {
        let bytes = encode_frame(&sample_sections());
        for cut in 0..bytes.len() {
            assert!(decode_frame(&bytes[..cut]).is_err(), "cut at {cut} must fail");
        }
    }

    #[test]
    fn any_flipped_byte_is_rejected() {
        let bytes = encode_frame(&sample_sections());
        for i in 0..bytes.len() {
            let mut corrupt = bytes.clone();
            corrupt[i] ^= 0x40;
            assert!(decode_frame(&corrupt).is_err(), "flip at {i} must fail");
        }
    }

    #[test]
    fn wrong_version_and_magic_are_rejected() {
        let mut bytes = encode_frame(&sample_sections());
        bytes[4] = 9;
        assert!(matches!(decode_frame(&bytes), Err(CheckpointError::UnsupportedVersion(9))));
        let mut bytes = encode_frame(&[]);
        bytes[0] = b'X';
        assert!(matches!(decode_frame(&bytes), Err(CheckpointError::BadMagic)));
    }

    #[test]
    fn trailing_garbage_is_rejected() {
        let mut bytes = encode_frame(&sample_sections());
        bytes.extend_from_slice(&[0u8; 5]);
        assert!(decode_frame(&bytes).is_err());
    }

    #[test]
    fn moments_round_trip_bit_identically() {
        let mut m = RunningMoments::new();
        m.extend([1.5, -2.25, 1e300, 0.1]);
        let mut w = PayloadWriter::new();
        put_moments(&mut w, &m);
        let section = w.into_section(0);
        let mut r = PayloadReader::new(&section.payload);
        let back = get_moments(&mut r).unwrap();
        r.finish().unwrap();
        let (n, mean, m2) = m.raw();
        let (bn, bmean, bm2) = back.raw();
        assert_eq!(n, bn);
        assert_eq!(mean.to_bits(), bmean.to_bits());
        assert_eq!(m2.to_bits(), bm2.to_bits());
    }

    #[test]
    fn cpa_state_round_trips() {
        let state = CpaState {
            model_name: "Rd0-HW".into(),
            bins: (0..CPA_BINS).map(|i| (i as u64, i as f64 * 0.5 - 7.0)).collect(),
            n: 1234,
            sum_t: 99.5,
            sum_tt: 1e9,
        };
        let mut w = PayloadWriter::new();
        put_cpa_state(&mut w, &state);
        let section = w.into_section(0);
        let mut r = PayloadReader::new(&section.payload);
        let back = get_cpa_state(&mut r).unwrap();
        r.finish().unwrap();
        assert_eq!(back, state);
    }

    #[test]
    fn reader_rejects_exhaustion_and_bad_utf8() {
        let mut r = PayloadReader::new(&[1, 2]);
        assert!(matches!(r.get_u32(), Err(CheckpointError::Truncated)));
        // Length prefix claims 2 bytes of invalid UTF-8.
        let mut w = PayloadWriter::new();
        w.put_u16(2);
        let mut section = w.into_section(0);
        section.payload.extend_from_slice(&[0xFF, 0xFE]);
        let mut r = PayloadReader::new(&section.payload);
        assert!(matches!(r.get_str(), Err(CheckpointError::Corrupt(_))));
    }
}
