//! Compact binary persistence for trace sets.
//!
//! Million-trace campaigns are expensive to collect; attackers (and
//! evaluators) store them and re-analyze offline. This is a small,
//! versioned, dependency-light binary format:
//!
//! ```text
//! magic "PSCT" | version u16 | label len u16 | label bytes
//! | trace count u64 | per trace: value f64 | pt [16] | ct [16]
//! ```
//!
//! Version 2 appends two label bytes per trace — the TVLA pass and the
//! plaintext class (`0xFF` = unclassed, i.e. a known-plaintext CPA
//! window) — so recorded campaigns replay with their full TVLA structure
//! intact. All integers little-endian. [`write_recording`] is the one
//! writer and writes version 2; readers accept both versions, so
//! label-free version-1 files from older tools still load
//! ([`read_trace_set`] drops the labels, [`read_recording`] keeps them),
//! and reject bad magic, unknown versions and truncated payloads.

use crate::checkpoint::PayloadWriter;
use crate::trace::{Trace, TraceSet};
use crate::tvla::PlaintextClass;
use std::io::{Read, Write};

const MAGIC: &[u8; 4] = b"PSCT";
const VERSION: u16 = 1;
const VERSION_LABELED: u16 = 2;
/// Per-trace byte width of the two formats.
const V1_TRACE_BYTES: usize = 40;
const V2_TRACE_BYTES: usize = 42;
/// Wire value of a `None` class byte.
const CLASS_NONE: u8 = 0xFF;

/// Errors from [`read_trace_set`].
#[derive(Debug)]
pub enum CodecError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// Magic bytes did not match.
    BadMagic,
    /// Unsupported format version.
    UnsupportedVersion(u16),
    /// The payload ended early or contained invalid lengths.
    Truncated,
    /// Label bytes were not UTF-8.
    BadLabel,
    /// A version-2 class byte was not a valid [`PlaintextClass`] code.
    BadClass(u8),
}

impl core::fmt::Display for CodecError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            CodecError::Io(e) => write!(f, "i/o error: {e}"),
            CodecError::BadMagic => write!(f, "not a PSCT trace file"),
            CodecError::UnsupportedVersion(v) => write!(f, "unsupported trace format version {v}"),
            CodecError::Truncated => write!(f, "truncated trace payload"),
            CodecError::BadLabel => write!(f, "label is not valid UTF-8"),
            CodecError::BadClass(c) => write!(f, "invalid plaintext-class byte {c:#04x}"),
        }
    }
}

impl std::error::Error for CodecError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CodecError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for CodecError {
    fn from(e: std::io::Error) -> Self {
        CodecError::Io(e)
    }
}

/// Records are buffered and written in batches of about this many bytes.
const FLUSH_BYTES: usize = 32 * 1024;

/// One recorded trace with its TVLA labels (version-2 payload unit).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LabeledTrace {
    /// The observation itself.
    pub trace: Trace,
    /// TVLA pass (0 = unprimed, 1 = primed; 0 for CPA collection).
    pub pass: u8,
    /// TVLA plaintext class; `None` for known-plaintext CPA windows.
    pub class: Option<PlaintextClass>,
}

/// A labelled, fully replayable recording of one channel's campaign
/// slice — what [`read_recording`] returns.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Recording {
    /// Channel label (e.g. the SMC key name, or `PCPU`).
    pub label: String,
    /// Traces in collection order, with their TVLA labels.
    pub traces: Vec<LabeledTrace>,
}

impl Recording {
    /// Drop the labels, keeping the plain trace set (offline CPA shape).
    #[must_use]
    pub fn into_trace_set(self) -> TraceSet {
        let mut set = TraceSet::with_capacity(self.label, self.traces.len());
        for t in self.traces {
            set.push(t.trace);
        }
        set
    }
}

/// Serialize a labeled recording (version-2 format: per-trace TVLA pass
/// and plaintext class survive the round trip, so replayed campaigns
/// rebuild identical TVLA matrices).
///
/// # Errors
///
/// Propagates I/O errors.
pub fn write_recording<W: Write>(
    label: &str,
    traces: &[LabeledTrace],
    mut writer: W,
) -> Result<(), CodecError> {
    let label = &label.as_bytes()[..label.len().min(usize::from(u16::MAX))];
    let mut header = PayloadWriter::new();
    header.put_bytes(MAGIC);
    header.put_u16(VERSION_LABELED);
    header.put_u16(label.len() as u16);
    header.put_bytes(label);
    header.put_u64(traces.len() as u64);
    writer.write_all(&header.into_payload())?;

    let mut buf = Vec::with_capacity(FLUSH_BYTES + V2_TRACE_BYTES);
    for t in traces {
        buf.extend_from_slice(&t.trace.value.to_le_bytes());
        buf.extend_from_slice(&t.trace.plaintext);
        buf.extend_from_slice(&t.trace.ciphertext);
        buf.push(t.pass);
        buf.push(t.class.map_or(CLASS_NONE, |c| c.index() as u8));
        if buf.len() >= FLUSH_BYTES {
            writer.write_all(&buf)?;
            buf.clear();
        }
    }
    writer.write_all(&buf)?;
    Ok(())
}

/// A parsed file header.
struct Header {
    label: String,
    /// Bytes per trace record: [`V1_TRACE_BYTES`] or [`V2_TRACE_BYTES`].
    width: usize,
    /// Declared trace count.
    count: u64,
    /// Declared payload size, `count × width`.
    payload_len: u64,
}

/// The one header parser: reads magic, version, label and trace count,
/// leaving `reader` at the first trace record. A count whose payload
/// size overflows `u64` is [`CodecError::Truncated`] (no file holds it);
/// nothing is allocated from the declared count.
fn read_header<R: Read>(reader: &mut R) -> Result<Header, CodecError> {
    let mut head = [0u8; 8];
    read_exact(reader, &mut head)?;
    if &head[..4] != MAGIC {
        return Err(CodecError::BadMagic);
    }
    let width = match u16::from_le_bytes([head[4], head[5]]) {
        VERSION => V1_TRACE_BYTES,
        VERSION_LABELED => V2_TRACE_BYTES,
        other => return Err(CodecError::UnsupportedVersion(other)),
    };
    let mut label = vec![0u8; usize::from(u16::from_le_bytes([head[6], head[7]]))];
    read_exact(reader, &mut label)?;
    let label = String::from_utf8(label).map_err(|_| CodecError::BadLabel)?;
    let mut count = [0u8; 8];
    read_exact(reader, &mut count)?;
    let count = u64::from_le_bytes(count);
    let payload_len = count.checked_mul(width as u64).ok_or(CodecError::Truncated)?;
    Ok(Header { label, width, count, payload_len })
}

/// `read_exact`, with an early end of input reported as truncation.
fn read_exact<R: Read>(reader: &mut R, buf: &mut [u8]) -> Result<(), CodecError> {
    reader.read_exact(buf).map_err(|e| {
        if e.kind() == std::io::ErrorKind::UnexpectedEof {
            CodecError::Truncated
        } else {
            CodecError::Io(e)
        }
    })
}

/// The one record decoder: append every whole `width`-byte record of
/// `payload` to `out`, each field a fixed-offset copy. A version-2 record
/// carries two label bytes after the trace; a class byte that is neither
/// a [`PlaintextClass`] index nor [`CLASS_NONE`] makes the whole call
/// [`CodecError::BadClass`] with the first bad record's byte.
fn decode_records(
    payload: &[u8],
    width: usize,
    out: &mut Vec<LabeledTrace>,
) -> Result<(), CodecError> {
    let mut first_bad = None;
    out.extend(payload.chunks_exact(width).map(|record| {
        let field = |at: usize| -> [u8; 16] { record[at..at + 16].try_into().expect("16 bytes") };
        let trace = Trace {
            value: f64::from_le_bytes(record[..8].try_into().expect("8 bytes")),
            plaintext: field(8),
            ciphertext: field(24),
        };
        let (pass, class) =
            if width == V2_TRACE_BYTES { (record[40], record[41]) } else { (0, CLASS_NONE) };
        let class = match PlaintextClass::ALL.get(usize::from(class)) {
            Some(&c) => Some(c),
            None if class == CLASS_NONE => None,
            None => {
                first_bad.get_or_insert(class);
                None
            }
        };
        LabeledTrace { trace, pass, class }
    }));
    first_bad.map_or(Ok(()), |c| Err(CodecError::BadClass(c)))
}

/// Deserialize a trace set from a reader. Accepts both format versions;
/// version-2 TVLA labels are dropped (use [`read_recording`] to keep
/// them).
///
/// # Errors
///
/// See [`CodecError`] for the failure modes.
pub fn read_trace_set<R: Read>(reader: R) -> Result<TraceSet, CodecError> {
    read_recording(reader).map(Recording::into_trace_set)
}

/// Read only the channel label from a trace-file header (the cheap probe
/// replay front ends use to discover which channels a directory of
/// recordings holds — no payload is read).
///
/// # Errors
///
/// See [`CodecError`] for the failure modes.
pub fn read_label<R: Read>(mut reader: R) -> Result<String, CodecError> {
    Ok(read_header(&mut reader)?.label)
}

/// Deserialize a recording, keeping the per-trace TVLA labels. Version-1
/// files read back with `pass = 0`, `class = None`.
///
/// # Errors
///
/// See [`CodecError`] for the failure modes.
pub fn read_recording<R: Read>(mut reader: R) -> Result<Recording, CodecError> {
    let header = read_header(&mut reader)?;
    let mut payload = Vec::new();
    reader.read_to_end(&mut payload)?;
    if payload.len() as u64 != header.payload_len {
        return Err(CodecError::Truncated);
    }
    let mut traces = Vec::new();
    decode_records(&payload, header.width, &mut traces)?;
    Ok(Recording { label: header.label, traces })
}

/// Incremental reader over one recording: the header is parsed eagerly,
/// then traces stream out in caller-sized chunks — memory stays
/// O(chunk), not O(file), so a single worker can replay million-trace
/// shard files. Accepts both format versions like [`read_recording`],
/// applies the same validation (bad magic/version/label/class bytes,
/// truncation, trailing garbage), and yields the exact same
/// [`LabeledTrace`] sequence.
#[derive(Debug)]
pub struct RecordingReader<R: Read> {
    reader: R,
    label: String,
    width: usize,
    remaining: u64,
    end_checked: bool,
    buf: Vec<u8>,
}

impl<R: Read> RecordingReader<R> {
    /// Parse the header, leaving the reader at the first trace record.
    ///
    /// # Errors
    ///
    /// See [`CodecError`] for the failure modes.
    pub fn new(mut reader: R) -> Result<Self, CodecError> {
        let Header { label, width, count, .. } = read_header(&mut reader)?;
        Ok(Self { reader, label, width, remaining: count, end_checked: false, buf: Vec::new() })
    }

    /// The recording's channel label.
    #[must_use]
    pub fn label(&self) -> &str {
        &self.label
    }

    /// Traces not yet read.
    #[must_use]
    pub fn remaining(&self) -> u64 {
        self.remaining
    }

    /// Read up to `max` traces into `out` (cleared first). Returns the
    /// number read; `0` means the recording is exhausted. The final call
    /// also verifies the payload ends exactly at the declared count
    /// (trailing bytes are [`CodecError::Truncated`], matching the
    /// whole-file readers).
    ///
    /// # Errors
    ///
    /// See [`CodecError`] for the failure modes.
    pub fn read_chunk(
        &mut self,
        max: usize,
        out: &mut Vec<LabeledTrace>,
    ) -> Result<usize, CodecError> {
        out.clear();
        if self.remaining == 0 {
            if !self.end_checked {
                self.end_checked = true;
                if self.reader.read(&mut [0u8; 1])? != 0 {
                    return Err(CodecError::Truncated);
                }
            }
            return Ok(0);
        }
        let take = usize::try_from(self.remaining).unwrap_or(usize::MAX).min(max.max(1));
        self.buf.resize(take * self.width, 0);
        read_exact(&mut self.reader, &mut self.buf)?;
        decode_records(&self.buf, self.width, out)?;
        self.remaining -= take as u64;
        Ok(take)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_set(n: usize) -> TraceSet {
        let mut set = TraceSet::new("PHPC");
        for i in 0..n {
            set.push(Trace {
                value: i as f64 * 0.125 - 3.0,
                plaintext: core::array::from_fn(|b| (i + b) as u8),
                ciphertext: core::array::from_fn(|b| (i * 7 + b) as u8),
            });
        }
        set
    }

    /// `set` as a version-2 file of unclassed (CPA) records.
    fn v2_file(set: &TraceSet) -> Vec<u8> {
        let traces: Vec<LabeledTrace> =
            set.iter().map(|&trace| LabeledTrace { trace, pass: 0, class: None }).collect();
        let mut bytes = Vec::new();
        write_recording(&set.label, &traces, &mut bytes).unwrap();
        bytes
    }

    /// `set` as a label-free version-1 file, the layout older tools wrote.
    fn v1_file(set: &TraceSet) -> Vec<u8> {
        let mut bytes = MAGIC.to_vec();
        bytes.extend_from_slice(&VERSION.to_le_bytes());
        bytes.extend_from_slice(&(set.label.len() as u16).to_le_bytes());
        bytes.extend_from_slice(set.label.as_bytes());
        bytes.extend_from_slice(&(set.len() as u64).to_le_bytes());
        for t in set.iter() {
            bytes.extend_from_slice(&t.value.to_le_bytes());
            bytes.extend_from_slice(&t.plaintext);
            bytes.extend_from_slice(&t.ciphertext);
        }
        bytes
    }

    #[test]
    fn roundtrip_preserves_everything() {
        let set = sample_set(257);
        let bytes = v2_file(&set);
        let back = read_trace_set(&bytes[..]).unwrap();
        assert_eq!(back, set);
        assert_eq!(back.label, "PHPC");
    }

    #[test]
    fn empty_set_roundtrips() {
        let set = TraceSet::new("empty");
        let bytes = v2_file(&set);
        let back = read_trace_set(&bytes[..]).unwrap();
        assert!(back.is_empty());
        assert_eq!(back.label, "empty");
    }

    #[test]
    fn rejects_bad_magic() {
        let mut bytes = v2_file(&sample_set(3));
        bytes[0] = b'X';
        assert!(matches!(read_trace_set(&bytes[..]), Err(CodecError::BadMagic)));
    }

    #[test]
    fn rejects_unknown_version() {
        let mut bytes = v2_file(&sample_set(3));
        bytes[4] = 99;
        assert!(matches!(read_trace_set(&bytes[..]), Err(CodecError::UnsupportedVersion(99))));
    }

    #[test]
    fn rejects_truncation_anywhere() {
        let bytes = v2_file(&sample_set(5));
        for cut in [1usize, 7, 9, bytes.len() - 1] {
            let r = read_trace_set(&bytes[..cut]);
            assert!(
                matches!(r, Err(CodecError::Truncated) | Err(CodecError::BadMagic)),
                "cut at {cut} must fail"
            );
        }
    }

    #[test]
    fn rejects_trailing_garbage() {
        let mut bytes = v2_file(&sample_set(2));
        bytes.extend_from_slice(&[0u8; 8]);
        assert!(matches!(read_trace_set(&bytes[..]), Err(CodecError::Truncated)));
    }

    #[test]
    fn file_roundtrip() {
        let dir = std::env::temp_dir().join("psc_codec_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("traces.psct");
        let set = sample_set(100);
        std::fs::write(&path, v2_file(&set)).unwrap();
        let back = read_trace_set(std::fs::File::open(&path).unwrap()).unwrap();
        assert_eq!(back, set);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn error_display() {
        assert!(CodecError::BadMagic.to_string().contains("PSCT"));
        assert!(CodecError::UnsupportedVersion(7).to_string().contains('7'));
        assert!(CodecError::BadClass(9).to_string().contains("0x09"));
    }

    fn sample_recording(n: usize) -> Vec<LabeledTrace> {
        (0..n)
            .map(|i| LabeledTrace {
                trace: Trace {
                    value: i as f64 * 0.5 - 1.0,
                    plaintext: core::array::from_fn(|b| (i + b) as u8),
                    ciphertext: core::array::from_fn(|b| (i * 5 + b) as u8),
                },
                pass: (i % 2) as u8,
                class: match i % 4 {
                    0 => Some(PlaintextClass::AllZeros),
                    1 => Some(PlaintextClass::AllOnes),
                    2 => Some(PlaintextClass::Random),
                    _ => None,
                },
            })
            .collect()
    }

    #[test]
    fn labeled_roundtrip_preserves_labels() {
        let traces = sample_recording(101);
        let mut bytes = Vec::new();
        write_recording("PHPC", &traces, &mut bytes).unwrap();
        let back = read_recording(&bytes[..]).unwrap();
        assert_eq!(back.label, "PHPC");
        assert_eq!(back.traces, traces);
    }

    #[test]
    fn labeled_files_read_as_plain_trace_sets() {
        let traces = sample_recording(9);
        let mut bytes = Vec::new();
        write_recording("PHPC", &traces, &mut bytes).unwrap();
        let set = read_trace_set(&bytes[..]).unwrap();
        assert_eq!(set.len(), 9);
        for (plain, labeled) in set.iter().zip(&traces) {
            assert_eq!(*plain, labeled.trace);
        }
    }

    #[test]
    fn v1_files_read_as_unlabeled_recordings() {
        let set = sample_set(7);
        let bytes = v1_file(&set);
        let recording = read_recording(&bytes[..]).unwrap();
        assert_eq!(recording.traces.len(), 7);
        assert!(recording.traces.iter().all(|t| t.pass == 0 && t.class.is_none()));
        assert_eq!(recording.into_trace_set(), set);
    }

    #[test]
    fn labeled_rejects_bad_class_byte() {
        let traces = sample_recording(1);
        let mut bytes = Vec::new();
        write_recording("PHPC", &traces, &mut bytes).unwrap();
        let last = bytes.len() - 1;
        bytes[last] = 7;
        assert!(matches!(read_recording(&bytes[..]), Err(CodecError::BadClass(7))));
    }

    #[test]
    fn bad_class_mid_chunk_reports_the_first_bad_record() {
        let traces = sample_recording(6);
        let mut bytes = Vec::new();
        write_recording("PHPC", &traces, &mut bytes).unwrap();
        let class_byte = |record: usize| bytes.len() - V2_TRACE_BYTES * (6 - record) + 41;
        let (second, fourth) = (class_byte(2), class_byte(4));
        bytes[second] = 9;
        bytes[fourth] = 7;
        assert!(matches!(read_recording(&bytes[..]), Err(CodecError::BadClass(9))));
        let mut reader = RecordingReader::new(&bytes[..]).unwrap();
        let r = reader.read_chunk(6, &mut Vec::new());
        assert!(matches!(r, Err(CodecError::BadClass(9))), "{r:?}");
    }

    #[test]
    fn read_label_probes_header_only() {
        let mut bytes = Vec::new();
        write_recording("PHPC", &sample_recording(3), &mut bytes).unwrap();
        assert_eq!(read_label(&bytes[..]).unwrap(), "PHPC");
        // v1 files probe the same way.
        let v1 = v1_file(&sample_set(2));
        assert_eq!(read_label(&v1[..]).unwrap(), "PHPC");
        assert!(matches!(read_label(&bytes[..6]), Err(CodecError::Truncated)));
        assert!(matches!(read_label(&b"XXXXXXXXXX"[..]), Err(CodecError::BadMagic)));
    }

    #[test]
    fn windowed_reader_matches_whole_file_reader() {
        let traces = sample_recording(101);
        let mut bytes = Vec::new();
        write_recording("PHPC", &traces, &mut bytes).unwrap();
        let whole = read_recording(&bytes[..]).unwrap();
        let mut reader = RecordingReader::new(&bytes[..]).unwrap();
        assert_eq!(reader.label(), "PHPC");
        assert_eq!(reader.remaining(), 101);
        let mut streamed = Vec::new();
        let mut chunk = Vec::new();
        while reader.read_chunk(17, &mut chunk).unwrap() > 0 {
            assert!(chunk.len() <= 17, "chunks bound memory");
            streamed.extend_from_slice(&chunk);
        }
        assert_eq!(streamed, whole.traces);
        assert_eq!(reader.remaining(), 0);
        // Exhausted readers keep returning 0.
        assert_eq!(reader.read_chunk(17, &mut chunk).unwrap(), 0);
    }

    #[test]
    fn windowed_reader_reads_v1_files() {
        let bytes = v1_file(&sample_set(9));
        let mut reader = RecordingReader::new(&bytes[..]).unwrap();
        let mut chunk = Vec::new();
        let mut n = 0;
        while reader.read_chunk(4, &mut chunk).unwrap() > 0 {
            assert!(chunk.iter().all(|t| t.pass == 0 && t.class.is_none()));
            n += chunk.len();
        }
        assert_eq!(n, 9);
    }

    #[test]
    fn windowed_reader_rejects_truncation_and_garbage() {
        let traces = sample_recording(8);
        let mut bytes = Vec::new();
        write_recording("PHPC", &traces, &mut bytes).unwrap();

        let mut reader = RecordingReader::new(&bytes[..bytes.len() - 1]).unwrap();
        let mut chunk = Vec::new();
        let mut result = Ok(1);
        while matches!(result, Ok(n) if n > 0) {
            result = reader.read_chunk(3, &mut chunk);
        }
        assert!(matches!(result, Err(CodecError::Truncated)), "{result:?}");

        let mut garbage = bytes.clone();
        garbage.extend_from_slice(&[0u8; 4]);
        let mut reader = RecordingReader::new(&garbage[..]).unwrap();
        let mut result = Ok(1);
        while matches!(result, Ok(n) if n > 0) {
            result = reader.read_chunk(64, &mut chunk);
        }
        assert!(matches!(result, Err(CodecError::Truncated)), "{result:?}");

        assert!(matches!(RecordingReader::new(&b"XXXXXXXXXX"[..]), Err(CodecError::BadMagic)));
        assert!(matches!(RecordingReader::new(&bytes[..6]), Err(CodecError::Truncated)));
    }

    #[test]
    fn byte_layout_is_pinned() {
        let trace = LabeledTrace {
            trace: Trace { value: 2.5, plaintext: [0x11; 16], ciphertext: [0x22; 16] },
            pass: 1,
            class: Some(PlaintextClass::Random),
        };
        let mut expected = b"PSCT\x02\x00\x04\x00PHPC".to_vec();
        expected.extend_from_slice(&[1, 0, 0, 0, 0, 0, 0, 0]);
        expected.extend_from_slice(&[0, 0, 0, 0, 0, 0, 0x04, 0x40]);
        expected.extend_from_slice(&[0x11; 16]);
        expected.extend_from_slice(&[0x22; 16]);
        expected.extend_from_slice(&[1, PlaintextClass::Random.index() as u8]);
        let mut bytes = Vec::new();
        write_recording("PHPC", &[trace], &mut bytes).unwrap();
        assert_eq!(bytes, expected);

        // Version 1 is the same record without the two label bytes.
        expected[4] = 1;
        expected.truncate(expected.len() - 2);
        let mut set = TraceSet::new("PHPC");
        set.push(trace.trace);
        assert_eq!(v1_file(&set), expected);
        let back = read_recording(&expected[..]).unwrap();
        assert_eq!(back.traces, [LabeledTrace { pass: 0, class: None, ..trace }]);
    }

    /// A bare header: `PSCT`, `version`, an empty label and `count`.
    fn header_only(version: u16, count: u64) -> Vec<u8> {
        let mut bytes = MAGIC.to_vec();
        bytes.extend_from_slice(&version.to_le_bytes());
        bytes.extend_from_slice(&0u16.to_le_bytes());
        bytes.extend_from_slice(&count.to_le_bytes());
        bytes
    }

    #[test]
    fn crafted_counts_are_truncation_not_panics() {
        for version in [VERSION, VERSION_LABELED] {
            // count × record width overflows u64.
            let bytes = header_only(version, 1 << 61);
            assert_eq!(bytes.len(), 16);
            let r = read_trace_set(&bytes[..]);
            assert!(matches!(r, Err(CodecError::Truncated)), "v{version}: {r:?}");
            let r = read_recording(&bytes[..]);
            assert!(matches!(r, Err(CodecError::Truncated)), "v{version}: {r:?}");
            let r = RecordingReader::new(&bytes[..]);
            assert!(matches!(r, Err(CodecError::Truncated)), "v{version}: {r:?}");
            assert!(matches!(read_label(&bytes[..]), Err(CodecError::Truncated)), "v{version}");

            // A huge count that fits but has no payload behind it.
            let bytes = header_only(version, 1 << 40);
            assert!(matches!(read_trace_set(&bytes[..]), Err(CodecError::Truncated)));
            assert!(matches!(read_recording(&bytes[..]), Err(CodecError::Truncated)));
            let mut reader = RecordingReader::new(&bytes[..]).expect("header parses");
            assert_eq!(reader.remaining(), 1 << 40);
            let r = reader.read_chunk(64, &mut Vec::new());
            assert!(matches!(r, Err(CodecError::Truncated)), "v{version}: {r:?}");
        }
    }

    #[test]
    fn labeled_rejects_truncation() {
        let traces = sample_recording(4);
        let mut bytes = Vec::new();
        write_recording("PHPC", &traces, &mut bytes).unwrap();
        assert!(matches!(read_recording(&bytes[..bytes.len() - 1]), Err(CodecError::Truncated)));
    }
}
