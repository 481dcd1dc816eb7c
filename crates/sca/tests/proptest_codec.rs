//! The `.psct` decoder under garbage input: arbitrary bytes, and valid
//! files with mutated, truncated or extended bytes, go through the
//! whole-file readers and through `RecordingReader::read_chunk` at every
//! chunk size. Each call returns `Ok` or a typed `CodecError` (a panic
//! fails the property), the readers agree, and whatever decodes
//! re-encodes to the same bytes.

use proptest::prelude::*;
use psc_sca::codec::{
    read_recording, read_trace_set, write_recording, CodecError, LabeledTrace, Recording,
    RecordingReader,
};
use psc_sca::trace::{Trace, TraceSet};
use psc_sca::tvla::PlaintextClass;

/// Chunk sizes tried per input: every size up to past the longest
/// generated file, then one larger than any.
const CHUNKS: [usize; 13] = [1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 64];

/// A recording with any value bits and pass byte and a valid class.
fn recording() -> impl Strategy<Value = Recording> {
    let trace = ((any::<u64>(), any::<[u8; 16]>(), any::<[u8; 16]>()), (any::<u8>(), 0u8..4));
    (proptest::collection::vec(0u8..26, 0..6), proptest::collection::vec(trace, 0..10)).prop_map(
        |(label, traces)| Recording {
            label: label.iter().map(|&c| char::from(b'A' + c)).collect(),
            traces: traces
                .into_iter()
                .map(|((bits, plaintext, ciphertext), (pass, class))| LabeledTrace {
                    trace: Trace { value: f64::from_bits(bits), plaintext, ciphertext },
                    pass,
                    class: PlaintextClass::ALL.get(usize::from(class)).copied(),
                })
                .collect(),
        },
    )
}

/// `recording` encoded as a labeled (version 2) file, or as the plain
/// version-1 layout older tools wrote (no writer produces it any more, so
/// it is laid out here: the version-2 header and records without the two
/// label bytes).
fn encode(recording: &Recording, labeled: bool) -> Vec<u8> {
    let mut bytes = Vec::new();
    write_recording(&recording.label, &recording.traces, &mut bytes).expect("in memory");
    if labeled {
        return bytes;
    }
    let header = bytes.len() - 42 * recording.traces.len();
    let mut v1 = bytes[..header].to_vec();
    v1[4] = 1;
    for record in bytes[header..].chunks_exact(42) {
        v1.extend_from_slice(&record[..40]);
    }
    v1
}

/// Inputs: raw bytes, or a valid file with one of four damages applied.
fn input() -> impl Strategy<Value = Vec<u8>> {
    let raw = proptest::collection::vec(any::<u8>(), 0..200);
    let edits = proptest::collection::vec((any::<usize>(), any::<u8>()), 1..4);
    let damaged = (recording(), any::<bool>(), 0u8..5, edits).prop_map(
        |(recording, labeled, damage, edits)| {
            let mut bytes = encode(&recording, labeled);
            let len = bytes.len();
            match damage {
                // Overwrite a few bytes anywhere.
                0 => edits.iter().for_each(|&(at, b)| bytes[at % len] = b),
                // Cut the file short.
                1 => bytes.truncate(edits[0].0 % len),
                // Append trailing bytes.
                2 => bytes.extend(edits.iter().map(|&(_, b)| b)),
                // Overwrite a record's class byte (labeled files).
                3 if labeled && !recording.traces.is_empty() => {
                    let record = edits[0].0 % recording.traces.len();
                    bytes[len - 42 * (recording.traces.len() - record) + 41] = edits[0].1;
                }
                // Leave it valid.
                _ => {}
            }
            bytes
        },
    );
    prop_oneof![raw, damaged]
}

/// A recording's content with values compared by bits (NaN payloads
/// must survive too).
type Content = (String, Vec<(u64, [u8; 16], [u8; 16], u8, Option<PlaintextClass>)>);

fn content(recording: &Recording) -> Content {
    let traces = recording
        .traces
        .iter()
        .map(|t| (t.trace.value.to_bits(), t.trace.plaintext, t.trace.ciphertext, t.pass, t.class));
    (recording.label.clone(), traces.collect())
}

fn plain_content(set: &TraceSet) -> Content {
    let traces =
        set.iter().map(|t| (t.value.to_bits(), t.plaintext, t.ciphertext, 0, None)).collect();
    (set.label.clone(), traces)
}

/// Read `bytes` through `RecordingReader` in chunks of at most `chunk`.
fn stream(bytes: &[u8], chunk: usize) -> Result<Recording, CodecError> {
    let mut reader = RecordingReader::new(bytes)?;
    let mut recording = Recording { label: reader.label().to_owned(), traces: Vec::new() };
    let mut buf = Vec::new();
    while reader.read_chunk(chunk, &mut buf)? > 0 {
        assert!(buf.len() <= chunk, "a chunk holds at most {chunk} traces");
        recording.traces.extend_from_slice(&buf);
    }
    Ok(recording)
}

fn kind(e: &CodecError) -> String {
    format!("{e:?}")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn readers_agree_on_garbage_and_round_trip(bytes in input()) {
        let whole = read_recording(&bytes[..]);
        let plain = read_trace_set(&bytes[..]);
        match (&whole, &plain) {
            (Ok(w), Ok(p)) => {
                let (label, traces) = content(w);
                let unlabeled = traces.into_iter().map(|(v, pt, ct, ..)| (v, pt, ct, 0, None));
                prop_assert_eq!((label, unlabeled.collect()), plain_content(p));
                // Whatever decodes re-encodes byte for byte, in its version.
                let labeled = bytes[4] == 2;
                prop_assert_eq!(encode(w, labeled), bytes.clone());
            }
            (Err(w), Err(p)) => prop_assert_eq!(kind(w), kind(p)),
            _ => prop_assert!(false, "whole-file readers disagree: {whole:?} vs {plain:?}"),
        }
        for chunk in CHUNKS {
            match (&whole, stream(&bytes, chunk)) {
                (Ok(w), Ok(s)) => prop_assert_eq!(content(w), content(&s), "chunk {}", chunk),
                // A payload of the wrong size fails the whole-file reader's
                // size check before any record is decoded; the stream may
                // meet a bad class byte before it reaches the end.
                (Err(CodecError::Truncated), Err(s)) => prop_assert!(
                    matches!(s, CodecError::Truncated | CodecError::BadClass(_)),
                    "chunk {chunk}: {s:?}"
                ),
                (Err(w), Err(s)) => prop_assert_eq!(kind(w), kind(&s), "chunk {}", chunk),
                (w, s) => prop_assert!(false, "chunk {chunk}: {w:?} vs {s:?}"),
            }
        }
    }
}
