//! Property tests for the one JSON writer: whatever keys and string
//! values go in, the output parses under `validate_json`, and every
//! string comes back out of its escapes unchanged.

use proptest::prelude::*;
use psc_telemetry::json::{validate_json, JsonWriter, Layout};

/// Arbitrary strings weighted towards the characters JSON must escape:
/// ASCII (controls, `"` and `\` included) half the time, any Unicode
/// scalar value otherwise.
fn text() -> impl Strategy<Value = String> {
    let ch = prop_oneof![0u32..0x80, 0u32..0x11_0000]
        .prop_map(|c| char::from_u32(c).unwrap_or('\u{fffd}'));
    proptest::collection::vec(ch, 0..24).prop_map(|chars| chars.into_iter().collect())
}

/// Undo the writer's escapes for one quoted string.
fn unescape(quoted: &str) -> String {
    let inner = quoted.strip_prefix('"').and_then(|s| s.strip_suffix('"')).expect("quoted");
    let mut out = String::new();
    let mut chars = inner.chars();
    while let Some(c) = chars.next() {
        if c != '\\' {
            out.push(c);
            continue;
        }
        match chars.next() {
            Some('n') => out.push('\n'),
            Some('r') => out.push('\r'),
            Some('t') => out.push('\t'),
            Some('u') => {
                let hex: String = chars.by_ref().take(4).collect();
                let code = u32::from_str_radix(&hex, 16).expect("hex escape");
                out.push(char::from_u32(code).expect("scalar value"));
            }
            Some(other) => out.push(other),
            None => panic!("dangling backslash in {quoted:?}"),
        }
    }
    out
}

proptest! {
    /// Arbitrary key/value strings, in both layouts and nested one level,
    /// always make a document `validate_json` accepts.
    #[test]
    fn written_documents_always_validate(
        pairs in proptest::collection::vec((text(), text()), 0..6),
        lines in any::<bool>(),
    ) {
        let layout = if lines { Layout::Lines(1) } else { Layout::Inline };
        let mut inner = JsonWriter::object(layout);
        for (key, value) in &pairs {
            inner.string(key, value).field(value, 1.5);
        }
        let mut doc = JsonWriter::object(Layout::Lines(0));
        doc.field("inner", inner.finish()).string("last", "");
        let json = doc.finish();
        prop_assert!(validate_json(&json).is_ok(), "{:?}: {:?}", json, validate_json(&json));
    }

    /// Escaping is lossless: each string reads back exactly.
    #[test]
    fn string_values_round_trip(value in text()) {
        let mut doc = JsonWriter::object(Layout::Inline);
        doc.string("k", &value);
        let json = doc.finish();
        prop_assert!(validate_json(&json).is_ok(), "{:?}", json);
        let quoted = json.strip_prefix("{\"k\": ").and_then(|s| s.strip_suffix('}'));
        prop_assert_eq!(unescape(quoted.expect("one member")), value);
    }
}
