//! The text parsers at the edge under garbage input: `CampaignSpec::parse`
//! (campaign.cfg files, `psc resume`, the serve wire), `TuneConfig::from_json`
//! (`psc campaign --tune FILE`) and `MitigationSetting::parse`
//! (`--mitigation`). Arbitrary text, and valid renderings with mutated,
//! dropped, duplicated or truncated lines, must come back `Ok` or `Err`
//! — a panic (or a stack overflow) fails the property — and whatever is
//! accepted keeps its invariants (positive budgets, monitor floor,
//! mitigation ceilings) and re-renders to itself.

use proptest::prelude::*;
use psc_core::session::MIN_MONITOR_INTERVAL_S;
use psc_core::spec::{
    AnalysisMode, CampaignSpec, MitigationSetting, MAX_NOISE_SIGMA_W, MAX_SHARDS,
    MAX_SLOW_MULTIPLIER,
};
use psc_core::{Device, TuneConfig};

/// Pieces garbage is built from: the grammar's own words and
/// separators, numbers at the edges of their types, and multi-byte
/// characters (which break byte-offset slicing).
const FRAGMENTS: [&str; 48] = [
    "mode=",
    "device=",
    "key=",
    "traces=",
    "shards=",
    "seed=",
    "every=",
    "mitigation=",
    "monitor=",
    "record=",
    "cpa_unroll",
    "obs_chunk",
    "bus_capacity",
    "\"",
    ":",
    "=",
    "\n",
    " ",
    "#",
    "0",
    "1",
    "9",
    "18446744073709551616",
    "-1",
    "1e3",
    "inf",
    "NaN",
    "-0",
    "0.5",
    "noise",
    "slow",
    "restrict",
    "none",
    "tvla",
    "cpa",
    "true",
    "{",
    "}",
    "[",
    "]",
    ",",
    "é",
    "€",
    "😀",
    "\0",
    "ab",
    "ff",
    "\\",
];

fn garbage() -> impl Strategy<Value = String> {
    proptest::collection::vec(0..FRAGMENTS.len(), 0..60)
        .prop_map(|picks| picks.iter().map(|&i| FRAGMENTS[i]).collect())
}

/// One edit of a valid rendering, at a position taken modulo its length.
#[derive(Debug, Clone, Copy)]
struct Edit {
    kind: u8,
    at: usize,
    fragment: usize,
}

fn edits() -> impl Strategy<Value = Vec<Edit>> {
    let edit = (0u8..7, any::<usize>(), 0..FRAGMENTS.len()).prop_map(|(kind, at, fragment)| Edit {
        kind,
        at,
        fragment,
    });
    proptest::collection::vec(edit, 1..4)
}

/// Apply `edits` to `text`: overwrite, insert or delete a character,
/// truncate, drop or duplicate a line, or swap two ASCII bytes for one
/// two-byte character (the byte length stays, the boundaries move).
fn mutate(text: &str, edits: &[Edit]) -> String {
    let mut chars: Vec<char> = text.chars().collect();
    for e in edits {
        let fragment: Vec<char> = FRAGMENTS[e.fragment].chars().collect();
        let at = e.at % (chars.len() + 1);
        match e.kind {
            0 if at < chars.len() => {
                chars.splice(at..=at, fragment);
            }
            1 => {
                chars.splice(at..at, fragment);
            }
            2 if at < chars.len() => {
                chars.remove(at);
            }
            3 => chars.truncate(at),
            4 | 5 => {
                let mut lines: Vec<String> =
                    chars.iter().collect::<String>().lines().map(str::to_owned).collect();
                if !lines.is_empty() {
                    let line = e.at % lines.len();
                    if e.kind == 4 {
                        lines.remove(line);
                    } else {
                        lines.insert(line, lines[line].clone());
                    }
                }
                chars = lines.join("\n").chars().collect();
            }
            6 if at + 1 < chars.len() && chars[at].is_ascii() && chars[at + 1].is_ascii() => {
                chars.splice(at..at + 2, ['é']);
            }
            _ => {}
        }
    }
    chars.into_iter().collect()
}

fn spec() -> impl Strategy<Value = CampaignSpec> {
    let shape = (0usize..3, any::<bool>(), any::<bool>(), 0usize..4);
    let budget = (1usize..100_000, 1usize..=MAX_SHARDS, any::<u64>(), 1u64..1000);
    let extras = (any::<[u8; 16]>(), MIN_MONITOR_INTERVAL_S..100.0, any::<u8>());
    (shape, budget, extras).prop_map(
        |((mode, m1, fleet, mit), (traces, shards, seed, every), (key, value, flags))| {
            CampaignSpec {
                mode: [AnalysisMode::Tvla, AnalysisMode::Cpa, AnalysisMode::Adaptive][mode],
                device: if m1 { Device::MacMiniM1 } else { Device::MacbookAirM2 },
                kernel: flags & 1 != 0,
                fleet,
                traces,
                shards,
                seed,
                key,
                every,
                tune: TuneConfig::default(),
                mitigation: match mit {
                    0 => None,
                    1 => Some(MitigationSetting::Restrict),
                    2 => Some(MitigationSetting::Noise(value)),
                    _ => Some(MitigationSetting::Slow(1.0 + value)),
                },
                record: (flags & 2 != 0).then(|| "rec dir".to_owned()),
                monitor: (flags & 4 != 0).then_some(value),
            }
        },
    )
}

fn tune() -> impl Strategy<Value = TuneConfig> {
    (0usize..3, 1usize..4096, 1usize..4096, 1usize..4096).prop_map(|(u, obs, replay, bus)| {
        TuneConfig {
            cpa_unroll: [2, 4, 8][u],
            obs_chunk: obs,
            replay_chunk: replay,
            bus_capacity: bus,
        }
    })
}

/// Settings on both sides of the `noise` and `slow` ceilings.
fn mitigation() -> impl Strategy<Value = MitigationSetting> {
    (0u8..4, 0.0f64..2.0 * MAX_SLOW_MULTIPLIER).prop_map(|(kind, v)| match kind {
        0 => MitigationSetting::None,
        1 => MitigationSetting::Restrict,
        2 => MitigationSetting::Noise(v),
        _ => MitigationSetting::Slow(1.0 + v),
    })
}

/// Whether an accepted mitigation lies within the parser's bounds.
fn in_bounds(setting: MitigationSetting) -> bool {
    match setting {
        MitigationSetting::Noise(v) => (0.0..=MAX_NOISE_SIGMA_W).contains(&v),
        MitigationSetting::Slow(v) => (1.0..=MAX_SLOW_MULTIPLIER).contains(&v),
        MitigationSetting::None | MitigationSetting::Restrict => true,
    }
}

/// Arrays and objects nested far deeper than any tune file: a recursive
/// validator without a depth bound overflows the stack on these.
fn nested() -> impl Strategy<Value = String> {
    (0usize..200_000, 0u8..3).prop_map(|(depth, kind)| match kind {
        0 => "[".repeat(depth),
        1 => "{\"a\":".repeat(depth),
        _ => format!("{{\"cpa_unroll\": {}", "[".repeat(depth)),
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn spec_parse_never_panics(
        text in prop_oneof![
            garbage(),
            (spec(), edits()).prop_map(|(s, e)| mutate(&s.render(), &e)),
        ],
    ) {
        if let Ok(spec) = CampaignSpec::parse(&text) {
            prop_assert!(spec.tune.validate().is_ok(), "{:?}", spec);
            prop_assert!((1..=MAX_SHARDS).contains(&spec.shards), "{:?}", spec);
            prop_assert!(spec.traces > 0, "{:?}", spec);
            prop_assert!(spec.every > 0, "{:?}", spec);
            prop_assert!(spec.monitor.is_none_or(|m| m >= MIN_MONITOR_INTERVAL_S), "{:?}", spec);
            prop_assert!(spec.mitigation.is_none_or(in_bounds), "{:?}", spec);
            prop_assert_eq!(CampaignSpec::parse(&spec.render()), Ok(spec.clone()));
        }
    }

    #[test]
    fn tune_from_json_never_panics(
        text in prop_oneof![
            garbage(),
            nested(),
            (tune(), edits()).prop_map(|(t, e)| mutate(&t.to_json(), &e)),
        ],
    ) {
        if let Ok(tuned) = TuneConfig::from_json(&text) {
            prop_assert!(tuned.validate().is_ok(), "{:?}", tuned);
            prop_assert_eq!(TuneConfig::from_json(&tuned.to_json()), Ok(tuned));
        }
    }

    #[test]
    fn mitigation_parse_never_panics(
        text in prop_oneof![
            garbage(),
            (mitigation(), edits()).prop_map(|(m, e)| mutate(&m.render(), &e)),
        ],
    ) {
        if let Ok(setting) = MitigationSetting::parse(&text) {
            prop_assert!(in_bounds(setting), "{:?}", setting);
            prop_assert_eq!(MitigationSetting::parse(&setting.render()), Ok(setting));
        }
    }
}
