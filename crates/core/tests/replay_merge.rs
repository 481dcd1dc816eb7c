//! The lockstep replay merge: a recorded shard replays as one block row
//! per observation with one column per channel.
//!
//! * On aligned recordings the replay is the live campaign again: a CPA
//!   replay renders the live report byte for byte (bus line included),
//!   a TVLA replay rebuilds the live matrices bit for bit while shipping
//!   one block per `obs_chunk` rows.
//! * On misaligned recordings (denied reads, a lost recorder batch, a
//!   file truncated mid-stream, unusable files) every channel still ends
//!   bit-identical to that channel's files replayed alone through the
//!   per-row scalar oracle, with the same skipped-file accounting and
//!   health notes.
//! * A detrending replay high-passes each shard's channels on their own,
//!   bit for bit as the batch filter over that shard's recording.

#[path = "../../../tests/common/oracle.rs"]
mod oracle;

use oracle::{replay_recording, CpaOracle, TvlaOracle};
use psc_core::checkpoint::Identity;
use psc_core::report::{cpa_model, render_cpa_body};
use psc_core::source::{Schedule, ShardPlan};
use psc_core::{Campaign, Device, ShardHealth, ShardReplay, TraceSource, TuneConfig, VictimKind};
use psc_sca::codec::{self, LabeledTrace, Recording, RecordingReader};
use psc_sca::cpa::Cpa;
use psc_sca::filter::{detrend, detrend_trace_set};
use psc_sca::trace::Trace;
use psc_sca::tvla::PlaintextClass;
use psc_smc::key::key;
use psc_smc::SmcKey;
use psc_telemetry::block::EventBlock;
use psc_telemetry::channel_for_label;
use psc_telemetry::event::ChannelId;
use psc_telemetry::faults::RetryPolicy;
use std::path::{Path, PathBuf};
use std::sync::atomic::AtomicBool;
use std::sync::Arc;

const SECRET: [u8; 16] = [0x2B; 16];
const SEED: u64 = 4242;

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("psc_replay_merge_{tag}_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn cleanup(dir: &Path) {
    std::fs::remove_dir_all(dir).ok();
}

// ------------------------------------------------ live/replay identity

/// The default read window, and one small enough that every shard takes
/// several disk-read rounds (the merge must stall on a dry channel, not
/// guess that it lacks the next row).
fn read_windows() -> [TuneConfig; 2] {
    [TuneConfig::default(), TuneConfig { replay_chunk: 16, ..TuneConfig::default() }]
}

#[test]
fn replayed_cpa_recording_renders_the_live_body() {
    let keys = Device::MacbookAirM2.cpa_keys();
    for shards in [1, 2] {
        let dir = temp_dir(&format!("cpa_identity_{shards}"));
        let live = Campaign::live(Device::MacbookAirM2, VictimKind::UserSpace, SECRET, SEED)
            .keys(&keys)
            .traces(600)
            .shards(shards)
            .record_to(&dir)
            .session()
            .cpa(cpa_model);
        for tune in read_windows() {
            let replay = ShardReplay::from_dir(&dir).expect("shards recorded");
            let replayed = Campaign::replay(replay).keys(&keys).tune(tune).session().cpa(cpa_model);
            assert_eq!(
                render_cpa_body(&replayed, &SECRET),
                render_cpa_body(&live, &SECRET),
                "{shards} shard(s), {tune:?}"
            );
            assert_eq!(replayed.bus.accepted, live.bus.accepted);
        }
        cleanup(&dir);
    }
}

#[test]
fn replayed_tvla_recording_rebuilds_live_matrices_one_row_per_observation() {
    let keys = Device::MacbookAirM2.cpa_keys();
    let obs_chunk = TuneConfig::default().obs_chunk as u64;
    for shards in [1usize, 2] {
        let dir = temp_dir(&format!("tvla_identity_{shards}"));
        let traces = 40;
        let live = Campaign::live(Device::MacbookAirM2, VictimKind::UserSpace, SECRET, SEED)
            .keys(&keys)
            .traces(traces)
            .shards(shards)
            .record_to(&dir)
            .session()
            .tvla();
        for tune in read_windows() {
            let replay = ShardReplay::from_dir(&dir).expect("shards recorded");
            let replayed = Campaign::replay(replay).keys(&keys).tune(tune).session().tvla();
            for channel in keys.iter().map(|&k| ChannelId::Smc(k)).chain([ChannelId::Pcpu]) {
                assert_eq!(
                    live.tvla.accumulator(channel),
                    replayed.tvla.accumulator(channel),
                    "{channel}, {shards} shard(s), {tune:?}"
                );
                let label = channel.to_string();
                let a = live.tvla.matrix(channel, label.clone()).expect("live matrix");
                let b = replayed.tvla.matrix(channel, label).expect("replayed matrix");
                for (x, y) in a.cells.iter().zip(&b.cells) {
                    assert_eq!(x.t_score.to_bits(), y.t_score.to_bits(), "{channel}");
                }
            }
            // Six class segments of the per-shard budget, one row each per
            // observation: ceil(rows / obs_chunk) blocks per shard, not one
            // block stream per channel.
            let per_shard = traces / shards;
            let rows = (6 * per_shard) as u64;
            let blocks = shards as u64 * rows.div_ceil(obs_chunk);
            assert_eq!(replayed.bus.accepted, blocks, "{shards} shard(s), {tune:?}");
        }
        cleanup(&dir);
    }
}

// --------------------------------------------------- misaligned shards

/// A shard source shared with the caller, so the test can read the
/// replay's skipped-file counter after the campaign consumed the source.
struct Shared(Arc<ShardReplay>);

impl TraceSource for Shared {
    fn shard_count(&self, requested: usize) -> usize {
        self.0.shard_count(requested)
    }

    fn run_shard(
        &self,
        plan: &ShardPlan<'_>,
        sink: &mut dyn FnMut(&mut EventBlock),
        stop: &AtomicBool,
    ) -> usize {
        self.0.run_shard(plan, sink, stop)
    }

    fn identity(&self, id: &mut Identity) {
        self.0.identity(id);
    }
}

/// The observation sequence every recorded channel slices from: two
/// passes × three classes × 40 windows, fixed classes repeating their
/// plaintext (so neighbouring rows share labels, as in a live TVLA run).
fn observations() -> Vec<LabeledTrace> {
    let mut state = 0x9E37_79B9_7F4A_7C15u64;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    let mut out = Vec::new();
    for pass in 0..2u8 {
        for class in PlaintextClass::ALL {
            for _ in 0..40 {
                let plaintext = class.fixed_plaintext().unwrap_or_else(|| {
                    let mut pt = [0u8; 16];
                    pt.iter_mut().for_each(|b| *b = next() as u8);
                    pt
                });
                let ciphertext = plaintext.map(|b| b.rotate_left(3) ^ 0x5A);
                out.push(LabeledTrace {
                    trace: Trace { value: 0.0, plaintext, ciphertext },
                    pass,
                    class: Some(class),
                });
            }
        }
    }
    out
}

/// The sequence as recorded on one channel: its own sample values, and
/// the rows a predicate keeps (denied reads are simply never recorded).
fn channel_rows(salt: u64, keep: impl Fn(usize) -> bool) -> Vec<LabeledTrace> {
    observations()
        .into_iter()
        .enumerate()
        .filter(|(i, _)| keep(*i))
        .map(|(i, mut t)| {
            let x = (i as u64 + 1).wrapping_mul(0x2545_F491_4F6C_DD1D) ^ salt;
            t.trace.value = (x >> 11) as f64 / (1u64 << 40) as f64;
            t
        })
        .collect()
}

/// Write `rows` as recorder-named slices `{label}-s000-{index:04}.psct`
/// of `slice` traces; `lost` names slice indices that never reach disk.
fn write_slices(dir: &Path, label: &str, rows: &[LabeledTrace], slice: usize, lost: &[usize]) {
    for (index, part) in rows.chunks(slice).enumerate() {
        if !lost.contains(&index) {
            let file = std::fs::File::create(dir.join(format!("{label}-s000-{index:04}.psct")))
                .expect("create slice");
            codec::write_recording(label, part, file).expect("write slice");
        }
    }
}

/// What the replay of one channel's files alone yields, streamed in
/// `chunk`-trace windows: every window read before a file fails, in file
/// order.
fn replayed_alone(files: &[PathBuf], chunk: usize) -> Vec<Recording> {
    let mut out = Vec::new();
    for path in files {
        let Ok(mut reader) =
            std::fs::File::open(path).map_err(codec::CodecError::Io).and_then(RecordingReader::new)
        else {
            continue;
        };
        let label = reader.label().to_owned();
        let mut traces = Vec::new();
        while let Ok(n) = reader.read_chunk(chunk, &mut traces) {
            if n == 0 {
                break;
            }
            out.push(Recording { label: label.clone(), traces: traces.clone() });
        }
    }
    out
}

/// Feed each channel's files alone, channel after channel, through the
/// scalar replay into fresh TVLA and CPA oracles.
fn reference(dir: &Path, chunk: usize, keys: &[SmcKey]) -> (TvlaOracle, CpaOracle) {
    let mut files: Vec<PathBuf> = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|e| e == "psct"))
        .collect();
    files.sort();
    let mut tvla = TvlaOracle::default();
    let mut cpa = CpaOracle::new(keys.iter().map(|&k| ChannelId::Smc(k)), cpa_model);
    let mut seq = 0;
    for recording in replayed_alone(&files, chunk) {
        let Some(channel) = channel_for_label(&recording.label) else { continue };
        seq = replay_recording(&recording, channel, seq, 1.0, &mut |w, c, v| {
            tvla.sample(w, c, v);
            cpa.sample(w, c, v);
        });
    }
    (tvla, cpa)
}

fn notes(health: &[ShardHealth]) -> Vec<String> {
    let mut notes: Vec<String> = health
        .iter()
        .flat_map(|h| match h {
            ShardHealth::Ok => Vec::new(),
            ShardHealth::Degraded { reason } | ShardHealth::Failed { reason } => {
                reason.split("; ").map(str::to_owned).collect()
            }
        })
        .collect();
    notes.sort();
    notes
}

#[test]
fn misaligned_recording_keeps_every_channel_bit_identical() {
    const CHUNK: usize = 32;
    let keys = [key("PHPC"), key("PDTR")];
    let tune = TuneConfig { replay_chunk: CHUNK, ..TuneConfig::default() };
    let channels = [
        ChannelId::Pcpu,
        ChannelId::Smc(key("PDTR")),
        ChannelId::Smc(key("PHPC")),
        ChannelId::Smc(key("PMVC")),
        ChannelId::Smc(key("PSTR")),
    ];

    // Layout A leads with a complete PCPU; layout B leads with the
    // channel that lost rows, so the channels behind it fall out of step.
    let a = temp_dir("misaligned_a");
    write_slices(&a, "PCPU", &channel_rows(1, |_| true), 100, &[]);
    write_slices(&a, "PHPC", &channel_rows(2, |i| i % 7 != 3), 90, &[]);
    write_slices(&a, "PDTR", &channel_rows(3, |_| true), 80, &[1]);
    write_slices(&a, "PMVC", &channel_rows(4, |_| true), 120, &[]);
    // Truncate PMVC's second slice mid-record, 50.5 traces in.
    let truncated = a.join("PMVC-s000-0001.psct");
    let bytes = std::fs::read(&truncated).unwrap();
    let cut = bytes.len() - 70 * 42 - 21;
    std::fs::write(&truncated, &bytes[..cut]).unwrap();
    let unmappable = a.join("XLBL-s000-0000.psct");
    codec::write_recording("toolong", &channel_rows(5, |_| true)[..10], {
        std::fs::File::create(&unmappable).unwrap()
    })
    .unwrap();
    let garbage = a.join("PZZZ-s000-0000.psct");
    std::fs::write(&garbage, b"not a recording").unwrap();

    let b = temp_dir("misaligned_b");
    write_slices(&b, "PDTR", &channel_rows(6, |i| i % 5 != 0), 70, &[]);
    write_slices(&b, "PHPC", &channel_rows(7, |_| true), 64, &[]);
    write_slices(&b, "PSTR", &channel_rows(8, |i| i % 11 != 4), 100, &[]);

    let expected_notes = [
        format!("cannot open recorded shard {}", garbage.display()),
        format!("recorded shard {} has no telemetry channel", unmappable.display()),
        format!("replay of {} failed mid-stream", truncated.display()),
    ];
    for (dir, skipped, expected) in [(&a, 3, &expected_notes[..]), (&b, 0, &[][..])] {
        let (tvla_ref, cpa_ref) = reference(dir, CHUNK, &keys);
        let mut expected: Vec<String> = expected.to_vec();
        expected.sort();

        let replay = Arc::new(ShardReplay::from_dir(dir).expect("slices written"));
        let tvla = Campaign::from_source(Shared(Arc::clone(&replay)))
            .keys(&keys)
            .tune(tune)
            .session()
            .tvla();
        assert_eq!(replay.skipped_files(), skipped, "{}", dir.display());
        assert_eq!(notes(&tvla.health), expected);
        if dir == &a {
            // Every channel of layout A is a subsequence of the complete
            // PCPU lead, so the merge stays on its 240 rows even where a
            // channel's read windows end elsewhere than the lead's.
            assert_eq!(tvla.bus.accepted, 240u64.div_ceil(32));
        }
        for channel in channels {
            assert_eq!(
                tvla.tvla.accumulator(channel),
                tvla_ref.accs.get(&channel),
                "TVLA {channel} in {}",
                dir.display()
            );
        }

        let replay = Arc::new(ShardReplay::from_dir(dir).expect("slices written"));
        let cpa = Campaign::from_source(Shared(Arc::clone(&replay)))
            .keys(&keys)
            .tune(tune)
            .session()
            .cpa(cpa_model);
        assert_eq!(replay.skipped_files(), skipped, "{}", dir.display());
        assert_eq!(notes(&cpa.health), expected);
        for &k in &keys {
            let channel = ChannelId::Smc(k);
            let got = cpa.cpa.cpa(channel).expect("registered").raw_state();
            let want = cpa_ref.cpas[&channel].raw_state();
            assert_eq!(got, want, "CPA {channel} in {}", dir.display());
        }
        assert_eq!(cpa.cpa.unregistered_samples(), cpa_ref.unregistered_samples);
        assert!(cpa.cpa.unregistered_samples() > 0, "PCPU/PMVC/PSTR samples are unregistered");
    }
    cleanup(&a);
    cleanup(&b);
}

// ------------------------------------------------------ detrended replay

/// A replay plan for `shard` with `replay_chunk`-trace reads.
fn plan(shard: usize, replay_chunk: usize) -> ShardPlan<'static> {
    ShardPlan {
        shard,
        keys: &[],
        mitigation: None,
        schedule: Schedule::KnownPlaintext { traces: 0 },
        skip_obs: 0,
        resume_rng_offset: None,
        retry: RetryPolicy::default(),
        faults: None,
        log: None,
        obs_chunk: TuneConfig::default().obs_chunk,
        replay_chunk,
    }
}

#[test]
fn detrended_replay_filters_each_shard_on_its_own() {
    let dir = temp_dir("detrend_shards");
    let keys = [key("PSTR"), key("PHPC")];
    let _ = Campaign::live(Device::MacbookAirM2, VictimKind::UserSpace, SECRET, SEED)
        .keys(&keys)
        .traces(400)
        .shards(2)
        .record_to(&dir)
        .session()
        .cpa(cpa_model);
    let raw = ShardReplay::from_dir(&dir).expect("shards recorded");
    assert_eq!(raw.shards().len(), 2);
    let stop = AtomicBool::new(false);
    // Reads shorter than the half window, one window per few blocks, and
    // the default.
    for replay_chunk in [2, 16, TuneConfig::default().replay_chunk] {
        let replay = ShardReplay::from_dir(&dir).expect("shards recorded").detrend(7);
        for (s, shard) in raw.shards().iter().enumerate() {
            let mut columns: Vec<(ChannelId, Vec<u64>)> = Vec::new();
            replay.run_shard(
                &plan(s, replay_chunk),
                &mut |block| {
                    for (c, &channel) in block.channels().iter().enumerate() {
                        let values = block.column(c).iter().flatten().map(|v| v.to_bits());
                        match columns.iter_mut().find(|(ch, _)| *ch == channel) {
                            Some((_, column)) => column.extend(values),
                            None => columns.push((channel, values.collect())),
                        }
                    }
                },
                &stop,
            );
            let alone = ShardReplay::new(vec![shard.clone()]);
            for label in ["PSTR", "PHPC", "PCPU"] {
                let values = alone.read_channel(label).expect("readable").into_trace_set().values();
                assert_eq!(values.len(), 200, "{label} shard {s}");
                let want: Vec<u64> = detrend(&values, 7).iter().map(|v| v.to_bits()).collect();
                let channel = channel_for_label(label).expect("a channel");
                let got = columns.iter().find(|(ch, _)| *ch == channel).map(|(_, col)| col);
                assert_eq!(got, Some(&want), "{label} shard {s}, chunk {replay_chunk}");
            }
        }
        assert_eq!(replay.skipped_files(), 0);
    }
    cleanup(&dir);
}

#[test]
fn detrended_cpa_replay_matches_the_batch_filter() {
    let dir = temp_dir("detrend_cpa");
    let phpc = key("PHPC");
    let _ = Campaign::live(Device::MacbookAirM2, VictimKind::UserSpace, SECRET, SEED)
        .keys(&[phpc])
        .traces(1_500)
        .shards(1)
        .record_to(&dir)
        .session()
        .cpa(cpa_model);
    let replay = ShardReplay::from_dir(&dir).expect("recorded");
    let set =
        detrend_trace_set(&replay.read_channel("PHPC").expect("readable").into_trace_set(), 7);
    let mut batch = Cpa::new(cpa_model());
    batch.add_set(&set);

    let streamed = Campaign::replay(replay.detrend(7)).keys(&[phpc]).session().cpa(cpa_model);
    let streamed = streamed.cpa.cpa(ChannelId::Smc(phpc)).expect("registered");
    assert_eq!(streamed.trace_count(), 1_500);
    assert_eq!(streamed.raw_state(), batch.raw_state());
    for byte in 0..16 {
        assert_eq!(
            streamed.correlations(byte).map(f64::to_bits),
            batch.correlations(byte).map(f64::to_bits),
            "byte {byte}"
        );
    }
    cleanup(&dir);
}
