//! The checkpoint/resume contract: a campaign interrupted after a
//! mid-stream checkpoint and resumed from its frames completes
//! **bit-identically** to the same campaign run uninterrupted — for every
//! analysis (TVLA, CPA, adaptive) and every source family (live rig,
//! fleet, recorded-shard replay).
//!
//! Each test runs three campaigns over the same spec: an uninterrupted
//! baseline, an interrupted run (`checkpoint_to` + `halt_after`), and a
//! resumed run (`resume_from`), then compares the resumed report to the
//! baseline down to float bit patterns.

use psc_core::{
    Campaign, Device, Fleet, FleetMember, ShardHealth, ShardReplay, TuneConfig, VictimKind,
};
use psc_sca::codec;
use psc_sca::model::Rd0Hw;
use psc_smc::key::key;
use psc_telemetry::event::ChannelId;
use psc_telemetry::processors::{CadenceCheckpoint, StreamingTvla};
use std::path::{Path, PathBuf};

const SECRET: [u8; 16] = [0x2B; 16];
const SEED: u64 = 4242;

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("psc_ckpt_resume_{tag}_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn cleanup(dir: &PathBuf) {
    if let Ok(entries) = std::fs::read_dir(dir) {
        for e in entries.flatten() {
            std::fs::remove_file(e.path()).ok();
        }
    }
    std::fs::remove_dir(dir).ok();
}

fn assert_tvla_bit_identical(a: &StreamingTvla, b: &StreamingTvla, keys: &[ChannelId]) {
    for &channel in keys {
        let label = channel.to_string();
        let am = a.matrix(channel, label.clone()).expect("channel in baseline");
        let bm = b.matrix(channel, label).expect("channel in resumed");
        for (ac, bc) in am.cells.iter().zip(&bm.cells) {
            assert_eq!(
                ac.t_score.to_bits(),
                bc.t_score.to_bits(),
                "{channel} cell ({:?}, {:?}): {} vs {}",
                ac.row,
                ac.column,
                ac.t_score,
                bc.t_score
            );
        }
    }
}

/// The resumed run's cadence grid is the uninterrupted one: same tick
/// times, same per-tick counts. Observations land about one simulated
/// second apart, so a 3 s poll grid ticks every few observations — on
/// both sides of the mid-stream checkpoint frame.
fn assert_cadence_resumed(baseline: &[Vec<CadenceCheckpoint>], resumed: &[Vec<CadenceCheckpoint>]) {
    assert!(baseline.iter().all(|ticks| ticks.len() >= 8), "grid too coarse: {baseline:?}");
    assert_eq!(baseline, resumed);
}

fn assert_all_ok(health: &[ShardHealth]) {
    for (i, h) in health.iter().enumerate() {
        assert_eq!(*h, ShardHealth::Ok, "shard {i} not healthy: {h:?}");
    }
}

#[test]
fn live_tvla_resumes_bit_identically() {
    let keys = [key("PHPC"), key("PSTR")];
    let dir = temp_dir("live_tvla");
    let campaign = || {
        Campaign::live(Device::MacbookAirM2, VictimKind::UserSpace, SECRET, SEED)
            .keys(&keys)
            .traces(24)
            .shards(2)
            .monitor(3.0)
    };

    let baseline = campaign().session().tvla();
    assert_all_ok(&baseline.health);

    // Interrupt: 72 observations per shard = 3 blocks; a checkpoint
    // lands at block 2 and `halt_after(1)` raises the stop flag there.
    // The halt fires as soon as ANY shard writes its first frame, so the
    // other shard may stop before checkpointing at all — resume treats
    // its missing frame as "start from scratch".
    let _interrupted = campaign().checkpoint_to(&dir, 2).halt_after(1).session().tvla();
    let frames: Vec<_> = (0..2)
        .map(|shard| dir.join(format!("shard-{shard:03}.ckpt")))
        .filter(|f| f.is_file())
        .collect();
    assert!(!frames.is_empty(), "no checkpoint frame written before the halt");
    for frame in &frames {
        assert!(std::fs::metadata(frame).unwrap().len() > 0, "empty frame {frame:?}");
    }

    let resumed = campaign().resume_from(&dir).session().tvla();
    assert_all_ok(&resumed.health);

    let channels: Vec<ChannelId> =
        keys.iter().map(|&k| ChannelId::Smc(k)).chain([ChannelId::Pcpu]).collect();
    assert_tvla_bit_identical(&baseline.tvla, &resumed.tvla, &channels);
    assert_eq!(baseline.monitor.observations(), resumed.monitor.observations());
    assert_eq!(baseline.monitor.denied_reads(), resumed.monitor.denied_reads());
    assert_cadence_resumed(&baseline.shard_cadence, &resumed.shard_cadence);
    // The consumed prefix is credited back to the bus counters, so even
    // the block totals diff clean against the uninterrupted run.
    assert_eq!(baseline.bus.accepted, resumed.bus.accepted, "prefix blocks credited");
    cleanup(&dir);
}

#[test]
fn live_cpa_resumes_bit_identically() {
    let keys = [key("PHPC")];
    let dir = temp_dir("live_cpa");
    let campaign = || {
        Campaign::live(Device::MacbookAirM2, VictimKind::UserSpace, SECRET, SEED)
            .keys(&keys)
            .traces(96)
            .shards(2)
            .monitor(3.0)
    };

    let baseline = campaign().session().cpa(|| Box::new(Rd0Hw));
    let _interrupted =
        campaign().checkpoint_to(&dir, 1).halt_after(1).session().cpa(|| Box::new(Rd0Hw));
    let resumed = campaign().resume_from(&dir).session().cpa(|| Box::new(Rd0Hw));
    assert_all_ok(&resumed.health);

    let a = baseline.cpa.cpa(ChannelId::Smc(keys[0])).expect("baseline channel");
    let b = resumed.cpa.cpa(ChannelId::Smc(keys[0])).expect("resumed channel");
    assert_eq!(a.trace_count(), b.trace_count());
    for byte in 0..16 {
        let ac = a.correlations(byte);
        let bc = b.correlations(byte);
        for guess in 0..256 {
            assert_eq!(ac[guess].to_bits(), bc[guess].to_bits(), "byte {byte} guess {guess}");
        }
    }
    assert_eq!(baseline.ranks(keys[0], &SECRET), resumed.ranks(keys[0], &SECRET));
    assert_eq!(baseline.bus.accepted, resumed.bus.accepted);
    assert_cadence_resumed(&baseline.shard_cadence, &resumed.shard_cadence);
    cleanup(&dir);
}

#[test]
fn fleet_tvla_resumes_bit_identically() {
    let keys = [key("PHPC")];
    let dir = temp_dir("fleet_tvla");
    let members = || {
        vec![
            FleetMember { device: Device::MacbookAirM2, kind: VictimKind::UserSpace },
            FleetMember { device: Device::MacMiniM1, kind: VictimKind::UserSpace },
        ]
    };
    let campaign = || Campaign::fleet(Fleet::new(members(), SECRET, SEED)).keys(&keys).traces(40);

    let baseline = campaign().session().tvla();
    let _interrupted = campaign().checkpoint_to(&dir, 1).halt_after(1).session().tvla();
    let resumed = campaign().resume_from(&dir).session().tvla();
    assert_all_ok(&resumed.health);

    assert_tvla_bit_identical(&baseline.tvla, &resumed.tvla, &[ChannelId::Smc(keys[0])]);
    assert_eq!(baseline.monitor.observations(), resumed.monitor.observations());
    assert_eq!(baseline.bus.accepted, resumed.bus.accepted);
    cleanup(&dir);
}

#[test]
fn replay_tvla_resumes_bit_identically() {
    let keys = [key("PHPC")];
    let record = temp_dir("replay_record");
    let ckpt = temp_dir("replay_ckpt");
    let _live = Campaign::live(Device::MacbookAirM2, VictimKind::UserSpace, SECRET, SEED)
        .keys(&keys)
        .traces(50)
        .shards(2)
        .record_to(&record)
        .session()
        .tvla();

    let replay = || ShardReplay::from_dir(&record).expect("shards recorded");
    let baseline = Campaign::replay(replay()).keys(&keys).session().tvla();
    let _interrupted = Campaign::replay(replay())
        .keys(&keys)
        .checkpoint_to(&ckpt, 2)
        .halt_after(1)
        .session()
        .tvla();
    let resumed = Campaign::replay(replay()).keys(&keys).resume_from(&ckpt).session().tvla();
    assert_all_ok(&resumed.health);

    let channels = [ChannelId::Smc(keys[0]), ChannelId::Pcpu];
    assert_tvla_bit_identical(&baseline.tvla, &resumed.tvla, &channels);
    assert_eq!(baseline.monitor.observations(), resumed.monitor.observations());
    assert_eq!(baseline.bus.accepted, resumed.bus.accepted);
    cleanup(&ckpt);
    cleanup(&record);
}

/// Rewrite a recording's files as recorder-named slices of `slice(label)`
/// traces each, so file boundaries fall inside bus blocks.
fn reslice(from: &Path, to: &Path, slice: impl Fn(&str) -> usize) {
    let mut files: Vec<PathBuf> =
        std::fs::read_dir(from).unwrap().map(|e| e.unwrap().path()).collect();
    files.sort();
    for path in files {
        let name = path.file_name().unwrap().to_str().unwrap().to_owned();
        let prefix = name.rsplit_once('-').expect("recorder file name").0;
        let recording =
            codec::read_recording(std::fs::File::open(&path).unwrap()).expect("recorded file");
        let parts = recording.traces.chunks(slice(&recording.label));
        for (index, part) in parts.enumerate() {
            let file = std::fs::File::create(to.join(format!("{prefix}-{index:04}.psct"))).unwrap();
            codec::write_recording(&recording.label, part, file).unwrap();
        }
    }
}

/// Record a 2-shard campaign of 150 rows per shard, then re-slice it so
/// PHPC files hold 80 traces and PCPU files 70: the checkpoint at block 3
/// (rows 64..96 of 32-row blocks, the only checkpoint of a 5-block shard)
/// straddles both channels' first file boundary.
fn straddling_recording(tag: &str, cpa: bool) -> (PathBuf, PathBuf) {
    let keys = [key("PHPC")];
    let live = temp_dir(&format!("{tag}_live"));
    let sliced = temp_dir(&format!("{tag}_sliced"));
    let campaign = Campaign::live(Device::MacbookAirM2, VictimKind::UserSpace, SECRET, SEED)
        .keys(&keys)
        .shards(2)
        .record_to(&live);
    if cpa {
        let _ = campaign.traces(300).session().cpa(|| Box::new(Rd0Hw));
    } else {
        let _ = campaign.traces(50).session().tvla();
    }
    reslice(&live, &sliced, |label| if label == "PCPU" { 70 } else { 80 });
    (live, sliced)
}

#[test]
fn replay_cpa_resumes_bit_identically_across_a_file_boundary() {
    let keys = [key("PHPC")];
    let (live, record) = straddling_recording("replay_cpa", true);
    let ckpt = temp_dir("replay_cpa_ckpt");
    let replay = || ShardReplay::from_dir(&record).expect("shards recorded");
    // Rows depend only on the recording, not on the read window: the
    // interrupted and resumed runs read in other windows than the
    // baseline.
    let window = |replay_chunk| TuneConfig { replay_chunk, ..TuneConfig::default() };
    let baseline = Campaign::replay(replay()).keys(&keys).session().cpa(|| Box::new(Rd0Hw));
    let _interrupted = Campaign::replay(replay())
        .keys(&keys)
        .tune(window(16))
        .checkpoint_to(&ckpt, 3)
        .halt_after(1)
        .session()
        .cpa(|| Box::new(Rd0Hw));
    let resumed = Campaign::replay(replay())
        .keys(&keys)
        .tune(window(50))
        .resume_from(&ckpt)
        .session()
        .cpa(|| Box::new(Rd0Hw));
    assert_all_ok(&resumed.health);

    let channel = ChannelId::Smc(keys[0]);
    let a = baseline.cpa.cpa(channel).expect("baseline channel");
    let b = resumed.cpa.cpa(channel).expect("resumed channel");
    assert_eq!(a.trace_count(), 300);
    assert_eq!(a.raw_state(), b.raw_state());
    assert_eq!(baseline.cpa.unregistered_samples(), resumed.cpa.unregistered_samples());
    assert_eq!(baseline.ranks(keys[0], &SECRET), resumed.ranks(keys[0], &SECRET));
    assert_eq!(baseline.bus.accepted, resumed.bus.accepted);
    assert_eq!(baseline.bus.accepted, 10, "5 blocks of merged rows per shard");
    cleanup(&ckpt);
    cleanup(&record);
    cleanup(&live);
}

#[test]
fn replay_tvla_resumes_bit_identically_across_a_file_boundary() {
    let keys = [key("PHPC")];
    let (live, record) = straddling_recording("replay_tvla", false);
    let ckpt = temp_dir("replay_tvla_straddle_ckpt");
    let replay = || ShardReplay::from_dir(&record).expect("shards recorded");
    let baseline = Campaign::replay(replay()).keys(&keys).session().tvla();
    let _interrupted = Campaign::replay(replay())
        .keys(&keys)
        .checkpoint_to(&ckpt, 3)
        .halt_after(1)
        .session()
        .tvla();
    let resumed = Campaign::replay(replay()).keys(&keys).resume_from(&ckpt).session().tvla();
    assert_all_ok(&resumed.health);

    let channels = [ChannelId::Smc(keys[0]), ChannelId::Pcpu];
    assert_tvla_bit_identical(&baseline.tvla, &resumed.tvla, &channels);
    for channel in channels {
        assert_eq!(baseline.tvla.accumulator(channel), resumed.tvla.accumulator(channel));
    }
    assert_eq!(baseline.monitor.observations(), resumed.monitor.observations());
    assert_eq!(baseline.bus.accepted, resumed.bus.accepted);
    cleanup(&ckpt);
    cleanup(&record);
    cleanup(&live);
}

#[test]
fn adaptive_tvla_resumes_bit_identically_on_flat_channel() {
    // PHPS is the model-based estimator with no data dependence: the
    // watcher never fires and the campaign exhausts its budget, so the
    // baseline and resumed runs must agree on the *full* trace count.
    let keys = [key("PHPS")];
    let dir = temp_dir("adaptive_flat");
    let campaign = || {
        Campaign::live(Device::MacbookAirM2, VictimKind::UserSpace, SECRET, SEED)
            .keys(&keys)
            .traces(24)
            .shards(2)
            .early_stop(keys[0])
    };

    let baseline = campaign().session().adaptive_tvla();
    assert!(!baseline.stopped_early, "PHPS must not leak");
    let _interrupted = campaign().checkpoint_to(&dir, 2).halt_after(1).session().adaptive_tvla();
    let resumed = campaign().resume_from(&dir).session().adaptive_tvla();
    assert_all_ok(&resumed.report.health);

    assert!(!resumed.stopped_early);
    // Fast-forwarded prefix rounds still count as collected.
    assert_eq!(baseline.rounds_collected, resumed.rounds_collected);
    assert_tvla_bit_identical(
        &baseline.report.tvla,
        &resumed.report.tvla,
        &[ChannelId::Smc(keys[0]), ChannelId::Pcpu],
    );
    assert_eq!(baseline.report.bus.accepted, resumed.report.bus.accepted);
    cleanup(&dir);
}

#[test]
fn resume_ignores_missing_frames_and_reruns_from_scratch() {
    // Resuming from an empty directory is a no-op: every shard starts
    // from zero and the campaign equals the baseline.
    let keys = [key("PHPC")];
    let dir = temp_dir("empty_resume");
    let campaign = || {
        Campaign::live(Device::MacbookAirM2, VictimKind::UserSpace, SECRET, SEED)
            .keys(&keys)
            .traces(12)
            .shards(2)
    };
    let baseline = campaign().session().tvla();
    let resumed = campaign().resume_from(&dir).session().tvla();
    assert_tvla_bit_identical(&baseline.tvla, &resumed.tvla, &[ChannelId::Smc(keys[0])]);
    cleanup(&dir);
}

#[test]
fn recorded_output_survives_an_interrupt_resume_cycle() {
    // Recording composes with checkpointing: the resumed run restores
    // recorder progress (file numbering, written counts) and the final
    // recorded shards replay to the same matrices as an uninterrupted
    // recording.
    let keys = [key("PHPC")];
    let rec_a = temp_dir("rec_baseline");
    let rec_b = temp_dir("rec_resumed");
    let ckpt = temp_dir("rec_ckpt");

    let campaign = |rec: &PathBuf| {
        Campaign::live(Device::MacbookAirM2, VictimKind::UserSpace, SECRET, SEED)
            .keys(&keys)
            .traces(24)
            .shards(2)
            .record_to(rec)
    };
    let baseline = campaign(&rec_a).session().tvla();
    let _interrupted = campaign(&rec_b).checkpoint_to(&ckpt, 2).halt_after(1).session().tvla();
    let resumed = campaign(&rec_b).resume_from(&ckpt).session().tvla();
    assert_all_ok(&resumed.health);
    assert_eq!(resumed.io_errors, 0);

    let channels = [ChannelId::Smc(keys[0]), ChannelId::Pcpu];
    assert_tvla_bit_identical(&baseline.tvla, &resumed.tvla, &channels);

    // The recordings themselves replay identically.
    let from_a = Campaign::replay(ShardReplay::from_dir(&rec_a).expect("baseline recording"))
        .keys(&keys)
        .session()
        .tvla();
    let from_b = Campaign::replay(ShardReplay::from_dir(&rec_b).expect("resumed recording"))
        .keys(&keys)
        .session()
        .tvla();
    assert_tvla_bit_identical(&from_a.tvla, &from_b.tvla, &channels);
    cleanup(&ckpt);
    cleanup(&rec_a);
    cleanup(&rec_b);
}
