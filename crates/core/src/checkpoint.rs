//! Campaign checkpoint files: atomic persistence and resume loading.
//!
//! A checkpointing campaign ([`Campaign::checkpoint_to`]) periodically
//! snapshots each shard's full consumer state — analysis accumulators,
//! cadence monitor, recorder progress, the attacker-RNG stream position
//! and the consumed-observation counters — into one codec-v3 frame per
//! shard (`shard-{i:03}.ckpt`, written atomically via a temp file +
//! rename). [`Campaign::resume_from`] loads the frames back, restores
//! the consumers, and has the sources fast-forward past the consumed
//! prefix so the resumed run completes **bit-identically** to the
//! uninterrupted one.
//!
//! Frames are integrity-checked (magic, version, CRC-32) by the
//! [`psc_sca::checkpoint`] container, and each frame's META section
//! carries the campaign's [`Identity`] record: the analysis and its
//! early-stop watch, what the source reports about itself (device,
//! victim, key and seed of a live rig; members, key and seed of a fleet;
//! file names, lengths and detrend window of a replay), the keys, trace
//! budget, resolved shard count, mitigation, monitor interval, block
//! size and record directory. A resume whose record differs is refused
//! with [`CheckpointError::ForeignCampaign`] naming the first field that
//! differs, so traces of two campaigns never merge into one statistic.
//! The record's [`Identity::hash`] is what a distributed fleet worker
//! presents to its aggregator.
//!
//! [`Campaign::checkpoint_to`]: crate::session::Campaign::checkpoint_to
//! [`Campaign::resume_from`]: crate::session::Campaign::resume_from

use psc_sca::checkpoint::{
    decode_frame, encode_frame, get_blob_str, put_blob, CheckpointError, PayloadReader,
    PayloadWriter, Section,
};
use psc_telemetry::processors::RecorderState;
use std::fmt::{Debug, Write as _};
use std::path::{Path, PathBuf};

/// Campaign identity record and consumed-prefix counters. Tag 1 held the
/// earlier fingerprint layout; a frame that carries only it has no
/// identity record and is refused.
pub(crate) const TAG_META: u16 = 6;
/// Attacker-RNG stream position (ChaCha words) after the prefix.
pub(crate) const TAG_RNG: u16 = 2;
/// The analysis accumulator payload (TVLA or CPA — META's `mode` says).
pub(crate) const TAG_ANALYSIS: u16 = 3;
/// Cadence monitor state, its poll clock first.
pub(crate) const TAG_MONITOR: u16 = 4;
/// Per-channel recorder progress.
pub(crate) const TAG_RECORDER: u16 = 5;

/// A campaign's identity: ordered `field=value` lines naming every input
/// that can change a result bit or a resume offset. Throughput-only
/// settings (CPA unroll, replay read window, bus depth, checkpoint
/// cadence) stay out, so a resume may change them.
///
/// [`Session::identity`](crate::session::Session::identity) builds it:
/// the session's analysis fields around what its
/// [`TraceSource::identity`](crate::source::TraceSource::identity)
/// reports.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Identity {
    text: String,
}

impl Identity {
    /// Append the line `field=value`, the value in its `Debug` form
    /// (which escapes any newline in a string or path).
    pub fn push(&mut self, field: &str, value: impl Debug) {
        let _ = writeln!(self.text, "{field}={value:?}");
    }

    /// The record as text, one `field=value` line per field.
    #[must_use]
    pub fn text(&self) -> &str {
        &self.text
    }

    /// Read a record back from its [`Identity::text`].
    ///
    /// # Errors
    ///
    /// [`CheckpointError::Corrupt`] when a line has no field name or the
    /// last line is not ended.
    pub fn parse(text: &str) -> Result<Self, CheckpointError> {
        let named = |line: &str| line.split_once('=').is_some_and(|(field, _)| !field.is_empty());
        if text.lines().all(named) && (text.is_empty() || text.ends_with('\n')) {
            Ok(Self { text: text.to_owned() })
        } else {
            Err(CheckpointError::Corrupt("identity record line has no field name"))
        }
    }

    /// FNV-1a over the record text: the campaign identity in 8 bytes.
    #[must_use]
    pub fn hash(&self) -> u64 {
        self.text.bytes().fold(0xCBF2_9CE4_8422_2325, |hash, byte| {
            (hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01B3)
        })
    }

    /// Accept `stored` only when it is this record.
    ///
    /// # Errors
    ///
    /// [`CheckpointError::ForeignCampaign`] naming the first field whose
    /// line differs, or that only one of the two records has.
    pub fn check(&self, stored: &Identity) -> Result<(), CheckpointError> {
        let foreign = |line: &str| {
            let field = line.split_once('=').map_or(line, |(field, _)| field);
            Err(CheckpointError::ForeignCampaign(field.to_owned()))
        };
        let mut theirs = stored.text.lines();
        for line in self.text.lines() {
            if theirs.next() != Some(line) {
                return foreign(line);
            }
        }
        theirs.next().map_or(Ok(()), foreign)
    }
}

/// Where and how often a campaign checkpoints.
#[derive(Debug, Clone)]
pub struct CheckpointConfig {
    /// Directory receiving one `shard-{i:03}.ckpt` frame per shard.
    pub dir: PathBuf,
    /// Snapshot cadence, in consumed blocks per shard.
    pub every_blocks: u64,
}

/// The checkpoint frame path for one shard.
pub(crate) fn shard_path(dir: &Path, shard: usize) -> PathBuf {
    dir.join(format!("shard-{shard:03}.ckpt"))
}

/// One shard's full snapshot, ready to frame and write.
pub(crate) struct ShardSnapshot<'a> {
    pub identity: &'a Identity,
    pub shard: usize,
    /// Observations consumed since campaign start (prefix included).
    pub consumed_obs: u64,
    /// Blocks accepted off the bus since campaign start (prefix included).
    pub blocks: u64,
    /// Attacker-RNG position after the last consumed block, when the
    /// source journals one (rig-backed sources).
    pub rng_offset: Option<u64>,
    pub analysis: Vec<u8>,
    pub monitor: Vec<u8>,
    pub recorders: Option<Vec<u8>>,
}

/// What a resumed shard starts from. `Default` is a fresh shard (no
/// checkpoint on disk — everything recomputes from observation zero).
#[derive(Debug, Default)]
pub(crate) struct ShardResume {
    pub consumed_obs: u64,
    pub blocks: u64,
    pub rng_offset: Option<u64>,
    pub analysis: Option<Vec<u8>>,
    pub monitor: Option<Vec<u8>>,
    pub recorders: Option<Vec<u8>>,
}

/// Encode a snapshot as one codec-v3 frame.
pub(crate) fn encode_snapshot(s: &ShardSnapshot<'_>) -> Vec<u8> {
    let mut meta = PayloadWriter::new();
    put_blob(&mut meta, s.identity.text().as_bytes());
    meta.put_u32(s.shard as u32);
    meta.put_u64(s.consumed_obs);
    meta.put_u64(s.blocks);
    let mut sections = vec![meta.into_section(TAG_META)];
    if let Some(offset) = s.rng_offset {
        let mut rng = PayloadWriter::new();
        rng.put_u64(offset);
        sections.push(rng.into_section(TAG_RNG));
    }
    sections.push(Section { tag: TAG_ANALYSIS, payload: s.analysis.clone() });
    sections.push(Section { tag: TAG_MONITOR, payload: s.monitor.clone() });
    if let Some(recorders) = &s.recorders {
        sections.push(Section { tag: TAG_RECORDER, payload: recorders.clone() });
    }
    encode_frame(&sections)
}

/// Atomically persist one shard's frame: write `*.ckpt.tmp`, then rename
/// over the final name, so a crash mid-write can never leave a torn
/// checkpoint where a good one stood.
pub(crate) fn write_shard(dir: &Path, shard: usize, frame: &[u8]) -> std::io::Result<()> {
    std::fs::create_dir_all(dir)?;
    let target = shard_path(dir, shard);
    let tmp = target.with_extension("ckpt.tmp");
    std::fs::write(&tmp, frame)?;
    std::fs::rename(&tmp, &target)
}

/// Load one shard's checkpoint. `Ok(None)` when no frame exists (a fresh
/// shard); decode failures, truncation, a frame naming another shard and
/// one taken by another campaign ([`Identity::check`]; a frame without
/// this META section has an empty record) all come back as
/// [`CheckpointError`] — a resumed campaign refuses to guess at corrupt
/// or foreign state.
pub(crate) fn load_shard(
    dir: &Path,
    shard: usize,
    identity: &Identity,
) -> Result<Option<ShardResume>, CheckpointError> {
    let path = shard_path(dir, shard);
    let bytes = match std::fs::read(&path) {
        Ok(b) => b,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(e.into()),
    };
    let sections = decode_frame(&bytes)?;
    let mut resume = ShardResume::default();
    let mut saw_meta = false;
    for section in sections {
        match section.tag {
            TAG_META => {
                let mut r = PayloadReader::new(&section.payload);
                identity.check(&Identity::parse(&get_blob_str(&mut r)?)?)?;
                if r.get_u32()? as usize != shard {
                    return Err(CheckpointError::Corrupt("checkpoint names a different shard"));
                }
                resume.consumed_obs = r.get_u64()?;
                resume.blocks = r.get_u64()?;
                r.finish()?;
                saw_meta = true;
            }
            TAG_RNG => {
                let mut r = PayloadReader::new(&section.payload);
                resume.rng_offset = Some(r.get_u64()?);
                r.finish()?;
            }
            TAG_ANALYSIS => resume.analysis = Some(section.payload),
            TAG_MONITOR => resume.monitor = Some(section.payload),
            TAG_RECORDER => resume.recorders = Some(section.payload),
            // Unknown tags from a future writer are skipped, not fatal.
            _ => {}
        }
    }
    if !saw_meta {
        identity.check(&Identity::default())?;
    }
    Ok(Some(resume))
}

/// Encode the per-channel recorder progress list.
pub(crate) fn encode_recorders(states: &[RecorderState]) -> Vec<u8> {
    let mut w = PayloadWriter::new();
    w.put_u32(states.len() as u32);
    for s in states {
        w.put_str(&s.label);
        w.put_u64(s.files_written);
        w.put_u64(s.traces_recorded);
        w.put_u64(s.io_errors);
        w.put_u64(s.io_retries);
    }
    w.into_payload()
}

/// Decode a recorder progress list written by [`encode_recorders`].
pub(crate) fn decode_recorders(bytes: &[u8]) -> Result<Vec<RecorderState>, CheckpointError> {
    let mut r = PayloadReader::new(bytes);
    let n = r.get_u32()? as usize;
    let mut states = Vec::with_capacity(n.min(64));
    for _ in 0..n {
        states.push(RecorderState {
            label: r.get_str()?,
            files_written: r.get_u64()?,
            traces_recorded: r.get_u64()?,
            io_errors: r.get_u64()?,
            io_retries: r.get_u64()?,
        });
    }
    r.finish()?;
    Ok(states)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::Campaign;
    use crate::source::{Fleet, FleetMember, FleetShard, ReplayShard, ShardReplay, TraceSource};
    use crate::spec::AnalysisMode;
    use crate::tune::TuneConfig;
    use crate::{Device, VictimKind};
    use psc_smc::key::key;
    use psc_smc::MitigationConfig;

    /// A hand-built record: the analysis kind and the shard count.
    fn identity(mode: &str, shards: usize) -> Identity {
        let mut id = Identity::default();
        id.push("mode", mode);
        id.push("shards", shards);
        id
    }

    fn snapshot(identity: &Identity) -> ShardSnapshot<'_> {
        ShardSnapshot {
            identity,
            shard: 2,
            consumed_obs: 192,
            blocks: 6,
            rng_offset: Some(1234),
            analysis: vec![1, 2, 3],
            monitor: vec![4, 5],
            recorders: Some(encode_recorders(&[RecorderState {
                label: "PHPC".into(),
                files_written: 1,
                traces_recorded: 192,
                io_errors: 0,
                io_retries: 2,
            }])),
        }
    }

    fn temp_dir(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("psc-ckpt-{tag}-{}", std::process::id()))
    }

    #[test]
    fn snapshot_round_trips_through_disk() {
        let dir = temp_dir("rt");
        let id = identity("tvla", 4);
        let s = snapshot(&id);
        write_shard(&dir, s.shard, &encode_snapshot(&s)).unwrap();
        let r = load_shard(&dir, 2, &id).unwrap().expect("frame exists");
        assert_eq!(r.consumed_obs, 192);
        assert_eq!(r.blocks, 6);
        assert_eq!(r.rng_offset, Some(1234));
        assert_eq!(r.analysis.as_deref(), Some(&[1u8, 2, 3][..]));
        assert_eq!(r.monitor.as_deref(), Some(&[4u8, 5][..]));
        let recs = decode_recorders(r.recorders.as_deref().unwrap()).unwrap();
        assert_eq!(recs.len(), 1);
        assert_eq!(recs[0].label, "PHPC");
        assert_eq!(recs[0].io_retries, 2);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn missing_frame_is_a_fresh_shard() {
        let dir = temp_dir("miss");
        assert!(load_shard(&dir, 0, &identity("tvla", 2)).unwrap().is_none());
    }

    #[test]
    fn foreign_frames_are_rejected() {
        let dir = temp_dir("foreign");
        let id = identity("tvla", 4);
        let s = snapshot(&id);
        write_shard(&dir, s.shard, &encode_snapshot(&s)).unwrap();
        // Wrong analysis kind, campaign, shard index, shard count.
        assert!(load_shard(&dir, 2, &identity("cpa", 4)).is_err());
        let mut other = id.clone();
        other.push("seed", 7);
        assert!(load_shard(&dir, 2, &other).is_err());
        std::fs::copy(shard_path(&dir, 2), shard_path(&dir, 3)).unwrap();
        assert!(load_shard(&dir, 3, &id).is_err());
        assert!(load_shard(&dir, 2, &identity("tvla", 8)).is_err());
        // Torn bytes fail the container CRC, never a panic.
        let path = shard_path(&dir, 2);
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        std::fs::write(&path, &bytes).unwrap();
        assert!(load_shard(&dir, 2, &id).is_err());
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A source reporting only its family tag.
    struct Tagged(&'static str);

    impl TraceSource for Tagged {
        fn run_shard(
            &self,
            _: &crate::source::ShardPlan<'_>,
            _: &mut dyn FnMut(&mut psc_telemetry::block::EventBlock),
            _: &std::sync::atomic::AtomicBool,
        ) -> usize {
            0
        }

        fn fingerprint_tag(&self) -> &'static str {
            self.0
        }
    }

    fn cpa_identity(source: impl TraceSource + 'static) -> Identity {
        Campaign::from_source(source).shards(4).session().identity(AnalysisMode::Cpa)
    }

    #[test]
    fn per_channel_replay_frames_are_refused() {
        // Replay checkpoints used to count per-channel rows ("replay"
        // tag); resuming one over the merged row stream would land at
        // the wrong offset, so the replay source reports another tag and
        // the old frame must fail the identity check with its typed error.
        let dir = temp_dir("replay-tag");
        let current = cpa_identity(ShardReplay::default());
        assert!(!current.text().contains("source=\"replay\"\n"));
        let old_id = cpa_identity(Tagged("replay"));
        let old = ShardSnapshot { rng_offset: None, ..snapshot(&old_id) };
        write_shard(&dir, old.shard, &encode_snapshot(&old)).unwrap();
        match load_shard(&dir, 2, &current) {
            Err(CheckpointError::ForeignCampaign(field)) => assert_eq!(field, "source"),
            other => panic!("old replay frame not refused: {other:?}"),
        }
        let fresh = ShardSnapshot { identity: &current, ..old };
        write_shard(&dir, fresh.shard, &encode_snapshot(&fresh)).unwrap();
        assert!(load_shard(&dir, 2, &current).unwrap().is_some());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn frames_without_an_identity_record_are_foreign() {
        // The earlier META layout (tag 1: kind, fingerprint, shard,
        // shard count, counters) carries no record.
        let dir = temp_dir("old-meta");
        let mut meta = PayloadWriter::new();
        meta.put_u8(0);
        meta.put_u64(0xDEAD_BEEF_CAFE_F00D);
        meta.put_u32(0);
        meta.put_u32(2);
        meta.put_u64(64);
        meta.put_u64(2);
        write_shard(&dir, 0, &encode_frame(&[meta.into_section(1)])).unwrap();
        match load_shard(&dir, 0, &identity("tvla", 2)) {
            Err(CheckpointError::ForeignCampaign(field)) => assert_eq!(field, "mode"),
            other => panic!("frame without a record not refused: {other:?}"),
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn fingerprint_separates_campaigns() {
        let base = cpa_identity(Tagged("live"));
        assert_eq!(base.hash(), cpa_identity(Tagged("live")).hash(), "stable");
        let tvla = Campaign::from_source(Tagged("live")).shards(4).session();
        assert_ne!(base.hash(), tvla.identity(AnalysisMode::Tvla).hash());
        assert_ne!(base.hash(), cpa_identity(Tagged("replay")).hash());
        let shards = Campaign::from_source(Tagged("live")).shards(2).session();
        assert_ne!(base.hash(), shards.identity(AnalysisMode::Cpa).hash());
        let traces = Campaign::from_source(Tagged("live")).shards(4).traces(99).session();
        assert_ne!(base.hash(), traces.identity(AnalysisMode::Cpa).hash());
    }

    #[test]
    fn identity_text_round_trips_and_refuses_nameless_lines() {
        let id = cpa_identity(ShardReplay::default().detrend(7));
        assert_eq!(Identity::parse(id.text()).unwrap(), id);
        assert_eq!(Identity::parse("").unwrap(), Identity::default());
        for text in ["mode", "=cpa\n", "mode=\"cpa\"", "mode=\"cpa\"\nshards\n"] {
            assert!(Identity::parse(text).is_err(), "{text:?} must be refused");
        }
        let mut id = Identity::default();
        id.push("record", std::path::Path::new("a\nb"));
        assert_eq!(id.text().lines().count(), 1, "a value stays on its line");
    }

    #[test]
    fn identity_names_each_field() {
        const SECRET: [u8; 16] = [0x3C; 16];
        let live = |device, kind, secret, seed| {
            Campaign::live(device, kind, secret, seed).keys(&[key("PHPC")]).traces(64).shards(2)
        };
        let base = || live(Device::MacbookAirM2, VictimKind::UserSpace, SECRET, 5);
        let tvla = |c: Campaign| c.session().identity(AnalysisMode::Tvla);
        let members = |second| {
            vec![
                FleetMember { device: Device::MacbookAirM2, kind: VictimKind::UserSpace },
                FleetMember { device: second, kind: VictimKind::UserSpace },
            ]
        };
        let fleet = |second, key, seed| Fleet::new(members(second), key, seed);
        let over_fleet = |f: Fleet| tvla(Campaign::fleet(f).keys(&[key("PHPC")]).traces(64));
        let shard_of = |f: Fleet, member| {
            tvla(Campaign::from_source(FleetShard::new(f, member)).keys(&[key("PHPC")]).traces(64))
        };
        let dir = temp_dir("identity-table");
        std::fs::create_dir_all(&dir).unwrap();
        let file = |name: &str, len: usize| {
            let path = dir.join(name);
            std::fs::write(&path, vec![0u8; len]).unwrap();
            ReplayShard { files: vec![path] }
        };
        let replay = |shard: ReplayShard| ShardReplay::new(vec![shard]);
        let over_replay = |r: ShardReplay| tvla(Campaign::replay(r).keys(&[key("PHPC")]));
        let tuned = |tune: TuneConfig| tvla(base().tune(tune));

        let live_base = tvla(base());
        let fleet_base = over_fleet(fleet(Device::MacMiniM1, SECRET, 5));
        let shard_base = shard_of(fleet(Device::MacMiniM1, SECRET, 5), 0);
        let replay_base = over_replay(replay(file("PHPC-s000-0000.psct", 40)));
        let rows = [
            ("mode", &live_base, base().session().identity(AnalysisMode::Cpa)),
            ("mode", &live_base, base().session().identity(AnalysisMode::Adaptive)),
            ("watch", &live_base, tvla(base().early_stop(key("PHPC")))),
            ("source", &live_base, fleet_base.clone()),
            ("device", &live_base, tvla(live(Device::MacMiniM1, VictimKind::UserSpace, SECRET, 5))),
            (
                "victim",
                &live_base,
                tvla(live(Device::MacbookAirM2, VictimKind::KernelModule, SECRET, 5)),
            ),
            (
                "key",
                &live_base,
                tvla(live(Device::MacbookAirM2, VictimKind::UserSpace, [1; 16], 5)),
            ),
            (
                "seed",
                &live_base,
                tvla(live(Device::MacbookAirM2, VictimKind::UserSpace, SECRET, 6)),
            ),
            ("keys", &live_base, tvla(base().keys(&[key("PHPC"), key("PSTR")]))),
            ("traces", &live_base, tvla(base().traces(65))),
            ("shards", &live_base, tvla(base().shards(3))),
            (
                "mitigation",
                &live_base,
                tvla(base().mitigation(MitigationConfig::restrict_access())),
            ),
            ("monitor", &live_base, tvla(base().monitor(3.0))),
            ("obs_chunk", &live_base, tuned(TuneConfig { obs_chunk: 16, ..TuneConfig::default() })),
            ("record", &live_base, tvla(base().record_to("rec"))),
            ("members", &fleet_base, over_fleet(fleet(Device::MacbookAirM2, SECRET, 5))),
            ("key", &fleet_base, over_fleet(fleet(Device::MacMiniM1, [1; 16], 5))),
            ("seed", &fleet_base, over_fleet(fleet(Device::MacMiniM1, SECRET, 6))),
            ("member", &shard_base, shard_of(fleet(Device::MacMiniM1, SECRET, 5), 1)),
            ("file", &replay_base, over_replay(replay(file("PHPC-s000-0001.psct", 40)))),
            ("file", &replay_base, over_replay(replay(file("PHPC-s000-0000.psct", 41)))),
            (
                "detrend",
                &replay_base,
                over_replay(replay(file("PHPC-s000-0000.psct", 40)).detrend(7)),
            ),
        ];
        for (field, base, changed) in &rows {
            assert_ne!(base.hash(), changed.hash(), "{field}");
            // A frame of the changed campaign does not resume the base one.
            let frame = ShardSnapshot { shard: 0, ..snapshot(changed) };
            write_shard(&dir, 0, &encode_snapshot(&frame)).unwrap();
            match load_shard(&dir, 0, base) {
                Err(CheckpointError::ForeignCampaign(named)) => assert_eq!(named, *field),
                other => panic!("{field} changed alone was not refused: {other:?}"),
            }
        }
        // Throughput-only settings leave the record alone.
        let same = [
            tuned(TuneConfig { cpa_unroll: 8, ..TuneConfig::default() }),
            tuned(TuneConfig { replay_chunk: 16, ..TuneConfig::default() }),
            tuned(TuneConfig { bus_capacity: 8, ..TuneConfig::default() }),
            tvla(base().checkpoint_to(&dir, 3)),
        ];
        for id in &same {
            assert_eq!(*id, live_base);
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}
