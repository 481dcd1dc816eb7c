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
//! [`psc_sca::checkpoint`] container and guarded against cross-campaign
//! mixups by an FNV-1a fingerprint over the campaign's identity: analysis
//! kind, source family, keys, budget, shard count, mitigation and
//! monitor interval.
//!
//! [`Campaign::checkpoint_to`]: crate::session::Campaign::checkpoint_to
//! [`Campaign::resume_from`]: crate::session::Campaign::resume_from

use crate::session::SessionSpec;
use psc_sca::checkpoint::{
    decode_frame, encode_frame, CheckpointError, PayloadReader, PayloadWriter, Section,
};
use psc_telemetry::processors::RecorderState;
use std::path::{Path, PathBuf};

/// Campaign identity and consumed-prefix counters.
pub(crate) const TAG_META: u16 = 1;
/// Attacker-RNG stream position (ChaCha words) after the prefix.
pub(crate) const TAG_RNG: u16 = 2;
/// The analysis accumulator payload (TVLA or CPA — META's kind says).
pub(crate) const TAG_ANALYSIS: u16 = 3;
/// Cadence monitor state, its poll clock first.
pub(crate) const TAG_MONITOR: u16 = 4;
/// Per-channel recorder progress.
pub(crate) const TAG_RECORDER: u16 = 5;

/// META `kind` for [`Session::tvla`](crate::session::Session::tvla).
pub(crate) const KIND_TVLA: u8 = 0;
/// META `kind` for [`Session::cpa`](crate::session::Session::cpa).
pub(crate) const KIND_CPA: u8 = 1;
/// META `kind` for
/// [`Session::adaptive_tvla`](crate::session::Session::adaptive_tvla).
pub(crate) const KIND_ADAPTIVE: u8 = 2;
/// META `kind` for [`Session::analyze`](crate::session::Session::analyze).
pub(crate) const KIND_ANALYSIS: u8 = 3;

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

/// FNV-1a over the campaign's canonical identity line. Stable across
/// runs of the same campaign; any drift in analysis kind, source family,
/// keys, budget, shard count, mitigation, monitor interval or block size
/// changes it. The tuned `obs_chunk` is part of the identity because
/// checkpoint offsets are whole-block counts — a frame taken under one
/// chunk size must never resume under another.
pub(crate) fn fingerprint(spec: &SessionSpec, kind: u8, source_tag: &str, shards: usize) -> u64 {
    let canonical = format!(
        "{kind}|{source_tag}|{keys:?}|{traces}|{shards}|{mitigation:?}|{interval:016x}|{chunk}",
        keys = spec.keys,
        traces = spec.traces,
        mitigation = spec.mitigation,
        interval = spec.monitor_interval_s.to_bits(),
        chunk = spec.tune.obs_chunk,
    );
    let mut hash: u64 = 0xCBF2_9CE4_8422_2325;
    for byte in canonical.as_bytes() {
        hash ^= u64::from(*byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
    }
    hash
}

/// One shard's full snapshot, ready to frame and write.
pub(crate) struct ShardSnapshot {
    pub kind: u8,
    pub fingerprint: u64,
    pub shard: usize,
    pub shard_count: usize,
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
pub(crate) fn encode_snapshot(s: &ShardSnapshot) -> Vec<u8> {
    let mut meta = PayloadWriter::new();
    meta.put_u8(s.kind);
    meta.put_u64(s.fingerprint);
    meta.put_u32(s.shard as u32);
    meta.put_u32(s.shard_count as u32);
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
/// shard); decode failures, kind/fingerprint/shard mismatches and
/// truncation all come back as [`CheckpointError`] — a resumed campaign
/// refuses to guess at corrupt or foreign state.
pub(crate) fn load_shard(
    dir: &Path,
    shard: usize,
    kind: u8,
    fingerprint: u64,
    shard_count: usize,
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
                if r.get_u8()? != kind {
                    return Err(CheckpointError::Corrupt(
                        "checkpoint was taken by a different analysis",
                    ));
                }
                if r.get_u64()? != fingerprint {
                    return Err(CheckpointError::Corrupt(
                        "checkpoint belongs to a different campaign",
                    ));
                }
                if r.get_u32()? as usize != shard {
                    return Err(CheckpointError::Corrupt("checkpoint names a different shard"));
                }
                if r.get_u32()? as usize != shard_count {
                    return Err(CheckpointError::Corrupt(
                        "checkpoint was taken with a different shard count",
                    ));
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
        return Err(CheckpointError::Corrupt("checkpoint frame has no META section"));
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

    fn snapshot() -> ShardSnapshot {
        ShardSnapshot {
            kind: KIND_TVLA,
            fingerprint: 0xDEAD_BEEF_CAFE_F00D,
            shard: 2,
            shard_count: 4,
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

    #[test]
    fn snapshot_round_trips_through_disk() {
        let dir = std::env::temp_dir().join(format!("psc-ckpt-rt-{}", std::process::id()));
        let s = snapshot();
        write_shard(&dir, s.shard, &encode_snapshot(&s)).unwrap();
        let r = load_shard(&dir, 2, KIND_TVLA, s.fingerprint, 4).unwrap().expect("frame exists");
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
        let dir = std::env::temp_dir().join(format!("psc-ckpt-miss-{}", std::process::id()));
        assert!(load_shard(&dir, 0, KIND_TVLA, 1, 2).unwrap().is_none());
    }

    #[test]
    fn foreign_frames_are_rejected() {
        let dir = std::env::temp_dir().join(format!("psc-ckpt-foreign-{}", std::process::id()));
        let s = snapshot();
        write_shard(&dir, s.shard, &encode_snapshot(&s)).unwrap();
        // Wrong analysis kind, fingerprint, shard index, shard count.
        assert!(load_shard(&dir, 2, KIND_CPA, s.fingerprint, 4).is_err());
        assert!(load_shard(&dir, 2, KIND_TVLA, 1, 4).is_err());
        assert!(load_shard(&dir, 2, KIND_TVLA, s.fingerprint, 8).is_err());
        // Torn bytes fail the container CRC, never a panic.
        let path = shard_path(&dir, 2);
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        std::fs::write(&path, &bytes).unwrap();
        assert!(load_shard(&dir, 2, KIND_TVLA, s.fingerprint, 4).is_err());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn per_channel_replay_frames_are_refused() {
        // Replay checkpoints used to count per-channel rows ("replay"
        // tag); resuming one over the merged row stream would land at
        // the wrong offset, so the replay tag moved and the old frame
        // must fail the fingerprint check with its typed error.
        use crate::source::{ShardReplay, TraceSource};
        let dir = std::env::temp_dir().join(format!("psc-ckpt-replay-tag-{}", std::process::id()));
        let spec = SessionSpec::default();
        let tag = ShardReplay::default().fingerprint_tag();
        assert_ne!(tag, "replay");
        let old = ShardSnapshot {
            kind: KIND_CPA,
            fingerprint: fingerprint(&spec, KIND_CPA, "replay", 4),
            rng_offset: None,
            ..snapshot()
        };
        write_shard(&dir, old.shard, &encode_snapshot(&old)).unwrap();
        let current = fingerprint(&spec, KIND_CPA, tag, 4);
        match load_shard(&dir, 2, KIND_CPA, current, 4) {
            Err(CheckpointError::Corrupt(reason)) => {
                assert_eq!(reason, "checkpoint belongs to a different campaign");
            }
            other => panic!("old replay frame not refused: {other:?}"),
        }
        let fresh = ShardSnapshot { fingerprint: current, ..old };
        write_shard(&dir, fresh.shard, &encode_snapshot(&fresh)).unwrap();
        assert!(load_shard(&dir, 2, KIND_CPA, current, 4).unwrap().is_some());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn fingerprint_separates_campaigns() {
        let spec = SessionSpec::default();
        let base = fingerprint(&spec, KIND_TVLA, "live", 2);
        assert_eq!(base, fingerprint(&spec, KIND_TVLA, "live", 2), "stable");
        assert_ne!(base, fingerprint(&spec, KIND_CPA, "live", 2));
        assert_ne!(base, fingerprint(&spec, KIND_TVLA, "replay", 2));
        assert_ne!(base, fingerprint(&spec, KIND_TVLA, "live", 4));
        let other = SessionSpec { traces: 99, ..SessionSpec::default() };
        assert_ne!(base, fingerprint(&other, KIND_TVLA, "live", 2));
    }
}
