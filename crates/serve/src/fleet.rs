//! Distributed fleet aggregation: worker processes stream partial
//! accumulator state to an aggregator that merges survivors.
//!
//! The in-process [`Fleet`] source fans one shard per fleet member
//! across threads of a single process. This module is the same
//! campaign fanned across *processes*: each `psc worker` runs exactly
//! one member's shard (via [`FleetShard`], which re-addresses the
//! member's slot of the shared [`Fleet`] so the rig seed and device
//! are bit-identical to the in-process run) and streams its state to a
//! `psc aggregate` process, which merges the member reports with the
//! same snapshot-merge folds the in-process session uses. A
//! fault-free distributed run is therefore **byte-identical** — report
//! text and encoded analysis state — to the single-process fleet run
//! of the same spec.
//!
//! ## Worker protocol
//!
//! Every message is one codec-v3 frame behind the [`crate::proto`]
//! length prefix; worker tags are `32..=35`, aggregator tags
//! `48..=50`. A worker's life cycle:
//!
//! 1. [`WorkerMsg::Hello`] — member index, member count, epoch, the
//!    hash of the campaign identity record (the one a checkpoint frame
//!    carries, built over `Campaign::from_spec(spec)`) and analysis
//!    mode. The aggregator answers [`AggregatorMsg::Welcome`] or a
//!    typed [`AggregatorMsg::Reject`] (another campaign, bad member
//!    index, unsupported mode).
//! 2. [`WorkerMsg::Partial`] — the worker's latest per-shard
//!    checkpoint frame (the existing codec-v3 `shard-000.ckpt`
//!    snapshot written by `Campaign::checkpoint_to`), stamped with an
//!    `(epoch, sequence)` pair. Partials are *cumulative* snapshots:
//!    the aggregator retains only the newest accepted stamp per
//!    member, so at-least-once delivery and reconnect re-sends merge
//!    exactly once. Stale or duplicate stamps are refused through the
//!    [`DedupGate`]; frames that fail CRC/decode are rejected and
//!    counted, never merged and never a panic.
//! 3. [`WorkerMsg::Heartbeat`] — liveness, sent on an interval.
//! 4. [`WorkerMsg::Done`] — the member's final state: encoded
//!    analysis accumulators, cadence-monitor totals, bus counters, I/O
//!    tallies and shard health.
//!
//! ## Epoch / sequence dedup rule
//!
//! Each worker send carries a strictly increasing `(epoch, seq)`
//! stamp. The epoch starts at 1 and bumps on every reconnect; `seq`
//! increases per send. The aggregator admits a stamp iff it is
//! lexicographically greater than the member's last admitted stamp —
//! so replays, re-sends after reconnect and out-of-order duplicates
//! are each accepted at most once (pinned by the fleet proptests).
//!
//! ## Failure semantics
//!
//! * Workers reconnect under the campaign [`RetryPolicy`] (bounded
//!   attempts, capped exponential backoff, deterministic jitter keyed
//!   by the member index), bumping their epoch per reconnect.
//! * The aggregator enforces a **heartbeat deadline** (a connected
//!   member that goes silent is demoted), a **join deadline** (a
//!   member that never says hello) and a **straggler timeout** (once
//!   the first member finishes, the rest must finish within the
//!   window). Demoted members land on the final report as
//!   [`ShardHealth::Failed`] and contribute nothing to the merge;
//!   members that completed but needed reconnects are
//!   [`ShardHealth::Degraded`]. Survivors merge to exactly the
//!   fault-free run restricted to the same members.
//! * Transport faults for the whole matrix — frame drop, frame delay,
//!   disconnect, bit corruption — are deterministically injectable on
//!   the worker send path through [`FaultPlan`]'s transport budgets.

use crate::proto::{mode_from_u8, mode_to_u8, read_frame, tags, write_frame, ProtoError};
use psc_core::report::{self, campaign_banner};
use psc_core::session::{
    Campaign, RecorderTally, ShardHealth, ShardOutput, ShardRun, MONITOR_DEPTH, MONITOR_INTERVAL_S,
};
use psc_core::source::{Fleet, FleetShard};
use psc_core::spec::{AnalysisMode, CampaignSpec};
use psc_sca::checkpoint::{
    decode_frame, encode_frame, get_blob, get_blob_str, put_blob, CheckpointError, PayloadReader,
    PayloadWriter,
};
use psc_telemetry::faults::{FaultPlan, FaultState, RetryPolicy};
use psc_telemetry::ring::ChannelStats;
use psc_telemetry::{panic_message, split_counts, ThrottleMonitor};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Handler-side socket read timeout: short enough that handler threads
/// notice aggregator completion promptly, well under any sane
/// heartbeat deadline.
const HANDLER_POLL: Duration = Duration::from_millis(100);

/// Errors from the distributed fleet layer.
#[derive(Debug)]
pub enum FleetError {
    /// The spec cannot run distributed (not a fleet, adaptive mode,
    /// member index out of range).
    Spec(String),
    /// A wire-layer failure that retries could not absorb.
    Proto(ProtoError),
    /// The aggregator refused this worker.
    Rejected(String),
    /// A member's shipped state failed to decode.
    Checkpoint(CheckpointError),
    /// Every member failed — nothing to merge.
    NoSurvivors,
    /// The worker's campaign thread panicked.
    WorkerPanicked(String),
}

impl core::fmt::Display for FleetError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            Self::Spec(e) => write!(f, "spec cannot run distributed: {e}"),
            Self::Proto(e) => write!(f, "transport failure: {e}"),
            Self::Rejected(reason) => write!(f, "aggregator refused the worker: {reason}"),
            Self::Checkpoint(e) => write!(f, "member state failed to decode: {e}"),
            Self::NoSurvivors => write!(f, "every fleet member failed — nothing to merge"),
            Self::WorkerPanicked(e) => write!(f, "worker campaign panicked: {e}"),
        }
    }
}

impl std::error::Error for FleetError {}

impl From<ProtoError> for FleetError {
    fn from(e: ProtoError) -> Self {
        Self::Proto(e)
    }
}

impl From<CheckpointError> for FleetError {
    fn from(e: CheckpointError) -> Self {
        Self::Checkpoint(e)
    }
}

impl From<std::io::Error> for FleetError {
    fn from(e: std::io::Error) -> Self {
        Self::Proto(ProtoError::from(e))
    }
}

/// The hash of the campaign [`Identity`] of `spec`'s in-process fleet
/// run — what a worker presents in its [`WorkerMsg::Hello`] and the
/// aggregator expects. Two specs that differ only in throughput-only
/// fields (CPA unroll, replay read window, bus depth, checkpoint cadence)
/// hash alike, since their members' states merge to the same bits.
///
/// [`Identity`]: psc_core::checkpoint::Identity
fn identity_hash(spec: &CampaignSpec) -> u64 {
    Campaign::from_spec(spec).session().identity(spec.mode).hash()
}

/// Validate that `spec` can run as a distributed fleet and return the
/// member count.
///
/// # Errors
///
/// [`FleetError::Spec`] for non-fleet specs and for adaptive mode
/// (whose cross-shard early-stop flag cannot span processes).
pub fn distributed_members(spec: &CampaignSpec) -> Result<usize, FleetError> {
    if !spec.fleet {
        return Err(FleetError::Spec("distributed campaigns need fleet=true".into()));
    }
    if spec.mode == AnalysisMode::Adaptive {
        return Err(FleetError::Spec(
            "adaptive early-stop cannot span processes; use tvla or cpa".into(),
        ));
    }
    let members = spec.fleet_members().len();
    if members == 0 {
        return Err(FleetError::Spec("fleet has no members".into()));
    }
    Ok(members)
}

/// Per-member at-least-once dedup gate: a stamp is admitted iff it is
/// lexicographically greater than the last admitted `(epoch, seq)`.
#[derive(Debug, Clone, Copy, Default)]
pub struct DedupGate {
    last: Option<(u64, u64)>,
}

impl DedupGate {
    /// Admit or refuse one stamp. Admission advances the gate; refusal
    /// leaves it unchanged, so a duplicate is refused every time.
    pub fn admit(&mut self, epoch: u64, seq: u64) -> bool {
        let stamp = (epoch, seq);
        if self.last.is_none_or(|last| stamp > last) {
            self.last = Some(stamp);
            true
        } else {
            false
        }
    }

    /// The last admitted stamp.
    #[must_use]
    pub fn last(&self) -> Option<(u64, u64)> {
        self.last
    }
}

/// One member's final state, as shipped in [`WorkerMsg::Done`]: the
/// encoded analysis accumulators plus every per-shard total the merged
/// report needs.
#[derive(Debug, Clone, PartialEq)]
pub struct MemberFinal {
    /// `StreamingTvla::encode_state` / `StreamingCpa::encode_state`
    /// payload for the member's single shard.
    pub analysis: Vec<u8>,
    /// `ThrottleMonitor::encode_state` payload (poll clock first; the
    /// merge folds totals only and retains no cadence checkpoints).
    pub monitor: Vec<u8>,
    /// The member's bus counters.
    pub bus: ChannelStats,
    /// Recorder write failures (lost batches).
    pub io_errors: u64,
    /// Recorder retries that recovered.
    pub io_retries: u64,
    /// The member's own shard health.
    pub health: ShardHealth,
}

fn put_health(w: &mut PayloadWriter, health: &ShardHealth) {
    match health {
        ShardHealth::Ok => w.put_u8(0),
        ShardHealth::Degraded { reason } => {
            w.put_u8(1);
            put_blob(w, reason.as_bytes());
        }
        ShardHealth::Failed { reason } => {
            w.put_u8(2);
            put_blob(w, reason.as_bytes());
        }
    }
}

fn get_health(r: &mut PayloadReader<'_>) -> Result<ShardHealth, CheckpointError> {
    Ok(match r.get_u8()? {
        0 => ShardHealth::Ok,
        1 => ShardHealth::Degraded { reason: get_blob_str(r)? },
        2 => ShardHealth::Failed { reason: get_blob_str(r)? },
        _ => return Err(CheckpointError::Corrupt("unknown shard health")),
    })
}

impl MemberFinal {
    fn encode(&self, w: &mut PayloadWriter) {
        put_blob(w, &self.analysis);
        put_blob(w, &self.monitor);
        w.put_u64(self.bus.accepted);
        w.put_u64(self.bus.dropped);
        w.put_u64(self.bus.delivered);
        w.put_u64(self.bus.high_water);
        w.put_u64(self.io_errors);
        w.put_u64(self.io_retries);
        put_health(w, &self.health);
    }

    fn decode(r: &mut PayloadReader<'_>) -> Result<Self, CheckpointError> {
        Ok(Self {
            analysis: get_blob(r)?,
            monitor: get_blob(r)?,
            bus: ChannelStats {
                accepted: r.get_u64()?,
                dropped: r.get_u64()?,
                delivered: r.get_u64()?,
                high_water: r.get_u64()?,
            },
            io_errors: r.get_u64()?,
            io_retries: r.get_u64()?,
            health: get_health(r)?,
        })
    }
}

/// A worker-to-aggregator message.
#[derive(Debug, Clone, PartialEq)]
pub enum WorkerMsg {
    /// Identify: which member of how many, under which epoch, running
    /// which campaign.
    Hello {
        /// Member index (shard slot in the fleet).
        member: u32,
        /// Total fleet member count the worker believes in.
        members: u32,
        /// Connection epoch (1 on first connect, +1 per reconnect).
        epoch: u64,
        /// Hash of the campaign identity record of the worker's spec.
        fingerprint: u64,
        /// Analysis mode the worker is running.
        mode: AnalysisMode,
    },
    /// A cumulative partial-state snapshot: the member's latest
    /// `shard-000.ckpt` checkpoint frame, verbatim.
    Partial {
        /// Member index.
        member: u32,
        /// Connection epoch.
        epoch: u64,
        /// Send sequence (strictly increasing per worker).
        seq: u64,
        /// The codec-v3 checkpoint frame.
        frame: Vec<u8>,
    },
    /// Liveness.
    Heartbeat {
        /// Member index.
        member: u32,
        /// Connection epoch.
        epoch: u64,
    },
    /// The member finished; here is its final state.
    Done {
        /// Member index.
        member: u32,
        /// Connection epoch.
        epoch: u64,
        /// Send sequence.
        seq: u64,
        /// The member's complete final state.
        state: MemberFinal,
    },
}

impl WorkerMsg {
    /// Encode as one codec-v3 frame (no wire length prefix).
    #[must_use]
    pub fn encode(&self) -> Vec<u8> {
        let mut w = PayloadWriter::new();
        let section = match self {
            Self::Hello { member, members, epoch, fingerprint, mode } => {
                w.put_u32(*member);
                w.put_u32(*members);
                w.put_u64(*epoch);
                w.put_u64(*fingerprint);
                w.put_u8(mode_to_u8(*mode));
                w.into_section(tags::WORKER_HELLO)
            }
            Self::Partial { member, epoch, seq, frame } => {
                w.put_u32(*member);
                w.put_u64(*epoch);
                w.put_u64(*seq);
                put_blob(&mut w, frame);
                w.into_section(tags::WORKER_PARTIAL)
            }
            Self::Heartbeat { member, epoch } => {
                w.put_u32(*member);
                w.put_u64(*epoch);
                w.into_section(tags::WORKER_HEARTBEAT)
            }
            Self::Done { member, epoch, seq, state } => {
                w.put_u32(*member);
                w.put_u64(*epoch);
                w.put_u64(*seq);
                state.encode(&mut w);
                w.into_section(tags::WORKER_DONE)
            }
        };
        encode_frame(&[section])
    }

    /// Decode a codec-v3 frame: first known tag wins, unknown tags are
    /// skipped.
    ///
    /// # Errors
    ///
    /// [`ProtoError::Checkpoint`] on framing/CRC/payload corruption;
    /// [`ProtoError::UnknownMessage`] when no worker tag is present.
    pub fn decode(frame: &[u8]) -> Result<Self, ProtoError> {
        for section in decode_frame(frame)? {
            let mut r = PayloadReader::new(&section.payload);
            let parsed = match section.tag {
                tags::WORKER_HELLO => Self::Hello {
                    member: r.get_u32()?,
                    members: r.get_u32()?,
                    epoch: r.get_u64()?,
                    fingerprint: r.get_u64()?,
                    mode: mode_from_u8(r.get_u8()?)?,
                },
                tags::WORKER_PARTIAL => Self::Partial {
                    member: r.get_u32()?,
                    epoch: r.get_u64()?,
                    seq: r.get_u64()?,
                    frame: get_blob(&mut r)?,
                },
                tags::WORKER_HEARTBEAT => {
                    Self::Heartbeat { member: r.get_u32()?, epoch: r.get_u64()? }
                }
                tags::WORKER_DONE => Self::Done {
                    member: r.get_u32()?,
                    epoch: r.get_u64()?,
                    seq: r.get_u64()?,
                    state: MemberFinal::decode(&mut r)?,
                },
                _ => continue,
            };
            r.finish()?;
            return Ok(parsed);
        }
        Err(ProtoError::UnknownMessage)
    }
}

/// An aggregator-to-worker message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AggregatorMsg {
    /// Hello accepted.
    Welcome,
    /// Acknowledgement of a partial/heartbeat/done; `accepted` is
    /// `false` for stamps the dedup gate refused.
    Ack {
        /// Echoed epoch.
        epoch: u64,
        /// Echoed sequence.
        seq: u64,
        /// Whether the stamp was admitted.
        accepted: bool,
    },
    /// The worker (or this one frame) was refused.
    Reject {
        /// Why.
        reason: String,
    },
}

impl AggregatorMsg {
    /// Encode as one codec-v3 frame (no wire length prefix).
    #[must_use]
    pub fn encode(&self) -> Vec<u8> {
        let mut w = PayloadWriter::new();
        let section = match self {
            Self::Welcome => w.into_section(tags::AGG_WELCOME),
            Self::Ack { epoch, seq, accepted } => {
                w.put_u64(*epoch);
                w.put_u64(*seq);
                w.put_u8(u8::from(*accepted));
                w.into_section(tags::AGG_ACK)
            }
            Self::Reject { reason } => {
                put_blob(&mut w, reason.as_bytes());
                w.into_section(tags::AGG_REJECT)
            }
        };
        encode_frame(&[section])
    }

    /// Decode a codec-v3 frame: first known tag wins.
    ///
    /// # Errors
    ///
    /// [`ProtoError::Checkpoint`] on corruption,
    /// [`ProtoError::UnknownMessage`] when no aggregator tag is
    /// present.
    pub fn decode(frame: &[u8]) -> Result<Self, ProtoError> {
        for section in decode_frame(frame)? {
            let mut r = PayloadReader::new(&section.payload);
            let parsed = match section.tag {
                tags::AGG_WELCOME => Self::Welcome,
                tags::AGG_ACK => {
                    Self::Ack { epoch: r.get_u64()?, seq: r.get_u64()?, accepted: r.get_u8()? != 0 }
                }
                tags::AGG_REJECT => Self::Reject { reason: get_blob_str(&mut r)? },
                _ => continue,
            };
            r.finish()?;
            return Ok(parsed);
        }
        Err(ProtoError::UnknownMessage)
    }
}

/// Run member `member`'s shard of `spec` in-process and package its
/// final state — the worker's campaign half, also the helper tests and
/// benches use to build survivor-restricted baselines without sockets.
/// With `checkpoint_dir`, the campaign snapshots `shard-000.ckpt`
/// every `spec.every` blocks (the partial-stream source).
///
/// # Errors
///
/// [`FleetError::Spec`] when the spec cannot run distributed or
/// `member` is out of range.
///
/// # Panics
///
/// Propagates campaign panics (callers running worker processes catch
/// them at the thread join).
pub fn member_state(
    spec: &CampaignSpec,
    member: usize,
    checkpoint_dir: Option<&Path>,
) -> Result<MemberFinal, FleetError> {
    let members = distributed_members(spec)?;
    if member >= members {
        return Err(FleetError::Spec(format!("member {member} out of range (fleet of {members})")));
    }
    let member_spec = CampaignSpec {
        traces: split_counts(spec.traces, members)[member],
        // Worker-local recording: each member records its own shard
        // under a member-suffixed directory so co-located workers never
        // collide.
        record: spec.record.as_ref().map(|dir| format!("{dir}/member-{member:03}")),
        ..spec.clone()
    };
    let fleet = Fleet::new(spec.fleet_members(), spec.key, spec.seed);
    let mut campaign = Campaign::from_spec_over(FleetShard::new(fleet, member), &member_spec);
    if let Some(dir) = checkpoint_dir {
        campaign = campaign.checkpoint_to(dir, spec.every);
    }
    let outcome = report::run_session(campaign.session(), &member_spec);
    let mut w = PayloadWriter::new();
    outcome.monitor.encode_state(&mut w);
    Ok(MemberFinal {
        analysis: outcome.analysis,
        monitor: w.into_payload(),
        bus: outcome.bus,
        io_errors: outcome.io_errors,
        io_retries: outcome.io_retries,
        health: outcome.health[0].clone(),
    })
}

/// What became of one member, as input to [`merge_survivors`].
#[derive(Debug, Clone)]
pub enum MemberOutcome {
    /// The member delivered its final state (possibly after
    /// `reconnects` transport reconnects).
    Completed {
        /// The delivered state.
        state: MemberFinal,
        /// Transport reconnects the member needed (epoch − 1).
        reconnects: u64,
    },
    /// The member never delivered: killed, silent past its heartbeat
    /// deadline, or straggling past the timeout.
    Failed {
        /// Why it was demoted.
        reason: String,
    },
}

/// The aggregator's merged result.
#[derive(Debug)]
pub struct MergedFleet {
    /// Full deterministic report text: campaign banner + body, the
    /// same renderer `psc campaign` uses.
    pub text: String,
    /// Encoded merged analysis state (`encode_state` of the merged
    /// accumulators) — byte-identical to the in-process fleet run's
    /// `CampaignOutcome::analysis` when every member survived cleanly.
    pub analysis: Vec<u8>,
    /// Per-member health, in member order.
    pub health: Vec<ShardHealth>,
    /// Members that delivered final state.
    pub survivors: usize,
    /// Wall-clock nanoseconds the merge fold took.
    pub merge_ns: u64,
}

/// Decode one member into the shard-run shape [`report::merge_shipped`]
/// takes: a survivor's encoded analysis, cadence monitor, bus counters
/// and recorder tally; a failed member keeps only its health. A member
/// that completed after transport reconnects is degraded.
fn member_run(
    outcome: &MemberOutcome,
    interval_s: f64,
) -> Result<ShardRun<ShardOutput<Vec<u8>>>, CheckpointError> {
    let (state, reconnects) = match outcome {
        MemberOutcome::Completed { state, reconnects } => (state, *reconnects),
        MemberOutcome::Failed { reason } => return Ok(ShardRun::failed(reason.clone())),
    };
    let health = if reconnects > 0 && state.health.is_ok() {
        ShardHealth::Degraded {
            reason: format!("completed after {reconnects} transport reconnect(s)"),
        }
    } else {
        state.health.clone()
    };
    let mut monitor = ThrottleMonitor::new(interval_s, MONITOR_DEPTH);
    let mut r = PayloadReader::new(&state.monitor);
    monitor.restore_state(&mut r)?;
    r.finish()?;
    let recorders = RecorderTally {
        io_errors: state.io_errors,
        io_retries: state.io_retries,
        ..RecorderTally::default()
    };
    let out = ShardOutput { analysis: state.analysis.clone(), monitor, recorders };
    Ok(ShardRun { out: Some(out), stats: state.bus, produced: 0, recycle_dropped: 0, health })
}

/// Merge the surviving members of a distributed fleet campaign, in
/// member order, through [`report::merge_shipped`] — the mode table's
/// fold over [`merge_shards`](psc_core::session::merge_shards), the very
/// fold the in-process session driver uses — so a fault-free merge is
/// byte-identical to the in-process fleet run, a degraded merge equals
/// the fault-free run restricted to the surviving members, and the same
/// degradation warnings reach stderr.
///
/// # Errors
///
/// [`FleetError::NoSurvivors`] when no member completed;
/// [`FleetError::Checkpoint`] when a delivered state fails to decode;
/// [`FleetError::Spec`] for specs that cannot run distributed.
pub fn merge_survivors(
    spec: &CampaignSpec,
    outcomes: &[MemberOutcome],
) -> Result<MergedFleet, FleetError> {
    let members = distributed_members(spec)?;
    if outcomes.len() != members {
        return Err(FleetError::Spec(format!(
            "{} outcome(s) for a fleet of {members}",
            outcomes.len()
        )));
    }
    let survivors =
        outcomes.iter().filter(|o| matches!(o, MemberOutcome::Completed { .. })).count();
    if survivors == 0 {
        return Err(FleetError::NoSurvivors);
    }

    let t0 = Instant::now();
    let interval_s = spec.monitor.unwrap_or(MONITOR_INTERVAL_S);
    let runs = outcomes
        .iter()
        .map(|outcome| member_run(outcome, interval_s))
        .collect::<Result<Vec<_>, _>>()?;
    let merged = report::merge_shipped(runs, spec)?;
    let merge_ns = u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX);
    Ok(MergedFleet {
        text: campaign_banner(spec) + &merged.body,
        analysis: merged.analysis,
        health: merged.health,
        survivors,
        merge_ns,
    })
}

// ---------------------------------------------------------------------------
// Worker
// ---------------------------------------------------------------------------

/// Worker-process configuration.
#[derive(Debug, Clone)]
pub struct WorkerConfig {
    /// This worker's fleet member index.
    pub member: usize,
    /// Scratch directory for the member's checkpoint frames (the
    /// partial-stream source).
    pub workdir: PathBuf,
    /// Heartbeat cadence.
    pub heartbeat_interval: Duration,
    /// Reconnect policy (bounded attempts, capped backoff,
    /// deterministic jitter keyed by the member index).
    pub retry: RetryPolicy,
    /// Transport fault injection (only the transport budgets are
    /// honored; the member's campaign itself runs clean).
    pub faults: FaultPlan,
}

impl WorkerConfig {
    /// Defaults: 200 ms heartbeats, the default retry policy, no
    /// faults.
    #[must_use]
    pub fn new(member: usize, workdir: impl Into<PathBuf>) -> Self {
        Self {
            member,
            workdir: workdir.into(),
            heartbeat_interval: Duration::from_millis(200),
            retry: RetryPolicy::default(),
            faults: FaultPlan::default(),
        }
    }
}

/// What one worker run did, for diagnostics and the fleet bench.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct WorkerSummary {
    /// Connection epochs used (1 = never reconnected).
    pub epochs: u64,
    /// Partial snapshots sent (including re-sends).
    pub partials_sent: u64,
    /// Sends the aggregator refused (dedup or corruption).
    pub rejected: u64,
    /// Transport reconnects performed.
    pub reconnects: u64,
    /// Total wall-clock time spent re-establishing the connection.
    pub recovery: Duration,
}

enum SendPlan {
    Send(Vec<u8>),
    Drop,
    Disconnect,
}

/// Apply the armed transport faults to one outbound message. Drop
/// faults model a lossy partial stream, so they apply to the advisory
/// messages (partials, heartbeats) — the terminal `Hello`/`Done`
/// exchanges go through the disconnect/corrupt gates only, both of
/// which have reply-driven retry paths.
fn plan_send(msg: &WorkerMsg, faults: &FaultState) -> SendPlan {
    if faults.take_disconnect() {
        return SendPlan::Disconnect;
    }
    let droppable = matches!(msg, WorkerMsg::Partial { .. } | WorkerMsg::Heartbeat { .. });
    if droppable && faults.take_frame_drop() {
        return SendPlan::Drop;
    }
    if let Some(delay) = faults.frame_delay() {
        std::thread::sleep(delay);
    }
    let mut frame = msg.encode();
    if faults.take_frame_corrupt() {
        // Flip one bit mid-frame: the length prefix stays intact so
        // framing survives, but the frame's CRC trailer must catch it.
        let at = frame.len() / 2;
        frame[at] ^= 0x40;
    }
    SendPlan::Send(frame)
}

struct WorkerLink<'a> {
    addr: String,
    spec: &'a CampaignSpec,
    cfg: &'a WorkerConfig,
    members: usize,
    stream: Option<TcpStream>,
    epoch: u64,
    seq: u64,
    summary: WorkerSummary,
}

impl WorkerLink<'_> {
    fn hello(&self) -> WorkerMsg {
        WorkerMsg::Hello {
            member: self.cfg.member as u32,
            members: self.members as u32,
            epoch: self.epoch,
            fingerprint: identity_hash(self.spec),
            mode: self.spec.mode,
        }
    }

    /// Connect and complete the hello exchange once.
    fn connect_once(&mut self) -> Result<(), FleetError> {
        let mut stream = TcpStream::connect(&self.addr).map_err(ProtoError::from)?;
        write_frame(&mut stream, &self.hello().encode())?;
        match AggregatorMsg::decode(&read_frame(&mut stream)?)? {
            AggregatorMsg::Welcome => {
                self.stream = Some(stream);
                Ok(())
            }
            AggregatorMsg::Reject { reason } => Err(FleetError::Rejected(reason)),
            AggregatorMsg::Ack { .. } => Err(FleetError::Proto(ProtoError::UnknownMessage)),
        }
    }

    /// (Re)establish the connection under the retry policy. A typed
    /// rejection is terminal; transport errors back off and retry.
    fn connect(&mut self) -> Result<(), FleetError> {
        let t0 = Instant::now();
        let first = self.summary.epochs == 0;
        if !first {
            self.epoch += 1;
            self.summary.reconnects += 1;
        }
        self.summary.epochs = self.summary.epochs.max(self.epoch);
        let mut attempt = 1u32;
        loop {
            match self.connect_once() {
                Ok(()) => {
                    if !first {
                        self.summary.recovery += t0.elapsed();
                    }
                    return Ok(());
                }
                Err(e @ FleetError::Rejected(_)) => return Err(e),
                Err(e) => {
                    if !self.cfg.retry.should_retry(attempt) {
                        return Err(e);
                    }
                    std::thread::sleep(self.cfg.retry.delay(attempt, self.cfg.member as u64));
                    attempt += 1;
                }
            }
        }
    }

    /// Send one message (fault gates applied) and consume the reply.
    /// Transport failures reconnect under the retry policy and report
    /// `Ok(false)` so the caller may re-send under a fresh epoch.
    fn send(&mut self, msg: &WorkerMsg, faults: &FaultState) -> Result<bool, FleetError> {
        let Some(stream) = self.stream.as_mut() else {
            self.connect()?;
            return Ok(false);
        };
        match plan_send(msg, faults) {
            SendPlan::Drop => Ok(true),
            SendPlan::Disconnect => {
                self.stream = None;
                self.connect()?;
                Ok(false)
            }
            SendPlan::Send(frame) => {
                let sent = write_frame(stream, &frame)
                    .and_then(|()| read_frame(stream))
                    .and_then(|reply| AggregatorMsg::decode(&reply));
                match sent {
                    Ok(AggregatorMsg::Ack { accepted, .. }) => {
                        if !accepted {
                            self.summary.rejected += 1;
                        }
                        Ok(true)
                    }
                    Ok(AggregatorMsg::Reject { .. }) => {
                        self.summary.rejected += 1;
                        Ok(true)
                    }
                    Ok(AggregatorMsg::Welcome) => Ok(true),
                    Err(_) => {
                        self.stream = None;
                        self.connect()?;
                        Ok(false)
                    }
                }
            }
        }
    }

    fn next_seq(&mut self) -> u64 {
        self.seq += 1;
        self.seq
    }
}

/// Run one fleet member as a worker process: execute its shard
/// campaign, stream partial checkpoint frames and heartbeats to the
/// aggregator at `addr`, survive transport faults by reconnecting
/// under the retry policy, and deliver the final member state.
///
/// # Errors
///
/// [`FleetError::Spec`] for specs that cannot run distributed;
/// [`FleetError::Rejected`] when the aggregator refuses the worker;
/// [`FleetError::Proto`] when the transport fails beyond the retry
/// budget; [`FleetError::WorkerPanicked`] when the campaign dies.
pub fn run_worker(
    addr: impl ToSocketAddrs + core::fmt::Display,
    spec: &CampaignSpec,
    cfg: &WorkerConfig,
) -> Result<WorkerSummary, FleetError> {
    let (members, member) = (distributed_members(spec)?, cfg.member);
    if member >= members {
        return Err(FleetError::Spec(format!("member {member} out of range (fleet of {members})")));
    }
    let faults = cfg.faults.armed();
    let mut link = WorkerLink {
        addr: addr.to_string(),
        spec,
        cfg,
        members,
        stream: None,
        epoch: 1,
        seq: 0,
        summary: WorkerSummary::default(),
    };
    link.connect()?;

    // The campaign runs on its own thread; the network loop owns the
    // socket and tails the checkpoint file for partials.
    let ckpt_path = cfg.workdir.join("shard-000.ckpt");
    let campaign_spec = spec.clone();
    let campaign_dir = cfg.workdir.clone();
    let handle =
        std::thread::spawn(move || member_state(&campaign_spec, member, Some(&campaign_dir)));

    let mut last_partial: Vec<u8> = Vec::new();
    let mut last_heartbeat = Instant::now();
    loop {
        if handle.is_finished() {
            break;
        }
        if let Ok(bytes) = std::fs::read(&ckpt_path) {
            // Only ship frames that changed and decode cleanly — a
            // torn read (impossible under the atomic rename, but
            // cheap to guard) must never hit the wire.
            if bytes != last_partial && decode_frame(&bytes).is_ok() {
                loop {
                    let msg = WorkerMsg::Partial {
                        member: cfg.member as u32,
                        epoch: link.epoch,
                        seq: link.next_seq(),
                        frame: bytes.clone(),
                    };
                    // Not delivered means reconnected: re-send under the
                    // fresh epoch (at-least-once; the dedup gate absorbs it).
                    if link.send(&msg, &faults)? {
                        break;
                    }
                }
                link.summary.partials_sent += 1;
                last_partial = bytes;
            }
        }
        if last_heartbeat.elapsed() >= cfg.heartbeat_interval {
            let msg = WorkerMsg::Heartbeat { member: cfg.member as u32, epoch: link.epoch };
            link.send(&msg, &faults)?;
            last_heartbeat = Instant::now();
        }
        std::thread::sleep(Duration::from_millis(10));
    }

    let state = match handle.join() {
        Ok(Ok(state)) => state,
        Ok(Err(e)) => return Err(e),
        Err(panic) => return Err(FleetError::WorkerPanicked(panic_message(&*panic))),
    };
    loop {
        let rejected_before = link.summary.rejected;
        let msg = WorkerMsg::Done {
            member: cfg.member as u32,
            epoch: link.epoch,
            seq: link.next_seq(),
            state: state.clone(),
        };
        // Delivered and not refused (a corrupt-fault hit comes back as
        // a counted rejection) — anything else re-sends under a fresh
        // stamp. A benign duplicate-Done refusal also re-sends once
        // more, which the gate then refuses again harmlessly, but the
        // first acceptance has already landed by then.
        if link.send(&msg, &faults)? && link.summary.rejected == rejected_before {
            break;
        }
    }
    Ok(link.summary)
}

// ---------------------------------------------------------------------------
// Aggregator
// ---------------------------------------------------------------------------

/// Aggregator deadlines.
#[derive(Debug, Clone, Copy)]
pub struct AggregatorConfig {
    /// A connected member that stays silent this long is demoted to
    /// [`ShardHealth::Failed`].
    pub heartbeat_timeout: Duration,
    /// A member that never says hello within this window is demoted.
    pub join_timeout: Duration,
    /// Once the first member finishes, the rest must finish within
    /// this window or be demoted.
    pub straggler_timeout: Duration,
}

impl Default for AggregatorConfig {
    /// 5 s heartbeat deadline, 30 s join window, 60 s straggler
    /// timeout — generous for local process fleets, bounded for CI.
    fn default() -> Self {
        Self {
            heartbeat_timeout: Duration::from_secs(5),
            join_timeout: Duration::from_secs(30),
            straggler_timeout: Duration::from_secs(60),
        }
    }
}

/// Aggregate transport statistics for the final summary and the fleet
/// bench.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AggregateStats {
    /// Partial snapshots admitted by the dedup gate.
    pub partials_accepted: u64,
    /// Stamps the dedup gate refused (duplicates/stale).
    pub partials_rejected: u64,
    /// Frames that failed CRC/decode and were refused.
    pub corrupt_frames: u64,
    /// Transport reconnects observed (epochs beyond each member's
    /// first).
    pub reconnects: u64,
}

#[derive(Debug, Default)]
struct MemberSlot {
    gate: DedupGate,
    max_epoch: u64,
    last_seen: Option<Instant>,
    partials: u64,
    done: Option<MemberFinal>,
    failed: Option<String>,
}

impl MemberSlot {
    fn terminal(&self) -> bool {
        self.done.is_some() || self.failed.is_some()
    }
}

struct Shared {
    fingerprint: u64,
    members: usize,
    mode: AnalysisMode,
    slots: Mutex<Vec<MemberSlot>>,
    partials_accepted: AtomicU64,
    partials_rejected: AtomicU64,
    corrupt_frames: AtomicU64,
    done: AtomicBool,
}

impl Shared {
    /// Apply one decoded worker message, returning the reply.
    fn apply(&self, msg: &WorkerMsg) -> AggregatorMsg {
        let member = match msg {
            WorkerMsg::Hello { member, .. }
            | WorkerMsg::Partial { member, .. }
            | WorkerMsg::Heartbeat { member, .. }
            | WorkerMsg::Done { member, .. } => *member as usize,
        };
        if member >= self.members {
            return AggregatorMsg::Reject {
                reason: format!("member {member} out of range (fleet of {})", self.members),
            };
        }
        let mut slots = self.slots.lock().expect("fleet slots lock");
        let slot = &mut slots[member];
        slot.last_seen = Some(Instant::now());
        match msg {
            WorkerMsg::Hello { members, epoch, fingerprint, mode, .. } => {
                if *members as usize != self.members {
                    return AggregatorMsg::Reject {
                        reason: format!(
                            "worker believes in {members} member(s), aggregator in {}",
                            self.members
                        ),
                    };
                }
                if *fingerprint != self.fingerprint {
                    return AggregatorMsg::Reject {
                        reason: "campaign identity mismatch — workers and aggregator must \
                                 run the same campaign"
                            .into(),
                    };
                }
                if *mode != self.mode {
                    return AggregatorMsg::Reject { reason: "analysis mode mismatch".into() };
                }
                slot.max_epoch = slot.max_epoch.max(*epoch);
                AggregatorMsg::Welcome
            }
            WorkerMsg::Partial { epoch, seq, frame, .. } => {
                if decode_frame(frame).is_err() {
                    self.corrupt_frames.fetch_add(1, Ordering::Relaxed);
                    self.partials_rejected.fetch_add(1, Ordering::Relaxed);
                    return AggregatorMsg::Reject {
                        reason: "partial checkpoint frame failed CRC/decode".into(),
                    };
                }
                slot.max_epoch = slot.max_epoch.max(*epoch);
                if slot.gate.admit(*epoch, *seq) {
                    slot.partials += 1;
                    self.partials_accepted.fetch_add(1, Ordering::Relaxed);
                    AggregatorMsg::Ack { epoch: *epoch, seq: *seq, accepted: true }
                } else {
                    self.partials_rejected.fetch_add(1, Ordering::Relaxed);
                    AggregatorMsg::Ack { epoch: *epoch, seq: *seq, accepted: false }
                }
            }
            WorkerMsg::Heartbeat { epoch, .. } => {
                slot.max_epoch = slot.max_epoch.max(*epoch);
                AggregatorMsg::Ack { epoch: *epoch, seq: 0, accepted: true }
            }
            WorkerMsg::Done { epoch, seq, state, .. } => {
                slot.max_epoch = slot.max_epoch.max(*epoch);
                let admitted = slot.gate.admit(*epoch, *seq);
                if admitted && slot.done.is_none() {
                    slot.done = Some(state.clone());
                    // A delivered final state supersedes any failure
                    // verdict a deadline race may have written.
                    slot.failed = None;
                }
                // Done is idempotent under at-least-once delivery:
                // re-delivery after a lost ack reports success, so the
                // worker stops re-sending.
                AggregatorMsg::Ack { epoch: *epoch, seq: *seq, accepted: slot.done.is_some() }
            }
        }
    }
}

fn handle_worker(mut stream: TcpStream, shared: &Shared) {
    let _ = stream.set_read_timeout(Some(HANDLER_POLL));
    loop {
        if shared.done.load(Ordering::Relaxed) {
            return;
        }
        let frame = match read_frame(&mut stream) {
            Ok(frame) => frame,
            Err(ProtoError::Timeout) => continue,
            Err(_) => return,
        };
        let reply = match WorkerMsg::decode(&frame) {
            Ok(msg) => shared.apply(&msg),
            Err(_) => {
                shared.corrupt_frames.fetch_add(1, Ordering::Relaxed);
                shared.partials_rejected.fetch_add(1, Ordering::Relaxed);
                AggregatorMsg::Reject { reason: "frame failed CRC/decode".into() }
            }
        };
        if write_frame(&mut stream, &reply.encode()).is_err() {
            return;
        }
    }
}

/// The aggregator's complete result.
#[derive(Debug)]
pub struct FleetOutcome {
    /// The merged report (text, analysis bytes, health).
    pub merged: MergedFleet,
    /// Transport statistics.
    pub stats: AggregateStats,
}

/// The `psc aggregate` half: listens for worker connections, enforces
/// the liveness deadlines, and merges the survivors.
pub struct Aggregator {
    listener: TcpListener,
    spec: CampaignSpec,
    cfg: AggregatorConfig,
    members: usize,
}

impl Aggregator {
    /// Bind the listener and validate the spec.
    ///
    /// # Errors
    ///
    /// [`FleetError::Spec`] for specs that cannot run distributed;
    /// [`FleetError::Proto`] when the bind fails.
    pub fn bind(
        addr: impl ToSocketAddrs,
        spec: CampaignSpec,
        cfg: AggregatorConfig,
    ) -> Result<Self, FleetError> {
        let members = distributed_members(&spec)?;
        let listener = TcpListener::bind(addr).map_err(ProtoError::from)?;
        Ok(Self { listener, spec, cfg, members })
    }

    /// The bound address (for port-0 binds in tests).
    ///
    /// # Errors
    ///
    /// [`FleetError::Proto`] if the socket address cannot be read.
    pub fn local_addr(&self) -> Result<SocketAddr, FleetError> {
        Ok(self.listener.local_addr().map_err(ProtoError::from)?)
    }

    /// Accept workers until every member is terminal (done or
    /// demoted), then merge the survivors.
    ///
    /// # Errors
    ///
    /// [`FleetError::NoSurvivors`] when every member failed;
    /// [`FleetError::Checkpoint`] when a survivor's state fails to
    /// decode. Transport faults from workers never error this side —
    /// they are counted and refused per frame.
    ///
    /// # Panics
    ///
    /// Panics if the listener cannot be switched to non-blocking
    /// accept (an OS-level failure).
    pub fn run(self) -> Result<FleetOutcome, FleetError> {
        self.listener.set_nonblocking(true).expect("nonblocking listener");
        let shared = Arc::new(Shared {
            fingerprint: identity_hash(&self.spec),
            members: self.members,
            mode: self.spec.mode,
            slots: Mutex::new((0..self.members).map(|_| MemberSlot::default()).collect()),
            partials_accepted: AtomicU64::new(0),
            partials_rejected: AtomicU64::new(0),
            corrupt_frames: AtomicU64::new(0),
            done: AtomicBool::new(false),
        });
        let start = Instant::now();
        let mut first_done: Option<Instant> = None;
        let mut handlers = Vec::new();
        loop {
            match self.listener.accept() {
                Ok((stream, _)) => {
                    let shared = Arc::clone(&shared);
                    handlers.push(std::thread::spawn(move || handle_worker(stream, &shared)));
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {}
                Err(_) => {}
            }
            {
                let mut slots = shared.slots.lock().expect("fleet slots lock");
                if first_done.is_none() && slots.iter().any(|s| s.done.is_some()) {
                    first_done = Some(Instant::now());
                }
                for slot in slots.iter_mut().filter(|s| !s.terminal()) {
                    match slot.last_seen {
                        None if start.elapsed() > self.cfg.join_timeout => {
                            slot.failed = Some("never connected within the join deadline".into());
                        }
                        Some(seen) if seen.elapsed() > self.cfg.heartbeat_timeout => {
                            slot.failed = Some(format!(
                                "missed the {:?} heartbeat deadline ({} partial snapshot(s) \
                                 received before the silence)",
                                self.cfg.heartbeat_timeout, slot.partials
                            ));
                        }
                        _ => {
                            if let Some(done_at) = first_done {
                                if done_at.elapsed() > self.cfg.straggler_timeout {
                                    slot.failed = Some(format!(
                                        "straggled past the {:?} timeout",
                                        self.cfg.straggler_timeout
                                    ));
                                }
                            }
                        }
                    }
                }
                if slots.iter().all(MemberSlot::terminal) {
                    break;
                }
            }
            std::thread::sleep(Duration::from_millis(20));
        }
        shared.done.store(true, Ordering::Relaxed);
        for handler in handlers {
            let _ = handler.join();
        }

        let slots = std::mem::take(&mut *shared.slots.lock().expect("fleet slots lock"));
        let reconnects: u64 = slots.iter().map(|s| s.max_epoch.saturating_sub(1)).sum();
        let outcomes: Vec<MemberOutcome> = slots
            .into_iter()
            .map(|slot| match slot.done {
                Some(state) => {
                    MemberOutcome::Completed { state, reconnects: slot.max_epoch.saturating_sub(1) }
                }
                None => MemberOutcome::Failed {
                    reason: slot.failed.unwrap_or_else(|| "no final state delivered".into()),
                },
            })
            .collect();
        let merged = merge_survivors(&self.spec, &outcomes)?;
        Ok(FleetOutcome {
            merged,
            stats: AggregateStats {
                partials_accepted: shared.partials_accepted.load(Ordering::Relaxed),
                partials_rejected: shared.partials_rejected.load(Ordering::Relaxed),
                corrupt_frames: shared.corrupt_frames.load(Ordering::Relaxed),
                reconnects,
            },
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use psc_core::rig::Device;

    fn spec(mode: AnalysisMode) -> CampaignSpec {
        CampaignSpec {
            mode,
            device: Device::MacMiniM1,
            kernel: false,
            fleet: true,
            traces: 24,
            shards: 2,
            seed: 0x00D5_C0DE,
            key: *b"fleet-integratio",
            every: 4,
            tune: Default::default(),
            mitigation: None,
            record: None,
            monitor: None,
        }
    }

    #[test]
    fn worker_messages_round_trip() {
        let state = MemberFinal {
            analysis: vec![1, 2, 3],
            monitor: vec![4, 5],
            bus: ChannelStats { accepted: 7, dropped: 1, delivered: 7, high_water: 3 },
            io_errors: 2,
            io_retries: 5,
            health: ShardHealth::Degraded { reason: "lost a batch".into() },
        };
        let msgs = [
            WorkerMsg::Hello {
                member: 1,
                members: 2,
                epoch: 3,
                fingerprint: 0xDEAD_BEEF,
                mode: AnalysisMode::Cpa,
            },
            WorkerMsg::Partial { member: 0, epoch: 1, seq: 9, frame: vec![8; 64] },
            WorkerMsg::Heartbeat { member: 1, epoch: 2 },
            WorkerMsg::Done { member: 0, epoch: 2, seq: 44, state },
        ];
        for msg in msgs {
            assert_eq!(WorkerMsg::decode(&msg.encode()).unwrap(), msg);
        }
    }

    #[test]
    fn aggregator_messages_round_trip() {
        let msgs = [
            AggregatorMsg::Welcome,
            AggregatorMsg::Ack { epoch: 2, seq: 17, accepted: false },
            AggregatorMsg::Reject { reason: "spec fingerprint mismatch".into() },
        ];
        for msg in msgs {
            assert_eq!(AggregatorMsg::decode(&msg.encode()).unwrap(), msg);
        }
    }

    #[test]
    fn dedup_gate_admits_strictly_increasing_stamps() {
        let mut gate = DedupGate::default();
        assert!(gate.admit(1, 1));
        assert!(!gate.admit(1, 1), "exact duplicate refused");
        assert!(gate.admit(1, 2));
        assert!(!gate.admit(1, 1), "stale refused");
        assert!(gate.admit(2, 1), "epoch bump outranks any seq");
        assert!(!gate.admit(1, 99), "old epoch refused regardless of seq");
        assert_eq!(gate.last(), Some((2, 1)));
    }

    #[test]
    fn fingerprint_tracks_spec_content() {
        let a = spec(AnalysisMode::Tvla);
        let mut b = a.clone();
        assert_eq!(identity_hash(&a), identity_hash(&b));
        b.seed ^= 1;
        assert_ne!(identity_hash(&a), identity_hash(&b));
        // Throughput-only settings stay out of the handshake.
        let c = CampaignSpec { every: a.every + 1, ..a.clone() };
        assert_eq!(identity_hash(&a), identity_hash(&c));
    }

    #[test]
    fn distributed_members_refuses_non_fleet_and_adaptive() {
        let mut s = spec(AnalysisMode::Tvla);
        assert_eq!(distributed_members(&s).unwrap(), 2);
        s.fleet = false;
        assert!(matches!(distributed_members(&s), Err(FleetError::Spec(_))));
        let s = spec(AnalysisMode::Adaptive);
        assert!(matches!(distributed_members(&s), Err(FleetError::Spec(_))));
    }

    #[test]
    fn merge_survivors_refuses_an_all_failed_fleet() {
        let s = spec(AnalysisMode::Tvla);
        let outcomes = vec![
            MemberOutcome::Failed { reason: "killed".into() },
            MemberOutcome::Failed { reason: "killed".into() },
        ];
        assert!(matches!(merge_survivors(&s, &outcomes), Err(FleetError::NoSurvivors)));
    }
}
