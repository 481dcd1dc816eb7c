//! The unified campaign driver: one builder, every analysis × source.
//!
//! The paper's evaluation is a matrix of campaigns — {TVLA,
//! known-plaintext CPA, adaptive TVLA} × {devices, victims, mitigations,
//! shard counts} — and this module is its single entry point. A
//! [`Campaign`] describes *what* to run (keys, trace budget, shard count,
//! mitigation, early-stop policy, optional recording) over a pluggable
//! [`TraceSource`] (*where* observations come from: live rigs, recorded
//! shards, a device fleet); [`Campaign::session`] freezes
//! the description into a [`Session`] whose typed run methods execute it:
//!
//! ```
//! use psc_core::session::Campaign;
//! use psc_core::{Device, VictimKind};
//! use psc_smc::key::key;
//!
//! let report = Campaign::live(Device::MacbookAirM2, VictimKind::UserSpace, [0x3C; 16], 7)
//!     .keys(&[key("PHPC")])
//!     .traces(16)
//!     .shards(2)
//!     .session()
//!     .tvla();
//! assert!(report.matrix(key("PHPC")).is_some());
//! ```
//!
//! Every shard runs as producer thread (the source) + consumer thread
//! (online processors over a bounded bus of columnar
//! [`EventBlock`]s with `Block` backpressure — one synchronization and
//! one dispatch per block of observations, not per event), and shard
//! accumulators are sum-merged — O(1) memory in trace count on the
//! streaming paths, with results bit-identical to a per-row scalar
//! reference (see `tests/block_equivalence.rs` and
//! `tests/campaign_builder.rs`).
//!
//! ## One runner, one fold
//!
//! Every run method is a thin wrapper over one private runner driven by
//! the [`Analysis`] trait ([`StreamingTvla`] for TVLA and adaptive TVLA,
//! [`StreamingCpa`] for CPA, and any caller-built analysis through
//! [`Session::analyze`] — the paper runners' GE grids ([`CpaGrid`]) and
//! second-order TVLA ([`SecondOrderTvla`])). The runner owns
//! the campaign preamble (fingerprint, resume frames, fault arming,
//! observability, progress, span, stop flag), the fan-out and the single
//! per-block consumer loop, so every analysis gets the same cadence-poll
//! dispatch, recorders, fault hooks, instruments and checkpoints. Shard
//! results then go through [`merge_shards`], the one merge fold, which
//! the distributed fleet aggregator (`psc_serve::fleet`) also uses on
//! its members' decoded state.

use crate::checkpoint::{
    self, CheckpointConfig, ShardResume, ShardSnapshot, KIND_ADAPTIVE, KIND_ANALYSIS, KIND_CPA,
    KIND_TVLA,
};
use crate::rig::Device;
use crate::source::{Fleet, LiveRig, Schedule, ShardLog, ShardPlan, ShardReplay, TraceSource};
use crate::tune::TuneConfig;
use crate::victim::VictimKind;
use psc_sca::checkpoint::{CheckpointError, PayloadReader, PayloadWriter};
use psc_sca::cpa::CpaMergeError;
use psc_sca::model::PowerModel;
use psc_sca::tvla::TvlaMatrix;
use psc_smc::{MitigationConfig, SmcKey};
use psc_telemetry::block::EventBlock;
use psc_telemetry::event::ChannelId;
use psc_telemetry::faults::{FaultPlan, FaultState, RetryPolicy};
use psc_telemetry::metrics::{
    names, Counter, Gauge, Histogram, MetricsHub, MetricsRegistry, MetricsReport, MetricsSnapshot,
};
use psc_telemetry::processor::Processor;
use psc_telemetry::processors::{
    CadenceCheckpoint, CpaGrid, RecorderState, SecondOrderTvla, ShardRecorder, StreamingCpa,
    StreamingTvla, ThrottleMonitor,
};
use psc_telemetry::ring::{channel, ChannelStats, OverflowPolicy, Receiver, Sender};
use psc_telemetry::spans::SpanTracer;
use psc_telemetry::{panic_message, run_sharded_caught, split_counts};
use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Default bounded capacity of each shard's bus, in [`EventBlock`]s
/// (override per campaign via [`Campaign::tune`]). With `Block` overflow
/// this is pure backpressure: a slow consumer throttles its producer
/// instead of growing a queue. At the sources'
/// [`crate::source::OBS_CHUNK`] block size this buffers the same ~4096
/// in-flight observations the historical per-event bus did — but with
/// one ring synchronization per block instead of per event.
pub const BUS_CAPACITY: usize = 128;

/// Minimum samples per fixed class (per shard) before the adaptive
/// early-stop check may fire — guards against a spurious low-count
/// threshold crossing ending a campaign after a handful of traces.
pub const ADAPTIVE_MIN_TRACES: u64 = 24;

/// Traces buffered per recorder shard file when
/// [`Campaign::record_to`] is active.
pub const RECORD_SHARD_CAPACITY: usize = 4096;

/// Default cadence-monitor poll interval (simulated seconds); override
/// with [`Campaign::monitor`].
pub const MONITOR_INTERVAL_S: f64 = 64.0;
/// The shortest cadence-monitor poll interval, in simulated seconds. The
/// monitor polls once per interval of simulated time, so each 1 s
/// observation window costs up to `1 / interval` polls: at most 100 here.
/// Far below it the poll clock's `next += interval` stops moving once the
/// interval drops under `next`·2⁻⁵³, and the run never finishes. The
/// finest grid any caller in this workspace uses is 0.5 s.
pub const MIN_MONITOR_INTERVAL_S: f64 = 0.01;
/// Cadence-monitor retention (checkpoints per shard).
pub const MONITOR_DEPTH: usize = 64;

/// Adaptive early-stop policy: watch one channel's fixed-class separation
/// and halt the fleet at the TVLA threshold crossing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EarlyStop {
    /// The SMC key whose online tracker arms the stop flag.
    pub watch: SmcKey,
    /// Minimum samples per fixed class before the check may fire.
    pub min_per_side: u64,
}

/// The declarative description of one campaign (what [`Campaign`]
/// accumulates and [`Session`] executes).
#[derive(Debug, Clone)]
pub struct SessionSpec {
    /// SMC keys to read per observation, in request order.
    pub keys: Vec<SmcKey>,
    /// Trace budget: per class per shard-sum for TVLA analyses, total
    /// known-plaintext traces for CPA.
    pub traces: usize,
    /// Requested worker count (sources with inherent structure override
    /// it — a fleet runs one shard per member, a replay one per recorded
    /// shard group).
    pub shards: usize,
    /// Countermeasure to install on every shard's SMC stack (`None`: no
    /// mitigation). [`ShardReplay`] cannot honor it — replay reproduces
    /// the recorded condition.
    pub mitigation: Option<MitigationConfig>,
    /// Early-stop policy for [`Session::adaptive_tvla`].
    pub early_stop: Option<EarlyStop>,
    /// When set, every streaming analysis also records each channel's
    /// traces (with TVLA labels) as `.psct` shards under this directory,
    /// ready for [`ShardReplay`].
    pub record_dir: Option<PathBuf>,
    /// Collect pipeline metrics (one [`MetricsRegistry`] per shard,
    /// merged into the report's [`MetricsReport`]). Off by default: the
    /// uninstrumented path allocates no registry and reads no clock.
    pub metrics: bool,
    /// Cadence-monitor poll interval, simulated seconds.
    pub monitor_interval_s: f64,
    /// When set, a progress line (obs/sec, drop rate, ETA) is printed to
    /// stderr roughly every this many wall-clock seconds.
    pub progress_interval_s: Option<f64>,
    /// When set, campaign→shard→stage spans are recorded into this
    /// tracer (see [`SpanTracer::to_chrome_json`]).
    pub tracer: Option<Arc<SpanTracer>>,
    /// Periodic checkpointing: where and how often (see
    /// [`Campaign::checkpoint_to`]).
    pub checkpoint: Option<CheckpointConfig>,
    /// Resume from the per-shard frames under this directory (see
    /// [`Campaign::resume_from`]).
    pub resume_dir: Option<PathBuf>,
    /// Deterministic interrupt: cooperatively stop the campaign after
    /// any shard has written this many checkpoints (see
    /// [`Campaign::halt_after`]).
    pub halt_after: Option<u64>,
    /// Deterministic fault injection (see [`Campaign::faults`]); `None`
    /// costs nothing on the hot paths.
    pub faults: Option<FaultPlan>,
    /// Retry policy for transient source-fill and recorder-write
    /// failures.
    pub retry: RetryPolicy,
    /// Tuned pipeline constants (block sizes, bus depth, CPA unroll);
    /// defaults to the shipped baseline. See [`crate::tune`].
    pub tune: TuneConfig,
    /// External cooperative stop flag: producers halt at the next block
    /// boundary once it reads `true`, the pipeline drains, and the run
    /// returns a partial (checkpointable) report. `None` allocates a
    /// private flag per run — the historical behavior.
    pub stop: Option<Arc<AtomicBool>>,
    /// When set, every per-shard [`MetricsRegistry`] this run allocates
    /// is also attached to the hub for its duration, so an external
    /// observer (the `psc serve` admission controller) can live-merge
    /// this campaign's snapshot with its neighbors'. Implies metric
    /// collection.
    pub metrics_hub: Option<Arc<MetricsHub>>,
}

impl Default for SessionSpec {
    fn default() -> Self {
        Self {
            keys: Vec::new(),
            traces: 0,
            shards: 1,
            mitigation: None,
            early_stop: None,
            record_dir: None,
            metrics: false,
            monitor_interval_s: MONITOR_INTERVAL_S,
            progress_interval_s: None,
            tracer: None,
            checkpoint: None,
            resume_dir: None,
            halt_after: None,
            faults: None,
            retry: RetryPolicy::default(),
            tune: TuneConfig::default(),
            stop: None,
            metrics_hub: None,
        }
    }
}

/// Builder for a campaign over a pluggable [`TraceSource`].
///
/// Construct with one of [`Campaign::live`], [`Campaign::fleet`],
/// [`Campaign::replay`] or [`Campaign::from_source`], chain the spec
/// methods, then [`Campaign::session`] to run. Every source owns what it
/// reads from: a rig-backed source builds each shard's rig itself.
pub struct Campaign {
    spec: SessionSpec,
    source: Box<dyn TraceSource>,
}

impl Campaign {
    /// A campaign over fresh live rigs: shard `i` simulates `device` with
    /// a victim of `kind` holding `secret_key`, seeded `seed + i`.
    #[must_use]
    pub fn live(device: Device, kind: VictimKind, secret_key: [u8; 16], seed: u64) -> Self {
        Self::from_source(LiveRig::new(device, kind, secret_key, seed))
    }

    /// A campaign replaying recorded `.psct` shards (one worker per
    /// recorded shard group; trace budget and mitigation are ignored —
    /// replay reproduces what was recorded).
    #[must_use]
    pub fn replay(replay: ShardReplay) -> Self {
        Self::from_source(replay)
    }

    /// A campaign fanned across a heterogeneous device fleet (one shard
    /// per member; the trace budget splits across members and per-device
    /// reports are sum-merged).
    #[must_use]
    pub fn fleet(fleet: Fleet) -> Self {
        Self::from_source(fleet)
    }

    /// A campaign over any custom source.
    #[must_use]
    pub fn from_source(source: impl TraceSource + 'static) -> Self {
        Self { spec: SessionSpec::default(), source: Box::new(source) }
    }

    /// SMC keys to read per observation.
    #[must_use]
    pub fn keys(mut self, keys: &[SmcKey]) -> Self {
        self.spec.keys = keys.to_vec();
        self
    }

    /// Trace budget (per class for TVLA analyses, total for CPA).
    #[must_use]
    pub fn traces(mut self, traces: usize) -> Self {
        self.spec.traces = traces;
        self
    }

    /// Requested worker count (sources with inherent shard structure
    /// override it).
    #[must_use]
    pub fn shards(mut self, shards: usize) -> Self {
        self.spec.shards = shards;
        self
    }

    /// Install a countermeasure on every shard's SMC stack. Honored by
    /// every rig-backed source (which otherwise runs unmitigated);
    /// [`ShardReplay`] cannot honor it — replay reproduces the recorded
    /// condition.
    #[must_use]
    pub fn mitigation(mut self, mitigation: MitigationConfig) -> Self {
        self.spec.mitigation = Some(mitigation);
        self
    }

    /// Arm adaptive early stopping on `watch`, requiring
    /// [`ADAPTIVE_MIN_TRACES`] samples per fixed class before the tracker
    /// may fire.
    #[must_use]
    pub fn early_stop(mut self, watch: SmcKey) -> Self {
        self.spec.early_stop = Some(EarlyStop { watch, min_per_side: ADAPTIVE_MIN_TRACES });
        self
    }

    /// Record every channel's traces (with TVLA labels) as `.psct` shards
    /// under `dir` while the streaming analyses run.
    #[must_use]
    pub fn record_to(mut self, dir: impl Into<PathBuf>) -> Self {
        self.spec.record_dir = Some(dir.into());
        self
    }

    /// Collect pipeline metrics: bus blocks/observations and drops,
    /// ring high-water marks, recycle hit/miss, source-fill and
    /// per-block dispatch latency histograms, denied reads, recorder
    /// I/O errors. One registry per shard, merged into the report's
    /// [`MetricsReport`] exactly like the analysis accumulators.
    #[must_use]
    pub fn metrics(mut self) -> Self {
        self.spec.metrics = true;
        self
    }

    /// Poll the cadence monitor every `interval_s` simulated seconds
    /// (default [`MONITOR_INTERVAL_S`]). The per-shard
    /// [`CadenceCheckpoint`]s land in the report's `shard_cadence`. This
    /// applies to every run method, adaptive runs included: all of them
    /// share one consumer loop and so one poll grid.
    ///
    /// # Panics
    ///
    /// Panics if `interval_s` is below [`MIN_MONITOR_INTERVAL_S`] or NaN.
    #[must_use]
    pub fn monitor(mut self, interval_s: f64) -> Self {
        assert!(
            interval_s >= MIN_MONITOR_INTERVAL_S,
            "monitor interval must be at least {MIN_MONITOR_INTERVAL_S} s, got {interval_s}"
        );
        self.spec.monitor_interval_s = interval_s;
        self
    }

    /// Print a progress line (observations, obs/sec, drop rate, ETA) to
    /// stderr roughly every `interval_s` wall-clock seconds. Implies
    /// metric collection.
    ///
    /// # Panics
    ///
    /// Panics if `interval_s <= 0`.
    #[must_use]
    pub fn progress(mut self, interval_s: f64) -> Self {
        assert!(interval_s > 0.0, "progress interval must be positive");
        self.spec.progress_interval_s = Some(interval_s);
        self
    }

    /// Record campaign→shard→stage spans into `tracer`; serialize with
    /// [`SpanTracer::to_chrome_json`] after the run.
    #[must_use]
    pub fn tracer(mut self, tracer: Arc<SpanTracer>) -> Self {
        self.spec.tracer = Some(tracer);
        self
    }

    /// Periodically snapshot every shard's full analysis state into
    /// `dir`: one atomic `shard-{i:03}.ckpt` frame per shard, rewritten
    /// every `every_blocks` consumed blocks (analysis accumulators,
    /// cadence monitor, recorder progress, RNG stream position and
    /// consumed-prefix counters). An interrupted campaign then resumes
    /// **bit-identically** with [`Campaign::resume_from`].
    ///
    /// # Panics
    ///
    /// Panics if `every_blocks == 0`.
    #[must_use]
    pub fn checkpoint_to(mut self, dir: impl Into<PathBuf>, every_blocks: u64) -> Self {
        assert!(every_blocks > 0, "checkpoint cadence must be positive");
        self.spec.checkpoint = Some(CheckpointConfig { dir: dir.into(), every_blocks });
        self
    }

    /// Resume an interrupted campaign from the checkpoint frames under
    /// `dir`: consumers restore their accumulators and sources
    /// fast-forward past the consumed prefix (re-simulating it without
    /// emission), so the completed run's report is bit-identical to an
    /// uninterrupted one. Shards without a frame start fresh. Combine
    /// with [`Campaign::checkpoint_to`] to keep checkpointing across
    /// resumes. Every run method honours this.
    #[must_use]
    pub fn resume_from(mut self, dir: impl Into<PathBuf>) -> Self {
        self.spec.resume_dir = Some(dir.into());
        self
    }

    /// Deterministic interrupt: cooperatively stop the campaign after
    /// any shard has written `n` checkpoints — the "interrupt" half of
    /// the interrupt/resume cycle (used by the CI resume smoke test).
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    #[must_use]
    pub fn halt_after(mut self, n: u64) -> Self {
        assert!(n > 0, "halt_after needs at least one checkpoint");
        self.spec.halt_after = Some(n);
        self
    }

    /// Arm deterministic fault injection: transient source errors,
    /// recorder write failures, an injected consumer panic. Costs
    /// nothing when unset; see [`FaultPlan`].
    #[must_use]
    pub fn faults(mut self, plan: FaultPlan) -> Self {
        self.spec.faults = Some(plan);
        self
    }

    /// Retry policy for transient source-fill and recorder-write
    /// failures (default: 3 attempts, exponential backoff with
    /// deterministic jitter).
    #[must_use]
    pub fn retry(mut self, policy: RetryPolicy) -> Self {
        self.spec.retry = policy;
        self
    }

    /// Install tuned pipeline constants (from [`crate::tune::calibrate`]
    /// or a cached [`TuneConfig`] file). Only throughput changes: every
    /// analysis result is bit-identical under any valid config, but a
    /// checkpointed campaign must resume with the `obs_chunk` it was
    /// recorded with (the campaign fingerprint enforces this).
    ///
    /// # Panics
    ///
    /// Panics when the config fails [`TuneConfig::validate`].
    #[must_use]
    pub fn tune(mut self, tune: TuneConfig) -> Self {
        tune.validate().unwrap_or_else(|e| panic!("invalid tune config: {e}"));
        self.spec.tune = tune;
        self
    }

    /// Share a cooperative stop flag with the run: setting it `true`
    /// halts producers at the next block boundary, the pipeline drains,
    /// and the run returns a partial report (checkpointed state, if
    /// [`Campaign::checkpoint_to`] is armed, stays resumable — the
    /// graceful-drain half of `psc serve`'s shutdown).
    #[must_use]
    pub fn stop_flag(mut self, stop: Arc<AtomicBool>) -> Self {
        self.spec.stop = Some(stop);
        self
    }

    /// Attach this run's per-shard metric registries to `hub` for the
    /// campaign's duration, letting an external observer live-merge its
    /// snapshot with other concurrent campaigns (the `psc serve`
    /// admission signal). Implies metric collection.
    #[must_use]
    pub fn metrics_hub(mut self, hub: Arc<MetricsHub>) -> Self {
        self.spec.metrics_hub = Some(hub);
        self
    }

    /// Freeze the description into a runnable [`Session`].
    #[must_use]
    pub fn session(self) -> Session {
        let shards = self.source.shard_count(self.spec.shards);
        Session { spec: self.spec, source: self.source, shards }
    }
}

/// A frozen, runnable campaign. Each `run` method consumes the session
/// and executes the full producer/consumer fan-out for one analysis.
pub struct Session {
    spec: SessionSpec,
    source: Box<dyn TraceSource>,
    shards: usize,
}

/// Health of one campaign shard after the run — the graceful-degradation
/// contract: a fault on one shard never discards the statistics the
/// surviving shards already paid for.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ShardHealth {
    /// Produced and consumed its full schedule.
    Ok,
    /// Completed with losses (retries exhausted, replay read failures,
    /// a producer death, a failed checkpoint write); the statistics it
    /// did accumulate are kept and merged.
    Degraded {
        /// What went wrong, one note per event.
        reason: String,
    },
    /// The consumer died (panic) — its accumulator state is lost and
    /// nothing from this shard is merged.
    Failed {
        /// The panic message, plus any degradation notes.
        reason: String,
    },
}

impl ShardHealth {
    /// Whether the shard completed cleanly.
    #[must_use]
    pub fn is_ok(&self) -> bool {
        matches!(self, ShardHealth::Ok)
    }
}

/// Merged result of a sharded streaming TVLA campaign.
#[derive(Debug)]
pub struct StreamingTvlaReport {
    /// Merged online accumulators (one [`psc_sca::tvla::TvlaAccumulator`]
    /// per channel).
    pub tvla: StreamingTvla,
    /// Merged cadence totals (per-shard checkpoints are not merged —
    /// shard timelines are independent).
    pub monitor: ThrottleMonitor,
    /// Bus counters summed over shards (`high_water` is the max), counted
    /// in [`EventBlock`]s.
    pub bus: ChannelStats,
    /// The requested SMC keys, in request order.
    pub keys: Vec<SmcKey>,
    /// Worker count the campaign ran with.
    pub shards: usize,
    /// Recorder write failures summed over shards (0 when not
    /// recording). Nonzero also warns on stderr at merge time.
    pub io_errors: u64,
    /// The most recent recorder write failure, if any.
    pub recorder_error: Option<String>,
    /// Each shard's retained [`CadenceCheckpoint`]s, in shard order
    /// (empty per shard unless observations flowed; see
    /// [`Campaign::monitor`] for the poll interval).
    pub shard_cadence: Vec<Vec<CadenceCheckpoint>>,
    /// Merged pipeline metrics (`None` unless [`Campaign::metrics`] or
    /// [`Campaign::progress`] was set).
    pub metrics: Option<MetricsReport>,
    /// Per-shard health, in shard order. [`ShardHealth::Failed`] shards
    /// contributed nothing to the merged accumulators.
    pub health: Vec<ShardHealth>,
    /// Human-readable degradation warnings (shard health, bus drops,
    /// recorder failures) — each also printed to stderr at merge time.
    pub warnings: Vec<String>,
    /// Transient recorder write failures that succeeded on retry,
    /// summed over shards (recovered, not lost — contrast `io_errors`).
    pub io_retries: u64,
}

impl StreamingTvlaReport {
    /// The 3×3 matrix for one requested SMC key (`None` if every read on
    /// it was denied).
    #[must_use]
    pub fn matrix(&self, key: SmcKey) -> Option<TvlaMatrix> {
        self.tvla.matrix(ChannelId::Smc(key), key.to_string())
    }

    /// The 3×3 matrix for the IOReport `PCPU` channel.
    #[must_use]
    pub fn pcpu_matrix(&self) -> Option<TvlaMatrix> {
        self.tvla.matrix(ChannelId::Pcpu, "PCPU")
    }
}

/// Result of an adaptive (early-stopping) streaming TVLA campaign.
#[derive(Debug)]
pub struct AdaptiveTvlaReport {
    /// The merged campaign report (same layout as [`Session::tvla`]'s).
    pub report: StreamingTvlaReport,
    /// Whether a shard crossed the TVLA threshold and stopped the fleet
    /// before the trace budget ran out.
    pub stopped_early: bool,
    /// Trace rounds actually collected, summed over shards. One round is
    /// one trace per plaintext class per pass, so this is the effective
    /// `traces_per_class` of the merged report.
    pub rounds_collected: usize,
}

/// Merged result of a sharded streaming known-plaintext CPA campaign.
#[derive(Debug)]
pub struct StreamingCpaReport {
    /// Merged incremental CPA accumulators, one per requested SMC key.
    pub cpa: StreamingCpa,
    /// Merged cadence totals.
    pub monitor: ThrottleMonitor,
    /// Bus counters summed over shards (`high_water` is the max), counted
    /// in [`EventBlock`]s.
    pub bus: ChannelStats,
    /// The requested SMC keys, in request order.
    pub keys: Vec<SmcKey>,
    /// Worker count the campaign ran with.
    pub shards: usize,
    /// Recorder write failures summed over shards (0 when not
    /// recording). Nonzero also warns on stderr at merge time.
    pub io_errors: u64,
    /// The most recent recorder write failure, if any.
    pub recorder_error: Option<String>,
    /// Each shard's retained [`CadenceCheckpoint`]s, in shard order.
    pub shard_cadence: Vec<Vec<CadenceCheckpoint>>,
    /// Merged pipeline metrics (`None` unless [`Campaign::metrics`] or
    /// [`Campaign::progress`] was set).
    pub metrics: Option<MetricsReport>,
    /// Per-shard health, in shard order. [`ShardHealth::Failed`] shards
    /// contributed nothing to the merged accumulators.
    pub health: Vec<ShardHealth>,
    /// Human-readable degradation warnings (shard health, bus drops,
    /// recorder failures) — each also printed to stderr at merge time.
    pub warnings: Vec<String>,
    /// Transient recorder write failures that succeeded on retry,
    /// summed over shards (recovered, not lost — contrast `io_errors`).
    pub io_retries: u64,
}

impl StreamingCpaReport {
    /// Key-byte ranks for `key`'s channel against `true_round_key`.
    #[must_use]
    pub fn ranks(&self, key: SmcKey, true_round_key: &[u8; 16]) -> Option<[usize; 16]> {
        self.cpa.cpa(ChannelId::Smc(key)).map(|c| c.ranks(true_round_key))
    }
}

fn add_stats(a: ChannelStats, b: ChannelStats) -> ChannelStats {
    ChannelStats {
        accepted: a.accepted + b.accepted,
        dropped: a.dropped + b.dropped,
        delivered: a.delivered + b.delivered,
        // Peak occupancy merges like a gauge: the fleet's peak is the
        // worst shard's peak, not a sum over independent buses.
        high_water: a.high_water.max(b.high_water),
    }
}

fn elapsed_ns(since: Instant) -> u64 {
    u64::try_from(since.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Fold one shard's end-of-run condition into the campaign warnings:
/// non-`Ok` health, event blocks shed on the bus (data loss) and recycle
/// blocks shed on the return lane (allocation churn only).
fn shard_warnings(
    warnings: &mut Vec<String>,
    shard: usize,
    health: &ShardHealth,
    stats: &ChannelStats,
    recycle_dropped: u64,
) {
    match health {
        ShardHealth::Ok => {}
        ShardHealth::Degraded { reason } => {
            warnings.push(format!("shard {shard} degraded: {reason}"));
        }
        ShardHealth::Failed { reason } => {
            warnings
                .push(format!("shard {shard} failed and was excluded from the merge: {reason}"));
        }
    }
    if stats.dropped > 0 {
        warnings
            .push(format!("shard {shard}: {} event block(s) dropped on the bus", stats.dropped));
    }
    if recycle_dropped > 0 {
        warnings.push(format!(
            "shard {shard}: {recycle_dropped} recycle block(s) dropped \
             (allocation churn, no data loss)"
        ));
    }
}

/// A full disk must not masquerade as a successful campaign: recorder
/// write failures that exhausted their retries join the warnings.
fn recorder_warning(warnings: &mut Vec<String>, tally: &RecorderTally) {
    if tally.io_errors > 0 {
        warnings.push(format!(
            "{} recorder I/O error(s) — recorded output is incomplete{}",
            tally.io_errors,
            tally.last_error.as_deref().map(|e| format!(" (last: {e})")).unwrap_or_default()
        ));
    }
}

/// Pre-resolved metric handles for one shard's hot paths: producers and
/// consumers touch these atomics directly, never the registry lock.
/// Every instrumentation point in the driver is gated on
/// `Option<&ShardInstruments>` — with observability off no clock is read
/// and no atomic is touched, so the uninstrumented pipeline is
/// bit-identical to the pre-observability one.
pub(crate) struct ShardInstruments {
    fill_ns: Arc<Histogram>,
    consume_ns: Arc<Histogram>,
    blocks: Arc<Counter>,
    obs: Arc<Counter>,
    recycle_hits: Arc<Counter>,
    recycle_misses: Arc<Counter>,
    denied_reads: Arc<Counter>,
    recorder_io_errors: Arc<Counter>,
    recorder_traces: Arc<Counter>,
    bus_dropped: Arc<Counter>,
    bus_high_water: Arc<Gauge>,
    recycle_dropped: Arc<Counter>,
    units: Arc<Counter>,
}

impl ShardInstruments {
    fn new(registry: &MetricsRegistry) -> Self {
        Self {
            fill_ns: registry.histogram(names::SOURCE_FILL_NS),
            consume_ns: registry.histogram(names::CONSUME_BLOCK_NS),
            blocks: registry.counter(names::BUS_BLOCKS),
            obs: registry.counter(names::BUS_OBS),
            recycle_hits: registry.counter(names::RECYCLE_HITS),
            recycle_misses: registry.counter(names::RECYCLE_MISSES),
            denied_reads: registry.counter(names::DENIED_READS),
            recorder_io_errors: registry.counter(names::RECORDER_IO_ERRORS),
            recorder_traces: registry.counter(names::RECORDER_TRACES),
            bus_dropped: registry.counter(names::BUS_DROPPED),
            bus_high_water: registry.gauge(names::BUS_HIGH_WATER),
            recycle_dropped: registry.counter(names::RECYCLE_DROPPED),
            units: registry.counter(names::SOURCE_UNITS),
        }
    }

    /// Fold the shard's end-of-run channel stats into the registry
    /// (drops and high-water live in the ring until the bus is drained).
    fn finish(&self, bus: ChannelStats, recycle: ChannelStats, produced: usize) {
        self.bus_dropped.add(bus.dropped);
        self.bus_high_water.set_max(bus.high_water);
        self.recycle_dropped.add(recycle.dropped);
        self.units.add(produced as u64);
    }
}

/// Per-campaign observability state: one registry per shard (merged at
/// the end, and live-merged by the progress thread), plus the campaign
/// start instant for wall-clock rates.
struct Observability {
    registries: Vec<Arc<MetricsRegistry>>,
    started: Instant,
    /// Keeps the registries attached to the spec's [`MetricsHub`] for
    /// exactly the campaign's lifetime (detaches on drop).
    _hub: Option<psc_telemetry::metrics::HubAttachment>,
}

/// The per-shard `registries` merged into one report at `wall_s`.
fn metrics_report(
    registries: &[Arc<MetricsRegistry>],
    wall_s: f64,
    tune: TuneConfig,
) -> MetricsReport {
    MetricsReport {
        wall_s,
        shards: registries.len(),
        simd_backend: pulp::backend_name(),
        obs_chunk: tune.obs_chunk,
        bus_capacity: tune.bus_capacity,
        snapshot: registries
            .iter()
            .map(|r| r.snapshot())
            .fold(MetricsSnapshot::default(), |a, b| a.merged(b)),
    }
}

/// What a shard's recorders left behind (recorders live and die inside
/// the consumer loop; their failure accounting must escape it).
#[derive(Debug, Clone, Default)]
pub struct RecorderTally {
    /// Write failures that exhausted their retries (lost batches).
    pub io_errors: u64,
    /// Transient write failures that succeeded on retry.
    pub io_retries: u64,
    /// Traces recorded.
    pub traces: u64,
    /// The most recent write failure, if any.
    pub last_error: Option<String>,
}

impl RecorderTally {
    fn of(recorders: &[ShardRecorder]) -> Self {
        let mut tally = Self::default();
        for r in recorders {
            tally.io_errors += r.io_errors();
            tally.io_retries += r.io_retries();
            tally.traces += r.traces_recorded();
            if let Some(e) = r.last_error() {
                tally.last_error = Some(e.to_owned());
            }
        }
        tally
    }

    fn absorb(&mut self, other: Self) {
        self.io_errors += other.io_errors;
        self.io_retries += other.io_retries;
        self.traces += other.traces;
        if let Some(e) = other.last_error {
            self.last_error = Some(e);
        }
    }
}

/// One shard's outcome as it leaves the fan-out, and the input to
/// [`merge_shards`]. `out` is `None` exactly when the shard's consumer
/// (or whole worker) panicked — its accumulator state is unrecoverable,
/// but the bus accounting and health survive.
#[derive(Debug)]
pub struct ShardRun<T> {
    /// The consumer's result (`None` for a failed shard).
    pub out: Option<T>,
    /// The shard's bus counters, in [`EventBlock`]s.
    pub stats: ChannelStats,
    /// Schedule units (traces or adaptive rounds) the producer emitted.
    pub produced: usize,
    /// Blocks the recycle lane shed (allocation churn, no data loss).
    pub recycle_dropped: u64,
    /// The shard's end-of-run health.
    pub health: ShardHealth,
}

impl<T> ShardRun<T> {
    /// A shard that left nothing behind but its failure.
    #[must_use]
    pub fn failed(reason: String) -> Self {
        let health = ShardHealth::Failed { reason };
        ShardRun {
            out: None,
            stats: ChannelStats::default(),
            produced: 0,
            recycle_dropped: 0,
            health,
        }
    }
}

/// What one shard's consumer loop hands back.
#[derive(Debug)]
pub struct ShardOutput<A> {
    /// The shard's analysis state.
    pub analysis: A,
    /// The shard's cadence monitor (retained checkpoints and totals).
    pub monitor: ThrottleMonitor,
    /// The shard's recorder accounting.
    pub recorders: RecorderTally,
}

/// One shard's streaming analysis as the campaign runner drives it: a
/// [`Processor`] fed every block, plus the hooks the runner needs for
/// checkpoints, the merge fold and early stop. Each run method hands the
/// runner a builder, so every shard gets a fresh instance.
pub trait Analysis: Processor + Send + Sized {
    /// Serialise the accumulated state into a checkpoint payload.
    fn encode_state(&self, w: &mut PayloadWriter);

    /// Restore state written by [`Analysis::encode_state`] into a freshly
    /// built instance.
    ///
    /// # Errors
    ///
    /// Truncated or incompatible payloads.
    fn restore_state(&mut self, r: &mut PayloadReader<'_>) -> Result<(), CheckpointError>;

    /// Fold the next shard's state into this one (shards fold in order).
    ///
    /// # Errors
    ///
    /// [`CpaMergeError`] when the two sides use different power models.
    fn merge(self, other: Self) -> Result<Self, CpaMergeError>;

    /// Checked after every block: `true` stops the whole campaign early.
    fn should_stop(&self) -> bool {
        false
    }
}

impl Analysis for StreamingTvla {
    fn encode_state(&self, w: &mut PayloadWriter) {
        StreamingTvla::encode_state(self, w);
    }

    fn restore_state(&mut self, r: &mut PayloadReader<'_>) -> Result<(), CheckpointError> {
        StreamingTvla::restore_state(self, r)
    }

    fn merge(self, other: Self) -> Result<Self, CpaMergeError> {
        Ok(self.merged(other))
    }

    /// A watched channel crossed the threshold (never, unless the
    /// adaptive run armed a watch).
    fn should_stop(&self) -> bool {
        self.leakage_detected()
    }
}

impl Analysis for StreamingCpa {
    fn encode_state(&self, w: &mut PayloadWriter) {
        StreamingCpa::encode_state(self, w);
    }

    fn restore_state(&mut self, r: &mut PayloadReader<'_>) -> Result<(), CheckpointError> {
        StreamingCpa::restore_state(self, r)
    }

    fn merge(self, other: Self) -> Result<Self, CpaMergeError> {
        self.merged(other)
    }
}

impl Analysis for SecondOrderTvla {
    fn encode_state(&self, w: &mut PayloadWriter) {
        SecondOrderTvla::encode_state(self, w);
    }

    fn restore_state(&mut self, r: &mut PayloadReader<'_>) -> Result<(), CheckpointError> {
        SecondOrderTvla::restore_state(self, r)
    }

    fn merge(self, other: Self) -> Result<Self, CpaMergeError> {
        Ok(self.merged(other))
    }
}

impl Analysis for CpaGrid {
    fn encode_state(&self, w: &mut PayloadWriter) {
        CpaGrid::encode_state(self, w);
    }

    fn restore_state(&mut self, r: &mut PayloadReader<'_>) -> Result<(), CheckpointError> {
        CpaGrid::restore_state(self, r)
    }

    fn merge(self, other: Self) -> Result<Self, CpaMergeError> {
        self.merged(other)
    }
}

/// The one CPA accumulator factory: an incremental accumulator per `keys`
/// channel under `model_factory`'s model, at the tuned unroll width.
pub(crate) fn cpa_accumulator(
    keys: &[SmcKey],
    model_factory: impl Fn() -> Box<dyn PowerModel>,
    cpa_unroll: usize,
) -> StreamingCpa {
    let mut cpa = StreamingCpa::new(keys.iter().map(|&k| ChannelId::Smc(k)), model_factory);
    cpa.set_unroll(cpa_unroll);
    cpa
}

/// A campaign folded over its shards by [`merge_shards`]: the surviving
/// shards' analysis (`None` when every shard failed) plus the accounting
/// every report carries. Turn it into a typed report with `into_report`.
#[derive(Debug)]
pub struct MergedShards<A> {
    analysis: Option<A>,
    monitor: ThrottleMonitor,
    bus: ChannelStats,
    produced: usize,
    shard_cadence: Vec<Vec<CadenceCheckpoint>>,
    recorders: RecorderTally,
    health: Vec<ShardHealth>,
    warnings: Vec<String>,
}

/// The one merge fold behind every campaign report, in-process and
/// distributed: per-shard warnings, bus stats (sum, peak as max), monitor
/// totals, cadence, recorder tally and health over every shard, and the
/// analysis over the survivors only. The warnings are also printed to
/// stderr — degradation is never silent.
///
/// # Errors
///
/// [`CpaMergeError`] when two shards' analyses use different power
/// models.
pub fn merge_shards<A: Analysis>(
    runs: Vec<ShardRun<ShardOutput<A>>>,
    monitor_interval_s: f64,
) -> Result<MergedShards<A>, CpaMergeError> {
    let mut merged = MergedShards {
        analysis: None,
        monitor: ThrottleMonitor::new(monitor_interval_s, MONITOR_DEPTH),
        bus: ChannelStats::default(),
        produced: 0,
        shard_cadence: Vec::with_capacity(runs.len()),
        recorders: RecorderTally::default(),
        health: Vec::with_capacity(runs.len()),
        warnings: Vec::new(),
    };
    for (i, run) in runs.into_iter().enumerate() {
        shard_warnings(&mut merged.warnings, i, &run.health, &run.stats, run.recycle_dropped);
        match run.out {
            Some(out) => {
                merged.analysis = Some(match merged.analysis.take() {
                    None => out.analysis,
                    Some(acc) => A::merge(acc, out.analysis)?,
                });
                merged.shard_cadence.push(out.monitor.checkpoints().copied().collect());
                merged.monitor = merged.monitor.merged_totals(&out.monitor);
                merged.produced += run.produced;
                merged.recorders.absorb(out.recorders);
            }
            None => merged.shard_cadence.push(Vec::new()),
        }
        merged.bus = add_stats(merged.bus, run.stats);
        merged.health.push(run.health);
    }
    recorder_warning(&mut merged.warnings, &merged.recorders);
    for w in &merged.warnings {
        eprintln!("[psc] warning: {w}");
    }
    Ok(merged)
}

impl<A> MergedShards<A> {
    /// The surviving shards' merged analysis (`None` when every shard
    /// failed).
    #[must_use]
    pub fn into_analysis(self) -> Option<A> {
        self.analysis
    }
}

impl MergedShards<StreamingTvla> {
    /// The TVLA report over `keys` (an empty accumulator set when every
    /// shard failed).
    #[must_use]
    pub fn into_report(
        self,
        keys: Vec<SmcKey>,
        shards: usize,
        metrics: Option<MetricsReport>,
    ) -> StreamingTvlaReport {
        StreamingTvlaReport {
            tvla: self.analysis.unwrap_or_default(),
            monitor: self.monitor,
            bus: self.bus,
            keys,
            shards,
            io_errors: self.recorders.io_errors,
            recorder_error: self.recorders.last_error,
            shard_cadence: self.shard_cadence,
            metrics,
            health: self.health,
            warnings: self.warnings,
            io_retries: self.recorders.io_retries,
        }
    }
}

impl MergedShards<StreamingCpa> {
    /// The CPA report over `keys`.
    ///
    /// # Panics
    ///
    /// Panics when every shard failed: a CPA report has no empty form.
    #[must_use]
    pub fn into_report(
        self,
        keys: Vec<SmcKey>,
        shards: usize,
        metrics: Option<MetricsReport>,
    ) -> StreamingCpaReport {
        StreamingCpaReport {
            cpa: self.analysis.unwrap_or_else(|| {
                panic!("every shard failed — nothing to merge: {:?}", self.warnings)
            }),
            monitor: self.monitor,
            bus: self.bus,
            keys,
            shards,
            io_errors: self.recorders.io_errors,
            recorder_error: self.recorders.last_error,
            shard_cadence: self.shard_cadence,
            metrics,
            health: self.health,
            warnings: self.warnings,
            io_retries: self.recorders.io_retries,
        }
    }
}

/// Every shard's outcome from one runner pass.
struct Runs<A> {
    shards: Vec<ShardRun<ShardOutput<A>>>,
    /// An analysis asked to stop ([`Analysis::should_stop`]) — unlike a
    /// `halt_after` interrupt or an external stop flag.
    stopped_early: bool,
    metrics: Option<MetricsReport>,
}

/// Restore a consumer's analysis/monitor/recorder state from a carried
/// checkpoint (no-op for a fresh shard). Returns the `(consumed_obs,
/// blocks)` base counters of the restored prefix.
///
/// Panics on corrupt state: the frame already passed the container CRC
/// and the campaign fingerprint, so a decode failure here means the file
/// was written by incompatible code — resuming silently would poison the
/// statistics.
fn restore_consumer(
    carried: Option<&ShardResume>,
    analysis: &mut impl Analysis,
    monitor: &mut ThrottleMonitor,
    recorders: &mut [ShardRecorder],
) -> (u64, u64) {
    let Some(c) = carried else { return (0, 0) };
    if let Some(bytes) = &c.analysis {
        let mut r = PayloadReader::new(bytes);
        analysis
            .restore_state(&mut r)
            .and_then(|()| r.finish())
            .unwrap_or_else(|e| panic!("corrupt checkpoint analysis state: {e}"));
    }
    if let Some(bytes) = &c.monitor {
        let mut r = PayloadReader::new(bytes);
        monitor
            .restore_state(&mut r)
            .and_then(|()| r.finish())
            .unwrap_or_else(|e| panic!("corrupt checkpoint monitor state: {e}"));
    }
    if let Some(bytes) = &c.recorders {
        let states = checkpoint::decode_recorders(bytes)
            .unwrap_or_else(|e| panic!("corrupt checkpoint recorder state: {e}"));
        assert_eq!(
            states.len(),
            recorders.len(),
            "checkpointed recorder set differs from the campaign spec"
        );
        for (recorder, state) in recorders.iter_mut().zip(&states) {
            recorder.restore_state(state);
        }
    }
    (c.consumed_obs, c.blocks)
}

/// One shard's periodic snapshot writer (present only when the campaign
/// checkpoints).
struct CheckpointWriter<'a> {
    cfg: &'a CheckpointConfig,
    kind: u8,
    fingerprint: u64,
    shard: usize,
    shard_count: usize,
    writes: u64,
}

impl CheckpointWriter<'_> {
    /// Flush the recorders (so the snapshot's file counts cover every
    /// recorded trace) and atomically rewrite this shard's frame. A
    /// failed write degrades the shard instead of killing it — the
    /// previous frame on disk stays valid.
    #[allow(clippy::too_many_arguments)]
    fn write(
        &mut self,
        consumed_obs: u64,
        blocks: u64,
        rng_offset: Option<u64>,
        analysis: Vec<u8>,
        monitor: Vec<u8>,
        recorders: &mut [ShardRecorder],
        log: &ShardLog,
    ) {
        for recorder in recorders.iter_mut() {
            recorder.flush();
        }
        let recorder_states: Vec<RecorderState> =
            recorders.iter().map(ShardRecorder::checkpoint_state).collect();
        let snapshot = ShardSnapshot {
            kind: self.kind,
            fingerprint: self.fingerprint,
            shard: self.shard,
            shard_count: self.shard_count,
            consumed_obs,
            blocks,
            rng_offset,
            analysis,
            monitor,
            recorders: (!recorder_states.is_empty())
                .then(|| checkpoint::encode_recorders(&recorder_states)),
        };
        if let Err(e) = checkpoint::write_shard(
            &self.cfg.dir,
            self.shard,
            &checkpoint::encode_snapshot(&snapshot),
        ) {
            log.push_note(format!("checkpoint write failed: {e}"));
        }
        self.writes += 1;
    }
}

/// The periodic stderr progress line: a detached thread live-merging the
/// per-shard registries. Joined (via [`ProgressHandle::finish`]) before
/// the campaign report is assembled.
struct ProgressHandle {
    done: Arc<AtomicBool>,
    handle: std::thread::JoinHandle<()>,
}

impl ProgressHandle {
    fn spawn(obs: &Observability, interval_s: f64, expected_obs: u64, tune: TuneConfig) -> Self {
        let registries = obs.registries.clone();
        let started = obs.started;
        let done = Arc::new(AtomicBool::new(false));
        let done_flag = Arc::clone(&done);
        let handle = std::thread::spawn(move || {
            let mut next_s = interval_s;
            while !done_flag.load(Ordering::Relaxed) {
                std::thread::sleep(std::time::Duration::from_millis(25));
                let elapsed_s = started.elapsed().as_secs_f64();
                if elapsed_s < next_s {
                    continue;
                }
                next_s = elapsed_s + interval_s;
                let report = metrics_report(&registries, elapsed_s, tune);
                let observations = report.observations();
                let rate = report.obs_per_s();
                let eta = if expected_obs > observations && rate > 0.0 {
                    format!(", eta {:.0}s", (expected_obs - observations) as f64 / rate)
                } else {
                    String::new()
                };
                eprintln!(
                    "[psc] progress: {observations} obs, {rate:.0} obs/s, drop {:.2}%{eta}",
                    report.drop_rate() * 100.0
                );
            }
        });
        Self { done, handle }
    }

    fn finish(self) {
        self.done.store(true, Ordering::Relaxed);
        let _ = self.handle.join();
    }
}

impl Session {
    /// The frozen campaign description.
    #[must_use]
    pub fn spec(&self) -> &SessionSpec {
        &self.spec
    }

    /// The resolved worker count (after the source's say).
    #[must_use]
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// Per-shard recorders for the requested channels plus PCPU (empty
    /// unless [`Campaign::record_to`] was set), wired to the spec's retry
    /// policy and the armed fault plan.
    fn recorders(&self, shard: usize, faults: Option<&Arc<FaultState>>) -> Vec<ShardRecorder> {
        let Some(dir) = &self.spec.record_dir else { return Vec::new() };
        self.spec
            .keys
            .iter()
            .map(|&k| ChannelId::Smc(k))
            .chain([ChannelId::Pcpu])
            .map(|c| {
                let recorder =
                    ShardRecorder::new(dir, c.to_string(), c, shard, RECORD_SHARD_CAPACITY)
                        .with_retry_policy(self.spec.retry);
                match faults {
                    Some(f) => recorder.with_faults(Arc::clone(f)),
                    None => recorder,
                }
            })
            .collect()
    }

    /// The generic producer/consumer fan-out: one bounded block bus per
    /// shard, the source producing on a scoped thread, `consume` draining
    /// on the shard's worker thread (given the shard's instruments and its
    /// degradation/offset journal). A recycle lane as deep as the bus hands
    /// processed blocks back to the producer, so the steady state moves columnar
    /// batches back and forth without allocating. When observability is
    /// on, the producer side records source-fill latency, block/obs
    /// throughput and recycle hit/miss into the shard's registry, and
    /// stage spans land in the spec's tracer.
    ///
    /// This is also the campaign's fault boundary. A panic anywhere in a
    /// shard — producer, consumer, or the worker scaffolding itself — is
    /// caught here and folded into that shard's [`ShardHealth`] instead
    /// of tearing down the fleet; after a consumer death the bus keeps
    /// draining so the (backpressured) producer can still finish. When
    /// `resume` carries a consumed prefix, producers fast-forward past it
    /// and the shard's bus stats are credited with the prefix blocks (the
    /// re-simulated prefix never touches the bus), so a resumed run's
    /// totals match the uninterrupted run's.
    fn fan_out<T, FS, FC>(
        &self,
        obs: Option<&Observability>,
        stop: &AtomicBool,
        resume: Option<&[ShardResume]>,
        faults: Option<&Arc<FaultState>>,
        schedule_for: FS,
        consume: FC,
    ) -> Vec<ShardRun<T>>
    where
        T: Send,
        FS: Fn(usize) -> Schedule + Sync,
        FC: Fn(
                usize,
                &Receiver<EventBlock>,
                &Sender<EventBlock>,
                Option<&ShardInstruments>,
                &ShardLog,
            ) -> T
            + Sync,
    {
        let source = self.source.as_ref();
        let spec = &self.spec;
        let tracer = self.spec.tracer.as_deref();
        let track_offsets = spec.checkpoint.is_some();
        let plan_faults: Option<&FaultState> = faults.map(Arc::as_ref);
        let runs = run_sharded_caught(self.shards, |i| {
            let (tx, rx) = channel(spec.tune.bus_capacity, OverflowPolicy::Block);
            // The recycle lane holds every block that can be in flight:
            // the source allocates only when the lane is empty, so at most
            // a full bus, the consumer's block and the producer's filled
            // one come back while the source keeps one. Overflow would
            // only deallocate (`DropNewest`).
            let recycle_capacity = spec.tune.bus_capacity + 2;
            let (recycle_tx, recycle_rx) = channel(recycle_capacity, OverflowPolicy::DropNewest);
            let schedule = schedule_for(i);
            let ins = obs.map(|o| ShardInstruments::new(&o.registries[i]));
            let log = ShardLog::new(track_offsets);
            let log_ref = &log;
            let produce_tid = 1 + 2 * i as u64;
            let consume_tid = 2 + 2 * i as u64;
            if let Some(t) = tracer {
                t.name_thread(produce_tid, format!("shard{i} producer"));
                t.name_thread(consume_tid, format!("shard{i} consumer"));
            }
            std::thread::scope(|scope| {
                let ins_ref = ins.as_ref();
                let producer = scope.spawn(move || {
                    let _span =
                        tracer.map(|t| t.span(format!("shard{i}/produce"), "stage", produce_tid));
                    let plan = ShardPlan {
                        shard: i,
                        keys: &spec.keys,
                        mitigation: spec.mitigation,
                        schedule,
                        skip_obs: resume.map_or(0, |r| r[i].consumed_obs),
                        resume_rng_offset: resume.and_then(|r| r[i].rng_offset),
                        retry: spec.retry,
                        faults: plan_faults,
                        log: Some(log_ref),
                        obs_chunk: spec.tune.obs_chunk,
                        replay_chunk: spec.tune.replay_chunk,
                    };
                    // Fill latency is timed sink-to-sink on the producer
                    // thread (send/backpressure wait excluded), so every
                    // TraceSource is covered without per-source hooks.
                    let mut fill_start = ins_ref.map(|_| Instant::now());
                    source.run_shard(
                        &plan,
                        &mut |block| {
                            if let (Some(ins), Some(t0)) = (ins_ref, fill_start) {
                                ins.fill_ns.record(elapsed_ns(t0));
                                ins.blocks.inc();
                                ins.obs.add(block.len() as u64);
                            }
                            // Swap the source's filled block for a
                            // recycled (or fresh) empty one and ship it.
                            let recycled = recycle_rx.try_recv();
                            if let Some(ins) = ins_ref {
                                match recycled {
                                    Some(_) => ins.recycle_hits.inc(),
                                    None => ins.recycle_misses.inc(),
                                }
                            }
                            let filled = std::mem::replace(block, recycled.unwrap_or_default());
                            tx.send(filled).expect("consumer alive");
                            if fill_start.is_some() {
                                fill_start = Some(Instant::now());
                            }
                        },
                        stop,
                    )
                });
                let caught = {
                    let _span =
                        tracer.map(|t| t.span(format!("shard{i}/consume"), "stage", consume_tid));
                    catch_unwind(AssertUnwindSafe(|| consume(i, &rx, &recycle_tx, ins_ref, &log)))
                };
                if caught.is_err() {
                    // Keep draining so the Block-backpressured producer
                    // can finish its schedule (and be joined) even though
                    // this consumer is gone.
                    while rx.recv().is_some() {}
                }
                let mut stats = rx.stats();
                if let Some(r) = resume {
                    // Credit the resumed prefix: those blocks were
                    // consumed before the interrupt and never cross this
                    // run's bus.
                    stats.accepted += r[i].blocks;
                    stats.delivered += r[i].blocks;
                }
                let produced = match producer.join() {
                    Ok(produced) => produced,
                    Err(payload) => {
                        log.push_note(format!("producer panicked: {}", panic_message(&*payload)));
                        0
                    }
                };
                let recycle_stats = recycle_tx.stats();
                if let Some(ins) = ins_ref {
                    ins.finish(stats, recycle_stats, produced);
                }
                let notes = log.take_notes();
                let (out, health) = match caught {
                    Ok(out) if notes.is_empty() => (Some(out), ShardHealth::Ok),
                    Ok(out) => (Some(out), ShardHealth::Degraded { reason: notes.join("; ") }),
                    Err(payload) => {
                        let panicked = format!("consumer panicked: {}", panic_message(&*payload));
                        let reason = [panicked].into_iter().chain(notes).collect::<Vec<_>>();
                        (None, ShardHealth::Failed { reason: reason.join("; ") })
                    }
                };
                ShardRun { out, stats, produced, recycle_dropped: recycle_stats.dropped, health }
            })
        });
        runs.into_iter()
            .enumerate()
            .map(|(i, run)| {
                run.unwrap_or_else(|message| {
                    ShardRun::failed(format!("shard {i} worker panicked: {message}"))
                })
            })
            .collect()
    }

    /// The one campaign runner behind every run method. It owns, once,
    /// the campaign preamble (fingerprint, resume frames, fault arming,
    /// observability, progress thread, campaign span, stop flag), the
    /// [`Session::fan_out`] and the per-block consumer loop: fault check →
    /// timed `on_block` to the analysis, the cadence monitor and the
    /// recorders → [`Analysis::should_stop`] → recycle → periodic
    /// checkpoint and `halt_after`.
    ///
    /// `kind` is the analysis's checkpoint kind (part of the campaign
    /// fingerprint). `obs_per_unit` sizes the progress ETA. `schedule`
    /// turns a shard's count of the trace budget into its source
    /// schedule; `build` turns the shard's slice of the campaign's trace
    /// order (`start..end`, shards in order) into a fresh analysis.
    fn run<A: Analysis>(
        &self,
        kind: u8,
        span: &'static str,
        obs_per_unit: u64,
        schedule: impl Fn(usize) -> Schedule + Sync,
        build: impl Fn(Range<usize>) -> A + Sync,
    ) -> Runs<A> {
        let counts = split_counts(self.spec.traces, self.shards);
        let starts: Vec<usize> = counts
            .iter()
            .scan(0, |start, &n| {
                *start += n;
                Some(*start - n)
            })
            .collect();
        let fingerprint =
            checkpoint::fingerprint(&self.spec, kind, self.source.fingerprint_tag(), self.shards);
        let spec = &self.spec;
        // Every shard's resume frame (shards without one resume fresh). A
        // corrupt or foreign frame panics: resuming over it would silently
        // poison the statistics.
        let resume: Option<Vec<ShardResume>> = spec.resume_dir.as_ref().map(|dir| {
            (0..self.shards)
                .map(|i| {
                    checkpoint::load_shard(dir, i, kind, fingerprint, self.shards)
                        .unwrap_or_else(|e| {
                            panic!("cannot resume shard {i} from {}: {e}", dir.display())
                        })
                        .unwrap_or_default()
                })
                .collect()
        });
        let faults = spec.faults.map(FaultPlan::armed);
        // Per-shard metric registries only when observability is on: the
        // off path allocates nothing and reads no clock.
        let obs =
            (spec.metrics || spec.progress_interval_s.is_some() || spec.metrics_hub.is_some())
                .then(|| {
                    let registries: Vec<_> =
                        (0..self.shards).map(|_| Arc::new(MetricsRegistry::new())).collect();
                    let _hub = spec.metrics_hub.as_ref().map(|hub| hub.attach(registries.clone()));
                    Observability { registries, started: Instant::now(), _hub }
                });
        let progress = spec.progress_interval_s.zip(obs.as_ref()).map(|(interval_s, o)| {
            ProgressHandle::spawn(o, interval_s, spec.traces as u64 * obs_per_unit, spec.tune)
        });
        // The campaign-level span is lane 0 of the trace.
        let span = spec.tracer.as_deref().map(|t| {
            t.name_thread(0, "campaign");
            t.span(span, "campaign", 0)
        });
        let stop = spec.stop.clone().unwrap_or_else(|| Arc::new(AtomicBool::new(false)));
        let stopped_early = AtomicBool::new(false);
        let interval_s = spec.monitor_interval_s;
        let shards = self.fan_out(
            obs.as_ref(),
            &stop,
            resume.as_deref(),
            faults.as_ref(),
            |i| schedule(counts[i]),
            |i, rx, recycle, ins, log| {
                let mut analysis = build(starts[i]..starts[i] + counts[i]);
                let mut monitor = ThrottleMonitor::new(interval_s, MONITOR_DEPTH);
                let mut recorders = self.recorders(i, faults.as_ref());
                let (base_obs, base_blocks) = restore_consumer(
                    resume.as_deref().map(|r| &r[i]),
                    &mut analysis,
                    &mut monitor,
                    &mut recorders,
                );
                let mut writer = spec.checkpoint.as_ref().map(|cfg| CheckpointWriter {
                    cfg,
                    kind,
                    fingerprint,
                    shard: i,
                    shard_count: self.shards,
                    writes: 0,
                });
                let mut local_blocks = 0u64;
                let mut local_obs = 0u64;
                // Blocks end on whole observations (one adaptive round per
                // block), so checking `should_stop` per block matches the
                // producers' between-round stop polling.
                while let Some(block) = rx.recv() {
                    if let Some(f) = &faults {
                        if f.take_consumer_panic(i, local_blocks) {
                            panic!("injected consumer panic at shard {i}, block {local_blocks}");
                        }
                    }
                    let t0 = ins.map(|_| Instant::now());
                    analysis.on_block(&block);
                    monitor.on_block(&block);
                    for recorder in &mut recorders {
                        recorder.on_block(&block);
                    }
                    if let (Some(ins), Some(t0)) = (ins, t0) {
                        ins.consume_ns.record(elapsed_ns(t0));
                    }
                    if !stopped_early.load(Ordering::Relaxed) && analysis.should_stop() {
                        stopped_early.store(true, Ordering::Relaxed);
                        stop.store(true, Ordering::Relaxed);
                    }
                    local_blocks += 1;
                    local_obs += block.len() as u64;
                    let _ = recycle.send(block);
                    if let Some(w) = writer.as_mut() {
                        if local_blocks.is_multiple_of(w.cfg.every_blocks) {
                            let mut aw = PayloadWriter::new();
                            analysis.encode_state(&mut aw);
                            let mut mw = PayloadWriter::new();
                            monitor.encode_state(&mut mw);
                            w.write(
                                base_obs + local_obs,
                                base_blocks + local_blocks,
                                log.offset_after(local_blocks - 1),
                                aw.into_payload(),
                                mw.into_payload(),
                                &mut recorders,
                                log,
                            );
                            if spec.halt_after == Some(w.writes) {
                                stop.store(true, Ordering::Relaxed);
                            }
                        }
                    }
                }
                analysis.on_finish();
                monitor.on_finish();
                for recorder in &mut recorders {
                    recorder.on_finish();
                }
                let tally = RecorderTally::of(&recorders);
                if let Some(ins) = ins {
                    ins.denied_reads.add(monitor.denied_reads());
                    ins.recorder_io_errors.add(tally.io_errors);
                    ins.recorder_traces.add(tally.traces);
                }
                ShardOutput { analysis, monitor, recorders: tally }
            },
        );
        drop(span);
        if let Some(progress) = progress {
            progress.finish();
        }
        Runs {
            shards,
            stopped_early: stopped_early.into_inner(),
            metrics: obs.map(|o| {
                metrics_report(&o.registries, o.started.elapsed().as_secs_f64(), spec.tune)
            }),
        }
    }

    /// [`merge_shards`] under this campaign's monitor interval.
    fn fold<A: Analysis>(&self, shards: Vec<ShardRun<ShardOutput<A>>>) -> MergedShards<A> {
        merge_shards(shards, self.spec.monitor_interval_s).expect("shards share one model factory")
    }

    /// Run a streaming TVLA campaign: each shard collects its slice of
    /// the per-class trace budget, online-accumulated (Welford) and
    /// sum-merged.
    ///
    /// # Panics
    ///
    /// Panics if the resolved shard count is zero.
    #[must_use]
    pub fn tvla(self) -> StreamingTvlaReport {
        // One TVLA trace is 2 passes × 3 classes observations.
        let runs = self.run(
            KIND_TVLA,
            "campaign/tvla",
            6,
            |n| Schedule::Tvla { traces_per_class: n },
            |_| StreamingTvla::new(),
        );
        self.fold(runs.shards).into_report(self.spec.keys.clone(), self.shards, runs.metrics)
    }

    /// Run a TVLA campaign that **stops at the threshold crossing**:
    /// shards stream trace-major rounds while each consumer wires the
    /// early-stop tracker of the spec's [`EarlyStop`] channel into a
    /// shared stop flag; producers poll the flag between rounds, so the
    /// whole fleet halts within one round of any shard detecting leakage.
    /// The trace budget bounds the campaign on channels that never leak.
    ///
    /// # Panics
    ///
    /// Panics if no early-stop policy was configured (see
    /// [`Campaign::early_stop`]) or the resolved shard count is zero.
    #[must_use]
    pub fn adaptive_tvla(self) -> AdaptiveTvlaReport {
        let early =
            self.spec.early_stop.expect("adaptive campaigns need Campaign::early_stop(watch)");
        // Rounds-to-stop is bounded by the budget: one round is 6 obs.
        let runs = self.run(
            KIND_ADAPTIVE,
            "campaign/adaptive_tvla",
            6,
            |n| Schedule::AdaptiveRounds { max_rounds: n },
            |_| {
                let mut tvla = StreamingTvla::new();
                tvla.watch(ChannelId::Smc(early.watch), early.min_per_side);
                tvla
            },
        );
        let merged = self.fold(runs.shards);
        let rounds_collected = merged.produced;
        let report = merged.into_report(self.spec.keys.clone(), self.shards, runs.metrics);
        AdaptiveTvlaReport { report, stopped_early: runs.stopped_early, rounds_collected }
    }

    /// Run a streaming known-plaintext CPA campaign: each shard
    /// correlates its slice of the trace budget into incremental
    /// accumulators under a model from `model_factory` (on the model's
    /// process-wide hypothesis table), sum-merged.
    ///
    /// # Panics
    ///
    /// Panics if the resolved shard count is zero, every shard failed, or
    /// `model_factory` yields inconsistent models across calls.
    #[must_use]
    pub fn cpa(
        self,
        model_factory: impl Fn() -> Box<dyn PowerModel> + Send + Sync,
    ) -> StreamingCpaReport {
        let model_factory = &model_factory;
        let runs = self.run(
            KIND_CPA,
            "campaign/cpa",
            1,
            |n| Schedule::KnownPlaintext { traces: n },
            |_| cpa_accumulator(&self.spec.keys, model_factory, self.spec.tune.cpa_unroll),
        );
        self.fold(runs.shards).into_report(self.spec.keys.clone(), self.shards, runs.metrics)
    }

    /// Run a caller-built streaming analysis over the campaign — the
    /// paper runners' one door to analyses beyond TVLA and CPA reports
    /// (GE grids with [`CpaGrid`], second-order TVLA with
    /// [`SecondOrderTvla`]). `schedule` turns a shard's count of the trace
    /// budget into its source schedule (e.g. `|n| Schedule::Tvla {
    /// traces_per_class: n }`); `build` gets the shard's slice of the
    /// campaign's trace order (`start..end`, shards in order) and returns
    /// a fresh analysis. Shards fold in order through
    /// [`Analysis::merge`]. Checkpoint/resume, recording, faults and
    /// observability work as for every run method.
    ///
    /// # Panics
    ///
    /// Panics if the resolved shard count is zero or two shards'
    /// analyses fail to merge.
    #[must_use]
    pub fn analyze<A: Analysis>(
        self,
        schedule: fn(usize) -> Schedule,
        build: impl Fn(Range<usize>) -> A + Sync,
    ) -> MergedShards<A> {
        let per_unit = match schedule(1) {
            Schedule::KnownPlaintext { .. } => 1,
            _ => 6,
        };
        let runs = self.run(KIND_ANALYSIS, "campaign/analyze", per_unit, schedule, build);
        self.fold(runs.shards)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use psc_sca::model::Rd0Hw;
    use psc_sca::tvla::PlaintextClass;
    use psc_smc::key::key;

    #[test]
    fn sharded_tvla_report_has_full_counts() {
        let report = Campaign::live(Device::MacbookAirM2, VictimKind::UserSpace, [0x3C; 16], 21)
            .keys(&[key("PHPC")])
            .traces(40)
            .shards(4)
            .session()
            .tvla();
        let acc = report.tvla.accumulator(ChannelId::Smc(key("PHPC"))).expect("collected");
        for pass in 0..2 {
            for class in PlaintextClass::ALL {
                assert_eq!(acc.count(pass, class), 40, "split shards must sum to the request");
            }
        }
        assert!(report.matrix(key("PHPC")).is_some());
        assert_eq!(report.pcpu_matrix().expect("pcpu collected").cells.len(), 9);
        assert_eq!(report.bus.dropped, 0, "Block policy never sheds");
        assert_eq!(report.monitor.observations(), 240);
        assert_eq!(report.shards, 4);
    }

    #[test]
    fn sharded_cpa_report_counts_and_ranks_shape() {
        let report = Campaign::live(Device::MacbookAirM2, VictimKind::UserSpace, [0x3C; 16], 5)
            .keys(&[key("PHPC")])
            .traces(120)
            .shards(4)
            .session()
            .cpa(|| Box::new(Rd0Hw));
        let cpa = report.cpa.cpa(ChannelId::Smc(key("PHPC"))).expect("registered");
        assert_eq!(cpa.trace_count(), 120);
        let ranks = report.ranks(key("PHPC"), &[0x3C; 16]).expect("registered");
        for r in ranks {
            assert!((1..=256).contains(&r));
        }
    }

    #[test]
    fn adaptive_campaign_stops_early_on_leaky_channel() {
        let out = Campaign::live(Device::MacbookAirM2, VictimKind::UserSpace, [0x3C; 16], 9)
            .keys(&[key("PHPC")])
            .traces(400)
            .shards(2)
            .early_stop(key("PHPC"))
            .session()
            .adaptive_tvla();
        assert!(out.stopped_early, "PHPC leaks — the tracker must cross 4.5");
        assert!(
            out.rounds_collected < 400,
            "collection must halt before the budget: {} rounds",
            out.rounds_collected
        );
        assert!(out.rounds_collected >= ADAPTIVE_MIN_TRACES as usize / 2, "not spuriously early");
        let matrix = out.report.matrix(key("PHPC")).expect("collected");
        assert_eq!(matrix.cells.len(), 9);
        assert_eq!(out.report.bus.dropped, 0);
    }

    #[test]
    fn adaptive_campaign_exhausts_budget_on_flat_channel() {
        // PHPS publishes the data-blind estimator: never distinguishable.
        let out = Campaign::live(Device::MacbookAirM2, VictimKind::UserSpace, [0x3C; 16], 11)
            .keys(&[key("PHPS")])
            .traces(30)
            .shards(2)
            .early_stop(key("PHPS"))
            .session()
            .adaptive_tvla();
        assert!(!out.stopped_early, "estimator channel must not trip the tracker");
        assert_eq!(out.rounds_collected, 30, "budget fully consumed");
    }

    #[test]
    fn tuned_campaign_is_bit_identical_to_default_constants() {
        // Chunk sizes, bus depth and the CPA unroll width only change
        // throughput: every accumulator still consumes its observations
        // in row order, so a campaign run under any valid TuneConfig must
        // reproduce the default-constant run bit for bit.
        let tuned = crate::tune::TuneConfig {
            cpa_unroll: 2,
            obs_chunk: 16,
            replay_chunk: 512,
            bus_capacity: 32,
        };
        let build = || {
            Campaign::live(Device::MacbookAirM2, VictimKind::UserSpace, [0x3C; 16], 13)
                .keys(&[key("PHPC")])
                .traces(24)
                .shards(2)
        };
        let base = build().session().tvla();
        let tuned_report = build().tune(tuned).session().tvla();
        let a = base.matrix(key("PHPC")).expect("collected");
        let b = tuned_report.matrix(key("PHPC")).expect("collected");
        for (ca, cb) in a.cells.iter().zip(&b.cells) {
            assert_eq!(ca.t_score.to_bits(), cb.t_score.to_bits(), "TVLA cells must match");
        }

        let cpa_build = || {
            Campaign::live(Device::MacbookAirM2, VictimKind::UserSpace, [0x3C; 16], 17)
                .keys(&[key("PHPC")])
                .traces(60)
                .shards(2)
        };
        let base = cpa_build().session().cpa(|| Box::new(Rd0Hw));
        let tuned_report = cpa_build().tune(tuned).session().cpa(|| Box::new(Rd0Hw));
        let a = base.cpa.cpa(ChannelId::Smc(key("PHPC"))).expect("registered");
        let b = tuned_report.cpa.cpa(ChannelId::Smc(key("PHPC"))).expect("registered");
        let mut corr_a = [[0.0f64; 256]; 16];
        let mut corr_b = [[0.0f64; 256]; 16];
        a.correlations_all_into(&mut corr_a);
        b.correlations_all_into(&mut corr_b);
        for (row_a, row_b) in corr_a.iter().zip(&corr_b) {
            for (va, vb) in row_a.iter().zip(row_b) {
                assert_eq!(va.to_bits(), vb.to_bits(), "CPA correlations must match");
            }
        }
    }

    #[test]
    #[should_panic(expected = "invalid tune config")]
    fn invalid_tune_config_is_rejected_at_the_builder() {
        let bad = crate::tune::TuneConfig { cpa_unroll: 3, ..crate::tune::TuneConfig::default() };
        let _ =
            Campaign::live(Device::MacbookAirM2, VictimKind::UserSpace, [0x3C; 16], 1).tune(bad);
    }

    #[test]
    fn mitigated_streaming_campaign_counts_denials() {
        let report = Campaign::live(Device::MacbookAirM2, VictimKind::UserSpace, [0x3C; 16], 7)
            .keys(&[key("PHPC")])
            .traces(6)
            .shards(2)
            .mitigation(MitigationConfig::restrict_access())
            .session()
            .tvla();
        assert!(report.tvla.accumulator(ChannelId::Smc(key("PHPC"))).is_none());
        assert_eq!(report.monitor.denied_reads(), 36, "2 passes x 3 classes x 6 traces");
        assert!(report.pcpu_matrix().is_some(), "PCPU unaffected by SMC access control");
    }
}
