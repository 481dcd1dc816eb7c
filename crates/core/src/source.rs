//! Pluggable trace sources: where a campaign's observations come from.
//!
//! The [`Campaign`](crate::session::Campaign) driver is source-agnostic —
//! it fans shards across worker threads and pumps each shard's stream of
//! columnar [`EventBlock`]s through online processors (one bus
//! synchronization per block of [`OBS_CHUNK`] observations, not per
//! event). What *produces* those blocks is a [`TraceSource`]:
//!
//! * [`LiveRig`] — one independently seeded simulated [`Rig`] per shard
//!   (collection loops over the allocation-free
//!   [`Rig::observe_windows_with`] path, filling blocks directly);
//! * [`ShardReplay`] — recorded `.psct` shards streamed back through the
//!   telemetry pump, each channel's files in [`REPLAY_CHUNK`]-trace
//!   windows merged into one row per observation (offline replay at O(1)
//!   memory in recording size);
//! * [`Fleet`] — heterogeneous devices, one shard per fleet member, with
//!   per-device reports sum-merged by the session driver.
//!
//! Sources compose orthogonally with every analysis the session runs:
//! streaming TVLA, adaptive early-stop TVLA, streaming CPA, and any
//! analysis run through [`Session::analyze`](crate::session::Session::analyze).

use crate::checkpoint::Identity;
use crate::rig::{Device, Observation, Rig};
use crate::victim::VictimKind;
use psc_sca::codec::{self, LabeledTrace, RecordingReader};
use psc_sca::filter::Detrender;
use psc_sca::tvla::PlaintextClass;
use psc_smc::{MitigationConfig, SmcKey};
use psc_telemetry::block::EventBlock;
use psc_telemetry::event::{ChannelId, SchedEvent, WindowEvent};
use psc_telemetry::faults::{FaultState, RetryPolicy};
use psc_telemetry::replay::{channel_for_label, fill_rows, Lane};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;

/// Plaintexts per [`Rig::observe_windows_with`] call in the collection
/// loops — and hence observations per [`EventBlock`] on the bus: large
/// enough to amortize the batched pipeline and the per-block channel
/// synchronization, small enough that producers keep streaming into the
/// bus at a fine grain.
pub const OBS_CHUNK: usize = 32;

/// Recorded traces streamed per codec read in the windowed replay path,
/// per channel: a replaying worker buffers one window per recorded
/// channel, so its memory stays O(channels × `REPLAY_CHUNK`) regardless
/// of shard file size and a single worker can replay million-trace
/// recordings.
pub const REPLAY_CHUNK: usize = 1024;

/// What one shard of a campaign should produce.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Schedule {
    /// TVLA collection: two passes × three plaintext classes ×
    /// `traces_per_class` windows, class-major (the paper's §3.3 layout).
    Tvla {
        /// Windows per class per pass on this shard.
        traces_per_class: usize,
    },
    /// Known-plaintext CPA collection: `traces` fresh random plaintexts.
    KnownPlaintext {
        /// Windows on this shard.
        traces: usize,
    },
    /// Adaptive TVLA: trace-major rounds (one window per class per pass
    /// each round, interleaved so fixed-vs-fixed evidence accrues from the
    /// first round), polling the stop flag between rounds.
    AdaptiveRounds {
        /// Round budget on this shard.
        max_rounds: usize,
    },
}

/// Per-shard producer journal shared with the consumer thread: the
/// attacker-RNG stream position after each emitted block (stamped into
/// checkpoint frames and asserted on resume) and degradation notes that
/// must outlive a stopped producer — the session folds them into
/// [`ShardHealth`](crate::session::ShardHealth).
#[derive(Debug, Default)]
pub struct ShardLog {
    track_offsets: bool,
    offsets: Mutex<Vec<u64>>,
    notes: Mutex<Vec<String>>,
}

impl ShardLog {
    /// A fresh journal; enable `track_offsets` only when the campaign
    /// checkpoints (the offset journal grows with block count).
    #[must_use]
    pub fn new(track_offsets: bool) -> Self {
        Self { track_offsets, ..Self::default() }
    }

    /// Record the RNG stream position after one emitted block (no-op
    /// unless offset tracking is on). Producers call this *before*
    /// handing the block to the bus, so the consumer can never see a
    /// block whose offset has not been journaled yet.
    pub fn push_offset(&self, words: u64) {
        if self.track_offsets {
            self.offsets.lock().expect("shard log lock").push(words);
        }
    }

    /// The journaled RNG position after local block `block` (0-based);
    /// `None` for sources that do not log offsets (replay) or when
    /// tracking is off.
    #[must_use]
    pub fn offset_after(&self, block: u64) -> Option<u64> {
        usize::try_from(block)
            .ok()
            .and_then(|i| self.offsets.lock().expect("shard log lock").get(i).copied())
    }

    /// Note a degradation event (retries exhausted, replay read failure,
    /// checkpoint write failure) for the merge layer to surface.
    pub fn push_note(&self, note: impl Into<String>) {
        self.notes.lock().expect("shard log lock").push(note.into());
    }

    /// Drain the recorded notes.
    #[must_use]
    pub fn take_notes(&self) -> Vec<String> {
        std::mem::take(&mut *self.notes.lock().expect("shard log lock"))
    }
}

/// Everything a source needs to produce one shard's slice of a campaign.
#[derive(Debug, Clone, Copy)]
pub struct ShardPlan<'a> {
    /// Shard index (also the seed offset for sources that build rigs).
    pub shard: usize,
    /// SMC keys to read per observation, in request order.
    pub keys: &'a [SmcKey],
    /// Countermeasure to install, if the spec set one explicitly.
    /// Rig-backed sources build each shard's rig with it, or with no
    /// mitigation when `None`; [`ShardReplay`] reproduces the recorded
    /// condition either way.
    pub mitigation: Option<MitigationConfig>,
    /// The collection schedule.
    pub schedule: Schedule,
    /// Observations already consumed by a resumed campaign: the source
    /// re-simulates (rig-backed) or skips (replay) this prefix without
    /// emitting it, leaving its state bit-identical to the original run
    /// at that point. Always a whole number of producer chunks —
    /// checkpoints are taken at block boundaries.
    pub skip_obs: u64,
    /// The checkpointed attacker-RNG stream position (in ChaCha words)
    /// at `skip_obs`, asserted after the fast-forward as an integrity
    /// cross-check. `None` for sources without a journaled RNG.
    pub resume_rng_offset: Option<u64>,
    /// Retry policy for transient source fill errors.
    pub retry: RetryPolicy,
    /// Armed fault-injection state, if the campaign injects faults.
    pub faults: Option<&'a FaultState>,
    /// The shard's journal for RNG offsets and degradation notes.
    pub log: Option<&'a ShardLog>,
    /// Observations per emitted [`EventBlock`] (default [`OBS_CHUNK`];
    /// see [`crate::tune`]). Checkpoints are taken at block boundaries,
    /// so a resumed campaign must use the chunk size it was recorded
    /// with — the campaign [`Identity`] pins it.
    pub obs_chunk: usize,
    /// Recorded traces per codec read and channel in the replay path (default
    /// [`REPLAY_CHUNK`]; see [`crate::tune`]).
    pub replay_chunk: usize,
}

/// A pluggable producer of campaign telemetry blocks.
///
/// Implementations run one shard at a time on a dedicated producer
/// thread, filling columnar [`EventBlock`]s exactly as the live rig loop
/// would (one row per observation: window record, per-channel samples in
/// request order plus `PCPU`, sched record) and handing each filled
/// block to `sink`. The sink may *swap* the block for an empty (possibly
/// recycled) one — sources must therefore re-[`reset`](EventBlock::reset)
/// the block before filling the next chunk rather than assume their
/// layout survived. Returns the number of schedule units actually
/// produced (trace rounds for [`Schedule::AdaptiveRounds`], traces or
/// traces-per-class otherwise).
pub trait TraceSource: Send + Sync {
    /// How many shards this source will run given the spec's request.
    /// Sources with inherent structure (fleet members, recorded shard
    /// groups) override this; live sources take the request as-is.
    fn shard_count(&self, requested: usize) -> usize {
        requested
    }

    /// Produce shard `plan.shard`'s observation blocks into `sink`,
    /// honouring `stop` at chunk boundaries.
    fn run_shard(
        &self,
        plan: &ShardPlan<'_>,
        sink: &mut dyn FnMut(&mut EventBlock),
        stop: &AtomicBool,
    ) -> usize;

    /// A short stable tag naming the source family: the default
    /// [`TraceSource::identity`] of a custom source.
    fn fingerprint_tag(&self) -> &'static str {
        "custom"
    }

    /// Append this source's part of the campaign [`Identity`]: whatever
    /// about it can change a result bit or a resume offset, so a
    /// checkpoint taken over one source never resumes over another. The
    /// default is the [`TraceSource::fingerprint_tag`] alone.
    fn identity(&self, id: &mut Identity) {
        id.push("source", self.fingerprint_tag());
    }
}

/// The block layout of a rig-backed shard: one column per requested SMC
/// key (request order), then the `PCPU` energy column.
pub(crate) fn rig_channels(keys: &[SmcKey]) -> Vec<ChannelId> {
    keys.iter().map(|&k| ChannelId::Smc(k)).chain([ChannelId::Pcpu]).collect()
}

/// Append one observation to `block` as a columnar row: the window
/// record (with the known-plaintext record), one sample per *readable*
/// SMC key, the PCPU sample, and the scheduler/cadence record (cadence
/// comes straight from [`Observation::windows`]/[`Observation::time_s`]).
/// Denied SMC reads leave their column slot empty and are counted in the
/// sched record — never a panic.
pub(crate) fn push_observation(
    block: &mut EventBlock,
    seq: u64,
    pass: u8,
    class: Option<PlaintextClass>,
    obs: &Observation,
    window_s: f64,
) {
    block.begin(WindowEvent {
        seq,
        time_s: obs.time_s,
        pass,
        class,
        plaintext: obs.plaintext,
        ciphertext: obs.ciphertext,
    });
    let mut denied: u32 = 0;
    for (col, (_key, value)) in obs.smc.iter().enumerate() {
        match value {
            Some(v) => block.sample(col, *v),
            None => denied += 1,
        }
    }
    block.sample(obs.smc.len(), obs.pcpu_delta_mj);
    block.commit(SchedEvent {
        time_s: obs.time_s,
        windows_consumed: obs.windows.max(1),
        window_s,
        denied_reads: denied,
    });
}

/// Fault-injection gate run before each source chunk fill: takes one of
/// the plan's injected transient source errors (if armed) and retries it
/// under the plan's [`RetryPolicy`]. `Ok(())` means produce the chunk;
/// `Err(())` means retries were exhausted — the shard notes the failure
/// and degrades (stops producing) instead of panicking.
fn fill_gate(plan: &ShardPlan<'_>, salt: u64) -> Result<(), ()> {
    let Some(faults) = plan.faults else { return Ok(()) };
    if let Some(delay) = faults.source_delay() {
        std::thread::sleep(delay);
    }
    let mut attempt = 1u32;
    while faults.take_source_error(plan.shard) {
        if !plan.retry.should_retry(attempt) {
            if let Some(log) = plan.log {
                log.push_note(format!(
                    "source fill error persisted through {attempt} attempt(s); shard stopped early"
                ));
            }
            return Err(());
        }
        std::thread::sleep(plan.retry.delay(attempt, (plan.shard as u64) ^ salt));
        attempt += 1;
    }
    Ok(())
}

/// Cross-check a completed resume fast-forward against the checkpointed
/// attacker-RNG stream position.
///
/// # Panics
///
/// Panics when the re-simulated prefix left the RNG somewhere else than
/// the checkpoint recorded — resuming from there would silently diverge
/// from the interrupted run.
fn check_resume_offset(rig: &Rig, plan: &ShardPlan<'_>) {
    if let Some(expected) = plan.resume_rng_offset {
        let actual = rig.attacker_rng.word_offset();
        assert_eq!(
            actual, expected,
            "resume fast-forward diverged from the checkpointed RNG stream position"
        );
    }
}

/// When a resumed shard still has `skip` observations of prefix left,
/// re-simulate this chunk without emitting it: the rig (SoC, SMC,
/// IOReport and attacker RNG) advances bit-identically to the original
/// run; the consumer just never sees the block again. Returns `true`
/// when the chunk was swallowed by the prefix.
///
/// # Panics
///
/// Panics when the skip prefix is not a whole number of producer chunks
/// (checkpoints are only taken at block boundaries, so a misaligned
/// offset means the checkpoint does not belong to this schedule).
fn fast_forward(rig: &mut Rig, plan: &ShardPlan<'_>, pts: &[[u8; 16]], skip: &mut u64) -> bool {
    if *skip == 0 {
        return false;
    }
    let take = pts.len() as u64;
    assert!(
        *skip >= take,
        "resume offset is not on a producer block boundary (skip {skip} < chunk {take})"
    );
    rig.observe_windows_with(pts, plan.keys, |_| {});
    *skip -= take;
    if *skip == 0 {
        check_resume_offset(rig, plan);
    }
    true
}

/// Record the attacker-RNG stream position after producing one block so
/// the consumer can stamp it into that block's checkpoint frame.
fn log_offset(rig: &Rig, plan: &ShardPlan<'_>) {
    if let Some(log) = plan.log {
        log.push_offset(rig.attacker_rng.word_offset());
    }
}

/// Drive one rig through a schedule, filling one block per observation
/// chunk. Shared by every rig-backed source so live and fleet shards
/// produce bit-identical streams for the same rig state. The
/// inner loop is allocation-free in steady state: plaintexts, the block
/// and the observation staging buffer are all reused
/// ([`Rig::observe_windows_with`]). The stop flag is honoured at chunk
/// boundaries; a resumed plan's `skip_obs` prefix is re-simulated
/// without emission (see [`fast_forward`]).
fn drive_rig(
    rig: &mut Rig,
    plan: &ShardPlan<'_>,
    sink: &mut dyn FnMut(&mut EventBlock),
    stop: &AtomicBool,
) -> usize {
    let keys = plan.keys;
    let channels = rig_channels(keys);
    let window_s = rig.window_s();
    let mut block = EventBlock::new();
    let mut seq = 0u64;
    let mut skip = plan.skip_obs;
    match plan.schedule {
        Schedule::Tvla { traces_per_class } => {
            let mut pts: Vec<[u8; 16]> = Vec::with_capacity(plan.obs_chunk);
            'schedule: for pass in 0..2u8 {
                for class in PlaintextClass::ALL {
                    let mut remaining = traces_per_class;
                    while remaining > 0 {
                        if stop.load(Ordering::Relaxed) {
                            break 'schedule;
                        }
                        if fill_gate(plan, seq).is_err() {
                            break 'schedule;
                        }
                        let take = remaining.min(plan.obs_chunk);
                        pts.clear();
                        pts.extend((0..take).map(|_| {
                            class.fixed_plaintext().unwrap_or_else(|| rig.random_plaintext())
                        }));
                        if fast_forward(rig, plan, &pts, &mut skip) {
                            seq += take as u64;
                            remaining -= take;
                            continue;
                        }
                        block.reset(&channels);
                        rig.observe_windows_with(&pts, keys, |obs| {
                            push_observation(&mut block, seq, pass, Some(class), obs, window_s);
                            seq += 1;
                        });
                        log_offset(rig, plan);
                        sink(&mut block);
                        remaining -= take;
                    }
                }
            }
            traces_per_class
        }
        Schedule::KnownPlaintext { traces } => {
            let mut pts: Vec<[u8; 16]> = Vec::with_capacity(plan.obs_chunk);
            let mut remaining = traces;
            while remaining > 0 {
                if stop.load(Ordering::Relaxed) {
                    break;
                }
                if fill_gate(plan, seq).is_err() {
                    break;
                }
                let take = remaining.min(plan.obs_chunk);
                pts.clear();
                pts.extend((0..take).map(|_| rig.random_plaintext()));
                if fast_forward(rig, plan, &pts, &mut skip) {
                    seq += take as u64;
                    remaining -= take;
                    continue;
                }
                block.reset(&channels);
                rig.observe_windows_with(&pts, keys, |obs| {
                    push_observation(&mut block, seq, 0, None, obs, window_s);
                    seq += 1;
                });
                log_offset(rig, plan);
                sink(&mut block);
                remaining -= take;
            }
            traces
        }
        Schedule::AdaptiveRounds { max_rounds } => {
            let mut rounds = 0usize;
            let mut pts: Vec<[u8; 16]> = Vec::with_capacity(6);
            let mut labels: Vec<(u8, PlaintextClass)> = Vec::with_capacity(6);
            for _ in 0..max_rounds {
                if stop.load(Ordering::Relaxed) {
                    break;
                }
                if fill_gate(plan, seq).is_err() {
                    break;
                }
                pts.clear();
                labels.clear();
                for pass in 0..2u8 {
                    for class in PlaintextClass::ALL {
                        pts.push(class.fixed_plaintext().unwrap_or_else(|| rig.random_plaintext()));
                        labels.push((pass, class));
                    }
                }
                // A skipped round still counts as collected: the resumed
                // campaign's round total must equal the uninterrupted
                // run's, prefix included.
                if fast_forward(rig, plan, &pts, &mut skip) {
                    seq += pts.len() as u64;
                    rounds += 1;
                    continue;
                }
                block.reset(&channels);
                let mut row = 0usize;
                rig.observe_windows_with(&pts, keys, |obs| {
                    let (pass, class) = labels[row];
                    push_observation(&mut block, seq, pass, Some(class), obs, window_s);
                    seq += 1;
                    row += 1;
                });
                log_offset(rig, plan);
                sink(&mut block);
                rounds += 1;
            }
            rounds
        }
    }
}

/// The live source: one fresh, independently seeded rig per shard
/// (`seed + shard`, the layout every legacy parallel driver used — shard
/// results are reproducible per seed and merge-equivalent to the batch
/// collectors).
#[derive(Debug, Clone, Copy)]
pub struct LiveRig {
    device: Device,
    kind: VictimKind,
    secret_key: [u8; 16],
    seed: u64,
}

impl LiveRig {
    /// A live source for `device` with a victim of `kind` holding
    /// `secret_key`; shard `i` seeds its rig with `seed + i`.
    #[must_use]
    pub fn new(device: Device, kind: VictimKind, secret_key: [u8; 16], seed: u64) -> Self {
        Self { device, kind, secret_key, seed }
    }
}

impl TraceSource for LiveRig {
    fn run_shard(
        &self,
        plan: &ShardPlan<'_>,
        sink: &mut dyn FnMut(&mut EventBlock),
        stop: &AtomicBool,
    ) -> usize {
        let mut rig = Rig::new(
            self.device,
            self.kind,
            self.secret_key,
            self.seed.wrapping_add(plan.shard as u64),
        );
        rig.set_mitigation(plan.mitigation.unwrap_or_else(MitigationConfig::none));
        drive_rig(&mut rig, plan, sink, stop)
    }

    fn identity(&self, id: &mut Identity) {
        id.push("source", "live");
        id.push("device", self.device);
        id.push("victim", self.kind);
        id.push("key", self.secret_key);
        id.push("seed", self.seed);
    }
}

/// One device of a [`Fleet`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FleetMember {
    /// The simulated device.
    pub device: Device,
    /// Victim flavour installed on it.
    pub kind: VictimKind,
}

/// A heterogeneous device fleet: shard `i` runs on member `i`'s device
/// (seeded `seed + i`), and the session sum-merges the per-device
/// reports — the multi-device campaign of the ROADMAP, built on the same
/// allocation-free [`Rig::observe_windows_with`] inner loop as [`LiveRig`].
#[derive(Debug, Clone)]
pub struct Fleet {
    members: Vec<FleetMember>,
    secret_key: [u8; 16],
    seed: u64,
}

impl Fleet {
    /// A fleet over `members` (one shard each), all attacking the same
    /// victim `secret_key`.
    ///
    /// # Panics
    ///
    /// Panics if `members` is empty.
    #[must_use]
    pub fn new(members: Vec<FleetMember>, secret_key: [u8; 16], seed: u64) -> Self {
        assert!(!members.is_empty(), "a fleet needs at least one member");
        Self { members, secret_key, seed }
    }

    /// The fleet members, in shard order.
    #[must_use]
    pub fn members(&self) -> &[FleetMember] {
        &self.members
    }
}

impl TraceSource for Fleet {
    fn shard_count(&self, _requested: usize) -> usize {
        self.members.len()
    }

    fn run_shard(
        &self,
        plan: &ShardPlan<'_>,
        sink: &mut dyn FnMut(&mut EventBlock),
        stop: &AtomicBool,
    ) -> usize {
        // Member `i` is shard `i` of a live source on its own device.
        let member = self.members[plan.shard];
        LiveRig::new(member.device, member.kind, self.secret_key, self.seed)
            .run_shard(plan, sink, stop)
    }

    fn identity(&self, id: &mut Identity) {
        id.push("source", "fleet");
        id.push("members", &self.members);
        id.push("key", self.secret_key);
        id.push("seed", self.seed);
    }
}

/// One member of a [`Fleet`] run as a standalone single-shard source —
/// the worker half of a distributed fleet campaign. Shard 0 of this
/// source is re-planned as shard `member` of the wrapped fleet, so the
/// rig seed (`seed + member`), device and victim are exactly what the
/// in-process [`Fleet`] would have used for that member: a worker
/// process running `FleetShard::new(fleet, i)` produces a bit-identical
/// event stream to shard `i` of the single-process fleet campaign.
#[derive(Debug, Clone)]
pub struct FleetShard {
    fleet: Fleet,
    member: usize,
}

impl FleetShard {
    /// Member `member` of `fleet` as a single-shard source.
    ///
    /// # Panics
    ///
    /// Panics if `member` is out of range for the fleet.
    #[must_use]
    pub fn new(fleet: Fleet, member: usize) -> Self {
        assert!(member < fleet.members().len(), "fleet member {member} out of range");
        Self { fleet, member }
    }

    /// The wrapped member index.
    #[must_use]
    pub fn member(&self) -> usize {
        self.member
    }
}

impl TraceSource for FleetShard {
    fn shard_count(&self, _requested: usize) -> usize {
        1
    }

    fn run_shard(
        &self,
        plan: &ShardPlan<'_>,
        sink: &mut dyn FnMut(&mut EventBlock),
        stop: &AtomicBool,
    ) -> usize {
        // Re-address the plan at the member's fleet slot; everything
        // else (schedule, keys, mitigation, chunking) passes through.
        let plan = ShardPlan { shard: self.member, ..*plan };
        self.fleet.run_shard(&plan, sink, stop)
    }

    fn identity(&self, id: &mut Identity) {
        self.fleet.identity(id);
        id.push("member", self.member);
    }
}

/// One recorded shard: the `.psct` files replayed (in order) as that
/// shard's event stream.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ReplayShard {
    /// Shard files in replay order.
    pub files: Vec<PathBuf>,
}

/// The offline-replay source: recorded `.psct` shards pumped back through
/// the telemetry pipeline as synthetic events. A shard's channels replay
/// in lockstep, one block row per observation with one column per
/// channel — the live rig's layout (see [`fill_rows`] for the merge
/// rule). The recorded TVLA labels (codec version 2) survive and every
/// channel's samples keep their order, so a replayed campaign rebuilds
/// the same TVLA/CPA state the live run produced; an aligned CPA
/// recording even ships the live run's block count.
///
/// Replay ignores the session's trace budget and mitigation — it replays
/// exactly what was recorded. Unreadable or unmappable files are skipped
/// with accounting (see [`ShardReplay::skipped_files`]), never panicked
/// on; the stop flag is honoured between disk-read rounds.
#[derive(Debug, Default)]
pub struct ShardReplay {
    shards: Vec<ReplayShard>,
    skipped: AtomicU64,
    detrend: Option<usize>,
}

impl ShardReplay {
    /// A replay source over explicit shard file groups.
    #[must_use]
    pub fn new(shards: Vec<ReplayShard>) -> Self {
        Self { shards, skipped: AtomicU64::new(0), detrend: None }
    }

    /// High-pass every channel as it replays: each recorded value loses
    /// its centered moving average over `window` records
    /// ([`Detrender`], bit for bit [`psc_sca::filter::detrend`]). Each
    /// shard's channel detrends on its own, since every shard is an
    /// independent rig with its own drift walk.
    ///
    /// # Panics
    ///
    /// Panics if `window == 0`.
    #[must_use]
    pub fn detrend(mut self, window: usize) -> Self {
        assert!(window > 0, "window must be positive");
        self.detrend = Some(window);
        self
    }

    /// Scan `dir` for `.psct` files and group them into shards by the
    /// `-s{NNN}-` token of the recorder's naming scheme
    /// (`{label}-s{shard:03}-{index:04}.psct`); files without the token
    /// (e.g. a lone single-file recording) land in shard 0. Within a
    /// shard, files are listed in lexicographic name order; replay groups
    /// them by the channel their header names (each channel's slices in
    /// write order) and merges the channels row by row.
    ///
    /// # Errors
    ///
    /// I/O errors reading the directory, or [`std::io::ErrorKind::NotFound`]
    /// if no `.psct` file exists under `dir`.
    pub fn from_dir(dir: impl AsRef<Path>) -> std::io::Result<Self> {
        let dir = dir.as_ref();
        let mut names: Vec<PathBuf> = std::fs::read_dir(dir)?
            .filter_map(Result::ok)
            .map(|e| e.path())
            .filter(|p| p.extension().is_some_and(|ext| ext == "psct"))
            .collect();
        names.sort();
        if names.is_empty() {
            return Err(std::io::Error::new(
                std::io::ErrorKind::NotFound,
                format!("no .psct shards under {}", dir.display()),
            ));
        }
        let mut groups: std::collections::BTreeMap<usize, ReplayShard> = Default::default();
        for path in names {
            let shard = path
                .file_name()
                .and_then(|n| n.to_str())
                .and_then(Self::shard_of_name)
                .unwrap_or(0);
            groups.entry(shard).or_default().files.push(path);
        }
        Ok(Self::new(groups.into_values().collect()))
    }

    fn shard_of_name(name: &str) -> Option<usize> {
        let stem = name.strip_suffix(".psct")?;
        let (rest, _index) = stem.rsplit_once('-')?;
        let (_label, shard) = rest.rsplit_once("-s")?;
        shard.parse().ok()
    }

    /// The shard file groups, in shard order.
    #[must_use]
    pub fn shards(&self) -> &[ReplayShard] {
        &self.shards
    }

    /// Read one channel's recorded traces back in the campaign's trace
    /// order: shards in order, each shard's files in write order. The
    /// TVLA labels are kept. An offline-analysis and test convenience —
    /// unlike replay, it holds the whole channel in memory.
    ///
    /// # Errors
    ///
    /// The first file that cannot be opened or decoded.
    pub fn read_channel(&self, label: &str) -> Result<codec::Recording, codec::CodecError> {
        let mut out = codec::Recording { label: label.to_owned(), traces: Vec::new() };
        for path in self.shards.iter().flat_map(|s| &s.files) {
            if codec::read_label(std::fs::File::open(path)?)? == label {
                out.traces.extend(codec::read_recording(std::fs::File::open(path)?)?.traces);
            }
        }
        Ok(out)
    }

    /// Files flagged so far because they could not be opened, decoded,
    /// or mapped to a telemetry channel — **or** failed mid-stream
    /// (truncation, trailing garbage, a bad class byte). In the
    /// mid-stream case the chunks replayed before the failure stay
    /// replayed and counted in the campaign results; the flag marks the
    /// file as incompletely consumed, not necessarily ignored.
    #[must_use]
    pub fn skipped_files(&self) -> u64 {
        self.skipped.load(Ordering::Relaxed)
    }
}

/// One recorded channel's file chain inside a replaying shard: the
/// reader of the file being streamed, the files still to open (write
/// order) and the lane state the row merge reads.
struct ChannelChain {
    channel: ChannelId,
    current: Option<(PathBuf, RecordingReader<std::fs::File>)>,
    queued: std::collections::VecDeque<PathBuf>,
    /// Head of the unemitted traces in the lane's buffer.
    pos: usize,
    /// No file of the chain has traces left.
    done: bool,
    /// Traces read from the chain so far.
    read: u64,
    /// Traces of this channel placed in finished blocks.
    emitted: u64,
    /// The streaming high-pass stage and its raw-read buffer, when the
    /// replay detrends.
    detrend: Option<(Detrender, Vec<LabeledTrace>)>,
}

impl ShardReplay {
    /// Skip a file the shard cannot use, with accounting.
    fn skip_file(&self, log: Option<&ShardLog>, note: String) {
        self.skipped.fetch_add(1, Ordering::Relaxed);
        if let Some(log) = log {
            log.push_note(note);
        }
    }

    fn open(path: &Path) -> Result<RecordingReader<std::fs::File>, codec::CodecError> {
        std::fs::File::open(path).map_err(codec::CodecError::Io).and_then(RecordingReader::new)
    }

    /// Group a shard's files by the channel their header names, keeping
    /// write order within a channel and first-appearance order across
    /// channels. Unreadable and unmappable files are skipped here. Only
    /// each chain's first reader stays open; later files reopen when the
    /// chain reaches them, so open handles stay O(channels).
    fn chains(&self, files: &[PathBuf], log: Option<&ShardLog>) -> Vec<ChannelChain> {
        let mut chains: Vec<ChannelChain> = Vec::new();
        for path in files {
            let reader = match Self::open(path) {
                Ok(r) => r,
                Err(_) => {
                    self.skip_file(log, format!("cannot open recorded shard {}", path.display()));
                    continue;
                }
            };
            let Some(channel) = channel_for_label(reader.label()) else {
                self.skip_file(
                    log,
                    format!("recorded shard {} has no telemetry channel", path.display()),
                );
                continue;
            };
            match chains.iter_mut().find(|c| c.channel == channel) {
                Some(chain) => chain.queued.push_back(path.clone()),
                None => chains.push(ChannelChain {
                    channel,
                    current: Some((path.clone(), reader)),
                    queued: Default::default(),
                    pos: 0,
                    done: false,
                    read: 0,
                    emitted: 0,
                    detrend: self.detrend.map(|w| (Detrender::new(w), Vec::new())),
                }),
            }
        }
        chains
    }

    /// Read the chain's next window of at most `max` traces into `buf`,
    /// walking on to the chain's next file at each end of file. A file
    /// that fails mid-stream (truncation, trailing garbage, a bad class
    /// byte) is counted as skipped and its failed window dropped; the
    /// windows read before the failure stay replayed. A detrending chain
    /// reads into its own buffer and passes the records its detrender
    /// lets out, draining the detrender at chain end. Marks the chain
    /// done when no file has traces left.
    fn refill(
        &self,
        chain: &mut ChannelChain,
        buf: &mut Vec<LabeledTrace>,
        max: usize,
        log: Option<&ShardLog>,
    ) {
        chain.pos = 0;
        buf.clear();
        loop {
            let Some((path, reader)) = chain.current.as_mut() else {
                let Some(path) = chain.queued.pop_front() else {
                    if let Some((detrender, _)) = &mut chain.detrend {
                        detrender.finish(buf);
                    }
                    chain.read += buf.len() as u64;
                    chain.done = buf.is_empty();
                    return;
                };
                match Self::open(&path) {
                    Ok(reader) => chain.current = Some((path, reader)),
                    Err(_) => self
                        .skip_file(log, format!("cannot open recorded shard {}", path.display())),
                }
                continue;
            };
            let read = match &mut chain.detrend {
                None => reader.read_chunk(max, buf),
                Some((_, raw)) => reader.read_chunk(max, raw),
            };
            match read {
                Ok(0) => chain.current = None,
                Ok(_) => {
                    if let Some((detrender, raw)) = &mut chain.detrend {
                        detrender.push(raw, buf);
                    }
                    if !buf.is_empty() {
                        chain.read += buf.len() as u64;
                        return;
                    }
                }
                Err(_) => {
                    buf.clear();
                    self.skip_file(log, format!("replay of {} failed mid-stream", path.display()));
                    chain.current = None;
                }
            }
        }
    }
}

impl TraceSource for ShardReplay {
    fn shard_count(&self, _requested: usize) -> usize {
        self.shards.len()
    }

    /// Replay one recorded shard as a lockstep merge of its channels:
    /// each channel's file chain streams in `replay_chunk` windows, and
    /// [`fill_rows`] turns the window heads into one block row per
    /// observation. Blocks hold `obs_chunk` rows (the last one fewer), so
    /// the block sequence depends only on the recording — a resumed
    /// shard regenerates its `skip_obs` prefix and drops it. The stop
    /// flag and the fault gate are polled once per disk-read round; a
    /// stopped shard drops its unfinished block.
    fn run_shard(
        &self,
        plan: &ShardPlan<'_>,
        sink: &mut dyn FnMut(&mut EventBlock),
        stop: &AtomicBool,
    ) -> usize {
        let mut chains = self.chains(&self.shards[plan.shard].files, plan.log);
        let channels: Vec<ChannelId> = chains.iter().map(|c| c.channel).collect();
        let mut bufs: Vec<Vec<LabeledTrace>> =
            chains.iter().map(|_| Vec::with_capacity(plan.replay_chunk)).collect();
        let mut block = EventBlock::new();
        block.reset(&channels);
        let mut seq = 0u64;
        let mut skip = plan.skip_obs;
        loop {
            if stop.load(Ordering::Relaxed) || fill_gate(plan, seq).is_err() {
                break;
            }
            for (chain, buf) in chains.iter_mut().zip(&mut bufs) {
                if !chain.done && chain.pos == buf.len() {
                    self.refill(chain, buf, plan.replay_chunk, plan.log);
                }
            }
            let mut lanes: Vec<Lane<'_>> = chains
                .iter()
                .zip(&bufs)
                .map(|(chain, buf)| Lane { pending: &buf[chain.pos..], last: chain.done })
                .collect();
            let finished = loop {
                let room = plan.obs_chunk - block.len();
                seq = fill_rows(&mut lanes, seq, 1.0, &mut block, room);
                let finished = lanes.iter().all(|lane| lane.pending.is_empty() && lane.last);
                // A block ends at `obs_chunk` rows, the shard's last one
                // wherever the recording ends.
                let full = block.len() == plan.obs_chunk || (finished && !block.is_empty());
                if !full {
                    break finished;
                }
                for (chain, lane) in chains.iter_mut().zip(&lanes) {
                    chain.emitted = chain.read - lane.pending.len() as u64;
                }
                let take = block.len() as u64;
                if skip > 0 {
                    // Resume prefix: already consumed by the interrupted
                    // run, regenerate and drop it.
                    assert!(skip >= take, "resume offset is not on a replay block boundary");
                    skip -= take;
                    block.clear();
                } else {
                    sink(&mut block);
                    block.reset(&channels);
                }
            };
            for ((chain, buf), lane) in chains.iter_mut().zip(&bufs).zip(&lanes) {
                chain.pos = buf.len() - lane.pending.len();
            }
            if finished {
                break;
            }
        }
        // Express the result in the schedule's units, matching the live
        // sources' contract: TVLA budgets count per class per pass,
        // adaptive budgets count trace-major rounds.
        let windows = chains.iter().map(|c| c.emitted).max().unwrap_or(0);
        let windows_per_round = 2 * PlaintextClass::ALL.len() as u64;
        let produced = match plan.schedule {
            Schedule::KnownPlaintext { .. } => windows,
            Schedule::Tvla { .. } | Schedule::AdaptiveRounds { .. } => windows / windows_per_round,
        };
        usize::try_from(produced).unwrap_or(usize::MAX)
    }

    /// The recording's file names and lengths by shard, and the detrend
    /// window. `replay-rows` names replay in merged rows: an older frame
    /// that counted per-channel rows (`replay`) resumes at the wrong
    /// offset, so it is refused.
    fn identity(&self, id: &mut Identity) {
        id.push("source", "replay-rows");
        id.push("detrend", self.detrend);
        for (shard, group) in self.shards.iter().enumerate() {
            for path in &group.files {
                let len = std::fs::metadata(path).map(|m| m.len()).ok();
                id.push("file", (shard, path.file_name(), len));
            }
        }
    }
}
