//! Benchmark-side tracing: a live [`TraceSource`] that makes the same
//! public layer calls `Rig::observe_one_into` makes and times each one,
//! plus the helpers that fold campaign metrics into per-layer values.
//!
//! The traced source replaces `Campaign::live` in traced runs. Its
//! report must equal the untraced `Campaign::live` report byte for byte
//! at the same seed; the workloads check that, which proves the traced
//! run measures the same program.

use crate::measure::{ns, Gate};
use apple_power_sca::core::source::{Schedule, ShardPlan};
use apple_power_sca::core::{Device, Rig, TraceSource, VictimKind};
use apple_power_sca::sca::tvla::PlaintextClass;
use apple_power_sca::smc::{MitigationConfig, SmcKey};
use apple_power_sca::soc::WindowBatch;
use apple_power_sca::telemetry::metrics::{names, MetricsReport, MetricsSnapshot};
use apple_power_sca::telemetry::{ChannelId, EventBlock, SchedEvent, WindowEvent};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Accepted band for the summed simulator layer times over the identical
/// rig's `Rig::observe_windows_with` time. Each timed observation pays
/// seven clock reads, so the ratio sits near 1.1; outside the band, timer
/// overhead or missed work would attribute a gain to the wrong layer.
const SIM_SUM_BAND: (f64, f64) = (0.8, 1.5);

/// Accepted band for (source fill + consume time) over (shards × campaign
/// wall time). Below it, the shard wall time holds work neither side
/// measures; above it, producer and consumer overlap more than two
/// threads per shard can.
const COVERAGE_BAND: (f64, f64) = (0.7, 2.0);

/// One observation in this many is timed layer by layer: a clock read
/// costs tens of nanoseconds, so timing every observation would slow a
/// ~4 µs observation by a fifth. Work counts cover every observation.
/// Coprime with the block size, so the timed observations rotate through
/// every position of a block instead of always taking its cold first row.
const SAMPLE_EVERY: u64 = 7;

/// Summed per-layer time (over the timed observations) and work (over
/// all observations) of the simulator.
#[derive(Debug, Default, Clone, Copy)]
pub struct SimLayers {
    /// Observations made.
    pub obs: u64,
    /// Observations timed layer by layer.
    pub timed_obs: u64,
    /// `AesVictim::request_encrypt`.
    pub encrypt_ns: u64,
    /// `smc.read().windows_until_publish`.
    pub until_publish_ns: u64,
    /// `Soc::run_windows_into`.
    pub soc_ns: u64,
    /// SoC windows run.
    pub windows: u64,
    /// `EnergyModelReporter::observe_windows`.
    pub ioreport_ns: u64,
    /// `smc.write().observe_windows`.
    pub publish_ns: u64,
    /// `SmcUserClient::read_key`, all keys.
    pub read_ns: u64,
    /// `read_key` calls.
    pub reads: u64,
    /// `EventBlock::begin/sample/commit`.
    pub block_ns: u64,
}

impl SimLayers {
    /// Add another set of totals into this one.
    pub fn add(&mut self, o: &SimLayers) {
        self.obs += o.obs;
        self.timed_obs += o.timed_obs;
        self.encrypt_ns += o.encrypt_ns;
        self.until_publish_ns += o.until_publish_ns;
        self.soc_ns += o.soc_ns;
        self.windows += o.windows;
        self.ioreport_ns += o.ioreport_ns;
        self.publish_ns += o.publish_ns;
        self.read_ns += o.read_ns;
        self.reads += o.reads;
        self.block_ns += o.block_ns;
    }

    /// Time per timed observation in the layers `Rig::observe_windows_with`
    /// covers.
    pub fn sim_ns_per_obs(&self) -> f64 {
        let sum = self.encrypt_ns
            + self.until_publish_ns
            + self.soc_ns
            + self.ioreport_ns
            + self.publish_ns
            + self.read_ns;
        sum as f64 / self.timed_obs.max(1) as f64
    }

    /// The per-observation layer metrics.
    pub fn per_obs(&self) -> Vec<(&'static str, f64)> {
        let time = |v: u64| v as f64 / self.timed_obs.max(1) as f64;
        let work = |v: u64| v as f64 / self.obs.max(1) as f64;
        vec![
            ("victim.encrypt_ns_per_obs", time(self.encrypt_ns)),
            ("smc.until_publish_ns_per_obs", time(self.until_publish_ns)),
            ("soc.run_windows_ns_per_obs", time(self.soc_ns)),
            ("soc.windows_per_obs", work(self.windows)),
            ("ioreport.observe_ns_per_obs", time(self.ioreport_ns)),
            ("smc.publish_ns_per_obs", time(self.publish_ns)),
            ("smc.iokit.read_ns_per_obs", time(self.read_ns)),
            ("smc.iokit.reads_per_obs", work(self.reads)),
            ("telemetry.block.fill_ns_per_obs", time(self.block_ns)),
        ]
    }
}

/// What the traced source saw: summed layer times and each shard's
/// schedule (replayed on an identical rig for the sum check).
#[derive(Debug, Default)]
struct Seen {
    layers: SimLayers,
    schedules: Vec<(usize, Schedule, usize)>,
}

/// The traced live source: shard `i` simulates `device` seeded
/// `seed + i`, exactly like `LiveRig`.
#[derive(Debug, Clone)]
pub struct TracedLive {
    device: Device,
    kind: VictimKind,
    key: [u8; 16],
    seed: u64,
    seen: Arc<Mutex<Seen>>,
}

impl TracedLive {
    /// A traced source equivalent to `Campaign::live(device, kind, key, seed)`.
    pub fn new(device: Device, kind: VictimKind, key: [u8; 16], seed: u64) -> Self {
        Self { device, kind, key, seed, seen: Arc::default() }
    }

    /// Layer totals over every shard run so far.
    pub fn layers(&self) -> SimLayers {
        self.seen.lock().expect("traced source lock").layers
    }

    fn rig(&self, shard: usize, mitigation: Option<MitigationConfig>) -> Rig {
        let mut rig =
            Rig::new(self.device, self.kind, self.key, self.seed.wrapping_add(shard as u64));
        rig.set_mitigation(mitigation.unwrap_or_else(MitigationConfig::none));
        rig
    }

    /// The sum check: the most recent campaign's schedules once more on
    /// one thread, the traced replica and an identical rig's
    /// `Rig::observe_windows_with` alternating chunk by chunk, so drift of
    /// the machine between phases cannot skew their ratio. Returns the
    /// replica's layer totals and the identical rig's time per observation.
    pub fn paired_check(&self, keys: &[SmcKey]) -> (SimLayers, f64) {
        let schedules = self.seen.lock().expect("traced source lock").schedules.clone();
        let (mut layers, mut spent, mut obs) = (SimLayers::default(), 0u64, 0u64);
        let stop = AtomicBool::new(false);
        for (shard, schedule, obs_chunk) in schedules {
            let mut traced = self.rig(shard, None);
            let mut twin = self.rig(shard, None);
            let mut replica = Replica::new(keys, traced.window_s());
            let channels = channels(keys);
            let mut block = EventBlock::new();
            // Plaintexts come from the twin's attacker RNG; observing never
            // draws from it, so both rigs see the same inputs.
            for_each_chunk(&mut twin, schedule, obs_chunk, &stop, |twin, pts, pass, class| {
                block.reset(&channels);
                for &pt in pts {
                    replica.observe(&mut traced, &mut block, pt, pass, class);
                }
                let t0 = Instant::now();
                twin.observe_windows_with(pts, keys, |o| {
                    std::hint::black_box(o);
                });
                spent += ns(t0, Instant::now());
                obs += pts.len() as u64;
            });
            layers.add(&replica.t);
        }
        (layers, spent as f64 / obs.max(1) as f64)
    }
}

/// The block layout of a rig-backed shard: one column per key, then PCPU.
fn channels(keys: &[SmcKey]) -> Vec<ChannelId> {
    keys.iter().map(|&k| ChannelId::Smc(k)).chain([ChannelId::Pcpu]).collect()
}

/// Walk a schedule chunk by chunk, drawing plaintexts exactly as the
/// library's `drive_rig` does, and hand each chunk to `f` with its TVLA
/// pass and class. Returns the schedule units produced.
fn for_each_chunk(
    rig: &mut Rig,
    schedule: Schedule,
    obs_chunk: usize,
    stop: &AtomicBool,
    mut f: impl FnMut(&mut Rig, &[[u8; 16]], u8, Option<PlaintextClass>),
) -> usize {
    let mut pts: Vec<[u8; 16]> = Vec::with_capacity(obs_chunk);
    match schedule {
        Schedule::Tvla { traces_per_class } => {
            'schedule: for pass in 0..2u8 {
                for class in PlaintextClass::ALL {
                    let mut remaining = traces_per_class;
                    while remaining > 0 {
                        if stop.load(Ordering::Relaxed) {
                            break 'schedule;
                        }
                        let take = remaining.min(obs_chunk);
                        pts.clear();
                        pts.extend((0..take).map(|_| {
                            class.fixed_plaintext().unwrap_or_else(|| rig.random_plaintext())
                        }));
                        f(rig, &pts, pass, Some(class));
                        remaining -= take;
                    }
                }
            }
            traces_per_class
        }
        Schedule::KnownPlaintext { traces } => {
            let mut remaining = traces;
            while remaining > 0 && !stop.load(Ordering::Relaxed) {
                let take = remaining.min(obs_chunk);
                pts.clear();
                pts.extend((0..take).map(|_| rig.random_plaintext()));
                f(rig, &pts, 0, None);
                remaining -= take;
            }
            traces
        }
        Schedule::AdaptiveRounds { .. } => panic!("the benchmark runs no adaptive campaigns"),
    }
}

/// Per-shard staging of the traced observation path.
struct Replica<'k> {
    keys: &'k [SmcKey],
    window_s: f64,
    batch: WindowBatch,
    reads: Vec<Option<f64>>,
    seq: u64,
    t: SimLayers,
}

impl<'k> Replica<'k> {
    fn new(keys: &'k [SmcKey], window_s: f64) -> Self {
        Self {
            keys,
            window_s,
            batch: WindowBatch::new(),
            reads: Vec::with_capacity(keys.len()),
            seq: 0,
            t: SimLayers::default(),
        }
    }

    /// One observation, layer by layer as `Rig::observe_one_into` runs
    /// it, appended to `block` as the library's `push_observation` does.
    fn observe(
        &mut self,
        rig: &mut Rig,
        block: &mut EventBlock,
        pt: [u8; 16],
        pass: u8,
        class: Option<PlaintextClass>,
    ) {
        let window_s = self.window_s;
        let timed = self.seq.is_multiple_of(SAMPLE_EVERY);
        let mut laps = Laps::start(timed);
        let ciphertext = rig.victim.request_encrypt(pt);
        laps.lap(&mut self.t.encrypt_ns);
        let before_pcpu_mj = rig.ioreport.pcpu_total_mj();
        let mut windows = 0u32;
        loop {
            let n = rig.smc.read().windows_until_publish(window_s);
            laps.lap(&mut self.t.until_publish_ns);
            rig.soc.run_windows_into(n, window_s, &mut self.batch);
            laps.lap(&mut self.t.soc_ns);
            rig.ioreport.observe_windows(&self.batch);
            laps.lap(&mut self.t.ioreport_ns);
            let published = rig.smc.write().observe_windows(&self.batch);
            laps.lap(&mut self.t.publish_ns);
            self.t.windows += n as u64;
            windows += u32::try_from(n).unwrap_or(u32::MAX);
            if !published.is_empty() {
                break;
            }
        }
        let pcpu_delta_mj = rig.ioreport.pcpu_total_mj() - before_pcpu_mj;
        self.reads.clear();
        self.reads.extend(self.keys.iter().map(|&k| rig.client.read_key(k).ok().map(|v| v.value)));
        laps.lap(&mut self.t.read_ns);
        self.t.reads += self.keys.len() as u64;
        let time_s = rig.soc.time_s();
        block.begin(WindowEvent { seq: self.seq, time_s, pass, class, plaintext: pt, ciphertext });
        let mut denied = 0u32;
        for (col, value) in self.reads.iter().enumerate() {
            match value {
                Some(v) => block.sample(col, *v),
                None => denied += 1,
            }
        }
        block.sample(self.reads.len(), pcpu_delta_mj);
        block.commit(SchedEvent {
            time_s,
            windows_consumed: windows.max(1),
            window_s,
            denied_reads: denied,
        });
        laps.lap(&mut self.t.block_ns);
        self.t.obs += 1;
        self.t.timed_obs += u64::from(timed);
        self.seq += 1;
    }
}

/// Lap timer over one observation: each `lap` charges the time since the
/// previous one to a layer, so one clock read ends a layer and starts the
/// next. A disabled timer reads no clock.
struct Laps(Option<Instant>);

impl Laps {
    fn start(on: bool) -> Self {
        Self(on.then(Instant::now))
    }

    fn lap(&mut self, acc: &mut u64) {
        if let Some(last) = self.0 {
            let now = Instant::now();
            *acc += ns(last, now);
            self.0 = Some(now);
        }
    }
}

impl TraceSource for TracedLive {
    fn run_shard(
        &self,
        plan: &ShardPlan<'_>,
        sink: &mut dyn FnMut(&mut EventBlock),
        stop: &AtomicBool,
    ) -> usize {
        assert!(
            plan.skip_obs == 0 && plan.faults.is_none(),
            "the traced source neither resumes nor injects faults"
        );
        let mut rig = self.rig(plan.shard, plan.mitigation);
        let channels = channels(plan.keys);
        let mut replica = Replica::new(plan.keys, rig.window_s());
        let mut block = EventBlock::new();
        let produced = for_each_chunk(
            &mut rig,
            plan.schedule,
            plan.obs_chunk,
            stop,
            |rig, pts, pass, class| {
                block.reset(&channels);
                for &pt in pts {
                    replica.observe(rig, &mut block, pt, pass, class);
                }
                sink(&mut block);
            },
        );
        let mut seen = self.seen.lock().expect("traced source lock");
        seen.layers.add(&replica.t);
        seen.schedules.retain(|(shard, _, _)| *shard != plan.shard);
        seen.schedules.push((plan.shard, plan.schedule, plan.obs_chunk));
        produced
    }

    fn fingerprint_tag(&self) -> &'static str {
        "bench-traced-live"
    }
}

/// Campaign pipeline totals summed over traced campaign runs.
#[derive(Debug, Default, Clone)]
pub struct Pipeline {
    snapshot: MetricsSnapshot,
    /// Σ shards × wall time, ns.
    shard_wall_ns: f64,
    /// Attacker traces the campaigns completed.
    traces: u64,
}

impl Pipeline {
    /// Fold one campaign's metrics report in; `traces` is the attacker
    /// traces it completed.
    pub fn add(&mut self, report: &MetricsReport, traces: u64) {
        self.snapshot = std::mem::take(&mut self.snapshot).merged(report.snapshot.clone());
        self.shard_wall_ns += report.wall_s * 1e9 * report.shards as f64;
        self.traces += traces;
    }

    fn hist_sum(&self, name: &str) -> u64 {
        self.snapshot.histogram(name).map_or(0, |h| h.sum)
    }

    /// (source fill + consume) / (shards × wall).
    pub fn coverage(&self) -> f64 {
        (self.hist_sum(names::SOURCE_FILL_NS) + self.hist_sum(names::CONSUME_BLOCK_NS)) as f64
            / self.shard_wall_ns
    }

    /// Bus, fill and consume metrics per observation / trace.
    pub fn per_layer(&self) -> Vec<(&'static str, f64)> {
        let s = &self.snapshot;
        let obs = s.counter(names::BUS_OBS).max(1) as f64;
        let hits = s.counter(names::RECYCLE_HITS) as f64;
        let misses = s.counter(names::RECYCLE_MISSES) as f64;
        vec![
            ("core.source.fill_ns_per_obs", self.hist_sum(names::SOURCE_FILL_NS) as f64 / obs),
            ("telemetry.consume.ns_per_obs", self.hist_sum(names::CONSUME_BLOCK_NS) as f64 / obs),
            (
                "telemetry.bus.blocks_per_trace",
                s.counter(names::BUS_BLOCKS) as f64 / self.traces.max(1) as f64,
            ),
            ("telemetry.bus.recycle_hit_ratio", hits / (hits + misses).max(1.0)),
            ("telemetry.bus.high_water_blocks", s.gauge(names::BUS_HIGH_WATER) as f64),
            ("trace.fill_consume_coverage", self.coverage()),
        ]
    }
}

/// The traced-run accounting shared by every workload: the simulator
/// layer sum against the identical rig (`paired`, from
/// [`TracedLive::paired_check`]) and the fill + consume coverage of the
/// pipeline, each failing the gate outside its band. Returns the
/// simulator, pipeline and accounting per-layer metrics.
pub fn account(
    gate: &mut Gate,
    layers: &SimLayers,
    (paired, rig_per_obs): (SimLayers, f64),
    pipeline: &Pipeline,
) -> Vec<(&'static str, f64)> {
    let in_band = |v: f64, (lo, hi): (f64, f64)| v >= lo && v <= hi;
    let sum_ratio = paired.sim_ns_per_obs() / rig_per_obs;
    gate.check(in_band(sum_ratio, SIM_SUM_BAND), || {
        format!("simulator layers sum to {sum_ratio:.3} of Rig::observe_windows_with")
    });
    let coverage = pipeline.coverage();
    gate.check(in_band(coverage, COVERAGE_BAND), || {
        format!("source fill + consume cover {coverage:.3} of shard wall time")
    });
    let mut metrics = layers.per_obs();
    metrics.extend(pipeline.per_layer());
    metrics.push(("core.rig.observe_ns_per_obs", rig_per_obs));
    metrics.push(("trace.sim_layer_sum_ratio", sum_ratio));
    metrics
}

/// Traced-minus-untraced median job latency, percent of untraced.
pub fn overhead_pct(untraced_ms: &[f64], traced_ms: &[f64]) -> f64 {
    let base = crate::measure::median(untraced_ms);
    (crate::measure::median(traced_ms) - base) / base * 100.0
}
