//! `cpa-replay`: known-plaintext CPA over recorded single-shard-group
//! `.psct` campaigns of the four M2 CPA keys. Set-up records one campaign
//! of each job size ([`crate::mix`]) with a live CPA campaign
//! (`record_to`), so set-up covers the codec write path; one job is
//! `ShardReplay::from_dir` + a replay CPA campaign + its rendered report,
//! cycling through the recordings. The simulator does no work in the
//! timed phase.

use crate::measure::{self, closed_loop, ns, Job};
use crate::traced::{account, overhead_pct, Pipeline, TracedLive};
use crate::{Outcome, RunConfig};
use apple_power_sca::core::report::{cpa_model, render_cpa_body};
use apple_power_sca::core::source::{OBS_CHUNK, REPLAY_CHUNK};
use apple_power_sca::core::{
    Campaign, Device, ShardReplay, StreamingCpaReport, TuneConfig, VictimKind,
};
use apple_power_sca::sca::codec::{self, RecordingReader};
use apple_power_sca::sca::rank::recovery_tally;
use apple_power_sca::sca::PayloadWriter;
use apple_power_sca::smc::key::key;
use apple_power_sca::smc::SmcKey;
use apple_power_sca::telemetry::processors::StreamingCpa;
use apple_power_sca::telemetry::{channel_for_label, ChannelId, EventBlock, Processor};
use std::path::{Path, PathBuf};
use std::time::Instant;

const DEVICE: Device = Device::MacbookAirM2;
const KIND: VictimKind = VictimKind::UserSpace;

/// The encoded analysis state, exactly as `report::run_session` encodes
/// it into `CampaignOutcome::analysis`.
fn analysis(report: &StreamingCpaReport) -> Vec<u8> {
    let mut w = PayloadWriter::new();
    report.cpa.encode_state(&mut w);
    w.into_payload()
}

fn healthy(report: &StreamingCpaReport) -> bool {
    report.bus.dropped == 0 && report.io_errors == 0 && report.health.iter().all(|h| h.is_ok())
}

fn phpc_recovered(report: &StreamingCpaReport, secret: &[u8; 16]) -> usize {
    report.ranks(key("PHPC"), secret).map_or(0, |r| recovery_tally(&r).0)
}

fn replay(dir: &Path, keys: &[SmcKey], metrics: bool) -> Result<StreamingCpaReport, String> {
    let source =
        ShardReplay::from_dir(dir).map_err(|e| format!("replay {}: {e}", dir.display()))?;
    let campaign = Campaign::replay(source).keys(keys);
    let campaign = if metrics { campaign.metrics() } else { campaign };
    Ok(campaign.session().cpa(cpa_model))
}

pub fn run(cfg: &RunConfig) -> Result<Outcome, String> {
    let keys = DEVICE.cpa_keys();
    let sizes = crate::mix(cfg.size.cpa_traces);
    let record = |dir: &Path, traces: usize| {
        Campaign::live(DEVICE, KIND, cfg.key, cfg.campaign_seed)
            .keys(&keys)
            .traces(traces)
            .shards(1)
            .record_to(dir)
            .session()
            .cpa(cpa_model)
    };

    let mut out = Outcome::default();
    // Each set-up records one job size into a fresh directory (the work
    // directory goes after the run), so no file deletion lands inside a
    // timed set-up; `setup_s` is the median over the sizes.
    let dirs: Vec<PathBuf> =
        (0..sizes.len()).map(|k| cfg.work.join(format!("recording-{k}"))).collect();
    let (mut states, mut bodies) = (Vec::new(), Vec::new());
    for (dir, &traces) in dirs.iter().zip(&sizes) {
        let t0 = Instant::now();
        let report = record(dir, traces);
        out.setups_s.push(t0.elapsed().as_secs_f64());
        out.gate.check(healthy(&report), || "recording campaign lost blocks or traces".into());
        // The first replay of each recording is checked against its
        // recording campaign's state; every timed replay must then render
        // the same report.
        let state = analysis(&report);
        let first = replay(dir, &keys, false)?;
        out.gate.check(analysis(&first) == state, || {
            "replayed analysis state differs from the recording campaign's".into()
        });
        bodies.push(render_cpa_body(&first, &cfg.key));
        states.push(state);
        // The base-size replay must recover the key; a smaller recording
        // may miss a byte for some victim keys (42 000 traces recovered
        // 15/16 on one seed in ten).
        if traces == cfg.size.cpa_traces {
            let recovered = phpc_recovered(&first, &cfg.key);
            out.gate.check(recovered == 16, || format!("PHPC recovered {recovered}/16 key bytes"));
        }
    }

    let job = |k: usize, metrics: bool| {
        let report = replay(&dirs[k], &keys, metrics).ok();
        let ok = report
            .as_ref()
            .is_some_and(|r| healthy(r) && render_cpa_body(r, &cfg.key) == bodies[k]);
        (report, Job { traces: sizes[k] as u64, ok })
    };
    out.stats = closed_loop(1, cfg.loop_seconds(), cfg.size.min_jobs, |_, i| {
        job(i as usize % sizes.len(), false).1
    });

    if cfg.trace {
        // The replica, write probe and traced recording use the middle
        // size, whose trace count is the base size.
        let mid = sizes.len() / 2;
        let base = Recording { dir: &dirs[mid], traces: sizes[mid], state: &states[mid] };
        traced(cfg, &keys, &base, sizes.len(), &job, &mut out)?;
    }
    Ok(out)
}

/// One set-up recording: its directory, trace count and the recording
/// campaign's encoded analysis state.
struct Recording<'a> {
    dir: &'a Path,
    traces: usize,
    state: &'a [u8],
}

/// Traced phases: the replay loop with pipeline metrics on, a timed
/// single-thread replica of the replay pipeline (codec read → block fill
/// → CPA ingest), the codec write path, and a traced recording campaign
/// for the simulator layers set-up runs.
fn traced(
    cfg: &RunConfig,
    keys: &[SmcKey],
    base: &Recording<'_>,
    recordings: usize,
    job: &(dyn Fn(usize, bool) -> (Option<StreamingCpaReport>, Job) + Sync),
    out: &mut Outcome,
) -> Result<(), String> {
    let (dir, reference, traces) = (base.dir, base.state, base.traces as u64);
    // Pipeline totals, correlation times, replay latencies.
    let state = std::sync::Mutex::new((Pipeline::default(), Vec::new(), Vec::new()));
    let stats = closed_loop(1, cfg.loop_seconds(), cfg.size.min_jobs, |_, i| {
        let t0 = Instant::now();
        let (report, outcome) = job(i as usize % recordings, true);
        let replay_ms = t0.elapsed().as_secs_f64() * 1e3;
        if let Some(report) = report {
            let t0 = Instant::now();
            for &k in keys {
                std::hint::black_box(report.ranks(k, &cfg.key));
            }
            let correlate_ms = t0.elapsed().as_secs_f64() * 1e3;
            let mut s = state.lock().expect("traced state lock");
            if let Some(m) = &report.metrics {
                s.0.add(m, outcome.traces);
            }
            s.1.push(correlate_ms);
            s.2.push(replay_ms);
        }
        outcome
    });
    out.gate.check(stats.failed == 0, || format!("{} traced replay(s) failed", stats.failed));
    let (pipeline, correlate_ms, traced_ms) = state.into_inner().expect("traced state lock");

    let replica = ReplayReplica::run(dir, keys)?;
    out.gate.check(replica.state == reference, || {
        "replay replica state differs from the recording campaign's".into()
    });
    let write_ns = codec_write_ns(dir, &cfg.work.join("write-probe.psct"))?;

    // The recording campaign again, over the traced source: simulator
    // layers of set-up, checked against the untraced recording.
    let source = TracedLive::new(DEVICE, KIND, cfg.key, cfg.campaign_seed);
    let recorded = Campaign::from_source(source.clone())
        .keys(keys)
        .traces(base.traces)
        .shards(1)
        .record_to(cfg.work.join("recording-traced"))
        .session()
        .cpa(cpa_model);
    out.gate.check(analysis(&recorded) == reference, || {
        "traced recording differs from the untraced recording".into()
    });
    let accounting = account(&mut out.gate, &source.layers(), source.paired_check(keys), &pipeline);

    let per_trace = |v: u64| v as f64 / traces as f64;
    out.layers.extend(accounting);
    out.layers.extend([
        ("sca.codec.read_ns_per_trace", per_trace(replica.read_ns)),
        ("sca.codec.bytes_per_trace", per_trace(replica.bytes)),
        ("telemetry.replay.fill_ns_per_trace", per_trace(replica.fill_ns)),
        ("sca.cpa.ingest_ns_per_trace", per_trace(replica.ingest_ns)),
        ("sca.cpa.correlate_ms", measure::median(&correlate_ms)),
        ("sca.codec.write_ns_per_trace", per_trace(write_ns)),
        ("trace.overhead_pct", overhead_pct(&out.stats.latencies_ms, &traced_ms)),
    ]);
    Ok(())
}

/// A single-thread replica of one replay shard, timing each layer's
/// public call: `RecordingReader::read_chunk`, `replay::fill_block` and
/// `StreamingCpa::on_block`.
struct ReplayReplica {
    read_ns: u64,
    fill_ns: u64,
    ingest_ns: u64,
    bytes: u64,
    state: Vec<u8>,
}

impl ReplayReplica {
    fn run(dir: &Path, keys: &[SmcKey]) -> Result<Self, String> {
        let replay = ShardReplay::from_dir(dir).map_err(|e| e.to_string())?;
        let files: Vec<PathBuf> = replay.shards().iter().flat_map(|s| s.files.clone()).collect();
        let mut cpa = StreamingCpa::new(keys.iter().map(|&k| ChannelId::Smc(k)), cpa_model);
        cpa.set_unroll(TuneConfig::default().cpa_unroll);
        let (mut read_ns, mut fill_ns, mut ingest_ns, mut bytes) = (0, 0, 0, 0);
        let mut chunk = Vec::with_capacity(REPLAY_CHUNK);
        let mut block = EventBlock::new();
        let mut seq = 0u64;
        for path in &files {
            bytes += std::fs::metadata(path).map_err(|e| e.to_string())?.len();
            let file = std::fs::File::open(path).map_err(|e| e.to_string())?;
            let mut reader = RecordingReader::new(file).map_err(|e| e.to_string())?;
            let channel = channel_for_label(reader.label()).ok_or("unmapped recording label")?;
            loop {
                let t0 = Instant::now();
                let n = reader.read_chunk(REPLAY_CHUNK, &mut chunk).map_err(|e| e.to_string())?;
                read_ns += ns(t0, Instant::now());
                if n == 0 {
                    break;
                }
                for rows in chunk.chunks(OBS_CHUNK) {
                    let t1 = Instant::now();
                    block.reset(&[channel]);
                    seq =
                        apple_power_sca::telemetry::replay::fill_block(rows, seq, 1.0, &mut block);
                    let t2 = Instant::now();
                    cpa.on_block(&block);
                    ingest_ns += ns(t2, Instant::now());
                    fill_ns += ns(t1, t2);
                }
            }
        }
        let mut w = PayloadWriter::new();
        cpa.encode_state(&mut w);
        Ok(Self { read_ns, fill_ns, ingest_ns, bytes, state: w.into_payload() })
    }
}

/// Time the recorder's write path — `File::create` +
/// `codec::write_recording` straight to the file — re-writing every
/// recorded file (read back first, untimed) to `probe`.
fn codec_write_ns(dir: &Path, probe: &Path) -> Result<u64, String> {
    let replay = ShardReplay::from_dir(dir).map_err(|e| e.to_string())?;
    let mut total = 0u64;
    for path in replay.shards().iter().flat_map(|s| &s.files) {
        let file = std::fs::File::open(path).map_err(|e| e.to_string())?;
        let recording =
            codec::read_recording(std::io::BufReader::new(file)).map_err(|e| e.to_string())?;
        let t0 = Instant::now();
        std::fs::File::create(probe)
            .map_err(codec::CodecError::Io)
            .and_then(|f| codec::write_recording(&recording.label, &recording.traces, f))
            .map_err(|e| e.to_string())?;
        total += ns(t0, Instant::now());
    }
    let _ = std::fs::remove_file(probe);
    Ok(total)
}
