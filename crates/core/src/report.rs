//! Campaign reports: the mode table and the renderers it shares.
//!
//! Every front end reaches an analysis through one table with a row per
//! [`AnalysisMode`]: the banner line, the `Session` call, the accumulator
//! for shipped shard states, and the body and analysis encoding of the
//! [`CampaignOutcome`]. It is the one place to add a mode. `psc
//! campaign`/`resume`/`replay`, `psc serve` and distributed workers run
//! through [`run_session`], the fleet aggregator through
//! [`merge_shipped`], so each front end's report diffs clean against the
//! inline run of the same spec.
//!
//! The metrics summary line ([`render_metrics_summary`]) is deliberately
//! *not* part of the body: it contains wall-clock rates, which are never
//! deterministic, and whether it prints is a front-end concern
//! (`--metrics`/`--progress` on the CLI; never in a served report).

use crate::session::{
    cpa_accumulator, merge_shards, Analysis, Campaign, MergedShards, Session, ShardHealth,
    ShardOutput, ShardRun, StreamingCpaReport, StreamingTvlaReport, MONITOR_INTERVAL_S,
};
use crate::spec::{AnalysisMode, CampaignSpec};
use psc_sca::checkpoint::{CheckpointError, PayloadReader, PayloadWriter};
use psc_sca::model::PowerModel;
use psc_sca::rank::{guessing_entropy, recovery_tally};
use psc_telemetry::metrics::{names, MetricsReport};
use psc_telemetry::ring::ChannelStats;
use psc_telemetry::{StreamingTvla, ThrottleMonitor};

/// The pre-run header lines `psc campaign` prints before streaming: the
/// mode/target/budget line, plus the fleet fan-out note when `fleet`.
#[must_use]
pub fn campaign_banner(spec: &CampaignSpec) -> String {
    let target = if spec.fleet { "the fleet".to_owned() } else { spec.device.label().to_owned() };
    let mut out = (row(spec.mode).banner)(spec, &target);
    if spec.fleet {
        out.push_str(&format!(
            "fleet: one shard per member ({} members)\n",
            spec.fleet_members().len()
        ));
    }
    out
}

/// The accounting lines every report body ends with: bus counters and
/// denied reads, lost recorder writes, and the degradation summary —
/// silent on a fully healthy run so interrupt/resume and served/inline
/// output diffs stay clean (details go to stderr at merge time).
fn footer(
    out: &mut String,
    bus: &ChannelStats,
    monitor: &ThrottleMonitor,
    io_errors: u64,
    io_retries: u64,
    health: &[ShardHealth],
) {
    out.push_str(&format!(
        "bus: {} accepted, {} dropped; denied reads: {}\n",
        bus.accepted,
        bus.dropped,
        monitor.denied_reads()
    ));
    if io_errors > 0 {
        out.push_str(&format!("recorder I/O errors: {io_errors} (recording incomplete)\n"));
    }
    let unhealthy = health.iter().filter(|h| !h.is_ok()).count();
    if unhealthy > 0 {
        out.push_str(&format!(
            "shard health: {unhealthy}/{} shard(s) degraded or failed (details on stderr)\n",
            health.len()
        ));
    }
    if io_retries > 0 {
        out.push_str(&format!("recorder retries: {io_retries} (transient, recovered)\n"));
    }
}

/// The `--metrics` summary line: throughput, drop rate, the p99
/// per-block dispatch latency (the admission controller's saturation
/// signal, from [`psc_telemetry::metrics::HistogramSnapshot::percentile`])
/// and the backend/tuned sizes. Empty string when `metrics` is `None`.
#[must_use]
pub fn render_metrics_summary(metrics: Option<&MetricsReport>) -> String {
    let Some(m) = metrics else {
        return String::new();
    };
    let p99_ns =
        m.snapshot.histogram(names::CONSUME_BLOCK_NS).and_then(|h| h.percentile(0.99)).unwrap_or(0);
    format!(
        "metrics: {:.0} obs/s, {:.0} blocks/s, drop rate {:.2}%, p99 block {p99_ns}ns, \
         wall {:.2}s (simd {}, obs_chunk {}, bus {})\n",
        m.obs_per_s(),
        m.blocks_per_s(),
        m.drop_rate() * 100.0,
        m.wall_s,
        m.simd_backend,
        m.obs_chunk,
        m.bus_capacity
    )
}

/// Render a streaming TVLA report body: per-key matrices, the PCPU
/// matrix, bus/denied-read accounting and the (usually silent) health
/// summary. Deterministic for a given spec — no wall-clock content.
#[must_use]
pub fn render_tvla_body(r: &StreamingTvlaReport) -> String {
    let mut out = String::new();
    for &k in &r.keys {
        match r.matrix(k) {
            Some(matrix) => out.push_str(&format!("{}\n", matrix.render())),
            None => out.push_str(&format!("{k}: no readable samples\n\n")),
        }
    }
    if let Some(pcpu) = r.pcpu_matrix() {
        out.push_str(&format!("{}\n", pcpu.render()));
    }
    footer(&mut out, &r.bus, &r.monitor, r.io_errors, r.io_retries, &r.health);
    out
}

/// Render a streaming CPA report body: per-key guessing entropy and
/// recovery tallies against the true key, plus the shared accounting.
#[must_use]
pub fn render_cpa_body(r: &StreamingCpaReport, secret_key: &[u8; 16]) -> String {
    let mut out = String::new();
    for &k in &r.keys {
        match r.ranks(k, secret_key) {
            Some(ranks) => {
                let (recovered, near) = recovery_tally(&ranks);
                out.push_str(&format!(
                    "{k}: GE {:.1} bits, {recovered}/16 recovered, {near}/16 nearly\n",
                    guessing_entropy(&ranks)
                ));
            }
            None => out.push_str(&format!("{k}: no readable samples\n")),
        }
    }
    footer(&mut out, &r.bus, &r.monitor, r.io_errors, r.io_retries, &r.health);
    out
}

/// Everything one campaign run produces for a front end: deterministic
/// report text, the codec-v3-encoded analysis state (restorable into a
/// fresh `StreamingTvla`/`StreamingCpa` for bit-exact comparison), the
/// merged accounting a distributed member ships, and the wall-clock
/// metrics when observability was on.
#[derive(Debug)]
pub struct CampaignOutcome {
    /// The analysis the campaign ran.
    pub mode: AnalysisMode,
    /// Deterministic report body (no banner, no metrics line).
    pub body: String,
    /// Encoded merged analysis state: `StreamingTvla::encode_state` for
    /// TVLA/adaptive, `StreamingCpa::encode_state` for CPA, as one
    /// codec-v3 payload.
    pub analysis: Vec<u8>,
    /// Adaptive only: whether the watch channel crossed the threshold
    /// before the budget ran out.
    pub stopped_early: bool,
    /// Adaptive only: trace rounds actually collected.
    pub rounds: u64,
    /// Merged pipeline metrics, when the run was instrumented.
    pub metrics: Option<MetricsReport>,
    /// Merged cadence totals.
    pub monitor: ThrottleMonitor,
    /// Bus counters summed over shards (`high_water` is the max).
    pub bus: ChannelStats,
    /// Recorder write failures summed over shards.
    pub io_errors: u64,
    /// Recorder write failures that succeeded on retry, summed.
    pub io_retries: u64,
    /// Per-shard health, in shard order.
    pub health: Vec<ShardHealth>,
}

/// The power-model factory every CPA front end uses (round-0 Hamming
/// weight, the paper's model).
#[must_use]
pub fn cpa_model() -> Box<dyn PowerModel> {
    Box::new(psc_sca::model::Rd0Hw)
}

/// Run `session` as `spec.mode` dictates and package the outcome. The
/// caller builds the session (usually [`Campaign::from_spec`] plus
/// runtime-only builder calls) so checkpointing, metrics hubs and stop
/// flags compose freely without touching the rendered bytes.
#[must_use]
pub fn run_session(session: Session, spec: &CampaignSpec) -> CampaignOutcome {
    (row(spec.mode).run)(session, spec)
}

/// [`Campaign::from_spec`] + [`run_session`] in one call — the shape
/// the server's workers use when no runtime extras are layered on.
#[must_use]
pub fn run_spec(spec: &CampaignSpec) -> CampaignOutcome {
    run_session(Campaign::from_spec(spec).session(), spec)
}

/// Shards whose analysis arrives as [`CampaignOutcome::analysis`] bytes.
pub type Shipped = Vec<ShardRun<ShardOutput<Vec<u8>>>>;

/// Fold [`Shipped`] shards (a distributed fleet's members) as
/// [`run_session`] folds its own: each state restored into the mode's
/// fresh accumulator, then [`merge_shards`] in shard order.
///
/// # Errors
///
/// [`CheckpointError`] when a state fails to decode or the shards'
/// channel sets differ, and for adaptive specs (see the table's row).
pub fn merge_shipped(
    runs: Shipped,
    spec: &CampaignSpec,
) -> Result<CampaignOutcome, CheckpointError> {
    (row(spec.mode).merge)(runs, spec)
}

/// One analysis mode's row of the mode table.
struct Mode {
    /// The banner's mode line, naming `target` (a device or the fleet).
    banner: fn(&CampaignSpec, &str) -> String,
    /// The mode's `Session` call, packaged.
    run: fn(Session, &CampaignSpec) -> CampaignOutcome,
    /// [`merge_shipped`] for this mode.
    merge: fn(Shipped, &CampaignSpec) -> Result<CampaignOutcome, CheckpointError>,
}

/// The mode table.
fn row(mode: AnalysisMode) -> &'static Mode {
    match mode {
        AnalysisMode::Tvla => &TVLA,
        AnalysisMode::Cpa => &CPA,
        AnalysisMode::Adaptive => &ADAPTIVE,
    }
}

/// A report's [`CampaignOutcome`]: `$body(&report)` as the body, the
/// report's `$analysis` accumulators encoded, and the accounting both
/// report shapes carry moved over.
macro_rules! outcome {
    ($spec:expr, $report:expr, $analysis:ident, $body:expr) => {{
        let report = $report;
        let mut w = PayloadWriter::new();
        report.$analysis.encode_state(&mut w);
        CampaignOutcome {
            mode: $spec.mode,
            body: $body(&report),
            analysis: w.into_payload(),
            stopped_early: false,
            rounds: 0,
            metrics: report.metrics,
            monitor: report.monitor,
            bus: report.bus,
            io_errors: report.io_errors,
            io_retries: report.io_retries,
            health: report.health,
        }
    }};
}

/// Restore each shipped shard's state into a fresh `build()` and fold the
/// shards with [`merge_shards`] under the spec's monitor interval.
fn decode_and_fold<A: Analysis>(
    runs: Shipped,
    spec: &CampaignSpec,
    build: impl Fn() -> A,
) -> Result<MergedShards<A>, CheckpointError> {
    let mut decoded = Vec::with_capacity(runs.len());
    for ShardRun { out, stats, produced, recycle_dropped, health } in runs {
        let out = out.map(|ShardOutput { analysis: bytes, monitor, recorders }| {
            let mut analysis = build();
            let mut r = PayloadReader::new(&bytes);
            analysis.restore_state(&mut r).and_then(|()| r.finish())?;
            Ok::<_, CheckpointError>(ShardOutput { analysis, monitor, recorders })
        });
        decoded.push(ShardRun { out: out.transpose()?, stats, produced, recycle_dropped, health });
    }
    merge_shards(decoded, spec.monitor.unwrap_or(MONITOR_INTERVAL_S))
        .map_err(|_| CheckpointError::Corrupt("shard channel sets differ"))
}

/// Fixed-budget streaming TVLA.
const TVLA: Mode = Mode {
    banner: |spec, target| {
        format!(
            "streaming TVLA on {target} ({} shard(s), {} traces/class) ...\n",
            spec.shards, spec.traces
        )
    },
    run: |session, spec| outcome!(spec, session.tvla(), tvla, render_tvla_body),
    merge: |runs, spec| {
        let shards = runs.len();
        let merged = decode_and_fold(runs, spec, StreamingTvla::new)?;
        Ok(outcome!(spec, merged.into_report(spec.keys(), shards, None), tvla, render_tvla_body))
    },
};

/// Streaming known-plaintext CPA.
const CPA: Mode = Mode {
    banner: |spec, target| {
        format!(
            "streaming {} known-plaintext traces over {} shard(s) on {target} ...\n",
            spec.traces, spec.shards
        )
    },
    run: |session, spec| {
        outcome!(spec, session.cpa(cpa_model), cpa, |r| render_cpa_body(r, &spec.key))
    },
    merge: |runs, spec| {
        let (keys, shards) = (spec.keys(), runs.len());
        let build = || cpa_accumulator(&keys, cpa_model, spec.tune.cpa_unroll);
        let report = decode_and_fold(runs, spec, build)?.into_report(keys.clone(), shards, None);
        Ok(outcome!(spec, report, cpa, |r| render_cpa_body(r, &spec.key)))
    },
};

/// TVLA that stops at the watch key's threshold crossing. Its body is the
/// rounds-to-crossing line and the watch key's matrix. The stop is a flag
/// the shards of one process share and no shipped state records, so
/// shipped adaptive states are refused.
const ADAPTIVE: Mode = Mode {
    banner: |spec, target| {
        format!(
            "adaptive TVLA on {target} ({} shard(s), watching {}, budget {}/class) ...\n",
            spec.shards,
            CampaignSpec::adaptive_watch(),
            spec.traces
        )
    },
    run: |session, spec| {
        let out = session.adaptive_tvla();
        let mut body = format!(
            "{} after {} round(s) of the {}-round budget\n",
            if out.stopped_early { "leakage detected" } else { "no crossing" },
            out.rounds_collected,
            spec.traces
        );
        if let Some(matrix) = out.report.matrix(CampaignSpec::adaptive_watch()) {
            body.push_str(&format!("{}\n", matrix.render()));
        }
        CampaignOutcome {
            stopped_early: out.stopped_early,
            rounds: out.rounds_collected as u64,
            ..outcome!(spec, out.report, tvla, |_| body)
        }
    },
    merge: |_, _| Err(CheckpointError::Corrupt("adaptive early stop cannot merge shipped states")),
};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::ExperimentConfig;
    use crate::rig::Device;

    #[test]
    fn shipped_adaptive_states_are_refused() {
        let spec = CampaignSpec::new(
            AnalysisMode::Adaptive,
            Device::MacMiniM1,
            &ExperimentConfig::quick(),
        );
        assert!(matches!(merge_shipped(Vec::new(), &spec), Err(CheckpointError::Corrupt(_))));
    }
}
