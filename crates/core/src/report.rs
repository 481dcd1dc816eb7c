//! Shared campaign report rendering.
//!
//! The `psc campaign` CLI and the `psc serve` daemon must produce
//! **byte-identical** report text for the same [`CampaignSpec`] — the
//! service's acceptance bar is that a streamed report diffs clean
//! against the same spec run inline. That only holds if there is one
//! renderer, so the formatting that used to live in `src/bin/psc.rs`
//! lives here: [`campaign_banner`] (the pre-run header lines) and the
//! per-mode body renderers, composed by [`run_spec`] into a
//! [`CampaignOutcome`] carrying the text, the encoded analysis state
//! (for bit-exact comparison/restore on the far side of a socket) and
//! the optional metrics report.
//!
//! The metrics summary line ([`render_metrics_summary`]) is deliberately
//! *not* part of the body: it contains wall-clock rates, which are never
//! deterministic, and whether it prints is a front-end concern
//! (`--metrics`/`--progress` on the CLI; never in a served report).

use crate::session::{AdaptiveTvlaReport, ShardHealth, StreamingCpaReport, StreamingTvlaReport};
use crate::spec::{AnalysisMode, CampaignSpec};
use psc_sca::checkpoint::PayloadWriter;
use psc_sca::model::PowerModel;
use psc_sca::rank::{guessing_entropy, recovery_tally};
use psc_telemetry::metrics::{names, MetricsReport};

use crate::session::{Campaign, Session};

/// The pre-run header lines `psc campaign` prints before streaming: the
/// mode/target/budget line, plus the fleet fan-out note when `fleet`.
#[must_use]
pub fn campaign_banner(spec: &CampaignSpec) -> String {
    let target = if spec.fleet { "the fleet".to_owned() } else { spec.device.label().to_owned() };
    let mut out = match spec.mode {
        AnalysisMode::Cpa => format!(
            "streaming {} known-plaintext traces over {} shard(s) on {target} ...\n",
            spec.traces, spec.shards
        ),
        AnalysisMode::Adaptive => format!(
            "adaptive TVLA on {target} ({} shard(s), watching {}, budget {}/class) ...\n",
            spec.shards,
            CampaignSpec::adaptive_watch(),
            spec.traces
        ),
        AnalysisMode::Tvla => format!(
            "streaming TVLA on {target} ({} shard(s), {} traces/class) ...\n",
            spec.shards, spec.traces
        ),
    };
    if spec.fleet {
        out.push_str(&format!(
            "fleet: one shard per member ({} members)\n",
            spec.fleet_members().len()
        ));
    }
    out
}

/// Degradation summary — silent on a fully healthy run so
/// interrupt/resume and served/inline output diffs stay clean (details
/// go to stderr at merge time).
fn render_health(out: &mut String, health: &[ShardHealth], io_retries: u64) {
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
pub fn render_tvla_body(report: &StreamingTvlaReport) -> String {
    let mut out = String::new();
    for &k in &report.keys {
        match report.matrix(k) {
            Some(matrix) => out.push_str(&format!("{}\n", matrix.render())),
            None => out.push_str(&format!("{k}: no readable samples\n\n")),
        }
    }
    if let Some(pcpu) = report.pcpu_matrix() {
        out.push_str(&format!("{}\n", pcpu.render()));
    }
    out.push_str(&format!(
        "bus: {} accepted, {} dropped; denied reads: {}\n",
        report.bus.accepted,
        report.bus.dropped,
        report.monitor.denied_reads()
    ));
    if report.io_errors > 0 {
        out.push_str(&format!(
            "recorder I/O errors: {} (recording incomplete)\n",
            report.io_errors
        ));
    }
    render_health(&mut out, &report.health, report.io_retries);
    out
}

/// Render a streaming CPA report body: per-key guessing entropy and
/// recovery tallies against the true key, plus the shared accounting.
#[must_use]
pub fn render_cpa_body(report: &StreamingCpaReport, secret_key: &[u8; 16]) -> String {
    let mut out = String::new();
    for &k in &report.keys {
        match report.ranks(k, secret_key) {
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
    out.push_str(&format!(
        "bus: {} accepted, {} dropped; denied reads: {}\n",
        report.bus.accepted,
        report.bus.dropped,
        report.monitor.denied_reads()
    ));
    if report.io_errors > 0 {
        out.push_str(&format!(
            "recorder I/O errors: {} (recording incomplete)\n",
            report.io_errors
        ));
    }
    render_health(&mut out, &report.health, report.io_retries);
    out
}

/// Render an adaptive TVLA outcome body: the rounds-to-crossing line
/// and the watch key's matrix.
#[must_use]
pub fn render_adaptive_body(out: &AdaptiveTvlaReport, budget: usize) -> String {
    let mut text = format!(
        "{} after {} round(s) of the {budget}-round budget\n",
        if out.stopped_early { "leakage detected" } else { "no crossing" },
        out.rounds_collected
    );
    if let Some(matrix) = out.report.matrix(CampaignSpec::adaptive_watch()) {
        text.push_str(&format!("{}\n", matrix.render()));
    }
    text
}

/// Everything one campaign run produces for a front end: deterministic
/// report text, the codec-v3-encoded analysis state (restorable into a
/// fresh `StreamingTvla`/`StreamingCpa` for bit-exact comparison), and
/// the wall-clock metrics when observability was on.
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
    match spec.mode {
        AnalysisMode::Tvla => {
            let report = session.tvla();
            let mut w = PayloadWriter::new();
            report.tvla.encode_state(&mut w);
            CampaignOutcome {
                mode: spec.mode,
                body: render_tvla_body(&report),
                analysis: w.into_payload(),
                stopped_early: false,
                rounds: 0,
                metrics: report.metrics,
            }
        }
        AnalysisMode::Adaptive => {
            let out = session.adaptive_tvla();
            let mut w = PayloadWriter::new();
            out.report.tvla.encode_state(&mut w);
            CampaignOutcome {
                mode: spec.mode,
                body: render_adaptive_body(&out, spec.traces),
                analysis: w.into_payload(),
                stopped_early: out.stopped_early,
                rounds: out.rounds_collected as u64,
                metrics: out.report.metrics,
            }
        }
        AnalysisMode::Cpa => {
            let report = session.cpa(cpa_model);
            let mut w = PayloadWriter::new();
            report.cpa.encode_state(&mut w);
            CampaignOutcome {
                mode: spec.mode,
                body: render_cpa_body(&report, &spec.key),
                analysis: w.into_payload(),
                stopped_early: false,
                rounds: 0,
                metrics: report.metrics,
            }
        }
    }
}

/// [`Campaign::from_spec`] + [`run_session`] in one call — the shape
/// the server's workers use when no runtime extras are layered on.
#[must_use]
pub fn run_spec(spec: &CampaignSpec) -> CampaignOutcome {
    run_session(Campaign::from_spec(spec).session(), spec)
}
