//! `serve-jobs`: a closed loop of 2 client connections against an
//! in-process `psc serve` server with 2 workers. Each client submits its
//! next job with `wait` only after the previous report arrived; jobs
//! alternate between a small TVLA and a small CPA spec, one tenant per
//! client. Per-job fixed costs dominate: framing, admission, the pool,
//! campaign set-up, the progress stream and report delivery.

use crate::measure::{self, closed_loop, Job};
use crate::traced::{account, overhead_pct, Pipeline, SimLayers, TracedLive};
use crate::{Outcome, RunConfig, SETUP_REPS};
use apple_power_sca::core::report::{
    campaign_banner, cpa_model, render_cpa_body, render_tvla_body, run_spec,
};
use apple_power_sca::core::{
    AnalysisMode, Campaign, CampaignSpec, Device, ExperimentConfig, VictimKind,
};
use apple_power_sca::serve::server::names as serve_names;
use apple_power_sca::serve::{Client, Response, Server, ServerConfig};
use std::net::SocketAddr;
use std::sync::Mutex;
use std::time::Instant;

const DEVICE: Device = Device::MacbookAirM2;
const CLIENTS: usize = 2;
const WORKERS: usize = 2;
const TENANTS: [&str; CLIENTS] = ["tenant-a", "tenant-b"];

/// Client-side timing of one served job.
#[derive(Debug, Clone, Copy)]
struct Served {
    accept_ms: f64,
    wait_ms: f64,
    frames: u64,
}

/// The job pool: client `c` alternates specs `2c` (TVLA) and `2c + 1`
/// (CPA), each seeded apart.
fn specs(cfg: &RunConfig) -> Vec<CampaignSpec> {
    (0..2 * CLIENTS)
        .map(|i| {
            let (mode, traces) = if i % 2 == 0 {
                (AnalysisMode::Tvla, cfg.size.serve_tvla_traces)
            } else {
                (AnalysisMode::Cpa, cfg.size.serve_cpa_traces)
            };
            let mut spec = CampaignSpec::new(mode, DEVICE, &ExperimentConfig::default());
            spec.traces = traces;
            spec.shards = 1;
            spec.seed = cfg.campaign_seed.wrapping_add(i as u64);
            spec.key = cfg.key;
            spec
        })
        .collect()
}

/// Observations one job of `spec` completes.
fn obs_of(spec: &CampaignSpec) -> u64 {
    match spec.mode {
        AnalysisMode::Tvla | AnalysisMode::Adaptive => 6 * spec.traces as u64,
        AnalysisMode::Cpa => spec.traces as u64,
    }
}

/// Submit one job with `wait` and read frames until its final one;
/// returns the report text (`None` when refused or failed) and timing.
fn serve_once(addr: SocketAddr, tenant: &str, spec: &str) -> (Option<String>, Served) {
    let t0 = Instant::now();
    let mut served = Served { accept_ms: 0.0, wait_ms: 0.0, frames: 0 };
    let Ok(mut client) = Client::connect(addr) else { return (None, served) };
    let accepted = matches!(client.submit(tenant, spec, true), Ok(Response::Accepted { .. }));
    let t1 = Instant::now();
    served.accept_ms = t1.duration_since(t0).as_secs_f64() * 1e3;
    if !accepted {
        return (None, served);
    }
    let frames = &mut served.frames;
    let text = match client.wait_for_report(|_| *frames += 1) {
        Ok(Response::Report { text, .. }) => Some(text),
        _ => None,
    };
    served.wait_ms = t1.elapsed().as_secs_f64() * 1e3;
    (text, served)
}

fn stop(server: Server) -> Result<(), String> {
    let addr = server.addr();
    let drained = Client::connect(addr).and_then(|mut c| c.drain());
    server.join();
    match drained {
        Ok(Response::Drained { .. }) => Ok(()),
        other => Err(format!("drain failed: {other:?}")),
    }
}

pub fn run(cfg: &RunConfig) -> Result<Outcome, String> {
    let specs = specs(cfg);
    let texts: Vec<String> = specs.iter().map(CampaignSpec::render).collect();
    // Inline references, computed before set-up: a served report must
    // equal the banner plus the inline `run_spec` body.
    let expected: Vec<String> =
        specs.iter().map(|s| campaign_banner(s) + &run_spec(s).body).collect();

    let mut out = Outcome::default();
    let mut server = None;
    for rep in 0..SETUP_REPS {
        let t0 = Instant::now();
        let config =
            ServerConfig { addr: "127.0.0.1:0".into(), workers: WORKERS, ..Default::default() };
        let started = Server::start(config).map_err(|e| format!("server start: {e}"))?;
        let (text, _) = serve_once(started.addr(), "warm-up", &texts[0]);
        out.setups_s.push(t0.elapsed().as_secs_f64());
        out.gate.check(text.as_ref() == Some(&expected[0]), || {
            "warm-up report differs from the inline run".into()
        });
        if rep + 1 < SETUP_REPS {
            stop(started)?;
        } else {
            server = Some(started);
        }
    }
    let server = server.expect("at least one set-up run");
    let addr = server.addr();

    let served_log = Mutex::new(Vec::<Served>::new());
    let job = |client: usize, i: u64, log: Option<&Mutex<Vec<Served>>>| {
        let idx = 2 * client + (i % 2) as usize;
        let (text, served) = serve_once(addr, TENANTS[client], &texts[idx]);
        if let Some(log) = log {
            log.lock().expect("served log lock").push(served);
        }
        Job { traces: obs_of(&specs[idx]), ok: text.as_ref() == Some(&expected[idx]) }
    };
    out.stats = closed_loop(CLIENTS, cfg.loop_seconds(), cfg.size.min_jobs, |c, i| job(c, i, None));

    if cfg.trace {
        let stats = closed_loop(CLIENTS, cfg.loop_seconds(), cfg.size.min_jobs, |c, i| {
            job(c, i, Some(&served_log))
        });
        out.gate.check(stats.failed == 0, || format!("{} traced job(s) failed", stats.failed));
        let served = served_log.into_inner().expect("served log lock");
        let metrics = server.metrics();
        traced(&specs, &expected, &served, &mut out);
        out.layers.extend([
            ("serve.jobs_rejected", metrics.counter(serve_names::REJECTED) as f64),
            ("serve.jobs_failed", metrics.counter(serve_names::FAILED) as f64),
            ("trace.overhead_pct", overhead_pct(&out.stats.latencies_ms, &stats.latencies_ms)),
        ]);
    }
    stop(server)?;
    Ok(out)
}

/// Inline runs of the served specs: `run_spec` time per job against the
/// client-side served timings, plus traced replicas of one TVLA and one
/// CPA spec for the simulator, pipeline and analysis layers.
fn traced(specs: &[CampaignSpec], expected: &[String], served: &[Served], out: &mut Outcome) {
    const REPS: usize = 3;
    let mut run_ms = Vec::new();
    for spec in specs {
        for _ in 0..REPS {
            let t0 = Instant::now();
            std::hint::black_box(run_spec(spec));
            run_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        }
    }
    let job_run_ms = measure::median(&run_ms);
    let median_of =
        |f: fn(&Served) -> f64| measure::median(&served.iter().map(f).collect::<Vec<_>>());
    let frames = served.iter().map(|s| s.frames).sum::<u64>() as f64;

    let (mut layers, mut paired) = (SimLayers::default(), SimLayers::default());
    let mut pipeline = Pipeline::default();
    let mut rig_ns = 0.0;
    let (mut finish_ms, mut correlate_ms) = (Vec::new(), Vec::new());
    for (spec, expected) in specs.iter().zip(expected).take(2) {
        let source = TracedLive::new(DEVICE, VictimKind::UserSpace, spec.key, spec.seed);
        for _ in 0..REPS {
            let campaign = Campaign::from_source(source.clone())
                .keys(&spec.keys())
                .traces(spec.traces)
                .shards(spec.shards)
                .tune(spec.tune)
                .metrics();
            let mut body = campaign_banner(spec);
            let metrics = match spec.mode {
                AnalysisMode::Cpa => {
                    let report = campaign.session().cpa(cpa_model);
                    body += &render_cpa_body(&report, &spec.key);
                    let t0 = Instant::now();
                    for k in spec.keys() {
                        std::hint::black_box(report.ranks(k, &spec.key));
                    }
                    correlate_ms.push(t0.elapsed().as_secs_f64() * 1e3);
                    report.metrics
                }
                _ => {
                    let report = campaign.session().tvla();
                    body += &render_tvla_body(&report);
                    let t0 = Instant::now();
                    for k in spec.keys() {
                        std::hint::black_box(report.matrix(k));
                    }
                    finish_ms.push(t0.elapsed().as_secs_f64() * 1e3);
                    report.metrics
                }
            };
            out.gate.check(body == *expected, || {
                format!("traced {} job differs from the inline run", spec.mode.token())
            });
            if let Some(m) = &metrics {
                pipeline.add(m, obs_of(spec));
            }
        }
        layers.add(&source.layers());
        let (spec_paired, rig_per_obs) = source.paired_check(&spec.keys());
        rig_ns += rig_per_obs * spec_paired.obs as f64;
        paired.add(&spec_paired);
    }
    // The identical rig's time per observation, weighted like `paired`.
    let rig_per_obs = rig_ns / paired.obs.max(1) as f64;
    let accounting = account(&mut out.gate, &layers, (paired, rig_per_obs), &pipeline);
    out.layers.extend(accounting);
    out.layers.extend([
        ("sca.tvla.finish_ms", measure::median(&finish_ms)),
        ("sca.cpa.correlate_ms", measure::median(&correlate_ms)),
        ("serve.accept_ms", median_of(|s| s.accept_ms)),
        ("serve.report_wait_ms", median_of(|s| s.wait_ms)),
        ("serve.job_run_ms", job_run_ms),
        ("serve.overhead_ms", median_of(|s| s.accept_ms + s.wait_ms) - job_run_ms),
        ("serve.progress_frames_per_job", frames / served.len().max(1) as f64),
    ]);
}
