//! Campaign-service walkthrough: an in-process `psc serve` daemon, three
//! tenants submitting TVLA/CPA campaigns over the framed wire protocol,
//! progress streaming, admission control shedding a fourth job, and a
//! graceful drain.
//!
//! Everything here is exactly what the `psc serve` / `psc submit` /
//! `psc jobs` / `psc drain` subcommands do — the example just drives the
//! library API directly so the whole exchange fits in one process.
//!
//! Run with: `cargo run --release --example serve_client`

use apple_power_sca::core::spec::{AnalysisMode, CampaignSpec};
use apple_power_sca::core::{Device, ExperimentConfig};
use apple_power_sca::serve::server::names;
use apple_power_sca::serve::{AdmissionConfig, Client, Response, Server, ServerConfig};
use apple_power_sca::telemetry::metrics::names as pipeline_names;
use std::time::Duration;

fn spec(cfg: &ExperimentConfig, mode: AnalysisMode, traces: usize) -> String {
    let mut spec = CampaignSpec::new(mode, Device::MacMiniM1, cfg);
    spec.traces = traces;
    spec.shards = 2;
    // `render()` produces the same `campaign.cfg` text `psc campaign
    // --checkpoint` writes and `psc submit FILE` reads — the wire
    // protocol carries specs in exactly this form.
    spec.render()
}

fn main() -> Result<(), String> {
    let cfg = ExperimentConfig::from_env()?;
    // ── Stage 1: start the daemon ──────────────────────────────────────
    // Two workers, and a queue capped at one waiting job so the example
    // can show admission control shedding load.
    let server = Server::start(ServerConfig {
        addr: "127.0.0.1:0".into(), // ephemeral port, like `psc serve --addr`
        workers: 2,
        admission: AdmissionConfig { max_queue: 1, ..AdmissionConfig::default() },
        spool: None,
        progress_interval: Duration::from_millis(25),
        ..ServerConfig::default()
    })
    .expect("bind loopback");
    let addr = server.addr();
    println!("── serving on {addr} (2 workers, queue cap 1) ──");

    // ── Stage 2: one tenant submits and streams the report ─────────────
    let mut alice = Client::connect(addr).expect("connect");
    match alice.submit("alice", &spec(&cfg, AnalysisMode::Tvla, 300), true).expect("submit") {
        Response::Accepted { job } => println!("[alice] job {job} accepted, streaming ..."),
        other => panic!("unexpected response: {other:?}"),
    }
    let mut progress_frames = 0u32;
    let finale = alice
        .wait_for_report(|metrics| {
            // Each Progress frame carries the live merge of the job's
            // per-shard pipeline metrics — the same counters `--metrics`
            // reports for an inline campaign.
            progress_frames += 1;
            let blocks = metrics.counter(pipeline_names::BUS_BLOCKS);
            println!("[alice]   progress: {blocks} block(s) consumed so far");
        })
        .expect("stream");
    match finale {
        Response::Report { job, mode, text, analysis, .. } => {
            println!(
                "[alice] job {job} done after {progress_frames} progress frame(s): \
                 {mode:?} report, {} byte(s) of encoded analysis state",
                analysis.len()
            );
            // The text is byte-identical to `psc campaign` on this spec.
            print!("{text}");
        }
        other => panic!("unexpected final frame: {other:?}"),
    }

    // ── Stage 3: saturate the service ──────────────────────────────────
    // Three long CPA jobs fill both workers and the one queue slot; a
    // fourth submission is shed with a *typed* refusal, not a hangup.
    println!("── saturating: 3 long CPA jobs, then one too many ──");
    let long = spec(&cfg, AnalysisMode::Cpa, 20_000);
    for tenant in ["bob", "carol", "dave"] {
        let mut c = Client::connect(addr).expect("connect");
        match c.submit(tenant, &long, false).expect("submit") {
            Response::Accepted { job } => println!("[{tenant}] job {job} accepted"),
            other => panic!("unexpected response: {other:?}"),
        }
    }
    // Wait until the service is genuinely saturated — both workers
    // running and the queue slot held — so the refusal below is
    // deterministic (a worker may otherwise pick the queued job up
    // between dave's ack and eve's submit).
    loop {
        let mut c = Client::connect(addr).expect("connect");
        let Response::JobList { jobs, .. } = c.status().expect("status") else {
            panic!("expected JobList")
        };
        use apple_power_sca::serve::proto::JobState;
        let running = jobs.iter().filter(|j| j.state == JobState::Running).count();
        let queued = jobs.iter().filter(|j| j.state == JobState::Queued).count();
        if running >= 2 && queued >= 1 {
            break;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    let mut eve = Client::connect(addr).expect("connect");
    match eve.submit("eve", &spec(&cfg, AnalysisMode::Tvla, 10), false).expect("submit") {
        Response::Rejected { reason } => println!("[eve] shed by admission: {reason}"),
        other => panic!("expected a rejection, got {other:?}"),
    }

    // ── Stage 4: inspect, then drain ───────────────────────────────────
    let mut ops = Client::connect(addr).expect("connect");
    if let Response::JobList { jobs, server } = ops.status().expect("status") {
        println!("── job table ──");
        for j in &jobs {
            println!("  job {} [{}] {} -> {}", j.id, j.tenant, j.mode.token(), j.state.label());
        }
        println!(
            "  service: {} submitted / {} rejected, peak {} running",
            server.counter(names::SUBMITTED),
            server.counter(names::REJECTED),
            server.gauge(names::PEAK_RUNNING),
        );
    }
    // Drain: queued jobs are rejected, running ones stop cooperatively
    // at their next block boundary, then the listener shuts down.
    let mut ops = Client::connect(addr).expect("connect");
    match ops.drain().expect("drain") {
        Response::Drained { completed, rejected } => {
            println!("── drained: {completed} completed, {rejected} rejected from the queue ──");
        }
        other => panic!("unexpected response: {other:?}"),
    }
    server.join();
    Ok(())
}
