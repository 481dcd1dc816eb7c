//! Campaign-service bench: throughput and report latency of `psc serve`
//! under a concurrent burst.
//!
//! An in-process [`Server`] (2 workers, defaults otherwise) takes an
//! 8-job burst of small TVLA campaigns, every client using `--wait`
//! streaming, so the measured path is the full service stack: framed
//! wire protocol (encode + CRC + decode both ways), admission, the
//! bounded worker pool, the campaign itself, and report streaming.
//!
//! Reported figures:
//!
//! * `campaigns_per_s` — burst size over the wall-clock time from first
//!   submit to last report, the service's effective throughput when the
//!   queue stays warm (8 jobs over 2 workers);
//! * `p99_report_latency_ms` / `mean_report_latency_ms` — accepted → report
//!   latency from the server's own `serve.report_latency_ns` histogram,
//!   i.e. what a tenant actually waits including time spent queued;
//! * `p99_dispatch_wait_us` — queue → worker handoff from
//!   `serve.dispatch_wait_ns`, the admission controller's saturation
//!   signal.
//!
//! Trace budgets stay fixed (throughput here is jobs/s, not traces/s) and
//! `PSC_BENCH_BUDGET_MS` scales how many bursts are averaged, so CI can
//! smoke the bench in quick mode. Writes `BENCH_serve.json` at the
//! workspace root (override with `PSC_BENCH_OUT`).

use psc_bench::measure::{budget, json_field, json_header, write_artifact};
use psc_core::spec::{AnalysisMode, CampaignSpec};
use psc_core::{Device, ExperimentConfig};
use psc_serve::proto::Response;
use psc_serve::server::names;
use psc_serve::{submit_and_wait, AdmissionConfig, Client, Server, ServerConfig};
use std::time::{Duration, Instant};

const BENCH: &str = "serve_kernels";
const WORKERS: usize = 2;
const BURST: usize = 8;
const TRACES_PER_CLASS: usize = 120;
const SHARDS: usize = 2;

fn burst_spec() -> String {
    let cfg = ExperimentConfig::from_env();
    let mut spec = CampaignSpec::new(AnalysisMode::Tvla, Device::MacMiniM1, &cfg);
    spec.traces = TRACES_PER_CLASS;
    spec.shards = SHARDS;
    spec.render()
}

/// Run one 8-job burst against `addr`; returns first-submit → last-report
/// wall time. Panics on any non-report outcome — a rejection here means
/// the bench configuration is wrong, not that the service is slow.
fn run_burst(addr: std::net::SocketAddr, spec: &str) -> Duration {
    let start = Instant::now();
    std::thread::scope(|scope| {
        for job in 0..BURST {
            scope.spawn(move || match submit_and_wait(addr, &format!("bench-{job}"), spec) {
                Ok(Response::Report { .. }) => {}
                other => panic!("burst job {job}: expected a report, got {other:?}"),
            });
        }
    });
    start.elapsed()
}

fn main() {
    let spec = burst_spec();
    let server = Server::start(ServerConfig {
        addr: "127.0.0.1:0".into(),
        workers: WORKERS,
        admission: AdmissionConfig { max_queue: BURST, ..AdmissionConfig::default() },
        spool: None,
        progress_interval: Duration::from_millis(20),
        ..ServerConfig::default()
    })
    .expect("bind loopback");
    let addr = server.addr();

    // One warm-up burst (thread pool, allocator, listener), then as many
    // measured bursts as the budget allows, minimum one.
    run_burst(addr, &spec);
    let mut wall = Vec::new();
    let deadline = Instant::now() + budget();
    loop {
        wall.push(run_burst(addr, &spec).as_secs_f64());
        if Instant::now() >= deadline || wall.len() >= 9 {
            break;
        }
    }
    let bursts = wall.len();
    let mean_wall = wall.iter().sum::<f64>() / bursts as f64;
    let campaigns_per_s = BURST as f64 / mean_wall;

    // Latency distributions from the server's own histograms — these
    // cover the warm-up burst too, which only widens the tails.
    let metrics = server.metrics();
    let report_hist =
        metrics.histogram(names::REPORT_LATENCY_NS).expect("report latency histogram");
    let p99_report_ms = report_hist.percentile(0.99).unwrap_or(0) as f64 / 1e6;
    let mean_report_ms = report_hist.mean() / 1e6;
    let p99_dispatch_us =
        metrics.histogram(names::DISPATCH_WAIT_NS).and_then(|h| h.percentile(0.99)).unwrap_or(0)
            as f64
            / 1e3;
    let completed = metrics.counter(names::COMPLETED) as f64;

    let mut drainer = Client::connect(addr).expect("connect");
    drainer.drain().expect("drain");
    server.join();

    println!(
        "{BENCH}/burst{BURST}x{TRACES_PER_CLASS}tr  {campaigns_per_s:>8.2} campaigns/s  \
         p99 report {p99_report_ms:>8.1} ms  ({bursts} burst(s))"
    );

    let mut json = json_header(BENCH);
    json.string("mode", "tvla");
    json_field(&mut json, "workers", WORKERS as f64);
    json_field(&mut json, "burst_jobs", BURST as f64);
    json_field(&mut json, "traces_per_class", TRACES_PER_CLASS as f64);
    json_field(&mut json, "shards_per_job", SHARDS as f64);
    json_field(&mut json, "bursts_measured", bursts as f64);
    json_field(&mut json, "campaigns_per_s", campaigns_per_s);
    json_field(&mut json, "mean_burst_wall_s", mean_wall);
    json_field(&mut json, "p99_report_latency_ms", p99_report_ms);
    json_field(&mut json, "mean_report_latency_ms", mean_report_ms);
    json_field(&mut json, "p99_dispatch_wait_us", p99_dispatch_us);
    json_field(&mut json, "campaigns_completed", completed);
    let path =
        write_artifact(json, &format!("{}/../../BENCH_serve.json", env!("CARGO_MANIFEST_DIR")));
    println!("{BENCH}: wrote {path}");
}
