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
//! * `burst8x120tr` — the wall-clock time from first submit to last
//!   report of one burst, timed like every kernel (an estimation burst
//!   that also warms the pool, then one burst per sample);
//! * `campaigns_per_s` — burst size over that median, the service's
//!   effective throughput when the queue stays warm (8 jobs over 2
//!   workers);
//! * `p99_report_latency_ms` / `mean_report_latency_ms` — accepted → report
//!   latency from the server's own `serve.report_latency_ns` histogram,
//!   i.e. what a tenant actually waits including time spent queued;
//! * `p99_dispatch_wait_us` — queue → worker handoff from
//!   `serve.dispatch_wait_ns`, the admission controller's saturation
//!   signal.
//!
//! Trace budgets stay fixed (throughput here is jobs/s, not traces/s), so
//! a burst outlasts any per-sample budget and each sample is one burst.
//! The run appends one line to the bench history (`psc_bench::measure`).

use psc_bench::measure::Run;
use psc_core::spec::{AnalysisMode, CampaignSpec};
use psc_core::{Device, ExperimentConfig};
use psc_serve::proto::Response;
use psc_serve::server::names;
use psc_serve::{submit_and_wait, AdmissionConfig, Client, Server, ServerConfig};
use std::time::Duration;

const WORKERS: usize = 2;
const BURST: usize = 8;
const TRACES_PER_CLASS: usize = 120;
const SHARDS: usize = 2;

fn burst_spec() -> Result<String, String> {
    let cfg = ExperimentConfig::from_env()?;
    let mut spec = CampaignSpec::new(AnalysisMode::Tvla, Device::MacMiniM1, &cfg);
    spec.traces = TRACES_PER_CLASS;
    spec.shards = SHARDS;
    Ok(spec.render())
}

/// Run one 8-job burst against `addr`. Panics on any non-report
/// outcome — a rejection here means the bench configuration is wrong, not
/// that the service is slow.
fn run_burst(addr: std::net::SocketAddr, spec: &str) {
    std::thread::scope(|scope| {
        for job in 0..BURST {
            scope.spawn(move || match submit_and_wait(addr, &format!("bench-{job}"), spec) {
                Ok(Response::Report { .. }) => {}
                other => panic!("burst job {job}: expected a report, got {other:?}"),
            });
        }
    });
}

fn main() -> Result<(), String> {
    let spec = burst_spec()?;
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

    let mut run = Run::start("serve_kernels");
    let burst_ns =
        run.measure_ns(&format!("burst{BURST}x{TRACES_PER_CLASS}tr"), || run_burst(addr, &spec));
    let campaigns_per_s = BURST as f64 / (burst_ns / 1e9);

    // Latency distributions from the server's own histograms — these
    // cover the estimation burst too, which only widens the tails.
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
        "serve_kernels/burst{BURST}x{TRACES_PER_CLASS}tr  {campaigns_per_s:>8.2} campaigns/s  \
         p99 report {p99_report_ms:>8.1} ms"
    );

    run.string("mode", "tvla")
        .field("workers", WORKERS as f64)
        .field("burst_jobs", BURST as f64)
        .field("traces_per_class", TRACES_PER_CLASS as f64)
        .field("shards_per_job", SHARDS as f64)
        .field("campaigns_per_s", campaigns_per_s)
        .field("p99_report_latency_ms", p99_report_ms)
        .field("mean_report_latency_ms", mean_report_ms)
        .field("p99_dispatch_wait_us", p99_dispatch_us)
        .field("campaigns_completed", completed);
    run.finish();
    Ok(())
}
