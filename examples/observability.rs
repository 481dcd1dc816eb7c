//! Observability: metrics, spans, and cadence for a sharded campaign.
//!
//! Runs one streaming TVLA campaign with the full observability stack
//! switched on — per-shard `MetricsRegistry` merged into a
//! `MetricsReport`, a `SpanTracer` collecting campaign→shard→stage
//! spans, and a `ThrottleMonitor` snapshotting collection cadence —
//! then prints the pipeline's vital signs and emits both JSON
//! artifacts (metrics report + Chrome trace-event file, loadable in
//! Perfetto via ui.perfetto.dev) after checking that they parse.
//!
//! Run with: `cargo run --release --example observability`

use apple_power_sca::core::{Campaign, Device, VictimKind};
use apple_power_sca::smc::key::key;
use apple_power_sca::telemetry::json::validate_json;
use apple_power_sca::telemetry::metrics::names;
use apple_power_sca::telemetry::spans::SpanTracer;
use std::sync::Arc;

fn main() {
    let secret_key = [
        0xB7, 0x6F, 0xEB, 0x3E, 0xD5, 0x9D, 0x77, 0xFA, 0xCE, 0xBB, 0x67, 0xF3, 0x5E, 0xAD, 0xD9,
        0x7C,
    ];
    let keys = [key("PHPC"), key("PSTR")];
    let tracer = Arc::new(SpanTracer::new());

    println!("== Campaign with metrics + spans + cadence monitor on ==");
    let report = Campaign::live(Device::MacbookAirM2, VictimKind::UserSpace, secret_key, 2024)
        .keys(&keys)
        .traces(400)
        .shards(2)
        .metrics()
        .monitor(0.5) // cadence checkpoint every 0.5 s of simulated time
        .tracer(Arc::clone(&tracer))
        .session()
        .tvla();

    let metrics = report.metrics.as_ref().expect(".metrics() was requested");
    println!("wall time        : {:.3} s over {} shards", metrics.wall_s, metrics.shards);
    println!(
        "throughput       : {:.0} obs/s in {:.0} blocks/s",
        metrics.obs_per_s(),
        metrics.blocks_per_s()
    );
    let snap = &metrics.snapshot;
    println!(
        "bus              : {} blocks, {} observations, high water {} blocks, drop rate {:.3}",
        snap.counter(names::BUS_BLOCKS),
        snap.counter(names::BUS_OBS),
        snap.gauge(names::BUS_HIGH_WATER),
        metrics.drop_rate()
    );
    println!(
        "recycle lane     : {} hits / {} misses",
        snap.counter(names::RECYCLE_HITS),
        snap.counter(names::RECYCLE_MISSES)
    );
    if let Some(fill) = snap.histogram(names::SOURCE_FILL_NS) {
        println!("source fill      : {} blocks, mean {:.0} ns", fill.count(), fill.mean());
    }
    if let Some(consume) = snap.histogram(names::CONSUME_BLOCK_NS) {
        println!("consume dispatch : {} blocks, mean {:.0} ns", consume.count(), consume.mean());
    }

    println!("\n== Cadence checkpoints (per shard) ==");
    for (shard, checkpoints) in report.shard_cadence.iter().enumerate() {
        let last = checkpoints.last();
        println!(
            "shard {shard}: {} checkpoints{}",
            checkpoints.len(),
            last.map(|c| format!(
                ", last at {:.1} s with {} observations (stretch {:.2}x)",
                c.time_s, c.observations, c.stretch
            ))
            .unwrap_or_default()
        );
    }

    println!("\n== Spans ==");
    let spans = tracer.spans();
    for span in &spans {
        println!("  [tid {:>2}] {:<24} {:>8} us", span.tid, span.name, span.dur_us);
    }

    // Both artifacts must parse — the same check `psc campaign
    // --metrics/--trace` consumers rely on.
    let metrics_json = metrics.to_json();
    validate_json(&metrics_json).expect("metrics report is valid JSON");
    let trace_json = tracer.to_chrome_json();
    validate_json(&trace_json).expect("chrome trace is valid JSON");

    let out_dir = std::env::temp_dir();
    let metrics_path = out_dir.join("psc_observability_metrics.json");
    let trace_path = out_dir.join("psc_observability_trace.json");
    std::fs::write(&metrics_path, &metrics_json).expect("write metrics artifact");
    std::fs::write(&trace_path, &trace_json).expect("write trace artifact");
    println!("\nwrote {} ({} bytes)", metrics_path.display(), metrics_json.len());
    println!(
        "wrote {} ({} bytes) — load in ui.perfetto.dev",
        trace_path.display(),
        trace_json.len()
    );

    assert_eq!(report.io_errors, 0, "no recorder in this campaign");
    println!("\nTVLA verdicts unchanged by instrumentation (metrics only observe):");
    for smc_key in keys {
        let matrix = report.matrix(smc_key).expect("channel collected");
        let verdict =
            if matrix.is_data_dependent() { "DATA-DEPENDENT" } else { "no data dependence" };
        println!("  {smc_key}: {verdict}");
    }
}
