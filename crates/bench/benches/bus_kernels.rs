//! Telemetry-bus kernel bench: the columnar-pipeline trajectory.
//!
//! Feeds the same observation stream into the same streaming TVLA
//! consumer cut into blocks of 1 to 128 rows (the autotuner's
//! `OBS_CHUNK` candidates plus one-row blocks): one bounded ring push/pop
//! and one `Processor` dispatch per block, processors updating per
//! column. The accumulators do not depend on how the stream is cut into
//! blocks (`tests/block_equivalence.rs`), so the numbers measure pure
//! pipeline overhead; `fastest_block_rows` is the sweep's argmin. The
//! bench clones each block into the bus; the real campaign drivers
//! recycle processed blocks back to the producer, so live pipelines do
//! strictly better than the benched figure.
//!
//! Also measures the observability tax: the same `OBS_CHUNK`-row
//! pipeline with the campaign drivers' consume-side instrumentation (two
//! clock reads and a histogram/counter update per block) against the
//! uninstrumented loop — the `metrics_overhead_pct` figure backing the
//! "zero-cost when off, a few percent when on" contract (when off, no
//! instrumentation code runs at all, so the off path IS the
//! uninstrumented number).
//!
//! Last, the masked 4-lane TVLA ingestion kernel against its
//! pinned-scalar twin (`tvla_simd_speedup`).
//!
//! The run appends one line to the bench history
//! (`psc_bench::measure`). Runtime scales with `PSC_BENCH_BUDGET_MS`
//! (default 300 ms per kernel) so CI can smoke it in quick mode.

use psc_bench::measure::Run;
use psc_sca::stats::{MomentsQuad, RunningMoments};
use psc_sca::tvla::PlaintextClass;
use psc_smc::key::key;
use psc_telemetry::block::EventBlock;
use psc_telemetry::event::{ChannelId, SchedEvent, WindowEvent};
use psc_telemetry::metrics::{names, MetricsRegistry};
use psc_telemetry::processor::Processor;
use psc_telemetry::processors::StreamingTvla;
use psc_telemetry::ring::{channel, OverflowPolicy};
use std::hint::black_box;
use std::time::Instant;

/// Observations per measured pipeline iteration.
const OBS: usize = 512;
/// Rows per block — the campaign drivers' default `OBS_CHUNK`.
const BLOCK_ROWS: usize = 32;
/// Block sizes swept: one-row blocks, then the autotuner's
/// `OBS_CHUNK_CANDIDATES`.
const BLOCK_ROWS_SWEEP: [usize; 5] = [1, 16, 32, 64, 128];

fn channels() -> [ChannelId; 3] {
    [ChannelId::Smc(key("PHPC")), ChannelId::Smc(key("PSTR")), ChannelId::Pcpu]
}

/// One synthetic campaign stream: `OBS` observations, three channels,
/// TVLA labels cycling through passes and classes.
fn observation(i: usize) -> (WindowEvent, [f64; 3], SchedEvent) {
    let time_s = i as f64;
    let window = WindowEvent {
        seq: i as u64,
        time_s,
        pass: (i % 2) as u8,
        class: Some(PlaintextClass::ALL[i % 3]),
        plaintext: [i as u8; 16],
        ciphertext: [(i * 7) as u8; 16],
    };
    let values = [5.0 + (i % 11) as f64 * 0.01, 1.2 + (i % 5) as f64 * 0.02, 900.0 + i as f64];
    let sched = SchedEvent { time_s, windows_consumed: 1, window_s: 1.0, denied_reads: 0 };
    (window, values, sched)
}

fn blocks_of(rows: usize) -> Vec<EventBlock> {
    let chans = channels();
    (0..OBS / rows)
        .map(|b| {
            let mut block = EventBlock::new();
            block.reset(&chans);
            for r in 0..rows {
                let (window, values, sched) = observation(b * rows + r);
                block.begin(window);
                for (col, &value) in values.iter().enumerate() {
                    block.sample(col, value);
                }
                block.commit(sched);
            }
            block
        })
        .collect()
}

/// Per-observation pipeline cost for one block size: publish every
/// prebuilt block, then drain them into the TVLA consumer.
fn per_obs_ns(run: &mut Run, rows: usize) -> f64 {
    let prebuilt = blocks_of(rows);
    let (tx, rx) = channel(prebuilt.len(), OverflowPolicy::Block);
    let mut tvla = StreamingTvla::new();
    let total = run.measure_ns(&format!("pipeline/rows{rows}_{OBS}obs"), || {
        for block in &prebuilt {
            tx.send(block.clone()).expect("receiver alive");
        }
        while let Some(block) = rx.try_recv() {
            tvla.on_block(&block);
        }
    });
    total / OBS as f64
}

fn main() {
    let mut run = Run::start("bus_kernels");

    // --- Pipeline: block-size sweep ---------------------------------------
    let sweep: Vec<(usize, f64)> =
        BLOCK_ROWS_SWEEP.iter().map(|&rows| (rows, per_obs_ns(&mut run, rows))).collect();
    let ns_at = |rows: usize| sweep.iter().find(|s| s.0 == rows).expect("swept").1;
    let (per_row, per_block) = (ns_at(1), ns_at(BLOCK_ROWS));
    let (fastest_rows, fastest_ns) =
        sweep.iter().copied().min_by(|a, b| a.1.total_cmp(&b.1)).expect("non-empty sweep");

    // Same per-block loop with the campaign drivers' consume-side
    // instrumentation: a block/observation counter bump and a timed
    // dispatch recorded into the `consume.on_block_ns` histogram, as
    // the session runner's consumer loop does when metrics are on.
    let prebuilt = blocks_of(BLOCK_ROWS);
    let registry = MetricsRegistry::new();
    let blocks_ctr = registry.counter(names::BUS_BLOCKS);
    let obs_ctr = registry.counter(names::BUS_OBS);
    let consume_ns = registry.histogram(names::CONSUME_BLOCK_NS);
    let (tx, rx) = channel(prebuilt.len(), OverflowPolicy::Block);
    let mut tvla = StreamingTvla::new();
    let per_block_metrics_total =
        run.measure_ns(&format!("pipeline/rows{BLOCK_ROWS}_metrics_{OBS}obs"), || {
            for block in &prebuilt {
                tx.send(block.clone()).expect("receiver alive");
            }
            while let Some(block) = rx.try_recv() {
                blocks_ctr.inc();
                obs_ctr.add(block.len() as u64);
                let started = Instant::now();
                tvla.on_block(&block);
                consume_ns.record(started.elapsed().as_nanos() as u64);
            }
        });
    let per_block_metrics = per_block_metrics_total / OBS as f64;
    let metrics_overhead_pct = (per_block_metrics / per_block - 1.0) * 100.0;

    // --- TVLA column ingestion: SIMD quad vs pinned scalar ----------------
    // The masked 4-lane Welford kernel behind `StreamingTvla::on_block`,
    // fed the same present/denied column pattern both ways.
    let quad_rows = 4096;
    let quad_cols: [Vec<Option<f64>>; 4] = core::array::from_fn(|lane| {
        (0..quad_rows)
            .map(|r| (r % 7 != lane).then_some(5.0 + (r % 11) as f64 * 0.01 + lane as f64))
            .collect()
    });
    let quad_refs: [&[Option<f64>]; 4] = core::array::from_fn(|i| quad_cols[i].as_slice());
    let fresh_quad = || MomentsQuad::load(core::array::from_fn(|_| RunningMoments::new()));
    let tvla_ingest_simd = run.measure_ns("tvla/quad_ingest_simd", || {
        let mut quad = fresh_quad();
        quad.extend_columns(quad_refs);
        black_box(quad.store()[0].raw().1);
    });
    let tvla_ingest_scalar = run.measure_ns("tvla/quad_ingest_scalar", || {
        let mut quad = fresh_quad();
        quad.extend_columns_scalar(quad_refs);
        black_box(quad.store()[0].raw().1);
    });

    let pipeline_speedup = per_row / per_block;
    let tvla_simd_speedup = tvla_ingest_scalar / tvla_ingest_simd;
    println!();
    println!("{BLOCK_ROWS}-row vs one-row blocks:   {pipeline_speedup:.2}x");
    println!("metrics-on per-block overhead:   {metrics_overhead_pct:+.1}%");
    println!("tvla quad ingest simd ({}) vs scalar: {tvla_simd_speedup:.2}x", pulp::backend_name());
    println!("fastest block rows:              {fastest_rows} ({fastest_ns:.1} ns/obs)");

    run.field("per_block_pipeline_ns_per_obs", per_block)
        .field("per_block_pipeline_metrics_ns_per_obs", per_block_metrics)
        .field("metrics_overhead_pct", metrics_overhead_pct)
        .field("block_pipeline_speedup", pipeline_speedup)
        .field("fastest_block_rows", fastest_rows as f64)
        .field("fastest_block_rows_ns_per_obs", fastest_ns)
        .field("tvla_simd_speedup", tvla_simd_speedup);
    run.finish();
}
