//! Window-simulation hot-loop bench: the batched-engine trajectory.
//!
//! Compares the scalar window loop (`Soc::run_window` per window — a thin
//! n=1 view over the engine; the one place the workspace times it)
//! against `Soc::run_windows` at several batch sizes, plus the rig-level
//! per-observation cost of `observe_window` vs the streaming
//! `observe_windows_with` campaign path. All variants are bit-identical
//! in output (pinned by `crates/soc/tests/batch_equivalence.rs` and
//! `tests/batched_rig_equivalence.rs`), so the numbers measure pure
//! engine overhead.
//!
//! Expected shape: the engine's segment persists across calls and is
//! rebuilt only when the operating point, the placements or the window
//! length change, so a 1-window call pays only the per-call signal-plan
//! evaluation (one per shared workload input) on top of the window
//! itself; batches amortize that and the batch bookkeeping. The rig-level
//! per-observation number is dominated by the SMC publish over the dense
//! index-keyed sensor runtime resolved once at `Smc::new`.
//!
//! The run appends one line to the bench history
//! (`psc_bench::measure`). Runtime scales with `PSC_BENCH_BUDGET_MS`
//! (default 300 ms per kernel) so CI can smoke it in quick mode.

use psc_aes::leakage::LeakageModel;
use psc_bench::measure::Run;
use psc_core::rig::{Device, Rig};
use psc_core::victim::VictimKind;
use psc_smc::key::key;
use psc_soc::sched::SchedAttrs;
use psc_soc::workload::{shared_plaintext, AesWorkload};
use psc_soc::{Soc, SocSpec, WindowBatch};
use std::hint::black_box;
use std::sync::Arc;

const BATCH_SIZES: [usize; 3] = [8, 64, 256];
/// Observations per batched rig call.
const RIG_CHUNK: usize = 32;

fn victim_soc() -> Soc {
    let mut soc = Soc::new(SocSpec::macbook_air_m2(), 42);
    let model = Arc::new(LeakageModel::new(&[0x2Bu8; 16]).unwrap());
    let pt = shared_plaintext([0xA5u8; 16]);
    let workload = AesWorkload::new(model, pt);
    for i in 0..3 {
        soc.spawn(format!("aes{i}"), SchedAttrs::realtime_p_core(), Box::new(workload.clone()));
    }
    soc
}

fn main() {
    let mut run = Run::start("window_kernels");

    // --- SoC engine: scalar loop vs batched sweeps ------------------------
    let mut soc = victim_soc();
    let scalar = run.measure_ns("soc/run_window_scalar", || {
        black_box(soc.run_window(black_box(1.0)));
    });

    let mut batched_ns = Vec::new();
    for &n in &BATCH_SIZES {
        let mut soc = victim_soc();
        let mut batch = WindowBatch::new();
        let total = run.measure_ns(&format!("soc/run_windows_{n}"), || {
            soc.run_windows_into(black_box(n), black_box(1.0), &mut batch);
            black_box(batch.len());
        });
        let per_window = total / n as f64;
        println!("window_kernels/soc/run_windows_{n:<26} per window: {per_window:>10.1} ns");
        batched_ns.push(per_window);
    }
    let best_batched = batched_ns.iter().copied().fold(f64::INFINITY, f64::min);

    // --- Rig pipeline: per-observation cost -------------------------------
    let keys = [key("PHPC")];
    let mut rig = Rig::new(Device::MacbookAirM2, VictimKind::UserSpace, [0x2Bu8; 16], 7);
    let rig_scalar = run.measure_ns("rig/observe_window", || {
        let pt = rig.random_plaintext();
        black_box(rig.observe_window(black_box(pt), &keys));
    });

    // The streaming form the block-building campaign drivers use: one
    // reused Observation staging buffer, no output Vec.
    let mut rig = Rig::new(Device::MacbookAirM2, VictimKind::UserSpace, [0x2Bu8; 16], 7);
    let mut pts: Vec<[u8; 16]> = Vec::with_capacity(RIG_CHUNK);
    let rig_stream_total = run.measure_ns("rig/observe_windows_stream_32", || {
        pts.clear();
        for _ in 0..RIG_CHUNK {
            pts.push(rig.random_plaintext());
        }
        rig.observe_windows_with(black_box(&pts), &keys, |obs| {
            black_box(obs.windows);
        });
    });
    let rig_stream = rig_stream_total / RIG_CHUNK as f64;
    println!(
        "window_kernels/rig/observe_windows_stream_32{:<2} per obs:    {rig_stream:>10.1} ns",
        ""
    );

    let engine_speedup = scalar / best_batched;
    let rig_speedup = rig_scalar / rig_stream;
    println!();
    println!("batched engine vs scalar loop:   {engine_speedup:.2}x");
    println!("streaming rig vs per-observation: {rig_speedup:.2}x");

    for (&n, &per_window) in BATCH_SIZES.iter().zip(&batched_ns) {
        run.field(&format!("batched_window_ns_b{n}"), per_window);
    }
    run.field("batched_engine_speedup", engine_speedup)
        .field("rig_observe_windows_stream32_per_obs_ns", rig_stream)
        .field("rig_batched_speedup", rig_speedup);
    run.finish();
}
