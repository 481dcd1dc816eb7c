//! Leakage/CPA hot-kernel bench: the activity-evaluation and CPA-table
//! trajectory.
//!
//! Compares the three generations of the per-trace activity evaluation —
//! traced (`encrypt_traced` + trace scan), fused (observer kernel,
//! allocation-free), memoized (`AesWorkload` per-plaintext cache) — and the
//! two CPA table strategies (rebuild the 512 KB hypothesis table per
//! accumulator vs `Arc`-share one guess-major table). The correlation
//! sweep over that table, one byte and all sixteen, is timed on the
//! runtime-dispatched SIMD backend and on its pinned-scalar twin
//! (`simd_speedup`, `all_bytes_simd_speedup`); this is the one place
//! the workspace times `Cpa::correlations`. Last, the run calibrates
//! once with `psc_core::tune` and records its picks as `autotune_*`
//! fields (`PSC_TUNE_REPS` trims the calibration cost in CI).
//!
//! The run appends one line to the bench history
//! (`psc_bench::measure`). Runtime scales with `PSC_BENCH_BUDGET_MS`
//! (default 300 ms per kernel), so CI can smoke it in quick mode.

use psc_aes::leakage::LeakageModel;
use psc_bench::measure::Run;
use psc_sca::cpa::{Cpa, HypTable};
use psc_sca::model::Rd0Hw;
use psc_sca::trace::Trace;
use psc_soc::workload::{shared_plaintext, AesWorkload};
use std::hint::black_box;
use std::sync::Arc;

fn main() {
    let key = [0x2Bu8; 16];
    let model = LeakageModel::new(&key).expect("valid key");
    let pt = [0xA5u8; 16];
    let mut run = Run::start("leakage_kernels");

    // --- Activity kernels -------------------------------------------------
    let traced = run.measure_ns("activity/traced", || {
        black_box(model.activity_traced(black_box(&pt)).0);
    });
    let fused = run.measure_ns("activity/fused", || {
        black_box(model.activity(black_box(&pt)));
    });
    let shared_pt = shared_plaintext(pt);
    let workload = AesWorkload::new(Arc::new(model), Arc::clone(&shared_pt));
    let memoized = run.measure_ns("activity/memoized_workload", || {
        black_box(workload.deterministic_signal_w());
    });

    // --- CPA table construction ------------------------------------------
    let table_rebuild = run.measure_ns("cpa/accumulator_rebuilt_table", || {
        black_box(Cpa::with_table(Box::new(Rd0Hw), Arc::new(HypTable::for_model(&Rd0Hw))));
    });
    let table = HypTable::shared(&Rd0Hw);
    let table_shared = run.measure_ns("cpa/accumulator_shared_table", || {
        black_box(Cpa::with_table(Box::new(Rd0Hw), Arc::clone(&table)));
    });

    // --- Correlation sweep: dispatched SIMD vs pinned scalar --------------
    // The `_simd` kernels run whatever backend the dispatcher picked (the
    // header's `simd_backend`); the `_scalar` twins run the identical
    // algorithm on the scalar backend, so the ratio is the pure vector win.
    let mut cpa = Cpa::with_table(Box::new(Rd0Hw), Arc::clone(&table));
    let mut state = 0x1234_5678_9ABC_DEF0u64;
    for _ in 0..4096 {
        let mut trace_pt = [0u8; 16];
        for b in trace_pt.iter_mut() {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            *b = (state >> 32) as u8;
        }
        let value = f64::from(trace_pt.iter().map(|&x| x.count_ones()).sum::<u32>());
        cpa.add_trace(&Trace { value, plaintext: trace_pt, ciphertext: trace_pt });
    }
    let mut corr_buf = [0.0f64; 256];
    let correlations_simd = run.measure_ns("cpa/correlations_simd", || {
        cpa.correlations_into(black_box(0), &mut corr_buf);
        black_box(corr_buf[0]);
    });
    let correlations_scalar = run.measure_ns("cpa/correlations_scalar", || {
        cpa.correlations_into_scalar(black_box(0), &mut corr_buf);
        black_box(corr_buf[0]);
    });
    let mut corr_all = [[0.0f64; 256]; 16];
    let all_simd = run.measure_ns("cpa/correlations_all_bytes_simd", || {
        cpa.correlations_all_into(&mut corr_all);
        black_box(corr_all[0][0]);
    });
    let all_scalar = run.measure_ns("cpa/correlations_all_bytes_scalar", || {
        cpa.correlations_all_into_scalar(&mut corr_all);
        black_box(corr_all[0][0]);
    });

    // --- Autotuner: one-shot calibration ----------------------------------
    let tuned = psc_core::tune::calibrate();
    println!(
        "leakage_kernels/autotune: unroll={} obs_chunk={} replay_chunk={} bus_capacity={}",
        tuned.cpa_unroll, tuned.obs_chunk, tuned.replay_chunk, tuned.bus_capacity
    );

    let fused_speedup = traced / fused;
    let memo_speedup = traced / memoized;
    let table_speedup = table_rebuild / table_shared;
    let simd_speedup = correlations_scalar / correlations_simd;
    let all_simd_speedup = all_scalar / all_simd;
    println!();
    println!("fused vs traced activity:        {fused_speedup:.2}x");
    println!("memoized workload vs traced:     {memo_speedup:.2}x");
    println!("shared vs rebuilt CPA table:     {table_speedup:.2}x");
    println!("simd ({}) vs scalar correlations:   {simd_speedup:.2}x", pulp::backend_name());
    println!("simd vs scalar all-bytes sweep:  {all_simd_speedup:.2}x");

    run.field("fused_speedup_vs_traced", fused_speedup)
        .field("memoized_speedup_vs_traced", memo_speedup)
        .field("shared_table_speedup", table_speedup)
        .field("simd_speedup", simd_speedup)
        .field("all_bytes_simd_speedup", all_simd_speedup)
        .field("autotune_cpa_unroll", tuned.cpa_unroll as f64)
        .field("autotune_obs_chunk", tuned.obs_chunk as f64)
        .field("autotune_replay_chunk", tuned.replay_chunk as f64)
        .field("autotune_bus_capacity", tuned.bus_capacity as f64);
    run.finish();
}
