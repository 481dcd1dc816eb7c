//! Distributed fleet aggregation bench: the cost of moving partial
//! accumulator state over the worker protocol and folding it back into
//! one report.
//!
//! Reported figures:
//!
//! * `partials_per_s` — encode + CRC + decode + dedup-admit throughput
//!   for a real partial frame (a member's codec-v3 checkpoint state as
//!   produced by an actual campaign run), i.e. how fast one aggregator
//!   thread can drain a partial stream;
//! * `merge_latency_us` — `merge_survivors` over both members' final
//!   states: the gap between the last `Done` and the finished report;
//! * `recovery_ms` — wall-clock cost of one injected disconnect +
//!   reconnect in a live distributed run (worker-measured, includes the
//!   jittered retry delay and the re-handshake).
//!
//! `PSC_BENCH_BUDGET_MS` scales the measured iteration counts so CI can
//! smoke the bench in quick mode. The run appends one line to the bench
//! history (`psc_bench::measure`).

use psc_bench::measure::Run;
use psc_core::spec::{AnalysisMode, CampaignSpec};
use psc_core::{Device, ExperimentConfig};
use psc_serve::fleet::{
    member_state, merge_survivors, run_worker, Aggregator, AggregatorConfig, DedupGate,
    MemberOutcome, WorkerConfig, WorkerMsg,
};
use std::time::Duration;

const TRACES_PER_CLASS: usize = 48;

fn fleet_spec() -> Result<CampaignSpec, String> {
    let cfg = ExperimentConfig::from_env()?;
    let mut spec = CampaignSpec::new(AnalysisMode::Tvla, Device::MacMiniM1, &cfg);
    spec.fleet = true;
    spec.traces = TRACES_PER_CLASS;
    spec.shards = 2;
    Ok(spec)
}

/// One live distributed run (threads over loopback TCP) with one
/// injected disconnect on member 1; returns that worker's measured
/// recovery time.
fn measure_recovery(spec: &CampaignSpec) -> Duration {
    let aggregator =
        Aggregator::bind("127.0.0.1:0", spec.clone(), AggregatorConfig::default()).expect("bind");
    let addr = aggregator.local_addr().expect("local addr");
    let agg = std::thread::spawn(move || aggregator.run());
    let members = spec.fleet_members().len();
    let dirs: Vec<std::path::PathBuf> = (0..members)
        .map(|m| {
            let dir =
                std::env::temp_dir().join(format!("psc_fleet_bench_{m}_{}", std::process::id()));
            std::fs::create_dir_all(&dir).expect("workdir");
            dir
        })
        .collect();
    let summaries: Vec<_> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..members)
            .map(|member| {
                let mut cfg = WorkerConfig::new(member, dirs[member].clone());
                cfg.heartbeat_interval = Duration::from_millis(50);
                if member == 1 {
                    cfg.faults.disconnects = 1;
                }
                let spec = spec.clone();
                scope.spawn(move || run_worker(addr, &spec, &cfg).expect("worker"))
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("worker thread")).collect()
    });
    agg.join().expect("aggregator thread").expect("aggregation");
    for dir in &dirs {
        std::fs::remove_dir_all(dir).ok();
    }
    assert_eq!(summaries[1].reconnects, 1, "the injected disconnect must have fired");
    summaries[1].recovery
}

fn main() -> Result<(), String> {
    let spec = fleet_spec()?;
    let mut run = Run::start("fleet_kernels");

    // Real partial payload: member 0's final checkpoint state from an
    // actual (socket-free) campaign run.
    let state = member_state(&spec, 0, None).expect("member 0 state");
    let frame_len = state.analysis.len();
    let partial = WorkerMsg::Partial { member: 0, epoch: 1, seq: 1, frame: state.analysis.clone() };

    let mut gate = DedupGate::default();
    let mut seq = 0u64;
    let partial_ns = run.measure_ns("partial_encode_decode_admit", || {
        let wire = partial.encode();
        let decoded = WorkerMsg::decode(&wire).expect("decode");
        let WorkerMsg::Partial { epoch, .. } = decoded else { panic!("partial") };
        seq += 1;
        assert!(gate.admit(epoch, seq), "fresh stamps always admit");
    });
    let partials_per_s = 1e9 / partial_ns;

    let outcomes = [
        MemberOutcome::Completed {
            state: member_state(&spec, 0, None).expect("member 0"),
            reconnects: 0,
        },
        MemberOutcome::Completed {
            state: member_state(&spec, 1, None).expect("member 1"),
            reconnects: 0,
        },
    ];
    let merge_ns = run.measure_ns("merge_survivors_2_members", || {
        let merged = merge_survivors(&spec, &outcomes).expect("merge");
        assert_eq!(merged.survivors, 2);
    });

    let recovery_ms = measure_recovery(&spec).as_secs_f64() * 1e3;
    println!(
        "fleet_kernels/disconnect_recovery                                    {recovery_ms:>12.1} ms"
    );

    run.string("mode", "tvla")
        .field("traces_per_class", TRACES_PER_CLASS as f64)
        .field("partial_frame_bytes", frame_len as f64)
        .field("partials_per_s", partials_per_s)
        .field("merge_latency_us", merge_ns / 1e3)
        .field("recovery_ms", recovery_ms);
    run.finish();
    Ok(())
}
