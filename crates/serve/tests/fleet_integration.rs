//! End-to-end distributed fleet aggregation: an aggregator plus one
//! `run_worker` per fleet member (threads here; real processes in the
//! CLI smoke test) must reproduce the in-process fleet run **byte for
//! byte** on TVLA and CPA, and the whole transport fault matrix —
//! disconnect + reconnect, delayed frames, corrupted frames — must
//! never panic the aggregator, dedup exactly, and leave the survivor
//! merge equal to the fault-free run.

use psc_core::report;
use psc_core::session::ShardHealth;
use psc_core::spec::{AnalysisMode, CampaignSpec};
use psc_core::{Device, TuneConfig};
use psc_serve::fleet::{
    run_worker, Aggregator, AggregatorConfig, FleetOutcome, WorkerConfig, WorkerSummary,
};
use std::path::PathBuf;
use std::time::Duration;

fn spec(mode: AnalysisMode, traces: usize) -> CampaignSpec {
    CampaignSpec {
        mode,
        device: Device::MacMiniM1,
        kernel: false,
        fleet: true,
        traces,
        shards: 2,
        seed: 0x00D5_C0DE,
        key: *b"fleet-integratio",
        every: 4,
        tune: TuneConfig::default(),
        mitigation: None,
        record: None,
        monitor: None,
    }
}

fn temp_dir(tag: &str, member: usize) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("psc_fleet_itest_{tag}_{member}_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn cleanup(dir: &PathBuf) {
    if let Ok(entries) = std::fs::read_dir(dir) {
        for e in entries.flatten() {
            std::fs::remove_file(e.path()).ok();
        }
    }
    std::fs::remove_dir(dir).ok();
}

/// Run a full distributed campaign: bind the aggregator on an
/// ephemeral port, spawn one worker thread per config, join everything.
fn run_distributed(
    spec: &CampaignSpec,
    tag: &str,
    mut tweak: impl FnMut(usize, &mut WorkerConfig),
) -> (FleetOutcome, Vec<WorkerSummary>) {
    let members = spec.fleet_members().len();
    let aggregator =
        Aggregator::bind("127.0.0.1:0", spec.clone(), AggregatorConfig::default()).expect("bind");
    let addr = aggregator.local_addr().expect("local addr");
    let agg_handle = std::thread::spawn(move || aggregator.run());
    let dirs: Vec<PathBuf> = (0..members).map(|m| temp_dir(tag, m)).collect();
    let summaries: Vec<WorkerSummary> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..members)
            .map(|member| {
                let mut cfg = WorkerConfig::new(member, dirs[member].clone());
                cfg.heartbeat_interval = Duration::from_millis(50);
                tweak(member, &mut cfg);
                let spec = spec.clone();
                scope.spawn(move || run_worker(addr, &spec, &cfg).expect("worker"))
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("worker thread")).collect()
    });
    let outcome = agg_handle.join().expect("aggregator thread").expect("aggregation");
    for dir in &dirs {
        cleanup(dir);
    }
    (outcome, summaries)
}

fn inline_baseline(spec: &CampaignSpec) -> (String, Vec<u8>) {
    let outcome = report::run_spec(spec);
    (report::campaign_banner(spec) + &outcome.body, outcome.analysis)
}

#[test]
fn distributed_tvla_is_byte_identical_to_the_inline_fleet_run() {
    let spec = spec(AnalysisMode::Tvla, 48);
    let (baseline_text, baseline_analysis) = inline_baseline(&spec);
    let (outcome, summaries) = run_distributed(&spec, "tvla", |_, _| {});

    assert_eq!(outcome.merged.text, baseline_text, "report text must match byte for byte");
    assert_eq!(outcome.merged.analysis, baseline_analysis, "encoded analysis state must match");
    assert_eq!(outcome.merged.survivors, 2);
    assert!(outcome.merged.health.iter().all(ShardHealth::is_ok));
    assert_eq!(outcome.stats.corrupt_frames, 0);
    assert_eq!(outcome.stats.reconnects, 0);
    for s in &summaries {
        assert_eq!(s.epochs, 1, "no reconnects on a clean transport");
    }
}

#[test]
fn distributed_cpa_is_byte_identical_to_the_inline_fleet_run() {
    let spec = spec(AnalysisMode::Cpa, 48);
    let (baseline_text, baseline_analysis) = inline_baseline(&spec);
    let (outcome, _) = run_distributed(&spec, "cpa", |_, _| {});

    assert_eq!(outcome.merged.text, baseline_text, "report text must match byte for byte");
    assert_eq!(outcome.merged.analysis, baseline_analysis, "encoded analysis state must match");
    assert_eq!(outcome.merged.survivors, 2);
}

/// Disconnect + reconnect: the worker's epoch bumps, re-sends dedup
/// exactly once, and the merged accumulators equal the fault-free run
/// — the member surfaces as `Degraded` with the reconnect count.
#[test]
fn a_disconnecting_worker_reconnects_and_merges_exactly_once() {
    let spec = spec(AnalysisMode::Tvla, 48);
    let (_, baseline_analysis) = inline_baseline(&spec);
    let (outcome, summaries) = run_distributed(&spec, "disc", |member, cfg| {
        if member == 1 {
            cfg.faults.disconnects = 1;
        }
    });

    assert_eq!(
        outcome.merged.analysis, baseline_analysis,
        "reconnect re-sends must merge exactly once"
    );
    assert_eq!(outcome.merged.survivors, 2);
    assert!(outcome.merged.health[0].is_ok());
    assert!(
        matches!(outcome.merged.health[1], ShardHealth::Degraded { .. }),
        "a reconnected member is degraded, not failed: {:?}",
        outcome.merged.health[1]
    );
    assert_eq!(summaries[1].reconnects, 1, "exactly the injected disconnect");
    assert_eq!(summaries[1].epochs, 2, "one epoch bump");
    assert!(outcome.stats.reconnects >= 1);
}

/// Delayed frames slow the stream down but change nothing: full byte
/// identity, all members healthy.
#[test]
fn delayed_frames_change_nothing() {
    let spec = spec(AnalysisMode::Tvla, 48);
    let (baseline_text, baseline_analysis) = inline_baseline(&spec);
    let (outcome, _) = run_distributed(&spec, "delay", |_, cfg| {
        cfg.faults.frame_delay_us = 2_000;
    });

    assert_eq!(outcome.merged.text, baseline_text);
    assert_eq!(outcome.merged.analysis, baseline_analysis);
    assert!(outcome.merged.health.iter().all(ShardHealth::is_ok));
}

/// Corrupted frames are CRC-rejected and counted — never merged, never
/// a panic — and the final result is unharmed because partials are
/// cumulative and the terminal exchange retries under a fresh stamp.
#[test]
fn corrupted_frames_are_rejected_and_the_merge_is_unharmed() {
    let spec = spec(AnalysisMode::Tvla, 48);
    let (_, baseline_analysis) = inline_baseline(&spec);
    let (outcome, summaries) = run_distributed(&spec, "corrupt", |member, cfg| {
        if member == 0 {
            cfg.faults.frame_corrupt = 1;
        }
    });

    assert_eq!(outcome.merged.analysis, baseline_analysis, "corruption must never merge");
    assert_eq!(outcome.merged.survivors, 2);
    assert_eq!(outcome.stats.corrupt_frames, 1, "exactly the injected corruption");
    assert!(summaries[0].rejected >= 1, "the worker saw its frame refused");
}

/// Frame drops starve the partial stream but the campaign still lands:
/// dropped advisory frames cost nothing, the terminal exchange is
/// drop-exempt, and the merge equals the fault-free run.
#[test]
fn dropped_partials_do_not_stall_completion() {
    let spec = spec(AnalysisMode::Tvla, 48);
    let (baseline_text, baseline_analysis) = inline_baseline(&spec);
    let (outcome, _) = run_distributed(&spec, "drop", |_, cfg| {
        cfg.faults.frame_drops = 3;
    });

    assert_eq!(outcome.merged.text, baseline_text);
    assert_eq!(outcome.merged.analysis, baseline_analysis);
    assert_eq!(outcome.merged.survivors, 2);
}

/// A worker that never shows up is demoted on the join deadline and
/// the survivor-restricted merge still completes, for each mode a fleet
/// can distribute.
#[test]
fn a_missing_worker_is_demoted_and_survivors_merge() {
    for mode in [AnalysisMode::Tvla, AnalysisMode::Cpa] {
        a_missing_worker_is_demoted(mode);
    }
}

fn a_missing_worker_is_demoted(mode: AnalysisMode) {
    let spec = spec(mode, 48);
    let cfg = AggregatorConfig {
        join_timeout: Duration::from_millis(1_500),
        heartbeat_timeout: Duration::from_millis(1_500),
        ..AggregatorConfig::default()
    };
    let aggregator = Aggregator::bind("127.0.0.1:0", spec.clone(), cfg).expect("bind");
    let addr = aggregator.local_addr().expect("local addr");
    let agg_handle = std::thread::spawn(move || aggregator.run());

    // Only member 0 ever connects.
    let dir = temp_dir(&format!("missing_{}", mode.token()), 0);
    let mut wcfg = WorkerConfig::new(0, dir.clone());
    wcfg.heartbeat_interval = Duration::from_millis(50);
    run_worker(addr, &spec, &wcfg).expect("worker 0");
    let outcome = agg_handle.join().expect("aggregator thread").expect("aggregation");
    cleanup(&dir);

    assert_eq!(outcome.merged.survivors, 1, "{mode:?}");
    assert!(outcome.merged.health[0].is_ok(), "{mode:?}");
    assert!(
        matches!(outcome.merged.health[1], ShardHealth::Failed { .. }),
        "{mode:?}: the absent member fails: {:?}",
        outcome.merged.health[1]
    );

    // Survivor equality: the merge equals the fault-free run restricted
    // to member 0 — built without sockets via the same member_state
    // helper the worker uses.
    let state = psc_serve::fleet::member_state(&spec, 0, None).expect("member 0 state");
    let restricted = psc_serve::fleet::merge_survivors(
        &spec,
        &[
            psc_serve::fleet::MemberOutcome::Completed { state, reconnects: 0 },
            psc_serve::fleet::MemberOutcome::Failed { reason: "never connected".into() },
        ],
    )
    .expect("restricted merge");
    assert_eq!(
        outcome.merged.analysis, restricted.analysis,
        "{mode:?}: survivor-restricted equality"
    );
    assert_eq!(outcome.merged.text, restricted.text, "{mode:?}: survivor-restricted report");
}
