//! The fault-injection matrix: {transient source error, recorder write
//! failure, consumer panic} × {TVLA, CPA, adaptive TVLA}.
//!
//! The contract under test:
//!
//! * a fault that recovers on retry costs nothing — results stay
//!   bit-identical to the fault-free run and every shard reports
//!   [`ShardHealth::Ok`];
//! * a fault that exhausts its retries degrades exactly one shard
//!   ([`ShardHealth::Degraded`]) and the merged result equals the
//!   fault-free campaign restricted to the surviving shards;
//! * a consumer panic fails exactly one shard ([`ShardHealth::Failed`]),
//!   the campaign still completes, and the survivors merge clean;
//! * recorder I/O accounting is exact: recovered retries land in
//!   `io_retries`, lost batches in `io_errors`.
//!
//! Shard `k` of an N-shard campaign is seeded `seed + k` and collects
//! `split_counts(traces, N)[k]` traces, so "the fault-free run restricted
//! to shard 0" is simply a single-shard campaign with the same seed and
//! shard 0's slice of the budget.

use psc_core::{Campaign, Device, ShardHealth, ShardReplay, VictimKind};
use psc_sca::model::Rd0Hw;
use psc_smc::key::key;
use psc_telemetry::event::ChannelId;
use psc_telemetry::processors::StreamingTvla;
use psc_telemetry::{FaultPlan, RetryPolicy};
use std::path::PathBuf;

const SECRET: [u8; 16] = [0x2B; 16];
const SEED: u64 = 4242;

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("psc_faults_{tag}_{}", std::process::id()));
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

fn assert_tvla_bit_identical(a: &StreamingTvla, b: &StreamingTvla, keys: &[ChannelId]) {
    for &channel in keys {
        let label = channel.to_string();
        let am = a.matrix(channel, label.clone()).expect("channel in a");
        let bm = b.matrix(channel, label).expect("channel in b");
        for (ac, bc) in am.cells.iter().zip(&bm.cells) {
            assert_eq!(
                ac.t_score.to_bits(),
                bc.t_score.to_bits(),
                "{channel} cell ({:?}, {:?})",
                ac.row,
                ac.column
            );
        }
    }
}

fn live(traces: usize, shards: usize) -> Campaign {
    Campaign::live(Device::MacbookAirM2, VictimKind::UserSpace, SECRET, SEED)
        .keys(&[key("PHPC")])
        .traces(traces)
        .shards(shards)
}

fn channels() -> [ChannelId; 2] {
    [ChannelId::Smc(key("PHPC")), ChannelId::Pcpu]
}

// ---------------------------------------------------------------- TVLA

#[test]
fn tvla_recovered_source_faults_stay_bit_identical() {
    let clean = live(24, 2).session().tvla();
    // Two injected errors on shard 0's source, default 3-attempt retry:
    // both recover, nothing degrades.
    let plan = FaultPlan { source_errors: 2, source_shard: 0, ..FaultPlan::default() };
    let faulted = live(24, 2).faults(plan).session().tvla();
    assert_eq!(faulted.health, vec![ShardHealth::Ok, ShardHealth::Ok]);
    assert_tvla_bit_identical(&clean.tvla, &faulted.tvla, &channels());
    assert_eq!(clean.monitor.observations(), faulted.monitor.observations());
    assert_eq!(faulted.bus.dropped, 0);
}

#[test]
fn tvla_exhausted_source_retries_degrade_the_shard() {
    // One injected error on shard 1 with no retry budget: shard 1 stops
    // before producing anything; the merge equals shard 0 alone.
    let plan = FaultPlan { source_errors: 1, source_shard: 1, ..FaultPlan::default() };
    let faulted = live(24, 2).faults(plan).retry(RetryPolicy::none()).session().tvla();
    assert_eq!(faulted.health[0], ShardHealth::Ok);
    match &faulted.health[1] {
        ShardHealth::Degraded { reason } => {
            assert!(reason.contains("source fill error"), "unexpected reason: {reason}");
        }
        other => panic!("shard 1 should be degraded, got {other:?}"),
    }
    assert!(
        faulted.warnings.iter().any(|w| w.contains("shard 1 degraded")),
        "missing degradation warning: {:?}",
        faulted.warnings
    );

    // split_counts(24, 2) = [12, 12]; shard 0 runs at seed + 0.
    let survivor = live(12, 1).session().tvla();
    assert_tvla_bit_identical(&survivor.tvla, &faulted.tvla, &channels());
    assert_eq!(survivor.monitor.observations(), faulted.monitor.observations());
}

#[test]
fn tvla_consumer_panic_fails_the_shard_and_survivors_merge() {
    let plan = FaultPlan { panic_shard: Some((1, 0)), ..FaultPlan::default() };
    let faulted = live(24, 2).faults(plan).session().tvla();
    assert_eq!(faulted.health[0], ShardHealth::Ok);
    match &faulted.health[1] {
        ShardHealth::Failed { reason } => {
            assert!(reason.contains("injected consumer panic"), "unexpected reason: {reason}");
        }
        other => panic!("shard 1 should have failed, got {other:?}"),
    }
    assert!(
        faulted.warnings.iter().any(|w| w.contains("shard 1 failed")),
        "missing failure warning: {:?}",
        faulted.warnings
    );
    let survivor = live(12, 1).session().tvla();
    assert_tvla_bit_identical(&survivor.tvla, &faulted.tvla, &channels());
}

// ----------------------------------------------------------------- CPA

#[test]
fn cpa_survivors_merge_for_every_fault_class() {
    // split_counts(96, 2) = [48, 48]; shard 0 runs at seed + 0.
    let survivor = live(48, 1).session().cpa(|| Box::new(Rd0Hw));
    let expected = survivor.cpa.cpa(channels()[0]).expect("survivor channel");

    let degrade = FaultPlan { source_errors: 1, source_shard: 1, ..FaultPlan::default() };
    let panic = FaultPlan { panic_shard: Some((1, 0)), ..FaultPlan::default() };
    for (plan, retry, want_failed) in
        [(degrade, RetryPolicy::none(), false), (panic, RetryPolicy::default(), true)]
    {
        let faulted = live(96, 2).faults(plan).retry(retry).session().cpa(|| Box::new(Rd0Hw));
        assert_eq!(faulted.health[0], ShardHealth::Ok);
        match (&faulted.health[1], want_failed) {
            (ShardHealth::Failed { .. }, true) | (ShardHealth::Degraded { .. }, false) => {}
            (other, _) => panic!("wrong shard-1 health for {plan:?}: {other:?}"),
        }
        let got = faulted.cpa.cpa(channels()[0]).expect("faulted channel");
        assert_eq!(expected.trace_count(), got.trace_count());
        for byte in 0..16 {
            let (ec, gc) = (expected.correlations(byte), got.correlations(byte));
            for guess in 0..256 {
                assert_eq!(ec[guess].to_bits(), gc[guess].to_bits(), "byte {byte} guess {guess}");
            }
        }
    }
}

// ------------------------------------------------------------- adaptive

#[test]
fn adaptive_survivors_merge_for_every_fault_class() {
    // PHPS has no data dependence, so the watcher never fires and the
    // round accounting is exact: 12 rounds from the surviving shard.
    let adaptive = |traces: usize, shards: usize| {
        Campaign::live(Device::MacbookAirM2, VictimKind::UserSpace, SECRET, SEED)
            .keys(&[key("PHPS")])
            .traces(traces)
            .shards(shards)
            .early_stop(key("PHPS"))
    };
    let survivor = adaptive(12, 1).session().adaptive_tvla();
    assert!(!survivor.stopped_early);

    let degrade = FaultPlan { source_errors: 1, source_shard: 1, ..FaultPlan::default() };
    let panic = FaultPlan { panic_shard: Some((1, 0)), ..FaultPlan::default() };
    for (plan, retry, want_failed) in
        [(degrade, RetryPolicy::none(), false), (panic, RetryPolicy::default(), true)]
    {
        let faulted = adaptive(24, 2).faults(plan).retry(retry).session().adaptive_tvla();
        assert_eq!(faulted.report.health[0], ShardHealth::Ok);
        match (&faulted.report.health[1], want_failed) {
            (ShardHealth::Failed { .. }, true) | (ShardHealth::Degraded { .. }, false) => {}
            (other, _) => panic!("wrong shard-1 health for {plan:?}: {other:?}"),
        }
        assert!(!faulted.stopped_early, "a fault is not an early stop");
        assert_eq!(faulted.rounds_collected, 12, "only shard 0's rounds count");
        assert_tvla_bit_identical(
            &survivor.report.tvla,
            &faulted.report.tvla,
            &[ChannelId::Smc(key("PHPS")), ChannelId::Pcpu],
        );
    }
}

// ------------------------------------------------------------- recorder

#[test]
fn recorder_faults_recover_on_retry_with_exact_accounting() {
    // Single shard so the two recorders (PHPC + PCPU) flush sequentially
    // and the injected budget is consumed deterministically: the first
    // write fails twice and succeeds on the third attempt.
    let dir = temp_dir("recorder_recovered");
    let plan = FaultPlan { recorder_errors: 2, ..FaultPlan::default() };
    let clean = live(24, 1).session().tvla();
    let faulted = live(24, 1).record_to(&dir).faults(plan).session().tvla();
    assert_eq!(faulted.health, vec![ShardHealth::Ok]);
    assert_eq!(faulted.io_retries, 2, "both faults recovered");
    assert_eq!(faulted.io_errors, 0, "no batch lost");
    assert_tvla_bit_identical(&clean.tvla, &faulted.tvla, &channels());

    // The recording is complete: it replays to the same matrices.
    let replay = ShardReplay::from_dir(&dir).expect("recording survived the faults");
    let replayed = Campaign::replay(replay).keys(&[key("PHPC")]).session().tvla();
    assert_tvla_bit_identical(&clean.tvla, &replayed.tvla, &channels());
    cleanup(&dir);
}

#[test]
fn recorder_retry_exhaustion_counts_the_lost_batch() {
    // Four faults against a 3-attempt budget: the first recorder's only
    // batch burns all three attempts (2 retries + 1 terminal error), the
    // remaining fault is retried once by the second recorder and
    // recovers.
    let dir = temp_dir("recorder_lost");
    let plan = FaultPlan { recorder_errors: 4, ..FaultPlan::default() };
    let faulted = live(24, 1).record_to(&dir).faults(plan).session().tvla();
    assert_eq!(faulted.io_errors, 1, "exactly one batch lost");
    assert_eq!(faulted.io_retries, 3, "two on the lost batch, one recovering");
    assert!(faulted.recorder_error.is_some());
    assert!(
        faulted.warnings.iter().any(|w| w.contains("recorder I/O error")),
        "missing recorder warning: {:?}",
        faulted.warnings
    );
    // Analysis is unaffected by recorder loss.
    let clean = live(24, 1).session().tvla();
    assert_tvla_bit_identical(&clean.tvla, &faulted.tvla, &channels());
    cleanup(&dir);
}

// ------------------------------------------------------- inert plumbing

#[test]
fn armed_but_empty_fault_plan_changes_nothing() {
    // A default plan (zero budgets, plus a tiny source delay to exercise
    // the delay path) must leave results bit-identical.
    let clean = live(24, 2).session().tvla();
    let plan = FaultPlan { source_delay_us: 50, ..FaultPlan::default() };
    let armed = live(24, 2).faults(plan).session().tvla();
    assert_eq!(armed.health, vec![ShardHealth::Ok, ShardHealth::Ok]);
    assert_eq!(armed.io_errors, 0);
    assert_eq!(armed.io_retries, 0);
    assert_tvla_bit_identical(&clean.tvla, &armed.tvla, &channels());
    assert_eq!(clean.monitor.observations(), armed.monitor.observations());
    assert_eq!(clean.bus.accepted, armed.bus.accepted);
}
