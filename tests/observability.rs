//! The observability contract, end to end through the campaign driver:
//!
//! 1. metrics only observe — an instrumented campaign produces
//!    bit-identical analysis output to an uninstrumented one;
//! 2. the merged `MetricsReport` accounts for the pipeline exactly
//!    (observations, schedule units, per-block histograms);
//! 3. recorder I/O errors surface in the report instead of vanishing;
//! 4. `.monitor()` exposes per-shard cadence checkpoints;
//! 5. the span tracer covers campaign → shard → stage, and its Chrome
//!    trace (like the metrics JSON) parses;
//! 6. in adaptive campaigns `source.units` equals the merged
//!    rounds-collected figure.
//! 7. adaptive campaigns poll the cadence monitor on the same grid as
//!    plain TVLA.

use apple_power_sca::core::{Campaign, Device, ShardReplay, TuneConfig, VictimKind};
use apple_power_sca::sca::model::Rd0Hw;
use apple_power_sca::smc::key::key;
use apple_power_sca::telemetry::event::ChannelId;
use apple_power_sca::telemetry::json::validate_json;
use apple_power_sca::telemetry::metrics::names;
use apple_power_sca::telemetry::processors::StreamingTvla;
use apple_power_sca::telemetry::spans::SpanTracer;
use proptest::prelude::*;
use std::sync::Arc;

const SECRET: [u8; 16] = [0x5A; 16];

fn assert_tvla_bit_identical(a: &StreamingTvla, b: &StreamingTvla, keys: &[ChannelId]) {
    for &channel in keys {
        let label = channel.to_string();
        let am = a.matrix(channel, label.clone()).expect("channel in a");
        let bm = b.matrix(channel, label).expect("channel in b");
        for (ac, bc) in am.cells.iter().zip(&bm.cells) {
            assert_eq!(
                ac.t_score.to_bits(),
                bc.t_score.to_bits(),
                "{channel} cell ({:?}, {:?}): {} vs {}",
                ac.row,
                ac.column,
                ac.t_score,
                bc.t_score
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Campaign-level bit-identity: switching on the full observability
    /// stack (metrics + monitor + spans) must not perturb a single
    /// accumulator bit, across seeds and shard counts.
    #[test]
    fn instrumented_campaign_is_bit_identical(seed in any::<u32>(), shards in 1usize..4) {
        let keys = [key("PHPC"), key("PSTR")];
        let plain = Campaign::live(Device::MacbookAirM2, VictimKind::UserSpace, SECRET, u64::from(seed))
            .keys(&keys)
            .traces(30)
            .shards(shards)
            .session()
            .tvla();
        let instrumented =
            Campaign::live(Device::MacbookAirM2, VictimKind::UserSpace, SECRET, u64::from(seed))
                .keys(&keys)
                .traces(30)
                .shards(shards)
                .metrics()
                .monitor(0.5)
                .tracer(Arc::new(SpanTracer::new()))
                .session()
                .tvla();
        let channels: Vec<ChannelId> =
            keys.iter().map(|&k| ChannelId::Smc(k)).chain([ChannelId::Pcpu]).collect();
        assert_tvla_bit_identical(&plain.tvla, &instrumented.tvla, &channels);
        for &channel in &channels {
            prop_assert_eq!(
                plain.tvla.accumulator(channel).unwrap().total_count(),
                instrumented.tvla.accumulator(channel).unwrap().total_count()
            );
        }
        // And the uninstrumented run carries no metrics payload (the
        // cadence monitor always runs — `.monitor()` only tunes it).
        prop_assert!(plain.metrics.is_none());
    }
}

#[test]
fn metrics_report_accounts_for_the_pipeline() {
    let keys = [key("PHPC")];
    let traces = 48;
    let shards = 3;
    let report = Campaign::live(Device::MacbookAirM2, VictimKind::UserSpace, SECRET, 7)
        .keys(&keys)
        .traces(traces)
        .shards(shards)
        .metrics()
        .session()
        .tvla();

    let metrics = report.metrics.as_ref().expect(".metrics() populates the report");
    assert_eq!(metrics.shards, shards);
    let snap = &metrics.snapshot;
    // One TVLA observation per window: traces × 2 passes × 3 classes.
    assert_eq!(snap.counter(names::BUS_OBS), traces as u64 * 6);
    assert_eq!(metrics.observations(), traces as u64 * 6);
    // One schedule unit per requested trace round.
    assert_eq!(snap.counter(names::SOURCE_UNITS), traces as u64);
    // Blocks: every observation traveled in some block, none dropped
    // (Block policy), and both hot-path histograms saw every block.
    let blocks = snap.counter(names::BUS_BLOCKS);
    assert!(blocks > 0, "at least one block per shard");
    assert_eq!(snap.counter(names::BUS_DROPPED), 0);
    assert_eq!(metrics.drop_rate(), 0.0);
    let fill = snap.histogram(names::SOURCE_FILL_NS).expect("fill histogram");
    let consume = snap.histogram(names::CONSUME_BLOCK_NS).expect("consume histogram");
    assert_eq!(fill.count(), blocks);
    assert_eq!(consume.count(), blocks);
    assert!(snap.gauge(names::BUS_HIGH_WATER) >= 1);
    assert_eq!(snap.counter(names::RECORDER_IO_ERRORS), 0);
    assert!(metrics.wall_s > 0.0);
    validate_json(&metrics.to_json()).expect("metrics JSON parses");
}

#[test]
fn recorder_io_errors_surface_in_report_and_metrics() {
    // Recording under a path whose parent is a regular file cannot
    // succeed: every shard flush fails, and the campaign must say so
    // rather than silently dropping traces.
    let blocker =
        std::env::temp_dir().join(format!("psc_observability_blocker_{}", std::process::id()));
    std::fs::write(&blocker, b"not a directory").unwrap();
    let dir = blocker.join("shards");

    let keys = [key("PHPC")];
    let report = Campaign::live(Device::MacbookAirM2, VictimKind::UserSpace, SECRET, 11)
        .keys(&keys)
        .traces(12)
        .shards(2)
        .metrics()
        .record_to(&dir)
        .session()
        .tvla();
    std::fs::remove_file(&blocker).ok();

    assert!(report.io_errors > 0, "write failures must be counted");
    let error = report.recorder_error.as_deref().expect("last failure is kept");
    assert!(!error.is_empty());
    let metrics = report.metrics.as_ref().unwrap();
    assert_eq!(metrics.snapshot.counter(names::RECORDER_IO_ERRORS), report.io_errors);
    // The analysis itself is unharmed: recording is a side channel.
    let acc = report.tvla.accumulator(ChannelId::Smc(key("PHPC"))).expect("channel collected");
    assert_eq!(acc.total_count(), 12 * 6, "2 passes x 3 classes per trace round");
}

#[test]
fn recycle_lane_keeps_every_block_of_a_healthy_shard() {
    // A replayed recording decodes far faster than CPA ingests it, so the
    // producer runs ahead and the whole bus comes back at once: the
    // recycle lane must hold every block in flight, not shed them.
    let keys = [key("PHPC")];
    let dir =
        std::env::temp_dir().join(format!("psc_observability_recycle_{}", std::process::id()));
    let recorded = Campaign::live(Device::MacbookAirM2, VictimKind::UserSpace, SECRET, 19)
        .keys(&keys)
        .traces(2400)
        .record_to(&dir)
        .session()
        .cpa(|| Box::new(Rd0Hw));
    assert_eq!(recorded.io_errors, 0);
    let replay = ShardReplay::from_dir(&dir).expect("shard recorded");
    let tune = TuneConfig { replay_chunk: 48, bus_capacity: 16, ..TuneConfig::default() };
    let report =
        Campaign::replay(replay).keys(&keys).tune(tune).metrics().session().cpa(|| Box::new(Rd0Hw));
    std::fs::remove_dir_all(&dir).ok();

    let metrics = report.metrics.as_ref().expect(".metrics() populates the report");
    assert_eq!(metrics.shards, 1);
    let snap = &metrics.snapshot;
    assert!(snap.counter(names::BUS_BLOCKS) > 2 * 16, "many more blocks than the bus holds");
    assert_eq!(snap.counter(names::RECYCLE_DROPPED), 0);
    assert!(
        report.warnings.iter().all(|w| !w.contains("recycle")),
        "no recycle warning: {:?}",
        report.warnings
    );
}

#[test]
fn monitor_exposes_per_shard_cadence() {
    let keys = [key("PHPC")];
    let shards = 2;
    let report = Campaign::live(Device::MacbookAirM2, VictimKind::UserSpace, SECRET, 13)
        .keys(&keys)
        .traces(40)
        .shards(shards)
        .monitor(1.0)
        .session()
        .tvla();

    assert_eq!(report.shard_cadence.len(), shards);
    for (shard, checkpoints) in report.shard_cadence.iter().enumerate() {
        assert!(!checkpoints.is_empty(), "shard {shard} recorded no checkpoints");
        for pair in checkpoints.windows(2) {
            assert!(pair[0].time_s <= pair[1].time_s, "checkpoints never step backwards");
        }
        let observations: u64 = checkpoints.iter().map(|c| c.observations).sum();
        assert!(observations > 0, "shard {shard} cadence saw no observations");
        for c in checkpoints {
            assert!(c.stretch > 0.0);
        }
    }
}

#[test]
fn spans_cover_campaign_shards_and_stages() {
    let keys = [key("PHPC")];
    let shards = 3;
    let tracer = Arc::new(SpanTracer::new());
    let _report = Campaign::live(Device::MacbookAirM2, VictimKind::UserSpace, SECRET, 17)
        .keys(&keys)
        .traces(18)
        .shards(shards)
        .tracer(Arc::clone(&tracer))
        .session()
        .tvla();

    let spans = tracer.spans();
    // One campaign span plus produce + consume per shard.
    assert_eq!(spans.len(), 1 + 2 * shards);
    let campaign: Vec<_> = spans.iter().filter(|s| s.name == "campaign/tvla").collect();
    assert_eq!(campaign.len(), 1);
    assert_eq!(campaign[0].tid, 0);
    for shard in 0..shards {
        for stage in ["produce", "consume"] {
            let name = format!("shard{shard}/{stage}");
            let span = spans.iter().find(|s| s.name == name).unwrap_or_else(|| {
                panic!("missing span {name}");
            });
            assert!(span.tid > 0, "stage spans live on worker-numbered tracks");
            // Stage spans nest inside the campaign span.
            assert!(span.ts_us >= campaign[0].ts_us);
            assert!(span.ts_us + span.dur_us <= campaign[0].ts_us + campaign[0].dur_us);
        }
    }
    validate_json(&tracer.to_chrome_json()).expect("chrome trace parses");
}

#[test]
fn adaptive_units_match_rounds_collected() {
    let keys = [key("PHPC")];
    let report = Campaign::live(Device::MacbookAirM2, VictimKind::UserSpace, SECRET, 19)
        .keys(&keys)
        .traces(400)
        .shards(2)
        .early_stop(key("PHPC"))
        .metrics()
        .session()
        .adaptive_tvla();

    let metrics = report.report.metrics.as_ref().unwrap();
    assert_eq!(
        metrics.snapshot.counter(names::SOURCE_UNITS),
        report.rounds_collected as u64,
        "every produced adaptive round is one schedule unit"
    );
    // Each round is one trace per class per pass: 6 observations.
    assert_eq!(metrics.observations(), report.rounds_collected as u64 * 6);
}

#[test]
fn adaptive_cadence_matches_tvla_cadence() {
    // On the flat PHPS channel the adaptive run never stops early, so it
    // covers the same simulated timeline as plain TVLA and must poll the
    // cadence monitor on the same grid.
    let build = || {
        Campaign::live(Device::MacbookAirM2, VictimKind::UserSpace, SECRET, 7)
            .keys(&[key("PHPS")])
            .traces(200)
            .shards(2)
            .monitor(16.0)
    };
    let tvla = build().session().tvla();
    let adaptive = build().early_stop(key("PHPS")).session().adaptive_tvla();
    assert!(!adaptive.stopped_early, "PHPS must not trip the tracker");
    assert_eq!(adaptive.report.shard_cadence.len(), 2);
    for (shard, checkpoints) in tvla.shard_cadence.iter().enumerate() {
        assert!(checkpoints.len() > 1, "shard {shard} polled only {} time(s)", checkpoints.len());
    }
    assert_eq!(adaptive.report.shard_cadence, tvla.shard_cadence);
}
