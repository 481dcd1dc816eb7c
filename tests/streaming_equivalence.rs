//! Streaming-vs-batch equivalence: the block-based telemetry pipeline
//! must reproduce the batch analyses on identical seeded trace sets —
//! single-shard and sharded-then-merged — within 1e-9.
//!
//! The batch comparators recompute over the raw traces each campaign
//! recorded (`Campaign::record_to`, read back from the `.psct` shards),
//! so this suite pins the streaming O(1)-memory accumulators against
//! whole-dataset recomputation on the exact same observation streams.

mod common;

use apple_power_sca::core::{Campaign, Device, VictimKind};
use apple_power_sca::sca::cpa::Cpa;
use apple_power_sca::sca::model::Rd0Hw;
use apple_power_sca::sca::tvla::TvlaMatrix;
use apple_power_sca::smc::key::key;
use apple_power_sca::telemetry::split_counts;
use common::Recorded;

const SECRET: [u8; 16] = [0x2B; 16];
const SEED: u64 = 1234;

fn assert_matrices_close(batch: &TvlaMatrix, streaming: &TvlaMatrix, tol: f64) {
    assert_eq!(batch.cells.len(), streaming.cells.len());
    for (b, s) in batch.cells.iter().zip(&streaming.cells) {
        assert_eq!(b.row, s.row);
        assert_eq!(b.column, s.column);
        assert!(
            (b.t_score - s.t_score).abs() < tol,
            "cell ({:?}, {:?}): batch {} vs streaming {}",
            b.row,
            b.column,
            b.t_score,
            s.t_score
        );
        assert_eq!(b.outcome, s.outcome);
    }
}

#[test]
fn single_shard_tvla_matches_batch_exactly() {
    let keys = [key("PHPC"), key("PSTR")];
    let (batch, _) = Recorded::tvla(
        Campaign::live(Device::MacbookAirM2, VictimKind::UserSpace, SECRET, SEED)
            .keys(&keys)
            .traces(120),
    );
    let streaming = Campaign::live(Device::MacbookAirM2, VictimKind::UserSpace, SECRET, SEED)
        .keys(&keys)
        .traces(120)
        .shards(1)
        .session()
        .tvla();
    for k in keys {
        let (first, second) = batch.datasets(&k.to_string());
        let batch_m = TvlaMatrix::compute(k.to_string(), &first, &second);
        let stream_m = streaming.matrix(k).expect("channel collected");
        // One shard, same seed, same event order: identical Welford stream.
        assert_matrices_close(&batch_m, &stream_m, 1e-9);
    }
    let (first, second) = batch.datasets("PCPU");
    assert_matrices_close(
        &TvlaMatrix::compute("PCPU", &first, &second),
        &streaming.pcpu_matrix().expect("pcpu collected"),
        1e-9,
    );
}

#[test]
fn sharded_tvla_matches_concatenated_batch_shards() {
    let keys = [key("PHPC")];
    let shards = 4;
    let traces_per_class = 100;
    let counts = split_counts(traces_per_class, shards);

    // Batch comparator: run per-shard retained campaigns with the same
    // seed layout, concatenate the raw datasets, compute the matrix.
    let mut first: [Vec<f64>; 3] = Default::default();
    let mut second: [Vec<f64>; 3] = Default::default();
    for (shard, &count) in counts.iter().enumerate() {
        let seed = SEED.wrapping_add(shard as u64);
        let (recorded, _) = Recorded::tvla(
            Campaign::live(Device::MacbookAirM2, VictimKind::UserSpace, SECRET, seed)
                .keys(&keys)
                .traces(count),
        );
        let (shard_first, shard_second) = recorded.datasets("PHPC");
        for class in 0..3 {
            first[class].extend_from_slice(&shard_first[class]);
            second[class].extend_from_slice(&shard_second[class]);
        }
    }
    let batch_matrix = TvlaMatrix::compute("PHPC", &first, &second);

    let streaming = Campaign::live(Device::MacbookAirM2, VictimKind::UserSpace, SECRET, SEED)
        .keys(&keys)
        .traces(traces_per_class)
        .shards(shards)
        .session()
        .tvla();
    let stream_matrix = streaming.matrix(keys[0]).expect("collected");
    assert_matrices_close(&batch_matrix, &stream_matrix, 1e-9);
    assert_eq!(streaming.bus.dropped, 0, "Block policy is lossless");
}

#[test]
fn sharded_cpa_matches_batch_on_identical_traces() {
    let keys = [key("PHPC")];
    let shards = 4;
    let n = 1200;

    let (batch_sets, _) = Recorded::cpa(
        Campaign::live(Device::MacbookAirM2, VictimKind::UserSpace, SECRET, SEED)
            .keys(&keys)
            .traces(n)
            .shards(shards),
    );
    let mut batch = Cpa::new(Box::new(Rd0Hw));
    batch.add_set(&batch_sets.traces("PHPC"));

    let streaming = Campaign::live(Device::MacbookAirM2, VictimKind::UserSpace, SECRET, SEED)
        .keys(&keys)
        .traces(n)
        .shards(shards)
        .session()
        .cpa(|| Box::new(Rd0Hw));
    let stream_cpa =
        streaming.cpa.cpa(apple_power_sca::telemetry::ChannelId::Smc(keys[0])).expect("registered");

    assert_eq!(stream_cpa.trace_count(), batch.trace_count());
    assert_eq!(stream_cpa.ranks(&SECRET), batch.ranks(&SECRET), "identical key ranks");
    for byte in 0..16 {
        let batch_corr = batch.correlations(byte);
        let stream_corr = stream_cpa.correlations(byte);
        for guess in 0..256 {
            assert!(
                (batch_corr[guess] - stream_corr[guess]).abs() < 1e-9,
                "byte {byte} guess {guess}: {} vs {}",
                batch_corr[guess],
                stream_corr[guess]
            );
        }
    }
}

#[test]
fn streaming_campaign_is_deterministic_per_seed() {
    let keys = [key("PHPC")];
    let run = |seed: u64| {
        let report = Campaign::live(Device::MacbookAirM2, VictimKind::UserSpace, SECRET, seed)
            .keys(&keys)
            .traces(200)
            .shards(3)
            .session()
            .cpa(|| Box::new(Rd0Hw));
        let cpa = report
            .cpa
            .cpa(apple_power_sca::telemetry::ChannelId::Smc(keys[0]))
            .expect("registered");
        (cpa.trace_count(), cpa.correlations(0))
    };
    assert_eq!(run(9).0, run(9).0);
    assert_eq!(run(9).1, run(9).1, "same seed, same merged accumulator");
    assert_ne!(run(9).1, run(10).1, "seed changes the stream");
}
