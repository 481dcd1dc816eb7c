//! Block-path bit-identity: the columnar processors
//! (`Processor::on_block`, `Cpa::add_rows`, `Cpa::correlations_into`)
//! must reproduce the per-row scalar oracle of `tests/common/oracle.rs`
//! exactly — same accumulator bits, same counters, same bytes on disk —
//! across random blocks, shard counts, mitigations and ring overflow
//! policies.

mod common;

use apple_power_sca::core::{Campaign, Device, Rig, VictimKind};
use apple_power_sca::sca::cpa::Cpa;
use apple_power_sca::sca::model::{paper_models, Rd0Hw};
use apple_power_sca::sca::tvla::PlaintextClass;
use apple_power_sca::smc::key::key;
use apple_power_sca::smc::MitigationConfig;
use apple_power_sca::telemetry::block::EventBlock;
use apple_power_sca::telemetry::event::{ChannelId, SchedEvent, WindowEvent};
use apple_power_sca::telemetry::processors::{ShardRecorder, StreamingCpa, StreamingTvla};
use apple_power_sca::telemetry::ring::{channel, OverflowPolicy};
use apple_power_sca::telemetry::Processor;
use common::oracle::{CpaOracle, RecorderOracle, TvlaOracle};
use proptest::prelude::*;

/// One synthetic observation row: TVLA labels, a plaintext seed, and one
/// optional sample per channel (None = denied read).
#[derive(Debug, Clone)]
struct Row {
    pass: u8,
    /// 0..=2 a plaintext class, 3 = unclassed (CPA window).
    class_code: u8,
    pt_seed: u64,
    samples: Vec<Option<f64>>,
}

fn class_of(code: u8) -> Option<PlaintextClass> {
    PlaintextClass::ALL.get(usize::from(code)).copied()
}

fn bytes16(seed: u64) -> [u8; 16] {
    let mut state = seed | 1;
    core::array::from_fn(|_| {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state >> 32) as u8
    })
}

fn row_strategy(n_channels: usize) -> impl Strategy<Value = Row> {
    (
        0u8..2,
        0u8..4,
        any::<u64>(),
        proptest::collection::vec((any::<bool>(), -5_000i32..5_000), n_channels..=n_channels),
    )
        .prop_map(|(pass, class_code, pt_seed, raw)| Row {
            pass,
            class_code,
            pt_seed,
            samples: raw.into_iter().map(|(some, v)| some.then(|| f64::from(v) * 0.01)).collect(),
        })
}

fn channels_for(n: usize) -> Vec<ChannelId> {
    [ChannelId::Smc(key("PHPC")), ChannelId::Pcpu, ChannelId::Timing][..n].to_vec()
}

/// Build blocks of at most `chunk` rows from the row list.
fn build_blocks(rows: &[Row], channels: &[ChannelId], chunk: usize) -> Vec<EventBlock> {
    rows.chunks(chunk.max(1))
        .map(|slice| {
            let mut block = EventBlock::new();
            block.reset(channels);
            for (i, row) in slice.iter().enumerate() {
                let time_s = i as f64;
                block.begin(WindowEvent {
                    seq: i as u64,
                    time_s,
                    pass: row.pass,
                    class: class_of(row.class_code),
                    plaintext: bytes16(row.pt_seed),
                    ciphertext: bytes16(row.pt_seed.wrapping_mul(31)),
                });
                for (col, v) in row.samples.iter().enumerate() {
                    if let Some(value) = *v {
                        block.sample(col, value);
                    }
                }
                block.commit(SchedEvent {
                    time_s,
                    windows_consumed: 1,
                    window_s: 1.0,
                    denied_reads: row.samples.iter().filter(|v| v.is_none()).count() as u32,
                });
            }
            block
        })
        .collect()
}

/// Pass the blocks through a bounded ring under `policy` (send first,
/// drain after — deterministic single-threaded shedding) and return the
/// delivered subset, exactly what a lossy bus would hand the consumer.
fn deliver(blocks: Vec<EventBlock>, capacity: usize, policy: OverflowPolicy) -> Vec<EventBlock> {
    let (tx, rx) = channel(capacity, policy);
    for block in blocks {
        if matches!(policy, OverflowPolicy::Block)
            && rx.stats().accepted - rx.stats().delivered >= capacity as u64
        {
            // A full Block-policy bus would park the producer; in this
            // single-threaded harness drain one slot instead.
            let drained = rx.try_recv().expect("full bus has an item");
            tx.send(block).expect("receiver alive");
            drop(drained);
            continue;
        }
        tx.send(block).expect("receiver alive");
    }
    drop(tx);
    std::iter::from_fn(|| rx.try_recv()).collect()
}

fn policy_strategy() -> impl Strategy<Value = OverflowPolicy> {
    prop_oneof![
        Just(OverflowPolicy::Block),
        Just(OverflowPolicy::DropNewest),
        Just(OverflowPolicy::DropOldest),
    ]
}

fn assert_tvla_identical(a: &StreamingTvla, b: &TvlaOracle, channels: &[ChannelId]) {
    assert_eq!(a.orphan_samples(), b.orphan_samples);
    for &ch in channels {
        match (a.accumulator(ch), b.accs.get(&ch)) {
            (None, None) => {}
            (Some(aa), Some(ba)) => {
                for pass in 0..2 {
                    for class in PlaintextClass::ALL {
                        assert_eq!(aa.count(pass, class), ba.count(pass, class));
                    }
                }
                let am = aa.matrix("x");
                let bm = ba.matrix("x");
                for (ac, bc) in am.cells.iter().zip(&bm.cells) {
                    assert_eq!(ac.t_score.to_bits(), bc.t_score.to_bits());
                }
            }
            (aa, ba) => panic!("{ch}: accumulator presence diverged: {aa:?} vs {ba:?}"),
        }
        match (a.tracker(ch), b.trackers.get(&ch)) {
            (None, None) => {}
            (Some(at), Some(bt)) => {
                assert_eq!(at.counts(), bt.counts());
                assert_eq!(at.t_score().to_bits(), bt.t_score().to_bits());
            }
            _ => panic!("{ch}: tracker presence diverged"),
        }
    }
}

proptest! {
    /// Streaming TVLA: `on_block` (SIMD quad ingestion on uniform blocks,
    /// per-row labels on mixed ones, watch trackers, orphan accounting)
    /// is bit-identical to the scalar oracle for any delivered block
    /// sequence under any overflow policy.
    #[test]
    fn tvla_block_path_is_bit_identical(
        n_channels in 1usize..4,
        rows in proptest::collection::vec(row_strategy(3), 0..48),
        chunk in 1usize..16,
        capacity in 1usize..8,
        policy in policy_strategy(),
    ) {
        let channels = channels_for(n_channels);
        let rows: Vec<Row> = rows.into_iter().map(|mut r| { r.samples.truncate(n_channels); r }).collect();
        let delivered = deliver(build_blocks(&rows, &channels, chunk), capacity, policy);

        let mut blocked = StreamingTvla::new();
        blocked.watch(channels[0], 4);
        let mut scalar = TvlaOracle::default();
        scalar.watch(channels[0]);
        for block in &delivered {
            blocked.on_block(block);
            scalar.block(block);
        }
        assert_tvla_identical(&blocked, &scalar, &channels);
    }

    /// Streaming CPA: `on_block` (one model-input pass + `Cpa::add_rows`) is
    /// bit-identical to one `add_trace` per sample, including the
    /// unregistered-channel accounting.
    #[test]
    fn cpa_block_path_is_bit_identical(
        n_channels in 1usize..4,
        registered in 1usize..3,
        rows in proptest::collection::vec(row_strategy(3), 0..40),
        chunk in 1usize..16,
    ) {
        let channels = channels_for(n_channels);
        let rows: Vec<Row> = rows.into_iter().map(|mut r| { r.samples.truncate(n_channels); r }).collect();
        let blocks = build_blocks(&rows, &channels, chunk);
        let reg: Vec<ChannelId> = channels.iter().copied().take(registered.min(n_channels)).collect();

        let mut blocked = StreamingCpa::new(reg.iter().copied(), || Box::new(Rd0Hw));
        let mut scalar = CpaOracle::new(reg.iter().copied(), || Box::new(Rd0Hw));
        for block in &blocks {
            blocked.on_block(block);
            scalar.block(block);
        }
        assert_eq!(blocked.unregistered_samples(), scalar.unregistered_samples);
        for &ch in &reg {
            let bc = blocked.cpa(ch).unwrap();
            let sc = &scalar.cpas[&ch];
            assert_eq!(bc.trace_count(), sc.trace_count());
            let mut bbuf = [0.0f64; 256];
            let mut sbuf = [0.0f64; 256];
            for byte in 0..16 {
                bc.correlations_into(byte, &mut bbuf);
                sc.correlations_into(byte, &mut sbuf);
                for g in 0..256 {
                    assert_eq!(bbuf[g].to_bits(), sbuf[g].to_bits(), "{ch} byte {byte} guess {g}");
                }
            }
        }
    }

    /// The `cpa-replay` layout — four SMC keys and PCPU registered, the
    /// timing channel not — under each paper model: one model-input pass
    /// per block feeds all five columns, denied reads included, and every
    /// accumulator ends bit-identical to the per-row oracle.
    #[test]
    fn cpa_five_channel_block_path_matches_oracle(
        rows in proptest::collection::vec(row_strategy(6), 0..60),
        chunk in 1usize..20,
        model in 0usize..3,
    ) {
        let model = || paper_models().swap_remove(model);
        let mut channels: Vec<ChannelId> =
            ["PHPC", "PDTR", "PMVC", "PSTR"].iter().map(|k| ChannelId::Smc(key(k))).collect();
        channels.extend([ChannelId::Pcpu, ChannelId::Timing]);
        let registered = &channels[..5];
        let blocks = build_blocks(&rows, &channels, chunk);

        let mut blocked = StreamingCpa::new(registered.iter().copied(), model);
        let mut scalar = CpaOracle::new(registered.iter().copied(), model);
        for block in &blocks {
            blocked.on_block(block);
            scalar.block(block);
        }
        prop_assert_eq!(blocked.unregistered_samples(), scalar.unregistered_samples);
        for ch in registered {
            prop_assert_eq!(blocked.cpa(*ch).unwrap().raw_state(), scalar.cpas[ch].raw_state());
        }
    }

    /// The recorder writes the shard files the oracle's codec calls write
    /// (same traces, same flush boundaries), byte for byte.
    #[test]
    fn recorder_block_path_writes_identical_shards(
        rows in proptest::collection::vec(row_strategy(2), 0..40),
        chunk in 1usize..16,
        shard_capacity in 1usize..12,
    ) {
        let channels = channels_for(2);
        let blocks = build_blocks(&rows, &channels, chunk);
        let base = std::env::temp_dir().join(format!(
            "psc_block_equiv_{}_{}",
            std::process::id(),
            rows.len() * 1000 + chunk * 16 + shard_capacity,
        ));
        let mut blocked = ShardRecorder::new(&base, "PHPC", channels[0], 0, shard_capacity);
        let mut scalar = RecorderOracle::new(channels[0]);
        for block in &blocks {
            blocked.on_block(block);
            scalar.block(block);
        }
        blocked.on_finish();

        assert_eq!(blocked.traces_recorded(), scalar.traces.len() as u64);
        let want = scalar.files("PHPC", shard_capacity);
        assert_eq!(blocked.files().len(), want.len());
        for (path, bytes) in blocked.files().iter().zip(&want) {
            assert_eq!(&std::fs::read(path).unwrap(), bytes, "shard bytes diverged: {}", path.display());
        }
        std::fs::remove_dir_all(&base).ok();
    }

    /// `Cpa::add_rows` == sequential `add_trace` over the present rows
    /// and `correlations_into` == `correlations`, bit for bit, on random
    /// accumulator contents with denied reads.
    #[test]
    fn cpa_block_and_into_are_bit_identical(
        traces in proptest::collection::vec((any::<u64>(), any::<bool>(), -5_000i32..5_000), 0..200),
        split in 0usize..200,
        model in 0usize..3,
    ) {
        let model = || paper_models().swap_remove(model);
        let mut sequential = Cpa::new(model());
        let mut blocked = Cpa::new(model());

        let pts: Vec<[u8; 16]> = traces.iter().map(|(s, ..)| bytes16(*s)).collect();
        let cts: Vec<[u8; 16]> = traces.iter().map(|(s, ..)| bytes16(s.wrapping_add(7))).collect();
        let vals: Vec<Option<f64>> =
            traces.iter().map(|(_, some, v)| some.then(|| f64::from(*v) * 0.01)).collect();
        for ((pt, ct), v) in pts.iter().zip(&cts).zip(&vals) {
            if let Some(value) = *v {
                sequential.add_trace(&apple_power_sca::sca::trace::Trace {
                    value,
                    plaintext: *pt,
                    ciphertext: *ct,
                });
            }
        }
        let inputs: Vec<[u8; 16]> =
            pts.iter().zip(&cts).map(|(pt, ct)| model().input_bytes(pt, ct)).collect();
        let mid = split.min(pts.len());
        blocked.add_rows(&inputs[..mid], &vals[..mid]);
        blocked.add_rows(&inputs[mid..], &vals[mid..]);
        prop_assert_eq!(sequential.raw_state(), blocked.raw_state());

        assert_eq!(sequential.trace_count(), blocked.trace_count());
        let mut buf = [0.0f64; 256];
        for byte in 0..16 {
            let owned = sequential.correlations(byte);
            blocked.correlations_into(byte, &mut buf);
            for g in 0..256 {
                assert_eq!(owned[g].to_bits(), buf[g].to_bits(), "byte {byte} guess {g}");
            }
        }
    }
}

/// Campaign-level anchor: the full block pipeline (sources building
/// blocks, the block bus, columnar processors, shard merge) reproduces a
/// hand-driven scalar loop over the rig's observations bit-for-bit,
/// across shard counts and every mitigation family.
#[test]
fn live_tvla_campaign_matches_manual_scalar_event_loop() {
    let secret = [0x2Bu8; 16];
    let seed = 4242u64;
    let keys = [key("PHPC"), key("PSTR")];
    let traces_per_class = 6;
    let mitigations: [(&str, Option<MitigationConfig>); 4] = [
        ("none", None),
        ("restrict", Some(MitigationConfig::restrict_access())),
        ("slow", Some(MitigationConfig::slow_updates(2.0))),
        ("noise", Some(MitigationConfig::noise_blend(0.05))),
    ];
    for shards in 1usize..=3 {
        for (tag, mitigation) in &mitigations {
            let mut campaign =
                Campaign::live(Device::MacbookAirM2, VictimKind::UserSpace, secret, seed)
                    .keys(&keys)
                    .traces(traces_per_class)
                    .shards(shards);
            if let Some(m) = mitigation {
                campaign = campaign.mitigation(*m);
            }
            let report = campaign.session().tvla();

            // Manual comparator: same seed layout and schedule, scalar
            // observe_window loop, one oracle push per sample, shard
            // merge in order.
            let counts = apple_power_sca::telemetry::split_counts(traces_per_class, shards);
            let mut merged = TvlaOracle::default();
            for (shard, &count) in counts.iter().enumerate() {
                let mut rig = Rig::new(
                    Device::MacbookAirM2,
                    VictimKind::UserSpace,
                    secret,
                    seed.wrapping_add(shard as u64),
                );
                rig.set_mitigation(mitigation.unwrap_or_else(MitigationConfig::none));
                let mut tvla = TvlaOracle::default();
                for pass in 0..2u8 {
                    for class in PlaintextClass::ALL {
                        for _ in 0..count {
                            let pt =
                                class.fixed_plaintext().unwrap_or_else(|| rig.random_plaintext());
                            let obs = rig.observe_window(pt, &keys);
                            let window = WindowEvent {
                                seq: 0,
                                time_s: obs.time_s,
                                pass,
                                class: Some(class),
                                plaintext: obs.plaintext,
                                ciphertext: obs.ciphertext,
                            };
                            for (k, value) in &obs.smc {
                                if let Some(v) = value {
                                    tvla.sample(&window, ChannelId::Smc(*k), *v);
                                }
                            }
                            tvla.sample(&window, ChannelId::Pcpu, obs.pcpu_delta_mj);
                        }
                    }
                }
                merged.merge(tvla);
            }

            for ch in keys.iter().map(|&k| ChannelId::Smc(k)).chain([ChannelId::Pcpu]) {
                match (report.tvla.accumulator(ch), merged.accs.get(&ch)) {
                    (None, None) => {}
                    (Some(a), Some(b)) => {
                        let am = a.matrix("x");
                        let bm = b.matrix("x");
                        for (ac, bc) in am.cells.iter().zip(&bm.cells) {
                            assert_eq!(
                                ac.t_score.to_bits(),
                                bc.t_score.to_bits(),
                                "shards={shards} mitigation={tag} channel={ch}"
                            );
                        }
                    }
                    (a, b) => panic!(
                        "shards={shards} mitigation={tag} {ch}: presence diverged ({a:?} vs {b:?})"
                    ),
                }
            }
        }
    }
}
