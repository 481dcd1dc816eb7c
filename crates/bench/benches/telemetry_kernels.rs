//! Telemetry-subsystem kernels: block-bus throughput, online accumulator
//! updates, and the headline comparison — single-threaded batch collection
//! vs the sharded streaming pipeline at 10k+ traces.

use psc_bench::measure::Run;
use psc_core::rig::Device;
use psc_core::victim::VictimKind;
use psc_core::Campaign;
use psc_sca::codec::{write_recording, LabeledTrace, RecordingReader};
use psc_sca::model::Rd0Hw;
use psc_sca::trace::Trace;
use psc_sca::tvla::PlaintextClass;
use psc_smc::key::key;
use psc_telemetry::block::EventBlock;
use psc_telemetry::event::{ChannelId, SchedEvent, WindowEvent};
use psc_telemetry::processor::Processor;
use psc_telemetry::processors::{StreamingCpa, StreamingTvla};
use psc_telemetry::ring::{channel, OverflowPolicy, RingBuffer};
use std::hint::black_box;

const SECRET: [u8; 16] = [0x2B; 16];
/// Rows per block — the campaign drivers' default `OBS_CHUNK`.
const BLOCK_ROWS: usize = 32;

/// A deterministic 10k-row stream over `channels` in `BLOCK_ROWS`-row
/// blocks, TVLA labels cycling through passes and classes row by row.
fn tape(channels: &[ChannelId]) -> Vec<EventBlock> {
    let mut state = 0x1234_5678_9ABC_DEF0u64;
    let mut blocks = Vec::new();
    let mut block = EventBlock::new();
    block.reset(channels);
    for i in 0..10_000u64 {
        let mut pt = [0u8; 16];
        for byte in pt.iter_mut() {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            *byte = (state >> 32) as u8;
        }
        let time_s = i as f64;
        block.begin(WindowEvent {
            seq: i,
            time_s,
            pass: (i % 2) as u8,
            class: Some(PlaintextClass::ALL[(i % 3) as usize]),
            plaintext: pt,
            ciphertext: pt,
        });
        for col in 0..channels.len() {
            block.sample(col, ((state >> 40) + col as u64) as f64);
        }
        block.commit(SchedEvent { time_s, windows_consumed: 1, window_s: 1.0, denied_reads: 0 });
        if block.len() == BLOCK_ROWS {
            blocks.push(block.clone());
            block.clear();
        }
    }
    if !block.is_empty() {
        blocks.push(block);
    }
    blocks
}

fn bench_bus(run: &mut Run) {
    run.measure_ns("telemetry_bus/ring_push_pop_1k", || {
        let mut ring = RingBuffer::new(256, OverflowPolicy::DropNewest);
        for i in 0..1000u64 {
            ring.push(black_box(i));
        }
        let mut sum = 0u64;
        while let Some(v) = ring.pop() {
            sum += v;
        }
        black_box(sum);
    });

    let blocks = tape(&[ChannelId::Pcpu]);
    run.measure_ns("telemetry_bus/channel_throughput_10k_rows", || {
        let (tx, rx) = channel(128, OverflowPolicy::Block);
        let delivered = std::thread::scope(|scope| {
            scope.spawn(|| {
                for block in &blocks {
                    tx.send(block.clone()).expect("receiver alive");
                }
                drop(tx);
            });
            let mut rows = 0usize;
            while let Some(block) = rx.recv() {
                rows += block.len();
            }
            rows
        });
        black_box(delivered);
    });
}

fn bench_online_accumulators(run: &mut Run) {
    // Pre-build the deterministic block tapes once; the 5-channel one has
    // the `cpa-replay` layout: the M2's four CPA keys, then PCPU.
    let smc: Vec<ChannelId> =
        Device::MacbookAirM2.cpa_keys().into_iter().map(ChannelId::Smc).collect();
    let tape_5ch = tape(&[&smc[..], &[ChannelId::Pcpu]].concat());
    let tape = tape(&[ChannelId::Pcpu]);

    run.measure_ns("telemetry_accumulators/streaming_tvla_10k_samples", || {
        let mut tvla = StreamingTvla::new();
        for block in &tape {
            tvla.on_block(block);
        }
        black_box(tvla.matrix(ChannelId::Pcpu, "PCPU"));
    });

    run.measure_ns("telemetry_accumulators/streaming_cpa_10k_traces", || {
        let mut cpa = StreamingCpa::new([ChannelId::Pcpu], || Box::new(Rd0Hw));
        for block in &tape {
            cpa.on_block(block);
        }
        black_box(cpa.cpa(ChannelId::Pcpu).expect("registered").ranks(&SECRET));
    });

    // One model-input pass per block feeds the four key columns.
    run.measure_ns("telemetry_accumulators/streaming_cpa_10k_traces_5ch", || {
        let mut cpa = StreamingCpa::new(smc.iter().copied(), || Box::new(Rd0Hw));
        tape_5ch.iter().for_each(|block| cpa.on_block(block));
        black_box(cpa.cpa(smc[0]).expect("registered").ranks(&SECRET));
    });

    // An in-memory 10k-trace recording decoded in replay-sized chunks.
    let traces: Vec<LabeledTrace> = (0..10_000u32)
        .map(|i| LabeledTrace {
            trace: Trace { value: f64::from(i), plaintext: [i as u8; 16], ciphertext: [7; 16] },
            pass: 0,
            class: None,
        })
        .collect();
    let mut bytes = Vec::new();
    write_recording("PHPC", &traces, &mut bytes).expect("in memory");
    let mut chunk = Vec::with_capacity(1024);
    run.measure_ns("telemetry_accumulators/codec_read_chunk_10k", || {
        let mut reader = RecordingReader::new(&bytes[..]).expect("valid recording");
        let mut n = 0;
        while reader.read_chunk(1024, &mut chunk).expect("valid recording") > 0 {
            n += chunk.len();
        }
        black_box(n);
    });

    let mut cpa = psc_sca::cpa::Cpa::new(Box::new(Rd0Hw));
    let trace = Trace { value: 1.5, plaintext: [7; 16], ciphertext: [9; 16] };
    run.measure_ns("telemetry_accumulators/cpa_add_trace_single", || {
        cpa.add_trace(black_box(&trace));
    });
}

/// One live shard vs the sharded streaming pipeline
/// correlating the same 10k-trace campaign.
fn bench_batch_vs_sharded(run: &mut Run) {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "collection_10k: {cores} core(s) available — the sharded streaming \
         variants need >1 core to beat the single shard on wall-clock"
    );
    let keys = [key("PHPC")];
    let n = 10_000;

    run.measure_ns("collection_10k/single_shard", || {
        let report = Campaign::live(Device::MacbookAirM2, VictimKind::UserSpace, SECRET, 42)
            .keys(&keys)
            .traces(n)
            .session()
            .cpa(|| Box::new(Rd0Hw));
        black_box(report.ranks(keys[0], &SECRET));
    });

    for shards in [2usize, 4, 8] {
        run.measure_ns(&format!("collection_10k/streaming_sharded_x{shards}"), || {
            let report = Campaign::live(Device::MacbookAirM2, VictimKind::UserSpace, SECRET, 42)
                .keys(&keys)
                .traces(n)
                .shards(shards)
                .session()
                .cpa(|| Box::new(Rd0Hw));
            black_box(report.ranks(keys[0], &SECRET));
        });
    }
}

fn bench_sharded_tvla(run: &mut Run) {
    let keys = [key("PHPC")];

    run.measure_ns("tvla_collection_1k_per_class/single_shard", || {
        let report = Campaign::live(Device::MacbookAirM2, VictimKind::UserSpace, SECRET, 42)
            .keys(&keys)
            .traces(1_000)
            .session()
            .tvla();
        black_box(report.matrix(keys[0]));
    });

    run.measure_ns("tvla_collection_1k_per_class/streaming_sharded_x4", || {
        let report = Campaign::live(Device::MacbookAirM2, VictimKind::UserSpace, SECRET, 42)
            .keys(&keys)
            .traces(1_000)
            .shards(4)
            .session()
            .tvla();
        black_box(report.matrix(keys[0]));
    });
}

fn main() {
    let mut run = Run::start("telemetry_kernels");
    bench_bus(&mut run);
    bench_online_accumulators(&mut run);
    bench_batch_vs_sharded(&mut run);
    bench_sharded_tvla(&mut run);
    run.finish();
}
