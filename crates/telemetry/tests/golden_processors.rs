//! Golden pin of every streaming processor's observable state.
//!
//! One fixed, seeded block stream runs through each processor, and every
//! bit a processor exposes is folded into an FNV-1a digest: the
//! `encode_state` checkpoint payload after every block and at the end,
//! the recorder's shard-file names and bytes, and the cadence monitor's
//! checkpointed state (poll clock included) and retained checkpoints.
//! The streams cover label-uniform and mixed TVLA blocks, CPA blocks with
//! denied reads and unregistered channels, `CpaGrid` grid points that
//! split a block, misaligned replay rows from `fill_rows`, and the poll
//! grid's edge cases: a tick exactly on a row time, a multi-tick gap, a
//! row whose cadence record is later than its window, and the same
//! stream cut into one block or into one-row blocks.
//!
//! A moved digest means a processor's accumulators, counters or
//! checkpoint bytes changed — a resumed campaign would no longer read the
//! frames an older build wrote.

use psc_sca::checkpoint::{PayloadReader, PayloadWriter};
use psc_sca::codec::LabeledTrace;
use psc_sca::model::{Rd0Hw, Rd10Hd};
use psc_sca::trace::Trace;
use psc_sca::tvla::PlaintextClass;
use psc_smc::key::key;
use psc_telemetry::block::EventBlock;
use psc_telemetry::event::{ChannelId, SchedEvent, WindowEvent};
use psc_telemetry::processor::Processor;
use psc_telemetry::processors::cpa::ModelFactory;
use psc_telemetry::processors::{
    CpaGrid, SecondOrderTvla, ShardRecorder, StreamingCpa, StreamingTvla, ThrottleMonitor,
};
use psc_telemetry::replay::{fill_rows, Lane};
use std::path::PathBuf;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

fn fold_bytes(h: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(h, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3))
}

fn fold(h: u64, word: u64) -> u64 {
    fold_bytes(h, &word.to_le_bytes())
}

/// Length-prefixed payload fold, so adjacent payloads cannot alias.
fn fold_payload(h: u64, bytes: &[u8]) -> u64 {
    fold_bytes(fold(h, bytes.len() as u64), bytes)
}

struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }

    fn bytes16(&mut self) -> [u8; 16] {
        core::array::from_fn(|_| (self.next() >> 32) as u8)
    }

    /// A sample value, or a denied read one time in `deny`.
    fn sample(&mut self, deny: u64) -> Option<f64> {
        let x = self.next();
        (!x.is_multiple_of(deny)).then(|| ((x >> 11) as f64 / (1u64 << 40) as f64) * 4.0 - 1.0)
    }
}

/// One observation row as the block stores it.
#[derive(Clone)]
struct Row {
    window: WindowEvent,
    samples: Vec<Option<f64>>,
    sched: SchedEvent,
}

fn row(seq: u64, time_s: f64, pass: u8, class: Option<PlaintextClass>, rng: &mut Rng) -> Row {
    let plaintext =
        class.and_then(PlaintextClass::fixed_plaintext).unwrap_or_else(|| rng.bytes16());
    Row {
        window: WindowEvent { seq, time_s, pass, class, plaintext, ciphertext: rng.bytes16() },
        samples: Vec::new(),
        sched: SchedEvent { time_s, windows_consumed: 1, window_s: 1.0, denied_reads: 0 },
    }
}

/// Fill each row's samples (`width` channels, one denied read in `deny`)
/// and count the denied reads into its cadence record.
fn with_samples(mut rows: Vec<Row>, width: usize, deny: u64, rng: &mut Rng) -> Vec<Row> {
    for r in &mut rows {
        r.samples = (0..width).map(|_| rng.sample(deny)).collect();
        r.sched.denied_reads = r.samples.iter().filter(|s| s.is_none()).count() as u32;
        r.sched.windows_consumed = 1 + (rng.next() % 3) as u32;
    }
    rows
}

fn block_of(channels: &[ChannelId], rows: &[Row]) -> EventBlock {
    let mut block = EventBlock::new();
    block.reset(channels);
    for r in rows {
        block.begin(r.window);
        for (col, v) in r.samples.iter().enumerate() {
            if let Some(value) = *v {
                block.sample(col, value);
            }
        }
        block.commit(r.sched);
    }
    block
}

/// Cut `rows` into blocks of the cyclic sizes `cuts`.
fn cut(channels: &[ChannelId], rows: &[Row], cuts: &[usize]) -> Vec<EventBlock> {
    let mut blocks = Vec::new();
    let mut from = 0;
    for &n in cuts.iter().cycle() {
        if from >= rows.len() {
            break;
        }
        let to = (from + n).min(rows.len());
        blocks.push(block_of(channels, &rows[from..to]));
        from = to;
    }
    blocks
}

fn tvla_channels() -> Vec<ChannelId> {
    ["PHPC", "PSTR", "PDTR", "PMVC"]
        .into_iter()
        .map(|k| ChannelId::Smc(key(k)))
        .chain([ChannelId::Pcpu])
        .collect()
}

/// Label-uniform TVLA blocks (two passes × three classes, 20 rows per
/// segment, cut at 7 rows inside each segment), then mixed blocks whose
/// rows carry random labels, unclassed CPA windows among them.
fn tvla_blocks() -> Vec<EventBlock> {
    let channels = tvla_channels();
    let mut rng = Rng(0x7A1A_0001);
    let mut blocks = Vec::new();
    let mut seq = 0u64;
    for pass in 0..2u8 {
        for class in PlaintextClass::ALL {
            let rows: Vec<Row> = (0..20)
                .map(|_| {
                    seq += 1;
                    row(seq, seq as f64 * 0.5, pass, Some(class), &mut rng)
                })
                .collect();
            let rows = with_samples(rows, channels.len(), 6, &mut rng);
            blocks.extend(cut(&channels, &rows, &[7]));
        }
    }
    let rows: Vec<Row> = (0..60)
        .map(|_| {
            seq += 1;
            let pass = (rng.next() % 2) as u8;
            let class = PlaintextClass::ALL.get((rng.next() % 4) as usize).copied();
            row(seq, seq as f64 * 0.5, pass, class, &mut rng)
        })
        .collect();
    let rows = with_samples(rows, channels.len(), 5, &mut rng);
    blocks.extend(cut(&channels, &rows, &[9, 1, 13]));
    blocks
}

fn cpa_channels() -> Vec<ChannelId> {
    vec![ChannelId::Smc(key("PHPC")), ChannelId::Smc(key("PDTR")), ChannelId::Pcpu]
}

/// Known-plaintext CPA rows with denied reads, cut into uneven blocks.
fn cpa_blocks() -> Vec<EventBlock> {
    let mut rng = Rng(0xC9A0_0002);
    let rows: Vec<Row> = (1..=120u64).map(|s| row(s, s as f64, 0, None, &mut rng)).collect();
    let rows = with_samples(rows, cpa_channels().len(), 5, &mut rng);
    cut(&cpa_channels(), &rows, &[1, 5, 13, 32, 7])
}

/// Misaligned replay rows: three recorded channels slice one observation
/// sequence with different denied rows; `fill_rows` merges them into
/// blocks of at most 11 rows.
fn replay_blocks() -> Vec<EventBlock> {
    let mut rng = Rng(0x4E9A_0003);
    let base: Vec<LabeledTrace> = (0..90)
        .map(|i| {
            let class = PlaintextClass::ALL[(i / 15) % 3];
            LabeledTrace {
                trace: Trace {
                    value: 0.0,
                    plaintext: class.fixed_plaintext().unwrap_or_else(|| rng.bytes16()),
                    ciphertext: rng.bytes16(),
                },
                pass: (i / 45) as u8,
                class: Some(class),
            }
        })
        .collect();
    let lane = |salt: u64, keep: &dyn Fn(usize) -> bool| -> Vec<LabeledTrace> {
        base.iter()
            .enumerate()
            .filter(|(i, _)| keep(*i))
            .map(|(i, t)| {
                let mut t = *t;
                t.trace.value = ((i as u64 + 1).wrapping_mul(0x2545_F491_4F6C_DD1D) ^ salt) as f64
                    / u64::MAX as f64;
                t
            })
            .collect()
    };
    let pcpu = lane(1, &|i| i % 7 != 3);
    let phpc = lane(2, &|i| i % 5 != 0);
    let pdtr = lane(3, &|i| !(30..38).contains(&i));
    let channels = [ChannelId::Smc(key("PDTR")), ChannelId::Smc(key("PHPC")), ChannelId::Pcpu];
    let mut lanes = [
        Lane { pending: &pdtr, last: true },
        Lane { pending: &phpc, last: true },
        Lane { pending: &pcpu, last: true },
    ];
    let mut blocks = Vec::new();
    let mut seq = 0;
    loop {
        let mut block = EventBlock::new();
        block.reset(&channels);
        seq = fill_rows(&mut lanes, seq, 0.75, &mut block, 11);
        if block.is_empty() {
            return blocks;
        }
        blocks.push(block);
    }
}

/// Cadence rows on a 1 s poll grid armed at 1.25 s: a tick exactly on a
/// row time (2.25), a multi-tick gap (3.0 → 7.0), a cadence record later
/// than its window that alone crosses ticks (window 7.1, sched 9.3), and
/// a stretched regular tail.
fn cadence_rows() -> Vec<Row> {
    let mut rng = Rng(0xCADE_0004);
    let times: [(f64, f64); 9] = [
        (0.25, 0.25),
        (0.5, 0.5),
        (1.25, 1.25),
        (2.25, 2.25),
        (3.0, 3.0),
        (7.0, 7.0),
        (7.1, 9.3),
        (9.4, 9.4),
        (9.4, 9.6),
    ];
    let mut rows: Vec<Row> = times
        .iter()
        .enumerate()
        .map(|(i, &(w, s))| {
            let mut r = row(i as u64, w, 0, None, &mut rng);
            r.sched.time_s = s;
            r
        })
        .collect();
    for i in 0..50u64 {
        let t = 10.0 + i as f64 * 0.4;
        rows.push(row(9 + i, t, 0, None, &mut rng));
    }
    with_samples(rows, 1, 4, &mut rng)
}

/// Cadence rows whose records disagree with their windows: the first
/// row's record is later than its window (the clock arms from the window
/// time, and a tick between the two fires before the row counts), and a
/// later row's record is earlier than its window (ticks up to the window
/// time still fire before that row counts).
fn skewed_cadence_rows() -> Vec<Row> {
    let mut rng = Rng(0x5CE3_0005);
    let times: [(f64, f64); 6] =
        [(0.5, 1.7), (1.8, 1.8), (2.9, 2.9), (5.2, 4.1), (5.3, 5.3), (6.6, 6.6)];
    let rows = times
        .iter()
        .enumerate()
        .map(|(i, &(w, s))| {
            let mut r = row(i as u64, w, 0, None, &mut rng);
            r.sched.time_s = s;
            r
        })
        .collect();
    with_samples(rows, 1, 4, &mut rng)
}

fn payload(m: &ThrottleMonitor) -> Vec<u8> {
    let mut w = PayloadWriter::new();
    m.encode_state(&mut w);
    w.into_payload()
}

fn restore(m: &mut ThrottleMonitor, payload: &[u8]) {
    let mut r = PayloadReader::new(payload);
    m.restore_state(&mut r).unwrap();
    r.finish().unwrap();
}

/// Digest a monitor run: the checkpoint payload after every block, then
/// the retained checkpoints and totals after the trailing flush.
fn monitor_digest(blocks: &[EventBlock], interval_s: f64, depth: usize) -> u64 {
    let mut m = ThrottleMonitor::new(interval_s, depth);
    let mut h = FNV_OFFSET;
    for block in blocks {
        m.on_block(block);
        h = fold_payload(h, &payload(&m));
    }
    m.on_finish();
    monitor_final(h, &m)
}

fn monitor_final(mut h: u64, m: &ThrottleMonitor) -> u64 {
    h = fold_payload(h, &payload(m));
    for c in m.checkpoints() {
        h = fold(h, c.time_s.to_bits());
        h = fold(h, c.observations);
        h = fold(h, c.windows);
        h = fold(h, c.stretch.to_bits());
    }
    h = fold(h, m.observations());
    h = fold(h, m.denied_reads());
    fold(h, m.overall_stretch().to_bits())
}

/// Run `blocks` through `p`, folding `encode` after every block and once
/// more after `on_finish`.
fn state_digest<P: Processor>(
    p: &mut P,
    blocks: &[EventBlock],
    encode: impl Fn(&P, &mut PayloadWriter),
) -> u64 {
    let payload = |p: &P| {
        let mut w = PayloadWriter::new();
        encode(p, &mut w);
        w.into_payload()
    };
    let mut h = FNV_OFFSET;
    for block in blocks {
        p.on_block(block);
        h = fold_payload(h, &payload(p));
    }
    p.on_finish();
    fold_payload(h, &payload(p))
}

fn tvla_digests(blocks: &[EventBlock]) -> [u64; 2] {
    let mut first = StreamingTvla::new();
    first.watch(ChannelId::Smc(key("PHPC")), 4);
    first.watch(ChannelId::Pcpu, 4);
    let mut second = SecondOrderTvla::new();
    [
        state_digest(&mut first, blocks, StreamingTvla::encode_state),
        state_digest(&mut second, blocks, SecondOrderTvla::encode_state),
    ]
}

fn cpa_digest(blocks: &[EventBlock]) -> u64 {
    let mut cpa =
        StreamingCpa::new([ChannelId::Smc(key("PHPC")), ChannelId::Pcpu], || Box::new(Rd0Hw));
    state_digest(&mut cpa, blocks, StreamingCpa::encode_state)
}

fn grid_digests(blocks: &[EventBlock]) -> [u64; 2] {
    let models: [ModelFactory; 2] = [|| Box::new(Rd0Hw), || Box::new(Rd10Hd)];
    let grid = [3, 10, 11, 40, 64, 65, 500];
    let channel = ChannelId::Smc(key("PHPC"));
    // A first shard, and a second one whose slice starts mid-campaign.
    let mut first = CpaGrid::new(channel, &models, &grid, 0..120);
    let mut later = CpaGrid::new(channel, &models, &grid, 30..150);
    [
        state_digest(&mut first, blocks, CpaGrid::encode_state),
        state_digest(&mut later, blocks, CpaGrid::encode_state),
    ]
}

fn recorder_digest(blocks: &[EventBlock], tag: &str) -> u64 {
    let dir: PathBuf =
        std::env::temp_dir().join(format!("psc_golden_rec_{tag}_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let mut rec = ShardRecorder::new(&dir, "PHPC", ChannelId::Smc(key("PHPC")), 1, 7);
    for block in blocks {
        rec.on_block(block);
    }
    rec.on_finish();
    let mut h = FNV_OFFSET;
    for path in rec.files() {
        let name = path.file_name().unwrap().to_string_lossy().into_owned();
        h = fold_payload(h, name.as_bytes());
        h = fold_payload(h, &std::fs::read(path).unwrap());
    }
    let state = rec.checkpoint_state();
    h = fold(h, state.files_written);
    h = fold(h, state.traces_recorded);
    h = fold(h, state.io_errors);
    h = fold(h, state.io_retries);
    std::fs::remove_dir_all(&dir).ok();
    h
}

/// The recorded digests, in the order the test prints them.
const WANT: [(&str, u64); 16] = [
    ("tvla/first-order", 0x92a8_43f9_d87a_4d0a),
    ("tvla/second-order", 0x15ac_4be3_c819_3f2e),
    ("tvla/monitor", 0x56a4_94c1_06ee_335a),
    ("tvla/recorder", 0x425b_0d96_b730_0a32),
    ("cpa/streaming", 0xf04a_3914_ebd5_e1b1),
    ("cpa/grid-first", 0x7a81_dae5_d2ed_d654),
    ("cpa/grid-later", 0x319b_a4e7_717a_292c),
    ("cpa/monitor", 0xb9b0_8e84_5a91_8a96),
    ("cpa/recorder", 0x88e2_2797_2dd7_7048),
    ("replay/first-order", 0x70c0_dcbe_1f28_d1f0),
    ("replay/cpa", 0x52da_5f94_923b_2a18),
    ("replay/monitor", 0xd9de_fffd_78aa_a993),
    ("cadence/blocks-of-3", 0x78a6_1742_fc60_9680),
    ("cadence/one-block", 0x43e6_256d_330d_e0a9),
    ("cadence/depth-3", 0x425e_fe01_7bb8_d155),
    ("cadence/skewed", 0xa294_8de0_f62e_5c7f),
];

#[test]
fn processor_states_match_the_recorded_digests() {
    let tvla = tvla_blocks();
    let cpa = cpa_blocks();
    let replay = replay_blocks();
    let cadence = cadence_rows();
    let channel = [ChannelId::Pcpu];
    let rows_of_3 = cut(&channel, &cadence, &[3]);
    let single_rows = cut(&channel, &cadence, &[1]);
    let one_block = cut(&channel, &cadence, &[cadence.len()]);

    let [tvla_first, tvla_second] = tvla_digests(&tvla);
    let [grid_first, grid_later] = grid_digests(&cpa);
    let [replay_first, _] = tvla_digests(&replay);
    let got = [
        tvla_first,
        tvla_second,
        monitor_digest(&tvla, 4.0, 8),
        recorder_digest(&tvla, "tvla"),
        cpa_digest(&cpa),
        grid_first,
        grid_later,
        monitor_digest(&cpa, 8.0, 64),
        recorder_digest(&cpa, "cpa"),
        replay_first,
        cpa_digest(&replay),
        monitor_digest(&replay, 4.0, 64),
        monitor_digest(&rows_of_3, 1.0, 64),
        monitor_digest(&one_block, 1.0, 64),
        monitor_digest(&single_rows, 1.0, 3),
        monitor_digest(&cut(&channel, &skewed_cadence_rows(), &[2]), 1.0, 64),
    ];
    let moved: Vec<String> = WANT
        .iter()
        .zip(&got)
        .filter(|((_, want), got)| want != *got)
        .map(|((name, want), got)| format!("{name}: want {want:#018x}, got {got:#018x}"))
        .collect();
    assert!(moved.is_empty(), "processor digests moved:\n{}", moved.join("\n"));
}

/// The poll grid never depends on how the stream is cut into blocks, and
/// a monitor restored from a mid-stream checkpoint continues on the same
/// grid as the uninterrupted one.
#[test]
fn cadence_grid_is_independent_of_block_cuts_and_resumes() {
    let cadence = cadence_rows();
    let channel = [ChannelId::Pcpu];
    let finals: Vec<u64> = [1, 2, 3, 5, cadence.len()]
        .into_iter()
        .map(|n| {
            let mut m = ThrottleMonitor::new(1.0, 64);
            cut(&channel, &cadence, &[n]).iter().for_each(|b| m.on_block(b));
            m.on_finish();
            monitor_final(FNV_OFFSET, &m)
        })
        .collect();
    assert!(finals.windows(2).all(|w| w[0] == w[1]), "{finals:x?}");

    let blocks = cut(&channel, &cadence, &[4]);
    let mut whole = ThrottleMonitor::new(1.0, 64);
    blocks.iter().for_each(|b| whole.on_block(b));
    whole.on_finish();
    for split in 1..blocks.len() {
        let mut first = ThrottleMonitor::new(1.0, 64);
        blocks[..split].iter().for_each(|b| first.on_block(b));
        let mut resumed = ThrottleMonitor::new(1.0, 64);
        restore(&mut resumed, &payload(&first));
        blocks[split..].iter().for_each(|b| resumed.on_block(b));
        resumed.on_finish();
        assert_eq!(
            monitor_final(FNV_OFFSET, &resumed),
            monitor_final(FNV_OFFSET, &whole),
            "resumed after block {split}"
        );
    }
    // The grid arms one interval after the first row's window time and
    // fires ticks on row times, across gaps and late cadence records.
    let times: Vec<f64> = whole.checkpoints().map(|c| c.time_s).collect();
    assert_eq!(&times[..8], &[1.25, 2.25, 3.25, 4.25, 5.25, 6.25, 7.25, 8.25]);
}
