//! An independent per-row reference for the streaming processors.
//!
//! It is built only on the `psc_sca` primitives — `TvlaAccumulator::push`,
//! `TvlaTracker::push_a`/`push_b`, `Cpa::add_trace` and the codec writing
//! a `Vec<LabeledTrace>` — and walks observations one row and one sample
//! at a time: no columns, no SIMD lanes, no staging buffers. A test that
//! compares a processor with it compares two implementations, not the
//! block path with itself.
//!
//! Shared by the workspace tests (`mod common`) and by
//! `crates/core/tests/replay_merge.rs` (included by path).

#![allow(dead_code)]

use psc_sca::codec::{self, LabeledTrace, Recording};
use psc_sca::cpa::Cpa;
use psc_sca::model::PowerModel;
use psc_sca::trace::Trace;
use psc_sca::tvla::{PlaintextClass, TvlaAccumulator, TvlaTracker};
use psc_telemetry::block::EventBlock;
use psc_telemetry::event::{ChannelId, WindowEvent};
use std::collections::BTreeMap;

/// Walk `block` row by row, handing every present sample to `sink` with
/// its row's window record (channels in column order; denied reads
/// yield nothing).
pub fn for_each_sample(block: &EventBlock, mut sink: impl FnMut(&WindowEvent, ChannelId, f64)) {
    for (row, window) in block.windows().iter().enumerate() {
        for (col, &channel) in block.channels().iter().enumerate() {
            if let Some(value) = block.column(col)[row] {
                sink(window, channel, value);
            }
        }
    }
}

/// The scalar replay of one recording: trace `i` is an observation with
/// sequence number `seq_start + i` at `(seq_start + i + 1) × window_s`,
/// carrying the recorded pass/class and known-plaintext record, with one
/// sample on `channel`. Returns the sequence number after the last
/// trace, so recordings chain into one monotone stream.
pub fn replay_recording(
    recording: &Recording,
    channel: ChannelId,
    seq_start: u64,
    window_s: f64,
    sink: &mut dyn FnMut(&WindowEvent, ChannelId, f64),
) -> u64 {
    let mut seq = seq_start;
    for t in &recording.traces {
        let window = WindowEvent {
            seq,
            time_s: (seq + 1) as f64 * window_s,
            pass: t.pass,
            class: t.class,
            plaintext: t.trace.plaintext,
            ciphertext: t.trace.ciphertext,
        };
        sink(&window, channel, t.trace.value);
        seq += 1;
    }
    seq
}

/// First-order TVLA, one `push` per sample.
#[derive(Debug, Default)]
pub struct TvlaOracle {
    pub accs: BTreeMap<ChannelId, TvlaAccumulator>,
    /// Early-stop trackers of the watched channels: All-0s feeds side A,
    /// All-1s side B.
    pub trackers: BTreeMap<ChannelId, TvlaTracker>,
    /// Samples in rows without a TVLA class.
    pub orphan_samples: u64,
}

impl TvlaOracle {
    pub fn watch(&mut self, channel: ChannelId) {
        self.trackers.insert(channel, TvlaTracker::new());
    }

    pub fn sample(&mut self, window: &WindowEvent, channel: ChannelId, value: f64) {
        let Some(class) = window.class else {
            self.orphan_samples += 1;
            return;
        };
        self.accs.entry(channel).or_default().push(usize::from(window.pass), class, value);
        if let Some(tracker) = self.trackers.get_mut(&channel) {
            match class {
                PlaintextClass::AllZeros => tracker.push_a(value),
                PlaintextClass::AllOnes => tracker.push_b(value),
                PlaintextClass::Random => {}
            }
        }
    }

    pub fn block(&mut self, block: &EventBlock) {
        for_each_sample(block, |w, c, v| self.sample(w, c, v));
    }

    /// Fold another shard's accumulators into this one.
    pub fn merge(&mut self, other: Self) {
        for (channel, acc) in other.accs {
            let entry = self.accs.entry(channel).or_default();
            *entry = entry.merged(acc);
        }
        self.orphan_samples += other.orphan_samples;
    }
}

/// Known-plaintext CPA, one `add_trace` per sample on a registered
/// channel.
#[derive(Debug)]
pub struct CpaOracle {
    pub cpas: BTreeMap<ChannelId, Cpa>,
    /// Samples on channels without an accumulator.
    pub unregistered_samples: u64,
}

impl CpaOracle {
    pub fn new(
        channels: impl IntoIterator<Item = ChannelId>,
        model: impl Fn() -> Box<dyn PowerModel>,
    ) -> Self {
        Self {
            cpas: channels.into_iter().map(|c| (c, Cpa::new(model()))).collect(),
            unregistered_samples: 0,
        }
    }

    pub fn sample(&mut self, window: &WindowEvent, channel: ChannelId, value: f64) {
        match self.cpas.get_mut(&channel) {
            Some(cpa) => cpa.add_trace(&Trace {
                value,
                plaintext: window.plaintext,
                ciphertext: window.ciphertext,
            }),
            None => self.unregistered_samples += 1,
        }
    }

    pub fn block(&mut self, block: &EventBlock) {
        for_each_sample(block, |w, c, v| self.sample(w, c, v));
    }
}

/// One channel's recording: every sample with its row's labels, cut
/// into shard files of at most `capacity` traces.
#[derive(Debug)]
pub struct RecorderOracle {
    pub channel: ChannelId,
    pub traces: Vec<LabeledTrace>,
}

impl RecorderOracle {
    pub fn new(channel: ChannelId) -> Self {
        Self { channel, traces: Vec::new() }
    }

    pub fn block(&mut self, block: &EventBlock) {
        for_each_sample(block, |w, c, value| {
            if c == self.channel {
                self.traces.push(LabeledTrace {
                    trace: Trace { value, plaintext: w.plaintext, ciphertext: w.ciphertext },
                    pass: w.pass,
                    class: w.class,
                });
            }
        });
    }

    /// The bytes of each shard file, in write order.
    pub fn files(&self, label: &str, capacity: usize) -> Vec<Vec<u8>> {
        self.traces
            .chunks(capacity)
            .map(|batch| {
                let mut bytes = Vec::new();
                codec::write_recording(label, batch, &mut bytes).expect("in-memory write");
                bytes
            })
            .collect()
    }
}
