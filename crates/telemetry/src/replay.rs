//! Replay sources: turn recorded campaigns back into block rows.
//!
//! A [`crate::processors::ShardRecorder`] persists one channel's slice of
//! a campaign as labeled `.psct` shards; this module turns such
//! recordings back into the block rows a live rig would have produced,
//! so every streaming processor
//! ([`StreamingTvla`](crate::processors::StreamingTvla),
//! [`StreamingCpa`](crate::processors::StreamingCpa), monitors, even a
//! re-recording recorder) runs unchanged over offline data.
//!
//! * [`fill_rows`] is the row emitter: it merges the recorded
//!   channels of one shard in lockstep into [`EventBlock`] rows, one row
//!   per observation with one column per channel — the layout the live
//!   rig emits. A row's window is the head of the first channel that
//!   still has traces; every channel whose head carries the same
//!   `(pass, class, plaintext, ciphertext)` adds its sample and
//!   advances, every other channel leaves its slot `None`. Each
//!   channel's samples therefore keep their order and their own labels,
//!   so per-channel accumulators end bit-identical to replaying each
//!   channel alone, on aligned and misaligned recordings alike.
//!   Each row carries the recorded TVLA pass/class and known-plaintext
//!   record, and a one-window cadence record on a synthetic timeline.
//! * [`fill_block`] is the one-channel case of [`fill_rows`].

use crate::block::EventBlock;
use crate::event::{ChannelId, SchedEvent, WindowEvent};
use psc_sca::codec::LabeledTrace;
use psc_smc::SmcKey;

/// Map a recording's channel label back to its [`ChannelId`]: `PCPU` and
/// `TIME` are the IOReport/timing pseudo-channels, any other four-byte
/// label is an SMC key. Returns `None` for labels that fit neither shape.
#[must_use]
pub fn channel_for_label(label: &str) -> Option<ChannelId> {
    match label {
        "PCPU" => Some(ChannelId::Pcpu),
        "TIME" => Some(ChannelId::Timing),
        other => {
            let bytes: [u8; 4] = other.as_bytes().try_into().ok()?;
            SmcKey::new(bytes).ok().map(ChannelId::Smc)
        }
    }
}

/// One recorded channel's buffered traces in a [`fill_rows`] merge.
#[derive(Debug, Clone, Copy)]
pub struct Lane<'a> {
    /// Traces not yet emitted, head first. [`fill_rows`] advances it
    /// past every trace it emits.
    pub pending: &'a [LabeledTrace],
    /// Whether `pending` holds everything the channel has left. A lane
    /// with `last == false` stalls the merge once it runs dry, because
    /// its next (unread) head may belong to the next row.
    pub last: bool,
}

/// Whether two recorded traces belong to the same observation window.
fn same_window(a: &LabeledTrace, b: &LabeledTrace) -> bool {
    a.pass == b.pass
        && a.class == b.class
        && a.trace.plaintext == b.trace.plaintext
        && a.trace.ciphertext == b.trace.ciphertext
}

/// Merge recorded channels in lockstep into at most `max_rows`
/// [`EventBlock`] rows (see the module docs for the merge rule). Lane
/// `c` feeds block column `c`; rows land on the synthetic `window_s`
/// timeline starting at `seq_start`, each with a one-window cadence
/// record. Stops early when every lane is empty, or when a lane that is
/// not `last` runs dry and must be refilled first. Returns the sequence
/// number after the last appended row.
///
/// # Panics
///
/// Panics if `lanes` and the block's columns differ in number.
pub fn fill_rows(
    lanes: &mut [Lane<'_>],
    seq_start: u64,
    window_s: f64,
    block: &mut EventBlock,
    max_rows: usize,
) -> u64 {
    assert_eq!(block.channels().len(), lanes.len(), "one replay lane per block column");
    let mut seq = seq_start;
    let mut left = max_rows;
    while left > 0 {
        // A lane advances at most one trace per row, so for this many rows
        // no lane that may still be refilled can run dry.
        let safe = lanes
            .iter()
            .filter(|lane| !lane.last)
            .map(|lane| lane.pending.len())
            .fold(left, usize::min);
        if safe == 0 {
            break;
        }
        for _ in 0..safe {
            let Some(lead) = lanes.iter().position(|lane| !lane.pending.is_empty()) else {
                return seq;
            };
            let (&head, rest) = lanes[lead].pending.split_first().expect("lead lane has a head");
            lanes[lead].pending = rest;
            let time_s = (seq + 1) as f64 * window_s;
            block.begin(WindowEvent {
                seq,
                time_s,
                pass: head.pass,
                class: head.class,
                plaintext: head.trace.plaintext,
                ciphertext: head.trace.ciphertext,
            });
            block.sample(lead, head.trace.value);
            for (col, lane) in lanes.iter_mut().enumerate().skip(lead + 1) {
                if let Some((t, rest)) = lane.pending.split_first() {
                    if same_window(t, &head) {
                        block.sample(col, t.trace.value);
                        lane.pending = rest;
                    }
                }
            }
            block.commit(SchedEvent { time_s, windows_consumed: 1, window_s, denied_reads: 0 });
            seq += 1;
        }
        left -= safe;
    }
    seq
}

/// Append one channel's recorded traces to an [`EventBlock`] as replayed
/// observations — the one-channel case of [`fill_rows`]: trace `i` becomes
/// row `seq_start + i` at time `(seq_start + i + 1) × window_s`, carrying
/// the trace's labels and value. Returns the sequence number after the
/// last appended row.
///
/// # Panics
///
/// Panics if `block` does not have exactly one channel column.
pub fn fill_block(
    traces: &[LabeledTrace],
    seq_start: u64,
    window_s: f64,
    block: &mut EventBlock,
) -> u64 {
    fill_rows(&mut [Lane { pending: traces, last: true }], seq_start, window_s, block, usize::MAX)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::processors::StreamingTvla;
    use crate::Processor;
    use psc_sca::codec::LabeledTrace;
    use psc_sca::trace::Trace;
    use psc_sca::tvla::PlaintextClass;
    use psc_smc::key::key;

    #[test]
    fn labels_map_to_channels() {
        assert_eq!(channel_for_label("PCPU"), Some(ChannelId::Pcpu));
        assert_eq!(channel_for_label("TIME"), Some(ChannelId::Timing));
        assert_eq!(channel_for_label("PHPC"), Some(ChannelId::Smc(key("PHPC"))));
        assert_eq!(channel_for_label("toolong"), None);
        assert_eq!(channel_for_label(""), None);
    }

    #[test]
    fn replayed_recording_rebuilds_tvla_state() {
        let mut traces = Vec::new();
        for pass in 0..2u8 {
            for class in PlaintextClass::ALL {
                for i in 0..5 {
                    traces.push(LabeledTrace {
                        trace: Trace {
                            value: f64::from(i) + f64::from(class.index() as u32),
                            plaintext: class.fixed_plaintext().unwrap_or([i as u8; 16]),
                            ciphertext: [0; 16],
                        },
                        pass,
                        class: Some(class),
                    });
                }
            }
        }
        let channel = channel_for_label("PHPC").unwrap();
        let mut block = EventBlock::new();
        block.reset(&[channel]);
        let next = fill_block(&traces, 0, 1.0, &mut block);
        assert_eq!(next, 30);
        let mut tvla = StreamingTvla::new();
        tvla.on_block(&block);
        let acc = tvla.accumulator(channel).expect("replayed");
        for pass in 0..2 {
            for class in PlaintextClass::ALL {
                assert_eq!(acc.count(pass, class), 5);
            }
        }
    }

    #[test]
    fn fill_block_matches_scalar_replay() {
        let traces: Vec<LabeledTrace> = (0..7)
            .map(|i| LabeledTrace {
                trace: Trace {
                    value: f64::from(i) * 0.25,
                    plaintext: [i as u8; 16],
                    ciphertext: [0x40 | i as u8; 16],
                },
                pass: (i % 2) as u8,
                class: Some(PlaintextClass::ALL[(i % 3) as usize]),
            })
            .collect();

        let mut block = EventBlock::new();
        block.reset(&[ChannelId::Pcpu]);
        // Two chunks, continuing the sequence across them.
        let mid = fill_block(&traces[..4], 3, 2.0, &mut block);
        let end = fill_block(&traces[4..], mid, 2.0, &mut block);
        assert_eq!((mid, end), (7, 10));

        // Trace i replays as row 3 + i at (3 + i + 1) x 2 s, one window
        // per row, with the trace's labels and value.
        assert_eq!(block.len(), traces.len());
        for (i, t) in traces.iter().enumerate() {
            let seq = 3 + i as u64;
            let time_s = (seq + 1) as f64 * 2.0;
            let want = WindowEvent {
                seq,
                time_s,
                pass: t.pass,
                class: t.class,
                plaintext: t.trace.plaintext,
                ciphertext: t.trace.ciphertext,
            };
            assert_eq!(block.windows()[i], want);
            assert_eq!(block.column(0)[i], Some(t.trace.value));
            let sched = SchedEvent { time_s, windows_consumed: 1, window_s: 2.0, denied_reads: 0 };
            assert_eq!(block.scheds()[i], sched);
        }
    }

    fn labeled(i: u8, value: f64) -> LabeledTrace {
        LabeledTrace {
            trace: Trace { value, plaintext: [i; 16], ciphertext: [!i; 16] },
            pass: 0,
            class: None,
        }
    }

    #[test]
    fn fill_rows_merges_channels_into_one_row_per_observation() {
        let pcpu: Vec<_> = (0..5).map(|i| labeled(i, f64::from(i))).collect();
        // PHPC lost row 2 (a denied read).
        let phpc: Vec<_> =
            [0u8, 1, 3, 4].iter().map(|&i| labeled(i, 10.0 + f64::from(i))).collect();
        let mut block = EventBlock::new();
        block.reset(&[ChannelId::Pcpu, ChannelId::Smc(key("PHPC"))]);
        let mut lanes = [Lane { pending: &pcpu, last: true }, Lane { pending: &phpc, last: true }];
        let end = fill_rows(&mut lanes, 7, 1.0, &mut block, usize::MAX);
        assert_eq!(end, 12);
        assert!(lanes.iter().all(|l| l.pending.is_empty()));
        let pts: Vec<u8> = block.windows().iter().map(|w| w.plaintext[0]).collect();
        assert_eq!(pts, [0, 1, 2, 3, 4]);
        assert_eq!(block.column(0), &[Some(0.0), Some(1.0), Some(2.0), Some(3.0), Some(4.0)]);
        assert_eq!(block.column(1), &[Some(10.0), Some(11.0), None, Some(13.0), Some(14.0)]);
    }

    #[test]
    fn fill_rows_stalls_on_a_dry_lane_and_honours_the_row_cap() {
        let a: Vec<_> = (0..4).map(|i| labeled(i, 0.0)).collect();
        let b: Vec<_> = (0..2).map(|i| labeled(i, 1.0)).collect();
        let mut block = EventBlock::new();
        block.reset(&[ChannelId::Pcpu, ChannelId::Timing]);
        let mut lanes = [Lane { pending: &a, last: true }, Lane { pending: &b, last: false }];
        assert_eq!(fill_rows(&mut lanes, 0, 1.0, &mut block, 1), 1, "row cap");
        // `b` runs dry after its second trace and may have more on disk:
        // the merge waits rather than guess that row 2 lacks it.
        assert_eq!(fill_rows(&mut lanes, 1, 1.0, &mut block, usize::MAX), 2);
        assert!(lanes[1].pending.is_empty());
        assert_eq!(lanes[0].pending.len(), 2);
        lanes[1].last = true;
        assert_eq!(fill_rows(&mut lanes, 2, 1.0, &mut block, usize::MAX), 4);
        assert_eq!(block.column(1), &[Some(1.0), Some(1.0), None, None]);
    }

    #[test]
    fn seq_chains_across_recordings() {
        let one = [labeled(0, 1.0)];
        let mut block = EventBlock::new();
        block.reset(&[ChannelId::Pcpu]);
        let mid = fill_block(&one, 0, 1.0, &mut block);
        let end = fill_block(&one, mid, 1.0, &mut block);
        assert_eq!((mid, end), (1, 2));
        let seqs: Vec<u64> = block.windows().iter().map(|w| w.seq).collect();
        assert_eq!(seqs, vec![0, 1]);
    }
}
