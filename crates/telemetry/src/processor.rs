//! The processor abstraction and the poll-grid dispatcher.
//!
//! Mirrors the event-driven/polling split of embedded input pipelines:
//! every processor reacts to bus traffic; a *polling* processor (the
//! cadence monitor) also gets `on_poll` callbacks on a fixed
//! simulated-time grid (the cadence an attacker's sampling loop would
//! use), fired by [`dispatch_with_poll`]. Poll scheduling is driven by
//! event timestamps, not wall clock, so pipelines stay fully
//! deterministic and replayable.

use crate::block::EventBlock;
use crate::event::Event;

/// A streaming consumer of telemetry events.
pub trait Processor {
    /// Short identifier for reports.
    fn name(&self) -> &'static str;

    /// Handle one bus event.
    fn on_event(&mut self, event: &Event);

    /// Handle one columnar [`EventBlock`] — the bus's batched fast path.
    ///
    /// The default replays the block as its exact scalar event sequence
    /// through [`Self::on_event`], so every processor works on a block
    /// bus unchanged. Hot processors override this with true columnar
    /// updates (per-column tight loops); an override must stay
    /// **bit-identical** to the default — same accumulator streams, same
    /// counters — which `tests/block_equivalence.rs` pins for the
    /// in-tree processors.
    fn on_block(&mut self, block: &EventBlock) {
        block.for_each_event(&mut |event| self.on_event(event));
    }

    /// Fixed-interval callback at simulated time `time_s` (fired by
    /// [`dispatch_with_poll`]).
    fn on_poll(&mut self, time_s: f64) {
        let _ = time_s;
    }

    /// Stream end: flush buffered state (e.g. partial recorder shards).
    fn on_finish(&mut self) {}
}

/// Deliver one block to a fixed-interval polling processor: per event,
/// fire any poll ticks due at or before the event's timestamp, then
/// deliver the event. The poll clock lives in `next_poll_s` (armed at the
/// first event, one interval later) so a caller can checkpoint and
/// restore it without shifting the grid; the grid is the same however
/// the stream is cut into blocks.
pub fn dispatch_with_poll(
    processor: &mut impl Processor,
    next_poll_s: &mut Option<f64>,
    interval_s: f64,
    block: &EventBlock,
) {
    block.for_each_event(&mut |event| {
        let now_s = event.time_s();
        let next = next_poll_s.get_or_insert(now_s + interval_s);
        while *next <= now_s {
            processor.on_poll(*next);
            *next += interval_s;
        }
        processor.on_event(event);
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{ChannelId, SchedEvent, WindowEvent};
    use crate::ring::{channel, OverflowPolicy};

    #[derive(Default)]
    struct Counter {
        events: usize,
        polls: Vec<f64>,
        finished: bool,
    }

    impl Processor for Counter {
        fn name(&self) -> &'static str {
            "counter"
        }

        fn on_event(&mut self, _event: &Event) {
            self.events += 1;
        }

        fn on_poll(&mut self, time_s: f64) {
            self.polls.push(time_s);
        }

        fn on_finish(&mut self) {
            self.finished = true;
        }
    }

    /// One block of `rows` observations at t = 0.5, 1.0, …: a window, one
    /// sample and one sched event each.
    fn block(rows: u64) -> EventBlock {
        let mut block = EventBlock::new();
        block.reset(&[ChannelId::Pcpu]);
        for i in 1..=rows {
            let t = i as f64 * 0.5;
            block.begin(WindowEvent {
                seq: i,
                time_s: t,
                pass: 0,
                class: None,
                plaintext: [0; 16],
                ciphertext: [0; 16],
            });
            block.sample(0, 1.0);
            block.commit(SchedEvent {
                time_s: t,
                windows_consumed: 1,
                window_s: 0.5,
                denied_reads: 0,
            });
        }
        block
    }

    #[test]
    fn event_driven_gets_every_event() {
        let mut p = Counter::default();
        p.on_block(&block(5));
        p.on_finish();
        assert_eq!(p.events, 15, "window + sample + sched per row");
        assert!(p.polls.is_empty());
        assert!(p.finished);
    }

    #[test]
    fn polling_fires_on_simulated_grid() {
        let mut p = Counter::default();
        let mut next_poll_s = None;
        // Rows at t = 0.5, 1.0, ..., 4.0.
        dispatch_with_poll(&mut p, &mut next_poll_s, 1.0, &block(8));
        assert_eq!(p.events, 24);
        // The first event at 0.5 arms the clock at 1.5; ticks then fire at
        // 1.5, 2.5, 3.5 as later events pass those times.
        assert_eq!(p.polls, vec![1.5, 2.5, 3.5]);
        assert_eq!(next_poll_s, Some(4.5));
    }

    #[test]
    fn block_dispatch_fires_polls_like_event_dispatch() {
        // The same stream cut into one block or into single-row blocks
        // must fire the same ticks: the grid never depends on chunking.
        let whole = block(8);
        let mut one = Counter::default();
        let mut one_clock = None;
        dispatch_with_poll(&mut one, &mut one_clock, 1.0, &whole);

        let mut rows = Counter::default();
        let mut rows_clock = None;
        let mut single = EventBlock::new();
        single.reset(&[ChannelId::Pcpu]);
        for (w, s) in whole.windows().iter().zip(whole.scheds()) {
            single.clear();
            single.begin(*w);
            single.sample(0, 1.0);
            single.commit(*s);
            dispatch_with_poll(&mut rows, &mut rows_clock, 1.0, &single);
        }
        assert_eq!(one.events, rows.events);
        assert_eq!(one.polls, rows.polls, "poll grid must not shift with block size");
        assert_eq!(one_clock, rows_clock);
    }

    #[test]
    fn run_drains_channel_to_completion() {
        let (tx, rx) = channel(4, OverflowPolicy::Block);
        let producer = std::thread::spawn(move || {
            for _ in 0..100 {
                tx.send(block(1)).expect("receiver alive");
            }
        });
        let mut p = Counter::default();
        let mut next_poll_s = None;
        while let Some(b) = rx.recv() {
            dispatch_with_poll(&mut p, &mut next_poll_s, 1.0, &b);
        }
        p.on_finish();
        producer.join().expect("producer ok");
        assert_eq!(p.events, 300);
        assert!(p.finished);
    }
}
