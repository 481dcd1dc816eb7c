//! The processor abstraction: every consumer on the bus takes whole
//! [`EventBlock`]s.
//!
//! A processor that needs a clock (the cadence monitor's poll grid) keeps
//! it itself and advances it from the rows' simulated timestamps, never
//! from the wall clock, so pipelines stay deterministic and replayable
//! and the grid is the same however the stream is cut into blocks.

use crate::block::EventBlock;

/// A streaming consumer of telemetry blocks.
pub trait Processor {
    /// Short identifier for reports.
    fn name(&self) -> &'static str;

    /// Handle one columnar [`EventBlock`]: its rows, in order, continue
    /// the stream the previous blocks carried.
    fn on_block(&mut self, block: &EventBlock);

    /// Stream end: flush buffered state (e.g. partial recorder shards).
    fn on_finish(&mut self) {}
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{ChannelId, SchedEvent, WindowEvent};
    use crate::ring::{channel, OverflowPolicy};

    #[derive(Default)]
    struct Counter {
        rows: usize,
        finished: bool,
    }

    impl Processor for Counter {
        fn name(&self) -> &'static str {
            "counter"
        }

        fn on_block(&mut self, block: &EventBlock) {
            self.rows += block.len();
        }

        fn on_finish(&mut self) {
            self.finished = true;
        }
    }

    /// One block holding a single observation row.
    fn block() -> EventBlock {
        let mut block = EventBlock::new();
        block.reset(&[ChannelId::Pcpu]);
        block.begin(WindowEvent {
            seq: 0,
            time_s: 0.5,
            pass: 0,
            class: None,
            plaintext: [0; 16],
            ciphertext: [0; 16],
        });
        block.sample(0, 1.0);
        block.commit(SchedEvent {
            time_s: 0.5,
            windows_consumed: 1,
            window_s: 0.5,
            denied_reads: 0,
        });
        block
    }

    #[test]
    fn run_drains_channel_to_completion() {
        let (tx, rx) = channel(4, OverflowPolicy::Block);
        let producer = std::thread::spawn(move || {
            for _ in 0..100 {
                tx.send(block()).expect("receiver alive");
            }
        });
        let mut p = Counter::default();
        while let Some(b) = rx.recv() {
            p.on_block(&b);
        }
        p.on_finish();
        producer.join().expect("producer ok");
        assert_eq!(p.rows, 100);
        assert!(p.finished);
    }
}
