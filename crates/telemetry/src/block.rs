//! Columnar event blocks: the bus's one unit of traffic.
//!
//! An [`EventBlock`] carries N whole observations as a struct-of-arrays:
//! one window-record column, one sample column **per channel**
//! (`Option<f64>` — `None` is a denied read), and one sched column. One
//! block is one channel synchronization and one
//! [`Processor::on_block`](crate::processor::Processor::on_block)
//! dispatch, and processors update their accumulators with per-column
//! tight loops. Rows are whole observations in producer order, so a
//! processor sees each channel's samples in the order they were read,
//! however the stream is cut into blocks. Buffers are reused across
//! [`EventBlock::clear`]/[`EventBlock::reset`] calls, so the steady state
//! of a producer loop is allocation-free.

use crate::event::{ChannelId, SchedEvent, WindowEvent};

/// A columnar batch of whole observations (see the module docs).
#[derive(Debug, Clone, Default)]
pub struct EventBlock {
    channels: Vec<ChannelId>,
    windows: Vec<WindowEvent>,
    scheds: Vec<SchedEvent>,
    /// `columns[c][row]` — the sample of `channels[c]` in observation
    /// `row`, `None` when the read was denied.
    columns: Vec<Vec<Option<f64>>>,
}

impl EventBlock {
    /// Empty block with no channels.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Set the channel layout and clear all rows, reusing every buffer.
    /// Call once per campaign (or whenever the channel set changes);
    /// [`Self::clear`] is enough between blocks of the same layout.
    pub fn reset(&mut self, channels: &[ChannelId]) {
        if self.channels != channels {
            self.channels.clear();
            self.channels.extend_from_slice(channels);
            self.columns.resize_with(channels.len(), Vec::new);
        }
        self.clear();
    }

    /// Drop all rows, keeping the channel layout and the allocations.
    pub fn clear(&mut self) {
        self.windows.clear();
        self.scheds.clear();
        for col in &mut self.columns {
            col.clear();
        }
    }

    /// The channel layout, in column order.
    #[must_use]
    pub fn channels(&self) -> &[ChannelId] {
        &self.channels
    }

    /// Committed observations in the block.
    #[must_use]
    pub fn len(&self) -> usize {
        self.scheds.len()
    }

    /// Whether the block holds no committed observations.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.scheds.is_empty()
    }

    /// Start a new observation row. Every sample column gets a `None`
    /// slot; fill readable channels with [`Self::sample`], then seal the
    /// row with [`Self::commit`].
    ///
    /// # Panics
    ///
    /// Panics if the previous row was not committed.
    pub fn begin(&mut self, window: WindowEvent) {
        assert_eq!(self.windows.len(), self.scheds.len(), "previous row not committed");
        self.windows.push(window);
        for col in &mut self.columns {
            col.push(None);
        }
    }

    /// Record the current row's sample for column `col`.
    ///
    /// # Panics
    ///
    /// Panics if no row is open or `col` is out of range.
    pub fn sample(&mut self, col: usize, value: f64) {
        assert_eq!(self.windows.len(), self.scheds.len() + 1, "no open row");
        *self.columns[col].last_mut().expect("open row has a slot per column") = Some(value);
    }

    /// Seal the current observation row with its scheduler record.
    ///
    /// # Panics
    ///
    /// Panics if no row is open.
    pub fn commit(&mut self, sched: SchedEvent) {
        assert_eq!(self.windows.len(), self.scheds.len() + 1, "no open row");
        self.scheds.push(sched);
    }

    /// The window records, one per observation row.
    #[must_use]
    pub fn windows(&self) -> &[WindowEvent] {
        &self.windows
    }

    /// The scheduler records, one per observation row.
    #[must_use]
    pub fn scheds(&self) -> &[SchedEvent] {
        &self.scheds
    }

    /// The sample column of `channels()[col]`.
    ///
    /// # Panics
    ///
    /// Panics if `col` is out of range.
    #[must_use]
    pub fn column(&self, col: usize) -> &[Option<f64>] {
        &self.columns[col]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use psc_smc::key::key;

    fn window(seq: u64) -> WindowEvent {
        WindowEvent {
            seq,
            time_s: seq as f64,
            pass: 0,
            class: None,
            plaintext: [seq as u8; 16],
            ciphertext: [0; 16],
        }
    }

    fn sched(seq: u64) -> SchedEvent {
        SchedEvent { time_s: seq as f64, windows_consumed: 1, window_s: 1.0, denied_reads: 0 }
    }

    #[test]
    fn rows_keep_denied_reads_as_empty_column_slots() {
        let channels = [ChannelId::Smc(key("PHPC")), ChannelId::Pcpu];
        let mut block = EventBlock::new();
        block.reset(&channels);
        for row in 0..3u64 {
            block.begin(window(row));
            if row != 1 {
                block.sample(0, row as f64 + 0.5); // row 1: denied SMC read
            }
            block.sample(1, row as f64 * 10.0);
            block.commit(sched(row));
        }
        assert_eq!(block.len(), 3);
        assert_eq!(block.channels(), &channels);
        let seqs: Vec<u64> = block.windows().iter().map(|w| w.seq).collect();
        assert_eq!(seqs, [0, 1, 2]);
        assert_eq!(block.scheds().len(), 3);
        assert_eq!(block.column(0), &[Some(0.5), None, Some(2.5)]);
        assert_eq!(block.column(1), &[Some(0.0), Some(10.0), Some(20.0)]);
    }

    #[test]
    fn clear_keeps_layout_and_reset_rebuilds_it() {
        let mut block = EventBlock::new();
        block.reset(&[ChannelId::Pcpu]);
        block.begin(window(0));
        block.sample(0, 1.0);
        block.commit(sched(0));
        block.clear();
        assert!(block.is_empty());
        assert_eq!(block.channels(), &[ChannelId::Pcpu]);
        block.reset(&[ChannelId::Pcpu, ChannelId::Timing]);
        assert_eq!(block.channels().len(), 2);
        block.begin(window(0));
        block.commit(sched(0));
        assert_eq!(block.column(1), &[None]);
    }

    #[test]
    #[should_panic(expected = "previous row not committed")]
    fn begin_requires_committed_row() {
        let mut block = EventBlock::new();
        block.reset(&[ChannelId::Pcpu]);
        block.begin(window(0));
        block.begin(window(1));
    }

    #[test]
    #[should_panic(expected = "no open row")]
    fn sample_requires_open_row() {
        let mut block = EventBlock::new();
        block.reset(&[ChannelId::Pcpu]);
        block.sample(0, 1.0);
    }
}
