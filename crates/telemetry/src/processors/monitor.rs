//! Fixed-interval throttling/cadence monitor.

use crate::block::EventBlock;
use crate::processor::Processor;
use psc_sca::checkpoint::{CheckpointError, PayloadReader, PayloadWriter};
use std::collections::VecDeque;

/// One cadence snapshot taken at a poll tick.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CadenceCheckpoint {
    /// Simulated poll time, seconds.
    pub time_s: f64,
    /// Observations completed since the previous tick.
    pub observations: u64,
    /// SoC windows consumed since the previous tick.
    pub windows: u64,
    /// Windows per observation over the tick: 1.0 is the full publish
    /// rate; larger values mean the interval-stretching mitigation is
    /// starving the attacker's sampling loop.
    pub stretch: f64,
}

/// Polling processor that watches collection cadence: how many SoC
/// windows each observation really costs (mitigation stretch), and how
/// many SMC reads were denied. Keeps only a bounded window of
/// checkpoints — it is a monitor, not a log.
///
/// The monitor owns its poll clock. It arms one interval after the first
/// row's window time, then walks every row: ticks due at or before the
/// row's window time fire, then those due at or before its cadence
/// record's time, then the record is counted. The clock is part of the
/// checkpointed state, so the grid depends neither on how the stream is
/// cut into blocks nor on where a campaign was interrupted.
#[derive(Debug, Clone)]
pub struct ThrottleMonitor {
    interval_s: f64,
    /// Simulated time of the next poll tick; `None` until the first row.
    next_poll_s: Option<f64>,
    max_checkpoints: usize,
    checkpoints: VecDeque<CadenceCheckpoint>,
    observations: u64,
    windows: u64,
    denied_reads: u64,
    tick_observations: u64,
    tick_windows: u64,
    last_time_s: f64,
}

impl ThrottleMonitor {
    /// Monitor polling every `interval_s` simulated seconds, retaining at
    /// most `max_checkpoints` snapshots (oldest evicted first).
    ///
    /// # Panics
    ///
    /// Panics if `interval_s <= 0` or `max_checkpoints == 0`.
    #[must_use]
    pub fn new(interval_s: f64, max_checkpoints: usize) -> Self {
        assert!(interval_s > 0.0, "poll interval must be positive");
        assert!(max_checkpoints > 0, "need at least one checkpoint slot");
        Self {
            interval_s,
            next_poll_s: None,
            max_checkpoints,
            checkpoints: VecDeque::with_capacity(max_checkpoints),
            observations: 0,
            windows: 0,
            denied_reads: 0,
            tick_observations: 0,
            tick_windows: 0,
            last_time_s: 0.0,
        }
    }

    /// The poll interval, simulated seconds (the grid
    /// [`Processor::on_block`] fires this monitor's ticks on).
    #[must_use]
    pub fn interval_s(&self) -> f64 {
        self.interval_s
    }

    /// Retained checkpoints, oldest first.
    pub fn checkpoints(&self) -> impl Iterator<Item = &CadenceCheckpoint> {
        self.checkpoints.iter()
    }

    /// Total observations seen.
    #[must_use]
    pub fn observations(&self) -> u64 {
        self.observations
    }

    /// Total denied SMC reads seen.
    #[must_use]
    pub fn denied_reads(&self) -> u64 {
        self.denied_reads
    }

    /// Overall windows-per-observation ratio (1.0 = no stretching).
    #[must_use]
    pub fn overall_stretch(&self) -> f64 {
        if self.observations == 0 {
            1.0
        } else {
            self.windows as f64 / self.observations as f64
        }
    }

    /// Merge a shard's totals (checkpoints stay per-shard; only counters
    /// combine meaningfully across independent timelines).
    #[must_use]
    pub fn merged_totals(mut self, other: &Self) -> Self {
        self.observations += other.observations;
        self.windows += other.windows;
        self.denied_reads += other.denied_reads;
        self
    }

    /// Serialize the accumulated cadence state (poll clock, retained
    /// checkpoints, totals, and the in-progress tick) into a campaign
    /// checkpoint payload. Configuration (interval, retention) is not
    /// serialized — the resuming campaign rebuilds it from its own spec.
    pub fn encode_state(&self, w: &mut PayloadWriter) {
        match self.next_poll_s {
            Some(t) => {
                w.put_u8(1);
                w.put_f64(t);
            }
            None => w.put_u8(0),
        }
        w.put_u32(self.checkpoints.len() as u32);
        for c in &self.checkpoints {
            w.put_f64(c.time_s);
            w.put_u64(c.observations);
            w.put_u64(c.windows);
            w.put_f64(c.stretch);
        }
        w.put_u64(self.observations);
        w.put_u64(self.windows);
        w.put_u64(self.denied_reads);
        w.put_u64(self.tick_observations);
        w.put_u64(self.tick_windows);
        w.put_f64(self.last_time_s);
    }

    /// Restore state written by [`Self::encode_state`] into a freshly
    /// configured monitor, replacing its counters bit-identically.
    ///
    /// # Errors
    ///
    /// Truncated payloads and snapshots holding more checkpoints than
    /// this monitor retains come back as [`CheckpointError`].
    pub fn restore_state(&mut self, r: &mut PayloadReader<'_>) -> Result<(), CheckpointError> {
        self.next_poll_s = match r.get_u8()? {
            0 => None,
            _ => Some(r.get_f64()?),
        };
        let n = r.get_u32()? as usize;
        if n > self.max_checkpoints {
            return Err(CheckpointError::Corrupt("snapshot exceeds checkpoint retention"));
        }
        self.checkpoints.clear();
        for _ in 0..n {
            let time_s = r.get_f64()?;
            let observations = r.get_u64()?;
            let windows = r.get_u64()?;
            let stretch = r.get_f64()?;
            self.checkpoints.push_back(CadenceCheckpoint {
                time_s,
                observations,
                windows,
                stretch,
            });
        }
        self.observations = r.get_u64()?;
        self.windows = r.get_u64()?;
        self.denied_reads = r.get_u64()?;
        self.tick_observations = r.get_u64()?;
        self.tick_windows = r.get_u64()?;
        self.last_time_s = r.get_f64()?;
        Ok(())
    }

    /// Fire every tick due at or before `now_s`, arming the clock one
    /// interval after `now_s` if no row has been seen yet.
    fn poll_until(&mut self, now_s: f64) {
        let mut next = *self.next_poll_s.get_or_insert(now_s + self.interval_s);
        while next <= now_s {
            self.push_checkpoint(next);
            next += self.interval_s;
        }
        self.next_poll_s = Some(next);
    }

    fn push_checkpoint(&mut self, time_s: f64) {
        let stretch = if self.tick_observations == 0 {
            1.0
        } else {
            self.tick_windows as f64 / self.tick_observations as f64
        };
        if self.checkpoints.len() == self.max_checkpoints {
            self.checkpoints.pop_front();
        }
        self.checkpoints.push_back(CadenceCheckpoint {
            time_s,
            observations: self.tick_observations,
            windows: self.tick_windows,
            stretch,
        });
        self.tick_observations = 0;
        self.tick_windows = 0;
    }
}

impl Processor for ThrottleMonitor {
    fn name(&self) -> &'static str {
        "throttle-monitor"
    }

    fn on_block(&mut self, block: &EventBlock) {
        for (window, s) in block.windows().iter().zip(block.scheds()) {
            self.poll_until(window.time_s);
            self.poll_until(s.time_s);
            self.observations += 1;
            self.windows += u64::from(s.windows_consumed);
            self.denied_reads += u64::from(s.denied_reads);
            self.tick_observations += 1;
            self.tick_windows += u64::from(s.windows_consumed);
            self.last_time_s = s.time_s;
        }
    }

    fn on_finish(&mut self) {
        // Flush the trailing partial tick so short campaigns (shorter
        // than one poll interval) still report their cadence.
        if self.tick_observations > 0 || self.tick_windows > 0 {
            let time_s = self.last_time_s;
            self.push_checkpoint(time_s);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{ChannelId, SchedEvent, WindowEvent};

    /// One block of observations at `f(i)` seconds for `i in 0..n`, each
    /// consuming `windows` SoC windows.
    fn rows(n: u32, f: impl Fn(u32) -> f64, windows: u32) -> EventBlock {
        let mut block = EventBlock::new();
        block.reset(&[ChannelId::Pcpu]);
        for i in 0..n {
            let time_s = f(i);
            block.begin(WindowEvent {
                seq: u64::from(i),
                time_s,
                pass: 0,
                class: None,
                plaintext: [0; 16],
                ciphertext: [0; 16],
            });
            block.sample(0, 1.0);
            block.commit(SchedEvent {
                time_s,
                windows_consumed: windows,
                window_s: 1.0,
                denied_reads: 0,
            });
        }
        block
    }

    fn feed(m: &mut ThrottleMonitor, n: u32, f: impl Fn(u32) -> f64, windows: u32) {
        m.on_block(&rows(n, f, windows));
    }

    fn tick_times(m: &ThrottleMonitor) -> Vec<f64> {
        m.checkpoints().map(|c| c.time_s).collect()
    }

    #[test]
    fn polling_fires_on_simulated_grid() {
        let mut m = ThrottleMonitor::new(1.0, 64);
        // Rows at t = 0.5, 1.0, ..., 4.0. The first row arms the clock at
        // 1.5; ticks then fire at 1.5, 2.5, 3.5 as later rows pass them.
        feed(&mut m, 8, |i| f64::from(i + 1) * 0.5, 1);
        assert_eq!(tick_times(&m), [1.5, 2.5, 3.5]);
        assert_eq!(m.next_poll_s, Some(4.5));
        let per_tick: Vec<u64> = m.checkpoints().map(|c| c.observations).collect();
        assert_eq!(per_tick, [2, 2, 2], "a row on a tick counts after the tick");
    }

    #[test]
    fn block_cuts_do_not_shift_the_poll_grid() {
        // The same stream in one block or in single-row blocks fires the
        // same ticks: the grid never depends on chunking.
        let whole = rows(8, |i| f64::from(i + 1) * 0.5, 1);
        let mut one = ThrottleMonitor::new(1.0, 64);
        one.on_block(&whole);
        let mut single = ThrottleMonitor::new(1.0, 64);
        let mut row = EventBlock::new();
        row.reset(whole.channels());
        for (w, s) in whole.windows().iter().zip(whole.scheds()) {
            row.clear();
            row.begin(*w);
            row.sample(0, 1.0);
            row.commit(*s);
            single.on_block(&row);
        }
        assert_eq!(one.observations(), single.observations());
        assert_eq!(tick_times(&one), tick_times(&single));
        assert_eq!(one.next_poll_s, single.next_poll_s);
    }

    #[test]
    fn late_cadence_record_fires_ticks_before_it_counts() {
        let on_time = rows(2, |i| f64::from(i) * 0.25, 1);
        // Row 1's window closes at 0.25 but its cadence record lands at
        // 2.75: the ticks at 1.0 and 2.0 fire first, then it counts.
        let mut late = EventBlock::new();
        late.reset(on_time.channels());
        late.begin(on_time.windows()[0]);
        late.commit(on_time.scheds()[0]);
        late.begin(on_time.windows()[1]);
        late.commit(SchedEvent { time_s: 2.75, ..on_time.scheds()[1] });
        let mut m = ThrottleMonitor::new(1.0, 8);
        m.on_block(&late);
        let ticks: Vec<(f64, u64)> = m.checkpoints().map(|c| (c.time_s, c.observations)).collect();
        assert_eq!(ticks, [(1.0, 1), (2.0, 0)]);
        assert_eq!(m.observations(), 2);
    }

    #[test]
    fn stretch_reflects_mitigation() {
        let mut m = ThrottleMonitor::new(10.0, 8);
        // Three windows consumed per observation: slow_updates(3.0).
        feed(&mut m, 30, |i| f64::from(i) * 3.0, 3);
        m.on_finish();
        assert_eq!(m.observations(), 30);
        assert!((m.overall_stretch() - 3.0).abs() < 1e-12);
        assert!(m.checkpoints().count() >= 2);
        for c in m.checkpoints() {
            assert!((c.stretch - 3.0).abs() < 1e-12);
        }
    }

    #[test]
    fn short_campaign_flushes_partial_tick_on_finish() {
        // Campaign much shorter than one poll interval: without the
        // finish flush there would be zero checkpoints.
        let mut m = ThrottleMonitor::new(1000.0, 8);
        feed(&mut m, 5, |i| f64::from(i) * 3.0, 3);
        m.on_finish();
        let checkpoints: Vec<_> = m.checkpoints().copied().collect();
        assert_eq!(checkpoints.len(), 1);
        assert_eq!(checkpoints[0].observations, 5);
        assert!((checkpoints[0].stretch - 3.0).abs() < 1e-12);
        assert!((checkpoints[0].time_s - 12.0).abs() < 1e-12, "stamped at the last row");
    }

    #[test]
    fn state_round_trips_through_checkpoint_payload() {
        let mut m = ThrottleMonitor::new(10.0, 4);
        feed(&mut m, 37, |i| f64::from(i) * 3.0, 2);
        // No finish: snapshot mid-campaign with a partial tick pending.
        let mut w = PayloadWriter::new();
        m.encode_state(&mut w);
        let section = w.into_section(5);
        let mut restored = ThrottleMonitor::new(10.0, 4);
        let mut r = PayloadReader::new(&section.payload);
        restored.restore_state(&mut r).unwrap();
        r.finish().unwrap();
        assert_eq!(restored.observations(), m.observations());
        assert_eq!(restored.denied_reads(), m.denied_reads());
        assert_eq!(restored.overall_stretch().to_bits(), m.overall_stretch().to_bits());
        assert_eq!(restored.next_poll_s, m.next_poll_s, "the poll clock is checkpointed");
        let a: Vec<_> = m.checkpoints().copied().collect();
        let b: Vec<_> = restored.checkpoints().copied().collect();
        assert_eq!(a, b);
        // Both continue on the same grid, and the pending tick flushes
        // identically.
        feed(&mut restored, 9, |i| 111.0 + f64::from(i) * 3.0, 2);
        feed(&mut m, 9, |i| 111.0 + f64::from(i) * 3.0, 2);
        Processor::on_finish(&mut restored);
        Processor::on_finish(&mut m);
        let a: Vec<_> = m.checkpoints().copied().collect();
        let b: Vec<_> = restored.checkpoints().copied().collect();
        assert_eq!(a, b, "grid and partial tick continue identically after restore");
    }

    #[test]
    fn checkpoint_window_is_bounded() {
        let mut m = ThrottleMonitor::new(1.0, 4);
        feed(&mut m, 100, f64::from, 1);
        m.on_finish();
        assert_eq!(m.checkpoints().count(), 4, "bounded retention");
    }
}
