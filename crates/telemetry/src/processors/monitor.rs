//! Fixed-interval throttling/cadence monitor.

use crate::event::Event;
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

/// Polling-mode processor that watches collection cadence: how many SoC
/// windows each observation really costs (mitigation stretch), and how
/// many SMC reads were denied. Keeps only a bounded window of
/// checkpoints — it is a monitor, not a log.
#[derive(Debug, Clone)]
pub struct ThrottleMonitor {
    interval_s: f64,
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
    /// [`dispatch_with_poll`](crate::processor::dispatch_with_poll) fires
    /// this monitor's ticks on).
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

    /// Serialize the accumulated cadence state (retained checkpoints,
    /// totals, and the in-progress tick) into a campaign checkpoint
    /// payload. Configuration (interval, retention) is not serialized —
    /// the resuming campaign rebuilds it from its own spec.
    pub fn encode_state(&self, w: &mut PayloadWriter) {
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

    fn on_event(&mut self, event: &Event) {
        if let Event::Sched(s) = event {
            self.observations += 1;
            self.windows += u64::from(s.windows_consumed);
            self.denied_reads += u64::from(s.denied_reads);
            self.tick_observations += 1;
            self.tick_windows += u64::from(s.windows_consumed);
            self.last_time_s = s.time_s;
        }
    }

    fn on_poll(&mut self, time_s: f64) {
        self.push_checkpoint(time_s);
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
    use crate::block::EventBlock;
    use crate::event::{SchedEvent, WindowEvent};
    use crate::processor::dispatch_with_poll;

    /// Observations at `f(i)` seconds for `i in 0..n`, each consuming
    /// `windows` SoC windows, fed through the runner's poll dispatcher.
    fn feed(m: &mut ThrottleMonitor, n: u32, f: impl Fn(u32) -> f64, windows: u32) {
        let mut block = EventBlock::new();
        block.reset(&[]);
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
            block.commit(SchedEvent {
                time_s,
                windows_consumed: windows,
                window_s: 1.0,
                denied_reads: 0,
            });
        }
        let mut next_poll_s = None;
        let interval_s = m.interval_s();
        dispatch_with_poll(m, &mut next_poll_s, interval_s, &block);
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
        assert!((checkpoints[0].time_s - 12.0).abs() < 1e-12, "stamped at the last event");
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
        let a: Vec<_> = m.checkpoints().copied().collect();
        let b: Vec<_> = restored.checkpoints().copied().collect();
        assert_eq!(a, b);
        // The pending tick continues identically on both.
        Processor::on_finish(&mut restored);
        Processor::on_finish(&mut m);
        let a: Vec<_> = m.checkpoints().copied().collect();
        let b: Vec<_> = restored.checkpoints().copied().collect();
        assert_eq!(a, b, "partial tick flushed identically after restore");
    }

    #[test]
    fn checkpoint_window_is_bounded() {
        let mut m = ThrottleMonitor::new(1.0, 4);
        feed(&mut m, 100, f64::from, 1);
        m.on_finish();
        assert_eq!(m.checkpoints().count(), 4, "bounded retention");
    }
}
