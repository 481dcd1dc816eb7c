//! Online TVLA processor: O(1) memory per channel.

use crate::block::EventBlock;
use crate::event::ChannelId;
use crate::processor::Processor;
use crate::replay::channel_for_label;
use psc_sca::checkpoint::{self, CheckpointError, PayloadReader, PayloadWriter};
use psc_sca::stats::{CentralMoments, MomentsQuad};
use psc_sca::tvla::{
    PlaintextClass, SecondOrderAccumulator, TvlaAccumulator, TvlaMatrix, TvlaTracker,
};
use std::collections::BTreeMap;

/// Early-stop watch on one channel: a two-dataset [`TvlaTracker`] over the
/// fixed plaintext classes (All-0s vs All-1s — the pair whose separation
/// is the leakage signal), armed once both sides hold enough samples.
#[derive(Debug, Clone)]
struct WatchState {
    min_per_side: u64,
    tracker: TvlaTracker,
}

/// Streaming TVLA over every channel it sees: six Welford accumulators
/// per channel instead of six growing `Vec`s. Shards run independent
/// instances; [`StreamingTvla::merged`] combines them exactly.
///
/// Channels registered through [`StreamingTvla::watch`] additionally feed
/// an online [`TvlaTracker`], giving adaptive campaigns a cheap
/// [`StreamingTvla::leakage_detected`] signal to stop collection at the
/// threshold crossing.
#[derive(Debug, Clone, Default)]
pub struct StreamingTvla {
    accs: BTreeMap<ChannelId, TvlaAccumulator>,
    /// The last row's `(pass, class)` labels (a checkpoint slot).
    current: Option<(u8, Option<PlaintextClass>)>,
    orphan_samples: u64,
    watched: BTreeMap<ChannelId, WatchState>,
}

impl StreamingTvla {
    /// Empty processor.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Per-channel accumulators.
    #[must_use]
    pub fn accumulators(&self) -> &BTreeMap<ChannelId, TvlaAccumulator> {
        &self.accs
    }

    /// The accumulator for `channel`, if any samples arrived on it.
    #[must_use]
    pub fn accumulator(&self, channel: ChannelId) -> Option<&TvlaAccumulator> {
        self.accs.get(&channel)
    }

    /// The 3×3 matrix for `channel` (None if the channel was never seen).
    #[must_use]
    pub fn matrix(&self, channel: ChannelId, label: impl Into<String>) -> Option<TvlaMatrix> {
        self.accs.get(&channel).map(|a| a.matrix(label))
    }

    /// Samples in rows without a TVLA class (e.g. known-plaintext CPA
    /// windows).
    #[must_use]
    pub fn orphan_samples(&self) -> u64 {
        self.orphan_samples
    }

    /// Watch `channel` for adaptive early stopping: every All-0s sample
    /// feeds side A of an online [`TvlaTracker`], every All-1s sample side
    /// B, and [`StreamingTvla::leakage_detected`] fires once both sides
    /// hold at least `min_per_side` samples and |t| crosses the TVLA
    /// threshold.
    pub fn watch(&mut self, channel: ChannelId, min_per_side: u64) {
        self.watched.insert(channel, WatchState { min_per_side, tracker: TvlaTracker::new() });
    }

    /// The early-stop tracker of a watched channel.
    #[must_use]
    pub fn tracker(&self, channel: ChannelId) -> Option<&TvlaTracker> {
        self.watched.get(&channel).map(|w| &w.tracker)
    }

    /// Whether any watched channel has armed (reached its minimum sample
    /// count on both fixed classes) and crossed the TVLA threshold.
    #[must_use]
    pub fn leakage_detected(&self) -> bool {
        self.watched.values().any(|w| {
            let (a, b) = w.tracker.counts();
            a >= w.min_per_side && b >= w.min_per_side && w.tracker.leakage_detected()
        })
    }

    /// Serialize the full processor state — per-channel accumulators,
    /// early-stop trackers, orphan count and the in-flight window labels
    /// — into a campaign checkpoint payload.
    pub fn encode_state(&self, w: &mut PayloadWriter) {
        w.put_u32(self.accs.len() as u32);
        for (channel, acc) in &self.accs {
            w.put_str(&channel.to_string());
            checkpoint::put_tvla_accumulator(w, acc);
        }
        match self.current {
            None => w.put_u8(0),
            Some((pass, class)) => {
                w.put_u8(1);
                w.put_u8(pass);
                w.put_u8(class.map_or(3, |c| c.index() as u8));
            }
        }
        w.put_u64(self.orphan_samples);
        w.put_u32(self.watched.len() as u32);
        for (channel, watch) in &self.watched {
            w.put_str(&channel.to_string());
            w.put_u64(watch.min_per_side);
            checkpoint::put_tracker(w, &watch.tracker);
        }
    }

    /// Restore state written by [`Self::encode_state`], replacing this
    /// processor's accumulators bit-identically (any watches registered
    /// before the restore are replaced by the snapshot's).
    ///
    /// # Errors
    ///
    /// Truncated payloads and unknown channel labels come back as
    /// [`CheckpointError`].
    pub fn restore_state(&mut self, r: &mut PayloadReader<'_>) -> Result<(), CheckpointError> {
        let parse = |label: String| {
            channel_for_label(&label).ok_or(CheckpointError::Corrupt("unknown channel label"))
        };
        let accs = r.get_u32()?;
        self.accs.clear();
        for _ in 0..accs {
            let channel = parse(r.get_str()?)?;
            self.accs.insert(channel, checkpoint::get_tvla_accumulator(r)?);
        }
        self.current = match r.get_u8()? {
            0 => None,
            1 => {
                let pass = r.get_u8()?;
                let class = match r.get_u8()? {
                    i @ 0..=2 => Some(PlaintextClass::ALL[usize::from(i)]),
                    3 => None,
                    _ => return Err(CheckpointError::Corrupt("bad plaintext class index")),
                };
                Some((pass, class))
            }
            _ => return Err(CheckpointError::Corrupt("bad window-label flag")),
        };
        self.orphan_samples = r.get_u64()?;
        let watched = r.get_u32()?;
        self.watched.clear();
        for _ in 0..watched {
            let channel = parse(r.get_str()?)?;
            let min_per_side = r.get_u64()?;
            let tracker = checkpoint::get_tracker(r)?;
            self.watched.insert(channel, WatchState { min_per_side, tracker });
        }
        Ok(())
    }

    /// The label-uniform columnar fast path: every window of the block
    /// carries the same `(pass, class)`, so each channel's whole column
    /// lands in one TVLA cell. Channels are ingested four at a time
    /// through [`MomentsQuad`] — four independent Welford chains in SIMD
    /// lockstep, denied reads masked per lane — with the 1–3 channel
    /// remainder taking the scalar slice path. Bit-identical to pushing
    /// each present sample in row order, and all-`None` columns create no
    /// accumulator entry.
    fn ingest_uniform_block(&mut self, block: &EventBlock, pass: usize, class: PlaintextClass) {
        let active: Vec<(usize, ChannelId)> = block
            .channels()
            .iter()
            .copied()
            .enumerate()
            .filter(|&(col, _)| block.column(col).iter().any(Option::is_some))
            .collect();
        let ci = class.index();
        let mut groups = active.chunks_exact(4);
        for group in &mut groups {
            let cols: [&[Option<f64>]; 4] = core::array::from_fn(|k| block.column(group[k].0));
            let lanes: [_; 4] =
                core::array::from_fn(|k| self.accs.entry(group[k].1).or_default().raw()[pass][ci]);
            let mut quad = MomentsQuad::load(lanes);
            quad.extend_columns(cols);
            for (lane, &(_, channel)) in quad.store().into_iter().zip(group) {
                let acc = self.accs.get_mut(&channel).expect("entry created above");
                let mut raw = acc.raw();
                raw[pass][ci] = lane;
                *acc = TvlaAccumulator::from_raw(raw);
            }
        }
        for &(col, channel) in groups.remainder() {
            self.accs.entry(channel).or_default().extend(
                pass,
                class,
                block.column(col).iter().copied().flatten(),
            );
        }
    }

    /// Merge a shard's accumulators into this one.
    #[must_use]
    pub fn merged(mut self, other: Self) -> Self {
        for (channel, acc) in other.accs {
            let entry = self.accs.entry(channel).or_default();
            *entry = entry.merged(acc);
        }
        for (channel, w) in other.watched {
            match self.watched.get_mut(&channel) {
                Some(mine) => mine.tracker = mine.tracker.merged(w.tracker),
                None => {
                    self.watched.insert(channel, w);
                }
            }
        }
        self.orphan_samples += other.orphan_samples;
        self
    }
}

impl Processor for StreamingTvla {
    fn name(&self) -> &'static str {
        "tvla"
    }

    /// One accumulator resolution per channel column instead of one map
    /// lookup per sample. Chunked TVLA schedules ship label-uniform
    /// blocks, which take the SIMD lockstep quad path (see
    /// `StreamingTvla::ingest_uniform_block`); mixed blocks (the adaptive
    /// trace-major rounds) index labels per row. Either way each
    /// accumulator sees its channel's present samples in row order, so
    /// the state does not depend on how the stream is cut into blocks.
    fn on_block(&mut self, block: &EventBlock) {
        let windows = block.windows();
        if windows.is_empty() {
            return;
        }
        let first = (windows[0].pass, windows[0].class);
        let uniform = windows.iter().all(|w| (w.pass, w.class) == first);
        match (uniform, first.1) {
            (true, Some(class)) => self.ingest_uniform_block(block, usize::from(first.0), class),
            (true, None) => {
                for (col, _) in block.channels().iter().enumerate() {
                    self.orphan_samples += block.column(col).iter().flatten().count() as u64;
                }
            }
            (false, _) => {
                for (col, &channel) in block.channels().iter().enumerate() {
                    for (w, v) in windows.iter().zip(block.column(col)) {
                        let Some(value) = *v else { continue };
                        match w.class {
                            Some(class) => self.accs.entry(channel).or_default().push(
                                usize::from(w.pass),
                                class,
                                value,
                            ),
                            None => self.orphan_samples += 1,
                        }
                    }
                }
            }
        }
        for (col, &channel) in block.channels().iter().enumerate() {
            if let Some(watch) = self.watched.get_mut(&channel) {
                for (w, v) in windows.iter().zip(block.column(col)) {
                    if let (Some(class), Some(value)) = (w.class, *v) {
                        match class {
                            PlaintextClass::AllZeros => watch.tracker.push_a(value),
                            PlaintextClass::AllOnes => watch.tracker.push_b(value),
                            PlaintextClass::Random => {}
                        }
                    }
                }
            }
        }
        self.current = windows.last().map(|w| (w.pass, w.class));
    }
}

/// First- and second-order streaming TVLA (the paper's Tables 3/5 plus
/// the variance extension): a [`StreamingTvla`] for the first-order
/// cells and one [`SecondOrderAccumulator`] per channel for the
/// second-order cells. The higher moments live here rather than in
/// [`StreamingTvla`], whose ingest path and checkpoint bytes stay as
/// they are.
#[derive(Debug, Clone, Default)]
pub struct SecondOrderTvla {
    first: StreamingTvla,
    second: BTreeMap<ChannelId, SecondOrderAccumulator>,
    /// The last row's `(pass, class)` labels (a checkpoint slot).
    current: Option<(u8, Option<PlaintextClass>)>,
}

impl SecondOrderTvla {
    /// Empty processor.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// The first-order processor (matrices, counts, orphans).
    #[must_use]
    pub fn first_order(&self) -> &StreamingTvla {
        &self.first
    }

    /// The second-order (variance) matrix for `channel` (None if the
    /// channel was never seen).
    #[must_use]
    pub fn second_order_matrix(
        &self,
        channel: ChannelId,
        label: impl Into<String>,
    ) -> Option<TvlaMatrix> {
        self.second.get(&channel).map(|a| a.matrix(label))
    }

    fn push(&mut self, channel: ChannelId, pass: u8, class: PlaintextClass, value: f64) {
        self.second.entry(channel).or_default().push(usize::from(pass), class, value);
    }

    /// Merge a shard's state into this one.
    #[must_use]
    pub fn merged(mut self, other: Self) -> Self {
        self.first = self.first.merged(other.first);
        for (channel, acc) in other.second {
            let entry = self.second.entry(channel).or_default();
            *entry = entry.merged(acc);
        }
        self
    }

    /// Serialize the full state into a campaign checkpoint payload: the
    /// first-order processor's payload, then every channel's central
    /// moments and the in-flight window labels.
    pub fn encode_state(&self, w: &mut PayloadWriter) {
        self.first.encode_state(w);
        w.put_u32(self.second.len() as u32);
        for (channel, acc) in &self.second {
            w.put_str(&channel.to_string());
            for m in acc.raw().iter().flatten() {
                let (n, words) = m.raw();
                w.put_u64(n);
                words.iter().for_each(|&x| w.put_f64(x));
            }
        }
        match self.current {
            None => w.put_u8(0),
            Some((pass, class)) => {
                w.put_u8(1);
                w.put_u8(pass);
                w.put_u8(class.map_or(3, |c| c.index() as u8));
            }
        }
    }

    /// Restore state written by [`Self::encode_state`].
    ///
    /// # Errors
    ///
    /// Truncated payloads and unknown channel labels.
    pub fn restore_state(&mut self, r: &mut PayloadReader<'_>) -> Result<(), CheckpointError> {
        self.first.restore_state(r)?;
        self.second.clear();
        for _ in 0..r.get_u32()? {
            let label = r.get_str()?;
            let channel = channel_for_label(&label)
                .ok_or(CheckpointError::Corrupt("unknown channel label"))?;
            let mut moments = [[CentralMoments::default(); 3]; 2];
            for m in moments.iter_mut().flatten() {
                let n = r.get_u64()?;
                let mut words = [0.0; 4];
                for x in &mut words {
                    *x = r.get_f64()?;
                }
                *m = CentralMoments::from_raw(n, words);
            }
            self.second.insert(channel, SecondOrderAccumulator::from_raw(moments));
        }
        self.current = match r.get_u8()? {
            0 => None,
            1 => {
                let pass = r.get_u8()?;
                let class = match r.get_u8()? {
                    i @ 0..=2 => Some(PlaintextClass::ALL[usize::from(i)]),
                    3 => None,
                    _ => return Err(CheckpointError::Corrupt("bad plaintext class index")),
                };
                Some((pass, class))
            }
            _ => return Err(CheckpointError::Corrupt("bad window-label flag")),
        };
        Ok(())
    }
}

impl Processor for SecondOrderTvla {
    fn name(&self) -> &'static str {
        "tvla-second-order"
    }

    fn on_block(&mut self, block: &EventBlock) {
        self.first.on_block(block);
        let windows = block.windows();
        for (col, &channel) in block.channels().iter().enumerate() {
            for (w, v) in windows.iter().zip(block.column(col)) {
                if let (Some(class), Some(value)) = (w.class, *v) {
                    self.push(channel, w.pass, class, value);
                }
            }
        }
        if let Some(w) = windows.last() {
            self.current = Some((w.pass, w.class));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{SchedEvent, WindowEvent};

    /// One label-uniform block of PCPU samples, one row per value.
    fn block(pass: u8, class: Option<PlaintextClass>, values: &[f64]) -> EventBlock {
        let mut block = EventBlock::new();
        block.reset(&[ChannelId::Pcpu]);
        for &value in values {
            block.begin(WindowEvent {
                seq: 0,
                time_s: 0.0,
                pass,
                class,
                plaintext: [0; 16],
                ciphertext: [0; 16],
            });
            block.sample(0, value);
            block.commit(SchedEvent {
                time_s: 0.0,
                windows_consumed: 1,
                window_s: 1.0,
                denied_reads: 0,
            });
        }
        block
    }

    fn push(p: &mut StreamingTvla, pass: u8, class: PlaintextClass, values: &[f64]) {
        p.on_block(&block(pass, Some(class), values));
    }

    #[test]
    fn accumulates_per_pass_and_class() {
        let mut p = StreamingTvla::new();
        for pass in 0..2u8 {
            for (ci, class) in PlaintextClass::ALL.iter().enumerate() {
                let values: Vec<f64> =
                    (0..10).map(|i| f64::from(i) + f64::from(ci as u32) * 100.0).collect();
                push(&mut p, pass, *class, &values);
            }
        }
        let acc = p.accumulator(ChannelId::Pcpu).expect("seen");
        for pass in 0..2 {
            for class in PlaintextClass::ALL {
                assert_eq!(acc.count(pass, class), 10);
            }
        }
        assert_eq!(p.orphan_samples(), 0);
    }

    #[test]
    fn classless_windows_count_as_orphans() {
        let mut p = StreamingTvla::new();
        p.on_block(&block(0, None, &[1.0]));
        assert_eq!(p.orphan_samples(), 1);
        assert!(p.accumulator(ChannelId::Pcpu).is_none());
    }

    #[test]
    fn watched_channel_detects_fixed_class_separation() {
        let mut p = StreamingTvla::new();
        p.watch(ChannelId::Pcpu, 20);
        for i in 0..40 {
            let jitter = f64::from(i % 5) * 0.01;
            push(&mut p, 0, PlaintextClass::AllZeros, &[1.0 + jitter]);
            push(&mut p, 0, PlaintextClass::AllOnes, &[1.5 + jitter]);
            // Random-class samples must not feed the tracker.
            push(&mut p, 0, PlaintextClass::Random, &[100.0]);
        }
        assert!(p.leakage_detected());
        assert_eq!(p.tracker(ChannelId::Pcpu).unwrap().counts(), (40, 40));
    }

    #[test]
    fn watch_needs_minimum_samples_before_arming() {
        let mut p = StreamingTvla::new();
        p.watch(ChannelId::Pcpu, 50);
        for _ in 0..10 {
            push(&mut p, 0, PlaintextClass::AllZeros, &[1.0]);
            push(&mut p, 0, PlaintextClass::AllOnes, &[9.0]);
        }
        assert!(
            !p.leakage_detected(),
            "clear separation but below the minimum count must stay silent"
        );
    }

    #[test]
    fn unwatched_flat_channel_never_detects() {
        let mut p = StreamingTvla::new();
        p.watch(ChannelId::Pcpu, 10);
        for _ in 0..100 {
            push(&mut p, 0, PlaintextClass::AllZeros, &[1.0]);
            push(&mut p, 0, PlaintextClass::AllOnes, &[1.0]);
        }
        assert!(!p.leakage_detected(), "identical class means must not trip the tracker");
    }

    #[test]
    fn merge_combines_watch_trackers() {
        let feed = |p: &mut StreamingTvla| {
            for i in 0..30 {
                let jitter = f64::from(i % 3) * 0.01;
                push(p, 0, PlaintextClass::AllZeros, &[1.0 + jitter]);
                push(p, 0, PlaintextClass::AllOnes, &[1.4 + jitter]);
            }
        };
        let mut a = StreamingTvla::new();
        a.watch(ChannelId::Pcpu, 40);
        let mut b = StreamingTvla::new();
        b.watch(ChannelId::Pcpu, 40);
        feed(&mut a);
        assert!(!a.leakage_detected(), "one shard alone is below the minimum");
        feed(&mut b);
        let merged = a.merged(b);
        assert_eq!(merged.tracker(ChannelId::Pcpu).unwrap().counts(), (60, 60));
        assert!(merged.leakage_detected(), "merged shards cross the minimum");
    }

    #[test]
    fn merge_equals_single_stream() {
        let feed = |p: &mut StreamingTvla, salt: u64| {
            for pass in 0..2u8 {
                for class in PlaintextClass::ALL {
                    let values: Vec<f64> = (0..50u64)
                        .map(|i| {
                            ((i.wrapping_mul(2_862_933_555_777_941_757).wrapping_add(salt)) >> 33)
                                as f64
                        })
                        .collect();
                    push(p, pass, class, &values);
                }
            }
        };
        let mut whole = StreamingTvla::new();
        feed(&mut whole, 1);
        feed(&mut whole, 2);
        let mut a = StreamingTvla::new();
        feed(&mut a, 1);
        let mut b = StreamingTvla::new();
        feed(&mut b, 2);
        let merged = a.merged(b);
        let whole_m = whole.matrix(ChannelId::Pcpu, "x").expect("seen");
        let merged_m = merged.matrix(ChannelId::Pcpu, "x").expect("seen");
        for (w, m) in whole_m.cells.iter().zip(&merged_m.cells) {
            assert!((w.t_score - m.t_score).abs() < 1e-9, "{} vs {}", w.t_score, m.t_score);
        }
    }
}
