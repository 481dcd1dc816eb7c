//! Incremental CPA processors: running per-guess/byte sums, O(1) memory.
//!
//! A block is ingested in two passes. The model's
//! [`PowerModel::input_bytes`] are computed once per row, then each
//! registered channel's sample column is binned against them with
//! [`Cpa::add_rows`], which skips denied reads. So a row costs one model
//! call however many channels share the model, and no column is copied.

use crate::block::EventBlock;
use crate::event::{ChannelId, WindowEvent};
use crate::processor::Processor;
use crate::replay::channel_for_label;
use psc_sca::checkpoint::{self, CheckpointError, PayloadReader, PayloadWriter};
use psc_sca::cpa::{Cpa, CpaMergeError};
use psc_sca::model::PowerModel;
use std::collections::BTreeMap;
use std::ops::Range;

/// Streaming CPA over a fixed set of channels. Each channel gets its own
/// [`Cpa`] accumulator (256-bin running sums per key byte — memory is
/// independent of trace count). Shards run independent instances;
/// [`StreamingCpa::merged`] sum-merges them.
#[derive(Debug)]
pub struct StreamingCpa {
    cpas: BTreeMap<ChannelId, Cpa>,
    /// The last row's known-plaintext record (a checkpoint slot).
    current: Option<([u8; 16], [u8; 16])>,
    unregistered_samples: u64,
    /// The current block's per-row model inputs, reused across blocks.
    inputs: Vec<[u8; 16]>,
}

impl StreamingCpa {
    /// New processor correlating `channels`, each under a fresh model from
    /// `model_factory`, all on the process-wide hypothesis table of that
    /// model ([`psc_sca::cpa::HypTable::shared`]).
    ///
    /// # Panics
    ///
    /// Panics if `model_factory` yields models of different names: every
    /// channel is binned against one row pass of model inputs.
    #[must_use]
    pub fn new(
        channels: impl IntoIterator<Item = ChannelId>,
        model_factory: impl Fn() -> Box<dyn PowerModel>,
    ) -> Self {
        let cpas: BTreeMap<_, _> =
            channels.into_iter().map(|c| (c, Cpa::new(model_factory()))).collect();
        let mut names = cpas.values().map(|cpa| cpa.model().name());
        let first = names.next();
        assert!(names.all(|n| Some(n) == first), "one model factory must yield one model");
        Self { cpas, current: None, unregistered_samples: 0, inputs: Vec::new() }
    }

    /// The accumulator for `channel`.
    #[must_use]
    pub fn cpa(&self, channel: ChannelId) -> Option<&Cpa> {
        self.cpas.get(&channel)
    }

    /// Set the correlation-sweep unroll width on every channel's
    /// accumulator (see [`Cpa::set_unroll`] — throughput only, results
    /// are bit-identical across widths).
    ///
    /// # Panics
    ///
    /// Panics if `unroll` is not one of [`Cpa::UNROLL_WIDTHS`].
    pub fn set_unroll(&mut self, unroll: usize) {
        for cpa in self.cpas.values_mut() {
            cpa.set_unroll(unroll);
        }
    }

    /// All per-channel accumulators.
    #[must_use]
    pub fn cpas(&self) -> &BTreeMap<ChannelId, Cpa> {
        &self.cpas
    }

    /// Samples on channels this processor was not registered for.
    #[must_use]
    pub fn unregistered_samples(&self) -> u64 {
        self.unregistered_samples
    }

    /// Serialize the full processor state — per-channel CPA bins, the
    /// unregistered-sample counter and the last window record — into a
    /// campaign checkpoint payload (~64 KB per channel). A zero fills the
    /// slot of a retired counter (samples outside any window, which a
    /// block row cannot carry), keeping the frame layout.
    pub fn encode_state(&self, w: &mut PayloadWriter) {
        w.put_u32(self.cpas.len() as u32);
        for (channel, cpa) in &self.cpas {
            w.put_str(&channel.to_string());
            checkpoint::put_cpa_state(w, &cpa.raw_state());
        }
        match self.current {
            None => w.put_u8(0),
            Some((pt, ct)) => {
                w.put_u8(1);
                w.put_bytes(&pt);
                w.put_bytes(&ct);
            }
        }
        w.put_u64(self.unregistered_samples);
        w.put_u64(0);
    }

    /// Restore state written by [`Self::encode_state`] into a processor
    /// built from the *same campaign configuration* (same channels, same
    /// power model): accumulator bins are overwritten bit-identically.
    ///
    /// # Errors
    ///
    /// Truncated payloads, unknown labels, snapshot channels this
    /// processor was not built for, and power-model mismatches all come
    /// back as [`CheckpointError`].
    pub fn restore_state(&mut self, r: &mut PayloadReader<'_>) -> Result<(), CheckpointError> {
        let channels = r.get_u32()?;
        for _ in 0..channels {
            let label = r.get_str()?;
            let channel = channel_for_label(&label)
                .ok_or(CheckpointError::Corrupt("unknown channel label"))?;
            let state = checkpoint::get_cpa_state(r)?;
            let cpa = self
                .cpas
                .get_mut(&channel)
                .ok_or(CheckpointError::Corrupt("snapshot channel is not registered"))?;
            cpa.restore_raw(&state)
                .map_err(|_| CheckpointError::Corrupt("snapshot power model mismatch"))?;
        }
        self.current = match r.get_u8()? {
            0 => None,
            1 => Some((r.get_bytes()?, r.get_bytes()?)),
            _ => return Err(CheckpointError::Corrupt("bad window-record flag")),
        };
        self.unregistered_samples = r.get_u64()?;
        r.get_u64()?; // the retired counter's slot
        Ok(())
    }

    /// Merge a shard's accumulators into this one. Channel sets must
    /// match (both sides come from the same campaign configuration).
    ///
    /// # Errors
    ///
    /// Returns [`CpaMergeError`] if any channel pair was built for
    /// different power models.
    ///
    /// # Panics
    ///
    /// Panics if the channel sets differ.
    pub fn merged(mut self, other: Self) -> Result<Self, CpaMergeError> {
        assert_eq!(
            self.cpas.keys().collect::<Vec<_>>(),
            other.cpas.keys().collect::<Vec<_>>(),
            "shards must correlate the same channels"
        );
        for (channel, theirs) in &other.cpas {
            self.cpas.get_mut(channel).expect("checked above").merge(theirs)?;
        }
        self.unregistered_samples += other.unregistered_samples;
        Ok(self)
    }
}

impl Processor for StreamingCpa {
    fn name(&self) -> &'static str {
        "cpa"
    }

    /// The model inputs of the block's rows are computed once, then each
    /// registered channel's column is binned straight from the block with
    /// one [`Cpa::add_rows`] call — bit-identical to one
    /// [`Cpa::add_trace`] per present sample in row order.
    fn on_block(&mut self, block: &EventBlock) {
        let windows = block.windows();
        if windows.is_empty() {
            return;
        }
        if let Some(cpa) = self.cpas.values().next() {
            model_inputs(cpa.model(), windows, &mut self.inputs);
        }
        for (col, channel) in block.channels().iter().enumerate() {
            let column = block.column(col);
            match self.cpas.get_mut(channel) {
                Some(cpa) => cpa.add_rows(&self.inputs, column),
                None => self.unregistered_samples += column.iter().flatten().count() as u64,
            }
        }
        self.current = windows.last().map(|w| (w.plaintext, w.ciphertext));
    }
}

/// Fill `inputs` with `model`'s [`PowerModel::input_bytes`] of each row.
fn model_inputs(model: &dyn PowerModel, windows: &[WindowEvent], inputs: &mut Vec<[u8; 16]>) {
    inputs.clear();
    inputs.extend(windows.iter().map(|w| model.input_bytes(&w.plaintext, &w.ciphertext)));
}

/// A power-model constructor: [`CpaGrid`] builds one accumulator per
/// model, and a fresh one per snapshot.
pub type ModelFactory = fn() -> Box<dyn PowerModel>;

/// Streaming CPA on one channel under several power models, with the
/// accumulators kept at a grid of trace counts — the shape of GE curves
/// (the paper's Fig. 1) and of success-rate studies.
///
/// A campaign shard covers traces `slice.start..slice.end` of the
/// campaign's trace order. It snapshots its accumulators once it has
/// consumed the first `g - slice.start` of its rows, for every grid point
/// `g` with `slice.start < g <= slice.end`, splitting a block at that row
/// when needed. [`CpaGrid::merged`] folds shards in order and adds the
/// earlier shards' full state to each later snapshot, so every point
/// holds exactly the first `g` traces in shard order — a prefix of the
/// concatenated campaign, at O(grid) memory instead of O(traces). Rows
/// count the schedule's observations: a denied read on the channel adds
/// nothing to the accumulators but still counts as a row.
#[derive(Debug)]
pub struct CpaGrid {
    channel: ChannelId,
    models: Vec<ModelFactory>,
    cpas: Vec<Cpa>,
    /// Grid points this shard still has to snapshot, ascending.
    pending: Vec<usize>,
    /// Global index of the next row (`slice.start` + rows consumed).
    row: usize,
    /// `(trace count, one accumulator per model)`, ascending.
    points: Vec<(usize, Vec<Cpa>)>,
    /// The last row's known-plaintext record (a checkpoint slot).
    current: Option<([u8; 16], [u8; 16])>,
    /// One model's inputs for the current run of rows.
    inputs: Vec<[u8; 16]>,
}

impl CpaGrid {
    /// A shard's grid processor over `channel`, correlating under each of
    /// `models`, snapshotting at the points of `grid` inside `slice`.
    #[must_use]
    pub fn new(
        channel: ChannelId,
        models: &[ModelFactory],
        grid: &[usize],
        slice: Range<usize>,
    ) -> Self {
        let mut pending: Vec<usize> =
            grid.iter().copied().filter(|&g| slice.start < g && g <= slice.end).collect();
        pending.sort_unstable();
        pending.dedup();
        Self {
            channel,
            models: models.to_vec(),
            cpas: models.iter().map(|m| Cpa::new(m())).collect(),
            pending,
            row: slice.start,
            points: Vec::new(),
            current: None,
            inputs: Vec::new(),
        }
    }

    /// The accumulators over every trace consumed, one per model.
    #[must_use]
    pub fn cpas(&self) -> &[Cpa] {
        &self.cpas
    }

    /// The snapshots taken so far: `(trace count, one accumulator per
    /// model)`, ascending in trace count. Grid points past the end of the
    /// campaign have none (see [`Self::cpas`] for the full state).
    #[must_use]
    pub fn points(&self) -> &[(usize, Vec<Cpa>)] {
        &self.points
    }

    /// Copies of the current accumulators.
    fn fork(&self) -> Vec<Cpa> {
        self.cpas
            .iter()
            .zip(&self.models)
            .map(|(cpa, model)| {
                let mut copy = Cpa::new(model());
                copy.merge(cpa).expect("same model");
                copy
            })
            .collect()
    }

    /// Take the due snapshot, if the rows consumed reached the next grid
    /// point. Called before each new row and at the end of the stream,
    /// so a row is always complete when its snapshot is taken.
    fn snapshot_if_due(&mut self) {
        if self.pending.first() == Some(&self.row) {
            let point = self.pending.remove(0);
            let copy = self.fork();
            self.points.push((point, copy));
        }
    }

    /// Merge the next shard into this one (shards fold in order): each of
    /// its snapshots gains this side's full state, then the full states
    /// add.
    ///
    /// # Errors
    ///
    /// [`CpaMergeError`] when the two sides use different power models.
    pub fn merged(mut self, other: Self) -> Result<Self, CpaMergeError> {
        for (point, snapshot) in &other.points {
            let mut prefix = self.fork();
            for (mine, theirs) in prefix.iter_mut().zip(snapshot) {
                mine.merge(theirs)?;
            }
            self.points.push((*point, prefix));
        }
        for (mine, theirs) in self.cpas.iter_mut().zip(&other.cpas) {
            mine.merge(theirs)?;
        }
        self.row = other.row;
        self.pending = other.pending;
        Ok(self)
    }

    /// Serialize the full state (accumulators, snapshots, row position
    /// and pending grid points) into a campaign checkpoint payload.
    pub fn encode_state(&self, w: &mut PayloadWriter) {
        let put_cpas = |w: &mut PayloadWriter, cpas: &[Cpa]| {
            for cpa in cpas {
                checkpoint::put_cpa_state(w, &cpa.raw_state());
            }
        };
        w.put_u32(self.cpas.len() as u32);
        put_cpas(w, &self.cpas);
        w.put_u64(self.row as u64);
        w.put_u32(self.pending.len() as u32);
        self.pending.iter().for_each(|&g| w.put_u64(g as u64));
        w.put_u32(self.points.len() as u32);
        for (point, cpas) in &self.points {
            w.put_u64(*point as u64);
            put_cpas(w, cpas);
        }
        match self.current {
            None => w.put_u8(0),
            Some((pt, ct)) => {
                w.put_u8(1);
                w.put_bytes(&pt);
                w.put_bytes(&ct);
            }
        }
    }

    /// Restore state written by [`Self::encode_state`] into a processor
    /// built with the same channel and models.
    ///
    /// # Errors
    ///
    /// Truncated payloads and model mismatches.
    pub fn restore_state(&mut self, r: &mut PayloadReader<'_>) -> Result<(), CheckpointError> {
        if r.get_u32()? as usize != self.models.len() {
            return Err(CheckpointError::Corrupt("snapshot model count differs"));
        }
        let models = self.models.clone();
        let get_cpas = |r: &mut PayloadReader<'_>| -> Result<Vec<Cpa>, CheckpointError> {
            models
                .iter()
                .map(|model| {
                    let mut cpa = Cpa::new(model());
                    cpa.restore_raw(&checkpoint::get_cpa_state(r)?)
                        .map_err(|_| CheckpointError::Corrupt("snapshot power model mismatch"))?;
                    Ok(cpa)
                })
                .collect()
        };
        self.cpas = get_cpas(r)?;
        self.row = r.get_u64()? as usize;
        self.pending =
            (0..r.get_u32()?).map(|_| r.get_u64().map(|g| g as usize)).collect::<Result<_, _>>()?;
        self.points = (0..r.get_u32()?)
            .map(|_| Ok((r.get_u64()? as usize, get_cpas(r)?)))
            .collect::<Result<_, CheckpointError>>()?;
        self.current = match r.get_u8()? {
            0 => None,
            1 => Some((r.get_bytes()?, r.get_bytes()?)),
            _ => return Err(CheckpointError::Corrupt("bad window-record flag")),
        };
        Ok(())
    }
}

impl Processor for CpaGrid {
    fn name(&self) -> &'static str {
        "cpa-grid"
    }

    /// The block is cut at the rows where grid points fall. For each run
    /// of rows, each model's inputs are computed once and the channel's
    /// column is binned against them with one [`Cpa::add_rows`], so every
    /// snapshot holds exactly the rows before its grid point.
    fn on_block(&mut self, block: &EventBlock) {
        let windows = block.windows();
        let column =
            block.channels().iter().position(|&c| c == self.channel).map(|c| block.column(c));
        let mut from = 0;
        while from < windows.len() {
            self.snapshot_if_due();
            let rows = windows.len() - from;
            let take = self.pending.first().map_or(rows, |&g| (g - self.row).min(rows));
            let to = from + take;
            if let Some(column) = column {
                for cpa in &mut self.cpas {
                    model_inputs(cpa.model(), &windows[from..to], &mut self.inputs);
                    cpa.add_rows(&self.inputs, &column[from..to]);
                }
            }
            self.row += take;
            from = to;
        }
        if let Some(w) = windows.last() {
            self.current = Some((w.plaintext, w.ciphertext));
        }
    }

    fn on_finish(&mut self) {
        self.snapshot_if_due();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{SchedEvent, WindowEvent};
    use psc_aes::Aes;
    use psc_sca::checkpoint::{PayloadReader, PayloadWriter};
    use psc_sca::model::Rd0Hw;
    use psc_sca::trace::{Trace, TraceSet};

    fn synthetic(key: &[u8; 16], n: usize, salt: u64) -> TraceSet {
        let aes = Aes::new(key).unwrap();
        let mut set = TraceSet::new("synthetic");
        let mut state = salt | 1;
        for _ in 0..n {
            let mut pt = [0u8; 16];
            for b in pt.iter_mut() {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                *b = (state >> 32) as u8;
            }
            let trace = aes.encrypt_traced(&pt);
            let value: u32 = trace.round0_addkey().iter().map(|&x| x.count_ones()).sum();
            set.push(Trace {
                value: f64::from(value),
                plaintext: pt,
                ciphertext: trace.ciphertext,
            });
        }
        set
    }

    /// `set` as 7-row blocks on the `Pcpu` channel.
    fn feed(p: &mut StreamingCpa, set: &TraceSet) {
        set.traces().chunks(7).for_each(|c| p.on_block(&block_of(c)));
    }

    #[test]
    fn streaming_matches_batch_ranks() {
        let key = [0x5Au8; 16];
        let set = synthetic(&key, 2000, 7);
        let mut streaming = StreamingCpa::new([ChannelId::Pcpu], || Box::new(Rd0Hw));
        feed(&mut streaming, &set);
        let mut batch = Cpa::new(Box::new(Rd0Hw));
        batch.add_set(&set);
        let s = streaming.cpa(ChannelId::Pcpu).expect("registered");
        assert_eq!(s.ranks(&key), batch.ranks(&key));
        for b in 0..16 {
            for g in [0u8, 0x5A, 0xFF] {
                assert!((s.correlation(b, g) - batch.correlation(b, g)).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn sharded_merge_matches_whole() {
        let key: [u8; 16] = core::array::from_fn(|i| (i * 11 + 3) as u8);
        let a = synthetic(&key, 700, 1);
        let b = synthetic(&key, 700, 2);
        let mut whole = StreamingCpa::new([ChannelId::Pcpu], || Box::new(Rd0Hw));
        feed(&mut whole, &a);
        feed(&mut whole, &b);
        let mut sa = StreamingCpa::new([ChannelId::Pcpu], || Box::new(Rd0Hw));
        feed(&mut sa, &a);
        let mut sb = StreamingCpa::new([ChannelId::Pcpu], || Box::new(Rd0Hw));
        feed(&mut sb, &b);
        let merged = sa.merged(sb).expect("same models");
        let w = whole.cpa(ChannelId::Pcpu).unwrap();
        let m = merged.cpa(ChannelId::Pcpu).unwrap();
        assert_eq!(w.trace_count(), m.trace_count());
        for b_idx in 0..16 {
            for g in 0..=255u8 {
                assert!(
                    (w.correlation(b_idx, g) - m.correlation(b_idx, g)).abs() < 1e-9,
                    "byte {b_idx} guess {g}"
                );
            }
        }
    }

    #[test]
    fn channels_share_one_hypothesis_table() {
        let p = StreamingCpa::new([ChannelId::Pcpu, ChannelId::Timing], || Box::new(Rd0Hw));
        let q = StreamingCpa::new([ChannelId::Pcpu], || Box::new(Rd0Hw));
        let shared = psc_sca::cpa::HypTable::shared(&Rd0Hw);
        for cpa in [p.cpa(ChannelId::Pcpu), p.cpa(ChannelId::Timing), q.cpa(ChannelId::Pcpu)] {
            let table = cpa.unwrap().shared_table();
            assert!(std::sync::Arc::ptr_eq(table, &shared), "one table per model per process");
        }
    }

    #[test]
    #[should_panic(expected = "one model factory must yield one model")]
    fn mixed_model_factory_is_rejected() {
        let flip = std::cell::Cell::new(false);
        let _ = StreamingCpa::new([ChannelId::Pcpu, ChannelId::Timing], || {
            flip.set(!flip.get());
            if flip.get() {
                Box::new(Rd0Hw)
            } else {
                Box::new(psc_sca::model::Rd10Hw)
            }
        });
    }

    /// `traces` as one block on the `Pcpu` channel.
    fn block_of(traces: &[Trace]) -> EventBlock {
        let mut block = EventBlock::new();
        block.reset(&[ChannelId::Pcpu]);
        for (i, t) in traces.iter().enumerate() {
            block.begin(WindowEvent {
                seq: i as u64,
                time_s: i as f64,
                pass: 0,
                class: None,
                plaintext: t.plaintext,
                ciphertext: t.ciphertext,
            });
            block.sample(0, t.value);
            block.commit(SchedEvent {
                time_s: i as f64,
                windows_consumed: 1,
                window_s: 1.0,
                denied_reads: 0,
            });
        }
        block
    }

    fn grid_states(grid: &CpaGrid) -> Vec<(usize, Vec<psc_sca::cpa::CpaState>)> {
        let states = |cpas: &[Cpa]| cpas.iter().map(Cpa::raw_state).collect::<Vec<_>>();
        grid.points()
            .iter()
            .map(|(n, cpas)| (*n, states(cpas)))
            .chain([(usize::MAX, states(grid.cpas()))])
            .collect()
    }

    #[test]
    fn grid_block_event_and_resume_paths_agree() {
        // Three ingest shapes: one block, one block per row, and a
        // checkpoint/restore split into three-row blocks.
        let key = [0x5Au8; 16];
        let set = synthetic(&key, 40, 3);
        let models: [ModelFactory; 2] = [|| Box::new(Rd0Hw), || Box::new(psc_sca::model::Rd10Hd)];
        let grid = [7, 16, 17, 40, 99];
        let fresh = || CpaGrid::new(ChannelId::Pcpu, &models, &grid, 0..40);

        // One 40-row block, cut at the grid rows inside on_block.
        let whole = block_of(set.traces());
        let mut blocked = fresh();
        blocked.on_block(&whole);
        blocked.on_finish();

        let mut rows = fresh();
        set.traces().chunks(1).for_each(|c| rows.on_block(&block_of(c)));
        rows.on_finish();

        // Checkpoint after 16 rows (a grid point still due), restore into a
        // fresh processor and finish there, three rows per block.
        let mut first = fresh();
        set.traces()[..16].chunks(3).for_each(|c| first.on_block(&block_of(c)));
        let mut w = PayloadWriter::new();
        first.encode_state(&mut w);
        let section = w.into_section(1);
        let mut resumed = fresh();
        let mut r = PayloadReader::new(&section.payload);
        resumed.restore_state(&mut r).unwrap();
        r.finish().unwrap();
        set.traces()[16..].chunks(3).for_each(|c| resumed.on_block(&block_of(c)));
        resumed.on_finish();

        let want = grid_states(&blocked);
        assert_eq!(want.len(), 5, "points 7, 16, 17, 40 plus the full state");
        assert_eq!(grid_states(&rows), want);
        assert_eq!(grid_states(&resumed), want);
        // The point at 16 holds exactly the first 16 traces.
        let mut prefix = Cpa::new(Box::new(Rd0Hw));
        set.iter().take(16).for_each(|t| prefix.add_trace(t));
        assert_eq!(want[1].1[0], prefix.raw_state());
    }

    #[test]
    fn drop_accounting() {
        let mut p = StreamingCpa::new([ChannelId::Pcpu], || Box::new(Rd0Hw));
        // Samples on an unregistered channel: counted, not panicking;
        // denied reads count nowhere.
        let mut block = EventBlock::new();
        block.reset(&[ChannelId::Timing, ChannelId::Pcpu]);
        for (i, timing) in [Some(1.0), None, Some(3.0)].into_iter().enumerate() {
            block.begin(WindowEvent {
                seq: i as u64,
                time_s: 0.0,
                pass: 0,
                class: None,
                plaintext: [i as u8; 16],
                ciphertext: [0; 16],
            });
            if let Some(v) = timing {
                block.sample(0, v);
            }
            block.sample(1, 1.0);
            block.commit(SchedEvent {
                time_s: 0.0,
                windows_consumed: 1,
                window_s: 1.0,
                denied_reads: 0,
            });
        }
        p.on_block(&block);
        assert_eq!(p.unregistered_samples(), 2);
        assert_eq!(p.cpa(ChannelId::Pcpu).unwrap().trace_count(), 3);
    }
}
