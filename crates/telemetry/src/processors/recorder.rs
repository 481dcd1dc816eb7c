//! Shard-persisting trace recorder.

use crate::block::EventBlock;
use crate::event::ChannelId;
use crate::faults::{FaultState, RetryPolicy};
use crate::processor::Processor;
use psc_sca::codec::{self, LabeledTrace};
use psc_sca::trace::Trace;
use std::path::PathBuf;
use std::sync::Arc;

/// A [`ShardRecorder`]'s durable counters, as captured into (and
/// restored from) a campaign checkpoint.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecorderState {
    /// Channel label the recorder writes under.
    pub label: String,
    /// Shard files already written; numbering continues here on resume.
    pub files_written: u64,
    /// Total traces recorded.
    pub traces_recorded: u64,
    /// Batches lost after exhausting the retry budget.
    pub io_errors: u64,
    /// Transient write failures that were retried.
    pub io_retries: u64,
}

/// Persists one channel's traces to disk in bounded batches via
/// [`psc_sca::codec`]. Memory stays O(`shard_capacity`): whenever the
/// in-flight buffer fills, it is written out as one `.psct` shard file and
/// cleared. Shards are written in the labeled version-2 format (TVLA pass
/// and plaintext class recorded per trace), so a recorded campaign can be
/// replayed through the pump with its full TVLA structure intact: offline
/// analysis (`psc replay DIR`) streams the shards back in flat memory,
/// and [`codec::read_recording`] reads one whole, labels kept.
#[derive(Debug)]
pub struct ShardRecorder {
    dir: PathBuf,
    label: String,
    channel: ChannelId,
    shard: usize,
    capacity: usize,
    buffer: Vec<LabeledTrace>,
    files: Vec<PathBuf>,
    traces_recorded: u64,
    io_errors: u64,
    io_retries: u64,
    last_error: Option<String>,
    retry: RetryPolicy,
    faults: Option<Arc<FaultState>>,
}

impl ShardRecorder {
    /// Recorder for `channel`, writing files named
    /// `{label}-s{shard:03}-{index:04}.psct` under `dir`, holding at most
    /// `shard_capacity` traces in memory.
    ///
    /// # Panics
    ///
    /// Panics if `shard_capacity == 0`.
    #[must_use]
    pub fn new(
        dir: impl Into<PathBuf>,
        label: impl Into<String>,
        channel: ChannelId,
        shard: usize,
        shard_capacity: usize,
    ) -> Self {
        assert!(shard_capacity > 0, "recorder shard capacity must be >= 1");
        Self {
            dir: dir.into(),
            label: label.into(),
            channel,
            shard,
            capacity: shard_capacity,
            buffer: Vec::with_capacity(shard_capacity),
            files: Vec::new(),
            traces_recorded: 0,
            io_errors: 0,
            io_retries: 0,
            last_error: None,
            retry: RetryPolicy::default(),
            faults: None,
        }
    }

    /// Replace the write [`RetryPolicy`] (default: three attempts with
    /// millisecond backoff; [`RetryPolicy::none`] fails immediately).
    #[must_use]
    pub fn with_retry_policy(mut self, retry: RetryPolicy) -> Self {
        self.retry = retry;
        self
    }

    /// Arm fault injection: each batch write first consults
    /// [`FaultState::take_recorder_error`] and fails transiently while
    /// the plan's recorder-error budget lasts.
    #[must_use]
    pub fn with_faults(mut self, faults: Arc<FaultState>) -> Self {
        self.faults = Some(faults);
        self
    }

    /// Shard files written so far.
    #[must_use]
    pub fn files(&self) -> &[PathBuf] {
        &self.files
    }

    /// Total traces recorded (buffered + written).
    #[must_use]
    pub fn traces_recorded(&self) -> u64 {
        self.traces_recorded
    }

    /// Write failures that exhausted their retry budget (each also drops
    /// that batch; see [`last_error`]).
    ///
    /// [`last_error`]: ShardRecorder::last_error
    #[must_use]
    pub fn io_errors(&self) -> u64 {
        self.io_errors
    }

    /// Batch writes retried after a transient failure. Nonzero retries
    /// with zero [`io_errors`] means every fault recovered and no traces
    /// were lost.
    ///
    /// [`io_errors`]: ShardRecorder::io_errors
    #[must_use]
    pub fn io_retries(&self) -> u64 {
        self.io_retries
    }

    /// Most recent write failure message.
    #[must_use]
    pub fn last_error(&self) -> Option<&str> {
        self.last_error.as_deref()
    }

    fn write_batch(&self, path: &PathBuf) -> Result<(), codec::CodecError> {
        if self.faults.as_ref().is_some_and(|f| f.take_recorder_error()) {
            return Err(codec::CodecError::Io(std::io::Error::other("injected recorder fault")));
        }
        std::fs::File::create(path)
            .map_err(codec::CodecError::Io)
            .and_then(|f| codec::write_recording(&self.label, &self.buffer, f))
    }

    /// Persist the in-flight buffer now (idempotent when empty). Called
    /// automatically at capacity and on finish; checkpointing drivers
    /// call it before snapshotting so the snapshot's file count covers
    /// every recorded trace.
    pub fn flush(&mut self) {
        if self.buffer.is_empty() {
            return;
        }
        let path = self.dir.join(format!(
            "{}-s{:03}-{:04}.psct",
            self.label,
            self.shard,
            self.files.len()
        ));
        // A missing recording directory is created on first flush;
        // genuine failures (permissions, a file in the way) still
        // surface through File::create below.
        let _ = std::fs::create_dir_all(&self.dir);
        // Transient failures are retried with backoff while the policy
        // allows; the buffer is kept intact across attempts and only
        // dropped once the budget is exhausted.
        let salt = self.shard as u64 ^ (self.files.len() as u64) << 32;
        let mut attempt = 1u32;
        let result = loop {
            match self.write_batch(&path) {
                Ok(()) => break Ok(()),
                Err(_) if self.retry.should_retry(attempt) => {
                    self.io_retries += 1;
                    std::thread::sleep(self.retry.delay(attempt, salt));
                    attempt += 1;
                }
                Err(e) => break Err(e),
            }
        };
        self.buffer.clear();
        match result {
            Ok(()) => self.files.push(path),
            Err(e) => {
                self.io_errors += 1;
                self.last_error = Some(format!("{}: {e}", path.display()));
            }
        }
    }

    /// Snapshot the recorder's durable state for a campaign checkpoint.
    /// Call [`Self::flush`] first so the in-flight buffer is empty and
    /// the snapshot covers every recorded trace.
    #[must_use]
    pub fn checkpoint_state(&self) -> RecorderState {
        RecorderState {
            label: self.label.clone(),
            files_written: self.files.len() as u64,
            traces_recorded: self.traces_recorded,
            io_errors: self.io_errors,
            io_retries: self.io_retries,
        }
    }

    /// Restore a freshly built recorder from a checkpoint snapshot:
    /// counters resume and file numbering continues after the already
    /// written shards (whose deterministic paths are reconstructed so
    /// [`Self::files`] stays complete across a resume).
    ///
    /// # Panics
    ///
    /// Panics if the snapshot was taken for a different channel label —
    /// a configuration mismatch, not recoverable data corruption.
    pub fn restore_state(&mut self, state: &RecorderState) {
        assert_eq!(state.label, self.label, "recorder snapshot is for another channel");
        self.files = (0..state.files_written)
            .map(|i| self.dir.join(format!("{}-s{:03}-{:04}.psct", self.label, self.shard, i)))
            .collect();
        self.traces_recorded = state.traces_recorded;
        self.io_errors = state.io_errors;
        self.io_retries = state.io_retries;
    }
}

impl Processor for ShardRecorder {
    fn name(&self) -> &'static str {
        "recorder"
    }

    /// Only this recorder's channel column is walked — other channels'
    /// samples are never even inspected. Each present sample is buffered
    /// with its row's labels, and a full buffer flushes mid-block, so
    /// shard files do not depend on how the stream is cut into blocks.
    fn on_block(&mut self, block: &EventBlock) {
        let windows = block.windows();
        if let Some(col) = block.channels().iter().position(|&c| c == self.channel) {
            for (w, v) in windows.iter().zip(block.column(col)) {
                if let Some(value) = *v {
                    self.buffer.push(LabeledTrace {
                        trace: Trace { value, plaintext: w.plaintext, ciphertext: w.ciphertext },
                        pass: w.pass,
                        class: w.class,
                    });
                    self.traces_recorded += 1;
                    if self.buffer.len() >= self.capacity {
                        self.flush();
                    }
                }
            }
        }
    }

    fn on_finish(&mut self) {
        self.flush();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{SchedEvent, WindowEvent};
    use psc_sca::trace::TraceSet;
    use psc_sca::tvla::PlaintextClass;

    /// Read every written shard back, concatenated in write order.
    fn read_back(files: &[PathBuf]) -> Result<TraceSet, codec::CodecError> {
        let mut merged = TraceSet::default();
        for path in files {
            let set = codec::read_trace_set(std::fs::File::open(path)?)?;
            if merged.is_empty() {
                merged = set;
            } else {
                merged.extend(set.iter().copied());
            }
        }
        Ok(merged)
    }

    /// One block holding one PCPU row per `(pass, class, plaintext,
    /// ciphertext, value)`.
    fn block(
        rows: impl IntoIterator<Item = (u8, Option<PlaintextClass>, [u8; 16], [u8; 16], f64)>,
    ) -> EventBlock {
        let mut block = EventBlock::new();
        block.reset(&[ChannelId::Pcpu]);
        for (i, (pass, class, plaintext, ciphertext, value)) in rows.into_iter().enumerate() {
            let time_s = i as f64;
            block.begin(WindowEvent { seq: i as u64, time_s, pass, class, plaintext, ciphertext });
            block.sample(0, value);
            block.commit(SchedEvent {
                time_s,
                windows_consumed: 1,
                window_s: 1.0,
                denied_reads: 0,
            });
        }
        block
    }

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("psc_recorder_{tag}_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn feed(rec: &mut ShardRecorder, n: usize) {
        rec.on_block(&block((0..n).map(|i| {
            let pt = core::array::from_fn(|b| (i + b) as u8);
            let ct = core::array::from_fn(|b| (i * 3 + b) as u8);
            (0, None, pt, ct, i as f64 * 0.5)
        })));
        rec.on_finish();
    }

    #[test]
    fn shards_bound_memory_and_roundtrip() {
        let dir = temp_dir("roundtrip");
        let mut rec = ShardRecorder::new(&dir, "PHPC", ChannelId::Pcpu, 0, 40);
        feed(&mut rec, 100);
        assert_eq!(rec.traces_recorded(), 100);
        assert_eq!(rec.io_errors(), 0);
        // 100 traces at capacity 40 → shards of 40/40/20.
        assert_eq!(rec.files().len(), 3);
        let back = read_back(rec.files()).unwrap();
        assert_eq!(back.len(), 100);
        assert!((back.traces()[99].value - 49.5).abs() < 1e-12);
        for f in rec.files() {
            std::fs::remove_file(f).ok();
        }
        std::fs::remove_dir(&dir).ok();
    }

    #[test]
    fn other_channels_ignored() {
        let dir = temp_dir("filter");
        let mut rec = ShardRecorder::new(&dir, "PHPC", ChannelId::Timing, 0, 10);
        feed(&mut rec, 20);
        assert_eq!(rec.traces_recorded(), 0, "PCPU samples must not be recorded");
        assert!(rec.files().is_empty());
        std::fs::remove_dir(&dir).ok();
    }

    #[test]
    fn io_failure_counted_not_panicking() {
        // A directory path that can never be created: its parent is a
        // plain file (a bare missing directory is created on flush).
        let blocker = std::env::temp_dir().join(format!("psc_rec_blocker_{}", std::process::id()));
        std::fs::write(&blocker, b"not a dir").unwrap();
        let mut rec = ShardRecorder::new(blocker.join("xyz"), "PHPC", ChannelId::Pcpu, 0, 5);
        feed(&mut rec, 5);
        assert_eq!(rec.io_errors(), 1);
        assert!(rec.last_error().is_some());
        std::fs::remove_file(&blocker).ok();
    }

    #[test]
    fn missing_record_dir_is_created_on_flush() {
        let dir = std::env::temp_dir()
            .join(format!("psc_recorder_autodir_{}", std::process::id()))
            .join("nested");
        let mut rec = ShardRecorder::new(&dir, "PHPC", ChannelId::Pcpu, 0, 4);
        feed(&mut rec, 4);
        assert_eq!(rec.io_errors(), 0, "{:?}", rec.last_error());
        assert_eq!(rec.files().len(), 1);
        for f in rec.files() {
            std::fs::remove_file(f).ok();
        }
        std::fs::remove_dir(&dir).ok();
        std::fs::remove_dir(dir.parent().unwrap()).ok();
    }

    #[test]
    fn transient_write_faults_are_retried_and_recovered() {
        use crate::faults::FaultPlan;
        let dir = temp_dir("retry");
        let faults = FaultPlan { recorder_errors: 2, ..FaultPlan::default() }.armed();
        let mut rec = ShardRecorder::new(&dir, "PHPC", ChannelId::Pcpu, 0, 10).with_faults(faults);
        feed(&mut rec, 25);
        // Two injected faults, both inside the default 3-attempt budget:
        // retried, recovered, nothing lost.
        assert_eq!(rec.io_retries(), 2);
        assert_eq!(rec.io_errors(), 0);
        assert_eq!(rec.files().len(), 3);
        assert_eq!(read_back(rec.files()).unwrap().len(), 25);
        for f in rec.files() {
            std::fs::remove_file(f).ok();
        }
        std::fs::remove_dir(&dir).ok();
    }

    #[test]
    fn exhausted_retry_budget_loses_the_batch_and_counts_it() {
        use crate::faults::FaultPlan;
        let dir = temp_dir("exhaust");
        // Four consecutive faults on one batch: attempts 1-3 all fail,
        // the batch is dropped, and later batches write cleanly.
        let faults = FaultPlan { recorder_errors: 4, ..FaultPlan::default() }.armed();
        let mut rec = ShardRecorder::new(&dir, "PHPC", ChannelId::Pcpu, 0, 10).with_faults(faults);
        feed(&mut rec, 25);
        assert_eq!(rec.io_errors(), 1, "first batch lost");
        assert_eq!(rec.io_retries(), 3, "two on the lost batch, one recovering the second");
        assert_eq!(rec.files().len(), 2);
        assert_eq!(read_back(rec.files()).unwrap().len(), 15);
        for f in rec.files() {
            std::fs::remove_file(f).ok();
        }
        std::fs::remove_dir(&dir).ok();
    }

    #[test]
    fn snapshot_restore_continues_file_numbering() {
        let dir = temp_dir("snapshot");
        let mut rec = ShardRecorder::new(&dir, "PHPC", ChannelId::Pcpu, 1, 10);
        feed(&mut rec, 20);
        let state = rec.checkpoint_state();
        assert_eq!(state.files_written, 2);
        let mut resumed = ShardRecorder::new(&dir, "PHPC", ChannelId::Pcpu, 1, 10);
        resumed.restore_state(&state);
        assert_eq!(resumed.files(), rec.files());
        assert_eq!(resumed.traces_recorded(), 20);
        feed(&mut resumed, 10);
        assert_eq!(resumed.files().len(), 3, "numbering continues after restored shards");
        assert_eq!(read_back(resumed.files()).unwrap().len(), 30);
        for f in resumed.files() {
            std::fs::remove_file(f).ok();
        }
        std::fs::remove_dir(&dir).ok();
    }

    #[test]
    fn tvla_labels_survive_the_recording() {
        let dir = temp_dir("labels");
        let mut rec = ShardRecorder::new(&dir, "PHPC", ChannelId::Pcpu, 2, 8);
        rec.on_block(&block(
            PlaintextClass::ALL
                .iter()
                .enumerate()
                .map(|(i, class)| (1, Some(*class), [i as u8; 16], [0; 16], i as f64)),
        ));
        rec.on_finish();
        let recording =
            psc_sca::codec::read_recording(std::fs::File::open(&rec.files()[0]).unwrap()).unwrap();
        assert_eq!(recording.label, "PHPC");
        assert_eq!(recording.traces.len(), 3);
        for (t, class) in recording.traces.iter().zip(PlaintextClass::ALL) {
            assert_eq!(t.pass, 1);
            assert_eq!(t.class, Some(class));
        }
        for f in rec.files() {
            std::fs::remove_file(f).ok();
        }
        std::fs::remove_dir(&dir).ok();
    }
}
