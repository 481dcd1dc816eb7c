//! Pipeline metrics: atomic counters, gauges and log2-bucket histograms
//! behind a mergeable [`MetricsRegistry`].
//!
//! The campaign pipeline moves columnar blocks across a multi-shard bus
//! with overflow policies, recycle lanes and adaptive early-stop — state
//! that a multi-tenant service must be able to *see* to be operated,
//! admission-controlled or perf-debugged. This module is the vendored-
//! budget substrate for that visibility:
//!
//! * [`Counter`] — a monotone atomic count (blocks shipped, drops,
//!   denied reads, recorder I/O errors);
//! * [`Gauge`] — a high-water mark (peak bus occupancy), merged by max;
//! * [`Histogram`] — a fixed [`BUCKETS`]-slot log2-bucket latency
//!   histogram (`Processor::on_block` dispatch time, source block-fill
//!   time) with an exact total sum for mean latency;
//! * [`MetricsRegistry`] — a name → metric map handing out shared
//!   [`Arc`] handles, so hot paths touch pre-resolved atomics and never
//!   the registry lock.
//!
//! Everything is **merge-exact**, mirroring the accumulator laws of
//! `TvlaAccumulator::merged` / `Cpa::merge`: every shard (or fleet
//! member) runs its own registry, and
//! [`MetricsSnapshot::merged`] combines the per-shard snapshots into
//! exactly the totals a single shared registry would have produced —
//! counters add, gauges max, histograms add bucket-wise. The law is
//! pinned by `crates/telemetry/tests/proptest_metrics.rs`.
//!
//! Instrumentation is **zero-cost when off**: the campaign driver holds
//! `Option<…>` handles and the uninstrumented path never allocates a
//! registry, reads a clock, or touches an atomic (bit-identical outputs;
//! the *on* path's cost is the `bus_kernels` bench's
//! `metrics_overhead_pct`).
//!
//! [`MetricsReport::to_json`] renders a report through the one
//! [`crate::json::JsonWriter`]; [`crate::json::validate_json`] checks
//! that it parses.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use crate::json::{JsonWriter, Layout};
use psc_sca::checkpoint::{CheckpointError, PayloadReader, PayloadWriter};

/// Number of histogram buckets: bucket 0 holds zero, bucket `i`
/// (1 ≤ i < BUCKETS-1) holds values in `[2^(i-1), 2^i)`, and the last
/// bucket holds everything from `2^(BUCKETS-2)` up.
pub const BUCKETS: usize = 64;

/// The bucket a value lands in (see [`BUCKETS`] for the boundaries).
#[must_use]
pub fn bucket_index(value: u64) -> usize {
    if value == 0 {
        0
    } else {
        (64 - value.leading_zeros() as usize).min(BUCKETS - 1)
    }
}

/// Inclusive lower and exclusive upper bound of bucket `index`
/// (`None` = unbounded top bucket).
///
/// # Panics
///
/// Panics if `index >= BUCKETS`.
#[must_use]
pub fn bucket_bounds(index: usize) -> (u64, Option<u64>) {
    assert!(index < BUCKETS, "bucket index out of range");
    match index {
        0 => (0, Some(1)),
        i if i == BUCKETS - 1 => (1u64 << (BUCKETS - 2), None),
        i => (1u64 << (i - 1), Some(1u64 << i)),
    }
}

/// Monotone atomic counter.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// Add `n` to the count.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Add one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Current count.
    #[must_use]
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// High-water-mark gauge: records the maximum value observed. Merged by
/// max across shards (a fleet's peak occupancy is the max of its
/// members' peaks, not their sum).
#[derive(Debug, Default)]
pub struct Gauge(AtomicU64);

impl Gauge {
    /// Raise the gauge to `value` if it exceeds the current maximum.
    pub fn set_max(&self, value: u64) {
        self.0.fetch_max(value, Ordering::Relaxed);
    }

    /// Current maximum.
    #[must_use]
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Fixed log2-bucket histogram with an exact running sum, sized for
/// nanosecond latencies (the top bucket only engages beyond ~146 years).
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; BUCKETS],
    sum: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self { buckets: std::array::from_fn(|_| AtomicU64::new(0)), sum: AtomicU64::new(0) }
    }
}

impl Histogram {
    /// Record one observation.
    pub fn record(&self, value: u64) {
        self.buckets[bucket_index(value)].fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
    }

    /// Total observations recorded.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.buckets.iter().map(|b| b.load(Ordering::Relaxed)).sum()
    }

    /// Sum of all recorded values.
    #[must_use]
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// The log2-bucket upper-bound estimate of the `p`-quantile
    /// (see [`HistogramSnapshot::percentile`]). `None` when empty.
    #[must_use]
    pub fn percentile(&self, p: f64) -> Option<u64> {
        self.snapshot().percentile(p)
    }

    fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            sum: self.sum(),
            buckets: self
                .buckets
                .iter()
                .enumerate()
                .filter_map(|(i, b)| {
                    let n = b.load(Ordering::Relaxed);
                    (n > 0).then_some((i, n))
                })
                .collect(),
        }
    }
}

/// One registered metric: the shared handle hot paths hold.
#[derive(Debug, Clone)]
pub enum Metric {
    /// A [`Counter`] handle.
    Counter(Arc<Counter>),
    /// A [`Gauge`] handle.
    Gauge(Arc<Gauge>),
    /// A [`Histogram`] handle.
    Histogram(Arc<Histogram>),
}

/// A name → metric map handing out shared atomic handles.
///
/// The lock is touched only at registration ([`MetricsRegistry::counter`]
/// and friends resolve once, up front); updates go straight to the
/// returned [`Arc`]'d atomics. One registry per shard plus
/// [`MetricsSnapshot::merged`] aggregates exactly like the analysis
/// accumulators; a single registry shared across threads produces the
/// same totals (the merge law pinned by the proptests).
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    inner: Mutex<BTreeMap<String, Metric>>,
}

impl MetricsRegistry {
    /// Empty registry.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Get or create the counter `name`.
    ///
    /// # Panics
    ///
    /// Panics if `name` is already registered as a different metric kind.
    #[must_use]
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        let mut inner = self.inner.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        match inner
            .entry(name.to_owned())
            .or_insert_with(|| Metric::Counter(Arc::new(Counter::default())))
        {
            Metric::Counter(c) => Arc::clone(c),
            other => panic!("metric {name:?} already registered as {other:?}, wanted a counter"),
        }
    }

    /// Get or create the gauge `name`.
    ///
    /// # Panics
    ///
    /// Panics if `name` is already registered as a different metric kind.
    #[must_use]
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        let mut inner = self.inner.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        match inner
            .entry(name.to_owned())
            .or_insert_with(|| Metric::Gauge(Arc::new(Gauge::default())))
        {
            Metric::Gauge(g) => Arc::clone(g),
            other => panic!("metric {name:?} already registered as {other:?}, wanted a gauge"),
        }
    }

    /// Get or create the histogram `name`.
    ///
    /// # Panics
    ///
    /// Panics if `name` is already registered as a different metric kind.
    #[must_use]
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        let mut inner = self.inner.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        match inner
            .entry(name.to_owned())
            .or_insert_with(|| Metric::Histogram(Arc::new(Histogram::default())))
        {
            Metric::Histogram(h) => Arc::clone(h),
            other => panic!("metric {name:?} already registered as {other:?}, wanted a histogram"),
        }
    }

    /// A point-in-time copy of every registered metric. Safe to take
    /// while writers are live (each atomic is read once; the snapshot is
    /// internally consistent per metric, which is all the merge laws
    /// need).
    #[must_use]
    pub fn snapshot(&self) -> MetricsSnapshot {
        let inner = self.inner.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        MetricsSnapshot {
            metrics: inner
                .iter()
                .map(|(name, metric)| {
                    let value = match metric {
                        Metric::Counter(c) => MetricValue::Counter(c.get()),
                        Metric::Gauge(g) => MetricValue::Gauge(g.get()),
                        Metric::Histogram(h) => MetricValue::Histogram(h.snapshot()),
                    };
                    (name.clone(), value)
                })
                .collect(),
        }
    }
}

/// Frozen histogram state: total sum plus the non-empty buckets as
/// `(bucket index, count)` pairs in index order.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Sum of all recorded values.
    pub sum: u64,
    /// Non-empty `(bucket index, count)` pairs, ascending by index.
    pub buckets: Vec<(usize, u64)>,
}

impl HistogramSnapshot {
    /// Total observations.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.buckets.iter().map(|&(_, n)| n).sum()
    }

    /// Mean recorded value (0 when empty).
    #[must_use]
    pub fn mean(&self) -> f64 {
        let count = self.count();
        if count == 0 {
            0.0
        } else {
            self.sum as f64 / count as f64
        }
    }

    /// The log2-bucket upper-bound estimate of the `p`-quantile: the
    /// largest value the bucket holding the `ceil(p · count)`-th smallest
    /// observation can contain (bucket 0 → `0`, bounded buckets →
    /// `hi - 1`, the unbounded top bucket → `u64::MAX`). `p` is clamped
    /// to `[0, 1]`; `None` when the histogram is empty. An upper bound —
    /// never optimistic — which is the right polarity for a saturation
    /// signal like p99 dispatch latency.
    #[must_use]
    pub fn percentile(&self, p: f64) -> Option<u64> {
        let count = self.count();
        if count == 0 {
            return None;
        }
        let rank = ((p * count as f64).ceil() as u64).clamp(1, count);
        let mut seen = 0u64;
        for &(index, n) in &self.buckets {
            seen = seen.saturating_add(n);
            if seen >= rank {
                return Some(match bucket_bounds(index) {
                    (_, Some(hi)) => hi - 1,
                    (_, None) => u64::MAX,
                });
            }
        }
        unreachable!("cumulative bucket count reaches the total count")
    }

    /// Bucket-wise sum — the histogram merge law. Sums wrap on overflow,
    /// matching the relaxed `fetch_add` the live histogram uses.
    #[must_use]
    pub fn merged(self, other: Self) -> Self {
        let mut buckets: BTreeMap<usize, u64> = self.buckets.into_iter().collect();
        for (i, n) in other.buckets {
            let slot = buckets.entry(i).or_default();
            *slot = slot.wrapping_add(n);
        }
        Self { sum: self.sum.wrapping_add(other.sum), buckets: buckets.into_iter().collect() }
    }
}

/// Frozen value of one metric.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MetricValue {
    /// Counter total.
    Counter(u64),
    /// Gauge maximum.
    Gauge(u64),
    /// Histogram state.
    Histogram(HistogramSnapshot),
}

impl MetricValue {
    fn merged(self, other: Self) -> Self {
        match (self, other) {
            (MetricValue::Counter(a), MetricValue::Counter(b)) => {
                MetricValue::Counter(a.wrapping_add(b))
            }
            (MetricValue::Gauge(a), MetricValue::Gauge(b)) => MetricValue::Gauge(a.max(b)),
            (MetricValue::Histogram(a), MetricValue::Histogram(b)) => {
                MetricValue::Histogram(a.merged(b))
            }
            (a, b) => panic!("metric kind mismatch in merge: {a:?} vs {b:?}"),
        }
    }
}

/// A point-in-time copy of a registry, mergeable across shards.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MetricsSnapshot {
    /// Metric values by name.
    pub metrics: BTreeMap<String, MetricValue>,
}

impl MetricsSnapshot {
    /// The merge law, mirroring the analysis accumulators: counters add,
    /// gauges max, histograms add bucket-wise; names union.
    ///
    /// # Panics
    ///
    /// Panics if the same name holds different metric kinds in the two
    /// snapshots (a schema error, like merging CPA state under different
    /// models).
    #[must_use]
    pub fn merged(mut self, other: Self) -> Self {
        for (name, value) in other.metrics {
            match self.metrics.remove(&name) {
                None => {
                    self.metrics.insert(name, value);
                }
                Some(mine) => {
                    self.metrics.insert(name, mine.merged(value));
                }
            }
        }
        self
    }

    /// Counter total under `name` (0 when absent or not a counter).
    #[must_use]
    pub fn counter(&self, name: &str) -> u64 {
        match self.metrics.get(name) {
            Some(MetricValue::Counter(n)) => *n,
            _ => 0,
        }
    }

    /// Gauge maximum under `name` (0 when absent or not a gauge).
    #[must_use]
    pub fn gauge(&self, name: &str) -> u64 {
        match self.metrics.get(name) {
            Some(MetricValue::Gauge(n)) => *n,
            _ => 0,
        }
    }

    /// Histogram state under `name`, if present.
    #[must_use]
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        match self.metrics.get(name) {
            Some(MetricValue::Histogram(h)) => Some(h),
            _ => None,
        }
    }

    /// Append this snapshot to a codec-v3 payload: metric count, then per
    /// metric a name string, a kind byte (0 counter / 1 gauge /
    /// 2 histogram) and the kind's state. [`Self::decode`] inverts it
    /// bit-exactly; the pair is what the `psc serve` wire protocol and
    /// the distributed-aggregation framing ship between processes.
    pub fn encode(&self, w: &mut PayloadWriter) {
        w.put_u32(self.metrics.len() as u32);
        for (name, value) in &self.metrics {
            w.put_str(name);
            match value {
                MetricValue::Counter(n) => {
                    w.put_u8(0);
                    w.put_u64(*n);
                }
                MetricValue::Gauge(n) => {
                    w.put_u8(1);
                    w.put_u64(*n);
                }
                MetricValue::Histogram(h) => {
                    w.put_u8(2);
                    w.put_u64(h.sum);
                    w.put_u16(h.buckets.len() as u16);
                    for &(index, count) in &h.buckets {
                        w.put_u8(index as u8);
                        w.put_u64(count);
                    }
                }
            }
        }
    }

    /// Decode a snapshot previously written by [`Self::encode`].
    ///
    /// # Errors
    ///
    /// [`CheckpointError::Truncated`] when the payload ends early and
    /// [`CheckpointError::Corrupt`] on unknown kind bytes, out-of-range
    /// or non-ascending histogram bucket indices, or duplicate names —
    /// the same panic-free strictness as the checkpoint sections.
    pub fn decode(r: &mut PayloadReader<'_>) -> Result<Self, CheckpointError> {
        let count = r.get_u32()?;
        let mut metrics = BTreeMap::new();
        for _ in 0..count {
            let name = r.get_str()?;
            let value = match r.get_u8()? {
                0 => MetricValue::Counter(r.get_u64()?),
                1 => MetricValue::Gauge(r.get_u64()?),
                2 => {
                    let sum = r.get_u64()?;
                    let buckets = r.get_u16()?;
                    let mut pairs = Vec::with_capacity(buckets as usize);
                    for _ in 0..buckets {
                        let index = r.get_u8()? as usize;
                        let n = r.get_u64()?;
                        if index >= BUCKETS {
                            return Err(CheckpointError::Corrupt("histogram bucket out of range"));
                        }
                        if pairs.last().is_some_and(|&(prev, _)| prev >= index) {
                            return Err(CheckpointError::Corrupt(
                                "histogram buckets not ascending",
                            ));
                        }
                        pairs.push((index, n));
                    }
                    MetricValue::Histogram(HistogramSnapshot { sum, buckets: pairs })
                }
                _ => return Err(CheckpointError::Corrupt("unknown metric kind")),
            };
            if metrics.insert(name, value).is_some() {
                return Err(CheckpointError::Corrupt("duplicate metric name"));
            }
        }
        Ok(Self { metrics })
    }
}

/// A live aggregation point for the registries of many concurrent
/// campaigns: each running job attaches its per-shard registries, and
/// [`MetricsHub::merged`] folds every attached registry's snapshot with
/// the same proptested merge law the per-shard snapshots use. The
/// `psc serve` admission controller reads this to decide whether the
/// substrate is saturated; detaching is automatic when the returned
/// [`HubAttachment`] guard drops (job completion, cancellation, or a
/// worker panic unwinding).
#[derive(Debug, Default)]
pub struct MetricsHub {
    attached: Mutex<BTreeMap<u64, Vec<Arc<MetricsRegistry>>>>,
    next_id: AtomicU64,
}

impl MetricsHub {
    /// Empty hub.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Attach a job's registries; they contribute to [`Self::merged`]
    /// until the guard drops.
    #[must_use]
    pub fn attach(self: &Arc<Self>, registries: Vec<Arc<MetricsRegistry>>) -> HubAttachment {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        self.attached
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .insert(id, registries);
        HubAttachment { hub: Arc::clone(self), id }
    }

    /// Number of currently attached jobs.
    #[must_use]
    pub fn attached_jobs(&self) -> usize {
        self.attached.lock().unwrap_or_else(std::sync::PoisonError::into_inner).len()
    }

    /// Snapshot every attached registry and fold with
    /// [`MetricsSnapshot::merged`] — exactly the totals one shared
    /// registry across all jobs and shards would have produced.
    #[must_use]
    pub fn merged(&self) -> MetricsSnapshot {
        let attached = self.attached.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        attached
            .values()
            .flatten()
            .map(|registry| registry.snapshot())
            .fold(MetricsSnapshot::default(), MetricsSnapshot::merged)
    }
}

/// Guard returned by [`MetricsHub::attach`]; dropping it detaches the
/// job's registries from the hub.
#[derive(Debug)]
pub struct HubAttachment {
    hub: Arc<MetricsHub>,
    id: u64,
}

impl Drop for HubAttachment {
    fn drop(&mut self) {
        self.hub
            .attached
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .remove(&self.id);
    }
}

/// The canonical metric names the campaign pipeline records, shared by
/// the session driver, the progress line, benches and tests.
pub mod names {
    /// Blocks shipped over the shard buses (counter).
    pub const BUS_BLOCKS: &str = "bus.blocks";
    /// Observations shipped over the shard buses (counter).
    pub const BUS_OBS: &str = "bus.observations";
    /// Blocks shed by the bus overflow policy (counter).
    pub const BUS_DROPPED: &str = "bus.dropped_blocks";
    /// Peak bus occupancy across shards, in blocks (gauge).
    pub const BUS_HIGH_WATER: &str = "bus.high_water_blocks";
    /// Recycled blocks reused by producers (counter).
    pub const RECYCLE_HITS: &str = "recycle.hits";
    /// Producer block requests that had to allocate fresh (counter).
    pub const RECYCLE_MISSES: &str = "recycle.misses";
    /// Blocks shed by the recycle lane's `DropNewest` policy (counter).
    pub const RECYCLE_DROPPED: &str = "recycle.dropped_blocks";
    /// Source time to fill one block, nanoseconds (histogram).
    pub const SOURCE_FILL_NS: &str = "source.fill_ns";
    /// Schedule units produced: trace rounds for adaptive campaigns —
    /// the rounds-to-stop metric — traces or traces-per-class otherwise
    /// (counter).
    pub const SOURCE_UNITS: &str = "source.units";
    /// Consumer `Processor::on_block` dispatch time per block,
    /// nanoseconds (histogram).
    pub const CONSUME_BLOCK_NS: &str = "consume.on_block_ns";
    /// Denied SMC reads observed by the cadence monitor (counter).
    pub const DENIED_READS: &str = "sched.denied_reads";
    /// Recorder shard-write failures (counter). Incremented only after
    /// the write's retry budget is exhausted — the batch is lost.
    pub const RECORDER_IO_ERRORS: &str = "recorder.io_errors";
    /// Recorder batch writes retried after a transient failure
    /// (counter). Nonzero retries with zero `recorder.io_errors` means
    /// every fault recovered and no traces were lost.
    pub const RECORDER_IO_RETRIES: &str = "recorder.io_retries";
    /// Traces persisted by the shard recorders (counter).
    pub const RECORDER_TRACES: &str = "recorder.traces";
}

/// The observability summary embedded in campaign reports: the merged
/// per-shard snapshot plus campaign wall time, with derived rates.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricsReport {
    /// Campaign wall time, seconds.
    pub wall_s: f64,
    /// Worker count the campaign ran with.
    pub shards: usize,
    /// SIMD backend the analysis kernels dispatched to ("avx2", "neon",
    /// or "scalar" — see `pulp::backend_name`).
    pub simd_backend: &'static str,
    /// Rows per emitted block the campaign ran with (the tuned
    /// `OBS_CHUNK`; 0 when the producer was not block-based).
    pub obs_chunk: usize,
    /// Bus depth in blocks the campaign ran with (the tuned capacity).
    pub bus_capacity: usize,
    /// Merged per-shard metric snapshot.
    pub snapshot: MetricsSnapshot,
}

impl MetricsReport {
    /// Total observations shipped over the buses.
    #[must_use]
    pub fn observations(&self) -> u64 {
        self.snapshot.counter(names::BUS_OBS)
    }

    /// Observations per wall-clock second.
    #[must_use]
    pub fn obs_per_s(&self) -> f64 {
        if self.wall_s > 0.0 {
            self.observations() as f64 / self.wall_s
        } else {
            0.0
        }
    }

    /// Blocks per wall-clock second.
    #[must_use]
    pub fn blocks_per_s(&self) -> f64 {
        if self.wall_s > 0.0 {
            self.snapshot.counter(names::BUS_BLOCKS) as f64 / self.wall_s
        } else {
            0.0
        }
    }

    /// Fraction of blocks shed by the bus overflow policy (0.0 under
    /// `Block` backpressure).
    #[must_use]
    pub fn drop_rate(&self) -> f64 {
        let shipped = self.snapshot.counter(names::BUS_BLOCKS);
        let dropped = self.snapshot.counter(names::BUS_DROPPED);
        if shipped + dropped == 0 {
            0.0
        } else {
            dropped as f64 / (shipped + dropped) as f64
        }
    }

    /// Serialize the report as a JSON object: wall time, shard count,
    /// derived rates, and every metric (histograms as non-empty
    /// `[lo, hi, count]` bucket triples plus count/sum/mean).
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut metrics = JsonWriter::object(Layout::Lines(1));
        for (name, value) in &self.snapshot.metrics {
            let mut metric = JsonWriter::object(Layout::Inline);
            match value {
                MetricValue::Counter(n) => metric.string("type", "counter").field("value", n),
                MetricValue::Gauge(n) => metric.string("type", "gauge").field("value", n),
                MetricValue::Histogram(h) => {
                    let mut buckets = JsonWriter::array(Layout::Inline);
                    for &(bucket, count) in &h.buckets {
                        let (lo, hi) = bucket_bounds(bucket);
                        let hi = hi.map_or_else(|| "null".to_owned(), |h| h.to_string());
                        let mut triple = JsonWriter::array(Layout::Inline);
                        triple.item(lo).item(hi).item(count);
                        buckets.item(triple.finish());
                    }
                    metric
                        .string("type", "histogram")
                        .field("count", h.count())
                        .field("sum", h.sum)
                        .field("mean", format_args!("{:.3}", h.mean()))
                        .field("buckets", buckets.finish())
                }
            };
            metrics.field(name, metric.finish());
        }
        let mut out = JsonWriter::object(Layout::Lines(0));
        out.field("wall_s", format_args!("{:.6}", self.wall_s))
            .field("shards", self.shards)
            .string("simd_backend", self.simd_backend)
            .field("obs_chunk", self.obs_chunk)
            .field("bus_capacity", self.bus_capacity)
            .field("observations", self.observations())
            .field("obs_per_s", format_args!("{:.3}", self.obs_per_s()))
            .field("blocks_per_s", format_args!("{:.3}", self.blocks_per_s()))
            .field("drop_rate", format_args!("{:.6}", self.drop_rate()))
            .field("metrics", metrics.finish());
        out.finish() + "\n"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::validate_json;

    #[test]
    fn bucket_boundaries_are_powers_of_two() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(1023), 10);
        assert_eq!(bucket_index(1024), 11);
        assert_eq!(bucket_index(u64::MAX), BUCKETS - 1);
        for i in 0..BUCKETS {
            let (lo, hi) = bucket_bounds(i);
            assert_eq!(bucket_index(lo), i, "lower bound lands in its bucket");
            if let Some(hi) = hi {
                assert_eq!(bucket_index(hi - 1), i, "last value below hi lands in bucket {i}");
                assert_eq!(bucket_index(hi), i + 1, "hi itself belongs to the next bucket");
            }
        }
    }

    #[test]
    fn registry_hands_out_shared_handles() {
        let registry = MetricsRegistry::new();
        let a = registry.counter("x");
        let b = registry.counter("x");
        a.add(3);
        b.inc();
        assert_eq!(registry.snapshot().counter("x"), 4);
        let g = registry.gauge("peak");
        g.set_max(7);
        g.set_max(5);
        assert_eq!(registry.snapshot().gauge("peak"), 7);
    }

    #[test]
    #[should_panic(expected = "already registered")]
    fn kind_mismatch_panics() {
        let registry = MetricsRegistry::new();
        let _c = registry.counter("x");
        let _g = registry.gauge("x");
    }

    #[test]
    fn snapshot_merge_mirrors_accumulator_laws() {
        let a = MetricsRegistry::new();
        let b = MetricsRegistry::new();
        a.counter("n").add(10);
        b.counter("n").add(32);
        a.gauge("peak").set_max(4);
        b.gauge("peak").set_max(9);
        a.histogram("lat").record(100);
        b.histogram("lat").record(100_000);
        b.counter("only_b").inc();
        let merged = a.snapshot().merged(b.snapshot());
        assert_eq!(merged.counter("n"), 42);
        assert_eq!(merged.gauge("peak"), 9);
        assert_eq!(merged.counter("only_b"), 1);
        let h = merged.histogram("lat").expect("merged histogram");
        assert_eq!(h.count(), 2);
        assert_eq!(h.sum, 100_100);
    }

    #[test]
    fn report_json_is_valid_and_has_rates() {
        let registry = MetricsRegistry::new();
        registry.counter(names::BUS_OBS).add(600);
        registry.counter(names::BUS_BLOCKS).add(20);
        registry.gauge(names::BUS_HIGH_WATER).set_max(3);
        let h = registry.histogram(names::CONSUME_BLOCK_NS);
        h.record(1500);
        h.record(90_000);
        let report = MetricsReport {
            wall_s: 2.0,
            shards: 2,
            simd_backend: pulp::backend_name(),
            obs_chunk: 32,
            bus_capacity: 128,
            snapshot: registry.snapshot(),
        };
        assert!((report.obs_per_s() - 300.0).abs() < 1e-12);
        assert!((report.blocks_per_s() - 10.0).abs() < 1e-12);
        assert!(report.drop_rate().abs() < 1e-12);
        let json = report.to_json();
        validate_json(&json).expect("report JSON must parse");
        assert!(json.contains("\"bus.observations\""));
        assert!(json.contains("\"type\": \"histogram\""));
        assert!(json.contains("\"simd_backend\""));
        assert!(json.contains("\"obs_chunk\": 32"));
    }

    #[test]
    fn percentile_returns_bucket_upper_bounds() {
        let h = Histogram::default();
        assert_eq!(h.percentile(0.99), None, "empty histogram has no quantiles");
        h.record(0);
        assert_eq!(h.percentile(0.5), Some(0), "bucket 0 tops out at zero");
        for v in [5, 6, 7] {
            h.record(v); // bucket [4, 8) → upper-bound estimate 7
        }
        h.record(1000); // bucket [512, 1024) → 1023
                        // 5 observations: ranks 1..=5 are [0, 7, 7, 7, 1023].
        assert_eq!(h.percentile(0.0), Some(0), "p=0 clamps to the first observation");
        assert_eq!(h.percentile(0.2), Some(0));
        assert_eq!(h.percentile(0.5), Some(7));
        assert_eq!(h.percentile(0.8), Some(7));
        assert_eq!(h.percentile(0.81), Some(1023));
        assert_eq!(h.percentile(1.0), Some(1023));
        assert_eq!(h.percentile(2.0), Some(1023), "p clamps to [0, 1]");
        h.record(u64::MAX);
        assert_eq!(h.percentile(1.0), Some(u64::MAX), "top bucket is unbounded");
    }

    #[test]
    fn snapshot_codec_round_trips_and_rejects_corruption() {
        let registry = MetricsRegistry::new();
        registry.counter("bus.blocks").add(42);
        registry.gauge("bus.high_water_blocks").set_max(7);
        let h = registry.histogram("consume.on_block_ns");
        h.record(0);
        h.record(1500);
        h.record(u64::MAX);
        let snapshot = registry.snapshot();
        let mut w = PayloadWriter::new();
        snapshot.encode(&mut w);
        let payload = w.into_payload();
        let mut r = PayloadReader::new(&payload);
        let back = MetricsSnapshot::decode(&mut r).expect("round trip");
        r.finish().expect("no trailing bytes");
        assert_eq!(back, snapshot);
        // Truncation at every offset errs, never panics.
        for cut in 0..payload.len() {
            assert!(MetricsSnapshot::decode(&mut PayloadReader::new(&payload[..cut])).is_err());
        }
        // Unknown kind byte → Corrupt.
        let mut w = PayloadWriter::new();
        w.put_u32(1);
        w.put_str("x");
        w.put_u8(9);
        let bad = w.into_payload();
        assert!(matches!(
            MetricsSnapshot::decode(&mut PayloadReader::new(&bad)),
            Err(CheckpointError::Corrupt(_))
        ));
        // Histogram bucket index past BUCKETS → Corrupt.
        let mut w = PayloadWriter::new();
        w.put_u32(1);
        w.put_str("h");
        w.put_u8(2);
        w.put_u64(0);
        w.put_u16(1);
        w.put_u8(BUCKETS as u8);
        w.put_u64(1);
        let bad = w.into_payload();
        assert!(matches!(
            MetricsSnapshot::decode(&mut PayloadReader::new(&bad)),
            Err(CheckpointError::Corrupt(_))
        ));
    }

    #[test]
    fn hub_merges_attached_jobs_and_detaches_on_drop() {
        let hub = Arc::new(MetricsHub::new());
        let a = Arc::new(MetricsRegistry::new());
        let b = Arc::new(MetricsRegistry::new());
        a.counter("n").add(10);
        b.counter("n").add(32);
        a.gauge("peak").set_max(4);
        b.gauge("peak").set_max(9);
        let guard_a = hub.attach(vec![Arc::clone(&a)]);
        let guard_b = hub.attach(vec![Arc::clone(&b)]);
        assert_eq!(hub.attached_jobs(), 2);
        let merged = hub.merged();
        assert_eq!(merged.counter("n"), 42);
        assert_eq!(merged.gauge("peak"), 9);
        drop(guard_b);
        assert_eq!(hub.attached_jobs(), 1);
        assert_eq!(hub.merged().counter("n"), 10);
        drop(guard_a);
        assert_eq!(hub.merged(), MetricsSnapshot::default());
    }
}
