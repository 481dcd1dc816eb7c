//! # psc-telemetry — streaming event-bus telemetry
//!
//! The paper's attacks (§3.4) are fundamentally *streaming*: an
//! unprivileged process polls SMC / IOReport channels in a loop and
//! accumulates statistics over tens of thousands of measurement windows.
//! This crate turns trace collection from "fill `Vec`s, analyze later"
//! into a publish/subscribe pipeline:
//!
//! * [`event`] — the record types of one observation row: [`WindowEvent`]
//!   (plaintext/ciphertext and TVLA labels), [`SchedEvent`] (cadence
//!   metadata: windows consumed, denied reads) and the [`ChannelId`] of
//!   each sample column;
//! * [`block`] — columnar [`EventBlock`]s: whole observations as
//!   struct-of-arrays (window records, one `Option<f64>` sample column
//!   per channel, sched records), the bus's one unit of traffic — one
//!   ring synchronization and one dispatch per *block*;
//! * [`ring`] — bounded ring buffers and the blocking MPSC channel built
//!   on them, with explicit [`OverflowPolicy`] and
//!   exact drop accounting;
//! * [`processor`] — the [`Processor`] trait: `name`, `on_block` and
//!   `on_finish`;
//! * [`processors`] — streaming consumers with **O(1) memory in trace
//!   count**: online TVLA (Welford accumulators →
//!   the same 3×3 `TvlaMatrix` as the batch path), incremental CPA
//!   (running per-guess/byte sums), a shard-persisting trace recorder
//!   over `psc_sca::codec`, and a throttling/cadence monitor;
//! * [`replay`] — replay sources: recorded `.psct` campaigns merged back
//!   into block rows for the same processors;
//! * [`campaign`] — work splitting and the scoped thread fan-out that
//!   `psc_core`'s session driver uses to shard collection across workers
//!   and sum-merge the accumulator shards;
//! * [`metrics`] / [`spans`] — the observability layer (see below);
//! * [`json`] — the one JSON writer every emitted artifact goes
//!   through, and the validator that checks it.
//!
//! ## One ingest path
//!
//! Every producer — the live rig, recorded-shard replay, the benchmark —
//! batches observations into [`EventBlock`] rows and sends those over
//! the bus, and [`Processor::on_block`] is the only way data enters a
//! processor. A processor resolves its per-channel state once per
//! column, then updates its accumulators in a tight loop over the column
//! slice (see [`StreamingTvla`], [`StreamingCpa`] and [`ShardRecorder`]
//! for the pattern). Its state must not depend on how the stream is cut
//! into blocks: the workspace `tests/block_equivalence.rs` suite checks
//! the processors against a per-row scalar oracle built on the
//! `psc_sca` primitives, and this crate's `golden_processors` test pins
//! every processor's checkpoint bytes. The cadence monitor
//! ([`ThrottleMonitor`]) keeps its own poll clock, advanced by the rows'
//! simulated timestamps and checkpointed with its state, so its grid
//! never shifts with block size or across a resume.
//!
//! ## Observability
//!
//! The pipeline's internal state — bus occupancy and drops by
//! [`OverflowPolicy`], recycle-lane hit/miss, per-block dispatch and
//! source-fill latency, denied reads, recorder I/O errors, adaptive
//! rounds-to-stop — is surfaced through two opt-in, zero-cost-when-off
//! facilities:
//!
//! * [`metrics`] — atomic [`Counter`]s, high-water [`Gauge`]s and fixed
//!   log2-bucket [`Histogram`]s behind a [`MetricsRegistry`]. The driver
//!   runs **one registry per shard** and merges the per-shard
//!   [`MetricsSnapshot`]s at the end — counters add, gauges max,
//!   histograms add bucket-wise — exactly mirroring how
//!   `TvlaAccumulator::merged` / `Cpa::merge` combine analysis shards,
//!   so fleet members aggregate metrics the same way they aggregate
//!   statistics (the law is pinned by proptests). The merged snapshot
//!   plus wall time form the [`MetricsReport`] embedded in campaign
//!   reports; canonical metric names live in [`metrics::names`].
//! * [`spans`] — a [`SpanTracer`] collecting campaign→shard→stage spans
//!   and emitting them as Chrome trace-event JSON
//!   ([`SpanTracer::to_chrome_json`]), loadable in Perfetto for a
//!   flame-chart view of producer/consumer overlap.
//!
//! Instrumentation points in the driver are gated behind `Option`
//! handles: with observability off, no registry or tracer is allocated,
//! no clock is read, and the pipeline's analysis output stays
//! bit-identical (metrics only observe — they never steer), with the
//! overhead of the *on* path measured by the `bus_kernels` bench
//! (`metrics_overhead_pct` in its bench-history line). The
//! workspace is air-gapped, so reports and traces are emitted through
//! the one [`json::JsonWriter`] and checked with the minimal
//! [`json::validate_json`] parser.
//!
//! ## Example
//!
//! ```
//! use psc_telemetry::block::EventBlock;
//! use psc_telemetry::event::{ChannelId, SchedEvent, WindowEvent};
//! use psc_telemetry::processor::Processor;
//! use psc_telemetry::processors::StreamingTvla;
//! use psc_sca::tvla::PlaintextClass;
//!
//! // One columnar block per (pass, class) segment: a window record and a
//! // PCPU sample per observation row.
//! let mut tvla = StreamingTvla::new();
//! let mut block = EventBlock::new();
//! for pass in 0..2u8 {
//!     for class in PlaintextClass::ALL {
//!         block.reset(&[ChannelId::Pcpu]);
//!         for i in 0..100u64 {
//!             let time_s = i as f64;
//!             block.begin(WindowEvent {
//!                 seq: i, time_s, pass, class: Some(class),
//!                 plaintext: [0; 16], ciphertext: [0; 16],
//!             });
//!             block.sample(0, 1.0 + (i % 7) as f64 * 0.01);
//!             block.commit(SchedEvent {
//!                 time_s, windows_consumed: 1, window_s: 1.0, denied_reads: 0,
//!             });
//!         }
//!         tvla.on_block(&block);
//!     }
//! }
//! tvla.on_finish();
//! let matrix = tvla.matrix(ChannelId::Pcpu, "PCPU").unwrap();
//! assert_eq!(matrix.cells.len(), 9);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod block;
pub mod campaign;
pub mod event;
pub mod faults;
pub mod json;
pub mod metrics;
pub mod processor;
pub mod processors;
pub mod replay;
pub mod ring;
pub mod spans;

pub use block::EventBlock;
pub use campaign::{panic_message, run_sharded, run_sharded_caught, split_counts};
pub use event::{ChannelId, SchedEvent, WindowEvent};
pub use faults::{FaultPlan, FaultState, RetryPolicy};
pub use metrics::{Counter, Gauge, Histogram, MetricsRegistry, MetricsReport, MetricsSnapshot};
pub use processor::Processor;
pub use processors::{
    CpaGrid, SecondOrderTvla, ShardRecorder, StreamingCpa, StreamingTvla, ThrottleMonitor,
};
pub use replay::channel_for_label;
pub use ring::{channel, ChannelStats, OverflowPolicy, Receiver, RingBuffer, Sender};
pub use spans::{SpanRecord, SpanTracer};
