//! # psc-serve — the multi-tenant campaign service
//!
//! `psc serve` turns the campaign driver into a long-running daemon: it
//! accepts campaign specs over a local TCP socket (`127.0.0.1` only —
//! the substrate is simulated and the workflow air-gap friendly, so
//! the wire format is std-only and never leaves the loopback), runs
//! them concurrently over a bounded worker pool, and streams
//! incremental metrics and the final TVLA/CPA/adaptive report back to
//! the submitting client.
//!
//! The load-bearing property is **determinism across the socket**: a
//! report streamed out of the service is byte-identical to the same
//! spec run inline with `psc campaign`, because both front ends share
//! one spec parser ([`psc_core::spec::CampaignSpec`]) and one renderer
//! ([`psc_core::report`]), and the wall-clock metrics line is never
//! part of the report body.
//!
//! ## Service protocol
//!
//! ### Frame grammar
//!
//! Every message in either direction is one codec-v3 frame — the same
//! CRC-checked container the campaign checkpoints use
//! ([`psc_sca::checkpoint`]) — behind a little-endian `u32` length
//! prefix:
//!
//! ```text
//! wire     := len:u32le frame            len <= proto::MAX_FRAME_LEN
//! frame    := "PSCT" version:u16=3 count:u16 section* crc32:u32
//! section  := tag:u16 len:u32 payload
//! ```
//!
//! The `crc32` trailer covers the whole frame before it.
//!
//! The message is the first section whose tag the receiver knows
//! (requests `1..=5`: `Submit`, `Status`, `Cancel`, `Drain`, `Watch`;
//! responses `16..=22`: `Accepted`, `Rejected`, `Progress`, `Report`,
//! `JobList`, `CancelOutcome`, `Drained`; fleet worker messages
//! `32..=35` and aggregator replies `48..=50`, see [`fleet`]); unknown
//! tags are skipped, so peers can gain sections without breaking older
//! builds. Corruption handling is inherited from the checkpoint codec
//! and pinned by the same kind of proptests: any truncation, any bit
//! flip and any oversized length prefix is a typed error, never a
//! misparse.
//!
//! ### Admission semantics
//!
//! `Submit` passes the [`admission::AdmissionController`] before it
//! gets a queue slot. The controller reads the pool's FIFO backlog,
//! the per-tenant queued-or-running count, the live merge of every
//! running job's per-shard [`psc_telemetry::metrics::MetricsSnapshot`]
//! (bus drop rate), and the p99 of the dispatch-wait histogram. A
//! tripped signal sheds the job with a **typed** refusal —
//! [`proto::RejectReason::Saturated`] or
//! [`proto::RejectReason::TenantBusy`] — the connection is answered,
//! never hung up on. Admitted jobs are `Accepted{job_id}`. A waiting
//! client then receives one `Progress` frame (a merged metrics
//! snapshot) per progress interval while its job is in flight, and the
//! final frame (`Report`, or `Rejected` for a failed or cancelled job)
//! as soon as the job settles, not on the next progress tick.
//!
//! ### Job retention
//!
//! The server's job table keeps every queued and running job but only
//! the [`server::FINISHED_JOBS_RETAINED`] most recently finished ones;
//! older finished jobs are evicted in completion order, never while a
//! wait or `Watch` stream is still attached. `Status` lists what is
//! retained, `Watch` re-streams the final frame of a retained finished
//! job and refuses an evicted one like an unknown id, and the server's
//! counters (and `Drained{completed}`) keep counting every job.
//!
//! ### Drain / shutdown lifecycle
//!
//! `Drain` flips the server into a terminal mode: new submissions are
//! refused with `Rejected{Draining}`, everything still queued is
//! rejected (counted in the `Drained` reply), and running jobs get
//! their cooperative stop flag set so they wind down at the next block
//! boundary — checkpointing through the ordinary
//! [`psc_core::session::Campaign::checkpoint_to`] machinery when the
//! server was started with a spool directory, so `psc resume` can
//! finish them later. Once the table is quiet the pool is joined, the
//! client gets `Drained{completed, rejected}`, and the accept loop
//! exits.
//!
//! ## Distributed operation & failure semantics
//!
//! The [`fleet`] module runs one fleet campaign across *processes*:
//! `psc worker` executes a single member's shard and `psc aggregate`
//! merges the member states with the same proptested snapshot-merge
//! folds the in-process [`psc_core::source::Fleet`] driver uses, so a
//! fault-free distributed run is **byte-identical** to the
//! single-process fleet run of the same spec.
//!
//! * **Partial-frame grammar** — workers periodically ship their
//!   latest per-shard checkpoint frame (the codec-v3 `shard-000.ckpt`
//!   snapshot, verbatim) inside [`fleet::WorkerMsg::Partial`], over
//!   the same length-prefixed wire as the service protocol. Partials
//!   are *cumulative* snapshots, so retaining only the newest is
//!   lossless.
//! * **Epoch/sequence dedup rule** — every worker send carries a
//!   strictly increasing `(epoch, seq)` stamp; the epoch bumps per
//!   reconnect, the sequence per send. The aggregator's
//!   [`fleet::DedupGate`] admits a stamp iff it is lexicographically
//!   greater than the member's last admitted stamp, which makes
//!   at-least-once delivery and reconnect re-sends merge exactly once
//!   (pinned by proptests over arbitrary duplicate/reorder schedules).
//! * **Heartbeat deadlines** — workers heartbeat on an interval;
//!   the aggregator demotes members that miss the heartbeat deadline,
//!   never connect within the join window, or straggle past the
//!   straggler timeout after the first member finishes
//!   ([`fleet::AggregatorConfig`]).
//! * **Degradation semantics** — demoted members land on the final
//!   report as [`psc_core::session::ShardHealth::Failed`] with the
//!   demotion reason; members that completed but needed transport
//!   reconnects surface as `Degraded`. Survivors merge to exactly the
//!   fault-free run restricted to the same members, and the aggregator
//!   never panics on corrupt, duplicate or stale frames — each is a
//!   counted, typed refusal.
//! * **Transport fault injection** — the whole matrix (frame drop,
//!   frame delay, disconnect, bit corruption) is deterministically
//!   injectable on the worker send path through
//!   [`psc_telemetry::faults::FaultPlan`]'s transport budgets, and
//!   reconnects run under the same jittered
//!   [`psc_telemetry::faults::RetryPolicy`] the campaign recorder
//!   uses.
//!
//! ## Crate layout
//!
//! * [`proto`] — frame grammar, request/response types, socket I/O;
//! * [`spec` (in psc-core)](psc_core::spec) — the shared campaign.cfg
//!   parser;
//! * [`pool`] — the bounded FIFO worker pool;
//! * [`admission`] — saturation signals and the admission decision;
//! * [`server`] — accept loop, job table, drain lifecycle;
//! * [`client`] — the blocking client the CLI subcommands use;
//! * [`fleet`] — distributed fleet workers and the aggregator.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod admission;
pub mod client;
pub mod fleet;
pub mod pool;
pub mod proto;
pub mod server;

pub use admission::{AdmissionConfig, AdmissionController};
pub use client::{submit_and_wait, submit_and_wait_with_retry, Client};
pub use fleet::{
    Aggregator, AggregatorConfig, DedupGate, FleetError, FleetOutcome, MemberOutcome, WorkerConfig,
};
pub use proto::{ProtoError, RejectReason, Request, Response};
pub use server::{Server, ServerConfig, DEFAULT_ADDR, MAX_WORKERS};
