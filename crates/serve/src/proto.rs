//! The `psc serve` wire protocol.
//!
//! Every message is one codec-v3 frame (the checkpoint codec from
//! [`psc_sca::checkpoint`]: magic, version, tagged sections, one CRC
//! trailer)
//! carried over the socket behind a little-endian `u32` length prefix.
//! Reusing the checkpoint codec means the service inherits its
//! corruption posture for free: a truncated, bit-flipped or oversized
//! frame is rejected with a typed error, never misparsed.
//!
//! ## Frame grammar
//!
//! ```text
//! wire     := len:u32le frame        (len <= MAX_FRAME_LEN)
//! frame    := "PSCT" version:u16=3 count:u16 section* crc32:u32
//! section  := tag:u16 len:u32 payload
//! ```
//!
//! The one `crc32` trailer covers every byte of the frame before it.
//!
//! A message is the **first section whose tag this build knows**;
//! unknown tags are skipped, so a newer peer may append sections
//! without breaking an older one (forward compatibility, pinned by the
//! protocol proptests). Request tags live in `1..=5`, response tags in
//! `16..=22`; the distributed-fleet messages (see [`crate::fleet`])
//! use worker tags `32..=35` and aggregator tags `48..=50`.

use psc_core::spec::AnalysisMode;
use psc_sca::checkpoint::{
    decode_frame, encode_frame, get_blob, get_blob_str, put_blob, CheckpointError, PayloadReader,
    PayloadWriter, Section,
};
use psc_telemetry::metrics::MetricsSnapshot;
use std::io::{Read, Write};

/// Hard cap on a framed message, enforced on both send and receive.
/// Reports carry encoded analysis state, the largest payload: a CPA
/// state is ~64 KiB per SMC key (16 key bytes x 256 bins of count and
/// sum), 262 349 B for the M2's four keys. 4 MiB leaves headroom without
/// letting a corrupt length prefix allocate the moon.
pub const MAX_FRAME_LEN: u32 = 4 * 1024 * 1024;

/// Section tags. Requests and responses share one tag space so a
/// misdirected frame decodes to "unknown message", not a wrong type.
pub mod tags {
    /// Request: submit a campaign spec.
    pub const SUBMIT: u16 = 1;
    /// Request: list jobs and server metrics.
    pub const STATUS: u16 = 2;
    /// Request: cancel a job by id.
    pub const CANCEL: u16 = 3;
    /// Request: drain the server.
    pub const DRAIN: u16 = 4;
    /// Request: re-attach to a waited-on job by id after a disconnect.
    pub const WATCH: u16 = 5;
    /// Response: job accepted with its id.
    pub const ACCEPTED: u16 = 16;
    /// Response: submission rejected, with a typed reason.
    pub const REJECTED: u16 = 17;
    /// Response: in-flight progress snapshot for a waited-on job.
    pub const PROGRESS: u16 = 18;
    /// Response: final report for a waited-on job.
    pub const REPORT: u16 = 19;
    /// Response: job listing plus the server's own metrics.
    pub const JOB_LIST: u16 = 20;
    /// Response: outcome of a cancel request.
    pub const CANCEL_OUTCOME: u16 = 21;
    /// Response: drain complete.
    pub const DRAINED: u16 = 22;
    /// Fleet worker: hello — member index, epoch, campaign identity hash.
    pub const WORKER_HELLO: u16 = 32;
    /// Fleet worker: partial accumulator state (codec-v3 checkpoint
    /// frame) stamped with an (epoch, sequence) pair.
    pub const WORKER_PARTIAL: u16 = 33;
    /// Fleet worker: liveness heartbeat.
    pub const WORKER_HEARTBEAT: u16 = 34;
    /// Fleet worker: final member state — analysis + pipeline totals.
    pub const WORKER_DONE: u16 = 35;
    /// Fleet aggregator: hello accepted.
    pub const AGG_WELCOME: u16 = 48;
    /// Fleet aggregator: cumulative acknowledgement of a partial.
    pub const AGG_ACK: u16 = 49;
    /// Fleet aggregator: the worker was refused, with a reason.
    pub const AGG_REJECT: u16 = 50;
}

/// Why a submission was refused. `Saturated` is the admission
/// controller shedding load — the one clients are expected to retry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RejectReason {
    /// The admission controller refused the job: queue full, drop rate
    /// or dispatch latency over threshold. `detail` names the signal.
    Saturated {
        /// Human-readable description of the tripped signal.
        detail: String,
    },
    /// The tenant already has `cap` jobs queued or running.
    TenantBusy {
        /// The tenant that hit its cap.
        tenant: String,
        /// The per-tenant cap in force.
        cap: u64,
    },
    /// The server is draining and accepts no new work.
    Draining,
    /// The campaign spec failed to parse.
    BadSpec {
        /// The parse error.
        error: String,
    },
    /// The job ran but its worker failed (panic or internal error).
    Failed {
        /// What went wrong.
        error: String,
    },
    /// The connection sat idle past the server's read deadline before
    /// delivering a complete request frame.
    DeadlineExceeded {
        /// The deadline that was missed, in milliseconds.
        deadline_ms: u64,
    },
}

impl core::fmt::Display for RejectReason {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            Self::Saturated { detail } => write!(f, "saturated: {detail}"),
            Self::TenantBusy { tenant, cap } => {
                write!(f, "tenant {tenant} at its cap of {cap} job(s)")
            }
            Self::Draining => write!(f, "server is draining"),
            Self::BadSpec { error } => write!(f, "bad spec: {error}"),
            Self::Failed { error } => write!(f, "job failed: {error}"),
            Self::DeadlineExceeded { deadline_ms } => {
                write!(f, "no complete request within the {deadline_ms} ms read deadline")
            }
        }
    }
}

impl RejectReason {
    fn encode(&self, w: &mut PayloadWriter) {
        match self {
            Self::Saturated { detail } => {
                w.put_u8(0);
                w.put_str(detail);
            }
            Self::TenantBusy { tenant, cap } => {
                w.put_u8(1);
                w.put_str(tenant);
                w.put_u64(*cap);
            }
            Self::Draining => w.put_u8(2),
            Self::BadSpec { error } => {
                w.put_u8(3);
                w.put_str(error);
            }
            Self::Failed { error } => {
                w.put_u8(4);
                w.put_str(error);
            }
            Self::DeadlineExceeded { deadline_ms } => {
                w.put_u8(5);
                w.put_u64(*deadline_ms);
            }
        }
    }

    fn decode(r: &mut PayloadReader<'_>) -> Result<Self, CheckpointError> {
        Ok(match r.get_u8()? {
            0 => Self::Saturated { detail: r.get_str()? },
            1 => Self::TenantBusy { tenant: r.get_str()?, cap: r.get_u64()? },
            2 => Self::Draining,
            3 => Self::BadSpec { error: r.get_str()? },
            4 => Self::Failed { error: r.get_str()? },
            5 => Self::DeadlineExceeded { deadline_ms: r.get_u64()? },
            _ => return Err(CheckpointError::Corrupt("unknown reject reason")),
        })
    }
}

/// Lifecycle state of a job, as reported by [`Response::JobList`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobState {
    /// Accepted, waiting for a worker.
    Queued,
    /// A worker is running it.
    Running,
    /// Cancel requested while running; the stop flag is set.
    Stopping,
    /// Finished; the report is held for a waiting client.
    Completed,
    /// Cancelled before a worker picked it up.
    Cancelled,
    /// The worker failed (panic or internal error).
    Failed,
}

impl JobState {
    fn to_u8(self) -> u8 {
        match self {
            Self::Queued => 0,
            Self::Running => 1,
            Self::Stopping => 2,
            Self::Completed => 3,
            Self::Cancelled => 4,
            Self::Failed => 5,
        }
    }

    fn from_u8(v: u8) -> Result<Self, CheckpointError> {
        Ok(match v {
            0 => Self::Queued,
            1 => Self::Running,
            2 => Self::Stopping,
            3 => Self::Completed,
            4 => Self::Cancelled,
            5 => Self::Failed,
            _ => return Err(CheckpointError::Corrupt("unknown job state")),
        })
    }

    /// Short lowercase label for listings.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Self::Queued => "queued",
            Self::Running => "running",
            Self::Stopping => "stopping",
            Self::Completed => "completed",
            Self::Cancelled => "cancelled",
            Self::Failed => "failed",
        }
    }
}

/// Outcome of a [`Request::Cancel`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CancelResult {
    /// The job was still queued and is now cancelled outright.
    Cancelled,
    /// The job was running; its stop flag is set and it will wind down
    /// at the next block boundary.
    Stopping,
    /// The job had already finished (completed, failed or cancelled).
    AlreadyDone,
    /// No job with that id exists.
    NotFound,
}

impl CancelResult {
    fn to_u8(self) -> u8 {
        match self {
            Self::Cancelled => 0,
            Self::Stopping => 1,
            Self::AlreadyDone => 2,
            Self::NotFound => 3,
        }
    }

    fn from_u8(v: u8) -> Result<Self, CheckpointError> {
        Ok(match v {
            0 => Self::Cancelled,
            1 => Self::Stopping,
            2 => Self::AlreadyDone,
            3 => Self::NotFound,
            _ => return Err(CheckpointError::Corrupt("unknown cancel outcome")),
        })
    }
}

/// One row of a [`Response::JobList`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobSummary {
    /// Server-assigned job id.
    pub id: u64,
    /// Tenant that submitted it.
    pub tenant: String,
    /// Analysis mode the spec requested.
    pub mode: AnalysisMode,
    /// Current lifecycle state.
    pub state: JobState,
}

/// A client-to-server message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// Submit a campaign. `spec` is campaign.cfg text
    /// ([`psc_core::spec::CampaignSpec`] grammar); `wait` keeps the
    /// connection open for [`Response::Progress`] streaming and the
    /// final [`Response::Report`].
    Submit {
        /// Tenant identity for per-tenant admission caps.
        tenant: String,
        /// Stream progress and the final report on this connection.
        wait: bool,
        /// The campaign spec, in campaign.cfg text form.
        spec: String,
    },
    /// List jobs and server metrics.
    Status,
    /// Cancel the job with this id.
    Cancel {
        /// The job to cancel.
        job: u64,
    },
    /// Stop accepting work, stop running jobs at the next block
    /// boundary, reject everything queued, then confirm.
    Drain,
    /// Re-attach to a job submitted with `wait` after the original
    /// connection was lost: the server answers [`Response::Accepted`]
    /// and resumes streaming [`Response::Progress`] frames (and the
    /// final frame) for `job` on this connection. A finished job still
    /// in the server's table gets its final frame at once, identical
    /// to the first one sent; an unknown job, or a finished one
    /// already evicted from the table, is refused with
    /// [`RejectReason::Failed`] `"no such job: N"`.
    Watch {
        /// The job to re-attach to.
        job: u64,
    },
}

/// A server-to-client message.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// The submission was admitted.
    Accepted {
        /// The assigned job id.
        job: u64,
    },
    /// The submission (or the job itself) was refused.
    Rejected {
        /// Why.
        reason: RejectReason,
    },
    /// Periodic progress for a waited-on job: the live merge of the
    /// job's per-shard metrics registries.
    Progress {
        /// The job this snapshot describes.
        job: u64,
        /// Merged pipeline metrics so far.
        metrics: MetricsSnapshot,
    },
    /// The final report for a waited-on job.
    Report {
        /// The finished job.
        job: u64,
        /// Analysis mode that ran.
        mode: AnalysisMode,
        /// Adaptive only: stopped before the budget.
        stopped_early: bool,
        /// Adaptive only: rounds actually collected.
        rounds: u64,
        /// Deterministic report text (banner + body) — byte-identical
        /// to an inline `psc campaign` run of the same spec.
        text: String,
        /// Encoded analysis state (codec-v3 payload) for bit-exact
        /// restore on the client side.
        analysis: Vec<u8>,
    },
    /// Jobs and the server's own metrics.
    JobList {
        /// One row per job the server still remembers.
        jobs: Vec<JobSummary>,
        /// The server's service-level metrics registry.
        server: MetricsSnapshot,
    },
    /// Outcome of a cancel request.
    CancelOutcome {
        /// The job the cancel addressed.
        job: u64,
        /// What happened.
        outcome: CancelResult,
    },
    /// Drain finished.
    Drained {
        /// Jobs that completed (any terminal state reached normally).
        completed: u64,
        /// Queued jobs rejected by the drain.
        rejected: u64,
    },
}

/// Errors crossing the wire layer.
#[derive(Debug)]
pub enum ProtoError {
    /// The frame failed codec-v3 decoding (bad magic, CRC, truncation).
    Checkpoint(CheckpointError),
    /// The frame decoded but contained no section tag this build knows.
    UnknownMessage,
    /// A length prefix exceeded [`MAX_FRAME_LEN`].
    Oversized(u32),
    /// A configured read deadline elapsed before a frame arrived — the
    /// peer is half-open or stalled.
    Timeout,
    /// Socket-level I/O failure.
    Io(String),
}

impl core::fmt::Display for ProtoError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            Self::Checkpoint(e) => write!(f, "frame error: {e}"),
            Self::UnknownMessage => write!(f, "frame carries no known message section"),
            Self::Oversized(len) => {
                write!(f, "frame length {len} exceeds the {MAX_FRAME_LEN}-byte cap")
            }
            Self::Timeout => write!(f, "read deadline elapsed waiting for a frame"),
            Self::Io(e) => write!(f, "socket error: {e}"),
        }
    }
}

impl std::error::Error for ProtoError {}

impl From<CheckpointError> for ProtoError {
    fn from(e: CheckpointError) -> Self {
        Self::Checkpoint(e)
    }
}

impl From<std::io::Error> for ProtoError {
    fn from(e: std::io::Error) -> Self {
        // A socket read timeout surfaces as `WouldBlock` or `TimedOut`
        // depending on the platform; both mean the same thing here.
        match e.kind() {
            std::io::ErrorKind::TimedOut | std::io::ErrorKind::WouldBlock => Self::Timeout,
            _ => Self::Io(e.to_string()),
        }
    }
}

pub(crate) fn mode_to_u8(mode: AnalysisMode) -> u8 {
    match mode {
        AnalysisMode::Tvla => 0,
        AnalysisMode::Cpa => 1,
        AnalysisMode::Adaptive => 2,
    }
}

pub(crate) fn mode_from_u8(v: u8) -> Result<AnalysisMode, CheckpointError> {
    Ok(match v {
        0 => AnalysisMode::Tvla,
        1 => AnalysisMode::Cpa,
        2 => AnalysisMode::Adaptive,
        _ => return Err(CheckpointError::Corrupt("unknown analysis mode")),
    })
}

impl Request {
    /// Encode as one full codec-v3 frame (without the wire length
    /// prefix — [`write_frame`] adds that).
    #[must_use]
    pub fn encode(&self) -> Vec<u8> {
        let mut w = PayloadWriter::new();
        let section = match self {
            Self::Submit { tenant, wait, spec } => {
                w.put_str(tenant);
                w.put_u8(u8::from(*wait));
                put_blob(&mut w, spec.as_bytes());
                w.into_section(tags::SUBMIT)
            }
            Self::Status => w.into_section(tags::STATUS),
            Self::Cancel { job } => {
                w.put_u64(*job);
                w.into_section(tags::CANCEL)
            }
            Self::Drain => w.into_section(tags::DRAIN),
            Self::Watch { job } => {
                w.put_u64(*job);
                w.into_section(tags::WATCH)
            }
        };
        encode_frame(&[section])
    }

    /// Decode a codec-v3 frame into a request: the first known-tag
    /// section wins, unknown tags are skipped.
    ///
    /// # Errors
    ///
    /// [`ProtoError::Checkpoint`] on any framing/CRC/truncation
    /// failure or malformed payload; [`ProtoError::UnknownMessage`]
    /// when no section carries a request tag.
    pub fn decode(frame: &[u8]) -> Result<Self, ProtoError> {
        for section in decode_frame(frame)? {
            let mut r = PayloadReader::new(&section.payload);
            let parsed = match section.tag {
                tags::SUBMIT => Self::Submit {
                    tenant: r.get_str()?,
                    wait: r.get_u8()? != 0,
                    spec: get_blob_str(&mut r)?,
                },
                tags::STATUS => Self::Status,
                tags::CANCEL => Self::Cancel { job: r.get_u64()? },
                tags::DRAIN => Self::Drain,
                tags::WATCH => Self::Watch { job: r.get_u64()? },
                _ => continue,
            };
            r.finish()?;
            return Ok(parsed);
        }
        Err(ProtoError::UnknownMessage)
    }
}

impl Response {
    /// Encode as one full codec-v3 frame (without the wire length
    /// prefix — [`write_frame`] adds that).
    #[must_use]
    pub fn encode(&self) -> Vec<u8> {
        let mut w = PayloadWriter::new();
        let section = match self {
            Self::Accepted { job } => {
                w.put_u64(*job);
                w.into_section(tags::ACCEPTED)
            }
            Self::Rejected { reason } => {
                reason.encode(&mut w);
                w.into_section(tags::REJECTED)
            }
            Self::Progress { job, metrics } => {
                w.put_u64(*job);
                metrics.encode(&mut w);
                w.into_section(tags::PROGRESS)
            }
            Self::Report { job, mode, stopped_early, rounds, text, analysis } => {
                w.put_u64(*job);
                w.put_u8(mode_to_u8(*mode));
                w.put_u8(u8::from(*stopped_early));
                w.put_u64(*rounds);
                put_blob(&mut w, text.as_bytes());
                put_blob(&mut w, analysis);
                w.into_section(tags::REPORT)
            }
            Self::JobList { jobs, server } => {
                w.put_u32(u32::try_from(jobs.len()).expect("job count fits in u32"));
                for job in jobs {
                    w.put_u64(job.id);
                    w.put_str(&job.tenant);
                    w.put_u8(mode_to_u8(job.mode));
                    w.put_u8(job.state.to_u8());
                }
                server.encode(&mut w);
                w.into_section(tags::JOB_LIST)
            }
            Self::CancelOutcome { job, outcome } => {
                w.put_u64(*job);
                w.put_u8(outcome.to_u8());
                w.into_section(tags::CANCEL_OUTCOME)
            }
            Self::Drained { completed, rejected } => {
                w.put_u64(*completed);
                w.put_u64(*rejected);
                w.into_section(tags::DRAINED)
            }
        };
        encode_frame(&[section])
    }

    /// Decode a codec-v3 frame into a response: the first known-tag
    /// section wins, unknown tags are skipped.
    ///
    /// # Errors
    ///
    /// [`ProtoError::Checkpoint`] on any framing/CRC/truncation
    /// failure or malformed payload; [`ProtoError::UnknownMessage`]
    /// when no section carries a response tag.
    pub fn decode(frame: &[u8]) -> Result<Self, ProtoError> {
        for section in decode_frame(frame)? {
            let mut r = PayloadReader::new(&section.payload);
            let parsed = match section.tag {
                tags::ACCEPTED => Self::Accepted { job: r.get_u64()? },
                tags::REJECTED => Self::Rejected { reason: RejectReason::decode(&mut r)? },
                tags::PROGRESS => {
                    Self::Progress { job: r.get_u64()?, metrics: MetricsSnapshot::decode(&mut r)? }
                }
                tags::REPORT => Self::Report {
                    job: r.get_u64()?,
                    mode: mode_from_u8(r.get_u8()?)?,
                    stopped_early: r.get_u8()? != 0,
                    rounds: r.get_u64()?,
                    text: get_blob_str(&mut r)?,
                    analysis: get_blob(&mut r)?,
                },
                tags::JOB_LIST => {
                    let count = r.get_u32()?;
                    let mut jobs = Vec::new();
                    for _ in 0..count {
                        jobs.push(JobSummary {
                            id: r.get_u64()?,
                            tenant: r.get_str()?,
                            mode: mode_from_u8(r.get_u8()?)?,
                            state: JobState::from_u8(r.get_u8()?)?,
                        });
                    }
                    Self::JobList { jobs, server: MetricsSnapshot::decode(&mut r)? }
                }
                tags::CANCEL_OUTCOME => Self::CancelOutcome {
                    job: r.get_u64()?,
                    outcome: CancelResult::from_u8(r.get_u8()?)?,
                },
                tags::DRAINED => Self::Drained { completed: r.get_u64()?, rejected: r.get_u64()? },
                _ => continue,
            };
            r.finish()?;
            return Ok(parsed);
        }
        Err(ProtoError::UnknownMessage)
    }
}

/// Append an extra (unknown-to-this-build) section to an encoded frame
/// — test helper for the forward-compatibility law, and the shape a
/// newer peer would use to attach optional data.
#[must_use]
pub fn with_extra_section(frame: &[u8], tag: u16, payload: &[u8]) -> Vec<u8> {
    let mut sections = decode_frame(frame).expect("valid frame");
    sections.insert(0, Section { tag, payload: payload.to_vec() });
    encode_frame(&sections)
}

/// Write one length-prefixed frame to `stream` and flush.
///
/// # Errors
///
/// [`ProtoError::Oversized`] when the frame exceeds [`MAX_FRAME_LEN`];
/// [`ProtoError::Io`] on socket failure.
pub fn write_frame(stream: &mut impl Write, frame: &[u8]) -> Result<(), ProtoError> {
    let len = u32::try_from(frame.len()).map_err(|_| ProtoError::Oversized(u32::MAX))?;
    if len > MAX_FRAME_LEN {
        return Err(ProtoError::Oversized(len));
    }
    stream.write_all(&len.to_le_bytes())?;
    stream.write_all(frame)?;
    stream.flush()?;
    Ok(())
}

/// Read one length-prefixed frame from `stream`.
///
/// # Errors
///
/// [`ProtoError::Oversized`] when the prefix exceeds
/// [`MAX_FRAME_LEN`] (the frame is not read); [`ProtoError::Io`] on
/// socket failure or EOF mid-frame.
pub fn read_frame(stream: &mut impl Read) -> Result<Vec<u8>, ProtoError> {
    let mut prefix = [0u8; 4];
    stream.read_exact(&mut prefix)?;
    let len = u32::from_le_bytes(prefix);
    if len > MAX_FRAME_LEN {
        return Err(ProtoError::Oversized(len));
    }
    let mut frame = vec![0u8; len as usize];
    stream.read_exact(&mut frame)?;
    Ok(frame)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_round_trips() {
        let reqs = [
            Request::Submit {
                tenant: "alice".into(),
                wait: true,
                spec: "mode=tvla\ndevice=m1\n".into(),
            },
            Request::Status,
            Request::Cancel { job: 42 },
            Request::Drain,
            Request::Watch { job: 42 },
        ];
        for req in reqs {
            assert_eq!(Request::decode(&req.encode()).unwrap(), req);
        }
    }

    #[test]
    fn response_round_trips() {
        let resps = [
            Response::Accepted { job: 7 },
            Response::Rejected {
                reason: RejectReason::Saturated { detail: "queue full (4/4)".into() },
            },
            Response::Rejected {
                reason: RejectReason::TenantBusy { tenant: "bob".into(), cap: 2 },
            },
            Response::Rejected { reason: RejectReason::Draining },
            Response::Rejected { reason: RejectReason::BadSpec { error: "mode: bad".into() } },
            Response::Rejected { reason: RejectReason::DeadlineExceeded { deadline_ms: 10_000 } },
            Response::Report {
                job: 7,
                mode: AnalysisMode::Adaptive,
                stopped_early: true,
                rounds: 312,
                text: "leakage detected\n".into(),
                analysis: vec![1, 2, 3, 255],
            },
            Response::JobList {
                jobs: vec![JobSummary {
                    id: 1,
                    tenant: "alice".into(),
                    mode: AnalysisMode::Cpa,
                    state: JobState::Running,
                }],
                server: MetricsSnapshot::default(),
            },
            Response::CancelOutcome { job: 9, outcome: CancelResult::Stopping },
            Response::Drained { completed: 3, rejected: 1 },
        ];
        for resp in resps {
            assert_eq!(Response::decode(&resp.encode()).unwrap(), resp);
        }
    }

    #[test]
    fn unknown_sections_skip_forward_compatibly() {
        let req = Request::Cancel { job: 3 };
        let framed = with_extra_section(&req.encode(), 999, b"future");
        assert_eq!(Request::decode(&framed).unwrap(), req);
        // A frame with ONLY unknown sections is a typed error.
        let alien = encode_frame(&[Section { tag: 999, payload: b"future".to_vec() }]);
        assert!(matches!(Request::decode(&alien), Err(ProtoError::UnknownMessage)));
    }

    #[test]
    fn oversized_length_prefix_is_rejected_without_reading() {
        let mut wire = Vec::new();
        wire.extend_from_slice(&(MAX_FRAME_LEN + 1).to_le_bytes());
        let mut cursor = std::io::Cursor::new(wire);
        assert!(matches!(read_frame(&mut cursor), Err(ProtoError::Oversized(_))));
    }

    #[test]
    fn read_timeouts_map_to_the_typed_timeout_error() {
        for kind in [std::io::ErrorKind::TimedOut, std::io::ErrorKind::WouldBlock] {
            let e = std::io::Error::new(kind, "deadline elapsed");
            assert!(matches!(ProtoError::from(e), ProtoError::Timeout));
        }
        let hard = std::io::Error::new(std::io::ErrorKind::ConnectionReset, "reset");
        assert!(matches!(ProtoError::from(hard), ProtoError::Io(_)));
    }

    #[test]
    fn wire_round_trips_through_a_stream() {
        let frame = Request::Status.encode();
        let mut wire = Vec::new();
        write_frame(&mut wire, &frame).unwrap();
        let mut cursor = std::io::Cursor::new(wire);
        assert_eq!(read_frame(&mut cursor).unwrap(), frame);
    }
}
