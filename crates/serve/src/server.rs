//! The campaign server: accept loop, job table, drain lifecycle.
//!
//! One thread accepts connections on a local TCP socket and spawns a
//! handler per connection; handlers parse one [`Request`] and reply.
//! Campaign execution happens on the bounded FIFO [`WorkerPool`]; the
//! [`AdmissionController`] decides at submit time whether a job gets a
//! queue slot at all.
//!
//! Job completion is event-driven: every terminal transition
//! (completed, failed, cancelled, rejected by drain) signals one
//! condition variable beside the job table. A waited-on submit or a
//! [`Request::Watch`] therefore gets its final frame
//! ([`Response::Report`] or [`Response::Rejected`]) as soon as the job
//! settles; while the job is still in flight it gets one
//! [`Response::Progress`] frame per [`ServerConfig::progress_interval`].
//!
//! The table keeps every queued and running job, but only the
//! [`FINISHED_JOBS_RETAINED`] most recently settled ones: older
//! finished jobs are evicted in completion order, except that a job
//! is never evicted while a wait/watch stream is still attached to it.
//! The server's counters keep counting every job.
//!
//! The server instruments itself with the same
//! [`MetricsRegistry`] the campaigns use — counters for every job
//! transition, peak-concurrency gauges, and dispatch-wait /
//! report-latency histograms — and serves that registry's snapshot in
//! every [`Response::JobList`].

use crate::admission::{AdmissionController, AdmissionSignals};
use crate::pool::WorkerPool;
use crate::proto::{
    read_frame, write_frame, CancelResult, JobState, JobSummary, ProtoError, RejectReason, Request,
    Response,
};
use psc_core::report::{self, campaign_banner};
use psc_core::session::Campaign;
use psc_core::spec::CampaignSpec;
use psc_telemetry::metrics::{MetricsHub, MetricsRegistry, MetricsSnapshot};
use std::collections::{BTreeMap, VecDeque};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// Default service endpoint — loopback only; the daemon is a local
/// multiplexer, not a network service.
pub const DEFAULT_ADDR: &str = "127.0.0.1:7145";

/// Finished (completed, cancelled or failed) jobs the job table keeps
/// for [`Request::Status`] and [`Request::Watch`]. Older ones are
/// evicted in completion order, so the table, and with it every scan
/// of it, stays bounded however many jobs the server has run.
pub const FINISHED_JOBS_RETAINED: usize = 64;

/// Metric names for the server's own [`MetricsRegistry`] (the campaign
/// pipeline names live in [`psc_telemetry::metrics::names`]).
pub mod names {
    /// Submissions received (before admission).
    pub const SUBMITTED: &str = "serve.jobs.submitted";
    /// Submissions admitted to the queue.
    pub const ACCEPTED: &str = "serve.jobs.accepted";
    /// Submissions refused (admission, drain, bad spec).
    pub const REJECTED: &str = "serve.jobs.rejected";
    /// Jobs that ran to completion.
    pub const COMPLETED: &str = "serve.jobs.completed";
    /// Jobs cancelled before or during execution.
    pub const CANCELLED: &str = "serve.jobs.cancelled";
    /// Jobs whose worker failed.
    pub const FAILED: &str = "serve.jobs.failed";
    /// Peak concurrently-running jobs.
    pub const PEAK_RUNNING: &str = "serve.peak_running";
    /// Peak pool queue depth.
    pub const PEAK_QUEUE: &str = "serve.peak_queue_depth";
    /// Queue wait per dispatched job, nanoseconds; its p99 feeds
    /// admission.
    pub const DISPATCH_WAIT_NS: &str = "serve.dispatch_wait_ns";
    /// Submit-to-report latency per completed job, nanoseconds.
    pub const REPORT_LATENCY_NS: &str = "serve.report_latency_ns";
}

/// Server construction parameters.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address (use port 0 for an ephemeral port in tests).
    pub addr: String,
    /// Worker threads executing campaigns.
    pub workers: usize,
    /// Admission thresholds.
    pub admission: crate::admission::AdmissionConfig,
    /// When set, every job checkpoints to `spool/job-NNN` at its
    /// spec's cadence, so drained or interrupted jobs resume with
    /// `psc resume`.
    pub spool: Option<PathBuf>,
    /// Cadence of [`Response::Progress`] frames to a waiting client
    /// while its job is in flight. The final frame never waits for
    /// it: it is sent as soon as the job settles, so a job that
    /// finishes within one interval gets no `Progress` frame at all.
    pub progress_interval: Duration,
    /// How long a connection may take to deliver its complete request
    /// frame. A stalled or half-open client is refused with the typed
    /// [`RejectReason::DeadlineExceeded`] instead of pinning a
    /// connection-handler thread forever.
    pub read_deadline: Duration,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            addr: DEFAULT_ADDR.to_owned(),
            workers: 2,
            admission: crate::admission::AdmissionConfig::default(),
            spool: None,
            progress_interval: Duration::from_millis(100),
            read_deadline: Duration::from_secs(10),
        }
    }
}

struct Job {
    tenant: String,
    spec: CampaignSpec,
    state: JobState,
    stop: Arc<AtomicBool>,
    hub: Arc<MetricsHub>,
    accepted_at: Instant,
    /// The finished job's final frame, sent to every waiter.
    report: Option<Response>,
    error: Option<String>,
    /// Wait/watch streams attached and not yet done; the job is not
    /// evicted while this is nonzero.
    watchers: usize,
}

#[derive(Default)]
struct JobTable {
    jobs: BTreeMap<u64, Job>,
    /// Ids of settled jobs, oldest-settled first.
    finished: VecDeque<u64>,
    next_id: u64,
}

impl JobTable {
    /// Evict the oldest-settled jobs beyond [`FINISHED_JOBS_RETAINED`],
    /// skipping those a stream is still attached to.
    fn prune(&mut self) {
        let mut excess = self.finished.len().saturating_sub(FINISHED_JOBS_RETAINED);
        let jobs = &mut self.jobs;
        self.finished.retain(|id| {
            let evict = excess > 0 && jobs.get(id).is_none_or(|job| job.watchers == 0);
            if evict {
                jobs.remove(id);
                excess -= 1;
            }
            !evict
        });
    }
}

struct Inner {
    cfg: ServerConfig,
    addr: SocketAddr,
    registry: Arc<MetricsRegistry>,
    admission: AdmissionController,
    pool: Mutex<Option<WorkerPool>>,
    table: Mutex<JobTable>,
    /// Signalled on every terminal job transition.
    settled: Condvar,
    running: AtomicUsize,
    draining: AtomicBool,
    shutdown: AtomicBool,
}

impl Inner {
    fn lock_table(&self) -> MutexGuard<'_, JobTable> {
        self.table.lock().expect("job table poisoned")
    }

    /// Record that job `id`, whose entry the caller has just moved to a
    /// terminal state, settled: queue it for eviction and wake every
    /// stream and drain waiting on the table.
    fn settle(&self, table: &mut JobTable, id: u64) {
        table.finished.push_back(id);
        table.prune();
        self.settled.notify_all();
    }
}

/// A wait/watch stream's hold on its job: the job stays in the table
/// until the stream has sent its final frame or given up.
struct Attached<'a> {
    inner: &'a Inner,
    job: u64,
}

impl<'a> Attached<'a> {
    /// Attach to `job` in `table`; `None` if the table has no such job.
    fn new(inner: &'a Inner, table: &mut JobTable, job: u64) -> Option<Self> {
        table.jobs.get_mut(&job)?.watchers += 1;
        Some(Self { inner, job })
    }
}

impl Drop for Attached<'_> {
    fn drop(&mut self) {
        // A poisoned table has already failed every other handler.
        let Ok(mut table) = self.inner.table.lock() else { return };
        if let Some(job) = table.jobs.get_mut(&self.job) {
            job.watchers -= 1;
        }
        table.prune();
    }
}

/// A running campaign service. Dropping the handle does **not** stop
/// the daemon — send [`Request::Drain`] (or call [`Server::shutdown`])
/// and then [`Server::join`].
pub struct Server {
    inner: Arc<Inner>,
    accept: Option<std::thread::JoinHandle<()>>,
}

impl Server {
    /// Bind `cfg.addr`, spawn the worker pool and the accept loop.
    ///
    /// # Errors
    ///
    /// Propagates the bind failure.
    pub fn start(cfg: ServerConfig) -> std::io::Result<Self> {
        let listener = TcpListener::bind(&cfg.addr)?;
        let addr = listener.local_addr()?;
        let registry = Arc::new(MetricsRegistry::new());
        let pool = WorkerPool::new(cfg.workers, registry.histogram(names::DISPATCH_WAIT_NS));
        let inner = Arc::new(Inner {
            admission: AdmissionController::new(cfg.admission),
            cfg,
            addr,
            registry,
            pool: Mutex::new(Some(pool)),
            table: Mutex::new(JobTable::default()),
            settled: Condvar::new(),
            running: AtomicUsize::new(0),
            draining: AtomicBool::new(false),
            shutdown: AtomicBool::new(false),
        });
        let accept_inner = Arc::clone(&inner);
        let accept = std::thread::Builder::new()
            .name("psc-serve-accept".into())
            .spawn(move || accept_loop(&accept_inner, &listener))?;
        Ok(Self { inner, accept: Some(accept) })
    }

    /// The actually-bound address (resolves port 0).
    #[must_use]
    pub fn addr(&self) -> SocketAddr {
        self.inner.addr
    }

    /// The server's own metrics (job counters, peaks, latencies).
    #[must_use]
    pub fn metrics(&self) -> MetricsSnapshot {
        self.inner.registry.snapshot()
    }

    /// Stop without draining: refuse new connections, stop workers
    /// after their current job. Jobs still queued are abandoned —
    /// prefer [`Request::Drain`] for a graceful stop.
    pub fn shutdown(&self) {
        stop_accepting(&self.inner);
        if let Some(pool) = self.inner.pool.lock().expect("pool lock poisoned").take() {
            pool.join();
        }
    }

    /// Wait for the accept loop to exit (after a drain or
    /// [`Server::shutdown`]).
    pub fn join(mut self) {
        if let Some(handle) = self.accept.take() {
            let _ = handle.join();
        }
    }
}

fn stop_accepting(inner: &Inner) {
    inner.shutdown.store(true, Ordering::Release);
    // Unblock the accept() call with one throwaway connection.
    let _ = TcpStream::connect(inner.addr);
}

fn accept_loop(inner: &Arc<Inner>, listener: &TcpListener) {
    loop {
        let stream = match listener.accept() {
            Ok((stream, _)) => stream,
            Err(_) => {
                if inner.shutdown.load(Ordering::Acquire) {
                    return;
                }
                continue;
            }
        };
        if inner.shutdown.load(Ordering::Acquire) {
            return;
        }
        let conn_inner = Arc::clone(inner);
        let _ = std::thread::Builder::new()
            .name("psc-serve-conn".into())
            .spawn(move || handle_connection(&conn_inner, stream));
    }
}

fn handle_connection(inner: &Arc<Inner>, mut stream: TcpStream) {
    // A stalled or half-open client must not pin this handler thread:
    // the whole request frame has to arrive within the read deadline.
    let _ = stream.set_read_timeout(Some(inner.cfg.read_deadline));
    let request = match read_frame(&mut stream).and_then(|frame| Request::decode(&frame)) {
        Ok(request) => request,
        Err(ProtoError::Timeout) => {
            let deadline_ms = u64::try_from(inner.cfg.read_deadline.as_millis()).unwrap_or(0);
            let reject =
                Response::Rejected { reason: RejectReason::DeadlineExceeded { deadline_ms } };
            let _ = write_frame(&mut stream, &reject.encode());
            return;
        }
        Err(e) => {
            // A malformed frame gets a typed refusal, never a silent
            // hangup; if even that write fails the peer is gone.
            let reject =
                Response::Rejected { reason: RejectReason::BadSpec { error: e.to_string() } };
            let _ = write_frame(&mut stream, &reject.encode());
            return;
        }
    };
    // Past this point the connection only writes (progress/report
    // streaming); the deadline has done its job.
    let _ = stream.set_read_timeout(None);
    match request {
        Request::Submit { tenant, wait, spec } => {
            handle_submit(inner, &mut stream, tenant, wait, &spec)
        }
        Request::Status => handle_status(inner, &mut stream),
        Request::Cancel { job } => handle_cancel(inner, &mut stream, job),
        Request::Drain => handle_drain(inner, &mut stream),
        Request::Watch { job } => handle_watch(inner, &mut stream, job),
    }
}

/// Re-attach a waiting client to a job it already submitted: verify
/// the job is still in the table, then stream progress until the
/// terminal frame (at once for a finished job) — the reconnect half of
/// `psc submit --wait`'s disconnect tolerance.
fn handle_watch(inner: &Inner, stream: &mut TcpStream, job_id: u64) {
    let attached = Attached::new(inner, &mut inner.lock_table(), job_id);
    let Some(attached) = attached else {
        let _ = reply(
            stream,
            &Response::Rejected {
                reason: RejectReason::Failed { error: format!("no such job: {job_id}") },
            },
        );
        return;
    };
    if reply(stream, &Response::Accepted { job: job_id }) {
        stream_until_done(stream, &attached);
    }
}

fn reply(stream: &mut TcpStream, response: &Response) -> bool {
    write_frame(stream, &response.encode()).is_ok()
}

fn reject(inner: &Inner, stream: &mut TcpStream, reason: RejectReason) {
    inner.registry.counter(names::REJECTED).inc();
    let _ = reply(stream, &Response::Rejected { reason });
}

/// Live merge of every running job's pipeline metrics.
fn running_pipeline(table: &JobTable) -> MetricsSnapshot {
    table
        .jobs
        .values()
        .filter(|j| matches!(j.state, JobState::Running | JobState::Stopping))
        .map(|j| j.hub.merged())
        .fold(MetricsSnapshot::default(), MetricsSnapshot::merged)
}

fn handle_submit(
    inner: &Arc<Inner>,
    stream: &mut TcpStream,
    tenant: String,
    wait: bool,
    spec: &str,
) {
    inner.registry.counter(names::SUBMITTED).inc();
    let spec = match CampaignSpec::parse(spec) {
        Ok(spec) => spec,
        Err(error) => return reject(inner, stream, RejectReason::BadSpec { error }),
    };
    if inner.draining.load(Ordering::Acquire) {
        return reject(inner, stream, RejectReason::Draining);
    }
    let queue_depth =
        inner.pool.lock().expect("pool lock poisoned").as_ref().map_or(0, WorkerPool::queue_depth);
    let running = inner.running.load(Ordering::Acquire);
    let dispatch_p99_ns = inner.registry.histogram(names::DISPATCH_WAIT_NS).percentile(0.99);
    let (job_id, attached) = {
        let mut table = inner.lock_table();
        let tenant_jobs = table
            .jobs
            .values()
            .filter(|j| {
                j.tenant == tenant
                    && matches!(j.state, JobState::Queued | JobState::Running | JobState::Stopping)
            })
            .count();
        let signals = AdmissionSignals {
            queue_depth,
            idle_workers: inner.cfg.workers.saturating_sub(running),
            tenant_jobs,
            pipeline: &running_pipeline(&table),
            dispatch_p99_ns,
        };
        if let Err(reason) = inner.admission.admit(&tenant, &signals) {
            drop(table);
            return reject(inner, stream, reason);
        }
        let id = table.next_id;
        table.next_id += 1;
        table.jobs.insert(
            id,
            Job {
                tenant,
                spec,
                state: JobState::Queued,
                stop: Arc::new(AtomicBool::new(false)),
                hub: Arc::new(MetricsHub::new()),
                accepted_at: Instant::now(),
                report: None,
                error: None,
                watchers: 0,
            },
        );
        // Attach before the job can run, so it cannot settle and be
        // evicted before the stream looks at it.
        let attached = if wait { Attached::new(inner, &mut table, id) } else { None };
        (id, attached)
    };
    inner.registry.counter(names::ACCEPTED).inc();
    inner.registry.gauge(names::PEAK_QUEUE).set_max(queue_depth as u64 + 1);
    let worker_inner = Arc::clone(inner);
    let submitted = inner
        .pool
        .lock()
        .expect("pool lock poisoned")
        .as_ref()
        .is_some_and(|pool| pool.submit(job_id, move || run_job(&worker_inner, job_id)));
    if !submitted {
        // Raced with a drain between admission and enqueue.
        let mut table = inner.lock_table();
        if let Some(job) = table.jobs.get_mut(&job_id) {
            job.state = JobState::Cancelled;
            job.error = Some("rejected by drain".into());
            inner.settle(&mut table, job_id);
        }
        drop(table);
        return reject(inner, stream, RejectReason::Draining);
    }
    if !reply(stream, &Response::Accepted { job: job_id }) {
        return;
    }
    if let Some(attached) = attached {
        stream_until_done(stream, &attached);
    }
}

/// Stream one [`Response::Progress`] frame per progress interval while
/// the attached job is in flight, and its final frame as soon as it
/// settles.
fn stream_until_done(stream: &mut TcpStream, attached: &Attached<'_>) {
    enum Peek {
        InFlight(MetricsSnapshot),
        Done(Response),
    }
    let inner = attached.inner;
    loop {
        let deadline = Instant::now() + inner.cfg.progress_interval;
        let peek = {
            let mut table = inner.lock_table();
            loop {
                let Some(job) = table.jobs.get(&attached.job) else { return };
                if let Some(response) = final_frame(job) {
                    break Peek::Done(response);
                }
                let now = Instant::now();
                if now >= deadline {
                    break Peek::InFlight(job.hub.merged());
                }
                table = inner
                    .settled
                    .wait_timeout(table, deadline - now)
                    .expect("job table poisoned")
                    .0;
            }
        };
        match peek {
            Peek::InFlight(metrics) => {
                if !reply(stream, &Response::Progress { job: attached.job, metrics }) {
                    return; // client went away; the job keeps running
                }
            }
            Peek::Done(response) => {
                let _ = reply(stream, &response);
                return;
            }
        }
    }
}

/// The frame that ends a wait/watch stream, once `job` has settled.
fn final_frame(job: &Job) -> Option<Response> {
    let failed = |default: &str| {
        Some(Response::Rejected {
            reason: RejectReason::Failed {
                error: job.error.clone().unwrap_or_else(|| default.into()),
            },
        })
    };
    match job.state {
        JobState::Queued | JobState::Running | JobState::Stopping => None,
        JobState::Completed => Some(job.report.clone().expect("completed job has a report")),
        JobState::Cancelled => failed("cancelled"),
        JobState::Failed => failed("worker failed"),
    }
}

/// Execute one admitted job on a pool worker.
fn run_job(inner: &Arc<Inner>, job_id: u64) {
    let (spec, stop, hub, accepted_at) = {
        let mut table = inner.lock_table();
        let Some(job) = table.jobs.get_mut(&job_id) else { return };
        if job.state != JobState::Queued {
            return; // cancelled while queued
        }
        job.state = JobState::Running;
        let running = inner.running.fetch_add(1, Ordering::AcqRel) + 1;
        inner.registry.gauge(names::PEAK_RUNNING).set_max(running as u64);
        (job.spec.clone(), Arc::clone(&job.stop), Arc::clone(&job.hub), job.accepted_at)
    };
    let run_spec = spec.clone();
    let spool = inner.cfg.spool.clone();
    let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(move || {
        let mut campaign = Campaign::from_spec(&run_spec).stop_flag(stop).metrics_hub(hub);
        if let Some(spool) = spool {
            campaign =
                campaign.checkpoint_to(spool.join(format!("job-{job_id:03}")), run_spec.every);
        }
        report::run_session(campaign.session(), &run_spec)
    }));
    inner.running.fetch_sub(1, Ordering::AcqRel);
    let mut table = inner.lock_table();
    let Some(job) = table.jobs.get_mut(&job_id) else { return };
    match outcome {
        Ok(out) => {
            if job.state == JobState::Stopping {
                job.state = JobState::Cancelled;
                job.error = Some("cancelled while running".into());
                inner.registry.counter(names::CANCELLED).inc();
            } else {
                job.report = Some(Response::Report {
                    job: job_id,
                    mode: out.mode,
                    stopped_early: out.stopped_early,
                    rounds: out.rounds,
                    text: campaign_banner(&spec) + &out.body,
                    analysis: out.analysis,
                });
                job.state = JobState::Completed;
                inner.registry.counter(names::COMPLETED).inc();
                let latency = u64::try_from(accepted_at.elapsed().as_nanos()).unwrap_or(u64::MAX);
                inner.registry.histogram(names::REPORT_LATENCY_NS).record(latency);
            }
        }
        Err(panic) => {
            let message = panic
                .downcast_ref::<&str>()
                .map(|s| (*s).to_owned())
                .or_else(|| panic.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "worker panicked".into());
            job.state = JobState::Failed;
            job.error = Some(message);
            inner.registry.counter(names::FAILED).inc();
        }
    }
    inner.settle(&mut table, job_id);
}

fn handle_status(inner: &Inner, stream: &mut TcpStream) {
    let jobs = {
        let table = inner.lock_table();
        table
            .jobs
            .iter()
            .map(|(&id, job)| JobSummary {
                id,
                tenant: job.tenant.clone(),
                mode: job.spec.mode,
                state: job.state,
            })
            .collect()
    };
    let _ = reply(stream, &Response::JobList { jobs, server: inner.registry.snapshot() });
}

fn handle_cancel(inner: &Inner, stream: &mut TcpStream, job_id: u64) {
    let outcome = {
        let mut table = inner.lock_table();
        let outcome = match table.jobs.get_mut(&job_id) {
            None => CancelResult::NotFound,
            Some(job) => match job.state {
                JobState::Queued => {
                    // The pool will skip it: run_job refuses non-Queued jobs.
                    job.state = JobState::Cancelled;
                    job.error = Some("cancelled while queued".into());
                    inner.registry.counter(names::CANCELLED).inc();
                    CancelResult::Cancelled
                }
                JobState::Running | JobState::Stopping => {
                    job.state = JobState::Stopping;
                    job.stop.store(true, Ordering::Release);
                    CancelResult::Stopping
                }
                JobState::Completed | JobState::Cancelled | JobState::Failed => {
                    CancelResult::AlreadyDone
                }
            },
        };
        if outcome == CancelResult::Cancelled {
            inner.settle(&mut table, job_id);
        }
        outcome
    };
    let _ = reply(stream, &Response::CancelOutcome { job: job_id, outcome });
}

fn handle_drain(inner: &Arc<Inner>, stream: &mut TcpStream) {
    let first = !inner.draining.swap(true, Ordering::AcqRel);
    let mut rejected = 0u64;
    if first {
        // Reject everything still queued; stop what is running at its
        // next block boundary (it has been checkpointing all along if
        // a spool is configured).
        let queued =
            inner.pool.lock().expect("pool lock poisoned").as_ref().map_or_else(Vec::new, |p| {
                p.shutdown();
                p.take_queued()
            });
        let mut table = inner.lock_table();
        for pending in queued {
            let Some(job) = table.jobs.get_mut(&pending.id) else { continue };
            if job.state == JobState::Queued {
                job.state = JobState::Cancelled;
                job.error = Some("rejected by drain".into());
                inner.registry.counter(names::REJECTED).inc();
                rejected += 1;
                inner.settle(&mut table, pending.id);
            }
        }
        for job in table.jobs.values_mut() {
            if matches!(job.state, JobState::Running | JobState::Stopping) {
                job.stop.store(true, Ordering::Release);
            }
        }
    }
    // Wait until nothing is in flight any more.
    let mut table = inner.lock_table();
    while table
        .jobs
        .values()
        .any(|j| matches!(j.state, JobState::Queued | JobState::Running | JobState::Stopping))
    {
        table = inner.settled.wait(table).expect("job table poisoned");
    }
    drop(table);
    if first {
        if let Some(pool) = inner.pool.lock().expect("pool lock poisoned").take() {
            pool.join();
        }
    }
    let completed = inner.registry.counter(names::COMPLETED).get();
    let _ = reply(stream, &Response::Drained { completed, rejected });
    stop_accepting(inner);
}

#[cfg(test)]
mod tests {
    use super::*;
    use psc_core::{AnalysisMode, Device, ExperimentConfig};

    fn job(state: JobState, watchers: usize) -> Job {
        Job {
            tenant: "t".into(),
            spec: CampaignSpec::new(
                AnalysisMode::Tvla,
                Device::MacMiniM1,
                &ExperimentConfig::default(),
            ),
            state,
            stop: Arc::default(),
            hub: Arc::new(MetricsHub::new()),
            accepted_at: Instant::now(),
            report: None,
            error: None,
            watchers,
        }
    }

    #[test]
    fn prune_evicts_oldest_settled_first_and_never_a_watched_or_unsettled_job() {
        let mut table = JobTable::default();
        let running = 1_000;
        table.jobs.insert(running, job(JobState::Running, 0));
        // Settle in descending id order, so completion order and id
        // order disagree; the first job to settle has a stream attached.
        let settled: Vec<u64> = (0..FINISHED_JOBS_RETAINED as u64 + 3).rev().collect();
        for (i, &id) in settled.iter().enumerate() {
            table.jobs.insert(id, job(JobState::Completed, usize::from(i == 0)));
            table.finished.push_back(id);
            table.prune();
        }
        assert!(table.jobs.contains_key(&running));
        assert!(table.jobs.contains_key(&settled[0]), "a watched job was evicted");
        for id in &settled[1..4] {
            assert!(!table.jobs.contains_key(id), "job {id} should be evicted first");
        }
        assert_eq!(table.finished.len(), FINISHED_JOBS_RETAINED);

        // Once its stream detaches, it is the next to go.
        table.jobs.get_mut(&settled[0]).expect("watched job").watchers = 0;
        let newest = FINISHED_JOBS_RETAINED as u64 + 3;
        table.jobs.insert(newest, job(JobState::Cancelled, 0));
        table.finished.push_back(newest);
        table.prune();
        assert!(!table.jobs.contains_key(&settled[0]));
        assert_eq!(table.jobs.len(), FINISHED_JOBS_RETAINED + 1);
        assert!(table.finished.iter().eq(settled[4..].iter().chain([&newest])));
    }
}
