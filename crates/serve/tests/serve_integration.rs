//! End-to-end service tests: streamed reports must be byte-identical
//! to inline runs of the same spec (with jobs genuinely concurrent),
//! admission must shed with a typed rejection, drain must settle
//! cleanly, final frames must not wait for the progress cadence, and
//! the job table must keep only the most recently finished jobs.

use psc_core::report;
use psc_core::spec::{AnalysisMode, CampaignSpec};
use psc_core::{Device, TuneConfig};
use psc_serve::proto::{CancelResult, JobState, JobSummary, RejectReason, Response};
use psc_serve::server::{names, FINISHED_JOBS_RETAINED};
use psc_serve::{submit_and_wait, AdmissionConfig, Client, Server, ServerConfig};
use std::net::SocketAddr;
use std::time::{Duration, Instant};

/// A progress cadence no job here comes near: a final frame that
/// waited for the next tick would take a minute.
const SLOW_PROGRESS: Duration = Duration::from_secs(60);

/// Generous bound for "at once" that still fails a final frame which
/// waits for a [`SLOW_PROGRESS`] tick, however slow the host.
const PROMPT: Duration = Duration::from_secs(10);

fn spec(mode: AnalysisMode, traces: usize, shards: usize) -> CampaignSpec {
    CampaignSpec {
        mode,
        device: Device::MacMiniM1,
        kernel: false,
        fleet: false,
        traces,
        shards,
        seed: 0x00D5_C0DE,
        key: *b"serve-integratio",
        every: 8,
        tune: TuneConfig::default(),
        mitigation: None,
        record: None,
        monitor: None,
    }
}

fn start_server(workers: usize, admission: AdmissionConfig) -> Server {
    start_paced_server(workers, admission, Duration::from_millis(10))
}

fn start_paced_server(
    workers: usize,
    admission: AdmissionConfig,
    progress_interval: Duration,
) -> Server {
    Server::start(ServerConfig {
        addr: "127.0.0.1:0".into(),
        workers,
        admission,
        spool: None,
        progress_interval,
        ..ServerConfig::default()
    })
    .expect("bind an ephemeral port")
}

/// A job small enough to finish in a blink.
fn tiny() -> String {
    spec(AnalysisMode::Tvla, 10, 1).render()
}

/// A job that runs until cancelled or drained.
fn hog() -> String {
    spec(AnalysisMode::Tvla, 10_000_000, 1).render()
}

fn submit(addr: SocketAddr, tenant: &str, spec: &str) -> u64 {
    let mut client = Client::connect(addr).expect("connect");
    match client.submit(tenant, spec, false).expect("submit") {
        Response::Accepted { job } => job,
        other => panic!("expected Accepted, got {other:?}"),
    }
}

fn job_list(addr: SocketAddr) -> Vec<JobSummary> {
    match Client::connect(addr).expect("connect").status().expect("status") {
        Response::JobList { jobs, .. } => jobs,
        other => panic!("expected JobList, got {other:?}"),
    }
}

fn wait_until_running(addr: SocketAddr, job: u64) {
    while !job_list(addr).iter().any(|j| j.id == job && j.state == JobState::Running) {
        std::thread::sleep(Duration::from_millis(5));
    }
}

fn expect_failed(response: Response) -> String {
    match response {
        Response::Rejected { reason: RejectReason::Failed { error } } => error,
        other => panic!("expected Rejected(Failed), got {other:?}"),
    }
}

fn drain(addr: SocketAddr) -> (u64, u64) {
    match Client::connect(addr).expect("connect").drain().expect("drain") {
        Response::Drained { completed, rejected } => (completed, rejected),
        other => panic!("expected Drained, got {other:?}"),
    }
}

fn expect_report(response: Response) -> (String, Vec<u8>) {
    match response {
        Response::Report { text, analysis, .. } => (text, analysis),
        other => panic!("expected a report, got {other:?}"),
    }
}

#[test]
fn streamed_reports_are_bit_identical_to_inline_runs() {
    let server = start_server(2, AdmissionConfig::default());
    let addr = server.addr();
    // The adaptive budget stays under the 24-traces-per-side detection
    // minimum so the run exhausts its budget: a detected crossing stops
    // the producers at a scheduling-dependent round, and this test pins
    // byte-identity, not early-stop behaviour (covered in psc-core).
    let specs = [
        spec(AnalysisMode::Tvla, 250, 2),
        spec(AnalysisMode::Cpa, 400, 2),
        spec(AnalysisMode::Adaptive, 40, 2),
    ];

    // Submit all three concurrently over a 2-worker pool, so at least
    // two campaigns must be in flight at once.
    let streamed: Vec<(String, Vec<u8>)> = std::thread::scope(|scope| {
        let handles: Vec<_> = specs
            .iter()
            .map(|spec| {
                let text = spec.render();
                scope.spawn(move || {
                    expect_report(submit_and_wait(addr, "itest", &text).expect("submit and wait"))
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("submitter thread")).collect()
    });

    for (spec, (text, analysis)) in specs.iter().zip(&streamed) {
        let inline = report::run_spec(spec);
        let expected = report::campaign_banner(spec) + &inline.body;
        assert_eq!(text, &expected, "served {:?} report text drifted from inline", spec.mode);
        assert_eq!(
            analysis, &inline.analysis,
            "served {:?} analysis state drifted from inline",
            spec.mode
        );
    }

    // The pool really ran campaigns concurrently.
    let metrics = server.metrics();
    assert!(
        metrics.gauge(names::PEAK_RUNNING) >= 2,
        "expected >=2 concurrent jobs, peak was {}",
        metrics.gauge(names::PEAK_RUNNING)
    );
    assert_eq!(metrics.counter(names::COMPLETED), 3);
    assert_eq!(metrics.counter(names::ACCEPTED), 3);

    let mut client = Client::connect(addr).expect("connect");
    match client.drain().expect("drain") {
        Response::Drained { completed, rejected } => {
            assert_eq!(completed, 3);
            assert_eq!(rejected, 0);
        }
        other => panic!("expected Drained, got {other:?}"),
    }
    server.join();
}

#[test]
fn saturated_server_sheds_with_a_typed_rejection() {
    let server = start_server(
        1,
        AdmissionConfig { max_queue: 0, tenant_cap: 8, ..AdmissionConfig::default() },
    );
    let addr = server.addr();

    // Occupy the only worker (no wait — the connection closes, the job runs).
    let big = spec(AnalysisMode::Tvla, 4000, 1).render();
    let mut client = Client::connect(addr).expect("connect");
    let first = client.submit("hog", &big, false).expect("submit");
    assert!(matches!(first, Response::Accepted { job: 0 }), "got {first:?}");

    // Wait until it is actually running, then hit the zero-length queue.
    loop {
        let mut status = Client::connect(addr).expect("connect");
        let Response::JobList { jobs, .. } = status.status().expect("status") else {
            panic!("expected JobList")
        };
        if jobs.iter().any(|j| j.id == 0 && j.state == JobState::Running) {
            break;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    let small = spec(AnalysisMode::Tvla, 10, 1).render();
    let mut second = Client::connect(addr).expect("connect");
    match second.submit("hog", &small, false).expect("submit") {
        Response::Rejected { reason: RejectReason::Saturated { detail } } => {
            assert!(detail.contains("queue full"), "unexpected detail: {detail}");
        }
        other => panic!("expected Rejected(Saturated), got {other:?}"),
    }

    // The refusal is observable in the server's own metrics.
    let metrics = server.metrics();
    assert_eq!(metrics.counter(names::REJECTED), 1);
    assert_eq!(metrics.counter(names::SUBMITTED), 2);

    // Drain stops the running job at its next block boundary.
    let mut drainer = Client::connect(addr).expect("connect");
    match drainer.drain().expect("drain") {
        Response::Drained { completed, rejected } => {
            assert_eq!(completed, 1);
            assert_eq!(rejected, 0);
        }
        other => panic!("expected Drained, got {other:?}"),
    }
    server.join();
}

#[test]
fn cancel_covers_queued_running_and_finished_jobs() {
    let server = start_server(
        1,
        AdmissionConfig { max_queue: 8, tenant_cap: 8, ..AdmissionConfig::default() },
    );
    let addr = server.addr();

    let long = spec(AnalysisMode::Tvla, 4000, 1).render();
    let queued = spec(AnalysisMode::Tvla, 10, 1).render();
    let mut client = Client::connect(addr).expect("connect");
    assert!(matches!(
        client.submit("t", &long, false).expect("submit"),
        Response::Accepted { job: 0 }
    ));
    let mut client = Client::connect(addr).expect("connect");
    assert!(matches!(
        client.submit("t", &queued, false).expect("submit"),
        Response::Accepted { job: 1 }
    ));

    let mut canceller = Client::connect(addr).expect("connect");
    // Job 1 sits behind the long job on the single worker: cancelled outright.
    let outcome = canceller.cancel(1).expect("cancel");
    assert!(
        matches!(outcome, Response::CancelOutcome { job: 1, outcome: CancelResult::Cancelled }),
        "got {outcome:?}"
    );
    // Job 0 is running (or about to be): stopping or cancelled, never NotFound.
    let mut canceller = Client::connect(addr).expect("connect");
    match canceller.cancel(0).expect("cancel") {
        Response::CancelOutcome {
            job: 0,
            outcome: CancelResult::Stopping | CancelResult::Cancelled,
        } => {}
        other => panic!("expected a cancel on job 0, got {other:?}"),
    }
    // Unknown job id.
    let mut canceller = Client::connect(addr).expect("connect");
    assert!(matches!(
        canceller.cancel(99).expect("cancel"),
        Response::CancelOutcome { job: 99, outcome: CancelResult::NotFound }
    ));

    // A malformed spec is a typed refusal, not a dropped connection.
    let mut bad = Client::connect(addr).expect("connect");
    match bad.submit("t", "mode=nonsense\n", false).expect("submit") {
        Response::Rejected { reason: RejectReason::BadSpec { .. } } => {}
        other => panic!("expected BadSpec, got {other:?}"),
    }
    // So is a zero monitor interval: refused at admission, never admitted
    // as a job that fails later.
    let zero_monitor = format!("{}monitor=0\n", spec(AnalysisMode::Tvla, 4, 1).render());
    let mut bad = Client::connect(addr).expect("connect");
    match bad.submit("t", &zero_monitor, false).expect("submit") {
        Response::Rejected { reason: RejectReason::BadSpec { .. } } => {}
        other => panic!("expected BadSpec for monitor=0, got {other:?}"),
    }
    // And a NaN noise σ, which used to panic inside every shard.
    let nan_noise = format!("{}mitigation=noise=NaN\n", spec(AnalysisMode::Tvla, 4, 1).render());
    let mut bad = Client::connect(addr).expect("connect");
    match bad.submit("t", &nan_noise, false).expect("submit") {
        Response::Rejected { reason: RejectReason::BadSpec { .. } } => {}
        other => panic!("expected BadSpec for mitigation=noise=NaN, got {other:?}"),
    }

    let mut drainer = Client::connect(addr).expect("connect");
    assert!(matches!(drainer.drain().expect("drain"), Response::Drained { .. }));
    server.join();
}

#[test]
fn a_waited_report_arrives_on_completion_not_on_the_progress_tick() {
    let server = start_paced_server(1, AdmissionConfig::default(), SLOW_PROGRESS);
    let addr = server.addr();
    let spec = spec(AnalysisMode::Tvla, 10, 1);

    let t0 = Instant::now();
    let mut client = Client::connect(addr).expect("connect");
    assert!(matches!(
        client.submit("t", &spec.render(), true).expect("submit"),
        Response::Accepted { job: 0 }
    ));
    let mut frames = 0;
    let (text, analysis) = expect_report(client.wait_for_report(|_| frames += 1).expect("wait"));
    let elapsed = t0.elapsed();
    assert!(
        elapsed < PROMPT,
        "report took {elapsed:?} under a {SLOW_PROGRESS:?} progress interval"
    );
    assert_eq!(frames, 0, "a job that settles within one interval gets no Progress frame");

    let inline = report::run_spec(&spec);
    assert_eq!(text, report::campaign_banner(&spec) + &inline.body);
    assert_eq!(analysis, inline.analysis);
    assert_eq!(drain(addr), (1, 0));
    server.join();
}

#[test]
fn a_job_in_flight_still_streams_progress_frames() {
    let server = start_server(1, AdmissionConfig::default());
    let addr = server.addr();
    let mut client = Client::connect(addr).expect("connect");
    let long = spec(AnalysisMode::Tvla, 2_000, 1).render();
    assert!(matches!(
        client.submit("t", &long, true).expect("submit"),
        Response::Accepted { job: 0 }
    ));
    let mut frames = 0;
    expect_report(client.wait_for_report(|_| frames += 1).expect("wait"));
    assert!(frames >= 1, "a job longer than the 10 ms interval got no Progress frame");
    assert_eq!(drain(addr), (1, 0));
    server.join();
}

#[test]
fn waiting_clients_of_cancelled_or_drained_queued_jobs_are_answered_at_once() {
    let server = start_paced_server(
        1,
        AdmissionConfig { max_queue: 8, tenant_cap: 8, ..AdmissionConfig::default() },
        SLOW_PROGRESS,
    );
    let addr = server.addr();
    assert_eq!(submit(addr, "t", &hog()), 0);
    wait_until_running(addr, 0);

    // Two waiting clients queue behind the hog on the only worker.
    let mut waiters: Vec<Client> = (1..=2u64)
        .map(|job| {
            let mut client = Client::connect(addr).expect("connect");
            let accepted = client.submit("t", &tiny(), true).expect("submit");
            assert!(matches!(accepted, Response::Accepted { job: id } if id == job));
            client
        })
        .collect();

    let t0 = Instant::now();
    let mut canceller = Client::connect(addr).expect("connect");
    assert!(matches!(
        canceller.cancel(1).expect("cancel"),
        Response::CancelOutcome { job: 1, outcome: CancelResult::Cancelled }
    ));
    let error = expect_failed(waiters[0].wait_for_report(|_| ()).expect("wait"));
    assert_eq!(error, "cancelled while queued");
    assert!(t0.elapsed() < PROMPT, "cancelled job answered after {:?}", t0.elapsed());

    // Drain rejects the other queued job; its client hears at once,
    // while the drain itself still waits for the hog to stop.
    let t0 = Instant::now();
    let drainer = std::thread::spawn(move || drain(addr));
    let error = expect_failed(waiters[1].wait_for_report(|_| ()).expect("wait"));
    assert_eq!(error, "rejected by drain");
    assert!(t0.elapsed() < PROMPT, "drained job answered after {:?}", t0.elapsed());
    // The hog stops early and still counts as completed.
    assert_eq!(drainer.join().expect("drainer thread"), (1, 1));
    server.join();
}

#[test]
fn watch_restreams_a_retained_final_frame_and_refuses_unknown_jobs() {
    let server = start_server(1, AdmissionConfig::default());
    let addr = server.addr();
    let first = submit_and_wait(addr, "t", &tiny()).expect("submit and wait");
    assert!(matches!(first, Response::Report { job: 0, .. }), "got {first:?}");

    let mut watcher = Client::connect(addr).expect("connect");
    assert!(matches!(watcher.watch(0).expect("watch"), Response::Accepted { job: 0 }));
    let again = watcher.wait_for_report(|_| ()).expect("wait");
    assert_eq!(again.encode(), first.encode(), "re-streamed report is not byte-identical");

    let mut watcher = Client::connect(addr).expect("connect");
    assert_eq!(expect_failed(watcher.watch(7).expect("watch")), "no such job: 7");
    assert_eq!(drain(addr), (1, 0));
    server.join();
}

#[test]
fn the_job_table_keeps_only_the_most_recently_finished_jobs() {
    let server = start_server(
        1,
        AdmissionConfig { max_queue: 8, tenant_cap: 8, ..AdmissionConfig::default() },
    );
    let addr = server.addr();
    let finished = |addr| -> Vec<u64> {
        job_list(addr)
            .iter()
            .filter(|j| matches!(j.state, JobState::Completed | JobState::Cancelled))
            .map(|j| j.id)
            .collect()
    };

    // Settle three jobs in an order unlike their ids: 2, 0, 1.
    assert_eq!(submit(addr, "t", &hog()), 0);
    wait_until_running(addr, 0);
    assert_eq!(submit(addr, "t", &tiny()), 1);
    assert_eq!(submit(addr, "t", &tiny()), 2);
    let mut canceller = Client::connect(addr).expect("connect");
    assert!(matches!(
        canceller.cancel(2).expect("cancel"),
        Response::CancelOutcome { outcome: CancelResult::Cancelled, .. }
    ));
    let mut canceller = Client::connect(addr).expect("connect");
    assert!(matches!(
        canceller.cancel(0).expect("cancel"),
        Response::CancelOutcome { outcome: CancelResult::Stopping, .. }
    ));
    let mut watcher = Client::connect(addr).expect("connect");
    assert!(matches!(watcher.watch(1).expect("watch"), Response::Accepted { job: 1 }));
    expect_report(watcher.wait_for_report(|_| ()).expect("wait"));

    // A client that waits on a job but reads only after many more
    // jobs have finished still gets its report.
    let mut late = Client::connect(addr).expect("connect");
    assert!(matches!(
        late.submit("t", &tiny(), true).expect("submit"),
        Response::Accepted { job: 3 }
    ));
    let served = |n: usize| {
        for _ in 0..n {
            expect_report(submit_and_wait(addr, "t", &tiny()).expect("submit and wait"));
        }
    };

    // Filling the table to one over the cap evicts the oldest-settled
    // job (2), not the lowest id (0).
    served(FINISHED_JOBS_RETAINED - 3);
    let kept = finished(addr);
    assert_eq!(kept.len(), FINISHED_JOBS_RETAINED);
    assert!(!kept.contains(&2) && kept.contains(&0) && kept.contains(&1), "kept {kept:?}");
    served(1);
    let kept = finished(addr);
    assert!(!kept.contains(&0) && kept.contains(&1), "kept {kept:?}");
    served(4);
    let total = 4 + (FINISHED_JOBS_RETAINED - 3 + 1 + 4) as u64;
    let kept = finished(addr);
    let newest: Vec<u64> = (total - FINISHED_JOBS_RETAINED as u64..total).collect();
    assert_eq!(kept, newest);
    expect_report(late.wait_for_report(|_| ()).expect("wait"));

    // An evicted job is as unknown to Watch as one never submitted.
    let mut watcher = Client::connect(addr).expect("connect");
    assert_eq!(expect_failed(watcher.watch(0).expect("watch")), "no such job: 0");

    // The counters still count every job.
    let completed = total - 2;
    let metrics = server.metrics();
    assert_eq!(metrics.counter(names::ACCEPTED), total);
    assert_eq!(metrics.counter(names::COMPLETED), completed);
    assert_eq!(metrics.counter(names::CANCELLED), 2);
    assert_eq!(drain(addr), (completed, 0));
    server.join();
}
