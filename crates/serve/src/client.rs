//! A small blocking client for the `psc serve` protocol — one
//! connection per request, mirroring the server's
//! request-per-connection model. The CLI subcommands (`psc submit`,
//! `psc jobs`, `psc cancel`, `psc drain`) and the integration tests
//! are all built on this.

use crate::proto::{read_frame, write_frame, ProtoError, Request, Response};
use psc_telemetry::faults::RetryPolicy;
use psc_telemetry::metrics::MetricsSnapshot;
use std::net::{TcpStream, ToSocketAddrs};

/// One protocol exchange with a server.
pub struct Client {
    stream: TcpStream,
}

impl Client {
    /// Connect to a server.
    ///
    /// # Errors
    ///
    /// [`ProtoError::Io`] when the connection fails.
    pub fn connect(addr: impl ToSocketAddrs) -> Result<Self, ProtoError> {
        Ok(Self { stream: TcpStream::connect(addr)? })
    }

    /// Send one request frame.
    ///
    /// # Errors
    ///
    /// Propagates wire-layer failures.
    pub fn send(&mut self, request: &Request) -> Result<(), ProtoError> {
        write_frame(&mut self.stream, &request.encode())
    }

    /// Read one response frame.
    ///
    /// # Errors
    ///
    /// Propagates wire-layer and decode failures.
    pub fn recv(&mut self) -> Result<Response, ProtoError> {
        Response::decode(&read_frame(&mut self.stream)?)
    }

    /// Submit a campaign spec and return the server's first answer
    /// ([`Response::Accepted`] or [`Response::Rejected`]). With
    /// `wait`, keep this client around and call
    /// [`Client::wait_for_report`] next.
    ///
    /// # Errors
    ///
    /// Propagates wire-layer and decode failures.
    pub fn submit(&mut self, tenant: &str, spec: &str, wait: bool) -> Result<Response, ProtoError> {
        self.send(&Request::Submit { tenant: tenant.to_owned(), wait, spec: spec.to_owned() })?;
        self.recv()
    }

    /// After an accepted `wait` submit: consume [`Response::Progress`]
    /// frames (passing each snapshot to `on_progress`) until the final
    /// frame — [`Response::Report`] on success, [`Response::Rejected`]
    /// on failure/cancellation — and return it.
    ///
    /// # Errors
    ///
    /// Propagates wire-layer and decode failures.
    pub fn wait_for_report(
        &mut self,
        mut on_progress: impl FnMut(&MetricsSnapshot),
    ) -> Result<Response, ProtoError> {
        loop {
            match self.recv()? {
                Response::Progress { metrics, .. } => on_progress(&metrics),
                other => return Ok(other),
            }
        }
    }

    /// Re-attach to a job this client (or a previous connection)
    /// already submitted: the server answers [`Response::Accepted`]
    /// and resumes streaming progress (the final frame at once if the
    /// job has finished), or [`Response::Rejected`] for an unknown or
    /// evicted job id. Call [`Client::wait_for_report`] next.
    ///
    /// # Errors
    ///
    /// Propagates wire-layer and decode failures.
    pub fn watch(&mut self, job: u64) -> Result<Response, ProtoError> {
        self.send(&Request::Watch { job })?;
        self.recv()
    }

    /// Ask for the job list and server metrics.
    ///
    /// # Errors
    ///
    /// Propagates wire-layer and decode failures.
    pub fn status(&mut self) -> Result<Response, ProtoError> {
        self.send(&Request::Status)?;
        self.recv()
    }

    /// Cancel a job.
    ///
    /// # Errors
    ///
    /// Propagates wire-layer and decode failures.
    pub fn cancel(&mut self, job: u64) -> Result<Response, ProtoError> {
        self.send(&Request::Cancel { job })?;
        self.recv()
    }

    /// Drain the server: blocks until everything in flight has
    /// settled and returns the [`Response::Drained`] summary.
    ///
    /// # Errors
    ///
    /// Propagates wire-layer and decode failures.
    pub fn drain(&mut self) -> Result<Response, ProtoError> {
        self.send(&Request::Drain)?;
        self.recv()
    }
}

/// Submit with `wait` on a fresh connection and block until the final
/// frame, discarding progress snapshots.
///
/// # Errors
///
/// Propagates connection, wire-layer and decode failures.
pub fn submit_and_wait(
    addr: impl ToSocketAddrs,
    tenant: &str,
    spec: &str,
) -> Result<Response, ProtoError> {
    let mut client = Client::connect(addr)?;
    match client.submit(tenant, spec, true)? {
        Response::Accepted { .. } => client.wait_for_report(|_| ()),
        other => Ok(other),
    }
}

/// Submit with `wait` and survive transient disconnects: if the wait
/// stream drops mid-campaign, reconnect under `retry` (deterministic
/// jittered backoff, salted by the job id) and re-subscribe to the
/// same job with [`Request::Watch`]. The job keeps running server-side
/// across the gap, so the final frame is identical to an undisturbed
/// wait. Each progress snapshot is passed to `on_progress`.
///
/// # Errors
///
/// Propagates the submit-path failures verbatim; a wait-stream failure
/// is returned only once the retry budget is exhausted.
pub fn submit_and_wait_with_retry(
    addr: impl ToSocketAddrs + Clone,
    tenant: &str,
    spec: &str,
    retry: &RetryPolicy,
    mut on_progress: impl FnMut(&MetricsSnapshot),
) -> Result<Response, ProtoError> {
    let mut client = Client::connect(addr.clone())?;
    let job = match client.submit(tenant, spec, true)? {
        Response::Accepted { job } => job,
        other => return Ok(other),
    };
    let mut attempt = 1u32;
    loop {
        match client.wait_for_report(&mut on_progress) {
            Ok(response) => return Ok(response),
            Err(e) => {
                // The job survives the dropped stream; reconnect and
                // re-subscribe by id until the retry budget runs out.
                if !retry.should_retry(attempt) {
                    return Err(e);
                }
                std::thread::sleep(retry.delay(attempt, job));
                attempt += 1;
                client = match Client::connect(addr.clone()) {
                    Ok(client) => client,
                    Err(_) => continue,
                };
                match client.watch(job) {
                    Ok(Response::Accepted { .. }) => {}
                    Ok(other) => return Ok(other),
                    Err(_) => continue,
                }
            }
        }
    }
}
