//! Bounded FIFO worker pool.
//!
//! Jobs queue in submission order and a fixed set of worker threads
//! drains them; nothing here is asynchronous or work-stealing — FIFO
//! order is part of the service contract (a tenant can reason about
//! when its job runs from `psc jobs` output). The pool measures the
//! queue wait of every dispatched job into a caller-supplied histogram;
//! that histogram's p99 is one of the admission controller's
//! saturation signals.

use psc_telemetry::metrics::Histogram;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Instant;

/// One queued unit of work.
pub struct PoolJob {
    /// Caller-side identity (the server's job id) so a drained queue
    /// can be reported back per job.
    pub id: u64,
    /// When the job was enqueued — dispatch wait is measured from here.
    pub enqueued: Instant,
    /// The work itself.
    pub run: Box<dyn FnOnce() + Send + 'static>,
}

struct Shared {
    queue: Mutex<VecDeque<PoolJob>>,
    available: Condvar,
    shutdown: AtomicBool,
    dispatch_wait_ns: Arc<Histogram>,
}

/// A fixed-size worker pool over a FIFO queue.
pub struct WorkerPool {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
}

impl WorkerPool {
    /// Spawn `workers` threads pulling from a shared
    /// FIFO queue. Every dispatch records its queue wait, in
    /// nanoseconds, into `dispatch_wait_ns`.
    #[must_use]
    pub fn new(workers: usize, dispatch_wait_ns: Arc<Histogram>) -> Self {
        let shared = Arc::new(Shared {
            queue: Mutex::new(VecDeque::new()),
            available: Condvar::new(),
            shutdown: AtomicBool::new(false),
            dispatch_wait_ns,
        });
        let workers = (0..workers)
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("psc-serve-worker-{i}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("spawn worker thread")
            })
            .collect();
        Self { shared, workers }
    }

    /// Enqueue a job. Returns `false` (without enqueueing) after
    /// [`WorkerPool::shutdown`] — the caller decides how to surface
    /// that; the pool never silently drops accepted work.
    pub fn submit(&self, id: u64, run: impl FnOnce() + Send + 'static) -> bool {
        if self.shared.shutdown.load(Ordering::Acquire) {
            return false;
        }
        let mut queue = self.shared.queue.lock().expect("pool queue poisoned");
        queue.push_back(PoolJob { id, enqueued: Instant::now(), run: Box::new(run) });
        drop(queue);
        self.shared.available.notify_one();
        true
    }

    /// Jobs currently waiting for a worker (excludes running jobs).
    #[must_use]
    pub fn queue_depth(&self) -> usize {
        self.shared.queue.lock().expect("pool queue poisoned").len()
    }

    /// Remove and return everything still queued — the drain path:
    /// the server rejects these jobs instead of running them.
    #[must_use]
    pub fn take_queued(&self) -> Vec<PoolJob> {
        self.shared.queue.lock().expect("pool queue poisoned").drain(..).collect()
    }

    /// Stop accepting work and wake the workers; each exits once the
    /// queue is empty. Call [`WorkerPool::join`] to wait for them.
    pub fn shutdown(&self) {
        self.shared.shutdown.store(true, Ordering::Release);
        self.shared.available.notify_all();
    }

    /// Wait for every worker to finish its current job and exit.
    /// Implies [`WorkerPool::shutdown`].
    pub fn join(mut self) {
        self.shutdown();
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

fn worker_loop(shared: &Shared) {
    loop {
        let job = {
            let mut queue = shared.queue.lock().expect("pool queue poisoned");
            loop {
                if let Some(job) = queue.pop_front() {
                    break job;
                }
                if shared.shutdown.load(Ordering::Acquire) {
                    return;
                }
                queue = shared.available.wait(queue).expect("pool queue poisoned");
            }
        };
        let wait_ns = u64::try_from(job.enqueued.elapsed().as_nanos()).unwrap_or(u64::MAX);
        shared.dispatch_wait_ns.record(wait_ns);
        (job.run)();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn runs_jobs_fifo_and_records_dispatch_wait() {
        let hist = Arc::new(Histogram::default());
        let pool = WorkerPool::new(1, Arc::clone(&hist));
        let order = Arc::new(Mutex::new(Vec::new()));
        for i in 0..4u64 {
            let order = Arc::clone(&order);
            assert!(pool.submit(i, move || order.lock().unwrap().push(i)));
        }
        pool.join();
        assert_eq!(*order.lock().unwrap(), vec![0, 1, 2, 3]);
        assert_eq!(hist.count(), 4);
    }

    #[test]
    fn take_queued_drains_pending_work_without_running_it() {
        let hist = Arc::new(Histogram::default());
        let pool = WorkerPool::new(1, hist);
        let gate = Arc::new(Mutex::new(()));
        let blocker = gate.lock().unwrap();
        let ran = Arc::new(AtomicU64::new(0));
        {
            let gate = Arc::clone(&gate);
            let ran = Arc::clone(&ran);
            pool.submit(0, move || {
                drop(gate.lock().unwrap());
                ran.fetch_add(1, Ordering::Relaxed);
            });
        }
        // Wait for the worker to pick up job 0 (it blocks on the gate),
        // then pile up queued jobs behind it.
        while pool.queue_depth() > 0 {
            std::thread::yield_now();
        }
        for i in 1..4u64 {
            let ran = Arc::clone(&ran);
            pool.submit(i, move || {
                ran.fetch_add(1, Ordering::Relaxed);
            });
        }
        let taken = pool.take_queued();
        assert_eq!(taken.iter().map(|j| j.id).collect::<Vec<_>>(), vec![1, 2, 3]);
        drop(blocker);
        pool.join();
        assert_eq!(ran.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn submit_after_shutdown_is_refused() {
        let hist = Arc::new(Histogram::default());
        let pool = WorkerPool::new(2, hist);
        pool.shutdown();
        assert!(!pool.submit(9, || ()));
    }
}
