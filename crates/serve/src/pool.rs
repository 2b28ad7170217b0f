//! The bounded worker pool: `worker_threads` OS threads execute requests,
//! so thousands of idle connections cost zero threads and at most
//! `worker_threads` requests run at once.  A connection's parked
//! [`SessionState`] travels to a worker inside a [`Job`] and back to the
//! reactor inside a [`Completion`].

use crate::reactor::{ConnIo, ReactorShared};
use crate::server::Shared;
use crate::session::{handle_request, route, Disposition, Route, SessionState};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Instant;

/// Requests parked in the worker-pool queue right now.
static QUEUE_DEPTH: ngd_obs::LazyGauge = ngd_obs::LazyGauge::new("serve.queue.depth");

/// Default worker-pool size: one per core up to 8, at least 2 (so one
/// long expansion never monopolises the daemon).
fn default_worker_count() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4)
        .clamp(2, 8)
}

/// One request in flight from the reactor to the worker pool.
pub(crate) struct Job {
    pub(crate) token: u64,
    pub(crate) kind: u32,
    pub(crate) payload: Vec<u8>,
    pub(crate) state: SessionState,
    pub(crate) io: Arc<ConnIo>,
}

/// A finished request on its way back to the reactor.
pub(crate) struct Completion {
    pub(crate) token: u64,
    pub(crate) state: SessionState,
    pub(crate) disposition: Disposition,
}

struct PoolShared {
    queue: Mutex<VecDeque<Job>>,
    ready: Condvar,
    stop: AtomicBool,
}

/// Connections beyond `worker_threads` wait in the queue
/// (`serve.queue.depth`), their sockets exerting TCP back-pressure because
/// the reactor keeps their read interest disarmed while a request is
/// outstanding.
pub(crate) struct WorkerPool {
    inner: Arc<PoolShared>,
    handles: Vec<std::thread::JoinHandle<()>>,
}

impl WorkerPool {
    /// Spawn [`crate::ServeOptions::worker_threads`] workers (default
    /// [`default_worker_count`]).
    pub(crate) fn start(
        shared: &Arc<Shared>,
        reactor: &Arc<ReactorShared>,
    ) -> std::io::Result<WorkerPool> {
        let count = shared
            .options
            .worker_threads
            .unwrap_or_else(default_worker_count)
            .max(1);
        let inner = Arc::new(PoolShared {
            queue: Mutex::new(VecDeque::new()),
            ready: Condvar::new(),
            stop: AtomicBool::new(false),
        });
        let mut handles = Vec::with_capacity(count);
        for _ in 0..count {
            let pool = Arc::clone(&inner);
            let shared = Arc::clone(shared);
            let reactor = Arc::clone(reactor);
            handles.push(
                std::thread::Builder::new()
                    .name("ngd-serve-worker".into())
                    .spawn(move || worker_loop(pool, shared, reactor))?,
            );
        }
        Ok(WorkerPool { inner, handles })
    }

    pub(crate) fn submit(&self, job: Job) {
        let mut queue = self.inner.queue.lock().expect("job queue lock");
        queue.push_back(job);
        QUEUE_DEPTH.set(queue.len() as i64);
        drop(queue);
        self.inner.ready.notify_one();
    }

    /// Stop after the queue drains and join every worker.
    pub(crate) fn join(mut self) {
        self.inner.stop.store(true, Ordering::SeqCst);
        self.inner.ready.notify_all();
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

fn worker_loop(pool: Arc<PoolShared>, shared: Arc<Shared>, reactor: Arc<ReactorShared>) {
    loop {
        let job = {
            let mut queue = pool.queue.lock().expect("job queue lock");
            loop {
                if let Some(job) = queue.pop_front() {
                    QUEUE_DEPTH.set(queue.len() as i64);
                    break Some(job);
                }
                if pool.stop.load(Ordering::SeqCst) {
                    break None;
                }
                queue = pool.ready.wait(queue).expect("job queue lock");
            }
        };
        let Some(mut job) = job else { return };
        let disposition = {
            let _frame_timer = FrameTimer::start(job.kind);
            match handle_request(&shared, &mut job.state, &job.io, job.kind, &job.payload) {
                Ok(disposition) => disposition,
                // The sink failed (client gone mid-answer): nothing more
                // can be said on this connection.
                Err(_) => Disposition::Close,
            }
        };
        reactor.complete(Completion {
            token: job.token,
            state: job.state,
            disposition,
        });
    }
}

/// Counts a request on construction and records its latency on drop, so
/// the sample lands even when the handler bails early with an error
/// reply.  The kind's instruments come resolved with its [`Route`].
struct FrameTimer {
    route: &'static Route,
    start: Instant,
}

impl FrameTimer {
    fn start(kind: u32) -> Option<FrameTimer> {
        if !ngd_obs::enabled() {
            return None;
        }
        let route = route(kind)?;
        route.count.inc();
        Some(FrameTimer {
            route,
            start: Instant::now(),
        })
    }
}

impl Drop for FrameTimer {
    fn drop(&mut self) {
        self.route.latency.record_duration(self.start.elapsed());
    }
}
