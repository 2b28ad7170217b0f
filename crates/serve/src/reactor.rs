//! The event loop: one `ngd-serve-reactor` thread runs [`reactor_loop`],
//! which owns the listener and every connection fd in non-blocking mode,
//! parses frames incrementally into per-connection read buffers, hands
//! complete requests to the [`WorkerPool`], and drains the per-connection
//! write queues that workers' own non-blocking writes left behind — it
//! never blocks on any one peer.  The write side ([`ConnIo`]) lives in the
//! child module `conn_io`, so the loop cannot name its fields.

use crate::addr::{Listener, Stream};
use crate::poller::{Interest, Poller, Waker};
use crate::pool::{Completion, Job, WorkerPool};
use crate::protocol::{err_code, scan_frame};
use crate::server::Shared;
use crate::session::{Disposition, SessionState};
use std::collections::HashMap;
use std::io::{ErrorKind, Read};
use std::sync::atomic::Ordering;
use std::sync::{Arc, Mutex};

mod conn_io;

pub(crate) use conn_io::ConnIo;
use conn_io::Drained;

/// Total request bytes read off client connections.
static BYTES_IN: ngd_obs::LazyCounter = ngd_obs::LazyCounter::new("serve.bytes.in");
/// Sessions accepted since startup (mirrors `Shared::sessions_total`).
static SESSIONS_TOTAL: ngd_obs::LazyCounter = ngd_obs::LazyCounter::new("serve.sessions.total");
/// Sessions currently connected (mirrors `Shared::sessions_active`).
static SESSIONS_ACTIVE: ngd_obs::LazyGauge = ngd_obs::LazyGauge::new("serve.sessions.active");
/// Poller wake-ups of the reactor loop.
static LOOP_ITERATIONS: ngd_obs::LazyCounter = ngd_obs::LazyCounter::new("serve.loop.iterations");
/// Readiness events delivered across all reactor wake-ups; the ratio to
/// `serve.loop.iterations` is the loop's batching factor under load.
static LOOP_READY_EVENTS: ngd_obs::LazyCounter =
    ngd_obs::LazyCounter::new("serve.loop.ready_events");

/// State the reactor shares with worker threads and the
/// [`crate::Server`] handle: the waker that interrupts a blocked
/// `Poller::wait`, plus the two mailboxes workers fill (flush requests for
/// bytes a socket would not take, and finished requests).
pub(crate) struct ReactorShared {
    waker: Waker,
    /// Connections whose write queues gained bytes since the last pass.
    flush: Mutex<Vec<u64>>,
    /// Finished requests waiting for the reactor to re-park their
    /// sessions.
    completions: Mutex<Vec<Completion>>,
}

impl ReactorShared {
    pub(crate) fn new() -> std::io::Result<ReactorShared> {
        Ok(ReactorShared {
            waker: Waker::new()?,
            flush: Mutex::new(Vec::new()),
            completions: Mutex::new(Vec::new()),
        })
    }

    /// Poke the event loop awake so it observes a state change made from
    /// outside (shutdown request, drop).
    pub(crate) fn wake(&self) {
        self.waker.wake();
    }

    fn request_flush(&self, token: u64) {
        let mut flush = self.flush.lock().expect("flush list lock");
        if !flush.contains(&token) {
            flush.push(token);
        }
        drop(flush);
        self.waker.wake();
    }

    pub(crate) fn complete(&self, completion: Completion) {
        self.completions
            .lock()
            .expect("completion list lock")
            .push(completion);
        self.waker.wake();
    }
}

/// One connection as the reactor sees it.
struct Connection {
    /// The socket, shared with `io` (whose sender writes to it directly).
    stream: Arc<Stream>,
    /// Bytes read but not yet parsed into a frame.
    read_buf: Vec<u8>,
    io: Arc<ConnIo>,
    /// The parked session; `None` while a worker runs a request on it.
    state: Option<SessionState>,
    /// Interest currently registered with the poller.
    interest: Interest,
    /// Close once the write queue drains.
    closing: bool,
    /// The last flush left unwritten bytes; keep write interest armed.
    want_write: bool,
}

struct Reactor {
    shared: Arc<Shared>,
    notify: Arc<ReactorShared>,
    poller: Poller,
    conns: HashMap<u64, Connection>,
    next_token: u64,
}

const LISTENER_TOKEN: u64 = 0;
const WAKER_TOKEN: u64 = 1;

/// Run the event loop; returns once shutdown is signalled and the last
/// connection has drained, after joining the pool.
pub(crate) fn reactor_loop(
    shared: Arc<Shared>,
    notify: Arc<ReactorShared>,
    listener: Listener,
) -> std::io::Result<()> {
    let mut poller = Poller::new()?;
    poller.register(listener.raw_fd(), LISTENER_TOKEN, Interest::READ)?;
    poller.register(notify.waker.fd(), WAKER_TOKEN, Interest::READ)?;
    let pool = WorkerPool::start(&shared, &notify)?;
    let mut reactor = Reactor {
        shared,
        notify,
        poller,
        conns: HashMap::new(),
        next_token: 2,
    };
    let mut listener = Some(listener);
    let mut events = Vec::new();
    loop {
        // Shutdown: close the listener at once; exit when the last
        // connection drains.
        if reactor.shared.is_shutting_down() {
            if let Some(l) = listener.take() {
                let _ = reactor.poller.deregister(l.raw_fd());
                // Dropping the listener closes the socket.
            }
            if reactor.conns.is_empty() {
                break;
            }
        }
        events.clear();
        reactor.poller.wait(&mut events)?;
        LOOP_ITERATIONS.inc();
        LOOP_READY_EVENTS.add(events.len() as u64);
        for event in &events {
            match event.token {
                WAKER_TOKEN => reactor.notify.waker.drain(),
                LISTENER_TOKEN => {
                    if let Some(l) = listener.as_ref() {
                        reactor.accept_ready(l);
                    }
                }
                token => {
                    if event.readable {
                        reactor.on_readable(token, &pool);
                    }
                    if event.writable {
                        reactor.try_flush(token);
                    }
                }
            }
        }
        // Worker signals (completions, flush requests) arrive at any time;
        // the waker guarantees this pass happens promptly after each.
        reactor.drain_worker_signals(&pool);
    }
    pool.join();
    Ok(())
}

impl Reactor {
    fn accept_ready(&mut self, listener: &Listener) {
        loop {
            match listener.accept_nonblocking() {
                Ok(stream) => {
                    let token = self.next_token;
                    self.next_token += 1;
                    let stream = Arc::new(stream);
                    let io = Arc::new(ConnIo::new(
                        token,
                        Arc::clone(&self.notify),
                        Arc::clone(&stream),
                        self.shared.options.write_buffer_limit,
                    ));
                    if self
                        .poller
                        .register(stream.raw_fd(), token, Interest::READ)
                        .is_err()
                    {
                        // Dropping the stream refuses this one connection;
                        // the daemon itself survives.
                        continue;
                    }
                    self.shared.sessions_total.fetch_add(1, Ordering::SeqCst);
                    self.shared.sessions_active.fetch_add(1, Ordering::SeqCst);
                    SESSIONS_TOTAL.inc();
                    SESSIONS_ACTIVE.add(1);
                    self.conns.insert(
                        token,
                        Connection {
                            stream,
                            read_buf: Vec::new(),
                            io,
                            state: Some(SessionState::new(&self.shared)),
                            interest: Interest::READ,
                            closing: false,
                            want_write: false,
                        },
                    );
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(_) => break,
            }
        }
    }

    fn on_readable(&mut self, token: u64, pool: &WorkerPool) {
        let closed = {
            let Some(conn) = self.conns.get_mut(&token) else {
                return;
            };
            if conn.closing || conn.state.is_none() {
                // Draining to close, or a worker is busy (read interest is
                // disarmed; this event raced the modify).  Level-triggered
                // readiness will resurface once interest returns.
                return;
            }
            let mut chunk = [0u8; 64 * 1024];
            loop {
                match (&*conn.stream).read(&mut chunk) {
                    Ok(0) => break true,
                    Ok(n) => {
                        BYTES_IN.add(n as u64);
                        conn.read_buf.extend_from_slice(&chunk[..n]);
                        if n < chunk.len() {
                            // Short read: the socket is (momentarily)
                            // drained; anything more re-notifies.
                            break false;
                        }
                    }
                    Err(e) if e.kind() == ErrorKind::WouldBlock => break false,
                    Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                    Err(_) => break true,
                }
            }
        };
        if closed {
            self.teardown(token);
        } else {
            self.pump(token, pool);
        }
    }

    /// Parse and dispatch buffered frames while the connection is idle.
    /// At most one request per connection is ever in flight: once a frame
    /// is handed to the pool, parsing stops (and read interest drops)
    /// until its completion returns — pipelining clients queue in their
    /// socket buffers, which is exactly the back-pressure we want.
    fn pump(&mut self, token: u64, pool: &WorkerPool) {
        loop {
            let Some(conn) = self.conns.get_mut(&token) else {
                return;
            };
            if conn.closing || conn.state.is_none() || conn.read_buf.is_empty() {
                break;
            }
            match scan_frame(&conn.read_buf) {
                Ok(None) => break,
                Ok(Some((kind, payload, consumed))) => {
                    conn.read_buf.drain(..consumed);
                    let state = conn.state.take().expect("idle session state");
                    let io = Arc::clone(&conn.io);
                    pool.submit(Job {
                        token,
                        kind,
                        payload,
                        state,
                        io,
                    });
                }
                Err(e) => {
                    // Framing is broken — the stream cannot be trusted any
                    // further.  Answer why (best-effort, unbounded queue so
                    // the reactor cannot block) and close once it drains.
                    conn.io
                        .queue_error_unbounded(err_code::BAD_REQUEST, e.to_string());
                    conn.closing = true;
                    self.try_flush(token);
                    return;
                }
            }
        }
        self.update_interest(token);
    }

    /// Write queued bytes to the socket until it would block; tears the
    /// connection down on a write error or when a draining `closing`
    /// connection empties.
    fn try_flush(&mut self, token: u64) {
        let closed = {
            let Some(conn) = self.conns.get_mut(&token) else {
                return;
            };
            let outcome = conn.io.drain_to(&mut &*conn.stream);
            conn.want_write = outcome == Drained::Pending;
            outcome == Drained::Broken || (conn.closing && outcome == Drained::Empty)
        };
        if closed {
            self.teardown(token);
        } else {
            self.update_interest(token);
        }
    }

    /// Re-register the poller interest implied by the connection's state.
    fn update_interest(&mut self, token: u64) {
        let Some(conn) = self.conns.get_mut(&token) else {
            return;
        };
        let desired = Interest {
            read: conn.state.is_some() && !conn.closing,
            write: conn.want_write,
        };
        if desired != conn.interest
            && self
                .poller
                .modify(conn.stream.raw_fd(), token, desired)
                .is_ok()
        {
            conn.interest = desired;
        }
    }

    /// Remove a connection: shut the socket down, release any stalled
    /// producer, drop the parked session (releasing its snapshot pin).  A
    /// session held by an in-flight worker is dropped when its completion
    /// arrives and finds the connection gone; the socket's fd closes with
    /// the last holder of its stream.
    fn teardown(&mut self, token: u64) {
        let Some(conn) = self.conns.remove(&token) else {
            return;
        };
        conn.io.mark_dead();
        let _ = self.poller.deregister(conn.stream.raw_fd());
        self.shared.sessions_active.fetch_sub(1, Ordering::SeqCst);
        SESSIONS_ACTIVE.add(-1);
        // `conn` drops here, and with it any parked SessionState and its
        // Arc<SnapshotStore>.
    }

    /// Drain worker mailboxes: re-park finished sessions (dispatching the
    /// next pipelined frame if one is already buffered) and flush
    /// connections whose queues gained bytes.
    fn drain_worker_signals(&mut self, pool: &WorkerPool) {
        loop {
            let completions = std::mem::take(
                &mut *self
                    .notify
                    .completions
                    .lock()
                    .expect("completion list lock"),
            );
            let flushes = std::mem::take(&mut *self.notify.flush.lock().expect("flush list lock"));
            if completions.is_empty() && flushes.is_empty() {
                break;
            }
            for completion in completions {
                self.on_completion(completion, pool);
            }
            for token in flushes {
                self.try_flush(token);
            }
        }
    }

    fn on_completion(&mut self, completion: Completion, pool: &WorkerPool) {
        let Completion {
            token,
            state,
            disposition,
        } = completion;
        let Some(conn) = self.conns.get_mut(&token) else {
            // Torn down mid-request: release the session (and its epoch
            // mapping) now.
            drop(state);
            return;
        };
        match disposition {
            Disposition::Close => {
                conn.closing = true;
                drop(state);
                self.try_flush(token);
            }
            Disposition::KeepAlive => {
                conn.state = Some(state);
                self.pump(token, pool);
            }
        }
    }
}
