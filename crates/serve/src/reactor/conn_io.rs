//! The write side of one connection: a queue of encoded frames shared
//! between whichever worker currently serves the connection (which fills
//! it through [`ConnIo::send`], blocking above the high-water mark) and the
//! reactor (which empties it through [`ConnIo::drain_to`]).  Nothing
//! outside this file sees the queue's representation.

use super::ReactorShared;
use crate::error::ProtocolError;
use crate::protocol::{encode_frame, frame, ErrorResponse};
use std::collections::VecDeque;
use std::io::{ErrorKind, Write};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};

/// Total response bytes written to client connections.
static BYTES_OUT: ngd_obs::LazyCounter = ngd_obs::LazyCounter::new("serve.bytes.out");
/// Times a worker blocked on a connection's full write queue (once per
/// stall, not per retry) — a rising rate means slow readers.
static BACKPRESSURE_STALLS: ngd_obs::LazyCounter =
    ngd_obs::LazyCounter::new("serve.backpressure.stalls");

/// Default per-connection write-queue high-water mark (1 MiB).
const DEFAULT_WRITE_BUFFER_LIMIT: usize = 1 << 20;

/// One connection's write queue and its back-pressure state.
pub(crate) struct ConnIo {
    token: u64,
    reactor: Arc<ReactorShared>,
    /// High-water mark: [`ConnIo::send`] blocks while `total` is at or
    /// above this.
    limit: usize,
    write: Mutex<WriteBuf>,
    /// Signalled when the queue drains below a quarter of `limit` (and on
    /// death), releasing a stalled worker.
    drained: Condvar,
    dead: AtomicBool,
}

#[derive(Default)]
struct WriteBuf {
    queue: VecDeque<Vec<u8>>,
    /// Bytes of `queue[0]` already written to the socket.
    front_pos: usize,
    /// Unwritten bytes across the whole queue.
    total: usize,
}

/// What one [`ConnIo::drain_to`] pass left behind.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) enum Drained {
    /// Every queued byte reached the writer.
    Empty,
    /// The writer would block with bytes still queued: keep write interest
    /// armed.
    Pending,
    /// The peer is gone (write error, or a write that accepted nothing).
    Broken,
}

impl ConnIo {
    /// `limit`: [`crate::ServeOptions::write_buffer_limit`].
    pub(super) fn new(token: u64, reactor: Arc<ReactorShared>, limit: Option<usize>) -> ConnIo {
        ConnIo {
            token,
            reactor,
            limit: limit.unwrap_or(DEFAULT_WRITE_BUFFER_LIMIT).max(1),
            write: Mutex::new(WriteBuf::default()),
            drained: Condvar::new(),
            dead: AtomicBool::new(false),
        }
    }

    /// Queue one frame for the reactor to write, blocking while the
    /// connection's write queue is above its high-water mark.  This is the
    /// back-pressure path: a slow reader suspends *this session's*
    /// producer (a worker or its detect threads), never the event loop.
    pub(crate) fn send(&self, kind: u32, payload: &[u8]) -> Result<(), ProtocolError> {
        let bytes = encode_frame(kind, payload)?;
        let mut buf = self.write.lock().expect("write queue lock");
        let mut stalled = false;
        while buf.total >= self.limit && !self.dead.load(Ordering::SeqCst) {
            if !stalled {
                BACKPRESSURE_STALLS.inc();
                stalled = true;
            }
            buf = self.drained.wait(buf).expect("write queue lock");
        }
        if self.dead.load(Ordering::SeqCst) {
            return Err(ProtocolError::Disconnected);
        }
        buf.total += bytes.len();
        buf.queue.push_back(bytes);
        drop(buf);
        self.reactor.request_flush(self.token);
        Ok(())
    }

    /// Send an `ERROR` frame (best-effort — the peer may already be gone).
    pub(crate) fn send_error(&self, code: u32, message: String) {
        let payload = ErrorResponse { code, message }.encode();
        let _ = self.send(frame::ERROR, &payload);
    }

    /// Queue an `ERROR` frame ignoring the high-water mark — reactor-only,
    /// for the answer on a broken stream (the reactor must never block).
    pub(super) fn queue_error_unbounded(&self, code: u32, message: String) {
        let payload = ErrorResponse { code, message }.encode();
        if let Ok(bytes) = encode_frame(frame::ERROR, &payload) {
            let mut buf = self.write.lock().expect("write queue lock");
            buf.total += bytes.len();
            buf.queue.push_back(bytes);
        }
    }

    /// Write queued bytes to `out` in order until the queue empties, `out`
    /// would block, or the peer proves gone — resuming mid-frame where the
    /// previous pass stopped.  Low-water release: wakes a producer stalled
    /// on back-pressure once less than a quarter of the limit is left.
    pub(super) fn drain_to(&self, out: &mut impl Write) -> Drained {
        let mut buf = self.write.lock().expect("write queue lock");
        let mut outcome = Drained::Empty;
        while let Some(front) = buf.queue.front() {
            let front_len = front.len();
            let n = match out.write(&front[buf.front_pos..]) {
                Ok(0) => {
                    outcome = Drained::Broken;
                    break;
                }
                Ok(n) => n,
                Err(e) if e.kind() == ErrorKind::WouldBlock => {
                    outcome = Drained::Pending;
                    break;
                }
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(_) => {
                    outcome = Drained::Broken;
                    break;
                }
            };
            BYTES_OUT.add(n as u64);
            buf.front_pos += n;
            buf.total -= n;
            if buf.front_pos == front_len {
                buf.queue.pop_front();
                buf.front_pos = 0;
            }
        }
        if buf.total < self.limit / 4 {
            self.drained.notify_all();
        }
        outcome
    }

    /// Mark the connection dead and release any stalled producer (it
    /// observes [`ProtocolError::Disconnected`] instead of blocking
    /// forever).  Taking the lock before notifying closes the window where
    /// a producer has checked `dead`, not yet parked, and would miss the
    /// wake-up.
    pub(super) fn mark_dead(&self) {
        self.dead.store(true, Ordering::SeqCst);
        drop(self.write.lock().expect("write queue lock"));
        self.drained.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc;
    use std::time::Duration;

    /// A fake socket: each `write` is answered from a script — `Ok(k)`
    /// accepts at most `k` bytes, `Ok(0)` is a peer that takes nothing any
    /// more — then with `Ok(tail)` forever (`tail = 0`: would block).
    struct Scripted {
        steps: VecDeque<std::io::Result<usize>>,
        tail: usize,
        out: Vec<u8>,
    }

    fn scripted<const N: usize>(steps: [Result<usize, ErrorKind>; N], tail: usize) -> Scripted {
        Scripted {
            steps: steps.into_iter().map(|s| s.map_err(Into::into)).collect(),
            tail,
            out: Vec::new(),
        }
    }

    impl Write for Scripted {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            let accept = match self.steps.pop_front() {
                Some(step) => step?,
                None if self.tail > 0 => self.tail,
                None => return Err(ErrorKind::WouldBlock.into()),
            };
            let n = accept.min(buf.len());
            self.out.extend_from_slice(&buf[..n]);
            Ok(n)
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    fn conn_io(limit: usize) -> ConnIo {
        ConnIo::new(7, Arc::new(ReactorShared::new().unwrap()), Some(limit))
    }

    /// Queue three frames of different sizes; returns their wire bytes.
    fn queue_three_frames(io: &ConnIo) -> Vec<Vec<u8>> {
        [
            (frame::OK, 5usize),
            (frame::VIO_CHUNK, 300),
            (frame::ERROR, 0),
        ]
        .into_iter()
        .map(|(kind, len)| {
            let payload: Vec<u8> = (0..len).map(|i| (i % 251) as u8).collect();
            io.send(kind, &payload).unwrap();
            encode_frame(kind, &payload).unwrap()
        })
        .collect()
    }

    /// `(frames queued, front_pos, total)`.
    fn queue_state(io: &ConnIo) -> (usize, usize, usize) {
        let buf = io.write.lock().unwrap();
        (buf.queue.len(), buf.front_pos, buf.total)
    }

    #[test]
    fn drain_writes_exact_bytes_in_order_resuming_mid_frame() {
        for k in [1, 7, 33, 1000] {
            let io = conn_io(1 << 20);
            let frames = queue_three_frames(&io);
            let wire = frames.concat();
            let mut written = Vec::new();
            loop {
                // Each pass: an EINTR (retried, not reported), two writes of
                // at most `k` bytes, then the socket is full.
                let mut out = scripted([Err(ErrorKind::Interrupted), Ok(k), Ok(k)], 0);
                let outcome = io.drain_to(&mut out);
                written.extend(out.out);
                // Whole frames are popped; the partly written one is resumed
                // at `front_pos`; `total` is what is still owed.
                let (mut queued, mut front_pos) = (frames.len(), written.len());
                while queued > 0 && front_pos >= frames[frames.len() - queued].len() {
                    front_pos -= frames[frames.len() - queued].len();
                    queued -= 1;
                }
                let owed = wire.len() - written.len();
                assert_eq!(queue_state(&io), (queued, front_pos, owed), "k = {k}");
                if outcome == Drained::Empty {
                    break;
                }
                assert_eq!(outcome, Drained::Pending, "k = {k}");
            }
            assert_eq!(written, wire, "k = {k}");
        }
    }

    #[test]
    fn a_peer_that_accepts_nothing_or_errors_is_broken() {
        for failure in [Ok(0), Err(ErrorKind::BrokenPipe)] {
            let io = conn_io(1 << 20);
            let wire = queue_three_frames(&io).concat();
            let mut out = scripted([Ok(3), failure], 1000);
            assert_eq!(io.drain_to(&mut out), Drained::Broken, "{failure:?}");
            // Stopped at the failure: what was accepted is accounted for,
            // nothing after it was attempted.
            assert_eq!(out.out, &wire[..3], "{failure:?}");
            assert_eq!(queue_state(&io), (3, 3, wire.len() - 3), "{failure:?}");
        }
        // An empty queue is not a broken peer.
        let mut never_asked = scripted([Err(ErrorKind::BrokenPipe)], 0);
        assert_eq!(conn_io(1 << 20).drain_to(&mut never_asked), Drained::Empty);
    }

    /// Run `io.send` on a thread and return once that thread is parked on
    /// the full queue.  The stall counter is bumped under the queue lock
    /// just before the wait releases it, so whoever takes the lock after
    /// seeing the bump finds the producer parked.
    fn stalled_producer(io: &Arc<ConnIo>) -> mpsc::Receiver<Result<(), ProtocolError>> {
        let stalls = ngd_obs::global().counter("serve.backpressure.stalls");
        let before = stalls.value();
        let (tx, rx) = mpsc::channel();
        let producer = Arc::clone(io);
        std::thread::spawn(move || {
            let _ = tx.send(producer.send(frame::OK, b"late"));
        });
        while stalls.value() == before {
            std::thread::yield_now();
        }
        drop(io.write.lock().unwrap());
        rx
    }

    #[test]
    fn a_stalled_producer_is_released_below_a_quarter_of_the_limit_or_on_death() {
        let limit = 400;
        let io = Arc::new(conn_io(limit));
        io.send(frame::OK, &vec![0xAB; limit]).unwrap();
        let queued = queue_state(&io).2;
        let released = stalled_producer(&io);

        // Draining to just above the low-water mark wakes nobody: the
        // producer's frame is not queued.
        let mut out = scripted([Ok(queued - limit / 4)], 0);
        assert_eq!(io.drain_to(&mut out), Drained::Pending);
        assert_eq!(queue_state(&io), (1, queued - limit / 4, limit / 4));
        assert!(released.try_recv().is_err());

        // One more byte crosses it.
        assert_eq!(io.drain_to(&mut scripted([Ok(1)], 0)), Drained::Pending);
        let sent = released.recv_timeout(Duration::from_secs(30)).unwrap();
        assert!(sent.is_ok());
        assert_eq!(queue_state(&io).0, 2);

        // Death releases a stalled producer too, with a typed error.
        io.send(frame::OK, &vec![0xCD; limit]).unwrap();
        let released = stalled_producer(&io);
        io.mark_dead();
        let sent = released.recv_timeout(Duration::from_secs(30)).unwrap();
        assert!(matches!(sent, Err(ProtocolError::Disconnected)));
    }
}
