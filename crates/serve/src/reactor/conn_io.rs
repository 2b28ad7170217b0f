//! The write side of one connection: its socket, shared with the
//! reactor, and a queue of encoded frames.  Whichever worker currently
//! serves the connection sends through [`ConnIo::send`]: a frame that
//! finds the queue empty is written to the socket at once, and only what
//! the socket will not take is queued (blocking above the high-water
//! mark) for the reactor to empty through [`ConnIo::drain_to`].  Nothing
//! outside this file sees the queue's representation.

use super::ReactorShared;
use crate::addr::Stream;
use crate::error::ProtocolError;
use crate::protocol::{encode_frame, frame, ErrorResponse};
use std::collections::VecDeque;
use std::io::{ErrorKind, Write};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};

/// Response bytes handed to client connections, counted when a frame is
/// accepted by [`ConnIo::send`] or [`ConnIo::queue_error_unbounded`] —
/// before the socket takes them, so a client that has read its answer
/// finds them counted.
static BYTES_OUT: ngd_obs::LazyCounter = ngd_obs::LazyCounter::new("serve.bytes.out");
/// Times a worker blocked on a connection's full write queue (once per
/// stall, not per retry) — a rising rate means slow readers.
static BACKPRESSURE_STALLS: ngd_obs::LazyCounter =
    ngd_obs::LazyCounter::new("serve.backpressure.stalls");
/// Frames [`ConnIo::send`] wrote whole to the socket itself.
static WRITES_DIRECT: ngd_obs::LazyCounter = ngd_obs::LazyCounter::new("serve.write.direct");
/// Frames (or their unwritten tails) left in the queue for the reactor.
static WRITES_QUEUED: ngd_obs::LazyCounter = ngd_obs::LazyCounter::new("serve.write.queued");

/// Default per-connection write-queue high-water mark (1 MiB).
const DEFAULT_WRITE_BUFFER_LIMIT: usize = 1 << 20;

/// One connection's socket, write queue and back-pressure state.
pub(crate) struct ConnIo {
    token: u64,
    reactor: Arc<ReactorShared>,
    /// The connection's one non-blocking socket, shared with the reactor's
    /// `Connection`; written only under the `write` lock.
    stream: Arc<Stream>,
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
    pub(super) fn new(
        token: u64,
        reactor: Arc<ReactorShared>,
        stream: Arc<Stream>,
        limit: Option<usize>,
    ) -> ConnIo {
        ConnIo {
            token,
            reactor,
            stream,
            limit: limit.unwrap_or(DEFAULT_WRITE_BUFFER_LIMIT).max(1),
            write: Mutex::new(WriteBuf::default()),
            drained: Condvar::new(),
            dead: AtomicBool::new(false),
        }
    }

    /// Send one frame, blocking while the connection's write queue is above
    /// its high-water mark.  This is the back-pressure path: a slow reader
    /// suspends *this session's* producer (a worker or its detect threads),
    /// never the event loop.  A frame that finds the queue empty goes
    /// straight to the socket; the reactor is asked to flush only when
    /// bytes are left queued — a full socket, or a write error, which the
    /// reactor's [`ConnIo::drain_to`] meets again and tears down on.
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
        // A frame never overtakes queued bytes: only an empty queue lets it
        // be written now, under the lock that orders every socket write.
        let direct = buf.queue.is_empty();
        BYTES_OUT.add(bytes.len() as u64);
        buf.total += bytes.len();
        buf.queue.push_back(bytes);
        if direct && buf.write_to(&mut &*self.stream) == Drained::Empty {
            WRITES_DIRECT.inc();
            return Ok(());
        }
        WRITES_QUEUED.inc();
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
            BYTES_OUT.add(bytes.len() as u64);
            buf.total += bytes.len();
            buf.queue.push_back(bytes);
            WRITES_QUEUED.inc();
        }
    }

    /// Write queued bytes to `out` in order until the queue empties, `out`
    /// would block, or the peer proves gone — resuming mid-frame where the
    /// previous pass stopped.  Low-water release: wakes a producer stalled
    /// on back-pressure once less than a quarter of the limit is left.
    pub(super) fn drain_to(&self, out: &mut impl Write) -> Drained {
        let mut buf = self.write.lock().expect("write queue lock");
        let outcome = buf.write_to(out);
        if buf.total < self.limit / 4 {
            self.drained.notify_all();
        }
        outcome
    }

    /// Mark the connection dead, shut its socket down and release any
    /// stalled producer (it observes [`ProtocolError::Disconnected`]
    /// instead of blocking forever).  Taking the lock before notifying
    /// closes the window where a producer has checked `dead`, not yet
    /// parked, and would miss the wake-up; every later `send` sees `dead`
    /// and writes nothing.  The shutdown closes the connection now, even
    /// while a worker answering it still holds the stream.
    pub(super) fn mark_dead(&self) {
        self.dead.store(true, Ordering::SeqCst);
        drop(self.write.lock().expect("write queue lock"));
        let _ = self.stream.shutdown();
        self.drained.notify_all();
    }
}

impl WriteBuf {
    /// The write loop of [`ConnIo::drain_to`] and of `send`'s direct write.
    fn write_to(&mut self, out: &mut impl Write) -> Drained {
        while let Some(front) = self.queue.front() {
            let front_len = front.len();
            let n = match out.write(&front[self.front_pos..]) {
                Ok(0) => return Drained::Broken,
                Ok(n) => n,
                Err(e) if e.kind() == ErrorKind::WouldBlock => return Drained::Pending,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(_) => return Drained::Broken,
            };
            self.front_pos += n;
            self.total -= n;
            if self.front_pos == front_len {
                self.queue.pop_front();
                self.front_pos = 0;
            }
        }
        Drained::Empty
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Read;
    use std::os::unix::net::UnixStream;
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

    /// A `ConnIo` over one end of a socket pair, and the peer's end
    /// (blocking, with a timeout, so a byte that never comes fails a test
    /// instead of hanging it).
    fn conn_io_with_peer(limit: usize) -> (ConnIo, UnixStream) {
        let (ours, peer) = UnixStream::pair().unwrap();
        ours.set_nonblocking(true).unwrap();
        peer.set_read_timeout(Some(Duration::from_secs(30)))
            .unwrap();
        let stream = Arc::new(Stream::Unix(ours));
        let reactor = Arc::new(ReactorShared::new().unwrap());
        (ConnIo::new(7, reactor, stream, Some(limit)), peer)
    }

    /// Write filler bytes until the socket takes no more; returns how many
    /// it took.
    fn fill_socket(io: &ConnIo) -> usize {
        let mut filled = 0;
        loop {
            match (&*io.stream).write(&[0x5A; 4096]) {
                Ok(n) => filled += n,
                Err(e) if e.kind() == ErrorKind::WouldBlock => return filled,
                Err(e) => panic!("filling the socket: {e}"),
            }
        }
    }

    /// A `ConnIo` whose socket is full, so every frame it sends is queued
    /// whole — the queue's own tests then drain it into a scripted writer.
    /// Keep the peer alive: its close would fail the writes instead.
    fn conn_io(limit: usize) -> (ConnIo, UnixStream) {
        let (io, peer) = conn_io_with_peer(limit);
        fill_socket(&io);
        (io, peer)
    }

    /// Tokens the reactor has been asked to flush.
    fn flush_requests(io: &ConnIo) -> Vec<u64> {
        io.reactor.flush.lock().unwrap().clone()
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
            let (io, _peer) = conn_io(1 << 20);
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
            let (io, _peer) = conn_io(1 << 20);
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
        assert_eq!(
            conn_io(1 << 20).0.drain_to(&mut never_asked),
            Drained::Empty
        );
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
        let (io, _peer) = conn_io(limit);
        let io = Arc::new(io);
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

    #[test]
    fn a_frame_that_fits_leaves_on_send_alone() {
        let (io, mut peer) = conn_io_with_peer(1 << 20);
        let wire = encode_frame(frame::VIO_CHUNK, b"first violation").unwrap();
        io.send(frame::VIO_CHUNK, b"first violation").unwrap();
        // Nothing queued and no flush asked for: the bytes are on the wire.
        assert_eq!(queue_state(&io), (0, 0, 0));
        assert!(flush_requests(&io).is_empty());
        let mut got = vec![0; wire.len()];
        peer.read_exact(&mut got).unwrap();
        assert_eq!(got, wire);
    }

    #[test]
    fn a_partial_write_queues_the_tail_and_drain_completes_it() {
        let (io, mut peer) = conn_io_with_peer(64 << 20);
        // Far more than a Unix-domain socket buffers.
        let payload: Vec<u8> = (0..8 << 20).map(|i| (i % 251) as u8).collect();
        let wire = encode_frame(frame::QUERY_DONE, &payload).unwrap();
        io.send(frame::QUERY_DONE, &payload).unwrap();
        let (queued, front_pos, owed) = queue_state(&io);
        assert_eq!(queued, 1);
        assert!(
            0 < front_pos && front_pos < wire.len(),
            "front_pos {front_pos}"
        );
        assert_eq!(owed, wire.len() - front_pos);
        assert_eq!(flush_requests(&io), [7]);

        let len = wire.len();
        let reader = std::thread::spawn(move || {
            let mut got = vec![0; len];
            peer.read_exact(&mut got).unwrap();
            got
        });
        loop {
            match io.drain_to(&mut &*io.stream) {
                Drained::Empty => break,
                Drained::Pending => std::thread::sleep(Duration::from_millis(1)),
                Drained::Broken => panic!("the peer is alive"),
            }
        }
        assert_eq!(queue_state(&io), (0, 0, 0));
        assert!(
            reader.join().unwrap() == wire,
            "bytes differ from the frame"
        );
    }

    #[test]
    fn a_frame_sent_behind_queued_bytes_is_queued_not_written() {
        let (io, mut peer) = conn_io_with_peer(1 << 20);
        let filler = fill_socket(&io);
        let first = encode_frame(frame::VIO_CHUNK, b"queued first").unwrap();
        io.send(frame::VIO_CHUNK, b"queued first").unwrap();
        assert_eq!(queue_state(&io), (1, 0, first.len()));

        // The peer takes the filler, so the socket has room again; the next
        // frame still goes behind the queued one.
        peer.read_exact(&mut vec![0; filler]).unwrap();
        let second = encode_frame(frame::UPDATE_DONE, b"then this").unwrap();
        io.send(frame::UPDATE_DONE, b"then this").unwrap();
        assert_eq!(queue_state(&io), (2, 0, first.len() + second.len()));

        assert_eq!(io.drain_to(&mut &*io.stream), Drained::Empty);
        let mut got = vec![0; first.len() + second.len()];
        peer.read_exact(&mut got).unwrap();
        assert_eq!(got, [first, second].concat());
    }

    /// `serve.bytes.out` counts a frame when `send` or
    /// `queue_error_unbounded` accepts it, though the full socket takes
    /// none of it yet, and writing the queue out adds nothing.  Other tests
    /// in this binary send frames concurrently, so a pass is one round in
    /// which nothing else moved the counter.
    #[test]
    fn bytes_out_counts_frames_when_handed_over_not_when_written() {
        let bytes_out = ngd_obs::global().counter("serve.bytes.out");
        let (io, _peer) = conn_io(1 << 20);
        let payload = vec![0x11; 1001];
        let error = ErrorResponse {
            code: 3,
            message: "late".to_string(),
        };
        let handed = encode_frame(frame::VIO_CHUNK, &payload).unwrap().len()
            + encode_frame(frame::ERROR, &error.encode()).unwrap().len();
        let exact = (0..100).any(|_| {
            let before = bytes_out.value();
            io.send(frame::VIO_CHUNK, &payload).unwrap();
            io.queue_error_unbounded(error.code, error.message.clone());
            let accepted = bytes_out.value() - before;
            assert_eq!(queue_state(&io).2, handed, "nothing was written yet");
            let before_drain = bytes_out.value();
            assert_eq!(io.drain_to(&mut scripted([], 1 << 20)), Drained::Empty);
            accepted == handed as u64 && bytes_out.value() == before_drain
        });
        assert!(
            exact,
            "serve.bytes.out moved by other than the bytes handed over"
        );
    }

    #[test]
    fn a_dead_connection_refuses_sends_and_writes_nothing() {
        let (io, mut peer) = conn_io_with_peer(1 << 20);
        io.mark_dead();
        let sent = io.send(frame::OK, b"late");
        assert!(matches!(sent, Err(ProtocolError::Disconnected)), "{sent:?}");
        assert_eq!(queue_state(&io), (0, 0, 0));
        assert!(flush_requests(&io).is_empty());
        // The peer sees the close at once, and nothing before it.
        let mut rest = Vec::new();
        assert_eq!(peer.read_to_end(&mut rest).unwrap(), 0);
    }
}
