//! A minimal readiness poller over vendored `epoll(7)` / `poll(2)` FFI.
//!
//! The workspace builds without registry access, so instead of `mio` this
//! module vendors the handful of libc calls the reactor needs — the same
//! trade the `mmap(2)` shim in `ngd_graph::persist` makes.  Two
//! implementations sit behind one API:
//!
//! * **Linux** — `epoll_create1`/`epoll_ctl`/`epoll_wait`, with an
//!   `eventfd(2)` as the cross-thread [`Waker`].  Readiness is
//!   level-triggered (the default), so a partially drained socket stays
//!   ready and the reactor never needs read-until-`EAGAIN` discipline for
//!   correctness.
//! * **Other Unix** — `poll(2)` over a registration table, with a
//!   non-blocking self-pipe as the waker.  `O(n)` per wait, which is fine
//!   at the hundreds-of-fds scale it serves.
//!
//! Non-Unix hosts never reach this module: the crate refuses to build
//! there (see the `compile_error!` in `lib.rs`).
//!
//! The API is deliberately tiny: register an fd with a `u64` token and a
//! read/write interest pair, modify it, deregister it, and block in
//! [`Poller::wait`] until something is ready or the waker fires.  Tokens
//! are chosen by the caller; fd lifecycle stays with the caller too (the
//! poller never closes a registered fd).

/// One readiness notification out of [`Poller::wait`].
#[derive(Debug, Clone, Copy)]
pub(crate) struct Event {
    /// The token the fd was registered with.
    pub token: u64,
    /// Readable (or a peer hang-up, which reads as EOF).
    pub readable: bool,
    /// Writable.
    pub writable: bool,
}

/// The interest set an fd is registered with.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Interest {
    /// Wake on readable.
    pub read: bool,
    /// Wake on writable.
    pub write: bool,
}

impl Interest {
    pub const READ: Interest = Interest {
        read: true,
        write: false,
    };
    pub const NONE: Interest = Interest {
        read: false,
        write: false,
    };
}

// ---------------------------------------------------------------------------
// Linux: epoll + eventfd
// ---------------------------------------------------------------------------

#[cfg(target_os = "linux")]
mod imp {
    use super::{Event, Interest};
    use std::io;
    use std::os::unix::io::RawFd;

    use std::os::raw::{c_int, c_uint, c_void};

    // epoll_event is packed on x86/x86_64 (kernel ABI) and naturally
    // aligned elsewhere; mirror the kernel headers.
    #[cfg_attr(any(target_arch = "x86", target_arch = "x86_64"), repr(C, packed))]
    #[cfg_attr(not(any(target_arch = "x86", target_arch = "x86_64")), repr(C))]
    #[derive(Clone, Copy)]
    struct EpollEvent {
        events: u32,
        data: u64,
    }

    const EPOLL_CLOEXEC: c_int = 0o2000000;
    const EPOLL_CTL_ADD: c_int = 1;
    const EPOLL_CTL_DEL: c_int = 2;
    const EPOLL_CTL_MOD: c_int = 3;
    const EPOLLIN: u32 = 0x001;
    const EPOLLOUT: u32 = 0x004;
    const EPOLLERR: u32 = 0x008;
    const EPOLLHUP: u32 = 0x010;
    const EPOLLRDHUP: u32 = 0x2000;

    const EFD_CLOEXEC: c_int = 0o2000000;
    const EFD_NONBLOCK: c_int = 0o4000;

    extern "C" {
        fn epoll_create1(flags: c_int) -> c_int;
        fn epoll_ctl(epfd: c_int, op: c_int, fd: c_int, event: *mut EpollEvent) -> c_int;
        fn epoll_wait(
            epfd: c_int,
            events: *mut EpollEvent,
            maxevents: c_int,
            timeout: c_int,
        ) -> c_int;
        fn eventfd(initval: c_uint, flags: c_int) -> c_int;
        fn read(fd: c_int, buf: *mut c_void, count: usize) -> isize;
        fn write(fd: c_int, buf: *const c_void, count: usize) -> isize;
        fn close(fd: c_int) -> c_int;
    }

    fn interest_bits(interest: Interest) -> u32 {
        // RDHUP rides with read interest only: a connection whose reads
        // are deliberately disarmed (request in flight) must not spin the
        // level-triggered loop on a peer's FIN — it discovers the hangup
        // on its next write or when read interest returns.
        let mut bits = 0;
        if interest.read {
            bits |= EPOLLIN | EPOLLRDHUP;
        }
        if interest.write {
            bits |= EPOLLOUT;
        }
        bits
    }

    /// The epoll instance.  `epoll_ctl` is thread-safe, but this reactor
    /// only ever drives it from one thread; everything takes `&mut self`
    /// to keep the API identical to the `poll(2)` fallback.
    #[derive(Debug)]
    pub(crate) struct Poller {
        epfd: RawFd,
    }

    impl Poller {
        pub fn new() -> io::Result<Poller> {
            // SAFETY: plain syscall, no pointers.
            let epfd = unsafe { epoll_create1(EPOLL_CLOEXEC) };
            if epfd < 0 {
                return Err(io::Error::last_os_error());
            }
            Ok(Poller { epfd })
        }

        fn ctl(&self, op: c_int, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
            let mut event = EpollEvent {
                events: interest_bits(interest),
                data: token,
            };
            let event_ptr = if op == EPOLL_CTL_DEL {
                std::ptr::null_mut()
            } else {
                &mut event as *mut EpollEvent
            };
            // SAFETY: `event` outlives the call; the kernel copies it.
            let rc = unsafe { epoll_ctl(self.epfd, op, fd, event_ptr) };
            if rc < 0 {
                return Err(io::Error::last_os_error());
            }
            Ok(())
        }

        pub fn register(&mut self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
            self.ctl(EPOLL_CTL_ADD, fd, token, interest)
        }

        pub fn modify(&mut self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
            self.ctl(EPOLL_CTL_MOD, fd, token, interest)
        }

        pub fn deregister(&mut self, fd: RawFd) -> io::Result<()> {
            self.ctl(EPOLL_CTL_DEL, fd, 0, Interest::NONE)
        }

        /// Block until at least one registered fd is ready, appending the
        /// notifications to `events`.
        pub fn wait(&mut self, events: &mut Vec<Event>) -> io::Result<()> {
            const MAX_EVENTS: usize = 256;
            let mut buf = [EpollEvent { events: 0, data: 0 }; MAX_EVENTS];
            let n = loop {
                // SAFETY: `buf` is valid for MAX_EVENTS entries; -1 blocks
                // until readiness.
                let rc =
                    unsafe { epoll_wait(self.epfd, buf.as_mut_ptr(), MAX_EVENTS as c_int, -1) };
                if rc >= 0 {
                    break rc as usize;
                }
                let err = io::Error::last_os_error();
                if err.kind() != io::ErrorKind::Interrupted {
                    return Err(err);
                }
            };
            for entry in &buf[..n] {
                // Copy out of the (possibly packed) struct before use.
                let bits = entry.events;
                let token = entry.data;
                events.push(Event {
                    token,
                    // Errors and hang-ups surface as readability: the next
                    // read returns 0/err and the reactor tears down.
                    readable: bits & (EPOLLIN | EPOLLRDHUP | EPOLLHUP | EPOLLERR) != 0,
                    writable: bits & (EPOLLOUT | EPOLLHUP | EPOLLERR) != 0,
                });
            }
            Ok(())
        }
    }

    impl Drop for Poller {
        fn drop(&mut self) {
            // SAFETY: epfd came from epoll_create1 and is closed once.
            unsafe { close(self.epfd) };
        }
    }

    /// Cross-thread wake-up for a blocked [`Poller::wait`]: an
    /// `eventfd(2)` counter.  Register [`Waker::fd`] with the poller;
    /// any thread may call [`Waker::wake`].
    #[derive(Debug)]
    pub(crate) struct Waker {
        efd: RawFd,
    }

    impl Waker {
        pub fn new() -> io::Result<Waker> {
            // SAFETY: plain syscall.
            let efd = unsafe { eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK) };
            if efd < 0 {
                return Err(io::Error::last_os_error());
            }
            Ok(Waker { efd })
        }

        pub fn fd(&self) -> RawFd {
            self.efd
        }

        /// Make the next (or current) `wait` return.  Never blocks: an
        /// eventfd add can only fail with EAGAIN once the counter
        /// saturates, at which point the reader is already pending wake-up.
        pub fn wake(&self) {
            let one: u64 = 1;
            // SAFETY: writes 8 bytes from a live stack buffer.
            unsafe { write(self.efd, (&one as *const u64).cast(), 8) };
        }

        /// Consume pending wake-ups (called by the reactor when the waker
        /// fd polls readable).
        pub fn drain(&self) {
            let mut buf = 0u64;
            // SAFETY: reads 8 bytes into a live stack buffer; EFD_NONBLOCK
            // makes an empty counter return EAGAIN instead of blocking.
            unsafe { read(self.efd, (&mut buf as *mut u64).cast(), 8) };
        }
    }

    impl Drop for Waker {
        fn drop(&mut self) {
            // SAFETY: efd came from eventfd and is closed once.
            unsafe { close(self.efd) };
        }
    }

    // SAFETY: the only field is the eventfd number, a kernel object tied to
    // no thread; the owner (and its `close` in Drop) may move.
    unsafe impl Send for Waker {}
    // SAFETY: `&Waker` reaches only `write`/`read` on the eventfd, which the
    // kernel serialises; concurrent writes from many threads and reads
    // from the reactor are the documented use.
    unsafe impl Sync for Waker {}
}

// ---------------------------------------------------------------------------
// Other Unix: poll(2) + self-pipe
// ---------------------------------------------------------------------------

#[cfg(not(target_os = "linux"))]
mod imp {
    use super::{Event, Interest};
    use std::collections::HashMap;
    use std::io;
    use std::os::raw::{c_int, c_short, c_ulong, c_void};
    use std::os::unix::io::RawFd;

    #[repr(C)]
    #[derive(Clone, Copy)]
    struct PollFd {
        fd: c_int,
        events: c_short,
        revents: c_short,
    }

    const POLLIN: c_short = 0x001;
    const POLLOUT: c_short = 0x004;
    const POLLERR: c_short = 0x008;
    const POLLHUP: c_short = 0x010;

    const F_GETFL: c_int = 3;
    const F_SETFL: c_int = 4;
    const O_NONBLOCK: c_int = 0o4000;

    extern "C" {
        fn poll(fds: *mut PollFd, nfds: c_ulong, timeout: c_int) -> c_int;
        fn pipe(fds: *mut c_int) -> c_int;
        fn fcntl(fd: c_int, cmd: c_int, arg: c_int) -> c_int;
        fn read(fd: c_int, buf: *mut c_void, count: usize) -> isize;
        fn write(fd: c_int, buf: *const c_void, count: usize) -> isize;
        fn close(fd: c_int) -> c_int;
    }

    /// Registration-table poller: `wait` rebuilds the `pollfd` array from
    /// the table each call — `O(n)`, acceptable at fallback scale.
    #[derive(Debug)]
    pub(crate) struct Poller {
        table: HashMap<RawFd, (u64, Interest)>,
    }

    impl Poller {
        pub fn new() -> io::Result<Poller> {
            Ok(Poller {
                table: HashMap::new(),
            })
        }

        pub fn register(&mut self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
            self.table.insert(fd, (token, interest));
            Ok(())
        }

        pub fn modify(&mut self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
            self.table.insert(fd, (token, interest));
            Ok(())
        }

        pub fn deregister(&mut self, fd: RawFd) -> io::Result<()> {
            self.table.remove(&fd);
            Ok(())
        }

        pub fn wait(&mut self, events: &mut Vec<Event>) -> io::Result<()> {
            let mut fds: Vec<PollFd> = Vec::with_capacity(self.table.len());
            let mut tokens: Vec<u64> = Vec::with_capacity(self.table.len());
            for (&fd, &(token, interest)) in &self.table {
                let mut bits: c_short = 0;
                if interest.read {
                    bits |= POLLIN;
                }
                if interest.write {
                    bits |= POLLOUT;
                }
                fds.push(PollFd {
                    fd,
                    events: bits,
                    revents: 0,
                });
                tokens.push(token);
            }
            loop {
                // SAFETY: `fds` is a live, correctly sized array; -1 blocks.
                let rc = unsafe { poll(fds.as_mut_ptr(), fds.len() as c_ulong, -1) };
                if rc >= 0 {
                    break;
                }
                let err = io::Error::last_os_error();
                if err.kind() != io::ErrorKind::Interrupted {
                    return Err(err);
                }
            }
            for (entry, &token) in fds.iter().zip(&tokens) {
                let bits = entry.revents;
                if bits == 0 {
                    continue;
                }
                events.push(Event {
                    token,
                    readable: bits & (POLLIN | POLLHUP | POLLERR) != 0,
                    writable: bits & (POLLOUT | POLLHUP | POLLERR) != 0,
                });
            }
            Ok(())
        }
    }

    /// Self-pipe waker: a write end any thread may poke, a non-blocking
    /// read end the reactor registers and drains.
    #[derive(Debug)]
    pub(crate) struct Waker {
        read_fd: RawFd,
        write_fd: RawFd,
    }

    impl Waker {
        pub fn new() -> io::Result<Waker> {
            let mut fds = [0 as c_int; 2];
            // SAFETY: `fds` is a live 2-entry array.
            if unsafe { pipe(fds.as_mut_ptr()) } < 0 {
                return Err(io::Error::last_os_error());
            }
            for fd in fds {
                // SAFETY: plain fcntl on fds we own.
                unsafe {
                    let flags = fcntl(fd, F_GETFL, 0);
                    fcntl(fd, F_SETFL, flags | O_NONBLOCK);
                }
            }
            Ok(Waker {
                read_fd: fds[0],
                write_fd: fds[1],
            })
        }

        pub fn fd(&self) -> RawFd {
            self.read_fd
        }

        pub fn wake(&self) {
            let one = [1u8];
            // SAFETY: writes 1 byte from a live buffer; a full pipe means
            // the reader is already pending wake-up, so EAGAIN is fine.
            unsafe { write(self.write_fd, one.as_ptr().cast(), 1) };
        }

        pub fn drain(&self) {
            let mut buf = [0u8; 64];
            loop {
                // SAFETY: reads into a live buffer; O_NONBLOCK means an
                // empty pipe returns EAGAIN instead of blocking.
                let n = unsafe { read(self.read_fd, buf.as_mut_ptr().cast(), buf.len()) };
                if n <= 0 {
                    break;
                }
            }
        }
    }

    impl Drop for Waker {
        fn drop(&mut self) {
            // SAFETY: both fds came from pipe() and are closed once.
            unsafe {
                close(self.read_fd);
                close(self.write_fd);
            }
        }
    }

    // SAFETY: both fields are pipe fd numbers, kernel objects tied to no
    // thread; the owner (and its `close` in Drop) may move.
    unsafe impl Send for Waker {}
    // SAFETY: `&Waker` reaches only 1-byte `write`s and non-blocking
    // `read`s; pipe writes of at most PIPE_BUF bytes are atomic per POSIX,
    // and many writers + one reader is the documented self-pipe pattern.
    unsafe impl Sync for Waker {}
}

pub(crate) use imp::{Poller, Waker};

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read as _, Write as _};
    use std::net::{TcpListener, TcpStream};
    use std::os::unix::io::AsRawFd;
    use std::sync::Arc;

    fn tcp_pair() -> (TcpStream, TcpStream) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let a = TcpStream::connect(addr).unwrap();
        let (b, _) = listener.accept().unwrap();
        (a, b)
    }

    #[test]
    fn readable_after_peer_writes() {
        let (mut a, b) = tcp_pair();
        b.set_nonblocking(true).unwrap();
        let mut poller = Poller::new().unwrap();
        poller.register(b.as_raw_fd(), 7, Interest::READ).unwrap();
        a.write_all(b"ping").unwrap();
        let mut events = Vec::new();
        poller.wait(&mut events).unwrap();
        assert!(events.iter().any(|e| e.token == 7 && e.readable));
        let mut buf = [0u8; 8];
        let mut b = b;
        let n = b.read(&mut buf).unwrap();
        assert_eq!(&buf[..n], b"ping");
    }

    #[test]
    fn write_interest_fires_and_can_be_disarmed() {
        let (_a, b) = tcp_pair();
        b.set_nonblocking(true).unwrap();
        let mut poller = Poller::new().unwrap();
        // An idle socket is immediately writable.
        poller
            .register(
                b.as_raw_fd(),
                9,
                Interest {
                    read: false,
                    write: true,
                },
            )
            .unwrap();
        let mut events = Vec::new();
        poller.wait(&mut events).unwrap();
        assert!(events.iter().any(|e| e.token == 9 && e.writable));
        // Disarmed, only the waker can end the next wait.
        poller.modify(b.as_raw_fd(), 9, Interest::NONE).unwrap();
        let waker = Arc::new(Waker::new().unwrap());
        poller.register(waker.fd(), 1, Interest::READ).unwrap();
        let poke = Arc::clone(&waker);
        let handle = std::thread::spawn(move || poke.wake());
        events.clear();
        poller.wait(&mut events).unwrap();
        handle.join().unwrap();
        assert!(events.iter().all(|e| e.token == 1));
        waker.drain();
    }

    #[test]
    fn hangup_reports_readable() {
        let (a, b) = tcp_pair();
        b.set_nonblocking(true).unwrap();
        let mut poller = Poller::new().unwrap();
        poller.register(b.as_raw_fd(), 3, Interest::READ).unwrap();
        drop(a);
        let mut events = Vec::new();
        poller.wait(&mut events).unwrap();
        // EOF must surface as readability so the reactor's read sees 0.
        assert!(events.iter().any(|e| e.token == 3 && e.readable));
    }
}
