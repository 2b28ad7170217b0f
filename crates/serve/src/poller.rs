//! A minimal readiness poller over vendored `epoll(7)` / `poll(2)` FFI.
//!
//! The workspace builds without registry access, so instead of `mio` this
//! module vendors the handful of libc calls the reactor needs — the same
//! trade the `mmap(2)` shim in `ngd_graph::persist` makes.  Two
//! [`Poller`]s sit behind one API (non-Unix hosts are refused by the
//! `compile_error!` in `lib.rs`):
//!
//! * **Linux** — `epoll_create1`/`epoll_ctl`/`epoll_wait`.  Readiness is
//!   level-triggered, so a partially drained socket stays ready and the
//!   reactor needs no read-until-`EAGAIN` discipline for correctness.
//! * **Other Unix** — `poll(2)` over a registration table, `O(n)` per
//!   wait, fine at the hundreds-of-fds scale it serves.  Linux test
//!   builds compile it too and run the same tests against both pollers.
//!
//! One [`Waker`] serves both: a non-blocking `std` Unix-domain socket
//! pair, so waking needs no FFI and behaves the same on every Unix.
//!
//! The API is deliberately tiny: register an fd with a `u64` token and a
//! read/write interest pair, modify it, deregister it, and block in
//! [`Poller::wait`] until something is ready or the waker fires.  Tokens
//! are chosen by the caller; fd lifecycle stays with the caller too (the
//! poller never closes a registered fd).

use std::io::{self, Read, Write};
use std::os::unix::io::{AsRawFd, RawFd};
use std::os::unix::net::UnixStream;

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

/// Cross-thread wake-up for a blocked [`Poller::wait`]: a non-blocking
/// Unix-domain socket pair.  Register [`Waker::fd`] with the poller; any
/// thread may call [`Waker::wake`].
#[derive(Debug)]
pub(crate) struct Waker {
    /// The watched end, which `drain` empties; `wake` writes to `tx`.
    rx: UnixStream,
    tx: UnixStream,
}

impl Waker {
    pub fn new() -> io::Result<Waker> {
        let (rx, tx) = UnixStream::pair()?;
        rx.set_nonblocking(true)?;
        tx.set_nonblocking(true)?;
        Ok(Waker { rx, tx })
    }

    pub fn fd(&self) -> RawFd {
        self.rx.as_raw_fd()
    }

    /// Make the next (or current) `wait` return.  Never blocks: a full
    /// socket buffer (`WouldBlock`) means the reader already has a
    /// wake-up pending, so the error is dropped.
    pub fn wake(&self) {
        let _ = (&self.tx).write(&[1]);
    }

    /// Consume pending wake-ups (called by the reactor when the waker fd
    /// polls readable).  A short read means the buffer is empty; an empty
    /// buffer answers `WouldBlock` instead of blocking.
    pub fn drain(&self) {
        let mut buf = [0u8; 64];
        while let Ok(n) = (&self.rx).read(&mut buf) {
            if n < buf.len() {
                break;
            }
        }
    }
}

#[cfg(target_os = "linux")]
mod epoll {
    use super::{Event, Interest};
    use std::io;
    use std::os::raw::c_int;
    use std::os::unix::io::{AsRawFd, FromRawFd, OwnedFd, RawFd};

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

    extern "C" {
        fn epoll_create1(flags: c_int) -> c_int;
        fn epoll_ctl(epfd: c_int, op: c_int, fd: c_int, event: *mut EpollEvent) -> c_int;
        fn epoll_wait(
            epfd: c_int,
            events: *mut EpollEvent,
            maxevents: c_int,
            timeout: c_int,
        ) -> c_int;
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
        epfd: OwnedFd,
    }

    impl Poller {
        pub fn new() -> io::Result<Poller> {
            // SAFETY: plain syscall, no pointers.
            let epfd = unsafe { epoll_create1(EPOLL_CLOEXEC) };
            if epfd < 0 {
                return Err(io::Error::last_os_error());
            }
            // SAFETY: `epfd` is a fresh descriptor that nothing else owns.
            let epfd = unsafe { OwnedFd::from_raw_fd(epfd) };
            Ok(Poller { epfd })
        }

        fn ctl(&self, op: c_int, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
            let mut event = EpollEvent {
                events: interest_bits(interest),
                data: token,
            };
            // SAFETY: `event` outlives the call; the kernel copies it (and
            // ignores it for `EPOLL_CTL_DEL`).
            let rc = unsafe { epoll_ctl(self.epfd.as_raw_fd(), op, fd, &mut event) };
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
            let epfd = self.epfd.as_raw_fd();
            let n = loop {
                // SAFETY: `buf` is valid for MAX_EVENTS entries; -1 blocks
                // until readiness.
                let rc = unsafe { epoll_wait(epfd, buf.as_mut_ptr(), MAX_EVENTS as c_int, -1) };
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
}

#[cfg(any(not(target_os = "linux"), test))]
mod fallback {
    use super::{Event, Interest};
    use std::collections::HashMap;
    use std::io;
    use std::os::raw::{c_int, c_short};
    use std::os::unix::io::RawFd;

    #[repr(C)]
    #[derive(Clone, Copy)]
    struct PollFd {
        fd: c_int,
        events: c_short,
        revents: c_short,
    }

    /// `nfds_t`: `unsigned long` on Linux and Solaris, `unsigned int` on
    /// macOS and the BSDs.
    #[cfg(any(
        target_os = "linux",
        target_os = "android",
        target_os = "solaris",
        target_os = "illumos"
    ))]
    type Nfds = std::os::raw::c_ulong;
    #[cfg(not(any(
        target_os = "linux",
        target_os = "android",
        target_os = "solaris",
        target_os = "illumos"
    )))]
    type Nfds = std::os::raw::c_uint;

    const POLLIN: c_short = 0x001;
    const POLLOUT: c_short = 0x004;
    const POLLERR: c_short = 0x008;
    const POLLHUP: c_short = 0x010;

    extern "C" {
        fn poll(fds: *mut PollFd, nfds: Nfds, timeout: c_int) -> c_int;
    }

    /// Registration-table poller: `wait` rebuilds the `pollfd` array from
    /// the table each call — `O(n)`, acceptable at fallback scale.
    #[derive(Debug, Default)]
    pub(crate) struct Poller {
        table: HashMap<RawFd, (u64, Interest)>,
    }

    impl Poller {
        pub fn new() -> io::Result<Poller> {
            Ok(Poller::default())
        }

        pub fn register(&mut self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
            self.table.insert(fd, (token, interest));
            Ok(())
        }

        pub fn modify(&mut self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
            self.register(fd, token, interest)
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
                let rc = unsafe { poll(fds.as_mut_ptr(), fds.len() as Nfds, -1) };
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
}

#[cfg(target_os = "linux")]
pub(crate) use epoll::Poller;
#[cfg(not(target_os = "linux"))]
pub(crate) use fallback::Poller;

/// The poller tests, written once against a `Poller` type: `tests` runs
/// them against the platform's poller, `tests::fallback` against the
/// `poll(2)` one on Linux too.
#[cfg(test)]
macro_rules! poller_tests {
    ($poller:ty) => {
        use crate::poller::{Interest, Waker};
        use std::io::{Read as _, Write as _};
        use std::net::{TcpListener, TcpStream};
        use std::os::unix::io::AsRawFd;
        use std::sync::Arc;

        fn new_poller() -> $poller {
            <$poller>::new().unwrap()
        }

        fn tcp_pair() -> (TcpStream, TcpStream) {
            let listener = TcpListener::bind("127.0.0.1:0").unwrap();
            let addr = listener.local_addr().unwrap();
            let a = TcpStream::connect(addr).unwrap();
            let (b, _) = listener.accept().unwrap();
            (a, b)
        }

        /// Wait with a waker registered as token 1 and woken from another
        /// thread, so a wait that nothing else ends still returns.
        fn wait_with_wake(
            poller: &mut $poller,
            events: &mut Vec<crate::poller::Event>,
        ) -> Arc<Waker> {
            let waker = Arc::new(Waker::new().unwrap());
            poller.register(waker.fd(), 1, Interest::READ).unwrap();
            let poke = Arc::clone(&waker);
            let handle = std::thread::spawn(move || poke.wake());
            poller.wait(events).unwrap();
            handle.join().unwrap();
            waker
        }

        #[test]
        fn readable_after_peer_writes() {
            let (mut a, b) = tcp_pair();
            b.set_nonblocking(true).unwrap();
            let mut poller = new_poller();
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
            let mut poller = new_poller();
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
            events.clear();
            let waker = wait_with_wake(&mut poller, &mut events);
            assert!(events.iter().all(|e| e.token == 1));
            waker.drain();
        }

        #[test]
        fn hangup_reports_readable() {
            let (a, b) = tcp_pair();
            b.set_nonblocking(true).unwrap();
            let mut poller = new_poller();
            poller.register(b.as_raw_fd(), 3, Interest::READ).unwrap();
            drop(a);
            let mut events = Vec::new();
            poller.wait(&mut events).unwrap();
            // EOF must surface as readability so the reactor's read sees 0.
            assert!(events.iter().any(|e| e.token == 3 && e.readable));
        }

        #[test]
        fn a_deregistered_fd_is_not_reported() {
            let (mut a, b) = tcp_pair();
            b.set_nonblocking(true).unwrap();
            let mut poller = new_poller();
            poller.register(b.as_raw_fd(), 5, Interest::READ).unwrap();
            a.write_all(b"ping").unwrap();
            let mut events = Vec::new();
            poller.wait(&mut events).unwrap();
            assert!(events.iter().any(|e| e.token == 5 && e.readable));
            // Still readable, but no longer watched: only the waker ends
            // the next wait.
            poller.deregister(b.as_raw_fd()).unwrap();
            events.clear();
            let waker = wait_with_wake(&mut poller, &mut events);
            assert!(events.iter().all(|e| e.token == 1));
            waker.drain();
        }
    };
}

#[cfg(test)]
mod tests {
    poller_tests!(crate::poller::Poller);

    #[cfg(target_os = "linux")]
    mod fallback {
        poller_tests!(crate::poller::fallback::Poller);
    }

    #[test]
    fn drain_empties_the_waker() {
        // More wake-ups than one read of `drain` takes.
        let waker = crate::poller::Waker::new().unwrap();
        for _ in 0..200 {
            waker.wake();
        }
        waker.drain();
        let mut buf = [0u8; 1];
        let err = std::io::Read::read(&mut &waker.rx, &mut buf).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::WouldBlock);
    }
}
