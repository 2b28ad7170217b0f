//! Where a daemon listens and how both ends reach it: [`ServeAddr`], the
//! one Unix/TCP [`Listener`] + [`Stream`] pair (the reactor accepts the
//! same `Stream` type [`crate::ServeClient`] connects with), and the one
//! liveness [`probe`] — the only place that decides what a failed connect
//! proves.

use crate::error::ProtocolError;
use std::io::{Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::os::unix::io::{AsRawFd, RawFd};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;

/// Where a server listens / a client connects.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServeAddr {
    /// A Unix-domain socket path (`unix:/run/ngd.sock`).
    Unix(PathBuf),
    /// A TCP host:port (`tcp:127.0.0.1:7411`).
    Tcp(String),
}

impl ServeAddr {
    /// Parse `unix:<path>` or `tcp:<host>:<port>`.
    pub fn parse(text: &str) -> Result<ServeAddr, ProtocolError> {
        if let Some(path) = text.strip_prefix("unix:") {
            if path.is_empty() {
                return Err(ProtocolError::Corrupt("empty unix socket path".into()));
            }
            Ok(ServeAddr::Unix(PathBuf::from(path)))
        } else if let Some(addr) = text.strip_prefix("tcp:") {
            if addr.is_empty() {
                return Err(ProtocolError::Corrupt("empty tcp address".into()));
            }
            Ok(ServeAddr::Tcp(addr.to_string()))
        } else {
            Err(ProtocolError::Corrupt(format!(
                "address `{text}` must start with `unix:` or `tcp:`"
            )))
        }
    }
}

impl std::fmt::Display for ServeAddr {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeAddr::Unix(path) => write!(f, "unix:{}", path.display()),
            ServeAddr::Tcp(addr) => write!(f, "tcp:{addr}"),
        }
    }
}

/// One connection, on either transport.
pub(crate) enum Stream {
    Unix(UnixStream),
    Tcp(TcpStream),
}

impl Stream {
    /// A blocking connection to `addr` (`TCP_NODELAY` set: frames are
    /// small and latency-bound).
    pub(crate) fn connect(addr: &ServeAddr) -> std::io::Result<Stream> {
        match addr {
            ServeAddr::Unix(path) => UnixStream::connect(path).map(Stream::Unix),
            ServeAddr::Tcp(spec) => TcpStream::connect(spec).map(|stream| {
                let _ = stream.set_nodelay(true);
                Stream::Tcp(stream)
            }),
        }
    }

    pub(crate) fn raw_fd(&self) -> RawFd {
        match self {
            Stream::Unix(s) => s.as_raw_fd(),
            Stream::Tcp(s) => s.as_raw_fd(),
        }
    }

    /// Shut both directions down now, whoever still holds the stream: the
    /// peer sees the close at once and any later read or write fails.
    pub(crate) fn shutdown(&self) -> std::io::Result<()> {
        match self {
            Stream::Unix(s) => s.shutdown(Shutdown::Both),
            Stream::Tcp(s) => s.shutdown(Shutdown::Both),
        }
    }
}

/// Reads and writes through a shared reference, so the reactor and the
/// worker answering a connection use its one socket without a second fd.
impl Read for &Stream {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        match self {
            Stream::Unix(s) => (&*s).read(buf),
            Stream::Tcp(s) => (&*s).read(buf),
        }
    }
}

impl Write for &Stream {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        match self {
            Stream::Unix(s) => (&*s).write(buf),
            Stream::Tcp(s) => (&*s).write(buf),
        }
    }

    fn flush(&mut self) -> std::io::Result<()> {
        // Sockets are unbuffered on this side.
        Ok(())
    }
}

impl Read for Stream {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        (&*self).read(buf)
    }
}

impl Write for Stream {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        (&*self).write(buf)
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// What one connect attempt says about a daemon behind an address.
pub(crate) enum Probe {
    /// Something accepted the connection: a live daemon.
    Answers,
    /// The connection was refused (or the socket file is gone): nothing
    /// listens there.
    Refused,
    /// Any murkier failure (`EAGAIN` from a momentarily full accept
    /// backlog, `EACCES`, …) — could be a live-but-busy daemon, so nobody
    /// may unlink or steal anything on the strength of it.
    Unclear(std::io::Error),
}

/// The decisive-connect rule, shared by the stale-unix-socket check in
/// [`Listener::bind`] and the epoch-file GC: only a refused connection
/// proves death.
pub(crate) fn probe(addr: &ServeAddr) -> Probe {
    use std::io::ErrorKind::{ConnectionRefused, NotFound};
    match Stream::connect(addr) {
        Ok(_) => Probe::Answers,
        Err(e) if matches!(e.kind(), ConnectionRefused | NotFound) => Probe::Refused,
        Err(e) => Probe::Unclear(e),
    }
}

/// The daemon's listening socket, on either transport.
pub(crate) enum Listener {
    Unix(UnixListener),
    Tcp(TcpListener),
}

impl Listener {
    /// Bind `addr` non-blocking.  Returns the listener and the address it
    /// actually listens on (ephemeral TCP ports resolved).
    pub(crate) fn bind(addr: &ServeAddr) -> Result<(Listener, ServeAddr), ProtocolError> {
        let io_err = |e: std::io::Error| ProtocolError::Io(e.to_string());
        match addr {
            ServeAddr::Unix(path) => {
                // A socket file left by a killed daemon would block the
                // bind forever.  Ping it first: if something answers, a
                // live daemon owns the path and we must NOT steal it; if
                // the connect is refused, the file is stale and is
                // unlinked so the bind can proceed.
                if path.exists() {
                    match probe(addr) {
                        Probe::Answers => {
                            return Err(ProtocolError::Io(format!(
                                "{} is in use by a live daemon (connect succeeded); \
                                 refusing to steal the socket",
                                path.display()
                            )));
                        }
                        Probe::Refused => {
                            let _ = std::fs::remove_file(path);
                        }
                        Probe::Unclear(e) => {
                            return Err(ProtocolError::Io(format!(
                                "{} did not answer the liveness ping decisively \
                                 ({e}); refusing to unlink it — remove the socket \
                                 manually if the daemon is really gone",
                                path.display()
                            )));
                        }
                    }
                }
                let listener = UnixListener::bind(path)
                    .map_err(|e| ProtocolError::Io(format!("bind {}: {e}", path.display())))?;
                listener.set_nonblocking(true).map_err(io_err)?;
                Ok((Listener::Unix(listener), addr.clone()))
            }
            ServeAddr::Tcp(spec) => {
                let listener = TcpListener::bind(spec)
                    .map_err(|e| ProtocolError::Io(format!("bind {spec}: {e}")))?;
                listener.set_nonblocking(true).map_err(io_err)?;
                let local = listener.local_addr().map_err(io_err)?;
                Ok((Listener::Tcp(listener), ServeAddr::Tcp(local.to_string())))
            }
        }
    }

    /// Accept one connection for the reactor: the stream stays (becomes)
    /// non-blocking, as every reactor read/write must be.
    pub(crate) fn accept_nonblocking(&self) -> std::io::Result<Stream> {
        match self {
            Listener::Unix(l) => l.accept().map(|(s, _)| {
                let _ = s.set_nonblocking(true);
                Stream::Unix(s)
            }),
            Listener::Tcp(l) => l.accept().map(|(s, _)| {
                let _ = s.set_nonblocking(true);
                let _ = s.set_nodelay(true);
                Stream::Tcp(s)
            }),
        }
    }

    pub(crate) fn raw_fd(&self) -> RawFd {
        match self {
            Listener::Unix(l) => l.as_raw_fd(),
            Listener::Tcp(l) => l.as_raw_fd(),
        }
    }
}
