//! The operating-system primitives the transport's event loops need
//! beyond `std`: `ppoll(2)` and a non-blocking `connect(2)`, declared
//! through `extern "C"` (the workspace takes no dependencies), and a
//! wake pipe built on [`UnixStream::pair`] that rouses a thread parked
//! in it. Linux-only, like the rest of the deployment surface.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::os::fd::{AsRawFd, FromRawFd, OwnedFd, RawFd};
use std::os::raw::{c_int, c_long, c_short, c_ulong, c_void};
use std::os::unix::net::UnixStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

/// Readable (or, on a listener, a connection to accept).
pub(crate) const POLLIN: c_short = 0x001;
/// Writable.
pub(crate) const POLLOUT: c_short = 0x004;
/// Error, hang-up or invalid descriptor: always reported, never asked for.
pub(crate) const POLL_FAILED: c_short = 0x008 | 0x010 | 0x020;

/// `struct pollfd`.
#[repr(C)]
#[derive(Debug, Clone, Copy)]
pub(crate) struct PollFd {
    pub fd: RawFd,
    pub events: c_short,
    pub revents: c_short,
}

impl PollFd {
    pub(crate) fn new(fd: &impl AsRawFd, events: c_short) -> PollFd {
        PollFd {
            fd: fd.as_raw_fd(),
            events,
            revents: 0,
        }
    }
}

/// `struct timespec` (`time_t` and `long` are both `long` on Linux).
#[repr(C)]
struct Timespec {
    tv_sec: c_long,
    tv_nsec: c_long,
}

extern "C" {
    fn ppoll(
        fds: *mut PollFd,
        nfds: c_ulong,
        timeout: *const Timespec,
        sigmask: *const c_void,
    ) -> c_int;
    fn socket(domain: c_int, kind: c_int, protocol: c_int) -> c_int;
    fn connect(fd: c_int, addr: *const c_void, len: u32) -> c_int;
}

/// Waits until one of `fds` is ready or `timeout` passes (`None` waits
/// indefinitely) and fills in every `revents`. `ppoll` rather than
/// `poll` because the runtime's waits are often shorter than the
/// millisecond `poll` counts in. A signal ending the wait early counts
/// as a timeout.
pub(crate) fn poll(fds: &mut [PollFd], timeout: Option<Duration>) -> io::Result<()> {
    let timespec = timeout.map(|t| Timespec {
        tv_sec: c_long::try_from(t.as_secs()).unwrap_or(c_long::MAX),
        tv_nsec: t.subsec_nanos() as c_long,
    });
    let timeout_ptr = timespec
        .as_ref()
        .map_or(std::ptr::null(), |t| t as *const Timespec);
    // SAFETY: `fds` is an exclusively borrowed, initialised array of
    // `fds.len()` `repr(C)` pollfds, which the kernel only reads and
    // writes within that length; `timeout_ptr` is null or points at
    // `timespec`, alive until the call returns; a null signal mask
    // leaves the thread's mask as it is.
    let ready = unsafe {
        ppoll(
            fds.as_mut_ptr(),
            fds.len() as c_ulong,
            timeout_ptr,
            std::ptr::null(),
        )
    };
    if ready < 0 {
        let err = io::Error::last_os_error();
        if err.kind() != io::ErrorKind::Interrupted {
            return Err(err);
        }
        fds.iter_mut().for_each(|fd| fd.revents = 0);
    }
    Ok(())
}

const AF_INET: u16 = 2;
const AF_INET6: u16 = 10;
const SOCK_STREAM: c_int = 1;
const SOCK_NONBLOCK: c_int = 0o4000;
const SOCK_CLOEXEC: c_int = 0o2000000;
const EINPROGRESS: i32 = 115;

/// `struct sockaddr_in`; port and address in network byte order.
#[repr(C)]
struct SockaddrIn {
    family: u16,
    port: u16,
    addr: [u8; 4],
    zero: [u8; 8],
}

/// `struct sockaddr_in6`.
#[repr(C)]
struct SockaddrIn6 {
    family: u16,
    port: u16,
    flowinfo: u32,
    addr: [u8; 16],
    scope_id: u32,
}

/// Starts a TCP connect to `addr` without waiting for it: the returned
/// non-blocking stream polls writable (`POLLOUT`) once the attempt has
/// an outcome, which [`TcpStream::take_error`] then reports. Errors
/// known at once (no route, no descriptors) return here.
pub(crate) fn connect_nonblocking(addr: &SocketAddr) -> io::Result<TcpStream> {
    let v4;
    let v6;
    let (domain, sockaddr, len) = match addr {
        SocketAddr::V4(a) => {
            v4 = SockaddrIn {
                family: AF_INET,
                port: a.port().to_be(),
                addr: a.ip().octets(),
                zero: [0; 8],
            };
            let ptr = &v4 as *const SockaddrIn as *const c_void;
            (AF_INET, ptr, std::mem::size_of::<SockaddrIn>())
        }
        SocketAddr::V6(a) => {
            v6 = SockaddrIn6 {
                family: AF_INET6,
                port: a.port().to_be(),
                flowinfo: a.flowinfo(),
                addr: a.ip().octets(),
                scope_id: a.scope_id(),
            };
            let ptr = &v6 as *const SockaddrIn6 as *const c_void;
            (AF_INET6, ptr, std::mem::size_of::<SockaddrIn6>())
        }
    };
    // SAFETY: plain syscall with integer arguments.
    let fd = unsafe {
        socket(
            c_int::from(domain),
            SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC,
            0,
        )
    };
    if fd < 0 {
        return Err(io::Error::last_os_error());
    }
    // SAFETY: `fd` is a fresh descriptor that nothing else owns.
    let stream = TcpStream::from(unsafe { OwnedFd::from_raw_fd(fd) });
    // SAFETY: `sockaddr` points at `len` initialised bytes of a
    // `repr(C)` sockaddr (`v4` or `v6`), alive until the call returns;
    // the kernel only reads them.
    if unsafe { connect(fd, sockaddr, len as u32) } < 0 {
        let err = io::Error::last_os_error();
        if err.raw_os_error() != Some(EINPROGRESS) {
            return Err(err);
        }
    }
    Ok(stream)
}

/// The sending half of a wake pipe, shared by every thread that may
/// need to rouse the parked one. `armed` keeps a burst of wakes down to
/// one byte (one syscall) per park.
pub(crate) struct Waker {
    tx: UnixStream,
    armed: AtomicBool,
}

/// The parked thread's half: poll [`WakePipe::pollfd`].
pub(crate) struct WakePipe {
    rx: UnixStream,
}

/// A connected, non-blocking wake pipe.
pub(crate) fn wake_pipe() -> io::Result<(Waker, WakePipe)> {
    let (tx, rx) = UnixStream::pair()?;
    tx.set_nonblocking(true)?;
    rx.set_nonblocking(true)?;
    Ok((
        Waker {
            tx,
            armed: AtomicBool::new(false),
        },
        WakePipe { rx },
    ))
}

impl Waker {
    /// Rouses the parked thread. Publish the work first (under its own
    /// lock): the thread either sees that work on its next scan or
    /// finds the byte this writes.
    pub(crate) fn wake(&self) {
        // Pairs with the Release store in `WakePipe::drain`; a wake that
        // loses the race to the drain sees `false` and writes a byte.
        if !self.armed.swap(true, Ordering::AcqRel) {
            // A full pipe already holds a wake byte, so a failed write
            // loses nothing.
            let _ = (&self.tx).write(&[1]);
        }
    }
}

impl WakePipe {
    /// A pollfd asking for the pipe's readability.
    pub(crate) fn pollfd(&self) -> PollFd {
        PollFd::new(&self.rx, POLLIN)
    }

    /// Consumes pending wake bytes and re-arms `waker`. Call when the
    /// pipe polled readable, *before* scanning for the published work.
    pub(crate) fn drain(&self, waker: &Waker) {
        let mut sink = [0u8; 64];
        while matches!((&self.rx).read(&mut sink), Ok(n) if n > 0) {}
        waker.armed.store(false, Ordering::Release);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    /// The hand-laid sockaddrs reach the right listener: the accepted
    /// side sees exactly the dialer's address, over IPv4 and (where the
    /// host has it) IPv6 loopback.
    #[test]
    fn nonblocking_connect_reaches_the_listener() {
        for listen in ["127.0.0.1:0", "[::1]:0"] {
            let Ok(listener) = TcpListener::bind(listen) else {
                continue; // no IPv6 loopback here
            };
            let stream = connect_nonblocking(&listener.local_addr().unwrap()).unwrap();
            let mut fds = [PollFd::new(&stream, POLLOUT)];
            poll(&mut fds, Some(Duration::from_secs(5))).unwrap();
            assert_ne!(fds[0].revents & POLLOUT, 0, "{listen}: connect completes");
            assert!(stream.take_error().unwrap().is_none(), "{listen}");
            let (_accepted, from) = listener.accept().unwrap();
            assert_eq!(from, stream.local_addr().unwrap(), "{listen}");
        }
    }
}
