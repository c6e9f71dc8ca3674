//! The read side of a node's transport: one caller-driven event loop.
//!
//! [`InboundLoop`] owns the listener, every accepted stream and the read
//! end of a wake pipe. Whoever consumes inbound frames drives it — the
//! node thread through `TcpTransport::recv_timeout`/`try_recv`, or a
//! verify pool's intake worker once `TcpTransport::take_inbound` moved
//! the loop there. Each pass is one `ppoll` over all of them, then:
//! readable streams get one non-blocking `read` into their
//! [`FrameParser`] and every complete frame lands on a local ready
//! queue; new connections are accepted and must name an allowed peer in
//! their first frame within [`HANDSHAKE_TIMEOUT`]; a readable wake pipe
//! brings in self-addressed frames queued by other threads. Passes run
//! only when the ready queue is empty, so memory stays bounded by one
//! read buffer per connection and a slow consumer backpressures senders
//! through the kernel's socket buffers.

use std::collections::VecDeque;
use std::io;
use std::net::{TcpListener, TcpStream};
use std::sync::mpsc::RecvTimeoutError;
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use sbft_sim::NodeId;
use sbft_wire::Wire;

use crate::frame::{self, FrameParser, Handshake};
use crate::sys::{self, PollFd, WakePipe, POLLIN};
use crate::tcp::{RegistryGuard, Shared};
use crate::verify::FrameSource;

/// How long an accepted connection may take to send its handshake
/// before it is closed (and counted as a handshake reject).
pub const HANDSHAKE_TIMEOUT: Duration = Duration::from_secs(5);

/// Whom an accepted connection's frames come from.
enum Attribution {
    /// No handshake yet; accepted at `since`.
    Pending { since: Instant },
    /// Handshaken; registered so `TransportControl::sever` can close it.
    Peer {
        id: NodeId,
        _registered: RegistryGuard,
    },
}

struct Conn {
    stream: TcpStream,
    parser: FrameParser,
    attribution: Attribution,
}

/// A node's inbound event loop (see the module docs). Obtain it with
/// `TcpTransport::take_inbound`; drive it with [`Self::recv_timeout`].
pub struct InboundLoop {
    shared: Arc<Shared>,
    /// `None` after shutdown: new dialers are refused, as by a closed
    /// process.
    listener: Option<TcpListener>,
    wake: WakePipe,
    conns: Vec<Conn>,
    ready: VecDeque<(NodeId, Vec<u8>)>,
    /// Reused pollfd array: wake pipe, listener, then `conns` in order.
    fds: Vec<PollFd>,
    read_buffer: usize,
    max_frame: usize,
}

impl InboundLoop {
    pub(crate) fn new(
        shared: Arc<Shared>,
        listener: TcpListener,
        wake: WakePipe,
        read_buffer: usize,
        max_frame: usize,
    ) -> InboundLoop {
        InboundLoop {
            shared,
            listener: Some(listener),
            wake,
            conns: Vec::new(),
            ready: VecDeque::new(),
            fds: Vec::new(),
            read_buffer,
            max_frame,
        }
    }

    /// The next inbound `(from, payload)` frame, running loop passes for
    /// at most `timeout` while none is ready. A zero timeout makes one
    /// non-blocking pass.
    pub fn recv_timeout(&mut self, timeout: Duration) -> Option<(NodeId, Vec<u8>)> {
        if let Some(frame) = self.ready.pop_front() {
            return Some(frame);
        }
        let deadline = Instant::now() + timeout;
        loop {
            self.pass(deadline.saturating_duration_since(Instant::now()));
            if let Some(frame) = self.ready.pop_front() {
                return Some(frame);
            }
            if Instant::now() >= deadline {
                return None;
            }
        }
    }

    /// One `ppoll` (at most `timeout`) and the I/O it reports.
    fn pass(&mut self, timeout: Duration) {
        if self.shared.is_shutdown() && self.listener.is_some() {
            self.listener = None;
            self.conns.clear();
        }
        let now = Instant::now();
        let mut timeout = timeout;
        self.fds.clear();
        self.fds.push(self.wake.pollfd());
        if let Some(listener) = &self.listener {
            self.fds.push(PollFd::new(listener, POLLIN));
        }
        for conn in &self.conns {
            self.fds.push(PollFd::new(&conn.stream, POLLIN));
            if let Attribution::Pending { since } = conn.attribution {
                timeout = timeout.min((since + HANDSHAKE_TIMEOUT).saturating_duration_since(now));
            }
        }
        if sys::poll(&mut self.fds, Some(timeout)).is_err() {
            // Unreachable with valid descriptors; never spin on it.
            thread::sleep(timeout);
            return;
        }

        // Connections in reverse, so `swap_remove` only moves an entry
        // that was already serviced.
        let first_conn = self.fds.len() - self.conns.len();
        for i in (0..self.conns.len()).rev() {
            if self.fds[first_conn + i].revents != 0
                && !service(&mut self.conns[i], &self.shared, &mut self.ready)
            {
                self.conns.swap_remove(i);
            }
        }
        let now = Instant::now();
        let counters = &self.shared.counters;
        self.conns.retain(|conn| match conn.attribution {
            Attribution::Pending { since } if now >= since + HANDSHAKE_TIMEOUT => {
                counters.handshake_rejects.inc();
                false
            }
            _ => true,
        });
        if self.listener.is_some() && self.fds[1].revents != 0 {
            self.accept_all();
        }
        if self.fds[0].revents != 0 {
            self.wake.drain(&self.shared.inbound_waker);
            self.shared.take_injected(&mut self.ready);
        }
    }

    /// Accepts every pending connection; each must handshake within
    /// [`HANDSHAKE_TIMEOUT`].
    fn accept_all(&mut self) {
        let Some(listener) = &self.listener else {
            return;
        };
        loop {
            match listener.accept() {
                Ok((stream, _)) => {
                    if stream.set_nonblocking(true).is_err() {
                        continue;
                    }
                    let _ = stream.set_nodelay(true);
                    self.conns.push(Conn {
                        stream,
                        parser: FrameParser::new(self.read_buffer, self.max_frame),
                        attribution: Attribution::Pending {
                            since: Instant::now(),
                        },
                    });
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                // `WouldBlock`: all accepted. Anything else is retried
                // on the next pass.
                Err(_) => return,
            }
        }
    }
}

/// Reads once from a readable connection and queues every complete
/// frame; `false` when the connection is finished (closed, failed,
/// rejected) and must be dropped.
fn service(conn: &mut Conn, shared: &Arc<Shared>, ready: &mut VecDeque<(NodeId, Vec<u8>)>) -> bool {
    match conn.parser.read_from(&mut conn.stream) {
        Ok(0) => return false,
        Ok(_) => {}
        Err(e)
            if matches!(
                e.kind(),
                io::ErrorKind::WouldBlock | io::ErrorKind::Interrupted
            ) =>
        {
            return true
        }
        Err(_) => return false,
    }
    let counters = &shared.counters;
    loop {
        let payload = match conn.parser.next_frame() {
            Ok(Some(payload)) => payload,
            Ok(None) => return true,
            Err(_) => {
                // A length over `max_frame`: the stream cannot be
                // resynchronised, so only this connection closes.
                match conn.attribution {
                    Attribution::Pending { .. } => counters.handshake_rejects.inc(),
                    Attribution::Peer { .. } => counters.dropped.inc(),
                }
                return false;
            }
        };
        match &conn.attribution {
            Attribution::Peer { id, .. } => {
                let framed = frame::framed_len(&payload) as u64;
                counters.frames_received.inc();
                counters.bytes_received.add(framed);
                counters.frame_bytes_received.record(framed);
                ready.push_back((*id, payload));
            }
            Attribution::Pending { .. } => {
                // Attribution must name a real peer: an id outside the
                // cluster or the acceptor's own id would silently
                // mis-label every frame on this connection, so such
                // dialers are rejected outright.
                let peer = Handshake::from_wire_bytes(&payload)
                    .ok()
                    .map(|hs| hs.node_id as NodeId)
                    .filter(|id| shared.allowed_peers.contains(id));
                let Some(id) = peer else {
                    counters.handshake_rejects.inc();
                    return false;
                };
                conn.attribution = Attribution::Peer {
                    id,
                    _registered: RegistryGuard::register(shared, id, &conn.stream),
                };
            }
        }
    }
}

impl FrameSource for InboundLoop {
    fn recv_timeout(&mut self, timeout: Duration) -> Result<(NodeId, Vec<u8>), RecvTimeoutError> {
        InboundLoop::recv_timeout(self, timeout).ok_or(RecvTimeoutError::Timeout)
    }

    fn try_recv(&mut self) -> Option<(NodeId, Vec<u8>)> {
        InboundLoop::recv_timeout(self, Duration::ZERO)
    }
}
