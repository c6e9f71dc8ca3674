//! Real-socket transport and node runtime for the SBFT reproduction.
//!
//! The protocol crates are sans-IO: [`sbft_sim::Node`] state machines
//! driven by messages and timers. The discrete-event simulator is one
//! backend; this crate is the other — the one that makes the repro
//! *deployable*, as the paper's own evaluation ran on real sockets over
//! real WANs (§IX). Three layers:
//!
//! - [`frame`]: length-prefixed framing over the [`sbft_wire`] codec,
//!   with exact byte accounting and a connection [`Handshake`].
//! - [`TcpTransport`]: a std-only TCP mesh (`std::net` plus `ppoll(2)`
//!   declared through `extern "C"` — the workspace is intentionally
//!   dependency-free). Reads run in a caller-driven event loop
//!   ([`InboundLoop`]); sends are written inline, with one writer thread
//!   per node for reconnects (exponential backoff) and backlog drains.
//!   Sever/stat controls and counters mirror the simulator's
//!   [`sbft_sim::Metrics`] labels.
//! - [`NodeRuntime`]: adapts the sim's `Context`/timer API to wall-clock
//!   deadlines so `ReplicaNode`, `ClientNode` and the PBFT baseline run
//!   unchanged over real sockets.
//!
//! [`ClusterSpec`] is the plain-text cluster config the `sbft-node`
//! binary consumes; see the repository README ("Running a real cluster").
//!
//! # Examples
//!
//! Two runtimes on loopback (in-process; a real deployment runs one
//! process per node):
//!
//! ```
//! use sbft_transport::{TcpTransport, TransportConfig};
//! use std::net::TcpListener;
//! use std::time::Duration;
//!
//! let l0 = TcpListener::bind("127.0.0.1:0").unwrap();
//! let l1 = TcpListener::bind("127.0.0.1:0").unwrap();
//! let a0 = l0.local_addr().unwrap().to_string();
//! let a1 = l1.local_addr().unwrap().to_string();
//! let t0 = TcpTransport::with_listener(TransportConfig::new(0, vec![(1, a1)]), l0).unwrap();
//! let t1 = TcpTransport::with_listener(TransportConfig::new(1, vec![(0, a0)]), l1).unwrap();
//! t0.send(1, b"hello".to_vec());
//! let (from, payload) = t1.recv_timeout(Duration::from_secs(5)).unwrap();
//! assert_eq!((from, payload.as_slice()), (0, &b"hello"[..]));
//! ```

pub mod config;
pub mod frame;
pub mod inbound;
pub mod runtime;
mod sys;
pub mod tcp;
pub mod verify;

pub use config::{ClusterSpec, ConfigError, TransportProfile, VariantName};
pub use frame::{
    encode_frame_into, framed_len, write_frame, write_frames, write_msg, FrameParser, FrameReader,
    Handshake, DEFAULT_MAX_FRAME, FRAME_HEADER_BYTES,
};
pub use inbound::InboundLoop;
pub use runtime::NodeRuntime;
pub use tcp::{
    AliasRoute, InboundInjector, TcpTransport, TransportConfig, TransportControl, TransportStats,
};
pub use verify::{FrameSource, VerifyPool, VerifyPoolStats};
