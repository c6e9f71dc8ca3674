//! An n = 4 (f = 1, c = 0) SBFT cluster on loopback TCP inside the bench
//! process, one thread per replica (`replica-<r>`), built through the
//! deploy path with the deploy defaults. The bench observes each replica
//! only through what a live runtime already exposes: its telemetry
//! registry (counters, phase tracer), its view and execution frontier
//! (published after every poll), and `ReplicaSnapshot::of` on request.

use std::io;
use std::net::TcpListener;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{self, Sender};
use std::sync::Arc;
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use sbft::core::{make_replica, KeyMaterial, ReplicaNode, ReplicaSnapshot, SbftMsg};
use sbft::crypto::CryptoCostModel;
use sbft::deploy::{
    loopback_config_with_gateway, protocol_for, replica_runtime, replica_runtime_with_pipeline,
};
use sbft::evm::EvmService;
use sbft::telemetry::Registry;
use sbft::transport::{ClusterSpec, NodeRuntime, TcpTransport};

/// Replicas in the cluster (n = 3f + 1 with f = 1).
pub const N: usize = 4;
/// How long a replica thread polls before publishing its status and
/// checking for commands.
const POLL: Duration = Duration::from_millis(10);

/// The replicated state machine the replicas run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServiceKind {
    /// `KvService`, through `sbft::deploy::replica_runtime`.
    Kv,
    /// `EvmService`, wired exactly as the deploy path wires `KvService`.
    Evm,
}

/// What a replica thread publishes after every poll.
#[derive(Default)]
pub struct Status {
    view: AtomicU64,
    last_executed: AtomicU64,
}

impl Status {
    /// Current view.
    pub fn view(&self) -> u64 {
        self.view.load(Ordering::Acquire)
    }

    /// Last executed sequence number.
    pub fn last_executed(&self) -> u64 {
        self.last_executed.load(Ordering::Acquire)
    }
}

enum Command {
    Snapshot(Sender<ReplicaSnapshot>),
}

struct Replica {
    thread: Option<JoinHandle<()>>,
    stop: Arc<AtomicBool>,
    status: Arc<Status>,
    commands: Sender<Command>,
}

impl Replica {
    /// Stops the thread and waits for it; false if it had panicked.
    fn halt(&mut self) -> bool {
        self.stop.store(true, Ordering::Release);
        self.thread
            .take()
            .is_none_or(|thread| thread.join().is_ok())
    }
}

/// A running cluster plus the listener reserved for the bench's node.
pub struct Cluster {
    /// The parsed deployment config every node is built from.
    pub spec: ClusterSpec,
    service: ServiceKind,
    replicas: Vec<Replica>,
    /// Every registry ever booted, `(replica, registry)`, restarts
    /// included: a stopped replica's counters stay readable.
    registries: Vec<(usize, Registry)>,
    tracing: bool,
}

fn bind_loopback() -> io::Result<(TcpListener, String)> {
    let listener = TcpListener::bind("127.0.0.1:0")?;
    let addr = listener.local_addr()?.to_string();
    Ok((listener, addr))
}

/// The deploy path's `replica_runtime` with `EvmService` in place of
/// `KvService`.
fn evm_runtime(
    spec: &ClusterSpec,
    r: usize,
    listener: TcpListener,
) -> io::Result<NodeRuntime<SbftMsg>> {
    let protocol = protocol_for(spec);
    let keys = KeyMaterial::generate(&protocol, spec.seed);
    let replica = make_replica(
        &protocol,
        r,
        &keys,
        Box::new(EvmService::new()),
        CryptoCostModel::free(),
    );
    let transport =
        TcpTransport::with_listener(spec.transport_config(spec.replica_node(r)), listener)?;
    Ok(replica_runtime_with_pipeline(
        replica,
        transport,
        spec.seed ^ (r as u64).wrapping_mul(0x9e3779b97f4a7c15),
        keys.public.clone(),
        spec.resolved_verify_threads(),
        spec.resolved_exec_threads(),
        || Box::new(EvmService::new()),
    ))
}

impl Cluster {
    /// Boots the replicas and returns once each has built its runtime.
    /// `sessions` sizes the gateway's session block; `data_dir` makes
    /// every replica durable (WAL + snapshots, default fsync policy).
    pub fn boot(
        service: ServiceKind,
        seed: u64,
        sessions: usize,
        data_dir: Option<&PathBuf>,
        tracing: bool,
    ) -> io::Result<(Cluster, TcpListener)> {
        let mut listeners = Vec::new();
        let mut addrs = Vec::new();
        for _ in 0..N {
            let (l, a) = bind_loopback()?;
            listeners.push(l);
            addrs.push(a);
        }
        let (gateway, gateway_addr) = bind_loopback()?;
        let mut text =
            loopback_config_with_gateway(1, 0, seed, &addrs, &[], &gateway_addr, sessions);
        if let Some(dir) = data_dir {
            text.push_str(&format!("data_dir {}\n", dir.display()));
        }
        let spec = ClusterSpec::parse(&text)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidInput, e.to_string()))?;
        let mut cluster = Cluster {
            spec,
            service,
            replicas: Vec::new(),
            registries: Vec::new(),
            tracing,
        };
        for (r, listener) in listeners.into_iter().enumerate() {
            let replica = cluster.spawn(r, listener)?;
            cluster.replicas.push(replica);
        }
        Ok((cluster, gateway))
    }

    fn spawn(&mut self, r: usize, listener: TcpListener) -> io::Result<Replica> {
        let stop = Arc::new(AtomicBool::new(false));
        let status = Arc::new(Status::default());
        let (commands, inbox) = mpsc::channel::<Command>();
        let (booted_tx, booted_rx) = mpsc::channel::<io::Result<Registry>>();
        let spec = self.spec.clone();
        let service = self.service;
        let tracing = self.tracing;
        let thread = {
            let stop = Arc::clone(&stop);
            let status = Arc::clone(&status);
            thread::Builder::new()
                .name(format!("replica-{r}"))
                .spawn(move || {
                    let built = match service {
                        ServiceKind::Kv => replica_runtime(&spec, r, Some(listener)),
                        ServiceKind::Evm => evm_runtime(&spec, r, listener),
                    };
                    let mut runtime = match built {
                        Ok(runtime) => runtime,
                        Err(e) => {
                            let _ = booted_tx.send(Err(e));
                            return;
                        }
                    };
                    runtime.registry().tracer().set_enabled(tracing);
                    let _ = booted_tx.send(Ok(runtime.registry().clone()));
                    while !stop.load(Ordering::Acquire) {
                        runtime.poll(POLL);
                        let node = runtime
                            .node_as::<ReplicaNode>()
                            .expect("replica runtime hosts a ReplicaNode");
                        status.view.store(node.view().get(), Ordering::Release);
                        status
                            .last_executed
                            .store(node.last_executed().get(), Ordering::Release);
                        while let Ok(Command::Snapshot(reply)) = inbox.try_recv() {
                            let _ = reply.send(ReplicaSnapshot::of(node, r));
                        }
                    }
                })?
        };
        let registry = booted_rx
            .recv()
            .map_err(|_| io::Error::other(format!("replica {r} thread died while booting")))??;
        self.registries.push((r, registry));
        Ok(Replica {
            thread: Some(thread),
            stop,
            status,
            commands,
        })
    }

    /// Replica `r`'s published status.
    pub fn status(&self, r: usize) -> &Status {
        &self.replicas[r].status
    }

    /// Whether replica `r`'s thread is running.
    pub fn is_live(&self, r: usize) -> bool {
        self.replicas[r].thread.is_some()
    }

    /// Every registry booted so far, restarts included.
    pub fn registries(&self) -> &[(usize, Registry)] {
        &self.registries
    }

    /// Turns every live replica's phase tracer on or off.
    pub fn set_tracing(&mut self, on: bool) {
        self.tracing = on;
        for (_, registry) in &self.registries {
            registry.tracer().set_enabled(on);
        }
    }

    /// Stops replica `r`'s thread and waits for it; its runtime, sockets
    /// and WAL handle drop with it.
    pub fn stop(&mut self, r: usize) {
        assert!(self.replicas[r].halt(), "replica {r} thread panicked");
    }

    /// Restarts a stopped replica from its data dir on its configured
    /// address. The old listener is released by its accept thread within
    /// one accept poll, so the bind is retried briefly.
    pub fn restart(&mut self, r: usize) -> io::Result<()> {
        let addr = self.spec.replicas[r].clone();
        let deadline = Instant::now() + Duration::from_secs(5);
        let listener = loop {
            match TcpListener::bind(&addr) {
                Ok(listener) => break listener,
                Err(_) if Instant::now() < deadline => thread::sleep(Duration::from_millis(10)),
                Err(e) => return Err(e),
            }
        };
        self.replicas[r] = self.spawn(r, listener)?;
        Ok(())
    }

    /// Snapshots every live replica (taken on its own thread).
    pub fn snapshots(&self) -> Vec<ReplicaSnapshot> {
        let mut out = Vec::new();
        for replica in self.replicas.iter().filter(|r| r.thread.is_some()) {
            let (tx, rx) = mpsc::channel();
            if replica.commands.send(Command::Snapshot(tx)).is_ok() {
                if let Ok(snapshot) = rx.recv_timeout(Duration::from_secs(10)) {
                    out.push(snapshot);
                }
            }
        }
        out
    }

    /// Stops every replica and waits for the threads; false if any had
    /// panicked.
    pub fn shutdown(&mut self) -> bool {
        let mut ok = true;
        for replica in &mut self.replicas {
            ok &= replica.halt();
        }
        ok
    }
}

impl Drop for Cluster {
    fn drop(&mut self) {
        self.shutdown();
    }
}
