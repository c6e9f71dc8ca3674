//! The actor interface: nodes are pure state machines driven by the
//! simulator ("sans-IO"); `sbft-transport` runs the same nodes over TCP.

use crate::metrics::Metrics;
use crate::rng::SimRng;
use crate::time::{SimDuration, SimTime};

/// Index of a node (replica or client) within a simulation.
pub type NodeId = usize;

/// Handle to a pending timer, used for cancellation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TimerId(pub(crate) u64);

impl TimerId {
    /// The underlying id, for backends that track timers outside the
    /// simulator (e.g. the wall-clock runtime in `sbft-transport`).
    pub fn raw(self) -> u64 {
        self.0
    }
}

/// Messages exchanged between nodes. The simulator needs each message's
/// wire size (to model transmission) and a label (for metrics).
pub trait SimMessage: Clone + 'static {
    /// Encoded size in bytes; drives bandwidth and byte accounting.
    fn wire_size(&self) -> usize;
    /// Short label for per-message-type metrics (e.g. `"pre-prepare"`).
    fn label(&self) -> &'static str;
}

/// Side effects a node requests during a handler invocation.
#[derive(Debug)]
pub(crate) enum Action<M> {
    Send {
        to: NodeId,
        msg: M,
    },
    SetTimer {
        id: TimerId,
        at: SimTime,
        token: u64,
    },
    CancelTimer {
        id: TimerId,
    },
}

/// The side effects drained from a [`Context`] after one handler
/// invocation, in the order the node requested them.
///
/// The discrete-event engine consumes actions internally; external
/// backends (the real-socket runtime in `sbft-transport`) build a context
/// with [`Context::external`], invoke a handler, then apply these effects
/// to their own network and timer machinery. Keeping the node-facing
/// [`Context`] identical on both paths is what lets `ReplicaNode`,
/// `ClientNode` and the PBFT baseline run unchanged on the simulator and
/// on real TCP sockets.
#[derive(Debug)]
pub struct Effects<M> {
    /// Messages to transmit, as `(destination, message)` pairs.
    pub sends: Vec<(NodeId, M)>,
    /// Timers to arm, as `(id, deadline, token)` — deadlines are in the
    /// same timebase as the `now` the context was built with.
    pub timers: Vec<(TimerId, SimTime, u64)>,
    /// Timers to disarm.
    pub cancels: Vec<TimerId>,
    /// CPU time the handler charged (informational outside the simulator).
    pub cpu: SimDuration,
}

/// Execution context handed to node handlers.
///
/// Collects outgoing messages and timer requests; tracks simulated CPU time
/// the handler charges. Handlers observe time through [`Context::now`].
pub struct Context<'a, M> {
    pub(crate) now: SimTime,
    /// Clock skew applied to [`Context::now`] readings only — timers are
    /// monotonic-clock durations and do not shift with wall time.
    pub(crate) skew_ns: i64,
    pub(crate) node: NodeId,
    pub(crate) rng: &'a mut SimRng,
    pub(crate) metrics: &'a mut Metrics,
    pub(crate) actions: Vec<Action<M>>,
    pub(crate) cpu_charged: SimDuration,
    pub(crate) next_timer_id: &'a mut u64,
    /// When set, [`Context::real_elapsed_ns`] reports wall-clock time
    /// since this handler invocation began. `None` in the simulator (and
    /// by default) so handlers stay deterministic.
    pub(crate) wall_start: Option<std::time::Instant>,
}

impl<'a, M> Context<'a, M> {
    /// Builds a context for an external (non-simulated) backend.
    ///
    /// `now` is whatever timebase the backend maps handlers onto (the TCP
    /// runtime uses nanoseconds since process start); `next_timer_id`
    /// must persist across invocations so [`TimerId`]s stay unique.
    /// After the handler returns, drain the requested side effects with
    /// [`Context::into_effects`].
    pub fn external(
        now: SimTime,
        node: NodeId,
        rng: &'a mut SimRng,
        metrics: &'a mut Metrics,
        next_timer_id: &'a mut u64,
    ) -> Self {
        Context {
            now,
            skew_ns: 0,
            node,
            rng,
            metrics,
            actions: Vec::new(),
            cpu_charged: SimDuration::ZERO,
            next_timer_id,
            wall_start: None,
        }
    }

    /// Arms [`Context::real_elapsed_ns`]: wall-clock runtimes call this
    /// right after building the context so in-handler durations (block
    /// execution, share combination) become observable to tracers. The
    /// simulator never enables it — handlers stay deterministic there.
    pub fn enable_wall_clock(&mut self) {
        self.wall_start = Some(std::time::Instant::now());
    }

    /// Nanoseconds of real time since this handler invocation started,
    /// or 0 when wall-clock observation is disabled (the default, and
    /// always in the simulator).
    pub fn real_elapsed_ns(&self) -> u64 {
        self.wall_start
            .map(|start| start.elapsed().as_nanos() as u64)
            .unwrap_or(0)
    }

    /// Applies a clock skew to this context: subsequent [`Context::now`]
    /// readings shift by `skew_ns` nanoseconds. External backends set
    /// this per invocation (the engine sets it from the node slot).
    pub fn set_clock_skew(&mut self, skew_ns: i64) {
        self.skew_ns = skew_ns;
    }

    /// Consumes the context, returning the side effects the handler
    /// requested (for external backends; the engine drains internally).
    pub fn into_effects(self) -> Effects<M> {
        let mut effects = Effects {
            sends: Vec::new(),
            timers: Vec::new(),
            cancels: Vec::new(),
            cpu: self.cpu_charged,
        };
        for action in self.actions {
            match action {
                Action::Send { to, msg } => effects.sends.push((to, msg)),
                Action::SetTimer { id, at, token } => effects.timers.push((id, at, token)),
                Action::CancelTimer { id } => effects.cancels.push(id),
            }
        }
        effects
    }

    /// Current simulated time (start of this handler invocation), as
    /// observed by this node — a chaos schedule may have skewed it.
    pub fn now(&self) -> SimTime {
        if self.skew_ns >= 0 {
            self.now + SimDuration::from_nanos(self.skew_ns as u64)
        } else {
            SimTime::from_nanos(self.now.as_nanos().saturating_sub((-self.skew_ns) as u64))
        }
    }

    /// The node's own id.
    pub fn id(&self) -> NodeId {
        self.node
    }

    /// Sends a message to another node (or to self).
    pub fn send(&mut self, to: NodeId, msg: M) {
        self.actions.push(Action::Send { to, msg });
    }

    /// Schedules a timer to fire after `delay` with an opaque `token`.
    pub fn set_timer(&mut self, delay: SimDuration, token: u64) -> TimerId {
        let id = TimerId(*self.next_timer_id);
        *self.next_timer_id += 1;
        let at = self.now + delay;
        self.actions.push(Action::SetTimer { id, at, token });
        id
    }

    /// Cancels a previously scheduled timer. Cancelling an already-fired
    /// timer is a no-op.
    pub fn cancel_timer(&mut self, id: TimerId) {
        self.actions.push(Action::CancelTimer { id });
    }

    /// Charges simulated CPU time to this node; subsequent events queue
    /// behind it (the node is busy).
    pub fn charge_cpu(&mut self, d: SimDuration) {
        self.cpu_charged += d;
    }

    /// Charges CPU given in nanoseconds (convenience for cost models).
    pub fn charge_cpu_ns(&mut self, ns: u64) {
        self.charge_cpu(SimDuration::from_nanos(ns));
    }

    /// Deterministic randomness for this node.
    pub fn rng(&mut self) -> &mut SimRng {
        self.rng
    }

    /// Increments a named counter in the run metrics.
    pub fn incr(&mut self, key: &'static str, by: u64) {
        self.metrics.incr(key, by);
    }

    /// Records a sample (e.g. a latency in milliseconds) under a key.
    pub fn record(&mut self, key: &'static str, value: f64) {
        self.metrics.record(key, value);
    }
}

/// Decodes and pre-verifies inbound wire payloads on behalf of a node,
/// off the node's thread.
///
/// This is the seam between the transport's parallel verification
/// pipeline and the protocol crates: the pipeline hands workers raw
/// `(from, payload)` frames, the verifier decodes them and performs every
/// *stateless* check (client PKI signatures, threshold shares or combined
/// signatures over digests the message itself carries, self-contained
/// view-change evidence). Checks that need node state (e.g. a signature
/// over a block digest only the replica's log knows) stay in the node's
/// handlers.
///
/// Implementations must be thread-safe: one verifier instance is shared
/// by every worker in a pool.
pub trait InboundVerifier<M>: Send + Sync + 'static {
    /// Decodes one frame payload; `None` drops it (malformed).
    fn decode(&self, payload: &[u8]) -> Option<M>;

    /// Verifies a batch of decoded messages; `out[i]` says whether
    /// `batch[i]` passed (failures are dropped before the node sees
    /// them). Batching exists so implementations can amortize crypto —
    /// e.g. one random-linear-combination pairing check over every
    /// signature share in the batch. The default accepts everything
    /// (transport-only deployments with no protocol checks).
    fn verify_batch(&self, batch: &[(NodeId, M)]) -> Vec<bool> {
        vec![true; batch.len()]
    }
}

/// A simulated node: replica, client, or any other actor.
///
/// Implementations must be deterministic: all randomness comes from
/// [`Context::rng`] and all time from [`Context::now`].
///
/// The two `as_any` hooks let tests and harnesses downcast nodes back to
/// their concrete types after a run; implement them with
/// [`crate::impl_node_any!`].
pub trait Node<M: SimMessage>: 'static {
    /// Invoked once when the simulation starts.
    fn on_start(&mut self, _ctx: &mut Context<'_, M>) {}

    /// Invoked when a message is delivered.
    fn on_message(&mut self, from: NodeId, msg: M, ctx: &mut Context<'_, M>);

    /// Invoked when a timer set via [`Context::set_timer`] fires.
    fn on_timer(&mut self, _token: u64, _ctx: &mut Context<'_, M>) {}

    /// Upcast for downcasting in tests (`sbft_sim::impl_node_any!()`).
    fn as_any(&self) -> &dyn std::any::Any;

    /// Mutable upcast for downcasting in tests.
    fn as_any_mut(&mut self) -> &mut dyn std::any::Any;
}
