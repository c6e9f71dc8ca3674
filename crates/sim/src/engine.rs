//! The deterministic discrete-event engine.
//!
//! One [`Simulation`] owns the nodes, the network model, the event queue
//! and the RNG. Every run with the same seed and inputs produces identical
//! results bit-for-bit.
//!
//! Per-node sequential CPU: handlers charge simulated CPU via
//! [`Context::charge_cpu`]; while a node is busy, later deliveries queue
//! behind it. Outgoing messages leave when the handler's CPU work
//! completes, then flow through the [`NetworkModel`] (egress bandwidth,
//! latency, jitter, retransmits, partitions).

use std::cmp::Ordering;
use std::collections::{BinaryHeap, HashSet};

use crate::metrics::Metrics;
use crate::network::NetworkModel;
use crate::node::{Action, Context, Node, NodeId, SimMessage};
use crate::rng::SimRng;
use crate::time::{SimDuration, SimTime};

/// Per-node runtime configuration.
#[derive(Debug, Clone)]
pub struct NodeRuntime {
    /// Fixed CPU overhead charged per handled message (deserialization,
    /// syscalls, dispatch). Makes message *count* a first-class cost, which
    /// is what separates quadratic from linear protocols.
    pub per_message_overhead: SimDuration,
}

impl Default for NodeRuntime {
    fn default() -> Self {
        NodeRuntime {
            per_message_overhead: SimDuration::from_micros(10),
        }
    }
}

enum EventKind<M> {
    Start(NodeId),
    Deliver {
        to: NodeId,
        from: NodeId,
        msg: M,
    },
    Timer {
        node: NodeId,
        id: u64,
        token: u64,
        /// Node incarnation that armed the timer: a restarted node must
        /// never receive callbacks armed by its previous life.
        epoch: u32,
    },
    Crash(NodeId),
}

struct QueuedEvent<M> {
    at: SimTime,
    seq: u64,
    kind: EventKind<M>,
}

impl<M> PartialEq for QueuedEvent<M> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl<M> Eq for QueuedEvent<M> {}
impl<M> PartialOrd for QueuedEvent<M> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<M> Ord for QueuedEvent<M> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert for earliest-first.
        other
            .at
            .cmp(&self.at)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

struct NodeSlot<M: SimMessage> {
    node: Box<dyn Node<M>>,
    busy_until: SimTime,
    crashed: bool,
    slow_factor: f64,
    started: bool,
    /// Incarnation counter, bumped by [`Simulation::restart_node`].
    epoch: u32,
    /// Clock skew in nanoseconds added to the time this node observes
    /// via `ctx.now()`. Timer *durations* are unaffected (monotonic
    /// clocks don't skew with wall time).
    clock_skew_ns: i64,
    /// Flat extra busy time added after every handler invocation — a
    /// gray-failed replica that still answers everything, just late
    /// (GC stalls, a saturated disk), as opposed to `slow_factor`
    /// which scales with the handler's own CPU charge.
    extra_process_delay: SimDuration,
}

/// A deterministic discrete-event simulation over nodes exchanging `M`.
pub struct Simulation<M: SimMessage> {
    nodes: Vec<NodeSlot<M>>,
    network: NetworkModel,
    runtime: NodeRuntime,
    queue: BinaryHeap<QueuedEvent<M>>,
    now: SimTime,
    seq: u64,
    rng: SimRng,
    metrics: Metrics,
    next_timer_id: u64,
    cancelled_timers: HashSet<u64>,
    events_processed: u64,
}

impl<M: SimMessage> Simulation<M> {
    /// Creates a simulation over a prepared network model.
    pub fn new(network: NetworkModel, seed: u64, trace: bool) -> Self {
        Simulation {
            nodes: Vec::new(),
            network,
            runtime: NodeRuntime::default(),
            queue: BinaryHeap::new(),
            now: SimTime::ZERO,
            seq: 0,
            rng: SimRng::new(seed),
            metrics: Metrics::new(trace),
            next_timer_id: 0,
            cancelled_timers: HashSet::new(),
            events_processed: 0,
        }
    }

    /// Overrides the per-node runtime costs.
    pub fn set_runtime(&mut self, runtime: NodeRuntime) {
        self.runtime = runtime;
    }

    /// Adds a node; its id is its insertion index, which must match the
    /// placement used to build the network model.
    pub fn add_node(&mut self, node: Box<dyn Node<M>>) -> NodeId {
        let id = self.nodes.len();
        self.nodes.push(NodeSlot {
            node,
            busy_until: SimTime::ZERO,
            crashed: false,
            slow_factor: 1.0,
            started: false,
            epoch: 0,
            clock_skew_ns: 0,
            extra_process_delay: SimDuration::ZERO,
        });
        id
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Run metrics so far.
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// Mutable access to the network model (partitions, stragglers).
    pub fn network_mut(&mut self) -> &mut NetworkModel {
        &mut self.network
    }

    /// Total events processed (progress diagnostics).
    pub fn events_processed(&self) -> u64 {
        self.events_processed
    }

    /// Downcasts a node to its concrete type for inspection in tests.
    pub fn node_as<T: 'static>(&self, id: NodeId) -> Option<&T> {
        self.nodes[id].node.as_any().downcast_ref::<T>()
    }

    /// Mutable downcast of a node.
    pub fn node_as_mut<T: 'static>(&mut self, id: NodeId) -> Option<&mut T> {
        self.nodes[id].node.as_any_mut().downcast_mut::<T>()
    }

    /// Schedules a crash fault: from `at` on, the node processes nothing.
    pub fn schedule_crash(&mut self, node: NodeId, at: SimTime) {
        let seq = self.bump_seq();
        self.queue.push(QueuedEvent {
            at,
            seq,
            kind: EventKind::Crash(node),
        });
    }

    /// Crashes a node *now*, synchronously — the fault-injection analog
    /// of killing a process. Unlike [`Self::schedule_crash`], no event
    /// is queued, so a subsequent [`Self::restart_node`] at the same
    /// instant cannot be killed by a crash that was still in flight.
    pub fn crash_node(&mut self, node: NodeId) {
        self.nodes[node].crashed = true;
    }

    /// Returns whether a node has crashed.
    pub fn is_crashed(&self, node: NodeId) -> bool {
        self.nodes[node].crashed
    }

    /// Restarts a node **with the supplied fresh state** at the current
    /// simulated time: the replacement processes nothing armed by the
    /// previous incarnation (timers are epoch-filtered) and receives
    /// `on_start` like a freshly booted process. Messages already in
    /// flight toward the node may still arrive after the restart — on a
    /// real network a delayed packet can do the same, and a BFT node
    /// must tolerate it.
    ///
    /// The node need not have crashed first; restarting a live node
    /// models an abrupt kill-and-reboot.
    pub fn restart_node(&mut self, node: NodeId, fresh: Box<dyn Node<M>>) {
        let slot = &mut self.nodes[node];
        slot.node = fresh;
        slot.crashed = false;
        slot.busy_until = self.now;
        slot.epoch += 1;
        slot.started = true;
        let seq = self.bump_seq();
        self.queue.push(QueuedEvent {
            at: self.now,
            seq,
            kind: EventKind::Start(node),
        });
    }

    /// Skews the clock a node observes through `ctx.now()` by `skew_ns`
    /// nanoseconds (positive = the node believes it is in the future).
    pub fn set_clock_skew(&mut self, node: NodeId, skew_ns: i64) {
        self.nodes[node].clock_skew_ns = skew_ns;
    }

    /// Makes a node's CPU `factor`× slower (a "slow or faulty" replica in
    /// the paper's common mode).
    pub fn set_slow_factor(&mut self, node: NodeId, factor: f64) {
        assert!(factor >= 1.0, "slow factor must be >= 1");
        self.nodes[node].slow_factor = factor;
    }

    /// Adds a flat processing delay after every handler invocation on
    /// `node` (zero clears it). Models a gray failure: the node stays
    /// up and responds to everything, only late — stalls a slow-CPU
    /// factor alone cannot express at low load.
    pub fn set_processing_delay(&mut self, node: NodeId, delay: SimDuration) {
        self.nodes[node].extra_process_delay = delay;
    }

    fn bump_seq(&mut self) -> u64 {
        let s = self.seq;
        self.seq += 1;
        s
    }

    /// Queues `on_start` for every node that has not started yet.
    pub fn start(&mut self) {
        for id in 0..self.nodes.len() {
            if !self.nodes[id].started {
                self.nodes[id].started = true;
                let seq = self.bump_seq();
                self.queue.push(QueuedEvent {
                    at: self.now,
                    seq,
                    kind: EventKind::Start(id),
                });
            }
        }
    }

    /// Processes a single event. Returns `false` when the queue is empty.
    pub fn step(&mut self) -> bool {
        let Some(event) = self.queue.pop() else {
            return false;
        };
        debug_assert!(event.at >= self.now, "time went backwards");
        self.now = event.at;
        self.events_processed += 1;
        match event.kind {
            EventKind::Crash(node) => {
                self.nodes[node].crashed = true;
            }
            EventKind::Start(node) => {
                self.dispatch(node, |n, ctx| n.on_start(ctx));
            }
            EventKind::Deliver { to, from, msg } => {
                if self.nodes[to].crashed {
                    return true;
                }
                // If the receiver is busy, re-queue at its free time.
                let busy = self.nodes[to].busy_until;
                if busy > self.now {
                    let seq = self.bump_seq();
                    self.queue.push(QueuedEvent {
                        at: busy,
                        seq,
                        kind: EventKind::Deliver { to, from, msg },
                    });
                    return true;
                }
                self.dispatch(to, |n, ctx| n.on_message(from, msg, ctx));
            }
            EventKind::Timer {
                node,
                id,
                token,
                epoch,
            } => {
                if self.nodes[node].epoch != epoch {
                    // Armed by a previous incarnation; the restart wiped it.
                    self.cancelled_timers.remove(&id);
                    return true;
                }
                if self.cancelled_timers.remove(&id) || self.nodes[node].crashed {
                    return true;
                }
                let busy = self.nodes[node].busy_until;
                if busy > self.now {
                    let seq = self.bump_seq();
                    self.queue.push(QueuedEvent {
                        at: busy,
                        seq,
                        kind: EventKind::Timer {
                            node,
                            id,
                            token,
                            epoch,
                        },
                    });
                    return true;
                }
                self.dispatch(node, |n, ctx| n.on_timer(token, ctx));
            }
        }
        true
    }

    fn dispatch<F>(&mut self, node_id: NodeId, f: F)
    where
        F: FnOnce(&mut dyn Node<M>, &mut Context<'_, M>),
    {
        let slot = &mut self.nodes[node_id];
        let epoch = slot.epoch;
        let mut ctx = Context {
            now: self.now,
            skew_ns: slot.clock_skew_ns,
            node: node_id,
            rng: &mut self.rng,
            metrics: &mut self.metrics,
            actions: Vec::new(),
            cpu_charged: SimDuration::ZERO,
            next_timer_id: &mut self.next_timer_id,
            wall_start: None,
        };
        f(slot.node.as_mut(), &mut ctx);
        let cpu = (ctx.cpu_charged + self.runtime.per_message_overhead)
            .mul_f64(slot.slow_factor.max(1.0))
            + slot.extra_process_delay;
        let actions = ctx.actions;
        slot.busy_until = self.now + cpu;
        let depart = slot.busy_until;
        for action in actions {
            match action {
                Action::Send { to, msg } => {
                    let bytes = msg.wire_size();
                    self.metrics
                        .note_send(depart, node_id, to, msg.label(), bytes);
                    let Some(arrival) =
                        self.network
                            .delivery_time(&mut self.rng, node_id, to, bytes, depart)
                    else {
                        continue; // lost: receiver is in a deaf window
                    };
                    // The duplicate (if rolled) clones; the primary
                    // delivery moves — the common no-duplication path
                    // stays clone-free.
                    if let Some(extra) = self.network.roll_duplicate(&mut self.rng) {
                        let seq = self.bump_seq();
                        self.queue.push(QueuedEvent {
                            at: arrival + extra,
                            seq,
                            kind: EventKind::Deliver {
                                to,
                                from: node_id,
                                msg: msg.clone(),
                            },
                        });
                    }
                    let seq = self.bump_seq();
                    self.queue.push(QueuedEvent {
                        at: arrival,
                        seq,
                        kind: EventKind::Deliver {
                            to,
                            from: node_id,
                            msg,
                        },
                    });
                }
                Action::SetTimer { id, at, token } => {
                    let seq = self.bump_seq();
                    self.queue.push(QueuedEvent {
                        at: at.max(self.now),
                        seq,
                        kind: EventKind::Timer {
                            node: node_id,
                            id: id.0,
                            token,
                            epoch,
                        },
                    });
                }
                Action::CancelTimer { id } => {
                    self.cancelled_timers.insert(id.0);
                }
            }
        }
    }

    /// Runs until the queue is drained or simulated time exceeds `deadline`.
    /// Returns the number of events processed.
    pub fn run_until(&mut self, deadline: SimTime) -> u64 {
        let before = self.events_processed;
        while let Some(next) = self.queue.peek() {
            if next.at > deadline {
                break;
            }
            self.step();
        }
        self.now = self.now.max(deadline);
        self.events_processed - before
    }

    /// Runs for a span of simulated time.
    pub fn run_for(&mut self, span: SimDuration) -> u64 {
        let deadline = self.now + span;
        self.run_until(deadline)
    }

    /// Runs until the event queue is empty (useful with protocols that
    /// quiesce) or `max_events` is hit.
    pub fn run_to_quiescence(&mut self, max_events: u64) -> u64 {
        let before = self.events_processed;
        while self.events_processed - before < max_events {
            if !self.step() {
                break;
            }
        }
        self.events_processed - before
    }
}

/// Implements the downcast hooks for a node type.
///
/// Protocol crates call this for each `Node` implementation:
///
/// ```ignore
/// impl Node<MyMsg> for MyNode {
///     sbft_sim::impl_node_any!();
///     // handlers ...
/// }
/// ```
#[macro_export]
macro_rules! impl_node_any {
    () => {
        fn as_any(&self) -> &dyn std::any::Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
            self
        }
    };
}
