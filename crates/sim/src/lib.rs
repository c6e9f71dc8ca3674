//! Deterministic discrete-event WAN simulator for the SBFT reproduction.
//!
//! Replaces the paper's real geo-distributed deployment (§IX) with a
//! reproducible model (see the README's "Substitutions"):
//!
//! - [`Topology`]: the paper's two deployments — continent scale (5
//!   regions × 2 AZs) and world scale (15 regions) — as one-way latency
//!   matrices, plus machine-packing placement ([`Placement`]).
//! - [`NetworkModel`]: per-node egress bandwidth queues, propagation
//!   latency, exponential jitter, finite drops with retransmission, and
//!   healing partitions.
//! - [`Simulation`]: the event loop; nodes are sans-IO state machines
//!   implementing [`Node`], driven by messages and timers, charging
//!   simulated CPU for their work.
//! - [`Metrics`]: message/byte accounting per label (for the linearity
//!   experiment), counters, samples, and optional message traces (for the
//!   Figure-1 flow diagram).
//!
//! # Examples
//!
//! ```
//! use sbft_sim::{
//!     Context, NetworkConfig, NetworkModel, Node, NodeId, Placement, SimDuration, SimMessage,
//!     Simulation, Topology,
//! };
//!
//! #[derive(Clone)]
//! struct Ping;
//! impl SimMessage for Ping {
//!     fn wire_size(&self) -> usize { 16 }
//!     fn label(&self) -> &'static str { "ping" }
//! }
//!
//! struct Echo { seen: u32 }
//! impl Node<Ping> for Echo {
//!     sbft_sim::impl_node_any!();
//!     fn on_start(&mut self, ctx: &mut Context<'_, Ping>) {
//!         if ctx.id() == 0 { ctx.send(1, Ping); }
//!     }
//!     fn on_message(&mut self, from: NodeId, _msg: Ping, ctx: &mut Context<'_, Ping>) {
//!         self.seen += 1;
//!         if self.seen < 3 { ctx.send(from, Ping); }
//!     }
//! }
//!
//! let topology = Topology::lan();
//! let placement = Placement::round_robin(&topology, 2, 1);
//! let network = NetworkModel::new(topology, placement, NetworkConfig::default(), 2);
//! let mut sim = Simulation::new(network, 42, false);
//! sim.add_node(Box::new(Echo { seen: 0 }));
//! sim.add_node(Box::new(Echo { seen: 0 }));
//! sim.start();
//! sim.run_for(SimDuration::from_secs(1));
//! assert_eq!(sim.node_as::<Echo>(1).unwrap().seen, 3);
//! ```

mod engine;
mod metrics;
mod network;
mod node;
mod rng;
mod time;
mod topology;

pub use engine::{NodeRuntime, Simulation};
pub use metrics::{Metrics, SampleStats, TraceEvent};
pub use network::{NetworkConfig, NetworkModel, Partition};
pub use node::{Context, Effects, InboundVerifier, Node, NodeId, SimMessage, TimerId};
pub use rng::SimRng;
pub use time::{SimDuration, SimTime};
pub use topology::{Placement, Topology};

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Clone, Debug)]
    enum Msg {
        Ping(u64),
        Pong(u64),
    }

    impl SimMessage for Msg {
        fn wire_size(&self) -> usize {
            64
        }
        fn label(&self) -> &'static str {
            match self {
                Msg::Ping(_) => "ping",
                Msg::Pong(_) => "pong",
            }
        }
    }

    struct PingPong {
        peer: NodeId,
        initiator: bool,
        rounds: u64,
        completed: u64,
        last_rtt_ms: f64,
        sent_at: SimTime,
    }

    impl PingPong {
        fn new(peer: NodeId, initiator: bool, rounds: u64) -> Self {
            PingPong {
                peer,
                initiator,
                rounds,
                completed: 0,
                last_rtt_ms: 0.0,
                sent_at: SimTime::ZERO,
            }
        }
    }

    impl Node<Msg> for PingPong {
        crate::impl_node_any!();

        fn on_start(&mut self, ctx: &mut Context<'_, Msg>) {
            if self.initiator {
                self.sent_at = ctx.now();
                ctx.send(self.peer, Msg::Ping(0));
            }
        }

        fn on_message(&mut self, from: NodeId, msg: Msg, ctx: &mut Context<'_, Msg>) {
            match msg {
                Msg::Ping(n) => ctx.send(from, Msg::Pong(n)),
                Msg::Pong(n) => {
                    self.completed = n + 1;
                    self.last_rtt_ms = (ctx.now() - self.sent_at).as_millis_f64();
                    ctx.record("rtt_ms", self.last_rtt_ms);
                    if n + 1 < self.rounds {
                        self.sent_at = ctx.now();
                        ctx.send(self.peer, Msg::Ping(n + 1));
                    }
                }
            }
        }
    }

    fn two_node_sim(seed: u64) -> Simulation<Msg> {
        let topology = Topology::continent();
        let placement = Placement::round_robin(&topology, 2, 1);
        let network = NetworkModel::new(topology, placement, NetworkConfig::default(), 2);
        let mut sim = Simulation::new(network, seed, false);
        sim.add_node(Box::new(PingPong::new(1, true, 5)));
        sim.add_node(Box::new(PingPong::new(0, false, 5)));
        sim
    }

    #[test]
    fn ping_pong_completes_with_realistic_rtt() {
        let mut sim = two_node_sim(1);
        sim.start();
        sim.run_for(SimDuration::from_secs(2));
        let metrics_pings = sim.metrics().label_count("ping");
        let metrics_pongs = sim.metrics().label_count("pong");
        let samples = sim.metrics().sample_count("rtt_ms");
        let initiator = sim.node_as::<PingPong>(0).unwrap();
        assert_eq!(initiator.completed, 5);
        // Region 0 → region 1 one-way is 8ms, so RTT ≥ 16ms.
        assert!(
            initiator.last_rtt_ms >= 16.0,
            "rtt {}",
            initiator.last_rtt_ms
        );
        assert_eq!(metrics_pings, 5);
        assert_eq!(metrics_pongs, 5);
        assert_eq!(samples, 5);
    }

    #[test]
    fn determinism_across_identical_runs() {
        let mut a = two_node_sim(7);
        let mut b = two_node_sim(7);
        a.start();
        b.start();
        a.run_for(SimDuration::from_secs(2));
        b.run_for(SimDuration::from_secs(2));
        assert_eq!(
            a.node_as::<PingPong>(0).unwrap().last_rtt_ms,
            b.node_as::<PingPong>(0).unwrap().last_rtt_ms
        );
        assert_eq!(a.events_processed(), b.events_processed());
    }

    #[test]
    fn different_seeds_differ_in_jitter() {
        let mut a = two_node_sim(7);
        let mut b = two_node_sim(8);
        a.start();
        b.start();
        a.run_for(SimDuration::from_secs(2));
        b.run_for(SimDuration::from_secs(2));
        assert_ne!(
            a.node_as::<PingPong>(0).unwrap().last_rtt_ms,
            b.node_as::<PingPong>(0).unwrap().last_rtt_ms
        );
    }

    #[test]
    fn crash_stops_processing() {
        let mut sim = two_node_sim(1);
        sim.schedule_crash(1, SimTime::ZERO + SimDuration::from_millis(20));
        sim.start();
        sim.run_for(SimDuration::from_secs(2));
        assert!(sim.is_crashed(1));
        let initiator = sim.node_as::<PingPong>(0).unwrap();
        assert!(initiator.completed < 5, "peer crashed; rounds must stall");
    }

    struct TimerNode {
        fired: Vec<u64>,
        cancel_second: bool,
    }

    impl Node<Msg> for TimerNode {
        crate::impl_node_any!();

        fn on_start(&mut self, ctx: &mut Context<'_, Msg>) {
            ctx.set_timer(SimDuration::from_millis(10), 1);
            let t2 = ctx.set_timer(SimDuration::from_millis(20), 2);
            ctx.set_timer(SimDuration::from_millis(30), 3);
            if self.cancel_second {
                ctx.cancel_timer(t2);
            }
        }

        fn on_message(&mut self, _from: NodeId, _msg: Msg, _ctx: &mut Context<'_, Msg>) {}

        fn on_timer(&mut self, token: u64, _ctx: &mut Context<'_, Msg>) {
            self.fired.push(token);
        }
    }

    #[test]
    fn timers_fire_in_order_and_cancel() {
        let topology = Topology::lan();
        let placement = Placement::round_robin(&topology, 1, 1);
        let network = NetworkModel::new(topology, placement, NetworkConfig::default(), 1);
        let mut sim = Simulation::new(network, 1, false);
        sim.add_node(Box::new(TimerNode {
            fired: vec![],
            cancel_second: true,
        }));
        sim.start();
        sim.run_for(SimDuration::from_secs(1));
        assert_eq!(sim.node_as::<TimerNode>(0).unwrap().fired, vec![1, 3]);
    }

    struct BusyNode {
        handled_at: Vec<f64>,
    }

    impl Node<Msg> for BusyNode {
        crate::impl_node_any!();

        fn on_message(&mut self, _from: NodeId, _msg: Msg, ctx: &mut Context<'_, Msg>) {
            self.handled_at.push(ctx.now().as_millis_f64());
            // Each message costs 5ms of CPU.
            ctx.charge_cpu(SimDuration::from_millis(5));
        }
    }

    struct Burst {
        target: NodeId,
        count: u64,
    }

    impl Node<Msg> for Burst {
        crate::impl_node_any!();

        fn on_start(&mut self, ctx: &mut Context<'_, Msg>) {
            for i in 0..self.count {
                ctx.send(self.target, Msg::Ping(i));
            }
        }

        fn on_message(&mut self, _from: NodeId, _msg: Msg, _ctx: &mut Context<'_, Msg>) {}
    }

    #[test]
    fn busy_cpu_queues_messages() {
        let topology = Topology::lan();
        let placement = Placement::round_robin(&topology, 2, 1);
        let network = NetworkModel::new(topology, placement, NetworkConfig::default(), 2);
        let mut sim = Simulation::new(network, 1, false);
        sim.add_node(Box::new(Burst {
            target: 1,
            count: 4,
        }));
        sim.add_node(Box::new(BusyNode { handled_at: vec![] }));
        sim.start();
        sim.run_for(SimDuration::from_secs(1));
        let busy = sim.node_as::<BusyNode>(1).unwrap();
        assert_eq!(busy.handled_at.len(), 4);
        // Consecutive handlings are spaced by ≥ 5ms of CPU.
        for w in busy.handled_at.windows(2) {
            assert!(w[1] - w[0] >= 4.9, "spacing {w:?}");
        }
    }

    #[test]
    fn slow_factor_multiplies_cpu() {
        let topology = Topology::lan();
        let placement = Placement::round_robin(&topology, 2, 1);
        let network = NetworkModel::new(topology, placement, NetworkConfig::default(), 2);
        let mut sim = Simulation::new(network, 1, false);
        sim.add_node(Box::new(Burst {
            target: 1,
            count: 3,
        }));
        sim.add_node(Box::new(BusyNode { handled_at: vec![] }));
        sim.set_slow_factor(1, 4.0);
        sim.start();
        sim.run_for(SimDuration::from_secs(1));
        let busy = sim.node_as::<BusyNode>(1).unwrap();
        for w in busy.handled_at.windows(2) {
            assert!(w[1] - w[0] >= 19.9, "slowed spacing {w:?}");
        }
    }

    /// Counts its incarnations and what it hears; arms one long timer at
    /// start so restarts can prove old-epoch timers never fire.
    struct Phoenix {
        incarnation: u32,
        heard: u64,
        stale_timer_fired: bool,
        observed_now_ms: f64,
    }

    impl Node<Msg> for Phoenix {
        crate::impl_node_any!();

        fn on_start(&mut self, ctx: &mut Context<'_, Msg>) {
            self.observed_now_ms = ctx.now().as_millis_f64();
            if self.incarnation == 0 {
                // Armed only by the first life; must die with it.
                ctx.set_timer(SimDuration::from_millis(50), 77);
            }
        }

        fn on_message(&mut self, _from: NodeId, _msg: Msg, _ctx: &mut Context<'_, Msg>) {
            self.heard += 1;
        }

        fn on_timer(&mut self, token: u64, _ctx: &mut Context<'_, Msg>) {
            if token == 77 {
                self.stale_timer_fired = true;
            }
        }
    }

    fn phoenix(incarnation: u32) -> Box<Phoenix> {
        Box::new(Phoenix {
            incarnation,
            heard: 0,
            stale_timer_fired: false,
            observed_now_ms: -1.0,
        })
    }

    #[test]
    fn restart_replaces_state_and_drops_old_epoch_timers() {
        let topology = Topology::lan();
        let placement = Placement::round_robin(&topology, 2, 1);
        let network = NetworkModel::new(topology, placement, NetworkConfig::default(), 2);
        let mut sim = Simulation::new(network, 1, false);
        sim.add_node(Box::new(Burst {
            target: 1,
            count: 3,
        }));
        sim.add_node(phoenix(0));
        sim.start();
        sim.run_for(SimDuration::from_millis(10));
        assert_eq!(sim.node_as::<Phoenix>(1).unwrap().heard, 3);

        // Crash, then restart with empty state before the 50ms timer.
        sim.schedule_crash(1, sim.now());
        sim.run_for(SimDuration::from_millis(10));
        assert!(sim.is_crashed(1));
        sim.restart_node(1, phoenix(1));
        assert!(!sim.is_crashed(1));
        sim.run_for(SimDuration::from_secs(1));

        let reborn = sim.node_as::<Phoenix>(1).unwrap();
        assert_eq!(reborn.incarnation, 1, "fresh state installed");
        assert_eq!(reborn.heard, 0, "fresh state heard nothing new");
        assert!(
            !reborn.stale_timer_fired,
            "a timer armed by the previous incarnation must not fire"
        );
        assert!(
            reborn.observed_now_ms >= 20.0,
            "on_start ran at restart time, not at zero: {}",
            reborn.observed_now_ms
        );
    }

    #[test]
    fn clock_skew_shifts_observed_time_only() {
        let topology = Topology::lan();
        let placement = Placement::round_robin(&topology, 1, 1);
        let network = NetworkModel::new(topology, placement, NetworkConfig::default(), 1);
        let mut sim = Simulation::new(network, 1, false);
        sim.add_node(phoenix(0));
        sim.set_clock_skew(0, 3_000_000_000); // +3s
        sim.start();
        sim.run_for(SimDuration::from_millis(100));
        let node = sim.node_as::<Phoenix>(0).unwrap();
        assert!(
            (node.observed_now_ms - 3_000.0).abs() < 1.0,
            "skewed now: {}",
            node.observed_now_ms
        );
        // The 50ms timer still fires ~50ms of real sim time later — timer
        // durations are monotonic and unaffected by wall-clock skew.
        assert!(node.stale_timer_fired);
    }

    #[test]
    fn duplicate_probability_delivers_twice() {
        let topology = Topology::lan();
        let placement = Placement::round_robin(&topology, 2, 1);
        let network = NetworkModel::new(topology, placement, NetworkConfig::default(), 2);
        let mut sim = Simulation::new(network, 1, false);
        sim.add_node(Box::new(Burst {
            target: 1,
            count: 2,
        }));
        sim.add_node(phoenix(0));
        sim.network_mut().set_duplicate_probability(1.0);
        sim.start();
        sim.run_for(SimDuration::from_secs(1));
        assert_eq!(
            sim.node_as::<Phoenix>(1).unwrap().heard,
            4,
            "every message delivered exactly twice"
        );
    }

    #[test]
    fn run_until_advances_clock_even_when_idle() {
        let mut sim = two_node_sim(1);
        sim.run_until(SimTime::ZERO + SimDuration::from_secs(5));
        assert_eq!(sim.now().as_secs_f64(), 5.0);
    }
}
