//! The load generator: one thread (`bench-gen`) running a bench-side node
//! that takes the gateway's slot in the cluster config, built from the
//! public `SessionMux` (signing, reply checks) and `GatewayCore`
//! (admission), with the gateway's one connection per replica.
//!
//! Open loop: every second holds exactly the workload's rate of arrivals
//! at seeded random instants; each is stamped with its due time (passed to `SessionMux::submit` as `now_ns`), so a
//! stall in the generator or the cluster shows in latency. Serial: the
//! same arrivals, queued in order for one session, so exactly one request
//! is in flight at a time. Closed loop: each session issues its next
//! request when the previous one finishes.
//!
//! Client policy, the same on every workload: new requests go to the
//! current primary guess; a request unanswered after [`RETRY_NS`] is
//! resent to every replica (§V-A), again after each doubled wait, and
//! the guess moves on when a request sent to it needed a resend; a
//! request unanswered after the gateway's give-up time is abandoned and
//! counted as timed out.
//!
//! Every attempt due inside the measured window ends in exactly one of:
//! verified completion, shed by admission, no free session, dropped as
//! generator debt, timed out (unanswered, or queued for the session past
//! the give-up time), or still outstanding or queued when the drain ends.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};
use std::net::TcpListener;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};

use sbft::core::{ClientRequest, KeyMaterial, SbftMsg};
use sbft::crypto::SplitMix64;
use sbft::deploy::{protocol_for, replica_backlog};
use sbft::gateway::{Admission, AdmissionConfig, GatewayCore, OpenLoopConfig, SessionMux};
use sbft::sim::{Context, Node, NodeId, SimDuration};
use sbft::statedb::KvOp;
use sbft::telemetry::Registry;
use sbft::transport::{ClusterSpec, NodeRuntime, TcpTransport};
use sbft::wire::Wire;

use crate::cluster::N;

/// Resend-to-all delay: the deploy path's client retry timeout.
pub const RETRY_NS: u64 = 400_000_000;
/// An arrival this far behind schedule is dropped as generator debt.
const DEBT_NS: u64 = 1_000_000_000;
const ARRIVAL_TOKEN: u64 = 1;
const HOUSEKEEPING_TOKEN: u64 = 2;
const HOUSEKEEPING: SimDuration = SimDuration::from_millis(10);
/// Spans kept in memory per run; later ones are counted, not stored.
const SPAN_CAP: usize = 300_000;

static EPOCH: OnceLock<Instant> = OnceLock::new();

/// Nanoseconds on the bench's one clock, shared by every thread.
pub fn now_ns() -> u64 {
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// The gateway's give-up time, which the generator shares.
pub fn give_up_ns() -> u64 {
    OpenLoopConfig::default().give_up_after_ns
}

/// How requests are offered.
#[derive(Debug, Clone, Copy)]
pub enum Load {
    /// Fixed arrival rate, independent of completions.
    Open { per_sec: u64 },
    /// Fixed arrival rate; arrivals wait in order for the one session.
    Serial { per_sec: u64 },
    /// Every session keeps one request outstanding.
    Closed,
}

/// Where request payloads come from; seeded, so one seed gives one input.
#[derive(Clone)]
pub enum Ops {
    /// `KvOp::Put` of `value_len` random bytes to a key in `0..key_space`.
    Kv { key_space: u64, value_len: usize },
    /// Pre-built operations, issued in order and cycled.
    Fixed(Arc<Vec<Vec<u8>>>),
}

/// A seeded stream of operations.
pub struct OpStream {
    ops: Ops,
    rng: SplitMix64,
    next: usize,
}

impl OpStream {
    /// The stream for `seed`.
    pub fn new(ops: Ops, seed: u64) -> OpStream {
        OpStream {
            ops,
            rng: SplitMix64::new(seed),
            next: 0,
        }
    }

    /// The next operation's wire bytes.
    pub fn next_op(&mut self) -> Vec<u8> {
        match &self.ops {
            Ops::Kv {
                key_space,
                value_len,
            } => {
                let key = (self.rng.next_u64() % key_space).to_le_bytes().to_vec();
                let mut value = vec![0u8; *value_len];
                for chunk in value.chunks_mut(8) {
                    chunk.copy_from_slice(&self.rng.next_u64().to_le_bytes()[..chunk.len()]);
                }
                KvOp::Put { key, value }.to_wire_bytes()
            }
            Ops::Fixed(list) => {
                let op = list[self.next % list.len()].clone();
                self.next += 1;
                op
            }
        }
    }
}

/// One generator run.
pub struct GenPlan {
    pub load: Load,
    pub ops: Ops,
    /// Operations committed one at a time before the load starts (the
    /// EVM workload's contract deploys).
    pub deploys: Vec<Vec<u8>>,
    pub seed: u64,
    /// Load before the measured window opens, after the first completion.
    pub warmup_ns: u64,
    /// Measured window; `None` stops at the first verified completion
    /// (a set-up-only run).
    pub window_ns: Option<u64>,
}

/// State the generator shares with the bench's main thread.
#[derive(Default)]
pub struct Shared {
    /// First verified completion of a workload request (0 = none yet).
    pub first_completion_ns: AtomicU64,
    /// Measured window bounds, set at the first completion.
    pub window_start_ns: AtomicU64,
    pub window_end_ns: AtomicU64,
    /// When the bench stopped the primary (0 = never).
    pub stop_ns: AtomicU64,
    /// Verified completions so far, any request.
    pub completions: AtomicU64,
    /// Whether spans and call timings are being recorded.
    pub tracing: AtomicBool,
    /// Set by the main thread to end the run early.
    pub abort: AtomicBool,
    /// The generator node's telemetry registry (its transport counters).
    pub registry: OnceLock<Registry>,
}

/// One recorded span, on the bench clock. Spans of one request share
/// `(client, timestamp)`; `parent` names the enclosing span.
#[derive(Debug, Clone, Copy)]
pub struct SpanRec {
    pub name: &'static str,
    pub parent: Option<&'static str>,
    pub client: u32,
    pub timestamp: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Time spent in each library call the generator makes, while tracing.
#[derive(Debug, Clone, Copy, Default)]
pub struct CallTimes {
    pub submit_ns: u64,
    pub submits: u64,
    pub admit_ns: u64,
    pub admits: u64,
    pub on_message_ns: u64,
    pub completions: u64,
}

/// Outcome of a generator run; counts cover attempts due in the window.
#[derive(Default)]
pub struct GenReport {
    pub attempted: u64,
    pub completed: u64,
    pub shed: u64,
    pub timed_out: u64,
    pub exhausted: u64,
    pub debt: u64,
    pub unfinished: u64,
    pub retries: u64,
    /// `(due, latency)`: due (open loop) or send (closed loop) time, and
    /// the time from it to the verified completion.
    pub latencies_ns: Vec<(u64, u64)>,
    /// How late each in-window arrival was issued against its schedule.
    pub late_ns: Vec<u64>,
    /// First verified completion of a request due after the primary stop.
    pub first_after_stop_ns: u64,
    pub times: CallTimes,
    pub spans: Vec<SpanRec>,
    pub spans_dropped: u64,
    /// One signed request of the window, for the codec/crypto replays.
    pub sample_request: Option<ClientRequest>,
}

impl GenReport {
    /// Attempts that did not end in a verified completion.
    pub fn failed(&self) -> u64 {
        self.shed + self.timed_out + self.exhausted + self.debt + self.unfinished
    }
}

#[derive(Clone, Copy, Default)]
struct Slot {
    timestamp: u64,
    due_ns: u64,
    route: usize,
    /// Resends so far.
    retries: u32,
    in_window: bool,
    deploy: bool,
}

/// Open-loop arrival times: every second holds exactly `per_sec`
/// arrivals at seeded uniform offsets (a Poisson process conditioned on
/// its count), so independent users arrive at random instants while
/// every run offers the same number of requests.
struct Schedule {
    per_sec: u64,
    rng: SplitMix64,
    second_start_ns: u64,
    due: VecDeque<u64>,
}

impl Schedule {
    fn new(per_sec: u64, seed: u64) -> Schedule {
        Schedule {
            per_sec,
            rng: SplitMix64::new(seed),
            second_start_ns: 0,
            due: VecDeque::new(),
        }
    }

    /// Starts the schedule with its first arrival due at `now_ns`, so
    /// set-up time never includes a wait for the first random instant.
    fn start(&mut self, now_ns: u64) {
        self.second_start_ns = now_ns;
        self.due.clear();
        let shift = self.peek() - now_ns;
        self.second_start_ns -= shift;
        for due in &mut self.due {
            *due -= shift;
        }
    }

    /// The next arrival's due time.
    fn peek(&mut self) -> u64 {
        while self.due.is_empty() {
            let mut offsets: Vec<u64> = (0..self.per_sec)
                .map(|_| self.rng.next_u64() % 1_000_000_000)
                .collect();
            offsets.sort_unstable();
            self.due
                .extend(offsets.into_iter().map(|o| self.second_start_ns + o));
            self.second_start_ns += 1_000_000_000;
        }
        self.due[0]
    }

    fn pop(&mut self) {
        self.due.pop_front();
    }
}

struct GenNode {
    mux: SessionMux,
    core: GatewayCore,
    guess: usize,
    load: Load,
    ops: OpStream,
    rng: SplitMix64,
    slots: Vec<Slot>,
    idle: Vec<usize>,
    /// Closed-loop sessions waiting to re-issue after a shed.
    waiting: Vec<usize>,
    /// Serial load: due times of arrivals waiting for the session.
    backlog: VecDeque<u64>,
    /// `(resend at, session, timestamp)`, earliest first.
    retry_queue: BinaryHeap<Reverse<(u64, usize, u64)>>,
    /// Per replica: the last time a request sent only to it completed.
    answered_ns: [u64; N],
    give_up_queue: VecDeque<(u64, usize, u64)>,
    deploys: VecDeque<Vec<u8>>,
    running: bool,
    schedule: Option<Schedule>,
    warmup_ns: u64,
    window_ns: Option<u64>,
    window: Option<(u64, u64)>,
    in_window_outstanding: u64,
    shared: Arc<Shared>,
    report: GenReport,
    error: Option<String>,
}

impl GenNode {
    fn in_window(&self, due_ns: u64) -> bool {
        self.window
            .is_some_and(|(start, end)| due_ns >= start && due_ns < end)
    }

    fn issuing(&self, now_ns: u64) -> bool {
        self.running && self.window.is_none_or(|(_, end)| now_ns < end)
    }

    fn span(
        &mut self,
        name: &'static str,
        parent: Option<&'static str>,
        s: usize,
        ts: u64,
        a: u64,
        b: u64,
    ) {
        if self.report.spans.len() >= SPAN_CAP {
            self.report.spans_dropped += 1;
            return;
        }
        self.report.spans.push(SpanRec {
            name,
            parent,
            client: self.mux.client_of(s).get(),
            timestamp: ts,
            start_ns: a,
            end_ns: b,
        });
    }

    /// Signs, admits and sends one request on idle session `s`.
    fn issue(
        &mut self,
        s: usize,
        op: Vec<u8>,
        due_ns: u64,
        deploy: bool,
        ctx: &mut Context<'_, SbftMsg>,
    ) {
        let tracing = self.shared.tracing.load(Ordering::Relaxed);
        let t0 = if tracing { now_ns() } else { 0 };
        let wait_ns = t0.saturating_sub(due_ns);
        let request = self
            .mux
            .submit(s, op, due_ns)
            .expect("issuing on an idle session");
        let t1 = if tracing { now_ns() } else { 0 };
        let now = now_ns();
        let admission = self
            .core
            .admit(request.client.get(), request.timestamp, now);
        let in_window = !deploy && self.in_window(due_ns);
        if tracing {
            let t2 = now_ns();
            self.report.times.submit_ns += t1 - t0;
            self.report.times.submits += 1;
            self.report.times.admit_ns += t2 - t1;
            self.report.times.admits += 1;
            self.span(
                "bench.wait",
                Some("request"),
                s,
                request.timestamp,
                t0 - wait_ns,
                t0,
            );
            self.span(
                "gateway.sign",
                Some("request"),
                s,
                request.timestamp,
                t0,
                t1,
            );
            self.span(
                "gateway.admit",
                Some("request"),
                s,
                request.timestamp,
                t1,
                t2,
            );
        }
        match admission {
            Admission::Admit { .. } => {
                self.slots[s] = Slot {
                    timestamp: request.timestamp,
                    due_ns,
                    route: self.guess,
                    retries: 0,
                    in_window,
                    deploy,
                };
                if in_window {
                    self.in_window_outstanding += 1;
                    if self.report.sample_request.is_none() {
                        self.report.sample_request = Some(request.clone());
                    }
                }
                self.retry_queue
                    .push(Reverse((now + RETRY_NS, s, request.timestamp)));
                self.give_up_queue.push_back((due_ns, s, request.timestamp));
                ctx.send(self.guess, SbftMsg::Request(request));
            }
            Admission::Shed { .. } => {
                self.mux.abandon(s);
                if in_window {
                    self.report.shed += 1;
                }
                // A shed closed-loop session retries at the next
                // housekeeping tick rather than spinning on admission.
                match self.load {
                    Load::Open { .. } | Load::Serial { .. } => self.idle.push(s),
                    Load::Closed => self.waiting.push(s),
                }
            }
        }
    }

    /// Counts an attempt due at `due_ns` if it lies in the window.
    fn attempt(&mut self, due_ns: u64) -> bool {
        let in_window = self.in_window(due_ns);
        if in_window {
            self.report.attempted += 1;
        }
        in_window
    }

    /// A closed-loop session issues its next request now.
    fn issue_closed(&mut self, s: usize, now: u64, ctx: &mut Context<'_, SbftMsg>) {
        self.attempt(now);
        let op = self.ops.next_op();
        self.issue(s, op, now, false, ctx);
    }

    /// Returns session `s` to the pool (open loop) or lets it issue its
    /// next request (closed loop).
    fn release(&mut self, s: usize, now: u64, ctx: &mut Context<'_, SbftMsg>) {
        match self.load {
            Load::Open { .. } => self.idle.push(s),
            Load::Serial { .. } => {
                self.idle.push(s);
                self.drain_backlog(now, ctx);
            }
            Load::Closed if self.issuing(now) => self.issue_closed(s, now, ctx),
            Load::Closed => {}
        }
    }

    fn start_load(&mut self, ctx: &mut Context<'_, SbftMsg>) {
        self.running = true;
        let now = now_ns();
        match self.load {
            Load::Open { .. } | Load::Serial { .. } => {
                if let Some(schedule) = &mut self.schedule {
                    schedule.start(now);
                }
                ctx.set_timer(SimDuration::ZERO, ARRIVAL_TOKEN);
            }
            Load::Closed => {
                for s in 0..self.mux.len() {
                    self.issue_closed(s, now, ctx);
                }
            }
        }
    }

    fn next_deploy(&mut self, ctx: &mut Context<'_, SbftMsg>) {
        match self.deploys.pop_front() {
            Some(op) => self.issue(0, op, now_ns(), true, ctx),
            None => self.start_load(ctx),
        }
    }

    fn arrivals(&mut self, ctx: &mut Context<'_, SbftMsg>) {
        let now = now_ns();
        loop {
            let due = self.schedule.as_mut().expect("open loop").peek();
            if !self.issuing(due) {
                return;
            }
            if due > now {
                ctx.set_timer(SimDuration::from_nanos(due - now), ARRIVAL_TOKEN);
                return;
            }
            self.schedule.as_mut().expect("open loop").pop();
            let in_window = self.attempt(due);
            if now - due > DEBT_NS {
                if in_window {
                    self.report.debt += 1;
                }
                continue;
            }
            if in_window {
                self.report.late_ns.push(now - due);
            }
            if let Load::Serial { .. } = self.load {
                self.backlog.push_back(due);
                self.drain_backlog(now, ctx);
                continue;
            }
            if self.idle.is_empty() {
                if in_window {
                    self.report.exhausted += 1;
                }
                continue;
            }
            let pick = (self.rng.next_u64() % self.idle.len() as u64) as usize;
            let s = self.idle.swap_remove(pick);
            let op = self.ops.next_op();
            self.issue(s, op, due, false, ctx);
        }
    }

    /// Serial load: issues queued arrivals, oldest first, while the
    /// session is idle. An arrival queued past the give-up time is
    /// abandoned unsent and counted as timed out.
    fn drain_backlog(&mut self, now: u64, ctx: &mut Context<'_, SbftMsg>) {
        while !self.idle.is_empty() {
            let Some(due) = self.backlog.pop_front() else {
                return;
            };
            if now - due > give_up_ns() {
                if self.in_window(due) {
                    self.report.timed_out += 1;
                }
                continue;
            }
            let s = self.idle.pop().expect("checked non-empty");
            let op = self.ops.next_op();
            self.issue(s, op, due, false, ctx);
        }
    }

    fn housekeeping(&mut self, ctx: &mut Context<'_, SbftMsg>) {
        let now = now_ns();
        while let Some(&Reverse((at, s, ts))) = self.retry_queue.peek() {
            if at > now {
                break;
            }
            self.retry_queue.pop();
            let slot = self.slots[s];
            if !self.mux.busy(s) || slot.timestamp != ts {
                continue;
            }
            let request = self.mux.resend(s).expect("busy session has a request");
            for r in 0..N {
                ctx.send(r, SbftMsg::Request(request.clone()));
            }
            self.report.retries += 1;
            // Move on only when the guess answered nothing sent since this
            // request: one lost request must not reroute a healthy run.
            let sent = at - RETRY_NS;
            if slot.retries == 0 && slot.route == self.guess && self.answered_ns[slot.route] < sent
            {
                self.guess = (self.guess + 1) % N;
            }
            let retries = slot.retries + 1;
            self.slots[s].retries = retries;
            self.retry_queue
                .push(Reverse((now + (RETRY_NS << retries.min(5)), s, ts)));
        }
        let give_up = give_up_ns();
        while let Some(&(due, s, ts)) = self.give_up_queue.front() {
            if due + give_up > now {
                break;
            }
            self.give_up_queue.pop_front();
            let slot = self.slots[s];
            if !self.mux.busy(s) || slot.timestamp != ts {
                continue;
            }
            self.mux.abandon(s);
            if slot.in_window {
                self.report.timed_out += 1;
                self.in_window_outstanding -= 1;
            }
            if slot.deploy {
                // Later calls would have no contract to call.
                self.error = Some("a contract deploy timed out".to_string());
                return;
            }
            self.release(s, now, ctx);
        }
        self.core.sweep(now);
        for s in std::mem::take(&mut self.waiting) {
            self.release(s, now, ctx);
        }
        ctx.set_timer(HOUSEKEEPING, HOUSEKEEPING_TOKEN);
    }

    fn finished(&self, now: u64) -> bool {
        if self.error.is_some() {
            return true;
        }
        let first = self.shared.first_completion_ns.load(Ordering::Acquire);
        match (self.window_ns, self.window) {
            (None, _) => first != 0,
            (Some(_), Some((_, end))) => {
                now >= end
                    && ((self.in_window_outstanding == 0 && self.backlog.is_empty())
                        || now >= end + give_up_ns() + 200_000_000)
            }
            (Some(_), None) => false,
        }
    }
}

impl Node<SbftMsg> for GenNode {
    sbft::sim::impl_node_any!();

    fn on_start(&mut self, ctx: &mut Context<'_, SbftMsg>) {
        ctx.set_timer(HOUSEKEEPING, HOUSEKEEPING_TOKEN);
        self.next_deploy(ctx);
    }

    fn on_message(&mut self, _from: NodeId, msg: SbftMsg, ctx: &mut Context<'_, SbftMsg>) {
        let tracing = self.shared.tracing.load(Ordering::Relaxed);
        let t0 = now_ns();
        let completion = self.mux.on_message(&msg, t0);
        let t1 = if tracing { now_ns() } else { t0 };
        if tracing {
            self.report.times.on_message_ns += t1 - t0;
        }
        let Some(done) = completion else {
            return;
        };
        let s = done.session;
        let slot = self.slots[s];
        self.core
            .complete(self.mux.client_of(s).get(), done.timestamp);
        self.shared.completions.fetch_add(1, Ordering::Relaxed);
        if slot.retries == 0 {
            self.answered_ns[slot.route] = t1;
        }
        if slot.deploy {
            self.next_deploy(ctx);
            return;
        }
        if self.shared.first_completion_ns.load(Ordering::Acquire) == 0 {
            if let Some(window) = self.window_ns {
                let start = t1 + self.warmup_ns;
                self.window = Some((start, start + window));
                self.shared.window_start_ns.store(start, Ordering::Release);
                self.shared
                    .window_end_ns
                    .store(start + window, Ordering::Release);
            }
            self.shared.first_completion_ns.store(t1, Ordering::Release);
        }
        if slot.in_window {
            self.report.completed += 1;
            self.in_window_outstanding -= 1;
            self.report
                .latencies_ns
                .push((slot.due_ns, done.latency_ns));
        }
        let stop = self.shared.stop_ns.load(Ordering::Acquire);
        if stop != 0 && slot.due_ns >= stop && self.report.first_after_stop_ns == 0 {
            self.report.first_after_stop_ns = t1;
        }
        if tracing {
            self.report.times.completions += 1;
            self.span(
                "gateway.reply_check",
                Some("request"),
                s,
                done.timestamp,
                t0,
                t1,
            );
            self.span("request", None, s, done.timestamp, slot.due_ns, t1);
        }
        self.release(s, t1, ctx);
    }

    fn on_timer(&mut self, token: u64, ctx: &mut Context<'_, SbftMsg>) {
        match (token, self.load) {
            (ARRIVAL_TOKEN, Load::Open { .. } | Load::Serial { .. }) => self.arrivals(ctx),
            (HOUSEKEEPING_TOKEN, _) => self.housekeeping(ctx),
            _ => {}
        }
    }
}

/// Starts the generator thread on the gateway slot of `spec`.
pub fn spawn(
    spec: ClusterSpec,
    listener: TcpListener,
    plan: GenPlan,
    shared: Arc<Shared>,
) -> std::io::Result<JoinHandle<Result<GenReport, String>>> {
    thread::Builder::new()
        .name("bench-gen".to_string())
        .spawn(move || run(spec, listener, plan, shared))
}

fn run(
    spec: ClusterSpec,
    listener: TcpListener,
    plan: GenPlan,
    shared: Arc<Shared>,
) -> Result<GenReport, String> {
    let protocol = protocol_for(&spec);
    let keys = KeyMaterial::generate(&protocol, spec.seed);
    // Session timestamps anchor to wall-clock microseconds, as the
    // deploy path's gateway does.
    let timestamp_base = SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| d.as_micros() as u64)
        .unwrap_or(0);
    let mux = SessionMux::register(
        &protocol,
        keys.public.clone(),
        spec.session_client_base(0),
        spec.gateway_sessions,
        timestamp_base,
    );
    let sessions = mux.len();
    let node = GenNode {
        mux,
        core: GatewayCore::new(AdmissionConfig::default()),
        guess: 0,
        load: plan.load,
        ops: OpStream::new(plan.ops, plan.seed),
        rng: SplitMix64::new(plan.seed ^ 0x5e55_1045),
        slots: vec![Slot::default(); sessions],
        idle: (0..sessions).collect(),
        waiting: Vec::new(),
        backlog: VecDeque::new(),
        retry_queue: BinaryHeap::new(),
        answered_ns: [0; N],
        give_up_queue: VecDeque::new(),
        deploys: plan.deploys.into(),
        running: false,
        schedule: match plan.load {
            Load::Open { per_sec } | Load::Serial { per_sec } => {
                Some(Schedule::new(per_sec, plan.seed ^ 0xa441_7a15))
            }
            Load::Closed => None,
        },
        warmup_ns: plan.warmup_ns,
        window_ns: plan.window_ns,
        window: None,
        in_window_outstanding: 0,
        shared: Arc::clone(&shared),
        report: GenReport::default(),
        error: None,
    };
    let node_id = spec.gateway_node(0);
    let transport = TcpTransport::with_listener(spec.transport_config(node_id), listener)
        .map_err(|e| format!("generator transport: {e}"))?;
    let _ = shared.registry.set(transport.registry());
    let mut runtime = NodeRuntime::new(Box::new(node), transport, plan.seed);
    loop {
        runtime.poll(Duration::from_millis(5));
        // Backpressure, as the gateway host feeds it between polls.
        let pressure = replica_backlog(&runtime, N);
        let node = runtime
            .node_as_mut::<GenNode>()
            .expect("generator runtime hosts the generator node");
        node.core.set_external_pressure(pressure);
        if node.finished(now_ns()) || shared.abort.load(Ordering::Acquire) {
            break;
        }
    }
    let node = runtime
        .node_as_mut::<GenNode>()
        .expect("generator runtime hosts the generator node");
    if let Some(error) = node.error.take() {
        return Err(error);
    }
    let queued = node
        .backlog
        .iter()
        .filter(|due| node.in_window(**due))
        .count() as u64;
    node.report.unfinished = node.in_window_outstanding + queued;
    Ok(std::mem::take(&mut node.report))
}
