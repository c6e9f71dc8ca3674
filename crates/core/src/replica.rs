//! The SBFT replica (§V).
//!
//! One state machine per replica, driven by the simulator. A replica can
//! simultaneously act as primary, C-collector and E-collector depending on
//! `(seq, view)` (§V-B); collector duties rotate per decision block to
//! spread load.
//!
//! Commit paths:
//!
//! - **fast** (§V-C): pre-prepare → sign-share (σ) → full-commit-proof;
//! - **linear-PBFT** (§V-E): sign-share (τ) → prepare → commit →
//!   full-commit-proof-slow, entered when the fast path times out or is
//!   disabled.
//!
//! Execution (§V-D): consecutive committed blocks execute against the
//! [`Service`]; π shares flow to E-collectors which certify the state and
//! (in single-ack mode) acknowledge each client with one message.

use std::collections::{BTreeMap, HashMap, HashSet, VecDeque};

use sbft_types::{ClientId, Digest, ReplicaId, SeqNum, ViewNum};

use sbft_crypto::{CryptoCostModel, PkiSignature, Signature, SignatureShare};
use sbft_sim::{Context, Node, NodeId, SimDuration, SimTime, TimerId};
use sbft_statedb::{
    combine_state_digest, AuthKv, Block, Checkpoint, ChunkAssembler, Ledger, Service, Snapshot,
    StateChunk,
};
use sbft_telemetry::{Phase, PhaseTracer};
use sbft_wire::{ClientSignature, Wire};

use crate::config::ProtocolConfig;
use crate::exec::{ExecEngine, ExecPool};
use crate::keys::{
    KeyMaterial, PublicKeys, ReplicaKeys, DOMAIN_HEARTBEAT, DOMAIN_PI, DOMAIN_SIGMA, DOMAIN_TAU,
};
use crate::liveness::{FailureDetector, FastPathHysteresis, TimeoutController};
use crate::messages::{
    block_digest, commit2_digest, heartbeat_digest, ClientRequest, CommitCert, FastEvidence,
    NewViewMsg, SbftMsg, SlowEvidence, VcEntry, ViewChangeMsg,
};
use crate::persist::{DurabilityImage, RecoveredState, ReplicaDurability};
use crate::verify::{ShareKind, ShareVerifyMap};
use crate::viewchange::{compute_plan, validate_view_change, NewViewPlan, SlotDecision};

/// Timer token kinds (token = kind | payload << 8).
mod timer {
    pub const BATCH: u64 = 1;
    pub const FAST_TIMEOUT: u64 = 2;
    pub const STAGGER_FAST: u64 = 3;
    pub const STAGGER_PREPARE: u64 = 4;
    pub const STAGGER_SLOW: u64 = 5;
    pub const STAGGER_EXEC: u64 = 6;
    pub const WATCHDOG: u64 = 7;
    pub const VC_RETRY: u64 = 8;
    pub const RECOVERY: u64 = 9;
    pub const HEARTBEAT: u64 = 10;

    pub fn token(kind: u64, payload: u64) -> u64 {
        kind | (payload << 8)
    }
    pub fn split(token: u64) -> (u64, u64) {
        (token & 0xff, token >> 8)
    }
}

/// Fault-injection behaviours for tests and the view-change stress
/// experiment (E8). Honest replicas use [`Behavior::Honest`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Behavior {
    /// Follow the protocol.
    #[default]
    Honest,
    /// As primary, send conflicting pre-prepares to two halves of the
    /// cluster (equivocation; must be detected without safety loss).
    EquivocatingPrimary,
    /// As primary, never propose (liveness failure; forces view change).
    MutePrimary,
    /// Send view-change messages with no evidence (stale information).
    StaleViewChange,
}

#[derive(Debug, Default)]
struct Slot {
    /// View of the currently accepted pre-prepare.
    view: Option<ViewNum>,
    /// When this replica first accepted a pre-prepare for the slot —
    /// the anchor for the adaptive timers' σ-gap and commit-latency
    /// samples (absent on slots filled by WAL replay or view change).
    first_seen: Option<SimTime>,
    requests: Option<Vec<ClientRequest>>,
    h: Option<Digest>,
    sign_share_sent: bool,
    commit_share_sent: bool,
    // --- C-collector state ---
    sigma_shares: BTreeMap<u16, SignatureShare>,
    tau_shares: BTreeMap<u16, SignatureShare>,
    commit2_shares: BTreeMap<u16, SignatureShare>,
    fast_timer: Option<TimerId>,
    fast_proof_sent: bool,
    prepare_sent: bool,
    slow_proof_sent: bool,
    // --- replica commit state ---
    /// Highest prepare certificate accepted (view-change evidence `lm`).
    prepared: Option<(Signature, ViewNum)>,
    /// This replica's σ share on its accepted pre-prepare (evidence `fm`).
    my_sigma_share: Option<SignatureShare>,
    commit_cert: Option<CommitCert>,
    commit_view: Option<ViewNum>,
    committed: bool,
    // --- execution state ---
    exec_digest: Option<Digest>,
    state_root: Option<Digest>,
    results_root: Option<Digest>,
    // --- E-collector state ---
    pi_shares: BTreeMap<Digest, BTreeMap<u16, SignatureShare>>,
    exec_proof: Option<Signature>,
    exec_proof_sent: bool,
    acks_sent: bool,
    exec_timer_set: bool,
    // --- collector sets, computed once per (seq, view) ---
    /// C-collectors of `(seq, view)` for the view they were computed in.
    c_collectors: Option<(ViewNum, Vec<ReplicaId>)>,
    /// E-collectors of `seq` (always chosen in view 0).
    e_collectors: Option<Vec<ReplicaId>>,
}

/// A client's latest executed request: a §V-A resend of it is answered
/// from here even after the stable checkpoint dropped its block's
/// execution artifacts.
struct LatestExecuted {
    timestamp: u64,
    seq: SeqNum,
    result: Vec<u8>,
}

/// The SBFT replica node.
pub struct ReplicaNode {
    config: ProtocolConfig,
    id: ReplicaId,
    public: std::sync::Arc<PublicKeys>,
    my_keys: ReplicaKeys,
    /// Commit→execute→reply pipeline: inline (the pre-offload path, used
    /// by the simulator and `--exec-threads 1` runtimes) or handed to a
    /// dedicated executor thread (see [`Self::offload_execution`]).
    engine: ExecEngine,
    /// Slot-digest map shared with the verification pipeline: the node
    /// publishes each slot's block digest so workers can pre-verify σ/τ
    /// shares; combine sites skip the batch pairing when every share they
    /// hold was marked (see [`crate::verify::ShareVerifyMap`]).
    shares: Option<std::sync::Arc<ShareVerifyMap>>,
    cost: CryptoCostModel,
    behavior: Behavior,
    /// Inbound messages were already decoded **and verified** by the
    /// transport's parallel verification pipeline (see
    /// `crate::verify::SbftPreVerifier`): handlers skip the stateless
    /// checks the pipeline covers — client request signatures, π
    /// shares/proofs over carried digests, view-change evidence — along
    /// with their CPU charges. Checks that depend on replica state (block
    /// digests only the log knows) always run here.
    inbound_preverified: bool,

    view: ViewNum,
    in_view_change: bool,
    slots: BTreeMap<u64, Slot>,
    last_executed: SeqNum,
    last_stable: SeqNum,
    /// `(d_ls, π(d_ls))` — checkpoint proof for `last_stable`.
    stable_cert: Option<(Digest, Signature)>,
    /// `(state_root, results_root)` at the stable checkpoint, for state
    /// transfer certificates.
    stable_roots: Option<(Digest, Digest)>,
    /// The state right after the latest executed checkpoint candidate
    /// (a seq at least `checkpoint_period` past `last_stable`), kept
    /// until its execute proof arrives: by then later blocks may have
    /// executed, and the engine holds only the newest state.
    checkpoint_candidate: Option<(SeqNum, AuthKv)>,
    ledger: Ledger,

    // Primary state.
    pending: VecDeque<ClientRequest>,
    next_proposal: SeqNum,
    batch_timer_set: bool,
    /// Size of the most recent block this primary proposed: the
    /// group-commit hysteresis signal. Small last block ⇒ light load ⇒
    /// propose instantly; a full recent block keeps pooling on so a
    /// cohort's stragglers ride one round instead of fragmenting.
    last_block_len: usize,
    /// Highest proposed timestamp per client (primary-side dedup).
    proposed_table: HashMap<u32, u64>,
    /// Requests whose client signature this replica already verified,
    /// keyed by `(client, timestamp)` with the verified signature **and
    /// the op digest** as the value: a forwarded request verified in
    /// `handle_request` is not re-verified (or re-charged) when the same
    /// request arrives inside a pre-prepare — the cost model charges
    /// once per unique verification, mirroring the digest-deduped real
    /// code path. Both stored fields must match for a hit: comparing the
    /// signature alone would let a Byzantine primary splice a *copied*
    /// valid signature onto a different op and ride the memo past
    /// verification. Entries drain on execution, with a size guard for
    /// requests that never commit.
    verified_requests: HashMap<(u32, u64), (PkiSignature, Digest)>,
    /// Insertion order of `verified_requests` keys, for FIFO eviction at
    /// the cap (oldest entries re-verify; newest — the ones still likely
    /// to ride a pre-prepare — stay memoized). Compacted periodically to
    /// shed keys already drained by execution.
    verified_order: VecDeque<(u32, u64)>,

    // Execution bookkeeping.
    /// Latest executed request per client, with its result.
    client_table: HashMap<u32, LatestExecuted>,
    /// `(client, timestamp) → (seq, index)` for executed requests.
    executed_requests: HashMap<(u32, u64), (SeqNum, u32)>,
    /// Requests this replica knows are outstanding (liveness watchdog).
    forwarded: HashMap<(u32, u64), ()>,

    // View change state.
    vc_messages: BTreeMap<u64, BTreeMap<u32, ViewChangeMsg>>,
    vc_attempts: u32,
    watchdog_mark: (SeqNum, ViewNum),
    watchdog_set: bool,
    pending_new_view: Option<NewViewPlan>,

    /// Consecutive fast-path fallbacks observed (the §VIII adaptive
    /// switch: after a few, skip the fast wait and go straight to the
    /// linear path, probing the fast path again periodically).
    consecutive_fallbacks: u32,

    // Adaptive liveness.
    /// Jacobson/Karels estimators over observed σ-gap and commit latency;
    /// derives the fast-path timeout, collector stagger, and base
    /// view-change timeout (clamped by the `ProtocolConfig` floors and
    /// the static values as ceilings).
    timers: TimeoutController,
    /// Fast-path engage/release hysteresis on the σ-completion rate —
    /// the principled replacement for the raw fallback-streak probe.
    hysteresis: FastPathHysteresis,
    /// φ-accrual failure detector fed by heartbeats and ordinary
    /// protocol traffic; drives proactive view changes and collector
    /// stagger reordering.
    detector: FailureDetector,
    /// Consecutive heartbeat ticks on which the current primary looked
    /// suspect (two in a row before a proactive view change — one noisy
    /// φ spike is not evidence of a gray failure).
    primary_suspect_ticks: u32,
    /// Max φ (in milli-units) over peers at the last heartbeat tick,
    /// cached so transports can export it as a gauge without a clock.
    suspicion_gauge_milli: u64,

    // State transfer.
    assembler: ChunkAssembler,
    chunk_cert: Option<(Digest, Digest, Signature)>,
    state_request_outstanding: bool,

    // Durability & startup recovery.
    /// Durable backing store (commit WAL + checkpoint snapshots). `None`
    /// keeps the replica memory-only (the pre-durability behaviour).
    durability: Option<ReplicaDurability>,
    /// State recovered from durable media, applied in `on_start` (the
    /// install/replay needs a context to emit effects).
    pending_recovery: Option<RecoveredState>,
    /// Startup recovery handshake: peer → its offered execution
    /// frontier. f+1 offers at or below our own frontier end recovery.
    recovery_offers: BTreeMap<usize, u64>,
    /// True from boot until the handshake confirms we are caught up.
    recovery_active: bool,

    /// Optional per-request phase tracer (see [`Self::set_tracer`]):
    /// stamps each request's lifecycle so end-to-end latency decomposes
    /// into queue / verify / consensus / execute / reply components.
    tracer: Option<PhaseTracer>,
}

impl ReplicaNode {
    /// Creates a replica with the given keys and service backend.
    pub fn new(
        config: ProtocolConfig,
        id: ReplicaId,
        keys: &KeyMaterial,
        service: Box<dyn Service>,
        cost: CryptoCostModel,
    ) -> Self {
        let detector = FailureDetector::new(
            config.n(),
            config.heartbeat_interval,
            config.suspicion_threshold,
        );
        ReplicaNode {
            my_keys: keys.replicas[id.as_usize()].clone(),
            public: keys.public.clone(),
            config,
            id,
            engine: ExecEngine::inline(service),
            shares: None,
            cost,
            behavior: Behavior::Honest,
            inbound_preverified: false,
            view: ViewNum::ZERO,
            in_view_change: false,
            slots: BTreeMap::new(),
            last_executed: SeqNum::ZERO,
            last_stable: SeqNum::ZERO,
            stable_cert: None,
            stable_roots: None,
            checkpoint_candidate: None,
            ledger: Ledger::new(),
            pending: VecDeque::new(),
            next_proposal: SeqNum::new(1),
            batch_timer_set: false,
            last_block_len: 0,
            proposed_table: HashMap::new(),
            verified_requests: HashMap::new(),
            verified_order: VecDeque::new(),
            client_table: HashMap::new(),
            executed_requests: HashMap::new(),
            forwarded: HashMap::new(),
            vc_messages: BTreeMap::new(),
            vc_attempts: 0,
            watchdog_mark: (SeqNum::ZERO, ViewNum::ZERO),
            watchdog_set: false,
            pending_new_view: None,
            consecutive_fallbacks: 0,
            timers: TimeoutController::new(),
            hysteresis: FastPathHysteresis::default(),
            detector,
            primary_suspect_ticks: 0,
            suspicion_gauge_milli: 0,
            assembler: ChunkAssembler::new(),
            chunk_cert: None,
            state_request_outstanding: false,
            durability: None,
            pending_recovery: None,
            recovery_offers: BTreeMap::new(),
            recovery_active: false,
            tracer: None,
        }
    }

    /// Sets a fault-injection behaviour (defaults to honest).
    pub fn set_behavior(&mut self, behavior: Behavior) {
        self.behavior = behavior;
    }

    /// Declares that inbound messages arrive through a verification
    /// pipeline that already performed every stateless check (defaults to
    /// off: the simulator and single-threaded runtimes deliver raw
    /// messages). Self-sent (loopback) messages are trusted either way.
    pub fn set_inbound_preverified(&mut self, preverified: bool) {
        self.inbound_preverified = preverified;
    }

    /// Moves block execution off this node's thread: committed blocks are
    /// handed to `pool`'s executor thread and their effects (replies,
    /// π shares, acks) are emitted as completions drain — triggered by the
    /// pool's wake callback injecting [`SbftMsg::ExecuteReady`]. The
    /// pool's service must start from the same state as the one this
    /// replica was constructed with (both fresh, or both installed from
    /// the same snapshot). Call before the node processes any message.
    pub fn offload_execution(&mut self, pool: ExecPool) {
        assert_eq!(
            self.last_executed,
            SeqNum::ZERO,
            "offload_execution must be called before any block executes"
        );
        self.engine = ExecEngine::offloaded(pool);
    }

    /// Attaches the slot-digest map shared with the verification
    /// pipeline (pair with
    /// [`crate::verify::SbftPreVerifier::with_shares`]): enables σ/τ
    /// share pre-verification on the pipeline's workers and the
    /// combine-time fast path here.
    pub fn set_share_map(&mut self, shares: std::sync::Arc<ShareVerifyMap>) {
        self.shares = Some(shares);
    }

    /// Attaches a phase tracer: every request this replica handles is
    /// stamped at received / pre-prepared / share-signed / committed /
    /// executed / replied, keyed by `(client, timestamp)`. Phases a
    /// replica never observes stay unstamped (partial spans). Defaults
    /// to none — stamping costs nothing unless attached.
    pub fn set_tracer(&mut self, tracer: PhaseTracer) {
        self.tracer = Some(tracer);
    }

    /// Attaches the durable backing store plus whatever it recovered at
    /// open time. Call before the node starts: the snapshot install and
    /// WAL replay are deferred to `on_start` (they need a context), and
    /// every commit/checkpoint from then on is logged through the store.
    pub fn set_durability(&mut self, durability: ReplicaDurability, recovered: RecoveredState) {
        self.durability = Some(durability);
        self.pending_recovery = Some(recovered);
    }

    /// Whether the startup recovery handshake is still in progress.
    pub fn recovery_active(&self) -> bool {
        self.recovery_active
    }

    /// Captures the durable state image (WAL + snapshot bytes), if a
    /// store is attached — the simulator's "intact disk" across a
    /// restart.
    pub fn durability_image(&mut self) -> Option<DurabilityImage> {
        self.durability.as_mut().map(|d| d.image())
    }

    /// Mutates the durable bytes in place **without** running recovery —
    /// chaos fault injection (torn writes, bit flips) against a crashed
    /// replica's store. Damage surfaces at the next reboot. No-op when
    /// no store is attached.
    pub fn damage_durability(&mut self, mutate: impl FnOnce(&mut DurabilityImage)) {
        if let Some(dur) = &mut self.durability {
            let mut image = dur.image();
            mutate(&mut image);
            dur.overwrite_image(image);
        }
    }

    /// Stamps one lifecycle phase for a request (no-op without an
    /// attached tracer). Wall-clock runtimes enable
    /// `Context::real_elapsed_ns`, so stamps inside one handler
    /// invocation (commit → execute → reply) resolve to distinct times
    /// and the verify/execute phase components come out nonzero; in the
    /// simulator the offset is always 0 and stamps stay deterministic.
    fn trace_phase(&self, ctx: &Context<'_, SbftMsg>, client: u32, timestamp: u64, phase: Phase) {
        if let Some(tracer) = &self.tracer {
            tracer.stamp(
                client,
                timestamp,
                phase,
                ctx.now().as_nanos() + ctx.real_elapsed_ns(),
            );
        }
    }

    /// Current view.
    pub fn view(&self) -> ViewNum {
        self.view
    }

    /// Whether a view change is in progress.
    pub fn in_view_change(&self) -> bool {
        self.in_view_change
    }

    /// Last executed sequence number.
    pub fn last_executed(&self) -> SeqNum {
        self.last_executed
    }

    /// Last stable (checkpointed) sequence number.
    pub fn last_stable(&self) -> SeqNum {
        self.last_stable
    }

    /// The service's current state digest (for cross-replica agreement
    /// checks in tests). Offloaded engines answer from the mirror: the
    /// state after the last *drained* block.
    pub fn state_digest(&self) -> Digest {
        self.engine.state_digest()
    }

    /// Read-only access to the service. Panics when execution is
    /// offloaded — the service lives on the executor thread; use the
    /// engine-level queries instead.
    pub fn service(&self) -> &dyn Service {
        self.engine
            .service()
            .expect("service is on the executor thread (execution offloaded)")
    }

    /// Current adaptive fast-path timeout (equals the static
    /// `ProtocolConfig::fast_path_timeout` until the estimator warms up
    /// or when `adaptive_timers` is off).
    pub fn adaptive_fast_timeout(&self) -> SimDuration {
        self.timers.fast_path_timeout(&self.config)
    }

    /// Current adaptive collector stagger.
    pub fn adaptive_collector_stagger(&self) -> SimDuration {
        self.timers.collector_stagger(&self.config)
    }

    /// Current adaptive base view-change timeout (before backoff
    /// doubling).
    pub fn adaptive_view_timeout(&self) -> SimDuration {
        self.timers.view_timeout(&self.config)
    }

    /// Whether the fast-path hysteresis currently has the σ path engaged
    /// (disengaged replicas only probe it every `fast_probe_period`
    /// sequence numbers).
    pub fn fast_path_engaged(&self) -> bool {
        self.hysteresis.engaged()
    }

    /// Max φ-accrual suspicion (milli-units) over all peers, as of the
    /// last heartbeat tick — a clock-free snapshot for telemetry gauges.
    pub fn max_suspicion_milli(&self) -> u64 {
        self.suspicion_gauge_milli
    }

    /// Last heartbeat round-trip time measured to `peer` (zero until the
    /// first echo arrives).
    pub fn peer_rtt(&self, peer: usize) -> SimDuration {
        self.detector.rtt(peer)
    }

    /// The committed block at `seq`, if retained.
    pub fn committed_block(&self, seq: SeqNum) -> Option<&Vec<ClientRequest>> {
        self.slots
            .get(&seq.get())
            .filter(|s| s.committed)
            .and_then(|s| s.requests.as_ref())
    }

    // ---------- role helpers ----------

    fn n(&self) -> usize {
        self.config.n()
    }

    fn is_primary(&self) -> bool {
        self.config.primary(self.view) == self.id
    }

    fn client_node(&self, client: ClientId) -> NodeId {
        self.n() + client.as_usize()
    }

    fn broadcast(&mut self, ctx: &mut Context<'_, SbftMsg>, msg: &SbftMsg) {
        let now = ctx.now();
        for r in 0..self.n() {
            if r != self.id.as_usize() {
                // Real protocol traffic doubles as a heartbeat: record
                // the send so the next heartbeat tick suppresses the
                // redundant explicit beat to this peer.
                self.detector.note_sent(r, now);
            }
            ctx.send(r, msg.clone());
        }
    }

    fn send_to(&mut self, ctx: &mut Context<'_, SbftMsg>, to: ReplicaId, msg: SbftMsg) {
        if to != self.id {
            self.detector.note_sent(to.as_usize(), ctx.now());
        }
        ctx.send(to.as_usize(), msg);
    }

    fn slot(&mut self, seq: SeqNum) -> &mut Slot {
        self.slots.entry(seq.get()).or_default()
    }

    /// The C-collectors of `(seq, view)`. Selection hashes every replica
    /// id, so a tracked slot computes its set once per view and keeps it
    /// until the stable checkpoint garbage-collects the slot. Untracked
    /// slots are not created just to cache it.
    fn c_collectors(&mut self, seq: SeqNum, view: ViewNum) -> Vec<ReplicaId> {
        let Some(slot) = self.slots.get_mut(&seq.get()) else {
            return self.config.c_collectors(seq, view);
        };
        match &slot.c_collectors {
            Some((v, set)) if *v == view => set.clone(),
            _ => {
                let set = self.config.c_collectors(seq, view);
                slot.c_collectors = Some((view, set.clone()));
                set
            }
        }
    }

    /// The E-collectors of `seq`, cached like [`Self::c_collectors`].
    fn e_collectors(&mut self, seq: SeqNum) -> Vec<ReplicaId> {
        let Some(slot) = self.slots.get_mut(&seq.get()) else {
            return self.config.e_collectors(seq, ViewNum::ZERO);
        };
        let config = &self.config;
        slot.e_collectors
            .get_or_insert_with(|| config.e_collectors(seq, ViewNum::ZERO))
            .clone()
    }

    fn my_c_collector_index(&mut self, seq: SeqNum, view: ViewNum) -> Option<usize> {
        let me = self.id;
        self.c_collectors(seq, view).iter().position(|r| *r == me)
    }

    fn my_e_collector_index(&mut self, seq: SeqNum) -> Option<usize> {
        let me = self.id;
        self.e_collectors(seq).iter().position(|r| *r == me)
    }

    // ---------- watchdog / liveness ----------

    fn has_outstanding_work(&self) -> bool {
        if !self.forwarded.is_empty() || !self.pending.is_empty() {
            return true;
        }
        self.slots
            .values()
            .any(|s| s.requests.is_some() && !s.committed)
    }

    fn arm_watchdog(&mut self, ctx: &mut Context<'_, SbftMsg>) {
        if self.watchdog_set {
            return;
        }
        self.watchdog_set = true;
        self.watchdog_mark = (self.last_executed, self.view);
        let backoff = self
            .timers
            .view_timeout(&self.config)
            .saturating_mul(1u64 << self.vc_attempts.min(6));
        ctx.set_timer(backoff, timer::token(timer::WATCHDOG, 0));
    }

    fn on_watchdog(&mut self, ctx: &mut Context<'_, SbftMsg>) {
        self.watchdog_set = false;
        let progressed =
            self.last_executed > self.watchdog_mark.0 || self.view > self.watchdog_mark.1;
        if progressed || !self.has_outstanding_work() {
            self.vc_attempts = 0;
            if self.has_outstanding_work() {
                self.arm_watchdog(ctx);
            }
            return;
        }
        // No progress with work outstanding: the primary is faulty or the
        // network is slow — move to the next view (§V-G trigger).
        self.start_view_change(ctx, self.view.next());
    }

    // ---------- client requests & batching (primary) ----------

    /// Bound on the verified-request memo (requests that never execute
    /// would otherwise pin entries forever; clearing only costs a
    /// re-verification).
    const VERIFIED_REQUESTS_CAP: usize = 65_536;

    /// Verifies a client request's signature exactly **once** per unique
    /// `(client, timestamp, signature, op)`. Re-arrivals of an
    /// already-verified request — the same request forwarded to the
    /// primary and then read back out of its pre-prepare — skip both the
    /// check and the CPU charge (the cost model used to double-charge
    /// this). Pipeline-verified inbound skips the check but still records
    /// the request as verified. A memo hit requires the signature *and*
    /// the op digest to match byte-for-byte: a same-timestamp forgery,
    /// including a copied valid signature spliced onto a different op,
    /// never rides a cache hit. (One op hash on a hit is still far
    /// cheaper than the full HMAC verification it replaces.)
    /// Eviction is FIFO by insertion order — a view change that abandons
    /// slots no longer strands their entries until a wholesale clear.
    fn check_request_signature(
        &mut self,
        ctx: &mut Context<'_, SbftMsg>,
        request: &ClientRequest,
    ) -> bool {
        let key = (request.client.get(), request.timestamp);
        if let Some((sig, op_digest)) = self.verified_requests.get(&key) {
            if *sig == request.signature.0 && *op_digest == sbft_crypto::sha256(&request.op) {
                return true;
            }
        }
        if !self.inbound_preverified {
            ctx.charge_cpu_ns(self.cost.verify_request());
            if !request.verify(&self.public.client_keys(request.client)) {
                return false;
            }
        }
        while self.verified_requests.len() >= Self::VERIFIED_REQUESTS_CAP {
            let Some(oldest) = self.verified_order.pop_front() else {
                self.verified_requests.clear();
                break;
            };
            self.verified_requests.remove(&oldest);
        }
        if self
            .verified_requests
            .insert(key, (request.signature.0, sbft_crypto::sha256(&request.op)))
            .is_none()
        {
            self.verified_order.push_back(key);
        }
        // Executed requests leave the map but linger in the order queue;
        // compact once the queue outgrows the map enough to matter.
        if self.verified_order.len() >= self.verified_requests.len().saturating_mul(2) + 1024 {
            let live = &self.verified_requests;
            self.verified_order.retain(|k| live.contains_key(k));
        }
        true
    }

    fn handle_request(&mut self, ctx: &mut Context<'_, SbftMsg>, request: ClientRequest) {
        if !self.check_request_signature(ctx, &request) {
            return;
        }
        let key = (request.client.get(), request.timestamp);
        // Already executed: answer directly (client retry path, §V-A).
        if let Some(&(seq, index)) = self.executed_requests.get(&key) {
            if let Some(result) = self.engine.result_of(seq, index as usize) {
                let reply = self.make_reply(seq, &request, result);
                ctx.send(self.client_node(request.client), reply);
                return;
            }
        }
        if let Some(latest) = self.client_table.get(&request.client.get()) {
            if request.timestamp == latest.timestamp {
                let reply = self.make_reply(latest.seq, &request, latest.result.clone());
                ctx.send(self.client_node(request.client), reply);
                return;
            }
            if request.timestamp < latest.timestamp {
                return;
            }
        }
        self.trace_phase(ctx, key.0, key.1, Phase::Received);
        if self.is_primary() && !self.in_view_change {
            let proposed = self
                .proposed_table
                .get(&request.client.get())
                .copied()
                .unwrap_or(0);
            if request.timestamp > proposed {
                self.proposed_table
                    .insert(request.client.get(), request.timestamp);
                self.pending.push_back(request);
                self.maybe_propose(ctx);
            }
        } else {
            let primary = self.config.primary(self.view);
            if primary == self.id {
                // We are this view's primary but cannot propose (view
                // change in progress). Forwarding would loop the request
                // straight back to ourselves forever — park it instead;
                // the new-view flow re-runs `maybe_propose`.
                let proposed = self
                    .proposed_table
                    .get(&request.client.get())
                    .copied()
                    .unwrap_or(0);
                if request.timestamp > proposed {
                    self.proposed_table
                        .insert(request.client.get(), request.timestamp);
                    self.pending.push_back(request);
                }
            } else {
                // Forward to the primary and watch for progress.
                self.forwarded.insert(key, ());
                self.send_to(ctx, primary, SbftMsg::Request(request));
            }
        }
        self.arm_watchdog(ctx);
    }

    fn in_flight(&self) -> usize {
        self.slots
            .values()
            .filter(|s| s.requests.is_some() && !s.committed)
            .count()
    }

    fn adaptive_batch_target(&self) -> usize {
        // §V-C / §VIII: batch ≈ pending / (half the allowed concurrency).
        let half_window = (self.config.max_in_flight / 2).max(1);
        (self.pending.len() / half_window).clamp(1, self.config.max_block_requests)
    }

    fn maybe_propose(&mut self, ctx: &mut Context<'_, SbftMsg>) {
        if !self.is_primary() || self.in_view_change {
            return;
        }
        while !self.pending.is_empty()
            && self.in_flight() < self.config.max_in_flight
            && self.next_proposal.get() <= self.last_stable.get() + self.config.window
        {
            // Group commit: let requests pool until the batch floor is
            // met so each round carries a full batch; the batch timer
            // bounds how long a partial batch waits. A solitary request
            // on a fully idle pipeline proposes instantly — pooling only
            // pays once there is a cohort to pool.
            // The floor tracks the observed cohort: pool until roughly
            // the last block's worth of requests (with headroom to grow)
            // has arrived, never beyond `min_batch`.
            let floor = if self.in_flight() == 0 && self.last_block_len <= 2 {
                1
            } else {
                // `.max(1)` twice: a zero cap (min_batch = 0) must mean
                // "no pooling", not a clamp(1, 0) panic.
                let cap = self
                    .config
                    .min_batch
                    .min(self.config.max_block_requests)
                    .max(1);
                (self.last_block_len * 2).clamp(1, cap)
            };
            let target = self.adaptive_batch_target().max(floor);
            if self.pending.len() < target {
                // Wait for the batch to fill (or the batch timer).
                if !self.batch_timer_set {
                    self.batch_timer_set = true;
                    ctx.set_timer(self.config.batch_delay, timer::token(timer::BATCH, 0));
                }
                return;
            }
            let take = self.pending.len().min(self.config.max_block_requests);
            let requests: Vec<ClientRequest> = self.pending.drain(..take).collect();
            let seq = self.next_proposal;
            self.next_proposal = self.next_proposal.next();
            self.propose_block(ctx, seq, requests);
        }
    }

    fn propose_block(
        &mut self,
        ctx: &mut Context<'_, SbftMsg>,
        seq: SeqNum,
        requests: Vec<ClientRequest>,
    ) {
        self.last_block_len = requests.len();
        ctx.charge_cpu_ns(self.cost.hash(64 * requests.len()));
        if self.behavior == Behavior::EquivocatingPrimary && requests.len() >= 2 {
            // Conflicting but individually valid proposals to two halves.
            let mid = requests.len() / 2;
            let block_a = requests[..mid].to_vec();
            let block_b = requests[mid..].to_vec();
            for r in 0..self.n() {
                let block = if r % 2 == 0 {
                    block_a.clone()
                } else {
                    block_b.clone()
                };
                ctx.send(
                    r,
                    SbftMsg::PrePrepare {
                        seq,
                        view: self.view,
                        requests: block,
                    },
                );
            }
            return;
        }
        let msg = SbftMsg::PrePrepare {
            seq,
            view: self.view,
            requests,
        };
        self.broadcast(ctx, &msg);
    }

    // ---------- pre-prepare & sign-share (§V-C) ----------

    fn handle_pre_prepare(
        &mut self,
        ctx: &mut Context<'_, SbftMsg>,
        from: NodeId,
        seq: SeqNum,
        view: ViewNum,
        requests: Vec<ClientRequest>,
    ) {
        if view != self.view || self.in_view_change {
            return;
        }
        if from != self.config.primary(view).as_usize() {
            return;
        }
        if seq.get() <= self.last_stable.get()
            || seq.get() > self.last_stable.get() + self.config.window
        {
            return;
        }
        let h = block_digest(seq, view, &requests);
        {
            let slot = self.slot(seq);
            if slot.committed {
                return;
            }
            if let (Some(existing_view), Some(existing_h)) = (slot.view, slot.h) {
                if existing_view == view {
                    if existing_h == h {
                        return; // duplicate
                    }
                    // Equivocation: publicly verifiable proof the primary
                    // is faulty — trigger a view change (§V-G).
                    self.start_view_change(ctx, view.next());
                    return;
                }
            }
        }
        // Validate client request signatures — each charged and checked
        // once per unique request, not once per message it rides in (a
        // forwarded request verified in `handle_request` is free here).
        // Stamped first, so the verify component covers these checks.
        for r in &requests {
            self.trace_phase(ctx, r.client.get(), r.timestamp, Phase::PrePrepared);
        }
        for r in &requests {
            if !self.check_request_signature(ctx, r) {
                return;
            }
        }
        ctx.charge_cpu_ns(
            self.cost
                .hash(requests.iter().map(|r| r.op.len() + 64).sum()),
        );

        // Sign σ (fast path) and τ (linear path) shares.
        let fast = self.config.flags.fast_path;
        let sigma = if fast {
            ctx.charge_cpu_ns(self.cost.sign_share());
            Some(self.my_keys.sigma.sign(DOMAIN_SIGMA, &h))
        } else {
            None
        };
        ctx.charge_cpu_ns(self.cost.sign_share());
        let tau = self.my_keys.tau.sign(DOMAIN_TAU, &h);

        {
            let now = ctx.now();
            let slot = self.slot(seq);
            slot.view = Some(view);
            slot.first_seen = Some(now);
            slot.requests = Some(requests);
            slot.h = Some(h);
            slot.sign_share_sent = true;
            slot.my_sigma_share = sigma;
        }
        // The slot's digest is now known: publish it so verify-pool
        // workers can pre-check σ/τ shares that arrive from here on.
        if let Some(map) = &self.shares {
            map.publish_digest(seq, view, h);
        }
        let msg = SbftMsg::SignShare {
            seq,
            view,
            sigma,
            tau,
        };
        for collector in self.c_collectors(seq, view) {
            self.send_to(ctx, collector, msg.clone());
        }
        if self.tracer.is_some() {
            if let Some(reqs) = self.slots.get(&seq.get()).and_then(|s| s.requests.as_ref()) {
                for r in reqs {
                    self.trace_phase(ctx, r.client.get(), r.timestamp, Phase::ShareSigned);
                }
            }
        }
        // A commit proof may have arrived before the pre-prepare.
        self.try_commit_with_stored_cert(ctx, seq);
        self.arm_watchdog(ctx);
    }

    /// The §VIII adaptive switch: keep waiting for the fast path only
    /// while it has been succeeding recently; once the σ-completion-rate
    /// hysteresis releases, go straight to the linear path, probing the
    /// fast path again every `fast_probe_period` sequence numbers to
    /// detect recovery.
    fn fast_path_active(&self, seq: SeqNum) -> bool {
        self.config.flags.fast_path && self.hysteresis.attempt_fast(seq.get(), &self.config)
    }

    fn handle_sign_share(
        &mut self,
        ctx: &mut Context<'_, SbftMsg>,
        from: NodeId,
        seq: SeqNum,
        view: ViewNum,
        sigma: Option<SignatureShare>,
        tau: SignatureShare,
    ) {
        if view != self.view || self.in_view_change {
            return;
        }
        let Some(my_index) = self.my_c_collector_index(seq, view) else {
            return;
        };
        let share_index = (from + 1) as u16;
        if tau.index() != share_index || sigma.map(|s| s.index() != share_index).unwrap_or(false) {
            return;
        }
        // Our own shares skip the verify pipeline (loopback): mark them
        // directly so a slot where every peer share was pre-verified can
        // still take the combine fast path.
        if from == self.id.as_usize() {
            if let Some(map) = &self.shares {
                map.record(seq, view, tau.index(), ShareKind::Tau);
                if let Some(sigma) = sigma {
                    map.record(seq, view, sigma.index(), ShareKind::Sigma);
                }
            }
        }
        ctx.charge_cpu_ns(self.cost.hash(70));
        let now = ctx.now();
        let fast_enabled = self.fast_path_active(seq);
        let sigma_threshold = self.config.sigma_threshold();
        let tau_threshold = self.config.tau_threshold();
        let stagger = self.timers.collector_stagger(&self.config);
        let fast_timeout = self.timers.fast_path_timeout(&self.config);
        // Suspected collectors ranked ahead of us will not act: discount
        // them so the next live collector fires in their stagger slot.
        let eff_index = self.effective_stagger_index(seq, view, my_index, now);

        let slot = self.slot(seq);
        if let Some(sigma) = sigma {
            slot.sigma_shares.insert(sigma.index(), sigma);
        }
        slot.tau_shares.insert(tau.index(), tau);

        // Fast trigger: enough σ shares → (staggered) combine + broadcast.
        if fast_enabled
            && slot.sigma_shares.len() >= sigma_threshold
            && !slot.fast_proof_sent
            && slot.commit_cert.is_none()
        {
            slot.fast_proof_sent = true;
            if let Some(t) = slot.fast_timer.take() {
                ctx.cancel_timer(t);
            }
            let gap = slot.first_seen.map(|t| now.since(t));
            if let Some(gap) = gap {
                // Pre-prepare → σ-threshold gap: the sample behind the
                // adaptive fast-path timeout and collector stagger.
                self.timers.observe_sigma_gap(gap);
            }
            if eff_index == 0 {
                self.emit_fast_proof(ctx, seq, view);
            } else {
                ctx.set_timer(
                    stagger.saturating_mul(eff_index as u64),
                    timer::token(timer::STAGGER_FAST, seq.get()),
                );
            }
            return;
        }

        // Slow trigger (§V-E): τ threshold reached but not σ — wait the
        // fast-path timeout, then fall back to linear PBFT.
        if slot.tau_shares.len() >= tau_threshold
            && !slot.prepare_sent
            && !slot.fast_proof_sent
            && slot.commit_cert.is_none()
        {
            if !fast_enabled {
                slot.prepare_sent = true;
                if eff_index == 0 {
                    self.emit_prepare(ctx, seq, view);
                } else {
                    ctx.set_timer(
                        stagger.saturating_mul(eff_index as u64),
                        timer::token(timer::STAGGER_PREPARE, seq.get()),
                    );
                }
            } else if slot.fast_timer.is_none() {
                let t = ctx.set_timer(
                    fast_timeout + stagger.saturating_mul(eff_index as u64),
                    timer::token(timer::FAST_TIMEOUT, seq.get()),
                );
                slot.fast_timer = Some(t);
            }
        }
    }

    /// Collector stagger slot for this replica, discounted by suspected
    /// collectors ranked ahead of it: when the first collector looks
    /// dead to the failure detector, the second acts in its slot
    /// immediately instead of waiting out the full stagger ladder.
    fn effective_stagger_index(
        &mut self,
        seq: SeqNum,
        view: ViewNum,
        my_index: usize,
        now: SimTime,
    ) -> usize {
        if my_index == 0 {
            return 0;
        }
        let suspected_ahead = self.c_collectors(seq, view)[..my_index]
            .iter()
            .filter(|r| **r != self.id && self.detector.suspected(r.as_usize(), now))
            .count();
        my_index.saturating_sub(suspected_ahead)
    }

    fn emit_fast_proof(&mut self, ctx: &mut Context<'_, SbftMsg>, seq: SeqNum, view: ViewNum) {
        let n = self.n();
        let Some(h) = self.slots.get(&seq.get()).and_then(|s| s.h) else {
            return;
        };
        let slot = self.slots.get(&seq.get()).expect("slot exists");
        if slot.commit_cert.is_some() {
            return; // someone else's proof arrived meanwhile
        }
        let shares: Vec<SignatureShare> = slot.sigma_shares.values().copied().collect();
        // Shares the verify pipeline already pairing-checked against the
        // published slot digest (plus our own) skip the combine-time
        // batch verification.
        let preverified = self
            .shares
            .as_ref()
            .map(|m| m.all_preverified(seq, view, ShareKind::Sigma, slot.sigma_shares.keys()))
            .unwrap_or(false);
        if !preverified {
            ctx.charge_cpu_ns(self.cost.batch_verify_shares(shares.len()));
        }
        // §VIII: use the n-of-n group signature when every replica signed;
        // fall back to threshold interpolation otherwise.
        let sigma = if shares.len() == n {
            ctx.charge_cpu_ns(self.cost.combine_multisig(n));
            self.public
                .sigma
                .combine_multisig(DOMAIN_SIGMA, &h, &shares)
        } else {
            ctx.charge_cpu_ns(self.cost.combine_threshold(self.config.sigma_threshold()));
            if preverified {
                self.public.sigma.combine_preverified(&shares)
            } else {
                self.public.sigma.combine(DOMAIN_SIGMA, &h, &shares)
            }
        };
        let Ok(sigma) = sigma else {
            return; // not enough valid shares after filtering
        };
        ctx.incr("fast_commits", 1);
        self.broadcast(ctx, &SbftMsg::FullCommitProof { seq, view, sigma });
    }

    fn emit_prepare(&mut self, ctx: &mut Context<'_, SbftMsg>, seq: SeqNum, view: ViewNum) {
        let Some(h) = self.slots.get(&seq.get()).and_then(|s| s.h) else {
            return;
        };
        let slot = self.slots.get(&seq.get()).expect("slot exists");
        if slot.commit_cert.is_some() || slot.prepared.is_some() {
            return;
        }
        let shares: Vec<SignatureShare> = slot.tau_shares.values().copied().collect();
        let preverified = self
            .shares
            .as_ref()
            .map(|m| m.all_preverified(seq, view, ShareKind::Tau, slot.tau_shares.keys()))
            .unwrap_or(false);
        ctx.charge_cpu_ns(self.cost.combine_threshold(self.config.tau_threshold()));
        let combined = if preverified {
            self.public.tau.combine_preverified(&shares)
        } else {
            ctx.charge_cpu_ns(self.cost.batch_verify_shares(shares.len()));
            self.public.tau.combine(DOMAIN_TAU, &h, &shares)
        };
        let Ok(tau) = combined else {
            return;
        };
        ctx.incr("slow_path_entries", 1);
        self.broadcast(ctx, &SbftMsg::Prepare { seq, view, tau });
    }

    // ---------- linear-PBFT fallback (§V-E) ----------

    fn handle_prepare(
        &mut self,
        ctx: &mut Context<'_, SbftMsg>,
        seq: SeqNum,
        view: ViewNum,
        tau: Signature,
    ) {
        if view != self.view || self.in_view_change {
            return;
        }
        let Some(h) = self.slots.get(&seq.get()).and_then(|s| s.h) else {
            return;
        };
        ctx.charge_cpu_ns(self.cost.verify_signature());
        if !self.public.tau.verify_either(DOMAIN_TAU, &h, &tau) {
            return;
        }
        let commit_share_sent = {
            let slot = self.slot(seq);
            if slot.prepared.map(|(_, pv)| view > pv).unwrap_or(true) {
                slot.prepared = Some((tau, view));
            }
            let sent = slot.commit_share_sent;
            slot.commit_share_sent = true;
            sent
        };
        if commit_share_sent {
            return;
        }
        // Send the second-level τ share to the collectors.
        ctx.charge_cpu_ns(self.cost.sign_share());
        let d2 = commit2_digest(seq, view, &h);
        let share = self.my_keys.tau.sign(DOMAIN_TAU, &d2);
        let msg = SbftMsg::CommitShare { seq, view, share };
        for collector in self.c_collectors(seq, view) {
            self.send_to(ctx, collector, msg.clone());
        }
    }

    fn handle_commit_share(
        &mut self,
        ctx: &mut Context<'_, SbftMsg>,
        from: NodeId,
        seq: SeqNum,
        view: ViewNum,
        share: SignatureShare,
    ) {
        if view != self.view || self.in_view_change {
            return;
        }
        let Some(my_index) = self.my_c_collector_index(seq, view) else {
            return;
        };
        if share.index() != (from + 1) as u16 {
            return;
        }
        if from == self.id.as_usize() {
            if let Some(map) = &self.shares {
                map.record(seq, view, share.index(), ShareKind::Commit2);
            }
        }
        ctx.charge_cpu_ns(self.cost.hash(70));
        let tau_threshold = self.config.tau_threshold();
        let stagger = self.timers.collector_stagger(&self.config);
        let eff_index = self.effective_stagger_index(seq, view, my_index, ctx.now());
        let slot = self.slot(seq);
        slot.commit2_shares.insert(share.index(), share);
        if slot.commit2_shares.len() >= tau_threshold
            && !slot.slow_proof_sent
            && slot.commit_cert.is_none()
        {
            slot.slow_proof_sent = true;
            if eff_index == 0 {
                self.emit_slow_proof(ctx, seq, view);
            } else {
                ctx.set_timer(
                    stagger.saturating_mul(eff_index as u64),
                    timer::token(timer::STAGGER_SLOW, seq.get()),
                );
            }
        }
    }

    fn emit_slow_proof(&mut self, ctx: &mut Context<'_, SbftMsg>, seq: SeqNum, view: ViewNum) {
        let Some(h) = self.slots.get(&seq.get()).and_then(|s| s.h) else {
            return;
        };
        let slot = self.slots.get(&seq.get()).expect("slot exists");
        if slot.commit_cert.is_some() {
            return;
        }
        let d2 = commit2_digest(seq, view, &h);
        let shares: Vec<SignatureShare> = slot.commit2_shares.values().copied().collect();
        let preverified = self
            .shares
            .as_ref()
            .map(|m| m.all_preverified(seq, view, ShareKind::Commit2, slot.commit2_shares.keys()))
            .unwrap_or(false);
        ctx.charge_cpu_ns(self.cost.combine_threshold(self.config.tau_threshold()));
        let combined = if preverified {
            self.public.tau.combine_preverified(&shares)
        } else {
            ctx.charge_cpu_ns(self.cost.batch_verify_shares(shares.len()));
            self.public.tau.combine(DOMAIN_TAU, &d2, &shares)
        };
        let Ok(tau2) = combined else {
            return;
        };
        ctx.incr("slow_commits", 1);
        self.broadcast(ctx, &SbftMsg::FullCommitProofSlow { seq, view, tau2 });
    }

    // ---------- commit (§V-C "Commit trigger") ----------

    fn handle_full_commit_proof(
        &mut self,
        ctx: &mut Context<'_, SbftMsg>,
        seq: SeqNum,
        view: ViewNum,
        cert: CommitCert,
    ) {
        if seq.get() <= self.last_stable.get() {
            return;
        }
        let Some(h) = self
            .slots
            .get(&seq.get())
            .filter(|s| s.view == Some(view))
            .and_then(|s| s.h)
        else {
            // Pre-prepare not here yet: remember the certificate.
            let slot = self.slot(seq);
            if slot.commit_cert.is_none() {
                slot.commit_cert = Some(cert);
                slot.commit_view = Some(view);
            }
            return;
        };
        ctx.charge_cpu_ns(self.cost.verify_signature());
        let valid = match &cert {
            CommitCert::Fast(sigma) => self.public.sigma.verify_either(DOMAIN_SIGMA, &h, sigma),
            CommitCert::Slow(tau2) => {
                let d2 = commit2_digest(seq, view, &h);
                self.public.tau.verify_either(DOMAIN_TAU, &d2, tau2)
            }
        };
        if !valid {
            return;
        }
        self.commit(ctx, seq, view, cert);
    }

    fn try_commit_with_stored_cert(&mut self, ctx: &mut Context<'_, SbftMsg>, seq: SeqNum) {
        let Some(slot) = self.slots.get(&seq.get()) else {
            return;
        };
        if slot.committed || slot.requests.is_none() {
            return;
        }
        let (Some(cert), Some(view)) = (slot.commit_cert.clone(), slot.commit_view) else {
            return;
        };
        if slot.view != Some(view) {
            return;
        }
        self.handle_full_commit_proof(ctx, seq, view, cert);
    }

    fn commit(
        &mut self,
        ctx: &mut Context<'_, SbftMsg>,
        seq: SeqNum,
        view: ViewNum,
        cert: CommitCert,
    ) {
        let now = ctx.now();
        let slot = self.slot(seq);
        if slot.committed {
            return;
        }
        let Some(requests) = slot.requests.clone() else {
            slot.commit_cert = Some(cert);
            slot.commit_view = Some(view);
            return;
        };
        slot.committed = true;
        let first_seen = slot.first_seen;
        let fast_commit = matches!(cert, CommitCert::Fast(_));
        let cert_logged = cert.clone();
        slot.commit_cert = Some(cert);
        slot.commit_view = Some(view);
        if let Some(t) = slot.fast_timer.take() {
            ctx.cancel_timer(t);
        }
        if fast_commit {
            self.consecutive_fallbacks = 0;
        }
        // Committed progress in this view: reset the view-change backoff
        // so the next stall starts the doubling ladder from the adaptive
        // base again instead of wherever the last storm left it.
        self.vc_attempts = 0;
        // Only slots where σ was actually attempted are evidence about
        // the fast path: a released replica goes straight to the linear
        // path on non-probe slots, and counting those as "σ failed"
        // would keep the hysteresis pinned open forever.
        if fast_commit || self.fast_path_active(seq) {
            self.hysteresis.observe(fast_commit);
        }
        if let Some(first_seen) = first_seen {
            // Pre-prepare → commit latency feeds the adaptive view
            // timeout (absent on WAL-replayed or view-change slots).
            self.timers.observe_commit(now.since(first_seen));
        }
        ctx.incr("committed_blocks", 1);
        ctx.incr("committed_requests", requests.len() as u64);
        for r in &requests {
            self.trace_phase(ctx, r.client.get(), r.timestamp, Phase::Committed);
        }
        self.ledger.commit(Block {
            seq,
            view: view.get(),
            ops: requests.iter().map(|r| r.to_wire_bytes()).collect(),
        });
        if let Some(dur) = &mut self.durability {
            // Log the decision as a self-contained block fill (block +
            // certificate): the exact bytes recovery replays through the
            // commit path. The certificate was verified before reaching
            // here, so replay can trust its own log. Fsync batching is
            // the store's policy; commits already arrive group-batched.
            let record = SbftMsg::BlockFill {
                seq,
                view,
                requests: requests.clone(),
                cert: cert_logged,
            };
            dur.log_commit(seq.get(), &record.to_wire_bytes());
        }
        self.try_execute(ctx);
        if self.is_primary() {
            self.maybe_propose(ctx);
        }
    }

    // ---------- execution & acknowledgement (§V-D) ----------

    fn try_execute(&mut self, ctx: &mut Context<'_, SbftMsg>) {
        loop {
            let next = self.engine.next_submit();
            let Some(slot) = self.slots.get(&next.get()) else {
                break;
            };
            if !slot.committed {
                break;
            }
            let ops: Vec<Vec<u8>> = slot
                .requests
                .as_ref()
                .expect("committed slot has requests")
                .iter()
                .map(|r| r.op.clone())
                .collect();
            // Inline: executes now, completion drained below in the same
            // handler (old effect order preserved exactly). Offloaded:
            // queued to the executor thread — the loop keeps submitting
            // consecutive committed blocks, pipelining execution behind
            // consensus.
            self.engine.submit(next, ops);
            self.drain_exec_completions(ctx);
        }
        self.drain_exec_completions(ctx);
    }

    /// Emits the post-execution effects — π share, replies/acks, tracer
    /// stamps — for every block the engine has finished. Inline engines
    /// complete during `submit`; offloaded engines complete when the
    /// executor's wake ([`SbftMsg::ExecuteReady`]) lands.
    fn drain_exec_completions(&mut self, ctx: &mut Context<'_, SbftMsg>) {
        while let Some(exec) = self.engine.try_completion() {
            let next = exec.seq;
            let requests = self
                .slots
                .get(&next.get())
                .and_then(|s| s.requests.clone())
                .expect("completed block's slot is retained until checkpoint");
            if !self.engine.is_offloaded() {
                // Offloaded execution spends real worker-thread time; the
                // modeled charge applies only when the node thread itself
                // did the work.
                ctx.charge_cpu_ns(exec.cpu_cost_ns / self.config.execution_parallelism.max(1));
            }
            ctx.incr("executed_blocks", 1);
            self.last_executed = next;
            let period = self.config.checkpoint_period;
            if next.get() >= self.last_stable.get() + period
                && self
                    .checkpoint_candidate
                    .as_ref()
                    .is_none_or(|(seq, _)| seq.get() + period <= next.get())
            {
                self.checkpoint_candidate = Some((next, self.engine.snapshot()));
            }
            for (l, request) in requests.iter().enumerate() {
                let key = (request.client.get(), request.timestamp);
                self.trace_phase(ctx, key.0, key.1, Phase::Executed);
                self.executed_requests.insert(key, (next, l as u32));
                self.forwarded.remove(&key);
                // Executed requests are deduped by the client table from
                // here on; their verification memo entry has done its job.
                self.verified_requests.remove(&key);
                let newer = self
                    .client_table
                    .get(&key.0)
                    .is_none_or(|latest| latest.timestamp < request.timestamp);
                if newer {
                    let latest = LatestExecuted {
                        timestamp: request.timestamp,
                        seq: next,
                        result: exec.results[l].clone(),
                    };
                    self.client_table.insert(key.0, latest);
                }
            }
            {
                let slot = self.slot(next);
                slot.exec_digest = Some(exec.state_digest);
                slot.state_root = Some(exec.state_root);
                slot.results_root = Some(exec.results_root);
            }
            // Sign the state with the π share and send to E-collectors.
            ctx.charge_cpu_ns(self.cost.sign_share());
            let share = self.my_keys.pi.sign(DOMAIN_PI, &exec.state_digest);
            let msg = SbftMsg::SignState {
                seq: next,
                digest: exec.state_digest,
                share,
            };
            for collector in self.e_collectors(next) {
                self.send_to(ctx, collector, msg.clone());
            }
            // Direct replies (f+1 acknowledgement variants).
            if !self.config.flags.single_client_ack {
                for (l, request) in requests.iter().enumerate() {
                    let result = exec.results[l].clone();
                    let reply = self.make_reply(next, request, result);
                    self.trace_phase(ctx, request.client.get(), request.timestamp, Phase::Replied);
                    ctx.send(self.client_node(request.client), reply);
                }
            }
            // If this replica is an E-collector and the proof was already
            // combined (we executed late), acks may now be sendable.
            self.maybe_send_acks(ctx, next);
            // Execution ends this replica's part in the request — close
            // the spans here, except on an E-collector that still owes an
            // execute-ack: it keeps them open so the late ack can stamp
            // `replied` (closed there instead).
            let awaiting_ack = self.tracer.is_some()
                && self.config.flags.single_client_ack
                && self.my_e_collector_index(next).is_some()
                && !self
                    .slots
                    .get(&next.get())
                    .map(|s| s.acks_sent)
                    .unwrap_or(true);
            if let (Some(tracer), false) = (&self.tracer, awaiting_ack) {
                for request in &requests {
                    tracer.close(request.client.get(), request.timestamp);
                }
            }
            self.vc_attempts = 0;
        }
    }

    fn make_reply(&self, seq: SeqNum, request: &ClientRequest, result: Vec<u8>) -> SbftMsg {
        SbftMsg::Reply {
            seq,
            replica: self.id,
            client: request.client,
            timestamp: request.timestamp,
            result,
            // Size-modeled replica signature over the reply.
            signature: ClientSignature(sbft_crypto::PkiSignature::from_bytes(
                *sbft_crypto::sha256(&seq.get().to_le_bytes()).as_bytes(),
            )),
        }
    }

    fn handle_sign_state(
        &mut self,
        ctx: &mut Context<'_, SbftMsg>,
        from: NodeId,
        seq: SeqNum,
        digest: Digest,
        share: SignatureShare,
    ) {
        if share.index() != (from + 1) as u16 {
            return;
        }
        if seq.get() <= self.last_stable.get() {
            return;
        }
        let Some(my_index) = self.my_e_collector_index(seq) else {
            return;
        };
        ctx.charge_cpu_ns(self.cost.hash(70));
        let pi_threshold = self.config.pi_threshold();
        let stagger = self.timers.collector_stagger(&self.config);
        let slot = self.slot(seq);
        let shares = slot.pi_shares.entry(digest).or_default();
        shares.insert(share.index(), share);
        if shares.len() >= pi_threshold && !slot.exec_proof_sent && !slot.exec_timer_set {
            slot.exec_timer_set = true;
            if my_index == 0 {
                self.emit_exec_proof(ctx, seq, digest);
            } else {
                ctx.set_timer(
                    stagger.saturating_mul(my_index as u64),
                    timer::token(timer::STAGGER_EXEC, seq.get()),
                );
            }
        }
    }

    fn emit_exec_proof(&mut self, ctx: &mut Context<'_, SbftMsg>, seq: SeqNum, digest: Digest) {
        let pi_threshold = self.config.pi_threshold();
        let slot = self.slot(seq);
        if slot.exec_proof_sent || slot.exec_proof.is_some() {
            return;
        }
        let Some(shares_map) = slot.pi_shares.get(&digest) else {
            return;
        };
        let shares: Vec<SignatureShare> = shares_map.values().copied().collect();
        slot.exec_proof_sent = true;
        // π shares carry their digest on the wire, so the verification
        // pipeline checked them at ingress; combining can skip the
        // redundant per-share pairing checks.
        ctx.charge_cpu_ns(self.cost.combine_threshold(pi_threshold));
        let combined = if self.inbound_preverified {
            self.public.pi.combine_preverified(&shares)
        } else {
            ctx.charge_cpu_ns(self.cost.batch_verify_shares(shares.len()));
            self.public.pi.combine(DOMAIN_PI, &digest, &shares)
        };
        let Ok(pi) = combined else {
            return;
        };
        self.broadcast(ctx, &SbftMsg::FullExecuteProof { seq, digest, pi });
        self.slot(seq).exec_proof = Some(pi);
        self.maybe_send_acks(ctx, seq);
    }

    /// E-collector → clients: one acknowledgement per request (§V-D).
    fn maybe_send_acks(&mut self, ctx: &mut Context<'_, SbftMsg>, seq: SeqNum) {
        if !self.config.flags.single_client_ack {
            return;
        }
        if self.my_e_collector_index(seq).is_none() {
            return;
        }
        let Some(slot) = self.slots.get(&seq.get()) else {
            return;
        };
        if slot.acks_sent || slot.exec_proof.is_none() || slot.exec_digest.is_none() {
            return;
        }
        if self.last_executed < seq {
            return; // we have not executed yet; no proofs available
        }
        let pi = slot.exec_proof.expect("checked above");
        let digest = slot.exec_digest.expect("checked above");
        let requests = slot.requests.clone().expect("executed slot has requests");
        self.slot(seq).acks_sent = true;
        for (l, request) in requests.iter().enumerate() {
            let (Some(result), Some(proof)) =
                (self.engine.result_of(seq, l), self.engine.proof_of(seq, l))
            else {
                continue;
            };
            ctx.charge_cpu_ns(self.cost.hash(result.len() + 64));
            let ack = SbftMsg::ExecuteAck {
                seq,
                index: l as u64,
                client: request.client,
                timestamp: request.timestamp,
                result,
                digest,
                pi,
                proof,
            };
            self.trace_phase(ctx, request.client.get(), request.timestamp, Phase::Replied);
            ctx.send(self.client_node(request.client), ack);
        }
        if let Some(tracer) = &self.tracer {
            // Acks are this E-collector's last word on the block; spans
            // left open by `try_execute` for the ack close here.
            for request in &requests {
                tracer.close(request.client.get(), request.timestamp);
            }
        }
    }

    fn handle_full_execute_proof(
        &mut self,
        ctx: &mut Context<'_, SbftMsg>,
        from: NodeId,
        seq: SeqNum,
        digest: Digest,
        pi: Signature,
    ) {
        if seq.get() <= self.last_stable.get() {
            return;
        }
        // The execute proof binds only data it carries (digest + π), so
        // the pipeline verified it off-thread when enabled.
        if !self.inbound_preverified {
            ctx.charge_cpu_ns(self.cost.verify_signature());
            if !self.public.pi.verify_either(DOMAIN_PI, &digest, &pi) {
                return;
            }
        }
        // Far ahead of us: we are lagging badly — fetch state (§VIII).
        if seq.get() > self.last_executed.get() + self.config.window {
            self.request_state_transfer(ctx, from);
        }
        {
            let slot = self.slot(seq);
            if slot.exec_proof.is_none() {
                slot.exec_proof = Some(pi);
            }
        }
        self.maybe_send_acks(ctx, seq);
        self.maybe_checkpoint(ctx, seq, digest, pi);
    }

    // ---------- checkpointing & garbage collection (§V-F) ----------

    fn maybe_checkpoint(
        &mut self,
        ctx: &mut Context<'_, SbftMsg>,
        seq: SeqNum,
        digest: Digest,
        pi: Signature,
    ) {
        if seq.get() < self.last_stable.get() + self.config.checkpoint_period {
            return;
        }
        if self.last_executed < seq {
            return;
        }
        let slot = self.slots.get(&seq.get());
        let Some(slot) = slot else { return };
        if slot.exec_digest != Some(digest) {
            // Our execution diverged from the certified digest — resync.
            self.request_state_transfer(ctx, self.id.as_usize());
            return;
        }
        let (Some(state_root), Some(results_root)) = (slot.state_root, slot.results_root) else {
            return;
        };
        // The checkpoint must hold the state right after `seq`. The
        // engine holds only the state after `last_executed`; for an
        // earlier `seq` the candidate kept when it executed does.
        let state = match self.checkpoint_candidate.take() {
            Some((candidate, state)) if candidate == seq => state,
            candidate => {
                self.checkpoint_candidate = candidate;
                if self.last_executed != seq {
                    return;
                }
                self.engine.snapshot()
            }
        };
        ctx.incr("checkpoints", 1);
        if let Some(dur) = &mut self.durability {
            dur.store_checkpoint(&Snapshot::of_checkpoint(
                seq,
                digest,
                state_root,
                results_root,
                Some(pi.to_wire_bytes()),
                &state,
            ));
        }
        self.ledger.install_checkpoint(Checkpoint {
            seq,
            state_digest: digest,
            state,
        });
        self.last_stable = seq;
        self.stable_cert = Some((digest, pi));
        self.stable_roots = Some((state_root, results_root));
        // Garbage-collect protocol state and old execution artifacts,
        // keeping half a window of artifacts for late client retries.
        let keep_from = seq.get().saturating_sub(self.config.window / 2);
        self.engine.garbage_collect(SeqNum::new(keep_from));
        self.slots = self.slots.split_off(&(seq.get() + 1));
        // Slots at or below the checkpoint can no longer combine: drop
        // their published digests and pre-verified share marks too.
        if let Some(map) = &self.shares {
            map.gc_below(seq);
        }
        let stable = self.last_stable;
        self.executed_requests
            .retain(|_, (s, _)| *s > stable || s.get() + 64 > stable.get());
        if self.is_primary() && self.next_proposal <= seq {
            self.next_proposal = seq.next();
        }
    }

    // ---------- view change (§V-G) ----------

    fn start_view_change(&mut self, ctx: &mut Context<'_, SbftMsg>, target: ViewNum) {
        if target <= self.view && self.in_view_change {
            return;
        }
        ctx.incr("view_changes_started", 1);
        self.in_view_change = true;
        self.view = target;
        self.vc_attempts = self.vc_attempts.saturating_add(1);
        self.pending.clear();
        self.proposed_table.clear();
        let vc = self.build_view_change(target);
        self.broadcast(ctx, &SbftMsg::ViewChange(vc));
        // Retry with exponential backoff if this view does not form.
        let backoff = self
            .timers
            .view_timeout(&self.config)
            .saturating_mul(1u64 << self.vc_attempts.min(6));
        ctx.set_timer(backoff, timer::token(timer::VC_RETRY, target.get()));
    }

    fn build_view_change(&self, target: ViewNum) -> ViewChangeMsg {
        if self.behavior == Behavior::StaleViewChange {
            return ViewChangeMsg {
                from: self.id,
                new_view: target,
                last_stable: SeqNum::ZERO,
                checkpoint: None,
                entries: Vec::new(),
            };
        }
        let mut entries = Vec::new();
        for (seq, slot) in &self.slots {
            if *seq <= self.last_stable.get() {
                continue;
            }
            let slow = match (&slot.commit_cert, slot.prepared) {
                (Some(CommitCert::Slow(tau2)), _) => SlowEvidence::CommittedSlow {
                    view: slot.commit_view.expect("cert has view"),
                    tau2: *tau2,
                    requests: slot.requests.clone().unwrap_or_default(),
                },
                (_, Some((tau, view))) if slot.requests.is_some() => SlowEvidence::Prepared {
                    view,
                    tau,
                    requests: slot.requests.clone().expect("checked"),
                },
                _ => SlowEvidence::None,
            };
            let fast = match (&slot.commit_cert, slot.my_sigma_share) {
                (Some(CommitCert::Fast(sigma)), _) => FastEvidence::CommittedFast {
                    view: slot.commit_view.expect("cert has view"),
                    sigma: *sigma,
                    requests: slot.requests.clone().unwrap_or_default(),
                },
                (_, Some(share)) if slot.requests.is_some() => FastEvidence::PrePrepared {
                    view: slot.view.expect("share implies pre-prepare"),
                    share,
                    requests: slot.requests.clone().expect("checked"),
                },
                _ => FastEvidence::None,
            };
            if matches!((&slow, &fast), (SlowEvidence::None, FastEvidence::None)) {
                continue;
            }
            entries.push(VcEntry {
                seq: SeqNum::new(*seq),
                slow,
                fast,
            });
        }
        ViewChangeMsg {
            from: self.id,
            new_view: target,
            last_stable: self.last_stable,
            checkpoint: self.stable_cert.clone(),
            entries,
        }
    }

    fn handle_view_change(&mut self, ctx: &mut Context<'_, SbftMsg>, vc: ViewChangeMsg) {
        if vc.new_view <= self.view && !(self.in_view_change && vc.new_view == self.view) {
            return;
        }
        // View-change evidence is self-contained (certificates over
        // blocks the message itself carries); pipeline-verified when
        // enabled. New-view quorums are always re-validated below — the
        // per-message filter there decides liveness, not just validity.
        if !self.inbound_preverified {
            ctx.charge_cpu_ns(self.cost.verify_signature() * (1 + vc.entries.len() as u64));
            if !validate_view_change(&self.public, &vc) {
                return;
            }
        }
        let entry = self.vc_messages.entry(vc.new_view.get()).or_default();
        entry.insert(vc.from.get(), vc.clone());

        // Join rule: f+1 distinct replicas moving to a higher view.
        let target = vc.new_view;
        let count = self.vc_messages[&target.get()].len();
        if target > self.view && !self.in_view_change && count >= self.config.f + 1 {
            self.start_view_change(ctx, target);
        }
        // New primary: assemble the quorum and install the view.
        self.try_form_new_view(ctx, target);
    }

    fn try_form_new_view(&mut self, ctx: &mut Context<'_, SbftMsg>, target: ViewNum) {
        if self.config.primary(target) != self.id {
            return;
        }
        if target < self.view || (target == self.view && !self.in_view_change) {
            return;
        }
        let Some(msgs) = self.vc_messages.get(&target.get()) else {
            return;
        };
        if msgs.len() < self.config.view_change_quorum() {
            return;
        }
        let vcs: Vec<ViewChangeMsg> = msgs.values().cloned().collect();
        let Some(plan) = compute_plan(&self.config, target, &vcs) else {
            return;
        };
        let nv = NewViewMsg {
            view: target,
            view_changes: vcs,
        };
        self.broadcast(ctx, &SbftMsg::NewView(nv));
        self.apply_plan(ctx, plan);
    }

    fn handle_new_view(&mut self, ctx: &mut Context<'_, SbftMsg>, from: NodeId, nv: NewViewMsg) {
        if nv.view < self.view || (nv.view == self.view && !self.in_view_change) {
            return;
        }
        if from != self.config.primary(nv.view).as_usize() {
            return;
        }
        // Validate the quorum: distinct senders, all evidence checks.
        let mut seen = std::collections::BTreeSet::new();
        let mut valid = Vec::new();
        let evidence: u64 = nv
            .view_changes
            .iter()
            .map(|vc| 1 + vc.entries.len() as u64)
            .sum();
        ctx.charge_cpu_ns(self.cost.verify_signature() * evidence);
        for vc in &nv.view_changes {
            if vc.new_view != nv.view || !seen.insert(vc.from) {
                continue;
            }
            if validate_view_change(&self.public, vc) {
                valid.push(vc.clone());
            }
        }
        let Some(plan) = compute_plan(&self.config, nv.view, &valid) else {
            return;
        };
        self.apply_plan(ctx, plan);
    }

    fn apply_plan(&mut self, ctx: &mut Context<'_, SbftMsg>, plan: NewViewPlan) {
        if plan.stable > self.last_executed {
            // We are behind the quorum's stable state: fetch it first.
            self.pending_new_view = Some(plan);
            let peer = (self.id.as_usize() + 1) % self.n();
            self.request_state_transfer(ctx, peer);
            return;
        }
        ctx.incr("view_changes_completed", 1);
        self.view = plan.view;
        self.in_view_change = false;
        self.vc_attempts = 0;
        self.vc_messages = self.vc_messages.split_off(&(plan.view.get()));
        // Shares signed in abandoned views can never combine: drop both
        // the pre-verifier map's entries and the per-slot collector share
        // accumulations (a slot the plan leaves out would otherwise pin
        // old-view shares until checkpoint GC).
        if let Some(map) = &self.shares {
            map.retain_views_from(plan.view);
        }
        for slot in self.slots.values_mut() {
            if slot.committed {
                continue;
            }
            if slot.view != Some(plan.view) {
                slot.sigma_shares.clear();
                slot.tau_shares.clear();
                slot.commit2_shares.clear();
            }
        }
        let is_primary = self.is_primary();
        let mut max_seq = self.last_stable;
        for (seq, decision) in plan.decisions {
            max_seq = max_seq.max(seq);
            if self
                .slots
                .get(&seq.get())
                .map(|s| s.committed)
                .unwrap_or(false)
            {
                continue;
            }
            match decision {
                SlotDecision::Commit {
                    requests,
                    view,
                    cert,
                } => {
                    let h = block_digest(seq, view, &requests);
                    let slot = self.slot(seq);
                    slot.view = Some(view);
                    slot.requests = Some(requests);
                    slot.h = Some(h);
                    if let Some(map) = &self.shares {
                        map.publish_digest(seq, view, h);
                    }
                    self.commit(ctx, seq, view, cert);
                }
                SlotDecision::Propose { requests } => {
                    // Adopt as the new view's pre-prepare and sign-share.
                    let view = plan.view;
                    let h = block_digest(seq, view, &requests);
                    let fast = self.config.flags.fast_path;
                    let sigma = if fast {
                        ctx.charge_cpu_ns(self.cost.sign_share());
                        Some(self.my_keys.sigma.sign(DOMAIN_SIGMA, &h))
                    } else {
                        None
                    };
                    ctx.charge_cpu_ns(self.cost.sign_share());
                    let tau = self.my_keys.tau.sign(DOMAIN_TAU, &h);
                    {
                        let slot = self.slots.entry(seq.get()).or_default();
                        // Reset per-view collector state from older views.
                        *slot = Slot {
                            view: Some(view),
                            requests: Some(requests),
                            h: Some(h),
                            sign_share_sent: true,
                            my_sigma_share: sigma,
                            prepared: slot.prepared,
                            exec_digest: slot.exec_digest,
                            state_root: slot.state_root,
                            results_root: slot.results_root,
                            ..Slot::default()
                        };
                    }
                    if let Some(map) = &self.shares {
                        map.publish_digest(seq, view, h);
                    }
                    let msg = SbftMsg::SignShare {
                        seq,
                        view,
                        sigma,
                        tau,
                    };
                    for collector in self.c_collectors(seq, view) {
                        self.send_to(ctx, collector, msg.clone());
                    }
                }
            }
        }
        if is_primary {
            // A client's retry can reach the new primary while this
            // view's log already holds its request: parked during the
            // view change, or arriving before the adopted block executes.
            // `proposed_table` was cleared when the view change began and
            // `client_table` knows only executed requests, so rebuild the
            // former from the log and drop parked copies; otherwise the
            // request commits at a second seq.
            let view = self.view;
            let logged: HashSet<(u32, u64)> = self
                .slots
                .range(self.last_stable.get() + 1..)
                .filter(|(_, slot)| slot.committed || slot.view == Some(view))
                .flat_map(|(_, slot)| slot.requests.iter().flatten())
                .map(|r| (r.client.get(), r.timestamp))
                .collect();
            for &(client, timestamp) in &logged {
                let proposed = self.proposed_table.entry(client).or_insert(0);
                *proposed = (*proposed).max(timestamp);
            }
            self.pending
                .retain(|r| !logged.contains(&(r.client.get(), r.timestamp)));
            self.next_proposal = SeqNum::new(
                self.next_proposal
                    .get()
                    .max(max_seq.get() + 1)
                    .max(self.last_stable.get() + 1),
            );
            self.maybe_propose(ctx);
        }
        self.arm_watchdog(ctx);
    }

    // ---------- state transfer (§VIII) ----------

    fn request_state_transfer(&mut self, ctx: &mut Context<'_, SbftMsg>, peer_hint: NodeId) {
        if self.state_request_outstanding {
            return;
        }
        self.state_request_outstanding = true;
        ctx.incr("state_transfers_requested", 1);
        let peer = if peer_hint < self.n() && peer_hint != self.id.as_usize() {
            peer_hint
        } else {
            (self.id.as_usize() + 1) % self.n()
        };
        ctx.send(
            peer,
            SbftMsg::StateRequest {
                last_executed: self.last_executed,
            },
        );
    }

    fn handle_state_request(
        &mut self,
        ctx: &mut Context<'_, SbftMsg>,
        from: NodeId,
        last_executed: SeqNum,
    ) {
        if from >= self.n() {
            return;
        }
        let Some(checkpoint) = self.ledger.checkpoint() else {
            self.send_block_fills(ctx, from, last_executed);
            return;
        };
        if checkpoint.seq > last_executed {
            let Some((state_root, results_root)) = self.stable_roots else {
                return;
            };
            let Some((_, pi)) = self.stable_cert else {
                return;
            };
            for chunk in self.ledger.export_chunks(self.config.state_chunk_entries) {
                ctx.send(
                    from,
                    SbftMsg::StateChunkMsg {
                        chunk,
                        state_root,
                        results_root,
                        pi,
                    },
                );
            }
        }
        self.send_block_fills(ctx, from, last_executed.max(self.last_stable));
    }

    fn send_block_fills(&self, ctx: &mut Context<'_, SbftMsg>, to: NodeId, after: SeqNum) {
        for (seq, slot) in &self.slots {
            if *seq <= after.get() || !slot.committed {
                continue;
            }
            let (Some(requests), Some(cert), Some(view)) =
                (&slot.requests, &slot.commit_cert, slot.commit_view)
            else {
                continue;
            };
            ctx.send(
                to,
                SbftMsg::BlockFill {
                    seq: SeqNum::new(*seq),
                    view,
                    requests: requests.clone(),
                    cert: cert.clone(),
                },
            );
        }
    }

    fn handle_state_chunk(
        &mut self,
        ctx: &mut Context<'_, SbftMsg>,
        chunk: StateChunk,
        state_root: Digest,
        results_root: Digest,
        pi: Signature,
    ) {
        if chunk.seq <= self.last_executed {
            return;
        }
        let digest = combine_state_digest(chunk.seq, &state_root, &results_root);
        if !self.inbound_preverified {
            ctx.charge_cpu_ns(self.cost.verify_signature());
            if !self.public.pi.verify_either(DOMAIN_PI, &digest, &pi) {
                return;
            }
        }
        self.assembler.add(chunk);
        self.chunk_cert = Some((state_root, results_root, pi));
        let Some((seq, state)) = self.assembler.try_assemble() else {
            return;
        };
        if state.root() != state_root {
            return; // corrupt transfer; wait for a fresh one
        }
        ctx.incr("state_transfers_completed", 1);
        // A server sitting exactly at its checkpoint sends no trailing
        // block fills, so the install itself must release the latch.
        self.state_request_outstanding = false;
        ctx.charge_cpu_ns(self.cost.hash(64 * state.len()));
        self.engine.install(state.clone(), seq, digest);
        self.checkpoint_candidate = None;
        self.last_executed = seq;
        self.last_stable = seq;
        self.stable_cert = Some((digest, pi));
        self.stable_roots = Some((state_root, results_root));
        if let Some(dur) = &mut self.durability {
            // A transferred checkpoint is durable too: a crash right
            // after catching up must not repeat the whole transfer.
            dur.store_checkpoint(&Snapshot::of_checkpoint(
                seq,
                digest,
                state_root,
                results_root,
                Some(pi.to_wire_bytes()),
                &state,
            ));
        }
        self.ledger.install_checkpoint(Checkpoint {
            seq,
            state_digest: digest,
            state,
        });
        self.slots = self.slots.split_off(&(seq.get() + 1));
        self.state_request_outstanding = false;
        if let Some(plan) = self.pending_new_view.take() {
            if plan.stable <= self.last_executed {
                self.apply_plan(ctx, plan);
            } else {
                self.pending_new_view = Some(plan);
            }
        }
        self.try_execute(ctx);
        self.check_recovery_done(ctx);
    }

    fn handle_block_fill(
        &mut self,
        ctx: &mut Context<'_, SbftMsg>,
        seq: SeqNum,
        view: ViewNum,
        requests: Vec<ClientRequest>,
        cert: CommitCert,
    ) {
        // Any fill means a serve round-trip finished: drop the
        // outstanding-request latch even when this block is stale (we
        // may have caught up through the normal path while the serve
        // was in flight) — a latch that only clears on a *useful* fill
        // can stick forever and swallow every later transfer request.
        self.state_request_outstanding = false;
        if seq.get() <= self.last_executed.get() {
            return;
        }
        let h = block_digest(seq, view, &requests);
        // A block fill is self-contained (block + certificate), so the
        // pipeline verified the certificate against the recomputed block
        // digest off-thread when enabled.
        if !self.inbound_preverified {
            ctx.charge_cpu_ns(self.cost.verify_signature());
            let valid = match &cert {
                CommitCert::Fast(sigma) => self.public.sigma.verify_either(DOMAIN_SIGMA, &h, sigma),
                CommitCert::Slow(tau2) => {
                    let d2 = commit2_digest(seq, view, &h);
                    self.public.tau.verify_either(DOMAIN_TAU, &d2, tau2)
                }
            };
            if !valid {
                return;
            }
        }
        {
            let slot = self.slot(seq);
            if slot.committed {
                return;
            }
            slot.view = Some(view);
            slot.requests = Some(requests);
            slot.h = Some(h);
        }
        self.commit(ctx, seq, view, cert);
        self.check_recovery_done(ctx);
    }

    // ---------- durability & startup recovery ----------

    /// Applies state recovered from durable media: installs the
    /// snapshot checkpoint, then replays the WAL tail through the
    /// commit path. Replay is trusted — every logged certificate was
    /// verified before it reached the WAL, and the CRC layer already
    /// rejected damaged records — so it skips re-verification by
    /// entering at [`Self::commit`] directly.
    fn apply_recovery(&mut self, ctx: &mut Context<'_, SbftMsg>) {
        let Some(recovered) = self.pending_recovery.take() else {
            return;
        };
        if recovered.wal_damage.is_some() {
            ctx.incr("wal_tail_truncations", 1);
        }
        if !recovered.is_empty() {
            // Aggregate signal for chaos plans: *something* durable was
            // applied at boot. The per-mechanism counters below can each
            // legitimately be zero (a crash landing exactly on a
            // checkpoint boundary leaves an empty WAL tail; a crash
            // before the first checkpoint leaves no snapshot).
            ctx.incr("durable_recoveries", 1);
        }
        if let Some(snap) = recovered.snapshot {
            if snap.seq > self.last_executed {
                let state = snap.rebuild_state();
                let digest = snap.state_digest;
                self.engine.install(state.clone(), snap.seq, digest);
                self.last_executed = snap.seq;
                self.last_stable = snap.seq;
                self.stable_roots = Some((snap.state_root, snap.results_root));
                if let Some(pi) = snap
                    .cert
                    .as_deref()
                    .and_then(|b| Signature::from_wire_bytes(b).ok())
                {
                    self.stable_cert = Some((digest, pi));
                }
                self.ledger.install_checkpoint(Checkpoint {
                    seq: snap.seq,
                    state_digest: digest,
                    state,
                });
                self.next_proposal = self.next_proposal.max(snap.seq.next());
                ctx.incr("recovered_from_snapshot", 1);
            }
        }
        let mut replayed = 0u64;
        for (seq, bytes) in recovered.wal_records {
            if seq <= self.last_executed.get() {
                continue;
            }
            let Ok(SbftMsg::BlockFill {
                seq,
                view,
                requests,
                cert,
            }) = SbftMsg::from_wire_bytes(&bytes)
            else {
                continue; // CRC-valid but not a block record: skip.
            };
            let h = block_digest(seq, view, &requests);
            {
                let slot = self.slot(seq);
                if slot.committed {
                    continue;
                }
                slot.view = Some(view);
                slot.requests = Some(requests);
                slot.h = Some(h);
            }
            self.commit(ctx, seq, view, cert);
            replayed += 1;
        }
        if replayed > 0 {
            ctx.incr("wal_replayed_blocks", replayed);
        }
    }

    /// Starts the proactive startup recovery handshake: broadcast our
    /// post-replay frontier and keep probing until f+1 peers confirm
    /// it. This is the traffic-independent state-transfer trigger — a
    /// replica rebooting into a *quiescent* cluster hears about the
    /// cluster's frontier from the offers instead of having to observe
    /// a certificate beyond its log window.
    fn begin_recovery_handshake(&mut self, ctx: &mut Context<'_, SbftMsg>) {
        if self.n() <= 1 {
            return;
        }
        self.recovery_active = true;
        self.recovery_offers.clear();
        ctx.incr("recovery_probes", 1);
        self.broadcast(
            ctx,
            &SbftMsg::RecoveryRequest {
                last_executed: self.last_executed,
            },
        );
        ctx.set_timer(self.config.recovery_retry, timer::token(timer::RECOVERY, 0));
    }

    fn handle_recovery_request(
        &mut self,
        ctx: &mut Context<'_, SbftMsg>,
        from: NodeId,
        last_executed: SeqNum,
    ) {
        if from >= self.n() || from == self.id.as_usize() {
            return;
        }
        ctx.send(
            from,
            SbftMsg::RecoveryOffer {
                last_executed: self.last_executed,
                last_stable: self.last_stable,
            },
        );
        if self.last_executed > last_executed {
            // The prober is behind us: serve state exactly as for an
            // explicit request (§VIII) — chunks if our stable
            // checkpoint is past its frontier, block fills for the tail.
            self.handle_state_request(ctx, from, last_executed);
        }
    }

    fn handle_recovery_offer(
        &mut self,
        ctx: &mut Context<'_, SbftMsg>,
        from: NodeId,
        last_executed: SeqNum,
        last_stable: SeqNum,
    ) {
        let _ = last_stable;
        if !self.recovery_active || from >= self.n() || from == self.id.as_usize() {
            return;
        }
        self.recovery_offers.insert(from, last_executed.get());
        if last_executed > self.last_executed {
            // A peer is ahead: pull state now, without waiting to
            // observe traffic. The offer names a peer known to have the
            // state, so use it as the transfer target.
            self.request_state_transfer(ctx, from);
        }
        self.check_recovery_done(ctx);
    }

    /// Ends the startup handshake once f+1 peers' offered frontiers are
    /// at or below our own — with at most f faulty replicas, at least
    /// one honest peer then vouches that we are caught up.
    fn check_recovery_done(&mut self, ctx: &mut Context<'_, SbftMsg>) {
        if !self.recovery_active {
            return;
        }
        let confirmed = self
            .recovery_offers
            .values()
            .filter(|&&frontier| frontier <= self.last_executed.get())
            .count();
        if confirmed >= self.config.f + 1 {
            self.recovery_active = false;
            self.recovery_offers.clear();
            ctx.incr("recovery_completed", 1);
        }
    }

    // ---------- heartbeats & failure detection ----------

    fn heartbeats_enabled(&self) -> bool {
        self.n() > 1 && self.config.heartbeat_interval > SimDuration::ZERO
    }

    fn arm_heartbeat(&mut self, ctx: &mut Context<'_, SbftMsg>) {
        if self.heartbeats_enabled() {
            ctx.set_timer(
                self.config.heartbeat_interval,
                timer::token(timer::HEARTBEAT, 0),
            );
        }
    }

    /// Heartbeat tick: beat to every peer that saw no real traffic from
    /// us within the interval (protocol sends piggyback as implicit
    /// heartbeats), refresh the suspicion gauge, and escalate sustained
    /// primary suspicion into a proactive view change.
    fn on_heartbeat_tick(&mut self, ctx: &mut Context<'_, SbftMsg>) {
        let now = ctx.now();
        let mut signed: Option<(u64, SignatureShare)> = None;
        for r in 0..self.n() {
            if r == self.id.as_usize() {
                continue;
            }
            if self.detector.heartbeat_suppressed(r, now) {
                ctx.incr("heartbeats_suppressed", 1);
                continue;
            }
            // One signature covers the tick: the digest binds our id,
            // the send time, and the execution frontier — none of which
            // vary per peer.
            let (sent_at_ns, share) = *signed.get_or_insert_with(|| {
                let sent_at_ns = now.as_nanos();
                let digest = heartbeat_digest(self.id, sent_at_ns, self.last_executed);
                (sent_at_ns, self.my_keys.tau.sign(DOMAIN_HEARTBEAT, &digest))
            });
            ctx.incr("heartbeats_sent", 1);
            ctx.send(
                r,
                SbftMsg::Heartbeat {
                    from: self.id,
                    sent_at_ns,
                    last_executed: self.last_executed,
                    share,
                },
            );
        }
        if signed.is_some() {
            ctx.charge_cpu_ns(self.cost.sign_share());
        }
        self.suspicion_gauge_milli = self.detector.max_phi_milli(self.id.as_usize(), now);
        self.check_primary_suspicion(ctx, now);
        self.arm_heartbeat(ctx);
    }

    /// Sustained φ-accrual suspicion of the current primary — two
    /// consecutive suspect ticks with work outstanding — triggers a
    /// proactive view change without waiting for the full watchdog
    /// timeout: the gray-failure escape hatch.
    fn check_primary_suspicion(&mut self, ctx: &mut Context<'_, SbftMsg>, now: SimTime) {
        let primary = self.config.primary(self.view);
        let suspect = primary != self.id
            && !self.in_view_change
            && !self.recovery_active
            && self.has_outstanding_work()
            && self.detector.suspected(primary.as_usize(), now);
        if !suspect {
            self.primary_suspect_ticks = 0;
            return;
        }
        self.primary_suspect_ticks += 1;
        if self.primary_suspect_ticks >= 2 {
            self.primary_suspect_ticks = 0;
            ctx.incr("proactive_view_changes", 1);
            self.start_view_change(ctx, self.view.next());
        }
    }

    fn handle_heartbeat(
        &mut self,
        ctx: &mut Context<'_, SbftMsg>,
        from: NodeId,
        claimed: ReplicaId,
        sent_at_ns: u64,
        last_executed: SeqNum,
        share: SignatureShare,
    ) {
        if from >= self.n() || claimed.as_usize() != from || share.index() != (from + 1) as u16 {
            return;
        }
        // Heartbeats are off the hot path and not covered by the
        // transport's pre-verifier: always check the τ share here.
        ctx.charge_cpu_ns(self.cost.verify_signature());
        let digest = heartbeat_digest(claimed, sent_at_ns, last_executed);
        if !self
            .public
            .tau
            .verify_share(DOMAIN_HEARTBEAT, &digest, &share)
        {
            return;
        }
        // Liveness was already noted at dispatch; answer so the sender
        // gets an RTT sample off its own clock.
        ctx.charge_cpu_ns(self.cost.sign_share());
        let echo_digest = heartbeat_digest(self.id, sent_at_ns, self.last_executed);
        let echo_share = self.my_keys.tau.sign(DOMAIN_HEARTBEAT, &echo_digest);
        ctx.send(
            from,
            SbftMsg::HeartbeatEcho {
                from: self.id,
                origin_sent_at_ns: sent_at_ns,
                last_executed: self.last_executed,
                share: echo_share,
            },
        );
    }

    fn handle_heartbeat_echo(
        &mut self,
        ctx: &mut Context<'_, SbftMsg>,
        from: NodeId,
        claimed: ReplicaId,
        origin_sent_at_ns: u64,
        last_executed: SeqNum,
        share: SignatureShare,
    ) {
        if from >= self.n() || claimed.as_usize() != from || share.index() != (from + 1) as u16 {
            return;
        }
        ctx.charge_cpu_ns(self.cost.verify_signature());
        let digest = heartbeat_digest(claimed, origin_sent_at_ns, last_executed);
        if !self
            .public
            .tau
            .verify_share(DOMAIN_HEARTBEAT, &digest, &share)
        {
            return;
        }
        // `origin_sent_at_ns` is our own clock at send time, so the
        // difference is a round-trip sample (a replayed stale echo can
        // only inflate it — RTT feeds telemetry, not safety).
        let rtt = ctx.now().since(SimTime::from_nanos(origin_sent_at_ns));
        self.detector.note_rtt(from, rtt);
    }
}

impl Node<SbftMsg> for ReplicaNode {
    sbft_sim::impl_node_any!();

    fn on_start(&mut self, ctx: &mut Context<'_, SbftMsg>) {
        self.apply_recovery(ctx);
        if self.behavior == Behavior::MutePrimary && self.is_primary() {
            // Mute primaries do not even heartbeat: to the cluster they
            // are indistinguishable from a gray-failed leader, which is
            // exactly what the failure detector should see.
            return;
        }
        self.begin_recovery_handshake(ctx);
        self.arm_heartbeat(ctx);
    }

    fn on_message(&mut self, from: NodeId, msg: SbftMsg, ctx: &mut Context<'_, SbftMsg>) {
        // Any authenticated-channel traffic from a peer replica counts as
        // evidence of life for the failure detector.
        if from < self.n() && from != self.id.as_usize() {
            self.detector.note_seen(from, ctx.now());
        }
        if self.behavior == Behavior::MutePrimary && self.is_primary() {
            // A mute primary still participates as a backup, but never
            // proposes; simplest faithful model: drop client requests.
            if matches!(msg, SbftMsg::Request(_)) {
                return;
            }
        }
        match msg {
            SbftMsg::Request(r) => self.handle_request(ctx, r),
            SbftMsg::PrePrepare {
                seq,
                view,
                requests,
            } => self.handle_pre_prepare(ctx, from, seq, view, requests),
            SbftMsg::SignShare {
                seq,
                view,
                sigma,
                tau,
            } => self.handle_sign_share(ctx, from, seq, view, sigma, tau),
            SbftMsg::FullCommitProof { seq, view, sigma } => {
                self.handle_full_commit_proof(ctx, seq, view, CommitCert::Fast(sigma))
            }
            SbftMsg::Prepare { seq, view, tau } => self.handle_prepare(ctx, seq, view, tau),
            SbftMsg::CommitShare { seq, view, share } => {
                self.handle_commit_share(ctx, from, seq, view, share)
            }
            SbftMsg::FullCommitProofSlow { seq, view, tau2 } => {
                self.handle_full_commit_proof(ctx, seq, view, CommitCert::Slow(tau2))
            }
            SbftMsg::SignState { seq, digest, share } => {
                self.handle_sign_state(ctx, from, seq, digest, share)
            }
            SbftMsg::FullExecuteProof { seq, digest, pi } => {
                self.handle_full_execute_proof(ctx, from, seq, digest, pi)
            }
            SbftMsg::ExecuteAck { .. } | SbftMsg::Reply { .. } => {
                // Client-bound messages; replicas ignore them.
            }
            SbftMsg::ViewChange(vc) => self.handle_view_change(ctx, vc),
            SbftMsg::NewView(nv) => self.handle_new_view(ctx, from, nv),
            SbftMsg::StateRequest { last_executed } => {
                self.handle_state_request(ctx, from, last_executed)
            }
            SbftMsg::StateChunkMsg {
                chunk,
                state_root,
                results_root,
                pi,
            } => self.handle_state_chunk(ctx, chunk, state_root, results_root, pi),
            SbftMsg::BlockFill {
                seq,
                view,
                requests,
                cert,
            } => self.handle_block_fill(ctx, seq, view, requests, cert),
            SbftMsg::ExecuteReady => {
                // The executor thread's wake-up, injected through our own
                // inbound path. Only meaningful (and only trusted) from
                // ourselves.
                if from == self.id.as_usize() {
                    self.drain_exec_completions(ctx);
                }
            }
            SbftMsg::RecoveryRequest { last_executed } => {
                self.handle_recovery_request(ctx, from, last_executed)
            }
            SbftMsg::RecoveryOffer {
                last_executed,
                last_stable,
            } => self.handle_recovery_offer(ctx, from, last_executed, last_stable),
            // Gateway → client admission rejections; nothing for a
            // replica to do with one.
            SbftMsg::Busy { .. } => {}
            SbftMsg::Heartbeat {
                from: claimed,
                sent_at_ns,
                last_executed,
                share,
            } => self.handle_heartbeat(ctx, from, claimed, sent_at_ns, last_executed, share),
            SbftMsg::HeartbeatEcho {
                from: claimed,
                origin_sent_at_ns,
                last_executed,
                share,
            } => self.handle_heartbeat_echo(
                ctx,
                from,
                claimed,
                origin_sent_at_ns,
                last_executed,
                share,
            ),
        }
    }

    fn on_timer(&mut self, token: u64, ctx: &mut Context<'_, SbftMsg>) {
        let (kind, payload) = timer::split(token);
        match kind {
            timer::BATCH => {
                self.batch_timer_set = false;
                if self.is_primary()
                    && !self.in_view_change
                    && !self.pending.is_empty()
                    && self.in_flight() < self.config.max_in_flight
                {
                    let take = self.pending.len().min(self.config.max_block_requests);
                    let requests: Vec<ClientRequest> = self.pending.drain(..take).collect();
                    let seq = self.next_proposal;
                    self.next_proposal = self.next_proposal.next();
                    self.propose_block(ctx, seq, requests);
                }
            }
            timer::FAST_TIMEOUT => {
                // Fast path did not complete in time: fall back (§V-E).
                let seq = SeqNum::new(payload);
                let view = self.view;
                let tau_threshold = self.config.tau_threshold();
                let should_prepare = {
                    let slot = self.slot(seq);
                    slot.fast_timer = None;
                    let go = !slot.prepare_sent
                        && slot.commit_cert.is_none()
                        && !slot.committed
                        && slot.tau_shares.len() >= tau_threshold;
                    if go {
                        slot.prepare_sent = true;
                    }
                    go
                };
                if should_prepare && !self.in_view_change {
                    ctx.incr("fast_path_fallbacks", 1);
                    self.consecutive_fallbacks = self.consecutive_fallbacks.saturating_add(1);
                    if self.consecutive_fallbacks >= self.config.fast_probe_fallbacks {
                        // A sustained fallback streak is stronger
                        // evidence than the EWMA alone: force the
                        // hysteresis open so subsequent slots skip the
                        // fast wait immediately.
                        self.hysteresis.release();
                    }
                    self.emit_prepare(ctx, seq, view);
                }
            }
            timer::STAGGER_FAST => {
                let seq = SeqNum::new(payload);
                let view = self.view;
                if !self.in_view_change {
                    self.emit_fast_proof(ctx, seq, view);
                }
            }
            timer::STAGGER_PREPARE => {
                let seq = SeqNum::new(payload);
                let view = self.view;
                if !self.in_view_change {
                    self.emit_prepare(ctx, seq, view);
                }
            }
            timer::STAGGER_SLOW => {
                let seq = SeqNum::new(payload);
                let view = self.view;
                if !self.in_view_change {
                    self.emit_slow_proof(ctx, seq, view);
                }
            }
            timer::STAGGER_EXEC => {
                let seq = SeqNum::new(payload);
                let digest = self.slots.get(&seq.get()).and_then(|s| {
                    s.pi_shares
                        .iter()
                        .max_by_key(|(_, shares)| shares.len())
                        .map(|(d, _)| *d)
                });
                if let Some(digest) = digest {
                    self.emit_exec_proof(ctx, seq, digest);
                }
            }
            timer::WATCHDOG => self.on_watchdog(ctx),
            timer::RECOVERY => {
                self.check_recovery_done(ctx);
                if self.recovery_active {
                    // Still unconfirmed: the previous probe (or the
                    // state request it triggered) may be stuck on a
                    // dead peer. Drop the outstanding-request latch and
                    // probe everyone again.
                    self.state_request_outstanding = false;
                    self.broadcast(
                        ctx,
                        &SbftMsg::RecoveryRequest {
                            last_executed: self.last_executed,
                        },
                    );
                    ctx.set_timer(self.config.recovery_retry, timer::token(timer::RECOVERY, 0));
                }
            }
            timer::VC_RETRY => {
                let target = ViewNum::new(payload);
                if self.in_view_change && self.view == target {
                    // The view did not form in time; escalate.
                    self.start_view_change(ctx, target.next());
                }
            }
            timer::HEARTBEAT => self.on_heartbeat_tick(ctx),
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::VariantFlags;
    use sbft_crypto::CryptoCostModel;
    use sbft_sim::{Metrics, SimRng, SimTime};
    use sbft_statedb::KvService;

    /// Regression: the verified-request memo must not let a Byzantine
    /// primary splice a *copied* valid signature onto a different op. The
    /// backup verifies a genuine request on the forward path (memoizing
    /// it), then receives a pre-prepare carrying the same
    /// `(client, timestamp, signature)` with a tampered op — the memo
    /// binds the op digest, so the forgery goes through full
    /// verification and is rejected.
    #[test]
    fn copied_signature_on_different_op_never_rides_the_memo() {
        let config = ProtocolConfig::new(1, 0, VariantFlags::SBFT);
        let keys = KeyMaterial::generate(&config, 0x5eed);
        let mut node = ReplicaNode::new(
            config.clone(),
            ReplicaId::new(1),
            &keys,
            Box::new(KvService::new()),
            CryptoCostModel::free(),
        );
        let client = ClientId::new(0);
        let genuine = ClientRequest::signed(
            client,
            1,
            b"put k v".to_vec(),
            &keys.public.client_keys(client),
        );
        let mut forged = genuine.clone();
        forged.op = b"put k EVIL".to_vec();

        let mut rng = SimRng::new(0);
        let mut metrics = Metrics::new(false);
        let mut next_timer_id = 0u64;
        let mut drive = |node: &mut ReplicaNode, from: NodeId, msg: SbftMsg| {
            let mut ctx =
                Context::external(SimTime::ZERO, 1, &mut rng, &mut metrics, &mut next_timer_id);
            node.on_message(from, msg, &mut ctx);
            ctx.into_effects()
        };
        // Genuine request arrives from the client: verified + memoized.
        drive(&mut node, config.n(), SbftMsg::Request(genuine));
        assert_eq!(node.verified_requests.len(), 1);
        // The primary's pre-prepare carries the forged variant: it must
        // be rejected (no sign-share produced, block not accepted).
        let effects = drive(
            &mut node,
            0,
            SbftMsg::PrePrepare {
                seq: SeqNum::new(1),
                view: ViewNum::ZERO,
                requests: vec![forged],
            },
        );
        assert!(
            effects.sends.is_empty(),
            "forged pre-prepare must not trigger a sign-share"
        );
        assert!(
            node.slots
                .get(&1)
                .map(|s| s.requests.is_none())
                .unwrap_or(true),
            "forged block must not be accepted into the slot"
        );
    }

    /// Regression: collector share accumulations and the pre-verifier's
    /// slot-digest map used to drain only when a slot executed — a view
    /// change that abandoned the slot left both growing until checkpoint
    /// GC. Installing a new view must drop share state from older views.
    #[test]
    fn view_install_drops_share_state_of_abandoned_slots() {
        let config = ProtocolConfig::new(1, 0, VariantFlags::SBFT);
        let keys = KeyMaterial::generate(&config, 0x5eed);
        let mut node = ReplicaNode::new(
            config.clone(),
            ReplicaId::new(1),
            &keys,
            Box::new(KvService::new()),
            CryptoCostModel::free(),
        );
        let map = std::sync::Arc::new(ShareVerifyMap::new());
        node.set_share_map(map.clone());

        // An uncommitted view-0 slot with accumulated collector shares
        // and a published digest + pre-verified marks.
        let seq = SeqNum::new(1);
        let h = sbft_crypto::sha256(b"abandoned block");
        {
            let slot = node.slot(seq);
            slot.view = Some(ViewNum::ZERO);
            slot.h = Some(h);
            for r in 0..3u16 {
                let share = keys.replicas[r as usize].tau.sign(DOMAIN_TAU, &h);
                slot.tau_shares.insert(share.index(), share);
                slot.sigma_shares.insert(
                    share.index(),
                    keys.replicas[r as usize].sigma.sign(DOMAIN_SIGMA, &h),
                );
            }
        }
        map.publish_digest(seq, ViewNum::ZERO, h);
        map.record(seq, ViewNum::ZERO, 1, ShareKind::Tau);
        assert_ne!(map.len(), (0, 0));

        // Install view 1 with no decisions for the slot (abandoned).
        let mut rng = SimRng::new(0);
        let mut metrics = Metrics::new(false);
        let mut next_timer_id = 0u64;
        let mut ctx =
            Context::external(SimTime::ZERO, 1, &mut rng, &mut metrics, &mut next_timer_id);
        node.apply_plan(
            &mut ctx,
            NewViewPlan {
                view: ViewNum::new(1),
                stable: SeqNum::ZERO,
                stable_checkpoint: None,
                decisions: Vec::new(),
            },
        );
        drop(ctx.into_effects());

        assert!(map.is_empty(), "view-0 share map entries must be dropped");
        let slot = node.slots.get(&seq.get()).expect("slot still tracked");
        assert!(slot.sigma_shares.is_empty(), "σ shares dropped");
        assert!(slot.tau_shares.is_empty(), "τ shares dropped");
    }

    /// Regression: the verified-request memo used to clear wholesale at
    /// the cap; it now evicts FIFO so the newest entries (the ones still
    /// likely to ride a pre-prepare) survive, and the order queue itself
    /// stays bounded as executed requests drain out of the map.
    #[test]
    fn verified_request_memo_evicts_fifo_and_bounds_its_order_queue() {
        let config = ProtocolConfig::new(1, 0, VariantFlags::SBFT);
        let keys = KeyMaterial::generate(&config, 0x5eed);
        let mut node = ReplicaNode::new(
            config.clone(),
            ReplicaId::new(1),
            &keys,
            Box::new(KvService::new()),
            CryptoCostModel::free(),
        );
        // Preverified inbound: inserts memoize without real verification,
        // so filling past the cap is cheap.
        node.set_inbound_preverified(true);
        let client = ClientId::new(0);
        let client_keys = keys.public.client_keys(client);
        let mut rng = SimRng::new(0);
        let mut metrics = Metrics::new(false);
        let mut next_timer_id = 0u64;
        let total = ReplicaNode::VERIFIED_REQUESTS_CAP + 100;
        for ts in 1..=total as u64 {
            let request = ClientRequest::signed(client, ts, b"op".to_vec(), &client_keys);
            let mut ctx =
                Context::external(SimTime::ZERO, 1, &mut rng, &mut metrics, &mut next_timer_id);
            node.check_request_signature(&mut ctx, &request);
            drop(ctx.into_effects());
        }
        assert!(node.verified_requests.len() <= ReplicaNode::VERIFIED_REQUESTS_CAP);
        // FIFO: the first 100 timestamps were evicted, the newest stay.
        assert!(!node.verified_requests.contains_key(&(0, 1)));
        assert!(node.verified_requests.contains_key(&(0, total as u64)));
        // The order queue never grows far past the map it indexes.
        assert!(node.verified_order.len() <= node.verified_requests.len() * 2 + 1024);
    }

    /// Regression for the quiescent-rejoin gap: state transfer used to
    /// trigger only off *observed traffic* (a certificate more than a
    /// window past our frontier), so a replica rebooting into an idle
    /// cluster never synced. The startup handshake is the
    /// traffic-independent entry point: with zero client traffic and
    /// zero certificates in flight, a recovery offer ahead of our
    /// frontier must trigger a state request, and f+1 offers at our
    /// frontier must end recovery.
    #[test]
    fn recovery_offer_ahead_triggers_state_transfer_without_traffic() {
        let config = ProtocolConfig::new(1, 0, VariantFlags::SBFT);
        let keys = KeyMaterial::generate(&config, 0x5eed);
        let mut node = ReplicaNode::new(
            config.clone(),
            ReplicaId::new(3),
            &keys,
            Box::new(KvService::new()),
            CryptoCostModel::free(),
        );
        node.set_durability(
            crate::persist::ReplicaDurability::in_memory(),
            crate::persist::RecoveredState::empty(),
        );
        let mut rng = SimRng::new(0);
        let mut metrics = Metrics::new(false);
        let mut next_timer_id = 0u64;
        let me: NodeId = 3;

        // Boot: the handshake probes every peer proactively.
        let mut ctx = Context::external(
            SimTime::ZERO,
            me,
            &mut rng,
            &mut metrics,
            &mut next_timer_id,
        );
        node.on_start(&mut ctx);
        let effects = ctx.into_effects();
        assert!(node.recovery_active(), "handshake starts at boot");
        let probes = effects
            .sends
            .iter()
            .filter(|(_, m)| matches!(m, SbftMsg::RecoveryRequest { .. }))
            .count();
        assert!(probes >= config.n() - 1, "probe reaches every peer");

        // A peer's offer ahead of our empty frontier arrives. No
        // traffic, no proofs — the state request must go out anyway.
        let mut ctx = Context::external(
            SimTime::ZERO,
            me,
            &mut rng,
            &mut metrics,
            &mut next_timer_id,
        );
        node.on_message(
            1,
            SbftMsg::RecoveryOffer {
                last_executed: SeqNum::new(64),
                last_stable: SeqNum::new(32),
            },
            &mut ctx,
        );
        let effects = ctx.into_effects();
        assert!(
            effects
                .sends
                .iter()
                .any(|(to, m)| *to == 1 && matches!(m, SbftMsg::StateRequest { .. })),
            "offer ahead of our frontier must trigger a state request at once"
        );
        assert!(
            node.recovery_active(),
            "one offer ahead does not confirm us"
        );

        // f+1 = 2 peers at our frontier vouch that we are caught up.
        for peer in [0usize, 2usize] {
            let mut ctx = Context::external(
                SimTime::ZERO,
                me,
                &mut rng,
                &mut metrics,
                &mut next_timer_id,
            );
            node.on_message(
                peer,
                SbftMsg::RecoveryOffer {
                    last_executed: SeqNum::ZERO,
                    last_stable: SeqNum::ZERO,
                },
                &mut ctx,
            );
            drop(ctx.into_effects());
        }
        assert!(!node.recovery_active(), "f+1 confirmations end recovery");
    }

    /// Regression: a replica that is the primary of its *own* (view-change
    /// in progress) view used to forward incoming requests "to the
    /// primary" — itself — creating an infinite self-send cycle that
    /// pinned the wall-clock runtime at 100% CPU. The request must be
    /// parked in `pending`, never sent back to ourselves.
    #[test]
    fn request_during_view_change_to_self_primary_is_parked_not_looped() {
        let config = ProtocolConfig::new(1, 0, VariantFlags::SBFT);
        let keys = KeyMaterial::generate(&config, 0x5eed);
        let mut node = ReplicaNode::new(
            config.clone(),
            ReplicaId::new(1),
            &keys,
            Box::new(KvService::new()),
            CryptoCostModel::free(),
        );
        // View 1 (primary = replica 1) with the view change still in
        // progress: exactly the state a severed replica reaches after a
        // timeout, before it can assemble a new-view quorum.
        node.view = ViewNum::new(1);
        node.in_view_change = true;

        let client = ClientId::new(0);
        let request = ClientRequest::signed(
            client,
            1,
            b"put k v".to_vec(),
            &keys.public.client_keys(client),
        );

        let mut rng = SimRng::new(0);
        let mut metrics = Metrics::new(false);
        let mut next_timer_id = 0u64;
        let me: NodeId = 1;
        let mut ctx = Context::external(
            SimTime::ZERO,
            me,
            &mut rng,
            &mut metrics,
            &mut next_timer_id,
        );
        node.on_message(config.n(), SbftMsg::Request(request), &mut ctx);
        let effects = ctx.into_effects();

        assert!(
            effects.sends.iter().all(|(to, _)| *to != me),
            "request must not be forwarded back to ourselves"
        );
        assert_eq!(node.pending.len(), 1, "request parks for the new view");
    }

    /// Regression (exactly-once): a new primary re-proposed a request
    /// that the new view's log already carried, so it committed at two
    /// seqs. `proposed_table` is cleared when a view change starts and
    /// `client_table` only knows executed requests, so a client retry
    /// that was parked during the view change, or that arrived after the
    /// install but before the adopted block executed, went out again at
    /// the next seq. Seen as a DUPLICATE verdict in the TCP
    /// `partition-heal` chaos plan.
    #[test]
    fn new_primary_never_reproposes_a_request_its_new_view_carries() {
        let config = ProtocolConfig::new(1, 0, VariantFlags::SBFT);
        let keys = KeyMaterial::generate(&config, 0x5eed);
        let client = ClientId::new(0);
        let request = ClientRequest::signed(
            client,
            28,
            b"put k v".to_vec(),
            &keys.public.client_keys(client),
        );
        // The quorum's evidence carries the request at seq 1 into view 1,
        // whose primary is replica 1.
        let plan = NewViewPlan {
            view: ViewNum::new(1),
            stable: SeqNum::ZERO,
            stable_checkpoint: None,
            decisions: vec![(
                SeqNum::new(1),
                SlotDecision::Propose {
                    requests: vec![request.clone()],
                },
            )],
        };
        for retry_parked in [true, false] {
            let mut node = ReplicaNode::new(
                config.clone(),
                ReplicaId::new(1),
                &keys,
                Box::new(KvService::new()),
                CryptoCostModel::free(),
            );
            let mut rng = SimRng::new(0);
            let mut metrics = Metrics::new(false);
            let mut next_timer_id = 0u64;
            let mut ctx =
                Context::external(SimTime::ZERO, 1, &mut rng, &mut metrics, &mut next_timer_id);
            node.start_view_change(&mut ctx, ViewNum::new(1));
            if retry_parked {
                node.on_message(config.n(), SbftMsg::Request(request.clone()), &mut ctx);
            }
            node.apply_plan(&mut ctx, plan.clone());
            if !retry_parked {
                node.on_message(config.n(), SbftMsg::Request(request.clone()), &mut ctx);
            }
            let effects = ctx.into_effects();

            assert!(node.is_primary() && !node.in_view_change);
            let proposals: Vec<_> = effects
                .sends
                .iter()
                .filter_map(|(_, msg)| match msg {
                    SbftMsg::PrePrepare { seq, .. } => Some(seq.get()),
                    _ => None,
                })
                .collect();
            assert!(
                proposals.is_empty(),
                "retry parked = {retry_parked}: request re-proposed at seqs {proposals:?}"
            );
            assert!(node.pending.is_empty(), "retry parked = {retry_parked}");
        }
    }

    /// Regression (liveness): the view-change backoff used to double
    /// forever — `vc_attempts` only reset when the *watchdog* later
    /// observed progress, so a commit landing right after a view-change
    /// storm left the next stall starting from a multi-second timeout.
    /// Committing a block must reset the ladder immediately.
    #[test]
    fn commit_resets_view_change_backoff() {
        let config = ProtocolConfig::new(1, 0, VariantFlags::SBFT);
        let keys = KeyMaterial::generate(&config, 0x5eed);
        let mut node = ReplicaNode::new(
            config.clone(),
            ReplicaId::new(1),
            &keys,
            Box::new(KvService::new()),
            CryptoCostModel::free(),
        );
        // Simulate surviving a storm: several failed attempts, then the
        // cluster stabilises and a block commits in the current view.
        node.vc_attempts = 5;
        let seq = SeqNum::new(1);
        let h = block_digest(seq, ViewNum::ZERO, &[]);
        {
            let slot = node.slot(seq);
            slot.view = Some(ViewNum::ZERO);
            slot.requests = Some(Vec::new());
            slot.h = Some(h);
        }
        let mut rng = SimRng::new(0);
        let mut metrics = Metrics::new(false);
        let mut next_timer_id = 0u64;
        let mut ctx =
            Context::external(SimTime::ZERO, 1, &mut rng, &mut metrics, &mut next_timer_id);
        let d2 = commit2_digest(seq, ViewNum::ZERO, &h);
        let shares: Vec<_> = keys
            .replicas
            .iter()
            .take(config.tau_threshold())
            .map(|r| r.tau.sign(DOMAIN_TAU, &d2))
            .collect();
        let tau2 = keys.public.tau.combine(DOMAIN_TAU, &d2, &shares).unwrap();
        node.commit(&mut ctx, seq, ViewNum::ZERO, CommitCert::Slow(tau2));
        drop(ctx.into_effects());

        assert!(node.slots[&seq.get()].committed, "block committed");
        assert_eq!(
            node.vc_attempts, 0,
            "committed progress must reset the view-change backoff ladder"
        );
    }

    /// A gray-failed (silent but not crashed) primary must be detected by
    /// the φ-accrual heartbeat detector and proactively voted out, well
    /// before the watchdog's full view timeout — and peers that keep
    /// talking must never accrue suspicion.
    #[test]
    fn sustained_primary_silence_triggers_proactive_view_change() {
        let config = ProtocolConfig::new(1, 0, VariantFlags::SBFT);
        let keys = KeyMaterial::generate(&config, 0x5eed);
        let mut node = ReplicaNode::new(
            config.clone(),
            ReplicaId::new(1),
            &keys,
            Box::new(KvService::new()),
            CryptoCostModel::free(),
        );
        let mut rng = SimRng::new(0);
        let mut metrics = Metrics::new(false);
        let mut next_timer_id = 0u64;
        let interval = config.heartbeat_interval;

        // Boot: the heartbeat timer arms.
        let mut ctx =
            Context::external(SimTime::ZERO, 1, &mut rng, &mut metrics, &mut next_timer_id);
        node.on_start(&mut ctx);
        let effects = ctx.into_effects();
        assert!(
            effects
                .timers
                .iter()
                .any(|(_, _, token)| timer::split(*token).0 == timer::HEARTBEAT),
            "on_start must arm the heartbeat timer"
        );

        // Complete the startup recovery handshake (f+1 peers vouch we
        // are caught up) — proactive view changes are gated on it.
        for peer in [0usize, 2usize] {
            let mut ctx =
                Context::external(SimTime::ZERO, 1, &mut rng, &mut metrics, &mut next_timer_id);
            node.on_message(
                peer,
                SbftMsg::RecoveryOffer {
                    last_executed: SeqNum::ZERO,
                    last_stable: SeqNum::ZERO,
                },
                &mut ctx,
            );
            drop(ctx.into_effects());
        }
        assert!(!node.recovery_active());

        // The primary (replica 0) shows signs of life once, at t=0, via a
        // signed heartbeat...
        let sent_at_ns = 0u64;
        let digest = heartbeat_digest(ReplicaId::new(0), sent_at_ns, SeqNum::ZERO);
        let share = keys.replicas[0].tau.sign(DOMAIN_HEARTBEAT, &digest);
        let mut ctx =
            Context::external(SimTime::ZERO, 1, &mut rng, &mut metrics, &mut next_timer_id);
        node.on_message(
            0,
            SbftMsg::Heartbeat {
                from: ReplicaId::new(0),
                sent_at_ns,
                last_executed: SeqNum::ZERO,
                share,
            },
            &mut ctx,
        );
        let effects = ctx.into_effects();
        assert!(
            effects
                .sends
                .iter()
                .any(|(to, m)| *to == 0 && matches!(m, SbftMsg::HeartbeatEcho { .. })),
            "a valid heartbeat must be echoed for RTT measurement"
        );

        // ...and a client request is outstanding (liveness matters).
        let client = ClientId::new(0);
        let request = ClientRequest::signed(
            client,
            1,
            b"put k v".to_vec(),
            &keys.public.client_keys(client),
        );
        let mut ctx =
            Context::external(SimTime::ZERO, 1, &mut rng, &mut metrics, &mut next_timer_id);
        node.on_message(config.n(), SbftMsg::Request(request), &mut ctx);
        drop(ctx.into_effects());

        // Heartbeat ticks while the primary stays silent. Early ticks
        // (short silence, low φ) must not depose it; two consecutive
        // suspect ticks after a long silence must.
        let tick = |node: &mut ReplicaNode,
                    rng: &mut SimRng,
                    metrics: &mut Metrics,
                    ids: &mut u64,
                    at: SimTime| {
            let mut ctx = Context::external(at, 1, rng, metrics, ids);
            node.on_timer(timer::token(timer::HEARTBEAT, 0), &mut ctx);
            ctx.into_effects()
        };
        let effects = tick(
            &mut node,
            &mut rng,
            &mut metrics,
            &mut next_timer_id,
            SimTime::ZERO + interval,
        );
        assert!(
            effects
                .sends
                .iter()
                .any(|(_, m)| matches!(m, SbftMsg::Heartbeat { .. })),
            "silent peers get explicit heartbeats"
        );
        assert!(!node.in_view_change(), "one interval of silence is normal");

        // ~8 intervals of silence: φ = silence/(interval·ln10) ≈ 3.5 > 2.
        let late = SimTime::ZERO + interval.saturating_mul(8);
        tick(&mut node, &mut rng, &mut metrics, &mut next_timer_id, late);
        assert!(!node.in_view_change(), "first suspect tick only marks");
        tick(
            &mut node,
            &mut rng,
            &mut metrics,
            &mut next_timer_id,
            late + interval,
        );
        assert!(
            node.in_view_change() && node.view() == ViewNum::new(1),
            "two consecutive suspect ticks must depose the gray primary"
        );
        assert_eq!(metrics.counter("proactive_view_changes"), 1);
    }

    /// Collector stagger reorder: when the first-ranked collector is
    /// suspected dead, the second-ranked one takes over slot 0 of the
    /// stagger ladder instead of always waiting out its own slot.
    #[test]
    fn suspected_collector_ahead_shrinks_stagger_index() {
        let config = ProtocolConfig::new(1, 1, VariantFlags::SBFT); // n=6, c+1=2 collectors
        let keys = KeyMaterial::generate(&config, 0x5eed);
        // Find a (seq, view) whose collector list has distinct first and
        // second entries, and run as the second-ranked collector.
        let seq = SeqNum::new(1);
        let view = ViewNum::ZERO;
        let collectors = config.c_collectors(seq, view);
        assert!(collectors.len() >= 2);
        let first = collectors[0];
        let me = collectors[1];
        let mut node = ReplicaNode::new(
            config.clone(),
            me,
            &keys,
            Box::new(KvService::new()),
            CryptoCostModel::free(),
        );
        let now = SimTime::ZERO + SimDuration::from_secs(10);
        assert_eq!(
            node.effective_stagger_index(seq, view, 1, now),
            1,
            "an unknown (never-seen) peer carries no suspicion"
        );
        // The first collector was alive at t=0 and silent ever since.
        node.detector.note_seen(first.as_usize(), SimTime::ZERO);
        assert_eq!(
            node.effective_stagger_index(seq, view, 1, now),
            0,
            "a suspected collector ahead of us yields its stagger slot"
        );
    }

    /// A slot computes its collector sets once per `(seq, view)`, and the
    /// stored sets are exactly the hash-ranked selection of the config.
    #[test]
    fn slot_collector_sets_match_the_selection_across_views() {
        let config = ProtocolConfig::new(1, 1, VariantFlags::SBFT); // n = 6
        let keys = KeyMaterial::generate(&config, 0x5eed);
        let mut node = ReplicaNode::new(
            config.clone(),
            ReplicaId::new(2),
            &keys,
            Box::new(KvService::new()),
            CryptoCostModel::free(),
        );
        for s in 1..=8u64 {
            let seq = SeqNum::new(s);
            node.slot(seq);
            let e = node.e_collectors(seq);
            assert_eq!(e, config.e_collectors(seq, ViewNum::ZERO));
            for v in 0..4u64 {
                let view = ViewNum::new(v);
                let c = node.c_collectors(seq, view);
                assert_eq!(c, config.c_collectors(seq, view), "seq {s}, view {v}");
                let slot = &node.slots[&s];
                assert_eq!(slot.c_collectors, Some((view, c)), "stored for view {v}");
                assert_eq!(
                    slot.e_collectors.as_ref(),
                    Some(&e),
                    "E-set is view-independent"
                );
                assert_eq!(node.e_collectors(seq), e);
            }
        }
        // An untracked slot is answered without being created.
        assert_eq!(
            node.c_collectors(SeqNum::new(99), ViewNum::ZERO),
            config.c_collectors(SeqNum::new(99), ViewNum::ZERO)
        );
        assert!(!node.slots.contains_key(&99));
    }

    #[test]
    fn every_stable_checkpoint_holds_the_state_it_certifies() {
        use crate::testkit::{Cluster, ClusterConfig, Workload};

        // Many concurrent clients keep several blocks in flight, so a
        // block's execute proof can land after later blocks executed.
        // A checkpoint taken then must not label the later state with
        // the earlier sequence number: state transfer would serve a
        // snapshot whose root never matches, and recovery would replay
        // the WAL on top of blocks it already holds. Nor may trailing
        // proofs hold checkpoints back until execution drains.
        let period = 4;
        for seed in 1..=4u64 {
            let mut cluster_config = ClusterConfig::small(1, 0, VariantFlags::SBFT);
            cluster_config.protocol.checkpoint_period = period;
            cluster_config.protocol.batch_delay = SimDuration::ZERO;
            cluster_config.clients = 8;
            cluster_config.seed = seed;
            cluster_config.workload = Workload::KvPut {
                requests: 40,
                ops_per_request: 1,
                key_space: 64,
                value_len: 16,
            };
            let n = cluster_config.protocol.n();
            let mut cluster = Cluster::build(cluster_config);
            cluster.run_for(SimDuration::from_secs(20));
            for r in 0..n {
                let node = cluster.replica_mut(r);
                let checkpoint = node.ledger.checkpoint().expect("checkpointed");
                let (state_root, _) = node.stable_roots.expect("stable roots");
                assert_eq!(checkpoint.seq, node.last_stable, "seed {seed} replica {r}");
                assert_eq!(
                    checkpoint.state.root(),
                    state_root,
                    "seed {seed} replica {r}: checkpoint {} holds another seq's state",
                    checkpoint.seq.get()
                );
            }
            // Summed over replicas: one checkpoint per two periods of
            // executed blocks at the least (one per period is the ideal).
            let metrics = cluster.sim.metrics();
            let (checkpoints, executed) = (
                metrics.counter("checkpoints"),
                metrics.counter("executed_blocks"),
            );
            assert!(
                checkpoints * 2 * period >= executed,
                "seed {seed}: {checkpoints} checkpoints for {executed} executed blocks"
            );
        }
    }

    /// Regression: a §V-A resend of a client's latest executed request
    /// was dropped silently once the stable checkpoint had collected its
    /// result — the client table knew the timestamp, the executed-request
    /// index no longer did. The client table now keeps the latest result,
    /// so every replica answers and the client gets f+1 matching replies.
    #[test]
    fn resend_after_stable_checkpoint_gets_f_plus_1_matching_replies() {
        use crate::testkit::{Cluster, ClusterConfig, Workload};
        use sbft_statedb::KvOp;

        let put = |i: u8| {
            KvOp::Put {
                key: vec![i],
                value: vec![i; 8],
            }
            .to_wire_bytes()
        };
        let mut cluster_config = ClusterConfig::small(1, 0, VariantFlags::SBFT);
        cluster_config.protocol.window = 8;
        cluster_config.protocol.checkpoint_period = 4;
        // Client 0 executes one request; client 1 then drives the log far
        // enough past it that checkpoints garbage-collect its result.
        cluster_config.workload =
            Workload::Explicit(vec![vec![put(0)], (1..=100).map(put).collect()]);
        let protocol = cluster_config.protocol.clone();
        let keys = KeyMaterial::generate(&protocol, cluster_config.seed);
        let mut cluster = Cluster::build(cluster_config);
        cluster.run_for(SimDuration::from_secs(20));
        assert_eq!(cluster.client(0).completed, 1);
        assert_eq!(cluster.client(1).completed, 100);
        let expected = cluster.client(0).last_result.clone();

        let client = ClientId::new(0);
        let resend = ClientRequest::signed(client, 1, put(0), &keys.public.client_keys(client));
        let client_node = cluster.client_node(0);
        let now = cluster.sim.now();
        let mut rng = SimRng::new(0);
        let mut metrics = Metrics::new(false);
        let mut next_timer_id = 0u64;
        let mut matching = 0;
        for r in 0..protocol.n() {
            let node = cluster.replica_mut(r);
            assert!(
                node.last_stable.get() > 64,
                "replica {r} checkpointed far past the request"
            );
            assert!(
                !node.executed_requests.contains_key(&(0, 1)),
                "replica {r} garbage-collected the executed-request entry"
            );
            let mut ctx = Context::external(now, r, &mut rng, &mut metrics, &mut next_timer_id);
            node.on_message(client_node, SbftMsg::Request(resend.clone()), &mut ctx);
            for (to, msg) in ctx.into_effects().sends {
                if let SbftMsg::Reply {
                    timestamp, result, ..
                } = msg
                {
                    assert_eq!((to, timestamp), (client_node, 1));
                    if result == expected {
                        matching += 1;
                    }
                }
            }
        }
        assert!(
            matching >= protocol.pi_threshold(),
            "{matching} matching replies, f+1 = {} needed",
            protocol.pi_threshold()
        );
    }
}
