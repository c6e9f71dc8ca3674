//! The parallel verification pipeline: a pool of worker threads between
//! the [`crate::TcpTransport`]'s inbound loop and the node's
//! single-threaded runtime.
//!
//! The sans-IO nodes are `!Send` by design, so the node thread cannot be
//! parallelized — but the expensive *stateless* per-message work (frame
//! decode, client-signature checks, share verification over carried
//! digests) has no business on that thread. Workers drain raw
//! `(from, payload)` frames in small batches, decode them, hand the batch
//! to a shared [`sbft_sim::InboundVerifier`] (which can amortize — e.g.
//! one random-linear-combination pairing check over every signature share
//! in the batch), and release the survivors to the node.
//!
//! Ordering: the protocol assumes per-peer FIFO delivery (TCP gives it,
//! and the discrete-event simulator models it), so the pool must not let
//! two frames from one peer overtake each other just because different
//! workers verified them. Each frame gets a per-peer **order token** at
//! intake (assigned under the same lock as the frame source's read, so
//! tokens match arrival order); after verification a worker parks its
//! result in the peer's reorder buffer and releases the contiguous
//! prefix. No locks are ever taken on the node itself.

use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{self, Receiver, RecvTimeoutError, SyncSender};
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::Duration;

use sbft_sim::{InboundVerifier, NodeId};
use sbft_telemetry::{Counter, Registry};

/// How long a worker blocks on the frame source before re-checking the
/// shutdown flag (bounds pool teardown latency).
const INTAKE_TICK: Duration = Duration::from_millis(50);

/// Where a [`VerifyPool`] takes raw `(from, payload)` frames from. The
/// transport's [`crate::InboundLoop`] is one: the worker holding the
/// intake lock then reads the sockets itself. A channel receiver is the
/// other, for feeding the pool directly.
pub trait FrameSource: Send + 'static {
    /// The next frame, waiting at most `timeout`.
    ///
    /// # Errors
    ///
    /// [`RecvTimeoutError::Timeout`] when none arrived in time;
    /// [`RecvTimeoutError::Disconnected`] when none ever will.
    fn recv_timeout(&mut self, timeout: Duration) -> Result<(NodeId, Vec<u8>), RecvTimeoutError>;

    /// The next frame if one is ready now.
    fn try_recv(&mut self) -> Option<(NodeId, Vec<u8>)>;
}

impl FrameSource for Receiver<(NodeId, Vec<u8>)> {
    fn recv_timeout(&mut self, timeout: Duration) -> Result<(NodeId, Vec<u8>), RecvTimeoutError> {
        Receiver::recv_timeout(self, timeout)
    }

    fn try_recv(&mut self) -> Option<(NodeId, Vec<u8>)> {
        Receiver::try_recv(self).ok()
    }
}

/// Counter snapshot for one pool.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct VerifyPoolStats {
    /// Frames pulled off the frame source.
    pub frames_in: u64,
    /// Frames that failed to decode.
    pub decode_errors: u64,
    /// Decoded messages rejected by verification.
    pub verify_rejects: u64,
    /// Messages released to the node.
    pub released: u64,
    /// Worker batches processed (released / batches ≈ amortization).
    pub batches: u64,
}

/// Telemetry handles for the pool, registered into the node's shared
/// [`Registry`] so the introspection endpoint sees them; the
/// [`VerifyPoolStats`] API reads the same atomics.
struct Counters {
    frames_in: Counter,
    decode_errors: Counter,
    verify_rejects: Counter,
    released: Counter,
    batches: Counter,
}

impl Counters {
    fn register(registry: &Registry) -> Counters {
        Counters {
            frames_in: registry.counter("sbft_verify_frames_in"),
            decode_errors: registry.counter("sbft_verify_decode_errors"),
            verify_rejects: registry.counter("sbft_verify_rejects"),
            released: registry.counter("sbft_verify_released"),
            batches: registry.counter("sbft_verify_batches"),
        }
    }
}

/// Intake side: the raw frame source plus per-peer order counters.
/// One lock for both, so order tokens always match arrival order.
struct Intake {
    rx: Box<dyn FrameSource>,
    next_token: HashMap<NodeId, u64>,
}

/// One peer's reorder buffer: results parked until their token is next.
struct PeerReorder<M> {
    next_release: u64,
    /// `token → Some(msg)` (verified) or `None` (dropped; the token still
    /// advances, or later frames would stall forever).
    parked: BTreeMap<u64, Option<M>>,
}

impl<M> Default for PeerReorder<M> {
    fn default() -> Self {
        PeerReorder {
            next_release: 0,
            parked: BTreeMap::new(),
        }
    }
}

struct Reorder<M> {
    peers: HashMap<NodeId, PeerReorder<M>>,
}

/// A frame in flight through a worker.
struct Job {
    peer: NodeId,
    token: u64,
    payload: Vec<u8>,
}

/// The verification pipeline stage. Construct with [`VerifyPool::start`],
/// consume with [`VerifyPool::recv_timeout`] / [`VerifyPool::try_recv`]
/// from the node thread.
pub struct VerifyPool<M> {
    out_rx: Option<Receiver<(NodeId, M)>>,
    shutdown: Arc<AtomicBool>,
    counters: Arc<Counters>,
    workers: Vec<thread::JoinHandle<()>>,
    threads: usize,
}

impl<M: Send + 'static> VerifyPool<M> {
    /// Spawns `threads` workers draining `inbound` (the event loop moved
    /// out of a transport with `TcpTransport::take_inbound`, or a
    /// channel receiver). `batch` caps how many ready frames one worker
    /// claims per pass — the amortization unit for batched verification.
    /// `queue` bounds the verified-output channel (backpressure onto the
    /// workers, and from there onto the kernel's TCP buffers). Counters
    /// register into `registry` — pass the transport's, so one
    /// exposition covers the whole node.
    pub fn start(
        inbound: impl FrameSource,
        verifier: Arc<dyn InboundVerifier<M>>,
        threads: usize,
        batch: usize,
        queue: usize,
        registry: &Registry,
    ) -> VerifyPool<M> {
        assert!(threads >= 1, "a pool needs at least one worker");
        assert!(batch >= 1, "batch must be at least 1");
        let (out_tx, out_rx) = mpsc::sync_channel(queue.max(1));
        let shutdown = Arc::new(AtomicBool::new(false));
        let counters = Arc::new(Counters::register(registry));
        let intake = Arc::new(Mutex::new(Intake {
            rx: Box::new(inbound),
            next_token: HashMap::new(),
        }));
        let reorder = Arc::new(Mutex::new(Reorder {
            peers: HashMap::new(),
        }));
        let workers = (0..threads)
            .map(|w| {
                let intake = Arc::clone(&intake);
                let reorder = Arc::clone(&reorder);
                let verifier = Arc::clone(&verifier);
                let shutdown = Arc::clone(&shutdown);
                let counters = Arc::clone(&counters);
                let out_tx = out_tx.clone();
                thread::Builder::new()
                    .name(format!("sbft-verify-{w}"))
                    .spawn(move || {
                        worker_loop(
                            &intake, &reorder, &*verifier, &shutdown, &counters, &out_tx, batch,
                        )
                    })
                    .expect("spawn verify worker")
            })
            .collect();
        VerifyPool {
            out_rx: Some(out_rx),
            shutdown,
            counters,
            workers,
            threads,
        }
    }
}

impl<M> VerifyPool<M> {
    /// Number of worker threads.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Receives the next verified message, waiting at most `timeout`.
    pub fn recv_timeout(&self, timeout: Duration) -> Option<(NodeId, M)> {
        match self.out_rx.as_ref()?.recv_timeout(timeout) {
            Ok(item) => Some(item),
            Err(RecvTimeoutError::Timeout) | Err(RecvTimeoutError::Disconnected) => None,
        }
    }

    /// Non-blocking receive of a verified message.
    pub fn try_recv(&self) -> Option<(NodeId, M)> {
        self.out_rx.as_ref()?.try_recv().ok()
    }

    /// Counter snapshot.
    pub fn stats(&self) -> VerifyPoolStats {
        VerifyPoolStats {
            frames_in: self.counters.frames_in.get(),
            decode_errors: self.counters.decode_errors.get(),
            verify_rejects: self.counters.verify_rejects.get(),
            released: self.counters.released.get(),
            batches: self.counters.batches.get(),
        }
    }
}

impl<M> Drop for VerifyPool<M> {
    fn drop(&mut self) {
        self.shutdown.store(true, Ordering::Release);
        // Dropping the receiver first errors out any worker blocked on a
        // full output queue; the rest notice the flag within one tick.
        self.out_rx.take();
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

fn worker_loop<M: Send + 'static>(
    intake: &Mutex<Intake>,
    reorder: &Mutex<Reorder<M>>,
    verifier: &dyn InboundVerifier<M>,
    shutdown: &AtomicBool,
    counters: &Counters,
    out_tx: &SyncSender<(NodeId, M)>,
    batch: usize,
) {
    while !shutdown.load(Ordering::Acquire) {
        // Intake: one blocking wait, then claim whatever else is already
        // queued (up to `batch`), assigning per-peer order tokens under
        // the same lock so tokens match arrival order.
        let jobs: Vec<Job> = {
            let mut intake = match intake.lock() {
                Ok(guard) => guard,
                Err(_) => return, // a worker panicked; don't compound it
            };
            let first = match intake.rx.recv_timeout(INTAKE_TICK) {
                Ok(item) => item,
                Err(RecvTimeoutError::Timeout) => continue,
                Err(RecvTimeoutError::Disconnected) => return,
            };
            fn push(intake: &mut Intake, jobs: &mut Vec<Job>, (peer, payload): (NodeId, Vec<u8>)) {
                let token = intake.next_token.entry(peer).or_insert(0);
                jobs.push(Job {
                    peer,
                    token: *token,
                    payload,
                });
                *token += 1;
            }
            let mut jobs = Vec::with_capacity(batch);
            push(&mut intake, &mut jobs, first);
            while jobs.len() < batch {
                match intake.rx.try_recv() {
                    Some(item) => push(&mut intake, &mut jobs, item),
                    None => break,
                }
            }
            jobs
        };
        counters.frames_in.add(jobs.len() as u64);
        counters.batches.inc();

        // Decode off the lock (pure parsing, counted exactly), then
        // verify the whole claimed batch with one call — the verifier
        // amortizes crypto across it.
        let mut decoded_at: Vec<usize> = Vec::with_capacity(jobs.len());
        let mut pairs: Vec<(NodeId, M)> = Vec::with_capacity(jobs.len());
        for (i, job) in jobs.iter().enumerate() {
            match verifier.decode(&job.payload) {
                Some(msg) => {
                    decoded_at.push(i);
                    pairs.push((job.peer, msg));
                }
                None => {
                    counters.decode_errors.inc();
                }
            }
        }
        let decoded = pairs.len();
        // The verification call is panic-guarded: this worker's tokens
        // are already claimed, and dying without parking them would
        // silently stall every later frame from those peers (the reorder
        // buffer waits forever on the gap). A panicking verifier instead
        // drops its decoded messages — counted as rejects, so
        // `frames_in == decode_errors + verify_rejects + released`
        // stays exact — and the panic is re-raised after release.
        let verify = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let mut outcomes: Vec<Option<M>> = (0..jobs.len()).map(|_| None).collect();
            let verdicts = verifier.verify_batch(&pairs);
            // Hard contract: one verdict per decoded message. A short
            // vector would otherwise silently drop the tail with no
            // counter accounting for it.
            assert_eq!(
                verdicts.len(),
                pairs.len(),
                "InboundVerifier::verify_batch must return one verdict per message",
            );
            for ((i, (_, msg)), ok) in decoded_at.iter().zip(pairs).zip(verdicts) {
                if ok {
                    outcomes[*i] = Some(msg);
                } else {
                    counters.verify_rejects.inc();
                }
            }
            outcomes
        }));
        let (outcomes, poisoned) = match verify {
            Ok(outcomes) => (outcomes, None),
            Err(panic) => {
                counters.verify_rejects.add(decoded as u64);
                ((0..jobs.len()).map(|_| None).collect(), Some(panic))
            }
        };

        // Release: park every job's outcome (dropped frames park `None`
        // so the token sequence stays dense), then flush each touched
        // peer's contiguous ready prefix, in token order, while holding
        // the reorder lock — that is the per-peer FIFO guarantee. The
        // send below can block on a full output queue while holding this
        // lock; that is deliberate backpressure (a stalled node pauses
        // the whole pool rather than buffering unboundedly), at the cost
        // of serializing workers while the node catches up.
        let mut reorder = match reorder.lock() {
            Ok(guard) => guard,
            Err(_) => return,
        };
        for (job, outcome) in jobs.into_iter().zip(outcomes) {
            let peer = reorder.peers.entry(job.peer).or_default();
            peer.parked.insert(job.token, outcome);
            while let Some(msg) = peer.parked.remove(&peer.next_release) {
                peer.next_release += 1;
                if let Some(msg) = msg {
                    counters.released.inc();
                    if out_tx.send((job.peer, msg)).is_err() {
                        return; // pool dropped; nobody is listening
                    }
                }
            }
        }
        if let Some(panic) = poisoned {
            // Tokens are parked and FIFO continuity is safe — now fail
            // loudly instead of running on with a compromised verifier.
            drop(reorder);
            std::panic::resume_unwind(panic);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sbft_sim::SimRng;
    use std::sync::mpsc::sync_channel;

    /// Test message: `(peer_tag, seq, poison)` packed into the payload.
    #[derive(Debug, Clone, PartialEq, Eq)]
    struct Seq {
        peer_tag: u64,
        seq: u64,
    }

    /// Decodes 17-byte frames; verification sleeps a payload-derived
    /// jitter (forcing workers to finish out of order) and rejects
    /// poisoned frames.
    struct JitterVerifier;

    impl InboundVerifier<Seq> for JitterVerifier {
        fn decode(&self, payload: &[u8]) -> Option<Seq> {
            if payload.len() != 17 {
                return None;
            }
            Some(Seq {
                peer_tag: u64::from_le_bytes(payload[0..8].try_into().unwrap()),
                seq: u64::from_le_bytes(payload[8..16].try_into().unwrap()),
            })
        }

        fn verify_batch(&self, batch: &[(NodeId, Seq)]) -> Vec<bool> {
            batch
                .iter()
                .map(|(_, msg)| {
                    // Data-dependent stall: enough to let later frames of
                    // the same peer finish first on another worker.
                    let jitter = (msg.peer_tag ^ msg.seq).wrapping_mul(0x9e37) % 23;
                    std::thread::sleep(Duration::from_micros(jitter * 10));
                    msg.seq % 16 != 7 // every 16th-ish frame is poisoned
                })
                .collect()
        }
    }

    fn frame(peer_tag: u64, seq: u64) -> Vec<u8> {
        let mut payload = Vec::with_capacity(17);
        payload.extend_from_slice(&peer_tag.to_le_bytes());
        payload.extend_from_slice(&seq.to_le_bytes());
        payload.push(0xab);
        payload
    }

    /// The satellite stress test: 10k frames from several peers pushed
    /// through a 4-worker pool with data-dependent verification delays,
    /// in a seeded random interleaving. Per-peer FIFO must survive, every
    /// valid frame must come out exactly once, rejects must be counted.
    #[test]
    fn seeded_stress_preserves_per_peer_fifo() {
        const PEERS: usize = 5;
        const TOTAL: usize = 10_000;
        let mut rng = SimRng::new(0x51f0_57e5);
        let (tx, rx) = sync_channel(256);
        let pool: VerifyPool<Seq> =
            VerifyPool::start(rx, Arc::new(JitterVerifier), 4, 16, 128, &Registry::new());

        let feeder = std::thread::spawn(move || {
            let mut next_seq = [0u64; PEERS];
            let mut sent = vec![0u64; PEERS];
            for _ in 0..TOTAL {
                let peer = (rng.next_u64() as usize) % PEERS;
                let seq = next_seq[peer];
                next_seq[peer] += 1;
                tx.send((peer as NodeId, frame(peer as u64, seq)))
                    .expect("pool alive");
                sent[peer] += 1;
            }
            sent
        });

        let mut seen = vec![Vec::new(); PEERS];
        let mut received = 0usize;
        let expected_valid = |sent: u64| (0..sent).filter(|s| s % 16 != 7).count();
        let deadline = std::time::Instant::now() + Duration::from_secs(60);
        loop {
            match pool.recv_timeout(Duration::from_millis(200)) {
                Some((from, msg)) => {
                    assert_eq!(from as u64, msg.peer_tag, "attribution preserved");
                    seen[from].push(msg.seq);
                    received += 1;
                }
                None => {
                    // A 200ms-quiet pool with the feeder done is drained
                    // (verification jitter is microseconds).
                    if feeder.is_finished() {
                        break;
                    }
                    assert!(
                        std::time::Instant::now() < deadline,
                        "stress run did not drain in time"
                    );
                }
            }
        }
        let sent = feeder.join().expect("feeder");

        for (peer, seqs) in seen.iter().enumerate() {
            // Strict FIFO: the released sequence per peer is exactly the
            // sent sequence minus the poisoned frames, in order.
            let expect: Vec<u64> = (0..sent[peer]).filter(|s| s % 16 != 7).collect();
            assert_eq!(seqs, &expect, "peer {peer} order violated");
        }
        let valid_total: usize = sent.iter().map(|s| expected_valid(*s)).sum();
        assert_eq!(received, valid_total);

        let stats = pool.stats();
        assert_eq!(stats.frames_in, TOTAL as u64, "every frame drained");
        assert_eq!(stats.released, valid_total as u64);
        assert_eq!(stats.verify_rejects, (TOTAL - valid_total) as u64);
        assert_eq!(stats.decode_errors, 0);
        assert!(
            stats.batches < stats.frames_in,
            "some amortization must have happened: {} batches for {} frames",
            stats.batches,
            stats.frames_in,
        );
    }

    #[test]
    fn malformed_frames_are_counted_and_do_not_stall_the_stream() {
        let (tx, rx) = sync_channel(64);
        let pool: VerifyPool<Seq> =
            VerifyPool::start(rx, Arc::new(JitterVerifier), 2, 4, 64, &Registry::new());
        // Interleave garbage with valid frames from one peer: the valid
        // ones must still come out, in order, despite dropped tokens.
        for seq in 0..20u64 {
            tx.send((3, frame(3, seq))).unwrap();
            tx.send((3, vec![0xff; 3])).unwrap(); // undecodable
        }
        let mut seqs = Vec::new();
        while seqs.len() < 19 {
            let (from, msg) = pool
                .recv_timeout(Duration::from_secs(5))
                .expect("valid frames released");
            assert_eq!(from, 3);
            seqs.push(msg.seq);
        }
        let expect: Vec<u64> = (0..20).filter(|s| s % 16 != 7).collect();
        assert_eq!(seqs, expect);
        let stats = pool.stats();
        assert_eq!(stats.decode_errors, 20);
        assert_eq!(stats.verify_rejects, 1); // seq 7
    }

    #[test]
    fn drop_shuts_workers_down() {
        let (tx, rx) = sync_channel::<(NodeId, Vec<u8>)>(4);
        let pool: VerifyPool<Seq> =
            VerifyPool::start(rx, Arc::new(JitterVerifier), 3, 4, 4, &Registry::new());
        tx.send((0, frame(0, 0))).unwrap();
        let _ = pool.recv_timeout(Duration::from_secs(5)).expect("released");
        drop(pool); // must join all workers without hanging
                    // The intake sender is still alive; sends just go nowhere.
        let _ = tx.send((0, frame(0, 1)));
    }
}
