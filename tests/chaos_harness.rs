//! Chaos-harness acceptance tests: the same fault plans running on the
//! deterministic simulator and on real TCP sockets through the
//! in-process fault proxy.
//!
//! The sim side is swept much wider by CI (`sbft-chaos --swarm`); here
//! we pin the cross-backend contract — same plan, same invariants, two
//! runtimes — and document the one genuine protocol gap the initial
//! sweeps surfaced (see `quiescent_rejoin_requires_proactive_sync`).

use std::sync::Mutex;
use std::time::Duration;

use sbft_chaos::{plan_by_name, run_sim, run_tcp, Fault, FaultEvent, FaultPlan, Outcome};

/// TCP runs spawn a thread per node plus one transport writer thread
/// per node (and the fault proxy's forwarding threads), and are
/// timing-sensitive on small containers; serialize them.
static TCP_LOCK: Mutex<()> = Mutex::new(());

fn assert_tcp_pass(name: &str, seed: u64) {
    let _serial = TCP_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let plan = plan_by_name(name).expect("canonical plan exists");
    let report = run_tcp(&plan, seed, Duration::from_secs(60));
    assert_eq!(
        report.outcome,
        Outcome::Pass,
        "plan `{name}` on tcp: {:?} (reproduce: sbft-chaos --plan {name} --backend tcp)",
        report.outcome
    );
}

#[test]
fn same_seed_same_verdict_on_sim() {
    // The acceptance bar for reproducibility: a sim run is a pure
    // function of (plan, seed) — identical event counts, identical
    // completions, identical verdict.
    let plan = plan_by_name("one-way-isolation").expect("canonical plan");
    let a = run_sim(&plan, 0xC0FFEE);
    let b = run_sim(&plan, 0xC0FFEE);
    assert_eq!(a.outcome, b.outcome);
    assert_eq!(a.fingerprint, b.fingerprint, "same seed ⇒ same run");
    assert_eq!(a.completed, b.completed);
}

#[test]
fn tcp_primary_crash_recovers_via_view_change() {
    // The flagship cross-backend scenario: kill the primary mid-batch
    // over real sockets; the view change must restore liveness and the
    // judged invariants must hold on the surviving replicas.
    assert_tcp_pass("primary-crash", 0xDEAD);
}

#[test]
fn tcp_partition_heals_through_the_fault_proxy() {
    // The fault proxy cuts every link of one backup (live connections
    // killed, reconnects refused), then heals it; reconnect-with-backoff
    // must restore full-cluster liveness.
    assert_tcp_pass("partition-heal", 0xDEAD);
}

#[test]
fn tcp_lagging_replica_rejoins_after_empty_state_restart() {
    // ROADMAP called "state-transfer for lagging replicas over TCP"
    // unvalidated; this validates it: the replica reboots with a wiped
    // disk on a fresh port behind the commit frontier, and must catch
    // back up over real sockets while traffic keeps flowing (the plan's
    // max_final_lag bound).
    assert_tcp_pass("lagging-replica-rejoin", 0xDEAD);
}

#[test]
fn tcp_gateway_burst_sheds_but_committed_work_continues() {
    // The front door under a client burst over real sockets: a tiny
    // admission budget must shed (clients see and honor Busy), while
    // admitted requests keep committing — the judged safety invariants
    // include no duplicated (client, timestamp) execution.
    assert_tcp_pass("gateway-burst", 0xDEAD);
}

#[test]
fn tcp_gateway_crash_restart_is_exactly_once() {
    // Kill the gateway process mid-flight and reboot it with an empty
    // admission table: in-flight retries re-enter as fresh admissions,
    // and exactly-once must rest entirely on the replicas' dedupe.
    assert_tcp_pass("gateway-crash-restart", 0xDEAD);
}

/// REGRESSION — a real protocol gap found by the chaos sweep, fixed by
/// the startup recovery handshake:
///
/// A replica that reboots **with empty state into a quiescent cluster**
/// used to never recover. State transfer was only triggered by
/// observing traffic beyond the log window, so with no client load the
/// rejoiner sat at seq 0 indefinitely — the cluster silently ran with
/// its fault budget consumed until the next request happened to flow.
/// Now `on_start` broadcasts a `RecoveryRequest` probe; peers answer
/// with their frontier and serve chunks/block fills, so the rejoiner
/// syncs to the cluster's stable checkpoint with zero traffic flowing.
/// This test pins that behaviour (sim backend; the TCP side is pinned
/// by `tcp_quiescent_rejoin_syncs_on_idle_cluster` below).
#[test]
fn quiescent_rejoin_requires_proactive_sync() {
    use sbft::core::{Cluster, ClusterConfig, VariantFlags, Workload};
    use sbft::sim::{SimDuration, SimTime};

    let mut config = ClusterConfig::small(1, 0, VariantFlags::SBFT);
    config.clients = 2;
    config.protocol.window = 32;
    config.protocol.checkpoint_period = 16;
    // Bounded workload: it finishes, then the cluster goes quiet.
    config.workload = Workload::KvPut {
        requests: 60,
        ops_per_request: 1,
        key_space: 64,
        value_len: 16,
    };
    let mut cluster = Cluster::build(config);
    cluster.sim.start();
    cluster
        .sim
        .run_until(SimTime::ZERO + SimDuration::from_millis(200));
    let now = cluster.sim.now();
    cluster.sim.schedule_crash(3, now);
    cluster
        .sim
        .run_until(SimTime::ZERO + SimDuration::from_secs(20));
    assert_eq!(cluster.total_completed(), 120, "workload finished");
    let frontier = cluster.replica(0).last_executed().get();
    assert!(frontier >= 60, "cluster committed past the window");

    // Reboot replica 3 with empty state into the idle cluster: the
    // startup handshake must pull it to the frontier unprompted.
    cluster.restart_replica(3);
    cluster
        .sim
        .run_until(SimTime::ZERO + SimDuration::from_secs(80));
    let caught_up = cluster.replica(3).last_executed().get();
    assert!(
        caught_up + 32 >= frontier,
        "restarted replica must proactively sync to the frontier even without \
         live traffic (stuck at {caught_up}, frontier {frontier})"
    );
}

/// The TCP half of the quiescent-rejoin regression above: a **bounded**
/// workload runs dry, then a crashed replica reboots with empty state
/// into the idle cluster over real sockets. The plan's liveness bar is
/// therefore not post-horizon progress (there is none by design —
/// `min_progress: 0`) but the catch-up lag: with zero traffic flowing,
/// only the startup recovery handshake can pull the rejoiner back to
/// the frontier.
#[test]
fn tcp_quiescent_rejoin_syncs_on_idle_cluster() {
    let _serial = TCP_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let plan = FaultPlan {
        name: "quiescent-rejoin",
        summary: "replica reboots empty into an idle cluster; handshake must sync it",
        f: 1,
        c: 0,
        clients: 2,
        // Bounded: the workload finishes well before the restart fires,
        // so the rejoiner sees a genuinely quiescent cluster.
        requests_per_client: 30,
        window: Some(32),
        checkpoint_period: Some(16),
        max_in_flight: None,
        events: vec![
            FaultEvent {
                at_ms: 300,
                fault: Fault::Crash { replica: 3 },
            },
            FaultEvent {
                at_ms: 2_000,
                fault: Fault::Restart { replica: 3 },
            },
        ],
        // Wall-clock room for several 500 ms recovery-probe rounds after
        // the restart: 500 ms was enough in isolation but starves when
        // the rest of the suite loads a small box.
        horizon_ms: 6_000,
        min_progress: 0,
        expect_counters: vec![("recovery_probes", 1)],
        max_final_lag: Some(32),
        min_fast_ratio: None,
        max_view_changes: None,
        gateway: false,
        gateway_slots: None,
    };
    plan.validate();
    let report = run_tcp(&plan, 0xDEAD, Duration::from_secs(60));
    assert_eq!(
        report.outcome,
        Outcome::Pass,
        "quiescent rejoin on tcp: {:?}",
        report.outcome
    );
}
