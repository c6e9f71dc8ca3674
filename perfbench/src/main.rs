//! SBFT end-to-end and per-layer benchmark.
//!
//! ```text
//! sbft-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Each run boots an n = 4 (f = 1, c = 0) cluster on loopback TCP inside
//! this process with the deploy defaults, drives it from one generator
//! thread for `--seconds`, judges the outputs, and prints one JSON object
//! as its last line of standard output: the end-to-end metrics with
//! `--trace 0`, the per-layer metrics with `--trace 1`. Workloads, metric
//! definitions and the expected interactions are in `perfbench/README.md`.
//! Inputs derive from `--seed` only; crypto is the simulated group, with
//! no calibrated cost charged.

mod cluster;
mod gen;
mod layers;
mod procfs;
mod stats;

use std::fmt::Write as _;
use std::fs;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::thread;
use std::time::Duration;

use sbft::core::{invariant_violation, KeyMaterial};
use sbft::deploy::protocol_for;
use sbft::evm::{batch_trace, generate_eth_trace, EthTraceConfig, Transaction};
use sbft::telemetry::{RegistrySnapshot, PHASE_COMPONENTS};
use sbft::transport::ClusterSpec;
use sbft::wire::Wire;

use cluster::{Cluster, ServiceKind, N};
use gen::{now_ns, GenPlan, GenReport, Load, OpStream, Ops, Shared};
use procfs::ThreadLedger;
use stats::{median, num, object, quantile, ratio, string};

/// Times the cluster is set up per run; `setup_s` is their median.
const SETUPS: usize = 9;
/// Load before the measured window, after the first completion.
const WARMUP_NS: u64 = 1_000_000_000;
/// Open-loop rate of `kv-light` and `kv-crash`.
const KV_RATE: u64 = 1_000;
/// Closed-loop sessions of `kv-saturate`.
const SATURATE_SESSIONS: usize = 256;
/// Arrival rate of `kv-serial` and `kv-serial-crash`, whose one session
/// keeps one request in flight at a time (~20 % of its capacity).
const SERIAL_RATE: u64 = 300;
/// Open-loop rate of `evm-batch`, in batches per second.
const EVM_RATE: u64 = 60;
/// Transactions per EVM batch (§IX: "about 50 transactions per batch";
/// the synthetic transactions are smaller than real ones, so such a batch
/// is ~5.5 kB rather than the paper's 12 kB).
const EVM_BATCH_TXS: usize = 50;
/// Accounts the EVM trace draws senders and recipients from.
const EVM_ACCOUNTS: usize = 1_000;
/// Contracts the EVM trace creates; deployed during set-up.
const EVM_CONTRACTS: usize = 64;
/// `kv-crash` and `kv-serial-crash`: the primary stops and restarts at
/// these shares of the window. Stopping late keeps most requests on the
/// healthy cluster, so the median stays on one side of the failover's
/// latency mix.
const CRASH_AT: f64 = 0.7;
const RESTART_AT: f64 = 0.8;
/// Traced runs alternate untraced and traced slices of this length.
const SLICE_NS: u64 = 1_000_000_000;
/// Where runs leave spans, replay files and durable replica state.
const OUT_DIR: &str = "perfbench/out";

const NS: f64 = 1e9;

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10,
        trace: false,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|_| "bad --seed".to_string())?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|_| "bad --seconds".to_string())?;
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_string()),
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if args.seconds == 0 {
        return Err("--seconds must be at least 1".to_string());
    }
    Ok(args)
}

#[derive(Clone, Copy)]
struct Workload {
    service: ServiceKind,
    load: Load,
    sessions: usize,
    durable: bool,
    crash: bool,
}

fn workload(name: &str) -> Result<Workload, String> {
    let kv_open = Workload {
        service: ServiceKind::Kv,
        load: Load::Open { per_sec: KV_RATE },
        sessions: 20_000,
        durable: false,
        crash: false,
    };
    Ok(match name {
        "kv-light" => kv_open,
        "kv-saturate" => Workload {
            load: Load::Closed,
            sessions: SATURATE_SESSIONS,
            ..kv_open
        },
        "evm-batch" => Workload {
            service: ServiceKind::Evm,
            load: Load::Open { per_sec: EVM_RATE },
            sessions: 2_000,
            ..kv_open
        },
        "kv-crash" => Workload {
            durable: true,
            crash: true,
            ..kv_open
        },
        "kv-serial" => Workload {
            load: Load::Serial {
                per_sec: SERIAL_RATE,
            },
            sessions: 1,
            ..kv_open
        },
        "kv-serial-crash" => Workload {
            load: Load::Serial {
                per_sec: SERIAL_RATE,
            },
            sessions: 1,
            durable: true,
            crash: true,
            ..kv_open
        },
        other => return Err(format!("unknown workload {other}")),
    })
}

/// The workload's generated inputs: the operation stream and, for the
/// EVM, the contract deploys that precede it.
struct Inputs {
    ops: Ops,
    deploys: Vec<Vec<u8>>,
}

/// Groups encoded transactions with `batch_trace` into
/// `Transaction::Batch` operations of about [`EVM_BATCH_TXS`] each.
fn batches(txs: &[Vec<u8>]) -> Vec<Vec<u8>> {
    let mean_len = txs.iter().map(Vec::len).sum::<usize>() / txs.len().max(1);
    batch_trace(txs, mean_len * EVM_BATCH_TXS)
        .into_iter()
        .map(|batch| {
            let decoded = batch
                .iter()
                .map(|tx| Transaction::from_wire_bytes(tx).expect("generated tx decodes"))
                .collect();
            Transaction::Batch(decoded).to_wire_bytes()
        })
        .collect()
}

fn inputs(w: &Workload, seed: u64, seconds: u64) -> Inputs {
    match w.service {
        ServiceKind::Kv => Inputs {
            ops: Ops::Kv {
                key_space: 1_024,
                value_len: 16,
            },
            deploys: Vec::new(),
        },
        ServiceKind::Evm => {
            // Enough ~50-transaction batches for warm-up and window.
            let batches_needed = EVM_RATE * (seconds + WARMUP_NS / 1_000_000_000 + 2);
            let trace = generate_eth_trace(&EthTraceConfig {
                transactions: (batches_needed * 50) as usize,
                contracts: EVM_CONTRACTS,
                accounts: EVM_ACCOUNTS,
                gas_limit: 1_000_000,
                seed,
            });
            let (creates, calls): (Vec<Vec<u8>>, Vec<Vec<u8>>) =
                trace.into_iter().partition(|tx| {
                    matches!(
                        Transaction::from_wire_bytes(tx),
                        Ok(Transaction::Create { .. })
                    )
                });
            Inputs {
                ops: Ops::Fixed(Arc::new(batches(&calls))),
                deploys: batches(&creates),
            }
        }
    }
}

/// Counter totals over the generator's registry and every registry the
/// cluster booted, as deltas from `base` (registries booted later count
/// from zero).
struct Counters(Vec<RegistrySnapshot>);

impl Counters {
    fn take(cluster: &Cluster, shared: &Shared) -> Counters {
        let generator = shared
            .registry
            .get()
            .map(|r| r.snapshot())
            .unwrap_or_default();
        Counters(
            std::iter::once(generator)
                .chain(cluster.registries().iter().map(|(_, r)| r.snapshot()))
                .collect(),
        )
    }

    fn delta(&self, base: &Counters, name: &str) -> u64 {
        self.0
            .iter()
            .enumerate()
            .map(|(i, snap)| {
                let before = base.0.get(i).map_or(0, |b| b.counter(name));
                snap.counter(name).saturating_sub(before)
            })
            .sum()
    }
}

/// Everything measured in the window of one run.
struct Window {
    secs: f64,
    cpu_ns: u64,
    completions: u64,
    ledger: ThreadLedger,
    transport_threads: usize,
    /// `(cpu_ns, completions)` of untraced and traced slices.
    slices: [(u64, u64); 2],
    stop_ns: u64,
    viewchange_ns: u64,
    restart_ns: u64,
    catchup_ns: u64,
    /// Counters at the window's start and end.
    base: Counters,
    end: Counters,
}

fn sleep_until(t_ns: u64) {
    let now = now_ns();
    if t_ns > now {
        thread::sleep(Duration::from_nanos(t_ns - now));
    }
}

/// Drives the measured window from the main thread: CPU snapshots at its
/// edges, trace slices, and the crash workloads' stop/restart schedule.
fn measure(
    w: &Workload,
    cluster: &mut Cluster,
    shared: &Shared,
    traced: bool,
) -> Result<Window, String> {
    let start = shared.window_start_ns.load(Ordering::Acquire);
    let end = shared.window_end_ns.load(Ordering::Acquire);
    sleep_until(start);
    let base = Counters::take(cluster, shared);
    let cpu0 = procfs::process_cpu_ns();
    let done0 = shared.completions.load(Ordering::Relaxed);
    let mut ledger = ThreadLedger::begin();
    let len = end - start;
    let stop_at = start + (len as f64 * CRASH_AT) as u64;
    let restart_at = start + (len as f64 * RESTART_AT) as u64;
    let mut win = Window {
        secs: len as f64 / NS,
        cpu_ns: 0,
        completions: 0,
        ledger: ThreadLedger::default(),
        transport_threads: 0,
        slices: [(0, 0); 2],
        stop_ns: 0,
        viewchange_ns: 0,
        restart_ns: 0,
        catchup_ns: 0,
        base,
        end: Counters(Vec::new()),
    };
    let mut slice_start = (start, cpu0, done0);
    let mut slice_traced = false;
    loop {
        let now = now_ns();
        if traced && (now >= slice_start.0 + SLICE_NS || now >= end) {
            let cpu = procfs::process_cpu_ns();
            let done = shared.completions.load(Ordering::Relaxed);
            let s = &mut win.slices[usize::from(slice_traced)];
            s.0 += cpu - slice_start.1;
            s.1 += done - slice_start.2;
            slice_start = (now, cpu, done);
            slice_traced = !slice_traced && now < end;
            cluster.set_tracing(slice_traced);
            shared.tracing.store(slice_traced, Ordering::Release);
        }
        if now >= end {
            break;
        }
        if w.crash {
            if win.stop_ns == 0 && now >= stop_at {
                ledger.sample();
                cluster.stop(0);
                // Stamped once the thread has exited: requests due
                // earlier may still have reached the running replica.
                win.stop_ns = now_ns();
                shared.stop_ns.store(win.stop_ns, Ordering::Release);
            }
            if win.stop_ns != 0
                && win.viewchange_ns == 0
                && (1..N).any(|r| cluster.status(r).view() > 0)
            {
                win.viewchange_ns = now - win.stop_ns;
            }
            if win.restart_ns == 0 && now >= restart_at {
                cluster
                    .restart(0)
                    .map_err(|e| format!("restarting replica 0: {e}"))?;
                win.restart_ns = now_ns();
            }
            if win.restart_ns != 0 && win.catchup_ns == 0 {
                let peers = (1..N)
                    .map(|r| cluster.status(r).last_executed())
                    .min()
                    .unwrap_or(0);
                if cluster.status(0).last_executed() >= peers {
                    win.catchup_ns = now - win.restart_ns;
                }
            }
            thread::sleep(Duration::from_millis(1));
        } else {
            let next = if traced {
                (slice_start.0 + SLICE_NS).min(end)
            } else {
                end
            };
            sleep_until(next);
        }
    }
    win.completions = shared.completions.load(Ordering::Relaxed) - done0;
    win.end = Counters::take(cluster, shared);
    ledger.sample();
    // Summed per thread in nanoseconds, finer than the process's ticks.
    win.cpu_ns = ledger.cpu_ns(|_| true);
    win.ledger = ledger;
    win.transport_threads = procfs::thread_count(is_transport_thread);
    Ok(win)
}

fn is_transport_thread(name: &str) -> bool {
    name.starts_with("sbft-writer") || name.starts_with("sbft-accept") || name == "sbft-reader"
}

/// The correctness judge: gives the live replicas a moment to reach one
/// execution frontier, then checks agreement (equal frontiers imply equal
/// state digests), gap-free logs and exactly-once execution over their
/// snapshots. A replica still behind is reported, not failed: lagging is
/// a liveness figure, the invariants are the safety judge.
fn judge(cluster: &Cluster) -> Result<String, String> {
    let live: Vec<usize> = (0..N).filter(|r| cluster.is_live(*r)).collect();
    let deadline = now_ns() + 2 * 1_000_000_000;
    let frontiers = loop {
        let frontiers: Vec<u64> = live
            .iter()
            .map(|r| cluster.status(*r).last_executed())
            .collect();
        if frontiers.iter().all(|f| *f == frontiers[0]) || now_ns() > deadline {
            break frontiers;
        }
        thread::sleep(Duration::from_millis(5));
    };
    let snaps = cluster.snapshots();
    if snaps.len() != live.len() {
        return Err(format!(
            "{} of {} live replicas answered the snapshot",
            snaps.len(),
            live.len()
        ));
    }
    if let Some(violation) = invariant_violation(&snaps) {
        return Err(violation);
    }
    let top = snaps.iter().map(|s| s.last_executed).max().unwrap_or(0);
    let at_top = snaps.iter().filter(|s| s.last_executed == top).count();
    if top == 0 {
        return Err("no replica executed anything".to_string());
    }
    Ok(format!(
        "invariants hold; {at_top} of {} live replicas agree at seq {top} (view {}); frontiers {frontiers:?}",
        snaps.len(),
        snaps.iter().map(|s| s.view).max().unwrap_or(0),
    ))
}

fn git_rev() -> String {
    Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
    note: &'static str,
}

fn metric(name: &str, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.to_string(),
        value,
        unit,
        note: "",
    }
}

/// A metric this workload or host does not exercise: reported as 0 in
/// the JSON and marked in the table.
fn unexercised(name: &str, unit: &'static str) -> Metric {
    Metric {
        name: name.to_string(),
        value: 0.0,
        unit,
        note: "not exercised",
    }
}

struct Run {
    report: GenReport,
    win: Window,
    setup_s: Vec<f64>,
    spec: ClusterSpec,
    verdict: Result<String, String>,
    fs_type: String,
}

fn run(args: &Args, w: &Workload) -> Result<Run, String> {
    now_ns();
    let inputs = inputs(w, args.seed, args.seconds);
    let out = PathBuf::from(OUT_DIR);
    fs::create_dir_all(&out).map_err(|e| format!("creating {OUT_DIR}: {e}"))?;
    let mut setup_s = Vec::new();
    for k in 0..SETUPS {
        let last = k + 1 == SETUPS;
        let data_dir = w
            .durable
            .then(|| out.join(format!("data-{}-{k}", std::process::id())));
        let t0 = now_ns();
        let (mut cluster, listener) =
            Cluster::boot(w.service, args.seed, w.sessions, data_dir.as_ref(), false)
                .map_err(|e| format!("booting the cluster: {e}"))?;
        let shared = Arc::new(Shared::default());
        let plan = GenPlan {
            load: w.load,
            ops: inputs.ops.clone(),
            deploys: inputs.deploys.clone(),
            seed: args.seed,
            warmup_ns: WARMUP_NS,
            window_ns: last.then_some(args.seconds * 1_000_000_000),
        };
        let generator = gen::spawn(cluster.spec.clone(), listener, plan, Arc::clone(&shared))
            .map_err(|e| format!("spawning the generator: {e}"))?;
        let deadline = t0 + 60 * 1_000_000_000;
        while shared.first_completion_ns.load(Ordering::Acquire) == 0 && !generator.is_finished() {
            if now_ns() > deadline {
                shared.abort.store(true, Ordering::Release);
                let _ = generator.join();
                return Err("no verified completion within 60 s of boot".to_string());
            }
            thread::sleep(Duration::from_millis(1));
        }
        let first = shared.first_completion_ns.load(Ordering::Acquire);
        if first == 0 {
            let why = match generator.join() {
                Ok(Err(e)) => e,
                _ => "generator thread failed".to_string(),
            };
            return Err(format!("set-up failed: {why}"));
        }
        setup_s.push((first - t0) as f64 / NS);
        if !last {
            generator
                .join()
                .map_err(|_| "generator thread panicked".to_string())??;
            if !cluster.shutdown() {
                return Err("a replica thread panicked".to_string());
            }
            drop(cluster);
            if let Some(dir) = &data_dir {
                let _ = fs::remove_dir_all(dir);
            }
            continue;
        }
        let win = measure(w, &mut cluster, &shared, args.trace)?;
        let report = generator
            .join()
            .map_err(|_| "generator thread panicked".to_string())??;
        let verdict = judge(&cluster);
        let spec = cluster.spec.clone();
        let fs_type = data_dir
            .as_ref()
            .map_or_else(|| "-".to_string(), |d| procfs::fs_type(d));
        if !cluster.shutdown() {
            return Err("a replica thread panicked".to_string());
        }
        drop(cluster);
        if let Some(dir) = &data_dir {
            let _ = fs::remove_dir_all(dir);
        }
        return Ok(Run {
            report,
            win,
            setup_s,
            spec,
            verdict,
            fs_type,
        });
    }
    unreachable!("the last set-up returns")
}

fn end_to_end(run: &Run) -> Vec<Metric> {
    vec![
        metric("setup_s", median(&run.setup_s), "s"),
        metric(
            "goodput_rps",
            run.report.completed as f64 / run.win.secs,
            "req/s",
        ),
        metric(
            "cpu_us_per_req",
            ratio(run.win.cpu_ns as f64 / 1e3, run.win.completions as f64),
            "us",
        ),
    ]
}

fn per_layer(
    args: &Args,
    w: &Workload,
    run: &Run,
    text: &mut String,
) -> Result<Vec<Metric>, String> {
    let r = &run.report;
    let win = &run.win;
    let done = win.completions as f64;
    let per_req = |ns: u64| ratio(ns as f64 / 1e3, done);
    let counter = |name: &str| win.end.delta(&win.base, name);
    let cpu = |pick: fn(&str) -> bool| per_req(win.ledger.cpu_ns(pick));
    let mut m = Vec::new();

    // gateway
    let t = r.times;
    m.push(metric(
        "gateway.sign_us",
        ratio(t.submit_ns as f64 / 1e3, t.submits as f64),
        "us",
    ));
    m.push(metric(
        "gateway.reply_check_us",
        ratio(t.on_message_ns as f64 / 1e3, t.completions as f64),
        "us",
    ));
    m.push(metric(
        "gateway.admit_us",
        ratio(t.admit_ns as f64 / 1e3, t.admits as f64),
        "us",
    ));
    m.push(metric(
        "gateway.cpu_us_per_req",
        cpu(|n| n == "bench-gen"),
        "us",
    ));
    m.push(metric("gateway.shed", r.shed as f64, "count"));
    m.push(metric("gateway.timed_out", r.timed_out as f64, "count"));

    // transport
    let frames = counter("sbft_transport_frames_sent");
    let bytes = counter("sbft_transport_bytes_sent");
    m.push(metric(
        "transport.frames_per_req",
        ratio(frames as f64, done),
        "count",
    ));
    m.push(metric(
        "transport.bytes_per_req",
        ratio(bytes as f64, done),
        "B",
    ));
    m.push(metric(
        "transport.io_cpu_us_per_req",
        cpu(is_transport_thread),
        "us",
    ));
    m.push(metric(
        "transport.threads",
        win.transport_threads as f64,
        "count",
    ));
    let verify_batches = counter("sbft_verify_batches");
    if verify_batches == 0 {
        m.push(unexercised("transport.verify_cpu_us_per_req", "us"));
        m.push(unexercised("transport.verify_frames_per_batch", "count"));
    } else {
        m.push(metric(
            "transport.verify_cpu_us_per_req",
            cpu(|n| n.starts_with("sbft-verify")),
            "us",
        ));
        m.push(metric(
            "transport.verify_frames_per_batch",
            ratio(
                counter("sbft_verify_frames_in") as f64,
                verify_batches as f64,
            ),
            "count",
        ));
    }

    // core
    m.push(metric(
        "core.node_cpu_us_per_req",
        cpu(|n| n.starts_with("replica-")),
        "us",
    ));
    m.push(metric(
        "core.reqs_per_block",
        ratio(
            counter("sbft_node_committed_requests") as f64,
            counter("sbft_node_committed_blocks") as f64,
        ),
        "count",
    ));
    let fast = counter("sbft_node_fast_commits");
    let slow = counter("sbft_node_slow_commits");
    m.push(metric(
        "core.fast_path_frac",
        ratio(fast as f64, (fast + slow) as f64),
        "ratio",
    ));
    m.push(metric(
        "core.fast_path_fallbacks",
        counter("sbft_node_fast_path_fallbacks") as f64,
        "count",
    ));
    m.push(metric(
        "core.view_changes_started",
        counter("sbft_node_view_changes_started") as f64,
        "count",
    ));
    m.push(metric(
        "core.view_changes_completed",
        counter("sbft_node_view_changes_completed") as f64,
        "count",
    ));
    m.push(metric(
        "core.state_transfers",
        counter("sbft_node_state_transfers_requested") as f64,
        "count",
    ));
    let mut phase_means = Vec::new();
    for (name, _, _) in PHASE_COMPONENTS {
        let key = format!("sbft_phase_{name}_ns");
        let snaps: Vec<_> = win
            .end
            .0
            .iter()
            .enumerate()
            .filter_map(|(i, s)| {
                let now = s.histogram(&key)?.clone();
                Some(match win.base.0.get(i).and_then(|b| b.histogram(&key)) {
                    Some(before) => now.since(before),
                    None => now,
                })
            })
            .collect();
        let (_, mean, p99) = layers::merge_histograms(&snaps);
        phase_means.push((name, mean / 1e3));
        m.push(metric(&format!("core.phase_{name}_us"), mean / 1e3, "us"));
        m.push(metric(
            &format!("core.phase_{name}_p99_us"),
            p99 as f64 / 1e3,
            "us",
        ));
    }
    if w.crash {
        m.push(metric(
            "core.viewchange_s",
            win.viewchange_ns as f64 / NS,
            "s",
        ));
        m.push(metric("core.catchup_s", win.catchup_ns as f64 / NS, "s"));
    } else {
        m.push(unexercised("core.viewchange_s", "s"));
        m.push(unexercised("core.catchup_s", "s"));
    }

    // statedb, evm, crypto, wire: replays on the workload's own inputs.
    let block = ratio(
        counter("sbft_node_committed_requests") as f64,
        counter("sbft_node_committed_blocks") as f64,
    )
    .round() as usize;
    let inputs = inputs(w, args.seed, args.seconds);
    let exec = layers::replay_execution(
        w.service,
        OpStream::new(inputs.ops, args.seed),
        &inputs.deploys,
        block,
    );
    if exec.failed_txs > 0 {
        return Err(format!(
            "{} replayed EVM transactions failed",
            exec.failed_txs
        ));
    }
    m.push(metric("statedb.exec_us_per_req", exec.us_per_req, "us"));
    if w.service == ServiceKind::Evm {
        m.push(metric("evm.us_per_tx", exec.us_per_tx, "us"));
    } else {
        m.push(unexercised("evm.us_per_tx", "us"));
    }
    let sample = r
        .sample_request
        .as_ref()
        .ok_or("no request was sent in the window")?;
    if w.durable {
        let us = layers::replay_wal(Path::new(OUT_DIR), sample, block)
            .map_err(|e| format!("WAL replay: {e}"))?;
        m.push(metric("statedb.wal_append_us", us, "us"));
        m.push(metric(
            "statedb.wal_fsync_cpu_us_per_req",
            cpu(|n| n == "wal-fsync"),
            "us",
        ));
    } else {
        m.push(unexercised("statedb.wal_append_us", "us"));
        m.push(unexercised("statedb.wal_fsync_cpu_us_per_req", "us"));
    }
    let exec_cpu = win
        .ledger
        .cpu_ns(|n| n.starts_with("sbft-exec") || n.starts_with("sbft-wave"));
    if exec_cpu == 0 {
        m.push(unexercised("statedb.exec_cpu_us_per_req", "us"));
    } else {
        m.push(metric(
            "statedb.exec_cpu_us_per_req",
            per_req(exec_cpu),
            "us",
        ));
    }
    let keys = KeyMaterial::generate(&protocol_for(&run.spec), run.spec.seed)
        .public
        .client_keys(sample.client);
    m.push(metric(
        "crypto.request_verify_us",
        layers::replay_request_verify(sample, &keys),
        "us",
    ));
    m.push(metric(
        "wire.request_codec_us",
        layers::replay_request_codec(sample),
        "us",
    ));

    // telemetry: traced against untraced slices of this run.
    let [(cpu_off, n_off), (cpu_on, n_on)] = win.slices;
    let off = ratio(cpu_off as f64, n_off as f64);
    let on = ratio(cpu_on as f64, n_on as f64);
    m.push(metric(
        "telemetry.trace_overhead_frac",
        ratio(on - off, off),
        "ratio",
    ));

    // bench
    if let Load::Closed = w.load {
        m.push(unexercised("bench.generator_late_ms_p99", "ms"));
    } else {
        let mut late = r.late_ns.clone();
        late.sort_unstable();
        m.push(metric(
            "bench.generator_late_ms_p99",
            quantile(&late, 0.99) as f64 / 1e6,
            "ms",
        ));
    }
    let mut lat: Vec<u64> = r.latencies_ns.iter().map(|l| l.1).collect();
    lat.sort_unstable();
    m.push(metric(
        "latency_p50_ms",
        quantile(&lat, 0.50) as f64 / 1e6,
        "ms",
    ));
    m.push(metric(
        "latency_p99_ms",
        quantile(&lat, 0.99) as f64 / 1e6,
        "ms",
    ));
    m.push(metric(
        "failed_frac",
        ratio(r.failed() as f64, r.attempted as f64),
        "ratio",
    ));
    m.push(metric(
        "peak_rss_mb",
        procfs::peak_rss_kb() as f64 / 1024.0,
        "MB",
    ));
    if w.crash {
        let outage = r.first_after_stop_ns.saturating_sub(win.stop_ns);
        m.push(metric("outage_s", outage as f64 / NS, "s"));
    } else {
        m.push(unexercised("outage_s", "s"));
    }

    // Spans: self times, the budget, and the span file.
    let selfs = layers::self_times(&r.spans);
    let _ = writeln!(
        text,
        "spans (traced slices): {} kept, {} over the cap",
        r.spans.len(),
        r.spans_dropped
    );
    for (name, (n, total, own)) in &selfs {
        let _ = writeln!(
            text,
            "  {name:<24} n={n:<8} mean {total:>9.1} us  self {own:>9.1} us"
        );
    }
    let e2e = selfs.get("request").map_or(0.0, |s| s.1);
    let self_mean = |name: &str| selfs.get(name).map_or(0.0, |s| s.1);
    let mut rows: Vec<(String, f64)> = vec![
        (
            "bench: wait to send (late, queued)".to_string(),
            self_mean("bench.wait"),
        ),
        (
            "gateway: sign (SessionMux::submit)".to_string(),
            self_mean("gateway.sign"),
        ),
        ("gateway: admit".to_string(), self_mean("gateway.admit")),
    ];
    for (name, mean) in &phase_means {
        rows.push((format!("core: phase {name}"), *mean));
    }
    rows.push((
        "gateway: reply check".to_string(),
        self_mean("gateway.reply_check"),
    ));
    if !w.crash {
        // With a crash the phases hold outage queueing; no budget then.
        text.push_str(&layers::budget_table(e2e, &rows));
    }
    let path = Path::new(OUT_DIR).join(format!("spans-{}-{}.tsv", args.workload, args.seed));
    layers::write_spans(&path, &r.spans).map_err(|e| format!("writing spans: {e}"))?;
    let _ = writeln!(text, "spans written to {}", path.display());
    Ok(m)
}

fn render_metrics(metrics: &[Metric]) -> String {
    let fields: Vec<(String, String)> = metrics
        .iter()
        .map(|m| {
            (
                m.name.clone(),
                object(&[
                    ("value".to_string(), num(m.value)),
                    ("unit".to_string(), string(m.unit)),
                ]),
            )
        })
        .collect();
    object(&fields)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let w = match workload(&args.workload) {
        Ok(w) => w,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let run = match run(&args, &w) {
        Ok(run) => run,
        Err(e) => {
            eprintln!("perfbench: {} failed: {e}", args.workload);
            return ExitCode::FAILURE;
        }
    };
    let r = &run.report;
    let verdict_ok = run.verdict.is_ok();
    let mut text = String::new();
    let _ = writeln!(
        text,
        "workload {} seed {} window {:.3}s: attempted {} completed {} failed {} \
         (shed {} timed-out {} no-session {} debt {} unfinished {}), retries {}",
        args.workload,
        args.seed,
        run.win.secs,
        r.attempted,
        r.completed,
        r.failed(),
        r.shed,
        r.timed_out,
        r.exhausted,
        r.debt,
        r.unfinished,
        r.retries,
    );
    match &run.verdict {
        Ok(v) => {
            let _ = writeln!(text, "judge: ok, {v}");
        }
        Err(e) => eprintln!("perfbench: CORRECTNESS VIOLATION: {e}"),
    }
    let counter = |name: &str| run.win.end.delta(&run.win.base, name);
    let record = object(&[
        ("git_rev".to_string(), string(&git_rev())),
        (
            "nproc".to_string(),
            num(thread::available_parallelism().map_or(0, |n| n.get()) as f64),
        ),
        ("crypto".to_string(), string("simulated")),
        (
            "verify_threads".to_string(),
            num(run.spec.resolved_verify_threads() as f64),
        ),
        (
            "exec_threads".to_string(),
            num(run.spec.resolved_exec_threads() as f64),
        ),
        ("seed".to_string(), num(args.seed as f64)),
        ("workload".to_string(), string(&args.workload)),
        ("data_dir_fs".to_string(), string(&run.fs_type)),
        (
            "view_changes_started".to_string(),
            num(counter("sbft_node_view_changes_started") as f64),
        ),
        (
            "view_changes_completed".to_string(),
            num(counter("sbft_node_view_changes_completed") as f64),
        ),
        (
            "state_transfers".to_string(),
            num(counter("sbft_node_state_transfers_requested") as f64),
        ),
        ("timed_out".to_string(), num(r.timed_out as f64)),
        (
            "setup_s_samples".to_string(),
            format!(
                "[{}]",
                run.setup_s
                    .iter()
                    .map(|s| num(*s))
                    .collect::<Vec<_>>()
                    .join(", ")
            ),
        ),
        (
            "latency_samples".to_string(),
            num(r.latencies_ns.len() as f64),
        ),
    ]);
    let _ = writeln!(text, "record {record}");
    let metrics = if args.trace {
        match per_layer(&args, &w, &run, &mut text) {
            Ok(m) => m,
            Err(e) => {
                print!("{text}");
                eprintln!("perfbench: {} failed: {e}", args.workload);
                return ExitCode::FAILURE;
            }
        }
    } else {
        end_to_end(&run)
    };
    for m in &metrics {
        let _ = writeln!(
            text,
            "  {:<36} {:>14.4} {:<6} {}",
            m.name, m.value, m.unit, m.note
        );
    }
    print!("{text}");
    let correct = verdict_ok && r.attempted > 0;
    println!(
        "{}",
        object(&[
            ("correct".to_string(), correct.to_string()),
            ("attempted".to_string(), r.attempted.to_string()),
            ("failed".to_string(), r.failed().to_string()),
            ("metrics".to_string(), render_metrics(&metrics)),
        ])
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
