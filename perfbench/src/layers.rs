//! Per-layer figures the traced run derives without touching the
//! program: replays of the workload's own inputs through public library
//! functions, self times from the generator's spans, merged phase
//! histograms from the replicas' `PhaseTracer`s, and the latency budget.

use std::collections::{BTreeMap, HashMap};
use std::fmt::Write as _;
use std::fs;
use std::hint::black_box;
use std::io::{self, Write as _};
use std::path::Path;
use std::time::{Duration, Instant};

use sbft::core::{ClientRequest, SbftMsg};
use sbft::crypto::KeyPair;
use sbft::evm::{EvmService, Transaction, TxReceipt};
use sbft::statedb::{FsyncPolicy, KvService, Service, Wal};
use sbft::telemetry::HistogramSnapshot;
use sbft::types::SeqNum;
use sbft::wire::Wire;

use crate::cluster::ServiceKind;
use crate::gen::{OpStream, SpanRec};
use crate::stats::{median, ratio};

/// Wall time each replay may spend.
const REPLAY_BUDGET: Duration = Duration::from_millis(1500);

/// Runs `op` in rounds of `iters` until the budget is spent; the median
/// per-call microseconds over the rounds.
fn time_per_call(iters: u32, budget: Duration, mut op: impl FnMut()) -> f64 {
    let started = Instant::now();
    let mut rounds = Vec::new();
    while rounds.len() < 5 || (started.elapsed() < budget && rounds.len() < 200) {
        let t = Instant::now();
        for _ in 0..iters {
            op();
        }
        rounds.push(t.elapsed().as_secs_f64() * 1e6 / f64::from(iters));
    }
    median(&rounds)
}

/// Execution replay: the workload's own operations, in blocks of the size
/// the cluster committed, through `Service::execute_block` on a fresh
/// service (deploys first, untimed).
pub struct ExecReplay {
    pub us_per_req: f64,
    /// EVM only: microseconds per transaction inside the batches.
    pub us_per_tx: f64,
    /// EVM only: transactions whose receipt reports a failure.
    pub failed_txs: u64,
}

pub fn replay_execution(
    service: ServiceKind,
    mut ops: OpStream,
    deploys: &[Vec<u8>],
    block: usize,
) -> ExecReplay {
    let mut svc: Box<dyn Service> = match service {
        ServiceKind::Kv => Box::new(KvService::new()),
        ServiceKind::Evm => Box::new(EvmService::new()),
    };
    let mut seq = 0u64;
    for op in deploys {
        seq += 1;
        svc.execute_block(SeqNum::new(seq), std::slice::from_ref(op));
    }
    let block = block.max(1);
    let mut busy = Duration::ZERO;
    let (mut reqs, mut txs, mut failed_txs) = (0u64, 0u64, 0u64);
    let started = Instant::now();
    while started.elapsed() < REPLAY_BUDGET {
        let batch: Vec<Vec<u8>> = (0..block).map(|_| ops.next_op()).collect();
        seq += 1;
        let t = Instant::now();
        let out = svc.execute_block(SeqNum::new(seq), black_box(&batch));
        busy += t.elapsed();
        reqs += batch.len() as u64;
        if service == ServiceKind::Evm {
            for (op, result) in batch.iter().zip(&out.results) {
                if let Ok(Transaction::Batch(list)) = Transaction::from_wire_bytes(op) {
                    txs += list.len() as u64;
                }
                match TxReceipt::from_bytes(result) {
                    Some(TxReceipt::Success(summary)) if summary.len() == 8 => {
                        let ok = u32::from_le_bytes(summary[..4].try_into().expect("4 bytes"));
                        let total = u32::from_le_bytes(summary[4..].try_into().expect("4 bytes"));
                        failed_txs += u64::from(total.saturating_sub(ok));
                    }
                    _ => failed_txs += 1,
                }
            }
        }
        if seq.is_multiple_of(64) {
            svc.garbage_collect(SeqNum::new(seq));
        }
    }
    let us = busy.as_secs_f64() * 1e6;
    ExecReplay {
        us_per_req: ratio(us, reqs as f64),
        us_per_tx: ratio(us, txs as f64),
        failed_txs,
    }
}

/// Microseconds per `Wal::append` at `batch:8`, appending block records
/// the size of `block` copies of the workload's request, in `dir`.
pub fn replay_wal(dir: &Path, sample: &ClientRequest, block: usize) -> io::Result<f64> {
    let path = dir.join(format!("wal-replay-{}.log", std::process::id()));
    let _ = fs::remove_file(&path);
    let one = SbftMsg::Request(sample.clone()).to_wire_bytes();
    let payload: Vec<u8> = one.repeat(block.max(1));
    let (mut wal, _) = Wal::open(&path, FsyncPolicy::Batch(8))?;
    let mut seq = 0u64;
    let mut failure = None;
    let us = time_per_call(64, REPLAY_BUDGET, || {
        seq += 1;
        if let Err(e) = wal.append(seq, black_box(&payload)) {
            failure.get_or_insert(e);
        }
    });
    drop(wal);
    fs::remove_file(&path)?;
    match failure {
        Some(e) => Err(e),
        None => Ok(us),
    }
}

/// Microseconds per `ClientRequest::verify` of the workload's request.
pub fn replay_request_verify(sample: &ClientRequest, keys: &KeyPair) -> f64 {
    assert!(sample.verify(keys), "the workload's request must verify");
    time_per_call(256, REPLAY_BUDGET / 3, || {
        black_box(black_box(sample).verify(keys));
    })
}

/// Microseconds to encode and decode the workload's request message.
pub fn replay_request_codec(sample: &ClientRequest) -> f64 {
    let msg = SbftMsg::Request(sample.clone());
    time_per_call(256, REPLAY_BUDGET / 3, || {
        let bytes = black_box(&msg).to_wire_bytes();
        black_box(SbftMsg::from_wire_bytes(&bytes).expect("round trip"));
    })
}

/// Count, mean duration and mean self time (duration minus the child
/// spans of the same request) per span name, in microseconds.
pub fn self_times(spans: &[SpanRec]) -> BTreeMap<&'static str, (u64, f64, f64)> {
    let mut children: HashMap<(u32, u64), u64> = HashMap::new();
    for s in spans.iter().filter(|s| s.parent.is_some()) {
        *children.entry((s.client, s.timestamp)).or_default() += s.end_ns - s.start_ns;
    }
    let mut acc: BTreeMap<&'static str, (u64, u64, u64)> = BTreeMap::new();
    for s in spans {
        let total = s.end_ns.saturating_sub(s.start_ns);
        let own = if s.parent.is_none() {
            total.saturating_sub(children.get(&(s.client, s.timestamp)).copied().unwrap_or(0))
        } else {
            total
        };
        let e = acc.entry(s.name).or_default();
        e.0 += 1;
        e.1 += total;
        e.2 += own;
    }
    acc.into_iter()
        .map(|(name, (n, total, own))| {
            (
                name,
                (
                    n,
                    total as f64 / n as f64 / 1e3,
                    own as f64 / n as f64 / 1e3,
                ),
            )
        })
        .collect()
}

/// Writes the spans as tab-separated lines.
pub fn write_spans(path: &Path, spans: &[SpanRec]) -> io::Result<()> {
    let mut out = io::BufWriter::new(fs::File::create(path)?);
    writeln!(out, "name\tparent\tclient\ttimestamp\tstart_ns\tend_ns")?;
    for s in spans {
        writeln!(
            out,
            "{}\t{}\t{}\t{}\t{}\t{}",
            s.name,
            s.parent.unwrap_or("-"),
            s.client,
            s.timestamp,
            s.start_ns,
            s.end_ns
        )?;
    }
    out.flush()
}

/// Several replicas' snapshots of one histogram, merged: `(count, mean,
/// p99)`. Buckets share bounds, so merging sums counts per bound.
pub fn merge_histograms(snaps: &[HistogramSnapshot]) -> (u64, f64, u64) {
    let mut buckets: BTreeMap<u64, u64> = BTreeMap::new();
    let (mut count, mut sum) = (0u64, 0u64);
    for snap in snaps {
        count += snap.count();
        sum += snap.sum();
        let mut prev = 0;
        for (bound, cumulative) in snap.cumulative() {
            *buckets.entry(bound).or_default() += cumulative - prev;
            prev = cumulative;
        }
    }
    let rank = ((0.99 * count as f64).ceil() as u64).max(1);
    let mut seen = 0;
    let mut p99 = 0;
    for (bound, n) in buckets {
        seen += n;
        if seen >= rank {
            p99 = bound;
            break;
        }
    }
    (count, ratio(sum as f64, count as f64), p99)
}

/// Renders the latency budget: each row's mean microseconds and its
/// share of the mean end-to-end latency, then the unattributed rest.
pub fn budget_table(e2e_us: f64, rows: &[(String, f64)]) -> String {
    let mut text = String::new();
    let _ = writeln!(text, "latency budget (means, traced slices)");
    let _ = writeln!(text, "  {:<34} {:>10} {:>7}", "row", "us", "share");
    let mut attributed = 0.0;
    for (name, us) in rows {
        attributed += us;
        let _ = writeln!(
            text,
            "  {:<34} {:>10.1} {:>6.1}%",
            name,
            us,
            100.0 * ratio(*us, e2e_us)
        );
    }
    let rest = e2e_us - attributed;
    let _ = writeln!(
        text,
        "  {:<34} {:>10.1} {:>6.1}%",
        "wire transit + unattributed",
        rest,
        100.0 * ratio(rest, e2e_us)
    );
    let _ = writeln!(text, "  {:<34} {:>10.1}", "end-to-end mean", e2e_us);
    let _ = writeln!(
        text,
        "  (phases are per-replica means; the rows are not claimed to reconcile)"
    );
    text
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<&'static str>, a: u64, b: u64) -> SpanRec {
        SpanRec {
            name,
            parent,
            client: 7,
            timestamp: 1,
            start_ns: a,
            end_ns: b,
        }
    }

    #[test]
    fn self_time_subtracts_children_of_the_same_request() {
        let spans = [
            span("request", None, 0, 10_000),
            span("gateway.sign", Some("request"), 0, 2_000),
            span("gateway.reply_check", Some("request"), 9_000, 10_000),
        ];
        let t = self_times(&spans);
        assert_eq!(t["request"], (1, 10.0, 7.0));
        assert_eq!(t["gateway.sign"], (1, 2.0, 2.0));
    }

    #[test]
    fn budget_remainder_is_what_rows_leave() {
        let rows = [("a".to_string(), 30.0), ("b".to_string(), 20.0)];
        let table = budget_table(100.0, &rows);
        let rest = table
            .lines()
            .find(|l| l.contains("wire transit + unattributed"))
            .expect("remainder row");
        assert!(rest.ends_with("50.0   50.0%"), "{rest}");
    }
}
