//! Thread budget of the TCP transport: a node's transport runs at most
//! one thread of its own (the writer); reads happen on whichever thread
//! consumes frames.
//!
//! A binary of its own, so that no test running in parallel adds threads
//! to the `/proc/self/task` count.

use std::fs;
use std::net::TcpListener;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::Duration;

use sbft::core::ClientNode;
use sbft::deploy::{client_runtime, loopback_config, replica_runtime, ClientWorkload};
use sbft::transport::ClusterSpec;

/// Live threads of this process whose name marks them as transport
/// threads (writer, and the accept/reader threads of older designs).
fn transport_threads() -> Vec<String> {
    fs::read_dir("/proc/self/task")
        .expect("procfs lists this process's threads")
        .filter_map(|task| fs::read_to_string(task.ok()?.path().join("comm")).ok())
        .map(|name| name.trim_end().to_string())
        .filter(|name| {
            name.starts_with("sbft-writer")
                || name.starts_with("sbft-accept")
                || name.starts_with("sbft-reader")
        })
        .collect()
}

#[test]
fn loopback_cluster_runs_one_transport_thread_per_node() {
    const REPLICAS: usize = 4;
    const REQUESTS: usize = 20;
    let bind = || TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let replica_listeners: Vec<TcpListener> = (0..REPLICAS).map(|_| bind()).collect();
    let client_listener = bind();
    let addr = |l: &TcpListener| l.local_addr().expect("local addr").to_string();
    let replica_addrs: Vec<String> = replica_listeners.iter().map(addr).collect();
    let config = format!(
        "verify_threads 1\nexec_threads 1\n{}",
        loopback_config(1, 0, 0x7417, &replica_addrs, &[addr(&client_listener)])
    );
    let spec = ClusterSpec::parse(&config).expect("generated config parses");

    let done = Arc::new(AtomicBool::new(false));
    let replicas: Vec<_> = replica_listeners
        .into_iter()
        .enumerate()
        .map(|(r, listener)| {
            let spec = spec.clone();
            let done = Arc::clone(&done);
            thread::spawn(move || {
                let mut runtime = replica_runtime(&spec, r, Some(listener)).expect("replica boots");
                while !done.load(Ordering::Acquire) {
                    runtime.poll(Duration::from_millis(20));
                }
            })
        })
        .collect();

    let workload = ClientWorkload {
        requests: REQUESTS,
        ..ClientWorkload::default()
    };
    let mut client =
        client_runtime(&spec, 0, &workload, Some(client_listener)).expect("client boots");
    let finished = client.run_until(Duration::from_secs(60), Duration::from_millis(20), |rt| {
        rt.node_as::<ClientNode>().expect("client node").completed >= REQUESTS as u64
    });
    // Counted while all five nodes are up and connected.
    let threads = transport_threads();

    done.store(true, Ordering::Release);
    for replica in replicas {
        replica.join().expect("replica thread exits cleanly");
    }
    assert!(finished, "the cluster must commit the workload");
    assert!(
        (1..=REPLICAS + 1).contains(&threads.len()),
        "at most one transport thread per node, found {threads:?}"
    );
}
