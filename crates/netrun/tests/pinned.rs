//! Crash-recovery over TCP with nodes pinned to a thread pool.
//!
//! Same shape as the smoke test, but the six processes share two OS
//! threads ([`RunConfig::node_threads`]): correctness must not depend on
//! one-thread-per-node scheduling, and a co-hosted node crashing must
//! not take its thread-mates down with it.

mod common;

use std::time::Duration;

use common::{expected_outputs, Ring};
use dg_core::{DgConfig, EngineView, ProcessId};
use dg_harness::oracle;
use dg_netrun::{Cluster, RunConfig};

const N: usize = 6;
const LIMIT: u64 = 1_200;
const COOLDOWN: u64 = 600;

#[test]
fn pinned_cluster_survives_a_crash() {
    let config = DgConfig::serving();
    let run_config = RunConfig {
        node_threads: Some(2),
        ..RunConfig::default()
    };
    let cluster = Cluster::launch_with(N, |_| Ring::new(LIMIT, COOLDOWN), config, run_config)
        .expect("bind loopback listeners");
    std::thread::sleep(Duration::from_millis(30));
    // Crash a node that shares its thread with two others.
    cluster.crash(ProcessId(2), Duration::from_millis(40));

    assert!(
        cluster.run_until_quiescent(Duration::from_secs(45)),
        "pinned run failed to quiesce"
    );
    for (i, status) in cluster.statuses().iter().enumerate() {
        assert_eq!(
            status.frames_dropped, 0,
            "node {i} dropped frames on a lossless network"
        );
    }
    let engines = cluster.shutdown();
    assert_eq!(engines.len(), N);

    let views: Vec<&dyn EngineView> = engines.iter().map(|e| e as &dyn EngineView).collect();
    let mut violations = Vec::new();
    oracle::check_views(&views, &mut violations);
    assert!(violations.is_empty(), "oracle violations: {violations:?}");

    let restarts: u64 = engines.iter().map(|e| EngineView::stats(e).restarts).sum();
    assert_eq!(restarts, 1, "the injected crash must have recovered");

    for engine in &engines {
        let p = EngineView::id(engine);
        let committed: Vec<u64> = engine.committed_outputs().copied().collect();
        assert_eq!(
            committed,
            expected_outputs(p, N, LIMIT),
            "{p}: committed outputs diverged under thread pinning"
        );
    }
}

/// `shutdown()` on a cluster that is still busy must return promptly:
/// the first node thread to stop takes its listeners with it, and the
/// other thread's sends to them then fail slowly enough (connect
/// retries) that its re-arming ticks would keep it from ever reading its
/// own `Stop` event.
#[test]
fn shutdown_of_a_busy_pinned_cluster_returns() {
    const N: usize = 8;
    let run_config = RunConfig {
        node_threads: Some(2),
        ..RunConfig::default()
    };
    let cluster = Cluster::launch_with(
        N,
        |_| Ring::new(1_000_000, 0),
        DgConfig::serving(),
        run_config,
    )
    .expect("bind loopback listeners");
    // 512 extra ring tokens: every node always has sends in flight.
    for i in 0..512u16 {
        let via = ProcessId(i % N as u16);
        cluster.app_send(via, ProcessId((via.0 + 1) % N as u16), 1);
    }
    std::thread::sleep(Duration::from_millis(100));

    let (done_tx, done_rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        let _ = done_tx.send(cluster.shutdown().len());
    });
    let engines = done_rx
        .recv_timeout(Duration::from_secs(2))
        .expect("shutdown of a busy cluster did not return within 2 s");
    assert_eq!(engines, N);
}
