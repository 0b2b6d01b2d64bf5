//! Real-network fault injection: the ring workload survives a lossy,
//! corrupting control plane, a latency spike on every link, a
//! partition, two process crashes and a mass connection reset — and
//! still commits exactly the right outputs.
//!
//! This is the TCP analogue of the simulator's lossy-control-plane runs
//! (experiment E12): the same engine, the same oracle, but the faults
//! happen to live sockets via the per-link proxy layer
//! ([`dg_netrun::faults`]). Loss and corruption target control frames
//! only — the paper assumes reliable application channels, and the
//! reliable-token sublayer is what must mask control loss. The
//! partition stalls rather than drops (as a real partition does to
//! TCP), so application frames are delayed arbitrarily but never lost.

mod common;

use std::time::Duration;

use common::{expected_outputs, Ring};
use dg_core::{DgConfig, EngineView, ProcessId};
use dg_harness::oracle;
use dg_netrun::{Cluster, ClusterOptions, LinkRule};

const N: usize = 4;
const LIMIT: u64 = 800;
const COOLDOWN: u64 = 600;

fn config() -> DgConfig {
    DgConfig::serving()
}

#[test]
fn ring_survives_proxied_network_faults_and_crashes() {
    let opts = ClusterOptions {
        fault_seed: Some(0xD6),
        ..ClusterOptions::default()
    };
    let cluster = Cluster::launch_opts(N, |_| Ring::new(LIMIT, COOLDOWN), config(), opts)
        .expect("bind listeners and proxies");
    let faults = cluster
        .faults()
        .expect("launched with a fault seed")
        .clone();

    // Phase 1: a hostile control plane on every link — all frames
    // delayed, a tenth of the control frames dropped and another tenth
    // corrupted in flight — with a crash in the middle of it.
    faults.set_all(LinkRule {
        blocked: false,
        drop_prob: 0.10,
        corrupt_prob: 0.10,
        delay_us: 200,
        control_only: true,
    });
    std::thread::sleep(Duration::from_millis(150));
    cluster.crash(ProcessId(2), Duration::from_millis(40));
    std::thread::sleep(Duration::from_millis(200));

    // Phase 2: partition {0,1} | {2,3}; the ring stalls at the cut and
    // resumes when the partition heals.
    faults.partition(&[0, 0, 1, 1]);
    std::thread::sleep(Duration::from_millis(150));
    faults.heal();

    faults.clear();
    assert!(
        cluster.run_until_quiescent(Duration::from_secs(60)),
        "faulted run failed to quiesce after healing"
    );

    let stats = faults.stats();
    assert!(stats.frames_delayed > 0, "no frame saw the latency spike");
    assert!(stats.frames_dropped > 0, "10% control loss dropped nothing");
    assert!(stats.frames_corrupted > 0, "no frame got a byte flipped");
    assert!(stats.frames_blocked > 0, "the partition stalled nothing");
    let corrupt_seen: u64 = cluster.statuses().iter().map(|s| s.frames_corrupt).sum();
    assert!(
        corrupt_seen > 0,
        "flipped bytes must surface as detected (checksummed) corruption"
    );

    // Phase 3: with the ring quiesced, reset every live connection and
    // crash another node — recovery must rebuild the mesh from scratch.
    faults.sever_connections();
    cluster.crash(ProcessId(1), Duration::from_millis(40));
    assert!(
        cluster.run_until_quiescent(Duration::from_secs(45)),
        "recovery after the connection reset failed to quiesce"
    );
    assert!(
        faults.stats().connections_severed > 0,
        "no forwarder noticed the reset"
    );

    let engines = cluster.shutdown();
    let views: Vec<&dyn EngineView> = engines.iter().map(|e| e as &dyn EngineView).collect();
    let mut violations = Vec::new();
    oracle::check_views(&views, &mut violations);
    assert!(violations.is_empty(), "oracle violations: {violations:?}");
    let restarts: u64 = engines.iter().map(|e| EngineView::stats(e).restarts).sum();
    assert_eq!(restarts, 2, "both injected crashes must have recovered");
    for engine in &engines {
        let p = EngineView::id(engine);
        let committed: Vec<u64> = engine.committed_outputs().copied().collect();
        assert_eq!(
            committed,
            expected_outputs(p, N, LIMIT),
            "{p}: committed outputs diverged under injected network faults"
        );
    }
}
