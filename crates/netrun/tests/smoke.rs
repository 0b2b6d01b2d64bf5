//! Real-network crash-recovery smoke test.
//!
//! Four processes over real TCP sockets survive two injected crashes;
//! the recovered engines must (a) pass the same consistency oracle that
//! checks simulated runs, and (b) converge to the same application
//! digests and committed-output sequences as a seeded discrete-event
//! run of the identical workload and crash count.

mod common;

use std::time::Duration;

use common::{expected_outputs, Ring};
use dg_core::{Application, DgConfig, EngineView, ProcessId};
use dg_harness::{oracle, run_dg, FaultPlan};
use dg_netrun::Cluster;
use dg_simnet::NetConfig;

const N: usize = 4;
const LIMIT: u64 = 3_000;
const COOLDOWN: u64 = 800;

fn config() -> DgConfig {
    DgConfig::serving()
}

#[test]
fn tcp_cluster_survives_two_crashes_and_matches_simulation() {
    // --- Real run: wall-clock, OS threads, TCP frames. ---------------
    let cluster = Cluster::launch(N, |_| Ring::new(LIMIT, COOLDOWN), config())
        .expect("bind loopback listeners");
    std::thread::sleep(Duration::from_millis(30));
    cluster.crash(ProcessId(1), Duration::from_millis(40));
    std::thread::sleep(Duration::from_millis(60));
    cluster.crash(ProcessId(3), Duration::from_millis(50));

    assert!(
        cluster.run_until_quiescent(Duration::from_secs(45)),
        "real-network run failed to quiesce"
    );
    // Crashes here are process-level (the sockets stay open and frames
    // park), so the wire itself is lossless: the mesh must not have
    // dropped a single frame.
    for (i, status) in cluster.statuses().iter().enumerate() {
        assert_eq!(
            status.frames_dropped, 0,
            "node {i} dropped frames on a lossless network"
        );
    }
    let engines = cluster.shutdown();

    // The oracle that validates simulated runs validates this one.
    let views: Vec<&dyn EngineView> = engines.iter().map(|e| e as &dyn EngineView).collect();
    let mut violations = Vec::new();
    oracle::check_views(&views, &mut violations);
    assert!(violations.is_empty(), "oracle violations: {violations:?}");

    let restarts: u64 = engines.iter().map(|e| EngineView::stats(e).restarts).sum();
    assert_eq!(restarts, 2, "both injected crashes must have recovered");

    // --- Simulated run: same workload, same crash count, seeded. -----
    let plan = FaultPlan::single_crash(ProcessId(1), 40_000).with_crash(ProcessId(3), 140_000);
    let out = run_dg(
        N,
        |_| Ring::new(LIMIT, COOLDOWN),
        config(),
        NetConfig::with_seed(42),
        &plan,
    );
    assert!(out.stats.quiescent, "simulated run failed to quiesce");
    oracle::check(&out).expect("simulated run violates the oracle");

    // --- Convergence: identical final state, runtime-independent. ----
    for (engine, actor) in engines.iter().zip(out.sim.actors()) {
        let p = EngineView::id(engine);
        assert_eq!(
            engine.app().digest(),
            actor.app().digest(),
            "{p}: app digest diverged between TCP and simulated run"
        );
        assert_eq!(
            engine.app().last,
            actor.app().last,
            "{p}: final ring position diverged"
        );
        let real: Vec<u64> = engine.committed_outputs().copied().collect();
        let simulated: Vec<u64> = actor.committed_outputs().copied().collect();
        if real != simulated {
            let i = real
                .iter()
                .zip(simulated.iter())
                .position(|(a, b)| a != b)
                .unwrap_or(real.len().min(simulated.len()));
            let lo = i.saturating_sub(3);
            panic!(
                "{p}: committed outputs diverged at index {i}: real(len {}) {:?} vs sim(len {}) {:?}",
                real.len(),
                &real[lo..(i + 4).min(real.len())],
                simulated.len(),
                &simulated[lo..(i + 4).min(simulated.len())],
            );
        }
        assert_eq!(
            real,
            expected_outputs(p, N, LIMIT),
            "{p}: committed outputs are not the expected token values"
        );
    }
}
