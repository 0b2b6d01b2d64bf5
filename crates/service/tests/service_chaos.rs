//! The tentpole end-to-end test: real clients over real sockets against
//! a replica group being crashed, partitioned and control-plane-lossy —
//! and the client-visible contract holds anyway.
//!
//! Three client threads run disjoint-key workloads (the oracle's
//! single-writer-per-key discipline) while the main thread drives a
//! declarative [`FaultPlan`] against the service: a crash, a two-sided
//! partition, a control-frame loss window, a checkpoint corruption and
//! a crash-during-recovery. Afterwards the service oracle audits what
//! the clients witnessed against the replicas' final state, and the
//! protocol oracle audits the engines underneath.

use std::time::Duration;

use dg_core::{DgConfig, EngineView, ProcessId};
use dg_harness::service_oracle::{self, ServiceJournal};
use dg_harness::{oracle, FaultPlan};
use dg_service::{chaos, ClientOptions, ServiceClient, ServiceCluster, SvcError};

const N: usize = 4;
const CLIENTS: u64 = 3;
const OPS_PER_CLIENT: u64 = 30;

fn config() -> DgConfig {
    DgConfig::serving()
}

/// One client's workload: interleaved puts, reads and deletes on its
/// own keys, spread across every owner replica. Returns the journal
/// plus (acked, deadlined) counts.
fn client_workload(id: u64, fronts: Vec<std::net::SocketAddr>) -> (ServiceJournal, u64, u64) {
    let mut client = ServiceClient::new(
        id,
        fronts,
        ClientOptions {
            seed: 0xC11E ^ id,
            ..ClientOptions::default()
        },
    );
    let mut acked = 0u64;
    let mut deadlined = 0u64;
    for i in 0..OPS_PER_CLIENT {
        // Keys `id + N*j`: client-disjoint, owner = every replica in turn.
        let key = (id + (i % 5) * CLIENTS) as u16;
        let result = match i % 5 {
            4 if i % 10 == 9 => client.del(key),
            0 | 2 | 4 => client.put(key, id * 1_000 + i),
            _ => client.get(key).map(|_| ()),
        };
        match result {
            Ok(()) => acked += 1,
            Err(SvcError::Deadline) => deadlined += 1,
            Err(SvcError::Protocol) => panic!("client {id}: protocol violation"),
        }
    }
    (client.into_journal(), acked, deadlined)
}

#[test]
fn served_store_keeps_its_promises_under_chaos() {
    let svc = ServiceCluster::launch(N, config(), Some(0x5EED)).expect("launch service");
    let fronts = svc.fronts();

    let clients: Vec<_> = (0..CLIENTS)
        .map(|id| {
            let fronts = fronts.clone();
            std::thread::spawn(move || client_workload(id, fronts))
        })
        .collect();

    // The fault schedule, interpreted on the wall clock (microseconds):
    // a control-loss window over a crash, then a partition, then a
    // checkpoint corruption and a crash-during-recovery with the
    // recovery checkpoint damaged.
    let plan = FaultPlan::none()
        .with_drop_window(100_000, 700_000, 0.20)
        .with_crash(ProcessId(1), 200_000)
        .with_partition(vec![0, 0, 1, 1], 800_000, 1_000_000)
        .with_corruption(ProcessId(2), 1_100_000)
        .with_crash_during_recovery(ProcessId(3), 1_200_000, 200_000, true);
    chaos::drive(&svc, &plan);

    let mut journal = ServiceJournal::default();
    let mut total_acked = 0u64;
    let mut total_deadlined = 0u64;
    for handle in clients {
        let (j, acked, deadlined) = handle.join().expect("client thread");
        journal.acked_writes.extend(j.acked_writes);
        journal.unacked_writes.extend(j.unacked_writes);
        journal.observed_gets.extend(j.observed_gets);
        journal.responses.extend(j.responses);
        total_acked += acked;
        total_deadlined += deadlined;
    }

    // Goodput through the fire: the overwhelming majority of operations
    // must complete — chaos may cost availability, never correctness.
    assert!(
        total_acked >= CLIENTS * OPS_PER_CLIENT * 2 / 3,
        "only {total_acked}/{} ops acked ({total_deadlined} deadlined)",
        CLIENTS * OPS_PER_CLIENT
    );
    assert!(
        !journal.acked_writes.is_empty(),
        "no write was ever acknowledged"
    );

    assert!(
        svc.quiesce(Duration::from_secs(60)),
        "service failed to quiesce after the chaos"
    );
    let (engines, replicas) = svc.shutdown();

    // The client-visible contract.
    let mut violations = Vec::new();
    service_oracle::check_service(&journal, &replicas, &mut violations);
    assert!(
        violations.is_empty(),
        "service contract violated: {violations:?}"
    );

    // The protocol underneath.
    let views: Vec<&dyn EngineView> = engines.iter().map(|e| e as &dyn EngineView).collect();
    let mut proto_violations = Vec::new();
    oracle::check_views(&views, &mut proto_violations);
    assert!(
        proto_violations.is_empty(),
        "protocol oracle violations: {proto_violations:?}"
    );

    // The chaos actually happened: three scheduled crashes recovered —
    // P1's, plus P3's crash and re-crash-during-recovery (the second
    // with a damaged recovery checkpoint).
    let restarts: u64 = engines.iter().map(|e| EngineView::stats(e).restarts).sum();
    assert_eq!(restarts, 3, "every injected crash must have recovered");
}

#[test]
fn service_works_and_degrades_gracefully_without_fault_proxies() {
    // Direct links, one crash: reads and writes to live owners keep
    // working while the crashed owner's keys stall-and-recover.
    let svc = ServiceCluster::launch(3, config(), None).expect("launch service");
    let mut client = ServiceClient::new(9, svc.fronts(), ClientOptions::default());

    client.put(0, 11).expect("put key 0");
    client.put(1, 22).expect("put key 1");
    assert_eq!(client.get(0).expect("get key 0"), Some(11));

    svc.crash(ProcessId(2), Duration::from_millis(300));
    // Key 1 is owned by node 1 (live): unaffected by node 2's crash.
    assert_eq!(client.get(1).expect("get live key"), Some(22));
    // Key 2 is owned by the crashed node: the write must still land
    // (parked or retried until the owner is back), never be lost.
    client.put(2, 33).expect("put to crashed owner");
    assert_eq!(client.get(2).expect("get recovered key"), Some(33));

    assert!(svc.quiesce(Duration::from_secs(45)), "failed to quiesce");
    let (engines, replicas) = svc.shutdown();
    let mut violations = Vec::new();
    service_oracle::check_service(client.journal(), &replicas, &mut violations);
    assert!(
        violations.is_empty(),
        "service contract violated: {violations:?}"
    );
    let restarts: u64 = engines.iter().map(|e| EngineView::stats(e).restarts).sum();
    assert_eq!(restarts, 1, "the crashed owner must have recovered");
}
