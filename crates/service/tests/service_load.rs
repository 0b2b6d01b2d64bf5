//! The batched front door under pressure: deep per-connection
//! pipelines across a crash, admission-control shedding under open-loop
//! overload, and the slow-consumer budget — with the service oracle
//! auditing every run.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::atomic::Ordering;
use std::time::{Duration, Instant};

use dg_apps::{SvcOp, SvcRequest};
use dg_core::{DgConfig, EngineView, ProcessId};
use dg_harness::loadgen::LoadConfig;
use dg_harness::service_oracle::{self, ServiceJournal};
use dg_service::loadrun::{run_load, LoadOptions};
use dg_service::{wire, ClientOptions, ServiceClient, ServiceCluster, ServiceOptions};

fn config() -> DgConfig {
    DgConfig::serving()
}

fn merge(into: &mut ServiceJournal, from: ServiceJournal) {
    into.acked_writes.extend(from.acked_writes);
    into.unacked_writes.extend(from.unacked_writes);
    into.observed_gets.extend(from.observed_gets);
    into.responses.extend(from.responses);
}

/// One session, 64 requests in flight on one connection, a crash and a
/// recovery in the middle — and every request is answered exactly once.
/// This is the test that makes pipelining *safe* rather than merely
/// fast: the session window has to absorb out-of-order retries of a
/// whole pipeline's worth of requests replayed across the restart.
#[test]
fn pipelined_client_is_exactly_once_across_a_crash() {
    let svc = ServiceCluster::launch(3, config(), None).expect("launch service");
    let fronts = svc.fronts();

    let mut cfg = LoadConfig::closed(0xC0FFEE, 1, 600, 64);
    cfg.key_space = 8; // reads exercise every owner; writes hit key 0
    cfg.write_fraction = 0.5;
    let opts = LoadOptions {
        connections: 1,
        attempt_timeout: Duration::from_millis(400),
        deadline: Duration::from_secs(20),
    };
    let loader = std::thread::spawn({
        let fronts = fronts.clone();
        move || run_load(&fronts, &cfg, &opts)
    });

    // Crash the writer's owner mid-run; the pipeline keeps flowing.
    std::thread::sleep(Duration::from_millis(250));
    svc.crash(ProcessId(0), Duration::from_millis(300));
    let out = loader.join().expect("loader thread");

    assert_eq!(out.issued, 600, "every scheduled request must be issued");
    assert_eq!(
        out.acked, 600,
        "every pipelined request must be acknowledged (abandoned {})",
        out.abandoned
    );
    // The front actually saw multi-request batches.
    let batched: u64 = (0..3)
        .map(|i| svc.metrics().front(i).batched.load(Ordering::Relaxed))
        .sum();
    assert!(batched > 0, "no submit batch ever exceeded one request");

    assert!(svc.quiesce(Duration::from_secs(60)), "failed to quiesce");
    let (engines, replicas) = svc.shutdown();
    let mut violations = Vec::new();
    service_oracle::check_service(&out.journal, &replicas, &mut violations);
    assert!(violations.is_empty(), "contract violated: {violations:?}");
    let restarts: u64 = engines.iter().map(|e| EngineView::stats(e).restarts).sum();
    assert_eq!(restarts, 1, "the crashed owner must have recovered");
}

/// Overload a deliberately shallow front: shed requests come back as
/// retryable refusals (never applied), the open-loop driver retries
/// them to completion, and a polite `ServiceClient` riding along gets
/// every operation through transparently.
#[test]
fn load_shed_is_retryable_and_never_applied() {
    let svc = ServiceCluster::launch_opts(
        3,
        config(),
        None,
        ServiceOptions {
            admission_depth: 8,
            ..ServiceOptions::default()
        },
    )
    .expect("launch service");
    let fronts = svc.fronts();

    // A polite client on its own keys, concurrent with the flood.
    let polite = std::thread::spawn({
        let fronts = fronts.clone();
        move || {
            let mut client = ServiceClient::new(9_999, fronts, ClientOptions::default());
            for i in 0..10u64 {
                client.put(200 + i as u16, 7_000 + i).expect("polite put");
            }
            client.into_journal()
        }
    });

    let mut cfg = LoadConfig::open(0x5ED, 500, 4_000, 30_000.0);
    cfg.key_space = 64;
    let out = run_load(
        &fronts,
        &cfg,
        &LoadOptions {
            connections: 4,
            attempt_timeout: Duration::from_millis(300),
            deadline: Duration::from_secs(30),
        },
    );
    let polite_journal = polite.join().expect("polite client");

    assert!(out.shed > 0, "overload never tripped the admission gate");
    assert_eq!(
        out.acked + out.abandoned,
        out.issued,
        "requests must settle as acked or abandoned"
    );
    assert!(
        out.acked >= out.issued * 9 / 10,
        "shed retries should still land almost everything: {} of {}",
        out.acked,
        out.issued
    );

    assert!(svc.quiesce(Duration::from_secs(60)), "failed to quiesce");
    let (_, replicas) = svc.shutdown();
    let mut journal = ServiceJournal::default();
    merge(&mut journal, out.journal);
    merge(&mut journal, polite_journal);
    let mut violations = Vec::new();
    service_oracle::check_service(&journal, &replicas, &mut violations);
    assert!(violations.is_empty(), "contract violated: {violations:?}");
}

/// A client that floods requests but never reads responses blows the
/// buffered-bytes budget and is disconnected; the service stays healthy
/// for everyone else.
#[test]
fn slow_consumers_are_disconnected_within_budget() {
    let svc = ServiceCluster::launch_opts(
        2,
        config(),
        None,
        ServiceOptions {
            slow_budget_bytes: 256,
            ..ServiceOptions::default()
        },
    )
    .expect("launch service");
    let fronts = svc.fronts();

    // 400 pipelined gets in one write; the rogue never reads, so the
    // router's batched response buffers pile up past the budget.
    let mut flood = Vec::new();
    for req in 1..=400u64 {
        flood.extend_from_slice(&wire::encode_request(&SvcRequest {
            client: 77,
            req,
            op: SvcOp::Get { key: 3 },
        }));
    }
    let mut rogue = TcpStream::connect(fronts[0]).expect("connect rogue");
    rogue.set_nodelay(true).expect("nodelay");
    rogue.write_all(&flood).expect("flood");

    // The disconnect shows up in the counters first …
    let deadline = Instant::now() + Duration::from_secs(20);
    loop {
        let drops: u64 = (0..2)
            .map(|i| {
                svc.metrics()
                    .front(i)
                    .slow_disconnects
                    .load(Ordering::Relaxed)
            })
            .sum();
        if drops >= 1 {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "no slow-consumer disconnect was recorded"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
    // … and then on the socket: drain whatever was in flight until the
    // cut surfaces as EOF or a reset.
    rogue
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("timeout");
    let mut sink = [0u8; 4096];
    loop {
        match rogue.read(&mut sink) {
            Ok(0) | Err(_) => break,
            Ok(_) => {}
        }
    }

    // The service is still healthy for a well-behaved client.
    let mut client = ServiceClient::new(5, fronts, ClientOptions::default());
    client.put(10, 42).expect("put after rogue");
    assert_eq!(client.get(10).expect("get after rogue"), Some(42));
    assert!(svc.quiesce(Duration::from_secs(45)), "failed to quiesce");
    let (_, replicas) = svc.shutdown();
    let mut violations = Vec::new();
    service_oracle::check_service(client.journal(), &replicas, &mut violations);
    assert!(violations.is_empty(), "contract violated: {violations:?}");
}
