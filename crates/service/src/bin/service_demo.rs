//! Serve it: a three-replica exactly-once KV store on real sockets,
//! clients hammering it while a replica is killed and restarted —
//! watch goodput dip and recover, then let the oracles audit the run.
//!
//! ```text
//! cargo run --release --bin service_demo
//! ```

use std::time::{Duration, Instant};

use dg_core::{DgConfig, EngineView, ProcessId};
use dg_harness::oracle;
use dg_harness::service_oracle::{self, ServiceJournal};
use dg_service::{ClientOptions, ServiceClient, ServiceCluster, SvcError};

const N: usize = 3;
const CLIENTS: u64 = 4;
const RUN_FOR: Duration = Duration::from_secs(4);
const KILL_AT: Duration = Duration::from_secs(1);
const DOWNTIME: Duration = Duration::from_millis(500);

fn config() -> DgConfig {
    DgConfig::serving()
}

struct ClientOutcome {
    journal: ServiceJournal,
    latencies_us: Vec<u64>,
    acked: u64,
    deadlined: u64,
}

/// Closed-loop client: put/get its own keys as fast as acks come back.
fn run_client(id: u64, fronts: Vec<std::net::SocketAddr>, until: Instant) -> ClientOutcome {
    let mut client = ServiceClient::new(
        id,
        fronts,
        ClientOptions {
            seed: id,
            deadline: Duration::from_secs(10),
            ..ClientOptions::default()
        },
    );
    let mut latencies_us = Vec::new();
    let mut acked = 0u64;
    let mut deadlined = 0u64;
    let mut i = 0u64;
    while Instant::now() < until {
        let key = (id + (i % 4) * CLIENTS) as u16;
        let begin = Instant::now();
        let result = if i % 3 == 2 {
            client.get(key).map(|_| ())
        } else {
            client.put(key, id * 10_000 + i)
        };
        match result {
            Ok(()) => {
                acked += 1;
                latencies_us.push(u64::try_from(begin.elapsed().as_micros()).unwrap_or(u64::MAX));
            }
            Err(SvcError::Deadline) => deadlined += 1,
            Err(SvcError::Protocol) => panic!("client {id}: protocol violation"),
        }
        i += 1;
    }
    ClientOutcome {
        journal: client.into_journal(),
        latencies_us,
        acked,
        deadlined,
    }
}

fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let idx = ((sorted.len() - 1) as f64 * p).round() as usize;
    sorted[idx]
}

fn main() {
    println!("== dg-service demo: {N} replicas, {CLIENTS} clients, kill one mid-run ==");
    let svc = ServiceCluster::launch(N, config(), None).expect("launch service");
    let fronts = svc.fronts();
    for (i, addr) in fronts.iter().enumerate() {
        println!("   front {i}: {addr}");
    }

    let until = Instant::now() + RUN_FOR;
    let clients: Vec<_> = (0..CLIENTS)
        .map(|id| {
            let fronts = fronts.clone();
            std::thread::spawn(move || run_client(id, fronts, until))
        })
        .collect();

    std::thread::sleep(KILL_AT);
    println!(">> killing replica 1 for {DOWNTIME:?} (traffic keeps flowing)");
    svc.crash(ProcessId(1), DOWNTIME);

    let mut journal = ServiceJournal::default();
    let mut latencies = Vec::new();
    let mut acked = 0u64;
    let mut deadlined = 0u64;
    for handle in clients {
        let outcome = handle.join().expect("client thread");
        journal.acked_writes.extend(outcome.journal.acked_writes);
        journal
            .unacked_writes
            .extend(outcome.journal.unacked_writes);
        journal.observed_gets.extend(outcome.journal.observed_gets);
        journal.responses.extend(outcome.journal.responses);
        latencies.extend(outcome.latencies_us);
        acked += outcome.acked;
        deadlined += outcome.deadlined;
    }
    latencies.sort_unstable();
    let goodput = acked as f64 / RUN_FOR.as_secs_f64();
    println!(
        "   {acked} ops acked, {deadlined} deadlined | goodput {goodput:.0} ops/s | \
         p50 {} us, p99 {} us",
        percentile(&latencies, 0.50),
        percentile(&latencies, 0.99),
    );

    print!("   quiescing ... ");
    let quiet = svc.quiesce(Duration::from_secs(60));
    println!("{}", if quiet { "ok" } else { "TIMED OUT" });
    let (engines, replicas) = svc.shutdown();

    let mut violations = Vec::new();
    service_oracle::check_service(&journal, &replicas, &mut violations);
    let views: Vec<&dyn EngineView> = engines.iter().map(|e| e as &dyn EngineView).collect();
    oracle::check_views(&views, &mut violations);
    let restarts: u64 = engines.iter().map(|e| EngineView::stats(e).restarts).sum();

    println!("   restarts: {restarts} (expected 1)");
    let sum = |f: fn(&dg_core::ProcessStats) -> u64| -> u64 {
        engines.iter().map(|e| f(EngineView::stats(e))).sum()
    };
    println!(
        "   log flushes: {} ({} on an idle edge) | stability queries: {} sent, {} answered",
        sum(|s| s.flushes),
        sum(|s| s.idle_flushes),
        sum(|s| s.stability_queries_sent),
        sum(|s| s.stability_replies_sent),
    );
    if violations.is_empty() && quiet && restarts == 1 {
        println!("== PASS: no acked write lost, no phantom read, no duplicate apply ==");
    } else {
        for v in &violations {
            println!("   VIOLATION: {v:?}");
        }
        println!("== FAIL ==");
        std::process::exit(1);
    }
}
