//! Four real processes (OS threads + TCP on loopback) run the
//! Damani–Garg protocol; two of them crash mid-run and recover
//! asynchronously. The exact same engine runs under the discrete-event
//! simulator in the rest of this workspace.
//!
//! Run with:
//!
//! ```text
//! cargo run --example netrun_demo -p dg-netrun
//! ```

use std::time::Duration;

use dg_core::{Application, DgConfig, Effects, EngineView, ProcessId};
use dg_netrun::Cluster;

/// A token ring: process 0 injects a counter, every receiver records it,
/// emits it as an external output, and forwards `counter + 1` around the
/// ring until `limit` laps-worth of hops have happened.
#[derive(Clone)]
struct Ring {
    limit: u64,
    last: u64,
    digest: u64,
}

impl Ring {
    fn new(limit: u64) -> Ring {
        Ring {
            limit,
            last: 0,
            digest: 0xcbf2_9ce4_8422_2325,
        }
    }
}

impl Application for Ring {
    type Msg = u64;

    fn on_start(&mut self, me: ProcessId, n: usize) -> Effects<u64> {
        if me == ProcessId(0) {
            Effects::send(ProcessId(1 % n as u16), 1)
        } else {
            Effects::none()
        }
    }

    fn on_message(&mut self, me: ProcessId, _from: ProcessId, msg: &u64, n: usize) -> Effects<u64> {
        self.last = *msg;
        self.digest = (self.digest ^ *msg).wrapping_mul(0x0000_0100_0000_01b3);
        let mut effects = Effects::output(*msg);
        if *msg < self.limit {
            let next = ProcessId((me.0 + 1) % n as u16);
            effects = effects.and_send(next, *msg + 1);
        }
        effects
    }

    fn digest(&self) -> u64 {
        self.digest
    }
}

fn main() {
    let n = 4;
    let hops = 400;
    let config = DgConfig::serving();

    println!("launching {n} processes over TCP (loopback), ring of {hops} hops");
    let cluster = Cluster::launch(n, |_| Ring::new(hops), config).expect("bind loopback sockets");

    // Let traffic flow, then take down two processes at different times.
    std::thread::sleep(Duration::from_millis(150));
    println!("crashing P1 (down 80ms)");
    cluster.crash(ProcessId(1), Duration::from_millis(80));
    std::thread::sleep(Duration::from_millis(200));
    println!("crashing P3 (down 120ms)");
    cluster.crash(ProcessId(3), Duration::from_millis(120));

    let quiesced = cluster.run_until_quiescent(Duration::from_secs(30));
    let engines = cluster.shutdown();

    println!("quiescent: {quiesced}");
    println!(
        "proc  version  restarts  rollbacks  delivered  committed  app-last  \
         flushes(idle)  queries  replies"
    );
    for engine in &engines {
        let stats = EngineView::stats(engine);
        println!(
            "{:>4}  {:>7}  {:>8}  {:>9}  {:>9}  {:>9}  {:>8}  {:>7}({:>4})  {:>7}  {:>7}",
            EngineView::id(engine).to_string(),
            EngineView::version(engine).to_string(),
            stats.restarts,
            stats.rollbacks,
            stats.messages_delivered,
            engine.committed_outputs().count(),
            engine.app().last,
            stats.flushes,
            stats.idle_flushes,
            stats.stability_queries_sent,
            stats.stability_replies_sent,
        );
    }

    let total_restarts: u64 = engines.iter().map(|e| EngineView::stats(e).restarts).sum();
    let complete = engines.iter().any(|e| e.app().last == hops);
    println!(
        "ring {} despite {total_restarts} restart(s)",
        if complete {
            "completed"
        } else {
            "DID NOT COMPLETE"
        }
    );
    assert!(quiesced, "system failed to quiesce");
    assert!(complete, "ring did not complete");
}
