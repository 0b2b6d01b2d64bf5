//! Commit latency on an idle cluster is message delays, not tick cadence.
//!
//! One request at a time enters an otherwise idle n=4 cluster through
//! `app_send`; its owner emits one output, which commits once the
//! front's and the owner's logs are flushed and the owner has heard so.
//! With the event loop reporting idle edges, that takes one request hop
//! plus one stability query/reply round trip; on ticks alone it takes
//! the flush interval plus, typically, a whole gossip interval. The
//! bound is a ratio to the configured gossip cadence, not an absolute
//! figure, so it holds on slow boxes and fails only if commits go back
//! to waiting for the timer.

use std::sync::mpsc;
use std::time::{Duration, Instant};

use dg_core::{Application, DgConfig, Effects, EngineView, ProcessId};
use dg_harness::oracle;
use dg_netrun::{Cluster, ClusterOptions};

const N: usize = 4;
const REQUESTS: u64 = 200;

/// Every delivery becomes one external output; nothing is sent.
#[derive(Clone)]
struct Answer;

impl Application for Answer {
    type Msg = u64;

    fn on_start(&mut self, _me: ProcessId, _n: usize) -> Effects<u64> {
        Effects::none()
    }

    fn on_message(&mut self, _: ProcessId, _: ProcessId, msg: &u64, _: usize) -> Effects<u64> {
        Effects::output(*msg)
    }
}

#[test]
fn idle_cluster_commits_in_a_fraction_of_the_gossip_interval() {
    let config = DgConfig::serving().with_grouped_commit(true);
    let gossip = Duration::from_micros(config.gossip_interval.expect("serving gossips"));
    let (commit_tx, commit_rx) = mpsc::channel();
    let cluster = Cluster::launch_opts(
        N,
        |_| Answer,
        config,
        ClusterOptions {
            commits: Some(commit_tx),
            ..ClusterOptions::default()
        },
    )
    .expect("bind listeners");
    // Let the mesh connect and the first ticks pass.
    std::thread::sleep(Duration::from_millis(50));

    let mut latencies = Vec::with_capacity(REQUESTS as usize);
    for i in 0..REQUESTS {
        let via = ProcessId((i % N as u64) as u16);
        let to = ProcessId(((i + 1) % N as u64) as u16);
        let sent = Instant::now();
        cluster.app_send(via, to, i);
        loop {
            let batch = commit_rx
                .recv_timeout(Duration::from_secs(10))
                .expect("request never committed");
            if batch.outputs.contains(&i) {
                break;
            }
        }
        latencies.push(sent.elapsed());
    }
    latencies.sort_unstable();
    let median = latencies[latencies.len() / 2];

    assert!(cluster.run_until_quiescent(Duration::from_secs(30)));
    let engines = cluster.shutdown();
    let views: Vec<&dyn EngineView> = engines.iter().map(|e| e as &dyn EngineView).collect();
    let mut violations = Vec::new();
    oracle::check_views(&views, &mut violations);
    assert!(violations.is_empty(), "oracle violations: {violations:?}");

    let queries: u64 = engines
        .iter()
        .map(|e| EngineView::stats(e).stability_queries_sent)
        .sum();
    assert!(queries > 0, "no commit went through a stability query");
    assert!(
        median < gossip / 2,
        "median app_send -> CommittedBatch is {median:?}, not under half the \
         {gossip:?} gossip interval: commits are waiting for the timer again \
         (p10 {:?}, p90 {:?}, {queries} queries)",
        latencies[latencies.len() / 10],
        latencies[latencies.len() * 9 / 10],
    );
}
