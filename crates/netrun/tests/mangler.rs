//! Byte-level framing attacks against live nodes.
//!
//! A rogue connection spews malformed traffic at every node's real
//! listener while the ring workload runs: oversized and zero length
//! prefixes, prefixes cut mid-read, bodies cut mid-read, perfectly
//! framed garbage that fails wire decoding, and well-formed stability
//! queries from nobody about nothing. The contract under attack:
//! every mangled frame is counted and contained (at worst the rogue
//! connection dies) — no panic, no wedged node, no effect on the
//! protocol's committed outputs.

mod common;

use std::io::Write;
use std::net::TcpStream;
use std::time::Duration;

use common::{expected_outputs, Ring};
use dg_core::wirecodec::encode_wire;
use dg_core::{DgConfig, EngineView, Entry, Wire};
use dg_harness::oracle;
use dg_netrun::Cluster;

const N: usize = 4;
const LIMIT: u64 = 1_200;
const COOLDOWN: u64 = 600;

fn config() -> DgConfig {
    DgConfig::serving()
}

/// A frame the reader accepts: honest length, the given sender id and a
/// correct FNV-1a checksum over `wire`.
fn valid_frame(sender: u16, wire: &[u8]) -> Vec<u8> {
    let checksum = wire.iter().fold(0x811c_9dc5u32, |h, &b| {
        (h ^ u32::from(b)).wrapping_mul(0x0100_0193)
    });
    let mut frame = ((6 + wire.len()) as u32).to_le_bytes().to_vec();
    frame.extend_from_slice(&sender.to_le_bytes());
    frame.extend_from_slice(&checksum.to_le_bytes());
    frame.extend_from_slice(wire);
    frame
}

/// Open a fresh connection to `addr`, write `bytes`, and hang up.
fn spew(addr: std::net::SocketAddr, bytes: &[u8]) {
    let mut conn = TcpStream::connect(addr).expect("connect to live node");
    conn.write_all(bytes).expect("write attack bytes");
    // Dropping the stream closes it; any cut-off happens here.
}

#[test]
fn byte_mangler_cannot_wedge_or_panic_a_node() {
    let cluster =
        Cluster::launch(N, |_| Ring::new(LIMIT, COOLDOWN), config()).expect("bind listeners");
    std::thread::sleep(Duration::from_millis(30));

    // Stability queries about an entry no process will ever reach.
    let query = encode_wire(&Wire::<u64>::StabilityQuery(Entry::new(9, 1 << 40)));
    let query = query.as_slice();

    // Six counted attacks and two that must simply bounce off, on every
    // node, mid-traffic.
    for &addr in &cluster.addrs() {
        // Length prefix far outside the protocol envelope: must be
        // rejected before it can size an allocation.
        spew(addr, &u32::MAX.to_le_bytes());
        // Zero-length frame: below the 2-byte sender-id minimum.
        spew(addr, &0u32.to_le_bytes());
        // Connection dies halfway through the length prefix itself.
        spew(addr, &[0x10, 0x00]);
        // Honest prefix, but the body is cut off mid-frame.
        let mut truncated = 100u32.to_le_bytes().to_vec();
        truncated.extend_from_slice(&[7u8; 10]);
        spew(addr, &truncated);
        // Perfectly framed garbage: valid length, sender id 0, body
        // that cannot decode as any wire message.
        let body = [0u8, 0, 0xde, 0xad, 0xbe, 0xef];
        let mut framed = (body.len() as u32).to_le_bytes().to_vec();
        framed.extend_from_slice(&body);
        spew(addr, &framed);
        // A query frame cut after its tag, checksum and all: fails wire
        // decoding like any other garbage.
        spew(addr, &valid_frame(0, &query[..1]));
        // Whole, valid query frames: from a sender id outside the system
        // (ignored, never used as an index) and from a real peer (held
        // until the next gossip tick, then forgotten). Neither counts as
        // corrupt, neither may keep the cluster from going quiet.
        spew(addr, &valid_frame(u16::MAX, query));
        spew(addr, &valid_frame(0, query));
    }

    assert!(
        cluster.run_until_quiescent(Duration::from_secs(45)),
        "mangled frames wedged the cluster"
    );
    for (i, status) in cluster.statuses().iter().enumerate() {
        assert!(
            status.frames_corrupt >= 6,
            "node {i} counted {} corrupt frames, expected all 6 attacks \
             (last reason: {:?})",
            status.frames_corrupt,
            status.last_corrupt_reason
        );
        assert!(!status.down, "node {i} died to a byte mangler");
    }

    // The protocol underneath never noticed: same oracle, same outputs.
    let engines = cluster.shutdown();
    let views: Vec<&dyn EngineView> = engines.iter().map(|e| e as &dyn EngineView).collect();
    let mut violations = Vec::new();
    oracle::check_views(&views, &mut violations);
    assert!(violations.is_empty(), "oracle violations: {violations:?}");
    for engine in &engines {
        let p = EngineView::id(engine);
        let committed: Vec<u64> = engine.committed_outputs().copied().collect();
        assert_eq!(
            committed,
            expected_outputs(p, N, LIMIT),
            "{p}: committed outputs diverged under framing attacks"
        );
    }
}

#[test]
fn parallel_clusters_bind_disjoint_ephemeral_ports() {
    // Every listener binds 127.0.0.1:0, so two clusters in the same
    // test binary must coexist; `addrs` propagates the chosen ports.
    let a = Cluster::launch(3, |_| Ring::new(60, 60), config()).expect("bind cluster a");
    let b = Cluster::launch(3, |_| Ring::new(60, 60), config()).expect("bind cluster b");
    let mut ports: Vec<u16> = a
        .addrs()
        .iter()
        .chain(&b.addrs())
        .map(|s| s.port())
        .collect();
    assert!(ports.iter().all(|&p| p != 0), "a listener kept port 0");
    ports.sort_unstable();
    ports.dedup();
    assert_eq!(ports.len(), 6, "two clusters collided on a port");
    assert!(a.run_until_quiescent(Duration::from_secs(30)));
    assert!(b.run_until_quiescent(Duration::from_secs(30)));
    a.shutdown();
    b.shutdown();
}
