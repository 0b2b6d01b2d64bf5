//! Property-based tests for the clock substrate.
//!
//! These check the algebraic laws behind the paper's Lemmas 1–2 and
//! Theorem 1 on randomly generated failure-free and failure-prone
//! executions.

use dg_ftvc::{wire, CausalOrder, Ftvc, ProcessId, VectorClock};
use proptest::prelude::*;

/// A random schedule of clock operations over `n` processes.
#[derive(Debug, Clone)]
enum Op {
    /// `from` sends a message later received by `to`.
    Send { from: u16, to: u16 },
    /// `p` fails and restarts (FTVC only).
    Restart { p: u16 },
    /// `p` rolls back (FTVC only).
    Rollback { p: u16 },
}

fn op_strategy(n: u16) -> impl Strategy<Value = Op> {
    prop_oneof![
        6 => (0..n, 0..n).prop_map(|(from, to)| Op::Send { from, to }),
        1 => (0..n).prop_map(|p| Op::Restart { p }),
        1 => (0..n).prop_map(|p| Op::Rollback { p }),
    ]
}

/// Run a schedule and collect every piggybacked stamp together with the
/// oracle's knowledge of the true happened-before relation between the
/// stamped (send) events. The oracle tracks, for each send event, the set
/// of send events in its causal past, independent of the clocks.
struct Run {
    stamps: Vec<Ftvc>,
    /// `past[k]` = indices of stamps in the causal past of stamp `k`.
    past: Vec<Vec<usize>>,
    /// Stamps taken by versions that later failed (so potentially lost):
    /// Theorem 1 only covers useful states, so cross-version claims are
    /// restricted to surviving versions.
    doomed: Vec<bool>,
}

fn run_schedule(n: u16, ops: &[Op]) -> Run {
    let mut clocks: Vec<Ftvc> = ProcessId::all(n as usize)
        .map(|p| Ftvc::new(p, n as usize))
        .collect();
    // For each process: indices of stamps in its current causal past.
    let mut proc_past: Vec<Vec<usize>> = vec![Vec::new(); n as usize];
    // Stamp indices produced by each process's *current* version.
    let mut current_version_stamps: Vec<Vec<usize>> = vec![Vec::new(); n as usize];

    let mut stamps = Vec::new();
    let mut past = Vec::new();
    let mut doomed = Vec::new();

    for op in ops {
        match *op {
            Op::Send { from, to } => {
                let (f, t) = (from as usize, to as usize);
                let stamp = clocks[f].stamp_for_send();
                let idx = stamps.len();
                stamps.push(stamp.clone());
                past.push(proc_past[f].clone());
                doomed.push(false);
                current_version_stamps[f].push(idx);
                // The new stamp is now in the sender's past.
                proc_past[f].push(idx);
                if f != t {
                    // Receiver merges: clock and oracle past.
                    let mut merged = proc_past[t].clone();
                    for &k in &proc_past[f] {
                        if !merged.contains(&k) {
                            merged.push(k);
                        }
                    }
                    proc_past[t] = merged;
                    let incoming = stamp;
                    clocks[t].observe(&incoming);
                } else {
                    // Self-send: deliver immediately.
                    let incoming = stamp;
                    clocks[f].observe(&incoming);
                }
            }
            Op::Restart { p } => {
                let p = p as usize;
                clocks[p].restart();
                // All stamps of the failed version are potentially lost.
                for &k in &current_version_stamps[p] {
                    doomed[k] = true;
                }
                current_version_stamps[p].clear();
            }
            Op::Rollback { p } => {
                clocks[p as usize].rolled_back();
            }
        }
    }
    Run {
        stamps,
        past,
        doomed,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Theorem 1 (forward direction) restricted to useful stamps:
    /// oracle-happened-before implies clock-before. With no failures this
    /// holds for every pair; with failures we only claim it for stamps of
    /// surviving (non-doomed) versions.
    #[test]
    fn clock_order_matches_oracle(n in 2u16..6, ops in proptest::collection::vec(op_strategy(5), 1..60)) {
        let ops: Vec<Op> = ops.into_iter().map(|op| match op {
            Op::Send { from, to } => Op::Send { from: from % n, to: to % n },
            Op::Restart { p } => Op::Restart { p: p % n },
            Op::Rollback { p } => Op::Rollback { p: p % n },
        }).collect();
        let run = run_schedule(n, &ops);
        for i in 0..run.stamps.len() {
            for j in 0..run.stamps.len() {
                if i == j || run.doomed[i] || run.doomed[j] {
                    continue;
                }
                let oracle_before = run.past[j].contains(&i);
                let clock_rel = run.stamps[i].causal_compare(&run.stamps[j]);
                if oracle_before {
                    prop_assert_eq!(
                        clock_rel, CausalOrder::Before,
                        "stamp {} should precede {}", i, j
                    );
                } else if run.past[i].contains(&j) {
                    prop_assert_eq!(clock_rel, CausalOrder::After);
                } else {
                    // Neither precedes the other in the oracle: the clocks
                    // must not claim an ordering (Theorem 1, converse).
                    prop_assert!(
                        clock_rel.is_concurrent() || clock_rel == CausalOrder::Equal,
                        "stamps {} and {} are oracle-concurrent but clock says {:?}",
                        i, j, clock_rel
                    );
                }
            }
        }
    }

    /// Comparison is antisymmetric: compare(a,b) == compare(b,a).reverse().
    #[test]
    fn comparison_is_antisymmetric(ops in proptest::collection::vec(op_strategy(4), 1..40)) {
        let run = run_schedule(4, &ops);
        for a in &run.stamps {
            for b in &run.stamps {
                prop_assert_eq!(a.causal_compare(b), b.causal_compare(a).reverse());
            }
        }
    }

    /// happened-before is transitive on stamps.
    #[test]
    fn happened_before_is_transitive(ops in proptest::collection::vec(op_strategy(4), 1..40)) {
        let run = run_schedule(4, &ops);
        let s = &run.stamps;
        for i in 0..s.len() {
            for j in 0..s.len() {
                for k in 0..s.len() {
                    if s[i].happened_before(&s[j]) && s[j].happened_before(&s[k]) {
                        prop_assert!(s[i].happened_before(&s[k]));
                    }
                }
            }
        }
    }

    /// Wire encoding round-trips every reachable clock.
    #[test]
    fn wire_roundtrip(ops in proptest::collection::vec(op_strategy(4), 1..40)) {
        let run = run_schedule(4, &ops);
        for stamp in &run.stamps {
            let bytes = wire::encode_ftvc(stamp);
            prop_assert_eq!(bytes.len(), wire::ftvc_wire_len(stamp));
            let back = wire::decode_ftvc(bytes).unwrap();
            prop_assert_eq!(&back, stamp);
        }
    }

    /// Dirty-index delta encoding against any reachable floor agrees with
    /// the full encoding: same decoded clock, length as predicted, and
    /// every strict prefix is a decode error (mirroring
    /// `wirecodec::truncation_is_an_error_not_a_panic`).
    #[test]
    fn delta_wire_roundtrip_against_any_floor(ops in proptest::collection::vec(op_strategy(4), 2..40)) {
        let run = run_schedule(4, &ops);
        for pair in run.stamps.windows(2) {
            let (floor, clock) = (&pair[0], &pair[1]);
            let bytes = wire::encode_ftvc_dirty(clock, floor);
            prop_assert_eq!(bytes.len(), wire::ftvc_dirty_wire_len(clock, floor));
            let via_delta = wire::decode_ftvc_dirty(&mut bytes.clone(), floor).unwrap();
            let via_full = wire::decode_ftvc(wire::encode_ftvc(clock)).unwrap();
            prop_assert_eq!(&via_delta, clock);
            prop_assert_eq!(&via_delta, &via_full);
            for cut in 0..bytes.len() {
                let mut truncated = bytes::Bytes::from(bytes.as_slice()[..cut].to_vec());
                prop_assert!(
                    wire::decode_ftvc_dirty(&mut truncated, floor).is_err(),
                    "prefix of length {} decoded successfully", cut
                );
            }
        }
    }

    /// Merging is monotone: after observe, the receiver dominates the stamp.
    #[test]
    fn observe_dominates_incoming(n in 2u16..6, seed_ops in proptest::collection::vec(op_strategy(5), 1..30)) {
        let ops: Vec<Op> = seed_ops.into_iter().map(|op| match op {
            Op::Send { from, to } => Op::Send { from: from % n, to: to % n },
            Op::Restart { p } => Op::Restart { p: p % n },
            Op::Rollback { p } => Op::Rollback { p: p % n },
        }).collect();
        let mut clocks: Vec<Ftvc> = ProcessId::all(n as usize)
            .map(|p| Ftvc::new(p, n as usize))
            .collect();
        for op in &ops {
            if let Op::Send { from, to } = *op {
                let stamp = clocks[from as usize].stamp_for_send();
                clocks[to as usize].observe(&stamp);
                prop_assert!(stamp.happened_before(&clocks[to as usize]));
            }
        }
    }

    /// Plain vector clocks agree with FTVC in failure-free runs.
    #[test]
    fn ftvc_degenerates_to_vector_clock_without_failures(
        sends in proptest::collection::vec((0u16..4, 0u16..4), 1..50)
    ) {
        let n = 4usize;
        let mut ftvcs: Vec<Ftvc> = ProcessId::all(n).map(|p| Ftvc::new(p, n)).collect();
        let mut vcs: Vec<VectorClock> = ProcessId::all(n).map(|p| VectorClock::new(p, n)).collect();
        let mut fstamps = Vec::new();
        let mut vstamps = Vec::new();
        for &(from, to) in &sends {
            let (f, t) = (from as usize, to as usize);
            let fs = ftvcs[f].stamp_for_send();
            let vs = vcs[f].stamp_for_send();
            if f != t {
                ftvcs[t].observe(&fs);
                vcs[t].observe(&vs);
            } else {
                let fs2 = fs.clone();
                let vs2 = vs.clone();
                ftvcs[f].observe(&fs2);
                vcs[f].observe(&vs2);
            }
            fstamps.push(fs);
            vstamps.push(vs);
        }
        for i in 0..fstamps.len() {
            for j in 0..fstamps.len() {
                prop_assert_eq!(
                    fstamps[i].causal_compare(&fstamps[j]),
                    vstamps[i].causal_compare(&vstamps[j])
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Lemma 1 of the paper: (1) a clock's own version equals the number
    /// of failures of its owner; (2) the version recorded for any other
    /// process equals the highest version of that process in the causal
    /// past.
    #[test]
    fn lemma_1_version_semantics(n in 2u16..5, ops in proptest::collection::vec(op_strategy(4), 1..60)) {
        let ops: Vec<Op> = ops.into_iter().map(|op| match op {
            Op::Send { from, to } => Op::Send { from: from % n, to: to % n },
            Op::Restart { p } => Op::Restart { p: p % n },
            Op::Rollback { p } => Op::Rollback { p: p % n },
        }).collect();
        let mut clocks: Vec<Ftvc> = ProcessId::all(n as usize)
            .map(|p| Ftvc::new(p, n as usize))
            .collect();
        let mut failures = vec![0u32; n as usize];
        // known[i][j] = highest version of j that i causally knows.
        let mut known = vec![vec![0u32; n as usize]; n as usize];
        for op in &ops {
            match *op {
                Op::Send { from, to } => {
                    let stamp = clocks[from as usize].stamp_for_send();
                    clocks[to as usize].observe(&stamp);
                    let (src, dst) = (from as usize, to as usize);
                    let sender_known = known[src].clone();
                    for (k_to, k_from) in known[dst].iter_mut().zip(sender_known) {
                        if *k_to < k_from {
                            *k_to = k_from;
                        }
                    }
                }
                Op::Restart { p } => {
                    clocks[p as usize].restart();
                    failures[p as usize] += 1;
                    known[p as usize][p as usize] = failures[p as usize];
                }
                Op::Rollback { p } => clocks[p as usize].rolled_back(),
            }
            for (i, clock) in clocks.iter().enumerate() {
                // Part 1: own version counts own failures.
                prop_assert_eq!(clock.version().0, failures[i]);
                // Part 2: every other component's version is the highest
                // causally-known version of that process.
                for (j, &k) in known[i].iter().enumerate() {
                    prop_assert_eq!(
                        clock.entry(ProcessId(j as u16)).version.0,
                        k,
                        "clock {} component {}", i, j
                    );
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The O(Δ) merge path is extensionally equal to the full merge, at
    /// every system size up to 64 (crossing the inline→spilled clock
    /// boundary) and across failures.
    ///
    /// Model of the engine's receive path: each receiver keeps a
    /// per-sender *floor* — the last clock it merged from that sender in
    /// full. A delivery diffs the incoming stamp against the floor
    /// ([`Ftvc::diff_indices_into`]) and merges only the dirty
    /// components ([`Ftvc::observe_at`]); a shadow replica merges the
    /// same stamp with the full [`Ftvc::observe`]. The two replicas must
    /// stay bit-identical forever.
    ///
    /// Failures exercise the invalidation rule: a restart or rollback
    /// restores the process from an earlier snapshot (a genuine
    /// componentwise regression, like the engine's checkpoint restore)
    /// and bumps its version, and the *restored process* drops its own
    /// floors — its clock regressed, so `observe_at`'s precondition no
    /// longer holds for them. Other receivers keep their floors for the
    /// failed sender: its later stamps differ from the floor exactly in
    /// the components the failure moved, so the diff scan routes them
    /// through the merge machinery on its own.
    #[test]
    fn delta_merge_matches_full_merge(
        n in 2u16..=64,
        ops in proptest::collection::vec(op_strategy(64), 1..150),
    ) {
        let ops: Vec<Op> = ops.into_iter().map(|op| match op {
            Op::Send { from, to } => Op::Send { from: from % n, to: to % n },
            Op::Restart { p } => Op::Restart { p: p % n },
            Op::Rollback { p } => Op::Rollback { p: p % n },
        }).collect();
        let n = n as usize;
        let mut fast: Vec<Ftvc> = ProcessId::all(n).map(|p| Ftvc::new(p, n)).collect();
        let mut shadow: Vec<Ftvc> = ProcessId::all(n).map(|p| Ftvc::new(p, n)).collect();
        // snap[p]: the checkpoint a failure of p restores (refreshed on
        // every third send, so restores regress by a varying amount).
        let mut snap: Vec<Ftvc> = fast.clone();
        // floors[t][f]: receiver t's comparison frontier for sender f.
        let mut floors: Vec<Vec<Option<Ftvc>>> = vec![vec![None; n]; n];
        let mut sends_by = vec![0u32; n];
        let mut dirty: Vec<u16> = Vec::new();

        for op in &ops {
            match *op {
                Op::Send { from, to } if from != to => {
                    let (f, t) = (from as usize, to as usize);
                    let stamp = fast[f].stamp_for_send();
                    let shadow_stamp = shadow[f].stamp_for_send();
                    prop_assert_eq!(&stamp, &shadow_stamp, "stamps diverged at sender {}", f);
                    shadow[t].observe(&stamp);
                    match floors[t][f].as_ref() {
                        Some(floor) => {
                            dirty.clear();
                            stamp.diff_indices_into(floor, &mut dirty);
                            fast[t].observe_at(&stamp, &dirty);
                        }
                        None => fast[t].observe(&stamp),
                    }
                    floors[t][f] = Some(stamp);
                    prop_assert_eq!(&fast[t], &shadow[t], "Δ merge diverged at receiver {}", t);
                    sends_by[f] += 1;
                    if sends_by[f].is_multiple_of(3) {
                        snap[f] = fast[f].clone();
                    }
                }
                Op::Send { .. } => {}
                Op::Restart { p } => {
                    let p = p as usize;
                    fast[p] = snap[p].clone();
                    shadow[p] = snap[p].clone();
                    fast[p].restart();
                    shadow[p].restart();
                    snap[p] = fast[p].clone();
                    for floor in &mut floors[p] {
                        *floor = None;
                    }
                }
                Op::Rollback { p } => {
                    let p = p as usize;
                    fast[p] = snap[p].clone();
                    shadow[p] = snap[p].clone();
                    fast[p].rolled_back();
                    shadow[p].rolled_back();
                    snap[p] = fast[p].clone();
                    for floor in &mut floors[p] {
                        *floor = None;
                    }
                }
            }
        }
        for (a, b) in fast.iter().zip(&shadow) {
            prop_assert_eq!(a, b, "final clocks diverged");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The incrementally maintained caches — the message-id digest and
    /// the piggyback wire length — are extensionally equal to their O(n)
    /// reference scans ([`Ftvc::full_clock_digest`],
    /// [`wire::ftvc_wire_len`]) on every reachable clock, at system
    /// sizes up to 256 (crossing the inline→spilled arena boundary),
    /// across merges, restarts, rollbacks, and snapshot regressions. The
    /// v3 dirty-index codec must preserve both through a round trip
    /// against arbitrary floors, since receivers trust the reconstructed
    /// clock's digest to detect stale-floor frames.
    #[test]
    fn cached_digest_and_wire_len_match_reference(
        n in 2u16..=256,
        ops in proptest::collection::vec(op_strategy(256), 1..120),
    ) {
        let ops: Vec<Op> = ops.into_iter().map(|op| match op {
            Op::Send { from, to } => Op::Send { from: from % n, to: to % n },
            Op::Restart { p } => Op::Restart { p: p % n },
            Op::Rollback { p } => Op::Rollback { p: p % n },
        }).collect();
        let n = n as usize;
        let mut clocks: Vec<Ftvc> = ProcessId::all(n).map(|p| Ftvc::new(p, n)).collect();
        // The checkpoint a failure restores (a genuine componentwise
        // regression, refreshed on every third send).
        let mut snap: Vec<Ftvc> = clocks.clone();
        // Last stamp seen from each sender: the floor the next dirty
        // encoding is checked against.
        let mut floors: Vec<Option<Ftvc>> = vec![None; n];
        let mut sends_by = vec![0u32; n];

        let check = |c: &Ftvc| -> Result<(), TestCaseError> {
            prop_assert_eq!(c.digest(), c.full_clock_digest(), "digest cache diverged");
            prop_assert_eq!(c.wire_len(), wire::ftvc_wire_len(c), "wire-len cache diverged");
            Ok(())
        };

        for op in &ops {
            match *op {
                Op::Send { from, to } => {
                    let (f, t) = (from as usize, to as usize);
                    let stamp = clocks[f].stamp_for_send();
                    check(&stamp)?;
                    if let Some(floor) = &floors[f] {
                        let mut bytes = wire::encode_ftvc_dirty(&stamp, floor);
                        prop_assert_eq!(bytes.len(), wire::ftvc_dirty_wire_len(&stamp, floor));
                        let back = wire::decode_ftvc_dirty(&mut bytes, floor).unwrap();
                        prop_assert_eq!(&back, &stamp);
                        prop_assert_eq!(back.digest(), stamp.digest());
                        prop_assert_eq!(back.wire_len(), stamp.wire_len());
                    }
                    clocks[t].observe(&stamp);
                    check(&clocks[t])?;
                    check(&clocks[f])?;
                    floors[f] = Some(stamp);
                    sends_by[f] += 1;
                    if sends_by[f].is_multiple_of(3) {
                        snap[f] = clocks[f].clone();
                    }
                }
                Op::Restart { p } => {
                    let p = p as usize;
                    clocks[p] = snap[p].clone();
                    clocks[p].restart();
                    snap[p] = clocks[p].clone();
                    check(&clocks[p])?;
                }
                Op::Rollback { p } => {
                    let p = p as usize;
                    clocks[p] = snap[p].clone();
                    clocks[p].rolled_back();
                    snap[p] = clocks[p].clone();
                    check(&clocks[p])?;
                }
            }
        }
        for c in &clocks {
            check(c)?;
        }
    }
}
