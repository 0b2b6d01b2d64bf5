//! Property tests for the delta checkpoint frame codec.
//!
//! Mirrors the clock wire-codec suite: every generated frame must round-trip
//! through encode/decode bit-exactly, `diff`/`apply` must reconstruct the
//! target image exactly, and *every* truncation of a valid encoding must
//! decode to an error — never a panic, never a silently-short value.

use dg_storage::codec::{from_bytes, to_bytes};
use dg_storage::delta::{apply, content_hash, diff, ChunkRef, DedupChunk, Frame, PendingEntry};
use dg_storage::CheckpointImage;
use proptest::prelude::*;

fn arb_chunk() -> impl Strategy<Value = DedupChunk> {
    proptest::collection::vec(any::<u8>(), 0..64).prop_map(|bytes| DedupChunk {
        hash: content_hash(&bytes),
        bytes,
    })
}

fn arb_pending() -> impl Strategy<Value = Vec<PendingEntry>> {
    proptest::collection::vec(
        (any::<u64>(), proptest::collection::vec(any::<u8>(), 0..32)),
        0..6,
    )
    .prop_map(|v| {
        let mut seen = std::collections::HashSet::new();
        v.into_iter()
            .filter(|(k, _)| seen.insert(*k))
            .map(|(key, bytes)| PendingEntry { key, bytes })
            .collect()
    })
}

fn arb_image() -> impl Strategy<Value = CheckpointImage> {
    (
        proptest::collection::vec((any::<u32>(), any::<u64>()), 0..8),
        proptest::collection::vec(any::<u8>(), 0..32),
        proptest::collection::vec(any::<u8>(), 0..48),
        proptest::collection::vec(arb_chunk(), 0..5),
        arb_pending(),
    )
        .prop_map(|(clock, app, meta, dedup, pending)| CheckpointImage {
            clock,
            app,
            meta,
            dedup,
            pending,
        })
}

/// A "next" image reachable from `prev` by the mutations checkpoints
/// actually perform: clock advances, app/meta rewrites, chunk seals,
/// pending commits and emissions.
fn arb_successor(prev: CheckpointImage) -> impl Strategy<Value = CheckpointImage> {
    let n = prev.clock.len();
    (
        proptest::collection::vec((0..n.max(1), any::<u32>(), any::<u64>()), 0..4),
        proptest::option::of(proptest::collection::vec(any::<u8>(), 0..32)),
        proptest::collection::vec(any::<u8>(), 0..48),
        proptest::collection::vec(arb_chunk(), 0..3),
        proptest::collection::vec(any::<bool>(), prev.pending.len()),
        arb_pending(),
    )
        .prop_map(move |(bumps, app, meta, new_chunks, keep, added)| {
            let mut next = prev.clone();
            for (i, v, ts) in bumps {
                if i < next.clock.len() {
                    next.clock[i] = (v, ts);
                }
            }
            if let Some(app) = app {
                next.app = app;
            }
            next.meta = meta;
            next.dedup.extend(new_chunks);
            let mut keep_iter = keep.into_iter();
            next.pending.retain(|_| keep_iter.next().unwrap_or(true));
            let existing: std::collections::HashSet<u64> =
                next.pending.iter().map(|p| p.key).collect();
            next.pending
                .extend(added.into_iter().filter(|p| !existing.contains(&p.key)));
            next
        })
}

proptest! {
    #[test]
    fn full_frame_roundtrips(img in arb_image()) {
        let frame = Frame::Full(img);
        let bytes = to_bytes(&frame);
        prop_assert_eq!(from_bytes::<Frame>(&bytes).unwrap(), frame);
    }

    #[test]
    fn diff_apply_reconstructs_exactly(
        (prev, next) in arb_image().prop_flat_map(|p| {
            let succ = arb_successor(p.clone());
            (Just(p), succ)
        })
    ) {
        let delta = diff(7, &prev, &next);
        prop_assert_eq!(apply(&prev, &delta).unwrap(), next.clone());

        // …and the delta survives the durable encoding on the way.
        let bytes = to_bytes(&Frame::Delta(delta));
        let Frame::Delta(decoded) = from_bytes::<Frame>(&bytes).unwrap() else {
            return Err(TestCaseError::fail("frame kind flipped in transit"));
        };
        prop_assert_eq!(apply(&prev, &decoded).unwrap(), next);
    }

    #[test]
    fn unchanged_chunks_travel_by_reference(
        (prev, next) in arb_image().prop_flat_map(|p| {
            let succ = arb_successor(p.clone());
            (Just(p), succ)
        })
    ) {
        let delta = diff(0, &prev, &next);
        let by_value = delta
            .dedup
            .iter()
            .filter(|c| matches!(c, ChunkRef::New(_)))
            .count();
        prop_assert!(
            by_value <= next.dedup.len() - prev.dedup.len(),
            "at most the freshly sealed chunks may travel by value"
        );
    }

    #[test]
    fn truncation_is_an_error_not_a_panic(img in arb_image()) {
        let frame = Frame::Full(img);
        let bytes = to_bytes(&frame);
        for cut in 0..bytes.len() {
            prop_assert!(
                from_bytes::<Frame>(&bytes[..cut]).is_err(),
                "decoding a {cut}-byte prefix of {} bytes must fail",
                bytes.len()
            );
        }
    }

    #[test]
    fn delta_truncation_is_an_error_not_a_panic(
        (prev, next) in arb_image().prop_flat_map(|p| {
            let succ = arb_successor(p.clone());
            (Just(p), succ)
        })
    ) {
        let bytes = to_bytes(&Frame::Delta(diff(0, &prev, &next)));
        for cut in 0..bytes.len() {
            prop_assert!(from_bytes::<Frame>(&bytes[..cut]).is_err());
        }
    }
}
