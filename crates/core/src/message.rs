//! Wire types exchanged by Damani–Garg processes.

use dg_ftvc::{wire, Entry, Ftvc, ProcessId};
use serde::{Deserialize, Serialize};

/// Unique identity of a send event: the sender, the sender's own
/// `(version, timestamp)` component at send time, and a digest of the
/// full piggybacked clock.
///
/// The digest matters after rollbacks: Figure 2's rollback rule only
/// *ticks* the timestamp, so a post-rollback send can reuse a discarded
/// (orphan) state's `(version, ts)` pair. The two sends are then
/// distinguished by their full clocks (the orphan one carries the taint
/// the obsolete test rejects), so the digest keeps retransmission
/// deduplication from conflating them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct MsgId {
    /// Sending process.
    pub sender: ProcessId,
    /// Sender's own clock component at the send.
    pub entry: Entry,
    /// Digest of the full piggybacked clock ([`Ftvc::digest`]).
    pub clock_digest: u64,
}

/// An application message with its piggybacked fault-tolerant vector
/// clock (the only control information the protocol adds to application
/// traffic — the paper's Section 6.9 headline).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Envelope<M> {
    /// Application payload.
    pub payload: M,
    /// Sender's FTVC at the send event.
    pub clock: Ftvc,
}

impl<M> Envelope<M> {
    /// The sending process (the clock's owner).
    pub fn sender(&self) -> ProcessId {
        self.clock.owner()
    }

    /// Unique id of the send event. O(1): the clock digest is maintained
    /// incrementally by every clock mutation ([`Ftvc::digest`]), so the
    /// id no longer pays an O(n) hash per receive/dedup probe.
    pub fn id(&self) -> MsgId {
        MsgId {
            sender: self.clock.owner(),
            entry: self.clock.own_entry(),
            clock_digest: self.clock.digest(),
        }
    }

    /// Encoded size of the piggybacked control information, in bytes.
    /// O(1): reads the clock's incrementally maintained wire-length cache
    /// (pinned equal to [`wire::ftvc_wire_len`]'s scan by tests).
    pub fn piggyback_bytes(&self) -> usize {
        self.clock.wire_len()
    }
}

/// A recovery token, broadcast by a process restarting from a failure
/// (Section 5): "the version number which failed and the timestamp of
/// that version at the point of restoration".
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Token {
    /// The process that failed and recovered.
    pub from: ProcessId,
    /// `(failed version, restoration timestamp)`.
    pub entry: Entry,
    /// Full clock of the restored state. Only present when the
    /// send-history retransmission extension (paper, Remark 1) is
    /// enabled; the base protocol's token is a single entry.
    pub full_clock: Option<Ftvc>,
}

impl Token {
    /// Encoded size in bytes (single entry, plus the optional full clock
    /// when the retransmission extension is on).
    pub fn wire_bytes(&self) -> usize {
        let base = wire::token_wire_len(self.from, self.entry);
        match &self.full_clock {
            Some(clock) => base + wire::ftvc_wire_len(clock),
            None => base,
        }
    }
}

/// Everything a [`crate::DgProcess`] can put on the network.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum Wire<M> {
    /// An application message.
    App(Envelope<M>),
    /// A recovery token.
    Token(Token),
    /// Acknowledgement of a recovery token, addressed to the token's
    /// originator (the reliable-delivery sublayer). `entry` names the
    /// acknowledged token — token identity is `(originator, version)`,
    /// and the restoration timestamp rides along for the exact match.
    /// The acknowledging process is the transport-level sender.
    TokenAck(Entry),
    /// A retransmitted application message (send-history extension). The
    /// receiver deduplicates by [`Envelope::id`].
    Resend(Envelope<M>),
    /// Stability-frontier gossip (output-commit / GC extension): the
    /// sender's own `(version, ts)` up to which its states are stable.
    Frontier(ProcessId, Entry),
    /// Aggregated stability-frontier gossip (tree dissemination): the
    /// sender's entire known frontier vector, indexed by process id —
    /// entry `j` is the newest stable `(version, ts)` of process `j` the
    /// sender has heard of (directly or relayed). Every component is a
    /// monotone true fact, so receivers merge componentwise-max; relaying
    /// the merged vector along a spanning tree gives every edge an
    /// aggregate of many [`Wire::Frontier`] facts and cuts a gossip round
    /// from O(n²) point-to-point messages to O(n) tree edges.
    FrontierVec(Vec<Entry>),
    /// The full clock of the sender's newest *globally stable* checkpoint
    /// (paper, Remark 2): no state at or before this clock can ever roll
    /// back, so no future recovery token from the sender names a
    /// restoration point below it. Peers use it to prune their
    /// retransmission send logs — any logged envelope whose clock
    /// happened-before this clock would be skipped by the covered test of
    /// every future retransmission anyway.
    StableClock(ProcessId, Ftvc),
    /// Stability on demand: "tell me as soon as your stable frontier
    /// covers this `(version, ts)` of yours". Sent by a process holding a
    /// pending output that depends on that entry; the addressee answers
    /// with the ordinary [`Wire::Frontier`]/[`Wire::FrontierVec`] gossip
    /// once its log is flushed that far (at once if it already is). The
    /// asker is the transport-level sender. A pure hint: every answer is
    /// a fact the periodic gossip would have carried anyway, so a lost
    /// query or reply costs one gossip interval, never safety.
    StabilityQuery(Entry),
}

impl<M> Wire<M> {
    /// `true` for stability traffic (frontier and stable-clock gossip,
    /// stability queries): it flows whether or not the application is
    /// doing anything, so runtimes must not count it as activity when
    /// deciding that a system has gone quiet.
    pub fn is_background(&self) -> bool {
        matches!(
            self,
            Wire::Frontier(..)
                | Wire::FrontierVec(_)
                | Wire::StableClock(..)
                | Wire::StabilityQuery(_)
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn clock() -> Ftvc {
        Ftvc::from_parts(ProcessId(1), &[(0, 4), (1, 7), (0, 0)])
    }

    #[test]
    fn envelope_identity_comes_from_own_entry() {
        let env = Envelope {
            payload: 42u32,
            clock: clock(),
        };
        assert_eq!(env.sender(), ProcessId(1));
        let id = env.id();
        assert_eq!(id.sender, ProcessId(1));
        assert_eq!(id.entry, Entry::new(1, 7));
    }

    #[test]
    fn same_own_entry_different_clock_yields_different_id() {
        // Post-rollback timestamp reuse: same (sender, version, ts) but a
        // different causal past must not be conflated.
        let a = Envelope {
            payload: (),
            clock: Ftvc::from_parts(ProcessId(1), &[(0, 5), (1, 7), (0, 0)]),
        };
        let b = Envelope {
            payload: (),
            clock: Ftvc::from_parts(ProcessId(1), &[(0, 2), (1, 7), (0, 0)]),
        };
        assert_eq!(a.id().entry, b.id().entry);
        assert_ne!(a.id(), b.id());
    }

    #[test]
    fn distinct_sends_have_distinct_ids() {
        let mut c = Ftvc::new(ProcessId(0), 2);
        let a = Envelope {
            payload: (),
            clock: c.stamp_for_send(),
        };
        let b = Envelope {
            payload: (),
            clock: c.stamp_for_send(),
        };
        assert_ne!(a.id(), b.id());
    }

    #[test]
    fn piggyback_bytes_match_wire_encoding() {
        let env = Envelope {
            payload: 0u8,
            clock: clock(),
        };
        assert_eq!(env.piggyback_bytes(), wire::ftvc_wire_len(&clock()));
    }

    #[test]
    fn background_is_exactly_the_stability_traffic() {
        let e = Entry::new(0, 1);
        for wire in [
            Wire::<u8>::Frontier(ProcessId(0), e),
            Wire::FrontierVec(vec![e]),
            Wire::StableClock(ProcessId(1), clock()),
            Wire::StabilityQuery(e),
        ] {
            assert!(wire.is_background(), "{wire:?}");
        }
        let env = Envelope {
            payload: 0u8,
            clock: clock(),
        };
        let token = Token {
            from: ProcessId(2),
            entry: e,
            full_clock: None,
        };
        for wire in [
            Wire::App(env.clone()),
            Wire::Resend(env),
            Wire::Token(token),
            Wire::TokenAck(e),
        ] {
            assert!(!wire.is_background(), "{wire:?}");
        }
    }

    #[test]
    fn base_token_is_single_entry_sized() {
        let t = Token {
            from: ProcessId(2),
            entry: Entry::new(0, 300),
            full_clock: None,
        };
        let with_clock = Token {
            full_clock: Some(clock()),
            ..t.clone()
        };
        assert!(t.wire_bytes() < with_clock.wire_bytes());
        assert_eq!(
            t.wire_bytes(),
            wire::token_wire_len(ProcessId(2), Entry::new(0, 300))
        );
    }
}
