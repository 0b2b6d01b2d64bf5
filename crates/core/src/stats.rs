//! Per-process protocol statistics.

use std::collections::BTreeMap;

use dg_ftvc::{ProcessId, Version};
use serde::{Deserialize, Serialize};

/// Identity of one failure event: which process, which version failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct FailureId {
    /// The process that failed.
    pub process: ProcessId,
    /// The version that the failure ended.
    pub version: Version,
}

/// Counters maintained by every [`crate::DgProcess`] (and mirrored by
/// the baseline protocols, so experiments compare like with like).
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ProcessStats {
    /// Engine inputs processed (one per `handle_into` call: deliveries,
    /// ticks, crashes, restarts, injected sends). This is the unit the
    /// throughput experiments normalize to, on every runtime (see
    /// E13/E15 in `dg-bench`). `Input::Idle` is not counted: it carries
    /// nothing from outside, it only marks where a batch of these ended.
    pub inputs: u64,
    /// Application messages sent (including regenerated sends after
    /// rollback, excluding suppressed replay sends).
    pub messages_sent: u64,
    /// Application messages delivered to the application.
    pub messages_delivered: u64,
    /// Messages discarded by the obsolete test (Lemma 4).
    pub obsolete_discarded: u64,
    /// Messages whose delivery was postponed pending tokens.
    pub postponed: u64,
    /// Postponed messages eventually delivered.
    pub postponed_delivered: u64,
    /// Duplicate (retransmitted) messages dropped by id.
    pub duplicates_dropped: u64,
    /// Tokens broadcast (equals restarts in the base protocol).
    pub tokens_sent: u64,
    /// Tokens received and processed.
    pub tokens_received: u64,
    /// Failures survived (restarts executed).
    pub restarts: u64,
    /// Rollbacks executed as an orphan.
    pub rollbacks: u64,
    /// Rollbacks attributed to each failure — the paper's "at most one
    /// rollback per failure" claim is checked against this map.
    pub rollbacks_by_failure: BTreeMap<FailureId, u64>,
    /// Messages replayed from the stable log (restarts and rollbacks).
    pub messages_replayed: u64,
    /// Log entries lost to crashes (the volatile suffix).
    pub log_entries_lost: u64,
    /// Postponed messages lost to crashes.
    pub postponed_lost: u64,
    /// Checkpoints written.
    pub checkpoints_taken: u64,
    /// Checkpoints written as full frames (with
    /// [`crate::DgConfig::delta_checkpoints`] off, every checkpoint).
    pub checkpoints_full: u64,
    /// Checkpoints written as delta frames against the previous frame.
    pub checkpoints_delta: u64,
    /// Encoded bytes of full checkpoint frames.
    pub checkpoint_bytes_full: u64,
    /// Encoded bytes of delta checkpoint frames.
    pub checkpoint_bytes_delta: u64,
    /// Per-section checkpoint byte breakdown: the vector-clock section.
    pub checkpoint_bytes_clock: u64,
    /// Per-section checkpoint byte breakdown: serialized application
    /// state (elided from delta frames when unchanged).
    pub checkpoint_bytes_app: u64,
    /// Per-section checkpoint byte breakdown: protocol metadata (history
    /// table, log position).
    pub checkpoint_bytes_meta: u64,
    /// Per-section checkpoint byte breakdown: sealed dedup chunks (the
    /// received-ids set; unchanged chunks travel by reference in deltas).
    pub checkpoint_bytes_dedup: u64,
    /// Per-section checkpoint byte breakdown: pending (uncommitted)
    /// outputs.
    pub checkpoint_bytes_pending: u64,
    /// Asynchronous flushes performed.
    pub flushes: u64,
    /// The subset of `flushes` performed on an idle edge (`Input::Idle`)
    /// because an output or a peer's stability query was waiting on the
    /// log, rather than on the flush tick.
    pub idle_flushes: u64,
    /// Stability queries sent: one per idle edge and peer whose stable
    /// frontier a pending output still lacks, unless one at least as
    /// high was already outstanding.
    pub stability_queries_sent: u64,
    /// Frontier frames sent in answer to a peer's stability query (on
    /// receipt if already covered, otherwise after the idle-edge flush).
    pub stability_replies_sent: u64,
    /// Bytes of log records group-committed by asynchronous flushes (the
    /// wire-honest size of every entry each flush made stable), plus
    /// synchronously-forced token records.
    pub log_bytes_flushed: u64,
    /// Send-log entries pruned by stable-clock gossip: the receiver's
    /// newest globally-stable checkpoint already covers them, so no
    /// future recovery of the receiver can need their retransmission.
    pub send_log_pruned: u64,
    /// High-water mark of the send log (retransmission extension): the
    /// most entries it ever held at once. With pruning active this
    /// plateaus under sustained load; without it, it grows with history.
    pub send_log_high_water: u64,
    /// Total bytes of piggybacked clock information on sent app messages.
    pub piggyback_bytes: u64,
    /// Total bytes of token traffic sent.
    pub token_bytes: u64,
    /// Messages retransmitted from the send history (extension).
    pub retransmitted: u64,
    /// Recovery tokens retransmitted by the reliable-delivery sublayer
    /// (the original broadcast is counted under `tokens_sent` only).
    pub token_retransmits: u64,
    /// Recovery tokens forwarded to this process's children in the
    /// originator-rooted dissemination tree.
    pub token_forwards: u64,
    /// Wire-honest count of token-channel messages this process put on
    /// the network: the initial dissemination (a broadcast counts `n-1`,
    /// a tree root's sends count one each), tree forwards, reliable-layer
    /// retransmissions, and acknowledgements. Summed across processes and
    /// divided by failures, this is the `token_msgs_per_failure` column
    /// of E15 — O(n) per failure with tree dissemination.
    pub token_wire_msgs: u64,
    /// App sends whose piggybacked stamp was priced as a v3 delta against
    /// the receiver's floor (O(Δ) components on the wire).
    pub stamp_delta_sends: u64,
    /// App sends whose stamp was priced at the full-clock encoding (first
    /// contact with the receiver, or a floor invalidated by recovery).
    pub stamp_full_sends: u64,
    /// Token acknowledgements received.
    pub token_acks_received: u64,
    /// Token acknowledgements sent (one per token receipt, duplicates
    /// included — acking a duplicate is what stops further retries).
    pub token_acks_sent: u64,
    /// Duplicate tokens suppressed by the `(process, version)` dedup.
    pub duplicate_tokens_dropped: u64,
    /// Largest retransmission backoff reached (microseconds); bounded by
    /// [`crate::DgConfig::token_backoff_cap`].
    pub max_token_backoff: u64,
    /// Outputs the application produced.
    pub outputs_emitted: u64,
    /// Outputs committed to the environment (provably stable).
    pub outputs_committed: u64,
    /// Outputs discarded because they depended on rolled-back states.
    pub outputs_rolled_back: u64,
    /// Checkpoints reclaimed by garbage collection.
    pub gc_checkpoints: u64,
    /// Log entries reclaimed by garbage collection.
    pub gc_log_entries: u64,
    /// History-table records reclaimed by garbage collection (dead
    /// versions whose tokens the frontier accounting subsumes).
    pub gc_history_records: u64,
    /// Restorations performed by this process: for each of this process's
    /// own failures, the `(version, timestamp)` of the restored state —
    /// the oracle uses this to delimit lost intervals.
    pub restorations: Vec<(Version, u64)>,
}

impl ProcessStats {
    /// Record a rollback caused by `failure`.
    pub fn record_rollback(&mut self, failure: FailureId) {
        self.rollbacks += 1;
        *self.rollbacks_by_failure.entry(failure).or_insert(0) += 1;
    }

    /// The largest number of rollbacks this process performed in response
    /// to any single failure — the Table 1 "rollbacks per failure" metric
    /// (the paper guarantees this is at most 1 for Damani–Garg).
    pub fn max_rollbacks_per_failure(&self) -> u64 {
        self.rollbacks_by_failure
            .values()
            .copied()
            .max()
            .unwrap_or(0)
    }

    /// Mean piggyback bytes per sent application message.
    pub fn mean_piggyback_bytes(&self) -> f64 {
        if self.messages_sent == 0 {
            0.0
        } else {
            self.piggyback_bytes as f64 / self.messages_sent as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rollback_accounting() {
        let mut s = ProcessStats::default();
        let f1 = FailureId {
            process: ProcessId(1),
            version: Version(0),
        };
        let f2 = FailureId {
            process: ProcessId(2),
            version: Version(0),
        };
        s.record_rollback(f1);
        s.record_rollback(f2);
        s.record_rollback(f2);
        assert_eq!(s.rollbacks, 3);
        assert_eq!(s.max_rollbacks_per_failure(), 2);
    }

    #[test]
    fn mean_piggyback() {
        let mut s = ProcessStats::default();
        assert_eq!(s.mean_piggyback_bytes(), 0.0);
        s.messages_sent = 4;
        s.piggyback_bytes = 40;
        assert_eq!(s.mean_piggyback_bytes(), 10.0);
    }
}
