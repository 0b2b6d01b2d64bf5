//! Protocol configuration.

use dg_storage::StorageCosts;
use serde::{Deserialize, Serialize};

/// Tunables of a [`crate::DgProcess`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct DgConfig {
    /// Interval between periodic checkpoints (microseconds).
    pub checkpoint_interval: u64,
    /// Interval between asynchronous log flushes (microseconds). This is
    /// the "optimism knob": a long interval means fast failure-free runs
    /// but more lost work per failure (experiment E5). It is an upper
    /// bound: under a runtime that reports idle edges
    /// ([`crate::Input::Idle`], `dg-netrun`) the log is also flushed
    /// as soon as a pending output or a peer's stability query waits on
    /// it, so the interval then only bounds how long records nobody
    /// waits for stay volatile.
    pub flush_interval: u64,
    /// Storage latencies charged to the simulation schedule.
    pub costs: StorageCosts,
    /// Enable the send-history retransmission extension (paper, Remark
    /// 1): tokens carry the restored state's full clock and peers resend
    /// messages the failed process lost from its volatile log.
    pub retransmit_lost: bool,
    /// Interval for gossiping stability frontiers, enabling output commit
    /// and garbage collection (paper Remarks). `None` disables gossip.
    /// Under a runtime that reports idle edges a process with a pending
    /// output asks the peers it depends on directly
    /// ([`crate::Wire::StabilityQuery`]), so the interval no longer sets
    /// commit latency — it bounds what a lost query or reply can cost,
    /// and paces garbage collection.
    pub gossip_interval: Option<u64>,
    /// Reclaim checkpoints, log prefixes and history records that the
    /// gossiped global stability frontier proves unnecessary (paper,
    /// Remark 2 / Wang et al.). Requires `gossip_interval`
    /// ([`crate::Engine::new`] panics otherwise).
    pub garbage_collect: bool,
    /// Reclaim history-table records of dead (token-covered) versions
    /// once the gossiped frontiers show their originator has moved on —
    /// the paper's Section 6.9 channel-flush condition, approximated by
    /// the frontier gossip. Bounds `History::total_records()` in long
    /// runs with recurring failures (the netrun soak configuration).
    /// Requires `gossip_interval` ([`crate::Engine::new`] panics
    /// otherwise).
    pub history_gc: bool,
    /// Reliable token delivery: acknowledge every received token and
    /// retransmit unacknowledged tokens with exponential backoff. The
    /// paper assumes a reliable control plane; this sublayer *implements*
    /// that assumption over lossy channels, so it is off in the base
    /// configuration and required whenever the network drops control
    /// messages. With it on and more than five processes, tokens travel
    /// an arity-4 tree rooted at the originator instead of a broadcast;
    /// the sublayer's direct retransmissions cover lost tree edges.
    pub reliable_tokens: bool,
    /// Initial retransmission timeout for unacknowledged tokens
    /// (microseconds). Doubles on every retry; each delay is shortened
    /// by a deterministic jitter of up to 25 % so processes that armed
    /// their timers in lockstep decorrelate. Retries never give up.
    pub token_retry_timeout: u64,
    /// Upper bound on the exponential backoff (microseconds).
    pub token_backoff_cap: u64,
    /// Write periodic checkpoints as *delta frames* against the previous
    /// checkpoint (dirty clock entries, changed sections) instead of full
    /// images, rebasing on a full frame every
    /// [`DgConfig::full_checkpoint_every`] frames. Deltas are charged the
    /// (cheaper) `sync_write` cost and report honest per-section byte
    /// counts through [`crate::ProcessStats`]. Off in the base
    /// configuration — the paper's protocol writes full checkpoints.
    pub delta_checkpoints: bool,
    /// With [`DgConfig::delta_checkpoints`] on: rebase with a full frame
    /// every this many checkpoints (the full frame itself counts, so `8`
    /// means one full then seven deltas). Bounds the chain a recovery
    /// must replay and the blast radius of a corrupt base frame.
    pub full_checkpoint_every: u32,
    /// Group output-commit stability sweeps: a frontier advance only
    /// marks the pending-output buffer dirty, and the O(pending · n)
    /// stability scan runs once per idle edge or flush/gossip tick
    /// instead of once per received frontier frame. Under broadcast
    /// gossip each round delivers n−1 advancing frontiers, so grouping
    /// cuts the sweep cost by that factor. The price is paid only where
    /// no idle edge comes — the simulator, or an event loop that never
    /// runs dry: there a commit waits for the next flush or gossip tick,
    /// whichever is first. Off in the base configuration — the serving
    /// runtime (`dg-service`) turns it on.
    pub grouped_commit: bool,
}

impl DgConfig {
    /// A configuration with everything optional disabled — the base
    /// protocol exactly as in Figure 4.
    pub fn base() -> DgConfig {
        DgConfig {
            checkpoint_interval: 50_000,
            flush_interval: 5_000,
            costs: StorageCosts::disk(),
            retransmit_lost: false,
            gossip_interval: None,
            garbage_collect: false,
            history_gc: false,
            reliable_tokens: false,
            token_retry_timeout: 2_000,
            token_backoff_cap: 64_000,
            delta_checkpoints: false,
            full_checkpoint_every: 8,
            grouped_commit: false,
        }
    }

    /// The base protocol with free storage — for tests that isolate
    /// protocol logic from latency effects.
    pub fn fast_test() -> DgConfig {
        DgConfig {
            costs: StorageCosts::free(),
            checkpoint_interval: 10_000,
            flush_interval: 2_000,
            ..DgConfig::base()
        }
    }

    /// The profile every serving runtime in the repo runs (netrun,
    /// `dg-service`, the benchmark): [`DgConfig::fast_test`] plus
    /// retransmission, 8 ms stability gossip, both garbage collectors
    /// and reliable tokens.
    pub fn serving() -> DgConfig {
        DgConfig::fast_test()
            .with_retransmit(true)
            .with_gossip(8_000)
            .with_gc(true)
            .with_history_gc(true)
            .with_reliable_tokens(true)
    }

    /// Builder-style checkpoint interval.
    #[must_use]
    pub fn checkpoint_every(mut self, us: u64) -> DgConfig {
        self.checkpoint_interval = us;
        self
    }

    /// Builder-style flush interval.
    #[must_use]
    pub fn flush_every(mut self, us: u64) -> DgConfig {
        self.flush_interval = us;
        self
    }

    /// Builder-style storage costs.
    #[must_use]
    pub fn with_costs(mut self, costs: StorageCosts) -> DgConfig {
        self.costs = costs;
        self
    }

    /// Builder-style retransmission toggle.
    #[must_use]
    pub fn with_retransmit(mut self, on: bool) -> DgConfig {
        self.retransmit_lost = on;
        self
    }

    /// Builder-style gossip interval.
    #[must_use]
    pub fn with_gossip(mut self, interval: u64) -> DgConfig {
        self.gossip_interval = Some(interval);
        self
    }

    /// Builder-style garbage-collection toggle (requires gossip).
    #[must_use]
    pub fn with_gc(mut self, on: bool) -> DgConfig {
        self.garbage_collect = on;
        self
    }

    /// Builder-style history-GC toggle (requires gossip).
    #[must_use]
    pub fn with_history_gc(mut self, on: bool) -> DgConfig {
        self.history_gc = on;
        self
    }

    /// Builder-style reliable-token toggle.
    #[must_use]
    pub fn with_reliable_tokens(mut self, on: bool) -> DgConfig {
        self.reliable_tokens = on;
        self
    }

    /// Builder-style token retransmission timing: initial retry timeout
    /// and backoff cap, both in microseconds.
    ///
    /// # Panics
    ///
    /// Panics if `initial` is zero or `cap < initial`.
    #[must_use]
    pub fn token_retry(mut self, initial: u64, cap: u64) -> DgConfig {
        assert!(initial > 0, "retry timeout must be positive");
        assert!(cap >= initial, "backoff cap below initial timeout");
        self.token_retry_timeout = initial;
        self.token_backoff_cap = cap;
        self
    }

    /// Builder-style delta-checkpoint toggle.
    #[must_use]
    pub fn with_delta_checkpoints(mut self, on: bool) -> DgConfig {
        self.delta_checkpoints = on;
        self
    }

    /// Builder-style full-frame rebase period for delta checkpoints.
    ///
    /// # Panics
    ///
    /// Panics if `every` is zero.
    #[must_use]
    pub fn full_every(mut self, every: u32) -> DgConfig {
        assert!(every > 0, "full-checkpoint period must be positive");
        self.full_checkpoint_every = every;
        self
    }

    /// Builder-style grouped-commit toggle (defer output-commit
    /// stability sweeps to idle edges and flush/gossip ticks).
    #[must_use]
    pub fn with_grouped_commit(mut self, on: bool) -> DgConfig {
        self.grouped_commit = on;
        self
    }
}

impl Default for DgConfig {
    fn default() -> Self {
        DgConfig::base()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builders_compose() {
        let c = DgConfig::base()
            .checkpoint_every(1)
            .flush_every(2)
            .with_costs(StorageCosts::free())
            .with_retransmit(true)
            .with_gossip(9)
            .with_gc(true);
        assert_eq!(c.checkpoint_interval, 1);
        assert_eq!(c.flush_interval, 2);
        assert_eq!(c.costs, StorageCosts::free());
        assert!(c.retransmit_lost);
        assert_eq!(c.gossip_interval, Some(9));
        assert!(c.garbage_collect);
    }

    #[test]
    fn base_is_pure_figure_4() {
        let c = DgConfig::base();
        assert!(!c.retransmit_lost);
        assert!(c.gossip_interval.is_none());
        assert!(!c.garbage_collect);
        assert!(!c.reliable_tokens);
    }

    #[test]
    fn serving_is_the_explicit_chain() {
        // The same six calls `benchmark/src/service.rs::profile` spells
        // out, so the named profile cannot drift from what is measured.
        assert_eq!(
            DgConfig::serving(),
            DgConfig::fast_test()
                .with_retransmit(true)
                .with_gossip(8_000)
                .with_gc(true)
                .with_history_gc(true)
                .with_reliable_tokens(true)
        );
    }

    #[test]
    fn token_retry_builder() {
        let c = DgConfig::base()
            .with_reliable_tokens(true)
            .token_retry(500, 8_000);
        assert!(c.reliable_tokens);
        assert_eq!(c.token_retry_timeout, 500);
        assert_eq!(c.token_backoff_cap, 8_000);
    }

    #[test]
    #[should_panic(expected = "backoff cap below initial timeout")]
    fn token_retry_validates_cap() {
        let _ = DgConfig::base().token_retry(1_000, 10);
    }

    #[test]
    fn delta_checkpoint_builders() {
        let base = DgConfig::base();
        assert!(!base.delta_checkpoints);
        assert_eq!(base.full_checkpoint_every, 8);
        let c = base.with_delta_checkpoints(true).full_every(4);
        assert!(c.delta_checkpoints);
        assert_eq!(c.full_checkpoint_every, 4);
    }

    #[test]
    #[should_panic(expected = "full-checkpoint period must be positive")]
    fn full_every_rejects_zero() {
        let _ = DgConfig::base().full_every(0);
    }

    #[test]
    fn grouped_commit_defaults_off() {
        assert!(!DgConfig::base().grouped_commit);
        assert!(DgConfig::base().with_grouped_commit(true).grouped_commit);
    }
}
