//! The sans-IO protocol engine: Figure 4 as a pure state machine.
//!
//! This module contains the *entire* Damani–Garg protocol — clocks,
//! history tables, checkpointing, replay, rollback, the reliable-token
//! sublayer, output commit and garbage collection — as a deterministic
//! state machine with a single entry point, [`Engine::handle`]:
//!
//! ```text
//!     Input  ──►  Engine  ──►  Vec<Effect>
//! ```
//!
//! All nondeterminism enters through [`Input`] (what arrived, which
//! timer fired, what time it is); everything the protocol wants done to
//! the outside world leaves as [`Effect`] values. The engine itself
//! never reads a clock, never touches a socket, never draws randomness,
//! and has **no dependency on any runtime crate** — the module compiles
//! with `dg-simnet` cfg'd out entirely (`cargo check -p dg-core
//! --no-default-features`).
//!
//! Two runtimes drive the same engine:
//!
//! * the deterministic discrete-event simulator (`dg-simnet`), through
//!   the [`crate::DgProcess`] actor adapter; and
//! * real OS threads over TCP sockets (the `dg-netrun` crate).
//!
//! Because the engine is pure, feeding it the same [`Input`] sequence
//! twice produces byte-identical [`Effect`] streams and state digests —
//! the contract the cross-runtime equivalence tests rest on (see
//! `crates/core/tests/engine_determinism.rs`).

use std::sync::Arc;

use dg_ftvc::wire as clockwire;
use dg_ftvc::{Entry, Ftvc, ProcessId, Version};
use dg_storage::delta::{content_hash, diff, DedupChunk, PendingEntry};
use dg_storage::{CheckpointImage, CheckpointStore, EventLog, LogPos, SectionBytes, SendLog};

use crate::app::{Application, Effects};
use crate::config::DgConfig;
use crate::history::History;
use crate::message::{Envelope, MsgId, Token, Wire};
use crate::output::{entry_is_stable, OutputBuffer, OutputId, PendingOutput};
use crate::stats::{FailureId, ProcessStats};

/// Timer kinds used by the protocol, public so manual drivers (the
/// exhaustive interleaving explorer) can fire them as explicit actions.
pub mod timers {
    /// Take a periodic checkpoint.
    pub const CHECKPOINT: u32 = 1;
    /// Flush the volatile log to stable storage.
    pub const FLUSH: u32 = 2;
    /// Broadcast the stability frontier (output commit / GC).
    pub const GOSSIP: u32 = 3;
    /// Retransmit unacknowledged recovery tokens (reliable delivery).
    pub const TOKEN_RETRY: u32 = 4;
}
use timers::{
    CHECKPOINT as TIMER_CHECKPOINT, FLUSH as TIMER_FLUSH, GOSSIP as TIMER_GOSSIP,
    TOKEN_RETRY as TIMER_TOKEN_RETRY,
};

/// Byte model of one durable log record's framing: length prefix plus
/// checksum, matching the file backend's on-disk record format.
const LOG_RECORD_OVERHEAD: u64 = 16;
/// Byte model of an opaque application payload inside a log record (the
/// engine is generic over the payload type; the piggybacked clock, which
/// it *can* size exactly, dominates real records).
const LOG_PAYLOAD_BYTES: u64 = 8;
/// Fanout `k` of the dissemination trees (children per node).
const TREE_FANOUT: usize = 4;
/// Jitter applied to every token retransmission delay: the percentage
/// of the nominal backoff that may be shaved off.
const TOKEN_RETRY_JITTER_PCT: u128 = 25;

/// An environmental fault done *to* a process's stable storage.
///
/// Mirrors the simulator's fault model without importing it: the actor
/// adapter translates the simulator crate's `FaultKind` into this type.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StorageFault {
    /// The newest checkpoint frame is damaged; recovery must fall back
    /// to an older intact frame.
    CorruptLatestCheckpoint,
}

/// One event fed into a protocol engine. `W` is the engine's wire type
/// (what travels between processes), `C` its external-command type.
///
/// Time never originates inside an engine: every input that can cause
/// time-dependent behaviour carries `now` (microseconds, any monotone
/// origin), so the runtime — simulated or real — is the single source
/// of nondeterminism.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Input<W, C = ()> {
    /// The process comes up for the first time.
    Start {
        /// Current time in microseconds.
        now: u64,
    },
    /// A wire message was delivered.
    Deliver {
        /// Transport-level sender.
        from: ProcessId,
        /// The message.
        wire: W,
        /// Current time in microseconds.
        now: u64,
    },
    /// A timer armed by a previous [`Effect::SetTimer`] fired.
    Tick {
        /// Timer kind (see [`timers`]).
        kind: u32,
        /// Current time in microseconds.
        now: u64,
    },
    /// An external command (e.g. a client request) addressed to this
    /// process from outside the process group.
    AppSend {
        /// Destination process of the injected send.
        to: ProcessId,
        /// Application payload to send.
        payload: C,
        /// Current time in microseconds.
        now: u64,
    },
    /// The process crashed: all volatile state dies, stable storage
    /// survives. A crashed engine produces no effects until [`Input::Restart`].
    Crash,
    /// The process restarted after a crash: recover from stable state.
    Restart {
        /// Current time in microseconds.
        now: u64,
    },
    /// Environmental storage damage (see [`StorageFault`]).
    Fault(StorageFault),
    /// The runtime has handed over everything that was queued for this
    /// process: a batch boundary. It carries nothing from outside, so a
    /// runtime may issue it after any input, or never (the simulator
    /// does not) — the timers then do the same work one interval later.
    Idle {
        /// Current time in microseconds.
        now: u64,
    },
}

/// One action a protocol engine asks its runtime to perform. `W` is the
/// wire type, `O` the type of committed external outputs.
///
/// Effects are ordered: runtimes must execute them in stream order
/// (storage-latency charges in particular delay subsequent sends).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Effect<W, O = ()> {
    /// Send `wire` to `to`. `control` marks recovery control-plane
    /// traffic (tokens, acks, frontier gossip) as opposed to
    /// application payload.
    Send {
        /// Destination process.
        to: ProcessId,
        /// The message.
        wire: W,
        /// `true` for control-plane traffic.
        control: bool,
    },
    /// Send `wire` to every *other* process on the control plane.
    Broadcast {
        /// The message.
        wire: W,
    },
    /// Arm a timer firing `delay` microseconds from now. Maintenance
    /// timers are periodic background work; runtimes may treat them as
    /// not keeping an otherwise-quiescent system alive.
    SetTimer {
        /// Microseconds from now.
        delay: u64,
        /// Timer kind handed back via [`Input::Tick`].
        kind: u32,
        /// Periodic background work (checkpoint/flush/gossip)?
        maintenance: bool,
    },
    /// A checkpoint frame was written to stable storage; charge
    /// `cost_us` of synchronous device latency.
    Checkpoint {
        /// Microseconds of storage latency to charge.
        cost_us: u64,
        /// Encoded size of the durable frame (full image or delta).
        /// Zero when the engine does not account frame bytes (delta
        /// checkpointing off).
        bytes: u64,
    },
    /// `entries` log records were written to stable storage (an
    /// asynchronous group-committed flush or a synchronous token
    /// append); charge `cost_us` of device latency.
    LogWrite {
        /// Records written.
        entries: usize,
        /// Microseconds of storage latency to charge.
        cost_us: u64,
        /// Modeled on-disk bytes of the records made stable (framing +
        /// piggybacked clocks + payload).
        bytes: u64,
    },
    /// Outputs whose dependencies became provably stable were committed
    /// to the external world, in order. Committing is itself a stable
    /// write; charge `cost_us`.
    Commit {
        /// The newly released outputs, in commit order.
        outputs: Vec<O>,
        /// Microseconds of storage latency to charge.
        cost_us: u64,
    },
}

/// A reusable effect buffer for the allocation-free engine hot path.
///
/// Runtimes create one sink, pass it to
/// [`ProtocolEngine::handle_into`] for every input, and drain it after
/// each call. The backing vector's capacity survives the drain, so a
/// steady-state input → effects → drain cycle performs **zero** heap
/// allocations once the buffer has grown to the workload's high-water
/// mark (see DESIGN.md, "Hot-path memory discipline").
///
/// The engine appends; it never reads the sink's prior contents. Effects
/// from one input are therefore always contiguous at the tail, and a
/// runtime that drains between inputs sees exactly what
/// [`ProtocolEngine::handle`] would have returned.
#[derive(Debug, Clone)]
pub struct EffectSink<W, O = ()> {
    effects: Vec<Effect<W, O>>,
}

impl<W, O> EffectSink<W, O> {
    /// An empty sink.
    pub fn new() -> EffectSink<W, O> {
        EffectSink {
            effects: Vec::new(),
        }
    }

    /// An empty sink with reserved capacity.
    pub fn with_capacity(cap: usize) -> EffectSink<W, O> {
        EffectSink {
            effects: Vec::with_capacity(cap),
        }
    }

    /// Number of undrained effects.
    pub fn len(&self) -> usize {
        self.effects.len()
    }

    /// `true` iff no effects are pending.
    pub fn is_empty(&self) -> bool {
        self.effects.is_empty()
    }

    /// The pending effects, in emission order.
    pub fn as_slice(&self) -> &[Effect<W, O>] {
        &self.effects
    }

    /// Move every effect out of `effects` onto the end of the sink,
    /// leaving `effects` empty with its capacity intact — how an engine
    /// with an internal effect buffer hands one input's effects over.
    pub fn append(&mut self, effects: &mut Vec<Effect<W, O>>) {
        self.effects.append(effects);
    }

    /// Remove and yield every pending effect in order, keeping the
    /// buffer's capacity for the next input.
    pub fn drain(&mut self) -> std::vec::Drain<'_, Effect<W, O>> {
        self.effects.drain(..)
    }

    /// Drop pending effects, keeping capacity.
    pub fn clear(&mut self) {
        self.effects.clear();
    }

    /// Consume the sink, returning the pending effects as a vector.
    pub fn into_vec(self) -> Vec<Effect<W, O>> {
        self.effects
    }
}

impl<W, O> Default for EffectSink<W, O> {
    fn default() -> Self {
        EffectSink::new()
    }
}

/// A transport-agnostic protocol engine: one `handle_into` call per
/// input, effects out, nothing else in or out.
///
/// [`Engine`] (Damani–Garg) is the primary implementation; the
/// `dg-baselines` crate ports Strom–Yemini and Peterson–Kearns onto the
/// same interface so every runtime can host any of the three.
pub trait ProtocolEngine {
    /// Messages this engine exchanges with its peers.
    type Wire: Clone;
    /// External-command payload accepted via [`Input::AppSend`].
    type Cmd;
    /// Committed external outputs released via [`Effect::Commit`].
    type Out;

    /// Advance the state machine by one input, appending the effects
    /// the runtime must execute, in order, to `sink`. Runtimes reuse one
    /// sink across inputs.
    fn handle_into(
        &mut self,
        input: Input<Self::Wire, Self::Cmd>,
        sink: &mut EffectSink<Self::Wire, Self::Out>,
    );

    /// [`ProtocolEngine::handle_into`] with a fresh sink per call, for
    /// tests and one-shot callers that want the effects as a vector.
    fn handle(
        &mut self,
        input: Input<Self::Wire, Self::Cmd>,
    ) -> Vec<Effect<Self::Wire, Self::Out>> {
        let mut sink = EffectSink::new();
        self.handle_into(input, &mut sink);
        sink.into_vec()
    }

    /// A fingerprint of the engine state, for determinism checks and
    /// schedule pruning.
    fn state_digest(&self) -> u64;
}

/// Read-only view of a Damani–Garg engine's protocol state, independent
/// of which runtime hosts it. The consistency oracle (`dg-harness`)
/// checks the paper's theorems through this trait, so the same checks
/// run against simulated actors and real networked nodes.
pub trait EngineView {
    /// This process's id.
    fn id(&self) -> ProcessId;
    /// The current fault-tolerant vector clock.
    fn clock(&self) -> &Ftvc;
    /// The current history tables.
    fn history(&self) -> &History;
    /// The current incarnation number.
    fn version(&self) -> Version;
    /// Protocol statistics.
    fn stats(&self) -> &ProcessStats;
    /// Messages currently postponed awaiting tokens.
    fn postponed_len(&self) -> usize;
    /// Own recovery tokens not yet acknowledged by every peer.
    fn pending_token_count(&self) -> usize;
    /// Full-state fingerprint.
    fn state_digest(&self) -> u64;
}

/// One entry of the unified stable log: received application messages
/// (flushed asynchronously), received tokens (logged synchronously),
/// and externally injected sends (logged so replay reproduces the
/// clock trajectory).
#[derive(Debug, Clone)]
enum LogEvent<M> {
    Message(Envelope<M>),
    /// A received token. `rolled_back` records that receiving it made
    /// this process roll back within its current version, which ticks
    /// the own timestamp (Figure 2, "On Rollback"). Replay repeats the
    /// tick; without it every later timestamp would come out one lower
    /// than the one peers depend on and the frontier announced stable.
    Token {
        token: Token,
        rolled_back: bool,
    },
    AppSend(ProcessId, M),
}

/// A checkpoint: the mutually consistent snapshot of application state,
/// clock, history, and the log position up to which the snapshot
/// accounts for deliveries.
#[derive(Debug, Clone)]
struct Checkpoint<A: Application> {
    app: A,
    clock: Ftvc,
    history: History,
    log_end: LogPos,
    /// Ids of deliveries reflected in `app` — without these, a restored
    /// state could double-accept a duplicated or retransmitted message it
    /// already absorbed before the checkpoint (found by the conservation
    /// fuzz tests). Stored as immutable chunks shared with the live
    /// [`ReceivedIds`], so taking a checkpoint costs O(chunks), not
    /// O(ids).
    received_ids: Vec<Arc<[MsgId]>>,
    /// Outputs that were still awaiting commit when the checkpoint was
    /// taken. The checkpoint subsumes the application steps that emitted
    /// them, so restart replay — which starts at `log_end` — can never
    /// regenerate them; without this snapshot a crash would silently
    /// drop every output emitted before the checkpoint but not yet
    /// released, breaking exactly-once output commit (observed as gaps
    /// in the committed sequence of the real-network smoke test).
    /// Restoration re-emits them through [`OutputBuffer::emit`], whose
    /// id dedup skips any that committed between checkpoint and crash.
    pending_outputs: Vec<PendingOutput<A::Msg>>,
}

/// The receive-dedup set, structured so checkpoint snapshots are cheap.
///
/// Naively cloning a `HashSet` of every delivered message id into every
/// checkpoint makes the checkpoint tick O(deliveries) — the single
/// largest steady-state cost once the hot path stops allocating. Instead
/// the set is split three ways:
///
/// * `all` — the complete set, used for every membership probe. It is
///   never cloned.
/// * `active` — ids inserted since the last checkpoint, in insertion
///   order. Sealing it into an immutable chunk is O(recent).
/// * `sealed` — immutable `Arc<[MsgId]>` chunks shared structurally with
///   every checkpoint that references them. Small adjacent chunks are
///   merged geometrically (a chunk absorbs its neighbour when it is no
///   smaller than half of it) and freeze once they reach
///   [`ReceivedIds::EXTENT_CAP`] ids, so the list stays short, each id
///   is copied O(log EXTENT_CAP) times over the whole run — plain
///   `memcpy`s, never rehashing — and frozen extents keep a stable
///   identity that delta checkpoint frames exploit.
///
/// Sealed chunks are only *read* when a checkpoint is restored (rebuild
/// `all`, then log replay re-inserts the post-checkpoint suffix), so they
/// need no lookup structure. Ids removed for rollback re-injection are
/// always post-checkpoint — delivered after the restored snapshot's log
/// cursor — and therefore never live in a sealed chunk.
#[derive(Debug, Clone, Default)]
struct ReceivedIds {
    all: crate::fasthash::FxHashSet<MsgId>,
    active: Vec<MsgId>,
    sealed: Vec<Arc<[MsgId]>>,
}

impl ReceivedIds {
    /// Sealed chunks at least this many ids long are frozen: excluded
    /// from further merging so their identity (content hash) is stable
    /// for the lifetime of the process and delta checkpoints carry them
    /// by reference. See [`ReceivedIds::snapshot`].
    const EXTENT_CAP: usize = 128;

    fn contains(&self, id: &MsgId) -> bool {
        self.all.contains(id)
    }

    fn insert(&mut self, id: MsgId) {
        if self.all.insert(id) {
            self.active.push(id);
        }
    }

    /// Forget `id` so a rollback suffix can be re-received. The id is
    /// necessarily in the unsealed region (see the type docs).
    fn remove(&mut self, id: &MsgId) {
        if self.all.remove(id) {
            if let Some(pos) = self.active.iter().rposition(|x| x == id) {
                self.active.swap_remove(pos);
            }
            debug_assert!(
                !self.sealed.iter().any(|c| c.contains(id)),
                "removed a receive-dedup id that a checkpoint still references"
            );
        }
    }

    fn clear(&mut self) {
        self.all.clear();
        self.active.clear();
        self.sealed.clear();
    }

    /// Seal the active region and return the chunk list for a checkpoint:
    /// O(recent ids + log chunks), independent of the set's total size.
    ///
    /// The merge policy trades chunk count against rewrite churn. Small
    /// chunks merge geometrically (keeping the list logarithmic), but a
    /// chunk that reaches [`ReceivedIds::EXTENT_CAP`] ids freezes: it is
    /// never rewritten again, so its content hash stays stable and delta
    /// checkpoint frames ship it by reference forever. Each id is thus
    /// rewritten O(log EXTENT_CAP) times total, independent of how long
    /// the process runs.
    fn snapshot(&mut self) -> Vec<Arc<[MsgId]>> {
        if !self.active.is_empty() {
            self.sealed.push(Arc::from(self.active.as_slice()));
            self.active.clear();
            while self.sealed.len() >= 2 {
                let older = self.sealed[self.sealed.len() - 2].len();
                let newer = self.sealed[self.sealed.len() - 1].len();
                if older >= Self::EXTENT_CAP || older > 2 * newer {
                    break;
                }
                let b = self.sealed.pop().expect("two chunks present");
                let a = self.sealed.pop().expect("two chunks present");
                let mut merged = Vec::with_capacity(a.len() + b.len());
                merged.extend_from_slice(&a);
                merged.extend_from_slice(&b);
                self.sealed.push(merged.into());
            }
        }
        self.sealed.clone()
    }

    /// Adopt a checkpoint's chunk list as the full set; the caller
    /// replays the stable log to re-insert the post-checkpoint suffix.
    fn restore(&mut self, sealed: Vec<Arc<[MsgId]>>) {
        self.all.clear();
        self.active.clear();
        for chunk in &sealed {
            self.all.extend(chunk.iter().copied());
        }
        self.sealed = sealed;
    }
}

/// One of this process's own recovery tokens still awaiting
/// acknowledgement from some peers (reliable-delivery sublayer). Kept
/// with the stable state: it is metadata about a token that is already
/// durably implied by the restoration record, so a crash must not erase
/// the obligation to keep retransmitting it.
#[derive(Debug, Clone)]
struct PendingToken {
    token: Token,
    /// Peers that have not acknowledged this token yet.
    unacked: Vec<ProcessId>,
    /// Absolute time of the next retransmission.
    next_retry: u64,
    /// Current nominal retransmission timeout; doubles per retry, capped
    /// at [`DgConfig::token_backoff_cap`]. The actual delay is this
    /// value minus a deterministic jitter ([`jittered_backoff`]).
    backoff: u64,
    /// Retry rounds already performed (the original broadcast is round
    /// zero and is not counted).
    retries: u32,
}

/// Deterministic jitter for a token retransmission delay: shave up to
/// [`TOKEN_RETRY_JITTER_PCT`]% off `backoff`, with the shave drawn by
/// hashing the retrying process, the token identity and the attempt
/// number. Pure function of its arguments — the engine stays RNG-free,
/// replays stay bit-identical — yet processes that armed their retries
/// in lockstep (a healed partition, a mass restart) decorrelate because
/// `me` differs.
fn jittered_backoff(me: ProcessId, entry: Entry, attempt: u32, backoff: u64) -> u64 {
    let span = ((u128::from(backoff) * TOKEN_RETRY_JITTER_PCT) / 100) as u64;
    if span == 0 {
        return backoff.max(1);
    }
    let mut h = crate::fasthash::FxHasher::default();
    use std::hash::{Hash, Hasher};
    (me.0, entry.version.0, entry.ts, attempt).hash(&mut h);
    (backoff - h.finish() % (span + 1)).max(1)
}

/// Children of `me` in the deterministic k-ary dissemination tree rooted
/// at `root`: ids are rotated so the root sits at position 0, and the
/// children of position `p` are positions `k*p + 1 ..= k*p + k`. Pure
/// function of the ids, so every process derives the same tree with no
/// membership protocol; a token fans out from its originator in
/// `ceil(log_k n)` hops with each process sending at most `k` messages.
fn tree_children(
    me: ProcessId,
    root: ProcessId,
    n: usize,
    k: usize,
) -> impl Iterator<Item = ProcessId> {
    let pos = (usize::from(me.0) + n - usize::from(root.0)) % n;
    (k * pos + 1..=k * pos + k)
        .take_while(move |&c| c < n)
        .map(move |c| ProcessId(((usize::from(root.0) + c) % n) as u16))
}

/// The Damani–Garg optimistic recovery protocol around a piecewise-
/// deterministic [`Application`], as a pure [`ProtocolEngine`].
///
/// `Clone` snapshots the entire process (volatile and stable state),
/// which the exhaustive interleaving explorer uses to branch executions
/// and the determinism tests use to fork input streams.
#[derive(Clone)]
pub struct Engine<A: Application> {
    me: ProcessId,
    n: usize,
    config: DgConfig,

    // ---- volatile state (destroyed by a crash) ----
    app: A,
    clock: Ftvc,
    history: History,
    postponed: Vec<Envelope<A::Msg>>,
    received_ids: ReceivedIds,
    outputs: OutputBuffer<A::Msg>,
    send_log: SendLog<(ProcessId, Envelope<A::Msg>)>,
    /// Gossiped stable frontiers, one per process.
    frontiers: Vec<Entry>,
    /// Own stable frontier: own clock entry at the last flush/checkpoint.
    my_stable_entry: Entry,
    /// A rollback has happened since `my_stable_entry` was taken, so it
    /// may name a timestamp of the discarded timeline that a new state
    /// now reuses. Stability queries are then not answered on receipt
    /// but by the next idle-edge flush.
    stable_entry_outdated: bool,
    /// Gossiped stable-checkpoint clocks: for each peer, the full clock
    /// of its newest *globally stable* checkpoint. Drives send-log
    /// pruning (a logged send covered by the receiver's stable clock can
    /// never need retransmission). Purely a cache — losing it only
    /// delays pruning — so it dies with the other volatile state.
    stable_clocks: Vec<Option<Ftvc>>,
    /// Own entry of the last stable-checkpoint clock this process
    /// gossiped; gossip is re-broadcast only when it advances.
    last_stable_gossip: Option<Entry>,
    /// Stability on demand, asking side: per peer, the highest of its
    /// entries this process has sent a [`Wire::StabilityQuery`] for and
    /// not had a frontier frame back from. A further query goes out only
    /// for a higher entry. Like `query_waiters` a hint table: cleared by
    /// the gossip tick, a crash and a rollback, so a lost query or reply
    /// delays a commit by one gossip interval at most.
    queries_outstanding: Vec<Option<Entry>>,
    /// Stability on demand, answering side: per peer, the highest own
    /// entry it asked about that `my_stable_entry` did not cover yet.
    /// The next [`Input::Idle`] flushes the log and answers.
    query_waiters: Vec<Option<Entry>>,
    down: bool,

    // ---- stable state (survives crashes) ----
    checkpoints: CheckpointStore<Checkpoint<A>>,
    log: EventLog<LogEvent<A::Msg>>,
    /// Own tokens awaiting acknowledgement (empty unless
    /// [`DgConfig::reliable_tokens`] is on).
    pending_tokens: Vec<PendingToken>,

    stats: ProcessStats,

    /// The durable image of the newest stored checkpoint frame, diffed
    /// against by the next delta frame ([`DgConfig::delta_checkpoints`]).
    /// `None` forces the next frame to be full — the initial state, and
    /// re-established at every point where the newest frame stops being
    /// a valid delta base (crash, rollback, restart, storage fault).
    last_image: Option<CheckpointImage>,
    /// Delta frames written since the last full frame (rebase counter).
    delta_since_full: u32,
    /// Modeled on-disk bytes of log records appended but not yet made
    /// stable — drained into [`Effect::LogWrite::bytes`] by the next
    /// group-committed flush. O(1) arithmetic per append; reset by a
    /// crash together with the volatile log suffix it describes.
    pending_flush_bytes: u64,

    /// Per-sender Δ floors: the last clock from each clock owner that
    /// was merged in full (clock, history, obsolete and deliverability
    /// tests). A fresh arrival from that owner is diffed against its
    /// floor and only the components that moved — O(Δ), typically 1–2
    /// regardless of n — need the per-component machinery. `None` means
    /// the next arrival takes the full O(n) path and re-establishes the
    /// floor. Purely a cache: every invalidation site
    /// ([`Engine::invalidate_recv_floors`]) marks a point where clock or
    /// history state can regress, so correctness never depends on a
    /// floor being present.
    recv_floors: Vec<Option<Ftvc>>,
    /// Scratch for the dirty component indices of the current arrival;
    /// empty between inputs, capacity retained.
    dirty_scratch: Vec<u16>,

    /// Send-side Δ journal: the indices of non-own clock components that
    /// moved since [`Engine::journal_base`], appended by every delivery
    /// (the merge records them as a byproduct). For a receiver whose
    /// [`Engine::send_epochs`] entry is a valid journal position, the
    /// components its next stamp must carry are exactly the journal
    /// suffix past that position plus the own component — which prices a
    /// v3 delta stamp in O(Δ) without ever diffing two O(n) clocks.
    /// Compacted by dropping the oldest half once it exceeds ~8n entries
    /// (stale receivers simply fall back to one full stamp).
    send_journal: Vec<u16>,
    /// Absolute position of `send_journal[0]` in the journal's lifetime
    /// coordinate. Resetting the journal (`journal_base += len + 1`)
    /// strands every epoch below the new base, invalidating all
    /// receivers at once in O(1) — done wherever the clock mutates
    /// outside the journaled paths (rollback, restart, crash, replay).
    journal_base: u64,
    /// Per-receiver journal positions: the absolute journal length at
    /// the last stamp sent to that peer. Below `journal_base` (including
    /// the initial `0` against base `1`) means "unknown — price the next
    /// stamp at the full encoding".
    send_epochs: Vec<u64>,
    /// Scratch for assembling a stamp's dirty-index set (journal suffix,
    /// sorted + deduped); empty between sends, capacity retained.
    stamp_scratch: Vec<u16>,
    /// Component bitmask (`ceil(n / 64)` words) scratch behind
    /// `stamp_scratch`: folds the journal suffix's duplicates and yields
    /// the indices already sorted, replacing a sort-and-dedup pass with
    /// O(Δ + n/64) bit ops. Zeroed between sends.
    stamp_mask: Vec<u64>,
    /// Gossip ticks seen, driving the rotating fallback peer of the
    /// tree-gossip schedule. Volatile; a reset only re-phases the
    /// rotation.
    gossip_ticks: u64,
    /// Scratch for the current tick's gossip targets (tree neighbours
    /// plus the rotating fallback peer); capacity retained.
    gossip_peers: Vec<ProcessId>,

    /// Reused release buffer for the output-commit sweep: newly
    /// committed values land here and are handed off to the `Commit`
    /// effect in one exact-size move, so an empty sweep allocates
    /// nothing and a releasing sweep costs one allocation per *batch*,
    /// not per output.
    commit_scratch: Vec<A::Msg>,
    /// With [`DgConfig::grouped_commit`]: a frontier advance happened
    /// since the last stability sweep. The sweep itself is deferred to
    /// the next flush/gossip tick.
    commit_dirty: bool,
    /// Effects accumulated during the current `handle_into` call; always
    /// drained before it returns.
    effects: Vec<Effect<Wire<A::Msg>, A::Msg>>,
    /// Scratch buffer for [`Engine::deliver_postponed`]'s retry sweep;
    /// empty between calls, capacity retained.
    postponed_scratch: Vec<Envelope<A::Msg>>,
    /// Scratch buffer handed to [`Application::on_message_into`]; empty
    /// between calls, capacity retained, so a replying application
    /// allocates nothing per delivery in steady state.
    app_effects: Effects<A::Msg>,
}

impl<A: Application> Engine<A> {
    /// Create the engine for process `me` of an `n`-process system
    /// around `app`.
    ///
    /// # Panics
    ///
    /// Panics if `me.index() >= n`, or if `config` turns on
    /// `garbage_collect` or `history_gc` without a `gossip_interval` —
    /// both reclaim only what gossiped frontiers prove stable, so without
    /// gossip they would be silently inert.
    pub fn new(me: ProcessId, n: usize, app: A, config: DgConfig) -> Engine<A> {
        assert!(me.index() < n, "process id out of range");
        assert!(
            !config.garbage_collect || config.gossip_interval.is_some(),
            "DgConfig::garbage_collect requires gossip_interval"
        );
        assert!(
            !config.history_gc || config.gossip_interval.is_some(),
            "DgConfig::history_gc requires gossip_interval"
        );
        let clock = Ftvc::new(me, n);
        let my_stable_entry = clock.own_entry();
        Engine {
            me,
            n,
            config,
            app,
            clock,
            history: History::new(me, n),
            postponed: Vec::new(),
            received_ids: ReceivedIds::default(),
            outputs: OutputBuffer::new(),
            send_log: SendLog::new(),
            frontiers: vec![Entry::ZERO; n],
            my_stable_entry,
            stable_entry_outdated: false,
            stable_clocks: vec![None; n],
            last_stable_gossip: None,
            queries_outstanding: vec![None; n],
            query_waiters: vec![None; n],
            down: false,
            checkpoints: CheckpointStore::new(),
            log: EventLog::new(),
            pending_tokens: Vec::new(),
            stats: ProcessStats::default(),
            last_image: None,
            delta_since_full: 0,
            pending_flush_bytes: 0,
            recv_floors: vec![None; n],
            dirty_scratch: Vec::new(),
            send_journal: Vec::new(),
            journal_base: 1,
            send_epochs: vec![0; n],
            stamp_scratch: Vec::new(),
            stamp_mask: vec![0; n.div_ceil(64)],
            gossip_ticks: 0,
            gossip_peers: Vec::new(),
            commit_scratch: Vec::new(),
            commit_dirty: false,
            effects: Vec::new(),
            postponed_scratch: Vec::new(),
            app_effects: Effects::none(),
        }
    }

    /// The application state.
    pub fn app(&self) -> &A {
        &self.app
    }

    /// The system size this engine was configured for.
    pub fn system_size(&self) -> usize {
        self.n
    }

    /// The engine's configuration.
    pub fn config(&self) -> &DgConfig {
        &self.config
    }

    /// `true` while crashed (between [`Input::Crash`] and
    /// [`Input::Restart`]).
    pub fn is_down(&self) -> bool {
        self.down
    }

    /// Committed external outputs, in commit order.
    pub fn committed_outputs(&self) -> impl Iterator<Item = &A::Msg> {
        self.outputs.committed()
    }

    /// Outputs still awaiting commit.
    pub fn pending_outputs(&self) -> usize {
        self.outputs.pending_len()
    }

    /// The full output buffer (committed and pending), for runtimes and
    /// diagnostics that need more than the counts.
    pub fn output_buffer(&self) -> &OutputBuffer<A::Msg> {
        &self.outputs
    }

    /// The gossiped stability frontier this engine currently knows for
    /// process `j` (its own entry included).
    pub fn known_frontier(&self, j: ProcessId) -> Entry {
        self.frontiers[j.index()]
    }

    /// Number of retained checkpoints (after GC).
    pub fn checkpoint_count(&self) -> usize {
        self.checkpoints.len()
    }

    /// Live entries currently in the stable/volatile log.
    pub fn log_len(&self) -> usize {
        self.log.live_len()
    }

    // ----------------------------------------------------------------
    // Effect emission helpers.
    // ----------------------------------------------------------------

    fn eff_send(&mut self, to: ProcessId, wire: Wire<A::Msg>, control: bool) {
        self.effects.push(Effect::Send { to, wire, control });
    }

    fn eff_broadcast(&mut self, wire: Wire<A::Msg>) {
        self.effects.push(Effect::Broadcast { wire });
    }

    fn eff_timer(&mut self, delay: u64, kind: u32, maintenance: bool) {
        self.effects.push(Effect::SetTimer {
            delay,
            kind,
            maintenance,
        });
    }

    // ----------------------------------------------------------------
    // Effects: stamping sends, queueing outputs.
    // ----------------------------------------------------------------

    /// Emit application effects produced by a *live* (non-replay) step.
    /// Drains `effects` in place, so callers can reuse the buffer.
    fn emit_effects(&mut self, effects: &mut Effects<A::Msg>) {
        for (index, value) in effects.outputs.drain(..).enumerate() {
            let id = OutputId {
                entry: self.clock.own_entry(),
                index: index as u32,
            };
            if self.outputs.emit(id, value, self.clock.clone()) {
                self.stats.outputs_emitted += 1;
            }
        }
        for (to, payload) in effects.sends.drain(..) {
            let stamp = self.clock.stamp_for_send();
            let env = Envelope {
                payload,
                clock: stamp,
            };
            self.account_send_stamp(to, &env);
            if self.config.retransmit_lost {
                self.send_log.record((to, env.clone()));
            }
            self.eff_send(to, Wire::App(env), false);
        }
    }

    /// Price the piggybacked stamp of an outgoing App envelope and
    /// advance the receiver's send epoch. With a valid epoch, the charge
    /// is the v3 dirty-index frame over the components that moved since the
    /// last stamp to this receiver (the journal suffix plus the own
    /// component) — O(Δ) work and O(Δ) wire bytes; otherwise the full
    /// encoding (O(1) work via the clock's cached wire length).
    fn account_send_stamp(&mut self, to: ProcessId, env: &Envelope<A::Msg>) {
        self.stats.messages_sent += 1;
        let epoch = self.send_epochs[to.index()];
        let bytes = if epoch >= self.journal_base {
            let start = (epoch - self.journal_base) as usize;
            for w in &mut self.stamp_mask {
                *w = 0;
            }
            for &i in &self.send_journal[start..] {
                self.stamp_mask[usize::from(i >> 6)] |= 1 << (i & 63);
            }
            self.stamp_mask[usize::from(self.me.0 >> 6)] |= 1 << (self.me.0 & 63);
            self.stamp_scratch.clear();
            for (w, &word) in self.stamp_mask.iter().enumerate() {
                let mut bits = word;
                while bits != 0 {
                    let i = (w * 64) as u16 + bits.trailing_zeros() as u16;
                    self.stamp_scratch.push(i);
                    bits &= bits - 1;
                }
            }
            self.stats.stamp_delta_sends += 1;
            clockwire::ftvc_dirty_wire_len_at(&env.clock, &self.stamp_scratch)
        } else {
            self.stats.stamp_full_sends += 1;
            env.piggyback_bytes()
        };
        self.stats.piggyback_bytes += bytes as u64;
        self.send_epochs[to.index()] = self.journal_base + self.send_journal.len() as u64;
    }

    /// Bound the send journal: once it exceeds ~8n entries, drop the
    /// oldest half. Receivers whose epoch pointed into the dropped
    /// prefix fall below `journal_base` and pay one full stamp next
    /// send. Amortized O(1) per delivery; the journal's capacity
    /// plateaus, preserving the zero-allocation steady state.
    fn compact_journal(&mut self) {
        let cap = 8 * self.n.max(8);
        if self.send_journal.len() > cap {
            let drop = self.send_journal.len() / 2;
            self.send_journal.drain(..drop);
            self.journal_base += drop as u64;
        }
    }

    /// Re-emit effects during replay: sends are suppressed (their
    /// originals already left this process before the failure/rollback),
    /// but the clock must advance exactly as it did originally, and
    /// outputs are re-queued (deduplicated against committed ids).
    ///
    /// `rebuild_send_log` is true only for **restart** replay, where the
    /// crash erased the volatile send history. Rollback replay must NOT
    /// re-record: the send log is intact, and the replayed trajectory can
    /// diverge from the original (the orphan taint is excluded), which
    /// would plant a second, differently-stamped copy of each send.
    fn emit_effects_replay(&mut self, effects: &mut Effects<A::Msg>, rebuild_send_log: bool) {
        for (index, value) in effects.outputs.drain(..).enumerate() {
            let id = OutputId {
                entry: self.clock.own_entry(),
                index: index as u32,
            };
            self.outputs.emit(id, value, self.clock.clone());
        }
        for (to, payload) in effects.sends.drain(..) {
            let stamp = self.clock.stamp_for_send();
            if self.config.retransmit_lost && rebuild_send_log {
                let env = Envelope {
                    payload,
                    clock: stamp,
                };
                self.send_log.record((to, env));
            }
        }
    }

    // ----------------------------------------------------------------
    // Receive path (Figure 4, "Receive message").
    // ----------------------------------------------------------------

    fn receive_app(&mut self, env: Envelope<A::Msg>) {
        // Duplicate suppression (needed for the retransmission extension;
        // harmless otherwise — live ids are unique per send). A duplicate
        // may already be waiting in the postponed queue, not just among
        // past deliveries. The id digests the full clock, so compute it
        // once per arrival and thread it through to delivery.
        let id = env.id();
        let dup = self.received_ids.contains(&id) || self.postponed.iter().any(|p| p.id() == id);
        if dup {
            self.stats.duplicates_dropped += 1;
            return;
        }
        // Δ fast path: diff against the sender's floor (the last clock
        // from it merged in full) and run the obsolete and deliverability
        // tests only on the components that moved since. Between floor
        // establishment and now, token records and frontiers can only
        // have grown monotonically (every regression point invalidates
        // the floors), so an unchanged component that passed both tests
        // then still passes them now.
        let sender = env.sender();
        if let Some(floor) = self.recv_floors[sender.index()].as_ref() {
            // One fused read-only scan: collect the dirty components and
            // run the obsolete (Lemma 4) and deliverability (Section
            // 6.1) tests on each as it is found. An obsolete component
            // discards immediately (the full-scan path discards whether
            // or not the message is also blocked); a blocked component
            // only sets a flag, because a later component may still
            // prove the message obsolete.
            let theirs = env.clock.entries();
            let base = floor.entries();
            self.dirty_scratch.clear();
            let mut blocked = false;
            for (i, (&e, &f)) in theirs.iter().zip(base).enumerate() {
                if e == f {
                    continue;
                }
                let j = ProcessId(i as u16);
                if self.history.entry_is_obsolete(j, e) {
                    self.stats.obsolete_discarded += 1;
                    return;
                }
                if !blocked {
                    let covered = if j == self.me {
                        e.version <= self.clock.version()
                    } else {
                        e.version <= self.history.token_frontier(j)
                    };
                    blocked = !covered;
                }
                self.dirty_scratch.push(i as u16);
            }
            if blocked {
                self.stats.postponed += 1;
                self.postponed.push(env);
                return;
            }
            self.deliver_delta(env, id);
            return;
        }
        // Full O(n) path: no floor for this sender yet (first contact, or
        // invalidated by recovery/GC). Obsolete test (Lemma 4).
        if self.history.message_is_obsolete(&env.clock) {
            self.stats.obsolete_discarded += 1;
            return;
        }
        // Deliverability test (Section 6.1): every version the clock
        // mentions must be token-covered below it.
        if !self.deliverable(&env.clock) {
            self.stats.postponed += 1;
            self.postponed.push(env);
            return;
        }
        self.deliver(env, id);
    }

    fn deliverable(&self, clock: &Ftvc) -> bool {
        clock.iter().all(|(j, entry)| {
            if j == self.me {
                // Own versions are always known locally.
                entry.version <= self.clock.version()
            } else {
                entry.version <= self.history.token_frontier(j)
            }
        })
    }

    /// Deliver a message live: log it, merge clock and history, run the
    /// application, emit its effects.
    fn deliver(&mut self, env: Envelope<A::Msg>, id: MsgId) {
        debug_assert_eq!(id, env.id(), "delivery id must match the envelope");
        self.received_ids.insert(id);
        self.history.observe_clock(&env.clock);
        // The merge records the components it moved into the send
        // journal as a byproduct — the O(Δ) feed of the delta-stamp
        // pricing, no extra scan.
        self.clock
            .observe_recording(&env.clock, &mut self.send_journal);
        self.compact_journal();
        self.finish_delivery(env);
    }

    /// Deliver a message whose dirty components (vs. the sender's floor)
    /// are in `dirty_scratch`: identical outcome to [`Engine::deliver`],
    /// touching only O(Δ) clock and history entries. The unchanged
    /// components satisfy `incoming[i] == floor[i] <= clock[i]` and are
    /// already recorded in history at ≥ their timestamps (the floor was
    /// merged in full), so skipping them skips only no-ops.
    fn deliver_delta(&mut self, env: Envelope<A::Msg>, id: MsgId) {
        debug_assert_eq!(id, env.id(), "delivery id must match the envelope");
        self.received_ids.insert(id);
        self.history
            .observe_entries(&env.clock, &self.dirty_scratch);
        self.clock.observe_at(&env.clock, &self.dirty_scratch);
        // `dirty_scratch` overapproximates the moved components
        // (incoming ≠ floor, even if the join was a no-op) — a sound
        // superset for delta-stamp pricing.
        self.send_journal.extend_from_slice(&self.dirty_scratch);
        self.compact_journal();
        self.finish_delivery(env);
    }

    /// Common tail of the two delivery paths: refresh the sender's Δ
    /// floor (the envelope's clock is now merged in full), log the
    /// envelope **by move** (no clone — the application reads its
    /// payload back out of the log slot), then run the application and
    /// emit its effects.
    fn finish_delivery(&mut self, env: Envelope<A::Msg>) {
        let sender = env.sender();
        let slot = &mut self.recv_floors[sender.index()];
        if let Some(floor) = slot.as_mut() {
            floor.clone_from(&env.clock);
        } else {
            *slot = Some(env.clock.clone());
        }
        self.stats.messages_delivered += 1;
        let mut eff = std::mem::take(&mut self.app_effects);
        debug_assert!(eff.is_empty(), "app effect scratch leaked");
        self.pending_flush_bytes +=
            LOG_RECORD_OVERHEAD + env.piggyback_bytes() as u64 + LOG_PAYLOAD_BYTES;
        self.log.append_volatile(LogEvent::Message(env));
        if let Some(LogEvent::Message(env)) = self.log.last() {
            self.app
                .on_message_into(self.me, sender, &env.payload, self.n, &mut eff);
        } else {
            unreachable!("the envelope was just appended");
        }
        self.emit_effects(&mut eff);
        self.app_effects = eff;
    }

    /// Drop every per-sender Δ floor. Called wherever the monotonicity
    /// the floors rely on breaks: a new token record (flips obsolete
    /// outcomes), rollback/restart (clock and history regress), crash
    /// (volatile state dies), and history GC (reclaims the records that
    /// made unchanged components skippable).
    fn invalidate_recv_floors(&mut self) {
        for floor in &mut self.recv_floors {
            *floor = None;
        }
        // The same regression points break the send journal's invariant
        // (the clock is about to change through unjournaled paths —
        // rollback restore, restart replay, token-triggered re-injection)
        // — strand every receiver's epoch so the next stamp to each peer
        // is priced in full.
        self.journal_base += self.send_journal.len() as u64 + 1;
        self.send_journal.clear();
    }

    /// Run the application's message handler into the engine's reusable
    /// effect scratch. The scratch is taken out of `self` (so the app
    /// and the engine never alias it) and must be stored back by the
    /// caller once emitted — by then it is drained, capacity intact.
    fn app_on_message(&mut self, from: ProcessId, payload: &A::Msg) -> Effects<A::Msg> {
        let mut eff = std::mem::take(&mut self.app_effects);
        debug_assert!(eff.is_empty(), "app effect scratch leaked");
        self.app
            .on_message_into(self.me, from, payload, self.n, &mut eff);
        eff
    }

    /// Re-deliver a logged message during replay: identical state
    /// transitions, suppressed sends, no re-logging.
    fn replay_deliver(&mut self, env: &Envelope<A::Msg>, rebuild_send_log: bool) {
        self.received_ids.insert(env.id());
        self.history.observe_clock(&env.clock);
        self.clock.observe(&env.clock);
        self.stats.messages_replayed += 1;
        let from = env.sender();
        let mut effects = self.app_on_message(from, &env.payload);
        self.emit_effects_replay(&mut effects, rebuild_send_log);
        self.app_effects = effects;
    }

    /// Replay a logged external send: tick the clock exactly as the
    /// original [`Input::AppSend`] did; never resend (the original left
    /// before the failure). Restart replay rebuilds the send history.
    fn replay_app_send(&mut self, to: ProcessId, payload: &A::Msg, rebuild_send_log: bool) {
        let stamp = self.clock.stamp_for_send();
        if self.config.retransmit_lost && rebuild_send_log {
            self.send_log.record((
                to,
                Envelope {
                    payload: payload.clone(),
                    clock: stamp,
                },
            ));
        }
    }

    // ----------------------------------------------------------------
    // External sends (Input::AppSend).
    // ----------------------------------------------------------------

    /// An externally injected application send (a client request routed
    /// through this process). Logged volatile so replay reproduces the
    /// clock trajectory; if the entry is lost in a crash, the token's
    /// restoration point cuts off every consequence, exactly as for a
    /// lost delivery.
    fn app_send(&mut self, to: ProcessId, payload: A::Msg) {
        self.pending_flush_bytes += LOG_RECORD_OVERHEAD + LOG_PAYLOAD_BYTES + 2;
        self.log
            .append_volatile(LogEvent::AppSend(to, payload.clone()));
        let stamp = self.clock.stamp_for_send();
        let env = Envelope {
            payload,
            clock: stamp,
        };
        self.account_send_stamp(to, &env);
        if self.config.retransmit_lost {
            self.send_log.record((to, env.clone()));
        }
        self.eff_send(to, Wire::App(env), false);
    }

    // ----------------------------------------------------------------
    // Token path (Figure 4, "Receive token").
    // ----------------------------------------------------------------

    fn receive_token(&mut self, token: Token) {
        self.stats.tokens_received += 1;
        // Deduplicate re-injected or retransmitted tokens: one history
        // record per `(process, version)` with an exact `(version, ts)`
        // match makes token handling idempotent, so the reliable-delivery
        // sublayer may retransmit freely.
        if self.history.has_token(token.from, token.entry) {
            self.stats.duplicate_tokens_dropped += 1;
            self.deliver_postponed();
            return;
        }
        // A new token record can flip the obsolete test for components
        // the Δ floors marked as settled; a rollback regresses clock and
        // history outright. Either way the floors are stale now.
        self.invalidate_recv_floors();
        // Orphan test (Lemma 3) — roll back *before* recording the token,
        // so the rollback's checkpoint search sees the pre-token history.
        let (suffix, rolled_back) = if self.history.orphaned_by(token.from, token.entry) {
            self.rollback(token.from, token.entry)
        } else {
            (Vec::new(), false)
        };
        // Tokens are logged synchronously (Section 6.3); appending after
        // the rollback keeps the token past the truncation point so a
        // later restart replays it.
        let token_bytes = LOG_RECORD_OVERHEAD + token.wire_bytes() as u64;
        self.log.append_stable(LogEvent::Token {
            token: token.clone(),
            rolled_back,
        });
        self.stats.log_bytes_flushed += token_bytes;
        self.effects.push(Effect::LogWrite {
            entries: 1,
            cost_us: self.config.costs.sync_write,
            bytes: token_bytes,
        });
        self.history.record_token(token.from, token.entry);
        // Re-inject the rollback suffix through the normal paths: the
        // token is now recorded, so obsolete messages are filtered and
        // surviving ones are re-delivered (paper Remark: "no message is
        // lost" in a rollback).
        for event in suffix {
            match event {
                LogEvent::Message(env) => {
                    // The suffix was already received once; clear its id so
                    // duplicate suppression does not eat the re-delivery.
                    self.received_ids.remove(&env.id());
                    self.receive_app(env);
                }
                LogEvent::Token { token, .. } => self.receive_token(token),
                LogEvent::AppSend(to, payload) => {
                    // The original send left before the rollback; replay
                    // the tick only (rollback replay, send log intact).
                    self.replay_app_send(to, &payload, false);
                    self.pending_flush_bytes += LOG_RECORD_OVERHEAD + LOG_PAYLOAD_BYTES + 2;
                    self.log.append_volatile(LogEvent::AppSend(to, payload));
                }
            }
        }
        // Deliver messages that were held for this token (Section 6.3).
        self.deliver_postponed();
        // Retransmission extension (paper Remark 1).
        if self.config.retransmit_lost {
            if let Some(restored) = token.full_clock.clone() {
                self.retransmit_lost_messages(token.from, &restored);
            }
        }
    }

    fn deliver_postponed(&mut self) {
        loop {
            let mut progressed = false;
            // Sweep through a reusable scratch buffer: `waiting` takes the
            // queued envelopes, still-blocked ones are pushed back into
            // `self.postponed` (which now holds the scratch's capacity),
            // and the drained buffer becomes the next sweep's scratch —
            // no allocation once both vectors reach the high-water mark.
            let mut waiting = std::mem::take(&mut self.postponed_scratch);
            debug_assert!(waiting.is_empty(), "postponed scratch leaked");
            std::mem::swap(&mut waiting, &mut self.postponed);
            for env in waiting.drain(..) {
                let id = env.id();
                if self.received_ids.contains(&id) {
                    self.stats.duplicates_dropped += 1;
                    progressed = true;
                } else if self.history.message_is_obsolete(&env.clock) {
                    self.stats.obsolete_discarded += 1;
                    progressed = true;
                } else if self.deliverable(&env.clock) {
                    self.stats.postponed_delivered += 1;
                    self.deliver(env, id);
                    progressed = true;
                } else {
                    self.postponed.push(env);
                }
            }
            self.postponed_scratch = waiting;
            if !progressed || self.postponed.is_empty() {
                return;
            }
        }
    }

    fn retransmit_lost_messages(&mut self, failed: ProcessId, restored: &Ftvc) {
        let mut to_resend = Vec::new();
        for (to, env) in self.send_log.iter() {
            if *to != failed {
                continue;
            }
            // If the send is causally reflected in the restored state, the
            // failed process recovered it; otherwise it may be lost.
            let covered = env.clock.happened_before(restored);
            if !covered && !self.history.message_is_obsolete(&env.clock) {
                to_resend.push(env.clone());
            }
        }
        for env in to_resend {
            self.stats.retransmitted += 1;
            self.eff_send(failed, Wire::Resend(env), false);
        }
    }

    // ----------------------------------------------------------------
    // Reliable token delivery (ack / retransmit / backoff).
    // ----------------------------------------------------------------

    /// Start tracking a freshly broadcast token for acknowledgement.
    fn track_token(&mut self, token: Token, now: u64) {
        let unacked: Vec<ProcessId> = ProcessId::all(self.n).filter(|&p| p != self.me).collect();
        if unacked.is_empty() {
            return;
        }
        let backoff = self.config.token_retry_timeout;
        let delay = jittered_backoff(self.me, token.entry, 0, backoff);
        self.pending_tokens.push(PendingToken {
            token,
            unacked,
            next_retry: now + delay,
            backoff,
            retries: 0,
        });
        self.arm_token_retry(now);
    }

    /// Arm a one-shot (non-maintenance) timer for the earliest pending
    /// retransmission. Being non-maintenance, it keeps the simulation
    /// alive until every token is acknowledged — quiescence then implies
    /// delivery. Redundant timers are harmless: a firing with nothing due
    /// re-arms only if something is still pending.
    fn arm_token_retry(&mut self, now: u64) {
        let Some(due) = self.pending_tokens.iter().map(|p| p.next_retry).min() else {
            return;
        };
        let delay = due.saturating_sub(now).max(1);
        self.eff_timer(delay, TIMER_TOKEN_RETRY, false);
    }

    /// Retransmit every due token to its unacknowledged peers, doubling
    /// its nominal backoff (capped) and drawing the next delay with
    /// deterministic jitter, then re-arm for the next deadline. Retries
    /// never give up: quiescence-based suites rely on pending tokens
    /// draining to zero only via acknowledgement.
    fn retry_pending_tokens(&mut self, now: u64) {
        let cap = self.config.token_backoff_cap;
        let me = self.me;
        let mut resend: Vec<(ProcessId, Token)> = Vec::new();
        let mut max_backoff = 0u64;
        for p in &mut self.pending_tokens {
            if p.next_retry > now {
                continue;
            }
            for &peer in &p.unacked {
                resend.push((peer, p.token.clone()));
            }
            p.retries += 1;
            p.backoff = (p.backoff * 2).min(cap);
            max_backoff = max_backoff.max(p.backoff);
            p.next_retry = now + jittered_backoff(me, p.token.entry, p.retries, p.backoff);
        }
        self.stats.max_token_backoff = self.stats.max_token_backoff.max(max_backoff);
        for (peer, token) in resend {
            self.stats.token_retransmits += 1;
            self.stats.token_wire_msgs += 1;
            self.stats.token_bytes += token.wire_bytes() as u64;
            self.eff_send(peer, Wire::Token(token), true);
        }
        self.arm_token_retry(now);
    }

    /// An acknowledgement for our token `entry` arrived from `from`.
    fn receive_token_ack(&mut self, from: ProcessId, entry: Entry) {
        self.stats.token_acks_received += 1;
        for p in &mut self.pending_tokens {
            if p.token.entry == entry {
                p.unacked.retain(|&q| q != from);
            }
        }
        self.pending_tokens.retain(|p| !p.unacked.is_empty());
    }

    // ----------------------------------------------------------------
    // Rollback (Figure 4, "Rollback").
    // ----------------------------------------------------------------

    /// Roll back to the maximum non-orphan state with respect to failure
    /// `(j, token_entry)`. Returns the discarded log suffix for
    /// re-injection by the caller, and whether the own timestamp was
    /// ticked (it is unless the rollback crossed a restart boundary).
    ///
    /// Deviation from Figure 4's literal text, documented in DESIGN.md:
    /// the checkpoint condition uses Lemma 3's strict inequality (a
    /// recorded dependency with `ts == token.ts` is the restored state
    /// itself, which is not lost), and the discarded suffix is re-injected
    /// rather than silently dropped.
    fn rollback(&mut self, j: ProcessId, token_entry: Entry) -> (Vec<LogEvent<A::Msg>>, bool) {
        self.stats.record_rollback(FailureId {
            process: j,
            version: token_entry.version,
        });
        self.clear_stability_queries();
        let current_version = self.clock.version();
        // "log all the unlogged messages to the stable storage" — nothing
        // is lost in a rollback. The bundled flush's bytes are accounted;
        // its latency is subsumed by the rollback itself, as before.
        self.log.flush();
        self.stats.log_bytes_flushed += self.pending_flush_bytes;
        self.pending_flush_bytes = 0;

        // Find the maximum *usable* checkpoint whose history is not
        // orphaned (a storage fault may have damaged newer frames, and a
        // damaged frame takes any delta chain stacked on it down too).
        let (ckpt_id, ckpt) = self
            .checkpoints
            .iter_newest_first_usable()
            .find(|(_, c)| !c.history.orphaned_by(j, token_entry))
            .map(|(id, c)| (id, c.clone()))
            .expect("the initial checkpoint is never an orphan");
        self.checkpoints.discard_after(ckpt_id);
        // The frames just discarded include the one `last_image`
        // described; the next periodic frame must rebase on a full image.
        self.last_image = None;
        self.delta_since_full = 0;

        self.app = ckpt.app;
        self.clock = ckpt.clock;
        self.history = ckpt.history;
        self.received_ids.restore(ckpt.received_ids);
        // Only the orphan suffix of the pending-output buffer is invalid;
        // older uncommitted outputs predate the rollback point and must
        // survive (the replay below re-emits from the checkpoint only).
        self.stats.outputs_rolled_back += self.outputs.discard_orphans(j, token_entry) as u64;

        // Replay logged events while the resulting state stays non-orphan;
        // stop at the first message that would re-orphan us.
        let mut stop = self.log.end();
        let mut stopped = false;
        let entries: Vec<(LogPos, LogEvent<A::Msg>)> = self
            .log
            .live_entries_from(ckpt.log_end)
            .map(|(pos, e)| (pos, e.clone()))
            .collect();
        for (pos, event) in entries {
            match event {
                LogEvent::Message(env) => {
                    let e = env.clock.entry(j);
                    if e.version == token_entry.version && e.ts > token_entry.ts {
                        stop = pos;
                        stopped = true;
                        break;
                    }
                    self.replay_deliver(&env, false);
                }
                LogEvent::Token {
                    token: t,
                    rolled_back,
                } => {
                    debug_assert!(
                        !self.history.orphaned_by(t.from, t.entry),
                        "a logged token cannot orphan the replayed prefix"
                    );
                    if rolled_back {
                        self.clock.rolled_back();
                    }
                    self.history.record_token(t.from, t.entry);
                }
                LogEvent::AppSend(to, payload) => {
                    self.replay_app_send(to, &payload, false);
                }
            }
        }
        let suffix = if stopped {
            self.log.split_off_suffix(stop)
        } else {
            Vec::new()
        };
        let ticked = if self.clock.version() < current_version {
            // The search crossed a restart boundary: the post-failure
            // restored state was itself an orphan of `j`'s failure (its
            // token arrived only after our restart, so the post-restart
            // checkpoint baked the orphan suffix in). The old versions
            // were already declared dead by our own tokens — a process
            // must never compute in one again — so re-establish the
            // current incarnation on top of the rebuilt prefix. Timestamp
            // reuse within the current version is the same situation as
            // an ordinary rollback and is disambiguated the same way
            // (clock digests in message ids; the orphan lineage is
            // filtered by `j`'s token at every receiver).
            let me = self.me;
            for &(version, ts) in &self.stats.restorations {
                if version >= self.clock.version() {
                    self.history.record_token(me, Entry { version, ts });
                }
            }
            while self.clock.version() < current_version {
                self.clock.restart();
            }
            // A fresh checkpoint pins the re-established version, exactly
            // like the checkpoint at the end of a restart (Section 6.2).
            self.checkpoints.take(Checkpoint {
                app: self.app.clone(),
                clock: self.clock.clone(),
                history: self.history.clone(),
                log_end: self.log.end(),
                received_ids: self.received_ids.snapshot(),
                pending_outputs: self.outputs.pending().cloned().collect(),
            });
            self.stats.checkpoints_taken += 1;
            false
        } else {
            // The post-rollback state ticks its timestamp but keeps its
            // version (Figure 2, "On Rollback").
            self.clock.rolled_back();
            true
        };
        // Timestamps between here and `my_stable_entry` are about to be
        // reused by new, unlogged states; until the next flush moves the
        // frontier onto this timeline it cannot answer for them.
        self.stable_entry_outdated = true;
        (suffix, ticked)
    }

    // ----------------------------------------------------------------
    // Checkpointing, flushing, gossip.
    // ----------------------------------------------------------------

    fn take_checkpoint(&mut self) {
        // "At the time of checkpointing, all unlogged messages are also
        // logged." The bundled flush's bytes are accounted; its latency
        // rides on the checkpoint write, as before.
        self.log.flush();
        self.stats.log_bytes_flushed += self.pending_flush_bytes;
        self.pending_flush_bytes = 0;
        self.mark_stable_here();
        self.store_checkpoint_frame();
    }

    /// Snapshot the process and store its durable checkpoint frame. With
    /// [`DgConfig::delta_checkpoints`] off this is the classic full
    /// checkpoint, unmetered. With it on, the frame is a delta against
    /// the previous frame's image (rebased on a full frame every
    /// [`DgConfig::full_checkpoint_every`] frames), per-section bytes are
    /// recorded in [`ProcessStats`], and deltas are charged the cheaper
    /// forced-write latency.
    fn store_checkpoint_frame(&mut self) {
        let ckpt = Checkpoint {
            app: self.app.clone(),
            clock: self.clock.clone(),
            history: self.history.clone(),
            log_end: self.log.end(),
            received_ids: self.received_ids.snapshot(),
            pending_outputs: self.outputs.pending().cloned().collect(),
        };
        self.stats.checkpoints_taken += 1;
        if !self.config.delta_checkpoints {
            self.checkpoints.take(ckpt);
            self.effects.push(Effect::Checkpoint {
                cost_us: self.config.costs.checkpoint_write,
                bytes: 0,
            });
            return;
        }
        let image = self.build_image(&ckpt);
        let rebase_due = self.delta_since_full + 1 >= self.config.full_checkpoint_every;
        let (cost_us, bytes) = match self.last_image.take() {
            Some(prev) if !rebase_due => {
                let base = self.checkpoints.latest().map_or(0, |(id, _)| id.0);
                let sections = diff(base, &prev, &image).section_bytes();
                // Frame tag + base-pointer framing on top of the sections.
                let bytes = sections.total() + 9;
                self.checkpoints.take_delta(ckpt);
                self.delta_since_full += 1;
                self.stats.checkpoints_delta += 1;
                self.stats.checkpoint_bytes_delta += bytes;
                self.record_section_bytes(sections);
                (self.config.costs.sync_write, bytes)
            }
            _ => {
                let sections = image.section_bytes();
                let bytes = sections.total() + 1;
                self.checkpoints.take(ckpt);
                self.delta_since_full = 0;
                self.stats.checkpoints_full += 1;
                self.stats.checkpoint_bytes_full += bytes;
                self.record_section_bytes(sections);
                (self.config.costs.checkpoint_write, bytes)
            }
        };
        self.last_image = Some(image);
        self.effects.push(Effect::Checkpoint { cost_us, bytes });
    }

    fn record_section_bytes(&mut self, s: SectionBytes) {
        self.stats.checkpoint_bytes_clock += s.clock;
        self.stats.checkpoint_bytes_app += s.app;
        self.stats.checkpoint_bytes_meta += s.meta;
        self.stats.checkpoint_bytes_dedup += s.dedup;
        self.stats.checkpoint_bytes_pending += s.pending;
    }

    /// Materialize the checkpoint's durable image: the sectioned encoding
    /// whose bytes the storage path accounts and whose unchanged parts
    /// the next delta frame elides.
    fn build_image(&self, ckpt: &Checkpoint<A>) -> CheckpointImage {
        let clock = ckpt
            .clock
            .iter()
            .map(|(_, e)| (e.version.0, e.ts))
            .collect();
        let mut app = Vec::new();
        ckpt.app.encode_state(&mut app);
        // Meta: the history tables plus the log cursor — carried in full
        // by every frame (they mutate on every delivery and stay small).
        let mut meta = Vec::new();
        for j in ProcessId::all(self.n) {
            for (v, r) in ckpt.history.records_for(j) {
                meta.extend_from_slice(&v.0.to_le_bytes());
                meta.extend_from_slice(&r.ts.to_le_bytes());
                meta.push(match r.kind {
                    crate::history::RecordKind::Message => 1,
                    crate::history::RecordKind::Token => 2,
                });
            }
        }
        meta.extend_from_slice(&ckpt.log_end.0.to_le_bytes());
        // Dedup: the sealed receive-id chunks, content-addressed. The
        // chunks are immutable `Arc`s shared with the live set, so a
        // chunk carried over from the previous checkpoint re-encodes to
        // identical bytes and travels by reference in a delta frame.
        let dedup = ckpt
            .received_ids
            .iter()
            .map(|chunk| {
                let mut bytes = Vec::with_capacity(chunk.len() * 22);
                for id in chunk.iter() {
                    bytes.extend_from_slice(&id.sender.0.to_le_bytes());
                    bytes.extend_from_slice(&id.entry.version.0.to_le_bytes());
                    bytes.extend_from_slice(&id.entry.ts.to_le_bytes());
                    bytes.extend_from_slice(&id.clock_digest.to_le_bytes());
                }
                DedupChunk {
                    hash: content_hash(&bytes),
                    bytes,
                }
            })
            .collect();
        // Pending outputs, keyed by their stable output id so a delta
        // frame expresses commits as removals and fresh emissions as
        // additions. The record carries the id, the commit-clock digest
        // and a payload placeholder (the engine is payload-generic).
        let pending = ckpt
            .pending_outputs
            .iter()
            .map(|p| {
                let mut bytes = Vec::with_capacity(32);
                bytes.extend_from_slice(&p.id.entry.version.0.to_le_bytes());
                bytes.extend_from_slice(&p.id.entry.ts.to_le_bytes());
                bytes.extend_from_slice(&p.id.index.to_le_bytes());
                let key = content_hash(&bytes);
                // O(1): the clock's incrementally maintained digest stands
                // in for the former per-component FNV scan.
                bytes.extend_from_slice(&p.clock.digest().to_le_bytes());
                bytes.extend_from_slice(&[0u8; 8]);
                PendingEntry { key, bytes }
            })
            .collect();
        CheckpointImage {
            clock,
            app,
            meta,
            dedup,
            pending,
        }
    }

    fn arm_timers(&mut self) {
        self.eff_timer(self.config.checkpoint_interval, TIMER_CHECKPOINT, true);
        self.eff_timer(self.config.flush_interval, TIMER_FLUSH, true);
        if let Some(gossip) = self.config.gossip_interval {
            self.eff_timer(gossip, TIMER_GOSSIP, true);
        }
    }

    /// Commit every output whose dependencies the current frontiers
    /// prove stable, then (optionally) garbage-collect.
    fn commit_and_gc(&mut self) {
        self.commit_sweep();
        if self.config.garbage_collect {
            self.collect_garbage();
        }
        if self.config.history_gc {
            self.gc_history();
        }
    }

    /// The output-commit sweep alone: release every pending output whose
    /// dependencies the current frontiers prove stable.
    fn commit_sweep(&mut self) {
        self.frontiers[self.me.index()] = self.my_stable_entry;
        self.commit_dirty = false;
        debug_assert!(self.commit_scratch.is_empty());
        let released =
            self.outputs
                .try_commit_into(&self.frontiers, &self.history, &mut self.commit_scratch);
        if released > 0 {
            self.stats.outputs_committed += released as u64;
            // Committing is an external, stable action. `split_off(0)`
            // moves the batch into an exact-size vector and leaves the
            // scratch buffer's capacity behind for the next sweep.
            self.effects.push(Effect::Commit {
                outputs: self.commit_scratch.split_off(0),
                cost_us: self.config.costs.sync_write,
            });
        }
    }

    /// Group-commit the volatile log suffix and advance the own stable
    /// frontier to the current state. Returns `true` iff there was
    /// anything to write.
    fn flush_log(&mut self) -> bool {
        let flushed = self.log.flush();
        if flushed > 0 {
            let bytes = self.pending_flush_bytes;
            self.pending_flush_bytes = 0;
            self.stats.flushes += 1;
            self.stats.log_bytes_flushed += bytes;
            // Group commit: the batch's entries share one seek + one
            // barrier (`flush_batch`) plus the per-entry transfer — not
            // one forced write per record.
            self.effects.push(Effect::LogWrite {
                entries: flushed,
                cost_us: self.config.costs.flush_batch
                    + self.config.costs.flush_per_entry * flushed as u64,
                bytes,
            });
        }
        self.mark_stable_here();
        flushed > 0
    }

    /// The log was just flushed: the current state is the stable frontier.
    fn mark_stable_here(&mut self) {
        self.my_stable_entry = self.clock.own_entry();
        self.stable_entry_outdated = false;
    }

    // ----------------------------------------------------------------
    // Stability on demand (Input::Idle, Wire::StabilityQuery).
    // ----------------------------------------------------------------

    /// The runtime ran dry. If someone is waiting on this process's log
    /// — its own pending outputs, or a peer that asked — do now what the
    /// flush and gossip ticks would do later: flush, answer, sweep, and
    /// ask the peers whose frontiers the surviving outputs still lack.
    /// With nobody waiting the log stays volatile until the flush tick,
    /// as the paper's optimistic logging has it.
    fn on_idle(&mut self) {
        if self.down {
            return;
        }
        let asked = self.query_waiters.iter().any(Option::is_some);
        if self.outputs.pending_len() == 0 && !asked {
            return;
        }
        if self.flush_log() {
            self.stats.idle_flushes += 1;
        }
        if asked {
            for i in 0..self.n {
                if self.query_waiters[i].is_some_and(|e| e <= self.my_stable_entry) {
                    self.query_waiters[i] = None;
                    self.send_frontier_to(ProcessId(i as u16));
                }
            }
        }
        if self.outputs.pending_len() > 0 {
            // Commit only: reclamation stays on the ticks.
            self.commit_sweep();
            self.query_lacking_frontiers();
        }
    }

    /// For each peer, ask about the highest of its entries a pending
    /// output depends on and its known frontier does not reach — unless
    /// a query at least that high is already outstanding. An entry of a
    /// version below the frontier's is not asked about: only that
    /// version's token can settle it.
    fn query_lacking_frontiers(&mut self) {
        for i in 0..self.n {
            if i == self.me.index() {
                continue;
            }
            let j = ProcessId(i as u16);
            let Some(entry) = self.outputs.pending().map(|p| p.clock.entry(j)).max() else {
                return;
            };
            if entry <= self.frontiers[i] || self.queries_outstanding[i] >= Some(entry) {
                continue;
            }
            self.queries_outstanding[i] = Some(entry);
            self.stats.stability_queries_sent += 1;
            self.eff_send(j, Wire::StabilityQuery(entry), true);
        }
    }

    /// A peer wants to hear when `entry` of ours is stable: answer now
    /// if it is, otherwise at the next idle edge (which flushes).
    fn receive_stability_query(&mut self, from: ProcessId, entry: Entry) {
        if from.index() >= self.n || from == self.me {
            return;
        }
        if entry <= self.my_stable_entry && !self.stable_entry_outdated {
            self.send_frontier_to(from);
        } else {
            let waiting = &mut self.query_waiters[from.index()];
            *waiting = (*waiting).max(Some(entry));
        }
    }

    /// Answer a stability query with the same frame the gossip tick
    /// sends: the whole frontier vector, so one answer also settles the
    /// third-party entries the asker would otherwise ask about next.
    fn send_frontier_to(&mut self, to: ProcessId) {
        self.stats.stability_replies_sent += 1;
        let wire = self.frontier_wire();
        self.eff_send(to, wire, true);
    }

    /// This process's stability knowledge as one gossip frame.
    fn frontier_wire(&mut self) -> Wire<A::Msg> {
        if self.n > 2 {
            self.frontiers[self.me.index()] = self.my_stable_entry;
            Wire::FrontierVec(self.frontiers.clone())
        } else {
            Wire::Frontier(self.me, self.my_stable_entry)
        }
    }

    /// Forget every outstanding and waiting stability query. Called
    /// where the entries they name may have stopped meaning anything
    /// (crash, rollback) and on every gossip tick, which bounds what a
    /// lost query or reply can cost to one gossip interval.
    fn clear_stability_queries(&mut self) {
        self.queries_outstanding.fill(None);
        self.query_waiters.fill(None);
    }

    fn receive_frontier(&mut self, from: ProcessId, p: ProcessId, entry: Entry) {
        let solicited = self.take_outstanding_query(from);
        let current = &mut self.frontiers[p.index()];
        if entry <= *current {
            // A stale or duplicate gossip frame carries no new stability
            // information; skip the commit/GC sweep it would trigger.
            return;
        }
        *current = entry;
        self.frontier_advanced(solicited);
    }

    /// A peer sent its merged frontier vector (tree gossip). Every
    /// component is a true monotone fact about some process's stability,
    /// so the componentwise max of what we knew and what arrived is
    /// itself a vector of true facts — aggregation never invents
    /// stability.
    fn receive_frontier_vec(&mut self, from: ProcessId, v: &[Entry]) {
        let solicited = self.take_outstanding_query(from);
        if v.len() != self.n {
            return;
        }
        let mut advanced = false;
        for (i, &e) in v.iter().enumerate() {
            if i == self.me.index() {
                continue;
            }
            let current = &mut self.frontiers[i];
            if e > *current {
                *current = e;
                advanced = true;
            }
        }
        if advanced {
            self.frontier_advanced(solicited);
        }
    }

    /// A peer's frontier moved: sweep now, or (grouped commit) leave a
    /// note for the next idle edge or tick. An answer this process asked
    /// for (`solicited`) only commits, like the idle edge that asked:
    /// reclamation is not latency and keeps its old triggers, unsolicited
    /// gossip and the ticks. It also has stragglers to outlive — a
    /// restarted process asks at once, and history GC on the first answer
    /// would reclaim its own token record while orphan messages of the
    /// dead version are still queued behind that answer, to be accepted
    /// because nothing marks them obsolete any more.
    fn frontier_advanced(&mut self, solicited: bool) {
        if self.config.grouped_commit {
            self.commit_dirty = true;
        } else if solicited {
            self.commit_sweep();
        } else {
            self.commit_and_gc();
        }
    }

    /// `from` sent a frontier frame: if a stability query to it was
    /// outstanding, this is (taken to be) its answer.
    fn take_outstanding_query(&mut self, from: ProcessId) -> bool {
        self.queries_outstanding
            .get_mut(from.index())
            .is_some_and(|asked| asked.take().is_some())
    }

    /// `true` when recovery tokens travel the originator-rooted tree
    /// instead of a broadcast. Requires the reliable-delivery sublayer —
    /// its direct retransmissions to unacknowledged peers are the
    /// broadcast fallback when a tree edge or a mid-tree forwarder is
    /// down — and a system large enough that the tree actually saves
    /// anything (with `n - 1 <= k` the root's children are all peers and
    /// the tree *is* the broadcast).
    fn token_tree_active(&self) -> bool {
        self.config.reliable_tokens && self.n - 1 > TREE_FANOUT
    }

    /// Fill `self.gossip_peers` with this tick's gossip targets: parent
    /// and children in the static tree rooted at process 0, plus one
    /// rotating fallback peer (`me + 1 + tick mod (n-1)`). The tree
    /// carries the steady-state traffic in O(n) edges per round; the
    /// rotation guarantees every ordered pair of live processes talks
    /// directly within `n - 1` ticks, so gossip converges even if the
    /// tree is partitioned by failures.
    fn collect_gossip_peers(&mut self) {
        self.gossip_peers.clear();
        if self.n < 2 {
            return;
        }
        let k = TREE_FANOUT;
        let pos = self.me.index();
        if pos > 0 {
            self.gossip_peers.push(ProcessId(((pos - 1) / k) as u16));
        }
        for c in (k * pos + 1..=k * pos + k).take_while(|&c| c < self.n) {
            self.gossip_peers.push(ProcessId(c as u16));
        }
        let rot = (pos + 1 + self.gossip_ticks as usize % (self.n - 1)) % self.n;
        let rot = ProcessId(rot as u16);
        if !self.gossip_peers.contains(&rot) {
            self.gossip_peers.push(rot);
        }
    }

    /// Broadcast the full clock of our newest globally-stable checkpoint
    /// when it advanced since the last gossip (retransmission extension
    /// only — without a send log on the peers there is nothing to prune).
    /// Such a checkpoint is never rolled past (paper, Remark 2), so every
    /// future restored clock of this process dominates it; peers may
    /// therefore drop logged sends it covers.
    fn gossip_stable_clock(&mut self) {
        self.frontiers[self.me.index()] = self.my_stable_entry;
        let Some(stable) = self
            .checkpoints
            .iter_newest_first()
            .find(|(_, c)| {
                c.clock.iter().all(|(j, dep)| {
                    entry_is_stable(dep, self.frontiers[j.index()], &self.history, j)
                })
            })
            .map(|(_, c)| c.clock.clone())
        else {
            return;
        };
        let own = stable.own_entry();
        if self.last_stable_gossip.is_some_and(|prev| own <= prev) {
            return;
        }
        self.last_stable_gossip = Some(own);
        if self.n > 2 {
            // Seed the tree neighbours (plus the rotating peer); peers
            // relay on advance, so the flood reaches everyone in O(n)
            // messages total and terminates by monotonicity.
            self.collect_gossip_peers();
            for idx in 0..self.gossip_peers.len() {
                let peer = self.gossip_peers[idx];
                let clock = stable.clone();
                self.eff_send(peer, Wire::StableClock(self.me, clock), true);
            }
        } else {
            self.eff_broadcast(Wire::StableClock(self.me, stable));
        }
    }

    /// A peer gossiped the clock of its newest globally-stable
    /// checkpoint; remember the newest per peer (the periodic ticks
    /// prune the send log against it). `from` is the transport-level
    /// sender (the relaying neighbour), `p` the clock's originator.
    fn receive_stable_clock(&mut self, from: ProcessId, p: ProcessId, clock: Ftvc) {
        if p == self.me {
            return;
        }
        let slot = &mut self.stable_clocks[p.index()];
        if slot
            .as_ref()
            .is_some_and(|old| clock.own_entry() <= old.own_entry())
        {
            return;
        }
        *slot = Some(clock.clone());
        // Tree relay: pass a *new* fact on to our own tree neighbours
        // (minus whoever sent it and the originator). Relaying only on
        // advance makes the flood terminate; the per-peer newest check
        // above dedups crossing copies.
        if self.n > 2 {
            self.collect_gossip_peers();
            for idx in 0..self.gossip_peers.len() {
                let peer = self.gossip_peers[idx];
                if peer == from || peer == p {
                    continue;
                }
                self.eff_send(peer, Wire::StableClock(p, clock.clone()), true);
            }
        }
        // No prune here: pruning is memory-reclamation only, and the
        // periodic flush/gossip ticks already run the full pass. Pruning
        // per received StableClock made every hop of the stability flood
        // rescan the whole send log — O(flood · |log| · n) per gossip
        // round at scale.
    }

    /// Prune the retransmission send log against the gossiped stable
    /// clocks: an entry addressed to `j` whose clock happened-before
    /// `j`'s stable-checkpoint clock `L_j` can never be retransmitted —
    /// every future restored clock `R` of `j` satisfies `L_j ≤ R`, so the
    /// covered test `env.clock.happened_before(R)` would skip the entry
    /// anyway. Behaviour-preserving by construction; only the memory
    /// high-water mark changes.
    fn prune_send_log(&mut self) {
        self.stats.send_log_high_water = self
            .stats
            .send_log_high_water
            .max(self.send_log.high_water() as u64);
        if self.send_log.is_empty() || self.stable_clocks.iter().all(Option::is_none) {
            return;
        }
        let stable_clocks = &self.stable_clocks;
        let me = self.me;
        let pruned = self.send_log.prune_to(|(to, env)| {
            stable_clocks[to.index()].as_ref().is_some_and(|l| {
                // Cheap reject before the O(n) dominance test: dominance
                // requires our own component to be covered, and own
                // components are monotone in log order, so only the
                // prunable prefix of each destination's subsequence ever
                // pays the full scan.
                env.clock.own_entry() <= l.entries()[me.index()] && env.clock.happened_before(l)
            })
        });
        self.stats.send_log_pruned += pruned as u64;
    }

    /// Reclaim checkpoints, log prefix, and history records made obsolete
    /// by global stability: the newest checkpoint whose full clock is
    /// stable can never be rolled past, so everything older is garbage
    /// (paper, Remark 2).
    fn collect_garbage(&mut self) {
        let stable_ckpt = self.checkpoints.iter_newest_first().find(|(_, c)| {
            c.clock
                .iter()
                .all(|(j, dep)| entry_is_stable(dep, self.frontiers[j.index()], &self.history, j))
        });
        if let Some((id, c)) = stable_ckpt {
            let log_floor = c.log_end;
            let ckpts = self.checkpoints.gc_before(id);
            let entries = self.log.gc_before(log_floor);
            self.stats.gc_checkpoints += ckpts as u64;
            self.stats.gc_log_entries += entries as u64;
        }
    }

    /// Reclaim history records of dead versions: once a process's own
    /// gossiped frontier has moved to version `v`, every version of it
    /// strictly below `min(v, local clock dependency)` is
    /// dead-and-restored history whose tokens the frontier accounting
    /// (see [`History::gc_versions_below`]) subsumes — the paper's
    /// Section 6.9 channel-flush condition, approximated by gossip. The
    /// clock bound keeps the "history dominates the clock" invariant
    /// the oracle checks; the token-frontier cap inside
    /// `gc_versions_below` guarantees deliverability never regresses.
    ///
    /// The bound is additionally capped at the oldest version of `j` any
    /// *pending output* still depends on: the stability test for a
    /// dependency on a superseded version ([`entry_is_stable`]) consults
    /// exactly the token record GC would reclaim, and a pending output —
    /// unlike a checkpoint — is never superseded by a newer one, so
    /// reclaiming a record it needs would block its commit forever.
    fn gc_history(&mut self) {
        let mut reclaimed = 0usize;
        for j in ProcessId::all(self.n) {
            let mut bound = self.frontiers[j.index()]
                .version
                .min(self.clock.entry(j).version);
            if let Some(v) = self
                .outputs
                .pending()
                .map(|p| p.clock.entry(j).version)
                .min()
            {
                bound = bound.min(v);
            }
            let gced = self.history.gc_versions_below(j, bound);
            reclaimed += gced;
            self.stats.gc_history_records += gced as u64;
        }
        if reclaimed > 0 {
            // Reclaimed records are exactly the ones the Δ floors lean on
            // for skipping unchanged components; drop the floors so the
            // next arrival per sender re-records through the full path.
            self.invalidate_recv_floors();
        }
    }

    // ----------------------------------------------------------------
    // Input dispatch.
    // ----------------------------------------------------------------

    /// Advance the state machine, leaving the produced effects in
    /// `self.effects`.
    fn dispatch(&mut self, input: Input<Wire<A::Msg>, A::Msg>) {
        self.stats.inputs += u64::from(!matches!(input, Input::Idle { .. }));
        match input {
            Input::Idle { .. } => self.on_idle(),
            Input::Start { .. } => self.on_start(),
            Input::Deliver { from, wire, .. } => self.on_deliver(from, wire),
            Input::Tick { kind, now } => self.on_tick(kind, now),
            Input::AppSend { to, payload, .. } => self.app_send(to, payload),
            Input::Crash => self.on_crash(),
            Input::Restart { now } => self.on_restart(now),
            Input::Fault(kind) => self.on_fault(kind),
        }
    }

    fn on_start(&mut self) {
        let mut effects = self.app.on_start(self.me, self.n);
        self.emit_effects(&mut effects);
        // The initial checkpoint covers the post-`on_start` state, so a
        // restart never re-runs `on_start` (its sends are already out).
        self.take_checkpoint();
        self.arm_timers();
    }

    fn on_deliver(&mut self, from: ProcessId, wire: Wire<A::Msg>) {
        debug_assert!(!self.down, "runtime delivered to a down process");
        match wire {
            Wire::App(env) | Wire::Resend(env) => self.receive_app(env),
            Wire::Token(token) => {
                // Acknowledge every *network* receipt — including ones the
                // dedup below will suppress, since acking duplicates is
                // precisely what stops further retransmissions. Local
                // suffix re-injections call `receive_token` directly and
                // are never acked. Acks always go to the token's
                // originator, whichever tree hop delivered it.
                if self.config.reliable_tokens {
                    self.stats.token_acks_sent += 1;
                    self.stats.token_wire_msgs += 1;
                    self.eff_send(token.from, Wire::TokenAck(token.entry), true);
                }
                // Tree dissemination: forward a first-seen token to our
                // children in the tree rooted at its originator.
                // Duplicates (a direct retransmission racing the tree
                // path) are not re-forwarded — `has_token` is already
                // recorded by then — so the fan-out is O(n) per failure.
                if self.token_tree_active()
                    && token.from != self.me
                    && !self.history.has_token(token.from, token.entry)
                {
                    for child in tree_children(self.me, token.from, self.n, TREE_FANOUT) {
                        self.stats.token_forwards += 1;
                        self.stats.token_wire_msgs += 1;
                        self.stats.token_bytes += token.wire_bytes() as u64;
                        self.eff_send(child, Wire::Token(token.clone()), true);
                    }
                }
                self.receive_token(token);
            }
            Wire::TokenAck(entry) => self.receive_token_ack(from, entry),
            Wire::Frontier(p, entry) => self.receive_frontier(from, p, entry),
            Wire::FrontierVec(v) => self.receive_frontier_vec(from, &v),
            Wire::StableClock(p, clock) => self.receive_stable_clock(from, p, clock),
            Wire::StabilityQuery(entry) => self.receive_stability_query(from, entry),
        }
    }

    fn on_tick(&mut self, kind: u32, now: u64) {
        match kind {
            TIMER_CHECKPOINT => {
                self.take_checkpoint();
                self.eff_timer(self.config.checkpoint_interval, TIMER_CHECKPOINT, true);
            }
            TIMER_FLUSH => {
                self.flush_log();
                if self.config.retransmit_lost {
                    self.prune_send_log();
                }
                // Grouped commit: the flush tick is the other half of the
                // deferred sweep cadence, so commit latency is bounded by
                // min(flush, gossip) interval rather than gossip alone.
                if self.config.grouped_commit && self.commit_dirty {
                    self.commit_and_gc();
                }
                self.eff_timer(self.config.flush_interval, TIMER_FLUSH, true);
            }
            TIMER_GOSSIP => {
                // Stability gossip travels on the control plane; it is not
                // part of the piecewise-deterministic computation.
                if self.n > 2 {
                    // Tree gossip: one aggregated frontier vector per
                    // tree edge (plus the rotating fallback peer) —
                    // O(n) messages per round system-wide instead of the
                    // broadcast's O(n²).
                    self.collect_gossip_peers();
                    for idx in 0..self.gossip_peers.len() {
                        let peer = self.gossip_peers[idx];
                        let wire = self.frontier_wire();
                        self.eff_send(peer, wire, true);
                    }
                    self.gossip_ticks += 1;
                } else {
                    let wire = self.frontier_wire();
                    self.eff_broadcast(wire);
                }
                // The round just sent is the repair for any stability
                // query or reply that got lost; start the next one clean.
                self.clear_stability_queries();
                if self.config.retransmit_lost {
                    self.gossip_stable_clock();
                    self.prune_send_log();
                }
                // With history GC on, the tick also folds the freshest
                // local knowledge in: commit what the known frontiers
                // already prove stable and reclaim storage + history
                // records (bounds the history tables in long real-time
                // runs — see the gc regression tests).
                if self.config.history_gc || (self.config.grouped_commit && self.commit_dirty) {
                    self.commit_and_gc();
                }
                if let Some(gossip) = self.config.gossip_interval {
                    self.eff_timer(gossip, TIMER_GOSSIP, true);
                }
            }
            TIMER_TOKEN_RETRY => self.retry_pending_tokens(now),
            _ => unreachable!("unknown timer kind {kind}"),
        }
    }

    fn on_fault(&mut self, kind: StorageFault) {
        match kind {
            StorageFault::CorruptLatestCheckpoint => {
                // The store refuses to damage the last usable frame: the
                // protocol is only recoverable at all under the paper's
                // assumption that the initial checkpoint survives.
                let _ = self.checkpoints.mark_latest_corrupt();
                // Whatever frame was damaged, the newest frame is no
                // longer a safe delta base; rebase on a full image.
                self.last_image = None;
                self.delta_since_full = 0;
            }
        }
    }

    fn on_crash(&mut self) {
        self.down = true;
        // Everything volatile dies here; stable storage survives.
        self.stats.log_entries_lost += self.log.crash() as u64;
        self.stats.postponed_lost += self.postponed.len() as u64;
        self.postponed.clear();
        self.invalidate_recv_floors();
        self.received_ids.clear();
        self.outputs.crash();
        self.stats.send_log_high_water = self
            .stats
            .send_log_high_water
            .max(self.send_log.high_water() as u64);
        self.send_log.clear();
        self.frontiers = vec![Entry::ZERO; self.n];
        self.stable_clocks = vec![None; self.n];
        self.last_stable_gossip = None;
        self.clear_stability_queries();
        self.last_image = None;
        self.delta_since_full = 0;
        self.pending_flush_bytes = 0;
        // Crash discards effects the current handle would otherwise have
        // produced: a crashed process performs no actions.
        self.effects.clear();
    }

    fn on_restart(&mut self, now: u64) {
        // Figure 4, "Restart": restore the last checkpoint, replay the
        // stable log, broadcast the token, bump the version, checkpoint.
        // Storage faults may have damaged recent frames, so restore the
        // newest checkpoint that still *verifies*; the store guarantees
        // at least one survives (the paper's assumption that the initial
        // checkpoint is never lost).
        let (_, ckpt) = self
            .checkpoints
            .latest_usable()
            .map(|(id, c)| (id, c.clone()))
            .expect("a process always has a usable checkpoint");
        self.invalidate_recv_floors();
        self.app = ckpt.app;
        self.clock = ckpt.clock;
        self.history = ckpt.history;
        self.received_ids.restore(ckpt.received_ids);
        // Re-emit outputs that were pending when the checkpoint was
        // taken: the restored application state already reflects the
        // steps that produced them, so the replay below cannot regenerate
        // them. `emit`'s id dedup drops any that managed to commit
        // between the checkpoint and the crash.
        for p in ckpt.pending_outputs {
            self.outputs.emit(p.id, p.value, p.clock);
        }
        let entries: Vec<LogEvent<A::Msg>> =
            self.log.live_events_from(ckpt.log_end).cloned().collect();
        for event in entries {
            match event {
                LogEvent::Message(env) => self.replay_deliver(&env, true),
                LogEvent::Token {
                    token: t,
                    rolled_back,
                } => {
                    debug_assert!(
                        !self.history.orphaned_by(t.from, t.entry),
                        "restart replay cannot be orphaned by its own logged tokens"
                    );
                    if rolled_back {
                        self.clock.rolled_back();
                    }
                    self.history.record_token(t.from, t.entry);
                }
                LogEvent::AppSend(to, payload) => {
                    self.replay_app_send(to, &payload, true);
                }
            }
        }
        // If the fallback skipped damaged frames from a previous
        // incarnation, the restored clock is stuck in an old version that
        // our own earlier tokens already declared dead — a process must
        // never compute in one again. Re-record those tokens and
        // re-establish the current incarnation on top of the replayed
        // prefix (same cross-restart situation, and same resolution, as
        // the rollback path above).
        let current_version = Version(self.stats.restorations.len() as u32);
        if self.clock.version() < current_version {
            let me = self.me;
            for &(version, ts) in &self.stats.restorations {
                if version >= self.clock.version() {
                    self.history.record_token(me, Entry { version, ts });
                }
            }
            while self.clock.version() < current_version {
                self.clock.restart();
            }
        }
        // Broadcast the token about the failed version: (version,
        // timestamp at the point of restoration).
        let failed = self.clock.own_entry();
        let token = Token {
            from: self.me,
            entry: failed,
            full_clock: self.config.retransmit_lost.then(|| self.clock.clone()),
        };
        self.stats.tokens_sent += 1;
        self.stats.token_bytes += token.wire_bytes() as u64;
        if self.token_tree_active() {
            // Tree dissemination: seed only our children in the k-ary
            // tree rooted at us; receivers forward down their subtrees.
            // The reliable sublayer below still tracks *every* peer, so
            // a broken tree edge degrades to direct retransmission (the
            // broadcast fallback) rather than a stuck recovery.
            for child in tree_children(self.me, self.me, self.n, TREE_FANOUT) {
                self.stats.token_wire_msgs += 1;
                self.eff_send(child, Wire::Token(token.clone()), true);
            }
        } else {
            self.stats.token_wire_msgs += self.n as u64 - 1;
            self.eff_broadcast(Wire::Token(token.clone()));
        }
        if self.config.reliable_tokens {
            // Track the new token; the crash also killed any armed retry
            // timer, so mark surviving pending tokens due immediately and
            // let `track_token`'s re-arm cover them all.
            for p in &mut self.pending_tokens {
                p.next_retry = now;
            }
            self.track_token(token, now);
        }
        // Record our own token (Figure 3, "On Restart").
        self.history.record_token(self.me, failed);
        // New incarnation (Figure 2, "On Restart").
        self.clock.restart();
        self.stats.restarts += 1;
        self.stats.restorations.push((failed.version, failed.ts));
        // The new checkpoint preserves the new version number across
        // further failures (Section 6.2).
        self.take_checkpoint();
        self.arm_timers();
        self.down = false;
    }
}

impl<A: Application> ProtocolEngine for Engine<A> {
    type Wire = Wire<A::Msg>;
    type Cmd = A::Msg;
    type Out = A::Msg;

    /// Allocation-free hot path: effects move from the engine's internal
    /// buffer into the sink, which leaves the internal buffer empty *with
    /// its capacity intact* — so a steady-state deliver/drain cycle never
    /// touches the allocator (pinned by `tests/alloc_regression.rs`).
    fn handle_into(
        &mut self,
        input: Input<Wire<A::Msg>, A::Msg>,
        sink: &mut EffectSink<Wire<A::Msg>, A::Msg>,
    ) {
        debug_assert!(self.effects.is_empty(), "effect buffer leaked");
        self.dispatch(input);
        sink.append(&mut self.effects);
    }

    fn state_digest(&self) -> u64 {
        EngineView::state_digest(self)
    }
}

impl<A: Application> EngineView for Engine<A> {
    fn id(&self) -> ProcessId {
        self.me
    }

    fn clock(&self) -> &Ftvc {
        &self.clock
    }

    fn history(&self) -> &History {
        &self.history
    }

    fn version(&self) -> Version {
        self.clock.version()
    }

    fn stats(&self) -> &ProcessStats {
        &self.stats
    }

    fn postponed_len(&self) -> usize {
        self.postponed.len()
    }

    fn pending_token_count(&self) -> usize {
        self.pending_tokens.len()
    }

    /// A fingerprint of the full process state (application digest,
    /// clock, history, log shape, postponed queue, counters relevant to
    /// future behaviour). Used by the exhaustive explorer to prune
    /// schedules that converged to an already-visited state.
    fn state_digest(&self) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut mix = |word: u64| {
            h ^= word;
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        };
        mix(self.app.digest());
        mix(self.clock.digest());
        for j in ProcessId::all(self.n) {
            for (v, r) in self.history.records_for(j) {
                mix(u64::from(v.0));
                mix(r.ts);
                mix(match r.kind {
                    crate::history::RecordKind::Message => 1,
                    crate::history::RecordKind::Token => 2,
                });
            }
        }
        mix(self.log.live_len() as u64);
        mix(self.log.unflushed_len() as u64);
        mix(self.checkpoints.len() as u64);
        for env in &self.postponed {
            mix(env.id().clock_digest);
        }
        mix(self.stats.restarts);
        mix(self.stats.rollbacks);
        for p in &self.pending_tokens {
            mix(u64::from(p.token.entry.version.0));
            mix(p.unacked.len() as u64);
        }
        h
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The sans-IO contract, enforced at the source level: the engine
    /// module must never name the simulator. (CI enforces the stronger
    /// compile-level version via `cargo check -p dg-core
    /// --no-default-features`.)
    #[test]
    fn engine_source_has_no_simnet_dependency() {
        let src = include_str!("engine.rs");
        assert!(
            !src.replace("never name the simulator", "")
                .contains(concat!("dg_", "simnet")),
            "engine.rs must not reference the simulator crate"
        );
    }

    #[derive(Clone)]
    struct Ping;
    impl Application for Ping {
        type Msg = u64;
        fn on_start(&mut self, me: ProcessId, _n: usize) -> Effects<u64> {
            if me == ProcessId(0) {
                Effects::send(ProcessId(1), 1)
            } else {
                Effects::none()
            }
        }
        fn on_message(
            &mut self,
            _me: ProcessId,
            from: ProcessId,
            msg: &u64,
            _n: usize,
        ) -> Effects<u64> {
            if *msg < 3 {
                Effects::send(from, msg + 1)
            } else {
                Effects::none()
            }
        }
    }

    fn start_pair() -> (Engine<Ping>, Engine<Ping>) {
        let cfg = DgConfig::fast_test();
        let mut a = Engine::new(ProcessId(0), 2, Ping, cfg);
        let mut b = Engine::new(ProcessId(1), 2, Ping, cfg);
        a.handle(Input::Start { now: 0 });
        b.handle(Input::Start { now: 0 });
        (a, b)
    }

    fn first_send(effects: &[Effect<Wire<u64>, u64>]) -> Option<(ProcessId, Wire<u64>)> {
        effects.iter().find_map(|e| match e {
            Effect::Send { to, wire, .. } => Some((*to, wire.clone())),
            _ => None,
        })
    }

    #[test]
    fn start_emits_checkpoint_and_timers() {
        let cfg = DgConfig::fast_test();
        let mut e = Engine::new(ProcessId(0), 2, Ping, cfg);
        let effects = e.handle(Input::Start { now: 0 });
        assert!(matches!(effects[0], Effect::Send { control: false, .. }));
        assert!(effects
            .iter()
            .any(|x| matches!(x, Effect::Checkpoint { .. })));
        let timers: Vec<u32> = effects
            .iter()
            .filter_map(|x| match x {
                Effect::SetTimer { kind, .. } => Some(*kind),
                _ => None,
            })
            .collect();
        assert_eq!(timers, vec![TIMER_CHECKPOINT, TIMER_FLUSH]);
    }

    #[test]
    #[should_panic(expected = "DgConfig::garbage_collect requires gossip_interval")]
    fn gc_without_gossip_is_rejected() {
        let _ = Engine::new(ProcessId(0), 2, Ping, DgConfig::fast_test().with_gc(true));
    }

    #[test]
    #[should_panic(expected = "DgConfig::history_gc requires gossip_interval")]
    fn history_gc_without_gossip_is_rejected() {
        let cfg = DgConfig::fast_test().with_history_gc(true);
        let _ = Engine::new(ProcessId(0), 2, Ping, cfg);
    }

    #[test]
    fn ping_pong_round_trip() {
        let cfg = DgConfig::fast_test();
        let mut a = Engine::new(ProcessId(0), 2, Ping, cfg);
        let mut b = Engine::new(ProcessId(1), 2, Ping, cfg);
        let start_effects = a.handle(Input::Start { now: 0 });
        b.handle(Input::Start { now: 0 });
        let (to, wire) = first_send(&start_effects).expect("opening send from Start");
        assert_eq!(to, ProcessId(1));
        let effects = b.handle(Input::Deliver {
            from: ProcessId(0),
            wire,
            now: 2,
        });
        let (back_to, _) = first_send(&effects).expect("pong");
        assert_eq!(back_to, ProcessId(0));
        assert_eq!(b.stats().messages_delivered, 1);
    }

    #[test]
    fn crash_then_restart_broadcasts_token() {
        let (mut a, _) = start_pair();
        assert!(a.handle(Input::Crash).is_empty(), "a crash acts silently");
        assert!(a.is_down());
        let effects = a.handle(Input::Restart { now: 1_000 });
        assert!(!a.is_down());
        assert!(effects.iter().any(|e| matches!(
            e,
            Effect::Broadcast {
                wire: Wire::Token(_)
            }
        )));
        assert_eq!(a.version(), Version(1));
        assert_eq!(a.stats().restarts, 1);
    }

    #[test]
    fn app_send_is_stamped_logged_and_replayed() {
        let (mut a, _) = start_pair();
        let before = a.log_len();
        let effects = a.handle(Input::AppSend {
            to: ProcessId(1),
            payload: 42,
            now: 10,
        });
        let (to, wire) = first_send(&effects).expect("the injected send leaves");
        assert_eq!(to, ProcessId(1));
        let Wire::App(env) = wire else {
            panic!("expected app wire")
        };
        assert_eq!(env.payload, 42);
        assert_eq!(a.log_len(), before + 1, "AppSend is logged");
        let ts_after_send = a.clock().own_entry().ts;
        // Flush, crash, restart: replay reattains the same clock
        // trajectory (the AppSend tick is reproduced from the log), so
        // the recovery token's restoration point covers the send.
        a.handle(Input::Tick {
            kind: TIMER_FLUSH,
            now: 20,
        });
        a.handle(Input::Crash);
        let effects = a.handle(Input::Restart { now: 30 });
        let token = effects
            .iter()
            .find_map(|e| match e {
                Effect::Broadcast {
                    wire: Wire::Token(t),
                } => Some(t.clone()),
                _ => None,
            })
            .expect("restart broadcasts a token");
        assert_eq!(
            token.entry.ts, ts_after_send,
            "restart replay reproduces the AppSend clock tick"
        );
        assert_eq!(token.entry.version, Version(0));
    }

    #[test]
    fn fault_marks_checkpoint_corrupt_without_effects() {
        let (mut a, _) = start_pair();
        a.handle(Input::Tick {
            kind: TIMER_CHECKPOINT,
            now: 5,
        });
        let effects = a.handle(Input::Fault(StorageFault::CorruptLatestCheckpoint));
        assert!(effects.is_empty());
    }

    /// Two `Ping` engines in which `b` has just rolled back: its state
    /// depended on a send of `a`'s that `a` lost in a crash (the second
    /// injected send — the first leaves from the checkpointed state).
    /// With `flush_b_first`, `b` flushed while still an orphan, so its
    /// stable frontier lies beyond the point it rolls back to.
    fn pair_with_b_rolled_back(flush_b_first: bool) -> (Engine<Ping>, Engine<Ping>) {
        let cfg = DgConfig::fast_test().with_gossip(8_000);
        let mut a = Engine::new(ProcessId(0), 2, Ping, cfg);
        let mut b = Engine::new(ProcessId(1), 2, Ping, cfg);
        let opening = first_send(&a.handle(Input::Start { now: 0 })).unwrap().1;
        b.handle(Input::Start { now: 0 });
        let mut inject = |payload| {
            let effects = a.handle(Input::AppSend {
                to: ProcessId(1),
                payload,
                now: 1,
            });
            first_send(&effects).unwrap().1
        };
        for wire in [opening, inject(8), inject(9)] {
            b.handle(Input::Deliver {
                from: ProcessId(0),
                wire,
                now: 2,
            });
        }
        if flush_b_first {
            b.handle(Input::Tick {
                kind: TIMER_FLUSH,
                now: 3,
            });
        }
        a.handle(Input::Crash);
        let token = a
            .handle(Input::Restart { now: 4 })
            .into_iter()
            .find_map(|e| match e {
                Effect::Broadcast { wire } => Some(wire),
                _ => None,
            })
            .expect("token broadcast");
        b.handle(Input::Deliver {
            from: ProcessId(0),
            wire: token,
            now: 5,
        });
        assert_eq!(b.stats().rollbacks, 1, "b was an orphan of a's failure");
        (a, b)
    }

    /// What a process announces as stable it must recover to: a crash
    /// right after a flush restores exactly the flushed own entry, also
    /// when a rollback (and its timestamp tick) happened since the last
    /// checkpoint. Replay used to skip that tick, so the restoration
    /// point came out one short of the announced frontier and a peer
    /// that had committed against the frontier was declared an orphan.
    #[test]
    fn restart_after_rollback_recovers_the_announced_frontier() {
        let (_, mut b) = pair_with_b_rolled_back(false);
        // Flush, announce, crash: the token must name the announced entry.
        b.handle(Input::Tick {
            kind: TIMER_FLUSH,
            now: 6,
        });
        let announced = b
            .handle(Input::Tick {
                kind: TIMER_GOSSIP,
                now: 7,
            })
            .into_iter()
            .find_map(|e| match e {
                Effect::Broadcast {
                    wire: Wire::Frontier(_, entry),
                } => Some(entry),
                _ => None,
            })
            .expect("frontier gossip");
        b.handle(Input::Crash);
        let restored = b
            .handle(Input::Restart { now: 8 })
            .into_iter()
            .find_map(|e| match e {
                Effect::Broadcast {
                    wire: Wire::Token(t),
                } => Some(t.entry),
                _ => None,
            })
            .expect("token broadcast");
        assert_eq!(restored, announced);
    }

    // ---- stability on demand ------------------------------------------

    /// Every delivery becomes an external output; nothing is sent.
    #[derive(Clone)]
    struct Sink;
    impl Application for Sink {
        type Msg = u64;
        fn on_start(&mut self, _me: ProcessId, _n: usize) -> Effects<u64> {
            Effects::none()
        }
        fn on_message(&mut self, _: ProcessId, _: ProcessId, msg: &u64, _: usize) -> Effects<u64> {
            Effects::output(*msg)
        }
    }

    const FRONT: ProcessId = ProcessId(0);
    const OWNER: ProcessId = ProcessId(1);

    /// Three started `Sink` engines with grouped commit, so only ticks
    /// and idle edges sweep. The front has already sent once: a send is
    /// stamped with the state it leaves from, and the very first one
    /// leaves from the initial checkpoint, which is stable by definition.
    fn sinks() -> Vec<Engine<Sink>> {
        let cfg = DgConfig::fast_test()
            .with_gossip(8_000)
            .with_grouped_commit(true);
        let mut engines: Vec<Engine<Sink>> = (0..3)
            .map(|p| {
                let mut e = Engine::new(ProcessId(p), 3, Sink, cfg);
                e.handle(Input::Start { now: 0 });
                e
            })
            .collect();
        engines[FRONT.index()].handle(Input::AppSend {
            to: ProcessId(2),
            payload: 0,
            now: 0,
        });
        engines
    }

    /// Inject `payload` at the front and deliver it to the owner, which
    /// now holds a pending output depending on the front's unflushed
    /// entry. Returns that entry.
    fn request(engines: &mut [Engine<Sink>], payload: u64) -> Entry {
        let effects = engines[FRONT.index()].handle(Input::AppSend {
            to: OWNER,
            payload,
            now: 1,
        });
        let Some((_, Wire::App(env))) = first_send(&effects) else {
            panic!("the request leaves the front");
        };
        let sent_at = env.clock.own_entry();
        let effects = engines[OWNER.index()].handle(Input::Deliver {
            from: FRONT,
            wire: Wire::App(env),
            now: 2,
        });
        assert!(effects.is_empty(), "an output only becomes pending");
        sent_at
    }

    fn idle(engine: &mut Engine<Sink>) -> Vec<Effect<Wire<u64>, u64>> {
        engine.handle(Input::Idle { now: 3 })
    }

    fn wires_sent(effects: &[Effect<Wire<u64>, u64>]) -> Vec<(ProcessId, Wire<u64>)> {
        effects
            .iter()
            .filter_map(|e| match e {
                Effect::Send { to, wire, control } => {
                    assert!(control, "stability traffic is control-plane");
                    Some((*to, wire.clone()))
                }
                _ => None,
            })
            .collect()
    }

    #[test]
    fn idle_without_demand_does_nothing() {
        let (mut a, mut b) = start_pair();
        // Some traffic, no outputs, no queries: nobody waits on the log.
        let wire = first_send(&a.handle(Input::AppSend {
            to: ProcessId(1),
            payload: 3,
            now: 1,
        }))
        .unwrap()
        .1;
        b.handle(Input::Deliver {
            from: ProcessId(0),
            wire,
            now: 2,
        });
        for e in [&mut a, &mut b] {
            let digest = EngineView::state_digest(e);
            let stats = e.stats().clone();
            assert!(e.handle(Input::Idle { now: 3 }).is_empty());
            assert_eq!(EngineView::state_digest(e), digest);
            assert_eq!(e.stats(), &stats, "not even counted as an input");
        }
    }

    #[test]
    fn pending_output_commits_after_one_query_round() {
        let mut e = sinks();
        let asked = request(&mut e, 7);

        // Owner's idle edge: flush, sweep (nothing stable yet), ask the
        // front about the entry the output depends on.
        let effects = idle(&mut e[OWNER.index()]);
        assert!(matches!(effects[0], Effect::LogWrite { entries: 1, .. }));
        assert_eq!(
            wires_sent(&effects),
            vec![(FRONT, Wire::StabilityQuery(asked))]
        );
        assert_eq!(e[OWNER.index()].stats().idle_flushes, 1);
        assert_eq!(e[OWNER.index()].stats().stability_queries_sent, 1);

        // Uncovered query: the front stays silent until its own idle
        // edge has flushed the entry.
        let effects = e[FRONT.index()].handle(Input::Deliver {
            from: OWNER,
            wire: Wire::StabilityQuery(asked),
            now: 4,
        });
        assert!(effects.is_empty(), "nothing to say before the flush");
        let effects = idle(&mut e[FRONT.index()]);
        assert!(matches!(effects[0], Effect::LogWrite { entries: 2, .. }));
        let replies = wires_sent(&effects);
        let [(to, Wire::FrontierVec(v))] = replies.as_slice() else {
            panic!("expected one frontier vector, got {replies:?}");
        };
        assert_eq!(*to, OWNER);
        assert!(v[FRONT.index()] >= asked);
        assert_eq!(e[FRONT.index()].stats().stability_replies_sent, 1);
        assert!(
            idle(&mut e[FRONT.index()]).is_empty(),
            "an answered query is forgotten"
        );

        // The reply only marks the buffer dirty (grouped commit); the
        // owner's next idle edge releases the output.
        let reply = replies[0].1.clone();
        let effects = e[OWNER.index()].handle(Input::Deliver {
            from: FRONT,
            wire: reply,
            now: 5,
        });
        assert!(effects.is_empty());
        let effects = idle(&mut e[OWNER.index()]);
        assert!(
            matches!(effects.as_slice(), [Effect::Commit { outputs, .. }] if outputs == &[7]),
            "{effects:?}"
        );
        assert_eq!(e[OWNER.index()].stats().flushes, 1, "nothing new to flush");
    }

    #[test]
    fn covered_query_is_answered_on_receipt() {
        let mut e = sinks();
        let asked = request(&mut e, 7);
        e[FRONT.index()].handle(Input::Tick {
            kind: TIMER_FLUSH,
            now: 3,
        });
        let effects = e[FRONT.index()].handle(Input::Deliver {
            from: OWNER,
            wire: Wire::StabilityQuery(asked),
            now: 4,
        });
        let replies = wires_sent(&effects);
        assert!(
            matches!(replies.as_slice(), [(OWNER, Wire::FrontierVec(v))] if v[0] >= asked),
            "{replies:?}"
        );
        // A two-process system answers with the scalar frame.
        let (mut a, _) = start_pair();
        let covered = a.clock().own_entry();
        let effects = a.handle(Input::Deliver {
            from: ProcessId(1),
            wire: Wire::StabilityQuery(covered),
            now: 1,
        });
        assert_eq!(
            first_send(&effects),
            Some((ProcessId(1), Wire::Frontier(ProcessId(0), covered)))
        );
        // A sender id outside the system is ignored, not indexed.
        assert!(a
            .handle(Input::Deliver {
                from: ProcessId(9),
                wire: Wire::StabilityQuery(Entry::new(0, 99)),
                now: 2,
            })
            .is_empty());
    }

    /// The answer to a query commits and nothing else; reclamation keeps
    /// its old triggers (unsolicited gossip, the ticks).
    #[test]
    fn solicited_answer_commits_without_reclaiming() {
        let cfg = DgConfig::fast_test().with_gossip(8_000).with_gc(true);
        let mut e: Vec<Engine<Sink>> = (0..3)
            .map(|p| {
                let mut e = Engine::new(ProcessId(p), 3, Sink, cfg);
                e.handle(Input::Start { now: 0 });
                e
            })
            .collect();
        request(&mut e, 6);
        let asked = request(&mut e, 7);
        for now in [3, 4] {
            e[OWNER.index()].handle(Input::Tick {
                kind: TIMER_CHECKPOINT,
                now,
            });
        }
        assert_eq!(e[OWNER.index()].checkpoint_count(), 3);
        assert_eq!(
            wires_sent(&idle(&mut e[OWNER.index()])),
            vec![(FRONT, Wire::StabilityQuery(asked))]
        );
        e[FRONT.index()].handle(Input::Deliver {
            from: OWNER,
            wire: Wire::StabilityQuery(asked),
            now: 5,
        });
        let answer = wires_sent(&idle(&mut e[FRONT.index()])).remove(0).1;
        let effects = e[OWNER.index()].handle(Input::Deliver {
            from: FRONT,
            wire: answer.clone(),
            now: 6,
        });
        assert!(
            matches!(effects.as_slice(), [Effect::Commit { outputs, .. }] if outputs == &[6, 7]),
            "{effects:?}"
        );
        assert_eq!(e[OWNER.index()].checkpoint_count(), 3, "no GC on an answer");

        // The same knowledge arriving unasked (a relay) reclaims as before.
        let Wire::FrontierVec(mut v) = answer else {
            panic!("n = 3 answers with the vector");
        };
        v[2] = Entry::new(0, 1);
        e[OWNER.index()].handle(Input::Deliver {
            from: ProcessId(2),
            wire: Wire::FrontierVec(v),
            now: 7,
        });
        assert_eq!(e[OWNER.index()].checkpoint_count(), 1);
    }

    /// After a rollback the old frontier may name timestamps that new,
    /// unlogged states now reuse: it must not answer a query on receipt.
    #[test]
    fn frontier_from_before_a_rollback_answers_nothing() {
        let (_, mut b) = pair_with_b_rolled_back(true);
        // b's own entry now lies at or below the frontier it flushed as
        // an orphan.
        let now_at = b.clock().own_entry();
        let query = Input::Deliver {
            from: ProcessId(0),
            wire: Wire::StabilityQuery(now_at),
            now: 6,
        };
        assert!(
            b.handle(query).is_empty(),
            "the stale frontier stays silent"
        );
        let effects = b.handle(Input::Idle { now: 7 });
        assert_eq!(
            first_send(&effects),
            Some((ProcessId(0), Wire::Frontier(ProcessId(1), now_at)))
        );
    }

    #[test]
    fn one_outstanding_query_per_peer() {
        let mut e = sinks();
        request(&mut e, 7);
        let second = request(&mut e, 8);
        // Two outputs lack the front's frontier: one query, for the
        // higher entry.
        let effects = idle(&mut e[OWNER.index()]);
        assert_eq!(
            wires_sent(&effects),
            vec![(FRONT, Wire::StabilityQuery(second))]
        );
        // Further idle edges repeat nothing while it is outstanding...
        assert!(idle(&mut e[OWNER.index()]).is_empty());
        // ...but a higher entry is asked about.
        let third = request(&mut e, 9);
        let effects = idle(&mut e[OWNER.index()]);
        assert_eq!(
            wires_sent(&effects),
            vec![(FRONT, Wire::StabilityQuery(third))]
        );
        assert_eq!(e[OWNER.index()].stats().stability_queries_sent, 2);
        // A frontier frame from the peer ends the wait, whatever it
        // says: if it did not settle the entry, the next idle edge asks
        // again.
        e[OWNER.index()].handle(Input::Deliver {
            from: FRONT,
            wire: Wire::FrontierVec(vec![Entry::ZERO; 3]),
            now: 4,
        });
        let effects = idle(&mut e[OWNER.index()]);
        assert_eq!(
            wires_sent(&effects),
            vec![(FRONT, Wire::StabilityQuery(third))]
        );
    }

    #[test]
    fn gossip_tick_and_crash_clear_the_query_tables() {
        let mut e = sinks();
        let asked = request(&mut e, 7);
        idle(&mut e[OWNER.index()]);
        e[FRONT.index()].handle(Input::Deliver {
            from: OWNER,
            wire: Wire::StabilityQuery(asked),
            now: 4,
        });

        // Asking side: the gossip tick forgets the outstanding query,
        // so the next idle edge asks again (the repair for a lost one).
        e[OWNER.index()].handle(Input::Tick {
            kind: TIMER_GOSSIP,
            now: 8_000,
        });
        let effects = idle(&mut e[OWNER.index()]);
        assert_eq!(
            wires_sent(&effects),
            vec![(FRONT, Wire::StabilityQuery(asked))]
        );

        // Answering side: the tick forgets the waiter too.
        let mut front = e[FRONT.index()].clone();
        front.handle(Input::Tick {
            kind: TIMER_GOSSIP,
            now: 8_000,
        });
        assert!(idle(&mut front).is_empty(), "no waiter, no demand");
        assert_eq!(front.stats().stability_replies_sent, 0);

        // So does a crash, on both sides. The front's waiter is gone
        // after its restart; the owner's output comes back through
        // replay and is asked about afresh.
        let front = &mut e[FRONT.index()];
        front.handle(Input::Crash);
        front.handle(Input::Restart { now: 9_000 });
        assert!(idle(front).is_empty());
        assert_eq!(front.stats().stability_replies_sent, 0);

        let owner = &mut e[OWNER.index()];
        let before = owner.stats().stability_queries_sent;
        owner.handle(Input::Crash);
        assert!(idle(owner).is_empty(), "a crashed process acts silently");
        owner.handle(Input::Restart { now: 9_000 });
        assert_eq!(owner.pending_outputs(), 1, "replay re-emits the output");
        let effects = idle(owner);
        assert_eq!(
            wires_sent(&effects),
            vec![(FRONT, Wire::StabilityQuery(asked))]
        );
        assert_eq!(owner.stats().stability_queries_sent, before + 1);
    }

    #[test]
    fn token_delivery_is_acked_when_reliable() {
        let cfg = DgConfig::fast_test().with_reliable_tokens(true);
        let mut a = Engine::new(ProcessId(0), 2, Ping, cfg);
        let mut b = Engine::new(ProcessId(1), 2, Ping, cfg);
        a.handle(Input::Start { now: 0 });
        b.handle(Input::Start { now: 0 });
        b.handle(Input::Crash);
        let effects = b.handle(Input::Restart { now: 100 });
        let token_wire = effects
            .iter()
            .find_map(|e| match e {
                Effect::Broadcast { wire } => Some(wire.clone()),
                _ => None,
            })
            .expect("token broadcast");
        let effects = a.handle(Input::Deliver {
            from: ProcessId(1),
            wire: token_wire,
            now: 200,
        });
        assert!(
            matches!(
                effects.first(),
                Some(Effect::Send {
                    wire: Wire::TokenAck(_),
                    control: true,
                    ..
                })
            ),
            "ack precedes token processing effects"
        );
        assert_eq!(b.pending_token_count(), 1);
        let ack = first_send(&effects).unwrap().1;
        b.handle(Input::Deliver {
            from: ProcessId(0),
            wire: ack,
            now: 300,
        });
        assert_eq!(b.pending_token_count(), 0, "ack drains the pending token");
    }
}
