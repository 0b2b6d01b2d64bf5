//! Optimistic recovery à la Strom–Yemini (TOCS 1985).
//!
//! Incarnation-based optimistic recovery with **direct** (non-transitive)
//! dependency tracking: a receiver records a dependency on the *sender's*
//! current state interval only, not on the sender's full causal past.
//! Recovery announcements — broadcast on every restart *and* every
//! orphan rollback — name a `(process, incarnation, last surviving
//! index)` triple plus the root failure that caused it.
//!
//! Because dependencies are direct, an orphan can survive its root
//! failure's announcement (its dependency on the failed process is
//! hidden behind an intermediary) and is only caught when the
//! intermediary's own rollback announcement arrives — so announcements
//! **cascade**, and one failure can roll the same process back several
//! times (the `2^n` worst case in the paper's Table 1, reproduced as the
//! domino experiment E6). This is the precise weakness the Damani–Garg
//! history mechanism eliminates.
//!
//! Like the original, the protocol assumes FIFO channels; messages
//! referencing an incarnation the receiver has not yet heard of are
//! parked until the announcement arrives.
//!
//! The protocol is a sans-IO [`SyEngine`] on the same
//! [`Input`]/[`Effect`] interface as the Damani–Garg [`dg_core::Engine`];
//! [`SyProcess`] is its simulator actor adapter.

use std::collections::{BTreeMap, HashMap};

use dg_core::{
    run_effects, Application, Effect, EffectSink, Effects, Input, ProcessId, ProtocolEngine,
};
use dg_ftvc::{wire::varint_len, Entry, Version};
use dg_harness::ProtoReport;
use dg_simnet::{Actor, Context};
use dg_storage::{CheckpointStore, EventLog, LogPos, StorageCosts};

const TIMER_CHECKPOINT: u32 = 1;
const TIMER_FLUSH: u32 = 2;

/// Identity of the root failure an announcement cascades from.
pub type RootFailure = (ProcessId, u32);

/// Wire messages of the Strom–Yemini protocol.
#[derive(Debug, Clone)]
pub enum SyWire<M> {
    /// Application payload carrying the sender's dependency vector.
    App {
        /// The sender's dependency vector (one entry per process; entry
        /// `(inc, idx)`).
        dv: Vec<Entry>,
        /// Application payload.
        payload: M,
    },
    /// Recovery announcement: incarnation `inc` of `about` survives only
    /// through state index `end_idx`; a new incarnation begins.
    Announce {
        /// The process that rolled back or restarted.
        about: ProcessId,
        /// The incarnation that was truncated.
        inc: u32,
        /// Last surviving state index of that incarnation.
        end_idx: u64,
        /// The failure this announcement (transitively) stems from.
        root: RootFailure,
    },
}

#[derive(Debug, Clone)]
struct Logged<M> {
    from: ProcessId,
    sender_entry: Entry,
    dv: Vec<Entry>,
    payload: M,
}

#[derive(Debug, Clone)]
struct Ckpt<A> {
    app: A,
    dv: Vec<Entry>,
    log_end: LogPos,
}

/// The Strom–Yemini protocol as a transport-agnostic state machine.
///
/// Same contract as [`dg_core::Engine`]: one [`Input`] in, an ordered
/// [`Effect`] batch out, no IO, no clock reads, no randomness. Effect
/// positions (in particular storage-latency charges) match where the
/// pre-refactor actor issued its context calls, so simulated schedules
/// are unchanged.
pub struct SyEngine<A: Application> {
    me: ProcessId,
    n: usize,
    costs: StorageCosts,
    checkpoint_interval: u64,
    flush_interval: u64,

    app: A,
    /// Direct-dependency vector; `dv[me]` is the own `(inc, idx)`.
    dv: Vec<Entry>,
    checkpoints: CheckpointStore<Ckpt<A>>,
    log: EventLog<Logged<A::Msg>>,
    /// Announcement table: per process, per incarnation, the last
    /// surviving state index.
    table: Vec<BTreeMap<Version, u64>>,
    /// Highest incarnation heard of, per process.
    known_inc: Vec<u32>,
    /// Messages parked for unknown incarnations.
    parked: Vec<(ProcessId, SyWire<A::Msg>)>,
    /// Effects accumulated by the current `handle` call.
    effects: Vec<Effect<SyWire<A::Msg>>>,

    delivered: u64,
    sent: u64,
    restarts: u64,
    rollbacks: u64,
    rollbacks_by_root: HashMap<RootFailure, u64>,
    piggyback_bytes: u64,
    control_messages: u64,
    control_bytes: u64,
    deliveries_undone: u64,
    obsolete_discarded: u64,
}

impl<A: Application> SyEngine<A> {
    /// Create the engine for process `me` of `n` running `app`.
    pub fn new(
        me: ProcessId,
        n: usize,
        app: A,
        costs: StorageCosts,
        checkpoint_interval: u64,
        flush_interval: u64,
    ) -> Self {
        let mut dv = vec![Entry::ZERO; n];
        dv[me.index()] = Entry::new(0, 1);
        SyEngine {
            me,
            n,
            costs,
            checkpoint_interval,
            flush_interval,
            app,
            dv,
            checkpoints: CheckpointStore::new(),
            log: EventLog::new(),
            table: vec![BTreeMap::new(); n],
            known_inc: vec![0; n],
            parked: Vec::new(),
            effects: Vec::new(),
            delivered: 0,
            sent: 0,
            restarts: 0,
            rollbacks: 0,
            rollbacks_by_root: HashMap::new(),
            piggyback_bytes: 0,
            control_messages: 0,
            control_bytes: 0,
            deliveries_undone: 0,
            obsolete_discarded: 0,
        }
    }

    /// The application state.
    pub fn app(&self) -> &A {
        &self.app
    }

    /// Rollbacks attributed to each root failure (cascades included) —
    /// the E6 domino measurement reads this.
    pub fn rollbacks_by_root(&self) -> &HashMap<RootFailure, u64> {
        &self.rollbacks_by_root
    }

    /// Comparable metrics.
    pub fn report(&self) -> ProtoReport {
        ProtoReport {
            delivered: self.delivered,
            sent: self.sent,
            rollbacks: self.rollbacks,
            max_rollbacks_per_failure: self.rollbacks_by_root.values().copied().max().unwrap_or(0),
            restarts: self.restarts,
            piggyback_bytes: self.piggyback_bytes,
            control_bytes: self.control_bytes,
            control_messages: self.control_messages,
            recovery_blocked_us: 0, // recovery is asynchronous
            deliveries_undone: self.deliveries_undone,
            app_digest: self.app.digest(),
        }
    }

    fn own(&self) -> Entry {
        self.dv[self.me.index()]
    }

    fn dv_bytes(dv: &[Entry]) -> u64 {
        dv.iter()
            .map(|e| (varint_len(u64::from(e.version.0)) + varint_len(e.ts)) as u64)
            .sum()
    }

    fn emit(&mut self, effects: Effects<A::Msg>, live: bool) {
        for (to, payload) in effects.sends {
            // Sending creates a new state interval.
            self.dv[self.me.index()].ts += 1;
            if live {
                self.sent += 1;
                self.piggyback_bytes += Self::dv_bytes(&self.dv);
                self.effects.push(Effect::Send {
                    to,
                    wire: SyWire::App {
                        dv: self.dv.clone(),
                        payload,
                    },
                    control: false,
                });
            }
        }
    }

    /// `true` iff the carried dependency vector names a state interval an
    /// announcement already declared lost.
    fn dv_is_obsolete(&self, dv: &[Entry]) -> bool {
        dv.iter()
            .enumerate()
            .any(|(j, e)| matches!(self.table[j].get(&e.version), Some(&end) if e.ts > end))
    }

    fn deliver(&mut self, from: ProcessId, dv: Vec<Entry>, payload: A::Msg) {
        let sender_entry = dv[from.index()];
        self.log.append_volatile(Logged {
            from,
            sender_entry,
            dv: dv.clone(),
            payload: payload.clone(),
        });
        // DIRECT dependency only: merge the sender's own entry, nothing
        // else. This locality is what makes cascades possible.
        let mine = &mut self.dv[from.index()];
        *mine = (*mine).max(sender_entry);
        self.dv[self.me.index()].ts += 1;
        self.delivered += 1;
        let effects = self.app.on_message(self.me, from, &payload, self.n);
        self.emit(effects, true);
    }

    fn replay(&mut self, entry: &Logged<A::Msg>) {
        let mine = &mut self.dv[entry.from.index()];
        *mine = (*mine).max(entry.sender_entry);
        self.dv[self.me.index()].ts += 1;
        let effects = self
            .app
            .on_message(self.me, entry.from, &entry.payload, self.n);
        for _ in effects.sends {
            self.dv[self.me.index()].ts += 1;
        }
    }

    fn take_checkpoint(&mut self) {
        self.log.flush();
        self.checkpoints.take(Ckpt {
            app: self.app.clone(),
            dv: self.dv.clone(),
            log_end: self.log.end(),
        });
        self.effects.push(Effect::Checkpoint {
            cost_us: self.costs.checkpoint_write,
            bytes: 0,
        });
    }

    /// Roll back so that the dependency on `about`'s incarnation `inc`
    /// does not exceed `end_idx`; then announce the new incarnation.
    fn rollback(&mut self, about: ProcessId, inc: u32, end_idx: u64, root: RootFailure) {
        self.rollbacks += 1;
        *self.rollbacks_by_root.entry(root).or_insert(0) += 1;
        self.log.flush();
        let orphan = |dv: &[Entry]| {
            let e = dv[about.index()];
            e.version.0 == inc && e.ts > end_idx
        };
        let (ckpt_id, ckpt) = self
            .checkpoints
            .iter_newest_first()
            .find(|(_, c)| !orphan(&c.dv))
            .map(|(id, c)| (id, c.clone()))
            .expect("initial checkpoint depends on nobody");
        self.checkpoints.discard_after(ckpt_id);
        self.app = ckpt.app;
        let old_inc = self.own().version.0;
        self.dv = ckpt.dv.clone();
        // Replay while non-orphan.
        let entries: Vec<(LogPos, Logged<A::Msg>)> = self
            .log
            .live_entries_from(ckpt.log_end)
            .map(|(pos, e)| (pos, e.clone()))
            .collect();
        let mut stop = None;
        for (pos, entry) in &entries {
            let e = entry.dv[about.index()];
            if e.version.0 == inc && e.ts > end_idx {
                stop = Some(*pos);
                break;
            }
            self.replay(entry);
        }
        if let Some(pos) = stop {
            let discarded = self.log.split_off_suffix(pos);
            self.deliveries_undone += discarded.len() as u64;
        }
        // The rollback ends the current incarnation at the restored index
        // and starts a new one — announced to everyone (the cascade step).
        let survived_idx = self.dv[self.me.index()].ts;
        let new_inc = old_inc + 1;
        self.dv[self.me.index()] = Entry::new(new_inc, 0);
        self.known_inc[self.me.index()] = new_inc;
        self.table[self.me.index()].insert(Version(old_inc), survived_idx);
        self.announce(old_inc, survived_idx, root);
    }

    fn announce(&mut self, inc: u32, end_idx: u64, root: RootFailure) {
        self.control_messages += (self.n - 1) as u64;
        self.control_bytes += (self.n - 1) as u64 * 12;
        self.effects.push(Effect::Broadcast {
            wire: SyWire::Announce {
                about: self.me,
                inc,
                end_idx,
                root,
            },
        });
    }

    fn on_wire(&mut self, from: ProcessId, wire: SyWire<A::Msg>) {
        match wire {
            SyWire::App { dv, payload } => {
                // Park messages from incarnations we have not heard of.
                let sender_entry = dv[from.index()];
                if sender_entry.version.0 > self.known_inc[from.index()] {
                    self.parked.push((from, SyWire::App { dv, payload }));
                    return;
                }
                if self.dv_is_obsolete(&dv) {
                    self.obsolete_discarded += 1;
                    return;
                }
                self.deliver(from, dv, payload);
            }
            SyWire::Announce {
                about,
                inc,
                end_idx,
                root,
            } => {
                self.known_inc[about.index()] = self.known_inc[about.index()].max(inc + 1);
                self.table[about.index()].insert(Version(inc), end_idx);
                // Orphan test against *direct* dependency only.
                let e = self.dv[about.index()];
                if e.version.0 == inc && e.ts > end_idx {
                    self.rollback(about, inc, end_idx, root);
                }
                // Release parked messages that now reference known
                // incarnations (or are now detectably obsolete).
                let parked = std::mem::take(&mut self.parked);
                for (pfrom, pwire) in parked {
                    self.on_wire(pfrom, pwire);
                }
            }
        }
    }

    fn on_start(&mut self) {
        let effects = self.app.on_start(self.me, self.n);
        self.emit(effects, true);
        self.take_checkpoint();
        self.arm_maintenance_timers();
    }

    fn on_tick(&mut self, kind: u32) {
        match kind {
            TIMER_CHECKPOINT => {
                self.take_checkpoint();
                self.effects.push(Effect::SetTimer {
                    delay: self.checkpoint_interval,
                    kind: TIMER_CHECKPOINT,
                    maintenance: true,
                });
            }
            TIMER_FLUSH => {
                let flushed = self.log.flush();
                if flushed > 0 {
                    self.effects.push(Effect::LogWrite {
                        entries: flushed,
                        cost_us: self.costs.flush_per_entry * flushed as u64,
                        bytes: 0,
                    });
                }
                self.effects.push(Effect::SetTimer {
                    delay: self.flush_interval,
                    kind: TIMER_FLUSH,
                    maintenance: true,
                });
            }
            _ => unreachable!(),
        }
    }

    fn on_crash(&mut self) {
        let lost = self.log.crash();
        self.deliveries_undone += lost as u64;
        self.parked.clear();
        self.effects.clear();
    }

    fn on_restart(&mut self) {
        let (_, ckpt) = self
            .checkpoints
            .latest()
            .map(|(id, c)| (id, c.clone()))
            .expect("initial checkpoint exists");
        self.app = ckpt.app;
        self.dv = ckpt.dv.clone();
        let entries: Vec<Logged<A::Msg>> =
            self.log.live_events_from(ckpt.log_end).cloned().collect();
        for e in &entries {
            self.replay(e);
        }
        self.restarts += 1;
        let old_inc = self.own().version.0;
        let survived_idx = self.own().ts;
        let new_inc = old_inc + 1;
        self.dv[self.me.index()] = Entry::new(new_inc, 0);
        self.known_inc[self.me.index()] = new_inc;
        self.table[self.me.index()].insert(Version(old_inc), survived_idx);
        // The failure is its own root.
        self.announce(old_inc, survived_idx, (self.me, old_inc));
        self.take_checkpoint();
        self.arm_maintenance_timers();
    }

    fn arm_maintenance_timers(&mut self) {
        self.effects.push(Effect::SetTimer {
            delay: self.checkpoint_interval,
            kind: TIMER_CHECKPOINT,
            maintenance: true,
        });
        self.effects.push(Effect::SetTimer {
            delay: self.flush_interval,
            kind: TIMER_FLUSH,
            maintenance: true,
        });
    }
}

impl<A: Application> ProtocolEngine for SyEngine<A> {
    type Wire = SyWire<A::Msg>;
    type Cmd = ();
    type Out = ();

    fn handle_into(&mut self, input: Input<SyWire<A::Msg>>, sink: &mut EffectSink<SyWire<A::Msg>>) {
        match input {
            Input::Start { .. } => self.on_start(),
            Input::Deliver { from, wire, .. } => self.on_wire(from, wire),
            Input::Tick { kind, .. } => self.on_tick(kind),
            Input::AppSend { .. } => {} // external command injection unsupported
            Input::Crash => self.on_crash(),
            Input::Restart { .. } => self.on_restart(),
            Input::Fault(_) => {} // no storage-fault model in this baseline
            // Nothing here is deferred to a batch boundary.
            Input::Idle { .. } => {}
        }
        sink.append(&mut self.effects);
    }

    fn state_digest(&self) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut mix = |v: u64| {
            h ^= v;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        };
        for e in &self.dv {
            mix(u64::from(e.version.0));
            mix(e.ts);
        }
        for inc in &self.known_inc {
            mix(u64::from(*inc));
        }
        mix(self.delivered);
        mix(self.sent);
        mix(self.rollbacks);
        mix(self.restarts);
        mix(self.parked.len() as u64);
        mix(self.app.digest());
        h
    }
}

/// A process under Strom–Yemini optimistic recovery, as a simulator
/// actor (a thin adapter over [`SyEngine`]).
pub struct SyProcess<A: Application> {
    engine: SyEngine<A>,
}

impl<A: Application> SyProcess<A> {
    /// Create process `me` of `n` running `app`.
    pub fn new(
        me: ProcessId,
        n: usize,
        app: A,
        costs: StorageCosts,
        checkpoint_interval: u64,
        flush_interval: u64,
    ) -> Self {
        SyProcess {
            engine: SyEngine::new(me, n, app, costs, checkpoint_interval, flush_interval),
        }
    }

    /// The underlying transport-agnostic engine.
    pub fn engine(&self) -> &SyEngine<A> {
        &self.engine
    }

    /// The application state.
    pub fn app(&self) -> &A {
        self.engine.app()
    }

    /// Rollbacks attributed to each root failure (cascades included).
    pub fn rollbacks_by_root(&self) -> &HashMap<RootFailure, u64> {
        self.engine.rollbacks_by_root()
    }

    /// Comparable metrics.
    pub fn report(&self) -> ProtoReport {
        self.engine.report()
    }
}

impl<A: Application> Actor for SyProcess<A> {
    type Msg = SyWire<A::Msg>;

    fn on_start(&mut self, ctx: &mut Context<'_, SyWire<A::Msg>>) {
        let effects = self.engine.handle(Input::Start {
            now: ctx.now().as_micros(),
        });
        run_effects(effects, ctx);
    }

    fn on_message(
        &mut self,
        from: ProcessId,
        msg: SyWire<A::Msg>,
        ctx: &mut Context<'_, SyWire<A::Msg>>,
    ) {
        let effects = self.engine.handle(Input::Deliver {
            from,
            wire: msg,
            now: ctx.now().as_micros(),
        });
        run_effects(effects, ctx);
    }

    fn on_timer(&mut self, kind: u32, ctx: &mut Context<'_, SyWire<A::Msg>>) {
        let effects = self.engine.handle(Input::Tick {
            kind,
            now: ctx.now().as_micros(),
        });
        run_effects(effects, ctx);
    }

    fn on_crash(&mut self) {
        let effects = self.engine.handle(Input::Crash);
        debug_assert!(effects.is_empty(), "a crashed process acts silently");
    }

    fn on_restart(&mut self, ctx: &mut Context<'_, SyWire<A::Msg>>) {
        let effects = self.engine.handle(Input::Restart {
            now: ctx.now().as_micros(),
        });
        run_effects(effects, ctx);
    }
}
