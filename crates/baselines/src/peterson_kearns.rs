//! Rollback based on vector time (Peterson–Kearns, SRDS 1993).
//!
//! Optimistic receiver logging with **plain** (Mattern) vector clocks and
//! per-process incarnation numbers. A recovering process restores its
//! checkpoint, replays its stable log, increments its incarnation, and
//! broadcasts a recovery token carrying the vector time of the restored
//! state; every peer whose vector clock shows a dependency beyond that
//! state rolls back and acknowledges. The recovering process **waits for
//! all acknowledgements** before resuming — synchronous recovery — and
//! the protocol assumes **FIFO channels** and at most one failure at a
//! time (Table 1's row for reference 19).
//!
//! The FIFO assumption is made observable: application messages carry a
//! per-link sequence number, and out-of-order delivery is counted in
//! [`PkEngine::fifo_violations`] (experiment E1e runs this protocol on
//! the non-FIFO network to show the assumption is load-bearing).
//!
//! The protocol is a sans-IO [`PkEngine`] on the same
//! [`Input`]/[`Effect`] interface as the Damani–Garg [`dg_core::Engine`];
//! [`PkProcess`] is its simulator actor adapter. Time (for the
//! recovery-blocked measurement) enters only through `Input::*::now`.

use std::collections::HashMap;

use dg_core::{
    run_effects, Application, Effect, EffectSink, Effects, Input, ProcessId, ProtocolEngine,
};
use dg_ftvc::{wire as clockwire, VectorClock};
use dg_harness::ProtoReport;
use dg_simnet::{Actor, Context};
use dg_storage::{CheckpointStore, EventLog, LogPos, StorageCosts};

const TIMER_CHECKPOINT: u32 = 1;
const TIMER_FLUSH: u32 = 2;

/// Wire messages of the Peterson–Kearns protocol.
#[derive(Debug, Clone)]
pub enum PkWire<M> {
    /// Application payload with vector-clock stamp and link sequence.
    App {
        /// Sender's incarnation.
        inc: u32,
        /// Per-link FIFO sequence number.
        link_seq: u64,
        /// Vector-clock stamp at send.
        clock: VectorClock,
        /// Application payload.
        payload: M,
    },
    /// Recovery token: the restored state's vector time.
    Token {
        /// The new incarnation of the recovering process.
        inc: u32,
        /// Vector clock of the restored state.
        restored: VectorClock,
    },
    /// Rollback acknowledgement.
    Ack {
        /// The incarnation being acknowledged.
        inc: u32,
    },
}

#[derive(Debug, Clone)]
struct Logged<M> {
    from: ProcessId,
    clock: VectorClock,
    payload: M,
}

#[derive(Debug, Clone)]
struct Ckpt<A> {
    app: A,
    clock: VectorClock,
    log_end: LogPos,
}

/// The Peterson–Kearns protocol as a transport-agnostic state machine.
///
/// Same contract as [`dg_core::Engine`]: one [`Input`] in, an ordered
/// [`Effect`] batch out, no IO, no clock reads, no randomness. The
/// synchronous-recovery blocking time is measured from the `now`
/// timestamps the runtime supplies.
pub struct PkEngine<A: Application> {
    me: ProcessId,
    n: usize,
    costs: StorageCosts,
    checkpoint_interval: u64,
    flush_interval: u64,

    app: A,
    clock: VectorClock,
    inc: u32,
    known_inc: Vec<u32>,
    checkpoints: CheckpointStore<Ckpt<A>>,
    log: EventLog<Logged<A::Msg>>,
    /// Messages parked: either their sender incarnation is unknown, or we
    /// are blocked in recovery.
    parked: Vec<(ProcessId, PkWire<A::Msg>)>,
    /// Blocked awaiting rollback acks.
    recovering: bool,
    acks_pending: usize,
    /// Microsecond timestamp at which the current recovery began.
    recovery_started_at: u64,
    /// FIFO bookkeeping.
    next_link_seq: Vec<u64>,
    last_seen_seq: HashMap<(ProcessId, u32), u64>,
    /// Out-of-order deliveries observed (should be 0 on a FIFO network).
    fifo_violations: u64,
    /// Effects accumulated by the current `handle` call.
    effects: Vec<Effect<PkWire<A::Msg>>>,

    delivered: u64,
    sent: u64,
    restarts: u64,
    rollbacks: u64,
    rollbacks_by_failure: HashMap<(ProcessId, u32), u64>,
    piggyback_bytes: u64,
    control_messages: u64,
    control_bytes: u64,
    recovery_blocked_us: u64,
    deliveries_undone: u64,
}

impl<A: Application> PkEngine<A> {
    /// Create the engine for process `me` of `n` running `app`.
    pub fn new(
        me: ProcessId,
        n: usize,
        app: A,
        costs: StorageCosts,
        checkpoint_interval: u64,
        flush_interval: u64,
    ) -> Self {
        PkEngine {
            me,
            n,
            costs,
            checkpoint_interval,
            flush_interval,
            app,
            clock: VectorClock::new(me, n),
            inc: 0,
            known_inc: vec![0; n],
            checkpoints: CheckpointStore::new(),
            log: EventLog::new(),
            parked: Vec::new(),
            recovering: false,
            acks_pending: 0,
            recovery_started_at: 0,
            next_link_seq: vec![0; n],
            last_seen_seq: HashMap::new(),
            fifo_violations: 0,
            effects: Vec::new(),
            delivered: 0,
            sent: 0,
            restarts: 0,
            rollbacks: 0,
            rollbacks_by_failure: HashMap::new(),
            piggyback_bytes: 0,
            control_messages: 0,
            control_bytes: 0,
            recovery_blocked_us: 0,
            deliveries_undone: 0,
        }
    }

    /// The application state.
    pub fn app(&self) -> &A {
        &self.app
    }

    /// Out-of-order deliveries observed (0 on a FIFO network).
    pub fn fifo_violations(&self) -> u64 {
        self.fifo_violations
    }

    /// Comparable metrics.
    pub fn report(&self) -> ProtoReport {
        ProtoReport {
            delivered: self.delivered,
            sent: self.sent,
            rollbacks: self.rollbacks,
            max_rollbacks_per_failure: self
                .rollbacks_by_failure
                .values()
                .copied()
                .max()
                .unwrap_or(0),
            restarts: self.restarts,
            piggyback_bytes: self.piggyback_bytes,
            control_bytes: self.control_bytes,
            control_messages: self.control_messages,
            recovery_blocked_us: self.recovery_blocked_us,
            deliveries_undone: self.deliveries_undone,
            app_digest: self.app.digest(),
        }
    }

    fn emit(&mut self, effects: Effects<A::Msg>, live: bool) {
        for (to, payload) in effects.sends {
            let stamp = self.clock.stamp_for_send();
            if live {
                let link_seq = self.next_link_seq[to.index()];
                self.next_link_seq[to.index()] += 1;
                self.sent += 1;
                self.piggyback_bytes +=
                    (clockwire::encode_vector(&stamp).len() + 4 + clockwire::varint_len(link_seq))
                        as u64;
                self.effects.push(Effect::Send {
                    to,
                    wire: PkWire::App {
                        inc: self.inc,
                        link_seq,
                        clock: stamp,
                        payload,
                    },
                    control: false,
                });
            }
        }
    }

    fn deliver(&mut self, from: ProcessId, clock: VectorClock, payload: A::Msg) {
        self.log.append_volatile(Logged {
            from,
            clock: clock.clone(),
            payload: payload.clone(),
        });
        self.clock.observe(&clock);
        self.delivered += 1;
        let effects = self.app.on_message(self.me, from, &payload, self.n);
        self.emit(effects, true);
    }

    fn replay(&mut self, entry: &Logged<A::Msg>) {
        self.clock.observe(&entry.clock);
        let effects = self
            .app
            .on_message(self.me, entry.from, &entry.payload, self.n);
        // Replay never re-sends; originals already left.
        for (_, _payload) in effects.sends {
            self.clock.tick(); // keep the clock trajectory identical
        }
    }

    fn take_checkpoint(&mut self) {
        self.log.flush();
        self.checkpoints.take(Ckpt {
            app: self.app.clone(),
            clock: self.clock.clone(),
            log_end: self.log.end(),
        });
        self.effects.push(Effect::Checkpoint {
            cost_us: self.costs.checkpoint_write,
            bytes: 0,
        });
    }

    fn rollback_for(&mut self, failed: ProcessId, inc: u32, restored: &VectorClock) {
        *self.rollbacks_by_failure.entry((failed, inc)).or_insert(0) += 1;
        self.rollbacks += 1;
        self.log.flush();
        let limit = restored.stamp(failed);
        let (ckpt_id, ckpt) = self
            .checkpoints
            .iter_newest_first()
            .find(|(_, c)| c.clock.stamp(failed) <= limit)
            .map(|(id, c)| (id, c.clone()))
            .expect("the initial checkpoint never depends on anyone");
        self.checkpoints.discard_after(ckpt_id);
        self.app = ckpt.app;
        self.clock.restore_from(&ckpt.clock);
        let entries: Vec<(LogPos, Logged<A::Msg>)> = self
            .log
            .live_entries_from(ckpt.log_end)
            .map(|(pos, e)| (pos, e.clone()))
            .collect();
        let mut stop_pos = None;
        for (pos, entry) in &entries {
            if entry.clock.stamp(failed) > limit {
                // First orphan delivery: discard from here (Peterson–
                // Kearns discards the suffix; no re-injection).
                stop_pos = Some(*pos);
                break;
            }
            self.replay(entry);
        }
        if let Some(pos) = stop_pos {
            let discarded = self.log.split_off_suffix(pos);
            self.deliveries_undone += discarded.len() as u64;
        }
        self.clock.tick();
    }

    fn on_wire(&mut self, from: ProcessId, wire: PkWire<A::Msg>, now: u64) {
        match wire {
            PkWire::App {
                inc,
                link_seq,
                clock,
                payload,
            } => {
                if inc < self.known_inc[from.index()] {
                    // From a dead incarnation: obsolete.
                    self.deliveries_undone += 0; // counted at the roller
                    return;
                }
                if inc > self.known_inc[from.index()] || self.recovering {
                    // Token not yet seen (or we are blocked): park.
                    self.parked.push((
                        from,
                        PkWire::App {
                            inc,
                            link_seq,
                            clock,
                            payload,
                        },
                    ));
                    return;
                }
                // FIFO check (diagnostic).
                let key = (from, inc);
                let last = self.last_seen_seq.get(&key).copied();
                if let Some(last) = last {
                    if link_seq <= last {
                        self.fifo_violations += 1;
                    }
                }
                self.last_seen_seq
                    .insert(key, link_seq.max(last.unwrap_or(0)));
                self.deliver(from, clock, payload);
            }
            PkWire::Token { inc, restored } => {
                self.known_inc[from.index()] = inc;
                if self.clock.stamp(from) > restored.stamp(from) {
                    self.rollback_for(from, inc, &restored);
                }
                self.control_messages += 1;
                self.control_bytes += 4;
                self.effects.push(Effect::Send {
                    to: from,
                    wire: PkWire::Ack { inc },
                    control: true,
                });
                self.release_parked(now);
            }
            PkWire::Ack { inc } => {
                if self.recovering && inc == self.inc && self.acks_pending > 0 {
                    self.acks_pending -= 1;
                    if self.acks_pending == 0 {
                        self.recovering = false;
                        self.recovery_blocked_us += now.saturating_sub(self.recovery_started_at);
                        self.release_parked(now);
                    }
                }
            }
        }
    }

    fn release_parked(&mut self, now: u64) {
        if self.recovering {
            return;
        }
        let parked = std::mem::take(&mut self.parked);
        for (from, wire) in parked {
            self.on_wire(from, wire, now);
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
                if !self.recovering {
                    self.take_checkpoint();
                }
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
        self.last_seen_seq.clear();
        self.effects.clear();
    }

    fn on_restart(&mut self, now: u64) {
        let (_, ckpt) = self
            .checkpoints
            .latest()
            .map(|(id, c)| (id, c.clone()))
            .expect("initial checkpoint exists");
        self.app = ckpt.app;
        self.clock.restore_from(&ckpt.clock);
        let entries: Vec<Logged<A::Msg>> =
            self.log.live_events_from(ckpt.log_end).cloned().collect();
        for e in &entries {
            self.replay(e);
        }
        self.inc += 1;
        self.known_inc[self.me.index()] = self.inc;
        self.restarts += 1;
        self.recovering = self.n > 1;
        self.acks_pending = self.n - 1;
        self.recovery_started_at = now;
        self.control_messages += (self.n - 1) as u64;
        self.control_bytes +=
            (self.n - 1) as u64 * (4 + clockwire::encode_vector(&self.clock).len() as u64);
        self.effects.push(Effect::Broadcast {
            wire: PkWire::Token {
                inc: self.inc,
                restored: self.clock.clone(),
            },
        });
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

impl<A: Application> ProtocolEngine for PkEngine<A> {
    type Wire = PkWire<A::Msg>;
    type Cmd = ();
    type Out = ();

    fn handle_into(&mut self, input: Input<PkWire<A::Msg>>, sink: &mut EffectSink<PkWire<A::Msg>>) {
        match input {
            Input::Start { .. } => self.on_start(),
            Input::Deliver { from, wire, now } => self.on_wire(from, wire, now),
            Input::Tick { kind, .. } => self.on_tick(kind),
            Input::AppSend { .. } => {} // external command injection unsupported
            Input::Crash => self.on_crash(),
            Input::Restart { now } => self.on_restart(now),
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
        for j in dg_core::ProcessId::all(self.n) {
            mix(self.clock.stamp(j));
        }
        mix(u64::from(self.inc));
        for inc in &self.known_inc {
            mix(u64::from(*inc));
        }
        mix(self.delivered);
        mix(self.sent);
        mix(self.rollbacks);
        mix(self.restarts);
        mix(self.parked.len() as u64);
        mix(u64::from(self.recovering));
        mix(self.app.digest());
        h
    }
}

/// A process under Peterson–Kearns vector-time rollback recovery, as a
/// simulator actor (a thin adapter over [`PkEngine`]).
pub struct PkProcess<A: Application> {
    engine: PkEngine<A>,
}

impl<A: Application> PkProcess<A> {
    /// Create process `me` of `n` running `app`.
    pub fn new(
        me: ProcessId,
        n: usize,
        app: A,
        costs: StorageCosts,
        checkpoint_interval: u64,
        flush_interval: u64,
    ) -> Self {
        PkProcess {
            engine: PkEngine::new(me, n, app, costs, checkpoint_interval, flush_interval),
        }
    }

    /// The underlying transport-agnostic engine.
    pub fn engine(&self) -> &PkEngine<A> {
        &self.engine
    }

    /// The application state.
    pub fn app(&self) -> &A {
        self.engine.app()
    }

    /// Out-of-order deliveries observed (0 on a FIFO network).
    pub fn fifo_violations(&self) -> u64 {
        self.engine.fifo_violations()
    }

    /// Comparable metrics.
    pub fn report(&self) -> ProtoReport {
        self.engine.report()
    }
}

impl<A: Application> Actor for PkProcess<A> {
    type Msg = PkWire<A::Msg>;

    fn on_start(&mut self, ctx: &mut Context<'_, PkWire<A::Msg>>) {
        let effects = self.engine.handle(Input::Start {
            now: ctx.now().as_micros(),
        });
        run_effects(effects, ctx);
    }

    fn on_message(
        &mut self,
        from: ProcessId,
        msg: PkWire<A::Msg>,
        ctx: &mut Context<'_, PkWire<A::Msg>>,
    ) {
        let effects = self.engine.handle(Input::Deliver {
            from,
            wire: msg,
            now: ctx.now().as_micros(),
        });
        run_effects(effects, ctx);
    }

    fn on_timer(&mut self, kind: u32, ctx: &mut Context<'_, PkWire<A::Msg>>) {
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

    fn on_restart(&mut self, ctx: &mut Context<'_, PkWire<A::Msg>>) {
        let effects = self.engine.handle(Input::Restart {
            now: ctx.now().as_micros(),
        });
        run_effects(effects, ctx);
    }
}
