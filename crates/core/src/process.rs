//! The simulator adapter: the sans-IO [`Engine`] hosted as a
//! [`dg_simnet::Actor`].
//!
//! All protocol logic lives in [`crate::engine`]; this module only
//! translates simulator events into [`Input`]s and executes the returned
//! [`Effect`]s against the simulator [`Context`]. The translation is
//! position-preserving — stalls (storage latency) land exactly where the
//! pre-refactor inlined implementation issued them, so simulated
//! schedules are bit-identical across the refactor.

use dg_ftvc::{Ftvc, ProcessId, Version};
use dg_simnet::{Actor, Context, FaultKind};

use crate::app::Application;
use crate::config::DgConfig;
use crate::engine::{Effect, EffectSink, Engine, EngineView, Input, ProtocolEngine, StorageFault};
use crate::history::History;
use crate::message::Wire;
use crate::stats::ProcessStats;

/// Execute a batch of engine [`Effect`]s against a simulator [`Context`].
///
/// Shared by every actor adapter (Damani–Garg here, the baseline
/// protocols in `dg-baselines`): sends map to context sends, timers to
/// context timers, and storage costs to stalls at the same positions the
/// engine incurred them — stall position matters, because the simulator
/// charges storage latency to *subsequent* sends in the same handler.
/// Returns the outputs committed by this batch (the engine also retains
/// them; see [`Engine::committed_outputs`]).
pub fn run_effects<W, O>(
    effects: impl IntoIterator<Item = Effect<W, O>>,
    ctx: &mut Context<'_, W>,
) -> Vec<O>
where
    W: Clone,
{
    let mut committed = Vec::new();
    for effect in effects {
        match effect {
            Effect::Send { to, wire, control } => {
                if control {
                    ctx.send_control(to, wire);
                } else {
                    ctx.send(to, wire);
                }
            }
            Effect::Broadcast { wire } => ctx.broadcast_control(wire),
            Effect::SetTimer {
                delay,
                kind,
                maintenance,
            } => {
                if maintenance {
                    ctx.set_maintenance_timer(delay, kind);
                } else {
                    ctx.set_timer(delay, kind);
                }
            }
            Effect::Checkpoint { cost_us, .. } | Effect::LogWrite { cost_us, .. } => {
                ctx.stall(cost_us);
            }
            Effect::Commit { outputs, cost_us } => {
                ctx.stall(cost_us);
                committed.extend(outputs);
            }
        }
    }
    committed
}

/// A process running the Damani–Garg optimistic recovery protocol around
/// a piecewise-deterministic [`Application`], as a simulator actor.
///
/// This is a thin adapter over [`Engine`]; see the `dg-harness` crate for
/// running whole systems with fault injection. `Clone` snapshots the
/// entire process (volatile and stable state), which the exhaustive
/// interleaving explorer uses to branch executions.
#[derive(Clone)]
pub struct DgProcess<A: Application> {
    engine: Engine<A>,
    /// Reused effect buffer: the actor callbacks run the engine through
    /// [`ProtocolEngine::handle_into`] and drain this sink, so the
    /// simulated hot path shares the networked runtimes' allocation-free
    /// discipline.
    sink: EffectSink<Wire<A::Msg>, A::Msg>,
}

impl<A: Application> DgProcess<A> {
    /// Create process `me` of an `n`-process system around `app`.
    ///
    /// # Panics
    ///
    /// Panics if `me.index() >= n`.
    pub fn new(me: ProcessId, n: usize, app: A, config: DgConfig) -> DgProcess<A> {
        DgProcess {
            engine: Engine::new(me, n, app, config),
            sink: EffectSink::new(),
        }
    }

    /// The underlying transport-agnostic engine.
    pub fn engine(&self) -> &Engine<A> {
        &self.engine
    }

    /// Unwrap into the underlying engine (e.g. to rehost it on another
    /// runtime).
    pub fn into_engine(self) -> Engine<A> {
        self.engine
    }

    /// This process's id.
    pub fn id(&self) -> ProcessId {
        EngineView::id(&self.engine)
    }

    /// The application state.
    pub fn app(&self) -> &A {
        self.engine.app()
    }

    /// The current fault-tolerant vector clock.
    pub fn clock(&self) -> &Ftvc {
        self.engine.clock()
    }

    /// The current history tables.
    pub fn history(&self) -> &History {
        self.engine.history()
    }

    /// The current incarnation number.
    pub fn version(&self) -> Version {
        EngineView::version(&self.engine)
    }

    /// Protocol statistics.
    pub fn stats(&self) -> &ProcessStats {
        EngineView::stats(&self.engine)
    }

    /// Messages currently postponed awaiting tokens.
    pub fn postponed_len(&self) -> usize {
        self.engine.postponed_len()
    }

    /// Committed external outputs, in commit order.
    pub fn committed_outputs(&self) -> impl Iterator<Item = &A::Msg> {
        self.engine.committed_outputs()
    }

    /// Outputs still awaiting commit.
    pub fn pending_outputs(&self) -> usize {
        self.engine.pending_outputs()
    }

    /// Number of retained checkpoints (after GC).
    pub fn checkpoint_count(&self) -> usize {
        self.engine.checkpoint_count()
    }

    /// Own recovery tokens not yet acknowledged by every peer. With
    /// [`DgConfig::reliable_tokens`] on, the oracle requires this to be
    /// zero at quiescence: every token reached every peer.
    pub fn pending_token_count(&self) -> usize {
        self.engine.pending_token_count()
    }

    /// Live entries currently in the stable/volatile log.
    pub fn log_len(&self) -> usize {
        self.engine.log_len()
    }

    /// A fingerprint of the full process state; see
    /// [`EngineView::state_digest`].
    pub fn state_digest(&self) -> u64 {
        EngineView::state_digest(&self.engine)
    }
}

impl<A: Application> EngineView for DgProcess<A> {
    fn id(&self) -> ProcessId {
        EngineView::id(&self.engine)
    }
    fn clock(&self) -> &Ftvc {
        EngineView::clock(&self.engine)
    }
    fn history(&self) -> &History {
        EngineView::history(&self.engine)
    }
    fn version(&self) -> Version {
        EngineView::version(&self.engine)
    }
    fn stats(&self) -> &ProcessStats {
        EngineView::stats(&self.engine)
    }
    fn postponed_len(&self) -> usize {
        EngineView::postponed_len(&self.engine)
    }
    fn pending_token_count(&self) -> usize {
        EngineView::pending_token_count(&self.engine)
    }
    fn state_digest(&self) -> u64 {
        EngineView::state_digest(&self.engine)
    }
}

impl<A: Application> Actor for DgProcess<A> {
    type Msg = Wire<A::Msg>;

    fn on_start(&mut self, ctx: &mut Context<'_, Wire<A::Msg>>) {
        self.engine.handle_into(
            Input::Start {
                now: ctx.now().as_micros(),
            },
            &mut self.sink,
        );
        run_effects(self.sink.drain(), ctx);
    }

    fn on_message(
        &mut self,
        from: ProcessId,
        msg: Wire<A::Msg>,
        ctx: &mut Context<'_, Wire<A::Msg>>,
    ) {
        self.engine.handle_into(
            Input::Deliver {
                from,
                wire: msg,
                now: ctx.now().as_micros(),
            },
            &mut self.sink,
        );
        run_effects(self.sink.drain(), ctx);
    }

    fn on_timer(&mut self, kind: u32, ctx: &mut Context<'_, Wire<A::Msg>>) {
        self.engine.handle_into(
            Input::Tick {
                kind,
                now: ctx.now().as_micros(),
            },
            &mut self.sink,
        );
        run_effects(self.sink.drain(), ctx);
    }

    fn on_crash(&mut self) {
        self.engine.handle_into(Input::Crash, &mut self.sink);
        debug_assert!(self.sink.is_empty(), "a crashed process acts silently");
        self.sink.clear();
    }

    fn on_restart(&mut self, ctx: &mut Context<'_, Wire<A::Msg>>) {
        self.engine.handle_into(
            Input::Restart {
                now: ctx.now().as_micros(),
            },
            &mut self.sink,
        );
        run_effects(self.sink.drain(), ctx);
    }

    fn on_fault(&mut self, kind: FaultKind) {
        let fault = match kind {
            FaultKind::CorruptLatestCheckpoint => StorageFault::CorruptLatestCheckpoint,
        };
        self.engine.handle_into(Input::Fault(fault), &mut self.sink);
        debug_assert!(self.sink.is_empty(), "storage faults act silently");
        self.sink.clear();
    }
}
