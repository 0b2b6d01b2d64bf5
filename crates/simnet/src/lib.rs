//! Deterministic discrete-event network simulator.
//!
//! The Damani–Garg protocol is specified against an abstract asynchronous
//! message-passing system: arbitrary (but finite) message delays, **no
//! ordering guarantees**, process crashes, and network partitions. This
//! crate implements exactly that model as a seeded, single-threaded
//! discrete-event simulation, so every experiment and every randomized test
//! in the workspace is reproducible bit-for-bit from its seed.
//!
//! # Model
//!
//! * Processes are [`Actor`]s driven purely by events: message deliveries,
//!   timers, crashes, restarts.
//! * Message delays are drawn per message from a configurable
//!   [`DelayModel`]; by default channels are **not** FIFO (the paper's
//!   weakest assumption). Baselines that require FIFO set
//!   [`NetConfig::fifo`].
//! * A crash wipes the actor's volatile state (the actor's
//!   [`Actor::on_crash`] does the wiping) and silences it until the
//!   scheduled restart. Messages arriving while a process is down are
//!   *parked* and redelivered after the restart — by default the network
//!   is reliable; what a failure loses is the process's unlogged volatile
//!   state, never an undelivered message.
//! * Loss injection relaxes the reliability assumption on demand:
//!   per-class steady-state drop rates ([`NetConfig::loss`],
//!   [`NetConfig::control_loss`]), scheduled burst-loss windows
//!   ([`NetConfig::burst`]), per-link overrides ([`NetConfig::link_loss`])
//!   and extra delay jitter ([`NetConfig::jitter`]). Dropped messages are
//!   counted in [`RunStats`] and visible in the trace.
//! * Storage faults ([`FaultKind`]) can be injected at a point in time with
//!   [`Sim::schedule_fault`], e.g. corrupting the newest checkpoint frame
//!   to exercise recovery fallback paths.
//! * At most one network partition is active at a time; messages crossing
//!   the cut are held and delivered after the partition heals.
//!
//! ```
//! use dg_simnet::{Actor, Context, NetConfig, ProcessId, Sim};
//!
//! struct Echo { got: usize }
//! impl Actor for Echo {
//!     type Msg = u32;
//!     fn on_start(&mut self, ctx: &mut Context<'_, u32>) {
//!         if ctx.me() == ProcessId(0) { ctx.send(ProcessId(1), 7); }
//!     }
//!     fn on_message(&mut self, _from: ProcessId, msg: u32, ctx: &mut Context<'_, u32>) {
//!         self.got += 1;
//!         if msg > 0 { ctx.send(ProcessId(0), msg - 1); }
//!     }
//! }
//!
//! let mut sim = Sim::new(NetConfig::default().seed(42), vec![Echo { got: 0 }, Echo { got: 0 }]);
//! sim.run();
//! assert_eq!(sim.actor(ProcessId(0)).got + sim.actor(ProcessId(1)).got, 8);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod actor;
mod config;
mod event;
pub mod manual;
mod sim;
mod time;
mod trace;

pub use actor::{Actor, Context, FaultKind, TimerId};
pub use config::{DelayModel, LinkLoss, LossBurst, NetConfig};
pub use dg_ftvc::ProcessId;
pub use event::MessageClass;
pub use sim::{RunStats, Sim};
pub use time::SimTime;
pub use trace::{Trace, TraceEvent, TraceKind};
