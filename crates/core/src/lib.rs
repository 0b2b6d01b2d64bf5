//! The Damani–Garg optimistic rollback-recovery protocol.
//!
//! This crate implements the primary contribution of *How to Recover
//! Efficiently and Asynchronously when Optimism Fails* (Damani & Garg,
//! ICDCS 1996): completely asynchronous optimistic recovery built from a
//! **fault-tolerant vector clock** (the [`dg_ftvc`] crate) and a
//! **history mechanism** ([`History`], Figure 3 of the paper), layered
//! over checkpointing and asynchronous receiver-side message logging
//! (the [`dg_storage`] crate).
//!
//! # Protocol summary (Figure 4 of the paper)
//!
//! * Every application message piggybacks the sender's FTVC.
//! * A receiver first runs the **obsolete test** (Lemma 4): if any clock
//!   component `(v, ts)` exceeds a recorded *token* for that process and
//!   version, the message came from a lost or orphan state and is
//!   discarded.
//! * Next the **deliverability test**: if the clock mentions a version
//!   `k` of some process whose tokens for versions `< k` have not all
//!   arrived, delivery is postponed until they do.
//! * On delivery the message is logged (volatile, flushed
//!   asynchronously), the history records the message's `(version, ts)`
//!   per process, the FTVC merges, and the application takes a
//!   deterministic step.
//! * After a **failure** a process restores its last checkpoint, replays
//!   its stable log, broadcasts a token `(failed version, restored
//!   timestamp)`, increments its version, checkpoints, and keeps going —
//!   it never waits for anyone (asynchronous recovery).
//! * On receiving a token, a process checks the **orphan test**
//!   (Lemma 3): a recorded *message* dependency on the failed version
//!   with a timestamp above the token means the process is an orphan; it
//!   rolls back (at most once per failure) to its maximum non-orphan
//!   state.
//!
//! The protocol itself lives in the transport-agnostic [`Engine`] (the
//! sans-IO pattern: `handle_into(Input, &mut EffectSink)`, no IO, no
//! clock, no RNG — see the [`engine`] module docs). The `simnet` cargo feature
//! (default on) additionally provides [`DgProcess`], an actor adapter
//! hosting the engine under the `dg_simnet` discrete-event simulator;
//! the `dg-netrun` crate hosts the same engine on real OS threads and
//! TCP sockets.
//!
//! ```
//! use dg_core::{Application, DgConfig, DgProcess, Effects, ProcessId};
//! use dg_simnet::{NetConfig, Sim};
//!
//! // A ring of counters: each process forwards an incrementing counter.
//! #[derive(Clone)]
//! struct Ring { seen: u64 }
//! impl Application for Ring {
//!     type Msg = u64;
//!     fn on_start(&mut self, me: ProcessId, n: usize) -> Effects<u64> {
//!         if me == ProcessId(0) {
//!             Effects::send(ProcessId(1 % n as u16), 1)
//!         } else {
//!             Effects::none()
//!         }
//!     }
//!     fn on_message(&mut self, me: ProcessId, _from: ProcessId, msg: &u64, n: usize)
//!         -> Effects<u64>
//!     {
//!         self.seen = *msg;
//!         if *msg < 20 {
//!             let next = ProcessId((me.0 + 1) % n as u16);
//!             Effects::send(next, *msg + 1)
//!         } else {
//!             Effects::none()
//!         }
//!     }
//! }
//!
//! let actors = (0..3)
//!     .map(|i| DgProcess::new(ProcessId(i), 3, Ring { seen: 0 }, DgConfig::default()))
//!     .collect();
//! let mut sim = Sim::new(NetConfig::with_seed(1), actors);
//! sim.schedule_crash(ProcessId(1), 3_000);   // crash mid-run
//! sim.run();
//! // The ring completes despite the failure.
//! assert!(sim.actors().iter().any(|a| a.app().seen == 20));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod app;
mod config;
pub mod engine;
pub mod fasthash;
mod history;
mod message;
mod output;
pub mod predicate;
#[cfg(feature = "simnet")]
mod process;
mod stats;
pub mod wirecodec;

pub use app::{Application, Effects};
pub use config::DgConfig;
pub use dg_ftvc::{Entry, Ftvc, ProcessId, Version};
pub use engine::{
    timers, Effect, EffectSink, Engine, EngineView, Input, ProtocolEngine, StorageFault,
};
pub use fasthash::{FxHashMap, FxHashSet};
pub use history::{History, HistoryRecord, RecordKind};
pub use message::{Envelope, MsgId, Token, Wire};
pub use output::{OutputBuffer, OutputId, PendingOutput};
#[cfg(feature = "simnet")]
pub use process::{run_effects, DgProcess};
pub use stats::{FailureId, ProcessStats};
