//! Clock substrate for the Damani–Garg optimistic-recovery reproduction.
//!
//! This crate implements the paper's central data structure — the
//! **fault-tolerant vector clock** ([`Ftvc`], Figure 2 of the paper) — plus
//! the classic vector clock it generalizes ([`VectorClock`]) and a compact
//! wire encoding ([`wire`]) used by the benchmark harness to measure
//! piggyback overhead honestly.
//!
//! # The fault-tolerant vector clock
//!
//! A plain Mattern vector clock breaks when processes fail and roll back:
//! a restarted process would either reuse timestamps (destroying the
//! clock's ordering guarantee) or need its lost timestamp back. The paper
//! extends each component to a pair `(version, timestamp)` — the version
//! counts failures of that process — compared lexicographically. Restart
//! increments the version and resets the timestamp to zero, which needs no
//! state that a failure could destroy other than the version number itself
//! (kept in the checkpoint written during recovery).
//!
//! ```
//! use dg_ftvc::{Ftvc, ProcessId};
//!
//! let mut a = Ftvc::new(ProcessId(0), 3);
//! let mut b = Ftvc::new(ProcessId(1), 3);
//! let stamp = a.stamp_for_send();     // piggyback on an outgoing message
//! b.observe(&stamp);                  // receiver merges
//! assert!(stamp.happened_before(&b)); // the send precedes the receive
//! b.restart();                        // b fails and recovers: version bump
//! assert_eq!(b.entry(ProcessId(1)).version.0, 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod arena;
mod entry;
mod ftvc;
mod ordering;
mod vector;
pub mod wire;

pub use entry::{Entry, ProcessId, Version};
pub use ftvc::Ftvc;
pub use ordering::CausalOrder;
pub use vector::VectorClock;
