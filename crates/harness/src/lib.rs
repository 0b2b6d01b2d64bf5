//! Simulation harness for recovery-protocol experiments.
//!
//! Everything the experiments and the randomized test suites share:
//!
//! * [`FaultPlan`] — declarative crash/partition schedules, including
//!   seeded random plans for fuzz-style model checking;
//! * [`run_dg`] / [`run_actors`] — run a system to quiescence and collect
//!   per-process [`ProtoReport`]s that are comparable **across
//!   protocols** (Damani–Garg and every baseline reports the same
//!   metrics, which is what makes the Table 1 reproduction honest);
//! * [`explorer`] — a bounded model checker: exhaustively enumerate
//!   every interleaving of a small system (message orders, flush and
//!   checkpoint placement, crash points) and check the invariants in all
//!   of them;
//! * [`oracle`] — the omniscient consistency checker: after a run it
//!   verifies the paper's guarantees (no surviving orphan dependency,
//!   at most one rollback per failure per process, empty postponement
//!   queues, FTVC sanity) against ground truth the protocol cannot see;
//! * [`service_oracle`] — the client-visible contract checker for the
//!   served store (`dg-service`): no acked write lost, no phantom read,
//!   no duplicate side effect, replica convergence, deterministic
//!   answers.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod explorer;
mod faults;
pub mod oracle;
mod report;
mod runner;
pub mod service_oracle;

pub use faults::{CrashSpec, FaultPlan, PartitionSpec};
pub use report::{ProtoReport, SystemSummary};
pub use runner::{dg_report, run_actors, run_dg, DgRunOutcome, RunOutcome};
