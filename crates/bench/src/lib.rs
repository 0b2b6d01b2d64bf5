//! Experiment library reproducing the paper's evaluation artifacts.
//!
//! Each function implements one experiment from DESIGN.md's index and
//! returns structured results; the `experiments` binary renders them as
//! the paper-style tables recorded in EXPERIMENTS.md, and [`paper()`]
//! renders the paper's own evaluation as `tests/golden/paper.txt` pins
//! it.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod paper;
pub mod protocols;
pub mod table;

mod experiments;

pub use experiments::*;
pub use paper::{paper, paper_section, PAPER_EXPERIMENTS};
