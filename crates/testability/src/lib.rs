//! # hlts-testability — RT-level testability analysis
//!
//! The testability-analysis half of the `hlts` system, after Gu,
//! Kuchcinski & Peng ("Testability analysis and improvement from VHDL
//! behavioral specifications", EURO-DAC 1994), operating on the ETPN
//! data path:
//!
//! * [`TestabilityAnalysis`] — computes the four measures of the paper's
//!   §2 for every data-path line: **combinational controllability** (CC),
//!   **sequential controllability** (SC), **combinational observability**
//!   (CO) and **sequential observability** (SO); controllabilities
//!   propagate forward from primary inputs, observabilities backward from
//!   primary outputs, with a fixpoint iteration handling feedback loops;
//! * node summaries per the paper's §3: a node's controllability is the
//!   *best* controllability of any of its input lines, its observability
//!   the *best* observability of any of its output lines;
//! * [`balance_score`] — the controllability/observability *balance*
//!   objective that drives merge-pair selection ("fold nodes with good
//!   controllability and bad observability to nodes with good
//!   observability and bad controllability");
//! * [`sequential_depth`] and [`total_co_depth`] — the register-to-
//!   register sequential-depth metrics behind Lee et al.'s rule SR1 and
//!   the paper's rescheduling strategy SR2.
//!
//! The analysis comes in two solvers sharing one transfer function:
//! the production **worklist** ([`TestabilityAnalysis::analyze`]) and
//! the dense Gauss–Seidel **reference**
//! ([`TestabilityAnalysis::analyze_dense`]) it is property-tested
//! bit-identical to. Algorithm 1 runs one analysis per iteration, on
//! the current data path, so nothing is cached; a run counts its
//! analyses in a [`TestabilityCacheStats`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod analysis;
mod balance;
mod depth;
mod factors;
mod worklist;

pub use analysis::{Controllability, Observability, TestabilityAnalysis, TestabilityCacheStats};
pub use balance::{balance_score, balance_score_profiles, NodeProfile};
pub use depth::{register_adjacency, sequential_depth, total_co_depth};
pub use factors::{ctf, otf};
