//! # hlts-atpg — stuck-at test-generation primitives over gate netlists
//!
//! The test substrate behind the paper's fault-coverage / test-
//! generation-time / test-cycle columns. The paper's testability metric
//! "assumes that a stuck-at fault model is used and ATPG is random
//! and/or deterministic ... many ATPG's start by using random test
//! generation to cover as many faults as possible and then switch to
//! deterministic test generation" (§2). This crate supplies the pieces
//! of that flow; the two-phase orchestration itself (sequence drawing,
//! target selection, accounting) lives in `hlts-tcov`:
//!
//! * [`Simulator`] — levelized, 64-pattern-parallel cycle simulation;
//! * [`FaultUniverse`] — single stuck-at faults on gate outputs and
//!   inputs, with structural equivalence collapsing and optional
//!   sampling;
//! * [`FaultSimulator`] — serial-fault, parallel-pattern fault
//!   simulation with fault dropping: a good machine recorded once per
//!   sequence ([`GoodTrace`]), and an event-driven, cone-limited
//!   single-fault check ([`FaultSimulator::detects`]) working in a
//!   caller-owned [`FaultScratch`];
//! * [`Podem`] — deterministic PODEM over a time-frame-expanded model
//!   (reset state, bounded frames, bounded backtracks).
//!
//! `Podem` and `FaultSimulator` run on one shared levelized view of the
//! netlist (topological positions, fan-in and fanout as CSR arrays),
//! built once per instance.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod faults;
mod faultsim;
mod levels;
mod podem;
mod sim;

pub use faults::{Fault, FaultSite, FaultUniverse};
pub use faultsim::{FaultScratch, FaultSimulator, GoodTrace, PiAssign};
pub use podem::{Podem, PodemOutcome};
pub use sim::Simulator;
