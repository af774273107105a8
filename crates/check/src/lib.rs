//! # hlts-check — cross-crate invariant auditing and fault injection
//!
//! The synthesis kernel mutates one shared design state in place
//! through a transaction journal and fans it out across worker pools;
//! a single bad rollback or poisoned mutex no longer loses one cloned
//! trial, it corrupts the whole run. This crate is the validation and
//! recovery layer that makes that architecture safe to evolve:
//!
//! * [`audit_design`] — a structural invariant auditor over the
//!   (graph, schedule, allocation) triple that collects **every**
//!   violation into an [`AuditReport`] instead of stopping at the
//!   first: binding consistency (each operation bound to a live module
//!   whose roster lists it back, each register-occupying value bound to
//!   a live register), schedule legality under sharing constraints
//!   (module-sharing operations in pairwise distinct control steps,
//!   register-sharing values with disjoint lifetimes, precedence arcs
//!   respected), and arc-overlay well-formedness (in-range endpoints,
//!   no strict self-arcs, no duplicates, acyclic);
//! * [`audit_txn_balance`] — the transaction-journal balance check:
//!   the monotone counters can never show more closed transactions
//!   than opened ones or more undo operations replayed than recorded;
//! * [`faults`] — deliberately armed failure points (`FaultPlan`)
//!   behind the `test-faults` feature, used by the fault-injection
//!   suites to kill workers mid-sweep, corrupt journal lines and force
//!   rollbacks, asserting graceful degradation.
//!
//! The crate sits **below** `hlts-core`: it depends only on the graph,
//! schedule and allocation layers, so the core's merge loop (and the
//! DSE runner above it) can call the auditor after every rollback
//! without a dependency cycle.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

mod audit;
pub mod faults;

pub use audit::{audit_design, audit_txn_balance, AuditReport, AuditViolation};
