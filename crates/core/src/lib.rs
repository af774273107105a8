//! # hlts-core — integrated scheduling and allocation for test synthesis
//!
//! The primary contribution of *Yang & Peng, DATE 1998*: a high-level
//! test synthesis algorithm that performs operation scheduling and data
//! path allocation **simultaneously**, by iteratively applying merger
//! transformations selected with a controllability/observability balance
//! principle and priced by ΔC = α·ΔE + β·ΔH (the paper's Algorithm 1).
//!
//! * [`IntegratedSynthesizer`] — the algorithm itself;
//! * [`SynthesisParams`] — the paper's user parameters `k`, `α`, `β`,
//!   plus the module library and bit width used for ΔH;
//! * [`DesignState`] — the evolving (graph, schedule, allocation) triple;
//! * [`StateTxn`] / [`trial_merge`] — the transaction layer: candidate
//!   mergers are applied **in place**, priced, and rolled back through
//!   a journal of fine-grained undo operations instead of cloning the
//!   state (the [`oracle`] module preserves the clone-based
//!   formulation as a golden reference);
//! * [`baselines`] — the three comparison flows of the evaluation
//!   section: CAMAD-style connectivity synthesis, Approach 1
//!   (force-directed scheduling + Lee allocation) and Approach 2
//!   (mobility-path scheduling + modified left-edge allocation);
//! * [`SynthesisResult`] / [`DesignMetrics`] — reporting in the shape of
//!   the paper's tables.
//!
//! # Example
//!
//! ```
//! use hlts_core::{IntegratedSynthesizer, SynthesisParams};
//! use hlts_dfg::parse;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let dfg = parse(
//!     "dfg t { input a, b, c;
//!        N1: p = a * b; N2: q = b * c; N3: r = p - q; N4: s = p + c;
//!        output r, s; }",
//! )?;
//! let result = IntegratedSynthesizer::new(SynthesisParams::default()).run(&dfg)?;
//! assert!(result.allocation.num_modules() <= 4);
//! result.schedule.validate(&result.dfg)?;
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

mod algorithm;
pub mod baselines;
mod candidates;
mod delta_eval;
mod error;
pub mod oracle;
mod progress;
mod report;
mod resched;
mod state;
mod trace;
mod txn;

pub use algorithm::{
    EvalMode, IntegratedSynthesizer, SelectionPolicy, SynthesisParams, WarmSynthesis,
};
pub use candidates::{enumerate_candidates, MergeCandidate, MergeKind};
pub use delta_eval::{CriticalPathStats, DeltaEvaluator, EvalStats};
pub use error::CoreError;
pub use progress::{CancelToken, NullSink, ProgressEvent, ProgressSink, RunCtl};
pub use report::{DesignMetrics, SynthesisResult};
pub use resched::{
    disjointness_arcs, lifetime_order_feasible, merge_modules_with_resched,
    merge_registers_with_resched, register_walk_verdict, WalkVerdict,
};
pub use state::DesignState;
pub use trace::{MergeTrace, ReplayStats, TraceEntry, TraceMergeKind, TraceWinner};
pub use txn::{trial_merge, StateTxn, TxnSavepoint, TxnStats};

// Re-export the testability counters `SynthesisResult` exposes so
// downstream users don't need a direct dependency for them.
pub use hlts_testability::TestabilityCacheStats;

// The invariant auditor lives in `hlts-check`; re-export the report
// types [`DesignState::audit`] returns so callers can inspect
// violations without a direct dependency.
pub use hlts_check::{AuditReport, AuditViolation};
