//! Accepted-merge traces — the compact record of one synthesis run's
//! committed decisions that warm-start replay consumes.
//!
//! Each iteration of Algorithm 1 prices a prefix of its candidate
//! shortlist and either commits one merge or terminates. A
//! [`TraceEntry`] captures exactly what a *different* parameter point
//! needs to re-take that decision without re-enumerating or re-trialing
//! anything:
//!
//! * the per-candidate **price parts** `(ΔE, ΔH)` for every candidate
//!   that was evaluated — these are pure functions of the design state,
//!   independent of the weights `α`/`β`, so a new point re-prices the
//!   whole shortlist as `ΔC = α·ΔE + β·ΔH` with plain arithmetic;
//! * the committed winner's **operand symbols** (stable DFG op/value
//!   names, resolved back to live module/register ids at replay time)
//!   and its global shortlist **index**, so the replayer can check the
//!   re-priced decision still picks the same merge;
//! * the **post-merge fingerprint** ([`DeltaEvaluator::fingerprint`])
//!   guarding the applied state against any drift.
//!
//! The journal-side text encoding lives in `hlts-dse`; this module is
//! the in-memory contract between capture
//! ([`IntegratedSynthesizer::run_on_warm`]) and replay.
//!
//! [`DeltaEvaluator::fingerprint`]: crate::DeltaEvaluator::fingerprint
//! [`IntegratedSynthesizer::run_on_warm`]:
//!     crate::IntegratedSynthesizer::run_on_warm

use crate::{DesignState, MergeKind};

/// Which structure a recorded merge fused.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceMergeKind {
    /// Two functional modules.
    Modules,
    /// Two registers.
    Registers,
}

/// The committed merge of one trace entry.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceWinner {
    /// Module or register merge.
    pub kind: TraceMergeKind,
    /// Stable symbol locating the first operand: the name of the first
    /// op (module merge) or first value (register merge) of the
    /// surviving side, captured on the pre-merge state.
    pub sym_a: String,
    /// Stable symbol locating the second (absorbed) operand.
    pub sym_b: String,
    /// The winner's global index in the iteration's candidate list.
    pub index: usize,
    /// [`DeltaEvaluator::fingerprint`] of the post-merge state — the
    /// replay guard: a replayed merge only commits when the fingerprint
    /// matches bit for bit.
    ///
    /// [`DeltaEvaluator::fingerprint`]:
    ///     crate::DeltaEvaluator::fingerprint
    pub fingerprint: u64,
}

impl TraceWinner {
    /// Resolve the recorded symbols against `state`, the state this
    /// merge was committed on (or a replay of it): replayed up to this
    /// entry, the op or value named at capture time lives in exactly
    /// the module or register the recorder merged. `None` (unknown
    /// symbol, dead register, or both symbols landing in one unit)
    /// means the replay diverged.
    #[must_use]
    pub fn resolve(&self, state: &DesignState) -> Option<MergeKind> {
        match self.kind {
            TraceMergeKind::Modules => {
                let a = state
                    .allocation
                    .module_of(state.dfg.op_by_name(&self.sym_a)?);
                let b = state
                    .allocation
                    .module_of(state.dfg.op_by_name(&self.sym_b)?);
                (a != b).then_some(MergeKind::Modules(a, b))
            }
            TraceMergeKind::Registers => {
                let a = state
                    .allocation
                    .register_of(state.dfg.value_by_name(&self.sym_a)?)?;
                let b = state
                    .allocation
                    .register_of(state.dfg.value_by_name(&self.sym_b)?)?;
                (a != b).then_some(MergeKind::Registers(a, b))
            }
        }
    }
}

/// One iteration of a recorded run: the evaluated price prefix plus the
/// decision taken.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceEntry {
    /// The committed merge, or `None` for the terminal iteration (no
    /// candidate qualified — or none existed, `total == 0`).
    pub winner: Option<TraceWinner>,
    /// Total candidates the iteration enumerated.
    pub total: usize,
    /// Weight-independent price parts `(ΔE, ΔH)` per candidate, in
    /// shortlist order; `None` marks an infeasible merger. Covers the
    /// prefix of candidates that was actually evaluated: every chunk up
    /// to and including the winner's (commit entries), or all `total`
    /// (terminal entries).
    pub prices: Vec<Option<(f64, f64)>>,
}

/// The accepted-merge trace of one synthesis run, in commit order.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MergeTrace {
    /// One entry per iteration that priced candidates; the last entry
    /// is terminal (`winner == None`) when the run converged, absent
    /// when it was cut short (iteration cap).
    pub entries: Vec<TraceEntry>,
}

/// How a warm-started run split its committed merges between replay and
/// scratch synthesis.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReplayStats {
    /// Merges committed by replaying a seed trace (no candidate
    /// enumeration, no trial transactions).
    pub replayed: usize,
    /// Merges committed by the full scratch loop (no seed, seed
    /// exhausted, or post-divergence).
    pub recomputed: usize,
}
