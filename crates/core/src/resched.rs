//! Merger transformations with merge-sort rescheduling (paper §4.3).
//!
//! Merging two modules imposes the constraint that their operations
//! occupy pairwise-distinct control steps; merging two registers imposes
//! disjoint lifetimes on their values. Both are materialized as
//! precedence arcs chosen by a **merge-sort** of the two already-ordered
//! sequences, with free ordering decisions resolved by the
//! controllability/observability enhancement strategy:
//!
//! * **SR1** (Lee et al.): reduce the sequential depth from a
//!   controllable register to an observable register;
//! * **SR2** (this paper): schedule operations to support the
//!   application of SR1 — implemented by tentatively evaluating both
//!   orders of the first free pair and keeping the one with the smaller
//!   controllable-to-observable depth, tie-broken by the smaller
//!   critical-path increase. Both orders share one binding, so they
//!   share one data path and one depth: the tie-break always decides,
//!   and the probes price only `E`, from the control part (see
//!   `sr2_choose`).
//!
//! All tentative work — the SR2 what-if probes, the per-pair lifetime
//! feasibility checks, and the merger itself — runs **in place** inside
//! a [`StateTxn`], rolled back to a savepoint instead of cloning the
//! design state (see `crate::txn`). The public entry points open a
//! transaction, apply, and commit on success; on failure the
//! transaction drops and the state is restored bit-identically.

use std::cell::RefCell;
use std::mem;

use hlts_alloc::{ModuleId, RegisterId};
use hlts_dfg::{Dfg, OpId, ValueId};
use hlts_etpn::Etpn;

use crate::candidates::MergeKind;
use crate::txn::StateTxn;
use crate::{CoreError, DesignState};

/// One scheduling-constraint arc; `weak` means "no later than" (the same
/// control step is allowed), strict means "strictly before".
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PrecArc {
    /// Source operation.
    pub from: OpId,
    /// Target operation.
    pub to: OpId,
    /// Weak (`<=`) rather than strict (`<`).
    pub weak: bool,
}

/// The precedence arcs that force `earlier`'s lifetime to end before
/// `later`'s begins.
///
/// A register is read at the start of a control step and written at its
/// end, so a value may be read in the very step its successor value is
/// defined: constraints from `earlier`'s uses to `later`'s defining
/// operation are **weak** (same step allowed), while constraints
/// involving a primary input's first use (the input is latched at the
/// *start* of that step) are **strict**.
///
/// Returns `None` when the required relation cannot be expressed (e.g.
/// `later` is an unused input, alive only at step 0). Arcs already
/// implied by the existing precedence relation are omitted; an empty
/// vector means the order already holds structurally.
#[must_use]
pub fn disjointness_arcs(dfg: &Dfg, earlier: ValueId, later: ValueId) -> Option<Vec<PrecArc>> {
    let mut arcs = Vec::new();
    disjointness_arcs_into(dfg, earlier, later, &mut arcs).then_some(arcs)
}

/// [`disjointness_arcs`] into a caller-provided buffer: `arcs` is
/// cleared and filled, and the return value says whether the relation is
/// expressible at all (`false` corresponds to `None`). The merge loop
/// reuses one buffer across all pair probes, so the steady state
/// allocates nothing here.
pub fn disjointness_arcs_into(
    dfg: &Dfg,
    earlier: ValueId,
    later: ValueId,
    arcs: &mut Vec<PrecArc>,
) -> bool {
    arcs.clear();
    let uses_e: &[OpId] = dfg.uses_of(earlier);
    let def_e = dfg.def_of(earlier);
    fn push(arcs: &mut Vec<PrecArc>, from: OpId, to: OpId, weak: bool) {
        let arc = PrecArc { from, to, weak };
        if !arcs.contains(&arc) {
            arcs.push(arc);
        }
    }
    match dfg.def_of(later) {
        Some(dj) => {
            if uses_e.is_empty() {
                // death(earlier) = def_e + 1 must be <= step(dj): strict
                // def_e -> dj. (An unused input lives only at step 0 and
                // `later` is born at dj + 1 >= 1: nothing to add then.)
                if let Some(de) = def_e {
                    if de != dj {
                        push(arcs, de, dj, false);
                    }
                }
            } else {
                for &u in uses_e {
                    if u != dj {
                        push(arcs, u, dj, true);
                    }
                }
            }
        }
        None => {
            // `later` is a primary input, born at its first use.
            let uses_j = dfg.uses_of(later);
            if uses_j.is_empty() {
                return false; // alive only at step 0 — nothing fits before
            }
            if uses_e.is_empty() {
                // death(earlier) = def_e + 1 < min_use(later) needs a
                // two-step gap no single arc expresses.
                return false;
            }
            for &u in uses_e {
                for &w in uses_j {
                    if u == w {
                        return false; // same op uses both: never disjoint
                    }
                    push(arcs, u, w, false);
                }
            }
        }
    }
    // Drop weak arcs already implied by the (strict-or-weak) reachability
    // relation; strict arcs are kept — a weak path does not imply them.
    arcs.retain(|a| !(a.weak && dfg.reaches(a.from, a.to)));
    true
}

/// The figure of merit of a tentative SR2 state: its execution time
/// `E`.
///
/// `E` comes from the control part alone
/// ([`Etpn::execution_time_of`]); [`Etpn::check_parts`] keeps the
/// failure cases those of a full lowering. Debug builds also check `E`
/// against the full lowering.
fn sr2_merit(state: &DesignState) -> Result<usize, CoreError> {
    Etpn::check_parts(&state.dfg, &state.schedule, &state.allocation)?;
    let e = Etpn::execution_time_of(&state.dfg, &state.schedule);
    if cfg!(debug_assertions) {
        assert_eq!(
            state.lower()?.execution_time(),
            e,
            "control-part E differs from the full lowering's"
        );
    }
    Ok(e)
}

/// Apply `arcs` inside the open transaction and reschedule; `false`
/// when the arcs are cyclic or the reschedule fails. The applied edits
/// stay journaled either way — the **caller** rolls back to its own
/// savepoint (probes) or keeps them (commits); on failure the journal
/// holds whatever prefix was applied, which the caller's rollback
/// undoes.
fn probe_arcs(txn: &mut StateTxn<'_>, arcs: &[PrecArc]) -> bool {
    for &PrecArc { from, to, weak } in arcs {
        if weak && txn.state().dfg.reaches(from, to) {
            continue;
        }
        // A cyclic arc is the common infeasibility; `add_precedence`
        // rejects exactly when `to` already reaches `from`, so testing
        // that first lets a rejected probe return without ever
        // constructing the (heap-allocated) cycle error.
        if txn.state().dfg.reaches(to, from) {
            return false;
        }
        let added = if weak {
            txn.add_weak_precedence(from, to)
        } else {
            txn.add_precedence(from, to)
        };
        if added.is_err() {
            return false;
        }
    }
    txn.reschedule().is_ok()
}

/// Whether `arcs` can be applied and rescheduled; the state is rolled
/// back to its pre-probe form before returning.
fn arcs_feasible(txn: &mut StateTxn<'_>, arcs: &[PrecArc]) -> bool {
    let sp = txn.savepoint();
    let ok = probe_arcs(txn, arcs);
    txn.rollback_to(sp);
    ok
}

/// Probe `arcs` and measure the resulting state's SR2 merit, rolling
/// back afterwards. `None` when the arcs are infeasible; `Some(Err)`
/// when they apply but the state does not lower.
fn probe_merit(txn: &mut StateTxn<'_>, arcs: &[PrecArc]) -> Option<Result<usize, CoreError>> {
    let sp = txn.savepoint();
    let out = if probe_arcs(txn, arcs) {
        Some(sr2_merit(txn.state()))
    } else {
        None
    };
    txn.rollback_to(sp);
    out
}

/// Convenience for strict-only arc lists (module-merge ordering).
fn strict(pairs: &[(OpId, OpId)]) -> Vec<PrecArc> {
    pairs
        .iter()
        .map(|&(from, to)| PrecArc {
            from,
            to,
            weak: false,
        })
        .collect()
}

/// Reusable working buffers of one merge application. One set lives per
/// thread; it is moved out of its slot for the duration of a merge (so a
/// re-entrant use could never alias it) and moved back afterwards, every
/// vector keeping its capacity across trials.
#[derive(Default)]
struct MergeScratch {
    seq_a_ops: Vec<OpId>,
    seq_b_ops: Vec<OpId>,
    merged_ops: Vec<OpId>,
    seq_a_vals: Vec<ValueId>,
    seq_b_vals: Vec<ValueId>,
    merged_vals: Vec<ValueId>,
    ab: Vec<PrecArc>,
    ba: Vec<PrecArc>,
    chain: Vec<PrecArc>,
}

thread_local! {
    static MERGE_SCRATCH: RefCell<MergeScratch> = RefCell::new(MergeScratch::default());
}

fn scratch_take() -> MergeScratch {
    MERGE_SCRATCH.with(|c| mem::take(&mut *c.borrow_mut()))
}

fn scratch_put(s: MergeScratch) {
    MERGE_SCRATCH.with(|c| *c.borrow_mut() = s);
}

/// Cold-path rejection for an inexpressible/cyclic lifetime ordering.
fn reject_lifetime_order(dfg: &Dfg, a: ValueId, b: ValueId) -> CoreError {
    CoreError::MergeRejected(format!(
        "lifetime ordering of `{}` before `{}` is infeasible",
        dfg.value(a).name(),
        dfg.value(b).name()
    ))
}

/// SR2: pick between two tentative constraint sets by SR1 depth, then
/// execution time. `true` means the first set wins. `None` when neither
/// is feasible. Both probes run sequentially in the transaction and are
/// rolled back, so the state is unchanged on return — and because the
/// merit is a pure function of the probed state, the choice is
/// bit-identical to evaluating both sets on independent clones.
///
/// The depth term cannot discriminate, so it is never measured. A probe
/// never changes the binding: it adds precedence arcs and reschedules.
/// The structural data path is a function of the graph's data edges
/// and the binding alone ([`Etpn::data_path_of`] reads the schedule only
/// to check it), and the testability analysis and `total_co_depth` read
/// nothing else, so both probes of one decision tie on depth by
/// construction. The root `tests/structural_path.rs` backs the premise:
/// one binding under two legal schedules lowers to equal paths. SR2
/// therefore falls through to its `E` tie-break and decides by `E`
/// alone.
fn sr2_choose(txn: &mut StateTxn<'_>, first: &[PrecArc], second: &[PrecArc]) -> Option<bool> {
    let m1 = probe_merit(txn, first);
    let m2 = probe_merit(txn, second);
    match (m1, m2) {
        (None, None) => None,
        (Some(_), None) => Some(true),
        (None, Some(_)) => Some(false),
        (Some(ra), Some(rb)) => Some(ra.ok()? <= rb.ok()?),
    }
}

/// Merge two modules, imposing and resolving the scheduling constraints
/// (paper §4.3.1). On success `state` holds the merged, rescheduled
/// design; on failure it is unchanged.
///
/// # Errors
///
/// [`CoreError::MergeRejected`] when no feasible execution order exists,
/// [`CoreError::Alloc`] for incompatible or stale modules.
pub fn merge_modules_with_resched(
    state: &mut DesignState,
    a: ModuleId,
    b: ModuleId,
) -> Result<(), CoreError> {
    let mut txn = StateTxn::begin(state);
    apply_module_merge(&mut txn, a, b)?; // on error: drop rolls back
    txn.commit();
    Ok(())
}

/// Dispatch a merge candidate onto the open transaction. On error the
/// transaction is rolled back to its state at entry.
///
/// # Errors
///
/// As for [`merge_modules_with_resched`] /
/// [`merge_registers_with_resched`].
pub(crate) fn apply_merge(txn: &mut StateTxn<'_>, kind: MergeKind) -> Result<(), CoreError> {
    let sp = txn.savepoint();
    let applied = match kind {
        MergeKind::Modules(a, b) => apply_module_merge(txn, a, b),
        MergeKind::Registers(a, b) => apply_register_merge(txn, a, b),
    };
    if applied.is_err() {
        txn.rollback_to(sp);
    }
    applied
}

/// The module-merge body, operating on an open transaction: merge-sort
/// the two execution orders (SR2 resolving the first free decision),
/// chain the order as precedence arcs, merge the binding, reschedule.
/// On error the journal holds a prefix of the edits — the caller rolls
/// back.
fn apply_module_merge(txn: &mut StateTxn<'_>, a: ModuleId, b: ModuleId) -> Result<(), CoreError> {
    let mut s = scratch_take();
    let out = module_merge_body(txn, a, b, &mut s);
    scratch_put(s);
    out
}

fn module_merge_body(
    txn: &mut StateTxn<'_>,
    a: ModuleId,
    b: ModuleId,
    s: &mut MergeScratch,
) -> Result<(), CoreError> {
    let MergeScratch {
        seq_a_ops: seq_a,
        seq_b_ops: seq_b,
        merged_ops: merged,
        ..
    } = s;
    let fill_ops = |m: ModuleId, out: &mut Vec<OpId>, state: &DesignState| {
        out.clear();
        if let Some(x) = state.allocation.module(m) {
            out.extend_from_slice(x.ops());
        }
        // The key ends in the unique op index, so the unstable sort is
        // deterministic and identical to the stable one.
        out.sort_unstable_by_key(|&o| (state.schedule.step_of(o), o.index()));
    };
    fill_ops(a, seq_a, txn.state());
    fill_ops(b, seq_b, txn.state());
    if seq_a.is_empty() || seq_b.is_empty() {
        return Err(CoreError::MergeRejected(format!("{a} or {b} is stale")));
    }

    // Merge-sort the two sequential orders into one (paper: "the main
    // goal is to merge these two sequential orders into one"). The SR2
    // probes mutate and roll back the transaction; between decisions the
    // state is exactly the pre-merge one.
    merged.clear();
    merged.reserve(seq_a.len() + seq_b.len());
    let (mut i, mut j) = (0usize, 0usize);
    let mut first_free_decision = true;
    while i < seq_a.len() && j < seq_b.len() {
        let (ha, hb) = (seq_a[i], seq_b[j]);
        let take_a = if txn.state().dfg.reaches(ha, hb) {
            true
        } else if txn.state().dfg.reaches(hb, ha) {
            false
        } else if first_free_decision {
            first_free_decision = false;
            sr2_choose(txn, &strict(&[(ha, hb)]), &strict(&[(hb, ha)])).ok_or_else(|| {
                CoreError::MergeRejected(format!(
                    "no feasible order for `{}` and `{}`",
                    txn.state().dfg.op(ha).name(),
                    txn.state().dfg.op(hb).name()
                ))
            })?
        } else {
            // "then we decide the rest using a merge-sort heuristic":
            // keep the current schedule's relative order.
            let s = &txn.state().schedule;
            (s.step_of(ha), ha.index()) <= (s.step_of(hb), hb.index())
        };
        if take_a {
            merged.push(ha);
            i += 1;
        } else {
            merged.push(hb);
            j += 1;
        }
    }
    merged.extend_from_slice(&seq_a[i..]);
    merged.extend_from_slice(&seq_b[j..]);

    // Materialize the order as a chain of precedence arcs.
    for w in merged.windows(2) {
        let (x, y) = (w[0], w[1]);
        if !txn.state().dfg.reaches(x, y) {
            txn.add_precedence(x, y).map_err(|_| {
                CoreError::MergeRejected(format!(
                    "ordering `{}` before `{}` is cyclic",
                    txn.state().dfg.op(x).name(),
                    txn.state().dfg.op(y).name()
                ))
            })?;
        }
    }
    txn.merge_modules(a, b)?;
    txn.reschedule()?;
    // Defense in depth, mirroring the register merge below: the merge
    // itself only adds op-ordering arcs, but rescheduling can move a
    // definition into the end-of-iteration slot a loop-carried value
    // occupies in a previously merged register ([`Lifetimes`]'s
    // `[L, L]` copy slot), recreating an overlap no arc expresses.
    // Reject such merges rather than commit an illegal register file.
    //
    // [`Lifetimes`]: hlts_sched::Lifetimes
    if txn.state().validate().is_err() {
        return Err(CoreError::MergeRejected(
            "post-merge reschedule produced overlapping lifetimes".into(),
        ));
    }
    Ok(())
}

/// Merge two registers, imposing and resolving lifetime-disjointness
/// constraints (paper §4.3.2). On success `state` holds the merged,
/// rescheduled design; on failure it is unchanged.
///
/// # Errors
///
/// [`CoreError::MergeRejected`] when the lifetimes can never be disjoint
/// — the paper's two cases: mutual precedence between the value pairs'
/// lifetime operations (detected as cyclic constraints), or "an
/// operation which uses both of the values as inputs" — and
/// [`CoreError::Alloc`] for stale ids.
pub fn merge_registers_with_resched(
    state: &mut DesignState,
    a: RegisterId,
    b: RegisterId,
) -> Result<(), CoreError> {
    let mut txn = StateTxn::begin(state);
    apply_register_merge(&mut txn, a, b)?; // on error: drop rolls back
    txn.commit();
    Ok(())
}

/// The register-merge body, operating on an open transaction (see
/// [`apply_module_merge`] for the contract).
fn apply_register_merge(
    txn: &mut StateTxn<'_>,
    a: RegisterId,
    b: RegisterId,
) -> Result<(), CoreError> {
    let mut s = scratch_take();
    let out = register_merge_body(txn, a, b, &mut s);
    scratch_put(s);
    out
}

fn register_merge_body(
    txn: &mut StateTxn<'_>,
    a: RegisterId,
    b: RegisterId,
    s: &mut MergeScratch,
) -> Result<(), CoreError> {
    let MergeScratch {
        seq_a_vals: seq_a,
        seq_b_vals: seq_b,
        merged_vals: merged,
        ab,
        ba,
        chain,
        ..
    } = s;
    let fill_vals = |r: RegisterId, out: &mut Vec<ValueId>, state: &DesignState| {
        out.clear();
        if let Some(x) = state.allocation.register(r) {
            out.extend_from_slice(x.values());
        }
    };
    fill_vals(a, seq_a, txn.state());
    fill_vals(b, seq_b, txn.state());
    if seq_a.is_empty() || seq_b.is_empty() {
        return Err(CoreError::MergeRejected(format!("{a} or {b} is stale")));
    }

    // Veto case 2: a common consumer needs both values at once.
    for &x in seq_a.iter() {
        for &y in seq_b.iter() {
            let clash = txn
                .state()
                .dfg
                .ops()
                .iter()
                .any(|op| op.inputs().contains(&x) && op.inputs().contains(&y));
            if clash {
                return Err(CoreError::MergeRejected(format!(
                    "`{}` and `{}` feed one operation together",
                    txn.state().dfg.value(x).name(),
                    txn.state().dfg.value(y).name()
                )));
            }
        }
    }

    let lt = txn.state().lifetimes();
    let birth = |v: ValueId| lt.interval(v).map_or(usize::MAX, |iv| iv.birth);
    // The key ends in the unique value index: the unstable sort is
    // deterministic and identical to the stable one.
    seq_a.sort_unstable_by_key(|&v| (birth(v), v.index()));
    seq_b.sort_unstable_by_key(|&v| (birth(v), v.index()));

    merged.clear();
    merged.reserve(seq_a.len() + seq_b.len());
    let (mut i, mut j) = (0usize, 0usize);
    let mut first_free_decision = true;
    while i < seq_a.len() && j < seq_b.len() {
        let (ha, hb) = (seq_a[i], seq_b[j]);
        let ab_ok = disjointness_arcs_into(&txn.state().dfg, ha, hb, ab);
        let ba_ok = disjointness_arcs_into(&txn.state().dfg, hb, ha, ba);
        let a_feasible = ab_ok && arcs_feasible(txn, ab);
        let b_feasible = ba_ok && arcs_feasible(txn, ba);
        let take_a = match (a_feasible, b_feasible) {
            (false, false) => {
                return Err(CoreError::MergeRejected(format!(
                    "lifetimes of `{}` and `{}` can never be disjoint",
                    txn.state().dfg.value(ha).name(),
                    txn.state().dfg.value(hb).name()
                )))
            }
            (true, false) => true,
            (false, true) => false,
            (true, true) => {
                if first_free_decision {
                    first_free_decision = false;
                    sr2_choose(txn, ab, ba).unwrap_or(true)
                } else {
                    (birth(ha), ha.index()) <= (birth(hb), hb.index())
                }
            }
        };
        if take_a {
            merged.push(ha);
            i += 1;
        } else {
            merged.push(hb);
            j += 1;
        }
    }
    merged.extend_from_slice(&seq_a[i..]);
    merged.extend_from_slice(&seq_b[j..]);

    // Chain the merged order with disjointness constraints. Later pairs
    // see the arcs of earlier ones (through the reachability filter in
    // `disjointness_arcs`), exactly as in the clone-based formulation.
    for k in 1..merged.len() {
        let (w0, w1) = (merged[k - 1], merged[k]);
        if !disjointness_arcs_into(&txn.state().dfg, w0, w1, chain) {
            return Err(reject_lifetime_order(&txn.state().dfg, w0, w1));
        }
        for &PrecArc { from, to, weak } in chain.iter() {
            let added = if weak {
                txn.add_weak_precedence(from, to)
            } else {
                txn.add_precedence(from, to)
            };
            if added.is_err() {
                return Err(reject_lifetime_order(&txn.state().dfg, w0, w1));
            }
        }
    }
    txn.merge_registers(a, b)?;
    txn.reschedule()?;
    // Defense in depth: the arcs above should guarantee disjointness; if
    // an uncovered corner slips through, reject rather than commit an
    // overlapping register file.
    if txn.state().validate().is_err() {
        return Err(CoreError::MergeRejected(
            "post-merge validation found overlapping lifetimes".into(),
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use hlts_dfg::{DfgBuilder, OpKind};
    use hlts_testability::{total_co_depth, TestabilityAnalysis};

    /// Two independent adds in one step; merging their modules must order
    /// them into two steps.
    #[test]
    fn module_merge_serializes_same_step_ops() {
        let mut b = DfgBuilder::new("t");
        let a = b.input("a");
        let c = b.input("c");
        let t1 = b.op("N1", OpKind::Add, &[a, c], "t1").unwrap();
        let t2 = b.op("N2", OpKind::Add, &[a, c], "t2").unwrap();
        b.mark_output(t1);
        b.mark_output(t2);
        let d = b.finish().unwrap();
        let mut s = DesignState::initial(&d).unwrap();
        let n1 = s.dfg.op_by_name("N1").unwrap();
        let n2 = s.dfg.op_by_name("N2").unwrap();
        assert_eq!(s.schedule.step_of(n1), s.schedule.step_of(n2));
        let (m1, m2) = (s.allocation.module_of(n1), s.allocation.module_of(n2));
        merge_modules_with_resched(&mut s, m1, m2).unwrap();
        assert_ne!(s.schedule.step_of(n1), s.schedule.step_of(n2));
        assert_eq!(s.allocation.num_modules(), 1);
        s.validate().unwrap();
    }

    #[test]
    fn incompatible_module_merge_rejected_and_state_unchanged() {
        let mut b = DfgBuilder::new("t");
        let a = b.input("a");
        let c = b.input("c");
        b.op("N1", OpKind::Add, &[a, c], "t1").unwrap();
        b.op("N2", OpKind::Mul, &[a, c], "t2").unwrap();
        let d = b.finish().unwrap();
        let mut s = DesignState::initial(&d).unwrap();
        let before = s.clone();
        let n1 = s.dfg.op_by_name("N1").unwrap();
        let n2 = s.dfg.op_by_name("N2").unwrap();
        let (m1, m2) = (s.allocation.module_of(n1), s.allocation.module_of(n2));
        assert!(merge_modules_with_resched(&mut s, m1, m2).is_err());
        assert_eq!(s.schedule, before.schedule);
        assert_eq!(s.allocation, before.allocation);
    }

    #[test]
    fn register_merge_orders_lifetimes() {
        // t1 and t2 both born step 1 under ASAP; merging their registers
        // must push one definition later.
        let mut b = DfgBuilder::new("t");
        let a = b.input("a");
        let c = b.input("c");
        let t1 = b.op("N1", OpKind::Add, &[a, c], "t1").unwrap();
        let t2 = b.op("N2", OpKind::Add, &[a, c], "t2").unwrap();
        let y = b.op("N3", OpKind::Mul, &[t1, c], "y").unwrap();
        let z = b.op("N4", OpKind::Mul, &[t2, c], "z").unwrap();
        b.mark_output(y);
        b.mark_output(z);
        let d = b.finish().unwrap();
        let mut s = DesignState::initial(&d).unwrap();
        let vt1 = s.dfg.value_by_name("t1").unwrap();
        let vt2 = s.dfg.value_by_name("t2").unwrap();
        let (r1, r2) = (
            s.allocation.register_of(vt1).unwrap(),
            s.allocation.register_of(vt2).unwrap(),
        );
        merge_registers_with_resched(&mut s, r1, r2).unwrap();
        s.validate().unwrap();
        let lt = s.lifetimes();
        assert!(lt.disjoint(vt1, vt2));
    }

    #[test]
    fn register_merge_vetoes_common_consumer() {
        // y = t1 + t2: t1 and t2 can never share a register.
        let mut b = DfgBuilder::new("t");
        let a = b.input("a");
        let c = b.input("c");
        let t1 = b.op("N1", OpKind::Add, &[a, c], "t1").unwrap();
        let t2 = b.op("N2", OpKind::Sub, &[a, c], "t2").unwrap();
        let y = b.op("N3", OpKind::Mul, &[t1, t2], "y").unwrap();
        b.mark_output(y);
        let d = b.finish().unwrap();
        let mut s = DesignState::initial(&d).unwrap();
        let (r1, r2) = (
            s.allocation.register_of(t1).unwrap(),
            s.allocation.register_of(t2).unwrap(),
        );
        let e = merge_registers_with_resched(&mut s, r1, r2).unwrap_err();
        assert!(matches!(e, CoreError::MergeRejected(_)), "{e}");
    }

    #[test]
    fn disjointness_arcs_shape() {
        let mut b = DfgBuilder::new("t");
        let a = b.input("a");
        let c = b.input("c");
        let t1 = b.op("N1", OpKind::Add, &[a, c], "t1").unwrap();
        let t2 = b.op("N2", OpKind::Sub, &[a, c], "t2").unwrap();
        let _y = b.op("N3", OpKind::Mul, &[t1, c], "y").unwrap();
        let d = b.finish().unwrap();
        let n1 = d.op_by_name("N1").unwrap();
        let n2 = d.op_by_name("N2").unwrap();
        let n3 = d.op_by_name("N3").unwrap();
        // t1 before t2: t1's use (N3) may share t2's defining step (N2)
        let arcs = disjointness_arcs(&d, t1, t2).unwrap();
        assert_eq!(
            arcs,
            vec![PrecArc {
                from: n3,
                to: n2,
                weak: true
            }]
        );
        // t2 before t1: t2 is unused, so its death (def + 1) must come
        // strictly before t1's definition.
        let arcs2 = disjointness_arcs(&d, t2, t1).unwrap();
        assert_eq!(
            arcs2,
            vec![PrecArc {
                from: n2,
                to: n1,
                weak: false
            }]
        );
    }

    #[test]
    fn disjointness_between_inputs_is_strict() {
        // two inputs sharing a register: all uses of the first strictly
        // before all uses of the second (the input latches at the start
        // of its first-use step).
        let mut b = DfgBuilder::new("t");
        let a = b.input("a");
        let c = b.input("c");
        let e = b.input("e");
        let t1 = b.op("N1", OpKind::Add, &[a, e], "t1").unwrap();
        let _t2 = b.op("N2", OpKind::Add, &[t1, c], "t2").unwrap();
        let d = b.finish().unwrap();
        let n1 = d.op_by_name("N1").unwrap();
        let n2 = d.op_by_name("N2").unwrap();
        let arcs = disjointness_arcs(&d, a, c).unwrap();
        assert_eq!(
            arcs,
            vec![PrecArc {
                from: n1,
                to: n2,
                weak: false
            }]
        );
        // c before a would need N2 strictly before N1 — expressible but
        // cyclic; the arcs are produced, feasibility is checked on apply.
        let arcs2 = disjointness_arcs(&d, c, a).unwrap();
        assert_eq!(arcs2.len(), 1);
        assert!(!arcs2[0].weak);
    }

    /// The Figure 1 scenario: merging two operation nodes and ordering
    /// them reduces the sequential depth from a controllable to an
    /// observable register (2 → 1 in the paper's example). We verify the
    /// SR2 machinery picks an order that does not increase the total
    /// controllable-to-observable depth.
    #[test]
    fn figure1_sequential_depth() {
        // w,x feed N1; v,y feed N2; N1 -> y', N2 -> z with chain
        // structure so ordering matters.
        let mut b = DfgBuilder::new("fig1");
        let w = b.input("w");
        let x = b.input("x");
        let v = b.input("v");
        let s_in = b.input("s");
        let t1 = b.op("N1", OpKind::Add, &[w, x], "t1").unwrap();
        let t2 = b.op("N2", OpKind::Add, &[v, s_in], "t2").unwrap();
        let u = b.op("N3", OpKind::Mul, &[t1, t2], "u").unwrap();
        b.mark_output(u);
        let d = b.finish().unwrap();
        let mut st = DesignState::initial(&d).unwrap();
        let etpn0 = st.lower().unwrap();
        let an0 = TestabilityAnalysis::analyze(etpn0.data_path());
        let depth0 = total_co_depth(etpn0.data_path(), &an0);
        let n1 = st.dfg.op_by_name("N1").unwrap();
        let n2 = st.dfg.op_by_name("N2").unwrap();
        let (m1, m2) = (st.allocation.module_of(n1), st.allocation.module_of(n2));
        merge_modules_with_resched(&mut st, m1, m2).unwrap();
        let etpn1 = st.lower().unwrap();
        let an1 = TestabilityAnalysis::analyze(etpn1.data_path());
        let depth1 = total_co_depth(etpn1.data_path(), &an1);
        // sharing one adder cannot make the depth worse here
        assert!(depth1 <= depth0 + 1e-9, "depth {depth0} -> {depth1}");
        st.validate().unwrap();
    }

    /// A failed merge attempt must leave zero residue: same arcs, same
    /// schedule, same binding, bit for bit.
    #[test]
    fn rejected_merge_leaves_no_journal_residue() {
        let mut b = DfgBuilder::new("t");
        let a = b.input("a");
        let c = b.input("c");
        let t1 = b.op("N1", OpKind::Add, &[a, c], "t1").unwrap();
        let t2 = b.op("N2", OpKind::Sub, &[a, c], "t2").unwrap();
        let y = b.op("N3", OpKind::Mul, &[t1, t2], "y").unwrap();
        b.mark_output(y);
        let d = b.finish().unwrap();
        let mut s = DesignState::initial(&d).unwrap();
        let dfg_before = s.dfg.deep_clone();
        let sched_before = s.schedule.clone();
        let alloc_before = s.allocation.clone();
        let (r1, r2) = (
            s.allocation.register_of(t1).unwrap(),
            s.allocation.register_of(t2).unwrap(),
        );
        assert!(merge_registers_with_resched(&mut s, r1, r2).is_err());
        assert_eq!(s.dfg, dfg_before);
        assert_eq!(s.schedule, sched_before);
        assert_eq!(s.allocation, alloc_before);
    }
}
