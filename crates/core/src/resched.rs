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
//! The SR2 what-if probes and the merger itself run **in place** inside
//! a [`StateTxn`], rolled back to a savepoint instead of cloning the
//! design state (see `crate::txn`). The public entry points open a
//! transaction, apply, and commit on success; on failure the
//! transaction drops and the state is restored bit-identically. The
//! per-pair lifetime feasibility checks of the register walk are
//! read-only questions on the precedence graph ([`arcs_acyclic`]), and
//! a register merge that no branch of its walk survives is refused
//! before any transaction opens ([`register_walk_verdict`]).

use std::cell::RefCell;
use std::mem;

use hlts_alloc::{AllocError, ModuleId, RegisterId};
use hlts_dfg::{Dfg, DfgError, OpId, ValueId};
use hlts_etpn::Etpn;
use hlts_sched::Lifetimes;

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

/// Whether every arc of one lifetime ordering, as
/// [`disjointness_arcs_into`] builds it, can be added to `dfg`: no arc's
/// head already reaches its tail. A read-only query on the graph's
/// reachability index.
///
/// It decides exactly what applying the arcs and rescheduling decides.
/// The set either shares one head (`u → dj` for every use `u` of the
/// earlier value, or the single `de → dj`), or it is every pair `u → w`
/// of the earlier value's uses and the later value's uses. Adding the
/// set closes a cycle only if one arc does alone: with one shared head,
/// a shortest path back from the head never passes the head again, so it
/// uses none of the new arcs; with all pairs, the part of a shortest
/// cycle after its last new arc `u' → w'` runs on the old graph from
/// `w'` to the tail `u` of the failing arc, and `u → w'` is in the set.
/// Conversely, an arc that closes a cycle alone still does after the
/// others are added. The reschedule that followed fails only on a cycle
/// or on a binding that is not a partition, and the binding is the
/// scheduled base's.
pub(crate) fn arcs_acyclic(dfg: &Dfg, arcs: &[PrecArc]) -> bool {
    arcs.iter().all(|a| !dfg.reaches(a.to, a.from))
}

/// Whether `earlier`'s lifetime can be ordered before `later`'s on `dfg`
/// as it stands: the ordering is expressible ([`disjointness_arcs`]) and
/// adding its arcs closes no cycle. A read-only query; the register
/// walk asks it of both orders of every head pair.
#[must_use]
pub fn lifetime_order_feasible(dfg: &Dfg, earlier: ValueId, later: ValueId) -> bool {
    disjointness_arcs(dfg, earlier, later).is_some_and(|arcs| arcs_acyclic(dfg, &arcs))
}

/// The figure of merit of a tentative SR2 state: its execution time
/// `E`.
///
/// `E` is the schedule's length ([`Etpn::execution_time_of`]);
/// [`Etpn::check_parts`] keeps the failure cases those of a full
/// lowering. Debug builds also check `E` against the full lowering.
fn sr2_merit(state: &DesignState) -> Result<usize, CoreError> {
    Etpn::check_parts(&state.dfg, &state.schedule, &state.allocation)?;
    let e = Etpn::execution_time_of(&state.schedule);
    if cfg!(debug_assertions) {
        assert_eq!(
            state.lower()?.execution_time(),
            e,
            "the schedule's length differs from the full lowering's E"
        );
    }
    Ok(e)
}

/// Apply `arcs` inside the open transaction and reschedule; `false`
/// when the arcs are cyclic or the reschedule fails. The applied edits
/// stay journaled either way — the **caller** rolls back to its own
/// savepoint; on failure the journal holds whatever prefix was applied,
/// which the caller's rollback undoes.
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

/// Run `f` with this thread's merge scratch, moved out of its slot for
/// the call.
fn with_scratch<R>(f: impl FnOnce(&mut MergeScratch) -> R) -> R {
    let mut s = MERGE_SCRATCH.with(|c| mem::take(&mut *c.borrow_mut()));
    let out = f(&mut s);
    MERGE_SCRATCH.with(|c| *c.borrow_mut() = s);
    out
}

/// Why a merger was refused. It holds ids, not text: a trial drops it,
/// and only a caller that reports the refusal renders the message
/// ([`Refusal::into_error`]), so rejected trials allocate nothing.
#[derive(Debug)]
pub(crate) enum Refusal {
    /// A module or register id no longer names a live unit.
    Stale(MergeKind),
    /// Neither order of the first free module head pair is feasible.
    NoOrder(OpId, OpId),
    /// Chaining the merged module order would close a cycle.
    CyclicOrder(OpId, OpId),
    /// The module merge's reschedule overlapped two lifetimes.
    ModulesOverlap,
    /// One operation reads both values.
    FeedTogether(ValueId, ValueId),
    /// Neither order of a register head pair is feasible.
    NeverDisjoint(ValueId, ValueId),
    /// Chaining the merged register order failed at this pair.
    LifetimeOrder(ValueId, ValueId),
    /// The register merge's reschedule overlapped two lifetimes.
    RegistersOverlap,
    /// The binding or the scheduler failed.
    Failed(CoreError),
}

impl From<CoreError> for Refusal {
    fn from(e: CoreError) -> Self {
        Refusal::Failed(e)
    }
}

impl From<AllocError> for Refusal {
    fn from(e: AllocError) -> Self {
        Refusal::Failed(e.into())
    }
}

impl Refusal {
    /// The error the public merge entry points report, naming the
    /// operations and values of `dfg`.
    pub(crate) fn into_error(self, dfg: &Dfg) -> CoreError {
        let op = |o: OpId| dfg.op(o).name();
        let val = |v: ValueId| dfg.value(v).name();
        CoreError::MergeRejected(match self {
            Refusal::Stale(MergeKind::Modules(a, b)) => format!("{a} or {b} is stale"),
            Refusal::Stale(MergeKind::Registers(a, b)) => format!("{a} or {b} is stale"),
            Refusal::NoOrder(x, y) => {
                format!("no feasible order for `{}` and `{}`", op(x), op(y))
            }
            Refusal::CyclicOrder(x, y) => {
                format!("ordering `{}` before `{}` is cyclic", op(x), op(y))
            }
            Refusal::ModulesOverlap => {
                "post-merge reschedule produced overlapping lifetimes".into()
            }
            Refusal::FeedTogether(x, y) => {
                format!("`{}` and `{}` feed one operation together", val(x), val(y))
            }
            Refusal::NeverDisjoint(x, y) => format!(
                "lifetimes of `{}` and `{}` can never be disjoint",
                val(x),
                val(y)
            ),
            Refusal::LifetimeOrder(x, y) => format!(
                "lifetime ordering of `{}` before `{}` is infeasible",
                val(x),
                val(y)
            ),
            Refusal::RegistersOverlap => "post-merge validation found overlapping lifetimes".into(),
            Refusal::Failed(e) => return e,
        })
    }
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
    commit_merge(state, MergeKind::Modules(a, b))
}

/// Apply `kind` in a transaction and commit it; on refusal the
/// transaction drops (rolling back) and the refusal is rendered.
fn commit_merge(state: &mut DesignState, kind: MergeKind) -> Result<(), CoreError> {
    let mut txn = StateTxn::begin(state);
    if let Err(refusal) = apply_merge(&mut txn, kind) {
        return Err(refusal.into_error(&txn.state().dfg));
    }
    txn.commit();
    Ok(())
}

/// Dispatch a merge candidate onto the open transaction. On refusal the
/// transaction is rolled back to its state at entry.
///
/// # Errors
///
/// The [`Refusal`]; [`Refusal::into_error`] renders what
/// [`merge_modules_with_resched`] / [`merge_registers_with_resched`]
/// report.
pub(crate) fn apply_merge(txn: &mut StateTxn<'_>, kind: MergeKind) -> Result<(), Refusal> {
    let sp = txn.savepoint();
    let applied = with_scratch(|s| match kind {
        MergeKind::Modules(a, b) => module_merge_body(txn, a, b, s),
        MergeKind::Registers(a, b) => register_merge_body(txn, a, b, s),
    });
    if applied.is_err() {
        txn.rollback_to(sp);
    }
    applied
}

/// Fill `arcs` with the single strict arc `from -> to`.
fn set_strict(arcs: &mut Vec<PrecArc>, from: OpId, to: OpId) {
    arcs.clear();
    arcs.push(PrecArc {
        from,
        to,
        weak: false,
    });
}

/// The module-merge body, operating on an open transaction: merge-sort
/// the two execution orders (SR2 resolving the first free decision),
/// chain the order as precedence arcs, merge the binding, reschedule.
/// On error the journal holds a prefix of the edits — the caller rolls
/// back.
fn module_merge_body(
    txn: &mut StateTxn<'_>,
    a: ModuleId,
    b: ModuleId,
    s: &mut MergeScratch,
) -> Result<(), Refusal> {
    let MergeScratch {
        seq_a_ops: seq_a,
        seq_b_ops: seq_b,
        merged_ops: merged,
        ab,
        ba,
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
        return Err(Refusal::Stale(MergeKind::Modules(a, b)));
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
            set_strict(ab, ha, hb);
            set_strict(ba, hb, ha);
            sr2_choose(txn, ab, ba).ok_or(Refusal::NoOrder(ha, hb))?
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

    // Materialize the order as a chain of precedence arcs. Testing the
    // cycle first keeps a refused chain from building the cycle error.
    for w in merged.windows(2) {
        let (x, y) = (w[0], w[1]);
        let dfg = &txn.state().dfg;
        if !dfg.reaches(x, y) && (dfg.reaches(y, x) || txn.add_precedence(x, y).is_err()) {
            return Err(Refusal::CyclicOrder(x, y));
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
    if txn.state().validate().is_err() {
        return Err(Refusal::ModulesOverlap);
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
    commit_merge(state, MergeKind::Registers(a, b))
}

/// The graph a register walk reads and chains its arcs into: an open
/// transaction (the merger itself) or a bare graph (the dry walk of
/// [`register_walk_verdict`], which truncates its arcs again).
trait WalkGraph {
    fn dfg(&self) -> &Dfg;

    /// Whether one expressible lifetime ordering is feasible.
    fn feasible(&mut self, arcs: &[PrecArc]) -> bool {
        arcs_acyclic(self.dfg(), arcs)
    }

    /// Add one arc as the graph's `add_precedence` or
    /// `add_weak_precedence` does.
    fn push(&mut self, arc: PrecArc) -> Result<(), DfgError>;

    /// Add one arc; `false` when it would close a cycle. Testing the
    /// cycle first keeps a refusal from building the cycle error.
    fn add(&mut self, arc: PrecArc) -> bool {
        !self.dfg().reaches(arc.to, arc.from) && self.push(arc).is_ok()
    }
}

impl WalkGraph for StateTxn<'_> {
    fn dfg(&self) -> &Dfg {
        &self.state().dfg
    }

    /// The read-only probe. Debug builds also apply the arcs, reschedule
    /// and roll back — the probe the read-only one replaced — and
    /// assert that the two agree.
    fn feasible(&mut self, arcs: &[PrecArc]) -> bool {
        let feasible = arcs_acyclic(self.dfg(), arcs);
        if cfg!(debug_assertions) {
            let sp = self.savepoint();
            let rescheduled = probe_arcs(self, arcs);
            self.rollback_to(sp);
            assert_eq!(
                feasible, rescheduled,
                "the read-only lifetime probe disagrees with the rescheduling one"
            );
        }
        feasible
    }

    fn push(&mut self, PrecArc { from, to, weak }: PrecArc) -> Result<(), DfgError> {
        if weak {
            self.add_weak_precedence(from, to)
        } else {
            self.add_precedence(from, to)
        }
    }
}

impl WalkGraph for Dfg {
    fn dfg(&self) -> &Dfg {
        self
    }

    fn push(&mut self, PrecArc { from, to, weak }: PrecArc) -> Result<(), DfgError> {
        if weak {
            self.add_weak_precedence(from, to)
        } else {
            self.add_precedence(from, to)
        }
    }
}

/// Where a register walk stopped.
enum Walk {
    /// Both sequences are merged.
    Merged,
    /// Neither order of this head pair is feasible.
    Refused(ValueId, ValueId),
    /// The first free decision, at these sequence positions; `ab` and
    /// `ba` hold its two arc sets.
    Free(usize, usize),
}

/// The two registers' values, each sorted by `(birth, index)`, and the
/// lifetimes that sorted them; refused when a register is stale or one
/// operation reads a value of each (veto case 2).
fn register_sequences(
    state: &DesignState,
    a: RegisterId,
    b: RegisterId,
    seq_a: &mut Vec<ValueId>,
    seq_b: &mut Vec<ValueId>,
) -> Result<Lifetimes, Refusal> {
    let fill_vals = |r: RegisterId, out: &mut Vec<ValueId>| {
        out.clear();
        if let Some(x) = state.allocation.register(r) {
            out.extend_from_slice(x.values());
        }
    };
    fill_vals(a, seq_a);
    fill_vals(b, seq_b);
    if seq_a.is_empty() || seq_b.is_empty() {
        return Err(Refusal::Stale(MergeKind::Registers(a, b)));
    }
    // Veto case 2: a common consumer needs both values at once. Every
    // op reading `x` is among its uses.
    let dfg = &state.dfg;
    for &x in seq_a.iter() {
        for &y in seq_b.iter() {
            let clash = dfg
                .uses_of(x)
                .iter()
                .any(|&op| dfg.op(op).inputs().contains(&y));
            if clash {
                return Err(Refusal::FeedTogether(x, y));
            }
        }
    }
    let lt = state.lifetimes();
    // The key ends in the unique value index: the unstable sort is
    // deterministic and identical to the stable one.
    seq_a.sort_unstable_by_key(|&v| birth_key(&lt, v));
    seq_b.sort_unstable_by_key(|&v| birth_key(&lt, v));
    Ok(lt)
}

/// A value's `(birth, index)` order key.
fn birth_key(lt: &Lifetimes, v: ValueId) -> (usize, usize) {
    (lt.interval(v).map_or(usize::MAX, |iv| iv.birth), v.index())
}

/// The register merge-sort from sequence positions `at` on, appending to
/// `merged`. A head pair with one feasible order takes it. With both
/// feasible the walk stops at the free decision when `stop_at_free`, and
/// otherwise keeps the earlier-born head ("then we decide the rest using
/// a merge-sort heuristic"). Every probe reads the graph as it stands.
#[allow(clippy::too_many_arguments)]
fn walk(
    g: &mut impl WalkGraph,
    lt: &Lifetimes,
    seq_a: &[ValueId],
    seq_b: &[ValueId],
    at: (usize, usize),
    merged: &mut Vec<ValueId>,
    stop_at_free: bool,
    (ab, ba): (&mut Vec<PrecArc>, &mut Vec<PrecArc>),
) -> Walk {
    let (mut i, mut j) = at;
    while i < seq_a.len() && j < seq_b.len() {
        let (ha, hb) = (seq_a[i], seq_b[j]);
        let ab_ok = disjointness_arcs_into(g.dfg(), ha, hb, ab);
        let ba_ok = disjointness_arcs_into(g.dfg(), hb, ha, ba);
        let a_feasible = ab_ok && g.feasible(ab);
        let b_feasible = ba_ok && g.feasible(ba);
        let take_a = match (a_feasible, b_feasible) {
            (false, false) => return Walk::Refused(ha, hb),
            (true, false) => true,
            (false, true) => false,
            (true, true) if stop_at_free => return Walk::Free(i, j),
            (true, true) => birth_key(lt, ha) <= birth_key(lt, hb),
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
    Walk::Merged
}

/// Take the head of `seq_a` (`take_a`) or of `seq_b` at the free
/// decision `(i, j)`, returning the positions after it.
fn take_head(
    seq_a: &[ValueId],
    seq_b: &[ValueId],
    (i, j): (usize, usize),
    take_a: bool,
    merged: &mut Vec<ValueId>,
) -> (usize, usize) {
    if take_a {
        merged.push(seq_a[i]);
        (i + 1, j)
    } else {
        merged.push(seq_b[j]);
        (i, j + 1)
    }
}

/// Chain the merged order with disjointness arcs. Later pairs see the
/// arcs of earlier ones (through the reachability filter of
/// [`disjointness_arcs_into`]), exactly as in the clone-based
/// formulation. `Err` names the first pair that cannot be ordered.
fn chain_lifetimes(
    g: &mut impl WalkGraph,
    merged: &[ValueId],
    chain: &mut Vec<PrecArc>,
) -> Result<(), (ValueId, ValueId)> {
    for w in merged.windows(2) {
        let (w0, w1) = (w[0], w[1]);
        if !disjointness_arcs_into(g.dfg(), w0, w1, chain) {
            return Err((w0, w1));
        }
        for &arc in chain.iter() {
            if !g.add(arc) {
                return Err((w0, w1));
            }
        }
    }
    Ok(())
}

fn register_merge_body(
    txn: &mut StateTxn<'_>,
    a: RegisterId,
    b: RegisterId,
    s: &mut MergeScratch,
) -> Result<(), Refusal> {
    let MergeScratch {
        seq_a_vals: seq_a,
        seq_b_vals: seq_b,
        merged_vals: merged,
        ab,
        ba,
        chain,
        ..
    } = s;
    let lt = register_sequences(txn.state(), a, b, seq_a, seq_b)?;
    merged.clear();
    merged.reserve(seq_a.len() + seq_b.len());
    let walked = match walk(txn, &lt, seq_a, seq_b, (0, 0), merged, true, (ab, ba)) {
        Walk::Free(i, j) => {
            let take_a = sr2_choose(txn, ab, ba).unwrap_or(true);
            let next = take_head(seq_a, seq_b, (i, j), take_a, merged);
            walk(txn, &lt, seq_a, seq_b, next, merged, false, (ab, ba))
        }
        walked => walked,
    };
    if let Walk::Refused(x, y) = walked {
        return Err(Refusal::NeverDisjoint(x, y));
    }
    chain_lifetimes(txn, merged, chain).map_err(|(x, y)| Refusal::LifetimeOrder(x, y))?;
    txn.merge_registers(a, b)?;
    txn.reschedule()?;
    // Defense in depth: the arcs above should guarantee disjointness; if
    // an uncovered corner slips through, reject rather than commit an
    // overlapping register file.
    if txn.state().validate().is_err() {
        return Err(Refusal::RegistersOverlap);
    }
    Ok(())
}

/// Whether `v` holds a register at the loop edge `L` whatever the
/// schedule: a loop-carried source, held through the latency, or a
/// loop-carried destination, written by the end-of-iteration copy into
/// the virtual slot `[L, L]` (see [`Lifetimes`]).
fn holds_end_slot(dfg: &Dfg, v: ValueId) -> bool {
    dfg.loop_carried().iter().any(|&(s, d)| s == v || d == v)
}

/// Whether `x` and `y` are one loop-carried `(source, destination)`
/// pair, which [`Lifetimes::disjoint`] compares without the loop slots.
fn loop_pair(dfg: &Dfg, x: ValueId, y: ValueId) -> bool {
    dfg.loop_carried()
        .iter()
        .any(|&p| p == (x, y) || p == (y, x))
}

/// Whether every value ordered after a loop-carried source in `merged`
/// is that source's own destination. The source is held through the
/// latency, and the chain makes each later value die no earlier than
/// the source is born, so any other later value overlaps it.
fn source_last(dfg: &Dfg, merged: &[ValueId]) -> bool {
    merged.iter().enumerate().all(|(p, &x)| {
        !dfg.loop_carried().iter().any(|&(s, _)| s == x)
            || merged[p + 1..].iter().all(|&y| loop_pair(dfg, x, y))
    })
}

/// What the dry register walk ([`register_walk_verdict`]) concludes
/// about one register merger.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WalkVerdict {
    /// No branch survives: the merger fails whichever order SR2 picks.
    Refused,
    /// Every branch survives the walk, the chain and the loop rule; the
    /// merger can still fail its post-merge validation.
    Survives,
    /// The first free decision splits: one order survives and the other
    /// does not, so the merger's outcome rests on SR2's pick.
    Split,
}

/// Whether merging registers `a` and `b` is certainly refused: the lazy
/// form of [`register_walk_verdict`], stopping at the first branch that
/// survives. `trial_merge` asks this before it opens a transaction for
/// a register candidate.
pub(crate) fn register_merge_refused(
    state: &mut DesignState,
    a: RegisterId,
    b: RegisterId,
) -> bool {
    dry_walk(state, a, b, true) == WalkVerdict::Refused
}

/// The register walk of merging registers `a` and `b`, run dry on the
/// reachability index of `state`'s precedence graph — no transaction,
/// no reschedule, no error text. `state` is left bit-identical.
///
/// Between decisions the real walk sees the pre-merge graph (its SR2
/// probes roll back), so every head-pair verdict and every chain arc of
/// the dry walk is the real walk's. Only the first free decision
/// depends on a reschedule (SR2 compares `E`): the dry walk follows both
/// of its branches, each to the end of the walk and through the chain
/// of its merged order (arcs added to the graph and truncated again).
///
/// The loop rule of the register model (DESIGN §4.5) is checked here
/// too, because the merger's post-merge validation would refuse it
/// whatever the reschedule does: two values that both hold the register
/// at the loop edge (loop-carried sources and destinations) and are not
/// one loop pair never share it, and a loop-carried source must come
/// last in its branch's merged order, followed by nothing but its own
/// destination.
///
/// [`WalkVerdict::Refused`] means the merger fails whichever order SR2
/// would pick. [`WalkVerdict::Survives`] does not promise success: a
/// loop destination and a value defined in the final control step also
/// clash at the loop edge, and which step that is depends on the
/// reschedule.
#[must_use]
pub fn register_walk_verdict(state: &mut DesignState, a: RegisterId, b: RegisterId) -> WalkVerdict {
    dry_walk(state, a, b, false)
}

/// The dry walk; with `lazy` it stops at the first surviving branch
/// (reporting [`WalkVerdict::Survives`] for a split it did not finish).
fn dry_walk(state: &mut DesignState, a: RegisterId, b: RegisterId, lazy: bool) -> WalkVerdict {
    with_scratch(|s| {
        let MergeScratch {
            seq_a_vals: seq_a,
            seq_b_vals: seq_b,
            merged_vals: merged,
            ab,
            ba,
            chain,
            ..
        } = s;
        let Ok(lt) = register_sequences(state, a, b, seq_a, seq_b) else {
            return WalkVerdict::Refused;
        };
        let dfg = &mut state.dfg;
        let end_slot_clash = seq_a.iter().filter(|&&x| holds_end_slot(dfg, x)).any(|&x| {
            seq_b
                .iter()
                .any(|&y| holds_end_slot(dfg, y) && !loop_pair(dfg, x, y))
        });
        if end_slot_clash {
            return WalkVerdict::Refused;
        }
        let mut survives = |dfg: &mut Dfg, merged: &[ValueId]| {
            let sp = dfg.arc_savepoint();
            let chained = chain_lifetimes(dfg, merged, chain).is_ok();
            dfg.truncate_arcs(sp);
            chained && source_last(dfg, merged)
        };
        merged.clear();
        let (i, j) = match walk(dfg, &lt, seq_a, seq_b, (0, 0), merged, true, (ab, ba)) {
            Walk::Refused(..) => return WalkVerdict::Refused,
            Walk::Merged if survives(dfg, merged) => return WalkVerdict::Survives,
            Walk::Merged => return WalkVerdict::Refused,
            Walk::Free(i, j) => (i, j),
        };
        let prefix = merged.len();
        let mut branch = |take_a: bool, merged: &mut Vec<ValueId>| {
            merged.truncate(prefix);
            let next = take_head(seq_a, seq_b, (i, j), take_a, merged);
            let walked = walk(dfg, &lt, seq_a, seq_b, next, merged, false, (ab, ba));
            matches!(walked, Walk::Merged) && survives(dfg, merged)
        };
        match (branch(true, merged), lazy) {
            (true, true) => WalkVerdict::Survives,
            (first, _) => match (first, branch(false, merged)) {
                (true, true) => WalkVerdict::Survives,
                (false, false) => WalkVerdict::Refused,
                _ => WalkVerdict::Split,
            },
        }
    })
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
        let want = "`t1` and `t2` feed one operation together";
        let e = merge_registers_with_resched(&mut s, r1, r2).unwrap_err();
        assert!(
            matches!(&e, CoreError::MergeRejected(m) if m == want),
            "{e}"
        );
        // The full-scan formulation names the same first pair.
        let e = crate::oracle::merge_registers_cloned(&mut s, r2, r1).unwrap_err();
        let flipped = "`t2` and `t1` feed one operation together";
        assert!(
            matches!(&e, CoreError::MergeRejected(m) if m == flipped),
            "{e}"
        );
        let e = merge_registers_with_resched(&mut s, r2, r1).unwrap_err();
        assert!(
            matches!(&e, CoreError::MergeRejected(m) if m == flipped),
            "{e}"
        );
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

    /// The loop rule on a minimal looped graph: `a1` and `b1` are
    /// loop-carried sources (into `a` and `b`), so each is held through
    /// the latency `L` and each destination occupies the copy slot
    /// `[L, L]`. Two sources never share a register, and a source
    /// followed by another value never does: the walk accepts both
    /// merges, the post-merge validation refuses them, and the dry walk
    /// refuses them on the graph. A loop pair shares freely.
    #[test]
    fn loop_rule_refuses_what_validation_would() {
        let mut b = DfgBuilder::new("loop");
        let a = b.input("a");
        let bb = b.input("b");
        let c = b.input("c");
        let a1 = b.op("N1", OpKind::Add, &[a, c], "a1").unwrap();
        let b1 = b.op("N2", OpKind::Add, &[bb, c], "b1").unwrap();
        let p = b.op("N3", OpKind::Mul, &[a1, c], "p").unwrap();
        let q = b.op("N4", OpKind::Mul, &[b1, c], "q").unwrap();
        b.mark_output(p);
        b.mark_output(q);
        b.loop_carried(a1, a);
        b.loop_carried(b1, bb);
        let d = b.finish().unwrap();
        let s = DesignState::initial(&d).unwrap();
        let reg = |v| s.allocation.register_of(v).unwrap();
        let overlap = "merge rejected: post-merge validation found overlapping lifetimes";
        for (x, y) in [(a1, b1), (a1, p)] {
            let mut t = s.fork();
            assert!(register_merge_refused(&mut t, reg(x), reg(y)));
            assert_eq!(t.dfg, s.dfg);
            let e = merge_registers_with_resched(&mut t, reg(x), reg(y)).unwrap_err();
            assert_eq!(e.to_string(), overlap);
        }
        let mut t = s.fork();
        assert!(!register_merge_refused(&mut t, reg(a1), reg(a)));
        merge_registers_with_resched(&mut t, reg(a1), reg(a)).unwrap();
        t.validate().unwrap();
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
