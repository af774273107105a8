//! Transactional editing of a [`DesignState`] — the journaled
//! apply/price/rollback machinery behind candidate evaluation.
//!
//! Every trial merger in the synthesis loop used to clone the full
//! design state, mutate the clone, price it and throw it away. A
//! [`StateTxn`] replaces the clone with an **undo journal** of
//! fine-grained edit operations applied in place:
//!
//! * precedence-arc additions are undone by truncating the graph's
//!   append-only arc overlay back to a [`ArcSavepoint`];
//! * a reschedule is undone by replaying the [`ScheduleDelta`] of the
//!   operations that actually moved;
//! * module/register mergers are undone by the
//!   [`ModuleMergeUndo`]/[`RegisterMergeUndo`] records of `hlts-alloc`,
//!   which split the absorbed members back out of the survivor.
//!
//! Rolling back replays the journal in LIFO order and restores the
//! state **bit-identically** (verified by the `txn_oracle` property
//! tests); committing simply discards the journal. Dropping an
//! uncommitted transaction rolls back, so every early-exit path of a
//! trial is safe by construction.
//!
//! [`ArcSavepoint`]: hlts_dfg::ArcSavepoint
//! [`ScheduleDelta`]: hlts_sched::ScheduleDelta
//! [`ModuleMergeUndo`]: hlts_alloc::ModuleMergeUndo
//! [`RegisterMergeUndo`]: hlts_alloc::RegisterMergeUndo

use std::cell::RefCell;
use std::mem;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use hlts_alloc::{AllocError, ModuleId, ModuleMergeUndo, RegisterId, RegisterMergeUndo};
use hlts_dfg::{ArcSavepoint, OpId};
use hlts_sched::{reschedule_in_place, ListPriority, ScheduleDelta};

use crate::candidates::MergeKind;
use crate::resched::{apply_merge, register_merge_refused};
use crate::{CoreError, DesignState};

/// One reversible edit recorded in a transaction's journal.
#[derive(Debug)]
enum UndoOp {
    /// Truncate the graph's arc overlay back to this savepoint.
    Arcs(ArcSavepoint),
    /// Revert the schedule moves of one reschedule.
    Schedule(ScheduleDelta),
    /// Split an absorbed module back out of its survivor.
    Modules(ModuleMergeUndo),
    /// Split an absorbed register back out of its survivor.
    Registers(RegisterMergeUndo),
}

// Thread-local recycling pool for transaction journals (bounded so a
// pathological burst of nested transactions cannot pin memory): the
// journal vector of a finished transaction keeps its capacity for the
// next trial, so steady-state journaling allocates nothing.
thread_local! {
    static JOURNAL_POOL: RefCell<Vec<Vec<UndoOp>>> = const { RefCell::new(Vec::new()) };
}
const JOURNAL_POOL_CAP: usize = 8;

fn journal_acquire() -> Vec<UndoOp> {
    JOURNAL_POOL
        .with(|p| p.borrow_mut().pop())
        .unwrap_or_default()
}

fn journal_release(mut journal: Vec<UndoOp>) {
    journal.clear();
    JOURNAL_POOL.with(|p| {
        let mut pool = p.borrow_mut();
        if pool.len() < JOURNAL_POOL_CAP {
            pool.push(journal);
        }
    });
}

/// An open transaction over a [`DesignState`]: edits apply in place and
/// are journaled, [`StateTxn::commit`] keeps them, dropping the
/// transaction (or [`StateTxn::rollback_to`] a savepoint) undoes them.
///
/// Created by [`DesignState::begin`] or [`StateTxn::begin`].
#[derive(Debug)]
pub struct StateTxn<'a> {
    state: &'a mut DesignState,
    journal: Vec<UndoOp>,
    committed: bool,
    counters: Arc<TxnCounters>,
}

/// A position in a transaction's journal; rolling back to it undoes
/// everything recorded after it was taken. Savepoints of one
/// transaction must be used in LIFO order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TxnSavepoint(usize);

impl<'a> StateTxn<'a> {
    /// Open a transaction on `state`.
    #[must_use]
    pub fn begin(state: &'a mut DesignState) -> Self {
        let counters = state.txn_counters();
        counters.begun.fetch_add(1, Ordering::Relaxed);
        StateTxn {
            state,
            journal: journal_acquire(),
            committed: false,
            counters,
        }
    }

    /// Read access to the state as currently edited.
    #[must_use]
    pub fn state(&self) -> &DesignState {
        self.state
    }

    /// Add a strict precedence arc `from -> to`, journaling the overlay
    /// growth. Idempotent adds (arc already present) record nothing.
    ///
    /// # Errors
    ///
    /// As [`Dfg::add_precedence`](hlts_dfg::Dfg::add_precedence).
    pub fn add_precedence(&mut self, from: OpId, to: OpId) -> Result<(), hlts_dfg::DfgError> {
        let sp = self.state.dfg.arc_savepoint();
        self.state.dfg.add_precedence(from, to)?;
        if self.state.dfg.arc_savepoint() != sp {
            self.record(UndoOp::Arcs(sp));
        }
        Ok(())
    }

    /// Add a weak (same-step-allowed) precedence arc `from -> to`,
    /// journaling the overlay growth. Idempotent adds record nothing.
    ///
    /// # Errors
    ///
    /// As [`Dfg::add_weak_precedence`](hlts_dfg::Dfg::add_weak_precedence).
    pub fn add_weak_precedence(&mut self, from: OpId, to: OpId) -> Result<(), hlts_dfg::DfgError> {
        let sp = self.state.dfg.arc_savepoint();
        self.state.dfg.add_weak_precedence(from, to)?;
        if self.state.dfg.arc_savepoint() != sp {
            self.record(UndoOp::Arcs(sp));
        }
        Ok(())
    }

    /// Re-solve the schedule under the current constraint arcs and
    /// binding (as [`DesignState::reschedule`]), journaling the delta of
    /// the operations that moved.
    ///
    /// # Errors
    ///
    /// As [`DesignState::reschedule`]; on error nothing is recorded and
    /// the schedule is unchanged.
    pub fn reschedule(&mut self) -> Result<(), CoreError> {
        // In-place re-solve: the scheduler reads the conflict groups
        // straight from the binding tables and uses the schedule's own
        // steps as the stability priority, so a steady-state reschedule
        // allocates nothing.
        let delta = reschedule_in_place(
            &self.state.dfg,
            &self.state.allocation,
            &mut self.state.schedule,
            ListPriority::CriticalPath,
        )?;
        self.record(UndoOp::Schedule(delta));
        Ok(())
    }

    /// Merge module `b` into `a`, journaling the undo record.
    ///
    /// # Errors
    ///
    /// As [`Allocation::merge_modules`](hlts_alloc::Allocation::merge_modules);
    /// on error nothing is recorded and the binding is unchanged.
    pub fn merge_modules(&mut self, a: ModuleId, b: ModuleId) -> Result<ModuleId, AllocError> {
        let undo = self
            .state
            .allocation
            .merge_modules_journaled(&self.state.dfg, a, b)?;
        self.record(UndoOp::Modules(undo));
        Ok(a)
    }

    /// Merge register `b` into `a`, journaling the undo record.
    ///
    /// # Errors
    ///
    /// As [`Allocation::merge_registers`](hlts_alloc::Allocation::merge_registers);
    /// on error nothing is recorded and the binding is unchanged.
    pub fn merge_registers(
        &mut self,
        a: RegisterId,
        b: RegisterId,
    ) -> Result<RegisterId, AllocError> {
        let undo = self.state.allocation.merge_registers_journaled(a, b)?;
        self.record(UndoOp::Registers(undo));
        Ok(a)
    }

    /// Mark the current journal position. Everything recorded afterwards
    /// can be undone with [`StateTxn::rollback_to`] — the mechanism
    /// behind tentative what-if probes (SR2 order selection) inside a
    /// larger trial.
    #[must_use]
    pub fn savepoint(&self) -> TxnSavepoint {
        TxnSavepoint(self.journal.len())
    }

    /// Undo every edit recorded since `sp` was taken, in LIFO order.
    ///
    /// # Panics
    ///
    /// Panics if `sp` is ahead of the journal (savepoints used out of
    /// LIFO order).
    pub fn rollback_to(&mut self, sp: TxnSavepoint) {
        assert!(
            sp.0 <= self.journal.len(),
            "transaction savepoint used out of LIFO order"
        );
        let mut replayed = 0u64;
        while self.journal.len() > sp.0 {
            let Some(op) = self.journal.pop() else { break };
            Self::undo(self.state, op);
            replayed += 1;
        }
        self.counters
            .ops_replayed
            .fetch_add(replayed, Ordering::Relaxed);
    }

    /// Keep every recorded edit: the journal is discarded and the
    /// borrowed state stays as edited.
    pub fn commit(mut self) {
        // The journal goes, and with it every savepoint: the graph's
        // reachability index can drop its undo log too.
        self.state.dfg.forget_arc_undo();
        self.committed = true;
        self.counters.committed.fetch_add(1, Ordering::Relaxed);
    }

    fn record(&mut self, op: UndoOp) {
        self.counters.ops_recorded.fetch_add(1, Ordering::Relaxed);
        self.journal.push(op);
    }

    fn undo(state: &mut DesignState, op: UndoOp) {
        match op {
            UndoOp::Arcs(sp) => {
                state.dfg.truncate_arcs(sp);
            }
            UndoOp::Schedule(delta) => state.schedule.revert(&delta),
            UndoOp::Modules(undo) => state.allocation.undo_module_merge(undo),
            UndoOp::Registers(undo) => state.allocation.undo_register_merge(undo),
        }
    }
}

impl Drop for StateTxn<'_> {
    /// An uncommitted transaction rolls back on drop, restoring the
    /// borrowed state bit-identically to what it was at
    /// [`StateTxn::begin`].
    fn drop(&mut self) {
        if !self.committed {
            self.rollback_to(TxnSavepoint(0));
            self.counters.rolled_back.fetch_add(1, Ordering::Relaxed);
        }
        // Recycle the journal buffer (empty after a rollback; committed
        // entries are dropped here) for the next transaction.
        journal_release(mem::take(&mut self.journal));
    }
}

/// Evaluate one merge candidate as **apply → price → rollback**: the
/// merger (with merge-sort rescheduling, SR2 resolving its free order)
/// is applied to `state` inside a transaction, `price` reads the
/// post-merge state, and the transaction rolls back, leaving `state`
/// bit-identical to before.
///
/// Returns `None` when the merger is infeasible or `price` declines. A
/// register merger that the dry walk ([`register_walk_verdict`]) refuses
/// on the graph alone returns `None` before any transaction opens; it
/// counts as [`TxnStats::prechecked`], not as a transaction begun.
///
/// This is the one trial path shared by Algorithm 1 and the CAMAD
/// baseline — they differ only in the pricing closure: Algorithm 1
/// prices the `(ΔE, ΔH)` parts, so a recorded trace can be re-weighted
/// without re-trialing; CAMAD prices a scalar ΔC.
///
/// In debug builds the rolled-back state is re-audited after every
/// trial (see [`DesignState::audit`]): a journal-replay bug corrupts
/// the *base* state all later candidates price, so it must be caught
/// at the rollback that introduced it, not at the end of the run.
///
/// [`register_walk_verdict`]: crate::register_walk_verdict
pub fn trial_merge<T, F>(state: &mut DesignState, kind: MergeKind, price: F) -> Option<T>
where
    F: FnOnce(&DesignState) -> Option<T>,
{
    let refused = matches!(kind, MergeKind::Registers(a, b) if register_merge_refused(state, a, b));
    let priced = if refused {
        state
            .txn_counters()
            .prechecked
            .fetch_add(1, Ordering::Relaxed);
        None
    } else {
        let mut txn = StateTxn::begin(state);
        let feasible = apply_merge(&mut txn, kind).is_ok();
        // an injected CORE_FORCE_ROLLBACK discards the applied trial unpriced
        if feasible && !hlts_check::faults::fire(hlts_check::faults::sites::CORE_FORCE_ROLLBACK) {
            price(txn.state())
        } else {
            None // txn drop rolls back whatever was applied
        }
    }; // the transaction drops here: uncommitted edits roll back
    #[cfg(debug_assertions)]
    {
        let report = hlts_check::audit_design(&state.dfg, &state.schedule, &state.allocation);
        debug_assert!(report.is_clean(), "post-rollback audit failed:\n{report}");
    }
    priced
}

/// Cumulative transaction-layer counters of one synthesis run,
/// aggregated across all forks sharing the state's counter block.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TxnStats {
    /// Transactions opened ([`StateTxn::begin`]).
    pub begun: u64,
    /// Transactions committed.
    pub committed: u64,
    /// Uncommitted transactions rolled back on drop.
    pub rolled_back: u64,
    /// Journal entries recorded across all transactions.
    pub ops_recorded: u64,
    /// Journal entries replayed by rollbacks (full and to-savepoint).
    pub ops_replayed: u64,
    /// Register trials refused on the precedence graph before a
    /// transaction opened (the dry register walk); not in `begun`.
    pub prechecked: u64,
}

/// The shared atomic counter block behind [`TxnStats`]; every fork of a
/// [`DesignState`] references the same block, so the points a sweep
/// runs concurrently from one base aggregate into one set of totals.
#[derive(Debug, Default)]
pub(crate) struct TxnCounters {
    begun: AtomicU64,
    committed: AtomicU64,
    rolled_back: AtomicU64,
    ops_recorded: AtomicU64,
    ops_replayed: AtomicU64,
    prechecked: AtomicU64,
}

impl TxnCounters {
    pub(crate) fn snapshot(&self) -> TxnStats {
        TxnStats {
            begun: self.begun.load(Ordering::Relaxed),
            committed: self.committed.load(Ordering::Relaxed),
            rolled_back: self.rolled_back.load(Ordering::Relaxed),
            ops_recorded: self.ops_recorded.load(Ordering::Relaxed),
            ops_replayed: self.ops_replayed.load(Ordering::Relaxed),
            prechecked: self.prechecked.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DeltaEvaluator;
    use hlts_dfg::{Dfg, DfgBuilder, OpKind};

    fn fixture() -> Dfg {
        let mut b = DfgBuilder::new("t");
        let a = b.input("a");
        let c = b.input("c");
        let t1 = b.op("N1", OpKind::Add, &[a, c], "t1").unwrap();
        let t2 = b.op("N2", OpKind::Add, &[a, c], "t2").unwrap();
        let t3 = b.op("N3", OpKind::Mul, &[t1, t2], "t3").unwrap();
        let y = b.op("N4", OpKind::Sub, &[t3, c], "y").unwrap();
        b.mark_output(y);
        b.finish().unwrap()
    }

    fn snapshot(s: &DesignState) -> (Dfg, hlts_sched::Schedule, hlts_alloc::Allocation, u64) {
        (
            s.dfg.deep_clone(),
            s.schedule.clone(),
            s.allocation.clone(),
            DeltaEvaluator::fingerprint(s),
        )
    }

    fn assert_restored(
        s: &DesignState,
        snap: &(Dfg, hlts_sched::Schedule, hlts_alloc::Allocation, u64),
    ) {
        assert_eq!(s.dfg, snap.0);
        assert_eq!(s.schedule, snap.1);
        assert_eq!(s.allocation, snap.2);
        assert_eq!(DeltaEvaluator::fingerprint(s), snap.3);
    }

    #[test]
    fn drop_rolls_back_merge_and_reschedule() {
        let d = fixture();
        let mut s = DesignState::initial(&d).unwrap();
        let before = snapshot(&s);
        let n1 = s.dfg.op_by_name("N1").unwrap();
        let n2 = s.dfg.op_by_name("N2").unwrap();
        let (m1, m2) = (s.allocation.module_of(n1), s.allocation.module_of(n2));
        {
            let mut txn = StateTxn::begin(&mut s);
            txn.add_precedence(n1, n2).unwrap();
            txn.merge_modules(m1, m2).unwrap();
            txn.reschedule().unwrap();
            assert_eq!(txn.state().allocation.num_modules(), 3);
        }
        assert_restored(&s, &before);
        let st = s.txn_stats();
        assert_eq!(st.begun, 1);
        assert_eq!(st.rolled_back, 1);
        assert_eq!(st.committed, 0);
        assert_eq!(st.ops_recorded, st.ops_replayed);
        assert!(st.ops_recorded >= 2);
    }

    #[test]
    fn commit_keeps_edits() {
        let d = fixture();
        let mut s = DesignState::initial(&d).unwrap();
        let n1 = s.dfg.op_by_name("N1").unwrap();
        let n2 = s.dfg.op_by_name("N2").unwrap();
        let (m1, m2) = (s.allocation.module_of(n1), s.allocation.module_of(n2));
        let mut txn = StateTxn::begin(&mut s);
        txn.add_precedence(n1, n2).unwrap();
        txn.merge_modules(m1, m2).unwrap();
        txn.reschedule().unwrap();
        txn.commit();
        assert_eq!(s.allocation.num_modules(), 3);
        s.validate().unwrap();
        let st = s.txn_stats();
        assert_eq!(st.committed, 1);
        assert_eq!(st.rolled_back, 0);
        assert_eq!(st.ops_replayed, 0);
    }

    #[test]
    fn savepoint_rollback_is_partial() {
        let d = fixture();
        let mut s = DesignState::initial(&d).unwrap();
        let n1 = s.dfg.op_by_name("N1").unwrap();
        let n2 = s.dfg.op_by_name("N2").unwrap();
        let n4 = s.dfg.op_by_name("N4").unwrap();
        let mut txn = StateTxn::begin(&mut s);
        txn.add_precedence(n1, n2).unwrap();
        let sp = txn.savepoint();
        txn.add_precedence(n2, n4).unwrap();
        assert_eq!(txn.state().dfg.extra_precedence().len(), 2);
        txn.rollback_to(sp);
        assert_eq!(txn.state().dfg.extra_precedence().len(), 1);
        txn.commit();
        assert_eq!(s.dfg.extra_precedence(), &[(n1, n2)]);
    }

    #[test]
    fn idempotent_arc_adds_record_nothing() {
        let d = fixture();
        let mut s = DesignState::initial(&d).unwrap();
        let n1 = s.dfg.op_by_name("N1").unwrap();
        let n2 = s.dfg.op_by_name("N2").unwrap();
        let mut txn = StateTxn::begin(&mut s);
        txn.add_precedence(n1, n2).unwrap();
        txn.add_precedence(n1, n2).unwrap(); // already present: no-op
        assert_eq!(txn.journal.len(), 1);
        drop(txn);
        assert!(s.dfg.extra_precedence().is_empty());
    }

    #[test]
    fn trial_merge_prices_and_restores() {
        let d = fixture();
        let mut s = DesignState::initial(&d).unwrap();
        let before = snapshot(&s);
        let n1 = s.dfg.op_by_name("N1").unwrap();
        let n2 = s.dfg.op_by_name("N2").unwrap();
        let (m1, m2) = (s.allocation.module_of(n1), s.allocation.module_of(n2));
        let dc = trial_merge(&mut s, MergeKind::Modules(m1, m2), |trial| {
            assert_eq!(trial.allocation.num_modules(), 3);
            Some(1.5)
        });
        assert_eq!(dc, Some(1.5));
        assert_restored(&s, &before);
    }

    #[test]
    fn infeasible_trial_returns_none_and_restores() {
        let d = fixture();
        let mut s = DesignState::initial(&d).unwrap();
        let before = snapshot(&s);
        let n1 = s.dfg.op_by_name("N1").unwrap();
        let n3 = s.dfg.op_by_name("N3").unwrap(); // mul: incompatible with add
        let (m1, m3) = (s.allocation.module_of(n1), s.allocation.module_of(n3));
        let dc = trial_merge(&mut s, MergeKind::Modules(m1, m3), |_| Some(0.0));
        assert_eq!(dc, None);
        assert_restored(&s, &before);
    }
}
