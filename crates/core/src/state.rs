//! The evolving design state of the synthesis loop.

use std::sync::Arc;

use hlts_alloc::Allocation;
use hlts_dfg::Dfg;
use hlts_etpn::{DataPath, Etpn};
use hlts_sched::{list_schedule, reschedule_in_place, Lifetimes, ListPriority, Schedule};

use crate::txn::{StateTxn, TxnCounters, TxnStats};
use crate::CoreError;

/// A (graph, schedule, allocation) triple — the state Algorithm 1
/// transforms. The graph accumulates the precedence arcs that
/// materialize merge-imposed scheduling constraints.
///
/// Trial mergers edit the state **in place** through a [`StateTxn`]
/// (see [`DesignState::begin`]) and roll back via its undo journal;
/// nothing on the candidate hot path clones the state. Each synthesis
/// run starts from a [`DesignState::fork`] of its base — a cheap copy
/// whose graph shares the immutable [`Dfg`] core via [`Arc`] and which
/// shares the base's transaction counters.
#[derive(Debug, Clone)]
pub struct DesignState {
    /// The behavioral graph, including accumulated scheduling-constraint
    /// arcs.
    pub dfg: Dfg,
    /// The current schedule (always legal for `dfg` and `allocation`).
    pub schedule: Schedule,
    /// The current binding.
    pub allocation: Allocation,
    /// Shared transaction-layer counters (see [`DesignState::txn_stats`]).
    txn_counters: Arc<TxnCounters>,
}

impl DesignState {
    /// The paper's starting point: "a simple default scheduling /
    /// allocation" — one module per operation, one register per value,
    /// ASAP list schedule.
    ///
    /// # Errors
    ///
    /// Fails only for a cyclic input graph.
    pub fn initial(dfg: &Dfg) -> Result<Self, CoreError> {
        let allocation = Allocation::one_to_one(dfg);
        let schedule = list_schedule(dfg, &[], ListPriority::CriticalPath)?;
        Ok(DesignState::from_parts(dfg, schedule, allocation))
    }

    /// Assemble a state from an explicit triple, with fresh transaction
    /// counters. The graph is shared, not deep-copied: the
    /// state's copy references the same immutable core.
    #[must_use]
    pub fn from_parts(dfg: &Dfg, schedule: Schedule, allocation: Allocation) -> Self {
        DesignState {
            dfg: dfg.clone(),
            schedule,
            allocation,
            txn_counters: Arc::new(TxnCounters::default()),
        }
    }

    /// Open a transaction on this state (see [`StateTxn`]): edits apply
    /// in place, journaled; dropping the transaction rolls them back,
    /// [`StateTxn::commit`] keeps them.
    pub fn begin(&mut self) -> StateTxn<'_> {
        StateTxn::begin(self)
    }

    /// A cheap copy for one synthesis run: the schedule and binding are
    /// copied (the run's transactions must not touch the base state),
    /// while the graph's immutable core and the transaction counters are
    /// shared with every other fork.
    #[must_use]
    pub fn fork(&self) -> DesignState {
        self.clone()
    }

    /// Snapshot of the run's transaction-layer counters, aggregated
    /// over this state and all its forks.
    #[must_use]
    pub fn txn_stats(&self) -> TxnStats {
        self.txn_counters.snapshot()
    }

    /// A trial clone that deep-copies the graph (no shared core) — the
    /// cost profile every per-candidate clone had before the
    /// transaction layer existed. Used only by the clone oracle
    /// (`crate::oracle`) and its benchmark; the counters stay shared.
    #[must_use]
    pub fn deep_trial_clone(&self) -> DesignState {
        DesignState {
            dfg: self.dfg.deep_clone(),
            schedule: self.schedule.clone(),
            allocation: self.allocation.clone(),
            txn_counters: Arc::clone(&self.txn_counters),
        }
    }

    /// The shared counter block, handed to transactions (which must be
    /// able to count in `Drop` while the state is mutably borrowed).
    pub(crate) fn txn_counters(&self) -> Arc<TxnCounters> {
        Arc::clone(&self.txn_counters)
    }

    /// Re-solve the schedule under the current constraint arcs and
    /// module binding, staying close to the previous schedule.
    ///
    /// # Errors
    ///
    /// Propagates scheduling failures (cyclic constraints are prevented
    /// by [`Dfg::add_precedence`], so this is defensive).
    ///
    /// [`Dfg::add_precedence`]: hlts_dfg::Dfg::add_precedence
    pub fn reschedule(&mut self) -> Result<(), CoreError> {
        reschedule_in_place(
            &self.dfg,
            &self.allocation,
            &mut self.schedule,
            ListPriority::CriticalPath,
        )?;
        Ok(())
    }

    /// Lower the current state to ETPN: data path with guarded
    /// transfers, and control part. Reports, netlist elaboration and
    /// the clone oracle read it; Algorithm 1's pricing and analysis
    /// read [`DesignState::data_path`] instead.
    ///
    /// # Errors
    ///
    /// Propagates lowering failures (inconsistent state).
    pub fn lower(&self) -> Result<Etpn, CoreError> {
        Ok(Etpn::from_parts(
            &self.dfg,
            &self.schedule,
            &self.allocation,
        )?)
    }

    /// The structural data path of the current state
    /// ([`Etpn::data_path_of`]): the nodes and arcs of
    /// [`lower`](DesignState::lower)'s data path without guards, built
    /// from the graph's data edges and the binding alone. It is all
    /// the hardware cost `H` and the testability analysis read.
    ///
    /// # Errors
    ///
    /// Exactly those of [`lower`](DesignState::lower).
    pub fn data_path(&self) -> Result<DataPath, CoreError> {
        Ok(Etpn::data_path_of(
            &self.dfg,
            &self.schedule,
            &self.allocation,
        )?)
    }

    /// Lifetime analysis of the current schedule (the paper's step 13).
    #[must_use]
    pub fn lifetimes(&self) -> Lifetimes {
        Lifetimes::compute(&self.dfg, &self.schedule)
    }

    /// Run the cross-crate invariant auditor over this state (see
    /// [`hlts_check::audit_design`]): binding consistency in both
    /// directions, schedule legality under module/register sharing,
    /// arc-overlay well-formedness, and the transaction counters'
    /// balance. Unlike [`DesignState::validate`] (first error wins)
    /// the audit collects **every** violation into a report.
    ///
    /// The merge loop runs this in debug builds after every trial
    /// rollback; the CLI exposes it as `--audit`.
    #[must_use]
    pub fn audit(&self) -> hlts_check::AuditReport {
        let mut report = hlts_check::audit_design(&self.dfg, &self.schedule, &self.allocation);
        let st = self.txn_stats();
        hlts_check::audit_txn_balance(
            &mut report,
            st.begun,
            st.committed,
            st.rolled_back,
            st.ops_recorded,
            st.ops_replayed,
        );
        report
    }

    /// Full consistency check: schedule legal for graph and binding,
    /// register sharing legal for lifetimes.
    ///
    /// # Errors
    ///
    /// The first violation found.
    pub fn validate(&self) -> Result<(), CoreError> {
        self.schedule.validate(&self.dfg)?;
        self.schedule
            .validate_groups_src(&self.dfg, &self.allocation)?;
        let lt = self.lifetimes();
        self.allocation.validate(&self.dfg, &self.schedule, &lt)?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hlts_dfg::{DfgBuilder, OpKind};

    fn small() -> Dfg {
        let mut b = DfgBuilder::new("t");
        let a = b.input("a");
        let c = b.input("c");
        let t = b.op("N1", OpKind::Add, &[a, c], "t").unwrap();
        let y = b.op("N2", OpKind::Mul, &[t, c], "y").unwrap();
        b.mark_output(y);
        b.finish().unwrap()
    }

    #[test]
    fn initial_state_is_valid() {
        let d = small();
        let s = DesignState::initial(&d).unwrap();
        s.validate().unwrap();
        assert_eq!(s.allocation.num_modules(), 2);
        assert_eq!(s.schedule.num_steps(), 2);
    }

    #[test]
    fn reschedule_after_constraint() {
        let d = small();
        let mut s = DesignState::initial(&d).unwrap();
        let n1 = s.dfg.op_by_name("N1").unwrap();
        let n2 = s.dfg.op_by_name("N2").unwrap();
        // force a gap: N1 before N2 already data-ordered; add a dummy
        // reverse-ish constraint between independent ops is impossible
        // here; just verify rescheduling is stable
        s.reschedule().unwrap();
        s.validate().unwrap();
        assert!(s.schedule.step_of(n1) < s.schedule.step_of(n2));
    }

    #[test]
    fn lower_roundtrip() {
        let d = small();
        let s = DesignState::initial(&d).unwrap();
        let e = s.lower().unwrap();
        assert_eq!(e.execution_time(), 2);
    }
}
