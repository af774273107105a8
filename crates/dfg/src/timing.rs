//! ASAP/ALAP analysis and operation mobility.
//!
//! Every operation takes one control step (the DATE'98 benchmarks are
//! evaluated with single-cycle functional units). Steps are 0-based.

use crate::{Dfg, DfgError, OpId};

/// As-soon-as-possible / as-late-as-possible step bounds for every
/// operation, under the graph's full precedence relation.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct AsapAlap {
    asap: Vec<usize>,
    alap: Vec<usize>,
    /// Topological order scratch, kept so `recompute` reuses capacity.
    order: Vec<OpId>,
    latency: usize,
}

impl AsapAlap {
    /// Compute ASAP and ALAP times.
    ///
    /// `latency` is the number of control steps available; `None` uses the
    /// critical-path length (the tightest feasible latency).
    ///
    /// # Errors
    ///
    /// * [`DfgError::PrecedenceCycle`] if the precedence relation is cyclic;
    /// * [`DfgError::InvalidId`] if `latency` is smaller than the critical
    ///   path (no feasible schedule).
    pub fn compute(dfg: &Dfg, latency: Option<usize>) -> Result<Self, DfgError> {
        let mut aa = AsapAlap::default();
        aa.recompute(dfg, latency)?;
        Ok(aa)
    }

    /// Recompute in place, reusing this analysis' buffers. With a
    /// long-lived `AsapAlap` (e.g. the scheduler's thread-local scratch)
    /// steady-state calls perform no heap allocation.
    ///
    /// # Errors
    ///
    /// As for [`AsapAlap::compute`].
    pub fn recompute(&mut self, dfg: &Dfg, latency: Option<usize>) -> Result<(), DfgError> {
        dfg.topo_order_into(&mut self.order)?;
        let n = dfg.num_ops();
        self.asap.clear();
        self.asap.resize(n, 0);
        for &u in &self.order {
            for p in dfg.preds(u) {
                self.asap[u.index()] = self.asap[u.index()].max(self.asap[p.index()] + 1);
            }
            for p in dfg.weak_preds(u) {
                self.asap[u.index()] = self.asap[u.index()].max(self.asap[p.index()]);
            }
        }
        let cp = self.asap.iter().copied().max().map_or(0, |m| m + 1);
        let latency = latency.unwrap_or(cp);
        if latency < cp {
            return Err(DfgError::InvalidId(format!(
                "latency {latency} below critical path {cp}"
            )));
        }
        self.alap.clear();
        self.alap.resize(n, latency.saturating_sub(1));
        for &u in self.order.iter().rev() {
            for s in dfg.succs(u) {
                self.alap[u.index()] =
                    self.alap[u.index()].min(self.alap[s.index()].saturating_sub(1));
            }
            for s in dfg.weak_succs(u) {
                self.alap[u.index()] = self.alap[u.index()].min(self.alap[s.index()]);
            }
        }
        self.latency = latency;
        Ok(())
    }

    /// Earliest feasible step of `op`.
    #[must_use]
    pub fn asap(&self, op: OpId) -> usize {
        self.asap[op.index()]
    }

    /// Latest feasible step of `op`.
    #[must_use]
    pub fn alap(&self, op: OpId) -> usize {
        self.alap[op.index()]
    }

    /// The latency (number of control steps) used for the ALAP pass.
    #[must_use]
    pub fn latency(&self) -> usize {
        self.latency
    }

    /// Mobility of `op`: `alap - asap`.
    #[must_use]
    pub fn mobility(&self, op: OpId) -> Mobility {
        Mobility(self.alap[op.index()] - self.asap[op.index()])
    }
}

/// Scheduling freedom of an operation, in control steps.
///
/// Zero mobility means the operation is on the critical path.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Mobility(pub usize);

impl Mobility {
    /// Whether the operation has no freedom (is critical).
    #[must_use]
    pub fn is_critical(self) -> bool {
        self.0 == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DfgBuilder, OpKind};

    fn chain3() -> Dfg {
        let mut b = DfgBuilder::new("chain");
        let a = b.input("a");
        let c = b.input("c");
        let t1 = b.op("N1", OpKind::Add, &[a, c], "t1").unwrap();
        let t2 = b.op("N2", OpKind::Mul, &[t1, c], "t2").unwrap();
        let y = b.op("N3", OpKind::Sub, &[t2, a], "y").unwrap();
        b.mark_output(y);
        b.finish().unwrap()
    }

    #[test]
    fn chain_is_fully_critical() {
        let d = chain3();
        let aa = AsapAlap::compute(&d, None).unwrap();
        assert_eq!(aa.latency(), 3);
        for op in d.ops() {
            assert!(aa.mobility(op.id()).is_critical());
            assert_eq!(aa.asap(op.id()), aa.alap(op.id()));
        }
    }

    #[test]
    fn slack_appears_with_extra_latency() {
        let d = chain3();
        let aa = AsapAlap::compute(&d, Some(5)).unwrap();
        let n1 = d.op_by_name("N1").unwrap();
        assert_eq!(aa.asap(n1), 0);
        assert_eq!(aa.alap(n1), 2);
        assert_eq!(aa.mobility(n1), Mobility(2));
    }

    #[test]
    fn infeasible_latency_rejected() {
        let d = chain3();
        assert!(AsapAlap::compute(&d, Some(2)).is_err());
    }

    #[test]
    fn parallel_ops_have_mobility() {
        let mut b = DfgBuilder::new("par");
        let a = b.input("a");
        let c = b.input("c");
        let t1 = b.op("N1", OpKind::Add, &[a, c], "t1").unwrap();
        let t2 = b.op("N2", OpKind::Mul, &[a, c], "t2").unwrap();
        let y = b.op("N3", OpKind::Sub, &[t1, t2], "y").unwrap();
        b.mark_output(y);
        let d = b.finish().unwrap();
        let aa = AsapAlap::compute(&d, Some(3)).unwrap();
        let n1 = d.op_by_name("N1").unwrap();
        // N1 can be at step 0 or 1 when latency is 3.
        assert_eq!(aa.asap(n1), 0);
        assert_eq!(aa.alap(n1), 1);
        let _ = y;
    }

    #[test]
    fn alap_respects_extra_precedence() {
        let mut d = {
            let mut b = DfgBuilder::new("par");
            let a = b.input("a");
            let c = b.input("c");
            b.op("N1", OpKind::Add, &[a, c], "t1").unwrap();
            b.op("N2", OpKind::Mul, &[a, c], "t2").unwrap();
            b.finish().unwrap()
        };
        let n1 = d.op_by_name("N1").unwrap();
        let n2 = d.op_by_name("N2").unwrap();
        d.add_precedence(n1, n2).unwrap();
        let aa = AsapAlap::compute(&d, None).unwrap();
        assert_eq!(aa.latency(), 2);
        assert_eq!(aa.asap(n2), 1);
        assert_eq!(aa.alap(n1), 0);
    }
}
