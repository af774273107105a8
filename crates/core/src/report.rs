//! Synthesis results and the metrics the paper's tables report.

use hlts_alloc::Allocation;
use hlts_cost::{estimate_cost, CostBreakdown, ModuleLibrary};
use hlts_dfg::Dfg;
use hlts_etpn::Etpn;
use hlts_sched::Schedule;
use hlts_testability::{total_co_depth, NodeProfile, TestabilityAnalysis, TestabilityCacheStats};

use crate::{CoreError, DesignState, TxnStats};

/// Structural and testability metrics of a finished design — the
/// columns of the paper's Tables 1–3 that come from synthesis itself
/// (fault coverage and test-generation effort come from `hlts-atpg`).
#[derive(Debug, Clone, PartialEq)]
pub struct DesignMetrics {
    /// Execution time `E` in control steps (Petri-net critical path).
    pub execution_time: usize,
    /// Live functional modules.
    pub num_modules: usize,
    /// Live registers.
    pub num_registers: usize,
    /// 2-to-1 multiplexer equivalents in the data path.
    pub mux_count: usize,
    /// Register↔module self-loops.
    pub self_loops: usize,
    /// Floorplanned area breakdown (the paper's `H`).
    pub hardware: CostBreakdown,
    /// Mean scalarized controllability over registers and modules.
    pub avg_controllability: f64,
    /// Mean scalarized observability over registers and modules.
    pub avg_observability: f64,
    /// The SR1 objective: total controllable→observable depth.
    pub co_depth: f64,
}

impl DesignMetrics {
    /// Measure a design state: `E` from its control part, the rest from
    /// its structural data path ([`DesignState::data_path`]).
    ///
    /// # Errors
    ///
    /// Fails when the state cannot be lowered to ETPN.
    pub fn of(state: &DesignState, bits: u32, library: &ModuleLibrary) -> Result<Self, CoreError> {
        DesignMetrics::counted(state, bits, library, &mut TestabilityCacheStats::default())
    }

    /// [`DesignMetrics::of`], counting its testability analysis into
    /// `testability`.
    fn counted(
        state: &DesignState,
        bits: u32,
        library: &ModuleLibrary,
        testability: &mut TestabilityCacheStats,
    ) -> Result<Self, CoreError> {
        let dp = &state.data_path()?;
        let analysis = TestabilityAnalysis::analyze(dp);
        testability.record(&analysis);
        let mut c_sum = 0.0;
        let mut o_sum = 0.0;
        let mut n = 0usize;
        for node in dp.register_nodes().into_iter().chain(dp.module_nodes()) {
            let p = NodeProfile::of(&analysis, dp, node);
            c_sum += p.c;
            o_sum += p.o;
            n += 1;
        }
        let n = n.max(1) as f64;
        Ok(DesignMetrics {
            execution_time: Etpn::execution_time_of(&state.schedule),
            num_modules: state.allocation.num_modules(),
            num_registers: state.allocation.num_registers(),
            mux_count: state.allocation.mux_count(&state.dfg),
            self_loops: state.allocation.self_loops(&state.dfg),
            hardware: estimate_cost(dp, bits, library),
            avg_controllability: c_sum / n,
            avg_observability: o_sum / n,
            co_depth: total_co_depth(dp, &analysis),
        })
    }
}

/// The output of a synthesis driver: the final design plus its metrics
/// and the merge decisions taken.
#[derive(Debug, Clone)]
pub struct SynthesisResult {
    /// The graph, including all accumulated scheduling-constraint arcs.
    pub dfg: Dfg,
    /// The final schedule.
    pub schedule: Schedule,
    /// The final binding.
    pub allocation: Allocation,
    /// Measured metrics.
    pub metrics: DesignMetrics,
    /// Human-readable record of each committed merger.
    pub merge_log: Vec<String>,
    /// The testability analyses this run computed: one per scratch
    /// iteration of Algorithm 1 plus one for [`DesignMetrics`].
    /// Diagnostics only, excluded from equality: a warm-start replay
    /// reaches the same result with fewer analyses.
    pub testability_stats: TestabilityCacheStats,
    /// How the run exercised the transaction layer: trials begun,
    /// rolled back and committed, and journal undo operations recorded
    /// and replayed. Diagnostics only, excluded from equality like
    /// `testability_stats`.
    pub txn_stats: TxnStats,
}

/// Everything except `testability_stats`/`txn_stats`: results compare
/// by what was synthesized, not by how much analysis and journaling it
/// took.
impl PartialEq for SynthesisResult {
    fn eq(&self, other: &Self) -> bool {
        self.dfg == other.dfg
            && self.schedule == other.schedule
            && self.allocation == other.allocation
            && self.metrics == other.metrics
            && self.merge_log == other.merge_log
    }
}

impl SynthesisResult {
    /// Measure the final `state`; `testability_stats` holds the
    /// analyses the run computed before it, and gains the metrics' own.
    pub(crate) fn from_state(
        state: DesignState,
        bits: u32,
        library: &ModuleLibrary,
        merge_log: Vec<String>,
        mut testability_stats: TestabilityCacheStats,
    ) -> Result<Self, CoreError> {
        let metrics = DesignMetrics::counted(&state, bits, library, &mut testability_stats)?;
        let txn_stats = state.txn_stats();
        Ok(SynthesisResult {
            dfg: state.dfg,
            schedule: state.schedule,
            allocation: state.allocation,
            metrics,
            merge_log,
            testability_stats,
            txn_stats,
        })
    }

    /// Render the allocation in the paper's table style plus a schedule
    /// listing (the shape of Figures 2–3).
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&self.allocation.render(&self.dfg));
        out.push('\n');
        out.push_str(&self.schedule.render(&self.dfg));
        out.push_str(&format!(
            "\nE = {} steps, {} modules, {} registers, {} muxes, H = {:.3}\n",
            self.metrics.execution_time,
            self.metrics.num_modules,
            self.metrics.num_registers,
            self.metrics.mux_count,
            self.metrics.hardware.total(),
        ));
        let t = &self.testability_stats;
        out.push_str(&format!(
            "testability: {} analyses, {} updates propagated\n",
            t.misses, t.updates_propagated,
        ));
        let x = &self.txn_stats;
        out.push_str(&format!(
            "txn journal: {} trials begun ({} rolled back, {} committed), \
             {} undo ops recorded, {} replayed\n",
            x.begun, x.rolled_back, x.committed, x.ops_recorded, x.ops_replayed,
        ));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hlts_dfg::{DfgBuilder, OpKind};

    #[test]
    fn metrics_of_initial_state() {
        let mut b = DfgBuilder::new("t");
        let a = b.input("a");
        let c = b.input("c");
        let t = b.op("N1", OpKind::Add, &[a, c], "t").unwrap();
        let y = b.op("N2", OpKind::Mul, &[t, c], "y").unwrap();
        b.mark_output(y);
        let d = b.finish().unwrap();
        let s = DesignState::initial(&d).unwrap();
        let m = DesignMetrics::of(&s, 8, &ModuleLibrary::new()).unwrap();
        assert_eq!(m.execution_time, 2);
        assert_eq!(m.num_modules, 2);
        assert_eq!(m.num_registers, 4);
        assert_eq!(m.self_loops, 0);
        assert!(m.hardware.total() > 0.0);
        assert!(m.avg_controllability > 0.0);
        assert!(m.avg_observability > 0.0);
    }
}
