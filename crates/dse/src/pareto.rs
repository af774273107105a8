//! Incremental dominance-checked Pareto archive over sweep results.
//!
//! The exploration optimizes five objectives at once: execution time
//! `E` and hardware cost `H` (minimized) and the three testability
//! measures — average controllability, average observability (both
//! maximized) and total C→O depth (minimized). A point survives the
//! archive exactly when no other point is at least as good in every
//! objective and strictly better in one.
//!
//! Determinism: the archive's *set* is the global non-dominated set of
//! whatever was inserted, independent of insertion order (a dominated
//! point can never re-enter: dominance is transitive, so the archive
//! always retains a dominator for anything it evicts or rejects). The
//! runner nevertheless inserts in point-ID order so the stored *order*
//! — and therefore every rendering of the front — is bit-identical
//! regardless of worker count or completion order.

use hlts_core::TestabilityCacheStats;

use crate::spec::PointParams;

/// Measured test objectives of one design, present when the sweep ran
/// with coverage grading (`--atpg`): the `hlts-tcov` report folded to
/// the two axes the paper's tables trade off.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TestObjectives {
    /// Measured fault coverage in percent (maximize).
    pub coverage: f64,
    /// Clock cycles of the kept test set (minimize).
    pub test_cycles: usize,
}

/// The objective vector of one synthesized design.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Objectives {
    /// Execution time `E` in control steps (minimize).
    pub execution_time: usize,
    /// Floorplanned hardware cost `H` (minimize).
    pub hardware: f64,
    /// Mean scalarized controllability (maximize).
    pub avg_controllability: f64,
    /// Mean scalarized observability (maximize).
    pub avg_observability: f64,
    /// Total controllable→observable depth (minimize).
    pub co_depth: f64,
    /// Measured coverage objectives — `Some` exactly when the sweep
    /// graded its points ([`SweepSpec::tcov`](crate::SweepSpec::tcov)).
    pub test: Option<TestObjectives>,
}

impl Objectives {
    /// Pareto dominance: no worse in every objective, strictly better
    /// in at least one.
    ///
    /// Float objectives compare with [`f64::total_cmp`]: a NaN smuggled
    /// in (a hand-edited journal, a future metric bug) lands at a
    /// deterministic extreme of each axis instead of making dominance
    /// non-transitive — the property the archive's order-independence
    /// argument rests on.
    ///
    /// The measured test axes join the comparison only when **both**
    /// points carry them; a graded and an ungraded point are mutually
    /// non-dominating (a sweep is uniformly graded or not, so the mixed
    /// case only arises when hand-merging archives — and then neither
    /// point may silently evict the other).
    #[must_use]
    pub fn dominates(&self, other: &Objectives) -> bool {
        use std::cmp::Ordering::{Greater, Less};
        let (test_no_worse, test_better) = match (self.test, other.test) {
            (Some(a), Some(b)) => (
                a.coverage.total_cmp(&b.coverage) != Less && a.test_cycles <= b.test_cycles,
                a.coverage.total_cmp(&b.coverage) == Greater || a.test_cycles < b.test_cycles,
            ),
            (None, None) => (true, false),
            _ => return false,
        };
        let no_worse = self.execution_time <= other.execution_time
            && self.hardware.total_cmp(&other.hardware) != Greater
            && self
                .avg_controllability
                .total_cmp(&other.avg_controllability)
                != Less
            && self.avg_observability.total_cmp(&other.avg_observability) != Less
            && self.co_depth.total_cmp(&other.co_depth) != Greater;
        let better = self.execution_time < other.execution_time
            || self.hardware.total_cmp(&other.hardware) == Less
            || self
                .avg_controllability
                .total_cmp(&other.avg_controllability)
                == Greater
            || self.avg_observability.total_cmp(&other.avg_observability) == Greater
            || self.co_depth.total_cmp(&other.co_depth) == Less;
        no_worse && test_no_worse && (better || test_better)
    }
}

/// The outcome of one completed sweep point.
///
/// `millis` (wall time of the synthesis) and `resumed` (loaded from a
/// journal rather than computed) are diagnostics and excluded from
/// equality, mirroring how `SynthesisResult` excludes its cache
/// counters: results compare by what was synthesized.
#[derive(Debug, Clone)]
pub struct PointResult {
    /// The point's stable ID in its sweep.
    pub id: usize,
    /// The parameters the point ran with.
    pub params: PointParams,
    /// The design's objective vector.
    pub objectives: Objectives,
    /// Live functional modules.
    pub modules: usize,
    /// Live registers.
    pub registers: usize,
    /// 2-to-1 mux equivalents.
    pub muxes: usize,
    /// Wall-clock milliseconds this point's synthesis took (0 when
    /// resumed from a journal). Diagnostics only.
    pub millis: u64,
    /// Whether the result was replayed from a checkpoint journal
    /// instead of recomputed. Diagnostics only.
    pub resumed: bool,
    /// Warm-start accounting, `Some((replayed, recomputed))` exactly
    /// when the sweep ran with `--warm-start on`: how many committed
    /// merges came from replaying a neighbour's trace vs the scratch
    /// loop. Diagnostics only — replay changes work, never results, so
    /// the pair is excluded from equality like `millis`/`resumed`.
    pub replay: Option<(usize, usize)>,
    /// The testability analyses the point's synthesis computed (zero
    /// when resumed). Diagnostics only, excluded from equality.
    pub testability: TestabilityCacheStats,
}

impl PartialEq for PointResult {
    fn eq(&self, other: &Self) -> bool {
        self.id == other.id
            && self.params == other.params
            && self.objectives == other.objectives
            && self.modules == other.modules
            && self.registers == other.registers
            && self.muxes == other.muxes
    }
}

/// An incremental Pareto archive of [`PointResult`]s.
#[derive(Debug, Clone, Default)]
pub struct ParetoArchive {
    entries: Vec<PointResult>,
}

impl ParetoArchive {
    /// An empty archive.
    #[must_use]
    pub fn new() -> Self {
        ParetoArchive::default()
    }

    /// Offer a result to the archive. Returns `true` when it enters
    /// (evicting everything it dominates), `false` when an existing
    /// entry dominates it. Mutually non-dominated duplicates coexist.
    pub fn insert(&mut self, result: PointResult) -> bool {
        if self
            .entries
            .iter()
            .any(|e| e.objectives.dominates(&result.objectives))
        {
            return false;
        }
        self.entries
            .retain(|e| !result.objectives.dominates(&e.objectives));
        self.entries.push(result);
        true
    }

    /// The current front, in insertion order.
    #[must_use]
    pub fn entries(&self) -> &[PointResult] {
        &self.entries
    }

    /// Number of entries on the front.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the front is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Consume the archive, yielding the front in insertion order.
    #[must_use]
    pub fn into_entries(self) -> Vec<PointResult> {
        self.entries
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::Flow;

    fn result(id: usize, e: usize, h: f64, c: f64, o: f64, d: f64) -> PointResult {
        PointResult {
            id,
            params: PointParams {
                bench: "t".into(),
                flow: Flow::Ours,
                k: 1,
                alpha: 1.0,
                beta: 1.0,
                bits: 8,
            },
            objectives: Objectives {
                execution_time: e,
                hardware: h,
                avg_controllability: c,
                avg_observability: o,
                co_depth: d,
                test: None,
            },
            modules: 1,
            registers: 1,
            muxes: 0,
            millis: 0,
            resumed: false,
            replay: None,
            testability: TestabilityCacheStats::default(),
        }
    }

    #[test]
    fn dominance_requires_strict_improvement() {
        let a = result(0, 4, 1.0, 0.9, 0.9, 2.0);
        let b = result(1, 4, 1.0, 0.9, 0.9, 2.0);
        assert!(!a.objectives.dominates(&b.objectives), "equal points tie");
        let better = result(2, 3, 1.0, 0.9, 0.9, 2.0);
        assert!(better.objectives.dominates(&a.objectives));
        assert!(!a.objectives.dominates(&better.objectives));
    }

    #[test]
    fn maximized_objectives_point_the_right_way() {
        let testable = result(0, 4, 1.0, 0.95, 0.95, 2.0);
        let opaque = result(1, 4, 1.0, 0.5, 0.5, 2.0);
        assert!(testable.objectives.dominates(&opaque.objectives));
    }

    #[test]
    fn archive_set_is_insertion_order_independent() {
        let pts = [
            result(0, 4, 2.0, 0.9, 0.9, 3.0),
            result(1, 3, 3.0, 0.8, 0.9, 3.0), // trades E for H/avgC
            result(2, 4, 2.0, 0.9, 0.9, 4.0), // dominated by 0
            result(3, 5, 1.0, 0.9, 0.9, 3.0), // trades H for E
            result(4, 3, 3.0, 0.9, 0.9, 3.0), // dominates 1
        ];
        let front_of = |order: &[usize]| {
            let mut a = ParetoArchive::new();
            for &i in order {
                a.insert(pts[i].clone());
            }
            let mut ids: Vec<usize> = a.entries().iter().map(|e| e.id).collect();
            ids.sort_unstable();
            ids
        };
        let forward = front_of(&[0, 1, 2, 3, 4]);
        assert_eq!(forward, vec![0, 3, 4]);
        assert_eq!(forward, front_of(&[4, 3, 2, 1, 0]));
        assert_eq!(forward, front_of(&[2, 0, 4, 1, 3]));
    }

    #[test]
    fn test_axes_join_dominance_only_when_both_graded() {
        let mut covered = result(0, 4, 1.0, 0.9, 0.9, 2.0);
        covered.objectives.test = Some(TestObjectives {
            coverage: 98.5,
            test_cycles: 120,
        });
        let mut weak = covered.clone();
        weak.id = 1;
        weak.objectives.test = Some(TestObjectives {
            coverage: 91.0,
            test_cycles: 200,
        });
        assert!(covered.objectives.dominates(&weak.objectives));
        assert!(!weak.objectives.dominates(&covered.objectives));
        // Better coverage but more test cycles: a genuine trade-off.
        let mut long = covered.clone();
        long.id = 2;
        long.objectives.test = Some(TestObjectives {
            coverage: 99.9,
            test_cycles: 400,
        });
        assert!(!covered.objectives.dominates(&long.objectives));
        assert!(!long.objectives.dominates(&covered.objectives));
        // Graded vs ungraded: mutually non-dominating, even when one
        // strictly beats the other on every shared axis.
        let plain = result(3, 9, 9.0, 0.1, 0.1, 9.0);
        assert!(!covered.objectives.dominates(&plain.objectives));
        assert!(!plain.objectives.dominates(&covered.objectives));
    }

    #[test]
    fn ties_coexist() {
        let mut a = ParetoArchive::new();
        assert!(a.insert(result(0, 4, 1.0, 0.9, 0.9, 2.0)));
        assert!(a.insert(result(1, 4, 1.0, 0.9, 0.9, 2.0)));
        assert_eq!(a.len(), 2);
    }
}
