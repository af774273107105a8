//! Cached (E, H) evaluation of tentative design states — the ΔC inner
//! loop's fast path.
//!
//! Every candidate evaluation in Algorithm 1 needs the execution time
//! `E` (critical path of the control Petri net) and hardware cost `H`
//! (floorplanned area) of a tentatively merged design. Neither needs
//! the full ETPN. `E` is the schedule's length
//! ([`Etpn::execution_time_of`] says why), so nothing is built for it.
//! `H` floorplans the structural data path
//! ([`Etpn::data_path_of`]: nodes and `(from, to, port)` arcs, no
//! guards), which reads only the graph's data edges (fixed for the
//! whole run — merges add precedence arcs, which only constrain
//! *scheduling*) and the binding partition — plus the bit width, which
//! scales `H`. Both are pure functions of the **(schedule, binding)**
//! pair, so [`DeltaEvaluator`] memoizes (E, H) keyed by
//! [`Schedule::content_hash`](hlts_sched::Schedule::content_hash) ⊕
//! [`Allocation::content_hash`](hlts_alloc::Allocation::content_hash)
//! ⊕ bit width, so one evaluator can serve every width of a sweep.
//!
//! No invalidation is ever needed: committing a merge changes the
//! state's fingerprint, so stale entries are simply never looked up
//! again, and entries stay valid because the data-flow content they
//! were computed from is immutable within a run.
//!
//! The evaluator is `Sync`: a design-space sweep runs its points on
//! several workers that share one evaluator per behavior.
//!
//! Testability has no such cache: candidate pricing needs no analysis
//! (SR2 probes compare `E` alone), so Algorithm 1 runs one CC/SC/CO/SO
//! fixpoint per iteration, on the current structural data path.

use std::cell::RefCell;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, PoisonError};

use hlts_cost::{estimate_cost, ModuleLibrary};
use hlts_etpn::{DataPath, Etpn};

use crate::{CoreError, DesignState};

/// Counters describing how the (E, H) cache resolved its queries.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct EvalStats {
    /// (E, H) pairs answered from the state-level cache.
    pub state_hits: u64,
    /// States that had to be lowered and measured.
    pub state_misses: u64,
    /// Always 0: there is no critical-path cache. The field stays only
    /// while the benchmark under `perf/` names it.
    pub critical_path: CriticalPathStats,
}

/// The counters of a critical-path cache that no longer exists: `E` is
/// read off the schedule ([`Etpn::execution_time_of`]), so both always
/// read 0. The struct stays only while the benchmark under `perf/`
/// names it.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CriticalPathStats {
    /// Always 0.
    pub hits: u64,
    /// Always 0.
    pub misses: u64,
}

/// Memoizing, thread-safe evaluator of a design state's (E, H).
///
/// One evaluator may serve many runs over the same behaviour — a
/// sweep shares one across all of a behaviour's points — as long as
/// the underlying data-flow graph and module library stay fixed. The
/// bit width is part of the cache key, so points of different widths
/// never share an (E, H) entry.
#[derive(Debug, Default)]
pub struct DeltaEvaluator {
    cache: Mutex<HashMap<u64, (usize, f64)>>,
    state_hits: AtomicU64,
    state_misses: AtomicU64,
}

impl DeltaEvaluator {
    /// An empty evaluator.
    #[must_use]
    pub fn new() -> Self {
        DeltaEvaluator::default()
    }

    /// The width-independent fingerprint of a state: its schedule and
    /// binding fingerprints combined. The graph's data content is
    /// deliberately excluded — it is fixed for the lifetime of the
    /// evaluator (see module docs). Warm-start traces record it as
    /// their replay guard; the (E, H) cache key additionally folds in
    /// the bit width.
    #[must_use]
    pub fn fingerprint(state: &DesignState) -> u64 {
        mix(
            state.schedule.content_hash(),
            state.allocation.content_hash(),
        )
    }

    /// (execution time, hardware cost) of `state`, memoized.
    ///
    /// On a miss this builds the structural data path
    /// ([`DesignState::data_path_into`], which checks the state exactly
    /// as a full lowering does) into a per-thread buffer that keeps its
    /// capacity from miss to miss, and floorplans it for `H`; `E` is
    /// the schedule's length. No full ETPN is built. On a hit it is two
    /// hash lookups.
    ///
    /// # Errors
    ///
    /// Propagates lowering failures (inconsistent state). A poisoned
    /// cache mutex (a panic in another evaluation thread) is recovered
    /// rather than cascaded: every entry is an insert-only memo of a
    /// pure function, so the map is valid at any interruption point.
    pub fn eval(
        &self,
        state: &DesignState,
        bits: u32,
        library: &ModuleLibrary,
    ) -> Result<(usize, f64), CoreError> {
        let key = mix(Self::fingerprint(state), u64::from(bits));
        if let Some(&hit) = self
            .cache
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .get(&key)
        {
            self.state_hits.fetch_add(1, Ordering::Relaxed);
            return Ok(hit);
        }
        self.state_misses.fetch_add(1, Ordering::Relaxed);
        let h = PRICED_PATH.with(|dp| -> Result<f64, CoreError> {
            let dp = &mut *dp.borrow_mut();
            state.data_path_into(dp)?;
            Ok(estimate_cost(dp, bits, library).total())
        })?;
        let e = Etpn::execution_time_of(&state.schedule);
        self.cache
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .insert(key, (e, h));
        Ok((e, h))
    }

    /// Snapshot of the cache counters.
    #[must_use]
    pub fn stats(&self) -> EvalStats {
        EvalStats {
            state_hits: self.state_hits.load(Ordering::Relaxed),
            state_misses: self.state_misses.load(Ordering::Relaxed),
            critical_path: CriticalPathStats::default(),
        }
    }
}

thread_local! {
    /// The structural data path of the state being priced, rebuilt in
    /// place on every miss (see [`DataPath::clear`]).
    static PRICED_PATH: RefCell<DataPath> = RefCell::new(DataPath::new());
}

/// 64-bit mix of two halves (splitmix-style finalizer).
fn mix(s: u64, a: u64) -> u64 {
    let mut z = s ^ a.rotate_left(32) ^ 0x9E37_79B9_7F4A_7C15;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hlts_dfg::{DfgBuilder, OpKind};

    fn state() -> DesignState {
        let mut b = DfgBuilder::new("t");
        let a = b.input("a");
        let c = b.input("c");
        let t = b.op("N1", OpKind::Add, &[a, c], "t").unwrap();
        let y = b.op("N2", OpKind::Mul, &[t, c], "y").unwrap();
        b.mark_output(y);
        DesignState::initial(&b.finish().unwrap()).unwrap()
    }

    #[test]
    fn eval_matches_from_scratch() {
        let s = state();
        let ev = DeltaEvaluator::new();
        let lib = ModuleLibrary::new();
        let (e, h) = ev.eval(&s, 8, &lib).unwrap();
        let etpn = s.lower().unwrap();
        assert_eq!(e, etpn.execution_time());
        assert!((h - estimate_cost(etpn.data_path(), 8, &lib).total()).abs() < 1e-12);
    }

    #[test]
    fn repeat_eval_hits_cache() {
        let s = state();
        let ev = DeltaEvaluator::new();
        let lib = ModuleLibrary::new();
        let first = ev.eval(&s, 8, &lib).unwrap();
        for _ in 0..4 {
            assert_eq!(ev.eval(&s, 8, &lib).unwrap(), first);
        }
        let st = ev.stats();
        assert_eq!((st.state_hits, st.state_misses), (4, 1));
    }

    #[test]
    fn widths_do_not_share_cache_entries() {
        let s = state();
        let ev = DeltaEvaluator::new();
        let lib = ModuleLibrary::new();
        let (_, h4) = ev.eval(&s, 4, &lib).unwrap();
        let (_, h8) = ev.eval(&s, 8, &lib).unwrap();
        assert!(h8 > h4, "8-bit hardware {h8} must exceed 4-bit {h4}");
        assert_eq!(ev.eval(&s, 4, &lib).unwrap().1, h4);
        let st = ev.stats();
        assert_eq!((st.state_hits, st.state_misses), (1, 2));
    }

    #[test]
    fn fingerprint_tracks_content_not_identity() {
        let s1 = state();
        let s2 = state();
        assert_eq!(
            DeltaEvaluator::fingerprint(&s1),
            DeltaEvaluator::fingerprint(&s2)
        );
        let mut merged = state();
        let regs: Vec<_> = merged.allocation.registers().map(|r| r.id()).collect();
        merged.allocation.merge_registers(regs[0], regs[1]).unwrap();
        assert_ne!(
            DeltaEvaluator::fingerprint(&s1),
            DeltaEvaluator::fingerprint(&merged)
        );
    }
}
