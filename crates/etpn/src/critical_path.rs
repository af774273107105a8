//! The incremental critical-path engine.
//!
//! Algorithm 1 estimates ΔE for every shortlisted merge candidate,
//! every iteration, by lowering the tentative design and extracting the
//! critical path of its control Petri net from the reachability tree —
//! the step the paper itself flags as the expensive one (§4.2). Two
//! observations make this cheap:
//!
//! 1. **Repetition.** The same (schedule, binding) structures recur
//!    across iterations: rejected candidates are re-examined, and the
//!    committed trial of iteration *i* is re-lowered as the baseline of
//!    iteration *i+1*. Memoizing critical-path results keyed by
//!    [`ControlNet::structural_hash`] turns all of those into lookups.
//! 2. **Shape.** Every control net the schedule lowering emits is
//!    single-token (1-in/1-out transitions, one initial place), so its
//!    critical path is a longest place walk
//!    ([`ControlNet::chain_critical_path`]) — no marking sets, no
//!    reachability tree. Only genuinely concurrent fork/join nets fall
//!    back to [`ControlNet::critical_path`].
//!
//! The engine is shared by all candidate evaluations of a synthesis
//! run, including parallel ones: the memo sits behind a [`Mutex`] held
//! only for the lookup/insert, and the counters are atomics. Both paths
//! are property-tested equal to the from-scratch reference
//! (`crates/etpn/tests/properties.rs`, `tests/` in core).

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use crate::petri::ControlNet;

/// Counters describing how an engine resolved its queries.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Queries answered from the memo.
    pub hits: u64,
    /// Queries that had to compute a fresh result.
    pub misses: u64,
    /// Misses resolved by the single-token chain shortcut.
    pub chain_fast_path: u64,
    /// Misses resolved by full reachability-tree construction.
    pub full_reachability: u64,
}

impl CacheStats {
    /// Fraction of queries answered from the memo (0 when idle).
    #[must_use]
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// Memoizing, thread-safe critical-path evaluator for control nets.
///
/// Create one per synthesis run and route every execution-time query
/// through it; see the module docs for why this is sound and fast.
#[derive(Debug, Default)]
pub struct CriticalPathEngine {
    memo: Mutex<HashMap<u64, usize>>,
    hits: AtomicU64,
    misses: AtomicU64,
    chain_fast_path: AtomicU64,
    full_reachability: AtomicU64,
}

impl CriticalPathEngine {
    /// An empty engine.
    #[must_use]
    pub fn new() -> Self {
        CriticalPathEngine::default()
    }

    /// The critical path of `net`, memoized by structural hash.
    ///
    /// Equal to [`ControlNet::critical_path`] by construction: a miss
    /// computes via the chain shortcut when the net is single-token
    /// (which coincides with full reachability there) or via the full
    /// reachability tree otherwise, and the memo key covers the entire
    /// token-flow structure.
    ///
    /// # Panics
    ///
    /// Panics if the internal mutex was poisoned (a prior panic in
    /// another evaluation thread).
    #[must_use]
    pub fn critical_path(&self, net: &ControlNet) -> usize {
        let key = net.structural_hash();
        if let Some(&e) = self.memo.lock().expect("engine memo poisoned").get(&key) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return e;
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        let e = match net.chain_critical_path() {
            Some(e) => {
                self.chain_fast_path.fetch_add(1, Ordering::Relaxed);
                e
            }
            None => {
                self.full_reachability.fetch_add(1, Ordering::Relaxed);
                net.critical_path()
            }
        };
        self.memo
            .lock()
            .expect("engine memo poisoned")
            .insert(key, e);
        e
    }

    /// ΔE of replacing `base` with `trial` (positive = slower), with
    /// both sides memoized. This is the quantity Algorithm 1 weighs by
    /// α per candidate.
    #[must_use]
    pub fn delta_e(&self, base: &ControlNet, trial: &ControlNet) -> i64 {
        self.critical_path(trial) as i64 - self.critical_path(base) as i64
    }

    /// Snapshot of the hit/miss counters.
    #[must_use]
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            chain_fast_path: self.chain_fast_path.load(Ordering::Relaxed),
            full_reachability: self.full_reachability.load(Ordering::Relaxed),
        }
    }

    /// Number of memoized nets.
    ///
    /// # Panics
    ///
    /// Panics if the internal mutex was poisoned.
    #[must_use]
    pub fn len(&self) -> usize {
        self.memo.lock().expect("engine memo poisoned").len()
    }

    /// Whether the memo is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drop all memoized results (counters are kept).
    ///
    /// # Panics
    ///
    /// Panics if the internal mutex was poisoned.
    pub fn clear(&self) {
        self.memo.lock().expect("engine memo poisoned").clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hlts_dfg::ValueId;

    #[test]
    fn engine_matches_reference_on_linear_nets() {
        let engine = CriticalPathEngine::new();
        for n in 0..10 {
            let (net, _) = ControlNet::linear(n);
            assert_eq!(engine.critical_path(&net), net.critical_path(), "n={n}");
        }
        let s = engine.stats();
        assert_eq!(s.misses, 10);
        assert_eq!(s.chain_fast_path, 10, "linear nets use the shortcut");
    }

    #[test]
    fn repeated_queries_hit_the_memo() {
        let engine = CriticalPathEngine::new();
        let (net, _) = ControlNet::linear(6);
        assert_eq!(engine.critical_path(&net), 6);
        for _ in 0..5 {
            assert_eq!(engine.critical_path(&net), 6);
        }
        let s = engine.stats();
        assert_eq!((s.hits, s.misses), (5, 1));
        assert!(s.hit_rate() > 0.8);
        assert_eq!(engine.len(), 1);
    }

    #[test]
    fn structurally_equal_nets_share_an_entry() {
        let engine = CriticalPathEngine::new();
        let (a, _) = ControlNet::linear(4);
        let mut b = ControlNet::new();
        // Same structure, different labels.
        let ps: Vec<_> = (0..4).map(|i| b.add_place(format!("other{i}"))).collect();
        let done = b.add_place("the end");
        b.mark_final(done);
        b.mark_initial(ps[0]);
        for i in 0..4 {
            let next = if i + 1 < 4 { ps[i + 1] } else { done };
            b.add_transition([ps[i]], [next], None);
        }
        assert_eq!(a.structural_hash(), b.structural_hash());
        let _ = engine.critical_path(&a);
        let _ = engine.critical_path(&b);
        assert_eq!(engine.stats().hits, 1);
        assert_eq!(engine.len(), 1);
    }

    #[test]
    fn looped_and_branching_nets_match_reference() {
        let engine = CriticalPathEngine::new();
        let (mut net, steps) = ControlNet::linear(5);
        net.add_loop_back(&steps, ValueId::from_index(0));
        assert_eq!(engine.critical_path(&net), net.critical_path());
        assert_eq!(engine.critical_path(&net), 5);
    }

    #[test]
    fn fork_join_falls_back_to_reachability() {
        let engine = CriticalPathEngine::new();
        let mut net = ControlNet::new();
        let p0 = net.add_place("p0");
        let p1 = net.add_place("p1");
        let p2 = net.add_place("p2");
        let p3 = net.add_place("p3");
        let pf = net.add_place("final");
        net.mark_initial(p0);
        net.mark_final(pf);
        net.add_transition([p0], [p1, p2], None);
        net.add_transition([p2], [p3], None);
        net.add_transition([p1, p3], [pf], None);
        assert_eq!(net.chain_critical_path(), None);
        assert_eq!(engine.critical_path(&net), net.critical_path());
        assert_eq!(engine.stats().full_reachability, 1);
    }

    #[test]
    fn delta_e_signs() {
        let engine = CriticalPathEngine::new();
        let (short, _) = ControlNet::linear(3);
        let (long, _) = ControlNet::linear(5);
        assert_eq!(engine.delta_e(&short, &long), 2);
        assert_eq!(engine.delta_e(&long, &short), -2);
        assert_eq!(engine.delta_e(&short, &short), 0);
    }

    #[test]
    fn clear_keeps_counters() {
        let engine = CriticalPathEngine::new();
        let (net, _) = ControlNet::linear(2);
        let _ = engine.critical_path(&net);
        engine.clear();
        assert!(engine.is_empty());
        assert_eq!(engine.stats().misses, 1);
        let _ = engine.critical_path(&net);
        assert_eq!(engine.stats().misses, 2, "cleared entry recomputes");
    }
}
