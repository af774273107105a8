//! The control half of the ETPN representation: a timed Petri net with
//! restricted firing rules.
//!
//! Places correspond to control states (one per control step plus a final
//! state); a place holding a token enables the data-path transfers guarded
//! by it. Transitions advance tokens between control states and may be
//! guarded by condition signals computed in the data path (loop exits,
//! branches).
//!
//! The minimum execution time `E` of a design "is equal to the length of
//! the critical path ... The method to detect the critical path is based
//! on the reachability tree of the Petri net model" (paper §4.2). This
//! module builds that reachability tree ([`Reachability`]) and extracts
//! the critical path from it ([`ControlNet::critical_path`]).

use std::collections::{BTreeSet, HashMap};
use std::fmt;

use hlts_dfg::ValueId;

/// Index of a place in a [`ControlNet`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PlaceId(pub(crate) u32);

impl PlaceId {
    /// Dense index.
    #[must_use]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Construct from a dense index.
    #[must_use]
    pub fn from_index(index: usize) -> Self {
        PlaceId(u32::try_from(index).expect("place index fits in u32"))
    }
}

impl fmt::Display for PlaceId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "p{}", self.0)
    }
}

/// Index of a transition in a [`ControlNet`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TransitionId(pub(crate) u32);

impl TransitionId {
    /// Dense index.
    #[must_use]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Construct from a dense index.
    #[must_use]
    pub fn from_index(index: usize) -> Self {
        TransitionId(u32::try_from(index).expect("transition index fits in u32"))
    }
}

impl fmt::Display for TransitionId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t{}", self.0)
    }
}

/// Exporter view of one transition: `(id, input places, output places,
/// optional condition guard)`.
pub type TransitionView = (
    TransitionId,
    Vec<PlaceId>,
    Vec<PlaceId>,
    Option<(ValueId, bool)>,
);

#[derive(Debug, Clone)]
struct Place {
    label: String,
}

#[derive(Debug, Clone)]
struct Transition {
    inputs: Vec<PlaceId>,
    outputs: Vec<PlaceId>,
    /// `Some((cond, polarity))`: fires only when the data-path condition
    /// signal has the given polarity. Reachability explores both branches.
    guard: Option<(ValueId, bool)>,
}

/// The control Petri net.
#[derive(Debug, Clone, Default)]
pub struct ControlNet {
    places: Vec<Place>,
    transitions: Vec<Transition>,
    initial: BTreeSet<PlaceId>,
    final_places: BTreeSet<PlaceId>,
}

impl ControlNet {
    /// An empty net.
    #[must_use]
    pub fn new() -> Self {
        ControlNet::default()
    }

    /// Add a place.
    pub fn add_place(&mut self, label: impl Into<String>) -> PlaceId {
        let id = PlaceId::from_index(self.places.len());
        self.places.push(Place {
            label: label.into(),
        });
        id
    }

    /// Add a transition moving tokens from `inputs` to `outputs`,
    /// optionally guarded by a data-path condition signal.
    pub fn add_transition(
        &mut self,
        inputs: impl IntoIterator<Item = PlaceId>,
        outputs: impl IntoIterator<Item = PlaceId>,
        guard: Option<(ValueId, bool)>,
    ) -> TransitionId {
        let id = TransitionId::from_index(self.transitions.len());
        self.transitions.push(Transition {
            inputs: inputs.into_iter().collect(),
            outputs: outputs.into_iter().collect(),
            guard,
        });
        id
    }

    /// Mark a place as initially holding a token.
    pub fn mark_initial(&mut self, p: PlaceId) {
        self.initial.insert(p);
    }

    /// Mark a place as a final (design-complete) state.
    pub fn mark_final(&mut self, p: PlaceId) {
        self.final_places.insert(p);
    }

    /// Number of places.
    #[must_use]
    pub fn num_places(&self) -> usize {
        self.places.len()
    }

    /// Number of transitions.
    #[must_use]
    pub fn num_transitions(&self) -> usize {
        self.transitions.len()
    }

    /// Label of a place.
    ///
    /// # Panics
    ///
    /// Panics if `p` is out of range.
    #[must_use]
    pub fn place_label(&self, p: PlaceId) -> &str {
        &self.places[p.index()].label
    }

    /// The initial marking.
    #[must_use]
    pub fn initial_marking(&self) -> &BTreeSet<PlaceId> {
        &self.initial
    }

    /// The final places.
    #[must_use]
    pub fn final_places(&self) -> &BTreeSet<PlaceId> {
        &self.final_places
    }

    /// All place ids in creation order.
    #[must_use]
    pub fn place_ids(&self) -> Vec<PlaceId> {
        (0..self.places.len()).map(PlaceId::from_index).collect()
    }

    /// A read-only view of every transition: id, input places, output
    /// places and the optional condition guard. Used by exporters.
    #[must_use]
    pub fn transitions_view(&self) -> Vec<TransitionView> {
        self.transitions
            .iter()
            .enumerate()
            .map(|(i, t)| {
                (
                    TransitionId::from_index(i),
                    t.inputs.clone(),
                    t.outputs.clone(),
                    t.guard,
                )
            })
            .collect()
    }

    /// Whether a transition is enabled under `marking` (all input places
    /// marked). Guards are ignored here: reachability explores both
    /// polarities.
    fn enabled(&self, t: &Transition, marking: &BTreeSet<PlaceId>) -> bool {
        t.inputs.iter().all(|p| marking.contains(p))
    }

    fn fire(&self, t: &Transition, marking: &BTreeSet<PlaceId>) -> BTreeSet<PlaceId> {
        let mut m = marking.clone();
        for p in &t.inputs {
            m.remove(p);
        }
        for p in &t.outputs {
            m.insert(*p);
        }
        m
    }

    /// Build the reachability tree (as a reachability *graph*: revisited
    /// markings are shared) from the initial marking.
    ///
    /// Exploration fires every enabled transition from every marking,
    /// treating condition guards as free (both branches explored) — the
    /// restricted firing rule of ETPN makes control tokens advance
    /// deterministically within a branch, so the graph stays small.
    #[must_use]
    pub fn reachability(&self) -> Reachability {
        let mut markings: Vec<BTreeSet<PlaceId>> = Vec::new();
        let mut index: HashMap<BTreeSet<PlaceId>, usize> = HashMap::new();
        let mut edges: Vec<Vec<(TransitionId, usize)>> = Vec::new();
        let m0 = self.initial.clone();
        index.insert(m0.clone(), 0);
        markings.push(m0);
        edges.push(Vec::new());
        let mut head = 0;
        while head < markings.len() {
            let m = markings[head].clone();
            for (ti, t) in self.transitions.iter().enumerate() {
                if !self.enabled(t, &m) {
                    continue;
                }
                let m2 = self.fire(t, &m);
                let next = match index.get(&m2) {
                    Some(&i) => i,
                    None => {
                        let i = markings.len();
                        index.insert(m2.clone(), i);
                        markings.push(m2);
                        edges.push(Vec::new());
                        i
                    }
                };
                edges[head].push((TransitionId::from_index(ti), next));
            }
            head += 1;
            // Bound: safe nets over our control skeletons stay tiny; guard
            // against pathological inputs.
            if markings.len() > 100_000 {
                break;
            }
        }
        let final_markings: Vec<usize> = markings
            .iter()
            .enumerate()
            .filter(|(_, m)| m.iter().any(|p| self.final_places.contains(p)))
            .map(|(i, _)| i)
            .collect();
        Reachability {
            markings,
            edges,
            final_markings,
        }
    }

    /// The critical path: the largest number of transition firings (=
    /// control steps elapsed) on any *acyclic* token path from the
    /// initial marking to a final marking. Loop bodies therefore count
    /// once — the per-iteration execution time, which is what the ΔE
    /// estimate compares.
    ///
    /// This is the **from-scratch reference**: it always builds the full
    /// reachability tree. The synthesis inner loop goes through
    /// [`CriticalPathEngine`], which memoizes results by
    /// [`structural_hash`] and takes the single-token
    /// [`chain_critical_path`] shortcut when it applies; both are
    /// property-tested against this method.
    ///
    /// Returns 0 when no final marking is reachable.
    ///
    /// [`CriticalPathEngine`]: crate::CriticalPathEngine
    /// [`structural_hash`]: ControlNet::structural_hash
    /// [`chain_critical_path`]: ControlNet::chain_critical_path
    #[must_use]
    pub fn critical_path(&self) -> usize {
        let r = self.reachability();
        r.longest_path()
    }

    /// A 64-bit structural fingerprint of the net: transitions (input,
    /// output and guard structure), the initial marking and the final
    /// places. Place labels are excluded — they cannot affect token
    /// flow, so two nets differing only in labels share their critical
    /// path. Used as the memo key by [`CriticalPathEngine`].
    ///
    /// [`CriticalPathEngine`]: crate::CriticalPathEngine
    #[must_use]
    pub fn structural_hash(&self) -> u64 {
        // FNV-1a over a canonical byte walk of the structure.
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut mix = |x: u64| {
            for b in x.to_le_bytes() {
                h ^= u64::from(b);
                h = h.wrapping_mul(0x100_0000_01b3);
            }
        };
        mix(self.places.len() as u64);
        mix(self.transitions.len() as u64);
        for t in &self.transitions {
            mix(t.inputs.len() as u64);
            for p in &t.inputs {
                mix(u64::from(p.0));
            }
            mix(t.outputs.len() as u64);
            for p in &t.outputs {
                mix(u64::from(p.0));
            }
            match t.guard {
                None => mix(u64::MAX),
                Some((v, pol)) => {
                    mix(v.index() as u64);
                    mix(u64::from(pol));
                }
            }
        }
        mix(self.initial.len() as u64);
        for p in &self.initial {
            mix(u64::from(p.0));
        }
        mix(self.final_places.len() as u64);
        for p in &self.final_places {
            mix(u64::from(p.0));
        }
        h
    }

    /// Single-token fast path: when exactly one place is initially
    /// marked and every transition moves one token from one place to one
    /// place, every reachable marking is a singleton, so the
    /// reachability graph is isomorphic to the place graph — the
    /// critical path is the longest acyclic place walk from the initial
    /// place to a final place, computable in O(places + transitions)
    /// without materializing any marking sets.
    ///
    /// This covers every net the schedule lowering emits (linear step
    /// chains, conditional branches and guarded loop-backs are all
    /// 1-in/1-out). Fork/join nets (a transition with several inputs or
    /// outputs) return `None` and must use full reachability.
    #[must_use]
    pub fn chain_critical_path(&self) -> Option<usize> {
        if self.initial.len() != 1 {
            return None;
        }
        if self
            .transitions
            .iter()
            .any(|t| t.inputs.len() != 1 || t.outputs.len() != 1)
        {
            return None;
        }
        let n = self.places.len();
        let mut succ: Vec<Vec<usize>> = vec![Vec::new(); n];
        for t in &self.transitions {
            succ[t.inputs[0].index()].push(t.outputs[0].index());
        }
        let is_final: Vec<bool> = (0..n)
            .map(|i| self.final_places.contains(&PlaceId::from_index(i)))
            .collect();
        let start = self
            .initial
            .iter()
            .next()
            .expect("checked nonempty")
            .index();
        let mut memo: Vec<Option<usize>> = vec![None; n];
        let mut on_stack = vec![false; n];
        Some(chain_dfs(start, &succ, &is_final, &mut memo, &mut on_stack).unwrap_or(0))
    }
}

/// Longest acyclic walk to a final place over the single-token place
/// graph; cycle-closing edges are skipped exactly as in
/// [`Reachability::longest_path`].
fn chain_dfs(
    node: usize,
    succ: &[Vec<usize>],
    is_final: &[bool],
    memo: &mut Vec<Option<usize>>,
    on_stack: &mut Vec<bool>,
) -> Option<usize> {
    if let Some(v) = memo[node] {
        return Some(v);
    }
    on_stack[node] = true;
    let mut best: Option<usize> = if is_final[node] { Some(0) } else { None };
    for &next in &succ[node] {
        if on_stack[next] {
            continue;
        }
        if let Some(d) = chain_dfs(next, succ, is_final, memo, on_stack) {
            best = Some(best.map_or(d + 1, |b| b.max(d + 1)));
        }
    }
    on_stack[node] = false;
    if let Some(b) = best {
        memo[node] = Some(b);
    }
    best
}

/// The reachability graph of a [`ControlNet`]: every marking reachable
/// from the initial marking, with firing edges.
#[derive(Debug, Clone)]
pub struct Reachability {
    markings: Vec<BTreeSet<PlaceId>>,
    edges: Vec<Vec<(TransitionId, usize)>>,
    final_markings: Vec<usize>,
}

impl Reachability {
    /// Number of distinct reachable markings.
    #[must_use]
    pub fn num_markings(&self) -> usize {
        self.markings.len()
    }

    /// Whether a final marking is reachable.
    #[must_use]
    pub fn reaches_final(&self) -> bool {
        !self.final_markings.is_empty()
    }

    /// The marking sets, index 0 = initial.
    #[must_use]
    pub fn markings(&self) -> &[BTreeSet<PlaceId>] {
        &self.markings
    }

    /// Longest acyclic firing path from the initial marking to any final
    /// marking (0 if unreachable).
    #[must_use]
    pub(crate) fn longest_path(&self) -> usize {
        if self.final_markings.is_empty() {
            return 0;
        }
        let is_final: Vec<bool> = {
            let mut v = vec![false; self.markings.len()];
            for &i in &self.final_markings {
                v[i] = true;
            }
            v
        };
        // DFS with an explicit stack computing the longest path that does
        // not revisit a marking on the current path (cycles skipped once).
        // Memoization is sound here because our control skeletons are
        // chains with optional loop-back edges: every cycle returns to a
        // marking whose longest path was computed from the same context.
        let mut memo: Vec<Option<usize>> = vec![None; self.markings.len()];
        let mut on_stack = vec![false; self.markings.len()];
        self.dfs(0, &is_final, &mut memo, &mut on_stack)
            .unwrap_or(0)
    }

    fn dfs(
        &self,
        node: usize,
        is_final: &[bool],
        memo: &mut Vec<Option<usize>>,
        on_stack: &mut Vec<bool>,
    ) -> Option<usize> {
        if let Some(v) = memo[node] {
            return Some(v);
        }
        on_stack[node] = true;
        let mut best: Option<usize> = if is_final[node] { Some(0) } else { None };
        for &(_, next) in &self.edges[node] {
            if on_stack[next] {
                continue; // skip cycle-closing edge
            }
            if let Some(d) = self.dfs(next, is_final, memo, on_stack) {
                best = Some(best.map_or(d + 1, |b| b.max(d + 1)));
            }
        }
        on_stack[node] = false;
        if let Some(b) = best {
            memo[node] = Some(b);
        }
        best
    }
}

/// Build the standard linear control skeleton for a schedule of
/// `num_steps` control steps: one place per step, a final place, and a
/// chain of transitions. Returns the net and the per-step places.
///
/// # Example
///
/// ```
/// let (net, steps) = hlts_etpn::ControlNet::linear(3);
/// assert_eq!(steps.len(), 3);
/// assert_eq!(net.critical_path(), 3);
/// ```
impl ControlNet {
    /// See the type-level example; `num_steps = 0` yields a net whose
    /// initial place is final (critical path 0).
    #[must_use]
    pub fn linear(num_steps: usize) -> (Self, Vec<PlaceId>) {
        let mut net = ControlNet::new();
        let mut steps = Vec::with_capacity(num_steps);
        for s in 0..num_steps {
            steps.push(net.add_place(format!("S{s}")));
        }
        let done = net.add_place("final");
        net.mark_final(done);
        if num_steps == 0 {
            net.mark_initial(done);
            return (net, steps);
        }
        net.mark_initial(steps[0]);
        for s in 0..num_steps {
            let next = if s + 1 < num_steps {
                steps[s + 1]
            } else {
                done
            };
            net.add_transition([steps[s]], [next], None);
        }
        (net, steps)
    }

    /// Add a loop-back from the last step place to the first, guarded by
    /// `cond` being true, and re-guard the exit transition with `cond`
    /// false — the control skeleton of a `while`-style behavior (e.g. the
    /// Diffeq benchmark's integration loop).
    ///
    /// # Panics
    ///
    /// Panics if `steps` is empty.
    pub fn add_loop_back(&mut self, steps: &[PlaceId], cond: ValueId) {
        let last = *steps.last().expect("loop over at least one step");
        let first = steps[0];
        self.add_transition([last], [first], Some((cond, true)));
        // Re-guard the existing exit transition(s) out of `last`.
        for t in &mut self.transitions {
            if t.inputs == vec![last] && t.guard.is_none() {
                t.guard = Some((cond, false));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn linear_critical_path_equals_steps() {
        for n in 0..6 {
            let (net, _) = ControlNet::linear(n);
            assert_eq!(net.critical_path(), n, "n={n}");
        }
    }

    #[test]
    fn reachability_of_linear_chain() {
        let (net, _) = ControlNet::linear(4);
        let r = net.reachability();
        // 4 step markings + final marking
        assert_eq!(r.num_markings(), 5);
        assert!(r.reaches_final());
    }

    #[test]
    fn loop_back_counts_one_iteration() {
        let (mut net, steps) = ControlNet::linear(4);
        net.add_loop_back(&steps, ValueId::from_index(0));
        // Cycle skipped: critical path is still one iteration = 4 steps.
        assert_eq!(net.critical_path(), 4);
        let r = net.reachability();
        assert!(r.reaches_final());
        assert_eq!(r.num_markings(), 5);
    }

    #[test]
    fn branch_takes_longer_arm() {
        // fork: p0 -> (p1 -> p2 -> final) or (p3 -> final)
        let mut net = ControlNet::new();
        let p0 = net.add_place("p0");
        let p1 = net.add_place("p1");
        let p2 = net.add_place("p2");
        let p3 = net.add_place("p3");
        let pf = net.add_place("final");
        net.mark_initial(p0);
        net.mark_final(pf);
        let c = ValueId::from_index(0);
        net.add_transition([p0], [p1], Some((c, true)));
        net.add_transition([p0], [p3], Some((c, false)));
        net.add_transition([p1], [p2], None);
        net.add_transition([p2], [pf], None);
        net.add_transition([p3], [pf], None);
        assert_eq!(net.critical_path(), 3);
    }

    #[test]
    fn parallel_tokens_join() {
        // p0 forks to {p1, p2}; both must arrive to fire the join.
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
        // longest: fork(1) + p2->p3(1) + join(1) = 3
        assert_eq!(net.critical_path(), 3);
        assert!(net.reachability().reaches_final());
    }

    #[test]
    fn unreachable_final_gives_zero() {
        let mut net = ControlNet::new();
        let p0 = net.add_place("p0");
        let pf = net.add_place("final");
        net.mark_initial(p0);
        net.mark_final(pf);
        // no transitions
        assert_eq!(net.critical_path(), 0);
        assert!(!net.reachability().reaches_final());
    }

    #[test]
    fn place_labels() {
        let (net, steps) = ControlNet::linear(2);
        assert_eq!(net.place_label(steps[0]), "S0");
        assert_eq!(net.place_label(steps[1]), "S1");
        assert_eq!(net.num_places(), 3);
        assert_eq!(net.num_transitions(), 2);
    }
}
