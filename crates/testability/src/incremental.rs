//! Incremental re-analysis by divergence-bounded history replay.
//!
//! [`TestabilityAnalysis::reanalyze`] produces, for a data path that
//! differs from a previously analyzed one in a small region (one merge's
//! fan-in/fan-out cone), the **bit-identical** result a fresh
//! [`TestabilityAnalysis::analyze`] would — while only evaluating the
//! region whose behavior actually changed.
//!
//! The naïve approach — seed the dirty region and iterate against the
//! previous *final* values — is **not** bit-identical: the dense
//! Gauss–Seidel fixpoint is path-dependent. The module transfer function
//! is not monotone in rank (a predecessor improving from
//! `(cc 0.5, sc 0)` to `(cc 1.0, sc 5)` can *lower* a downstream
//! module's rank), so an element's accepted value depends on the order
//! in which its inputs' intermediate values became visible, and the
//! final solution locks in such transients. Replaying only against
//! final values would converge to a different (also valid, but not
//! identical) fixpoint — and the golden pins demand identity.
//!
//! So the worklist solver records, per element, the sweep-stamped
//! sequence of accepted values (its *history*), and `reanalyze` replays
//! the structural delta **through time**:
//!
//! 1. **Diff.** Nodes of the old and new data path are matched by
//!    allocation identity (kind class + allocation id, order-preserving,
//!    same transfer function); arcs through their matched endpoints.
//!    Unmatched or rewired elements and caller-supplied extras form the
//!    initial *re-evaluated set* `R`; everything else starts as
//!    *boundary* and keeps its previous history verbatim.
//! 2. **Replay with divergence bounding.** Members of `R` are scheduled
//!    exactly as a full worklist run would schedule them: sweep 1, plus
//!    one wake-up per input history event, plus one wake-up at each of
//!    their *own* previous event positions (so a change that silences an
//!    old event is noticed). Each matched member carries a cursor into
//!    its previous history. As long as its accepted events reproduce
//!    that history bit-for-bit at the same `(sweep, index)` positions,
//!    the element is *consistent*: its successors outside `R` do not
//!    need to know it was re-evaluated, because they would read exactly
//!    what the previous run read. Only when an element **diverges** —
//!    accepts a different value, accepts at a different position, or
//!    fails to accept where its old history has an event — are its
//!    boundary successors pulled into `R`: each is *activated* by
//!    keeping the prefix of its previous history that Gauss–Seidel
//!    order still makes valid (events strictly before the divergence
//!    position) and re-evaluating from there.
//!
//! Why this is identical to a full run `F = analyze(dp)`, by induction
//! over `(sweep, index)` positions: a boundary element's inputs are all
//! boundary or consistent, so its `F`-evaluations reproduce its previous
//! history; an `R` element reads, at every evaluation, either a live
//! `R` value (equal to `F`'s by induction) or a boundary history lookup
//! (equal to `F`'s stream by the same argument) — and every position
//! where `F` accepts is scheduled here, because accepted changes wake
//! successors, divergence wakes activate kept-prefix successors (plus
//! catch-up evaluations for wakes the activation itself superseded), and
//! old-event positions are woken explicitly. Extra evaluations are
//! harmless: an evaluation `F` does not perform sees inputs unchanged
//! since the last one `F` did perform, so the acceptance test fails the
//! same way. The same machinery runs backwards for the observability
//! pass over arcs, whose side inputs additionally include the (by then
//! final) controllability solution — a matched arc joins the initial
//! `R` if its sink's identity, wiring, or any sink-predecessor's final
//! controllability changed.

use hlts_etpn::{DataPath, DpArcId, DpNodeId, DpNodeKind};

use crate::analysis::{
    ctrl_candidate, ctrl_seed, forward_evaluable, obs_candidate, Controllability, Histories,
    History, Observability, TestabilityAnalysis, MAX_SWEEPS,
};
use crate::worklist::Worklist;

/// Allocation-level identity class of a data-path node: a small class
/// tag plus the allocation-side index, used to match nodes across two
/// lowerings of slightly different designs without allocating. Module
/// nodes additionally compare their operation sets at match time (a
/// merge survivor keeps its id but changes its transfer function).
const NODE_CLASSES: usize = 6;

fn class_id(kind: &DpNodeKind) -> Option<(usize, usize)> {
    Some(match kind {
        DpNodeKind::PrimaryInput(v) => (0, v.index()),
        DpNodeKind::PrimaryOutput(v) => (1, v.index()),
        DpNodeKind::Register(r) => (2, r.index()),
        DpNodeKind::Module { id, .. } => (3, id.index()),
        DpNodeKind::Const(v) => (4, v.index()),
        DpNodeKind::ConditionOut(v) => (5, v.index()),
        // Unknown future node kinds can't be matched; treat as new.
        _ => return None,
    })
}

/// Node index per `(class, id)` slot, with duplicate slots (ambiguous
/// identities) poisoned so they can never match.
struct SlotTable {
    stride: usize,
    slots: Vec<u32>,
}

const SLOT_EMPTY: u32 = u32::MAX;
const SLOT_DUP: u32 = u32::MAX - 1;

impl SlotTable {
    fn build(dp: &DataPath, stride: usize) -> SlotTable {
        let mut slots = vec![SLOT_EMPTY; NODE_CLASSES * stride];
        for (i, node) in dp.nodes().iter().enumerate() {
            if let Some((class, id)) = class_id(node.kind()) {
                let s = &mut slots[class * stride + id];
                *s = if *s == SLOT_EMPTY { i as u32 } else { SLOT_DUP };
            }
        }
        SlotTable { stride, slots }
    }

    fn get(&self, class: usize, id: usize) -> Option<usize> {
        match self.slots[class * self.stride + id] {
            SLOT_EMPTY | SLOT_DUP => None,
            i => Some(i as usize),
        }
    }
}

/// The widest `(class, id)` slot either data path needs.
fn slot_stride(dp: &DataPath) -> usize {
    dp.nodes()
        .iter()
        .filter_map(|n| class_id(n.kind()))
        .map(|(_, id)| id + 1)
        .max()
        .unwrap_or(0)
}

/// Whether two node kinds denote the *same transfer function*, not just
/// the same allocation identity (module operation sets may differ).
fn same_kind(a: &DpNodeKind, b: &DpNodeKind) -> bool {
    match (a, b) {
        (DpNodeKind::Module { kinds: ka, .. }, DpNodeKind::Module { kinds: kb, .. }) => ka == kb,
        _ => true, // same (class, id) is already exact for other classes
    }
}

/// The value of a history as seen by element `observer` being evaluated
/// during `sweep`: the last accepted update that dense Gauss–Seidel
/// order makes visible (strictly earlier sweeps, or the same sweep from
/// a smaller index).
fn hist_at<T: Copy>(h: &[(u32, T)], sweep: u32, src: usize, observer: usize) -> T {
    let mut v = h.first().expect("histories start with a seed").1;
    for &(s, val) in h {
        if s < sweep || (s == sweep && src < observer) {
            v = val;
        } else {
            break;
        }
    }
    v
}

/// Exact (bitwise) value equality — the divergence test. `PartialEq`
/// on floats would do here too, but bit comparison states the contract:
/// consistency means the previous run's value, not merely an equal one.
trait BitEq: Copy {
    fn bit_eq(self, other: Self) -> bool;
}

impl BitEq for Controllability {
    fn bit_eq(self, other: Self) -> bool {
        self.cc.to_bits() == other.cc.to_bits() && self.sc.to_bits() == other.sc.to_bits()
    }
}

impl BitEq for Observability {
    fn bit_eq(self, other: Self) -> bool {
        self.co.to_bits() == other.co.to_bits() && self.so.to_bits() == other.so.to_bits()
    }
}

/// Schedule the evaluation an event at `(event_sweep, src)` would wake
/// `dst` for, but only if that position is still ahead of the current
/// pop position `now` (earlier positions are already covered by kept
/// prefixes, and pushing behind the pop would break evaluation order).
fn push_future(wl: &mut Worklist, event_sweep: u32, src: usize, dst: usize, now: (u32, usize)) {
    let target = if dst > src {
        event_sweep
    } else {
        event_sweep + 1
    };
    if (target, dst) > now {
        wl.push(target, dst);
    }
}

/// Shared state of one divergence-bounded replay pass (forward over
/// nodes or backward over arcs).
struct Replay<'p, T: BitEq> {
    /// Previous-run histories, indexed by *previous* element index.
    prev: &'p Histories<T>,
    /// New-index → previous-index element matching.
    matched: &'p [Option<usize>],
    /// Membership in the re-evaluated set `R`.
    in_r: Vec<bool>,
    /// Whether the element's accepted stream has left its previous
    /// history (frozen once set; boundary successors were activated).
    diverged: Vec<bool>,
    /// Cursor into the previous history: the next event the element is
    /// expected to reproduce (valid for matched members of `R`).
    cursor: Vec<u32>,
    /// Accepted events of `R` members, kept prefix included.
    hist: Vec<History<T>>,
    /// Current value per element (boundary elements hold their final
    /// previous value, which equals their final new value).
    value: Vec<T>,
    last_change: u32,
    updates: u64,
}

impl<'p, T: BitEq> Replay<'p, T> {
    fn new(
        count: usize,
        prev: &'p Histories<T>,
        matched: &'p [Option<usize>],
        prev_final: &[T],
        bottom: T,
    ) -> Self {
        let value = (0..count)
            .map(|i| matched[i].map_or(bottom, |p| prev_final[p]))
            .collect();
        Replay {
            prev,
            matched,
            in_r: vec![false; count],
            diverged: vec![false; count],
            cursor: vec![0; count],
            hist: vec![Vec::new(); count],
            value,
            last_change: 0,
            updates: 0,
        }
    }

    /// Put `i` in `R` from the start, seeded fresh. Matched members
    /// still carry their expectation cursor (they may reproduce their
    /// old stream and never propagate); unmatched members have no
    /// history to be consistent with.
    fn join_initial(&mut self, i: usize, seed: T) {
        self.in_r[i] = true;
        self.hist[i].push((0, seed));
        self.value[i] = seed;
        match self.matched[i] {
            Some(_) => self.cursor[i] = 1, // seeds agree; expect the rest
            None => self.diverged[i] = true,
        }
    }

    /// Pull boundary element `x` into `R` at divergence position
    /// `(sweep, src)`: keep the prefix of its previous history that
    /// Gauss–Seidel order still makes valid, re-evaluate from there.
    fn activate(&mut self, x: usize, sweep: u32, src: usize) {
        debug_assert!(!self.in_r[x]);
        self.in_r[x] = true;
        let p = self.matched[x].expect("boundary elements are matched");
        let full = self.prev.slice(p);
        let keep = full
            .iter()
            .take_while(|&&(s, _)| s < sweep || (s == sweep && x < src))
            .count();
        self.hist[x].extend_from_slice(&full[..keep]);
        let &(ls, lv) = full[..keep].last().expect("histories start with a seed");
        self.value[x] = lv;
        self.last_change = self.last_change.max(ls);
        self.cursor[x] = keep as u32;
    }

    /// The element's not-yet-reproduced previous events — its
    /// expectations, or (at the moment of divergence) the dead suffix
    /// of its old stream, whose positions must still be checked or
    /// woken downstream.
    fn expected(&self, i: usize) -> &[(u32, T)] {
        match self.matched[i] {
            Some(p) => &self.prev.slice(p)[self.cursor[i] as usize..],
            None => &[],
        }
    }

    /// Record the outcome of evaluating `i` at `sweep` and classify it
    /// against the element's expectations. Returns `(accepted,
    /// newly_diverged)`.
    fn reconcile(&mut self, i: usize, sweep: u32, accepted: Option<T>) -> (bool, bool) {
        if let Some(v) = accepted {
            self.value[i] = v;
            self.hist[i].push((sweep, v));
            self.last_change = self.last_change.max(sweep);
            self.updates += 1;
        }
        if self.diverged[i] {
            return (accepted.is_some(), false);
        }
        let expected =
            self.matched[i].and_then(|p| self.prev.slice(p).get(self.cursor[i] as usize).copied());
        let newly = match (accepted, expected) {
            (Some(v), Some((s, old))) if s == sweep && old.bit_eq(v) => {
                self.cursor[i] += 1;
                false
            }
            // an accept the old stream doesn't have here
            (Some(_), _) => true,
            // no accept where the old stream has an event due
            (None, Some((s, _))) if s <= sweep => true,
            (None, _) => false,
        };
        if newly {
            self.diverged[i] = true;
        }
        (accepted.is_some(), newly)
    }

    /// Fold the pass into `(final values, histories, boundary-aware
    /// last-change sweep, accepted updates)`.
    fn finish(mut self) -> (Vec<T>, Histories<T>, u32, u64) {
        let mut packed = Histories::with_capacity(
            self.in_r.len(),
            self.prev.events() + self.updates as usize + 1,
        );
        for i in 0..self.in_r.len() {
            if self.in_r[i] {
                packed.push_slice(&self.hist[i]);
            } else {
                let p = self.matched[i].expect("boundary elements are matched");
                let h = self.prev.slice(p);
                packed.push_slice(h);
                if let Some(&(s, _)) = h.last() {
                    self.last_change = self.last_change.max(s);
                }
            }
        }
        (self.value, packed, self.last_change, self.updates)
    }
}

impl TestabilityAnalysis {
    /// Re-run the analysis for `dp`, a data path structurally close to
    /// `prev_dp` (for which `self` is the solution), re-evaluating only
    /// the region whose behavior diverges from the previous run.
    /// `extra_dirty` nodes of `dp` are force-included in that region;
    /// structural differences are detected automatically, so `&[]` is
    /// always sound.
    ///
    /// The result is bit-identical to `TestabilityAnalysis::analyze(dp)`
    /// — see the module docs for the argument and the property tests for
    /// the evidence. Falls back to a full analysis when `self` carries
    /// no update histories (a dense result) or does not belong to
    /// `prev_dp`.
    ///
    /// # Panics
    ///
    /// Panics if a node in `extra_dirty` is not a node of `dp`.
    #[must_use]
    pub fn reanalyze(
        &self,
        prev_dp: &DataPath,
        dp: &DataPath,
        extra_dirty: &[DpNodeId],
    ) -> TestabilityAnalysis {
        if !self.has_history()
            || self.out_ctrl.len() != prev_dp.num_nodes()
            || self.arc_obs.len() != prev_dp.num_arcs()
        {
            return TestabilityAnalysis::analyze(dp);
        }
        let n = dp.num_nodes();
        let m = dp.num_arcs();

        // Match nodes across the two paths by (class, allocation id) —
        // unique on both sides, same transfer function — keeping only
        // pairs that preserve relative order (lowering emits surviving
        // elements in a stable order, so in practice everything
        // order-matches). Order preservation makes Gauss–Seidel
        // visibility (`src < observer`) agree across old and new
        // indices, which both history lookups and prefix cuts rely on.
        let stride = slot_stride(prev_dp).max(slot_stride(dp));
        let prev_table = SlotTable::build(prev_dp, stride);
        let new_table = SlotTable::build(dp, stride);
        let mut matched_prev: Vec<Option<usize>> = vec![None; n];
        let mut last_matched = None;
        for (i, slot) in matched_prev.iter_mut().enumerate() {
            let kind = dp.node(DpNodeId::from_index(i)).kind();
            let Some((class, id)) = class_id(kind) else {
                continue;
            };
            if new_table.get(class, id) != Some(i) {
                continue; // ambiguous identity on the new side
            }
            let Some(p) = prev_table.get(class, id) else {
                continue;
            };
            if !same_kind(kind, prev_dp.node(DpNodeId::from_index(p)).kind()) {
                continue;
            }
            if last_matched.is_none_or(|l| p > l) {
                *slot = Some(p);
                last_matched = Some(p);
            }
        }

        // A node's in-arc signature is clean when every input position
        // carries the same port and a pairwise-matched source, *in
        // order* (the fixpoint's tie-breaking folds are
        // order-sensitive). Comparing through `matched_prev` instead of
        // cloned keys keeps the diff allocation-free.
        let in_sig_clean = |i: usize, p: usize| {
            let na = dp.in_arc_ids(DpNodeId::from_index(i));
            let pa = prev_dp.in_arc_ids(DpNodeId::from_index(p));
            na.len() == pa.len()
                && na.iter().zip(pa).all(|(&xa, &ya)| {
                    let (x, y) = (dp.arc(xa), prev_dp.arc(ya));
                    x.port() == y.port() && matched_prev[x.from().index()] == Some(y.from().index())
                })
        };
        let out_sig_clean = |i: usize, p: usize| {
            let na = dp.out_arc_ids(DpNodeId::from_index(i));
            let pa = prev_dp.out_arc_ids(DpNodeId::from_index(p));
            na.len() == pa.len()
                && na.iter().zip(pa).all(|(&xa, &ya)| {
                    let (x, y) = (dp.arc(xa), prev_dp.arc(ya));
                    x.port() == y.port() && matched_prev[x.to().index()] == Some(y.to().index())
                })
        };

        let mut sig_dirty = vec![false; n];
        for i in 0..n {
            sig_dirty[i] = match matched_prev[i] {
                None => true,
                Some(p) => !in_sig_clean(i, p),
            };
        }
        let mut extra = vec![false; n];
        for d in extra_dirty {
            assert!(d.index() < n, "extra_dirty node {d} is not in dp");
            extra[d.index()] = true;
        }

        // ---- Forward pass: controllability over nodes. ----
        let prev_ctrl = &self.ctrl_hist;
        let mut rc = Replay::new(
            n,
            prev_ctrl,
            &matched_prev,
            &self.out_ctrl,
            Controllability::none(),
        );
        for i in 0..n {
            if sig_dirty[i] || extra[i] {
                rc.join_initial(i, ctrl_seed(dp.node(DpNodeId::from_index(i)).kind()));
            }
        }

        // Schedule the initial `R`: sweep 1 for every evaluable member
        // (as a full run would), one wake-up per boundary-input event,
        // and one per *own* previous event so silenced events are
        // detected.
        let mut wl = Worklist::new(MAX_SWEEPS as u32);
        for i in 0..n {
            if !rc.in_r[i] || !forward_evaluable(dp.node(DpNodeId::from_index(i)).kind()) {
                continue;
            }
            wl.push(1, i);
            for &(s, _) in rc.expected(i) {
                wl.push(s, i);
            }
            for &aid in dp.in_arc_ids(DpNodeId::from_index(i)) {
                let j = dp.arc(aid).from().index();
                if !rc.in_r[j] {
                    let p = matched_prev[j].expect("boundary nodes are matched");
                    for &(s, _) in prev_ctrl.slice(p) {
                        if s >= 1 {
                            wl.push_after(s, j, i);
                        }
                    }
                }
            }
        }
        while let Some((sweep, i)) = wl.pop() {
            let id = DpNodeId::from_index(i);
            let cand = ctrl_candidate(dp, id, &|pn: DpNodeId| {
                let j = pn.index();
                if rc.in_r[j] {
                    rc.value[j]
                } else {
                    let p = matched_prev[j].expect("boundary nodes are matched");
                    hist_at(prev_ctrl.slice(p), sweep, j, i)
                }
            });
            let Some(cand) = cand else { continue };
            let accepted = cand.better_than(rc.value[i]).then_some(cand);
            let (acc, newly) = rc.reconcile(i, sweep, accepted);
            if !acc && !newly {
                continue;
            }
            // On divergence, the element's remaining old events are
            // dead: successors must be re-checked at every position
            // those events would have driven.
            let dead: Vec<u32> = if newly {
                rc.expected(i).iter().map(|&(s, _)| s).collect()
            } else {
                Vec::new()
            };
            for &out in dp.out_arc_ids(id) {
                let s_node = dp.arc(out).to();
                let x = s_node.index();
                if !forward_evaluable(dp.node(s_node).kind()) {
                    continue;
                }
                if rc.in_r[x] {
                    wl.push_after(sweep, i, x);
                } else if rc.diverged[i] {
                    // `newly`, or an accept by an element that started
                    // diverged (unmatched members never had a chance to
                    // activate their dependents before their first
                    // accepted value became visible).
                    rc.activate(x, sweep, i);
                    // Catch-up evaluations: wakes from accepts popped
                    // before this activation were dropped while `x` was
                    // boundary; their targets can only be this sweep or
                    // the next.
                    if x > i {
                        wl.push(sweep, x);
                    }
                    wl.push(sweep + 1, x);
                    for &aid in dp.in_arc_ids(s_node) {
                        let j = dp.arc(aid).from().index();
                        if !rc.in_r[j] {
                            let p = matched_prev[j].expect("boundary nodes are matched");
                            for &(s, _) in prev_ctrl.slice(p) {
                                if s >= 1 {
                                    push_future(&mut wl, s, j, x, (sweep, i));
                                }
                            }
                        }
                    }
                }
                for &s in &dead {
                    push_future(&mut wl, s, i, x, (sweep, i));
                }
            }
        }
        let in_r_ctrl = rc.in_r.clone();
        let (out_ctrl, ctrl_hist, last_change, ctrl_updates) = rc.finish();
        let sweeps_used = (last_change as usize + 1).min(MAX_SWEEPS);

        // Nodes whose *final* controllability differs from the previous
        // solution (exactly) invalidate the observability of their
        // sinks' in-arcs: the backward pass reads final controllability.
        // Elements outside `R` are final-equal by construction.
        let ctrl_changed: Vec<bool> = (0..n)
            .map(|i| match matched_prev[i] {
                None => true,
                Some(p) => in_r_ctrl[i] && out_ctrl[i] != self.out_ctrl[p],
            })
            .collect();

        // Match arcs through the node matching: an arc matches when both
        // endpoints matched and the previous path has an arc with the
        // same port between the matched endpoints (unique by
        // construction: the builder dedupes parallel arcs).
        // Order-preserving, like the node matching.
        let mut arc_matched_prev: Vec<Option<usize>> = vec![None; m];
        let mut last_arc = None;
        for (i, a) in dp.arcs().iter().enumerate() {
            let (Some(pf), Some(pt)) =
                (matched_prev[a.from().index()], matched_prev[a.to().index()])
            else {
                continue;
            };
            let hit = prev_dp
                .in_arc_ids(DpNodeId::from_index(pt))
                .iter()
                .map(|&b| prev_dp.arc(b))
                .find(|b| b.from().index() == pf && b.port() == a.port())
                .map(|b| b.id().index());
            if let Some(p) = hit {
                if last_arc.is_none_or(|l| p > l) {
                    arc_matched_prev[i] = Some(p);
                    last_arc = Some(p);
                }
            }
        }

        // A sink is observability-dirty when its identity, wiring, or
        // any input's final controllability changed.
        let sink_dirty: Vec<bool> = (0..n)
            .map(|v| {
                let id = DpNodeId::from_index(v);
                match matched_prev[v] {
                    None => true,
                    Some(p) => {
                        extra[v]
                            || sig_dirty[v]
                            || !out_sig_clean(v, p)
                            || dp
                                .in_arc_ids(id)
                                .iter()
                                .any(|&a| ctrl_changed[dp.arc(a).from().index()])
                    }
                }
            })
            .collect();

        // ---- Backward pass: observability over arcs. ----
        let prev_obs = &self.obs_hist;
        let mut ro = Replay::new(
            m,
            prev_obs,
            &arc_matched_prev,
            &self.arc_obs,
            Observability::none(),
        );
        for i in 0..m {
            if arc_matched_prev[i].is_none()
                || sink_dirty[dp.arc(DpArcId::from_index(i)).to().index()]
            {
                ro.join_initial(i, Observability::none());
            }
        }
        let mut wl = Worklist::new(MAX_SWEEPS as u32);
        for i in 0..m {
            if !ro.in_r[i] {
                continue;
            }
            wl.push(1, i);
            for &(s, _) in ro.expected(i) {
                wl.push(s, i);
            }
            for &b in dp.out_arc_ids(dp.arc(DpArcId::from_index(i)).to()) {
                let j = b.index();
                if !ro.in_r[j] {
                    let p = arc_matched_prev[j].expect("boundary arcs are matched");
                    for &(s, _) in prev_obs.slice(p) {
                        if s >= 1 {
                            wl.push_after(s, j, i);
                        }
                    }
                }
            }
        }
        let ctrl_final = |p: DpNodeId| out_ctrl[p.index()];
        while let Some((sweep, i)) = wl.pop() {
            let arc = dp.arc(DpArcId::from_index(i));
            let cand = obs_candidate(dp, arc, &ctrl_final, &|a: DpArcId| {
                let j = a.index();
                if ro.in_r[j] {
                    ro.value[j]
                } else {
                    let p = arc_matched_prev[j].expect("boundary arcs are matched");
                    hist_at(prev_obs.slice(p), sweep, j, i)
                }
            });
            let accepted = cand.better_than(ro.value[i]).then_some(cand);
            let (acc, newly) = ro.reconcile(i, sweep, accepted);
            if !acc && !newly {
                continue;
            }
            let dead: Vec<u32> = if newly {
                ro.expected(i).iter().map(|&(s, _)| s).collect()
            } else {
                Vec::new()
            };
            for &dep in dp.in_arc_ids(arc.from()) {
                let x = dep.index();
                if ro.in_r[x] {
                    wl.push_after(sweep, i, x);
                } else if ro.diverged[i] {
                    // see the forward pass: covers `newly` and accepts
                    // by initially-diverged (unmatched) members
                    ro.activate(x, sweep, i);
                    if x > i {
                        wl.push(sweep, x);
                    }
                    wl.push(sweep + 1, x);
                    for &b in dp.out_arc_ids(dp.arc(DpArcId::from_index(x)).to()) {
                        let j = b.index();
                        if !ro.in_r[j] {
                            let p = arc_matched_prev[j].expect("boundary arcs are matched");
                            for &(s, _) in prev_obs.slice(p) {
                                if s >= 1 {
                                    push_future(&mut wl, s, j, x, (sweep, i));
                                }
                            }
                        }
                    }
                }
                for &s in &dead {
                    push_future(&mut wl, s, i, x, (sweep, i));
                }
            }
        }
        let (arc_obs, obs_hist, _, obs_updates) = ro.finish();

        TestabilityAnalysis {
            out_ctrl,
            arc_obs,
            sweeps_used,
            updates: ctrl_updates + obs_updates,
            ctrl_hist,
            obs_hist,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hlts_alloc::Allocation;
    use hlts_dfg::{Dfg, DfgBuilder, OpKind};
    use hlts_etpn::Etpn;
    use hlts_sched::{list_schedule, ListPriority};

    fn diamond() -> Dfg {
        let mut b = DfgBuilder::new("diamond");
        let a = b.input("a");
        let c = b.input("c");
        let t0 = b.op("N0", OpKind::Add, &[a, c], "t0").unwrap();
        let t1 = b.op("N1", OpKind::Mul, &[a, c], "t1").unwrap();
        let t2 = b.op("N2", OpKind::Sub, &[t0, t1], "t2").unwrap();
        b.mark_output(t2);
        b.finish().unwrap()
    }

    fn lower(dfg: &Dfg, alloc: &Allocation) -> Etpn {
        let s = list_schedule(dfg, &[], ListPriority::CriticalPath).unwrap();
        Etpn::from_parts(dfg, &s, alloc).unwrap()
    }

    #[test]
    fn unchanged_path_reanalyzes_to_itself_with_no_updates() {
        let d = diamond();
        let alloc = Allocation::one_to_one(&d);
        let e = lower(&d, &alloc);
        let dp = e.data_path();
        let prev = TestabilityAnalysis::analyze(dp);
        let re = prev.reanalyze(dp, dp, &[]);
        assert!(re == prev);
        assert_eq!(re.updates_propagated(), 0, "empty region replays nothing");
        assert_eq!(re.sweeps_used(), prev.sweeps_used());
    }

    fn chain(len: usize) -> Dfg {
        let mut b = DfgBuilder::new("chain");
        let a = b.input("a");
        let c = b.input("c");
        let mut cur = a;
        for i in 0..len {
            cur = b
                .op(&format!("N{i}"), OpKind::Add, &[cur, c], &format!("t{i}"))
                .unwrap();
        }
        b.mark_output(cur);
        b.finish().unwrap()
    }

    #[test]
    fn reanalysis_after_merge_matches_dense() {
        let d = chain(3);
        let base_alloc = Allocation::one_to_one(&d);
        let base = lower(&d, &base_alloc);
        let prev = TestabilityAnalysis::analyze(base.data_path());

        // Merge two lifetime-disjoint registers and re-lower: a local
        // structural change.
        let mut alloc = base_alloc.clone();
        let r0 = alloc.register_of(d.value_by_name("t0").unwrap()).unwrap();
        let r2 = alloc.register_of(d.value_by_name("t2").unwrap()).unwrap();
        alloc.merge_registers(r0, r2).unwrap();
        let merged = lower(&d, &alloc);
        let dp = merged.data_path();

        let re = prev.reanalyze(base.data_path(), dp, &[]);
        let full = TestabilityAnalysis::analyze(dp);
        let dense = TestabilityAnalysis::analyze_dense(dp);
        assert!(re == full, "incremental must equal worklist");
        assert!(re == dense, "incremental must equal dense");
        assert_eq!(re.sweeps_used(), dense.sweeps_used());
        assert!(
            re.updates_propagated() <= full.updates_propagated(),
            "replay must not do more work than a full run"
        );
    }

    #[test]
    fn dense_previous_solution_falls_back_to_full_analysis() {
        let d = diamond();
        let alloc = Allocation::one_to_one(&d);
        let e = lower(&d, &alloc);
        let dp = e.data_path();
        let dense = TestabilityAnalysis::analyze_dense(dp);
        let re = dense.reanalyze(dp, dp, &[]);
        assert!(re == dense);
        assert!(re.has_history(), "fallback produces a replayable result");
    }

    #[test]
    fn extra_dirty_forces_reevaluation_but_not_a_different_result() {
        let d = diamond();
        let alloc = Allocation::one_to_one(&d);
        let e = lower(&d, &alloc);
        let dp = e.data_path();
        let prev = TestabilityAnalysis::analyze(dp);
        let all: Vec<_> = dp.nodes().iter().map(|n| n.id()).collect();
        let re = prev.reanalyze(dp, dp, &all);
        assert!(re == prev, "a fully dirty replay is just a full run");
        assert_eq!(re.updates_propagated(), prev.updates_propagated());
    }

    #[test]
    fn consistent_replay_never_floods_past_the_divergence_frontier() {
        // Re-analyzing an identical path with one extra-dirty node must
        // re-evaluate that node (and nothing else): its stream is
        // consistent with its old history, so no successor activates.
        let d = chain(4);
        let alloc = Allocation::one_to_one(&d);
        let e = lower(&d, &alloc);
        let dp = e.data_path();
        let prev = TestabilityAnalysis::analyze(dp);
        let r0 = dp
            .node_of_register(alloc.register_of(d.value_by_name("t0").unwrap()).unwrap())
            .unwrap();
        let re = prev.reanalyze(dp, dp, &[r0]);
        assert!(re == prev);
        let full_updates = prev.updates_propagated();
        assert!(
            re.updates_propagated() < full_updates,
            "one consistent dirty node must not replay the whole graph \
             ({} vs {full_updates} updates)",
            re.updates_propagated()
        );
    }
}
