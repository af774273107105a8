//! The CC/SC/CO/SO fixpoint analysis over an ETPN data path.
//!
//! Two solvers produce the same fixpoint:
//!
//! * [`TestabilityAnalysis::analyze`] — the production path: an indexed
//!   **worklist** that seeds every evaluable element once and afterwards
//!   only re-evaluates elements whose inputs actually changed, so cost
//!   scales with the number of propagated updates instead of
//!   `MAX_SWEEPS × |nodes|`.
//! * [`TestabilityAnalysis::analyze_dense`] — the original dense
//!   Gauss–Seidel reference: up to [`MAX_SWEEPS`] full passes over every
//!   node, then every arc. Kept as the oracle the worklist is
//!   property-tested against.
//!
//! The worklist is **bit-identical** to the dense reference, not merely
//! convergent to the same fixpoint: a dense sweep evaluates nodes in
//! ascending id order with in-place updates, so a sweep is exactly "the
//! ascending set of nodes whose inputs changed visibly", and
//! re-evaluating a node whose inputs did not change is a no-op (the
//! acceptance rule [`Controllability::better_than`] is deterministic in
//! the inputs). The worklist schedules exactly those evaluations: an
//! accepted change at node *i* during sweep *s* re-enqueues each
//! successor *j* into sweep *s* when `j > i` (dense has not reached it
//! yet) and into sweep `s + 1` otherwise.

use hlts_dfg::OpKind;
use hlts_etpn::{DataPath, DpArc, DpArcId, DpNodeId, DpNodeKind};

use crate::factors::{ctf, otf};
use crate::worklist::Worklist;

/// Sequential-cost sentinel for "not yet reachable".
const UNREACHED: f64 = 1.0e9;
/// Weight of the sequential factor when scalarizing a measure for
/// comparisons (one extra time frame ≈ 5% combinational quality).
const SEQ_WEIGHT: f64 = 0.05;
/// Fixpoint iteration cap (loops converge geometrically; this bounds
/// pathological inputs).
const MAX_SWEEPS: usize = 64;
const EPS: f64 = 1.0e-9;

/// Controllability of a line or node: combinational factor `cc ∈ [0, 1]`
/// (1 = freely controllable) and sequential factor `sc ≥ 0` (time frames
/// needed to load a value).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Controllability {
    /// Combinational controllability.
    pub cc: f64,
    /// Sequential controllability (time frames).
    pub sc: f64,
}

impl Controllability {
    /// The uncontrollable bottom element.
    #[must_use]
    pub fn none() -> Self {
        Controllability {
            cc: 0.0,
            sc: UNREACHED,
        }
    }

    /// Scalar quality for ranking: `cc − w·sc` (higher is better).
    #[must_use]
    pub fn scalar(self) -> f64 {
        if self.sc >= UNREACHED {
            return 0.0;
        }
        (self.cc - SEQ_WEIGHT * self.sc).max(0.0)
    }

    /// Unclamped ordering key for the fixpoint: unlike
    /// [`Controllability::scalar`], deeply attenuated values stay
    /// comparable instead of saturating at zero.
    fn rank(self) -> f64 {
        if self.sc >= UNREACHED {
            return f64::NEG_INFINITY;
        }
        self.cc - SEQ_WEIGHT * self.sc
    }

    fn better_than(self, other: Controllability) -> bool {
        self.rank() > other.rank() + EPS
    }
}

/// Observability of a line or node: combinational factor `co ∈ [0, 1]`
/// (1 = directly observable) and sequential factor `so ≥ 0`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Observability {
    /// Combinational observability.
    pub co: f64,
    /// Sequential observability (time frames).
    pub so: f64,
}

impl Observability {
    /// The unobservable bottom element.
    #[must_use]
    pub fn none() -> Self {
        Observability {
            co: 0.0,
            so: UNREACHED,
        }
    }

    /// Scalar quality for ranking: `co − w·so` (higher is better).
    #[must_use]
    pub fn scalar(self) -> f64 {
        if self.so >= UNREACHED {
            return 0.0;
        }
        (self.co - SEQ_WEIGHT * self.so).max(0.0)
    }

    /// Unclamped ordering key for the fixpoint (see
    /// [`Controllability`]'s equivalent).
    fn rank(self) -> f64 {
        if self.so >= UNREACHED {
            return f64::NEG_INFINITY;
        }
        self.co - SEQ_WEIGHT * self.so
    }

    fn better_than(self, other: Observability) -> bool {
        self.rank() > other.rank() + EPS
    }
}

/// The full analysis result: per-node output-line controllability and
/// per-arc observability, plus the node summaries of the paper's §3.
///
/// Equality compares the **values** only (`out_ctrl`, `arc_obs`,
/// exactly, bit for bit) — diagnostics such as sweep and update counts
/// are excluded.
#[derive(Debug, Clone)]
pub struct TestabilityAnalysis {
    /// Controllability of each node's output line.
    out_ctrl: Vec<Controllability>,
    /// Observability of each arc (a line into its sink).
    arc_obs: Vec<Observability>,
    sweeps_used: usize,
    /// Accepted worklist updates beyond the seeds (diagnostics).
    updates: u64,
}

impl PartialEq for TestabilityAnalysis {
    fn eq(&self, other: &Self) -> bool {
        self.out_ctrl == other.out_ctrl && self.arc_obs == other.arc_obs
    }
}

/// What a run's testability analyses cost: one per Algorithm 1
/// iteration plus one for the final metrics. The run that computes the
/// analyses counts them itself ([`TestabilityCacheStats::record`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TestabilityCacheStats {
    /// Always 0: there is no analysis cache. The field stays only while
    /// the benchmark under `perf/` names it.
    pub hits: u64,
    /// Analyses computed.
    pub misses: u64,
    /// Accepted value updates, summed over the computed analyses — the
    /// work the worklist actually did (a dense solver would pay
    /// `sweeps × (nodes + arcs)` evaluations instead).
    pub updates_propagated: u64,
}

impl TestabilityCacheStats {
    /// Count one computed analysis.
    pub fn record(&mut self, analysis: &TestabilityAnalysis) {
        self.misses += 1;
        self.updates_propagated += analysis.updates_propagated();
    }

    /// Add another run's counts.
    pub fn add(&mut self, other: TestabilityCacheStats) {
        self.hits += other.hits;
        self.misses += other.misses;
        self.updates_propagated += other.updates_propagated;
    }
}

/// The seed value of a node before any propagation.
///
/// Initialization follows the paper: "assigns first ones to CCs and
/// zeros to SCs for all primary inputs in the data path". A constant
/// drives one fixed value: usable, but useless for justifying arbitrary
/// patterns.
fn ctrl_seed(kind: &DpNodeKind) -> Controllability {
    match kind {
        DpNodeKind::PrimaryInput(_) => Controllability { cc: 1.0, sc: 0.0 },
        DpNodeKind::Const(_) => Controllability { cc: 0.5, sc: 0.0 },
        _ => Controllability::none(),
    }
}

/// Whether the forward pass re-evaluates this node kind (sources keep
/// their seeds; ports and conditions produce nothing further).
fn forward_evaluable(kind: &DpNodeKind) -> bool {
    matches!(kind, DpNodeKind::Register(_) | DpNodeKind::Module { .. })
}

/// The forward transfer function: the candidate output controllability
/// of `node` given its predecessors' current values. `None` for kinds
/// the forward pass does not evaluate.
fn ctrl_candidate<F>(dp: &DataPath, node: DpNodeId, ctrl_of: &F) -> Option<Controllability>
where
    F: Fn(DpNodeId) -> Controllability,
{
    match dp.node(node).kind() {
        DpNodeKind::Register(_) => {
            // best over input lines, plus one time frame
            let best = best_input(dp, node, ctrl_of);
            Some(Controllability {
                cc: best.cc,
                sc: if best.sc >= UNREACHED {
                    UNREACHED
                } else {
                    best.sc + 1.0
                },
            })
        }
        DpNodeKind::Module { kinds, .. } => {
            Some(module_output_ctrl(dp, node, kinds.iter().copied(), ctrl_of))
        }
        _ => None,
    }
}

/// The backward transfer function: the candidate observability of `arc`
/// given the sink's out-arcs' current observabilities and the final
/// controllability solution.
fn obs_candidate<F, G>(dp: &DataPath, arc: &DpArc, ctrl_of: &F, obs_of: &G) -> Observability
where
    F: Fn(DpNodeId) -> Controllability,
    G: Fn(DpArcId) -> Observability,
{
    let sink = dp.node(arc.to());
    match sink.kind() {
        DpNodeKind::PrimaryOutput(_) => Observability { co: 1.0, so: 0.0 },
        // a condition is observed through the controller's branching
        // behavior: indirect but cheap
        DpNodeKind::ConditionOut(_) => Observability { co: 0.9, so: 0.0 },
        DpNodeKind::Register(_) => {
            let out = node_out_obs(dp, sink.id(), obs_of);
            Observability {
                co: out.co,
                so: if out.so >= UNREACHED {
                    UNREACHED
                } else {
                    out.so + 1.0
                },
            }
        }
        DpNodeKind::Module { kinds, .. } => {
            let out = node_out_obs(dp, sink.id(), obs_of);
            if out.so >= UNREACHED {
                Observability::none()
            } else {
                // propagating through the module requires controlling
                // its other input ports
                let side = side_ports_ctrl(dp, sink.id(), arc.port(), ctrl_of);
                let f = kinds.iter().copied().map(otf).fold(1.0, f64::min);
                Observability {
                    co: f * out.co * side.cc,
                    so: out.so
                        + if side.sc >= UNREACHED {
                            // no side value needed (unary)
                            0.0
                        } else {
                            side.sc
                        },
                }
            }
        }
        _ => Observability::none(),
    }
}

impl TestabilityAnalysis {
    /// Run the analysis to fixpoint with the indexed worklist solver.
    ///
    /// Initialization follows the paper: "assigns first ones to CCs and
    /// zeros to SCs for all primary inputs in the data path ... these
    /// values will then be propagated ... until the primary outputs are
    /// reached. A similar approach can be used for calculating
    /// observability in the reverse direction." Feedback loops are
    /// handled by propagating to a fixpoint from a pessimistic start.
    ///
    /// Bit-identical to [`TestabilityAnalysis::analyze_dense`] (see the
    /// module docs for the argument, and the crate's property tests for
    /// the evidence), but only elements whose inputs changed are
    /// re-evaluated.
    #[must_use]
    pub fn analyze(dp: &DataPath) -> Self {
        let n = dp.num_nodes();
        let mut out_ctrl = vec![Controllability::none(); n];
        for node in dp.nodes() {
            out_ctrl[node.id().index()] = ctrl_seed(node.kind());
        }

        let mut updates = 0u64;

        // Forward worklist for controllability: sweep 1 evaluates every
        // register/module (exactly like the dense first sweep); later
        // sweeps only the elements an accepted change reached.
        let mut wl = Worklist::new(MAX_SWEEPS as u32);
        for node in dp.nodes() {
            if forward_evaluable(node.kind()) {
                wl.push(1, node.id().index());
            }
        }
        let mut last_change = 0u32;
        while let Some((sweep, i)) = wl.pop() {
            let id = DpNodeId::from_index(i);
            let Some(new) = ctrl_candidate(dp, id, &|p: DpNodeId| out_ctrl[p.index()]) else {
                continue;
            };
            if new.better_than(out_ctrl[i]) {
                out_ctrl[i] = new;
                last_change = sweep;
                updates += 1;
                for &out in dp.out_arc_ids(id) {
                    let s = dp.arc(out).to();
                    if forward_evaluable(dp.node(s).kind()) {
                        wl.push_after(sweep, i, s.index());
                    }
                }
            }
        }
        // Dense runs one final no-change sweep before stopping (unless
        // the cap cuts it short).
        let sweeps_used = (last_change as usize + 1).min(MAX_SWEEPS);

        // Backward worklist for observability, per arc. An accepted
        // change of arc b = (v → w) invalidates every arc *into* v.
        let m = dp.num_arcs();
        let mut arc_obs = vec![Observability::none(); m];
        let ctrl_final = |p: DpNodeId| out_ctrl[p.index()];
        let mut wl = Worklist::new(MAX_SWEEPS as u32);
        for i in 0..m {
            wl.push(1, i);
        }
        while let Some((sweep, i)) = wl.pop() {
            let arc = dp.arc(DpArcId::from_index(i));
            let new = obs_candidate(dp, arc, &ctrl_final, &|a: DpArcId| arc_obs[a.index()]);
            if new.better_than(arc_obs[i]) {
                arc_obs[i] = new;
                updates += 1;
                for &dep in dp.in_arc_ids(arc.from()) {
                    wl.push_after(sweep, i, dep.index());
                }
            }
        }

        TestabilityAnalysis {
            out_ctrl,
            arc_obs,
            sweeps_used,
            updates,
        }
    }

    /// Run the analysis to fixpoint with dense Gauss–Seidel sweeps — the
    /// original reference solver the worklist is verified against.
    #[must_use]
    pub fn analyze_dense(dp: &DataPath) -> Self {
        let n = dp.num_nodes();
        let mut out_ctrl = vec![Controllability::none(); n];

        // Seed sources.
        for node in dp.nodes() {
            out_ctrl[node.id().index()] = ctrl_seed(node.kind());
        }

        // Forward fixpoint for controllability.
        let mut updates = 0u64;
        let mut sweeps_used = 0;
        for sweep in 0..MAX_SWEEPS {
            sweeps_used = sweep + 1;
            let mut changed = false;
            for node in dp.nodes() {
                let i = node.id().index();
                let Some(new) = ctrl_candidate(dp, node.id(), &|p: DpNodeId| out_ctrl[p.index()])
                else {
                    continue;
                };
                if new.better_than(out_ctrl[i]) {
                    out_ctrl[i] = new;
                    changed = true;
                    updates += 1;
                }
            }
            if !changed {
                break;
            }
        }

        // Backward fixpoint for observability, per arc.
        let mut arc_obs = vec![Observability::none(); dp.num_arcs()];
        for _sweep in 0..MAX_SWEEPS {
            let mut changed = false;
            for arc in dp.arcs() {
                let new = obs_candidate(
                    dp,
                    arc,
                    &|p: DpNodeId| out_ctrl[p.index()],
                    &|a: DpArcId| arc_obs[a.index()],
                );
                let slot = &mut arc_obs[arc.id().index()];
                if new.better_than(*slot) {
                    *slot = new;
                    changed = true;
                    updates += 1;
                }
            }
            if !changed {
                break;
            }
        }

        TestabilityAnalysis {
            out_ctrl,
            arc_obs,
            sweeps_used,
            updates,
        }
    }

    /// Controllability of a node's output line.
    #[must_use]
    pub fn output_controllability(&self, node: DpNodeId) -> Controllability {
        self.out_ctrl[node.index()]
    }

    /// Observability of a specific arc (line).
    #[must_use]
    pub fn arc_observability(&self, arc: DpArcId) -> Observability {
        self.arc_obs[arc.index()]
    }

    /// The paper's node controllability: the best controllability of any
    /// of the node's *input* lines (an input line carries the source
    /// node's output controllability). Source nodes (PIs, constants) use
    /// their own output controllability.
    #[must_use]
    pub fn node_controllability(&self, dp: &DataPath, node: DpNodeId) -> Controllability {
        let ins = dp.in_arc_ids(node);
        if ins.is_empty() {
            return self.out_ctrl[node.index()];
        }
        ins.iter()
            .map(|&a| self.out_ctrl[dp.arc(a).from().index()])
            .fold(Controllability::none(), |acc, c| {
                if c.better_than(acc) {
                    c
                } else {
                    acc
                }
            })
    }

    /// The paper's node observability: the best observability of any of
    /// the node's *output* lines.
    #[must_use]
    pub fn node_observability(&self, dp: &DataPath, node: DpNodeId) -> Observability {
        dp.out_arc_ids(node)
            .iter()
            .map(|&a| self.arc_obs[a.index()])
            .fold(Observability::none(), |acc, o| {
                if o.better_than(acc) {
                    o
                } else {
                    acc
                }
            })
    }

    /// Number of forward sweeps the fixpoint needed (diagnostics).
    #[must_use]
    pub fn sweeps_used(&self) -> usize {
        self.sweeps_used
    }

    /// Number of accepted value updates propagated beyond the seeds —
    /// the quantity the worklist's cost actually scales with.
    #[must_use]
    pub fn updates_propagated(&self) -> u64 {
        self.updates
    }
}

/// Best controllability over all input lines of `node`.
fn best_input<F>(dp: &DataPath, node: DpNodeId, ctrl_of: &F) -> Controllability
where
    F: Fn(DpNodeId) -> Controllability,
{
    dp.in_arc_ids(node)
        .iter()
        .map(|&a| ctrl_of(dp.arc(a).from()))
        .fold(Controllability::none(), |acc, c| {
            if c.better_than(acc) {
                c
            } else {
                acc
            }
        })
}

/// Output controllability of a module: CTF × the *worst* port (to control
/// the output you must control every input port; each port contributes
/// its best source).
fn module_output_ctrl<F>(
    dp: &DataPath,
    node: DpNodeId,
    kinds: impl Iterator<Item = OpKind>,
    ctrl_of: &F,
) -> Controllability
where
    F: Fn(DpNodeId) -> Controllability,
{
    let f = kinds.map(ctf).fold(1.0, f64::min);
    let ins = dp.in_arc_ids(node);
    let max_port = ins.iter().map(|&a| dp.arc(a).port()).max().unwrap_or(0);
    let mut cc: f64 = 1.0;
    let mut sc: f64 = 0.0;
    for port in 0..=max_port {
        let best = ins
            .iter()
            .filter(|&&a| dp.arc(a).port() == port)
            .map(|&a| ctrl_of(dp.arc(a).from()))
            .fold(Controllability::none(), |acc, c| {
                if c.better_than(acc) {
                    c
                } else {
                    acc
                }
            });
        cc = cc.min(best.cc);
        sc = sc.max(best.sc);
    }
    if sc >= UNREACHED || ins.is_empty() {
        return Controllability::none();
    }
    Controllability { cc: f * cc, sc }
}

/// Combined controllability of all ports of `node` other than `port` —
/// the side values that must be justified to propagate through the
/// module. Returns the *worst* side port (all must be set).
fn side_ports_ctrl<F>(dp: &DataPath, node: DpNodeId, port: usize, ctrl_of: &F) -> Controllability
where
    F: Fn(DpNodeId) -> Controllability,
{
    let ins = dp.in_arc_ids(node);
    let max_port = ins.iter().map(|&a| dp.arc(a).port()).max().unwrap_or(0);
    let mut cc: f64 = 1.0;
    let mut sc: f64 = 0.0;
    let mut any = false;
    for p in 0..=max_port {
        if p == port {
            continue;
        }
        let best = ins
            .iter()
            .filter(|&&a| dp.arc(a).port() == p)
            .map(|&a| ctrl_of(dp.arc(a).from()))
            .fold(Controllability::none(), |acc, c| {
                if c.better_than(acc) {
                    c
                } else {
                    acc
                }
            });
        if best.sc >= UNREACHED {
            return Controllability::none();
        }
        any = true;
        cc = cc.min(best.cc);
        sc = sc.max(best.sc);
    }
    if any {
        Controllability { cc, sc }
    } else {
        // unary module: nothing to justify
        Controllability {
            cc: 1.0,
            sc: UNREACHED,
        }
    }
}

/// Node output observability: best over the node's out-arcs (the fold
/// keeps the earliest arc on rank ties, exactly like the dense code).
fn node_out_obs<G>(dp: &DataPath, node: DpNodeId, obs_of: &G) -> Observability
where
    G: Fn(DpArcId) -> Observability,
{
    dp.out_arc_ids(node)
        .iter()
        .map(|&a| obs_of(a))
        .fold(Observability::none(), |acc, o| {
            if o.better_than(acc) {
                o
            } else {
                acc
            }
        })
}

#[cfg(test)]
mod tests {
    use super::*;
    use hlts_alloc::Allocation;
    use hlts_dfg::{Dfg, DfgBuilder, OpKind};
    use hlts_etpn::Etpn;
    use hlts_sched::{list_schedule, ListPriority, Schedule};

    fn lower(dfg: &Dfg) -> (Etpn, Schedule, Allocation) {
        let s = list_schedule(dfg, &[], ListPriority::CriticalPath).unwrap();
        let a = Allocation::one_to_one(dfg);
        let e = Etpn::from_parts(dfg, &s, &a).unwrap();
        (e, s, a)
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
    fn primary_input_is_fully_controllable() {
        let d = chain(2);
        let (e, _, _) = lower(&d);
        let dp = e.data_path();
        let ta = TestabilityAnalysis::analyze(dp);
        for node in dp.nodes() {
            if node.kind().is_primary_input() {
                let c = ta.output_controllability(node.id());
                assert_eq!(c.cc, 1.0);
                assert_eq!(c.sc, 0.0);
            }
        }
    }

    #[test]
    fn sc_counts_register_stages() {
        let d = chain(3);
        let (e, _, alloc) = lower(&d);
        let dp = e.data_path();
        let ta = TestabilityAnalysis::analyze(dp);
        // register of t0: PI -> R(a) -> FU -> R(t0): 2 time frames
        let t0 = d.value_by_name("t0").unwrap();
        let r0 = dp.node_of_register(alloc.register_of(t0).unwrap()).unwrap();
        let c0 = ta.output_controllability(r0);
        let t2 = d.value_by_name("t2").unwrap();
        let r2 = dp.node_of_register(alloc.register_of(t2).unwrap()).unwrap();
        let c2 = ta.output_controllability(r2);
        assert!(c2.sc > c0.sc, "deeper register has larger SC");
        assert!(c2.cc < c0.cc, "deeper register has smaller CC");
    }

    #[test]
    fn so_counts_stages_to_output() {
        let d = chain(3);
        let (e, _, alloc) = lower(&d);
        let dp = e.data_path();
        let ta = TestabilityAnalysis::analyze(dp);
        let near = d.value_by_name("t2").unwrap(); // output, directly observed
        let far = d.value_by_name("t0").unwrap();
        let rn = dp
            .node_of_register(alloc.register_of(near).unwrap())
            .unwrap();
        let rf = dp
            .node_of_register(alloc.register_of(far).unwrap())
            .unwrap();
        let on = ta.node_observability(dp, rn);
        let of_ = ta.node_observability(dp, rf);
        assert!(on.scalar() > of_.scalar());
        assert!(of_.so > on.so);
    }

    #[test]
    fn multiplier_attenuates_more_than_adder() {
        let build = |kind: OpKind| {
            let mut b = DfgBuilder::new("t");
            let a = b.input("a");
            let c = b.input("c");
            let y = b.op("N1", kind, &[a, c], "y").unwrap();
            b.mark_output(y);
            b.finish().unwrap()
        };
        let get_cc = |d: &Dfg| {
            let (e, _, alloc) = lower(d);
            let dp = e.data_path();
            let ta = TestabilityAnalysis::analyze(dp);
            let y = d.value_by_name("y").unwrap();
            let r = dp.node_of_register(alloc.register_of(y).unwrap()).unwrap();
            ta.output_controllability(r).cc
        };
        let da = build(OpKind::Add);
        let dm = build(OpKind::Mul);
        assert!(get_cc(&da) > get_cc(&dm));
    }

    #[test]
    fn self_loop_converges_and_depresses_metrics() {
        // x1 = x + dx, loop x1 -> x, with x and x1 sharing a register:
        // the register feeds the adder which feeds the register.
        let mut b = DfgBuilder::new("loopy");
        let x = b.input("x");
        let dx = b.input("dx");
        let x1 = b.op("N1", OpKind::Add, &[x, dx], "x1").unwrap();
        b.mark_output(x1);
        b.loop_carried(x1, x);
        let d = b.finish().unwrap();
        let s = list_schedule(&d, &[], ListPriority::CriticalPath).unwrap();
        let mut alloc = Allocation::one_to_one(&d);
        let rx = alloc.register_of(x).unwrap();
        let rx1 = alloc.register_of(d.value_by_name("x1").unwrap()).unwrap();
        alloc.merge_registers(rx, rx1).unwrap();
        let e = Etpn::from_parts(&d, &s, &alloc).unwrap();
        let dp = e.data_path();
        let ta = TestabilityAnalysis::analyze(dp);
        assert!(ta.sweeps_used() < 64, "fixpoint must converge");
        let rn = dp.node_of_register(rx).unwrap();
        assert!(dp.on_self_loop(rn));
        let c = ta.output_controllability(rn);
        // still controllable (via the PI load path) but cheap
        assert!(c.cc > 0.0);
    }

    #[test]
    fn node_summaries_use_best_lines() {
        let d = chain(1);
        let (e, _, _) = lower(&d);
        let dp = e.data_path();
        let ta = TestabilityAnalysis::analyze(dp);
        // module node: controllability = best input line = register of a
        // or c, both fed by PIs at sc=1
        for m in dp.module_nodes() {
            let c = ta.node_controllability(dp, m);
            assert!(c.cc > 0.9);
            assert_eq!(c.sc, 1.0);
        }
    }

    #[test]
    fn scalar_ordering() {
        let good = Controllability { cc: 1.0, sc: 0.0 };
        let mid = Controllability { cc: 1.0, sc: 3.0 };
        let bad = Controllability::none();
        assert!(good.scalar() > mid.scalar());
        assert!(mid.scalar() > bad.scalar());
        let o1 = Observability { co: 0.9, so: 1.0 };
        assert!(o1.scalar() > Observability::none().scalar());
    }

    #[test]
    fn worklist_matches_dense_on_chains_and_loops() {
        for len in 1..6 {
            let d = chain(len);
            let (e, _, _) = lower(&d);
            let dp = e.data_path();
            let wl = TestabilityAnalysis::analyze(dp);
            let dense = TestabilityAnalysis::analyze_dense(dp);
            assert!(wl == dense, "len={len}: worklist diverged from dense");
            assert_eq!(wl.sweeps_used(), dense.sweeps_used(), "len={len}");
            assert_eq!(
                wl.updates_propagated(),
                dense.updates_propagated(),
                "len={len}"
            );
        }
    }
}
