//! Deterministic test generation: PODEM over a time-frame-expanded
//! model.
//!
//! The sequential circuit is unrolled for a bounded number of time
//! frames starting from the reset state (all flip-flops 0). The target
//! fault is injected in every frame. PODEM assigns primary inputs
//! (per frame) guided by backtracing the current objective — first
//! fault activation, then propagation through the D-frontier — with
//! 3-valued (0/1/X) simulation of the good and faulty machines as the
//! implication engine, and a bounded number of backtracks.
//!
//! ## Incremental implication
//!
//! Implication runs after every decision and every backtrack, so it is
//! the search's inner loop. [`Podem`] owns both machines' values for
//! every frame in flat `frames × gates` buffers (allocated once, in
//! [`Podem::new`]) and re-simulates only what changed since the last
//! implication:
//!
//! * **Dirty frame.** A decision, a flip or a pop at frame `f` lowers
//!   the earliest dirty frame to `f`. Frames before it are kept as they
//!   are: a frame depends only on its own inputs and on the flip-flop
//!   state that earlier frames latch.
//! * **Selective trace.** In each frame from the dirty one on, every
//!   source (input, flip-flop output, constant) is recomputed and
//!   compared with its stored value. The levelized walk then
//!   re-evaluates a gate only when a fan-in changed in this frame, and
//!   marks the gate changed only when its good or faulty value moved. A
//!   frame whose sources did not move is skipped whole.
//!
//! The first implication of each call is a full pass. After every
//! implication the buffers hold exactly what a full re-simulation from
//! frame 0 would produce, so objectives, backtraces, decisions and
//! backtrack counts are those of the full re-simulation engine — the
//! search itself is unchanged. Gates are evaluated straight from the
//! value buffer, with a faulted pin overridden in place, so a warmed-up
//! call that does not find a test allocates nothing.

use hlts_netlist::{GateId, GateKind, Netlist};

use crate::{Fault, FaultSite};

type V = Option<bool>;

/// `pi_of` entry of a gate that is not a primary input.
const NOT_PI: usize = usize::MAX;

/// Result of one PODEM run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PodemOutcome {
    /// A test was found: per-frame primary-input assignments
    /// (unassigned inputs default to 0).
    Test(Vec<Vec<bool>>),
    /// The fault is untestable within the frame bound (no objective
    /// remained and every decision was exhausted).
    Untestable,
    /// The backtrack limit was hit.
    Aborted,
}

/// PODEM test generator for one netlist.
#[derive(Debug, Clone)]
pub struct Podem {
    nl: Netlist,
    order: Vec<GateId>,
    frames: usize,
    backtrack_limit: usize,
    backtracks_used: usize,
    /// Gate index → primary-input index (`NOT_PI` for other gates).
    pi_of: Vec<usize>,
    /// Primary-input assignments, frame-major (`frame * pis + pi`).
    assign: Vec<V>,
    /// Decision stack: (frame, pi, value, tried_both).
    stack: Vec<(usize, usize, bool, bool)>,
    /// Both machines across all frames.
    vals: Machines,
    /// Earliest frame whose assignment changed since the last
    /// implication (`frames` when none did).
    dirty: usize,
    /// The next implication is a full pass (a new call started).
    full: bool,
}

/// Good and faulty values of every net in every frame, frame-major
/// (`frame * gates + gate`), plus the change marks of the frame being
/// re-simulated.
#[derive(Debug, Clone)]
struct Machines {
    good: Vec<V>,
    faulty: Vec<V>,
    /// Per frame: some primary output differs between the machines.
    detected: Vec<bool>,
    /// `stamp[g] == epoch`: net `g` changed in the frame being
    /// re-simulated.
    stamp: Vec<u32>,
    epoch: u32,
}

impl Machines {
    /// Start a frame: no net has changed in it yet.
    fn next_frame(&mut self) {
        if self.epoch == u32::MAX {
            self.stamp.fill(0);
            self.epoch = 0;
        }
        self.epoch += 1;
    }

    fn changed(&self, g: GateId) -> bool {
        self.stamp[g.index()] == self.epoch
    }

    /// Store net `g`'s values at `base` (its frame's offset); mark it
    /// changed if either moved, or unconditionally when `force`.
    fn store(&mut self, base: usize, g: usize, good: V, faulty: V, force: bool) -> bool {
        let i = base + g;
        if !force && self.good[i] == good && self.faulty[i] == faulty {
            return false;
        }
        self.good[i] = good;
        self.faulty[i] = faulty;
        self.stamp[g] = self.epoch;
        true
    }
}

impl Podem {
    /// Create a generator unrolling `frames` time frames with the given
    /// backtrack limit.
    #[must_use]
    pub fn new(mut nl: Netlist, frames: usize, backtrack_limit: usize) -> Self {
        let order = nl.topo_levels();
        let frames = frames.max(1);
        let n = nl.num_gates();
        let mut pi_of = vec![NOT_PI; n];
        for (pi, &g) in nl.inputs().iter().enumerate() {
            pi_of[g.index()] = pi;
        }
        // Every decision assigns a distinct free input, so the stack
        // never outgrows `frames × inputs`.
        let slots = frames * nl.inputs().len();
        Podem {
            nl,
            order,
            frames,
            backtrack_limit,
            backtracks_used: 0,
            pi_of,
            assign: vec![None; slots],
            stack: Vec::with_capacity(slots),
            vals: Machines {
                good: vec![None; frames * n],
                faulty: vec![None; frames * n],
                detected: vec![false; frames],
                stamp: vec![0; n],
                epoch: 0,
            },
            dirty: 0,
            full: true,
        }
    }

    /// Total backtracks consumed across all calls (effort metric).
    #[must_use]
    pub fn backtracks_used(&self) -> usize {
        self.backtracks_used
    }

    /// Attempt to generate a test for `fault` with all inputs free.
    pub fn generate(&mut self, fault: Fault) -> PodemOutcome {
        self.generate_seeded(fault, None)
    }

    /// Attempt to generate a test with some inputs pre-assigned
    /// (frame-major, `preset[frame][pi]`). Preset values are fixed — the
    /// search only decides the remaining inputs. Seeding the control
    /// inputs with the controller's one-hot stepping protocol shrinks
    /// the search space to the data inputs, mirroring a test plan that
    /// walks the schedule.
    pub fn generate_seeded(&mut self, fault: Fault, preset: Option<&[Vec<V>]>) -> PodemOutcome {
        let num_pis = self.nl.inputs().len();
        self.assign.fill(None);
        if let Some(p) = preset {
            for (f, row) in p.iter().enumerate().take(self.frames) {
                for (i, &v) in row.iter().enumerate().take(num_pis) {
                    self.assign[f * num_pis + i] = v;
                }
            }
        }
        self.stack.clear();
        self.full = true;
        self.dirty = 0;
        let mut backtracks = 0usize;

        loop {
            if self.imply(fault) {
                self.backtracks_used += backtracks;
                let test = (0..self.frames)
                    .map(|t| {
                        self.assign[t * num_pis..(t + 1) * num_pis]
                            .iter()
                            .map(|v| v.unwrap_or(false))
                            .collect()
                    })
                    .collect();
                return PodemOutcome::Test(test);
            }
            let decision = self
                .objective(fault)
                .and_then(|(frame, signal, value)| self.backtrace(frame, signal, value));
            if let Some((f, pi, v)) = decision {
                self.set(f, pi, Some(v));
                self.stack.push((f, pi, v, false));
                continue;
            }
            // conflict: backtrack
            loop {
                match self.stack.pop() {
                    None => {
                        self.backtracks_used += backtracks;
                        return if backtracks >= self.backtrack_limit {
                            PodemOutcome::Aborted
                        } else {
                            PodemOutcome::Untestable
                        };
                    }
                    Some((f, pi, v, tried_both)) => {
                        self.set(f, pi, None);
                        backtracks += 1;
                        if backtracks >= self.backtrack_limit {
                            self.backtracks_used += backtracks;
                            return PodemOutcome::Aborted;
                        }
                        if !tried_both {
                            self.set(f, pi, Some(!v));
                            self.stack.push((f, pi, !v, true));
                            break;
                        }
                    }
                }
            }
        }
    }

    /// Assign primary input `pi` in `frame`; the frame becomes dirty.
    fn set(&mut self, frame: usize, pi: usize, v: V) {
        self.assign[frame * self.nl.inputs().len() + pi] = v;
        self.dirty = self.dirty.min(frame);
    }

    /// Bring both machines up to date with the assignment (see the
    /// module docs) and report whether any frame detects the fault.
    fn imply(&mut self, fault: Fault) -> bool {
        let nl = &self.nl;
        let n = nl.num_gates();
        let num_pis = nl.inputs().len();
        let full = std::mem::take(&mut self.full);
        let vals = &mut self.vals;
        // output-site injection on source nets
        let source_fault = match fault.site {
            FaultSite::Output(g)
                if matches!(
                    nl.gates()[g.index()].kind(),
                    GateKind::Input | GateKind::Dff | GateKind::Const0 | GateKind::Const1
                ) =>
            {
                Some(g)
            }
            _ => None,
        };
        let stuck = Some(fault.stuck);
        let inject = |g: GateId, v: V| if source_fault == Some(g) { stuck } else { v };

        for t in self.dirty..self.frames {
            let base = t * n;
            vals.next_frame();
            let mut moved = false;
            // sources
            if full {
                for (i, g) in nl.gates().iter().enumerate() {
                    let v = match g.kind() {
                        GateKind::Const0 => Some(false),
                        GateKind::Const1 => Some(true),
                        _ => continue,
                    };
                    vals.store(base, i, v, inject(GateId::from_index(i), v), true);
                }
            }
            for (pi, &g) in nl.inputs().iter().enumerate() {
                let v = self.assign[t * num_pis + pi];
                moved |= vals.store(base, g.index(), v, inject(g, v), full);
            }
            // flip-flops: reset state, then the previous frame's D
            // values (with D-pin injection)
            for &q in nl.dffs() {
                let (gv, fv) = if t == 0 {
                    (Some(false), Some(false))
                } else {
                    let d = base - n + nl.gates()[q.index()].inputs()[0].index();
                    let fd = if fault.site == FaultSite::Input(q, 0) {
                        stuck
                    } else {
                        vals.faulty[d]
                    };
                    (vals.good[d], fd)
                };
                moved |= vals.store(base, q.index(), gv, inject(q, fv), full);
            }
            if !(full || moved) {
                continue; // nothing this frame reads has changed
            }
            // combinational propagation (selective trace)
            for &g in &self.order {
                let gate = &nl.gates()[g.index()];
                let ins = gate.inputs();
                if !full && !ins.iter().any(|&i| vals.changed(i)) {
                    continue;
                }
                let good = &vals.good[base..base + n];
                let gv = eval3(gate.kind(), ins.len(), |k| good[ins[k].index()]);
                let fv = if fault.site == FaultSite::Output(g) {
                    stuck
                } else {
                    let pin = match fault.site {
                        FaultSite::Input(fg, pin) if fg == g => usize::from(pin),
                        _ => usize::MAX,
                    };
                    let faulty = &vals.faulty[base..base + n];
                    eval3(gate.kind(), ins.len(), |k| {
                        if k == pin {
                            stuck
                        } else {
                            faulty[ins[k].index()]
                        }
                    })
                };
                vals.store(base, g.index(), gv, fv, full);
            }
            // detection at primary outputs
            vals.detected[t] = nl.outputs().iter().any(|(_, g)| {
                let i = base + g.index();
                matches!((vals.good[i], vals.faulty[i]), (Some(a), Some(b)) if a != b)
            });
        }
        self.dirty = self.frames;
        vals.detected.iter().any(|&d| d)
    }

    fn good(&self, frame: usize, g: GateId) -> V {
        self.vals.good[frame * self.nl.num_gates() + g.index()]
    }

    fn faulty(&self, frame: usize, g: GateId) -> V {
        self.vals.faulty[frame * self.nl.num_gates() + g.index()]
    }

    /// Current objective: activate first, then propagate.
    fn objective(&self, fault: Fault) -> Option<(usize, GateId, bool)> {
        let site_net = |t: usize| -> (GateId, V) {
            match fault.site {
                FaultSite::Output(g) => (g, self.good(t, g)),
                FaultSite::Input(g, pin) => {
                    let src = self.nl.gates()[g.index()].inputs()[pin as usize];
                    (src, self.good(t, src))
                }
            }
        };
        // 1. activation: some frame where the site is X -> drive it to
        //    the non-stuck value.
        let mut activated = false;
        for t in 0..self.frames {
            let (g, v) = site_net(t);
            match v {
                None => return Some((t, g, !fault.stuck)),
                Some(x) if x != fault.stuck => activated = true,
                _ => {}
            }
        }
        if !activated {
            return None; // cannot activate under current assignments
        }
        // 2. propagation: D-frontier — a gate whose output is X while
        //    some input carries a good/faulty difference; objective: set
        //    an X side input to the non-controlling value.
        for t in 0..self.frames {
            for &g in &self.order {
                if self.good(t, g).is_some() && self.faulty(t, g).is_some() {
                    continue;
                }
                let gate = &self.nl.gates()[g.index()];
                let has_d = gate.inputs().iter().enumerate().any(|(pin, &i)| {
                    let gv = self.good(t, i);
                    let mut fv = self.faulty(t, i);
                    // an input-pin fault introduces the difference inside
                    // this very gate
                    if let FaultSite::Input(fg, fp) = fault.site {
                        if fg == g && usize::from(fp) == pin {
                            fv = Some(fault.stuck);
                        }
                    }
                    matches!((gv, fv), (Some(a), Some(b)) if a != b)
                });
                if !has_d {
                    continue;
                }
                for &i in gate.inputs() {
                    if self.good(t, i).is_none() {
                        let v = non_controlling(gate.kind());
                        return Some((t, i, v));
                    }
                }
            }
        }
        None
    }

    /// Backtrace an objective to an unassigned primary input: depth-
    /// first search over X-valued inputs (trying every X fan-in, not
    /// just the first, so an assigned PI on one path does not abort the
    /// whole objective).
    fn backtrace(&self, frame: usize, signal: GateId, value: bool) -> Option<(usize, usize, bool)> {
        let mut budget = self.nl.num_gates() * self.frames + 1;
        self.backtrace_dfs(frame, signal, value, &mut budget)
    }

    fn backtrace_dfs(
        &self,
        frame: usize,
        signal: GateId,
        value: bool,
        budget: &mut usize,
    ) -> Option<(usize, usize, bool)> {
        if *budget == 0 {
            return None;
        }
        *budget -= 1;
        let gate = &self.nl.gates()[signal.index()];
        match gate.kind() {
            GateKind::Input => {
                let pi = self.pi_of[signal.index()];
                if self.assign[frame * self.nl.inputs().len() + pi].is_none() {
                    Some((frame, pi, value))
                } else {
                    None
                }
            }
            GateKind::Dff => {
                if frame == 0 {
                    return None; // reset state is fixed
                }
                self.backtrace_dfs(frame - 1, gate.inputs()[0], value, budget)
            }
            GateKind::Const0 | GateKind::Const1 => None,
            kind => {
                let v = backtrace_value(kind, value);
                for &i in gate.inputs() {
                    if self.good(frame, i).is_none() {
                        if let Some(hit) = self.backtrace_dfs(frame, i, v, budget) {
                            return Some(hit);
                        }
                    }
                }
                None
            }
        }
    }
}

/// 3-valued evaluation of a `kind` gate with `arity` inputs, input `k`
/// read as `pin(k)` — straight from a value buffer, with no input
/// vector built.
#[inline]
fn eval3(kind: GateKind, arity: usize, pin: impl Fn(usize) -> V) -> V {
    match kind {
        GateKind::Buf => pin(0),
        GateKind::Not => pin(0).map(|v| !v),
        GateKind::And => controlled(arity, &pin, false),
        GateKind::Nand => controlled(arity, &pin, false).map(|x| !x),
        GateKind::Or => controlled(arity, &pin, true),
        GateKind::Nor => controlled(arity, &pin, true).map(|x| !x),
        GateKind::Xor => match (pin(0), pin(1)) {
            (Some(a), Some(b)) => Some(a ^ b),
            _ => None,
        },
        GateKind::Xnor => match (pin(0), pin(1)) {
            (Some(a), Some(b)) => Some(!(a ^ b)),
            _ => None,
        },
        GateKind::Mux => match pin(0) {
            Some(false) => pin(1),
            Some(true) => pin(2),
            None => match (pin(1), pin(2)) {
                (Some(a), Some(b)) if a == b => Some(a),
                _ => None,
            },
        },
        GateKind::Const0 => Some(false),
        GateKind::Const1 => Some(true),
        GateKind::Input | GateKind::Dff => None,
        // future kinds: unknown
        _ => None,
    }
}

/// N-ary AND (`controlling` = 0) or OR (`controlling` = 1): any
/// controlling input decides the output, else any X leaves it X.
#[inline]
fn controlled(arity: usize, pin: &impl Fn(usize) -> V, controlling: bool) -> V {
    let mut unknown = false;
    for k in 0..arity {
        match pin(k) {
            Some(b) if b == controlling => return Some(controlling),
            Some(_) => {}
            None => unknown = true,
        }
    }
    if unknown {
        None
    } else {
        Some(!controlling)
    }
}

/// Non-controlling input value of a gate kind (for propagation
/// objectives).
fn non_controlling(kind: GateKind) -> bool {
    match kind {
        GateKind::And | GateKind::Nand => true,
        GateKind::Or | GateKind::Nor => false,
        // XOR/MUX/INV have no controlling value; any binary side value
        // propagates — pick 0.
        _ => false,
    }
}

/// How a target value transforms when backtracing through a gate.
fn backtrace_value(kind: GateKind, value: bool) -> bool {
    match kind {
        GateKind::Nand | GateKind::Nor | GateKind::Not => !value,
        _ => value,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Combinational AND: PODEM finds a test for every collapsed fault.
    #[test]
    fn podem_covers_and_gate() {
        let mut nl = Netlist::new();
        let a = nl.input("a");
        let b = nl.input("b");
        let x = nl.gate(GateKind::And, &[a, b]);
        nl.output("x", x);
        let universe = crate::FaultUniverse::collapsed(&nl);
        let mut podem = Podem::new(nl, 1, 100);
        for &f in universe.faults() {
            match podem.generate(f) {
                PodemOutcome::Test(_) => {}
                other => panic!("{}: {other:?}", f.describe()),
            }
        }
    }

    /// A sequential fault needs more than one frame.
    #[test]
    fn podem_unrolls_frames() {
        // q.next = q ^ en, observed at output; en sa0 requires two frames
        let mut nl = Netlist::new();
        let q = nl.dff("q");
        let en = nl.input("en");
        let d = nl.gate(GateKind::Xor, &[q, en]);
        nl.connect_dff(q, d);
        nl.output("q", q);
        let fault = Fault {
            site: FaultSite::Output(en),
            stuck: false,
        };
        let mut podem1 = Podem::new(nl.clone(), 1, 100);
        assert_ne!(
            podem1.generate(fault),
            PodemOutcome::Test(vec![vec![true]]),
            "one frame cannot observe the diverged state"
        );
        let mut podem2 = Podem::new(nl, 3, 100);
        match podem2.generate(fault) {
            PodemOutcome::Test(t) => {
                assert!(t.iter().any(|frame| frame[0]), "en must be raised");
            }
            other => panic!("{other:?}"),
        }
    }

    /// Generated tests actually detect the fault (cross-check with the
    /// fault simulator).
    #[test]
    fn podem_tests_verified_by_fault_simulation() {
        let mut nl = Netlist::new();
        let a = nl.input("a");
        let b = nl.input("b");
        let q = nl.dff("r");
        let s = nl.gate(GateKind::Xor, &[a, b]);
        let d = nl.gate(GateKind::Or, &[s, q]);
        nl.connect_dff(q, d);
        nl.output("o", q);
        let universe = crate::FaultUniverse::collapsed(&nl);
        let mut podem = Podem::new(nl.clone(), 4, 200);
        let mut fs = crate::FaultSimulator::new(nl);
        let mut found = 0;
        for &f in universe.faults() {
            if let PodemOutcome::Test(t) = podem.generate(f) {
                let seq: Vec<Vec<u64>> = t
                    .iter()
                    .map(|frame| frame.iter().map(|&b| if b { !0u64 } else { 0 }).collect())
                    .collect();
                let trace = fs.good_trace(&seq);
                assert!(
                    fs.detects(&trace, &seq, f),
                    "PODEM test must detect {}",
                    f.describe()
                );
                found += 1;
            }
        }
        assert!(found > 0);
    }

    /// An untestable fault (redundant logic) is reported as such.
    #[test]
    fn redundant_fault_untestable() {
        // x = a & !a  is constant 0: sa0 on x is untestable
        let mut nl = Netlist::new();
        let a = nl.input("a");
        let na = nl.gate(GateKind::Not, &[a]);
        let x = nl.gate(GateKind::And, &[a, na]);
        nl.output("x", x);
        let fault = Fault {
            site: FaultSite::Output(x),
            stuck: false,
        };
        let mut podem = Podem::new(nl, 1, 100);
        assert_eq!(podem.generate(fault), PodemOutcome::Untestable);
    }

    #[test]
    fn eval3_semantics() {
        use GateKind::*;
        let eval3 = |kind, ins: &[V]| super::eval3(kind, ins.len(), |k| ins[k]);
        assert_eq!(eval3(And, &[Some(false), None]), Some(false));
        assert_eq!(eval3(And, &[Some(true), None]), None);
        assert_eq!(eval3(Or, &[Some(true), None]), Some(true));
        assert_eq!(eval3(Xor, &[Some(true), None]), None);
        assert_eq!(eval3(Mux, &[None, Some(true), Some(true)]), Some(true));
        assert_eq!(eval3(Mux, &[None, Some(true), Some(false)]), None);
        assert_eq!(eval3(Nand, &[Some(false), None]), Some(true));
    }
}
