//! Serial-fault, parallel-pattern fault simulation with fault dropping,
//! event-driven and limited to the fault's cone.
//!
//! A test sequence's good machine is recorded once, into a flat
//! `cycles × nets` [`GoodTrace`]: every net's 64-pattern word after
//! settling, per cycle. Both the trace and the faulty machines run on
//! the crate's shared levelized view of the netlist (`Levels`, the one
//! [`crate::Podem`] implies on): gates by topological position, their
//! fan-in, and each net's fanout as CSR arrays.
//!
//! A faulty machine is simulated only as its difference from the
//! trace. Per cycle, a net that differs carries its faulty word in an
//! overlay, stamped with the cycle's epoch; every other net reads the
//! trace. [`FaultSimulator::detects`] walks the sequence:
//!
//! * **Skipping.** A cycle in which no flip-flop holds a faulty state
//!   and the fault site is not activated (its good value equals the
//!   stuck value) is identical in both machines and costs one compare.
//!   Before the first activation that is every cycle.
//! * **Events.** Otherwise events are seeded by the flip-flops whose
//!   faulty state differs, by a stuck source net (an input, a constant
//!   or a flip-flop output, forced every cycle) and, on a cycle where
//!   the site is activated, by the gate a stuck gate output or a stuck
//!   gate pin belongs to. A net that differs queues its combinational
//!   fanout on a bitset keyed by position, so gates pop in topological
//!   order, each at most once per cycle, and only a gate with a
//!   differing input is re-evaluated.
//! * **Early exit.** Outputs are compared before the latch: detection
//!   is reported the moment a primary-output net differs.
//! * **Latch.** A net that differs hands its faulty word to the
//!   flip-flops it feeds as their next state; a stuck flip-flop D pin
//!   latches the stuck value. Those states seed the next cycle.
//!
//! The result equals a full re-simulation of the faulty machine from
//! reset, cycle by cycle. The overlay, the epoch marks and the queue
//! live in a [`FaultScratch`] the caller owns, so the simulator itself
//! is immutable while grading, and a warmed scratch grades a fault
//! without allocating.

use hlts_netlist::{GateKind, Netlist};

use crate::levels::{is_source, Levels, Queue};
use crate::{Fault, FaultSite};

/// One clock cycle's primary-input assignment: a 64-pattern word per
/// primary input, in the netlist's input order.
pub type PiAssign = Vec<u64>;

/// The recorded good-machine behavior of a test sequence: every net's
/// value after settling, per cycle. Record one with
/// [`FaultSimulator::good_trace`], or into a reused buffer with
/// [`FaultSimulator::record`].
#[derive(Debug, Clone, Default)]
pub struct GoodTrace {
    /// Every net's value per cycle, cycle-major (`cycle * nets + net`).
    values: Vec<u64>,
    /// Nets per cycle.
    nets: usize,
}

impl GoodTrace {
    /// Clock cycles recorded.
    #[must_use]
    pub fn cycles(&self) -> usize {
        self.values.len().checked_div(self.nets).unwrap_or(0)
    }

    /// Every net's value in `cycle`.
    fn cycle(&self, cycle: usize) -> &[u64] {
        &self.values[cycle * self.nets..(cycle + 1) * self.nets]
    }
}

/// Per-caller buffers of [`FaultSimulator::detects`]: the faulty
/// machine's difference overlay, its epoch marks, the event queue and
/// the flip-flop states that differ. Make one per thread with
/// [`FaultSimulator::scratch`]; any scratch works with any simulator
/// (it is resized on first use), and a warmed one is never reallocated.
#[derive(Debug, Clone)]
pub struct FaultScratch {
    /// Net index → the epoch in which `over` last held its faulty word:
    /// the net differs in the current cycle iff its mark equals
    /// `epoch`.
    mark: Vec<u32>,
    /// Net index → its faulty word (valid while marked).
    over: Vec<u64>,
    /// The current cycle's stamp.
    epoch: u32,
    /// Gates (by position) still to evaluate this cycle.
    queue: Queue,
    /// Flip-flops (gate indices) whose faulty state differs, with that
    /// state: entering the current cycle, and latched for the next.
    state: Vec<(u32, u64)>,
    next_state: Vec<(u32, u64)>,
}

impl FaultScratch {
    /// Size the buffers for `lv` (a no-op once they fit).
    fn fit(&mut self, lv: &Levels, dffs: usize) {
        if self.mark.len() != lv.num_nets {
            self.mark = vec![0; lv.num_nets];
            self.over = vec![0; lv.num_nets];
            self.epoch = 0;
        }
        if self.queue.words() != lv.words() {
            self.queue = Queue::new(lv.words());
        }
        self.state.reserve(dffs);
        self.next_state.reserve(dffs);
    }

    /// Open a new cycle: no net differs yet.
    fn next_epoch(&mut self) {
        if self.epoch == u32::MAX {
            self.mark.fill(0);
            self.epoch = 0;
        }
        self.epoch += 1;
    }

    /// The faulty word of net `g` this cycle.
    #[inline]
    fn read(&self, good: &[u64], g: usize) -> u64 {
        if self.mark[g] == self.epoch {
            self.over[g]
        } else {
            good[g]
        }
    }
}

/// The fault resolved against the netlist: the stuck word, where it is
/// injected (`NONE` when absent), and the net whose good value decides
/// whether a cycle activates it.
#[derive(Debug, Clone, Copy)]
struct Site {
    stuck: u64,
    /// Net whose good value differs from `stuck` exactly on activation.
    net: usize,
    /// Source net (input, flip-flop or constant) with a stuck output.
    source: usize,
    /// Combinational gate whose output or one of whose pins is stuck.
    gate: usize,
    /// The stuck pin of `gate` (`NONE` for a stuck output).
    pin: usize,
    /// Flip-flop with a stuck D pin.
    dpin: usize,
}

const NONE: usize = usize::MAX;

impl Site {
    fn new(nl: &Netlist, fault: Fault) -> Self {
        let mut site = Site {
            stuck: if fault.stuck { !0 } else { 0 },
            net: NONE,
            source: NONE,
            gate: NONE,
            pin: NONE,
            dpin: NONE,
        };
        match fault.site {
            FaultSite::Output(g) => {
                site.net = g.index();
                if is_source(nl.gates()[g.index()].kind()) {
                    site.source = g.index();
                } else {
                    site.gate = g.index();
                }
            }
            FaultSite::Input(g, pin) => {
                let gate = &nl.gates()[g.index()];
                site.net = gate.inputs()[usize::from(pin)].index();
                if gate.kind().is_dff() {
                    site.dpin = g.index();
                } else {
                    site.gate = g.index();
                    site.pin = usize::from(pin);
                }
            }
        }
        site
    }
}

/// A serial-fault, 64-pattern-parallel, event-driven fault simulator
/// (see the module docs).
///
/// A fault is *detected* when any primary output differs from the good
/// machine in any pattern of any cycle, outputs compared before the
/// clock edge.
#[derive(Debug, Clone)]
pub struct FaultSimulator {
    nl: Netlist,
    lv: Levels,
    /// Net index → drives a primary output.
    observed: Vec<bool>,
    /// Constant-1 nets (every other net is written each cycle or 0).
    ones: Vec<u32>,
    /// Flip-flops with their D nets, as (Q, D) gate indices.
    latches: Vec<(u32, u32)>,
}

impl FaultSimulator {
    /// Wrap a netlist (levelizes it once).
    #[must_use]
    pub fn new(mut nl: Netlist) -> Self {
        let lv = Levels::new(&mut nl);
        let mut observed = vec![false; nl.num_gates()];
        for (_, g) in nl.outputs() {
            observed[g.index()] = true;
        }
        let index = |i: usize| u32::try_from(i).expect("netlist fits u32 indices");
        let ones = (0..nl.num_gates())
            .filter(|&g| nl.gates()[g].kind() == GateKind::Const1)
            .map(index)
            .collect();
        let latches = nl
            .dffs()
            .iter()
            .map(|&q| {
                let d = nl.gates()[q.index()].inputs()[0];
                (index(q.index()), index(d.index()))
            })
            .collect();
        FaultSimulator {
            nl,
            lv,
            observed,
            ones,
            latches,
        }
    }

    /// The wrapped netlist.
    #[must_use]
    pub fn netlist(&self) -> &Netlist {
        &self.nl
    }

    /// Fresh per-caller buffers for [`FaultSimulator::detects`], sized
    /// for this netlist.
    #[must_use]
    pub fn scratch(&self) -> FaultScratch {
        let mut scratch = FaultScratch {
            mark: Vec::new(),
            over: Vec::new(),
            epoch: 0,
            queue: Queue::new(0),
            state: Vec::new(),
            next_state: Vec::new(),
        };
        scratch.fit(&self.lv, self.latches.len());
        scratch
    }

    /// Simulate the good machine over `seq` from reset (flip-flops 0),
    /// recording every net value per cycle.
    #[must_use]
    pub fn good_trace(&self, seq: &[PiAssign]) -> GoodTrace {
        let mut trace = GoodTrace::default();
        self.record(seq, &mut trace);
        trace
    }

    /// [`FaultSimulator::good_trace`] into `trace`, reusing its buffer.
    /// An input an assignment leaves out keeps its previous cycle's
    /// value (0 from reset).
    pub fn record(&self, seq: &[PiAssign], trace: &mut GoodTrace) {
        let n = self.lv.num_nets;
        trace.nets = n;
        trace.values.clear();
        trace.values.resize(seq.len() * n, 0);
        for (c, assign) in seq.iter().enumerate() {
            let (done, rest) = trace.values.split_at_mut(c * n);
            let prev = if c == 0 {
                &[][..]
            } else {
                &done[(c - 1) * n..]
            };
            let cur = &mut rest[..n];
            for &g in &self.ones {
                cur[g as usize] = !0;
            }
            for (i, g) in self.nl.inputs().iter().enumerate() {
                let g = g.index();
                cur[g] = match assign.get(i) {
                    Some(&v) => v,
                    None => prev.get(g).copied().unwrap_or(0),
                };
            }
            for &(q, d) in &self.latches {
                cur[q as usize] = prev.get(d as usize).copied().unwrap_or(0);
            }
            for (p, &g) in self.lv.order.iter().enumerate() {
                let ins = self.lv.fanin(p);
                let v = eval_word(self.lv.kinds[p], ins.len(), |k| cur[ins[k] as usize]);
                cur[g.index()] = v;
            }
        }
    }

    /// Whether the sequence recorded in `trace` detects `fault`,
    /// simulating only the faulty machine's difference from the trace
    /// (see the module docs). Allocates nothing once `scratch` has
    /// served this netlist.
    #[must_use]
    pub fn detects(&self, scratch: &mut FaultScratch, trace: &GoodTrace, fault: Fault) -> bool {
        let site = Site::new(&self.nl, fault);
        let s = scratch;
        s.fit(&self.lv, self.latches.len());
        s.state.clear();
        s.queue.clear();
        for c in 0..trace.cycles() {
            let good = trace.cycle(c);
            let active = good[site.net] != site.stuck;
            if !active && s.state.is_empty() {
                continue; // both machines coincide this whole cycle
            }
            if self.cycle(s, &site, good, active) {
                return true;
            }
        }
        false
    }

    /// Simulate one cycle of the faulty machine's difference; report
    /// whether a primary output differs. Leaves the flip-flop states
    /// that differ after the clock edge in `s.state`.
    fn cycle(&self, s: &mut FaultScratch, site: &Site, good: &[u64], active: bool) -> bool {
        let lv = &self.lv;
        s.next_epoch();
        s.next_state.clear();
        for k in 0..s.state.len() {
            let (q, v) = s.state[k];
            if q as usize != site.source && self.differ(s, site, good, q as usize, v) {
                return true;
            }
        }
        if site.source != NONE && self.differ(s, site, good, site.source, site.stuck) {
            return true;
        }
        if active && site.gate != NONE {
            s.queue.push(lv.pos[site.gate] as usize);
        }
        while let Some(p) = s.queue.pop() {
            let g = lv.order[p].index();
            let ins = lv.fanin(p);
            let pin = if g == site.gate { site.pin } else { NONE };
            let mut v = eval_word(lv.kinds[p], ins.len(), |k| {
                if k == pin {
                    site.stuck
                } else {
                    s.read(good, ins[k] as usize)
                }
            });
            if g == site.gate && site.pin == NONE {
                v = site.stuck;
            }
            if self.differ(s, site, good, g, v) {
                return true;
            }
        }
        if active && site.dpin != NONE {
            s.next_state.push((site.dpin as u32, site.stuck));
        }
        std::mem::swap(&mut s.state, &mut s.next_state);
        false
    }

    /// Net `g` carries `v` in the faulty machine this cycle. If that
    /// differs from the good machine, overlay it, queue its fanout and
    /// hand it to the flip-flops it feeds; report whether `g` is an
    /// observed (primary-output) net that differs.
    #[inline]
    fn differ(&self, s: &mut FaultScratch, site: &Site, good: &[u64], g: usize, v: u64) -> bool {
        if v == good[g] {
            return false;
        }
        s.mark[g] = s.epoch;
        s.over[g] = v;
        for &p in self.lv.fanout(g) {
            s.queue.push(p as usize);
        }
        for &q in self.lv.dff_fanout(g) {
            if q as usize != site.dpin {
                s.next_state.push((q, v));
            }
        }
        self.observed[g]
    }

    /// Fault-simulate `seq` against `faults`; `detected[i]` is updated
    /// to `true` for each newly detected fault (already-true entries are
    /// skipped — fault dropping). Returns how many new detections
    /// occurred.
    pub fn run(&self, seq: &[PiAssign], faults: &[Fault], detected: &mut [bool]) -> usize {
        let trace = self.good_trace(seq);
        let mut scratch = self.scratch();
        let mut newly = 0;
        for (i, &f) in faults.iter().enumerate() {
            if !detected[i] && self.detects(&mut scratch, &trace, f) {
                detected[i] = true;
                newly += 1;
            }
        }
        newly
    }
}

/// Evaluate a combinational `kind` gate with `arity` inputs over 64
/// patterns, input `k` read as `pin(k)` — [`GateKind::eval`] without
/// gathering the inputs into a slice.
#[inline]
fn eval_word(kind: GateKind, arity: usize, pin: impl Fn(usize) -> u64) -> u64 {
    let and = || (0..arity).fold(!0, |acc, k| acc & pin(k));
    let or = || (0..arity).fold(0, |acc, k| acc | pin(k));
    match kind {
        GateKind::Buf => pin(0),
        GateKind::Not => !pin(0),
        GateKind::And => and(),
        GateKind::Or => or(),
        GateKind::Nand => !and(),
        GateKind::Nor => !or(),
        GateKind::Xor => pin(0) ^ pin(1),
        GateKind::Xnor => !(pin(0) ^ pin(1)),
        GateKind::Mux => {
            let sel = pin(0);
            (!sel & pin(1)) | (sel & pin(2))
        }
        kind => kind.eval(&[]),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::FaultUniverse;

    /// Combinational AND with both inputs driven: every collapsed fault
    /// is detectable by exhaustive patterns.
    #[test]
    fn exhaustive_patterns_detect_all_and_faults() {
        let mut nl = Netlist::new();
        let a = nl.input("a");
        let b = nl.input("b");
        let x = nl.gate(GateKind::And, &[a, b]);
        nl.output("x", x);
        let universe = FaultUniverse::collapsed(&nl);
        let fs = FaultSimulator::new(nl);
        // patterns: bit0 = (0,0), bit1 = (0,1), bit2 = (1,0), bit3 = (1,1)
        let seq = vec![vec![0b1100u64, 0b1010u64]];
        let mut det = vec![false; universe.len()];
        let n = fs.run(&seq, universe.faults(), &mut det);
        assert_eq!(n, universe.len(), "{det:?}");
    }

    /// A fault on state-feedback logic needs multiple cycles.
    #[test]
    fn sequential_fault_needs_cycles() {
        // toggle flop observed at output; en stuck-at-0 stops toggling
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
        let fs = FaultSimulator::new(nl);
        let mut scratch = fs.scratch();
        // one cycle with en=1: output still reads pre-clock q (0 both) —
        // not detected; after the clock the states diverge.
        let seq1 = vec![vec![1u64]];
        let trace1 = fs.good_trace(&seq1);
        assert!(!fs.detects(&mut scratch, &trace1, fault));
        // two cycles: second cycle observes the diverged state.
        let seq2 = vec![vec![1u64], vec![0u64]];
        let trace2 = fs.good_trace(&seq2);
        assert!(fs.detects(&mut scratch, &trace2, fault));
    }

    #[test]
    fn undetectable_without_activation() {
        let mut nl = Netlist::new();
        let a = nl.input("a");
        let b = nl.input("b");
        let x = nl.gate(GateKind::And, &[a, b]);
        nl.output("x", x);
        let fault = Fault {
            site: FaultSite::Output(x),
            stuck: false,
        };
        let fs = FaultSimulator::new(nl);
        // output is 0 anyway: sa0 never activated
        let seq = vec![vec![0u64, !0u64]];
        let trace = fs.good_trace(&seq);
        assert!(!fs.detects(&mut fs.scratch(), &trace, fault));
    }

    #[test]
    fn fault_dropping_skips_detected() {
        let mut nl = Netlist::new();
        let a = nl.input("a");
        let x = nl.gate(GateKind::Not, &[a]);
        nl.output("x", x);
        let universe = FaultUniverse::collapsed(&nl);
        let fs = FaultSimulator::new(nl);
        let seq = vec![vec![0b01u64]];
        let mut det = vec![false; universe.len()];
        let first = fs.run(&seq, universe.faults(), &mut det);
        let second = fs.run(&seq, universe.faults(), &mut det);
        assert!(first > 0);
        assert_eq!(second, 0, "already-detected faults are dropped");
    }

    /// The recorded trace is the levelized simulator's, cycle by cycle.
    #[test]
    fn good_trace_matches_the_cycle_simulator() {
        let mut nl = Netlist::new();
        let a = nl.input("a");
        let one = nl.constant(true);
        let q = nl.dff("q");
        let x = nl.gate(GateKind::Xor, &[q, a]);
        let y = nl.gate(GateKind::And, &[x, one]);
        nl.connect_dff(q, y);
        nl.output("y", y);
        let seq = vec![vec![0b0110u64], vec![0b1010], vec![0b0011]];
        let fs = FaultSimulator::new(nl.clone());
        let mut trace = GoodTrace::default();
        fs.record(&seq, &mut trace);
        assert_eq!(trace.cycles(), 3);
        let mut sim = crate::Simulator::new(nl.clone());
        for (c, assign) in seq.iter().enumerate() {
            sim.set_input(0, assign[0]);
            sim.settle();
            for g in 0..nl.num_gates() {
                let id = hlts_netlist::GateId::from_index(g);
                assert_eq!(trace.cycle(c)[g], sim.value(id), "cycle {c} net {g}");
            }
            sim.clock();
        }
    }
}
