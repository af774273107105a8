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
//! ## Event-driven implication and a maintained D-frontier
//!
//! Implication runs after every decision and every backtrack, and the
//! objective is asked for after every implication, so the two are the
//! search's inner loop. [`Podem`] owns both machines' values for every
//! net of every frame in one flat `frames × gates` buffer, a byte per
//! net holding an "is 1" and an "is 0" bit per machine (X has neither),
//! so a gate evaluates both machines at once with a few bitwise
//! operations. It also owns the crate's shared levelized view of the
//! netlist (`Levels`, the one [`crate::FaultSimulator`] runs on too):
//! every combinational gate's *position* in topological order, the
//! nets it reads, and each net's fanout (the positions of the gates and
//! the flip-flops it feeds), as flat CSR arrays. Everything is sized
//! once, in [`Podem::new`]. Implication does only the work the
//! assignment's changes cause:
//!
//! * **Dirty frames.** A decision, a flip or a pop at frame `f` marks
//!   `f` touched and lowers the earliest dirty frame to `f`. Frames
//!   before it keep their values: a frame reads only its own inputs
//!   and the state that earlier frames latch.
//! * **Events.** In each frame from the dirty one on, events are seeded
//!   by the primary inputs of a touched frame that moved and by the
//!   flip-flops whose D net moved in the previous frame. A net that
//!   moves queues its combinational fanout on a bitset keyed by
//!   position, so the queue pops gates in topological order, each at
//!   most once per frame. A popped gate is re-evaluated and passes the
//!   event on only if its good or faulty value moved. A frame without
//!   events is skipped whole.
//! * **D-frontier.** Every evaluation also refreshes the gate's bit in
//!   its frame's frontier bitset, keyed by position: the bit is set when
//!   the gate's output is X in either machine, some input pin carries a
//!   good/faulty difference (the faulted pin of an input-pin fault read
//!   as stuck) and some input is X in the good machine. The bit depends
//!   only on the gate's own pins and output, and anything that changes
//!   them re-evaluates the gate, so the bitsets stay exact. The
//!   propagation objective is the lowest set bit of the first frame
//!   that has one, and that gate's first X input: exactly what a scan
//!   of every gate of every frame in topological order finds.
//!
//! [`Podem::new`] settles the buffer once, for the fault-free circuit
//! with every input X. Each call then starts from the buffer the
//! previous one left: the new assignment's differences are events like
//! a decision's, and when the target fault changes, so are — in every
//! frame — the nets and gates where the old and the new fault inject. After every implication the buffer holds
//! exactly what a full re-simulation from frame 0 would produce, so
//! objectives, backtraces, decisions and backtrack counts are those of
//! the full re-simulation engine — the search itself is unchanged.
//! Gates are evaluated straight from the buffer, with a faulted pin
//! overridden in place, so a warmed-up call that does not find a test
//! allocates nothing.

use hlts_netlist::{GateId, GateKind, Netlist};

use crate::levels::{is_source, Levels, Queue};
use crate::{Fault, FaultSite};

type V = Option<bool>;

/// `pi_of` entry of a gate that is not a primary input; `Site` entry
/// of a fault part that is absent.
const NONE: usize = usize::MAX;

// A net's values in both machines, packed in one byte: each machine has
// an "is 1" and an "is 0" bit, and X has neither. Gates then evaluate
// both machines at once with bitwise operations (see `eval_packed`).
/// Good machine is 1.
const G1: u8 = 0b0001;
/// Good machine is 0.
const G0: u8 = 0b0010;
/// Faulty machine is 1.
const F1: u8 = 0b0100;
/// Faulty machine is 0.
const F0: u8 = 0b1000;
const GOOD: u8 = G1 | G0;
const FAULTY: u8 = F1 | F0;
const ONES: u8 = G1 | F1;
const ZEROS: u8 = G0 | F0;

/// Both machines holding `v`.
fn pack(v: V) -> u8 {
    match v {
        Some(true) => ONES,
        Some(false) => ZEROS,
        None => 0,
    }
}

/// The good machine's value.
fn good_of(b: u8) -> V {
    match b & GOOD {
        G1 => Some(true),
        G0 => Some(false),
        _ => None,
    }
}

/// The faulty machine's value.
fn faulty_of(b: u8) -> V {
    good_of(b >> 2)
}

/// Both machines binary and different: the net carries D or D̄.
fn is_d(b: u8) -> bool {
    b == G1 | F0 || b == G0 | F1
}

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
    lv: Levels,
    frames: usize,
    backtrack_limit: usize,
    backtracks_used: usize,
    /// Gate index → primary-input index (`NONE` for other gates).
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
    /// Per frame: some assignment of the frame changed since the last
    /// implication.
    touched: Vec<bool>,
    /// Flip-flops (gate indices) whose D net moved in the previous
    /// frame, and those whose D net moved in the frame being simulated.
    latch: Vec<u32>,
    next_latch: Vec<u32>,
    /// Gates (by position) still to evaluate in the frame being
    /// simulated.
    queue: Queue,
    /// The fault the buffer holds: `Site::FREE` until the first call.
    site: Site,
    /// Source nets and gates to recompute in every frame at the next
    /// implication: where the previous and the new fault inject (while
    /// `new` settles the buffer: the constants and flip-flops).
    reseed: Vec<usize>,
}

/// Good and faulty values of every net in every frame, frame-major
/// (`frame * gates + gate`), and the D-frontier of every frame.
#[derive(Debug, Clone)]
struct Machines {
    /// Packed values of every net (`G1`, `G0`, `F1`, `F0` bits).
    nets: Vec<u8>,
    /// Per frame: some primary output differs between the machines.
    detected: Vec<bool>,
    /// Per frame, a bitset over positions (`frame * words + word`): the
    /// gate is on the D-frontier and has an X input (module docs).
    front: Vec<u64>,
    /// Per frame: the number of bits set in its `front` words.
    front_len: Vec<u32>,
    /// Words of one frame's bitset.
    words: usize,
}

impl Machines {
    /// Store net `g`'s packed values at `base` (its frame's offset);
    /// report whether they moved.
    fn store(&mut self, base: usize, g: usize, b: u8) -> bool {
        let moved = self.nets[base + g] != b;
        self.nets[base + g] = b;
        moved
    }

    /// Re-evaluate the combinational gate at position `p` in frame `t`,
    /// refresh its frontier bit, and report whether its good or faulty
    /// value moved.
    fn eval(&mut self, lv: &Levels, site: &Site, t: usize, p: usize) -> bool {
        let n = lv.num_nets;
        let base = t * n;
        let g = lv.order[p].index();
        let kind = lv.kinds[p];
        let ins = lv.fanin(p);
        let pin = site.pin_at(g);
        let nets = &self.nets[base..base + n];
        let read = |k: usize| {
            let b = nets[ins[k] as usize];
            if k == pin {
                (b & GOOD) | site.stuck
            } else {
                b
            }
        };
        let mut out = eval_packed(kind, ins.len(), read);
        if g == site.output {
            out = (out & GOOD) | site.stuck;
        }
        // D-frontier: output X in either machine, a D on some pin and
        // an X (good) input to set.
        let on = (out & GOOD == 0 || out & FAULTY == 0) && {
            let (mut d, mut x) = (false, false);
            for k in 0..ins.len() {
                let b = read(k);
                d |= is_d(b);
                x |= b & GOOD == 0;
            }
            d && x
        };
        let moved = self.store(base, g, out);
        let word = &mut self.front[t * self.words + p / 64];
        let bit = 1u64 << (p % 64);
        if on != (*word & bit != 0) {
            *word ^= bit;
            if on {
                self.front_len[t] += 1;
            } else {
                self.front_len[t] -= 1;
            }
        }
        moved
    }

    /// Recompute frame `t`'s detected flag from its primary outputs.
    fn detect(&mut self, nl: &Netlist, t: usize) {
        let base = t * nl.num_gates();
        self.detected[t] = nl
            .outputs()
            .iter()
            .any(|(_, g)| is_d(self.nets[base + g.index()]));
    }
}

/// The target fault resolved against the netlist: which net's output
/// and which gate pin read the stuck value (`NONE` when absent).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Site {
    /// The stuck value as faulty-machine bits (`F1` or `F0`).
    stuck: u8,
    /// Source net (input, flip-flop or constant) with a stuck output.
    source: usize,
    /// Combinational gate with a stuck output.
    output: usize,
    /// Gate (combinational or flip-flop) with a stuck input pin, and
    /// the pin.
    pin_gate: usize,
    pin: usize,
}

impl Site {
    /// No fault: both machines are the good one.
    const FREE: Site = Site {
        stuck: 0,
        source: NONE,
        output: NONE,
        pin_gate: NONE,
        pin: NONE,
    };

    fn new(nl: &Netlist, fault: Fault) -> Self {
        let mut site = Site {
            stuck: if fault.stuck { F1 } else { F0 },
            ..Site::FREE
        };
        match fault.site {
            FaultSite::Output(g) if is_source(nl.gates()[g.index()].kind()) => {
                site.source = g.index();
            }
            FaultSite::Output(g) => site.output = g.index(),
            FaultSite::Input(g, pin) => {
                site.pin_gate = g.index();
                site.pin = usize::from(pin);
            }
        }
        site
    }

    /// The stuck pin of gate `g` (`NONE` when it has none).
    fn pin_at(&self, g: usize) -> usize {
        if g == self.pin_gate {
            self.pin
        } else {
            NONE
        }
    }

    /// Source net `g`'s packed values given what it would carry
    /// fault-free.
    fn inject(&self, g: usize, b: u8) -> u8 {
        if g == self.source {
            (b & GOOD) | self.stuck
        } else {
            b
        }
    }
}

impl Podem {
    /// Create a generator unrolling `frames` time frames with the given
    /// backtrack limit.
    #[must_use]
    pub fn new(mut nl: Netlist, frames: usize, backtrack_limit: usize) -> Self {
        let lv = Levels::new(&mut nl);
        let frames = frames.max(1);
        let n = nl.num_gates();
        let mut pi_of = vec![NONE; n];
        for (pi, &g) in nl.inputs().iter().enumerate() {
            pi_of[g.index()] = pi;
        }
        let words = lv.words();
        // Every decision assigns a distinct free input, so the stack
        // never outgrows `frames × inputs`.
        let slots = frames * nl.inputs().len();
        let dffs = nl.dffs().len();
        // The zeroed buffer is every net X in every frame. Settling it
        // for the fault-free circuit with every input X needs events
        // only from the sources that are not X: constants and the
        // flip-flops' reset state.
        let mut reseed: Vec<usize> = (0..n)
            .filter(|&g| {
                let kind = nl.gates()[g].kind();
                kind.is_dff() || matches!(kind, GateKind::Const0 | GateKind::Const1)
            })
            .collect();
        // a change of target re-seeds at most 3 nets per fault
        reseed.reserve(6);
        let mut podem = Podem {
            nl,
            lv,
            frames,
            backtrack_limit,
            backtracks_used: 0,
            pi_of,
            assign: vec![None; slots],
            stack: Vec::with_capacity(slots),
            vals: Machines {
                nets: vec![0; frames * n],
                detected: vec![false; frames],
                front: vec![0; frames * words],
                front_len: vec![0; frames],
                words,
            },
            dirty: 0,
            touched: vec![false; frames],
            latch: Vec::with_capacity(dffs),
            next_latch: Vec::with_capacity(dffs),
            queue: Queue::new(words),
            site: Site::FREE,
            reseed,
        };
        podem.event_pass();
        podem
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
        self.start(preset);
        let mut backtracks = 0usize;

        loop {
            if self.imply(fault) {
                self.backtracks_used += backtracks;
                let num_pis = self.nl.inputs().len();
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

    /// Begin a call: the preset's assignment and an empty decision
    /// stack. Every frame is touched: the next implication compares each
    /// input with what the previous call left.
    fn start(&mut self, preset: Option<&[Vec<V>]>) {
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
        self.touched.fill(true);
        self.dirty = 0;
    }

    /// Assign primary input `pi` in `frame`; the frame becomes dirty.
    fn set(&mut self, frame: usize, pi: usize, v: V) {
        self.assign[frame * self.nl.inputs().len() + pi] = v;
        self.dirty = self.dirty.min(frame);
        self.touched[frame] = true;
    }

    /// Bring both machines and the D-frontier up to date with the
    /// assignment and the target fault (see the module docs) and report
    /// whether any frame detects the fault.
    fn imply(&mut self, fault: Fault) -> bool {
        let site = Site::new(&self.nl, fault);
        if site != self.site {
            for s in [self.site, site] {
                for g in [s.source, s.output, s.pin_gate] {
                    if g != NONE {
                        self.reseed.push(g);
                    }
                }
            }
            self.site = site;
            self.dirty = 0;
        }
        self.event_pass();
        self.vals.detected.iter().any(|&d| d)
    }

    /// Source net `g`'s values in frame `t`: its assignment, its
    /// constant, or what it latches (the reset state in frame 0, else
    /// frame `t - 1`'s D value, with D-pin injection).
    fn source(&self, t: usize, g: usize) -> u8 {
        let site = &self.site;
        let b = match self.nl.gates()[g].kind() {
            GateKind::Input => pack(self.assign[t * self.nl.inputs().len() + self.pi_of[g]]),
            GateKind::Const0 => ZEROS,
            GateKind::Const1 => ONES,
            _ if t == 0 => ZEROS,
            _ => {
                let d = self.vals.nets
                    [(t - 1) * self.lv.num_nets + self.nl.gates()[g].inputs()[0].index()];
                if site.pin_at(g) == 0 {
                    (d & GOOD) | site.stuck
                } else {
                    d
                }
            }
        };
        site.inject(g, b)
    }

    /// Recompute source net `g` in frame `t`; if it moved, pass the
    /// event on and report it.
    fn refresh_source(&mut self, t: usize, g: usize) -> bool {
        let b = self.source(t, g);
        let moved = self.vals.store(t * self.lv.num_nets, g, b);
        if moved {
            self.fanout(t, g);
        }
        moved
    }

    /// Re-simulate only what changed since the last implication reaches:
    /// the inputs of touched frames, the flip-flops whose D moved, and
    /// in every frame the nets and gates in `reseed`.
    fn event_pass(&mut self) {
        let num_pis = self.nl.inputs().len();
        let site = self.site;
        debug_assert!(self.latch.is_empty());
        for t in self.dirty..self.frames {
            let touched = std::mem::take(&mut self.touched[t]);
            if !touched && self.latch.is_empty() && self.reseed.is_empty() {
                continue; // nothing this frame reads has changed
            }
            let mut moved = false;
            if touched {
                // An input's faulty value follows its good value but for
                // injection, which only a change of fault moves (reseed).
                for pi in 0..num_pis {
                    let g = self.nl.inputs()[pi].index();
                    let b = self.vals.nets[t * self.lv.num_nets + g];
                    if b & GOOD != pack(self.assign[t * num_pis + pi]) & GOOD {
                        moved |= self.refresh_source(t, g);
                    }
                }
            }
            for k in 0..self.latch.len() {
                moved |= self.refresh_source(t, self.latch[k] as usize);
            }
            self.latch.clear();
            for k in 0..self.reseed.len() {
                let g = self.reseed[k];
                if is_source(self.nl.gates()[g].kind()) {
                    moved |= self.refresh_source(t, g);
                } else {
                    self.queue.push(self.lv.pos[g] as usize);
                }
            }
            while let Some(p) = self.queue.pop() {
                if self.vals.eval(&self.lv, &site, t, p) {
                    self.fanout(t, self.lv.order[p].index());
                    moved = true;
                }
            }
            if moved {
                self.vals.detect(&self.nl, t);
            }
            std::mem::swap(&mut self.latch, &mut self.next_latch);
        }
        self.reseed.clear();
        self.dirty = self.frames;
    }

    /// Net `g` moved in frame `t`: queue the gates it feeds, and the
    /// flip-flops it feeds for the next frame.
    fn fanout(&mut self, t: usize, g: usize) {
        let lv = &self.lv;
        for &p in lv.fanout(g) {
            self.queue.push(p as usize);
        }
        if t + 1 < self.frames {
            self.next_latch.extend_from_slice(lv.dff_fanout(g));
        }
    }

    fn good(&self, frame: usize, g: GateId) -> V {
        good_of(self.vals.nets[frame * self.lv.num_nets + g.index()])
    }

    /// Current objective: activate first, then propagate.
    fn objective(&self, fault: Fault) -> Option<(usize, GateId, bool)> {
        let site_net = match fault.site {
            FaultSite::Output(g) => g,
            FaultSite::Input(g, pin) => self.nl.gates()[g.index()].inputs()[pin as usize],
        };
        // 1. activation: some frame where the site is X -> drive it to
        //    the non-stuck value.
        let mut activated = false;
        for t in 0..self.frames {
            match self.good(t, site_net) {
                None => return Some((t, site_net, !fault.stuck)),
                Some(x) if x != fault.stuck => activated = true,
                _ => {}
            }
        }
        if !activated {
            return None; // cannot activate under current assignments
        }
        // 2. propagation: the first D-frontier gate (a gate whose output
        //    is X while some input carries a good/faulty difference)
        //    with an X input; objective: set that input to the
        //    non-controlling value.
        let t = (0..self.frames).find(|&t| self.vals.front_len[t] > 0)?;
        let words = self.vals.words;
        let (w, bits) = self.vals.front[t * words..(t + 1) * words]
            .iter()
            .enumerate()
            .find(|(_, &bits)| bits != 0)
            .expect("a frame's frontier count matches its bits");
        let gate = &self.nl.gates()[self.lv.order[w * 64 + bits.trailing_zeros() as usize].index()];
        let input = gate
            .inputs()
            .iter()
            .copied()
            .find(|&i| self.good(t, i).is_none())
            .expect("a frontier gate has an X input");
        Some((t, input, non_controlling(gate.kind())))
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

/// Hooks that drive one call's state by hand, for tests that check the
/// event-driven buffers and the maintained D-frontier against a full
/// re-simulation and a full scan. Not part of the supported API.
#[doc(hidden)]
impl Podem {
    /// Begin a call as [`Podem::generate_seeded`] does, without
    /// searching.
    pub fn probe_start(&mut self, preset: Option<&[Vec<V>]>) {
        self.start(preset);
    }

    /// Assign (or, with `None`, free) primary input `pi` in `frame`, as
    /// a decision, a flip or a pop does.
    pub fn probe_set(&mut self, frame: usize, pi: usize, v: V) {
        self.set(frame, pi, v);
    }

    /// Run one implication for `fault`; report whether a frame detects
    /// it.
    pub fn probe_imply(&mut self, fault: Fault) -> bool {
        self.imply(fault)
    }

    /// The good and faulty values of every net, frame-major
    /// (`frame * gates + gate`).
    #[must_use]
    pub fn probe_values(&self) -> (Vec<V>, Vec<V>) {
        let vals = &self.vals.nets;
        (
            vals.iter().map(|&b| good_of(b)).collect(),
            vals.iter().map(|&b| faulty_of(b)).collect(),
        )
    }

    /// The search's current objective: (frame, net, value).
    #[must_use]
    pub fn probe_objective(&self, fault: Fault) -> Option<(usize, GateId, bool)> {
        self.objective(fault)
    }
}

/// Evaluate a `kind` gate with `arity` inputs in both machines at once,
/// input `k` read packed as `pin(k)`. In each machine an AND's "is 1"
/// bit is the AND of its inputs' and its "is 0" bit their OR (dually
/// for OR), an inverter swaps the two bits, and XOR and MUX are the
/// sums of products of their truth tables; X (neither bit) falls out.
#[inline]
fn eval_packed(kind: GateKind, arity: usize, pin: impl Fn(usize) -> u8) -> u8 {
    let fold = || {
        (0..arity).fold((ONES | ZEROS, 0), |(all, any), k| {
            let b = pin(k);
            (all & b, any | b)
        })
    };
    match kind {
        GateKind::Buf => pin(0),
        GateKind::Not => swap(pin(0)),
        GateKind::And | GateKind::Nand => {
            let (all, any) = fold();
            let out = (all & ONES) | (any & ZEROS);
            if kind == GateKind::Nand {
                swap(out)
            } else {
                out
            }
        }
        GateKind::Or | GateKind::Nor => {
            let (all, any) = fold();
            let out = (any & ONES) | (all & ZEROS);
            if kind == GateKind::Nor {
                swap(out)
            } else {
                out
            }
        }
        GateKind::Xor | GateKind::Xnor => {
            let (a, b) = (pin(0), pin(1));
            // per machine, at the "is 1" bit: a1·b0 + a0·b1 (differ) and
            // a1·b1 + a0·b0 (agree)
            let differ = a & swap(b);
            let agree = a & b;
            let differ = (differ | differ >> 1) & ONES;
            let agree = (agree | agree >> 1) & ONES;
            let out = differ | agree << 1;
            if kind == GateKind::Xnor {
                swap(out)
            } else {
                out
            }
        }
        GateKind::Mux => {
            // sel ? b : a, and a when a == b whatever sel is
            let (sel, a, b) = (pin(0), pin(1), pin(2));
            let ones = ((sel >> 1) & a) | (sel & b) | (a & b);
            let zeros = (sel & a) | ((sel << 1) & b) | (a & b);
            (ones & ONES) | (zeros & ZEROS)
        }
        GateKind::Const0 => ZEROS,
        GateKind::Const1 => ONES,
        // sources and future kinds: unknown
        _ => 0,
    }
}

/// Swap each machine's "is 1" and "is 0" bits: logical inversion.
#[inline]
fn swap(b: u8) -> u8 {
    ((b & ONES) << 1) | ((b & ZEROS) >> 1)
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
        let fs = crate::FaultSimulator::new(nl);
        let mut scratch = fs.scratch();
        let mut found = 0;
        for &f in universe.faults() {
            if let PodemOutcome::Test(t) = podem.generate(f) {
                let seq: Vec<Vec<u64>> = t
                    .iter()
                    .map(|frame| frame.iter().map(|&b| if b { !0u64 } else { 0 }).collect())
                    .collect();
                let trace = fs.good_trace(&seq);
                assert!(
                    fs.detects(&mut scratch, &trace, f),
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

    /// Plain 3-valued evaluation of one machine.
    fn eval3(kind: GateKind, ins: &[V]) -> V {
        let and = if ins.contains(&Some(false)) {
            Some(false)
        } else if ins.iter().all(Option::is_some) {
            Some(true)
        } else {
            None
        };
        let or = if ins.contains(&Some(true)) {
            Some(true)
        } else if ins.iter().all(Option::is_some) {
            Some(false)
        } else {
            None
        };
        match kind {
            GateKind::Buf => ins[0],
            GateKind::Not => ins[0].map(|v| !v),
            GateKind::And => and,
            GateKind::Nand => and.map(|v| !v),
            GateKind::Or => or,
            GateKind::Nor => or.map(|v| !v),
            GateKind::Xor => ins[0].zip(ins[1]).map(|(a, b)| a ^ b),
            GateKind::Xnor => ins[0].zip(ins[1]).map(|(a, b)| a == b),
            GateKind::Mux => match ins[0] {
                Some(false) => ins[1],
                Some(true) => ins[2],
                None if ins[1] == ins[2] => ins[1],
                None => None,
            },
            _ => None,
        }
    }

    /// The packed evaluation computes each machine exactly as 3-valued
    /// evaluation does, for every kind, arity 1–3 and every pair of
    /// good and faulty input values.
    #[test]
    fn packed_evaluation_matches_3_valued_logic() {
        use GateKind::*;
        let values = [Some(false), Some(true), None];
        for (kind, arities) in [
            (Buf, 1..=1),
            (Not, 1..=1),
            (And, 2..=3),
            (Nand, 2..=3),
            (Or, 2..=3),
            (Nor, 2..=3),
            (Xor, 2..=2),
            (Xnor, 2..=2),
            (Mux, 3..=3),
        ] {
            for arity in arities {
                // every assignment of (good, faulty) to every input
                for code in 0..9usize.pow(arity as u32) {
                    let pair = |k: usize| {
                        let c = code / 9usize.pow(k as u32) % 9;
                        (values[c / 3], values[c % 3])
                    };
                    let good: Vec<V> = (0..arity).map(|k| pair(k).0).collect();
                    let faulty: Vec<V> = (0..arity).map(|k| pair(k).1).collect();
                    let out = eval_packed(kind, arity, |k| {
                        let (g, f) = pair(k);
                        (pack(g) & GOOD) | (pack(f) & FAULTY)
                    });
                    assert_eq!(good_of(out), eval3(kind, &good), "{kind:?} good {good:?}");
                    assert_eq!(
                        faulty_of(out),
                        eval3(kind, &faulty),
                        "{kind:?} faulty {faulty:?}"
                    );
                }
            }
        }
    }
}
