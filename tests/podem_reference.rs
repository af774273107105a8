//! Independent oracle for PODEM's event-driven implication and
//! maintained D-frontier.
//!
//! `ReferencePodem` below is a verbatim copy of the PODEM engine from
//! before implication became incremental — full re-simulation of both
//! machines from frame 0 after every decision and backtrack, an input
//! `Vec` per gate evaluation, a scan of every gate of every frame for
//! the D-frontier — written against the public `Netlist` API only. The
//! shipped `hlts::atpg::Podem` must make exactly the same search: for
//! every collapsed fault (a seeded sample on generated graphs), with
//! all inputs free and under each of the deterministic phase's control
//! presets (up to three phase shifts), both return the same
//! `PodemOutcome` and consume the same number of backtracks. One
//! shipped instance serves every target, so stale buffers from an
//! earlier target would show up as a divergence.
//!
//! The tier-1 cases cover sampled faults of ex and paulin at 4 bits.
//! The same two designs with every collapsed fault free and under
//! phase 0, and the release matrix (the 4 paper benchmarks plus 32
//! generated graphs at 2–4 bits, and the graded-run benchmark corpus at
//! its widths) are ignored by default:
//!
//! ```text
//! cargo test --release --test podem_reference -- --ignored
//! ```

mod common;

use common::{control_presets, elaborated};
use hlts::atpg::{Fault, FaultSite, FaultUniverse, Podem, PodemOutcome};
use hlts::dfg::Dfg;
use hlts::netlist::{GateId, GateKind, Netlist};
use hlts::tcov::{AtpgConfig, TcovConfig};

/// Which targets to compare: every collapsed fault, or a seeded sample.
#[derive(Clone, Copy)]
enum Targets {
    All,
    Sample(usize),
}

/// Collapsed faults of `dfg` elaborated at `bits` through both engines
/// under the CLI's frame count and the given backtrack limit: `free`
/// with all inputs free and under phase 0's preset, `shifted` under
/// the other phase shifts. Returns how many calls were compared.
fn check(
    tag: &str,
    dfg: &Dfg,
    bits: u32,
    backtrack_limit: usize,
    free: Targets,
    shifted: Targets,
) -> usize {
    let (nl, steps) = elaborated(dfg, bits);
    let atpg = TcovConfig::for_schedule(steps, None, 1).atpg;
    let frames = atpg.frames;
    let presets = control_presets(&nl, frames);
    let universe = FaultUniverse::collapsed(&nl);
    let targets = |which: Targets| match which {
        Targets::All => universe.clone(),
        Targets::Sample(n) => universe.clone().sampled(n, atpg.seed),
    };
    let mut shipped = Podem::new(nl.clone(), frames, backtrack_limit);
    let mut reference = ReferencePodem::new(nl, frames, backtrack_limit);
    let mut compared = 0;
    let phase = |k: usize| (format!("phase {k}"), Some(&presets[k][..]));
    let unshifted = vec![("free".to_string(), None), phase(0)];
    let shifted_modes = (1..presets.len()).map(phase).collect();
    for (which, modes) in [(free, unshifted), (shifted, shifted_modes)] {
        for &fault in targets(which).faults() {
            for (label, p) in &modes {
                let (s0, r0) = (shipped.backtracks_used(), reference.backtracks_used());
                let got = shipped.generate_seeded(fault, *p);
                let want = reference.generate_seeded(fault, *p);
                let what = format!("{tag} {bits}-bit {} ({label})", fault.describe());
                assert_eq!(got, want, "{what}: outcome");
                assert_eq!(
                    shipped.backtracks_used() - s0,
                    reference.backtracks_used() - r0,
                    "{what}: backtracks"
                );
                compared += 1;
            }
        }
    }
    compared
}

/// Faults sampled per generated graph in the release matrix, as in the
/// tcov conformance matrix: with every collapsed fault, the reference
/// engine took 25 minutes of one core over the 32 graphs.
const GENERATED_SAMPLE: usize = 250;

/// The tier-1 cases run in debug builds, where the reference engine's
/// full re-simulation makes the CLI's limit of 100 backtracks per
/// target cost minutes. A limit of 3 still drives targets through
/// decisions, flips, pops and aborts; the release matrix runs the
/// CLI's limit.
const TIER1_LIMIT: usize = 3;

/// Faults the tier-1 cases compare free and under phase 0, and under
/// the phase-shifted presets: a debug-build budget of a few seconds.
const TIER1_SAMPLE: usize = 150;
const TIER1_SHIFTED_SAMPLE: usize = 40;

/// Faults the `*_every_fault` cases compare under the phase-shifted
/// presets (every fault runs free and under phase 0).
const FULL_SHIFTED_SAMPLE: usize = 200;

/// Compare ex or paulin at 4 bits with `TIER1_LIMIT`.
fn tier1(name: &str, free: Targets, shifted: Targets) {
    let dfg = hlts::benchmarks::by_name(name).expect("known benchmark");
    assert!(
        check(name, &dfg, 4, TIER1_LIMIT, free, shifted) > 0,
        "{name}: no faults"
    );
}

const TIER1_FREE: Targets = Targets::Sample(TIER1_SAMPLE);
const TIER1_SHIFTED: Targets = Targets::Sample(TIER1_SHIFTED_SAMPLE);
const FULL_SHIFTED: Targets = Targets::Sample(FULL_SHIFTED_SAMPLE);

#[test]
fn shipped_podem_matches_reference_on_ex() {
    tier1("ex", TIER1_FREE, TIER1_SHIFTED);
}

#[test]
fn shipped_podem_matches_reference_on_paulin() {
    tier1("paulin", TIER1_FREE, TIER1_SHIFTED);
}

#[test]
#[ignore = "release tier; run with -- --ignored"]
fn shipped_podem_matches_reference_on_ex_every_fault() {
    tier1("ex", Targets::All, FULL_SHIFTED);
}

#[test]
#[ignore = "release tier; run with -- --ignored"]
fn shipped_podem_matches_reference_on_paulin_every_fault() {
    tier1("paulin", Targets::All, FULL_SHIFTED);
}

/// One release-matrix workload: a paper benchmark at 2–4 bits (every
/// collapsed fault), or a generator preset's 8 seeded graphs (as in the
/// tcov conformance matrix), each at one width from 2–4 bits with a
/// 250-fault sample, all free and under every preset, with the CLI's
/// backtrack limit. Each workload is its own test so the harness
/// spreads the matrix over the host's cores.
fn matrix(workload: &str) {
    let limit = AtpgConfig::default().backtrack_limit;
    if let Some(dfg) = hlts::benchmarks::by_name(workload) {
        for bits in 2..=4 {
            check(workload, &dfg, bits, limit, Targets::All, Targets::All);
        }
        return;
    }
    let mut cfg = hlts::gen::preset(workload).expect("known preset");
    cfg.ops = cfg.ops.min(16);
    let sample = Targets::Sample(GENERATED_SAMPLE);
    for seed in 0..8u64 {
        let dfg = hlts::gen::generate(seed, &cfg).expect("generates");
        let bits = 2 + (seed % 3) as u32;
        check(
            &format!("{workload}-s{seed}"),
            &dfg,
            bits,
            limit,
            sample,
            sample,
        );
    }
}

macro_rules! matrix_tests {
    ($($name:ident => $workload:literal),* $(,)?) => {$(
        #[test]
        #[ignore = "release-tier matrix; run with -- --ignored"]
        fn $name() {
            matrix($workload);
        }
    )*};
}

matrix_tests! {
    podem_matrix_ex => "ex",
    podem_matrix_paulin => "paulin",
    podem_matrix_tseng => "tseng",
    podem_matrix_diffeq => "diffeq",
    podem_matrix_gen_balanced => "balanced",
    podem_matrix_gen_deep_arith => "deep-arith",
    podem_matrix_gen_wide_logic => "wide-logic",
    podem_matrix_gen_loopy_mul => "loopy-mul",
}

/// The graded-run benchmark corpus at the widths it grades them: ex,
/// dct, diffeq and paulin at 4 and 8 bits, tseng and ewf at 4, each a
/// 100-fault sample (the CLI's `--fault-sample 100`), free and under
/// every preset, with the CLI's backtrack limit.
#[test]
#[ignore = "release-tier matrix; run with -- --ignored"]
fn podem_matrix_graded_corpus() {
    let limit = AtpgConfig::default().backtrack_limit;
    let sample = Targets::Sample(100);
    for (name, widths) in [
        ("ex", &[4, 8][..]),
        ("dct", &[4, 8]),
        ("diffeq", &[4, 8]),
        ("paulin", &[4, 8]),
        ("tseng", &[4]),
        ("ewf", &[4]),
    ] {
        let dfg = hlts::benchmarks::by_name(name).expect("known benchmark");
        for &bits in widths {
            check(name, &dfg, bits, limit, sample, sample);
        }
    }
}

type V = Option<bool>;

/// The PODEM engine as it stood before implication became incremental:
/// every implication re-simulates both machines across all frames from
/// frame 0, building an input `Vec` per gate evaluation.
#[derive(Debug, Clone)]
pub struct ReferencePodem {
    nl: Netlist,
    order: Vec<GateId>,
    frames: usize,
    backtrack_limit: usize,
    backtracks_used: usize,
}

impl ReferencePodem {
    /// Create a generator unrolling `frames` time frames with the given
    /// backtrack limit.
    #[must_use]
    pub fn new(mut nl: Netlist, frames: usize, backtrack_limit: usize) -> Self {
        let order = nl.topo_levels();
        ReferencePodem {
            nl,
            order,
            frames: frames.max(1),
            backtrack_limit,
            backtracks_used: 0,
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
        // PI assignments: frame-major.
        let mut assign: Vec<Vec<V>> = vec![vec![None; num_pis]; self.frames];
        if let Some(p) = preset {
            for (f, row) in p.iter().enumerate().take(self.frames) {
                for (i, &v) in row.iter().enumerate().take(num_pis) {
                    assign[f][i] = v;
                }
            }
        }
        // decision stack: (frame, pi, value, tried_both)
        let mut stack: Vec<(usize, usize, bool, bool)> = Vec::new();
        let mut backtracks = 0usize;

        loop {
            let state = self.imply(&assign, fault);
            if state.detected {
                self.backtracks_used += backtracks;
                let test = assign
                    .iter()
                    .map(|frame| frame.iter().map(|v| v.unwrap_or(false)).collect())
                    .collect();
                return PodemOutcome::Test(test);
            }
            let objective = self.objective(&state, fault);
            let advanced = match objective {
                Some((frame, signal, value)) => {
                    match self.backtrace(&state, &assign, frame, signal, value) {
                        Some((f, pi, v)) => {
                            assign[f][pi] = Some(v);
                            stack.push((f, pi, v, false));
                            true
                        }
                        None => false,
                    }
                }
                None => false,
            };
            if advanced {
                continue;
            }
            // conflict: backtrack
            loop {
                match stack.pop() {
                    None => {
                        self.backtracks_used += backtracks;
                        return if backtracks >= self.backtrack_limit {
                            PodemOutcome::Aborted
                        } else {
                            PodemOutcome::Untestable
                        };
                    }
                    Some((f, pi, v, tried_both)) => {
                        assign[f][pi] = None;
                        backtracks += 1;
                        if backtracks >= self.backtrack_limit {
                            self.backtracks_used += backtracks;
                            return PodemOutcome::Aborted;
                        }
                        if !tried_both {
                            assign[f][pi] = Some(!v);
                            stack.push((f, pi, !v, true));
                            break;
                        }
                    }
                }
            }
        }
    }

    /// 3-valued forward simulation of both machines across all frames.
    fn imply(&self, assign: &[Vec<V>], fault: Fault) -> Frames {
        let n = self.nl.num_gates();
        let mut good: Vec<Vec<V>> = vec![vec![None; n]; self.frames];
        let mut faulty: Vec<Vec<V>> = vec![vec![None; n]; self.frames];
        let mut detected = false;

        // previous frame's D values per machine
        let dffs = self.nl.dffs().to_vec();
        let mut prev_good_d: Vec<V> = vec![Some(false); dffs.len()];
        let mut prev_faulty_d: Vec<V> = vec![Some(false); dffs.len()];

        for t in 0..self.frames {
            // sources
            for (i, g) in self.nl.gates().iter().enumerate() {
                let v = match g.kind() {
                    GateKind::Const0 => Some(false),
                    GateKind::Const1 => Some(true),
                    _ => continue,
                };
                good[t][i] = v;
                faulty[t][i] = v;
            }
            for (pi_idx, &g) in self.nl.inputs().iter().enumerate() {
                good[t][g.index()] = assign[t][pi_idx];
                faulty[t][g.index()] = assign[t][pi_idx];
            }
            for (k, &q) in dffs.iter().enumerate() {
                good[t][q.index()] = prev_good_d[k];
                faulty[t][q.index()] = prev_faulty_d[k];
            }
            // output-site injection on source nets
            if let FaultSite::Output(g) = fault.site {
                let kind = self.nl.gates()[g.index()].kind();
                if matches!(
                    kind,
                    GateKind::Input | GateKind::Dff | GateKind::Const0 | GateKind::Const1
                ) {
                    faulty[t][g.index()] = Some(fault.stuck);
                }
            }
            // combinational propagation
            for &g in &self.order {
                let gate = &self.nl.gates()[g.index()];
                let gv: Vec<V> = gate.inputs().iter().map(|&i| good[t][i.index()]).collect();
                good[t][g.index()] = eval3(gate.kind(), &gv);
                let mut fv: Vec<V> = gate
                    .inputs()
                    .iter()
                    .map(|&i| faulty[t][i.index()])
                    .collect();
                if let FaultSite::Input(fg, pin) = fault.site {
                    if fg == g {
                        fv[pin as usize] = Some(fault.stuck);
                    }
                }
                let mut out = eval3(gate.kind(), &fv);
                if fault.site == FaultSite::Output(g) {
                    out = Some(fault.stuck);
                }
                faulty[t][g.index()] = out;
            }
            // detection at primary outputs
            for (_, g) in self.nl.outputs() {
                if let (Some(a), Some(b)) = (good[t][g.index()], faulty[t][g.index()]) {
                    if a != b {
                        detected = true;
                    }
                }
            }
            // next-frame state with D-pin injection
            for (k, &q) in dffs.iter().enumerate() {
                let d = self.nl.gates()[q.index()].inputs()[0];
                prev_good_d[k] = good[t][d.index()];
                let mut fd = faulty[t][d.index()];
                if let FaultSite::Input(fg, 0) = fault.site {
                    if fg == q {
                        fd = Some(fault.stuck);
                    }
                }
                prev_faulty_d[k] = fd;
            }
        }
        Frames {
            good,
            faulty,
            detected,
        }
    }

    /// Current objective: activate first, then propagate.
    fn objective(&self, state: &Frames, fault: Fault) -> Option<(usize, GateId, bool)> {
        let site_net = |t: usize| -> (GateId, V) {
            match fault.site {
                FaultSite::Output(g) => (g, state.good[t][g.index()]),
                FaultSite::Input(g, pin) => {
                    let src = self.nl.gates()[g.index()].inputs()[pin as usize];
                    (src, state.good[t][src.index()])
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
                if state.good[t][g.index()].is_some() && state.faulty[t][g.index()].is_some() {
                    continue;
                }
                let gate = &self.nl.gates()[g.index()];
                let has_d = gate.inputs().iter().enumerate().any(|(pin, &i)| {
                    let gv = state.good[t][i.index()];
                    let mut fv = state.faulty[t][i.index()];
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
                    if state.good[t][i.index()].is_none() {
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
    fn backtrace(
        &self,
        state: &Frames,
        assign: &[Vec<V>],
        frame: usize,
        signal: GateId,
        value: bool,
    ) -> Option<(usize, usize, bool)> {
        let mut budget = self.nl.num_gates() * self.frames + 1;
        self.backtrace_dfs(state, assign, frame, signal, value, &mut budget)
    }

    fn backtrace_dfs(
        &self,
        state: &Frames,
        assign: &[Vec<V>],
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
                let pi = self
                    .nl
                    .inputs()
                    .iter()
                    .position(|&g| g == signal)
                    .expect("input gate registered");
                if assign[frame][pi].is_none() {
                    Some((frame, pi, value))
                } else {
                    None
                }
            }
            GateKind::Dff => {
                if frame == 0 {
                    return None; // reset state is fixed
                }
                self.backtrace_dfs(state, assign, frame - 1, gate.inputs()[0], value, budget)
            }
            GateKind::Const0 | GateKind::Const1 => None,
            kind => {
                let v = backtrace_value(kind, value);
                for &i in gate.inputs() {
                    if state.good[frame][i.index()].is_none() {
                        if let Some(hit) = self.backtrace_dfs(state, assign, frame, i, v, budget) {
                            return Some(hit);
                        }
                    }
                }
                None
            }
        }
    }
}

struct Frames {
    good: Vec<Vec<V>>,
    faulty: Vec<Vec<V>>,
    detected: bool,
}

/// 3-valued gate evaluation.
fn eval3(kind: GateKind, ins: &[V]) -> V {
    match kind {
        GateKind::Buf => ins[0],
        GateKind::Not => ins[0].map(|v| !v),
        GateKind::And | GateKind::Nand => {
            let v = if ins.contains(&Some(false)) {
                Some(false)
            } else if ins.iter().all(|i| i.is_some()) {
                Some(true)
            } else {
                None
            };
            if matches!(kind, GateKind::Nand) {
                v.map(|x| !x)
            } else {
                v
            }
        }
        GateKind::Or | GateKind::Nor => {
            let v = if ins.contains(&Some(true)) {
                Some(true)
            } else if ins.iter().all(|i| i.is_some()) {
                Some(false)
            } else {
                None
            };
            if matches!(kind, GateKind::Nor) {
                v.map(|x| !x)
            } else {
                v
            }
        }
        GateKind::Xor => match (ins[0], ins[1]) {
            (Some(a), Some(b)) => Some(a ^ b),
            _ => None,
        },
        GateKind::Xnor => match (ins[0], ins[1]) {
            (Some(a), Some(b)) => Some(!(a ^ b)),
            _ => None,
        },
        GateKind::Mux => match ins[0] {
            Some(false) => ins[1],
            Some(true) => ins[2],
            None => match (ins[1], ins[2]) {
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
