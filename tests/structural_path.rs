//! The structural data path equals the full lowering.
//!
//! Algorithm 1 prices and analyzes a design without building its ETPN:
//! `H` and the CC/SC/CO/SO analysis read the structural data path
//! ([`Etpn::data_path_of`]: nodes and `(from, to, port)` arcs, no
//! guards), and `E` the control part alone ([`Etpn::control_of`]). This
//! test checks that shortcut against [`Etpn::from_parts`] on every state
//! Algorithm 1 commits and on every trial merge it could price from
//! them. Each state must show:
//!
//! * the same nodes (kind) and arcs (from, to, port), in the same order
//!   and with the same adjacency lists, as the full lowering's data
//!   path;
//! * the same path under a second legal schedule of the same binding
//!   (every step shifted one later), so the path is a function of the
//!   binding alone — the premise of SR2 comparing `E` alone;
//! * bit-identical `estimate_cost`, `mux_count` (also against a per-port
//!   rescan written here) and `TestabilityAnalysis::analyze`;
//! * the full lowering's `E` from the control part, directly and through
//!   a `DeltaEvaluator`, whose `H` must match too.
//!
//! Trials are taken on every committed state: every pair of live
//! modules and every pair of live registers, merged in a rolled-back
//! transaction — a superset of the candidates Algorithm 1 shortlists.
//! The default case runs a strided sample on ex, dct and diffeq; the
//! release matrix runs every pair on the 6 paper benchmarks and 32
//! generated graphs, at 4 and 8 bits:
//!
//! ```text
//! cargo test --release --test structural_path -- --ignored
//! ```

use hlts::core::{
    merge_modules_with_resched, merge_registers_with_resched, trial_merge, DeltaEvaluator,
    DesignState, IntegratedSynthesizer, MergeKind, RunCtl, SynthesisParams, TraceMergeKind,
    TraceWinner,
};
use hlts::cost::{estimate_cost, ModuleLibrary};
use hlts::dfg::Dfg;
use hlts::etpn::{DataPath, Etpn};
use hlts::gen::{generate, preset, PRESET_NAMES};
use hlts::sched::{Lifetimes, Schedule};
use hlts::testability::{total_co_depth, TestabilityAnalysis};

/// Multiplexer count by one rescan of a node's in-arcs per port: the
/// count as `DataPath::mux_count` first computed it.
fn reference_mux_count(dp: &DataPath) -> usize {
    let mut total = 0;
    for node in dp.nodes() {
        let arcs = dp.in_arc_ids(node.id());
        let max_port = arcs.iter().map(|&a| dp.arc(a).port()).max().unwrap_or(0);
        for port in 0..=max_port {
            let fanin = arcs.iter().filter(|&&a| dp.arc(a).port() == port).count();
            total += fanin.saturating_sub(1);
        }
    }
    total
}

/// `got` has `want`'s nodes and arcs, in order, with the same adjacency.
fn assert_same_structure(tag: &str, got: &DataPath, want: &DataPath) {
    assert_eq!(got.num_nodes(), want.num_nodes(), "{tag}: node count");
    assert_eq!(got.num_arcs(), want.num_arcs(), "{tag}: arc count");
    for (g, w) in got.nodes().iter().zip(want.nodes()) {
        assert_eq!((g.id(), g.kind()), (w.id(), w.kind()), "{tag}: node");
        assert_eq!(
            got.in_arc_ids(g.id()),
            want.in_arc_ids(w.id()),
            "{tag}: in-arcs of {}",
            g.id()
        );
        assert_eq!(
            got.out_arc_ids(g.id()),
            want.out_arc_ids(w.id()),
            "{tag}: out-arcs of {}",
            g.id()
        );
    }
    for (g, w) in got.arcs().iter().zip(want.arcs()) {
        assert_eq!(
            (g.id(), g.from(), g.to(), g.port()),
            (w.id(), w.from(), w.to(), w.port()),
            "{tag}: arc"
        );
        assert!(
            g.guards().is_empty(),
            "{tag}: structural arc {} has guards",
            g.id()
        );
    }
}

/// `a` and `b` agree bit for bit on every node's controllability, every
/// arc's observability, and the sweep and update counts.
fn assert_same_analysis(
    tag: &str,
    dp: &DataPath,
    a: &TestabilityAnalysis,
    b: &TestabilityAnalysis,
) {
    for node in dp.nodes() {
        let (x, y) = (
            a.output_controllability(node.id()),
            b.output_controllability(node.id()),
        );
        assert_eq!(
            [x.cc, x.sc].map(f64::to_bits),
            [y.cc, y.sc].map(f64::to_bits),
            "{tag}: controllability of {}",
            node.id()
        );
    }
    for arc in dp.arcs() {
        let (x, y) = (a.arc_observability(arc.id()), b.arc_observability(arc.id()));
        assert_eq!(
            [x.co, x.so].map(f64::to_bits),
            [y.co, y.so].map(f64::to_bits),
            "{tag}: observability of {}",
            arc.id()
        );
    }
    assert_eq!(
        (a.sweeps_used(), a.updates_propagated()),
        (b.sweeps_used(), b.updates_propagated()),
        "{tag}: sweeps and updates"
    );
}

/// Every check of the module docs on one state.
fn check_state(tag: &str, state: &DesignState, bits: u32, lib: &ModuleLibrary) {
    let (dfg, schedule, alloc) = (&state.dfg, &state.schedule, &state.allocation);
    let full = Etpn::from_parts(dfg, schedule, alloc).expect("state lowers");
    let dp = state.data_path().expect("structural path");
    assert_same_structure(tag, &dp, full.data_path());

    // The same binding under a second legal schedule.
    let shifted = Schedule::from_step_vec(schedule.step_slice().iter().map(|s| s + 1).collect());
    shifted.validate(dfg).expect("shifted schedule is legal");
    shifted
        .validate_groups_src(dfg, alloc)
        .expect("shifted schedule keeps module sharing legal");
    alloc
        .validate(dfg, &shifted, &Lifetimes::compute(dfg, &shifted))
        .expect("shifted schedule keeps register sharing legal");
    let other = Etpn::data_path_of(dfg, &shifted, alloc).expect("shifted state lowers");
    assert_same_structure(&format!("{tag} (shifted schedule)"), &other, &dp);

    let (c, w) = (
        estimate_cost(&dp, bits, lib),
        estimate_cost(full.data_path(), bits, lib),
    );
    assert_eq!(
        [c.modules, c.registers, c.muxes, c.wires].map(f64::to_bits),
        [w.modules, w.registers, w.muxes, w.wires].map(f64::to_bits),
        "{tag}: area estimate"
    );
    assert_eq!(
        dp.mux_count(),
        reference_mux_count(full.data_path()),
        "{tag}: mux count"
    );

    let a = TestabilityAnalysis::analyze(&dp);
    let b = TestabilityAnalysis::analyze(full.data_path());
    assert_same_analysis(tag, &dp, &a, &b);
    assert_eq!(
        total_co_depth(&dp, &a).to_bits(),
        total_co_depth(full.data_path(), &b).to_bits(),
        "{tag}: SR1 depth"
    );

    let e = full.execution_time();
    assert_eq!(
        Etpn::execution_time_of(dfg, schedule),
        e,
        "{tag}: control-part E"
    );
    assert_eq!(
        Etpn::control_of(dfg, schedule).structural_hash(),
        full.control().structural_hash(),
        "{tag}: control part"
    );
    let (ev_e, ev_h) = DeltaEvaluator::new()
        .eval(state, bits, lib)
        .expect("evaluates");
    assert_eq!(ev_e, e, "{tag}: evaluator E");
    assert_eq!(ev_h.to_bits(), w.total().to_bits(), "{tag}: evaluator H");
}

/// Every pair of live modules and of live registers on `state`.
fn all_pairs(state: &DesignState) -> Vec<MergeKind> {
    let modules: Vec<_> = state.allocation.modules().map(|m| m.id()).collect();
    let registers: Vec<_> = state.allocation.registers().map(|r| r.id()).collect();
    let mut pairs = Vec::new();
    for (i, &a) in modules.iter().enumerate() {
        pairs.extend(modules[i + 1..].iter().map(|&b| MergeKind::Modules(a, b)));
    }
    for (i, &a) in registers.iter().enumerate() {
        pairs.extend(
            registers[i + 1..]
                .iter()
                .map(|&b| MergeKind::Registers(a, b)),
        );
    }
    pairs
}

/// Resolve a recorded winner on the replayed state (the trace names the
/// first op or value of each side).
fn resolve(state: &DesignState, w: &TraceWinner) -> MergeKind {
    match w.kind {
        TraceMergeKind::Modules => {
            let op = |s: &str| state.dfg.op_by_name(s).expect("recorded op");
            MergeKind::Modules(
                state.allocation.module_of(op(&w.sym_a)),
                state.allocation.module_of(op(&w.sym_b)),
            )
        }
        TraceMergeKind::Registers => {
            let reg = |s: &str| {
                let v = state.dfg.value_by_name(s).expect("recorded value");
                state.allocation.register_of(v).expect("registered value")
            };
            MergeKind::Registers(reg(&w.sym_a), reg(&w.sym_b))
        }
    }
}

/// Check the initial state, every state Algorithm 1 commits on `dfg` at
/// `bits`, and every `stride`-th pair trial on each. Returns the number
/// of (committed, trial) states checked.
fn check_run(tag: &str, dfg: &Dfg, bits: u32, stride: usize) -> (usize, usize) {
    let params = SynthesisParams::paper_defaults(bits);
    let lib = params.library.clone();
    let base = DesignState::initial(dfg).expect("initial state");
    let warm = IntegratedSynthesizer::new(params)
        .run_on_warm(&base, &DeltaEvaluator::new(), &RunCtl::none(), None)
        .expect("synthesis");
    let winners: Vec<&TraceWinner> = warm
        .trace
        .entries
        .iter()
        .filter_map(|e| e.winner.as_ref())
        .collect();
    let mut state = DesignState::initial(dfg).expect("initial state");
    let (mut committed, mut trials) = (0, 0);
    for i in 0..=winners.len() {
        let at = if i == 0 {
            "initial".to_owned()
        } else {
            format!("merge {}", i - 1)
        };
        check_state(&format!("{tag} {at}"), &state, bits, &lib);
        committed += 1;
        for kind in all_pairs(&state).into_iter().step_by(stride) {
            let checked = trial_merge(&mut state, kind, |trial| {
                check_state(&format!("{tag} {at} trial {kind:?}"), trial, bits, &lib);
                Some(())
            });
            trials += usize::from(checked.is_some());
        }
        let Some(w) = winners.get(i) else { break };
        match resolve(&state, w) {
            MergeKind::Modules(a, b) => merge_modules_with_resched(&mut state, a, b),
            MergeKind::Registers(a, b) => merge_registers_with_resched(&mut state, a, b),
        }
        .expect("recorded merge replays");
        assert_eq!(
            DeltaEvaluator::fingerprint(&state),
            w.fingerprint,
            "{tag}: replayed merge {i} drifted"
        );
    }
    assert_eq!(
        state.allocation, warm.result.allocation,
        "{tag}: replay end"
    );
    (committed, trials)
}

#[test]
fn structural_path_equals_full_lowering_on_small_benchmarks() {
    let (mut committed, mut trials) = (0, 0);
    for name in ["ex", "dct", "diffeq"] {
        let dfg = hlts::benchmarks::by_name(name).expect("bundled benchmark");
        let (c, t) = check_run(name, &dfg, 4, 3);
        committed += c;
        trials += t;
    }
    println!("{committed} committed states and {trials} trials checked");
    assert!(
        committed > 10 && trials > 20,
        "only {committed} states and {trials} trials checked"
    );
}

#[test]
#[ignore = "release matrix: every paper benchmark and 32 generated graphs, every pair trial"]
fn structural_path_equals_full_lowering_matrix() {
    let (mut committed, mut trials) = (0, 0);
    for bits in [4, 8] {
        let mut run = |tag: String, dfg: &Dfg| {
            let (c, t) = check_run(&tag, dfg, bits, 1);
            committed += c;
            trials += t;
        };
        for (name, dfg) in hlts::benchmarks::all() {
            run(format!("{name}@{bits}"), &dfg);
        }
        for p in PRESET_NAMES {
            let cfg = preset(p).expect("built-in preset");
            for seed in 0..8u64 {
                run(
                    format!("{p}/seed{seed}@{bits}"),
                    &generate(seed, &cfg).expect("generator"),
                );
            }
        }
    }
    println!("{committed} committed states and {trials} trials checked");
}
