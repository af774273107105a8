//! Independent oracle for the dense-grid floorplan.
//!
//! `reference_place` below is a verbatim copy of the placement from
//! before it moved onto a dense occupancy grid — a `HashMap` of taken
//! cells, per-step `Vec` neighbour lists and anchor lists, the cost
//! summed over the anchors for every scanned cell — written against the
//! public `DataPath` API only. `reference_estimate` is the matching
//! copy of the area estimate (including the class set `fu_area` used to
//! build). The shipped [`Floorplan::place`] must put every node on the
//! same cell, and [`estimate_cost`] must return the same bits, on the
//! data path of every state Algorithm 1 commits: the initial one-to-one
//! design and the design after each committed merge, replayed from the
//! run's merge trace.
//!
//! The default case covers ex, dct and diffeq at 4 bits. The release
//! matrix (the 6 paper benchmarks and 32 generated graphs, 4 and 8
//! bits) is ignored by default:
//!
//! ```text
//! cargo test --release -p hlts-cost --test floorplan_reference -- --ignored
//! ```

use std::collections::{BTreeSet, HashMap};

use hlts_core::{
    merge_modules_with_resched, merge_registers_with_resched, DeltaEvaluator, DesignState,
    IntegratedSynthesizer, MergeKind, RunCtl, SynthesisParams, TraceMergeKind, TraceWinner,
};
use hlts_cost::{estimate_cost, Floorplan, ModuleLibrary};
use hlts_dfg::{Dfg, FuClass, OpKind};
use hlts_etpn::{DataPath, DpNodeKind};
use hlts_gen::{generate, preset, PRESET_NAMES};

/// The original placement: positions by node index.
fn reference_place(dp: &DataPath) -> Vec<(i32, i32)> {
    let n = dp.num_nodes();
    let mut pos: Vec<Option<(i32, i32)>> = vec![None; n];
    if n == 0 {
        return Vec::new();
    }
    // connection counts (parallel arcs each count)
    let mut degree = vec![0usize; n];
    let mut neighbors: Vec<Vec<usize>> = vec![Vec::new(); n];
    for arc in dp.arcs() {
        let (a, b) = (arc.from().index(), arc.to().index());
        if a == b {
            continue;
        }
        degree[a] += 1;
        degree[b] += 1;
        neighbors[a].push(b);
        neighbors[b].push(a);
    }

    let mut occupied: HashMap<(i32, i32), usize> = HashMap::new();
    // seed: the most connected node at the origin
    let seed = (0..n)
        .max_by_key(|&i| (degree[i], usize::MAX - i))
        .unwrap_or(0);
    pos[seed] = Some((0, 0));
    occupied.insert((0, 0), seed);

    for _ in 1..n {
        // next: unplaced node with most placed neighbors; ties by
        // total degree then id
        let next = (0..n)
            .filter(|&i| pos[i].is_none())
            .max_by_key(|&i| {
                let placed = neighbors[i].iter().filter(|&&j| pos[j].is_some()).count();
                (placed, degree[i], usize::MAX - i)
            })
            .expect("an unplaced node remains");
        let anchors: Vec<(i32, i32)> = neighbors[next].iter().filter_map(|&j| pos[j]).collect();
        let target = reference_best_free_cell(&occupied, &anchors);
        pos[next] = Some(target);
        occupied.insert(target, next);
    }

    pos.into_iter().map(|p| p.expect("all placed")).collect()
}

/// The free cell minimizing total Manhattan distance to `anchors`
/// (spiral search around the anchors' centroid; origin when no anchor).
fn reference_best_free_cell(
    occupied: &HashMap<(i32, i32), usize>,
    anchors: &[(i32, i32)],
) -> (i32, i32) {
    let (cx, cy) = if anchors.is_empty() {
        (0, 0)
    } else {
        (
            anchors.iter().map(|p| p.0).sum::<i32>() / anchors.len() as i32,
            anchors.iter().map(|p| p.1).sum::<i32>() / anchors.len() as i32,
        )
    };
    let cost = |x: i32, y: i32| -> i64 {
        anchors
            .iter()
            .map(|&(ax, ay)| i64::from((x - ax).abs() + (y - ay).abs()))
            .sum()
    };
    let mut best: Option<((i32, i32), i64)> = None;
    for radius in 0.. {
        // scan the square ring at `radius`
        for dx in -radius..=radius {
            for dy in [-radius, radius] {
                for (x, y) in [(cx + dx, cy + dy), (cx + dy, cy + dx)] {
                    if occupied.contains_key(&(x, y)) {
                        continue;
                    }
                    let c = cost(x, y);
                    if best.is_none_or(|(_, bc)| {
                        c < bc || (c == bc && (y, x) < (best.unwrap().0 .1, best.unwrap().0 .0))
                    }) {
                        best = Some(((x, y), c));
                    }
                }
            }
        }
        // Once a candidate exists and the ring is beyond any possible
        // improvement, stop: distance to centroid grows with radius.
        if let Some((_, bc)) = best {
            let lower_bound = anchors
                .iter()
                .map(|&(ax, ay)| i64::from((radius - (cx - ax).abs() - (cy - ay).abs()).max(0)))
                .sum::<i64>();
            if i64::from(radius) > bc || lower_bound > bc {
                break;
            }
        }
        if radius > 512 {
            break; // safety bound for degenerate inputs
        }
    }
    best.expect("grid has free cells").0
}

/// The original `fu_area`, class set and all.
fn reference_fu_area(lib: &ModuleLibrary, kinds: &BTreeSet<OpKind>, bits: u32) -> f64 {
    let b = f64::from(bits);
    let classes: BTreeSet<FuClass> = kinds.iter().map(|k| k.fu_class()).collect();
    let mut area: f64 = 0.0;
    for class in &classes {
        area = area.max(match class {
            FuClass::Multiplier => lib.mul_per_bit2 * b * b,
            FuClass::AddSub => lib.addsub_per_bit * b,
            FuClass::Compare => lib.cmp_per_bit * b,
            FuClass::Logic => lib.logic_per_bit * b,
            FuClass::Shift => lib.shift_per_bit * b,
            FuClass::Move => 0.0,
            // future classes: price like an ALU slice
            _ => lib.addsub_per_bit * b,
        });
    }
    // distinct operations beyond the first on one unit cost control
    // and datapath upgrades (e.g. add+sub ALU, added comparator mode)
    let extra = kinds.len().saturating_sub(1) as f64;
    area + extra * lib.alu_extra_per_bit * b
}

/// The original `estimate_cost` over the reference placement.
fn reference_estimate(dp: &DataPath, bits: u32, lib: &ModuleLibrary) -> [f64; 4] {
    let pos = reference_place(dp);
    let (mut modules, mut registers, mut wires) = (0.0, 0.0, 0.0);
    for node in dp.nodes() {
        match node.kind() {
            DpNodeKind::Module { kinds, .. } => modules += reference_fu_area(lib, kinds, bits),
            DpNodeKind::Register(_) => registers += lib.register_area(bits),
            _ => {}
        }
    }
    let muxes = lib.mux_area(dp.mux_count(), bits);
    for arc in dp.arcs() {
        let w = if matches!(dp.node(arc.to()).kind(), DpNodeKind::ConditionOut(_)) {
            1
        } else {
            bits
        };
        let (a, b) = (pos[arc.from().index()], pos[arc.to().index()]);
        wires += lib.wire_area(f64::from((a.0 - b.0).abs() + (a.1 - b.1).abs()), w);
    }
    [modules, registers, muxes, wires]
}

/// Compare both placements and both estimates on one state's data path.
fn check_state(tag: &str, state: &DesignState, bits: u32, lib: &ModuleLibrary) {
    let etpn = state.lower().expect("committed states lower");
    let dp = etpn.data_path();
    let want = reference_place(dp);
    let got = Floorplan::place(dp);
    for node in dp.nodes() {
        assert_eq!(
            got.position(node.id()),
            want[node.id().index()],
            "{tag}: node {} `{}` placed differently",
            node.id(),
            node.label()
        );
    }
    let c = estimate_cost(dp, bits, lib);
    let r = reference_estimate(dp, bits, lib);
    assert_eq!(
        [c.modules, c.registers, c.muxes, c.wires].map(f64::to_bits),
        r.map(f64::to_bits),
        "{tag}: area estimate differs"
    );
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

/// Synthesize `dfg` at `bits`, then replay the committed merges one by
/// one, comparing placements before the first merge and after each.
/// Returns the number of states compared.
fn check_run(tag: &str, dfg: &Dfg, bits: u32) -> usize {
    let params = SynthesisParams::paper_defaults(bits);
    let lib = params.library.clone();
    let base = DesignState::initial(dfg).expect("initial state");
    let synth = IntegratedSynthesizer::new(params.clone());
    let warm = synth
        .run_on_warm(&base, &DeltaEvaluator::new(), &RunCtl::none(), None)
        .expect("synthesis");
    let mut state = DesignState::initial(dfg).expect("initial state");
    check_state(&format!("{tag} initial"), &state, bits, &lib);
    let mut compared = 1;
    for (i, w) in warm
        .trace
        .entries
        .iter()
        .filter_map(|e| e.winner.as_ref())
        .enumerate()
    {
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
        check_state(&format!("{tag} merge {i}"), &state, bits, &lib);
        compared += 1;
    }
    assert_eq!(
        state.allocation, warm.result.allocation,
        "{tag}: replay end"
    );
    compared
}

#[test]
fn dense_floorplan_matches_reference_on_small_benchmarks() {
    let mut states = 0;
    for name in ["ex", "dct", "diffeq"] {
        let dfg = hlts_benchmarks::by_name(name).expect("bundled benchmark");
        states += check_run(name, &dfg, 4);
    }
    assert!(states > 10, "only {states} states compared");
}

/// A data path of `n` port nodes wired by `arcs` (index pairs).
fn wired(n: usize, arcs: &[(usize, usize)]) -> DataPath {
    let mut dp = DataPath::new();
    let ids: Vec<_> = (0..n)
        .map(|i| {
            let v = hlts_dfg::ValueId::from_index(i);
            dp.add_node(DpNodeKind::PrimaryInput(v), format!("n{i}"))
        })
        .collect();
    for (port, &(a, b)) in arcs.iter().enumerate() {
        dp.add_arc(ids[a], ids[b], port, []);
    }
    dp
}

/// Shapes no lowered design has: long chains, stars, parallel arcs and
/// self-loops, and nodes without any placed neighbour (the anchor-free
/// search) — pseudo-random graphs from sparse to dense included.
#[test]
fn dense_floorplan_matches_reference_on_synthetic_shapes() {
    let mut x = 0x2545_F491_4F6C_DD1Du64;
    let mut next = |m: usize| {
        x = x
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        ((x >> 33) as usize) % m
    };
    for n in [1, 2, 5, 17, 40, 90] {
        let chain: Vec<_> = (1..n).map(|i| (i - 1, i)).collect();
        let star: Vec<_> = (1..n).map(|i| (0, i)).collect();
        let mut shapes = vec![wired(n, &chain), wired(n, &star), wired(n, &[])];
        for density in [1, 2, 4] {
            let arcs: Vec<_> = (0..density * n / 2).map(|_| (next(n), next(n))).collect();
            shapes.push(wired(n, &arcs));
        }
        for (i, dp) in shapes.iter().enumerate() {
            let want = reference_place(dp);
            let got = Floorplan::place(dp);
            for node in dp.nodes() {
                assert_eq!(
                    got.position(node.id()),
                    want[node.id().index()],
                    "n={n} shape {i}: node {}",
                    node.id()
                );
            }
        }
    }
}

#[test]
#[ignore = "release matrix: every paper benchmark and 32 generated graphs"]
fn dense_floorplan_matches_reference_matrix() {
    let mut states = 0;
    for bits in [4, 8] {
        for (name, dfg) in hlts_benchmarks::all() {
            states += check_run(&format!("{name}@{bits}"), &dfg, bits);
        }
        for p in PRESET_NAMES {
            let cfg = preset(p).expect("built-in preset");
            for seed in 0..8u64 {
                let dfg = generate(seed, &cfg).expect("generator");
                states += check_run(&format!("{p}/seed{seed}@{bits}"), &dfg, bits);
            }
        }
    }
    println!("{states} committed states compared");
}
