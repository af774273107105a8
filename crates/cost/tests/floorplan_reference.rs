//! Independent oracle for the floorplan search.
//!
//! `reference_place` below is a verbatim copy of the placement from
//! before it moved onto a dense occupancy grid — a `HashMap` of taken
//! cells, per-step `Vec` neighbour lists and anchor lists, every cell of
//! every ring scanned with the cost summed over the anchors — written
//! against the public `DataPath` API only (an observer hook sees each
//! step, nothing more). `reference_estimate` is the matching copy of
//! the area estimate (including the class set `fu_area` used to build).
//! The shipped [`Floorplan::place`] must put every node on the same
//! cell, and [`estimate_cost`] must return the same bits, on every data
//! path Algorithm 1 prices: the state before each iteration, and every
//! candidate of that iteration's shortlist it priced, each as its
//! post-`trial_merge` state — replayed from the run's merge trace, the
//! shortlist re-enumerated and cut where the trace's prices end.
//!
//! The default case covers ex, dct and diffeq at 4 bits; the root
//! package includes this file, so the workspace's tier-1 `cargo test`
//! runs it too. The release matrix (the 6 paper benchmarks at 4, 8 and
//! 16 bits, and 32 generated graphs at 4 and 8 bits) is ignored by
//! default:
//!
//! ```text
//! cargo test --release -p hlts-cost --test floorplan_reference -- --ignored
//! ```
//!
//! Synthetic shapes cover what no lowered design may: chains, stars,
//! lattices, complete and double-star graphs, parallel arcs, self-loops
//! and isolated nodes. A probe over the reference's own steps checks
//! that they reach the search's corner cases: `(cost, y, x)` ties,
//! fully occupied ring sides, rings clipped to `B + 1` and anchor sets
//! whose axis costs have a plateau of minimizers.

use std::collections::{BTreeSet, HashMap};

use hlts_core::{
    enumerate_candidates, merge_modules_with_resched, merge_registers_with_resched, trial_merge,
    DeltaEvaluator, DesignState, IntegratedSynthesizer, MergeKind, RunCtl, SynthesisParams,
};
use hlts_cost::{estimate_cost, Floorplan, ModuleLibrary};
use hlts_dfg::{Dfg, FuClass, OpKind};
use hlts_etpn::{DataPath, DpNodeKind};
use hlts_gen::{generate, preset, PRESET_NAMES};
use hlts_testability::TestabilityAnalysis;

/// What a step of the reference placement sees: the taken cells, the
/// next node's anchors, and the cell it chose.
type Observer<'a> = dyn FnMut(&HashMap<(i32, i32), usize>, &[(i32, i32)], (i32, i32)) + 'a;

/// The original placement: positions by node index.
fn reference_place(dp: &DataPath) -> Vec<(i32, i32)> {
    reference_place_observed(dp, &mut |_, _, _| {})
}

/// [`reference_place`], showing `observe` every step after the seed.
fn reference_place_observed(dp: &DataPath, observe: &mut Observer<'_>) -> Vec<(i32, i32)> {
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
        observe(&occupied, &anchors, target);
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

/// Compare both placements and both estimates on the structural data
/// path of one state — what Algorithm 1 prices.
fn check_state(tag: &str, state: &DesignState, bits: u32, lib: &ModuleLibrary) {
    let dp = state.data_path().expect("priced states lower");
    let want = reference_place(&dp);
    let got = Floorplan::place(&dp);
    for node in dp.nodes() {
        assert_eq!(
            got.position(node.id()),
            want[node.id().index()],
            "{tag}: node {} `{}` placed differently",
            node.id(),
            node.label(&state.dfg, &state.allocation)
        );
    }
    let c = estimate_cost(&dp, bits, lib);
    let r = reference_estimate(&dp, bits, lib);
    assert_eq!(
        [c.modules, c.registers, c.muxes, c.wires].map(f64::to_bits),
        r.map(f64::to_bits),
        "{tag}: area estimate differs"
    );
}

/// Synthesize `dfg` at `bits`, then replay the run iteration by
/// iteration: compare placements on the state each iteration starts
/// from and on every trial state it priced, then commit its winner.
/// Returns the number of (committed, trial) states compared.
fn check_run(tag: &str, dfg: &Dfg, bits: u32) -> (usize, usize) {
    let params = SynthesisParams::paper_defaults(bits);
    let lib = params.library.clone();
    let base = DesignState::initial(dfg).expect("initial state");
    let synth = IntegratedSynthesizer::new(params.clone());
    let warm = synth
        .run_on_warm(&base, &DeltaEvaluator::new(), &RunCtl::none(), None)
        .expect("synthesis");
    let mut state = DesignState::initial(dfg).expect("initial state");
    let (mut committed, mut trials) = (0, 0);
    for (i, entry) in warm.trace.entries.iter().enumerate() {
        check_state(&format!("{tag} state {i}"), &state, bits, &lib);
        committed += 1;
        // The shortlist this iteration priced, in pricing order.
        let dp = state.data_path().expect("committed states lower");
        let shortlist = enumerate_candidates(&state, &dp, &TestabilityAnalysis::analyze(&dp));
        assert_eq!(shortlist.len(), entry.total, "{tag} state {i}: shortlist");
        for (j, cand) in shortlist[..entry.prices.len()].iter().enumerate() {
            let priced = trial_merge(&mut state, cand.kind, |trial| {
                check_state(&format!("{tag} state {i} trial {j}"), trial, bits, &lib);
                Some(())
            });
            assert_eq!(
                priced.is_some(),
                entry.prices[j].is_some(),
                "{tag} state {i} trial {j}: feasibility"
            );
            trials += usize::from(priced.is_some());
        }
        let Some(w) = &entry.winner else { break };
        match w.resolve(&state).expect("recorded merge resolves") {
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
fn dense_floorplan_matches_reference_on_small_benchmarks() {
    let (mut committed, mut trials) = (0, 0);
    for name in ["ex", "dct", "diffeq"] {
        let dfg = hlts_benchmarks::by_name(name).expect("bundled benchmark");
        let (c, t) = check_run(name, &dfg, 4);
        committed += c;
        trials += t;
    }
    println!("{committed} committed states and {trials} priced trials compared");
    assert!(
        committed > 10 && trials > 50,
        "only {committed} states and {trials} trials compared"
    );
}

/// A data path of `n` port nodes wired by `arcs` (index pairs).
fn wired(n: usize, arcs: &[(usize, usize)]) -> DataPath {
    let mut dp = DataPath::new();
    let ids: Vec<_> = (0..n)
        .map(|i| {
            let v = hlts_dfg::ValueId::from_index(i);
            dp.add_node(DpNodeKind::PrimaryInput(v))
        })
        .collect();
    for (port, &(a, b)) in arcs.iter().enumerate() {
        dp.add_arc(ids[a], ids[b], port, []);
    }
    dp
}

/// How often the reference's steps hit each corner case of the search.
#[derive(Debug, Default)]
struct Corners {
    /// Another free cell of the visited rings costs as much as the
    /// chosen one.
    ties: usize,
    /// A visited ring side inside `B + 1` is taken cell for cell.
    full_sides: usize,
    /// The chosen cell's ring reaches past `B + 1`.
    clipped: usize,
    /// An axis cost of the anchors has more than one minimizer.
    plateaus: usize,
}

impl Corners {
    /// Classify one reference step.
    fn observe(
        &mut self,
        occupied: &HashMap<(i32, i32), usize>,
        anchors: &[(i32, i32)],
        (tx, ty): (i32, i32),
    ) {
        let cells = || occupied.keys().copied();
        let x_lo = cells().map(|c| c.0).min().expect("a seed") - 1;
        let x_hi = cells().map(|c| c.0).max().expect("a seed") + 1;
        let y_lo = cells().map(|c| c.1).min().expect("a seed") - 1;
        let y_hi = cells().map(|c| c.1).max().expect("a seed") + 1;
        let (cx, cy) = if anchors.is_empty() {
            (0, 0)
        } else {
            let k = anchors.len() as i32;
            (
                anchors.iter().map(|p| p.0).sum::<i32>() / k,
                anchors.iter().map(|p| p.1).sum::<i32>() / k,
            )
        };
        let cost = |x: i32, y: i32| -> i64 {
            anchors
                .iter()
                .map(|&(ax, ay)| i64::from((x - ax).abs() + (y - ay).abs()))
                .sum()
        };
        let free = |x: i32, y: i32| !occupied.contains_key(&(x, y));
        let rc = (tx - cx).abs().max((ty - cy).abs());
        let visited = |x: i32, y: i32| (x - cx).abs().max((y - cy).abs()) <= rc;
        let region = (x_lo..=x_hi).flat_map(|x| (y_lo..=y_hi).map(move |y| (x, y)));
        let tie = region.clone().any(|(x, y)| {
            (x, y) != (tx, ty) && visited(x, y) && free(x, y) && cost(x, y) == cost(tx, ty)
        });
        self.ties += usize::from(tie);
        let full = (1..=rc).any(|r| {
            let (xa, xb) = ((cx - r).max(x_lo), (cx + r).min(x_hi));
            let (ya, yb) = ((cy - r + 1).max(y_lo), (cy + r - 1).min(y_hi));
            let row_full = |y: i32| (y_lo..=y_hi).contains(&y) && (xa..=xb).all(|x| !free(x, y));
            let col_full =
                |x: i32| (x_lo..=x_hi).contains(&x) && ya <= yb && (ya..=yb).all(|y| !free(x, y));
            row_full(cy - r) || row_full(cy + r) || col_full(cx - r) || col_full(cx + r)
        });
        self.full_sides += usize::from(full);
        self.clipped +=
            usize::from(cx - rc < x_lo || cx + rc > x_hi || cy - rc < y_lo || cy + rc > y_hi);
        let plateau = |mut v: Vec<i32>| {
            v.sort_unstable();
            let k = v.len();
            k >= 2 && k.is_multiple_of(2) && v[k / 2 - 1] < v[k / 2]
        };
        self.plateaus += usize::from(
            plateau(anchors.iter().map(|a| a.0).collect())
                || plateau(anchors.iter().map(|a| a.1).collect()),
        );
    }
}

/// Shapes no lowered design has: long chains, stars, lattices, complete
/// graphs, double stars (every leaf anchored by two hubs), parallel arcs
/// and self-loops, and nodes without any placed neighbour (the
/// anchor-free search) — pseudo-random graphs from sparse to dense
/// included. Together they must reach every corner case the line search
/// has to get right.
#[test]
fn dense_floorplan_matches_reference_on_synthetic_shapes() {
    let mut x = 0x2545_F491_4F6C_DD1Du64;
    let mut next = |m: usize| {
        x = x
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        ((x >> 33) as usize) % m
    };
    let mut shapes: Vec<(String, DataPath)> = Vec::new();
    for n in [1, 2, 5, 17, 40, 90] {
        let chain: Vec<_> = (1..n).map(|i| (i - 1, i)).collect();
        let star: Vec<_> = (1..n).map(|i| (0, i)).collect();
        shapes.push((format!("chain{n}"), wired(n, &chain)));
        shapes.push((format!("star{n}"), wired(n, &star)));
        shapes.push((format!("isolated{n}"), wired(n, &[])));
        for density in [1, 2, 4] {
            let arcs: Vec<_> = (0..density * n / 2).map(|_| (next(n), next(n))).collect();
            shapes.push((format!("random{n}x{density}"), wired(n, &arcs)));
        }
    }
    for (w, h) in [(2, 2), (3, 5), (6, 6), (9, 4)] {
        let mut arcs = Vec::new();
        for i in 0..w * h {
            if i % w + 1 < w {
                arcs.push((i, i + 1));
            }
            if i + w < w * h {
                arcs.push((i, i + w));
            }
        }
        shapes.push((format!("lattice{w}x{h}"), wired(w * h, &arcs)));
    }
    for n in [3, 6, 11] {
        let arcs: Vec<_> = (0..n)
            .flat_map(|a| (a + 1..n).map(move |b| (a, b)))
            .collect();
        shapes.push((format!("complete{n}"), wired(n, &arcs)));
    }
    for n in [4, 9, 30] {
        let arcs: Vec<_> = (2..n).flat_map(|i| [(0, i), (1, i)]).collect();
        shapes.push((format!("double-star{n}"), wired(n, &arcs)));
    }
    let mut corners = Corners::default();
    for (name, dp) in &shapes {
        let want = reference_place_observed(dp, &mut |occupied, anchors, target| {
            corners.observe(occupied, anchors, target);
        });
        let got = Floorplan::place(dp);
        for node in dp.nodes() {
            assert_eq!(
                got.position(node.id()),
                want[node.id().index()],
                "{name}: node {}",
                node.id()
            );
        }
    }
    println!("{corners:?}");
    let Corners {
        ties,
        full_sides,
        clipped,
        plateaus,
    } = corners;
    assert!(
        ties > 0 && full_sides > 0 && clipped > 0 && plateaus > 0,
        "a corner case went unexercised: {corners:?}"
    );
}

#[test]
#[ignore = "release matrix: every paper benchmark and 32 generated graphs"]
fn dense_floorplan_matches_reference_matrix() {
    let (mut committed, mut trials) = (0, 0);
    let mut run = |tag: String, dfg: &Dfg, bits: u32| {
        let (c, t) = check_run(&tag, dfg, bits);
        committed += c;
        trials += t;
    };
    for bits in [4, 8, 16] {
        for (name, dfg) in hlts_benchmarks::all() {
            run(format!("{name}@{bits}"), &dfg, bits);
        }
    }
    for bits in [4, 8] {
        for p in PRESET_NAMES {
            let cfg = preset(p).expect("built-in preset");
            for seed in 0..8u64 {
                let dfg = generate(seed, &cfg).expect("generator");
                run(format!("{p}/seed{seed}@{bits}"), &dfg, bits);
            }
        }
    }
    println!("{committed} committed states and {trials} priced trials compared");
}
