//! Property tests for the CSR data adjacency and the overlay arc
//! arena that replaced the old `Vec`-building neighborhood accessors.
//!
//! The accessors under test return slices into precomputed storage, so
//! a construction bug would silently skew every downstream analysis
//! (scheduling priorities, reachability, merge ordering). Each graph —
//! every bundled benchmark plus 32 generated ones — is checked against
//! an oracle that rebuilds the neighborhoods the way the deleted
//! accessors did: walking `inputs`/`def` and `output`/`uses` with
//! first-occurrence dedup.

use hlts_dfg::{Dfg, OpId};
use hlts_gen::{generate, preset, PRESET_NAMES};

/// Every graph the suite sweeps: the bundled benchmarks plus 8 seeds of
/// each generator preset (32 generated graphs).
fn corpus() -> Vec<(String, Dfg)> {
    let mut out: Vec<(String, Dfg)> = hlts_benchmarks::all()
        .into_iter()
        .map(|(n, d)| (n.to_owned(), d))
        .collect();
    for name in PRESET_NAMES {
        let cfg = preset(name).expect("built-in preset");
        for seed in 0..8u64 {
            let d = generate(seed, &cfg).expect("generator");
            out.push((format!("{name}/seed{seed}"), d));
        }
    }
    out
}

/// The deleted accessors' semantics: data predecessors are the
/// producers of `op`'s inputs in port order, first occurrence kept.
fn oracle_data_preds(dfg: &Dfg, op: OpId) -> Vec<OpId> {
    let mut out = Vec::new();
    for &v in dfg.op(op).inputs() {
        if let Some(p) = dfg.def_of(v) {
            if !out.contains(&p) {
                out.push(p);
            }
        }
    }
    out
}

/// Data successors: the consumers of `op`'s output in use-list order,
/// first occurrence kept.
fn oracle_data_succs(dfg: &Dfg, op: OpId) -> Vec<OpId> {
    let mut out = Vec::new();
    if let Some(v) = dfg.op(op).output() {
        for &u in dfg.uses_of(v) {
            if !out.contains(&u) {
                out.push(u);
            }
        }
    }
    out
}

#[test]
fn csr_rows_match_use_def_oracle_on_all_graphs() {
    for (name, dfg) in corpus() {
        for op in dfg.ops() {
            let o = op.id();
            assert_eq!(
                dfg.data_preds(o),
                oracle_data_preds(&dfg, o),
                "{name}: data_preds({o})"
            );
            assert_eq!(
                dfg.data_succs(o),
                oracle_data_succs(&dfg, o),
                "{name}: data_succs({o})"
            );
        }
    }
}

/// `preds`/`succs` = CSR row followed by overlay arcs in insertion
/// order, duplicates of the data relation suppressed.
fn oracle_preds(dfg: &Dfg, op: OpId) -> Vec<OpId> {
    let mut out = oracle_data_preds(dfg, op);
    for &(a, b) in dfg.extra_precedence() {
        if b == op && !out.contains(&a) {
            out.push(a);
        }
    }
    out
}

fn oracle_succs(dfg: &Dfg, op: OpId) -> Vec<OpId> {
    let mut out = oracle_data_succs(dfg, op);
    for &(a, b) in dfg.extra_precedence() {
        if a == op && !out.contains(&b) {
            out.push(b);
        }
    }
    out
}

/// Deterministically sprinkle overlay arcs over a graph: for every op
/// pair at a fixed index stride, try a strict arc one way and a weak
/// arc the other; cyclic attempts are rejected by the graph and simply
/// skipped.
fn sprinkle_arcs(dfg: &mut Dfg) -> (usize, usize) {
    let n = dfg.num_ops();
    let (mut strict, mut weak) = (0, 0);
    for i in 0..n {
        for (stride, as_weak) in [(3usize, false), (5, true)] {
            let j = (i + stride) % n;
            if i == j {
                continue;
            }
            let (a, b) = (OpId::from_index(i), OpId::from_index(j));
            let added = if as_weak {
                dfg.add_weak_precedence(a, b)
            } else {
                dfg.add_precedence(a, b)
            };
            if added.is_ok() {
                if as_weak {
                    weak += 1;
                } else {
                    strict += 1;
                }
            }
        }
    }
    (strict, weak)
}

#[test]
fn overlay_adjacency_tracks_arc_arena_on_all_graphs() {
    for (name, mut dfg) in corpus() {
        let (strict, weak) = sprinkle_arcs(&mut dfg);
        assert_eq!(dfg.extra_precedence().len(), strict, "{name}");
        assert_eq!(dfg.weak_precedence().len(), weak, "{name}");
        for op in dfg.ops() {
            let o = op.id();
            let preds: Vec<OpId> = dfg.preds(o).collect();
            let succs: Vec<OpId> = dfg.succs(o).collect();
            assert_eq!(preds, oracle_preds(&dfg, o), "{name}: preds({o})");
            assert_eq!(succs, oracle_succs(&dfg, o), "{name}: succs({o})");
            // The weak overlay mirrors the weak arc arena directly.
            let wp: Vec<OpId> = dfg
                .weak_precedence()
                .iter()
                .filter(|&&(_, b)| b == o)
                .map(|&(a, _)| a)
                .collect();
            let ws: Vec<OpId> = dfg
                .weak_precedence()
                .iter()
                .filter(|&&(a, _)| a == o)
                .map(|&(_, b)| b)
                .collect();
            assert_eq!(dfg.weak_preds(o), wp.as_slice(), "{name}: weak_preds({o})");
            assert_eq!(dfg.weak_succs(o), ws.as_slice(), "{name}: weak_succs({o})");
        }
    }
}

#[test]
fn truncate_restores_adjacency_to_the_savepoint_on_all_graphs() {
    for (name, mut dfg) in corpus() {
        // A first layer of arcs below the savepoint must survive.
        sprinkle_arcs(&mut dfg);
        let snapshot_preds: Vec<Vec<OpId>> = dfg
            .ops()
            .iter()
            .map(|op| dfg.preds(op.id()).collect())
            .collect();
        let snapshot_weak: Vec<Vec<OpId>> = dfg
            .ops()
            .iter()
            .map(|op| dfg.weak_preds(op.id()).to_vec())
            .collect();
        let arcs_before = (dfg.extra_precedence().len(), dfg.weak_precedence().len());

        let sp = dfg.arc_savepoint();
        // A second layer above it (different strides)...
        let n = dfg.num_ops();
        let mut added = 0;
        for i in 0..n {
            let j = (i + 7) % n;
            if i != j
                && dfg
                    .add_precedence(OpId::from_index(i), OpId::from_index(j))
                    .is_ok()
            {
                added += 1;
            }
            let k = (i + 11) % n;
            if i != k
                && dfg
                    .add_weak_precedence(OpId::from_index(i), OpId::from_index(k))
                    .is_ok()
            {
                added += 1;
            }
        }
        // ...is dropped exactly by the truncation.
        assert_eq!(dfg.truncate_arcs(sp), added, "{name}");
        assert_eq!(
            (dfg.extra_precedence().len(), dfg.weak_precedence().len()),
            arcs_before,
            "{name}"
        );
        for (i, op) in dfg.ops().iter().enumerate() {
            let o = op.id();
            let preds: Vec<OpId> = dfg.preds(o).collect();
            assert_eq!(
                preds, snapshot_preds[i],
                "{name}: preds({o}) after truncate"
            );
            assert_eq!(
                dfg.weak_preds(o),
                snapshot_weak[i].as_slice(),
                "{name}: weak_preds({o}) after truncate"
            );
        }
    }
}
