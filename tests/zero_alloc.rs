//! Counting-allocator proof of three steady-state claims:
//!
//! * the arena refactor's: once warmed up, a trial merge (apply →
//!   price → roll back) performs **zero heap allocations** — an
//!   order-forced one, a register trial the dry walk refuses before a
//!   transaction opens, and a module trial that runs both SR2 probes;
//! * the floorplan's: once the thread's placer has seen a data path
//!   this large, `estimate_cost` (placement and area sum, the ΔH of
//!   every priced candidate) performs **zero heap allocations**;
//! * the (E, H) miss path's: once a reused data path and the builder's
//!   tables have seen a design this large, taking a state's `E` from
//!   its schedule, building its structural data path into the reused
//!   one and pricing it with `estimate_cost` allocates exactly one
//!   `BTreeSet<OpKind>` per module node — the node's set of operation
//!   kinds — and nothing else;
//! * PODEM's: once one call on a target has sized its decision stack,
//!   a repeat call on that target that ends without a test performs
//!   **zero heap allocations** — implication runs in the generator's
//!   own buffers;
//! * the fault simulator's: once a caller's scratch and trace have
//!   served a netlist, recording a sequence's good trace into the
//!   reused trace and grading every pending fault against it perform
//!   **zero heap allocations**.
//!
//! Compiled only under the `count-allocs` feature — the test binary
//! swaps in a byte/call-counting `#[global_allocator]`, which would
//! skew every other suite's timings. CI runs it in release:
//!
//! ```text
//! cargo test --release --features count-allocs --test zero_alloc
//! ```
//!
//! The steady-state trial loop uses **order-forced** candidates (the
//! precedence relation fixes every merge-sort decision), so no SR2
//! merit probe runs there: that gate pins the trial path alone, and the
//! SR2-probing trial has a gate of its own.
//! The strict zero assertion on trials runs in release only: debug
//! builds re-audit the whole design after every rollback, and the
//! auditor allocates by design.
#![cfg(feature = "count-allocs")]

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

mod common;

use hlts_atpg::{FaultSimulator, FaultUniverse, Podem, PodemOutcome};
use hlts_core::{
    enumerate_candidates, merge_modules_with_resched, register_walk_verdict, trial_merge,
    DesignState, MergeKind, WalkVerdict,
};
use hlts_cost::{estimate_cost, ModuleLibrary};
use hlts_dfg::OpKind;
use hlts_etpn::{DataPath, Etpn};
use hlts_tcov::{fsim, TcovConfig};
use hlts_testability::TestabilityAnalysis;

/// Pass-through allocator that tallies every allocation of the calling
/// thread. Per-thread counters keep the libtest harness threads (which
/// may allocate while the test runs) out of the measurement. `dealloc`
/// is not counted: rollback must not *allocate*, but dropping warmed
/// buffers at thread exit is fine.
struct CountingAlloc;

thread_local! {
    static TL_BYTES: Cell<u64> = const { Cell::new(0) };
    static TL_CALLS: Cell<u64> = const { Cell::new(0) };
}

/// `try_with` because an allocation during TLS teardown must still be
/// served, just not counted.
fn tally(bytes: usize) {
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

/// Allocation (bytes, calls) performed by this thread while running `f`.
fn measured<R>(f: impl FnOnce() -> R) -> (u64, u64, R) {
    let b0 = TL_BYTES.with(Cell::get);
    let c0 = TL_CALLS.with(Cell::get);
    let r = f();
    (
        TL_BYTES.with(Cell::get) - b0,
        TL_CALLS.with(Cell::get) - c0,
        r,
    )
}

fn price(t: &DesignState) -> Option<f64> {
    Some(t.schedule.num_steps() as f64)
}

/// Feasible candidates whose every ordering decision is already forced
/// by the precedence relation, so no trial consults the SR2 merit
/// probe. With the initial one-to-one binding each module holds one op
/// and each register one value, making forcedness a single
/// reachability test per pair.
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
                continue; // free decision: SR2 would lower to ETPN
            }
            let kind = MergeKind::Modules(ma, mb);
            if trial_merge(state, kind, price).is_some() {
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
            // One value's definition must reach the other's: the
            // reverse lifetime order is then cyclic, so the pair probe
            // is decided without an SR2 merit comparison.
            let forced = match (state.dfg.def_of(va), state.dfg.def_of(vb)) {
                (Some(da), Some(db)) => state.dfg.reaches(da, db) || state.dfg.reaches(db, da),
                _ => false,
            };
            if !forced {
                continue;
            }
            let kind = MergeKind::Registers(ra, rb);
            if trial_merge(state, kind, price).is_some() {
                out.push(kind);
                if out.len() >= module_cands + k {
                    break 'regs;
                }
            }
        }
    }
    assert!(
        module_cands >= 1 && out.len() > module_cands,
        "need both module and register candidates (got {module_cands} + {})",
        out.len() - module_cands
    );
    out
}

#[test]
fn steady_state_trial_merge_allocates_zero_bytes() {
    let (name, dfg) = hlts_benchmarks::all()
        .into_iter()
        .max_by_key(|(_, d)| d.num_ops())
        .expect("bundled benchmarks");
    assert_eq!(name, "ewf", "largest bundled benchmark changed");
    let mut state = DesignState::initial(&dfg).expect("initial state");
    let cands = forced_shortlist(&mut state, 4);

    // Warm-up: first trials size the thread-local scratch pools, the
    // overlay adjacency capacity and the txn journal pool.
    for _ in 0..3 {
        for &kind in &cands {
            assert!(trial_merge(&mut state, kind, price).is_some());
        }
    }

    let iters = 25;
    let mut per_trial: Vec<(usize, usize, u64, u64)> = Vec::with_capacity(iters * cands.len());
    let (bytes, calls, ()) = measured(|| {
        for it in 0..iters {
            for (ci, &kind) in cands.iter().enumerate() {
                let (b, c, priced) = measured(|| trial_merge(&mut state, kind, price));
                assert!(priced.is_some());
                per_trial.push((it, ci, b, c));
            }
        }
    });
    for &(it, ci, b, c) in per_trial.iter().filter(|t| t.3 > 0) {
        println!(
            "iter {it} cand {ci} ({:?}): {b} bytes / {c} allocs",
            cands[ci]
        );
    }
    let trials = iters * cands.len();
    println!(
        "{name}: {trials} steady-state trials over {} candidates: \
         {bytes} bytes in {calls} allocations",
        cands.len()
    );
    // Debug builds re-audit the rolled-back design after every trial
    // (hlts-check allocates its report) — the zero claim is about the
    // shipping configuration.
    #[cfg(not(debug_assertions))]
    assert_eq!(
        (bytes, calls),
        (0, 0),
        "steady-state trial merges must not touch the heap"
    );
    // Keep the trial results observable so the loop cannot be elided.
    assert!(state.validate().is_ok());
}

/// Warm `kind` up with a few trials, then assert that one more trial
/// returns `want` (priced or not) without touching the heap.
fn assert_trial_allocates_nothing(
    state: &mut DesignState,
    kind: MergeKind,
    want: bool,
    what: &str,
) {
    for _ in 0..3 {
        assert_eq!(trial_merge(state, kind, price).is_some(), want, "{what}");
    }
    let (bytes, calls, priced) = measured(|| trial_merge(state, kind, price));
    println!("ewf: {what} ({kind:?}): {bytes} bytes in {calls} allocations");
    assert_eq!(priced.is_some(), want, "{what}");
    // Debug builds re-audit the rolled-back design (hlts-check allocates
    // its report), as in the steady-state gate above.
    #[cfg(not(debug_assertions))]
    assert_eq!((bytes, calls), (0, 0), "{what} must not touch the heap");
}

#[test]
fn rejected_register_trial_allocates_zero_bytes() {
    let dfg = hlts_benchmarks::by_name("ewf").expect("bundled benchmark");
    let mut state = DesignState::initial(&dfg).expect("initial state");
    // A register candidate of the real shortlist that the dry walk
    // refuses before a transaction opens.
    let dp = state.data_path().expect("structural path");
    let analysis = TestabilityAnalysis::analyze(&dp);
    let registers: Vec<_> = enumerate_candidates(&state, &dp, &analysis)
        .into_iter()
        .filter_map(|c| match c.kind {
            MergeKind::Registers(a, b) => Some((a, b)),
            MergeKind::Modules(..) => None,
        })
        .collect();
    let refused = registers
        .iter()
        .copied()
        .find(|&(a, b)| register_walk_verdict(&mut state, a, b) == WalkVerdict::Refused)
        .expect("the shortlist holds a refused register pair");
    let before = state.txn_stats();
    assert_trial_allocates_nothing(
        &mut state,
        MergeKind::Registers(refused.0, refused.1),
        false,
        "a register trial refused on the graph",
    );
    let after = state.txn_stats();
    assert_eq!(
        after.begun, before.begun,
        "a refused trial opens no transaction"
    );
    assert_eq!(after.prechecked, before.prechecked + 4);
}

#[test]
fn sr2_probing_trial_allocates_zero_bytes() {
    let dfg = hlts_benchmarks::by_name("ewf").expect("bundled benchmark");
    let mut state = DesignState::initial(&dfg).expect("initial state");
    // Two adders whose operations neither precedes the other: the
    // module walk's first head pair is a free decision, so the trial
    // runs both SR2 probes (each a reschedule and an `E`).
    let adders: Vec<_> = state
        .allocation
        .modules()
        .filter(|m| dfg.op(m.ops()[0]).kind() == OpKind::Add)
        .map(|m| (m.id(), m.ops()[0]))
        .collect();
    let kind = adders
        .iter()
        .enumerate()
        .flat_map(|(i, &x)| adders[i + 1..].iter().map(move |&y| (x, y)))
        .find(|&((_, oa), (_, ob))| !state.dfg.reaches(oa, ob) && !state.dfg.reaches(ob, oa))
        .map(|((ma, _), (mb, _))| MergeKind::Modules(ma, mb))
        .expect("ewf has two unordered adders");
    assert_trial_allocates_nothing(&mut state, kind, true, "an SR2-probing module trial");
}

#[test]
fn warmed_estimate_cost_allocates_zero_bytes() {
    let dfg = hlts_benchmarks::by_name("ewf").expect("bundled benchmark");
    let state = DesignState::initial(&dfg).expect("initial state");
    let etpn = state.lower().expect("lowers");
    let dp = etpn.data_path();
    let lib = ModuleLibrary::new();
    // Warm-up: the first placement sizes the thread's placer buffers.
    let want = estimate_cost(dp, 8, &lib);
    let (bytes, calls, cost) = measured(|| estimate_cost(dp, 8, &lib));
    println!(
        "ewf 8-bit ({} nodes, {} arcs): repeat estimate_cost: {bytes} bytes in {calls} allocations",
        dp.num_nodes(),
        dp.num_arcs()
    );
    assert_eq!(cost, want, "same data path, same estimate");
    assert_eq!(
        (bytes, calls),
        (0, 0),
        "a warmed estimate_cost must not touch the heap"
    );
}

#[test]
fn warmed_eh_miss_allocates_only_module_kind_sets() {
    let dfg = hlts_benchmarks::by_name("ewf").expect("bundled benchmark");
    let initial = DesignState::initial(&dfg).expect("initial state");
    // A second, smaller state: the initial one with two adders merged.
    let mut merged = initial.fork();
    let adders: Vec<_> = merged
        .allocation
        .modules()
        .filter(|m| dfg.op(m.ops()[0]).kind() == OpKind::Add)
        .map(|m| m.id())
        .take(2)
        .collect();
    merge_modules_with_resched(&mut merged, adders[0], adders[1]).expect("adders merge");
    let lib = ModuleLibrary::new();
    let miss = |state: &DesignState, dp: &mut DataPath| {
        let e = Etpn::execution_time_of(&state.schedule);
        state.data_path_into(dp).expect("lowers");
        (e, estimate_cost(dp, 8, &lib))
    };
    // Warm-up: the first build sizes the path's buffers and the
    // builder's tables, the first placement the thread's placer.
    let mut dp = DataPath::new();
    let want = [miss(&initial, &mut dp), miss(&merged, &mut dp)];
    for (state, want) in [&initial, &merged].into_iter().zip(want) {
        let (bytes, calls, cost) = measured(|| miss(state, &mut dp));
        // What a module node's `BTreeSet<OpKind>` of kinds costs: one
        // allocation per set, the only one the miss still makes.
        let (mut set_bytes, mut set_calls) = (0, 0);
        for m in state.allocation.modules() {
            let (b, c, _) = measured(|| m.kinds(&dfg));
            (set_bytes, set_calls) = (set_bytes + b, set_calls + c);
        }
        let modules = state.allocation.modules().count() as u64;
        println!(
            "ewf 8-bit ({} nodes, {modules} modules): warmed (E, H) miss, \
             E + build + estimate_cost: {bytes} bytes in {calls} allocations",
            dp.num_nodes()
        );
        assert_eq!(cost, want, "same state, same estimate");
        assert_eq!(set_calls, modules, "one allocation per kind set");
        assert_eq!(
            (bytes, calls),
            (set_bytes, set_calls),
            "a warmed (E, H) miss allocates the module kind sets and nothing else"
        );
    }
}

#[test]
fn warmed_aborting_podem_call_allocates_zero_bytes() {
    let bits = 4;
    let dfg = hlts_benchmarks::by_name("ex").expect("bundled benchmark");
    let (nl, steps) = common::elaborated(&dfg, bits);
    let atpg = TcovConfig::for_schedule(steps, None, 1).atpg;
    let preset = common::phase0_preset(&nl, atpg.frames);
    let mut podem = Podem::new(nl.clone(), atpg.frames, atpg.backtrack_limit);
    // Warm-up: the search stops at the first target that aborts, so
    // the generator's last call was on that very target.
    let target = FaultUniverse::collapsed(&nl)
        .faults()
        .iter()
        .copied()
        .find(|&f| podem.generate_seeded(f, Some(&preset)) == PodemOutcome::Aborted)
        .expect("some ex target aborts");
    let (bytes, calls, outcome) = measured(|| podem.generate_seeded(target, Some(&preset)));
    println!(
        "ex {bits}-bit {}: repeat PODEM call: {bytes} bytes in {calls} allocations",
        target.describe()
    );
    assert_eq!(outcome, PodemOutcome::Aborted, "same target, same search");
    assert_eq!(
        (bytes, calls),
        (0, 0),
        "a warmed PODEM call without a test must not touch the heap"
    );
}

#[test]
fn warmed_fault_detection_allocates_zero_bytes() {
    let bits = 4;
    let dfg = hlts_benchmarks::by_name("ewf").expect("bundled benchmark");
    let (nl, steps) = common::elaborated(&dfg, bits);
    let atpg = TcovConfig::for_schedule(steps, None, 1).atpg;
    let seqs = fsim::random_sequences(&nl, &atpg, &fsim::control_inputs(&nl));
    let universe = FaultUniverse::collapsed(&nl);
    let faults = universe.faults();
    let fs = FaultSimulator::new(nl);
    // Warm-up: the first sequence sizes the trace, and grading every
    // fault against it exercises the scratch; what it leaves undetected
    // is the pending list the second sequence grades.
    let mut scratch = fs.scratch();
    let mut trace = fs.good_trace(&seqs[0]);
    let pending: Vec<_> = faults
        .iter()
        .copied()
        .filter(|&f| !fs.detects(&mut scratch, &trace, f))
        .collect();
    let (rec_bytes, rec_calls, ()) = measured(|| fs.record(&seqs[1], &mut trace));
    let (bytes, calls, hits) = measured(|| {
        pending
            .iter()
            .filter(|&&f| fs.detects(&mut scratch, &trace, f))
            .count()
    });
    println!(
        "ewf {bits}-bit, {}-cycle sequences: record a good trace: {rec_bytes} bytes in \
         {rec_calls} allocations; grade {} pending faults ({hits} detected): \
         {bytes} bytes in {calls} allocations",
        seqs[1].len(),
        pending.len()
    );
    assert!(
        !pending.is_empty(),
        "the first sequence leaves faults pending"
    );
    assert_eq!(
        (rec_bytes, rec_calls),
        (0, 0),
        "recording into a reused trace must not touch the heap"
    );
    assert_eq!(
        (bytes, calls),
        (0, 0),
        "grading with a warmed scratch must not touch the heap"
    );
}
