//! Criterion bench: the CC/SC/CO/SO fixpoint analysis — step 2 of
//! Algorithm 1, run once per iteration on the current data path.
//!
//! Beyond the one-to-one baseline, three paper benchmarks and generated
//! graphs of 48/96/192 ops are measured on a merged variant (one
//! committed module merger, as the ΔC loop produces) through both
//! solvers:
//!
//! * `dense`    — [`TestabilityAnalysis::analyze_dense`]: full
//!   Gauss–Seidel sweeps (the reference);
//! * `worklist` — [`TestabilityAnalysis::analyze`]: the indexed
//!   worklist fixpoint the product runs.
//!
//! The run **asserts** that the two agree bit for bit on every graph
//! measured (values, sweep and update counts) and prints the dense /
//! worklist ratio. The ratio is informational: it depends on the host,
//! so no speed gate rests on it.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use hlts_alloc::Allocation;
use hlts_core::{merge_modules_with_resched, DesignState};
use hlts_etpn::{DataPath, Etpn};
use hlts_gen::{generate, GenConfig};
use hlts_sched::{list_schedule, ListPriority};
use hlts_testability::{total_co_depth, TestabilityAnalysis};

/// Sizes (op counts) of the generated graphs the solvers run on.
const GEN_SIZES: [usize; 3] = [48, 96, 192];

/// Seed for the generated graphs — fixed so the bench is deterministic.
const GEN_SEED: u64 = 7;

/// The generated graph measured at `ops` operations: the balanced
/// preset, widened to 8 primary inputs.
fn gen_graph(ops: usize) -> hlts_dfg::Dfg {
    let cfg = GenConfig {
        name: format!("gen{ops}"),
        ops,
        inputs: 8,
        ..GenConfig::default()
    };
    generate(GEN_SEED, &cfg).expect("generated graph")
}

fn testability(c: &mut Criterion) {
    let mut group = c.benchmark_group("testability");
    for (name, dfg) in hlts_benchmarks::all() {
        let s = list_schedule(&dfg, &[], ListPriority::CriticalPath).expect("schedulable");
        let a = Allocation::one_to_one(&dfg);
        let etpn = Etpn::from_parts(&dfg, &s, &a).expect("lowerable");
        group.bench_with_input(
            BenchmarkId::new("analyze", name),
            etpn.data_path(),
            |b, dp| b.iter(|| TestabilityAnalysis::analyze(dp)),
        );
        let analysis = TestabilityAnalysis::analyze(etpn.data_path());
        group.bench_with_input(
            BenchmarkId::new("co_depth", name),
            etpn.data_path(),
            |b, dp| b.iter(|| total_co_depth(dp, &analysis)),
        );
    }
    group.finish();
}

/// The first module merger the rescheduling layer accepts — the same
/// kind of single-merge delta the ΔC loop evaluates per candidate.
fn merged_variant(state: &DesignState) -> DesignState {
    let mods: Vec<_> = state.allocation.modules().map(|m| m.id()).collect();
    for i in 0..mods.len() {
        for j in (i + 1)..mods.len() {
            let mut trial = state.clone();
            if merge_modules_with_resched(&mut trial, mods[i], mods[j]).is_ok() {
                return trial;
            }
        }
    }
    panic!("no module pair merges");
}

/// The post-merge data path the solver benches measure.
fn merged_path(dfg: &hlts_dfg::Dfg) -> DataPath {
    let base = DesignState::initial(dfg).expect("initial state");
    let merged = merged_variant(&base);
    merged.lower().expect("lowerable").data_path().clone()
}

/// Panics unless both solvers give `dp` the same analysis, bit for bit,
/// with the same sweep and update counts.
fn assert_bit_identical(name: &str, dp: &DataPath) {
    let dense = TestabilityAnalysis::analyze_dense(dp);
    let worklist = TestabilityAnalysis::analyze(dp);
    for node in dp.nodes() {
        let (a, b) = (
            dense.output_controllability(node.id()),
            worklist.output_controllability(node.id()),
        );
        assert!(
            a.cc.to_bits() == b.cc.to_bits() && a.sc.to_bits() == b.sc.to_bits(),
            "{name}: solvers disagree on the controllability of {:?}",
            node.kind()
        );
    }
    for arc in dp.arcs() {
        let (a, b) = (
            dense.arc_observability(arc.id()),
            worklist.arc_observability(arc.id()),
        );
        assert!(
            a.co.to_bits() == b.co.to_bits() && a.so.to_bits() == b.so.to_bits(),
            "{name}: solvers disagree on the observability of arc {}",
            arc.id()
        );
    }
    assert_eq!(dense.sweeps_used(), worklist.sweeps_used(), "{name}");
    assert_eq!(
        dense.updates_propagated(),
        worklist.updates_propagated(),
        "{name}"
    );
}

/// The graphs the solvers run on: three paper benchmarks, then the
/// generated sizes.
fn solver_graphs() -> impl Iterator<Item = (String, hlts_dfg::Dfg)> {
    [
        ("ex".to_owned(), hlts_benchmarks::ex()),
        ("dct".to_owned(), hlts_benchmarks::dct()),
        ("diffeq".to_owned(), hlts_benchmarks::diffeq()),
    ]
    .into_iter()
    .chain(GEN_SIZES.map(|ops| (format!("gen{ops}"), gen_graph(ops))))
}

fn solvers(c: &mut Criterion) {
    let mut group = c.benchmark_group("testability");
    for (name, dfg) in solver_graphs() {
        let name = name.as_str();
        let dp = merged_path(&dfg);
        assert_bit_identical(name, &dp);
        group.bench_with_input(BenchmarkId::new("dense", name), &dp, |b, dp| {
            b.iter(|| TestabilityAnalysis::analyze_dense(dp))
        });
        group.bench_with_input(BenchmarkId::new("worklist", name), &dp, |b, dp| {
            b.iter(|| TestabilityAnalysis::analyze(dp))
        });
    }
    group.finish();
}

/// Print each graph's dense / worklist median ratio (informational).
fn report_ratios(c: &mut Criterion) {
    println!();
    for (name, _) in solver_graphs() {
        let dense = c
            .median_ns(&format!("testability/dense/{name}"))
            .expect("dense ran");
        let worklist = c
            .median_ns(&format!("testability/worklist/{name}"))
            .expect("worklist ran");
        let s = dense / worklist;
        println!("ratio {name:<28} dense / worklist {s:6.1}x (informational)");
    }
    println!("solvers: dense == worklist, bit for bit, on every graph — OK");
}

criterion_group!(benches, testability, solvers, report_ratios);
criterion_main!(benches);
