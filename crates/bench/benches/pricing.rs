//! Criterion bench: the (E, H) miss path of Algorithm 1's pricing, layer
//! by layer — what `merge_loop` cannot show, since it prices its trials
//! by `num_steps()`.
//!
//! One fixed sweep point — the `wide-logic` generated graph (seed 1,
//! 20 operations, as `hlts-perf`'s sweep corpus has it) at 4 bits with
//! the paper's parameters (`k = 3`) — is synthesized, then replayed
//! iteration by iteration, and every trial state Algorithm 1 priced is
//! kept. Over all of them the bench times:
//!
//! * `pricing/build` — building each trial's structural data path into
//!   one reused [`DataPath`] ([`DesignState::data_path_into`], as
//!   `DeltaEvaluator` does on a miss);
//! * `pricing/estimate_cost` — floorplanning each built path and
//!   summing its area ([`estimate_cost`], the `H` of the miss).
//!
//! Both are printed per priced trial. The figures are informative: no
//! gate, since absolute times move with the host. The bench does check
//! that the reused buffer builds the same path, and the same `H`, as a
//! fresh build.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use hlts_core::{
    enumerate_candidates, merge_modules_with_resched, merge_registers_with_resched, trial_merge,
    DeltaEvaluator, DesignState, IntegratedSynthesizer, MergeKind, RunCtl, SynthesisParams,
};
use hlts_cost::{estimate_cost, ModuleLibrary};
use hlts_etpn::DataPath;
use hlts_testability::TestabilityAnalysis;

const BITS: u32 = 4;

/// Every trial state one synthesis run priced, in pricing order.
fn priced_trials() -> (Vec<DesignState>, ModuleLibrary) {
    let mut cfg = hlts_gen::preset("wide-logic").expect("built-in preset");
    cfg.ops = 20;
    let dfg = hlts_gen::generate(1, &cfg).expect("generator");
    let params = SynthesisParams::paper_defaults(BITS);
    assert_eq!(params.k, 3, "the paper's shortlist size at 4 bits");
    let lib = params.library.clone();
    let base = DesignState::initial(&dfg).expect("initial state");
    let warm = IntegratedSynthesizer::new(params)
        .run_on_warm(&base, &DeltaEvaluator::new(), &RunCtl::none(), None)
        .expect("synthesis");
    let mut state = base.fork();
    let mut trials = Vec::new();
    for entry in &warm.trace.entries {
        let dp = state.data_path().expect("committed states lower");
        let shortlist = enumerate_candidates(&state, &dp, &TestabilityAnalysis::analyze(&dp));
        for cand in &shortlist[..entry.prices.len()] {
            if let Some(trial) = trial_merge(&mut state, cand.kind, |t| Some(t.fork())) {
                trials.push(trial);
            }
        }
        let Some(w) = &entry.winner else { break };
        match w.resolve(&state).expect("recorded merge resolves") {
            MergeKind::Modules(a, b) => merge_modules_with_resched(&mut state, a, b),
            MergeKind::Registers(a, b) => merge_registers_with_resched(&mut state, a, b),
        }
        .expect("recorded merge replays");
    }
    assert_eq!(state.allocation, warm.result.allocation, "replay end");
    (trials, lib)
}

fn bench_pricing(c: &mut Criterion) {
    let (trials, lib) = priced_trials();
    let paths: Vec<DataPath> = trials
        .iter()
        .map(|t| t.data_path().expect("priced states lower"))
        .collect();
    let mut reused = DataPath::new();
    for (t, fresh) in trials.iter().zip(&paths) {
        t.data_path_into(&mut reused).expect("priced states lower");
        assert_eq!(reused.nodes(), fresh.nodes(), "reused build: nodes");
        assert_eq!(reused.arcs(), fresh.arcs(), "reused build: arcs");
        assert_eq!(
            estimate_cost(&reused, BITS, &lib).total().to_bits(),
            estimate_cost(fresh, BITS, &lib).total().to_bits(),
            "reused build: H"
        );
    }
    let n = trials.len();
    let (nodes, arcs) = paths
        .iter()
        .fold((0, 0), |(v, a), dp| (v + dp.num_nodes(), a + dp.num_arcs()));
    println!(
        "wide-logic@{BITS}, k = 3: {n} priced trials, {:.1} nodes and {:.1} arcs on average",
        nodes as f64 / n as f64,
        arcs as f64 / n as f64
    );

    c.bench_function("pricing/build", |b| {
        b.iter(|| {
            for t in &trials {
                t.data_path_into(&mut reused).expect("priced states lower");
                black_box(reused.num_arcs());
            }
        });
    });
    c.bench_function("pricing/estimate_cost", |b| {
        b.iter(|| {
            for dp in &paths {
                black_box(estimate_cost(dp, BITS, &lib));
            }
        });
    });
    for stage in ["build", "estimate_cost"] {
        let ns = c.median_ns(&format!("pricing/{stage}")).expect("bench ran");
        println!(
            "pricing/{stage}: {:.2} µs per priced trial",
            ns / n as f64 / 1000.0
        );
    }
}

criterion_group!(benches, bench_pricing);
criterion_main!(benches);
