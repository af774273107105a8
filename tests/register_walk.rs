//! The register walk's graph-only decisions equal the merger's.
//!
//! A register merger walks the two registers' values in birth order (a
//! merge-sort), asks of every head pair whether each lifetime order is
//! feasible, and chains the merged order with disjointness arcs. Two
//! shortcuts decide parts of that walk on the precedence graph alone:
//!
//! * [`lifetime_order_feasible`], the read-only probe the walk asks of
//!   both orders of every head pair, must equal applying the order's
//!   arcs in a transaction and rescheduling — the probe it replaced,
//!   written out here with [`Dfg::reaches_dfs`] for its cycle test, so
//!   it shares no code with the reachability index;
//! * [`register_walk_verdict`], the dry walk that [`trial_merge`] runs
//!   before it opens a transaction, must call a merger `Refused` only
//!   when the merger fails, and `Survives` only when the merger succeeds
//!   or fails its post-merge validation (a loop destination and a value
//!   defined in the final control step, which only the reschedule
//!   decides); a `Split` rests on SR2's pick.
//!   `trial_merge`'s lazy form must refuse (count as `prechecked`)
//!   exactly the `Refused` ones and price exactly what the merger
//!   accepts, and the state must come out of both unchanged.
//!
//! Both are checked on every state Algorithm 1 commits (replayed from
//! its trace) and on every pair of live registers of each — a superset
//! of the candidates it shortlists; the probe on every value pair of
//! the two registers, a superset of the head pairs the walk visits.
//! Each iteration's recorded trace entry must also keep every refused
//! candidate in its place: the shortlist's length is the entry's
//! `total`, and a price is missing exactly where the merger fails.
//!
//! The default case runs four small benchmarks and a strided slice of
//! ewf at 4 bits; the release matrix runs every pair on the 6 paper
//! benchmarks at 4, 8 and 16 bits and 32 generated graphs at 4 and 8
//! bits:
//!
//! ```text
//! cargo test --release --test register_walk -- --ignored
//! ```

use hlts::core::{
    disjointness_arcs, enumerate_candidates, lifetime_order_feasible, merge_modules_with_resched,
    merge_registers_with_resched, register_walk_verdict, trial_merge, DeltaEvaluator, DesignState,
    IntegratedSynthesizer, MergeKind, RunCtl, SynthesisParams, TraceEntry, WalkVerdict,
};
use hlts::dfg::{Dfg, ValueId};
use hlts::gen::{generate, preset, PRESET_NAMES};
use hlts::testability::TestabilityAnalysis;

/// What one run's checks saw.
#[derive(Debug, Default)]
struct Tally {
    states: usize,
    probes: usize,
    feasible_probes: usize,
    candidates: usize,
    refused: usize,
    split: usize,
    failed: usize,
    post_merge_only: usize,
    /// Mergers that succeed although some value pair of the two
    /// registers can be ordered neither way on the base graph: what a
    /// pairwise pre-check would refuse wrongly.
    pairwise_wrong: usize,
    /// Of those, the ones with a value pair whose order no arc set
    /// expresses at all.
    pairwise_wrong_inexpressible: usize,
}

impl Tally {
    fn add(&mut self, o: &Tally) {
        self.states += o.states;
        self.probes += o.probes;
        self.feasible_probes += o.feasible_probes;
        self.candidates += o.candidates;
        self.refused += o.refused;
        self.split += o.split;
        self.failed += o.failed;
        self.post_merge_only += o.post_merge_only;
        self.pairwise_wrong += o.pairwise_wrong;
        self.pairwise_wrong_inexpressible += o.pairwise_wrong_inexpressible;
    }
}

/// Apply the arcs ordering `earlier`'s lifetime before `later`'s in a
/// transaction and reschedule — the probe the register walk ran before
/// it asked the graph — then roll back.
fn rescheduled_probe(state: &mut DesignState, earlier: ValueId, later: ValueId) -> bool {
    let Some(arcs) = disjointness_arcs(&state.dfg, earlier, later) else {
        return false;
    };
    let mut txn = state.begin();
    for arc in arcs {
        let dfg = &txn.state().dfg;
        if arc.weak && dfg.reaches_dfs(arc.from, arc.to) {
            continue;
        }
        if dfg.reaches_dfs(arc.to, arc.from) {
            return false;
        }
        let added = if arc.weak {
            txn.add_weak_precedence(arc.from, arc.to)
        } else {
            txn.add_precedence(arc.from, arc.to)
        };
        if added.is_err() {
            return false;
        }
    }
    txn.reschedule().is_ok()
}

/// Whether the merger succeeds on a copy of `state`, and its refusal
/// message when not.
fn apply(state: &DesignState, kind: MergeKind) -> Result<(), String> {
    let mut copy = state.fork();
    match kind {
        MergeKind::Modules(a, b) => merge_modules_with_resched(&mut copy, a, b),
        MergeKind::Registers(a, b) => merge_registers_with_resched(&mut copy, a, b),
    }
    .map_err(|e| e.to_string())
}

/// The probe and verdict checks of the module docs, on every
/// `stride`-th pair of live registers of `state`.
fn check_state(tag: &str, state: &mut DesignState, stride: usize, t: &mut Tally) {
    t.states += 1;
    let registers: Vec<_> = state.allocation.registers().map(|r| r.id()).collect();
    let pairs = registers
        .iter()
        .enumerate()
        .flat_map(|(i, &a)| registers[i + 1..].iter().map(move |&b| (a, b)));
    for (a, b) in pairs.step_by(stride) {
        let values = |r| {
            state
                .allocation
                .register(r)
                .expect("live register")
                .values()
                .to_vec()
        };
        let (va, vb) = (values(a), values(b));
        let (mut unorderable, mut inexpressible) = (false, false);
        for &x in &va {
            for &y in &vb {
                let mut orderable = false;
                for (earlier, later) in [(x, y), (y, x)] {
                    let read_only = lifetime_order_feasible(&state.dfg, earlier, later);
                    let rescheduled = rescheduled_probe(state, earlier, later);
                    assert_eq!(
                        read_only,
                        rescheduled,
                        "{tag}: ordering `{}` before `{}`",
                        state.dfg.value(earlier).name(),
                        state.dfg.value(later).name()
                    );
                    t.probes += 1;
                    t.feasible_probes += usize::from(read_only);
                    orderable |= read_only;
                    inexpressible |= disjointness_arcs(&state.dfg, earlier, later).is_none();
                }
                unorderable |= !orderable;
            }
        }

        let dfg_before = state.dfg.deep_clone();
        let verdict = register_walk_verdict(state, a, b);
        assert!(state.dfg == dfg_before, "{tag}: the dry walk left arcs");
        let prechecked = state.txn_stats().prechecked;
        let priced = trial_merge(state, MergeKind::Registers(a, b), |_| Some(()));
        let refused = state.txn_stats().prechecked > prechecked;
        assert!(state.dfg == dfg_before, "{tag}: the trial left arcs");
        assert_eq!(
            refused,
            verdict == WalkVerdict::Refused,
            "{tag}: {a} + {b}: the trial's lazy walk disagrees with the full one ({verdict:?})"
        );
        let applied = apply(state, MergeKind::Registers(a, b));
        t.candidates += 1;
        t.refused += usize::from(refused);
        t.split += usize::from(verdict == WalkVerdict::Split);
        t.failed += usize::from(applied.is_err());
        assert_eq!(
            priced.is_some(),
            applied.is_ok(),
            "{tag}: {a} + {b}: the trial disagrees with the merger"
        );
        if unorderable && applied.is_ok() {
            t.pairwise_wrong += 1;
            t.pairwise_wrong_inexpressible += usize::from(inexpressible);
        }
        match (verdict, &applied) {
            (WalkVerdict::Refused, Ok(())) => {
                panic!("{tag}: {a} + {b} refused but the merger succeeds")
            }
            (WalkVerdict::Survives, Err(e)) => {
                assert!(
                    e.contains("post-merge validation"),
                    "{tag}: {a} + {b} fails in the walk but the dry walk let it through: {e}"
                );
                t.post_merge_only += 1;
            }
            _ => {}
        }
    }
}

/// The recorded entry of one iteration keeps every refused candidate in
/// its place: same shortlist length, a missing price exactly where the
/// merger fails.
fn check_entry(tag: &str, state: &DesignState, entry: &TraceEntry) {
    let dp = state.data_path().expect("structural path");
    let analysis = TestabilityAnalysis::analyze(&dp);
    let candidates = enumerate_candidates(state, &dp, &analysis);
    assert_eq!(candidates.len(), entry.total, "{tag}: shortlist length");
    for (i, (cand, price)) in candidates.iter().zip(&entry.prices).enumerate() {
        assert_eq!(
            price.is_some(),
            apply(state, cand.kind).is_ok(),
            "{tag}: candidate {i} ({:?})",
            cand.kind
        );
    }
}

/// Run Algorithm 1 on `dfg` at `bits`, then replay its trace, checking
/// every committed state.
fn check_run(tag: &str, dfg: &Dfg, bits: u32, stride: usize) -> Tally {
    let params = SynthesisParams::paper_defaults(bits);
    let base = DesignState::initial(dfg).expect("initial state");
    let warm = IntegratedSynthesizer::new(params)
        .run_on_warm(&base, &DeltaEvaluator::new(), &RunCtl::none(), None)
        .expect("synthesis");
    let mut state = DesignState::initial(dfg).expect("initial state");
    let mut t = Tally::default();
    for (i, entry) in warm.trace.entries.iter().enumerate() {
        let at = format!("{tag} iteration {i}");
        check_state(&at, &mut state, stride, &mut t);
        check_entry(&at, &state, entry);
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
    t
}

#[test]
fn register_walk_matches_the_merger_on_small_benchmarks() {
    let mut t = Tally::default();
    for (name, stride) in [
        ("ex", 1),
        ("diffeq", 1),
        ("paulin", 1),
        ("tseng", 1),
        ("ewf", 7),
    ] {
        let dfg = hlts::benchmarks::by_name(name).expect("bundled benchmark");
        t.add(&check_run(name, &dfg, 4, stride));
    }
    println!("{t:?}");
    assert!(
        t.states > 100 && t.refused > 1000 && t.split > 10 && t.post_merge_only > 10,
        "too little checked: {t:?}"
    );
}

#[test]
#[ignore = "release matrix: every paper benchmark and 32 generated graphs, every register pair"]
fn register_walk_matches_the_merger_matrix() {
    let mut t = Tally::default();
    for bits in [4, 8, 16] {
        for (name, dfg) in hlts::benchmarks::all() {
            t.add(&check_run(&format!("{name}@{bits}"), &dfg, bits, 1));
        }
        if bits == 16 {
            continue;
        }
        for p in PRESET_NAMES {
            let cfg = preset(p).expect("built-in preset");
            for seed in 0..8u64 {
                let dfg = generate(seed, &cfg).expect("generator");
                t.add(&check_run(&format!("{p}/seed{seed}@{bits}"), &dfg, bits, 1));
            }
        }
    }
    println!("{t:?}");
}
