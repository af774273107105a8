//! The two contracts of the transaction layer:
//!
//! 1. **Rollback is exact.** Applying a trial merger through a
//!    [`StateTxn`] and rolling it back (explicitly, by savepoint, or by
//!    drop) leaves the design state *bit-identical* — deep-equal graph,
//!    schedule and allocation, and an unchanged evaluator fingerprint —
//!    under random merger storms on random behaviors.
//! 2. **The journal changes nothing but cost.** Full synthesis through
//!    the in-place transaction path produces results equal to the
//!    retained clone-based formulation (`hlts_core::oracle`) on every
//!    bundled benchmark.

use hlts_core::{
    oracle, trial_merge, DeltaEvaluator, DesignState, IntegratedSynthesizer, MergeKind,
    SynthesisParams,
};
use hlts_dfg::{Dfg, DfgBuilder, OpKind};
use proptest::prelude::*;

fn build_dfg(spec: &[(u8, u8, u8)]) -> Dfg {
    let mut b = DfgBuilder::new("prop");
    let mut vals = vec![b.input("i0"), b.input("i1")];
    for (n, &(k, x, y)) in spec.iter().enumerate() {
        let kinds = [OpKind::Add, OpKind::Sub, OpKind::Mul, OpKind::Xor];
        let kind = kinds[k as usize % kinds.len()];
        let a = vals[x as usize % vals.len()];
        let c = vals[y as usize % vals.len()];
        let out = b
            .op(&format!("N{n}"), kind, &[a, c], &format!("v{n}"))
            .expect("fresh name");
        vals.push(out);
    }
    let last = *vals.last().expect("nonempty");
    b.mark_output(last);
    b.finish().expect("well-formed")
}

fn spec_strategy() -> impl Strategy<Value = Vec<(u8, u8, u8)>> {
    prop::collection::vec((any::<u8>(), any::<u8>(), any::<u8>()), 1..10)
}

/// Deep-equality + fingerprint check of `state` against a snapshot.
fn assert_restored(state: &DesignState, snap: &DesignState, fp: u64, what: &str) {
    assert_eq!(state.dfg, snap.dfg, "{what}: graph not restored");
    assert_eq!(
        state.schedule, snap.schedule,
        "{what}: schedule not restored"
    );
    assert_eq!(
        state.allocation, snap.allocation,
        "{what}: allocation not restored"
    );
    assert_eq!(
        DeltaEvaluator::fingerprint(state),
        fp,
        "{what}: fingerprint drifted"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// A storm of trial mergers — some feasible, some not, some
    /// interleaved with committed ones — must leave the state
    /// bit-identical to its pre-trial snapshot after every rollback.
    #[test]
    fn trial_rollback_restores_state_bit_identically(
        spec in spec_strategy(),
        storm in prop::collection::vec(
            (any::<u8>(), any::<u8>(), any::<bool>(), any::<bool>()), 0..10),
    ) {
        let d = build_dfg(&spec);
        let mut state = DesignState::initial(&d).expect("initial");
        for (x, y, register, commit) in storm {
            let kind = if register {
                let regs: Vec<_> = state.allocation.registers().map(|r| r.id()).collect();
                MergeKind::Registers(
                    regs[x as usize % regs.len()],
                    regs[y as usize % regs.len()],
                )
            } else {
                let mods: Vec<_> = state.allocation.modules().map(|m| m.id()).collect();
                MergeKind::Modules(
                    mods[x as usize % mods.len()],
                    mods[y as usize % mods.len()],
                )
            };
            let snap = state.deep_trial_clone();
            let fp = DeltaEvaluator::fingerprint(&state);
            // A pure-read pricing closure: trial applies, prices, rolls back.
            let priced = trial_merge(&mut state, kind, |t| {
                Some(t.schedule.num_steps() as f64)
            });
            assert_restored(&state, &snap, fp, "after trial_merge");
            prop_assert!(state.validate().is_ok());
            // Occasionally commit the same merger for real, so later
            // trials in the storm run against merged states too.
            if commit && priced.is_some() {
                let r = match kind {
                    MergeKind::Modules(a, b) => {
                        hlts_core::merge_modules_with_resched(&mut state, a, b)
                    }
                    MergeKind::Registers(a, b) => {
                        hlts_core::merge_registers_with_resched(&mut state, a, b)
                    }
                };
                prop_assert!(r.is_ok(), "priced merger must re-apply");
                prop_assert!(state.validate().is_ok());
            }
        }
    }

    /// Savepoint rollbacks inside one open transaction are exact too:
    /// open a txn, apply a merger, roll back to the savepoint, commit
    /// the (now empty) transaction — the state must be untouched.
    #[test]
    fn savepoint_rollback_is_bit_identical(
        spec in spec_strategy(),
        x in any::<u8>(),
        y in any::<u8>(),
    ) {
        let d = build_dfg(&spec);
        let mut state = DesignState::initial(&d).expect("initial");
        let snap = state.deep_trial_clone();
        let fp = DeltaEvaluator::fingerprint(&state);
        {
            let mut txn = state.begin();
            let sp = txn.savepoint();
            let mods: Vec<_> = txn.state().allocation.modules().map(|m| m.id()).collect();
            let (a, b) = (mods[x as usize % mods.len()], mods[y as usize % mods.len()]);
            if a != b {
                let _ = txn.merge_modules(a, b);
                let _ = txn.reschedule();
            }
            txn.rollback_to(sp);
            txn.commit();
        }
        assert_restored(&state, &snap, fp, "after savepoint rollback");
    }
}

/// Whole-algorithm equivalence: the transactional path must reproduce
/// the clone oracle's result exactly — same graph arcs, schedule,
/// binding, metrics and merge log — on every bundled benchmark.
/// (`SynthesisResult` equality excludes the cache/journal diagnostics.)
#[test]
fn txn_synthesis_matches_clone_oracle_on_benchmarks() {
    for (name, dfg) in hlts_benchmarks::all() {
        let params = SynthesisParams::paper_defaults(8);
        let want = oracle::synthesize(&dfg, &params).expect("oracle");
        let got = IntegratedSynthesizer::new(params)
            .run(&dfg)
            .expect("txn synthesis");
        assert_eq!(
            got, want,
            "{name}: transactional result diverges from clone oracle"
        );
    }
}

/// The counters actually count: a benchmark run must report trials
/// begun, rollbacks for every rejected candidate, and replayed undo ops.
#[test]
fn txn_counters_are_populated() {
    let dfg = hlts_benchmarks::ex();
    let r = IntegratedSynthesizer::new(SynthesisParams::paper_defaults(8))
        .run(&dfg)
        .expect("synthesis");
    let s = r.txn_stats;
    assert!(s.begun > 0, "no transactions begun: {s:?}");
    assert_eq!(
        s.begun,
        s.committed + s.rolled_back,
        "txn accounting leak: {s:?}"
    );
    assert!(s.rolled_back > 0, "no trial was rolled back: {s:?}");
    assert!(s.committed > 0, "no merger was committed: {s:?}");
    assert!(
        s.ops_recorded >= s.ops_replayed,
        "replayed more than recorded: {s:?}"
    );
    assert!(s.ops_replayed > 0, "rollbacks replayed nothing: {s:?}");
}
