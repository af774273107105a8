//! Property-based tests for the synthesis core: random merger storms
//! must never produce an invalid design state, and the full algorithm
//! must stay valid and deterministic on random behaviors.

use hlts_core::{
    merge_modules_with_resched, merge_registers_with_resched, DesignState, IntegratedSynthesizer,
    SynthesisParams,
};
use hlts_dfg::{Dfg, DfgBuilder, OpKind};
use hlts_testability::TestabilityAnalysis;
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

/// The worklist analysis of `dp` equals the dense reference bit for
/// bit, with the same sweep and update counts.
fn assert_matches_dense(dp: &hlts_etpn::DataPath) {
    let worklist = TestabilityAnalysis::analyze(dp);
    let dense = TestabilityAnalysis::analyze_dense(dp);
    for node in dp.nodes() {
        let (a, b) = (
            worklist.output_controllability(node.id()),
            dense.output_controllability(node.id()),
        );
        prop_assert_eq!(a.cc.to_bits(), b.cc.to_bits(), "cc of {}", node.label());
        prop_assert_eq!(a.sc.to_bits(), b.sc.to_bits(), "sc of {}", node.label());
    }
    for arc in dp.arcs() {
        let (a, b) = (
            worklist.arc_observability(arc.id()),
            dense.arc_observability(arc.id()),
        );
        prop_assert_eq!(a.co.to_bits(), b.co.to_bits(), "co of {}", arc.id());
        prop_assert_eq!(a.so.to_bits(), b.so.to_bits(), "so of {}", arc.id());
    }
    prop_assert_eq!(worklist.sweeps_used(), dense.sweeps_used());
    prop_assert_eq!(worklist.updates_propagated(), dense.updates_propagated());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Apply a random storm of module/register mergers: after every
    /// attempt — accepted or rejected — the design state must validate
    /// (schedule legal, binding legal, lifetimes disjoint).
    #[test]
    fn merger_storm_preserves_validity(
        spec in spec_strategy(),
        merges in prop::collection::vec((any::<u8>(), any::<u8>(), any::<bool>()), 0..8),
    ) {
        let d = build_dfg(&spec);
        let mut state = DesignState::initial(&d).expect("initial");
        for (x, y, register) in merges {
            if register {
                let regs: Vec<_> = state.allocation.registers().map(|r| r.id()).collect();
                let (a, b) = (
                    regs[x as usize % regs.len()],
                    regs[y as usize % regs.len()],
                );
                let _ = merge_registers_with_resched(&mut state, a, b);
            } else {
                let mods: Vec<_> = state.allocation.modules().map(|m| m.id()).collect();
                let (a, b) = (
                    mods[x as usize % mods.len()],
                    mods[y as usize % mods.len()],
                );
                let _ = merge_modules_with_resched(&mut state, a, b);
            }
            prop_assert!(state.validate().is_ok(), "state invalid after merger");
        }
    }

    /// The full algorithm always produces a valid, compacting design and
    /// is deterministic.
    #[test]
    fn algorithm_is_valid_and_deterministic(spec in spec_strategy()) {
        let d = build_dfg(&spec);
        let synth = IntegratedSynthesizer::new(SynthesisParams::default());
        let r1 = synth.run(&d).expect("synthesis");
        let r2 = synth.run(&d).expect("synthesis");
        prop_assert_eq!(&r1.allocation, &r2.allocation);
        prop_assert_eq!(&r1.schedule, &r2.schedule);
        r1.schedule.validate(&r1.dfg).expect("legal schedule");
        r1.schedule
            .validate_groups(&r1.dfg, &r1.allocation.conflict_groups())
            .expect("legal binding");
        let lt = hlts_sched::Lifetimes::compute(&r1.dfg, &r1.schedule);
        r1.allocation
            .validate(&r1.dfg, &r1.schedule, &lt)
            .expect("legal registers");
    }

    /// The worklist testability solver tracks a random merger storm:
    /// after every accepted merger (which perturbs the binding, the
    /// schedule and the precedence arcs at once), it yields exactly the
    /// dense reference fixpoint of the new data path, bit for bit, with
    /// the same sweep and update counts.
    #[test]
    fn testability_tracks_merger_storms(
        spec in spec_strategy(),
        merges in prop::collection::vec((any::<u8>(), any::<u8>(), any::<bool>()), 0..8),
    ) {
        let d = build_dfg(&spec);
        let mut state = DesignState::initial(&d).expect("initial");
        let dp = state.lower().expect("lower").data_path().clone();
        assert_matches_dense(&dp);
        for (x, y, register) in merges {
            let accepted = if register {
                let regs: Vec<_> = state.allocation.registers().map(|r| r.id()).collect();
                let (a, b) = (
                    regs[x as usize % regs.len()],
                    regs[y as usize % regs.len()],
                );
                merge_registers_with_resched(&mut state, a, b).is_ok()
            } else {
                let mods: Vec<_> = state.allocation.modules().map(|m| m.id()).collect();
                let (a, b) = (
                    mods[x as usize % mods.len()],
                    mods[y as usize % mods.len()],
                );
                merge_modules_with_resched(&mut state, a, b).is_ok()
            };
            if !accepted {
                continue;
            }
            let dp = state.lower().expect("lower").data_path().clone();
            assert_matches_dense(&dp);
        }
    }

    /// The worklist solver Algorithm 1 uses agrees with the dense
    /// reference fixpoint on fully synthesized (heavily merged) designs,
    /// not just on random deltas.
    #[test]
    fn final_design_analysis_matches_dense(spec in spec_strategy()) {
        let d = build_dfg(&spec);
        let r = IntegratedSynthesizer::new(SynthesisParams::default())
            .run(&d)
            .expect("synthesis");
        let etpn = hlts_etpn::Etpn::from_parts(&r.dfg, &r.schedule, &r.allocation)
            .expect("lowerable");
        let worklist = TestabilityAnalysis::analyze(etpn.data_path());
        let dense = TestabilityAnalysis::analyze_dense(etpn.data_path());
        prop_assert_eq!(&worklist, &dense);
    }

    /// Execution time is monotone under the α knob: an α-dominant run
    /// never ends slower than a β-dominant run of the same behavior.
    #[test]
    fn alpha_protects_latency(spec in spec_strategy()) {
        let d = build_dfg(&spec);
        let fast = IntegratedSynthesizer::new(SynthesisParams {
            alpha: 1000.0,
            beta: 1.0,
            ..SynthesisParams::default()
        })
        .run(&d)
        .expect("synthesis");
        let small = IntegratedSynthesizer::new(SynthesisParams {
            alpha: 0.01,
            beta: 100.0,
            ..SynthesisParams::default()
        })
        .run(&d)
        .expect("synthesis");
        prop_assert!(fast.metrics.execution_time <= small.metrics.execution_time);
    }
}
