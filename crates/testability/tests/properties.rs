//! Property-based tests for the testability analysis: the CC/SC/CO/SO
//! fixpoint must stay within its domains, converge, and respond to
//! structure (deeper registers are never easier to control than their
//! sources' best case).

use hlts_alloc::Allocation;
use hlts_dfg::{Dfg, DfgBuilder, OpKind};
use hlts_etpn::{DataPath, Etpn};
use hlts_sched::{list_schedule, Lifetimes, ListPriority};
use hlts_testability::{balance_score_profiles, NodeProfile, TestabilityAnalysis};
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
    prop::collection::vec((any::<u8>(), any::<u8>(), any::<u8>()), 1..12)
}

fn analyzed(spec: &[(u8, u8, u8)]) -> (Dfg, Etpn, TestabilityAnalysis) {
    let d = build_dfg(spec);
    let s = list_schedule(&d, &[], ListPriority::CriticalPath).expect("schedulable");
    let a = Allocation::one_to_one(&d);
    let e = Etpn::from_parts(&d, &s, &a).expect("lowerable");
    let ta = TestabilityAnalysis::analyze(e.data_path());
    (d, e, ta)
}

/// The worklist analysis of `dp` equals the dense reference bit for
/// bit (`to_bits`), with the same sweep and update counts.
fn assert_matches_dense(dp: &DataPath) {
    let ta = TestabilityAnalysis::analyze(dp);
    let dense = TestabilityAnalysis::analyze_dense(dp);
    prop_assert!(ta == dense);
    prop_assert_eq!(ta.sweeps_used(), dense.sweeps_used());
    prop_assert_eq!(ta.updates_propagated(), dense.updates_propagated());
    for node in dp.nodes() {
        let a = ta.output_controllability(node.id());
        let b = dense.output_controllability(node.id());
        prop_assert_eq!(a.cc.to_bits(), b.cc.to_bits(), "cc of {:?}", node.kind());
        prop_assert_eq!(a.sc.to_bits(), b.sc.to_bits(), "sc of {:?}", node.kind());
    }
    for arc in dp.arcs() {
        let a = ta.arc_observability(arc.id());
        let b = dense.arc_observability(arc.id());
        prop_assert_eq!(a.co.to_bits(), b.co.to_bits(), "co of {}", arc.id());
        prop_assert_eq!(a.so.to_bits(), b.so.to_bits(), "so of {}", arc.id());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// CC/CO stay in [0, 1]; scalarizations stay in [0, 1]; the fixpoint
    /// converges well inside its sweep cap.
    #[test]
    fn measures_stay_in_domain(spec in spec_strategy()) {
        let (_d, e, ta) = analyzed(&spec);
        let dp = e.data_path();
        prop_assert!(ta.sweeps_used() < 64);
        for node in dp.nodes() {
            let c = ta.output_controllability(node.id());
            prop_assert!((0.0..=1.0).contains(&c.cc), "cc = {}", c.cc);
            prop_assert!(c.sc >= 0.0);
            let p = NodeProfile::of(&ta, dp, node.id());
            prop_assert!((0.0..=1.0).contains(&p.c));
            prop_assert!((0.0..=1.0).contains(&p.o));
        }
    }

    /// Primary inputs are perfectly controllable; every register fed
    /// (transitively) from inputs has positive controllability.
    #[test]
    fn inputs_dominate_controllability(spec in spec_strategy()) {
        let (_d, e, ta) = analyzed(&spec);
        let dp = e.data_path();
        for node in dp.nodes() {
            if node.kind().is_primary_input() {
                let c = ta.output_controllability(node.id());
                prop_assert_eq!(c.cc, 1.0);
                prop_assert_eq!(c.sc, 0.0);
            }
            if node.kind().is_register() {
                let c = ta.output_controllability(node.id());
                prop_assert!(c.cc > 0.0, "unreachable register {:?}", node.kind());
                // a register costs at least one time frame
                prop_assert!(c.sc >= 1.0);
            }
        }
    }

    /// A register's output controllability never exceeds the best of its
    /// sources (propagation only attenuates).
    #[test]
    fn registers_never_amplify_controllability(spec in spec_strategy()) {
        let (_d, e, ta) = analyzed(&spec);
        let dp = e.data_path();
        for rn in dp.register_nodes() {
            let out = ta.output_controllability(rn);
            let best_src = dp
                .in_arc_ids(rn)
                .iter()
                .map(|&a| ta.output_controllability(dp.arc(a).from()).cc)
                .fold(0.0f64, f64::max);
            prop_assert!(out.cc <= best_src + 1e-9);
        }
    }

    /// The worklist solver is bit-identical to the dense Gauss–Seidel
    /// reference: every controllability and observability value matches
    /// exactly (`to_bits`), and so do the diagnostics.
    #[test]
    fn worklist_is_bit_identical_to_dense(spec in spec_strategy()) {
        let (_d, e, _ta) = analyzed(&spec);
        assert_matches_dense(e.data_path());
    }

    /// The worklist stays bit-identical to a dense run at every state
    /// along a random merge sequence, where each step's data path
    /// differs from the last by one merge cone.
    #[test]
    fn worklist_tracks_random_merge_sequences(
        spec in spec_strategy(),
        merges in prop::collection::vec(
            (any::<u8>(), any::<u8>(), any::<bool>()), 1..6),
    ) {
        let d = build_dfg(&spec);
        let s = list_schedule(&d, &[], ListPriority::CriticalPath).expect("schedulable");
        let lt = Lifetimes::compute(&d, &s);
        let mut alloc = Allocation::one_to_one(&d);
        let e = Etpn::from_parts(&d, &s, &alloc).expect("lowerable");
        assert_matches_dense(e.data_path());
        for (x, y, on_registers) in merges {
            let mut trial = alloc.clone();
            let merged = if on_registers {
                let regs: Vec<_> = trial.registers().map(|r| r.id()).collect();
                if regs.len() < 2 { continue; }
                let a = regs[x as usize % regs.len()];
                let b = regs[y as usize % regs.len()];
                a != b && trial.merge_registers_checked(&d, &lt, a, b).is_ok()
            } else {
                let mods: Vec<_> = trial.modules().map(|m| m.id()).collect();
                if mods.len() < 2 { continue; }
                let a = mods[x as usize % mods.len()];
                let b = mods[y as usize % mods.len()];
                a != b && trial.merge_modules(&d, a, b).is_ok()
            };
            if !merged { continue; }
            let Ok(e) = Etpn::from_parts(&d, &s, &trial) else { continue; };
            assert_matches_dense(e.data_path());
            alloc = trial;
        }
    }

    /// The balance score is symmetric over random profiles and maximal
    /// pairs are complementary.
    #[test]
    fn balance_score_is_symmetric(
        c1 in 0.0f64..=1.0, o1 in 0.0f64..=1.0,
        c2 in 0.0f64..=1.0, o2 in 0.0f64..=1.0,
    ) {
        let a = NodeProfile { c: c1, o: o1 };
        let b = NodeProfile { c: c2, o: o2 };
        let ab = balance_score_profiles(a, b);
        let ba = balance_score_profiles(b, a);
        prop_assert!((ab - ba).abs() < 1e-12);
    }
}
