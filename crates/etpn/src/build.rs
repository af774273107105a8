//! Lowering a scheduled, allocated behavior into the ETPN representation.
//!
//! Lowering rules (one data-path node per physical resource):
//!
//! * every primary input / primary output value gets a port node;
//! * every constant gets a hardwired constant node;
//! * every live register of the [`Allocation`] gets a register node;
//! * every live module gets a functional-module node;
//! * every condition value gets a condition-output node feeding the
//!   controller;
//! * a transfer arc is added per (source, sink, port) with the control
//!   place of the step(s) in which the transfer occurs as guards:
//!   input loads are guarded by the first step, operand fetches and
//!   result stores by the executing operation's step place, output
//!   observations by the final place, and loop-carried register-to-
//!   register copies by the last step place;
//! * the control part is a linear chain of step places; when the
//!   behavior has loop-carried values and produces a condition flag, a
//!   condition-guarded loop-back transition is added (the Diffeq
//!   pattern).
//!
//! One function, [`data_path`], writes the data path for both of the
//! crate's lowerings. [`Etpn::from_parts`] hands it the control part, so
//! each arc records its guards. [`Etpn::data_path_of`] hands it none: the
//! result is the **structural** data path — the same nodes and
//! `(from, to, port)` arcs in the same order, no guards, the schedule
//! never read — which is all the cost estimate and the testability
//! analysis need. Registers and modules map to nodes through dense
//! vectors indexed by binding id. No lowering stores node labels;
//! [`DpNode::label`](crate::DpNode::label) builds one from the graph and
//! the binding where a label is read.

use std::error::Error;
use std::fmt;

use hlts_alloc::{Allocation, RegisterId};
use hlts_dfg::{Dfg, OpId, ValueId};
use hlts_sched::Schedule;

use crate::{ControlNet, DataPath, DpNodeId, DpNodeKind, Etpn, PlaceId};

/// Errors from ETPN lowering.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum EtpnBuildError {
    /// The schedule covers a different number of operations than the
    /// graph has.
    ScheduleMismatch {
        /// Operations in the graph.
        expected: usize,
        /// Operations in the schedule.
        got: usize,
    },
    /// A data value is not bound to any register.
    MissingRegister(String),
    /// The allocation was built over a different graph.
    AllocationMismatch,
}

impl fmt::Display for EtpnBuildError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EtpnBuildError::ScheduleMismatch { expected, got } => {
                write!(f, "schedule covers {got} ops, graph has {expected}")
            }
            EtpnBuildError::MissingRegister(v) => {
                write!(f, "value `{v}` has no register binding")
            }
            EtpnBuildError::AllocationMismatch => {
                write!(f, "allocation was built over a different graph")
            }
        }
    }
}

impl Error for EtpnBuildError {}

pub(crate) fn build(
    dfg: &Dfg,
    schedule: &Schedule,
    allocation: &Allocation,
) -> Result<Etpn, EtpnBuildError> {
    check(dfg, schedule, allocation)?;
    let control = control_part(dfg, schedule);
    let dp = data_path(dfg, allocation, Some((schedule, &control)));
    Ok(Etpn::new(dp, control.net))
}

/// Every error [`build`] can report, in the order it reports them,
/// found without building anything: the schedule and allocation must
/// match the graph, and every value a transfer reads or writes must
/// have a source — a register, a constant, or (for a condition consumed
/// as data) its producing module.
pub(crate) fn check(
    dfg: &Dfg,
    schedule: &Schedule,
    allocation: &Allocation,
) -> Result<(), EtpnBuildError> {
    if schedule.num_ops() != dfg.num_ops() {
        return Err(EtpnBuildError::ScheduleMismatch {
            expected: dfg.num_ops(),
            got: schedule.num_ops(),
        });
    }
    if !allocation.covers(dfg) {
        return Err(EtpnBuildError::AllocationMismatch);
    }
    let registered = |v: ValueId| {
        allocation
            .register_of(v)
            .map(|_| ())
            .ok_or_else(|| EtpnBuildError::MissingRegister(dfg.value(v).name().to_owned()))
    };
    for v in dfg.inputs() {
        registered(v)?;
    }
    for op in dfg.ops() {
        for &v in op.inputs() {
            let val = dfg.value(v);
            let sourced = val.kind().is_const() || (val.is_condition() && dfg.def_of(v).is_some());
            if !sourced {
                registered(v)?;
            }
        }
        if let Some(out) = op.output() {
            if !dfg.value(out).is_condition() {
                registered(out)?;
            }
        }
    }
    for v in dfg.outputs() {
        registered(v)?;
    }
    Ok(())
}

/// The control part of a lowering: the step chain with its loop-back,
/// plus the places the data path's guards name.
pub(crate) struct ControlPart {
    pub(crate) net: ControlNet,
    /// One place per control step.
    pub(crate) steps: Vec<PlaceId>,
    /// The final place (also the setup state of the next run).
    pub(crate) final_place: PlaceId,
}

/// Lower the control part alone. It reads only the schedule's length,
/// whether the graph has loop-carried values, and its first condition
/// value — never the binding or the data path.
pub(crate) fn control_part(dfg: &Dfg, schedule: &Schedule) -> ControlPart {
    let (mut net, steps) = ControlNet::linear(schedule.num_steps());
    let final_place: PlaceId = *net
        .final_places()
        .iter()
        .next()
        .expect("linear net has a final place");
    // Loop-back for looping behaviors with a condition flag.
    if !dfg.loop_carried().is_empty() && !steps.is_empty() {
        if let Some(cond) = dfg.values().iter().find(|v| v.is_condition()) {
            net.add_loop_back(&steps, cond.id());
        }
    }
    ControlPart {
        net,
        steps,
        final_place,
    }
}

/// Lower the data path. With `guarded`, each transfer arc records the
/// places of `guarded`'s control part that enable it; without, arcs
/// carry no guards and the schedule is never read. Either way the
/// nodes, and the `(from, to, port)` arcs, come out in the same order:
/// they depend on the graph's data edges and the binding alone. The
/// parts must have passed [`check`].
pub(crate) fn data_path(
    dfg: &Dfg,
    allocation: &Allocation,
    guarded: Option<(&Schedule, &ControlPart)>,
) -> DataPath {
    const CHECKED: &str = "lowering inputs passed `check`";
    let mut dp = DataPath::new();
    let slots = |max: Option<usize>| max.map_or(0, |i| i + 1);
    let mut reg_node = vec![None; slots(allocation.registers().map(|r| r.id().index()).max())];
    let mut mod_node = vec![None; slots(allocation.modules().map(|m| m.id().index()).max())];
    // Constants and condition flags get one node each, at first use.
    let mut value_node: Vec<Option<DpNodeId>> = vec![None; dfg.num_values()];

    for r in allocation.registers() {
        reg_node[r.id().index()] = Some(dp.add_node(DpNodeKind::Register(r.id())));
    }
    for m in allocation.modules() {
        let kinds = m.kinds(dfg);
        mod_node[m.id().index()] = Some(dp.add_node(DpNodeKind::Module { id: m.id(), kinds }));
    }
    let reg = |r: RegisterId| reg_node[r.index()].expect(CHECKED);
    let module = |op: OpId| mod_node[allocation.module_of(op).index()].expect(CHECKED);
    let register_of = |v: ValueId| reg(allocation.register_of(v).expect(CHECKED));

    // Each transfer's guard is `None` without a control part.
    let step_place = |control: &ControlPart, step: usize| {
        control
            .steps
            .get(step)
            .copied()
            .unwrap_or(control.final_place)
    };

    // Primary inputs are latched from their ports at the end of the step
    // *before* their first consumer reads them (on-demand loading; see
    // the lifetime conventions in `hlts-sched`). A value first used in
    // step 0 latches during the setup state — the final place, which
    // doubles as the setup state of the next run.
    for v in dfg.inputs() {
        let port = dp.add_node(DpNodeKind::PrimaryInput(v));
        let load_guard = guarded.map(|(schedule, control)| {
            match dfg.uses_of(v).iter().map(|&o| schedule.step_of(o)).min() {
                Some(s) if s > 0 => step_place(control, s - 1),
                _ => control.final_place,
            }
        });
        dp.add_arc(port, register_of(v), 0, load_guard);
    }

    // Operation transfers.
    for op in dfg.ops() {
        let guard =
            guarded.map(|(schedule, control)| step_place(control, schedule.step_of(op.id())));
        let m = module(op.id());
        for (port, &v) in op.inputs().iter().enumerate() {
            let src = if let Some(r) = allocation.register_of(v) {
                reg(r)
            } else if dfg.value(v).kind().is_const() {
                *value_node[v.index()].get_or_insert_with(|| dp.add_node(DpNodeKind::Const(v)))
            } else {
                // a condition consumed as data: feed from its producing module
                module(dfg.def_of(v).expect(CHECKED))
            };
            dp.add_arc(src, m, port, guard);
        }
        if let Some(out) = op.output() {
            let sink = if dfg.value(out).is_condition() {
                *value_node[out.index()]
                    .get_or_insert_with(|| dp.add_node(DpNodeKind::ConditionOut(out)))
            } else {
                register_of(out)
            };
            dp.add_arc(m, sink, 0, guard);
        }
    }

    // Primary outputs observed at the final state.
    for v in dfg.outputs() {
        let port = dp.add_node(DpNodeKind::PrimaryOutput(v));
        let guard = guarded.map(|(_, control)| control.final_place);
        dp.add_arc(register_of(v), port, 0, guard);
    }

    // Loop-carried copies at the last step (register-to-register when the
    // pair is split across registers; free when they share one).
    let last_guard =
        guarded.map(|(_, control)| control.steps.last().copied().unwrap_or(control.final_place));
    for &(src, dst) in dfg.loop_carried() {
        let (Some(rs), Some(rd)) = (allocation.register_of(src), allocation.register_of(dst))
        else {
            continue;
        };
        if rs != rd {
            dp.add_arc(reg(rs), reg(rd), 0, last_guard);
        }
    }

    dp
}

#[cfg(test)]
mod tests {
    use super::*;
    use hlts_dfg::{DfgBuilder, OpKind};
    use hlts_sched::{list_schedule, ListPriority};

    fn small() -> (Dfg, Schedule, Allocation) {
        let mut b = DfgBuilder::new("t");
        let a = b.input("a");
        let c = b.input("c");
        let t = b.op("N1", OpKind::Add, &[a, c], "t").unwrap();
        let y = b.op("N2", OpKind::Mul, &[t, c], "y").unwrap();
        b.mark_output(y);
        let d = b.finish().unwrap();
        let s = list_schedule(&d, &[], ListPriority::CriticalPath).unwrap();
        let alloc = Allocation::one_to_one(&d);
        (d, s, alloc)
    }

    #[test]
    fn node_inventory() {
        let (d, s, a) = small();
        let e = Etpn::from_parts(&d, &s, &a).unwrap();
        let dp = e.data_path();
        // 2 PIs + 4 registers (a,c,t,y) + 2 modules + 1 PO = 9
        assert_eq!(dp.num_nodes(), 9);
        assert_eq!(dp.register_nodes().len(), 4);
        assert_eq!(dp.module_nodes().len(), 2);
    }

    #[test]
    fn execution_time_matches_schedule() {
        let (d, s, a) = small();
        let e = Etpn::from_parts(&d, &s, &a).unwrap();
        assert_eq!(e.execution_time(), s.num_steps());
    }

    #[test]
    fn guards_follow_steps() {
        let (d, s, a) = small();
        let e = Etpn::from_parts(&d, &s, &a).unwrap();
        let dp = e.data_path();
        // the arc from the adder module into register t is guarded by S0
        let n1 = d.op_by_name("N1").unwrap();
        let m = dp.node_of_module(a.module_of(n1)).unwrap();
        let t = d.value_by_name("t").unwrap();
        let rt = dp.node_of_register(a.register_of(t).unwrap()).unwrap();
        let arc = dp
            .in_arc_ids(rt)
            .iter()
            .map(|&a| dp.arc(a))
            .find(|arc| arc.from() == m)
            .expect("module feeds t's register");
        let labels: Vec<&str> = arc
            .guards()
            .iter()
            .map(|&p| e.control().place_label(p))
            .collect();
        assert_eq!(labels, vec!["S0"]);
    }

    #[test]
    fn missing_register_reported() {
        let (d, s, _) = small();
        // an allocation built over a smaller graph misses registers
        let mut b2 = DfgBuilder::new("other");
        let x = b2.input("x");
        let z = b2.input("z");
        b2.op("M1", OpKind::Add, &[x, z], "w").unwrap();
        let other = b2.finish().unwrap();
        let alloc = Allocation::one_to_one(&other);
        let e = Etpn::from_parts(&d, &s, &alloc);
        assert!(e.is_err());
    }

    /// `check_parts` fails exactly when `from_parts` does, with the same
    /// error, and the control part alone gives the full lowering's E —
    /// on a straight-line and a looping behaviour.
    #[test]
    fn check_and_control_part_agree_with_full_lowering() {
        let (d, s, a) = small();
        assert_eq!(Etpn::check_parts(&d, &s, &a), Ok(()));
        let full = Etpn::from_parts(&d, &s, &a).unwrap();
        assert_eq!(Etpn::execution_time_of(&d, &s), full.execution_time());

        let mut b = DfgBuilder::new("other");
        let x = b.input("x");
        let z = b.input("z");
        b.op("M1", OpKind::Add, &[x, z], "w").unwrap();
        let other = Allocation::one_to_one(&b.finish().unwrap());
        let want = Etpn::from_parts(&d, &s, &other).unwrap_err();
        assert_eq!(Etpn::check_parts(&d, &s, &other), Err(want));

        let mut b = DfgBuilder::new("loopy");
        let x = b.input("x");
        let dx = b.input("dx");
        let lim = b.input("a");
        let x1 = b.op("N1", OpKind::Add, &[x, dx], "x1").unwrap();
        let _c = b.op("N2", OpKind::Lt, &[x1, lim], "c").unwrap();
        b.mark_output(x1);
        b.loop_carried(x1, x);
        let d = b.finish().unwrap();
        let s = list_schedule(&d, &[], ListPriority::CriticalPath).unwrap();
        let full = Etpn::from_parts(&d, &s, &Allocation::one_to_one(&d)).unwrap();
        assert_eq!(Etpn::execution_time_of(&d, &s), full.execution_time());
    }

    #[test]
    fn condition_gets_condition_node_and_loop_back() {
        let mut b = DfgBuilder::new("loopy");
        let x = b.input("x");
        let dx = b.input("dx");
        let a = b.input("a");
        let x1 = b.op("N1", OpKind::Add, &[x, dx], "x1").unwrap();
        let _c = b.op("N2", OpKind::Lt, &[x1, a], "c").unwrap();
        b.mark_output(x1);
        b.loop_carried(x1, x);
        let d = b.finish().unwrap();
        let s = list_schedule(&d, &[], ListPriority::CriticalPath).unwrap();
        let alloc = Allocation::one_to_one(&d);
        let e = Etpn::from_parts(&d, &s, &alloc).unwrap();
        let dp = e.data_path();
        assert!(dp
            .nodes()
            .iter()
            .any(|n| matches!(n.kind(), DpNodeKind::ConditionOut(_))));
        // loop-back keeps the critical path at one iteration
        assert_eq!(e.execution_time(), s.num_steps());
        // x1 and x in different registers: loop-carried copy arc exists
        let rx = dp.node_of_register(alloc.register_of(x).unwrap()).unwrap();
        let rx1 = dp.node_of_register(alloc.register_of(x1).unwrap()).unwrap();
        assert!(dp.in_arc_ids(rx).iter().any(|&a| dp.arc(a).from() == rx1));
    }

    #[test]
    fn shared_register_removes_loop_copy_arc() {
        let mut b = DfgBuilder::new("loopy");
        let x = b.input("x");
        let dx = b.input("dx");
        let a = b.input("a");
        let x1 = b.op("N1", OpKind::Add, &[x, dx], "x1").unwrap();
        let _c = b.op("N2", OpKind::Lt, &[x1, a], "c").unwrap();
        b.mark_output(x1);
        b.loop_carried(x1, x);
        let d = b.finish().unwrap();
        let s = list_schedule(&d, &[], ListPriority::CriticalPath).unwrap();
        let mut alloc = Allocation::one_to_one(&d);
        let rx = alloc.register_of(x).unwrap();
        let rx1 = alloc.register_of(x1).unwrap();
        alloc.merge_registers(rx, rx1).unwrap();
        let e = Etpn::from_parts(&d, &s, &alloc).unwrap();
        let dp = e.data_path();
        let rn = dp.node_of_register(rx).unwrap();
        // no register-to-register copy arc into the shared register
        assert!(dp
            .in_arc_ids(rn)
            .iter()
            .all(|&a| !dp.node(dp.arc(a).from()).kind().is_register()));
    }

    #[test]
    fn mux_count_reflects_sharing() {
        let (d, s, mut a) = small();
        let e1 = Etpn::from_parts(&d, &s, &a).unwrap();
        let base = e1.data_path().mux_count();
        // merge registers t and a (disjoint: a dies step 0... actually a
        // dies step 1 since c is used in step 1, a only step 0) — merge
        // the two module hosts instead, which multiplexes port sources.
        let n1 = d.op_by_name("N1").unwrap();
        let n2 = d.op_by_name("N2").unwrap();
        // add/mul are incompatible; merge registers a & t instead
        let va = d.value_by_name("a").unwrap();
        let vt = d.value_by_name("t").unwrap();
        let _ = (n1, n2);
        a.merge_registers(a.register_of(va).unwrap(), a.register_of(vt).unwrap())
            .unwrap();
        let e2 = Etpn::from_parts(&d, &s, &a).unwrap();
        // sharing a register for a and t merges two sources into one node
        // feeding two sinks; mux count may change either way but the
        // build must stay consistent
        assert!(e2.data_path().num_nodes() < e1.data_path().num_nodes());
        let _ = base;
    }
}
