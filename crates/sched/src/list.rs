//! Priority list scheduling under precedence and conflict-group
//! constraints.
//!
//! This is the rescheduling engine of the integrated synthesis algorithm:
//! after every module/register merger the accumulated scheduling
//! constraints (precedence arcs added to the [`Dfg`] plus the conflict
//! groups induced by the module binding) are re-solved into a concrete
//! schedule.
//!
//! Two entry points share one solver core: [`list_schedule`] builds a
//! fresh [`Schedule`] (cold path — initial schedules, oracle), while
//! [`reschedule_in_place`] rewrites an existing schedule and returns the
//! journaled delta without allocating: all working vectors live in a
//! thread-local scratch arena whose capacity is reused across trials.

use std::cell::RefCell;

use hlts_dfg::{AsapAlap, Dfg, OpId};

use crate::{SchedError, Schedule, ScheduleDelta};

/// Priority function for [`list_schedule`].
#[derive(Debug, Clone, PartialEq, Eq, Default)]
#[non_exhaustive]
pub enum ListPriority {
    /// Critical-path first: smaller ALAP time wins (classic list
    /// scheduling; minimizes latency growth).
    #[default]
    CriticalPath,
    /// Stability: keep operations close to a previous schedule — the
    /// vector is the previous per-op step (indexed by [`OpId::index`]);
    /// ties broken by ALAP.
    Previous(Vec<usize>),
}

/// A source of conflict groups: operations inside one group share a
/// functional unit and must occupy pairwise distinct control steps.
///
/// The solver consumes groups through this trait so that callers whose
/// groups already exist as slices (e.g. the module binding's per-module
/// operation lists) plug in without building a `Vec<Vec<OpId>>` per
/// reschedule.
pub trait GroupSource {
    /// Number of groups yielded by [`GroupSource::for_each_group`].
    fn num_groups(&self) -> usize;
    /// Visit each group as `(index, members)`, `index` in `0..num_groups()`.
    fn for_each_group(&self, f: impl FnMut(usize, &[OpId]));
}

impl GroupSource for [Vec<OpId>] {
    fn num_groups(&self) -> usize {
        self.len()
    }
    fn for_each_group(&self, mut f: impl FnMut(usize, &[OpId])) {
        for (gi, g) in self.iter().enumerate() {
            f(gi, g);
        }
    }
}

impl<G: GroupSource + ?Sized> GroupSource for &G {
    fn num_groups(&self) -> usize {
        (**self).num_groups()
    }
    fn for_each_group(&self, f: impl FnMut(usize, &[OpId])) {
        (**self).for_each_group(f);
    }
}

/// Reusable working set of the list scheduler. One lives per thread;
/// every vector is cleared (not freed) between runs, so steady-state
/// scheduling performs no heap allocation.
struct SchedScratch {
    group_of: Vec<u32>,
    unsched_preds: Vec<u32>,
    ready: Vec<OpId>,
    step_of: Vec<usize>,
    group_busy: Vec<bool>,
    aa: AsapAlap,
}

thread_local! {
    static SCRATCH: RefCell<SchedScratch> = RefCell::new(SchedScratch {
        group_of: Vec::new(),
        unsched_preds: Vec::new(),
        ready: Vec::new(),
        step_of: Vec::new(),
        group_busy: Vec::new(),
        aa: AsapAlap::default(),
    });
}

const NO_GROUP: u32 = u32::MAX;

/// The solver core: schedules `dfg` into `s.step_of`.
///
/// `prev` is the previous per-op step assignment for the stability
/// priority (`None` selects the critical-path priority). Exactly the
/// greedy fixpoint of the original `list_schedule` — the priority keys,
/// tie-breaks and placement order are bit-identical.
fn solve(
    dfg: &Dfg,
    groups: impl GroupSource,
    prev: Option<&[usize]>,
    s: &mut SchedScratch,
) -> Result<(), SchedError> {
    let n = dfg.num_ops();
    let SchedScratch {
        group_of,
        unsched_preds,
        ready,
        step_of,
        group_busy,
        aa,
    } = s;
    // Map op -> group index; detect overlap.
    group_of.clear();
    group_of.resize(n, NO_GROUP);
    let num_groups = groups.num_groups();
    {
        let mut bad: Option<SchedError> = None;
        groups.for_each_group(|gi, g| {
            if bad.is_some() {
                return;
            }
            let gi = u32::try_from(gi).expect("group index fits in u32");
            for &op in g {
                if op.index() >= n {
                    bad = Some(SchedError::Infeasible {
                        reason: format!("group references unknown op {op}"),
                    });
                    return;
                }
                if group_of[op.index()] != NO_GROUP && group_of[op.index()] != gi {
                    bad = Some(SchedError::Infeasible {
                        reason: format!(
                            "operation `{}` appears in two conflict groups",
                            dfg.op(op).name()
                        ),
                    });
                    return;
                }
                group_of[op.index()] = gi;
            }
        });
        if let Some(e) = bad {
            return Err(e);
        }
    }

    aa.recompute(dfg, None)?;

    unsched_preds.clear();
    ready.clear();
    for i in 0..n {
        let o = OpId::from_index(i);
        let deg = dfg.preds(o).count() + dfg.weak_preds(o).len();
        unsched_preds.push(u32::try_from(deg).expect("degree fits in u32"));
        if deg == 0 {
            ready.push(o);
        }
    }
    step_of.clear();
    step_of.resize(n, usize::MAX);
    let mut scheduled = 0usize;
    let mut step = 0usize;
    while scheduled < n {
        group_busy.clear();
        group_busy.resize(num_groups, false);
        // Place ready ops in `step`, best priority first, iterating to a
        // fixpoint: an op enabled by a *weak* predecessor placed in this
        // very step may legally join the same step (strict predecessors
        // always push their successors to step + 1 via the lower bound).
        loop {
            // The priority key ends in the unique op index, so the order
            // is total and an unstable sort is deterministic (and does
            // not allocate, unlike the stable sort).
            ready.sort_unstable_by_key(|&o| match prev {
                None => (aa.alap(o), aa.asap(o), o.index()),
                Some(p) => (
                    p.get(o.index()).copied().unwrap_or(usize::MAX),
                    aa.alap(o),
                    o.index(),
                ),
            });
            let mut placed_any = false;
            let mut i = 0;
            while i < ready.len() {
                let op = ready[i];
                let lower = dfg
                    .preds(op)
                    .map(|p| step_of[p.index()] + 1)
                    .chain(dfg.weak_preds(op).iter().map(|p| step_of[p.index()]))
                    .max()
                    .unwrap_or(0);
                let g = group_of[op.index()];
                if lower <= step && (g == NO_GROUP || !group_busy[g as usize]) {
                    if g != NO_GROUP {
                        group_busy[g as usize] = true;
                    }
                    step_of[op.index()] = step;
                    scheduled += 1;
                    ready.remove(i);
                    placed_any = true;
                    for succ in dfg.succs(op) {
                        unsched_preds[succ.index()] -= 1;
                        if unsched_preds[succ.index()] == 0 {
                            ready.push(succ);
                        }
                    }
                    for &succ in dfg.weak_succs(op) {
                        unsched_preds[succ.index()] -= 1;
                        if unsched_preds[succ.index()] == 0 {
                            ready.push(succ);
                        }
                    }
                } else {
                    i += 1;
                }
            }
            if !placed_any {
                break;
            }
        }
        step += 1;
        // Safety valve: with a DAG and per-step conflicts the loop always
        // makes progress once `ready` is non-empty; a fully empty ready
        // list with unscheduled ops means a cycle, which AsapAlap already
        // rejected.
        debug_assert!(step <= 2 * n + 2, "list scheduler failed to converge");
    }
    Ok(())
}

/// Schedule `dfg` by priority list scheduling.
///
/// `groups` are conflict groups: operations inside one group are bound to
/// the same functional unit and therefore must occupy pairwise distinct
/// control steps. Operations absent from every group are unconstrained
/// (each has its own unit).
///
/// The returned schedule is legal for `dfg` and `groups` and is as short
/// as the greedy heuristic achieves (not necessarily optimal — list
/// scheduling is the standard polynomial heuristic here).
///
/// # Errors
///
/// * [`SchedError::Dfg`] if the precedence relation is cyclic;
/// * [`SchedError::Infeasible`] if an operation appears in two different
///   groups (a binding must partition operations).
///
/// # Example
///
/// ```
/// use hlts_dfg::{DfgBuilder, OpKind};
/// use hlts_sched::{list_schedule, ListPriority};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut b = DfgBuilder::new("t");
/// let (a, c) = (b.input("a"), b.input("c"));
/// let t1 = b.op("N1", OpKind::Add, &[a, c], "t1")?;
/// let t2 = b.op("N2", OpKind::Add, &[a, c], "t2")?;
/// # let _ = (t1, t2);
/// let dfg = b.finish()?;
/// // Independent ops, but sharing one adder forces two steps:
/// let groups = vec![dfg.ops().iter().map(|o| o.id()).collect()];
/// let s = list_schedule(&dfg, &groups, ListPriority::CriticalPath)?;
/// assert_eq!(s.num_steps(), 2);
/// # Ok(())
/// # }
/// ```
pub fn list_schedule(
    dfg: &Dfg,
    groups: &[Vec<OpId>],
    priority: ListPriority,
) -> Result<Schedule, SchedError> {
    list_schedule_src(dfg, groups, priority)
}

/// [`list_schedule`] generalized over any [`GroupSource`].
///
/// # Errors
///
/// As for [`list_schedule`].
pub fn list_schedule_src(
    dfg: &Dfg,
    groups: impl GroupSource,
    priority: ListPriority,
) -> Result<Schedule, SchedError> {
    SCRATCH.with(|cell| {
        let s = &mut cell.borrow_mut();
        let prev = match &priority {
            ListPriority::CriticalPath => None,
            ListPriority::Previous(p) => Some(p.as_slice()),
        };
        solve(dfg, groups, prev, s)?;
        let schedule = Schedule::from_step_vec(s.step_of.clone());
        debug_assert!(schedule.validate(dfg).is_ok());
        Ok(schedule)
    })
}

/// Re-solve `schedule` for the current constraints of `dfg` and
/// `groups`, using the schedule's own current steps as the stability
/// priority (the `ListPriority::Previous` policy, without copying the
/// previous assignment). The schedule is updated in place and the
/// journaled difference is returned — its move buffer comes from a
/// thread-local pool, so a steady-state reschedule performs zero heap
/// allocations.
///
/// # Errors
///
/// As for [`list_schedule`]. On error the schedule is left unchanged.
///
/// # Panics
///
/// Panics if `schedule` does not cover `dfg` (different op count).
pub fn reschedule_in_place(
    dfg: &Dfg,
    groups: impl GroupSource,
    schedule: &mut Schedule,
    priority: ListPriority,
) -> Result<ScheduleDelta, SchedError> {
    assert_eq!(
        schedule.num_ops(),
        dfg.num_ops(),
        "reschedule requires a schedule of the same graph"
    );
    SCRATCH.with(|cell| {
        let s = &mut cell.borrow_mut();
        {
            let prev = match &priority {
                ListPriority::CriticalPath => None,
                ListPriority::Previous(p) => Some(p.as_slice()),
            };
            // Default stability policy: the schedule's own steps.
            let prev = prev.or(Some(schedule.step_slice()));
            solve(dfg, groups, prev, s)?;
        }
        debug_assert!(Schedule::from_step_vec(s.step_of.clone())
            .validate(dfg)
            .is_ok());
        Ok(schedule.replace_steps(&s.step_of))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use hlts_dfg::{DfgBuilder, OpKind};

    fn four_independent_adds() -> Dfg {
        let mut b = DfgBuilder::new("t");
        let a = b.input("a");
        let c = b.input("c");
        for i in 0..4 {
            b.op(&format!("N{i}"), OpKind::Add, &[a, c], &format!("t{i}"))
                .unwrap();
        }
        b.finish().unwrap()
    }

    #[test]
    fn no_groups_is_single_step() {
        let d = four_independent_adds();
        let s = list_schedule(&d, &[], ListPriority::CriticalPath).unwrap();
        assert_eq!(s.num_steps(), 1);
    }

    #[test]
    fn one_group_serializes() {
        let d = four_independent_adds();
        let all: Vec<OpId> = d.ops().iter().map(|o| o.id()).collect();
        let s = list_schedule(&d, std::slice::from_ref(&all), ListPriority::CriticalPath).unwrap();
        assert_eq!(s.num_steps(), 4);
        s.validate_groups(&d, &[all]).unwrap();
    }

    #[test]
    fn two_groups_of_two() {
        let d = four_independent_adds();
        let ids: Vec<OpId> = d.ops().iter().map(|o| o.id()).collect();
        let groups = vec![vec![ids[0], ids[1]], vec![ids[2], ids[3]]];
        let s = list_schedule(&d, &groups, ListPriority::CriticalPath).unwrap();
        assert_eq!(s.num_steps(), 2);
        s.validate_groups(&d, &groups).unwrap();
    }

    #[test]
    fn respects_precedence_and_groups_together() {
        let mut b = DfgBuilder::new("t");
        let a = b.input("a");
        let c = b.input("c");
        let t1 = b.op("N1", OpKind::Add, &[a, c], "t1").unwrap();
        let _t2 = b.op("N2", OpKind::Add, &[t1, c], "t2").unwrap();
        let _t3 = b.op("N3", OpKind::Add, &[a, c], "t3").unwrap();
        let d = b.finish().unwrap();
        let n1 = d.op_by_name("N1").unwrap();
        let n2 = d.op_by_name("N2").unwrap();
        let n3 = d.op_by_name("N3").unwrap();
        // all three share one adder
        let groups = vec![vec![n1, n2, n3]];
        let s = list_schedule(&d, &groups, ListPriority::CriticalPath).unwrap();
        s.validate(&d).unwrap();
        s.validate_groups(&d, &groups).unwrap();
        assert!(s.step_of(n1) < s.step_of(n2));
        assert_eq!(s.num_steps(), 3);
    }

    #[test]
    fn overlapping_groups_rejected() {
        let d = four_independent_adds();
        let ids: Vec<OpId> = d.ops().iter().map(|o| o.id()).collect();
        let groups = vec![vec![ids[0], ids[1]], vec![ids[1], ids[2]]];
        assert!(matches!(
            list_schedule(&d, &groups, ListPriority::CriticalPath),
            Err(SchedError::Infeasible { .. })
        ));
    }

    #[test]
    fn previous_priority_is_stable() {
        let d = four_independent_adds();
        let ids: Vec<OpId> = d.ops().iter().map(|o| o.id()).collect();
        let groups = vec![ids.clone()];
        // previous schedule put N3 first
        let prev = vec![3, 2, 1, 0];
        let s = list_schedule(&d, &groups, ListPriority::Previous(prev)).unwrap();
        assert_eq!(s.step_of(ids[3]), 0);
        assert_eq!(s.step_of(ids[0]), 3);
    }

    #[test]
    fn extra_precedence_honored() {
        let mut d = four_independent_adds();
        let ids: Vec<OpId> = d.ops().iter().map(|o| o.id()).collect();
        d.add_precedence(ids[2], ids[0]).unwrap();
        let s = list_schedule(&d, &[], ListPriority::CriticalPath).unwrap();
        assert!(s.step_of(ids[2]) < s.step_of(ids[0]));
    }

    #[test]
    fn reschedule_in_place_matches_previous_policy() {
        let d = four_independent_adds();
        let ids: Vec<OpId> = d.ops().iter().map(|o| o.id()).collect();
        let groups = vec![ids.clone()];
        let prev = vec![3usize, 2, 1, 0];
        let expect = list_schedule(&d, &groups, ListPriority::Previous(prev.clone())).unwrap();
        let mut sched = Schedule::from_step_vec(prev);
        let delta = reschedule_in_place(&d, groups.as_slice(), &mut sched, ListPriority::default())
            .unwrap();
        assert_eq!(sched, expect);
        // reverting the delta restores the original assignment
        sched.revert(&delta);
        assert_eq!(sched, Schedule::from_step_vec(vec![3, 2, 1, 0]));
    }

    #[test]
    fn reschedule_in_place_error_leaves_schedule_untouched() {
        let d = four_independent_adds();
        let ids: Vec<OpId> = d.ops().iter().map(|o| o.id()).collect();
        let overlapping = vec![vec![ids[0], ids[1]], vec![ids[1], ids[2]]];
        let mut sched = Schedule::from_step_vec(vec![0, 1, 2, 3]);
        let before = sched.clone();
        assert!(reschedule_in_place(
            &d,
            overlapping.as_slice(),
            &mut sched,
            ListPriority::default()
        )
        .is_err());
        assert_eq!(sched, before);
    }
}
