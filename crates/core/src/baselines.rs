//! The three comparison flows of the paper's evaluation section.
//!
//! * [`camad`] — the CAMAD high-level synthesis system style (Peng &
//!   Kuchcinski, TCAD 1994): the same iterative merger loop as the
//!   integrated algorithm, but candidates are ranked by connectivity/
//!   closeness gain and ordering decisions optimize the critical path
//!   only — **no testability consideration**;
//! * [`approach1`] — force-directed scheduling (Paulin & Knight) without
//!   testability consideration, followed by the same allocation as
//!   Approach 2 (greedy kind-homogeneous module binding + Lee's
//!   PI/PO-seeded register allocation);
//! * [`approach2`] — Lee, Wolf & Jha: mobility-path scheduling for
//!   testability followed by the modified left-edge allocation.

use std::collections::HashMap;

use hlts_alloc::{
    greedy_module_allocation, lee_register_allocation, module_merge_gain, register_merge_gain,
    Allocation, ConnectivityParams,
};
use hlts_cost::estimate_cost;
use hlts_dfg::{Dfg, FuClass};
use hlts_etpn::Etpn;
use hlts_sched::{fds_schedule, mobility_path_schedule, FuLimits, Lifetimes};
use hlts_testability::TestabilityCacheStats;

use crate::candidates::MergeKind;
use crate::resched::{merge_modules_with_resched, merge_registers_with_resched};
use crate::txn::trial_merge;
use crate::{CoreError, DesignState, RunCtl, SynthesisParams, SynthesisResult};

/// CAMAD-style synthesis: iterative mergers ranked by connectivity gain
/// (interconnect saved minus muxes added), priced by the same
/// ΔC = α·ΔE + β·ΔH rule, with rescheduling decisions taken on the
/// critical path alone. The mergers share the integrated loop's order
/// rule: SR2's depth term ties under one binding, so it decides by `E`.
///
/// Register mergers buy little interconnect and cost muxes under this
/// objective, so CAMAD designs keep close to one register per variable —
/// exactly the CAMAD rows of the paper's tables.
///
/// # Errors
///
/// Construction-level failures only (cyclic graph, inconsistent state).
pub fn camad(dfg: &Dfg, params: &SynthesisParams) -> Result<SynthesisResult, CoreError> {
    camad_ctl(dfg, params, &RunCtl::none())
}

/// [`camad`] under an external [`RunCtl`]: like the integrated loop,
/// the token is checked once per merger iteration, between
/// transactions, so cancellation surfaces as
/// [`CoreError::Cancelled`] on a consistent state and an unfired token
/// changes nothing.
///
/// # Errors
///
/// As [`camad`], plus [`CoreError::Cancelled`] when `ctl.cancel` fires.
pub fn camad_ctl(
    dfg: &Dfg,
    params: &SynthesisParams,
    ctl: &RunCtl<'_>,
) -> Result<SynthesisResult, CoreError> {
    params.validate()?;
    // The CAMAD rows of the paper's tables keep one register per variable
    // (12 on Ex, 17 on Dct): register sharing buys little interconnect
    // and costs muxes under the connectivity objective, so the baseline
    // merges functional modules only.
    let conn = ConnectivityParams {
        merge_registers: false,
        ..ConnectivityParams::default()
    };
    let mut state = DesignState::initial(dfg)?;
    let mut merge_log = Vec::new();

    for iteration in 0..params.max_merges {
        if ctl.cancel.is_cancelled() {
            return Err(CoreError::Cancelled);
        }
        ctl.progress.event(crate::ProgressEvent::Iteration {
            iteration,
            merges: merge_log.len(),
        });
        // score all legal pairs by connectivity gain
        let mut cands: Vec<(f64, MergeKind)> = Vec::new();
        let modules: Vec<_> = state.allocation.modules().map(|m| m.id()).collect();
        for (i, &a) in modules.iter().enumerate() {
            for &b in &modules[i + 1..] {
                let compatible = state.allocation.module(a).is_some_and(|ma| {
                    state.allocation.module(b).is_some_and(|mb| {
                        ma.ops().iter().all(|&oa| {
                            mb.ops().iter().all(|&ob| {
                                state
                                    .dfg
                                    .op(oa)
                                    .kind()
                                    .fu_class()
                                    .compatible(state.dfg.op(ob).kind().fu_class())
                            })
                        })
                    })
                });
                if !compatible {
                    continue;
                }
                let g = module_merge_gain(&state.dfg, &state.allocation, &conn, a, b);
                cands.push((g, MergeKind::Modules(a, b)));
            }
        }
        if conn.merge_registers {
            let registers: Vec<_> = state.allocation.registers().map(|r| r.id()).collect();
            for (i, &a) in registers.iter().enumerate() {
                for &b in &registers[i + 1..] {
                    let g = register_merge_gain(&state.dfg, &state.allocation, &conn, a, b);
                    cands.push((g, MergeKind::Registers(a, b)));
                }
            }
        }
        cands.sort_by(|x, y| {
            y.0.partial_cmp(&x.0)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then_with(|| format!("{:?}", x.1).cmp(&format!("{:?}", y.1)))
        });
        if cands.is_empty() {
            break;
        }

        let dp = state.data_path()?;
        let e0 = Etpn::execution_time_of(&state.schedule) as f64;
        let h0 = estimate_cost(&dp, params.bits, &params.library).total();
        let mut committed = false;
        for chunk in cands.chunks(params.k.max(1)) {
            // Apply → price → rollback, like the integrated loop; only
            // the pricing differs (direct estimate, no ΔC cache).
            let mut best: Option<(f64, MergeKind)> = None;
            for &(_, kind) in chunk {
                let dc = trial_merge(&mut state, kind, |trial| {
                    let dp1 = trial.data_path().ok()?;
                    let e1 = Etpn::execution_time_of(&trial.schedule) as f64;
                    let h1 = estimate_cost(&dp1, params.bits, &params.library).total();
                    Some(params.alpha * (e1 - e0) + params.beta * (h1 - h0))
                });
                let Some(dc) = dc else { continue };
                if best.as_ref().is_none_or(|(b, _)| dc < *b) {
                    best = Some((dc, kind));
                }
            }
            if let Some((dc, kind)) = best {
                if dc <= params.accept_threshold {
                    // Re-apply the deterministic winner and commit it.
                    match kind {
                        MergeKind::Modules(a, b) => merge_modules_with_resched(&mut state, a, b)?,
                        MergeKind::Registers(a, b) => {
                            merge_registers_with_resched(&mut state, a, b)?;
                        }
                    }
                    merge_log.push(format!("camad {kind:?} (ΔC = {dc:+.4})"));
                    committed = true;
                    break;
                }
            }
        }
        if !committed {
            break;
        }
    }
    SynthesisResult::from_state(
        state,
        params.bits,
        &params.library,
        merge_log,
        TestabilityCacheStats::default(),
    )
}

/// Approach 1: force-directed scheduling at the critical-path latency
/// (no testability consideration), then the same allocation as
/// Approach 2.
///
/// # Errors
///
/// Construction-level failures only.
pub fn approach1(dfg: &Dfg, params: &SynthesisParams) -> Result<SynthesisResult, CoreError> {
    params.validate()?;
    let schedule = fds_schedule(dfg, None)?;
    let module_groups = greedy_module_allocation(dfg, &schedule);
    let lifetimes = Lifetimes::compute(dfg, &schedule);
    let register_groups = lee_register_allocation(dfg, &lifetimes);
    let allocation = Allocation::from_groups(dfg, &module_groups, &register_groups)?;
    let state = DesignState::from_parts(dfg, schedule, allocation);
    state.validate()?;
    SynthesisResult::from_state(
        state,
        params.bits,
        &params.library,
        Vec::new(),
        TestabilityCacheStats::default(),
    )
}

/// Approach 2: mobility-path scheduling for testability (Lee, Wolf &
/// Jha) under the functional-unit budget that force-directed scheduling
/// needs at the same latency, followed by the modified left-edge
/// register allocation.
///
/// # Errors
///
/// Construction-level failures only.
pub fn approach2(dfg: &Dfg, params: &SynthesisParams) -> Result<SynthesisResult, CoreError> {
    params.validate()?;
    // resource budget: the per-class peak concurrency of the FDS solution
    let fds = fds_schedule(dfg, None)?;
    let mut peak: HashMap<FuClass, usize> = HashMap::new();
    for step in 0..fds.num_steps() {
        let mut here: HashMap<FuClass, usize> = HashMap::new();
        for op in fds.ops_in_step(step) {
            *here.entry(dfg.op(op).kind().fu_class()).or_insert(0) += 1;
        }
        for (class, n) in here {
            let e = peak.entry(class).or_insert(0);
            *e = (*e).max(n);
        }
    }
    let mut limits = FuLimits::new();
    for (class, n) in peak {
        limits = limits.with(class, n);
    }
    let schedule = mobility_path_schedule(dfg, &limits, Some(fds.num_steps()))?;
    let module_groups = greedy_module_allocation(dfg, &schedule);
    let lifetimes = Lifetimes::compute(dfg, &schedule);
    let register_groups = lee_register_allocation(dfg, &lifetimes);
    let allocation = Allocation::from_groups(dfg, &module_groups, &register_groups)?;
    let state = DesignState::from_parts(dfg, schedule, allocation);
    state.validate()?;
    SynthesisResult::from_state(
        state,
        params.bits,
        &params.library,
        Vec::new(),
        TestabilityCacheStats::default(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use hlts_dfg::{DfgBuilder, OpKind};

    fn small() -> Dfg {
        let mut b = DfgBuilder::new("t");
        let a = b.input("a");
        let c = b.input("c");
        let t1 = b.op("N1", OpKind::Mul, &[a, c], "t1").unwrap();
        let t2 = b.op("N2", OpKind::Mul, &[a, c], "t2").unwrap();
        let t3 = b.op("N3", OpKind::Add, &[t1, t2], "t3").unwrap();
        let y = b.op("N4", OpKind::Sub, &[t3, c], "y").unwrap();
        b.mark_output(y);
        b.finish().unwrap()
    }

    #[test]
    fn approach1_is_valid() {
        let d = small();
        let r = approach1(&d, &SynthesisParams::default()).unwrap();
        r.schedule.validate(&r.dfg).unwrap();
        // Lee rule 1: every register holds a PI or PO variable when
        // feasible — here every group found a seed
        assert!(r.allocation.num_registers() <= 6);
    }

    #[test]
    fn approach2_respects_fds_budget() {
        let d = small();
        let r = approach2(&d, &SynthesisParams::default()).unwrap();
        r.schedule.validate(&r.dfg).unwrap();
        r.schedule
            .validate_groups(&r.dfg, &r.allocation.conflict_groups())
            .unwrap();
    }

    #[test]
    fn camad_merges_by_connectivity() {
        let d = small();
        // area-optimized configuration, as in the paper's experiments
        let params = SynthesisParams {
            alpha: 0.1,
            beta: 10.0,
            ..SynthesisParams::default()
        };
        let r = camad(&d, &params).unwrap();
        r.schedule.validate(&r.dfg).unwrap();
        // N1 and N2 share both sources: the classic connectivity merge
        let n1 = r.dfg.op_by_name("N1").unwrap();
        let n2 = r.dfg.op_by_name("N2").unwrap();
        assert_eq!(r.allocation.module_of(n1), r.allocation.module_of(n2));
    }

    #[test]
    fn baselines_are_deterministic() {
        let d = small();
        let p = SynthesisParams::default();
        assert_eq!(
            camad(&d, &p).unwrap().allocation,
            camad(&d, &p).unwrap().allocation
        );
        assert_eq!(
            approach1(&d, &p).unwrap().allocation,
            approach1(&d, &p).unwrap().allocation
        );
        assert_eq!(
            approach2(&d, &p).unwrap().allocation,
            approach2(&d, &p).unwrap().allocation
        );
    }
}
