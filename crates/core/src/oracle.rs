//! The clone-per-trial synthesis path, preserved as a **golden
//! oracle** for the transaction layer.
//!
//! Before transactions (`crate::txn`), every tentative merger — each
//! shortlisted candidate, every SR2 order probe, every per-pair
//! lifetime feasibility check — cloned the full design state, mutated
//! the clone and threw it away. This module keeps that formulation
//! alive, byte-for-byte in its decisions, with the clone cost the seed
//! actually paid: trial clones use [`DesignState::deep_trial_clone`],
//! which deep-copies the graph instead of sharing its immutable core.
//!
//! It exists for two purposes and is **not** part of the synthesis API:
//!
//! * the `txn_oracle` property tests assert that the transactional
//!   [`IntegratedSynthesizer`](crate::IntegratedSynthesizer) produces
//!   bit-identical results to [`synthesize`] on every bundled
//!   benchmark;
//! * the `merge_loop` benchmark gates the transaction layer's speedup
//!   (trials must run at least 2× faster than these clone trials).

use hlts_alloc::{ModuleId, RegisterId};
use hlts_dfg::{Dfg, OpId, ValueId};
use hlts_testability::{total_co_depth, TestabilityAnalysis, TestabilityCacheStats};

use crate::algorithm::merge_description;
use crate::candidates::{enumerate_candidates, MergeCandidate, MergeKind};
use crate::delta_eval::DeltaEvaluator;
use crate::resched::{disjointness_arcs, PrecArc};
use crate::{CoreError, DesignState, SelectionPolicy, SynthesisParams, SynthesisResult};

/// The full (SR1 depth, execution time) figure of merit of a tentative
/// state, as the paper's SR2 states it. The transactional path compares
/// `E` alone, since both probes of one decision share the SR1 depth;
/// this reference still compares the depth first.
fn sr1_merit(state: &DesignState) -> Result<(f64, usize), CoreError> {
    let etpn = state.lower()?;
    let analysis = TestabilityAnalysis::analyze(etpn.data_path());
    Ok((
        total_co_depth(etpn.data_path(), &analysis),
        etpn.execution_time(),
    ))
}

/// Apply `arcs` to a deep clone of `state` and reschedule; `None` when
/// the arcs are cyclic or the reschedule fails. This is the seed's
/// trial shape: one full-copy state per probe.
fn try_arcs(state: &DesignState, arcs: &[PrecArc]) -> Option<DesignState> {
    let mut s = state.deep_trial_clone();
    for &PrecArc { from, to, weak } in arcs {
        if weak {
            if s.dfg.reaches(from, to) {
                continue;
            }
            s.dfg.add_weak_precedence(from, to).ok()?;
        } else {
            s.dfg.add_precedence(from, to).ok()?;
        }
    }
    s.reschedule().ok()?;
    Some(s)
}

/// Convenience for strict-only arc lists (module-merge ordering).
fn strict(pairs: &[(OpId, OpId)]) -> Vec<PrecArc> {
    pairs
        .iter()
        .map(|&(from, to)| PrecArc {
            from,
            to,
            weak: false,
        })
        .collect()
}

/// SR2 on clones: both tentative constraint sets are built as
/// independent deep-copied states and compared by full merit (depth,
/// then `E`).
fn sr2_choose(state: &DesignState, first: &[PrecArc], second: &[PrecArc]) -> Option<bool> {
    let s1 = try_arcs(state, first);
    let s2 = try_arcs(state, second);
    match (s1, s2) {
        (None, None) => None,
        (Some(_), None) => Some(true),
        (None, Some(_)) => Some(false),
        (Some(a), Some(b)) => {
            let ma = sr1_merit(&a).ok()?;
            let mb = sr1_merit(&b).ok()?;
            if (ma.0 - mb.0).abs() > 1e-9 {
                Some(ma.0 < mb.0)
            } else {
                Some(ma.1 <= mb.1)
            }
        }
    }
}

/// Clone-based module merge with merge-sort rescheduling — the seed's
/// formulation of [`merge_modules_with_resched`](crate::merge_modules_with_resched).
///
/// # Errors
///
/// As [`crate::merge_modules_with_resched`].
pub fn merge_modules_cloned(
    state: &mut DesignState,
    a: ModuleId,
    b: ModuleId,
) -> Result<(), CoreError> {
    let ops_of = |m: ModuleId| -> Vec<OpId> {
        let mut ops = state
            .allocation
            .module(m)
            .map(|x| x.ops().to_vec())
            .unwrap_or_default();
        ops.sort_by_key(|&o| (state.schedule.step_of(o), o.index()));
        ops
    };
    let seq_a = ops_of(a);
    let seq_b = ops_of(b);
    if seq_a.is_empty() || seq_b.is_empty() {
        return Err(CoreError::MergeRejected(format!("{a} or {b} is stale")));
    }

    let mut work = state.deep_trial_clone();
    let mut merged: Vec<OpId> = Vec::with_capacity(seq_a.len() + seq_b.len());
    let (mut i, mut j) = (0usize, 0usize);
    let mut first_free_decision = true;
    while i < seq_a.len() && j < seq_b.len() {
        let (ha, hb) = (seq_a[i], seq_b[j]);
        let take_a = if work.dfg.reaches(ha, hb) {
            true
        } else if work.dfg.reaches(hb, ha) {
            false
        } else if first_free_decision {
            first_free_decision = false;
            sr2_choose(&work, &strict(&[(ha, hb)]), &strict(&[(hb, ha)])).ok_or_else(|| {
                CoreError::MergeRejected(format!(
                    "no feasible order for `{}` and `{}`",
                    work.dfg.op(ha).name(),
                    work.dfg.op(hb).name()
                ))
            })?
        } else {
            (work.schedule.step_of(ha), ha.index()) <= (work.schedule.step_of(hb), hb.index())
        };
        if take_a {
            merged.push(ha);
            i += 1;
        } else {
            merged.push(hb);
            j += 1;
        }
    }
    merged.extend_from_slice(&seq_a[i..]);
    merged.extend_from_slice(&seq_b[j..]);

    for w in merged.windows(2) {
        let (x, y) = (w[0], w[1]);
        if !work.dfg.reaches(x, y) {
            work.dfg.add_precedence(x, y).map_err(|_| {
                CoreError::MergeRejected(format!(
                    "ordering `{}` before `{}` is cyclic",
                    work.dfg.op(x).name(),
                    work.dfg.op(y).name()
                ))
            })?;
        }
    }
    work.allocation.merge_modules(&work.dfg, a, b)?;
    work.reschedule()?;
    // Same defense as the transactional path: rescheduling can slide a
    // definition into the end-of-iteration copy slot of a loop-carried
    // value sharing a previously merged register — reject instead of
    // committing an overlapping register file.
    if work.validate().is_err() {
        return Err(CoreError::MergeRejected(
            "post-merge reschedule produced overlapping lifetimes".into(),
        ));
    }
    *state = work;
    Ok(())
}

/// Clone-based register merge with merge-sort rescheduling — the seed's
/// formulation of [`merge_registers_with_resched`](crate::merge_registers_with_resched).
///
/// # Errors
///
/// As [`crate::merge_registers_with_resched`].
pub fn merge_registers_cloned(
    state: &mut DesignState,
    a: RegisterId,
    b: RegisterId,
) -> Result<(), CoreError> {
    let vals_of = |r: RegisterId| -> Vec<ValueId> {
        state
            .allocation
            .register(r)
            .map(|x| x.values().to_vec())
            .unwrap_or_default()
    };
    let va = vals_of(a);
    let vb = vals_of(b);
    if va.is_empty() || vb.is_empty() {
        return Err(CoreError::MergeRejected(format!("{a} or {b} is stale")));
    }

    for &x in &va {
        for &y in &vb {
            let clash = state
                .dfg
                .ops()
                .iter()
                .any(|op| op.inputs().contains(&x) && op.inputs().contains(&y));
            if clash {
                return Err(CoreError::MergeRejected(format!(
                    "`{}` and `{}` feed one operation together",
                    state.dfg.value(x).name(),
                    state.dfg.value(y).name()
                )));
            }
        }
    }

    let lt = state.lifetimes();
    let birth = |v: ValueId| lt.interval(v).map_or(usize::MAX, |iv| iv.birth);
    let mut seq_a = va;
    let mut seq_b = vb;
    seq_a.sort_by_key(|&v| (birth(v), v.index()));
    seq_b.sort_by_key(|&v| (birth(v), v.index()));

    let mut work = state.deep_trial_clone();
    let mut merged: Vec<ValueId> = Vec::with_capacity(seq_a.len() + seq_b.len());
    let (mut i, mut j) = (0usize, 0usize);
    let mut first_free_decision = true;
    while i < seq_a.len() && j < seq_b.len() {
        let (ha, hb) = (seq_a[i], seq_b[j]);
        let ab = disjointness_arcs(&work.dfg, ha, hb).unwrap_or_default();
        let ba = disjointness_arcs(&work.dfg, hb, ha).unwrap_or_default();
        let a_feasible =
            disjointness_arcs(&work.dfg, ha, hb).is_some() && try_arcs(&work, &ab).is_some();
        let b_feasible =
            disjointness_arcs(&work.dfg, hb, ha).is_some() && try_arcs(&work, &ba).is_some();
        let take_a = match (a_feasible, b_feasible) {
            (false, false) => {
                return Err(CoreError::MergeRejected(format!(
                    "lifetimes of `{}` and `{}` can never be disjoint",
                    work.dfg.value(ha).name(),
                    work.dfg.value(hb).name()
                )))
            }
            (true, false) => true,
            (false, true) => false,
            (true, true) => {
                if first_free_decision {
                    first_free_decision = false;
                    sr2_choose(&work, &ab, &ba).unwrap_or(true)
                } else {
                    (birth(ha), ha.index()) <= (birth(hb), hb.index())
                }
            }
        };
        if take_a {
            merged.push(ha);
            i += 1;
        } else {
            merged.push(hb);
            j += 1;
        }
    }
    merged.extend_from_slice(&seq_a[i..]);
    merged.extend_from_slice(&seq_b[j..]);

    for w in merged.windows(2) {
        let reject_msg = format!(
            "lifetime ordering of `{}` before `{}` is infeasible",
            work.dfg.value(w[0]).name(),
            work.dfg.value(w[1]).name()
        );
        let arcs = disjointness_arcs(&work.dfg, w[0], w[1])
            .ok_or_else(|| CoreError::MergeRejected(reject_msg.clone()))?;
        for PrecArc { from, to, weak } in arcs {
            let added = if weak {
                work.dfg.add_weak_precedence(from, to)
            } else {
                work.dfg.add_precedence(from, to)
            };
            added.map_err(|_| CoreError::MergeRejected(reject_msg.clone()))?;
        }
    }
    work.allocation.merge_registers(a, b)?;
    work.reschedule()?;
    if work.validate().is_err() {
        return Err(CoreError::MergeRejected(
            "post-merge validation found overlapping lifetimes".into(),
        ));
    }
    *state = work;
    Ok(())
}

/// One clone-based candidate trial: deep-copy the state, merge, price.
/// The seed's `eval_candidate`, kept verbatim in shape.
fn eval_candidate_cloned(
    params: &SynthesisParams,
    state: &DesignState,
    cand: &MergeCandidate,
    e0: f64,
    h0: f64,
    evaluator: &DeltaEvaluator,
) -> Option<(f64, DesignState)> {
    let mut trial = state.deep_trial_clone();
    match cand.kind {
        MergeKind::Modules(a, b) => {
            merge_modules_cloned(&mut trial, a, b).ok()?;
        }
        MergeKind::Registers(a, b) => {
            merge_registers_cloned(&mut trial, a, b).ok()?;
        }
    }
    let (e1, h1) = evaluator.eval(&trial, params.bits, &params.library).ok()?;
    let dc = params.alpha * (e1 as f64 - e0) + params.beta * (h1 - h0);
    Some((dc, trial))
}

/// Run Algorithm 1 with clone-based trials (sequential, keep-the-trial
/// commit) — the seed's synthesis loop. Produces results bit-identical
/// to [`IntegratedSynthesizer::run`](crate::IntegratedSynthesizer::run)
/// with the same parameters; the `txn_oracle` tests enforce this.
///
/// # Errors
///
/// As [`IntegratedSynthesizer::run`](crate::IntegratedSynthesizer::run).
pub fn synthesize(dfg: &Dfg, params: &SynthesisParams) -> Result<SynthesisResult, CoreError> {
    let evaluator = DeltaEvaluator::new();
    let mut state = DesignState::initial(dfg)?;
    let mut merge_log: Vec<String> = Vec::new();
    let mut testability = TestabilityCacheStats::default();

    for _ in 0..params.max_merges {
        let etpn = state.lower()?;
        let analysis = TestabilityAnalysis::analyze(etpn.data_path());
        testability.record(&analysis);
        let mut candidates = enumerate_candidates(&state, &etpn, &analysis);
        if candidates.is_empty() {
            break;
        }
        if params.selection_policy == SelectionPolicy::Arbitrary {
            candidates.sort_by_key(|c| match c.kind {
                MergeKind::Modules(a, b) => (0u8, a.index(), b.index()),
                MergeKind::Registers(a, b) => (1u8, a.index(), b.index()),
            });
        }
        let (e0_steps, h0) = evaluator.eval(&state, params.bits, &params.library)?;
        let e0 = e0_steps as f64;

        let mut committed = false;
        for chunk in candidates.chunks(params.k.max(1)) {
            let mut best: Option<(f64, DesignState, MergeKind)> = None;
            for cand in chunk {
                let Some((dc, trial)) =
                    eval_candidate_cloned(params, &state, cand, e0, h0, &evaluator)
                else {
                    continue;
                };
                if best.as_ref().is_none_or(|(b, _, _)| dc < *b) {
                    best = Some((dc, trial, cand.kind));
                }
            }
            if let Some((dc, trial, kind)) = best {
                if dc <= params.accept_threshold {
                    let desc = merge_description(&trial, kind);
                    merge_log.push(format!("{desc} (ΔC = {dc:+.4})"));
                    state = trial;
                    committed = true;
                    break;
                }
            }
        }
        if !committed {
            break;
        }
    }

    debug_assert!(state.validate().is_ok());
    SynthesisResult::from_state(state, params.bits, &params.library, merge_log, testability)
}
