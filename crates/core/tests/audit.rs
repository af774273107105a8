//! The PR's headline invariant: however a merger storm batters a
//! [`DesignState`] — trial merges that roll back, committed merges,
//! rejected merges, interleavings of all three — the cross-crate
//! auditor stays clean. A violation here means the transaction
//! journal replayed the state incorrectly, which would silently poison
//! every later candidate's pricing.

use hlts_core::{
    merge_modules_with_resched, merge_registers_with_resched, trial_merge, DesignState, MergeKind,
};
use proptest::prelude::*;
use rand::{Rng, RngCore, SeedableRng};

/// Draw a random merge pair from the state's *live* allocation.
fn random_kind(state: &DesignState, rng: &mut impl RngCore) -> Option<MergeKind> {
    if rng.gen_bool(0.5) {
        let ids: Vec<_> = state.allocation.modules().map(|m| m.id()).collect();
        if ids.len() < 2 {
            return None;
        }
        let a = rng.gen_range(0..ids.len());
        let mut b = rng.gen_range(0..ids.len() - 1);
        if b >= a {
            b += 1;
        }
        Some(MergeKind::Modules(ids[a], ids[b]))
    } else {
        let ids: Vec<_> = state.allocation.registers().map(|r| r.id()).collect();
        if ids.len() < 2 {
            return None;
        }
        let a = rng.gen_range(0..ids.len());
        let mut b = rng.gen_range(0..ids.len() - 1);
        if b >= a {
            b += 1;
        }
        Some(MergeKind::Registers(ids[a], ids[b]))
    }
}

fn assert_clean(state: &DesignState, context: &str) {
    let report = state.audit();
    assert!(report.is_clean(), "{context}:\n{report}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Random apply/rollback storms on the paper benchmarks: after
    /// every trial (rolled back) and every commit (kept), the audit
    /// passes and a rolled-back state stays bit-identical in its
    /// observable fingerprints.
    #[test]
    fn merger_storms_always_audit_clean(
        seed in proptest::any::<u64>(),
        bench_sel in 0usize..4,
    ) {
        let name = ["ex", "tseng", "paulin", "diffeq"][bench_sel];
        let dfg = hlts_benchmarks::by_name(name).expect("known bench");
        let mut state = DesignState::initial(&dfg).expect("initial state");
        assert_clean(&state, "initial state");

        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        for step in 0..40 {
            let Some(kind) = random_kind(&state, &mut rng) else { break };
            if rng.gen_bool(0.7) {
                // Trial: apply, price, roll back. The state must come
                // back exactly; debug builds re-audit inside trial_merge
                // too, but release runs of this test rely on this check.
                let before_sched = state.schedule.content_hash();
                let before_alloc = state.allocation.content_hash();
                let _ = trial_merge(&mut state, kind, |s| {
                    Some(s.schedule.num_steps() as f64)
                });
                prop_assert_eq!(state.schedule.content_hash(), before_sched);
                prop_assert_eq!(state.allocation.content_hash(), before_alloc);
                assert_clean(&state, "after rolled-back trial");
            } else {
                // Commit (or get rejected; either way state stays legal).
                let _ = match kind {
                    MergeKind::Modules(a, b) => merge_modules_with_resched(&mut state, a, b),
                    MergeKind::Registers(a, b) => merge_registers_with_resched(&mut state, a, b),
                };
                assert_clean(&state, "after committed/rejected merge");
            }
            let _ = step;
        }
        state.validate().expect("validate agrees with audit");
    }
}

/// Full synthesizer runs over every paper benchmark leave a state the
/// auditor accepts — the acceptance criterion "audit passes on all
/// benchmarks".
#[test]
fn synthesized_benchmarks_audit_clean() {
    use hlts_core::{IntegratedSynthesizer, SynthesisParams};
    for name in hlts_benchmarks::NAMES {
        let dfg = hlts_benchmarks::by_name(name).expect("known bench");
        let result = IntegratedSynthesizer::new(SynthesisParams::paper_defaults(8))
            .run(&dfg)
            .expect("synthesis succeeds");
        let state = DesignState::from_parts(&result.dfg, result.schedule, result.allocation);
        let report = state.audit();
        assert!(report.is_clean(), "{name}:\n{report}");
    }
}

/// The library-level parameter validation the CLI used to be the only
/// guard for: NaN/negative weights and k == 0 are rejected before any
/// synthesis work happens.
#[test]
fn invalid_params_rejected_at_the_library_boundary() {
    use hlts_core::{baselines, CoreError, IntegratedSynthesizer, SynthesisParams};
    let dfg = hlts_benchmarks::by_name("ex").expect("known bench");
    let cases: Vec<(&str, SynthesisParams)> = vec![
        (
            "k = 0",
            SynthesisParams {
                k: 0,
                ..SynthesisParams::paper_defaults(8)
            },
        ),
        (
            "alpha NaN",
            SynthesisParams {
                alpha: f64::NAN,
                ..SynthesisParams::paper_defaults(8)
            },
        ),
        (
            "beta negative",
            SynthesisParams {
                beta: -1.0,
                ..SynthesisParams::paper_defaults(8)
            },
        ),
        (
            "alpha infinite",
            SynthesisParams {
                alpha: f64::INFINITY,
                ..SynthesisParams::paper_defaults(8)
            },
        ),
    ];
    for (what, params) in cases {
        params.validate().expect_err(what);
        let run = IntegratedSynthesizer::new(params.clone()).run(&dfg);
        assert!(
            matches!(run, Err(CoreError::InvalidParams(_))),
            "{what}: synthesizer accepted invalid params"
        );
        assert!(
            matches!(
                baselines::camad(&dfg, &params),
                Err(CoreError::InvalidParams(_))
            ),
            "{what}: camad accepted invalid params"
        );
        assert!(
            matches!(
                baselines::approach1(&dfg, &params),
                Err(CoreError::InvalidParams(_))
            ),
            "{what}: approach1 accepted invalid params"
        );
    }
    SynthesisParams::paper_defaults(8)
        .validate()
        .expect("paper defaults are valid");
}
