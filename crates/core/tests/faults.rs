//! Fault-injection tests of the synthesis kernel (enabled by the
//! `test-faults` feature): forcing a rollback at every savepoint must
//! degrade the run to "no merge committed", never to a corrupted state.
//!
//! The fault plan is process-global, so everything lives in one test
//! function — parallel test threads would steal each other's charges.

#![cfg(feature = "test-faults")]

use hlts_check::faults::{sites, FaultPlan};
use hlts_core::{trial_merge, DesignState, IntegratedSynthesizer, MergeKind, SynthesisParams};

#[test]
fn forced_rollbacks_degrade_to_the_initial_design() {
    let dfg = hlts_benchmarks::by_name("tseng").expect("known bench");

    // 1. A single trial under a forced rollback: the price closure is
    // never consulted, the trial reports "declined", and the state
    // comes back bit-identical and audit-clean.
    {
        let mut state = DesignState::initial(&dfg).expect("initial state");
        let modules: Vec<_> = state.allocation.modules().map(|m| m.id()).collect();
        let before_sched = state.schedule.content_hash();
        let before_alloc = state.allocation.content_hash();

        let guard = FaultPlan::new()
            .arm(sites::CORE_FORCE_ROLLBACK, 1)
            .install();
        let mut priced = false;
        let dc = trial_merge(
            &mut state,
            MergeKind::Modules(modules[0], modules[1]),
            |_| {
                priced = true;
                Some(0.0)
            },
        );
        assert!(
            guard.fired().contains(&sites::CORE_FORCE_ROLLBACK),
            "the armed fault must actually fire"
        );
        drop(guard);

        assert_eq!(dc, None, "a forced rollback discards the trial");
        assert!(!priced, "the faulted trial must not be priced");
        assert_eq!(state.schedule.content_hash(), before_sched);
        assert_eq!(state.allocation.content_hash(), before_alloc);
        let report = state.audit();
        assert!(report.is_clean(), "{report}");
    }

    // 2. A whole synthesis run with *every* trial forced back: no
    // merge can ever price better than the current design, so the run
    // must terminate gracefully on the unmerged initial design — the
    // correct partial result of "all candidates rejected".
    {
        let guard = FaultPlan::new()
            .arm(sites::CORE_FORCE_ROLLBACK, u64::MAX)
            .install();
        let result = IntegratedSynthesizer::new(SynthesisParams::paper_defaults(8))
            .run(&dfg)
            .expect("a fully-faulted run still completes");
        drop(guard);

        let initial = DesignState::initial(&dfg).expect("initial state");
        assert_eq!(
            result.allocation.num_modules(),
            initial.allocation.num_modules(),
            "no module merge can commit when every trial rolls back"
        );
        assert_eq!(
            result.allocation.num_registers(),
            initial.allocation.num_registers(),
            "no register merge can commit when every trial rolls back"
        );
        assert!(result.merge_log.is_empty(), "{:?}", result.merge_log);
        let state = DesignState::from_parts(&result.dfg, result.schedule, result.allocation);
        let report = state.audit();
        assert!(report.is_clean(), "{report}");
    }

    // 3. With the plan dropped the sites are disarmed again: the same
    // run now merges normally.
    let result = IntegratedSynthesizer::new(SynthesisParams::paper_defaults(8))
        .run(&dfg)
        .expect("clean run");
    assert!(
        !result.merge_log.is_empty(),
        "disarmed faults must not leak into later runs"
    );
}
