//! Meta-test of the conformance harness: a deliberately broken engine
//! must be *caught*, not tolerated.
//!
//! The harness's value rests on the engine pairs being genuinely
//! redundant — if a fault in one implementation slid through every
//! check, the whole matrix would be a rubber stamp. So this test arms
//! the `CORE_FORCE_ROLLBACK` fault site, which makes the transactional
//! trial-merge path silently discard every priced trial (the merge
//! loop then commits nothing), while the clone-based oracle — a
//! different implementation with no fault site on that path — still
//! merges. The harness must flag exactly the `txn-oracle` pair.
//!
//! Gated on `test-faults`: the fault sites are compiled to constant
//! `false` otherwise, so this file only builds meaningfully under
//! `cargo test -p hlts-gen --features test-faults`.

#![cfg(feature = "test-faults")]

use hlts_check::faults::{sites, FaultPlan};
use hlts_gen::diff::check_preset;

#[test]
fn forced_rollback_engine_is_caught_as_txn_oracle_divergence() {
    // Baseline: the chosen graph conforms and actually merges, so the
    // faulted run below diverges through lost merges, not vacuously.
    let clean = check_preset("balanced", 0).expect("unfaulted engines conform");
    assert!(
        clean.merges > 0,
        "meta-test graph must commit merges for the fault to matter"
    );

    {
        let _guard = FaultPlan::new()
            .arm(sites::CORE_FORCE_ROLLBACK, u64::MAX)
            .install();
        let err = check_preset("balanced", 0).expect_err("broken engine must be caught");
        // The faulted txn path commits zero merges; the first
        // disagreement is against the independent clone oracle.
        assert_eq!(err.check, "txn-oracle", "wrong pair flagged: {err}");
        let msg = err.to_string();
        assert!(
            msg.contains("hlts gen --seed 0 --preset balanced | hlts run -"),
            "divergence must carry a one-command repro: {msg}"
        );
        assert!(
            msg.contains("dfg balanced_s0 {"),
            "divergence must carry the offending graph text: {msg}"
        );
    }

    // Guard dropped: the same (seed, preset) conforms again.
    let again = check_preset("balanced", 0).expect("engines conform after disarm");
    assert_eq!(again.merges, clean.merges);
}
