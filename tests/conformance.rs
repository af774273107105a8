//! Differential conformance sweep: generated workloads through the
//! full engine matrix (see `hlts::gen::diff` for the pair table).
//!
//! The smoke tier runs on every `cargo test` and keeps debug-build
//! time modest; the full sweep — 128 graphs, ≥ 100 of which is the
//! acceptance bar — is `#[ignore]`d here and driven in release mode by
//! `ci.sh` (debug builds re-audit after every trial-merge rollback,
//! making the sweep an order of magnitude slower there).
//!
//! On failure the panic message carries the `(seed, preset)` pair, a
//! `hlts gen --seed N --preset P | hlts run -` repro line, and the
//! offending graph's full text.

use hlts::gen::diff::{check_preset, ConformanceReport};
use hlts::gen::PRESET_NAMES;

/// Sweep `seeds` seeds of every preset; panics with the self-contained
/// divergence report on the first disagreement.
fn sweep(seeds: u64) -> Vec<ConformanceReport> {
    let mut reports = Vec::new();
    for preset in PRESET_NAMES {
        for seed in 0..seeds {
            match check_preset(preset, seed) {
                Ok(r) => reports.push(r),
                Err(d) => panic!("{d}"),
            }
        }
    }
    reports
}

/// The run was not vacuous: every check ran on every graph, and the
/// sweep as a whole committed merges and computed DSE points.
fn assert_substantive(reports: &[ConformanceReport]) {
    assert!(reports.iter().all(|r| r.checks == 5), "a check was skipped");
    assert!(reports.iter().all(|r| r.ops > 0));
    assert!(
        reports.iter().map(|r| r.merges).sum::<usize>() > 0,
        "no graph exercised the merge loop"
    );
    assert!(reports.iter().all(|r| r.dse_points == 4));
}

/// Every-build smoke: 4 presets × 2 seeds = 8 graphs, zero
/// divergences across all five engine pairs. Kept small because debug
/// builds audit after every rollback (~4 s per graph); ci.sh runs a
/// 32-graph release smoke plus the full 128-graph sweep.
#[test]
fn conformance_smoke() {
    let reports = sweep(2);
    assert_eq!(reports.len(), 8);
    assert_substantive(&reports);
}

/// CI smoke tier: 4 presets × 8 seeds = 32 graphs; `#[ignore]`d from
/// the default debug run, invoked in release mode by ci.sh on every
/// build.
#[test]
#[ignore = "release-mode CI smoke; ci.sh runs it"]
fn conformance_ci_smoke() {
    let reports = sweep(8);
    assert_eq!(reports.len(), 32);
    assert_substantive(&reports);
}

/// The acceptance-bar sweep: 4 presets × 32 seeds = 128 graphs (≥ 100
/// required), zero divergences. Run via
/// `cargo test --release --test conformance -- --ignored` (ci.sh does).
#[test]
#[ignore = "long sweep; ci.sh runs it in release mode"]
fn conformance_full_sweep() {
    let reports = sweep(32);
    assert_eq!(reports.len(), 128);
    assert!(reports.len() >= 100, "acceptance bar: at least 100 graphs");
    assert_substantive(&reports);
}
