//! Golden coverage pins for the paper tables' grading runs.
//!
//! Tables 1–3, `extra_benchmarks` and `ablation_balance` grade every design
//! through `hlts_tcov::grade_design` under the tables' ATPG
//! configuration. The golden values below come from an independent
//! serial implementation of the same two-phase flow, so they pin the
//! flow's definition (control order, RNG draw order, presets), not
//! just this engine's current output. A moved value is a bug to
//! report, not a pin to update.
//!
//! The configurations are spelled out here rather than taken from
//! `hlts_bench::table_atpg_config`, whose size depends on the
//! `HLTS_QUICK` environment variable. The quick-size pins run in the
//! default suite; the full-size rows and the rows where PODEM detects
//! faults are `#[ignore]`d release pins:
//! `cargo test --release --test table_coverage -- --ignored`.

use hlts::core::RunCtl;
use hlts::tcov::{grade_design, AtpgConfig, TcovConfig};
use hlts_bench::Flow;

/// One table row at quick (`HLTS_QUICK=1`) or full size, and its
/// golden `(gates, faults graded, random, deterministic, aborted,
/// backtracks, test cycles, coverage as printed)`.
type Pin = (&'static str, Flow, u32, bool, [usize; 7], &'static str);

fn check((bench, flow, bits, quick, want, cov): Pin) {
    let dfg = hlts::benchmarks::by_name(bench).expect("known benchmark");
    let r = flow.run(&dfg, bits).expect("synthesis succeeds");
    let steps = r.schedule.num_steps();
    let atpg = AtpgConfig {
        sequence_cycles: (steps + 1) * 2,
        random_sequences: if quick { 6 } else { 16 },
        frames: steps + 3,
        fault_sample: Some(match (quick, bits >= 16) {
            (true, _) => 500,
            (false, true) => 1500,
            (false, false) => 2000,
        }),
        max_deterministic_targets: if quick { 40 } else { 200 },
        ..AtpgConfig::default()
    };
    let cfg = TcovConfig { atpg };
    let rep = grade_design(
        &r.dfg,
        &r.schedule,
        &r.allocation,
        bits,
        &cfg,
        &RunCtl::none(),
    )
    .expect("grades");
    let got = [
        rep.gates,
        rep.faults_graded,
        rep.detected_random,
        rep.detected_deterministic,
        rep.aborted,
        rep.backtracks,
        rep.test_cycles,
    ];
    let row = format!("{bench} {} {bits}-bit (quick {quick})", flow.label());
    assert_eq!((got, rep.untestable), (want, 0), "{row}");
    assert_eq!(format!("{:.2}", rep.coverage()), cov, "{row}");
}

/// Quick-size rows (the default suite).
#[rustfmt::skip]
const QUICK: [Pin; 3] = [
    ("ex", Flow::Ours, 4, true, [302, 500, 483, 0, 17, 534, 10], "96.60"),
    ("ex", Flow::Approach2, 4, true, [284, 500, 480, 0, 20, 1200, 20], "96.00"),
    ("paulin", Flow::Ours, 4, true, [307, 500, 472, 0, 28, 1112, 10], "94.40"),
];

/// Release rows: full size, and the rows where PODEM detects faults.
#[rustfmt::skip]
const RELEASE: [Pin; 3] = [
    ("diffeq", Flow::Camad, 8, true, [781, 500, 467, 2, 31, 4847, 68], "93.80"),
    ("ex", Flow::Ours, 4, false, [302, 1485, 1433, 0, 52, 3200, 20], "96.50"),
    ("diffeq", Flow::Ours, 16, false, [1662, 1500, 1451, 25, 24, 3338, 206], "98.40"),
];

#[test]
fn quick_rows_match_golden_values() {
    QUICK.into_iter().for_each(check);
}

#[test]
#[ignore = "release pin: run with --release -- --ignored"]
fn release_rows_match_golden_values() {
    RELEASE.into_iter().for_each(check);
}
