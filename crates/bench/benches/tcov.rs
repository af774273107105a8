//! Bench: coverage grading of the **largest** bundled benchmark, split
//! into its two phases.
//!
//! The ewf design at 8 bits is elaborated once, then graded twice over
//! a 2500-fault sample of the collapsed fault list: a full grade
//! (random phase, then PODEM) and a grade with
//! `max_deterministic_targets: 0` (random phase only). The difference
//! of the two wall times is the PODEM phase's share.
//!
//! The run **asserts** that the full report's
//! [`CoverageReport::signature`] equals [`PINNED_SIGNATURE`], and that
//! the random-only grade detects exactly the full grade's random-phase
//! faults. Only then does it write the figures, the host's CPU count,
//! the git revision and the command to `BENCH_tcov.json`.
//!
//! A grade is a fraction of a second of work, so this times runs
//! directly with `Instant` rather than driving Criterion's batch
//! sampler. Run it with `cargo bench --bench tcov`.

use std::time::Instant;

use hlts_bench::{rounded, write_bench_json};
use hlts_core::{IntegratedSynthesizer, RunCtl, SynthesisParams};
use hlts_etpn::Etpn;
use hlts_jobs::members;
use hlts_netlist::{elaborate, Netlist};
use hlts_tcov::{grade, CoverageReport, TcovConfig};

const BITS: u32 = 8;
const FAULT_SAMPLE: usize = 2500;
/// The full ewf@8 report, recorded before grading became
/// single-threaded; every later engine must reproduce it.
const PINNED_SIGNATURE: &str =
    "gates=1312 graded=2500 collapsed=7690 uncollapsed=8258 rand=2449 det=0 \
     untest=0 abort=51 cycles=54 backtracks=10200 patterns=82944 cov=97.96 eff=97.96";

/// Synthesize the largest bundled benchmark with the paper defaults
/// and elaborate the bound design to gates.
fn largest_elaborated() -> (String, Netlist, usize) {
    let (name, dfg) = hlts_benchmarks::all()
        .into_iter()
        .max_by_key(|(_, d)| d.num_ops())
        .expect("bundled benchmarks");
    let result = IntegratedSynthesizer::new(SynthesisParams::paper_defaults(BITS))
        .run(&dfg)
        .expect("synthesis succeeds");
    let etpn =
        Etpn::from_parts(&result.dfg, &result.schedule, &result.allocation).expect("etpn builds");
    let nl = elaborate(
        &result.dfg,
        &result.schedule,
        &result.allocation,
        &etpn,
        BITS,
    )
    .expect("elaboration succeeds");
    (name.to_owned(), nl, result.schedule.num_steps())
}

fn timed_grade(nl: &Netlist, cfg: &TcovConfig) -> (f64, CoverageReport) {
    let t = Instant::now();
    let report = grade(nl, cfg, &RunCtl::none()).expect("grades");
    (t.elapsed().as_secs_f64(), report)
}

fn main() {
    let (name, nl, steps) = largest_elaborated();
    let cfg = TcovConfig::for_schedule(steps, Some(FAULT_SAMPLE), 1);
    let mut random_only = cfg.clone();
    random_only.atpg.max_deterministic_targets = 0;

    let (full_secs, full) = timed_grade(&nl, &cfg);
    let (random_secs, random) = timed_grade(&nl, &random_only);
    let podem_secs = full_secs - random_secs;
    println!(
        "tcov/grade/{name}  {} gates, {} faults: full {full_secs:.3}s, random phase \
         {random_secs:.3}s, PODEM phase {podem_secs:.3}s (coverage {:.2}%, {} random + {} \
         deterministic, {} aborted)",
        full.gates,
        full.faults_graded,
        full.coverage(),
        full.detected_random,
        full.detected_deterministic,
        full.aborted,
    );

    assert_eq!(
        full.signature(),
        PINNED_SIGNATURE,
        "the {name} coverage report diverged from the pinned signature"
    );
    assert_eq!(
        random.detected_random, full.detected_random,
        "the random-only grade disagrees with the full grade's random phase"
    );
    println!("acceptance: {name} coverage report matches the pinned signature — OK");

    write_bench_json("BENCH_tcov.json", "cargo bench --bench tcov", |o| {
        members!(o, "benchmark": name.as_str(), "bits": BITS, "gates": full.gates,
            "faults_graded": full.faults_graded, "coverage_pct": rounded(full.coverage(), 2),
            "full_secs": rounded(full_secs, 3), "random_secs": rounded(random_secs, 3),
            "podem_secs": rounded(podem_secs, 3), "signature": full.signature());
    });
}
