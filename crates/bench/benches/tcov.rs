//! Bench gate: fault-partitioned parallel coverage grading on the
//! **largest** bundled benchmark.
//!
//! One full `grade` — elaborate-once, then the random phase and the
//! deterministic (PODEM) phase over a 2500-fault sample of the
//! collapsed fault list — runs twice on the ewf netlist, once on one
//! worker and once on four, and the run **asserts** the PR's
//! acceptance criteria:
//!
//! * the [`CoverageReport`]s are bit-identical across worker counts
//!   (compared by [`CoverageReport::signature`]), always;
//! * the parallel grade is ≥ 2× faster than the serial one — checked
//!   only when the machine actually has ≥ 2 CPUs (fault partitions
//!   cannot beat physics on a single core; the gate prints a skip
//!   note there instead).
//!
//! A grade is whole seconds of work, so this times runs directly with
//! `Instant` rather than driving Criterion's batch sampler, and writes
//! the headline figures to `BENCH_tcov.json`.

use std::time::Instant;

use hlts_core::{IntegratedSynthesizer, RunCtl, SynthesisParams};
use hlts_etpn::Etpn;
use hlts_netlist::{elaborate, Netlist};
use hlts_tcov::{grade, CoverageReport, TcovConfig};

const SPEEDUP_GATE: f64 = 2.0;
const BITS: u32 = 8;
const PARALLEL_JOBS: usize = 4;
/// Big enough that each of the four partitions is still thousands of
/// simulations deep; small enough that the gate stays tens of seconds.
const FAULT_SAMPLE: usize = 2500;

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

fn timed_grade(nl: &Netlist, steps: usize, jobs: usize) -> (f64, CoverageReport) {
    let cfg = TcovConfig::for_schedule(steps, Some(FAULT_SAMPLE), jobs);
    let t = Instant::now();
    let report = grade(nl, &cfg, &RunCtl::none()).expect("grades");
    (t.elapsed().as_secs_f64(), report)
}

fn main() {
    let (name, nl, steps) = largest_elaborated();

    let (serial_secs, serial) = timed_grade(&nl, steps, 1);
    let (parallel_secs, parallel) = timed_grade(&nl, steps, PARALLEL_JOBS);
    println!(
        "tcov/grade/{name}  {} gates, {} faults: serial {:.2}s, {PARALLEL_JOBS} workers {:.2}s \
         (coverage {:.2}%, {} random + {} deterministic)",
        serial.gates,
        serial.faults_graded,
        serial_secs,
        parallel_secs,
        serial.coverage(),
        serial.detected_random,
        serial.detected_deterministic,
    );

    // Conformance half of the gate: unconditional.
    assert_eq!(
        serial.signature(),
        parallel.signature(),
        "acceptance criterion violated: the {name} coverage report diverges \
         between 1 and {PARALLEL_JOBS} workers"
    );
    println!("acceptance: coverage report bit-identical across 1 and {PARALLEL_JOBS} workers on {name} — OK");

    // Throughput half: only meaningful when the partitions can
    // actually run side by side.
    let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut speedup = serial_secs / parallel_secs;
    let mut gated = false;
    if cpus < 2 {
        println!(
            "acceptance: parallel >= {SPEEDUP_GATE}x serial — SKIPPED \
             (host has {cpus} CPU; fault partitions cannot outrun one core)"
        );
    } else {
        gated = true;
        println!("speedup tcov/grade/{name:<17} {PARALLEL_JOBS} workers vs 1 {speedup:6.1}x");
        if speedup < SPEEDUP_GATE {
            // Noise guard: one re-measurement before failing the gate —
            // a grade is seconds long, so a single retry is cheap
            // relative to a false negative.
            let (s, _) = timed_grade(&nl, steps, 1);
            let (p, _) = timed_grade(&nl, steps, PARALLEL_JOBS);
            speedup = s / p;
            println!("speedup tcov/grade/{name:<17} re-measured {speedup:6.1}x");
        }
        assert!(
            speedup >= SPEEDUP_GATE,
            "acceptance criterion violated: the parallel grade is only {speedup:.2}x \
             the serial one on {name} with {cpus} CPUs (need >= {SPEEDUP_GATE}x)"
        );
        println!(
            "acceptance: parallel grade >= {SPEEDUP_GATE}x serial on {name} — OK ({speedup:.1}x)"
        );
    }

    let json = format!(
        "{{\n  \"benchmark\": \"{name}\",\n  \"gates\": {},\n  \
         \"faults_graded\": {},\n  \"coverage_pct\": {:.2},\n  \
         \"serial_secs\": {serial_secs:.3},\n  \
         \"parallel_secs\": {parallel_secs:.3},\n  \
         \"parallel_jobs\": {PARALLEL_JOBS},\n  \"speedup\": {speedup:.2},\n  \
         \"speedup_gate\": {SPEEDUP_GATE},\n  \"gate_applied\": {gated},\n  \
         \"cpus\": {cpus},\n  \"bit_identical\": true\n}}\n",
        serial.gates,
        serial.faults_graded,
        serial.coverage(),
    );
    let path = "BENCH_tcov.json";
    std::fs::write(path, &json).expect("write BENCH_tcov.json");
    println!("wrote {path}");
}
