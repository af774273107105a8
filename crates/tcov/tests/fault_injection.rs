//! Resilience: killed grading workers must degrade to recomputation in
//! the merge pass — never to a wrong or missing report. Runs only with
//! the `test-faults` feature (`cargo test -p hlts-tcov --features
//! test-faults`); without it the whole file compiles away.

#![cfg(feature = "test-faults")]

use hlts_check::faults::{sites, FaultPlan};
use hlts_core::{IntegratedSynthesizer, RunCtl, SynthesisParams};
use hlts_etpn::Etpn;
use hlts_netlist::{elaborate, Netlist};
use hlts_tcov::{grade, AtpgConfig, TcovConfig};

fn elaborated(bench: &str, bits: u32) -> Netlist {
    let dfg = hlts_benchmarks::by_name(bench).expect("known benchmark");
    let result = IntegratedSynthesizer::new(SynthesisParams::paper_defaults(bits))
        .run(&dfg)
        .expect("synthesis succeeds");
    let etpn = Etpn::from_parts(&result.dfg, &result.schedule, &result.allocation)
        .expect("etpn builds");
    elaborate(
        &result.dfg,
        &result.schedule,
        &result.allocation,
        &etpn,
        bits,
    )
    .expect("elaboration succeeds")
}

/// Killing every worker of every phase (random-phase partitions and
/// PODEM targets alike) leaves the survivors' fallback paths — the
/// unclaimed-chunk loop and the merge pass's pure recomputation — to
/// produce the *same* report the unarmed run produces.
#[test]
fn killed_workers_degrade_to_a_correct_report() {
    let nl = elaborated("ex", 4);
    // No random phase: every undetected fault becomes a PODEM target,
    // so the kill exercises the deterministic workers too.
    let cfg = TcovConfig {
        atpg: AtpgConfig {
            random_sequences: 0,
            fault_sample: Some(60),
            max_deterministic_targets: 40,
            ..AtpgConfig::default()
        },
        jobs: 4,
    };
    let ctl = RunCtl::none();
    let baseline = grade(&nl, &cfg, &ctl).expect("unarmed grading succeeds");

    // Enough charges to kill every worker of every scoped phase.
    let guard = FaultPlan::new()
        .arm(sites::TCOV_WORKER_KILL, 1_000)
        .install();
    let degraded = grade(&nl, &cfg, &ctl).expect("grading survives dead workers");
    assert!(
        guard.fired().contains(&sites::TCOV_WORKER_KILL),
        "the kill site must actually fire"
    );
    drop(guard);

    assert_eq!(
        baseline.signature(),
        degraded.signature(),
        "a killed grading worker must degrade to recomputation, not to a different report"
    );
    assert!(
        degraded.stats.recomputed > 0,
        "with every worker dead the merge pass must recompute targets"
    );
}

/// A partial kill (one worker's worth of charges) lets the surviving
/// workers drain the claim queue: same report, by work stealing alone.
#[test]
fn surviving_workers_drain_a_partial_kill() {
    let nl = elaborated("ex", 4);
    let cfg = TcovConfig {
        atpg: AtpgConfig {
            random_sequences: 4,
            sequence_cycles: 10,
            fault_sample: Some(120),
            ..AtpgConfig::default()
        },
        jobs: 4,
    };
    let ctl = RunCtl::none();
    let baseline = grade(&nl, &cfg, &ctl).expect("unarmed grading succeeds");
    let guard = FaultPlan::new().arm(sites::TCOV_WORKER_KILL, 1).install();
    let degraded = grade(&nl, &cfg, &ctl).expect("grading survives one dead worker");
    drop(guard);
    assert_eq!(baseline.signature(), degraded.signature());
}
