//! Release-tier conformance matrix for the coverage engine: over the
//! four paper benchmarks and 32 generated workloads, the random phase
//! must match the serial-fault oracle (detection bitmap and per-fault
//! first-detecting sequence).
//!
//! Ignored by default (minutes of release-mode work); CI runs it as
//! `cargo test --release -- --ignored tcov_matrix`.

mod common;

use common::fsim_reference::ReferenceFsim;
use hlts::atpg::{FaultSimulator, FaultUniverse};
use hlts::core::{CancelToken, IntegratedSynthesizer, SynthesisParams};
use hlts::dfg::Dfg;
use hlts::etpn::Etpn;
use hlts::netlist::{elaborate, Netlist};
use hlts::tcov::{fsim, AtpgConfig};

const BITS: u32 = 4;

/// Synthesize a behavior with the paper defaults and elaborate the
/// bound design to gates.
fn elaborated(dfg: &Dfg) -> Netlist {
    let result = IntegratedSynthesizer::new(SynthesisParams::paper_defaults(BITS))
        .run(dfg)
        .expect("synthesis succeeds");
    let etpn =
        Etpn::from_parts(&result.dfg, &result.schedule, &result.allocation).expect("etpn builds");
    elaborate(
        &result.dfg,
        &result.schedule,
        &result.allocation,
        &etpn,
        BITS,
    )
    .expect("elaboration succeeds")
}

fn matrix_cfg() -> AtpgConfig {
    AtpgConfig {
        random_sequences: 4,
        sequence_cycles: 18,
        ..AtpgConfig::default()
    }
}

/// The serial-fault oracle: the reference simulator's full faulty-
/// machine re-simulation (`tests/common/fsim_reference.rs`, no code
/// shared with `hlts-atpg`), one sequence at a time, recording each
/// fault's first detecting sequence — what the random phase must
/// reproduce.
fn serial_oracle(
    nl: &Netlist,
    cfg: &AtpgConfig,
    faults: &[hlts::atpg::Fault],
) -> (Vec<bool>, Vec<Option<usize>>) {
    let ctrl = fsim::control_inputs(nl);
    let seqs = fsim::random_sequences(nl, cfg, &ctrl);
    let reference = ReferenceFsim::new(nl.clone());
    let mut detected = vec![false; faults.len()];
    let mut first = vec![None; faults.len()];
    for (s, seq) in seqs.iter().enumerate() {
        let before = detected.clone();
        if reference.run(seq, faults, &mut detected) > 0 {
            for i in 0..faults.len() {
                if detected[i] && !before[i] {
                    first[i] = Some(s);
                }
            }
        }
    }
    (detected, first)
}

/// One workload: the random phase against the oracle.
fn check_workload(tag: &str, dfg: &Dfg) {
    let nl = elaborated(dfg);
    let cfg = matrix_cfg();
    let universe = FaultUniverse::collapsed(&nl).sampled(250, cfg.seed);
    let faults = universe.faults();
    let (oracle_det, oracle_first) = serial_oracle(&nl, &cfg, faults);
    let ctrl = fsim::control_inputs(&nl);
    let fs = FaultSimulator::new(nl.clone());
    let phase = fsim::run_random_phase(&fs, &cfg, &ctrl, faults, &CancelToken::new())
        .expect("not cancelled");
    assert_eq!(phase.detected, oracle_det, "{tag}: bitmap");
    assert_eq!(
        phase.first_detect_seq, oracle_first,
        "{tag}: per-fault detecting sequence"
    );
}

/// The four paper benchmarks end-to-end.
#[test]
#[ignore = "release-tier matrix; run with -- --ignored"]
fn tcov_matrix_paper_benchmarks() {
    for bench in ["ex", "paulin", "tseng", "diffeq"] {
        let dfg = hlts::benchmarks::by_name(bench).expect("known benchmark");
        check_workload(bench, &dfg);
    }
}

/// 32 seeded generator workloads (8 seeds × the 4 presets), the same
/// population the differential conformance harness draws from.
#[test]
#[ignore = "release-tier matrix; run with -- --ignored"]
fn tcov_matrix_generated_workloads() {
    for preset in hlts::gen::PRESET_NAMES {
        let mut cfg = hlts::gen::preset(preset).expect("known preset");
        // Keep each netlist small enough that 32 synthesize+simulate
        // rounds stay in release-tier budget; the structure sweep
        // comes from the seed × preset spread, not graph size.
        cfg.ops = cfg.ops.min(16);
        for seed in 0..8u64 {
            let dfg = hlts::gen::generate(seed, &cfg).expect("generates");
            check_workload(&format!("{preset}-s{seed}"), &dfg);
        }
    }
}
