//! Fast conformance checks: the random phase must be bit-identical to
//! the serial-fault oracle (the workspace's reference fault simulator,
//! a full faulty-machine re-simulation that shares no code with
//! `hlts-atpg`), and grading must honour its sample, its memo and its
//! cancel token.
//! The full matrix over the paper benchmarks and 32 generated graphs
//! runs as the `#[ignore]`d release tier in the workspace root's
//! `tests/tcov_conformance.rs`.

#[path = "../../../tests/common/fsim_reference.rs"]
mod fsim_reference;

use fsim_reference::ReferenceFsim;
use hlts_atpg::{FaultSimulator, FaultUniverse};
use hlts_core::{CancelToken, IntegratedSynthesizer, RunCtl, SynthesisParams};
use hlts_etpn::Etpn;
use hlts_netlist::{elaborate, Netlist};
use hlts_tcov::{fsim, grade, netlist_fingerprint, AtpgConfig, TcovConfig, TcovError, TcovPool};

/// Synthesize a benchmark and elaborate the bound design to gates.
fn elaborated(bench: &str, bits: u32) -> Netlist {
    let dfg = hlts_benchmarks::by_name(bench).expect("known benchmark");
    let params = SynthesisParams::paper_defaults(bits);
    let result = IntegratedSynthesizer::new(params)
        .run(&dfg)
        .expect("synthesis succeeds");
    let etpn =
        Etpn::from_parts(&result.dfg, &result.schedule, &result.allocation).expect("etpn builds");
    elaborate(
        &result.dfg,
        &result.schedule,
        &result.allocation,
        &etpn,
        bits,
    )
    .expect("elaboration succeeds")
}

fn small_cfg(nl_steps_hint: usize, sample: usize) -> AtpgConfig {
    AtpgConfig {
        random_sequences: 6,
        sequence_cycles: (nl_steps_hint + 1) * 2,
        fault_sample: Some(sample),
        ..AtpgConfig::default()
    }
}

/// The serial-fault oracle: the reference simulator, one sequence at a
/// time, recording each fault's first detecting sequence.
fn serial_oracle(
    nl: &Netlist,
    cfg: &AtpgConfig,
    faults: &[hlts_atpg::Fault],
) -> (Vec<bool>, Vec<Option<usize>>, usize, usize) {
    let ctrl = fsim::control_inputs(nl);
    let seqs = fsim::random_sequences(nl, cfg, &ctrl);
    let reference = ReferenceFsim::new(nl.clone());
    let mut detected = vec![false; faults.len()];
    let mut first = vec![None; faults.len()];
    let mut detected_random = 0;
    let mut test_cycles = 0;
    for (s, seq) in seqs.iter().enumerate() {
        let before = detected.clone();
        let newly = reference.run(seq, faults, &mut detected);
        if newly > 0 {
            detected_random += newly;
            test_cycles += cfg.sequence_cycles;
            for i in 0..faults.len() {
                if detected[i] && !before[i] {
                    first[i] = Some(s);
                }
            }
        }
        assert_eq!(
            newly,
            detected
                .iter()
                .zip(&before)
                .filter(|(d, b)| **d && !**b)
                .count()
        );
    }
    (detected, first, detected_random, test_cycles)
}

#[test]
fn random_phase_matches_serial_oracle() {
    for bench in ["ex", "paulin"] {
        let nl = elaborated(bench, 4);
        let cfg = small_cfg(8, 400);
        let universe = FaultUniverse::collapsed(&nl).sampled(400, cfg.seed);
        let faults = universe.faults();
        let (oracle_det, oracle_first, oracle_rand, oracle_cycles) =
            serial_oracle(&nl, &cfg, faults);
        let ctrl = fsim::control_inputs(&nl);
        let fs = FaultSimulator::new(nl.clone());
        let phase = fsim::run_random_phase(&fs, &cfg, &ctrl, faults, &CancelToken::new())
            .expect("not cancelled");
        assert_eq!(phase.detected, oracle_det, "{bench}: bitmap");
        assert_eq!(
            phase.first_detect_seq, oracle_first,
            "{bench}: per-fault detecting sequence"
        );
        assert_eq!(phase.detected_random, oracle_rand, "{bench}");
        assert_eq!(phase.test_cycles, oracle_cycles, "{bench}");
    }
}

#[test]
fn grade_reports_sampled_fault_counts() {
    let nl = elaborated("ex", 4);
    let cfg = TcovConfig {
        atpg: small_cfg(8, 300),
    };
    let report = grade(&nl, &cfg, &RunCtl::none()).expect("grades");
    assert!(report.coverage() > 0.0 && report.coverage() <= 100.0);
    assert_eq!(report.faults_graded, 300);
    assert!(report.total_collapsed > report.faults_graded);
    assert!(report.total_uncollapsed > report.total_collapsed);
}

/// With the deterministic phase disabled, the report's random-phase
/// accounting must match golden values recorded from an independent
/// serial implementation of the two-phase flow on the same netlist and
/// configuration.
#[test]
fn random_only_grade_matches_pinned_values() {
    let nl = elaborated("paulin", 4);
    let atpg = AtpgConfig {
        max_deterministic_targets: 0,
        ..small_cfg(8, 300)
    };
    let report = grade(&nl, &TcovConfig { atpg }, &RunCtl::none()).expect("grades");
    assert_eq!(report.gates, 307);
    assert_eq!(report.faults_graded, 300);
    assert_eq!(report.detected_random, 281);
    assert_eq!(report.test_cycles, 18);
    assert_eq!(report.random_patterns, 6 * 18 * 64);
    assert_eq!(report.detected_deterministic, 0);
    assert_eq!(report.backtracks, 0);
}

#[test]
fn pool_memoizes_per_netlist_and_per_config() {
    let nl = elaborated("ex", 4);
    let pool = TcovPool::new(4);
    let ctl = RunCtl::none();
    let cfg = TcovConfig {
        atpg: small_cfg(8, 200),
    };
    let first = pool.grade(&nl, &cfg, &ctl).expect("grades");
    let stats = pool.stats();
    assert_eq!((stats.ctx_hits, stats.ctx_misses), (0, 1));
    assert_eq!((stats.report_hits, stats.report_misses), (0, 1));
    // Same netlist + same ATPG config: tier-2 hit.
    let again = pool.grade(&nl, &cfg, &ctl).expect("grades");
    assert_eq!(first, again);
    let stats = pool.stats();
    assert_eq!((stats.ctx_hits, stats.report_hits), (1, 1));
    // New sample size: context reused, report recomputed.
    let other = pool
        .grade(
            &nl,
            &TcovConfig {
                atpg: small_cfg(8, 120),
            },
            &ctl,
        )
        .expect("grades");
    assert_eq!(other.faults_graded, 120);
    let stats = pool.stats();
    assert_eq!((stats.ctx_hits, stats.ctx_misses), (2, 1));
    assert_eq!((stats.report_hits, stats.report_misses), (1, 2));
}

#[test]
fn fingerprint_distinguishes_structure_and_names() {
    use hlts_netlist::GateKind;
    let mut a = Netlist::new();
    let x = a.input("x");
    let y = a.input("y");
    let g = a.gate(GateKind::And, &[x, y]);
    a.output("o", g);
    let mut b = Netlist::new();
    let x = b.input("x");
    let y = b.input("y");
    let g = b.gate(GateKind::Or, &[x, y]);
    b.output("o", g);
    let mut c = Netlist::new();
    let x = c.input("ctrl_x");
    let y = c.input("y");
    let g = c.gate(GateKind::And, &[x, y]);
    c.output("o", g);
    assert_eq!(netlist_fingerprint(&a), netlist_fingerprint(&a));
    assert_ne!(netlist_fingerprint(&a), netlist_fingerprint(&b));
    // Same structure, different input name: the ctrl_* prefix changes
    // the grading protocol, so the fingerprint must differ.
    assert_ne!(netlist_fingerprint(&a), netlist_fingerprint(&c));
}

#[test]
fn cancellation_is_reported() {
    let nl = elaborated("ex", 4);
    let token = CancelToken::new();
    token.cancel();
    let ctl = RunCtl::cancel_only(token);
    let out = grade(
        &nl,
        &TcovConfig {
            atpg: small_cfg(8, 200),
        },
        &ctl,
    );
    assert_eq!(out, Err(TcovError::Cancelled));
}

/// With no random sequences the random phase never polls the token,
/// so the deterministic phase's own per-target check must report the
/// cancellation.
#[test]
fn cancellation_is_reported_in_the_deterministic_phase() {
    let nl = elaborated("ex", 4);
    let token = CancelToken::new();
    token.cancel();
    let atpg = AtpgConfig {
        random_sequences: 0,
        ..small_cfg(8, 200)
    };
    let out = grade(&nl, &TcovConfig { atpg }, &RunCtl::cancel_only(token));
    assert_eq!(out, Err(TcovError::Cancelled));
}
