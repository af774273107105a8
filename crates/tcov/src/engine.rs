//! The grading engine: the random phase, then PODEM over a fixed
//! target list.
//!
//! The deterministic phase snapshots its targets — the first
//! `max_deterministic_targets` faults the random phase left undetected,
//! in fault-index order — and walks them in that order. A target an
//! earlier kept test already detected is skipped; otherwise the pure,
//! RNG-free `podem_target` resolves it, and every validated test is
//! fault-simulated over the pending list. The detected set, test
//! cycles and backtrack totals are therefore functions of (netlist,
//! config) alone.

use hlts_alloc::Allocation;
use hlts_atpg::{
    Fault, FaultScratch, FaultSimulator, FaultUniverse, PiAssign, Podem, PodemOutcome,
};
use hlts_core::{CancelToken, RunCtl};
use hlts_dfg::Dfg;
use hlts_etpn::Etpn;
use hlts_netlist::{elaborate, Netlist};
use hlts_sched::Schedule;

use crate::fsim;
use crate::{CoverageReport, GradeStats, TcovConfig, TcovError};

/// The per-frame control-input preset walks PODEM is allowed to try
/// (up to three phase shifts of the controller's one-hot walk).
type Preset = Vec<Vec<Option<bool>>>;

/// What one deterministic target resolved to. A pure function of
/// (netlist, frames, backtrack limit, presets, fault) — no RNG, no
/// cross-target state.
#[derive(Debug)]
enum TargetOutcome {
    /// A validated test (it detects its own target fault).
    Found {
        test: Vec<PiAssign>,
        backtracks: usize,
    },
    /// Every preset was tried without a validated test.
    Exhausted {
        all_untestable: bool,
        backtracks: usize,
    },
}

impl TargetOutcome {
    fn backtracks(&self) -> usize {
        match self {
            TargetOutcome::Found { backtracks, .. }
            | TargetOutcome::Exhausted { backtracks, .. } => *backtracks,
        }
    }
}

/// Build the phase-shifted control presets: preset `p` (for
/// `p < min(3, walk length)`) drives control input `ctrl_idx[j]` high
/// in frame `f` exactly when `(f + p) % walk length == j`, and leaves
/// every data input free for PODEM. Targets try the presets in order.
fn control_presets(nl: &Netlist, ctrl_idx: &[usize], frames: usize) -> Vec<Preset> {
    let walk_len = ctrl_idx.len().max(1);
    let preset_with_phase = |phase: usize| -> Preset {
        (0..frames)
            .map(|f| {
                (0..nl.inputs().len())
                    .map(|i| {
                        ctrl_idx
                            .iter()
                            .position(|&c| c == i)
                            .map(|pos| !ctrl_idx.is_empty() && (f + phase) % walk_len == pos)
                    })
                    .collect()
            })
            .collect()
    };
    (0..walk_len.min(3)).map(preset_with_phase).collect()
}

/// Resolve one deterministic target: try each preset, validate any
/// test PODEM returns against the target fault itself, and account the
/// backtracks the attempt consumed. `podem` and `scratch` are reusable
/// buffers — only `Podem::backtracks_used` carries over, and the
/// per-call delta is instance-independent.
fn podem_target(
    podem: &mut Podem,
    fs: &FaultSimulator,
    scratch: &mut FaultScratch,
    presets: &[Preset],
    fault: Fault,
) -> TargetOutcome {
    let before = podem.backtracks_used();
    let mut all_untestable = true;
    for preset in presets {
        match podem.generate_seeded(fault, Some(preset)) {
            PodemOutcome::Test(t) => {
                all_untestable = false;
                let seq: Vec<PiAssign> = t
                    .iter()
                    .map(|frame| frame.iter().map(|&b| if b { !0u64 } else { 0 }).collect())
                    .collect();
                let trace = fs.good_trace(&seq);
                if fs.detects(scratch, &trace, fault) {
                    return TargetOutcome::Found {
                        test: seq,
                        backtracks: podem.backtracks_used() - before,
                    };
                }
            }
            PodemOutcome::Untestable => {}
            PodemOutcome::Aborted => all_untestable = false,
        }
    }
    TargetOutcome::Exhausted {
        all_untestable,
        backtracks: podem.backtracks_used() - before,
    }
}

/// What the deterministic phase adds to the report.
#[derive(Default)]
struct DetPhase {
    detected_deterministic: usize,
    untestable: usize,
    aborted: usize,
    test_cycles: usize,
    backtracks: usize,
}

/// The deterministic phase: fixed target list, PODEM per target in
/// fault-index order.
fn deterministic_phase(
    nl: &Netlist,
    fs: &FaultSimulator,
    cfg: &TcovConfig,
    ctrl_idx: &[usize],
    faults: &[Fault],
    detected: &mut [bool],
    cancel: &CancelToken,
) -> Result<DetPhase, TcovError> {
    let mut phase = DetPhase::default();
    // The fixed target list: the first `max_deterministic_targets`
    // still-undetected faults, in fault-index order, snapshotted
    // *before* any deterministic test runs.
    let targets: Vec<usize> = (0..faults.len())
        .filter(|&i| !detected[i])
        .take(cfg.atpg.max_deterministic_targets)
        .collect();
    if targets.is_empty() {
        return Ok(phase);
    }
    let presets = control_presets(nl, ctrl_idx, cfg.atpg.frames.max(1));
    let mut podem = Podem::new(nl.clone(), cfg.atpg.frames, cfg.atpg.backtrack_limit);
    let mut scratch = fs.scratch();
    for &fi in &targets {
        if detected[fi] {
            continue; // dropped by an earlier kept test
        }
        if cancel.is_cancelled() {
            return Err(TcovError::Cancelled);
        }
        let outcome = podem_target(&mut podem, fs, &mut scratch, &presets, faults[fi]);
        phase.backtracks += outcome.backtracks();
        match outcome {
            TargetOutcome::Found { test, .. } => {
                let pending: Vec<usize> = (0..faults.len()).filter(|&i| !detected[i]).collect();
                let trace = fs.good_trace(&test);
                let hits =
                    fsim::detect_partition(fs, &mut scratch, &trace, faults, &pending, cancel)?;
                for &i in &hits {
                    detected[i] = true;
                }
                phase.detected_deterministic += hits.len();
                if !hits.is_empty() {
                    phase.test_cycles += test.len();
                }
            }
            TargetOutcome::Exhausted { all_untestable, .. } => {
                if all_untestable && ctrl_idx.is_empty() {
                    // with free inputs, exhaustion proves untestability
                    // within the frame bound
                    phase.untestable += 1;
                } else {
                    phase.aborted += 1;
                }
            }
        }
    }
    Ok(phase)
}

/// Grade a netlist whose collapsed (unsampled) fault universe was
/// already computed — the memo tier's entry point. Sampling (if
/// configured) is applied here, so a memoized universe serves every
/// sample size.
///
/// # Errors
///
/// [`TcovError::Cancelled`] when the run control's token fires; the
/// partial state is discarded.
pub fn grade_with_universe(
    nl: &Netlist,
    universe: &FaultUniverse,
    cfg: &TcovConfig,
    ctl: &RunCtl<'_>,
) -> Result<CoverageReport, TcovError> {
    let sampled: FaultUniverse = match cfg.atpg.fault_sample {
        Some(n) => universe.clone().sampled(n, cfg.atpg.seed),
        None => universe.clone(),
    };
    let faults = sampled.faults();
    let ctrl_idx = fsim::control_inputs(nl);
    let fs = FaultSimulator::new(nl.clone());
    let random = fsim::run_random_phase(&fs, &cfg.atpg, &ctrl_idx, faults, &ctl.cancel)?;
    let mut detected = random.detected;
    let det = deterministic_phase(nl, &fs, cfg, &ctrl_idx, faults, &mut detected, &ctl.cancel)?;
    Ok(CoverageReport {
        gates: nl.num_gates(),
        faults_graded: faults.len(),
        total_collapsed: universe.len(),
        total_uncollapsed: universe.total_uncollapsed(),
        detected_random: random.detected_random,
        detected_deterministic: det.detected_deterministic,
        untestable: det.untestable,
        aborted: det.aborted,
        test_cycles: random.test_cycles + det.test_cycles,
        backtracks: det.backtracks,
        random_patterns: random.random_patterns,
        stats: GradeStats::default(),
    })
}

/// Grade a netlist: collapse its fault universe, run both phases, and
/// report measured coverage.
///
/// # Errors
///
/// [`TcovError::Cancelled`] when the run control's token fires.
pub fn grade(
    nl: &Netlist,
    cfg: &TcovConfig,
    ctl: &RunCtl<'_>,
) -> Result<CoverageReport, TcovError> {
    let universe = FaultUniverse::collapsed(nl);
    grade_with_universe(nl, &universe, cfg, ctl)
}

/// Grade a bound design: lower it through ETPN to gates, then
/// [`grade`] the elaborated netlist.
///
/// # Errors
///
/// [`TcovError::Build`] when ETPN construction or elaboration fails;
/// [`TcovError::Cancelled`] when the run control's token fires.
pub fn grade_design(
    dfg: &Dfg,
    schedule: &Schedule,
    allocation: &Allocation,
    bits: u32,
    cfg: &TcovConfig,
    ctl: &RunCtl<'_>,
) -> Result<CoverageReport, TcovError> {
    let nl = build_netlist(dfg, schedule, allocation, bits)?;
    grade(&nl, cfg, ctl)
}

/// Elaborate a synthesized design into the gate-level netlist graded
/// by this engine. Shared by [`grade_design`] and the memo pool's
/// design-level entry so both build bit-identical netlists.
pub(crate) fn build_netlist(
    dfg: &Dfg,
    schedule: &Schedule,
    allocation: &Allocation,
    bits: u32,
) -> Result<Netlist, TcovError> {
    let etpn =
        Etpn::from_parts(dfg, schedule, allocation).map_err(|e| TcovError::Build(e.to_string()))?;
    elaborate(dfg, schedule, allocation, &etpn, bits).map_err(|e| TcovError::Build(e.to_string()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::AtpgConfig;
    use hlts_netlist::GateKind;

    fn small_sequential() -> Netlist {
        // accumulator: r.next = r + a (2 bits), observed
        let mut nl = Netlist::new();
        let a0 = nl.input("a[0]");
        let a1 = nl.input("a[1]");
        let q0 = nl.dff("r[0]");
        let q1 = nl.dff("r[1]");
        let s0 = nl.gate(GateKind::Xor, &[q0, a0]);
        let c0 = nl.gate(GateKind::And, &[q0, a0]);
        let t1 = nl.gate(GateKind::Xor, &[q1, a1]);
        let s1 = nl.gate(GateKind::Xor, &[t1, c0]);
        nl.connect_dff(q0, s0);
        nl.connect_dff(q1, s1);
        nl.output("r[0]", q0);
        nl.output("r[1]", q1);
        nl
    }

    fn run(atpg: AtpgConfig) -> CoverageReport {
        grade(&small_sequential(), &TcovConfig { atpg }, &RunCtl::none()).expect("grades")
    }

    #[test]
    fn two_phase_run_reports_consistent_numbers() {
        let r = run(AtpgConfig {
            random_sequences: 8,
            sequence_cycles: 6,
            ..AtpgConfig::default()
        });
        assert!(r.faults_graded > 0);
        assert!(r.coverage() > 50.0, "coverage {:.1}", r.coverage());
        assert!(r.coverage() <= 100.0);
        assert!(r.efficiency() >= r.coverage());
        assert!(
            r.detected_random + r.detected_deterministic + r.untestable + r.aborted
                <= r.faults_graded + r.aborted
        );
        assert!(r.test_cycles > 0);
        // Golden values: the first 6-cycle sequence detects all 34.
        assert_eq!(
            (r.faults_graded, r.detected_random, r.test_cycles),
            (34, 34, 6)
        );
        assert_eq!(r.random_patterns, 8 * 6 * 64);
    }

    #[test]
    fn deterministic_phase_adds_coverage() {
        // starve the random phase so PODEM has work
        let r = run(AtpgConfig {
            random_sequences: 0,
            ..AtpgConfig::default()
        });
        assert_eq!(r.detected_random, 0);
        assert_eq!(r.detected_deterministic, 34, "PODEM covers all: {r:?}");
        assert_eq!((r.aborted, r.backtracks, r.test_cycles), (0, 0, 18));
    }

    #[test]
    fn runs_are_deterministic_for_a_seed() {
        let cfg = AtpgConfig {
            random_sequences: 4,
            sequence_cycles: 4,
            ..AtpgConfig::default()
        };
        let a = run(cfg.clone());
        let b = run(cfg);
        assert_eq!(a.signature(), b.signature());
        assert_eq!((a.detected_random, a.test_cycles), (34, 4));
    }

    #[test]
    fn sampling_caps_fault_count() {
        let r = run(AtpgConfig {
            fault_sample: Some(5),
            random_sequences: 2,
            sequence_cycles: 4,
            ..AtpgConfig::default()
        });
        assert_eq!(r.faults_graded, 5);
        assert_eq!(r.total_collapsed, 34);
        assert_eq!((r.detected_random, r.test_cycles), (5, 4));
    }
}
