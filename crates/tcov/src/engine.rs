//! The grading engine: random phase, fault-partitioned parallel PODEM
//! with cross-thread fault dropping, and the deterministic merge pass.
//!
//! ## Determinism rule (drop broadcast)
//!
//! Workers claim PODEM targets from a shared counter and broadcast
//! every validated detection through an atomic hint bitmap, so no
//! thread spends backtracks on a fault another thread already covered.
//! The hints are *racy by design* — which worker's test reaches the
//! bitmap first depends on scheduling. The reported coverage does not:
//! a serial **merge pass** walks the fixed target list in fault-index
//! order, keeps a target's test only if its fault is still undetected
//! *at that point of the walk*, and — where a worker skipped a target
//! on a hint (or died before delivering) — recomputes the outcome with
//! the same pure, RNG-free `podem_target` function a worker would have
//! run. Every kept test is then fault-simulated over the pending list,
//! so the detected set, test cycles and backtrack totals are functions
//! of (netlist, config) alone.

use hlts_alloc::Allocation;
use hlts_atpg::{Fault, FaultSimulator, FaultUniverse, PiAssign, Podem, PodemOutcome};
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
/// cross-target state — so a worker's recorded outcome and the merge
/// pass's recomputation are interchangeable.
#[derive(Debug, Clone)]
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
/// backtracks the attempt consumed. `podem` and `fs` are reusable
/// scratch machines — only `Podem::backtracks_used` mutates, and the
/// per-call delta is instance-independent.
fn podem_target(
    podem: &mut Podem,
    fs: &mut FaultSimulator,
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
                if fs.detects(&trace, &seq, fault) {
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
struct DetPhase {
    detected_deterministic: usize,
    untestable: usize,
    aborted: usize,
    test_cycles: usize,
    backtracks: usize,
    hint_skips: usize,
    recomputed: usize,
}

/// Worker-recorded outcomes, one optional slot per target. Slot `t` is
/// written at most once (targets are claimed exclusively); a `None`
/// means no worker delivered it — hint skip, cancellation, or death —
/// and the merge pass recomputes.
type Slots = Vec<std::sync::Mutex<Option<TargetOutcome>>>;

fn lock_recover<T>(m: &std::sync::Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

#[cfg(feature = "parallel")]
mod workers {
    use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

    use hlts_atpg::{Fault, FaultSimulator, Podem};
    use hlts_check::faults::{fire, sites};
    use hlts_core::CancelToken;
    use hlts_netlist::Netlist;

    use super::{podem_target, Preset, Slots, TargetOutcome};

    /// Run the claim-loop workers over the fixed target list, filling
    /// `slots` and broadcasting validated detections through `hints`.
    /// Returns the total (racy, diagnostics-only) hint-skip count.
    #[allow(clippy::too_many_arguments)]
    pub(super) fn run(
        nl: &Netlist,
        frames: usize,
        backtrack_limit: usize,
        presets: &[Preset],
        faults: &[Fault],
        base_detected: &[bool],
        targets: &[usize],
        slots: &Slots,
        hints: &[AtomicBool],
        workers: usize,
        cancel: &CancelToken,
    ) -> usize {
        let cursor = AtomicUsize::new(0);
        let mut hint_skips = 0usize;
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..workers)
                .map(|_| {
                    scope.spawn(|| {
                        let mut podem = Podem::new(nl.clone(), frames, backtrack_limit);
                        let mut fs = FaultSimulator::new(nl.clone());
                        let mut skips = 0usize;
                        loop {
                            // Death before the next claim: nothing this
                            // worker holds is lost, survivors (or the
                            // merge pass) cover the rest.
                            if fire(sites::TCOV_WORKER_KILL) {
                                break;
                            }
                            if cancel.is_cancelled() {
                                break;
                            }
                            let t = cursor.fetch_add(1, Ordering::Relaxed);
                            if t >= targets.len() {
                                break;
                            }
                            let fi = targets[t];
                            if hints[fi].load(Ordering::Relaxed) {
                                // Another worker's test already covers
                                // this fault; leave the slot empty — the
                                // merge pass recomputes iff it still
                                // needs the outcome.
                                skips += 1;
                                continue;
                            }
                            let outcome = podem_target(&mut podem, &mut fs, presets, faults[fi]);
                            if let TargetOutcome::Found { test, .. } = &outcome {
                                // Drop broadcast: fault-simulate the new
                                // test over every not-yet-covered fault
                                // and publish the detections.
                                let trace = fs.good_trace(test);
                                for (i, &f) in faults.iter().enumerate() {
                                    if base_detected[i] || hints[i].load(Ordering::Relaxed) {
                                        continue;
                                    }
                                    if fs.detects(&trace, test, f) {
                                        hints[i].store(true, Ordering::Relaxed);
                                    }
                                }
                            }
                            *super::lock_recover(&slots[t]) = Some(outcome);
                        }
                        skips
                    })
                })
                .collect();
            for h in handles {
                if let Ok(skips) = h.join() {
                    hint_skips += skips;
                }
            }
        });
        hint_skips
    }
}

/// The deterministic phase: fixed target list, parallel workers with
/// drop broadcast, serial merge pass.
#[allow(clippy::too_many_arguments)]
fn deterministic_phase(
    nl: &Netlist,
    fs: &mut FaultSimulator,
    cfg: &TcovConfig,
    ctrl_idx: &[usize],
    faults: &[Fault],
    detected: &mut [bool],
    cancel: &CancelToken,
) -> Result<DetPhase, TcovError> {
    let mut phase = DetPhase {
        detected_deterministic: 0,
        untestable: 0,
        aborted: 0,
        test_cycles: 0,
        backtracks: 0,
        hint_skips: 0,
        recomputed: 0,
    };
    // The fixed target list: the first `max_deterministic_targets`
    // still-undetected faults, in fault-index order. Snapshotting it
    // *before* any deterministic test runs is what makes the list — and
    // everything derived from it — independent of worker scheduling.
    let targets: Vec<usize> = (0..faults.len())
        .filter(|&i| !detected[i])
        .take(cfg.atpg.max_deterministic_targets)
        .collect();
    if targets.is_empty() {
        return Ok(phase);
    }
    let presets = control_presets(nl, ctrl_idx, cfg.atpg.frames.max(1));
    let slots: Slots = (0..targets.len())
        .map(|_| std::sync::Mutex::new(None))
        .collect();

    let workers = fsim::effective_workers(cfg.jobs, targets.len());
    #[cfg(feature = "parallel")]
    if workers > 1 {
        let hints: Vec<std::sync::atomic::AtomicBool> = (0..faults.len())
            .map(|_| std::sync::atomic::AtomicBool::new(false))
            .collect();
        phase.hint_skips = workers::run(
            nl,
            cfg.atpg.frames,
            cfg.atpg.backtrack_limit,
            &presets,
            faults,
            detected,
            &targets,
            &slots,
            &hints,
            workers,
            cancel,
        );
        if cancel.is_cancelled() {
            return Err(TcovError::Cancelled);
        }
    }
    let _ = workers;

    // Merge pass: serial, fault-index order, recomputing what no
    // worker delivered. Everything the report sees flows through here.
    let mut merge_podem: Option<Podem> = None;
    for (t, &fi) in targets.iter().enumerate() {
        if detected[fi] {
            continue; // dropped by an earlier *kept* test
        }
        if cancel.is_cancelled() {
            return Err(TcovError::Cancelled);
        }
        let outcome = match lock_recover(&slots[t]).take() {
            Some(outcome) => outcome,
            None => {
                phase.recomputed += 1;
                let podem = merge_podem.get_or_insert_with(|| {
                    Podem::new(nl.clone(), cfg.atpg.frames, cfg.atpg.backtrack_limit)
                });
                podem_target(podem, fs, &presets, faults[fi])
            }
        };
        phase.backtracks += outcome.backtracks();
        match outcome {
            TargetOutcome::Found { test, .. } => {
                let pending: Vec<usize> = (0..faults.len()).filter(|&i| !detected[i]).collect();
                let trace = fs.good_trace(&test);
                let hits =
                    fsim::detect_partition(fs, &trace, &test, faults, &pending, cfg.jobs, cancel)?;
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
    let mut fs = FaultSimulator::new(nl.clone());
    let random = fsim::run_random_phase(
        &mut fs,
        &cfg.atpg,
        &ctrl_idx,
        faults,
        cfg.jobs,
        &ctl.cancel,
    )?;
    let mut detected = random.detected;
    let det = deterministic_phase(
        nl,
        &mut fs,
        cfg,
        &ctrl_idx,
        faults,
        &mut detected,
        &ctl.cancel,
    )?;
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
        stats: GradeStats {
            workers: fsim::effective_workers(cfg.jobs, faults.len()),
            hint_skips: det.hint_skips,
            recomputed: det.recomputed,
        },
    })
}

/// Grade a netlist: collapse its fault universe, run both phases, and
/// report measured coverage. Bit-identical at any `cfg.jobs`.
///
/// # Errors
///
/// [`TcovError::Cancelled`] when the run control's token fires.
pub fn grade(nl: &Netlist, cfg: &TcovConfig, ctl: &RunCtl<'_>) -> Result<CoverageReport, TcovError> {
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
    let etpn = Etpn::from_parts(dfg, schedule, allocation)
        .map_err(|e| TcovError::Build(e.to_string()))?;
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
        grade(
            &small_sequential(),
            &TcovConfig { atpg, jobs: 1 },
            &RunCtl::none(),
        )
        .expect("grades")
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
