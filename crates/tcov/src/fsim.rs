//! Random-phase fault simulation.
//!
//! The random phase's sequencing is split from its per-fault grading:
//! [`random_sequences`] draws every input sequence up front (the RNG
//! is consumed nowhere else), then each sequence's good-machine trace
//! is recorded once into one reused buffer and the still-undetected
//! faults are graded against it ([`detect_partition`]). The pending
//! set before sequence `s` depends only on sequences `< s`, so the
//! phase's coverage bitmap, per-fault first-detecting sequence and
//! test-cycle count equal those of the serial-fault path
//! (`FaultSimulator::run`, one sequence at a time).

use hlts_atpg::{Fault, FaultScratch, FaultSimulator, GoodTrace, PiAssign};
use hlts_core::CancelToken;
use hlts_netlist::Netlist;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::{AtpgConfig, TcovError};

/// Faults graded between two polls of the cancel token.
const CANCEL_POLL: usize = 32;

/// Indices (into the netlist's primary-input list) of the control
/// inputs, protocol-ordered: the setup state (`ctrl_final`) first,
/// then the step states in elaboration order — one controller walk per
/// one-hot rotation. This order defines the protocol walk of both
/// phases: the random phase's one-hot rotation and the deterministic
/// phase's control presets.
#[must_use]
pub fn control_inputs(nl: &Netlist) -> Vec<usize> {
    let mut ctrl_idx: Vec<usize> = nl
        .inputs()
        .iter()
        .enumerate()
        .filter(|(_, &g)| nl.name(g).is_some_and(|n| n.starts_with("ctrl_")))
        .map(|(i, _)| i)
        .collect();
    if let Some(pos) = ctrl_idx
        .iter()
        .position(|&i| nl.name(nl.inputs()[i]) == Some("ctrl_final"))
    {
        let f = ctrl_idx.remove(pos);
        ctrl_idx.insert(0, f);
    }
    ctrl_idx
}

/// Draw every random-phase input sequence up front from one RNG seeded
/// with `cfg.seed`. The draw order is part of the definition of a
/// grading run: sequence by sequence, cycle by cycle, input by input
/// in netlist order, one `u64` per input except for control inputs of
/// a protocol sequence (the first `protocol_fraction` of the
/// sequences), which take the rotating one-hot and draw nothing.
/// Grading touches the RNG *only* here.
#[must_use]
pub fn random_sequences(nl: &Netlist, cfg: &AtpgConfig, ctrl_idx: &[usize]) -> Vec<Vec<PiAssign>> {
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    (0..cfg.random_sequences)
        .map(|s| {
            let protocol = (s as f64) < cfg.protocol_fraction * cfg.random_sequences as f64;
            (0..cfg.sequence_cycles)
                .map(|cycle| {
                    (0..nl.inputs().len())
                        .map(|i| {
                            if let Some(pos) = ctrl_idx.iter().position(|&c| c == i) {
                                if protocol {
                                    // rotating one-hot over the control states
                                    if cycle % ctrl_idx.len().max(1) == pos {
                                        !0u64
                                    } else {
                                        0
                                    }
                                } else {
                                    rng.gen::<u64>()
                                }
                            } else {
                                rng.gen::<u64>()
                            }
                        })
                        .collect()
                })
                .collect()
        })
        .collect()
}

/// Grade `pending` (indices into `faults`, ascending) against one
/// recorded sequence, returning the ascending indices of the newly
/// detected faults. Cancellation is polled every few dozen faults.
///
/// # Errors
///
/// [`TcovError::Cancelled`] when `cancel` fires mid-partition.
pub fn detect_partition(
    fs: &FaultSimulator,
    scratch: &mut FaultScratch,
    trace: &GoodTrace,
    faults: &[Fault],
    pending: &[usize],
    cancel: &CancelToken,
) -> Result<Vec<usize>, TcovError> {
    let mut hits = Vec::new();
    for (n, &i) in pending.iter().enumerate() {
        if n % CANCEL_POLL == 0 && cancel.is_cancelled() {
            return Err(TcovError::Cancelled);
        }
        if fs.detects(scratch, trace, faults[i]) {
            hits.push(i);
        }
    }
    Ok(hits)
}

/// What the random phase established.
#[derive(Debug, Clone)]
pub struct RandomPhase {
    /// Per-fault detection bitmap.
    pub detected: Vec<bool>,
    /// Per-fault index of the first random sequence that detected it
    /// (the conformance witness against the serial-fault oracle).
    pub first_detect_seq: Vec<Option<usize>>,
    /// Faults the phase detected.
    pub detected_random: usize,
    /// Clock cycles of the kept sequences (those that detected
    /// something).
    pub test_cycles: usize,
    /// Patterns simulated (sequences × cycles × 64).
    pub random_patterns: usize,
}

/// Run the random phase: simulate every sequence's good machine once,
/// grade the pending fault list against it, and keep a sequence's
/// cycles only when it detected something.
///
/// # Errors
///
/// [`TcovError::Cancelled`] when `cancel` fires between or inside
/// sequences.
pub fn run_random_phase(
    fs: &FaultSimulator,
    cfg: &AtpgConfig,
    ctrl_idx: &[usize],
    faults: &[Fault],
    cancel: &CancelToken,
) -> Result<RandomPhase, TcovError> {
    let seqs = random_sequences(fs.netlist(), cfg, ctrl_idx);
    let mut phase = RandomPhase {
        detected: vec![false; faults.len()],
        first_detect_seq: vec![None; faults.len()],
        detected_random: 0,
        test_cycles: 0,
        random_patterns: cfg.random_sequences * cfg.sequence_cycles * 64,
    };
    let mut trace = GoodTrace::default();
    let mut scratch = fs.scratch();
    for (s, seq) in seqs.iter().enumerate() {
        if cancel.is_cancelled() {
            return Err(TcovError::Cancelled);
        }
        let pending: Vec<usize> = (0..faults.len()).filter(|&i| !phase.detected[i]).collect();
        if pending.is_empty() {
            break;
        }
        fs.record(seq, &mut trace);
        let hits = detect_partition(fs, &mut scratch, &trace, faults, &pending, cancel)?;
        if !hits.is_empty() {
            for &i in &hits {
                phase.detected[i] = true;
                phase.first_detect_seq[i] = Some(s);
            }
            phase.detected_random += hits.len();
            phase.test_cycles += cfg.sequence_cycles;
        }
    }
    Ok(phase)
}
