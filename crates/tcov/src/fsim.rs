//! Fault-partitioned random-phase fault simulation.
//!
//! The random phase's sequencing is split from its per-fault grading:
//! [`random_sequences`] draws every input sequence up front (the RNG
//! is consumed nowhere else), then each sequence's good-machine trace
//! is recorded once and the pending fault list is sharded over scoped
//! workers that share the immutable simulator ([`detect_partition`]).
//! The detected *set* per sequence is independent of the sharding, and
//! the pending set before sequence `s` depends only on sequences
//! `< s` — so the phase's coverage bitmap, per-fault first-detecting
//! sequence and test-cycle count are bit-identical to the serial-fault
//! path (`FaultSimulator::run`, one sequence at a time) at any worker
//! count.

use hlts_atpg::{Fault, FaultSimulator, GoodTrace, PiAssign};
use hlts_core::CancelToken;
use hlts_netlist::Netlist;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::{AtpgConfig, TcovError};

/// Faults graded per work-unit claim (amortizes the claim atomics
/// without starving load balance).
const CHUNK: usize = 32;

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
/// Grading touches the RNG *only* here, which is what lets the
/// per-fault grading underneath parallelize freely.
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

/// Workers the fault-partitioned loops actually use: never more than
/// the pending work, never less than one.
#[cfg(feature = "parallel")]
pub(crate) fn effective_workers(jobs: usize, pending: usize) -> usize {
    jobs.clamp(1, pending.max(1))
}

#[cfg(not(feature = "parallel"))]
pub(crate) fn effective_workers(_jobs: usize, _pending: usize) -> usize {
    1
}

/// Grade `pending` (indices into `faults`) against one recorded
/// sequence, sharded over `jobs` workers, returning the **sorted**
/// indices of the newly detected faults. The result is a pure set —
/// identical for any worker count, including the single-threaded
/// fallback. Cancellation is polled per work-unit claim.
///
/// # Errors
///
/// [`TcovError::Cancelled`] when `cancel` fires mid-partition.
pub fn detect_partition(
    fs: &FaultSimulator,
    trace: &GoodTrace,
    seq: &[PiAssign],
    faults: &[Fault],
    pending: &[usize],
    jobs: usize,
    cancel: &CancelToken,
) -> Result<Vec<usize>, TcovError> {
    let workers = effective_workers(jobs, pending.len() / CHUNK);
    if workers <= 1 {
        let mut hits = Vec::new();
        for (n, &i) in pending.iter().enumerate() {
            if n % CHUNK == 0 && cancel.is_cancelled() {
                return Err(TcovError::Cancelled);
            }
            if fs.detects(trace, seq, faults[i]) {
                hits.push(i);
            }
        }
        return Ok(hits);
    }
    #[cfg(feature = "parallel")]
    {
        parallel::detect(fs, trace, seq, faults, pending, workers, cancel)
    }
    #[cfg(not(feature = "parallel"))]
    unreachable!("effective_workers returns 1 without the parallel feature")
}

#[cfg(feature = "parallel")]
mod parallel {
    use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

    use hlts_atpg::{Fault, FaultSimulator, GoodTrace, PiAssign};
    use hlts_check::faults::{fire, sites};
    use hlts_core::CancelToken;

    use super::CHUNK;
    use crate::TcovError;

    pub(super) fn detect(
        fs: &FaultSimulator,
        trace: &GoodTrace,
        seq: &[PiAssign],
        faults: &[Fault],
        pending: &[usize],
        workers: usize,
        cancel: &CancelToken,
    ) -> Result<Vec<usize>, TcovError> {
        let chunks = pending.len().div_ceil(CHUNK);
        let cursor = AtomicUsize::new(0);
        let stop = AtomicBool::new(false);
        let mut hits: Vec<usize> = Vec::new();
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..workers)
                .map(|_| {
                    scope.spawn(|| {
                        let mut local = Vec::new();
                        loop {
                            if stop.load(Ordering::Relaxed) {
                                break;
                            }
                            // A killed worker exits *before* claiming, so
                            // its would-be chunks stay claimable by the
                            // survivors (or by the fallback loop below).
                            if fire(sites::TCOV_WORKER_KILL) {
                                break;
                            }
                            if cancel.is_cancelled() {
                                stop.store(true, Ordering::Relaxed);
                                break;
                            }
                            let c = cursor.fetch_add(1, Ordering::Relaxed);
                            if c >= chunks {
                                break;
                            }
                            let lo = c * CHUNK;
                            let hi = (lo + CHUNK).min(pending.len());
                            for &i in &pending[lo..hi] {
                                if fs.detects(trace, seq, faults[i]) {
                                    local.push(i);
                                }
                            }
                        }
                        local
                    })
                })
                .collect();
            for h in handles {
                if let Ok(local) = h.join() {
                    hits.extend(local);
                }
            }
        });
        if cancel.is_cancelled() {
            return Err(TcovError::Cancelled);
        }
        // Completeness fallback: chunks no surviving worker ever
        // claimed (every worker died early) are graded inline — a
        // degraded schedule, never a degraded answer.
        let claimed = cursor.load(Ordering::Relaxed).min(chunks);
        for c in claimed..chunks {
            let lo = c * CHUNK;
            let hi = (lo + CHUNK).min(pending.len());
            for &i in &pending[lo..hi] {
                if fs.detects(trace, seq, faults[i]) {
                    hits.push(i);
                }
            }
        }
        hits.sort_unstable();
        Ok(hits)
    }
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
/// shard the pending fault list per sequence, and keep a sequence's
/// cycles only when it detected something — bit-identically at any
/// `jobs` count.
///
/// # Errors
///
/// [`TcovError::Cancelled`] when `cancel` fires between or inside
/// sequences.
pub fn run_random_phase(
    fs: &mut FaultSimulator,
    cfg: &AtpgConfig,
    ctrl_idx: &[usize],
    faults: &[Fault],
    jobs: usize,
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
    for (s, seq) in seqs.iter().enumerate() {
        if cancel.is_cancelled() {
            return Err(TcovError::Cancelled);
        }
        let pending: Vec<usize> = (0..faults.len())
            .filter(|&i| !phase.detected[i])
            .collect();
        if pending.is_empty() {
            break;
        }
        let trace = fs.good_trace(seq);
        let hits = detect_partition(fs, &trace, seq, faults, &pending, jobs, cancel)?;
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
