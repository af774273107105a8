//! # hlts-tcov — parallel gate-level fault-coverage grading
//!
//! The measurement layer behind the paper's Tables 1–3: given a bound
//! design (or an already-elaborated netlist), grade it with the
//! two-phase ATPG flow — random 64-pattern sequences, then
//! deterministic PODEM — and report *measured* fault coverage, test
//! cycles and test-generation effort. One entry point:
//!
//! ```text
//! grade(netlist, &TcovConfig, &RunCtl) -> CoverageReport
//! ```
//!
//! This is the repository's only ATPG flow: the paper-table binaries,
//! the CLI, the sweeps and the daemon all grade through it, on top of
//! the `hlts-atpg` primitives (simulator, fault universe, fault
//! simulator, PODEM). A run is defined by its netlist and
//! [`AtpgConfig`]: the control-input order
//! ([`fsim::control_inputs`]), the random-phase draw order
//! ([`fsim::random_sequences`]) and the deterministic phase's control
//! presets are part of that definition, so the tables' numbers are
//! pinned by golden tests rather than by a second implementation.
//!
//! Inside, the expensive per-fault work is **fault-partitioned** across
//! scoped worker threads:
//!
//! * the random phase shards the pending fault list over workers that
//!   share one recorded good-machine trace per sequence
//!   ([`fsim::detect_partition`]);
//! * the deterministic phase hands PODEM targets to workers that
//!   broadcast their validated detections through a shared atomic hint
//!   bitmap, so no thread wastes backtracks on an already-covered
//!   fault (the private `engine` module).
//!
//! **Determinism rule:** everything that reaches the [`CoverageReport`]
//! is decided by a serial merge pass in fault-index order, using
//! worker-recorded outcomes where available and recomputing the (pure,
//! RNG-free) PODEM outcome where a racy hint — or a dead worker — left
//! a gap. Worker scheduling can therefore change wall-clock, never the
//! report: coverage is bit-identical at any `jobs` count, and a killed
//! grading worker degrades to recomputation, not to a wrong answer.
//!
//! Repeated grading of the same netlist (sweep neighbours, daemon
//! re-submissions) is served by [`TcovPool`], a two-tier memo keyed by
//! a structural netlist fingerprint and the ATPG configuration.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

mod engine;
pub mod fsim;
mod memo;

pub use engine::{grade, grade_design, grade_with_universe};
pub use memo::{netlist_fingerprint, TcovPool, TcovStats};

/// The two-phase ATPG parameters of one grading run.
#[derive(Debug, Clone, PartialEq)]
pub struct AtpgConfig {
    /// RNG seed (runs are deterministic for a given seed).
    pub seed: u64,
    /// Number of 64-pattern random sequences to simulate.
    pub random_sequences: usize,
    /// Clock cycles per random sequence.
    pub sequence_cycles: usize,
    /// Fraction of random sequences that drive the control inputs as a
    /// rotating one-hot (the schedule protocol); the rest drive fully
    /// random control — both mixes matter for data paths whose muxes
    /// and enables are schedule-driven.
    pub protocol_fraction: f64,
    /// Time frames for the deterministic (PODEM) phase.
    pub frames: usize,
    /// Backtrack limit per deterministic target.
    pub backtrack_limit: usize,
    /// Cap on deterministic targets (remaining faults stay undetected).
    pub max_deterministic_targets: usize,
    /// Optional fault-sampling cap (standard practice for large fault
    /// lists; coverage is then a sample estimate).
    pub fault_sample: Option<usize>,
}

impl Default for AtpgConfig {
    fn default() -> Self {
        AtpgConfig {
            seed: 0x1998_0223,
            random_sequences: 24,
            sequence_cycles: 12,
            // the controller steps through its states even under a test
            // plan, so random vectors default to the one-hot protocol
            protocol_fraction: 1.0,
            frames: 6,
            backtrack_limit: 100,
            max_deterministic_targets: 200,
            fault_sample: None,
        }
    }
}

/// Configuration of one grading run: the ATPG knobs plus the worker
/// count for the fault-partitioned phases.
#[derive(Debug, Clone, PartialEq)]
pub struct TcovConfig {
    /// The two-phase ATPG parameters (seed, sequences, frames,
    /// backtrack limit, optional fault sampling).
    pub atpg: AtpgConfig,
    /// Worker threads for the fault-partitioned phases. `1` runs the
    /// same algorithm single-threaded; the report is bit-identical for
    /// any value.
    pub jobs: usize,
}

impl Default for TcovConfig {
    fn default() -> Self {
        TcovConfig {
            atpg: AtpgConfig::default(),
            jobs: 1,
        }
    }
}

impl TcovConfig {
    /// The CLI's schedule-derived configuration: sequences long enough
    /// to walk the whole controller twice, frames covering the
    /// schedule plus settle slack, and an optional fault-sample cap
    /// (`None` = exhaustive).
    #[must_use]
    pub fn for_schedule(num_steps: usize, fault_sample: Option<usize>, jobs: usize) -> Self {
        TcovConfig {
            atpg: AtpgConfig {
                sequence_cycles: (num_steps + 1) * 2,
                frames: num_steps + 3,
                fault_sample,
                ..AtpgConfig::default()
            },
            jobs: jobs.max(1),
        }
    }
}

/// Diagnostics of one grading run. These counters depend on worker
/// scheduling (how often the hint bitmap raced ahead of a claim, how
/// much the merge pass had to recompute) and are therefore **excluded**
/// from [`CoverageReport`] equality and from [`CoverageReport::signature`].
#[derive(Debug, Clone, Default)]
pub struct GradeStats {
    /// Workers the fault-partitioned phases actually used.
    pub workers: usize,
    /// PODEM targets a worker skipped because the hint bitmap already
    /// marked their fault detected (racy, diagnostics only).
    pub hint_skips: usize,
    /// PODEM outcomes the merge pass recomputed because no worker
    /// delivered them (hint races, cancellations, killed workers).
    pub recomputed: usize,
}

/// The measured result of grading one netlist — the paper's fault
/// coverage / test-generation effort / test-cycle columns, plus the
/// sampled-vs-total fault accounting.
///
/// Equality (and [`signature`](CoverageReport::signature)) covers only
/// the deterministic fields; [`stats`](CoverageReport::stats) is
/// scheduling-dependent bookkeeping.
#[derive(Debug, Clone)]
pub struct CoverageReport {
    /// Gates in the graded netlist.
    pub gates: usize,
    /// Faults actually graded (the sample size when sampling).
    pub faults_graded: usize,
    /// Collapsed faults of the full netlist, before any sampling.
    /// When `faults_graded < total_collapsed` the coverage percentage
    /// is a sample estimate — report both counts.
    pub total_collapsed: usize,
    /// Faults before equivalence collapsing.
    pub total_uncollapsed: usize,
    /// Faults detected by the random phase.
    pub detected_random: usize,
    /// Faults detected by the deterministic phase.
    pub detected_deterministic: usize,
    /// Faults proven untestable within the frame bound. Only a netlist
    /// without control inputs counts here: with all inputs free, PODEM
    /// exhausting a target is a proof.
    pub untestable: usize,
    /// Deterministic targets left undetected after every preset: those
    /// PODEM gave up on at the backtrack limit or whose test failed
    /// validation, and — on a netlist with control inputs — also those
    /// it proved untestable under every control preset, since the
    /// presets fix inputs a real test may drive otherwise. So a run can
    /// report aborted targets with zero backtracks.
    pub aborted: usize,
    /// Clock cycles of the kept test set.
    pub test_cycles: usize,
    /// PODEM backtracks of the kept (merge-pass) target outcomes.
    pub backtracks: usize,
    /// Random patterns simulated (sequences × cycles × 64).
    pub random_patterns: usize,
    /// Scheduling-dependent diagnostics (not part of equality).
    pub stats: GradeStats,
}

impl PartialEq for CoverageReport {
    fn eq(&self, other: &Self) -> bool {
        self.signature() == other.signature()
    }
}

impl CoverageReport {
    /// Fault coverage in percent over the graded faults.
    #[must_use]
    pub fn coverage(&self) -> f64 {
        if self.faults_graded == 0 {
            return 100.0;
        }
        100.0 * (self.detected_random + self.detected_deterministic) as f64
            / self.faults_graded as f64
    }

    /// Fault efficiency in percent: detected / (graded − untestable).
    #[must_use]
    pub fn efficiency(&self) -> f64 {
        let testable = self.faults_graded.saturating_sub(self.untestable);
        if testable == 0 {
            return 100.0;
        }
        100.0 * (self.detected_random + self.detected_deterministic) as f64 / testable as f64
    }

    /// Normalized test-generation effort: random patterns (in
    /// thousands) plus backtracks — the unit the paper's tables report
    /// as "test generation time".
    #[must_use]
    pub fn effort(&self) -> f64 {
        self.random_patterns as f64 / 1000.0 + self.backtracks as f64
    }

    /// The canonical bit-identity witness: every deterministic field,
    /// with floats in shortest-round-trip (`{:?}`) form. Two runs of
    /// the same (netlist, config) must produce equal signatures at any
    /// `jobs` count — the bench gate and the conformance tests compare
    /// exactly this string.
    #[must_use]
    pub fn signature(&self) -> String {
        format!(
            "gates={} graded={} collapsed={} uncollapsed={} rand={} det={} untest={} \
             abort={} cycles={} backtracks={} patterns={} cov={:?} eff={:?}",
            self.gates,
            self.faults_graded,
            self.total_collapsed,
            self.total_uncollapsed,
            self.detected_random,
            self.detected_deterministic,
            self.untestable,
            self.aborted,
            self.test_cycles,
            self.backtracks,
            self.random_patterns,
            self.coverage(),
            self.efficiency(),
        )
    }
}

/// Grading failures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TcovError {
    /// The design could not be lowered to gates (ETPN build or
    /// elaboration failed); carries the rendered cause.
    Build(String),
    /// The run's cancel token fired; the partial grading state was
    /// discarded.
    Cancelled,
}

impl std::fmt::Display for TcovError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TcovError::Build(msg) => write!(f, "coverage grading failed: {msg}"),
            TcovError::Cancelled => write!(f, "coverage grading cancelled"),
        }
    }
}

impl std::error::Error for TcovError {}
