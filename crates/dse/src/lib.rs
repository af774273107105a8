//! # hlts-dse — parallel Pareto design-space exploration
//!
//! The paper's experiments are sweeps over its user knobs — the
//! testability shortlist size `k` and the ΔE/ΔH weights α/β — on a
//! handful of benchmark behaviors. This crate turns that from a
//! hand-rolled double loop into a batch subsystem:
//!
//! * [`SweepSpec`] — a deterministic grid (benches × flows × k ×
//!   weights × bits, plus an explicit point list) with stable point
//!   IDs;
//! * [`explore`] — a worker pool that synthesizes the points, sharing
//!   each behavior's (E, H) cache across points by
//!   forking one base [`DesignState`](hlts_core::DesignState) per
//!   behavior;
//! * [`ParetoArchive`] — an incremental dominance-checked front over
//!   (E, H, avg C, avg O, C→O depth), merged in point-ID order so the
//!   result is **bit-identical for any worker count**;
//! * [`journal`] — a plain-text checkpoint of completed points, so an
//!   interrupted sweep resumes without recomputing anything
//!   ([`load_journal`] + [`ExploreConfig::resume`]);
//! * [`ExploreStats`] — point accounting, timing, the points'
//!   testability analyses and the shared caches' hit counters.
//!
//! # Example
//!
//! ```
//! use hlts_dse::{explore, ExploreConfig, SweepSpec};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let dfg = hlts_dfg::parse(
//!     "dfg t { input a, b, c;
//!        N1: p = a * b; N2: q = b * c; N3: r = p - q; N4: s = p + c;
//!        output r, s; }",
//! )?;
//! let mut spec = SweepSpec::new(vec![("t".into(), dfg)]);
//! spec.ks = vec![1, 3];
//! spec.weights = vec![(2.0, 1.0), (1.0, 10.0)];
//! let outcome = explore(&spec, &ExploreConfig { jobs: 2, ..Default::default() })?;
//! assert_eq!(outcome.results.len(), 4);
//! assert!(!outcome.front.is_empty());
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod journal;
mod pareto;
mod runner;
mod spec;

pub use journal::JournalScan;
pub use pareto::{Objectives, ParetoArchive, PointResult, TestObjectives};
pub use runner::{
    explore, explore_ctl, load_journal, select_seed, ExploreConfig, ExploreOutcome, ExploreStats,
    PointFailure,
};
pub use spec::{Flow, PointParams, SweepPoint, SweepSpec, TcovSweep, TRACE_SCHEMA};

use hlts_core::CoreError;

/// Errors of the exploration subsystem.
#[derive(Debug)]
pub enum DseError {
    /// A point's synthesis failed.
    Core(CoreError),
    /// The sweep specification is invalid.
    Spec(String),
    /// A checkpoint journal could not be read, parsed or written.
    Journal(String),
    /// A worker thread died (panic or injected kill) while holding a
    /// point; the point is lost but the sweep continues.
    Worker(String),
    /// Coverage grading of a completed point failed (the design could
    /// not be elaborated to gates); the point is reported failed, the
    /// sweep continues.
    Coverage(String),
}

impl std::fmt::Display for DseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DseError::Core(e) => write!(f, "synthesis failed: {e}"),
            DseError::Spec(m) => write!(f, "invalid sweep: {m}"),
            DseError::Journal(m) => write!(f, "journal: {m}"),
            DseError::Worker(m) => write!(f, "worker: {m}"),
            DseError::Coverage(m) => write!(f, "coverage: {m}"),
        }
    }
}

impl std::error::Error for DseError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            DseError::Core(e) => Some(e),
            _ => None,
        }
    }
}

impl From<CoreError> for DseError {
    fn from(e: CoreError) -> Self {
        DseError::Core(e)
    }
}

impl ExploreOutcome {
    /// A canonical one-line encoding of the front — point IDs plus the
    /// full objective vectors in shortest round-trip float format.
    /// Equal strings ⇔ bit-identical fronts, which is how the
    /// determinism tests and the `dse` bench gate compare runs.
    #[must_use]
    pub fn front_signature(&self) -> String {
        self.front
            .iter()
            .map(|r| {
                let o = &r.objectives;
                let test = o
                    .test
                    .map(|t| format!(",cov={:?},tcyc={}", t.coverage, t.test_cycles))
                    .unwrap_or_default();
                format!(
                    "{}:E={},H={:?},avgC={:?},avgO={:?},depth={:?}{test}",
                    r.id,
                    o.execution_time,
                    o.hardware,
                    o.avg_controllability,
                    o.avg_observability,
                    o.co_depth
                )
            })
            .collect::<Vec<_>>()
            .join(";")
    }

    /// Render the sweep as a table (one row per point, front rows
    /// starred) followed by the Pareto front and the cache/timing
    /// summary — the `hlts explore` report.
    #[must_use]
    pub fn render(&self) -> String {
        let graded = self.results.iter().any(|r| r.objectives.test.is_some());
        let mut out = String::new();
        out.push_str(&format!(
            "{:>4} {:>8} {:>10} {:>3} {:>7} {:>7} {:>4}   {:>3} {:>4} {:>4} {:>4} {:>8} \
             {:>6} {:>6} {:>7}{}{:>7}  {}\n",
            "id",
            "bench",
            "flow",
            "k",
            "alpha",
            "beta",
            "bits",
            "E",
            "mod",
            "reg",
            "mux",
            "H",
            "avgC",
            "avgO",
            "depth",
            if graded {
                format!(" {:>7} {:>6}", "cov%", "tcyc")
            } else {
                String::new()
            },
            "ms",
            "front"
        ));
        for r in &self.results {
            let starred = self.front.iter().any(|f| f.id == r.id);
            let test = match (graded, r.objectives.test) {
                (true, Some(t)) => format!(" {:>7.2} {:>6}", t.coverage, t.test_cycles),
                (true, None) => format!(" {:>7} {:>6}", "-", "-"),
                (false, _) => String::new(),
            };
            out.push_str(&format!(
                "{:>4} {:>8} {:>10} {:>3} {:>7.2} {:>7.2} {:>4}   {:>3} {:>4} {:>4} {:>4} {:>8.3} \
                 {:>6.2} {:>6.2} {:>7.1}{test}{:>7}  {}\n",
                r.id,
                r.params.bench,
                r.params.flow,
                r.params.k,
                r.params.alpha,
                r.params.beta,
                r.params.bits,
                r.objectives.execution_time,
                r.modules,
                r.registers,
                r.muxes,
                r.objectives.hardware,
                r.objectives.avg_controllability,
                r.objectives.avg_observability,
                r.objectives.co_depth,
                if r.resumed {
                    "-".into()
                } else {
                    r.millis.to_string()
                },
                if starred { "*" } else { "" },
            ));
        }
        out.push_str(&format!(
            "\nPareto front ({} of {} points):\n",
            self.front.len(),
            self.results.len()
        ));
        for r in &self.front {
            let test = r
                .objectives
                .test
                .map(|t| {
                    format!(
                        ", coverage = {:.2}%, test cycles = {}",
                        t.coverage, t.test_cycles
                    )
                })
                .unwrap_or_default();
            out.push_str(&format!(
                "  #{:<3} {} -> E = {}, H = {:.3}, avg C = {:.2}, avg O = {:.2}, \
                 C->O depth = {:.1}{test}\n",
                r.id,
                r.params.key(),
                r.objectives.execution_time,
                r.objectives.hardware,
                r.objectives.avg_controllability,
                r.objectives.avg_observability,
                r.objectives.co_depth,
            ));
        }
        if !self.failures.is_empty() {
            out.push_str(&format!("\nfailed points ({}):\n", self.failures.len()));
            for f in &self.failures {
                out.push_str(&format!("  #{:<3} {}\n", f.id, f.message));
            }
        }
        let s = &self.stats;
        out.push_str(&format!(
            "\nexplored {} points ({} computed, {} resumed) on {} worker(s) in {} ms \
             (sum of point times {} ms)\n",
            s.points_total,
            s.points_computed,
            s.points_resumed,
            s.workers,
            s.wall_millis,
            s.compute_millis,
        ));
        // Present only on warm-start sweeps, so cold output stays
        // byte-identical to every earlier version.
        if self.results.iter().any(|r| r.replay.is_some()) {
            out.push_str(&format!(
                "warm start: {} merge(s) replayed from neighbour traces, {} recomputed\n",
                s.merges_replayed, s.merges_recomputed,
            ));
        }
        if s.points_failed > 0 || s.journal_malformed > 0 || s.journal_torn_tail > 0 {
            out.push_str(&format!(
                "degraded: {} point(s) failed, {} malformed journal line(s) skipped on \
                 resume, {} torn final line(s) dropped\n",
                s.points_failed, s.journal_malformed, s.journal_torn_tail,
            ));
        }
        if s.points_cancelled > 0 {
            out.push_str(&format!(
                "degraded: cancelled — {} point(s) abandoned; every finished point is \
                 journaled, so --resume continues exactly here\n",
                s.points_cancelled,
            ));
        }
        out.push_str(&format!(
            "testability: {} analyses; \
             (E,H) cache: {} hits / {} misses; txn: {} trials, {} undo ops\n",
            s.testability.misses,
            s.eval.state_hits,
            s.eval.state_misses,
            s.txn.begun,
            s.txn.ops_recorded,
        ));
        out
    }
}

/// Quote and escape a string for JSON: the escaping routine of the
/// writer in `hlts_jobs::json`. It stays here only while the benchmark
/// under `perf/` names it, then moves into that module.
#[must_use]
pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_string_escapes() {
        assert_eq!(json_string("plain"), "\"plain\"");
        assert_eq!(json_string("a\"b\\c\n"), "\"a\\\"b\\\\c\\n\"");
        assert_eq!(json_string("\u{1}"), "\"\\u0001\"");
    }
}
