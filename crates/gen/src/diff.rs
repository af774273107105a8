//! Differential conformance harness: run one generated graph through
//! every redundant engine pair and demand bit-identical answers.
//!
//! The repo deliberately keeps several independent implementations of
//! the same contract — a worklist *and* a dense testability solver, a
//! transactional merge loop *and* a clone-based oracle, a threaded
//! *and* an in-thread DSE runner, plus an invariant auditor that re-derives every structure
//! from scratch. Each pair is an executable cross-check: on any input
//! both sides must agree exactly, so a disagreement localizes a bug to
//! one engine without needing a known-good output. [`check_graph`]
//! runs the whole matrix on one `(seed, config)` graph; the checks and
//! what each one proves:
//!
//! | check               | pair                                      |
//! |---------------------|-------------------------------------------|
//! | `structure`         | generator output vs. `Dfg` invariants (validate, ASAP, ETPN lowering) |
//! | `testability-dense` | worklist vs. dense Gauss–Seidel solver, pre- and post-synthesis |
//! | `txn-oracle`        | journaled trial-merge/rollback loop vs. clone-per-trial oracle |
//! | `audit`             | final design vs. the from-scratch invariant auditor |
//! | `dse-front`         | multi-worker vs. serial Pareto sweep over a small grid |
//!
//! On divergence the harness returns a [`Divergence`] whose `Display`
//! prints the `(seed, config)` pair, a one-command repro line, and the
//! offending graph's full text — reproducing a failure never requires
//! the harness itself.

use std::fmt;

use hlts_core::{oracle, DesignState, IntegratedSynthesizer, SynthesisParams};
use hlts_dfg::AsapAlap;
use hlts_dse::{explore, ExploreConfig, SweepSpec};
use hlts_testability::TestabilityAnalysis;

use crate::{generate, GenConfig};

/// One engine-pair disagreement, carrying everything needed to
/// reproduce it outside the harness.
#[derive(Debug)]
pub struct Divergence {
    /// Seed of the offending graph.
    pub seed: u64,
    /// Config label — a preset name, or a description of custom knobs.
    pub config: String,
    /// Which check diverged (see the module table).
    pub check: &'static str,
    /// What disagreed, in one line.
    pub detail: String,
    /// Emitted text of the offending graph (empty only when emission
    /// itself failed).
    pub dfg_text: String,
}

impl fmt::Display for Divergence {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "conformance divergence [{}] at seed {} config {}: {}",
            self.check, self.seed, self.config, self.detail
        )?;
        writeln!(
            f,
            "reproduce: hlts gen --seed {} --preset {} | hlts run -",
            self.seed, self.config
        )?;
        write!(f, "offending graph:\n{}", self.dfg_text)
    }
}

impl std::error::Error for Divergence {}

/// Per-graph conformance accounting, aggregated by the sweep tests to
/// prove the run was not vacuous.
#[derive(Debug, Default, Clone, Copy)]
pub struct ConformanceReport {
    /// Operations in the graph.
    pub ops: usize,
    /// Merges the synthesizer committed (txn side).
    pub merges: usize,
    /// DSE grid points computed per runner.
    pub dse_points: usize,
    /// Engine-pair checks that ran.
    pub checks: usize,
}

/// Run the full engine matrix on the graph generated from
/// `(seed, cfg)`; `config_label` names the config in failure output
/// (pass the preset name so the repro line works verbatim).
///
/// # Errors
///
/// Returns the first [`Divergence`] encountered, boxed (the payload
/// carries the full graph text).
pub fn check_graph(
    seed: u64,
    config_label: &str,
    cfg: &GenConfig,
) -> Result<ConformanceReport, Box<Divergence>> {
    let mut report = ConformanceReport::default();

    let diverge = |check: &'static str, detail: String, text: &str| {
        Box::new(Divergence {
            seed,
            config: config_label.to_owned(),
            check,
            detail,
            dfg_text: text.to_owned(),
        })
    };

    let dfg = match generate(seed, cfg) {
        Ok(d) => d,
        Err(e) => return Err(diverge("structure", format!("generate failed: {e}"), "")),
    };
    report.ops = dfg.num_ops();
    let text = match hlts_dfg::emit(&dfg) {
        Ok(t) => t,
        Err(e) => return Err(diverge("structure", format!("emit failed: {e}"), "")),
    };

    // --- structure: validate, round-trip, ASAP, ETPN lowering -------
    if let Err(e) = dfg.validate() {
        return Err(diverge("structure", format!("validate failed: {e}"), &text));
    }
    match hlts_dfg::parse(&text) {
        Ok(back) if back == dfg => {}
        Ok(_) => {
            return Err(diverge(
                "structure",
                "emit/parse round-trip changed the graph".to_owned(),
                &text,
            ))
        }
        Err(e) => return Err(diverge("structure", format!("re-parse failed: {e}"), &text)),
    }
    if let Err(e) = AsapAlap::compute(&dfg, None) {
        return Err(diverge("structure", format!("ASAP failed: {e}"), &text));
    }
    let initial = match DesignState::initial(&dfg) {
        Ok(s) => s,
        Err(e) => {
            return Err(diverge(
                "structure",
                format!("initial design failed: {e}"),
                &text,
            ))
        }
    };
    let etpn = match initial.lower() {
        Ok(n) => n,
        Err(e) => return Err(diverge("structure", format!("lowering failed: {e}"), &text)),
    };
    report.checks += 1;

    // --- testability-dense: worklist vs. dense, on the initial design
    let worklist = TestabilityAnalysis::analyze(etpn.data_path());
    let dense = TestabilityAnalysis::analyze_dense(etpn.data_path());
    if worklist != dense {
        return Err(diverge(
            "testability-dense",
            "worklist and dense solvers disagree on the initial design".to_owned(),
            &text,
        ));
    }
    report.checks += 1;

    let params = SynthesisParams::paper_defaults(8);
    let sequential = match IntegratedSynthesizer::new(params.clone()).run(&dfg) {
        Ok(r) => r,
        Err(e) => {
            return Err(diverge(
                "txn-oracle",
                format!("synthesis failed: {e}"),
                &text,
            ))
        }
    };
    report.merges = sequential.merge_log.len();

    // --- txn-oracle: journaled rollback loop vs. clone-based oracle -
    let gold = match oracle::synthesize(&dfg, &params) {
        Ok(r) => r,
        Err(e) => return Err(diverge("txn-oracle", format!("oracle failed: {e}"), &text)),
    };
    if sequential != gold {
        return Err(diverge(
            "txn-oracle",
            format!(
                "transactional loop and clone oracle disagree: {} vs {} merges, \
                 metrics {:?} vs {:?}",
                sequential.merge_log.len(),
                gold.merge_log.len(),
                sequential.metrics,
                gold.metrics
            ),
            &text,
        ));
    }
    report.checks += 1;

    // --- audit: re-derive every invariant on the final design -------
    let synthesized = DesignState::from_parts(
        &sequential.dfg,
        sequential.schedule.clone(),
        sequential.allocation.clone(),
    );
    let audit = synthesized.audit();
    if !audit.is_clean() {
        return Err(diverge("audit", format!("auditor flagged: {audit}"), &text));
    }
    // Also re-check the solver pair on the *merged* data path, whose
    // shared modules exercise propagation paths the initial one lacks.
    match synthesized.lower() {
        Ok(merged) => {
            let w = TestabilityAnalysis::analyze(merged.data_path());
            let d = TestabilityAnalysis::analyze_dense(merged.data_path());
            if w != d {
                return Err(diverge(
                    "testability-dense",
                    "worklist and dense solvers disagree on the synthesized design".to_owned(),
                    &text,
                ));
            }
        }
        Err(e) => {
            return Err(diverge(
                "audit",
                format!("synthesized design failed to lower: {e}"),
                &text,
            ))
        }
    }
    report.checks += 1;

    // --- dse-front: threaded vs. serial Pareto sweep ----------------
    let mut spec = SweepSpec::new(vec![(dfg.name().to_owned(), dfg.clone())]);
    spec.ks = vec![1, 3];
    spec.weights = vec![(2.0, 1.0), (1.0, 10.0)];
    let serial = match explore(
        &spec,
        &ExploreConfig {
            jobs: 1,
            ..ExploreConfig::default()
        },
    ) {
        Ok(r) => r,
        Err(e) => {
            return Err(diverge(
                "dse-front",
                format!("serial sweep failed: {e}"),
                &text,
            ))
        }
    };
    let threaded = match explore(
        &spec,
        &ExploreConfig {
            jobs: 3,
            ..ExploreConfig::default()
        },
    ) {
        Ok(r) => r,
        Err(e) => {
            return Err(diverge(
                "dse-front",
                format!("threaded sweep failed: {e}"),
                &text,
            ))
        }
    };
    if !serial.failures.is_empty() || !threaded.failures.is_empty() {
        return Err(diverge(
            "dse-front",
            format!(
                "sweep points failed: serial {}, threaded {}",
                serial.failures.len(),
                threaded.failures.len()
            ),
            &text,
        ));
    }
    if serial.front_signature() != threaded.front_signature() || serial.results != threaded.results
    {
        return Err(diverge(
            "dse-front",
            format!(
                "serial and threaded sweeps disagree: fronts {} vs {}",
                serial.front_signature(),
                threaded.front_signature()
            ),
            &text,
        ));
    }
    report.dse_points = serial.results.len();
    report.checks += 1;

    Ok(report)
}

/// [`check_graph`] over a built-in preset name.
///
/// # Errors
///
/// [`Divergence`] as for [`check_graph`]; an unknown preset is
/// reported as a `structure` divergence.
pub fn check_preset(name: &str, seed: u64) -> Result<ConformanceReport, Box<Divergence>> {
    match crate::preset(name) {
        Some(cfg) => check_graph(seed, name, &cfg),
        None => Err(Box::new(Divergence {
            seed,
            config: name.to_owned(),
            check: "structure",
            detail: format!("unknown preset `{name}`"),
            dfg_text: String::new(),
        })),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The harness itself: a known-good graph passes every check and
    /// the report proves all six ran.
    #[test]
    fn balanced_graph_conforms() {
        let report = check_preset("balanced", 0).expect("seed 0 conforms");
        assert_eq!(report.checks, 5);
        assert!(report.ops > 0);
        assert_eq!(report.dse_points, 4, "2 ks x 2 weight pairs");
    }

    /// Unknown presets produce a divergence that names them.
    #[test]
    fn unknown_preset_is_reported() {
        let err = check_preset("nope", 1).expect_err("unknown preset");
        assert_eq!(err.check, "structure");
        assert!(err.to_string().contains("unknown preset"));
    }

    /// The failure report is a self-contained repro: seed, config,
    /// repro command and graph text all present.
    #[test]
    fn divergence_display_is_a_repro_recipe() {
        let d = Divergence {
            seed: 42,
            config: "balanced".to_owned(),
            check: "txn-oracle",
            detail: "example".to_owned(),
            dfg_text: "dfg balanced_s42 {\n}\n".to_owned(),
        };
        let msg = d.to_string();
        assert!(msg.contains("[txn-oracle] at seed 42 config balanced"));
        assert!(msg.contains("hlts gen --seed 42 --preset balanced | hlts run -"));
        assert!(msg.contains("dfg balanced_s42 {"));
    }
}
