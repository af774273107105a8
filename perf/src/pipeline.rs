//! One design through the layers, one public call at a time: the
//! `hlts run --atpg` pipeline taken apart so each layer can be timed
//! from outside, and the per-layer profile built from such runs.
//!
//! The calls are exactly those `hlts_jobs::execute` makes for a run job
//! without a warm pool, so the outputs are bit-identical to it (the
//! run-atpg workload checks this on every traced job). The random phase
//! is timed as a grading whose deterministic phase is capped at zero
//! targets; the deterministic phase is the full grading minus that.
//! A design without a fault sample stops after fault collapsing, as a
//! synthesis-only sweep point never reaches grading.

use std::time::Instant;

use hlts_atpg::FaultUniverse;
use hlts_core::{
    CancelToken, DeltaEvaluator, DesignState, EvalMode, EvalStats, IntegratedSynthesizer, RunCtl,
    SynthesisParams, SynthesisResult,
};
use hlts_etpn::Etpn;
use hlts_tcov::{grade_with_universe, CoverageReport, TcovConfig};

use crate::corpus::{self, Source};
use crate::report::{metric, ratio, Metric};
use crate::stats::percentile;
use crate::trace::{Events, SpanId, Tracer};

/// One synthesis-and-grading request.
#[derive(Debug, Clone)]
pub struct Design {
    pub source: Source,
    pub params: SynthesisParams,
    pub mode: EvalMode,
    /// `Some(n)`: grade an `n`-fault sample; `None`: do not grade.
    pub fault_sample: Option<usize>,
    pub tcov_jobs: usize,
}

/// What one pipeline run produced and how long each layer took.
pub struct Sample {
    pub parse_s: f64,
    pub initial_s: f64,
    pub synth_s: f64,
    pub elaborate_s: f64,
    pub collapse_s: f64,
    pub random_s: f64,
    pub grade_s: f64,
    pub iteration_gaps_ms: Vec<f64>,
    pub iterations: usize,
    pub result: SynthesisResult,
    pub eval: EvalStats,
    pub gates: usize,
    pub collapsed: usize,
    pub det_targets: usize,
    pub report: Option<CoverageReport>,
}

fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

/// Run `design` through every layer, recording a span per call under
/// `parent`.
pub fn run(design: &Design, tracer: &Tracer, parent: SpanId, job: u64) -> Result<Sample, String> {
    let (dfg, parse_s) = tracer.time("dfg.parse", parent, job, || corpus::parse(&design.source));
    let dfg = dfg?;
    let (base, initial_s) = tracer.time("core.initial", parent, job, || DesignState::initial(&dfg));
    let base = base.map_err(err)?;
    let events = Events::new(true);
    let evaluator = DeltaEvaluator::new();
    let ctl = RunCtl {
        cancel: CancelToken::new(),
        progress: &events,
    };
    let (result, synth_s) = tracer.time("core.synth", parent, job, || {
        IntegratedSynthesizer::new(design.params.clone()).run_on_ctl(
            &base,
            design.mode,
            &evaluator,
            &ctl,
        )
    });
    let result = result.map_err(err)?;
    let (nl, elaborate_s) = tracer.time("netlist.elaborate", parent, job, || {
        let etpn =
            Etpn::from_parts(&result.dfg, &result.schedule, &result.allocation).map_err(err)?;
        hlts_netlist::elaborate(
            &result.dfg,
            &result.schedule,
            &result.allocation,
            &etpn,
            design.params.bits,
        )
        .map_err(err)
    });
    let nl = nl?;
    let (universe, collapse_s) = tracer.time("atpg.collapse", parent, job, || {
        FaultUniverse::collapsed(&nl)
    });
    let mut sample = Sample {
        parse_s,
        initial_s,
        synth_s,
        elaborate_s,
        collapse_s,
        random_s: 0.0,
        grade_s: 0.0,
        iteration_gaps_ms: events.iteration_gaps_ms(),
        iterations: events.iterations(),
        eval: evaluator.stats(),
        gates: nl.num_gates(),
        collapsed: universe.len(),
        det_targets: 0,
        result,
        report: None,
    };
    let Some(fault_sample) = design.fault_sample else {
        return Ok(sample);
    };
    let cfg = TcovConfig::for_schedule(
        sample.result.schedule.num_steps(),
        Some(fault_sample),
        design.tcov_jobs,
    );
    let mut random_only = cfg.clone();
    random_only.atpg.max_deterministic_targets = 0;
    let none = RunCtl::none();
    let (random, random_s) = tracer.time("tcov.random", parent, job, || {
        grade_with_universe(&nl, &universe, &random_only, &none)
    });
    let random = random.map_err(err)?;
    let (report, grade_s) = tracer.time("tcov.grade", parent, job, || {
        grade_with_universe(&nl, &universe, &cfg, &none)
    });
    let report = report.map_err(err)?;
    if random.detected_random != report.detected_random {
        return Err(format!(
            "random phase alone detected {} faults, inside the grading {}",
            random.detected_random, report.detected_random
        ));
    }
    sample.random_s = random_s;
    sample.grade_s = grade_s;
    sample.det_targets =
        (report.faults_graded - report.detected_random).min(cfg.atpg.max_deterministic_targets);
    sample.report = Some(report);
    Ok(sample)
}

/// Per-layer totals over many pipeline runs.
#[derive(Debug, Default)]
pub struct Profile {
    runs: usize,
    parse_s: f64,
    initial_s: f64,
    synth_s: f64,
    elaborate_s: f64,
    collapse_s: f64,
    random_s: f64,
    det_s: f64,
    iteration_gaps_ms: Vec<f64>,
    iterations: usize,
    txn_begun: u64,
    txn_committed: u64,
    testability_hits: u64,
    testability_misses: u64,
    testability_updates: u64,
    eval_hits: u64,
    eval_misses: u64,
    cp_hits: u64,
    cp_misses: u64,
    gates: usize,
    collapsed: usize,
    graded: usize,
    detected_random: usize,
    det_targets: usize,
    detected_det: usize,
    aborted: usize,
    backtracks: usize,
}

impl Profile {
    pub fn add(&mut self, s: &Sample) {
        self.runs += 1;
        self.parse_s += s.parse_s;
        self.initial_s += s.initial_s;
        self.synth_s += s.synth_s;
        self.elaborate_s += s.elaborate_s;
        self.collapse_s += s.collapse_s;
        self.random_s += s.random_s;
        self.det_s += (s.grade_s - s.random_s).max(0.0);
        self.iteration_gaps_ms.extend(&s.iteration_gaps_ms);
        self.iterations += s.iterations;
        let (t, x) = (&s.result.testability_stats, &s.result.txn_stats);
        self.txn_begun += x.begun;
        self.txn_committed += x.committed;
        self.testability_hits += t.hits;
        self.testability_misses += t.misses;
        self.testability_updates += t.updates_propagated;
        self.eval_hits += s.eval.state_hits;
        self.eval_misses += s.eval.state_misses;
        self.cp_hits += s.eval.critical_path.hits;
        self.cp_misses += s.eval.critical_path.misses;
        self.gates += s.gates;
        self.collapsed += s.collapsed;
        let Some(r) = &s.report else { return };
        self.graded += r.faults_graded;
        self.detected_random += r.detected_random;
        self.det_targets += s.det_targets;
        self.detected_det += r.detected_deterministic;
        self.aborted += r.aborted;
        self.backtracks += r.backtracks;
    }

    /// The per-layer metrics of these runs: mean time per call, each
    /// layer's share of the pipeline, and the layers' own counters.
    pub fn metrics(&self) -> Vec<Metric> {
        let n = self.runs as f64;
        let per = |total: f64| ratio(total, n);
        let ms = |secs: f64| per(secs) * 1000.0;
        let total = self.parse_s
            + self.initial_s
            + self.synth_s
            + self.elaborate_s
            + self.collapse_s
            + self.random_s
            + self.det_s;
        let f = |v: u64| v as f64;
        let u = |v: usize| v as f64;
        vec![
            metric("dfg.parse.ms", ms(self.parse_s), "ms"),
            metric("core.initial.ms", ms(self.initial_s), "ms"),
            metric("core.synth.ms", ms(self.synth_s), "ms"),
            metric(
                "core.iter.ms_p50",
                percentile(&self.iteration_gaps_ms, 50.0),
                "ms",
            ),
            metric("netlist.elaborate.ms", ms(self.elaborate_s), "ms"),
            metric("atpg.collapse.ms", ms(self.collapse_s), "ms"),
            metric("tcov.random.ms", ms(self.random_s), "ms"),
            metric("tcov.det.ms", ms(self.det_s), "ms"),
            metric("core.synth.share", ratio(self.synth_s, total), "ratio"),
            metric("tcov.random.share", ratio(self.random_s, total), "ratio"),
            metric("tcov.det.share", ratio(self.det_s, total), "ratio"),
            metric("core.iterations", per(u(self.iterations)), "count"),
            metric("core.txn.begun", per(f(self.txn_begun)), "count"),
            metric(
                "core.txn.commit_ratio",
                ratio(f(self.txn_committed), f(self.txn_begun)),
                "ratio",
            ),
            metric(
                "testability.hit_ratio",
                ratio(
                    f(self.testability_hits),
                    f(self.testability_hits + self.testability_misses),
                ),
                "ratio",
            ),
            metric(
                "testability.updates",
                per(f(self.testability_updates)),
                "count",
            ),
            metric(
                "core.eval.hit_ratio",
                ratio(f(self.eval_hits), f(self.eval_hits + self.eval_misses)),
                "ratio",
            ),
            metric(
                "etpn.cp.hit_ratio",
                ratio(f(self.cp_hits), f(self.cp_hits + self.cp_misses)),
                "ratio",
            ),
            metric("netlist.gates", per(u(self.gates)), "count"),
            metric("atpg.faults", per(u(self.collapsed)), "count"),
            metric(
                "tcov.random.yield",
                ratio(u(self.detected_random), u(self.graded)),
                "ratio",
            ),
            metric(
                "tcov.det.yield",
                ratio(u(self.detected_det), u(self.det_targets)),
                "ratio",
            ),
            metric("tcov.aborted", per(u(self.aborted)), "count"),
            metric("tcov.backtracks", per(u(self.backtracks)), "count"),
        ]
    }

    /// One line per layer for the human report.
    pub fn summary(&self) -> String {
        format!(
            "profile over {} design(s), mean ms per call: parse {:.2}, initial {:.2}, \
             synth {:.1}, elaborate {:.2}, collapse {:.2}, random {:.1}, det {:.1}",
            self.runs,
            ratio(self.parse_s, self.runs as f64) * 1000.0,
            ratio(self.initial_s, self.runs as f64) * 1000.0,
            ratio(self.synth_s, self.runs as f64) * 1000.0,
            ratio(self.elaborate_s, self.runs as f64) * 1000.0,
            ratio(self.collapse_s, self.runs as f64) * 1000.0,
            ratio(self.random_s, self.runs as f64) * 1000.0,
            ratio(self.det_s, self.runs as f64) * 1000.0,
        )
    }
}

/// Run every design once outside any workload loop (the traced runs
/// of workloads whose own loop cannot be taken apart), returning the
/// profile and the wall seconds it took.
pub fn profile(designs: &[Design], tracer: &Tracer) -> Result<(Profile, f64), String> {
    let t = Instant::now();
    let mut profile = Profile::default();
    for (i, d) in designs.iter().enumerate() {
        let span = tracer.open("profile.design", None, i as u64);
        let sample = run(d, tracer, span, i as u64)?;
        tracer.close(span);
        profile.add(&sample);
    }
    Ok((profile, t.elapsed().as_secs_f64()))
}
