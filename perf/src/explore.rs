//! `explore-atpg` and `sweep`: design-space sweeps through `execute`,
//! exactly as `hlts explore` runs them — one call per behavior and
//! data-path width — repeated in whole passes over every call.
//!
//! * `explore-atpg` — `explore --atpg --fault-sample 100 --jobs 2`:
//!   every point is graded single-threaded while two points run at
//!   once, and neighbouring points often grade identical designs.
//! * `sweep` — a cold synthesis-only `explore --warm-start off`:
//!   Algorithm 1 (testability, ΔE/ΔH pricing, transactions,
//!   rescheduling) does all the work and tcov none. It runs on one
//!   worker: on two, the workers share each behavior's caches and the
//!   work a sweep does changes from run to run by more than the
//!   benchmark's bounds (the traced run measures what two workers buy).
//!
//! Point latency is measured from the layers' own progress events: a
//! point starts at its first Algorithm-1 iteration and ends at its
//! `PointDone`, both on the worker thread that ran it.

use std::time::Instant;

use hlts_core::{CancelToken, EvalMode, RunCtl};
use hlts_dse::{
    ExploreConfig, ExploreOutcome, Flow, PointParams, PointResult, SweepSpec, TcovSweep,
};
use hlts_jobs::{execute, JobOutput, JobSpec, WarmPool};

use crate::calib::Speed;
use crate::corpus::{self, Source};
use crate::pipeline::{self, Design};
use crate::report::{self, check_pins, ratio, OpTimes, Outcome, PhaseMetrics};
use crate::stats::{digest, process_cpu_ms};
use crate::trace::{Events, Tracer};
use crate::{Opts, Setup, OP_REACH};

/// One sweep workload: its behaviors and grid.
pub struct Def {
    papers: &'static [&'static str],
    /// Generated behaviors: (preset, generator seed, op-count override).
    generated: &'static [(&'static str, u64, Option<usize>)],
    ks: &'static [usize],
    weights: &'static [(f64, f64)],
    bits: &'static [u32],
    /// `Some(n)`: grade every point with an `n`-fault sample.
    fault_sample: Option<usize>,
    /// Sweep worker threads (`--jobs`).
    jobs: usize,
    pins: &'static str,
}

/// `explore --atpg --fault-sample 100 --jobs 2` over four paper
/// benchmarks and one generated graph, k ∈ {1, 3}, the CLI's three
/// weight pairs, 4 bits: five calls of six graded points, about 3 s a
/// pass on a 2-CPU host, so that each point repeats about ten times in
/// a run.
pub fn explore_atpg(smoke: bool) -> Def {
    Def {
        papers: if smoke {
            &["ex"]
        } else {
            &["ex", "tseng", "paulin", "diffeq"]
        },
        generated: if smoke { &[] } else { &[("balanced", 1, None)] },
        ks: if smoke { &[1] } else { &[1, 3] },
        weights: if smoke {
            &[(2.0, 1.0)]
        } else {
            &[(2.0, 1.0), (10.0, 1.0), (1.0, 10.0)]
        },
        bits: &[4],
        fault_sample: Some(crate::run_atpg::FAULT_SAMPLE),
        jobs: 2,
        pins: include_str!("../expected/explore-atpg.txt"),
    }
}

/// A cold synthesis-only `explore --warm-start off` over one 20-op
/// generated graph per preset, k ∈ {1, 3}, two weight pairs, 4 and 8
/// bits: eight calls of four points, about 1.1 s a pass on one worker
/// (the traced run repeats it on two).
///
/// ewf is left out. Over 22 runs on a shared VM, points weighted
/// towards testability (α = 1, β = 10) slowed 1.3 to 1.4 times as
/// steeply as the reference kernel when the host's load rose, the
/// others 0.85 to 1.3 times, so scaling leaves the first kind moving
/// with the host. With ewf, its α = 1, β = 10 points sit at the 90th
/// percentile, and `latency_p90_ms` spread by up to 21% over ten runs;
/// without, the 90th percentile falls on wide-logic's α = 2, β = 1
/// points and spread 6–8%.
pub fn sweep(smoke: bool) -> Def {
    Def {
        papers: if smoke { &["ex"] } else { &[] },
        generated: if smoke {
            &[]
        } else {
            &[
                ("balanced", 1, Some(20)),
                ("deep-arith", 1, Some(20)),
                ("wide-logic", 1, Some(20)),
                ("loopy-mul", 1, Some(20)),
            ]
        },
        ks: if smoke { &[1, 2] } else { &[1, 3] },
        weights: if smoke {
            &[(2.0, 1.0)]
        } else {
            &[(2.0, 1.0), (1.0, 10.0)]
        },
        bits: if smoke { &[4] } else { &[4, 8] },
        fault_sample: None,
        jobs: 1,
        pins: include_str!("../expected/sweep.txt"),
    }
}

impl Def {
    fn sources(&self) -> Result<Vec<Source>, String> {
        let mut out = Vec::new();
        for name in self.papers {
            out.push(corpus::paper(name)?);
        }
        for &(preset, seed, ops) in self.generated {
            out.push(corpus::generated(preset, seed, ops)?);
        }
        for s in &out {
            corpus::parse(s)?;
        }
        Ok(out)
    }

    /// A pass's `explore` calls: every behavior at every width.
    fn units(&self, sources: &[Source]) -> Vec<Unit> {
        sources
            .iter()
            .flat_map(|source| {
                self.bits.iter().map(|&bits| Unit {
                    source: source.clone(),
                    bits,
                })
            })
            .collect()
    }

    /// One design per behavior for the traced run's layer profile: the
    /// grid's last k, first weight pair and widest data path, graded
    /// (when the sweep grades) as a sweep grades a point:
    /// single-threaded.
    fn profile_designs(&self, sources: &[Source]) -> Vec<Design> {
        sources
            .iter()
            .map(|s| Design {
                source: s.clone(),
                params: PointParams {
                    bench: s.name.clone(),
                    flow: Flow::Ours,
                    k: self.ks[self.ks.len() - 1],
                    alpha: self.weights[0].0,
                    beta: self.weights[0].1,
                    bits: self.bits[self.bits.len() - 1],
                }
                .synthesis_params(),
                mode: EvalMode::Sequential,
                fault_sample: self.fault_sample,
                tcov_jobs: 1,
            })
            .collect()
    }
}

/// One `explore` call: one behavior at one data-path width.
#[derive(Debug, Clone)]
struct Unit {
    source: Source,
    bits: u32,
}

impl Unit {
    fn key(&self) -> String {
        format!("{}@{}", self.source.name, self.bits)
    }
}

/// One `explore` call, as `hlts explore FILE --bits B` runs it, from
/// loading (parsing) the source to the outcome.
///
/// Each call sweeps one width because `explore` shares each behavior's
/// (E, H) evaluator across all of a sweep's points while the
/// evaluator's cache key omits the width: on two workers a multi-width
/// sweep prices some states at the other width, depending on thread
/// timing, and its front changes from run to run. Each sweeps one
/// behavior so that a pass is a list of short calls, between which the
/// host's speed is sampled often enough to follow it.
fn explore_once(
    def: &Def,
    unit: &Unit,
    jobs: usize,
    graded: bool,
    all_events: bool,
) -> Result<(ExploreOutcome, Events), String> {
    let dfg = corpus::parse(&unit.source)?;
    let events = Events::new(all_events);
    let ctl = RunCtl {
        cancel: CancelToken::new(),
        progress: &events,
    };
    let spec = SweepSpec {
        benches: vec![(unit.source.name.clone(), dfg)],
        flows: vec![Flow::Ours],
        ks: def.ks.to_vec(),
        weights: def.weights.to_vec(),
        bits: vec![unit.bits],
        extra: Vec::new(),
        tcov: def
            .fault_sample
            .filter(|_| graded)
            .map(|fault_sample| TcovSweep { fault_sample }),
        warm_start: false,
    };
    let job = JobSpec::Explore {
        spec,
        cfg: ExploreConfig {
            jobs,
            ..ExploreConfig::default()
        },
    };
    match execute(&job, &ctl, &WarmPool::new(0)) {
        Ok(JobOutput::Explore(outcome)) => Ok((*outcome, events)),
        Ok(_) => Err("explore job returned a non-explore output".into()),
        Err(e) => Err(e.to_string()),
    }
}

/// A pass's results independent of the order its calls ran in: every
/// point's parameters and objectives, and the fronts' members, sorted.
fn canonical(outcomes: &[ExploreOutcome]) -> String {
    let line = |r: &PointResult| {
        let x = &r.objectives;
        let test = x
            .test
            .map(|t| format!(" cov={:?} tcyc={}", t.coverage, t.test_cycles))
            .unwrap_or_default();
        format!(
            "{} E={} H={:?} C={:?} O={:?} depth={:?} mod={} reg={} mux={}{test}",
            r.params.key(),
            x.execution_time,
            x.hardware,
            x.avg_controllability,
            x.avg_observability,
            x.co_depth,
            r.modules,
            r.registers,
            r.muxes,
        )
    };
    let mut results: Vec<String> = outcomes.iter().flat_map(|o| &o.results).map(line).collect();
    results.sort();
    let mut front: Vec<String> = outcomes
        .iter()
        .flat_map(|o| &o.front)
        .map(|r| r.params.key())
        .collect();
    front.sort();
    format!("{}\nfront:\n{}", results.join("\n"), front.join("\n"))
}

/// Totals of a series of passes.
#[derive(Default)]
struct Sweeps {
    passes: crate::Passes,
    /// Points a pass sweeps.
    points: usize,
    /// Wall and CPU milliseconds of each `explore` call.
    calls: OpTimes,
    point_ms: OpTimes,
    /// Digest line of the first pass.
    output: Option<String>,
    testability: (u64, u64),
    eval: (u64, u64),
}

impl Sweeps {
    /// Wall and CPU milliseconds of one pass at reference speed: the sum
    /// of each call's median repeat.
    fn pass_ms(&self, speed: &Speed) -> (f64, f64) {
        let (wall, cpu) = self.calls.medians(Some(speed), OP_REACH);
        (wall.iter().sum(), cpu.iter().sum())
    }

    /// A series on other settings must sweep exactly what `base` swept.
    fn check_same(&self, out: &mut Outcome, base: &Sweeps, what: &str) {
        if self.output != base.output {
            out.wrong(format!(
                "{what} passes differ: `{:?}` vs `{:?}`",
                self.output, base.output
            ));
        }
    }
}

/// Run passes over `units` in seeded orders on `jobs` workers — as many
/// as fit `budget_s`, or exactly `fixed` of them — timing each
/// `explore` call, with a set-up sample (and its reference-kernel run)
/// after each. Spans are recorded when tracing.
#[allow(clippy::too_many_arguments)]
fn measure(
    out: &mut Outcome,
    def: &Def,
    units: &[Unit],
    setup: &mut Setup<'_, Vec<Source>>,
    speed: &mut Speed,
    opts: &Opts,
    jobs: usize,
    graded: bool,
    budget_s: f64,
    fixed: usize,
    tracer: &Tracer,
) -> Sweeps {
    let mut rng = corpus::rng(opts.seed, 3);
    let mut s = Sweeps::default();
    s.passes = crate::passes(budget_s, fixed, speed, 0, |n, speed| {
        let pass = tracer.open("sweep", None, n as u64);
        let mut outcomes = Vec::new();
        for unit in corpus::shuffled(units, &mut rng) {
            let span = tracer.open("explore", pass, n as u64);
            let (t, cpu) = (Instant::now(), process_cpu_ms());
            let result = explore_once(def, &unit, jobs, graded, tracer.is_on());
            let (ms, cpu) = (t.elapsed().as_secs_f64() * 1000.0, process_cpu_ms() - cpu);
            tracer.close(span);
            let at = setup.sample(speed);
            let (o, events) = match result {
                Ok(r) => r,
                Err(e) => {
                    out.failed += 1;
                    out.attempted += 1;
                    out.note(format!("FAILED {}: {e}", unit.key()));
                    continue;
                }
            };
            s.calls.add(&unit.key(), ms, cpu, at);
            let st = &o.stats;
            out.attempted += st.points_total as u64;
            out.failed += o.failures.len() as u64;
            for f in &o.failures {
                out.note(format!(
                    "FAILED {} point {}: {}",
                    unit.key(),
                    f.id,
                    f.message
                ));
            }
            s.testability.0 += st.testability.hits;
            s.testability.1 += st.testability.misses;
            s.eval.0 += st.eval.state_hits;
            s.eval.1 += st.eval.state_misses;
            let points = events.points();
            if points.len() != o.results.len() {
                out.wrong(format!(
                    "{}: {} points finished but {} reported start and completion",
                    unit.key(),
                    o.results.len(),
                    points.len()
                ));
            }
            for p in &points {
                let Some(r) = o.results.iter().find(|r| r.id == p.id) else {
                    continue;
                };
                let ms = p.end.duration_since(p.start).as_secs_f64() * 1000.0;
                s.point_ms.add(&r.params.key(), ms, 0.0, at);
                tracer.record("point", span, p.id as u64, p.start, Some(p.end));
            }
            outcomes.push(o);
        }
        tracer.close(pass);
        s.points = outcomes.iter().map(|o| o.results.len()).sum();
        let line = format!(
            "{} points={} front={}",
            digest(&canonical(&outcomes)),
            s.points,
            outcomes.iter().map(|o| o.front.len()).sum::<usize>()
        );
        match &s.output {
            None => s.output = Some(line),
            Some(first) if *first != line => {
                out.wrong(format!("pass outputs differ: `{first}` vs `{line}`"));
            }
            Some(_) => {}
        }
    });
    s
}

pub fn run(opts: &Opts, def: &Def, tracer: &Tracer) -> Result<Outcome, String> {
    let mut speed = Speed::new(def.jobs);
    let (mut setup, sources) = Setup::new(&mut speed, || def.sources())?;
    let units = def.units(&sources);
    let mut out = Outcome {
        correct: true,
        ..Outcome::default()
    };
    let budget = if opts.trace {
        opts.seconds / 2.0
    } else {
        opts.seconds
    };
    let quiet = Tracer::new(false);
    let base = measure(
        &mut out, def, &units, &mut setup, &mut speed, opts, def.jobs, true, budget, 0, &quiet,
    );
    let (pass_ms, pass_cpu) = base.pass_ms(&speed);
    let (point_ms, _) = base.point_ms.medians(Some(&speed), OP_REACH);
    out.note(format!(
        "setup: {} behaviors built and parsed; median of {} set-ups {:.6} s ({:.6} s as measured)",
        sources.len(),
        setup.samples(),
        setup.median_s(&speed),
        setup.median_raw_s()
    ));
    out.note(format!(
        "measured {} pass(es) of {} explore calls ({} points) on {} worker(s) over {:.3} s; pass \
         of median repeats {:.3} s at reference speed, {:.3} s as measured; latency from \
         per-point median repeats of {} samples",
        base.passes.count(),
        units.len(),
        base.points,
        def.jobs,
        base.passes.total_wall(),
        pass_ms / 1000.0,
        base.calls.medians(None, OP_REACH).0.iter().sum::<f64>() / 1000.0,
        base.point_ms.samples()
    ));
    out.note(speed.summary());
    out.end_to_end = report::end_to_end(
        ratio(base.points as f64 * 1000.0, pass_ms),
        &point_ms,
        ratio(pass_cpu, base.points as f64),
        setup.median_s(&speed),
    );
    let scale = if opts.smoke { "smoke" } else { "full" };
    if let Some(line) = &base.output {
        out.note(format!("output digest {line}"));
        check_pins(&mut out, def.pins, &[(scale.to_owned(), line.clone())]);
    }

    if opts.trace {
        let count = base.passes.count();
        let traced = measure(
            &mut out, def, &units, &mut setup, &mut speed, opts, def.jobs, true, 0.0, count, tracer,
        );
        traced.check_same(&mut out, &base, "traced");
        let traced_ms = traced.pass_ms(&speed).0;
        let mut phase = PhaseMetrics {
            trace_overhead_share: traced_ms / pass_ms - 1.0,
            dse_parallel_eff: ratio(
                traced
                    .point_ms
                    .medians(Some(&speed), OP_REACH)
                    .0
                    .iter()
                    .sum(),
                traced_ms * def.jobs as f64,
            ),
            dse_testability_hit_ratio: ratio(
                traced.testability.0 as f64,
                (traced.testability.0 + traced.testability.1) as f64,
            ),
            dse_eval_hit_ratio: ratio(traced.eval.0 as f64, (traced.eval.0 + traced.eval.1) as f64),
            ..PhaseMetrics::default()
        };
        phase.set_cpu(traced.passes.total_cpu(), traced.passes.total_wall());
        if def.fault_sample.is_some() {
            // What grading costs the sweep: the same passes, ungraded.
            let plain = measure(
                &mut out, def, &units, &mut setup, &mut speed, opts, def.jobs, false, 0.0, count,
                &quiet,
            );
            let plain_ms = plain.pass_ms(&speed).0;
            phase.dse_grade_share = 1.0 - plain_ms / pass_ms;
            out.note(format!(
                "grading share: pass {:.3} s graded, {:.3} s ungraded",
                pass_ms / 1000.0,
                plain_ms / 1000.0
            ));
        } else {
            // What a second pool worker buys: the same passes on two.
            let two = measure(
                &mut out, def, &units, &mut setup, &mut speed, opts, 2, true, 0.0, count, &quiet,
            );
            two.check_same(&mut out, &base, "two-worker");
            let (two_ms, two_cpu) = two.pass_ms(&speed);
            phase.workers_speedup = pass_ms / two_ms;
            out.note(format!(
                "pool speedup: pass {:.3} s on 1 worker, {:.3} s on 2 ({:.1} vs {:.1} CPU ms per \
                 point)",
                pass_ms / 1000.0,
                two_ms / 1000.0,
                ratio(pass_cpu, base.points as f64),
                ratio(two_cpu, two.points as f64),
            ));
        }
        out.note(format!(
            "traced {} pass(es) in {:.3} s: overhead {:+.1}% per pass of median repeats",
            traced.passes.count(),
            traced.passes.total_wall(),
            phase.trace_overhead_share * 100.0
        ));
        let (profile, secs) = pipeline::profile(&def.profile_designs(&sources), tracer)?;
        phase.trace_span_coverage = tracer.min_child_coverage("profile.design");
        out.note(format!("{} ({secs:.3} s)", profile.summary()));
        out.per_layer = profile.metrics();
        out.per_layer.extend(phase.metrics());
    }
    Ok(out)
}
