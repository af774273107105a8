//! `run-atpg`: one user waiting on graded designs, one after another —
//! a closed loop with one client running `hlts run --atpg
//! --fault-sample 100` jobs through `execute` with a disabled warm
//! pool, exactly as the CLI does. The tcov deterministic phase
//! dominates these jobs.
//!
//! Grading runs on the CLI's default single tcov worker: with two, on a
//! 2-CPU host, a run's throughput and CPU per job flip between two
//! levels about 30% apart from one process to the next, more than the
//! benchmark's bounds. The traced run measures what the second worker
//! buys instead: it runs passes as above (the untraced baseline), the
//! same number with every job taken apart into its layer calls
//! ([`crate::pipeline`]) — each traced job's outputs must equal the
//! untraced ones — and the same number on two tcov workers.

use std::collections::BTreeMap;
use std::time::Instant;

use hlts_core::{EvalMode, RunCtl, SynthesisParams, SynthesisResult};
use hlts_dse::Flow;
use hlts_jobs::{execute, proto, AtpgRequest, JobOutput, JobSpec, WarmPool};
use hlts_tcov::{CoverageReport, GradeStats};

use crate::calib::Speed;
use crate::corpus::{self, Source};
use crate::pipeline::{self, Design, Profile};
use crate::report::{self, check_pins, ratio, OpTimes, Outcome, PhaseMetrics};
use crate::stats::process_cpu_ms;
use crate::trace::Tracer;
use crate::{Opts, Setup, OP_REACH};

/// The CLI's `--fault-sample` for these jobs.
pub const FAULT_SAMPLE: usize = 100;
/// Generator seed of the corpus's generated graphs.
const GEN_SEED: u64 = 1;

/// Pinned outputs: the program's own metrics rendering plus the
/// coverage signature, per job.
pub const PINS: &str = include_str!("../expected/run-atpg.txt");

#[derive(Debug, Clone)]
struct Job {
    key: String,
    source: Source,
    bits: u32,
}

/// The paper benchmarks and the widths they run at.
const PAPERS: &[(&str, &[u32])] = &[
    ("ex", &[4, 8]),
    ("dct", &[4, 8]),
    ("diffeq", &[4, 8]),
    ("paulin", &[4, 8]),
    ("tseng", &[4]),
    ("ewf", &[4]),
];
/// Generator presets run at 4 bits.
const PRESETS: &[&str] = &["balanced", "loopy-mul"];

/// The corpus, 12 jobs a pass (smoke: `ex` at 4 bits). A pass takes
/// about 2.5 s on an idle 2-CPU host, so every job repeats about ten
/// times in a run and its median repeat is reliable; the heaviest
/// designs (ewf and tseng at 8 bits, the deep-arith and wide-logic
/// presets: 0.4 to 1.4 s each) would halve the repeats.
fn corpus(smoke: bool) -> Result<Vec<Job>, String> {
    const SMOKE: &[(&str, &[u32])] = &[("ex", &[4])];
    let (papers, presets) = if smoke {
        (SMOKE, &[][..])
    } else {
        (PAPERS, PRESETS)
    };
    let mut sources = Vec::new();
    for &(name, widths) in papers {
        sources.push((corpus::paper(name)?, widths));
    }
    for preset in presets {
        sources.push((corpus::generated(preset, GEN_SEED, None)?, &[4][..]));
    }
    let mut jobs = Vec::new();
    for (source, widths) in sources {
        corpus::parse(&source)?;
        for &bits in widths {
            jobs.push(Job {
                key: format!("{}@{bits}", source.name),
                source: source.clone(),
                bits,
            });
        }
    }
    Ok(jobs)
}

/// A job's output as one comparable line.
pub fn output_line(result: &SynthesisResult, coverage: &CoverageReport) -> String {
    format!(
        "{} merges={} | {}",
        proto::metrics_json(&result.metrics),
        result.merge_log.len(),
        coverage.signature()
    )
}

/// One job the way `hlts run FILE --atpg --tcov-jobs N` executes it:
/// its output line and the grading's worker statistics.
fn execute_job(job: &Job, tcov_jobs: usize) -> Result<(String, GradeStats), String> {
    let dfg = corpus::parse(&job.source)?;
    let spec = JobSpec::Run {
        name: job.source.name.clone(),
        dfg,
        flow: Flow::Ours,
        params: SynthesisParams::paper_defaults(job.bits),
        mode: EvalMode::default(),
        warm: None,
        atpg: Some(AtpgRequest {
            fault_sample: Some(FAULT_SAMPLE),
            jobs: tcov_jobs,
        }),
    };
    match execute(&spec, &RunCtl::none(), &WarmPool::new(0)) {
        Ok(JobOutput::Run(out)) => {
            let coverage = out.coverage.ok_or("graded job returned no coverage")?;
            Ok((output_line(&out.result, &coverage), coverage.stats))
        }
        Ok(_) => Err("run job returned a non-run output".into()),
        Err(e) => Err(e.to_string()),
    }
}

/// The same job, one layer call at a time.
fn traced_job(
    job: &Job,
    tracer: &Tracer,
    id: u64,
    profile: &mut Profile,
) -> Result<String, String> {
    let design = Design {
        source: job.source.clone(),
        params: SynthesisParams::paper_defaults(job.bits),
        mode: EvalMode::default(),
        fault_sample: Some(FAULT_SAMPLE),
        tcov_jobs: 1,
    };
    let span = tracer.open("job", None, id);
    let sample = pipeline::run(&design, tracer, span, id);
    tracer.close(span);
    let sample = sample?;
    profile.add(&sample);
    let report = sample
        .report
        .as_ref()
        .ok_or("graded design returned no coverage")?;
    Ok(output_line(&sample.result, report))
}

/// Outputs and latencies of one measured loop.
#[derive(Default)]
struct Loop {
    passes: crate::Passes,
    times: OpTimes,
    lines: BTreeMap<String, String>,
}

/// Run passes of the corpus in seeded orders — `fixed` of them, or as
/// many as fit `budget_s` — each job through `exec`, with a
/// reference-kernel run and a set-up sample after each job.
#[allow(clippy::too_many_arguments)]
fn measure(
    out: &mut Outcome,
    jobs: &[Job],
    setup: &mut Setup<'_, Vec<Job>>,
    speed: &mut Speed,
    seed_stream: u64,
    opts: &Opts,
    budget_s: f64,
    fixed: usize,
    mut exec: impl FnMut(&Job, u64) -> Result<String, String>,
) -> Loop {
    let mut rng = corpus::rng(opts.seed, seed_stream);
    let mut times = OpTimes::default();
    let mut lines: BTreeMap<String, String> = BTreeMap::new();
    let passes = crate::passes(budget_s, fixed, speed, 0, |_, speed| {
        for job in corpus::shuffled(jobs, &mut rng) {
            out.attempted += 1;
            let (t, cpu) = (Instant::now(), process_cpu_ms());
            let result = exec(&job, out.attempted);
            let (ms, cpu) = (t.elapsed().as_secs_f64() * 1000.0, process_cpu_ms() - cpu);
            let at = setup.sample(speed);
            match result {
                Ok(line) => {
                    times.add(&job.key, ms, cpu, at);
                    // Every repeat of a job must reproduce its output.
                    match lines.get(&job.key) {
                        Some(prev) if *prev != line => {
                            out.wrong(format!(
                                "{} changed between passes: `{prev}` vs `{line}`",
                                job.key
                            ));
                        }
                        Some(_) => {}
                        None => {
                            lines.insert(job.key.clone(), line);
                        }
                    }
                }
                Err(e) => {
                    out.failed += 1;
                    out.note(format!("FAILED {}: {e}", job.key));
                }
            }
        }
    });
    Loop {
        passes,
        times,
        lines,
    }
}

pub fn run(opts: &Opts, tracer: &Tracer) -> Result<Outcome, String> {
    let mut speed = Speed::new(1);
    let (mut setup, jobs) = Setup::new(&mut speed, || corpus(opts.smoke))?;
    let mut out = Outcome {
        correct: true,
        ..Outcome::default()
    };

    let budget = if opts.trace {
        opts.seconds / 2.0
    } else {
        opts.seconds
    };
    let base = measure(
        &mut out,
        &jobs,
        &mut setup,
        &mut speed,
        1,
        opts,
        budget,
        0,
        |job, _| execute_job(job, 1).map(|(line, _)| line),
    );
    // Each job's median repeat over the passes, at reference speed: the
    // run's estimate of one pass.
    let (job_ms, job_cpu) = base.times.medians(Some(&speed), OP_REACH);
    let pass_ms: f64 = job_ms.iter().sum();
    out.note(format!(
        "setup: corpus of {} jobs built and parsed; median of {} set-ups {:.6} s ({:.6} s as \
         measured)",
        jobs.len(),
        setup.samples(),
        setup.median_s(&speed),
        setup.median_raw_s()
    ));
    out.note(format!(
        "measured {} pass(es) of {} jobs over {:.3} s; pass of median repeats {:.3} s at reference \
         speed, {:.3} s as measured; latency from per-job median repeats of {} samples",
        base.passes.count(),
        jobs.len(),
        base.passes.total_wall(),
        pass_ms / 1000.0,
        base.times.medians(None, OP_REACH).0.iter().sum::<f64>() / 1000.0,
        base.times.samples()
    ));
    out.note(speed.summary());
    out.end_to_end = report::end_to_end(
        ratio(job_ms.len() as f64 * 1000.0, pass_ms),
        &job_ms,
        ratio(job_cpu.iter().sum(), job_cpu.len() as f64),
        setup.median_s(&speed),
    );
    let produced: Vec<(String, String)> = base.lines.clone().into_iter().collect();
    check_pins(&mut out, PINS, &produced);

    if opts.trace {
        let mut profile = Profile::default();
        let count = base.passes.count();
        let traced = measure(
            &mut out,
            &jobs,
            &mut setup,
            &mut speed,
            2,
            opts,
            0.0,
            count,
            |job, id| traced_job(job, tracer, id, &mut profile),
        );
        for (key, line) in &traced.lines {
            if base.lines.get(key) != Some(line) {
                out.wrong(format!(
                    "{key}: traced pipeline output differs from execute"
                ));
            }
        }
        let mut workers = GradeStats::default();
        let two = measure(
            &mut out,
            &jobs,
            &mut setup,
            &mut speed,
            3,
            opts,
            0.0,
            count,
            |job, _| {
                execute_job(job, 2).map(|(line, stats)| {
                    workers.recomputed += stats.recomputed;
                    workers.hint_skips += stats.hint_skips;
                    line
                })
            },
        );
        let two_jobs = two.times.samples() as f64;
        let pass_ms = |l: &Loop| {
            l.times
                .medians(Some(&speed), OP_REACH)
                .0
                .iter()
                .sum::<f64>()
        };
        let mut phase = PhaseMetrics {
            trace_overhead_share: pass_ms(&traced) / pass_ms(&base) - 1.0,
            workers_speedup: pass_ms(&base) / pass_ms(&two),
            tcov_recomputed: ratio(workers.recomputed as f64, two_jobs),
            tcov_hint_skips: ratio(workers.hint_skips as f64, two_jobs),
            trace_span_coverage: tracer.min_child_coverage("job"),
            ..PhaseMetrics::default()
        };
        out.note(format!(
            "tcov workers: pass of median repeats {:.3} s on 1, {:.3} s on 2",
            pass_ms(&base) / 1000.0,
            pass_ms(&two) / 1000.0
        ));
        phase.set_cpu(traced.passes.total_cpu(), traced.passes.total_wall());
        out.note(format!(
            "traced {} pass(es) in {:.3} s: overhead {:+.1}% per pass of median repeats (includes \
             timing the random phase separately); spans cover at least {:.1}% of every job",
            traced.passes.count(),
            traced.passes.total_wall(),
            phase.trace_overhead_share * 100.0,
            phase.trace_span_coverage * 100.0
        ));
        out.note(profile.summary());
        out.per_layer = profile.metrics();
        out.per_layer.extend(phase.metrics());
    }
    out.note(format!(
        "output digest {} over {} distinct jobs",
        crate::stats::digest(&format!("{:?}", base.lines)),
        base.lines.len()
    ));
    Ok(out)
}
