//! `hlts` — command-line front end to the test-synthesis system.
//!
//! ```text
//! hlts [run] <file.dfg | bench:NAME> [--flow ours|camad|approach1|approach2]
//!      [--bits N] [--k N] [--alpha X] [--beta X] [--atpg]
//!      [--fault-sample N] [--tcov-jobs N] [--audit] [--json] [--quiet]
//! hlts explore <source>... [--flow LIST] [--bits LIST] [--k LIST]
//!      [--weights A:B,...] [--jobs N] [--warm-start off|on] [--atpg]
//!      [--fault-sample N] [--journal PATH | --resume PATH] [--json] [--quiet]
//! hlts gen [--seed N] [--preset NAME] [--list-presets] [--out FILE]
//!      [--ops N] [--inputs N] [--const-ratio X] [--mul W] [--addsub W]
//!      [--logic W] [--cmp W] [--shift W] [--depth-bias X]
//!      [--fanout-skew X] [--loops N] [--name IDENT]
//! hlts serve [--tcp ADDR] [--workers N] [--queue N] [--warm N]
//! hlts submit <file.dfg | bench:NAME | -> --connect ADDR
//!      [--flow FLOW] [--bits N] [--k N] [--alpha X] [--beta X] [--atpg]
//!      [--fault-sample N] [--tcov-jobs N]
//! ```
//!
//! `run` (the default subcommand) reads a behavioral description in the
//! textual DFG format (or a built-in benchmark via `bench:ex`,
//! `bench:dct`, …, or stdin via `-`), synthesizes it with the requested
//! flow, prints the resulting schedule/allocation and metrics, and
//! optionally grades the elaborated netlist with the parallel two-phase
//! coverage engine (`hlts-tcov`): `--atpg` measures fault coverage,
//! `--fault-sample N` bounds the graded fault set (0 = the exhaustive
//! collapsed universe) and `--tcov-jobs N` picks the grading worker
//! count — reports are bit-identical at any worker count. When faults
//! are sampled, both the sampled and the total collapsed counts are
//! reported, so a sampled estimate is never mistaken for an exhaustive
//! grade.
//! `explore` sweeps the grid of k × (α, β) × bits × flow points over
//! one or more sources on a worker pool and reports the Pareto front
//! (see `hlts-dse`); with `--atpg` every point is additionally graded
//! and the front is Pareto over measured (coverage, test cycles) too; with `--journal` completed points checkpoint to a
//! plain-text file that `--resume` picks up without recomputing;
//! `--warm-start on` seeds each point from its nearest completed
//! neighbour's merge trace, replaying decisions instead of re-searching
//! them — the front is bit-identical to `--warm-start off` at any
//! worker count (see `hlts-dse`). `gen`
//! emits a random — but seed-reproducible — workload in the textual
//! DFG format (see `hlts-gen`), so `hlts gen --seed 7 | hlts run -`
//! synthesizes a fresh graph and a conformance failure's printed
//! `(seed, preset)` pair replays anywhere. `--json` switches `run` and
//! `explore` to machine-readable output. `--audit` runs the
//! cross-crate invariant auditor (`hlts-check`) over the synthesized
//! design and fails with a violation report if anything is
//! inconsistent. `serve` runs the job daemon (`hlts-jobs`): a bounded
//! worker pool answering line-delimited JSON requests on stdin or over
//! TCP, with warm per-behavior caches shared across submissions.
//! `submit` is its one-shot client: it takes `run`'s job flags, so
//! `hlts gen --seed 7 | hlts submit - --connect HOST:PORT` ships the
//! generated behavior to a daemon and streams the job's events back.
//! `run`, `explore` and `submit` all parse their flags into the daemon
//! protocol's job request and resolve it the way the daemon does, so a
//! one-shot run and a served one are the same job. `run` and `explore`
//! honour Ctrl-C: an interrupt cancels at the next iteration/point
//! boundary and an interrupted sweep still reports its partial front
//! (flagged `degraded: cancelled`) with the journal intact.

use std::process::ExitCode;

use hlts::core::{DesignState, RunCtl, SynthesisResult};
use hlts::dse::{self, Flow};
use hlts::jobs::proto::{self, ExploreRequest, JobRequest, RunRequest, SourceRef};
use hlts::jobs::{
    execute, submit_once, AtpgRequest, ClientEnd, JobOutput, JobSpec, ServeConfig, WarmPool,
};
use hlts::tcov::CoverageReport;

/// Ctrl-C wiring: SIGINT fires the process-wide [`CancelToken`], so a
/// one-shot `hlts run`/`hlts explore` stops at the next clean boundary
/// (an interrupted sweep keeps its flushed journal and reports the
/// partial front with a `degraded: cancelled` line). The handler does
/// one relaxed atomic store — nothing non-signal-safe.
#[cfg(unix)]
mod sigint {
    use hlts::core::CancelToken;
    use std::sync::OnceLock;

    static TOKEN: OnceLock<CancelToken> = OnceLock::new();

    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }

    extern "C" fn on_sigint(_signum: i32) {
        if let Some(token) = TOKEN.get() {
            token.cancel();
        }
    }

    pub fn install() -> CancelToken {
        let token = TOKEN.get_or_init(CancelToken::new).clone();
        const SIGINT: i32 = 2;
        // SAFETY: registering an async-signal-safe handler (one
        // relaxed atomic store) for SIGINT via the libc `signal`
        // symbol; both arguments are valid for the C signature.
        unsafe {
            signal(SIGINT, on_sigint as *const () as usize);
        }
        token
    }
}

#[cfg(not(unix))]
mod sigint {
    use hlts::core::CancelToken;

    /// No signal wiring off unix: the token simply never fires.
    pub fn install() -> CancelToken {
        CancelToken::new()
    }
}

/// `hlts run` / `hlts submit` arguments: the run job plus the flags
/// that only shape this command's output or transport.
struct RunOptions {
    job: RunRequest,
    /// The source argument as given (`--json` echoes it).
    source: String,
    audit: bool,
    json: bool,
    quiet: bool,
    /// The daemon address (`submit` only).
    connect: String,
}

/// `hlts explore` arguments: the sweep job plus its checkpoint and
/// output flags.
struct ExploreOptions {
    job: ExploreRequest,
    journal: Option<String>,
    resume: Option<String>,
    json: bool,
    quiet: bool,
}

fn usage() -> &'static str {
    "usage: hlts [run] <file.dfg | bench:NAME | -> [--flow ours|camad|approach1|approach2]\n\
     \x20            [--bits N] [--k N] [--alpha X] [--beta X] [--atpg]\n\
     \x20            [--fault-sample N] [--tcov-jobs N] [--audit] [--json] [--quiet]\n\
     \x20      hlts explore <source>... [--flow LIST] [--bits LIST] [--k LIST]\n\
     \x20            [--weights A:B,...] [--jobs N] [--warm-start off|on] [--atpg]\n\
     \x20            [--fault-sample N] [--journal PATH | --resume PATH] [--json] [--quiet]\n\
     \x20      hlts gen [--seed N] [--preset NAME] [--list-presets] [--out FILE]\n\
     \x20            [--ops N] [--inputs N] [--const-ratio X] [--mul W] [--addsub W]\n\
     \x20            [--logic W] [--cmp W] [--shift W] [--depth-bias X]\n\
     \x20            [--fanout-skew X] [--loops N] [--name IDENT]\n\
     \x20      hlts serve [--tcp ADDR] [--workers N] [--queue N] [--warm N]\n\
     \x20      hlts submit <file.dfg | bench:NAME | -> --connect ADDR\n\
     \x20            [--flow FLOW] [--bits N] [--k N] [--alpha X] [--beta X] [--atpg]\n\
     \x20            [--fault-sample N] [--tcov-jobs N]\n\
     built-in benchmarks: ex, dct, diffeq, ewf, paulin, tseng"
}

const RUN_FLAGS: &str = "--flow, --bits, --k, --alpha, --beta, --atpg, --fault-sample, \
    --tcov-jobs, --audit, --json, --quiet";
const EXPLORE_FLAGS: &str = "--flow, --bits, --k, --weights, --jobs, --warm-start, --atpg, \
    --fault-sample, --journal, --resume, --json, --quiet";
const SERVE_FLAGS: &str = "--tcp, --workers, --queue, --warm";
const SUBMIT_FLAGS: &str = "--connect, --flow, --bits, --k, --alpha, --beta, --atpg, \
    --fault-sample, --tcov-jobs";
const GEN_FLAGS: &str = "--seed, --preset, --list-presets, --out, --ops, --inputs, \
    --const-ratio, --mul, --addsub, --logic, --cmp, --shift, --depth-bias, --fanout-skew, \
    --loops, --name";

fn unknown_flag(arg: &str, valid: &str) -> String {
    format!(
        "unexpected argument `{arg}` (valid flags: {valid})\n{}",
        usage()
    )
}

/// `--k` values must be positive: `k = 0` would make every iteration's
/// shortlist empty and the paper's parameter meaningless.
fn parse_k(text: &str) -> Result<usize, String> {
    let k: usize = text.parse().map_err(|e| format!("--k: {e}"))?;
    if k == 0 {
        return Err("--k must be >= 1 (the paper's shortlist size)".into());
    }
    Ok(k)
}

/// Weights must be finite and non-negative: a negative or NaN α/β
/// would invert or poison the ΔC = α·ΔE + β·ΔH acceptance rule.
fn parse_weight(flag: &str, text: &str) -> Result<f64, String> {
    let v: f64 = text.parse().map_err(|e| format!("{flag}: {e}"))?;
    if !v.is_finite() || v < 0.0 {
        return Err(format!(
            "{flag} must be a finite non-negative number (got `{text}`)"
        ));
    }
    Ok(v)
}

/// `--fault-sample` must be a non-negative integer; `0` explicitly
/// requests the exhaustive collapsed fault universe.
fn parse_fault_sample(text: &str) -> Result<usize, String> {
    text.parse()
        .map_err(|e| format!("--fault-sample: {e} (0 = exhaustive, N = sample size)"))
}

/// Worker/capacity counts must be positive — zero workers is a sweep
/// (or a grading pass, or a daemon) that can never make progress. One
/// validator serves every such flag (`--jobs`, `--tcov-jobs`,
/// `--workers`, `--queue`) so they all reject `0` through the same
/// typed error path with the same message shape.
fn parse_positive_count(flag: &str, text: &str) -> Result<usize, String> {
    let n: usize = text.parse().map_err(|e| format!("{flag}: {e}"))?;
    if n == 0 {
        return Err(format!("{flag} must be >= 1"));
    }
    Ok(n)
}

/// `--warm-start` takes an explicit mode, not a bare switch: `off` is
/// the documented way to pin today's cold behavior in scripts, and an
/// explicit value keeps future modes (e.g. a trace-budget) additive.
fn parse_warm_start(text: &str) -> Result<bool, String> {
    match text {
        "on" => Ok(true),
        "off" => Ok(false),
        other => Err(format!(
            "--warm-start: unknown mode `{other}` (expected off or on)"
        )),
    }
}

fn take(args: &mut dyn Iterator<Item = String>, what: &str) -> Result<String, String> {
    args.next().ok_or(format!("missing value for {what}"))
}

fn parse_list<T, F: Fn(&str) -> Result<T, String>>(
    text: &str,
    flag: &str,
    parse: F,
) -> Result<Vec<T>, String> {
    let out: Vec<T> = text
        .split(',')
        .filter(|s| !s.is_empty())
        .map(parse)
        .collect::<Result<_, _>>()?;
    if out.is_empty() {
        return Err(format!("{flag}: empty list"));
    }
    Ok(out)
}

/// The request form of a source argument: `bench:NAME` is a built-in
/// benchmark, `-` reads the behavior from stdin (so generated workloads
/// pipe straight through: `hlts gen --seed 7 | hlts run -`), anything
/// else is a file path.
fn source_ref(arg: &str) -> Result<SourceRef, String> {
    if let Some(name) = arg.strip_prefix("bench:") {
        return Ok(SourceRef::Bench(name.to_owned()));
    }
    if arg != "-" {
        return Ok(SourceRef::Path(arg.to_owned()));
    }
    use std::io::Read as _;
    let mut text = String::new();
    std::io::stdin()
        .read_to_string(&mut text)
        .map_err(|e| format!("error: stdin: {e}"))?;
    Ok(SourceRef::Inline {
        name: "stdin".to_owned(),
        text,
    })
}

/// The run-job flags, shared by `run` and `submit`; `--audit`,
/// `--json` and `--quiet` are `run`'s, `--connect` is `submit`'s.
fn parse_run_args(
    mut args: impl Iterator<Item = String>,
    submit: bool,
) -> Result<RunOptions, String> {
    let valid = if submit { SUBMIT_FLAGS } else { RUN_FLAGS };
    // The source is mapped once every flag is known (`-` blocks on
    // stdin), so the placeholder never survives parsing.
    let mut job = RunRequest::new(SourceRef::Path(String::new()));
    let mut source = None;
    let (mut atpg, mut fault_sample, mut tcov_jobs) = (false, None, None);
    let (mut audit, mut json, mut quiet, mut connect) = (false, false, false, String::new());
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--flow" => job.flow = proto::parse_flow(&take(&mut args, "--flow")?)?,
            "--bits" => {
                job.bits = take(&mut args, "--bits")?
                    .parse()
                    .map_err(|e| format!("--bits: {e}"))?;
            }
            "--k" => job.k = Some(parse_k(&take(&mut args, "--k")?)?),
            "--alpha" => job.alpha = Some(parse_weight("--alpha", &take(&mut args, "--alpha")?)?),
            "--beta" => job.beta = Some(parse_weight("--beta", &take(&mut args, "--beta")?)?),
            "--atpg" => atpg = true,
            "--fault-sample" => {
                fault_sample = Some(parse_fault_sample(&take(&mut args, "--fault-sample")?)?);
            }
            "--tcov-jobs" => {
                tcov_jobs = Some(parse_positive_count(
                    "--tcov-jobs",
                    &take(&mut args, "--tcov-jobs")?,
                )?);
            }
            "--audit" if !submit => audit = true,
            "--json" if !submit => json = true,
            "--quiet" if !submit => quiet = true,
            "--connect" if submit => connect = take(&mut args, "--connect")?,
            "--help" | "-h" => return Err(usage().to_owned()),
            // A bare `-` is the stdin source, not a flag.
            other if other.starts_with('-') && other != "-" => {
                return Err(unknown_flag(other, valid))
            }
            other if source.is_none() => source = Some(other.to_owned()),
            other => return Err(unknown_flag(other, valid)),
        }
    }
    let Some(source) = source else {
        return Err(usage().to_owned());
    };
    if !atpg && (fault_sample.is_some() || tcov_jobs.is_some()) {
        return Err("--fault-sample/--tcov-jobs configure coverage grading; add --atpg".into());
    }
    if submit && connect.is_empty() {
        return Err("submit needs --connect ADDR (a running `hlts serve --tcp` daemon)".into());
    }
    job.atpg = atpg.then(|| AtpgRequest::with_overrides(fault_sample, tcov_jobs));
    job.source = source_ref(&source)?;
    Ok(RunOptions {
        job,
        source,
        audit,
        json,
        quiet,
        connect,
    })
}

fn parse_explore_args(mut args: impl Iterator<Item = String>) -> Result<ExploreOptions, String> {
    let mut job = ExploreRequest::new(Vec::new());
    let mut sources = Vec::new();
    let (mut atpg, mut fault_sample) = (false, None);
    let (mut journal, mut resume, mut json, mut quiet) = (None, None, false, false);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--flow" => {
                job.flows = parse_list(&take(&mut args, "--flow")?, "--flow", proto::parse_flow)?;
            }
            "--bits" => {
                job.bits = parse_list(&take(&mut args, "--bits")?, "--bits", |s| {
                    s.parse().map_err(|e| format!("--bits: {e}"))
                })?;
            }
            "--k" => job.ks = parse_list(&take(&mut args, "--k")?, "--k", parse_k)?,
            "--weights" => {
                job.weights = parse_list(&take(&mut args, "--weights")?, "--weights", |s| {
                    let (a, b) = s
                        .split_once(':')
                        .ok_or(format!("--weights: `{s}` is not an alpha:beta pair"))?;
                    Ok((parse_weight("--weights", a)?, parse_weight("--weights", b)?))
                })?;
            }
            "--jobs" => job.jobs = parse_positive_count("--jobs", &take(&mut args, "--jobs")?)?,
            "--warm-start" => {
                job.warm_start = parse_warm_start(&take(&mut args, "--warm-start")?)?;
            }
            "--atpg" => atpg = true,
            "--fault-sample" => {
                fault_sample = Some(parse_fault_sample(&take(&mut args, "--fault-sample")?)?);
            }
            "--journal" => journal = Some(take(&mut args, "--journal")?),
            "--resume" => resume = Some(take(&mut args, "--resume")?),
            "--json" => json = true,
            "--quiet" => quiet = true,
            "--help" | "-h" => return Err(usage().to_owned()),
            // A bare `-` is the stdin source, not a flag.
            other if other.starts_with('-') && other != "-" => {
                return Err(unknown_flag(other, EXPLORE_FLAGS))
            }
            other => sources.push(other.to_owned()),
        }
    }
    if sources.is_empty() {
        return Err(usage().to_owned());
    }
    if journal.is_some() && resume.is_some() {
        return Err("use either --journal (start a checkpoint) or --resume (continue one)".into());
    }
    if !atpg && fault_sample.is_some() {
        return Err("--fault-sample configures coverage grading; add --atpg".into());
    }
    // `--atpg` grades every point: the front becomes Pareto over
    // measured (coverage, test cycles) as well. The sample size joins
    // the sweep fingerprint, so journals from plain and graded sweeps
    // never mix.
    job.tcov = atpg.then(|| AtpgRequest::with_overrides(fault_sample, None).into());
    job.sources = sources
        .iter()
        .map(|s| source_ref(s))
        .collect::<Result<_, _>>()?;
    Ok(ExploreOptions {
        job,
        journal,
        resume,
        json,
        quiet,
    })
}

/// Hand-rolled machine-readable report of one synthesis run. The
/// `metrics` object is rendered by the daemon protocol's
/// [`proto::metrics_json`], so a served result and `hlts run --json`
/// agree byte-for-byte on that fragment.
fn run_json(
    source: &str,
    flow: Flow,
    result: &SynthesisResult,
    atpg: Option<&CoverageReport>,
) -> String {
    let mut out = format!(
        "{{\n  \"source\": {}, \"flow\": {},\n  \"metrics\": {},\n  \"merges\": [{}]",
        dse::json_string(source),
        dse::json_string(flow.name()),
        proto::metrics_json(&result.metrics),
        result
            .merge_log
            .iter()
            .map(|s| dse::json_string(s))
            .collect::<Vec<_>>()
            .join(", "),
    );
    if let Some(report) = atpg {
        // The daemon protocol's coverage object verbatim, so a served
        // graded result and `hlts run --atpg --json` agree
        // byte-for-byte on this fragment. `faults_graded` vs
        // `total_collapsed` makes a sampled estimate explicit.
        out.push_str(&format!(",\n  \"atpg\": {}", proto::coverage_json(report)));
    }
    out.push_str("\n}");
    out
}

/// One-shot synthesis: the run job resolves exactly as a daemon
/// submission does (same parameter policy) and runs through the same
/// [`execute`] path as the daemon's workers (same cancellation
/// boundaries; coverage grading rides the same token), so `hlts run`
/// and a served submission are bit-identical by construction.
fn run_main(args: impl Iterator<Item = String>) -> Result<(), String> {
    let opts = parse_run_args(args, false)?;
    let spec = JobRequest::Run(opts.job.clone())
        .resolve()
        .map_err(|e| format!("error: {e}"))?;
    let ctl = RunCtl::cancel_only(sigint::install());
    let out = match execute(&spec, &ctl, &WarmPool::new(0)) {
        Ok(JobOutput::Run(out)) => *out,
        Ok(_) => return Err("error: internal: run job produced a non-run output".into()),
        Err(e) => return Err(format!("error: {e}")),
    };
    let result = out.result;
    if opts.audit {
        let state = DesignState::from_parts(
            &result.dfg,
            result.schedule.clone(),
            result.allocation.clone(),
        );
        let report = state.audit();
        if !report.is_clean() {
            return Err(format!("error: {report}"));
        }
        if !opts.json {
            println!("audit: clean");
        }
    }
    if opts.json {
        println!(
            "{}",
            run_json(&opts.source, opts.job.flow, &result, out.coverage.as_ref())
        );
        return Ok(());
    }
    if !opts.quiet {
        println!("{}", result.render());
        for m in &result.merge_log {
            println!("  {m}");
        }
    }
    println!(
        "E = {} steps, modules = {}, registers = {}, muxes = {}, H = {:.3}, \
         avg C = {:.2}, avg O = {:.2}, C->O depth = {:.1}",
        result.metrics.execution_time,
        result.metrics.num_modules,
        result.metrics.num_registers,
        result.metrics.mux_count,
        result.metrics.hardware.total(),
        result.metrics.avg_controllability,
        result.metrics.avg_observability,
        result.metrics.co_depth,
    );
    if let Some(r) = &out.coverage {
        // When sampling, say so: a coverage percentage over a sample
        // must never read as an exhaustive grade.
        let universe = if r.faults_graded < r.total_collapsed {
            format!(
                "of {} sampled ({} collapsed total)",
                r.faults_graded, r.total_collapsed
            )
        } else {
            format!("of {} collapsed", r.total_collapsed)
        };
        println!(
            "gates = {}, fault coverage = {:.2}% ({} random + {} deterministic {universe}), \
             effort = {:.0}, test cycles = {}",
            r.gates,
            r.coverage(),
            r.detected_random,
            r.detected_deterministic,
            r.effort(),
            r.test_cycles,
        );
    }
    Ok(())
}

fn explore_main(args: impl Iterator<Item = String>) -> Result<(), String> {
    let opts = parse_explore_args(args)?;
    let mut job = JobRequest::Explore(opts.job)
        .resolve()
        .map_err(|e| format!("error: {e}"))?;
    let JobSpec::Explore { spec, cfg } = &mut job else {
        return Err("error: internal: explore request resolved to a non-explore job".into());
    };
    if let Some(path) = &opts.resume {
        let path = std::path::PathBuf::from(path);
        let scan = dse::load_journal(&path, spec).map_err(|e| format!("error: {e}"))?;
        if scan.malformed > 0 {
            eprintln!(
                "warning: {}: skipped {} malformed journal line(s); \
                 the lost points will be recomputed",
                path.display(),
                scan.malformed
            );
        }
        if scan.torn_tail > 0 {
            eprintln!(
                "warning: {}: dropped a torn final line (interrupted write); \
                 that point will be recomputed",
                path.display()
            );
        }
        cfg.resume = scan.points;
        // Resumed traces re-seed the warm pool, so points computed
        // after the restart still replay their neighbours' merges.
        cfg.resume_traces = scan.traces;
        cfg.resume_malformed = scan.malformed;
        cfg.resume_torn_tail = scan.torn_tail;
        cfg.journal = Some(path);
    } else if let Some(path) = &opts.journal {
        // A fresh checkpoint: start the journal over (resuming an
        // existing one is what --resume is for).
        std::fs::write(path, "").map_err(|e| format!("error: {path}: {e}"))?;
        cfg.journal = Some(path.into());
    }
    // The sweep goes through the unified job executor under the
    // Ctrl-C token: an interrupt stops workers at the next point
    // boundary, the journal is already flushed per append, and the
    // report below carries the partial front plus a
    // `degraded: cancelled` line instead of dying mid-write.
    let ctl = RunCtl::cancel_only(sigint::install());
    let outcome = match execute(&job, &ctl, &WarmPool::new(0)) {
        Ok(JobOutput::Explore(outcome)) => *outcome,
        Ok(_) => return Err("internal: explore job produced a non-explore output".into()),
        Err(e) => return Err(format!("error: {e}")),
    };
    for f in &outcome.failures {
        eprintln!("warning: point {} failed: {}", f.id, f.message);
    }
    if opts.json {
        print!("{}", outcome.render_json());
        return Ok(());
    }
    if opts.quiet {
        let s = &outcome.stats;
        println!(
            "explored {} points ({} computed, {} resumed) on {} worker(s); front: {}",
            s.points_total,
            s.points_computed,
            s.points_resumed,
            s.workers,
            outcome.front_signature(),
        );
    } else {
        print!("{}", outcome.render());
    }
    Ok(())
}

struct GenOptions {
    seed: u64,
    preset: String,
    list_presets: bool,
    out: Option<String>,
    overrides: Vec<(String, String)>,
}

fn parse_gen_args(mut args: impl Iterator<Item = String>) -> Result<GenOptions, String> {
    let mut opts = GenOptions {
        seed: 0,
        preset: "balanced".into(),
        list_presets: false,
        out: None,
        overrides: Vec::new(),
    };
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--seed" => {
                opts.seed = take(&mut args, "--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?;
            }
            "--preset" => opts.preset = take(&mut args, "--preset")?,
            "--list-presets" => opts.list_presets = true,
            "--out" => opts.out = Some(take(&mut args, "--out")?),
            // Knob overrides are collected as (flag, value) and applied
            // on top of the preset; hlts-gen validates the results.
            "--ops" | "--inputs" | "--const-ratio" | "--mul" | "--addsub" | "--logic" | "--cmp"
            | "--shift" | "--depth-bias" | "--fanout-skew" | "--loops" | "--name" => {
                let value = take(&mut args, &arg)?;
                opts.overrides.push((arg, value));
            }
            "--help" | "-h" => return Err(usage().to_owned()),
            other => return Err(unknown_flag(other, GEN_FLAGS)),
        }
    }
    Ok(opts)
}

fn apply_gen_override(
    cfg: &mut hlts::gen::GenConfig,
    flag: &str,
    value: &str,
) -> Result<(), String> {
    let int = |v: &str| v.parse::<usize>().map_err(|e| format!("{flag}: {e}"));
    let weight = |v: &str| v.parse::<u32>().map_err(|e| format!("{flag}: {e}"));
    let ratio = |v: &str| v.parse::<f64>().map_err(|e| format!("{flag}: {e}"));
    match flag {
        "--ops" => cfg.ops = int(value)?,
        "--inputs" => cfg.inputs = int(value)?,
        "--const-ratio" => cfg.const_ratio = ratio(value)?,
        "--mul" => cfg.mul = weight(value)?,
        "--addsub" => cfg.addsub = weight(value)?,
        "--logic" => cfg.logic = weight(value)?,
        "--cmp" => cfg.cmp = weight(value)?,
        "--shift" => cfg.shift = weight(value)?,
        "--depth-bias" => cfg.depth_bias = ratio(value)?,
        "--fanout-skew" => cfg.fanout_skew = ratio(value)?,
        "--loops" => cfg.loop_pairs = int(value)?,
        "--name" => cfg.name = value.to_owned(),
        other => return Err(format!("unknown gen knob `{other}`")),
    }
    Ok(())
}

fn gen_main(args: impl Iterator<Item = String>) -> Result<(), String> {
    let opts = parse_gen_args(args)?;
    if opts.list_presets {
        for name in hlts::gen::PRESET_NAMES {
            let cfg = hlts::gen::preset(name).ok_or(format!("missing preset `{name}`"))?;
            println!(
                "{name}: {} ops, {} inputs, mix */{} +-/{} logic/{} cmp/{} shift/{}, \
                 depth {:.1}, fanout {:.1}, {} loop pair(s)",
                cfg.ops,
                cfg.inputs,
                cfg.mul,
                cfg.addsub,
                cfg.logic,
                cfg.cmp,
                cfg.shift,
                cfg.depth_bias,
                cfg.fanout_skew,
                cfg.loop_pairs,
            );
        }
        return Ok(());
    }
    let mut cfg = hlts::gen::preset(&opts.preset).ok_or(format!(
        "unknown preset `{}` (have: {})",
        opts.preset,
        hlts::gen::PRESET_NAMES.join(", ")
    ))?;
    for (flag, value) in &opts.overrides {
        apply_gen_override(&mut cfg, flag, value)?;
    }
    let dfg = hlts::gen::generate(opts.seed, &cfg).map_err(|e| format!("error: {e}"))?;
    let text = hlts::dfg::emit(&dfg).map_err(|e| format!("error: {e}"))?;
    match &opts.out {
        Some(path) => std::fs::write(path, &text).map_err(|e| format!("error: {path}: {e}"))?,
        None => print!("{text}"),
    }
    Ok(())
}

struct ServeOptions {
    tcp: Option<String>,
    cfg: ServeConfig,
}

fn parse_serve_args(mut args: impl Iterator<Item = String>) -> Result<ServeOptions, String> {
    let mut opts = ServeOptions {
        tcp: None,
        cfg: ServeConfig::default(),
    };
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--tcp" => opts.tcp = Some(take(&mut args, "--tcp")?),
            "--workers" => {
                opts.cfg.workers =
                    parse_positive_count("--workers", &take(&mut args, "--workers")?)?;
            }
            "--queue" => {
                opts.cfg.queue_capacity =
                    parse_positive_count("--queue", &take(&mut args, "--queue")?)?;
            }
            "--warm" => {
                // 0 is meaningful here: it disables warm-context reuse.
                opts.cfg.warm_capacity = take(&mut args, "--warm")?
                    .parse()
                    .map_err(|e| format!("--warm: {e}"))?;
            }
            "--help" | "-h" => return Err(usage().to_owned()),
            other => return Err(unknown_flag(other, SERVE_FLAGS)),
        }
    }
    Ok(opts)
}

/// `hlts serve`: the job daemon. Default mode answers line-delimited
/// JSON requests on stdin/stdout (pipeline-friendly, exercised by the
/// CI smoke gate); `--tcp ADDR` serves concurrent clients over a
/// socket instead.
fn serve_main(args: impl Iterator<Item = String>) -> Result<(), String> {
    let opts = parse_serve_args(args)?;
    match &opts.tcp {
        Some(addr) => {
            let listener =
                std::net::TcpListener::bind(addr).map_err(|e| format!("error: {addr}: {e}"))?;
            let local = listener.local_addr().map_err(|e| format!("error: {e}"))?;
            // Announce the bound address (ADDR may be `host:0`) before
            // serving, so scripts can wait for readiness.
            println!("listening on {local}");
            use std::io::Write as _;
            let _ = std::io::stdout().flush();
            hlts::jobs::serve_tcp(listener, opts.cfg).map_err(|e| format!("error: {e}"))
        }
        None => {
            hlts::jobs::serve_lines(
                std::io::stdin().lock(),
                Box::new(std::io::stdout()),
                opts.cfg,
            );
            Ok(())
        }
    }
}

/// `hlts submit`: one-shot client for a TCP daemon. Streams the job's
/// acknowledgement and event lines to stdout; the exit code reflects
/// how the job ended.
fn submit_main(args: impl Iterator<Item = String>) -> Result<(), String> {
    let RunOptions {
        mut job, connect, ..
    } = parse_run_args(args, true)?;
    // Files ship inline, like stdin, so the daemon's filesystem never
    // matters: `hlts gen | hlts submit -` works against a daemon on
    // another machine.
    if let SourceRef::Path(path) = &job.source {
        let text = std::fs::read_to_string(path).map_err(|e| format!("error: {path}: {e}"))?;
        job.source = SourceRef::Inline {
            name: job.source.name(),
            text,
        };
    }
    let line = proto::render_submit(Some("cli"), &job);
    let mut stdout = std::io::stdout();
    match submit_once(&connect, &line, &mut stdout).map_err(|e| format!("error: {e}"))? {
        ClientEnd::Done => Ok(()),
        ClientEnd::Failed => Err("error: job failed (see the failed event above)".into()),
        ClientEnd::Cancelled => Err("error: job was cancelled".into()),
        ClientEnd::Rejected => Err("error: daemon rejected the request".into()),
    }
}

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1).peekable();
    let outcome = match args.peek().map(String::as_str) {
        Some("explore") => explore_main(args.skip(1)),
        Some("gen") => gen_main(args.skip(1)),
        Some("serve") => serve_main(args.skip(1)),
        Some("submit") => submit_main(args.skip(1)),
        Some("run") => run_main(args.skip(1)),
        _ => run_main(args),
    };
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("{msg}");
            ExitCode::FAILURE
        }
    }
}
