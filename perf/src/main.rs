//! `hlts-perf` — the end-to-end benchmark of hlts.
//!
//! ```text
//! hlts-perf --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--scale full|smoke]
//! hlts-perf NAME [--seed N] [--trace] ...          (same, workload first)
//! hlts-perf all [--seed N] [--seconds S] [--trace 0|1] [--scale full|smoke]
//! hlts-perf repeat NAME RUNS [--seed N] [--fixed-seed] [--seconds S] [--trace 0|1]
//! ```
//!
//! Workloads: `run-atpg`, `explore-atpg`, `sweep`, `serve` (see the
//! README beside this crate). One run measures for about `--seconds`,
//! checks every output against its pin, prints a report and ends with
//! one JSON line: `{"correct", "attempted", "failed", "metrics"}` —
//! the end-to-end metrics, or with `--trace 1` the per-layer metrics
//! of a traced run (spans kept in memory and written to
//! `target/perf/<workload>-<seed>.trace.json`). `all` runs every
//! workload in its own child process; `repeat` runs one workload
//! several times and prints each metric's median and quartiles.

mod calib;
mod corpus;
mod explore;
mod pipeline;
mod report;
mod run_atpg;
mod serve;
mod stats;
mod trace;

use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;

use calib::Speed;
use report::Outcome;
use trace::Tracer;

/// The workloads, in report order.
pub const WORKLOADS: [&str; 4] = ["run-atpg", "explore-atpg", "sweep", "serve"];

/// Run length when `--seconds` is not given (BENCHMARK.json's
/// `run_seconds`).
const DEFAULT_SECONDS: f64 = 25.0;

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPEATS: usize = 21;

/// One workload run's settings.
#[derive(Debug, Clone)]
pub struct Opts {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// `--scale smoke`: the smallest inputs that still cross every
    /// layer, for the smoke test.
    pub smoke: bool,
}

enum Cmd {
    One(Opts),
    All(Opts),
    Repeat {
        opts: Opts,
        runs: usize,
        fixed_seed: bool,
    },
}

fn usage() -> String {
    format!(
        "usage: hlts-perf --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--scale full|smoke]\n\
         \x20      hlts-perf all [--seed N] [--seconds S] [--trace 0|1] [--scale full|smoke]\n\
         \x20      hlts-perf repeat NAME RUNS [--seed N] [--fixed-seed] [--seconds S] [--trace 0|1]\n\
         workloads: {}",
        WORKLOADS.join(", ")
    )
}

fn parse_args(args: &[String]) -> Result<Cmd, String> {
    let mut opts = Opts {
        workload: String::new(),
        seed: 1,
        seconds: 0.0,
        trace: false,
        smoke: false,
    };
    let mut positional: Vec<&str> = Vec::new();
    let mut fixed_seed = false;
    let mut it = args.iter().peekable();
    while let Some(arg) = it.next() {
        let mut value = |flag: &str| {
            it.next()
                .cloned()
                .ok_or(format!("missing value for {flag}"))
        };
        match arg.as_str() {
            "--workload" => opts.workload = value("--workload")?,
            "--seed" => {
                opts.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?;
            }
            "--seconds" => {
                opts.seconds = value("--seconds")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(opts.seconds > 0.0 && opts.seconds.is_finite()) {
                    return Err("--seconds must be a positive number".into());
                }
            }
            "--trace" => {
                // `--trace` alone means on; `--trace 0|1` is explicit.
                opts.trace = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                };
            }
            "--scale" => {
                opts.smoke = match value("--scale")?.as_str() {
                    "smoke" => true,
                    "full" => false,
                    other => return Err(format!("--scale: `{other}` (expected full or smoke)")),
                };
            }
            "--fixed-seed" => fixed_seed = true,
            "--help" | "-h" => return Err(usage()),
            other if other.starts_with("--") => {
                return Err(format!("unknown flag `{other}`\n{}", usage()))
            }
            other => positional.push(other),
        }
    }
    if opts.seconds == 0.0 {
        opts.seconds = if opts.smoke { 1.0 } else { DEFAULT_SECONDS };
    }
    let known = |w: &str| -> Result<String, String> {
        if WORKLOADS.contains(&w) {
            Ok(w.to_owned())
        } else {
            Err(format!("unknown workload `{w}`\n{}", usage()))
        }
    };
    match positional.as_slice() {
        ["all"] => Ok(Cmd::All(opts)),
        ["repeat", w, runs] => {
            opts.workload = known(w)?;
            let runs = runs.parse().map_err(|e| format!("repeat RUNS: {e}"))?;
            Ok(Cmd::Repeat {
                opts,
                runs,
                fixed_seed,
            })
        }
        [w] if opts.workload.is_empty() => {
            opts.workload = known(w)?;
            Ok(Cmd::One(opts))
        }
        [] if !opts.workload.is_empty() => {
            opts.workload = known(&opts.workload)?;
            Ok(Cmd::One(opts))
        }
        _ => Err(usage()),
    }
}

/// Wall seconds and process CPU milliseconds of each whole pass of a
/// workload's fixed unit list, with each pass's place among the
/// reference kernel's runs.
#[derive(Debug, Default, Clone)]
pub struct Passes {
    pub wall_s: Vec<f64>,
    /// Total CPU at full resolution.
    pub cpu_ms: Vec<f64>,
    /// (user, system) in `/proc`'s 10-ms ticks, for the split.
    pub cpu_split_ms: Vec<(f64, f64)>,
    pub at: Vec<usize>,
}

impl Passes {
    pub fn count(&self) -> usize {
        self.wall_s.len()
    }

    pub fn total_wall(&self) -> f64 {
        self.wall_s.iter().sum()
    }

    pub fn total_cpu(&self) -> (f64, f64) {
        self.cpu_split_ms
            .iter()
            .fold((0.0, 0.0), |(u, s), (pu, ps)| (u + pu, s + ps))
    }

    /// The median pass's wall seconds as measured.
    pub fn wall_raw(&self) -> f64 {
        stats::percentile(&self.wall_s, 50.0)
    }

    /// CPU milliseconds per operation of the median pass, at reference
    /// speed.
    pub fn cpu_per_op(&self, ops_per_pass: usize, speed: &Speed) -> f64 {
        let scaled: Vec<f64> = (0..self.count())
            .map(|i| self.cpu_ms[i] / speed.at(self.at[i], PASS_RUNS).cpu)
            .collect();
        report::ratio(stats::percentile(&scaled, 50.0), ops_per_pass as f64)
    }
}

/// Reference-kernel runs after each pass of the daemon's traffic, whose
/// requests overlap too much to sample between; a pass is scaled by
/// their median with the runs before it.
pub const PASS_RUNS: usize = 8;

/// Run whole passes of a workload's fixed unit list — exactly `fixed`
/// of them, or with `fixed == 0` until another pass would overrun
/// `budget_s` (always at least one) — so that every run measures the
/// same composition of work whatever the seed orders. `kernel_runs`
/// reference-kernel runs follow each pass.
pub fn passes(
    budget_s: f64,
    fixed: usize,
    speed: &mut Speed,
    kernel_runs: usize,
    mut pass: impl FnMut(usize, &mut Speed),
) -> Passes {
    let start = Instant::now();
    let mut p = Passes::default();
    loop {
        let (t, cpu, split) = (Instant::now(), stats::process_cpu_ms(), stats::cpu_ms());
        pass(p.count(), speed);
        p.wall_s.push(t.elapsed().as_secs_f64());
        p.cpu_ms.push(stats::process_cpu_ms() - cpu);
        p.cpu_split_ms.push(stats::cpu_since(split));
        p.at.push(speed.sample(kernel_runs));
        let (n, elapsed) = (p.count(), start.elapsed().as_secs_f64());
        let done = if fixed > 0 {
            n >= fixed
        } else {
            elapsed + elapsed / n as f64 > budget_s
        };
        if done {
            return p;
        }
    }
}

/// Reference-kernel runs on either side of an operation that its time
/// is scaled by.
pub const OP_REACH: usize = 3;

/// A workload's set-up and its timings. It runs [`SETUP_REPEATS`] times
/// before the first timed operation and once more after each job,
/// `explore` call or request pass, so that its samples spread over the
/// whole run; each follows one reference-kernel run, which the
/// operation before it also uses as its place. `setup_s` is their
/// median at reference speed.
/// Tearing down a set-up's result is not timed.
pub struct Setup<'a, T> {
    make: Box<dyn FnMut() -> Result<T, String> + 'a>,
    /// Seconds and place of each set-up.
    secs: Vec<(f64, usize)>,
}

impl<'a, T> Setup<'a, T> {
    /// Set up [`SETUP_REPEATS`] times; returns the last set-up's result.
    pub fn new(
        speed: &mut Speed,
        make: impl FnMut() -> Result<T, String> + 'a,
    ) -> Result<(Self, T), String> {
        let mut setup = Setup {
            make: Box::new(make),
            secs: Vec::new(),
        };
        let mut last = setup.time(speed)?;
        for _ in 1..SETUP_REPEATS {
            last = setup.time(speed)?;
        }
        Ok((setup, last))
    }

    fn time(&mut self, speed: &mut Speed) -> Result<T, String> {
        let at = speed.sample(1);
        let t = Instant::now();
        let value = (self.make)()?;
        self.secs.push((t.elapsed().as_secs_f64(), at));
        Ok(value)
    }

    /// Time one more set-up, after an operation; returns the place of
    /// the kernel run between the two.
    pub fn sample(&mut self, speed: &mut Speed) -> usize {
        let value = self
            .time(speed)
            .expect("a set-up that succeeded once succeeds again on the same inputs");
        drop(value);
        self.secs.last().expect("a set-up was just timed").1
    }

    /// The median set-up's seconds at reference speed.
    pub fn median_s(&self, speed: &Speed) -> f64 {
        let scaled: Vec<f64> = self
            .secs
            .iter()
            .map(|&(s, at)| s / speed.at(at, OP_REACH).wall)
            .collect();
        stats::percentile(&scaled, 50.0)
    }

    /// The median set-up's seconds as measured.
    pub fn median_raw_s(&self) -> f64 {
        stats::percentile(&self.secs.iter().map(|s| s.0).collect::<Vec<_>>(), 50.0)
    }

    pub fn samples(&self) -> usize {
        self.secs.len()
    }
}

/// The short commit id of the checkout, read from `.git` when there is
/// one.
fn git_rev() -> String {
    let read = |p: &str| std::fs::read_to_string(p).ok();
    let Some(head) = read(".git/HEAD") else {
        return "unknown".into();
    };
    let head = head.trim();
    let full = match head.strip_prefix("ref: ") {
        None => Some(head.to_owned()),
        Some(name) => read(&format!(".git/{name}"))
            .map(|s| s.trim().to_owned())
            .or_else(|| {
                read(".git/packed-refs")?
                    .lines()
                    .find_map(|l| l.strip_suffix(name).map(|h| h.trim().to_owned()))
            }),
    };
    full.map_or("unknown".into(), |h| h.chars().take(12).collect())
}

/// The header every report starts with.
fn header(o: &Opts) -> String {
    format!(
        "# hlts-perf {} | cpus {} | rev {} | seed {} | scale {} | seconds {} | trace {} | \
         R {}/s | slo_ms {}",
        o.workload,
        std::thread::available_parallelism().map_or(1, usize::from),
        git_rev(),
        o.seed,
        if o.smoke { "smoke" } else { "full" },
        o.seconds,
        u8::from(o.trace),
        serve::RATE_PER_S,
        serve::SLO_MS,
    )
}

fn run_workload(o: &Opts, tracer: &Tracer) -> Result<Outcome, String> {
    match o.workload.as_str() {
        "run-atpg" => run_atpg::run(o, tracer),
        "explore-atpg" => explore::run(o, &explore::explore_atpg(o.smoke), tracer),
        "sweep" => explore::run(o, &explore::sweep(o.smoke), tracer),
        "serve" => serve::run(o, tracer),
        other => Err(format!("unknown workload `{other}`")),
    }
}

/// One workload run in this process.
fn run_one(o: &Opts) -> ExitCode {
    println!("{}", header(o));
    let tracer = Tracer::new(o.trace);
    let outcome = match run_workload(o, &tracer) {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    for line in &outcome.notes {
        println!("{line}");
    }
    for (label, metrics) in [
        ("end-to-end", &outcome.end_to_end),
        ("per-layer", &outcome.per_layer),
    ] {
        for m in metrics {
            println!("{label} {} = {} {}", m.name, m.value, m.unit);
        }
    }
    if o.trace {
        println!("self time by span (count, total ms, self ms):");
        for (name, (count, total, own)) in tracer.self_times() {
            println!("  {name:<18} {count:>6} {total:>12.1} {own:>12.1}");
        }
        let dir = std::path::Path::new("target").join("perf");
        let path = dir.join(format!("{}-{}.trace.json", o.workload, o.seed));
        match std::fs::create_dir_all(&dir)
            .and_then(|()| std::fs::write(&path, tracer.to_json(&o.workload, o.seed)))
        {
            Ok(()) => println!("spans written to {}", path.display()),
            Err(e) => println!("spans not written ({}: {e})", path.display()),
        }
    }
    println!("{}", outcome.json(o.trace));
    if outcome.correct && outcome.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Run one workload in a child process of this binary; returns its
/// stdout and whether it exited successfully.
fn child(o: &Opts) -> Result<(String, bool), String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let out = Command::new(exe)
        .args([
            "--workload",
            &o.workload,
            "--seed",
            &o.seed.to_string(),
            "--seconds",
            &o.seconds.to_string(),
            "--trace",
            if o.trace { "1" } else { "0" },
            "--scale",
            if o.smoke { "smoke" } else { "full" },
        ])
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawn {}: {e}", o.workload))?;
    Ok((
        String::from_utf8_lossy(&out.stdout).into_owned(),
        out.status.success(),
    ))
}

/// `(name, value, unit)` of each metric a run printed.
type Printed = Vec<(String, f64, String)>;

/// The verdict and metrics of a child's last line.
fn parse_result(stdout: &str) -> Option<(bool, Printed)> {
    let doc = hlts_jobs::json::parse(stdout.lines().last()?).ok()?;
    let correct = doc.get("correct")?.as_bool()?;
    let hlts_jobs::json::Json::Obj(fields) = doc.get("metrics")? else {
        return None;
    };
    let metrics = fields
        .iter()
        .filter_map(|(name, m)| {
            Some((
                name.clone(),
                m.get("value")?.as_f64()?,
                m.get("unit")?.as_str()?.to_owned(),
            ))
        })
        .collect();
    Some((correct, metrics))
}

fn run_all(o: &Opts) -> ExitCode {
    let mut ok = true;
    for w in WORKLOADS {
        let opts = Opts {
            workload: w.to_owned(),
            ..o.clone()
        };
        match child(&opts) {
            Ok((stdout, success)) => {
                print!("{stdout}");
                ok &= success && parse_result(&stdout).is_some_and(|(c, _)| c);
            }
            Err(e) => {
                eprintln!("error: {e}");
                ok = false;
            }
        }
        println!();
    }
    println!("all workloads: {}", if ok { "correct" } else { "FAILED" });
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn repeat(o: &Opts, runs: usize, fixed_seed: bool) -> ExitCode {
    println!("{}", header(o));
    let mut series: Vec<(String, String, Vec<f64>)> = Vec::new();
    let mut ok = true;
    for i in 0..runs {
        let opts = Opts {
            seed: if fixed_seed {
                o.seed
            } else {
                o.seed + i as u64
            },
            ..o.clone()
        };
        let parsed = child(&opts)
            .ok()
            .filter(|(_, success)| *success)
            .and_then(|(stdout, _)| parse_result(&stdout));
        let Some((correct, metrics)) = parsed else {
            println!("run {} (seed {}): failed", i + 1, opts.seed);
            ok = false;
            continue;
        };
        ok &= correct;
        let values: Vec<String> = metrics
            .iter()
            .map(|(n, v, _)| format!("{n}={v:.4}"))
            .collect();
        println!(
            "run {} (seed {}): correct {correct} | {}",
            i + 1,
            opts.seed,
            values.join(" ")
        );
        for (name, value, unit) in metrics {
            match series.iter_mut().find(|(n, _, _)| *n == name) {
                Some((_, _, v)) => v.push(value),
                None => series.push((name, unit, vec![value])),
            }
        }
    }
    // A metric whose quartiles lie more than STEADY apart is flagged:
    // its runs cannot resolve a change of that size.
    const STEADY: f64 = 0.10;
    println!(
        "{:<28} {:>12} {:>12} {:>12} {:>8}  unit",
        "metric", "q1", "median", "q3", "spread"
    );
    for (name, unit, values) in &series {
        let (q1, med, q3) = stats::quartiles(values);
        let spread = report::ratio(q3 - q1, med.abs());
        println!(
            "{name:<28} {q1:>12.4} {med:>12.4} {q3:>12.4} {:>7.1}%  {unit}{}",
            spread * 100.0,
            if spread > STEADY { "  (unsteady)" } else { "" }
        );
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match parse_args(&args) {
        Ok(Cmd::One(o)) => run_one(&o),
        Ok(Cmd::All(o)) => run_all(&o),
        Ok(Cmd::Repeat {
            opts,
            runs,
            fixed_seed,
        }) => repeat(&opts, runs, fixed_seed),
        Err(msg) => {
            eprintln!("{msg}");
            ExitCode::FAILURE
        }
    }
}
