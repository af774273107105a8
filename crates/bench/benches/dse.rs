//! Bench gate: parallel design-space exploration on the **largest**
//! bundled benchmark.
//!
//! A 24-point sweep (6 shortlist sizes × 4 weight pairs) of the ewf
//! benchmark runs twice through [`hlts_dse::explore`] — once on one
//! worker, once on four — and the run **asserts** the PR's acceptance
//! criteria:
//!
//! * the Pareto fronts (and every per-point result) are bit-identical
//!   across worker counts, always;
//! * the parallel sweep is faster than the sequential one by
//!   `min(2.0, 0.65 × cpus)`: 1.3× on 2 CPUs, 2× on 4 or more —
//!   checked only when the machine actually has ≥ 2 CPUs (a worker
//!   pool cannot beat physics on a single core; the gate prints a
//!   skip note there instead). On 2 CPUs, 2× is the ceiling, which a
//!   working pool reaches only on noise; 1.3× still fails a pool that
//!   runs its points one at a time (~1×).
//!
//! Points are whole synthesis runs (seconds, not nanoseconds), so this
//! times sweeps directly with `Instant` rather than driving Criterion's
//! batch sampler through ~50 extra runs.

use std::time::Instant;

use hlts_dse::{explore, ExploreConfig, ExploreOutcome, SweepSpec};

/// The speedup asked of 4 workers over 1 on a host with ≥ 4 CPUs.
const SPEEDUP_GATE: f64 = 2.0;
/// The speedup asked per CPU below that: a share of the ceiling of a
/// host with fewer CPUs than workers.
const SPEEDUP_PER_CPU: f64 = 0.65;

fn sweep_spec() -> (String, SweepSpec) {
    let (name, dfg) = hlts_benchmarks::all()
        .into_iter()
        .max_by_key(|(_, d)| d.num_ops())
        .expect("bundled benchmarks");
    let mut spec = SweepSpec::new(vec![(name.to_owned(), dfg)]);
    spec.ks = vec![1, 2, 3, 4, 5, 8];
    spec.weights = vec![(2.0, 1.0), (10.0, 1.0), (1.0, 10.0), (0.1, 10.0)];
    let points = spec.points().expect("valid sweep").len();
    assert!(points >= 24, "gate needs a >=24-point sweep, got {points}");
    (name.to_owned(), spec)
}

fn timed_sweep(spec: &SweepSpec, jobs: usize) -> (f64, ExploreOutcome) {
    let cfg = ExploreConfig {
        jobs,
        ..ExploreConfig::default()
    };
    let t = Instant::now();
    let outcome = explore(spec, &cfg).expect("sweep succeeds");
    (t.elapsed().as_secs_f64(), outcome)
}

fn main() {
    let (name, spec) = sweep_spec();
    let points = spec.points().expect("valid sweep").len();

    let (seq_secs, seq) = timed_sweep(&spec, 1);
    let (par_secs, par) = timed_sweep(&spec, 4);
    println!(
        "dse/explore/{name}  {points} points: sequential {:.2}s, 4 workers {:.2}s \
         (front {} points, {} testability analyses)",
        seq_secs,
        par_secs,
        par.front.len(),
        par.stats.testability.misses,
    );

    // Determinism half of the gate: unconditional.
    assert_eq!(
        seq.front_signature(),
        par.front_signature(),
        "acceptance criterion violated: the {name} Pareto front diverges \
         between 1 and 4 workers"
    );
    assert_eq!(seq.results, par.results, "per-point results diverged");
    println!("acceptance: front bit-identical across 1 and 4 workers on {name} — OK");

    // Throughput half: only meaningful when the pool can actually run
    // workers side by side.
    let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    if cpus < 2 {
        println!(
            "acceptance: parallel faster than sequential — SKIPPED \
             (host has {cpus} CPU; a pool cannot outrun one core)"
        );
        return;
    }
    let gate = SPEEDUP_GATE.min(SPEEDUP_PER_CPU * cpus as f64);
    let mut speedup = seq_secs / par_secs;
    println!("speedup dse/explore/{name:<17} 4 workers vs 1 {speedup:6.1}x");
    if speedup < gate {
        // Noise guard: one re-measurement before failing the gate — a
        // sweep is seconds long, so a single retry is cheap relative
        // to a false negative.
        let (s, _) = timed_sweep(&spec, 1);
        let (p, _) = timed_sweep(&spec, 4);
        speedup = s / p;
        println!("speedup dse/explore/{name:<17} re-measured {speedup:6.1}x");
    }
    assert!(
        speedup >= gate,
        "acceptance criterion violated: the parallel sweep is only {speedup:.2}x \
         the sequential one on {name} with {cpus} CPUs (need >= {gate:.2}x)"
    );
    println!(
        "acceptance: parallel explore >= {gate:.2}x sequential on {name} with {cpus} CPUs \
         — OK ({speedup:.1}x)"
    );
}
