//! What one workload run reports: the correctness verdict, operation
//! counts, and named metrics with units, printed for people first and
//! as one JSON object on the last line.

use crate::calib::Speed;
use crate::stats::percentile;

/// One named measurement.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

pub fn metric(name: &str, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.to_owned(),
        // JSON has no NaN/inf; a ratio over an empty set reads as 0.
        value: if value.is_finite() { value } else { 0.0 },
        unit,
    }
}

/// `num / den`, 0 when nothing was counted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// The result of one workload run.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Every output matched its pin and every determinism check held.
    pub correct: bool,
    /// Operations started (jobs, sweep points, requests).
    pub attempted: u64,
    /// Operations that failed, were refused, or returned a wrong output.
    pub failed: u64,
    /// The end-to-end metrics (untraced runs).
    pub end_to_end: Vec<Metric>,
    /// The per-layer metrics (traced runs).
    pub per_layer: Vec<Metric>,
    /// Human-readable report lines.
    pub notes: Vec<String>,
}

impl Outcome {
    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }

    /// Record a correctness failure of one operation.
    pub fn wrong(&mut self, line: impl Into<String>) {
        self.correct = false;
        self.failed += 1;
        self.notes.push(format!("MISMATCH {}", line.into()));
    }

    /// The machine-readable last line.
    pub fn json(&self, traced: bool) -> String {
        let metrics = if traced {
            &self.per_layer
        } else {
            &self.end_to_end
        };
        let body: Vec<String> = metrics
            .iter()
            .map(|m| {
                format!(
                    "{}: {{\"value\": {}, \"unit\": {}}}",
                    hlts_dse::json_string(&m.name),
                    m.value,
                    hlts_dse::json_string(m.unit)
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            body.join(", ")
        )
    }
}

/// The end-to-end metrics every workload reports, in their fixed order.
/// `latencies_ms` holds one sample per operation (or per operation's
/// median repeat over the run's passes).
pub fn end_to_end(
    throughput_per_s: f64,
    latencies_ms: &[f64],
    cpu_ms_per_op: f64,
    setup_s: f64,
) -> Vec<Metric> {
    vec![
        metric("throughput_per_s", throughput_per_s, "1/s"),
        metric("latency_p50_ms", percentile(latencies_ms, 50.0), "ms"),
        metric("latency_p90_ms", percentile(latencies_ms, 90.0), "ms"),
        metric("cpu_ms_per_job", cpu_ms_per_op, "ms"),
        metric("peak_rss_mb", crate::stats::peak_rss_mb(), "MB"),
        metric("setup_s", setup_s, "s"),
    ]
}

/// Wall and CPU milliseconds of the same operations repeated pass
/// after pass, keyed by operation, each with its place among the
/// reference kernel's runs ([`crate::calib`]).
#[derive(Debug, Default)]
pub struct OpTimes(std::collections::BTreeMap<String, Vec<(f64, f64, usize)>>);

impl OpTimes {
    pub fn add(&mut self, key: &str, ms: f64, cpu_ms: f64, at: usize) {
        self.0
            .entry(key.to_owned())
            .or_default()
            .push((ms, cpu_ms, at));
    }

    pub fn samples(&self) -> usize {
        self.0.values().map(Vec::len).sum()
    }

    /// Each operation's median wall and CPU milliseconds over its
    /// repeats, every repeat scaled to reference speed by the kernel
    /// runs within `reach` of it (`None`: as measured).
    pub fn medians(&self, speed: Option<&Speed>, reach: usize) -> (Vec<f64>, Vec<f64>) {
        self.0
            .values()
            .map(|v| {
                let (ms, cpu): (Vec<f64>, Vec<f64>) = v
                    .iter()
                    .map(|&(ms, cpu, at)| match speed {
                        Some(speed) => {
                            let slow = speed.at(at, reach);
                            (ms / slow.wall, cpu / slow.cpu)
                        }
                        None => (ms, cpu),
                    })
                    .unzip();
                (percentile(&ms, 50.0), percentile(&cpu, 50.0))
            })
            .unzip()
    }
}

/// Per-layer metrics of a workload's own execution, as opposed to the
/// design profile: process CPU, the sweep pool, the daemon's caches
/// and queue, the load generator. A field stays 0 on a workload that
/// does not exercise (or does not measure) that layer.
#[derive(Debug, Default, Clone, Copy)]
pub struct PhaseMetrics {
    /// System CPU / (user + system CPU) of the traced phase.
    pub cpu_sys_share: f64,
    /// Process CPU / (wall × available cores) of the traced phase.
    pub cpu_util: f64,
    /// Traced wall per operation / untraced wall per operation − 1.
    pub trace_overhead_share: f64,
    /// Smallest share of a traced job's (or profiled design's) wall
    /// time that its layer spans cover.
    pub trace_span_coverage: f64,
    /// Σ point time / (sweep wall × sweep workers).
    pub dse_parallel_eff: f64,
    /// Wall on one worker / wall on two: tcov grading workers
    /// (run-atpg), sweep pool workers (sweep).
    pub workers_speedup: f64,
    /// Per graded job on two tcov workers: PODEM outcomes the merge
    /// pass recomputed, and targets skipped on the hint bitmap.
    pub tcov_recomputed: f64,
    pub tcov_hint_skips: f64,
    /// 1 − sweep wall without grading / sweep wall with grading.
    pub dse_grade_share: f64,
    /// Merges replayed / (replayed + recomputed) by warm-start sweeps.
    pub dse_replay_ratio: f64,
    /// Testability-cache hit ratio of the sweep's shared engines.
    pub dse_testability_hit_ratio: f64,
    /// (E, H) evaluator hit ratio of the sweep's shared evaluators.
    pub dse_eval_hit_ratio: f64,
    /// Warm-context hits / lookups of the daemon's pool.
    pub jobs_warm_hit_ratio: f64,
    /// Σ (submit → acknowledgement) / Σ request latency.
    pub jobs_ack_share: f64,
    /// Σ queue wait / Σ request latency.
    pub jobs_queue_share: f64,
    /// Coverage-report memo hits / lookups of the daemon's pool.
    pub tcov_memo_hit_ratio: f64,
    /// Requests over the latency limit (or failed) / requests.
    pub loadgen_slo_miss_ratio: f64,
}

impl PhaseMetrics {
    pub fn metrics(&self) -> Vec<Metric> {
        vec![
            metric("cpu.sys_share", self.cpu_sys_share, "ratio"),
            metric("cpu.util", self.cpu_util, "ratio"),
            metric("trace.overhead_share", self.trace_overhead_share, "ratio"),
            metric("trace.span_coverage", self.trace_span_coverage, "ratio"),
            metric("dse.parallel_eff", self.dse_parallel_eff, "ratio"),
            metric("workers.speedup", self.workers_speedup, "ratio"),
            metric("tcov.recomputed", self.tcov_recomputed, "count"),
            metric("tcov.hint_skips", self.tcov_hint_skips, "count"),
            metric("dse.grade_share", self.dse_grade_share, "ratio"),
            metric("dse.replay_ratio", self.dse_replay_ratio, "ratio"),
            metric(
                "dse.testability.hit_ratio",
                self.dse_testability_hit_ratio,
                "ratio",
            ),
            metric("dse.eval.hit_ratio", self.dse_eval_hit_ratio, "ratio"),
            metric("jobs.warm.hit_ratio", self.jobs_warm_hit_ratio, "ratio"),
            metric("jobs.ack.share", self.jobs_ack_share, "ratio"),
            metric("jobs.queue.share", self.jobs_queue_share, "ratio"),
            metric("tcov.memo.hit_ratio", self.tcov_memo_hit_ratio, "ratio"),
            metric(
                "loadgen.slo_miss_ratio",
                self.loadgen_slo_miss_ratio,
                "ratio",
            ),
        ]
    }

    /// Fill the CPU fields from a phase's CPU delta and wall time.
    pub fn set_cpu(&mut self, cpu: (f64, f64), wall_s: f64) {
        let cores = std::thread::available_parallelism().map_or(1, usize::from) as f64;
        self.cpu_sys_share = ratio(cpu.1, cpu.0 + cpu.1);
        self.cpu_util = ratio((cpu.0 + cpu.1) / 1000.0, wall_s * cores);
    }
}

/// Compare produced output lines against a pinned expectation file
/// (`key<TAB>line` per output; `#` comments). Missing and differing
/// keys are correctness failures; the note shows the produced line so
/// a deliberate change can be re-pinned.
pub fn check_pins(out: &mut Outcome, pins: &str, produced: &[(String, String)]) {
    for (key, line) in produced {
        let pinned = pins
            .lines()
            .filter(|l| !l.starts_with('#'))
            .find_map(|l| l.split_once('\t').filter(|(k, _)| k == key));
        match pinned {
            Some((_, want)) if want == line => {}
            Some((_, want)) => out.wrong(format!("{key}: expected `{want}`, got `{line}`")),
            None => out.wrong(format!("{key}: no pin; produced `{key}\t{line}`")),
        }
    }
}
