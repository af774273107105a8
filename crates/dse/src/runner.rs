//! The exploration runner: a worker pool over sweep points with shared
//! per-behavior caches and an order-independent Pareto merge.
//!
//! Every behavior in the sweep gets **one** base [`DesignState`] and
//! **one** [`DeltaEvaluator`]; each point forks the base (an
//! `Arc`-sharing copy, not a deep clone) and runs Algorithm 1 through
//! [`IntegratedSynthesizer::run_on_warm`], so the (E, H) measurements
//! that different parameter points happen to share resolve from the
//! common cache.
//! Under `--jobs N` the points are pulled off one atomic counter by `N`
//! scoped threads; each point runs on one thread.
//!
//! Determinism: each point's result is bit-identical however computed
//! (the PR 1–3 equivalences), completed results are merged into the
//! Pareto archive **in point-ID order** after the pool drains, and
//! journal replay restores floats bit-exactly — so the final front is
//! byte-identical for any worker count, with or without resume.

use std::io::Write as _;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::Instant;

use hlts_check::faults;
use hlts_core::baselines;
use hlts_core::{
    CoreError, DeltaEvaluator, DesignState, EvalStats, IntegratedSynthesizer, MergeTrace,
    ProgressEvent, ProgressSink, ReplayStats, RunCtl, SynthesisResult, TestabilityCacheStats,
    TxnStats,
};
use hlts_dfg::Dfg;

use crate::journal::{render_header, render_point, render_trace, JournalScan};
use crate::pareto::{Objectives, ParetoArchive, PointResult, TestObjectives};
use crate::spec::{Flow, PointParams, SweepPoint, SweepSpec, TcovSweep};
use crate::DseError;

/// How a sweep is executed.
#[derive(Debug, Clone, Default)]
pub struct ExploreConfig {
    /// Worker threads (`0` and `1` both mean the in-thread sequential
    /// loop; capped at the number of pending points).
    pub jobs: usize,
    /// Append each completed point to this checkpoint journal (header
    /// written first when the file is empty or new).
    pub journal: Option<std::path::PathBuf>,
    /// Previously completed results to replay instead of recomputing —
    /// normally [`crate::journal::load`]ed via [`load_journal`]. Every
    /// entry must match its spec point (ID and parameters).
    pub resume: Vec<PointResult>,
    /// How many malformed journal lines were skipped while producing
    /// [`ExploreConfig::resume`] ([`JournalScan::malformed`]); carried
    /// into [`ExploreStats::journal_malformed`] so reports surface the
    /// data loss.
    pub resume_malformed: usize,
    /// Whether the resume journal ended in a torn final line that was
    /// dropped ([`JournalScan::torn_tail`]); carried into
    /// [`ExploreStats::journal_torn_tail`].
    pub resume_torn_tail: usize,
    /// Accepted-merge traces recovered from the resume journal
    /// ([`JournalScan::traces`]): on a warm-start sweep they pre-seed
    /// the trace pool, so points computed after a resume can still
    /// replay their already-journalled neighbours.
    pub resume_traces: Vec<(usize, MergeTrace)>,
}

/// Aggregate counters of one [`explore`] call: point accounting,
/// timing, and the shared caches' hit statistics summed over the
/// per-behavior contexts. Like the underlying engine counters these
/// are diagnostics — cache hit counts race benignly under parallel
/// execution and are excluded from any equality the front depends on.
#[derive(Debug, Clone, Copy, Default)]
pub struct ExploreStats {
    /// Points in the sweep.
    pub points_total: usize,
    /// Points actually synthesized by this call.
    pub points_computed: usize,
    /// Points replayed from [`ExploreConfig::resume`].
    pub points_resumed: usize,
    /// Points that failed (synthesis error, journal append error, or a
    /// worker panic/kill) — listed in [`ExploreOutcome::failures`].
    pub points_failed: usize,
    /// Points abandoned because the run's
    /// [`CancelToken`](hlts_core::CancelToken) fired — also listed in
    /// [`ExploreOutcome::failures`], but accounted separately: a
    /// cancelled point is the *user's* doing, not the engine's.
    pub points_cancelled: usize,
    /// Malformed journal lines skipped while loading the resume
    /// checkpoint (from [`ExploreConfig::resume_malformed`]).
    pub journal_malformed: usize,
    /// Torn final journal lines dropped while loading the resume
    /// checkpoint (from [`ExploreConfig::resume_torn_tail`]; `0` or
    /// `1` — an interrupted append leaves at most one).
    pub journal_torn_tail: usize,
    /// Committed merges obtained by replaying a neighbour's trace,
    /// summed over the points *this call* synthesized (resumed points
    /// did no work here and contribute nothing). Zero unless the sweep
    /// ran with warm starts ([`SweepSpec::warm_start`]).
    pub merges_replayed: usize,
    /// Committed merges the scratch loop computed on the points this
    /// call synthesized. On a cold sweep both counters stay zero — the
    /// classic loop does not account its merges here.
    pub merges_recomputed: usize,
    /// Effective worker-thread count used.
    pub workers: usize,
    /// Wall-clock milliseconds of the whole exploration.
    pub wall_millis: u64,
    /// Sum of the computed points' individual wall times (≥
    /// `wall_millis` under parallel execution — the parallelism
    /// payoff is their ratio).
    pub compute_millis: u64,
    /// Testability analyses, summed over the points this call
    /// synthesized.
    pub testability: TestabilityCacheStats,
    /// Shared (E, H) evaluator counters, summed over behaviors.
    pub eval: EvalStats,
    /// Transaction-layer counters, summed over behaviors.
    pub txn: TxnStats,
}

/// The result of one exploration: every point's outcome plus the
/// Pareto front over all of them.
#[derive(Debug, Clone)]
pub struct ExploreOutcome {
    /// All completed point results, in point-ID order.
    pub results: Vec<PointResult>,
    /// The non-dominated subset of `results`, in point-ID order.
    pub front: Vec<PointResult>,
    /// Points that did not complete, in point-ID order. A sweep with
    /// failures still reports the front over everything that finished —
    /// identical to what a clean sweep restricted to those points
    /// yields — so partial results stay usable.
    pub failures: Vec<PointFailure>,
    /// Execution counters.
    pub stats: ExploreStats,
}

/// Why one sweep point produced no result.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PointFailure {
    /// The point's stable ID in its sweep.
    pub id: usize,
    /// Human-readable failure description.
    pub message: String,
}

/// Load a checkpoint journal and check it against `spec`: the recorded
/// fingerprint must match and every recorded point must agree with the
/// spec's enumeration. Returns the scan — completed results ready for
/// [`ExploreConfig::resume`] plus the count of malformed lines skipped
/// (see [`JournalScan`]).
///
/// # Errors
///
/// Unreadable journals, garbled headers, fingerprint mismatch, points
/// that do not belong to `spec`. Malformed point lines are *not*
/// errors: they are skipped and counted, and the lost points simply
/// recompute.
pub fn load_journal(path: &std::path::Path, spec: &SweepSpec) -> Result<JournalScan, DseError> {
    let scan = crate::journal::load(path)?;
    let expected = spec.fingerprint()?;
    if scan.fingerprint != expected {
        return Err(DseError::Journal(format!(
            "journal {} was written for a different sweep \
             (spec {:016x}, expected {expected:016x})",
            path.display(),
            scan.fingerprint,
        )));
    }
    check_resume(&spec.points()?, &scan.points)?;
    Ok(scan)
}

fn check_resume(points: &[SweepPoint], resume: &[PointResult]) -> Result<(), DseError> {
    for r in resume {
        let point = points.get(r.id).ok_or_else(|| {
            DseError::Journal(format!("resumed point {} is outside the sweep", r.id))
        })?;
        if point.params != r.params {
            return Err(DseError::Journal(format!(
                "resumed point {} ran with `{}` but the sweep specifies `{}`",
                r.id,
                r.params.key(),
                point.params.key()
            )));
        }
    }
    Ok(())
}

/// Penalty added to the parameter-space distance when a candidate
/// neighbour ran with a different shortlist depth `k`: a different `k`
/// chunks the candidate list differently, so its trace diverges almost
/// immediately — any same-`k` neighbour, however far in (α, β), beats
/// every different-`k` one.
const K_MISMATCH_PENALTY: f64 = 1.0e9;

/// Choose the warm-start seed neighbour for `target` among `completed`
/// `(point id, params)` pairs: the nearest eligible point by
/// `|Δα| + |Δβ|` (plus a 10⁹ penalty when `k` differs), ties
/// broken toward the smaller id. Eligible means same bench, same bit
/// width, and the integrated flow on both sides — baseline flows
/// commit no merges, so they neither produce nor consume traces.
///
/// This is a **pure function of the set**: the result is independent
/// of the slice's order (the minimum is taken under a total order with
/// the id as final tie-break), so whichever completion order a worker
/// pool produced the same completed set through, the same seed is
/// chosen. The choice only ever shifts *work* between replay and
/// scratch synthesis — never results — but determinism here keeps the
/// replayed/recomputed accounting reproducible at `--jobs 1`.
#[must_use]
pub fn select_seed(completed: &[(usize, &PointParams)], target: &PointParams) -> Option<usize> {
    if target.flow != Flow::Ours {
        return None;
    }
    completed
        .iter()
        .filter(|(_, p)| p.flow == Flow::Ours && p.bench == target.bench && p.bits == target.bits)
        .map(|(id, p)| {
            let mut dist = (p.alpha - target.alpha).abs() + (p.beta - target.beta).abs();
            if p.k != target.k {
                dist += K_MISMATCH_PENALTY;
            }
            (dist, *id)
        })
        .min_by(|a, b| a.0.total_cmp(&b.0).then_with(|| a.1.cmp(&b.1)))
        .map(|(_, id)| id)
}

/// Shared warm-start state of one exploration: every completed
/// integrated point's accepted-merge trace, indexed by point id. The
/// lock is held only to snapshot the completed set or deposit one
/// trace — never across a synthesis.
struct WarmTraces<'a> {
    points: &'a [SweepPoint],
    traces: Mutex<Vec<Option<Arc<MergeTrace>>>>,
}

impl WarmTraces<'_> {
    /// Snapshot the completed set and pick `target`'s seed trace.
    fn seed_for(&self, target: &PointParams) -> Option<Arc<MergeTrace>> {
        let traces = lock_recover(&self.traces);
        let completed: Vec<(usize, &PointParams)> = traces
            .iter()
            .enumerate()
            .filter(|(_, t)| t.is_some())
            .map(|(id, _)| (id, &self.points[id].params))
            .collect();
        let seed = select_seed(&completed, target)?;
        traces[seed].clone()
    }

    fn deposit(&self, id: usize, trace: MergeTrace) {
        lock_recover(&self.traces)[id] = Some(Arc::new(trace));
    }
}

/// One behavior's shared synthesis context.
struct BenchCtx<'a> {
    dfg: &'a Dfg,
    base: DesignState,
    evaluator: DeltaEvaluator,
}

fn synthesize(
    point: &SweepPoint,
    ctx: &BenchCtx<'_>,
    warm: Option<&WarmTraces<'_>>,
    ctl: &RunCtl<'_>,
) -> Result<(SynthesisResult, Option<(MergeTrace, ReplayStats)>), DseError> {
    let params = point.params.synthesis_params();
    // Only the iterative flows can observe mid-point cancellation; the
    // one-shot constructive baselines finish in a single step anyway.
    let run = match point.params.flow {
        Flow::Ours => {
            let seed = warm.and_then(|w| w.seed_for(&point.params));
            let run = IntegratedSynthesizer::new(params)
                .run_on_warm(&ctx.base, &ctx.evaluator, ctl, seed.as_deref())
                .map_err(DseError::Core)?;
            return Ok((run.result, warm.map(|_| (run.trace, run.replay))));
        }
        Flow::Camad => baselines::camad_ctl(ctx.dfg, &params, ctl),
        Flow::Approach1 => baselines::approach1(ctx.dfg, &params),
        Flow::Approach2 => baselines::approach2(ctx.dfg, &params),
    };
    run.map(|r| (r, None)).map_err(DseError::Core)
}

/// Elaborate a completed point to gates and grade its fault coverage
/// (single-threaded; the sweep pool is the parallelism).
fn grade_point(
    point: &SweepPoint,
    run: &SynthesisResult,
    tcov: &TcovSweep,
    ctl: &RunCtl<'_>,
) -> Result<TestObjectives, DseError> {
    let cfg = hlts_tcov::TcovConfig::for_schedule(run.schedule.num_steps(), tcov.sample(), 1);
    let report = hlts_tcov::grade_design(
        &run.dfg,
        &run.schedule,
        &run.allocation,
        point.params.bits,
        &cfg,
        ctl,
    )
    .map_err(|e| match e {
        hlts_tcov::TcovError::Cancelled => DseError::Core(CoreError::Cancelled),
        other => DseError::Coverage(other.to_string()),
    })?;
    Ok(TestObjectives {
        coverage: report.coverage(),
        test_cycles: report.test_cycles,
    })
}

fn run_point(
    point: &SweepPoint,
    ctx: &BenchCtx<'_>,
    tcov: Option<TcovSweep>,
    warm: Option<&WarmTraces<'_>>,
    ctl: &RunCtl<'_>,
) -> Result<(PointResult, Option<String>), DseError> {
    let t0 = Instant::now();
    let (run, captured) = synthesize(point, ctx, warm, ctl)?;
    let test = tcov
        .map(|t| grade_point(point, &run, &t, ctl))
        .transpose()?;
    // On a warm sweep every point carries the accounting pair (baseline
    // flows commit no merges: (0, 0)), keeping the journal schema
    // uniform; the trace line exists only for the integrated flow.
    let replay = match (&captured, warm) {
        (Some((_, stats)), _) => Some((stats.replayed, stats.recomputed)),
        (None, Some(_)) => Some((0, 0)),
        (None, None) => None,
    };
    let trace_line = captured.as_ref().and_then(|(trace, _)| {
        if let Some(w) = warm {
            // The pool feeds in-process neighbours and needs no
            // encoding; the journal line is rendered separately (and
            // skipped in the astronomically unlikely case of an
            // unencodable operand symbol — traces are an optimization).
            w.deposit(point.id, trace.clone());
        }
        render_trace(point.id, trace)
    });
    let m = &run.metrics;
    Ok((
        PointResult {
            id: point.id,
            params: point.params.clone(),
            objectives: Objectives {
                execution_time: m.execution_time,
                hardware: m.hardware.total(),
                avg_controllability: m.avg_controllability,
                avg_observability: m.avg_observability,
                co_depth: m.co_depth,
                test,
            },
            modules: m.num_modules,
            registers: m.num_registers,
            muxes: m.mux_count,
            millis: t0.elapsed().as_millis() as u64,
            resumed: false,
            replay,
            testability: run.testability_stats,
        },
        trace_line,
    ))
}

/// A completed slot: the worker pool writes these, the merge loop
/// drains them in ID order.
type Slot = Option<Result<PointResult, DseError>>;

/// Lock a mutex, recovering from poisoning. The data guarded here
/// (the journal sink, the per-point result slots) is consistent at
/// every await-free store — a panicking worker can only have left a
/// whole append or a whole slot write behind — so the sane response to
/// a poisoned lock is to keep draining the sweep, not to cascade the
/// panic to every surviving worker.
fn lock_recover<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Best-effort text of a panic payload (the two shapes `panic!`
/// produces, else a placeholder).
fn panic_message(payload: &(dyn std::any::Any + Send)) -> &str {
    payload
        .downcast_ref::<&'static str>()
        .copied()
        .or_else(|| payload.downcast_ref::<String>().map(String::as_str))
        .unwrap_or("opaque panic payload")
}

struct Sink {
    file: Option<std::fs::File>,
}

impl Sink {
    fn open(cfg: &ExploreConfig, fingerprint: u64) -> Result<Sink, DseError> {
        let Some(path) = &cfg.journal else {
            return Ok(Sink { file: None });
        };
        let io_err = |e: std::io::Error| DseError::Journal(format!("{}: {e}", path.display()));
        let file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .map_err(io_err)?;
        let len = file.metadata().map_err(io_err)?.len();
        if len == 0 {
            let mut file = file;
            file.write_all(render_header(fingerprint).as_bytes())
                .map_err(io_err)?;
            return Ok(Sink { file: Some(file) });
        }
        // A killed run can leave a torn final line (no trailing
        // newline). Appending after it would corrupt the next line, so
        // drop the tail back to the last completed line first — the
        // exact bytes a resuming [`crate::journal::parse`] ignored.
        let content = std::fs::read(path).map_err(io_err)?;
        if let Some(last_nl) = content.iter().rposition(|&b| b == b'\n') {
            if last_nl + 1 != content.len() {
                file.set_len((last_nl + 1) as u64).map_err(io_err)?;
            }
        }
        Ok(Sink { file: Some(file) })
    }

    /// Append one completed point — and, on warm sweeps, its trace
    /// line immediately *before* it — as a single write+flush, so an
    /// interrupted append can only ever leave a torn tail, never a
    /// trace/point pair with one half missing an earlier line.
    fn append(&mut self, r: &PointResult, trace: Option<&str>) -> Result<(), DseError> {
        if let Some(f) = &mut self.file {
            // Fault-injection sites (inert unless the `test-faults`
            // feature is on AND a plan armed them): a panic while the
            // sink lock is held — poisoning it for every other worker —
            // and a garbled line standing in for mid-file disk
            // corruption.
            assert!(
                !faults::fire(faults::sites::DSE_SINK_PANIC),
                "injected fault: journal sink panicked mid-append"
            );
            let line = if faults::fire(faults::sites::DSE_SINK_CORRUPT) {
                format!("point {} <<injected corruption>>\n", r.id)
            } else {
                format!("{}{}", trace.unwrap_or_default(), render_point(r))
            };
            f.write_all(line.as_bytes())
                .and_then(|()| f.flush())
                .map_err(|e| DseError::Journal(format!("journal write failed: {e}")))?;
        }
        Ok(())
    }
}

/// Shared progress bookkeeping of one exploration: the caller's sink
/// plus the completed-point counter the [`ProgressEvent::PointDone`]
/// events carry. Counter updates race benignly across workers — the
/// (id, total) payload is exact, `completed` is a monotone snapshot.
struct PointProgress<'a> {
    sink: &'a dyn ProgressSink,
    completed: std::sync::atomic::AtomicUsize,
    total: usize,
}

impl PointProgress<'_> {
    fn point_done(&self, id: usize) {
        let completed = 1 + self
            .completed
            .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        self.sink.event(ProgressEvent::PointDone {
            id,
            completed,
            total: self.total,
        });
    }
}

/// Run one point and journal its result, catching panics: a panicking
/// point (or an injected fault) becomes a [`DseError::Worker`] for that
/// point alone instead of tearing down the pool.
fn run_point_guarded(
    point: &SweepPoint,
    ctx: &BenchCtx<'_>,
    tcov: Option<TcovSweep>,
    warm: Option<&WarmTraces<'_>>,
    sink: &Mutex<Sink>,
    ctl: &RunCtl<'_>,
    progress: &PointProgress<'_>,
) -> Result<PointResult, DseError> {
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        let (r, trace_line) = run_point(point, ctx, tcov, warm, ctl)?;
        // A journal failure must not lose the computed result silently;
        // surface it as the point's outcome.
        lock_recover(sink).append(&r, trace_line.as_deref())?;
        progress.point_done(point.id);
        Ok(r)
    }));
    outcome.unwrap_or_else(|payload| {
        Err(DseError::Worker(format!(
            "point {} panicked: {}",
            point.id,
            panic_message(payload.as_ref())
        )))
    })
}

/// Run `spec` under `cfg`: synthesize every point not covered by
/// [`ExploreConfig::resume`], journal completions as they happen, and
/// fold everything into the Pareto front.
///
/// Per-point trouble — a synthesis error, a journal append failure, a
/// panicking worker — does **not** abort the sweep: the point lands in
/// [`ExploreOutcome::failures`], the pool keeps draining, and the front
/// is computed over everything that completed (bit-identical to a
/// clean sweep restricted to those points).
///
/// # Errors
///
/// Sweep-level problems only: invalid specs, resume entries that
/// contradict the spec, and failure to open the checkpoint journal.
pub fn explore(spec: &SweepSpec, cfg: &ExploreConfig) -> Result<ExploreOutcome, DseError> {
    explore_ctl(spec, cfg, &RunCtl::none())
}

/// [`explore`] under an external [`RunCtl`]: cancellation is observed
/// at **two** granularities — workers stop claiming new points, and
/// the point currently synthesizing stops at its next iteration
/// boundary (see [`IntegratedSynthesizer::run_on_ctl`]). Every point
/// finished before the token fired is already journaled (the sink
/// flushes per append), so a cancelled sweep's checkpoint resumes
/// exactly where it stopped; the outcome reports the partial front
/// over the finished points plus [`ExploreStats::points_cancelled`].
/// The sink receives one [`ProgressEvent::PointDone`] per completed
/// point. An unfired token leaves the outcome bit-identical to
/// [`explore`].
///
/// # Errors
///
/// As [`explore`] — cancellation is **not** an error at this level;
/// it degrades the outcome like a per-point failure does.
pub fn explore_ctl(
    spec: &SweepSpec,
    cfg: &ExploreConfig,
    ctl: &RunCtl<'_>,
) -> Result<ExploreOutcome, DseError> {
    let t0 = Instant::now();
    let points = spec.points()?;
    let fingerprint = spec.fingerprint()?;
    check_resume(&points, &cfg.resume)?;

    let mut slots: Vec<Slot> = (0..points.len()).map(|_| None).collect();
    for r in &cfg.resume {
        let mut replay = r.clone();
        replay.resumed = true;
        replay.millis = 0;
        slots[r.id] = Some(Ok(replay));
    }

    let contexts: Vec<BenchCtx<'_>> = spec
        .benches
        .iter()
        .map(|(_, dfg)| {
            Ok(BenchCtx {
                dfg,
                base: DesignState::initial(dfg).map_err(DseError::Core)?,
                evaluator: DeltaEvaluator::new(),
            })
        })
        .collect::<Result<_, DseError>>()?;
    let ctx_index: Vec<usize> = points
        .iter()
        .map(|p| {
            spec.benches
                .iter()
                .position(|(n, _)| *n == p.params.bench)
                .ok_or_else(|| {
                    DseError::Spec(format!(
                        "point {} names unknown bench `{}`",
                        p.id, p.params.bench
                    ))
                })
        })
        .collect::<Result<_, DseError>>()?;

    let pending: Vec<&SweepPoint> = points.iter().filter(|p| slots[p.id].is_none()).collect();
    // The warm-start trace pool, pre-seeded with the resume journal's
    // traces so a resumed sweep replays its own past as readily as a
    // fresh one replays its in-flight neighbours.
    let warm = spec.warm_start.then(|| {
        let mut traces: Vec<Option<Arc<MergeTrace>>> = vec![None; points.len()];
        for (id, trace) in &cfg.resume_traces {
            if let Some(slot) = traces.get_mut(*id) {
                *slot = Some(Arc::new(trace.clone()));
            }
        }
        WarmTraces {
            points: &points,
            traces: Mutex::new(traces),
        }
    });
    let sink = Mutex::new(Sink::open(cfg, fingerprint)?);
    let workers = effective_workers(cfg.jobs, pending.len());
    let progress = PointProgress {
        sink: ctl.progress,
        completed: std::sync::atomic::AtomicUsize::new(cfg.resume.len()),
        total: points.len(),
    };

    if workers <= 1 {
        for point in &pending {
            if ctl.cancel.is_cancelled() {
                break; // unclaimed slots stay None → cancelled below
            }
            if faults::fire(faults::sites::DSE_WORKER_KILL) {
                slots[point.id] = Some(Err(DseError::Worker(format!(
                    "worker killed by fault injection at point {} (point abandoned)",
                    point.id
                ))));
                continue;
            }
            slots[point.id] = Some(run_point_guarded(
                point,
                &contexts[ctx_index[point.id]],
                spec.tcov,
                warm.as_ref(),
                &sink,
                ctl,
                &progress,
            ));
        }
    } else {
        run_pool(
            &pending,
            &contexts,
            &ctx_index,
            spec.tcov,
            warm.as_ref(),
            &sink,
            &mut slots,
            workers,
            ctl,
            &progress,
        );
    }

    let cancelled = ctl.cancel.is_cancelled();
    let mut results = Vec::with_capacity(points.len());
    let mut failures = Vec::new();
    let mut points_cancelled = 0usize;
    for (id, slot) in slots.into_iter().enumerate() {
        match slot {
            Some(Ok(r)) => results.push(r),
            Some(Err(DseError::Core(CoreError::Cancelled))) => {
                points_cancelled += 1;
                failures.push(PointFailure {
                    id,
                    message: "cancelled mid-synthesis (stopped at an iteration boundary)".into(),
                });
            }
            Some(Err(e)) => failures.push(PointFailure {
                id,
                message: e.to_string(),
            }),
            None if cancelled => {
                points_cancelled += 1;
                failures.push(PointFailure {
                    id,
                    message: "cancelled before start".into(),
                });
            }
            None => failures.push(PointFailure {
                id,
                message: "never scheduled (the worker pool died before reaching it)".into(),
            }),
        }
    }

    // The order-independent merge: completion order varied, ID order
    // does not.
    let mut archive = ParetoArchive::new();
    for r in &results {
        archive.insert(r.clone());
    }

    let points_resumed = cfg.resume.len();
    let mut stats = ExploreStats {
        points_total: points.len(),
        points_computed: results.len() - points_resumed,
        points_resumed,
        points_failed: failures.len() - points_cancelled,
        points_cancelled,
        journal_malformed: cfg.resume_malformed,
        journal_torn_tail: cfg.resume_torn_tail,
        workers,
        wall_millis: t0.elapsed().as_millis() as u64,
        compute_millis: results.iter().map(|r| r.millis).sum(),
        ..ExploreStats::default()
    };
    for r in results.iter().filter(|r| !r.resumed) {
        if let Some((rep, rec)) = r.replay {
            stats.merges_replayed += rep;
            stats.merges_recomputed += rec;
        }
        stats.testability.add(r.testability);
    }
    for ctx in &contexts {
        add_eval(&mut stats.eval, ctx.evaluator.stats());
        add_txn(&mut stats.txn, ctx.base.txn_stats());
    }

    Ok(ExploreOutcome {
        results,
        front: archive.into_entries(),
        failures,
        stats,
    })
}

fn effective_workers(jobs: usize, pending: usize) -> usize {
    jobs.clamp(1, pending.max(1))
}

/// Drain `pending` with `workers` scoped threads pulling point indices
/// off one shared counter. Slots are disjoint per point, so each is
/// its own mutex; the journal sink serializes appends.
///
/// Per-point panics are contained by [`run_point_guarded`]; the
/// injected worker-kill fault terminates one thread after it claimed a
/// point (the claimed point is marked failed, every later point stays
/// on the counter for the surviving workers).
#[allow(clippy::too_many_arguments)] // internal: mirrors explore_ctl's locals
fn run_pool(
    pending: &[&SweepPoint],
    contexts: &[BenchCtx<'_>],
    ctx_index: &[usize],
    tcov: Option<TcovSweep>,
    warm: Option<&WarmTraces<'_>>,
    sink: &Mutex<Sink>,
    slots: &mut [Slot],
    workers: usize,
    ctl: &RunCtl<'_>,
    progress: &PointProgress<'_>,
) {
    use std::sync::atomic::{AtomicUsize, Ordering};

    let out: Vec<Mutex<Slot>> = pending.iter().map(|_| Mutex::new(None)).collect();
    let next = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(|| loop {
                    if ctl.cancel.is_cancelled() {
                        break; // stop claiming; unclaimed slots stay None
                    }
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    let Some(point) = pending.get(i) else { break };
                    if faults::fire(faults::sites::DSE_WORKER_KILL) {
                        *lock_recover(&out[i]) = Some(Err(DseError::Worker(format!(
                            "worker killed by fault injection at point {} (point abandoned)",
                            point.id
                        ))));
                        break; // this worker dies; the others drain on
                    }
                    let done = run_point_guarded(
                        point,
                        &contexts[ctx_index[point.id]],
                        tcov,
                        warm,
                        sink,
                        ctl,
                        progress,
                    );
                    *lock_recover(&out[i]) = Some(done);
                })
            })
            .collect();
        for h in handles {
            // `run_point_guarded` contains per-point panics, so a join
            // error is a panic outside any point's scope — nothing to
            // attribute it to; propagate instead of swallowing it.
            if let Err(payload) = h.join() {
                resume_unwind(payload);
            }
        }
    });
    for (point, slot) in pending.iter().zip(out) {
        slots[point.id] = slot.into_inner().unwrap_or_else(PoisonError::into_inner);
    }
}

fn add_eval(into: &mut EvalStats, s: EvalStats) {
    into.state_hits += s.state_hits;
    into.state_misses += s.state_misses;
}

fn add_txn(into: &mut TxnStats, s: TxnStats) {
    into.begun += s.begun;
    into.committed += s.committed;
    into.rolled_back += s.rolled_back;
    into.ops_recorded += s.ops_recorded;
    into.ops_replayed += s.ops_replayed;
}
