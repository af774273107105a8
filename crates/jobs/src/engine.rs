//! The job engine: a bounded FIFO queue feeding a fixed worker pool.
//!
//! Every way the system executes synthesis work — the one-shot `hlts
//! run` / `hlts explore` commands and the `hlts serve` daemon — goes
//! through [`execute`], so cancellation, progress streaming and result
//! reuse behave identically everywhere. The daemon wraps
//! [`execute`] in a [`JobEngine`]: submissions beyond the queue bound
//! are rejected with [`SubmitError::QueueFull`] (backpressure, never
//! unbounded buffering), each job carries its own [`CancelToken`], and
//! per-job events stream to the submitter's [`JobSink`].
//!
//! # Locking rules
//!
//! The engine holds one mutex over queue + job table. Sinks are user
//! code that may block on I/O, so **no engine code calls a sink while
//! holding the state lock** — events are collected under the lock and
//! emitted after it drops. This is what lets a sink implementation
//! hold its own write lock around `submit` to order the submit
//! response before the job's first event (see `hlts-jobs::serve`).

use std::collections::{BTreeMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;

use hlts_check::faults;
use hlts_core::{
    baselines, CancelToken, CoreError, DeltaEvaluator, DesignState, EvalMode,
    IntegratedSynthesizer, ProgressEvent, ProgressSink, RunCtl, SynthesisParams, SynthesisResult,
};
use hlts_dfg::Dfg;
use hlts_dse::{explore_ctl, DseError, ExploreConfig, ExploreOutcome, Flow, SweepSpec, TcovSweep};
use hlts_gen::GenConfig;
use hlts_tcov::{CoverageReport, TcovConfig, TcovError, TcovPool, TcovStats};

/// Engine-assigned job identifier (dense, starting at 1).
pub type JobId = u64;

/// One unit of work, built from a [`crate::proto::JobRequest`] by its
/// `resolve`. The one-shot commands call [`execute`] on it directly,
/// the daemon queues it on a [`JobEngine`].
#[derive(Debug, Clone)]
pub enum JobSpec {
    /// Synthesize one behavior with one flow and parameter set.
    Run {
        /// Display name of the behavior (benchmark name or file stem).
        name: String,
        /// The behavior to synthesize.
        dfg: Dfg,
        /// Which synthesis flow to run.
        flow: Flow,
        /// The flow's parameters (`k`, α, β, bits, library, …).
        params: SynthesisParams,
        /// Always [`EvalMode::Sequential`]; the field remains only while
        /// the end-to-end benchmark still names it (see [`EvalMode`]).
        mode: EvalMode,
        /// Result-memo key: a job submitting the same key and
        /// parameters as an earlier one is answered from the engine's
        /// [`WarmPool`]. The key must uniquely identify the *graph and
        /// module library* (`JobRequest::resolve` hashes the canonical
        /// emitted text; [`WarmPool::new(0)`](WarmPool::new) ignores
        /// it); `None` always synthesizes. Reuse never changes results.
        warm: Option<u64>,
        /// When set, grade the synthesized design's fault coverage
        /// after synthesis (through the engine's [`TcovPool`] memo)
        /// and attach the report to the output.
        atpg: Option<AtpgRequest>,
    },
    /// A design-space sweep (see [`hlts_dse::explore`]).
    Explore {
        /// The sweep grid.
        spec: SweepSpec,
        /// Worker count, journal and resume configuration.
        cfg: ExploreConfig,
    },
    /// Generate a seeded random workload in textual DFG form.
    Gen {
        /// The reproducibility seed.
        seed: u64,
        /// Generator knobs.
        cfg: GenConfig,
    },
}

impl JobSpec {
    /// Short kind tag used in status lines and logs.
    #[must_use]
    pub fn kind(&self) -> &'static str {
        match self {
            JobSpec::Run { .. } => "run",
            JobSpec::Explore { .. } => "explore",
            JobSpec::Gen { .. } => "gen",
        }
    }
}

/// Post-synthesis coverage grading attached to a run job. The graded
/// report is a pure function of (design, `fault_sample`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AtpgRequest {
    /// Grade at most this many collapsed faults, chosen by a seeded
    /// shuffle (`None` = the exhaustive collapsed universe).
    pub fault_sample: Option<usize>,
    /// Ignored: grading runs on one thread. Kept only while the
    /// end-to-end benchmark under `perf/` names it; a change to that
    /// benchmark removes it.
    pub jobs: usize,
}

impl Default for AtpgRequest {
    /// 2000 collapsed faults: enough for a stable coverage estimate on
    /// every built-in benchmark while keeping one-shot runs
    /// interactive.
    fn default() -> AtpgRequest {
        AtpgRequest {
            fault_sample: Some(2000),
            jobs: 1,
        }
    }
}

impl AtpgRequest {
    /// The default request with `fault_sample` overridden (`0` = the
    /// exhaustive collapsed universe).
    #[must_use]
    pub fn with_overrides(fault_sample: Option<usize>) -> AtpgRequest {
        let mut req = AtpgRequest::default();
        if let Some(n) = fault_sample {
            req.fault_sample = (n > 0).then_some(n);
        }
        req
    }
}

/// A sweep grades each point with the request's sample.
impl From<AtpgRequest> for TcovSweep {
    fn from(req: AtpgRequest) -> TcovSweep {
        TcovSweep {
            fault_sample: req.fault_sample.unwrap_or(0),
        }
    }
}

/// A run job's payload: the synthesis result plus, when the spec asked
/// for grading, the measured coverage report.
#[derive(Debug, Clone, PartialEq)]
pub struct RunOutput {
    /// The synthesized design and its metrics.
    pub result: SynthesisResult,
    /// The measured fault-coverage report (present iff the spec
    /// carried an [`AtpgRequest`]).
    pub coverage: Option<CoverageReport>,
}

/// What a finished job produced.
#[derive(Debug)]
pub enum JobOutput {
    /// A [`JobSpec::Run`] job's synthesis result, with coverage when
    /// the spec requested grading.
    Run(Box<RunOutput>),
    /// A [`JobSpec::Explore`] job's outcome (possibly a partial front
    /// when the job was cancelled mid-sweep).
    Explore(Box<ExploreOutcome>),
    /// A [`JobSpec::Gen`] job's emitted DFG text.
    Gen(String),
}

/// Lifecycle of a job. Terminal states are `Done`, `Failed` and
/// `Cancelled`; a cancelled explore job may still carry a partial
/// outcome (every point finished before the token fired).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobState {
    /// Accepted, waiting in the FIFO queue.
    Queued,
    /// Claimed by a worker, executing.
    Running,
    /// Finished successfully; output available.
    Done,
    /// Execution failed; the error string is in [`JobStatus::error`].
    Failed,
    /// Cancelled before or during execution.
    Cancelled,
}

impl JobState {
    /// Whether the state is terminal.
    #[must_use]
    pub fn is_terminal(self) -> bool {
        matches!(
            self,
            JobState::Done | JobState::Failed | JobState::Cancelled
        )
    }

    /// Canonical lowercase name (protocol and log spelling).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            JobState::Queued => "queued",
            JobState::Running => "running",
            JobState::Done => "done",
            JobState::Failed => "failed",
            JobState::Cancelled => "cancelled",
        }
    }
}

/// A point-in-time snapshot of one job.
#[derive(Debug, Clone)]
pub struct JobStatus {
    /// The job's id.
    pub id: JobId,
    /// Current lifecycle state.
    pub state: JobState,
    /// The failure message when `state` is [`JobState::Failed`].
    pub error: Option<String>,
}

/// A per-job event delivered to the submitter's [`JobSink`].
///
/// Borrowed payloads keep the hot path allocation-free; sinks that
/// need to retain data must copy it.
#[derive(Debug)]
pub enum JobEvent<'a> {
    /// A worker claimed the job.
    Started,
    /// Forwarded progress from the synthesis layers (iterations of the
    /// merger loop, completed sweep points).
    Progress(ProgressEvent),
    /// The job finished; the output stays retrievable via
    /// [`JobEngine::take_output`] unless the job was submitted with
    /// [`JobEngine::submit_streaming`].
    Done(&'a JobOutput),
    /// The job failed with this message.
    Failed(&'a str),
    /// The job was cancelled; an explore job cancelled mid-sweep
    /// carries its partial outcome.
    Cancelled(Option<&'a JobOutput>),
}

/// Receives the events of jobs submitted with it. Implementations
/// must tolerate being called from worker threads; the engine never
/// calls a sink while holding its own lock.
pub trait JobSink: Send + Sync {
    /// One event of job `job`.
    fn event(&self, job: JobId, event: &JobEvent<'_>);
}

/// A sink that discards everything.
#[derive(Debug, Default, Clone, Copy)]
pub struct NullJobSink;

impl JobSink for NullJobSink {
    fn event(&self, _job: JobId, _event: &JobEvent<'_>) {}
}

/// Why a submission was rejected. Both cases are backpressure by
/// design: the queue is bounded and a draining engine stops accepting.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SubmitError {
    /// The FIFO queue is at capacity; retry after a job finishes.
    QueueFull {
        /// The configured bound that was hit.
        capacity: usize,
    },
    /// The engine is shutting down and no longer accepts work.
    ShuttingDown,
}

impl std::fmt::Display for SubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SubmitError::QueueFull { capacity } => {
                write!(f, "queue full ({capacity} job(s) pending); retry later")
            }
            SubmitError::ShuttingDown => write!(f, "engine is shutting down"),
        }
    }
}

impl std::error::Error for SubmitError {}

/// What [`JobEngine::cancel`] found.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CancelOutcome {
    /// The job was still queued: removed immediately, never ran.
    Dequeued,
    /// The job is running: its token fired; it stops at the next
    /// iteration/point boundary.
    Signalled,
    /// The job had already reached a terminal state.
    Finished,
    /// No job with that id exists.
    Unknown,
}

impl CancelOutcome {
    /// Canonical lowercase name (protocol spelling).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            CancelOutcome::Dequeued => "dequeued",
            CancelOutcome::Signalled => "signalled",
            CancelOutcome::Finished => "finished",
            CancelOutcome::Unknown => "unknown",
        }
    }
}

/// Sizing of a [`JobEngine`].
#[derive(Debug, Clone, Copy)]
pub struct EngineConfig {
    /// Worker threads (at least 1).
    pub workers: usize,
    /// FIFO queue bound; submissions beyond it get
    /// [`SubmitError::QueueFull`].
    pub queue_capacity: usize,
    /// Warm-pool bound: the result memo keeps `warm_capacity × 8`
    /// results and the coverage memo `warm_capacity` designs (FIFO
    /// eviction).
    pub warm_capacity: usize,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            workers: 2,
            queue_capacity: 16,
            warm_capacity: 8,
        }
    }
}

/// Aggregate engine counters, cheap to snapshot.
#[derive(Debug, Clone, Copy, Default)]
pub struct EngineCounts {
    /// Jobs waiting in the queue.
    pub queued: usize,
    /// Jobs currently executing.
    pub running: usize,
    /// Jobs finished successfully.
    pub done: usize,
    /// Jobs that failed.
    pub failed: usize,
    /// Jobs cancelled (before or during execution).
    pub cancelled: usize,
    /// Result-memo hits (a keyed run job reused an earlier result).
    pub warm_hits: u64,
    /// Algorithm 1 runs (run jobs the memo could not answer).
    pub warm_misses: u64,
    /// Merges replayed from neighbour traces, summed over finished
    /// warm-start explore jobs (including cancelled partials).
    pub merges_replayed: u64,
    /// Merges recomputed from scratch by those same sweeps (scratch
    /// synthesis and post-divergence fallback).
    pub merges_recomputed: u64,
    /// Coverage-memo counters (tier-1 netlist contexts and tier-2
    /// report hits/misses) from the engine's [`TcovPool`].
    pub tcov: TcovStats,
    /// Configured worker count.
    pub workers: usize,
    /// Configured queue bound.
    pub queue_capacity: usize,
}

/// Results kept per unit of pool capacity: a daemon's repeat traffic
/// concentrates on a handful of parameter points per behavior, and each
/// entry holds a full design.
const RESULTS_PER_UNIT: usize = 8;

/// The engine's result memo: a bounded FIFO list of [`Flow::Ours`]
/// results keyed on (caller key, parameter fingerprint), shared by
/// every keyed [`JobSpec::Run`] job the engine executes. Synthesis is
/// deterministic, so a keyed request whose key and full parameter set
/// match an earlier run is answered with that run's result instead of
/// re-running Algorithm 1; a memo miss synthesizes cold, exactly as
/// one-shot `hlts run` does. The bound, `capacity × 8` results with the
/// oldest evicted first, keeps a long-lived daemon's memory
/// proportional to its working set, not its history.
#[derive(Debug)]
pub struct WarmPool {
    /// Most results kept.
    capacity: usize,
    results: Mutex<VecDeque<MemoEntry>>,
    hits: AtomicU64,
    misses: AtomicU64,
    /// The sibling coverage memo: per-netlist fault universes and
    /// graded reports, shared by every [`AtpgRequest`]-carrying run
    /// job (bounded at the capacity [`WarmPool::new`] was given, FIFO
    /// eviction).
    tcov: TcovPool,
}

/// One memo entry: ((caller key, parameter fingerprint), result).
type MemoEntry = ((u64, String), SynthesisResult);

impl WarmPool {
    /// An empty pool holding at most `capacity × 8` results (0 disables
    /// reuse).
    #[must_use]
    pub fn new(capacity: usize) -> WarmPool {
        WarmPool {
            capacity: capacity.saturating_mul(RESULTS_PER_UNIT),
            results: Mutex::new(VecDeque::new()),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            tcov: TcovPool::new(capacity),
        }
    }

    /// The embedded coverage memo pool.
    #[must_use]
    pub fn tcov(&self) -> &TcovPool {
        &self.tcov
    }

    fn lock(&self) -> MutexGuard<'_, VecDeque<MemoEntry>> {
        // Entries are inserted whole, so a poisoned memo is consistent.
        self.results.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn get(&self, slot: &(u64, String)) -> Option<SynthesisResult> {
        let hit = self
            .lock()
            .iter()
            .find(|(key, _)| key == slot)
            .map(|(_, result)| result.clone());
        if hit.is_some() {
            self.hits.fetch_add(1, Ordering::Relaxed);
        }
        hit
    }

    fn put(&self, slot: (u64, String), result: &SynthesisResult) {
        let mut results = self.lock();
        if results.iter().any(|(key, _)| *key == slot) {
            return;
        }
        if results.len() >= self.capacity {
            results.pop_front();
        }
        results.push_back((slot, result.clone()));
    }

    /// (memo hits, Algorithm 1 runs) counters.
    #[must_use]
    pub fn stats(&self) -> (u64, u64) {
        (
            self.hits.load(Ordering::Relaxed),
            self.misses.load(Ordering::Relaxed),
        )
    }
}

/// How [`execute`] failed.
#[derive(Debug)]
pub enum ExecError {
    /// The job's cancel token fired; the work stopped at a clean
    /// boundary and produced no output.
    Cancelled,
    /// The underlying layer failed with this message.
    Failed(String),
}

impl std::fmt::Display for ExecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExecError::Cancelled => write!(f, "cancelled"),
            ExecError::Failed(m) => write!(f, "{m}"),
        }
    }
}

impl std::error::Error for ExecError {}

/// Execute one job spec under a [`RunCtl`]. This is the single
/// executor behind both the one-shot CLI commands and the daemon's
/// workers: same cancellation boundaries, same progress events, same
/// result-memo semantics everywhere.
///
/// A cancelled run/gen job returns [`ExecError::Cancelled`]; a
/// cancelled explore job returns `Ok` with a *partial* outcome
/// (`stats.points_cancelled > 0`), mirroring [`explore_ctl`] — the
/// caller decides whether partial counts as cancelled (the engine's
/// workers do).
///
/// # Errors
///
/// [`ExecError::Failed`] carries the underlying layer's message.
pub fn execute(spec: &JobSpec, ctl: &RunCtl<'_>, warm: &WarmPool) -> Result<JobOutput, ExecError> {
    match spec {
        JobSpec::Run {
            dfg,
            flow,
            params,
            mode,
            warm: key,
            atpg,
            ..
        } => {
            let run = match flow {
                Flow::Ours => {
                    // Keyed (daemon) requests memoize per exact
                    // parameter set. The `Debug` rendering of the
                    // parameters round-trips every field (floats
                    // included), so equal fingerprints really mean
                    // equal inputs. A pool that keeps nothing (one-shot
                    // `hlts run`) has no use for a memo.
                    let slot = key
                        .filter(|_| warm.capacity > 0)
                        .map(|key| (key, format!("{params:?}")));
                    match slot.as_ref().and_then(|slot| warm.get(slot)) {
                        Some(hit) => Ok(hit),
                        None => {
                            warm.misses.fetch_add(1, Ordering::Relaxed);
                            let run = DesignState::initial(dfg).and_then(|base| {
                                IntegratedSynthesizer::new(params.clone()).run_on_ctl(
                                    &base,
                                    *mode,
                                    &DeltaEvaluator::new(),
                                    ctl,
                                )
                            });
                            if let (Some(slot), Ok(result)) = (slot, &run) {
                                warm.put(slot, result);
                            }
                            run
                        }
                    }
                }
                Flow::Camad => baselines::camad_ctl(dfg, params, ctl),
                // The constructive baselines are single-pass; honor a
                // token fired before they start.
                Flow::Approach1 => {
                    cancel_gate(ctl).and_then(|()| baselines::approach1(dfg, params))
                }
                Flow::Approach2 => {
                    cancel_gate(ctl).and_then(|()| baselines::approach2(dfg, params))
                }
            };
            let result = run.map_err(core_err)?;
            // Grading rides the same cancel token as synthesis and is
            // memoized across jobs: repeats of a design answer from
            // the pool's report memo, not a fresh ATPG pass.
            let coverage = match atpg {
                Some(req) => Some(grade_run(&result, params.bits, *req, warm, ctl)?),
                None => None,
            };
            Ok(JobOutput::Run(Box::new(RunOutput { result, coverage })))
        }
        JobSpec::Explore { spec, cfg } => explore_ctl(spec, cfg, ctl)
            .map(|o| JobOutput::Explore(Box::new(o)))
            .map_err(|e| match e {
                DseError::Core(CoreError::Cancelled) => ExecError::Cancelled,
                other => ExecError::Failed(other.to_string()),
            }),
        JobSpec::Gen { seed, cfg } => {
            cancel_gate(ctl).map_err(core_err)?;
            let dfg =
                hlts_gen::generate(*seed, cfg).map_err(|e| ExecError::Failed(e.to_string()))?;
            let text = hlts_dfg::emit(&dfg).map_err(|e| ExecError::Failed(e.to_string()))?;
            Ok(JobOutput::Gen(text))
        }
    }
}

/// Grade a finished run's design through the engine's coverage memo.
fn grade_run(
    result: &SynthesisResult,
    bits: u32,
    req: AtpgRequest,
    warm: &WarmPool,
    ctl: &RunCtl<'_>,
) -> Result<CoverageReport, ExecError> {
    let cfg = TcovConfig::for_schedule(result.schedule.num_steps(), req.fault_sample, 1);
    warm.tcov
        .grade_design(
            &result.dfg,
            &result.schedule,
            &result.allocation,
            bits,
            &cfg,
            ctl,
        )
        .map_err(|e| match e {
            TcovError::Cancelled => ExecError::Cancelled,
            other => ExecError::Failed(other.to_string()),
        })
}

fn cancel_gate(ctl: &RunCtl<'_>) -> Result<(), CoreError> {
    if ctl.cancel.is_cancelled() {
        return Err(CoreError::Cancelled);
    }
    Ok(())
}

fn core_err(e: CoreError) -> ExecError {
    match e {
        CoreError::Cancelled => ExecError::Cancelled,
        other => ExecError::Failed(other.to_string()),
    }
}

type SharedSink = Arc<dyn JobSink>;

struct JobEntry {
    spec: Option<JobSpec>,
    state: JobState,
    cancel: CancelToken,
    /// Held while the job is queued; the claiming worker takes it and
    /// drops it after the terminal event, as do a dequeuing cancel and
    /// shutdown. A sink can own a client connection, which must not
    /// outlive its jobs.
    sink: Option<SharedSink>,
    /// Whether the terminal output is kept for
    /// [`JobEngine::take_output`] (see [`JobEngine::submit_streaming`]).
    keep_output: bool,
    output: Option<JobOutput>,
    error: Option<String>,
}

struct EngineState {
    queue: VecDeque<JobId>,
    jobs: BTreeMap<JobId, JobEntry>,
    next_id: JobId,
    accepting: bool,
}

struct Inner {
    cfg: EngineConfig,
    state: Mutex<EngineState>,
    /// Workers wait here for queue items (or shutdown).
    work: Condvar,
    /// [`JobEngine::wait`]ers wait here for terminal transitions.
    done: Condvar,
    warm: WarmPool,
    /// Warm-start replay counters, accumulated as explore jobs finish.
    merges_replayed: AtomicU64,
    merges_recomputed: AtomicU64,
}

impl Inner {
    fn lock(&self) -> MutexGuard<'_, EngineState> {
        // Workers never panic while holding the lock (execution runs
        // outside it), but a poisoned test engine should still drain.
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// The bounded job queue + worker pool. Dropping the engine shuts it
/// down gracefully ([`JobEngine::shutdown`]): running jobs finish,
/// queued jobs are cancelled, workers join.
pub struct JobEngine {
    inner: Arc<Inner>,
    workers: Mutex<Vec<JoinHandle<()>>>,
}

impl std::fmt::Debug for JobEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("JobEngine")
            .field("cfg", &self.inner.cfg)
            .finish_non_exhaustive()
    }
}

impl JobEngine {
    /// A *paused* engine: configured, accepting submissions, but with
    /// no workers yet — call [`start_workers`](Self::start_workers) to
    /// begin draining. Tests use the pause to fill the queue and
    /// assert backpressure deterministically.
    #[must_use]
    pub fn new(cfg: EngineConfig) -> JobEngine {
        let cfg = EngineConfig {
            workers: cfg.workers.max(1),
            ..cfg
        };
        JobEngine {
            inner: Arc::new(Inner {
                cfg,
                state: Mutex::new(EngineState {
                    queue: VecDeque::new(),
                    jobs: BTreeMap::new(),
                    next_id: 1,
                    accepting: true,
                }),
                work: Condvar::new(),
                done: Condvar::new(),
                warm: WarmPool::new(cfg.warm_capacity),
                merges_replayed: AtomicU64::new(0),
                merges_recomputed: AtomicU64::new(0),
            }),
            workers: Mutex::new(Vec::new()),
        }
    }

    /// A running engine: [`new`](Self::new) +
    /// [`start_workers`](Self::start_workers).
    #[must_use]
    pub fn start(cfg: EngineConfig) -> JobEngine {
        let engine = JobEngine::new(cfg);
        engine.start_workers();
        engine
    }

    /// Spawn the configured worker threads (idempotent: extra calls
    /// are no-ops once the pool is populated).
    pub fn start_workers(&self) {
        let mut workers = self.workers.lock().unwrap_or_else(PoisonError::into_inner);
        if !workers.is_empty() {
            return;
        }
        for n in 0..self.inner.cfg.workers {
            let inner = Arc::clone(&self.inner);
            workers.push(
                std::thread::Builder::new()
                    .name(format!("hlts-job-worker-{n}"))
                    .spawn(move || worker_loop(&inner))
                    .unwrap_or_else(|e| panic!("spawn job worker: {e}")),
            );
        }
    }

    /// The engine's warm pool (the one-shot CLI shares its semantics
    /// by calling [`execute`] with a pool that keeps nothing).
    #[must_use]
    pub fn warm(&self) -> &WarmPool {
        &self.inner.warm
    }

    /// Enqueue a job. Events stream to `sink` (pass `None` to discard
    /// them); the output is retrievable via
    /// [`take_output`](Self::take_output) after the job is done.
    ///
    /// # Errors
    ///
    /// [`SubmitError::QueueFull`] when the FIFO bound is hit,
    /// [`SubmitError::ShuttingDown`] after [`shutdown`](Self::shutdown)
    /// began.
    pub fn submit(&self, spec: JobSpec, sink: Option<SharedSink>) -> Result<JobId, SubmitError> {
        self.enqueue(spec, sink.unwrap_or_else(|| Arc::new(NullJobSink)), true)
    }

    /// [`submit`](Self::submit) for a caller that takes the output from
    /// `sink`'s terminal event alone, as the serve daemon does: the
    /// engine keeps the job's state but drops its output once that event
    /// is out ([`take_output`](Self::take_output) returns `None`), so a
    /// long-running daemon's memory does not grow with every result it
    /// has already sent.
    ///
    /// # Errors
    ///
    /// As for [`submit`](Self::submit).
    pub fn submit_streaming(&self, spec: JobSpec, sink: SharedSink) -> Result<JobId, SubmitError> {
        self.enqueue(spec, sink, false)
    }

    fn enqueue(
        &self,
        spec: JobSpec,
        sink: SharedSink,
        keep_output: bool,
    ) -> Result<JobId, SubmitError> {
        let mut st = self.inner.lock();
        if !st.accepting {
            return Err(SubmitError::ShuttingDown);
        }
        if st.queue.len() >= self.inner.cfg.queue_capacity {
            return Err(SubmitError::QueueFull {
                capacity: self.inner.cfg.queue_capacity,
            });
        }
        let id = st.next_id;
        st.next_id += 1;
        st.jobs.insert(
            id,
            JobEntry {
                spec: Some(spec),
                state: JobState::Queued,
                cancel: CancelToken::new(),
                sink: Some(sink),
                keep_output,
                output: None,
                error: None,
            },
        );
        st.queue.push_back(id);
        drop(st);
        self.inner.work.notify_one();
        Ok(id)
    }

    /// Snapshot one job's status.
    #[must_use]
    pub fn status(&self, id: JobId) -> Option<JobStatus> {
        let st = self.inner.lock();
        st.jobs.get(&id).map(|j| JobStatus {
            id,
            state: j.state,
            error: j.error.clone(),
        })
    }

    /// Snapshot the aggregate counters.
    #[must_use]
    pub fn counts(&self) -> EngineCounts {
        let st = self.inner.lock();
        let mut c = EngineCounts {
            workers: self.inner.cfg.workers,
            queue_capacity: self.inner.cfg.queue_capacity,
            ..EngineCounts::default()
        };
        for j in st.jobs.values() {
            match j.state {
                JobState::Queued => c.queued += 1,
                JobState::Running => c.running += 1,
                JobState::Done => c.done += 1,
                JobState::Failed => c.failed += 1,
                JobState::Cancelled => c.cancelled += 1,
            }
        }
        drop(st);
        (c.warm_hits, c.warm_misses) = self.inner.warm.stats();
        c.merges_replayed = self.inner.merges_replayed.load(Ordering::Relaxed);
        c.merges_recomputed = self.inner.merges_recomputed.load(Ordering::Relaxed);
        c.tcov = self.inner.warm.tcov.stats();
        c
    }

    /// Cancel a job: dequeue it if still queued, fire its token if
    /// running (it stops at the next iteration/point boundary).
    pub fn cancel(&self, id: JobId) -> CancelOutcome {
        let mut st = self.inner.lock();
        let Some(entry) = st.jobs.get_mut(&id) else {
            return CancelOutcome::Unknown;
        };
        match entry.state {
            JobState::Queued => {
                entry.state = JobState::Cancelled;
                entry.cancel.cancel();
                entry.spec = None;
                let sink = entry.sink.take();
                st.queue.retain(|&q| q != id);
                drop(st);
                self.inner.done.notify_all();
                if let Some(sink) = sink {
                    sink.event(id, &JobEvent::Cancelled(None));
                }
                CancelOutcome::Dequeued
            }
            JobState::Running => {
                entry.cancel.cancel();
                CancelOutcome::Signalled
            }
            _ => CancelOutcome::Finished,
        }
    }

    /// Block until the job reaches a terminal state; `None` for an
    /// unknown id.
    #[must_use]
    pub fn wait(&self, id: JobId) -> Option<JobStatus> {
        let mut st = self.inner.lock();
        loop {
            let entry = st.jobs.get(&id)?;
            if entry.state.is_terminal() {
                return Some(JobStatus {
                    id,
                    state: entry.state,
                    error: entry.error.clone(),
                });
            }
            st = self
                .inner
                .done
                .wait(st)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// Move a terminal job's output out of the engine (at most once).
    #[must_use]
    pub fn take_output(&self, id: JobId) -> Option<JobOutput> {
        self.inner.lock().jobs.get_mut(&id)?.output.take()
    }

    /// Graceful shutdown: stop accepting, cancel everything still
    /// queued, let running jobs finish, join the workers. Idempotent.
    pub fn shutdown(&self) {
        let mut st = self.inner.lock();
        st.accepting = false;
        let mut dropped: Vec<(JobId, SharedSink)> = Vec::new();
        while let Some(id) = st.queue.pop_front() {
            if let Some(entry) = st.jobs.get_mut(&id) {
                entry.state = JobState::Cancelled;
                entry.cancel.cancel();
                entry.spec = None;
                if let Some(sink) = entry.sink.take() {
                    dropped.push((id, sink));
                }
            }
        }
        drop(st);
        self.inner.work.notify_all();
        self.inner.done.notify_all();
        for (id, sink) in dropped {
            sink.event(id, &JobEvent::Cancelled(None));
        }
        let workers =
            std::mem::take(&mut *self.workers.lock().unwrap_or_else(PoisonError::into_inner));
        for w in workers {
            let _ = w.join();
        }
    }
}

impl Drop for JobEngine {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Adapts the job sink into the core [`ProgressSink`] a [`RunCtl`]
/// carries, tagging every event with the job id.
struct Forward<'a> {
    job: JobId,
    sink: &'a dyn JobSink,
}

impl ProgressSink for Forward<'_> {
    fn event(&self, event: ProgressEvent) {
        self.sink.event(self.job, &JobEvent::Progress(event));
    }
}

fn worker_loop(inner: &Arc<Inner>) {
    loop {
        // Claim the next job (FIFO) or exit once the engine drains.
        let (id, spec, cancel, sink) = {
            let mut st = inner.lock();
            loop {
                if let Some(&id) = st.queue.front() {
                    st.queue.pop_front();
                    let Some(entry) = st.jobs.get_mut(&id) else {
                        continue;
                    };
                    entry.state = JobState::Running;
                    let spec = entry.spec.take();
                    let cancel = entry.cancel.clone();
                    let sink = entry.sink.take();
                    let (Some(spec), Some(sink)) = (spec, sink) else {
                        // Cancelled between queue pop and entry lookup
                        // cannot happen (cancel dequeues under the same
                        // lock), but stay defensive.
                        entry.state = JobState::Cancelled;
                        continue;
                    };
                    break (id, spec, cancel, sink);
                }
                if !st.accepting {
                    return;
                }
                st = inner.work.wait(st).unwrap_or_else(PoisonError::into_inner);
            }
        };

        // Injected resilience fault: this worker dies right here. The
        // claimed job is reported failed (it never started executing)
        // and the thread is gone — the pool shrinks but the engine
        // keeps serving (see the test-faults suite).
        if faults::fire(faults::sites::JOBS_WORKER_KILL) {
            finish(
                inner,
                id,
                JobState::Failed,
                None,
                Some("worker killed by injected fault".to_owned()),
                sink,
            );
            return;
        }

        sink.event(id, &JobEvent::Started);
        let ctl_sink = Forward {
            job: id,
            sink: sink.as_ref(),
        };
        let ctl = RunCtl {
            cancel: cancel.clone(),
            progress: &ctl_sink,
        };
        // A panicking job must not take the worker (or the pool's
        // determinism) with it: catch, report, keep serving.
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            execute(&spec, &ctl, &inner.warm)
        }));
        match outcome {
            Ok(Ok(output)) => {
                // A cancelled sweep surfaces as a *partial* Ok outcome;
                // classify it as cancelled, with the partial attached.
                let partial = matches!(
                    &output, JobOutput::Explore(o) if o.stats.points_cancelled > 0
                );
                let state = if partial {
                    JobState::Cancelled
                } else {
                    JobState::Done
                };
                finish(inner, id, state, Some(output), None, sink);
            }
            Ok(Err(ExecError::Cancelled)) => {
                finish(inner, id, JobState::Cancelled, None, None, sink);
            }
            Ok(Err(ExecError::Failed(msg))) => {
                finish(inner, id, JobState::Failed, None, Some(msg), sink);
            }
            Err(panic) => {
                let msg = panic_message(&panic);
                finish(
                    inner,
                    id,
                    JobState::Failed,
                    None,
                    Some(format!("job panicked: {msg}")),
                    sink,
                );
            }
        }
    }
}

fn panic_message(panic: &Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = panic.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = panic.downcast_ref::<String>() {
        s.clone()
    } else {
        "unknown panic".to_owned()
    }
}

/// Record a terminal transition: emit the matching event, release the
/// sink, then publish state + output into the table.
///
/// The event goes out *first*, borrowing the still-local output, so no
/// sink ever runs under the state lock (sinks may block on I/O and may
/// hold their own write lock around engine calls — emitting under the
/// lock would be an ABBA deadlock with `submit`). The one observable
/// consequence: a status query racing the terminal event can still see
/// `running` for an instant; [`JobEngine::wait`] and
/// [`JobEngine::take_output`] are only released after the publish.
fn finish(
    inner: &Arc<Inner>,
    id: JobId,
    state: JobState,
    output: Option<JobOutput>,
    error: Option<String>,
    sink: SharedSink,
) {
    if let Some(JobOutput::Explore(o)) = &output {
        inner
            .merges_replayed
            .fetch_add(o.stats.merges_replayed as u64, Ordering::Relaxed);
        inner
            .merges_recomputed
            .fetch_add(o.stats.merges_recomputed as u64, Ordering::Relaxed);
    }
    match state {
        JobState::Done => {
            if let Some(out) = &output {
                sink.event(id, &JobEvent::Done(out));
            }
        }
        JobState::Cancelled => sink.event(id, &JobEvent::Cancelled(output.as_ref())),
        JobState::Failed => sink.event(
            id,
            &JobEvent::Failed(error.as_deref().unwrap_or("unknown failure")),
        ),
        JobState::Queued | JobState::Running => {}
    }
    // Released before the publish, so a waiter never sees a finished
    // job still holding its sink.
    drop(sink);
    {
        let mut st = inner.lock();
        if let Some(entry) = st.jobs.get_mut(&id) {
            entry.state = state;
            entry.output = output.filter(|_| entry.keep_output);
            entry.error = error;
        }
    }
    inner.done.notify_all();
}
