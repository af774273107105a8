//! The line-delimited JSON protocol of `hlts serve`, and the one place
//! a job description becomes executable work.
//!
//! One request per line in, one response per line out, plus streamed
//! per-job event lines. This module parses request lines into
//! [`Request`] values and renders responses, events and the `hlts
//! submit` request line ([`render_submit`]) as single-line JSON strings
//! through the shared writer in [`crate::json`]; the CLI's `--json`
//! reports reuse the same members ([`run_fields`], [`coverage_fields`])
//! and [`explore_report_json`]. A [`JobRequest`] is the only way a job
//! is described: the daemon parses one from each submit line, `hlts run`
//! and `hlts explore` fill one from their flags, and both turn it into
//! a [`JobSpec`] through [`JobRequest::resolve`], which loads the
//! sources and applies the run parameter policy. The I/O and engine
//! wiring live in [`crate::serve`].
//!
//! # Requests
//!
//! ```text
//! {"op":"submit","id":"c1","job":{"kind":"run","source":"bench:ewf",
//!     "flow":"ours","bits":8,"k":3,"alpha":10,"beta":1}}
//! {"op":"submit","job":{"kind":"run","dfg":"dfg t { ... }"}}
//! {"op":"submit","job":{"kind":"explore","sources":["bench:ex"],
//!     "flows":["ours","camad"],"ks":[1,3],"weights":[[2,1],[1,10]],
//!     "bits":[8],"jobs":2}}
//! {"op":"submit","job":{"kind":"gen","seed":7,"preset":"balanced"}}
//! {"op":"status","id":"s1"}
//! {"op":"cancel","job":3}
//! {"op":"shutdown"}
//! ```
//!
//! `id` is an optional client-chosen correlation string, echoed on the
//! response — including on *error* responses whenever the line was
//! valid JSON carrying one. A malformed line is answered with
//! `{"ok":false,...}` and counted; it never terminates the connection
//! or the daemon.
//!
//! # Responses and events
//!
//! ```text
//! {"ok":true,"id":"c1","job":3}
//! {"ok":false,"id":"c1","error":"..."}
//! {"event":"started","job":3}
//! {"event":"iteration","job":3,"iteration":4,"merges":4}
//! {"event":"point_done","job":3,"point":7,"completed":3,"total":12}
//! {"event":"done","job":3,"result":{...}}
//! {"event":"cancelled","job":3,"partial":{...}}
//! {"event":"failed","job":3,"error":"..."}
//! ```

use hlts_core::{DesignMetrics, EvalMode, ProgressEvent, SynthesisParams, SynthesisResult};
use hlts_dfg::{Dfg, SymStats};
use hlts_dse::{ExploreConfig, ExploreOutcome, Flow, SweepSpec, TcovSweep};
use hlts_tcov::CoverageReport;

use crate::engine::{
    AtpgRequest, CancelOutcome, EngineCounts, JobEvent, JobId, JobOutput, JobSpec,
};
use crate::json::{self, Json, Obj};
use crate::members;

/// A reference to a behavior source, loaded by [`JobRequest::resolve`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SourceRef {
    /// A built-in benchmark (`bench:NAME`).
    Bench(String),
    /// A file path, read where the request is resolved.
    Path(String),
    /// Inline textual DFG, shipped in the request (what `hlts submit`
    /// sends so the daemon's working directory never matters).
    Inline {
        /// Display name for reports.
        name: String,
        /// The DFG text.
        text: String,
    },
}

impl SourceRef {
    /// The display name used in reports and sweep specs.
    #[must_use]
    pub fn name(&self) -> String {
        match self {
            SourceRef::Bench(name) => name.clone(),
            SourceRef::Path(path) => std::path::Path::new(path)
                .file_stem()
                .map_or_else(|| path.clone(), |s| s.to_string_lossy().into_owned()),
            SourceRef::Inline { name, .. } => name.clone(),
        }
    }
}

/// One synthesis run: the `run` job kind, and what `hlts run` and
/// `hlts submit` parse their flags into.
#[derive(Debug, Clone, PartialEq)]
pub struct RunRequest {
    /// The behavior.
    pub source: SourceRef,
    /// The flow (default `ours`).
    pub flow: Flow,
    /// Bit width (default 8).
    pub bits: u32,
    /// Shortlist size override.
    pub k: Option<usize>,
    /// α override.
    pub alpha: Option<f64>,
    /// β override.
    pub beta: Option<f64>,
    /// Post-synthesis coverage grading (`"atpg": true` or
    /// `{"fault_sample": N}`; absent = no grading).
    pub atpg: Option<AtpgRequest>,
}

impl RunRequest {
    /// A run of `source` with every knob at its default.
    #[must_use]
    pub fn new(source: SourceRef) -> RunRequest {
        RunRequest {
            source,
            flow: Flow::Ours,
            bits: 8,
            k: None,
            alpha: None,
            beta: None,
            atpg: None,
        }
    }
}

/// A parameter sweep: the `explore` job kind, and what `hlts explore`
/// parses its flags into.
#[derive(Debug, Clone, PartialEq)]
pub struct ExploreRequest {
    /// The behaviors.
    pub sources: Vec<SourceRef>,
    /// Flows of the grid (default `[ours]`).
    pub flows: Vec<Flow>,
    /// Shortlist sizes (default `[3]`).
    pub ks: Vec<usize>,
    /// (α, β) pairs (default the paper's three).
    pub weights: Vec<(f64, f64)>,
    /// Bit widths (default `[8]`).
    pub bits: Vec<u32>,
    /// Sweep-internal worker threads (default 1).
    pub jobs: usize,
    /// Coverage grading per point (`"atpg": true` or
    /// `{"fault_sample": N}`; absent = plain objectives).
    pub tcov: Option<TcovSweep>,
    /// Warm-start trace replay across sweep neighbours
    /// (`"warm_start": true`; default off — off is bit-identical
    /// to the pre-warm-start protocol).
    pub warm_start: bool,
}

impl ExploreRequest {
    /// A sweep of `sources` over the default grid.
    #[must_use]
    pub fn new(sources: Vec<SourceRef>) -> ExploreRequest {
        ExploreRequest {
            sources,
            flows: vec![Flow::Ours],
            ks: vec![3],
            weights: vec![(2.0, 1.0), (10.0, 1.0), (1.0, 10.0)],
            bits: vec![8],
            jobs: 1,
            tcov: None,
            warm_start: false,
        }
    }
}

/// A job description (declarative; [`JobRequest::resolve`] loads the
/// sources and builds the executable [`JobSpec`]).
#[derive(Debug, Clone, PartialEq)]
pub enum JobRequest {
    /// One synthesis run.
    Run(RunRequest),
    /// A parameter sweep.
    Explore(ExploreRequest),
    /// Workload generation.
    Gen {
        /// The reproducibility seed (default 0).
        seed: u64,
        /// Preset name (default `balanced`).
        preset: String,
    },
}

/// FNV-1a over the canonical source text: the result-memo key for run
/// jobs (same text + same parameters ⇒ same result; every job
/// synthesizes with the default module library, which the key
/// therefore need not encode).
fn warm_key(text: &str) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for byte in text.as_bytes() {
        hash ^= u64::from(*byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// Resolve a source reference into a named graph plus its canonical
/// text. A file that fails to parse is reported by its path, an inline
/// source by its name.
fn resolve_source(source: &SourceRef) -> Result<(String, Dfg, String), String> {
    let (text, label) = match source {
        SourceRef::Bench(name) => {
            let dfg = hlts_benchmarks::by_name(name).ok_or_else(|| {
                format!(
                    "unknown benchmark `{name}` (have: {})",
                    hlts_benchmarks::NAMES.join(", ")
                )
            })?;
            let text = hlts_dfg::emit(&dfg).map_err(|e| e.to_string())?;
            return Ok((source.name(), dfg, text));
        }
        SourceRef::Path(path) => (
            std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?,
            path,
        ),
        SourceRef::Inline { name, text } => (text.clone(), name),
    };
    let dfg = hlts_dfg::parse(&text).map_err(|e| format!("{label}: {e}"))?;
    Ok((source.name(), dfg, text))
}

impl JobRequest {
    /// Build the executable spec: load the sources and apply the run
    /// parameter policy — the paper's parameters for the bit width
    /// ([`SynthesisParams::paper_defaults`]), the CAMAD flow's
    /// area-optimised (0.1, 10) weights, then the request's `k`/α/β
    /// overrides. The daemon and the one-shot CLI both resolve through
    /// here, so a served submission and `hlts run` of the same request
    /// are bit-identical.
    ///
    /// # Errors
    ///
    /// An unknown benchmark or preset, an unreadable file, or a source
    /// that fails to parse.
    pub fn resolve(&self) -> Result<JobSpec, String> {
        match self {
            JobRequest::Run(run) => {
                let (name, dfg, text) = resolve_source(&run.source)?;
                let mut params = SynthesisParams::paper_defaults(run.bits);
                if run.flow == Flow::Camad {
                    params.alpha = 0.1;
                    params.beta = 10.0;
                }
                if let Some(k) = run.k {
                    params.k = k;
                }
                if let Some(a) = run.alpha {
                    params.alpha = a;
                }
                if let Some(b) = run.beta {
                    params.beta = b;
                }
                Ok(JobSpec::Run {
                    name,
                    warm: Some(warm_key(&text)),
                    dfg,
                    flow: run.flow,
                    params,
                    mode: EvalMode::Sequential,
                    atpg: run.atpg,
                })
            }
            JobRequest::Explore(req) => {
                let mut benches = Vec::new();
                for source in &req.sources {
                    let (name, dfg, _) = resolve_source(source)?;
                    benches.push((name, dfg));
                }
                let spec = SweepSpec {
                    benches,
                    flows: req.flows.clone(),
                    ks: req.ks.clone(),
                    weights: req.weights.clone(),
                    bits: req.bits.clone(),
                    extra: Vec::new(),
                    tcov: req.tcov,
                    warm_start: req.warm_start,
                };
                let cfg = ExploreConfig {
                    jobs: req.jobs,
                    ..ExploreConfig::default()
                };
                Ok(JobSpec::Explore { spec, cfg })
            }
            JobRequest::Gen { seed, preset } => {
                let cfg = hlts_gen::preset(preset).ok_or_else(|| {
                    format!(
                        "unknown preset `{preset}` (have: {})",
                        hlts_gen::PRESET_NAMES.join(", ")
                    )
                })?;
                Ok(JobSpec::Gen { seed: *seed, cfg })
            }
        }
    }
}

/// A parsed protocol request.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Enqueue a job.
    Submit {
        /// Client correlation id, echoed on the response.
        id: Option<String>,
        /// What to run.
        job: JobRequest,
    },
    /// Report engine counters, interner stats and protocol health.
    Status {
        /// Client correlation id.
        id: Option<String>,
    },
    /// Cancel a job by engine id.
    Cancel {
        /// Client correlation id.
        id: Option<String>,
        /// The engine-assigned job id to cancel.
        job: JobId,
    },
    /// Stop accepting, finish running jobs, exit.
    Shutdown {
        /// Client correlation id.
        id: Option<String>,
    },
}

/// A rejected request line: the message plus the client id when the
/// line was good enough JSON to carry one (so clients can correlate
/// even their malformed requests).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReqError {
    /// Echoed client correlation id, when recoverable.
    pub id: Option<String>,
    /// What was wrong.
    pub message: String,
}

impl ReqError {
    fn new(id: &Option<String>, message: impl Into<String>) -> ReqError {
        ReqError {
            id: id.clone(),
            message: message.into(),
        }
    }
}

fn opt_str(v: &Json, key: &str) -> Result<Option<String>, String> {
    match v.get(key) {
        None | Some(Json::Null) => Ok(None),
        Some(s) => s
            .as_str()
            .map(|s| Some(s.to_owned()))
            .ok_or_else(|| format!("`{key}` must be a string")),
    }
}

/// Parse one request line.
///
/// # Errors
///
/// [`ReqError`] describing the problem, with the client id echoed when
/// the line was valid JSON.
pub fn parse_request(line: &str) -> Result<Request, ReqError> {
    let doc = json::parse(line).map_err(|e| ReqError {
        id: None,
        message: format!("not valid JSON: {e}"),
    })?;
    if !matches!(doc, Json::Obj(_)) {
        return Err(ReqError {
            id: None,
            message: "request must be a JSON object".to_owned(),
        });
    }
    // From here on the id is recoverable — echo it on every error.
    let id = opt_str(&doc, "id").map_err(|m| ReqError {
        id: None,
        message: m,
    })?;
    let op = doc
        .get("op")
        .and_then(Json::as_str)
        .ok_or_else(|| ReqError::new(&id, "missing `op` (submit, status, cancel, shutdown)"))?;
    match op {
        "submit" => {
            let job = doc
                .get("job")
                .ok_or_else(|| ReqError::new(&id, "submit needs a `job` object"))?;
            let job = parse_job(job).map_err(|m| ReqError::new(&id, m))?;
            Ok(Request::Submit { id, job })
        }
        "status" => Ok(Request::Status { id }),
        "cancel" => {
            let job = doc
                .get("job")
                .and_then(Json::as_u64)
                .ok_or_else(|| ReqError::new(&id, "cancel needs a numeric `job` id"))?;
            Ok(Request::Cancel { id, job })
        }
        "shutdown" => Ok(Request::Shutdown { id }),
        other => Err(ReqError::new(
            &id,
            format!("unknown op `{other}` (expected submit, status, cancel or shutdown)"),
        )),
    }
}

/// The submit line for one run job: the inverse of [`parse_request`]
/// on run jobs (`hlts submit` sends it). Every knob is written out, so
/// the line means the same to any daemon.
#[must_use]
pub fn render_submit(id: Option<&str>, run: &RunRequest) -> String {
    json::object(|o| {
        o.field("op", "submit").opt("id", id).obj("job", |job| {
            job.field("kind", "run");
            match &run.source {
                SourceRef::Bench(name) => members!(job, "source": format!("bench:{name}")),
                SourceRef::Path(path) => members!(job, "source": path),
                SourceRef::Inline { name, text } => {
                    members!(job, "source": {"name": name, "dfg": text});
                }
            }
            members!(job, "flow": run.flow.name(), "bits": run.bits);
            job.opt("k", run.k)
                .opt("alpha", run.alpha)
                .opt("beta", run.beta);
            if let Some(atpg) = run.atpg {
                members!(job, "atpg": {"fault_sample": atpg.fault_sample.unwrap_or(0)});
            }
        });
    })
}

fn parse_source(v: &Json) -> Result<SourceRef, String> {
    if let Some(text) = v.as_str() {
        return Ok(match text.strip_prefix("bench:") {
            Some(name) => SourceRef::Bench(name.to_owned()),
            None => SourceRef::Path(text.to_owned()),
        });
    }
    if matches!(v, Json::Obj(_)) {
        let text = v
            .get("dfg")
            .and_then(Json::as_str)
            .ok_or("inline source needs a `dfg` string")?;
        let name = v
            .get("name")
            .and_then(Json::as_str)
            .unwrap_or("inline")
            .to_owned();
        return Ok(SourceRef::Inline {
            name,
            text: text.to_owned(),
        });
    }
    Err("source must be a string (`bench:NAME` or a path) or an inline object".to_owned())
}

/// A flow by name, with the error message every front end shares.
///
/// # Errors
///
/// An unknown flow name.
pub fn parse_flow(s: &str) -> Result<Flow, String> {
    Flow::parse(s)
        .ok_or_else(|| format!("unknown flow `{s}` (expected ours, camad, approach1 or approach2)"))
}

fn parse_k(v: &Json) -> Result<usize, String> {
    let k = v.as_usize().ok_or("`k` must be a non-negative integer")?;
    if k == 0 {
        return Err("`k` must be >= 1 (the paper's shortlist size)".to_owned());
    }
    Ok(k)
}

fn parse_weight(v: &Json, what: &str) -> Result<f64, String> {
    let w = v
        .as_f64()
        .ok_or_else(|| format!("`{what}` must be a number"))?;
    if !w.is_finite() || w < 0.0 {
        return Err(format!("`{what}` must be finite and non-negative"));
    }
    Ok(w)
}

/// The `atpg` knob shared by run and explore jobs: absent or `false`
/// disables grading, `true` takes the defaults, an object validates
/// `fault_sample` (0 = the exhaustive collapsed universe) and `jobs`.
/// Grading runs on one thread, so a valid `jobs` is ignored; it is
/// still accepted because existing clients send it.
fn parse_atpg(job: &Json) -> Result<Option<AtpgRequest>, String> {
    let Some(v) = job.get("atpg") else {
        return Ok(None);
    };
    match v {
        Json::Bool(false) => Ok(None),
        Json::Bool(true) => Ok(Some(AtpgRequest::default())),
        Json::Obj(_) => {
            let fault_sample = v
                .get("fault_sample")
                .map(|n| {
                    n.as_usize()
                        .ok_or("`fault_sample` must be a non-negative integer")
                })
                .transpose()?;
            match v.get("jobs").map(Json::as_usize) {
                Some(None) => return Err("atpg `jobs` must be a non-negative integer".to_owned()),
                Some(Some(0)) => return Err("atpg `jobs` must be >= 1".to_owned()),
                _ => {}
            }
            Ok(Some(AtpgRequest::with_overrides(fault_sample)))
        }
        _ => Err("`atpg` must be a boolean or an object".to_owned()),
    }
}

fn parse_job(job: &Json) -> Result<JobRequest, String> {
    let kind = job
        .get("kind")
        .and_then(Json::as_str)
        .ok_or("job needs a `kind` (run, explore or gen)")?;
    match kind {
        "run" => {
            let source = match (job.get("source"), job.get("dfg")) {
                (Some(s), None) => parse_source(s)?,
                // An inline source spelled on the job itself.
                (None, Some(_)) => parse_source(job)?,
                (None, None) => return Err("run job needs `source` or `dfg`".to_owned()),
                (Some(_), Some(_)) => {
                    return Err("run job takes `source` or `dfg`, not both".to_owned())
                }
            };
            let mut run = RunRequest::new(source);
            if let Some(f) = job.get("flow") {
                run.flow = parse_flow(f.as_str().ok_or("`flow` must be a string")?)?;
            }
            if let Some(b) = job.get("bits") {
                run.bits = b.as_u32().ok_or("`bits` must be a non-negative integer")?;
            }
            run.k = job.get("k").map(parse_k).transpose()?;
            run.alpha = job
                .get("alpha")
                .map(|v| parse_weight(v, "alpha"))
                .transpose()?;
            run.beta = job
                .get("beta")
                .map(|v| parse_weight(v, "beta"))
                .transpose()?;
            run.atpg = parse_atpg(job)?;
            Ok(JobRequest::Run(run))
        }
        "explore" => {
            let sources = job
                .get("sources")
                .and_then(Json::as_arr)
                .ok_or("explore job needs a `sources` array")?
                .iter()
                .map(parse_source)
                .collect::<Result<Vec<_>, _>>()?;
            if sources.is_empty() {
                return Err("`sources` must not be empty".to_owned());
            }
            let mut req = ExploreRequest::new(sources);
            let array = |key: &str| {
                job.get(key)
                    .map(|v| v.as_arr().ok_or(format!("`{key}` must be an array")))
                    .transpose()
            };
            if let Some(items) = array("flows")? {
                req.flows = items
                    .iter()
                    .map(|f| parse_flow(f.as_str().ok_or("`flows` entries must be strings")?))
                    .collect::<Result<Vec<_>, _>>()?;
            }
            if let Some(items) = array("ks")? {
                req.ks = items.iter().map(parse_k).collect::<Result<Vec<_>, _>>()?;
            }
            if let Some(items) = array("weights")? {
                req.weights = items
                    .iter()
                    .map(|pair| {
                        let pair = pair
                            .as_arr()
                            .filter(|p| p.len() == 2)
                            .ok_or("`weights` entries must be [alpha, beta] pairs")?;
                        Ok::<_, String>((
                            parse_weight(&pair[0], "alpha")?,
                            parse_weight(&pair[1], "beta")?,
                        ))
                    })
                    .collect::<Result<Vec<_>, _>>()?;
            }
            if let Some(items) = array("bits")? {
                req.bits = items
                    .iter()
                    .map(|b| {
                        b.as_u32()
                            .ok_or("`bits` entries must be integers".to_owned())
                    })
                    .collect::<Result<Vec<_>, _>>()?;
            }
            if req.flows.is_empty()
                || req.ks.is_empty()
                || req.weights.is_empty()
                || req.bits.is_empty()
            {
                return Err("grid axes must not be empty".to_owned());
            }
            if let Some(j) = job.get("jobs") {
                req.jobs = j
                    .as_usize()
                    .ok_or("`jobs` must be a non-negative integer")?;
                if req.jobs == 0 {
                    return Err("`jobs` must be >= 1".to_owned());
                }
            }
            req.tcov = parse_atpg(job)?.map(TcovSweep::from);
            req.warm_start = match job.get("warm_start") {
                None => false,
                Some(Json::Bool(b)) => *b,
                Some(_) => return Err("`warm_start` must be a boolean".to_owned()),
            };
            Ok(JobRequest::Explore(req))
        }
        "gen" => {
            let seed = match job.get("seed") {
                None => 0,
                Some(s) => s.as_u64().ok_or("`seed` must be a non-negative integer")?,
            };
            let preset = job
                .get("preset")
                .map(|p| {
                    p.as_str()
                        .map(str::to_owned)
                        .ok_or("`preset` must be a string")
                })
                .transpose()?
                .unwrap_or_else(|| "balanced".to_owned());
            Ok(JobRequest::Gen { seed, preset })
        }
        other => Err(format!("unknown job kind `{other}` (run, explore or gen)")),
    }
}

/// A response line: `ok`, the echoed `id` when there is one, then the
/// members `f` adds.
fn response(ok: bool, id: Option<&str>, f: impl FnOnce(&mut Obj<'_>)) -> String {
    json::object(|o| f(o.field("ok", ok).opt("id", id)))
}

/// `{"ok":true,...}` submit acknowledgement with the engine job id.
#[must_use]
pub fn render_submit_ok(id: Option<&str>, job: JobId) -> String {
    response(true, id, |o| members!(o, "job": job))
}

/// `{"ok":false,...}` error response (also the malformed-line answer).
#[must_use]
pub fn render_error(id: Option<&str>, message: &str) -> String {
    response(false, id, |o| members!(o, "error": message))
}

/// `{"ok":true,...}` status snapshot: the engine counters `c`,
/// warm-cache and leak-bounded interner statistics, and the
/// malformed-request count.
#[must_use]
pub fn render_status(id: Option<&str>, c: &EngineCounts, malformed: u64, sym: SymStats) -> String {
    response(true, id, |o| {
        members!(o, "status": {
            "jobs": {"queued": c.queued, "running": c.running, "done": c.done,
                "failed": c.failed, "cancelled": c.cancelled},
            "workers": c.workers, "queue_capacity": c.queue_capacity,
            "warm": {"hits": c.warm_hits, "misses": c.warm_misses},
            "explore_replay": {"merges_replayed": c.merges_replayed,
                "merges_recomputed": c.merges_recomputed},
            "tcov": {"ctx_hits": c.tcov.ctx_hits, "ctx_misses": c.tcov.ctx_misses,
                "report_hits": c.tcov.report_hits, "report_misses": c.tcov.report_misses},
            "malformed_requests": malformed,
            "interner": {"count": sym.count, "bytes": sym.bytes},
        });
    })
}

/// `{"ok":true,...}` cancel acknowledgement.
#[must_use]
pub fn render_cancel(id: Option<&str>, job: JobId, outcome: CancelOutcome) -> String {
    response(true, id, |o| {
        members!(o, "job": job, "cancel": outcome.name());
    })
}

/// `{"ok":true,...}` shutdown acknowledgement.
#[must_use]
pub fn render_shutdown(id: Option<&str>) -> String {
    response(true, id, |o| members!(o, "shutdown": true))
}

/// The metrics object of one synthesis result — the exact shape
/// `hlts run --json` prints, so daemon results and one-shot results
/// compare with plain string equality.
#[must_use]
pub fn metrics_json(m: &DesignMetrics) -> String {
    json::object(|o| metrics_fields(o, m))
}

fn metrics_fields(o: &mut Obj<'_>, m: &DesignMetrics) {
    members!(o, "execution_time": m.execution_time, "modules": m.num_modules,
        "registers": m.num_registers, "muxes": m.mux_count, "self_loops": m.self_loops,
        "hardware": m.hardware.total(), "avg_controllability": m.avg_controllability,
        "avg_observability": m.avg_observability, "co_depth": m.co_depth);
}

/// One run result as a single-line JSON object (metrics + merge log).
#[must_use]
pub fn run_result_json(result: &SynthesisResult) -> String {
    json::object(|o| run_fields(o, result))
}

/// The `metrics` object and `merges` array of one run: the members a
/// run result, a served `done` event and `hlts run --json` share.
pub fn run_fields(o: &mut Obj<'_>, result: &SynthesisResult) {
    o.obj("metrics", |m| metrics_fields(m, &result.metrics));
    o.items("merges", &result.merge_log);
}

/// The members of one coverage report. `faults_graded` vs
/// `total_collapsed` tells a sampled estimate from an exhaustive grade.
pub fn coverage_fields(o: &mut Obj<'_>, r: &CoverageReport) {
    members!(o, "gates": r.gates, "coverage": r.coverage(), "efficiency": r.efficiency(),
        "faults_graded": r.faults_graded, "total_collapsed": r.total_collapsed,
        "total_uncollapsed": r.total_uncollapsed, "detected_random": r.detected_random,
        "detected_deterministic": r.detected_deterministic, "untestable": r.untestable,
        "aborted": r.aborted, "test_cycles": r.test_cycles, "random_patterns": r.random_patterns);
}

/// The point accounting shared by the explore summary and report.
fn point_counts(o: &mut Obj<'_>, outcome: &ExploreOutcome) {
    let s = &outcome.stats;
    members!(o, "points_total": s.points_total, "points_computed": s.points_computed,
        "points_resumed": s.points_resumed, "points_failed": s.points_failed,
        "points_cancelled": s.points_cancelled);
}

/// The replayed/recomputed merge split, on warm-start sweeps only, so
/// cold reports keep their earlier shape.
fn replay_counts(o: &mut Obj<'_>, outcome: &ExploreOutcome) {
    if outcome.results.iter().any(|r| r.replay.is_some()) {
        let s = &outcome.stats;
        members!(o, "merges_replayed": s.merges_replayed, "merges_recomputed": s.merges_recomputed);
    }
}

/// The `hlts explore --json` report: one line per point (and per
/// failure), the front's point ids and the sweep statistics.
#[must_use]
pub fn explore_report_json(outcome: &ExploreOutcome) -> String {
    let s = &outcome.stats;
    json::object_lines(|o| {
        o.objects("points", &outcome.results, |p, r| {
            let (o, params) = (&r.objectives, &r.params);
            members!(p, "id": r.id, "bench": &params.bench, "flow": params.flow.name(),
                "k": params.k, "alpha": params.alpha, "beta": params.beta, "bits": params.bits,
                "E": o.execution_time, "H": o.hardware, "modules": r.modules,
                "registers": r.registers, "muxes": r.muxes,
                "avg_controllability": o.avg_controllability,
                "avg_observability": o.avg_observability, "co_depth": o.co_depth);
            // Coverage only on graded sweeps, replay only on warm ones.
            if let Some(t) = o.test {
                members!(p, "coverage": t.coverage, "test_cycles": t.test_cycles);
            }
            if let Some((replayed, recomputed)) = r.replay {
                members!(p, "replayed": replayed, "recomputed": recomputed);
            }
            let on_front = outcome.front.iter().any(|f| f.id == r.id);
            members!(p, "millis": r.millis, "resumed": r.resumed, "on_front": on_front);
        });
        o.items("front", outcome.front.iter().map(|r| r.id));
        o.objects("failures", &outcome.failures, |o, f| {
            members!(o, "id": f.id, "message": &f.message);
        });
        o.obj("stats", |st| {
            point_counts(st, outcome);
            members!(st, "journal_malformed": s.journal_malformed,
                "journal_torn_tail": s.journal_torn_tail);
            replay_counts(st, outcome);
            let (t, e, x) = (&s.testability, &s.eval, &s.txn);
            members!(st, "workers": s.workers, "wall_millis": s.wall_millis,
                "compute_millis": s.compute_millis,
                "testability": {"hits": t.hits, "misses": t.misses},
                "eval": {"state_hits": e.state_hits, "state_misses": e.state_misses},
                "txn": {"begun": x.begun, "committed": x.committed,
                    "rolled_back": x.rolled_back});
        });
    })
}

/// A job output's members: a run's [`run_fields`] (plus `coverage`
/// when graded), an explore summary, or a generated DFG. The
/// `front_signature` is the workspace's canonical bit-identity witness
/// (equal strings ⇔ bit-identical fronts).
fn output_fields(o: &mut Obj<'_>, output: &JobOutput) {
    match output {
        JobOutput::Run(run) => {
            run_fields(o, &run.result);
            if let Some(report) = &run.coverage {
                o.obj("coverage", |c| coverage_fields(c, report));
            }
        }
        JobOutput::Explore(outcome) => {
            members!(o, "front_signature": outcome.front_signature(),
                "front_size": outcome.front.len());
            point_counts(o, outcome);
            replay_counts(o, outcome);
        }
        JobOutput::Gen(text) => members!(o, "dfg": text),
    }
}

/// One job event as a single-line JSON object.
#[must_use]
pub fn render_event(job: JobId, event: &JobEvent<'_>) -> String {
    json::object(|o| match *event {
        JobEvent::Started => members!(o, "event": "started", "job": job),
        JobEvent::Progress(ProgressEvent::Iteration { iteration, merges }) => {
            members!(o, "event": "iteration", "job": job, "iteration": iteration, "merges": merges);
        }
        JobEvent::Progress(ProgressEvent::PointDone {
            id,
            completed,
            total,
        }) => {
            members!(o, "event": "point_done", "job": job, "point": id, "completed": completed,
                "total": total);
        }
        // `ProgressEvent` is non_exhaustive; unknown future events
        // must not break the protocol stream.
        JobEvent::Progress(_) => members!(o, "event": "progress", "job": job),
        JobEvent::Done(output) => {
            members!(o, "event": "done", "job": job);
            o.obj("result", |r| output_fields(r, output));
        }
        JobEvent::Failed(message) => members!(o, "event": "failed", "job": job, "error": message),
        JobEvent::Cancelled(partial) => {
            members!(o, "event": "cancelled", "job": job);
            if let Some(partial) = partial {
                o.obj("partial", |r| output_fields(r, partial));
            }
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_run_submit_with_defaults() {
        let req =
            parse_request(r#"{"op":"submit","id":"c1","job":{"kind":"run","source":"bench:ewf"}}"#)
                .unwrap();
        let Request::Submit { id, job } = req else {
            panic!("wrong request kind");
        };
        assert_eq!(id.as_deref(), Some("c1"));
        assert_eq!(
            job,
            JobRequest::Run(RunRequest {
                source: SourceRef::Bench("ewf".into()),
                flow: Flow::Ours,
                bits: 8,
                k: None,
                alpha: None,
                beta: None,
                atpg: None,
            })
        );
    }

    #[test]
    fn parses_the_atpg_knob_in_all_spellings() {
        let get = |line: &str| {
            let Request::Submit { job, .. } = parse_request(line).unwrap() else {
                panic!("wrong request kind");
            };
            job
        };
        // `true` takes the defaults, `false` is the same as absent.
        let JobRequest::Run(RunRequest { atpg, .. }) =
            get(r#"{"op":"submit","job":{"kind":"run","source":"bench:ex","atpg":true}}"#)
        else {
            panic!("wrong job kind");
        };
        assert_eq!(atpg, Some(AtpgRequest::default()));
        let JobRequest::Run(RunRequest { atpg, .. }) =
            get(r#"{"op":"submit","job":{"kind":"run","source":"bench:ex","atpg":false}}"#)
        else {
            panic!("wrong job kind");
        };
        assert_eq!(atpg, None);
        // In an object, `fault_sample: 0` means the exhaustive
        // collapsed universe.
        let JobRequest::Run(RunRequest { atpg, .. }) =
            get(r#"{"op":"submit","job":{"kind":"run","source":"bench:ex",
                "atpg":{"fault_sample":0}}}"#)
        else {
            panic!("wrong job kind");
        };
        assert_eq!(
            atpg,
            Some(AtpgRequest {
                fault_sample: None,
                ..AtpgRequest::default()
            })
        );
        // Explore carries the sample into the sweep spec.
        let JobRequest::Explore(ExploreRequest { tcov, .. }) = get(
            r#"{"op":"submit","job":{"kind":"explore","sources":["bench:ex"],
                "atpg":{"fault_sample":500}}}"#,
        ) else {
            panic!("wrong job kind");
        };
        assert_eq!(tcov, Some(TcovSweep { fault_sample: 500 }));
        // Garbage is rejected, not defaulted.
        let e = parse_request(
            r#"{"op":"submit","job":{"kind":"run","source":"bench:ex","atpg":"yes"}}"#,
        )
        .unwrap_err();
        assert!(e.message.contains("atpg"), "{}", e.message);
    }

    /// Grading is single-threaded, but clients still send the retired
    /// `atpg.jobs` knob: a valid value parses and is ignored, an
    /// invalid one is still rejected.
    #[test]
    fn atpg_jobs_is_validated_and_ignored() {
        let atpg = |knob: &str| {
            parse_request(&format!(
                r#"{{"op":"submit","job":{{"kind":"run","source":"bench:ex","atpg":{knob}}}}}"#
            ))
            .map(|req| match req {
                Request::Submit {
                    job: JobRequest::Run(RunRequest { atpg, .. }),
                    ..
                } => atpg,
                other => panic!("wrong request: {other:?}"),
            })
        };
        let plain = atpg(r#"{"fault_sample":500}"#).unwrap();
        assert_eq!(atpg(r#"{"fault_sample":500,"jobs":4}"#).unwrap(), plain);
        assert_eq!(atpg(r#"{"jobs":1}"#).unwrap(), Some(AtpgRequest::default()));
        for bad in [r#"{"jobs":0}"#, r#"{"jobs":"4"}"#, r#"{"jobs":-1}"#] {
            let e = atpg(bad).unwrap_err();
            assert!(e.message.contains("jobs"), "{bad}: {}", e.message);
        }
    }

    #[test]
    fn parses_explore_submit() {
        let req = parse_request(
            r#"{"op":"submit","job":{"kind":"explore","sources":["bench:ex",
                {"name":"t","dfg":"dfg t { input a; output a; }"}],
                "flows":["ours","camad"],"ks":[1,3],"weights":[[2,1]],"bits":[4,8],"jobs":2}}"#,
        )
        .unwrap();
        let Request::Submit {
            job:
                JobRequest::Explore(ExploreRequest {
                    sources,
                    flows,
                    ks,
                    weights,
                    bits,
                    jobs,
                    tcov,
                    warm_start,
                }),
            ..
        } = req
        else {
            panic!("wrong request kind");
        };
        assert_eq!(sources.len(), 2);
        assert_eq!(sources[1].name(), "t");
        assert_eq!(flows, vec![Flow::Ours, Flow::Camad]);
        assert_eq!(ks, vec![1, 3]);
        assert_eq!(weights, vec![(2.0, 1.0)]);
        assert_eq!(bits, vec![4, 8]);
        assert_eq!(jobs, 2);
        assert_eq!(tcov, None);
        assert!(!warm_start, "warm start defaults to off");
    }

    #[test]
    fn parses_the_warm_start_knob() {
        let get = |line: &str| {
            let Request::Submit {
                job: JobRequest::Explore(ExploreRequest { warm_start, .. }),
                ..
            } = parse_request(line).unwrap()
            else {
                panic!("wrong request kind");
            };
            warm_start
        };
        assert!(get(
            r#"{"op":"submit","job":{"kind":"explore","sources":["bench:ex"],"warm_start":true}}"#
        ));
        assert!(!get(
            r#"{"op":"submit","job":{"kind":"explore","sources":["bench:ex"],"warm_start":false}}"#
        ));
        // Garbage is rejected, not defaulted.
        let e = parse_request(
            r#"{"op":"submit","job":{"kind":"explore","sources":["bench:ex"],"warm_start":1}}"#,
        )
        .unwrap_err();
        assert!(e.message.contains("warm_start"), "{}", e.message);
    }

    #[test]
    fn malformed_lines_echo_the_id_when_recoverable() {
        // Not JSON at all: no id to echo.
        let e = parse_request("this is not json").unwrap_err();
        assert_eq!(e.id, None);
        // Valid JSON with an id but a broken body: the id comes back.
        let e = parse_request(r#"{"op":"submit","id":"x9","job":{"kind":"run"}}"#).unwrap_err();
        assert_eq!(e.id.as_deref(), Some("x9"));
        assert!(e.message.contains("`source` or `dfg`"));
        let e = parse_request(r#"{"op":"warp","id":"x1"}"#).unwrap_err();
        assert_eq!(e.id.as_deref(), Some("x1"));
        // Bad parameter values are rejected, not silently defaulted.
        let e = parse_request(r#"{"op":"submit","job":{"kind":"run","source":"bench:ex","k":0}}"#)
            .unwrap_err();
        assert!(e.message.contains("k"));
        let e =
            parse_request(r#"{"op":"submit","job":{"kind":"run","source":"bench:ex","alpha":-1}}"#)
                .unwrap_err();
        assert!(e.message.contains("alpha"));
    }

    #[test]
    fn responses_are_single_lines() {
        let lines = [
            render_submit_ok(Some("a"), 3),
            render_error(None, "boom\nnewline"),
            render_cancel(Some("b"), 7, CancelOutcome::Dequeued),
            render_shutdown(None),
            render_status(
                Some("s"),
                &EngineCounts::default(),
                2,
                SymStats {
                    count: 5,
                    bytes: 40,
                },
            ),
        ];
        for line in &lines {
            assert!(!line.contains('\n'), "multi-line response: {line}");
            // Every response must itself parse as JSON.
            crate::json::parse(line).unwrap();
        }
        assert!(lines[4].contains("\"malformed_requests\": 2"));
        assert!(lines[4]
            .contains("\"explore_replay\": {\"merges_replayed\": 0, \"merges_recomputed\": 0}"));
        assert!(lines[4].contains("\"tcov\": {\"ctx_hits\": 0"));
        assert!(lines[4].contains("\"interner\": {\"count\": 5, \"bytes\": 40}"));
    }

    #[test]
    fn warm_key_distinguishes_texts() {
        assert_eq!(warm_key("abc"), warm_key("abc"));
        assert_ne!(warm_key("abc"), warm_key("abd"));
        assert_ne!(warm_key(""), warm_key("a"));
    }

    #[test]
    fn render_submit_round_trips_through_parse_request() {
        let inline = SourceRef::Inline {
            name: "t \"q\" ü".into(),
            text: "dfg t {\n  input a; // \"quoted\" \\ back\\slash, ünïcödé ✓\n  output a;\n}\n"
                .into(),
        };
        let mut cases = Vec::new();
        for flow in Flow::ALL {
            cases.push(RunRequest {
                flow,
                ..RunRequest::new(SourceRef::Bench("ex".into()))
            });
        }
        cases.push(RunRequest {
            bits: 4,
            k: Some(2),
            alpha: Some(0.1),
            beta: Some(1e-7),
            ..RunRequest::new(SourceRef::Path("some/dir/b.dfg".into()))
        });
        cases.push(RunRequest {
            alpha: Some(10.0),
            beta: Some(2.0 / 3.0),
            atpg: Some(AtpgRequest::default()),
            ..RunRequest::new(inline.clone())
        });
        cases.push(RunRequest {
            flow: Flow::Camad,
            atpg: Some(AtpgRequest::with_overrides(Some(0))),
            ..RunRequest::new(inline)
        });
        for id in [None, Some("cli"), Some("a \"b\"")] {
            for run in &cases {
                let line = render_submit(id, run);
                assert!(!line.contains('\n'), "multi-line request: {line}");
                assert_eq!(
                    parse_request(&line),
                    Ok(Request::Submit {
                        id: id.map(str::to_owned),
                        job: JobRequest::Run(run.clone()),
                    }),
                    "{line}"
                );
            }
        }
        // `"atpg": true` on the wire is the default request.
        let Request::Submit { job, .. } = parse_request(
            r#"{"op":"submit","job":{"kind":"run","source":"bench:ex","atpg":true}}"#,
        )
        .unwrap() else {
            panic!("wrong request kind");
        };
        let JobRequest::Run(run) = job else {
            panic!("wrong job kind");
        };
        assert_eq!(
            parse_request(&render_submit(None, &run)),
            Ok(Request::Submit {
                id: None,
                job: JobRequest::Run(run),
            })
        );
    }
}
