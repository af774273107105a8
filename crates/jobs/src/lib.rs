//! # hlts-jobs — job-oriented execution engine and synthesis daemon
//!
//! Everything the system executes — one-shot CLI runs, design-space
//! sweeps, workload generation, and the `hlts serve` daemon — is a
//! [`JobSpec`] run by one executor ([`execute`]) under one control
//! surface ([`RunCtl`](hlts_core::RunCtl): cooperative cancellation +
//! progress streaming). On top of that sit:
//!
//! * [`JobEngine`] — a bounded FIFO queue feeding a fixed worker
//!   pool, with backpressure ([`SubmitError::QueueFull`]), per-job
//!   [`CancelToken`](hlts_core::CancelToken)s, per-job event sinks,
//!   and a [`WarmPool`] of shared per-behavior synthesis contexts
//!   (base state + testability engine + (E, H) cache) that makes
//!   repeat requests warm;
//! * [`proto`] — the daemon protocol and [`proto::JobRequest`], the
//!   one description of a job: the CLI fills one from its flags, the
//!   daemon parses one per submit line, and both build the [`JobSpec`]
//!   through [`proto::JobRequest::resolve`];
//! * [`serve`] — the line-delimited JSON daemon (stdin or TCP) and
//!   the `hlts submit` client, speaking the [`proto`] protocol;
//! * [`json`] — the from-scratch JSON reader the protocol needs (the
//!   workspace has no serde by design).
//!
//! Determinism contract: a job whose token never fires is
//! **bit-identical** to the same work run without the engine — the
//! cancellation checks are relaxed atomic loads at iteration/point
//! boundaries, warm contexts share only content-keyed caches, and the
//! pool never reorders the work inside a job.
//!
//! # Example
//!
//! ```
//! use std::sync::Arc;
//! use hlts_jobs::{EngineConfig, JobEngine, JobOutput, JobSpec, JobState};
//! use hlts_core::{EvalMode, SynthesisParams};
//! use hlts_dse::Flow;
//!
//! let engine = JobEngine::start(EngineConfig::default());
//! let id = engine
//!     .submit(
//!         JobSpec::Run {
//!             name: "ex".into(),
//!             dfg: hlts_benchmarks::ex(),
//!             flow: Flow::Ours,
//!             params: SynthesisParams::paper_defaults(8),
//!             mode: EvalMode::Sequential,
//!             warm: Some(1),
//!             atpg: None,
//!         },
//!         None,
//!     )
//!     .unwrap();
//! assert_eq!(engine.wait(id).unwrap().state, JobState::Done);
//! let Some(JobOutput::Run(out)) = engine.take_output(id) else {
//!     panic!("expected a run output");
//! };
//! assert!(out.result.metrics.execution_time > 0);
//! assert!(out.coverage.is_none(), "no grading was requested");
//! engine.shutdown();
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

mod engine;
pub mod json;
pub mod proto;
pub mod serve;

pub use engine::{
    execute, AtpgRequest, CancelOutcome, EngineConfig, EngineCounts, ExecError, JobEngine,
    JobEvent, JobId, JobOutput, JobSink, JobSpec, JobState, JobStatus, NullJobSink, RunOutput,
    SubmitError, WarmCtx, WarmPool,
};
pub use serve::{serve_lines, serve_tcp, submit_once, ClientEnd, ServeConfig};
