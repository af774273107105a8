//! Engine-level integration tests: bit-identity with direct library
//! calls, FIFO backpressure, cancellation at both granularities, warm
//! context sharing, and graceful shutdown.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;

use hlts_core::{EvalMode, IntegratedSynthesizer, SynthesisParams};
use hlts_dse::Flow;
use hlts_jobs::{
    proto, CancelOutcome, EngineConfig, JobEngine, JobEvent, JobId, JobOutput, JobSink, JobSpec,
    JobState, SubmitError,
};

fn run_spec(bench: &str, warm: Option<u64>) -> JobSpec {
    JobSpec::Run {
        name: bench.to_owned(),
        dfg: hlts_benchmarks::by_name(bench).unwrap(),
        flow: Flow::Ours,
        params: SynthesisParams::paper_defaults(8),
        mode: EvalMode::Sequential,
        warm,
        atpg: None,
    }
}

fn explore_spec(points: usize) -> JobSpec {
    // ewf × ks × the three paper weight pairs: enough sequential work
    // that a cancel fired after the first point lands mid-sweep.
    let ks: Vec<usize> = (1..=points.div_ceil(3)).collect();
    let mut spec = hlts_dse::SweepSpec::new(vec![("ewf".into(), hlts_benchmarks::ewf())]);
    spec.ks = ks;
    spec.weights = vec![(2.0, 1.0), (10.0, 1.0), (1.0, 10.0)];
    JobSpec::Explore {
        spec,
        cfg: hlts_dse::ExploreConfig::default(),
    }
}

#[test]
fn run_job_matches_direct_library_call() {
    let engine = JobEngine::start(EngineConfig::default());
    let id = engine.submit(run_spec("ex", Some(1)), None).unwrap();
    let status = engine.wait(id).unwrap();
    assert_eq!(status.state, JobState::Done);
    assert_eq!(status.error, None);
    let Some(JobOutput::Run(via_engine)) = engine.take_output(id) else {
        panic!("expected a run output");
    };
    let direct = IntegratedSynthesizer::new(SynthesisParams::paper_defaults(8))
        .run(&hlts_benchmarks::ex())
        .unwrap();
    assert_eq!(
        via_engine.result, direct,
        "engine run diverged from direct run"
    );
    assert!(via_engine.coverage.is_none(), "no grading was requested");
    assert_eq!(
        proto::run_result_json(&via_engine.result),
        proto::run_result_json(&direct),
    );
    // Output moves out exactly once.
    assert!(engine.take_output(id).is_none());
    engine.shutdown();
}

#[test]
fn bounded_queue_rejects_overflow_deterministically() {
    // A paused engine (no workers yet) makes the queue state exact.
    let engine = JobEngine::new(EngineConfig {
        workers: 1,
        queue_capacity: 2,
        warm_capacity: 2,
    });
    let a = engine.submit(run_spec("ex", None), None).unwrap();
    let b = engine.submit(run_spec("ex", None), None).unwrap();
    match engine.submit(run_spec("ex", None), None) {
        Err(SubmitError::QueueFull { capacity }) => assert_eq!(capacity, 2),
        other => panic!("expected QueueFull, got {other:?}"),
    }
    // Cancelling a queued job frees its slot.
    assert_eq!(engine.cancel(a), CancelOutcome::Dequeued);
    assert_eq!(engine.status(a).unwrap().state, JobState::Cancelled);
    let c = engine.submit(run_spec("ex", None), None).unwrap();
    engine.start_workers();
    for id in [b, c] {
        assert_eq!(engine.wait(id).unwrap().state, JobState::Done);
    }
    // The dequeued job never ran and stays terminal.
    assert_eq!(engine.wait(a).unwrap().state, JobState::Cancelled);
    let counts = engine.counts();
    assert_eq!((counts.done, counts.cancelled), (2, 1));
    engine.shutdown();
    // After shutdown, submissions are refused.
    assert_eq!(
        engine.submit(run_spec("ex", None), None),
        Err(SubmitError::ShuttingDown)
    );
}

#[test]
fn gen_job_reproduces_the_generator() {
    let cfg = hlts_gen::preset("balanced").unwrap();
    let engine = JobEngine::start(EngineConfig::default());
    let id = engine
        .submit(
            JobSpec::Gen {
                seed: 7,
                cfg: cfg.clone(),
            },
            None,
        )
        .unwrap();
    assert_eq!(engine.wait(id).unwrap().state, JobState::Done);
    let Some(JobOutput::Gen(text)) = engine.take_output(id) else {
        panic!("expected gen output");
    };
    let direct = hlts_dfg::emit(&hlts_gen::generate(7, &cfg).unwrap()).unwrap();
    assert_eq!(text, direct);
    // The emitted text is itself a valid behavior.
    hlts_dfg::parse(&text).unwrap();
    engine.shutdown();
}

#[test]
fn warm_contexts_are_shared_and_do_not_change_results() {
    let engine = JobEngine::start(EngineConfig {
        workers: 1,
        ..EngineConfig::default()
    });
    let key = Some(42);
    let first = engine.submit(run_spec("dct", key), None).unwrap();
    assert_eq!(engine.wait(first).unwrap().state, JobState::Done);
    let second = engine.submit(run_spec("dct", key), None).unwrap();
    assert_eq!(engine.wait(second).unwrap().state, JobState::Done);
    let counts = engine.counts();
    assert!(
        counts.warm_hits >= 1,
        "second keyed run should hit the warm pool: {counts:?}"
    );
    let (Some(JobOutput::Run(a)), Some(JobOutput::Run(b))) =
        (engine.take_output(first), engine.take_output(second))
    else {
        panic!("expected two run outputs");
    };
    assert_eq!(*a, *b, "warm context changed the result");
    engine.shutdown();
}

#[test]
fn graded_runs_attach_a_report_and_hit_the_coverage_memo() {
    let engine = JobEngine::start(EngineConfig {
        workers: 1,
        ..EngineConfig::default()
    });
    let atpg = Some(hlts_jobs::AtpgRequest {
        fault_sample: Some(200),
        jobs: 2,
    });
    let spec = |key| {
        let JobSpec::Run {
            name,
            dfg,
            flow,
            params,
            mode,
            warm,
            ..
        } = run_spec("ex", key)
        else {
            unreachable!()
        };
        JobSpec::Run {
            name,
            dfg,
            flow,
            params,
            mode,
            warm,
            atpg,
        }
    };
    let first = engine.submit(spec(Some(9)), None).unwrap();
    assert_eq!(engine.wait(first).unwrap().state, JobState::Done);
    let second = engine.submit(spec(Some(9)), None).unwrap();
    assert_eq!(engine.wait(second).unwrap().state, JobState::Done);
    let (Some(JobOutput::Run(a)), Some(JobOutput::Run(b))) =
        (engine.take_output(first), engine.take_output(second))
    else {
        panic!("expected two run outputs");
    };
    let report = a.coverage.as_ref().expect("graded run carries a report");
    assert!(report.coverage() > 0.0 && report.coverage() <= 100.0);
    assert_eq!(report.faults_graded, 200.min(report.total_collapsed));
    assert_eq!(
        a.coverage
            .as_ref()
            .map(hlts_tcov::CoverageReport::signature),
        b.coverage
            .as_ref()
            .map(hlts_tcov::CoverageReport::signature),
        "repeat grading diverged"
    );
    let counts = engine.counts();
    assert!(
        counts.tcov.report_hits >= 1,
        "the second grading should answer from the report memo: {counts:?}"
    );
    engine.shutdown();
}

/// Sink that counts per-job events and flags the interesting ones.
#[derive(Default)]
struct Probe {
    started: AtomicBool,
    points_done: AtomicUsize,
    iterations: AtomicUsize,
    terminal: AtomicBool,
}

impl JobSink for Probe {
    fn event(&self, _job: JobId, event: &JobEvent<'_>) {
        match event {
            JobEvent::Started => self.started.store(true, Ordering::SeqCst),
            JobEvent::Progress(hlts_core::ProgressEvent::PointDone { .. }) => {
                self.points_done.fetch_add(1, Ordering::SeqCst);
            }
            JobEvent::Progress(_) => {
                self.iterations.fetch_add(1, Ordering::SeqCst);
            }
            JobEvent::Done(_) | JobEvent::Failed(_) | JobEvent::Cancelled(_) => {
                self.terminal.store(true, Ordering::SeqCst);
            }
        }
    }
}

/// A streaming job hands its output to the sink's terminal event and
/// the engine keeps only its state: a daemon does not accumulate every
/// result it has already sent.
#[test]
fn streaming_jobs_deliver_through_the_sink_and_keep_no_output() {
    let engine = JobEngine::start(EngineConfig::default());
    let probe = Arc::new(Probe::default());
    let id = engine
        .submit_streaming(run_spec("ex", None), Arc::clone(&probe) as _)
        .unwrap();
    let status = engine.wait(id).unwrap();
    assert_eq!(status.state, JobState::Done);
    assert!(
        probe.terminal.load(Ordering::SeqCst),
        "done event delivered"
    );
    assert!(engine.take_output(id).is_none(), "output not retained");
    assert_eq!(engine.counts().done, 1);
    engine.shutdown();
}

#[test]
fn cancelling_a_running_sweep_keeps_the_partial_front() {
    let engine = JobEngine::start(EngineConfig {
        workers: 1,
        ..EngineConfig::default()
    });
    let probe = Arc::new(Probe::default());
    let id = engine
        .submit(explore_spec(12), Some(Arc::clone(&probe) as _))
        .unwrap();
    // Cancel as soon as the first point lands: eleven points of work
    // remain, so the token fires mid-sweep.
    while probe.points_done.load(Ordering::SeqCst) == 0 {
        std::thread::yield_now();
    }
    let outcome = engine.cancel(id);
    assert!(
        matches!(outcome, CancelOutcome::Signalled | CancelOutcome::Finished),
        "unexpected cancel outcome {outcome:?}"
    );
    let status = engine.wait(id).unwrap();
    assert_eq!(status.state, JobState::Cancelled);
    let Some(JobOutput::Explore(partial)) = engine.take_output(id) else {
        panic!("cancelled sweep should keep its partial outcome");
    };
    assert!(partial.stats.points_cancelled > 0);
    assert!(
        partial.stats.points_computed >= 1,
        "the finished point belongs to the partial front"
    );
    assert!(probe.terminal.load(Ordering::SeqCst));
    engine.shutdown();
}

#[test]
fn shutdown_finishes_running_work_and_cancels_the_queue() {
    let engine = JobEngine::start(EngineConfig {
        workers: 1,
        ..EngineConfig::default()
    });
    let probe = Arc::new(Probe::default());
    let running = engine
        .submit(run_spec("ewf", None), Some(Arc::clone(&probe) as _))
        .unwrap();
    let queued = engine.submit(run_spec("ex", None), None).unwrap();
    while !probe.started.load(Ordering::SeqCst) {
        std::thread::yield_now();
    }
    engine.shutdown();
    assert_eq!(
        engine.status(running).unwrap().state,
        JobState::Done,
        "running job must finish during graceful shutdown"
    );
    assert_eq!(engine.status(queued).unwrap().state, JobState::Cancelled);
}
