//! Determinism of the synthesis loop: runs on the same input must
//! produce identical `SynthesisResult`s whether the caches start cold or
//! warm — cache state steers how much work a run does, never the
//! committed mergers, the final design, or the human-readable merge log.

use hlts::core::{
    DeltaEvaluator, DesignState, EvalMode, IntegratedSynthesizer, RunCtl, SynthesisParams,
};

fn benchmarks() -> [(&'static str, hlts::dfg::Dfg); 3] {
    [
        ("ex", hlts::benchmarks::ex()),
        ("dct", hlts::benchmarks::dct()),
        ("diffeq", hlts::benchmarks::diffeq()),
    ]
}

/// Two runs agree bit-for-bit on every table benchmark.
#[test]
fn repeated_runs_are_identical() {
    for (name, dfg) in benchmarks() {
        let synth = IntegratedSynthesizer::new(SynthesisParams::paper_defaults(8));
        let r1 = synth.run(&dfg).expect("run 1");
        let r2 = synth.run(&dfg).expect("run 2");
        assert_eq!(r1, r2, "{name}: synthesis is nondeterministic");
    }
}

/// Runs from one shared base state and evaluator — the batch path a
/// sweep takes, where every run after the first meets warm
/// critical-path and (E, H) caches — agree with a cold `run`.
#[test]
fn warm_cache_runs_match_cold_runs() {
    for (name, dfg) in benchmarks() {
        let synth = IntegratedSynthesizer::new(SynthesisParams::paper_defaults(8));
        let cold = synth.run(&dfg).expect("cold run");
        let base = DesignState::initial(&dfg).expect("initial state");
        let evaluator = DeltaEvaluator::new();
        for pass in 0..2 {
            let warm = synth
                .run_on_ctl(&base, EvalMode::Sequential, &evaluator, &RunCtl::none())
                .expect("shared-cache run");
            assert_eq!(warm, cold, "{name}: shared-cache pass {pass} diverged");
        }
    }
}
