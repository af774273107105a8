//! Ablation (beyond the paper's tables): how much does the paper's
//! C/O-balance candidate selection (§3) contribute? Two arms per
//! benchmark: the full algorithm ("paper") and balance-ranked selection
//! replaced by arbitrary order ("no-balance"). Both arms are elaborated
//! and fault-graded. SR2's ordering (§4.3) has no arm: its depth term
//! ties under one binding, so it always decides by execution time.

use hlts_bench::grade_table;
use hlts_core::{IntegratedSynthesizer, SelectionPolicy, SynthesisParams};

fn main() {
    let bits = 8;
    println!("Balance ablation at {bits}-bit (paper parameters)");
    println!(
        "{:<8} {:<14} {:>2} {:>4} {:>4} {:>9} {:>9} {:>8}",
        "bench", "selection", "E", "mod", "reg", "depth", "coverage", "effort"
    );
    for (name, dfg) in [
        ("ex", hlts_benchmarks::ex()),
        ("dct", hlts_benchmarks::dct()),
        ("diffeq", hlts_benchmarks::diffeq()),
        ("tseng", hlts_benchmarks::tseng()),
    ] {
        for (label, selection) in [
            ("paper", SelectionPolicy::CoBalance),
            ("no-balance", SelectionPolicy::Arbitrary),
        ] {
            let params = SynthesisParams {
                selection_policy: selection,
                ..SynthesisParams::paper_defaults(bits)
            };
            let r = IntegratedSynthesizer::new(params)
                .run(&dfg)
                .expect("synthesis succeeds");
            let rep = grade_table(&r, bits).expect("elaborates");
            println!(
                "{:<8} {:<14} {:>2} {:>4} {:>4} {:>9.1} {:>8.2}% {:>8.0}",
                name,
                label,
                r.metrics.execution_time,
                r.metrics.num_modules,
                r.metrics.num_registers,
                r.metrics.co_depth,
                rep.coverage(),
                rep.effort(),
            );
        }
    }
}
