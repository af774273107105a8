//! Ablation (beyond the paper's tables): how much do the paper's two
//! testability mechanisms contribute? Four arms per benchmark:
//! the full algorithm ("paper"), SR2 ordering replaced by critical-path
//! ordering ("no-SR2", ablating §4.3), balance-ranked candidate
//! selection replaced by arbitrary order ("no-balance", ablating §3),
//! and both ablated ("neither"). Every arm is elaborated and
//! fault-graded.

use hlts_bench::grade_table;
use hlts_core::{IntegratedSynthesizer, OrderStrategy, SelectionPolicy, SynthesisParams};

fn main() {
    let bits = 8;
    println!("SR2 ablation at {bits}-bit (paper parameters)");
    println!(
        "{:<8} {:<14} {:>2} {:>4} {:>4} {:>9} {:>9} {:>8}",
        "bench", "ordering", "E", "mod", "reg", "depth", "coverage", "effort"
    );
    for (name, dfg) in [
        ("ex", hlts_benchmarks::ex()),
        ("dct", hlts_benchmarks::dct()),
        ("diffeq", hlts_benchmarks::diffeq()),
        ("tseng", hlts_benchmarks::tseng()),
    ] {
        for (label, strategy, selection) in [
            (
                "paper",
                OrderStrategy::CoEnhancement,
                SelectionPolicy::CoBalance,
            ),
            (
                "no-SR2",
                OrderStrategy::CriticalPath,
                SelectionPolicy::CoBalance,
            ),
            (
                "no-balance",
                OrderStrategy::CoEnhancement,
                SelectionPolicy::Arbitrary,
            ),
            (
                "neither",
                OrderStrategy::CriticalPath,
                SelectionPolicy::Arbitrary,
            ),
        ] {
            let params = SynthesisParams {
                order_strategy: strategy,
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
