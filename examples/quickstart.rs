//! Quickstart: describe a behavior, synthesize it with the integrated
//! test-synthesis algorithm, and inspect the result.
//!
//! Run with `cargo run --example quickstart`.

use hlts::core::{IntegratedSynthesizer, SynthesisParams};
use hlts::dfg::parse;
use hlts::etpn::Etpn;
use hlts::testability::{total_co_depth, NodeProfile, TestabilityAnalysis};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A small behavioral description (the role of the paper's VHDL
    // input): a multiply-accumulate kernel with a couple of reductions.
    let dfg = parse(
        "dfg mac {
            input a, b, c, d;
            N1: p = a * b;
            N2: q = c * d;
            N3: s = p + q;
            N4: t = s - a;
            N5: r = t + d;
            output r;
        }",
    )?;
    println!("behavior:\n{dfg}");

    // Synthesize with the paper's default parameters (k = 3, α = 2,
    // β = 1 at 4-bit costing).
    let params = SynthesisParams {
        k: 3,
        alpha: 2.0,
        beta: 1.0,
        bits: 8,
        ..SynthesisParams::default()
    };
    let result = IntegratedSynthesizer::new(params).run(&dfg)?;

    println!("merge decisions:");
    for m in &result.merge_log {
        println!("  {m}");
    }
    println!("\nfinal design:\n{}", result.render());

    // The testability view the algorithm optimizes: node C/O profiles
    // and the SR1 sequential-depth objective.
    let etpn = Etpn::from_parts(&result.dfg, &result.schedule, &result.allocation)?;
    let analysis = TestabilityAnalysis::analyze(etpn.data_path());
    println!("register C/O profiles:");
    for node in etpn.data_path().register_nodes() {
        let p = NodeProfile::of(&analysis, etpn.data_path(), node);
        println!(
            "  {:24} C = {:.2}  O = {:.2}",
            etpn.data_path()
                .node(node)
                .label(&result.dfg, &result.allocation),
            p.c,
            p.o
        );
    }
    println!(
        "total controllable->observable depth (SR1 objective): {:.1}",
        total_co_depth(etpn.data_path(), &analysis)
    );
    Ok(())
}
