//! The paper's headline experiment in miniature: synthesize the Ex
//! benchmark with all four flows, elaborate each result to gates, run
//! the two-phase ATPG, and compare fault coverage and effort.
//!
//! Run with `cargo run --release --example ex_test_synthesis`
//! (release strongly recommended — fault simulation is hot).

use hlts::core::{baselines, IntegratedSynthesizer, RunCtl, SynthesisParams};
use hlts::tcov::{grade_design, AtpgConfig, TcovConfig};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let bits = 8;
    let dfg = hlts::benchmarks::ex();
    let p = SynthesisParams::paper_defaults(bits);

    let camad_params = SynthesisParams {
        alpha: 0.1,
        beta: 10.0,
        ..p.clone()
    };
    let flows = vec![
        ("CAMAD", baselines::camad(&dfg, &camad_params)?),
        ("Approach 1", baselines::approach1(&dfg, &p)?),
        ("Approach 2", baselines::approach2(&dfg, &p)?),
        ("Ours", IntegratedSynthesizer::new(p.clone()).run(&dfg)?),
    ];

    println!(
        "{:<11} {:>3} {:>4} {:>4} {:>5} {:>7} {:>9} {:>9} {:>7}",
        "flow", "E", "mod", "reg", "mux", "gates", "coverage", "effort", "cycles"
    );
    for (name, r) in flows {
        let atpg = AtpgConfig {
            sequence_cycles: (r.schedule.num_steps() + 1) * 2,
            random_sequences: 12,
            frames: r.schedule.num_steps() + 3,
            fault_sample: Some(1000),
            max_deterministic_targets: 50,
            ..AtpgConfig::default()
        };
        let rep = grade_design(
            &r.dfg,
            &r.schedule,
            &r.allocation,
            bits,
            &TcovConfig { atpg },
            &RunCtl::none(),
        )?;
        println!(
            "{:<11} {:>3} {:>4} {:>4} {:>5} {:>7} {:>8.2}% {:>9.0} {:>7}",
            name,
            r.metrics.execution_time,
            r.metrics.num_modules,
            r.metrics.num_registers,
            r.metrics.mux_count,
            rep.gates,
            rep.coverage(),
            rep.effort(),
            rep.test_cycles,
        );
    }
    Ok(())
}
