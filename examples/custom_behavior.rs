//! Bring your own behavior: write it in the textual DFG format, pick a
//! synthesis flow, elaborate to gates and measure testability — the
//! full downstream-user workflow in one file.
//!
//! Run with `cargo run --release --example custom_behavior`.

use hlts::core::{IntegratedSynthesizer, RunCtl, SynthesisParams};
use hlts::tcov::{grade_design, AtpgConfig, TcovConfig};

const BEHAVIOR: &str = "
dfg fir4 {
    # a 4-tap FIR step: y = k0*s0 + k1*s1 + k2*s2 + k3*s3, state shift
    input s0, s1, s2, s3, k0, k1, k2, k3;
    M0: p0 = k0 * s0;
    M1: p1 = k1 * s1;
    M2: p2 = k2 * s2;
    M3: p3 = k3 * s3;
    A0: t0 = p0 + p1;
    A1: t1 = p2 + p3;
    A2: y  = t0 + t1;
    output y;
}";

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let dfg = hlts::dfg::parse(BEHAVIOR)?;
    let params = SynthesisParams {
        bits: 8,
        ..SynthesisParams::paper_defaults(8)
    };
    let result = IntegratedSynthesizer::new(params).run(&dfg)?;
    println!("synthesized FIR step:\n{}", result.render());

    let atpg = AtpgConfig {
        sequence_cycles: (result.schedule.num_steps() + 1) * 2,
        random_sequences: 10,
        frames: result.schedule.num_steps() + 3,
        fault_sample: Some(800),
        max_deterministic_targets: 40,
        ..AtpgConfig::default()
    };
    let report = grade_design(
        &result.dfg,
        &result.schedule,
        &result.allocation,
        8,
        &TcovConfig { atpg },
        &RunCtl::none(),
    )?;
    println!("gate netlist: {} gates", report.gates);
    println!(
        "fault coverage {:.2}% ({} random + {} deterministic of {} faults), \
         {} test cycles, effort {:.0}",
        report.coverage(),
        report.detected_random,
        report.detected_deterministic,
        report.faults_graded,
        report.test_cycles,
        report.effort(),
    );
    Ok(())
}
