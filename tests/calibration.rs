//! Calibration and cross-layer consistency checks on the area and
//! testability metrics (DESIGN.md's stated calibration targets).

mod common;

use hlts::core::{baselines, SynthesisParams};
use hlts::etpn::{control_to_dot, data_path_to_dot, Etpn};
use hlts::netlist::{elaborate, to_verilog};

/// DESIGN.md calibrates the module library so the Dct CAMAD-style
/// design at 4 bit lands near the paper's 0.607 mm².
#[test]
fn dct_camad_4bit_area_is_near_paper_value() {
    let dfg = hlts::benchmarks::dct();
    let p = SynthesisParams {
        alpha: 0.1,
        beta: 10.0,
        bits: 4,
        ..SynthesisParams::default()
    };
    let r = baselines::camad(&dfg, &p).expect("camad");
    let h = r.metrics.hardware.total();
    assert!(
        (0.35..=0.90).contains(&h),
        "4-bit Dct CAMAD area {h:.3} should be in the paper's 0.607 neighborhood"
    );
}

/// Area grows superlinearly with bit width when multipliers dominate
/// (the paper's 4→16 bit progression multiplies area by ~5).
#[test]
fn area_scales_superlinearly_with_width() {
    let dfg = hlts::benchmarks::dct();
    let area_at = |bits: u32| {
        let p = SynthesisParams {
            bits,
            ..SynthesisParams::paper_defaults(bits)
        };
        baselines::approach1(&dfg, &p)
            .expect("approach1")
            .metrics
            .hardware
            .total()
    };
    let (a4, a16) = (area_at(4), area_at(16));
    assert!(a16 > 4.0 * a4, "a4 = {a4:.3}, a16 = {a16:.3}");
}

/// The exporters produce well-formed artifacts for a full synthesized
/// benchmark design.
#[test]
fn exporters_handle_a_full_design() {
    let dfg = hlts::benchmarks::diffeq();
    let p = SynthesisParams::paper_defaults(8);
    let r = baselines::approach2(&dfg, &p).expect("approach2");
    let etpn = Etpn::from_parts(&r.dfg, &r.schedule, &r.allocation).expect("lowerable");

    let dot = data_path_to_dot(etpn.data_path(), &r.dfg, &r.allocation, "diffeq_dp");
    assert!(dot.starts_with("digraph diffeq_dp"));
    assert!(dot.matches("label=").count() >= etpn.data_path().num_nodes());

    let ctl = control_to_dot(etpn.control(), "diffeq_ctl");
    assert!(ctl.contains("doublecircle"));

    let nl = elaborate(&r.dfg, &r.schedule, &r.allocation, &etpn, 8).expect("elaborates");
    let v = to_verilog(&nl, "diffeq");
    assert!(v.contains("module diffeq"));
    assert!(v.contains("always @(posedge clk)"));
    // every DFF appears exactly once on the left of a non-blocking assign
    assert_eq!(v.matches(" <= ").count(), nl.dffs().len());
}

/// Gate counts scale with bit width the way the generators promise:
/// the multiplier's quadratic term dominates at 16 bit.
#[test]
fn gate_counts_scale_with_width() {
    let dfg = hlts::benchmarks::ex();
    let p = SynthesisParams::paper_defaults(8);
    let r = baselines::approach1(&dfg, &p).expect("approach1");
    let etpn = Etpn::from_parts(&r.dfg, &r.schedule, &r.allocation).expect("lowerable");
    let gates = |bits: u32| {
        elaborate(&r.dfg, &r.schedule, &r.allocation, &etpn, bits)
            .expect("elaborates")
            .num_gates()
    };
    let (g4, g8, g16) = (gates(4), gates(8), gates(16));
    assert!(g8 > 2 * g4, "g4 = {g4}, g8 = {g8}");
    assert!(g16 > 2 * g8, "g8 = {g8}, g16 = {g16}");
}
