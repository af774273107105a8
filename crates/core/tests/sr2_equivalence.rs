//! SR2 cannot discriminate by its depth term, so deciding its probes by
//! execution time alone synthesizes the paper's design.
//!
//! An SR2 decision compares two orders of one free pair. Both probes
//! add precedence arcs and reschedule, and neither touches the binding;
//! the data path — and with it the testability analysis and the
//! controllable→observable depth SR2 compares first — depends only on
//! the graph's data edges and the binding. The depths tie, so the merge
//! code decides every probe by its execution-time tie-break. Debug
//! builds of the merge code assert the tie on every probe; this suite
//! checks the end-to-end consequence: [`SynthesisResult`]s (graph,
//! schedule, binding, metrics, merge log) identical to the clone oracle
//! ([`hlts_core::oracle`]), whose SR2 still measures both depths and
//! compares them first — so the check has teeth in release builds too,
//! where the merge code no longer computes the depth at all.
//!
//! The default case covers five paper benchmarks and one generated graph
//! per preset at 4 bits. The release matrix (all six benchmarks and 32
//! generated graphs at 4 and 8 bits) is ignored by default:
//!
//! ```text
//! cargo test --release -p hlts-core --test sr2_equivalence -- --ignored
//! ```
//!
//! [`SynthesisResult`]: hlts_core::SynthesisResult

use hlts_core::{oracle, IntegratedSynthesizer, SynthesisParams};
use hlts_dfg::Dfg;
use hlts_gen::{generate, preset, PRESET_NAMES};

fn check(tag: &str, dfg: &Dfg, bits: u32) {
    let params = SynthesisParams::paper_defaults(bits);
    let got = IntegratedSynthesizer::new(params.clone())
        .run(dfg)
        .unwrap_or_else(|e| panic!("{tag}: {e}"));
    let full_merit =
        oracle::synthesize(dfg, &params).unwrap_or_else(|e| panic!("{tag}: oracle: {e}"));
    assert_eq!(
        got.merge_log, full_merit.merge_log,
        "{tag}: merge logs differ"
    );
    assert!(
        got == full_merit,
        "{tag}: result differs from the full-merit oracle"
    );
}

fn generated(seeds: std::ops::Range<u64>) -> Vec<(String, Dfg)> {
    let mut out = Vec::new();
    for name in PRESET_NAMES {
        let cfg = preset(name).expect("built-in preset");
        for seed in seeds.clone() {
            out.push((
                format!("{name}/seed{seed}"),
                generate(seed, &cfg).expect("generator"),
            ));
        }
    }
    out
}

#[test]
fn sr2_matches_the_full_merit_oracle_on_paper_benchmarks_and_generated_graphs() {
    for name in ["ex", "dct", "diffeq", "paulin", "tseng"] {
        let dfg = hlts_benchmarks::by_name(name).expect("bundled benchmark");
        check(name, &dfg, 4);
    }
    for (tag, dfg) in generated(0..1) {
        check(&tag, &dfg, 4);
    }
}

#[test]
#[ignore = "release matrix: every paper benchmark and 32 generated graphs at 4 and 8 bits"]
fn sr2_matches_the_full_merit_oracle_matrix() {
    for bits in [4, 8] {
        for (name, dfg) in hlts_benchmarks::all() {
            check(&format!("{name}@{bits}"), &dfg, bits);
        }
        for (tag, dfg) in generated(0..8) {
            check(&format!("{tag}@{bits}"), &dfg, bits);
        }
    }
}
