//! Smoke test: every workload at `--scale smoke`, untraced and traced.
//! Each run must pass its correctness checks and print every metric
//! BENCHMARK.json names, with its unit; the pinned paper-benchmark
//! outputs must agree with the golden table of `tests/paper_claims.rs`.

use std::path::{Path, PathBuf};
use std::process::Command;

use hlts_jobs::json::{self, Json};

const WORKLOADS: [&str; 4] = ["run-atpg", "explore-atpg", "sweep", "serve"];

fn repo() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the benchmark lives one level below the repository root")
        .to_path_buf()
}

/// `(name, unit)` of every metric in one BENCHMARK.json section.
fn declared(section: &str) -> Vec<(String, String)> {
    let text = std::fs::read_to_string(repo().join("BENCHMARK.json")).expect("BENCHMARK.json");
    let doc = json::parse(&text).expect("BENCHMARK.json parses");
    doc.get(section)
        .and_then(Json::as_arr)
        .expect("metric list")
        .iter()
        .map(|m| {
            (
                m.get("name")
                    .and_then(Json::as_str)
                    .expect("name")
                    .to_owned(),
                m.get("unit")
                    .and_then(Json::as_str)
                    .expect("unit")
                    .to_owned(),
            )
        })
        .collect()
}

/// Run one workload at smoke scale; returns the parsed last line.
fn run(workload: &str, trace: bool) -> Json {
    let out = Command::new(env!("CARGO_BIN_EXE_hlts-perf"))
        .args(["--workload", workload, "--seed", "1", "--scale", "smoke"])
        .args(["--trace", if trace { "1" } else { "0" }])
        // Traced runs write their spans below the working directory.
        .current_dir(env!("CARGO_TARGET_TMPDIR"))
        .output()
        .expect("run hlts-perf");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{workload} (trace {trace}) failed:\n{stdout}"
    );
    let last = stdout.lines().last().expect("a result line");
    json::parse(last).unwrap_or_else(|e| panic!("{workload}: bad result line `{last}`: {e}"))
}

fn check(workload: &str, trace: bool, section: &str) {
    let result = run(workload, trace);
    assert_eq!(result.get("correct").and_then(Json::as_bool), Some(true));
    assert_eq!(result.get("failed").and_then(Json::as_u64), Some(0));
    assert!(result.get("attempted").and_then(Json::as_u64) > Some(0));
    let metrics = result.get("metrics").expect("metrics");
    let Json::Obj(fields) = metrics else {
        panic!("metrics is not an object")
    };
    let declared = declared(section);
    assert_eq!(fields.len(), declared.len(), "{workload}: metric count");
    for (name, unit) in declared {
        let m = metrics
            .get(&name)
            .unwrap_or_else(|| panic!("{workload}: metric {name} missing"));
        assert_eq!(m.get("unit").and_then(Json::as_str), Some(unit.as_str()));
        let value = m.get("value").and_then(Json::as_f64);
        assert!(
            value.is_some_and(f64::is_finite),
            "{workload}: {name} = {value:?}"
        );
    }
}

#[test]
fn every_workload_reports_its_end_to_end_metrics() {
    for w in WORKLOADS {
        check(w, false, "end_to_end");
    }
}

#[test]
fn every_traced_workload_reports_its_per_layer_metrics() {
    for w in WORKLOADS {
        check(w, true, "per_layer");
    }
}

/// The pinned (E, modules, registers) of the paper benchmarks equal
/// the golden table the repository's own tests pin.
#[test]
fn pinned_outputs_agree_with_the_paper_claims_table() {
    let claims = std::fs::read_to_string(repo().join("tests/paper_claims.rs"))
        .expect("tests/paper_claims.rs");
    let pins = include_str!("../expected/run-atpg.txt");
    let mut compared = 0;
    // Golden rows look like `("ex",     4,  4,  4, 6),`.
    for row in claims
        .lines()
        .map(str::trim)
        .filter(|l| l.starts_with("(\""))
    {
        let fields: Vec<&str> = row
            .trim_start_matches('(')
            .trim_end_matches("),")
            .split(',')
            .map(|f| f.trim().trim_matches('"'))
            .collect();
        let [name, bits, steps, modules, registers] = fields[..] else {
            continue;
        };
        let Some(pin) = pins
            .lines()
            .find_map(|l| l.strip_prefix(&format!("{name}@{bits}\t")))
        else {
            continue; // a width the benchmark does not run
        };
        let metrics = json::parse(pin.split(" merges=").next().expect("metrics")).expect("json");
        let field = |k: &str| metrics.get(k).and_then(Json::as_u64).map(|v| v.to_string());
        assert_eq!(
            (
                field("execution_time"),
                field("modules"),
                field("registers")
            ),
            (
                Some(steps.to_owned()),
                Some(modules.to_owned()),
                Some(registers.to_owned())
            ),
            "{name} @ {bits} bits"
        );
        compared += 1;
    }
    assert_eq!(compared, 6, "ex, dct and diffeq at 4 and 8 bits");
}
