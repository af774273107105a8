//! Determinism, resume and journal properties of the exploration
//! runner — the PR's acceptance criteria in executable form.

use std::path::PathBuf;

use hlts_dse::{
    explore, load_journal, select_seed, ExploreConfig, Flow, PointParams, PointResult, SweepSpec,
    TcovSweep,
};
use proptest::prelude::*;

fn spec_over(benches: &[&str]) -> SweepSpec {
    let benches = benches
        .iter()
        .map(|n| {
            (
                (*n).to_owned(),
                hlts_benchmarks::by_name(n).unwrap_or_else(|| panic!("unknown bench {n}")),
            )
        })
        .collect();
    SweepSpec::new(benches)
}

fn jobs(n: usize) -> ExploreConfig {
    ExploreConfig {
        jobs: n,
        ..ExploreConfig::default()
    }
}

fn tmp_journal(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("hlts-dse-tests");
    std::fs::create_dir_all(&dir).expect("tmp dir");
    let path = dir.join(format!("{tag}-{}.journal", std::process::id()));
    let _ = std::fs::remove_file(&path);
    path
}

/// The headline determinism claim: the Pareto front of a sweep over
/// the paper benchmarks is bit-identical for 1, 2 and 4 workers.
#[test]
fn front_is_bit_identical_for_1_2_4_workers() {
    let mut spec = spec_over(&["ex", "dct", "diffeq", "paulin", "tseng"]);
    spec.ks = vec![1, 3];
    spec.weights = vec![(2.0, 1.0), (1.0, 10.0)];

    let sequential = explore(&spec, &jobs(1)).expect("sequential sweep");
    assert_eq!(sequential.results.len(), 20);
    assert!(!sequential.front.is_empty());
    for n in [2, 4] {
        let parallel = explore(&spec, &jobs(n)).expect("parallel sweep");
        assert_eq!(
            sequential.front_signature(),
            parallel.front_signature(),
            "front diverged at {n} workers"
        );
        assert_eq!(sequential.results, parallel.results);
    }
}

/// A coverage-graded sweep (`--atpg`): every point carries measured
/// (coverage, test-cycle) objectives, the front is bit-identical
/// across worker counts, and a journaled + resumed run replays the
/// coverage floats bit-exactly.
#[test]
fn graded_front_is_bit_identical_and_resumes() {
    let mut spec = spec_over(&["ex", "tseng"]);
    spec.ks = vec![1, 3];
    spec.bits = vec![4];
    spec.tcov = Some(TcovSweep { fault_sample: 300 });

    let journal = tmp_journal("graded");
    let sequential = explore(
        &spec,
        &ExploreConfig {
            jobs: 1,
            journal: Some(journal.clone()),
            ..ExploreConfig::default()
        },
    )
    .expect("sequential graded sweep");
    assert_eq!(sequential.results.len(), 4);
    for r in &sequential.results {
        let t = r.objectives.test.expect("graded sweeps measure coverage");
        assert!(t.coverage > 0.0 && t.coverage <= 100.0);
        assert!(t.test_cycles > 0);
    }
    assert!(
        sequential.front_signature().contains("cov="),
        "the front signature certifies the coverage axes"
    );

    let parallel = explore(&spec, &jobs(4)).expect("parallel graded sweep");
    assert_eq!(sequential.front_signature(), parallel.front_signature());
    assert_eq!(sequential.results, parallel.results);

    // Resume from the journal: nothing recomputed, same front string.
    let scan = load_journal(&journal, &spec).expect("journal loads");
    assert_eq!(scan.points.len(), 4);
    let resumed = explore(
        &spec,
        &ExploreConfig {
            jobs: 2,
            resume: scan.points,
            ..ExploreConfig::default()
        },
    )
    .expect("resumed graded sweep");
    assert_eq!(resumed.stats.points_computed, 0);
    assert_eq!(sequential.front_signature(), resumed.front_signature());

    // A plain spec must refuse the graded journal (and vice versa).
    let mut plain = spec.clone();
    plain.tcov = None;
    assert!(load_journal(&journal, &plain).is_err());
    let _ = std::fs::remove_file(&journal);
}

/// Same claim on the largest benchmark alone (the bench gate's
/// workload shape).
#[test]
fn ewf_front_matches_across_worker_counts() {
    let mut spec = spec_over(&["ewf"]);
    spec.weights = vec![(2.0, 1.0), (1.0, 10.0)];
    let seq = explore(&spec, &jobs(1)).expect("sequential");
    let par = explore(&spec, &jobs(4)).expect("parallel");
    assert_eq!(seq.front_signature(), par.front_signature());
    assert_eq!(seq.results, par.results);
}

/// A multi-width sweep shares one (E, H) evaluator per behaviour
/// across its widths, so every point must price its hardware at its
/// own width: each point of a `--bits 4,8` sweep equals the same point
/// of the one-width sweep, at one and at two workers.
#[test]
fn multi_width_points_match_single_width_sweeps() {
    let mut spec = spec_over(&["ex", "paulin", "diffeq", "dct"]);
    spec.ks = vec![1, 3];
    spec.weights = vec![(2.0, 1.0), (1.0, 10.0)];
    let mut single = Vec::new();
    for bits in [4, 8] {
        spec.bits = vec![bits];
        single.extend(explore(&spec, &jobs(1)).expect("one-width sweep").results);
    }
    spec.bits = vec![4, 8];
    for n in [1, 2] {
        let multi = explore(&spec, &jobs(n)).expect("multi-width sweep");
        assert_eq!(multi.results.len(), single.len());
        for point in &multi.results {
            let alone = single
                .iter()
                .find(|r| r.params == point.params)
                .expect("every point has a one-width twin");
            // Point IDs differ between the sweeps; everything else
            // that equality compares must match.
            let relabelled = PointResult {
                id: alone.id,
                ..point.clone()
            };
            assert_eq!(&relabelled, alone, "{} at {n} workers", point.params.key());
        }
    }
}

/// Baseline flows run through the same pool and land on the same
/// front regardless of workers.
#[test]
fn baseline_flows_participate_in_the_front() {
    let mut spec = spec_over(&["tseng"]);
    spec.flows = vec![Flow::Ours, Flow::Camad, Flow::Approach1, Flow::Approach2];
    let seq = explore(&spec, &jobs(1)).expect("sequential");
    let par = explore(&spec, &jobs(3)).expect("parallel");
    assert_eq!(seq.results.len(), 4);
    assert_eq!(seq.front_signature(), par.front_signature());
}

/// Kill-and-resume: interrupt a journaled sweep after N points, resume
/// from the journal, and the final front is identical with no point
/// recomputed (`ExploreStats` accounting is exact).
#[test]
fn resume_recomputes_nothing_and_preserves_the_front() {
    let mut spec = spec_over(&["dct", "tseng"]);
    spec.ks = vec![1, 3];
    spec.weights = vec![(2.0, 1.0), (0.1, 10.0)];
    let total = spec.points().expect("points").len();
    assert_eq!(total, 8, "2 benches x 2 ks x 2 weight pairs");

    let uninterrupted = explore(&spec, &jobs(1)).expect("uninterrupted sweep");

    // Journaled run, then simulate a kill by truncating the journal
    // to its header + N point lines (+ one torn partial line).
    let path = tmp_journal("resume");
    let journaled = explore(
        &spec,
        &ExploreConfig {
            jobs: 2,
            journal: Some(path.clone()),
            ..ExploreConfig::default()
        },
    )
    .expect("journaled sweep");
    assert_eq!(journaled.front_signature(), uninterrupted.front_signature());

    let text = std::fs::read_to_string(&path).expect("journal exists");
    let keep = 5usize;
    let mut lines: Vec<&str> = text.lines().collect();
    assert_eq!(lines.len(), 2 + total, "header + one line per point");
    lines.truncate(2 + keep);
    let mut truncated = lines.join("\n");
    truncated.push_str("\npoint 99 bench=dct flow=ours k=3 al"); // torn tail
    std::fs::write(&path, truncated).expect("truncate journal");

    let scan = load_journal(&path, &spec).expect("journal loads");
    assert_eq!(scan.points.len(), keep);
    assert_eq!(scan.malformed, 0, "torn tail is not counted as corruption");
    assert_eq!(scan.torn_tail, 1, "but the dropped tail is reported");
    let resumed = explore(
        &spec,
        &ExploreConfig {
            jobs: 2,
            journal: Some(path.clone()),
            resume: scan.points,
            resume_torn_tail: scan.torn_tail,
            ..ExploreConfig::default()
        },
    )
    .expect("resumed sweep");

    assert_eq!(resumed.stats.points_resumed, keep, "no point recomputed");
    assert_eq!(resumed.stats.points_computed, total - keep);
    assert_eq!(
        resumed.front_signature(),
        uninterrupted.front_signature(),
        "resumed front must be bit-identical to the uninterrupted one"
    );
    assert_eq!(resumed.results, uninterrupted.results);
    assert_eq!(
        resumed.stats.journal_torn_tail, 1,
        "the dropped tail surfaces in the explore stats"
    );

    // The re-appended journal now covers the whole sweep again: a
    // second resume replays everything and computes nothing.
    let full = load_journal(&path, &spec).expect("journal reloads");
    assert_eq!(full.points.len(), total);
    let replayed = explore(
        &spec,
        &ExploreConfig {
            jobs: 1,
            journal: None,
            resume: full.points,
            ..ExploreConfig::default()
        },
    )
    .expect("replayed sweep");
    assert_eq!(replayed.stats.points_computed, 0);
    assert_eq!(replayed.front_signature(), uninterrupted.front_signature());
    let _ = std::fs::remove_file(&path);
}

/// The warm-start identity: `--warm-start on` replays neighbour traces
/// instead of re-trialing merges, but the Pareto front — and every
/// per-point result — stays bit-identical to the cold sweep at any
/// worker count. Replay changes work, never results.
#[test]
fn warm_start_front_is_bit_identical_to_cold() {
    let mut spec = spec_over(&["ex", "dct", "diffeq", "tseng"]);
    // A dense weight axis: close neighbours make long replays likely,
    // a far outlier forces divergence-and-fallback coverage too.
    spec.weights = vec![(2.0, 1.0), (2.0, 1.05), (2.2, 1.0), (0.1, 10.0)];
    let cold = explore(&spec, &jobs(1)).expect("cold sweep");

    let mut warm_spec = spec.clone();
    warm_spec.warm_start = true;
    for n in [1, 4] {
        let warm = explore(&warm_spec, &jobs(n)).expect("warm sweep");
        assert_eq!(
            cold.front_signature(),
            warm.front_signature(),
            "warm front diverged at {n} worker(s)"
        );
        assert_eq!(
            cold.results, warm.results,
            "results diverged at {n} worker(s)"
        );
        for r in &warm.results {
            assert!(r.replay.is_some(), "warm points carry the accounting pair");
        }
        if n == 1 {
            // Sequential completion order is point order, so every
            // same-bench successor has a close neighbour to replay.
            assert!(
                warm.stats.merges_replayed > 0,
                "dense neighbours must replay some merges, got {:?}",
                warm.stats
            );
        }
    }
    for r in &cold.results {
        assert!(r.replay.is_none(), "cold points carry no accounting pair");
    }
}

/// Warm journals round-trip through kill-and-resume: the scan recovers
/// the traces, the resumed run replays the missing points against
/// them, and the front stays bit-identical to an uninterrupted cold
/// sweep. A cold spec must refuse the trace-bearing journal.
#[test]
fn warm_journal_resumes_with_traces() {
    let mut spec = spec_over(&["dct", "tseng"]);
    spec.weights = vec![(2.0, 1.0), (2.0, 1.1), (1.9, 1.0)];
    let cold = explore(&spec, &jobs(1)).expect("cold sweep");

    let mut warm_spec = spec.clone();
    warm_spec.warm_start = true;
    let total = warm_spec.points().expect("points").len();
    let path = tmp_journal("warm-resume");
    let journaled = explore(
        &warm_spec,
        &ExploreConfig {
            jobs: 1,
            journal: Some(path.clone()),
            ..ExploreConfig::default()
        },
    )
    .expect("journaled warm sweep");
    assert_eq!(journaled.front_signature(), cold.front_signature());

    // Keep the first `keep` trace+point pairs (one of each per point),
    // then add a torn tail.
    let text = std::fs::read_to_string(&path).expect("journal exists");
    let mut lines: Vec<&str> = text.lines().collect();
    assert_eq!(
        lines.len(),
        2 + 2 * total,
        "header + trace/point pair per point"
    );
    let keep = 3usize;
    lines.truncate(2 + 2 * keep);
    let mut truncated = lines.join("\n");
    truncated.push_str("\ntrace 99 M N1 N"); // torn tail
    std::fs::write(&path, truncated).expect("truncate journal");

    let scan = load_journal(&path, &warm_spec).expect("journal loads");
    assert_eq!(scan.points.len(), keep);
    assert_eq!(scan.traces.len(), keep, "each kept point's trace survives");
    assert_eq!((scan.malformed, scan.torn_tail), (0, 1));
    let resumed = explore(
        &warm_spec,
        &ExploreConfig {
            jobs: 2,
            journal: Some(path.clone()),
            resume: scan.points,
            resume_torn_tail: scan.torn_tail,
            resume_traces: scan.traces,
            ..ExploreConfig::default()
        },
    )
    .expect("resumed warm sweep");
    assert_eq!(resumed.stats.points_resumed, keep);
    assert_eq!(resumed.stats.points_computed, total - keep);
    assert_eq!(resumed.front_signature(), cold.front_signature());
    assert_eq!(resumed.results, cold.results);

    // The cold spec has a different fingerprint: no silent half-schema
    // replay of a trace-bearing journal.
    let err = load_journal(&path, &spec).expect_err("cold spec refuses warm journal");
    assert!(err.to_string().contains("different sweep"), "{err}");
    let _ = std::fs::remove_file(&path);
}

/// Satellite: the chosen seed neighbour is a pure function of the
/// *set* of completed points and the target — independent of the
/// order worker completion happened to produce the set in.
#[test]
fn seed_neighbour_is_order_independent() {
    use rand::seq::SliceRandom;
    use rand::SeedableRng;

    let params = |bench: &str, flow, k, alpha, beta, bits| PointParams {
        bench: bench.into(),
        flow,
        k,
        alpha,
        beta,
        bits,
    };
    let pool = [
        params("dct", Flow::Ours, 3, 2.0, 1.0, 8),
        params("dct", Flow::Ours, 3, 2.0, 1.05, 8),
        params("dct", Flow::Ours, 2, 2.0, 1.0, 8), // k mismatch: penalized
        params("dct", Flow::Ours, 3, 0.1, 10.0, 8),
        params("dct", Flow::Camad, 3, 2.0, 1.0, 8), // baseline: ineligible
        params("dct", Flow::Ours, 3, 2.0, 1.0, 16), // bits mismatch: ineligible
        params("tseng", Flow::Ours, 3, 2.0, 1.0, 8), // other bench: ineligible
        params("dct", Flow::Ours, 3, 2.0, 1.05, 8), // exact tie with id 1
    ];
    let target = params("dct", Flow::Ours, 3, 2.0, 1.04, 8);

    let mut completed: Vec<(usize, &PointParams)> = pool.iter().enumerate().collect();
    let reference = select_seed(&completed, &target);
    assert_eq!(
        reference,
        Some(1),
        "nearest same-k neighbour, smaller id on ties"
    );

    let mut rng = rand::rngs::StdRng::seed_from_u64(0x5eed);
    for _ in 0..50 {
        completed.shuffle(&mut rng);
        assert_eq!(select_seed(&completed, &target), reference);
    }
    // Subsets behave too: with id 1 and its tie gone, the same-k pool
    // decides; k-mismatched neighbours only win when nothing else can.
    let without = |ids: &[usize]| {
        pool.iter()
            .enumerate()
            .filter(|(i, _)| !ids.contains(i))
            .collect::<Vec<_>>()
    };
    assert_eq!(select_seed(&without(&[1, 7]), &target), Some(0));
    assert_eq!(select_seed(&without(&[0, 1, 3, 7]), &target), Some(2));
    assert_eq!(select_seed(&without(&[0, 1, 2, 3, 7]), &target), None);
    // Baseline targets never consume a trace.
    let camad_target = params("dct", Flow::Camad, 3, 2.0, 1.0, 8);
    assert_eq!(select_seed(&completed, &camad_target), None);
}

/// A journal written for one sweep is rejected by another.
#[test]
fn journal_from_a_different_spec_is_rejected() {
    let spec = spec_over(&["tseng"]);
    let path = tmp_journal("mismatch");
    explore(
        &spec,
        &ExploreConfig {
            jobs: 1,
            journal: Some(path.clone()),
            ..ExploreConfig::default()
        },
    )
    .expect("journaled sweep");

    let mut other = spec_over(&["tseng"]);
    other.ks = vec![5];
    let err = load_journal(&path, &other).expect_err("fingerprint mismatch");
    assert!(err.to_string().contains("different sweep"), "{err}");
    let _ = std::fs::remove_file(&path);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Random small grids over the small benchmarks: sequential and
    /// parallel exploration always agree bit-for-bit.
    #[test]
    fn random_grids_agree_across_workers(
        k_pair in (1usize..4, 1usize..4),
        weight_sel in 0usize..4,
        bench_sel in 0usize..3,
        workers in 2usize..5,
    ) {
        let bench = ["ex", "paulin", "tseng"][bench_sel];
        let weights = [
            vec![(2.0, 1.0)],
            vec![(1.0, 10.0)],
            vec![(2.0, 1.0), (0.1, 10.0)],
            vec![(10.0, 1.0), (1.0, 1.0)],
        ][weight_sel].clone();
        let mut spec = spec_over(&[bench]);
        spec.ks = vec![k_pair.0, k_pair.0 + k_pair.1];
        spec.weights = weights;
        let seq = explore(&spec, &jobs(1)).expect("sequential");
        let par = explore(&spec, &jobs(workers)).expect("parallel");
        prop_assert_eq!(seq.front_signature(), par.front_signature());
        prop_assert_eq!(seq.results, par.results);
    }
}
