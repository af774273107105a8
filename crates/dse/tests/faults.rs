//! Fault-injection tests of the exploration runner (enabled by the
//! `test-faults` feature): killed workers, a panicking journal sink
//! (poisoning its mutex mid-sweep) and mid-file journal corruption
//! must all degrade to correct partial results — never to a poisoned
//! abort or a wrong Pareto front.
//!
//! The fault plan is process-global, so everything lives in one test
//! function — parallel test threads would steal each other's charges.

#![cfg(feature = "test-faults")]

use std::path::PathBuf;

use hlts_check::faults::{sites, FaultPlan};
use hlts_dse::{explore, load_journal, ExploreConfig, ExploreOutcome, ParetoArchive, SweepSpec};

fn spec() -> SweepSpec {
    let mut spec = SweepSpec::new(vec![
        (
            "tseng".into(),
            hlts_benchmarks::by_name("tseng").expect("known bench"),
        ),
        (
            "ex".into(),
            hlts_benchmarks::by_name("ex").expect("known bench"),
        ),
    ]);
    spec.ks = vec![1, 3];
    spec.weights = vec![(2.0, 1.0), (1.0, 10.0)];
    spec
}

fn tmp_journal(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("hlts-dse-fault-tests");
    std::fs::create_dir_all(&dir).expect("tmp dir");
    let path = dir.join(format!("{tag}-{}.journal", std::process::id()));
    let _ = std::fs::remove_file(&path);
    path
}

/// The front a clean sweep restricted to `completed` yields — the
/// oracle every degraded outcome is compared against.
fn subset_front(clean: &ExploreOutcome, completed: &[usize]) -> Vec<usize> {
    let mut archive = ParetoArchive::new();
    for r in &clean.results {
        if completed.contains(&r.id) {
            archive.insert(r.clone());
        }
    }
    archive.into_entries().iter().map(|r| r.id).collect()
}

#[test]
fn injected_faults_degrade_to_correct_partial_results() {
    let spec = spec();
    let total = spec.points().expect("points").len();
    assert_eq!(total, 8);
    let clean = explore(&spec, &ExploreConfig::default()).expect("clean sweep");
    assert!(clean.failures.is_empty());

    // 1. Kill one worker mid-sweep: exactly the claimed point fails,
    // the surviving workers drain the queue, and the front over the
    // completed points is bit-identical to the clean run's subset.
    {
        let guard = FaultPlan::new().arm(sites::DSE_WORKER_KILL, 1).install();
        let outcome = explore(
            &spec,
            &ExploreConfig {
                jobs: 3,
                ..ExploreConfig::default()
            },
        )
        .expect("faulted sweep still returns");
        assert!(guard.fired().contains(&sites::DSE_WORKER_KILL));
        drop(guard);

        assert_eq!(outcome.failures.len(), 1, "{:?}", outcome.failures);
        assert_eq!(outcome.stats.points_failed, 1);
        assert!(outcome.failures[0].message.contains("killed"));
        let dead = outcome.failures[0].id;
        assert_eq!(outcome.results.len(), total - 1);

        // completed results are bit-identical to the clean run's
        for r in &outcome.results {
            let reference = clean
                .results
                .iter()
                .find(|c| c.id == r.id)
                .expect("clean run covers every id");
            assert_eq!(r, reference, "point {} diverged under faults", r.id);
        }
        let completed: Vec<usize> = outcome.results.iter().map(|r| r.id).collect();
        assert!(!completed.contains(&dead));
        let front_ids: Vec<usize> = outcome.front.iter().map(|r| r.id).collect();
        assert_eq!(
            front_ids,
            subset_front(&clean, &completed),
            "degraded front must equal the clean subset front"
        );
    }

    // 2. Journal sink panics mid-append while holding the sink lock:
    // the mutex is poisoned, but later appends recover it — only the
    // panicking point fails, and the journal stays resumable.
    {
        let path = tmp_journal("sink-panic");
        let hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {})); // silence the injected panic
        let guard = FaultPlan::new().arm(sites::DSE_SINK_PANIC, 1).install();
        let outcome = explore(
            &spec,
            &ExploreConfig {
                jobs: 2,
                journal: Some(path.clone()),
                ..ExploreConfig::default()
            },
        )
        .expect("sweep survives a poisoned journal sink");
        drop(guard);
        std::panic::set_hook(hook);

        assert_eq!(outcome.failures.len(), 1, "{:?}", outcome.failures);
        assert!(
            outcome.failures[0].message.contains("panicked"),
            "{:?}",
            outcome.failures
        );
        assert_eq!(outcome.results.len(), total - 1);

        // the journal holds every completed point; a resume finishes
        // the lost one and lands on the clean front
        let scan = load_journal(&path, &spec).expect("journal still loads");
        assert_eq!(scan.points.len(), total - 1);
        assert_eq!(scan.malformed, 0);
        let resumed = explore(
            &spec,
            &ExploreConfig {
                resume: scan.points,
                resume_malformed: scan.malformed,
                ..ExploreConfig::default()
            },
        )
        .expect("resume completes the sweep");
        assert!(resumed.failures.is_empty());
        assert_eq!(resumed.stats.points_computed, 1);
        assert_eq!(resumed.front_signature(), clean.front_signature());
        let _ = std::fs::remove_file(&path);
    }

    // 3. Journal corruption mid-file: the sweep itself is unharmed;
    // the resume loader skips the garbled line, reports it, and only
    // recomputes the lost point.
    {
        let path = tmp_journal("sink-corrupt");
        let guard = FaultPlan::new().arm(sites::DSE_SINK_CORRUPT, 1).install();
        let outcome = explore(
            &spec,
            &ExploreConfig {
                jobs: 2,
                journal: Some(path.clone()),
                ..ExploreConfig::default()
            },
        )
        .expect("sweep with corrupted journal line completes");
        drop(guard);
        assert!(outcome.failures.is_empty(), "{:?}", outcome.failures);
        assert_eq!(outcome.front_signature(), clean.front_signature());

        let scan = load_journal(&path, &spec).expect("journal loads around the damage");
        assert_eq!(scan.malformed, 1, "the garbled line is counted");
        assert_eq!(scan.points.len(), total - 1);
        let resumed = explore(
            &spec,
            &ExploreConfig {
                resume: scan.points,
                resume_malformed: scan.malformed,
                ..ExploreConfig::default()
            },
        )
        .expect("resume recomputes only the corrupted point");
        assert_eq!(resumed.stats.points_computed, 1);
        assert_eq!(resumed.stats.journal_malformed, 1);
        assert_eq!(resumed.front_signature(), clean.front_signature());
        let _ = std::fs::remove_file(&path);
    }
}
