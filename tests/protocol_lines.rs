//! Golden serve-protocol lines, pinned byte for byte.
//!
//! Clients of `hlts serve` (and the end-to-end benchmark, which hashes
//! the raw text of every `done` result) depend on the exact bytes the
//! daemon writes: separators, key order, escaping and number form.
//! Each line below was recorded from the renderers before they moved
//! onto the shared JSON writer; any change to a separator, a key or a
//! float's spelling fails here. Short lines are pinned verbatim, long
//! payloads by length and FNV-1a digest.

use hlts::core::ProgressEvent;
use hlts::core::RunCtl;
use hlts::dfg::SymStats;
use hlts::dse::Flow;
use hlts::jobs::json::{object, object_lines, parse, Json};
use hlts::jobs::members;
use hlts::jobs::proto::{self, ExploreRequest, JobRequest, RunRequest, SourceRef};
use hlts::jobs::{
    execute, AtpgRequest, CancelOutcome, EngineCounts, JobEvent, JobOutput, WarmPool,
};
use hlts::tcov::TcovStats;

/// Lines longer than this are pinned by digest.
const VERBATIM_MAX: usize = 200;

fn fnv1a(text: &str) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for byte in text.as_bytes() {
        hash ^= u64::from(*byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// The pinned form of a line: itself, or `len=N fnv=HEX` when long.
fn pinned(line: &str) -> String {
    if line.len() <= VERBATIM_MAX {
        line.to_owned()
    } else {
        format!("len={} fnv={:016x}", line.len(), fnv1a(line))
    }
}

fn run(job: JobRequest) -> JobOutput {
    let spec = job.resolve().expect("request resolves");
    execute(&spec, &RunCtl::none(), &WarmPool::new(0)).expect("job runs")
}

fn inline_source() -> SourceRef {
    SourceRef::Inline {
        name: "t \"q\" ü".into(),
        text: "dfg t {\n  input a; // \"quoted\" \\ back\\slash, ünïcödé ✓\n  output a;\n}\n"
            .into(),
    }
}

fn explore_request(warm_start: bool) -> JobRequest {
    JobRequest::Explore(ExploreRequest {
        ks: vec![1, 2],
        weights: vec![(2.0, 1.0), (1.0, 10.0)],
        bits: vec![4],
        warm_start,
        ..ExploreRequest::new(vec![SourceRef::Bench("ex".into())])
    })
}

/// Every renderer of the protocol, on inputs that reach each branch.
fn lines() -> Vec<(&'static str, String)> {
    let mut out = vec![
        // Submit lines.
        (
            "submit bench",
            proto::render_submit(None, &RunRequest::new(SourceRef::Bench("ewf".into()))),
        ),
        (
            "submit path camad k alpha beta",
            proto::render_submit(
                Some("cli"),
                &RunRequest {
                    flow: Flow::Camad,
                    bits: 4,
                    k: Some(2),
                    alpha: Some(0.1),
                    beta: Some(10.0),
                    ..RunRequest::new(SourceRef::Path("some/dir/b.dfg".into()))
                },
            ),
        ),
        (
            "submit inline atpg",
            proto::render_submit(
                Some("a \"b\""),
                &RunRequest {
                    alpha: Some(2.0 / 3.0),
                    beta: Some(1e-7),
                    atpg: Some(AtpgRequest::with_overrides(Some(500))),
                    ..RunRequest::new(inline_source())
                },
            ),
        ),
        (
            "submit exhaustive atpg",
            proto::render_submit(
                None,
                &RunRequest {
                    flow: Flow::Approach2,
                    atpg: Some(AtpgRequest::with_overrides(Some(0))),
                    ..RunRequest::new(SourceRef::Bench("ex".into()))
                },
            ),
        ),
        // Responses.
        ("submit ok", proto::render_submit_ok(Some("c1"), 3)),
        ("submit ok no id", proto::render_submit_ok(None, 0)),
        (
            "error hostile",
            proto::render_error(
                Some("i\"d\\"),
                "bad \"x\" \\ y\nz \u{1} \u{1f} tab\t cr\r ü ✓",
            ),
        ),
        ("error no id", proto::render_error(None, "not valid JSON")),
        (
            "status",
            proto::render_status(
                Some("health"),
                &EngineCounts {
                    queued: 1,
                    running: 2,
                    done: 3,
                    failed: 4,
                    cancelled: 5,
                    warm_hits: 6,
                    warm_misses: 7,
                    merges_replayed: 8,
                    merges_recomputed: 9,
                    tcov: TcovStats {
                        ctx_hits: 10,
                        ctx_misses: 11,
                        report_hits: 12,
                        report_misses: 13,
                    },
                    workers: 14,
                    queue_capacity: 15,
                },
                16,
                SymStats {
                    count: 17,
                    bytes: 18,
                },
            ),
        ),
        (
            "status no id",
            proto::render_status(None, &EngineCounts::default(), 0, SymStats::default()),
        ),
    ];
    for outcome in [
        CancelOutcome::Dequeued,
        CancelOutcome::Signalled,
        CancelOutcome::Finished,
        CancelOutcome::Unknown,
    ] {
        out.push(("cancel", proto::render_cancel(Some("k"), 9, outcome)));
    }
    out.push((
        "cancel no id",
        proto::render_cancel(None, 2, CancelOutcome::Dequeued),
    ));
    out.push(("shutdown", proto::render_shutdown(Some("bye"))));
    out.push(("shutdown no id", proto::render_shutdown(None)));

    // Events.
    out.push(("started", proto::render_event(4, &JobEvent::Started)));
    out.push((
        "iteration",
        proto::render_event(
            4,
            &JobEvent::Progress(ProgressEvent::Iteration {
                iteration: 3,
                merges: 2,
            }),
        ),
    ));
    out.push((
        "point_done",
        proto::render_event(
            4,
            &JobEvent::Progress(ProgressEvent::PointDone {
                id: 7,
                completed: 3,
                total: 12,
            }),
        ),
    ));
    let plain = run(JobRequest::Run(RunRequest::new(SourceRef::Bench(
        "ex".into(),
    ))));
    out.push(("done run", proto::render_event(5, &JobEvent::Done(&plain))));
    let graded = run(JobRequest::Run(RunRequest {
        bits: 4,
        atpg: Some(AtpgRequest::with_overrides(Some(200))),
        ..RunRequest::new(SourceRef::Bench("ex".into()))
    }));
    out.push((
        "done graded run",
        proto::render_event(6, &JobEvent::Done(&graded)),
    ));
    let cold = run(explore_request(false));
    out.push((
        "done explore",
        proto::render_event(7, &JobEvent::Done(&cold)),
    ));
    let warm = run(explore_request(true));
    out.push((
        "done warm explore",
        proto::render_event(8, &JobEvent::Done(&warm)),
    ));
    let gen = run(JobRequest::Gen {
        seed: 7,
        preset: "balanced".into(),
    });
    out.push(("done gen", proto::render_event(9, &JobEvent::Done(&gen))));
    out.push((
        "failed",
        proto::render_event(10, &JobEvent::Failed("synthesis failed: \"x\"\n")),
    ));
    out.push((
        "cancelled",
        proto::render_event(11, &JobEvent::Cancelled(None)),
    ));
    out.push((
        "cancelled partial",
        proto::render_event(12, &JobEvent::Cancelled(Some(&warm))),
    ));
    out
}

/// Recorded from the renderers as they stood before the shared writer.
#[rustfmt::skip]
const GOLDEN: &[(&str, &str)] = &[
    ("submit bench", "{\"op\": \"submit\", \"job\": {\"kind\": \"run\", \"source\": \"bench:ewf\", \"flow\": \"ours\", \"bits\": 8}}"),
    ("submit path camad k alpha beta", "{\"op\": \"submit\", \"id\": \"cli\", \"job\": {\"kind\": \"run\", \"source\": \"some/dir/b.dfg\", \"flow\": \"camad\", \"bits\": 4, \"k\": 2, \"alpha\": 0.1, \"beta\": 10.0}}"),
    ("submit inline atpg", "len=286 fnv=60615811e577ee9c"),
    ("submit exhaustive atpg", "{\"op\": \"submit\", \"job\": {\"kind\": \"run\", \"source\": \"bench:ex\", \"flow\": \"approach2\", \"bits\": 8, \"atpg\": {\"fault_sample\": 0}}}"),
    ("submit ok", "{\"ok\": true, \"id\": \"c1\", \"job\": 3}"),
    ("submit ok no id", "{\"ok\": true, \"job\": 0}"),
    ("error hostile", "{\"ok\": false, \"id\": \"i\\\"d\\\\\", \"error\": \"bad \\\"x\\\" \\\\ y\\nz \\u0001 \\u001f tab\\t cr\\r ü ✓\"}"),
    ("error no id", "{\"ok\": false, \"error\": \"not valid JSON\"}"),
    ("status", "len=404 fnv=6b2e28592c729a58"),
    ("status no id", "len=379 fnv=e46a510f34cc33cd"),
    ("cancel", "{\"ok\": true, \"id\": \"k\", \"job\": 9, \"cancel\": \"dequeued\"}"),
    ("cancel", "{\"ok\": true, \"id\": \"k\", \"job\": 9, \"cancel\": \"signalled\"}"),
    ("cancel", "{\"ok\": true, \"id\": \"k\", \"job\": 9, \"cancel\": \"finished\"}"),
    ("cancel", "{\"ok\": true, \"id\": \"k\", \"job\": 9, \"cancel\": \"unknown\"}"),
    ("cancel no id", "{\"ok\": true, \"job\": 2, \"cancel\": \"dequeued\"}"),
    ("shutdown", "{\"ok\": true, \"id\": \"bye\", \"shutdown\": true}"),
    ("shutdown no id", "{\"ok\": true, \"shutdown\": true}"),
    ("started", "{\"event\": \"started\", \"job\": 4}"),
    ("iteration", "{\"event\": \"iteration\", \"job\": 4, \"iteration\": 3, \"merges\": 2}"),
    ("point_done", "{\"event\": \"point_done\", \"job\": 4, \"point\": 7, \"completed\": 3, \"total\": 12}"),
    ("done run", "len=812 fnv=0a3e934295799342"),
    ("done graded run", "len=1081 fnv=74de3355427be6ce"),
    ("done explore", "len=329 fnv=29faadd4057ea6a9"),
    ("done warm explore", "len=377 fnv=5ad68f454e43635c"),
    ("done gen", "len=565 fnv=4f99c5274843ba3f"),
    ("failed", "{\"event\": \"failed\", \"job\": 10, \"error\": \"synthesis failed: \\\"x\\\"\\n\"}"),
    ("cancelled", "{\"event\": \"cancelled\", \"job\": 11}"),
    ("cancelled partial", "len=384 fnv=a51cc5ffa805ba24"),
];

#[test]
fn protocol_lines_are_byte_identical() {
    let lines = lines();
    assert_eq!(lines.len(), GOLDEN.len(), "case count");
    for ((name, line), (golden_name, golden)) in lines.iter().zip(GOLDEN) {
        assert_eq!(name, golden_name, "case order");
        assert_eq!(pinned(line), *golden, "{name}: {line}");
        assert!(!line.contains('\n'), "{name}: multi-line protocol line");
    }
}

/// The writer alone decides separators, escaping, number form and the
/// two layouts; these are its rules on a small document.
#[test]
fn writer_owns_separators_escapes_and_number_forms() {
    let line = object(|o| {
        members!(o, "int": 8_usize, "float": 8.0, "frac": 0.1, "text": "a\"b\\c\nd\u{1}ü");
        o.opt("absent", None::<u32>)
            .opt("present", Some(true))
            .obj("empty", |_| {});
        o.items("ids", [1_u32, 2])
            .objects("rows", [false], |o, b| members!(o, "k": b));
    });
    assert_eq!(
        line,
        r#"{"int": 8, "float": 8.0, "frac": 0.1, "text": "a\"b\\c\nd\u0001ü", "present": true, "empty": {}, "ids": [1, 2], "rows": [{"k": false}]}"#
    );
    let text = parse(&line).unwrap();
    assert_eq!(
        text.get("text").and_then(Json::as_str),
        Some("a\"b\\c\nd\u{1}ü")
    );

    let block = object_lines(|o| {
        o.field("x", 1_u32).objects("rows", [2_u32, 3], |o, y| {
            o.field("y", y)
                .items("ids", Vec::<u32>::new())
                .obj("in", |o| {
                    o.objects("inline", [()], |_, ()| {});
                });
        });
        o.objects("none", Vec::<u32>::new(), |_, _| {});
    });
    assert_eq!(
        block,
        "{\n  \"x\": 1,\n  \"rows\": [\n    {\"y\": 2, \"ids\": [], \"in\": {\"inline\": [{}]}},\n    \
         {\"y\": 3, \"ids\": [], \"in\": {\"inline\": [{}]}}\n  ],\n  \"none\": []\n}"
    );
    parse(&block).unwrap();
}
