//! Smoke tests of the `hlts` command-line front end.

use std::process::Command;

fn hlts() -> Command {
    Command::new(env!("CARGO_BIN_EXE_hlts"))
}

#[test]
fn synthesizes_builtin_benchmark() {
    let out = hlts()
        .args(["bench:tseng", "--quiet"])
        .output()
        .expect("binary runs");
    assert!(out.status.success(), "{out:?}");
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("E = "), "{text}");
    assert!(text.contains("registers = "), "{text}");
}

#[test]
fn reads_a_dfg_file() {
    let dir = std::env::temp_dir().join("hlts-cli-test");
    std::fs::create_dir_all(&dir).expect("tmp dir");
    let path = dir.join("mini.dfg");
    std::fs::write(
        &path,
        "dfg mini { input a, b; N1: s = a + b; N2: p = s * b; output p; }",
    )
    .expect("write dfg");
    let out = hlts()
        .args([path.to_str().expect("utf8 path"), "--flow", "approach1"])
        .output()
        .expect("binary runs");
    assert!(out.status.success(), "{out:?}");
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("modules ="), "{text}");
}

#[test]
fn rejects_unknown_flow() {
    let out = hlts()
        .args(["bench:ex", "--flow", "wat"])
        .output()
        .expect("binary runs");
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("unknown flow"), "{err}");
}

#[test]
fn rejects_missing_file() {
    let out = hlts()
        .arg("/nonexistent/path.dfg")
        .output()
        .expect("binary runs");
    assert!(!out.status.success());
}

#[test]
fn usage_on_no_args() {
    let out = hlts().output().expect("binary runs");
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("usage:"), "{err}");
}

#[test]
fn run_subcommand_is_the_default() {
    let out = hlts()
        .args(["run", "bench:tseng", "--quiet"])
        .output()
        .expect("binary runs");
    assert!(out.status.success(), "{out:?}");
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("E = "), "{text}");
}

#[test]
fn rejects_zero_k() {
    let out = hlts()
        .args(["bench:ex", "--k", "0"])
        .output()
        .expect("binary runs");
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("--k must be >= 1"), "{err}");
}

#[test]
fn rejects_negative_and_nan_weights() {
    for (flag, value) in [("--alpha", "-0.5"), ("--beta", "NaN"), ("--alpha", "inf")] {
        let out = hlts()
            .args(["bench:ex", flag, value])
            .output()
            .expect("binary runs");
        assert!(!out.status.success(), "{flag} {value} accepted");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains("finite non-negative"), "{flag} {value}: {err}");
    }
}

#[test]
fn unknown_flag_error_lists_the_valid_flags() {
    let out = hlts()
        .args(["bench:ex", "--wat"])
        .output()
        .expect("binary runs");
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("`--wat`"), "{err}");
    for flag in [
        "--flow", "--bits", "--k", "--alpha", "--beta", "--atpg", "--json", "--quiet",
    ] {
        assert!(err.contains(flag), "missing {flag} in: {err}");
    }

    let out = hlts()
        .args(["explore", "bench:ex", "--wat"])
        .output()
        .expect("binary runs");
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    for flag in ["--weights", "--jobs", "--journal", "--resume"] {
        assert!(err.contains(flag), "missing {flag} in: {err}");
    }
}

#[test]
fn run_json_is_machine_readable() {
    let out = hlts()
        .args(["run", "bench:ex", "--json"])
        .output()
        .expect("binary runs");
    assert!(out.status.success(), "{out:?}");
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.trim_start().starts_with('{'), "{text}");
    assert!(text.trim_end().ends_with('}'), "{text}");
    for key in [
        "\"source\"",
        "\"metrics\"",
        "\"execution_time\"",
        "\"merges\"",
    ] {
        assert!(text.contains(key), "missing {key} in: {text}");
    }
    // JSON mode replaces the human report entirely.
    assert!(!text.contains("E = "), "{text}");
}

#[test]
fn explore_reports_a_pareto_front() {
    let out = hlts()
        .args([
            "explore",
            "bench:ex",
            "--k",
            "1,3",
            "--weights",
            "2:1,1:10",
            "--jobs",
            "2",
        ])
        .output()
        .expect("binary runs");
    assert!(out.status.success(), "{out:?}");
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("Pareto front"), "{text}");
    assert!(text.contains("explored 4 points"), "{text}");
}

#[test]
fn explore_json_is_machine_readable() {
    let out = hlts()
        .args([
            "explore",
            "bench:ex",
            "--k",
            "1",
            "--weights",
            "2:1",
            "--json",
        ])
        .output()
        .expect("binary runs");
    assert!(out.status.success(), "{out:?}");
    let text = String::from_utf8_lossy(&out.stdout);
    for key in ["\"points\"", "\"front\"", "\"stats\"", "\"points_total\""] {
        assert!(text.contains(key), "missing {key} in: {text}");
    }
}

#[test]
fn explore_journal_roundtrips_through_resume() {
    let dir = std::env::temp_dir().join("hlts-cli-test");
    std::fs::create_dir_all(&dir).expect("tmp dir");
    let path = dir.join(format!("resume-{}.journal", std::process::id()));
    let _ = std::fs::remove_file(&path);
    let journal = path.to_str().expect("utf8 path");
    let sweep = [
        "explore",
        "bench:ex",
        "--k",
        "1,2,3",
        "--weights",
        "2:1",
        "--quiet",
    ];

    let out = hlts()
        .args(sweep)
        .args(["--journal", journal])
        .output()
        .expect("binary runs");
    assert!(out.status.success(), "{out:?}");
    let first = String::from_utf8_lossy(&out.stdout).into_owned();
    assert!(first.contains("3 computed, 0 resumed"), "{first}");

    // Drop the last journal line to simulate an interrupted sweep.
    let text = std::fs::read_to_string(&path).expect("journal exists");
    let lines: Vec<&str> = text.lines().collect();
    std::fs::write(&path, lines[..lines.len() - 1].join("\n")).expect("truncate");

    let out = hlts()
        .args(sweep)
        .args(["--resume", journal])
        .output()
        .expect("binary runs");
    assert!(out.status.success(), "{out:?}");
    let second = String::from_utf8_lossy(&out.stdout);
    assert!(second.contains("1 computed, 2 resumed"), "{second}");
    // Identical front signature: resume changes nothing but the work done.
    let front = |s: &str| s.split("front: ").nth(1).map(str::to_owned);
    assert_eq!(front(&first), front(&second), "{first} vs {second}");
    let _ = std::fs::remove_file(&path);
}

#[test]
fn gen_is_deterministic_and_names_the_seed() {
    let run = || {
        let out = hlts()
            .args(["gen", "--seed", "11", "--preset", "loopy-mul"])
            .output()
            .expect("binary runs");
        assert!(out.status.success(), "{out:?}");
        String::from_utf8_lossy(&out.stdout).into_owned()
    };
    let first = run();
    assert_eq!(first, run(), "same (seed, preset) must emit identical text");
    assert!(first.starts_with("dfg loopy_mul_s11 {"), "{first}");
    assert!(
        first.contains("loop "),
        "loopy-mul closes loop pairs: {first}"
    );
}

#[test]
fn gen_pipes_into_run_via_stdin() {
    use std::io::Write as _;
    let gen = hlts()
        .args(["gen", "--seed", "3"])
        .output()
        .expect("binary runs");
    assert!(gen.status.success(), "{gen:?}");

    let mut run = hlts()
        .args(["run", "-", "--quiet", "--audit"])
        .stdin(std::process::Stdio::piped())
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::piped())
        .spawn()
        .expect("binary spawns");
    run.stdin
        .take()
        .expect("piped stdin")
        .write_all(&gen.stdout)
        .expect("feed dfg text");
    let out = run.wait_with_output().expect("binary runs");
    assert!(out.status.success(), "{out:?}");
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("audit: clean"), "{text}");
    assert!(text.contains("E = "), "{text}");
}

#[test]
fn gen_writes_to_a_file_and_lists_presets() {
    let dir = std::env::temp_dir().join("hlts-cli-test");
    std::fs::create_dir_all(&dir).expect("tmp dir");
    let path = dir.join(format!("gen-{}.dfg", std::process::id()));
    let out = hlts()
        .args(["gen", "--seed", "5", "--ops", "8", "--out"])
        .arg(&path)
        .output()
        .expect("binary runs");
    assert!(out.status.success(), "{out:?}");
    let text = std::fs::read_to_string(&path).expect("file written");
    assert!(text.starts_with("dfg balanced_s5 {"), "{text}");

    // The emitted file is directly synthesizable.
    let out = hlts()
        .arg(&path)
        .arg("--quiet")
        .output()
        .expect("binary runs");
    assert!(out.status.success(), "{out:?}");
    let _ = std::fs::remove_file(&path);

    let out = hlts()
        .args(["gen", "--list-presets"])
        .output()
        .expect("binary runs");
    assert!(out.status.success(), "{out:?}");
    let text = String::from_utf8_lossy(&out.stdout);
    for preset in ["balanced", "deep-arith", "wide-logic", "loopy-mul"] {
        assert!(text.contains(preset), "missing {preset} in: {text}");
    }
}

#[test]
fn gen_rejects_unknown_presets_and_bad_knobs() {
    let out = hlts()
        .args(["gen", "--preset", "wat"])
        .output()
        .expect("binary runs");
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("unknown preset `wat`"), "{err}");
    assert!(err.contains("balanced"), "should list presets: {err}");

    let out = hlts()
        .args(["gen", "--ops", "0"])
        .output()
        .expect("binary runs");
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("ops must be >= 1"), "{err}");

    let out = hlts().args(["gen", "--wat"]).output().expect("binary runs");
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("--preset"), "should list gen flags: {err}");
}

#[test]
fn serve_answers_stdin_requests_line_by_line() {
    use std::io::{BufRead as _, BufReader, Write as _};
    let mut daemon = hlts()
        .args(["serve", "--workers", "1", "--queue", "4"])
        .stdin(std::process::Stdio::piped())
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::piped())
        .spawn()
        .expect("binary spawns");
    let mut stdin = daemon.stdin.take().expect("piped stdin");
    let mut lines = BufReader::new(daemon.stdout.take().expect("piped stdout")).lines();
    let mut next = |what: &str| -> String {
        lines
            .next()
            .unwrap_or_else(|| panic!("daemon closed stdout waiting for {what}"))
            .expect("read line")
    };
    writeln!(
        stdin,
        r#"{{"op":"submit","id":"j1","job":{{"kind":"run","source":"bench:ex"}}}}"#
    )
    .expect("write submit");
    let ack = next("submit ack");
    assert!(
        ack.contains("\"ok\": true") && ack.contains("\"id\": \"j1\""),
        "{ack}"
    );
    // Progress events stream until the terminal done event.
    loop {
        let line = next("done event");
        if line.contains("\"event\": \"done\"") {
            assert!(line.contains("\"metrics\""), "{line}");
            break;
        }
        assert!(line.contains("\"event\""), "{line}");
    }
    // The done event is emitted just before the job table publishes
    // the terminal state, so poll status until it settles.
    let status = loop {
        writeln!(stdin, r#"{{"op":"status"}}"#).expect("write status");
        let status = next("status");
        if status.contains("\"done\": 1") {
            break status;
        }
        std::thread::yield_now();
    };
    assert!(status.contains("\"interner\""), "{status}");
    writeln!(stdin, r#"{{"op":"shutdown","id":"bye"}}"#).expect("write shutdown");
    let bye = next("shutdown ack");
    assert!(
        bye.contains("\"shutdown\": true") && bye.contains("\"id\": \"bye\""),
        "{bye}"
    );
    let out = daemon.wait_with_output().expect("daemon exits");
    assert!(out.status.success(), "{out:?}");
}

#[test]
fn submit_requires_a_reachable_daemon() {
    // No --connect at all.
    let out = hlts()
        .args(["submit", "bench:ex"])
        .output()
        .expect("binary runs");
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("--connect"), "{err}");

    // A --connect nobody listens on: a clean error, not a hang.
    let out = hlts()
        .args(["submit", "bench:ex", "--connect", "127.0.0.1:1"])
        .output()
        .expect("binary runs");
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("connect"), "{err}");
}

/// Ctrl-C on a one-shot sweep: the process exits cleanly with the
/// partial front and a `degraded: cancelled` line, not a dead pipe.
#[cfg(unix)]
#[test]
fn explore_interrupt_reports_a_partial_front() {
    // 18 ewf points take many seconds; the interrupt lands mid-sweep.
    let child = hlts()
        .args([
            "explore",
            "bench:ewf",
            "--k",
            "1,2,3,4,5,6",
            "--weights",
            "2:1,10:1,1:10",
        ])
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::piped())
        .spawn()
        .expect("binary spawns");
    std::thread::sleep(std::time::Duration::from_millis(400));
    let interrupt = Command::new("kill")
        .args(["-INT", &child.id().to_string()])
        .status()
        .expect("kill runs");
    assert!(interrupt.success(), "kill -INT failed");
    let out = child.wait_with_output().expect("binary runs");
    assert!(out.status.success(), "{out:?}");
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("degraded: cancelled"), "{text}");
    assert!(text.contains("Pareto front"), "{text}");
}

/// The journal's crash model (DESIGN.md §4.6): a process killed with
/// SIGKILL mid-sweep loses at most the line it was writing, and
/// `--resume` then reaches the front an uninterrupted sweep reports.
/// The sweep is a graded warm-start one, whose appends carry a `trace`
/// line before each `point` line, so a torn tail may also orphan a
/// trace.
#[cfg(unix)]
#[test]
fn explore_resumes_after_sigkill_to_the_uninterrupted_front() {
    let dir = std::env::temp_dir().join("hlts-cli-test");
    std::fs::create_dir_all(&dir).expect("tmp dir");
    let path = dir.join(format!("sigkill-{}.journal", std::process::id()));
    let _ = std::fs::remove_file(&path);
    let journal = path.to_str().expect("utf8 path");
    let sweep = [
        "explore",
        "bench:ex",
        "--k",
        "1,2,3",
        "--weights",
        "2:1,10:1,1:10",
        "--bits",
        "4",
        "--atpg",
        "--fault-sample",
        "200",
        "--warm-start",
        "on",
        "--jobs",
        "1",
        "--quiet",
    ];
    const TOTAL: usize = 9;
    let points = || {
        std::fs::read_to_string(&path)
            .unwrap_or_default()
            .lines()
            .filter(|l| l.starts_with("point "))
            .count()
    };

    let out = hlts().args(sweep).output().expect("binary runs");
    assert!(out.status.success(), "{out:?}");
    let uninterrupted = String::from_utf8_lossy(&out.stdout).into_owned();

    let mut child = hlts()
        .args(sweep)
        .args(["--journal", journal])
        .stdout(std::process::Stdio::null())
        .spawn()
        .expect("binary spawns");
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(120);
    while points() == 0 {
        assert!(
            child.try_wait().expect("child status").is_none(),
            "the sweep exited before journaling a point"
        );
        assert!(std::time::Instant::now() < deadline, "no point journaled");
        std::thread::sleep(std::time::Duration::from_millis(1));
    }
    child.kill().expect("SIGKILL delivered");
    child.wait().expect("child reaped");
    let journaled = points();
    assert!(
        (1..TOTAL).contains(&journaled),
        "the kill must land mid-sweep: {journaled} of {TOTAL} points journaled"
    );

    let out = hlts()
        .args(sweep)
        .args(["--resume", journal])
        .output()
        .expect("binary runs");
    assert!(out.status.success(), "{out:?}");
    let resumed = String::from_utf8_lossy(&out.stdout).into_owned();
    // Every whole point line is resumed; a line torn by the kill is
    // dropped and its point recomputed.
    let count = |word: &str| -> usize {
        let head = resumed
            .split(&format!(" {word}"))
            .next()
            .unwrap_or_default();
        let digits = head.rsplit(|c: char| !c.is_ascii_digit()).next();
        digits.and_then(|d| d.parse().ok()).unwrap_or(usize::MAX)
    };
    let (computed, reused) = (count("computed"), count("resumed"));
    assert_eq!(computed + reused, TOTAL, "{resumed}");
    assert!(reused + 1 >= journaled && reused <= journaled, "{resumed}");
    let front = |s: &str| s.split("front: ").nth(1).map(str::to_owned);
    assert!(front(&uninterrupted).is_some(), "{uninterrupted}");
    assert_eq!(
        front(&uninterrupted),
        front(&resumed),
        "{uninterrupted} vs {resumed}"
    );
    let _ = std::fs::remove_file(&path);
}

/// Every worker-count flag rejects `0` through the same validator —
/// `explore --jobs 0` used to be the odd one out, so pin all of them.
#[test]
fn zero_worker_counts_are_rejected_uniformly() {
    let cases: [(&[&str], &str); 4] = [
        (
            &["explore", "bench:ex", "--jobs", "0"],
            "--jobs must be >= 1",
        ),
        (
            &["bench:ex", "--atpg", "--tcov-jobs", "0"],
            "--tcov-jobs must be >= 1",
        ),
        (&["serve", "--workers", "0"], "--workers must be >= 1"),
        (&["serve", "--queue", "0"], "--queue must be >= 1"),
    ];
    for (args, message) in cases {
        let out = hlts().args(args).output().expect("binary runs");
        assert!(!out.status.success(), "{args:?} accepted");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains(message), "{args:?}: {err}");
    }
}

/// `--warm-start on` replays neighbour traces but reports the very
/// same front as a cold sweep; garbage modes are rejected.
#[test]
fn explore_warm_start_preserves_the_front() {
    let sweep = [
        "explore",
        "bench:ex",
        "--k",
        "2",
        "--weights",
        "2:1,2:1.05,1:10",
        "--quiet",
    ];
    let run = |extra: &[&str]| {
        let out = hlts()
            .args(sweep)
            .args(extra)
            .output()
            .expect("binary runs");
        assert!(out.status.success(), "{out:?}");
        String::from_utf8_lossy(&out.stdout).into_owned()
    };
    let cold = run(&["--warm-start", "off"]);
    let warm = run(&["--warm-start", "on"]);
    let front = |s: &str| s.split("front: ").nth(1).map(str::to_owned);
    assert_eq!(front(&cold), front(&warm), "{cold} vs {warm}");

    let out = hlts()
        .args(["explore", "bench:ex", "--warm-start", "sideways"])
        .output()
        .expect("binary runs");
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("expected off or on"), "{err}");
}

#[test]
fn explore_rejects_journal_plus_resume() {
    let out = hlts()
        .args([
            "explore",
            "bench:ex",
            "--journal",
            "/tmp/a",
            "--resume",
            "/tmp/b",
        ])
        .output()
        .expect("binary runs");
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("either --journal"), "{err}");
}

/// The `metrics` object of a `run --json` report or a `done` event
/// (flat, so it ends at the first closing brace).
fn metrics_of(text: &str) -> &str {
    let start = text.find("\"metrics\": ").expect("metrics field");
    let end = start + text[start..].find('}').expect("metrics object end");
    &text[start..=end]
}

/// `hlts submit` against a live TCP daemon returns the same metrics as
/// `hlts run --json` with the same flags, for a benchmark, a file and
/// stdin: both parse into one job request and resolve it identically.
#[test]
fn submit_matches_run_for_the_same_arguments() {
    use std::io::{BufRead as _, BufReader, Write as _};
    let mut daemon = hlts()
        .args(["serve", "--tcp", "127.0.0.1:0", "--workers", "1"])
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::piped())
        .spawn()
        .expect("binary spawns");
    let mut banner = String::new();
    BufReader::new(daemon.stdout.take().expect("piped stdout"))
        .read_line(&mut banner)
        .expect("read banner");
    let addr = banner
        .trim()
        .strip_prefix("listening on ")
        .unwrap_or_else(|| panic!("unexpected banner `{banner}`"))
        .to_owned();

    let dir = std::env::temp_dir().join("hlts-cli-test");
    std::fs::create_dir_all(&dir).expect("tmp dir");
    let path = dir.join(format!("submit-{}.dfg", std::process::id()));
    let text = "dfg mini { input a, b; N1: s = a + b; N2: p = s * b; N3: q = p - a; output q; }";
    std::fs::write(&path, text).expect("write dfg");
    let file = path.to_str().expect("utf8 path");

    let run = |args: &[&str], stdin: Option<&str>| -> String {
        let mut child = hlts()
            .args(args)
            .stdin(std::process::Stdio::piped())
            .stdout(std::process::Stdio::piped())
            .stderr(std::process::Stdio::piped())
            .spawn()
            .expect("binary spawns");
        let mut input = child.stdin.take().expect("piped stdin");
        if let Some(text) = stdin {
            input.write_all(text.as_bytes()).expect("feed stdin");
        }
        drop(input);
        let out = child.wait_with_output().expect("binary runs");
        assert!(out.status.success(), "{args:?}: {out:?}");
        String::from_utf8_lossy(&out.stdout).into_owned()
    };
    let cases: [(&[&str], Option<&str>); 3] = [
        (&["bench:ex", "--flow", "camad", "--k", "2"], None),
        (&[file], None),
        (&["-"], Some(text)),
    ];
    for (args, stdin) in cases {
        let local = run(&[&["run"], args, &["--json"]].concat(), stdin);
        let served = run(&[&["submit"], args, &["--connect", &addr]].concat(), stdin);
        let done = served
            .lines()
            .find(|l| l.contains("\"event\": \"done\""))
            .unwrap_or_else(|| panic!("{args:?}: no done event in {served}"));
        assert_eq!(metrics_of(done), metrics_of(&local), "{args:?}");
    }
    let _ = std::fs::remove_file(&path);

    let mut stream = std::net::TcpStream::connect(&addr).expect("connect");
    writeln!(stream, r#"{{"op":"shutdown"}}"#).expect("send shutdown");
    let mut ack = String::new();
    BufReader::new(stream)
        .read_line(&mut ack)
        .expect("read ack");
    assert!(ack.contains("\"shutdown\": true"), "{ack}");
    let out = daemon.wait_with_output().expect("daemon exits");
    assert!(out.status.success(), "{out:?}");
}
