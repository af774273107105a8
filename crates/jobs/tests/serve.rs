//! Daemon protocol tests over real TCP sockets: concurrent clients
//! with bit-identical results, structured malformed-line handling,
//! and deterministic queue backpressure.

use std::io::{BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};

use hlts_core::{EvalMode, NullSink, RunCtl, SynthesisParams};
use hlts_dse::Flow;
use hlts_jobs::json::{self, Json};
use hlts_jobs::serve::MAX_LINE_BYTES;
use hlts_jobs::{execute, proto, JobOutput, JobSpec, ServeConfig, WarmPool};

/// Spawn a daemon on an ephemeral port; returns (addr, join handle).
fn spawn_daemon(cfg: ServeConfig) -> (String, std::thread::JoinHandle<()>) {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    let handle = std::thread::spawn(move || {
        hlts_jobs::serve_tcp(listener, cfg).unwrap();
    });
    (addr, handle)
}

/// One protocol client: line-oriented send/receive over TCP.
struct Client {
    write: TcpStream,
    read: BufReader<TcpStream>,
}

impl Client {
    fn connect(addr: &str) -> Client {
        let stream = TcpStream::connect(addr).unwrap();
        Client {
            write: stream.try_clone().unwrap(),
            read: BufReader::new(stream),
        }
    }

    fn send(&mut self, line: &str) {
        self.send_raw(format!("{line}\n").as_bytes());
    }

    fn send_raw(&mut self, bytes: &[u8]) {
        self.write.write_all(bytes).unwrap();
        self.write.flush().unwrap();
    }

    fn recv(&mut self) -> Json {
        let mut line = String::new();
        assert!(
            self.read.read_line(&mut line).unwrap() > 0,
            "daemon closed the connection"
        );
        json::parse(line.trim()).unwrap_or_else(|e| panic!("bad line `{line}`: {e}"))
    }

    /// Next *response* line (`ok` field), skipping event lines.
    fn recv_response(&mut self) -> Json {
        loop {
            let doc = self.recv();
            if doc.get("ok").is_some() {
                return doc;
            }
        }
    }

    /// Read until the given job's terminal event; returns it.
    fn recv_terminal(&mut self, job: u64) -> Json {
        loop {
            let doc = self.recv();
            if doc.get("job").and_then(Json::as_u64) == Some(job)
                && matches!(
                    doc.get("event").and_then(Json::as_str),
                    Some("done" | "failed" | "cancelled")
                )
            {
                return doc;
            }
        }
    }
}

fn shutdown(addr: &str) {
    let mut c = Client::connect(addr);
    c.send(r#"{"op":"shutdown"}"#);
    let ack = c.recv_response();
    assert_eq!(ack.get("shutdown"), Some(&Json::Bool(true)));
}

/// The one-shot result a daemon submission must match bit-for-bit.
fn oneshot_result_json(bench: &str, flow: Flow, bits: u32) -> Json {
    let mut params = SynthesisParams::paper_defaults(bits);
    if flow == Flow::Camad {
        params.alpha = 0.1;
        params.beta = 10.0;
    }
    let spec = JobSpec::Run {
        name: bench.to_owned(),
        dfg: hlts_benchmarks::by_name(bench).unwrap(),
        flow,
        params,
        mode: EvalMode::Sequential,
        warm: None,
        atpg: None,
    };
    let ctl = RunCtl {
        cancel: hlts_core::CancelToken::new(),
        progress: &NullSink,
    };
    let JobOutput::Run(result) = execute(&spec, &ctl, &WarmPool::new(0)).unwrap() else {
        panic!("expected run output");
    };
    json::parse(&proto::run_result_json(&result.result)).unwrap()
}

#[test]
fn concurrent_tcp_clients_get_bit_identical_results() {
    let (addr, daemon) = spawn_daemon(ServeConfig {
        workers: 2,
        queue_capacity: 16,
        warm_capacity: 4,
    });
    let cases = [("ex", "ours"), ("tseng", "camad"), ("paulin", "ours")];
    let mut clients = Vec::new();
    for (i, (bench, flow)) in cases.iter().enumerate() {
        let addr = addr.clone();
        let bench = (*bench).to_owned();
        let flow = (*flow).to_owned();
        clients.push(std::thread::spawn(move || {
            let mut c = Client::connect(&addr);
            c.send(&format!(
                r#"{{"op":"submit","id":"c{i}","job":{{"kind":"run","source":"bench:{bench}","flow":"{flow}"}}}}"#
            ));
            let ack = c.recv_response();
            assert_eq!(ack.get("ok"), Some(&Json::Bool(true)));
            assert_eq!(
                ack.get("id").and_then(Json::as_str),
                Some(format!("c{i}").as_str())
            );
            let job = ack.get("job").and_then(Json::as_u64).unwrap();
            let done = c.recv_terminal(job);
            assert_eq!(done.get("event").and_then(Json::as_str), Some("done"));
            done.get("result").unwrap().clone()
        }));
    }
    for (client, (bench, flow)) in clients.into_iter().zip(cases) {
        let got = client.join().unwrap();
        let want = oneshot_result_json(bench, Flow::parse(flow).unwrap(), 8);
        assert_eq!(got, want, "daemon result for {bench}/{flow} diverged");
    }
    shutdown(&addr);
    daemon.join().unwrap();
}

#[test]
fn malformed_lines_answer_structured_errors_and_never_kill_the_connection() {
    let (addr, daemon) = spawn_daemon(ServeConfig {
        workers: 1,
        queue_capacity: 4,
        warm_capacity: 2,
    });
    let mut c = Client::connect(&addr);
    // Not JSON at all.
    c.send("garbage !!");
    let e = c.recv_response();
    assert_eq!(e.get("ok"), Some(&Json::Bool(false)));
    assert_eq!(e.get("id"), None);
    // Bytes that are not UTF-8.
    c.send_raw(b"\xff\xfe\n");
    let e = c.recv_response();
    assert_eq!(e.get("ok"), Some(&Json::Bool(false)));
    // A line over the cap: answered, then skipped without buffering.
    let mut long = vec![b'x'; MAX_LINE_BYTES + 1];
    long.push(b'\n');
    c.send_raw(&long);
    let e = c.recv_response();
    assert_eq!(e.get("ok"), Some(&Json::Bool(false)));
    let message = e.get("error").and_then(Json::as_str).unwrap();
    assert!(message.contains(&MAX_LINE_BYTES.to_string()), "{message}");
    // Valid JSON, broken request — the id must come back.
    c.send(r#"{"op":"submit","id":"m1","job":{"kind":"run"}}"#);
    let e = c.recv_response();
    assert_eq!(e.get("ok"), Some(&Json::Bool(false)));
    assert_eq!(e.get("id").and_then(Json::as_str), Some("m1"));
    // Unknown benchmark: rejected at resolve, same structured shape.
    c.send(r#"{"op":"submit","id":"m2","job":{"kind":"run","source":"bench:nope"}}"#);
    let e = c.recv_response();
    assert_eq!(e.get("id").and_then(Json::as_str), Some("m2"));
    assert!(e
        .get("error")
        .and_then(Json::as_str)
        .unwrap()
        .contains("unknown benchmark"));
    // The connection still works and the health counter saw exactly
    // the four *protocol-level* malformed lines (resolve failures are
    // well-formed requests).
    c.send(r#"{"op":"status","id":"s1"}"#);
    let s = c.recv_response();
    assert_eq!(s.get("ok"), Some(&Json::Bool(true)));
    let status = s.get("status").unwrap();
    assert_eq!(
        status.get("malformed_requests").and_then(Json::as_u64),
        Some(4)
    );
    let interner = status.get("interner").unwrap();
    assert!(interner.get("count").and_then(Json::as_u64).unwrap() > 0);
    // And real work still runs on the same connection.
    c.send(r#"{"op":"submit","id":"ok1","job":{"kind":"gen","seed":3}}"#);
    let ack = c.recv_response();
    let job = ack.get("job").and_then(Json::as_u64).unwrap();
    let done = c.recv_terminal(job);
    let dfg = done
        .get("result")
        .and_then(|r| r.get("dfg"))
        .and_then(Json::as_str)
        .unwrap();
    hlts_dfg::parse(dfg).unwrap();
    shutdown(&addr);
    daemon.join().unwrap();
}

#[test]
fn full_queue_rejects_submissions_until_slots_free_up() {
    let (addr, daemon) = spawn_daemon(ServeConfig {
        workers: 1,
        queue_capacity: 2,
        warm_capacity: 2,
    });
    let mut c = Client::connect(&addr);
    // A sweep long enough to hold the single worker while the queue
    // fills behind it.
    c.send(
        r#"{"op":"submit","id":"long","job":{"kind":"explore","sources":["bench:ewf"],
            "ks":[1,2,3,4],"weights":[[2,1],[10,1],[1,10]]}}"#
            .replace('\n', " ")
            .as_str(),
    );
    let ack = c.recv_response();
    let long_job = ack.get("job").and_then(Json::as_u64).unwrap();
    // Wait until the worker actually claimed it.
    loop {
        c.send(r#"{"op":"status"}"#);
        let s = c.recv_response();
        let jobs = s.get("status").and_then(|s| s.get("jobs")).unwrap();
        if jobs.get("running").and_then(Json::as_u64) == Some(1) {
            break;
        }
        std::thread::yield_now();
    }
    // Two queued submissions fit; the third bounces.
    for id in ["q1", "q2"] {
        c.send(&format!(
            r#"{{"op":"submit","id":"{id}","job":{{"kind":"run","source":"bench:ex"}}}}"#
        ));
        let ack = c.recv_response();
        assert_eq!(
            ack.get("ok"),
            Some(&Json::Bool(true)),
            "submit {id}: {ack:?}"
        );
    }
    c.send(r#"{"op":"submit","id":"q3","job":{"kind":"run","source":"bench:ex"}}"#);
    let rejected = c.recv_response();
    assert_eq!(rejected.get("ok"), Some(&Json::Bool(false)));
    assert!(rejected
        .get("error")
        .and_then(Json::as_str)
        .unwrap()
        .contains("queue full"));
    // Cancelling the running sweep frees the worker; the queue drains.
    c.send(&format!(r#"{{"op":"cancel","job":{long_job}}}"#));
    let cancel = c.recv_response();
    assert_eq!(
        cancel.get("cancel").and_then(Json::as_str),
        Some("signalled")
    );
    let terminal = c.recv_terminal(long_job);
    assert_eq!(
        terminal.get("event").and_then(Json::as_str),
        Some("cancelled")
    );
    // The cancelled sweep kept its finished points as a partial front.
    if let Some(partial) = terminal.get("partial") {
        assert!(
            partial
                .get("points_cancelled")
                .and_then(Json::as_u64)
                .unwrap()
                > 0
        );
    }
    shutdown(&addr);
    daemon.join().unwrap();
}
