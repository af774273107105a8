//! `serve`: an in-process `serve_tcp` daemon (2 workers, queue 64,
//! warm pool 16) driven over one TCP connection by a load generator of
//! two threads (sender, reader).
//!
//! Traffic is a fixed multiset of requests over a 16-behavior pool —
//! 55% synthesis-only runs over six (k, α, β, bits) combinations, 25%
//! graded runs (64-fault sample), 15% small warm-start explores and 5%
//! gen requests — with Zipf-distributed behavior popularity (rank r
//! drawn ∝ 1/r). The seed shuffles the multiset into a request
//! sequence, pass after pass: the composition of every pass, and so
//! the work, is the same for every seed, while the order in which the
//! caches, queue and workers see it changes.
//!
//! After one unmeasured warm-up pass, two phases: a closed-loop
//! capacity phase keeping two requests in flight, whose completion
//! rate is the throughput, then an open loop sending at
//! [`RATE_PER_S`], with latency timed from each request's due time (so
//! a stall also delays the requests behind it). Every repeat of a
//! request must return a byte-identical result.

use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use hlts_core::{EvalMode, SynthesisParams};
use hlts_dse::json_string;
use hlts_jobs::json::{self, Json};
use hlts_jobs::ServeConfig;

use crate::calib::Speed;
use crate::corpus::{self, Source};
use crate::pipeline::{self, Design};
use crate::report::{self, check_pins, ratio, Outcome, PhaseMetrics};
use crate::stats::{cpu_ms, cpu_since, digest, percentile};
use crate::trace::Tracer;
use crate::{Opts, Setup, PASS_RUNS};

/// Open-loop send rate: about half of the capacity measured on a
/// 2-CPU host, fixed once so that every run offers the same load.
pub const RATE_PER_S: f64 = 22.0;
/// Latency limit: three times the unloaded p90 latency, rounded up to
/// 100 ms.
pub const SLO_MS: f64 = 200.0;
/// Shares of `--seconds` given to the capacity phase and the open loop
/// (a warm-up pass runs before both).
const CAPACITY_SHARE: f64 = 0.45;
const OPEN_SHARE: f64 = 0.25;
/// Requests kept in flight by the capacity phase.
const IN_FLIGHT: usize = 2;
/// Fault sample of graded requests.
const FAULT_SAMPLE: usize = 64;
/// Longest wait for an outstanding response before the run gives up.
const RESPONSE_TIMEOUT: Duration = Duration::from_secs(60);

const CONFIG: ServeConfig = ServeConfig {
    workers: 2,
    queue_capacity: 64,
    warm_capacity: 16,
};

/// Synthesis-only (k, α, β) combinations per data-path width: the
/// paper's parameter set for that width and two neighbours.
const SYNTH_COMBOS_4: [(usize, f64, f64); 3] = [(3, 2.0, 1.0), (1, 2.0, 1.0), (4, 2.0, 1.0)];
const SYNTH_COMBOS_8: [(usize, f64, f64); 3] = [(3, 10.0, 1.0), (2, 10.0, 1.0), (3, 1.0, 10.0)];

const PINS: &str = include_str!("../expected/serve.txt");

/// The behavior pool, most popular first, each served at one data-path
/// width (4 and 8 bits alternating by rank): paper benchmarks
/// interleaved with generated graphs. Sixteen (behavior, width) warm
/// contexts and sixteen graded designs — exactly the daemon's warm
/// capacity — so after the warm-up pass the cache contents no longer
/// depend on the order requests arrive in, and neither does the work.
fn behaviors(smoke: bool) -> Result<Vec<(Source, u32)>, String> {
    let mut out = Vec::new();
    if smoke {
        out.push(corpus::paper("ex")?);
        out.push(corpus::paper("tseng")?);
    } else {
        for (paper, (preset, seed)) in [
            (Some("ex"), ("balanced", 2)),
            (Some("diffeq"), ("wide-logic", 2)),
            (Some("paulin"), ("loopy-mul", 2)),
            (Some("tseng"), ("balanced", 5)),
            (Some("dct"), ("balanced", 3)),
            (None, ("wide-logic", 3)),
            (None, ("loopy-mul", 3)),
            (Some("ewf"), ("loopy-mul", 4)),
            (None, ("balanced", 4)),
            (None, ("wide-logic", 4)),
        ] {
            if let Some(name) = paper {
                out.push(corpus::paper(name)?);
            }
            out.push(corpus::generated(preset, seed, None)?);
        }
    }
    for s in &out {
        corpus::parse(s)?;
    }
    Ok(out
        .into_iter()
        .enumerate()
        .map(|(rank, s)| (s, if rank % 2 == 0 { 4 } else { 8 }))
        .collect())
}

/// One request of the multiset.
#[derive(Debug, Clone)]
struct Request {
    /// What makes two requests the same (their results must match).
    key: String,
    kind: &'static str,
    /// The `job` object of the submit line.
    job: String,
}

/// Split `total` over `ranks` Zipf ranks (∝ 1/r) by largest remainder.
fn zipf_counts(total: usize, ranks: usize) -> Vec<usize> {
    let h: f64 = (1..=ranks).map(|r| 1.0 / r as f64).sum();
    let exact: Vec<f64> = (1..=ranks).map(|r| total as f64 / (r as f64 * h)).collect();
    let mut counts: Vec<usize> = exact.iter().map(|x| x.floor() as usize).collect();
    let mut order: Vec<usize> = (0..ranks).collect();
    order.sort_by(|&a, &b| {
        (exact[b] - exact[b].floor())
            .total_cmp(&(exact[a] - exact[a].floor()))
            .then(a.cmp(&b))
    });
    let missing = total - counts.iter().sum::<usize>();
    for &i in order.iter().take(missing) {
        counts[i] += 1;
    }
    counts
}

fn run_job(src: &Source, bits: u32, (k, alpha, beta): (usize, f64, f64), graded: bool) -> String {
    let atpg = if graded {
        format!(", \"atpg\": {{\"fault_sample\": {FAULT_SAMPLE}, \"jobs\": 1}}")
    } else {
        String::new()
    };
    format!(
        "{{\"kind\": \"run\", \"name\": {}, \"dfg\": {}, \"bits\": {bits}, \"k\": {k}, \
         \"alpha\": {alpha:?}, \"beta\": {beta:?}{atpg}}}",
        json_string(&src.name),
        json_string(&src.text),
    )
}

/// The fixed request multiset of one pass (100 requests; smoke: 10).
fn multiset(pool: &[(Source, u32)], smoke: bool) -> Vec<Request> {
    let (synth, graded, explores, gens) = if smoke { (5, 3, 1, 1) } else { (55, 25, 15, 5) };
    let combos = |bits: u32| {
        if bits == 4 {
            SYNTH_COMBOS_4
        } else {
            SYNTH_COMBOS_8
        }
    };
    let mut out = Vec::new();
    for ((src, bits), n) in pool.iter().zip(zipf_counts(synth, pool.len())) {
        for i in 0..n {
            let c = combos(*bits)[i % 3];
            out.push(Request {
                key: format!("run {} {bits} {c:?}", src.name),
                kind: "run",
                job: run_job(src, *bits, c, false),
            });
        }
    }
    for ((src, bits), n) in pool.iter().zip(zipf_counts(graded, pool.len())) {
        // Graded requests use the paper's parameter set for the width.
        let c = combos(*bits)[0];
        for _ in 0..n {
            out.push(Request {
                key: format!("graded {} {bits} {c:?}", src.name),
                kind: "graded",
                job: run_job(src, *bits, c, true),
            });
        }
    }
    for ((src, bits), n) in pool.iter().zip(zipf_counts(explores, pool.len())) {
        for _ in 0..n {
            out.push(Request {
                key: format!("explore {} {bits}", src.name),
                kind: "explore",
                job: format!(
                    "{{\"kind\": \"explore\", \"sources\": [{{\"name\": {}, \"dfg\": {}}}], \
                     \"ks\": [1, 3], \"weights\": [[2, 1], [10, 1]], \"bits\": [{bits}], \
                     \"jobs\": 1, \"warm_start\": true}}",
                    json_string(&src.name),
                    json_string(&src.text)
                ),
            });
        }
    }
    for i in 0..gens {
        let preset = hlts_gen::PRESET_NAMES[i % hlts_gen::PRESET_NAMES.len()];
        out.push(Request {
            key: format!("gen {} {preset}", i + 1),
            kind: "gen",
            job: format!(
                "{{\"kind\": \"gen\", \"seed\": {}, \"preset\": \"{preset}\"}}",
                i + 1
            ),
        });
    }
    out
}

/// A response the reader thread matched to a request.
enum Msg {
    Done {
        id: usize,
        ack: Instant,
        started: Option<Instant>,
        done: Instant,
        result: Result<String, String>,
    },
    Status(String),
}

/// The reader thread: match acknowledgements and job events to request
/// ids (`r<N>`), timestamp them, and forward finished requests.
fn read_responses(stream: TcpStream, tx: &Sender<Msg>) {
    // engine job id → (request id, ack time, started time)
    let mut jobs: BTreeMap<u64, (usize, Instant, Option<Instant>)> = BTreeMap::new();
    for line in BufReader::new(stream).lines() {
        let Ok(line) = line else { break };
        // Progress lines are most of the stream and carry nothing timed.
        if line.starts_with("{\"event\": \"iteration\"")
            || line.starts_with("{\"event\": \"point_done\"")
        {
            continue;
        }
        let at = Instant::now();
        let Ok(doc) = json::parse(&line) else {
            continue;
        };
        let job = doc.get("job").and_then(Json::as_u64);
        if let Some(event) = doc.get("event").and_then(Json::as_str) {
            let Some(job) = job else { continue };
            let result = match event {
                "started" => {
                    if let Some(j) = jobs.get_mut(&job) {
                        j.2 = Some(at);
                    }
                    continue;
                }
                "done" => Ok(line
                    .split_once("\"result\": ")
                    .map_or("", |(_, r)| &r[..r.len().saturating_sub(1)])
                    .to_owned()),
                other => Err(format!("{other}: {line}")),
            };
            if let Some((id, ack, started)) = jobs.remove(&job) {
                let msg = Msg::Done {
                    id,
                    ack,
                    started,
                    done: at,
                    result,
                };
                if tx.send(msg).is_err() {
                    break;
                }
            }
            continue;
        }
        let tag = doc.get("id").and_then(Json::as_str).unwrap_or("");
        if tag == "status" {
            let _ = tx.send(Msg::Status(line));
        } else if let Some(id) = tag.strip_prefix('r').and_then(|n| n.parse().ok()) {
            match (doc.get("ok").and_then(Json::as_bool), job) {
                (Some(true), Some(job)) => {
                    jobs.insert(job, (id, at, None));
                }
                _ => {
                    // Refused (queue full, bad request): finished now.
                    let _ = tx.send(Msg::Done {
                        id,
                        ack: at,
                        started: None,
                        done: at,
                        result: Err(line),
                    });
                }
            }
        }
    }
}

/// The daemon under test and the load generator's connection to it.
struct Daemon {
    writer: TcpStream,
    rx: Receiver<Msg>,
    server: Option<JoinHandle<std::io::Result<()>>>,
    reader: Option<JoinHandle<()>>,
}

impl Daemon {
    fn start() -> Result<Daemon, String> {
        let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| format!("bind: {e}"))?;
        let addr = listener.local_addr().map_err(|e| e.to_string())?;
        let server = std::thread::Builder::new()
            .name("perf-daemon".into())
            .spawn(move || hlts_jobs::serve_tcp(listener, CONFIG))
            .map_err(|e| format!("spawn daemon: {e}"))?;
        let writer = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        // The generator must not delay its own request lines.
        writer.set_nodelay(true).map_err(|e| e.to_string())?;
        let read_half = writer.try_clone().map_err(|e| e.to_string())?;
        let (tx, rx) = channel();
        let reader = std::thread::Builder::new()
            .name("perf-reader".into())
            .spawn(move || read_responses(read_half, &tx))
            .map_err(|e| format!("spawn reader: {e}"))?;
        let mut daemon = Daemon {
            writer,
            rx,
            server: Some(server),
            reader: Some(reader),
        };
        // One round trip: the daemon is up and answering.
        daemon.status()?;
        Ok(daemon)
    }

    fn send_line(&mut self, line: &str) -> Result<(), String> {
        self.writer
            .write_all(format!("{line}\n").as_bytes())
            .map_err(|e| format!("send: {e}"))
    }

    fn submit(&mut self, id: usize, req: &Request) -> Result<(), String> {
        self.send_line(&format!(
            "{{\"op\": \"submit\", \"id\": \"r{id}\", \"job\": {}}}",
            req.job
        ))
    }

    /// The daemon's `status` object.
    fn status(&mut self) -> Result<Json, String> {
        self.send_line("{\"op\": \"status\", \"id\": \"status\"}")?;
        loop {
            match self.rx.recv_timeout(RESPONSE_TIMEOUT) {
                Ok(Msg::Status(line)) => {
                    let doc = json::parse(&line).map_err(|e| format!("status: {e}"))?;
                    return doc
                        .get("status")
                        .cloned()
                        .ok_or("status without body".into());
                }
                Ok(Msg::Done { .. }) => {}
                Err(e) => return Err(format!("status: {e}")),
            }
        }
    }

    /// Shut the daemon down and join both threads.
    fn stop(&mut self) {
        let _ = self.send_line("{\"op\": \"shutdown\", \"id\": \"bye\"}");
        if let Some(server) = self.server.take() {
            let _ = server.join();
        }
        let _ = self.writer.shutdown(Shutdown::Both);
        if let Some(reader) = self.reader.take() {
            let _ = reader.join();
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        self.stop();
    }
}

/// One request's timeline.
#[derive(Debug, Clone)]
struct Track {
    req: usize,
    due: Instant,
    sent: Instant,
    ack: Option<Instant>,
    started: Option<Instant>,
    done: Option<Instant>,
    ok: bool,
}

fn ms(a: Instant, b: Instant) -> f64 {
    b.saturating_duration_since(a).as_secs_f64() * 1000.0
}

/// The load generator's state across both phases.
struct Load<'a> {
    daemon: Daemon,
    reqs: &'a [Request],
    tracks: Vec<Track>,
    outstanding: usize,
    results: BTreeMap<String, String>,
}

impl Load<'_> {
    fn send(&mut self, out: &mut Outcome, req: usize, due: Instant) -> Result<(), String> {
        let id = self.tracks.len();
        self.tracks.push(Track {
            req,
            due,
            sent: Instant::now(),
            ack: None,
            started: None,
            done: None,
            ok: false,
        });
        out.attempted += 1;
        self.outstanding += 1;
        self.daemon.submit(id, &self.reqs[req])
    }

    fn complete(&mut self, out: &mut Outcome, msg: Msg) {
        let Msg::Done {
            id,
            ack,
            started,
            done,
            result,
        } = msg
        else {
            return;
        };
        self.outstanding -= 1;
        let track = &mut self.tracks[id];
        (track.ack, track.started, track.done) = (Some(ack), started, Some(done));
        let key = &self.reqs[track.req].key;
        match result {
            Ok(payload) => {
                track.ok = true;
                match self.results.get(key) {
                    Some(prev) if *prev != payload => {
                        out.wrong(format!("`{key}` returned a different result than before"));
                    }
                    Some(_) => {}
                    None => {
                        self.results.insert(key.clone(), payload);
                    }
                }
            }
            Err(e) => {
                out.failed += 1;
                out.note(format!("FAILED `{key}`: {e}"));
            }
        }
    }

    /// Wait for one response (or time out).
    fn wait_one(&mut self, out: &mut Outcome) -> Result<(), String> {
        match self.daemon.rx.recv_timeout(RESPONSE_TIMEOUT) {
            Ok(msg) => {
                self.complete(out, msg);
                Ok(())
            }
            Err(RecvTimeoutError::Timeout) => Err("no response within the timeout".into()),
            Err(RecvTimeoutError::Disconnected) => Err("the daemon connection closed".into()),
        }
    }

    fn drain(&mut self, out: &mut Outcome) -> Result<(), String> {
        while self.outstanding > 0 {
            self.wait_one(out)?;
        }
        Ok(())
    }

    /// Send `order` at `rate` per second; every latency counts from the
    /// request's due time.
    fn open_loop(&mut self, out: &mut Outcome, order: &[usize], rate: f64) -> Result<(), String> {
        let t0 = Instant::now() + Duration::from_millis(5);
        for (i, &req) in order.iter().enumerate() {
            let due = t0 + Duration::from_secs_f64(i as f64 / rate);
            let now = Instant::now();
            if due > now {
                std::thread::sleep(due - now);
            }
            self.send(out, req, due)?;
            while let Ok(msg) = self.daemon.rx.try_recv() {
                self.complete(out, msg);
            }
        }
        self.drain(out)
    }

    /// Keep [`IN_FLIGHT`] requests outstanding until `order` is sent.
    fn closed_loop(&mut self, out: &mut Outcome, order: &[usize]) -> Result<(), String> {
        for &req in order {
            while self.outstanding >= IN_FLIGHT {
                self.wait_one(out)?;
            }
            self.send(out, req, Instant::now())?;
        }
        self.drain(out)
    }
}

/// Seeded orders of whole passes over the multiset.
fn pass_orders(passes: usize, len: usize, rng: &mut rand::rngs::StdRng) -> Vec<usize> {
    let ids: Vec<usize> = (0..len).collect();
    (0..passes)
        .flat_map(|_| corpus::shuffled(&ids, rng))
        .collect()
}

/// Hit ratio of one `status` counter pair over the interval between
/// two snapshots.
fn hit_ratio(before: &Json, after: &Json, section: &str, hit: &str, miss: &str) -> f64 {
    let get = |s: &Json, k: &str| {
        s.get(section)
            .and_then(|x| x.get(k))
            .and_then(Json::as_f64)
            .unwrap_or(0.0)
    };
    let hits = get(after, hit) - get(before, hit);
    ratio(hits, hits + get(after, miss) - get(before, miss))
}

pub fn run(opts: &Opts, tracer: &Tracer) -> Result<Outcome, String> {
    let mut speed = Speed::new(CONFIG.workers);
    let (mut setup, (pool, reqs, daemon)) = Setup::new(&mut speed, || {
        let pool = behaviors(opts.smoke)?;
        let reqs = multiset(&pool, opts.smoke);
        Ok((pool, reqs, Daemon::start()?))
    })?;
    let mut out = Outcome {
        correct: true,
        ..Outcome::default()
    };
    let mut rng = corpus::rng(opts.seed, 5);
    let mut load = Load {
        daemon,
        reqs: &reqs,
        tracks: Vec::new(),
        outstanding: 0,
        results: BTreeMap::new(),
    };

    // Warm-up: one closed-loop pass fills the daemon's caches, so both
    // measured phases see its steady state (where the bounded pools
    // still evict and miss).
    let t = Instant::now();
    load.closed_loop(&mut out, &pass_orders(1, reqs.len(), &mut rng))?;
    setup.sample(&mut speed);
    out.note(format!(
        "warm-up: one pass in {:.3} s (not measured)",
        t.elapsed().as_secs_f64()
    ));
    let cpu0 = cpu_ms();
    let measured = Instant::now();
    let first_cap = load.tracks.len();

    // Capacity: whole closed-loop passes.
    let mut err = Ok(());
    let cap = crate::passes(
        opts.seconds * CAPACITY_SHARE,
        0,
        &mut speed,
        PASS_RUNS,
        |_, speed| {
            if err.is_ok() {
                let order = pass_orders(1, reqs.len(), &mut rng);
                err = load.closed_loop(&mut out, &order);
                setup.sample(speed);
            }
        },
    );
    err?;

    // Open loop: whole passes at the fixed rate.
    let before = load.daemon.status()?;
    let open_passes = ((RATE_PER_S * opts.seconds * OPEN_SHARE) / reqs.len() as f64)
        .round()
        .max(1.0) as usize;
    let order = pass_orders(open_passes, reqs.len(), &mut rng);
    let first_open = load.tracks.len();
    let open_t = Instant::now();
    load.open_loop(&mut out, &order, RATE_PER_S)?;
    let open_s = open_t.elapsed().as_secs_f64();
    let after = load.daemon.status()?;
    let cpu = cpu_since(cpu0);
    let measured_s = measured.elapsed().as_secs_f64();
    setup.sample(&mut speed);
    out.note(format!(
        "setup: {} behaviors, {}-request pass, daemon started (2 workers, queue 64, warm 16); \
         median of {} set-ups {:.6} s ({:.6} s as measured)",
        pool.len(),
        reqs.len(),
        setup.samples(),
        setup.median_s(&speed),
        setup.median_raw_s()
    ));
    let open = &load.tracks[first_open..];

    let latencies: Vec<f64> = open
        .iter()
        .filter_map(|t| t.done.map(|d| ms(t.due, d)))
        .collect();
    let misses = open
        .iter()
        .filter(|t| !t.ok || t.done.is_none_or(|d| ms(t.due, d) > SLO_MS))
        .count();
    // Throughput and latency stay as measured: with the daemon's
    // answers mostly memo hits, they are set by the TCP stack's timers
    // (see the README's findings), not by the host's speed.
    out.end_to_end = report::end_to_end(
        ratio(reqs.len() as f64, cap.wall_raw()),
        &latencies,
        cap.cpu_per_op(reqs.len(), &speed),
        setup.median_s(&speed),
    );

    let pct = |v: &[f64], p: f64| percentile(v, p);
    let late: Vec<f64> = open.iter().map(|t| ms(t.due, t.sent)).collect();
    let ack: Vec<f64> = open
        .iter()
        .filter_map(|t| t.ack.map(|a| ms(t.sent, a)))
        .collect();
    let queue: Vec<f64> = open
        .iter()
        .filter_map(|t| Some(ms(t.ack?, t.started?)))
        .collect();
    out.note(format!(
        "capacity: {} requests in {} pass(es) over {:.3} s (median pass {:.3} s), {IN_FLIGHT} in \
         flight",
        first_open - first_cap,
        cap.count(),
        cap.total_wall(),
        cap.wall_raw()
    ));
    out.note(speed.summary());
    out.note(format!(
        "open loop: {} requests in {open_passes} pass(es) at {RATE_PER_S}/s over {open_s:.3} s; \
         latency from due time p50 {:.2} ms, p90 {:.2} ms ({} samples); over slo_ms {SLO_MS}: {misses}",
        open.len(),
        pct(&latencies, 50.0),
        pct(&latencies, 90.0),
        latencies.len()
    ));
    out.note(format!(
        "load generator late p50 {:.3} ms, p99 {:.3} ms; ack p50 {:.3} ms; queue wait p50 {:.2} ms, \
         p90 {:.2} ms",
        pct(&late, 50.0),
        pct(&late, 99.0),
        pct(&ack, 50.0),
        pct(&queue, 50.0),
        pct(&queue, 90.0)
    ));
    for kind in ["run", "graded", "explore", "gen"] {
        let service: Vec<f64> = open
            .iter()
            .filter(|t| reqs[t.req].kind == kind)
            .filter_map(|t| Some(ms(t.started?, t.done?)))
            .collect();
        out.note(format!(
            "service {kind}: p50 {:.2} ms over {} requests",
            pct(&service, 50.0),
            service.len()
        ));
    }
    let keyed: Vec<String> = load
        .results
        .iter()
        .map(|(k, v)| format!("{k}\t{}", digest(v)))
        .collect();
    let line = format!("{} keys={}", digest(&keyed.join("\n")), keyed.len());
    out.note(format!("output digest {line}"));
    let scale = if opts.smoke { "smoke" } else { "full" };
    check_pins(&mut out, PINS, &[(scale.to_owned(), line)]);

    if opts.trace {
        // Spans come from the timestamps every request records anyway,
        // so tracing costs the measured loops nothing.
        let tracks = load.tracks.iter().enumerate();
        for (id, tr) in tracks.skip(first_cap) {
            let Some(done) = tr.done else { continue };
            let span = tracer.record("request", None, id as u64, tr.due, Some(done));
            tracer.record("send.late", span, id as u64, tr.due, Some(tr.sent));
            if let Some(ack) = tr.ack {
                tracer.record("ack", span, id as u64, tr.sent, Some(ack));
                if let Some(started) = tr.started {
                    tracer.record("queue", span, id as u64, ack, Some(started));
                    tracer.record("service", span, id as u64, started, Some(done));
                }
            }
        }
        let mut phase = PhaseMetrics {
            dse_replay_ratio: hit_ratio(
                &before,
                &after,
                "explore_replay",
                "merges_replayed",
                "merges_recomputed",
            ),
            jobs_warm_hit_ratio: hit_ratio(&before, &after, "warm", "hits", "misses"),
            jobs_ack_share: ratio(ack.iter().sum(), latencies.iter().sum()),
            jobs_queue_share: ratio(queue.iter().sum(), latencies.iter().sum()),
            tcov_memo_hit_ratio: hit_ratio(&before, &after, "tcov", "report_hits", "report_misses"),
            loadgen_slo_miss_ratio: ratio(misses as f64, open.len() as f64),
            ..PhaseMetrics::default()
        };
        phase.set_cpu(cpu, measured_s);
        let designs: Vec<Design> = pool
            .iter()
            .take(5)
            .map(|(s, bits)| Design {
                source: s.clone(),
                params: SynthesisParams::paper_defaults(*bits),
                mode: EvalMode::Sequential,
                fault_sample: Some(FAULT_SAMPLE),
                tcov_jobs: 1,
            })
            .collect();
        let (profile, secs) = pipeline::profile(&designs, tracer)?;
        phase.trace_span_coverage = tracer.min_child_coverage("profile.design");
        out.note(format!("{} ({secs:.3} s)", profile.summary()));
        out.per_layer = profile.metrics();
        out.per_layer.extend(phase.metrics());
    }
    load.daemon.stop();
    Ok(out)
}
