//! The `hlts serve` daemon and the `hlts submit` client.
//!
//! The daemon reads line-delimited JSON requests (see [`crate::proto`])
//! from stdin or from TCP connections, drives a shared [`JobEngine`],
//! and streams each job's events back to the connection that submitted
//! it. One engine — one warm pool, one bounded queue — serves every
//! connection, so an exact repeat request hits the result memo no
//! matter which client sends it. Submitted jobs become
//! executable specs through
//! [`JobRequest::resolve`](crate::proto::JobRequest::resolve), the same resolver
//! `hlts run` and `hlts explore` use.
//!
//! Failure containment, from the inside out: a failing *point* degrades
//! its job (typed errors / `PointFailure`), a failing *job* is reported
//! on its own connection and the engine keeps serving, and a malformed
//! *request line* — bad JSON, bytes that are not UTF-8, or a line
//! longer than [`MAX_LINE_BYTES`] — is answered with a structured error
//! and counted. None of these ever terminate a connection or the
//! daemon.

use std::io::{BufRead, BufReader, ErrorKind, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError};

use crate::engine::{EngineConfig, JobEngine, JobEvent, JobId, JobSink, SubmitError};
use crate::json::{self, Json};
use crate::proto::{self, Request};

/// Daemon sizing: the engine's own configuration.
pub type ServeConfig = EngineConfig;

/// The longest request line the daemon buffers, far above any inline
/// DFG a client sends. A longer line is answered with an error and
/// skipped up to its newline without being buffered, so a client that
/// never sends a newline cannot grow the daemon's memory.
pub const MAX_LINE_BYTES: usize = 8 << 20;

/// A line-oriented event sink: serializes response and event lines
/// onto one writer. Write failures are swallowed — a client that went
/// away must not take its jobs (or the daemon) with it.
struct LineSink {
    out: Mutex<LineOut>,
}

/// The write side of one connection.
///
/// Lines are collected and leave in one write per flush. Most lines
/// flush at once; two wait for the connection's next line: a job's
/// `started` line, and the acknowledgement of a job submitted while
/// another job of this connection is still unfinished (that client is
/// reading the other job's lines anyway). Every job ends in a terminal
/// line, which always flushes, so nothing waits longer than its own
/// job. The daemon leaves Nagle's algorithm on, so how a connection's
/// lines are cut into writes decides how often the stream waits for the
/// client's delayed ACK; with two jobs in flight on one connection,
/// flushing every line on its own made that vary from run to run.
struct LineOut {
    w: Box<dyn Write + Send>,
    /// Lines written since the last flush.
    pending: Vec<u8>,
    /// Jobs acknowledged on this connection whose terminal line is not
    /// written yet.
    unfinished: usize,
}

impl LineOut {
    fn line(&mut self, line: &str, flush: bool) {
        self.pending.extend_from_slice(line.as_bytes());
        self.pending.push(b'\n');
        if flush {
            let _ = self.w.write_all(&self.pending);
            let _ = self.w.flush();
            self.pending.clear();
        }
    }
}

impl LineSink {
    fn new(w: Box<dyn Write + Send>) -> LineSink {
        LineSink {
            out: Mutex::new(LineOut {
                w,
                pending: Vec::new(),
                unfinished: 0,
            }),
        }
    }

    fn lock(&self) -> MutexGuard<'_, LineOut> {
        self.out.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn send(&self, line: &str) {
        self.lock().line(line, true);
    }
}

impl JobSink for LineSink {
    fn event(&self, job: JobId, event: &JobEvent<'_>) {
        let line = proto::render_event(job, event);
        let mut out = self.lock();
        let flush = match event {
            JobEvent::Started => false,
            JobEvent::Progress(_) => true,
            JobEvent::Done(_) | JobEvent::Failed(_) | JobEvent::Cancelled(_) => {
                out.unfinished = out.unfinished.saturating_sub(1);
                true
            }
        };
        out.line(&line, flush);
    }
}

/// Shared daemon state: the engine plus protocol health counters.
struct Daemon {
    engine: JobEngine,
    malformed: AtomicU64,
    /// Set once a shutdown request was accepted; the TCP accept loop
    /// checks it after every accepted connection.
    stopping: std::sync::atomic::AtomicBool,
    /// The TCP listener's own address, used to self-connect and
    /// unblock the accept loop on shutdown (stdin mode leaves it
    /// unset).
    local_addr: OnceLock<SocketAddr>,
}

impl Daemon {
    fn new(cfg: ServeConfig) -> Daemon {
        Daemon {
            engine: JobEngine::start(cfg),
            malformed: AtomicU64::new(0),
            stopping: std::sync::atomic::AtomicBool::new(false),
            local_addr: OnceLock::new(),
        }
    }
}

enum LineOutcome {
    Continue,
    Shutdown,
}

/// Handle one request line: parse, act, answer. Never fails the
/// connection — every problem becomes an `{"ok":false,...}` line.
fn handle_line(daemon: &Daemon, line: &str, sink: &Arc<LineSink>) -> LineOutcome {
    let line = line.trim();
    if line.is_empty() {
        return LineOutcome::Continue;
    }
    let request = match proto::parse_request(line) {
        Ok(request) => request,
        Err(e) => {
            daemon.malformed.fetch_add(1, Ordering::Relaxed);
            sink.send(&proto::render_error(e.id.as_deref(), &e.message));
            return LineOutcome::Continue;
        }
    };
    match request {
        Request::Submit { id, job } => {
            match job.resolve() {
                Ok(spec) => {
                    // Hold the write lock across submit so the
                    // acknowledgement line lands before the job's
                    // first event (workers contend on the same lock).
                    let mut out = sink.lock();
                    let (response, flush) = match daemon
                        .engine
                        .submit_streaming(spec, Arc::clone(sink) as Arc<dyn JobSink>)
                    {
                        Ok(job) => {
                            out.unfinished += 1;
                            (
                                proto::render_submit_ok(id.as_deref(), job),
                                out.unfinished == 1,
                            )
                        }
                        Err(e @ (SubmitError::QueueFull { .. } | SubmitError::ShuttingDown)) => {
                            (proto::render_error(id.as_deref(), &e.to_string()), true)
                        }
                    };
                    out.line(&response, flush);
                }
                Err(message) => {
                    sink.send(&proto::render_error(id.as_deref(), &message));
                }
            }
            LineOutcome::Continue
        }
        Request::Status { id } => {
            sink.send(&proto::render_status(
                id.as_deref(),
                &daemon.engine.counts(),
                daemon.malformed.load(Ordering::Relaxed),
                hlts_dfg::sym::stats(),
            ));
            LineOutcome::Continue
        }
        Request::Cancel { id, job } => {
            let outcome = daemon.engine.cancel(job);
            sink.send(&proto::render_cancel(id.as_deref(), job, outcome));
            LineOutcome::Continue
        }
        Request::Shutdown { id } => {
            daemon.stopping.store(true, Ordering::Release);
            sink.send(&proto::render_shutdown(id.as_deref()));
            LineOutcome::Shutdown
        }
    }
}

/// One request line read by [`read_line`].
enum LineRead {
    /// A complete line (newline stripped) is in the buffer.
    Line,
    /// The line grew past [`MAX_LINE_BYTES`]; the rest of it is still
    /// unread.
    TooLong,
    /// End of input (or a read error: the peer is gone).
    End,
}

/// Read one line of at most [`MAX_LINE_BYTES`] bytes into `buf`.
fn read_line(input: &mut impl BufRead, buf: &mut Vec<u8>) -> LineRead {
    buf.clear();
    loop {
        let chunk = match input.fill_buf() {
            Ok(chunk) => chunk,
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(_) => return LineRead::End,
        };
        if chunk.is_empty() {
            return if buf.is_empty() {
                LineRead::End
            } else {
                LineRead::Line
            };
        }
        let newline = chunk.iter().position(|&b| b == b'\n');
        let len = newline.unwrap_or(chunk.len());
        if buf.len() + len > MAX_LINE_BYTES {
            return LineRead::TooLong;
        }
        buf.extend_from_slice(&chunk[..len]);
        input.consume(len + usize::from(newline.is_some()));
        if newline.is_some() {
            return LineRead::Line;
        }
    }
}

/// Discard input up to and including the next newline.
fn skip_line(input: &mut impl BufRead) {
    loop {
        let (used, done) = match input.fill_buf() {
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Ok([]) | Err(_) => return,
            Ok(chunk) => match chunk.iter().position(|&b| b == b'\n') {
                Some(i) => (i + 1, true),
                None => (chunk.len(), false),
            },
        };
        input.consume(used);
        if done {
            return;
        }
    }
}

/// Answer a request line that never reached the JSON parser.
fn reject_line(daemon: &Daemon, sink: &LineSink, message: &str) {
    daemon.malformed.fetch_add(1, Ordering::Relaxed);
    sink.send(&proto::render_error(None, message));
}

/// Answer every request line of one input until a shutdown request or
/// end of input.
fn serve_input(daemon: &Daemon, mut input: impl BufRead, sink: &Arc<LineSink>) -> LineOutcome {
    let mut buf = Vec::new();
    loop {
        match read_line(&mut input, &mut buf) {
            LineRead::End => return LineOutcome::Continue,
            LineRead::TooLong => {
                reject_line(
                    daemon,
                    sink,
                    &format!("request line exceeds the {MAX_LINE_BYTES}-byte limit"),
                );
                skip_line(&mut input);
                // Do not keep a near-limit buffer alive per connection.
                buf = Vec::new();
            }
            LineRead::Line => match std::str::from_utf8(&buf) {
                Ok(line) => {
                    if let LineOutcome::Shutdown = handle_line(daemon, line, sink) {
                        return LineOutcome::Shutdown;
                    }
                }
                Err(_) => reject_line(daemon, sink, "request line is not valid UTF-8"),
            },
        }
    }
}

/// Serve requests from a reader/writer pair until a shutdown request
/// or end of input, then drain the engine (running jobs finish,
/// queued jobs are cancelled). This is `hlts serve`'s stdin mode —
/// and the deterministic harness the protocol tests drive.
pub fn serve_lines(input: impl BufRead, output: Box<dyn Write + Send>, cfg: ServeConfig) {
    let daemon = Daemon::new(cfg);
    let sink = Arc::new(LineSink::new(output));
    serve_input(&daemon, input, &sink);
    daemon.engine.shutdown();
}

fn handle_conn(daemon: &Arc<Daemon>, stream: TcpStream) {
    let Ok(write_half) = stream.try_clone() else {
        return;
    };
    let sink = Arc::new(LineSink::new(Box::new(write_half)));
    if let LineOutcome::Shutdown = serve_input(daemon, BufReader::new(stream), &sink) {
        // Unblock the accept loop so the daemon can exit: the
        // stopping flag is set, one self-connection wakes it.
        if let Some(addr) = daemon.local_addr.get() {
            let _ = TcpStream::connect(addr);
        }
    }
}

/// Serve requests over TCP until a shutdown request arrives on any
/// connection. Each connection gets its own handler thread; events of
/// a job stream to the connection that submitted it. Returns after
/// the engine drained.
///
/// # Errors
///
/// Propagates listener I/O errors (accepting, local address).
pub fn serve_tcp(listener: TcpListener, cfg: ServeConfig) -> std::io::Result<()> {
    let daemon = Arc::new(Daemon::new(cfg));
    let _ = daemon.local_addr.set(listener.local_addr()?);
    for stream in listener.incoming() {
        let stream = stream?;
        if daemon.stopping.load(Ordering::Acquire) {
            break;
        }
        let daemon = Arc::clone(&daemon);
        // Handler threads are not joined: a client that never sends
        // another line would otherwise block shutdown forever. They
        // hold only an Arc on the daemon and die with the process.
        let _ = std::thread::Builder::new()
            .name("hlts-serve-conn".to_owned())
            .spawn(move || handle_conn(&daemon, stream));
    }
    daemon.engine.shutdown();
    Ok(())
}

/// How a submitted job ended, as observed by the client.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ClientEnd {
    /// The job finished; its result line was printed.
    Done,
    /// The job failed; the error line was printed.
    Failed,
    /// The job was cancelled.
    Cancelled,
    /// The daemon rejected the request (error response).
    Rejected,
}

/// Submit one request line to a TCP daemon and stream the job's lines
/// (acknowledgement + events) to `out` until the job terminates.
///
/// # Errors
///
/// Connection/protocol failures as strings (the caller formats them).
pub fn submit_once(
    addr: &str,
    request_line: &str,
    out: &mut dyn Write,
) -> Result<ClientEnd, String> {
    let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    let mut write_half = stream.try_clone().map_err(|e| e.to_string())?;
    writeln!(write_half, "{request_line}").map_err(|e| e.to_string())?;
    write_half.flush().map_err(|e| e.to_string())?;
    let reader = BufReader::new(stream);
    let mut job: Option<u64> = None;
    for line in reader.lines() {
        let line = line.map_err(|e| format!("read {addr}: {e}"))?;
        let Ok(doc) = json::parse(&line) else {
            continue;
        };
        if job.is_none() {
            // The first response line acknowledges (or rejects) ours.
            if doc.get("ok").and_then(Json::as_bool) == Some(false) {
                writeln!(out, "{line}").map_err(|e| e.to_string())?;
                return Ok(ClientEnd::Rejected);
            }
            if let Some(id) = doc.get("job").and_then(Json::as_u64) {
                job = Some(id);
                writeln!(out, "{line}").map_err(|e| e.to_string())?;
            }
            continue;
        }
        if doc.get("job").and_then(Json::as_u64) != job {
            continue;
        }
        writeln!(out, "{line}").map_err(|e| e.to_string())?;
        match doc.get("event").and_then(Json::as_str) {
            Some("done") => return Ok(ClientEnd::Done),
            Some("failed") => return Ok(ClientEnd::Failed),
            Some("cancelled") => return Ok(ClientEnd::Cancelled),
            _ => {}
        }
    }
    Err("connection closed before the job terminated".to_owned())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Run a stdin-mode daemon over `input`; returns each write it made
    /// to its output, in order.
    fn serve_writes(input: &[u8]) -> Vec<String> {
        let writes: Arc<Mutex<Vec<String>>> = Arc::default();
        struct Shared(Arc<Mutex<Vec<String>>>);
        impl Write for Shared {
            fn write(&mut self, data: &[u8]) -> std::io::Result<usize> {
                let chunk = String::from_utf8(data.to_vec()).unwrap();
                self.0.lock().unwrap().push(chunk);
                Ok(data.len())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        serve_lines(
            input,
            Box::new(Shared(Arc::clone(&writes))),
            ServeConfig {
                workers: 1,
                queue_capacity: 2,
                warm_capacity: 2,
            },
        );
        let writes = writes.lock().unwrap().clone();
        writes
    }

    /// Run a stdin-mode daemon over `input`; returns its output lines.
    fn serve_bytes(input: &[u8]) -> Vec<String> {
        serve_writes(input)
            .concat()
            .lines()
            .map(str::to_owned)
            .collect()
    }

    #[test]
    fn lines_leave_whole_and_started_lines_wait_for_the_next_line() {
        let writes = serve_writes(
            concat!(
                "{\"op\":\"submit\",\"id\":\"a\",\"job\":{\"kind\":\"gen\",\"seed\":1}}\n",
                "{\"op\":\"submit\",\"id\":\"b\",\"job\":{\"kind\":\"run\",\"source\":\"bench:ex\"}}\n",
            )
            .as_bytes(),
        );
        // The first acknowledgement finds the connection idle: it
        // leaves on its own.
        assert!(
            writes[0].starts_with("{\"ok\": true, \"id\": \"a\""),
            "{writes:?}"
        );
        assert_eq!(writes[0].lines().count(), 1, "{writes:?}");
        for w in &writes {
            assert!(w.ends_with('\n'), "a write split a line: {writes:?}");
            let last = w.lines().last().unwrap();
            assert!(
                !last.starts_with("{\"event\": \"started\""),
                "a started line left without the line after it: {writes:?}"
            );
        }
        let lines: Vec<&str> = writes.iter().flat_map(|w| w.lines()).collect();
        let acks = lines
            .iter()
            .filter(|l| l.starts_with("{\"ok\": true"))
            .count();
        let terminal = lines
            .iter()
            .filter(|l| {
                l.starts_with("{\"event\": \"done\"") || l.starts_with("{\"event\": \"cancelled\"")
            })
            .count();
        assert_eq!((acks, terminal), (2, 2), "{lines:?}");
    }

    #[test]
    fn serve_lines_answers_and_shuts_down() {
        let lines = serve_bytes(
            concat!(
                "not json\n",
                "{\"op\":\"status\",\"id\":\"s\"}\n",
                "{\"op\":\"shutdown\"}\n",
            )
            .as_bytes(),
        );
        assert_eq!(lines.len(), 3, "unexpected output: {lines:?}");
        assert!(lines[0].starts_with("{\"ok\": false"));
        assert!(lines[1].contains("\"malformed_requests\": 1"));
        assert!(lines[2].contains("\"shutdown\": true"));
    }

    #[test]
    fn serve_lines_survives_bad_bytes_and_overlong_lines() {
        let mut input = b"\xff\xfe\n".to_vec();
        input.resize(input.len() + MAX_LINE_BYTES + 1, b'x');
        input.extend_from_slice(b"\n{\"op\":\"status\"}\n{\"op\":\"shutdown\"}\n");
        let lines = serve_bytes(&input);
        assert_eq!(lines.len(), 4, "unexpected output: {lines:?}");
        assert!(lines[0].starts_with("{\"ok\": false") && lines[0].contains("UTF-8"));
        assert!(lines[1].starts_with("{\"ok\": false"));
        assert!(lines[1].contains(&MAX_LINE_BYTES.to_string()), "{lines:?}");
        assert!(lines[2].contains("\"malformed_requests\": 2"), "{lines:?}");
        assert!(lines[3].contains("\"shutdown\": true"));
    }

    #[test]
    fn read_line_stops_at_the_cap_and_skip_line_resumes_after_it() {
        let mut input = vec![b'a'; MAX_LINE_BYTES];
        input.extend_from_slice(b"\nbb");
        input.resize(input.len() + MAX_LINE_BYTES, b'c');
        input.extend_from_slice(b"\nlast");
        let mut input = &input[..];
        let mut buf = Vec::new();
        // Exactly at the cap is still a line.
        assert!(matches!(read_line(&mut input, &mut buf), LineRead::Line));
        assert_eq!(buf.len(), MAX_LINE_BYTES);
        assert!(matches!(read_line(&mut input, &mut buf), LineRead::TooLong));
        skip_line(&mut input);
        // An unterminated final line still counts; then end of input.
        assert!(matches!(read_line(&mut input, &mut buf), LineRead::Line));
        assert_eq!(buf, b"last");
        assert!(matches!(read_line(&mut input, &mut buf), LineRead::End));
    }
}
