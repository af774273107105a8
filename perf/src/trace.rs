//! In-memory spans and progress events, recorded from outside the
//! program: around the benchmark's own calls into each layer, and from
//! the `ProgressSink` events the layers already emit.

use std::collections::BTreeMap;
use std::sync::{Mutex, PoisonError};
use std::thread::ThreadId;
use std::time::Instant;

use hlts_core::{ProgressEvent, ProgressSink};

/// One recorded span: a layer call (or a whole unit of work) with the
/// span that caused it and the job it belongs to.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: String,
    /// Microseconds since the tracer's origin.
    pub start_us: f64,
    pub end_us: f64,
    pub parent: Option<usize>,
    pub job: u64,
}

impl Span {
    fn ms(&self) -> f64 {
        (self.end_us - self.start_us) / 1000.0
    }
}

/// Span store. When off, every call is a no-op and spans cost nothing.
pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Mutex<Vec<Span>>,
}

/// Handle of an open span (`None` when tracing is off).
pub type SpanId = Option<usize>;

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            origin: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    pub fn is_on(&self) -> bool {
        self.on
    }

    fn us(&self, at: Instant) -> f64 {
        at.duration_since(self.origin).as_secs_f64() * 1e6
    }

    /// Open a span now; close it with [`Tracer::close`].
    pub fn open(&self, name: &str, parent: SpanId, job: u64) -> SpanId {
        self.record(name, parent, job, Instant::now(), None)
    }

    pub fn close(&self, id: SpanId) {
        if let Some(i) = id {
            let end = self.us(Instant::now());
            self.spans.lock().unwrap_or_else(PoisonError::into_inner)[i].end_us = end;
        }
    }

    /// Record a span whose bounds were observed elsewhere (an event
    /// timestamp); `end = None` leaves it open.
    pub fn record(
        &self,
        name: &str,
        parent: SpanId,
        job: u64,
        start: Instant,
        end: Option<Instant>,
    ) -> SpanId {
        if !self.on {
            return None;
        }
        let start_us = self.us(start);
        let span = Span {
            name: name.to_owned(),
            start_us,
            end_us: end.map_or(start_us, |e| self.us(e)),
            parent,
            job,
        };
        let mut spans = self.spans.lock().unwrap_or_else(PoisonError::into_inner);
        spans.push(span);
        Some(spans.len() - 1)
    }

    /// Time `f` as a span named `name`.
    pub fn time<T>(&self, name: &str, parent: SpanId, job: u64, f: impl FnOnce() -> T) -> (T, f64) {
        let id = self.open(name, parent, job);
        let t = Instant::now();
        let out = f();
        let secs = t.elapsed().as_secs_f64();
        self.close(id);
        (out, secs)
    }

    pub fn spans(&self) -> Vec<Span> {
        self.spans
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .clone()
    }

    /// The spans, each with the milliseconds its direct children cover.
    fn with_child_ms(&self) -> Vec<(Span, f64)> {
        let spans = self.spans();
        let mut child_ms = vec![0.0; spans.len()];
        for s in &spans {
            if let Some(p) = s.parent {
                child_ms[p] += s.ms();
            }
        }
        spans.into_iter().zip(child_ms).collect()
    }

    /// Smallest share of a `name` span's duration covered by its direct
    /// children (1 when no such span exists).
    pub fn min_child_coverage(&self, name: &str) -> f64 {
        self.with_child_ms()
            .iter()
            .filter(|(s, _)| s.name == name && s.ms() > 0.0)
            .map(|(s, c)| c / s.ms())
            .fold(1.0, f64::min)
    }

    /// Per span name: (count, total ms, self ms), where a span's self
    /// time is its duration minus the part its direct children cover.
    pub fn self_times(&self) -> BTreeMap<String, (usize, f64, f64)> {
        let mut out: BTreeMap<String, (usize, f64, f64)> = BTreeMap::new();
        for (s, c) in self.with_child_ms() {
            let e = out.entry(s.name.clone()).or_default();
            e.0 += 1;
            e.1 += s.ms();
            e.2 += (s.ms() - c).max(0.0);
        }
        out
    }

    /// The spans as one JSON document.
    pub fn to_json(&self, workload: &str, seed: u64) -> String {
        let mut out = format!(
            "{{\"workload\": {}, \"seed\": {seed}, \"spans\": [\n",
            hlts_dse::json_string(workload)
        );
        let spans = self.spans();
        for (i, s) in spans.iter().enumerate() {
            out.push_str(&format!(
                "  {{\"name\": {}, \"start_us\": {:.1}, \"end_us\": {:.1}, \"parent\": {}, \"job\": {}}}{}\n",
                hlts_dse::json_string(&s.name),
                s.start_us,
                s.end_us,
                s.parent.map_or("null".to_owned(), |p| p.to_string()),
                s.job,
                if i + 1 == spans.len() { "" } else { "," },
            ));
        }
        out.push_str("]}\n");
        out
    }
}

/// What a layer reported through its `ProgressSink`.
#[derive(Debug, Clone, Copy)]
pub enum Ev {
    /// Algorithm 1 started iteration `n` of a synthesis.
    Iter(usize),
    /// A sweep finished point `id`.
    Point(usize),
}

/// A `ProgressSink` that timestamps events per thread. With `all`
/// unset only the first iteration of each synthesis and the point
/// completions are kept — enough for per-point latency at negligible
/// cost.
pub struct Events {
    all: bool,
    log: Mutex<Vec<(ThreadId, Instant, Ev)>>,
}

impl ProgressSink for Events {
    fn event(&self, event: ProgressEvent) {
        let ev = match event {
            ProgressEvent::Iteration { iteration, .. } if self.all || iteration == 0 => {
                Ev::Iter(iteration)
            }
            ProgressEvent::PointDone { id, .. } => Ev::Point(id),
            _ => return,
        };
        let at = Instant::now();
        let thread = std::thread::current().id();
        self.log
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push((thread, at, ev));
    }
}

/// One sweep point as its worker thread reported it.
#[derive(Debug, Clone, Copy)]
pub struct PointTiming {
    pub id: usize,
    pub start: Instant,
    pub end: Instant,
}

impl Events {
    pub fn new(all: bool) -> Events {
        Events {
            all,
            log: Mutex::new(Vec::new()),
        }
    }

    fn per_thread(&self) -> Vec<Vec<(Instant, Ev)>> {
        let log = self.log.lock().unwrap_or_else(PoisonError::into_inner);
        let mut threads: Vec<(ThreadId, Vec<(Instant, Ev)>)> = Vec::new();
        for &(t, at, ev) in log.iter() {
            match threads.iter_mut().find(|(id, _)| *id == t) {
                Some((_, evs)) => evs.push((at, ev)),
                None => threads.push((t, vec![(at, ev)])),
            }
        }
        threads.into_iter().map(|(_, evs)| evs).collect()
    }

    /// Points as (first iteration → completion) on their worker thread.
    pub fn points(&self) -> Vec<PointTiming> {
        let mut out = Vec::new();
        for evs in self.per_thread() {
            let mut start: Option<Instant> = None;
            for (at, ev) in evs {
                match ev {
                    Ev::Iter(0) if start.is_none() => start = Some(at),
                    Ev::Iter(_) => {}
                    Ev::Point(id) => {
                        if let Some(s) = start.take() {
                            out.push(PointTiming {
                                id,
                                start: s,
                                end: at,
                            });
                        }
                    }
                }
            }
        }
        out
    }

    /// Milliseconds between consecutive iterations of one synthesis on
    /// one thread (needs `all`).
    pub fn iteration_gaps_ms(&self) -> Vec<f64> {
        let mut gaps = Vec::new();
        for evs in self.per_thread() {
            for pair in evs.windows(2) {
                if let ((a, Ev::Iter(i)), (b, Ev::Iter(j))) = (pair[0], pair[1]) {
                    if j == i + 1 {
                        gaps.push(b.duration_since(a).as_secs_f64() * 1000.0);
                    }
                }
            }
        }
        gaps
    }

    /// Iteration events seen (needs `all`).
    pub fn iterations(&self) -> usize {
        self.log
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .iter()
            .filter(|(_, _, ev)| matches!(ev, Ev::Iter(_)))
            .count()
    }
}
