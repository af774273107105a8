//! Plain-text checkpoint journal for interrupted sweeps.
//!
//! The journal is append-only, hand-rolled text (no serde, like the
//! rest of the workspace's reports): a two-line header binding the file
//! to one sweep spec, then one `point` line per completed result, in
//! completion order (which under a parallel pool is *not* ID order —
//! resume never depends on line order):
//!
//! ```text
//! hlts-dse journal v1
//! spec 9a3c0b8d12ef4567
//! point 7 bench=dct flow=ours k=3 alpha=2.0 beta=1.0 bits=8 E=9 \
//!       H=1.392 mod=4 reg=7 mux=12 avgC=0.98 avgO=0.95 depth=0.0 ms=312
//! ```
//!
//! (shown wrapped; real lines are single lines). Floats are written in
//! Rust's shortest round-trip format, so a replayed result is
//! bit-identical to the computed one — the property that makes a
//! resumed front equal an uninterrupted one.
//!
//! Warm-start sweeps (`--warm-start on`) additionally write one `trace`
//! line per point — the accepted-merge trace replay consumes, encoded
//! by [`render_trace`] — immediately *before* its `point` line in the
//! same append, and the point line gains an atomic ` rep=N rec=M` pair.
//! A `trace` line whose `point` line never landed (the append was torn
//! between the two) is an orphan and silently dropped: the point will
//! be recomputed, re-recording its trace.
//!
//! A truncated final line (the typical shape of a killed run) is
//! detected and skipped, so a resume after `kill -9` still works; a
//! file is only considered cleanly terminated when the text after its
//! last non-whitespace character is exactly one newline — a torn final
//! line followed by stray trailing blank lines is still a torn tail,
//! not interior corruption. Malformed *interior* lines (a torn mid-file
//! write, disk corruption, a partial overwrite) do not abort the load
//! either: each is skipped and counted in [`JournalScan::malformed`],
//! losing only the corrupted points — the runner recomputes them. Only
//! a garbled header and duplicate point IDs are unrecoverable: the
//! first means the file is not this sweep's journal at all, the second
//! that two lines claim the same slot and the loader cannot know which
//! to trust.

use std::path::Path;

use hlts_core::{MergeTrace, TraceEntry, TraceMergeKind, TraceWinner};

use crate::pareto::{Objectives, PointResult};
use crate::spec::{Flow, PointParams};
use crate::DseError;

/// Magic first line of every journal.
pub const MAGIC: &str = "hlts-dse journal v1";

/// Render the journal header for a sweep with the given fingerprint.
#[must_use]
pub fn render_header(fingerprint: u64) -> String {
    format!("{MAGIC}\nspec {fingerprint:016x}\n")
}

/// Render one completed point as a single journal line (newline
/// included).
#[must_use]
pub fn render_point(r: &PointResult) -> String {
    // The coverage pair appears only on graded sweeps, so plain
    // journals render byte-identically to every earlier version.
    let test = r
        .objectives
        .test
        .map(|t| format!(" cov={:?} tcyc={}", t.coverage, t.test_cycles))
        .unwrap_or_default();
    // Likewise the warm-start pair: only trace-bearing sweeps carry it,
    // and their fingerprint already refuses legacy journals.
    let replay = r
        .replay
        .map(|(rep, rec)| format!(" rep={rep} rec={rec}"))
        .unwrap_or_default();
    format!(
        "point {} {} E={} H={:?} mod={} reg={} mux={} avgC={:?} avgO={:?} depth={:?}{test}{replay} ms={}\n",
        r.id,
        r.params.key(),
        r.objectives.execution_time,
        r.objectives.hardware,
        r.modules,
        r.registers,
        r.muxes,
        r.objectives.avg_controllability,
        r.objectives.avg_observability,
        r.objectives.co_depth,
        r.millis,
    )
}

/// Render one point's accepted-merge trace as a single journal line
/// (newline included), or `None` when the trace is unencodable (an
/// operand symbol that is empty or contains whitespace — traces are an
/// optimization, so the caller just skips the line and the point
/// replays nothing downstream).
///
/// Encoding, whitespace-tokenized after `trace <id>`: each committed
/// merge is `M|R <symA> <symB> w<index> t<total> f<fingerprint:016x>
/// p<prices>`, a terminal iteration is `T t<total> p<prices>`, and
/// `<prices>` is a comma-joined list of `ΔE/ΔH` pairs (shortest
/// round-trip floats) with `x` marking an infeasible candidate.
#[must_use]
pub fn render_trace(id: usize, trace: &MergeTrace) -> Option<String> {
    let sym_ok = |s: &str| !s.is_empty() && !s.contains(char::is_whitespace);
    let prices = |prices: &[Option<(f64, f64)>]| {
        let items: Vec<String> = prices
            .iter()
            .map(|p| match p {
                Some((de, dh)) => format!("{de:?}/{dh:?}"),
                None => "x".to_owned(),
            })
            .collect();
        format!("p{}", items.join(","))
    };
    let mut line = format!("trace {id}");
    for entry in &trace.entries {
        match &entry.winner {
            Some(w) => {
                if !sym_ok(&w.sym_a) || !sym_ok(&w.sym_b) {
                    return None;
                }
                let kind = match w.kind {
                    TraceMergeKind::Modules => 'M',
                    TraceMergeKind::Registers => 'R',
                };
                line.push_str(&format!(
                    " {kind} {} {} w{} t{} f{:016x} {}",
                    w.sym_a,
                    w.sym_b,
                    w.index,
                    entry.total,
                    w.fingerprint,
                    prices(&entry.prices)
                ));
            }
            None => line.push_str(&format!(" T t{} {}", entry.total, prices(&entry.prices))),
        }
    }
    line.push('\n');
    Some(line)
}

fn opt_field<'a>(pairs: &'a [(&str, &str)], key: &str) -> Option<&'a str> {
    pairs.iter().find(|(k, _)| *k == key).map(|(_, v)| *v)
}

fn field<'a>(pairs: &'a [(&str, &str)], key: &str, line: &str) -> Result<&'a str, DseError> {
    opt_field(pairs, key)
        .ok_or_else(|| DseError::Journal(format!("missing `{key}` in line `{line}`")))
}

fn parse_num<T: std::str::FromStr>(v: &str, key: &str, line: &str) -> Result<T, DseError> {
    v.parse()
        .map_err(|_| DseError::Journal(format!("bad `{key}={v}` in line `{line}`")))
}

/// Parse one `point` line (without the `point ` prefix already split
/// off by [`parse`]).
fn parse_point(rest: &str, line: &str) -> Result<PointResult, DseError> {
    let mut tokens = rest.split_whitespace();
    let id: usize = tokens
        .next()
        .ok_or_else(|| DseError::Journal(format!("missing point id in `{line}`")))
        .and_then(|t| parse_num(t, "id", line))?;
    let pairs: Vec<(&str, &str)> = tokens
        .map(|t| {
            t.split_once('=')
                .ok_or_else(|| DseError::Journal(format!("bad token `{t}` in line `{line}`")))
        })
        .collect::<Result<_, _>>()?;
    let flow_name = field(&pairs, "flow", line)?;
    let flow = Flow::parse(flow_name)
        .ok_or_else(|| DseError::Journal(format!("unknown flow `{flow_name}` in `{line}`")))?;
    // The coverage pair is optional (plain sweeps never write it) but
    // atomic: exactly one of the two keys means a damaged line.
    let test = match (opt_field(&pairs, "cov"), opt_field(&pairs, "tcyc")) {
        (Some(cov), Some(tcyc)) => Some(crate::pareto::TestObjectives {
            coverage: parse_num(cov, "cov", line)?,
            test_cycles: parse_num(tcyc, "tcyc", line)?,
        }),
        (None, None) => None,
        _ => {
            return Err(DseError::Journal(format!(
                "line has one of `cov`/`tcyc` but not both: `{line}`"
            )))
        }
    };
    // The warm-start pair is just as atomic.
    let replay = match (opt_field(&pairs, "rep"), opt_field(&pairs, "rec")) {
        (Some(rep), Some(rec)) => {
            Some((parse_num(rep, "rep", line)?, parse_num(rec, "rec", line)?))
        }
        (None, None) => None,
        _ => {
            return Err(DseError::Journal(format!(
                "line has one of `rep`/`rec` but not both: `{line}`"
            )))
        }
    };
    Ok(PointResult {
        id,
        params: PointParams {
            bench: field(&pairs, "bench", line)?.to_owned(),
            flow,
            k: parse_num(field(&pairs, "k", line)?, "k", line)?,
            alpha: parse_num(field(&pairs, "alpha", line)?, "alpha", line)?,
            beta: parse_num(field(&pairs, "beta", line)?, "beta", line)?,
            bits: parse_num(field(&pairs, "bits", line)?, "bits", line)?,
        },
        objectives: Objectives {
            execution_time: parse_num(field(&pairs, "E", line)?, "E", line)?,
            hardware: parse_num(field(&pairs, "H", line)?, "H", line)?,
            avg_controllability: parse_num(field(&pairs, "avgC", line)?, "avgC", line)?,
            avg_observability: parse_num(field(&pairs, "avgO", line)?, "avgO", line)?,
            co_depth: parse_num(field(&pairs, "depth", line)?, "depth", line)?,
            test,
        },
        modules: parse_num(field(&pairs, "mod", line)?, "mod", line)?,
        registers: parse_num(field(&pairs, "reg", line)?, "reg", line)?,
        muxes: parse_num(field(&pairs, "mux", line)?, "mux", line)?,
        millis: parse_num(field(&pairs, "ms", line)?, "ms", line)?,
        resumed: true,
        replay,
    })
}

/// Parse a tagged numeric token (`w7`, `t12`) from a trace line.
fn tagged<T: std::str::FromStr>(tok: &str, tag: char, line: &str) -> Result<T, DseError> {
    tok.strip_prefix(tag)
        .and_then(|v| v.parse().ok())
        .ok_or_else(|| DseError::Journal(format!("bad `{tag}…` token `{tok}` in `{line}`")))
}

/// Parse a `p…` price-list token from a trace line.
fn parse_prices(tok: &str, line: &str) -> Result<Vec<Option<(f64, f64)>>, DseError> {
    let rest = tok
        .strip_prefix('p')
        .ok_or_else(|| DseError::Journal(format!("bad price token `{tok}` in `{line}`")))?;
    if rest.is_empty() {
        return Ok(Vec::new());
    }
    rest.split(',')
        .map(|item| {
            if item == "x" {
                return Ok(None);
            }
            let (de, dh) = item
                .split_once('/')
                .ok_or_else(|| DseError::Journal(format!("bad price `{item}` in `{line}`")))?;
            Ok(Some((
                parse_num(de, "ΔE", line)?,
                parse_num(dh, "ΔH", line)?,
            )))
        })
        .collect()
}

/// Parse one `trace` line (without the `trace ` prefix already split
/// off by [`parse`]) into `(point id, trace)`.
fn parse_trace(rest: &str, line: &str) -> Result<(usize, MergeTrace), DseError> {
    let mut tokens = rest.split_whitespace();
    let id: usize = tokens
        .next()
        .ok_or_else(|| DseError::Journal(format!("missing trace id in `{line}`")))
        .and_then(|t| parse_num(t, "id", line))?;
    let mut next = |what: &str| {
        tokens
            .next()
            .ok_or_else(|| DseError::Journal(format!("truncated trace entry ({what}) in `{line}`")))
    };
    let mut entries = Vec::new();
    // Running out of tokens at an entry boundary is the clean end of
    // the line; running out mid-entry is the error `next` raises.
    while let Ok(kind) = next("kind") {
        match kind {
            "M" | "R" => {
                let sym_a = next("symbol")?.to_owned();
                let sym_b = next("symbol")?.to_owned();
                let index = tagged(next("winner index")?, 'w', line)?;
                let total = tagged(next("total")?, 't', line)?;
                let fingerprint = next("fingerprint")?
                    .strip_prefix('f')
                    .and_then(|h| u64::from_str_radix(h, 16).ok())
                    .ok_or_else(|| {
                        DseError::Journal(format!("bad fingerprint token in `{line}`"))
                    })?;
                let prices = parse_prices(next("prices")?, line)?;
                entries.push(TraceEntry {
                    winner: Some(TraceWinner {
                        kind: if kind == "M" {
                            TraceMergeKind::Modules
                        } else {
                            TraceMergeKind::Registers
                        },
                        sym_a,
                        sym_b,
                        index,
                        fingerprint,
                    }),
                    total,
                    prices,
                });
            }
            "T" => {
                let total = tagged(next("total")?, 't', line)?;
                let prices = parse_prices(next("prices")?, line)?;
                entries.push(TraceEntry {
                    winner: None,
                    total,
                    prices,
                });
            }
            other => {
                return Err(DseError::Journal(format!(
                    "unknown trace entry kind `{other}` in `{line}`"
                )))
            }
        }
    }
    Ok((id, MergeTrace { entries }))
}

/// What [`parse`] recovered from a journal's text.
#[derive(Debug, Clone, PartialEq)]
pub struct JournalScan {
    /// The sweep-spec fingerprint recorded in the header.
    pub fingerprint: u64,
    /// Every intact completed point, in file order.
    pub points: Vec<PointResult>,
    /// Accepted-merge traces of warm-start journals, `(point id,
    /// trace)` in file order. Orphans (a trace whose point line never
    /// landed) are already dropped.
    pub traces: Vec<(usize, MergeTrace)>,
    /// Interior lines that were skipped as unparseable (a torn final
    /// line of an incomplete file is expected damage and **not**
    /// counted here). Non-zero means the file lost data — the skipped
    /// points will simply be recomputed on resume.
    pub malformed: usize,
    /// Whether a torn final line (an interrupted append: unparseable
    /// final text that is not cleanly newline-terminated, the typical
    /// leftover of a killed run) was dropped — `1` when so, else `0`.
    /// "Cleanly terminated" means the text after the last
    /// non-whitespace character is exactly one newline; stray trailing
    /// blank lines after a torn write still count here, not as
    /// [`JournalScan::malformed`]. Counted separately because it is
    /// *expected* damage, but still surfaced so reports can say the
    /// file was cut short.
    pub torn_tail: usize,
}

/// Parse a journal's text into its spec fingerprint and completed
/// points.
///
/// A malformed final line of a text that does not end in a newline (an
/// interrupted append) is dropped and counted in
/// [`JournalScan::torn_tail`]. Any other unparseable line is skipped
/// and counted in [`JournalScan::malformed`] — resume degrades to
/// recomputing the lost points instead of refusing the whole file.
///
/// # Errors
///
/// Missing/garbled header, duplicate point IDs.
pub fn parse(text: &str) -> Result<JournalScan, DseError> {
    let mut lines = text.lines();
    if lines.next() != Some(MAGIC) {
        return Err(DseError::Journal(format!(
            "not a journal (expected `{MAGIC}` first line)"
        )));
    }
    let spec_line = lines
        .next()
        .ok_or_else(|| DseError::Journal("missing `spec` line".into()))?;
    let fingerprint = spec_line
        .strip_prefix("spec ")
        .and_then(|h| u64::from_str_radix(h.trim(), 16).ok())
        .ok_or_else(|| DseError::Journal(format!("bad spec line `{spec_line}`")))?;

    let body: Vec<&str> = lines.filter(|l| !l.trim().is_empty()).collect();
    // A file is cleanly terminated only when the text after its last
    // non-whitespace character is exactly one newline. `ends_with('\n')`
    // alone would mis-file a torn final write followed by stray blank
    // lines as interior corruption instead of the expected torn tail.
    let complete = match text.rfind(|c: char| !c.is_whitespace()) {
        Some(i) => {
            let end = i + text[i..].chars().next().map_or(1, char::len_utf8);
            matches!(&text[end..], "\n" | "\r\n")
        }
        None => false,
    };
    let mut out: Vec<PointResult> = Vec::new();
    let mut traces: Vec<(usize, MergeTrace)> = Vec::new();
    let mut malformed = 0usize;
    let mut torn_tail = 0usize;
    enum Line {
        Point(PointResult),
        Trace(usize, MergeTrace),
    }
    for (i, line) in body.iter().enumerate() {
        let parsed = if let Some(rest) = line.strip_prefix("trace ") {
            parse_trace(rest, line).map(|(id, t)| Line::Trace(id, t))
        } else {
            line.strip_prefix("point ")
                .ok_or_else(|| DseError::Journal(format!("unexpected line `{line}`")))
                .and_then(|rest| parse_point(rest, line))
                .map(Line::Point)
        };
        match parsed {
            Ok(Line::Point(r)) => {
                if out.iter().any(|p| p.id == r.id) {
                    return Err(DseError::Journal(format!("duplicate point id {}", r.id)));
                }
                out.push(r);
            }
            Ok(Line::Trace(id, t)) => {
                if traces.iter().any(|(existing, _)| *existing == id) {
                    return Err(DseError::Journal(format!("duplicate trace id {id}")));
                }
                traces.push((id, t));
            }
            Err(_) => {
                let last = i + 1 == body.len();
                if last && !complete {
                    torn_tail = 1; // torn final write from a killed run
                    break;
                }
                malformed += 1; // interior damage: skip, report, go on
            }
        }
    }
    // A trace whose point line never landed is a torn append caught
    // between its two lines: drop it so the point is recomputed.
    traces.retain(|(id, _)| out.iter().any(|p| p.id == *id));
    Ok(JournalScan {
        fingerprint,
        points: out,
        traces,
        malformed,
        torn_tail,
    })
}

/// Read and [`parse`] a journal file.
///
/// # Errors
///
/// I/O failures plus everything [`parse`] rejects.
pub fn load(path: &Path) -> Result<JournalScan, DseError> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| DseError::Journal(format!("{}: {e}", path.display())))?;
    parse(&text)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(id: usize) -> PointResult {
        PointResult {
            id,
            params: PointParams {
                bench: "dct".into(),
                flow: Flow::Ours,
                k: 3,
                alpha: 0.1,
                beta: 10.0,
                bits: 8,
            },
            objectives: Objectives {
                execution_time: 9,
                hardware: 1.3920000000000001,
                avg_controllability: 0.9765625,
                avg_observability: 0.95,
                co_depth: 0.30000000000000004,
                test: None,
            },
            modules: 4,
            registers: 7,
            muxes: 12,
            millis: 312,
            resumed: false,
            replay: None,
        }
    }

    fn sample_trace() -> MergeTrace {
        MergeTrace {
            entries: vec![
                TraceEntry {
                    winner: Some(TraceWinner {
                        kind: TraceMergeKind::Modules,
                        sym_a: "N1".into(),
                        sym_b: "N4".into(),
                        index: 2,
                        fingerprint: 0x00ab_cdef_0123_4567,
                    }),
                    total: 5,
                    prices: vec![Some((1.0, -0.30000000000000004)), None, Some((-1.0, 0.125))],
                },
                TraceEntry {
                    winner: Some(TraceWinner {
                        kind: TraceMergeKind::Registers,
                        sym_a: "p".into(),
                        sym_b: "t3".into(),
                        index: 0,
                        fingerprint: u64::MAX,
                    }),
                    total: 1,
                    prices: vec![Some((0.0, -0.25))],
                },
                TraceEntry {
                    winner: None,
                    total: 2,
                    prices: vec![Some((2.0, 0.5)), None],
                },
            ],
        }
    }

    #[test]
    fn point_line_roundtrips_bit_exactly() {
        let r = sample(7);
        let text = format!("{}{}", render_header(0xdead_beef), render_point(&r));
        let scan = parse(&text).unwrap();
        assert_eq!(scan.fingerprint, 0xdead_beef);
        assert_eq!(scan.malformed, 0);
        assert_eq!(scan.points.len(), 1);
        assert_eq!(scan.points[0], r);
        assert!(scan.points[0].resumed);
        assert!(scan.points[0].objectives.hardware.to_bits() == r.objectives.hardware.to_bits());
    }

    #[test]
    fn coverage_pair_roundtrips_and_is_atomic() {
        use crate::pareto::TestObjectives;
        let mut r = sample(3);
        r.objectives.test = Some(TestObjectives {
            coverage: 97.33333333333333,
            test_cycles: 180,
        });
        let text = format!("{}{}", render_header(5), render_point(&r));
        let scan = parse(&text).unwrap();
        assert_eq!(scan.points[0], r);
        let t = scan.points[0].objectives.test.unwrap();
        assert_eq!(
            t.coverage.to_bits(),
            97.33333333333333_f64.to_bits(),
            "coverage replays bit-exactly"
        );
        // A line carrying cov without tcyc is damage, not a plain point:
        // it is skipped and counted like any other corrupted line.
        let damaged = text.replace(" tcyc=180", "");
        let scan = parse(&damaged).unwrap();
        assert_eq!(
            (scan.points.len(), scan.malformed, scan.torn_tail),
            (0, 1, 0)
        );
    }

    #[test]
    fn torn_final_line_is_dropped_and_counted_as_torn() {
        let mut text = format!("{}{}", render_header(1), render_point(&sample(0)));
        text.push_str("point 1 bench=dct flow=ours k=3 alp"); // torn, no \n
        let scan = parse(&text).unwrap();
        assert_eq!(scan.points.len(), 1);
        assert_eq!(scan.malformed, 0, "expected kill damage is not corruption");
        assert_eq!(scan.torn_tail, 1, "but the cut-short file is reported");
    }

    #[test]
    fn clean_journal_has_no_torn_tail() {
        let text = format!("{}{}", render_header(1), render_point(&sample(0)));
        let scan = parse(&text).unwrap();
        assert_eq!((scan.malformed, scan.torn_tail), (0, 0));
    }

    #[test]
    fn torn_line_with_trailing_blanks_is_torn_not_malformed() {
        // A killed run's torn write followed by stray blank lines: the
        // final newline(s) belong to the blanks, not to the torn line,
        // so this is still the expected torn tail — not corruption.
        let intact = format!("{}{}", render_header(1), render_point(&sample(0)));
        for tail in ["\n\n", "\n \n", "\n\n\n", "\n\r\n"] {
            let text = format!("{intact}point 1 bench=dct flow=ours k=3 alp{tail}");
            let scan = parse(&text).unwrap();
            assert_eq!(
                (scan.points.len(), scan.malformed, scan.torn_tail),
                (1, 0, 1),
                "tail {tail:?}"
            );
        }
        // Exactly one newline (or \r\n) after content is the *clean*
        // terminator: an unparseable line so terminated is interior
        // corruption, not a torn tail.
        for tail in ["\n", "\r\n"] {
            let text = format!("{intact}point 1 bench=dct flow=ours k=3 alp{tail}");
            let scan = parse(&text).unwrap();
            assert_eq!(
                (scan.points.len(), scan.malformed, scan.torn_tail),
                (1, 1, 0),
                "tail {tail:?}"
            );
        }
        // Trailing blanks after a *clean* file stay harmless.
        let scan = parse(&format!("{intact}\n\n")).unwrap();
        assert_eq!(
            (scan.points.len(), scan.malformed, scan.torn_tail),
            (1, 0, 0)
        );
    }

    #[test]
    fn trace_line_roundtrips_bit_exactly() {
        let trace = sample_trace();
        let line = render_trace(7, &trace).unwrap();
        let text = format!("{}{}{}", render_header(2), line, render_point(&sample(7)));
        let scan = parse(&text).unwrap();
        assert_eq!((scan.malformed, scan.torn_tail), (0, 0));
        assert_eq!(scan.traces, vec![(7, trace.clone())]);
        let replayed = &scan.traces[0].1.entries[0].prices[0].unwrap();
        let original = trace.entries[0].prices[0].unwrap();
        assert_eq!(replayed.1.to_bits(), original.1.to_bits());
    }

    #[test]
    fn replay_pair_roundtrips_and_is_atomic() {
        let mut r = sample(4);
        r.replay = Some((11, 2));
        let text = format!("{}{}", render_header(3), render_point(&r));
        let scan = parse(&text).unwrap();
        assert_eq!(scan.points[0].replay, Some((11, 2)));
        // One of the two keys without the other is damage.
        let damaged = text.replace(" rec=2", "");
        let scan = parse(&damaged).unwrap();
        assert_eq!((scan.points.len(), scan.malformed), (0, 1));
    }

    #[test]
    fn orphan_trace_is_dropped() {
        // The append was torn between the trace line and its point
        // line: the trace must not survive, or resume would warm-start
        // from a trace whose result was never journalled.
        let text = format!(
            "{}{}{}",
            render_header(2),
            render_trace(9, &sample_trace()).unwrap(),
            render_point(&sample(0))
        );
        let scan = parse(&text).unwrap();
        assert_eq!(scan.points.len(), 1);
        assert!(scan.traces.is_empty(), "trace 9 has no point 9");
        assert_eq!((scan.malformed, scan.torn_tail), (0, 0));
    }

    #[test]
    fn duplicate_trace_ids_rejected() {
        let line = render_trace(7, &sample_trace()).unwrap();
        let text = format!(
            "{}{line}{line}{}",
            render_header(2),
            render_point(&sample(7))
        );
        assert!(parse(&text).is_err());
    }

    #[test]
    fn unencodable_symbols_refuse_to_render() {
        let mut trace = sample_trace();
        if let Some(w) = &mut trace.entries[0].winner {
            w.sym_a = "two words".into();
        }
        assert!(render_trace(0, &trace).is_none());
        if let Some(w) = &mut trace.entries[0].winner {
            w.sym_a = String::new();
        }
        assert!(render_trace(0, &trace).is_none());
    }

    #[test]
    fn malformed_interior_lines_are_skipped_and_counted() {
        let text = format!(
            "{}point 1 bench=dct garbage\nnot even a point line\n{}",
            render_header(1),
            render_point(&sample(0))
        );
        let scan = parse(&text).unwrap();
        assert_eq!(scan.malformed, 2);
        assert_eq!(scan.points.len(), 1);
        assert_eq!(scan.points[0].id, 0, "the intact line survives");
    }

    #[test]
    fn duplicate_ids_rejected() {
        let text = format!(
            "{}{}{}",
            render_header(1),
            render_point(&sample(2)),
            render_point(&sample(2))
        );
        assert!(parse(&text).is_err());
    }

    #[test]
    fn non_journal_rejected() {
        assert!(parse("hello\n").is_err());
        assert!(parse(&format!("{MAGIC}\nnope\n")).is_err());
    }
}
