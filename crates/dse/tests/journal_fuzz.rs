//! Byte-level corruption fuzzing of the checkpoint-journal parser: no
//! input may panic it, and damaging one line may lose at most that
//! line's point.

use hlts_core::{MergeTrace, TraceEntry, TraceMergeKind, TraceWinner};
use hlts_dse::journal::{parse, render_header, render_point, render_trace};
use hlts_dse::{Flow, Objectives, PointParams, PointResult};
use rand::{Rng, RngCore, SeedableRng};

fn sample(id: usize) -> PointResult {
    PointResult {
        id,
        params: PointParams {
            bench: "dct".into(),
            flow: Flow::Ours,
            k: 1 + id % 4,
            alpha: 2.0,
            beta: 1.0 + id as f64,
            bits: 8,
        },
        objectives: Objectives {
            execution_time: 9 + id,
            hardware: 1.25 + id as f64 * 0.5,
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

fn journal_text(points: usize) -> String {
    let mut text = render_header(0xfeed_f00d);
    for id in 0..points {
        text.push_str(&render_point(&sample(id)));
    }
    text
}

/// Random single-byte mutations (flip, insert, delete) anywhere in the
/// file: the parser must return — Ok with sane accounting or a typed
/// error — and never panic.
#[test]
fn random_byte_corruptions_never_panic_the_parser() {
    let clean = journal_text(6);
    let mut rng = rand::rngs::StdRng::seed_from_u64(0x1bad_5eed);
    for _ in 0..2000 {
        let mut bytes = clean.clone().into_bytes();
        for _ in 0..1 + rng.gen_range(0..4) {
            match rng.gen_range(0..3) {
                0 => {
                    let i = rng.gen_range(0..bytes.len());
                    bytes[i] = (rng.next_u64() & 0xff) as u8;
                }
                1 => {
                    let i = rng.gen_range(0..bytes.len());
                    bytes.insert(i, (rng.next_u64() & 0xff) as u8);
                }
                _ => {
                    let i = rng.gen_range(0..bytes.len());
                    bytes.remove(i);
                }
            }
        }
        let text = String::from_utf8_lossy(&bytes);
        if let Ok(scan) = parse(&text) {
            let body_lines = text.lines().count().saturating_sub(2);
            assert!(
                scan.points.len() + scan.malformed <= body_lines,
                "more outcomes than lines: {} points + {} malformed of {body_lines}",
                scan.points.len(),
                scan.malformed
            );
            for p in &scan.points {
                assert!(p.resumed, "parsed points are resume entries");
            }
        }
        // Err is equally acceptable (damaged header, duplicate IDs) —
        // the property under test is "no panic, no nonsense".
    }
}

/// Truncating a valid journal at every byte position past the header —
/// the file shapes `kill -9` can leave behind — must never panic the
/// parser, never mis-count interior damage, and account for the cut
/// exactly: the partial tail either still parses (the cut happened to
/// land after all required fields) or is dropped and counted in
/// `torn_tail`, never both and never silently.
#[test]
fn truncation_at_every_byte_counts_the_torn_tail() {
    let clean = journal_text(4);
    let header_len = render_header(0xfeed_f00d).len();
    for cut in header_len..=clean.len() {
        let text = &clean[..cut];
        let scan = parse(text).unwrap_or_else(|e| panic!("cut at byte {cut}: {e}"));
        let complete = text[header_len..].matches('\n').count();
        assert_eq!(
            scan.malformed, 0,
            "cut at byte {cut}: truncation is not corruption"
        );
        assert!(scan.torn_tail <= 1, "cut at byte {cut}");
        if text.ends_with('\n') {
            assert_eq!(
                (scan.points.len(), scan.torn_tail),
                (complete, 0),
                "cut at byte {cut} on a line boundary"
            );
        } else {
            // Exactly one of: the partial tail parsed as a point, or it
            // was dropped as the torn tail.
            assert_eq!(
                (scan.points.len() - complete) + scan.torn_tail,
                1,
                "cut at byte {cut}: {} points over {complete} complete lines, torn {}",
                scan.points.len(),
                scan.torn_tail
            );
        }
        for (i, p) in scan.points.iter().take(complete).enumerate() {
            assert_eq!(p, &sample(i), "complete line {i} must survive cut at {cut}");
        }
    }
}

fn warm_sample(id: usize) -> PointResult {
    let mut r = sample(id);
    r.replay = Some((id, 3));
    r
}

fn trace_of(id: usize) -> MergeTrace {
    MergeTrace {
        entries: vec![
            TraceEntry {
                winner: Some(TraceWinner {
                    kind: if id.is_multiple_of(2) {
                        TraceMergeKind::Modules
                    } else {
                        TraceMergeKind::Registers
                    },
                    sym_a: format!("N{id}"),
                    sym_b: "N9".into(),
                    index: id,
                    fingerprint: 0x0123_4567_89ab_cdef ^ id as u64,
                }),
                total: 4,
                prices: vec![Some((1.0 + id as f64, -0.5)), None],
            },
            TraceEntry {
                winner: None,
                total: 2,
                prices: vec![Some((0.25, 0.125)), None],
            },
        ],
    }
}

fn warm_journal_text(points: usize) -> String {
    let mut text = render_header(0xfeed_f00d);
    for id in 0..points {
        text.push_str(&render_trace(id, &trace_of(id)).unwrap());
        text.push_str(&render_point(&warm_sample(id)));
    }
    text
}

/// The truncation sweep over a *warm-start* journal — trace lines
/// interleaved with `rep=`/`rec=`-bearing point lines, each cut also
/// re-tried with stray trailing blank lines appended (the shape the
/// torn-tail normalization exists for): truncation must never count as
/// interior corruption, a torn tail is at most one, trailing blanks
/// never flip a torn tail into `malformed`, and a surviving trace is
/// never an orphan.
#[test]
fn warm_truncation_at_every_byte_counts_the_torn_tail() {
    let clean = warm_journal_text(3);
    let header_len = render_header(0xfeed_f00d).len();
    for cut in header_len..=clean.len() {
        // `""` is the plain kill shape; the rest are stray trailing
        // blank lines after the cut. A single bare `"\n"` is excluded
        // deliberately: one newline after content IS the clean
        // terminator, so a mid-line cut plus `"\n"` is interior
        // corruption by definition — the satellite's normalization is
        // about *extra* blanks beyond it.
        for blanks in ["", "\n\n", "\n \n", "\n\n\n"] {
            let text = format!("{}{blanks}", &clean[..cut]);
            let scan = parse(&text).unwrap_or_else(|e| panic!("cut {cut} blanks {blanks:?}: {e}"));
            assert_eq!(
                scan.malformed, 0,
                "cut {cut} blanks {blanks:?}: truncation is not corruption"
            );
            assert!(scan.torn_tail <= 1, "cut {cut} blanks {blanks:?}");
            for (id, trace) in &scan.traces {
                assert!(
                    scan.points.iter().any(|p| p.id == *id),
                    "cut {cut} blanks {blanks:?}: orphan trace {id}"
                );
                assert_eq!(trace, &trace_of(*id), "cut {cut}: trace {id} roundtrips");
            }
            for p in &scan.points {
                let mut expect = warm_sample(p.id);
                expect.resumed = true;
                assert_eq!(p.replay, expect.replay, "cut {cut}: rep/rec roundtrip");
            }
        }
    }
}

/// Surgically corrupting the *tail* of one interior line (past the ID
/// field, so no duplicate-ID ambiguity) loses exactly that point.
#[test]
fn corrupting_one_line_loses_exactly_that_point() {
    let clean = journal_text(5);
    let mut rng = rand::rngs::StdRng::seed_from_u64(0xc0de);
    for victim in 0..5usize {
        let mut lines: Vec<String> = clean.lines().map(str::to_owned).collect();
        let line = &mut lines[2 + victim]; // header is 2 lines
        let start = line.len() / 2;
        let n = rng.gen_range(1..line.len() - start);
        for i in start..start + n {
            // printable ASCII (no newline) so byte indexing stays a
            // char boundary and the line count stays put
            let b = b' ' + (rng.next_u64() % 0x5f) as u8;
            line.replace_range(i..=i, std::str::from_utf8(&[b]).unwrap_or("?"));
        }
        let mut text = lines.join("\n");
        text.push('\n');
        match parse(&text) {
            Ok(scan) => {
                assert_eq!(scan.malformed + scan.points.len(), 5, "victim {victim}");
                if scan.malformed == 1 {
                    let ids: Vec<usize> = scan.points.iter().map(|p| p.id).collect();
                    assert!(
                        !ids.contains(&victim),
                        "victim {victim} should be the lost line: {ids:?}"
                    );
                    for (other, r) in (0..5).filter(|i| *i != victim).zip(&scan.points) {
                        assert_eq!(r, &sample(other), "intact line {other} must survive");
                    }
                }
                // malformed == 0 is possible when the damage happened to
                // produce a parseable line; the accounting above still
                // holds.
            }
            Err(e) => {
                // Only a duplicate forged by the corruption may error.
                assert!(e.to_string().contains("duplicate"), "victim {victim}: {e}");
            }
        }
    }
}
