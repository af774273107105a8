//! Textual emission of a [`Dfg`] — the inverse of [`parse`](crate::parse).
//!
//! [`emit`] renders a graph back into the statement format the parser
//! consumes, preserving declaration order so that `parse(emit(g))`
//! reconstructs `g` *structurally identically*: same value ids, same
//! operation ids, same use lists, same loop-carried pairs. That
//! round-trip property is what lets generated workloads be saved to
//! disk, replayed through `hlts run`, and attached verbatim to
//! conformance-failure reports.
//!
//! Only the behavioral content round-trips. The precedence-arc overlay
//! (the scheduling constraints the synthesis algorithm appends) has no
//! textual form, so emitting a graph with a non-empty overlay is an
//! error rather than silent loss.

use std::fmt::Write as _;

use crate::{Dfg, DfgError, OpKind, ValueKind};

/// Names that cannot appear as the first operand of an expression:
/// the parser greedily strips these unary keywords, so a value with one
/// of these names would re-parse as a different operation.
const RESERVED_OPERANDS: [&str; 3] = ["shl", "shr", "mov"];

/// The parser's spelling of each binary operator.
fn binary_symbol(kind: OpKind) -> &'static str {
    match kind {
        OpKind::Eq => "==",
        // Every other binary kind's display symbol is its parse symbol.
        other => other.symbol(),
    }
}

fn check_ident(name: &str, what: &str) -> Result<(), DfgError> {
    let ok = !name.is_empty()
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '\'');
    if !ok {
        return Err(DfgError::Parse {
            line: 0,
            message: format!("cannot emit {what} `{name}`: not a valid identifier"),
        });
    }
    if RESERVED_OPERANDS.contains(&name) {
        return Err(DfgError::Parse {
            line: 0,
            message: format!("cannot emit {what} `{name}`: collides with a unary keyword"),
        });
    }
    Ok(())
}

/// Render `dfg` in the textual format accepted by [`parse`](crate::parse).
///
/// Declarations are emitted in value-id order (inputs and constants
/// interleaved with the operations that define the remaining values),
/// so re-parsing assigns every value and operation the id it holds in
/// `dfg` — the result compares equal under [`Dfg`]'s `PartialEq`.
///
/// # Errors
///
/// Returns [`DfgError::Parse`] (line 0) when the graph cannot be
/// represented in the textual format:
///
/// * a value, operation or graph name is not a valid identifier, or
///   collides with the `shl`/`shr`/`mov` unary keywords;
/// * the precedence-arc overlay is non-empty (merge constraints have
///   no textual form);
/// * an operation defines no output value (unreachable for graphs from
///   [`DfgBuilder`](crate::DfgBuilder) or the parser).
pub fn emit(dfg: &Dfg) -> Result<String, DfgError> {
    if !dfg.extra_precedence().is_empty() || !dfg.weak_precedence().is_empty() {
        return Err(DfgError::Parse {
            line: 0,
            message: format!(
                "cannot emit `{}`: {} precedence-overlay arc(s) have no textual form",
                dfg.name(),
                dfg.extra_precedence().len() + dfg.weak_precedence().len()
            ),
        });
    }
    check_ident(dfg.name(), "graph name")?;
    for v in dfg.values() {
        check_ident(v.name(), "value")?;
    }
    for op in dfg.ops() {
        check_ident(op.name(), "operation")?;
    }

    let mut out = String::new();
    let _ = writeln!(out, "dfg {} {{", dfg.name());

    // Walk values in id order: declarations and defining operations
    // interleave exactly as the original construction sequence did.
    for v in dfg.values() {
        match v.kind() {
            ValueKind::Input => {
                let _ = writeln!(out, "  input {};", v.name());
            }
            ValueKind::Const(c) => {
                let _ = writeln!(out, "  const {} = {c};", v.name());
            }
            _ => {
                let op_id = dfg.def_of(v.id()).ok_or_else(|| DfgError::Parse {
                    line: 0,
                    message: format!(
                        "cannot emit `{}`: value `{}` has no defining operation",
                        dfg.name(),
                        v.name()
                    ),
                })?;
                let op = dfg.op(op_id);
                if op.output() != Some(v.id()) {
                    return Err(DfgError::Parse {
                        line: 0,
                        message: format!(
                            "cannot emit `{}`: def/output mismatch on `{}`",
                            dfg.name(),
                            v.name()
                        ),
                    });
                }
                let operand = |i: usize| dfg.value(op.inputs()[i]).name();
                let expr = match op.kind() {
                    OpKind::Not => format!("~{}", operand(0)),
                    OpKind::Shl => format!("shl {}", operand(0)),
                    OpKind::Shr => format!("shr {}", operand(0)),
                    OpKind::Mov => format!("mov {}", operand(0)),
                    binary => {
                        format!("{} {} {}", operand(0), binary_symbol(binary), operand(1))
                    }
                };
                let _ = writeln!(out, "  {}: {} = {expr};", op.name(), v.name());
            }
        }
    }

    let outputs: Vec<&str> = dfg.outputs().map(|id| dfg.value(id).name()).collect();
    if !outputs.is_empty() {
        let _ = writeln!(out, "  output {};", outputs.join(", "));
    }
    for &(src, dst) in dfg.loop_carried() {
        let _ = writeln!(
            out,
            "  loop {} -> {};",
            dfg.value(src).name(),
            dfg.value(dst).name()
        );
    }
    out.push_str("}\n");
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{parse, DfgBuilder};

    fn roundtrip(src: &str) {
        let d = parse(src).unwrap();
        let text = emit(&d).unwrap();
        let d2 = parse(&text).unwrap();
        assert_eq!(d, d2, "round-trip changed the graph:\n{text}");
    }

    #[test]
    fn roundtrips_every_statement_form() {
        roundtrip(
            "dfg t { input a, b; const k = -3;
              N1: s = a + b; N2: d = a - b; N3: p = k * s;
              N4: l = a < b; N5: g = a > b; N6: e = a == b;
              N7: x = a & b; N8: y = a | b; N9: z = a ^ b;
              N10: n = ~x; N11: sl = shl y; N12: sr = shr z; N13: m = mov n;
              output p, m; loop p -> a; }",
        );
    }

    #[test]
    fn roundtrips_interleaved_declarations() {
        // An input declared after an operation keeps its value-id slot.
        roundtrip("dfg t { input a; N1: x = ~a; input b; N2: y = x + b; output y; }");
    }

    #[test]
    fn roundtrips_condition_and_unused_values() {
        roundtrip(
            "dfg t { input x, dx, u;
              N1: x1 = x + dx; N2: c = x1 < u;
              output x1; loop x1 -> x; }",
        );
    }

    #[test]
    fn eq_expression_survives() {
        let d = parse("dfg t { input a, b; N1: e = a == b; N2: s = a + b; output s; }").unwrap();
        let text = emit(&d).unwrap();
        assert!(text.contains("a == b"), "{text}");
        assert_eq!(parse(&text).unwrap(), d);
    }

    #[test]
    fn overlay_arcs_are_rejected() {
        let mut d = parse("dfg t { input a, b; N1: s = a + b; N2: p = s * b; output p; }").unwrap();
        let n1 = d.op_by_name("N1").unwrap();
        let n2 = d.op_by_name("N2").unwrap();
        d.add_precedence(n1, n2).unwrap();
        let e = emit(&d).unwrap_err();
        assert!(matches!(e, DfgError::Parse { .. }), "{e}");
        assert!(e.to_string().contains("precedence-overlay"), "{e}");
    }

    #[test]
    fn reserved_operand_names_are_rejected() {
        let mut b = DfgBuilder::new("t");
        let a = b.input("shl");
        let c = b.input("c");
        let y = b.op("N1", crate::OpKind::Add, &[a, c], "y").unwrap();
        b.mark_output(y);
        let d = b.finish().unwrap();
        let e = emit(&d).unwrap_err();
        assert!(e.to_string().contains("unary keyword"), "{e}");
    }

    #[test]
    fn emitted_text_is_stable() {
        let d = parse("dfg t { input a, b; N1: s = a + b; output s; }").unwrap();
        assert_eq!(emit(&d).unwrap(), emit(&d).unwrap());
    }
}
