//! GraphViz DOT export of the ETPN representation, for inspecting
//! synthesized data paths and control nets visually.

use std::fmt::Write as _;

use hlts_alloc::Allocation;
use hlts_dfg::Dfg;

use crate::{ControlNet, DataPath, DpNodeKind};

/// Render the data path as a GraphViz digraph: registers as boxes,
/// modules as trapezoid-ish records, ports as ellipses; each arc
/// labeled with its guarding control places. Node labels are built
/// from the `dfg` and `allocation` the path was lowered from.
///
/// # Example
///
/// ```
/// use hlts_alloc::Allocation;
/// use hlts_dfg::parse;
/// use hlts_etpn::{data_path_to_dot, DataPath};
///
/// let dfg = parse("dfg t { input a, b; N1: s = a + b; output s; }").unwrap();
/// let alloc = Allocation::one_to_one(&dfg);
/// let dot = data_path_to_dot(&DataPath::new(), &dfg, &alloc, "empty");
/// assert!(dot.starts_with("digraph empty"));
/// ```
#[must_use]
pub fn data_path_to_dot(dp: &DataPath, dfg: &Dfg, allocation: &Allocation, name: &str) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "digraph {name} {{");
    let _ = writeln!(out, "  rankdir=TB;");
    for node in dp.nodes() {
        let (shape, style) = match node.kind() {
            DpNodeKind::Register(_) => ("box", "filled"),
            DpNodeKind::Module { .. } => ("invtrapezium", "filled"),
            DpNodeKind::PrimaryInput(_) | DpNodeKind::PrimaryOutput(_) => ("ellipse", "solid"),
            DpNodeKind::Const(_) => ("diamond", "solid"),
            DpNodeKind::ConditionOut(_) => ("ellipse", "dashed"),
            // DpNodeKind is non-exhaustive for downstream crates only
            #[allow(unreachable_patterns)]
            _ => ("box", "solid"),
        };
        let _ = writeln!(
            out,
            "  n{} [label=\"{}\", shape={shape}, style={style}];",
            node.id().index(),
            node.label(dfg, allocation).replace('"', "'"),
        );
    }
    for arc in dp.arcs() {
        let guards: Vec<String> = arc.guards().iter().map(ToString::to_string).collect();
        let _ = writeln!(
            out,
            "  n{} -> n{} [label=\"p{} [{}]\"];",
            arc.from().index(),
            arc.to().index(),
            arc.port(),
            guards.join(","),
        );
    }
    let _ = writeln!(out, "}}");
    out
}

/// Render the control Petri net as a GraphViz digraph: places as
/// circles (doubled for initial/final), transitions as bars.
#[must_use]
pub fn control_to_dot(net: &ControlNet, name: &str) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "digraph {name} {{");
    let _ = writeln!(out, "  rankdir=LR;");
    for p in net.place_ids() {
        let shape = if net.initial_marking().contains(&p) || net.final_places().contains(&p) {
            "doublecircle"
        } else {
            "circle"
        };
        let _ = writeln!(
            out,
            "  {p} [label=\"{}\", shape={shape}];",
            net.place_label(p)
        );
    }
    for (t, inputs, outputs, guard) in net.transitions_view() {
        let label = match guard {
            Some((v, pol)) => format!("{t} [{}{v}]", if pol { "" } else { "!" }),
            None => t.to_string(),
        };
        let _ = writeln!(out, "  {t} [label=\"{label}\", shape=box, height=0.1];");
        for p in inputs {
            let _ = writeln!(out, "  {p} -> {t};");
        }
        for p in outputs {
            let _ = writeln!(out, "  {t} -> {p};");
        }
    }
    let _ = writeln!(out, "}}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use hlts_alloc::Allocation;
    use hlts_dfg::{DfgBuilder, OpKind};
    use hlts_sched::{list_schedule, ListPriority};

    #[test]
    fn data_path_dot_contains_nodes_and_arcs() {
        let mut b = DfgBuilder::new("t");
        let a = b.input("a");
        let c = b.input("c");
        let y = b.op("N1", OpKind::Add, &[a, c], "y").unwrap();
        b.mark_output(y);
        let d = b.finish().unwrap();
        let s = list_schedule(&d, &[], ListPriority::CriticalPath).unwrap();
        let alloc = Allocation::one_to_one(&d);
        let e = crate::Etpn::from_parts(&d, &s, &alloc).unwrap();
        let dot = data_path_to_dot(e.data_path(), &d, &alloc, "t");
        assert!(dot.contains("digraph t"));
        assert!(dot.contains("R{a}"));
        assert!(dot.contains("->"));
        assert!(dot.trim_end().ends_with('}'));
    }

    #[test]
    fn control_dot_marks_initial_and_final() {
        let (net, _) = ControlNet::linear(2);
        let dot = control_to_dot(&net, "ctl");
        assert!(dot.matches("doublecircle").count() >= 2);
        assert!(dot.contains("shape=box"));
    }
}
