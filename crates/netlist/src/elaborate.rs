//! Elaboration of an allocated, scheduled data path into a flat gate
//! netlist.
//!
//! Mapping:
//!
//! * every control place becomes a **control primary input** (the paper
//!   assumes "the controller can be modified to support the test plan",
//!   so the test generator may drive the control state freely);
//! * every behavioral primary input becomes an input word, every
//!   constant a hardwired word;
//! * every register becomes a DFF word with a load enable (`next = en ?
//!   d : q`), where `en` is the OR of its incoming transfers' guard
//!   signals and `d` a guard-selected mux chain over the sources;
//! * every module becomes the gate network of each operation kind it
//!   hosts, with guard-selected input-port mux chains and a
//!   kind-selecting output mux chain (the ALU function select);
//! * primary outputs observe their register's Q word; condition outputs
//!   observe the comparator bit.

use std::collections::HashMap;
use std::error::Error;
use std::fmt;

use hlts_alloc::Allocation;
use hlts_dfg::{Dfg, OpKind};
use hlts_etpn::{DataPath, DpArc, DpNodeId, DpNodeKind, Etpn, PlaceId};
use hlts_sched::Schedule;

use crate::{GateId, GateKind, Netlist, WordBuilder};

/// Errors from elaboration.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum ElaborateError {
    /// A module depends combinationally on another module in a cycle
    /// (cannot happen for register-transfer data paths; defensive).
    CombinationalCycle(String),
    /// A node has no driver for a required port.
    MissingSource(String),
}

impl fmt::Display for ElaborateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ElaborateError::CombinationalCycle(s) => {
                write!(f, "combinational cycle through `{s}`")
            }
            ElaborateError::MissingSource(s) => write!(f, "no source drives `{s}`"),
        }
    }
}

impl Error for ElaborateError {}

/// Elaborate `etpn` (built from `dfg`, `schedule`, `allocation`) into a
/// gate netlist at the given data width.
///
/// # Errors
///
/// See [`ElaborateError`].
pub fn elaborate(
    dfg: &Dfg,
    schedule: &Schedule,
    allocation: &Allocation,
    etpn: &Etpn,
    bits: u32,
) -> Result<Netlist, ElaborateError> {
    elaborate_with(dfg, schedule, allocation, etpn, bits, false)
}

/// [`elaborate`] with an explicit output-strobe choice.
///
/// With `strobe_outputs` set, every data primary output is gated by the
/// final-state control signal (`out = q & ctrl_final`): the tester
/// observes results only when the schedule completes, as the paper's
/// designs do. Without it, register outputs are observable every cycle
/// (a per-cycle ATE strobe).
///
/// # Errors
///
/// See [`ElaborateError`].
pub fn elaborate_with(
    dfg: &Dfg,
    schedule: &Schedule,
    allocation: &Allocation,
    etpn: &Etpn,
    bits: u32,
    strobe_outputs: bool,
) -> Result<Netlist, ElaborateError> {
    let dp = etpn.data_path();
    let mut nl = Netlist::new();

    // 1. Control-step primary inputs, one per place used as a guard.
    let mut ctrl: HashMap<PlaceId, GateId> = HashMap::new();
    let mut guard_places: Vec<PlaceId> = dp
        .arcs()
        .iter()
        .flat_map(|a| a.guards().iter().copied())
        .collect();
    guard_places.sort();
    guard_places.dedup();
    for p in guard_places {
        let label = etpn.control().place_label(p).to_owned();
        ctrl.insert(p, nl.input(format!("ctrl_{label}")));
    }

    // Map control-step number -> control signal (place labels are "S<n>").
    let mut step_sig: HashMap<usize, GateId> = HashMap::new();
    for (&p, &sig) in &ctrl {
        let label = etpn.control().place_label(p);
        if let Some(s) = label
            .strip_prefix('S')
            .and_then(|x| x.parse::<usize>().ok())
        {
            step_sig.insert(s, sig);
        }
    }

    // 2. Source words per node, filled as nodes are built.
    let mut word: HashMap<DpNodeId, Vec<GateId>> = HashMap::new();
    let mut cond_bit: HashMap<DpNodeId, GateId> = HashMap::new();

    for node in dp.nodes() {
        match node.kind() {
            DpNodeKind::PrimaryInput(v) => {
                let w =
                    WordBuilder::input_word(&mut nl, &format!("in_{}", dfg.value(*v).name()), bits);
                word.insert(node.id(), w);
            }
            DpNodeKind::Const(v) => {
                let value = match dfg.value(*v).kind() {
                    hlts_dfg::ValueKind::Const(x) => x,
                    _ => 0,
                };
                let w = WordBuilder::new(&mut nl).const_word(value, bits);
                word.insert(node.id(), w);
            }
            DpNodeKind::Register(r) => {
                let w = WordBuilder::new(&mut nl).register(&format!("R{}", r.index()), bits);
                word.insert(node.id(), w);
            }
            _ => {}
        }
    }

    // 3. Modules in dependency order (module-to-module arcs are rare —
    //    conditions consumed as data — but handled).
    let modules = dp.module_nodes();
    let mut remaining: Vec<DpNodeId> = modules.clone();
    let guard_act = |nl: &mut Netlist, arc: &DpArc| -> GateId {
        let sigs: Vec<GateId> = arc.guards().iter().map(|p| ctrl[p]).collect();
        WordBuilder::new(nl).or_many(&sigs)
    };
    let mut rounds = 0usize;
    while !remaining.is_empty() {
        rounds += 1;
        if rounds > modules.len() + 1 {
            let stuck = dp.node(remaining[0]).label(dfg, allocation);
            return Err(ElaborateError::CombinationalCycle(stuck));
        }
        remaining.retain(|&m| {
            // buildable when all source nodes have words (or cond bits)
            let ready = dp.in_arc_ids(m).iter().all(|&a| {
                let from = dp.arc(a).from();
                word.contains_key(&from) || cond_bit.contains_key(&from)
            });
            if !ready {
                return true;
            }
            let (data, cond) = build_module(
                &mut nl, dfg, schedule, allocation, dp, m, &word, &cond_bit, &ctrl, &step_sig, bits,
            );
            if let Some(w) = data {
                word.insert(m, w);
            }
            if let Some(c) = cond {
                cond_bit.insert(m, c);
            }
            false
        });
    }

    // 4. Register D networks.
    for rn in dp.register_nodes() {
        let q = word[&rn].clone();
        let ins = dp.in_arc_ids(rn);
        if ins.is_empty() {
            // dead register: holds reset value
            let zero = {
                let mut wb = WordBuilder::new(&mut nl);
                wb.const_word(0, bits)
            };
            let en = nl.constant(false);
            WordBuilder::new(&mut nl).connect_register(&q, en, &zero);
            continue;
        }
        let mut acts = Vec::new();
        let mut d: Option<Vec<GateId>> = None;
        for &aid in ins {
            let arc = dp.arc(aid);
            let src = word
                .get(&arc.from())
                .cloned()
                .or_else(|| {
                    cond_bit
                        .get(&arc.from())
                        .map(|&c| expand_bit(&mut nl, c, bits))
                })
                .ok_or_else(|| {
                    ElaborateError::MissingSource(dp.node(arc.from()).label(dfg, allocation))
                })?;
            let act = guard_act(&mut nl, arc);
            acts.push(act);
            d = Some(match d {
                None => src,
                Some(prev) => WordBuilder::new(&mut nl).mux(act, &prev, &src),
            });
        }
        let en = WordBuilder::new(&mut nl).or_many(&acts);
        let d = d.expect("at least one source");
        WordBuilder::new(&mut nl).connect_register(&q, en, &d);
    }

    // 5. Observation points.
    for node in dp.nodes() {
        match node.kind() {
            DpNodeKind::PrimaryOutput(v) => {
                let src = dp
                    .in_arc_ids(node.id())
                    .first()
                    .map(|&a| dp.arc(a).from())
                    .ok_or_else(|| ElaborateError::MissingSource(node.label(dfg, allocation)))?;
                let w = word
                    .get(&src)
                    .cloned()
                    .ok_or_else(|| ElaborateError::MissingSource(node.label(dfg, allocation)))?;
                // The arc into the output port is guarded by the final
                // place; under strobing, gate the observation with it.
                let strobe = if strobe_outputs {
                    dp.in_arc_ids(node.id())
                        .first()
                        .and_then(|&a| dp.arc(a).guards().iter().next().copied())
                        .and_then(|p| ctrl.get(&p).copied())
                } else {
                    None
                };
                for (i, &g) in w.iter().enumerate() {
                    let tapped = match strobe {
                        Some(s) => nl.gate(GateKind::And, &[g, s]),
                        None => g,
                    };
                    nl.output(format!("out_{}[{i}]", dfg.value(*v).name()), tapped);
                }
            }
            DpNodeKind::ConditionOut(v) => {
                let src = dp
                    .in_arc_ids(node.id())
                    .first()
                    .map(|&a| dp.arc(a).from())
                    .ok_or_else(|| ElaborateError::MissingSource(node.label(dfg, allocation)))?;
                let c = cond_bit
                    .get(&src)
                    .copied()
                    .ok_or_else(|| ElaborateError::MissingSource(node.label(dfg, allocation)))?;
                nl.output(format!("cond_{}", dfg.value(*v).name()), c);
            }
            _ => {}
        }
    }

    Ok(nl)
}

fn expand_bit(nl: &mut Netlist, bit: GateId, bits: u32) -> Vec<GateId> {
    let zero = nl.constant(false);
    let mut w = vec![bit];
    w.extend(std::iter::repeat_n(zero, bits as usize - 1));
    w
}

/// Build one module: guard-selected port words, one result network per
/// hosted kind, kind-select output mux. Returns `(data word, condition
/// bit)` — either may be absent.
#[allow(clippy::too_many_arguments)]
fn build_module(
    nl: &mut Netlist,
    dfg: &Dfg,
    schedule: &Schedule,
    allocation: &Allocation,
    dp: &DataPath,
    m: DpNodeId,
    word: &HashMap<DpNodeId, Vec<GateId>>,
    cond_bit: &HashMap<DpNodeId, GateId>,
    ctrl: &HashMap<PlaceId, GateId>,
    step_sig: &HashMap<usize, GateId>,
    bits: u32,
) -> (Option<Vec<GateId>>, Option<GateId>) {
    let DpNodeKind::Module {
        id: module_id,
        kinds,
    } = dp.node(m).kind().clone()
    else {
        unreachable!("build_module called on non-module");
    };
    // Port words: mux chain over sources by guard activity.
    let ins = dp.in_arc_ids(m);
    let max_port = ins.iter().map(|&a| dp.arc(a).port()).max().unwrap_or(0);
    let mut ports: Vec<Vec<GateId>> = Vec::new();
    for p in 0..=max_port {
        let mut w: Option<Vec<GateId>> = None;
        for arc in ins.iter().map(|&a| dp.arc(a)).filter(|a| a.port() == p) {
            let src = word
                .get(&arc.from())
                .cloned()
                .or_else(|| cond_bit.get(&arc.from()).map(|&c| expand_bit(nl, c, bits)))
                .expect("module sources resolved before build");
            let sigs: Vec<GateId> = arc.guards().iter().map(|pl| ctrl[pl]).collect();
            let act = WordBuilder::new(nl).or_many(&sigs);
            w = Some(match w {
                None => src,
                Some(prev) => WordBuilder::new(nl).mux(act, &prev, &src),
            });
        }
        ports.push(w.unwrap_or_else(|| WordBuilder::new(nl).const_word(0, bits)));
    }

    // Which control steps run each kind on this module (the function
    // select of a multi-function ALU).
    let mut kind_act: HashMap<OpKind, Vec<GateId>> = HashMap::new();
    if let Some(module) = allocation.module(module_id) {
        for &op in module.ops() {
            let step = schedule.step_of(op);
            let kind = dfg.op(op).kind();
            if let Some(&sig) = step_sig.get(&step) {
                kind_act.entry(kind).or_default().push(sig);
            }
        }
    }
    let _ = ctrl;

    let mut data: Option<Vec<GateId>> = None;
    let mut cond: Option<GateId> = None;
    let mut sorted_kinds: Vec<OpKind> = kinds.iter().copied().collect();
    sorted_kinds.sort();
    for kind in sorted_kinds {
        let a = ports.first().cloned().unwrap_or_default();
        let b = ports.get(1).cloned();
        let mut wb = WordBuilder::new(nl);
        if kind.is_condition() {
            let b = b.clone().unwrap_or_else(|| a.clone());
            let c = match kind {
                OpKind::Lt => wb.lt(&a, &b),
                OpKind::Gt => wb.gt(&a, &b),
                _ => wb.eq(&a, &b),
            };
            cond = Some(match cond {
                None => c,
                Some(prev) => {
                    let acts = kind_act.get(&kind).cloned().unwrap_or_default();
                    let act = WordBuilder::new(nl).or_many(&acts);
                    nl.gate(GateKind::Mux, &[act, prev, c])
                }
            });
            continue;
        }
        let result = match kind {
            OpKind::Add => wb.add(&a, b.as_ref().expect("binary op")),
            OpKind::Sub => wb.sub(&a, b.as_ref().expect("binary op")),
            OpKind::Mul => wb.mul(&a, b.as_ref().expect("binary op")),
            OpKind::And => wb.bitwise(GateKind::And, &a, b.as_deref()),
            OpKind::Or => wb.bitwise(GateKind::Or, &a, b.as_deref()),
            OpKind::Xor => wb.bitwise(GateKind::Xor, &a, b.as_deref()),
            OpKind::Not => wb.bitwise(GateKind::Not, &a, None),
            OpKind::Shl => wb.shl(&a),
            OpKind::Shr => wb.shr(&a),
            OpKind::Mov => a.clone(),
            _ => a.clone(),
        };
        data = Some(match data {
            None => result,
            Some(prev) => {
                let acts = kind_act.get(&kind).cloned().unwrap_or_default();
                let act = WordBuilder::new(nl).or_many(&acts);
                WordBuilder::new(nl).mux(act, &prev, &result)
            }
        });
    }
    (data, cond)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hlts_dfg::DfgBuilder;
    use hlts_sched::{list_schedule, ListPriority};

    /// A tiny cycle-accurate simulator over one pattern (bit 0 of the
    /// 64-wide evaluation).
    struct Sim {
        nl: Netlist,
        vals: Vec<u64>,
        order: Vec<GateId>,
    }

    impl Sim {
        fn new(mut nl: Netlist) -> Self {
            let order = nl.topo_levels();
            let vals = vec![0u64; nl.num_gates()];
            let mut s = Sim { nl, vals, order };
            for (i, g) in s.nl.gates().iter().enumerate() {
                if matches!(g.kind(), GateKind::Const1) {
                    s.vals[i] = !0;
                }
            }
            s
        }

        fn set(&mut self, name: &str, value: bool) {
            let id = self
                .nl
                .inputs()
                .iter()
                .copied()
                .find(|&g| self.nl.name(g) == Some(name))
                .unwrap_or_else(|| panic!("no input {name}"));
            self.vals[id.index()] = if value { !0 } else { 0 };
        }

        fn set_word(&mut self, base: &str, value: u64, bits: u32) {
            for i in 0..bits {
                self.set(&format!("{base}[{i}]"), (value >> i) & 1 == 1);
            }
        }

        fn settle(&mut self) {
            for &g in &self.order.clone() {
                let ins: Vec<u64> = self
                    .nl
                    .gate_at(g)
                    .inputs()
                    .iter()
                    .map(|&i| self.vals[i.index()])
                    .collect();
                self.vals[g.index()] = self.nl.gate_at(g).kind().eval(&ins);
            }
        }

        fn clock(&mut self) {
            self.settle();
            let next: Vec<(GateId, u64)> = self
                .nl
                .dffs()
                .iter()
                .map(|&q| (q, self.vals[self.nl.gate_at(q).inputs()[0].index()]))
                .collect();
            for (q, v) in next {
                self.vals[q.index()] = v;
            }
        }

        fn out_word(&mut self, base: &str, bits: u32) -> u64 {
            self.settle();
            let mut v = 0u64;
            for i in 0..bits {
                let name = format!("{base}[{i}]");
                let g = self
                    .nl
                    .outputs()
                    .iter()
                    .find(|(n, _)| *n == name)
                    .unwrap_or_else(|| panic!("no output {name}"))
                    .1;
                v |= (self.vals[g.index()] & 1) << i;
            }
            v
        }
    }

    /// Build `(a + c) * c`, elaborate at 8 bits, and run the schedule
    /// protocol: setup (load a, c), S0 (add), S1 (mul); check the output.
    #[test]
    fn elaborated_netlist_computes_the_behavior() {
        let mut b = DfgBuilder::new("t");
        let a = b.input("a");
        let c = b.input("c");
        let t = b.op("N1", hlts_dfg::OpKind::Add, &[a, c], "t").unwrap();
        let y = b.op("N2", hlts_dfg::OpKind::Mul, &[t, c], "y").unwrap();
        b.mark_output(y);
        let _ = t;
        let dfg = b.finish().unwrap();
        let schedule = list_schedule(&dfg, &[], ListPriority::CriticalPath).unwrap();
        let allocation = Allocation::one_to_one(&dfg);
        let etpn = Etpn::from_parts(&dfg, &schedule, &allocation).unwrap();
        let nl = elaborate(&dfg, &schedule, &allocation, &etpn, 8).unwrap();
        assert!(nl.num_logic_gates() > 50, "multiplier should dominate");

        let mut sim = Sim::new(nl);
        sim.set_word("in_a", 7, 8);
        sim.set_word("in_c", 5, 8);
        // setup: latch inputs (final place doubles as setup)
        sim.set("ctrl_final", true);
        sim.clock();
        sim.set("ctrl_final", false);
        // S0: t = a + c
        sim.set("ctrl_S0", true);
        sim.clock();
        sim.set("ctrl_S0", false);
        // S1: y = t * c
        sim.set("ctrl_S1", true);
        sim.clock();
        sim.set("ctrl_S1", false);
        assert_eq!(sim.out_word("out_y", 8), (7 + 5) * 5);
    }

    /// With no control signal asserted, registers hold their state.
    #[test]
    fn idle_cycles_hold_state() {
        let mut b = DfgBuilder::new("t");
        let a = b.input("a");
        let c = b.input("c");
        let y = b.op("N1", hlts_dfg::OpKind::Add, &[a, c], "y").unwrap();
        b.mark_output(y);
        let dfg = b.finish().unwrap();
        let schedule = list_schedule(&dfg, &[], ListPriority::CriticalPath).unwrap();
        let allocation = Allocation::one_to_one(&dfg);
        let etpn = Etpn::from_parts(&dfg, &schedule, &allocation).unwrap();
        let nl = elaborate(&dfg, &schedule, &allocation, &etpn, 4).unwrap();
        let mut sim = Sim::new(nl);
        sim.set_word("in_a", 3, 4);
        sim.set_word("in_c", 4, 4);
        sim.set("ctrl_final", true);
        sim.clock();
        sim.set("ctrl_final", false);
        sim.set("ctrl_S0", true);
        sim.clock();
        sim.set("ctrl_S0", false);
        assert_eq!(sim.out_word("out_y", 4), 7);
        // idle clocks change nothing
        sim.clock();
        sim.clock();
        assert_eq!(sim.out_word("out_y", 4), 7);
    }

    /// A multi-function ALU selects its function by control step.
    #[test]
    fn shared_alu_function_select() {
        let mut b = DfgBuilder::new("t");
        let a = b.input("a");
        let c = b.input("c");
        let s = b.op("N1", hlts_dfg::OpKind::Add, &[a, c], "s").unwrap();
        let d = b.op("N2", hlts_dfg::OpKind::Sub, &[a, c], "d").unwrap();
        b.mark_output(s);
        b.mark_output(d);
        let dfg = b.finish().unwrap();
        let n1 = dfg.op_by_name("N1").unwrap();
        let n2 = dfg.op_by_name("N2").unwrap();
        let groups = vec![vec![n1, n2]];
        let schedule = list_schedule(&dfg, &groups, ListPriority::CriticalPath).unwrap();
        let mut allocation = Allocation::one_to_one(&dfg);
        allocation
            .merge_modules(&dfg, allocation.module_of(n1), allocation.module_of(n2))
            .unwrap();
        let etpn = Etpn::from_parts(&dfg, &schedule, &allocation).unwrap();
        let nl = elaborate(&dfg, &schedule, &allocation, &etpn, 8).unwrap();
        let mut sim = Sim::new(nl);
        sim.set_word("in_a", 9, 8);
        sim.set_word("in_c", 4, 8);
        sim.set("ctrl_final", true);
        sim.clock();
        sim.set("ctrl_final", false);
        let s0 = format!("ctrl_S{}", schedule.step_of(n1));
        let s1 = format!("ctrl_S{}", schedule.step_of(n2));
        sim.set(&s0, true);
        sim.clock();
        sim.set(&s0, false);
        sim.set(&s1, true);
        sim.clock();
        sim.set(&s1, false);
        assert_eq!(sim.out_word("out_s", 8), 13);
        assert_eq!(sim.out_word("out_d", 8), 5);
    }

    /// Comparator conditions are observable outputs.
    #[test]
    fn condition_output_observable() {
        let mut b = DfgBuilder::new("t");
        let a = b.input("a");
        let c = b.input("c");
        let _f = b.op("N1", hlts_dfg::OpKind::Lt, &[a, c], "f").unwrap();
        let dfg = b.finish().unwrap();
        let schedule = list_schedule(&dfg, &[], ListPriority::CriticalPath).unwrap();
        let allocation = Allocation::one_to_one(&dfg);
        let etpn = Etpn::from_parts(&dfg, &schedule, &allocation).unwrap();
        let nl = elaborate(&dfg, &schedule, &allocation, &etpn, 4).unwrap();
        assert!(nl.outputs().iter().any(|(n, _)| n == "cond_f"));
    }
}
