//! Shared helpers for the integration tests: a behavioral interpreter
//! for `Dfg`s and a protocol-driven netlist runner, used to check that
//! synthesized designs still compute their behavior, plus the set-up of
//! the PODEM tests (an elaborated paper-default design and the
//! deterministic phase's control presets), and the reference fault
//! simulator (`fsim_reference`).
#![allow(dead_code)] // each test binary uses a subset of these helpers

pub mod fsim_reference;

use std::collections::HashMap;

use hlts::dfg::{Dfg, OpKind, ValueKind};
use hlts::netlist::{GateKind, Netlist};
use hlts::sched::Schedule;

/// Evaluate the behavior over `bits`-wide two's-complement words.
/// `inputs` maps input names to values. Returns every non-condition
/// defined value (by name), masked to `bits`.
pub fn interpret(dfg: &Dfg, inputs: &HashMap<String, u64>, bits: u32) -> HashMap<String, u64> {
    let mask = if bits == 64 {
        !0u64
    } else {
        (1u64 << bits) - 1
    };
    let mut env: Vec<Option<u64>> = vec![None; dfg.num_values()];
    for v in dfg.values() {
        match v.kind() {
            ValueKind::Input => {
                env[v.id().index()] = Some(inputs.get(v.name()).copied().unwrap_or(0) & mask);
            }
            ValueKind::Const(x) => {
                env[v.id().index()] = Some((x as u64) & mask);
            }
            _ => {}
        }
    }
    for op in dfg.topo_order().expect("acyclic") {
        let op = dfg.op(op);
        let a = env[op.inputs()[0].index()].expect("operand ready");
        let b = op
            .inputs()
            .get(1)
            .map(|v| env[v.index()].expect("operand ready"));
        let r = match op.kind() {
            OpKind::Add => a.wrapping_add(b.unwrap()),
            OpKind::Sub => a.wrapping_sub(b.unwrap()),
            OpKind::Mul => a.wrapping_mul(b.unwrap()),
            OpKind::Lt => u64::from(a < b.unwrap()),
            OpKind::Gt => u64::from(a > b.unwrap()),
            OpKind::Eq => u64::from(a == b.unwrap()),
            OpKind::And => a & b.unwrap(),
            OpKind::Or => a | b.unwrap(),
            OpKind::Xor => a ^ b.unwrap(),
            OpKind::Not => !a,
            OpKind::Shl => a << 1,
            OpKind::Shr => a >> 1,
            _ => a,
        } & mask;
        if let Some(out) = op.output() {
            env[out.index()] = Some(r);
        }
    }
    dfg.values()
        .iter()
        .filter(|v| v.kind().is_output() && !v.is_condition())
        .map(|v| (v.name().to_owned(), env[v.id().index()].expect("computed")))
        .collect()
}

/// A one-pattern cycle simulator over a netlist.
pub struct ProtocolSim {
    nl: Netlist,
    order: Vec<hlts::netlist::GateId>,
    vals: Vec<u64>,
}

impl ProtocolSim {
    pub fn new(mut nl: Netlist) -> Self {
        let order = nl.topo_levels();
        let mut vals = vec![0u64; nl.num_gates()];
        for (i, g) in nl.gates().iter().enumerate() {
            if matches!(g.kind(), GateKind::Const1) {
                vals[i] = !0;
            }
        }
        ProtocolSim { nl, order, vals }
    }

    fn set(&mut self, name: &str, value: u64) {
        let id = self
            .nl
            .inputs()
            .iter()
            .copied()
            .find(|&g| self.nl.name(g) == Some(name))
            .unwrap_or_else(|| panic!("no input {name}"));
        self.vals[id.index()] = value;
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
        let next: Vec<(hlts::netlist::GateId, u64)> = self
            .nl
            .dffs()
            .iter()
            .map(|&q| (q, self.vals[self.nl.gate_at(q).inputs()[0].index()]))
            .collect();
        for (q, v) in next {
            self.vals[q.index()] = v;
        }
    }

    fn out_word(&mut self, base: &str, bits: u32) -> Option<u64> {
        self.settle();
        let mut v = 0u64;
        for i in 0..bits {
            let name = format!("{base}[{i}]");
            let g = self.nl.outputs().iter().find(|(n, _)| *n == name)?.1;
            v |= (self.vals[g.index()] & 1) << i;
        }
        Some(v)
    }
}

/// Drive the elaborated design through its schedule protocol (setup via
/// `ctrl_final`, then each step's control line) and collect every
/// output word *at its production time* (an output's register may be
/// time-shared afterwards).
pub fn run_protocol(
    dfg: &Dfg,
    schedule: &Schedule,
    nl: &Netlist,
    inputs: &HashMap<String, u64>,
    bits: u32,
) -> HashMap<String, u64> {
    let mut sim = ProtocolSim::new(nl.clone());
    for v in dfg.values() {
        if matches!(v.kind(), ValueKind::Input) {
            let val = inputs.get(v.name()).copied().unwrap_or(0);
            for i in 0..bits {
                sim.set(&format!("in_{}[{i}]", v.name()), ((val >> i) & 1) * !0u64);
            }
        }
    }
    // Production step (cycle index after which the value is latched):
    // cycle 0 = setup, cycle s+1 runs step s.
    let mut due: HashMap<usize, Vec<String>> = HashMap::new();
    for v in dfg.values() {
        if v.kind().is_output() && !v.is_condition() {
            let def = dfg.def_of(v.id()).expect("outputs are defined");
            due.entry(schedule.step_of(def) + 1)
                .or_default()
                .push(v.name().to_owned());
        }
    }
    let mut outs = HashMap::new();
    // cycle 0: setup
    sim.set("ctrl_final", !0u64);
    sim.clock();
    sim.set("ctrl_final", 0);
    for step in 0..schedule.num_steps() {
        let name = format!("ctrl_S{step}");
        sim.set(&name, !0u64);
        sim.clock();
        sim.set(&name, 0);
        if let Some(names) = due.get(&(step + 1)) {
            for n in names {
                if let Some(v) = sim.out_word(&format!("out_{n}"), bits) {
                    outs.insert(n.clone(), v);
                }
            }
        }
    }
    outs
}

/// Synthesize a behavior with the paper defaults and elaborate the
/// bound design at `bits`; also return its schedule length.
pub fn elaborated(dfg: &Dfg, bits: u32) -> (Netlist, usize) {
    let result =
        hlts::core::IntegratedSynthesizer::new(hlts::core::SynthesisParams::paper_defaults(bits))
            .run(dfg)
            .expect("synthesis succeeds");
    let etpn = hlts::etpn::Etpn::from_parts(&result.dfg, &result.schedule, &result.allocation)
        .expect("etpn builds");
    let nl = hlts::netlist::elaborate(
        &result.dfg,
        &result.schedule,
        &result.allocation,
        &etpn,
        bits,
    )
    .expect("elaboration succeeds");
    (nl, result.schedule.num_steps())
}

/// The deterministic phase's control presets, as `hlts-tcov` tries
/// them: preset `p` (for `p < min(3, walk length)`) drives control
/// input `ctrl[j]` high in frame `f` exactly when
/// `(f + p) % ctrl.len() == j`; every data input is free.
pub fn control_presets(nl: &Netlist, frames: usize) -> Vec<Vec<Vec<Option<bool>>>> {
    let ctrl = hlts::tcov::fsim::control_inputs(nl);
    let walk = ctrl.len().max(1);
    (0..walk.min(3))
        .map(|phase| {
            (0..frames)
                .map(|f| {
                    (0..nl.inputs().len())
                        .map(|i| {
                            ctrl.iter()
                                .position(|&c| c == i)
                                .map(|pos| (f + phase) % walk == pos)
                        })
                        .collect()
                })
                .collect()
        })
        .collect()
}

/// The deterministic phase's first control preset (phase 0).
pub fn phase0_preset(nl: &Netlist, frames: usize) -> Vec<Vec<Option<bool>>> {
    control_presets(nl, frames).swap_remove(0)
}
