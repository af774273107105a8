//! A reference fault simulator that shares no code with `hlts-atpg`'s
//! engine: it reads only `Netlist`'s public API and, for every fault,
//! simulates the whole faulty machine from reset — every gate in every
//! cycle, no skipping to the first activation, no recorded good trace
//! of the engine's. A fault is detected when a primary output differs
//! from the good machine's in some pattern of some cycle, outputs
//! compared before the clock edge.
//!
//! Fault semantics: a stuck output of an input, a constant or a
//! flip-flop is forced in every cycle; a stuck output of a gate
//! replaces what the gate computes; a stuck gate pin is what the gate
//! reads on that pin; a stuck flip-flop D pin is what the flip-flop
//! latches.
//!
//! Included by the root integration tests (through `tests/common`) and
//! by `hlts-tcov`'s conformance tests (by path), which is why it names
//! the `hlts-atpg` and `hlts-netlist` crates directly.
#![allow(dead_code)] // each test binary uses a subset of these helpers

use hlts_atpg::{Fault, FaultSite};
use hlts_netlist::{GateId, GateKind, Netlist};

/// Full-re-simulation fault simulator over one netlist.
pub struct ReferenceFsim {
    nl: Netlist,
    order: Vec<GateId>,
}

impl ReferenceFsim {
    pub fn new(mut nl: Netlist) -> Self {
        let order = nl.topo_levels();
        ReferenceFsim { nl, order }
    }

    /// Primary-output words of every cycle of `seq` from reset, with
    /// `fault` injected (the good machine for `None`).
    pub fn outputs(&self, seq: &[Vec<u64>], fault: Option<Fault>) -> Vec<Vec<u64>> {
        let mut outs = Vec::with_capacity(seq.len());
        self.simulate(seq, fault, |_, words| {
            outs.push(words.to_vec());
            false
        });
        outs
    }

    /// Whether `seq` detects `fault`, given the good machine's
    /// [`ReferenceFsim::outputs`] for `seq`.
    pub fn detects(&self, seq: &[Vec<u64>], good: &[Vec<u64>], fault: Fault) -> bool {
        self.simulate(seq, Some(fault), |c, words| words != good[c])
    }

    /// Simulate `seq` from reset with `fault` injected, handing every
    /// cycle's primary-output words (before the clock edge) to `stop`
    /// until it returns `true`; report whether it did. An input an
    /// assignment leaves out keeps its previous value (0 from reset).
    fn simulate(
        &self,
        seq: &[Vec<u64>],
        fault: Option<Fault>,
        mut stop: impl FnMut(usize, &[u64]) -> bool,
    ) -> bool {
        let nl = &self.nl;
        let stuck = |f: Fault| if f.stuck { !0u64 } else { 0 };
        let mut vals = vec![0u64; nl.num_gates()];
        for (i, g) in nl.gates().iter().enumerate() {
            if g.kind() == GateKind::Const1 {
                vals[i] = !0;
            }
        }
        let mut state = vec![0u64; nl.dffs().len()];
        let mut ins = Vec::new();
        let mut outs = Vec::with_capacity(nl.outputs().len());
        for (c, assign) in seq.iter().enumerate() {
            for (i, &v) in assign.iter().enumerate() {
                vals[nl.inputs()[i].index()] = v;
            }
            for (k, &q) in nl.dffs().iter().enumerate() {
                vals[q.index()] = state[k];
            }
            if let Some(
                f @ Fault {
                    site: FaultSite::Output(g),
                    ..
                },
            ) = fault
            {
                let source = matches!(
                    nl.gate_at(g).kind(),
                    GateKind::Input | GateKind::Dff | GateKind::Const0 | GateKind::Const1
                );
                if source {
                    vals[g.index()] = stuck(f);
                }
            }
            for &g in &self.order {
                let gate = nl.gate_at(g);
                ins.clear();
                ins.extend(gate.inputs().iter().enumerate().map(|(k, &i)| match fault {
                    Some(f) if f.site == FaultSite::Input(g, k as u8) => stuck(f),
                    _ => vals[i.index()],
                }));
                vals[g.index()] = match fault {
                    Some(f) if f.site == FaultSite::Output(g) => stuck(f),
                    _ => gate.kind().eval(&ins),
                };
            }
            outs.clear();
            outs.extend(nl.outputs().iter().map(|(_, g)| vals[g.index()]));
            if stop(c, &outs) {
                return true;
            }
            for (k, &q) in nl.dffs().iter().enumerate() {
                state[k] = match fault {
                    Some(f) if f.site == FaultSite::Input(q, 0) => stuck(f),
                    _ => vals[nl.gate_at(q).inputs()[0].index()],
                };
            }
        }
        false
    }

    /// Fault-simulate `seq` against every fault not yet `detected`,
    /// marking the new detections; returns how many there were.
    pub fn run(&self, seq: &[Vec<u64>], faults: &[Fault], detected: &mut [bool]) -> usize {
        let good = self.outputs(seq, None);
        let mut newly = 0;
        for (i, &f) in faults.iter().enumerate() {
            if !detected[i] && self.detects(seq, &good, f) {
                detected[i] = true;
                newly += 1;
            }
        }
        newly
    }
}
