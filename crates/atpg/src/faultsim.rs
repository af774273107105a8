//! Serial-fault, parallel-pattern fault simulation with fault dropping.

use hlts_netlist::{GateId, GateKind, Netlist};

use crate::{Fault, FaultSite, Simulator};

/// One clock cycle's primary-input assignment: a 64-pattern word per
/// primary input, in the netlist's input order.
pub type PiAssign = Vec<u64>;

/// The recorded good-machine behavior of a test sequence.
#[derive(Debug, Clone)]
pub struct GoodTrace {
    /// Per cycle: value of every net after settling.
    values: Vec<Vec<u64>>,
    /// Per cycle: flip-flop state *before* the cycle's clock edge.
    states: Vec<Vec<u64>>,
    /// Per cycle: primary-output values.
    outputs: Vec<Vec<u64>>,
}

/// A serial-fault, 64-pattern-parallel fault simulator.
///
/// For each fault the faulty machine is re-simulated with the fault
/// injected, starting at the first cycle in which the fault site is
/// activated (before activation the faulty machine coincides with the
/// recorded good machine). A fault is *detected* when any primary
/// output differs from the good machine in any pattern of any cycle.
#[derive(Debug, Clone)]
pub struct FaultSimulator {
    sim: Simulator,
}

impl FaultSimulator {
    /// Wrap a netlist.
    #[must_use]
    pub fn new(nl: Netlist) -> Self {
        FaultSimulator {
            sim: Simulator::new(nl),
        }
    }

    /// The wrapped netlist.
    #[must_use]
    pub fn netlist(&self) -> &Netlist {
        self.sim.netlist()
    }

    /// Simulate the good machine over `seq` from reset, recording every
    /// net value per cycle.
    #[must_use]
    pub fn good_trace(&mut self, seq: &[PiAssign]) -> GoodTrace {
        self.sim.reset();
        let mut trace = GoodTrace {
            values: Vec::with_capacity(seq.len()),
            states: Vec::with_capacity(seq.len()),
            outputs: Vec::with_capacity(seq.len()),
        };
        for assign in seq {
            for (i, &v) in assign.iter().enumerate() {
                self.sim.set_input(i, v);
            }
            trace.states.push(self.sim.state().to_vec());
            self.sim.clock();
            trace.values.push(self.sim.values_snapshot());
            trace
                .outputs
                .push(self.outputs_from(trace.values.last().expect("pushed")));
        }
        trace
    }

    fn outputs_from(&self, values: &[u64]) -> Vec<u64> {
        self.sim
            .netlist()
            .outputs()
            .iter()
            .map(|(_, g)| values[g.index()])
            .collect()
    }

    /// Good value of the fault site in a recorded cycle.
    fn site_value(&self, values: &[u64], fault: Fault) -> u64 {
        match fault.site {
            FaultSite::Output(g) => values[g.index()],
            FaultSite::Input(g, pin) => {
                let src = self.sim.netlist().gates()[g.index()].inputs()[pin as usize];
                values[src.index()]
            }
        }
    }

    /// Whether `seq` (with its recorded `trace`) detects `fault`.
    #[must_use]
    pub fn detects(&self, trace: &GoodTrace, seq: &[PiAssign], fault: Fault) -> bool {
        let stuck = if fault.stuck { !0u64 } else { 0u64 };
        // First cycle in which the site carries a value different from
        // the stuck value — before that the machines coincide.
        let Some(first_active) =
            (0..seq.len()).find(|&c| self.site_value(&trace.values[c], fault) != stuck)
        else {
            return false;
        };
        let nl = self.sim.netlist();
        let n = nl.num_gates();
        let mut values = vec![0u64; n];
        let mut state = trace.states[first_active].clone();
        for (cycle, cycle_assign) in seq.iter().enumerate().skip(first_active) {
            // sources
            for (i, g) in nl.gates().iter().enumerate() {
                match g.kind() {
                    GateKind::Const1 => values[i] = !0,
                    GateKind::Const0 => values[i] = 0,
                    _ => {}
                }
            }
            for (i, &v) in cycle_assign.iter().enumerate() {
                values[nl.inputs()[i].index()] = v;
            }
            for (i, &q) in nl.dffs().iter().enumerate() {
                values[q.index()] = state[i];
            }
            // output faults on source nets inject immediately
            if let FaultSite::Output(g) = fault.site {
                let kind = nl.gates()[g.index()].kind();
                if matches!(
                    kind,
                    GateKind::Input | GateKind::Dff | GateKind::Const0 | GateKind::Const1
                ) {
                    values[g.index()] = stuck;
                }
            }
            // combinational evaluation with injection
            for &g in self.sim.order() {
                let gate = &nl.gates()[g.index()];
                let pin = match fault.site {
                    FaultSite::Input(fg, pin) if fg == g => usize::from(pin),
                    _ => usize::MAX,
                };
                let read = |k: usize, i: GateId| if k == pin { stuck } else { values[i.index()] };
                let n = gate.inputs().len();
                let mut v = if n <= 8 {
                    let mut ins = [0u64; 8];
                    for (k, &i) in gate.inputs().iter().enumerate() {
                        ins[k] = read(k, i);
                    }
                    gate.kind().eval(&ins[..n])
                } else {
                    let ins: Vec<u64> = gate
                        .inputs()
                        .iter()
                        .enumerate()
                        .map(|(k, &i)| read(k, i))
                        .collect();
                    gate.kind().eval(&ins)
                };
                if fault.site == FaultSite::Output(g) {
                    v = stuck;
                }
                values[g.index()] = v;
            }
            // compare primary outputs
            let good = &trace.outputs[cycle];
            let differs = nl
                .outputs()
                .iter()
                .zip(good)
                .any(|((_, g), &gv)| values[g.index()] != gv);
            if differs {
                return true;
            }
            // latch (with D-pin injection)
            for (i, &q) in nl.dffs().iter().enumerate() {
                let gate = &nl.gates()[q.index()];
                let d = gate.inputs()[0];
                let mut v = values[d.index()];
                if let FaultSite::Input(fg, 0) = fault.site {
                    if fg == q {
                        v = stuck;
                    }
                }
                state[i] = v;
            }
        }
        false
    }

    /// Fault-simulate `seq` against `faults`; `detected[i]` is updated
    /// to `true` for each newly detected fault (already-true entries are
    /// skipped — fault dropping). Returns how many new detections
    /// occurred.
    pub fn run(&mut self, seq: &[PiAssign], faults: &[Fault], detected: &mut [bool]) -> usize {
        let trace = self.good_trace(seq);
        let mut newly = 0;
        for (i, &f) in faults.iter().enumerate() {
            if detected[i] {
                continue;
            }
            if self.detects(&trace, seq, f) {
                detected[i] = true;
                newly += 1;
            }
        }
        newly
    }
}

impl Simulator {
    pub(crate) fn values_snapshot(&self) -> Vec<u64> {
        (0..self.netlist().num_gates())
            .map(|i| self.value(hlts_netlist::GateId::from_index(i)))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::FaultUniverse;

    /// Combinational AND with both inputs driven: every collapsed fault
    /// is detectable by exhaustive patterns.
    #[test]
    fn exhaustive_patterns_detect_all_and_faults() {
        let mut nl = Netlist::new();
        let a = nl.input("a");
        let b = nl.input("b");
        let x = nl.gate(GateKind::And, &[a, b]);
        nl.output("x", x);
        let universe = FaultUniverse::collapsed(&nl);
        let mut fs = FaultSimulator::new(nl);
        // patterns: bit0 = (0,0), bit1 = (0,1), bit2 = (1,0), bit3 = (1,1)
        let seq = vec![vec![0b1100u64, 0b1010u64]];
        let mut det = vec![false; universe.len()];
        let n = fs.run(&seq, universe.faults(), &mut det);
        assert_eq!(n, universe.len(), "{det:?}");
    }

    /// A fault on state-feedback logic needs multiple cycles.
    #[test]
    fn sequential_fault_needs_cycles() {
        // toggle flop observed at output; en stuck-at-0 stops toggling
        let mut nl = Netlist::new();
        let q = nl.dff("q");
        let en = nl.input("en");
        let d = nl.gate(GateKind::Xor, &[q, en]);
        nl.connect_dff(q, d);
        nl.output("q", q);
        let fault = Fault {
            site: FaultSite::Output(en),
            stuck: false,
        };
        let mut fs = FaultSimulator::new(nl);
        // one cycle with en=1: output still reads pre-clock q (0 both) —
        // not detected; after the clock the states diverge.
        let seq1 = vec![vec![1u64]];
        let trace1 = fs.good_trace(&seq1);
        assert!(!fs.detects(&trace1, &seq1, fault));
        // two cycles: second cycle observes the diverged state.
        let seq2 = vec![vec![1u64], vec![0u64]];
        let trace2 = fs.good_trace(&seq2);
        assert!(fs.detects(&trace2, &seq2, fault));
    }

    #[test]
    fn undetectable_without_activation() {
        let mut nl = Netlist::new();
        let a = nl.input("a");
        let b = nl.input("b");
        let x = nl.gate(GateKind::And, &[a, b]);
        nl.output("x", x);
        let fault = Fault {
            site: FaultSite::Output(x),
            stuck: false,
        };
        let mut fs = FaultSimulator::new(nl);
        // output is 0 anyway: sa0 never activated
        let seq = vec![vec![0u64, !0u64]];
        let trace = fs.good_trace(&seq);
        assert!(!fs.detects(&trace, &seq, fault));
    }

    #[test]
    fn fault_dropping_skips_detected() {
        let mut nl = Netlist::new();
        let a = nl.input("a");
        let x = nl.gate(GateKind::Not, &[a]);
        nl.output("x", x);
        let universe = FaultUniverse::collapsed(&nl);
        let mut fs = FaultSimulator::new(nl);
        let seq = vec![vec![0b01u64]];
        let mut det = vec![false; universe.len()];
        let first = fs.run(&seq, universe.faults(), &mut det);
        let second = fs.run(&seq, universe.faults(), &mut det);
        assert!(first > 0);
        assert_eq!(second, 0, "already-detected faults are dropped");
    }
}
