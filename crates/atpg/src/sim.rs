//! Levelized 64-pattern-parallel cycle simulation.

use hlts_netlist::{GateId, GateKind, Netlist};

/// A two-valued, 64-pattern-parallel simulator for a [`Netlist`].
///
/// Bit `i` of every `u64` value carries pattern `i`. Flip-flops reset
/// to 0.
///
/// # Example
///
/// ```
/// use hlts_netlist::{GateKind, Netlist};
/// use hlts_atpg::Simulator;
///
/// let mut nl = Netlist::new();
/// let a = nl.input("a");
/// let b = nl.input("b");
/// let x = nl.gate(GateKind::And, &[a, b]);
/// nl.output("x", x);
/// let mut sim = Simulator::new(nl);
/// sim.set_input(0, 0b11);
/// sim.set_input(1, 0b10);
/// sim.settle();
/// assert_eq!(sim.outputs()[0] & 0b11, 0b10);
/// ```
#[derive(Debug, Clone)]
pub struct Simulator {
    nl: Netlist,
    order: Vec<GateId>,
    values: Vec<u64>,
    state: Vec<u64>,
}

impl Simulator {
    /// Wrap a netlist (computes the levelization once).
    #[must_use]
    pub fn new(mut nl: Netlist) -> Self {
        let order = nl.topo_levels();
        let n = nl.num_gates();
        let mut sim = Simulator {
            nl,
            order,
            values: vec![0u64; n],
            state: Vec::new(),
        };
        sim.state = vec![0u64; sim.nl.dffs().len()];
        sim.reset();
        sim
    }

    /// The underlying netlist.
    #[must_use]
    pub fn netlist(&self) -> &Netlist {
        &self.nl
    }

    /// Reset all flip-flops to 0 and clear values.
    pub fn reset(&mut self) {
        self.values.iter_mut().for_each(|v| *v = 0);
        self.state.iter_mut().for_each(|v| *v = 0);
        for (i, g) in self.nl.gates().iter().enumerate() {
            if matches!(g.kind(), GateKind::Const1) {
                self.values[i] = !0;
            }
        }
    }

    /// Set the `idx`-th primary input (creation order) for all 64
    /// patterns at once.
    pub fn set_input(&mut self, idx: usize, patterns: u64) {
        let g = self.nl.inputs()[idx];
        self.values[g.index()] = patterns;
    }

    /// Set a primary input by name. Returns whether the name exists.
    pub fn set_input_by_name(&mut self, name: &str, patterns: u64) -> bool {
        let found = self
            .nl
            .inputs()
            .iter()
            .copied()
            .find(|&g| self.nl.name(g) == Some(name));
        match found {
            Some(g) => {
                self.values[g.index()] = patterns;
                true
            }
            None => false,
        }
    }

    /// Propagate combinational logic with the current inputs and state.
    pub fn settle(&mut self) {
        // expose state on DFF outputs
        for (i, &q) in self.nl.dffs().iter().enumerate() {
            self.values[q.index()] = self.state[i];
        }
        for gi in 0..self.order.len() {
            let g = self.order[gi];
            let gate = &self.nl.gates()[g.index()];
            let mut ins = [0u64; 8];
            let n = gate.inputs().len();
            if n <= 8 {
                for (k, &inp) in gate.inputs().iter().enumerate() {
                    ins[k] = self.values[inp.index()];
                }
                self.values[g.index()] = gate.kind().eval(&ins[..n]);
            } else {
                let ins: Vec<u64> = gate
                    .inputs()
                    .iter()
                    .map(|&i| self.values[i.index()])
                    .collect();
                self.values[g.index()] = gate.kind().eval(&ins);
            }
        }
    }

    /// Settle, then latch every flip-flop (one clock cycle).
    pub fn clock(&mut self) {
        self.settle();
        for (i, &q) in self.nl.dffs().iter().enumerate() {
            let d = self.nl.gates()[q.index()].inputs()[0];
            self.state[i] = self.values[d.index()];
        }
    }

    /// Current primary-output values (after [`Simulator::settle`]).
    #[must_use]
    pub fn outputs(&self) -> Vec<u64> {
        self.nl
            .outputs()
            .iter()
            .map(|(_, g)| self.values[g.index()])
            .collect()
    }

    /// Current value of any net.
    #[must_use]
    pub fn value(&self, g: GateId) -> u64 {
        self.values[g.index()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn counter() -> Netlist {
        // 1-bit toggle: q.next = q ^ en
        let mut nl = Netlist::new();
        let q = nl.dff("q");
        let en = nl.input("en");
        let d = nl.gate(GateKind::Xor, &[q, en]);
        nl.connect_dff(q, d);
        nl.output("q", q);
        nl
    }

    #[test]
    fn toggle_counts() {
        let mut sim = Simulator::new(counter());
        sim.set_input(0, !0); // enable all patterns
        sim.settle();
        assert_eq!(sim.outputs()[0], 0);
        sim.clock();
        sim.settle();
        assert_eq!(sim.outputs()[0], !0);
        sim.clock();
        sim.settle();
        assert_eq!(sim.outputs()[0], 0);
    }

    #[test]
    fn patterns_are_independent() {
        let mut sim = Simulator::new(counter());
        sim.set_input(0, 0b01); // pattern 0 toggles, pattern 1 holds
        sim.clock();
        sim.settle();
        assert_eq!(sim.outputs()[0] & 0b11, 0b01);
    }

    #[test]
    fn reset_clears_state() {
        let mut sim = Simulator::new(counter());
        sim.set_input(0, !0);
        sim.clock();
        sim.reset();
        sim.set_input(0, 0);
        sim.settle();
        assert_eq!(sim.outputs()[0], 0);
    }

    #[test]
    fn set_input_by_name_works() {
        let mut sim = Simulator::new(counter());
        assert!(sim.set_input_by_name("en", 1));
        assert!(!sim.set_input_by_name("nope", 1));
    }
}
