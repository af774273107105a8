//! The paper's hardware-cost estimate over a floorplanned data path:
//! `H = Σ Area(V_i) + Σ Len(A_j) × Wid(A_j)`.

use hlts_etpn::{DataPath, DpNodeKind};

use crate::floorplan::{wire_len, with_placement};
use crate::ModuleLibrary;

/// Itemized hardware cost of a data path.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct CostBreakdown {
    /// Functional-unit area.
    pub modules: f64,
    /// Register area.
    pub registers: f64,
    /// Multiplexer area (2-to-1 equivalents at fan-in points).
    pub muxes: f64,
    /// Wiring area from the floorplan.
    pub wires: f64,
}

impl CostBreakdown {
    /// Total area `H`.
    #[must_use]
    pub fn total(&self) -> f64 {
        self.modules + self.registers + self.muxes + self.wires
    }
}

/// Estimate the hardware cost of `dp` at `bits` data width: floorplans
/// the data path and applies the paper's formula. Ports, constants and
/// condition outputs occupy no area (pads are not counted); their wires
/// are.
///
/// The placement is the one [`Floorplan::place`] computes, read straight
/// from the calling thread's reusable placer, so once that placer has
/// seen a data path this large the estimate allocates nothing.
///
/// [`Floorplan::place`]: crate::Floorplan::place
///
/// # Example
///
/// ```
/// use hlts_cost::{estimate_cost, ModuleLibrary};
/// use hlts_etpn::DataPath;
///
/// let lib = ModuleLibrary::new();
/// let empty = estimate_cost(&DataPath::new(), 8, &lib);
/// assert_eq!(empty.total(), 0.0);
/// ```
#[must_use]
pub fn estimate_cost(dp: &DataPath, bits: u32, lib: &ModuleLibrary) -> CostBreakdown {
    let mut cost = CostBreakdown::default();
    for node in dp.nodes() {
        match node.kind() {
            DpNodeKind::Module { kinds, .. } => {
                cost.modules += lib.fu_area(kinds, bits);
            }
            DpNodeKind::Register(_) => {
                cost.registers += lib.register_area(bits);
            }
            _ => {}
        }
    }
    cost.muxes = lib.mux_area(dp.mux_count(), bits);
    with_placement(dp, |pos| {
        for arc in dp.arcs() {
            // condition wires are single-bit
            let w = if matches!(dp.node(arc.to()).kind(), DpNodeKind::ConditionOut(_)) {
                1
            } else {
                bits
            };
            cost.wires += lib.wire_area(wire_len(pos, arc.from(), arc.to()), w);
        }
    });
    cost
}

#[cfg(test)]
mod tests {
    use super::*;
    use hlts_alloc::Allocation;
    use hlts_dfg::{Dfg, DfgBuilder, OpKind};
    use hlts_etpn::Etpn;
    use hlts_sched::{list_schedule, ListPriority};

    fn small() -> Dfg {
        let mut b = DfgBuilder::new("t");
        let a = b.input("a");
        let c = b.input("c");
        let t = b.op("N1", OpKind::Add, &[a, c], "t").unwrap();
        let y = b.op("N2", OpKind::Mul, &[t, c], "y").unwrap();
        b.mark_output(y);
        b.finish().unwrap()
    }

    fn lower(d: &Dfg, alloc: &Allocation) -> DataPath {
        let s = list_schedule(d, &alloc.conflict_groups(), ListPriority::CriticalPath).unwrap();
        Etpn::from_parts(d, &s, alloc).unwrap().data_path().clone()
    }

    #[test]
    fn cost_grows_with_bits() {
        let d = small();
        let alloc = Allocation::one_to_one(&d);
        let dp = lower(&d, &alloc);
        let lib = ModuleLibrary::new();
        let c4 = estimate_cost(&dp, 4, &lib).total();
        let c8 = estimate_cost(&dp, 8, &lib).total();
        let c16 = estimate_cost(&dp, 16, &lib).total();
        assert!(c4 < c8 && c8 < c16);
        // multiplier quadratic term: 16-bit more than 2x the 8-bit cost
        assert!(c16 > 2.0 * c8);
    }

    #[test]
    fn register_merging_reduces_cost() {
        let d = small();
        let alloc = Allocation::one_to_one(&d);
        let dp1 = lower(&d, &alloc);
        let lib = ModuleLibrary::new();
        let base = estimate_cost(&dp1, 8, &lib);

        let mut merged = Allocation::one_to_one(&d);
        let va = d.value_by_name("a").unwrap();
        let vy = d.value_by_name("y").unwrap();
        merged
            .merge_registers(
                merged.register_of(va).unwrap(),
                merged.register_of(vy).unwrap(),
            )
            .unwrap();
        let dp2 = lower(&d, &merged);
        let after = estimate_cost(&dp2, 8, &lib);
        assert!(after.registers < base.registers);
    }

    #[test]
    fn breakdown_sums_to_total() {
        let d = small();
        let alloc = Allocation::one_to_one(&d);
        let dp = lower(&d, &alloc);
        let lib = ModuleLibrary::new();
        let c = estimate_cost(&dp, 8, &lib);
        assert!((c.total() - (c.modules + c.registers + c.muxes + c.wires)).abs() < 1e-12);
        assert!(c.modules > 0.0 && c.registers > 0.0 && c.wires > 0.0);
    }

    #[test]
    fn condition_wires_are_single_bit() {
        let mut b = DfgBuilder::new("t");
        let a = b.input("a");
        let c = b.input("c");
        let _f = b.op("N1", OpKind::Lt, &[a, c], "f").unwrap();
        let d = b.finish().unwrap();
        let alloc = Allocation::one_to_one(&d);
        let dp = lower(&d, &alloc);
        let lib = ModuleLibrary::new();
        let w16 = estimate_cost(&dp, 16, &lib);
        let w4 = estimate_cost(&dp, 4, &lib);
        // wires scale less than 4x because the condition wire stays 1-bit
        assert!(w16.wires < 4.0 * w4.wires);
    }
}
