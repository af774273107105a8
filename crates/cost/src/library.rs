//! The module library: area parameters per operation kind and bit width.

use std::collections::BTreeSet;

use hlts_dfg::{FuClass, OpKind};

/// Area parameters for data-path components.
///
/// All areas are in abstract units (≈ mm² for a mid-1990s process, to
/// keep the paper's reported magnitudes recognizable). Functional units
/// scale linearly with bit width except the array multiplier, which
/// scales quadratically.
#[derive(Debug, Clone, PartialEq)]
pub struct ModuleLibrary {
    /// Register area per bit.
    pub register_per_bit: f64,
    /// Ripple adder/subtractor area per bit.
    pub addsub_per_bit: f64,
    /// Extra per-bit area when one unit supports both add and sub (or
    /// more ALU functions).
    pub alu_extra_per_bit: f64,
    /// Array multiplier area per bit².
    pub mul_per_bit2: f64,
    /// Comparator area per bit.
    pub cmp_per_bit: f64,
    /// Logic unit area per bit.
    pub logic_per_bit: f64,
    /// Shifter area per bit.
    pub shift_per_bit: f64,
    /// 2-to-1 multiplexer area per bit.
    pub mux_per_bit: f64,
    /// Wire area per grid-unit length per bit.
    pub wire_per_unit_bit: f64,
}

impl Default for ModuleLibrary {
    fn default() -> Self {
        ModuleLibrary {
            register_per_bit: 0.0045,
            addsub_per_bit: 0.006,
            alu_extra_per_bit: 0.002,
            mul_per_bit2: 0.002,
            cmp_per_bit: 0.004,
            logic_per_bit: 0.003,
            shift_per_bit: 0.002,
            mux_per_bit: 0.001,
            // wires are a fine-grained tie-breaking term: small enough not
            // to drown the component areas in floorplan noise
            wire_per_unit_bit: 0.00005,
        }
    }
}

impl ModuleLibrary {
    /// The default 1990s-calibrated library.
    #[must_use]
    pub fn new() -> Self {
        ModuleLibrary::default()
    }

    /// Area of a functional unit supporting the given operation kinds at
    /// `bits` data width. Multi-function ALUs pay the dominant function
    /// plus an upgrade term per extra supported class.
    #[must_use]
    pub fn fu_area(&self, kinds: &BTreeSet<OpKind>, bits: u32) -> f64 {
        let b = f64::from(bits);
        // The maximum over the kinds' classes; a class repeated by
        // several kinds cannot change it, so no class set is built.
        let mut area: f64 = 0.0;
        for class in kinds.iter().map(|k| k.fu_class()) {
            area = area.max(match class {
                FuClass::Multiplier => self.mul_per_bit2 * b * b,
                FuClass::AddSub => self.addsub_per_bit * b,
                FuClass::Compare => self.cmp_per_bit * b,
                FuClass::Logic => self.logic_per_bit * b,
                FuClass::Shift => self.shift_per_bit * b,
                FuClass::Move => 0.0,
                // future classes: price like an ALU slice
                _ => self.addsub_per_bit * b,
            });
        }
        // distinct operations beyond the first on one unit cost control
        // and datapath upgrades (e.g. add+sub ALU, added comparator mode)
        let extra = kinds.len().saturating_sub(1) as f64;
        area + extra * self.alu_extra_per_bit * b
    }

    /// Area of one register at `bits` width.
    #[must_use]
    pub fn register_area(&self, bits: u32) -> f64 {
        self.register_per_bit * f64::from(bits)
    }

    /// Area of `n` 2-to-1 multiplexer equivalents at `bits` width.
    #[must_use]
    pub fn mux_area(&self, n: usize, bits: u32) -> f64 {
        self.mux_per_bit * f64::from(bits) * n as f64
    }

    /// Wire area of a connection of `len` grid units at `bits` width
    /// (the paper's `Len(A_j) × Wid(A_j)` with the width factor folded
    /// in).
    #[must_use]
    pub fn wire_area(&self, len: f64, bits: u32) -> f64 {
        self.wire_per_unit_bit * f64::from(bits) * len
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn multiplier_scales_quadratically() {
        let lib = ModuleLibrary::new();
        let mul = BTreeSet::from([OpKind::Mul]);
        let a4 = lib.fu_area(&mul, 4);
        let a8 = lib.fu_area(&mul, 8);
        let a16 = lib.fu_area(&mul, 16);
        assert!((a8 / a4 - 4.0).abs() < 1e-9);
        assert!((a16 / a8 - 4.0).abs() < 1e-9);
    }

    #[test]
    fn adder_scales_linearly() {
        let lib = ModuleLibrary::new();
        let add = BTreeSet::from([OpKind::Add]);
        assert!((lib.fu_area(&add, 16) / lib.fu_area(&add, 4) - 4.0).abs() < 1e-9);
    }

    #[test]
    fn alu_costs_more_than_adder() {
        let lib = ModuleLibrary::new();
        let add = BTreeSet::from([OpKind::Add]);
        let addsub = BTreeSet::from([OpKind::Add, OpKind::Sub]);
        assert!(lib.fu_area(&addsub, 8) > lib.fu_area(&add, 8));
    }

    #[test]
    fn multiplier_dominates_16bit_register_file() {
        // at 16 bits one multiplier outweighs several registers —
        // matching the paper's area profile where 16-bit areas are
        // multiplier-dominated
        let lib = ModuleLibrary::new();
        let mul = BTreeSet::from([OpKind::Mul]);
        assert!(lib.fu_area(&mul, 16) > 7.0 * lib.register_area(16));
    }

    #[test]
    fn mux_and_wire_scale_with_count_and_length() {
        let lib = ModuleLibrary::new();
        assert!((lib.mux_area(4, 8) - 4.0 * lib.mux_area(1, 8)).abs() < 1e-12);
        assert!((lib.wire_area(10.0, 8) - 10.0 * lib.wire_area(1.0, 8)).abs() < 1e-12);
    }
}
