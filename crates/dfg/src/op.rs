use std::fmt;

/// Kind of a data-flow operation.
///
/// The set covers what the DATE'98 benchmarks need (arithmetic, relational
/// and logic operations) plus `Mov` for plain copies.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
#[non_exhaustive]
pub enum OpKind {
    /// Two's-complement addition.
    Add,
    /// Two's-complement subtraction.
    Sub,
    /// Multiplication (array multiplier at the gate level).
    Mul,
    /// Signed less-than comparison; produces a 1-bit condition.
    Lt,
    /// Signed greater-than comparison; produces a 1-bit condition.
    Gt,
    /// Equality comparison; produces a 1-bit condition.
    Eq,
    /// Bitwise AND.
    And,
    /// Bitwise OR.
    Or,
    /// Bitwise XOR.
    Xor,
    /// Bitwise NOT (unary).
    Not,
    /// Logical shift left by one.
    Shl,
    /// Logical shift right by one.
    Shr,
    /// Copy (unary move / register transfer).
    Mov,
}

impl OpKind {
    /// Number of data inputs the operation consumes.
    #[must_use]
    pub fn arity(self) -> usize {
        match self {
            OpKind::Not | OpKind::Shl | OpKind::Shr | OpKind::Mov => 1,
            _ => 2,
        }
    }

    /// Whether the operation produces a 1-bit condition flag rather than a
    /// full data word.
    #[must_use]
    pub fn is_condition(self) -> bool {
        matches!(self, OpKind::Lt | OpKind::Gt | OpKind::Eq)
    }

    /// Whether the operation is commutative in its two data inputs.
    #[must_use]
    pub fn is_commutative(self) -> bool {
        matches!(
            self,
            OpKind::Add | OpKind::Mul | OpKind::And | OpKind::Or | OpKind::Xor | OpKind::Eq
        )
    }

    /// The functional-unit class able to execute this operation.
    #[must_use]
    pub fn fu_class(self) -> FuClass {
        match self {
            OpKind::Mul => FuClass::Multiplier,
            OpKind::Add | OpKind::Sub => FuClass::AddSub,
            OpKind::Lt | OpKind::Gt | OpKind::Eq => FuClass::Compare,
            OpKind::And | OpKind::Or | OpKind::Xor | OpKind::Not => FuClass::Logic,
            OpKind::Shl | OpKind::Shr => FuClass::Shift,
            OpKind::Mov => FuClass::Move,
        }
    }

    /// The paper's table notation for a module hosting this kind:
    /// `(*)`, `(+)`, `(-)`, `(<)` etc.
    #[must_use]
    pub fn symbol(self) -> &'static str {
        match self {
            OpKind::Add => "+",
            OpKind::Sub => "-",
            OpKind::Mul => "*",
            OpKind::Lt => "<",
            OpKind::Gt => ">",
            OpKind::Eq => "=",
            OpKind::And => "&",
            OpKind::Or => "|",
            OpKind::Xor => "^",
            OpKind::Not => "~",
            OpKind::Shl => "<<",
            OpKind::Shr => ">>",
            OpKind::Mov => "id",
        }
    }

    /// All operation kinds, for exhaustive iteration in tests and cost
    /// tables.
    #[must_use]
    pub fn all() -> &'static [OpKind] {
        &[
            OpKind::Add,
            OpKind::Sub,
            OpKind::Mul,
            OpKind::Lt,
            OpKind::Gt,
            OpKind::Eq,
            OpKind::And,
            OpKind::Or,
            OpKind::Xor,
            OpKind::Not,
            OpKind::Shl,
            OpKind::Shr,
            OpKind::Mov,
        ]
    }
}

impl fmt::Display for OpKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.symbol())
    }
}

/// Classes of functional units, used to decide which operations may share a
/// module.
///
/// Two operations are *module-compatible* when an economically sensible FU
/// exists that executes both. Following the paper's allocations (which share
/// `+`/`-` pairs on one ALU, keep multipliers separate, and fold comparisons
/// into the ALU when profitable), compatibility is:
///
/// * `Multiplier` only with `Multiplier`;
/// * `AddSub`, `Compare`, `Logic`, `Shift` and `Move` pairwise compatible
///   (an ALU covers all of them);
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
#[non_exhaustive]
pub enum FuClass {
    /// Hardware multiplier.
    Multiplier,
    /// Adder/subtractor.
    AddSub,
    /// Magnitude/equality comparator.
    Compare,
    /// Bitwise logic unit.
    Logic,
    /// Single-bit shifter.
    Shift,
    /// Pass-through / move unit.
    Move,
}

impl FuClass {
    /// Whether operations of the two classes may execute on one shared
    /// functional unit.
    #[must_use]
    pub fn compatible(self, other: FuClass) -> bool {
        match (self, other) {
            (FuClass::Multiplier, FuClass::Multiplier) => true,
            (FuClass::Multiplier, _) | (_, FuClass::Multiplier) => false,
            // Everything else is ALU-expressible.
            _ => true,
        }
    }
}

impl fmt::Display for FuClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            FuClass::Multiplier => "mult",
            FuClass::AddSub => "addsub",
            FuClass::Compare => "cmp",
            FuClass::Logic => "logic",
            FuClass::Shift => "shift",
            FuClass::Move => "move",
        };
        f.write_str(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arity_matches_kind() {
        assert_eq!(OpKind::Add.arity(), 2);
        assert_eq!(OpKind::Mul.arity(), 2);
        assert_eq!(OpKind::Not.arity(), 1);
        assert_eq!(OpKind::Mov.arity(), 1);
        assert_eq!(OpKind::Shl.arity(), 1);
    }

    #[test]
    fn conditions_are_relational() {
        for k in OpKind::all() {
            assert_eq!(
                k.is_condition(),
                matches!(k, OpKind::Lt | OpKind::Gt | OpKind::Eq),
                "{k:?}"
            );
        }
    }

    #[test]
    fn multiplier_is_isolated() {
        assert!(FuClass::Multiplier.compatible(FuClass::Multiplier));
        assert!(!FuClass::Multiplier.compatible(FuClass::AddSub));
        assert!(!FuClass::AddSub.compatible(FuClass::Multiplier));
        assert!(FuClass::AddSub.compatible(FuClass::Compare));
        assert!(FuClass::Logic.compatible(FuClass::Shift));
    }

    #[test]
    fn compatibility_is_symmetric() {
        let classes = [
            FuClass::Multiplier,
            FuClass::AddSub,
            FuClass::Compare,
            FuClass::Logic,
            FuClass::Shift,
            FuClass::Move,
        ];
        for &a in &classes {
            for &b in &classes {
                assert_eq!(a.compatible(b), b.compatible(a), "{a:?} vs {b:?}");
            }
        }
    }

    #[test]
    fn symbols_are_unique() {
        let mut seen = std::collections::HashSet::new();
        for k in OpKind::all() {
            assert!(seen.insert(k.symbol()), "duplicate symbol for {k:?}");
        }
    }

    #[test]
    fn commutativity() {
        assert!(OpKind::Add.is_commutative());
        assert!(OpKind::Mul.is_commutative());
        assert!(!OpKind::Sub.is_commutative());
        assert!(!OpKind::Lt.is_commutative());
    }
}
