use std::fmt;

use crate::Sym;

/// Index of a [`Value`] inside its [`Dfg`](crate::Dfg).
///
/// Ids are dense (0..num_values) and stable for the lifetime of the graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct ValueId(pub(crate) u32);

impl ValueId {
    /// The dense index of this value.
    #[must_use]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Construct from a dense index.
    ///
    /// Mostly useful in tests and when iterating `0..dfg.num_values()`.
    #[must_use]
    pub fn from_index(index: usize) -> Self {
        ValueId(u32::try_from(index).expect("value index fits in u32"))
    }
}

impl fmt::Display for ValueId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "v{}", self.0)
    }
}

/// What role a value plays in the behavior.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum ValueKind {
    /// Primary input — externally controllable.
    Input,
    /// Primary output — externally observable. Defined by exactly one
    /// operation.
    Output,
    /// Internal variable — defined by exactly one operation, consumed by
    /// at least one.
    Intermediate,
    /// Compile-time constant with the given (untruncated) integer value.
    Const(i64),
}

impl ValueKind {
    /// Whether this value arrives from the environment.
    #[must_use]
    pub fn is_input(self) -> bool {
        matches!(self, ValueKind::Input)
    }

    /// Whether this value leaves to the environment.
    #[must_use]
    pub fn is_output(self) -> bool {
        matches!(self, ValueKind::Output)
    }

    /// Whether this value is a constant.
    #[must_use]
    pub fn is_const(self) -> bool {
        matches!(self, ValueKind::Const(_))
    }
}

/// A named value (variable) in the data-flow graph.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Value {
    pub(crate) id: ValueId,
    pub(crate) name: Sym,
    pub(crate) kind: ValueKind,
    /// `true` when the value is the 1-bit result of a relational operation
    /// and feeds the controller rather than the data path.
    pub(crate) condition: bool,
}

impl Value {
    /// The value's id.
    #[must_use]
    pub fn id(&self) -> ValueId {
        self.id
    }

    /// The source-level name (e.g. `"x1"`).
    #[must_use]
    pub fn name(&self) -> &str {
        self.name.as_str()
    }

    /// The interned name symbol.
    #[must_use]
    pub fn name_sym(&self) -> Sym {
        self.name
    }

    /// The value's role.
    #[must_use]
    pub fn kind(&self) -> ValueKind {
        self.kind
    }

    /// Whether this value is a 1-bit condition flag feeding the controller.
    #[must_use]
    pub fn is_condition(&self) -> bool {
        self.condition
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name.as_str())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn id_roundtrip() {
        let id = ValueId::from_index(17);
        assert_eq!(id.index(), 17);
        assert_eq!(id.to_string(), "v17");
    }

    #[test]
    fn kind_predicates() {
        assert!(ValueKind::Input.is_input());
        assert!(!ValueKind::Input.is_output());
        assert!(ValueKind::Output.is_output());
        assert!(ValueKind::Const(3).is_const());
        assert!(!ValueKind::Intermediate.is_const());
    }
}
