use std::collections::BTreeSet;
use std::fmt;

use hlts_dfg::{Dfg, OpId, OpKind, ValueId};
use hlts_sched::{GroupSource, Lifetimes, Schedule};

use crate::AllocError;

/// Identifier of a [`Module`] (functional unit) inside an [`Allocation`].
///
/// Ids are stable across mergers: the surviving module keeps its id and the
/// absorbed one becomes a tombstone.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ModuleId(pub(crate) u32);

impl ModuleId {
    /// Dense index of the module slot.
    #[must_use]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Construct from a slot index.
    #[must_use]
    pub fn from_index(index: usize) -> Self {
        ModuleId(u32::try_from(index).expect("module index fits in u32"))
    }
}

impl fmt::Display for ModuleId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "m{}", self.0)
    }
}

/// Identifier of a [`Register`] inside an [`Allocation`]. Stable across
/// mergers like [`ModuleId`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RegisterId(pub(crate) u32);

impl RegisterId {
    /// Dense index of the register slot.
    #[must_use]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Construct from a slot index.
    #[must_use]
    pub fn from_index(index: usize) -> Self {
        RegisterId(u32::try_from(index).expect("register index fits in u32"))
    }
}

impl fmt::Display for RegisterId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "r{}", self.0)
    }
}

/// A functional unit hosting one or more operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Module {
    id: ModuleId,
    ops: Vec<OpId>,
}

impl Module {
    /// The module's id.
    #[must_use]
    pub fn id(&self) -> ModuleId {
        self.id
    }

    /// Operations executing on this unit, in merge order.
    #[must_use]
    pub fn ops(&self) -> &[OpId] {
        &self.ops
    }

    /// The set of operation kinds this unit must support.
    #[must_use]
    pub fn kinds(&self, dfg: &Dfg) -> BTreeSet<OpKind> {
        // Inserted one by one: one allocation, where `collect` would
        // first buffer the kinds in a `Vec`.
        let mut kinds = BTreeSet::new();
        for &o in &self.ops {
            kinds.insert(dfg.op(o).kind());
        }
        kinds
    }
}

/// A storage unit hosting one or more values with disjoint lifetimes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Register {
    id: RegisterId,
    values: Vec<ValueId>,
}

impl Register {
    /// The register's id.
    #[must_use]
    pub fn id(&self) -> RegisterId {
        self.id
    }

    /// Values stored in this register, in merge order.
    #[must_use]
    pub fn values(&self) -> &[ValueId] {
        &self.values
    }
}

/// Whether `value` occupies a data-path register at all (constants are
/// hardwired; condition flags feed the controller).
#[must_use]
pub(crate) fn needs_register(dfg: &Dfg, value: ValueId) -> bool {
    let v = dfg.value(value);
    !v.kind().is_const() && !v.is_condition()
}

/// The binding state of a design: operations to modules, values to
/// registers.
///
/// Created one-to-one (the paper's "default allocation generated by the
/// VHDL compiler which assumes that each operation instance ... is mapped
/// into an individual data path node") and compacted by
/// [`merge_modules`](Allocation::merge_modules) /
/// [`merge_registers`](Allocation::merge_registers) transformations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Allocation {
    modules: Vec<Option<Module>>,
    registers: Vec<Option<Register>>,
    module_of: Vec<ModuleId>,
    register_of: Vec<Option<RegisterId>>,
}

impl Allocation {
    /// The default allocation: one module per operation, one register per
    /// register-occupying value.
    #[must_use]
    pub fn one_to_one(dfg: &Dfg) -> Self {
        let mut modules = Vec::with_capacity(dfg.num_ops());
        let mut module_of = Vec::with_capacity(dfg.num_ops());
        for op in dfg.ops() {
            let id = ModuleId::from_index(modules.len());
            modules.push(Some(Module {
                id,
                ops: vec![op.id()],
            }));
            module_of.push(id);
        }
        let mut registers = Vec::new();
        let mut register_of = vec![None; dfg.num_values()];
        for v in dfg.values() {
            if needs_register(dfg, v.id()) {
                let id = RegisterId::from_index(registers.len());
                registers.push(Some(Register {
                    id,
                    values: vec![v.id()],
                }));
                register_of[v.id().index()] = Some(id);
            }
        }
        Allocation {
            modules,
            registers,
            module_of,
            register_of,
        }
    }

    /// Build an allocation from explicit groups: `module_groups` partitions
    /// all operations, `register_groups` partitions all register-occupying
    /// values. Used by the baseline allocators.
    ///
    /// # Errors
    ///
    /// [`AllocError::InvalidId`] when the groups do not partition the
    /// graph's operations/values, [`AllocError::IncompatibleModules`] when
    /// a module group mixes incompatible kinds, and
    /// [`AllocError::NeedsNoRegister`] when a register group contains a
    /// constant or condition value.
    pub fn from_groups(
        dfg: &Dfg,
        module_groups: &[Vec<OpId>],
        register_groups: &[Vec<ValueId>],
    ) -> Result<Self, AllocError> {
        let mut modules = Vec::new();
        let mut module_of = vec![ModuleId(u32::MAX); dfg.num_ops()];
        for group in module_groups {
            if group.is_empty() {
                continue;
            }
            let id = ModuleId::from_index(modules.len());
            for (i, &a) in group.iter().enumerate() {
                for &b in &group[i + 1..] {
                    let ka = dfg.op(a).kind().fu_class();
                    let kb = dfg.op(b).kind().fu_class();
                    if !ka.compatible(kb) {
                        return Err(AllocError::IncompatibleModules {
                            a: dfg.op(a).name().to_owned(),
                            b: dfg.op(b).name().to_owned(),
                        });
                    }
                }
            }
            for &o in group {
                if module_of[o.index()] != ModuleId(u32::MAX) {
                    return Err(AllocError::InvalidId(format!(
                        "op `{}` in two module groups",
                        dfg.op(o).name()
                    )));
                }
                module_of[o.index()] = id;
            }
            modules.push(Some(Module {
                id,
                ops: group.clone(),
            }));
        }
        if let Some(i) = module_of.iter().position(|&m| m == ModuleId(u32::MAX)) {
            return Err(AllocError::InvalidId(format!(
                "op `{}` not covered by module groups",
                dfg.op(OpId::from_index(i)).name()
            )));
        }

        let mut registers = Vec::new();
        let mut register_of = vec![None; dfg.num_values()];
        for group in register_groups {
            if group.is_empty() {
                continue;
            }
            let id = RegisterId::from_index(registers.len());
            for &v in group {
                if !needs_register(dfg, v) {
                    return Err(AllocError::NeedsNoRegister(dfg.value(v).name().to_owned()));
                }
                if register_of[v.index()].is_some() {
                    return Err(AllocError::InvalidId(format!(
                        "value `{}` in two register groups",
                        dfg.value(v).name()
                    )));
                }
                register_of[v.index()] = Some(id);
            }
            registers.push(Some(Register {
                id,
                values: group.clone(),
            }));
        }
        for v in dfg.values() {
            if needs_register(dfg, v.id()) && register_of[v.id().index()].is_none() {
                return Err(AllocError::InvalidId(format!(
                    "value `{}` not covered by register groups",
                    v.name()
                )));
            }
        }
        Ok(Allocation {
            modules,
            registers,
            module_of,
            register_of,
        })
    }

    /// A 64-bit fingerprint of the binding **partition**: which
    /// operations share a module and which values share a register.
    /// Canonical per-group representatives (the smallest member index)
    /// make the hash invariant to merge order and id renumbering, so
    /// two bindings hash equal iff they group identically — used to key
    /// the ΔE/ΔH evaluation cache in `hlts-core`.
    #[must_use]
    pub fn content_hash(&self) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut mix = |x: u64| {
            for b in x.to_le_bytes() {
                h ^= u64::from(b);
                h = h.wrapping_mul(0x100_0000_01b3);
            }
        };
        mix(self.module_of.len() as u64);
        for m in &self.module_of {
            let rep = self.modules[m.index()]
                .as_ref()
                .and_then(|g| g.ops.iter().map(|o| o.index()).min())
                .unwrap_or(usize::MAX);
            mix(rep as u64);
        }
        mix(self.register_of.len() as u64);
        for r in &self.register_of {
            let rep = match r {
                None => u64::MAX,
                Some(r) => self.registers[r.index()]
                    .as_ref()
                    .and_then(|g| g.values.iter().map(|v| v.index()).min())
                    .map_or(u64::MAX - 1, |v| v as u64),
            };
            mix(rep);
        }
        h
    }

    /// Whether this allocation was built over a graph of the same shape
    /// (operation and value counts) as `dfg`. ETPN lowering and cost
    /// estimation check this before indexing.
    #[must_use]
    pub fn covers(&self, dfg: &Dfg) -> bool {
        self.module_of.len() == dfg.num_ops() && self.register_of.len() == dfg.num_values()
    }

    /// Number of live (non-merged-away) modules.
    #[must_use]
    pub fn num_modules(&self) -> usize {
        self.modules.iter().flatten().count()
    }

    /// Number of live registers.
    #[must_use]
    pub fn num_registers(&self) -> usize {
        self.registers.iter().flatten().count()
    }

    /// Iterate over live modules in id order.
    pub fn modules(&self) -> impl Iterator<Item = &Module> {
        self.modules.iter().flatten()
    }

    /// Iterate over live registers in id order.
    pub fn registers(&self) -> impl Iterator<Item = &Register> {
        self.registers.iter().flatten()
    }

    /// The module hosting `op`.
    #[must_use]
    pub fn module_of(&self, op: OpId) -> ModuleId {
        self.module_of[op.index()]
    }

    /// The register holding `value` (`None` for constants/conditions).
    #[must_use]
    pub fn register_of(&self, value: ValueId) -> Option<RegisterId> {
        self.register_of[value.index()]
    }

    /// Access a live module by id.
    #[must_use]
    pub fn module(&self, id: ModuleId) -> Option<&Module> {
        self.modules.get(id.index()).and_then(Option::as_ref)
    }

    /// Access a live register by id.
    #[must_use]
    pub fn register(&self, id: RegisterId) -> Option<&Register> {
        self.registers.get(id.index()).and_then(Option::as_ref)
    }

    /// Merge module `b` into module `a` (the paper's *merger*
    /// transformation on operation nodes). All operations of `b` move to
    /// `a`; `b`'s id becomes a tombstone.
    ///
    /// # Errors
    ///
    /// * [`AllocError::InvalidId`] if either id is stale or `a == b`;
    /// * [`AllocError::IncompatibleModules`] if no shared functional unit
    ///   can execute both operation sets.
    pub fn merge_modules(
        &mut self,
        dfg: &Dfg,
        a: ModuleId,
        b: ModuleId,
    ) -> Result<ModuleId, AllocError> {
        self.merge_modules_journaled(dfg, a, b).map(|u| u.a)
    }

    /// [`Allocation::merge_modules`] returning an undo record for the
    /// synthesis transaction journal. Undo records must be applied in
    /// reverse merge order (LIFO) via [`Allocation::undo_module_merge`];
    /// doing so restores the binding bit-identically.
    ///
    /// # Errors
    ///
    /// As for [`Allocation::merge_modules`].
    pub fn merge_modules_journaled(
        &mut self,
        dfg: &Dfg,
        a: ModuleId,
        b: ModuleId,
    ) -> Result<ModuleMergeUndo, AllocError> {
        if a == b {
            return Err(AllocError::InvalidId(format!("merge {a} with itself")));
        }
        let (ma, mb) = match (self.module(a), self.module(b)) {
            (Some(x), Some(y)) => (x, y),
            _ => return Err(AllocError::InvalidId(format!("{a} or {b} is stale"))),
        };
        for &oa in &ma.ops {
            for &ob in &mb.ops {
                if !dfg
                    .op(oa)
                    .kind()
                    .fu_class()
                    .compatible(dfg.op(ob).kind().fu_class())
                {
                    return Err(AllocError::IncompatibleModules {
                        a: dfg.op(oa).name().to_owned(),
                        b: dfg.op(ob).name().to_owned(),
                    });
                }
            }
        }
        let mut spare = self.modules[b.index()].take().expect("checked live above");
        for &o in &spare.ops {
            self.module_of[o.index()] = a;
        }
        let host = self.modules[a.index()]
            .as_mut()
            .expect("checked live above");
        let kept = host.ops.len();
        host.ops.extend_from_slice(&spare.ops);
        // The undo record keeps the absorbed module (roster emptied, capacity
        // retained) so that merge/undo cycles reuse its buffer.
        spare.ops.clear();
        Ok(ModuleMergeUndo { a, kept, spare })
    }

    /// Undo a module merger recorded by
    /// [`Allocation::merge_modules_journaled`]: the absorbed operations
    /// return (in order) to a revived module `b` and the host shrinks
    /// back to its pre-merge roster.
    ///
    /// # Panics
    ///
    /// Panics if the record is applied out of LIFO order — the host is
    /// no longer live, the tombstone was reused, or the host's roster
    /// shrank below its pre-merge size.
    pub fn undo_module_merge(&mut self, undo: ModuleMergeUndo) {
        let ModuleMergeUndo { a, kept, mut spare } = undo;
        let b = spare.id;
        assert!(
            self.modules[b.index()].is_none(),
            "module-merge undo out of order: {b} is live"
        );
        let host = self.modules[a.index()]
            .as_mut()
            .unwrap_or_else(|| panic!("module-merge undo out of order: {a} is dead"));
        assert!(
            host.ops.len() >= kept,
            "module-merge undo out of order: {a} shrank below its pre-merge roster"
        );
        spare.ops.extend(host.ops.drain(kept..));
        for &o in &spare.ops {
            self.module_of[o.index()] = b;
        }
        self.modules[b.index()] = Some(spare);
    }

    /// Merge register `b` into register `a` (the merger transformation on
    /// storage nodes). Lifetime disjointness is *not* checked here — the
    /// synthesis algorithm establishes it by rescheduling first; use
    /// [`Allocation::merge_registers_checked`] when a schedule is fixed.
    ///
    /// # Errors
    ///
    /// [`AllocError::InvalidId`] if either id is stale or `a == b`.
    pub fn merge_registers(
        &mut self,
        a: RegisterId,
        b: RegisterId,
    ) -> Result<RegisterId, AllocError> {
        self.merge_registers_journaled(a, b).map(|u| u.a)
    }

    /// [`Allocation::merge_registers`] returning an undo record for the
    /// synthesis transaction journal. Undo records must be applied in
    /// reverse merge order (LIFO) via
    /// [`Allocation::undo_register_merge`]; doing so restores the
    /// binding bit-identically.
    ///
    /// # Errors
    ///
    /// As for [`Allocation::merge_registers`].
    pub fn merge_registers_journaled(
        &mut self,
        a: RegisterId,
        b: RegisterId,
    ) -> Result<RegisterMergeUndo, AllocError> {
        if a == b {
            return Err(AllocError::InvalidId(format!("merge {a} with itself")));
        }
        if self.register(a).is_none() || self.register(b).is_none() {
            return Err(AllocError::InvalidId(format!("{a} or {b} is stale")));
        }
        let mut spare = self.registers[b.index()]
            .take()
            .expect("checked live above");
        for &v in &spare.values {
            self.register_of[v.index()] = Some(a);
        }
        let host = self.registers[a.index()]
            .as_mut()
            .expect("checked live above");
        let kept = host.values.len();
        host.values.extend_from_slice(&spare.values);
        // As for modules: the emptied register rides in the undo record so
        // its buffer is reused on rollback.
        spare.values.clear();
        Ok(RegisterMergeUndo { a, kept, spare })
    }

    /// Undo a register merger recorded by
    /// [`Allocation::merge_registers_journaled`]: the absorbed values
    /// return (in order) to a revived register `b` and the host shrinks
    /// back to its pre-merge contents.
    ///
    /// # Panics
    ///
    /// Panics if the record is applied out of LIFO order — the host is
    /// no longer live, the tombstone was reused, or the host shrank
    /// below its pre-merge size.
    pub fn undo_register_merge(&mut self, undo: RegisterMergeUndo) {
        let RegisterMergeUndo { a, kept, mut spare } = undo;
        let b = spare.id;
        assert!(
            self.registers[b.index()].is_none(),
            "register-merge undo out of order: {b} is live"
        );
        let host = self.registers[a.index()]
            .as_mut()
            .unwrap_or_else(|| panic!("register-merge undo out of order: {a} is dead"));
        assert!(
            host.values.len() >= kept,
            "register-merge undo out of order: {a} shrank below its pre-merge contents"
        );
        spare.values.extend(host.values.drain(kept..));
        for &v in &spare.values {
            self.register_of[v.index()] = Some(b);
        }
        self.registers[b.index()] = Some(spare);
    }

    /// Like [`Allocation::merge_registers`] but verifies lifetime
    /// disjointness of every cross pair first.
    ///
    /// # Errors
    ///
    /// [`AllocError::LifetimeOverlap`] naming the first overlapping pair,
    /// or any error from [`Allocation::merge_registers`].
    pub fn merge_registers_checked(
        &mut self,
        dfg: &Dfg,
        lifetimes: &Lifetimes,
        a: RegisterId,
        b: RegisterId,
    ) -> Result<RegisterId, AllocError> {
        let (ra, rb) = match (self.register(a), self.register(b)) {
            (Some(x), Some(y)) => (x, y),
            _ => return Err(AllocError::InvalidId(format!("{a} or {b} is stale"))),
        };
        for &va in &ra.values {
            for &vb in &rb.values {
                if !lifetimes.disjoint(va, vb) {
                    return Err(AllocError::LifetimeOverlap {
                        a: dfg.value(va).name().to_owned(),
                        b: dfg.value(vb).name().to_owned(),
                    });
                }
            }
        }
        self.merge_registers(a, b)
    }

    /// Conflict groups for the scheduler: the operation sets of all
    /// modules hosting more than one operation.
    ///
    /// Allocates a fresh `Vec<Vec<OpId>>` per call; hot paths should pass
    /// the allocation itself as a [`GroupSource`] instead, which hands the
    /// scheduler the module rosters as borrowed slices.
    #[must_use]
    pub fn conflict_groups(&self) -> Vec<Vec<OpId>> {
        self.modules()
            .filter(|m| m.ops.len() > 1)
            .map(|m| m.ops.clone())
            .collect()
    }

    /// Count 2-to-1 multiplexer equivalents in the structural data path:
    /// every module input port and register input with `s > 1` distinct
    /// sources needs `s - 1` two-way muxes.
    #[must_use]
    pub fn mux_count(&self, dfg: &Dfg) -> usize {
        let mut total = 0usize;
        // Module input ports.
        for m in self.modules() {
            let max_arity = m
                .ops
                .iter()
                .map(|&o| dfg.op(o).inputs().len())
                .max()
                .unwrap_or(0);
            for port in 0..max_arity {
                let mut sources: BTreeSet<String> = BTreeSet::new();
                for &o in &m.ops {
                    if let Some(&v) = dfg.op(o).inputs().get(port) {
                        sources.insert(self.source_key(dfg, v));
                    }
                }
                total += sources.len().saturating_sub(1);
            }
        }
        // Register inputs: distinct producing modules (input values arrive
        // from their port; loop-carried updates arrive from the producing
        // module of the paired source).
        for r in self.registers() {
            let mut sources: BTreeSet<String> = BTreeSet::new();
            for &v in &r.values {
                match dfg.def_of(v) {
                    Some(op) => {
                        sources.insert(format!("m{}", self.module_of(op).index()));
                    }
                    None => {
                        sources.insert(format!("pi:{}", dfg.value(v).name()));
                    }
                }
            }
            total += sources.len().saturating_sub(1);
        }
        total
    }

    fn source_key(&self, dfg: &Dfg, v: ValueId) -> String {
        match self.register_of(v) {
            Some(r) => format!("r{}", r.index()),
            None => format!("k:{}", dfg.value(v).name()),
        }
    }

    /// Count register–module self-loops: a register that both feeds a
    /// module and is written by it. Self-loops are the structures
    /// connectivity-driven allocation creates and testability-driven
    /// allocation avoids (the paper's §3 motivation).
    #[must_use]
    pub fn self_loops(&self, dfg: &Dfg) -> usize {
        let mut count = 0usize;
        for m in self.modules() {
            let mut reads: BTreeSet<RegisterId> = BTreeSet::new();
            let mut writes: BTreeSet<RegisterId> = BTreeSet::new();
            for &o in &m.ops {
                for &v in dfg.op(o).inputs() {
                    if let Some(r) = self.register_of(v) {
                        reads.insert(r);
                    }
                }
                if let Some(v) = dfg.op(o).output() {
                    if let Some(r) = self.register_of(v) {
                        writes.insert(r);
                    }
                }
            }
            count += reads.intersection(&writes).count();
        }
        count
    }

    /// Full legality check against a schedule and its lifetimes.
    ///
    /// # Errors
    ///
    /// [`AllocError::StepConflict`] or [`AllocError::LifetimeOverlap`]
    /// naming the first violation.
    pub fn validate(
        &self,
        dfg: &Dfg,
        schedule: &Schedule,
        lifetimes: &Lifetimes,
    ) -> Result<(), AllocError> {
        for m in self.modules() {
            for (i, &a) in m.ops.iter().enumerate() {
                for &b in &m.ops[i + 1..] {
                    if schedule.step_of(a) == schedule.step_of(b) {
                        return Err(AllocError::StepConflict {
                            a: dfg.op(a).name().to_owned(),
                            b: dfg.op(b).name().to_owned(),
                            step: schedule.step_of(a),
                        });
                    }
                }
            }
        }
        for r in self.registers() {
            for (i, &a) in r.values.iter().enumerate() {
                for &b in &r.values[i + 1..] {
                    if !lifetimes.disjoint(a, b) {
                        return Err(AllocError::LifetimeOverlap {
                            a: dfg.value(a).name().to_owned(),
                            b: dfg.value(b).name().to_owned(),
                        });
                    }
                }
            }
        }
        Ok(())
    }

    /// Render the binding in the paper's table style, e.g.
    /// `(*): N21, N24` per module and `R: a, c, x` per register.
    #[must_use]
    pub fn render(&self, dfg: &Dfg) -> String {
        let mut out = String::new();
        for m in self.modules() {
            let kinds = m.kinds(dfg);
            let syms: Vec<&str> = kinds.iter().map(|k| k.symbol()).collect();
            let names: Vec<&str> = m.ops.iter().map(|&o| dfg.op(o).name()).collect();
            out.push_str(&format!("({}): {}\n", syms.join(""), names.join(", ")));
        }
        for r in self.registers() {
            let names: Vec<&str> = r.values.iter().map(|&v| dfg.value(v).name()).collect();
            out.push_str(&format!("R: {}\n", names.join(", ")));
        }
        out
    }
}

/// The allocation *is* a conflict-group source: each module hosting more
/// than one operation contributes its roster, in module-slot order —
/// exactly the groups [`Allocation::conflict_groups`] materializes, but
/// borrowed straight from the binding tables with no per-call allocation.
impl GroupSource for Allocation {
    fn num_groups(&self) -> usize {
        self.modules().filter(|m| m.ops.len() > 1).count()
    }

    fn for_each_group(&self, mut f: impl FnMut(usize, &[OpId])) {
        let mut gi = 0usize;
        for m in self.modules() {
            if m.ops.len() > 1 {
                f(gi, &m.ops);
                gi += 1;
            }
        }
    }
}

/// Undo record of one module merger: the absorbed module was merged into
/// `a`, whose roster held `kept` operations beforehand. The record owns
/// the absorbed module with its roster emptied (capacity retained), so a
/// merge/undo cycle moves no heap memory. Produced by
/// [`Allocation::merge_modules_journaled`], consumed (LIFO) by
/// [`Allocation::undo_module_merge`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ModuleMergeUndo {
    pub(crate) a: ModuleId,
    kept: usize,
    spare: Module,
}

impl ModuleMergeUndo {
    /// Id of the absorbed module this record revives on undo.
    #[must_use]
    pub fn absorbed(&self) -> ModuleId {
        self.spare.id
    }
}

/// Undo record of one register merger: the absorbed register was merged
/// into `a`, which held `kept` values beforehand. The record owns the
/// absorbed register with its contents emptied (capacity retained), so a
/// merge/undo cycle moves no heap memory. Produced by
/// [`Allocation::merge_registers_journaled`], consumed (LIFO) by
/// [`Allocation::undo_register_merge`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RegisterMergeUndo {
    pub(crate) a: RegisterId,
    kept: usize,
    spare: Register,
}

impl RegisterMergeUndo {
    /// Id of the absorbed register this record revives on undo.
    #[must_use]
    pub fn absorbed(&self) -> RegisterId {
        self.spare.id
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hlts_dfg::DfgBuilder;
    use hlts_sched::{list_schedule, ListPriority};

    /// a,b inputs; four ops: two adds, one mul, one sub.
    fn fixture() -> Dfg {
        let mut b = DfgBuilder::new("t");
        let a = b.input("a");
        let c = b.input("c");
        let t1 = b.op("N1", OpKind::Add, &[a, c], "t1").unwrap();
        let t2 = b.op("N2", OpKind::Add, &[a, t1], "t2").unwrap();
        let t3 = b.op("N3", OpKind::Mul, &[t1, t2], "t3").unwrap();
        let y = b.op("N4", OpKind::Sub, &[t3, c], "y").unwrap();
        b.mark_output(y);
        b.finish().unwrap()
    }

    #[test]
    fn one_to_one_shape() {
        let d = fixture();
        let a = Allocation::one_to_one(&d);
        assert_eq!(a.num_modules(), 4);
        // values: a, c, t1, t2, t3, y — all data values get registers
        assert_eq!(a.num_registers(), 6);
        assert!(a.conflict_groups().is_empty());
    }

    #[test]
    fn merge_modules_moves_ops() {
        let d = fixture();
        let mut a = Allocation::one_to_one(&d);
        let n1 = d.op_by_name("N1").unwrap();
        let n2 = d.op_by_name("N2").unwrap();
        let (m1, m2) = (a.module_of(n1), a.module_of(n2));
        let survivor = a.merge_modules(&d, m1, m2).unwrap();
        assert_eq!(survivor, m1);
        assert_eq!(a.num_modules(), 3);
        assert_eq!(a.module_of(n2), m1);
        assert_eq!(a.module(m1).unwrap().ops().len(), 2);
        assert!(a.module(m2).is_none());
    }

    #[test]
    fn merge_incompatible_rejected() {
        let d = fixture();
        let mut a = Allocation::one_to_one(&d);
        let n1 = d.op_by_name("N1").unwrap(); // add
        let n3 = d.op_by_name("N3").unwrap(); // mul
        let e = a
            .merge_modules(&d, a.module_of(n1), a.module_of(n3))
            .unwrap_err();
        assert!(matches!(e, AllocError::IncompatibleModules { .. }));
        assert_eq!(a.num_modules(), 4, "failed merge must not mutate");
    }

    #[test]
    fn stale_and_self_merges_rejected() {
        let d = fixture();
        let mut a = Allocation::one_to_one(&d);
        let n1 = d.op_by_name("N1").unwrap();
        let n2 = d.op_by_name("N2").unwrap();
        let (m1, m2) = (a.module_of(n1), a.module_of(n2));
        a.merge_modules(&d, m1, m2).unwrap();
        assert!(a.merge_modules(&d, m1, m2).is_err()); // m2 stale
        assert!(a.merge_modules(&d, m1, m1).is_err()); // self
    }

    #[test]
    fn merge_registers_checked_catches_overlap() {
        let d = fixture();
        let s = list_schedule(&d, &[], ListPriority::CriticalPath).unwrap();
        let lt = Lifetimes::compute(&d, &s);
        let mut a = Allocation::one_to_one(&d);
        let va = d.value_by_name("a").unwrap();
        let vc = d.value_by_name("c").unwrap();
        // both inputs live from step 0: overlap
        let (ra, rc) = (a.register_of(va).unwrap(), a.register_of(vc).unwrap());
        assert!(matches!(
            a.merge_registers_checked(&d, &lt, ra, rc),
            Err(AllocError::LifetimeOverlap { .. })
        ));
        // a (dies step 1) and t3 (born step 3) are disjoint
        let vt3 = d.value_by_name("t3").unwrap();
        let rt3 = a.register_of(vt3).unwrap();
        a.merge_registers_checked(&d, &lt, ra, rt3).unwrap();
        assert_eq!(a.register_of(vt3), Some(ra));
    }

    #[test]
    fn validate_detects_step_conflict() {
        let d = fixture();
        let mut a = Allocation::one_to_one(&d);
        let n1 = d.op_by_name("N1").unwrap();
        let n2 = d.op_by_name("N2").unwrap();
        a.merge_modules(&d, a.module_of(n1), a.module_of(n2))
            .unwrap();
        // schedule ignoring the group: N1,N2 end up in dependence order,
        // so steps differ — validate passes.
        let s = list_schedule(&d, &a.conflict_groups(), ListPriority::CriticalPath).unwrap();
        let lt = Lifetimes::compute(&d, &s);
        a.validate(&d, &s, &lt).unwrap();
    }

    #[test]
    fn from_groups_roundtrip() {
        let d = fixture();
        let n: Vec<OpId> = d.ops().iter().map(|o| o.id()).collect();
        let v = |name: &str| d.value_by_name(name).unwrap();
        let alloc = Allocation::from_groups(
            &d,
            &[vec![n[0], n[1]], vec![n[2]], vec![n[3]]],
            &[
                vec![v("a")],
                vec![v("c")],
                vec![v("t1"), v("t3")],
                vec![v("t2"), v("y")],
            ],
        )
        .unwrap();
        assert_eq!(alloc.num_modules(), 3);
        assert_eq!(alloc.num_registers(), 4);
    }

    #[test]
    fn from_groups_requires_partition() {
        let d = fixture();
        let n: Vec<OpId> = d.ops().iter().map(|o| o.id()).collect();
        let e = Allocation::from_groups(&d, &[vec![n[0], n[1]]], &[]).unwrap_err();
        assert!(matches!(e, AllocError::InvalidId(_)));
    }

    #[test]
    fn mux_count_grows_with_sharing() {
        let d = fixture();
        let mut a = Allocation::one_to_one(&d);
        let base = a.mux_count(&d);
        let n1 = d.op_by_name("N1").unwrap();
        let n2 = d.op_by_name("N2").unwrap();
        a.merge_modules(&d, a.module_of(n1), a.module_of(n2))
            .unwrap();
        // N1 reads (a,c), N2 reads (a,t1): port 1 now has two sources.
        assert!(a.mux_count(&d) > base);
    }

    #[test]
    fn self_loop_detection() {
        let d = fixture();
        let mut a = Allocation::one_to_one(&d);
        // Merge t1 (output of N1) and a (input of N1) into one register:
        // module of N1 then reads and writes the same register.
        let va = d.value_by_name("a").unwrap();
        let vt1 = d.value_by_name("t1").unwrap();
        let (ra, rt1) = (a.register_of(va).unwrap(), a.register_of(vt1).unwrap());
        assert_eq!(a.self_loops(&d), 0);
        a.merge_registers(ra, rt1).unwrap();
        assert!(a.self_loops(&d) >= 1);
    }

    #[test]
    fn module_merge_undo_restores_bit_identically() {
        let d = fixture();
        let mut a = Allocation::one_to_one(&d);
        let before = a.clone();
        let n1 = d.op_by_name("N1").unwrap();
        let n2 = d.op_by_name("N2").unwrap();
        let undo = a
            .merge_modules_journaled(&d, a.module_of(n1), a.module_of(n2))
            .unwrap();
        assert_ne!(a, before);
        a.undo_module_merge(undo);
        assert_eq!(a, before);
        assert_eq!(a.content_hash(), before.content_hash());
    }

    #[test]
    fn register_merge_undo_restores_bit_identically() {
        let d = fixture();
        let mut a = Allocation::one_to_one(&d);
        let before = a.clone();
        let va = d.value_by_name("a").unwrap();
        let vt3 = d.value_by_name("t3").unwrap();
        let (ra, rt3) = (a.register_of(va).unwrap(), a.register_of(vt3).unwrap());
        let undo = a.merge_registers_journaled(ra, rt3).unwrap();
        assert_ne!(a, before);
        a.undo_register_merge(undo);
        assert_eq!(a, before);
        assert_eq!(a.content_hash(), before.content_hash());
    }

    #[test]
    fn stacked_merges_undo_in_lifo_order() {
        let d = fixture();
        let mut a = Allocation::one_to_one(&d);
        let before = a.clone();
        let n1 = d.op_by_name("N1").unwrap();
        let n2 = d.op_by_name("N2").unwrap();
        let n4 = d.op_by_name("N4").unwrap();
        let u1 = a
            .merge_modules_journaled(&d, a.module_of(n1), a.module_of(n2))
            .unwrap();
        let u2 = a
            .merge_modules_journaled(&d, a.module_of(n1), a.module_of(n4))
            .unwrap();
        a.undo_module_merge(u2);
        a.undo_module_merge(u1);
        assert_eq!(a, before);
    }

    #[test]
    fn group_source_view_matches_conflict_groups() {
        let d = fixture();
        let mut a = Allocation::one_to_one(&d);
        let n1 = d.op_by_name("N1").unwrap();
        let n2 = d.op_by_name("N2").unwrap();
        a.merge_modules(&d, a.module_of(n1), a.module_of(n2))
            .unwrap();
        let owned = a.conflict_groups();
        assert_eq!(GroupSource::num_groups(&a), owned.len());
        let mut seen: Vec<(usize, Vec<OpId>)> = Vec::new();
        a.for_each_group(|gi, g| seen.push((gi, g.to_vec())));
        let expect: Vec<(usize, Vec<OpId>)> = owned.into_iter().enumerate().collect();
        assert_eq!(seen, expect);
    }

    #[test]
    fn undo_record_reuses_absorbed_buffer() {
        let d = fixture();
        let mut a = Allocation::one_to_one(&d);
        let before = a.clone();
        let n1 = d.op_by_name("N1").unwrap();
        let n2 = d.op_by_name("N2").unwrap();
        let (m1, m2) = (a.module_of(n1), a.module_of(n2));
        let undo = a.merge_modules_journaled(&d, m1, m2).unwrap();
        assert_eq!(undo.absorbed(), m2);
        a.undo_module_merge(undo);
        assert_eq!(a, before);
    }

    #[test]
    fn render_paper_style() {
        let d = fixture();
        let mut a = Allocation::one_to_one(&d);
        let n1 = d.op_by_name("N1").unwrap();
        let n2 = d.op_by_name("N2").unwrap();
        a.merge_modules(&d, a.module_of(n1), a.module_of(n2))
            .unwrap();
        let r = a.render(&d);
        assert!(r.contains("(+): N1, N2"), "{r}");
        assert!(r.contains("R: a"), "{r}");
    }
}
