use std::collections::{BTreeMap, HashMap};
use std::fmt;
use std::mem;
use std::sync::Arc;

use crate::{scratch, DfgError, OpKind, Sym, Value, ValueId, ValueKind};

/// Index of an [`Operation`] inside its [`Dfg`].
///
/// Ids are dense (0..num_ops) and stable for the lifetime of the graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct OpId(pub(crate) u32);

impl OpId {
    /// The dense index of this operation.
    #[must_use]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Construct from a dense index.
    #[must_use]
    pub fn from_index(index: usize) -> Self {
        OpId(u32::try_from(index).expect("op index fits in u32"))
    }
}

impl fmt::Display for OpId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "o{}", self.0)
    }
}

/// One operation node of the data-flow graph.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Operation {
    pub(crate) id: OpId,
    pub(crate) name: Sym,
    pub(crate) kind: OpKind,
    pub(crate) inputs: Vec<ValueId>,
    pub(crate) output: Option<ValueId>,
}

impl Operation {
    /// The operation's id.
    #[must_use]
    pub fn id(&self) -> OpId {
        self.id
    }

    /// The source-level node name, e.g. `"N21"`.
    #[must_use]
    pub fn name(&self) -> &str {
        self.name.as_str()
    }

    /// The interned name symbol.
    #[must_use]
    pub fn name_sym(&self) -> Sym {
        self.name
    }

    /// The operation kind.
    #[must_use]
    pub fn kind(&self) -> OpKind {
        self.kind
    }

    /// The values read by this operation, in port order.
    #[must_use]
    pub fn inputs(&self) -> &[ValueId] {
        &self.inputs
    }

    /// The value defined by this operation, if any.
    #[must_use]
    pub fn output(&self) -> Option<ValueId> {
        self.output
    }
}

impl fmt::Display for Operation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}({})", self.name, self.kind)
    }
}

/// Compressed-sparse-row adjacency: per-op neighbor lists flattened into
/// one offset array plus one id array, so a neighborhood query is a
/// bounds-computed slice into shared storage — no per-call allocation,
/// and the whole relation lives in two contiguous blocks.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct CsrAdj {
    off: Vec<u32>,
    dat: Vec<OpId>,
}

impl CsrAdj {
    fn with_rows(n: usize) -> CsrAdj {
        let mut off = Vec::with_capacity(n + 1);
        off.push(0);
        CsrAdj {
            off,
            dat: Vec::new(),
        }
    }

    /// Append `id` to the row currently being built, skipping duplicates
    /// already in that row (first-occurrence order is preserved).
    fn push_dedup(&mut self, id: OpId) {
        let row_start = *self.off.last().expect("csr has a row open") as usize;
        if !self.dat[row_start..].contains(&id) {
            self.dat.push(id);
        }
    }

    fn seal_row(&mut self) {
        self.off
            .push(u32::try_from(self.dat.len()).expect("csr fits in u32"));
    }

    fn row(&self, i: usize) -> &[OpId] {
        &self.dat[self.off[i] as usize..self.off[i + 1] as usize]
    }
}

/// A behavioral data-flow graph: values, operations and precedence.
///
/// Construct with [`DfgBuilder`](crate::DfgBuilder) or [`parse`](crate::parse).
/// The graph is SSA-like: every non-input value has exactly one defining
/// operation. Besides data dependences, extra *precedence arcs* can be added
/// (see [`Dfg::add_precedence`]); the synthesis algorithm uses these to
/// materialize the scheduling constraints imposed by module and register
/// mergers.
#[derive(Debug, Clone)]
pub struct Dfg {
    /// The data-flow content, fixed once built. Shared by reference:
    /// cloning a `Dfg` bumps a refcount instead of copying every
    /// operation, value, use list and name table — synthesis mutates
    /// only the arc overlay below, so all trial states of a run share
    /// one core.
    pub(crate) core: Arc<DfgCore>,
    /// Extra precedence arcs (from, to) beyond data dependences. This is
    /// the overlay's append-only arena: a [`ArcSavepoint`] is a high-water
    /// mark into it, and rollback is truncation.
    pub(crate) extra_prec: Vec<(OpId, OpId)>,
    /// Weak precedence arcs: `step(from) <= step(to)` (same step allowed).
    /// Used for register-sharing constraints, where a value may be read
    /// in the very step its successor value is defined (registers are
    /// read at the start of a cycle and written at its end).
    pub(crate) weak_prec: Vec<(OpId, OpId)>,
    /// Per-op adjacency of the overlay arcs, maintained incrementally so
    /// `preds`/`succs` never scan the arc arena. Entries mirror
    /// `extra_prec`/`weak_prec` push-for-push, so truncating the arena
    /// pops these lists in reverse — capacity is retained, making a
    /// trial-and-rollback cycle allocation-free once warmed up.
    ov_pred: Vec<Vec<OpId>>,
    ov_succ: Vec<Vec<OpId>>,
    ov_weak_pred: Vec<Vec<OpId>>,
    ov_weak_succ: Vec<Vec<OpId>>,
    /// The transitive closure of the whole precedence relation (data,
    /// strict and weak arcs), kept exact under the arc journal: the
    /// reachability index behind [`Dfg::reaches`].
    closure: Closure,
}

/// A reachability index: one bitset row per operation, bit `j` of row
/// `i` set when op `i` reaches op `j` (data dependences, strict and weak
/// arcs). Adding an arc ORs the head's row (plus the head) into the rows
/// of the tail and of every op that reaches the tail; each word it
/// changes is logged with its old value, so truncating the arc overlay
/// restores the rows by popping the log. The log is forgotten when a
/// transaction commits ([`Dfg::forget_arc_undo`]); a savepoint taken
/// before that restores by rebuilding the index instead.
#[derive(Debug, Clone)]
struct Closure {
    /// `u64` words per row.
    words: usize,
    /// `num_ops` rows of `words` words.
    rows: Vec<u64>,
    /// `(word index, previous value)` per changed word, in change order.
    undo: Vec<(usize, u64)>,
    /// Bumped whenever `undo` is discarded; a savepoint of an older
    /// epoch restores by rebuilding.
    epoch: u32,
}

impl Closure {
    fn new(n: usize) -> Closure {
        let words = n.div_ceil(64);
        Closure {
            words,
            rows: vec![0; n * words],
            undo: Vec::new(),
            epoch: 0,
        }
    }

    fn has(&self, from: usize, to: usize) -> bool {
        self.rows[from * self.words + to / 64] >> (to % 64) & 1 == 1
    }

    /// Record the arc `from -> to`: every op that reaches `from` (and
    /// `from` itself) now also reaches `to` and everything `to` reaches.
    /// The caller has checked that `to` does not reach `from`, so row
    /// `to` is never among the rows written.
    fn add(&mut self, from: usize, to: usize) {
        if self.has(from, to) {
            return;
        }
        let w = self.words;
        let n = self.rows.len() / w.max(1);
        for x in 0..n {
            if x != from && !self.has(x, from) {
                continue;
            }
            for k in 0..w {
                let mut add = self.rows[to * w + k];
                if to / 64 == k {
                    add |= 1 << (to % 64);
                }
                let i = x * w + k;
                let old = self.rows[i];
                if old | add != old {
                    self.undo.push((i, old));
                    self.rows[i] = old | add;
                }
            }
        }
    }

    /// Pop the log back to `mark`, restoring each logged word.
    fn restore(&mut self, mark: usize) {
        while self.undo.len() > mark {
            let (i, old) = self.undo.pop().expect("length checked");
            self.rows[i] = old;
        }
    }

    /// Discard the log; older savepoints will rebuild.
    fn forget(&mut self) {
        self.undo.clear();
        self.epoch = self.epoch.wrapping_add(1);
    }
}

/// The immutable half of a [`Dfg`]: everything except the precedence-arc
/// overlay. Built once by [`DfgBuilder`](crate::DfgBuilder)/the parser
/// and never touched again, which is what makes sharing it via [`Arc`]
/// sound.
#[derive(Debug, PartialEq)]
pub(crate) struct DfgCore {
    pub(crate) name: String,
    pub(crate) values: Vec<Value>,
    pub(crate) ops: Vec<Operation>,
    /// Defining operation per value (None for inputs/constants).
    pub(crate) def: Vec<Option<OpId>>,
    /// Consumer operations per value.
    pub(crate) uses: Vec<Vec<OpId>>,
    /// Loop-carried value pairs `(produced, consumed-next-iteration)`.
    pub(crate) loop_carried: Vec<(ValueId, ValueId)>,
    pub(crate) value_names: HashMap<Sym, ValueId>,
    pub(crate) op_names: HashMap<Sym, OpId>,
    /// Deduplicated data-dependence predecessors per op (producers of its
    /// inputs, input-port first-occurrence order), in CSR form.
    pub(crate) data_preds: CsrAdj,
    /// Deduplicated data-dependence successors per op (consumers of its
    /// output, use-list first-occurrence order), in CSR form.
    pub(crate) data_succs: CsrAdj,
}

impl DfgCore {
    /// Assemble a core and precompute its CSR data adjacency. The CSR
    /// rows reproduce exactly what walking `inputs`/`def` and
    /// `output`/`uses` with first-occurrence dedup yields.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn new(
        name: String,
        values: Vec<Value>,
        ops: Vec<Operation>,
        def: Vec<Option<OpId>>,
        uses: Vec<Vec<OpId>>,
        loop_carried: Vec<(ValueId, ValueId)>,
        value_names: HashMap<Sym, ValueId>,
        op_names: HashMap<Sym, OpId>,
    ) -> DfgCore {
        let n = ops.len();
        let mut data_preds = CsrAdj::with_rows(n);
        let mut data_succs = CsrAdj::with_rows(n);
        for op in &ops {
            for &v in &op.inputs {
                if let Some(p) = def[v.index()] {
                    data_preds.push_dedup(p);
                }
            }
            data_preds.seal_row();
            if let Some(v) = op.output {
                for &u in &uses[v.index()] {
                    data_succs.push_dedup(u);
                }
            }
            data_succs.seal_row();
        }
        DfgCore {
            name,
            values,
            ops,
            def,
            uses,
            loop_carried,
            value_names,
            op_names,
            data_preds,
            data_succs,
        }
    }
}

impl PartialEq for Dfg {
    fn eq(&self, other: &Self) -> bool {
        (Arc::ptr_eq(&self.core, &other.core) || self.core == other.core)
            && self.extra_prec == other.extra_prec
            && self.weak_prec == other.weak_prec
    }
}

/// A position in a [`Dfg`]'s precedence-arc overlay, taken with
/// [`Dfg::arc_savepoint`] and restored with [`Dfg::truncate_arcs`].
///
/// The synthesis transaction journal uses this pair to undo a merger's
/// scheduling constraints: arcs are only ever *appended* by
/// [`Dfg::add_precedence`]/[`Dfg::add_weak_precedence`], so the
/// savepoint is a high-water mark into the arc arena and rolling back
/// is a truncation. It also marks the reachability index's undo log, so
/// the truncation restores the index with it. [`Dfg::remove_precedence`]
/// breaks that discipline and must not be interleaved with an
/// outstanding savepoint.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ArcSavepoint {
    strict: usize,
    weak: usize,
    /// The reachability index's undo-log length, and its epoch.
    closure: usize,
    epoch: u32,
}

impl Dfg {
    pub(crate) fn from_core(core: Arc<DfgCore>) -> Dfg {
        let n = core.ops.len();
        let mut dfg = Dfg {
            core,
            extra_prec: Vec::new(),
            weak_prec: Vec::new(),
            ov_pred: vec![Vec::new(); n],
            ov_succ: vec![Vec::new(); n],
            ov_weak_pred: vec![Vec::new(); n],
            ov_weak_succ: vec![Vec::new(); n],
            closure: Closure::new(n),
        };
        dfg.rebuild_closure();
        dfg
    }

    /// Recompute the reachability index from the arcs, in reverse
    /// topological order: an op's row is the union of its direct
    /// successors and their rows. A builder lists every op after the
    /// producers of its inputs, so a graph without overlay arcs is
    /// walked in reverse id order, with no sort. A cyclic relation (a
    /// malformed core, which [`Dfg::validate`] rejects) leaves the rows
    /// empty.
    fn rebuild_closure(&mut self) {
        let n = self.num_ops();
        let by_id = self.extra_prec.is_empty()
            && self.weak_prec.is_empty()
            && (0..n).all(|i| {
                self.data_succs(OpId::from_index(i))
                    .iter()
                    .all(|s| s.index() > i)
            });
        let order: Vec<OpId> = if by_id {
            (0..n).map(OpId::from_index).collect()
        } else {
            self.topo_order().unwrap_or_default()
        };
        let w = self.closure.words;
        let mut rows = mem::take(&mut self.closure.rows);
        rows.fill(0);
        for &u in order.iter().rev() {
            let i = u.index();
            for v in self.succs(u).chain(self.weak_succs(u).iter().copied()) {
                let j = v.index();
                for k in 0..w {
                    rows[i * w + k] |= rows[j * w + k];
                }
                rows[i * w + j / 64] |= 1 << (j % 64);
            }
        }
        self.closure.rows = rows;
        self.closure.forget();
    }

    /// The graph's name (benchmark name).
    #[must_use]
    pub fn name(&self) -> &str {
        &self.core.name
    }

    /// Number of operations.
    #[must_use]
    pub fn num_ops(&self) -> usize {
        self.core.ops.len()
    }

    /// Number of values.
    #[must_use]
    pub fn num_values(&self) -> usize {
        self.core.values.len()
    }

    /// All operations in id order.
    #[must_use]
    pub fn ops(&self) -> &[Operation] {
        &self.core.ops
    }

    /// All values in id order.
    #[must_use]
    pub fn values(&self) -> &[Value] {
        &self.core.values
    }

    /// Look up an operation by id.
    #[must_use]
    pub fn op(&self, id: OpId) -> &Operation {
        &self.core.ops[id.index()]
    }

    /// Look up a value by id.
    #[must_use]
    pub fn value(&self, id: ValueId) -> &Value {
        &self.core.values[id.index()]
    }

    /// Find an operation by name.
    #[must_use]
    pub fn op_by_name(&self, name: &str) -> Option<OpId> {
        let sym = Sym::lookup(name)?;
        self.core.op_names.get(&sym).copied()
    }

    /// Find a value by name.
    #[must_use]
    pub fn value_by_name(&self, name: &str) -> Option<ValueId> {
        let sym = Sym::lookup(name)?;
        self.core.value_names.get(&sym).copied()
    }

    /// The operation defining `value`, if any (inputs and constants have
    /// none).
    #[must_use]
    pub fn def_of(&self, value: ValueId) -> Option<OpId> {
        self.core.def[value.index()]
    }

    /// The operations consuming `value`.
    #[must_use]
    pub fn uses_of(&self, value: ValueId) -> &[OpId] {
        &self.core.uses[value.index()]
    }

    /// Iterator over primary-input value ids.
    pub fn inputs(&self) -> impl Iterator<Item = ValueId> + '_ {
        self.core
            .values
            .iter()
            .filter(|v| v.kind.is_input())
            .map(Value::id)
    }

    /// Iterator over primary-output value ids.
    pub fn outputs(&self) -> impl Iterator<Item = ValueId> + '_ {
        self.core
            .values
            .iter()
            .filter(|v| v.kind.is_output())
            .map(Value::id)
    }

    /// Loop-carried `(produced, consumed-next-iteration)` value pairs.
    #[must_use]
    pub fn loop_carried(&self) -> &[(ValueId, ValueId)] {
        &self.core.loop_carried
    }

    /// Direct data-dependence predecessors of `op` (producers of its
    /// inputs), deduplicated, in input-port first-occurrence order.
    /// A slice into the core's precomputed CSR adjacency — no
    /// allocation.
    #[must_use]
    pub fn data_preds(&self, op: OpId) -> &[OpId] {
        self.core.data_preds.row(op.index())
    }

    /// Direct data-dependence successors of `op` (consumers of its
    /// output), deduplicated. A slice into the core's precomputed CSR
    /// adjacency — no allocation.
    #[must_use]
    pub fn data_succs(&self, op: OpId) -> &[OpId] {
        self.core.data_succs.row(op.index())
    }

    /// Extra (non-data) precedence arcs.
    #[must_use]
    pub fn extra_precedence(&self) -> &[(OpId, OpId)] {
        &self.extra_prec
    }

    /// Direct precedence predecessors: data predecessors followed by
    /// extra-arc sources (insertion order, duplicates of data
    /// predecessors suppressed). Allocation-free.
    pub fn preds(&self, op: OpId) -> impl Iterator<Item = OpId> + '_ {
        let data = self.data_preds(op);
        data.iter().copied().chain(
            self.ov_pred[op.index()]
                .iter()
                .copied()
                .filter(move |a| !data.contains(a)),
        )
    }

    /// Direct precedence successors: data successors followed by
    /// extra-arc targets (insertion order, duplicates of data successors
    /// suppressed). Allocation-free.
    pub fn succs(&self, op: OpId) -> impl Iterator<Item = OpId> + '_ {
        let data = self.data_succs(op);
        data.iter().copied().chain(
            self.ov_succ[op.index()]
                .iter()
                .copied()
                .filter(move |b| !data.contains(b)),
        )
    }

    /// Number of direct precedence predecessors (strict only).
    #[must_use]
    pub fn num_preds(&self, op: OpId) -> usize {
        self.preds(op).count()
    }

    /// Add an extra precedence arc `from -> to` (a scheduling constraint:
    /// `from` strictly before `to`).
    ///
    /// # Errors
    ///
    /// Returns [`DfgError::PrecedenceCycle`] (and leaves the graph
    /// unchanged) if the arc would make the precedence relation cyclic, and
    /// [`DfgError::InvalidId`] if either id is out of range.
    pub fn add_precedence(&mut self, from: OpId, to: OpId) -> Result<(), DfgError> {
        if from.index() >= self.core.ops.len() || to.index() >= self.core.ops.len() {
            return Err(DfgError::InvalidId(format!("{from} -> {to}")));
        }
        if from == to {
            return Err(DfgError::PrecedenceCycle {
                on: self.core.ops[from.index()].name().to_owned(),
            });
        }
        if self.ov_succ[from.index()].contains(&to) {
            return Ok(());
        }
        // Adding from->to creates a cycle iff to already reaches from
        // (through strict or weak arcs — a weak back-path plus this
        // strict arc is already unsatisfiable).
        if self.reaches(to, from) {
            return Err(DfgError::PrecedenceCycle {
                on: self.core.ops[from.index()].name().to_owned(),
            });
        }
        self.extra_prec.push((from, to));
        self.ov_succ[from.index()].push(to);
        self.ov_pred[to.index()].push(from);
        self.closure.add(from.index(), to.index());
        Ok(())
    }

    /// Add a weak precedence arc `from -> to`: `from` must be scheduled
    /// no later than `to` (the same control step is allowed). Register-
    /// sharing constraints use this form — a register may be read in the
    /// very step its next value is written.
    ///
    /// # Errors
    ///
    /// As for [`Dfg::add_precedence`]. Weak cycles are also rejected
    /// (conservatively: `a <= b <= a` would be satisfiable but is never
    /// useful for lifetime ordering and would complicate scheduling).
    pub fn add_weak_precedence(&mut self, from: OpId, to: OpId) -> Result<(), DfgError> {
        if from.index() >= self.core.ops.len() || to.index() >= self.core.ops.len() {
            return Err(DfgError::InvalidId(format!("{from} ~> {to}")));
        }
        if from == to {
            // `step(x) <= step(x)` is trivially true.
            return Ok(());
        }
        if self.ov_weak_succ[from.index()].contains(&to) {
            return Ok(());
        }
        if self.reaches(to, from) {
            return Err(DfgError::PrecedenceCycle {
                on: self.core.ops[from.index()].name().to_owned(),
            });
        }
        self.weak_prec.push((from, to));
        self.ov_weak_succ[from.index()].push(to);
        self.ov_weak_pred[to.index()].push(from);
        self.closure.add(from.index(), to.index());
        Ok(())
    }

    /// Weak (same-step-allowed) precedence arcs.
    #[must_use]
    pub fn weak_precedence(&self) -> &[(OpId, OpId)] {
        &self.weak_prec
    }

    /// Direct weak predecessors of `op`, in arc insertion order.
    /// Allocation-free (overlay adjacency slice).
    #[must_use]
    pub fn weak_preds(&self, op: OpId) -> &[OpId] {
        &self.ov_weak_pred[op.index()]
    }

    /// Direct weak successors of `op`, in arc insertion order.
    /// Allocation-free (overlay adjacency slice).
    #[must_use]
    pub fn weak_succs(&self, op: OpId) -> &[OpId] {
        &self.ov_weak_succ[op.index()]
    }

    /// The current end of the precedence-arc overlay. Together with
    /// [`Dfg::truncate_arcs`] this is the graph half of the synthesis
    /// transaction journal: a tentative merger appends arcs, and undoing
    /// it truncates back to the savepoint.
    #[must_use]
    pub fn arc_savepoint(&self) -> ArcSavepoint {
        ArcSavepoint {
            strict: self.extra_prec.len(),
            weak: self.weak_prec.len(),
            closure: self.closure.undo.len(),
            epoch: self.closure.epoch,
        }
    }

    /// Drop every arc appended since `sp` was taken, returning how many
    /// were removed. Arcs are append-only under
    /// [`Dfg::add_precedence`]/[`Dfg::add_weak_precedence`], so this
    /// restores the overlay bit-identically to its state at the
    /// savepoint: the arc arena is truncated to the high-water mark and
    /// the mirrored adjacency entries are popped in reverse insertion
    /// order. All capacity is retained for the next trial.
    ///
    /// # Panics
    ///
    /// Panics if the overlay is shorter than the savepoint — the arc
    /// discipline was broken (e.g. [`Dfg::remove_precedence`] ran with
    /// the savepoint outstanding).
    pub fn truncate_arcs(&mut self, sp: ArcSavepoint) -> usize {
        assert!(
            self.extra_prec.len() >= sp.strict && self.weak_prec.len() >= sp.weak,
            "arc savepoint invalidated: arcs were removed while it was outstanding"
        );
        let dropped = (self.extra_prec.len() - sp.strict) + (self.weak_prec.len() - sp.weak);
        while self.extra_prec.len() > sp.strict {
            let (a, b) = self.extra_prec.pop().expect("length checked");
            let popped = self.ov_succ[a.index()].pop();
            debug_assert_eq!(popped, Some(b));
            let popped = self.ov_pred[b.index()].pop();
            debug_assert_eq!(popped, Some(a));
        }
        while self.weak_prec.len() > sp.weak {
            let (a, b) = self.weak_prec.pop().expect("length checked");
            let popped = self.ov_weak_succ[a.index()].pop();
            debug_assert_eq!(popped, Some(b));
            let popped = self.ov_weak_pred[b.index()].pop();
            debug_assert_eq!(popped, Some(a));
        }
        if sp.epoch == self.closure.epoch {
            self.closure.restore(sp.closure);
        } else if dropped > 0 {
            self.rebuild_closure();
        }
        dropped
    }

    /// Forget the reachability index's undo log. A committing synthesis
    /// transaction (`hlts_core::StateTxn::commit`) calls this: a committed merger's arcs are never truncated by the
    /// transaction again, and without it the log would grow by every
    /// word a committed arc changed. A savepoint taken before this call
    /// still restores exactly — [`Dfg::truncate_arcs`] then rebuilds the
    /// index from the arcs.
    pub fn forget_arc_undo(&mut self) {
        self.closure.forget();
    }

    /// Whether two graphs share one immutable core (i.e. one was cloned
    /// from the other and only their arc overlays may differ).
    #[must_use]
    pub fn shares_core(&self, other: &Dfg) -> bool {
        Arc::ptr_eq(&self.core, &other.core)
    }

    /// A clone that does **not** share the immutable core — the cost
    /// profile every `Dfg::clone()` had before cores were `Arc`-shared.
    /// Kept for the clone-based trial oracle and its benchmarks.
    #[must_use]
    pub fn deep_clone(&self) -> Dfg {
        Dfg {
            core: Arc::new(DfgCore {
                name: self.core.name.clone(),
                values: self.core.values.clone(),
                ops: self.core.ops.clone(),
                def: self.core.def.clone(),
                uses: self.core.uses.clone(),
                loop_carried: self.core.loop_carried.clone(),
                value_names: self.core.value_names.clone(),
                op_names: self.core.op_names.clone(),
                data_preds: self.core.data_preds.clone(),
                data_succs: self.core.data_succs.clone(),
            }),
            extra_prec: self.extra_prec.clone(),
            weak_prec: self.weak_prec.clone(),
            ov_pred: self.ov_pred.clone(),
            ov_succ: self.ov_succ.clone(),
            ov_weak_pred: self.ov_weak_pred.clone(),
            ov_weak_succ: self.ov_weak_succ.clone(),
            closure: self.closure.clone(),
        }
    }

    /// Remove a previously added extra precedence arc. Returns whether the
    /// arc was present. The reachability index is rebuilt from the
    /// remaining arcs.
    pub fn remove_precedence(&mut self, from: OpId, to: OpId) -> bool {
        let before = self.extra_prec.len();
        self.extra_prec.retain(|&(a, b)| (a, b) != (from, to));
        if self.extra_prec.len() == before {
            return false;
        }
        self.ov_succ[from.index()].retain(|&b| b != to);
        self.ov_pred[to.index()].retain(|&a| a != from);
        self.rebuild_closure();
        true
    }

    /// Whether `from` (transitively) precedes-or-equals `to` under data
    /// dependences, extra strict arcs and weak arcs. An operation does
    /// not reach itself.
    ///
    /// One bit of the reachability index. Debug builds check every
    /// answer against [`Dfg::reaches_dfs`].
    #[must_use]
    pub fn reaches(&self, from: OpId, to: OpId) -> bool {
        let hit = from != to && self.closure.has(from.index(), to.index());
        debug_assert_eq!(
            hit,
            self.reaches_dfs(from, to),
            "reachability index out of step: {from} -> {to}"
        );
        hit
    }

    /// [`Dfg::reaches`] by a depth-first search over the arcs, sharing
    /// no code with the reachability index: the reference the index is
    /// tested against.
    ///
    /// Uses a thread-local epoch-marked visited set — steady-state calls
    /// perform no heap allocation.
    #[must_use]
    pub fn reaches_dfs(&self, from: OpId, to: OpId) -> bool {
        if from == to {
            return false;
        }
        scratch::with(|s| {
            s.begin(self.core.ops.len());
            s.visit(from);
            s.stack.push(from);
            while let Some(n) = s.stack.pop() {
                let i = n.index();
                for &nb in self
                    .data_succs(n)
                    .iter()
                    .chain(&self.ov_succ[i])
                    .chain(&self.ov_weak_succ[i])
                {
                    if nb == to {
                        return true;
                    }
                    if s.visit(nb) {
                        s.stack.push(nb);
                    }
                }
            }
            false
        })
    }

    /// A topological order of all operations under the full precedence
    /// relation, written into `out` (which is cleared first). The
    /// in-degree scratch lives in thread-local storage, so with a
    /// caller-reused `out` buffer the query is allocation-free.
    ///
    /// # Errors
    ///
    /// Returns [`DfgError::PrecedenceCycle`] if the relation is cyclic.
    pub fn topo_order_into(&self, out: &mut Vec<OpId>) -> Result<(), DfgError> {
        let n = self.core.ops.len();
        out.clear();
        let cycle_at = scratch::with(|s| {
            s.indeg.clear();
            s.indeg.resize(n, 0);
            for op in &self.core.ops {
                let i = op.id.index();
                s.indeg[i] =
                    u32::try_from(self.preds(op.id).count() + self.weak_preds(op.id).len())
                        .expect("in-degree fits in u32");
            }
            // Kahn's algorithm with `out` doubling as the work queue: a
            // dequeued op is final, so the queue prefix *is* the order.
            out.extend((0..n).filter(|&i| s.indeg[i] == 0).map(OpId::from_index));
            let mut head = 0;
            while head < out.len() {
                let u = out[head];
                head += 1;
                // `succs` dedups overlay arcs against data arcs exactly
                // like the `preds` count above; weak arcs are counted
                // separately on both sides.
                for v in self.succs(u) {
                    s.indeg[v.index()] -= 1;
                    if s.indeg[v.index()] == 0 {
                        out.push(v);
                    }
                }
                for &v in self.weak_succs(u) {
                    s.indeg[v.index()] -= 1;
                    if s.indeg[v.index()] == 0 {
                        out.push(v);
                    }
                }
            }
            if out.len() == n {
                None
            } else {
                Some(
                    (0..n)
                        .find(|&i| s.indeg[i] > 0)
                        .map(|i| self.core.ops[i].name().to_owned())
                        .unwrap_or_default(),
                )
            }
        });
        match cycle_at {
            None => Ok(()),
            Some(on) => Err(DfgError::PrecedenceCycle { on }),
        }
    }

    /// A topological order of all operations under the full precedence
    /// relation.
    ///
    /// # Errors
    ///
    /// Returns [`DfgError::PrecedenceCycle`] if the relation is cyclic.
    pub fn topo_order(&self) -> Result<Vec<OpId>, DfgError> {
        let mut out = Vec::with_capacity(self.core.ops.len());
        self.topo_order_into(&mut out)?;
        Ok(out)
    }

    /// Length (in operations) of the longest path in the precedence DAG —
    /// a lower bound on the number of control steps of any schedule where
    /// each operation takes one step.
    ///
    /// # Errors
    ///
    /// Returns [`DfgError::PrecedenceCycle`] if the relation is cyclic.
    pub fn critical_path_len(&self) -> Result<usize, DfgError> {
        let order = self.topo_order()?;
        let mut depth = vec![1usize; self.core.ops.len()];
        for &u in &order {
            for s in self.succs(u) {
                depth[s.index()] = depth[s.index()].max(depth[u.index()] + 1);
            }
        }
        Ok(depth.iter().copied().max().unwrap_or(0))
    }

    /// Structural sanity check: arities, SSA property, input/use wiring.
    ///
    /// Builders and the parser validate on construction; this re-checks a
    /// graph that has been further mutated.
    ///
    /// # Errors
    ///
    /// Returns the first violation found.
    pub fn validate(&self) -> Result<(), DfgError> {
        for op in &self.core.ops {
            if op.inputs.len() != op.kind.arity() {
                return Err(DfgError::ArityMismatch {
                    op: op.name().to_owned(),
                    expected: op.kind.arity(),
                    got: op.inputs.len(),
                });
            }
            if let Some(out) = op.output {
                let v = &self.core.values[out.index()];
                if v.kind.is_input() {
                    return Err(DfgError::InputWritten(v.name().to_owned()));
                }
                if self.core.def[out.index()] != Some(op.id) {
                    return Err(DfgError::MultipleDefinitions(v.name().to_owned()));
                }
            }
        }
        for v in &self.core.values {
            match v.kind {
                ValueKind::Input | ValueKind::Const(_) => {
                    if self.core.def[v.id.index()].is_some() {
                        return Err(DfgError::InputWritten(v.name().to_owned()));
                    }
                }
                ValueKind::Output | ValueKind::Intermediate => {
                    if self.core.def[v.id.index()].is_none() {
                        return Err(DfgError::UndefinedValue(v.name().to_owned()));
                    }
                }
            }
        }
        self.topo_order()?;
        Ok(())
    }

    /// Count operations per kind — the "operation mix" of a benchmark.
    /// Returns a `BTreeMap` so iteration order (and any report derived
    /// from it) is deterministic.
    #[must_use]
    pub fn op_mix(&self) -> BTreeMap<OpKind, usize> {
        let mut m = BTreeMap::new();
        for op in &self.core.ops {
            *m.entry(op.kind).or_insert(0) += 1;
        }
        m
    }
}

impl fmt::Display for Dfg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "dfg {} ({} ops, {} values)",
            self.core.name,
            self.core.ops.len(),
            self.core.values.len()
        )?;
        for op in &self.core.ops {
            let ins: Vec<&str> = op
                .inputs
                .iter()
                .map(|&v| self.core.values[v.index()].name())
                .collect();
            let out = op
                .output
                .map_or("_", |v| self.core.values[v.index()].name());
            writeln!(f, "  {}: {} = {} {}", op.name, out, op.kind, ins.join(", "))?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DfgBuilder;

    fn diamond() -> Dfg {
        // a,b inputs; t1 = a+b; t2 = a*b; y = t1 - t2
        let mut b = DfgBuilder::new("diamond");
        let a = b.input("a");
        let bb = b.input("b");
        let t1 = b.op("N1", OpKind::Add, &[a, bb], "t1").unwrap();
        let t2 = b.op("N2", OpKind::Mul, &[a, bb], "t2").unwrap();
        let y = b.op("N3", OpKind::Sub, &[t1, t2], "y").unwrap();
        b.mark_output(y);
        b.finish().unwrap()
    }

    #[test]
    fn preds_and_succs() {
        let d = diamond();
        let n1 = d.op_by_name("N1").unwrap();
        let n2 = d.op_by_name("N2").unwrap();
        let n3 = d.op_by_name("N3").unwrap();
        assert!(d.data_preds(n1).is_empty());
        assert_eq!(d.data_succs(n1), [n3]);
        let mut p = d.data_preds(n3).to_vec();
        p.sort();
        assert_eq!(p, vec![n1, n2]);
    }

    #[test]
    fn preds_iter_matches_data_plus_overlay() {
        let mut d = diamond();
        let n1 = d.op_by_name("N1").unwrap();
        let n2 = d.op_by_name("N2").unwrap();
        let n3 = d.op_by_name("N3").unwrap();
        d.add_precedence(n1, n2).unwrap();
        // overlay arc n1->n2 appears after n2's data preds, once.
        let p: Vec<OpId> = d.preds(n2).collect();
        assert_eq!(p.iter().filter(|&&x| x == n1).count(), 1);
        // an overlay arc duplicating a data dependence is suppressed.
        d.add_precedence(n1, n3).unwrap();
        let p3: Vec<OpId> = d.preds(n3).collect();
        assert_eq!(p3.iter().filter(|&&x| x == n1).count(), 1);
    }

    #[test]
    fn truncate_restores_adjacency() {
        let mut d = diamond();
        let n1 = d.op_by_name("N1").unwrap();
        let n2 = d.op_by_name("N2").unwrap();
        let sp = d.arc_savepoint();
        d.add_precedence(n1, n2).unwrap();
        d.add_weak_precedence(n2, n1).unwrap_err();
        assert_eq!(d.preds(n2).count(), 1);
        assert_eq!(d.truncate_arcs(sp), 1);
        assert_eq!(d.preds(n2).count(), 0);
        assert!(d.weak_preds(n1).is_empty());
    }

    #[test]
    fn reaches_is_transitive_and_irreflexive() {
        let d = diamond();
        let n1 = d.op_by_name("N1").unwrap();
        let n3 = d.op_by_name("N3").unwrap();
        assert!(d.reaches(n1, n3));
        assert!(!d.reaches(n3, n1));
        assert!(!d.reaches(n1, n1));
    }

    #[test]
    fn extra_precedence_cycle_rejected() {
        let mut d = diamond();
        let n1 = d.op_by_name("N1").unwrap();
        let n2 = d.op_by_name("N2").unwrap();
        let n3 = d.op_by_name("N3").unwrap();
        d.add_precedence(n1, n2).unwrap();
        assert!(matches!(
            d.add_precedence(n2, n1),
            Err(DfgError::PrecedenceCycle { .. })
        ));
        assert!(matches!(
            d.add_precedence(n3, n1),
            Err(DfgError::PrecedenceCycle { .. })
        ));
        // graph unchanged by failed insertion
        assert_eq!(d.extra_precedence().len(), 1);
    }

    #[test]
    fn add_precedence_is_idempotent() {
        let mut d = diamond();
        let n1 = d.op_by_name("N1").unwrap();
        let n2 = d.op_by_name("N2").unwrap();
        d.add_precedence(n1, n2).unwrap();
        d.add_precedence(n1, n2).unwrap();
        assert_eq!(d.extra_precedence().len(), 1);
        assert!(d.remove_precedence(n1, n2));
        assert!(!d.remove_precedence(n1, n2));
        // adjacency cleaned up too: re-adding works and is visible.
        assert_eq!(d.preds(n2).count(), 0);
        d.add_precedence(n1, n2).unwrap();
        assert_eq!(d.preds(n2).count(), 1);
    }

    #[test]
    fn topo_order_respects_extra_arcs() {
        let mut d = diamond();
        let n1 = d.op_by_name("N1").unwrap();
        let n2 = d.op_by_name("N2").unwrap();
        d.add_precedence(n2, n1).unwrap();
        let order = d.topo_order().unwrap();
        let pos = |o: OpId| order.iter().position(|&x| x == o).unwrap();
        assert!(pos(n2) < pos(n1));
    }

    #[test]
    fn critical_path_of_diamond_is_two() {
        let d = diamond();
        assert_eq!(d.critical_path_len().unwrap(), 2);
    }

    #[test]
    fn validate_accepts_wellformed() {
        diamond().validate().unwrap();
    }

    #[test]
    fn op_mix_counts() {
        let d = diamond();
        let mix = d.op_mix();
        assert_eq!(mix[&OpKind::Add], 1);
        assert_eq!(mix[&OpKind::Mul], 1);
        assert_eq!(mix[&OpKind::Sub], 1);
        // BTreeMap: kinds iterate in Ord order, deterministically.
        let kinds: Vec<OpKind> = mix.keys().copied().collect();
        let mut sorted = kinds.clone();
        sorted.sort();
        assert_eq!(kinds, sorted);
    }

    #[test]
    fn display_contains_ops() {
        let s = diamond().to_string();
        assert!(s.contains("N1"));
        assert!(s.contains("t1"));
    }
}
