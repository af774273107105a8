//! The data-path half of the ETPN representation.
//!
//! "The data path is a directed graph with nodes and arcs. The node
//! represents storage (registers) and manipulation of data. The arc
//! connecting two nodes represents the flow of data." (paper, §2).
//! Arcs carry *guards* — the control places whose tokens enable the
//! transfer — which ties the two halves of the representation together.

use std::collections::BTreeSet;
use std::fmt;

use hlts_alloc::{Allocation, ModuleId, RegisterId};
use hlts_dfg::{Dfg, OpKind, ValueId};

use crate::PlaceId;

/// Index of a [`DpNode`] in its [`DataPath`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct DpNodeId(pub(crate) u32);

impl DpNodeId {
    /// Dense index.
    #[must_use]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Construct from a dense index.
    #[must_use]
    pub fn from_index(index: usize) -> Self {
        DpNodeId(u32::try_from(index).expect("node index fits in u32"))
    }
}

impl fmt::Display for DpNodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// Index of a [`DpArc`] in its [`DataPath`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct DpArcId(pub(crate) u32);

impl DpArcId {
    /// Dense index.
    #[must_use]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Construct from a dense index.
    #[must_use]
    pub fn from_index(index: usize) -> Self {
        DpArcId(u32::try_from(index).expect("arc index fits in u32"))
    }
}

impl fmt::Display for DpArcId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "a{}", self.0)
    }
}

/// What a data-path node is.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum DpNodeKind {
    /// Primary input port delivering the given behavioral value.
    PrimaryInput(ValueId),
    /// Primary output port observing the given behavioral value.
    PrimaryOutput(ValueId),
    /// A storage register (one or more behavioral values time-share it).
    Register(RegisterId),
    /// A functional module executing the given operation kinds.
    Module {
        /// Binding id of the module.
        id: ModuleId,
        /// The operation kinds the unit supports.
        kinds: BTreeSet<OpKind>,
    },
    /// A hardwired constant.
    Const(ValueId),
    /// A 1-bit condition signal leaving the data path for the controller.
    ConditionOut(ValueId),
}

impl DpNodeKind {
    /// Whether the node is a register.
    #[must_use]
    pub fn is_register(&self) -> bool {
        matches!(self, DpNodeKind::Register(_))
    }

    /// Whether the node is a functional module.
    #[must_use]
    pub fn is_module(&self) -> bool {
        matches!(self, DpNodeKind::Module { .. })
    }

    /// Whether the node is a primary input port.
    #[must_use]
    pub fn is_primary_input(&self) -> bool {
        matches!(self, DpNodeKind::PrimaryInput(_))
    }

    /// Whether the node is a primary output port.
    #[must_use]
    pub fn is_primary_output(&self) -> bool {
        matches!(self, DpNodeKind::PrimaryOutput(_))
    }
}

/// One node of the data path.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DpNode {
    pub(crate) id: DpNodeId,
    pub(crate) kind: DpNodeKind,
}

impl DpNode {
    /// The node's id.
    #[must_use]
    pub fn id(&self) -> DpNodeId {
        self.id
    }

    /// The node's kind.
    #[must_use]
    pub fn kind(&self) -> &DpNodeKind {
        &self.kind
    }

    /// Human-readable label of the node in the data path lowered from
    /// `dfg` and `allocation`, e.g. `"R{a,c,x}"`, `"FU(*){N21,N24}"`,
    /// `"in(a)"` or `"C(c3)"`. Lowering stores no labels; DOT export,
    /// [`DataPath::render`] and netlist elaboration errors build them
    /// here, from the parts the path was lowered from.
    #[must_use]
    pub fn label(&self, dfg: &Dfg, allocation: &Allocation) -> String {
        let name = |v: ValueId| dfg.value(v).name();
        match &self.kind {
            DpNodeKind::PrimaryInput(v) => format!("in({})", name(*v)),
            DpNodeKind::PrimaryOutput(v) => format!("out({})", name(*v)),
            DpNodeKind::Const(v) => format!("C({})", name(*v)),
            DpNodeKind::ConditionOut(v) => format!("cond({})", name(*v)),
            DpNodeKind::Register(r) => {
                let values = allocation.register(*r).map_or(&[][..], |r| r.values());
                let names: Vec<&str> = values.iter().map(|&v| name(v)).collect();
                format!("R{{{}}}", names.join(","))
            }
            DpNodeKind::Module { id, kinds } => {
                let syms: Vec<&str> = kinds.iter().map(|k| k.symbol()).collect();
                let ops = allocation.module(*id).map_or(&[][..], |m| m.ops());
                let names: Vec<&str> = ops.iter().map(|&o| dfg.op(o).name()).collect();
                format!("FU({}){{{}}}", syms.join(""), names.join(","))
            }
        }
    }
}

/// One guarded data-transfer arc.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DpArc {
    pub(crate) id: DpArcId,
    pub(crate) from: DpNodeId,
    pub(crate) to: DpNodeId,
    /// Input-port position at the sink (0 or 1 for binary modules;
    /// 0 for registers and output ports).
    pub(crate) port: usize,
    /// Control places whose tokens enable this transfer.
    pub(crate) guards: BTreeSet<PlaceId>,
}

impl DpArc {
    /// The arc's id.
    #[must_use]
    pub fn id(&self) -> DpArcId {
        self.id
    }

    /// Source node.
    #[must_use]
    pub fn from(&self) -> DpNodeId {
        self.from
    }

    /// Sink node.
    #[must_use]
    pub fn to(&self) -> DpNodeId {
        self.to
    }

    /// Sink input-port position.
    #[must_use]
    pub fn port(&self) -> usize {
        self.port
    }

    /// Control places enabling the transfer.
    #[must_use]
    pub fn guards(&self) -> &BTreeSet<PlaceId> {
        &self.guards
    }
}

/// The data-path graph.
#[derive(Debug, Clone, Default)]
pub struct DataPath {
    nodes: Vec<DpNode>,
    arcs: Vec<DpArc>,
    /// Arc lists per node. Slots past `nodes.len()` are empty lists a
    /// [`clear`](DataPath::clear) kept for their capacity.
    in_arcs: Vec<Vec<DpArcId>>,
    out_arcs: Vec<Vec<DpArcId>>,
}

impl DataPath {
    /// An empty data path.
    #[must_use]
    pub fn new() -> Self {
        DataPath::default()
    }

    /// Remove every node and arc, keeping the capacity of every buffer
    /// — the per-node arc lists included — so a path rebuilt into this
    /// one allocates only past its earlier sizes (and for the kind sets
    /// of its module nodes).
    pub fn clear(&mut self) {
        let n = self.nodes.len();
        self.nodes.clear();
        self.arcs.clear();
        for list in self.in_arcs[..n].iter_mut().chain(&mut self.out_arcs[..n]) {
            list.clear();
        }
    }

    /// Add a node, returning its id.
    pub fn add_node(&mut self, kind: DpNodeKind) -> DpNodeId {
        let id = DpNodeId::from_index(self.nodes.len());
        self.nodes.push(DpNode { id, kind });
        if self.in_arcs.len() < self.nodes.len() {
            self.in_arcs.push(Vec::new());
            self.out_arcs.push(Vec::new());
        }
        id
    }

    /// Add an arc `from -> to.port` guarded by `guards`, or extend the
    /// guard set of an existing identical arc. Returns the arc id.
    ///
    /// # Panics
    ///
    /// Panics if either node id is out of range.
    pub fn add_arc(
        &mut self,
        from: DpNodeId,
        to: DpNodeId,
        port: usize,
        guards: impl IntoIterator<Item = PlaceId>,
    ) -> DpArcId {
        assert!(from.index() < self.nodes.len(), "bad source {from}");
        assert!(to.index() < self.nodes.len(), "bad sink {to}");
        if let Some(&aid) = self.in_arcs[to.index()].iter().find(|&&a| {
            let arc = &self.arcs[a.index()];
            arc.from == from && arc.port == port
        }) {
            self.arcs[aid.index()].guards.extend(guards);
            return aid;
        }
        let id = DpArcId::from_index(self.arcs.len());
        self.arcs.push(DpArc {
            id,
            from,
            to,
            port,
            guards: guards.into_iter().collect(),
        });
        self.out_arcs[from.index()].push(id);
        self.in_arcs[to.index()].push(id);
        id
    }

    /// Number of nodes.
    #[must_use]
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Number of arcs.
    #[must_use]
    pub fn num_arcs(&self) -> usize {
        self.arcs.len()
    }

    /// All nodes in id order.
    #[must_use]
    pub fn nodes(&self) -> &[DpNode] {
        &self.nodes
    }

    /// All arcs in id order.
    #[must_use]
    pub fn arcs(&self) -> &[DpArc] {
        &self.arcs
    }

    /// A node by id.
    #[must_use]
    pub fn node(&self, id: DpNodeId) -> &DpNode {
        &self.nodes[id.index()]
    }

    /// An arc by id.
    #[must_use]
    pub fn arc(&self, id: DpArcId) -> &DpArc {
        &self.arcs[id.index()]
    }

    /// Ids of incoming arcs of `node`, in insertion order. Resolve an id
    /// with [`DataPath::arc`]; neither step allocates.
    #[must_use]
    pub fn in_arc_ids(&self, node: DpNodeId) -> &[DpArcId] {
        &self.in_arcs[node.index()]
    }

    /// Ids of outgoing arcs of `node`, in insertion order. Resolve an id
    /// with [`DataPath::arc`]; neither step allocates.
    #[must_use]
    pub fn out_arc_ids(&self, node: DpNodeId) -> &[DpArcId] {
        &self.out_arcs[node.index()]
    }

    /// Node ids of all registers.
    #[must_use]
    pub fn register_nodes(&self) -> Vec<DpNodeId> {
        self.nodes
            .iter()
            .filter(|n| n.kind.is_register())
            .map(|n| n.id)
            .collect()
    }

    /// Node ids of all modules.
    #[must_use]
    pub fn module_nodes(&self) -> Vec<DpNodeId> {
        self.nodes
            .iter()
            .filter(|n| n.kind.is_module())
            .map(|n| n.id)
            .collect()
    }

    /// Find the node representing binding register `r`.
    #[must_use]
    pub fn node_of_register(&self, r: RegisterId) -> Option<DpNodeId> {
        self.nodes
            .iter()
            .find(|n| matches!(n.kind, DpNodeKind::Register(x) if x == r))
            .map(|n| n.id)
    }

    /// Find the node representing binding module `m`.
    #[must_use]
    pub fn node_of_module(&self, m: ModuleId) -> Option<DpNodeId> {
        self.nodes
            .iter()
            .find(|n| matches!(&n.kind, DpNodeKind::Module { id, .. } if *id == m))
            .map(|n| n.id)
    }

    /// Count multiplexer 2-to-1 equivalents: for every (node, port) sink
    /// with `s > 1` incoming arcs, `s - 1` muxes. One pass over each
    /// node's in-arcs: a node with `k` in-arcs on `p` distinct ports
    /// needs `k - p`.
    #[must_use]
    pub fn mux_count(&self) -> usize {
        let mut total = 0;
        for arcs in &self.in_arcs[..self.nodes.len()] {
            let mut seen = 0u64; // bit p: port p < 64 already has an arc
            let mut ports = 0;
            for (i, &a) in arcs.iter().enumerate() {
                let port = self.arcs[a.index()].port;
                let first = if port < 64 {
                    let fresh = seen & (1 << port) == 0;
                    seen |= 1 << port;
                    fresh
                } else {
                    arcs[..i].iter().all(|&b| self.arcs[b.index()].port != port)
                };
                ports += usize::from(first);
            }
            total += arcs.len() - ports;
        }
        total
    }

    /// Whether `node` sits on a structural self-loop: one of its
    /// successors is also one of its predecessors, or it directly feeds
    /// itself.
    #[must_use]
    pub fn on_self_loop(&self, node: DpNodeId) -> bool {
        let is_pred = |x: DpNodeId| {
            self.in_arcs[node.index()]
                .iter()
                .any(|&a| self.arcs[a.index()].from == x)
        };
        if is_pred(node) {
            return true;
        }
        self.out_arcs[node.index()]
            .iter()
            .any(|&a| is_pred(self.arcs[a.index()].to))
    }

    /// Render the graph as `from -> to.port [guards]` lines for debugging
    /// and golden tests, labelling nodes from the `dfg` and `allocation`
    /// the path was lowered from.
    #[must_use]
    pub fn render(&self, dfg: &Dfg, allocation: &Allocation) -> String {
        let mut out = String::new();
        for arc in &self.arcs {
            let guards: Vec<String> = arc.guards.iter().map(|p| p.to_string()).collect();
            out.push_str(&format!(
                "{} -> {}.{} [{}]\n",
                self.nodes[arc.from.index()].label(dfg, allocation),
                self.nodes[arc.to.index()].label(dfg, allocation),
                arc.port,
                guards.join(",")
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn place(i: usize) -> PlaceId {
        PlaceId::from_index(i)
    }

    #[test]
    fn add_and_query_nodes() {
        let mut dp = DataPath::new();
        let r = dp.add_node(DpNodeKind::Register(RegisterId::from_index(0)));
        let m = dp.add_node(DpNodeKind::Module {
            id: ModuleId::from_index(0),
            kinds: BTreeSet::from([OpKind::Add]),
        });
        assert_eq!(dp.num_nodes(), 2);
        assert!(dp.node(r).kind().is_register());
        assert!(dp.node(m).kind().is_module());
        assert_eq!(dp.register_nodes(), vec![r]);
        assert_eq!(dp.module_nodes(), vec![m]);
    }

    #[test]
    fn duplicate_arc_merges_guards() {
        let mut dp = DataPath::new();
        let r = dp.add_node(DpNodeKind::Register(RegisterId::from_index(0)));
        let m = dp.add_node(DpNodeKind::Module {
            id: ModuleId::from_index(0),
            kinds: BTreeSet::from([OpKind::Add]),
        });
        let a1 = dp.add_arc(r, m, 0, [place(0)]);
        let a2 = dp.add_arc(r, m, 0, [place(1)]);
        assert_eq!(a1, a2);
        assert_eq!(dp.num_arcs(), 1);
        assert_eq!(dp.arc(a1).guards().len(), 2);
        // different port: separate arc
        let a3 = dp.add_arc(r, m, 1, [place(0)]);
        assert_ne!(a1, a3);
        assert_eq!(dp.num_arcs(), 2);
    }

    #[test]
    fn mux_counting() {
        let mut dp = DataPath::new();
        let r0 = dp.add_node(DpNodeKind::Register(RegisterId::from_index(0)));
        let r1 = dp.add_node(DpNodeKind::Register(RegisterId::from_index(1)));
        let r2 = dp.add_node(DpNodeKind::Register(RegisterId::from_index(2)));
        let m = dp.add_node(DpNodeKind::Module {
            id: ModuleId::from_index(0),
            kinds: BTreeSet::from([OpKind::Add]),
        });
        dp.add_arc(r0, m, 0, [place(0)]);
        assert_eq!(dp.mux_count(), 0);
        dp.add_arc(r1, m, 0, [place(1)]);
        assert_eq!(dp.mux_count(), 1);
        dp.add_arc(r2, m, 0, [place(2)]);
        assert_eq!(dp.mux_count(), 2);
        dp.add_arc(r0, m, 1, [place(0)]);
        assert_eq!(dp.mux_count(), 2);
        // ports past the 64-bit mask count the same way
        dp.add_arc(r0, m, 70, [place(0)]);
        assert_eq!(dp.mux_count(), 2);
        dp.add_arc(r1, m, 70, [place(0)]);
        assert_eq!(dp.mux_count(), 3);
    }

    #[test]
    fn self_loop_detection() {
        let mut dp = DataPath::new();
        let r = dp.add_node(DpNodeKind::Register(RegisterId::from_index(0)));
        let m = dp.add_node(DpNodeKind::Module {
            id: ModuleId::from_index(0),
            kinds: BTreeSet::from([OpKind::Add]),
        });
        dp.add_arc(r, m, 0, [place(0)]);
        assert!(!dp.on_self_loop(r));
        dp.add_arc(m, r, 0, [place(0)]);
        assert!(dp.on_self_loop(r));
        assert!(dp.on_self_loop(m));
    }

    /// A cleared path rebuilt the same way equals a fresh build, node
    /// lists included, whether it shrank or grew in between.
    #[test]
    fn cleared_path_rebuilds_like_a_fresh_one() {
        let build = |dp: &mut DataPath, n: usize| {
            let ids: Vec<_> = (0..n)
                .map(|i| dp.add_node(DpNodeKind::Register(RegisterId::from_index(i))))
                .collect();
            for w in ids.windows(2) {
                dp.add_arc(w[0], w[1], 0, [place(0)]);
            }
            dp.add_arc(ids[n - 1], ids[0], 1, []);
        };
        let mut reused = DataPath::new();
        for n in [5, 2, 7, 3] {
            reused.clear();
            build(&mut reused, n);
            let mut fresh = DataPath::new();
            build(&mut fresh, n);
            assert_eq!(reused.nodes(), fresh.nodes());
            assert_eq!(reused.arcs(), fresh.arcs());
            for node in fresh.nodes() {
                assert_eq!(reused.in_arc_ids(node.id()), fresh.in_arc_ids(node.id()));
                assert_eq!(reused.out_arc_ids(node.id()), fresh.out_arc_ids(node.id()));
            }
            assert_eq!(reused.mux_count(), fresh.mux_count());
        }
    }

    #[test]
    fn arc_id_accessors_track_insertion_order() {
        let mut dp = DataPath::new();
        let r = dp.add_node(DpNodeKind::Register(RegisterId::from_index(0)));
        let m = dp.add_node(DpNodeKind::Module {
            id: ModuleId::from_index(0),
            kinds: BTreeSet::from([OpKind::Add]),
        });
        let a0 = dp.add_arc(r, m, 0, [place(0)]);
        let a1 = dp.add_arc(r, m, 1, [place(0)]);
        assert_eq!(dp.in_arc_ids(m), [a0, a1]);
        assert_eq!(dp.out_arc_ids(r), [a0, a1]);
        assert!(dp.in_arc_ids(r).is_empty());
        assert_eq!(dp.arc(a1).port(), 1);
    }
}
