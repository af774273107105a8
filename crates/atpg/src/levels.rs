//! The levelized netlist both event-driven engines run on.
//!
//! [`Levels`] is one flat, read-only view of a [`Netlist`] for
//! event-driven simulation: every combinational gate's *position* in
//! topological order, its kind and the nets it reads, and each net's
//! fanout — the positions of the combinational gates it feeds and the
//! flip-flops whose D input it is — as CSR arrays. [`crate::Podem`]
//! runs its 3-valued implication on it and [`crate::FaultSimulator`]
//! its good traces and difference-only faulty machines; both build it
//! once per netlist with [`Levels::new`].
//!
//! A net that moves queues its combinational fanout on a [`Queue`], a
//! bitset keyed by position: it pops gates in topological order, each
//! at most once per pass, since a gate only ever queues positions above
//! its own.

use hlts_netlist::{GateId, GateKind, Netlist};

/// The netlist levelized for event-driven simulation, as flat arrays.
#[derive(Debug, Clone)]
pub(crate) struct Levels {
    /// Nets (gates of every kind) in the netlist.
    pub(crate) num_nets: usize,
    /// Combinational gates in topological order; a gate's index here is
    /// its *position*.
    pub(crate) order: Vec<GateId>,
    /// Gate index → position (`u32::MAX` for source nets).
    pub(crate) pos: Vec<u32>,
    /// Position → gate kind.
    pub(crate) kinds: Vec<GateKind>,
    /// Position → the nets it reads, in pin order ([`Levels::fanin`]).
    fanin_start: Vec<u32>,
    fanin: Vec<u32>,
    /// Net index → the positions of the combinational gates it feeds,
    /// ascending, each once ([`Levels::fanout`]).
    fan_start: Vec<u32>,
    fan: Vec<u32>,
    /// Net index → the flip-flops whose D input it is, as gate indices
    /// ([`Levels::dff_fanout`]).
    dff_start: Vec<u32>,
    dff_fan: Vec<u32>,
}

impl Levels {
    /// Levelize `nl` (its cached topological order is computed if
    /// needed).
    pub(crate) fn new(nl: &mut Netlist) -> Self {
        let order = nl.topo_levels();
        let n = nl.num_gates();
        let index = |i: usize| u32::try_from(i).expect("netlist fits u32 indices");
        let mut pos = vec![u32::MAX; n];
        let mut fanin = Vec::with_capacity(order.len());
        let mut fan = vec![Vec::new(); n];
        for (p, &g) in order.iter().enumerate() {
            pos[g.index()] = index(p);
            let ins = nl.gates()[g.index()].inputs();
            fanin.push(ins.iter().map(|i| index(i.index())).collect());
            for &i in ins {
                let row: &mut Vec<u32> = &mut fan[i.index()];
                if row.last() != Some(&index(p)) {
                    row.push(index(p));
                }
            }
        }
        let mut dff_fan = vec![Vec::new(); n];
        for &q in nl.dffs() {
            let d = nl.gates()[q.index()].inputs()[0];
            dff_fan[d.index()].push(index(q.index()));
        }
        let (fanin_start, fanin) = csr(&fanin);
        let (fan_start, fan) = csr(&fan);
        let (dff_start, dff_fan) = csr(&dff_fan);
        Levels {
            num_nets: n,
            kinds: order.iter().map(|g| nl.gates()[g.index()].kind()).collect(),
            order,
            pos,
            fanin_start,
            fanin,
            fan_start,
            fan,
            dff_start,
            dff_fan,
        }
    }

    /// Words of a bitset over positions.
    pub(crate) fn words(&self) -> usize {
        self.order.len().div_ceil(64)
    }

    /// The nets the gate at position `p` reads, in pin order.
    #[inline]
    pub(crate) fn fanin(&self, p: usize) -> &[u32] {
        &self.fanin[self.fanin_start[p] as usize..self.fanin_start[p + 1] as usize]
    }

    /// The positions of the combinational gates net `g` feeds.
    #[inline]
    pub(crate) fn fanout(&self, g: usize) -> &[u32] {
        &self.fan[self.fan_start[g] as usize..self.fan_start[g + 1] as usize]
    }

    /// The flip-flops (gate indices) whose D input is net `g`.
    #[inline]
    pub(crate) fn dff_fanout(&self, g: usize) -> &[u32] {
        &self.dff_fan[self.dff_start[g] as usize..self.dff_start[g + 1] as usize]
    }
}

/// A set of positions popped in ascending order: a bitset plus the
/// range of words that may hold bits.
#[derive(Debug, Clone)]
pub(crate) struct Queue {
    bits: Vec<u64>,
    lo: usize,
    hi: usize,
}

impl Queue {
    pub(crate) fn new(words: usize) -> Self {
        Queue {
            bits: vec![0; words],
            lo: usize::MAX,
            hi: 0,
        }
    }

    pub(crate) fn push(&mut self, p: usize) {
        let w = p / 64;
        self.bits[w] |= 1 << (p % 64);
        self.lo = self.lo.min(w);
        self.hi = self.hi.max(w + 1);
    }

    /// The lowest queued position, removed. Positions pushed while
    /// popping must lie above the last one popped.
    pub(crate) fn pop(&mut self) -> Option<usize> {
        while self.lo < self.hi {
            let bits = self.bits[self.lo];
            if bits != 0 {
                self.bits[self.lo] = bits & (bits - 1);
                return Some(self.lo * 64 + bits.trailing_zeros() as usize);
            }
            self.lo += 1;
        }
        self.lo = usize::MAX;
        self.hi = 0;
        None
    }

    /// Words of the bitset.
    pub(crate) fn words(&self) -> usize {
        self.bits.len()
    }

    /// Drop every queued position.
    pub(crate) fn clear(&mut self) {
        if self.lo < self.hi {
            self.bits[self.lo..self.hi].fill(0);
        }
        self.lo = usize::MAX;
        self.hi = 0;
    }
}

/// Compressed rows: row `i` is `flat[start[i]..start[i + 1]]`.
fn csr(rows: &[Vec<u32>]) -> (Vec<u32>, Vec<u32>) {
    let mut start = Vec::with_capacity(rows.len() + 1);
    start.push(0);
    let mut flat = Vec::with_capacity(rows.iter().map(Vec::len).sum());
    for row in rows {
        flat.extend_from_slice(row);
        start.push(u32::try_from(flat.len()).expect("fanout fits u32"));
    }
    (start, flat)
}

/// Inputs, flip-flops and constants: nets no combinational gate
/// drives.
pub(crate) fn is_source(kind: GateKind) -> bool {
    matches!(
        kind,
        GateKind::Input | GateKind::Dff | GateKind::Const0 | GateKind::Const1
    )
}
