//! Connectivity-driven constructive floorplanning.
//!
//! "To make a more accurate estimation, we follow the floorplanning
//! algorithm proposed by Peng et al. to estimate the hardware cost which
//! takes into account the geometrical information. This algorithm
//! basically makes use of a simple heuristics based on the connectivity
//! between the data path vertices." (paper §4.2)
//!
//! Nodes are placed one at a time on an integer grid: the next node is
//! always the unplaced node with the most connections to already-placed
//! nodes; it lands on the free cell minimizing total Manhattan distance
//! to its placed neighbors. Wire lengths are measured between cell
//! centers.
//!
//! # The search, and why it lives on a dense grid
//!
//! A node's cell is found by a spiral over square rings around the
//! (truncated) centroid of its placed neighbours — its *anchors*. The
//! result is the free cell minimizing `(cost, y, x)` among the rings
//! scanned; the scan stops after the first ring `r` at which a cell is
//! known and either `r` or the ring's distance bound
//! `Σ max(0, r − |c − a|₁)` exceeds the best cost (or past ring 512).
//!
//! That rule never picks a cell outside `B + 1`, the bounding box of
//! the cells placed so far grown by one. Take any cell `p` outside it
//! and clamp it onto `B + 1`: the clamped cell `q` lies outside `B`, so
//! it is free; it is no farther from the centroid (which lies in `B`)
//! on either axis, so the spiral reaches it no later than `p`; and it
//! is strictly closer to every anchor on the clamped axis, so it is
//! strictly cheaper. Hence `p` can never be the best cell, nor change
//! the best cost seen after any ring — which is all the stop rule
//! reads. (Without anchors every cell costs 0 and the scan stops at the
//! first ring holding a free cell, which `B + 1` contains.) By
//! induction `n` nodes occupy `[−(n−1), n−1]²`, so the placer keeps its
//! occupancy in a dense generation-stamped grid over `[−n−1, n+1]²`
//! and scans each ring clipped to `B + 1`, with the anchor cost
//! tabulated per axis (`Σ|x − aₓ| + Σ|y − a_y|`). A ring whose cheapest
//! cell — free or not, from the convex axis tables — already costs more
//! than the best so far is not scanned: none of its cells could win,
//! not even on the `(y, x)` tie-break. The rings, the tie-break and the
//! stop rule are the original ones, and since the result is the
//! minimum of a total order, the order cells are visited in within a
//! ring does not matter: every position is unchanged. The crate's
//! reference test replays the original hash-map placement against this
//! one.
//!
//! The adjacency is built once per placement in CSR form; the
//! next-node choice is a maximum over packed per-node keys whose
//! placed-neighbour counts are kept incrementally; and all working
//! memory lives in a per-thread `Placer` reused across calls, so a
//! warmed placement allocates nothing.

use std::cell::RefCell;

use hlts_etpn::{DataPath, DpNodeId};

/// A placement of every data-path node on an integer grid.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Floorplan {
    pos: Vec<(i32, i32)>,
}

impl Floorplan {
    /// Place the nodes of `dp` by the constructive connectivity
    /// heuristic. Deterministic for a given data path.
    #[must_use]
    pub fn place(dp: &DataPath) -> Self {
        with_placement(dp, |pos| Floorplan { pos: pos.to_vec() })
    }

    /// Grid position of a node.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range for the placed data path.
    #[must_use]
    pub fn position(&self, node: DpNodeId) -> (i32, i32) {
        self.pos[node.index()]
    }

    /// Manhattan wire length between two nodes, in grid units.
    #[must_use]
    pub fn wire_len(&self, a: DpNodeId, b: DpNodeId) -> f64 {
        wire_len(&self.pos, a, b)
    }

    /// Bounding-box half-perimeter of the whole plan (a chip-size
    /// indicator used in diagnostics).
    #[must_use]
    pub fn half_perimeter(&self) -> i32 {
        if self.pos.is_empty() {
            return 0;
        }
        let xs: Vec<i32> = self.pos.iter().map(|p| p.0).collect();
        let ys: Vec<i32> = self.pos.iter().map(|p| p.1).collect();
        (xs.iter().max().unwrap() - xs.iter().min().unwrap())
            + (ys.iter().max().unwrap() - ys.iter().min().unwrap())
    }
}

/// Manhattan distance between two placed nodes, in grid units.
pub(crate) fn wire_len(pos: &[(i32, i32)], a: DpNodeId, b: DpNodeId) -> f64 {
    let (xa, ya) = pos[a.index()];
    let (xb, yb) = pos[b.index()];
    f64::from((xa - xb).abs() + (ya - yb).abs())
}

thread_local! {
    static PLACER: RefCell<Placer> = RefCell::new(Placer::default());
}

/// Place `dp` with this thread's [`Placer`] and hand the node positions
/// (indexed by node) to `f`.
pub(crate) fn with_placement<R>(dp: &DataPath, f: impl FnOnce(&[(i32, i32)]) -> R) -> R {
    PLACER.with(|p| {
        let mut placer = p.borrow_mut();
        f(placer.place(dp))
    })
}

/// Reusable working memory of the placement; every buffer keeps its
/// capacity across calls.
#[derive(Debug, Default)]
struct Placer {
    /// CSR adjacency: neighbours of node `i` (one entry per non-loop
    /// arc end, so parallel arcs count) are `nbrs[start[i]..start[i+1]]`.
    start: Vec<u32>,
    nbrs: Vec<u32>,
    /// Fill cursor while building `nbrs`.
    fill: Vec<u32>,
    /// Selection key per unplaced node, packing (placed neighbours with
    /// multiplicity, degree, `u32::MAX − index`) so the next node is the
    /// key maximum; 0 once placed.
    rank: Vec<u128>,
    placed: Vec<bool>,
    pos: Vec<(i32, i32)>,
    /// Occupancy: cell `(x, y)` is taken iff
    /// `grid[(y + half) * stride + (x + half)] == stamp`.
    grid: Vec<u8>,
    stride: usize,
    stamp: u8,
    anchors: Vec<(i32, i32)>,
    /// Anchor distance of the centroid, `|c − a|₁` per anchor.
    anchor_dist: Vec<i64>,
    /// `Σ|x − aₓ|` for `x` in `x_lo..=x_hi`, and likewise for `y`.
    cost_x: Vec<i64>,
    cost_y: Vec<i64>,
}

impl Placer {
    /// Place every node of `dp`; returns the positions by node index.
    fn place(&mut self, dp: &DataPath) -> &[(i32, i32)] {
        let n = dp.num_nodes();
        self.pos.clear();
        if n == 0 {
            return &self.pos;
        }
        self.build_adjacency(dp);
        self.reset_grid(n);
        self.pos.resize(n, (0, 0));
        self.placed.clear();
        self.placed.resize(n, false);
        self.rank.clear();
        for i in 0..n {
            let degree = self.start[i + 1] - self.start[i];
            let id = u32::try_from(i).expect("data-path node ids are u32");
            self.rank
                .push(u128::from(degree) << 32 | u128::from(u32::MAX - id));
        }

        // seed: the most connected node at the origin (ties by id)
        let mut bbox = (0, 0, 0, 0);
        self.put(self.top_ranked(), (0, 0));

        for _ in 1..n {
            // next: unplaced node with most placed neighbors; ties by
            // total degree then id
            let next = self.top_ranked();
            self.anchors.clear();
            for k in self.start[next]..self.start[next + 1] {
                let j = self.nbrs[k as usize] as usize;
                if self.placed[j] {
                    self.anchors.push(self.pos[j]);
                }
            }
            let target = self.best_free_cell(bbox);
            self.put(next, target);
            let (x0, x1, y0, y1) = bbox;
            bbox = (
                x0.min(target.0),
                x1.max(target.0),
                y0.min(target.1),
                y1.max(target.1),
            );
        }
        &self.pos
    }

    /// The unplaced node of maximum rank (keys are distinct).
    fn top_ranked(&self) -> usize {
        let mut best = 0;
        for (i, &r) in self.rank.iter().enumerate() {
            if r > self.rank[best] {
                best = i;
            }
        }
        best
    }

    /// Connection lists with multiplicity, self-loops skipped, in CSR.
    fn build_adjacency(&mut self, dp: &DataPath) {
        let n = dp.num_nodes();
        self.start.clear();
        self.start.resize(n + 1, 0);
        for arc in dp.arcs() {
            let (a, b) = (arc.from().index(), arc.to().index());
            if a != b {
                self.start[a + 1] += 1;
                self.start[b + 1] += 1;
            }
        }
        for i in 0..n {
            self.start[i + 1] += self.start[i];
        }
        self.fill.clear();
        self.fill.extend_from_slice(&self.start[..n]);
        self.nbrs.clear();
        self.nbrs.resize(self.start[n] as usize, 0);
        for arc in dp.arcs() {
            let (a, b) = (arc.from().index(), arc.to().index());
            if a != b {
                self.nbrs[self.fill[a] as usize] = b as u32;
                self.fill[a] += 1;
                self.nbrs[self.fill[b] as usize] = a as u32;
                self.fill[b] += 1;
            }
        }
    }

    /// An empty grid covering `[−n−1, n+1]²`. The buffer only grows;
    /// a new stamp empties it without touching memory (one byte a cell,
    /// so once every 255 placements the buffer is zeroed).
    fn reset_grid(&mut self, n: usize) {
        let stride = 2 * n + 3;
        if stride > self.stride {
            self.stride = stride;
            self.grid.clear();
            self.grid.resize(stride * stride, 0);
            self.stamp = 0;
        }
        if self.stamp == u8::MAX {
            self.grid.fill(0);
            self.stamp = 0;
        }
        self.stamp += 1;
    }

    fn cell(&self, x: i32, y: i32) -> usize {
        let half = (self.stride / 2) as i32;
        (y + half) as usize * self.stride + (x + half) as usize
    }

    fn put(&mut self, node: usize, at: (i32, i32)) {
        self.pos[node] = at;
        self.placed[node] = true;
        self.rank[node] = 0;
        let c = self.cell(at.0, at.1);
        self.grid[c] = self.stamp;
        for k in self.start[node]..self.start[node + 1] {
            let j = self.nbrs[k as usize] as usize;
            if !self.placed[j] {
                self.rank[j] += 1 << 64;
            }
        }
    }

    /// The free cell minimizing total Manhattan distance to the anchors
    /// (spiral search around their centroid; origin when no anchor),
    /// given the bounding box `(x0, x1, y0, y1)` of the placed cells.
    fn best_free_cell(&mut self, (x0, x1, y0, y1): (i32, i32, i32, i32)) -> (i32, i32) {
        let anchors = &self.anchors;
        let (cx, cy) = if anchors.is_empty() {
            (0, 0)
        } else {
            (
                anchors.iter().map(|p| p.0).sum::<i32>() / anchors.len() as i32,
                anchors.iter().map(|p| p.1).sum::<i32>() / anchors.len() as i32,
            )
        };
        // The search region B + 1 (see the module docs).
        let (x_lo, x_hi, y_lo, y_hi) = (x0 - 1, x1 + 1, y0 - 1, y1 + 1);
        tabulate(&mut self.cost_x, anchors.iter().map(|a| a.0), x_lo, x_hi);
        tabulate(&mut self.cost_y, anchors.iter().map(|a| a.1), y_lo, y_hi);
        self.anchor_dist.clear();
        self.anchor_dist.extend(
            anchors
                .iter()
                .map(|&(ax, ay)| i64::from((cx - ax).abs() + (cy - ay).abs())),
        );

        // The axis costs are convex, so their minimum over a span is at
        // the span's point nearest a global minimizer.
        let (mx, my) = (
            argmin(&self.cost_x) as i32 + x_lo,
            argmin(&self.cost_y) as i32 + y_lo,
        );
        let cost_x = |x: i32| self.cost_x[(x - x_lo) as usize];
        let cost_y = |y: i32| self.cost_y[(y - y_lo) as usize];

        // Best so far as (cost, y, x): the lexicographic minimum.
        let mut best: Option<(i64, i32, i32)> = None;
        for radius in 0.. {
            // The square ring at `radius`, clipped to B + 1: its rows
            // span columns xa..=xb (never empty: the centroid lies in B),
            // its columns rows ya..=yb. At radius 0 the two rows are the
            // same cell, which the minimum does not mind.
            let (top, bottom) = (cy - radius, cy + radius);
            let (left, right) = (cx - radius, cx + radius);
            let (xa, xb) = (left.max(x_lo), right.min(x_hi));
            let (ya, yb) = ((top + 1).max(y_lo), (bottom - 1).min(y_hi));
            let rows = [top, bottom]
                .into_iter()
                .filter(|y| (y_lo..=y_hi).contains(y));
            let cols = [left, right]
                .into_iter()
                .filter(|x| ya <= yb && (x_lo..=x_hi).contains(x));
            // A ring is skipped when even its cheapest cell, free or not,
            // costs more than the best so far: it could not win, not even
            // on the (y, x) tie-break.
            let floor = rows
                .clone()
                .map(|y| cost_y(y) + cost_x(mx.clamp(xa, xb)))
                .chain(cols.clone().map(|x| cost_x(x) + cost_y(my.clamp(ya, yb))))
                .min();
            if best.is_none_or(|(bc, _, _)| floor.is_some_and(|f| f <= bc)) {
                let mut consider = |x: i32, y: i32| {
                    if self.grid[self.cell(x, y)] == self.stamp {
                        return;
                    }
                    let c = cost_x(x) + cost_y(y);
                    if best.is_none_or(|b| (c, y, x) < b) {
                        best = Some((c, y, x));
                    }
                };
                for y in rows {
                    for x in xa..=xb {
                        consider(x, y);
                    }
                }
                for x in cols {
                    for y in ya..=yb {
                        consider(x, y);
                    }
                }
            }
            // Once a candidate exists and the ring is beyond any possible
            // improvement, stop: distance to centroid grows with radius.
            if let Some((bc, _, _)) = best {
                let r = i64::from(radius);
                let lower_bound = self
                    .anchor_dist
                    .iter()
                    .map(|&d| (r - d).max(0))
                    .sum::<i64>();
                if r > bc || lower_bound > bc {
                    break;
                }
            }
            if radius > 512 {
                break; // safety bound for degenerate inputs
            }
        }
        let (_, y, x) = best.expect("grid has free cells");
        (x, y)
    }
}

/// Index of the first minimum of a non-empty table.
fn argmin(table: &[i64]) -> usize {
    let mut best = 0;
    for (i, &v) in table.iter().enumerate() {
        if v < table[best] {
            best = i;
        }
    }
    best
}

/// `table[v − lo] = Σ |v − a|` over `coords`, for `v` in `lo..=hi`.
fn tabulate(table: &mut Vec<i64>, coords: impl Iterator<Item = i32> + Clone, lo: i32, hi: i32) {
    table.clear();
    table.extend((lo..=hi).map(|v| {
        coords
            .clone()
            .map(|a| i64::from((v - a).abs()))
            .sum::<i64>()
    }));
}

#[cfg(test)]
mod tests {
    use super::*;
    use hlts_alloc::Allocation;
    use hlts_dfg::{DfgBuilder, OpKind};
    use hlts_etpn::Etpn;
    use hlts_sched::{list_schedule, ListPriority};

    fn sample_dp() -> DataPath {
        let mut b = DfgBuilder::new("t");
        let a = b.input("a");
        let c = b.input("c");
        let t = b.op("N1", OpKind::Add, &[a, c], "t").unwrap();
        let y = b.op("N2", OpKind::Mul, &[t, c], "y").unwrap();
        b.mark_output(y);
        let d = b.finish().unwrap();
        let s = list_schedule(&d, &[], ListPriority::CriticalPath).unwrap();
        let alloc = Allocation::one_to_one(&d);
        Etpn::from_parts(&d, &s, &alloc)
            .unwrap()
            .data_path()
            .clone()
    }

    #[test]
    fn every_node_gets_unique_cell() {
        let dp = sample_dp();
        let fp = Floorplan::place(&dp);
        let mut seen = std::collections::HashSet::new();
        for node in dp.nodes() {
            assert!(seen.insert(fp.position(node.id())), "cell reused");
        }
    }

    #[test]
    fn connected_nodes_are_close() {
        let dp = sample_dp();
        let fp = Floorplan::place(&dp);
        // average arc length should be small on a 9-node plan
        let total: f64 = dp
            .arcs()
            .iter()
            .map(|arc| fp.wire_len(arc.from(), arc.to()))
            .sum();
        let avg = total / dp.num_arcs() as f64;
        assert!(avg <= 3.0, "avg wire length {avg}");
    }

    #[test]
    fn deterministic() {
        let dp = sample_dp();
        assert_eq!(Floorplan::place(&dp), Floorplan::place(&dp));
    }

    #[test]
    fn empty_datapath() {
        let dp = DataPath::new();
        let fp = Floorplan::place(&dp);
        assert_eq!(fp.half_perimeter(), 0);
    }

    /// A data path of `n` port nodes wired by `arcs` (index pairs).
    fn wired(n: usize, arcs: &[(usize, usize)]) -> DataPath {
        let mut dp = DataPath::new();
        let ids: Vec<DpNodeId> = (0..n)
            .map(|i| {
                let v = hlts_dfg::ValueId::from_index(i);
                dp.add_node(hlts_etpn::DpNodeKind::PrimaryInput(v))
            })
            .collect();
        for (port, &(a, b)) in arcs.iter().enumerate() {
            dp.add_arc(ids[a], ids[b], port, []);
        }
        dp
    }

    /// The dense grid's premise: `n` placed nodes stay inside
    /// `[−n, n]²` (in fact `[−(n−1), n−1]²`), whatever the wiring —
    /// chains, stars, parallel arcs, self-loops, no arcs at all
    /// (every anchor set empty) and pseudo-random graphs.
    #[test]
    fn placement_stays_within_the_n_square() {
        let mut shapes: Vec<(String, DataPath)> = Vec::new();
        for n in [1, 2, 3, 7, 24, 60] {
            let chain: Vec<_> = (1..n).map(|i| (i - 1, i)).collect();
            shapes.push((format!("chain{n}"), wired(n, &chain)));
            let star: Vec<_> = (1..n).map(|i| (0, i)).collect();
            shapes.push((format!("star{n}"), wired(n, &star)));
            shapes.push((format!("isolated{n}"), wired(n, &[])));
            let mut x = (n as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
            let random: Vec<_> = (0..2 * n)
                .map(|_| {
                    x = x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
                    (((x >> 33) as usize) % n, ((x >> 13) as usize) % n)
                })
                .collect();
            shapes.push((format!("random{n}"), wired(n, &random)));
        }
        for (name, dp) in &shapes {
            let n = dp.num_nodes() as i32;
            let fp = Floorplan::place(dp);
            let mut seen = std::collections::HashSet::new();
            for node in dp.nodes() {
                let (x, y) = fp.position(node.id());
                assert!(
                    x.abs() < n.max(1) && y.abs() < n.max(1),
                    "{name}: ({x}, {y})"
                );
                assert!(seen.insert((x, y)), "{name}: cell ({x}, {y}) reused");
            }
        }
    }

    /// The occupancy stamp wraps every 255 placements, and the grid
    /// regrows when a larger data path arrives; no placement may see an
    /// earlier one's cells across either.
    #[test]
    fn reused_placer_forgets_earlier_placements() {
        let small = sample_dp();
        let chain: Vec<_> = (1..30).map(|i| (i - 1, i)).collect();
        let big = wired(30, &chain);
        let (want_small, want_big) = (Floorplan::place(&small), Floorplan::place(&big));
        for _ in 0..600 {
            assert_eq!(Floorplan::place(&small), want_small);
            assert_eq!(Floorplan::place(&big), want_big);
        }
    }

    #[test]
    fn wire_len_is_manhattan() {
        let dp = sample_dp();
        let fp = Floorplan::place(&dp);
        let a = dp.nodes()[0].id();
        let b = dp.nodes()[1].id();
        let (xa, ya) = fp.position(a);
        let (xb, yb) = fp.position(b);
        assert_eq!(
            fp.wire_len(a, b),
            f64::from((xa - xb).abs() + (ya - yb).abs())
        );
    }
}
