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
//! A node's cell is the free cell minimizing `(cost, y, x)` — `cost`
//! being the total Manhattan distance to its placed neighbours, its
//! *anchors* — among the square rings around the anchors' (truncated)
//! centroid that the search visits. The search visits rings by radius
//! and stops after the first ring `r` at which a cell is known and
//! either `r` or the ring's distance bound `Σ max(0, r − |c − a|₁)`
//! exceeds the best cost (or past ring 512).
//!
//! That rule never picks a cell outside `B + 1`, the bounding box of
//! the cells placed so far grown by one. Take any cell `p` outside it
//! and clamp it onto `B + 1`: the clamped cell `q` lies outside `B`, so
//! it is free; it is no farther from the centroid (which lies in `B`)
//! on either axis, so the spiral reaches it no later than `p`; and it
//! is strictly closer to every anchor on the clamped axis, so it is
//! strictly cheaper. Hence `p` can never be the best cell, nor change
//! the best cost seen after any ring — which is all the stop rule
//! reads. (Without anchors every cell costs 0 and the search stops at
//! the first ring holding a free cell, which `B + 1` contains.) By
//! induction `n` nodes occupy `[−(n−1), n−1]²`, so the placer keeps its
//! occupancy in a dense generation-stamped grid over `[−n−1, n+1]²`
//! and searches each ring clipped to `B + 1`. Once a ring encloses
//! `B + 1`, every later ring misses it, so the best cell is final and
//! the search stops there: the stop rule could only return that cell.
//!
//! # The outward line search, and why it is exact
//!
//! The cost splits per axis, `Σ|x − aₓ| + Σ|y − a_y|`, and each axis
//! term is convex; the placer tabulates both over `B + 1` in one pass
//! each, and with them the leftmost minimizer of each (a lower median
//! of the anchors' coordinates). A clipped ring is four straight sides.
//! Along a row side `y` is fixed, so the side's `(cost, y, x)` minimum
//! over free cells is its `(cost, x)` minimum; the cost is the convex
//! `x` term plus a constant. Let `p` be the `x` minimizer clamped onto
//! the side. Left of the leftmost minimizer a convex function strictly
//! decreases, and right of it it never decreases. So walking right
//! from `p`, cells never get cheaper and `x` grows: the first free cell
//! is the best one on that half. Walking left from `p − 1`, cells get
//! strictly dearer: the first free cell is the best one on that half.
//! Of the two, the cheaper wins, and on a tie the left one (smaller
//! `x`). A plateau of minimizers is why `p` must start from the
//! *leftmost* one: on a plateau only the rightward walk meets cells of
//! equal cost, and it meets them in increasing `x`. Columns are the
//! same with the axes swapped (ties to the smaller `y`). A walk also
//! stops at the first cell dearer than the best so far, and a side
//! whose cheapest cell — at `p`, free or not — already is dearer is not
//! searched: no cell there could win, not even on the `(y, x)`
//! tie-break. The rings, the tie-break and the stop rule are the
//! original ones, and since the result is the minimum of a total order
//! over the cells of the visited rings, every position is unchanged:
//! the crate's reference test replays the original cell-by-cell scan
//! over a hash map of taken cells against this search, on every
//! committed and every priced trial state of Algorithm 1.
//!
//! The adjacency is built once per placement in CSR form. The next
//! node is the maximum of packed per-node keys whose placed-neighbour
//! counts are kept incrementally, taken over the *frontier* — the
//! unplaced nodes with a placed neighbour, which outrank every other
//! node — and over all nodes only when the frontier is empty (a new
//! connected component). All working memory lives in a per-thread
//! `Placer` reused across calls, so a warmed placement allocates
//! nothing.

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
        let Some(&(x, y)) = self.pos.first() else {
            return 0;
        };
        let (mut x0, mut x1, mut y0, mut y1) = (x, x, y, y);
        for &(x, y) in &self.pos[1..] {
            (x0, x1) = (x0.min(x), x1.max(x));
            (y0, y1) = (y0.min(y), y1.max(y));
        }
        (x1 - x0) + (y1 - y0)
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
    /// The unplaced nodes with at least one placed neighbour, in no
    /// particular order: their keys exceed every other unplaced key.
    frontier: Vec<u32>,
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

/// The unplaced-neighbour increment of a selection key.
const PLACED_NEIGHBOUR: u128 = 1 << 64;

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
        self.frontier.clear();
        self.rank.clear();
        for i in 0..n {
            let degree = self.start[i + 1] - self.start[i];
            let id = u32::try_from(i).expect("data-path node ids are u32");
            self.rank
                .push(u128::from(degree) << 32 | u128::from(u32::MAX - id));
        }

        // seed: the most connected node at the origin (ties by id)
        let mut bbox = (0, 0, 0, 0);
        let seed = self.take_top_ranked();
        self.put(seed, (0, 0));

        for _ in 1..n {
            // next: unplaced node with most placed neighbors; ties by
            // total degree then id
            let next = self.take_top_ranked();
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

    /// The unplaced node of maximum rank (keys are distinct), taken off
    /// the frontier. Any frontier key outranks every key off it, so
    /// only an empty frontier needs the scan over all nodes (placed
    /// ones rank 0).
    fn take_top_ranked(&mut self) -> usize {
        let rank = &self.rank;
        if self.frontier.is_empty() {
            let mut best = 0;
            for (i, &r) in rank.iter().enumerate() {
                if r > rank[best] {
                    best = i;
                }
            }
            return best;
        }
        let mut at = 0;
        for (k, &i) in self.frontier.iter().enumerate() {
            if rank[i as usize] > rank[self.frontier[at] as usize] {
                at = k;
            }
        }
        self.frontier.swap_remove(at) as usize
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

    fn is_free(&self, x: i32, y: i32) -> bool {
        self.grid[self.cell(x, y)] != self.stamp
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
                if self.rank[j] < PLACED_NEIGHBOUR {
                    self.frontier.push(j as u32);
                }
                self.rank[j] += PLACED_NEIGHBOUR;
            }
        }
    }

    /// The free cell minimizing `(Σ anchor distance, y, x)` over the
    /// rings around the anchors' centroid (origin when no anchor) that
    /// the stop rule visits, given the bounding box `(x0, x1, y0, y1)`
    /// of the placed cells. See the module docs for the line search.
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
        let mx = tabulate(&mut self.cost_x, anchors.iter().map(|a| a.0), x_lo, x_hi);
        let my = tabulate(&mut self.cost_y, anchors.iter().map(|a| a.1), y_lo, y_hi);
        self.anchor_dist.clear();
        self.anchor_dist.extend(
            anchors
                .iter()
                .map(|&(ax, ay)| i64::from((cx - ax).abs() + (cy - ay).abs())),
        );
        let cost_x = |x: i32| self.cost_x[(x - x_lo) as usize];
        let cost_y = |y: i32| self.cost_y[(y - y_lo) as usize];

        // Best so far as (cost, y, x): the lexicographic minimum.
        let mut best: Option<(i64, i32, i32)> = None;
        for radius in 0.. {
            // The square ring at `radius`, clipped to B + 1: its rows
            // span columns xa..=xb (never empty: the centroid lies in B),
            // its columns rows ya..=yb. At radius 0 the ring is the
            // centroid's cell, searched once as the top row.
            let (top, bottom) = (cy - radius, cy + radius);
            let (left, right) = (cx - radius, cx + radius);
            let (xa, xb) = (left.max(x_lo), right.min(x_hi));
            let (ya, yb) = ((top + 1).max(y_lo), (bottom - 1).min(y_hi));
            let rows = if radius == 0 { 1 } else { 2 };
            for y in [top, bottom].into_iter().take(rows) {
                if (y_lo..=y_hi).contains(&y) {
                    let bound = best.map_or(i64::MAX, |b| b.0) - cost_y(y);
                    let hit = line_min(xa, xb, mx, bound, cost_x, |x| self.is_free(x, y));
                    offer(&mut best, hit.map(|(c, x)| (c + cost_y(y), y, x)));
                }
            }
            if ya <= yb {
                for x in [left, right] {
                    if (x_lo..=x_hi).contains(&x) {
                        let bound = best.map_or(i64::MAX, |b| b.0) - cost_x(x);
                        let hit = line_min(ya, yb, my, bound, cost_y, |y| self.is_free(x, y));
                        offer(&mut best, hit.map(|(c, y)| (c + cost_x(x), y, x)));
                    }
                }
            }
            // Every later ring lies wholly outside B + 1 once this one
            // encloses it: the best cell can no longer change, so the
            // original stop rule would return it too.
            if left <= x_lo && right >= x_hi && top <= y_lo && bottom >= y_hi {
                break;
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

/// The `(cost(t), t)` minimum over the free `t` in `lo..=hi` whose cost
/// is at most `bound`, for a convex `cost` whose leftmost minimizer is
/// `min_at`: the first free cell walking up from `min_at` (clamped onto
/// the span) against the first walking down from below it, the lower
/// one winning a tie (see the module docs).
fn line_min(
    lo: i32,
    hi: i32,
    min_at: i32,
    bound: i64,
    cost: impl Fn(i32) -> i64,
    free: impl Fn(i32) -> bool,
) -> Option<(i64, i32)> {
    let p = min_at.clamp(lo, hi);
    let mut up = None;
    for t in p..=hi {
        let c = cost(t);
        if c > bound {
            break;
        }
        if free(t) {
            up = Some((c, t));
            break;
        }
    }
    // Below `p` every step is strictly dearer; a tie with `up` goes to
    // the lower cell.
    let bound = up.map_or(bound, |(c, _)| c);
    for t in (lo..p).rev() {
        let c = cost(t);
        if c > bound {
            break;
        }
        if free(t) {
            return Some((c, t));
        }
    }
    up
}

/// Keep the lexicographic minimum of `best` and `cand`.
fn offer(best: &mut Option<(i64, i32, i32)>, cand: Option<(i64, i32, i32)>) {
    if let Some(c) = cand {
        if best.is_none_or(|b| c < b) {
            *best = Some(c);
        }
    }
}

/// `table[v − lo] = Σ |v − a|` over `coords` (which lie in `lo..=hi`),
/// for `v` in `lo..=hi`, in one pass; returns the index of the table's
/// first minimum. The table first counts the coordinates at each `v`;
/// from `v` to `v + 1` the sum grows by `2·#(a ≤ v) − k`, which turns
/// non-negative first at the leftmost minimizer.
fn tabulate(table: &mut Vec<i64>, coords: impl Iterator<Item = i32>, lo: i32, hi: i32) -> i32 {
    table.clear();
    table.resize((hi - lo + 1) as usize, 0);
    let (mut k, mut sum) = (0i64, 0i64);
    for a in coords {
        table[(a - lo) as usize] += 1;
        k += 1;
        sum += i64::from(a - lo);
    }
    let (mut below, mut argmin) = (0i64, None);
    for (i, slot) in table.iter_mut().enumerate() {
        below += *slot;
        *slot = sum;
        let slope = 2 * below - k;
        if slope >= 0 && argmin.is_none() {
            argmin = Some(i as i32);
        }
        sum += slope;
    }
    lo + argmin.expect("the slope is k ≥ 0 past every coordinate")
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

    /// The one-pass table holds the summed distances, and its returned
    /// minimizer is the table's first minimum: no coordinates (all 0),
    /// one, repeated ones, and even counts whose sums have a plateau.
    #[test]
    fn tabulate_matches_summed_distances() {
        let (lo, hi) = (-3, 6);
        for coords in [
            vec![],
            vec![2],
            vec![0, 3],
            vec![1, 1, 4, 4],
            vec![-2, 5, 5, 1, 0],
            vec![6, -3],
        ] {
            let mut table = Vec::new();
            let at = tabulate(&mut table, coords.iter().copied(), lo, hi);
            let want: Vec<i64> = (lo..=hi)
                .map(|v| coords.iter().map(|&a| i64::from((v - a).abs())).sum())
                .collect();
            assert_eq!(table, want, "{coords:?}");
            let min = want.iter().min().copied();
            let first = want.iter().position(|&c| Some(c) == min);
            assert_eq!(Some(at), first.map(|i| i as i32 + lo), "{coords:?}");
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
