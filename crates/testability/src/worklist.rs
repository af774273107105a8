//! A sweep-indexed worklist that reproduces dense Gauss–Seidel order.
//!
//! The dense reference solver evaluates elements in ascending index
//! order, sweep after sweep, with in-place updates. To be bit-identical
//! to it, a worklist cannot be a plain FIFO: it must pop the pending
//! element with the smallest `(sweep, index)` pair, so that an accepted
//! change at index *i* during sweep *s* re-evaluates a dependent *j*
//! within the same sweep when `j > i` (dense has not reached it yet this
//! pass) and in sweep `s + 1` otherwise. [`Worklist::push_after`]
//! encodes exactly that rule.

/// Pending evaluations of the current sweep and the next, as two
/// bitsets over element indices, plus a cursor: the current sweep pops
/// in ascending index order from the cursor on. Sweeps beyond
/// `max_sweep` are silently dropped, mirroring the dense solver's
/// iteration cap.
///
/// A push lands in the current sweep or the next, never later — which
/// is all [`Worklist::push_after`] ever asks for — and a push into the
/// current sweep lies above the cursor, so popping the lowest set bit
/// gives the same `(sweep, index)` order as a sorted map of sweeps.
#[derive(Debug)]
pub(crate) struct Worklist {
    current: Vec<u64>,
    next: Vec<u64>,
    /// Whether any bit of `next` is set.
    next_pending: bool,
    /// The sweep `current` holds (1-based).
    sweep: u32,
    /// First index of `current` not yet popped.
    cursor: usize,
    max_sweep: u32,
}

impl Worklist {
    /// An empty worklist over elements `0..len`, at sweep 1.
    pub(crate) fn new(max_sweep: u32, len: usize) -> Self {
        let words = len.div_ceil(64);
        Worklist {
            current: vec![0; words],
            next: vec![0; words],
            next_pending: false,
            sweep: 1,
            cursor: 0,
            max_sweep,
        }
    }

    /// Schedule element `idx` for evaluation in `sweep` (1-based): the
    /// current sweep (above the cursor) or the next one.
    pub(crate) fn push(&mut self, sweep: u32, idx: usize) {
        if !(1..=self.max_sweep).contains(&sweep) {
            return;
        }
        let bit = 1u64 << (idx % 64);
        if sweep == self.sweep {
            debug_assert!(idx >= self.cursor, "push below the cursor of sweep {sweep}");
            self.current[idx / 64] |= bit;
        } else {
            debug_assert_eq!(sweep, self.sweep + 1, "push beyond the next sweep");
            self.next[idx / 64] |= bit;
            self.next_pending = true;
        }
    }

    /// Schedule dependent `idx` after an accepted change at `cur_idx`
    /// during `sweep`: same sweep if dense would still reach it this
    /// pass (`idx > cur_idx`), next sweep otherwise.
    pub(crate) fn push_after(&mut self, sweep: u32, cur_idx: usize, idx: usize) {
        if idx > cur_idx {
            self.push(sweep, idx);
        } else {
            self.push(sweep + 1, idx);
        }
    }

    /// Pop the pending element with the smallest `(sweep, index)`.
    pub(crate) fn pop(&mut self) -> Option<(u32, usize)> {
        loop {
            let mut word = self.cursor / 64;
            if word < self.current.len() {
                // Bits below the cursor in its word are already popped.
                let mut bits = self.current[word] & (!0u64 << (self.cursor % 64));
                loop {
                    if bits != 0 {
                        let idx = word * 64 + bits.trailing_zeros() as usize;
                        self.current[word] &= !(1u64 << (idx % 64));
                        self.cursor = idx + 1;
                        return Some((self.sweep, idx));
                    }
                    word += 1;
                    if word == self.current.len() {
                        break;
                    }
                    bits = self.current[word];
                }
            }
            if !self.next_pending {
                return None;
            }
            // `current` is all popped, hence all zero: it becomes `next`.
            std::mem::swap(&mut self.current, &mut self.next);
            self.next_pending = false;
            self.sweep += 1;
            self.cursor = 0;
        }
    }
}

#[cfg(test)]
mod tests {
    use std::collections::{BTreeMap, BTreeSet};

    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    use super::*;

    /// The sorted-map worklist the bitsets replaced, kept as the
    /// reference their pop order is checked against: any sweep, any
    /// index, popped by smallest `(sweep, index)`.
    struct Reference {
        sweeps: BTreeMap<u32, BTreeSet<usize>>,
        max_sweep: u32,
    }

    impl Reference {
        fn new(max_sweep: u32) -> Self {
            Reference {
                sweeps: BTreeMap::new(),
                max_sweep,
            }
        }

        fn push(&mut self, sweep: u32, idx: usize) {
            if (1..=self.max_sweep).contains(&sweep) {
                self.sweeps.entry(sweep).or_default().insert(idx);
            }
        }

        fn push_after(&mut self, sweep: u32, cur_idx: usize, idx: usize) {
            if idx > cur_idx {
                self.push(sweep, idx);
            } else {
                self.push(sweep + 1, idx);
            }
        }

        fn pop(&mut self) -> Option<(u32, usize)> {
            let (&sweep, set) = self.sweeps.iter_mut().next()?;
            let idx = set.pop_first().expect("sweep sets are never left empty");
            if set.is_empty() {
                self.sweeps.remove(&sweep);
            }
            Some((sweep, idx))
        }
    }

    /// Random `push` / `push_after` / `pop` sequences, as the solver
    /// issues them, pop the same elements in the same order from the
    /// bitsets and the reference — including pushes the cap drops.
    #[test]
    fn matches_the_sorted_map_reference() {
        let mut rng = StdRng::seed_from_u64(0x5EED_0025);
        for case in 0..2000 {
            let max_sweep = rng.gen_range(1..9) as u32;
            let len = rng.gen_range(1..301);
            let mut wl = Worklist::new(max_sweep, len);
            let mut reference = Reference::new(max_sweep);
            // Seeds: a random subset in sweep 1, as the solver seeds.
            for idx in 0..len {
                if rng.gen_bool(0.5) {
                    wl.push(1, idx);
                    reference.push(1, idx);
                }
            }
            // The last pop, and the first index the current sweep may
            // still take.
            let mut last: Option<(u32, usize)> = None;
            let mut sweep = 1u32;
            let mut floor = 0usize;
            let mut pops = Vec::new();
            for _ in 0..4 * len {
                match rng.gen_range(0..4) {
                    0 => {
                        let got = wl.pop();
                        assert_eq!(got, reference.pop(), "case {case}: pop after {pops:?}");
                        let Some((s, i)) = got else { break };
                        pops.push((s, i));
                        last = got;
                        (sweep, floor) = (s, i + 1);
                    }
                    1 => {
                        // A dependent of the last pop, below, at or above it.
                        if let Some((s, i)) = last {
                            let idx = rng.gen_range(0..len);
                            wl.push_after(s, i, idx);
                            reference.push_after(s, i, idx);
                        }
                    }
                    2 => {
                        // The next sweep, which the cap may drop.
                        let idx = rng.gen_range(0..len);
                        wl.push(sweep + 1, idx);
                        reference.push(sweep + 1, idx);
                    }
                    _ => {
                        // The current sweep above the cursor, or sweep 0.
                        if floor < len {
                            let idx = rng.gen_range(floor..len);
                            let s = if rng.gen_bool(0.1) { 0 } else { sweep };
                            wl.push(s, idx);
                            reference.push(s, idx);
                        }
                    }
                }
            }
            // Drain both.
            loop {
                let got = wl.pop();
                assert_eq!(got, reference.pop(), "case {case}: drain after {pops:?}");
                let Some(p) = got else { break };
                pops.push(p);
            }
        }
    }

    #[test]
    fn pops_in_sweep_then_index_order() {
        let mut wl = Worklist::new(4, 16);
        wl.push(2, 1);
        wl.push(1, 7);
        wl.push(1, 3);
        wl.push(2, 0);
        assert_eq!(wl.pop(), Some((1, 3)));
        assert_eq!(wl.pop(), Some((1, 7)));
        assert_eq!(wl.pop(), Some((2, 0)));
        assert_eq!(wl.pop(), Some((2, 1)));
        assert_eq!(wl.pop(), None);
    }

    #[test]
    fn push_after_follows_gauss_seidel_visibility() {
        let mut wl = Worklist::new(4, 16);
        wl.push_after(1, 5, 9); // downstream: same sweep
        wl.push_after(1, 5, 2); // upstream: next sweep
        wl.push_after(1, 5, 5); // self-loop: next sweep
        assert_eq!(wl.pop(), Some((1, 9)));
        assert_eq!(wl.pop(), Some((2, 2)));
        assert_eq!(wl.pop(), Some((2, 5)));
    }

    #[test]
    fn drops_sweeps_beyond_the_cap() {
        let mut wl = Worklist::new(2, 16);
        wl.push(3, 0);
        wl.push_after(2, 5, 1); // would be sweep 3
        wl.push(0, 4); // sweep 0 is seeds, never scheduled
        assert_eq!(wl.pop(), None);
    }

    #[test]
    fn dedupes_within_a_sweep() {
        let mut wl = Worklist::new(4, 16);
        wl.push(1, 2);
        wl.push(1, 2);
        assert_eq!(wl.pop(), Some((1, 2)));
        assert_eq!(wl.pop(), None);
    }
}
