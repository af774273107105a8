//! Thread-local traversal scratch for the graph queries on the
//! synthesis hot path (`reaches`, topological orders).
//!
//! The visited set is epoch-marked: clearing it between queries is a
//! single counter bump instead of a memset, and the backing vectors are
//! reused across calls, so a steady-state reachability query performs
//! no heap allocation. Keeping the scratch in TLS (rather than inside
//! [`Dfg`](crate::Dfg)) keeps the graph `Sync` — sweep workers share
//! one base state across scoped threads.

use std::cell::RefCell;

use crate::OpId;

pub(crate) struct TraversalScratch {
    /// `mark[i] == epoch` means op `i` was visited in the current query.
    mark: Vec<u32>,
    epoch: u32,
    /// DFS stack / BFS queue storage, reused across queries.
    pub(crate) stack: Vec<OpId>,
    /// In-degree counters for Kahn's algorithm, reused across queries.
    pub(crate) indeg: Vec<u32>,
}

thread_local! {
    static SCRATCH: RefCell<TraversalScratch> = const {
        RefCell::new(TraversalScratch {
            mark: Vec::new(),
            epoch: 0,
            stack: Vec::new(),
            indeg: Vec::new(),
        })
    };
}

impl TraversalScratch {
    /// Begin a query over `n` ops: grows the visited set if needed and
    /// starts a fresh epoch. Amortized allocation-free — the vectors
    /// only grow when a larger graph than ever before is queried.
    pub(crate) fn begin(&mut self, n: usize) {
        if self.mark.len() < n {
            self.mark.resize(n, 0);
        }
        if self.epoch == u32::MAX {
            self.mark.fill(0);
            self.epoch = 0;
        }
        self.epoch += 1;
        self.stack.clear();
    }

    /// Mark `op` visited; returns `true` if it was not yet visited in
    /// this epoch.
    pub(crate) fn visit(&mut self, op: OpId) -> bool {
        let m = &mut self.mark[op.index()];
        if *m == self.epoch {
            false
        } else {
            *m = self.epoch;
            true
        }
    }
}

/// Run `f` with the thread-local traversal scratch.
pub(crate) fn with<R>(f: impl FnOnce(&mut TraversalScratch) -> R) -> R {
    SCRATCH.with(|s| f(&mut s.borrow_mut()))
}
