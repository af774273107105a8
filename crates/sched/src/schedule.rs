use std::cell::RefCell;
use std::fmt;
use std::mem;

use hlts_dfg::{Dfg, OpId};

use crate::{GroupSource, SchedError};

/// An assignment of every operation of a [`Dfg`] to a 0-based control step.
///
/// A schedule is *legal* for a graph when every precedence arc
/// `a -> b` satisfies `step(a) < step(b)` ([`Schedule::validate`]), and
/// legal for a binding when operations sharing a functional unit occupy
/// pairwise distinct steps ([`Schedule::validate_groups`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Schedule {
    step_of: Vec<usize>,
    latency: usize,
}

impl Schedule {
    /// Build a schedule from a per-operation step vector (indexed by
    /// [`OpId::index`]).
    ///
    /// The latency is `max(step) + 1` (or 0 for an empty vector).
    #[must_use]
    pub fn from_step_vec(step_of: Vec<usize>) -> Self {
        let latency = step_of.iter().copied().max().map_or(0, |m| m + 1);
        Schedule { step_of, latency }
    }

    /// A 64-bit fingerprint of the full step assignment (FNV-1a over
    /// the per-op step vector). Two schedules of the same graph collide
    /// only if they assign every operation the same step — used to key
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
        mix(self.step_of.len() as u64);
        for &s in &self.step_of {
            mix(s as u64);
        }
        h
    }

    /// The control step of `op`.
    ///
    /// # Panics
    ///
    /// Panics if `op` is out of range for the scheduled graph.
    #[must_use]
    pub fn step_of(&self, op: OpId) -> usize {
        self.step_of[op.index()]
    }

    /// Number of control steps (latency).
    #[must_use]
    pub fn num_steps(&self) -> usize {
        self.latency
    }

    /// Number of scheduled operations.
    #[must_use]
    pub fn num_ops(&self) -> usize {
        self.step_of.len()
    }

    /// Operations scheduled in `step`, in id order.
    #[must_use]
    pub fn ops_in_step(&self, step: usize) -> Vec<OpId> {
        (0..self.step_of.len())
            .filter(|&i| self.step_of[i] == step)
            .map(OpId::from_index)
            .collect()
    }

    /// The per-step operation lists, `0..num_steps()`.
    #[must_use]
    pub fn steps(&self) -> Vec<Vec<OpId>> {
        let mut steps = vec![Vec::new(); self.latency];
        for (i, &s) in self.step_of.iter().enumerate() {
            steps[s].push(OpId::from_index(i));
        }
        steps
    }

    /// Check that the schedule covers `dfg` and respects its full
    /// precedence relation (data dependences plus extra arcs).
    ///
    /// # Errors
    ///
    /// [`SchedError::IncompleteSchedule`] or
    /// [`SchedError::PrecedenceViolated`].
    pub fn validate(&self, dfg: &Dfg) -> Result<(), SchedError> {
        if self.step_of.len() != dfg.num_ops() {
            return Err(SchedError::IncompleteSchedule {
                expected: dfg.num_ops(),
                got: self.step_of.len(),
            });
        }
        for op in dfg.ops() {
            for p in dfg.preds(op.id()) {
                if self.step_of[p.index()] >= self.step_of[op.id().index()] {
                    return Err(SchedError::PrecedenceViolated {
                        from: dfg.op(p).name().to_owned(),
                        to: op.name().to_owned(),
                    });
                }
            }
            for &p in dfg.weak_preds(op.id()) {
                if self.step_of[p.index()] > self.step_of[op.id().index()] {
                    return Err(SchedError::PrecedenceViolated {
                        from: dfg.op(p).name().to_owned(),
                        to: op.name().to_owned(),
                    });
                }
            }
        }
        Ok(())
    }

    /// Check that operations inside each conflict group occupy pairwise
    /// distinct steps (required when they share one functional unit).
    ///
    /// # Errors
    ///
    /// [`SchedError::GroupConflict`] naming the first clashing pair.
    pub fn validate_groups(&self, dfg: &Dfg, groups: &[Vec<OpId>]) -> Result<(), SchedError> {
        self.validate_groups_src(dfg, groups)
    }

    /// [`Schedule::validate_groups`] generalized over any
    /// [`GroupSource`] — validating directly against e.g. a module
    /// binding's own operation lists, without building a
    /// `Vec<Vec<OpId>>`. Allocation-free on success.
    ///
    /// # Errors
    ///
    /// [`SchedError::GroupConflict`] naming the first clashing pair.
    pub fn validate_groups_src(
        &self,
        dfg: &Dfg,
        groups: impl GroupSource,
    ) -> Result<(), SchedError> {
        let mut bad: Option<SchedError> = None;
        groups.for_each_group(|_, group| {
            if bad.is_some() {
                return;
            }
            for (i, &a) in group.iter().enumerate() {
                for &b in &group[i + 1..] {
                    if self.step_of[a.index()] == self.step_of[b.index()] {
                        bad = Some(SchedError::GroupConflict {
                            a: dfg.op(a).name().to_owned(),
                            b: dfg.op(b).name().to_owned(),
                            step: self.step_of[a.index()],
                        });
                        return;
                    }
                }
            }
        });
        match bad {
            None => Ok(()),
            Some(e) => Err(e),
        }
    }

    /// The raw per-op step assignment, indexed by [`OpId::index`].
    #[must_use]
    pub fn step_slice(&self) -> &[usize] {
        &self.step_of
    }

    /// Overwrite this schedule's assignment with `steps`, returning the
    /// journaled difference (one `(op, previous step)` move per changed
    /// operation — the same record [`Schedule::delta_from`] produces).
    /// The delta's move buffer comes from a thread-local pool and this
    /// schedule's storage is reused, so the steady state allocates
    /// nothing.
    ///
    /// # Panics
    ///
    /// Panics if `steps` has a different length (the schedules must
    /// belong to the same graph).
    pub fn replace_steps(&mut self, steps: &[usize]) -> ScheduleDelta {
        assert_eq!(
            self.step_of.len(),
            steps.len(),
            "schedule delta requires schedules of the same graph"
        );
        let mut moves = delta_pool_acquire();
        for (i, (&now, was)) in steps.iter().zip(&mut self.step_of).enumerate() {
            if now != *was {
                moves.push((OpId::from_index(i), *was));
                *was = now;
            }
        }
        self.latency = self.step_of.iter().copied().max().map_or(0, |m| m + 1);
        ScheduleDelta { moves }
    }

    /// The fine-grained moves that turned `prev` into `self`: one
    /// `(op, previous step)` record per operation whose step changed.
    /// This is the schedule half of the synthesis transaction journal —
    /// a tentative reschedule is undone by [`Schedule::revert`]ing the
    /// delta instead of keeping a full copy of the old assignment.
    ///
    /// # Panics
    ///
    /// Panics if the two schedules cover different operation counts
    /// (they must belong to the same graph).
    #[must_use]
    pub fn delta_from(&self, prev: &Schedule) -> ScheduleDelta {
        assert_eq!(
            self.step_of.len(),
            prev.step_of.len(),
            "schedule delta requires schedules of the same graph"
        );
        let mut moves = delta_pool_acquire();
        moves.extend(
            self.step_of
                .iter()
                .zip(&prev.step_of)
                .enumerate()
                .filter(|(_, (now, was))| now != was)
                .map(|(i, (_, &was))| (OpId::from_index(i), was)),
        );
        ScheduleDelta { moves }
    }

    /// Undo a [`ScheduleDelta`] taken against this schedule's
    /// predecessor: every moved operation returns to its previous step
    /// and the latency is recomputed. After
    /// `let d = new.delta_from(&old);` the call `new.revert(&d)` makes
    /// `new` bit-identical to `old` (the latency invariant
    /// `max(step) + 1` is re-established, exactly as
    /// [`Schedule::from_step_vec`] computes it).
    pub fn revert(&mut self, delta: &ScheduleDelta) {
        for &(op, was) in &delta.moves {
            self.step_of[op.index()] = was;
        }
        self.latency = self.step_of.iter().copied().max().map_or(0, |m| m + 1);
    }

    /// Render the schedule as a step-by-step listing using the graph's
    /// operation names — the form of the paper's Figures 2 and 3.
    #[must_use]
    pub fn render(&self, dfg: &Dfg) -> String {
        let mut out = String::new();
        for (s, ops) in self.steps().iter().enumerate() {
            let names: Vec<&str> = ops.iter().map(|&o| dfg.op(o).name()).collect();
            out.push_str(&format!("step {:>2}: {}\n", s, names.join("  ")));
        }
        out
    }
}

/// The recorded difference between two schedules of one graph: which
/// operations moved and where they were. Produced by
/// [`Schedule::delta_from`]/[`Schedule::replace_steps`], undone by
/// [`Schedule::revert`].
///
/// Move buffers are recycled through a thread-local pool on drop, so
/// the journal of a steady-state trial-and-rollback cycle reuses
/// capacity instead of allocating.
#[derive(Debug, PartialEq, Eq)]
pub struct ScheduleDelta {
    /// `(op, previous step)` for every operation whose step changed.
    moves: Vec<(OpId, usize)>,
}

// Thread-local recycling pool for delta move buffers (bounded so a
// pathological burst of deltas cannot pin memory).
thread_local! {
    static DELTA_POOL: RefCell<Vec<Vec<(OpId, usize)>>> = const { RefCell::new(Vec::new()) };
}
const DELTA_POOL_CAP: usize = 64;

fn delta_pool_acquire() -> Vec<(OpId, usize)> {
    DELTA_POOL
        .with(|p| p.borrow_mut().pop())
        .unwrap_or_default()
}

impl Drop for ScheduleDelta {
    fn drop(&mut self) {
        let mut moves = mem::take(&mut self.moves);
        if moves.capacity() > 0 {
            moves.clear();
            DELTA_POOL.with(|p| {
                let mut p = p.borrow_mut();
                if p.len() < DELTA_POOL_CAP {
                    p.push(moves);
                }
            });
        }
    }
}

impl Clone for ScheduleDelta {
    fn clone(&self) -> Self {
        let mut moves = delta_pool_acquire();
        moves.extend_from_slice(&self.moves);
        ScheduleDelta { moves }
    }
}

impl ScheduleDelta {
    /// Number of per-operation moves recorded.
    #[must_use]
    pub fn len(&self) -> usize {
        self.moves.len()
    }

    /// Whether the two schedules were identical.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.moves.is_empty()
    }
}

impl fmt::Display for Schedule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "schedule({} ops in {} steps)",
            self.step_of.len(),
            self.latency
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hlts_dfg::{DfgBuilder, OpKind};

    fn two_op_dfg() -> Dfg {
        let mut b = DfgBuilder::new("t");
        let a = b.input("a");
        let c = b.input("c");
        let t1 = b.op("N1", OpKind::Add, &[a, c], "t1").unwrap();
        let y = b.op("N2", OpKind::Mul, &[t1, c], "y").unwrap();
        b.mark_output(y);
        b.finish().unwrap()
    }

    #[test]
    fn step_queries() {
        let s = Schedule::from_step_vec(vec![0, 1]);
        assert_eq!(s.num_steps(), 2);
        assert_eq!(s.step_of(OpId::from_index(1)), 1);
        assert_eq!(s.ops_in_step(0), vec![OpId::from_index(0)]);
        assert_eq!(s.steps().len(), 2);
    }

    #[test]
    fn validate_accepts_legal() {
        let d = two_op_dfg();
        Schedule::from_step_vec(vec![0, 1]).validate(&d).unwrap();
    }

    #[test]
    fn validate_rejects_precedence_violation() {
        let d = two_op_dfg();
        let e = Schedule::from_step_vec(vec![1, 1])
            .validate(&d)
            .unwrap_err();
        assert!(matches!(e, SchedError::PrecedenceViolated { .. }));
        let e = Schedule::from_step_vec(vec![1, 0])
            .validate(&d)
            .unwrap_err();
        assert!(matches!(e, SchedError::PrecedenceViolated { .. }));
    }

    #[test]
    fn validate_rejects_incomplete() {
        let d = two_op_dfg();
        let e = Schedule::from_step_vec(vec![0]).validate(&d).unwrap_err();
        assert!(matches!(e, SchedError::IncompleteSchedule { .. }));
    }

    #[test]
    fn group_conflicts_detected() {
        let mut b = DfgBuilder::new("t");
        let a = b.input("a");
        let c = b.input("c");
        b.op("N1", OpKind::Add, &[a, c], "t1").unwrap();
        b.op("N2", OpKind::Add, &[a, c], "t2").unwrap();
        let d = b.finish().unwrap();
        let s = Schedule::from_step_vec(vec![0, 0]);
        let groups = vec![vec![OpId::from_index(0), OpId::from_index(1)]];
        let e = s.validate_groups(&d, &groups).unwrap_err();
        assert!(matches!(e, SchedError::GroupConflict { step: 0, .. }));
        let s2 = Schedule::from_step_vec(vec![0, 1]);
        s2.validate_groups(&d, &groups).unwrap();
    }

    #[test]
    fn render_lists_names() {
        let d = two_op_dfg();
        let s = Schedule::from_step_vec(vec![0, 1]);
        let r = s.render(&d);
        assert!(r.contains("step  0: N1"));
        assert!(r.contains("step  1: N2"));
    }
}
