//! The structural invariant auditor over a design triple.
//!
//! [`audit_design`] re-derives, from first principles, every invariant
//! the synthesis kernel is supposed to maintain and reports **all**
//! violations it finds. It deliberately shares no code with the
//! incremental machinery it checks: the binding roster is walked in
//! both directions, schedule legality is recomputed from the raw arc
//! lists, and lifetime disjointness is recomputed from a fresh
//! [`Lifetimes`] analysis — so a bug in the journaled undo path cannot
//! hide behind the same bug in the checker.

use std::fmt;

use hlts_alloc::Allocation;
use hlts_dfg::{Dfg, OpId, ValueId};
use hlts_sched::{Lifetimes, Schedule};

/// One violated invariant, with enough context to locate it.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum AuditViolation {
    /// The binding's op/value tables do not cover the graph.
    BindingShape {
        /// Human-readable description of the shape mismatch.
        detail: String,
    },
    /// An operation's module binding names a dead (absorbed) module.
    OpBoundToDeadModule {
        /// The operation.
        op: String,
    },
    /// A live module's roster and the per-op binding disagree.
    ModuleRosterMismatch {
        /// Human-readable description of the disagreement.
        detail: String,
    },
    /// A register-occupying value is bound to no register, or to a dead
    /// one.
    ValueUnbound {
        /// The value.
        value: String,
    },
    /// A live register's roster and the per-value binding disagree.
    RegisterRosterMismatch {
        /// Human-readable description of the disagreement.
        detail: String,
    },
    /// A hardwired value (constant or condition flag) is bound to a
    /// register.
    NeedlessRegister {
        /// The value.
        value: String,
    },
    /// A precedence relation (data edge or merge-imposed arc) is not
    /// respected by the schedule.
    PrecedenceViolated {
        /// Source operation.
        from: String,
        /// Target operation.
        to: String,
        /// Whether the arc is weak (`<=`) rather than strict (`<`).
        weak: bool,
        /// The two scheduled steps, source first.
        steps: (usize, usize),
    },
    /// An operation is scheduled at or past the schedule's latency.
    StepOutOfRange {
        /// The operation.
        op: String,
        /// Its step.
        step: usize,
        /// The schedule's latency.
        latency: usize,
    },
    /// Two operations sharing one module occupy the same control step.
    ModuleStepConflict {
        /// The module.
        module: String,
        /// The clashing operations.
        ops: (String, String),
        /// The shared step.
        step: usize,
    },
    /// Two values sharing one register have overlapping lifetimes.
    LifetimeOverlap {
        /// The register.
        register: String,
        /// The clashing values.
        values: (String, String),
    },
    /// An overlay arc references an operation outside the graph.
    ArcOutOfRange {
        /// Human-readable description of the offending arc.
        detail: String,
    },
    /// A strict overlay arc loops an operation onto itself.
    SelfArc {
        /// The operation.
        op: String,
    },
    /// The same arc appears twice in one overlay.
    DuplicateArc {
        /// Human-readable description of the duplicated arc.
        detail: String,
    },
    /// The strict precedence relation (data edges plus overlay) is
    /// cyclic.
    PrecedenceCycle {
        /// The cycle detector's message.
        detail: String,
    },
    /// The transaction counters are impossible: more transactions
    /// closed than opened, or more undo operations replayed than
    /// recorded.
    TxnImbalance {
        /// Human-readable description of the imbalance.
        detail: String,
    },
}

impl fmt::Display for AuditViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AuditViolation::BindingShape { detail } => {
                write!(f, "binding shape: {detail}")
            }
            AuditViolation::OpBoundToDeadModule { op } => {
                write!(f, "op `{op}` is bound to a dead module")
            }
            AuditViolation::ModuleRosterMismatch { detail } => {
                write!(f, "module roster: {detail}")
            }
            AuditViolation::ValueUnbound { value } => {
                write!(f, "value `{value}` occupies no live register")
            }
            AuditViolation::RegisterRosterMismatch { detail } => {
                write!(f, "register roster: {detail}")
            }
            AuditViolation::NeedlessRegister { value } => {
                write!(f, "hardwired value `{value}` is bound to a register")
            }
            AuditViolation::PrecedenceViolated {
                from,
                to,
                weak,
                steps,
            } => write!(
                f,
                "precedence `{from}` {} `{to}` violated (steps {} and {})",
                if *weak { "<=" } else { "<" },
                steps.0,
                steps.1
            ),
            AuditViolation::StepOutOfRange { op, step, latency } => {
                write!(f, "op `{op}` scheduled at step {step} >= latency {latency}")
            }
            AuditViolation::ModuleStepConflict { module, ops, step } => write!(
                f,
                "module {module}: ops `{}` and `{}` share step {step}",
                ops.0, ops.1
            ),
            AuditViolation::LifetimeOverlap { register, values } => write!(
                f,
                "register {register}: lifetimes of `{}` and `{}` overlap",
                values.0, values.1
            ),
            AuditViolation::ArcOutOfRange { detail } => {
                write!(f, "overlay arc out of range: {detail}")
            }
            AuditViolation::SelfArc { op } => {
                write!(f, "strict overlay arc loops `{op}` onto itself")
            }
            AuditViolation::DuplicateArc { detail } => {
                write!(f, "duplicate overlay arc: {detail}")
            }
            AuditViolation::PrecedenceCycle { detail } => {
                write!(f, "precedence relation is cyclic: {detail}")
            }
            AuditViolation::TxnImbalance { detail } => {
                write!(f, "transaction counters imbalanced: {detail}")
            }
        }
    }
}

/// Every violation [`audit_design`] found, in discovery order.
///
/// Renders (via [`fmt::Display`]) as the failed-audit report the CLI's
/// `--audit` flag prints: a headline count followed by one indented
/// line per violation.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct AuditReport {
    violations: Vec<AuditViolation>,
}

impl AuditReport {
    /// Whether the audit found nothing wrong.
    #[must_use]
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }

    /// The violations, in discovery order.
    #[must_use]
    pub fn violations(&self) -> &[AuditViolation] {
        &self.violations
    }

    /// Record a violation.
    pub fn push(&mut self, v: AuditViolation) {
        self.violations.push(v);
    }
}

impl fmt::Display for AuditReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_clean() {
            return write!(f, "audit: clean");
        }
        writeln!(f, "audit: {} violation(s)", self.violations.len())?;
        for v in &self.violations {
            writeln!(f, "  - {v}")?;
        }
        Ok(())
    }
}

/// Whether `value` occupies a register (mirrors the allocation layer's
/// convention: constants are hardwired, condition flags feed the
/// controller).
fn needs_register(dfg: &Dfg, value: ValueId) -> bool {
    let v = dfg.value(value);
    !v.kind().is_const() && !v.is_condition()
}

/// Audit the structural invariants of a (graph, schedule, allocation)
/// triple, collecting every violation.
///
/// Checks, in order: binding consistency in both directions, schedule
/// legality (precedence arcs, step ranges, module-sharing step
/// disjointness, register-sharing lifetime disjointness) and the
/// graph's arc-overlay well-formedness.
#[must_use]
pub fn audit_design(dfg: &Dfg, schedule: &Schedule, allocation: &Allocation) -> AuditReport {
    let mut report = AuditReport::default();
    audit_binding(dfg, allocation, &mut report);
    audit_schedule(dfg, schedule, &mut report);
    audit_sharing(dfg, schedule, allocation, &mut report);
    audit_overlay(dfg, &mut report);
    report
}

/// Binding consistency: the op→module and value→register maps cover
/// the graph, point at live entries, and agree with the live entries'
/// rosters in both directions.
fn audit_binding(dfg: &Dfg, allocation: &Allocation, report: &mut AuditReport) {
    if !allocation.covers(dfg) {
        report.push(AuditViolation::BindingShape {
            detail: format!(
                "binding tables sized for another graph ({} ops, {} values expected)",
                dfg.num_ops(),
                dfg.num_values()
            ),
        });
        return; // indices below would be meaningless
    }

    // Ops → modules, and back through the roster.
    for op in dfg.ops() {
        let m = allocation.module_of(op.id());
        match allocation.module(m) {
            None => report.push(AuditViolation::OpBoundToDeadModule {
                op: op.name().to_owned(),
            }),
            Some(module) if !module.ops().contains(&op.id()) => {
                report.push(AuditViolation::ModuleRosterMismatch {
                    detail: format!("op `{}` bound to {m} but absent from its roster", op.name()),
                });
            }
            Some(_) => {}
        }
    }
    // Modules → ops: every rostered op must be bound right back.
    for module in allocation.modules() {
        for &o in module.ops() {
            if o.index() >= dfg.num_ops() {
                report.push(AuditViolation::ModuleRosterMismatch {
                    detail: format!("{} lists out-of-range op index {}", module.id(), o.index()),
                });
            } else if allocation.module_of(o) != module.id() {
                report.push(AuditViolation::ModuleRosterMismatch {
                    detail: format!(
                        "{} lists op `{}` bound elsewhere",
                        module.id(),
                        dfg.op(o).name()
                    ),
                });
            }
        }
    }

    // Values → registers, and back.
    for v in dfg.values() {
        let binding = allocation.register_of(v.id());
        if needs_register(dfg, v.id()) {
            match binding.and_then(|r| allocation.register(r)) {
                None => report.push(AuditViolation::ValueUnbound {
                    value: v.name().to_owned(),
                }),
                Some(register) if !register.values().contains(&v.id()) => {
                    report.push(AuditViolation::RegisterRosterMismatch {
                        detail: format!(
                            "value `{}` bound to {} but absent from its roster",
                            v.name(),
                            register.id()
                        ),
                    });
                }
                Some(_) => {}
            }
        } else if binding.is_some() {
            report.push(AuditViolation::NeedlessRegister {
                value: v.name().to_owned(),
            });
        }
    }
    for register in allocation.registers() {
        for &val in register.values() {
            if val.index() >= dfg.num_values() {
                report.push(AuditViolation::RegisterRosterMismatch {
                    detail: format!(
                        "{} lists out-of-range value index {}",
                        register.id(),
                        val.index()
                    ),
                });
            } else if allocation.register_of(val) != Some(register.id()) {
                report.push(AuditViolation::RegisterRosterMismatch {
                    detail: format!(
                        "{} lists value `{}` bound elsewhere",
                        register.id(),
                        dfg.value(val).name()
                    ),
                });
            }
        }
    }
}

/// Schedule legality against the raw precedence relation: data edges
/// and strict overlay arcs need `step(from) < step(to)`, weak arcs
/// allow equality, and every step lies inside the latency.
fn audit_schedule(dfg: &Dfg, schedule: &Schedule, report: &mut AuditReport) {
    let latency = schedule.num_steps();
    for op in dfg.ops() {
        let step = schedule.step_of(op.id());
        if step >= latency {
            report.push(AuditViolation::StepOutOfRange {
                op: op.name().to_owned(),
                step,
                latency,
            });
        }
        // Data edges: each input defined strictly earlier.
        for &v in op.inputs() {
            if let Some(def) = dfg.def_of(v) {
                check_arc(dfg, schedule, def, op.id(), false, report);
            }
        }
    }
    for &(from, to) in dfg.extra_precedence() {
        if from.index() < dfg.num_ops() && to.index() < dfg.num_ops() {
            check_arc(dfg, schedule, from, to, false, report);
        }
    }
    for &(from, to) in dfg.weak_precedence() {
        if from.index() < dfg.num_ops() && to.index() < dfg.num_ops() {
            check_arc(dfg, schedule, from, to, true, report);
        }
    }
}

fn check_arc(
    dfg: &Dfg,
    schedule: &Schedule,
    from: OpId,
    to: OpId,
    weak: bool,
    report: &mut AuditReport,
) {
    let (sf, st) = (schedule.step_of(from), schedule.step_of(to));
    let ok = if weak { sf <= st } else { sf < st };
    if !ok {
        report.push(AuditViolation::PrecedenceViolated {
            from: dfg.op(from).name().to_owned(),
            to: dfg.op(to).name().to_owned(),
            weak,
            steps: (sf, st),
        });
    }
}

/// Sharing legality: module-sharing operations in pairwise distinct
/// steps, register-sharing values with disjoint lifetimes (recomputed
/// from a fresh analysis).
fn audit_sharing(
    dfg: &Dfg,
    schedule: &Schedule,
    allocation: &Allocation,
    report: &mut AuditReport,
) {
    if !allocation.covers(dfg) {
        return; // already reported as a shape violation
    }
    for module in allocation.modules() {
        let ops = module.ops();
        for (i, &a) in ops.iter().enumerate() {
            for &b in &ops[i + 1..] {
                if a.index() >= dfg.num_ops() || b.index() >= dfg.num_ops() {
                    continue; // roster mismatch already reported
                }
                let step = schedule.step_of(a);
                if step == schedule.step_of(b) {
                    report.push(AuditViolation::ModuleStepConflict {
                        module: module.id().to_string(),
                        ops: (dfg.op(a).name().to_owned(), dfg.op(b).name().to_owned()),
                        step,
                    });
                }
            }
        }
    }
    let lifetimes = Lifetimes::compute(dfg, schedule);
    for register in allocation.registers() {
        let values = register.values();
        for (i, &a) in values.iter().enumerate() {
            for &b in &values[i + 1..] {
                if a.index() >= dfg.num_values() || b.index() >= dfg.num_values() {
                    continue;
                }
                if !lifetimes.disjoint(a, b) {
                    report.push(AuditViolation::LifetimeOverlap {
                        register: register.id().to_string(),
                        values: (
                            dfg.value(a).name().to_owned(),
                            dfg.value(b).name().to_owned(),
                        ),
                    });
                }
            }
        }
    }
}

/// Arc-overlay well-formedness: in-range endpoints, no strict
/// self-arcs, no duplicates within an overlay, and an acyclic strict
/// relation.
fn audit_overlay(dfg: &Dfg, report: &mut AuditReport) {
    let n = dfg.num_ops();
    for (weak, arcs) in [
        (false, dfg.extra_precedence()),
        (true, dfg.weak_precedence()),
    ] {
        let label = if weak { "weak" } else { "strict" };
        for (i, &(from, to)) in arcs.iter().enumerate() {
            if from.index() >= n || to.index() >= n {
                report.push(AuditViolation::ArcOutOfRange {
                    detail: format!(
                        "{label} arc ({}, {}) in a graph of {n} ops",
                        from.index(),
                        to.index()
                    ),
                });
                continue;
            }
            if !weak && from == to {
                report.push(AuditViolation::SelfArc {
                    op: dfg.op(from).name().to_owned(),
                });
            }
            if arcs[..i].contains(&(from, to)) {
                report.push(AuditViolation::DuplicateArc {
                    detail: format!(
                        "{label} arc `{}` -> `{}`",
                        dfg.op(from).name(),
                        dfg.op(to).name()
                    ),
                });
            }
        }
    }
    if let Err(e) = dfg.topo_order() {
        report.push(AuditViolation::PrecedenceCycle {
            detail: e.to_string(),
        });
    }
}

/// Audit the transaction-layer counters for impossible balances.
///
/// The counters are cumulative and may be read while transactions are
/// open elsewhere (the counter block is shared across forks and
/// threads), so the check only asserts the relations that hold at
/// **every** instant: transactions cannot close (commit or roll back)
/// more often than they were opened, and undo operations cannot be
/// replayed more often than they were recorded.
pub fn audit_txn_balance(
    report: &mut AuditReport,
    begun: u64,
    committed: u64,
    rolled_back: u64,
    ops_recorded: u64,
    ops_replayed: u64,
) {
    if committed + rolled_back > begun {
        report.push(AuditViolation::TxnImbalance {
            detail: format!("{committed} committed + {rolled_back} rolled back > {begun} begun"),
        });
    }
    if ops_replayed > ops_recorded {
        report.push(AuditViolation::TxnImbalance {
            detail: format!("{ops_replayed} undo ops replayed > {ops_recorded} recorded"),
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hlts_dfg::{DfgBuilder, OpKind};
    use hlts_sched::{list_schedule, ListPriority};

    fn fixture() -> Dfg {
        let mut b = DfgBuilder::new("t");
        let a = b.input("a");
        let c = b.input("c");
        let t1 = b.op("N1", OpKind::Add, &[a, c], "t1").unwrap();
        let t2 = b.op("N2", OpKind::Add, &[a, c], "t2").unwrap();
        let y = b.op("N3", OpKind::Mul, &[t1, t2], "y").unwrap();
        b.mark_output(y);
        b.finish().unwrap()
    }

    fn triple() -> (Dfg, Schedule, Allocation) {
        let dfg = fixture();
        let allocation = Allocation::one_to_one(&dfg);
        let schedule = list_schedule(&dfg, &[], ListPriority::CriticalPath).unwrap();
        (dfg, schedule, allocation)
    }

    #[test]
    fn clean_initial_state_audits_clean() {
        let (dfg, schedule, allocation) = triple();
        let report = audit_design(&dfg, &schedule, &allocation);
        assert!(report.is_clean(), "{report}");
        assert_eq!(report.to_string(), "audit: clean");
    }

    #[test]
    fn module_step_conflict_is_detected() {
        let (dfg, schedule, _) = triple();
        // Bind the two same-step adds onto one module without the
        // required reschedule: an illegal sharing.
        let n1 = dfg.op_by_name("N1").unwrap();
        let n2 = dfg.op_by_name("N2").unwrap();
        let n3 = dfg.op_by_name("N3").unwrap();
        let values: Vec<Vec<_>> = dfg
            .values()
            .iter()
            .filter(|v| needs_register(&dfg, v.id()))
            .map(|v| vec![v.id()])
            .collect();
        let allocation = Allocation::from_groups(&dfg, &[vec![n1, n2], vec![n3]], &values).unwrap();
        let report = audit_design(&dfg, &schedule, &allocation);
        assert!(report
            .violations()
            .iter()
            .any(|v| matches!(v, AuditViolation::ModuleStepConflict { .. })));
        assert!(report.to_string().contains("share step"));
    }

    #[test]
    fn lifetime_overlap_is_detected() {
        let (dfg, schedule, _) = triple();
        // t1 and t2 are both born after step 0 and read in step 1:
        // sharing a register overlaps.
        let vt1 = dfg.value_by_name("t1").unwrap();
        let vt2 = dfg.value_by_name("t2").unwrap();
        let mut groups: Vec<Vec<_>> = dfg
            .values()
            .iter()
            .filter(|v| needs_register(&dfg, v.id()) && v.id() != vt1 && v.id() != vt2)
            .map(|v| vec![v.id()])
            .collect();
        groups.push(vec![vt1, vt2]);
        let ops: Vec<Vec<_>> = dfg.ops().iter().map(|o| vec![o.id()]).collect();
        let allocation = Allocation::from_groups(&dfg, &ops, &groups).unwrap();
        let report = audit_design(&dfg, &schedule, &allocation);
        assert!(report
            .violations()
            .iter()
            .any(|v| matches!(v, AuditViolation::LifetimeOverlap { .. })));
    }

    #[test]
    fn precedence_violation_is_detected() {
        let (mut dfg, schedule, allocation) = triple();
        // N1 and N2 are unordered (both feed N3) and share step 0 under
        // the stale schedule, so the new strict arc N2 -> N1 — legal
        // for the graph — is violated until a reschedule.
        let n1 = dfg.op_by_name("N1").unwrap();
        let n2 = dfg.op_by_name("N2").unwrap();
        dfg.add_precedence(n2, n1).unwrap();
        let report = audit_design(&dfg, &schedule, &allocation);
        assert!(report
            .violations()
            .iter()
            .any(|v| matches!(v, AuditViolation::PrecedenceViolated { weak: false, .. })));
    }

    #[test]
    fn txn_balance_flags_impossible_counters() {
        let mut report = AuditReport::default();
        audit_txn_balance(&mut report, 5, 3, 2, 10, 10);
        assert!(report.is_clean());
        audit_txn_balance(&mut report, 5, 4, 2, 10, 11);
        assert_eq!(report.violations().len(), 2);
        assert!(report.to_string().contains("transaction counters"));
    }

    #[test]
    fn shape_mismatch_short_circuits_index_checks() {
        let (dfg, schedule, _) = triple();
        let other = {
            let mut b = DfgBuilder::new("o");
            let a = b.input("a");
            let y = b.op("M1", OpKind::Add, &[a, a], "y").unwrap();
            b.mark_output(y);
            b.finish().unwrap()
        };
        let allocation = Allocation::one_to_one(&other);
        let report = audit_design(&dfg, &schedule, &allocation);
        assert!(report
            .violations()
            .iter()
            .any(|v| matches!(v, AuditViolation::BindingShape { .. })));
    }
}
