//! Candidate merge-pair enumeration and C/O-balance ranking
//! (Algorithm 1, line 6).
//!
//! Everything a pair test needs is computed once per call, before the
//! pair loops: one [`NodeProfile`] per module and register node (looked
//! up by binding id instead of a node scan per pair), and bit rows over
//! the binding — register → consuming operations for the
//! common-consumer veto, module → read / written registers and
//! register → producing / consuming modules for the self-loop
//! penalties. A pair is then a handful of word-wise intersections.
//! The rows hold exactly the sets the per-pair scans collected, so every
//! verdict, score and emitted pair is unchanged.
//!
//! Candidates are ranked by balance, best first; equal scores fall back
//! to the order of the kinds' `Debug` strings, which is what the ranking
//! has always used. [`tie_key`] reproduces that order with integers —
//! `Modules` before `Registers`, then each id compared as a decimal
//! string, a prefix first (`ModuleId(10)` before `ModuleId(2)`) — so no
//! string is built, and each candidate's sort key is computed once
//! rather than per comparison. The ranking is unchanged.

use std::cmp::Reverse;

use hlts_alloc::{ModuleId, RegisterId};
use hlts_dfg::Dfg;
use hlts_etpn::{DataPath, DpNodeKind};
use hlts_testability::{balance_score_profiles, NodeProfile, TestabilityAnalysis};

use crate::DesignState;

/// What a candidate proposes to merge.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MergeKind {
    /// Merge two functional modules.
    Modules(ModuleId, ModuleId),
    /// Merge two registers.
    Registers(RegisterId, RegisterId),
}

/// A scored merge candidate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MergeCandidate {
    /// The proposed merger.
    pub kind: MergeKind,
    /// Controllability/observability balance score (higher = more
    /// complementary profiles), minus the self-loop penalty.
    pub balance: f64,
}

/// Penalty subtracted from the balance score when a merger would create
/// a structural register↔module self-loop — the loops §3 of the paper
/// singles out as the reason connectivity-driven designs are hard to
/// test.
const SELF_LOOP_PENALTY: f64 = 0.5;

/// Enumerate every legal merge pair of the current design, scored by the
/// C/O balance principle, best first: the shortlist order in which
/// Algorithm 1 prices candidates under [`SelectionPolicy::CoBalance`],
/// given the state's structural data path and its analysis.
///
/// [`SelectionPolicy::CoBalance`]: crate::SelectionPolicy::CoBalance
///
/// Legality here is the cheap structural filter (functional-unit
/// compatibility for modules; no common consumer for registers); the
/// full scheduling feasibility is established when a candidate is
/// tentatively applied.
#[must_use]
pub fn enumerate_candidates(
    state: &DesignState,
    dp: &DataPath,
    analysis: &TestabilityAnalysis,
) -> Vec<MergeCandidate> {
    let dfg = &state.dfg;
    let alloc = &state.allocation;
    let sets = BindingSets::of(state);
    let mut out = Vec::new();

    // One profile per binding unit, by id: the first data-path node
    // carrying it, as a node lookup would find.
    let mut module_profile: Vec<Option<NodeProfile>> = vec![None; sets.module_slots];
    let mut register_profile: Vec<Option<NodeProfile>> = vec![None; sets.register_slots];
    for node in dp.nodes() {
        let slot = match node.kind() {
            DpNodeKind::Module { id, .. } => module_profile.get_mut(id.index()),
            DpNodeKind::Register(r) => register_profile.get_mut(r.index()),
            _ => None,
        };
        if let Some(slot @ None) = slot {
            *slot = Some(NodeProfile::of(analysis, dp, node.id()));
        }
    }

    // Module pairs. Iterating the live entries directly (rather than
    // collected ids re-looked-up) keeps the loop total: there is no
    // dead-id case to assert away.
    let modules: Vec<&hlts_alloc::Module> = alloc.modules().collect();
    for (i, &ma) in modules.iter().enumerate() {
        for &mb in &modules[i + 1..] {
            let (a, b) = (ma.id(), mb.id());
            let compatible = ma.ops().iter().all(|&oa| {
                mb.ops().iter().all(|&ob| {
                    dfg.op(oa)
                        .kind()
                        .fu_class()
                        .compatible(dfg.op(ob).kind().fu_class())
                })
            });
            if !compatible {
                continue;
            }
            let (Some(pa), Some(pb)) = (module_profile[a.index()], module_profile[b.index()])
            else {
                continue;
            };
            let mut score = balance_score_profiles(pa, pb);
            if sets.creates_module_self_loop(a, b) {
                score -= SELF_LOOP_PENALTY;
            }
            out.push(MergeCandidate {
                kind: MergeKind::Modules(a, b),
                balance: score,
            });
        }
    }

    // Register pairs.
    let registers: Vec<RegisterId> = alloc.registers().map(|r| r.id()).collect();
    for (i, &a) in registers.iter().enumerate() {
        for &b in &registers[i + 1..] {
            if sets.has_common_consumer(a, b) {
                continue;
            }
            let (Some(pa), Some(pb)) = (register_profile[a.index()], register_profile[b.index()])
            else {
                continue;
            };
            let mut score = balance_score_profiles(pa, pb);
            if sets.creates_register_self_loop(a, b) {
                score -= SELF_LOOP_PENALTY;
            }
            out.push(MergeCandidate {
                kind: MergeKind::Registers(a, b),
                balance: score,
            });
        }
    }

    // Best balance first in `f64::total_cmp` order: a NaN score
    // (defensive — profiles are finite by construction) gets a
    // deterministic rank instead of freezing the comparison sort in an
    // arbitrary order. Each candidate's key is computed once.
    out.sort_by_cached_key(|c| (Reverse(total_order_key(c.balance)), tie_key(c.kind)));
    out
}

/// An integer whose order is `f64::total_cmp`'s (the same bit
/// transform `total_cmp` applies).
fn total_order_key(x: f64) -> i64 {
    let bits = x.to_bits() as i64;
    bits ^ (((bits >> 63) as u64) >> 1) as i64
}

/// Integer key ordering merge kinds exactly as their `Debug` strings
/// (`Modules(ModuleId(3), ModuleId(10))` …) compare: the variant name
/// first, then each id as a decimal string.
fn tie_key(kind: MergeKind) -> (u8, u64, u64) {
    match kind {
        MergeKind::Modules(a, b) => (0, decimal_key(a.index()), decimal_key(b.index())),
        MergeKind::Registers(a, b) => (1, decimal_key(a.index()), decimal_key(b.index())),
    }
}

/// Key ordering ids as their decimal strings do. In the `Debug` string
/// every id is followed by `)`, which sorts below every digit, so a
/// prefix sorts first. Left-aligning the digits into ten places (`u32`
/// has at most ten) makes numeric order the digit-by-digit order; when
/// one id's digits are a prefix of the other's (`1` vs `10`, or `1` vs
/// `100`) the padded values tie or the longer one is larger, and the
/// digit count in the low bits puts the shorter first.
fn decimal_key(id: usize) -> u64 {
    let id = id as u64;
    let digits = id.checked_ilog10().unwrap_or(0) + 1;
    (id * 10u64.pow(10 - digits)) << 4 | u64::from(digits)
}

/// Bit rows over the binding, built once per enumeration: the sets the
/// structural pair tests intersect.
struct BindingSets {
    module_slots: usize,
    register_slots: usize,
    /// Register → operations reading one of its values.
    consumer_ops: BitRows,
    /// Module → registers its operations read / write.
    module_reads: BitRows,
    module_writes: BitRows,
    /// Register → modules producing / consuming one of its values.
    register_producers: BitRows,
    register_consumers: BitRows,
}

impl BindingSets {
    fn of(state: &DesignState) -> Self {
        let dfg: &Dfg = &state.dfg;
        let alloc = &state.allocation;
        let module_slots = alloc
            .modules()
            .map(|m| m.id().index() + 1)
            .max()
            .unwrap_or(0);
        let register_slots = alloc
            .registers()
            .map(|r| r.id().index() + 1)
            .max()
            .unwrap_or(0);
        let mut consumer_ops = BitRows::new(register_slots, dfg.num_ops());
        let mut register_producers = BitRows::new(register_slots, module_slots);
        let mut register_consumers = BitRows::new(register_slots, module_slots);
        for reg in alloc.registers() {
            let r = reg.id().index();
            for &v in reg.values() {
                if let Some(op) = dfg.def_of(v) {
                    register_producers.set(r, alloc.module_of(op).index());
                }
                for &op in dfg.uses_of(v) {
                    consumer_ops.set(r, op.index());
                    register_consumers.set(r, alloc.module_of(op).index());
                }
            }
        }
        let mut module_reads = BitRows::new(module_slots, register_slots);
        let mut module_writes = BitRows::new(module_slots, register_slots);
        for module in alloc.modules() {
            let m = module.id().index();
            for &op in module.ops() {
                for &v in dfg.op(op).inputs() {
                    if let Some(r) = alloc.register_of(v) {
                        module_reads.set(m, r.index());
                    }
                }
                if let Some(r) = dfg.op(op).output().and_then(|v| alloc.register_of(v)) {
                    module_writes.set(m, r.index());
                }
            }
        }
        BindingSets {
            module_slots,
            register_slots,
            consumer_ops,
            module_reads,
            module_writes,
            register_producers,
            register_consumers,
        }
    }

    /// Whether some operation consumes values from both registers at
    /// once (the paper's register-merge veto case 2).
    fn has_common_consumer(&self, a: RegisterId, b: RegisterId) -> bool {
        self.consumer_ops.intersect(a.index(), b.index())
    }

    /// Would merging modules `a` and `b` make a register both a source
    /// and a sink of the merged unit?
    fn creates_module_self_loop(&self, a: ModuleId, b: ModuleId) -> bool {
        cross_union_intersect(
            &self.module_reads,
            &self.module_writes,
            a.index(),
            b.index(),
        )
    }

    /// Would merging registers `a` and `b` make some module both produce
    /// into and consume from the merged register?
    fn creates_register_self_loop(&self, a: RegisterId, b: RegisterId) -> bool {
        cross_union_intersect(
            &self.register_producers,
            &self.register_consumers,
            a.index(),
            b.index(),
        )
    }
}

/// Whether `(xs[a] ∪ xs[b]) ∩ (ys[a] ∪ ys[b])` is non-empty.
fn cross_union_intersect(xs: &BitRows, ys: &BitRows, a: usize, b: usize) -> bool {
    xs.row(a)
        .iter()
        .zip(xs.row(b))
        .zip(ys.row(a).iter().zip(ys.row(b)))
        .any(|((xa, xb), (ya, yb))| (xa | xb) & (ya | yb) != 0)
}

/// A dense matrix of bits, one fixed-width row per index.
struct BitRows {
    words: usize,
    bits: Vec<u64>,
}

impl BitRows {
    fn new(rows: usize, cols: usize) -> Self {
        let words = cols.div_ceil(64);
        BitRows {
            words,
            bits: vec![0; rows * words],
        }
    }

    fn set(&mut self, row: usize, col: usize) {
        self.bits[row * self.words + col / 64] |= 1 << (col % 64);
    }

    fn row(&self, row: usize) -> &[u64] {
        &self.bits[row * self.words..(row + 1) * self.words]
    }

    fn intersect(&self, a: usize, b: usize) -> bool {
        self.row(a).iter().zip(self.row(b)).any(|(x, y)| x & y != 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hlts_dfg::{DfgBuilder, OpKind};
    use hlts_testability::TestabilityAnalysis;

    fn state() -> DesignState {
        let mut b = DfgBuilder::new("t");
        let a = b.input("a");
        let c = b.input("c");
        let t1 = b.op("N1", OpKind::Add, &[a, c], "t1").unwrap();
        let t2 = b.op("N2", OpKind::Sub, &[a, c], "t2").unwrap();
        let t3 = b.op("N3", OpKind::Mul, &[t1, c], "t3").unwrap();
        let y = b.op("N4", OpKind::Mul, &[t2, t3], "y").unwrap();
        b.mark_output(y);
        let d = b.finish().unwrap();
        DesignState::initial(&d).unwrap()
    }

    #[test]
    fn candidates_are_sorted_and_legal() {
        let s = state();
        let dp = s.data_path().unwrap();
        let an = TestabilityAnalysis::analyze(&dp);
        let cands = enumerate_candidates(&s, &dp, &an);
        assert!(!cands.is_empty());
        for w in cands.windows(2) {
            assert!(w[0].balance >= w[1].balance - 1e-12);
        }
        // the incompatible add×mul module pair must be absent
        let n1 = s.dfg.op_by_name("N1").unwrap();
        let n3 = s.dfg.op_by_name("N3").unwrap();
        let (m1, m3) = (s.allocation.module_of(n1), s.allocation.module_of(n3));
        assert!(!cands.iter().any(|c| matches!(
            c.kind,
            MergeKind::Modules(a, b) if (a, b) == (m1, m3) || (a, b) == (m3, m1)
        )));
    }

    #[test]
    fn common_consumer_pairs_filtered() {
        let s = state();
        let dp = s.data_path().unwrap();
        let an = TestabilityAnalysis::analyze(&dp);
        let cands = enumerate_candidates(&s, &dp, &an);
        // t2 and t3 both feed N4: never a candidate pair
        let r2 = s
            .allocation
            .register_of(s.dfg.value_by_name("t2").unwrap())
            .unwrap();
        let r3 = s
            .allocation
            .register_of(s.dfg.value_by_name("t3").unwrap())
            .unwrap();
        assert!(!cands.iter().any(|c| matches!(
            c.kind,
            MergeKind::Registers(a, b) if (a, b) == (r2, r3) || (a, b) == (r3, r2)
        )));
    }

    #[test]
    fn self_loop_candidates_penalized() {
        // y's register merged with t3's register: N4 consumes t3 and
        // produces y -> module self-loop.
        let s = state();
        let dp = s.data_path().unwrap();
        let an = TestabilityAnalysis::analyze(&dp);
        let cands = enumerate_candidates(&s, &dp, &an);
        let ry = s
            .allocation
            .register_of(s.dfg.value_by_name("y").unwrap())
            .unwrap();
        let rt3 = s
            .allocation
            .register_of(s.dfg.value_by_name("t3").unwrap())
            .unwrap();
        let with_loop = cands
            .iter()
            .find(|c| {
                matches!(
                    c.kind,
                    MergeKind::Registers(a, b) if (a, b) == (rt3, ry) || (a, b) == (ry, rt3)
                )
            })
            .expect("pair is otherwise legal");
        // a loop-free register pair of similar profile should rank higher
        assert!(BindingSets::of(&s).creates_register_self_loop(rt3, ry));
        assert!(with_loop.balance < cands[0].balance);
    }

    /// The enumeration as it was before the per-call bit rows and the
    /// integer tie-break: node lookups, profiles and set scans per pair,
    /// ranking ties by the kinds' `Debug` strings.
    fn reference_enumerate(
        state: &DesignState,
        dp: &DataPath,
        analysis: &TestabilityAnalysis,
    ) -> Vec<MergeCandidate> {
        let dfg = &state.dfg;
        let alloc = &state.allocation;
        let mut out = Vec::new();
        let modules: Vec<&hlts_alloc::Module> = alloc.modules().collect();
        for (i, &ma) in modules.iter().enumerate() {
            for &mb in &modules[i + 1..] {
                let (a, b) = (ma.id(), mb.id());
                let compatible = ma.ops().iter().all(|&oa| {
                    mb.ops().iter().all(|&ob| {
                        dfg.op(oa)
                            .kind()
                            .fu_class()
                            .compatible(dfg.op(ob).kind().fu_class())
                    })
                });
                if !compatible {
                    continue;
                }
                let (Some(na), Some(nb)) = (dp.node_of_module(a), dp.node_of_module(b)) else {
                    continue;
                };
                let pa = NodeProfile::of(analysis, dp, na);
                let pb = NodeProfile::of(analysis, dp, nb);
                let mut score = balance_score_profiles(pa, pb);
                if reference_module_self_loop(state, a, b) {
                    score -= SELF_LOOP_PENALTY;
                }
                out.push(MergeCandidate {
                    kind: MergeKind::Modules(a, b),
                    balance: score,
                });
            }
        }
        let registers: Vec<RegisterId> = alloc.registers().map(|r| r.id()).collect();
        for (i, &a) in registers.iter().enumerate() {
            for &b in &registers[i + 1..] {
                if reference_common_consumer(state, a, b) {
                    continue;
                }
                let (Some(na), Some(nb)) = (dp.node_of_register(a), dp.node_of_register(b)) else {
                    continue;
                };
                let pa = NodeProfile::of(analysis, dp, na);
                let pb = NodeProfile::of(analysis, dp, nb);
                let mut score = balance_score_profiles(pa, pb);
                if reference_register_self_loop(state, a, b) {
                    score -= SELF_LOOP_PENALTY;
                }
                out.push(MergeCandidate {
                    kind: MergeKind::Registers(a, b),
                    balance: score,
                });
            }
        }
        out.sort_by(|x, y| {
            y.balance
                .total_cmp(&x.balance)
                .then_with(|| format!("{:?}", x.kind).cmp(&format!("{:?}", y.kind)))
        });
        out
    }

    fn reference_common_consumer(state: &DesignState, a: RegisterId, b: RegisterId) -> bool {
        let (Some(ra), Some(rb)) = (state.allocation.register(a), state.allocation.register(b))
        else {
            return true;
        };
        state.dfg.ops().iter().any(|op| {
            let reads_a = op.inputs().iter().any(|v| ra.values().contains(v));
            let reads_b = op.inputs().iter().any(|v| rb.values().contains(v));
            reads_a && reads_b
        })
    }

    fn reference_module_self_loop(state: &DesignState, a: ModuleId, b: ModuleId) -> bool {
        let mut reads = Vec::new();
        let mut writes = Vec::new();
        for m in [a, b] {
            let Some(module) = state.allocation.module(m) else {
                continue;
            };
            for &op in module.ops() {
                for &v in state.dfg.op(op).inputs() {
                    if let Some(r) = state.allocation.register_of(v) {
                        reads.push(r);
                    }
                }
                if let Some(v) = state.dfg.op(op).output() {
                    if let Some(r) = state.allocation.register_of(v) {
                        writes.push(r);
                    }
                }
            }
        }
        reads.iter().any(|r| writes.contains(r))
    }

    fn reference_register_self_loop(state: &DesignState, a: RegisterId, b: RegisterId) -> bool {
        let mut producers = Vec::new();
        let mut consumers = Vec::new();
        for r in [a, b] {
            let Some(reg) = state.allocation.register(r) else {
                continue;
            };
            for &v in reg.values() {
                if let Some(op) = state.dfg.def_of(v) {
                    producers.push(state.allocation.module_of(op));
                }
                for &op in state.dfg.uses_of(v) {
                    consumers.push(state.allocation.module_of(op));
                }
            }
        }
        producers.iter().any(|m| consumers.contains(m))
    }

    /// Same candidates, same scores to the bit, same order as the
    /// per-pair formulation — on every paper benchmark, at the initial
    /// binding and after each of several committed merges (so modules
    /// and registers hold several ops / values and some ids are dead).
    #[test]
    fn enumeration_matches_the_per_pair_reference() {
        for (name, dfg) in hlts_benchmarks::all() {
            let mut s = DesignState::initial(&dfg).unwrap();
            for step in 0..6 {
                let dp = s.data_path().unwrap();
                let got = enumerate_candidates(&s, &dp, &TestabilityAnalysis::analyze(&dp));
                let e = s.lower().unwrap();
                let an = TestabilityAnalysis::analyze(e.data_path());
                let want = reference_enumerate(&s, e.data_path(), &an);
                assert_eq!(got.len(), want.len(), "{name} step {step}");
                for (g, w) in got.iter().zip(&want) {
                    assert_eq!(g.kind, w.kind, "{name} step {step}");
                    assert_eq!(
                        g.balance.to_bits(),
                        w.balance.to_bits(),
                        "{name} step {step}"
                    );
                }
                // commit the first feasible candidate, alternating kinds
                let want_modules = step % 2 == 0;
                let pick = got
                    .iter()
                    .filter(|c| matches!(c.kind, MergeKind::Modules(..)) == want_modules)
                    .chain(got.iter())
                    .find(|c| {
                        let mut t = s.clone();
                        crate::trial_merge(&mut t, c.kind, |_| Some(())).is_some()
                    });
                let Some(c) = pick else { break };
                match c.kind {
                    MergeKind::Modules(a, b) => crate::merge_modules_with_resched(&mut s, a, b),
                    MergeKind::Registers(a, b) => crate::merge_registers_with_resched(&mut s, a, b),
                }
                .unwrap();
            }
        }
    }

    #[test]
    fn total_order_key_orders_like_total_cmp() {
        let xs = [
            f64::NEG_INFINITY,
            -1e300,
            -1.5,
            -f64::MIN_POSITIVE,
            -0.0,
            0.0,
            f64::MIN_POSITIVE,
            0.1,
            0.30000000000000004,
            1.0,
            f64::MAX,
            f64::INFINITY,
            f64::NAN,
            -f64::NAN,
        ];
        for a in xs {
            for b in xs {
                assert_eq!(
                    total_order_key(a).cmp(&total_order_key(b)),
                    a.total_cmp(&b),
                    "{a} vs {b}"
                );
            }
        }
    }

    /// `decimal_key` orders ids exactly as their `Debug` strings:
    /// exhaustively over 0..=1100 (every digit-length boundary up to
    /// four digits) plus the ten-digit ids up to `u32::MAX`.
    #[test]
    fn decimal_key_orders_like_the_debug_string() {
        let mut ids: Vec<u32> = (0..=1100).collect();
        ids.extend([
            9_999,
            10_000,
            99_999,
            100_000,
            999_999_999,
            1_000_000_000,
            4_294_967_294,
            u32::MAX,
        ]);
        let strs: Vec<String> = ids
            .iter()
            .map(|&i| format!("{:?}", ModuleId::from_index(i as usize)))
            .collect();
        for (i, &a) in ids.iter().enumerate() {
            let ka = decimal_key(a as usize);
            for (j, &b) in ids.iter().enumerate() {
                assert_eq!(
                    ka.cmp(&decimal_key(b as usize)),
                    strs[i].cmp(&strs[j]),
                    "{a} vs {b}"
                );
            }
        }
    }

    /// `tie_key` orders whole merge kinds as their `Debug` strings, both
    /// variants, on ids drawn around every digit-length boundary.
    #[test]
    fn tie_key_orders_like_the_debug_string() {
        let boundary = [
            0u32,
            1,
            2,
            9,
            10,
            11,
            19,
            20,
            99,
            100,
            101,
            999,
            1000,
            1001,
            4_294_967_295,
        ];
        let mut kinds = Vec::new();
        for &a in &boundary {
            for &b in &boundary {
                kinds.push(MergeKind::Modules(
                    ModuleId::from_index(a as usize),
                    ModuleId::from_index(b as usize),
                ));
                kinds.push(MergeKind::Registers(
                    RegisterId::from_index(a as usize),
                    RegisterId::from_index(b as usize),
                ));
            }
        }
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        let mut draw = || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let pick = x % 4;
            let v = (x >> 8) as u32;
            match pick {
                0 => v % 12,
                1 => v % 1200,
                2 => v % 120_000,
                _ => v,
            }
        };
        for n in 0..2000 {
            let (a, b) = (draw(), draw());
            if n % 2 == 0 {
                kinds.push(MergeKind::Modules(
                    ModuleId::from_index(a as usize),
                    ModuleId::from_index(b as usize),
                ));
            } else {
                kinds.push(MergeKind::Registers(
                    RegisterId::from_index(a as usize),
                    RegisterId::from_index(b as usize),
                ));
            }
        }
        let strs: Vec<String> = kinds.iter().map(|k| format!("{k:?}")).collect();
        for (i, &ka) in kinds.iter().enumerate() {
            for (j, &kb) in kinds.iter().enumerate() {
                assert_eq!(
                    tie_key(ka).cmp(&tie_key(kb)),
                    strs[i].cmp(&strs[j]),
                    "{} vs {}",
                    strs[i],
                    strs[j]
                );
            }
        }
    }
}
