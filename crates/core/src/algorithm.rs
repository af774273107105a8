//! Algorithm 1: the iterative integrated synthesis loop.

use hlts_cost::ModuleLibrary;
use hlts_dfg::Dfg;
use hlts_testability::{TestabilityAnalysis, TestabilityCacheStats};

use crate::candidates::{enumerate_candidates, MergeCandidate, MergeKind};
use crate::delta_eval::DeltaEvaluator;
use crate::resched::apply_merge;
use crate::trace::{MergeTrace, ReplayStats, TraceEntry, TraceMergeKind, TraceWinner};
use crate::txn::{trial_merge, StateTxn};
use crate::{CoreError, DesignState, ProgressEvent, RunCtl, SynthesisResult};

/// The retired candidate-evaluation mode switch; it has one variant.
///
/// Algorithm 1 evaluates each iteration's shortlist one candidate at a
/// time on the calling thread. The type remains only because the
/// end-to-end benchmark under `perf/` still names it:
/// `EvalMode::default()`, `EvalMode::Sequential`, the `mode` field of
/// `JobSpec::Run` and the `mode` argument of
/// [`IntegratedSynthesizer::run_on_ctl`]. A change to that benchmark
/// removes the type together with those uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum EvalMode {
    /// Evaluate candidates one at a time on the calling thread.
    #[default]
    Sequential,
}

/// The user parameters of the synthesis algorithm.
///
/// `k`, `alpha` (α) and `beta` (β) are the paper's knobs: each iteration
/// shortlists the `k` most balance-complementary merge pairs, then
/// commits the one with the smallest ΔC = α·ΔE + β·ΔH. "A small value
/// of k means that more emphasis is placed on improving the testability
/// measure."
#[derive(Debug, Clone, PartialEq)]
pub struct SynthesisParams {
    /// Shortlist size per iteration (paper's `k`).
    pub k: usize,
    /// Weight of the incremental execution time ΔE (control steps).
    pub alpha: f64,
    /// Weight of the incremental hardware cost ΔH (area units).
    pub beta: f64,
    /// Data-path bit width used for area estimation.
    pub bits: u32,
    /// The module library pricing ΔH.
    pub library: ModuleLibrary,
    /// A merge commits only when its ΔC does not exceed this threshold.
    /// The paper iterates "until no merger exists"; with the default
    /// threshold 0 that reading becomes *until no merger improves the
    /// weighted cost*, which is what terminates the loop short of a
    /// single-ALU design.
    pub accept_threshold: f64,
    /// Hard cap on committed mergers (defensive; never reached by the
    /// benchmarks).
    pub max_merges: usize,
    /// How the per-iteration candidate shortlist is ranked. The paper's
    /// principle is [`SelectionPolicy::CoBalance`] (§3);
    /// [`SelectionPolicy::Arbitrary`] ablates it (stable id order), so
    /// ΔC alone drives the merge choice.
    pub selection_policy: SelectionPolicy,
}

/// How merge candidates are ranked before the k-chunked ΔC evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SelectionPolicy {
    /// The paper's controllability/observability balance principle.
    #[default]
    CoBalance,
    /// Deterministic but testability-blind order (ablation).
    Arbitrary,
}

impl Default for SynthesisParams {
    fn default() -> Self {
        SynthesisParams {
            k: 3,
            alpha: 2.0,
            beta: 1.0,
            bits: 8,
            library: ModuleLibrary::new(),
            accept_threshold: 1e-9,
            max_merges: 10_000,
            selection_policy: SelectionPolicy::CoBalance,
        }
    }
}

impl SynthesisParams {
    /// The parameter sets the paper reports for its main experiments:
    /// `(k, α, β)` = (3, 2, 1), (3, 10, 1) and (3, 1, 10) for 4-, 8- and
    /// 16-bit implementations respectively.
    #[must_use]
    pub fn paper_defaults(bits: u32) -> Self {
        let (alpha, beta) = match bits {
            0..=4 => (2.0, 1.0),
            5..=8 => (10.0, 1.0),
            _ => (1.0, 10.0),
        };
        SynthesisParams {
            k: 3,
            alpha,
            beta,
            bits,
            ..SynthesisParams::default()
        }
    }

    /// Check the parameters are usable: `k >= 1` and finite,
    /// non-negative `alpha`/`beta`. Every library entry point calls
    /// this before any work starts, so embedders get an
    /// [`CoreError::InvalidParams`] instead of a silently corrupted
    /// ΔC = α·ΔE + β·ΔH ordering (NaN weights would make every
    /// comparison vacuous) or a degenerate shortlist.
    ///
    /// # Errors
    ///
    /// [`CoreError::InvalidParams`] naming the offending field.
    pub fn validate(&self) -> Result<(), CoreError> {
        if self.k == 0 {
            return Err(CoreError::InvalidParams("k must be >= 1".into()));
        }
        for (name, v) in [
            ("alpha", self.alpha),
            ("beta", self.beta),
            ("accept_threshold", self.accept_threshold),
        ] {
            if !v.is_finite() {
                return Err(CoreError::InvalidParams(format!(
                    "{name} must be finite (got {v})"
                )));
            }
        }
        for (name, v) in [("alpha", self.alpha), ("beta", self.beta)] {
            if v < 0.0 {
                return Err(CoreError::InvalidParams(format!(
                    "{name} must be non-negative (got {v})"
                )));
            }
        }
        Ok(())
    }
}

/// The integrated scheduling/allocation test synthesizer (Algorithm 1).
#[derive(Debug, Clone)]
pub struct IntegratedSynthesizer {
    params: SynthesisParams,
}

impl IntegratedSynthesizer {
    /// Create a synthesizer with the given parameters.
    #[must_use]
    pub fn new(params: SynthesisParams) -> Self {
        IntegratedSynthesizer { params }
    }

    /// The parameters in use.
    #[must_use]
    pub fn params(&self) -> &SynthesisParams {
        &self.params
    }

    /// Run Algorithm 1 on `dfg`.
    ///
    /// Each iteration: run the testability analysis, shortlist the `k`
    /// most C/O-complementary merge pairs, estimate ΔE (critical path of
    /// the control Petri net) and ΔH (floorplanned area) for each by
    /// tentatively applying it (merge + merge-sort rescheduling with the
    /// SR1/SR2 strategy), and commit the pair with the smallest
    /// ΔC = α·ΔE + β·ΔH if it meets the acceptance threshold. When no
    /// pair in the shortlist qualifies, the next `k` candidates are
    /// examined, so the loop only stops when *no* merger qualifies.
    ///
    /// # Errors
    ///
    /// Only construction-level failures (cyclic input graph, inconsistent
    /// state) are errors; rejected mergers are part of normal operation.
    pub fn run(&self, dfg: &Dfg) -> Result<SynthesisResult, CoreError> {
        let base = DesignState::initial(dfg)?;
        self.run_on_ctl(
            &base,
            EvalMode::Sequential,
            &DeltaEvaluator::new(),
            &RunCtl::none(),
        )
    }

    /// Run Algorithm 1 from a caller-owned base state under an external
    /// [`RunCtl`]: the batch and job-engine entry point.
    ///
    /// The base is forked, not mutated: the run shares its graph core
    /// and transaction counters, plus the given evaluator's (E, H)
    /// cache. A design-space sweep builds one base state and one
    /// evaluator per behavior and runs every parameter point through
    /// them. Sharing never changes a result: the cache is keyed on
    /// content (schedule + binding + width). The evaluator must not have
    /// been used with a different graph or library.
    ///
    /// The cancel token is checked once per iteration, between
    /// transactions, so a fired token surfaces as
    /// [`CoreError::Cancelled`] with no partially applied merge behind
    /// it; one [`ProgressEvent::Iteration`] streams to the sink per
    /// iteration. This is [`run_on_warm`](Self::run_on_warm) without a
    /// seed, with the trace dropped. `_mode` has one value (see
    /// [`EvalMode`]).
    ///
    /// # Errors
    ///
    /// As [`run`](IntegratedSynthesizer::run), plus
    /// [`CoreError::Cancelled`] when `ctl.cancel` fires.
    pub fn run_on_ctl(
        &self,
        base: &DesignState,
        _mode: EvalMode,
        evaluator: &DeltaEvaluator,
        ctl: &RunCtl<'_>,
    ) -> Result<SynthesisResult, CoreError> {
        Ok(self.run_on_warm(base, evaluator, ctl, None)?.result)
    }

    /// Algorithm 1 with trace capture and optional warm-start replay:
    /// the one synthesis loop, and the design-space-exploration entry
    /// point.
    ///
    /// The returned [`MergeTrace`] records every iteration's evaluated
    /// `(ΔE, ΔH)` price prefix and committed winner. When `seed` holds
    /// the trace of an already-synthesized neighbour point (same
    /// behavior, different `α`/`β`/`k`), each seed entry is re-priced
    /// under *this* run's weights with plain arithmetic — the parts are
    /// weight-independent — and committed through a [`StateTxn`] while
    /// it is still exactly the merge Algorithm 1 would pick, guarded by
    /// the recorded post-merge fingerprint (plus a full audit in debug
    /// builds). At the first divergence — a different winner, a price
    /// prefix too short to decide, a fingerprint mismatch — the run
    /// falls back to scratch synthesis from the current state, which is
    /// bit-identical to the scratch trajectory at that iteration.
    ///
    /// Replay changes *work, never results*: with any seed (or none)
    /// the [`SynthesisResult`] is bit-identical; only the
    /// [`ReplayStats`] split between replayed and recomputed merges
    /// varies.
    ///
    /// # Errors
    ///
    /// As [`run_on_ctl`](Self::run_on_ctl).
    pub fn run_on_warm(
        &self,
        base: &DesignState,
        evaluator: &DeltaEvaluator,
        ctl: &RunCtl<'_>,
        seed: Option<&MergeTrace>,
    ) -> Result<WarmSynthesis, CoreError> {
        self.params.validate()?;
        let k = self.params.k.max(1);
        let mut state = base.fork();
        let mut merge_log: Vec<String> = Vec::new();
        let mut trace = MergeTrace::default();
        let mut replay = ReplayStats::default();
        let mut testability = TestabilityCacheStats::default();
        // Replay cursor into the seed; `live` drops to false at the
        // first divergence (or exhaustion) and never recovers — the
        // scratch loop owns every later iteration.
        let mut cursor = 0usize;
        let mut live = seed.is_some();

        // A run cut short by the iteration cap carries no terminal
        // entry; replaying such a trace simply exhausts the seed.
        for iteration in 0..self.params.max_merges {
            if ctl.cancel.is_cancelled() {
                return Err(CoreError::Cancelled);
            }
            ctl.progress.event(ProgressEvent::Iteration {
                iteration,
                merges: merge_log.len(),
            });

            // Fast path: re-take the seed's decision from its recorded
            // prices — no lowering, no analysis, no enumeration, no
            // trial transactions.
            if live {
                let entry = seed.and_then(|s| s.entries.get(cursor));
                match entry.and_then(|e| self.replay_entry(&mut state, e)) {
                    Some(ReplayStep::Commit { kind, dc, entry }) => {
                        cursor += 1;
                        let desc = merge_description(&state, kind);
                        merge_log.push(format!("{desc} (ΔC = {dc:+.4})"));
                        trace.entries.push(entry);
                        replay.replayed += 1;
                        continue;
                    }
                    Some(ReplayStep::Done(entry)) => {
                        trace.entries.push(entry);
                        break;
                    }
                    None => live = false, // diverged/exhausted: scratch from here
                }
            }

            // Scratch path: step 2 of Algorithm 1, one testability
            // analysis of the current structural data path. Candidate
            // pricing needs no other (SR2 probes compare `E` alone).
            let dp = state.data_path()?;
            let analysis = TestabilityAnalysis::analyze(&dp);
            testability.record(&analysis);
            let mut candidates = enumerate_candidates(&state, &dp, &analysis);
            if candidates.is_empty() {
                trace.entries.push(TraceEntry {
                    winner: None,
                    total: 0,
                    prices: Vec::new(),
                });
                break;
            }
            if self.params.selection_policy == SelectionPolicy::Arbitrary {
                candidates.sort_by_key(|c| match c.kind {
                    MergeKind::Modules(a, b) => (0u8, a.index(), b.index()),
                    MergeKind::Registers(a, b) => (1u8, a.index(), b.index()),
                });
            }
            // The baseline (E, H) goes through the evaluator too: after
            // the first iteration this is a cache hit.
            let (e0_steps, h0) = evaluator.eval(&state, self.params.bits, &self.params.library)?;
            let e0 = e0_steps as f64;

            // Price the shortlist chunk by chunk; the first chunk whose
            // best ΔC meets the threshold commits its winner.
            let mut prices: Vec<Option<(f64, f64)>> = Vec::new();
            let mut winner = None;
            for chunk in candidates.chunks(k) {
                let start = prices.len();
                for cand in chunk {
                    prices.push(self.eval_candidate_parts(&mut state, cand, e0, h0, evaluator));
                }
                if let Some((dc, local)) = self.reduce_chunk(&prices[start..]) {
                    if dc <= self.params.accept_threshold {
                        winner = Some((dc, start + local));
                        break;
                    }
                }
            }
            let Some((dc, index)) = winner else {
                trace.entries.push(TraceEntry {
                    winner: None,
                    total: candidates.len(),
                    prices,
                });
                break;
            };
            // Re-apply the winning trial and commit it. The merge
            // machinery is deterministic, so this reproduces the priced
            // trial bit for bit — and cheaply: the SR2 probes' critical
            // paths resolve from the cache warmed by the trial itself.
            let kind = candidates[index].kind;
            let (sym_a, sym_b) = merge_symbols(&state, kind);
            let mut txn = StateTxn::begin(&mut state);
            apply_merge(&mut txn, kind).map_err(|r| r.into_error(&txn.state().dfg))?;
            txn.commit();
            let fingerprint = DeltaEvaluator::fingerprint(&state);
            // Only now is the label worth building: trial candidates
            // that lose or miss the threshold never reach the log.
            let desc = merge_description(&state, kind);
            merge_log.push(format!("{desc} (ΔC = {dc:+.4})"));
            trace.entries.push(TraceEntry {
                winner: Some(TraceWinner {
                    kind: trace_kind(kind),
                    sym_a,
                    sym_b,
                    index,
                    fingerprint,
                }),
                total: candidates.len(),
                prices,
            });
            replay.recomputed += 1;
        }

        debug_assert!(state.validate().is_ok());
        let result = SynthesisResult::from_state(
            state,
            self.params.bits,
            &self.params.library,
            merge_log,
            testability,
        )?;
        Ok(WarmSynthesis {
            result,
            trace,
            replay,
        })
    }

    /// Re-take one recorded iteration's decision on the current state.
    ///
    /// Scans the recorded candidate prices in shortlist order, chunked
    /// by *this* run's `k`, re-weighting each `(ΔE, ΔH)` pair with the
    /// identical float expression the scratch loop uses. Returns
    /// `None` — diverged, fall back to scratch — when the re-priced
    /// winner differs from the recorded one, when a chunk extends past
    /// the recorded price prefix before any winner qualifies, or when
    /// applying the recorded merge fails its fingerprint check.
    fn replay_entry(&self, state: &mut DesignState, entry: &TraceEntry) -> Option<ReplayStep> {
        let k = self.params.k.max(1);
        let covered = entry.prices.len().min(entry.total);
        let mut start = 0usize;
        while start < entry.total {
            let end = (start + k).min(entry.total);
            if end > covered {
                // The recorded run stopped pricing here; this run's
                // chunking needs candidates it never evaluated.
                return None;
            }
            if let Some((dc, local)) = self.reduce_chunk(&entry.prices[start..end]) {
                if dc <= self.params.accept_threshold {
                    let winner = entry.winner.as_ref()?;
                    if winner.index != start + local {
                        return None; // the new weights pick a different merge
                    }
                    return self.replay_commit(state, winner, dc, entry);
                }
            }
            start = end;
        }
        // Every candidate is priced and none qualifies under the new
        // weights: the run terminates at this iteration.
        Some(ReplayStep::Done(TraceEntry {
            winner: None,
            total: entry.total,
            prices: entry.prices.clone(),
        }))
    }

    /// Apply a replayed winner through a transaction, committing only
    /// when the post-merge state matches the recorded fingerprint
    /// (audited in full in debug builds); any failure rolls back
    /// bit-identically and reports divergence.
    fn replay_commit(
        &self,
        state: &mut DesignState,
        winner: &TraceWinner,
        dc: f64,
        entry: &TraceEntry,
    ) -> Option<ReplayStep> {
        let kind = winner.resolve(state)?;
        {
            let mut txn = StateTxn::begin(state);
            if apply_merge(&mut txn, kind).is_err() {
                return None; // txn drop rolls back
            }
            if DeltaEvaluator::fingerprint(txn.state()) != winner.fingerprint {
                return None; // txn drop rolls back
            }
            #[cfg(debug_assertions)]
            {
                let s = txn.state();
                let report = hlts_check::audit_design(&s.dfg, &s.schedule, &s.allocation);
                debug_assert!(
                    report.is_clean(),
                    "replayed merge failed the audit:\n{report}"
                );
            }
            txn.commit();
        }
        Some(ReplayStep::Commit {
            kind,
            dc,
            entry: entry.clone(),
        })
    }

    /// The chunk reduction over `(ΔE, ΔH)` parts, shared by the scratch
    /// loop and replay: weight each feasible candidate into
    /// ΔC = α·ΔE + β·ΔH and keep the strictly smallest (earliest index
    /// on ties). Returns the winning ΔC and its index *within the
    /// chunk*.
    fn reduce_chunk(&self, parts: &[Option<(f64, f64)>]) -> Option<(f64, usize)> {
        let mut best: Option<(f64, usize)> = None;
        for (i, entry) in parts.iter().enumerate() {
            let Some((de, dh)) = entry else { continue };
            let dc = self.params.alpha * de + self.params.beta * dh;
            // total_cmp: a NaN price (impossible with validated params,
            // defensive against a degenerate library) sorts above every
            // real ΔC instead of vacuously losing every comparison.
            if best
                .as_ref()
                .is_none_or(|(b, _)| dc.total_cmp(b) == std::cmp::Ordering::Less)
            {
                best = Some((dc, i));
            }
        }
        best
    }

    /// Price one candidate against the baseline (`e0`, `h0`):
    /// tentatively apply it in place (merge + merge-sort rescheduling,
    /// which re-runs the lifetime checks), read (E, H) through the
    /// shared evaluator, and roll the transaction back. Returns the raw
    /// weight-independent `(ΔE, ΔH)` parts, which [`reduce_chunk`]
    /// weights and a trace records; `None` if the merger is infeasible.
    /// The human-readable description is *not* built here — only the
    /// committed winner ever needs one (see [`merge_description`]).
    ///
    /// [`reduce_chunk`]: Self::reduce_chunk
    fn eval_candidate_parts(
        &self,
        state: &mut DesignState,
        cand: &MergeCandidate,
        e0: f64,
        h0: f64,
        evaluator: &DeltaEvaluator,
    ) -> Option<(f64, f64)> {
        trial_merge(state, cand.kind, |trial| {
            let (e1, h1) = evaluator
                .eval(trial, self.params.bits, &self.params.library)
                .ok()?;
            Some((e1 as f64 - e0, h1 - h0))
        })
    }
}

/// A completed warm-capable synthesis run: the result (bit-identical to
/// the classic loop), the accepted-merge trace it recorded, and how its
/// commits split between replay and scratch work.
#[derive(Debug)]
pub struct WarmSynthesis {
    /// The synthesized design, exactly as
    /// [`run_on_ctl`](IntegratedSynthesizer::run_on_ctl) would produce.
    pub result: SynthesisResult,
    /// This run's own accepted-merge trace — a valid seed for the next
    /// neighbour, whether the run replayed or recomputed.
    pub trace: MergeTrace,
    /// Replayed vs recomputed commit counts.
    pub replay: ReplayStats,
}

/// Internal verdict of one replayed seed entry.
enum ReplayStep {
    /// The recorded merge is still the winner; it was applied and
    /// committed.
    Commit {
        kind: MergeKind,
        dc: f64,
        entry: TraceEntry,
    },
    /// Every candidate is priced and none qualifies: the run terminates
    /// with this (re-derived) terminal entry.
    Done(TraceEntry),
}

/// Map a live [`MergeKind`] onto its trace tag.
fn trace_kind(kind: MergeKind) -> TraceMergeKind {
    match kind {
        MergeKind::Modules(..) => TraceMergeKind::Modules,
        MergeKind::Registers(..) => TraceMergeKind::Registers,
    }
}

/// Capture the stable operand symbols of a winner on the *pre-merge*
/// state: the first op name (modules) or first value name (registers)
/// of each side. Empty strings — impossible for a live winner — simply
/// never resolve at replay time, forcing a safe divergence.
fn merge_symbols(state: &DesignState, kind: MergeKind) -> (String, String) {
    let module_sym = |m| {
        state
            .allocation
            .module(m)
            .and_then(|x| x.ops().first())
            .map(|&o| state.dfg.op(o).name().to_owned())
            .unwrap_or_default()
    };
    let register_sym = |r| {
        state
            .allocation
            .register(r)
            .and_then(|x| x.values().first())
            .map(|&v| state.dfg.value(v).name().to_owned())
            .unwrap_or_default()
    };
    match kind {
        MergeKind::Modules(a, b) => (module_sym(a), module_sym(b)),
        MergeKind::Registers(a, b) => (register_sym(a), register_sym(b)),
    }
}

/// The merge-log label for a committed merge, reconstructed from the
/// post-merge state: the surviving module's op names (or register's
/// value names), comma-joined in binding order. Shared with the clone
/// oracle so both paths produce byte-identical logs.
pub(crate) fn merge_description(state: &DesignState, kind: MergeKind) -> String {
    match kind {
        MergeKind::Modules(a, _) => {
            let label = state
                .allocation
                .module(a)
                .map(|m| {
                    m.ops()
                        .iter()
                        .map(|&o| state.dfg.op(o).name().to_owned())
                        .collect::<Vec<_>>()
                        .join(",")
                })
                .unwrap_or_default();
            format!("merge modules -> {{{label}}}")
        }
        MergeKind::Registers(a, _) => {
            let label = state
                .allocation
                .register(a)
                .map(|r| {
                    r.values()
                        .iter()
                        .map(|&v| state.dfg.value(v).name().to_owned())
                        .collect::<Vec<_>>()
                        .join(",")
                })
                .unwrap_or_default();
            format!("merge registers -> {{{label}}}")
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hlts_dfg::{DfgBuilder, OpKind};

    fn small() -> Dfg {
        let mut b = DfgBuilder::new("t");
        let a = b.input("a");
        let c = b.input("c");
        let t1 = b.op("N1", OpKind::Add, &[a, c], "t1").unwrap();
        let t2 = b.op("N2", OpKind::Add, &[t1, c], "t2").unwrap();
        let t3 = b.op("N3", OpKind::Mul, &[t1, t2], "t3").unwrap();
        let y = b.op("N4", OpKind::Sub, &[t3, c], "y").unwrap();
        b.mark_output(y);
        b.finish().unwrap()
    }

    #[test]
    fn run_produces_valid_compacted_design() {
        let d = small();
        let r = IntegratedSynthesizer::new(SynthesisParams::default())
            .run(&d)
            .unwrap();
        r.schedule.validate(&r.dfg).unwrap();
        r.schedule
            .validate_groups(&r.dfg, &r.allocation.conflict_groups())
            .unwrap();
        // registers must have merged below one-per-value
        assert!(r.allocation.num_registers() < 6);
        assert!(!r.merge_log.is_empty());
    }

    #[test]
    fn deterministic() {
        let d = small();
        let synth = IntegratedSynthesizer::new(SynthesisParams::default());
        let r1 = synth.run(&d).unwrap();
        let r2 = synth.run(&d).unwrap();
        assert_eq!(r1.allocation, r2.allocation);
        assert_eq!(r1.schedule, r2.schedule);
    }

    #[test]
    fn alpha_dominant_preserves_latency() {
        let d = small();
        let params = SynthesisParams {
            alpha: 1000.0,
            beta: 1.0,
            ..SynthesisParams::default()
        };
        let r = IntegratedSynthesizer::new(params).run(&d).unwrap();
        // with latency sacrosanct, the schedule stays at the critical path
        assert_eq!(r.metrics.execution_time, 4);
    }

    #[test]
    fn beta_dominant_compacts_harder() {
        let d = small();
        let lean = IntegratedSynthesizer::new(SynthesisParams {
            alpha: 0.01,
            beta: 100.0,
            ..SynthesisParams::default()
        })
        .run(&d)
        .unwrap();
        let tight = IntegratedSynthesizer::new(SynthesisParams {
            alpha: 1000.0,
            beta: 1.0,
            ..SynthesisParams::default()
        })
        .run(&d)
        .unwrap();
        let lean_units = lean.allocation.num_modules() + lean.allocation.num_registers();
        let tight_units = tight.allocation.num_modules() + tight.allocation.num_registers();
        assert!(lean_units <= tight_units);
    }

    #[test]
    fn paper_defaults_choose_by_bits() {
        assert_eq!(SynthesisParams::paper_defaults(4).alpha, 2.0);
        assert_eq!(SynthesisParams::paper_defaults(8).alpha, 10.0);
        assert_eq!(SynthesisParams::paper_defaults(16).beta, 10.0);
    }

    #[test]
    fn cold_run_records_every_commit_and_a_terminal_entry() {
        let d = small();
        let synth = IntegratedSynthesizer::new(SynthesisParams::default());
        let base = DesignState::initial(&d).unwrap();
        let ev = DeltaEvaluator::new();
        let cold = synth
            .run_on_ctl(&base, EvalMode::Sequential, &ev, &RunCtl::none())
            .unwrap();
        let warm = synth
            .run_on_warm(&base, &ev, &RunCtl::none(), None)
            .unwrap();
        assert_eq!(warm.result.schedule, cold.schedule);
        assert_eq!(warm.result.allocation, cold.allocation);
        assert_eq!(warm.result.merge_log, cold.merge_log);
        assert_eq!(warm.replay.replayed, 0);
        assert_eq!(warm.replay.recomputed, cold.merge_log.len());
        // converged runs end in a terminal entry
        assert_eq!(warm.trace.entries.len(), cold.merge_log.len() + 1);
        assert!(warm.trace.entries.last().unwrap().winner.is_none());
    }

    #[test]
    fn same_point_replays_fully_and_identically() {
        let d = small();
        let synth = IntegratedSynthesizer::new(SynthesisParams::default());
        let base = DesignState::initial(&d).unwrap();
        let ev = DeltaEvaluator::new();
        let first = synth
            .run_on_warm(&base, &ev, &RunCtl::none(), None)
            .unwrap();
        let again = synth
            .run_on_warm(&base, &ev, &RunCtl::none(), Some(&first.trace))
            .unwrap();
        assert_eq!(again.result.schedule, first.result.schedule);
        assert_eq!(again.result.allocation, first.result.allocation);
        assert_eq!(again.result.merge_log, first.result.merge_log);
        assert_eq!(
            again.replay.recomputed, 0,
            "identical weights never diverge"
        );
        assert_eq!(again.replay.replayed, first.result.merge_log.len());
        assert_eq!(
            again.trace, first.trace,
            "the replayed trace re-records itself"
        );
    }

    #[test]
    fn divergent_weights_replay_and_fall_back_bit_identically() {
        let d = small();
        let base = DesignState::initial(&d).unwrap();
        let ev = DeltaEvaluator::new();
        let seed = IntegratedSynthesizer::new(SynthesisParams::default())
            .run_on_warm(&base, &ev, &RunCtl::none(), None)
            .unwrap();
        // A grid of neighbours, including weights that walk a different
        // trajectory: warm output must equal the cold loop on every one.
        for (alpha, beta, k) in [
            (2.0, 1.0, 3),
            (2.5, 1.0, 3),
            (10.0, 1.0, 3),
            (0.01, 100.0, 3),
            (1.0, 10.0, 2),
            (2.0, 1.0, 1),
        ] {
            let synth = IntegratedSynthesizer::new(SynthesisParams {
                k,
                alpha,
                beta,
                ..SynthesisParams::default()
            });
            let cold = synth
                .run_on_ctl(&base, EvalMode::Sequential, &ev, &RunCtl::none())
                .unwrap();
            let warm = synth
                .run_on_warm(&base, &ev, &RunCtl::none(), Some(&seed.trace))
                .unwrap();
            assert_eq!(
                warm.result.schedule, cold.schedule,
                "(α={alpha}, β={beta}, k={k})"
            );
            assert_eq!(warm.result.allocation, cold.allocation);
            assert_eq!(warm.result.merge_log, cold.merge_log);
            assert_eq!(
                warm.replay.replayed + warm.replay.recomputed,
                cold.merge_log.len()
            );
        }
    }
}
