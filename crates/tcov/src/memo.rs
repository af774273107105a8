//! The two-tier coverage memo, following the job engine's `WarmPool`
//! pattern.
//!
//! * **Tier 1** — per-netlist contexts keyed by a structural
//!   fingerprint ([`netlist_fingerprint`]): the collapsed (unsampled)
//!   fault universe, which every grading of that netlist shares
//!   regardless of ATPG configuration.
//! * **Tier 2** — per-context report memo keyed by the ATPG
//!   configuration's canonical debug string. `jobs` is deliberately
//!   **not** part of the key: reports are bit-identical at any worker
//!   count, so a result graded at `jobs = 8` serves a `jobs = 1`
//!   request verbatim.
//!
//! Contexts are built outside the pool lock (double-checked on
//! insert), entries are FIFO-bounded, and all counters are atomics —
//! the same discipline as `WarmPool`, so the daemon can expose both in
//! `status` symmetrically.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};

use hlts_alloc::Allocation;
use hlts_atpg::FaultUniverse;
use hlts_core::RunCtl;
use hlts_dfg::Dfg;
use hlts_netlist::Netlist;
use hlts_sched::Schedule;

use crate::{engine, CoverageReport, TcovConfig, TcovError};

/// Reports memoized per context (FIFO-evicted beyond this).
const MEMO_CAPACITY: usize = 8;

/// FNV-1a over the netlist's structure: gate kinds, input wiring,
/// primary-input/dff/output lists **and names** — names matter because
/// the `ctrl_*` prefix drives the grading protocol, so two netlists
/// that differ only in naming can grade differently.
#[must_use]
pub fn netlist_fingerprint(nl: &Netlist) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    let mut put = |bytes: &[u8]| {
        for &b in bytes {
            hash ^= u64::from(b);
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for (i, gate) in nl.gates().iter().enumerate() {
        put(&[gate.kind() as u8]);
        for input in gate.inputs() {
            put(&u32::try_from(input.index())
                .unwrap_or(u32::MAX)
                .to_le_bytes());
        }
        if let Some(name) = nl.name(hlts_netlist::GateId::from_index(i)) {
            put(name.as_bytes());
        }
        put(&[0xff]);
    }
    for g in nl.inputs() {
        put(&u32::try_from(g.index()).unwrap_or(u32::MAX).to_le_bytes());
    }
    for g in nl.dffs() {
        put(&u32::try_from(g.index()).unwrap_or(u32::MAX).to_le_bytes());
    }
    for (name, g) in nl.outputs() {
        put(name.as_bytes());
        put(&u32::try_from(g.index()).unwrap_or(u32::MAX).to_le_bytes());
    }
    hash
}

/// A shared per-netlist grading context (tier 1): the collapsed fault
/// universe plus the bounded report memo (tier 2).
struct TcovCtx {
    universe: FaultUniverse,
    reports: Mutex<Vec<(String, CoverageReport)>>,
}

/// Aggregated memo counters, surfaced in the daemon's `status`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TcovStats {
    /// Tier-1 hits: gradings that reused a collapsed fault universe.
    pub ctx_hits: u64,
    /// Tier-1 misses: contexts built from scratch.
    pub ctx_misses: u64,
    /// Tier-2 hits: gradings answered from the report memo.
    pub report_hits: u64,
    /// Tier-2 misses: reports actually computed.
    pub report_misses: u64,
}

/// The coverage memo pool. Capacity `0` disables both tiers (every
/// grading computes from scratch, counters untouched).
pub struct TcovPool {
    capacity: usize,
    entries: Mutex<Vec<(u64, Arc<TcovCtx>)>>,
    ctx_hits: AtomicU64,
    ctx_misses: AtomicU64,
    report_hits: AtomicU64,
    report_misses: AtomicU64,
}

impl std::fmt::Debug for TcovPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TcovPool")
            .field("capacity", &self.capacity)
            .field("stats", &self.stats())
            .finish()
    }
}

fn lock_recover<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

impl TcovPool {
    /// A pool holding up to `capacity` per-netlist contexts.
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        TcovPool {
            capacity,
            entries: Mutex::new(Vec::new()),
            ctx_hits: AtomicU64::new(0),
            ctx_misses: AtomicU64::new(0),
            report_hits: AtomicU64::new(0),
            report_misses: AtomicU64::new(0),
        }
    }

    /// The memo counters.
    #[must_use]
    pub fn stats(&self) -> TcovStats {
        TcovStats {
            ctx_hits: self.ctx_hits.load(Ordering::Relaxed),
            ctx_misses: self.ctx_misses.load(Ordering::Relaxed),
            report_hits: self.report_hits.load(Ordering::Relaxed),
            report_misses: self.report_misses.load(Ordering::Relaxed),
        }
    }

    /// Fetch-or-build the tier-1 context for `nl`.
    fn context(&self, nl: &Netlist) -> Arc<TcovCtx> {
        let key = netlist_fingerprint(nl);
        if let Some((_, ctx)) = lock_recover(&self.entries).iter().find(|(k, _)| *k == key) {
            self.ctx_hits.fetch_add(1, Ordering::Relaxed);
            return Arc::clone(ctx);
        }
        // Build outside the lock: collapsing a large universe must not
        // serialize unrelated gradings.
        let built = Arc::new(TcovCtx {
            universe: FaultUniverse::collapsed(nl),
            reports: Mutex::new(Vec::new()),
        });
        let mut entries = lock_recover(&self.entries);
        if let Some((_, ctx)) = entries.iter().find(|(k, _)| *k == key) {
            // Double-check: somebody else built it while we did.
            self.ctx_hits.fetch_add(1, Ordering::Relaxed);
            return Arc::clone(ctx);
        }
        self.ctx_misses.fetch_add(1, Ordering::Relaxed);
        if entries.len() >= self.capacity {
            entries.remove(0); // FIFO eviction
        }
        entries.push((key, Arc::clone(&built)));
        built
    }

    /// Grade `nl`, serving both tiers of the memo. The returned report
    /// is exactly what [`engine::grade`] would compute — reports are
    /// jobs-invariant, so the memo key excludes `cfg.jobs`.
    ///
    /// # Errors
    ///
    /// Propagates the underlying grading errors; cancellations and
    /// failures are never memoized.
    pub fn grade(
        &self,
        nl: &Netlist,
        cfg: &TcovConfig,
        ctl: &RunCtl<'_>,
    ) -> Result<CoverageReport, TcovError> {
        if self.capacity == 0 {
            return engine::grade(nl, cfg, ctl);
        }
        let ctx = self.context(nl);
        let key = format!("{:?}", cfg.atpg);
        if let Some((_, report)) = lock_recover(&ctx.reports).iter().find(|(k, _)| *k == key) {
            self.report_hits.fetch_add(1, Ordering::Relaxed);
            return Ok(report.clone());
        }
        let report = engine::grade_with_universe(nl, &ctx.universe, cfg, ctl)?;
        let mut reports = lock_recover(&ctx.reports);
        if !reports.iter().any(|(k, _)| *k == key) {
            if reports.len() >= MEMO_CAPACITY {
                reports.remove(0); // FIFO eviction
            }
            reports.push((key, report.clone()));
        }
        self.report_misses.fetch_add(1, Ordering::Relaxed);
        Ok(report)
    }

    /// Elaborate a synthesized design and grade the resulting netlist
    /// through both memo tiers — the one-call entry the job engine
    /// uses, equivalent to [`crate::grade_design`] plus memoization.
    ///
    /// # Errors
    ///
    /// [`TcovError::Build`] when the design does not elaborate, plus
    /// the usual grading errors; neither is ever memoized.
    pub fn grade_design(
        &self,
        dfg: &Dfg,
        schedule: &Schedule,
        allocation: &Allocation,
        bits: u32,
        cfg: &TcovConfig,
        ctl: &RunCtl<'_>,
    ) -> Result<CoverageReport, TcovError> {
        let nl = engine::build_netlist(dfg, schedule, allocation, bits)?;
        self.grade(&nl, cfg, ctl)
    }
}
