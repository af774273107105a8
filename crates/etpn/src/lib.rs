//! # hlts-etpn — the Extended Timed Petri Net design representation
//!
//! The kernel of the `hlts` system, after Peng & Kuchcinski (TCAD 1994):
//! an intermediate design representation consisting of two related parts:
//!
//! * a **data path** ([`DataPath`]) — a directed graph whose nodes are
//!   registers, functional modules, ports and constants, and whose arcs
//!   are guarded data transfers;
//! * a **control part** ([`ControlNet`]) — a timed Petri net with
//!   restricted firing rules whose places enable the data-path transfers
//!   and whose transitions may be guarded by condition signals produced
//!   in the data path.
//!
//! [`Etpn::from_parts`] lowers a scheduled, allocated behavioral
//! description into this representation; [`ControlNet::critical_path`]
//! extracts the execution time `E` from the net's reachability tree — the
//! quantity the synthesis algorithm uses for its ΔE estimates.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod build;
mod critical_path;
mod data_path;
mod dot;
mod error;
mod petri;

pub use build::EtpnBuildError;
pub use critical_path::{CacheStats, CriticalPathEngine};
pub use data_path::{DataPath, DpArc, DpArcId, DpNode, DpNodeId, DpNodeKind};
pub use dot::{control_to_dot, data_path_to_dot};
pub use error::EtpnError;
pub use petri::{ControlNet, PlaceId, Reachability, TransitionId, TransitionView};

use hlts_alloc::Allocation;
use hlts_dfg::Dfg;
use hlts_sched::Schedule;

/// A complete ETPN design: data path plus control part.
#[derive(Debug, Clone)]
pub struct Etpn {
    data_path: DataPath,
    control: ControlNet,
}

impl Etpn {
    /// Lower a scheduled and allocated behavioral description into ETPN.
    ///
    /// See the crate's `build` module documentation for the lowering
    /// rules (one data-path node per physical resource; transfer arcs
    /// guarded by the control places of their steps).
    ///
    /// # Errors
    ///
    /// Returns [`EtpnBuildError`] if the schedule or allocation is
    /// inconsistent with the graph.
    pub fn from_parts(
        dfg: &Dfg,
        schedule: &Schedule,
        allocation: &Allocation,
    ) -> Result<Self, EtpnBuildError> {
        build::build(dfg, schedule, allocation)
    }

    /// Whether [`from_parts`](Etpn::from_parts) would lower these parts,
    /// found without building anything: `Ok` exactly when it succeeds,
    /// otherwise the error it would return.
    ///
    /// # Errors
    ///
    /// As for [`from_parts`](Etpn::from_parts).
    pub fn check_parts(
        dfg: &Dfg,
        schedule: &Schedule,
        allocation: &Allocation,
    ) -> Result<(), EtpnBuildError> {
        build::check(dfg, schedule, allocation)
    }

    /// Execution time `E` of the design `dfg` and `schedule` lower to,
    /// under any binding: the control part is lowered alone and its
    /// critical path taken (by the single-token shortcut
    /// [`ControlNet::chain_critical_path`] where it applies, as
    /// [`CriticalPathEngine`] does), so no data path is built. Equal to
    /// [`execution_time`](Etpn::execution_time) of
    /// [`from_parts`](Etpn::from_parts) whenever that lowering succeeds
    /// (see [`check_parts`](Etpn::check_parts)).
    ///
    /// # Example
    ///
    /// ```
    /// use hlts_alloc::Allocation;
    /// use hlts_dfg::parse;
    /// use hlts_etpn::Etpn;
    /// use hlts_sched::{list_schedule, ListPriority};
    ///
    /// let dfg = parse("dfg t { input a, b; N1: s = a + b; N2: p = s * b; output p; }").unwrap();
    /// let schedule = list_schedule(&dfg, &[], ListPriority::CriticalPath).unwrap();
    /// let full = Etpn::from_parts(&dfg, &schedule, &Allocation::one_to_one(&dfg)).unwrap();
    /// assert_eq!(Etpn::execution_time_of(&dfg, &schedule), full.execution_time());
    /// ```
    #[must_use]
    pub fn execution_time_of(dfg: &Dfg, schedule: &Schedule) -> usize {
        let net = build::control_part(dfg, schedule).net;
        net.chain_critical_path()
            .unwrap_or_else(|| net.critical_path())
    }

    /// The structural data path.
    #[must_use]
    pub fn data_path(&self) -> &DataPath {
        &self.data_path
    }

    /// The Petri-net control part.
    #[must_use]
    pub fn control(&self) -> &ControlNet {
        &self.control
    }

    /// Execution time `E`: the critical-path length of the control part,
    /// in control steps, extracted from the reachability tree. This is
    /// the from-scratch reference; the synthesis inner loop uses
    /// [`execution_time_with`] instead.
    ///
    /// [`execution_time_with`]: Etpn::execution_time_with
    #[must_use]
    pub fn execution_time(&self) -> usize {
        self.control.critical_path()
    }

    /// Execution time `E` via a shared [`CriticalPathEngine`]:
    /// memoized across structurally identical control parts and using
    /// the single-token shortcut where it applies. Result is identical
    /// to [`execution_time`](Etpn::execution_time).
    #[must_use]
    pub fn execution_time_with(&self, engine: &CriticalPathEngine) -> usize {
        engine.critical_path(&self.control)
    }

    pub(crate) fn new(data_path: DataPath, control: ControlNet) -> Self {
        Etpn { data_path, control }
    }
}
