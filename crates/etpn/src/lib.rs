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
//! quantity the synthesis algorithm uses for its ΔE estimates. The
//! synthesis loop prices and analyzes designs without the full lowering:
//! [`Etpn::execution_time_of`] reads `E` off the schedule's length, and
//! [`Etpn::data_path_of`] builds the structural data path (no guards)
//! through the same builder [`Etpn::from_parts`] uses;
//! [`Etpn::data_path_into`] writes it into a reused [`DataPath`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod build;
mod data_path;
mod dot;
mod error;
mod petri;

pub use build::EtpnBuildError;
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

    /// Execution time `E` of any design `schedule` lowers to: its number
    /// of control steps. The lowering's control part is a chain of
    /// `num_steps` step places ending in the final place
    /// ([`ControlNet::linear`]); a looping behaviour adds only a guarded
    /// loop-back from the last step to the first
    /// ([`ControlNet::add_loop_back`]), which closes a cycle, and the
    /// critical path counts acyclic token paths only. So the longest path
    /// to the final place is the chain itself, whatever the graph or the
    /// binding, and nothing is built to read it. Equal to
    /// [`execution_time`](Etpn::execution_time) of
    /// [`from_parts`](Etpn::from_parts) whenever that lowering succeeds
    /// (see [`check_parts`](Etpn::check_parts)); the property tests
    /// check it against the reachability tree.
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
    /// assert_eq!(Etpn::execution_time_of(&schedule), full.execution_time());
    /// ```
    #[must_use]
    pub fn execution_time_of(schedule: &Schedule) -> usize {
        schedule.num_steps()
    }

    /// The structural data path of the design: the nodes and the
    /// `(from, to, port)` arcs of [`data_path`](Etpn::data_path) of
    /// [`from_parts`](Etpn::from_parts), in the same order, but with no
    /// guards on the arcs and no control part built. It is a function
    /// of the graph's data edges and the binding alone: `schedule` is
    /// only checked ([`check_parts`](Etpn::check_parts)), so two legal
    /// schedules of one binding give equal paths. This is all the cost
    /// estimate and the testability analysis read.
    ///
    /// # Errors
    ///
    /// As for [`from_parts`](Etpn::from_parts).
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
    /// let alloc = Allocation::one_to_one(&dfg);
    /// let dp = Etpn::data_path_of(&dfg, &schedule, &alloc).unwrap();
    /// let full = Etpn::from_parts(&dfg, &schedule, &alloc).unwrap();
    /// assert_eq!(dp.num_arcs(), full.data_path().num_arcs());
    /// assert!(dp.arcs().iter().all(|arc| arc.guards().is_empty()));
    /// ```
    pub fn data_path_of(
        dfg: &Dfg,
        schedule: &Schedule,
        allocation: &Allocation,
    ) -> Result<DataPath, EtpnBuildError> {
        let mut dp = DataPath::new();
        Etpn::data_path_into(dfg, schedule, allocation, &mut dp)?;
        Ok(dp)
    }

    /// [`data_path_of`](Etpn::data_path_of), written into `dp` in place
    /// of what it held. `dp` keeps its buffers' capacity
    /// ([`DataPath::clear`]), so rebuilding into one path allocates
    /// only for the kind sets of its module nodes once the path has
    /// been this large. On an error `dp` is left untouched.
    ///
    /// # Errors
    ///
    /// As for [`from_parts`](Etpn::from_parts).
    pub fn data_path_into(
        dfg: &Dfg,
        schedule: &Schedule,
        allocation: &Allocation,
        dp: &mut DataPath,
    ) -> Result<(), EtpnBuildError> {
        build::check(dfg, schedule, allocation)?;
        build::data_path(dp, dfg, allocation, None);
        Ok(())
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
    /// the paper's from-scratch reference; the synthesis inner loop
    /// reads [`execution_time_of`](Etpn::execution_time_of) instead.
    #[must_use]
    pub fn execution_time(&self) -> usize {
        self.control.critical_path()
    }

    pub(crate) fn new(data_path: DataPath, control: ControlNet) -> Self {
        Etpn { data_path, control }
    }
}
