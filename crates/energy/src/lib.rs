//! `energyx` — processor power modelling and the DEP+BURST energy-management
//! case study (paper §VI).
//!
//! * [`VfCurve`] — the voltage/frequency operating points (Haswell
//!   i7-4770K-like, 22 nm, 125 MHz steps);
//! * [`PowerModel`] — an analytical CMOS chip power model (the McPAT 1.0
//!   substitute): per-core dynamic `C·V²·f·activity` plus
//!   voltage-dependent leakage and uncore power;
//! * [`EnergyManager`] — the paper's quantum-based manager: start at the
//!   highest frequency, predict each interval's performance at every DVFS
//!   state with a DEP+BURST-style predictor, and pick the lowest frequency
//!   whose predicted slowdown vs. the maximum frequency stays within a
//!   user-specified bound;
//! * [`static_optimal`] — the oracle baseline of Fig. 7: the single fixed
//!   frequency minimising measured energy, subject to the same measured
//!   slowdown bound.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod governor;
mod manager;
mod metrics;
mod oracle;
mod power;
mod vf;

pub use governor::{
    AllocScratch, Allocation, BreakerConfig, CentralGovernor, DegradationLadder, GovernorMode,
    GovernorPolicy, HierarchicalGovernor, LocalGovernor, MachineView, OvershootBreaker, TableSet,
    REJOIN_THRESHOLD,
};
pub use manager::{EnergyManager, ManagerConfig, ManagerReport};
pub use metrics::{select_best, Efficiency, Objective};
pub use oracle::{static_optimal, try_static_optimal, StaticPoint, StaticSweep};
pub use power::{EnergyAccount, PowerBreakdown, PowerModel};
pub use vf::VfCurve;
