//! Shared vocabulary for the DEP+BURST reproduction.
//!
//! This crate defines the types exchanged between the simulator substrate
//! ([`simx`](https://docs.rs)), the predictor library (`depburst`), and the
//! energy-management case study (`energyx`):
//!
//! * [`Time`] / [`TimeDelta`] — instants and durations in simulated time;
//! * [`Freq`] and [`FreqLadder`] — clock frequencies and the set of DVFS
//!   operating points;
//! * [`DvfsCounters`] — the per-thread hardware counter set the paper's
//!   predictors consume (CRIT, leading loads, stall time, store-queue-full
//!   time);
//! * [`EpochRecord`] — one synchronization epoch, delimited by futex
//!   wait/wake transitions (paper §III-B);
//! * [`ExecutionTrace`] — everything a DVFS predictor may observe about a
//!   run at the base frequency.
//!
//! The types are deliberately independent of any simulator so the predictor
//! crate could, in principle, be fed counters harvested from real hardware.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod columns;
mod counters;
mod epoch;
mod freq;
mod ids;
mod phase;
mod signature;
mod thread_info;
mod summary;
mod time;
mod trace;

pub use counters::DvfsCounters;
pub use epoch::{EpochEnd, EpochRecord, ThreadSlice};
pub use freq::{Freq, FreqLadder, LadderError};
pub use ids::{CoreId, ThreadId};
pub use phase::{PhaseKind, PhaseMarker};
pub use signature::{
    recurrence, EpochSignature, RecurrenceReport, SignatureCluster, SignatureClusterer,
};
pub use summary::{RoleSummary, TraceSummary};
pub use thread_info::{ThreadInfo, ThreadRole};
pub use time::{Time, TimeDelta};
pub use trace::{ExecutionTrace, PhaseWindow, ThreadTotals, TraceError, WindowTotals};
