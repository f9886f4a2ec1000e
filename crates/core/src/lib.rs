//! `depburst` — DVFS performance predictors for managed multithreaded
//! applications.
//!
//! This crate implements the contribution of *"DVFS Performance Prediction
//! for Managed Multithreaded Applications"* (Akram, Sartor, Eeckhout —
//! ISPASS 2016) together with every baseline the paper compares against:
//!
//! | Predictor | Paper section | Type |
//! |---|---|---|
//! | [`MCrit`] | §II-C | naive multithreaded extension: per-thread CRIT, max over threads |
//! | [`Coop`] | §II-C | M+CRIT applied per application/collector phase |
//! | [`Dep`] | §III | synchronization-epoch decomposition with critical-thread prediction |
//! | `+BURST` | §III-D | store-queue-full time added to each thread's non-scaling component |
//!
//! Every predictor consumes a [`dvfs_trace::ExecutionTrace`] measured at a
//! base frequency and predicts the wall-clock duration of the same work at
//! a target frequency. The per-thread scaling/non-scaling split can use any
//! of the three published single-thread models ([`NonScalingModel`]:
//! stall time, leading loads, or CRIT — the paper uses CRIT).
//!
//! # Quick start
//!
//! ```
//! use depburst::{Dep, DvfsPredictor};
//! use dvfs_trace::{ExecutionTrace, Freq, TimeDelta, Time};
//!
//! let trace = ExecutionTrace {
//!     base: Freq::from_ghz(1.0),
//!     start: Time::ZERO,
//!     total: TimeDelta::from_millis(10.0),
//!     epochs: vec![],
//!     markers: vec![],
//!     threads: vec![],
//! };
//! let predictor = Dep::dep_burst(); // DEP+BURST, across-epoch CTP
//! let at_4ghz = predictor.predict(&trace, Freq::from_ghz(4.0));
//! assert_eq!(at_4ghz, TimeDelta::ZERO); // empty trace: nothing to predict
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod coop;
mod criticality;
mod dep;
mod mcrit;
mod metrics;
mod nonscaling;
mod predictor;
#[doc(hidden)]
pub mod reference;
mod regression;

pub use coop::Coop;
pub use criticality::CriticalityStack;
pub use dep::{CtpMode, Dep};
pub use mcrit::MCrit;
pub use metrics::{mean_absolute_error, relative_error, ErrorStats};
pub use nonscaling::NonScalingModel;
pub use predictor::{DvfsPredictor, MAX_PLAUSIBLE_SLOWDOWN};
pub use regression::{RegressionError, RegressionPredictor, RegressionTrainer};

/// The full predictor roster evaluated in the paper's Figure 3: M+CRIT,
/// COOP and DEP, each with and without BURST (all using CRIT as the
/// per-thread model, as the paper does).
#[must_use]
pub fn paper_roster() -> Vec<Box<dyn DvfsPredictor>> {
    vec![
        Box::new(MCrit::new(NonScalingModel::Crit, false)),
        Box::new(MCrit::new(NonScalingModel::Crit, true)),
        Box::new(Coop::new(NonScalingModel::Crit, false)),
        Box::new(Coop::new(NonScalingModel::Crit, true)),
        Box::new(Dep::new(NonScalingModel::Crit, false, CtpMode::AcrossEpoch)),
        Box::new(Dep::new(NonScalingModel::Crit, true, CtpMode::AcrossEpoch)),
    ]
}
