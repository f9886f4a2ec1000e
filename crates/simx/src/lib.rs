//! `simx` — a multicore interval-model timing simulator.
//!
//! This crate is the reproduction's substitute for the Sniper 6.0 simulator
//! used in the DEP+BURST paper (ISPASS 2016, §IV). It simulates a small
//! chip multiprocessor — out-of-order cores behind private L1/L2 caches, a
//! shared fixed-frequency L3, and banked DRAM with variable service latency
//! — executing multithreaded *programs* expressed as streams of abstract
//! work items (compute, load-miss clusters, store bursts) and OS actions
//! (futex wait/wake, timers, spawn/exit).
//!
//! Faithfulness goals (what the DVFS predictors can observe must behave like
//! real hardware):
//!
//! * core work scales with frequency, DRAM and L3 time does not;
//! * miss latency varies with bank and row-buffer state and with
//!   cross-core contention;
//! * store bursts saturate a finite store queue and stall the pipeline at
//!   memory speed;
//! * the four DVFS counter models of the paper — stall time, leading loads,
//!   CRIT, and the new store-queue-full counter — are computed by their
//!   published estimation algorithms, *not* read off the ground truth;
//! * every futex transition closes a synchronization epoch in the emitted
//!   [`dvfs_trace::ExecutionTrace`].
//!
//! The top-level entry point is [`Machine`].

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod config;
pub mod cpu;
pub mod engine;
pub mod faults;
pub mod fleet;
pub mod invariants;
pub mod ladder;
pub mod mem;
pub mod os;
pub mod program;
pub mod sampling;
pub mod thermal;
pub mod watchdog;

mod machine;
mod stats;
mod tracebuild;

pub use config::MachineConfig;
pub use faults::{FaultClass, FaultConfig, FaultInjector};
pub use fleet::{ChaosConfig, ChaosSchedule, ChaosState, FleetTopology};
pub use invariants::{Invariant, InvariantMode, InvariantViolation, Monitor};
pub use machine::{Machine, MachineError, RunOutcome, WATCHDOG_STRIDE};
pub use program::{
    Action, FutexId, ProgContext, SpawnRequest, ThreadProgram, WaitOutcome, WorkItem,
};
pub use sampling::{Extrapolation, RegionMeasurement, RegionSchedule, SamplingConfig};
pub use stats::RunStats;
pub use thermal::{ThermalConfig, ThermalModel, ThrottleLadder, ThrottleStage};

#[cfg(test)]
mod send_tests {
    /// The experiment pool moves whole machines between worker threads, so
    /// `Machine` (and everything a program can capture) must stay `Send`.
    #[test]
    fn machine_is_send() {
        fn assert_send<T: Send>() {}
        assert_send::<crate::Machine>();
        assert_send::<Box<dyn crate::ThreadProgram>>();
    }
}
