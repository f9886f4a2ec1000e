//! The memory subsystem: private L1/L2 caches, a shared fixed-frequency
//! L3, and banked DRAM with variable service latency.

mod cache;
mod dram;
mod hierarchy;
mod pattern;

pub use cache::Cache;
pub use dram::{Dram, DramStats, MissRounds, RoundsOutcome};
pub use hierarchy::{MemoryHierarchy, SampledMix};
pub use pattern::{AccessPattern, AddressStream};
