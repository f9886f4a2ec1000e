//! The per-thread DVFS performance-counter set.
//!
//! These are the counters the paper's predictor family consumes (§II-A,
//! §III-C, §III-D). On real hardware they would be per-core performance
//! counters saved/restored by the kernel module at futex boundaries; in this
//! reproduction the simulator maintains them per thread.

use core::ops::{Add, AddAssign, Sub};

use depburst_core::num::round_u64;
use serde::{Deserialize, Serialize};

use crate::TimeDelta;

/// A snapshot (or delta between snapshots) of one thread's DVFS counters.
///
/// All time-valued fields are measured in wall-clock time at the frequency
/// the thread was running at when the counter advanced.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct DvfsCounters {
    /// Time the thread was scheduled on a core and executing (excludes
    /// futex sleep).
    pub active: TimeDelta,
    /// Non-scaling time as estimated by the CRIT critical-path algorithm
    /// (Miftakhutdinov et al. \[31\]): the accumulated latency of the critical
    /// chain through clusters of long-latency load misses.
    pub crit: TimeDelta,
    /// Non-scaling time as estimated by the leading-loads model: the full
    /// latency of the leading miss of each miss cluster.
    pub leading_loads: TimeDelta,
    /// Non-scaling time as estimated by the stall-time model: time the
    /// pipeline could not commit instructions due to memory.
    pub stall: TimeDelta,
    /// Time the store queue was full (the new hardware counter the paper
    /// introduces for BURST, §III-D/E).
    pub sq_full: TimeDelta,
    /// Committed instructions.
    pub instructions: u64,
    /// Committed load micro-ops.
    pub loads: u64,
    /// Committed store micro-ops.
    pub stores: u64,
    /// Last-level-cache load misses serviced by DRAM.
    pub llc_misses: u64,
}

impl DvfsCounters {
    /// An all-zero counter set.
    #[must_use]
    #[inline]
    pub fn zero() -> Self {
        Self::default()
    }

    /// The delta `self - earlier`, used to attribute counter increments to a
    /// synchronization epoch.
    ///
    /// Counters are monotone on a correctly ordered pair of snapshots; an
    /// out-of-order harvest (a delayed sample on real hardware) would
    /// otherwise underflow the `u64` event counts and produce negative
    /// time deltas, so every field saturates at zero instead.
    #[must_use]
    #[inline]
    pub fn delta_since(&self, earlier: &DvfsCounters) -> DvfsCounters {
        DvfsCounters {
            active: (self.active - earlier.active).clamp_non_negative(),
            crit: (self.crit - earlier.crit).clamp_non_negative(),
            leading_loads: (self.leading_loads - earlier.leading_loads).clamp_non_negative(),
            stall: (self.stall - earlier.stall).clamp_non_negative(),
            sq_full: (self.sq_full - earlier.sq_full).clamp_non_negative(),
            instructions: self.instructions.saturating_sub(earlier.instructions),
            loads: self.loads.saturating_sub(earlier.loads),
            stores: self.stores.saturating_sub(earlier.stores),
            llc_misses: self.llc_misses.saturating_sub(earlier.llc_misses),
        }
    }

    /// True if every field is zero (the thread did not run).
    #[must_use]
    #[inline]
    pub fn is_zero(&self) -> bool {
        self.active == TimeDelta::ZERO
            && self.instructions == 0
            && self.loads == 0
            && self.stores == 0
    }

    /// Every field multiplied by `frac`, event counts rounded: the share of
    /// an epoch's counters that falls inside a window covering `frac` of
    /// it (counters are treated as uniform within an epoch).
    #[must_use]
    #[inline]
    pub fn scaled(&self, frac: f64) -> DvfsCounters {
        DvfsCounters {
            active: self.active * frac,
            crit: self.crit * frac,
            leading_loads: self.leading_loads * frac,
            stall: self.stall * frac,
            sq_full: self.sq_full * frac,
            instructions: round_u64(self.instructions as f64 * frac),
            loads: round_u64(self.loads as f64 * frac),
            stores: round_u64(self.stores as f64 * frac),
            llc_misses: round_u64(self.llc_misses as f64 * frac),
        }
    }

    /// The scaling component under a given non-scaling estimate: active time
    /// minus the estimate, clamped at zero (a non-scaling estimate may
    /// slightly exceed measured active time at epoch granularity).
    #[must_use]
    #[inline]
    pub fn scaling_given(&self, non_scaling: TimeDelta) -> TimeDelta {
        (self.active - non_scaling).clamp_non_negative()
    }
}

impl Add for DvfsCounters {
    type Output = DvfsCounters;
    #[inline]
    fn add(self, rhs: DvfsCounters) -> DvfsCounters {
        DvfsCounters {
            active: self.active + rhs.active,
            crit: self.crit + rhs.crit,
            leading_loads: self.leading_loads + rhs.leading_loads,
            stall: self.stall + rhs.stall,
            sq_full: self.sq_full + rhs.sq_full,
            instructions: self.instructions + rhs.instructions,
            loads: self.loads + rhs.loads,
            stores: self.stores + rhs.stores,
            llc_misses: self.llc_misses + rhs.llc_misses,
        }
    }
}

impl AddAssign for DvfsCounters {
    #[inline]
    fn add_assign(&mut self, rhs: DvfsCounters) {
        *self = *self + rhs;
    }
}

impl Sub for DvfsCounters {
    type Output = DvfsCounters;
    #[inline]
    fn sub(self, rhs: DvfsCounters) -> DvfsCounters {
        self.delta_since(&rhs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(scale: f64) -> DvfsCounters {
        DvfsCounters {
            active: TimeDelta::from_micros(10.0 * scale),
            crit: TimeDelta::from_micros(4.0 * scale),
            leading_loads: TimeDelta::from_micros(3.0 * scale),
            stall: TimeDelta::from_micros(2.0 * scale),
            sq_full: TimeDelta::from_micros(1.0 * scale),
            instructions: (1000.0 * scale) as u64,
            loads: (300.0 * scale) as u64,
            stores: (100.0 * scale) as u64,
            llc_misses: (10.0 * scale) as u64,
        }
    }

    #[test]
    fn delta_since_subtracts_fieldwise() {
        let later = sample(2.0);
        let earlier = sample(1.0);
        let d = later.delta_since(&earlier);
        assert!((d.active.as_micros() - 10.0).abs() < 1e-9);
        assert!((d.sq_full.as_micros() - 1.0).abs() < 1e-9);
        assert_eq!(d.instructions, 1000);
        assert_eq!(d.llc_misses, 10);
    }

    #[test]
    fn delta_since_saturates_on_out_of_order_snapshots() {
        let later = sample(2.0);
        let earlier = sample(1.0);
        // Arguments swapped: a correctly ordered pair in reverse.
        let d = earlier.delta_since(&later);
        assert_eq!(d.instructions, 0);
        assert_eq!(d.loads, 0);
        assert_eq!(d.active, TimeDelta::ZERO);
        assert_eq!(d.crit, TimeDelta::ZERO);
        assert!(!d.active.is_negative());
    }

    #[test]
    fn add_accumulates() {
        let sum = sample(1.0) + sample(1.0);
        assert!((sum.active.as_micros() - 20.0).abs() < 1e-9);
        assert_eq!(sum.stores, 200);
    }

    #[test]
    fn zero_detection() {
        assert!(DvfsCounters::zero().is_zero());
        assert!(!sample(1.0).is_zero());
    }

    #[test]
    fn scaling_clamps_at_zero() {
        let c = sample(1.0);
        let s = c.scaling_given(TimeDelta::from_micros(4.0));
        assert!((s.as_micros() - 6.0).abs() < 1e-9);
        let clamped = c.scaling_given(TimeDelta::from_micros(100.0));
        assert_eq!(clamped, TimeDelta::ZERO);
    }
}
