//! A chunk: the atomic unit of timed execution.
//!
//! The core slices each work item into chunks of roughly
//! [`MachineConfig::chunk_target`](crate::MachineConfig) wall-clock length.
//! A chunk knows its total duration, how much of that duration scales with
//! core frequency, and the counter increments it contributes. Chunks can be
//! *split* at an arbitrary fraction (preemption, quantum boundaries) and
//! *retimed* to a different frequency (DVFS transitions), both by linear
//! interpolation — exact for compute, and a faithful first-order
//! approximation for memory chunks at the 10–50 µs granularity used here.

use depburst_core::num::round_u64;
use dvfs_trace::{DvfsCounters, TimeDelta};

/// One slice of timed execution on a core.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Chunk {
    /// Total wall-clock duration at the frequency it was timed for.
    pub duration: TimeDelta,
    /// The portion of `duration` that scales with core frequency.
    pub scaling: TimeDelta,
    /// Counter increments accrued over the whole chunk
    /// (`counters.active == duration`).
    pub counters: DvfsCounters,
}

impl Chunk {
    /// A pure-compute chunk: everything scales.
    #[must_use]
    pub fn compute(duration: TimeDelta, instructions: u64) -> Self {
        let counters = DvfsCounters {
            active: duration,
            instructions,
            ..DvfsCounters::zero()
        };
        Chunk {
            duration,
            scaling: duration,
            counters,
        }
    }

    /// The non-scaling portion of the chunk's duration.
    #[must_use]
    pub fn non_scaling(&self) -> TimeDelta {
        (self.duration - self.scaling).clamp_non_negative()
    }

    /// Counter increments after a fraction `frac` of the chunk has elapsed
    /// (linear interpolation).
    #[must_use]
    pub fn counters_at_fraction(&self, frac: f64) -> DvfsCounters {
        let f = frac.clamp(0.0, 1.0);
        DvfsCounters {
            active: self.counters.active * f,
            crit: self.counters.crit * f,
            leading_loads: self.counters.leading_loads * f,
            stall: self.counters.stall * f,
            sq_full: self.counters.sq_full * f,
            instructions: round_u64(self.counters.instructions as f64 * f),
            loads: round_u64(self.counters.loads as f64 * f),
            stores: round_u64(self.counters.stores as f64 * f),
            llc_misses: round_u64(self.counters.llc_misses as f64 * f),
        }
    }

    /// Splits the chunk at elapsed fraction `frac`, returning
    /// `(completed, remaining)`.
    #[must_use]
    pub fn split(&self, frac: f64) -> (Chunk, Chunk) {
        let f = frac.clamp(0.0, 1.0);
        let done_counters = self.counters_at_fraction(f);
        let rem_counters = self.counters.delta_since(&done_counters);
        let done = Chunk {
            duration: self.duration * f,
            scaling: self.scaling * f,
            counters: done_counters,
        };
        let rem = Chunk {
            duration: self.duration * (1.0 - f),
            scaling: self.scaling * (1.0 - f),
            counters: rem_counters,
        };
        (done, rem)
    }

    /// Re-times the chunk for a frequency change: the scaling portion is
    /// multiplied by `ratio` (old frequency / new frequency); the
    /// non-scaling portion is untouched. Time-valued non-scaling counters
    /// (CRIT, leading loads, SQ-full) are physical memory time and stay
    /// fixed; the stall estimate keeps its ratio to the non-scaling part.
    #[must_use]
    pub fn retimed(&self, ratio: f64) -> Chunk {
        let non_scaling = self.non_scaling();
        let new_scaling = self.scaling * ratio;
        let new_duration = new_scaling + non_scaling;
        let mut counters = self.counters;
        counters.active = new_duration;
        Chunk {
            duration: new_duration,
            scaling: new_scaling,
            counters,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mem_chunk() -> Chunk {
        // 40 us total: 10 us scaling, 30 us non-scaling memory time.
        Chunk {
            duration: TimeDelta::from_micros(40.0),
            scaling: TimeDelta::from_micros(10.0),
            counters: DvfsCounters {
                active: TimeDelta::from_micros(40.0),
                crit: TimeDelta::from_micros(28.0),
                leading_loads: TimeDelta::from_micros(25.0),
                stall: TimeDelta::from_micros(22.0),
                sq_full: TimeDelta::ZERO,
                instructions: 4000,
                loads: 1000,
                stores: 0,
                llc_misses: 50,
            },
        }
    }

    #[test]
    fn compute_chunk_fully_scales() {
        let c = Chunk::compute(TimeDelta::from_micros(20.0), 1_000_000);
        assert_eq!(c.non_scaling(), TimeDelta::ZERO);
        assert_eq!(c.counters.instructions, 1_000_000);
        assert_eq!(c.counters.active, c.duration);
    }

    #[test]
    fn split_conserves_everything() {
        let c = mem_chunk();
        let (a, b) = c.split(0.25);
        assert!((a.duration.as_micros() - 10.0).abs() < 1e-9);
        assert!((b.duration.as_micros() - 30.0).abs() < 1e-9);
        assert!(((a.scaling + b.scaling).as_micros() - 10.0).abs() < 1e-9);
        assert_eq!(a.counters.instructions + b.counters.instructions, 4000);
        assert!(
            ((a.counters.crit + b.counters.crit).as_micros() - 28.0).abs() < 1e-9
        );
    }

    #[test]
    fn retime_scales_only_the_scaling_part() {
        let c = mem_chunk();
        // 1 GHz -> 4 GHz: ratio 0.25.
        let fast = c.retimed(0.25);
        assert!((fast.scaling.as_micros() - 2.5).abs() < 1e-9);
        assert!((fast.duration.as_micros() - 32.5).abs() < 1e-9);
        assert_eq!(fast.counters.crit, c.counters.crit);
        assert_eq!(fast.counters.active, fast.duration);
        // 4 GHz -> 1 GHz round trip restores the original.
        let back = fast.retimed(4.0);
        assert!((back.duration.as_micros() - 40.0).abs() < 1e-9);
    }

    #[test]
    fn interpolation_is_monotone() {
        let c = mem_chunk();
        let half = c.counters_at_fraction(0.5);
        let full = c.counters_at_fraction(1.0);
        assert!(half.active < full.active);
        assert!(half.crit < full.crit);
        assert_eq!(full, c.counters);
        let clamped = c.counters_at_fraction(2.0);
        assert_eq!(clamped, c.counters);
    }
}
