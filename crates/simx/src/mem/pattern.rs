//! Synthetic memory-access patterns and deterministic address streams.
//!
//! Work items describe their memory behaviour with an [`AccessPattern`];
//! the hierarchy samples addresses from the pattern to estimate hit rates.
//! Streams are seeded so the same work item generates the same addresses
//! regardless of when (or at what frequency) it executes.

use depburst_core::stablehash::{SplitMix64, GAMMA};
use serde::{Deserialize, Serialize};

/// How a memory work item touches its data.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum AccessPattern {
    /// Sequential lines from `base` (streaming scans, GC copy reads).
    Streaming {
        /// First byte address.
        base: u64,
    },
    /// Constant-stride accesses within a working set (array walks with a
    /// fixed element size).
    Strided {
        /// First byte address.
        base: u64,
        /// Stride in bytes.
        stride: u64,
        /// Working-set size in bytes (wraps around).
        working_set: u64,
    },
    /// Uniformly random accesses within a working set (hash tables, object
    /// graphs with poor locality).
    Random {
        /// Region base address.
        base: u64,
        /// Region size in bytes.
        working_set: u64,
    },
}

/// A deterministic stream of byte addresses drawn from a pattern.
///
/// Address generation runs once per *sampled* access, which adds up to
/// tens of millions of calls per point, so the per-call arithmetic avoids
/// hardware division: the strided offset is carried incrementally (one
/// conditional subtract replaces the modulo) and the random pattern maps
/// the PRNG output into the working set by multiplicative range reduction
/// (a high-half multiply) instead of a remainder. Both are exact,
/// deterministic functions of (pattern, seed, index).
#[derive(Debug, Clone)]
pub struct AddressStream {
    pattern: AccessPattern,
    rng: SplitMix64,
    index: u64,
    /// Strided patterns: `(index * stride) mod ws`, carried across calls.
    stride_pos: u64,
}

impl AddressStream {
    /// Creates a stream; `seed` pins the random sequence.
    #[must_use]
    pub fn new(pattern: AccessPattern, seed: u64) -> Self {
        AddressStream {
            pattern,
            rng: SplitMix64::new(seed ^ GAMMA),
            index: 0,
            stride_pos: 0,
        }
    }

    /// The next byte address.
    pub fn next_addr(&mut self) -> u64 {
        let i = self.index;
        self.index += 1;
        match self.pattern {
            AccessPattern::Streaming { base } => base + i * 64,
            AccessPattern::Strided {
                base,
                stride,
                working_set,
            } => {
                let ws = working_set.max(stride.max(1));
                let addr = base + self.stride_pos;
                // stride <= ws by construction, so one conditional
                // subtract keeps the carried position in [0, ws).
                self.stride_pos += stride;
                if self.stride_pos >= ws {
                    self.stride_pos -= ws;
                }
                addr
            }
            AccessPattern::Random { base, working_set } => {
                let r = self.rng.next_u64();
                // Multiplicative range reduction: maps uniform u64 `r` to
                // uniform [0, ws) with a high-half multiply.
                let ws = working_set.max(1);
                base + ((u128::from(r) * u128::from(ws)) >> 64) as u64
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streaming_walks_lines() {
        let mut s = AddressStream::new(AccessPattern::Streaming { base: 4096 }, 1);
        assert_eq!(s.next_addr(), 4096);
        assert_eq!(s.next_addr(), 4096 + 64);
        assert_eq!(s.next_addr(), 4096 + 128);
    }

    #[test]
    fn strided_wraps_at_working_set() {
        let p = AccessPattern::Strided {
            base: 0,
            stride: 128,
            working_set: 256,
        };
        let mut s = AddressStream::new(p, 1);
        assert_eq!(s.next_addr(), 0);
        assert_eq!(s.next_addr(), 128);
        assert_eq!(s.next_addr(), 0);
    }

    #[test]
    fn random_is_deterministic_per_seed_and_in_range() {
        let p = AccessPattern::Random {
            base: 1 << 20,
            working_set: 4096,
        };
        let a: Vec<u64> = {
            let mut s = AddressStream::new(p, 42);
            (0..100).map(|_| s.next_addr()).collect()
        };
        let b: Vec<u64> = {
            let mut s = AddressStream::new(p, 42);
            (0..100).map(|_| s.next_addr()).collect()
        };
        assert_eq!(a, b);
        assert!(a.iter().all(|&x| (1 << 20..(1 << 20) + 4096).contains(&x)));
        let mut s2 = AddressStream::new(p, 43);
        let c: Vec<u64> = (0..100).map(|_| s2.next_addr()).collect();
        assert_ne!(a, c, "different seeds must give different streams");
    }
}
