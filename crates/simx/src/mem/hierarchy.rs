//! The cache hierarchy: private L1D/L2 per core, shared L3.
//!
//! Work items do not simulate every access individually; instead the
//! hierarchy samples **one access in K** (`MachineConfig::sample_ratio`)
//! and classifies it against caches whose capacity is scaled down by the
//! same factor K, with addresses compressed by K so spatial structure is
//! preserved. Scaling both the access stream and the capacities keeps
//! footprint-to-capacity ratios — and therefore hit rates — faithful,
//! while paying per-access cost for only a bounded sample. The cache
//! structures themselves are real (sets, associativity, LRU, a shared L3),
//! so cross-thread L3 interference emerges naturally.

use dvfs_trace::CoreId;

use super::{AccessPattern, AddressStream, Cache};
use crate::config::MachineConfig;

/// Fractions of accesses serviced per level. Sums to 1 (within fp noise)
/// whenever at least one access was sampled.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct SampledMix {
    /// Fraction hitting L1.
    pub l1: f64,
    /// Fraction hitting L2.
    pub l2: f64,
    /// Fraction hitting the shared L3.
    pub l3: f64,
    /// Fraction going to DRAM.
    pub dram: f64,
    /// Representative DRAM line addresses observed in the sample (used by
    /// the DRAM model for bank/row assignment).
    pub dram_lines: SampleLines,
}

/// A small fixed buffer of sampled DRAM line addresses.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct SampleLines {
    lines: [u64; 8],
    len: u8,
}

impl SampleLines {
    /// Records a line address if space remains.
    pub fn push(&mut self, line: u64) {
        if (self.len as usize) < self.lines.len() {
            self.lines[self.len as usize] = line;
            self.len += 1;
        }
    }

    /// The recorded lines, in sample order.
    #[must_use]
    #[inline]
    pub fn as_slice(&self) -> &[u64] {
        &self.lines[..usize::from(self.len)]
    }
}

/// Private L1/L2 per core plus the shared L3, in sampled form.
#[derive(Debug)]
pub struct MemoryHierarchy {
    l1d: Vec<Cache>,
    l2: Vec<Cache>,
    l3: Cache,
    sample_cap: u32,
    sample_ratio: u64,
}

/// Scales a cache's capacity down by the sampling ratio, keeping at least
/// one set.
fn scaled(config: &crate::config::CacheConfig, k: u64) -> crate::config::CacheConfig {
    let min_capacity = u64::from(config.line_size) * u64::from(config.associativity);
    crate::config::CacheConfig {
        capacity: (config.capacity / k).max(min_capacity),
        ..*config
    }
}

impl MemoryHierarchy {
    /// Builds the hierarchy for `config.cores` cores.
    #[must_use]
    pub fn new(config: &MachineConfig) -> Self {
        let k = u64::from(config.sample_ratio.max(1));
        MemoryHierarchy {
            l1d: (0..config.cores)
                .map(|_| Cache::new(&scaled(&config.l1d, k)))
                .collect(),
            l2: (0..config.cores)
                .map(|_| Cache::new(&scaled(&config.l2, k)))
                .collect(),
            l3: Cache::new(&scaled(&config.l3, k)),
            sample_cap: config.cache_sample_cap,
            sample_ratio: k,
        }
    }

    /// Samples one access in `sample_ratio` of the `accesses`-long stream
    /// described by `pattern` and returns the per-level service mix.
    /// Sampled addresses are compressed by the same ratio before probing
    /// the capacity-scaled caches, preserving footprint/capacity ratios.
    pub fn sample_mix(
        &mut self,
        core: CoreId,
        pattern: AccessPattern,
        seed: u64,
        accesses: u64,
    ) -> SampledMix {
        if accesses == 0 {
            return SampledMix::default();
        }
        let k = self.sample_ratio;
        let n = accesses
            .div_ceil(k)
            .clamp(1, u64::from(self.sample_cap));
        // Sample every k-th access of the stream so the sample spans the
        // same footprint as the full stream. The default ratio is a power
        // of two, so address compression is a shift on that path.
        let k_shift = if k.is_power_of_two() {
            Some(k.trailing_zeros())
        } else {
            None
        };
        let mut stream = AddressStream::new(scaled_pattern(pattern, k), seed);
        let mut mix = SampledMix::default();
        // Hoisted borrows + integer tallies: this loop runs for every
        // sampled access of every chunk. It is the hierarchy's only walk:
        // L1, then L2, then the shared L3, each a forced-inline
        // `Cache::access`, a miss at every level counting as DRAM.
        let c = core.index();
        let l1 = &mut self.l1d[c];
        let l2 = &mut self.l2[c];
        let l3 = &mut self.l3;
        let (mut n_l1, mut n_l2, mut n_l3, mut n_dram) = (0u64, 0u64, 0u64, 0u64);
        for _ in 0..n {
            let raw = stream.next_addr();
            let addr = match k_shift {
                Some(s) => raw >> s,
                None => raw / k,
            };
            if l1.access(addr) {
                n_l1 += 1;
            } else if l2.access(addr) {
                n_l2 += 1;
            } else if l3.access(addr) {
                n_l3 += 1;
            } else {
                n_dram += 1;
                mix.dram_lines.push(addr >> 6);
            }
        }
        let total = n as f64;
        mix.l1 = n_l1 as f64 / total;
        mix.l2 = n_l2 as f64 / total;
        mix.l3 = n_l3 as f64 / total;
        mix.dram = n_dram as f64 / total;
        mix
    }

    /// Walks every cache and returns a description of each accounting
    /// inconsistency: hit + miss counters that do not sum to the access
    /// count, or residency exceeding capacity. Empty on a healthy
    /// hierarchy. (The hierarchy is non-inclusive by design, so no
    /// inclusion property is checked.) Used by the invariant monitor's
    /// `full` tier.
    #[must_use]
    pub fn sanity_issues(&self) -> Vec<String> {
        let mut issues = Vec::new();
        let labelled = self
            .l1d
            .iter()
            .enumerate()
            .map(|(c, cache)| (format!("l1d[{c}]"), cache))
            .chain(
                self.l2
                    .iter()
                    .enumerate()
                    .map(|(c, cache)| (format!("l2[{c}]"), cache)),
            )
            .chain(std::iter::once(("l3".to_owned(), &self.l3)));
        for (label, cache) in labelled {
            if cache.hits() + cache.misses() != cache.accesses() {
                issues.push(format!(
                    "{label}: hits {} + misses {} != accesses {}",
                    cache.hits(),
                    cache.misses(),
                    cache.accesses()
                ));
            }
            if cache.resident_lines() > cache.capacity_lines() {
                issues.push(format!(
                    "{label}: {} resident lines exceed capacity {}",
                    cache.resident_lines(),
                    cache.capacity_lines()
                ));
            }
        }
        issues
    }
}

/// When only every k-th access is sampled, widen sequential patterns so the
/// sample covers the same address footprint as the full stream (random
/// patterns are self-similar and need no adjustment).
fn scaled_pattern(pattern: AccessPattern, k: u64) -> AccessPattern {
    match pattern {
        AccessPattern::Streaming { base } => AccessPattern::Strided {
            base,
            stride: 64 * k,
            working_set: u64::MAX,
        },
        AccessPattern::Strided {
            base,
            stride,
            working_set,
        } => AccessPattern::Strided {
            base,
            stride: stride.saturating_mul(k),
            working_set,
        },
        random @ AccessPattern::Random { .. } => random,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hierarchy() -> MemoryHierarchy {
        MemoryHierarchy::new(&MachineConfig::haswell_quad())
    }

    /// Warm the hierarchy with `rounds` passes, then measure one more.
    fn warmed_mix(
        h: &mut MemoryHierarchy,
        core: CoreId,
        p: AccessPattern,
        accesses: u64,
        rounds: u64,
    ) -> SampledMix {
        for r in 0..rounds {
            h.sample_mix(core, p, 100 + r, accesses);
        }
        h.sample_mix(core, p, 999, accesses)
    }

    #[test]
    fn small_working_set_hits_l1() {
        let mut h = hierarchy();
        let p = AccessPattern::Random {
            base: 0,
            working_set: 8 * 1024, // fits in 32 KB L1
        };
        let mix = warmed_mix(&mut h, CoreId(0), p, 50_000, 4);
        assert!(mix.l1 > 0.8, "expected mostly L1 hits, got {mix:?}");
    }

    #[test]
    fn huge_working_set_goes_to_dram() {
        let mut h = hierarchy();
        let p = AccessPattern::Random {
            base: 0,
            working_set: 512 * 1024 * 1024, // 512 MB >> 4 MB L3
        };
        let mix = warmed_mix(&mut h, CoreId(0), p, 100_000, 2);
        assert!(mix.dram > 0.9, "expected mostly DRAM, got {mix:?}");
        assert!(!mix.dram_lines.as_slice().is_empty());
    }

    #[test]
    fn medium_working_set_hits_l3() {
        let mut h = hierarchy();
        let p = AccessPattern::Random {
            base: 0,
            working_set: 2 * 1024 * 1024, // fits in 4 MB L3, exceeds 256 KB L2
        };
        let mix = warmed_mix(&mut h, CoreId(0), p, 100_000, 8);
        assert!(
            mix.l1 + mix.l2 + mix.l3 > 0.7,
            "expected mostly on-chip hits, got {mix:?}"
        );
        assert!(mix.l3 > 0.3, "expected substantial L3 fraction, got {mix:?}");
    }

    #[test]
    fn l3_is_shared_between_cores() {
        let mut h = hierarchy();
        let p = AccessPattern::Random {
            base: 0,
            working_set: 2 * 1024 * 1024,
        };
        // Core 0 warms the (shared) L3 thoroughly.
        for r in 0..12 {
            h.sample_mix(CoreId(0), p, r, 100_000);
        }
        // Core 1 misses its private caches but hits the warmed L3.
        let mix = h.sample_mix(CoreId(1), p, 999, 100_000);
        assert!(
            mix.l3 > mix.dram,
            "core 1 should reuse core 0's L3 contents: {mix:?}"
        );
    }

    #[test]
    fn mix_fractions_sum_to_one() {
        let mut h = hierarchy();
        let p = AccessPattern::Strided {
            base: 0,
            stride: 64,
            working_set: 1 << 20,
        };
        let mix = h.sample_mix(CoreId(2), p, 7, 5_000);
        let sum = mix.l1 + mix.l2 + mix.l3 + mix.dram;
        assert!((sum - 1.0).abs() < 1e-9, "sum {sum}");
    }

    #[test]
    fn zero_accesses_yield_default_mix() {
        let mut h = hierarchy();
        let p = AccessPattern::Streaming { base: 0 };
        let mix = h.sample_mix(CoreId(0), p, 1, 0);
        assert_eq!(mix.l1 + mix.l2 + mix.l3 + mix.dram, 0.0);
    }

    #[test]
    fn warm_hierarchy_has_no_sanity_issues() {
        let mut h = hierarchy();
        let p = AccessPattern::Random {
            base: 0,
            working_set: 2 * 1024 * 1024,
        };
        for r in 0..4 {
            h.sample_mix(CoreId((r % 4) as u8), p, r, 50_000);
        }
        assert_eq!(h.sanity_issues(), Vec::<String>::new());
    }

    #[test]
    fn sample_lines_keep_the_first_eight_in_order() {
        let mut s = SampleLines::default();
        assert!(s.as_slice().is_empty());
        for line in 10..20 {
            s.push(line);
        }
        assert_eq!(s.as_slice(), &[10, 11, 12, 13, 14, 15, 16, 17]);
    }
}
