//! A set-associative cache with true-LRU replacement.
//!
//! The caches track tags only (this is a timing simulator, not a functional
//! one). Associativity is small (4–16), so each set is scanned linearly —
//! faster than pointer-chasing structures at these sizes. Sets live in one
//! flat preallocated tag array (`ways` slots per set) rather than a `Vec`
//! per set: `access` runs for every sampled address of every chunk, and
//! the flat layout spares the per-set pointer chase and keeps neighbouring
//! sets on the same cache line of the *host* machine.
//!
//! Each set is a ring: `heads[set]` is the slot of the most recently used
//! line, and recency runs forward from it, wrapping at the set's end. A set
//! fills backwards from its head, so resident lines always form one
//! contiguous run of the ring and empty slots (holding `EMPTY`) the rest.
//! A miss writes the new line one slot before the head and moves the head
//! there: on a full set that slot is the LRU line, so eviction costs
//! nothing. A hit at recency position `p > 0` carries the `p` more recent
//! tags one slot along and writes the hit tag at the head, so no access
//! moves more than `p` tags or calls `memmove`.

use crate::config::CacheConfig;

/// The tag of an empty slot. Real tags are line addresses shifted right by
/// at least one bit (`Cache::new` requires lines of two bytes or more), so
/// none can be all ones.
const EMPTY: u64 = u64::MAX;

/// A set-associative, true-LRU, write-allocate cache.
#[derive(Debug, Clone)]
pub struct Cache {
    /// Flat tag store: `ways` slots per set; see the module docs for the
    /// ring order.
    tags: Vec<u64>,
    /// Per set, the slot holding the most recently used line.
    heads: Vec<u8>,
    ways: usize,
    line_shift: u32,
    set_mask: u64,
    /// Bits consumed by the set index (precomputed `set_mask.count_ones()`).
    index_bits: u32,
    accesses: u64,
    /// Counted independently in the hit branch (not derived as
    /// `accesses - misses`) so `hits + misses == accesses` is a real
    /// cross-check for the invariant monitor.
    hits: u64,
    misses: u64,
}

impl Cache {
    /// Builds a cache from its configuration.
    ///
    /// # Panics
    /// Panics if the line size or set count is not a power of two, if lines
    /// are a single byte, or if the associativity is 0 or above 255.
    #[must_use]
    pub fn new(config: &CacheConfig) -> Self {
        let sets = config.sets();
        assert!(sets.is_power_of_two(), "set count must be a power of two");
        assert!(
            config.line_size.is_power_of_two() && config.line_size >= 2,
            "line size must be a power of two of at least 2 bytes"
        );
        let ways = config.associativity as usize;
        assert!(
            (1..=usize::from(u8::MAX)).contains(&ways),
            "associativity must be in 1..=255"
        );
        Cache {
            tags: vec![EMPTY; sets as usize * ways],
            heads: vec![0; sets as usize],
            ways,
            line_shift: config.line_size.trailing_zeros(),
            set_mask: sets - 1,
            index_bits: (sets - 1).count_ones(),
            accesses: 0,
            hits: 0,
            misses: 0,
        }
    }

    /// The set index and tag of `addr`.
    #[inline(always)]
    fn locate(&self, addr: u64) -> (usize, u64) {
        let line = addr >> self.line_shift;
        ((line & self.set_mask) as usize, line >> self.index_bits)
    }

    /// Looks up `addr`; on a miss, allocates the line (evicting LRU).
    /// Returns `true` on a hit. Forced inline: `MemoryHierarchy::sample_mix`
    /// probes up to three levels per sampled access.
    #[inline(always)]
    pub fn access(&mut self, addr: u64) -> bool {
        self.accesses += 1;
        let (set_idx, tag) = self.locate(addr);
        let ways = self.ways;
        let base = set_idx * ways;
        let set = &mut self.tags[base..base + ways];
        let head = usize::from(self.heads[set_idx]);
        // Fast path: repeated accesses to the hottest line hit at the MRU
        // slot and need no reordering.
        if set[head] == tag {
            self.hits += 1;
            return true;
        }
        if let Some(pos) = set.iter().position(|&t| t == tag) {
            // Carry the more recent lines one slot along the ring, from
            // the hit slot back to the head, and put the hit line at the
            // head.
            let mut slot = pos;
            while slot != head {
                let prev = if slot == 0 { ways - 1 } else { slot - 1 };
                set[slot] = set[prev];
                slot = prev;
            }
            set[head] = tag;
            self.hits += 1;
            true
        } else {
            self.misses += 1;
            // The slot before the head is empty, or on a full set holds
            // the LRU line, which this overwrites.
            let new_head = if head == 0 { ways - 1 } else { head - 1 };
            set[new_head] = tag;
            self.heads[set_idx] = new_head as u8;
            false
        }
    }

    /// Checks residency without updating recency or allocating.
    #[must_use]
    pub fn probe(&self, addr: u64) -> bool {
        let (set_idx, tag) = self.locate(addr);
        let base = set_idx * self.ways;
        self.tags[base..base + self.ways].contains(&tag)
    }

    /// Total accesses since construction.
    #[must_use]
    pub fn accesses(&self) -> u64 {
        self.accesses
    }

    /// Total hits since construction (counted independently of misses).
    #[must_use]
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Total misses since construction.
    #[must_use]
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Number of lines currently resident.
    #[must_use]
    pub fn resident_lines(&self) -> usize {
        self.tags.iter().filter(|&&t| t != EMPTY).count()
    }

    /// Maximum lines the cache can hold.
    #[must_use]
    pub fn capacity_lines(&self) -> usize {
        self.tags.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::CacheConfig;

    fn tiny() -> Cache {
        // 4 sets x 2 ways x 64 B lines = 512 B.
        Cache::new(&CacheConfig {
            capacity: 512,
            associativity: 2,
            line_size: 64,
            latency_cycles: 1,
        })
    }

    #[test]
    fn cold_miss_then_hit() {
        let mut c = tiny();
        assert!(!c.access(0x1000));
        assert!(c.access(0x1000));
        assert!(c.access(0x1001)); // same line
        assert_eq!(c.misses(), 1);
        assert_eq!(c.hits(), 2);
        assert_eq!(c.accesses(), 3);
    }

    #[test]
    fn hits_plus_misses_account_for_every_access() {
        let mut c = tiny();
        for i in 0..500u64 {
            c.access((i % 37) * 64);
        }
        assert_eq!(c.hits() + c.misses(), c.accesses());
    }

    #[test]
    fn lru_evicts_least_recent() {
        let mut c = tiny();
        // Three lines mapping to the same set (stride = sets * line = 256).
        let (a, b, d) = (0x0, 0x100, 0x200);
        c.access(a);
        c.access(b);
        c.access(a); // a is MRU, b is LRU
        c.access(d); // evicts b
        assert!(c.probe(a));
        assert!(!c.probe(b));
        assert!(c.probe(d));
    }

    #[test]
    fn probe_does_not_allocate() {
        let mut c = tiny();
        assert!(!c.probe(0x40));
        assert!(!c.access(0x40));
        assert!(c.probe(0x40));
    }

    #[test]
    fn residency_bounded_by_capacity() {
        let mut c = tiny();
        for i in 0..1000 {
            c.access(i * 64);
        }
        assert!(c.resident_lines() <= c.capacity_lines());
        assert_eq!(c.capacity_lines(), 8);
    }

    #[test]
    fn distinct_sets_do_not_interfere() {
        let mut c = tiny();
        c.access(0x00); // set 0
        c.access(0x40); // set 1
        c.access(0x80); // set 2
        c.access(0xC0); // set 3
        assert!(c.probe(0x00));
        assert!(c.probe(0x40));
        assert!(c.probe(0x80));
        assert!(c.probe(0xC0));
    }

    #[test]
    fn full_set_eviction_keeps_mru_order() {
        let mut c = tiny();
        // Fill set 0 (stride 256), then keep inserting: each new line must
        // evict exactly the least-recently-used one.
        c.access(0x000);
        c.access(0x100); // set full: [0x100, 0x000]
        c.access(0x200); // evicts 0x000: [0x200, 0x100]
        assert!(!c.probe(0x000));
        assert!(c.probe(0x100));
        c.access(0x100); // MRU refresh: [0x100, 0x200]
        c.access(0x300); // evicts 0x200
        assert!(c.probe(0x100));
        assert!(!c.probe(0x200));
        assert_eq!(c.resident_lines(), 4 - 2); // only set 0 holds 2 lines
    }

    /// The recency-ordered layout the ring replaced, kept as its oracle:
    /// each set's slots `0..lens[set]` hold its lines MRU first, and every
    /// miss or non-MRU hit shifts them down one slot.
    struct ShiftingCache {
        tags: Vec<u64>,
        lens: Vec<u8>,
        associativity: usize,
        line_shift: u32,
        set_mask: u64,
        index_bits: u32,
        accesses: u64,
        hits: u64,
        misses: u64,
    }

    impl ShiftingCache {
        fn new(config: &CacheConfig) -> Self {
            let sets = config.sets();
            let ways = config.associativity as usize;
            ShiftingCache {
                tags: vec![0; sets as usize * ways],
                lens: vec![0; sets as usize],
                associativity: ways,
                line_shift: config.line_size.trailing_zeros(),
                set_mask: sets - 1,
                index_bits: (sets - 1).count_ones(),
                accesses: 0,
                hits: 0,
                misses: 0,
            }
        }

        fn access(&mut self, addr: u64) -> bool {
            self.accesses += 1;
            let line = addr >> self.line_shift;
            let set_idx = (line & self.set_mask) as usize;
            let tag = line >> self.index_bits;
            let base = set_idx * self.associativity;
            let len = usize::from(self.lens[set_idx]);
            let set = &mut self.tags[base..base + len];
            if len > 0 && set[0] == tag {
                self.hits += 1;
                return true;
            }
            if let Some(pos) = set.iter().position(|&t| t == tag) {
                set.copy_within(0..pos, 1);
                set[0] = tag;
                self.hits += 1;
                true
            } else {
                self.misses += 1;
                let keep = if len == self.associativity {
                    len - 1
                } else {
                    self.lens[set_idx] = (len + 1) as u8;
                    len
                };
                let set = &mut self.tags[base..=base + keep];
                set.copy_within(0..keep, 1);
                set[0] = tag;
                false
            }
        }

        fn probe(&self, addr: u64) -> bool {
            let line = addr >> self.line_shift;
            let set_idx = (line & self.set_mask) as usize;
            let tag = line >> self.index_bits;
            let base = set_idx * self.associativity;
            let len = usize::from(self.lens[set_idx]);
            self.tags[base..base + len].contains(&tag)
        }

        fn resident_lines(&self) -> usize {
            self.lens.iter().map(|&l| usize::from(l)).sum()
        }
    }

    /// Four sets of `ways` 64-byte lines.
    fn four_sets(ways: u32) -> CacheConfig {
        CacheConfig {
            capacity: 4 * 64 * u64::from(ways),
            associativity: ways,
            line_size: 64,
            latency_cycles: 1,
        }
    }

    /// The `i`-th distinct line of set `set` in a four-set cache.
    fn line_in_set(set: u64, i: u64) -> u64 {
        (i * 4 + set) * 64
    }

    /// Drives the ring and the oracle with one address stream and requires
    /// the same outcome for every access and the same counters, residency
    /// and `probe` answers (over `pool`) after each one.
    fn assert_same_as_oracle(config: &CacheConfig, stream: &[u64], pool: &[u64]) {
        let mut ring = Cache::new(config);
        let mut oracle = ShiftingCache::new(config);
        for (step, &addr) in stream.iter().enumerate() {
            let ways = config.associativity;
            assert_eq!(
                ring.access(addr),
                oracle.access(addr),
                "{ways}-way, access {step} to {addr:#x}: hit/miss diverged"
            );
            assert_eq!(
                (ring.accesses(), ring.hits(), ring.misses()),
                (oracle.accesses, oracle.hits, oracle.misses),
                "{ways}-way, access {step}: counters diverged"
            );
            assert_eq!(ring.resident_lines(), oracle.resident_lines());
            for &p in pool {
                assert_eq!(ring.probe(p), oracle.probe(p), "{ways}-way, step {step}: probe({p:#x})");
            }
        }
    }

    /// The associativities of every shipped config (4, 8, 16), the tiny
    /// test cache's 2, and odd ones that exercise the ring's wrap.
    const WAYS: [u32; 8] = [1, 2, 3, 4, 5, 8, 12, 16];

    #[test]
    fn ring_hits_every_recency_position_like_the_shifting_oracle() {
        for ways in WAYS {
            let config = four_sets(ways);
            for fill in 1..=u64::from(ways) {
                for pos in 0..fill {
                    // Fill set 1 with `fill` lines (the last is MRU), hit
                    // the line at recency position `pos` twice, then miss
                    // twice so the hit line's new rank reaches eviction.
                    let mut stream: Vec<u64> = (0..fill).map(|i| line_in_set(1, i)).collect();
                    let hit = line_in_set(1, fill - 1 - pos);
                    stream.extend([hit, hit]);
                    stream.extend((0..u64::from(ways)).map(|i| line_in_set(1, 100 + i)));
                    stream.push(hit);
                    let pool: Vec<u64> = (0..fill)
                        .chain(100..100 + u64::from(ways))
                        .map(|i| line_in_set(1, i))
                        .collect();
                    assert_same_as_oracle(&config, &stream, &pool);
                }
            }
        }
    }

    mod oracle_properties {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(48))]

            /// Random streams over `ways + 3` lines per set in two of the
            /// four sets: hits land at every depth and full sets evict.
            #[test]
            fn ring_matches_the_shifting_oracle_on_random_streams(
                way_pick in 0usize..8,
                picks in proptest::collection::vec(0u64..1_000_000, 50..400),
            ) {
                let ways = WAYS[way_pick];
                let per_set = u64::from(ways) + 3;
                let pool: Vec<u64> = (0..2 * per_set)
                    .map(|i| line_in_set(i % 2, i / 2))
                    .collect();
                // Any byte of a pool line: the offset must not matter.
                let stream: Vec<u64> = picks
                    .iter()
                    .map(|&r| pool[(r % pool.len() as u64) as usize] + r % 64)
                    .collect();
                assert_same_as_oracle(&four_sets(ways), &stream, &pool);
            }
        }
    }
}
