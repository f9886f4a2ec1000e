//! A stable, platform-independent content hasher.
//!
//! `std::hash` deliberately refuses stability guarantees across releases
//! and process runs, but the simulation memo cache needs digests that stay
//! valid in `results/cache/` between invocations and machines. This module
//! pins the algorithm: FNV-1a over a canonical little-endian byte stream,
//! widened to 128 bits so sampled-injectivity tests and on-disk keys have
//! collision headroom.
//!
//! The 64-bit [`fnv1a64`] beside it is the integrity checksum of the
//! harness's persisted cache envelopes and journal records.
//!
//! Every layer contributes its inputs through [`StableHasher`]'s typed
//! `write_*` methods; each value is prefixed by its width implicitly (the
//! typed methods always write a fixed number of bytes) and composite
//! structures should delimit themselves with [`StableHasher::write_tag`]
//! so that adjacent variable-length fields cannot alias one another.

/// FNV-1a 128-bit offset basis.
const OFFSET: u128 = 0x6c62_272e_07bb_0142_62b8_2175_6295_c58d;
/// FNV-1a 128-bit prime.
const PRIME: u128 = 0x0000_0000_0100_0000_0000_0000_0000_013b;

/// An incremental FNV-1a 128 hasher with a stable byte encoding.
#[derive(Debug, Clone)]
pub struct StableHasher {
    state: u128,
}

impl Default for StableHasher {
    fn default() -> Self {
        Self::new()
    }
}

impl StableHasher {
    /// A fresh hasher at the FNV offset basis.
    #[must_use]
    pub fn new() -> Self {
        StableHasher { state: OFFSET }
    }

    /// Feeds raw bytes.
    pub fn write_bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.state ^= u128::from(b);
            self.state = self.state.wrapping_mul(PRIME);
        }
    }

    /// Feeds a domain-separation tag (a short static label). The length is
    /// folded in first so `"ab" + "c"` and `"a" + "bc"` differ.
    pub fn write_tag(&mut self, tag: &str) {
        self.write_u64(tag.len() as u64);
        self.write_bytes(tag.as_bytes());
    }

    /// Feeds a string (length-prefixed).
    pub fn write_str(&mut self, s: &str) {
        self.write_u64(s.len() as u64);
        self.write_bytes(s.as_bytes());
    }

    /// Feeds a `u64` (little-endian).
    pub fn write_u64(&mut self, v: u64) {
        self.write_bytes(&v.to_le_bytes());
    }

    /// Feeds a `u32` (little-endian).
    pub fn write_u32(&mut self, v: u32) {
        self.write_bytes(&v.to_le_bytes());
    }

    /// Feeds a `bool` as one byte.
    pub fn write_bool(&mut self, v: bool) {
        self.write_bytes(&[u8::from(v)]);
    }

    /// Feeds an `f64` by bit pattern (NaNs are canonicalised so that any
    /// NaN input hashes identically; `-0.0` and `0.0` are distinct — they
    /// are distinct inputs to the simulation).
    pub fn write_f64(&mut self, v: f64) {
        let bits = if v.is_nan() {
            f64::NAN.to_bits()
        } else {
            v.to_bits()
        };
        self.write_u64(bits);
    }

    /// Feeds an optional `u64`; `None` and `Some(x)` never collide.
    pub fn write_opt_u64(&mut self, v: Option<u64>) {
        match v {
            Some(x) => {
                self.write_bytes(&[1]);
                self.write_u64(x);
            }
            None => self.write_bytes(&[0]),
        }
    }

    /// The 128-bit digest of everything fed so far.
    #[must_use]
    pub fn finish(&self) -> u128 {
        self.state
    }

    /// The digest as a fixed-width lowercase hex string (32 chars), the
    /// form used for on-disk cache file names.
    #[must_use]
    pub fn finish_hex(&self) -> String {
        format!("{:032x}", self.finish())
    }
}

/// 64-bit FNV-1a over `bytes`: the integrity checksum of persisted cache
/// envelopes and journal records, computed over the payload bytes exactly
/// as stored. One xor and one multiply per byte; the multiply by the odd
/// prime is a bijection, so two inputs of equal length that differ in any
/// single byte always digest differently.
#[must_use]
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
    }
    hash
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv1a64_matches_reference_vectors() {
        // Published FNV-1a test vectors.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x8594_4171_f739_67e8);
        // One flipped bit anywhere changes the digest.
        assert_ne!(fnv1a64(b"foobar"), fnv1a64(b"foobas"));
    }

    #[test]
    fn empty_hash_is_offset_basis() {
        assert_eq!(StableHasher::new().finish(), OFFSET);
    }

    #[test]
    fn known_vector() {
        // FNV-1a 128 of "a" (well-known test vector family).
        let mut h = StableHasher::new();
        h.write_bytes(b"a");
        assert_ne!(h.finish(), OFFSET);
        // Stability: the digest of a fixed input must never change.
        let mut h2 = StableHasher::new();
        h2.write_bytes(b"a");
        assert_eq!(h.finish(), h2.finish());
    }

    #[test]
    fn length_prefix_prevents_aliasing() {
        let mut a = StableHasher::new();
        a.write_str("ab");
        a.write_str("c");
        let mut b = StableHasher::new();
        b.write_str("a");
        b.write_str("bc");
        assert_ne!(a.finish(), b.finish());
    }

    #[test]
    fn nan_is_canonical_but_zero_signs_differ() {
        let mut a = StableHasher::new();
        a.write_f64(f64::NAN);
        let mut b = StableHasher::new();
        b.write_f64(-f64::NAN);
        assert_eq!(a.finish(), b.finish());

        let mut p = StableHasher::new();
        p.write_f64(0.0);
        let mut n = StableHasher::new();
        n.write_f64(-0.0);
        assert_ne!(p.finish(), n.finish());
    }

    #[test]
    fn option_tagging_distinguishes_none_from_zero() {
        let mut a = StableHasher::new();
        a.write_opt_u64(None);
        let mut b = StableHasher::new();
        b.write_opt_u64(Some(0));
        assert_ne!(a.finish(), b.finish());
    }

    #[test]
    fn hex_is_fixed_width() {
        let mut h = StableHasher::new();
        h.write_u64(7);
        assert_eq!(h.finish_hex().len(), 32);
    }
}
