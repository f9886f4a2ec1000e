//! Stable, platform-independent hashes, one per job.
//!
//! `std::hash` deliberately refuses stability guarantees across releases
//! and process runs, but the simulation memo cache needs digests that stay
//! valid in `results/cache/` between invocations and machines. This module
//! pins the algorithms:
//!
//! * [`StableHasher`] — FNV-1a over a canonical little-endian byte stream,
//!   widened to 128 bits so sampled-injectivity tests and on-disk keys
//!   have collision headroom. It keys content: simulation keys, config
//!   and spec digests. It hashes a few hundred bytes per key, so its
//!   byte-serial speed does not matter.
//! * [`checksum64`] — four [`fmix64`] lanes over little-endian words: the
//!   integrity checksum of the harness's persisted cache envelopes, in
//!   the memo cache and in checkpoints (schema 4). It runs over every
//!   byte a warm cache loads, so it is built to run at memory speed.
//! * [`fnv1a64`] — 64-bit FNV-1a, kept only as the benchmark's output
//!   digest: committed digests were computed with it, so its published
//!   vectors stay pinned.
//! * [`fmix64`] — the SplitMix64 finalizer, the mixing step of
//!   [`checksum64`] and of the simulator's seeded `SplitMix64` streams.
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

/// 64-bit FNV-1a over `bytes`: the benchmark's output digest. Not the
/// envelope checksum any more (see [`checksum64`]); one xor and one
/// multiply per byte is a serial dependency chain.
#[must_use]
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
    }
    hash
}

/// The SplitMix64 finalizer: a bijection on `u64` in which every input
/// bit reaches every output bit.
#[inline]
#[must_use]
pub fn fmix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Starting states of [`checksum64`]'s lanes: the first hex digits of pi.
const LANES: [u64; 4] = [
    0x243F_6A88_85A3_08D3,
    0x1319_8A2E_0370_7344,
    0xA409_3822_299F_31D0,
    0x082E_FA98_EC4E_6C89,
];

/// The integrity checksum of persisted cache envelopes, computed over
/// the payload bytes exactly as stored.
///
/// Little-endian word `i` of `bytes` goes to lane `i % 4` as
/// `lane = fmix64(lane ^ word)`; a trailing partial word is zero-padded
/// and mixed into the next lane the same way. The lanes are independent,
/// so four multiply chains run side by side instead of FNV-1a's one.
/// The result folds the byte length and then each lane in with the same
/// step. Every step is a bijection in the word or lane it takes, so two
/// inputs of equal length that differ in any single word (any single
/// bit, in particular) always checksum differently.
#[must_use]
pub fn checksum64(bytes: &[u8]) -> u64 {
    let word = |w: &[u8]| u64::from_le_bytes(w.try_into().expect("8-byte word"));
    let mut lanes = LANES;
    let mut blocks = bytes.chunks_exact(32);
    for block in &mut blocks {
        lanes[0] = fmix64(lanes[0] ^ word(&block[..8]));
        lanes[1] = fmix64(lanes[1] ^ word(&block[8..16]));
        lanes[2] = fmix64(lanes[2] ^ word(&block[16..24]));
        lanes[3] = fmix64(lanes[3] ^ word(&block[24..]));
    }
    // Fewer than 32 bytes remain: up to three whole words and a tail.
    for (lane, w) in lanes.iter_mut().zip(blocks.remainder().chunks(8)) {
        let mut padded = [0u8; 8];
        padded[..w.len()].copy_from_slice(w);
        *lane = fmix64(*lane ^ u64::from_le_bytes(padded));
    }
    lanes
        .iter()
        .fold(bytes.len() as u64, |acc, &lane| fmix64(acc ^ lane))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv1a64_matches_reference_vectors() {
        // Published FNV-1a test vectors; the benchmark's committed output
        // digests depend on them.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x8594_4171_f739_67e8);
        // One flipped bit anywhere changes the digest.
        assert_ne!(fnv1a64(b"foobar"), fnv1a64(b"foobas"));
    }

    /// `len` pseudo-random bytes drawn from `seed`.
    fn payload(seed: u64, len: usize) -> Vec<u8> {
        (0..len as u64)
            .map(|i| fmix64(seed ^ i.wrapping_mul(0x9E37_79B9_7F4A_7C15)) as u8)
            .collect()
    }

    fn flip(bytes: &mut [u8], bit: usize) {
        bytes[bit / 8] ^= 1 << (bit % 8);
    }

    #[test]
    fn checksum64_matches_pinned_vectors() {
        // The on-disk format of schema-4 envelopes: a change here retires
        // every persisted cache and checkpoint entry, so it must come
        // with a schema bump. Input: bytes 0, 1, 2, ... of each length,
        // covering the empty input, a lone tail byte, a full block minus
        // one, one block, and a block plus a tail.
        let pinned = [
            (0, 0x22a6_1ba7_f80f_5303),
            (1, 0xbc04_f5e3_39cc_428f),
            (31, 0x5976_ac86_66e9_fde3),
            (32, 0xca50_0069_b899_cd65),
            (33, 0x2e66_debc_96d0_8c2a),
            (1000, 0x4091_ff40_4123_13ae),
        ];
        for (len, want) in pinned {
            let bytes: Vec<u8> = (0..len).map(|i| i as u8).collect();
            assert_eq!(checksum64(&bytes), want, "length {len}");
        }
    }

    #[test]
    fn checksum64_detects_every_single_bit_flip() {
        // Every tail length (0..8) at every lane offset, and more than
        // three whole blocks.
        for len in 0..=96 {
            let base = payload(len as u64, len);
            let sum = checksum64(&base);
            for bit in 0..len * 8 {
                let mut flipped = base.clone();
                flip(&mut flipped, bit);
                assert_ne!(checksum64(&flipped), sum, "length {len}, bit {bit}");
            }
        }
    }

    #[test]
    fn checksum64_has_no_double_bit_flip_collisions() {
        let base = payload(7, 96);
        let sum = checksum64(&base);
        let collides = |a: usize, b: usize| {
            let mut flipped = base.clone();
            flip(&mut flipped, a);
            flip(&mut flipped, b);
            checksum64(&flipped) == sum
        };
        // Words `i` and `i + 4` feed the same lane one step apart: the
        // pattern on which a multiply-then-rotate step cancels.
        for word in 0..base.len() / 8 - 4 {
            for a in 0..64 {
                for b in 0..64 {
                    let (a, b) = (word * 64 + a, (word + 4) * 64 + b);
                    assert!(!collides(a, b), "bits {a} and {b}");
                }
            }
        }
        // Seeded pairs anywhere in the payload.
        let bits = base.len() as u64 * 8;
        for i in 0..20_000u64 {
            let a = (fmix64(i) % bits) as usize;
            let b = (fmix64(!i) % bits) as usize;
            if a != b {
                assert!(!collides(a, b), "bits {a} and {b}");
            }
        }
    }

    #[test]
    fn checksum64_folds_in_the_length() {
        // Zero padding of the tail word must not alias a shorter input
        // with a longer one ending in zero bytes.
        for len in 0..40 {
            let short = payload(3, len);
            let mut long = short.clone();
            long.push(0);
            assert_ne!(checksum64(&short), checksum64(&long), "length {len}");
        }
    }

    #[test]
    fn fmix64_is_the_splitmix64_finalizer() {
        // The first output of SplitMix64 seeded with 0 (the reference
        // implementation's published first value).
        assert_eq!(fmix64(0x9E37_79B9_7F4A_7C15), 0xE220_A839_7B1D_CDAF);
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
