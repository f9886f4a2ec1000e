//! Exact float-to-count conversion.
//!
//! Every layer turns scaled event counts (`count as f64 * fraction`) back
//! into integers by rounding half away from zero. `f64::round` lowers to
//! an out-of-line libm call on the baseline x86-64 target (its inline
//! form, `roundsd`, needs SSE4.1), and several of those sites sit in the
//! simulator's per-chunk path. [`round_u64`] gives the same answer with a
//! truncating convert, one exact subtraction and a compare.

/// `x.round() as u64`, bit for bit and without a call: rounds half away
/// from zero, saturates at `u64::MAX`, and maps NaN, negative values and
/// everything below 0.5 to 0.
#[inline]
#[must_use]
pub fn round_u64(x: f64) -> u64 {
    // Truncates toward zero, saturating; NaN becomes 0.
    let whole = x as u64;
    // The fraction is exact: below 2^53 `whole` is representable and
    // `whole <= x < whole + 1 <= 2 * whole` (Sterbenz) or `whole == 0`;
    // from 2^52 up to 2^64 `x` is an integer and equals `whole`. Above
    // `u64::MAX` the difference is at least 0.5 and the add saturates.
    // NaN compares false and keeps 0.
    if x - whole as f64 >= 0.5 {
        whole.saturating_add(1)
    } else {
        whole
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stablehash::fmix64;

    fn reference(x: f64) -> u64 {
        x.round() as u64
    }

    fn check(x: f64) {
        assert_eq!(round_u64(x), reference(x), "x = {x:e} ({:#018x})", x.to_bits());
    }

    #[test]
    fn edge_values_match_round_then_cast() {
        let two52 = 2f64.powi(52);
        let edges = [
            0.0,
            -0.0,
            0.499_999_999_999_999_94,
            0.5,
            1.5,
            2.5,
            two52 - 0.5,
            two52 + 0.5,
            two52 + 1.0,
            2f64.powi(53),
            2f64.powi(53) + 2.0,
            2f64.powi(63),
            2f64.powi(64),
            2f64.powi(64) - 2048.0,
            2f64.powi(65),
            f64::MAX,
            f64::MIN_POSITIVE,
            f64::EPSILON,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
            -f64::NAN,
            -0.3,
            -0.5,
            -0.7,
            -2.5,
            -two52,
            f64::MIN,
        ];
        for x in edges {
            check(x);
        }
        assert_eq!(round_u64(0.499_999_999_999_999_94), 0);
        assert_eq!(round_u64(2.5), 3);
        assert_eq!(round_u64(f64::NAN), 0);
        assert_eq!(round_u64(f64::INFINITY), u64::MAX);
    }

    #[test]
    fn a_million_seeded_values_match_round_then_cast() {
        let mut state = 0x5EED_u64;
        let mut next = || {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            fmix64(state)
        };
        for i in 0..1_000_000u32 {
            let bits = next();
            let x = match i % 4 {
                // Any bit pattern: every exponent, NaNs and infinities.
                0 => f64::from_bits(bits),
                // Counts times fractions, the shape of every caller.
                1 => (bits >> 40) as f64 * ((next() >> 11) as f64 / (1u64 << 53) as f64),
                // Near half-integers, where rounding direction is decided.
                2 => (bits >> 44) as f64 + 0.5 + ((next() >> 11) as f64 - (1u64 << 52) as f64) * 1e-16,
                // Magnitudes straddling 2^52..2^64, both signs.
                _ => {
                    let exp = 52 + (bits % 13) as i32;
                    let sign = if bits & (1 << 20) == 0 { 1.0 } else { -1.0 };
                    sign * 2f64.powi(exp) * (1.0 + (next() >> 11) as f64 / (1u64 << 53) as f64)
                }
            };
            check(x);
        }
    }
}
