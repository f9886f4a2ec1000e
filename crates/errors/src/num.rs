//! Exact float-to-count conversion.
//!
//! Every layer turns scaled event counts (`count as f64 * fraction`) back
//! into integers by rounding half away from zero. `f64::round` lowers to
//! an out-of-line libm call on the baseline x86-64 target (its inline
//! form, `roundsd`, needs SSE4.1), and several of those sites sit in the
//! simulator's per-chunk path. [`round_u64`] gives the same answer with a
//! truncating convert, one exact subtraction and a compare;
//! [`round_i64`] is its signed twin, for the fleet's per-machine power in
//! milliwatts.

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

/// `x.round() as i64`, bit for bit and without a call: rounds half away
/// from zero, saturates at `i64::MIN` and `i64::MAX`, and maps NaN to 0.
#[inline]
#[must_use]
pub fn round_i64(x: f64) -> i64 {
    // Truncates toward zero, saturating; NaN becomes 0.
    let whole = x as i64;
    // Exact as in `round_u64`, on either side of zero: below 2^52 in
    // magnitude `whole` is representable and the difference is exact;
    // from there to 2^63 `x` is an integer equal to `whole`; past the
    // range the difference is at least 0.5 in magnitude (or zero at
    // exactly -2^63) and the step saturates. NaN compares false.
    let frac = x - whole as f64;
    if frac >= 0.5 {
        whole.saturating_add(1)
    } else if frac <= -0.5 {
        whole.saturating_sub(1)
    } else {
        whole
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stablehash::SplitMix64;

    fn reference(x: f64) -> u64 {
        x.round() as u64
    }

    fn check(x: f64) {
        assert_eq!(round_u64(x), reference(x), "x = {x:e} ({:#018x})", x.to_bits());
        assert_eq!(
            round_i64(x),
            x.round() as i64,
            "signed, x = {x:e} ({:#018x})",
            x.to_bits()
        );
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
            -0.499_999_999_999_999_94,
            -1.5,
            -two52 + 0.5,
            -two52 - 0.5,
            -two52 - 1.0,
            -(2f64.powi(53)),
            -(2f64.powi(63)),
            -(2f64.powi(63)) - 2048.0,
            2f64.powi(63) - 1024.0,
            -(2f64.powi(64)),
            -f64::MIN_POSITIVE,
            -f64::EPSILON,
        ];
        for x in edges {
            check(x);
        }
        assert_eq!(round_i64(-0.0), 0);
        assert_eq!(round_i64(-2.5), -3);
        assert_eq!(round_i64(-0.499_999_999_999_999_94), 0);
        assert_eq!(round_i64(f64::NAN), 0);
        assert_eq!(round_i64(f64::INFINITY), i64::MAX);
        assert_eq!(round_i64(f64::NEG_INFINITY), i64::MIN);
        assert_eq!(round_u64(0.499_999_999_999_999_94), 0);
        assert_eq!(round_u64(2.5), 3);
        assert_eq!(round_u64(f64::NAN), 0);
        assert_eq!(round_u64(f64::INFINITY), u64::MAX);
    }

    #[test]
    fn a_million_seeded_values_match_round_then_cast() {
        // `check` compares both conversions on each value.
        let mut rng = SplitMix64::new(0x5EED);
        let mut next = || rng.next_u64();
        for i in 0..1_000_000u32 {
            let bits = next();
            let x = match i % 4 {
                // Any bit pattern: every exponent, NaNs and infinities.
                0 => f64::from_bits(bits),
                // Counts times fractions, the shape of every caller; odd
                // draws negated for the signed conversion.
                1 => {
                    let x = (bits >> 40) as f64 * ((next() >> 11) as f64 / (1u64 << 53) as f64);
                    if bits & 1 == 0 {
                        x
                    } else {
                        -x
                    }
                }
                // Near half-integers, where rounding direction is decided.
                2 => {
                    let x = (bits >> 44) as f64
                        + 0.5
                        + ((next() >> 11) as f64 - (1u64 << 52) as f64) * 1e-16;
                    if bits & 1 == 0 {
                        x
                    } else {
                        -x
                    }
                }
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
