//! Every number token the shim's JSON reader converts lands on the bits
//! `str::parse::<f64>` gives it, through both parse paths: the typed
//! scalar read (`serde_json::from_str::<f64>`, and `Vec<f64>` for tokens
//! with more text after them) and the `serde::Value` tree. The reader
//! takes a significand's digits eight at a time and converts by Clinger's
//! fast path, Eisel–Lemire over a table of powers of five (10^-64..=10^64)
//! or `str::parse`; the inputs below cross every edge between those:
//! seeded bit patterns in every written form, 16–19-digit significands
//! at every power of ten in and just past the table's window, exact
//! round-half-even ties, and hand-picked edge tokens. The shim's own
//! suite has a similar test, but it is outside the workspace.

use serde::Value;

/// Tokens on the edges of the significand's and exponent's exactness,
/// the fast path, the table and the range of `f64`.
const EDGE_TOKENS: [&str; 25] = [
    "1e0000000000000000000001",
    "-1E-0000000000000000000000005",
    "0.00000000000000000000012345678901234567",
    "9007199254740993",
    "9007199254740993.0",
    "9007199254740993e0",
    "1.00000000000000011102230246251565404236316680908203125",
    "1.00000000000000011102230246251565404236316680908203124",
    "1.00000000000000011102230246251565404236316680908203126",
    "2.2250738585072011e-308",
    "4.9406564584124654e-324",
    "1.7976931348623157e308",
    "1.7976931348623159e308",
    "0e999999999999999999999",
    "-0e-999999999999999999999",
    "18446744073709551615e0",
    "18446744073709551616e0",
    "1844674407370955161.5",
    "0.18446744073709551615",
    "99999999999999999999e-20",
    "123456789012345678901234567890e-10",
    "1e-64",
    "1e64",
    "9999999999999999999e-65",
    "1e99999999999999999999999999999",
];

/// The bits both parse paths give `text` (a whole document), or the
/// failure of either.
fn both_paths(text: &str) -> Result<[u64; 2], String> {
    let typed: f64 = serde_json::from_str(text).map_err(|e| format!("typed: {e:?}"))?;
    let tree = match serde_json::from_str::<Value>(text).map_err(|e| format!("tree: {e:?}"))? {
        Value::F64(x) => x,
        Value::U64(n) => n as f64,
        Value::I64(n) => n as f64,
        other => return Err(format!("tree: {other:?}")),
    };
    Ok([typed.to_bits(), tree.to_bits()])
}

/// Checks every token alone and, with more text after each (so the
/// reader's word loads see the bytes past the token), inside one array.
fn check(tokens: &[String]) {
    for text in tokens {
        let want = text.parse::<f64>().expect(text).to_bits();
        assert_eq!(both_paths(text), Ok([want, want]), "{text}");
    }
    let array = format!("[{}]", tokens.join(" ,"));
    let typed: Vec<f64> = serde_json::from_str(&array).expect("the array reads");
    let Ok(Value::Seq(tree)) = serde_json::from_str::<Value>(&array) else {
        panic!("the array reads as a tree");
    };
    assert_eq!((typed.len(), tree.len()), (tokens.len(), tokens.len()));
    for ((text, x), v) in tokens.iter().zip(typed).zip(tree) {
        let want = text.parse::<f64>().expect(text).to_bits();
        let from_tree = match v {
            Value::F64(x) => x,
            Value::U64(n) => n as f64,
            Value::I64(n) => n as f64,
            other => panic!("{text}: {other:?}"),
        };
        assert_eq!(
            [x.to_bits(), from_tree.to_bits()],
            [want, want],
            "{text} in an array"
        );
    }
}

#[test]
fn edge_tokens_read_like_str_parse() {
    check(&EDGE_TOKENS.map(String::from));
}

#[test]
fn seeded_doubles_read_like_str_parse_in_every_written_form() {
    let mut rng = proptest::rng_for("json_numbers_doubles", 0);
    let mut tokens = Vec::new();
    for k in 0..1500 {
        let bits = rng.next_u64();
        // Every fourth one subnormal, the rest any finite double.
        let x = f64::from_bits(if k % 4 == 0 {
            bits & 0x800F_FFFF_FFFF_FFFF
        } else {
            bits
        });
        if !x.is_finite() {
            continue;
        }
        tokens.extend([format!("{x:?}"), format!("{x:e}")]);
        tokens.extend((15..=19).map(|p| format!("{x:.p$e}")));
    }
    check(&tokens);
}

#[test]
fn wide_significands_read_like_str_parse_at_every_power_of_ten() {
    let mut rng = proptest::rng_for("json_numbers_powers", 0);
    // The table's window and six powers past each end, where the reader
    // hands the token to `str::parse`.
    for q in -70i64..=70 {
        let mut tokens = Vec::new();
        for k in 0..240 {
            let digits = 16 + (rng.next_u64() % 4) as u32;
            let low = 10u64.pow(digits - 1);
            let w = low + rng.next_u64() % (9 * low);
            // As an integer times 10^q, and as d.ddd with the exponent
            // moved to keep the value.
            tokens.push(if k % 2 == 0 {
                format!("{w}e{q}")
            } else {
                let s = w.to_string();
                format!("{}.{}e{}", &s[..1], &s[1..], q + i64::from(digits) - 1)
            });
        }
        check(&tokens);
    }
}

#[test]
fn exact_ties_round_half_to_even() {
    let mut rng = proptest::rng_for("json_numbers_ties", 0);
    let mut tokens = Vec::new();
    // A tie is an odd 54-bit integer h times a power of two: halfway
    // between two doubles. Written as w × 10^q with w above 2^53 (past
    // the fast path), it is exact in the product Eisel–Lemire forms only
    // for -4 <= q <= 23, where it must round to even; w ± 1 bracket it.
    for q in -4i64..=23 {
        for _ in 0..40 {
            let w = if q >= 0 {
                // h = t × 5^q for an odd t, scaled up by twos into w.
                let five = 5u128.pow(q as u32);
                let lo = (1u128 << 53).div_ceil(five);
                let hi = (1u128 << 54) / five;
                if hi <= lo {
                    continue;
                }
                let t = (lo + u128::from(rng.next_u64()) % (hi - lo)) | 1;
                if t * five >= 1 << 54 {
                    continue;
                }
                let mut w = t as u64;
                while w <= 1 << 53 {
                    w <<= 1;
                }
                w
            } else {
                // h / 2^-q, written as (h × 5^-q) × 10^q.
                let h = ((1u64 << 53) + rng.next_u64() % (1 << 53)) | 1;
                h * 5u64.pow((-q) as u32)
            };
            tokens.extend([w - 1, w, w + 1].map(|d| format!("{d}e{q}")));
        }
    }
    assert!(tokens.len() > 2000, "{} tie tokens", tokens.len());
    check(&tokens);
}
