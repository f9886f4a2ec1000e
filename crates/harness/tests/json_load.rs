//! Tree-free JSON loads agree with the tree path. For the derived types
//! behind every cache envelope and journal line — `RunSummary` among
//! them — `serde_json::from_str` (which streams through `from_json`) and
//! `from_value` of the parsed `Value` tree (the oracle) must accept and
//! reject the same texts, and agree bit for bit on what they accept. The
//! texts are serialized values with shuffled key order, extra
//! whitespace, escaped keys, unknown keys (nested ones too), duplicated
//! keys, missing fields, wrongly typed values, edge-case and non-JSON
//! number tokens, and truncation or trailing garbage. A disagreement is
//! shrunk to the shortest prefix of the case's mutations that still
//! shows it.

use dvfs_trace::{
    DvfsCounters, EpochEnd, EpochRecord, ExecutionTrace, Freq, PhaseKind, PhaseMarker, ThreadId,
    ThreadInfo, ThreadRole, ThreadSlice, Time, TimeDelta,
};
use harness::run::SampledInfo;
use harness::RunSummary;
use proptest::TestRng;
use serde::{Deserialize, Serialize, Value};

const CASES: u32 = 600;

fn pick(rng: &mut TestRng, n: usize) -> usize {
    (rng.next_u64() % n as u64) as usize
}

/// Finite floats of every magnitude class, signed zeros and subnormals
/// included.
fn float(rng: &mut TestRng) -> f64 {
    match pick(rng, 6) {
        0 => -0.0,
        1 => f64::from_bits(1 + rng.next_u64() % 1000),
        2 => rng.next_f64() * 1e300,
        3 => -rng.next_f64() * 1e-300,
        _ => rng.next_f64(),
    }
}

fn delta(rng: &mut TestRng) -> TimeDelta {
    TimeDelta::from_secs(float(rng))
}

fn time(rng: &mut TestRng) -> Time {
    Time::from_secs(float(rng))
}

fn counters(rng: &mut TestRng) -> DvfsCounters {
    DvfsCounters {
        active: delta(rng),
        crit: delta(rng),
        leading_loads: delta(rng),
        stall: delta(rng),
        sq_full: delta(rng),
        instructions: rng.next_u64(),
        loads: rng.next_u64() >> 20,
        stores: rng.next_u64() >> 40,
        llc_misses: rng.next_u64() % 7,
    }
}

fn summary(rng: &mut TestRng) -> RunSummary {
    let roles = [
        ThreadRole::Application,
        ThreadRole::GcWorker,
        ThreadRole::Jit,
    ];
    let threads: Vec<ThreadInfo> = (0..1 + pick(rng, 3))
        .map(|i| ThreadInfo {
            id: ThreadId(i as u32),
            role: roles[pick(rng, 3)],
            name: ["app-0", "gc-\u{e9}\"1\\", "jit\n\u{1F600}"][pick(rng, 3)].to_string(),
            spawn: time(rng),
            exit: (pick(rng, 2) == 0).then(|| time(rng)),
        })
        .collect();
    let epochs = (0..pick(rng, 4))
        .map(|_| EpochRecord {
            start: time(rng),
            duration: delta(rng),
            threads: threads
                .iter()
                .map(|t| ThreadSlice {
                    thread: t.id,
                    counters: counters(rng),
                })
                .collect(),
            end: match pick(rng, 5) {
                0 => EpochEnd::Stall(ThreadId(pick(rng, 4) as u32)),
                1 => EpochEnd::Wake(ThreadId(7)),
                2 => EpochEnd::Exit(ThreadId(u32::MAX)),
                3 => EpochEnd::QuantumBoundary,
                _ => EpochEnd::TraceEnd,
            },
        })
        .collect();
    let markers = (0..pick(rng, 3))
        .map(|i| PhaseMarker {
            time: time(rng),
            kind: if i % 2 == 0 {
                PhaseKind::GcStart
            } else {
                PhaseKind::GcEnd
            },
        })
        .collect();
    RunSummary {
        exec: delta(rng),
        gc_time: delta(rng),
        gc_count: rng.next_u64(),
        allocated: rng.next_u64(),
        total_active: delta(rng),
        trace: ExecutionTrace {
            base: Freq::from_mhz(1000 + 100 * pick(rng, 31) as u32),
            start: time(rng),
            total: delta(rng),
            epochs,
            markers,
            threads,
        },
        sampled: (pick(rng, 2) == 0).then(|| SampledInfo {
            probe_fraction: float(rng),
            measure_fraction: float(rng),
            extended: pick(rng, 2) == 0,
            exec_half_ci: delta(rng),
            gc_half_ci: delta(rng),
            recurrence: float(rng),
            clusters: pick(rng, 100),
        }),
    }
}

/// A random value of any shape; maps may reuse the real field names, so
/// unknown or mistyped subtrees tempt the key matchers.
fn junk(rng: &mut TestRng, depth: usize) -> Value {
    let names = [
        "exec", "trace", "epochs", "name", "Stall", "sampled", "zz", "",
    ];
    match pick(rng, if depth == 0 { 6 } else { 8 }) {
        0 => Value::Null,
        1 => Value::Bool(pick(rng, 2) == 0),
        2 => Value::U64(rng.next_u64()),
        3 => Value::I64(-(1 + pick(rng, 1000) as i64)),
        4 => Value::F64(float(rng)),
        5 => Value::Str(names[pick(rng, names.len())].to_string()),
        6 => Value::Seq((0..pick(rng, 3)).map(|_| junk(rng, depth - 1)).collect()),
        _ => Value::Map(
            (0..pick(rng, 3))
                .map(|_| {
                    (
                        names[pick(rng, names.len())].to_string(),
                        junk(rng, depth - 1),
                    )
                })
                .collect(),
        ),
    }
}

/// Number tokens at the scanner's edges: the integer range limits, `f64`
/// limits and subnormals, signed zeros, exponent signs, floats where
/// integers go, and forms RFC 8259 forbids, which both paths must reject.
const NUMBER_TOKENS: [&str; 30] = [
    "18446744073709551615",
    "18446744073709551616",
    "-9223372036854775808",
    "-9223372036854775809",
    "-0",
    "-0.0",
    "0",
    "5e-324",
    "2.2250738585072014e-308",
    "1e-320",
    "1e308",
    "1e309",
    "-1e309",
    "1e+5",
    "1E-5",
    "2.5e+0",
    "1.5",
    "3.0",
    "4294967296",
    "-7",
    "01",
    "1.",
    "-.5",
    "00.5",
    "1.e3",
    "-01",
    "1e",
    "--1",
    "+1",
    ".5",
];

/// Marks a `Value::Str` that [`render`] writes as a raw token, so a
/// mutation can place text no `Value` would render (a non-JSON number).
const RAW: &str = "\u{0}raw:";

fn raw(token: &str) -> Value {
    Value::Str(format!("{RAW}{token}"))
}

fn is_number(v: &Value) -> bool {
    matches!(v, Value::U64(_) | Value::I64(_) | Value::F64(_))
}

/// Paths (child indices) to every node of `v`, the root included.
fn paths(v: &Value, path: &mut Vec<usize>, out: &mut Vec<Vec<usize>>) {
    out.push(path.clone());
    let children: Vec<&Value> = match v {
        Value::Seq(items) => items.iter().collect(),
        Value::Map(entries) => entries.iter().map(|(_, v)| v).collect(),
        _ => Vec::new(),
    };
    for (i, child) in children.into_iter().enumerate() {
        path.push(i);
        paths(child, path, out);
        path.pop();
    }
}

fn node<'a>(v: &'a mut Value, path: &[usize]) -> &'a mut Value {
    match (v, path.split_first()) {
        (v, None) => v,
        (Value::Seq(items), Some((&i, rest))) => node(&mut items[i], rest),
        (Value::Map(entries), Some((&i, rest))) => node(&mut entries[i].1, rest),
        _ => unreachable!("paths only lead through containers"),
    }
}

/// Applies one mutation drawn from `seed`; returns what it did.
fn mutate(v: &mut Value, seed: u64) -> String {
    let mut rng = TestRng::new(seed);
    let mut all = Vec::new();
    paths(v, &mut Vec::new(), &mut all);
    let maps: Vec<&Vec<usize>> = all
        .iter()
        .filter(|p| matches!(node(v, p), Value::Map(e) if !e.is_empty()))
        .collect();
    let op = pick(&mut rng, 6);
    if op == 5 {
        let numbers: Vec<&Vec<usize>> = all.iter().filter(|p| is_number(node(v, p))).collect();
        let path = match numbers.len() {
            0 => all[pick(&mut rng, all.len())].clone(),
            n => numbers[pick(&mut rng, n)].clone(),
        };
        let token = NUMBER_TOKENS[pick(&mut rng, NUMBER_TOKENS.len())];
        *node(v, &path) = raw(token);
        return format!("number {token} at {path:?}");
    }
    if op == 4 || maps.is_empty() {
        let path = all[pick(&mut rng, all.len())].clone();
        let replacement = junk(&mut rng, 2);
        let desc = format!("retype {path:?} to {replacement:?}");
        *node(v, &path) = replacement;
        return desc;
    }
    let path = maps[pick(&mut rng, maps.len())].clone();
    let Value::Map(entries) = node(v, &path) else {
        unreachable!()
    };
    let n = entries.len();
    match op {
        0 => {
            for i in (1..n).rev() {
                entries.swap(i, pick(&mut rng, i + 1));
            }
            format!("shuffle keys at {path:?}")
        }
        1 => {
            let at = pick(&mut rng, n + 1);
            entries.insert(at, ("zz_unknown".to_string(), junk(&mut rng, 3)));
            format!("unknown key at {path:?}[{at}]")
        }
        2 => {
            let from = pick(&mut rng, n);
            let mut dup = entries[from].clone();
            if pick(&mut rng, 2) == 0 {
                dup.1 = junk(&mut rng, 2);
            }
            let at = pick(&mut rng, n + 1);
            let desc = format!("duplicate key {:?} of {path:?} at {at}", dup.0);
            entries.insert(at, dup);
            desc
        }
        _ => {
            let (key, _) = entries.remove(pick(&mut rng, n));
            format!("remove key {key:?} at {path:?}")
        }
    }
}

fn ws(rng: &mut TestRng, out: &mut String) {
    if pick(rng, 3) == 0 {
        for _ in 0..=pick(rng, 3) {
            out.push([' ', '\n', '\t', '\r'][pick(rng, 4)]);
        }
    }
}

/// JSON text of `v` with random whitespace between tokens and, now and
/// then, a key's first character written as a `\u` escape.
fn render(v: &Value, rng: &mut TestRng, out: &mut String) {
    ws(rng, out);
    match v {
        Value::Null => out.push_str("null"),
        Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Value::U64(n) => out.push_str(&n.to_string()),
        Value::I64(n) => out.push_str(&n.to_string()),
        Value::F64(x) => out.push_str(&format!("{x:?}")),
        Value::Str(s) => match s.strip_prefix(RAW) {
            Some(token) => out.push_str(token),
            None => out.push_str(&serde_json::to_string(s).expect("strings serialize")),
        },
        Value::Seq(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                render(item, rng, out);
            }
            ws(rng, out);
            out.push(']');
        }
        Value::Map(entries) => {
            out.push('{');
            for (i, (k, item)) in entries.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                ws(rng, out);
                match k.chars().next() {
                    Some(c) if c.is_ascii_alphabetic() && pick(rng, 4) == 0 => {
                        let rest = serde_json::to_string(&k[1..]).expect("strings serialize");
                        out.push_str(&format!("\"\\u{:04x}{}", c as u32, &rest[1..]));
                    }
                    _ => out.push_str(&serde_json::to_string(k).expect("strings serialize")),
                }
                ws(rng, out);
                out.push(':');
                render(item, rng, out);
            }
            ws(rng, out);
            out.push('}');
        }
    }
    ws(rng, out);
}

/// `Ok(true)`/`Ok(false)` when both paths accept (bit-identically) or
/// both reject `text`; `Err` describes a disagreement.
fn agree<T: Deserialize + Serialize>(text: &str) -> Result<bool, String> {
    let streamed = serde_json::from_str::<T>(text);
    let tree = serde_json::from_str::<Value>(text)
        .and_then(|v| T::from_value(&v).map_err(serde_json::Error::from));
    match (streamed, tree) {
        (Ok(a), Ok(b)) => {
            let (a, b) = (serde_json::to_string(&a), serde_json::to_string(&b));
            if a == b {
                Ok(true)
            } else {
                Err(format!(
                    "both accept, different values:\n  streamed {a:?}\n  tree     {b:?}"
                ))
            }
        }
        (Err(_), Err(_)) => Ok(false),
        (s, t) => Err(format!(
            "streamed {:?} but tree {:?}",
            s.map(|_| "Ok"),
            t.map(|_| "Ok")
        )),
    }
}

/// A case: a base value of one type, its mutations, how it is rendered.
struct Case {
    kind: usize,
    base: Value,
    mutations: Vec<u64>,
    render_seed: u64,
}

const KINDS: [&str; 4] = [
    "RunSummary",
    "ExecutionTrace",
    "MachineConfig",
    "Vec<ThreadInfo>",
];

impl Case {
    fn new(rng: &mut TestRng) -> Self {
        let s = summary(rng);
        let kind = pick(rng, KINDS.len());
        let base = match kind {
            0 => s.to_value(),
            1 => s.trace.to_value(),
            2 => simx::MachineConfig::haswell_quad().to_value(),
            _ => s.trace.threads.to_value(),
        };
        let mutations = (0..pick(rng, 4)).map(|_| rng.next_u64()).collect();
        Case {
            kind,
            base,
            mutations,
            render_seed: rng.next_u64(),
        }
    }

    /// The text after the first `k` mutations, with what they did.
    fn text(&self, k: usize) -> (String, Vec<String>) {
        let mut v = self.base.clone();
        let did = self.mutations[..k]
            .iter()
            .map(|&m| mutate(&mut v, m))
            .collect();
        let mut rng = TestRng::new(self.render_seed);
        let mut text = String::new();
        render(&v, &mut rng, &mut text);
        match pick(&mut rng, 16) {
            0 => {
                let cut = pick(&mut rng, text.len() + 1);
                let cut = (0..=cut)
                    .rev()
                    .find(|&i| text.is_char_boundary(i))
                    .unwrap_or(0);
                text.truncate(cut);
            }
            1 => text.push_str(" x"),
            _ => {}
        }
        (text, did)
    }

    fn check(&self, text: &str) -> Result<bool, String> {
        match self.kind {
            0 => agree::<RunSummary>(text),
            1 => agree::<ExecutionTrace>(text),
            2 => agree::<simx::MachineConfig>(text),
            _ => agree::<Vec<ThreadInfo>>(text),
        }
    }
}

#[test]
fn streamed_loads_agree_with_the_tree_path() {
    let (mut accepted, mut rejected) = (0u32, 0u32);
    for i in 0..CASES {
        let case = Case::new(&mut proptest::rng_for("streamed_loads_agree", i));
        let (text, _) = case.text(case.mutations.len());
        match case.check(&text) {
            Ok(true) => accepted += 1,
            Ok(false) => rejected += 1,
            Err(_) => {
                // Shrink: the shortest mutation prefix that still disagrees.
                let k = (0..=case.mutations.len())
                    .find(|&k| case.check(&case.text(k).0).is_err())
                    .expect("the full case disagrees");
                let (text, did) = case.text(k);
                let why = case.check(&text).expect_err("shrunk case disagrees");
                let shown: String = text.chars().take(4000).collect();
                panic!(
                    "case {i} ({}), mutations {did:?}: {why}\ntext: {shown}",
                    KINDS[case.kind]
                );
            }
        }
    }
    // Both outcomes must be well exercised, or the property is vacuous.
    assert!(
        accepted >= CASES / 5,
        "only {accepted} of {CASES} cases parsed"
    );
    assert!(
        rejected >= CASES / 5,
        "only {rejected} of {CASES} cases were rejected"
    );
}

#[test]
fn a_missing_or_null_sampled_reads_as_none() {
    let mut rng = proptest::rng_for("sampled_none", 0);
    let mut s = summary(&mut rng);
    s.sampled = None;
    let text = serde_json::to_string(&s).expect("serializes");
    assert!(
        !text.contains("sampled"),
        "an exact summary omits the field"
    );
    let with_null = format!("{},\"sampled\":null}}", &text[..text.len() - 1]);
    for t in [&text, &with_null] {
        assert_eq!(agree::<RunSummary>(t), Ok(true));
        let back: RunSummary = serde_json::from_str(t).expect("loads");
        assert_eq!(back, s);
    }
}

#[test]
fn every_number_token_reads_alike_in_every_numeric_field() {
    // A summary with every field kind: u64 counters, f64 times, the u32
    // frequency and thread ids, and the sampled block's usize.
    let mut s = summary(&mut proptest::rng_for("number_tokens", 0));
    s.sampled.get_or_insert(SampledInfo {
        probe_fraction: 0.25,
        measure_fraction: 0.5,
        extended: false,
        exec_half_ci: TimeDelta::from_secs(1e-3),
        gc_half_ci: TimeDelta::ZERO,
        recurrence: 0.75,
        clusters: 3,
    });
    let base = s.to_value();
    let mut all = Vec::new();
    paths(&base, &mut Vec::new(), &mut all);
    let mut probe = base.clone();
    all.retain(|p| is_number(node(&mut probe, p)));
    assert!(all.len() >= 20, "only {} numeric fields", all.len());
    let (mut accepted, mut rejected) = (0, 0);
    for token in NUMBER_TOKENS {
        for path in &all {
            let mut v = base.clone();
            *node(&mut v, path) = raw(token);
            let mut text = String::new();
            render(&v, &mut TestRng::new(0), &mut text);
            match agree::<RunSummary>(&text) {
                Ok(true) => accepted += 1,
                Ok(false) => rejected += 1,
                Err(why) => panic!("{token} at {path:?}: {why}"),
            }
        }
    }
    assert!(
        accepted > 0 && rejected > 0,
        "{accepted} accepted, {rejected} rejected"
    );
    // The signed zero survives into an f64 field on the streamed path.
    let text = serde_json::to_string(&s).expect("serializes");
    let at = text.find("\"exec\":").expect("exec field") + "\"exec\":".len();
    let end = at + text[at..].find(',').expect("next field");
    let text = format!("{}-0{}", &text[..at], &text[end..]);
    let loaded: RunSummary = serde_json::from_str(&text).expect("loads");
    assert_eq!(loaded.exec.as_secs().to_bits(), (-0.0f64).to_bits());
}
