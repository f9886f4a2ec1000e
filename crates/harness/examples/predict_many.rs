//! Times each model of the paper's roster over the base traces of a
//! persistent cache directory, once with a `predict` call per target and
//! once with one `predict_many` call per trace, and asserts that both give
//! the same bits. The targets are the Fig. 3 direction's three (`fig3`,
//! the default) or the energy manager's scan, the ladder maximum and then
//! the whole ladder (`ladder`). A trace is a base trace when it was
//! measured at a Fig. 3 base frequency. Each figure is the best of `reps`
//! passes (default 7), single-threaded.
//!
//! ```text
//! DEPBURST_CACHE=/tmp/c target/release/fig3 both 0.05 1
//! cargo run --release -p harness --example predict_many -- /tmp/c [reps] [fig3|ladder]
//! ```

use std::sync::Arc;
use std::time::{Duration, Instant};

use depburst::paper_roster;
use dvfs_trace::{ExecutionTrace, Freq, FreqLadder, TimeDelta};
use harness::cache::{open_envelope, SCHEMA_VERSION};
use harness::experiments::fig3::Direction;
use harness::run::RunSummary;

/// The fastest of `reps` runs of `pass`.
fn best_of(reps: usize, mut pass: impl FnMut()) -> Duration {
    (0..reps.max(1))
        .map(|_| {
            let t0 = Instant::now();
            pass();
            t0.elapsed()
        })
        .min()
        .expect("at least one pass")
}

fn main() {
    let mut args = std::env::args().skip(1);
    let usage = "usage: predict_many <cache-root> [reps] [fig3|ladder]";
    let root = args.next().expect(usage);
    let reps: usize = args
        .next()
        .map_or(7, |r| r.parse().expect("reps is a count"));
    let ladder_scan = match args.next().as_deref() {
        None | Some("fig3") => false,
        Some("ladder") => true,
        Some(other) => panic!("{usage}; got {other:?}"),
    };
    let dir = std::path::Path::new(&root).join(format!("v{SCHEMA_VERSION}"));
    let mut entries: Vec<_> = std::fs::read_dir(&dir)
        .unwrap_or_else(|e| panic!("{}: {e}", dir.display()))
        .map(|e| e.expect("dir entry").path())
        .filter(|p| p.extension().is_some_and(|e| e == "json"))
        .collect();
    entries.sort();

    let ladder = FreqLadder::paper_default();
    let mut work: Vec<(Arc<ExecutionTrace>, Vec<Freq>)> = Vec::new();
    for path in &entries {
        let raw = std::fs::read(path).expect("read envelope");
        let (_, payload) = open_envelope(&raw).expect("envelope opens");
        let text = std::str::from_utf8(payload).expect("payload is UTF-8");
        let summary: RunSummary = serde_json::from_str(text).expect("payload parses");
        let base = summary.trace.base;
        let Some(direction) = [Direction::LowToHigh, Direction::HighToLow]
            .into_iter()
            .find(|d| d.base() == base)
        else {
            continue;
        };
        let targets = if ladder_scan {
            std::iter::once(ladder.max()).chain(ladder.iter()).collect()
        } else {
            direction.targets().to_vec()
        };
        work.push((summary.trace, targets));
    }
    let epochs: usize = work.iter().map(|(t, _)| t.epochs.len()).sum();
    let calls: usize = work.iter().map(|(_, targets)| targets.len()).sum();
    println!(
        "{} base traces of {} envelopes, {epochs} epochs, {calls} targets per model; best of {reps} passes",
        work.len(),
        entries.len()
    );
    println!(
        "{:<14} {:>12} {:>16} {:>8}",
        "model", "predict ms", "predict_many ms", "speedup"
    );

    let (mut one_total, mut many_total) = (Duration::ZERO, Duration::ZERO);
    for model in paper_roster() {
        let mut per_target: Vec<TimeDelta> = Vec::with_capacity(calls);
        let one = best_of(reps, || {
            per_target.clear();
            for (trace, targets) in &work {
                per_target.extend(targets.iter().map(|&f| model.predict(trace, f)));
            }
        });
        let mut batched: Vec<TimeDelta> = Vec::with_capacity(calls);
        let mut out = Vec::new();
        let many = best_of(reps, || {
            batched.clear();
            for (trace, targets) in &work {
                model.predict_many(trace, targets, &mut out);
                batched.extend_from_slice(&out);
            }
        });
        let bits = |v: &[TimeDelta]| v.iter().map(|p| p.as_secs().to_bits()).collect::<Vec<_>>();
        assert_eq!(
            bits(&per_target),
            bits(&batched),
            "{}: predict_many differs from per-target predict",
            model.name()
        );
        let (a, b) = (one.as_secs_f64() * 1e3, many.as_secs_f64() * 1e3);
        println!("{:<14} {a:>12.2} {b:>16.2} {:>7.1}x", model.name(), a / b);
        one_total += one;
        many_total += many;
    }
    let (a, b) = (
        one_total.as_secs_f64() * 1e3,
        many_total.as_secs_f64() * 1e3,
    );
    println!("{:<14} {a:>12.2} {b:>16.2} {:>7.1}x", "total", a / b);
}
