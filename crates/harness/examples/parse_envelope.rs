//! Times a warm load's phases over every envelope of a persistent cache
//! directory: the file read, `open_envelope` (header match and payload
//! checksum), the payload's UTF-8 check, a `Reader::skip_value` scan of
//! the payload (the JSON grammar and every number's conversion, nothing
//! built), and the parse into a `RunSummary`. The scan is a phase of its
//! own, not part of the load: it splits the parse into tokenizing and
//! building. Each phase is summed over the envelopes; the best of `reps`
//! passes is printed (default 5), single-threaded.
//!
//! ```text
//! DEPBURST_CACHE=/tmp/c target/release/fig3 both 0.05 1
//! cargo run --release -p harness --example parse_envelope -- /tmp/c [reps]
//! ```

use std::time::{Duration, Instant};

use harness::cache::{open_envelope, SCHEMA_VERSION};
use harness::run::RunSummary;

const PHASES: [&str; 5] = ["read", "checksum", "utf-8", "scan", "parse"];
/// The index of the `scan` phase, which `total` leaves out.
const SCAN: usize = 3;

fn main() {
    let mut args = std::env::args().skip(1);
    let root = args.next().expect("usage: parse_envelope <cache-root> [reps]");
    let reps: usize = args.next().map_or(5, |r| r.parse().expect("reps is a count"));
    let dir = std::path::Path::new(&root).join(format!("v{SCHEMA_VERSION}"));
    let mut entries: Vec<_> = std::fs::read_dir(&dir)
        .unwrap_or_else(|e| panic!("{}: {e}", dir.display()))
        .map(|e| e.expect("dir entry").path())
        .filter(|p| p.extension().is_some_and(|e| e == "json"))
        .collect();
    entries.sort();
    let mut best = [Duration::MAX; PHASES.len()];
    let (mut bytes, mut epochs) = (0usize, 0usize);
    for _ in 0..reps.max(1) {
        let mut pass = [Duration::ZERO; PHASES.len()];
        (bytes, epochs) = (0, 0);
        for path in &entries {
            let t0 = Instant::now();
            let raw = std::fs::read(path).expect("read envelope");
            let t1 = Instant::now();
            let (_, payload) = open_envelope(&raw).expect("envelope opens");
            let t2 = Instant::now();
            let text = std::str::from_utf8(payload).expect("payload is UTF-8");
            let t3 = Instant::now();
            let mut reader = serde::Reader::new(text);
            reader.skip_value().and_then(|()| reader.finish()).expect("payload scans");
            let t4 = Instant::now();
            let summary: RunSummary = serde_json::from_str(text).expect("payload parses");
            let t5 = Instant::now();
            let spans = [(t0, t1), (t1, t2), (t2, t3), (t3, t4), (t4, t5)];
            for (phase, (a, b)) in pass.iter_mut().zip(spans) {
                *phase += b - a;
            }
            bytes += raw.len();
            epochs += summary.trace.epochs.len();
        }
        for (b, p) in best.iter_mut().zip(pass) {
            *b = (*b).min(p);
        }
    }
    let total: Duration = best.iter().enumerate().filter(|&(i, _)| i != SCAN).map(|(_, t)| t).sum();
    println!(
        "{} envelopes, {:.2} MB, {epochs} epochs; best of {reps} passes",
        entries.len(),
        bytes as f64 / 1e6
    );
    println!("{:<9} {:>9} {:>7}", "phase", "ms", "share");
    for (name, t) in PHASES.iter().zip(best) {
        let ms = t.as_secs_f64() * 1e3;
        println!("{name:<9} {ms:>9.1} {:>6.1}%", 100.0 * ms / (total.as_secs_f64() * 1e3));
    }
    println!("{:<9} {:>9.1}  (the load; scan excluded)", "total", total.as_secs_f64() * 1e3);
}
