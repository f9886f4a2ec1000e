//! Golden-trace determinism suite.
//!
//! Two benchmarks (one memory-bound, one compute-bound) at two
//! frequencies, tiny scale, serialized as JSON and compared **byte for
//! byte** against checked-in goldens under `tests/goldens/`. The JSON
//! shim prints floats with the shortest exact-roundtrip representation,
//! so byte equality of the files is equivalent to bit-pattern equality
//! of every `f64` in the summaries; the summary-level fields are also
//! compared through `f64::to_bits` explicitly.
//!
//! Regenerate after an intentional simulator change with:
//!
//! ```text
//! UPDATE_GOLDENS=1 cargo test -p harness --test golden
//! ```

use std::fs;
use std::path::PathBuf;

use dvfs_trace::{EpochEnd, ExecutionTrace, Freq};
use harness::run::RunSummary;
use harness::{ExecCtx, SimPoint, SweepPlan};

/// The golden grid: (benchmark, GHz). Scale and seed are fixed below.
const GRID: [(&str, f64); 4] = [
    ("lusearch", 1.0),
    ("lusearch", 4.0),
    ("sunflow", 1.0),
    ("sunflow", 4.0),
];
const SCALE: f64 = 0.05;
const SEED: u64 = 1;

fn golden_path(bench: &str, ghz: f64) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/goldens")
        .join(format!("{bench}_{ghz:.0}ghz.json"))
}

fn compute_summaries() -> Vec<std::sync::Arc<RunSummary>> {
    let ctx = ExecCtx::sequential();
    let mut plan = SweepPlan::new();
    for (name, ghz) in GRID {
        let bench = dacapo_sim::benchmark(name).expect("golden benchmark exists");
        plan.push(SimPoint::new(bench, Freq::from_ghz(ghz), SCALE, SEED));
    }
    ctx.execute(&plan).expect("golden runs succeed")
}

#[test]
fn summaries_match_goldens() {
    let updating = std::env::var("UPDATE_GOLDENS").ok().as_deref() == Some("1");
    let results = compute_summaries();
    let mut mismatches = Vec::new();
    for ((name, ghz), summary) in GRID.iter().zip(&results) {
        let json = serde_json::to_string_pretty(&**summary).expect("summary serializes");
        let path = golden_path(name, *ghz);
        if updating {
            fs::create_dir_all(path.parent().expect("goldens dir")).expect("mkdir goldens");
            fs::write(&path, &json).expect("write golden");
            continue;
        }
        let want = fs::read_to_string(&path).unwrap_or_else(|_| {
            panic!(
                "missing golden {}; regenerate with UPDATE_GOLDENS=1 cargo test -p harness --test golden",
                path.display()
            )
        });
        if want != json {
            // Pinpoint the first diverging line so a drift report is
            // readable without a JSON diff tool.
            let line = want
                .lines()
                .zip(json.lines())
                .position(|(a, b)| a != b)
                .map_or(0, |i| i + 1);
            mismatches.push(format!("{name} @ {ghz} GHz (first differing line {line})"));
        }
    }
    assert!(
        mismatches.is_empty(),
        "golden drift in: {}. If the simulator change is intentional, regenerate with \
         UPDATE_GOLDENS=1 cargo test -p harness --test golden",
        mismatches.join(", ")
    );
}

#[test]
fn golden_grid_is_clean_under_the_full_invariant_monitor() {
    // The golden configurations are the repo's reference physics: every
    // invariant the monitor knows must hold on them at the strictest
    // tier. A violation here is a simulator bug (or an over-tight
    // tolerance), never acceptable drift.
    for (name, ghz) in GRID {
        let bench = dacapo_sim::benchmark(name).expect("golden benchmark exists");
        let config = harness::RunConfig {
            freq: Freq::from_ghz(ghz),
            scale: SCALE,
            seed: SEED,
        };
        harness::try_run_benchmark_monitored(bench, config, simx::InvariantMode::Full)
            .unwrap_or_else(|e| panic!("{name} @ {ghz} GHz violates an invariant: {e}"));
    }
}

#[test]
fn every_invariant_tier_produces_byte_identical_summaries() {
    // The batched counter harvest accumulates per-slice counters on the
    // core bank and copies them back to threads only at slice boundaries —
    // but the invariant monitor (and `Machine::stats`) read cumulative
    // counters *mid-run*. This test proves the harvest path is observation
    // independent: every monitor tier, including the tiers that read
    // counters at each harvest, serializes to the exact same bytes.
    for (name, ghz) in GRID {
        let bench = dacapo_sim::benchmark(name).expect("golden benchmark exists");
        let config = harness::RunConfig {
            freq: Freq::from_ghz(ghz),
            scale: SCALE,
            seed: SEED,
        };
        let tiers = [
            simx::InvariantMode::Off,
            simx::InvariantMode::Cheap,
            simx::InvariantMode::Full,
        ];
        let jsons: Vec<String> = tiers
            .iter()
            .map(|&mode| {
                let r = harness::try_run_benchmark_monitored(bench, config, mode)
                    .unwrap_or_else(|e| panic!("{name} @ {ghz} GHz under {mode:?}: {e}"));
                serde_json::to_string_pretty(&r.summarize()).expect("summary serializes")
            })
            .collect();
        assert_eq!(jsons[0], jsons[1], "{name} @ {ghz} GHz: off vs cheap tier drift");
        assert_eq!(jsons[0], jsons[2], "{name} @ {ghz} GHz: off vs full tier drift");
    }
}

#[test]
fn goldens_roundtrip_with_exact_f64_bits() {
    if std::env::var("UPDATE_GOLDENS").ok().as_deref() == Some("1") {
        return; // goldens are being rewritten by the other test
    }
    let results = compute_summaries();
    for ((name, ghz), summary) in GRID.iter().zip(&results) {
        let path = golden_path(name, *ghz);
        let Ok(text) = fs::read_to_string(&path) else {
            panic!("missing golden {}", path.display());
        };
        let stored: RunSummary = serde_json::from_str(&text).expect("golden parses");
        for (field, ours, theirs) in [
            ("exec", summary.exec.as_secs(), stored.exec.as_secs()),
            ("gc_time", summary.gc_time.as_secs(), stored.gc_time.as_secs()),
            (
                "total_active",
                summary.total_active.as_secs(),
                stored.total_active.as_secs(),
            ),
        ] {
            assert_eq!(
                ours.to_bits(),
                theirs.to_bits(),
                "{name} @ {ghz} GHz: {field} bit pattern drifted ({ours} vs {theirs})"
            );
        }
        assert_eq!(summary.gc_count, stored.gc_count, "{name} @ {ghz} GHz gc_count");
        assert_eq!(summary.allocated, stored.allocated, "{name} @ {ghz} GHz allocated");
        assert_eq!(
            summary.trace.epochs.len(),
            stored.trace.epochs.len(),
            "{name} @ {ghz} GHz epoch count"
        );
    }
}

/// The row form of a summary, as cache schema 4 and the goldens before
/// schema 5 wrote it: every epoch an object, every thread slice an object
/// holding its nine named counters. Kept only here, as the oracle that
/// the columnar encoding decodes to the same values.
mod v4 {
    use dvfs_trace::{
        DvfsCounters, EpochEnd, EpochRecord, ExecutionTrace, Freq, PhaseMarker, ThreadId,
        ThreadInfo, ThreadSlice, Time, TimeDelta,
    };
    use harness::run::{RunSummary, SampledInfo};
    use serde::{Deserialize, Serialize};

    #[derive(Serialize, Deserialize)]
    pub struct Summary {
        exec: TimeDelta,
        gc_time: TimeDelta,
        gc_count: u64,
        allocated: u64,
        total_active: TimeDelta,
        trace: Trace,
        #[serde(default, skip_serializing_if = "Option::is_none")]
        sampled: Option<SampledInfo>,
    }

    #[derive(Serialize, Deserialize)]
    struct Trace {
        base: Freq,
        start: Time,
        total: TimeDelta,
        epochs: Vec<Epoch>,
        markers: Vec<PhaseMarker>,
        threads: Vec<ThreadInfo>,
    }

    #[derive(Serialize, Deserialize)]
    struct Epoch {
        start: Time,
        duration: TimeDelta,
        threads: Vec<Slice>,
        end: EpochEnd,
    }

    #[derive(Serialize, Deserialize)]
    struct Slice {
        thread: ThreadId,
        counters: DvfsCounters,
    }

    impl From<&RunSummary> for Summary {
        fn from(s: &RunSummary) -> Self {
            let t = &s.trace;
            let epochs = t.epochs.iter().map(|e| Epoch {
                start: e.start,
                duration: e.duration,
                threads: e
                    .threads
                    .iter()
                    .map(|s| Slice {
                        thread: s.thread,
                        counters: s.counters,
                    })
                    .collect(),
                end: e.end,
            });
            Summary {
                exec: s.exec,
                gc_time: s.gc_time,
                gc_count: s.gc_count,
                allocated: s.allocated,
                total_active: s.total_active,
                trace: Trace {
                    base: t.base,
                    start: t.start,
                    total: t.total,
                    epochs: epochs.collect(),
                    markers: t.markers.clone(),
                    threads: t.threads.clone(),
                },
                sampled: s.sampled.clone(),
            }
        }
    }

    impl From<Summary> for RunSummary {
        fn from(s: Summary) -> Self {
            let t = s.trace;
            let epochs = t.epochs.into_iter().map(|e| EpochRecord {
                start: e.start,
                duration: e.duration,
                threads: e
                    .threads
                    .into_iter()
                    .map(|s| ThreadSlice {
                        thread: s.thread,
                        counters: s.counters,
                    })
                    .collect(),
                end: e.end,
            });
            RunSummary {
                exec: s.exec,
                gc_time: s.gc_time,
                gc_count: s.gc_count,
                allocated: s.allocated,
                total_active: s.total_active,
                trace: ExecutionTrace {
                    base: t.base,
                    start: t.start,
                    total: t.total,
                    epochs: epochs.collect(),
                    markers: t.markers,
                    threads: t.threads,
                }
                .into(),
                sampled: s.sampled,
            }
        }
    }
}

/// Every value of a trace's epoch stream as bits: per epoch its start,
/// duration, end and slice count, per slice its thread and nine counters.
fn epoch_bits(trace: &ExecutionTrace) -> Vec<u64> {
    let mut bits = Vec::new();
    for e in &trace.epochs {
        let end = match e.end {
            EpochEnd::Stall(t) => 1 << 32 | u64::from(t.0),
            EpochEnd::Wake(t) => 2 << 32 | u64::from(t.0),
            EpochEnd::Exit(t) => 3 << 32 | u64::from(t.0),
            EpochEnd::QuantumBoundary => 4 << 32,
            EpochEnd::TraceEnd => 5 << 32,
        };
        let head = [e.start.as_secs().to_bits(), e.duration.as_secs().to_bits()];
        bits.extend(head.into_iter().chain([end, e.threads.len() as u64]));
        for s in &e.threads {
            let c = &s.counters;
            let times = [c.active, c.crit, c.leading_loads, c.stall, c.sq_full];
            bits.push(u64::from(s.thread.0));
            bits.extend(times.map(|t| t.as_secs().to_bits()));
            bits.extend([c.instructions, c.loads, c.stores, c.llc_misses]);
        }
    }
    bits
}

#[test]
fn goldens_decode_bit_identically_from_the_row_form() {
    for (name, ghz) in GRID {
        let path = golden_path(name, ghz);
        let text = fs::read_to_string(&path).unwrap_or_else(|_| panic!("missing {}", path.display()));
        let columnar: RunSummary = serde_json::from_str(&text).expect("golden parses");
        assert!(!columnar.trace.epochs.is_empty(), "{name} @ {ghz} GHz has epochs");
        let rows = serde_json::to_string_pretty(&v4::Summary::from(&columnar)).expect("serializes");
        assert!(rows.len() > text.len(), "the row form is the longer text");
        let from_rows: RunSummary = serde_json::from_str::<v4::Summary>(&rows)
            .expect("the row form parses")
            .into();
        assert_eq!(
            epoch_bits(&from_rows.trace),
            epoch_bits(&columnar.trace),
            "{name} @ {ghz} GHz: epoch values differ between the encodings"
        );
        assert_eq!(from_rows, columnar, "{name} @ {ghz} GHz");
        assert_eq!(
            serde_json::to_string_pretty(&from_rows).expect("serializes"),
            text,
            "{name} @ {ghz} GHz: the row form re-encodes to the golden's bytes"
        );
    }
}
