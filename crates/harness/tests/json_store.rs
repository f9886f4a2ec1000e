//! Streamed JSON writes agree with the tree path. For every type that
//! reaches JSON — the cache's `RunSummary`, the fleet report, the
//! experiments' result rows, `MachineConfig` — `serde_json::to_string`
//! and `to_string_pretty`, which stream through each type's `write_json`,
//! must write the bytes that the same calls write for the type's
//! `to_value` tree. The tree's own rendering is checked in turn against
//! a reference renderer kept here: the recursive `Value` printer that
//! every write went through before `write_json` existed. Values carry
//! the edge cases: empty sequences and maps, `-0.0`, non-finite floats
//! (written as `null`), `u64::MAX`, `i64::MIN`, and strings that need
//! escapes or hold multibyte characters.

use std::fmt::Write as _;

use dvfs_trace::{
    DvfsCounters, EpochEnd, EpochRecord, ExecutionTrace, Freq, PhaseKind, PhaseMarker, ThreadId,
    ThreadInfo, ThreadRole, ThreadSlice, Time, TimeDelta,
};
use harness::experiments::fig1::Fig1Row;
use harness::experiments::fig3::Fig3Cell;
use harness::experiments::fig4::Fig4Row;
use harness::experiments::fig6::Fig6Row;
use harness::experiments::fig7::Fig7Row;
use harness::experiments::fleet::{self, FleetConfig, FleetReport};
use harness::experiments::sampling_error::{SamplingErrorCell, SamplingErrorReport};
use harness::experiments::table1::Table1Row;
use harness::experiments::torture::TortureReport;
use harness::fuzz::fleet_profile;
use harness::run::SampledInfo;
use harness::{RunSummary, StorageFaultStats};
use serde::{Serialize, Value};
use simx::fleet::ChaosConfig;
use simx::{MachineConfig, ThermalConfig};

/// Names that need escapes or hold multibyte characters.
const NAMES: [&str; 4] = [
    "",
    "lu\"search\\",
    "\u{e9}\u{4e2d}\u{1F600} r3 central\u{2192}local",
    "tab\tnew\nline\r\u{1}\u{1f}\u{7f}",
];

/// The printer every write used before `write_json`: compact.
fn reference(v: &Value, out: &mut String) {
    match v {
        Value::Null => out.push_str("null"),
        Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Value::U64(n) => write!(out, "{n}").unwrap(),
        Value::I64(n) => write!(out, "{n}").unwrap(),
        Value::F64(x) if x.is_finite() => write!(out, "{x:?}").unwrap(),
        Value::F64(_) => out.push_str("null"),
        Value::Str(s) => reference_str(s, out),
        Value::Seq(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                reference(item, out);
            }
            out.push(']');
        }
        Value::Map(entries) => {
            out.push('{');
            for (i, (k, item)) in entries.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                reference_str(k, out);
                out.push(':');
                reference(item, out);
            }
            out.push('}');
        }
    }
}

/// The printer every write used before `write_json`: 2-space pretty.
fn reference_pretty(v: &Value, indent: usize, out: &mut String) {
    let pad = |n: usize| "  ".repeat(n);
    match v {
        Value::Seq(items) if !items.is_empty() => {
            out.push_str("[\n");
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push_str(",\n");
                }
                out.push_str(&pad(indent + 1));
                reference_pretty(item, indent + 1, out);
            }
            out.push('\n');
            out.push_str(&pad(indent));
            out.push(']');
        }
        Value::Map(entries) if !entries.is_empty() => {
            out.push_str("{\n");
            for (i, (k, item)) in entries.iter().enumerate() {
                if i > 0 {
                    out.push_str(",\n");
                }
                out.push_str(&pad(indent + 1));
                reference_str(k, out);
                out.push_str(": ");
                reference_pretty(item, indent + 1, out);
            }
            out.push('\n');
            out.push_str(&pad(indent));
            out.push('}');
        }
        other => reference(other, out),
    }
}

fn reference_str(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => write!(out, "\\u{:04x}", c as u32).unwrap(),
            c => out.push(c),
        }
    }
    out.push('"');
}

/// `v` writes the same bytes streamed, through its tree, and through the
/// reference printer, compact and pretty. Returns the compact text.
#[track_caller]
fn same_bytes<T: Serialize + ?Sized>(what: &str, v: &T) -> String {
    let tree = v.to_value();
    let (mut compact, mut pretty) = (String::new(), String::new());
    reference(&tree, &mut compact);
    reference_pretty(&tree, 0, &mut pretty);
    let streamed = serde_json::to_string(v).expect("serializes");
    assert_eq!(
        serde_json::to_string(&tree).expect("serializes"),
        compact,
        "{what}: tree, compact"
    );
    assert_eq!(streamed, compact, "{what}: streamed, compact");
    assert_eq!(
        serde_json::to_string_pretty(&tree).expect("serializes"),
        pretty,
        "{what}: tree, pretty"
    );
    assert_eq!(
        serde_json::to_string_pretty(v).expect("serializes"),
        pretty,
        "{what}: streamed, pretty"
    );
    assert_eq!(
        serde_json::to_vec(v).expect("serializes"),
        compact.as_bytes(),
        "{what}: bytes"
    );
    streamed
}

fn golden_summary() -> RunSummary {
    let golden = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/goldens/lusearch_1ghz.json"
    );
    let text = std::fs::read_to_string(golden).expect("golden readable");
    serde_json::from_str(&text).expect("golden parses")
}

/// A summary whose every numeric field class holds an edge value.
fn edge_summary() -> RunSummary {
    let counters = DvfsCounters {
        active: TimeDelta::from_secs(-0.0),
        crit: TimeDelta::from_secs(f64::NAN),
        leading_loads: TimeDelta::from_secs(f64::INFINITY),
        stall: TimeDelta::from_secs(f64::from_bits(1)),
        sq_full: TimeDelta::from_secs(f64::MAX),
        instructions: u64::MAX,
        loads: 0,
        stores: 1,
        llc_misses: u64::MAX - 1,
    };
    RunSummary {
        exec: TimeDelta::from_secs(1e-7),
        gc_time: TimeDelta::from_secs(f64::NEG_INFINITY),
        gc_count: u64::MAX,
        allocated: 0,
        total_active: TimeDelta::from_secs(0.1 + 0.2),
        trace: ExecutionTrace {
            base: Freq::from_ghz(2.5),
            start: Time::from_secs(-0.0),
            total: TimeDelta::from_secs(123_456_789.0),
            epochs: vec![
                EpochRecord {
                    start: Time::ZERO,
                    duration: TimeDelta::from_secs(1e300),
                    threads: vec![],
                    end: EpochEnd::Stall(ThreadId(u32::MAX)),
                },
                EpochRecord {
                    start: Time::from_secs(1.0),
                    duration: TimeDelta::from_secs(-1e-300),
                    threads: vec![ThreadSlice {
                        thread: ThreadId(0),
                        counters,
                    }],
                    end: EpochEnd::TraceEnd,
                },
            ],
            markers: vec![PhaseMarker {
                time: Time::from_secs(0.5),
                kind: PhaseKind::GcStart,
            }],
            threads: NAMES
                .iter()
                .enumerate()
                .map(|(i, name)| ThreadInfo {
                    id: ThreadId(i as u32),
                    role: ThreadRole::GcWorker,
                    name: (*name).to_owned(),
                    spawn: Time::ZERO,
                    exit: (i % 2 == 0).then_some(Time::from_secs(f64::NAN)),
                })
                .collect(),
        }
        .into(),
        sampled: Some(SampledInfo {
            probe_fraction: -0.0,
            measure_fraction: f64::NAN,
            extended: true,
            exec_half_ci: TimeDelta::from_secs(f64::INFINITY),
            gc_half_ci: TimeDelta::ZERO,
            recurrence: 1.0,
            clusters: usize::MAX,
        }),
    }
}

#[test]
fn run_summaries_write_the_tree_bytes() {
    let golden = golden_summary();
    assert!(golden.sampled.is_none());
    let text = same_bytes("golden summary", &golden);
    assert!(
        !text.contains("\"sampled\""),
        "a `None` sample is not written"
    );

    let edge = edge_summary();
    let text = same_bytes("edge summary", &edge);
    assert!(text.contains("\"sampled\":{\"probe_fraction\":-0.0,\"measure_fraction\":null"));
    assert!(text.contains(&format!("\"gc_count\":{}", u64::MAX)));
    let exact = RunSummary {
        sampled: None,
        ..edge.clone()
    };
    same_bytes("edge summary, exact", &exact);
    same_bytes("summaries in a slice", &[golden, edge, exact][..]);
}

fn fleet_report(thermal: bool) -> FleetReport {
    let mut config = FleetConfig::new(24, 3, 40, 0.02, 1);
    config.chaos = ChaosConfig::uniform(0.6, 5);
    if thermal {
        config.regions = 4;
        config.hierarchy = true;
        config.thermal = ThermalConfig::datacenter(5);
        config.chaos = ChaosConfig {
            sensor_stuck: 0.3,
            aggregator_crash: 0.3,
            brownout: 0.4,
            ..ChaosConfig::uniform(0.6, 5)
        };
    }
    let params: Vec<_> = (0..4).map(fleet_profile).collect();
    fleet::run_synthetic(&config, &params).expect("fleet runs clean")
}

#[test]
fn fleet_reports_write_the_tree_bytes() {
    let flat = fleet_report(false);
    assert!(flat.machines.iter().any(|r| !r.transitions.is_empty()));
    let text = same_bytes("flat fleet", &flat);
    for key in [
        "thermal_transitions",
        "peak_temp_mc",
        "strict_slo_attainment",
    ] {
        assert!(!text.contains(key), "a flat report writes no `{key}`");
    }

    let mut thermal = fleet_report(true);
    assert!(thermal
        .machines
        .iter()
        .any(|r| !r.thermal_transitions.is_empty()));
    assert!(thermal
        .machines
        .iter()
        .any(|r| r.thermal_transitions.is_empty()));
    let text = same_bytes("thermal fleet", &thermal);
    for key in [
        "thermal_transitions",
        "peak_temp_mc",
        "mean_effective_budget_w",
    ] {
        assert!(text.contains(key), "a thermal report writes `{key}`");
    }

    // Edge values in the hand-set fields.
    thermal.summary.peak_temp_mc = Some(i64::MIN);
    thermal.summary.chaos_seed = u64::MAX;
    thermal.summary.mean_effective_budget_w = Some(f64::NAN);
    thermal.summary.policy = NAMES[2].to_owned();
    for (row, name) in thermal.machines.iter_mut().zip(NAMES.iter().cycle()) {
        row.benchmark = (*name).to_owned();
        row.served = -0.0;
    }
    thermal.machines[0].transitions.clear();
    thermal.machines[0].thermal_transitions.clear();
    same_bytes("thermal fleet, edge values", &thermal);
    thermal.machines.clear();
    let text = same_bytes("fleet without machines", &thermal);
    assert!(text.starts_with("{\"machines\":[],"));
}

#[test]
fn experiment_results_write_the_tree_bytes() {
    let floats = [
        -0.0,
        0.0,
        f64::NAN,
        f64::INFINITY,
        1e-7,
        0.1 + 0.2,
        f64::MAX,
    ];
    let x = |i: usize| floats[i % floats.len()];
    let fig1: Vec<Fig1Row> = (0..7)
        .map(|i| Fig1Row {
            target_ghz: x(i),
            mcrit: x(i + 1),
            dep_burst: x(i + 2),
        })
        .collect();
    same_bytes("fig1", &fig1);
    let fig3: Vec<Fig3Cell> = (0..4)
        .map(|i| Fig3Cell {
            benchmark: NAMES[i].to_owned(),
            base_ghz: x(i),
            target_ghz: x(i + 3),
            actual_s: x(i + 5),
            errors: (0..i).map(|k| (NAMES[k].to_owned(), x(k))).collect(),
        })
        .collect();
    same_bytes("fig3", &fig3);
    let fig4: Vec<Fig4Row> = (0..4)
        .map(|i| Fig4Row {
            benchmark: NAMES[i].to_owned(),
            base_ghz: x(i),
            target_ghz: x(i + 1),
            per_epoch: x(i + 2),
            across_epoch: x(i + 3),
        })
        .collect();
    same_bytes("fig4", &fig4);
    let fig6: Vec<Fig6Row> = (0..4)
        .map(|i| Fig6Row {
            benchmark: NAMES[i].to_owned(),
            class: NAMES[3 - i].to_owned(),
            threshold: x(i),
            slowdown: x(i + 1),
            savings: x(i + 2),
            mean_ghz: x(i + 3),
        })
        .collect();
    same_bytes("fig6", &fig6);
    // The `fig6` binary writes references.
    same_bytes("fig6 by reference", &fig6.iter().collect::<Vec<&Fig6Row>>());
    let fig7: Vec<Fig7Row> = (0..4)
        .map(|i| Fig7Row {
            benchmark: NAMES[i].to_owned(),
            class: NAMES[i].to_owned(),
            threshold: x(i),
            dynamic_savings: x(i + 4),
            static_savings: x(i + 5),
            static_ghz: x(i + 6),
        })
        .collect();
    same_bytes("fig7", &fig7);
    let table1: Vec<Table1Row> = (0..4)
        .map(|i| Table1Row {
            name: NAMES[i].to_owned(),
            class: NAMES[(i + 1) % 4].to_owned(),
            heap_mb: [0, 1, u64::MAX, 10][i],
            exec_s: x(i),
            gc_s: x(i + 1),
            gc_count: u64::MAX - i as u64,
            allocated_mb: x(i + 2),
            paper_exec_s: x(i + 3),
            paper_gc_s: x(i + 4),
        })
        .collect();
    same_bytes("table1", &table1);
    let cells: Vec<SamplingErrorCell> = (0..4)
        .map(|i| SamplingErrorCell {
            benchmark: NAMES[i].to_owned(),
            freq_ghz: x(i),
            exact_exec_s: x(i + 1),
            sampled_exec_s: x(i + 2),
            exec_error: x(i + 3),
            exact_gc_s: x(i + 4),
            sampled_gc_s: x(i + 5),
            gc_error: x(i + 6),
            exec_ci_frac: x(i),
            recurrence: x(i + 1),
            clusters: [0, 1, usize::MAX, 7][i],
            extended: i % 2 == 0,
        })
        .collect();
    for cells in [vec![], cells] {
        same_bytes(
            "sampling_error",
            &SamplingErrorReport {
                scale: -0.0,
                seeds: usize::MAX,
                probe_fraction: f64::NAN,
                measure_fraction: 0.25,
                cells,
                max_exec_error: f64::NEG_INFINITY,
                max_gc_error: 1e300,
                mean_exec_error: 0.0,
                mean_gc_error: f64::MIN_POSITIVE,
            },
        );
    }
    for (points, crashed) in [(vec![], false), (vec![0, 1, u64::MAX], true)] {
        same_bytes(
            "torture",
            &TortureReport {
                scale: -0.0,
                seed: u64::MAX,
                total_ops: 0,
                inert_identical: crashed,
                crash_points: usize::MAX,
                identical: 0,
                failed_closed: 1,
                silent_corruptions: 0,
                bitflips: 2,
                bitflips_detected: 2,
                bitflips_missed: 0,
                soak_intensity: f64::NAN,
                soak_identical: !crashed,
                soak_faults: StorageFaultStats {
                    ops: u64::MAX,
                    crashed,
                    ..StorageFaultStats::default()
                },
                failed_closed_points: points.clone(),
                silent_points: points.into_iter().rev().collect(),
            },
        );
    }
    // Tuples, as the `ablation` binary writes them.
    same_bytes(
        "tuple",
        &(
            fig1.clone(),
            Vec::<Fig4Row>::new(),
            (u64::MAX, -0.0, NAMES[3]),
        ),
    );
}

#[test]
fn machine_configs_and_trees_write_the_tree_bytes() {
    let default = MachineConfig::default();
    same_bytes("machine config", &default);
    let mut edge = default;
    edge.cores = usize::MAX;
    edge.store_issue_per_cycle = -0.0;
    edge.commit_width = f64::NAN;
    edge.timeslice = TimeDelta::from_secs(f64::INFINITY);
    edge.core_model.syscall_cycles = u64::MAX;
    same_bytes("machine config, edge values", &edge);

    // Bare trees, empty containers nested at every depth.
    let empty_map = Value::Map(vec![]);
    let empty_seq = Value::Seq(vec![]);
    let tree = Value::Map(vec![
        ("".to_owned(), empty_map.clone()),
        (NAMES[1].to_owned(), empty_seq.clone()),
        (
            NAMES[2].to_owned(),
            Value::Seq(vec![
                empty_seq.clone(),
                empty_map.clone(),
                Value::Seq(vec![empty_map.clone()]),
                Value::I64(i64::MIN),
                Value::U64(u64::MAX),
                Value::F64(-0.0),
                Value::F64(f64::NAN),
                Value::Null,
                Value::Bool(false),
                Value::Str(NAMES[3].to_owned()),
            ]),
        ),
    ]);
    for v in [empty_map, empty_seq, tree] {
        same_bytes("tree", &v);
    }
    same_bytes("empty vec", &Vec::<u64>::new());
    same_bytes("none", &Option::<f64>::None);
    same_bytes("integers", &(i64::MIN, (i64::MAX, u64::MAX), -1i32, 0u8));
}
