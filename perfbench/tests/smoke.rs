//! Reduced-scale checks of the benchmark through its real code paths.

use std::collections::BTreeSet;

use perfbench::catalog::{self, Metric};
use perfbench::run::{self, Report};
use perfbench::stats::Verdict;
use perfbench::suite::{self, ChildResult};
use perfbench::workloads::{self, Spec, Workload, ALL, GOLDEN_SEED};
use perfbench::{json, pool_width};
use serde::Value;

fn smoke_spec(workload: Workload) -> Spec {
    Spec {
        workload,
        seed: 3,
        size: workload.smoke_size(),
        jobs: 1,
        scratch: run::out_dir().join("tmp-smoke"),
    }
}

/// Metrics that must be measured (nonzero) on a workload's traced run
/// because the workload exercises their layer.
fn exercised(w: Workload) -> &'static [&'static str] {
    match w {
        Workload::Fig3Exact => &["core.predict.calls", "core.dep_burst.abs_err_pct"],
        Workload::Fig3Sampled => &["simx.sampling.extrapolate.self_pct", "core.predict.calls"],
        Workload::CacheReplay => &[
            "harness.cache.disk_hits",
            "harness.cache.store_mb",
            "harness.cache.load_mb_per_s",
        ],
        Workload::FleetFlat => &[
            "fleet.rounds.machine_rounds_per_s",
            "fleet.rounds.machine_rounds_per_s.m64",
            "fleet.rounds.machine_rounds_per_s.m1024",
            "fleet.slo_attainment_pct",
        ],
        Workload::FleetThermal => &["fleet.rounds.machine_rounds_per_s", "fleet.energy_kj"],
        Workload::EnergyManager => &[
            "energy.manager.decisions",
            "core.predict.dep_burst.self_pct",
        ],
    }
}

fn check_report(w: Workload, report: &Report, expected: &[Metric]) {
    let what = w.name();
    assert!(report.correct, "{what}: {report:?}");
    assert!(
        report.attempted >= 1 && report.failed == 0,
        "{what}: {report:?}"
    );
    // The result line carries exactly the catalog's metrics,
    // each with its unit.
    let line = report.json_line();
    let v = json::parse(&line).expect("result line is JSON");
    let keys: Vec<&str> = match &v {
        Value::Map(e) => e.iter().map(|(k, _)| k.as_str()).collect(),
        _ => panic!("{what}: result is not an object"),
    };
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    let metrics = json::entries(&v, "metrics");
    let names: BTreeSet<&str> = metrics.iter().map(|(k, _)| k.as_str()).collect();
    let want: BTreeSet<&str> = expected.iter().map(|m| m.name).collect();
    assert_eq!(names, want, "{what}");
    for m in expected {
        let entry = &metrics
            .iter()
            .find(|(k, _)| k == m.name)
            .expect("present")
            .1;
        assert_eq!(
            json::text(entry, "unit"),
            Some(m.unit),
            "{what}: {}",
            m.name
        );
        let value = json::num(entry, "value").expect("numeric value");
        // Times are measured on every workload, never a placeholder.
        if ["s", "ms", "ns"].contains(&m.unit) || m.bound.is_some() {
            assert!(value > 0.0, "{what}: {} = {value}", m.name);
        }
    }
    let parsed = suite::parse_child(&format!("digest {}\n{line}", report.digest)).expect("parses");
    assert_eq!(parsed.digest, report.digest);
    assert_eq!(parsed.attempted as usize, report.attempted);
}

#[test]
fn every_workload_reports_every_metric_with_its_unit() {
    for w in ALL {
        let spec = smoke_spec(w);
        let timed = run::run(&spec, 0.01, false);
        check_report(w, &timed, catalog::END_TO_END);

        let traced = run::run(&spec, 0.01, true);
        check_report(w, &traced, catalog::PER_LAYER);
        assert_eq!(
            traced.digest,
            timed.digest,
            "{}: traced output differs",
            w.name()
        );
        for name in exercised(w) {
            let v = traced.value(name).expect("in catalog");
            assert!(v > 0.0, "{}: {name} = {v}", w.name());
        }
        let coverage = traced.value("bench.trace_coverage").expect("in catalog");
        assert!(
            (0.5..=1.0).contains(&coverage),
            "{}: coverage {coverage}",
            w.name()
        );
        let trace =
            std::fs::read_to_string(run::out_dir().join(format!("trace-{}.json", w.name())))
                .expect("the traced run writes its trace");
        assert!(trace.starts_with("{\"traceEvents\":["));
    }
}

#[test]
fn benchmark_sized_outputs_match_the_committed_digests() {
    for w in ALL {
        let spec = Spec {
            workload: w,
            seed: GOLDEN_SEED,
            size: w.size(),
            jobs: pool_width(),
            scratch: run::out_dir().join("tmp-golden"),
        };
        let golden = spec.golden().expect("committed for the benchmark size");
        let state = workloads::prepare(&spec).expect("prepares");
        if let Some(cold) = state.prepared_output() {
            assert_eq!(run::digest(cold), golden, "{}: cold pass", w.name());
        }
        let out = workloads::operate(&spec, &state).expect("operates");
        assert_eq!(run::digest(&out), golden, "{}", w.name());
    }
}

#[test]
fn committed_figures_reproduce_byte_for_byte() {
    let results = concat!(env!("CARGO_MANIFEST_DIR"), "/../results");
    for (file, text) in workloads::reference_outputs(pool_width()).expect("runs") {
        let committed = std::fs::read_to_string(format!("{results}/{file}")).expect("committed");
        assert!(committed == text, "{file} no longer reproduces");
    }
}

#[test]
fn fleet_metrics_stay_zero_off_the_fleet() {
    let report = run::run(&smoke_spec(Workload::EnergyManager), 0.01, true);
    for name in [
        "fleet.rounds.machine_rounds_per_s",
        "fleet.characterize.points",
        "harness.cache.disk_hits",
    ] {
        assert_eq!(report.value(name), Some(0.0), "{name}");
    }
}

fn child(digest: &str, attempted: u64, failed: u64) -> ChildResult {
    ChildResult {
        correct: failed == 0,
        attempted,
        failed,
        metrics: Default::default(),
        digest: digest.to_owned(),
    }
}

#[test]
fn runs_that_disagree_on_their_output_fail_every_operation() {
    let (a, b, c) = (child("aa", 5, 0), child("aa", 6, 1), child("bb", 4, 0));
    let agree = suite::tally(&[&a, &b]);
    assert_eq!(
        (agree.attempted, agree.failed, agree.digests_agree),
        (11, 1, true)
    );
    let differ = suite::tally(&[&a, &b, &c]);
    assert_eq!(
        (differ.attempted, differ.failed, differ.digests_agree),
        (15, 15, false)
    );
}

fn results_doc(op_ms: &[f64], digest: &str) -> Value {
    let samples = Value::Seq(op_ms.iter().map(|&x| Value::F64(x)).collect());
    Value::Map(vec![(
        "workloads".into(),
        Value::Map(vec![(
            "fig3-exact".into(),
            Value::Map(vec![
                ("digest".into(), Value::Str(digest.into())),
                (
                    "end_to_end".into(),
                    Value::Map(vec![(
                        "op_ms".into(),
                        Value::Map(vec![("samples".into(), samples)]),
                    )]),
                ),
            ]),
        )]),
    )])
}

#[test]
fn compare_judges_each_workload_and_metric_against_its_bound() {
    let parent = results_doc(&[600.0, 610.0, 605.0, 598.0, 603.0], "aa");
    let slower = results_doc(&[900.0, 905.0, 910.0, 899.0, 902.0], "aa");
    let rows = suite::compare_docs(&parent, &slower);
    assert_eq!(rows.len(), 1);
    assert_eq!(
        (rows[0].workload.as_str(), rows[0].metric.as_str()),
        ("fig3-exact", "op_ms")
    );
    assert_eq!(rows[0].verdict, Verdict::Worse);
    assert_eq!(
        suite::compare_docs(&parent, &parent)[0].verdict,
        Verdict::WithinBound
    );
    assert!(suite::changed_outputs(&parent, &slower).is_empty());
}

#[test]
fn compare_flags_a_changed_output() {
    let parent = results_doc(&[600.0, 610.0, 605.0], "aa");
    let change = results_doc(&[600.0, 610.0, 605.0], "bb");
    assert_eq!(
        suite::changed_outputs(&parent, &change),
        [("fig3-exact".to_owned(), "aa".to_owned(), "bb".to_owned())]
    );
}

#[test]
fn benchmark_json_matches_the_catalog() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let doc = json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json")).expect("JSON");
    let names = |key: &str| -> Vec<String> {
        match doc.get(key) {
            Some(Value::Seq(items)) => items
                .iter()
                .map(|i| json::text(i, "name").expect("name").to_owned())
                .collect(),
            _ => panic!("{key} is not a list"),
        }
    };
    let workloads: Vec<&str> = ALL.iter().map(|w| w.name()).collect();
    assert_eq!(names("workloads"), workloads);
    assert_eq!(
        json::num(&doc, "run_seconds"),
        Some(run::DEFAULT_SECONDS as f64)
    );
    for (key, list) in [
        ("end_to_end", catalog::END_TO_END),
        ("per_layer", catalog::PER_LAYER),
    ] {
        let Some(Value::Seq(items)) = doc.get(key) else {
            panic!("{key}")
        };
        assert_eq!(items.len(), list.len(), "{key}");
        for (item, m) in items.iter().zip(list) {
            assert_eq!(json::text(item, "name"), Some(m.name), "{key}");
            assert_eq!(json::text(item, "unit"), Some(m.unit), "{}", m.name);
            assert_eq!(
                json::text(item, "better"),
                Some(m.better.as_str()),
                "{}",
                m.name
            );
            assert_eq!(json::num(item, "bound"), m.bound, "{}", m.name);
        }
    }
    let bounds: Vec<f64> = catalog::END_TO_END.iter().filter_map(|m| m.bound).collect();
    let setup = catalog::find("setup_s")
        .and_then(|m| m.bound)
        .expect("setup_s bound");
    assert!(bounds.iter().all(|&b| b <= setup && b <= 0.25));
}
