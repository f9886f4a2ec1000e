//! The suite: runs each workload several times, each run in a
//! child process of its own, one child at a time; summarizes every
//! metric; writes `results.json`; and compares two such files.

use std::collections::BTreeMap;
use std::path::Path;
use std::process::Command;

use serde::Value;

use crate::catalog::{self, Metric};
use crate::json;
use crate::stats::{verdict, Better, Summary, Verdict};
use crate::workloads::{self, Workload};

/// What the suite runs: every workload, `runs` times each.
#[derive(Debug, Clone)]
pub struct Plan {
    /// Seed of every run.
    pub seed: u64,
    /// Untraced runs per workload.
    pub runs: usize,
    /// Seconds each run measures.
    pub seconds: u64,
    /// Add one traced run per workload.
    pub traced: bool,
}

/// One child's parsed result.
#[derive(Debug, Clone)]
pub struct ChildResult {
    /// The child judged its outputs correct.
    pub correct: bool,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations failed.
    pub failed: u64,
    /// `name → value`.
    pub metrics: BTreeMap<String, f64>,
    /// Output digest the child printed.
    pub digest: String,
}

/// Parses a run's standard output: the `digest` line and the final JSON
/// result line.
///
/// # Errors
/// A missing or malformed result line.
pub fn parse_child(stdout: &str) -> Result<ChildResult, String> {
    let last = stdout.lines().last().ok_or("no output")?;
    let v = json::parse(last)?;
    let flag = |k: &str| matches!(v.get(k), Some(Value::Bool(true)));
    let int = |k: &str| {
        json::num(&v, k)
            .map(|x| x as u64)
            .ok_or(format!("missing {k}"))
    };
    let metrics = json::entries(&v, "metrics")
        .iter()
        .filter_map(|(name, m)| json::num(m, "value").map(|x| (name.clone(), x)))
        .collect();
    let digest = stdout
        .lines()
        .find_map(|l| l.strip_prefix("digest "))
        .unwrap_or_default()
        .to_owned();
    Ok(ChildResult {
        correct: flag("correct"),
        attempted: int("attempted")?,
        failed: int("failed")?,
        metrics,
        digest,
    })
}

/// Runs one child: this executable in single-run mode, with every
/// `DEPBURST_*` variable removed so no environment knob changes what runs.
fn run_child(w: Workload, seed: u64, seconds: u64, traced: bool) -> Result<ChildResult, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", w.name()])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }]);
    for (k, _) in std::env::vars_os() {
        if k.to_string_lossy().starts_with("DEPBURST_") {
            cmd.env_remove(k);
        }
    }
    let out = cmd.output().map_err(|e| format!("spawn: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    if !out.status.success() {
        return Err(format!(
            "{} exited with {}: {}",
            w.name(),
            out.status,
            String::from_utf8_lossy(&out.stderr)
        ));
    }
    parse_child(&stdout)
}

fn metric_entry(m: &Metric, samples: &[f64]) -> Value {
    let s = Summary::of(samples);
    let mut e = vec![
        ("unit".to_owned(), Value::Str(m.unit.into())),
        ("better".to_owned(), Value::Str(m.better.as_str().into())),
    ];
    if let Some(b) = m.bound {
        e.push(("bound".to_owned(), Value::F64(b)));
    }
    e.extend([
        ("median".to_owned(), Value::F64(s.median)),
        ("q1".to_owned(), Value::F64(s.q1)),
        ("q3".to_owned(), Value::F64(s.q3)),
        ("min".to_owned(), Value::F64(s.min)),
        ("max".to_owned(), Value::F64(s.max)),
        ("n".to_owned(), Value::U64(s.n as u64)),
        (
            "samples".to_owned(),
            Value::Seq(samples.iter().map(|&x| Value::F64(x)).collect()),
        ),
    ]);
    Value::Map(e)
}

fn print_row(m: &Metric, samples: &[f64]) {
    let s = Summary::of(samples);
    println!(
        "  {:<42} {:>12.4} {:<7} q1-q3 {:.4}..{:.4}  min-max {:.4}..{:.4}  n={}",
        m.name, s.median, m.unit, s.q1, s.q3, s.min, s.max, s.n
    );
}

/// Operations attempted and failed over one workload's runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Tally {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations failed.
    pub failed: u64,
    /// Every run printed the same output digest.
    pub digests_agree: bool,
}

/// Tallies `runs` of one workload and seed. Runs that disagree on their
/// output ran different programs, so a disagreement fails every
/// operation.
#[must_use]
pub fn tally(runs: &[&ChildResult]) -> Tally {
    let attempted = runs.iter().map(|r| r.attempted).sum();
    let digests_agree = runs.windows(2).all(|p| p[0].digest == p[1].digest);
    Tally {
        attempted,
        failed: if digests_agree {
            runs.iter().map(|r| r.failed).sum()
        } else {
            attempted
        },
        digests_agree,
    }
}

/// Runs the suite; returns the process exit code (0 when every operation
/// of every run succeeded and reproduced one output per workload).
///
/// # Errors
/// A child that could not run or report, or an unwritable results file.
pub fn run(plan: &Plan) -> Result<u8, String> {
    let mut per_workload = Vec::new();
    let mut all_ok = true;
    for w in workloads::ALL {
        println!(
            "{}: {} run(s) of {} s, seed {}{}",
            w.name(),
            plan.runs,
            plan.seconds,
            plan.seed,
            if plan.traced {
                ", plus a traced run"
            } else {
                ""
            }
        );
        let mut results = Vec::new();
        for _ in 0..plan.runs {
            results.push(run_child(w, plan.seed, plan.seconds, false)?);
        }
        let traced = if plan.traced {
            Some(run_child(w, plan.seed, plan.seconds, true)?)
        } else {
            None
        };
        let every: Vec<&ChildResult> = results.iter().chain(&traced).collect();
        let t = tally(&every);
        if !t.digests_agree {
            eprintln!("{}: output digests differ between runs", w.name());
        }
        all_ok &= t.failed == 0 && every.iter().all(|r| r.correct);
        let failed_frac = t.failed as f64 / t.attempted.max(1) as f64;
        println!(
            "  failed_frac {failed_frac:.4} ({}/{}), output digest {}",
            t.failed,
            t.attempted,
            every.first().map_or("-", |r| r.digest.as_str())
        );
        let mut e2e = Vec::new();
        for m in catalog::END_TO_END {
            let samples: Vec<f64> = results
                .iter()
                .filter_map(|r| r.metrics.get(m.name).copied())
                .collect();
            print_row(m, &samples);
            e2e.push((m.name.to_owned(), metric_entry(m, &samples)));
        }
        let mut layers = Vec::new();
        if let Some(t) = &traced {
            println!("  traced:");
            for m in catalog::PER_LAYER {
                let samples: Vec<f64> = t.metrics.get(m.name).copied().into_iter().collect();
                print_row(m, &samples);
                layers.push((m.name.to_owned(), metric_entry(m, &samples)));
            }
        }
        per_workload.push((
            w.name().to_owned(),
            Value::Map(vec![
                ("attempted".into(), Value::U64(t.attempted)),
                ("failed".into(), Value::U64(t.failed)),
                ("failed_frac".into(), Value::F64(failed_frac)),
                ("digests_agree".into(), Value::Bool(t.digests_agree)),
                (
                    "digest".into(),
                    Value::Str(every.first().map_or("", |r| r.digest.as_str()).into()),
                ),
                ("end_to_end".into(), Value::Map(e2e)),
                ("per_layer".into(), Value::Map(layers)),
            ]),
        ));
    }
    let doc = Value::Map(vec![
        ("seed".into(), Value::U64(plan.seed)),
        ("runs".into(), Value::U64(plan.runs as u64)),
        ("seconds".into(), Value::U64(plan.seconds)),
        ("timed_jobs".into(), Value::U64(1)),
        ("pool_width".into(), Value::U64(crate::pool_width() as u64)),
        ("workloads".into(), Value::Map(per_workload)),
    ]);
    let dir = crate::run::out_dir();
    let path = dir.join("results.json");
    std::fs::create_dir_all(&dir)
        .and_then(|()| std::fs::write(&path, json::render_pretty(&doc) + "\n"))
        .map_err(|e| format!("write {}: {e}", path.display()))?;
    println!("wrote {}", path.display());
    Ok(if all_ok { 0 } else { 1 })
}

/// Per workload and end-to-end metric, the samples a results file holds.
fn samples_of(doc: &Value) -> BTreeMap<(String, String), Vec<f64>> {
    let mut out = BTreeMap::new();
    for (w, body) in json::entries(doc, "workloads") {
        for (m, entry) in json::entries(body, "end_to_end") {
            let samples = match entry.get("samples") {
                Some(Value::Seq(xs)) => xs
                    .iter()
                    .filter_map(|x| match x {
                        Value::F64(v) => Some(*v),
                        Value::U64(v) => Some(*v as f64),
                        Value::I64(v) => Some(*v as f64),
                        _ => None,
                    })
                    .collect(),
                _ => Vec::new(),
            };
            out.insert((w.clone(), m.clone()), samples);
        }
    }
    out
}

fn load(path: &Path) -> Result<Value, String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("read {}: {e}", path.display()))?;
    json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// One row of a comparison.
#[derive(Debug, Clone)]
pub struct Row {
    /// Workload name.
    pub workload: String,
    /// Metric name.
    pub metric: String,
    /// Parent (A) samples summarized.
    pub a: Summary,
    /// Change (B) samples summarized.
    pub b: Summary,
    /// The judgement.
    pub verdict: Verdict,
}

/// Compares two results documents, workload by workload and end-to-end
/// metric by metric, with each metric's bound from the catalog.
#[must_use]
pub fn compare_docs(a: &Value, b: &Value) -> Vec<Row> {
    let (sa, sb) = (samples_of(a), samples_of(b));
    let mut rows = Vec::new();
    for ((w, m), xa) in &sa {
        let (Some(xb), Some(def)) = (sb.get(&(w.clone(), m.clone())), catalog::find(m)) else {
            continue;
        };
        let bound = def.bound.unwrap_or(0.0);
        rows.push(Row {
            workload: w.clone(),
            metric: m.clone(),
            a: Summary::of(xa),
            b: Summary::of(xb),
            verdict: verdict(xa, xb, def.better, bound),
        });
    }
    rows
}

/// Workloads whose output digest differs between two results documents:
/// `(workload, A's digest, B's digest)`. The two sides ran programs that
/// compute different things, so their times do not compare like for like.
#[must_use]
pub fn changed_outputs(a: &Value, b: &Value) -> Vec<(String, String, String)> {
    let digests = |doc: &Value| -> BTreeMap<String, String> {
        json::entries(doc, "workloads")
            .iter()
            .filter_map(|(w, body)| json::text(body, "digest").map(|d| (w.clone(), d.to_owned())))
            .collect()
    };
    let db = digests(b);
    digests(a)
        .into_iter()
        .filter_map(|(w, da)| {
            let dbw = db.get(&w)?;
            (*dbw != da).then(|| (w, da, dbw.clone()))
        })
        .collect()
}

/// `bench --compare A B`: prints both sides' medians and quartiles and a
/// verdict per workload × end-to-end metric; exit code 1 if any is worse
/// or if a workload's output changed.
///
/// # Errors
/// An unreadable results file.
pub fn compare(a: &Path, b: &Path) -> Result<u8, String> {
    let (da, db) = (load(a)?, load(b)?);
    let changed = changed_outputs(&da, &db);
    for (w, x, y) in &changed {
        println!("{w}: OUTPUT CHANGED: digest {x} in A, {y} in B");
    }
    let rows = compare_docs(&da, &db);
    println!(
        "{:<16} {:<12} {:>34} {:>34} {:>9}  verdict",
        "workload", "metric", "A median [q1, q3]", "B median [q1, q3]", "delta"
    );
    let mut worse = false;
    for r in &rows {
        let better = catalog::find(&r.metric).map_or(Better::Lower, |m| m.better);
        let delta = 100.0 * (r.b.median - r.a.median) / r.a.median.abs();
        println!(
            "{:<16} {:<12} {:>12.4} [{:>9.4}, {:>9.4}] {:>12.4} [{:>9.4}, {:>9.4}] {:>+8.2}%  {} ({} is better)",
            r.workload,
            r.metric,
            r.a.median,
            r.a.q1,
            r.a.q3,
            r.b.median,
            r.b.q1,
            r.b.q3,
            delta,
            r.verdict.as_str(),
            better.as_str()
        );
        worse |= r.verdict == Verdict::Worse;
    }
    Ok(u8::from(worse || !changed.is_empty()))
}
