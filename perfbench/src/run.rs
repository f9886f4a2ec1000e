//! One benchmark run of one workload: the unit repeated across seeds.
//!
//! An untraced run alternates set-ups (preparation plus the first, cold
//! operation; their median is `setup_s`) with warm operations until
//! `seconds` have passed, and reports the median operation. Every set-up
//! and operation is rescaled to the reference host speed by the host
//! probe run between them ([`host::Clock`]). Timed operations use one
//! pool worker: on a two-vCPU host shared with other tenants, two-worker
//! operation times spread several times wider than one-worker times, and
//! the spread must stay well inside the bounds.
//!
//! A traced run sets up once, times a few plain operations with one worker
//! and with [`pool_width`] workers (their ratio is the pool's efficiency),
//! then repeats traced passes at the pool width until `seconds` have
//! passed and reports each layer metric's median over the passes.
//!
//! Every operation's rendered output must be byte-identical to the first
//! one's, and at [`GOLDEN_SEED`] to the committed one
//! ([`Workload::golden_digest`]); an operation that fails or differs
//! counts as failed. A run at another seed ends with one set-up at
//! [`GOLDEN_SEED`], outside the measurement, so every run also checks the
//! program against the committed output.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

use harness::vfs::fnv1a64;
use serde::Value;

use crate::catalog::{self, Metric};
use crate::host::{self, Clock};
use crate::pool_width;
use crate::spans::{chrome_trace, Profile, Recorder};
use crate::stats::median;
use crate::workloads::{self, Spec, State, Workload, GOLDEN_SEED};

/// Seconds a run measures unless told otherwise: `run_seconds` in
/// `BENCHMARK.json`.
pub const DEFAULT_SECONDS: u64 = 15;

/// Least set-ups per untraced run; `setup_s` is their median.
const MIN_SETUPS: usize = 3;

/// Warm operations timed after each set-up of an untraced run.
const OPS_PER_SETUP: usize = 4;

/// Plain operations a traced run times before its traced passes.
const PLAIN_IN_TRACED: usize = 3;

/// Fleet sizes of the traced fleet-flat run's scaling curve, and the
/// metrics they report under.
const CURVE_MACHINES: [usize; 3] = [64, 256, 1024];
const CURVE_METRICS: [&str; 3] = [
    "fleet.rounds.machine_rounds_per_s.m64",
    "fleet.rounds.machine_rounds_per_s.m256",
    "fleet.rounds.machine_rounds_per_s.m1024",
];

/// What one run reports.
#[derive(Debug, Clone)]
pub struct Report {
    /// No operation failed.
    pub correct: bool,
    /// Operations attempted (set-ups, timed operations, traced passes).
    pub attempted: usize,
    /// Operations that errored or produced a different output.
    pub failed: usize,
    /// Metric values by name, in catalog order.
    pub metrics: Vec<(&'static Metric, f64)>,
    /// Digest of the run's first output (empty when no operation
    /// produced one).
    pub digest: String,
}

impl Report {
    /// The result line: exactly `correct`, `attempted`, `failed`
    /// and `metrics`.
    #[must_use]
    pub fn json_line(&self) -> String {
        let metrics = self
            .metrics
            .iter()
            .map(|(m, v)| {
                (
                    m.name.to_owned(),
                    Value::Map(vec![
                        ("value".into(), Value::F64(*v)),
                        ("unit".into(), Value::Str(m.unit.into())),
                    ]),
                )
            })
            .collect();
        crate::json::render(&Value::Map(vec![
            ("correct".into(), Value::Bool(self.correct)),
            ("attempted".into(), Value::U64(self.attempted as u64)),
            ("failed".into(), Value::U64(self.failed as u64)),
            ("metrics".into(), Value::Map(metrics)),
        ]))
    }

    /// A metric's value.
    #[must_use]
    pub fn value(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(m, _)| m.name == name)
            .map(|(_, v)| *v)
    }
}

/// Where the benchmark keeps its outputs: `<cargo target dir>/bench`.
#[must_use]
pub fn out_dir() -> PathBuf {
    std::env::var_os("CARGO_TARGET_DIR")
        .map_or_else(|| PathBuf::from("target"), PathBuf::from)
        .join("bench")
}

/// The digest outputs are compared by.
#[must_use]
pub fn digest(text: &str) -> String {
    format!("{:016x}", fnv1a64(text.as_bytes()))
}

/// Counts operations and checks each output against the committed digest
/// when there is one, else against the first output.
#[derive(Debug, Default)]
struct Outcomes {
    attempted: usize,
    failed: usize,
    expected: Option<String>,
    digest: Option<String>,
}

impl Outcomes {
    fn expecting(expected: Option<&str>) -> Self {
        Outcomes {
            expected: expected.map(str::to_owned),
            ..Outcomes::default()
        }
    }

    fn record(&mut self, what: &str, out: Result<String, String>) -> bool {
        self.attempted += 1;
        let problem = match out {
            Err(e) => Some(e),
            Ok(text) => {
                let got = digest(&text);
                let first = self.digest.get_or_insert_with(|| got.clone());
                let want = self.expected.as_deref().unwrap_or(first);
                (want != got).then(|| format!("output digest {got} differs from {want}"))
            }
        };
        if let Some(p) = &problem {
            self.failed += 1;
            eprintln!("{what}: FAILED: {p}");
        }
        problem.is_none()
    }
}

/// Peak resident set size of this process, MB.
#[must_use]
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Runs `spec` for about `seconds`, traced or not.
#[must_use]
pub fn run(spec: &Spec, seconds: f64, traced: bool) -> Report {
    let mut outcomes = Outcomes::expecting(spec.golden());
    let metrics = if traced {
        traced_run(spec, seconds, &mut outcomes)
    } else {
        timed_run(spec, seconds, &mut outcomes)
    };
    if spec.benchmark_sized() && spec.seed != GOLDEN_SEED {
        // Outside the measurement: the committed output, reproduced.
        let reference = Spec {
            seed: GOLDEN_SEED,
            ..spec.clone()
        };
        let mut check = Outcomes::expecting(reference.golden());
        setup(&reference, &mut check);
        outcomes.attempted += check.attempted;
        outcomes.failed += check.failed;
    }
    let metrics = metrics
        .into_iter()
        .map(|(m, v)| (m, if v.is_finite() { v } else { 0.0 }))
        .collect();
    Report {
        correct: outcomes.failed == 0 && outcomes.attempted > 0,
        attempted: outcomes.attempted,
        failed: outcomes.failed,
        metrics,
        digest: outcomes.digest.unwrap_or_default(),
    }
}

/// Sets up once: preparation plus the first operation, timed together.
fn setup(spec: &Spec, outcomes: &mut Outcomes) -> (Option<State>, f64) {
    let t0 = Instant::now();
    let (state, out) = match workloads::prepare(spec) {
        Ok(state) => {
            let out = workloads::operate(spec, &state);
            (Some(state), out)
        }
        Err(e) => (None, Err(e)),
    };
    let secs = t0.elapsed().as_secs_f64();
    let mut ok = true;
    if let Some(cold) = state.as_ref().and_then(State::prepared_output) {
        ok &= outcomes.record("cold pass", Ok(cold.to_owned()));
    }
    ok &= outcomes.record("setup", out);
    (state.filter(|_| ok), secs)
}

/// Times `n` operations against `state`, appending the successful ones'
/// wall times, s, as `measure` maps them. `measure` sees every
/// operation's time, failed ones too.
fn time_ops(
    spec: &Spec,
    state: &State,
    n: usize,
    outcomes: &mut Outcomes,
    mut measure: impl FnMut(f64) -> f64,
    secs: &mut Vec<f64>,
) {
    for _ in 0..n {
        let t0 = Instant::now();
        let out = workloads::operate(spec, state);
        let dt = measure(t0.elapsed().as_secs_f64());
        if outcomes.record("operation", out) {
            secs.push(dt);
        }
    }
}

/// Cycles of one set-up and up to [`OPS_PER_SETUP`] operations until
/// `seconds` have passed (and at least [`MIN_SETUPS`] set-ups ran).
/// Spreading the set-ups over the whole run keeps one slow spell of the
/// host from deciding their median. Medians, not minima: the host's quiet
/// moments come at random, and whether a run caught one decided its
/// fastest operation.
fn timed_run(spec: &Spec, seconds: f64, outcomes: &mut Outcomes) -> Vec<(&'static Metric, f64)> {
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let mut clock = Clock::start();
    let (mut setup_s, mut op_s, mut wall_s) = (Vec::new(), Vec::new(), Vec::new());
    let mut rss_mb = 0.0;
    let done = |setups: usize| setups >= MIN_SETUPS && Instant::now() >= deadline;
    while !done(setup_s.len()) {
        let (state, secs) = setup(spec, outcomes);
        setup_s.push(clock.rescale(secs));
        if setup_s.len() == 1 {
            // The memory one invocation needs: later operations only add
            // allocator fragmentation, which grows with how many fit in
            // the run and so with host speed.
            rss_mb = peak_rss_mb();
        }
        let Some(state) = &state else { continue };
        for _ in 0..OPS_PER_SETUP {
            if done(setup_s.len()) {
                break;
            }
            let measure = |s: f64| {
                wall_s.push(s);
                clock.rescale(s)
            };
            time_ops(spec, state, 1, outcomes, measure, &mut op_s);
        }
    }
    eprintln!(
        "{} operations: median wall {:.1} ms, rescaled {:.1} ms; host probe median {:.3} ms \
         (reference {} ms)",
        op_s.len(),
        median(&wall_s) * 1e3,
        median(&op_s) * 1e3,
        median(clock.probes_ms()),
        host::REFERENCE_MS
    );
    let values = BTreeMap::from([
        ("op_ms", median(&op_s) * 1e3),
        ("setup_s", median(&setup_s)),
        ("peak_rss_mb", rss_mb),
    ]);
    pick(catalog::END_TO_END, &values)
}

fn pick(list: &'static [Metric], values: &BTreeMap<&str, f64>) -> Vec<(&'static Metric, f64)> {
    list.iter()
        .map(|m| (m, values.get(m.name).copied().unwrap_or(0.0)))
        .collect()
}

/// Sets `spec` up and times [`PLAIN_IN_TRACED`] plain operations; returns
/// the state and the operations' median wall time, s.
fn plain_ops(spec: &Spec, outcomes: &mut Outcomes) -> (Option<State>, f64) {
    let (state, _) = setup(spec, outcomes);
    let mut secs = Vec::new();
    if let Some(state) = &state {
        time_ops(spec, state, PLAIN_IN_TRACED, outcomes, |s| s, &mut secs);
    }
    (state, median(&secs))
}

fn traced_run(spec: &Spec, seconds: f64, outcomes: &mut Outcomes) -> Vec<(&'static Metric, f64)> {
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let wide = Spec {
        jobs: pool_width(),
        ..spec.clone()
    };
    let (state, one_worker) = plain_ops(spec, outcomes);
    let (_, wide_op) = plain_ops(&wide, outcomes);
    let mut per_pass: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    let mut wrote_trace = false;
    loop {
        let rec = Arc::new(Recorder::new());
        let pass = workloads::traced_pass(&rec, &wide);
        let out = pass.as_ref().map(|p| p.text.clone()).map_err(String::clone);
        if let (true, Ok(pass)) = (outcomes.record("traced pass", out), pass) {
            let spans = rec.spans();
            if !wrote_trace {
                write_trace(spec.workload, &chrome_trace(&spans));
                wrote_trace = true;
            }
            let profile = Profile::of(&spans, pass.root);
            for (name, v) in layer_values(&profile, &rec, pass.op_s, wide_op) {
                per_pass.entry(name).or_default().push(v);
            }
        }
        if Instant::now() >= deadline {
            break;
        }
    }
    let mut values: BTreeMap<&str, f64> = per_pass.iter().map(|(k, v)| (*k, median(v))).collect();
    values.insert(
        "harness.pool.efficiency",
        one_worker / (wide_op * wide.jobs as f64),
    );
    if let (Workload::FleetFlat, Some(State::Fleet(ctx))) = (spec.workload, &state) {
        match workloads::fleet_curve(spec, ctx, &CURVE_MACHINES) {
            Ok(rates) => values.extend(CURVE_METRICS.into_iter().zip(rates)),
            Err(e) => {
                outcomes.record("fleet scaling curve", Err(e));
            }
        }
    }
    pick(catalog::PER_LAYER, &values)
}

fn write_trace(workload: Workload, json: &str) {
    let dir = out_dir();
    let path = dir.join(format!("trace-{}.json", workload.name()));
    let written = std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, json));
    match written {
        Ok(()) => eprintln!("wrote {}", path.display()),
        Err(e) => eprintln!("warning: could not write {}: {e}", path.display()),
    }
}

/// A span family: spans named `family` or `family.<anything>`.
fn in_family<'a>(family: &'a str) -> impl Fn(&str) -> bool + 'a {
    move |n: &str| {
        n.strip_prefix(family)
            .is_some_and(|rest| rest.is_empty() || rest.starts_with('.'))
    }
}

/// The layer metrics of one traced pass. `<family>.self_pct` is the
/// family's share of attributed self time; counters the pipeline records
/// under a metric's own name are that metric; the rest derive from span
/// totals below.
fn layer_values(
    p: &Profile,
    rec: &Recorder,
    op_s: f64,
    plain_op_s: f64,
) -> BTreeMap<&'static str, f64> {
    let mut out: BTreeMap<&'static str, f64> = catalog::PER_LAYER
        .iter()
        .map(|m| {
            let v = match m.name.strip_suffix(".self_pct") {
                Some(family) => p.self_pct(in_family(family)),
                None => rec.counter(m.name),
            };
            (m.name, v)
        })
        .collect();
    let incl = |name: &str| p.by_name.get(name).map_or(0.0, |t| t.inclusive_s);
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    let run_s = incl("simx.run");
    let events = rec.counter("simx.run.events");
    let predict = p.sum(in_family("core.predict"));
    let hits = rec.counter("harness.cache.memory_hits") + rec.counter("harness.cache.disk_hits");
    out.extend([
        ("bench.trace_coverage", p.coverage),
        (
            "bench.traced_vs_timed_pct",
            100.0 * (ratio(op_s, plain_op_s) - 1.0),
        ),
        ("simx.run.s", run_s),
        (
            "simx.run.minstr",
            rec.counter("simx.run.instructions") / 1e6,
        ),
        ("simx.run.ns_per_event", ratio(run_s * 1e9, events)),
        ("simx.harvest.s", incl("simx.harvest")),
        ("workloads.install.s", incl("workloads.install")),
        ("core.predict.calls", predict.count as f64),
        (
            "core.predict.calls_per_s",
            ratio(predict.count as f64, predict.inclusive_s),
        ),
        ("harness.key.s", incl("harness.key")),
        (
            "harness.cache.self_s",
            p.sum(in_family("harness.cache")).self_s,
        ),
        (
            "harness.cache.hit_ratio",
            ratio(hits, hits + rec.counter("harness.cache.misses")),
        ),
        (
            "harness.cache.load_mb_per_s",
            ratio(
                rec.counter("harness.cache.load_bytes") / 1e6,
                p.sum(|n| n == "harness.cache.load").self_s,
            ),
        ),
        (
            "fleet.characterize.wall_pct",
            100.0 * ratio(incl("fleet.characterize"), incl("bench.pass")),
        ),
        (
            "fleet.rounds.machine_rounds_per_s",
            ratio(
                rec.counter("fleet.rounds.machine_rounds"),
                incl("fleet.rounds"),
            ),
        ),
    ]);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn an_output_mismatch_counts_as_a_failed_operation() {
        let mut o = Outcomes::default();
        assert!(o.record("first", Ok("cells".into())));
        assert!(o.record("same", Ok("cells".into())));
        assert!(!o.record("injected mismatch", Ok("cells, perturbed".into())));
        assert!(!o.record("error", Err("boom".into())));
        assert_eq!((o.attempted, o.failed), (4, 2));
        // The digest stays the first output's: a later mismatch never
        // becomes the reference.
        assert_eq!(o.digest, Some(digest("cells")));
    }

    #[test]
    fn a_committed_digest_is_the_reference_from_the_first_output() {
        // An output that changes the same way on every operation still
        // fails when it differs from the committed one.
        let mut o = Outcomes::expecting(Some(&digest("cells")));
        assert!(!o.record("changed", Ok("cells, perturbed".into())));
        assert!(!o.record("changed again", Ok("cells, perturbed".into())));
        assert!(o.record("committed", Ok("cells".into())));
        assert_eq!((o.attempted, o.failed), (3, 2));
        // The report still names what the run produced.
        assert_eq!(o.digest, Some(digest("cells, perturbed")));
    }

    #[test]
    fn families_match_whole_name_segments() {
        let f = in_family("core.predict.dep");
        assert!(f("core.predict.dep"));
        assert!(!f("core.predict.dep_burst"));
        assert!(in_family("harness.cache")("harness.cache.load"));
    }
}
