//! The six workloads: what one operation runs, what is prepared before
//! the timed operations, and the traced pass that attributes an
//! operation's time to layers.
//!
//! Every workload's timed operation calls the library entry points the
//! experiment binaries use (`fig3::collect_with`, `fig6::collect_with`,
//! `fleet::run_with`) and renders its result exactly as the matching
//! binary prints it; the rendered text is the output whose digest must
//! never change within a run or between the timed and traced paths.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use dacapo_sim::all_benchmarks;
use dvfs_trace::Freq;
use energyx::GovernorPolicy;
use harness::experiments::fig3::{self, Direction, Fig3Cell};
use harness::experiments::fig6::{self, Fig6Row};
use harness::experiments::fleet::{self, FleetConfig, FleetReport};
use harness::{ExecCtx, SimCache, SimPoint};
use simx::{ChaosConfig, FleetTopology, SamplingConfig, ThermalConfig};

use crate::pipeline;
use crate::spans::Recorder;

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Both Fig. 3 directions, simulated in memory.
    Fig3Exact,
    /// The Fig. 3 sweep on the sampled tier, two seeds.
    Fig3Sampled,
    /// The Fig. 3 sweep served from a warm persistent cache.
    CacheReplay,
    /// A flat-governed fleet under legacy chaos.
    FleetFlat,
    /// A hierarchical fleet with the thermal layer and every chaos class.
    FleetThermal,
    /// The DEP+BURST energy manager at 5% and 10% tolerance.
    EnergyManager,
}

/// Every workload, in reporting order.
pub const ALL: [Workload; 6] = [
    Workload::Fig3Exact,
    Workload::Fig3Sampled,
    Workload::CacheReplay,
    Workload::FleetFlat,
    Workload::FleetThermal,
    Workload::EnergyManager,
];

/// How much work one operation does.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Size {
    /// Simulation work scale (1.0 = the paper's full runs).
    pub scale: f64,
    /// Fleet machines (fleet workloads only).
    pub machines: usize,
    /// Fleet rounds (fleet workloads only).
    pub rounds: usize,
}

impl Workload {
    /// The name used on the command line and in `BENCHMARK.json`.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Workload::Fig3Exact => "fig3-exact",
            Workload::Fig3Sampled => "fig3-sampled",
            Workload::CacheReplay => "cache-replay",
            Workload::FleetFlat => "fleet-flat",
            Workload::FleetThermal => "fleet-thermal",
            Workload::EnergyManager => "energy-manager",
        }
    }

    /// Parses [`name`](Self::name).
    #[must_use]
    pub fn from_name(name: &str) -> Option<Self> {
        ALL.into_iter().find(|w| w.name() == name)
    }

    /// The benchmark's operation size: each operation takes about a second
    /// or less on one worker, so a run times many of them.
    #[must_use]
    pub fn size(self) -> Size {
        let (scale, machines, rounds) = match self {
            Workload::Fig3Exact | Workload::Fig3Sampled | Workload::EnergyManager => (0.1, 0, 0),
            Workload::CacheReplay => (0.05, 0, 0),
            Workload::FleetFlat => (0.02, 1024, 100),
            Workload::FleetThermal => (0.02, 1024, 800),
        };
        Size {
            scale,
            machines,
            rounds,
        }
    }

    /// Digest of the output one operation renders at [`size`](Self::size)
    /// and [`GOLDEN_SEED`]. Every run compares against it, so a change to
    /// the simulator, a predictor or the fleet loop that moves any reported
    /// number fails the benchmark's operations until this table is updated
    /// with the new outputs (a failing run prints the digest it got).
    #[must_use]
    pub fn golden_digest(self) -> &'static str {
        match self {
            Workload::Fig3Exact => "056f6a9a5d92f4f5",
            Workload::Fig3Sampled => "2bf0a79684fe6493",
            Workload::CacheReplay => "c362f0f2be21e1bb",
            Workload::FleetFlat => "2f17d1a5dd5abda3",
            Workload::FleetThermal => "c83014cb2eb42cdb",
            Workload::EnergyManager => "64866c6fccd4b78e",
        }
    }

    /// A size small enough for the test suite that still runs every
    /// stage of the workload.
    #[must_use]
    pub fn smoke_size(self) -> Size {
        let (machines, rounds) = match self {
            Workload::FleetFlat => (64, 4),
            Workload::FleetThermal => (128, 4),
            _ => (0, 0),
        };
        Size {
            scale: 0.01,
            machines,
            rounds,
        }
    }
}

/// The seed of the committed output digests.
pub const GOLDEN_SEED: u64 = 1;

/// One run's fixed inputs.
#[derive(Debug, Clone)]
pub struct Spec {
    /// The workload.
    pub workload: Workload,
    /// Seeds every generated input.
    pub seed: u64,
    /// Operation size.
    pub size: Size,
    /// Pool width.
    pub jobs: usize,
    /// Where scratch directories (the replayed cache) are created.
    pub scratch: PathBuf,
}

impl Spec {
    /// Whether the operation has the benchmark's size, the one the
    /// committed digests are for.
    #[must_use]
    pub fn benchmark_sized(&self) -> bool {
        self.size == self.workload.size()
    }

    /// The committed digest this spec's output must have, if one is
    /// committed for it.
    #[must_use]
    pub fn golden(&self) -> Option<&'static str> {
        (self.benchmark_sized() && self.seed == GOLDEN_SEED).then(|| self.workload.golden_digest())
    }

    fn seeds(&self) -> Vec<u64> {
        match self.workload {
            Workload::Fig3Sampled => vec![self.seed, self.seed.wrapping_add(1)],
            _ => vec![self.seed],
        }
    }

    fn sampling(&self) -> Option<SamplingConfig> {
        (self.workload == Workload::Fig3Sampled).then(SamplingConfig::default)
    }

    fn point_ctx(&self) -> ExecCtx {
        ExecCtx::new(self.jobs).with_sampling(self.sampling())
    }

    /// The fleet configuration of a fleet workload at `machines`.
    #[must_use]
    pub fn fleet_config(&self, machines: usize) -> FleetConfig {
        let chaos_seed = self.seed.wrapping_add(6);
        let mut config =
            FleetConfig::new(machines, 4, self.size.rounds, self.size.scale, self.seed);
        config.policy = GovernorPolicy::DepBurst;
        config.chaos = ChaosConfig::uniform(0.5, chaos_seed);
        if self.workload == Workload::FleetThermal {
            // 64-machine regions: allocation is per region, so the round
            // loop's cost is the thermal, throttle and hierarchy stages.
            config.regions = (machines / 64).max(1);
            config.hierarchy = true;
            config.thermal = ThermalConfig::datacenter(chaos_seed);
            config.chaos.brownout = 0.3;
            config.chaos.aggregator_crash = 0.2;
            config.chaos.sensor_stuck = 0.2;
        }
        config
    }
}

/// A directory removed when dropped.
#[derive(Debug)]
pub struct ScratchDir(PathBuf);

impl ScratchDir {
    fn create(root: &Path) -> Result<Self, String> {
        static NEXT: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
        let n = NEXT.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let dir = root.join(format!("replay-{}-{n}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        Ok(ScratchDir(dir))
    }

    /// Total size of the files under the directory.
    fn bytes(&self) -> u64 {
        fn walk(dir: &Path) -> u64 {
            std::fs::read_dir(dir).map_or(0, |entries| {
                entries
                    .flatten()
                    .map(|e| match e.file_type() {
                        Ok(t) if t.is_dir() => walk(&e.path()),
                        _ => e.metadata().map_or(0, |m| m.len()),
                    })
                    .sum()
            })
        }
        walk(&self.0)
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// What the operations run against, built by a set-up.
#[derive(Debug)]
pub enum State {
    /// The point sweeps build a fresh context per operation.
    Points,
    /// A warm persistent cache and the output its cold pass produced.
    Replay {
        /// The cache directory.
        dir: ScratchDir,
        /// The cold pass's rendered output.
        cold: String,
    },
    /// The fleet's context; the first operation characterizes into its
    /// memo.
    Fleet(ExecCtx),
    /// A context whose memo holds the energy manager's baselines.
    Energy(ExecCtx),
}

impl State {
    /// The output preparation itself rendered (the replay's cold pass),
    /// which every operation must reproduce.
    #[must_use]
    pub fn prepared_output(&self) -> Option<&str> {
        match self {
            State::Replay { cold, .. } => Some(cold),
            _ => None,
        }
    }
}

fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

/// Renders cells exactly as the `fig3` binary prints them.
fn fig3_text(low_to_high: &[Fig3Cell], high_to_low: &[Fig3Cell]) -> String {
    let mut out = String::new();
    for t in [2.0, 3.0, 4.0] {
        out.push_str(&fig3::render(low_to_high, t));
        out.push('\n');
    }
    for t in [3.0, 2.0, 1.0] {
        out.push_str(&fig3::render(high_to_low, t));
        out.push('\n');
    }
    let all: Vec<Fig3Cell> = low_to_high.iter().chain(high_to_low).cloned().collect();
    out.push_str(&serde_json::to_string_pretty(&all).expect("the shim serializer is infallible"));
    out.push('\n');
    out
}

/// Renders rows exactly as the `fig6` binary prints them.
fn fig6_text(per_threshold: &[Vec<Fig6Row>]) -> String {
    let mut out = String::new();
    for rows in per_threshold {
        out.push_str(&fig6::render(rows));
        out.push('\n');
    }
    let all: Vec<&Fig6Row> = per_threshold.iter().flatten().collect();
    out.push_str(&serde_json::to_string_pretty(&all).expect("the shim serializer is infallible"));
    out.push('\n');
    out
}

/// Renders a fleet report as the `fleet` binary prints it, followed by
/// the JSON it writes.
fn fleet_text(report: &FleetReport) -> String {
    let mut out = fleet::render(report);
    out.push_str(&serde_json::to_string_pretty(report).expect("the shim serializer is infallible"));
    out
}

fn check_fig3(cells: &[Fig3Cell]) -> Result<(), String> {
    for c in cells {
        if !(c.actual_s > 0.0 && c.actual_s.is_finite()) {
            return Err(format!("fig3 {}: non-positive execution time", c.benchmark));
        }
        // M+CRIT overpredicts the high-to-low direction by up to ~2x; an
        // error beyond 10x means a broken predictor, not a weak one.
        if c.errors.len() != 6
            || c.errors
                .iter()
                .any(|(_, e)| !e.is_finite() || e.abs() >= 10.0)
        {
            return Err(format!(
                "fig3 {}: implausible model errors {:?}",
                c.benchmark, c.errors
            ));
        }
    }
    Ok(())
}

fn check_fig6(rows: &[Fig6Row]) -> Result<(), String> {
    for r in rows {
        let sane = r.slowdown.is_finite()
            && r.slowdown.abs() < 0.5
            && r.savings.is_finite()
            && r.savings.abs() < 1.0
            && (1.0..=4.0 + 1e-9).contains(&r.mean_ghz);
        if !sane {
            return Err(format!("fig6 {}: implausible row {r:?}", r.benchmark));
        }
    }
    Ok(())
}

fn check_fleet(report: &FleetReport, machines: usize) -> Result<(), String> {
    let s = &report.summary;
    if report.machines.len() != machines
        || !(0.0..=1.0).contains(&s.slo_attainment)
        || !(s.energy_j > 0.0 && s.energy_j.is_finite())
    {
        return Err(format!(
            "fleet: implausible summary ({} rows, SLO {}, energy {} J)",
            report.machines.len(),
            s.slo_attainment,
            s.energy_j
        ));
    }
    Ok(())
}

fn fig3_plain(spec: &Spec, ctx: &ExecCtx) -> Result<String, String> {
    let seeds = spec.seeds();
    let a = fig3::collect_with(ctx, Direction::LowToHigh, spec.size.scale, &seeds).map_err(err)?;
    let b = fig3::collect_with(ctx, Direction::HighToLow, spec.size.scale, &seeds).map_err(err)?;
    check_fig3(&a)?;
    check_fig3(&b)?;
    Ok(fig3_text(&a, &b))
}

fn replay_ctx(spec: &Spec, dir: &ScratchDir) -> ExecCtx {
    ExecCtx::new(spec.jobs).with_cache(SimCache::persistent(&dir.0))
}

const THRESHOLDS: [f64; 2] = [0.05, 0.10];

/// The characterization plan `fleet::run_with` executes, shard by shard;
/// the traced pass runs it itself to attribute its time separately.
fn characterization(config: &FleetConfig) -> Vec<Vec<SimPoint>> {
    let topo = FleetTopology::new(config.machines, config.shards, config.seed);
    (0..topo.shards)
        .map(|shard| {
            let mut benches: Vec<&'static dacapo_sim::Benchmark> = Vec::new();
            for m in topo.machines_in(shard) {
                let b = config.benches[m % config.benches.len()];
                if !benches.iter().any(|x| x.name == b.name) {
                    benches.push(b);
                }
            }
            benches
                .iter()
                .flat_map(|&b| {
                    [1.0, 4.0]
                        .map(|ghz| SimPoint::new(b, Freq::from_ghz(ghz), config.scale, config.seed))
                })
                .collect()
        })
        .collect()
}

fn baseline_plan(spec: &Spec) -> Vec<SimPoint> {
    all_benchmarks()
        .iter()
        .map(|b| SimPoint::new(b, Freq::from_ghz(4.0), spec.size.scale, spec.seed))
        .collect()
}

fn plan_of(points: Vec<SimPoint>) -> harness::SweepPlan {
    harness::SweepPlan { points }
}

/// Builds the state the timed operations need.
///
/// # Errors
/// A failed library call or an implausible output.
pub fn prepare(spec: &Spec) -> Result<State, String> {
    match spec.workload {
        Workload::Fig3Exact | Workload::Fig3Sampled => Ok(State::Points),
        Workload::CacheReplay => {
            let dir = ScratchDir::create(&spec.scratch)?;
            let cold = fig3_plain(spec, &replay_ctx(spec, &dir))?;
            Ok(State::Replay { dir, cold })
        }
        Workload::FleetFlat | Workload::FleetThermal => Ok(State::Fleet(ExecCtx::new(spec.jobs))),
        Workload::EnergyManager => {
            let ctx = ExecCtx::new(spec.jobs);
            ctx.execute(&plan_of(baseline_plan(spec))).map_err(err)?;
            Ok(State::Energy(ctx))
        }
    }
}

/// One timed operation; returns the rendered output.
///
/// # Errors
/// A failed library call or an implausible output.
pub fn operate(spec: &Spec, state: &State) -> Result<String, String> {
    match state {
        State::Points => fig3_plain(spec, &spec.point_ctx()),
        State::Replay { dir, .. } => fig3_plain(spec, &replay_ctx(spec, dir)),
        State::Fleet(ctx) => {
            let outcome =
                fleet::run_with(ctx, &spec.fleet_config(spec.size.machines)).map_err(err)?;
            check_fleet(&outcome.report, spec.size.machines)?;
            Ok(fleet_text(&outcome.report))
        }
        State::Energy(ctx) => {
            let mut per_threshold = Vec::new();
            for t in THRESHOLDS {
                let rows = fig6::collect_with(ctx, t, spec.size.scale, spec.seed).map_err(err)?;
                check_fig6(&rows)?;
                per_threshold.push(rows);
            }
            Ok(fig6_text(&per_threshold))
        }
    }
}

/// One traced pass: the workload's preparation and one operation, pushed
/// through the traced pipeline. Spans and counters land in `rec`.
#[derive(Debug)]
pub struct Pass {
    /// The operation's rendered output.
    pub text: String,
    /// The outermost span (preparation and operation).
    pub root: u64,
    /// Wall time of the operation alone, s.
    pub op_s: f64,
}

fn record_cache(rec: &Recorder, ctx: &ExecCtx) {
    let s = ctx.cache.stats();
    rec.count("harness.cache.memory_hits", s.memory_hits as f64);
    rec.count("harness.cache.disk_hits", s.disk_hits as f64);
    rec.count("harness.cache.misses", s.misses as f64);
}

fn fig3_traced(rec: &Recorder, spec: &Spec, ctx: &ExecCtx) -> Result<String, String> {
    let seeds = spec.seeds();
    let scale = spec.size.scale;
    let a = pipeline::fig3_cells(rec, ctx, Direction::LowToHigh, scale, &seeds).map_err(err)?;
    let b = pipeline::fig3_cells(rec, ctx, Direction::HighToLow, scale, &seeds).map_err(err)?;
    check_fig3(&a)?;
    check_fig3(&b)?;
    let dep_burst: Vec<f64> = a
        .iter()
        .chain(&b)
        .flat_map(|c| {
            c.errors
                .iter()
                .filter(|(m, _)| m == "DEP+BURST")
                .map(|(_, e)| e.abs())
        })
        .collect();
    rec.set(
        "core.dep_burst.abs_err_pct",
        100.0 * dep_burst.iter().sum::<f64>() / dep_burst.len().max(1) as f64,
    );
    record_cache(rec, ctx);
    Ok(rec.span("harness.report", || fig3_text(&a, &b)))
}

/// Runs one traced pass of `spec`'s workload.
///
/// # Errors
/// A failed call, an implausible output, or (cache-replay) a replay that
/// differs from its cold pass.
pub fn traced_pass(rec: &Arc<Recorder>, spec: &Spec) -> Result<Pass, String> {
    let root = rec.open();
    let root_id = root.id();
    let out = traced_body(rec, spec);
    rec.close(root, "bench.pass");
    let (text, op_s) = out?;
    Ok(Pass {
        text,
        root: root_id,
        op_s,
    })
}

fn timed_op<T>(rec: &Recorder, f: impl FnOnce() -> T) -> (T, f64) {
    let t0 = Instant::now();
    let out = rec.span("bench.op", f);
    (out, t0.elapsed().as_secs_f64())
}

fn traced_body(rec: &Arc<Recorder>, spec: &Spec) -> Result<(String, f64), String> {
    let scale = spec.size.scale;
    match spec.workload {
        Workload::Fig3Exact | Workload::Fig3Sampled => {
            let (text, op_s) = timed_op(rec, || fig3_traced(rec, spec, &spec.point_ctx()));
            Ok((text?, op_s))
        }
        Workload::CacheReplay => {
            let dir = ScratchDir::create(&spec.scratch)?;
            let cold = rec.span("bench.prepare", || {
                fig3_traced(rec, spec, &replay_ctx(spec, &dir))
            })?;
            let bytes = dir.bytes() as f64;
            rec.count("harness.cache.store_mb", bytes / 1e6);
            rec.count("harness.cache.load_bytes", bytes);
            let (text, op_s) = timed_op(rec, || fig3_traced(rec, spec, &replay_ctx(spec, &dir)));
            let text = text?;
            if text != cold {
                return Err("cache-replay: replayed output differs from the cold pass".into());
            }
            Ok((text, op_s))
        }
        Workload::FleetFlat | Workload::FleetThermal => {
            let ctx = ExecCtx::new(spec.jobs);
            let config = spec.fleet_config(spec.size.machines);
            rec.span("bench.prepare", || {
                rec.span("fleet.characterize", || {
                    for points in characterization(&config) {
                        rec.count("fleet.characterize.points", points.len() as f64);
                        pipeline::execute(rec, &ctx, &points).map_err(err)?;
                    }
                    Ok::<_, String>(())
                })
            })?;
            let (text, op_s) = timed_op(rec, || {
                let outcome = rec
                    .span("fleet.rounds", || fleet::run_with(&ctx, &config))
                    .map_err(err)?;
                check_fleet(&outcome.report, config.machines)?;
                record_fleet(rec, &outcome.report);
                Ok::<_, String>(rec.span("harness.report", || fleet_text(&outcome.report)))
            });
            record_cache(rec, &ctx);
            Ok((text?, op_s))
        }
        Workload::EnergyManager => {
            let ctx = ExecCtx::new(spec.jobs);
            rec.span("bench.prepare", || {
                pipeline::execute(rec, &ctx, &baseline_plan(spec))
            })
            .map_err(err)?;
            let (text, op_s) = timed_op(rec, || {
                let rows = THRESHOLDS
                    .iter()
                    .map(|&t| {
                        let rows =
                            pipeline::fig6_rows(rec, &ctx, t, scale, spec.seed).map_err(err)?;
                        check_fig6(&rows)?;
                        Ok(rows)
                    })
                    .collect::<Result<Vec<_>, String>>()?;
                let all: Vec<&Fig6Row> = rows.iter().flatten().collect();
                let mean_pct = |f: fn(&Fig6Row) -> f64| {
                    100.0 * all.iter().map(|r| f(r)).sum::<f64>() / all.len().max(1) as f64
                };
                rec.set("energy.manager.savings_pct", mean_pct(|r| r.savings));
                rec.set("energy.manager.slowdown_pct", mean_pct(|r| r.slowdown));
                Ok::<_, String>(rec.span("harness.report", || fig6_text(&rows)))
            });
            record_cache(rec, &ctx);
            Ok((text?, op_s))
        }
    }
}

fn record_fleet(rec: &Recorder, report: &FleetReport) {
    let s = &report.summary;
    rec.count(
        "fleet.rounds.machine_rounds",
        (s.machines * s.rounds) as f64,
    );
    rec.count(
        "fleet.rounds.degraded_machine_rounds",
        s.degraded_machine_rounds as f64,
    );
    rec.count(
        "fleet.rounds.transitions",
        report
            .machines
            .iter()
            .map(|m| m.transitions.len())
            .sum::<usize>() as f64,
    );
    rec.count("fleet.rounds.overshoot_rounds", s.overshoot_rounds as f64);
    for (name, v) in [
        ("fleet.thermal.emergency_throttles", s.emergency_throttles),
        ("fleet.thermal.shutdowns", s.thermal_shutdowns),
        ("fleet.thermal.black_starts", s.black_starts),
        ("fleet.thermal.breaker_trips", s.breaker_trips),
    ] {
        rec.count(name, v.unwrap_or(0) as f64);
    }
    rec.set("fleet.slo_attainment_pct", 100.0 * s.slo_attainment);
    rec.set("fleet.energy_kj", s.energy_j / 1e3);
}

/// The committed reference outputs the default `fig3` and `fig6` runs
/// (scale 1, seed 1) reproduce: `(file under results/, rendered output)`.
///
/// # Errors
/// A failed library call.
pub fn reference_outputs(jobs: usize) -> Result<Vec<(&'static str, String)>, String> {
    let ctx = ExecCtx::new(jobs);
    let a = fig3::collect_with(&ctx, Direction::LowToHigh, 1.0, &[1]).map_err(err)?;
    let b = fig3::collect_with(&ctx, Direction::HighToLow, 1.0, &[1]).map_err(err)?;
    let per_threshold = THRESHOLDS
        .iter()
        .map(|&t| fig6::collect_with(&ctx, t, 1.0, 1).map_err(err))
        .collect::<Result<Vec<_>, String>>()?;
    Ok(vec![
        ("fig3.txt", fig3_text(&a, &b)),
        ("fig6.txt", fig6_text(&per_threshold)),
    ])
}

/// Machine-rounds per second of `fleet::run_with` on the warm `ctx` at
/// each fleet size (the rest of the configuration as `spec`'s).
///
/// # Errors
/// A failed fleet run.
pub fn fleet_curve(spec: &Spec, ctx: &ExecCtx, sizes: &[usize]) -> Result<Vec<f64>, String> {
    sizes
        .iter()
        .map(|&machines| {
            let config = spec.fleet_config(machines);
            let t0 = Instant::now();
            fleet::run_with(ctx, &config).map_err(err)?;
            Ok((machines * config.rounds) as f64 / t0.elapsed().as_secs_f64())
        })
        .collect()
}
