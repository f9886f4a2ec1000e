//! Traced twins of the library paths the workloads time: the same public
//! functions called in the same order, with a span around each call.
//!
//! * [`execute`] is `ExecCtx::execute` for a plan: key digests, then per
//!   point (on the pool) `SimCache::get_or_compute`, inside which the
//!   benchmark is installed, `Machine::run` simulates, the trace is
//!   harvested and summarized — or, on the sampled tier, the probe and
//!   measure prefixes run and `simx::sampling::extrapolate` combines them.
//! * [`fig3_cells`] is `fig3::collect_with` on top of it, with a span per
//!   `DvfsPredictor::predict`.
//! * [`fig6_rows`] is `fig6::collect_with`, with the energy manager's
//!   predictor wrapped so each DEP+BURST call is a span.
//!
//! The timed runs call the library functions themselves; each traced run
//! checks that these twins produce byte-identical output, so the
//! attribution describes the program that was timed.

use std::collections::HashMap;
use std::sync::Arc;

use dacapo_sim::{all_benchmarks, BenchClass, Benchmark};
use depburst::{paper_roster, relative_error, Dep, DvfsPredictor};
use depburst_core::{DepburstError, Result};
use dvfs_trace::{ExecutionTrace, Freq, Time, TimeDelta};
use energyx::{EnergyManager, ManagerConfig};
use harness::cache::{bench_digest, fault_digest, sampling_digest, sim_key_from_digests, SimKey};
use harness::experiments::fig3::{Direction, Fig3Cell};
use harness::experiments::fig6::{self, Fig6Row};
use harness::run::{RunResult, RunSummary, SampledInfo};
use harness::{ExecCtx, RunConfig, SimPoint};
use simx::{Machine, MachineConfig, RegionMeasurement, RunOutcome, SamplingConfig};

use crate::spans::Recorder;

/// A plan point with its cache key and the input digests it was composed
/// from (the sampled tier derives its prefix keys from the digests).
#[derive(Debug, Clone, Copy)]
struct Keyed {
    point: SimPoint,
    key: SimKey,
    bench_d: u128,
    machine_d: u128,
}

/// Derives every point's key the way `ExecCtx::execute` does: digest each
/// benchmark and machine once, compose per-point keys from the digests.
fn key_points(points: &[SimPoint], sampling: Option<&SamplingConfig>) -> Vec<Keyed> {
    let fault_d = fault_digest(None);
    let sampling_d = sampling.map(sampling_digest);
    let mut benches: HashMap<usize, u128> = HashMap::new();
    let mut machines: HashMap<u64, u128> = HashMap::new();
    points
        .iter()
        .map(|&point| {
            let bench_d = *benches
                .entry(point.bench as *const Benchmark as usize)
                .or_insert_with(|| bench_digest(point.bench));
            let machine_d = *machines
                .entry(point.config.freq.hz().to_bits())
                .or_insert_with(|| machine_config(point.config.freq).digest());
            let exact = sim_key_from_digests(
                bench_d,
                machine_d,
                fault_d,
                point.config.scale,
                point.config.seed,
            );
            Keyed {
                point,
                key: sampling_d.map_or(exact, |sd| exact.with_sampling(sd)),
                bench_d,
                machine_d,
            }
        })
        .collect()
}

fn machine_config(freq: Freq) -> MachineConfig {
    let mut mc = MachineConfig::haswell_quad();
    mc.initial_freq = freq;
    mc
}

/// Executes `points` on `ctx` like `ExecCtx::execute`, returning the
/// summaries in plan order.
///
/// # Errors
/// The first failed point's error.
pub fn execute(rec: &Recorder, ctx: &ExecCtx, points: &[SimPoint]) -> Result<Vec<Arc<RunSummary>>> {
    let keyed = rec.span("harness.key", || key_points(points, ctx.sampling.as_ref()));
    let outcomes = rec.span("harness.pool.map", || {
        let parent = rec.current();
        ctx.map(keyed, |k| {
            rec.adopt(parent, || match &ctx.sampling {
                Some(cfg) => cached(rec, ctx, k.key, || sampled(rec, ctx, &k, cfg)),
                None => cached(rec, ctx, k.key, || simulate(rec, k.point)),
            })
        })
    });
    outcomes.into_iter().collect()
}

/// `SimCache::get_or_compute` in a span named for what it did: a memo
/// lookup, a persisted store after a miss, or a load from disk.
fn cached(
    rec: &Recorder,
    ctx: &ExecCtx,
    key: SimKey,
    compute: impl FnOnce() -> Result<RunSummary>,
) -> Result<Arc<RunSummary>> {
    let memo_hit = ctx.cache.peek(key).is_some();
    let open = rec.open();
    let mut computed = false;
    let out = ctx.cache.get_or_compute(key, || {
        computed = true;
        compute()
    });
    let name = match (ctx.cache.is_persistent() && !memo_hit, computed) {
        (false, _) => "harness.cache",
        (true, true) => "harness.cache.store",
        (true, false) => "harness.cache.load",
    };
    rec.close(open, name);
    out
}

/// One exact simulation, as `harness::try_run_benchmark` runs it.
fn simulate(rec: &Recorder, point: SimPoint) -> Result<RunSummary> {
    let (mut machine, runtime) = rec.span("workloads.install", || {
        let mut machine = Machine::new(machine_config(point.config.freq));
        let runtime = point
            .bench
            .install(&mut machine, point.config.scale, point.config.seed);
        (machine, runtime)
    });
    let outcome = rec.span("simx.run", || machine.run())?;
    let RunOutcome::Completed(end) = outcome else {
        return Err(DepburstError::Machine {
            detail: format!("{}: run() returned before completion", point.bench.name),
        });
    };
    let trace = rec.span("simx.harvest", || machine.harvest_trace());
    if machine.monitor().on(simx::Invariant::GcPauseAccounting) {
        for (at_secs, detail) in runtime.take_gc_violations() {
            machine
                .monitor_mut()
                .record(simx::Invariant::GcPauseAccounting, at_secs, detail);
        }
    }
    if let Some(err) = machine.invariant_error() {
        return Err(err);
    }
    let stats = machine.stats();
    rec.count("simx.run.events", stats.events_dispatched as f64);
    rec.count("simx.run.instructions", stats.total_instructions() as f64);
    let result = RunResult {
        exec: end.since(Time::ZERO),
        gc_time: trace.gc_time(),
        gc_count: runtime.gc_count(),
        allocated: runtime.total_allocated(),
        trace,
        stats,
    };
    rec.count("mrt.gc.collections", result.gc_count as f64);
    rec.count("mrt.gc.sim_s", result.gc_time.as_secs());
    Ok(rec.span("harness.summarize", || result.summarize()))
}

fn region(summary: &RunSummary, fraction: f64) -> RegionMeasurement {
    RegionMeasurement {
        fraction,
        exec: summary.exec,
        gc_time: summary.gc_time,
        gc_count: summary.gc_count,
        allocated: summary.allocated,
        total_active: summary.total_active,
    }
}

/// One sampled point, as the sampled tier computes it: exact prefix runs
/// (cached under their own keys), extrapolation, and at most one widened
/// re-measure.
fn sampled(rec: &Recorder, ctx: &ExecCtx, k: &Keyed, cfg: &SamplingConfig) -> Result<RunSummary> {
    let fault_d = fault_digest(None);
    let run_region = |fraction: f64| {
        let scale = k.point.config.scale * fraction;
        let key = sim_key_from_digests(k.bench_d, k.machine_d, fault_d, scale, k.point.config.seed);
        let sub = SimPoint {
            bench: k.point.bench,
            config: RunConfig {
                scale,
                ..k.point.config
            },
        };
        cached(rec, ctx, key, || simulate(rec, sub))
    };
    let extrapolate = |probe: &RunSummary, probe_f: f64, measure: &RunSummary, measure_f: f64| {
        rec.span("simx.sampling.extrapolate", || {
            simx::sampling::extrapolate(
                &region(probe, probe_f),
                &region(measure, measure_f),
                &measure.trace,
                cfg,
            )
        })
    };
    let schedule = cfg.schedule();
    let probe = run_region(schedule.probe)?;
    let mut measure = run_region(schedule.measure)?;
    let mut measure_fraction = schedule.measure;
    let mut extended = false;
    let mut x = extrapolate(&probe, schedule.probe, &measure, measure_fraction);
    if let Some(wider) = cfg.extension(x.recurrence) {
        rec.count("simx.sampling.extensions", 1.0);
        measure = run_region(wider)?;
        measure_fraction = wider;
        extended = true;
        x = extrapolate(&probe, schedule.probe, &measure, measure_fraction);
    }
    Ok(RunSummary {
        exec: x.exec,
        gc_time: x.gc_time,
        gc_count: x.gc_count,
        allocated: x.allocated,
        total_active: x.total_active,
        trace: measure.trace.clone(),
        sampled: Some(SampledInfo {
            probe_fraction: schedule.probe,
            measure_fraction,
            extended,
            exec_half_ci: x.exec_half_ci,
            gc_half_ci: x.gc_half_ci,
            recurrence: x.recurrence,
            clusters: x.clusters,
        }),
    })
}

/// The span a predictor's calls are recorded under.
#[must_use]
fn predict_span(model: &str) -> &'static str {
    match model {
        "M+CRIT" => "core.predict.mcrit",
        "M+CRIT+BURST" => "core.predict.mcrit_burst",
        "COOP" => "core.predict.coop",
        "COOP+BURST" => "core.predict.coop_burst",
        "DEP" => "core.predict.dep",
        "DEP+BURST" => "core.predict.dep_burst",
        _ => "core.predict.other",
    }
}

/// `fig3::collect_with`, traced.
///
/// # Errors
/// As [`execute`].
pub fn fig3_cells(
    rec: &Recorder,
    ctx: &ExecCtx,
    direction: Direction,
    scale: f64,
    seeds: &[u64],
) -> Result<Vec<Fig3Cell>> {
    let models = paper_roster();
    let spans: Vec<&'static str> = models.iter().map(|m| predict_span(&m.name())).collect();
    let targets = direction.targets();
    let mut plan = Vec::new();
    for bench in all_benchmarks() {
        for &seed in seeds {
            plan.push(SimPoint::new(bench, direction.base(), scale, seed));
            for &target in &targets {
                plan.push(SimPoint::new(bench, target, scale, seed));
            }
        }
    }
    let results = execute(rec, ctx, &plan)?;
    let mut next = results.iter();
    let mut cells = Vec::with_capacity(all_benchmarks().len() * targets.len());
    for bench in all_benchmarks() {
        let mut acc = vec![vec![Vec::with_capacity(seeds.len()); models.len()]; targets.len()];
        let mut actuals = vec![0.0f64; targets.len()];
        for _seed in seeds {
            let base = next.next().expect("plan covers base run");
            for (ti, &target) in targets.iter().enumerate() {
                let actual = next.next().expect("plan covers target run");
                actuals[ti] += actual.exec.as_secs() / seeds.len() as f64;
                for (mi, model) in models.iter().enumerate() {
                    let raw = rec.span(spans[mi], || model.predict(&base.trace, target));
                    let predicted = base.rescale_prediction(raw);
                    acc[ti][mi].push(relative_error(predicted, actual.exec));
                }
            }
        }
        for (ti, &target) in targets.iter().enumerate() {
            cells.push(Fig3Cell {
                benchmark: bench.name.to_owned(),
                base_ghz: direction.base().ghz(),
                target_ghz: target.ghz(),
                actual_s: actuals[ti],
                errors: models
                    .iter()
                    .enumerate()
                    .map(|(mi, m)| {
                        let errs: &Vec<f64> = &acc[ti][mi];
                        (m.name(), errs.iter().sum::<f64>() / errs.len() as f64)
                    })
                    .collect(),
            });
        }
    }
    Ok(cells)
}

/// A predictor that records a span around every call of the one it wraps.
#[derive(Debug)]
struct TracedPredictor {
    inner: Dep,
    rec: Arc<Recorder>,
}

impl DvfsPredictor for TracedPredictor {
    fn predict(&self, trace: &ExecutionTrace, target: Freq) -> TimeDelta {
        self.rec.span("core.predict.dep_burst", || {
            self.inner.predict(trace, target)
        })
    }

    fn name(&self) -> String {
        self.inner.name()
    }
}

/// `fig6::collect_with`, traced: one managed run per benchmark on the
/// pool, baselines from `ctx`'s memo.
///
/// # Errors
/// The first failed run's error.
pub fn fig6_rows(
    rec: &Arc<Recorder>,
    ctx: &ExecCtx,
    threshold: f64,
    scale: f64,
    seed: u64,
) -> Result<Vec<Fig6Row>> {
    let benches: Vec<&'static Benchmark> = all_benchmarks().iter().collect();
    let rows = rec.span("harness.pool.map", || {
        let parent = rec.current();
        ctx.map(benches, |bench| {
            rec.adopt(parent, || managed(rec, ctx, bench, scale, seed, threshold))
        })
    });
    rows.into_iter().collect()
}

fn managed(
    rec: &Arc<Recorder>,
    ctx: &ExecCtx,
    bench: &'static Benchmark,
    scale: f64,
    seed: u64,
    threshold: f64,
) -> Result<Fig6Row> {
    let config = ManagerConfig::with_threshold(threshold);
    let (base_exec, base_energy) = rec.span("harness.cache", || {
        fig6::baseline_with(ctx, bench, scale, seed, &config.power)
    })?;
    let mut machine = rec.span("workloads.install", || {
        let mut machine = Machine::new(machine_config(Freq::from_ghz(4.0)));
        bench.install(&mut machine, scale, seed);
        machine
    });
    let predictor = TracedPredictor {
        inner: Dep::dep_burst(),
        rec: Arc::clone(rec),
    };
    let manager = EnergyManager::new(config, Box::new(predictor));
    let report = rec.span("energy.manager.run", || manager.run(&mut machine))?;
    rec.count("energy.manager.decisions", report.decisions as f64);
    rec.count("energy.manager.switches", report.switches as f64);
    Ok(Fig6Row {
        benchmark: bench.name.to_owned(),
        class: match bench.class {
            BenchClass::Memory => "M".to_owned(),
            BenchClass::Compute => "C".to_owned(),
        },
        threshold,
        slowdown: report.exec.as_secs() / base_exec - 1.0,
        savings: 1.0 - report.energy_j / base_energy,
        mean_ghz: report.mean_ghz(),
    })
}
