//! Single-run plumbing: install a benchmark, run it at a frequency, and
//! harvest everything the experiments need — plus the [`SweepPlan`] →
//! [`ExecCtx::execute`] machinery every experiment drives its grid
//! through: points execute on the work-stealing pool, results come back
//! in plan order, and identical points are memoized via [`SimCache`].

use std::collections::HashMap;
use std::path::Path;
use std::sync::{Arc, Mutex};
use std::time::Duration;

use dacapo_sim::Benchmark;
use dvfs_trace::{ExecutionTrace, Freq, TimeDelta};
use serde::{Deserialize, Serialize};
use simx::{Machine, MachineConfig, RunOutcome, RunStats};

use crate::cache::{SimCache, SimKey};
use crate::pool;
use crate::resilience::{
    attempt_resilient, FailureCause, FailureReport, PointFailure, ResilienceStats, RetryPolicy,
};
use crate::vfs::{parse_storage_faults, FaultyVfs, RealVfs, StorageFaultConfig, Vfs};

/// Parameters of one benchmark run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RunConfig {
    /// Chip frequency for the whole run.
    pub freq: Freq,
    /// Work scale (1.0 = the paper's full run; tests use small values).
    pub scale: f64,
    /// Workload RNG seed (the paper averages 4 runs; vary this).
    pub seed: u64,
}

impl RunConfig {
    /// A full-scale run at `ghz`.
    #[must_use]
    pub fn at_ghz(ghz: f64) -> Self {
        RunConfig {
            freq: Freq::from_ghz(ghz),
            scale: 1.0,
            seed: 1,
        }
    }

    /// Returns a copy at a different scale.
    #[must_use]
    pub fn scaled(mut self, scale: f64) -> Self {
        self.scale = scale;
        self
    }

    /// Returns a copy with a different seed.
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }
}

/// Everything a completed run yields.
#[derive(Debug)]
pub struct RunResult {
    /// Wall-clock execution time.
    pub exec: TimeDelta,
    /// Time inside stop-the-world collections.
    pub gc_time: TimeDelta,
    /// Nursery collections performed.
    pub gc_count: u64,
    /// Bytes allocated by the application.
    pub allocated: u64,
    /// The full execution trace (input to the predictors).
    pub trace: ExecutionTrace,
    /// Machine statistics.
    pub stats: RunStats,
}

/// The cacheable essence of a [`RunResult`]: everything the experiments
/// consume from a plain (unmanaged, whole-chip) run, in a serializable
/// form. `RunStats` itself does not persist — the only statistic the
/// figures need from it is the total active time, captured here.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunSummary {
    /// Wall-clock execution time.
    pub exec: TimeDelta,
    /// Time inside stop-the-world collections.
    pub gc_time: TimeDelta,
    /// Nursery collections performed.
    pub gc_count: u64,
    /// Bytes allocated by the application.
    pub allocated: u64,
    /// Summed scheduled time over all threads (drives the energy model).
    pub total_active: TimeDelta,
    /// The full execution trace (input to the predictors). For a sampled
    /// summary this is the *measure region's* trace: a step-identical
    /// prefix of the full run (see `simx::sampling`), not the whole run.
    pub trace: ExecutionTrace,
    /// Present when this summary was extrapolated by the sampled tier
    /// rather than simulated in full. Absent for exact runs: not
    /// serialized when `None`, so exact envelopes stay byte-identical to
    /// the pre-sampling schema, and read as `None` when missing, so
    /// envelopes written before the field existed still load.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub sampled: Option<SampledInfo>,
}

/// How a sampled summary was produced, and how much to trust it.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SampledInfo {
    /// Rounds fraction of the probe prefix.
    pub probe_fraction: f64,
    /// Rounds fraction of the measure prefix the estimate came from.
    pub measure_fraction: f64,
    /// True when the region scheduler widened the measure region after a
    /// failed recurrence check.
    pub extended: bool,
    /// Half-width of the execution-time confidence interval.
    pub exec_half_ci: TimeDelta,
    /// Half-width of the GC-time confidence interval.
    pub gc_half_ci: TimeDelta,
    /// Measured phase recurrence of the measure region.
    pub recurrence: f64,
    /// Epoch-signature clusters found in the measure region.
    pub clusters: usize,
}

impl RunResult {
    /// Condenses the result into its cacheable summary.
    #[must_use]
    pub fn summarize(&self) -> RunSummary {
        RunSummary {
            exec: self.exec,
            gc_time: self.gc_time,
            gc_count: self.gc_count,
            allocated: self.allocated,
            total_active: self.stats.total_active(),
            trace: self.trace.clone(),
            sampled: None,
        }
    }
}

impl RunSummary {
    /// Adjusts `predicted` — a model's predicted execution time for this
    /// summary's *traced window* at some target frequency — to whole-run
    /// terms. An exact summary returns it unchanged (its trace covers
    /// the whole run). A sampled summary carries only the measure
    /// region's trace, so the raw prediction is a region time; the
    /// predicted slowdown ratio is applied to the extrapolated whole-run
    /// execution time instead.
    #[must_use]
    pub fn rescale_prediction(&self, predicted: TimeDelta) -> TimeDelta {
        if self.sampled.is_none() {
            return predicted;
        }
        let window = self.trace.total.as_secs();
        if window <= 0.0 {
            return predicted;
        }
        self.exec * (predicted.as_secs() / window)
    }
}

/// Parses a `DEPBURST_SAMPLING` / `--sampling` setting: `off`/`0`/empty
/// disables the sampled tier, `on`/`1` enables it with the default
/// [`SamplingConfig`](simx::SamplingConfig), and a bare fraction enables
/// it with that measure fraction (the probe keeps its default).
pub fn parse_sampling_setting(value: &str) -> Result<Option<simx::SamplingConfig>, String> {
    match value {
        "" | "0" | "off" => Ok(None),
        "1" | "on" => Ok(Some(simx::SamplingConfig::default())),
        other => {
            let f: f64 = other
                .parse()
                .map_err(|_| format!("expected off/on or a measure fraction, got {other:?}"))?;
            let cfg = simx::SamplingConfig {
                measure_fraction: f,
                ..simx::SamplingConfig::default()
            };
            if !(f.is_finite() && f > cfg.probe_fraction && f < 1.0) {
                return Err(format!(
                    "measure fraction {f} outside (probe {}, 1)",
                    cfg.probe_fraction
                ));
            }
            Ok(Some(cfg))
        }
    }
}

/// Views a prefix sub-run's summary as a region measurement for the
/// extrapolator.
fn region_of(summary: &RunSummary, fraction: f64) -> simx::RegionMeasurement {
    simx::RegionMeasurement {
        fraction,
        exec: summary.exec,
        gc_time: summary.gc_time,
        gc_count: summary.gc_count,
        allocated: summary.allocated,
        total_active: summary.total_active,
    }
}

/// Runs `bench` to completion under `config`, reporting simulator
/// failures (deadlock, protocol violation) as errors. The invariant
/// monitor runs at the mode `DEPBURST_INVARIANTS` selects (off by
/// default); a violation surfaces as
/// [`DepburstError::InvariantViolation`](depburst_core::DepburstError::InvariantViolation).
pub fn try_run_benchmark(
    bench: &Benchmark,
    config: RunConfig,
) -> depburst_core::Result<RunResult> {
    run_with_monitor(bench, config, None)
}

/// [`try_run_benchmark`] with an explicit invariant-monitor mode,
/// overriding the `DEPBURST_INVARIANTS` environment default. The fuzzer
/// and the self-check tests use this to force
/// [`InvariantMode::Full`](simx::InvariantMode::Full) regardless of the
/// caller's environment.
pub fn try_run_benchmark_monitored(
    bench: &Benchmark,
    config: RunConfig,
    mode: simx::InvariantMode,
) -> depburst_core::Result<RunResult> {
    run_with_monitor(bench, config, Some(mode))
}

/// The shared body of the plain and monitored entry points. `mode` of
/// `None` keeps the machine's environment-derived monitor.
fn run_with_monitor(
    bench: &Benchmark,
    config: RunConfig,
    mode: Option<simx::InvariantMode>,
) -> depburst_core::Result<RunResult> {
    let mut mc = MachineConfig::haswell_quad();
    mc.initial_freq = config.freq;
    let mut machine = Machine::new(mc);
    if let Some(mode) = mode {
        // Before install: the runtime snapshots the machine's mode to
        // decide whether its threads record GC-handoff violations.
        machine.set_invariant_mode(mode);
    }
    let runtime = bench.install(&mut machine, config.scale, config.seed);
    let outcome = machine.run()?;
    let RunOutcome::Completed(end) = outcome else {
        unreachable!("run() only returns at completion");
    };
    let trace = machine.harvest_trace();
    debug_assert!(trace.validate().is_ok(), "{:?}", trace.validate());
    // Runtime threads cannot reach the machine's monitor mid-run; merge
    // the GC-handoff violations they recorded on the side.
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
    Ok(RunResult {
        exec: end.since(dvfs_trace::Time::ZERO),
        gc_time: trace.gc_time(),
        gc_count: runtime.gc_count(),
        allocated: runtime.total_allocated(),
        trace,
        stats: machine.stats(),
    })
}

/// Runs `bench` to completion under `config` and returns the results.
///
/// # Panics
/// Panics if the simulated program deadlocks (a bug in the runtime or
/// workload model). Experiments route through [`ExecCtx`] instead, which
/// propagates the error.
#[must_use]
pub fn run_benchmark(bench: &Benchmark, config: RunConfig) -> RunResult {
    try_run_benchmark(bench, config).unwrap_or_else(|e| panic!("{}: {e}", bench.name))
}

/// One point of an experiment grid: a benchmark at a frequency, scale,
/// and seed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimPoint {
    /// The benchmark to run.
    pub bench: &'static Benchmark,
    /// The run parameters.
    pub config: RunConfig,
}

impl SimPoint {
    /// Builds the point's run configuration grid entry.
    #[must_use]
    pub fn new(bench: &'static Benchmark, freq: Freq, scale: f64, seed: u64) -> Self {
        SimPoint {
            bench,
            config: RunConfig { freq, scale, seed },
        }
    }
}

/// An experiment's (benchmark × frequency × seed) grid, in the order the
/// experiment will consume the results. Duplicated points are fine — the
/// memo cache collapses them to one simulation.
#[derive(Debug, Clone, Default)]
pub struct SweepPlan {
    /// The points, in consumption order.
    pub points: Vec<SimPoint>,
}

impl SweepPlan {
    /// An empty plan.
    #[must_use]
    pub fn new() -> Self {
        SweepPlan { points: Vec::new() }
    }

    /// Appends a point and returns its index in the result vector.
    pub fn push(&mut self, point: SimPoint) -> usize {
        self.points.push(point);
        self.points.len() - 1
    }
}

/// The execution context experiments run under: how many pool workers to
/// use, the simulation memo shared by every plan executed through it,
/// and the resilience machinery — retry policy, per-point watchdog,
/// checkpoint store, and the run's accumulated point failures.
#[derive(Debug)]
pub struct ExecCtx {
    /// Pool width. 1 = run points in place, exactly like the historical
    /// sequential harness.
    pub jobs: usize,
    /// The simulation memo.
    pub cache: SimCache,
    /// Retry/backoff policy for failed points.
    pub policy: RetryPolicy,
    /// Per-point wall-clock budget (None = no watchdog).
    pub point_timeout: Option<Duration>,
    /// When set, plan points execute on the sampled tier: two prefix
    /// regions are simulated (as ordinary cacheable exact runs at
    /// reduced scales) and the whole-run summary is extrapolated — see
    /// `simx::sampling`. Sampled results key under
    /// [`SimKey::with_sampling`], so they never collide with exact ones.
    pub sampling: Option<simx::SamplingConfig>,
    /// The checkpoint store, when the run is resumable: a second
    /// persistent [`SimCache`] keyed like the memo (namespaced per
    /// [`execute_in`](Self::execute_in)).
    checkpoint: Option<SimCache>,
    /// The storage-fault injector, when one is installed (torture runs
    /// and `--storage-faults`). Shared by the cache and the checkpoint.
    /// `None` means all durable I/O goes straight through [`RealVfs`].
    storage: Option<Arc<FaultyVfs>>,
    /// Ultimate point failures accumulated across this context's sweeps.
    failures: Mutex<Vec<PointFailure>>,
    /// Failures stashed by key while they cross the cache's error channel
    /// (which carries only a `DepburstError`).
    stashed: Mutex<HashMap<u128, PointFailure>>,
    /// Attempt-level counters (retries, panics, timeouts).
    rstats: ResilienceStats,
}

impl ExecCtx {
    /// A context with `jobs` workers, a fresh in-memory cache, the
    /// default retry policy, and no watchdog or checkpoint.
    #[must_use]
    pub fn new(jobs: usize) -> Self {
        ExecCtx {
            jobs: jobs.max(1),
            cache: SimCache::in_memory(),
            policy: RetryPolicy::default(),
            point_timeout: None,
            sampling: None,
            checkpoint: None,
            storage: None,
            failures: Mutex::new(Vec::new()),
            stashed: Mutex::new(HashMap::new()),
            rstats: ResilienceStats::default(),
        }
    }

    /// The historical sequential harness: one worker, in-memory cache.
    #[must_use]
    pub fn sequential() -> Self {
        Self::new(1)
    }

    /// The context the binaries use: `requested` jobs (falling back to
    /// `DEPBURST_JOBS`, then to the machine's parallelism), cache
    /// persistence per `DEPBURST_CACHE`, retries per `DEPBURST_RETRIES`,
    /// and the watchdog per `DEPBURST_POINT_TIMEOUT` (seconds).
    #[must_use]
    pub fn from_env(requested: Option<usize>) -> Self {
        let mut ctx = Self::new(pool::resolve_jobs(requested));
        ctx.cache = SimCache::from_env();
        ctx.policy = RetryPolicy::from_env();
        ctx.point_timeout = std::env::var("DEPBURST_POINT_TIMEOUT")
            .ok()
            .and_then(|v| v.trim().parse::<f64>().ok())
            .filter(|secs| *secs > 0.0)
            .map(Duration::from_secs_f64);
        if let Ok(v) = std::env::var("DEPBURST_SAMPLING") {
            match parse_sampling_setting(v.trim()) {
                Ok(sampling) => ctx.sampling = sampling,
                Err(e) => eprintln!("warning: ignoring DEPBURST_SAMPLING: {e}"),
            }
        }
        if let Ok(v) = std::env::var("DEPBURST_STORAGE_FAULTS") {
            match parse_storage_faults(&v) {
                Ok(Some(cfg)) => ctx = ctx.with_storage_faults(cfg),
                Ok(None) => {}
                Err(e) => eprintln!("warning: ignoring DEPBURST_STORAGE_FAULTS: {e}"),
            }
        }
        ctx
    }

    /// Replaces the cache (builder style).
    #[must_use]
    pub fn with_cache(mut self, cache: SimCache) -> Self {
        self.cache = cache;
        self
    }

    /// Replaces the retry policy (builder style).
    #[must_use]
    pub fn with_policy(mut self, policy: RetryPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Sets the per-point wall-clock budget (builder style).
    #[must_use]
    pub fn with_timeout(mut self, timeout: Option<Duration>) -> Self {
        self.point_timeout = timeout;
        self
    }

    /// Selects the sampled execution tier (builder style); `None`
    /// restores full-fidelity execution.
    #[must_use]
    pub fn with_sampling(mut self, sampling: Option<simx::SamplingConfig>) -> Self {
        self.sampling = sampling;
        self
    }

    /// Opens the checkpoint store rooted at `root` (see
    /// [`SimCache::checkpoint_root`]) through this context's storage
    /// layer. `fresh` starts a new run, dropping whatever an earlier run
    /// with the same root stored; otherwise the run resumes from it.
    ///
    /// # Errors
    /// The store's directory could not be prepared. The context is left
    /// without a checkpoint: the run still works, but is not resumable.
    pub fn open_checkpoint(&mut self, root: &Path, fresh: bool) -> std::io::Result<()> {
        let mut store = SimCache::persistent(root);
        if let Some(vfs) = &self.storage {
            store.set_vfs(Arc::clone(vfs) as Arc<dyn Vfs>);
        }
        store.begin_checkpoint(fresh)?;
        self.checkpoint = Some(store);
        Ok(())
    }

    /// The checkpoint store, if the run is resumable.
    #[must_use]
    pub fn checkpoint(&self) -> Option<&SimCache> {
        self.checkpoint.as_ref()
    }

    /// Installs a storage-fault injector (builder style): the disk I/O of
    /// the cache and of the checkpoint, opened before or after, routes
    /// through it.
    #[must_use]
    pub fn with_storage(mut self, vfs: Arc<FaultyVfs>) -> Self {
        self.set_vfs(Arc::clone(&vfs) as Arc<dyn Vfs>);
        self.storage = Some(vfs);
        self
    }

    /// Routes both stores' I/O through `vfs`.
    fn set_vfs(&mut self, vfs: Arc<dyn Vfs>) {
        if let Some(checkpoint) = &mut self.checkpoint {
            checkpoint.set_vfs(Arc::clone(&vfs));
        }
        self.cache.set_vfs(vfs);
    }

    /// [`with_storage`](Self::with_storage) from a fault configuration.
    #[must_use]
    pub fn with_storage_faults(self, cfg: StorageFaultConfig) -> Self {
        self.with_storage(Arc::new(FaultyVfs::new(cfg)))
    }

    /// Removes any installed injector, restoring direct [`RealVfs`] I/O
    /// (an explicit `--storage-faults off` over an env-installed one).
    #[must_use]
    pub fn without_storage(mut self) -> Self {
        self.set_vfs(Arc::new(RealVfs));
        self.storage = None;
        self
    }

    /// The installed storage-fault injector, if any.
    #[must_use]
    pub fn storage(&self) -> Option<&Arc<FaultyVfs>> {
        self.storage.as_ref()
    }

    /// When the injected crash point has fired, the structured
    /// storage failure the run should exit with (the process is "dead";
    /// results past this point would be fiction).
    #[must_use]
    pub fn storage_failure(&self) -> Option<PointFailure> {
        let storage = self.storage.as_ref()?;
        if !storage.crashed() {
            return None;
        }
        Some(PointFailure {
            label: "storage".to_owned(),
            cause: FailureCause::Storage,
            attempts: 0,
            detail: format!(
                "simulated power loss after {} VFS operations; the sweep fails closed",
                storage.op_count()
            ),
        })
    }

    /// Records a point's ultimate failure into the run's report.
    pub fn record_failure(&self, failure: PointFailure) {
        self.failures.lock().expect("failures lock").push(failure);
    }

    /// The ultimate point failures recorded so far.
    #[must_use]
    pub fn failures(&self) -> Vec<PointFailure> {
        self.failures.lock().expect("failures lock").clone()
    }

    /// True when any point ultimately failed under this context.
    #[must_use]
    pub fn has_failures(&self) -> bool {
        !self.failures.lock().expect("failures lock").is_empty()
    }

    /// The end-of-run failure report, or `None` for a clean run.
    #[must_use]
    pub fn failure_report(&self, experiment: &str) -> Option<FailureReport> {
        let failures = self.failures();
        if failures.is_empty() {
            return None;
        }
        let cache = self.cache.stats();
        let checkpoint = self.checkpoint.as_ref().map(SimCache::stats).unwrap_or_default();
        Some(FailureReport {
            experiment: experiment.to_owned(),
            failed_points: failures.len(),
            retries: self.rstats.retries(),
            panics: self.rstats.panics(),
            timeouts: self.rstats.timeouts(),
            quarantined: cache.quarantined,
            cache_persist_failures: cache.persist_failures,
            checkpoint_persist_failures: checkpoint.persist_failures,
            checkpoint_fsync_failures: checkpoint.fsync_failures,
            failures,
        })
    }

    /// Executes every point of `plan` — memoized, on up to
    /// [`jobs`](ExecCtx::jobs) workers — and returns the summaries in plan
    /// order. The output is a pure function of the plan: neither the
    /// worker count, the cache temperature, nor a checkpoint resume can
    /// change it.
    ///
    /// # Errors
    /// Every point is attempted (with this context's retry/watchdog
    /// policy) even when some fail; ultimate failures are recorded via
    /// [`record_failure`](Self::record_failure) and the whole sweep then
    /// reports [`DepburstError::SweepIncomplete`] — figures are
    /// structurally complete-or-failed, unlike the faults sweep which
    /// drops failed cells and keeps its partial rows.
    ///
    /// [`DepburstError::SweepIncomplete`]: depburst_core::DepburstError::SweepIncomplete
    pub fn execute(&self, plan: &SweepPlan) -> depburst_core::Result<Vec<Arc<RunSummary>>> {
        self.execute_in(None, plan)
    }

    /// [`execute`](Self::execute) with a checkpoint namespace.
    ///
    /// Fleet sweeps run the same characterization point for many shards.
    /// The memo cache *should* share those (the simulation is one pure
    /// function), but the checkpoint must not: shard-labelled rows
    /// replayed across shards would let `--resume` complete shard B from
    /// shard A's entries even if B never ran. Namespacing the checkpoint
    /// key by shard keeps every shard's resume state independent while
    /// cache sharing stays fleet-wide.
    ///
    /// # Errors
    /// As [`execute`](Self::execute).
    pub fn execute_in(
        &self,
        namespace: Option<&str>,
        plan: &SweepPlan,
    ) -> depburst_core::Result<Vec<Arc<RunSummary>>> {
        self.collect_sweep(plan, self.execute_outcomes_in(namespace, plan))
    }

    /// [`execute`](Self::execute) with an explicit sampling setting,
    /// overriding this context's [`sampling`](ExecCtx::sampling) field.
    /// The sampled-vs-exact validation experiment uses this to run both
    /// tiers of the same plan through one shared cache and checkpoint
    /// (sampled keys never collide with exact ones, so the arms coexist).
    ///
    /// # Errors
    /// As [`execute`](Self::execute).
    pub fn execute_with(
        &self,
        plan: &SweepPlan,
        sampling: Option<&simx::SamplingConfig>,
    ) -> depburst_core::Result<Vec<Arc<RunSummary>>> {
        self.collect_sweep(plan, self.execute_outcomes_with(None, plan, sampling))
    }

    /// Folds per-point outcomes into the complete-or-failed sweep result.
    fn collect_sweep(
        &self,
        plan: &SweepPlan,
        outcomes: Vec<Result<Arc<RunSummary>, PointFailure>>,
    ) -> depburst_core::Result<Vec<Arc<RunSummary>>> {
        let total = plan.points.len();
        let mut ok = Vec::with_capacity(total);
        let mut failed = 0usize;
        for outcome in outcomes {
            match outcome {
                Ok(summary) => ok.push(summary),
                Err(failure) => {
                    failed += 1;
                    self.record_failure(failure);
                }
            }
        }
        if failed > 0 {
            return Err(depburst_core::DepburstError::SweepIncomplete { failed, total });
        }
        Ok(ok)
    }

    /// The per-point form of [`execute`](Self::execute): every point's
    /// summary or structured failure, in plan order. Failures are *not*
    /// recorded on the context — the caller decides whether a failed
    /// point sinks the sweep or only its own cell.
    pub fn execute_outcomes(
        &self,
        plan: &SweepPlan,
    ) -> Vec<Result<Arc<RunSummary>, PointFailure>> {
        self.execute_outcomes_in(None, plan)
    }

    /// The per-point form of [`execute_in`](Self::execute_in): checkpoint
    /// loads and stores use the namespaced key, the memo cache the raw
    /// one.
    pub fn execute_outcomes_in(
        &self,
        namespace: Option<&str>,
        plan: &SweepPlan,
    ) -> Vec<Result<Arc<RunSummary>, PointFailure>> {
        self.execute_outcomes_with(namespace, plan, self.sampling.as_ref())
    }

    /// The engine under every `execute` variant, with the sampling
    /// setting fully explicit.
    fn execute_outcomes_with(
        &self,
        namespace: Option<&str>,
        plan: &SweepPlan,
        sampling: Option<&simx::SamplingConfig>,
    ) -> Vec<Result<Arc<RunSummary>, PointFailure>> {
        // `DEPBURST_TRACE_POINTS=1` logs every point with its key and
        // wall-clock to stderr — the first tool to reach for when a sweep
        // stalls or the cache misses unexpectedly.
        let tracing = std::env::var_os("DEPBURST_TRACE_POINTS").is_some();
        // Key derivation walks the benchmark spec and the whole machine
        // config; a sweep shares a handful of (benchmark, frequency)
        // combinations across hundreds of points, so digest each input
        // once up front and compose per-point keys from the digests.
        let fault_d = crate::cache::fault_digest(None);
        // A sampled sweep keys its points under (exact key × sampling
        // digest): exact and sampled results can never collide, nor can
        // two different region placements.
        let sampling_d = sampling.map(crate::cache::sampling_digest);
        let mut bench_digests: HashMap<usize, u128> = HashMap::new();
        let mut machine_digests: HashMap<u64, u128> = HashMap::new();
        let keyed: Vec<(SimPoint, SimKey, (u128, u128))> = plan
            .points
            .iter()
            .map(|point| {
                let bd = *bench_digests
                    .entry(point.bench as *const Benchmark as usize)
                    .or_insert_with(|| crate::cache::bench_digest(point.bench));
                let md = *machine_digests
                    .entry(point.config.freq.hz().to_bits())
                    .or_insert_with(|| {
                        let mut mc = MachineConfig::haswell_quad();
                        mc.initial_freq = point.config.freq;
                        mc.digest()
                    });
                let exact = crate::cache::sim_key_from_digests(
                    bd,
                    md,
                    fault_d,
                    point.config.scale,
                    point.config.seed,
                );
                let key = sampling_d.map_or(exact, |sd| exact.with_sampling(sd));
                (*point, key, (bd, md))
            })
            .collect();
        pool::map(keyed, self.jobs, |(point, key, (bd, md))| {
            // A fired crash point means the simulated machine lost power:
            // remaining points fail closed instead of simulating against
            // storage that no longer accepts writes.
            if self.storage.as_ref().is_some_and(|s| s.crashed()) {
                return Err(PointFailure {
                    label: format!(
                        "{} @ {} seed {}",
                        point.bench.name, point.config.freq, point.config.seed
                    ),
                    cause: FailureCause::Storage,
                    attempts: 0,
                    detail: "simulated power loss: storage crashed; abandoning the sweep".into(),
                });
            }
            let checkpoint_key = namespace.map_or(key, |ns| key.in_namespace(ns));
            let t0 = std::time::Instant::now();
            // Checkpoint replay first: a resumed run serves completed
            // points without touching the simulator or the cache statistics.
            if let Some(checkpoint) = &self.checkpoint {
                if let Some(summary) = checkpoint.load(checkpoint_key) {
                    self.cache.seed(key, &summary);
                    if tracing {
                        eprintln!("  {}: replayed from checkpoint", key.hex());
                    }
                    return Ok(summary);
                }
            }
            let label = format!(
                "{} @ {} seed {} scale {}",
                point.bench.name, point.config.freq, point.config.seed, point.config.scale
            );
            let out = if let Some(cfg) = sampling {
                self.cache.get_or_compute(key, || {
                    if tracing {
                        eprintln!("  {}: miss, sampling", key.hex());
                    }
                    self.compute_sampled(point, cfg, bd, md, fault_d, key, &label, tracing)
                })
            } else {
                self.cache.get_or_compute(key, || {
                    if tracing {
                        eprintln!("  {}: miss, simulating", key.hex());
                    }
                    match attempt_resilient(
                        &self.policy,
                        self.point_timeout,
                        &self.rstats,
                        &label,
                        |_attempt| {
                            // Plain cacheable points carry no fault injector,
                            // so the attempt index cannot change the result —
                            // a retry re-runs the identical pure simulation.
                            try_run_benchmark(point.bench, point.config).map(|r| r.summarize())
                        },
                    ) {
                        Ok(summary) => Ok(summary),
                        Err(failure) => {
                            // The cache's error channel carries only a
                            // DepburstError; stash the structured failure so
                            // it survives the crossing.
                            let detail = failure.detail.clone();
                            self.stashed
                                .lock()
                                .expect("stash lock")
                                .insert(key.0, failure);
                            Err(depburst_core::DepburstError::Machine { detail })
                        }
                    }
                })
            };
            if tracing {
                eprintln!(
                    "point {} @ {} seed {} [{}] in {:.3}s",
                    point.bench.name,
                    point.config.freq,
                    point.config.seed,
                    key.hex(),
                    t0.elapsed().as_secs_f64()
                );
            }
            match out {
                Ok(summary) => {
                    if let Some(checkpoint) = &self.checkpoint {
                        checkpoint.store(checkpoint_key, &summary);
                    }
                    Ok(summary)
                }
                Err(err) => {
                    let failure = self
                        .stashed
                        .lock()
                        .expect("stash lock")
                        .get(&key.0)
                        .cloned()
                        .unwrap_or_else(|| PointFailure {
                            label: label.clone(),
                            cause: FailureCause::Error,
                            attempts: 1,
                            detail: err.to_string(),
                        });
                    if failure.cause == FailureCause::Invariant {
                        // The point's inputs produced self-inconsistent
                        // physics: withdraw any persisted envelope so a
                        // resume re-simulates instead of trusting it.
                        self.cache.quarantine_key(key, &failure.detail);
                    }
                    Err(failure)
                }
            }
        })
    }

    /// Computes one sampled point: simulate the probe and measure prefix
    /// regions (as ordinary cacheable exact runs at reduced scales,
    /// shared through the memo cache with any other consumer of those
    /// scales), extrapolate the whole run, and — when the measure
    /// region fails its phase-recurrence check — let the region
    /// scheduler widen it once and re-extrapolate.
    ///
    /// Sub-run failures stash their structured `PointFailure` under
    /// `stash_key` (the sampled point's key) so the caller's error path
    /// reports the sampled point, not an anonymous sub-run.
    #[allow(clippy::too_many_arguments)]
    fn compute_sampled(
        &self,
        point: SimPoint,
        cfg: &simx::SamplingConfig,
        bd: u128,
        md: u128,
        fault_d: u128,
        stash_key: SimKey,
        label: &str,
        tracing: bool,
    ) -> depburst_core::Result<RunSummary> {
        let run_region = |fraction: f64| -> depburst_core::Result<Arc<RunSummary>> {
            let sub_scale = point.config.scale * fraction;
            let sub_key = crate::cache::sim_key_from_digests(
                bd,
                md,
                fault_d,
                sub_scale,
                point.config.seed,
            );
            let sub_config = RunConfig {
                scale: sub_scale,
                ..point.config
            };
            self.cache.get_or_compute(sub_key, || {
                if tracing {
                    eprintln!("  {}: region {fraction} miss, simulating", sub_key.hex());
                }
                let sub_label = format!("{label} [region {fraction}]");
                match attempt_resilient(
                    &self.policy,
                    self.point_timeout,
                    &self.rstats,
                    &sub_label,
                    |_attempt| {
                        try_run_benchmark(point.bench, sub_config).map(|r| r.summarize())
                    },
                ) {
                    Ok(summary) => Ok(summary),
                    Err(failure) => {
                        let detail = failure.detail.clone();
                        self.stashed
                            .lock()
                            .expect("stash lock")
                            .insert(stash_key.0, failure);
                        Err(depburst_core::DepburstError::Machine { detail })
                    }
                }
            })
        };
        let schedule = cfg.schedule();
        let probe = run_region(schedule.probe)?;
        let mut measure = run_region(schedule.measure)?;
        let mut measure_fraction = schedule.measure;
        let mut extended = false;
        let mut x = simx::sampling::extrapolate(
            &region_of(&probe, schedule.probe),
            &region_of(&measure, measure_fraction),
            &measure.trace,
            cfg,
        );
        if let Some(wider) = cfg.extension(x.recurrence) {
            measure = run_region(wider)?;
            measure_fraction = wider;
            extended = true;
            x = simx::sampling::extrapolate(
                &region_of(&probe, schedule.probe),
                &region_of(&measure, measure_fraction),
                &measure.trace,
                cfg,
            );
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

    /// Maps `f` over `items` on this context's pool, preserving input
    /// order. For experiment stages that are not plain cacheable runs
    /// (managed-machine runs, per-core pinned runs). Callers wanting
    /// per-item resilience use [`map_resilient`](Self::map_resilient).
    pub fn map<T, R, F>(&self, items: Vec<T>, f: F) -> Vec<R>
    where
        T: Send,
        R: Send,
        F: Fn(T) -> R + Sync,
    {
        pool::map(items, self.jobs, f)
    }

    /// Runs `f` on every item in place on this context's pool (see
    /// [`pool::for_each_mut`]): for state that persists across rounds.
    pub fn for_each_mut<T, F>(&self, items: &mut [T], f: F)
    where
        T: Send,
        F: Fn(&mut T) + Sync,
    {
        pool::for_each_mut(items, self.jobs, f);
    }

    /// Maps a fallible, labelled evaluation over `items` with this
    /// context's full resilience stack (panic isolation, watchdog,
    /// retry/backoff), preserving input order. `f` receives the item and
    /// the attempt index (0 first) so seeded transient faults can redraw
    /// per attempt (see [`simx::faults::retry_seed`]). Failures are *not*
    /// recorded on the context — see
    /// [`collect_resilient`](Self::collect_resilient) for the
    /// whole-sweep-or-nothing wrapper.
    pub fn map_resilient<T, R, F>(
        &self,
        items: Vec<(String, T)>,
        f: F,
    ) -> Vec<Result<R, PointFailure>>
    where
        T: Send,
        R: Send,
        F: Fn(&T, u32) -> depburst_core::Result<R> + Sync,
    {
        pool::map(items, self.jobs, |(label, item)| {
            attempt_resilient(
                &self.policy,
                self.point_timeout,
                &self.rstats,
                &label,
                |attempt| f(&item, attempt),
            )
        })
    }

    /// [`map_resilient`](Self::map_resilient) for sweeps that are
    /// structurally complete-or-failed: every item runs, ultimate
    /// failures are recorded on the context, and any failure turns the
    /// whole sweep into `SweepIncomplete` — after the surviving items
    /// finished, so their simulations are cached/checkpointed for a retry.
    pub fn collect_resilient<T, R, F>(
        &self,
        items: Vec<(String, T)>,
        f: F,
    ) -> depburst_core::Result<Vec<R>>
    where
        T: Send,
        R: Send,
        F: Fn(&T, u32) -> depburst_core::Result<R> + Sync,
    {
        let total = items.len();
        let mut ok = Vec::with_capacity(total);
        let mut failed = 0usize;
        for outcome in self.map_resilient(items, f) {
            match outcome {
                Ok(r) => ok.push(r),
                Err(failure) => {
                    failed += 1;
                    self.record_failure(failure);
                }
            }
        }
        if failed > 0 {
            return Err(depburst_core::DepburstError::SweepIncomplete { failed, total });
        }
        Ok(ok)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dacapo_sim::benchmark;

    #[test]
    fn small_scale_run_completes_and_collects() {
        let bench = benchmark("lusearch").expect("exists");
        let result = run_benchmark(
            bench,
            RunConfig::at_ghz(2.0).scaled(0.03),
        );
        assert!(result.exec > TimeDelta::ZERO);
        assert!(result.gc_count > 0, "lusearch must GC even at small scale");
        assert!(result.gc_time > TimeDelta::ZERO);
        assert!(result.allocated > 0);
        result.trace.validate().expect("valid trace");
    }

    #[test]
    fn execute_is_ordered_and_memoized() {
        let bench = benchmark("lusearch").expect("exists");
        let mut plan = SweepPlan::new();
        let f2 = Freq::from_ghz(2.0);
        let f4 = Freq::from_ghz(4.0);
        plan.push(SimPoint::new(bench, f2, 0.02, 1));
        plan.push(SimPoint::new(bench, f4, 0.02, 1));
        plan.push(SimPoint::new(bench, f2, 0.02, 1)); // duplicate of [0]
        let ctx = ExecCtx::new(2);
        let results = ctx.execute(&plan).expect("runs complete");
        assert_eq!(results.len(), 3);
        assert_eq!(results[0], results[2], "duplicate point, same summary");
        assert_ne!(results[0].exec, results[1].exec, "frequencies differ");
        let stats = ctx.cache.stats();
        assert_eq!(stats.misses, 2, "two unique points");
        // Re-executing the same plan is all hits.
        let again = ctx.execute(&plan).expect("runs complete");
        assert_eq!(again, results);
        assert_eq!(ctx.cache.stats().misses, 2);
    }

    #[test]
    fn summary_matches_result() {
        let bench = benchmark("sunflow").expect("exists");
        let config = RunConfig::at_ghz(1.0).scaled(0.02);
        let r = try_run_benchmark(bench, config).expect("completes");
        let s = r.summarize();
        assert_eq!(s.exec, r.exec);
        assert_eq!(s.total_active, r.stats.total_active());
        assert_eq!(s.trace, r.trace);
    }

    #[test]
    fn watchdog_expires_inside_run_benchmark() {
        // An armed zero-budget watchdog must stop the machine at the
        // first stride check and surface as a structured error, not hang
        // or panic.
        let bench = benchmark("lusearch").expect("exists");
        let _guard = simx::watchdog::arm(Duration::ZERO);
        let err = try_run_benchmark(bench, RunConfig::at_ghz(2.0).scaled(0.02))
            .expect_err("zero budget must expire");
        assert!(
            matches!(err, depburst_core::DepburstError::WatchdogExpired { .. }),
            "got {err}"
        );
    }

    #[test]
    fn zero_timeout_points_fail_as_timeouts() {
        use crate::resilience::{FailureCause, RetryPolicy};
        let bench = benchmark("lusearch").expect("exists");
        let mut plan = SweepPlan::new();
        plan.push(SimPoint::new(bench, Freq::from_ghz(2.0), 0.02, 1));
        let ctx = ExecCtx::new(1)
            .with_policy(RetryPolicy::none())
            .with_timeout(Some(Duration::ZERO));
        let err = ctx
            .execute(&plan)
            .expect_err("zero budget must fail the sweep");
        assert!(
            matches!(
                err,
                depburst_core::DepburstError::SweepIncomplete { failed: 1, total: 1 }
            ),
            "got {err}"
        );
        let failures = ctx.failures();
        assert_eq!(failures.len(), 1);
        assert_eq!(failures[0].cause, FailureCause::Timeout);
        assert!(
            failures[0].detail.contains("watchdog"),
            "timeout detail must name the watchdog: {}",
            failures[0].detail
        );
    }
}
