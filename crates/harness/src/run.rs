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
use depburst::Dep;
use dvfs_trace::{ExecutionTrace, Freq, TimeDelta};
use energyx::{EnergyManager, ManagerConfig, ManagerReport};
use mrt::ManagedRuntime;
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
    /// prefix of the full run (see `simx::sampling`), not the whole run,
    /// shared with that region's own summary rather than copied. It
    /// serializes exactly as the trace itself.
    pub trace: Arc<ExecutionTrace>,
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
    /// Condenses the result into its cacheable summary, moving the trace
    /// into it without a copy.
    #[must_use]
    pub fn summarize(mut self) -> RunSummary {
        // The memo keeps the trace for the rest of the sweep, so give back
        // the growth slack of the arrays the simulator pushed to. The
        // system allocator shrinks them in place: nothing is copied.
        self.trace.epochs.shrink_to_fit();
        self.trace.markers.shrink_to_fit();
        RunSummary {
            exec: self.exec,
            gc_time: self.gc_time,
            gc_count: self.gc_count,
            allocated: self.allocated,
            total_active: self.stats.total_active(),
            trace: Arc::new(self.trace),
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

/// The paper's quad-core machine configuration, starting at `freq`: the
/// machine every harness run simulates and every memo key digests.
#[must_use]
pub fn machine_config(freq: Freq) -> MachineConfig {
    let mut mc = MachineConfig::haswell_quad();
    mc.initial_freq = freq;
    mc
}

/// Finishes a run on `machine`: merges into its monitor the GC-handoff
/// violations `runtime`'s threads recorded on the side (they cannot reach
/// the monitor mid-run), then reports the monitor's first violation.
/// Every run the harness drives ends here: plain points, fuzz cases, and
/// the managed and pinned runs.
///
/// # Errors
/// The first recorded violation, as
/// [`DepburstError::InvariantViolation`](depburst_core::DepburstError::InvariantViolation).
pub fn finish_run(machine: &mut Machine, runtime: &ManagedRuntime) -> depburst_core::Result<()> {
    if machine.monitor().on(simx::Invariant::GcPauseAccounting) {
        for (at_secs, detail) in runtime.take_gc_violations() {
            machine
                .monitor_mut()
                .record(simx::Invariant::GcPauseAccounting, at_secs, detail);
        }
    }
    machine.invariant_error().map_or(Ok(()), Err)
}

/// Runs `bench` on `machine` under the DEP+BURST energy manager with
/// `config`, then finishes the run ([`finish_run`]). The caller builds the
/// machine at the manager's starting frequency and may set its monitor
/// mode or install faults first.
///
/// # Errors
/// A simulator failure, a transition error the manager does not absorb,
/// or the run's first invariant violation.
pub fn run_managed(
    mut machine: Machine,
    bench: &Benchmark,
    scale: f64,
    seed: u64,
    config: ManagerConfig,
) -> depburst_core::Result<ManagerReport> {
    let runtime = bench.install(&mut machine, scale, seed);
    let report = EnergyManager::new(config, Box::new(Dep::dep_burst())).run(&mut machine)?;
    finish_run(&mut machine, &runtime)?;
    Ok(report)
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
    let mut machine = Machine::new(machine_config(config.freq));
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
    finish_run(&mut machine, &runtime)?;
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
        self.complete(self.run_plan(namespace, plan, self.sampling.as_ref()))
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
        self.complete(self.run_plan(None, plan, sampling))
    }

    /// Folds per-item outcomes into a complete-or-failed sweep: ultimate
    /// failures are recorded on the context, and any one of them turns
    /// the whole sweep into `SweepIncomplete` — after the surviving items
    /// finished, so their simulations are cached and checkpointed for a
    /// retry.
    fn complete<R>(&self, outcomes: Vec<Result<R, PointFailure>>) -> depburst_core::Result<Vec<R>> {
        let total = outcomes.len();
        let mut ok = Vec::with_capacity(total);
        for outcome in outcomes {
            match outcome {
                Ok(r) => ok.push(r),
                Err(failure) => self.record_failure(failure),
            }
        }
        let failed = total - ok.len();
        if failed > 0 {
            return Err(depburst_core::DepburstError::SweepIncomplete { failed, total });
        }
        Ok(ok)
    }

    /// The point pipeline under every `execute` variant, with the
    /// sampling setting explicit: key the plan, then run each point on
    /// the pool. Returns every point's summary or structured failure, in
    /// plan order.
    fn run_plan(
        &self,
        namespace: Option<&str>,
        plan: &SweepPlan,
        sampling: Option<&simx::SamplingConfig>,
    ) -> Vec<Result<Arc<RunSummary>, PointFailure>> {
        // `DEPBURST_TRACE_POINTS=1` logs every point with its key and
        // wall-clock to stderr — the first tool to reach for when a sweep
        // stalls or the cache misses unexpectedly.
        let tracing = std::env::var_os("DEPBURST_TRACE_POINTS").is_some();
        pool::map(key_plan(plan, sampling), self.jobs, |kp| {
            self.run_point(&kp, namespace, sampling, tracing)
        })
    }

    /// One point's stages: fail closed on crashed storage, replay the
    /// checkpoint, compute through the memo (one exact run, or a sampled
    /// estimate), then commit or quarantine.
    fn run_point(
        &self,
        kp: &KeyedPoint,
        namespace: Option<&str>,
        sampling: Option<&simx::SamplingConfig>,
        tracing: bool,
    ) -> Result<Arc<RunSummary>, PointFailure> {
        let SimPoint { bench, config } = kp.point;
        // A fired crash point means the simulated machine lost power:
        // remaining points fail closed instead of simulating against
        // storage that no longer accepts writes.
        if self.storage.as_ref().is_some_and(|s| s.crashed()) {
            return Err(PointFailure {
                label: format!("{} @ {} seed {}", bench.name, config.freq, config.seed),
                cause: FailureCause::Storage,
                attempts: 0,
                detail: "simulated power loss: storage crashed; abandoning the sweep".into(),
            });
        }
        let checkpoint_key = namespace.map_or(kp.key, |ns| kp.key.in_namespace(ns));
        let t0 = std::time::Instant::now();
        if let Some(summary) = self.replay(kp.key, checkpoint_key, tracing) {
            return Ok(summary);
        }
        let out = match sampling {
            Some(cfg) => self.cache.get_or_compute(kp.key, || {
                if tracing {
                    eprintln!("  {}: miss, sampling", kp.key.hex());
                }
                self.sample(kp, cfg, tracing)
            }),
            None => self.run_exact(kp, None, tracing),
        };
        if tracing {
            eprintln!(
                "point {} @ {} seed {} [{}] in {:.3}s",
                bench.name,
                config.freq,
                config.seed,
                kp.key.hex(),
                t0.elapsed().as_secs_f64()
            );
        }
        self.commit(kp.key, checkpoint_key, out)
    }

    /// Serves a point a resumed run already completed from the
    /// checkpoint, seeding the memo with it, without touching the
    /// simulator or the cache statistics.
    fn replay(&self, key: SimKey, checkpoint_key: SimKey, tracing: bool) -> Option<Arc<RunSummary>> {
        let summary = self.checkpoint.as_ref()?.load(checkpoint_key)?;
        self.cache.seed(key, &summary);
        if tracing {
            eprintln!("  {}: replayed from checkpoint", key.hex());
        }
        Some(summary)
    }

    /// Runs one exact point through the memo: on a miss, simulates it
    /// under the resilience stack (panic isolation, watchdog, retry).
    /// `region` of `Some(fraction)` runs that prefix of a sampled point
    /// instead: the point at `fraction` of its scale, keyed as the exact
    /// run it is. The one place a cacheable exact run is attempted.
    fn run_exact(
        &self,
        kp: &KeyedPoint,
        region: Option<f64>,
        tracing: bool,
    ) -> Result<Arc<RunSummary>, PointFailure> {
        let SimPoint { bench, mut config } = kp.point;
        let key = match region {
            Some(fraction) => {
                config.scale *= fraction;
                kp.exact_key(config.scale)
            }
            None => kp.key,
        };
        self.cache.get_or_compute(key, || {
            if tracing {
                match region {
                    Some(fraction) => {
                        eprintln!("  {}: region {fraction} miss, simulating", key.hex());
                    }
                    None => eprintln!("  {}: miss, simulating", key.hex()),
                }
            }
            let p = kp.point.config;
            let region_tag = region.map_or_else(String::new, |f| format!(" [region {f}]"));
            let label = format!(
                "{} @ {} seed {} scale {}{region_tag}",
                bench.name, p.freq, p.seed, p.scale
            );
            attempt_resilient(&self.policy, self.point_timeout, &self.rstats, &label, |_attempt| {
                // Cacheable points carry no fault injector, so the attempt
                // index cannot change the result — a retry re-runs the
                // identical pure simulation.
                try_run_benchmark(bench, config).map(RunResult::summarize)
            })
        })
    }

    /// Computes one sampled point: runs the probe and measure prefix
    /// regions as ordinary exact runs (shared through the memo with any
    /// other consumer of those scales), extrapolates the whole run, and —
    /// when the measure region fails its phase-recurrence check — lets
    /// the region scheduler widen it once and re-extrapolates. A failed
    /// region fails the point with the region's own failure.
    fn sample(
        &self,
        kp: &KeyedPoint,
        cfg: &simx::SamplingConfig,
        tracing: bool,
    ) -> Result<RunSummary, PointFailure> {
        let schedule = cfg.schedule();
        let probe = self.run_exact(kp, Some(schedule.probe), tracing)?;
        let extrapolate = |measure: &RunSummary, fraction: f64| {
            simx::sampling::extrapolate(
                &region_of(&probe, schedule.probe),
                &region_of(measure, fraction),
                &measure.trace,
                cfg,
            )
        };
        let mut measure_fraction = schedule.measure;
        let mut measure = self.run_exact(kp, Some(measure_fraction), tracing)?;
        let mut x = extrapolate(&measure, measure_fraction);
        let mut extended = false;
        if let Some(wider) = cfg.extension(x.recurrence) {
            measure = self.run_exact(kp, Some(wider), tracing)?;
            measure_fraction = wider;
            extended = true;
            x = extrapolate(&measure, measure_fraction);
        }
        Ok(RunSummary {
            exec: x.exec,
            gc_time: x.gc_time,
            gc_count: x.gc_count,
            allocated: x.allocated,
            total_active: x.total_active,
            trace: Arc::clone(&measure.trace),
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

    /// Commits a computed point to the checkpoint. A point whose inputs
    /// produced self-inconsistent physics instead has any persisted
    /// envelope withdrawn, so a resume re-simulates instead of trusting it.
    fn commit(
        &self,
        key: SimKey,
        checkpoint_key: SimKey,
        out: Result<Arc<RunSummary>, PointFailure>,
    ) -> Result<Arc<RunSummary>, PointFailure> {
        match &out {
            Ok(summary) => {
                if let Some(checkpoint) = &self.checkpoint {
                    checkpoint.store(checkpoint_key, summary);
                }
            }
            Err(failure) if failure.cause == FailureCause::Invariant => {
                self.cache.quarantine_key(key, &failure.detail);
            }
            Err(_) => {}
        }
        out
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
    /// structurally complete-or-failed, like [`execute`](Self::execute):
    /// every item runs, and any ultimate failure turns the whole sweep
    /// into `SweepIncomplete`.
    ///
    /// # Errors
    /// `SweepIncomplete` when any item still failed after retries.
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
        self.complete(self.map_resilient(items, f))
    }
}

/// A plan point with its memo key and the input digests its sampled
/// regions key from.
#[derive(Debug, Clone, Copy)]
struct KeyedPoint {
    point: SimPoint,
    /// The point's memo key: exact, or under the sampling digest.
    key: SimKey,
    bench_d: u128,
    machine_d: u128,
    fault_d: u128,
}

impl KeyedPoint {
    /// The memo key of an exact run of this point at `scale`.
    fn exact_key(&self, scale: f64) -> SimKey {
        crate::cache::sim_key_from_digests(
            self.bench_d,
            self.machine_d,
            self.fault_d,
            scale,
            self.point.config.seed,
        )
    }
}

/// Keys every point of `plan`. Key derivation walks the benchmark spec
/// and the whole machine config; a sweep shares a handful of (benchmark,
/// frequency) combinations across hundreds of points, so each input is
/// digested once and the per-point keys compose from the digests. A
/// sampled sweep keys its points under (exact key × sampling digest):
/// exact and sampled results can never collide, nor can two different
/// region placements.
fn key_plan(plan: &SweepPlan, sampling: Option<&simx::SamplingConfig>) -> Vec<KeyedPoint> {
    let fault_d = crate::cache::fault_digest(None);
    let sampling_d = sampling.map(crate::cache::sampling_digest);
    let mut bench_digests: HashMap<usize, u128> = HashMap::new();
    let mut machine_digests: HashMap<u64, u128> = HashMap::new();
    plan.points
        .iter()
        .map(|&point| {
            let bench_d = *bench_digests
                .entry(point.bench as *const Benchmark as usize)
                .or_insert_with(|| crate::cache::bench_digest(point.bench));
            let machine_d = *machine_digests
                .entry(point.config.freq.hz().to_bits())
                .or_insert_with(|| machine_config(point.config.freq).digest());
            let exact = crate::cache::sim_key_from_digests(
                bench_d,
                machine_d,
                fault_d,
                point.config.scale,
                point.config.seed,
            );
            KeyedPoint {
                point,
                key: sampling_d.map_or(exact, |sd| exact.with_sampling(sd)),
                bench_d,
                machine_d,
                fault_d,
            }
        })
        .collect()
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
        let (exec, total_active) = (r.exec, r.stats.total_active());
        let buffers = |t: &ExecutionTrace| (t.threads.as_ptr(), t.epochs[0].threads.as_ptr());
        let moved = buffers(&r.trace);
        let s = r.summarize();
        assert_eq!(s.exec, exec);
        assert_eq!(s.total_active, total_active);
        assert_eq!(
            buffers(&s.trace),
            moved,
            "the trace moves into the summary, not a copy of it"
        );
    }

    #[test]
    fn a_sampled_point_shares_its_measure_regions_trace() {
        let bench = benchmark("lusearch").expect("exists");
        let point = SimPoint::new(bench, Freq::from_ghz(2.0), 0.05, 1);
        let mut plan = SweepPlan::new();
        plan.push(point);
        let ctx = ExecCtx::sequential().with_sampling(Some(simx::SamplingConfig::default()));
        let sampled = ctx.execute(&plan).expect("runs complete").remove(0);
        let info = sampled.sampled.as_ref().expect("a sampled summary");

        let mut mc = MachineConfig::haswell_quad();
        mc.initial_freq = point.config.freq;
        let measure_key = crate::cache::sim_key(
            bench,
            &mc,
            None,
            point.config.scale * info.measure_fraction,
            point.config.seed,
        );
        let measure = ctx.cache.peek(measure_key).expect("the measure sub-run is memoized");
        assert!(measure.sampled.is_none(), "the sub-run is an exact run");
        assert!(
            Arc::ptr_eq(&sampled.trace, &measure.trace),
            "the sampled point holds the measure sub-run's trace, not a copy"
        );
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

    #[test]
    fn a_sampled_point_fails_with_its_regions_failure() {
        // The probe region (scale 0.001) finishes before the watchdog's
        // first check; the measure region is the one that times out.
        let bench = benchmark("lusearch").expect("exists");
        let mut plan = SweepPlan::new();
        plan.push(SimPoint::new(bench, Freq::from_ghz(2.0), 0.02, 1));
        let cfg = simx::SamplingConfig::default();
        let ctx = ExecCtx::new(1)
            .with_policy(RetryPolicy::none())
            .with_timeout(Some(Duration::ZERO))
            .with_sampling(Some(cfg));
        let err = ctx.execute(&plan).expect_err("zero budget must fail the sweep");
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
        let region = format!("scale 0.02 [region {}]", cfg.schedule().measure);
        assert!(
            failures[0].label.ends_with(&region),
            "the measure region's own failure, not an anonymous one: {}",
            failures[0].label
        );
    }

    #[test]
    fn a_managed_run_surfaces_its_monitors_violations() {
        let bench = benchmark("lusearch").expect("exists");
        let mut machine = Machine::new(machine_config(Freq::from_ghz(4.0)));
        machine.set_invariant_mode(simx::InvariantMode::Full);
        machine.monitor_mut().sabotage(simx::Invariant::CounterConservation);
        let err = run_managed(machine, bench, 0.02, 1, ManagerConfig::with_threshold(0.05))
            .expect_err("the sabotaged check must fail the run");
        assert!(
            matches!(err, depburst_core::DepburstError::InvariantViolation { .. }),
            "got {err}"
        );
    }
}
