//! Every metric the benchmark reports, with its unit, direction and (for
//! end-to-end metrics) the bound by which it may worsen. `BENCHMARK.json`
//! at the repository root lists the same metrics; a test keeps the two in
//! step.
//!
//! Every run reports every metric of its kind on every workload. A layer
//! metric in seconds or nanoseconds is one every workload's traced pass
//! exercises, so it is always measured; a layer only some workloads
//! exercise is reported as a share of attributed time or as a count, which
//! is 0 where the layer does not run.

use crate::stats::Better;

/// One reported metric.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Metric {
    /// Name, `[A-Za-z0-9_.-]`.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Which direction improves.
    pub better: Better,
    /// End-to-end metrics: the share of the parent's median by which the
    /// metric may worsen before a change counts as a regression.
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, bound: f64) -> Metric {
    Metric {
        name,
        unit,
        better: Better::Lower,
        bound: Some(bound),
    }
}

const fn lower(name: &'static str, unit: &'static str) -> Metric {
    Metric {
        name,
        unit,
        better: Better::Lower,
        bound: None,
    }
}

const fn higher(name: &'static str, unit: &'static str) -> Metric {
    Metric {
        name,
        unit,
        better: Better::Higher,
        bound: None,
    }
}

/// Metrics of an untraced run (`--trace 0`).
///
/// The bounds are the widest `BENCHMARK.json` allows, because narrower
/// ones fail on identical code. On a 2-vCPU Intel Xeon VM shared with
/// other tenants, raw operation times swung by up to 1.9x for minutes at a
/// time; rescaled by the host probe, ten-seed passes of every workload
/// still spread up to 0.10 of their median, and a bound should be about
/// three times the spread identical code shows. README.md has the numbers.
pub const END_TO_END: &[Metric] = &[
    // Median wall time of the run's operations, each rescaled to the
    // reference host speed (`host::REFERENCE_MS`): the time a user waits
    // for the figure, the replayed sweep, or the fleet simulation on a
    // host that no other tenant slows. Other tenants slowed the raw times
    // by up to 1.9x for minutes at a time; the rescaling divides most of
    // that out, and the median ignores single spikes.
    e2e("op_ms", "ms", 0.25),
    // Median over repeated set-ups of the preparation plus the first,
    // cold operation; work moved out of the timed operation lands here.
    // Its spreads ran widest (up to 0.16 over ten seeds), and it must have
    // the largest bound.
    e2e("setup_s", "s", 0.25),
    // Peak resident set through the first set-up: what one invocation of
    // the workload needs. It is nearly deterministic for a seed, but the
    // fleets' peaks differ between seeds: fleet-thermal's ranged from 41
    // to 48 MB over seeds 1 to 30, and its ten-seed spread reached 0.13.
    // The bound leaves room for about twice that.
    e2e("peak_rss_mb", "MB", 0.25),
];

/// Metrics of a traced run (`--trace 1`), medians over its traced passes.
/// A pass is the workload's preparation plus one operation.
pub const PER_LAYER: &[Metric] = &[
    higher("bench.trace_coverage", "ratio"),
    lower("bench.traced_vs_timed_pct", "%"),
    lower("simx.run.s", "s"),
    lower("simx.run.events", "count"),
    lower("simx.run.minstr", "Minstr"),
    lower("simx.run.ns_per_event", "ns"),
    lower("simx.harvest.s", "s"),
    lower("simx.sampling.extrapolate.self_pct", "%"),
    lower("simx.sampling.extensions", "count"),
    lower("workloads.install.s", "s"),
    lower("mrt.gc.collections", "count"),
    lower("mrt.gc.sim_s", "sim_s"),
    lower("core.predict.self_pct", "%"),
    lower("core.predict.calls", "count"),
    higher("core.predict.calls_per_s", "1/s"),
    lower("core.predict.mcrit.self_pct", "%"),
    lower("core.predict.mcrit_burst.self_pct", "%"),
    lower("core.predict.coop.self_pct", "%"),
    lower("core.predict.coop_burst.self_pct", "%"),
    lower("core.predict.dep.self_pct", "%"),
    lower("core.predict.dep_burst.self_pct", "%"),
    lower("core.dep_burst.abs_err_pct", "%"),
    lower("energy.manager.self_pct", "%"),
    lower("energy.manager.decisions", "count"),
    lower("energy.manager.switches", "count"),
    higher("energy.manager.savings_pct", "%"),
    lower("energy.manager.slowdown_pct", "%"),
    lower("harness.key.s", "s"),
    lower("harness.cache.self_s", "s"),
    higher("harness.cache.memory_hits", "count"),
    higher("harness.cache.disk_hits", "count"),
    lower("harness.cache.misses", "count"),
    higher("harness.cache.hit_ratio", "ratio"),
    lower("harness.cache.store.self_pct", "%"),
    lower("harness.cache.store_mb", "MB"),
    lower("harness.cache.load.self_pct", "%"),
    higher("harness.cache.load_mb_per_s", "MB/s"),
    higher("harness.pool.efficiency", "ratio"),
    lower("harness.report.self_pct", "%"),
    lower("fleet.characterize.wall_pct", "%"),
    lower("fleet.characterize.points", "count"),
    lower("fleet.rounds.self_pct", "%"),
    higher("fleet.rounds.machine_rounds_per_s", "1/s"),
    higher("fleet.rounds.machine_rounds_per_s.m64", "1/s"),
    higher("fleet.rounds.machine_rounds_per_s.m256", "1/s"),
    higher("fleet.rounds.machine_rounds_per_s.m1024", "1/s"),
    lower("fleet.rounds.degraded_machine_rounds", "count"),
    lower("fleet.rounds.transitions", "count"),
    lower("fleet.rounds.overshoot_rounds", "count"),
    lower("fleet.thermal.emergency_throttles", "count"),
    lower("fleet.thermal.shutdowns", "count"),
    lower("fleet.thermal.black_starts", "count"),
    lower("fleet.thermal.breaker_trips", "count"),
    higher("fleet.slo_attainment_pct", "%"),
    lower("fleet.energy_kj", "kJ"),
];

/// Looks a metric up by name in either list.
#[must_use]
pub fn find(name: &str) -> Option<&'static Metric> {
    END_TO_END.iter().chain(PER_LAYER).find(|m| m.name == name)
}
