//! Figure 7: the dynamic energy manager vs the static-optimal oracle.
//!
//! The oracle sweeps fixed frequencies over the whole ladder, measures
//! energy with the same power model, and picks the minimum-energy point
//! whose measured slowdown stays within the same threshold the manager
//! honours. The dynamic manager can beat it on phase-y (memory-intensive)
//! applications because it adapts per quantum.

use dacapo_sim::{all_benchmarks, Benchmark};
use dvfs_trace::{Freq, FreqLadder};
use energyx::{static_optimal, PowerModel, StaticPoint, StaticSweep};
use serde::Serialize;
use simx::MachineConfig;

use super::fig6;
use crate::report::{pct, TextTable};
use crate::run::{ExecCtx, SimPoint, SweepPlan};

/// One benchmark's Fig. 7 comparison.
#[derive(Debug, Clone, Serialize)]
pub struct Fig7Row {
    /// Benchmark name.
    pub benchmark: String,
    /// "M" or "C".
    pub class: String,
    /// The slowdown threshold both policies honour.
    pub threshold: f64,
    /// Dynamic manager savings vs. 4 GHz.
    pub dynamic_savings: f64,
    /// Static-optimal savings vs. 4 GHz.
    pub static_savings: f64,
    /// The static-optimal frequency (GHz).
    pub static_ghz: f64,
}

/// Sweeps constant frequencies for one benchmark on `ctx`: every ladder
/// point is a plain cacheable run. `step_mhz` coarsens the ladder to bound
/// the sweep's cost.
pub fn sweep_with(
    ctx: &ExecCtx,
    bench: &'static Benchmark,
    scale: f64,
    seed: u64,
    power: &PowerModel,
    step_mhz: u32,
) -> depburst_core::Result<StaticSweep> {
    let ladder = FreqLadder::new(Freq::from_ghz(1.0), Freq::from_ghz(4.0), step_mhz)
        .expect("valid ladder");
    let cores = MachineConfig::haswell_quad().cores;
    let freqs: Vec<Freq> = ladder.iter().collect();
    let mut plan = SweepPlan::new();
    for &freq in &freqs {
        plan.push(SimPoint::new(bench, freq, scale, seed));
    }
    let results = ctx.execute(&plan)?;
    let points = freqs
        .iter()
        .zip(&results)
        .map(|(&freq, r)| StaticPoint {
            freq,
            exec: r.exec,
            energy_j: power.energy_of_run(freq, r.exec, r.total_active, cores),
        })
        .collect();
    Ok(StaticSweep { points })
}

/// Runs the comparison for all benchmarks at one threshold on `ctx`'s
/// pool: benchmarks fan out across workers, and each benchmark's ladder
/// points are memoized (the 4 GHz point, for instance, is shared with the
/// fig6 baseline). Benchmarks run under the context's resilience stack; a
/// benchmark that still fails after retries fails the whole figure
/// (`SweepIncomplete`) only after the surviving ones finished and were
/// cached/checkpointed.
pub fn collect_with(
    ctx: &ExecCtx,
    threshold: f64,
    scale: f64,
    seed: u64,
    step_mhz: u32,
) -> depburst_core::Result<Vec<Fig7Row>> {
    let power = PowerModel::haswell_22nm();
    let benches: Vec<(String, &'static Benchmark)> = all_benchmarks()
        .iter()
        .map(|b| (format!("fig7 {}", b.name), b))
        .collect();
    ctx.collect_resilient(benches, |bench, _attempt| {
        let dynamic = fig6::managed_with(ctx, bench, scale, seed, threshold)?;
        let s = sweep_with(ctx, bench, scale, seed, &power, step_mhz)?;
        let base = s.baseline().expect("sweep nonempty");
        let best = static_optimal(&s, Some(threshold)).expect("baseline always qualifies");
        Ok(Fig7Row {
            benchmark: bench.name.to_owned(),
            class: bench.class.label().to_owned(),
            threshold,
            dynamic_savings: dynamic.savings,
            static_savings: 1.0 - best.energy_j / base.energy_j,
            static_ghz: best.freq.ghz(),
        })
    })
}

/// Renders the table.
#[must_use]
pub fn render(rows: &[Fig7Row]) -> String {
    let Some(first) = rows.first() else {
        return String::new();
    };
    let mut t = TextTable::new(&[
        "benchmark",
        "type",
        "dynamic savings",
        "static-optimal savings",
        "static f*",
    ]);
    for r in rows {
        t.row(vec![
            r.benchmark.clone(),
            r.class.clone(),
            pct(r.dynamic_savings),
            pct(r.static_savings),
            format!("{:.3} GHz", r.static_ghz),
        ]);
    }
    let mem_dyn: Vec<f64> = rows
        .iter()
        .filter(|r| r.class == "M")
        .map(|r| r.dynamic_savings - r.static_savings)
        .collect();
    let adv = if mem_dyn.is_empty() {
        0.0
    } else {
        mem_dyn.iter().sum::<f64>() / mem_dyn.len() as f64
    };
    format!(
        "dynamic vs static-optimal, threshold {:.0}% (memory-intensive dynamic advantage {})\n{}",
        first.threshold * 100.0,
        pct(adv),
        t.render()
    )
}
