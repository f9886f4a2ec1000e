//! Figure 6: per-benchmark slowdown and energy savings of the DEP+BURST
//! energy manager at a user-specified slowdown threshold (5% / 10%).

use dacapo_sim::{all_benchmarks, BenchClass, Benchmark};
use dvfs_trace::Freq;
use energyx::{ManagerConfig, PowerModel};
use serde::Serialize;
use simx::{Machine, MachineConfig};

use crate::report::{pct, TextTable};
use crate::run::{machine_config, run_managed, ExecCtx, SimPoint, SweepPlan};

/// One benchmark's managed-run outcome.
#[derive(Debug, Clone, Serialize)]
pub struct Fig6Row {
    /// Benchmark name.
    pub benchmark: String,
    /// "M" or "C".
    pub class: String,
    /// The user-specified threshold.
    pub threshold: f64,
    /// Measured slowdown vs. always running at 4 GHz.
    pub slowdown: f64,
    /// Energy savings vs. always running at 4 GHz (positive = saved).
    pub savings: f64,
    /// Time-weighted mean frequency under management (GHz).
    pub mean_ghz: f64,
}

/// The max-frequency baseline for a benchmark on `ctx`: (execution
/// seconds, energy joules) of a single cacheable point every energy
/// experiment shares.
pub fn baseline_with(
    ctx: &ExecCtx,
    bench: &Benchmark,
    scale: f64,
    seed: u64,
    power: &PowerModel,
) -> depburst_core::Result<(f64, f64)> {
    let f4 = Freq::from_ghz(4.0);
    let mut plan = SweepPlan::new();
    let Some(bench) = dacapo_sim::benchmark(bench.name) else {
        return Err(depburst_core::DepburstError::Machine {
            detail: format!("unknown benchmark {}", bench.name),
        });
    };
    plan.push(SimPoint::new(bench, f4, scale, seed));
    let result = &ctx.execute(&plan)?[0];
    let cores = MachineConfig::haswell_quad().cores;
    let energy = power.energy_of_run(f4, result.exec, result.total_active, cores);
    Ok((result.exec.as_secs(), energy))
}

/// Runs one benchmark under the DEP+BURST energy manager on `ctx`. The
/// baseline is memoized; the managed run itself is not (the manager
/// mutates frequency mid-run, so its machine is not a plain cacheable
/// point).
pub fn managed_with(
    ctx: &ExecCtx,
    bench: &Benchmark,
    scale: f64,
    seed: u64,
    threshold: f64,
) -> depburst_core::Result<Fig6Row> {
    let config = ManagerConfig::with_threshold(threshold);
    let (base_exec, base_energy) = baseline_with(ctx, bench, scale, seed, &config.power)?;

    let machine = Machine::new(machine_config(Freq::from_ghz(4.0)));
    let report = run_managed(machine, bench, scale, seed, config)?;

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

/// Runs all benchmarks at one threshold on `ctx`'s pool; managed runs
/// execute one per worker, rows return in benchmark order. Each
/// benchmark runs under the context's resilience stack (panic isolation,
/// watchdog, retry): the figure is complete-or-failed, so every
/// surviving benchmark finishes (and is cached/checkpointed) before a dead
/// one turns the sweep into `SweepIncomplete`.
pub fn collect_with(
    ctx: &ExecCtx,
    threshold: f64,
    scale: f64,
    seed: u64,
) -> depburst_core::Result<Vec<Fig6Row>> {
    let benches: Vec<(String, &Benchmark)> = all_benchmarks()
        .iter()
        .map(|b| (format!("fig6 {} @ {:.0}%", b.name, threshold * 100.0), b))
        .collect();
    ctx.collect_resilient(benches, |b, _attempt| {
        managed_with(ctx, b, scale, seed, threshold)
    })
}

/// Mean savings over the memory-intensive benchmarks (the paper's headline
/// aggregates: 13% at 5%, 19% at 10%).
#[must_use]
pub fn memory_mean_savings(rows: &[Fig6Row]) -> f64 {
    let mem: Vec<f64> = rows
        .iter()
        .filter(|r| r.class == "M")
        .map(|r| r.savings)
        .collect();
    if mem.is_empty() {
        0.0
    } else {
        mem.iter().sum::<f64>() / mem.len() as f64
    }
}

/// Renders the table.
#[must_use]
pub fn render(rows: &[Fig6Row]) -> String {
    let Some(first) = rows.first() else {
        return String::new();
    };
    let mut t = TextTable::new(&["benchmark", "type", "slowdown", "energy savings", "mean GHz"]);
    for r in rows {
        t.row(vec![
            r.benchmark.clone(),
            r.class.clone(),
            pct(r.slowdown),
            pct(r.savings),
            format!("{:.2}", r.mean_ghz),
        ]);
    }
    format!(
        "energy manager, tolerable slowdown {:.0}% (memory-intensive mean savings {})\n{}",
        first.threshold * 100.0,
        pct(memory_mean_savings(rows)),
        t.render()
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(name: &str, class: &str, savings: f64) -> Fig6Row {
        Fig6Row {
            benchmark: name.into(),
            class: class.into(),
            threshold: 0.05,
            slowdown: 0.04,
            savings,
            mean_ghz: 3.5,
        }
    }

    #[test]
    fn memory_mean_ignores_compute_benchmarks() {
        let rows = vec![
            row("xalan", "M", 0.10),
            row("lusearch", "M", 0.20),
            row("sunflow", "C", 0.99),
        ];
        assert!((memory_mean_savings(&rows) - 0.15).abs() < 1e-12);
        assert_eq!(memory_mean_savings(&[]), 0.0);
    }

    #[test]
    fn render_mentions_threshold_and_rows() {
        let rows = vec![row("xalan", "M", 0.13)];
        let s = render(&rows);
        assert!(s.contains("5%"));
        assert!(s.contains("xalan"));
        assert!(s.contains("+13.0%"));
    }
}
