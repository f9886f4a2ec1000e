//! Extension experiment: per-core DVFS with application/service thread
//! isolation.
//!
//! The paper leaves per-core DVFS as future work (§VII-A) and cites
//! Sartor et al. \[35\], who tease apart the performance impact of scaling
//! application vs. service (GC/JIT) threads in isolation. This experiment
//! reproduces that style of study on our substrate: application threads
//! are pinned to cores 0–2, service threads to core 3, and either group's
//! frequency is scaled while the other stays at 4 GHz.

use dacapo_sim::Benchmark;
use dvfs_trace::{CoreId, Freq};
use energyx::PowerModel;
use serde::Serialize;
use simx::{Machine, RunOutcome};

use crate::report::{pct, TextTable};
use crate::run::{finish_run, machine_config, ExecCtx};

/// Application threads on cores 0–2.
const APP_MASK: u8 = 0b0111;
/// Service threads (GC + JIT) on core 3.
const SERVICE_MASK: u8 = 0b1000;
/// The service core.
const SERVICE_CORE: CoreId = CoreId(3);

/// Which thread group is scaled.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum ScaledGroup {
    /// Everything at 4 GHz (the pinned baseline).
    None,
    /// Only the service core is scaled.
    Service,
    /// Only the application cores are scaled.
    Application,
}

/// One configuration's outcome.
#[derive(Debug, Clone, Serialize)]
pub struct PerCoreRow {
    /// Benchmark name.
    pub benchmark: String,
    /// Which group was scaled.
    pub group: ScaledGroup,
    /// The scaled group's frequency (GHz).
    pub scaled_ghz: f64,
    /// Execution time (seconds).
    pub exec_s: f64,
    /// Slowdown vs. the pinned all-4 GHz baseline.
    pub slowdown: f64,
    /// Energy savings vs. the pinned all-4 GHz baseline.
    pub savings: f64,
}

/// Runs one pinned configuration and returns (exec seconds, energy J).
fn run_pinned(
    bench: &Benchmark,
    scale: f64,
    seed: u64,
    group: ScaledGroup,
    scaled: Freq,
    power: &PowerModel,
) -> depburst_core::Result<(f64, f64)> {
    let mut machine = Machine::new(machine_config(Freq::from_ghz(4.0)));
    let mut config = bench.runtime_config();
    config.mutator_affinity = Some(APP_MASK);
    config.service_affinity = Some(SERVICE_MASK);
    let runtime = bench.install_with(&mut machine, scale, seed, config);

    match group {
        ScaledGroup::None => {}
        ScaledGroup::Service => {
            machine.set_core_frequency(SERVICE_CORE, scaled)?;
        }
        ScaledGroup::Application => {
            for c in 0..3 {
                machine.set_core_frequency(CoreId(c), scaled)?;
            }
        }
    }

    let outcome = machine.run()?;
    let RunOutcome::Completed(end) = outcome else {
        unreachable!("run() only returns at completion");
    };
    finish_run(&mut machine, &runtime)?;
    let exec = end.since(dvfs_trace::Time::ZERO);
    let stats = machine.stats();
    let freqs: Vec<Freq> = (0..4)
        .map(|c| machine.core_frequency(CoreId(c)))
        .collect();
    let energy = power.energy_of_heterogeneous_run(&freqs, exec, &stats.core_busy);
    Ok((exec.as_secs(), energy))
}

/// Runs the study for one benchmark on `ctx`, scaling each group through
/// 3, 2 and 1 GHz: the six scaled configurations fan out across workers
/// under the context's resilience stack (the study is complete-or-failed
/// — any configuration dead after retries yields `SweepIncomplete`).
/// Pinned runs bypass the memo cache — their per-core frequency overrides
/// are not part of a plain cacheable point.
pub fn collect_with(
    ctx: &ExecCtx,
    bench: &Benchmark,
    scale: f64,
    seed: u64,
) -> depburst_core::Result<Vec<PerCoreRow>> {
    let power = PowerModel::haswell_22nm();
    let f4 = Freq::from_ghz(4.0);
    let (base_exec, base_energy) = run_pinned(bench, scale, seed, ScaledGroup::None, f4, &power)?;
    let mut rows = vec![PerCoreRow {
        benchmark: bench.name.to_owned(),
        group: ScaledGroup::None,
        scaled_ghz: 4.0,
        exec_s: base_exec,
        slowdown: 0.0,
        savings: 0.0,
    }];
    let mut grid = Vec::new();
    for group in [ScaledGroup::Service, ScaledGroup::Application] {
        for ghz in [3.0, 2.0, 1.0] {
            grid.push((
                format!("percore {}/{:?}@{ghz}", bench.name, group),
                (group, ghz),
            ));
        }
    }
    let scaled = ctx.collect_resilient(grid, |&(group, ghz), _attempt| {
        let (exec, energy) = run_pinned(bench, scale, seed, group, Freq::from_ghz(ghz), &power)?;
        Ok(PerCoreRow {
            benchmark: bench.name.to_owned(),
            group,
            scaled_ghz: ghz,
            exec_s: exec,
            slowdown: exec / base_exec - 1.0,
            savings: 1.0 - energy / base_energy,
        })
    })?;
    rows.extend(scaled);
    Ok(rows)
}

/// Renders one benchmark's table.
#[must_use]
pub fn render(rows: &[PerCoreRow]) -> String {
    let Some(first) = rows.first() else {
        return String::new();
    };
    let mut t = TextTable::new(&["scaled group", "frequency", "slowdown", "energy savings"]);
    for r in rows {
        t.row(vec![
            format!("{:?}", r.group),
            format!("{} GHz", r.scaled_ghz),
            pct(r.slowdown),
            pct(r.savings),
        ]);
    }
    format!(
        "per-core DVFS study on {} (apps on cores 0-2, services on core 3)\n{}",
        first.benchmark,
        t.render()
    )
}
