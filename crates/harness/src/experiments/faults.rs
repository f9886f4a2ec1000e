//! Fault-injection sweep: predictor accuracy and managed-energy
//! degradation under each injected fault class (the robustness companion
//! to Figs. 3 and 6).
//!
//! For every (benchmark, fault class, intensity) cell the sweep reports:
//!
//! * **prediction error** — relative error of DEP+BURST and M+CRIT
//!   predicting the 4 GHz execution time from a 2 GHz trace whose
//!   harvest passed through the fault injector (averaged over several
//!   injector seeds so probabilistic classes show their expected effect);
//! * **managed degradation** — slowdown and *ground-truth* energy savings
//!   of the hardened DEP+BURST energy manager running against a machine
//!   with the fault installed, vs. the clean always-4 GHz baseline, plus
//!   how often the graceful-degradation machinery engaged.
//!
//! One `none` anchor row per benchmark pins the fault-free behaviour the
//! degraded cells are read against.

use dacapo_sim::{benchmark, Benchmark};
use depburst::{Dep, DvfsPredictor, MCrit, NonScalingModel};
use dvfs_trace::{ExecutionTrace, Freq};
use energyx::{EnergyManager, ManagerConfig, PowerModel};
use serde::Serialize;
use simx::{FaultClass, FaultConfig, FaultInjector, Machine, MachineConfig};

use super::fig6;
use crate::report::{pct, pct_abs, TextTable};
use crate::run::{ExecCtx, SimPoint, SweepPlan};

/// Independent injector seeds averaged per prediction-error cell.
const PREDICTION_SAMPLES: u64 = 8;

/// The benchmarks swept (one memory-intensive, one compute-intensive).
pub const SWEEP_BENCHMARKS: [&str; 2] = ["lusearch", "sunflow"];

/// The fault intensities the `faults` binary sweeps.
pub const INTENSITIES: [f64; 4] = [0.1, 0.25, 0.5, 1.0];

/// One (benchmark, fault class, intensity) cell of the sweep.
#[derive(Debug, Clone, Serialize)]
pub struct FaultsRow {
    /// Benchmark name.
    pub benchmark: String,
    /// Fault class name, or `"none"` for the anchor row.
    pub fault: String,
    /// Fault intensity in `[0, 1]`.
    pub intensity: f64,
    /// Mean relative 4 GHz prediction error of DEP+BURST on faulted traces.
    pub dep_err: f64,
    /// Mean relative 4 GHz prediction error of M+CRIT+BURST on the same.
    pub mcrit_err: f64,
    /// Managed slowdown vs. the clean always-4 GHz baseline.
    pub slowdown: f64,
    /// Ground-truth energy savings vs. the clean always-4 GHz baseline.
    pub savings: f64,
    /// Fallback-to-max engagements during the managed run.
    pub fallbacks: u64,
    /// DVFS transitions the platform denied during the managed run.
    pub denied: u64,
}

fn rel_err(predicted: f64, truth: f64) -> f64 {
    if !predicted.is_finite() || truth <= 0.0 {
        return 1.0;
    }
    (predicted - truth).abs() / truth
}

/// Fault configuration for one cell (`None` class = inert anchor).
fn cell_config(class: Option<FaultClass>, intensity: f64, seed: u64) -> FaultConfig {
    match class {
        Some(c) => FaultConfig::single(c, intensity, seed),
        None => FaultConfig::none(seed),
    }
}

/// Evaluates one sweep cell. `clean_trace` was measured at 2 GHz,
/// `truth_secs` is the measured clean 4 GHz execution time, and
/// `(base_exec, base_energy)` is the clean always-4 GHz baseline.
/// `attempt` redraws the injector seeds on retry (attempt 0 keeps them
/// bit-identical to the pre-retry harness) so a transient injected fault
/// can clear on the next try while the workload itself stays fixed.
#[allow(clippy::too_many_arguments)]
fn evaluate(
    bench: &Benchmark,
    class: Option<FaultClass>,
    intensity: f64,
    scale: f64,
    seed: u64,
    attempt: u32,
    threshold: f64,
    clean_trace: &ExecutionTrace,
    truth_secs: f64,
    base_exec: f64,
    base_energy: f64,
) -> depburst_core::Result<FaultsRow> {
    let dep = Dep::dep_burst();
    let mcrit = MCrit::new(NonScalingModel::Crit, true);
    let f4 = Freq::from_ghz(4.0);
    let fault_seed = simx::faults::retry_seed(seed, attempt);
    let mut dep_err = 0.0;
    let mut mcrit_err = 0.0;
    for k in 0..PREDICTION_SAMPLES {
        let sample_seed = fault_seed.wrapping_add(k.wrapping_mul(0x9E37_79B9));
        let corrupted = FaultInjector::new(cell_config(class, intensity, sample_seed))
            .filter_harvest(clean_trace.clone());
        dep_err += rel_err(dep.predict(&corrupted, f4).as_secs(), truth_secs);
        mcrit_err += rel_err(mcrit.predict(&corrupted, f4).as_secs(), truth_secs);
    }
    dep_err /= PREDICTION_SAMPLES as f64;
    mcrit_err /= PREDICTION_SAMPLES as f64;

    let mut mc = MachineConfig::haswell_quad();
    mc.initial_freq = f4;
    let mut machine = Machine::new(mc);
    bench.install(&mut machine, scale, seed);
    machine.install_faults(cell_config(class, intensity, fault_seed));
    let manager = EnergyManager::new(
        ManagerConfig::hardened(threshold),
        Box::new(Dep::dep_burst()),
    );
    let report = manager.run(&mut machine)?;

    Ok(FaultsRow {
        benchmark: bench.name.to_owned(),
        fault: class.map_or_else(|| "none".to_owned(), |c| c.name().to_owned()),
        intensity,
        dep_err,
        mcrit_err,
        slowdown: report.exec.as_secs() / base_exec - 1.0,
        savings: 1.0 - report.true_energy_j / base_energy,
        fallbacks: report.fallback_engagements,
        denied: report.denied_transitions,
    })
}

/// Runs the full sweep: every fault class at every intensity (plus one
/// fault-free anchor row) for each benchmark in [`SWEEP_BENCHMARKS`].
///
/// # Panics
/// Panics if a run fails; prefer [`collect_with`] in binaries.
#[must_use]
pub fn collect(scale: f64, seed: u64, threshold: f64, intensities: &[f64]) -> Vec<FaultsRow> {
    collect_with(&ExecCtx::sequential(), scale, seed, threshold, intensities, None)
        .unwrap_or_else(|e| panic!("faults: {e}"))
}

/// Runs the full sweep on `ctx`: the clean 2/4 GHz measurements are
/// cacheable points, the baseline is shared with fig6, and the faulted
/// managed cells fan out across workers (uncached — the injector mutates
/// machine state mid-run).
///
/// `panic_point` appends one seeded [`FaultClass::PanicPoint`] cell per
/// benchmark that panics *inside point evaluation* with the given
/// probability. Unlike the other experiments this sweep is
/// partial-by-design: cells that still fail after retries are dropped
/// from the returned rows and recorded on `ctx` (so the binary writes
/// `results/faults_failures.json` and exits 2), while every surviving
/// cell keeps its row.
pub fn collect_with(
    ctx: &ExecCtx,
    scale: f64,
    seed: u64,
    threshold: f64,
    intensities: &[f64],
    panic_point: Option<f64>,
) -> depburst_core::Result<Vec<FaultsRow>> {
    let power = PowerModel::haswell_22nm();
    let mut rows = Vec::new();
    for name in SWEEP_BENCHMARKS {
        let Some(bench) = benchmark(name) else {
            return Err(depburst_core::DepburstError::Machine {
                detail: format!("unknown sweep benchmark {name}"),
            });
        };
        let mut plan = SweepPlan::new();
        plan.push(SimPoint::new(bench, Freq::from_ghz(2.0), scale, seed));
        plan.push(SimPoint::new(bench, Freq::from_ghz(4.0), scale, seed));
        let measured = ctx.execute(&plan)?;
        let (clean, truth) = (&measured[0], &measured[1]);
        let (base_exec, base_energy) = fig6::baseline_with(ctx, bench, scale, seed, &power)?;
        let mut cells: Vec<(Option<FaultClass>, f64)> = vec![(None, 0.0)];
        for class in FaultClass::ALL {
            for &intensity in intensities {
                cells.push((Some(class), intensity));
            }
        }
        if let Some(p) = panic_point {
            cells.push((Some(FaultClass::PanicPoint), p));
        }
        let labelled: Vec<(String, (Option<FaultClass>, f64))> = cells
            .into_iter()
            .map(|(class, intensity)| {
                let fault = class.map_or("none", |c| c.name());
                (format!("{name}/{fault}@{intensity:.2}"), (class, intensity))
            })
            .collect();
        let evaluated = ctx.map_resilient(labelled, |&(class, intensity), attempt| {
            evaluate(
                bench,
                class,
                intensity,
                scale,
                seed,
                attempt,
                threshold,
                &clean.trace,
                truth.exec.as_secs(),
                base_exec,
                base_energy,
            )
        });
        for outcome in evaluated {
            match outcome {
                Ok(row) => rows.push(row),
                Err(failure) => ctx.record_failure(failure),
            }
        }
    }
    Ok(rows)
}

/// Renders the degradation table.
#[must_use]
pub fn render(rows: &[FaultsRow]) -> String {
    let mut t = TextTable::new(&[
        "benchmark",
        "fault",
        "intensity",
        "DEP+BURST err",
        "M+CRIT err",
        "slowdown",
        "true savings",
        "fallbacks",
        "denied",
    ]);
    for r in rows {
        t.row(vec![
            r.benchmark.clone(),
            r.fault.clone(),
            format!("{:.2}", r.intensity),
            pct_abs(r.dep_err),
            pct_abs(r.mcrit_err),
            pct(r.slowdown),
            pct(r.savings),
            r.fallbacks.to_string(),
            r.denied.to_string(),
        ]);
    }
    format!(
        "fault injection: prediction error and hardened-manager degradation\n{}",
        t.render()
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_includes_anchor_and_cells() {
        let rows = vec![
            FaultsRow {
                benchmark: "lusearch".into(),
                fault: "none".into(),
                intensity: 0.0,
                dep_err: 0.02,
                mcrit_err: 0.08,
                slowdown: 0.04,
                savings: 0.15,
                fallbacks: 0,
                denied: 0,
            },
            FaultsRow {
                benchmark: "lusearch".into(),
                fault: "counter-dropout".into(),
                intensity: 1.0,
                dep_err: 1.0,
                mcrit_err: 1.0,
                slowdown: 0.0,
                savings: 0.0,
                fallbacks: 3,
                denied: 0,
            },
        ];
        let s = render(&rows);
        assert!(s.contains("none"));
        assert!(s.contains("counter-dropout"));
        assert!(s.contains("+15.0%"));
    }

    #[test]
    fn rel_err_guards_degenerate_inputs() {
        assert_eq!(rel_err(f64::NAN, 1.0), 1.0);
        assert_eq!(rel_err(1.0, 0.0), 1.0);
        assert!((rel_err(1.1, 1.0) - 0.1).abs() < 1e-12);
    }

    #[test]
    fn sweep_cell_under_dropout_engages_fallback() {
        // One cell of the real sweep, tiny scale: full dropout must leave
        // the hardened manager pinned at max frequency (≈0% slowdown, ≈0%
        // savings) with the fallback engaged, while the anchor cell saves
        // energy without fallbacks.
        let rows = collect(0.02, 1, 0.10, &[1.0]);
        let anchor = rows
            .iter()
            .find(|r| r.benchmark == "lusearch" && r.fault == "none")
            .expect("anchor row");
        assert_eq!(anchor.fallbacks, 0);
        assert!(anchor.dep_err < 0.25, "clean DEP err {}", anchor.dep_err);
        let dropped = rows
            .iter()
            .find(|r| r.benchmark == "lusearch" && r.fault == "counter-dropout")
            .expect("dropout row");
        assert!(dropped.fallbacks >= 1, "dropout must engage fallback");
        assert!(
            dropped.slowdown < anchor.slowdown + 0.05,
            "fallback must not slow the run down: {} vs {}",
            dropped.slowdown,
            anchor.slowdown
        );
    }

    #[test]
    fn panic_point_cells_are_isolated_and_recorded() {
        use crate::resilience::{FailureCause, RetryPolicy};
        // A certain panic-point cell per benchmark (probability 1.0, no
        // retries, no other intensities): the anchor cells must survive,
        // the panicking cells must be dropped from the rows and recorded
        // as structured failures on the context.
        let ctx = ExecCtx::new(2).with_policy(RetryPolicy::none());
        let rows =
            collect_with(&ctx, 0.02, 1, 0.10, &[], Some(1.0)).expect("partial rows survive");
        assert_eq!(rows.iter().filter(|r| r.fault == "none").count(), 2);
        assert!(rows.iter().all(|r| r.fault != "panic-point"));
        let failures = ctx.failures();
        assert_eq!(failures.len(), 2, "one dead cell per benchmark");
        for f in &failures {
            assert_eq!(f.cause, FailureCause::Panic);
            assert_eq!(f.attempts, 1);
            assert!(
                f.detail.contains("injected panic-point fault"),
                "panic payload must survive isolation: {}",
                f.detail
            );
        }
        assert!(failures
            .iter()
            .any(|f| f.label == "lusearch/panic-point@1.00"));
    }
}
