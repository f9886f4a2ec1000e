//! Sampled-vs-exact validation: the measured-error harness behind the
//! sampled execution tier.
//!
//! Every workload × frequency cell is simulated twice through one shared
//! cache — exactly, and on the sampled tier (`simx::sampling`) — and the
//! extrapolation error of execution time and GC time is reported per
//! cell. The rendered table and the JSON report land in
//! `results/sampling_error.{txt,json}`; CI gates on the checked-in JSON,
//! so an extrapolator regression that inflates the error past its
//! accepted bound fails loudly instead of silently degrading every
//! figure the sampled tier feeds.
//!
//! The sweep is complete-or-failed like the figures: a failed point
//! sinks the run rather than leaving a hole the gate would misread.

use dacapo_sim::all_benchmarks;
use serde::Serialize;
use simx::SamplingConfig;

use crate::report::{pct, pct_abs, TextTable};
use crate::run::{ExecCtx, SimPoint, SweepPlan};
use dvfs_trace::Freq;

/// The frequencies the validation sweeps — the paper's full DVFS ladder.
pub const FREQS_GHZ: [f64; 4] = [1.0, 2.0, 3.0, 4.0];

/// One workload × frequency cell of the sampled-vs-exact comparison,
/// seed-averaged.
#[derive(Debug, Clone, Serialize)]
pub struct SamplingErrorCell {
    /// Benchmark name.
    pub benchmark: String,
    /// Chip frequency (GHz).
    pub freq_ghz: f64,
    /// Exact execution time (seconds, mean over seeds).
    pub exact_exec_s: f64,
    /// Extrapolated execution time (seconds, mean over seeds).
    pub sampled_exec_s: f64,
    /// Signed relative execution-time error (sampled vs exact).
    pub exec_error: f64,
    /// Exact GC time (seconds, mean over seeds).
    pub exact_gc_s: f64,
    /// Extrapolated GC time (seconds, mean over seeds).
    pub sampled_gc_s: f64,
    /// Signed relative GC-time error (sampled vs exact).
    pub gc_error: f64,
    /// Execution-time confidence half-width as a fraction of the
    /// extrapolated execution time (mean over seeds).
    pub exec_ci_frac: f64,
    /// Measured phase recurrence of the measure region (mean over seeds).
    pub recurrence: f64,
    /// Epoch-signature clusters in the measure region (max over seeds).
    pub clusters: usize,
    /// True when any seed's region scheduler widened the measure region.
    pub extended: bool,
}

/// The whole validation report: the per-cell table plus the summary
/// numbers the accuracy test in `tests/verdicts.rs` checks.
#[derive(Debug, Clone, Serialize)]
pub struct SamplingErrorReport {
    /// Work scale of the sweep.
    pub scale: f64,
    /// Seeds averaged per cell.
    pub seeds: usize,
    /// Probe-region rounds fraction of the sampling configuration.
    pub probe_fraction: f64,
    /// Measure-region rounds fraction of the sampling configuration.
    pub measure_fraction: f64,
    /// Every workload × frequency cell.
    pub cells: Vec<SamplingErrorCell>,
    /// Largest absolute execution-time error over all cells.
    pub max_exec_error: f64,
    /// Largest absolute GC-time error over all cells.
    pub max_gc_error: f64,
    /// Mean absolute execution-time error over all cells.
    pub mean_exec_error: f64,
    /// Mean absolute GC-time error over all cells.
    pub mean_gc_error: f64,
}

/// Relative error of `sampled` against `exact`, tolerating an exactly
/// zero baseline: a zero-GC workload whose extrapolation is also zero is
/// a perfect prediction, not a division by zero.
fn rel(sampled: f64, exact: f64) -> f64 {
    if exact == 0.0 {
        if sampled == 0.0 {
            0.0
        } else {
            f64::INFINITY
        }
    } else {
        (sampled - exact) / exact
    }
}

/// Runs the validation sweep on `ctx`'s pool: both tiers of the full
/// workload × frequency grid, through the shared cache (sampled keys
/// never collide with exact ones).
///
/// # Errors
/// As [`ExecCtx::execute`] — the sweep is complete-or-failed.
pub fn collect_with(
    ctx: &ExecCtx,
    scale: f64,
    seeds: &[u64],
    cfg: &SamplingConfig,
) -> depburst_core::Result<SamplingErrorReport> {
    let mut plan = SweepPlan::new();
    for bench in all_benchmarks() {
        for ghz in FREQS_GHZ {
            for &seed in seeds {
                plan.push(SimPoint::new(bench, Freq::from_ghz(ghz), scale, seed));
            }
        }
    }
    let exact = ctx.execute_with(&plan, None)?;
    let sampled = ctx.execute_with(&plan, Some(cfg))?;

    let mut cells = Vec::with_capacity(all_benchmarks().len() * FREQS_GHZ.len());
    let mut idx = 0usize;
    for bench in all_benchmarks() {
        for ghz in FREQS_GHZ {
            let n = seeds.len() as f64;
            let mut cell = SamplingErrorCell {
                benchmark: bench.name.to_owned(),
                freq_ghz: ghz,
                exact_exec_s: 0.0,
                sampled_exec_s: 0.0,
                exec_error: 0.0,
                exact_gc_s: 0.0,
                sampled_gc_s: 0.0,
                gc_error: 0.0,
                exec_ci_frac: 0.0,
                recurrence: 0.0,
                clusters: 0,
                extended: false,
            };
            for _seed in seeds {
                let (e, s) = (&exact[idx], &sampled[idx]);
                idx += 1;
                cell.exact_exec_s += e.exec.as_secs() / n;
                cell.sampled_exec_s += s.exec.as_secs() / n;
                cell.exact_gc_s += e.gc_time.as_secs() / n;
                cell.sampled_gc_s += s.gc_time.as_secs() / n;
                let info = s.sampled.as_ref().expect("sampled tier tags its summaries");
                if s.exec.as_secs() > 0.0 {
                    cell.exec_ci_frac += info.exec_half_ci.as_secs() / s.exec.as_secs() / n;
                }
                cell.recurrence += info.recurrence / n;
                cell.clusters = cell.clusters.max(info.clusters);
                cell.extended |= info.extended;
            }
            cell.exec_error = rel(cell.sampled_exec_s, cell.exact_exec_s);
            cell.gc_error = rel(cell.sampled_gc_s, cell.exact_gc_s);
            cells.push(cell);
        }
    }

    let max_abs = |f: fn(&SamplingErrorCell) -> f64| {
        cells.iter().map(|c| f(c).abs()).fold(0.0f64, f64::max)
    };
    let mean_abs = |f: fn(&SamplingErrorCell) -> f64| {
        cells.iter().map(|c| f(c).abs()).sum::<f64>() / cells.len() as f64
    };
    Ok(SamplingErrorReport {
        scale,
        seeds: seeds.len(),
        probe_fraction: simx::sampling::PROBE_FRACTION,
        measure_fraction: cfg.measure_fraction,
        max_exec_error: max_abs(|c| c.exec_error),
        max_gc_error: max_abs(|c| c.gc_error),
        mean_exec_error: mean_abs(|c| c.exec_error),
        mean_gc_error: mean_abs(|c| c.gc_error),
        cells,
    })
}

/// Renders the per-cell table with the gate summary line.
#[must_use]
pub fn render(report: &SamplingErrorReport) -> String {
    let mut t = TextTable::new(&[
        "benchmark",
        "GHz",
        "exact exec",
        "sampled exec",
        "exec err",
        "exact gc",
        "sampled gc",
        "gc err",
        "±ci",
        "recur",
        "clusters",
    ]);
    for c in &report.cells {
        t.row(vec![
            c.benchmark.clone(),
            format!("{:.0}", c.freq_ghz),
            format!("{:.4}s", c.exact_exec_s),
            format!("{:.4}s", c.sampled_exec_s),
            pct(c.exec_error),
            format!("{:.4}s", c.exact_gc_s),
            format!("{:.4}s", c.sampled_gc_s),
            pct(c.gc_error),
            pct_abs(c.exec_ci_frac),
            format!("{:.2}", c.recurrence),
            format!("{}{}", c.clusters, if c.extended { "*" } else { "" }),
        ]);
    }
    format!(
        "{}\nmax |exec err| {}  max |gc err| {}  (mean {} / {}; probe {} measure {}, {} seed(s), scale {})\n",
        t.render(),
        pct_abs(report.max_exec_error),
        pct_abs(report.max_gc_error),
        pct_abs(report.mean_exec_error),
        pct_abs(report.mean_gc_error),
        report.probe_fraction,
        report.measure_fraction,
        report.seeds,
        report.scale,
    )
}
