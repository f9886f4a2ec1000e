//! Figure 4: per-epoch vs across-epoch critical-thread prediction, for
//! DEP+BURST in both prediction directions.
//!
//! Points execute on [`crate::run::ExecCtx`] and share its resilience
//! semantics: the figure is complete-or-failed (`SweepIncomplete` only
//! after the surviving points finished and were cached/checkpointed).

use dacapo_sim::all_benchmarks;
use depburst::{relative_error, Dep, DvfsPredictor, ErrorStats};
use serde::Serialize;

use super::fig3::Direction;
use crate::report::{pct, pct_abs, TextTable};
use crate::run::{ExecCtx, SimPoint, SweepPlan};

/// One benchmark's Fig. 4 numbers for one direction.
#[derive(Debug, Clone, Serialize)]
pub struct Fig4Row {
    /// Benchmark name.
    pub benchmark: String,
    /// Base frequency (GHz).
    pub base_ghz: f64,
    /// Target frequency (GHz).
    pub target_ghz: f64,
    /// Signed error with per-epoch CTP.
    pub per_epoch: f64,
    /// Signed error with across-epoch CTP (Algorithm 1).
    pub across_epoch: f64,
}

/// Runs the experiment for one direction on `ctx`'s pool and cache,
/// predicting the far frequency (1 GHz ↔ 4 GHz, as the paper's Fig. 4
/// reports).
pub fn collect_with(
    ctx: &ExecCtx,
    direction: Direction,
    scale: f64,
    seeds: &[u64],
) -> depburst_core::Result<Vec<Fig4Row>> {
    let per = Dep::dep_burst_per_epoch();
    let across = Dep::dep_burst();
    let target = *direction
        .targets()
        .last()
        .expect("directions have three targets");
    let mut plan = SweepPlan::new();
    for bench in all_benchmarks() {
        for &seed in seeds {
            plan.push(SimPoint::new(bench, direction.base(), scale, seed));
            plan.push(SimPoint::new(bench, target, scale, seed));
        }
    }
    let results = ctx.execute(&plan)?;
    let mut next = results.iter();
    let mut rows = Vec::with_capacity(all_benchmarks().len());
    for bench in all_benchmarks() {
        let mut pe = Vec::with_capacity(seeds.len());
        let mut ae = Vec::with_capacity(seeds.len());
        for _seed in seeds {
            let base = next.next().expect("plan covers base run");
            let actual = next.next().expect("plan covers target run");
            pe.push(relative_error(
                base.rescale_prediction(per.predict(&base.trace, target)),
                actual.exec,
            ));
            ae.push(relative_error(
                base.rescale_prediction(across.predict(&base.trace, target)),
                actual.exec,
            ));
        }
        rows.push(Fig4Row {
            benchmark: bench.name.to_owned(),
            base_ghz: direction.base().ghz(),
            target_ghz: target.ghz(),
            per_epoch: pe.iter().sum::<f64>() / pe.len() as f64,
            across_epoch: ae.iter().sum::<f64>() / ae.len() as f64,
        });
    }
    Ok(rows)
}

/// Average absolute errors `(per_epoch, across_epoch)`.
#[must_use]
pub fn averages(rows: &[Fig4Row]) -> (f64, f64) {
    let pe: Vec<f64> = rows.iter().map(|r| r.per_epoch).collect();
    let ae: Vec<f64> = rows.iter().map(|r| r.across_epoch).collect();
    (
        ErrorStats::from_errors(&pe).mean_abs,
        ErrorStats::from_errors(&ae).mean_abs,
    )
}

/// Renders one direction's table.
#[must_use]
pub fn render(rows: &[Fig4Row]) -> String {
    let Some(first) = rows.first() else {
        return String::new();
    };
    let mut t = TextTable::new(&["benchmark", "per-epoch CTP", "across-epoch CTP"]);
    for r in rows {
        t.row(vec![
            r.benchmark.clone(),
            pct(r.per_epoch),
            pct(r.across_epoch),
        ]);
    }
    let (pe, ae) = averages(rows);
    t.row(vec!["avg |err|".into(), pct_abs(pe), pct_abs(ae)]);
    format!(
        "DEP+BURST, base {} GHz -> target {} GHz\n{}",
        first.base_ghz,
        first.target_ghz,
        t.render()
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn averages_are_mean_absolute() {
        let rows = vec![
            Fig4Row {
                benchmark: "a".into(),
                base_ghz: 1.0,
                target_ghz: 4.0,
                per_epoch: 0.2,
                across_epoch: -0.05,
            },
            Fig4Row {
                benchmark: "b".into(),
                base_ghz: 1.0,
                target_ghz: 4.0,
                per_epoch: -0.1,
                across_epoch: 0.01,
            },
        ];
        let (pe, ae) = averages(&rows);
        assert!((pe - 0.15).abs() < 1e-12);
        assert!((ae - 0.03).abs() < 1e-12);
        let s = render(&rows);
        assert!(s.contains("per-epoch CTP"));
        assert!(s.contains("avg |err|"));
    }
}
