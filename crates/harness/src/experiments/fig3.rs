//! Figure 3: per-benchmark DVFS prediction errors for M+CRIT, COOP and
//! DEP, each with and without BURST.
//!
//! (a) base 1 GHz, targets 2/3/4 GHz (predicting at higher frequency);
//! (b) base 4 GHz, targets 1/2/3 GHz (predicting at lower frequency).
//!
//! The grid executes on [`crate::run::ExecCtx`], which makes the figure
//! complete-or-failed: every surviving point is simulated (and
//! cached/checkpointed) before a dead point surfaces as `SweepIncomplete`,
//! so an interrupted or partially failed sweep resumes from its
//! checkpoint instead of restarting.

use dacapo_sim::all_benchmarks;
use depburst::{paper_roster, relative_error, ErrorStats};
use dvfs_trace::Freq;
use serde::Serialize;

use crate::report::{pct, pct_abs, TextTable};
use crate::run::{ExecCtx, SimPoint, SweepPlan};

/// Prediction direction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    /// Base 1 GHz, predict 2/3/4 GHz (Fig. 3a).
    LowToHigh,
    /// Base 4 GHz, predict 1/2/3 GHz (Fig. 3b).
    HighToLow,
}

impl Direction {
    /// The base frequency of this direction.
    #[must_use]
    pub fn base(self) -> Freq {
        match self {
            Direction::LowToHigh => Freq::from_ghz(1.0),
            Direction::HighToLow => Freq::from_ghz(4.0),
        }
    }

    /// The target frequencies of this direction.
    #[must_use]
    pub fn targets(self) -> [Freq; 3] {
        match self {
            Direction::LowToHigh => [
                Freq::from_ghz(2.0),
                Freq::from_ghz(3.0),
                Freq::from_ghz(4.0),
            ],
            Direction::HighToLow => [
                Freq::from_ghz(3.0),
                Freq::from_ghz(2.0),
                Freq::from_ghz(1.0),
            ],
        }
    }
}

/// One (benchmark, target) cell: the signed error of every model.
#[derive(Debug, Clone, Serialize)]
pub struct Fig3Cell {
    /// Benchmark name.
    pub benchmark: String,
    /// Base frequency (GHz).
    pub base_ghz: f64,
    /// Target frequency (GHz).
    pub target_ghz: f64,
    /// Measured execution time at the target (seconds).
    pub actual_s: f64,
    /// (model name, signed relative error) pairs.
    pub errors: Vec<(String, f64)>,
}

/// Runs the experiment on `ctx`'s pool and cache; `seeds` are averaged
/// (the paper averages 4 runs). The plan lists every
/// (benchmark, seed) base run followed by its target runs — the exact
/// order the historical sequential loop executed — and the cells are
/// assembled from the plan-ordered results, so the output is identical
/// for any worker count.
pub fn collect_with(
    ctx: &ExecCtx,
    direction: Direction,
    scale: f64,
    seeds: &[u64],
) -> depburst_core::Result<Vec<Fig3Cell>> {
    let models = paper_roster();
    let targets = direction.targets();
    let mut plan = SweepPlan::new();
    for bench in all_benchmarks() {
        for &seed in seeds {
            plan.push(SimPoint::new(bench, direction.base(), scale, seed));
            for &target in &targets {
                plan.push(SimPoint::new(bench, target, scale, seed));
            }
        }
    }
    let results = ctx.execute(&plan)?;
    let mut next = results.iter();

    let mut cells: Vec<Fig3Cell> = Vec::with_capacity(all_benchmarks().len() * targets.len());
    for bench in all_benchmarks() {
        let mut acc: Vec<Vec<Vec<f64>>> =
            vec![vec![Vec::with_capacity(seeds.len()); models.len()]; targets.len()];
        let mut actuals = vec![0.0f64; targets.len()];
        let mut predicted = Vec::with_capacity(targets.len());
        for _seed in seeds {
            let base = next.next().expect("plan covers base run");
            let runs: Vec<_> = targets
                .iter()
                .map(|_| next.next().expect("plan covers target run"))
                .collect();
            for (actual, run) in actuals.iter_mut().zip(&runs) {
                *actual += run.exec.as_secs() / seeds.len() as f64;
            }
            for (mi, model) in models.iter().enumerate() {
                model.predict_many(&base.trace, &targets, &mut predicted);
                for (ti, (&raw, run)) in predicted.iter().zip(&runs).enumerate() {
                    let prediction = base.rescale_prediction(raw);
                    acc[ti][mi].push(relative_error(prediction, run.exec));
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
                        let errs = &acc[ti][mi];
                        (m.name(), errs.iter().sum::<f64>() / errs.len() as f64)
                    })
                    .collect(),
            });
        }
    }
    Ok(cells)
}

/// Average absolute error per model at a given target frequency.
#[must_use]
pub fn avg_abs_by_model(cells: &[Fig3Cell], target_ghz: f64) -> Vec<(String, f64)> {
    let mut out: Vec<(String, Vec<f64>)> = Vec::new();
    for cell in cells.iter().filter(|c| c.target_ghz == target_ghz) {
        for (name, err) in &cell.errors {
            match out.iter_mut().find(|(n, _)| n == name) {
                Some((_, v)) => v.push(*err),
                None => out.push((name.clone(), vec![*err])),
            }
        }
    }
    out.into_iter()
        .map(|(n, v)| (n, ErrorStats::from_errors(&v).mean_abs))
        .collect()
}

/// Renders the per-benchmark table for one target frequency.
#[must_use]
pub fn render(cells: &[Fig3Cell], target_ghz: f64) -> String {
    let with_target: Vec<&Fig3Cell> = cells
        .iter()
        .filter(|c| c.target_ghz == target_ghz)
        .collect();
    let Some(first) = with_target.first() else {
        return String::new();
    };
    let names: Vec<String> = first.errors.iter().map(|(n, _)| n.clone()).collect();
    let mut header: Vec<&str> = vec!["benchmark"];
    for n in &names {
        header.push(n);
    }
    let mut t = TextTable::new(&header);
    for cell in &with_target {
        let mut row = vec![cell.benchmark.clone()];
        for (_, err) in &cell.errors {
            row.push(pct(*err));
        }
        t.row(row);
    }
    let mut row = vec!["avg |err|".to_owned()];
    for (_, mean) in avg_abs_by_model(cells, target_ghz) {
        row.push(pct_abs(mean));
    }
    t.row(row);
    format!(
        "base {} GHz -> target {} GHz\n{}",
        first.base_ghz,
        target_ghz,
        t.render()
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn directions_have_paper_frequencies() {
        assert_eq!(Direction::LowToHigh.base(), Freq::from_ghz(1.0));
        assert_eq!(Direction::HighToLow.base(), Freq::from_ghz(4.0));
        assert_eq!(Direction::LowToHigh.targets()[2], Freq::from_ghz(4.0));
        assert_eq!(Direction::HighToLow.targets()[2], Freq::from_ghz(1.0));
    }

    #[test]
    fn avg_abs_aggregates_per_model() {
        let cells = vec![
            Fig3Cell {
                benchmark: "a".into(),
                base_ghz: 1.0,
                target_ghz: 4.0,
                actual_s: 1.0,
                errors: vec![("M+CRIT".into(), -0.2), ("DEP+BURST".into(), 0.05)],
            },
            Fig3Cell {
                benchmark: "b".into(),
                base_ghz: 1.0,
                target_ghz: 4.0,
                actual_s: 1.0,
                errors: vec![("M+CRIT".into(), 0.4), ("DEP+BURST".into(), -0.01)],
            },
        ];
        let avg = avg_abs_by_model(&cells, 4.0);
        assert!((avg[0].1 - 0.3).abs() < 1e-12);
        assert!((avg[1].1 - 0.03).abs() < 1e-12);
        // Other targets contribute nothing.
        assert!(avg_abs_by_model(&cells, 2.0).is_empty());
    }

    #[test]
    fn render_includes_all_models_and_benchmarks() {
        let cells = vec![Fig3Cell {
            benchmark: "xalan".into(),
            base_ghz: 1.0,
            target_ghz: 4.0,
            actual_s: 1.0,
            errors: vec![("M+CRIT".into(), -0.271), ("DEP+BURST".into(), 0.06)],
        }];
        let s = render(&cells, 4.0);
        assert!(s.contains("xalan"));
        assert!(s.contains("M+CRIT"));
        assert!(s.contains("-27.1%"));
        assert!(s.contains("avg |err|"));
        assert!(render(&cells, 3.0).is_empty());
    }
}
