//! Figure 1: the headline comparison — M+CRIT vs DEP+BURST average
//! absolute error when predicting 2/3/4 GHz from a 1 GHz base.
//!
//! This is a view over the Figure 3(a) data.
//!
//! All points run through [`crate::run::ExecCtx::execute`], so the
//! figure inherits the full resilience stack: a point that still fails
//! after retries turns the run into `SweepIncomplete` — but only after
//! every surviving point finished and was cached/checkpointed for the
//! retry.

use serde::Serialize;

use super::fig3::{avg_abs_by_model, collect_with, Direction, Fig3Cell};
use crate::report::{pct_abs, TextTable};
use crate::run::ExecCtx;

/// One target frequency's headline numbers.
#[derive(Debug, Clone, Serialize)]
pub struct Fig1Row {
    /// Target frequency (GHz), base is 1 GHz.
    pub target_ghz: f64,
    /// M+CRIT average absolute error.
    pub mcrit: f64,
    /// DEP+BURST average absolute error.
    pub dep_burst: f64,
}

/// Runs the experiment on `ctx`'s pool and cache.
pub fn run_with(
    ctx: &ExecCtx,
    scale: f64,
    seeds: &[u64],
) -> depburst_core::Result<(Vec<Fig1Row>, Vec<Fig3Cell>)> {
    let cells = collect_with(ctx, Direction::LowToHigh, scale, seeds)?;
    let rows = [2.0, 3.0, 4.0]
        .iter()
        .map(|&t| {
            let by_model = avg_abs_by_model(&cells, t);
            let find = |name: &str| {
                by_model
                    .iter()
                    .find(|(n, _)| n == name)
                    .map(|(_, e)| *e)
                    .unwrap_or(f64::NAN)
            };
            Fig1Row {
                target_ghz: t,
                mcrit: find("M+CRIT"),
                dep_burst: find("DEP+BURST"),
            }
        })
        .collect();
    Ok((rows, cells))
}

/// Renders the headline table.
#[must_use]
pub fn render(rows: &[Fig1Row]) -> String {
    let mut t = TextTable::new(&["target", "M+CRIT avg |err|", "DEP+BURST avg |err|"]);
    for r in rows {
        t.row(vec![
            format!("{} GHz", r.target_ghz),
            pct_abs(r.mcrit),
            pct_abs(r.dep_burst),
        ]);
    }
    t.render()
}
