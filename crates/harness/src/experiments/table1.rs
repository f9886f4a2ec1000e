//! Table I: the benchmark roster with execution and GC time at 1 GHz,
//! ours vs the paper's published numbers.
//!
//! Rows execute on [`crate::run::ExecCtx`] with its resilience
//! semantics: the table is complete-or-failed (`SweepIncomplete` only
//! after the surviving rows finished and were cached/checkpointed).

use dacapo_sim::all_benchmarks;
use serde::Serialize;

use dvfs_trace::Freq;

use crate::report::{ms, pct_abs, TextTable};
use crate::run::{ExecCtx, SimPoint, SweepPlan};

/// One benchmark's Table I row.
#[derive(Debug, Clone, Serialize)]
pub struct Table1Row {
    /// Benchmark name.
    pub name: String,
    /// "M" or "C".
    pub class: String,
    /// Heap size (MB).
    pub heap_mb: u64,
    /// Measured execution time at 1 GHz (seconds).
    pub exec_s: f64,
    /// Measured GC time at 1 GHz (seconds).
    pub gc_s: f64,
    /// Collections performed.
    pub gc_count: u64,
    /// Bytes allocated.
    pub allocated_mb: f64,
    /// Paper's execution time (seconds).
    pub paper_exec_s: f64,
    /// Paper's GC time (seconds).
    pub paper_gc_s: f64,
}

/// Runs every benchmark at 1 GHz on `ctx`'s pool and collects the rows.
pub fn collect_with(ctx: &ExecCtx, scale: f64) -> depburst_core::Result<Vec<Table1Row>> {
    let mut plan = SweepPlan::new();
    for b in all_benchmarks() {
        plan.push(SimPoint::new(b, Freq::from_ghz(1.0), scale, 1));
    }
    let results = ctx.execute(&plan)?;
    Ok(all_benchmarks()
        .iter()
        .zip(&results)
        .map(|(b, r)| {
            Table1Row {
                name: b.name.to_owned(),
                class: b.class.label().to_owned(),
                heap_mb: b.heap_mb,
                exec_s: r.exec.as_secs() / scale,
                gc_s: r.gc_time.as_secs() / scale,
                gc_count: r.gc_count,
                allocated_mb: r.allocated as f64 / (1 << 20) as f64,
                paper_exec_s: b.paper.exec_ms / 1e3,
                paper_gc_s: b.paper.gc_ms / 1e3,
            }
        })
        .collect())
}

/// Renders the comparison table.
#[must_use]
pub fn render(rows: &[Table1Row]) -> String {
    let mut t = TextTable::new(&[
        "benchmark",
        "type",
        "heap",
        "exec (ours)",
        "exec (paper)",
        "GC (ours)",
        "GC (paper)",
        "GC frac",
        "GCs",
        "alloc",
    ]);
    for r in rows {
        t.row(vec![
            r.name.clone(),
            r.class.clone(),
            format!("{} MB", r.heap_mb),
            ms(r.exec_s),
            ms(r.paper_exec_s),
            ms(r.gc_s),
            ms(r.paper_gc_s),
            pct_abs(r.gc_s / r.exec_s),
            r.gc_count.to_string(),
            format!("{:.0} MB", r.allocated_mb),
        ]);
    }
    t.render()
}
