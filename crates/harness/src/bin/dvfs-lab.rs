//! `dvfs-lab` — an exploration CLI over the whole stack.
//!
//! ```text
//! dvfs-lab bench                         list benchmarks
//! dvfs-lab run <bench> <ghz> [scale]     run and summarise a benchmark
//! dvfs-lab record <bench> <ghz> <out.json> [scale]
//!                                        run and save the execution trace
//! dvfs-lab predict <trace.json> <ghz> [model]
//!                                        predict a saved trace at a target
//! dvfs-lab crit <trace.json>             criticality stack of a trace
//! dvfs-lab manage <bench> <slowdown%> [scale]
//!                                        run under the energy manager
//! ```
//!
//! Models for `predict`: `dep+burst` (default), `dep`, `coop+burst`,
//! `coop`, `m+crit+burst`, `m+crit`.

use std::fs;
use std::process::ExitCode;

use depburst::{Coop, CriticalityStack, Dep, DvfsPredictor, MCrit};
use dvfs_trace::{ExecutionTrace, Freq, TraceSummary};
use harness::cli::{self, Args, CliResult};
use harness::run::try_run_benchmark;
use harness::{ExecCtx, RunConfig};

fn main() -> ExitCode {
    cli::main_with("dvfs-lab", &[], &["command", "args..."], |ctx, args| {
        // Each subcommand reads its own positions: `record` puts its
        // output path where `run` has its scale.
        let sub = |names| cli::parse(args.rest("args..."), &[], names);
        match args.value("command") {
            Some("bench") => {
                sub(&[])?;
                cmd_bench()
            }
            Some("run") => cmd_run(&sub(&["bench", "ghz", "scale"])?),
            Some("record") => cmd_record(&sub(&["bench", "ghz", "out.json", "scale"])?),
            Some("predict") => cmd_predict(&sub(&["trace.json", "ghz", "model"])?),
            Some("crit") => cmd_crit(&sub(&["trace.json"])?),
            Some("manage") => cmd_manage(ctx, &sub(&["bench", "slowdown%", "scale"])?),
            _ => {
                eprintln!("usage: dvfs-lab <bench|run|record|predict|crit|manage> ...");
                Err("unknown subcommand".into())
            }
        }
    })
}

fn cmd_bench() -> CliResult {
    println!("{:<14} {:<6} {:>8} {:>12} {:>10}", "name", "type", "heap", "exec@1GHz", "GC@1GHz");
    for b in dacapo_sim::all_benchmarks() {
        println!(
            "{:<14} {:<6} {:>5} MB {:>9.0} ms {:>7.0} ms",
            b.name,
            format!("{:?}", b.class),
            b.heap_mb,
            b.paper.exec_ms,
            b.paper.gc_ms
        );
    }
    Ok(())
}

/// The `bench` positional, looked up.
fn bench_arg(args: &Args) -> Result<&'static dacapo_sim::Benchmark, String> {
    let name: String = args.required("bench")?;
    dacapo_sim::benchmark(&name).ok_or_else(|| format!("unknown benchmark {name}"))
}

fn cmd_run(args: &Args) -> CliResult {
    let bench = bench_arg(args)?;
    let ghz: f64 = args.required("ghz")?;
    let scale: f64 = args.get("scale")?.unwrap_or(0.1);
    let r = try_run_benchmark(bench, RunConfig::at_ghz(ghz).scaled(scale))?;
    println!("{} at {ghz} GHz (scale {scale}):", bench.name);
    println!("  execution    {}", r.exec);
    println!("  GC time      {} ({} collections)", r.gc_time, r.gc_count);
    println!("  allocated    {:.1} MB", r.allocated as f64 / (1 << 20) as f64);
    println!("  epochs       {}", r.trace.epochs.len());
    println!("  futex sleeps {}", r.stats.futex_sleeps);
    println!(
        "  instructions {:.1}M, DRAM reads {:.1}M (mean {:.0} ns)",
        r.stats.total_instructions() as f64 / 1e6,
        r.stats.dram.reads as f64 / 1e6,
        r.stats.dram.total_read_latency.as_nanos() / r.stats.dram.reads.max(1) as f64,
    );
    let s = TraceSummary::compute(&r.trace);
    println!(
        "  parallelism  {:.2} threads (app active {}, GC active {}, JIT active {})",
        s.mean_parallelism, s.application.active, s.gc.active, s.jit.active
    );
    println!(
        "  sq-full      app {}, GC {} (the BURST counter)",
        s.application.sq_full, s.gc.sq_full
    );
    println!("  events       {} dispatched", r.stats.events_dispatched);
    Ok(())
}

fn cmd_record(args: &Args) -> CliResult {
    let bench = bench_arg(args)?;
    let ghz: f64 = args.required("ghz")?;
    let out: String = args.required("out.json")?;
    let scale: f64 = args.get("scale")?.unwrap_or(0.1);
    let r = try_run_benchmark(bench, RunConfig::at_ghz(ghz).scaled(scale))?;
    fs::write(&out, serde_json::to_vec(&r.trace)?)?;
    println!(
        "recorded {}: {} epochs over {} -> {out}",
        bench.name,
        r.trace.epochs.len(),
        r.exec
    );
    Ok(())
}

fn load_trace(path: &str) -> Result<ExecutionTrace, Box<dyn std::error::Error>> {
    let bytes = fs::read(path)?;
    let trace: ExecutionTrace = serde_json::from_slice(&bytes)?;
    trace.validate()?;
    Ok(trace)
}

fn model_by_name(name: &str) -> Result<Box<dyn DvfsPredictor>, Box<dyn std::error::Error>> {
    Ok(match name {
        "dep+burst" => Box::new(Dep::dep_burst()),
        "dep" => Box::new(Dep::plain()),
        "coop+burst" => Box::new(Coop::with_burst()),
        "coop" => Box::new(Coop::plain()),
        "m+crit+burst" => Box::new(MCrit::with_burst()),
        "m+crit" => Box::new(MCrit::plain()),
        other => return Err(format!("unknown model {other}").into()),
    })
}

fn cmd_predict(args: &Args) -> CliResult {
    let path: String = args.required("trace.json")?;
    let ghz: f64 = args.required("ghz")?;
    let model = model_by_name(args.value("model").unwrap_or("dep+burst"))?;
    let trace = load_trace(&path)?;
    let target = Freq::from_ghz(ghz);
    let predicted = model.predict(&trace, target);
    println!(
        "{}: measured {} at {}, predicted {} at {target}",
        model.name(),
        trace.total,
        trace.base,
        predicted
    );
    Ok(())
}

fn cmd_crit(args: &Args) -> CliResult {
    let path: String = args.required("trace.json")?;
    let trace = load_trace(&path)?;
    let stack = CriticalityStack::compute(&trace);
    println!("criticality stack ({} wall time):", trace.total);
    for (tid, frac) in stack.ranked() {
        let name = trace
            .thread(tid)
            .map(|t| t.name.clone())
            .unwrap_or_else(|| tid.to_string());
        println!("  {name:<10} {:5.1}%", frac * 100.0);
    }
    println!("  {:<10} {:5.1}%", "idle", stack.idle.as_secs() / trace.total.as_secs().max(1e-12) * 100.0);
    Ok(())
}

fn cmd_manage(ctx: &ExecCtx, args: &Args) -> CliResult {
    let bench = bench_arg(args)?;
    let pct: f64 = args.required("slowdown%")?;
    let scale: f64 = args.get("scale")?.unwrap_or(0.1);
    let row = harness::experiments::fig6::managed_with(ctx, bench, scale, 1, pct / 100.0)?;
    println!(
        "{} under the manager at {pct}% tolerance: slowdown {:+.1}%, energy saved {:+.1}%, mean {:.2} GHz",
        bench.name,
        row.slowdown * 100.0,
        row.savings * 100.0,
        row.mean_ghz
    );
    Ok(())
}
