//! Regenerates Table I: per-benchmark execution and GC time at 1 GHz.
//!
//! Usage: `cargo run --release -p harness --bin table1 -- [scale] [--jobs N]`

use std::process::ExitCode;

use harness::cli;
use harness::experiments::table1;

fn main() -> ExitCode {
    cli::main_with("table1", &[], &["scale"], |ctx, args| {
        let scale: f64 = args.get("scale")?.unwrap_or(1.0);
        eprintln!("running all benchmarks at 1 GHz, scale {scale} ...");
        let rows = table1::collect_with(ctx, scale)?;
        println!("{}", table1::render(&rows));
        println!("{}", serde_json::to_string_pretty(&rows)?);
        Ok(())
    })
}
