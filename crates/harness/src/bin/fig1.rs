//! Regenerates Figure 1: M+CRIT vs DEP+BURST headline errors.
//!
//! Usage: `cargo run --release -p harness --bin fig1 -- [scale] [seeds] [--jobs N]`

use std::process::ExitCode;

use harness::cli;
use harness::experiments::fig1;

fn main() -> ExitCode {
    cli::main_with("fig1", &[], &["scale", "seeds"], |ctx, args| {
        let scale: f64 = args.get("scale")?.unwrap_or(1.0);
        let nseeds: usize = args.get("seeds")?.unwrap_or(1);
        let seeds: Vec<u64> = (1..=nseeds as u64).collect();
        eprintln!("fig 1: scale {scale}, {nseeds} seed(s)...");
        let (rows, _cells) = fig1::run_with(ctx, scale, &seeds)?;
        println!("{}", fig1::render(&rows));
        println!("{}", serde_json::to_string_pretty(&rows)?);
        Ok(())
    })
}
