//! Regenerates Figure 6: energy-manager slowdown and savings.
//!
//! Usage: `cargo run --release -p harness --bin fig6 -- [threshold-percent] [scale] [seed] [--jobs N]`
//! With no threshold, runs both 5 and 10.

use std::process::ExitCode;

use harness::cli;
use harness::experiments::fig6;

fn main() -> ExitCode {
    let names = &["threshold-percent", "scale", "seed"];
    cli::main_with("fig6", &[], names, |ctx, args| {
        let thresholds: Vec<f64> = match args.get::<f64>("threshold-percent")? {
            Some(t) => vec![t / 100.0],
            None => vec![0.05, 0.10],
        };
        let scale: f64 = args.get("scale")?.unwrap_or(1.0);
        let seed: u64 = args.get("seed")?.unwrap_or(1);
        let mut all = Vec::new();
        for t in thresholds {
            eprintln!("fig 6 at {:.0}% threshold, scale {scale}...", t * 100.0);
            let rows = fig6::collect_with(ctx, t, scale, seed)?;
            println!("{}", fig6::render(&rows));
            all.extend(rows);
        }
        println!("{}", serde_json::to_string_pretty(&all)?);
        Ok(())
    })
}
