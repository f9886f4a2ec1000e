//! Regenerates Figure 3: per-benchmark prediction errors, both directions.
//!
//! Usage: `cargo run --release -p harness --bin fig3 -- [low-to-high|high-to-low|both] [scale] [seeds] [--jobs N]`

use std::process::ExitCode;

use harness::cli;
use harness::experiments::fig3::{collect_with, render, Direction};

fn main() -> ExitCode {
    let names = &["direction", "scale", "seeds"];
    cli::main_with("fig3", &[], names, |ctx, args| {
        let which: String = args
            .get_where(
                "direction",
                "low-to-high, high-to-low or both",
                |d: &String| ["low-to-high", "high-to-low", "both"].contains(&d.as_str()),
            )?
            .unwrap_or_else(|| "both".to_owned());
        let scale: f64 = args.get("scale")?.unwrap_or(1.0);
        let nseeds: usize = args.get("seeds")?.unwrap_or(1);
        let seeds: Vec<u64> = (1..=nseeds as u64).collect();
        let mut all = Vec::new();
        if which != "high-to-low" {
            eprintln!("fig 3(a): base 1 GHz, scale {scale}, {nseeds} seed(s)...");
            let cells = collect_with(ctx, Direction::LowToHigh, scale, &seeds)?;
            for t in [2.0, 3.0, 4.0] {
                println!("{}", render(&cells, t));
            }
            all.extend(cells);
        }
        if which != "low-to-high" {
            eprintln!("fig 3(b): base 4 GHz, scale {scale}, {nseeds} seed(s)...");
            let cells = collect_with(ctx, Direction::HighToLow, scale, &seeds)?;
            for t in [3.0, 2.0, 1.0] {
                println!("{}", render(&cells, t));
            }
            all.extend(cells);
        }
        println!("{}", serde_json::to_string_pretty(&all)?);
        Ok(())
    })
}
