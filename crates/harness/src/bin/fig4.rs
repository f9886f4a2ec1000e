//! Regenerates Figure 4: per-epoch vs across-epoch CTP.
//!
//! Usage: `cargo run --release -p harness --bin fig4 -- [scale] [seeds] [--jobs N]`

use std::process::ExitCode;

use harness::cli;
use harness::experiments::fig3::Direction;
use harness::experiments::fig4;

fn main() -> ExitCode {
    cli::main_with("fig4", &[], &["scale", "seeds"], |ctx, args| {
        let scale: f64 = args.get("scale")?.unwrap_or(1.0);
        let nseeds: usize = args.get("seeds")?.unwrap_or(1);
        let seeds: Vec<u64> = (1..=nseeds as u64).collect();
        let mut all = Vec::new();
        for direction in [Direction::LowToHigh, Direction::HighToLow] {
            eprintln!("fig 4 {direction:?}: scale {scale}, {nseeds} seed(s)...");
            let rows = fig4::collect_with(ctx, direction, scale, &seeds)?;
            println!("{}", fig4::render(&rows));
            all.extend(rows);
        }
        println!("{}", serde_json::to_string_pretty(&all)?);
        Ok(())
    })
}
