//! Regenerates Figure 7: dynamic manager vs static-optimal oracle.
//!
//! Usage: `cargo run --release -p harness --bin fig7 -- [threshold-percent] [scale] [seed] [step-mhz] [--jobs N]`

use std::process::ExitCode;

use harness::cli;
use harness::experiments::fig7;

fn main() -> ExitCode {
    let names = &["threshold-percent", "scale", "seed", "step-mhz"];
    cli::main_with("fig7", &[], names, |ctx, args| {
        let threshold: f64 = args.get("threshold-percent")?.unwrap_or(10.0) / 100.0;
        let scale: f64 = args.get("scale")?.unwrap_or(1.0);
        let seed: u64 = args.get("seed")?.unwrap_or(1);
        let step: u32 = args.get("step-mhz")?.unwrap_or(250);
        eprintln!(
            "fig 7 at {:.0}% threshold, scale {scale}, sweep step {step} MHz...",
            threshold * 100.0
        );
        let rows = fig7::collect_with(ctx, threshold, scale, seed, step)?;
        println!("{}", fig7::render(&rows));
        println!("{}", serde_json::to_string_pretty(&rows)?);
        Ok(())
    })
}
