//! Sampled-vs-exact validation sweep: measures the sampled tier's
//! extrapolation error across every workload × frequency and writes
//! `results/sampling_error.{txt,json}` (the JSON feeds the CI accuracy
//! gate).
//!
//! Usage: `cargo run --release -p harness --bin sampling_error -- [scale] [seeds] [--jobs N] [--sampling CFG]`
//!
//! `--sampling` here selects the configuration under test (default: the
//! default `SamplingConfig`); the exact arm always runs exactly.

use std::process::ExitCode;

use harness::cli;
use harness::experiments::sampling_error;

fn main() -> ExitCode {
    cli::main_with("sampling_error", &[], &["scale", "seeds"], |ctx, args| {
        let scale: f64 = args.get("scale")?.unwrap_or(1.0);
        let nseeds: usize = args.get("seeds")?.unwrap_or(1);
        let seeds: Vec<u64> = (1..=nseeds as u64).collect();
        let cfg = ctx.sampling.unwrap_or_default();
        eprintln!(
            "sampling error: scale {scale}, {nseeds} seed(s), probe {} measure {}...",
            cfg.probe_fraction, cfg.measure_fraction
        );
        let report = sampling_error::collect_with(ctx, scale, &seeds, &cfg)?;
        let rendered = sampling_error::render(&report);
        print!("{rendered}");
        std::fs::create_dir_all("results")?;
        std::fs::write("results/sampling_error.txt", &rendered)?;
        std::fs::write(
            "results/sampling_error.json",
            serde_json::to_string_pretty(&report)?,
        )?;
        eprintln!("wrote results/sampling_error.txt and results/sampling_error.json");
        Ok(())
    })
}
