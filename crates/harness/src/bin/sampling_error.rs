//! Sampled-vs-exact validation sweep: measures the sampled tier's
//! extrapolation error across every workload × frequency and writes a
//! JSON report to `--out PATH` (default `results/sampling_error.json`,
//! which the accuracy test in `tests/verdicts.rs` checks) with the text
//! report beside it (same path, `.txt` extension).
//!
//! Usage: `cargo run --release -p harness --bin sampling_error -- [scale] [seeds] [--out PATH] [--jobs N] [--sampling CFG]`
//!
//! `--sampling` here selects the measure fraction under test (default:
//! the default `SamplingConfig`); the exact arm always runs exactly.

use std::process::ExitCode;

use harness::cli::{self, Kind};
use harness::experiments::sampling_error;

fn main() -> ExitCode {
    let flags = [("--out", Kind::Value)];
    let names = &["scale", "seeds"];
    cli::main_with("sampling_error", &flags, names, |ctx, args| {
        let scale: f64 = args.get("scale")?.unwrap_or(1.0);
        let nseeds: usize = args.get("seeds")?.unwrap_or(1);
        let seeds: Vec<u64> = (1..=nseeds as u64).collect();
        let cfg = ctx.sampling.unwrap_or_default();
        eprintln!(
            "sampling error: scale {scale}, {nseeds} seed(s), probe {} measure {}...",
            simx::sampling::PROBE_FRACTION,
            cfg.measure_fraction
        );
        let report = sampling_error::collect_with(ctx, scale, &seeds, &cfg)?;
        let rendered = sampling_error::render(&report);
        print!("{rendered}");
        let json = serde_json::to_string_pretty(&report)?;
        let path = cli::write_reports(
            args.value("--out"),
            "results/sampling_error.json",
            &json,
            &rendered,
        )?;
        eprintln!("wrote {} and its .txt report", path.display());
        Ok(())
    })
}
