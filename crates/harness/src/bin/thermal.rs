//! Runs the thermal & power-integrity experiment: the 2×2 matrix of
//! (flat vs hierarchical governance) × (calm vs brownout/region-crash
//! storm) with the per-machine RC thermal model armed.
//!
//! Usage: `cargo run --release -p harness --bin thermal -- [machines]
//! [rounds] [scale] [seed] [--shards N] [--regions N] [--brownout I]
//! [--region-crash I] [--sensor-stuck I] [--out PATH] [--jobs N] ...`
//!
//! Deterministic for a fixed flag set: any `--jobs` count and any cache
//! temperature produce a byte-identical JSON report, written to
//! `--out PATH` (default `results/thermal.json`).
//! `--sampling on` is rejected like the fleet's: characterization uses
//! full two-point runs only.

use std::process::ExitCode;

use harness::cli::{self, Flag, Kind};
use harness::experiments::thermal::{self, ThermalConfigExp};

const FLAGS: [Flag; 6] = [
    ("--shards", Kind::Positive),
    ("--regions", Kind::Positive),
    ("--brownout", Kind::Intensity),
    ("--region-crash", Kind::Intensity),
    ("--sensor-stuck", Kind::Intensity),
    ("--out", Kind::Value),
];

fn main() -> ExitCode {
    let names = &["machines", "rounds", "scale", "seed"];
    cli::main_with("thermal", &FLAGS, names, |ctx, args| {
        cli::require_exact(ctx, "the thermal matrix")?;
        let machines: usize = args.get("machines")?.unwrap_or(12);
        let rounds: usize = args.get("rounds")?.unwrap_or(160);
        let scale: f64 = args.get("scale")?.unwrap_or(0.02);
        let seed: u64 = args.get("seed")?.unwrap_or(1);

        let mut exp = ThermalConfigExp::new(machines, rounds, scale, seed);
        exp.shards = args.get("--shards")?.unwrap_or(exp.shards);
        exp.regions = args.get("--regions")?.unwrap_or(exp.regions);
        exp.brownout = args.get("--brownout")?.unwrap_or(exp.brownout);
        exp.aggregator_crash = args.get("--region-crash")?.unwrap_or(exp.aggregator_crash);
        exp.sensor_stuck = args.get("--sensor-stuck")?.unwrap_or(exp.sensor_stuck);

        eprintln!(
            "thermal: {machines} machines / {} shards / {} regions, {rounds} rounds × 4 \
             scenarios (seed {seed})...",
            exp.shards, exp.regions
        );
        let report = thermal::run_with(ctx, &exp)?;
        print!("{}", thermal::render(&report));
        let json = serde_json::to_string_pretty(&report)?;
        let path = cli::write_report(args.value("--out"), "results/thermal.json", &json)?;
        eprintln!(
            "wrote {} ({} scenarios)",
            path.display(),
            report.scenarios.len()
        );
        Ok(())
    })
}
