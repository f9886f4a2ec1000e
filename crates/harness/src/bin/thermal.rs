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

use harness::cli;
use harness::experiments::thermal::{self, ThermalConfigExp};

fn main() -> ExitCode {
    let extra = [
        "--shards",
        "--regions",
        "--brownout",
        "--region-crash",
        "--sensor-stuck",
        "--out",
    ];
    cli::main_with_flags("thermal", &extra, |ctx, args| {
        if ctx.sampling.is_some() {
            return Err(depburst_core::DepburstError::UnsupportedOption {
                option: "--sampling".to_owned(),
                detail: "the thermal matrix characterizes machines from full two-point \
                         runs; the sampled tier applies to the point pipeline only"
                    .to_owned(),
            }
            .into());
        }
        let (shards, args) = cli::split_flag(args, "--shards")?;
        let (regions, args) = cli::split_flag(&args, "--regions")?;
        let (brownout, args) = cli::split_flag(&args, "--brownout")?;
        let (region_crash, args) = cli::split_flag(&args, "--region-crash")?;
        let (sensor_stuck, args) = cli::split_flag(&args, "--sensor-stuck")?;
        let (out, args) = cli::split_flag(&args, "--out")?;

        let machines: usize = args.first().and_then(|s| s.parse().ok()).unwrap_or(12);
        let rounds: usize = args.get(1).and_then(|s| s.parse().ok()).unwrap_or(160);
        let scale: f64 = args.get(2).and_then(|s| s.parse().ok()).unwrap_or(0.02);
        let seed: u64 = args.get(3).and_then(|s| s.parse().ok()).unwrap_or(1);

        let mut exp = ThermalConfigExp::new(machines, rounds, scale, seed);
        let parse_intensity = |name: &str, v: Option<String>| -> Result<f64, String> {
            match v {
                Some(v) => v
                    .parse::<f64>()
                    .ok()
                    .filter(|i| (0.0..=1.0).contains(i))
                    .ok_or_else(|| format!("invalid {name} value {v:?} (want [0, 1])")),
                None => Ok(f64::NAN),
            }
        };
        if let Some(v) = shards {
            exp.shards = v
                .parse::<usize>()
                .ok()
                .filter(|s| *s >= 1)
                .ok_or_else(|| format!("invalid --shards value {v:?}"))?;
        }
        if let Some(v) = regions {
            exp.regions = v
                .parse::<usize>()
                .ok()
                .filter(|r| *r >= 1)
                .ok_or_else(|| format!("invalid --regions value {v:?} (want >= 1)"))?;
        }
        let b = parse_intensity("--brownout", brownout)?;
        if !b.is_nan() {
            exp.brownout = b;
        }
        let a = parse_intensity("--region-crash", region_crash)?;
        if !a.is_nan() {
            exp.aggregator_crash = a;
        }
        let s = parse_intensity("--sensor-stuck", sensor_stuck)?;
        if !s.is_nan() {
            exp.sensor_stuck = s;
        }

        eprintln!(
            "thermal: {machines} machines / {} shards / {} regions, {rounds} rounds × 4 \
             scenarios (seed {seed})...",
            exp.shards, exp.regions
        );
        let report = thermal::run_with(ctx, &exp)?;
        print!("{}", thermal::render(&report));
        let json = serde_json::to_string_pretty(&report)?;
        let path = cli::write_report(out, "results/thermal.json", &json)?;
        eprintln!(
            "wrote {} ({} scenarios)",
            path.display(),
            report.scenarios.len()
        );
        Ok(())
    })
}
