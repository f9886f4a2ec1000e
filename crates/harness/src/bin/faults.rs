//! Runs the fault-injection sweep: predictor accuracy and hardened-manager
//! degradation under each fault class × intensity.
//!
//! Usage: `cargo run --release -p harness --bin faults -- [scale] [seed]
//! [threshold-percent] [--panic-point P] [--jobs N]`
//!
//! `--panic-point P` appends a seeded [`simx::FaultClass::PanicPoint`]
//! cell per benchmark that panics inside point evaluation with
//! probability `P`, exercising the harness's panic isolation end to end:
//! the other cells complete, the dead cells land in
//! `results/faults_failures.json`, and the process exits 2.

use std::process::ExitCode;

use harness::cli::{self, Kind};
use harness::experiments::faults;

fn main() -> ExitCode {
    let flags = [("--panic-point", Kind::Intensity)];
    let names = &["scale", "seed", "threshold-percent"];
    cli::main_with("faults", &flags, names, |ctx, args| {
        let panic_point: Option<f64> = args.get("--panic-point")?;
        let scale: f64 = args.get("scale")?.unwrap_or(0.05);
        let seed: u64 = args.get("seed")?.unwrap_or(1);
        let threshold: f64 = args.get("threshold-percent")?.unwrap_or(10.0) / 100.0;
        let intensities = [0.1, 0.25, 0.5, 1.0];
        eprintln!(
            "fault sweep at scale {scale}, seed {seed}, threshold {:.0}%...",
            threshold * 100.0
        );
        let rows = faults::collect_with(ctx, scale, seed, threshold, &intensities, panic_point)?;
        println!("{}", faults::render(&rows));
        let json = serde_json::to_string_pretty(&rows)?;
        std::fs::create_dir_all("results")?;
        std::fs::write("results/faults.json", &json)?;
        eprintln!("wrote results/faults.json ({} rows)", rows.len());
        Ok(())
    })
}
