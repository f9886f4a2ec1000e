//! Runs the fault-injection sweep: predictor accuracy and hardened-manager
//! degradation under each fault class × intensity.
//!
//! Usage: `cargo run --release -p harness --bin faults -- [scale] [seed]
//! [threshold-percent] [--panic-point P] [--out PATH] [--jobs N]`
//!
//! The JSON rows go to `--out PATH` (default `results/faults.json`, the
//! committed sweep); the table goes to stdout.
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
    let flags = [("--panic-point", Kind::Intensity), ("--out", Kind::Value)];
    let names = &["scale", "seed", "threshold-percent"];
    cli::main_with("faults", &flags, names, |ctx, args| {
        let panic_point: Option<f64> = args.get("--panic-point")?;
        let scale: f64 = args.get("scale")?.unwrap_or(0.05);
        let seed: u64 = args.get("seed")?.unwrap_or(1);
        let threshold: f64 = args.get("threshold-percent")?.unwrap_or(10.0) / 100.0;
        eprintln!(
            "fault sweep at scale {scale}, seed {seed}, threshold {:.0}%...",
            threshold * 100.0
        );
        let rows =
            faults::collect_with(ctx, scale, seed, threshold, &faults::INTENSITIES, panic_point)?;
        println!("{}", faults::render(&rows));
        let json = serde_json::to_string_pretty(&rows)?;
        let path = cli::write_report(args.value("--out"), "results/faults.json", &json)?;
        eprintln!("wrote {} ({} rows)", path.display(), rows.len());
        Ok(())
    })
}
