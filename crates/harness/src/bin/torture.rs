//! Runs the storage-fault crash-consistency torture sweep over a small
//! fig. 3 run: crash at every selected VFS operation, resume, and demand
//! byte-identical output or a structured storage failure; flip bits in a
//! persisted envelope and demand quarantine; soak both cache and journal
//! in every probabilistic fault class at once.
//!
//! Usage: `cargo run --release -p harness --bin torture -- [scale] [seed]
//! [--dense N] [--stride N] [--max-points N] [--bitflips N] [--soak F]
//! [--storage-seed N]`
//!
//! Unlike the other binaries this one does not take the shared harness
//! flags: it builds its own execution contexts (a fresh one per crash
//! point, pinned to one worker so the fault schedule is deterministic).
//!
//! Exit codes: 0 = every durability contract held, 1 = usage or
//! infrastructure error, 2 = contract breach — a silent corruption, a
//! served bit flip, or a soak pass whose output diverged.

use std::process::ExitCode;

use harness::cli::{self, Flag, Kind};
use harness::experiments::torture::{self, TortureConfig};

const FLAGS: [Flag; 6] = [
    ("--dense", Kind::Value),
    ("--stride", Kind::Value),
    ("--max-points", Kind::Value),
    ("--bitflips", Kind::Value),
    ("--soak", Kind::Intensity),
    ("--storage-seed", Kind::Value),
];

fn main() -> ExitCode {
    match run() {
        Ok(code) => code,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run() -> Result<ExitCode, Box<dyn std::error::Error>> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = cli::parse(&argv, &FLAGS, &["scale", "seed"])?;
    let d = TortureConfig::default();
    let cfg = TortureConfig {
        scale: args
            .get_where("scale", "a positive number", |s: &f64| *s > 0.0)?
            .unwrap_or(d.scale),
        seed: args.get("seed")?.unwrap_or(d.seed),
        dense: args.get("--dense")?.unwrap_or(d.dense),
        stride: args.get("--stride")?.unwrap_or(d.stride),
        max_points: args.get("--max-points")?.unwrap_or(d.max_points),
        bitflips: args.get("--bitflips")?.unwrap_or(d.bitflips),
        soak_intensity: args.get("--soak")?.unwrap_or(d.soak_intensity),
        storage_seed: args.get("--storage-seed")?.unwrap_or(d.storage_seed),
    };

    let report = torture::run(&cfg)?;
    print!("{}", report.render());
    std::fs::create_dir_all("results")?;
    std::fs::write("results/torture.txt", report.render())?;
    std::fs::write("results/torture.json", serde_json::to_string_pretty(&report)?)?;
    eprintln!("wrote results/torture.json");
    Ok(if report.clean() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(cli::EXIT_POINT_FAILURES)
    })
}
