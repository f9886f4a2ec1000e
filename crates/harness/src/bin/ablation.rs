//! Ablation studies: DEP with each per-thread scaling model, and the
//! energy manager's hold-off/quantum sensitivity.
//!
//! Usage: `cargo run --release -p harness --bin ablation -- [scale] [seed] [--jobs N]`

use std::process::ExitCode;

use harness::cli;
use harness::experiments::ablation;

fn main() -> ExitCode {
    cli::main_with("ablation", &[], &["scale", "seed"], |ctx, args| {
        let scale: f64 = args.get("scale")?.unwrap_or(0.4);
        let seed: u64 = args.get("seed")?.unwrap_or(1);
        eprintln!("ablation 1/2: DEP per-thread model, scale {scale}...");
        let rows = ablation::model_ablation_with(ctx, scale, seed)?;
        println!("{}", ablation::render_model_ablation(&rows));
        eprintln!("ablation 2/3: manager hold-off/quantum sweep...");
        let sweep = ablation::manager_sweep_with(ctx, "xalan", scale, seed)?;
        println!("{}", ablation::render_manager_sweep("xalan", &sweep));
        eprintln!("ablation 3/3: offline regression, leave-one-benchmark-out...");
        let reg = ablation::regression_ablation_with(ctx, scale, seed)?;
        println!("{}", ablation::render_regression(&reg));
        println!("{}", serde_json::to_string_pretty(&(rows, sweep, reg))?);
        Ok(())
    })
}
