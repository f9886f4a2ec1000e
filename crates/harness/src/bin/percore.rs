//! Extension: per-core DVFS with application/service isolation (the
//! paper's stated future work, in the style of Sartor et al. \[35\]).
//!
//! Usage: `cargo run --release -p harness --bin percore -- [scale] [seed] [benchmarks...] [--jobs N]`

use std::process::ExitCode;

use harness::cli;
use harness::experiments::percore;

fn main() -> ExitCode {
    let names = &["scale", "seed", "benchmarks..."];
    cli::main_with("percore", &[], names, |ctx, args| {
        let scale: f64 = args.get("scale")?.unwrap_or(0.4);
        let seed: u64 = args.get("seed")?.unwrap_or(1);
        let benches: Vec<&str> = match args.rest("benchmarks...") {
            [] => vec!["xalan", "lusearch", "sunflow"],
            named => named.iter().map(String::as_str).collect(),
        };
        let mut all = Vec::new();
        for name in benches {
            let bench =
                dacapo_sim::benchmark(name).ok_or_else(|| format!("unknown benchmark {name}"))?;
            eprintln!("per-core study: {name}, scale {scale}...");
            let rows = percore::collect_with(ctx, bench, scale, seed)?;
            println!("{}", percore::render(&rows));
            all.extend(rows);
        }
        println!("{}", serde_json::to_string_pretty(&all)?);
        Ok(())
    })
}
