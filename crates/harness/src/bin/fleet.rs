//! Runs the fleet-scale DVFS governor simulation under a seeded chaos
//! schedule.
//!
//! Usage: `cargo run --release -p harness --bin fleet -- [machines]
//! [rounds] [scale] [seed] [--shards N] [--chaos I] [--chaos-seed S]
//! [--policy oracle|depburst|naive] [--budget W] [--slo F] [--bench NAME]
//! [--regions N] [--hierarchy on|off] [--thermal on|off] [--brownout I]
//! [--region-crash I] [--sensor-stuck I] [--out PATH] [--jobs N] ...`
//!
//! `--chaos I` sets every *legacy* chaos class (machine crash/restart,
//! telemetry dropout, stale harvest, governor partition, slow links) to
//! intensity `I` in `[0, 1]`; `--chaos-seed` decouples the chaos schedule
//! from the workload seed. The thermal/power-integrity classes are opted
//! into individually: `--brownout`, `--region-crash` (region aggregator +
//! root outages), and `--sensor-stuck` take their own intensities so
//! legacy invocations stay byte-identical. `--thermal on` arms the
//! per-machine RC thermal model, throttle ladder, and overshoot breaker;
//! `--regions`/`--hierarchy` shape the governor topology. The run is
//! deterministic for a fixed flag set: any `--jobs` count, any cache
//! temperature, and any `--resume` of an interrupted characterization
//! produce byte-identical output. Crashed rounds are partial **by
//! design** — machines shed traffic and report it — so chaos alone never
//! makes the process exit nonzero. `--sampling on` is rejected: the
//! fleet characterizes from full runs only. The JSON report goes to
//! `--out PATH`, by default `results/fleet.json`.

use std::process::ExitCode;

use harness::cli::{self, Flag, Kind};
use harness::experiments::fleet::{self, FleetConfig};
use simx::fleet::ChaosConfig;
use simx::ThermalConfig;

const FLAGS: [Flag; 14] = [
    ("--shards", Kind::Positive),
    ("--chaos", Kind::Intensity),
    ("--chaos-seed", Kind::Value),
    ("--policy", Kind::Value),
    ("--budget", Kind::Value),
    ("--slo", Kind::Value),
    ("--bench", Kind::Value),
    ("--regions", Kind::Positive),
    ("--hierarchy", Kind::OnOff),
    ("--thermal", Kind::OnOff),
    ("--brownout", Kind::Intensity),
    ("--region-crash", Kind::Intensity),
    ("--sensor-stuck", Kind::Intensity),
    ("--out", Kind::Value),
];

fn main() -> ExitCode {
    let names = &["machines", "rounds", "scale", "seed"];
    cli::main_with("fleet", &FLAGS, names, |ctx, args| {
        cli::require_exact(ctx, "the fleet")?;
        let machines: usize = args.get("machines")?.unwrap_or(8);
        let rounds: usize = args.get("rounds")?.unwrap_or(120);
        let scale: f64 = args.get("scale")?.unwrap_or(0.05);
        let seed: u64 = args.get("seed")?.unwrap_or(1);
        let shards: usize = args.get("--shards")?.unwrap_or(machines.clamp(1, 4));
        let intensity: f64 = args.get("--chaos")?.unwrap_or(0.0);
        let chaos_seed: u64 = args.get("--chaos-seed")?.unwrap_or(seed);

        let mut config = FleetConfig::new(machines, shards, rounds, scale, seed);
        config.chaos = ChaosConfig::uniform(intensity, chaos_seed);
        config.chaos.brownout = args.get("--brownout")?.unwrap_or(0.0);
        config.chaos.aggregator_crash = args.get("--region-crash")?.unwrap_or(0.0);
        config.chaos.sensor_stuck = args.get("--sensor-stuck")?.unwrap_or(0.0);
        config.hierarchy = args.on("--hierarchy");
        if args.on("--thermal") {
            config.thermal = ThermalConfig::datacenter(chaos_seed);
        }
        config.regions = args.get("--regions")?.unwrap_or(config.regions);
        config.sabotage = cli::sabotage_from_env()?;
        if let Some(name) = args.value("--policy") {
            config.policy = energyx::GovernorPolicy::from_name(name).ok_or_else(|| {
                format!("unknown --policy {name:?} (want oracle, depburst or naive)")
            })?;
        }
        let budget_w = args.get_where("--budget", ">= 0", |w: &f64| *w >= 0.0)?;
        config.budget_w = budget_w.unwrap_or(config.budget_w);
        let slo_factor = args.get_where("--slo", ">= 1", |f: &f64| *f >= 1.0)?;
        config.slo_factor = slo_factor.unwrap_or(config.slo_factor);
        if let Some(name) = args.value("--bench") {
            let b =
                dacapo_sim::benchmark(name).ok_or_else(|| format!("unknown --bench {name:?}"))?;
            config.benches = vec![b];
        }

        eprintln!(
            "fleet: {machines} machines / {shards} shards, {rounds} rounds, \
             chaos {intensity} (seed {chaos_seed}), policy {}...",
            config.policy
        );
        let outcome = fleet::run_with(ctx, &config)?;
        print!("{}", fleet::render(&outcome.report));
        let json = serde_json::to_string_pretty(&outcome.report)?;
        let path = cli::write_report(args.value("--out"), "results/fleet.json", &json)?;
        eprintln!(
            "wrote {} ({} machines)",
            path.display(),
            outcome.report.machines.len()
        );
        Ok(())
    })
}
