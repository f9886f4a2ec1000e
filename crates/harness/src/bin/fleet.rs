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

use harness::cli;
use harness::experiments::fleet::{self, FleetConfig};
use simx::fleet::ChaosConfig;
use simx::ThermalConfig;

fn main() -> ExitCode {
    let extra = [
        "--shards",
        "--chaos",
        "--chaos-seed",
        "--policy",
        "--budget",
        "--slo",
        "--bench",
        "--regions",
        "--hierarchy",
        "--thermal",
        "--brownout",
        "--region-crash",
        "--sensor-stuck",
        "--out",
    ];
    cli::main_with_flags("fleet", &extra, |ctx, args| {
        // The fleet's round loop is its own reduced-order model over
        // two-point characterizations; the sampled-execution tier does
        // not apply and silently accepting it would misreport coverage.
        if ctx.sampling.is_some() {
            return Err(depburst_core::DepburstError::UnsupportedOption {
                option: "--sampling".to_owned(),
                detail: "the fleet characterizes machines from full two-point runs; \
                         the sampled tier applies to the point pipeline only"
                    .to_owned(),
            }
            .into());
        }
        let (shards, args) = cli::split_flag(args, "--shards")?;
        let (chaos, args) = cli::split_flag(&args, "--chaos")?;
        let (chaos_seed, args) = cli::split_flag(&args, "--chaos-seed")?;
        let (policy, args) = cli::split_flag(&args, "--policy")?;
        let (budget, args) = cli::split_flag(&args, "--budget")?;
        let (slo, args) = cli::split_flag(&args, "--slo")?;
        let (bench, args) = cli::split_flag(&args, "--bench")?;
        let (regions, args) = cli::split_flag(&args, "--regions")?;
        let (hierarchy, args) = cli::split_flag(&args, "--hierarchy")?;
        let (thermal, args) = cli::split_flag(&args, "--thermal")?;
        let (brownout, args) = cli::split_flag(&args, "--brownout")?;
        let (region_crash, args) = cli::split_flag(&args, "--region-crash")?;
        let (sensor_stuck, args) = cli::split_flag(&args, "--sensor-stuck")?;
        let (out, args) = cli::split_flag(&args, "--out")?;

        let machines: usize = args.first().and_then(|s| s.parse().ok()).unwrap_or(8);
        let rounds: usize = args.get(1).and_then(|s| s.parse().ok()).unwrap_or(120);
        let scale: f64 = args.get(2).and_then(|s| s.parse().ok()).unwrap_or(0.05);
        let seed: u64 = args.get(3).and_then(|s| s.parse().ok()).unwrap_or(1);

        let shards: usize = match shards {
            Some(v) => v
                .parse()
                .map_err(|_| format!("invalid --shards value {v:?}"))?,
            None => machines.clamp(1, 4),
        };
        let intensity: f64 = match chaos {
            Some(v) => v
                .parse::<f64>()
                .ok()
                .filter(|i| (0.0..=1.0).contains(i))
                .ok_or_else(|| format!("invalid --chaos value {v:?} (want [0, 1])"))?,
            None => 0.0,
        };
        let chaos_seed: u64 = match chaos_seed {
            Some(v) => v
                .parse()
                .map_err(|_| format!("invalid --chaos-seed value {v:?}"))?,
            None => seed,
        };

        let parse_intensity = |name: &str, v: Option<String>| -> Result<f64, String> {
            match v {
                Some(v) => v
                    .parse::<f64>()
                    .ok()
                    .filter(|i| (0.0..=1.0).contains(i))
                    .ok_or_else(|| format!("invalid {name} value {v:?} (want [0, 1])")),
                None => Ok(0.0),
            }
        };
        let parse_switch = |name: &str, v: Option<String>| -> Result<bool, String> {
            match v.as_deref() {
                None | Some("off") => Ok(false),
                Some("on") => Ok(true),
                Some(other) => Err(format!("invalid {name} value {other:?} (want on or off)")),
            }
        };

        let mut config = FleetConfig::new(machines, shards, rounds, scale, seed);
        config.chaos = ChaosConfig::uniform(intensity, chaos_seed);
        config.chaos.brownout = parse_intensity("--brownout", brownout)?;
        config.chaos.aggregator_crash = parse_intensity("--region-crash", region_crash)?;
        config.chaos.sensor_stuck = parse_intensity("--sensor-stuck", sensor_stuck)?;
        config.hierarchy = parse_switch("--hierarchy", hierarchy)?;
        if parse_switch("--thermal", thermal)? {
            config.thermal = ThermalConfig::datacenter(chaos_seed);
        }
        if let Some(v) = regions {
            config.regions = v
                .parse::<usize>()
                .ok()
                .filter(|r| *r >= 1)
                .ok_or_else(|| format!("invalid --regions value {v:?} (want >= 1)"))?;
        }
        config.sabotage = cli::sabotage_from_env()?;
        if let Some(name) = policy {
            config.policy = energyx::GovernorPolicy::from_name(&name).ok_or_else(|| {
                format!("unknown --policy {name:?} (want oracle, depburst or naive)")
            })?;
        }
        if let Some(v) = budget {
            config.budget_w = v
                .parse::<f64>()
                .ok()
                .filter(|w| *w >= 0.0)
                .ok_or_else(|| format!("invalid --budget value {v:?}"))?;
        }
        if let Some(v) = slo {
            config.slo_factor = v
                .parse::<f64>()
                .ok()
                .filter(|f| *f >= 1.0)
                .ok_or_else(|| format!("invalid --slo value {v:?} (want >= 1)"))?;
        }
        if let Some(name) = bench {
            let b = dacapo_sim::benchmark(&name)
                .ok_or_else(|| format!("unknown --bench {name:?}"))?;
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
        let path = cli::write_report(out, "results/fleet.json", &json)?;
        eprintln!(
            "wrote {} ({} machines)",
            path.display(),
            outcome.report.machines.len()
        );
        Ok(())
    })
}
