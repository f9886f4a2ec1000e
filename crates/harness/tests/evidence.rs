//! The committed fleet evidence reproduces byte for byte: rerunning, in
//! process, the configs behind `results/fleet.json` and
//! `results/thermal.json` serializes exactly the committed files. Any
//! change that moves a fleet or thermal number fails here until
//! `run_experiments.sh` regenerates the evidence.

use std::fs;
use std::path::PathBuf;

use energyx::GovernorPolicy;
use harness::experiments::fleet::{self, FleetConfig};
use harness::experiments::thermal::{self, ThermalConfigExp};
use harness::ExecCtx;
use simx::fleet::ChaosConfig;

fn committed(name: &str) -> String {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../../results")
        .join(name);
    fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

#[test]
fn committed_fleet_json_reproduces() {
    // README's quickstart:
    // fleet 8 120 0.05 1 --shards 2 --chaos 0.5 --chaos-seed 7 --policy depburst
    let mut config = FleetConfig::new(8, 2, 120, 0.05, 1);
    config.chaos = ChaosConfig::uniform(0.5, 7);
    config.policy = GovernorPolicy::DepBurst;
    let outcome = fleet::run_with(&ExecCtx::new(2), &config).expect("fleet run");
    let json = serde_json::to_string_pretty(&outcome.report).expect("serialize fleet report");
    assert!(
        json == committed("fleet.json"),
        "results/fleet.json no longer reproduces; regenerate it with run_experiments.sh"
    );
}

#[test]
fn committed_thermal_json_reproduces() {
    // EXPERIMENTS.md's thermal matrix: thermal 12 160 0.02 1
    let exp = ThermalConfigExp::new(12, 160, 0.02, 1);
    let report = thermal::run_with(&ExecCtx::new(2), &exp).expect("thermal run");
    let json = serde_json::to_string_pretty(&report).expect("serialize thermal report");
    assert!(
        json == committed("thermal.json"),
        "results/thermal.json no longer reproduces; regenerate it with run_experiments.sh"
    );
}
