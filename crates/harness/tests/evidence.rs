//! The committed JSON evidence reproduces byte for byte: rerunning, in
//! process, the configs behind `results/fleet.json`,
//! `results/thermal.json` and `results/faults.json` serializes exactly
//! the committed files. Any change that moves a fleet, thermal or fault
//! sweep number fails here until `run_experiments.sh` regenerates the
//! evidence.
//!
//! A census accounts for every other file under `results/`: each is
//! reproduced by a test or listed with the command that regenerates it.

use std::collections::BTreeSet;
use std::fs;
use std::path::Path;

use energyx::GovernorPolicy;
use harness::experiments::faults;
use harness::experiments::fleet::{self, FleetConfig};
use harness::experiments::thermal::{self, ThermalConfigExp};
use harness::ExecCtx;
use simx::fleet::ChaosConfig;

fn repo() -> &'static Path {
    Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/../.."))
}

fn committed(name: &str) -> String {
    let path = repo().join("results").join(name);
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

#[test]
fn committed_faults_json_reproduces() {
    // EXPERIMENTS.md's fault sweep: faults 0.1 1 (threshold 10%). The only
    // committed result whose DRAM jitter and counter faults reach the
    // predictors.
    let rows = faults::collect_with(&ExecCtx::new(2), 0.1, 1, 0.10, &faults::INTENSITIES, None)
        .expect("fault sweep");
    let json = serde_json::to_string_pretty(&rows).expect("serialize fault rows");
    assert!(
        json == committed("faults.json"),
        "results/faults.json no longer reproduces; regenerate it with run_experiments.sh"
    );
}

/// Committed results a test reproduces byte for byte: the three above,
/// and `fig3.txt` and `fig6.txt` by perfbench's tests.
const REPRODUCED: &[&str] = &[
    "faults.json",
    "fleet.json",
    "thermal.json",
    "fig3.txt",
    "fig6.txt",
];

/// Committed results no test reproduces, each with what regenerates it
/// from the repository root: a `run_experiments.sh` step (the script
/// must name the file) or, for the reports the script does not write,
/// the binary's command line.
const REGENERATED: &[(&str, &str)] = &[
    ("table2.txt", "run_experiments.sh: table2"),
    ("table1.txt", "run_experiments.sh: table1 $SCALE"),
    ("table1.log", "run_experiments.sh: table1 $SCALE"),
    ("fig1.txt", "run_experiments.sh: fig1 $SCALE $SEEDS"),
    ("fig1.log", "run_experiments.sh: fig1 $SCALE $SEEDS"),
    ("fig3.log", "run_experiments.sh: fig3 both $SCALE $SEEDS"),
    ("fig4.txt", "run_experiments.sh: fig4 $SCALE $SEEDS"),
    ("fig4.log", "run_experiments.sh: fig4 $SCALE $SEEDS"),
    ("fig6.log", "run_experiments.sh: fig6 \"\" $SCALE"),
    ("fig7.txt", "run_experiments.sh: fig7 10 $SCALE 1 250"),
    ("fig7.log", "run_experiments.sh: fig7 10 $SCALE 1 250"),
    ("ablation.txt", "run_experiments.sh: ablation $SCALE"),
    ("ablation.log", "run_experiments.sh: ablation $SCALE"),
    ("percore.txt", "run_experiments.sh: percore $SCALE"),
    ("percore.log", "run_experiments.sh: percore $SCALE"),
    ("faults.txt", "run_experiments.sh: faults 0.1 1"),
    ("faults.log", "run_experiments.sh: faults 0.1 1"),
    ("sampling_error.json", "target/release/sampling_error 1.0 3 --jobs 4"),
    ("sampling_error.txt", "target/release/sampling_error 1.0 3 --jobs 4"),
    ("torture.json", "target/release/torture"),
    ("torture.txt", "target/release/torture"),
];

/// The names under `results/`, leaving out what `.gitignore` keeps out
/// of the repository: `cache/`, `checkpoints/` and `*_failures.json`.
fn results_listing() -> BTreeSet<String> {
    let dir = repo().join("results");
    fs::read_dir(&dir)
        .unwrap_or_else(|e| panic!("list {}: {e}", dir.display()))
        .map(|entry| {
            entry
                .expect("a directory entry")
                .file_name()
                .into_string()
                .expect("a UTF-8 name")
        })
        .filter(|name| {
            !matches!(name.as_str(), "cache" | "checkpoints") && !name.ends_with("_failures.json")
        })
        .collect()
}

/// The census over `present`: the names neither reproduced nor listed,
/// and the accounted-for names that are missing.
fn census(present: &BTreeSet<String>) -> (Vec<String>, Vec<String>) {
    let accounted: BTreeSet<&str> = REPRODUCED
        .iter()
        .chain(REGENERATED.iter().map(|(name, _)| name))
        .copied()
        .collect();
    let unlisted = present
        .iter()
        .filter(|name| !accounted.contains(name.as_str()))
        .cloned()
        .collect();
    let missing = accounted
        .into_iter()
        .filter(|name| !present.contains(*name))
        .map(str::to_owned)
        .collect();
    (unlisted, missing)
}

#[test]
fn every_committed_result_is_reproduced_or_listed() {
    let (unlisted, missing) = census(&results_listing());
    assert!(
        unlisted.is_empty(),
        "results/ holds files no test reproduces and no list names: {unlisted:?}"
    );
    assert!(missing.is_empty(), "listed results are missing: {missing:?}");
    let script =
        fs::read_to_string(repo().join("run_experiments.sh")).expect("read run_experiments.sh");
    for &(name, step) in REGENERATED {
        if step.starts_with("run_experiments.sh") {
            assert!(
                script.contains(&format!("results/{name}")),
                "run_experiments.sh does not write results/{name}"
            );
        }
    }
}

#[test]
fn the_census_names_a_planted_file_and_a_missing_one() {
    let mut present = results_listing();
    present.insert("planted.json".to_owned());
    assert_eq!(census(&present), (vec!["planted.json".to_owned()], vec![]));
    present.remove("planted.json");
    present.remove("fig7.txt");
    assert_eq!(census(&present), (vec![], vec!["fig7.txt".to_owned()]));
}
