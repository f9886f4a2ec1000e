//! `fuzz` — seeded structure-aware fuzzing of the simulator under the
//! full invariant monitor, with shrinking.
//!
//! Usage: `fuzz [--seeds N] [--seed S] [--shrink] [--fleet] [--jobs N]`
//!
//! Generates `--seeds N` cases (default 25) from campaign seed `--seed S`
//! (default 1), runs each under the full invariant monitor whatever
//! `DEPBURST_INVARIANTS` says, and — with `--shrink` — reduces every
//! violating case to a minimal reproducer.
//! Campaigns are byte-for-byte reproducible: same seed, same cases, same
//! findings, same reproducers.
//!
//! `--fleet` switches to the fleet tier: cases are whole fleet rounds on
//! synthetic machines — governance topology, chaos schedules (including
//! brownout / aggregator-crash / stuck-sensor), and the thermal layer —
//! checked against the fleet invariants (thermal ceiling, throttle
//! monotonicity, hierarchy budget conservation, rejoin monotonicity, …)
//! and shrunk with topology-aware transforms.
//!
//! Violations are recorded as point failures (`results/fuzz_failures.json`,
//! exit code 2), with the shrunk reproducer's JSON in the detail.
//!
//! The test-only sabotage hook: setting `DEPBURST_BREAK_INVARIANT` to an
//! invariant name (e.g. `counter-conservation`) deliberately weakens that
//! check so it fires on healthy data — CI uses it to prove the campaign
//! machinery catches and shrinks real violations.

use std::process::ExitCode;

use harness::cli::{self, Args, CliResult, Flag, Kind};
use harness::fuzz::{self, Finding};
use harness::resilience::{FailureCause, PointFailure};
use harness::ExecCtx;
use serde::Serialize;

const FLAGS: [Flag; 4] = [
    ("--seeds", Kind::Value),
    ("--seed", Kind::Value),
    ("--shrink", Kind::Bare),
    ("--fleet", Kind::Bare),
];

fn main() -> ExitCode {
    cli::main_with("fuzz", &FLAGS, &[], body)
}

fn body(ctx: &ExecCtx, args: &Args) -> CliResult {
    let cases: u64 = args.get("--seeds")?.unwrap_or(25);
    let campaign_seed: u64 = args.get("--seed")?.unwrap_or(1);
    let shrink = args.has("--shrink");
    let fleet_tier = args.has("--fleet");
    let sabotage = cli::sabotage_from_env()?;

    println!(
        "fuzz campaign: seed {campaign_seed}, {cases} case(s), shrink={shrink}, tier={}",
        if fleet_tier { "fleet" } else { "point" }
    );
    if let Some(inv) = sabotage {
        println!("sabotage hook armed: {} deliberately weakened", inv.name());
    }
    if fleet_tier {
        let findings = fuzz::run_fleet_campaign(campaign_seed, cases, shrink, sabotage);
        report(ctx, "fleet fuzz", campaign_seed, &findings, |c| {
            format!(
                "{}m/{}r {} {} chaos {}/{}/{}/{}",
                c.machines,
                c.regions,
                if c.hierarchy { "hier" } else { "flat" },
                if c.thermal { "thermal" } else { "cold" },
                c.chaos_milli,
                c.brownout_milli,
                c.aggregator_milli,
                c.sensor_milli,
            )
        })
    } else {
        let findings = fuzz::run_campaign(campaign_seed, cases, shrink, sabotage);
        report(ctx, "fuzz", campaign_seed, &findings, |c| {
            format!("{} @ scale {}", c.bench, c.scale())
        })
    }
}

/// Prints one line per finding (`describe` renders a clean case) and the
/// campaign total, recording each violation, with its shrunk reproducer's
/// JSON, as an `Invariant` point failure labelled `TIER case N`.
fn report<C: Serialize>(
    ctx: &ExecCtx,
    tier: &str,
    campaign_seed: u64,
    findings: &[Finding<C>],
    describe: impl Fn(&C) -> String,
) -> CliResult {
    let mut violations = 0usize;
    for finding in findings {
        let Some(v) = &finding.violation else {
            let case = describe(&finding.case);
            println!("case {:>3}: ok       {case}", finding.index);
            continue;
        };
        violations += 1;
        println!(
            "case {:>3}: VIOLATION [{}] {}",
            finding.index, v.invariant, v.detail
        );
        let mut detail = format!("[{}] {}", v.invariant, v.detail);
        if let Some(minimal) = &finding.shrunk {
            let json = serde_json::to_string(minimal)?;
            println!("          shrunk reproducer: {json}");
            detail.push_str(&format!("; shrunk reproducer: {json}"));
        }
        ctx.record_failure(PointFailure {
            label: format!(
                "{tier} case {} (campaign seed {campaign_seed})",
                finding.index
            ),
            cause: FailureCause::Invariant,
            attempts: 1,
            detail,
        });
    }
    println!(
        "fuzz campaign done: {} case(s), {violations} violation(s)",
        findings.len()
    );
    Ok(())
}
