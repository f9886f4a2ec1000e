//! Fleet acceptance tests: a seeded chaos fleet run is deterministic
//! (byte-identical across job counts and cache temperature), survives
//! injected crashes and partitions with zero lost points, keeps every
//! shard's checkpoint state independent, and — at zero chaos intensity —
//! reproduces the existing single-machine golden byte-for-byte.

use dvfs_trace::Freq;
use energyx::{DegradationConfig, DegradationLadder};
use harness::experiments::fleet::{self, machine_ladder, FleetConfig};
use harness::run::{ExecCtx, SimPoint, SweepPlan};
use harness::{sim_key, SimCache, SimKey};
use proptest::prelude::*;
use simx::fleet::ChaosConfig;
use simx::{MachineConfig, ThermalConfig};

/// The golden grid's parameters (see `tests/golden.rs`).
const SCALE: f64 = 0.05;
const SEED: u64 = 1;

fn tiny_config(machines: usize, shards: usize, chaos: f64, chaos_seed: u64) -> FleetConfig {
    let mut config = FleetConfig::new(machines, shards, 40, 0.02, SEED);
    config.chaos = ChaosConfig::uniform(chaos, chaos_seed);
    // Two benchmarks keep each cold-cache characterization cheap while
    // still exercising heterogeneous machines (ladders rotate by id).
    config.benches = vec![
        dacapo_sim::benchmark("lusearch").expect("lusearch"),
        dacapo_sim::benchmark("sunflow").expect("sunflow"),
    ];
    config
}

fn report_json(ctx: &ExecCtx, config: &FleetConfig) -> String {
    let outcome = fleet::run_with(ctx, config).expect("fleet run");
    serde_json::to_string_pretty(&outcome.report).expect("serialize report")
}

#[test]
fn chaos_fleet_is_byte_identical_across_jobs_and_cache_temperature() {
    let config = tiny_config(6, 2, 0.6, 7);
    let reference = report_json(&ExecCtx::sequential(), &config);
    // More workers.
    assert_eq!(reference, report_json(&ExecCtx::new(4), &config));
    // Warm cache: a second run on the same context replays every
    // characterization point from memory.
    let ctx = ExecCtx::new(2);
    let cold = report_json(&ctx, &config);
    let warm = report_json(&ctx, &config);
    assert_eq!(reference, cold);
    assert_eq!(cold, warm);
}

#[test]
fn chaos_fleet_loses_no_points_and_reports_every_transition() {
    let config = tiny_config(6, 2, 0.8, 3);
    let outcome = fleet::run_with(&ExecCtx::new(2), &config).expect("fleet survives chaos");
    let report = &outcome.report;
    assert_eq!(report.machines.len(), 6, "every machine reports a row");
    assert!(report.summary.crash_events > 0, "chaos at 0.8 must crash");
    // Every round of every machine is accounted: up modes + down rounds.
    for row in &report.machines {
        let total =
            row.rounds_central + row.rounds_local + row.rounds_fallback + row.rounds_down;
        assert_eq!(total as usize, config.rounds, "machine {}", row.machine);
    }
    // Degradation shows up both as residency and as logged transitions.
    assert!(report.summary.degraded_machine_rounds > 0);
    assert!(
        report.machines.iter().any(|r| !r.transitions.is_empty()),
        "chaos must log degradation transitions"
    );
    // Crashed machines shed traffic (partial by design) but the fleet
    // still serves.
    assert!(report.summary.shed > 0.0);
    assert!(report.summary.served > 0.0);
}

#[test]
fn zero_chaos_fleet_of_one_matches_the_single_machine_golden() {
    let mut config = FleetConfig::new(1, 1, 20, SCALE, SEED);
    config.benches = vec![dacapo_sim::benchmark("lusearch").expect("lusearch")];
    let outcome = fleet::run_with(&ExecCtx::sequential(), &config).expect("fleet run");
    assert_eq!(outcome.charact.len(), 2, "lusearch at 1 and 4 GHz");
    for point in &outcome.charact {
        let path = format!("tests/goldens/{}_{:.0}ghz.json", point.bench, point.ghz);
        let golden = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("golden {path}: {e}"));
        let actual =
            serde_json::to_string_pretty(&*point.summary).expect("serialize summary");
        assert_eq!(
            actual, golden,
            "fleet characterization diverged from {path}"
        );
    }
    // And with no chaos nothing degrades.
    let report = &outcome.report;
    assert_eq!(report.summary.crash_events, 0);
    assert_eq!(report.summary.degraded_machine_rounds, 0);
    assert!(report.machines[0].transitions.is_empty());
}

#[test]
fn shard_namespaces_keep_journal_entries_apart() {
    // The same physical point recorded under shard 0's namespace must
    // not satisfy shard 1's lookup — that is exactly the `--resume`
    // cross-shard replay bug.
    let mut mc = MachineConfig::haswell_quad();
    mc.initial_freq = Freq::from_ghz(1.0);
    let bench = dacapo_sim::benchmark("lusearch").expect("lusearch");
    let key = sim_key(bench, &mc, None, 0.02, SEED);
    assert_ne!(key.in_namespace("shard0"), key.in_namespace("shard1"));
    assert_ne!(key.in_namespace("shard0"), key);

    let dir = std::env::temp_dir().join(format!("depburst-fleet-ns-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    let mut plan = SweepPlan::new();
    plan.push(SimPoint::new(bench, Freq::from_ghz(1.0), 0.02, SEED));
    let mut ctx = ExecCtx::sequential();
    ctx.open_checkpoint(&dir, true).expect("open checkpoint");
    ctx.execute_in(Some("shard0"), &plan).expect("shard0 run");

    let resumed = SimCache::persistent(&dir);
    assert!(
        resumed.load(key.in_namespace("shard0")).is_some(),
        "shard0's own entry must replay"
    );
    assert!(
        resumed.load(key.in_namespace("shard1")).is_none(),
        "shard0's entry must not replay into shard1"
    );
    assert!(
        resumed.load(key).is_none(),
        "a namespaced entry must not satisfy an un-namespaced lookup"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn interrupted_fleet_run_resumes_byte_identically() {
    let dir = std::env::temp_dir().join(format!("depburst-fleet-resume-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    let config = tiny_config(4, 2, 0.5, 9);
    let reference = report_json(&ExecCtx::new(2), &config);

    // "Interrupt": checkpoint only shard 0's characterization, as if the
    // run died mid-sweep after one shard's points completed.
    {
        let bench_pool = &config.benches;
        let mut plan = SweepPlan::new();
        for m in [0usize, 1] {
            let bench = bench_pool[m % bench_pool.len()];
            for ghz in [1.0, 4.0] {
                plan.push(SimPoint::new(bench, Freq::from_ghz(ghz), config.scale, config.seed));
            }
        }
        let mut ctx = ExecCtx::sequential();
        ctx.open_checkpoint(&dir, true).expect("open checkpoint");
        ctx.execute_in(Some("shard0"), &plan).expect("partial run");
    }

    // Resume: a fresh context (cold cache) with the partial checkpoint
    // must replay shard 0, re-simulate the rest, and produce the
    // reference bytes.
    let mut resumed_ctx = ExecCtx::new(2);
    resumed_ctx.open_checkpoint(&dir, false).expect("resume checkpoint");
    let resumed = report_json(&resumed_ctx, &config);
    assert_eq!(reference, resumed, "resumed fleet diverged");
    let stats = resumed_ctx.checkpoint().expect("checkpoint attached").stats();
    assert!(stats.disk_hits > 0, "shard 0's points must replay");
    let _ = std::fs::remove_dir_all(&dir);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Satellite: chosen frequencies stay on each machine's own V/f
    /// ladder in every degraded mode. The fleet run itself enforces this
    /// (an off-ladder round is a `LadderMembership` invariant error), so
    /// surviving arbitrary chaos proves it for central, local and
    /// fallback modes at once.
    #[test]
    fn frequencies_stay_on_ladder_under_arbitrary_chaos(
        intensity in 0.0f64..=1.0,
        chaos_seed in 0u64..1000,
        machines in 1usize..6,
    ) {
        let config = tiny_config(machines, 2, intensity, chaos_seed);
        let outcome = fleet::run_with(&ExecCtx::sequential(), &config)
            .expect("no invariant violation under chaos");
        for row in &outcome.report.machines {
            let ladder = machine_ladder(row.machine);
            prop_assert!(ladder.len() > 1);
        }
    }

    /// Satellite: failover/rejoin sequences are a pure function of
    /// (seed, chaos schedule) — two runs of the same config produce the
    /// same transitions on every machine, and a different chaos seed is
    /// allowed to (and at full intensity does) change them.
    #[test]
    fn failover_sequences_are_pure_functions_of_seed_and_schedule(
        intensity in 0.0f64..=1.0,
        chaos_seed in 0u64..1000,
    ) {
        let config = tiny_config(4, 2, intensity, chaos_seed);
        let a = fleet::run_with(&ExecCtx::sequential(), &config).expect("run a");
        let b = fleet::run_with(&ExecCtx::new(3), &config).expect("run b");
        for (ra, rb) in a.report.machines.iter().zip(&b.report.machines) {
            prop_assert_eq!(&ra.transitions, &rb.transitions);
        }
        prop_assert_eq!(
            serde_json::to_string(&a.report).expect("a"),
            serde_json::to_string(&b.report).expect("b")
        );
    }

    /// Satellite: the ladder's rejoin hysteresis stays monotone under
    /// arbitrary interleavings of chaos (partition, telemetry loss,
    /// crash-restart) and thermal-emergency rounds. Each command byte
    /// encodes one round's health triple (reachable / telemetry /
    /// thermal-ok) or a crash restart; the test replays the sequence
    /// against its own streak bookkeeping and requires every upward move
    /// to follow a full fully-healthy rejoin window — thermally pinned
    /// rounds must neither demote the ladder nor count toward rejoin.
    #[test]
    fn rejoin_hysteresis_is_monotone_under_interleaved_chaos_and_thermal(
        commands in proptest::collection::vec(0u8..=8, 1..200),
    ) {
        let config = DegradationConfig::default();
        let mut ladder = DegradationLadder::new(config);
        let mut healthy = 0u32;
        for (round, &cmd) in commands.iter().enumerate() {
            let round = round as u64;
            if cmd == 8 {
                ladder.force_fallback(round, "crash-restart");
                healthy = 0;
                continue;
            }
            let reachable = cmd & 1 != 0;
            let telemetry = cmd & 2 != 0;
            let thermal_ok = cmd & 4 != 0;
            let before = ladder.mode();
            let after = ladder.observe_health(round, reachable, telemetry, thermal_ok);
            if reachable && telemetry && thermal_ok {
                healthy += 1;
            } else {
                healthy = 0;
            }
            if after.rung() > before.rung() {
                // A promotion spent the whole hysteresis window, all of
                // it fully healthy — so never on a thermally pinned or
                // chaos-afflicted round.
                prop_assert!(reachable && telemetry && thermal_ok);
                prop_assert!(healthy >= config.rejoin_threshold);
                prop_assert_eq!(after.rung(), before.rung() + 1, "one rung per window");
                healthy = 0;
            }
            // Thermal pinning alone never demotes: authority over a
            // throttled machine belongs to the throttle ladder, not the
            // degradation ladder.
            if reachable && telemetry && !thermal_ok {
                prop_assert!(after.rung() >= before.rung());
            }
        }
        prop_assert!(ladder.monotonicity_issue().is_none(),
            "{:?}", ladder.monotonicity_issue());
    }
}

#[test]
fn zero_thermal_fleet_is_byte_identical_to_the_legacy_config() {
    // Satellite regression pin: the thermal/hierarchy layer must be
    // invisible when disabled. A legacy config (all defaults) and one
    // that *explicitly* disables every extension must serialize
    // byte-identical reports — i.e. the disabled thermal model draws no
    // randomness and the extended summary fields stay absent — so the
    // committed pre-thermal results/fleet.json remains reproducible.
    let legacy = tiny_config(4, 2, 0.6, 7);
    let mut explicit = tiny_config(4, 2, 0.6, 7);
    explicit.thermal = ThermalConfig::disabled();
    explicit.regions = 1;
    explicit.hierarchy = false;
    assert!(!legacy.extended(), "legacy config must not opt in");
    assert!(!explicit.extended(), "explicitly-disabled config must not opt in");

    let ctx = ExecCtx::sequential();
    let a = report_json(&ctx, &legacy);
    let b = report_json(&ctx, &explicit);
    assert_eq!(a, b, "disabled thermal layer perturbed the legacy report");
    // The extended keys must not leak into legacy serializations: their
    // absence is what keeps old reports byte-stable.
    for key in [
        "strict_slo_attainment",
        "peak_temp_mc",
        "emergency_throttles",
        "thermal_shutdowns",
        "black_starts",
        "breaker_trips",
        "brownout_rounds",
    ] {
        assert!(!a.contains(key), "legacy report leaked extended key {key}");
    }
}

#[test]
fn namespaced_keys_are_stable_across_processes() {
    // The namespace derivation must be content-addressed (StableHasher),
    // not process-local: pin one value forever.
    let key = SimKey(0x0123_4567_89ab_cdef_fedc_ba98_7654_3210);
    let ns = key.in_namespace("shard7");
    assert_eq!(ns, key.in_namespace("shard7"));
    assert_ne!(ns, key.in_namespace("shard8"));
}
