//! Thermal & power-integrity acceptance tests: the thermal stack on a
//! synthetic fleet is deterministic, its extended telemetry only
//! appears when armed, the storm actually heats machines and engages
//! the throttle/breaker machinery, and a whole fuzz campaign of
//! structured fleet cases survives the fleet invariants. The heavy
//! characterization-backed matrix lives in the `thermal` binary and its
//! CI gate; these tests pin the layer's semantics in milliseconds.

use harness::experiments::fleet;
use harness::fuzz::{self, FleetFuzzCase};
use simx::thermal::AMBIENT_MC;
use simx::ThermalConfig;

/// A storm that exercises hierarchy, thermal, and every chaos class.
fn stormy() -> FleetFuzzCase {
    FleetFuzzCase {
        machines: 6,
        shards: 2,
        regions: 3,
        rounds: 60,
        seed: 1,
        hierarchy: true,
        thermal: true,
        chaos_milli: 400,
        brownout_milli: 600,
        aggregator_milli: 600,
        sensor_milli: 300,
        outage_rounds: 16,
        budget_w_per_machine: 60,
        profiles: vec![0, 1],
    }
}

#[test]
fn thermal_storm_fleet_is_deterministic() {
    let case = stormy();
    let a = fleet::run_synthetic(&case.config(), &case.params()).expect("run a");
    let b = fleet::run_synthetic(&case.config(), &case.params()).expect("run b");
    assert_eq!(
        serde_json::to_string(&a).expect("a"),
        serde_json::to_string(&b).expect("b"),
        "thermal fleet must be a pure function of its config"
    );
}

#[test]
fn thermal_storm_heats_machines_and_engages_the_ladder() {
    let case = stormy();
    let report = fleet::run_synthetic(&case.config(), &case.params()).expect("storm survives");
    let s = &report.summary;
    let peak = s.peak_temp_mc.expect("extended run reports peak temp");
    assert!(
        peak > AMBIENT_MC,
        "storm must heat machines past ambient ({peak} <= {AMBIENT_MC})"
    );
    // The power-integrity machinery is live: budget-oblivious heat under
    // long brownout/aggregator outages must trip the overshoot breaker.
    assert!(
        s.breaker_trips.expect("extended run reports trips") > 0,
        "storm drove no breaker trips"
    );
    // The strict lens can only be tighter: it counts down rounds as
    // misses where the legacy lens drops them from the denominator.
    let strict = s.strict_slo_attainment.expect("extended run reports strict SLO");
    assert!(strict <= s.slo_attainment + 1e-12);
    assert!(s.brownout_rounds.expect("extended run counts brownouts") > 0);
}

#[test]
fn disabled_thermal_layer_reports_no_extended_telemetry() {
    let case = FleetFuzzCase {
        hierarchy: false,
        thermal: false,
        regions: 1,
        brownout_milli: 0,
        aggregator_milli: 0,
        sensor_milli: 0,
        ..stormy()
    };
    assert!(!case.config().extended(), "nothing opted in");
    let report = fleet::run_synthetic(&case.config(), &case.params()).expect("legacy run");
    let s = &report.summary;
    assert_eq!(s.peak_temp_mc, None);
    assert_eq!(s.strict_slo_attainment, None);
    assert_eq!(s.emergency_throttles, None);
    assert_eq!(s.black_starts, None);
    assert_eq!(s.breaker_trips, None);
    assert_eq!(s.brownout_rounds, None);
}

#[test]
fn fleet_fuzz_campaign_stays_clean_across_the_grammar() {
    // 50 structured cases across topologies, chaos classes, and the
    // thermal switch: zero invariant violations. CI runs the 200-case
    // campaign through the binary; this keeps the property in the test
    // suite proper.
    let findings = fuzz::run_fleet_campaign(1, 50, false, None);
    for finding in &findings {
        assert!(
            finding.violation.is_none(),
            "case {} violated: {:?}",
            finding.index,
            finding.violation
        );
    }
}

#[test]
fn leak_factor_is_identity_when_disabled_and_compounds_when_hot() {
    use simx::ThermalModel;
    let mut off = ThermalModel::new(ThermalConfig::disabled(), 0);
    off.update(80_000);
    assert!((off.leak_factor() - 1.0).abs() < 1e-12, "disabled model must not leak");

    let mut hot = ThermalModel::new(ThermalConfig::datacenter(1), 0);
    // Drive well past T_cap so the leakage multiplier engages.
    for _ in 0..40 {
        hot.update(90_000);
    }
    let _ = hot.read_sensor(false);
    assert!(
        hot.leak_factor() > 1.0,
        "hot model must report a leakage-inflated draw (got {})",
        hot.leak_factor()
    );
}
