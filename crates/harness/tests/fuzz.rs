//! Integration suite for the structure-aware fuzzer.
//!
//! The fuzzer's promise is twofold: a clean simulator yields a clean
//! campaign, and a violating case — here provoked through the test-only
//! sabotage hook — is caught and shrunk to a minimal reproducer without
//! ever losing the violation. Both halves must be deterministic, so the
//! proptests re-run the pipeline and demand identical bytes.

use harness::fuzz;
use proptest::prelude::*;
use simx::Invariant;

/// A short clean campaign over the honest simulator finds nothing.
/// (CI runs the longer 25-case smoke; this keeps `cargo test` fast.)
#[test]
fn clean_campaign_reports_zero_violations() {
    let findings = fuzz::run_campaign(1, 6, true, None);
    assert_eq!(findings.len(), 6);
    for finding in &findings {
        assert!(
            finding.violation.is_none(),
            "case {} violated [{}]: {}",
            finding.index,
            finding.violation.as_ref().unwrap().invariant,
            finding.violation.as_ref().unwrap().detail,
        );
        assert!(finding.shrunk.is_none(), "nothing to shrink on a clean case");
    }
}

/// Sabotaging counter conservation makes every case fire, and shrinking
/// drives each reproducer into the cheap corner of the input grammar.
#[test]
fn sabotage_is_caught_on_every_case_and_shrunk_to_the_corner() {
    let sabotage = Some(Invariant::CounterConservation);
    let findings = fuzz::run_campaign(42, 3, true, sabotage);
    assert_eq!(findings.len(), 3);
    for finding in &findings {
        let violation = finding
            .violation
            .as_ref()
            .expect("sabotaged invariant must fire on healthy data");
        assert_eq!(violation.invariant, Invariant::CounterConservation.name());
        let minimal = finding.shrunk.as_ref().expect("shrinking was requested");
        // The transform menu can always reach these defaults while the
        // sabotage keeps firing, so the shrinker must land on them.
        assert_eq!(minimal.fault, None, "fault dropped");
        assert_eq!(minimal.scale_milli, 10, "scale minimized");
        assert_eq!(minimal.cores, 1, "cores minimized");
        assert_eq!(minimal.ladder_points, 2, "ladder minimized");
        // And the minimal case still violates the same invariant.
        let replay = fuzz::run_case(minimal, sabotage).expect("reproducer reproduces");
        assert_eq!(replay.invariant, violation.invariant);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Same campaign seed, same findings — field for field, shrunk
    /// reproducers included. This is the reproducibility contract the
    /// `fuzz` binary advertises.
    #[test]
    fn campaigns_are_deterministic(seed in 0u64..1_000_000) {
        let sabotage = Some(Invariant::CounterConservation);
        let first = fuzz::run_campaign(seed, 2, true, sabotage);
        let second = fuzz::run_campaign(seed, 2, true, sabotage);
        prop_assert_eq!(first, second, "campaign seed {} is not reproducible", seed);
    }

    /// Shrinking is deterministic and never loses the violation: the
    /// minimal case provokes the same invariant as the original.
    #[test]
    fn shrinking_is_deterministic_and_preserves_the_violation(seed in 0u64..1_000_000) {
        let sabotage = Some(Invariant::CounterConservation);
        let case = fuzz::generate(seed, 0);
        let violation = fuzz::run_case(&case, sabotage)
            .expect("sabotaged invariant fires on every case");
        let minimal = fuzz::shrink(&case, &violation, sabotage);
        prop_assert_eq!(
            &minimal,
            &fuzz::shrink(&case, &violation, sabotage),
            "shrinking case from seed {} twice diverged", seed
        );
        let replay = fuzz::run_case(&minimal, sabotage)
            .expect("shrinking must never lose the violation");
        prop_assert_eq!(replay.invariant, violation.invariant);
    }
}
