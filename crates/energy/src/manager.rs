//! The energy manager (paper §VI-A, Fig. 5).
//!
//! The application always starts at the highest frequency. At the end of
//! every scheduling quantum the manager harvests the interval's DVFS
//! counters, asks the performance predictor for the interval's duration at
//! every DVFS state *and* at the maximum frequency, and selects the lowest
//! frequency whose predicted slowdown relative to the maximum frequency is
//! within the user-specified `tolerable_slowdown`. A `hold_off` parameter
//! suppresses re-decisions for a number of quanta. If each interval keeps
//! its slowdown within x%, the whole run is within x% of always running at
//! the maximum frequency.
//!
//! # Hardening
//!
//! The paper's manager trusts its counter harvests and its DVFS requests
//! unconditionally; with the `hardened` flag of [`ManagerConfig`] set it
//! instead degrades gracefully under the fault classes of
//! [`simx::faults`]:
//!
//! * predictions are sanity-gated — non-finite, negative, or implausibly
//!   scaled predictions are rejected (the frequency state they argue for
//!   is skipped) rather than acted on;
//! * sustained misprediction is detected by checking each quantum's
//!   *identity prediction* (the predicted duration of the harvested trace
//!   at the frequency it was measured at) against the observed duration;
//! * after [`MISPREDICTION_WINDOW`] consecutive bad quanta the manager
//!   falls back to the maximum frequency — never worse than 0% slowdown —
//!   and holds it for an exponentially growing backoff before cautiously
//!   re-engaging prediction-driven scaling;
//! * denied DVFS transitions ([`simx::MachineError::TransitionDenied`])
//!   are tolerated and counted instead of aborting the run.
//!
//! With hardening disabled — or enabled against a fault-free machine —
//! the manager's decisions, switches, execution time and energy are
//! bit-identical to the paper's original algorithm.

use depburst::{DvfsPredictor, MAX_PLAUSIBLE_SLOWDOWN};
use depburst_core::DepburstError;
use dvfs_trace::{Freq, TimeDelta};
use simx::{Machine, MachineError, RunOutcome};

use crate::power::{EnergyAccount, PowerModel};

/// Relative error of the identity prediction (predicted duration of a
/// quantum at its own measured frequency vs. observed duration) above
/// which the hardened manager counts the quantum as mispredicted.
const MISPREDICTION_TOLERANCE: f64 = 0.6;

/// Consecutive mispredicted quanta before the hardened manager falls back
/// to the maximum frequency.
const MISPREDICTION_WINDOW: u32 = 3;

/// Quanta the first fallback holds the maximum frequency; each further
/// engagement doubles the hold.
const BASE_BACKOFF: u32 = 4;

/// Upper bound on the fallback hold, in quanta.
const MAX_BACKOFF: u32 = 64;

/// Manager parameters (paper defaults: 5 ms quantum, hold-off 1).
#[derive(Debug, Clone, Copy)]
pub struct ManagerConfig {
    /// Maximum tolerated slowdown vs. always-max-frequency (0.05 = 5%).
    pub tolerable_slowdown: f64,
    /// Scheduling quantum.
    pub quantum: TimeDelta,
    /// Quanta to wait between frequency decisions.
    pub hold_off: u32,
    /// The chip power model (provides the DVFS ladder and V/f curve).
    pub power: PowerModel,
    /// Graceful-degradation machinery (see the module docs); `false` runs
    /// the paper's original algorithm unmodified.
    pub hardened: bool,
}

impl ManagerConfig {
    /// Paper defaults with the given slowdown threshold (no hardening).
    #[must_use]
    pub fn with_threshold(tolerable_slowdown: f64) -> Self {
        ManagerConfig {
            tolerable_slowdown,
            quantum: TimeDelta::from_millis(5.0),
            hold_off: 1,
            power: PowerModel::haswell_22nm(),
            hardened: false,
        }
    }

    /// Paper defaults with hardening enabled.
    #[must_use]
    pub fn hardened(tolerable_slowdown: f64) -> Self {
        ManagerConfig {
            hardened: true,
            ..Self::with_threshold(tolerable_slowdown)
        }
    }
}

/// What a managed run produced.
#[derive(Debug, Clone)]
pub struct ManagerReport {
    /// Wall-clock execution time under management.
    pub exec: TimeDelta,
    /// Total energy consumed (joules).
    pub energy_j: f64,
    /// Time spent at each frequency, for analysis.
    pub freq_time: Vec<(Freq, TimeDelta)>,
    /// Number of frequency decisions taken.
    pub decisions: u64,
    /// Number of decisions that changed the frequency.
    pub switches: u64,
    /// Energy (joules) recomputed from the machine's ground-truth core
    /// activity rather than the harvested (possibly faulted) counters.
    /// Equals [`Self::energy_j`] on a fault-free run.
    pub true_energy_j: f64,
    /// Predictions rejected by the hardened sanity gate.
    pub rejected_predictions: u64,
    /// Quanta whose identity prediction missed the observed duration.
    pub mispredicted_quanta: u64,
    /// Times the fallback-to-max-frequency state was engaged.
    pub fallback_engagements: u64,
    /// Quanta spent pinned at the maximum frequency by the fallback.
    pub fallback_quanta: u64,
    /// DVFS transitions the platform denied (tolerated when hardened).
    pub denied_transitions: u64,
}

impl ManagerReport {
    /// Time-weighted mean frequency (GHz).
    #[must_use]
    pub fn mean_ghz(&self) -> f64 {
        let total: f64 = self.freq_time.iter().map(|(_, t)| t.as_secs()).sum();
        if total == 0.0 {
            return 0.0;
        }
        self.freq_time
            .iter()
            .map(|(f, t)| f.ghz() * t.as_secs())
            .sum::<f64>()
            / total
    }
}

/// The quantum-based DVFS energy manager.
pub struct EnergyManager {
    config: ManagerConfig,
    predictor: Box<dyn DvfsPredictor>,
}

impl std::fmt::Debug for EnergyManager {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EnergyManager")
            .field("config", &self.config)
            .field("predictor", &self.predictor.name())
            .finish()
    }
}

impl EnergyManager {
    /// Creates a manager around a performance predictor.
    #[must_use]
    pub fn new(config: ManagerConfig, predictor: Box<dyn DvfsPredictor>) -> Self {
        EnergyManager { config, predictor }
    }

    /// Runs the already-installed application on `machine` under
    /// management, to completion.
    ///
    /// # Errors
    /// Machine-level failures are surfaced as [`DepburstError::Machine`].
    /// A denied DVFS transition aborts the run with
    /// [`DepburstError::TransitionDenied`] unless hardening is enabled, in
    /// which case it is tolerated and counted.
    pub fn run(&self, machine: &mut Machine) -> Result<ManagerReport, DepburstError> {
        let ladder = *self.config.power.vf().ladder();
        let f_max = ladder.max();
        // The ladder scan's targets, `f_max` first, and their predictions.
        let scan: Vec<Freq> = std::iter::once(f_max).chain(ladder.iter()).collect();
        let mut predicted = Vec::with_capacity(scan.len());
        let cores = machine.config().cores;
        // Invariant monitoring (see `simx::invariants`) only records into
        // the machine's monitor — it never alters a decision — so the
        // DEPBURST_INVARIANTS=off path stays byte-identical.
        if machine.monitor().on(simx::Invariant::VfMonotonicity) {
            if let Some(issue) = self.config.power.vf().monotonicity_issue() {
                let at = machine.now().as_secs();
                machine
                    .monitor_mut()
                    .record(simx::Invariant::VfMonotonicity, at, issue);
            }
        }
        let mut denied_transitions = 0u64;
        match machine.set_frequency(f_max) {
            Ok(()) => {}
            Err(MachineError::TransitionDenied { .. }) if self.config.hardened => {
                denied_transitions += 1;
            }
            Err(e) => return Err(e.into()),
        }

        let mut account = EnergyAccount::new();
        let mut true_account = EnergyAccount::new();
        let mut freq_time: Vec<(Freq, TimeDelta)> = Vec::new();
        let mut decisions = 0u64;
        let mut switches = 0u64;
        let mut rejected_predictions = 0u64;
        let mut mispredicted_quanta = 0u64;
        let mut fallback_engagements = 0u64;
        let mut fallback_quanta = 0u64;
        let mut streak = 0u32; // consecutive mispredicted quanta
        let mut fallback_hold = 0u32; // quanta left pinned at f_max
        let mut held = self.config.hold_off; // decide after the 1st quantum
        let start = machine.now();
        let mut prev_busy = total_busy(machine);

        loop {
            let interval_start = machine.now();
            let outcome = machine.run_for(self.config.quantum)?;
            let duration = machine.now().since(interval_start);
            let freq = machine.frequency();
            let trace = machine.harvest_trace();

            // Energy accounting: aggregate activity over the interval as
            // the (possibly faulted) harvest reports it.
            let busy: f64 = trace
                .epochs
                .iter()
                .flat_map(|e| e.threads.iter())
                .map(|s| s.counters.active.as_secs())
                .sum();
            let activity = if duration.as_secs() > 0.0 {
                (busy / (cores as f64 * duration.as_secs())).clamp(0.0, 1.0)
            } else {
                0.0
            };
            account.add_uniform(&self.config.power, freq, duration, activity, cores);

            // Ground-truth energy from the machine's own busy-time ledger
            // (immune to counter faults; diverges from `account` exactly
            // when faults corrupt the observer's view).
            let busy_now = total_busy(machine);
            let true_activity = if duration.as_secs() > 0.0 {
                ((busy_now - prev_busy) / (cores as f64 * duration.as_secs())).clamp(0.0, 1.0)
            } else {
                0.0
            };
            prev_busy = busy_now;
            true_account.add_uniform(&self.config.power, freq, duration, true_activity, cores);

            match freq_time.iter_mut().find(|(f, _)| *f == freq) {
                Some((_, t)) => *t += duration,
                None => freq_time.push((freq, duration)),
            }

            if let RunOutcome::Completed(end) = outcome {
                return Ok(ManagerReport {
                    exec: end.since(start),
                    energy_j: account.joules(),
                    freq_time,
                    decisions,
                    switches,
                    true_energy_j: true_account.joules(),
                    rejected_predictions,
                    mispredicted_quanta,
                    fallback_engagements,
                    fallback_quanta,
                    denied_transitions,
                });
            }

            // Misprediction detector: the identity prediction (the trace
            // re-predicted at its own base frequency) must reproduce the
            // observed duration; a sustained gap means the counters feeding
            // the predictor cannot be trusted.
            if self.config.hardened && duration.as_secs() > 0.0 {
                let identity = self.predictor.predict(&trace, freq).as_secs();
                let bad = if identity.is_finite() && identity >= 0.0 {
                    (identity - duration.as_secs()).abs() / duration.as_secs()
                        > MISPREDICTION_TOLERANCE
                } else {
                    rejected_predictions += 1;
                    true
                };
                if bad {
                    mispredicted_quanta += 1;
                    streak += 1;
                } else {
                    streak = 0;
                }
            }

            held += 1;
            if held < self.config.hold_off {
                continue;
            }
            held = 0;
            decisions += 1;
            let chosen = if self.config.hardened {
                if fallback_hold == 0 && streak >= MISPREDICTION_WINDOW {
                    // Engage the fallback: pin the maximum frequency
                    // (never worse than 0% slowdown) for an
                    // exponentially growing hold before re-engaging.
                    fallback_engagements += 1;
                    let shift = (fallback_engagements - 1).min(16) as u32;
                    fallback_hold = (BASE_BACKOFF << shift).min(MAX_BACKOFF);
                    streak = 0;
                }
                if fallback_hold > 0 {
                    fallback_hold -= 1;
                    fallback_quanta += 1;
                    f_max
                } else {
                    let rejected = Some(&mut rejected_predictions);
                    self.choose_frequency(&trace, &scan, &mut predicted, rejected)
                }
            } else {
                self.choose_frequency(&trace, &scan, &mut predicted, None)
            };
            if machine.monitor().on(simx::Invariant::LadderMembership) && !ladder.contains(chosen)
            {
                let at = machine.now().as_secs();
                machine.monitor_mut().record(
                    simx::Invariant::LadderMembership,
                    at,
                    format!(
                        "manager chose {} MHz, which is not a ladder operating point",
                        chosen.mhz()
                    ),
                );
            }
            if machine.monitor().on(simx::Invariant::PredictorBounds) {
                let p = self.predictor.predict(&trace, chosen).as_secs();
                if !p.is_finite() || p < 0.0 {
                    let at = machine.now().as_secs();
                    machine.monitor_mut().record(
                        simx::Invariant::PredictorBounds,
                        at,
                        format!(
                            "prediction at {} MHz is {p} s (want finite and non-negative)",
                            chosen.mhz()
                        ),
                    );
                }
            }
            if chosen != freq {
                match machine.set_frequency(chosen) {
                    Ok(()) => switches += 1,
                    Err(MachineError::TransitionDenied { at }) => {
                        if self.config.hardened {
                            denied_transitions += 1;
                        } else {
                            return Err(DepburstError::TransitionDenied {
                                at_secs: at.as_secs(),
                            });
                        }
                    }
                    Err(e) => return Err(e.into()),
                }
            }
        }
    }

    /// The lowest frequency whose predicted slowdown vs. `f_max` is within
    /// the threshold (paper: of all states satisfying the constraint, the
    /// lowest frequency minimises energy). `scan` is `f_max` followed by
    /// the ladder, all predicted in one call into `predicted`.
    ///
    /// With `rejected` (the hardened manager), a sanity gate skips
    /// frequency states whose predictions are non-finite, negative, or
    /// implausibly scaled relative to `f_max`, counting them in `rejected`
    /// instead of trusting them. On honest predictions the gate never
    /// fires and the choice is identical to the ungated algorithm.
    fn choose_frequency(
        &self,
        trace: &dvfs_trace::ExecutionTrace,
        scan: &[Freq],
        predicted: &mut Vec<TimeDelta>,
        mut rejected: Option<&mut u64>,
    ) -> Freq {
        self.predictor.predict_many(trace, scan, predicted);
        let f_max = scan[0];
        let at_max = predicted[0].as_secs();
        if at_max <= 0.0 || (rejected.is_some() && !at_max.is_finite()) {
            // A zero prediction for a window in which wall time observably
            // passed means the counters vanished; a genuinely empty window
            // predicting zero is normal.
            if let Some(rejected) = rejected {
                if !at_max.is_finite() || trace.total > TimeDelta::ZERO {
                    *rejected += 1;
                }
            }
            return f_max;
        }
        let budget = at_max * (1.0 + self.config.tolerable_slowdown);
        for (&f, predicted) in scan[1..].iter().zip(&predicted[1..]) {
            let predicted = predicted.as_secs();
            if let Some(rejected) = rejected.as_deref_mut() {
                // A slowdown (or reciprocal speedup) beyond the predictors'
                // plausibility bound vs. `f_max` is rejected as implausible.
                let plausible = (1.0 / MAX_PLAUSIBLE_SLOWDOWN..=MAX_PLAUSIBLE_SLOWDOWN)
                    .contains(&(predicted / at_max));
                if !predicted.is_finite() || predicted < 0.0 || !plausible {
                    *rejected += 1;
                    continue;
                }
            }
            if predicted <= budget {
                return f;
            }
        }
        f_max
    }

    /// The manager's parameters.
    #[must_use]
    pub fn config(&self) -> &ManagerConfig {
        &self.config
    }
}

/// Sum of the machine's ground-truth per-core busy time (seconds).
fn total_busy(machine: &Machine) -> f64 {
    machine.stats().core_busy.iter().map(|t| t.as_secs()).sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use dvfs_trace::{ExecutionTrace, ThreadRole};
    use simx::program::ScriptProgram;
    use simx::{Action, MachineConfig, SpawnRequest, WorkItem};

    /// A predictor that scales the whole trace perfectly (pure compute).
    #[derive(Debug)]
    struct PerfectScaling;

    impl DvfsPredictor for PerfectScaling {
        fn predict(&self, trace: &ExecutionTrace, target: Freq) -> TimeDelta {
            trace.total * trace.base.scaling_ratio_to(target)
        }
        fn name(&self) -> String {
            "PERFECT-SCALING".into()
        }
    }

    fn compute_machine() -> Machine {
        let mut mc = MachineConfig::haswell_quad();
        mc.initial_freq = Freq::from_ghz(1.0);
        let mut m = Machine::new(mc);
        m.spawn(SpawnRequest::new(
            "app",
            ThreadRole::Application,
            Box::new(ScriptProgram::new(vec![Action::Work(WorkItem::Compute {
                instructions: 200_000_000,
                ipc: 2.0,
            })])),
        ));
        m
    }

    #[test]
    fn pure_compute_under_perfect_predictor_respects_threshold() {
        // Baseline: always max frequency.
        let mut base = compute_machine();
        base.set_frequency(Freq::from_ghz(4.0)).expect("clean");
        let t_max = match base.run().expect("runs") {
            RunOutcome::Completed(t) => t.as_secs(),
            RunOutcome::DeadlineReached => unreachable!(),
        };

        let threshold = 0.10;
        let manager = EnergyManager::new(
            ManagerConfig::with_threshold(threshold),
            Box::new(PerfectScaling),
        );
        let mut m = compute_machine();
        let report = manager.run(&mut m).expect("managed run");
        let slowdown = report.exec.as_secs() / t_max - 1.0;
        assert!(
            slowdown <= threshold + 0.02,
            "slowdown {slowdown} must respect threshold {threshold}"
        );
        // For pure compute the manager should sit just under the bound
        // (frequency ≈ 4/1.1 ≈ 3.625 GHz).
        let mean = report.mean_ghz();
        assert!(
            (3.3..4.0).contains(&mean),
            "mean frequency {mean} GHz should sit near 4/(1+threshold)"
        );
        assert!(report.energy_j > 0.0);
        assert!(report.decisions > 0);
    }

    #[test]
    fn zero_threshold_stays_at_max() {
        let manager = EnergyManager::new(
            ManagerConfig::with_threshold(0.0),
            Box::new(PerfectScaling),
        );
        let mut m = compute_machine();
        let report = manager.run(&mut m).expect("managed run");
        let mean = report.mean_ghz();
        assert!(
            (mean - 4.0).abs() < 1e-9,
            "zero tolerance must pin max frequency, got {mean}"
        );
        assert_eq!(report.switches, 0);
    }

    #[test]
    fn hardening_is_bit_identical_without_faults() {
        let run_with = |config: ManagerConfig, inert_injector: bool| {
            let manager = EnergyManager::new(config, Box::new(PerfectScaling));
            let mut m = compute_machine();
            if inert_injector {
                m.install_faults(simx::FaultConfig::none(123));
            }
            manager.run(&mut m).expect("managed run")
        };
        let legacy = run_with(ManagerConfig::with_threshold(0.10), false);
        let hardened = run_with(ManagerConfig::hardened(0.10), false);
        let hardened_inert = run_with(ManagerConfig::hardened(0.10), true);
        for (label, r) in [("hardened", &hardened), ("hardened+inert", &hardened_inert)] {
            assert_eq!(legacy.exec, r.exec, "{label}: exec must be bit-identical");
            assert_eq!(
                legacy.energy_j.to_bits(),
                r.energy_j.to_bits(),
                "{label}: energy must be bit-identical"
            );
            assert_eq!(legacy.decisions, r.decisions, "{label}: decisions");
            assert_eq!(legacy.switches, r.switches, "{label}: switches");
            assert_eq!(legacy.freq_time, r.freq_time, "{label}: freq residency");
            assert_eq!(r.fallback_engagements, 0, "{label}: no fallback");
            assert_eq!(r.denied_transitions, 0, "{label}: no denials");
        }
        // Ground-truth energy agrees with observer energy on honest runs.
        assert!(
            (legacy.true_energy_j - legacy.energy_j).abs() / legacy.energy_j < 0.05,
            "true {} vs observed {}",
            legacy.true_energy_j,
            legacy.energy_j
        );
    }

    #[test]
    fn sustained_counter_dropout_triggers_fallback_to_max() {
        // A counter-driven predictor (DEP+BURST) fed fully dropped-out
        // harvests predicts ~0 for every window: the hardened manager must
        // reject those predictions, detect the sustained misprediction,
        // and pin the maximum frequency instead of scaling down blindly.
        let manager = EnergyManager::new(
            ManagerConfig::hardened(0.10),
            Box::new(depburst::Dep::dep_burst()),
        );
        let mut m = compute_machine();
        m.install_faults(simx::FaultConfig::single(
            simx::FaultClass::CounterDropout,
            1.0,
            9,
        ));
        let report = manager.run(&mut m).expect("hardened run survives dropout");
        assert!(
            (report.mean_ghz() - 4.0).abs() < 1e-9,
            "dropout must pin max frequency, got {} GHz",
            report.mean_ghz()
        );
        assert!(report.fallback_engagements >= 1, "fallback must engage");
        assert!(report.fallback_quanta >= 1);
        assert!(report.mispredicted_quanta >= 3);
        assert!(report.rejected_predictions >= 1);
        assert!(report.true_energy_j > 0.0);
    }

    #[test]
    fn unhardened_manager_aborts_on_denied_transition() {
        let manager = EnergyManager::new(
            ManagerConfig::with_threshold(0.10),
            Box::new(PerfectScaling),
        );
        let mut m = compute_machine();
        m.install_faults(simx::FaultConfig::single(
            simx::FaultClass::TransitionDenied,
            1.0,
            5,
        ));
        let err = manager.run(&mut m).expect_err("denial must surface");
        assert!(matches!(err, DepburstError::TransitionDenied { .. }));

        // The hardened manager tolerates the same fault and finishes.
        let manager = EnergyManager::new(
            ManagerConfig::hardened(0.10),
            Box::new(PerfectScaling),
        );
        let mut m = compute_machine();
        m.install_faults(simx::FaultConfig::single(
            simx::FaultClass::TransitionDenied,
            1.0,
            5,
        ));
        let report = manager.run(&mut m).expect("hardened run tolerates denial");
        assert!(report.denied_transitions >= 1);
    }
}
