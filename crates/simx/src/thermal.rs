//! Deterministic per-machine thermal RC model and the power-integrity
//! throttle ladder.
//!
//! The fleet simulation's machines burn watts; real machines turn those
//! watts into heat, and the heat feeds back into both power (leakage
//! grows with temperature) and control (sensors throttle the part before
//! silicon limits do). This module gives every simulated machine that
//! physics at PPT-Multicore fidelity: an analytical model cheap enough to
//! run in the round loop, not a circuit simulation.
//!
//! Design rules, inherited from [`crate::faults`] and [`crate::fleet`]:
//!
//! * **Fixed-point state.** Temperature is an `i64` in milli-°C and the
//!   per-round update is integer arithmetic (a Q16 low-pass toward the
//!   power-implied steady state), so a schedule of power draws maps to a
//!   byte-reproducible temperature trajectory on every platform, worker
//!   count, and cache temperature.
//! * **Zero draws when disabled.** A [`ThermalConfig`] with
//!   `enabled = false` (or `sensor_noise = 0`) consumes no randomness at
//!   all — the same contract as `FaultConfig`/`ChaosConfig` at zero
//!   intensity, which is what pins thermal-off fleet runs byte-identical
//!   to the pre-thermal baseline.
//! * **Two temperatures.** The *true* junction temperature drives the
//!   physics (leakage feedback, the hardware shutdown trip); the *sensor*
//!   reading — noisy, and freezable by the `thermal-sensor-stuck` chaos
//!   class — is all the software throttle ladder gets to see. A stuck
//!   sensor therefore disables software protection and lets the true
//!   temperature run to the hardware trip: exactly the failure mode the
//!   black-start path exists for.
//!
//! The [`ThrottleLadder`] is the power-integrity state machine layered on
//! the sensor: proactive throttle below the cap, emergency throttle with a
//! forced V/f floor at T_crit, thermal shutdown + staggered black-start at
//! the hardware trip, with hysteretic one-rung cooldown so a temperature
//! hovering at a threshold cannot oscillate the machine. Like
//! `energyx::DegradationLadder`, it is a pure state machine over its
//! observation sequence, and [`ThrottleLadder::monotonicity_issue`] feeds
//! the `throttle-monotonicity` invariant.

use core::fmt;

use depburst_core::stablehash::SplitMix64;
use serde::{JsonWriter, Serialize, Value};

/// Stream salt of the per-machine sensor-noise draws.
const SENSOR_SALT: u64 = 0x7365_6E73_6F72;

/// Post-emergency ceiling margin over the emergency entry point, in
/// milli-°C: once the forced V/f floor engages, the true temperature may
/// coast this far above `max(entry, T_crit)` while the RC settles, and no
/// further. Feeds `Invariant::ThermalCeiling`.
pub const CEILING_MARGIN_MC: i64 = 4_000;

/// Rounds after an emergency engages before the ceiling bound is
/// enforced (the RC needs a few time constants' head start to turn).
pub const CEILING_SETTLE_ROUNDS: u64 = 3;

/// Per-machine thermal parameters. All temperatures in milli-°C.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ThermalConfig {
    /// Master switch: disabled models update nothing and draw nothing.
    pub enabled: bool,
    /// Seed of the per-machine sensor-noise streams.
    pub seed: u64,
    /// Inlet/ambient temperature the machine cools toward at zero power.
    pub ambient_mc: i64,
    /// Thermal resistance junction→ambient, milli-K per watt.
    pub r_mk_per_w: i64,
    /// Q16 low-pass coefficient of the per-round RC update
    /// (`65536` ≈ instant; `10486` ≈ a 6-round time constant).
    pub alpha_q16: i64,
    /// Q16 extra leakage per kelvin above ambient (temperature→power
    /// feedback; `328` ≈ +0.5%/K, a runaway ingredient at high load).
    pub leak_q16_per_k: i64,
    /// Sensor-noise intensity in `[0, 1]`; zero draws no randomness.
    pub sensor_noise: f64,
    /// Peak sensor-noise amplitude at intensity 1.0, milli-°C.
    pub noise_amp_mc: i64,
    /// Proactive-throttle threshold (the thermal cap).
    pub t_cap_mc: i64,
    /// Emergency-throttle threshold (T_crit: forced V/f floor).
    pub t_crit_mc: i64,
    /// Hardware trip (thermal shutdown; checked on the *true*
    /// temperature, so a stuck sensor cannot defeat it).
    pub t_shutdown_mc: i64,
}

impl ThermalConfig {
    /// The inert configuration: no physics, no draws. Fleet runs built on
    /// it are byte-identical to runs predating the thermal layer.
    #[must_use]
    pub fn disabled() -> Self {
        ThermalConfig {
            enabled: false,
            seed: 0,
            ambient_mc: 45_000,
            r_mk_per_w: 500,
            alpha_q16: 10_486,
            leak_q16_per_k: 328,
            sensor_noise: 0.0,
            noise_amp_mc: 1_500,
            t_cap_mc: 85_000,
            t_crit_mc: 95_000,
            t_shutdown_mc: 105_000,
        }
    }

    /// A datacenter-default enabled model: 45 °C inlet, 0.5 K/W to
    /// ambient, ~6-round time constant, +1.5%/K leakage feedback, caps at
    /// 85/95/105 °C, mild sensor noise.
    ///
    /// The leakage slope is deliberately steep: a machine parked at its
    /// ladder maximum sits *past* the runaway knee, so an unthrottled
    /// (stuck-sensor) climb escalates to the hardware trip instead of
    /// settling — the regime the power-integrity ladder exists for.
    #[must_use]
    pub fn datacenter(seed: u64) -> Self {
        ThermalConfig {
            enabled: true,
            seed,
            sensor_noise: 0.25,
            leak_q16_per_k: 983,
            ..Self::disabled()
        }
    }
}

/// The per-machine thermal RC state: true junction temperature, the last
/// sensor reading (held while the sensor is stuck), and the sensor-noise
/// stream.
#[derive(Debug, Clone)]
pub struct ThermalModel {
    config: ThermalConfig,
    t_mc: i64,
    sensor_mc: i64,
    rng: SplitMix64,
}

impl ThermalModel {
    /// A machine's model, starting at ambient. The noise stream is salted
    /// per machine so one machine's draws never shift another's.
    #[must_use]
    pub fn new(config: ThermalConfig, machine: usize) -> Self {
        ThermalModel {
            t_mc: config.ambient_mc,
            sensor_mc: config.ambient_mc,
            rng: SplitMix64::keyed(config.seed ^ SENSOR_SALT, machine as u64),
            config,
        }
    }

    /// The true junction temperature, milli-°C.
    #[must_use]
    pub fn true_mc(&self) -> i64 {
        self.t_mc
    }

    /// The configuration the model runs under.
    #[must_use]
    pub fn config(&self) -> &ThermalConfig {
        &self.config
    }

    /// Advances one round at `p_mw` milliwatts of electrical power and
    /// returns the *effective* power including temperature-dependent
    /// leakage (what the machine actually drew from the feed). Disabled
    /// models return `p_mw` unchanged and keep temperature at ambient.
    pub fn update(&mut self, p_mw: i64) -> i64 {
        if !self.config.enabled {
            return p_mw;
        }
        let over_mk = (self.t_mc - self.config.ambient_mc).max(0);
        // Leakage multiplier in Q16: 1 + leak_per_k * kelvin_over_ambient.
        let leak_q16 = 65_536 + self.config.leak_q16_per_k * over_mk / 1_000;
        let eff_mw = (p_mw * leak_q16) >> 16;
        // Steady state the RC relaxes toward at this power.
        let target_mc = self.config.ambient_mc + self.config.r_mk_per_w * eff_mw / 1_000;
        self.t_mc += ((target_mc - self.t_mc) * self.config.alpha_q16) >> 16;
        eff_mw
    }

    /// Reads the thermal sensor. A `stuck` sensor returns its previous
    /// reading without drawing (the `thermal-sensor-stuck` chaos class);
    /// otherwise the true temperature plus seeded noise. At
    /// `sensor_noise = 0` no randomness is consumed.
    pub fn read_sensor(&mut self, stuck: bool) -> i64 {
        if !self.config.enabled || stuck {
            return self.sensor_mc;
        }
        let mut reading = self.t_mc;
        if self.config.sensor_noise > 0.0 {
            let amp = self.config.noise_amp_mc as f64 * self.config.sensor_noise;
            reading += (amp * self.rng.next_signed()) as i64;
        }
        self.sensor_mc = reading;
        reading
    }

    /// The leakage multiplier the reported temperature implies: a
    /// thermal-aware governor must derate its raw (electrical) power
    /// plans by this factor, or its "within budget" allocations draw
    /// `leak × planned` watts from the feed and trip the overshoot
    /// breaker on machines that obeyed every order. Disabled models
    /// report `1.0`.
    #[must_use]
    pub fn leak_factor(&self) -> f64 {
        if !self.config.enabled {
            return 1.0;
        }
        let over_mk = (self.sensor_mc - self.config.ambient_mc).max(0) as f64;
        1.0 + self.config.leak_q16_per_k as f64 * over_mk / 1_000.0 / 65_536.0
    }
}

/// The power-integrity ladder's stages, from healthy to off.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum ThrottleStage {
    /// No thermal constraint on frequency selection.
    #[default]
    Normal,
    /// Sensor at or above the cap: frequency capped below the governor's
    /// choice to bend the trajectory before T_crit.
    Proactive,
    /// Sensor at or above T_crit: forced V/f floor, whatever any governor
    /// wants.
    Emergency,
    /// True temperature hit the hardware trip: the machine is off and
    /// will black-start after its (staggered) hold.
    Shutdown,
}

impl ThrottleStage {
    /// Severity height: higher is more throttled.
    #[must_use]
    pub fn severity(self) -> u8 {
        match self {
            ThrottleStage::Normal => 0,
            ThrottleStage::Proactive => 1,
            ThrottleStage::Emergency => 2,
            ThrottleStage::Shutdown => 3,
        }
    }

    /// Stable kebab-case name used in reports and transition logs.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            ThrottleStage::Normal => "normal",
            ThrottleStage::Proactive => "proactive",
            ThrottleStage::Emergency => "emergency",
            ThrottleStage::Shutdown => "shutdown",
        }
    }
}

impl fmt::Display for ThrottleStage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Hysteresis and hold parameters of the throttle ladder.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ThrottleConfig {
    /// De-escalation margin below a stage's threshold, milli-°C.
    pub hysteresis_mc: i64,
    /// Consecutive rounds below threshold − hysteresis required per
    /// one-rung cooldown.
    pub cooldown_rounds: u32,
    /// Minimum rounds a thermal shutdown keeps the machine off.
    pub shutdown_rounds: u32,
    /// Black-start stagger stride: machine `m` extends its hold by
    /// `m % stagger_rounds` extra rounds, so a rack that tripped together
    /// does not re-inrush together.
    pub stagger_rounds: u32,
}

impl Default for ThrottleConfig {
    fn default() -> Self {
        ThrottleConfig {
            hysteresis_mc: 3_000,
            cooldown_rounds: 3,
            shutdown_rounds: 4,
            stagger_rounds: 3,
        }
    }
}

/// One recorded stage change of a machine's throttle ladder.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ThrottleTransition {
    /// Fleet round the transition happened in.
    pub round: u64,
    /// Stage before.
    pub from: ThrottleStage,
    /// Stage after.
    pub to: ThrottleStage,
    /// Why (static label: "proactive-throttle", "emergency-throttle",
    /// "thermal-shutdown", "black-start", "cooldown").
    pub reason: &'static str,
}

impl fmt::Display for ThrottleTransition {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "r{} {}→{} ({})",
            self.round,
            self.from.name(),
            self.to.name(),
            self.reason
        )
    }
}

/// A transition serializes as its `Display` text.
impl Serialize for ThrottleTransition {
    fn to_value(&self) -> Value {
        Value::Str(self.to_string())
    }

    fn write_json(&self, w: &mut JsonWriter) {
        w.display_str(self);
    }
}

/// The per-machine power-integrity state machine. Deterministic: the
/// stage sequence is a pure function of the observation sequence.
#[derive(Debug, Clone)]
pub struct ThrottleLadder {
    config: ThrottleConfig,
    stage: ThrottleStage,
    cool_streak: u32,
    down_remaining: u32,
    /// Extra black-start hold of this machine (`machine % stagger`).
    stagger_offset: u32,
    transitions: Vec<ThrottleTransition>,
}

impl ThrottleLadder {
    /// A fresh ladder for `machine`, starting at [`ThrottleStage::Normal`].
    #[must_use]
    pub fn new(config: ThrottleConfig, machine: usize) -> Self {
        let stagger_offset = (machine as u32) % config.stagger_rounds.max(1);
        ThrottleLadder {
            config,
            stage: ThrottleStage::Normal,
            cool_streak: 0,
            down_remaining: 0,
            stagger_offset,
            transitions: Vec::new(),
        }
    }

    /// The current stage.
    #[must_use]
    pub fn stage(&self) -> ThrottleStage {
        self.stage
    }

    /// Every recorded transition, in round order.
    #[must_use]
    pub fn transitions(&self) -> &[ThrottleTransition] {
        &self.transitions
    }

    /// Feeds one round's temperatures and returns the stage that governs
    /// the *next* round. `sensor_mc` drives the software stages
    /// (proactive, emergency, cooldown); `true_mc` drives only the
    /// hardware trip. Escalation is immediate (a single reading at T_crit
    /// forces the floor); de-escalation is hysteretic and one rung per
    /// confirmed-cool window.
    pub fn observe(&mut self, round: u64, sensor_mc: i64, true_mc: i64, thermal: &ThermalConfig) -> ThrottleStage {
        // Shutdown is a hold, not a threshold: count it down, then
        // black-start into Emergency (the floor) — never straight to an
        // unconstrained stage.
        if self.stage == ThrottleStage::Shutdown {
            if self.down_remaining > 0 {
                self.down_remaining -= 1;
                return self.stage;
            }
            self.shift(round, ThrottleStage::Emergency, "black-start");
            self.cool_streak = 0;
            return self.stage;
        }

        // The hardware trip reads the true temperature: a stuck or lying
        // sensor cannot defeat it.
        if true_mc >= thermal.t_shutdown_mc {
            self.shift(round, ThrottleStage::Shutdown, "thermal-shutdown");
            self.down_remaining = self.config.shutdown_rounds + self.stagger_offset;
            self.cool_streak = 0;
            return self.stage;
        }

        // Software escalation on the sensor, immediate and possibly
        // multi-rung upward (Normal → Emergency on one hot reading).
        if sensor_mc >= thermal.t_crit_mc {
            if self.stage.severity() < ThrottleStage::Emergency.severity() {
                self.shift(round, ThrottleStage::Emergency, "emergency-throttle");
            }
            self.cool_streak = 0;
            return self.stage;
        }
        if sensor_mc >= thermal.t_cap_mc {
            if self.stage == ThrottleStage::Normal {
                self.shift(round, ThrottleStage::Proactive, "proactive-throttle");
            }
            self.cool_streak = 0;
            return self.stage;
        }

        // Hysteretic cooldown: one rung per confirmed-cool window, and
        // only once the sensor sits clear below the governing threshold.
        let clear = match self.stage {
            ThrottleStage::Emergency => sensor_mc < thermal.t_crit_mc - self.config.hysteresis_mc,
            ThrottleStage::Proactive => sensor_mc < thermal.t_cap_mc - self.config.hysteresis_mc,
            _ => false,
        };
        if clear {
            self.cool_streak += 1;
            if self.cool_streak >= self.config.cooldown_rounds {
                let down = match self.stage {
                    ThrottleStage::Emergency => ThrottleStage::Proactive,
                    _ => ThrottleStage::Normal,
                };
                self.shift(round, down, "cooldown");
                self.cool_streak = 0;
            }
        } else {
            self.cool_streak = 0;
        }
        self.stage
    }

    fn shift(&mut self, round: u64, to: ThrottleStage, reason: &'static str) {
        self.transitions.push(ThrottleTransition {
            round,
            from: self.stage,
            to,
            reason,
        });
        self.stage = to;
    }

    /// Test-only forgery hook for the sabotage path: appends a raw
    /// transition so CI can prove `monotonicity_issue` fires.
    pub fn forge_transition(&mut self, t: ThrottleTransition) {
        self.transitions.push(t);
    }

    /// Checks the recorded transition log for throttle-ladder
    /// monotonicity: rounds non-decreasing, every transition an actual
    /// change, every *de-escalation* exactly one rung, and every exit
    /// from shutdown a black-start into the emergency floor. Feeds
    /// `Invariant::ThrottleMonotonicity`.
    #[must_use]
    pub fn monotonicity_issue(&self) -> Option<String> {
        let mut prev_round = 0u64;
        for t in &self.transitions {
            if t.round < prev_round {
                return Some(format!("transition log out of order at {t}"));
            }
            prev_round = t.round;
            if t.from == t.to {
                return Some(format!("self-transition at {t}"));
            }
            if t.from == ThrottleStage::Shutdown && t.to != ThrottleStage::Emergency {
                return Some(format!("shutdown exit skips the emergency floor at {t}"));
            }
            if t.from.severity() > t.to.severity() && t.from.severity() - t.to.severity() != 1 {
                return Some(format!("multi-rung de-escalation at {t}"));
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> ThermalConfig {
        ThermalConfig::datacenter(7)
    }

    #[test]
    fn disabled_model_is_inert_and_drawless() {
        let mut m = ThermalModel::new(ThermalConfig::disabled(), 3);
        let rng_before = m.rng;
        for _ in 0..50 {
            assert_eq!(m.update(99_000), 99_000, "disabled: power passes through");
            let _ = m.read_sensor(false);
        }
        assert_eq!(m.true_mc(), ThermalConfig::disabled().ambient_mc);
        assert_eq!(m.rng, rng_before, "disabled model must not draw");
    }

    #[test]
    fn zero_noise_consumes_no_randomness() {
        let mut config = cfg();
        config.sensor_noise = 0.0;
        let mut m = ThermalModel::new(config, 0);
        let rng_before = m.rng;
        for _ in 0..20 {
            m.update(80_000);
            let _ = m.read_sensor(false);
        }
        assert_eq!(m.rng, rng_before);
        assert!(m.true_mc() > config.ambient_mc, "the physics still runs");
    }

    #[test]
    fn temperature_relaxes_toward_the_power_implied_steady_state() {
        let mut config = cfg();
        config.sensor_noise = 0.0;
        config.leak_q16_per_k = 0;
        let mut m = ThermalModel::new(config, 0);
        for _ in 0..200 {
            m.update(80_000); // 80 W
        }
        let steady = config.ambient_mc + config.r_mk_per_w * 80_000 / 1_000;
        assert!((m.true_mc() - steady).abs() < 500, "{} vs {steady}", m.true_mc());
        for _ in 0..200 {
            m.update(0);
        }
        assert!((m.true_mc() - config.ambient_mc).abs() < 500, "cools to ambient");
    }

    #[test]
    fn leakage_feedback_raises_effective_power_when_hot() {
        let mut m = ThermalModel::new(cfg(), 0);
        let cold = m.update(90_000);
        for _ in 0..100 {
            m.update(90_000);
        }
        let hot = m.update(90_000);
        assert!(hot > cold, "leakage must grow with temperature: {cold} → {hot}");
    }

    #[test]
    fn trajectory_is_a_pure_function_of_the_power_schedule() {
        let run = || {
            let mut m = ThermalModel::new(cfg(), 5);
            let mut out = Vec::new();
            for r in 0..100i64 {
                let p = 40_000 + (r % 7) * 9_000;
                out.push((m.update(p), m.read_sensor(r % 11 == 0), m.true_mc()));
            }
            out
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn stuck_sensor_holds_its_reading_while_truth_moves() {
        let mut config = cfg();
        config.sensor_noise = 0.0;
        let mut m = ThermalModel::new(config, 0);
        m.update(60_000);
        let before = m.read_sensor(false);
        for _ in 0..50 {
            m.update(110_000);
            assert_eq!(m.read_sensor(true), before, "stuck reading frozen");
        }
        assert!(m.true_mc() > before, "true temperature keeps rising");
    }

    #[test]
    fn ladder_escalates_immediately_and_cools_one_rung_with_hysteresis() {
        let thermal = cfg();
        let mut l = ThrottleLadder::new(ThrottleConfig::default(), 0);
        assert_eq!(l.observe(0, 70_000, 70_000, &thermal), ThrottleStage::Normal);
        assert_eq!(l.observe(1, 96_000, 96_000, &thermal), ThrottleStage::Emergency);
        assert_eq!(l.transitions()[0].reason, "emergency-throttle");
        // Inside the hysteresis band: no cooldown progress.
        for r in 2..10 {
            assert_eq!(l.observe(r, 93_000, 93_000, &thermal), ThrottleStage::Emergency);
        }
        // Clear below T_crit − hysteresis for the window: one rung only.
        for r in 10..13 {
            l.observe(r, 80_000, 80_000, &thermal);
        }
        assert_eq!(l.stage(), ThrottleStage::Proactive);
        for r in 13..16 {
            l.observe(r, 70_000, 70_000, &thermal);
        }
        assert_eq!(l.stage(), ThrottleStage::Normal);
        assert!(l.monotonicity_issue().is_none());
    }

    #[test]
    fn hardware_trip_ignores_the_sensor_and_black_starts_staggered() {
        let thermal = cfg();
        let config = ThrottleConfig::default();
        let hold_of = |machine: usize| {
            let mut l = ThrottleLadder::new(config, machine);
            // Sensor stuck cold; the truth trips the hardware.
            assert_eq!(l.observe(0, 50_000, 106_000, &thermal), ThrottleStage::Shutdown);
            assert_eq!(l.transitions()[0].reason, "thermal-shutdown");
            let mut rounds = 0u64;
            let mut r = 1;
            while l.stage() == ThrottleStage::Shutdown {
                l.observe(r, 50_000, 60_000, &thermal);
                r += 1;
                rounds += 1;
                assert!(rounds < 64, "shutdown must end");
            }
            assert_eq!(l.stage(), ThrottleStage::Emergency, "black-start lands on the floor");
            assert_eq!(l.transitions().last().unwrap().reason, "black-start");
            assert!(l.monotonicity_issue().is_none());
            rounds
        };
        let h0 = hold_of(0);
        let h1 = hold_of(1);
        let h2 = hold_of(2);
        assert!(h0 < h1 && h1 < h2, "staggered holds: {h0} {h1} {h2}");
    }

    #[test]
    fn monotonicity_catches_forged_multi_rung_cooldown_and_bad_shutdown_exit() {
        let mut l = ThrottleLadder::new(ThrottleConfig::default(), 0);
        l.forge_transition(ThrottleTransition {
            round: 1,
            from: ThrottleStage::Emergency,
            to: ThrottleStage::Normal,
            reason: "forged",
        });
        assert!(l.monotonicity_issue().unwrap().contains("multi-rung"));

        let mut l = ThrottleLadder::new(ThrottleConfig::default(), 0);
        l.forge_transition(ThrottleTransition {
            round: 1,
            from: ThrottleStage::Shutdown,
            to: ThrottleStage::Proactive,
            reason: "forged",
        });
        assert!(l.monotonicity_issue().unwrap().contains("emergency floor"));
    }

    #[test]
    fn stage_names_round_trip_severity_order() {
        let stages = [
            ThrottleStage::Normal,
            ThrottleStage::Proactive,
            ThrottleStage::Emergency,
            ThrottleStage::Shutdown,
        ];
        for w in stages.windows(2) {
            assert!(w[0].severity() < w[1].severity());
        }
        let mut names: Vec<_> = stages.iter().map(|s| s.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), stages.len());
    }
}
