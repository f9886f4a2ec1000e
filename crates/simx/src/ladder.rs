//! The transition log of a fleet ladder.
//!
//! A fleet machine runs two ladders: the degradation ladder of governor
//! authority (`energyx::DegradationLadder`) and the thermal
//! [`ThrottleLadder`](crate::thermal::ThrottleLadder). Each is a pure
//! state machine over its own stage enum, with its own observation rules
//! and reason labels. What they share lives here once: the current
//! stage, the [`Transition`] record with its report text, and the
//! monotonicity rule behind the `rejoin-monotonicity` and
//! `throttle-monotonicity` invariants.
//!
//! Stages are ordered by [`Rung::rung`], their recovery height, so one
//! rule covers both ladders: rounds never decrease, no transition is a
//! self-transition, and every recovery climbs exactly one rung. A fall
//! may skip rungs (a crash restart, a hardware trip).

use core::fmt;

use serde::{JsonWriter, Serialize, Value};

/// A ladder stage.
pub trait Rung: Copy + Eq + fmt::Display {
    /// Recovery height: higher is healthier, the top rung is full health.
    fn rung(self) -> u8;
}

/// One recorded stage change of a ladder.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Transition<S> {
    /// Fleet round the transition happened in.
    pub round: u64,
    /// Stage before.
    pub from: S,
    /// Stage after.
    pub to: S,
    /// Why (a static label of the ladder's own: "partition", "rejoin",
    /// "emergency-throttle", "cooldown", ...).
    pub reason: &'static str,
}

impl<S: fmt::Display> fmt::Display for Transition<S> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "r{} {}→{} ({})",
            self.round, self.from, self.to, self.reason
        )
    }
}

/// A transition serializes as its `Display` text.
impl<S: fmt::Display> Serialize for Transition<S> {
    fn to_value(&self) -> Value {
        Value::Str(self.to_string())
    }

    fn write_json(&self, w: &mut JsonWriter) {
        w.display_str(self);
    }
}

/// A ladder's current stage and every transition that led to it. The
/// default log sits at the stage's default (full health), unmoved.
#[derive(Debug, Clone, Default)]
pub struct TransitionLog<S> {
    stage: S,
    transitions: Vec<Transition<S>>,
}

impl<S: Rung> TransitionLog<S> {
    /// The current stage.
    #[must_use]
    pub fn stage(&self) -> S {
        self.stage
    }

    /// Every recorded transition, in round order.
    #[must_use]
    pub fn transitions(&self) -> &[Transition<S>] {
        &self.transitions
    }

    /// Moves to `to` in `round`, recording why.
    pub fn shift(&mut self, round: u64, to: S, reason: &'static str) {
        self.transitions.push(Transition {
            round,
            from: self.stage,
            to,
            reason,
        });
        self.stage = to;
    }

    /// Test-only forgery hook for the sabotage path: appends a raw
    /// transition so CI can prove [`TransitionLog::monotonicity_issue`]
    /// fires.
    pub fn forge(&mut self, t: Transition<S>) {
        self.transitions.push(t);
    }

    /// Checks the log for ladder monotonicity: rounds non-decreasing,
    /// every transition an actual change, and every recovery exactly one
    /// rung up.
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
            if t.to.rung() > t.from.rung() + 1 {
                return Some(format!("multi-rung recovery at {t}"));
            }
        }
        None
    }
}
