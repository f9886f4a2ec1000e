//! The predictor interface.

use dvfs_trace::{ExecutionTrace, Freq, TimeDelta};

/// The largest slowdown (or reciprocal speedup) treated as physically
/// plausible by default: DVFS ladders span at most a few-fold frequency
/// range, so a predicted slowdown beyond this factor indicates corrupted
/// counters rather than a real program behaviour.
pub const MAX_PLAUSIBLE_SLOWDOWN: f64 = 16.0;

/// A DVFS performance predictor: estimates how long the work captured in a
/// trace (measured at `trace.base`) would take at a different frequency.
pub trait DvfsPredictor: std::fmt::Debug {
    /// Predicted wall-clock duration of the traced work at `target`.
    fn predict(&self, trace: &ExecutionTrace, target: Freq) -> TimeDelta;

    /// Display name (e.g. `"DEP+BURST"`).
    fn name(&self) -> String;

    /// Replaces `out` with the predictions at each of `targets`, in order:
    /// bit for bit what [`Self::predict`] returns at each one. Targets may
    /// repeat and come in any order. Models override it to share the work
    /// that does not depend on the target across all of them.
    fn predict_many(&self, trace: &ExecutionTrace, targets: &[Freq], out: &mut Vec<TimeDelta>) {
        out.clear();
        out.extend(targets.iter().map(|&target| self.predict(trace, target)));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dvfs_trace::Time;

    /// A predictor that overrides only `predict`.
    #[derive(Debug)]
    struct Linear;

    impl DvfsPredictor for Linear {
        fn predict(&self, trace: &ExecutionTrace, target: Freq) -> TimeDelta {
            trace.total * trace.base.scaling_ratio_to(target)
        }
        fn name(&self) -> String {
            "LINEAR".into()
        }
    }

    #[test]
    fn default_predict_many_matches_per_target_calls() {
        let trace = ExecutionTrace {
            base: Freq::from_ghz(2.0),
            start: Time::ZERO,
            total: TimeDelta::from_millis(8.0),
            epochs: vec![],
            markers: vec![],
            threads: vec![],
        };
        let ghz = [4.0, 1.0, 2.0, 4.0, 3.3];
        let targets: Vec<Freq> = ghz.iter().map(|&g| Freq::from_ghz(g)).collect();
        // Stale contents are replaced, not appended to.
        let mut out = vec![TimeDelta::from_secs(9.0); 7];
        Linear.predict_many(&trace, &targets, &mut out);
        let want: Vec<TimeDelta> = targets.iter().map(|&f| Linear.predict(&trace, f)).collect();
        assert_eq!(out, want);
        Linear.predict_many(&trace, &[], &mut out);
        assert!(out.is_empty());
    }
}
