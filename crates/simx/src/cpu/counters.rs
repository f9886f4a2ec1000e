//! The hardware DVFS counter estimation algorithms, implemented as the
//! papers describe them: streaming over observed miss (issue, completion)
//! intervals, independent of how the ground-truth timing was produced.
//!
//! * [`CritEstimator`] — Miftakhutdinov et al.'s CRIT: accumulate the
//!   length of the *critical path* through possibly-overlapping
//!   long-latency misses. A miss that begins after the current path end
//!   starts a new critical segment (its full latency counts); a miss that
//!   overlaps the path only counts the part by which it *extends* the
//!   path. Handles variable-latency memory exactly as designed.
//! * [`LeadingLoadsEstimator`] — the leading-loads rule: misses that
//!   overlap an outstanding burst are assumed to cost nothing; only the
//!   *leading* load of each burst contributes its full latency. Accurate
//!   when all misses in a burst have similar latency; undercounts when a
//!   non-leading miss is slower (exactly the weakness CRIT fixes,
//!   paper §II-A).

use dvfs_trace::{Time, TimeDelta};

/// Streaming CRIT estimator over miss intervals.
#[derive(Debug, Clone, Copy)]
pub struct CritEstimator {
    path_end: Time,
    accumulated: TimeDelta,
}

impl Default for CritEstimator {
    fn default() -> Self {
        Self::new()
    }
}

impl CritEstimator {
    /// A fresh estimator.
    #[must_use]
    pub fn new() -> Self {
        CritEstimator {
            path_end: Time::ZERO,
            accumulated: TimeDelta::ZERO,
        }
    }

    /// Observes one long-latency miss occupying `[issue, completion]`.
    /// Misses must be fed in non-decreasing issue order.
    pub fn observe(&mut self, issue: Time, completion: Time) {
        if completion <= issue {
            return;
        }
        if issue >= self.path_end {
            // A new critical segment: nothing else was outstanding on the
            // path, so this miss's entire latency is critical.
            self.accumulated += completion.since(issue);
            self.path_end = completion;
        } else if completion > self.path_end {
            // Overlaps the current path but outlives it: only the
            // extension is additional critical time.
            self.accumulated += completion.since(self.path_end);
            self.path_end = completion;
        }
        // Fully contained in the current path: contributes nothing.
    }

    /// The accumulated non-scaling estimate.
    #[must_use]
    pub fn non_scaling(&self) -> TimeDelta {
        self.accumulated
    }
}

/// Streaming leading-loads estimator over miss intervals.
#[derive(Debug, Clone, Copy)]
pub struct LeadingLoadsEstimator {
    burst_end: Time,
    accumulated: TimeDelta,
}

impl Default for LeadingLoadsEstimator {
    fn default() -> Self {
        Self::new()
    }
}

impl LeadingLoadsEstimator {
    /// A fresh estimator.
    #[must_use]
    pub fn new() -> Self {
        LeadingLoadsEstimator {
            burst_end: Time::ZERO,
            accumulated: TimeDelta::ZERO,
        }
    }

    /// Observes one miss occupying `[issue, completion]`, in non-decreasing
    /// issue order.
    pub fn observe(&mut self, issue: Time, completion: Time) {
        if completion <= issue {
            return;
        }
        if issue >= self.burst_end {
            // This miss leads a new burst: its full latency counts, and it
            // defines the burst window.
            self.accumulated += completion.since(issue);
            self.burst_end = completion;
        }
        // Non-leading misses of a burst are assumed covered by the leading
        // load (the model's titular approximation). They do not extend the
        // burst window: the window is the leading load's shadow.
    }

    /// The accumulated non-scaling estimate.
    #[must_use]
    pub fn non_scaling(&self) -> TimeDelta {
        self.accumulated
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(ns: f64) -> Time {
        Time::from_secs(ns * 1e-9)
    }

    #[test]
    fn serial_misses_accumulate_fully_in_both_models() {
        let mut crit = CritEstimator::new();
        let mut ll = LeadingLoadsEstimator::new();
        for i in 0..5 {
            let issue = t(i as f64 * 100.0);
            let done = t(i as f64 * 100.0 + 60.0);
            crit.observe(issue, done);
            ll.observe(issue, done);
        }
        assert!((crit.non_scaling().as_nanos() - 300.0).abs() < 1e-9);
        assert!((ll.non_scaling().as_nanos() - 300.0).abs() < 1e-9);
    }

    #[test]
    fn fully_parallel_equal_misses_count_once() {
        let mut crit = CritEstimator::new();
        let mut ll = LeadingLoadsEstimator::new();
        for _ in 0..4 {
            crit.observe(t(0.0), t(60.0));
            ll.observe(t(0.0), t(60.0));
        }
        assert!((crit.non_scaling().as_nanos() - 60.0).abs() < 1e-9);
        assert!((ll.non_scaling().as_nanos() - 60.0).abs() < 1e-9);
    }

    #[test]
    fn crit_captures_slow_non_leading_miss_ll_does_not() {
        // The paper's §II-A motivating case: the leading miss is fast, a
        // parallel miss is slow (bank conflict). CRIT charges the full
        // critical path; leading-loads only the leading (fast) one.
        let mut crit = CritEstimator::new();
        let mut ll = LeadingLoadsEstimator::new();
        crit.observe(t(0.0), t(50.0)); // leading, fast
        crit.observe(t(1.0), t(120.0)); // parallel, slow
        ll.observe(t(0.0), t(50.0));
        ll.observe(t(1.0), t(120.0));
        assert!((crit.non_scaling().as_nanos() - 120.0).abs() < 1e-9);
        assert!((ll.non_scaling().as_nanos() - 50.0).abs() < 1e-9);
        assert!(ll.non_scaling() < crit.non_scaling());
    }

    #[test]
    fn contained_miss_contributes_nothing_to_crit() {
        let mut crit = CritEstimator::new();
        crit.observe(t(0.0), t(100.0));
        crit.observe(t(10.0), t(50.0)); // fully inside the path
        assert!((crit.non_scaling().as_nanos() - 100.0).abs() < 1e-9);
    }

    #[test]
    fn chained_overlaps_accumulate_extensions() {
        // Three misses, each extending the previous by 40 ns.
        let mut crit = CritEstimator::new();
        crit.observe(t(0.0), t(60.0));
        crit.observe(t(20.0), t(100.0));
        crit.observe(t(40.0), t(140.0));
        assert!((crit.non_scaling().as_nanos() - 140.0).abs() < 1e-9);
    }

    #[test]
    fn gap_after_burst_starts_fresh() {
        let mut ll = LeadingLoadsEstimator::new();
        ll.observe(t(0.0), t(60.0));
        ll.observe(t(30.0), t(80.0)); // inside the leading shadow: free
        ll.observe(t(200.0), t(260.0)); // new burst
        assert!((ll.non_scaling().as_nanos() - 120.0).abs() < 1e-9);
    }

    #[test]
    fn jittered_latencies_keep_estimates_bounded() {
        // With DRAM jitter injected (crate::faults), miss latencies vary
        // wildly; the estimators must stay non-negative and never exceed
        // the wall-clock span they observed.
        let mut rng = depburst_core::stablehash::SplitMix64::new(77);
        let mut crit = CritEstimator::new();
        let mut ll = LeadingLoadsEstimator::new();
        let mut issue = 0.0;
        let mut last_done = 0.0f64;
        for _ in 0..200 {
            issue += rng.next_f64() * 80.0;
            let latency = rng.next_f64() * 200.0;
            let done = issue + latency;
            crit.observe(t(issue), t(done));
            ll.observe(t(issue), t(done));
            last_done = last_done.max(done);
        }
        for estimate in [crit.non_scaling(), ll.non_scaling()] {
            assert!(!estimate.is_negative());
            assert!(estimate.as_nanos() <= last_done + 1e-9);
        }
        assert!(ll.non_scaling() <= crit.non_scaling());
    }

    #[test]
    fn degenerate_intervals_are_ignored() {
        let mut crit = CritEstimator::new();
        let mut ll = LeadingLoadsEstimator::new();
        crit.observe(t(10.0), t(10.0));
        crit.observe(t(10.0), t(5.0));
        ll.observe(t(10.0), t(10.0));
        assert_eq!(crit.non_scaling(), TimeDelta::ZERO);
        assert_eq!(ll.non_scaling(), TimeDelta::ZERO);
    }
}
