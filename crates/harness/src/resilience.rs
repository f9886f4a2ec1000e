//! Resilient point evaluation: panic isolation, per-point wall-clock
//! watchdogs, and bounded deterministic retry with seeded exponential
//! backoff.
//!
//! Long sweeps die three ways: a point panics (a workload-model bug or an
//! injected [`simx::FaultClass::PanicPoint`]), a point hangs (a runaway
//! simulation), or a point fails transiently (injected probabilistic
//! faults). [`attempt_resilient`] wraps one point evaluation against all
//! three: every attempt runs under `catch_unwind` and an armed
//! [`simx::watchdog`] deadline, failures are retried up to
//! [`RetryPolicy::retries`] times with exponential backoff, and an
//! ultimate failure comes back as a structured [`PointFailure`] instead
//! of a dead worker or a hung process.
//!
//! Determinism: backoff delays are drawn from a [`SplitMix64`] stream
//! seeded by the point's label digest, so the whole retry schedule is a
//! pure function of `(label, policy)` — reproducible across runs, and
//! asserted by a proptest in `tests/properties.rs`. Retried evaluations
//! receive their attempt index so fault-injected points can derive
//! per-attempt fault seeds via [`simx::faults::retry_seed`] (attempt 0 is
//! the identity, keeping first attempts bit-identical to the pre-retry
//! harness).

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use depburst_core::stablehash::{SplitMix64, StableHasher};
use depburst_core::DepburstError;
use serde::Serialize;

use crate::pool::panic_message;

/// How many times to retry a failed point, and how long to back off
/// between attempts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Retries after the first attempt (0 = one attempt total).
    pub retries: u32,
    /// Backoff before the first retry; doubles per subsequent retry.
    pub base_delay: Duration,
    /// Ceiling on any single backoff delay.
    pub max_delay: Duration,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            retries: 2,
            base_delay: Duration::from_millis(25),
            max_delay: Duration::from_secs(2),
        }
    }
}

impl RetryPolicy {
    /// No retries: fail on the first error (tests and CI watchdog gates).
    #[must_use]
    pub fn none() -> Self {
        RetryPolicy {
            retries: 0,
            ..Self::default()
        }
    }

    /// The backoff before retrying after failed attempt `attempt`
    /// (0-based): `base_delay * 2^attempt`, capped at `max_delay`, scaled
    /// by a seeded jitter factor in `[0.5, 1.0)`. A pure function of
    /// `(self, seed, attempt)`.
    #[must_use]
    pub fn backoff(&self, seed: u64, attempt: u32) -> Duration {
        const BACKOFF_SALT: u64 = 0x6261_636B_6F66_6621;
        let mut stream = SplitMix64::new(seed ^ BACKOFF_SALT);
        let mut jitter = 0.5;
        for _ in 0..=attempt {
            jitter = 0.5 + 0.5 * stream.next_f64();
        }
        let exponential = self
            .base_delay
            .saturating_mul(2u32.saturating_pow(attempt.min(20)))
            .min(self.max_delay);
        Duration::from_secs_f64(exponential.as_secs_f64() * jitter)
    }
}

/// Why a point ultimately failed. Serializes by variant name (`"Panic"`,
/// `"Timeout"`, `"Invariant"`, `"Storage"`, `"Error"` — the vendored
/// serde shim has no rename support).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum FailureCause {
    /// The evaluation panicked.
    Panic,
    /// The per-point wall-clock watchdog expired.
    Timeout,
    /// A runtime invariant monitor check failed (see `simx::invariants`).
    Invariant,
    /// Durable storage failed underneath the harness (crash point fired,
    /// unrecoverable cache or checkpoint I/O — see `harness::vfs`). The point
    /// fails closed rather than continuing on untrustworthy state.
    Storage,
    /// The evaluation returned an error.
    Error,
}

/// One point's ultimate failure, after exhausting its retries.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct PointFailure {
    /// Human-readable point identity (benchmark, frequency, seed, cell).
    pub label: String,
    /// The classified cause of the *last* attempt's failure.
    pub cause: FailureCause,
    /// Total attempts made (retries + 1, or fewer if non-retryable).
    pub attempts: u32,
    /// The rendered error or panic message.
    pub detail: String,
}

/// Shared counters over a whole run (all points, all attempts).
#[derive(Debug, Default)]
pub struct ResilienceStats {
    retries: AtomicU64,
    panics: AtomicU64,
    timeouts: AtomicU64,
}

impl ResilienceStats {
    /// Retries performed (failed attempts that were given another go).
    #[must_use]
    pub fn retries(&self) -> u64 {
        self.retries.load(Ordering::Relaxed)
    }

    /// Attempts that ended in a caught panic.
    #[must_use]
    pub fn panics(&self) -> u64 {
        self.panics.load(Ordering::Relaxed)
    }

    /// Attempts that ended in a watchdog expiry.
    #[must_use]
    pub fn timeouts(&self) -> u64 {
        self.timeouts.load(Ordering::Relaxed)
    }
}

/// The structured end-of-run failure report, written to
/// `results/<experiment>_failures.json` and summarized on stderr when any
/// point ultimately failed.
#[derive(Debug, Clone, Serialize)]
pub struct FailureReport {
    /// Which experiment binary produced the report.
    pub experiment: String,
    /// Points that ultimately failed (after retries).
    pub failed_points: usize,
    /// Retries performed across all points.
    pub retries: u64,
    /// Attempts that panicked.
    pub panics: u64,
    /// Attempts that hit the watchdog.
    pub timeouts: u64,
    /// Corrupt cache envelopes quarantined during the run.
    pub quarantined: u64,
    /// Cache persist attempts that failed.
    pub cache_persist_failures: u64,
    /// Checkpoint persist attempts that failed (points not resumable).
    pub checkpoint_persist_failures: u64,
    /// Checkpoint entries committed although their fsync failed (they
    /// may not survive a crash).
    pub checkpoint_fsync_failures: u64,
    /// The per-point failures.
    pub failures: Vec<PointFailure>,
}

impl FailureReport {
    /// The one-line stderr summary.
    #[must_use]
    pub fn summary_line(&self) -> String {
        format!(
            "{}: {} point(s) FAILED ({} panic / {} timeout attempts, {} retries, {} quarantined cache entries)",
            self.experiment,
            self.failed_points,
            self.panics,
            self.timeouts,
            self.retries,
            self.quarantined
        )
    }
}

/// A stable 64-bit digest of a point label, used as the backoff seed so
/// the retry schedule is a pure function of the point's identity.
#[must_use]
pub fn label_seed(label: &str) -> u64 {
    let mut h = StableHasher::new();
    h.write_tag("depburst::label_seed");
    h.write_str(label);
    (h.finish() >> 64) as u64
}

/// True if a failed attempt with this error is worth retrying.
/// `SweepIncomplete` is not: it means a *nested* sweep already exhausted
/// its own per-point retries, so the outer layer repeating it would only
/// multiply work and duplicate failure records. `InvariantViolation` is
/// not either: the monitor's checks are deterministic over seeded inputs,
/// so a retry reproduces the identical violation.
fn retryable(err: &DepburstError) -> bool {
    !matches!(
        err,
        DepburstError::SweepIncomplete { .. } | DepburstError::InvariantViolation { .. }
    )
}

/// Evaluates one point with panic isolation, an optional per-attempt
/// wall-clock watchdog, and bounded retry with seeded exponential
/// backoff. `eval` receives the attempt index (0 first) so seeded
/// transient faults can redraw per attempt.
///
/// Returns the first successful result, or a [`PointFailure`] classifying
/// the last attempt's failure once the policy is exhausted.
pub fn attempt_resilient<R>(
    policy: &RetryPolicy,
    timeout: Option<Duration>,
    stats: &ResilienceStats,
    label: &str,
    eval: impl Fn(u32) -> depburst_core::Result<R>,
) -> Result<R, PointFailure> {
    let seed = label_seed(label);
    let mut last: Option<(FailureCause, String)> = None;
    let mut attempts = 0;
    for attempt in 0..=policy.retries {
        attempts = attempt + 1;
        let watchdog = timeout.map(simx::watchdog::arm);
        let outcome = catch_unwind(AssertUnwindSafe(|| eval(attempt)));
        drop(watchdog); // disarm before classification / backoff
        let stop_retrying = match outcome {
            Ok(Ok(result)) => return Ok(result),
            Ok(Err(err)) => {
                let cause = match err {
                    DepburstError::WatchdogExpired { .. } => {
                        stats.timeouts.fetch_add(1, Ordering::Relaxed);
                        FailureCause::Timeout
                    }
                    DepburstError::InvariantViolation { .. } => FailureCause::Invariant,
                    _ => FailureCause::Error,
                };
                let fatal = !retryable(&err);
                last = Some((cause, err.to_string()));
                fatal
            }
            Err(payload) => {
                stats.panics.fetch_add(1, Ordering::Relaxed);
                last = Some((FailureCause::Panic, panic_message(&payload)));
                false
            }
        };
        if stop_retrying {
            break;
        }
        if attempt < policy.retries {
            stats.retries.fetch_add(1, Ordering::Relaxed);
            std::thread::sleep(policy.backoff(seed, attempt));
        }
    }
    let (cause, detail) = last.expect("loop ran at least once");
    Err(PointFailure {
        label: label.to_owned(),
        cause,
        attempts,
        detail,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU32;

    fn fast_policy(retries: u32) -> RetryPolicy {
        RetryPolicy {
            retries,
            base_delay: Duration::from_micros(50),
            max_delay: Duration::from_micros(400),
        }
    }

    #[test]
    fn first_success_short_circuits() {
        let stats = ResilienceStats::default();
        let calls = AtomicU32::new(0);
        let r = attempt_resilient(&fast_policy(3), None, &stats, "p", |attempt| {
            calls.fetch_add(1, Ordering::SeqCst);
            Ok(attempt)
        });
        assert_eq!(r, Ok(0));
        assert_eq!(calls.load(Ordering::SeqCst), 1);
        assert_eq!(stats.retries(), 0);
    }

    #[test]
    fn panics_are_retried_then_classified() {
        let stats = ResilienceStats::default();
        let r: Result<u32, PointFailure> =
            attempt_resilient(&fast_policy(2), None, &stats, "doomed", |_| {
                panic!("synthetic point death")
            });
        let failure = r.expect_err("all attempts panic");
        assert_eq!(failure.cause, FailureCause::Panic);
        assert_eq!(failure.attempts, 3);
        assert!(failure.detail.contains("synthetic point death"));
        assert_eq!(stats.panics(), 3);
        assert_eq!(stats.retries(), 2);
    }

    #[test]
    fn transient_failures_recover_on_retry() {
        let stats = ResilienceStats::default();
        let r = attempt_resilient(&fast_policy(2), None, &stats, "flaky", |attempt| {
            if attempt == 0 {
                panic!("transient");
            }
            Ok(attempt)
        });
        assert_eq!(r, Ok(1), "the retry's attempt index reached eval");
        assert_eq!(stats.retries(), 1);
    }

    #[test]
    fn watchdog_expiry_is_classified_as_timeout() {
        let stats = ResilienceStats::default();
        let r: Result<(), PointFailure> = attempt_resilient(
            &fast_policy(1),
            Some(Duration::ZERO),
            &stats,
            "runaway",
            |_| {
                // Simulate what the machine loop does on expiry.
                assert!(simx::watchdog::expired(), "watchdog armed per attempt");
                Err(DepburstError::WatchdogExpired { at_secs: 0.1 })
            },
        );
        let failure = r.expect_err("times out");
        assert_eq!(failure.cause, FailureCause::Timeout);
        assert_eq!(stats.timeouts(), 2);
        assert!(!simx::watchdog::armed(), "disarmed after the last attempt");
    }

    #[test]
    fn nested_sweep_failures_are_not_retried() {
        let stats = ResilienceStats::default();
        let calls = AtomicU32::new(0);
        let r: Result<(), PointFailure> =
            attempt_resilient(&fast_policy(5), None, &stats, "outer", |_| {
                calls.fetch_add(1, Ordering::SeqCst);
                Err(DepburstError::SweepIncomplete {
                    failed: 1,
                    total: 4,
                })
            });
        let failure = r.expect_err("fails");
        assert_eq!(calls.load(Ordering::SeqCst), 1, "no pointless re-sweep");
        assert_eq!(failure.attempts, 1);
        assert_eq!(stats.retries(), 0);
    }

    #[test]
    fn invariant_violations_are_fatal_and_classified() {
        let stats = ResilienceStats::default();
        let calls = AtomicU32::new(0);
        let r: Result<(), PointFailure> =
            attempt_resilient(&fast_policy(5), None, &stats, "violator", |_| {
                calls.fetch_add(1, Ordering::SeqCst);
                Err(DepburstError::InvariantViolation {
                    invariant: "counter-conservation".into(),
                    at_secs: 0.25,
                    detail: "crit exceeds active".into(),
                })
            });
        let failure = r.expect_err("fails");
        assert_eq!(failure.cause, FailureCause::Invariant);
        assert_eq!(
            calls.load(Ordering::SeqCst),
            1,
            "deterministic violations must not be retried"
        );
        assert!(failure.detail.contains("counter-conservation"));
        assert_eq!(stats.retries(), 0);
    }

    #[test]
    fn backoff_is_deterministic_capped_and_grows() {
        let policy = RetryPolicy {
            retries: 6,
            base_delay: Duration::from_millis(10),
            max_delay: Duration::from_millis(300),
        };
        let schedule: Vec<Duration> = (0..6).map(|a| policy.backoff(7, a)).collect();
        assert_eq!(
            schedule,
            (0..6).map(|a| policy.backoff(7, a)).collect::<Vec<_>>()
        );
        for (attempt, delay) in schedule.iter().enumerate() {
            let uncapped = policy.base_delay * 2u32.pow(attempt as u32);
            let cap = uncapped.min(policy.max_delay);
            assert!(*delay < cap, "jitter keeps delays under the cap");
            assert!(
                *delay >= cap / 2,
                "jitter floor is half the exponential step"
            );
        }
        assert_ne!(
            policy.backoff(7, 1),
            policy.backoff(8, 1),
            "different seeds, different jitter"
        );
    }

    #[test]
    fn label_seed_is_stable_and_separating() {
        assert_eq!(label_seed("a/b@1"), label_seed("a/b@1"));
        assert_ne!(label_seed("a/b@1"), label_seed("a/b@2"));
    }

    #[test]
    fn report_summarizes_on_one_line() {
        let report = FailureReport {
            experiment: "fig3".into(),
            failed_points: 2,
            retries: 5,
            panics: 3,
            timeouts: 1,
            quarantined: 1,
            cache_persist_failures: 0,
            checkpoint_persist_failures: 0,
            checkpoint_fsync_failures: 2,
            failures: vec![],
        };
        let line = report.summary_line();
        assert!(line.contains("fig3") && line.contains("2 point(s) FAILED"));
    }
}
