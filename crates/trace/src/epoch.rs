//! Synchronization epochs (paper §III-B).
//!
//! A synchronization epoch is a maximal interval of execution during which
//! the set of running threads does not change. Two events close an epoch:
//! a thread goes to sleep (futex wait), or a sleeping/new thread is woken
//! and scheduled (futex wake, thread spawn). The DEP predictor consumes the
//! resulting epoch stream.

use serde::{Deserialize, Serialize};

use crate::{DvfsCounters, ThreadId, Time, TimeDelta};

/// Why an epoch ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum EpochEnd {
    /// A thread went to sleep (futex wait / barrier wait / lock sleep).
    /// This is the `stall_tid` input of Algorithm 1: the stalled thread's
    /// delta counter is reset because its subsequent progress is gated by
    /// whoever wakes it, not by its own accumulated slack.
    Stall(ThreadId),
    /// A sleeping or newly spawned thread became runnable.
    Wake(ThreadId),
    /// A thread exited.
    Exit(ThreadId),
    /// The trace was cut at a measurement-quantum boundary (used by the
    /// energy manager, which harvests counters every scheduling quantum).
    QuantumBoundary,
    /// The application finished.
    TraceEnd,
}

impl EpochEnd {
    /// The stalled thread, if this boundary was caused by a thread going to
    /// sleep (Algorithm 1's `stall_tid`).
    #[must_use]
    pub fn stalled_thread(self) -> Option<ThreadId> {
        match self {
            EpochEnd::Stall(tid) => Some(tid),
            _ => None,
        }
    }
}

/// One thread's contribution to an epoch: the counter deltas it accumulated
/// while running during the epoch.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ThreadSlice {
    /// Which thread.
    pub thread: ThreadId,
    /// Counter increments attributed to this epoch.
    pub counters: DvfsCounters,
}

/// One synchronization epoch. A trace serializes its epochs as columns,
/// not as one object each.
#[derive(Debug, Clone, PartialEq)]
pub struct EpochRecord {
    /// When the epoch began.
    pub start: Time,
    /// Wall-clock duration of the epoch at the base frequency (`I` in
    /// Algorithm 1).
    pub duration: TimeDelta,
    /// Per-thread counter deltas for threads that were runnable during the
    /// epoch. Threads asleep for the whole epoch do not appear.
    pub threads: Vec<ThreadSlice>,
    /// Why the epoch ended.
    pub end: EpochEnd,
}

impl EpochRecord {
    /// When the epoch ended.
    #[must_use]
    pub fn end_time(&self) -> Time {
        self.start + self.duration
    }

    /// The slice for `thread`, if it was active this epoch.
    #[must_use]
    pub fn slice(&self, thread: ThreadId) -> Option<&ThreadSlice> {
        self.threads.iter().find(|s| s.thread == thread)
    }

    /// Number of threads active during the epoch.
    #[must_use]
    pub fn active_threads(&self) -> usize {
        self.threads.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stalled_thread_extraction() {
        assert_eq!(
            EpochEnd::Stall(ThreadId(3)).stalled_thread(),
            Some(ThreadId(3))
        );
        assert_eq!(EpochEnd::Wake(ThreadId(3)).stalled_thread(), None);
        assert_eq!(EpochEnd::TraceEnd.stalled_thread(), None);
    }

    #[test]
    fn record_accessors() {
        let rec = EpochRecord {
            start: Time::from_secs(1.0),
            duration: TimeDelta::from_millis(2.0),
            threads: vec![ThreadSlice {
                thread: ThreadId(1),
                counters: DvfsCounters::zero(),
            }],
            end: EpochEnd::Wake(ThreadId(2)),
        };
        assert!((rec.end_time().as_secs() - 1.002).abs() < 1e-12);
        assert!(rec.slice(ThreadId(1)).is_some());
        assert!(rec.slice(ThreadId(9)).is_none());
        assert_eq!(rec.active_threads(), 1);
    }
}
