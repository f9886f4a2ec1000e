//! The execution trace a DVFS predictor observes.

use std::collections::BTreeMap;
use std::fmt;

use serde::{Deserialize, Serialize};

use crate::{
    DvfsCounters, EpochRecord, Freq, PhaseKind, PhaseMarker, ThreadId, ThreadInfo, Time,
    TimeDelta,
};

/// Everything a DVFS performance predictor may observe about a run (or a
/// measurement quantum of a run) executed at a known base frequency.
///
/// Real-hardware analogue: the per-thread counter snapshots harvested by the
/// kernel module at every futex transition, plus JVM phase signals.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ExecutionTrace {
    /// The chip-wide frequency the trace was measured at.
    pub base: Freq,
    /// When the traced window began.
    pub start: Time,
    /// Total wall-clock duration of the traced window.
    pub total: TimeDelta,
    /// The synchronization epochs, in time order, partitioning the window.
    /// Serialized as columns, one array per field (see `columns.rs`).
    #[serde(with = "crate::columns")]
    pub epochs: Vec<EpochRecord>,
    /// Runtime phase markers (GC start/end), in time order.
    pub markers: Vec<PhaseMarker>,
    /// Metadata for every thread that appears in the trace.
    pub threads: Vec<ThreadInfo>,
}

/// Whole-window per-thread aggregates, as consumed by M+CRIT (paper §II-C):
/// wall presence (including sleep) plus summed counters.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ThreadTotals {
    /// Wall-clock time between the thread's spawn and exit, clipped to the
    /// traced window — the "execution time" M+CRIT sees, sleep included.
    pub presence: TimeDelta,
    /// Summed counter deltas over all epochs.
    pub counters: DvfsCounters,
}

/// A contiguous window of a trace classified as application or collector
/// execution (COOP's view of the run, §II-C).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PhaseWindow {
    /// Window start.
    pub start: Time,
    /// Window end.
    pub end: Time,
    /// True if this is a stop-the-world collector window.
    pub is_gc: bool,
}

impl PhaseWindow {
    /// Window duration.
    #[must_use]
    pub fn duration(&self) -> TimeDelta {
        self.end.since(self.start)
    }
}

impl ExecutionTrace {
    /// When the traced window ended.
    #[must_use]
    pub fn end(&self) -> Time {
        self.start + self.total
    }

    /// Looks up a thread's metadata.
    #[must_use]
    pub fn thread(&self, id: ThreadId) -> Option<&ThreadInfo> {
        self.threads.iter().find(|t| t.id == id)
    }

    /// Whole-window per-thread aggregates (presence + summed counters), in
    /// thread-id order: every registered thread, plus any thread that
    /// appears only in epochs (with zero presence). A later registration
    /// of the same id replaces an earlier one; counters sum in epoch order.
    #[must_use]
    pub fn thread_totals_by_id(&self) -> Vec<(ThreadId, ThreadTotals)> {
        let mut slots: Vec<Option<ThreadTotals>> = Vec::new();
        for info in &self.threads {
            *info.id.slot(&mut slots) = Some(ThreadTotals {
                presence: info.presence_in(self.start, self.end()),
                counters: DvfsCounters::zero(),
            });
        }
        for epoch in &self.epochs {
            for slice in &epoch.threads {
                slice
                    .thread
                    .slot(&mut slots)
                    .get_or_insert_with(ThreadTotals::default)
                    .counters += slice.counters;
            }
        }
        slots
            .into_iter()
            .enumerate()
            .filter_map(|(i, totals)| Some((ThreadId(i as u32), totals?)))
            .collect()
    }

    /// [`Self::thread_totals_by_id`] keyed by thread id.
    #[must_use]
    pub fn thread_totals(&self) -> BTreeMap<ThreadId, ThreadTotals> {
        self.thread_totals_by_id().into_iter().collect()
    }

    /// Splits the traced window into alternating application / collector
    /// windows using the GC phase markers, COOP-style. Unmarked time is
    /// application time; nested or unbalanced markers are tolerated by
    /// tracking a depth counter.
    #[must_use]
    pub fn phase_windows(&self) -> Vec<PhaseWindow> {
        let mut windows = Vec::new();
        let mut cursor = self.start;
        let mut depth: u32 = 0;
        let mut gc_begin = self.start;
        for marker in &self.markers {
            let t = marker.time.max(self.start).min(self.end());
            match marker.kind {
                PhaseKind::GcStart => {
                    if depth == 0 {
                        if t > cursor {
                            windows.push(PhaseWindow {
                                start: cursor,
                                end: t,
                                is_gc: false,
                            });
                        }
                        gc_begin = t;
                    }
                    depth += 1;
                }
                PhaseKind::GcEnd => {
                    depth = depth.saturating_sub(1);
                    if depth == 0 {
                        windows.push(PhaseWindow {
                            start: gc_begin,
                            end: t,
                            is_gc: true,
                        });
                        cursor = t;
                    }
                }
            }
        }
        let end = self.end();
        if end > cursor {
            windows.push(PhaseWindow {
                start: cursor,
                end,
                is_gc: depth > 0,
            });
        }
        windows
    }

    /// Total time spent inside stop-the-world collector windows.
    #[must_use]
    pub fn gc_time(&self) -> TimeDelta {
        self.phase_windows()
            .iter()
            .filter(|w| w.is_gc)
            .map(PhaseWindow::duration)
            .sum()
    }

    /// Per-thread counter sums restricted to epochs that fall inside the
    /// window `[start, end]`, keyed by thread id (see [`WindowTotals`]).
    #[must_use]
    pub fn totals_in_window(&self, start: Time, end: Time) -> BTreeMap<ThreadId, DvfsCounters> {
        let mut totals = WindowTotals::new(self);
        totals.fill(start, end);
        totals.iter().collect()
    }

    /// Checks structural invariants; returns the first violation found.
    pub fn validate(&self) -> Result<(), TraceError> {
        let mut cursor = self.start;
        for (i, epoch) in self.epochs.iter().enumerate() {
            if epoch.duration.is_negative() {
                return Err(TraceError::NegativeDuration { epoch: i });
            }
            if (epoch.start.as_secs() - cursor.as_secs()).abs() > 1e-9 {
                return Err(TraceError::Gap {
                    epoch: i,
                    expected: cursor,
                    found: epoch.start,
                });
            }
            for slice in &epoch.threads {
                if slice.counters.active > epoch.duration + TimeDelta::from_nanos(1.0) {
                    return Err(TraceError::OverActive {
                        epoch: i,
                        thread: slice.thread,
                    });
                }
            }
            cursor = epoch.end_time();
        }
        if (cursor.as_secs() - self.end().as_secs()).abs() > 1e-6 {
            return Err(TraceError::TotalMismatch {
                sum: cursor.since(self.start),
                total: self.total,
            });
        }
        let mut last = self.start;
        for m in &self.markers {
            if m.time < last {
                return Err(TraceError::UnsortedMarkers);
            }
            last = m.time;
        }
        Ok(())
    }
}

/// Per-thread counter sums over one window of a trace at a time, in a
/// table indexed by thread id that is reused from window to window.
///
/// Epochs straddling a window boundary are attributed proportionally
/// (counters are treated as uniform within an epoch); each thread's sum
/// accumulates in epoch order. When the epochs are in time order (starts
/// and ends both non-decreasing, as built traces are) only the run of
/// epochs overlapping the window is visited, found by binary search;
/// otherwise every epoch is checked.
#[derive(Debug)]
pub struct WindowTotals<'a> {
    trace: &'a ExecutionTrace,
    /// True when the epochs are in time order.
    ordered: bool,
    /// `(window stamp, sums)` per thread index: an entry belongs to the
    /// current window only when its stamp is [`Self::stamp`].
    slots: Vec<(u64, DvfsCounters)>,
    /// Number of the current window; 0 (every entry's initial stamp)
    /// means none yet.
    stamp: u64,
}

impl<'a> WindowTotals<'a> {
    /// An empty table over `trace`.
    #[must_use]
    pub fn new(trace: &'a ExecutionTrace) -> Self {
        let ordered = trace
            .epochs
            .windows(2)
            .all(|w| w[0].start <= w[1].start && w[0].end_time() <= w[1].end_time());
        WindowTotals {
            trace,
            ordered,
            slots: Vec::new(),
            stamp: 0,
        }
    }

    /// Replaces the sums with those of the window `[start, end]`.
    pub fn fill(&mut self, start: Time, end: Time) {
        self.fill_with(start, end, DvfsCounters::scaled);
    }

    /// [`Self::fill`], summing `project(counters, frac)` of each slice in
    /// place of its counters scaled by `frac`, the share of its epoch that
    /// falls inside the window: a reader of some counters only (say
    /// [`DvfsCounters::scaled_times`]) skips scaling the rest.
    pub fn fill_with(
        &mut self,
        start: Time,
        end: Time,
        project: impl Fn(&DvfsCounters, f64) -> DvfsCounters,
    ) {
        self.stamp += 1;
        let epochs = &self.trace.epochs;
        // The binary searches agree with the per-epoch test below only for
        // ordered epochs and a window with comparable bounds (f64 `max` and
        // `min` skip a NaN bound that `<=` cannot place).
        let (first, last) = if self.ordered && start <= end {
            let first = epochs.partition_point(|e| e.end_time() <= start);
            let last = epochs.partition_point(|e| e.start < end);
            (first, last.max(first))
        } else {
            (0, epochs.len())
        };
        for epoch in &epochs[first..last] {
            let lo = epoch.start.max(start);
            let hi = epoch.end_time().min(end);
            if hi <= lo {
                continue;
            }
            let frac = if epoch.duration == TimeDelta::ZERO {
                1.0
            } else {
                hi.since(lo) / epoch.duration
            };
            for slice in &epoch.threads {
                let (stamp, sums) = slice.thread.slot(&mut self.slots);
                if *stamp != self.stamp {
                    *stamp = self.stamp;
                    *sums = DvfsCounters::default();
                }
                *sums += project(&slice.counters, frac);
            }
        }
    }

    /// The current window's sums for `thread`, if it ran in the window.
    #[must_use]
    #[inline]
    pub fn get(&self, thread: ThreadId) -> Option<&DvfsCounters> {
        match self.slots.get(thread.index()) {
            Some((stamp, sums)) if *stamp == self.stamp => Some(sums),
            _ => None,
        }
    }

    /// The current window's sums in thread-id order.
    pub fn iter(&self) -> impl Iterator<Item = (ThreadId, DvfsCounters)> + '_ {
        self.slots
            .iter()
            .enumerate()
            .filter(|(_, (stamp, _))| *stamp == self.stamp)
            .map(|(i, &(_, sums))| (ThreadId(i as u32), sums))
    }
}

/// Structural violations detected by [`ExecutionTrace::validate`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TraceError {
    /// An epoch had negative duration.
    NegativeDuration {
        /// Index of the offending epoch.
        epoch: usize,
    },
    /// Adjacent epochs do not tile the window.
    Gap {
        /// Index of the offending epoch.
        epoch: usize,
        /// Where the epoch should have started.
        expected: Time,
        /// Where it actually started.
        found: Time,
    },
    /// A thread reported more active time than the epoch lasted.
    OverActive {
        /// Index of the offending epoch.
        epoch: usize,
        /// The offending thread.
        thread: ThreadId,
    },
    /// Epoch durations do not sum to the trace total.
    TotalMismatch {
        /// Sum of epoch durations.
        sum: TimeDelta,
        /// Declared total.
        total: TimeDelta,
    },
    /// Phase markers are not in time order.
    UnsortedMarkers,
}

impl fmt::Display for TraceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceError::NegativeDuration { epoch } => {
                write!(f, "epoch {epoch} has negative duration")
            }
            TraceError::Gap {
                epoch,
                expected,
                found,
            } => write!(
                f,
                "epoch {epoch} starts at {found} but previous epoch ended at {expected}"
            ),
            TraceError::OverActive { epoch, thread } => write!(
                f,
                "thread {thread} reports more active time than epoch {epoch} lasted"
            ),
            TraceError::TotalMismatch { sum, total } => write!(
                f,
                "epoch durations sum to {sum} but trace total is {total}"
            ),
            TraceError::UnsortedMarkers => write!(f, "phase markers are not in time order"),
        }
    }
}

impl std::error::Error for TraceError {}

impl From<TraceError> for depburst_core::DepburstError {
    fn from(err: TraceError) -> Self {
        depburst_core::DepburstError::Trace {
            detail: err.to_string(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{EpochEnd, ThreadRole, ThreadSlice};

    fn mk_counters(active_us: f64) -> DvfsCounters {
        DvfsCounters {
            active: TimeDelta::from_micros(active_us),
            ..DvfsCounters::zero()
        }
    }

    fn mk_trace() -> ExecutionTrace {
        let t = |s: f64| Time::from_secs(s);
        ExecutionTrace {
            base: Freq::from_ghz(1.0),
            start: t(0.0),
            total: TimeDelta::from_secs(1.0),
            epochs: vec![
                EpochRecord {
                    start: t(0.0),
                    duration: TimeDelta::from_secs(0.4),
                    threads: vec![
                        ThreadSlice {
                            thread: ThreadId(0),
                            counters: mk_counters(400_000.0),
                        },
                        ThreadSlice {
                            thread: ThreadId(1),
                            counters: mk_counters(400_000.0),
                        },
                    ],
                    end: EpochEnd::Stall(ThreadId(1)),
                },
                EpochRecord {
                    start: t(0.4),
                    duration: TimeDelta::from_secs(0.6),
                    threads: vec![ThreadSlice {
                        thread: ThreadId(0),
                        counters: mk_counters(600_000.0),
                    }],
                    end: EpochEnd::TraceEnd,
                },
            ],
            markers: vec![
                PhaseMarker::new(t(0.2), PhaseKind::GcStart),
                PhaseMarker::new(t(0.3), PhaseKind::GcEnd),
            ],
            threads: vec![
                ThreadInfo {
                    id: ThreadId(0),
                    role: ThreadRole::Application,
                    name: "app-0".into(),
                    spawn: t(0.0),
                    exit: None,
                },
                ThreadInfo {
                    id: ThreadId(1),
                    role: ThreadRole::GcWorker,
                    name: "gc-0".into(),
                    spawn: t(0.0),
                    exit: Some(t(0.4)),
                },
            ],
        }
    }

    #[test]
    fn valid_trace_passes_validation() {
        mk_trace().validate().expect("trace should validate");
    }

    #[test]
    fn totals_sum_counters_and_presence() {
        let trace = mk_trace();
        let totals = trace.thread_totals();
        let t0 = &totals[&ThreadId(0)];
        assert!((t0.presence.as_secs() - 1.0).abs() < 1e-12);
        assert!((t0.counters.active.as_secs() - 1.0).abs() < 1e-9);
        let t1 = &totals[&ThreadId(1)];
        assert!((t1.presence.as_secs() - 0.4).abs() < 1e-12);
        assert!((t1.counters.active.as_secs() - 0.4).abs() < 1e-9);
    }

    #[test]
    fn phase_windows_split_on_markers() {
        let trace = mk_trace();
        let windows = trace.phase_windows();
        assert_eq!(windows.len(), 3);
        assert!(!windows[0].is_gc);
        assert!(windows[1].is_gc);
        assert!(!windows[2].is_gc);
        assert!((trace.gc_time().as_secs() - 0.1).abs() < 1e-12);
    }

    #[test]
    fn window_totals_prorate_straddling_epochs() {
        let trace = mk_trace();
        // Window [0.2, 0.7] covers half of epoch 0 and half of epoch 1.
        let totals =
            trace.totals_in_window(Time::from_secs(0.2), Time::from_secs(0.7));
        let t0 = &totals[&ThreadId(0)];
        assert!((t0.active.as_secs() - (0.2 + 0.3)).abs() < 1e-9);
        let t1 = &totals[&ThreadId(1)];
        assert!((t1.active.as_secs() - 0.2).abs() < 1e-9);
    }

    #[test]
    fn validation_detects_gap() {
        let mut trace = mk_trace();
        trace.epochs[1].start = Time::from_secs(0.5);
        assert!(matches!(trace.validate(), Err(TraceError::Gap { .. })));
    }

    #[test]
    fn validation_detects_total_mismatch() {
        let mut trace = mk_trace();
        trace.total = TimeDelta::from_secs(2.0);
        assert!(matches!(
            trace.validate(),
            Err(TraceError::TotalMismatch { .. })
        ));
    }

    #[test]
    fn validation_detects_overactive_thread() {
        let mut trace = mk_trace();
        trace.epochs[0].threads[0].counters.active = TimeDelta::from_secs(0.5);
        assert!(matches!(
            trace.validate(),
            Err(TraceError::OverActive { .. })
        ));
    }

    #[test]
    fn serde_roundtrip() {
        let trace = mk_trace();
        let json = serde_json::to_string(&trace).expect("serialize");
        let back: ExecutionTrace = serde_json::from_str(&json).expect("deserialize");
        assert_eq!(back.epochs.len(), trace.epochs.len());
        assert_eq!(back.threads, trace.threads);
        assert_eq!(back.markers, trace.markers);
        assert!(
            (back.epochs[0].threads[0].counters.active.as_secs()
                - trace.epochs[0].threads[0].counters.active.as_secs())
            .abs()
                < 1e-12
        );
        back.validate().expect("roundtripped trace still validates");
    }
}
