//! Building [`ExecutionTrace`]s from machine events.
//!
//! The machine notifies the builder at every epoch boundary (futex sleep,
//! wake, exit, preemption, quantum cut) with a counter snapshot function;
//! the builder turns those into contiguous [`EpochRecord`]s. Boundaries
//! landing at the same instant are coalesced into one epoch end (a
//! `futex_wake(n)` waking several threads is one boundary, not n).

use std::collections::BTreeMap;

use dvfs_trace::{
    DvfsCounters, EpochEnd, EpochRecord, ExecutionTrace, Freq, PhaseKind, PhaseMarker, ThreadId,
    ThreadInfo, ThreadRole, Time, ThreadSlice,
};

/// Coalescing window: boundaries closer than this merge into one.
const COALESCE: f64 = 1e-12;

#[derive(Debug, Clone)]
struct Registered {
    info: ThreadInfo,
}

/// Accumulates epochs, markers, and thread metadata; emits trace segments.
#[derive(Debug)]
pub struct TraceBuilder {
    seg_start: Time,
    epoch_start: Time,
    epochs: Vec<EpochRecord>,
    markers: Vec<PhaseMarker>,
    /// The current epoch's participants with their cumulative counters
    /// when they joined it, sorted by thread id (so slices come out in
    /// ascending thread id). Reused from epoch to epoch.
    at_start: Vec<(ThreadId, DvfsCounters)>,
    threads: BTreeMap<ThreadId, Registered>,
}

impl TraceBuilder {
    /// A builder starting its first segment at `start`.
    #[must_use]
    pub fn new(start: Time) -> Self {
        TraceBuilder {
            seg_start: start,
            epoch_start: start,
            epochs: Vec::new(),
            markers: Vec::new(),
            at_start: Vec::new(),
            threads: BTreeMap::new(),
        }
    }

    /// Registers a newly spawned thread.
    pub fn register_thread(&mut self, id: ThreadId, name: &str, role: ThreadRole, now: Time) {
        self.threads.insert(
            id,
            Registered {
                info: ThreadInfo {
                    id,
                    role,
                    name: name.to_owned(),
                    spawn: now,
                    exit: None,
                },
            },
        );
    }

    /// Records a thread's exit time.
    pub fn note_exit(&mut self, id: ThreadId, now: Time) {
        if let Some(reg) = self.threads.get_mut(&id) {
            reg.info.exit = Some(now);
        }
    }

    /// Marks that `thread` is running during the current epoch, with its
    /// cumulative counters at the moment it (re)joined the epoch.
    /// A thread already in the epoch keeps its first snapshot.
    pub fn note_running(&mut self, thread: ThreadId, counters_now: DvfsCounters) {
        if let Err(i) = self.at_start.binary_search_by_key(&thread, |&(t, _)| t) {
            self.at_start.insert(i, (thread, counters_now));
        }
    }

    /// Emits a runtime phase marker.
    pub fn mark_phase(&mut self, now: Time, kind: PhaseKind) {
        self.markers.push(PhaseMarker::new(now, kind));
    }

    /// Closes the current epoch at `now` with reason `end`. `snapshot`
    /// must return each thread's *cumulative* counters at `now`.
    ///
    /// After a recorded boundary the epoch participant set is empty (a
    /// coalesced one leaves it as it was); the machine re-registers
    /// still-running threads via [`Self::note_running`].
    pub fn boundary(
        &mut self,
        now: Time,
        end: EpochEnd,
        snapshot: impl FnMut(ThreadId) -> DvfsCounters,
    ) {
        if self.close_epoch(now, end, snapshot) {
            self.at_start.clear();
        }
    }

    /// Records the epoch ending at `now` from the participants' counters,
    /// or, when it is shorter than the coalescing window, folds `end`
    /// into the previous epoch's reason instead. Returns whether an epoch
    /// was recorded; either way the participant set is left as it was.
    fn close_epoch(
        &mut self,
        now: Time,
        end: EpochEnd,
        mut snapshot: impl FnMut(ThreadId) -> DvfsCounters,
    ) -> bool {
        let duration = now.since(self.epoch_start);
        if duration.as_secs() < COALESCE {
            // Coalesce with the previous boundary: keep the stronger reason
            // on the last recorded epoch; the participants stay.
            if let Some(last) = self.epochs.last_mut() {
                last.end = stronger(last.end, end);
            }
            return false;
        }
        let slices = self
            .at_start
            .iter()
            .map(|&(tid, start)| ThreadSlice {
                thread: tid,
                counters: snapshot(tid).delta_since(&start),
            })
            .collect();
        self.epochs.push(EpochRecord {
            start: self.epoch_start,
            duration,
            threads: slices,
            end,
        });
        self.epoch_start = now;
        true
    }

    /// True if the segment holds no measured time at all at `now`: no
    /// recorded epochs and a zero-length in-progress epoch. Only then can
    /// the base frequency change without corrupting the segment.
    #[must_use]
    pub fn clean_at(&self, now: Time) -> bool {
        self.epochs.is_empty() && now.since(self.epoch_start).as_secs() < COALESCE
    }

    /// Closes the segment at `now` (cutting the current epoch with
    /// [`EpochEnd::QuantumBoundary`] if it has positive length) and returns
    /// the completed trace. `base` is the frequency the whole segment ran
    /// at. Thread metadata is clipped to the segment.
    pub fn harvest(
        &mut self,
        now: Time,
        base: Freq,
        mut snapshot: impl FnMut(ThreadId) -> DvfsCounters,
    ) -> ExecutionTrace {
        // The participant set survives the cut (epochs continue), each
        // re-based at its counters at the cut.
        self.close_epoch(now, EpochEnd::QuantumBoundary, &mut snapshot);
        for (tid, start) in &mut self.at_start {
            *start = snapshot(*tid);
        }

        let start = self.seg_start;
        let total = now.since(start);
        let epochs = std::mem::take(&mut self.epochs);
        let markers = std::mem::take(&mut self.markers);
        let threads = self
            .threads
            .values()
            .filter(|r| {
                let spawned_before_end = r.info.spawn <= now;
                let alive_after_start = r.info.exit.is_none_or(|e| e >= start);
                spawned_before_end && alive_after_start
            })
            .map(|r| r.info.clone())
            .collect();
        self.seg_start = now;
        self.epoch_start = now;
        ExecutionTrace {
            base,
            start,
            total,
            epochs,
            markers,
            threads,
        }
    }
}

/// When two boundaries coalesce, keep the more informative reason:
/// a stall (it resets Algorithm 1 deltas) outranks everything else.
fn stronger(a: EpochEnd, b: EpochEnd) -> EpochEnd {
    match (a, b) {
        (EpochEnd::Stall(t), _) | (_, EpochEnd::Stall(t)) => EpochEnd::Stall(t),
        (EpochEnd::Exit(t), _) | (_, EpochEnd::Exit(t)) => EpochEnd::Exit(t),
        (EpochEnd::Wake(t), _) | (_, EpochEnd::Wake(t)) => EpochEnd::Wake(t),
        (other, _) => other,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dvfs_trace::TimeDelta;

    fn counters(active_us: f64) -> DvfsCounters {
        DvfsCounters {
            active: TimeDelta::from_micros(active_us),
            ..DvfsCounters::zero()
        }
    }

    #[test]
    fn builds_contiguous_epochs() {
        let mut b = TraceBuilder::new(Time::ZERO);
        b.register_thread(ThreadId(0), "a", ThreadRole::Application, Time::ZERO);
        b.register_thread(ThreadId(1), "b", ThreadRole::Application, Time::ZERO);
        b.note_running(ThreadId(0), counters(0.0));
        b.note_running(ThreadId(1), counters(0.0));

        let t1 = Time::from_secs(10e-6);
        b.boundary(t1, EpochEnd::Stall(ThreadId(1)), |_| counters(10.0));
        b.note_running(ThreadId(0), counters(10.0));

        let t2 = Time::from_secs(25e-6);
        let trace = b.harvest(t2, Freq::from_ghz(1.0), |_| counters(25.0));

        trace.validate().expect("valid");
        assert_eq!(trace.epochs.len(), 2);
        assert_eq!(trace.epochs[0].threads.len(), 2);
        assert_eq!(trace.epochs[0].end, EpochEnd::Stall(ThreadId(1)));
        assert_eq!(trace.epochs[1].threads.len(), 1);
        assert!(
            (trace.epochs[1].threads[0].counters.active.as_micros() - 15.0).abs() < 1e-9
        );
        assert_eq!(trace.epochs[1].end, EpochEnd::QuantumBoundary);
        assert!((trace.total.as_micros() - 25.0).abs() < 1e-9);
    }

    #[test]
    fn same_instant_boundaries_coalesce() {
        let mut b = TraceBuilder::new(Time::ZERO);
        b.register_thread(ThreadId(0), "a", ThreadRole::Application, Time::ZERO);
        b.note_running(ThreadId(0), counters(0.0));
        let t1 = Time::from_secs(5e-6);
        // Three wakes at the same instant: one epoch, not three.
        b.boundary(t1, EpochEnd::Wake(ThreadId(1)), |_| counters(5.0));
        b.note_running(ThreadId(0), counters(5.0));
        b.boundary(t1, EpochEnd::Wake(ThreadId(2)), |_| counters(5.0));
        b.boundary(t1, EpochEnd::Stall(ThreadId(0)), |_| counters(5.0));
        let trace = b.harvest(Time::from_secs(10e-6), Freq::from_ghz(1.0), |_| {
            counters(10.0)
        });
        trace.validate().expect("valid");
        assert_eq!(trace.epochs.len(), 2);
        // Coalescing kept the stronger (stall) reason.
        assert_eq!(trace.epochs[0].end, EpochEnd::Stall(ThreadId(0)));
    }

    #[test]
    fn harvest_resets_segment_and_preserves_participants() {
        let mut b = TraceBuilder::new(Time::ZERO);
        b.register_thread(ThreadId(0), "a", ThreadRole::Application, Time::ZERO);
        b.note_running(ThreadId(0), counters(0.0));
        let t1 = Time::from_secs(1e-3);
        let first = b.harvest(t1, Freq::from_ghz(2.0), |_| counters(1000.0));
        assert_eq!(first.epochs.len(), 1);
        // Second segment continues with the same running thread.
        let t2 = Time::from_secs(2e-3);
        let second = b.harvest(t2, Freq::from_ghz(2.0), |_| counters(2000.0));
        assert_eq!(second.epochs.len(), 1);
        assert_eq!(second.start, t1);
        assert!(
            (second.epochs[0].threads[0].counters.active.as_micros() - 1000.0).abs() < 1e-6
        );
        second.validate().expect("valid");
    }

    #[test]
    fn markers_and_exits_recorded() {
        let mut b = TraceBuilder::new(Time::ZERO);
        b.register_thread(ThreadId(0), "a", ThreadRole::GcWorker, Time::ZERO);
        b.mark_phase(Time::from_secs(1e-6), PhaseKind::GcStart);
        b.mark_phase(Time::from_secs(2e-6), PhaseKind::GcEnd);
        b.note_exit(ThreadId(0), Time::from_secs(3e-6));
        let trace = b.harvest(Time::from_secs(4e-6), Freq::from_ghz(1.0), |_| counters(0.0));
        assert_eq!(trace.markers.len(), 2);
        assert_eq!(trace.threads.len(), 1);
        assert_eq!(trace.threads[0].exit, Some(Time::from_secs(3e-6)));
    }

    #[test]
    fn threads_outside_segment_are_clipped() {
        let mut b = TraceBuilder::new(Time::ZERO);
        b.register_thread(ThreadId(0), "dead", ThreadRole::Application, Time::ZERO);
        b.note_exit(ThreadId(0), Time::from_secs(1e-3));
        let _ = b.harvest(Time::from_secs(2e-3), Freq::from_ghz(1.0), |_| counters(0.0));
        // Thread 0 exited during segment 1; segment 2 must not list it.
        b.register_thread(ThreadId(1), "live", ThreadRole::Application, Time::from_secs(2e-3));
        let seg2 = b.harvest(Time::from_secs(3e-3), Freq::from_ghz(1.0), |_| counters(0.0));
        let ids: Vec<_> = seg2.threads.iter().map(|t| t.id).collect();
        assert_eq!(ids, vec![ThreadId(1)]);
    }
}
