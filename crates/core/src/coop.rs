//! COOP: phase-cooperative prediction (paper §II-C).
//!
//! COOP intercepts the JVM's collector signals to split the run into
//! application phases and stop-the-world collector phases, applies M+CRIT
//! within each phase, and sums the per-phase predictions. It fixes the
//! coarsest flaw of M+CRIT (application threads "sleeping" through a GC
//! pause being treated as scalable work) but remains blind to fine-grained
//! synchronization inside each phase.

use dvfs_trace::{DvfsCounters, ExecutionTrace, Freq, TimeDelta, WindowTotals};

use crate::{DvfsPredictor, NonScalingModel};

/// The COOP predictor (optionally with BURST).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Coop {
    pub(crate) model: NonScalingModel,
    pub(crate) burst: bool,
}

impl Coop {
    /// Creates the predictor.
    #[must_use]
    pub fn new(model: NonScalingModel, burst: bool) -> Self {
        Coop { model, burst }
    }

    /// The paper's plain COOP (CRIT per thread).
    #[must_use]
    pub fn plain() -> Self {
        Coop::new(NonScalingModel::Crit, false)
    }

    /// COOP with store-burst modelling (COOP+BURST).
    #[must_use]
    pub fn with_burst() -> Self {
        Coop::new(NonScalingModel::Crit, true)
    }

    /// Adds the prediction at each of `targets` into `out`, one slot per
    /// target: each phase window's sums and critical-thread candidates are
    /// taken once.
    fn predict_into(&self, trace: &ExecutionTrace, targets: &[Freq], out: &mut [TimeDelta]) {
        let mut counters = WindowTotals::new(trace);
        // The current window's candidate threads as (scaling, non-scaling).
        let mut candidates: Vec<(TimeDelta, TimeDelta)> = Vec::new();
        for window in trace.phase_windows() {
            counters.fill_with(window.start, window.end, DvfsCounters::scaled_times);
            // COOP's phase split exists precisely to attribute each phase
            // to the threads that execute in it: the phase's critical
            // thread is chosen among threads that were substantially
            // active (application threads in application phases, collector
            // threads in collector phases). Mostly-dormant threads fall
            // back to the naive all-threads pass if nobody qualifies.
            candidates.clear();
            let mut any_active = false;
            for pass in 0..2 {
                for info in &trace.threads {
                    let presence = info.presence_in(window.start, window.end);
                    if presence == TimeDelta::ZERO {
                        continue;
                    }
                    let sums = counters.get(info.id);
                    let active = sums.map_or(TimeDelta::ZERO, |c| c.active);
                    let qualifies = active.as_secs() >= 0.3 * presence.as_secs();
                    if pass == 0 && !qualifies {
                        continue;
                    }
                    any_active |= qualifies;
                    let ns = sums
                        .map_or(TimeDelta::ZERO, |c| self.model.non_scaling(c, self.burst))
                        .min(presence);
                    candidates.push((presence - ns, ns));
                }
                if any_active {
                    break;
                }
            }
            for (total, &target) in out.iter_mut().zip(targets) {
                let ratio = trace.base.scaling_ratio_to(target);
                *total += candidates
                    .iter()
                    .fold(TimeDelta::ZERO, |best, &(scaling, ns)| {
                        best.max(scaling * ratio + ns)
                    });
            }
        }
    }
}

impl DvfsPredictor for Coop {
    fn predict(&self, trace: &ExecutionTrace, target: Freq) -> TimeDelta {
        let mut out = [TimeDelta::ZERO];
        self.predict_into(trace, &[target], &mut out);
        out[0]
    }

    fn predict_many(&self, trace: &ExecutionTrace, targets: &[Freq], out: &mut Vec<TimeDelta>) {
        out.clear();
        out.resize(targets.len(), TimeDelta::ZERO);
        self.predict_into(trace, targets, out);
    }

    fn name(&self) -> String {
        let mut n = "COOP".to_owned();
        if self.burst {
            n.push_str("+BURST");
        }
        n
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dvfs_trace::{
        DvfsCounters, EpochEnd, EpochRecord, PhaseKind, PhaseMarker, ThreadId, ThreadInfo,
        ThreadRole, ThreadSlice, Time,
    };

    /// An app phase (0–0.6 s, app thread doing memory-bound work, GC
    /// worker asleep) followed by a GC phase (0.6–1.0 s, GC worker doing
    /// non-scaling memory work, app thread suspended).
    fn phased_trace() -> ExecutionTrace {
        let t = Time::from_secs;
        let memory = |secs: f64| DvfsCounters {
            active: TimeDelta::from_secs(secs),
            crit: TimeDelta::from_secs(secs * 0.9),
            ..DvfsCounters::zero()
        };
        ExecutionTrace {
            base: Freq::from_ghz(1.0),
            start: t(0.0),
            total: TimeDelta::from_secs(1.0),
            epochs: vec![
                EpochRecord {
                    start: t(0.0),
                    duration: TimeDelta::from_secs(0.6),
                    threads: vec![ThreadSlice {
                        thread: ThreadId(0),
                        counters: memory(0.6),
                    }],
                    end: EpochEnd::Stall(ThreadId(0)),
                },
                EpochRecord {
                    start: t(0.6),
                    duration: TimeDelta::from_secs(0.4),
                    threads: vec![ThreadSlice {
                        thread: ThreadId(1),
                        counters: memory(0.4),
                    }],
                    end: EpochEnd::TraceEnd,
                },
            ],
            markers: vec![
                PhaseMarker::new(t(0.6), PhaseKind::GcStart),
                PhaseMarker::new(t(1.0), PhaseKind::GcEnd),
            ],
            threads: vec![
                ThreadInfo {
                    id: ThreadId(0),
                    role: ThreadRole::Application,
                    name: "app".into(),
                    spawn: t(0.0),
                    exit: None,
                },
                ThreadInfo {
                    id: ThreadId(1),
                    role: ThreadRole::GcWorker,
                    name: "gc".into(),
                    spawn: t(0.0),
                    exit: None,
                },
            ],
        }
    }

    #[test]
    fn identity_prediction_reproduces_total() {
        let trace = phased_trace();
        let id = Coop::plain().predict(&trace, Freq::from_ghz(1.0));
        assert!((id.as_secs() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn coop_beats_mcrit_on_phased_runs() {
        let trace = phased_trace();
        let target = Freq::from_ghz(4.0);
        // Truth per phase: app phase 0.6*0.9 + 0.6*0.1/4 = 0.555; GC phase
        // 0.4*0.9 + 0.4*0.1/4 = 0.37. Total = 0.925.
        let truth = 0.555 + 0.37;
        let coop = Coop::plain().predict(&trace, target).as_secs();
        let mcrit = crate::MCrit::plain().predict(&trace, target).as_secs();
        assert!(
            (coop - truth).abs() < 1e-9,
            "coop {coop} vs truth {truth}"
        );
        // M+CRIT sees each thread spanning the whole second, treats the
        // sleep through the other phase as scaling work, and
        // underestimates: t0 -> (1-0.54)/4+0.54 = 0.655.
        assert!((mcrit - 0.655).abs() < 1e-9, "mcrit {mcrit}");
        assert!((mcrit - truth).abs() > (coop - truth).abs());
    }

    #[test]
    fn unmarked_trace_degenerates_to_mcrit() {
        let mut trace = phased_trace();
        trace.markers.clear();
        let coop = Coop::plain().predict(&trace, Freq::from_ghz(2.0));
        let mcrit = crate::MCrit::plain().predict(&trace, Freq::from_ghz(2.0));
        assert_eq!(coop, mcrit);
    }

    #[test]
    fn name_reflects_burst() {
        assert_eq!(Coop::plain().name(), "COOP");
        assert_eq!(Coop::with_burst().name(), "COOP+BURST");
    }
}
