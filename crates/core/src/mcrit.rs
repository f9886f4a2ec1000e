//! M+CRIT: the naive multithreaded extension of a single-thread DVFS
//! predictor (paper §II-C).
//!
//! Each thread's whole-run execution time — *including any time it spent
//! asleep* — is split into scaling and non-scaling parts using the
//! per-thread model's counters; the thread with the longest predicted time
//! at the target frequency is declared critical and its time is the
//! prediction. The deliberate flaw (the paper's motivation): futex sleep
//! time is misattributed to the scaling component, so synchronization-heavy
//! managed workloads are badly mispredicted.

use dvfs_trace::{ExecutionTrace, Freq, TimeDelta};

use crate::{DvfsPredictor, NonScalingModel};

/// The M+CRIT predictor (optionally with BURST, and with any per-thread
/// model despite the name — the paper instantiates it with CRIT).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MCrit {
    pub(crate) model: NonScalingModel,
    pub(crate) burst: bool,
}

impl MCrit {
    /// Creates the predictor.
    #[must_use]
    pub fn new(model: NonScalingModel, burst: bool) -> Self {
        MCrit { model, burst }
    }

    /// The paper's plain M+CRIT.
    #[must_use]
    pub fn plain() -> Self {
        MCrit::new(NonScalingModel::Crit, false)
    }

    /// M+CRIT with store-burst modelling (M+CRIT+BURST).
    #[must_use]
    pub fn with_burst() -> Self {
        MCrit::new(NonScalingModel::Crit, true)
    }

    /// Adds the prediction at each of `targets` into `out`, one slot per
    /// target: the per-thread totals and their splits are taken once.
    fn predict_into(&self, trace: &ExecutionTrace, targets: &[Freq], out: &mut [TimeDelta]) {
        for (_, totals) in &trace.thread_totals_by_id() {
            // The naive model: everything that is not measured non-scaling
            // — including sleep — is assumed to scale.
            let ns = self
                .model
                .non_scaling(&totals.counters, self.burst)
                .min(totals.presence);
            let scaling = totals.presence - ns;
            for (best, &target) in out.iter_mut().zip(targets) {
                let predicted = scaling * trace.base.scaling_ratio_to(target) + ns;
                *best = (*best).max(predicted);
            }
        }
    }
}

impl DvfsPredictor for MCrit {
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
        let mut n = format!("M+{}", self.model.label());
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
        DvfsCounters, EpochEnd, EpochRecord, ThreadId, ThreadInfo, ThreadRole, ThreadSlice, Time,
    };

    /// Two threads: t0 runs the whole second; t1 sleeps for the second
    /// half. All work is pure compute (fully scaling).
    fn trace_with_sleeper() -> ExecutionTrace {
        let t = Time::from_secs;
        let active = |secs: f64| DvfsCounters {
            active: TimeDelta::from_secs(secs),
            ..DvfsCounters::zero()
        };
        ExecutionTrace {
            base: Freq::from_ghz(1.0),
            start: t(0.0),
            total: TimeDelta::from_secs(1.0),
            epochs: vec![
                EpochRecord {
                    start: t(0.0),
                    duration: TimeDelta::from_secs(0.5),
                    threads: vec![
                        ThreadSlice {
                            thread: ThreadId(0),
                            counters: active(0.5),
                        },
                        ThreadSlice {
                            thread: ThreadId(1),
                            counters: active(0.5),
                        },
                    ],
                    end: EpochEnd::Stall(ThreadId(1)),
                },
                EpochRecord {
                    start: t(0.5),
                    duration: TimeDelta::from_secs(0.5),
                    threads: vec![ThreadSlice {
                        thread: ThreadId(0),
                        counters: active(0.5),
                    }],
                    end: EpochEnd::TraceEnd,
                },
            ],
            markers: vec![],
            threads: vec![
                ThreadInfo {
                    id: ThreadId(0),
                    role: ThreadRole::Application,
                    name: "t0".into(),
                    spawn: t(0.0),
                    exit: None,
                },
                ThreadInfo {
                    id: ThreadId(1),
                    role: ThreadRole::Application,
                    name: "t1".into(),
                    spawn: t(0.0),
                    exit: None,
                },
            ],
        }
    }

    #[test]
    fn identity_prediction_reproduces_total() {
        let trace = trace_with_sleeper();
        let p = MCrit::plain();
        let id = p.predict(&trace, Freq::from_ghz(1.0));
        assert!((id.as_secs() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn sleep_time_is_wrongly_scaled() {
        // The paper's motivating flaw: t1 slept 0.5 s, but M+CRIT treats
        // that sleep as scaling work. Prediction at 4 GHz: each thread's
        // presence (1 s) / 4 = 0.25 s. The *true* answer would be 0.25 s of
        // compute for t0... which here coincides; the point is t1's sleep
        // is treated identically to t0's work.
        let trace = trace_with_sleeper();
        let p = MCrit::plain();
        let pred = p.predict(&trace, Freq::from_ghz(4.0));
        assert!((pred.as_secs() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn burst_moves_sq_time_to_non_scaling() {
        let mut trace = trace_with_sleeper();
        // Give t0 0.4 s of store-queue-full time in epoch 0.
        trace.epochs[0].threads[0].counters.sq_full = TimeDelta::from_secs(0.4);
        let plain = MCrit::plain().predict(&trace, Freq::from_ghz(4.0));
        let burst = MCrit::with_burst().predict(&trace, Freq::from_ghz(4.0));
        // With BURST: (1.0 - 0.4) / 4 + 0.4 = 0.55 vs 0.25 plain.
        assert!((plain.as_secs() - 0.25).abs() < 1e-12);
        assert!((burst.as_secs() - 0.55).abs() < 1e-12);
    }

    #[test]
    fn name_reflects_configuration() {
        assert_eq!(MCrit::plain().name(), "M+CRIT");
        assert_eq!(MCrit::with_burst().name(), "M+CRIT+BURST");
        assert_eq!(
            MCrit::new(NonScalingModel::LeadingLoads, false).name(),
            "M+LL"
        );
    }
}
