//! The map-based DEP, COOP and M+CRIT, kept as oracles for the
//! equivalence proptest (`tests/oracle.rs`): each wraps a configured
//! predictor and must predict the same bits as it at every frequency.
//!
//! They keep DEP's delta counters in a `BTreeMap`, rescan every epoch into
//! a fresh map per COOP phase window, and rebuild M+CRIT's per-thread
//! totals as a map — the bookkeeping the predictors themselves replaced
//! with tables indexed by thread id.

use std::collections::BTreeMap;

use dvfs_trace::{
    DvfsCounters, EpochRecord, ExecutionTrace, Freq, ThreadId, ThreadTotals, Time, TimeDelta,
};

use crate::{CtpMode, DvfsPredictor};

/// Map-based [`crate::Dep`].
#[derive(Debug, Clone, Copy)]
pub struct Dep(pub crate::Dep);

/// Map-based [`crate::Coop`].
#[derive(Debug, Clone, Copy)]
pub struct Coop(pub crate::Coop);

/// Map-based [`crate::MCrit`].
#[derive(Debug, Clone, Copy)]
pub struct MCrit(pub crate::MCrit);

impl Dep {
    fn epoch_estimate(
        &self,
        epoch: &EpochRecord,
        ratio: f64,
        deltas: &mut BTreeMap<ThreadId, TimeDelta>,
    ) -> TimeDelta {
        let dep = &self.0;
        if epoch.threads.is_empty() {
            return epoch.duration;
        }
        let mut estimates: Vec<(ThreadId, TimeDelta, TimeDelta)> =
            Vec::with_capacity(epoch.threads.len());
        for slice in &epoch.threads {
            let a_t = dep.model.predict_active(&slice.counters, dep.burst, ratio);
            let delta = deltas
                .get(&slice.thread)
                .copied()
                .unwrap_or(TimeDelta::ZERO);
            let e_t = a_t - delta;
            estimates.push((slice.thread, a_t, e_t));
        }
        let epoch_len = match dep.ctp {
            CtpMode::PerEpoch => estimates
                .iter()
                .map(|&(_, a_t, _)| a_t)
                .fold(TimeDelta::ZERO, TimeDelta::max),
            CtpMode::AcrossEpoch => estimates
                .iter()
                .map(|&(_, _, e_t)| e_t)
                .fold(TimeDelta::ZERO, TimeDelta::max),
        };
        if dep.ctp == CtpMode::AcrossEpoch {
            for &(tid, a_t, _) in &estimates {
                let d = deltas.entry(tid).or_insert(TimeDelta::ZERO);
                *d = (epoch_len - a_t) + *d;
                *d = d.clamp_non_negative();
            }
            if let Some(stalled) = epoch.end.stalled_thread() {
                deltas.insert(stalled, TimeDelta::ZERO);
            }
        }
        epoch_len
    }
}

impl DvfsPredictor for Dep {
    fn predict(&self, trace: &ExecutionTrace, target: Freq) -> TimeDelta {
        let ratio = trace.base.scaling_ratio_to(target);
        let mut deltas: BTreeMap<ThreadId, TimeDelta> = BTreeMap::new();
        let mut total = TimeDelta::ZERO;
        for epoch in &trace.epochs {
            total += self.epoch_estimate(epoch, ratio, &mut deltas);
        }
        total
    }

    fn name(&self) -> String {
        self.0.name()
    }
}

impl DvfsPredictor for Coop {
    fn predict(&self, trace: &ExecutionTrace, target: Freq) -> TimeDelta {
        let coop = &self.0;
        let ratio = trace.base.scaling_ratio_to(target);
        let mut total = TimeDelta::ZERO;
        for window in trace.phase_windows() {
            let counters = totals_in_window(trace, window.start, window.end);
            let mut phase_best = TimeDelta::ZERO;
            let mut any_active = false;
            for pass in 0..2 {
                for info in &trace.threads {
                    let presence = info.presence_in(window.start, window.end);
                    if presence == TimeDelta::ZERO {
                        continue;
                    }
                    let active = counters
                        .get(&info.id)
                        .map(|c| c.active)
                        .unwrap_or(TimeDelta::ZERO);
                    let qualifies = active.as_secs() >= 0.3 * presence.as_secs();
                    if pass == 0 && !qualifies {
                        continue;
                    }
                    any_active |= qualifies;
                    let ns = counters
                        .get(&info.id)
                        .map(|c| coop.model.non_scaling(c, coop.burst))
                        .unwrap_or(TimeDelta::ZERO)
                        .min(presence);
                    let predicted = (presence - ns) * ratio + ns;
                    phase_best = phase_best.max(predicted);
                }
                if any_active {
                    break;
                }
            }
            total += phase_best;
        }
        total
    }

    fn name(&self) -> String {
        self.0.name()
    }
}

impl DvfsPredictor for MCrit {
    fn predict(&self, trace: &ExecutionTrace, target: Freq) -> TimeDelta {
        let mcrit = &self.0;
        let ratio = trace.base.scaling_ratio_to(target);
        let mut best = TimeDelta::ZERO;
        for totals in thread_totals(trace).values() {
            let ns = mcrit
                .model
                .non_scaling(&totals.counters, mcrit.burst)
                .min(totals.presence);
            let scaling = totals.presence - ns;
            let predicted = scaling * ratio + ns;
            best = best.max(predicted);
        }
        best
    }

    fn name(&self) -> String {
        self.0.name()
    }
}

/// Per-thread totals rebuilt as a map: every registered thread, then every
/// epoch slice.
pub fn thread_totals(trace: &ExecutionTrace) -> BTreeMap<ThreadId, ThreadTotals> {
    let mut totals: BTreeMap<ThreadId, ThreadTotals> = BTreeMap::new();
    for info in &trace.threads {
        totals.insert(
            info.id,
            ThreadTotals {
                presence: info.presence_in(trace.start, trace.end()),
                counters: DvfsCounters::zero(),
            },
        );
    }
    for epoch in &trace.epochs {
        for slice in &epoch.threads {
            totals.entry(slice.thread).or_default().counters += slice.counters;
        }
    }
    totals
}

/// Per-thread window sums from a scan of every epoch into a fresh map.
pub fn totals_in_window(
    trace: &ExecutionTrace,
    start: Time,
    end: Time,
) -> BTreeMap<ThreadId, DvfsCounters> {
    let mut totals: BTreeMap<ThreadId, DvfsCounters> = BTreeMap::new();
    for epoch in &trace.epochs {
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
            *totals.entry(slice.thread).or_default() += slice.counters.scaled(frac);
        }
    }
    totals
}
