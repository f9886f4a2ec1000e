//! DEP: synchronization-epoch decomposition with critical-thread
//! prediction (paper §III), the core of DEP+BURST.
//!
//! Execution is decomposed into epochs at every futex transition. For each
//! epoch, every active thread's measured time is split into scaling and
//! non-scaling parts and re-timed at the target frequency; the epoch's
//! predicted duration is governed by its critical thread. Two
//! critical-thread-prediction (CTP) modes exist:
//!
//! * **per-epoch** (§III-C, Fig. 2c): the epoch lasts as long as its
//!   slowest thread — simple, no state across epochs, but over-counts when
//!   the critical thread changes between epochs;
//! * **across-epoch** (§III-C, Fig. 2d, Algorithm 1): a per-thread delta
//!   counter carries each thread's accumulated slack across epoch
//!   boundaries, so a thread that fell behind in one epoch is charged less
//!   in the next. The delta of a thread that *stalled* (went to sleep) is
//!   reset — its future progress is gated by its waker, not by its own
//!   slack.
//!
//! Two structural properties hold (and are property-tested): across-epoch
//! CTP never predicts more than per-epoch CTP (deltas are non-negative),
//! and per-epoch CTP is monotone in the target frequency. Across-epoch
//! CTP itself is *not* guaranteed monotone: which thread is critical in an
//! epoch can flip with the scaling ratio, changing how slack accumulates
//! downstream.

use dvfs_trace::{EpochRecord, ExecutionTrace, Freq, ThreadId, TimeDelta};

use crate::{DvfsPredictor, NonScalingModel};

/// Critical-thread prediction mode (paper §III-C, evaluated in Fig. 4).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CtpMode {
    /// Per-epoch CTP: each epoch independently lasts as long as its
    /// slowest thread.
    PerEpoch,
    /// Across-epoch CTP: Algorithm 1 with per-thread delta counters.
    AcrossEpoch,
}

/// The DEP predictor (optionally +BURST), the paper's contribution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Dep {
    pub(crate) model: NonScalingModel,
    pub(crate) burst: bool,
    pub(crate) ctp: CtpMode,
}

impl Dep {
    /// Creates the predictor.
    #[must_use]
    pub fn new(model: NonScalingModel, burst: bool, ctp: CtpMode) -> Self {
        Dep { model, burst, ctp }
    }

    /// Plain DEP: CRIT per thread, across-epoch CTP, no store-burst
    /// modelling.
    #[must_use]
    pub fn plain() -> Self {
        Dep::new(NonScalingModel::Crit, false, CtpMode::AcrossEpoch)
    }

    /// The paper's headline configuration: DEP+BURST with across-epoch CTP.
    #[must_use]
    pub fn dep_burst() -> Self {
        Dep::new(NonScalingModel::Crit, true, CtpMode::AcrossEpoch)
    }

    /// DEP+BURST with per-epoch CTP (the Fig. 4 ablation).
    #[must_use]
    pub fn dep_burst_per_epoch() -> Self {
        Dep::new(NonScalingModel::Crit, true, CtpMode::PerEpoch)
    }

    /// Adds the prediction at each of `targets` into `out`, one slot per
    /// target. Each slice is split into scaling and non-scaling time once
    /// per epoch; Algorithm 1 then runs for every target in lockstep, with
    /// one set of delta counters per target.
    fn predict_into(&self, trace: &ExecutionTrace, targets: &[Freq], out: &mut [TimeDelta]) {
        if targets.is_empty() {
            return;
        }
        // Per target: its scaling ratio and the current epoch's length.
        let ratios: Vec<f64> = targets
            .iter()
            .map(|&target| trace.base.scaling_ratio_to(target))
            .collect();
        let mut lens = vec![TimeDelta::ZERO; ratios.len()];
        let mut deltas = Vec::new();
        let mut splits = Vec::new();
        for epoch in &trace.epochs {
            if epoch.threads.is_empty() {
                // No thread ran (everyone blocked on timers/IO): wall time
                // that does not scale with core frequency.
                for total in out.iter_mut() {
                    *total += epoch.duration;
                }
                continue;
            }
            splits.clear();
            splits.extend(
                epoch
                    .threads
                    .iter()
                    .map(|slice| self.model.split(&slice.counters, self.burst)),
            );
            self.epoch_estimates(epoch, &splits, &ratios, &mut lens, &mut deltas);
            for (total, &epoch_len) in out.iter_mut().zip(&lens) {
                *total += epoch_len;
            }
        }
    }

    /// Estimated duration of one non-empty epoch at each target's scaling
    /// ratio in `ratios`, into `lens`, updating the delta counters per
    /// Algorithm 1. `splits` holds each slice's `(scaling, non-scaling)`
    /// time; thread `t`'s delta at target `k` is
    /// `deltas[t.index() * ratios.len() + k]`.
    fn epoch_estimates(
        &self,
        epoch: &EpochRecord,
        splits: &[(TimeDelta, TimeDelta)],
        ratios: &[f64],
        lens: &mut [TimeDelta],
        deltas: &mut Vec<TimeDelta>,
    ) {
        let width = ratios.len();
        let row = |thread: ThreadId| thread.index() * width..(thread.index() + 1) * width;

        // Line 1-5: per-thread estimates a_t and delta-adjusted e_t; the
        // epoch lasts as long as its (slack-adjusted) critical thread. The
        // deltas only change below, after every e_t is taken.
        for (lane, (&ratio, epoch_len)) in ratios.iter().zip(lens.iter_mut()).enumerate() {
            let mut critical = TimeDelta::ZERO;
            for (slice, &(scaling, non_scaling)) in epoch.threads.iter().zip(splits) {
                let a_t = scaling * ratio + non_scaling;
                let e_t = match self.ctp {
                    CtpMode::PerEpoch => a_t,
                    CtpMode::AcrossEpoch => {
                        let delta = deltas.get(row(slice.thread).start + lane).copied();
                        a_t - delta.unwrap_or(TimeDelta::ZERO)
                    }
                };
                critical = critical.max(e_t);
            }
            *epoch_len = critical;
        }

        if self.ctp == CtpMode::AcrossEpoch {
            // Line 6-8: every active thread accrues the slack it gained on
            // the critical thread.
            for (slice, &(scaling, non_scaling)) in epoch.threads.iter().zip(splits) {
                let row = row(slice.thread);
                if deltas.len() < row.end {
                    deltas.resize(row.end, TimeDelta::ZERO);
                }
                for ((&ratio, &epoch_len), delta) in
                    ratios.iter().zip(lens.iter()).zip(&mut deltas[row])
                {
                    let a_t = scaling * ratio + non_scaling;
                    // Slack is never negative: a thread cannot be ahead of
                    // an epoch it participated in.
                    *delta = ((epoch_len - a_t) + *delta).clamp_non_negative();
                }
            }
            // Line 9: the stalled thread's future is gated by its waker.
            if let Some(stalled) = epoch.end.stalled_thread() {
                if let Some(slack) = deltas.get_mut(row(stalled)) {
                    slack.fill(TimeDelta::ZERO);
                }
            }
        }
    }
}

impl DvfsPredictor for Dep {
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
        let mut n = "DEP".to_owned();
        if self.burst {
            n.push_str("+BURST");
        }
        if self.ctp == CtpMode::PerEpoch {
            n.push_str(" (per-epoch CTP)");
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

    fn compute(secs: f64) -> DvfsCounters {
        DvfsCounters {
            active: TimeDelta::from_secs(secs),
            ..DvfsCounters::zero()
        }
    }

    fn memory(secs: f64, non_scaling_frac: f64) -> DvfsCounters {
        DvfsCounters {
            active: TimeDelta::from_secs(secs),
            crit: TimeDelta::from_secs(secs * non_scaling_frac),
            ..DvfsCounters::zero()
        }
    }

    fn info(id: u32, name: &str) -> ThreadInfo {
        ThreadInfo {
            id: ThreadId(id),
            role: ThreadRole::Application,
            name: name.into(),
            spawn: Time::ZERO,
            exit: None,
        }
    }

    fn trace_of(epochs: Vec<EpochRecord>, threads: Vec<ThreadInfo>) -> ExecutionTrace {
        let total = epochs.iter().map(|e| e.duration).sum();
        ExecutionTrace {
            base: Freq::from_ghz(1.0),
            start: Time::ZERO,
            total,
            epochs,
            markers: vec![],
            threads,
        }
    }

    fn epoch(
        start: f64,
        duration: f64,
        slices: Vec<(u32, DvfsCounters)>,
        end: EpochEnd,
    ) -> EpochRecord {
        EpochRecord {
            start: Time::from_secs(start),
            duration: TimeDelta::from_secs(duration),
            threads: slices
                .into_iter()
                .map(|(id, counters)| ThreadSlice {
                    thread: ThreadId(id),
                    counters,
                })
                .collect(),
            end,
        }
    }

    /// The paper's Fig. 2 scenario: t1 blocks on t0's critical section.
    /// Epochs: (a) both run, (b) only t0 runs (t1 asleep), (c) both run.
    fn fig2_trace() -> ExecutionTrace {
        trace_of(
            vec![
                epoch(
                    0.0,
                    0.3,
                    vec![(0, compute(0.3)), (1, compute(0.3))],
                    EpochEnd::Stall(ThreadId(1)),
                ),
                epoch(0.3, 0.2, vec![(0, compute(0.2))], EpochEnd::Wake(ThreadId(1))),
                epoch(
                    0.5,
                    0.5,
                    vec![(0, compute(0.5)), (1, compute(0.5))],
                    EpochEnd::TraceEnd,
                ),
            ],
            vec![info(0, "t0"), info(1, "t1")],
        )
    }

    #[test]
    fn identity_prediction_is_exact() {
        let trace = fig2_trace();
        for p in [Dep::plain(), Dep::dep_burst(), Dep::dep_burst_per_epoch()] {
            let id = p.predict(&trace, Freq::from_ghz(1.0));
            assert!(
                (id.as_secs() - 1.0).abs() < 1e-12,
                "{}: {id}",
                p.name()
            );
        }
    }

    #[test]
    fn dep_models_the_fig2_dependency() {
        // All compute: everything scales. At 2 GHz the run halves.
        let trace = fig2_trace();
        let pred = Dep::plain().predict(&trace, Freq::from_ghz(2.0));
        assert!((pred.as_secs() - 0.5).abs() < 1e-12);
        // M+CRIT also treats t1's 0.2 s sleep as scaling; here everything
        // scales, so the flaw happens to cancel. Give t0's critical section
        // non-scaling time instead: now the sleep matters.
        let mut trace = fig2_trace();
        trace.epochs[1].threads[0].counters = memory(0.2, 1.0);
        let dep = Dep::plain().predict(&trace, Freq::from_ghz(4.0)).as_secs();
        // Truth: 0.3/4 + 0.2 (non-scaling) + 0.5/4 = 0.4.
        assert!((dep - 0.4).abs() < 1e-12, "dep {dep}");
        // M+CRIT: t0 presence 1.0 with ns 0.2 -> 0.4; t1 presence 1.0 all
        // "scaling" -> 0.25. max = 0.4. Coincidence here; t1 heavier makes
        // it wrong:
        trace.epochs[2].threads[1].counters = memory(0.5, 0.8);
        let dep = Dep::plain().predict(&trace, Freq::from_ghz(4.0)).as_secs();
        // Epoch 3 critical thread is t1: 0.5*0.8 + 0.5*0.2/4 = 0.425.
        let truth = 0.3 / 4.0 + 0.2 + 0.425;
        assert!((dep - truth).abs() < 1e-12, "dep {dep} truth {truth}");
        let mcrit = crate::MCrit::plain()
            .predict(&trace, Freq::from_ghz(4.0))
            .as_secs();
        assert!(
            (mcrit - truth).abs() > (dep - truth).abs(),
            "DEP must beat M+CRIT: dep {dep}, mcrit {mcrit}, truth {truth}"
        );
    }

    /// A third thread's stall cuts an epoch while t0/t1 keep running.
    /// t0 is ahead in epoch 1, t1 in epoch 2; overall they tie. Per-epoch
    /// CTP double-counts; Algorithm 1's deltas cancel the slack exactly.
    #[test]
    fn across_epoch_ctp_corrects_critical_thread_swaps() {
        // Base at 1 GHz: epoch 1 is 0.4 s (t0 does 0.4 of non-scaling work,
        // t1 does 0.4 fully-scaling), epoch 2 is 0.4 s (roles reversed).
        // Watcher thread t2 sleeps at the cut.
        let trace = trace_of(
            vec![
                epoch(
                    0.0,
                    0.4,
                    vec![
                        (0, memory(0.4, 1.0)),
                        (1, compute(0.4)),
                        (2, compute(0.4)),
                    ],
                    EpochEnd::Stall(ThreadId(2)),
                ),
                epoch(
                    0.4,
                    0.4,
                    vec![(0, compute(0.4)), (1, memory(0.4, 1.0))],
                    EpochEnd::TraceEnd,
                ),
            ],
            vec![info(0, "t0"), info(1, "t1"), info(2, "t2")],
        );
        let target = Freq::from_ghz(4.0);
        // Truth: t0 needs 0.4 + 0.1 = 0.5; t1 needs 0.1 + 0.4 = 0.5. They
        // run concurrently without synchronizing with each other, so the
        // true end is at 0.5.
        let per_epoch = Dep::dep_burst_per_epoch()
            .predict(&trace, target)
            .as_secs();
        let across = Dep::dep_burst().predict(&trace, target).as_secs();
        // Per-epoch: max(0.4, 0.1) + max(0.1, 0.4) = 0.8 (double count).
        assert!((per_epoch - 0.8).abs() < 1e-12, "per-epoch {per_epoch}");
        // Across-epoch: epoch 1 = 0.4; t1 accrues delta 0.3; epoch 2:
        // e_t1 = 0.4 - 0.3 = 0.1, e_t0 = 0.1 -> epoch 2 = 0.1. Total 0.5.
        assert!((across - 0.5).abs() < 1e-12, "across {across}");
    }

    #[test]
    fn stalled_thread_delta_resets() {
        // t1 falls behind in epoch 1 (accrues slack), then *stalls*. Its
        // slack must not carry into the epoch after it wakes.
        let trace = trace_of(
            vec![
                epoch(
                    0.0,
                    0.4,
                    vec![(0, memory(0.4, 1.0)), (1, compute(0.4))],
                    EpochEnd::Stall(ThreadId(1)),
                ),
                epoch(0.4, 0.2, vec![(0, memory(0.2, 1.0))], EpochEnd::Wake(ThreadId(1))),
                epoch(
                    0.6,
                    0.4,
                    vec![(0, compute(0.4)), (1, memory(0.4, 1.0))],
                    EpochEnd::TraceEnd,
                ),
            ],
            vec![info(0, "t0"), info(1, "t1")],
        );
        let across = Dep::dep_burst()
            .predict(&trace, Freq::from_ghz(4.0))
            .as_secs();
        // Epoch 1: 0.4 (t0 non-scaling critical). t1 would accrue 0.3 of
        // slack, but it stalled: reset. Epoch 2: 0.2. Epoch 3: t1 critical
        // with full 0.4 (no leftover slack): total 0.4+0.2+0.4 = 1.0.
        assert!((across - 1.0).abs() < 1e-12, "got {across}");
    }

    #[test]
    fn empty_epochs_count_as_non_scaling_wall_time() {
        let trace = trace_of(
            vec![epoch(0.0, 0.25, vec![], EpochEnd::TraceEnd)],
            vec![info(0, "t0")],
        );
        let pred = Dep::plain().predict(&trace, Freq::from_ghz(4.0));
        assert!((pred.as_secs() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn burst_improves_store_heavy_prediction() {
        // One thread, one epoch, half the time stalled on a full store
        // queue.
        let counters = DvfsCounters {
            active: TimeDelta::from_secs(1.0),
            sq_full: TimeDelta::from_secs(0.5),
            ..DvfsCounters::zero()
        };
        let trace = trace_of(
            vec![epoch(0.0, 1.0, vec![(0, counters)], EpochEnd::TraceEnd)],
            vec![info(0, "t0")],
        );
        let target = Freq::from_ghz(4.0);
        let plain = Dep::plain().predict(&trace, target).as_secs();
        let burst = Dep::dep_burst().predict(&trace, target).as_secs();
        assert!((plain - 0.25).abs() < 1e-12);
        assert!((burst - (0.5 / 4.0 + 0.5)).abs() < 1e-12);
    }

    #[test]
    fn names() {
        assert_eq!(Dep::plain().name(), "DEP");
        assert_eq!(Dep::dep_burst().name(), "DEP+BURST");
        assert_eq!(
            Dep::dep_burst_per_epoch().name(),
            "DEP+BURST (per-epoch CTP)"
        );
    }
}
