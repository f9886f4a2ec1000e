//! Sampled-and-extrapolated execution tier.
//!
//! A full-fidelity sweep point simulates every round of its workload.
//! This module implements the cheap tier: simulate two *prefix regions*
//! of the run — a short probe and a longer measure region — and
//! extrapolate the whole-run execution time, GC time, energy proxy, and
//! per-counter totals from the marginal window between them, with
//! confidence intervals derived from the window's own variability.
//!
//! Why prefixes, and why two of them:
//!
//! * Workload round counts are the *only* thing the region scale changes
//!   (see `dacapo_sim::RoundParams::scaled`); the seeded RNG streams are
//!   untouched, so a run at a smaller scale executes a step-identical
//!   prefix of the full run. A region is therefore not an approximation
//!   of the run's start — it *is* the run's start, bit for bit.
//! * The difference between the measure and probe regions — the
//!   marginal window — cancels everything the two prefixes share:
//!   runtime spin-up, JIT warmup, the first cold-heap collections. What
//!   remains is the steady-state rate, which is what the unseen tail of
//!   the run is made of.
//!
//! Extrapolation is phase-aware: mutator time scales with the remaining
//! rounds, while GC time is projected *structurally* from the measure
//! region's pause stream:
//!
//! * Collections fire when the nursery fills, and allocation tracks the
//!   mutator *work done*, not wall time — a straggler phase where one
//!   thread finishes the job allocates per wall second at a fraction of
//!   the parallel phase's rate, but allocates per *instruction* exactly
//!   as before. Consecutive pause starts are therefore equally spaced in
//!   mutator instructions; the tail's collection count is the projected
//!   remaining mutator instructions divided by that spacing (robust down
//!   to a handful of collections, where a rate-times-window estimate is
//!   hopelessly granular).
//! * Nursery pauses are flat — the nursery is the same size every time —
//!   and are priced at the window mean.
//! * Full-heap pauses are periodic (every Nth collection) and *ramp*:
//!   their cost follows the mature space, which grows geometrically
//!   toward its reclaim equilibrium. A prefix window observes the cheap
//!   early fulls, so a mean would systematically under-price the tail.
//!   Instead the ramp `d(n) = d_inf * (1 - q^n)` is fitted to the
//!   observed fulls (two observations determine `q`; one observation
//!   uses the configured prior) and each projected full is priced at its
//!   own ordinal.
//!
//! Phase recurrence is checked online, not assumed: the measure region's
//! epoch stream is clustered by signature (`dvfs_trace::recurrence`) and
//! the region scheduler widens the measure region when the late window
//! keeps founding clusters the early window never saw.

use depburst_core::num::round_u64;
use dvfs_trace::{ExecutionTrace, PhaseKind, Time, TimeDelta};

/// Configuration of the sampled tier: region placement, phase-recurrence
/// thresholds, and confidence-interval parameters.
///
/// Every field participates in [`hash_into`](SamplingConfig::hash_into),
/// so two runs sampled under different configurations never share a memo
/// cache entry.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SamplingConfig {
    /// Rounds fraction of the probe region (the short prefix whose only
    /// job is to absorb startup transients out of the marginal window).
    pub probe_fraction: f64,
    /// Rounds fraction of the measure region (the long prefix the whole
    /// run is extrapolated from). Must be wide enough to span at least
    /// one full-heap collection period of the slowest-allocating
    /// workload, or the ramp projection has no full pause to anchor on.
    pub measure_fraction: f64,
    /// Measure fraction the region scheduler widens to when the measured
    /// recurrence falls below [`min_recurrence`](Self::min_recurrence).
    pub extend_fraction: f64,
    /// Minimum phase recurrence (duration share of late epochs falling in
    /// early-established clusters) below which the scheduler distrusts
    /// the measure region and extends it.
    pub min_recurrence: f64,
    /// Distance threshold of the epoch-signature clustering.
    pub cluster_threshold: f64,
    /// Where the recurrence check splits the measured trace (fraction of
    /// the traced window; late epochs must recur in clusters founded
    /// before this point).
    pub recurrence_split: f64,
    /// A GC pause longer than this multiple of the median pause is
    /// classified as a full-heap collection. Duration-based
    /// classification stays correct when the collector triggers full
    /// collections off-schedule (mature-space pressure), which a purely
    /// periodic rule would misclassify.
    pub full_pause_ratio: f64,
    /// Prior for the geometric full-pause ramp ratio `q` in
    /// `d(n) = d_inf * (1 - q^n)`, used when the window observed only
    /// one full-heap pause (two or more let `q` be fitted from the data).
    /// `q` is the fraction of the mature space a full-heap collection
    /// leaves behind, so the prior should track the collector's reclaim
    /// policy; 0.25 matches the observed ramp of the reproduction's
    /// runtime.
    pub full_ramp_ratio: f64,
    /// z-score of the reported confidence interval (1.96 = 95%).
    pub confidence_z: f64,
    /// Sub-windows the marginal window is split into for the rate
    /// variance estimate behind the confidence interval.
    pub ci_subwindows: u32,
}

impl Default for SamplingConfig {
    fn default() -> Self {
        SamplingConfig {
            probe_fraction: 0.05,
            measure_fraction: 0.40,
            extend_fraction: 0.55,
            min_recurrence: 0.25,
            cluster_threshold: 0.25,
            recurrence_split: 0.5,
            full_pause_ratio: 2.5,
            full_ramp_ratio: 0.25,
            confidence_z: 1.96,
            ci_subwindows: 8,
        }
    }
}

impl SamplingConfig {
    /// Folds every field into `h` in declaration order (the sampled-tier
    /// analogue of `MachineConfig::hash_into`): any change to the region
    /// placement or extrapolation parameters changes the memo key of
    /// every sampled point.
    pub fn hash_into(&self, h: &mut depburst_core::stablehash::StableHasher) {
        h.write_tag("simx::sampling_config");
        h.write_f64(self.probe_fraction);
        h.write_f64(self.measure_fraction);
        h.write_f64(self.extend_fraction);
        h.write_f64(self.min_recurrence);
        h.write_f64(self.cluster_threshold);
        h.write_f64(self.recurrence_split);
        h.write_f64(self.full_pause_ratio);
        h.write_f64(self.full_ramp_ratio);
        h.write_f64(self.confidence_z);
        h.write_u32(self.ci_subwindows);
    }

    /// The initial region schedule: probe then measure prefix.
    #[must_use]
    pub fn schedule(&self) -> RegionSchedule {
        RegionSchedule {
            probe: self.probe_fraction.clamp(0.0, 1.0),
            measure: self.measure_fraction.clamp(0.0, 1.0),
        }
    }

    /// The region scheduler's reaction to a measured recurrence: `None`
    /// when the measure region explained its own tail well enough,
    /// otherwise the widened measure fraction to re-measure at.
    #[must_use]
    pub fn extension(&self, recurrence: f64) -> Option<f64> {
        (recurrence < self.min_recurrence && self.extend_fraction > self.measure_fraction)
            .then_some(self.extend_fraction.clamp(0.0, 1.0))
    }
}

/// The two prefix regions a sampled point simulates.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RegionSchedule {
    /// Probe prefix, as a fraction of the full run's rounds.
    pub probe: f64,
    /// Measure prefix, as a fraction of the full run's rounds.
    pub measure: f64,
}

/// What one simulated prefix region measured (the sampled tier's view of
/// a run summary; the caller supplies one per region).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RegionMeasurement {
    /// Rounds fraction this region simulated.
    pub fraction: f64,
    /// Wall-clock execution time of the region.
    pub exec: TimeDelta,
    /// Stop-the-world GC time inside the region.
    pub gc_time: TimeDelta,
    /// Collections completed inside the region.
    pub gc_count: u64,
    /// Bytes allocated inside the region.
    pub allocated: u64,
    /// Summed scheduled thread time inside the region (energy proxy).
    pub total_active: TimeDelta,
}

/// A whole-run estimate extrapolated from two prefix regions.
#[derive(Debug, Clone, PartialEq)]
pub struct Extrapolation {
    /// Estimated whole-run execution time.
    pub exec: TimeDelta,
    /// Estimated whole-run stop-the-world GC time.
    pub gc_time: TimeDelta,
    /// Estimated whole-run collection count.
    pub gc_count: u64,
    /// Estimated whole-run allocation.
    pub allocated: u64,
    /// Estimated whole-run summed active time.
    pub total_active: TimeDelta,
    /// Half-width of the execution-time confidence interval.
    pub exec_half_ci: TimeDelta,
    /// Half-width of the GC-time confidence interval.
    pub gc_half_ci: TimeDelta,
    /// Measured phase recurrence of the measure region (1.0 = the late
    /// window is made entirely of phases the early window established).
    pub recurrence: f64,
    /// Signature clusters found in the measure region.
    pub clusters: usize,
}

/// Extrapolates a whole run from its probe and measure prefix regions.
/// `trace` is the measure region's execution trace (pause structure,
/// epoch signatures, and the counter stream all come from it).
///
/// Degenerate inputs — a zero-width marginal window, which tiny smoke
/// scales produce when both prefixes round to the same round counts —
/// fall back to naive linear scaling of the measure region with a
/// confidence interval as wide as the estimate itself.
#[must_use]
pub fn extrapolate(
    probe: &RegionMeasurement,
    measure: &RegionMeasurement,
    trace: &ExecutionTrace,
    cfg: &SamplingConfig,
) -> Extrapolation {
    let report = dvfs_trace::recurrence(trace, cfg.recurrence_split, cfg.cluster_threshold);
    let span = measure.fraction - probe.fraction;
    // `span > 0.0` (not `span <= 0.0`) so a NaN span also takes the
    // fallback rather than poisoning the extrapolation below.
    let span_usable = span > 0.0;
    if !span_usable || measure.exec <= probe.exec || measure.fraction >= 1.0 {
        return linear_fallback(measure, report);
    }
    let r = (1.0 - measure.fraction).max(0.0) / span;

    // Marginal window: everything the two prefixes do NOT share.
    let window_exec = (measure.exec - probe.exec).clamp_non_negative();
    let window_gc = (measure.gc_time - probe.gc_time).clamp_non_negative();
    let window_mut = (window_exec - window_gc).clamp_non_negative();
    let window_gcs = measure.gc_count.saturating_sub(probe.gc_count);
    let window_alloc = measure.allocated.saturating_sub(probe.allocated);
    let window_active = (measure.total_active - probe.total_active).clamp_non_negative();

    // Mutator time is linear in the remaining rounds.
    let measure_mut = (measure.exec - measure.gc_time).clamp_non_negative();
    let mut_total = measure_mut + window_mut * r;

    // GC time is projected structurally from the pause stream (see the
    // module docs): tail collection count from the nursery-fill spacing
    // in mutator instructions, nursery pauses at the window mean,
    // full-heap pauses individually priced on the fitted geometric ramp.
    let gc = project_gc(
        trace,
        probe.gc_count as usize,
        probe.exec,
        r,
        round_u64(r * window_gcs as f64),
        window_gc,
        window_gcs,
        cfg,
    );
    let gc_time = measure.gc_time + TimeDelta::from_secs(gc.tail_gc_time);

    // Confidence intervals. The mutator side extrapolates a mean
    // time-per-instruction rate; its standard error over equal-time
    // sub-windows of the marginal window, scaled by the tail's instruction
    // count, bounds the rate-drift risk. The GC side prices the tail's
    // pauses with the window's pooled within-class pause deviation.
    let z = cfg.confidence_z.max(0.0);
    let mut_half_ci = mutator_rate_half_ci(trace, probe.exec, window_mut, r, cfg) * z;
    let gc_half_ci = TimeDelta::from_secs(gc.pause_std * (gc.tail_gcs as f64).sqrt()) * z;
    let exec_half_ci = TimeDelta::from_secs(
        (mut_half_ci.as_secs().powi(2) + gc_half_ci.as_secs().powi(2)).sqrt(),
    );

    Extrapolation {
        exec: mut_total + gc_time,
        gc_time,
        gc_count: measure.gc_count + gc.tail_gcs,
        allocated: measure.allocated + round_u64(r * window_alloc as f64),
        total_active: measure.total_active + window_active * r,
        exec_half_ci,
        gc_half_ci,
        recurrence: report.recurrence,
        clusters: report.clusters,
    }
}

/// The projected tail of the GC schedule.
#[derive(Debug, Clone, Copy, PartialEq)]
struct GcProjection {
    /// Collections beyond the measure region.
    tail_gcs: u64,
    /// Their total stop-the-world time (seconds).
    tail_gc_time: f64,
    /// Pooled within-class pause standard deviation (seconds), for the
    /// confidence interval.
    pause_std: f64,
}

/// Projects the run's remaining collections from the measure region's
/// pause stream.
///
/// * Tail count: pause starts are `spacing` apart in *mutator
///   instructions* (the nursery fills per unit of work done, which holds
///   through straggler phases where the wall-clock allocation rate
///   collapses), so the tail completes `floor((total - last) / spacing)`
///   more fills, where `total` extrapolates the run's mutator
///   instructions through the marginal window at ratio `r`. When the
///   stream carries no usable spacing the rate-based `fallback_gcs` is
///   used.
/// * Tail cost: each projected collection index is classified by the
///   observed full-heap period; fulls are priced on the geometric ramp
///   `d(n) = d_inf * (1 - q^n)` fitted to the observed fulls, nursery
///   pauses at the window mean.
#[allow(clippy::too_many_arguments)]
fn project_gc(
    trace: &ExecutionTrace,
    probe_gcs: usize,
    probe_exec: TimeDelta,
    r: f64,
    fallback_gcs: u64,
    window_gc: TimeDelta,
    window_gcs: u64,
    cfg: &SamplingConfig,
) -> GcProjection {
    let pauses = gc_pauses(trace);
    if pauses.is_empty() {
        // No pauses observed: price the rate-based count (usually zero)
        // at the aggregate window mean, the only estimate available.
        let mean = if window_gcs > 0 {
            window_gc.as_secs() / window_gcs as f64
        } else {
            0.0
        };
        return GcProjection {
            tail_gcs: fallback_gcs,
            tail_gc_time: mean * fallback_gcs as f64,
            pause_std: 0.0,
        };
    }

    // Cumulative instruction counts at every pause boundary plus the
    // probe's end and the trace's end, in one pass over the epochs.
    let mut boundaries: Vec<Time> = Vec::with_capacity(pauses.len() * 2 + 2);
    for (start, dur) in &pauses {
        boundaries.push(*start);
        boundaries.push(*start + *dur);
    }
    boundaries.push(trace.start + probe_exec);
    boundaries.push(trace.start + trace.total);
    let instr = instructions_at(trace, &boundaries);
    let pause_instr = |i: usize| instr[2 * i + 1] - instr[2 * i];
    let probe_end_instr = instr[pauses.len() * 2];
    let total_instr = instr[pauses.len() * 2 + 1];

    // Mutator-instruction offset of each pause start: cumulative
    // instructions minus those retired inside earlier pauses (full-heap
    // collections execute a non-trivial instruction stream of their own,
    // which would otherwise smear the fill spacing).
    let mut u = Vec::with_capacity(pauses.len());
    let mut in_gc = 0.0f64;
    for i in 0..pauses.len() {
        u.push(instr[2 * i] - in_gc);
        in_gc += pause_instr(i);
    }

    // The run's projected mutator instructions: the measure region's,
    // extended through the marginal window at the round ratio. The probe
    // boundary splits the prefix exactly (prefix runs are
    // step-identical), with the probe's own pauses deducted.
    let probe_pause_instr: f64 = (0..probe_gcs.min(pauses.len())).map(pause_instr).sum();
    let measure_mut_instr = total_instr - in_gc;
    let probe_mut_instr = (probe_end_instr - probe_pause_instr).max(0.0);
    let window_mut_instr = (measure_mut_instr - probe_mut_instr).max(0.0);
    let mut_instr_total = measure_mut_instr + window_mut_instr * r;

    // Nursery-fill spacing. The offsets form a random walk with
    // independent per-fill jitter, so the minimum-variance estimate is
    // the endpoint difference over an averaged stretch — the LATE half
    // of the window, because JIT warmup stretches early fills well past
    // the probe and the tail continues the late rate. Short streams fall
    // back to the median of consecutive diffs, then to the single
    // offset (one observed pause IS one fill).
    let n = u.len();
    let lo = probe_gcs.max(n / 2).min(n - 1);
    let spacing = if n - 1 - lo >= 2 {
        (u[n - 1] - u[lo]) / (n - 1 - lo) as f64
    } else {
        let diffs_from = |lo: usize| -> Vec<f64> {
            u.iter()
                .zip(u.iter().skip(1))
                .skip(lo)
                .map(|(a, b)| b - a)
                .collect()
        };
        let mut diffs = diffs_from(probe_gcs.saturating_sub(1).min(n - 1));
        if diffs.is_empty() {
            diffs = diffs_from(0);
        }
        if diffs.is_empty() {
            u[0]
        } else {
            diffs.sort_by(f64::total_cmp);
            diffs[diffs.len() / 2]
        }
    };
    let u_last = *u.last().expect("pauses is non-empty");
    let ratio = if spacing > 0.0 {
        ((mut_instr_total - u_last) / spacing).max(0.0)
    } else {
        fallback_gcs as f64
    };
    let tail_gcs = ratio.floor() as u64;

    // Classify by duration against the whole region's median pause.
    let mut sorted: Vec<f64> = pauses.iter().map(|(_, d)| d.as_secs()).collect();
    sorted.sort_by(f64::total_cmp);
    let threshold = sorted[sorted.len() / 2] * cfg.full_pause_ratio.max(1.0);
    let mut fulls: Vec<(usize, f64)> = Vec::new();
    let (mut n_sum, mut n_count) = (0.0f64, 0u64);
    for (k, (_, dur)) in pauses.iter().enumerate() {
        let secs = dur.as_secs();
        if secs > threshold {
            fulls.push((k, secs));
        } else if k >= probe_gcs {
            n_sum += secs;
            n_count += 1;
        }
    }
    let nursery_mean = if n_count > 0 {
        n_sum / n_count as f64
    } else if !sorted.is_empty() {
        sorted[sorted.len() / 2]
    } else {
        0.0
    };

    // Full-heap period: spacing of observed fulls in collection indices;
    // a single full at index k implies period k + 1 (the first full is
    // the period-th collection). No observed full means none can be
    // priced — the tail is assumed nursery-only.
    let period = match fulls.len() {
        0 => None,
        1 => Some(fulls[0].0 + 1),
        _ => {
            let mut gaps: Vec<usize> =
                fulls.iter().zip(fulls.iter().skip(1)).map(|(a, b)| b.0 - a.0).collect();
            gaps.sort_unstable();
            Some(gaps[gaps.len() / 2].max(1))
        }
    };

    // Geometric ramp fit. Ordinals follow the period; with two or more
    // observed fulls the ratio of the first two determines q (exact for
    // consecutive ordinals: d2/d1 = 1 + q), with one the configured
    // prior stands in. d_inf anchors on the LAST observed full, the most
    // saturated and hence least model-sensitive point.
    let ordinal = |k: usize, p: usize| (k + 1).div_ceil(p).max(1) as i32;
    let (ramp_q, d_inf) = match (period, fulls.as_slice()) {
        (Some(p), [(k1, d1), (k2, d2), ..]) if fulls.len() >= 2 => {
            let q = if ordinal(*k2, p) == ordinal(*k1, p) + 1 && *d1 > 0.0 {
                (d2 / d1 - 1.0).clamp(0.0, 0.9)
            } else {
                cfg.full_ramp_ratio.clamp(0.0, 0.9)
            };
            let (k_last, d_last) = *fulls.last().expect("fulls is non-empty");
            let denom = 1.0 - q.powi(ordinal(k_last, p));
            (q, if denom > 0.0 { d_last / denom } else { d_last })
        }
        (Some(p), [(k1, d1)]) => {
            let q = cfg.full_ramp_ratio.clamp(0.0, 0.9);
            let denom = 1.0 - q.powi(ordinal(*k1, p));
            (q, if denom > 0.0 { d1 / denom } else { *d1 })
        }
        _ => (0.0, 0.0),
    };

    // Price the tail. Nursery pauses follow the floored collection
    // count, but a full-heap pause straddling the tail's end is priced
    // by its fractional coverage of the fill ratio: the count estimate
    // carries sub-percent noise, and flooring away a full the run is 90%
    // of the way to would swing the estimate by ten nursery pauses'
    // worth on a knife edge (runs routinely end right after a scheduled
    // full — the final rounds trigger the last fill of the period).
    let len = pauses.len();
    let mut tail_gc_time = 0.0f64;
    let mut tail_fulls = 0u64;
    if let Some(p) = period {
        for k in len..len + ratio.ceil() as usize {
            if (k + 1) % p == 0 {
                let w = (ratio - (k - len) as f64).clamp(0.0, 1.0);
                tail_gc_time += w * d_inf * (1.0 - ramp_q.powi(ordinal(k, p)));
                if ((k - len) as u64) < tail_gcs {
                    tail_fulls += 1;
                }
            }
        }
    }
    tail_gc_time += nursery_mean * tail_gcs.saturating_sub(tail_fulls) as f64;

    // Pooled within-class deviation of the window pauses: between-class
    // spread is modelled, only residual variation is uncertainty.
    let mut ss = 0.0f64;
    let mut total = 0u64;
    for (k, (_, dur)) in pauses.iter().enumerate().skip(probe_gcs) {
        let secs = dur.as_secs();
        let mean = if secs > threshold {
            period.map_or(secs, |p| d_inf * (1.0 - ramp_q.powi(ordinal(k, p))))
        } else {
            nursery_mean
        };
        ss += (secs - mean).powi(2);
        total += 1;
    }
    let pause_std = if total > 1 {
        (ss / (total - 1) as f64).sqrt()
    } else {
        0.0
    };

    GcProjection {
        tail_gcs,
        tail_gc_time,
        pause_std,
    }
}

/// Cumulative all-thread instruction count at each of `times`: epoch
/// prefix sums, linearly pro-rated inside the epoch containing the
/// query (epochs attribute their counters uniformly over their span,
/// exactly like `ExecutionTrace::totals_in_window`).
fn instructions_at(trace: &ExecutionTrace, times: &[Time]) -> Vec<f64> {
    let mut prefix = Vec::with_capacity(trace.epochs.len() + 1);
    let mut acc = 0.0f64;
    prefix.push(0.0);
    for epoch in &trace.epochs {
        acc += epoch
            .threads
            .iter()
            .map(|s| s.counters.instructions as f64)
            .sum::<f64>();
        prefix.push(acc);
    }
    times
        .iter()
        .map(|&t| {
            let i = trace.epochs.partition_point(|e| e.end_time() <= t);
            if i >= trace.epochs.len() {
                return acc;
            }
            let epoch = &trace.epochs[i];
            let frac = if epoch.duration == TimeDelta::ZERO {
                0.0
            } else {
                (t.since(epoch.start) / epoch.duration).clamp(0.0, 1.0)
            };
            prefix[i] + (prefix[i + 1] - prefix[i]) * frac
        })
        .collect()
}

/// Naive linear scaling of the measure region alone, used when the
/// marginal window is degenerate. The confidence interval is the
/// estimate itself: the caller learns it got an order of magnitude, not
/// a measurement.
fn linear_fallback(
    measure: &RegionMeasurement,
    report: dvfs_trace::RecurrenceReport,
) -> Extrapolation {
    let inv = if measure.fraction > 0.0 && measure.fraction < 1.0 {
        1.0 / measure.fraction
    } else {
        1.0
    };
    let exec = measure.exec * inv;
    let gc_time = measure.gc_time * inv;
    Extrapolation {
        exec,
        gc_time,
        gc_count: round_u64(measure.gc_count as f64 * inv),
        allocated: round_u64(measure.allocated as f64 * inv),
        total_active: measure.total_active * inv,
        exec_half_ci: exec,
        gc_half_ci: gc_time,
        recurrence: report.recurrence,
        clusters: report.clusters,
    }
}

/// The trace's individual stop-the-world pauses as `(start, duration)`,
/// in time order (depth-tolerant marker pairing, like
/// `ExecutionTrace::phase_windows`).
fn gc_pauses(trace: &ExecutionTrace) -> Vec<(Time, TimeDelta)> {
    let mut pauses = Vec::new();
    let mut depth = 0u32;
    let mut begin = trace.start;
    for marker in &trace.markers {
        match marker.kind {
            PhaseKind::GcStart => {
                if depth == 0 {
                    begin = marker.time;
                }
                depth += 1;
            }
            PhaseKind::GcEnd => {
                depth = depth.saturating_sub(1);
                if depth == 0 {
                    pauses.push((begin, marker.time.since(begin).clamp_non_negative()));
                }
            }
        }
    }
    pauses
}

/// Standard error of the extrapolated mutator time: the marginal window
/// is split into equal-time sub-windows, each yields a seconds-per-
/// instruction rate, and the rate's standard error — scaled by the
/// tail's projected instruction count — bounds the drift risk of
/// assuming the window rate holds for the rest of the run.
fn mutator_rate_half_ci(
    trace: &ExecutionTrace,
    probe_exec: TimeDelta,
    window_mut: TimeDelta,
    r: f64,
    cfg: &SamplingConfig,
) -> TimeDelta {
    let k = cfg.ci_subwindows.max(2) as usize;
    let w_start = trace.start + probe_exec;
    let w_end = trace.start + trace.total;
    let width = w_end.since(w_start);
    if width <= TimeDelta::ZERO {
        return TimeDelta::ZERO;
    }
    let step = width * (1.0 / k as f64);
    let mut rates = Vec::with_capacity(k);
    let mut total_instr = 0u64;
    for i in 0..k {
        let lo = w_start + step * i as f64;
        let hi = if i + 1 == k { w_end } else { w_start + step * (i + 1) as f64 };
        let instr: u64 = trace
            .totals_in_window(lo, hi)
            .values()
            .map(|c| c.instructions)
            .sum();
        total_instr += instr;
        if instr > 0 {
            rates.push(hi.since(lo).as_secs() / instr as f64);
        }
    }
    if rates.len() < 2 || total_instr == 0 {
        // Not enough structure to estimate variance; report the whole
        // extrapolated increment as the uncertainty.
        return window_mut * r;
    }
    let n = rates.len() as f64;
    let mean = rates.iter().sum::<f64>() / n;
    let var = rates.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (n - 1.0);
    let se_rate = (var / n).sqrt();
    let tail_instr = total_instr as f64 * r;
    TimeDelta::from_secs(se_rate * tail_instr)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dvfs_trace::{Freq, PhaseMarker, Time};

    fn region(fraction: f64, exec_s: f64, gc_s: f64, gcs: u64, alloc: u64) -> RegionMeasurement {
        RegionMeasurement {
            fraction,
            exec: TimeDelta::from_secs(exec_s),
            gc_time: TimeDelta::from_secs(gc_s),
            gc_count: gcs,
            allocated: alloc,
            total_active: TimeDelta::from_secs(exec_s * 3.0),
        }
    }

    /// A trace whose epochs tile `total` seconds with uniform activity
    /// and whose markers carry `pauses` (start, duration) GC pauses.
    fn uniform_trace(total_s: f64, pauses: &[(f64, f64)]) -> ExecutionTrace {
        let mut epochs = Vec::new();
        let n = 40;
        let step = total_s / n as f64;
        for i in 0..n {
            epochs.push(dvfs_trace::EpochRecord {
                start: Time::from_secs(i as f64 * step),
                duration: TimeDelta::from_secs(step),
                threads: vec![dvfs_trace::ThreadSlice {
                    thread: dvfs_trace::ThreadId(1),
                    counters: dvfs_trace::DvfsCounters {
                        active: TimeDelta::from_secs(step),
                        instructions: 1_000_000,
                        ..Default::default()
                    },
                }],
                end: dvfs_trace::EpochEnd::QuantumBoundary,
            });
        }
        let mut markers = Vec::new();
        for &(start, dur) in pauses {
            markers.push(PhaseMarker::new(Time::from_secs(start), PhaseKind::GcStart));
            markers.push(PhaseMarker::new(Time::from_secs(start + dur), PhaseKind::GcEnd));
        }
        ExecutionTrace {
            base: Freq::from_ghz(1.0),
            start: Time::ZERO,
            total: TimeDelta::from_secs(total_s),
            epochs,
            markers,
            threads: vec![],
        }
    }

    #[test]
    fn linear_run_extrapolates_exactly() {
        // A perfectly linear run: exec = 10 s/fraction, no GC. The
        // window difference must recover the full-run time exactly.
        let probe = region(0.1, 1.0, 0.0, 0, 100);
        let measure = region(0.4, 4.0, 0.0, 0, 400);
        let trace = uniform_trace(4.0, &[]);
        let x = extrapolate(&probe, &measure, &trace, &SamplingConfig::default());
        assert!((x.exec.as_secs() - 10.0).abs() < 1e-9, "{}", x.exec);
        assert_eq!(x.gc_time, TimeDelta::ZERO);
        assert_eq!(x.allocated, 1000);
        assert!((x.total_active.as_secs() - 30.0).abs() < 1e-9);
        // Uniform rates mean a tight interval.
        assert!(x.exec_half_ci.as_secs() < 0.2, "{}", x.exec_half_ci);
    }

    #[test]
    fn startup_transient_cancels_in_the_window() {
        // Both prefixes carry the same 0.5 s startup cost; linear
        // scaling of the measure region alone would inflate the estimate
        // (4.5/0.4 = 11.25 s), the window difference must not.
        let probe = region(0.1, 1.5, 0.0, 0, 0);
        let measure = region(0.4, 4.5, 0.0, 0, 0);
        let trace = uniform_trace(4.5, &[]);
        let x = extrapolate(&probe, &measure, &trace, &SamplingConfig::default());
        assert!((x.exec.as_secs() - 10.5).abs() < 1e-9, "{}", x.exec);
    }

    /// A synthetic run: `total_gcs` collections spaced `spacing` apart
    /// in mutator time, nursery pauses of `nursery_dur`, and a full-heap
    /// pause every `period`-th collection priced on the ramp
    /// `d_inf * (1 - q^n)`.
    struct Ramp {
        total_gcs: usize,
        spacing: f64,
        nursery_dur: f64,
        period: usize,
        d_inf: f64,
        q: f64,
    }

    /// The whole-run ground truth of a [`Ramp`] alongside its probe and
    /// measure prefix measurements.
    struct RampRun {
        probe: RegionMeasurement,
        measure: RegionMeasurement,
        trace: ExecutionTrace,
        true_exec: f64,
        true_gc: f64,
        true_gcs: u64,
    }

    /// Synthesises the probe and measure views of `ramp` at the given
    /// prefix fractions.
    fn ramp_run(ramp: &Ramp, probe_fraction: f64, measure_fraction: f64) -> RampRun {
        let Ramp {
            total_gcs,
            spacing,
            nursery_dur,
            period,
            d_inf,
            q,
        } = *ramp;
        let dur = |k: usize| {
            if (k + 1).is_multiple_of(period) {
                let n = ((k + 1) / period) as i32;
                d_inf * (1.0 - q.powi(n))
            } else {
                nursery_dur
            }
        };
        // Mutator runs `spacing` past the last fill before finishing.
        let mut_total = spacing * total_gcs as f64 + spacing * 0.5;
        let gc_total: f64 = (0..total_gcs).map(dur).sum();

        // Prefix view at `fraction`: every collection whose fill point
        // lands inside the prefix's mutator time.
        let prefix = |fraction: f64| {
            let mut_in = mut_total * fraction;
            let (mut gc, mut gcs) = (0.0, 0u64);
            let mut wall_pauses = Vec::new();
            for k in 0..total_gcs {
                let u = spacing * (k + 1) as f64;
                if u <= mut_in {
                    wall_pauses.push((u + gc, dur(k)));
                    gc += dur(k);
                    gcs += 1;
                }
            }
            (mut_in + gc, gc, gcs, wall_pauses)
        };
        let (p_exec, p_gc, p_gcs, _) = prefix(probe_fraction);
        let (m_exec, m_gc, m_gcs, m_pauses) = prefix(measure_fraction);
        RampRun {
            probe: region(
                probe_fraction,
                p_exec,
                p_gc,
                p_gcs,
                (probe_fraction * 1000.0) as u64,
            ),
            measure: region(
                measure_fraction,
                m_exec,
                m_gc,
                m_gcs,
                (measure_fraction * 1000.0) as u64,
            ),
            trace: uniform_trace(m_exec, &m_pauses),
            true_exec: mut_total + gc_total,
            true_gc: gc_total,
            true_gcs: total_gcs as u64,
        }
    }

    /// 30 collections 0.2 s apart in mutator time, nursery pauses of
    /// 10 ms, every 8th a full-heap pause on the ramp 0.12 * (1 - 0.25^n).
    const TEST_RAMP: Ramp = Ramp {
        total_gcs: 30,
        spacing: 0.2,
        nursery_dur: 0.010,
        period: 8,
        d_inf: 0.12,
        q: 0.25,
    };

    #[test]
    fn gc_projection_recovers_periodic_ramp_exactly() {
        // 30 collections 0.2 s apart in mutator time, nursery pauses of
        // 10 ms, every 8th a full-heap pause on the ramp
        // 0.12 * (1 - 0.25^n) (fulls at indices 7, 15, 23 costing 0.09,
        // 0.1125, 0.118125 s). The measure prefix sees ten pauses — ONE
        // full — yet the projection must price the two unseen fulls at
        // their own ramp ordinals, recovering the run exactly: a flat
        // window mean would miss the ramp, a blended mean the mix.
        let run = ramp_run(&TEST_RAMP, 0.05, 0.35);
        assert_eq!(run.probe.gc_count, 1, "probe sees the first fill");
        assert_eq!(run.measure.gc_count, 10, "measure sees one full");
        let x = extrapolate(&run.probe, &run.measure, &run.trace, &SamplingConfig::default());
        assert_eq!(x.gc_count, run.true_gcs);
        assert!(
            (x.gc_time.as_secs() - run.true_gc).abs() < 1e-6,
            "gc_time {} want {}",
            x.gc_time,
            run.true_gc
        );
        assert!(
            (x.exec.as_secs() - run.true_exec).abs() < 1e-6,
            "exec {} want {}",
            x.exec,
            run.true_exec
        );
        // The synthetic run matches the model perfectly, so the
        // within-class residual — and with it the GC interval — is zero.
        assert!(x.gc_half_ci.as_secs() < 1e-9, "{}", x.gc_half_ci);
    }

    #[test]
    fn gc_projection_fits_ramp_from_two_observed_fulls() {
        // A wider measure region sees the fulls at ordinals 1 and 2;
        // their ratio determines q without consulting the configured
        // prior. Poison the prior to prove it: recovery stays exact.
        let run = ramp_run(&TEST_RAMP, 0.05, 0.55);
        assert_eq!(run.measure.gc_count, 16, "measure sees both early fulls");
        let cfg = SamplingConfig {
            full_ramp_ratio: 0.9,
            ..SamplingConfig::default()
        };
        let x = extrapolate(&run.probe, &run.measure, &run.trace, &cfg);
        assert_eq!(x.gc_count, run.true_gcs);
        assert!(
            (x.gc_time.as_secs() - run.true_gc).abs() < 1e-6,
            "gc_time {} want {}",
            x.gc_time,
            run.true_gc
        );
    }

    #[test]
    fn degenerate_window_falls_back_to_linear() {
        // Identical prefixes (tiny smoke scales collapse the regions).
        let probe = region(0.2, 2.0, 0.1, 3, 100);
        let measure = region(0.2, 2.0, 0.1, 3, 100);
        let trace = uniform_trace(2.0, &[]);
        let x = extrapolate(&probe, &measure, &trace, &SamplingConfig::default());
        assert!((x.exec.as_secs() - 10.0).abs() < 1e-9);
        assert_eq!(x.gc_count, 15);
        // The fallback interval is as wide as the estimate itself.
        assert_eq!(x.exec_half_ci, x.exec);
    }

    #[test]
    fn scheduler_extends_only_on_low_recurrence() {
        let cfg = SamplingConfig::default();
        assert_eq!(cfg.extension(0.9), None);
        assert_eq!(cfg.extension(cfg.min_recurrence), None);
        assert_eq!(cfg.extension(0.0), Some(cfg.extend_fraction));
        // An extension narrower than the measure region is never taken.
        let no_room = SamplingConfig {
            extend_fraction: 0.3,
            measure_fraction: 0.35,
            ..cfg
        };
        assert_eq!(no_room.extension(0.0), None);
    }

    #[test]
    fn config_digest_separates_region_placement() {
        use depburst_core::stablehash::StableHasher;
        let digest = |cfg: &SamplingConfig| {
            let mut h = StableHasher::new();
            cfg.hash_into(&mut h);
            h.finish()
        };
        let base = SamplingConfig::default();
        let wider = SamplingConfig {
            measure_fraction: 0.5,
            ..base
        };
        assert_ne!(digest(&base), digest(&wider));
        assert_eq!(digest(&base), digest(&SamplingConfig::default()));
    }

    #[test]
    fn pause_extraction_tolerates_nesting_and_imbalance() {
        let trace = ExecutionTrace {
            base: Freq::from_ghz(1.0),
            start: Time::ZERO,
            total: TimeDelta::from_secs(1.0),
            epochs: vec![],
            markers: vec![
                PhaseMarker::new(Time::from_secs(0.1), PhaseKind::GcStart),
                PhaseMarker::new(Time::from_secs(0.15), PhaseKind::GcStart),
                PhaseMarker::new(Time::from_secs(0.18), PhaseKind::GcEnd),
                PhaseMarker::new(Time::from_secs(0.2), PhaseKind::GcEnd),
                // Dangling start: never closed, never reported.
                PhaseMarker::new(Time::from_secs(0.9), PhaseKind::GcStart),
            ],
        threads: vec![],
        };
        let pauses = gc_pauses(&trace);
        assert_eq!(pauses.len(), 1);
        // The outermost pair wins: start 0.1, duration 0.1.
        assert!((pauses[0].0.since(Time::ZERO).as_secs() - 0.1).abs() < 1e-12);
        assert!((pauses[0].1.as_secs() - 0.1).abs() < 1e-12);
    }
}
