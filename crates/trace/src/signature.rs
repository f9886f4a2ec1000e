//! Epoch signatures and online phase-recurrence detection.
//!
//! The sampled execution tier (see `simx::sampling`) extrapolates a whole
//! run from a simulated prefix. That is only sound when the workload's
//! phase behaviour *recurs*: the mix of compute, memory and
//! synchronization seen early must keep describing the unseen remainder.
//! This module gives the sampler the vocabulary to check that claim
//! online instead of assuming it:
//!
//! * [`EpochSignature`] — one synchronization epoch reduced to a small
//!   vector of scale-free rates over the DVFS counters the predictors
//!   already harvest, plus the GC/mutator phase the epoch fell in;
//! * [`SignatureClusterer`] — deterministic online leader clustering of
//!   those signatures (no RNG, no iteration-order dependence);
//! * [`RecurrenceReport`] — how much of the late trace lands in clusters
//!   that were already established early, i.e. how repetitive the
//!   workload actually measured.

use crate::{EpochRecord, ExecutionTrace, TimeDelta};

/// One epoch reduced to scale-free rates.
///
/// Every component is a dimensionless fraction or a normalized rate, so
/// signatures from long and short epochs are directly comparable and a
/// Euclidean distance between them is meaningful.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EpochSignature {
    /// CRIT (non-scaling critical path) share of active time.
    pub crit_frac: f64,
    /// Memory-stall share of active time.
    pub stall_frac: f64,
    /// Store-queue-full share of active time.
    pub sq_full_frac: f64,
    /// Committed instructions per microsecond of active time.
    pub ipus: f64,
    /// LLC misses per thousand committed instructions.
    pub mpki: f64,
    /// Threads that ran during the epoch (the DEP predictor's epoch
    /// parallelism).
    pub parallelism: f64,
    /// True when the epoch lies inside a stop-the-world collection.
    pub in_gc: bool,
}

impl EpochSignature {
    /// Builds the signature of `epoch`. `in_gc` is the phase
    /// classification of the epoch's midpoint (see
    /// [`ExecutionTrace::phase_windows`]).
    #[must_use]
    pub fn of(epoch: &EpochRecord, in_gc: bool) -> Self {
        let mut counters = crate::DvfsCounters::zero();
        for slice in &epoch.threads {
            counters += slice.counters;
        }
        let active = counters.active.as_secs();
        let frac = |part: TimeDelta| {
            if active > 0.0 {
                (part.as_secs() / active).clamp(0.0, 1.0)
            } else {
                0.0
            }
        };
        let instructions = counters.instructions as f64;
        EpochSignature {
            crit_frac: frac(counters.crit),
            stall_frac: frac(counters.stall),
            sq_full_frac: frac(counters.sq_full),
            ipus: if active > 0.0 {
                instructions / (active * 1e6)
            } else {
                0.0
            },
            mpki: if instructions > 0.0 {
                counters.llc_misses as f64 * 1e3 / instructions
            } else {
                0.0
            },
            parallelism: epoch.active_threads() as f64,
            in_gc,
        }
    }

    /// Squared Euclidean distance to `other` over the normalized
    /// components. GC and mutator epochs are infinitely far apart — a
    /// collector epoch must never absorb a mutator epoch however similar
    /// their counter rates look, because the sampler extrapolates the two
    /// phases separately.
    #[must_use]
    pub fn distance_sq(&self, other: &EpochSignature) -> f64 {
        if self.in_gc != other.in_gc {
            return f64::INFINITY;
        }
        // ipus spans orders of magnitude across frequencies; compare it in
        // a compressed (log1p) scale so it cannot drown the fractions.
        let d_ipus = (self.ipus.ln_1p() - other.ipus.ln_1p()) / 4.0;
        let d_mpki = (self.mpki.ln_1p() - other.mpki.ln_1p()) / 4.0;
        let d_par = (self.parallelism - other.parallelism) / 8.0;
        (self.crit_frac - other.crit_frac).powi(2)
            + (self.stall_frac - other.stall_frac).powi(2)
            + (self.sq_full_frac - other.sq_full_frac).powi(2)
            + d_ipus * d_ipus
            + d_mpki * d_mpki
            + d_par * d_par
    }
}

/// One cluster of an online leader clustering: the running centroid of
/// every signature assigned to it, weighted by epoch duration so a long
/// steady epoch anchors its phase against a swarm of sub-microsecond
/// synchronization epochs.
#[derive(Debug, Clone)]
pub struct SignatureCluster {
    /// Duration-weighted centroid.
    pub centroid: EpochSignature,
    /// Epochs assigned.
    pub members: usize,
    /// Summed duration of the members.
    pub weight: TimeDelta,
    /// The centroid's `Logs`, kept beside it so a distance takes no
    /// `ln_1p` on the centroid's side.
    logs: Logs,
}

/// `ln_1p` of a signature's `ipus` and `mpki`: the compressed scale
/// [`EpochSignature::distance_sq`] compares those two components in.
#[derive(Debug, Clone, Copy)]
struct Logs {
    ipus: f64,
    mpki: f64,
}

impl Logs {
    fn of(sig: &EpochSignature) -> Self {
        Logs {
            ipus: sig.ipus.ln_1p(),
            mpki: sig.mpki.ln_1p(),
        }
    }
}

impl SignatureCluster {
    fn new(sig: &EpochSignature, logs: Logs, duration: TimeDelta) -> Self {
        SignatureCluster {
            centroid: *sig,
            members: 1,
            weight: duration,
            logs,
        }
    }

    /// `sig.distance_sq(&self.centroid)`, bit for bit, from `sig`'s
    /// precomputed logs and the centroid's kept ones.
    #[inline]
    fn distance_sq(&self, sig: &EpochSignature, logs: Logs) -> f64 {
        let c = &self.centroid;
        if sig.in_gc != c.in_gc {
            return f64::INFINITY;
        }
        let d_ipus = (logs.ipus - self.logs.ipus) / 4.0;
        let d_mpki = (logs.mpki - self.logs.mpki) / 4.0;
        let d_par = (sig.parallelism - c.parallelism) / 8.0;
        (sig.crit_frac - c.crit_frac).powi(2)
            + (sig.stall_frac - c.stall_frac).powi(2)
            + (sig.sq_full_frac - c.sq_full_frac).powi(2)
            + d_ipus * d_ipus
            + d_mpki * d_mpki
            + d_par * d_par
    }

    fn absorb(&mut self, sig: &EpochSignature, duration: TimeDelta) {
        let w_old = self.weight.as_secs();
        let w_new = duration.as_secs();
        let total = w_old + w_new;
        if total > 0.0 {
            let lerp = |a: f64, b: f64| (a * w_old + b * w_new) / total;
            self.centroid = EpochSignature {
                crit_frac: lerp(self.centroid.crit_frac, sig.crit_frac),
                stall_frac: lerp(self.centroid.stall_frac, sig.stall_frac),
                sq_full_frac: lerp(self.centroid.sq_full_frac, sig.sq_full_frac),
                ipus: lerp(self.centroid.ipus, sig.ipus),
                mpki: lerp(self.centroid.mpki, sig.mpki),
                parallelism: lerp(self.centroid.parallelism, sig.parallelism),
                in_gc: self.centroid.in_gc,
            };
            self.logs = Logs::of(&self.centroid);
        }
        self.members += 1;
        self.weight += duration;
    }
}

/// Deterministic online leader clustering over epoch signatures.
///
/// The first signature founds cluster 0; each subsequent signature joins
/// the nearest existing cluster when its squared distance to that
/// cluster's centroid is below the threshold, and founds a new cluster
/// otherwise. Processing order is trace order, so the assignment is a
/// pure function of the trace — re-clustering the same trace yields the
/// same clusters bit for bit.
#[derive(Debug, Clone)]
pub struct SignatureClusterer {
    threshold_sq: f64,
    clusters: Vec<SignatureCluster>,
}

impl SignatureClusterer {
    /// A clusterer that merges signatures within `threshold` (Euclidean,
    /// over the normalized signature components).
    #[must_use]
    pub fn new(threshold: f64) -> Self {
        SignatureClusterer {
            threshold_sq: threshold * threshold,
            clusters: Vec::new(),
        }
    }

    /// Assigns `sig` (an epoch of the given `duration`) to a cluster and
    /// returns the cluster index: the first cluster at the strictly
    /// smallest [`EpochSignature::distance_sq`], if within the threshold.
    /// The signature's two logs are taken once here, not once per
    /// cluster.
    pub fn observe(&mut self, sig: &EpochSignature, duration: TimeDelta) -> usize {
        let logs = Logs::of(sig);
        let mut best: Option<(usize, f64)> = None;
        for (i, cluster) in self.clusters.iter().enumerate() {
            let d = cluster.distance_sq(sig, logs);
            if best.is_none_or(|(_, bd)| d < bd) {
                best = Some((i, d));
            }
        }
        if let Some((i, d)) = best {
            if d <= self.threshold_sq {
                self.clusters[i].absorb(sig, duration);
                return i;
            }
        }
        self.clusters.push(SignatureCluster::new(sig, logs, duration));
        self.clusters.len() - 1
    }

    /// The clusters formed so far.
    #[must_use]
    pub fn clusters(&self) -> &[SignatureCluster] {
        &self.clusters
    }
}

/// How repetitive a trace measured: the duration share of its late
/// epochs that fall into clusters already established in the early part.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RecurrenceReport {
    /// Duration-weighted fraction of post-split epochs assigned to a
    /// cluster founded before the split (1.0 = the late trace is made
    /// entirely of phases already seen early).
    pub recurrence: f64,
    /// Total clusters formed over the whole trace.
    pub clusters: usize,
    /// Clusters founded before the split point.
    pub early_clusters: usize,
}

/// Clusters every epoch of `trace` in time order and reports how much of
/// the trace after `split` (a fraction of the traced window, e.g. 0.5)
/// recurs in phases established before it.
///
/// GC/mutator classification comes from the trace's phase markers; an
/// epoch belongs to the phase its midpoint falls in.
#[must_use]
pub fn recurrence(trace: &ExecutionTrace, split: f64, threshold: f64) -> RecurrenceReport {
    let windows = trace.phase_windows();
    let split_at = trace.start + trace.total * split.clamp(0.0, 1.0);
    let mut clusterer = SignatureClusterer::new(threshold);
    let mut early_clusters = 0usize;
    let mut late_total = TimeDelta::ZERO;
    let mut late_recurrent = TimeDelta::ZERO;
    // phase_windows() tiles the trace in time order, as do the epochs, so
    // a single forward cursor classifies every epoch midpoint in O(n).
    let mut w = 0usize;
    for epoch in &trace.epochs {
        let mid = epoch.start + epoch.duration * 0.5;
        while w + 1 < windows.len() && windows[w].end < mid {
            w += 1;
        }
        let in_gc = windows.get(w).is_some_and(|win| win.is_gc);
        let sig = EpochSignature::of(epoch, in_gc);
        let cluster = clusterer.observe(&sig, epoch.duration);
        if epoch.start < split_at {
            early_clusters = early_clusters.max(cluster + 1);
        } else {
            late_total += epoch.duration;
            if cluster < early_clusters {
                late_recurrent += epoch.duration;
            }
        }
    }
    RecurrenceReport {
        recurrence: if late_total > TimeDelta::ZERO {
            late_recurrent.as_secs() / late_total.as_secs()
        } else {
            // No late epochs — vacuously recurrent (nothing unexplained).
            1.0
        },
        clusters: clusterer.clusters().len(),
        early_clusters,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DvfsCounters, EpochEnd, Freq, PhaseKind, PhaseMarker, ThreadId, ThreadSlice, Time};

    fn counters(active_us: f64, crit_share: f64, instr: u64) -> DvfsCounters {
        DvfsCounters {
            active: TimeDelta::from_micros(active_us),
            crit: TimeDelta::from_micros(active_us * crit_share),
            leading_loads: TimeDelta::from_micros(active_us * crit_share),
            stall: TimeDelta::from_micros(active_us * crit_share * 1.2),
            sq_full: TimeDelta::ZERO,
            instructions: instr,
            loads: instr / 4,
            stores: instr / 8,
            llc_misses: instr / 100,
        }
    }

    fn epoch(start_us: f64, dur_us: f64, crit_share: f64) -> EpochRecord {
        EpochRecord {
            start: Time::from_secs(start_us * 1e-6),
            duration: TimeDelta::from_micros(dur_us),
            threads: vec![ThreadSlice {
                thread: ThreadId(1),
                counters: counters(dur_us, crit_share, (dur_us * 1000.0) as u64),
            }],
            end: EpochEnd::QuantumBoundary,
        }
    }

    #[test]
    fn identical_epochs_share_a_cluster() {
        let a = EpochSignature::of(&epoch(0.0, 10.0, 0.3), false);
        let b = EpochSignature::of(&epoch(10.0, 10.0, 0.3), false);
        assert_eq!(a.distance_sq(&b), 0.0);
        let mut c = SignatureClusterer::new(0.1);
        assert_eq!(c.observe(&a, TimeDelta::from_micros(10.0)), 0);
        assert_eq!(c.observe(&b, TimeDelta::from_micros(10.0)), 0);
        assert_eq!(c.clusters().len(), 1);
        assert_eq!(c.clusters()[0].members, 2);
    }

    #[test]
    fn distinct_phases_form_distinct_clusters() {
        let compute = EpochSignature::of(&epoch(0.0, 10.0, 0.02), false);
        let memory = EpochSignature::of(&epoch(10.0, 10.0, 0.85), false);
        assert!(compute.distance_sq(&memory) > 0.25);
        let mut c = SignatureClusterer::new(0.2);
        assert_eq!(c.observe(&compute, TimeDelta::from_micros(10.0)), 0);
        assert_eq!(c.observe(&memory, TimeDelta::from_micros(10.0)), 1);
    }

    #[test]
    fn gc_and_mutator_never_merge() {
        let sig = EpochSignature::of(&epoch(0.0, 10.0, 0.3), false);
        let gc_sig = EpochSignature::of(&epoch(0.0, 10.0, 0.3), true);
        assert_eq!(sig.distance_sq(&gc_sig), f64::INFINITY);
        let mut c = SignatureClusterer::new(1e9); // even an absurd threshold
        assert_eq!(c.observe(&sig, TimeDelta::from_micros(10.0)), 0);
        assert_eq!(c.observe(&gc_sig, TimeDelta::from_micros(10.0)), 1);
    }

    /// The clusterer as it was before the logs were kept: every distance
    /// through [`EpochSignature::distance_sq`].
    fn reference_observe(
        clusters: &mut Vec<(EpochSignature, TimeDelta)>,
        threshold_sq: f64,
        sig: &EpochSignature,
        duration: TimeDelta,
    ) -> usize {
        let mut best: Option<(usize, f64)> = None;
        for (i, (centroid, _)) in clusters.iter().enumerate() {
            let d = sig.distance_sq(centroid);
            if best.is_none_or(|(_, bd)| d < bd) {
                best = Some((i, d));
            }
        }
        if let Some((i, d)) = best {
            if d <= threshold_sq {
                let (centroid, weight) = &mut clusters[i];
                let mut cluster = SignatureCluster::new(centroid, Logs::of(centroid), *weight);
                cluster.absorb(sig, duration);
                (*centroid, *weight) = (cluster.centroid, cluster.weight);
                return i;
            }
        }
        clusters.push((*sig, duration));
        clusters.len() - 1
    }

    fn bits(s: &EpochSignature) -> [u64; 7] {
        [
            s.crit_frac.to_bits(),
            s.stall_frac.to_bits(),
            s.sq_full_frac.to_bits(),
            s.ipus.to_bits(),
            s.mpki.to_bits(),
            s.parallelism.to_bits(),
            u64::from(s.in_gc),
        ]
    }

    #[test]
    fn kept_logs_cluster_exactly_like_distance_sq() {
        // A seeded stream mixing GC and mutator epochs, zero-activity
        // signatures, repeats (distance ties), extreme and non-finite
        // rates, and zero-duration epochs (no centroid move).
        let mut state = 0x9e37_79b9_7f4a_7c15_u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let rates = [
            0.0,
            1e-300,
            f64::MIN_POSITIVE,
            0.5,
            3.0,
            1e3,
            1e12,
            1e300,
            f64::MAX,
            f64::INFINITY,
            f64::NAN,
        ];
        for (seed, threshold) in [(1u64, 0.05), (2, 0.2), (3, 1.0), (4, 0.0), (5, 1e9)] {
            for _ in 0..seed {
                next();
            }
            let mut pool = Vec::new();
            let mut c = SignatureClusterer::new(threshold);
            let mut reference = Vec::new();
            for _ in 0..3000 {
                let r = next();
                let frac = |shift: u32| ((r >> shift) & 0xff) as f64 / 255.0;
                let sig = if r % 7 == 0 && !pool.is_empty() {
                    pool[(r >> 8) as usize % pool.len()]
                } else if r % 11 == 0 {
                    EpochSignature::of(
                        &EpochRecord {
                            start: Time::ZERO,
                            duration: TimeDelta::from_micros(1.0),
                            threads: vec![],
                            end: EpochEnd::QuantumBoundary,
                        },
                        r % 2 == 0,
                    )
                } else {
                    EpochSignature {
                        crit_frac: frac(8),
                        stall_frac: frac(16),
                        sq_full_frac: frac(24) * 0.1,
                        ipus: if r % 5 == 0 {
                            rates[(r >> 32) as usize % rates.len()]
                        } else {
                            frac(32) * 4e3
                        },
                        mpki: if r % 3 == 0 {
                            rates[(r >> 40) as usize % rates.len()]
                        } else {
                            frac(40) * 50.0
                        },
                        parallelism: ((r >> 48) % 9) as f64,
                        in_gc: (r >> 56) % 4 == 0,
                    }
                };
                pool.push(sig);
                let duration = TimeDelta::from_micros(((r >> 20) % 50) as f64);
                let got = c.observe(&sig, duration);
                let want = reference_observe(&mut reference, threshold * threshold, &sig, duration);
                assert_eq!(got, want, "seed {seed}: assignment of {sig:?}");
            }
            assert_eq!(c.clusters().len(), reference.len(), "seed {seed}");
            for (cluster, (centroid, weight)) in c.clusters().iter().zip(&reference) {
                assert_eq!(bits(&cluster.centroid), bits(centroid), "seed {seed}");
                assert_eq!(cluster.weight.as_secs().to_bits(), weight.as_secs().to_bits());
                let logs = Logs::of(&cluster.centroid);
                assert_eq!(cluster.logs.ipus.to_bits(), logs.ipus.to_bits());
                assert_eq!(cluster.logs.mpki.to_bits(), logs.mpki.to_bits());
            }
        }
    }

    #[test]
    fn zero_activity_epochs_are_finite() {
        let idle = EpochRecord {
            start: Time::ZERO,
            duration: TimeDelta::from_micros(5.0),
            threads: vec![],
            end: EpochEnd::QuantumBoundary,
        };
        let sig = EpochSignature::of(&idle, false);
        assert_eq!(sig.crit_frac, 0.0);
        assert_eq!(sig.ipus, 0.0);
        assert_eq!(sig.mpki, 0.0);
        assert!(sig.distance_sq(&sig).is_finite());
    }

    fn trace_of(epochs: Vec<EpochRecord>, markers: Vec<PhaseMarker>) -> ExecutionTrace {
        let total = epochs
            .iter()
            .map(|e| e.duration)
            .fold(TimeDelta::ZERO, |a, b| a + b);
        ExecutionTrace {
            base: Freq::from_ghz(1.0),
            start: Time::ZERO,
            total,
            epochs,
            markers,
            threads: vec![],
        }
    }

    #[test]
    fn repetitive_trace_scores_full_recurrence() {
        // Alternating compute/memory phases, repeated well past the split.
        let mut epochs = Vec::new();
        for i in 0..20 {
            let share = if i % 2 == 0 { 0.05 } else { 0.8 };
            epochs.push(epoch(i as f64 * 10.0, 10.0, share));
        }
        let report = recurrence(&trace_of(epochs, vec![]), 0.5, 0.2);
        assert_eq!(report.clusters, 2);
        assert_eq!(report.early_clusters, 2);
        assert!((report.recurrence - 1.0).abs() < 1e-12);
    }

    #[test]
    fn novel_late_phase_lowers_recurrence() {
        let mut epochs = Vec::new();
        for i in 0..10 {
            epochs.push(epoch(i as f64 * 10.0, 10.0, 0.05));
        }
        // Entirely new behaviour after the split.
        for i in 10..20 {
            epochs.push(epoch(i as f64 * 10.0, 10.0, 0.9));
        }
        let report = recurrence(&trace_of(epochs, vec![]), 0.5, 0.1);
        assert!(report.clusters >= 2);
        assert!(
            report.recurrence < 0.1,
            "novel late phase must not count as recurrent: {}",
            report.recurrence
        );
    }

    #[test]
    fn gc_windows_classify_epochs_by_midpoint() {
        // Epoch 1 of 3 sits inside a GC window; its signature must be
        // clustered apart from the mutator epochs around it.
        let epochs = vec![
            epoch(0.0, 10.0, 0.3),
            epoch(10.0, 10.0, 0.3),
            epoch(20.0, 10.0, 0.3),
        ];
        let markers = vec![
            PhaseMarker {
                time: Time::from_secs(10e-6),
                kind: PhaseKind::GcStart,
            },
            PhaseMarker {
                time: Time::from_secs(20e-6),
                kind: PhaseKind::GcEnd,
            },
        ];
        let report = recurrence(&trace_of(epochs, markers), 0.9, 0.2);
        assert_eq!(report.clusters, 2, "one mutator + one GC cluster");
    }

    #[test]
    fn empty_trace_is_vacuously_recurrent() {
        let report = recurrence(&trace_of(vec![], vec![]), 0.5, 0.2);
        assert_eq!(report.recurrence, 1.0);
        assert_eq!(report.clusters, 0);
    }
}
