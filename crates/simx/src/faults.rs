//! Deterministic fault injection between the machine and its observers.
//!
//! The DEP+BURST energy manager (paper §VI-A) trusts its per-quantum
//! counter harvests and frequency transitions unconditionally. On real
//! hardware, counters are noisy, sampled late, saturate, or go missing,
//! and DVFS transitions take time and can be denied by the voltage
//! regulator. This module injects those failure modes — deterministically,
//! from a seed — so experiments can measure how gracefully the predictors
//! and the hardened manager degrade.
//!
//! Fault classes ([`FaultClass`]):
//!
//! * **CounterNoise** — multiplicative jitter on the four DVFS time
//!   counters (CRIT, leading loads, stall, store-queue-full) of every
//!   harvested thread slice;
//! * **CounterDropout** — an entire harvest returns
//!   [`DvfsCounters::zero`] for every slice (the kernel module missed the
//!   quantum);
//! * **CounterSaturation** — time counters pin at a fraction of full
//!   scale, as when a narrow hardware counter saturates;
//! * **DelayedHarvest** — the observer receives the *previous* quantum's
//!   segment instead of the fresh one (late sampling);
//! * **TransitionLatency** — the DVFS transition stall is stretched by a
//!   random factor;
//! * **TransitionDenied** — `set_frequency` fails outright;
//! * **DramJitter** — DRAM read latency is perturbed, changing the ground
//!   truth the predictors must track (wired in [`crate::mem::Dram`]).
//!
//! All randomness comes from per-class SplitMix64 streams derived from one
//! seed, so each class's behaviour is reproducible and independent of the
//! intensities chosen for the other classes. A class at zero intensity
//! consumes no random numbers and leaves the machine bit-identical to an
//! un-instrumented run.
//!
//! Fleet-level chaos (crashes, partitions, brownouts, ...) is not a fault
//! class: [`crate::fleet::ChaosConfig`] configures it and
//! [`crate::fleet::ChaosSchedule`] draws it.

use depburst_core::stablehash::SplitMix64;
use dvfs_trace::{DvfsCounters, ExecutionTrace, TimeDelta};

/// The injectable fault classes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultClass {
    /// Multiplicative jitter on harvested DVFS time counters.
    CounterNoise,
    /// A whole harvest loses its counters.
    CounterDropout,
    /// Time counters pin at a fraction of full scale.
    CounterSaturation,
    /// The observer receives the previous segment instead of the fresh one.
    DelayedHarvest,
    /// DVFS transition stalls stretch by a random factor.
    TransitionLatency,
    /// `set_frequency` is denied.
    TransitionDenied,
    /// DRAM read latency is perturbed (changes ground truth).
    DramJitter,
    /// The point evaluation itself panics (at most once per machine, with
    /// configurable probability) — exercises the harness's panic-isolation
    /// and retry paths end to end. Deliberately **not** in
    /// [`ALL`](Self::ALL): the default fault sweeps measure predictor
    /// degradation, and a panicking cell produces no row to measure.
    PanicPoint,
}

impl FaultClass {
    /// Every *measurable* fault class, for sweeps. Excludes
    /// [`PanicPoint`](FaultClass::PanicPoint), which kills the run instead
    /// of degrading it (opt in via the faults binary's `--panic-point`).
    pub const ALL: [FaultClass; 7] = [
        FaultClass::CounterNoise,
        FaultClass::CounterDropout,
        FaultClass::CounterSaturation,
        FaultClass::DelayedHarvest,
        FaultClass::TransitionLatency,
        FaultClass::TransitionDenied,
        FaultClass::DramJitter,
    ];

    /// Parses a [`name`](Self::name) back to its class (`None` for
    /// unknown names). Round-trips every class, including
    /// [`PanicPoint`](FaultClass::PanicPoint).
    #[must_use]
    pub fn from_name(name: &str) -> Option<FaultClass> {
        FaultClass::ALL
            .into_iter()
            .chain([FaultClass::PanicPoint])
            .find(|c| c.name() == name)
    }

    /// A short stable name (used in reports and JSON).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            FaultClass::CounterNoise => "counter-noise",
            FaultClass::CounterDropout => "counter-dropout",
            FaultClass::CounterSaturation => "counter-saturation",
            FaultClass::DelayedHarvest => "delayed-harvest",
            FaultClass::TransitionLatency => "transition-latency",
            FaultClass::TransitionDenied => "transition-denied",
            FaultClass::DramJitter => "dram-jitter",
            FaultClass::PanicPoint => "panic-point",
        }
    }
}

impl std::fmt::Display for FaultClass {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Per-class fault intensities (each in `[0, 1]`; zero disables the class)
/// plus the seed every stream derives from.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultConfig {
    /// Seed for all per-class random streams.
    pub seed: u64,
    /// Relative jitter amplitude on harvested time counters.
    pub counter_noise: f64,
    /// Probability that a harvest loses all its counters.
    pub counter_dropout: f64,
    /// How far the saturation ceiling drops below full scale.
    pub counter_saturation: f64,
    /// Probability that a harvest delivers the previous segment.
    pub delayed_harvest: f64,
    /// How much DVFS transition stalls stretch (1.0 ≈ 50× the nominal).
    pub transition_latency: f64,
    /// Probability that a frequency change is denied.
    pub transition_denied: f64,
    /// Relative jitter amplitude on DRAM read latency.
    pub dram_jitter: f64,
    /// Probability that the point evaluation panics (drawn once per
    /// machine, at the start of its first `run_until`).
    pub point_panic: f64,
}

impl FaultConfig {
    /// An inert configuration: every class disabled.
    #[must_use]
    pub fn none(seed: u64) -> Self {
        FaultConfig {
            seed,
            counter_noise: 0.0,
            counter_dropout: 0.0,
            counter_saturation: 0.0,
            delayed_harvest: 0.0,
            transition_latency: 0.0,
            transition_denied: 0.0,
            dram_jitter: 0.0,
            point_panic: 0.0,
        }
    }

    /// One class at the given intensity, everything else disabled.
    #[must_use]
    pub fn single(class: FaultClass, intensity: f64, seed: u64) -> Self {
        let mut config = FaultConfig::none(seed);
        let slot = match class {
            FaultClass::CounterNoise => &mut config.counter_noise,
            FaultClass::CounterDropout => &mut config.counter_dropout,
            FaultClass::CounterSaturation => &mut config.counter_saturation,
            FaultClass::DelayedHarvest => &mut config.delayed_harvest,
            FaultClass::TransitionLatency => &mut config.transition_latency,
            FaultClass::TransitionDenied => &mut config.transition_denied,
            FaultClass::DramJitter => &mut config.dram_jitter,
            FaultClass::PanicPoint => &mut config.point_panic,
        };
        *slot = intensity.clamp(0.0, 1.0);
        config
    }

    /// Folds every field into `h` in declaration order, for the simulation
    /// memo cache key. An inert config hashes identically regardless of its
    /// seed: a disabled injector consumes no randomness, so the run result
    /// does not depend on the seed and conflating them buys extra hits.
    pub fn hash_into(&self, h: &mut depburst_core::stablehash::StableHasher) {
        h.write_tag("simx::FaultConfig");
        if self.is_inert() {
            h.write_bool(false);
            return;
        }
        h.write_bool(true);
        h.write_u64(self.seed);
        h.write_f64(self.counter_noise);
        h.write_f64(self.counter_dropout);
        h.write_f64(self.counter_saturation);
        h.write_f64(self.delayed_harvest);
        h.write_f64(self.transition_latency);
        h.write_f64(self.transition_denied);
        h.write_f64(self.dram_jitter);
        // Appended last (and only on the non-inert branch) so keys of
        // pre-existing configs are unchanged by the field's introduction.
        h.write_f64(self.point_panic);
    }

    /// True if every class is disabled (installing the injector changes
    /// nothing).
    #[must_use]
    pub fn is_inert(&self) -> bool {
        self.counter_noise <= 0.0
            && self.counter_dropout <= 0.0
            && self.counter_saturation <= 0.0
            && self.delayed_harvest <= 0.0
            && self.transition_latency <= 0.0
            && self.transition_denied <= 0.0
            && self.dram_jitter <= 0.0
            && self.point_panic <= 0.0
    }
}

/// Salts separating the per-class streams derived from one seed.
const NOISE_SALT: u64 = 0x006E_6F69_7365;
const DROPOUT_SALT: u64 = 0x6472_6F70;
const HARVEST_SALT: u64 = 0x6861_7276;
const LATENCY_SALT: u64 = 0x6C61_7465;
const DENIED_SALT: u64 = 0x6465_6E79;
const PANIC_SALT: u64 = 0x7061_6E69;
/// Salt for the DRAM jitter stream (the [`crate::mem::Dram`] device owns
/// its own stream so the hot read path never borrows the injector).
pub(crate) const DRAM_SALT: u64 = 0x6472_616D;

/// The runtime fault injector a [`crate::Machine`] consults.
#[derive(Debug, Clone)]
pub struct FaultInjector {
    config: FaultConfig,
    noise: SplitMix64,
    dropout: SplitMix64,
    harvest: SplitMix64,
    latency: SplitMix64,
    denied: SplitMix64,
    panic_point: SplitMix64,
    /// Whether the once-per-machine panic draw has been made.
    panic_decided: bool,
    /// The segment held back by a fired delayed-harvest fault.
    pending: Option<ExecutionTrace>,
}

impl FaultInjector {
    /// Builds the injector from a configuration.
    #[must_use]
    pub fn new(config: FaultConfig) -> Self {
        FaultInjector {
            noise: SplitMix64::new(config.seed ^ NOISE_SALT),
            dropout: SplitMix64::new(config.seed ^ DROPOUT_SALT),
            harvest: SplitMix64::new(config.seed ^ HARVEST_SALT),
            latency: SplitMix64::new(config.seed ^ LATENCY_SALT),
            denied: SplitMix64::new(config.seed ^ DENIED_SALT),
            panic_point: SplitMix64::new(config.seed ^ PANIC_SALT),
            panic_decided: false,
            pending: None,
            config,
        }
    }

    /// The configuration in force.
    #[must_use]
    pub fn config(&self) -> &FaultConfig {
        &self.config
    }

    /// Filters one harvested trace segment on its way to the observer,
    /// applying dropout, noise, saturation, and delayed delivery.
    pub fn filter_harvest(&mut self, mut trace: ExecutionTrace) -> ExecutionTrace {
        if self.dropout.chance(self.config.counter_dropout) {
            for epoch in &mut trace.epochs {
                for slice in &mut epoch.threads {
                    slice.counters = DvfsCounters::zero();
                }
            }
            return self.deliver(trace);
        }
        if self.config.counter_noise > 0.0 || self.config.counter_saturation > 0.0 {
            for epoch in &mut trace.epochs {
                let cap = epoch.duration * (1.0 - self.config.counter_saturation);
                for slice in &mut epoch.threads {
                    if self.config.counter_noise > 0.0 {
                        slice.counters = self.jitter(slice.counters);
                    }
                    if self.config.counter_saturation > 0.0 {
                        slice.counters = saturate(slice.counters, cap);
                    }
                }
            }
        }
        self.deliver(trace)
    }

    /// Multiplicative jitter on the four DVFS time counters. `active` and
    /// the event counts are left honest: on real hardware the noisy
    /// counters are the estimation algorithms' accumulators, not the
    /// scheduler clock.
    fn jitter(&mut self, c: DvfsCounters) -> DvfsCounters {
        let amplitude = self.config.counter_noise;
        let mut wobble = |t: TimeDelta| {
            (t * (1.0 + amplitude * self.noise.next_signed())).clamp_non_negative()
        };
        DvfsCounters {
            crit: wobble(c.crit),
            leading_loads: wobble(c.leading_loads),
            stall: wobble(c.stall),
            sq_full: wobble(c.sq_full),
            ..c
        }
    }

    /// Applies delayed-harvest delivery: when the fault fires, the fresh
    /// segment is held back and the observer receives the previously held
    /// segment (or an empty window on the first firing); a held segment
    /// that is not delivered by the next firing is discarded — it was
    /// sampled too late to be useful.
    fn deliver(&mut self, fresh: ExecutionTrace) -> ExecutionTrace {
        if self.harvest.chance(self.config.delayed_harvest) {
            let stale = self.pending.take().unwrap_or_else(|| ExecutionTrace {
                base: fresh.base,
                start: fresh.start,
                total: fresh.total,
                epochs: Vec::new(),
                markers: Vec::new(),
                threads: fresh.threads.clone(),
            });
            self.pending = Some(fresh);
            stale
        } else {
            self.pending = None;
            fresh
        }
    }

    /// The (possibly stretched) DVFS transition stall. Drawn once per
    /// `set_frequency` call, not per core.
    #[must_use]
    pub fn transition_stall(&mut self, nominal: TimeDelta) -> TimeDelta {
        if self.config.transition_latency <= 0.0 {
            return nominal;
        }
        // Intensity 1.0 stretches the 2 µs nominal stall up to ~100 µs,
        // the order of measured worst-case voltage-regulator settling.
        let stretch = 1.0 + self.config.transition_latency * 50.0 * self.latency.next_f64();
        nominal * stretch
    }

    /// True if this frequency change is denied.
    pub fn transition_denied(&mut self) -> bool {
        self.denied.chance(self.config.transition_denied)
    }

    /// The seeded panic-point fault: draws once per injector lifetime (the
    /// machine calls this at the start of its first `run_until`) and, when
    /// the draw fires, panics — simulating a point evaluation that dies
    /// mid-sweep. Deterministic for a fixed seed; consumes no randomness
    /// at zero intensity.
    ///
    /// # Panics
    /// By design, with probability `point_panic` on the first call.
    pub fn maybe_panic_point(&mut self) {
        if self.panic_decided || self.config.point_panic <= 0.0 {
            return;
        }
        self.panic_decided = true;
        if self.panic_point.chance(self.config.point_panic) {
            panic!(
                "injected panic-point fault (intensity {}, seed {})",
                self.config.point_panic, self.config.seed
            );
        }
    }
}

/// Derives the fault seed for retry `attempt` of a point whose first
/// attempt used `seed`. Attempt 0 is the identity, so retry-aware callers
/// are bit-compatible with pre-retry ones; later attempts step the seed by
/// the SplitMix64 increment, giving transient (probabilistic) faults an
/// independent, reproducible draw per attempt while keeping the schedule
/// a pure function of `(seed, attempt)`.
#[must_use]
pub fn retry_seed(seed: u64, attempt: u32) -> u64 {
    seed.wrapping_add(u64::from(attempt).wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// Pins every DVFS time counter at `cap` — the saturation ceiling a narrow
/// hardware counter register imposes. `active` (the scheduler clock) and
/// the wide event counts are unaffected.
fn saturate(c: DvfsCounters, cap: TimeDelta) -> DvfsCounters {
    let cap = cap.clamp_non_negative();
    let pin = |t: TimeDelta| if t > cap { cap } else { t };
    DvfsCounters {
        crit: pin(c.crit),
        leading_loads: pin(c.leading_loads),
        stall: pin(c.stall),
        sq_full: pin(c.sq_full),
        ..c
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dvfs_trace::{
        EpochEnd, EpochRecord, Freq, ThreadId, ThreadInfo, ThreadRole, ThreadSlice, Time,
    };

    fn sample_trace() -> ExecutionTrace {
        let counters = |active_us: f64| DvfsCounters {
            active: TimeDelta::from_micros(active_us),
            crit: TimeDelta::from_micros(active_us * 0.4),
            leading_loads: TimeDelta::from_micros(active_us * 0.3),
            stall: TimeDelta::from_micros(active_us * 0.2),
            sq_full: TimeDelta::from_micros(active_us * 0.1),
            instructions: (active_us * 1000.0) as u64,
            loads: (active_us * 300.0) as u64,
            stores: (active_us * 100.0) as u64,
            llc_misses: (active_us * 10.0) as u64,
        };
        ExecutionTrace {
            base: Freq::from_ghz(2.0),
            start: Time::ZERO,
            total: TimeDelta::from_micros(100.0),
            epochs: vec![EpochRecord {
                start: Time::ZERO,
                duration: TimeDelta::from_micros(100.0),
                threads: vec![
                    ThreadSlice {
                        thread: ThreadId(0),
                        counters: counters(90.0),
                    },
                    ThreadSlice {
                        thread: ThreadId(1),
                        counters: counters(60.0),
                    },
                ],
                end: EpochEnd::TraceEnd,
            }],
            markers: vec![],
            threads: vec![ThreadInfo {
                id: ThreadId(0),
                role: ThreadRole::Application,
                name: "t0".into(),
                spawn: Time::ZERO,
                exit: None,
            }],
        }
    }

    #[test]
    fn inert_config_is_an_identity_filter() {
        let mut inj = FaultInjector::new(FaultConfig::none(7));
        assert!(inj.config().is_inert());
        let trace = sample_trace();
        let filtered = inj.filter_harvest(trace.clone());
        assert_eq!(filtered, trace);
        assert_eq!(
            inj.transition_stall(TimeDelta::from_micros(2.0)),
            TimeDelta::from_micros(2.0)
        );
        assert!(!inj.transition_denied());
    }

    #[test]
    fn each_class_is_deterministic_under_a_fixed_seed() {
        for class in FaultClass::ALL {
            let config = FaultConfig::single(class, 0.5, 42);
            let mut a = FaultInjector::new(config);
            let mut b = FaultInjector::new(config);
            for _ in 0..16 {
                assert_eq!(
                    a.filter_harvest(sample_trace()),
                    b.filter_harvest(sample_trace()),
                    "{class} harvest filtering must be seed-deterministic"
                );
                assert_eq!(
                    a.transition_stall(TimeDelta::from_micros(2.0)),
                    b.transition_stall(TimeDelta::from_micros(2.0)),
                    "{class} transition stalls must be seed-deterministic"
                );
                assert_eq!(a.transition_denied(), b.transition_denied());
            }
        }
    }

    #[test]
    fn noise_perturbs_only_time_counters_and_depends_on_seed() {
        let config = FaultConfig::single(FaultClass::CounterNoise, 0.5, 1);
        let mut inj = FaultInjector::new(config);
        let trace = sample_trace();
        let noisy = inj.filter_harvest(trace.clone());
        let before = trace.epochs[0].threads[0].counters;
        let after = noisy.epochs[0].threads[0].counters;
        assert_ne!(before.crit, after.crit);
        assert_eq!(before.active, after.active);
        assert_eq!(before.instructions, after.instructions);
        assert!(!after.crit.is_negative());

        let mut other = FaultInjector::new(FaultConfig::single(FaultClass::CounterNoise, 0.5, 2));
        let diverged = other.filter_harvest(trace);
        assert_ne!(diverged.epochs[0].threads[0].counters.crit, after.crit);
    }

    #[test]
    fn dropout_at_full_intensity_zeroes_every_slice() {
        let mut inj = FaultInjector::new(FaultConfig::single(FaultClass::CounterDropout, 1.0, 3));
        let dropped = inj.filter_harvest(sample_trace());
        for epoch in &dropped.epochs {
            for slice in &epoch.threads {
                assert_eq!(slice.counters, DvfsCounters::zero());
            }
        }
        // Window structure survives; only the counters vanish.
        assert_eq!(dropped.total, sample_trace().total);
    }

    #[test]
    fn saturation_pins_time_counters_at_the_ceiling() {
        let mut inj =
            FaultInjector::new(FaultConfig::single(FaultClass::CounterSaturation, 0.8, 4));
        let trace = sample_trace();
        let cap = trace.epochs[0].duration * 0.2;
        let pinned = inj.filter_harvest(trace);
        let c = pinned.epochs[0].threads[0].counters;
        assert!(c.crit <= cap + TimeDelta::from_nanos(1.0));
        assert!(c.leading_loads <= cap + TimeDelta::from_nanos(1.0));
        // Zero intensity leaves counters alone (cap = full scale).
        let mut inert =
            FaultInjector::new(FaultConfig::single(FaultClass::CounterSaturation, 0.0, 4));
        let same = inert.filter_harvest(sample_trace());
        assert_eq!(same, sample_trace());
    }

    #[test]
    fn delayed_harvest_replays_the_previous_segment() {
        let mut inj = FaultInjector::new(FaultConfig::single(FaultClass::DelayedHarvest, 1.0, 5));
        let first = inj.filter_harvest(sample_trace());
        // First firing: the observer gets an empty window.
        assert!(first.epochs.is_empty());
        assert_eq!(first.total, sample_trace().total);
        // Second firing: the held-back first segment arrives late.
        let second = inj.filter_harvest(sample_trace());
        assert_eq!(second, sample_trace());
    }

    #[test]
    fn transition_faults_fire_at_full_intensity() {
        let mut inj =
            FaultInjector::new(FaultConfig::single(FaultClass::TransitionLatency, 1.0, 6));
        let nominal = TimeDelta::from_micros(2.0);
        let stretched = inj.transition_stall(nominal);
        assert!(stretched >= nominal);
        let mut denier =
            FaultInjector::new(FaultConfig::single(FaultClass::TransitionDenied, 1.0, 6));
        assert!(denier.transition_denied());
    }

    #[test]
    fn panic_point_is_seeded_and_fires_at_most_once() {
        // Certain panic at full intensity.
        let mut hot = FaultInjector::new(FaultConfig::single(FaultClass::PanicPoint, 1.0, 11));
        let blown = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            hot.maybe_panic_point();
        }));
        assert!(blown.is_err(), "intensity 1.0 must panic on the first draw");

        // Zero intensity never panics and consumes no randomness.
        let mut cold = FaultInjector::new(FaultConfig::single(FaultClass::PanicPoint, 0.0, 11));
        cold.maybe_panic_point();
        assert!(cold.config().is_inert());

        // Fractional intensity: deterministic per seed, decided once.
        let outcome = |seed: u64| {
            let mut inj = FaultInjector::new(FaultConfig::single(FaultClass::PanicPoint, 0.5, seed));
            let first = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                inj.maybe_panic_point();
            }))
            .is_err();
            // The draw is made; later calls are no-ops even for panicking seeds.
            inj.maybe_panic_point();
            first
        };
        let survivors: Vec<u64> = (0..32).filter(|&s| !outcome(s)).collect();
        assert!(!survivors.is_empty() && survivors.len() < 32, "p=0.5 must split seeds");
        for &s in survivors.iter().take(4) {
            assert!(!outcome(s), "same seed, same draw");
        }
    }

    /// Every class round-trips through its name, and every class has a
    /// machine-local slot: a full-intensity `single` config is live.
    #[test]
    fn class_names_round_trip() {
        for class in FaultClass::ALL.into_iter().chain([FaultClass::PanicPoint]) {
            assert_eq!(FaultClass::from_name(class.name()), Some(class));
            assert!(!FaultConfig::single(class, 1.0, 7).is_inert(), "{class} is injectable");
        }
        assert_eq!(FaultClass::from_name("no-such-fault"), None);
    }

    /// `ALL` is pinned to exactly the seven measurable names, order
    /// included: the faults sweep's row order and every golden depend on
    /// it.
    #[test]
    fn all_pins_the_seven_sweep_classes_in_order() {
        let names: Vec<&str> = FaultClass::ALL.iter().map(|c| c.name()).collect();
        assert_eq!(
            names,
            [
                "counter-noise",
                "counter-dropout",
                "counter-saturation",
                "delayed-harvest",
                "transition-latency",
                "transition-denied",
                "dram-jitter",
            ],
            "FaultClass::ALL must stay byte-for-byte the committed sweep set"
        );
    }

    #[test]
    fn panic_point_stays_out_of_the_default_sweep() {
        assert!(!FaultClass::ALL.contains(&FaultClass::PanicPoint));
        assert_eq!(FaultClass::PanicPoint.name(), "panic-point");
        // A panic-point config is not inert (it must not collapse to the
        // fault-free cache key), and the field reaches hash_into.
        let config = FaultConfig::single(FaultClass::PanicPoint, 0.7, 1);
        assert!(!config.is_inert());
        let digest = |c: &FaultConfig| {
            let mut h = depburst_core::stablehash::StableHasher::new();
            c.hash_into(&mut h);
            h.finish()
        };
        assert_ne!(digest(&config), digest(&FaultConfig::none(1)));
        assert_ne!(
            digest(&config),
            digest(&FaultConfig::single(FaultClass::PanicPoint, 0.3, 1))
        );
    }

    #[test]
    fn retry_seeds_step_deterministically_from_the_base() {
        assert_eq!(retry_seed(42, 0), 42, "attempt 0 is the identity");
        let series: Vec<u64> = (0..5).map(|a| retry_seed(42, a)).collect();
        let again: Vec<u64> = (0..5).map(|a| retry_seed(42, a)).collect();
        assert_eq!(series, again);
        for window in series.windows(2) {
            assert_ne!(window[0], window[1], "attempts draw distinct seeds");
        }
    }

    #[test]
    fn splitmix_streams_are_reproducible() {
        let mut a = SplitMix64::new(99);
        let mut b = SplitMix64::new(99);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let f = SplitMix64::new(1).next_f64();
        assert!((0.0..1.0).contains(&f));
        let s = SplitMix64::new(1).next_signed();
        assert!((-1.0..1.0).contains(&s));
    }
}
