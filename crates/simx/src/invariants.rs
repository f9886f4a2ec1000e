//! Sanitizer-style runtime invariant monitor.
//!
//! The DEP+BURST method rests on counters that must stay self-consistent:
//! a CRIT estimate silently exceeding elapsed cycles or a GC pause that is
//! not conserved across the stop-the-world handoff corrupts every
//! downstream figure without failing a single functional test. This module
//! provides an always-available, zero-cost-when-off [`Monitor`] that the
//! machine (and, through it, the managed runtime and the energy manager)
//! consults at well-defined checkpoints.
//!
//! Every check is a named [`Invariant`] with a tier: `cheap` checks are
//! O(1)-per-harvest accounting identities, `full` adds walks over the
//! cache hierarchy, store queues and predictor outputs. The active tier
//! comes from the `DEPBURST_INVARIANTS` environment variable
//! (`off|cheap|full`, default `off`) or programmatically via
//! [`Monitor::new`]; individual checks can be suppressed with a
//! comma-separated `DEPBURST_INVARIANTS_SKIP` list of invariant names.
//!
//! Violations are recorded (bounded) rather than panicking, and surface as
//! `DepburstError::InvariantViolation` at run boundaries so the harness's
//! failure-report machinery can quarantine and report them. A test-only
//! *sabotage* hook deliberately weakens one named check so CI can prove
//! the monitor catches and the fuzzer shrinks a real violation.

use core::fmt;

use dvfs_trace::{ExecutionTrace, PhaseKind, TimeDelta};

/// How deep the invariant monitor checks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub enum InvariantMode {
    /// No checks at all; the monitored code paths are byte-identical to an
    /// un-instrumented build (a handful of always-false branches).
    #[default]
    Off,
    /// O(1)-per-harvest accounting identities: event-time monotonicity,
    /// counter conservation, GC pause accounting, ladder membership, V/f
    /// monotonicity.
    Cheap,
    /// Everything in `cheap` plus cache-hierarchy walks, store-queue
    /// occupancy, and predictor-output bound checks.
    Full,
}

impl InvariantMode {
    /// Parses `off` / `cheap` / `full` (ASCII case-insensitive).
    #[must_use]
    pub fn parse(s: &str) -> Option<Self> {
        match s.trim().to_ascii_lowercase().as_str() {
            "off" | "0" | "" => Some(InvariantMode::Off),
            "cheap" => Some(InvariantMode::Cheap),
            "full" | "1" => Some(InvariantMode::Full),
            _ => None,
        }
    }

    /// The mode the `DEPBURST_INVARIANTS` environment variable selects
    /// (default [`InvariantMode::Off`]; unparsable values are `Off` too, so
    /// a typo can never slow a production sweep down).
    #[must_use]
    pub fn from_env() -> Self {
        match std::env::var("DEPBURST_INVARIANTS") {
            Ok(v) => Self::parse(&v).unwrap_or(InvariantMode::Off),
            Err(_) => InvariantMode::Off,
        }
    }

    /// The canonical knob spelling of this mode.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            InvariantMode::Off => "off",
            InvariantMode::Cheap => "cheap",
            InvariantMode::Full => "full",
        }
    }
}

impl fmt::Display for InvariantMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// The catalog of named, individually toggleable invariants.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Invariant {
    /// The event queue never pops a timestamp earlier than the previous
    /// one (simulated time only moves forward).
    EventMonotonicity,
    /// Per epoch and per thread slice, each non-scaling component estimate
    /// (CRIT, leading loads, stall, store-queue-full) stays within the
    /// slice's active time plus a small epoch-granularity tolerance, and
    /// the trace's structural identities (`ExecutionTrace::validate`)
    /// hold: epochs tile the window, deltas are non-negative.
    CounterConservation,
    /// Per cache, hits + misses equals accesses and the resident line
    /// count never exceeds capacity (the hierarchy is non-inclusive by
    /// design, so no inclusion check applies).
    CacheSanity,
    /// Each store queue's fluid occupancy level stays within its
    /// configured capacity.
    StoreQueueOccupancy,
    /// GC pause accounting is conserved across the mutator/collector
    /// handoff: collections begin only with the world stopped, stop
    /// counts never exceed the mutator population, and every GcStart
    /// marker is balanced by a GcEnd.
    GcPauseAccounting,
    /// DVFS transitions land only on frequencies of the active ladder.
    LadderMembership,
    /// The V/f curve assigns finite, positive, monotone non-decreasing
    /// voltages along the ladder.
    VfMonotonicity,
    /// Metamorphic: total non-scaling time is invariant under frequency
    /// change (fuzzer-driven, compares two runs of the same seed).
    MetamorphicNonScaling,
    /// Metamorphic: total execution time is monotone non-increasing in
    /// frequency (fuzzer-driven).
    MetamorphicMonotone,
    /// Predictor outputs are finite, non-negative and within the bounds
    /// the ladder's frequency ratios imply.
    PredictorBounds,
    /// Fleet: the sum of power the central governor allocates to
    /// reachable machines never exceeds the global budget (plus relative
    /// tolerance), in any round and under any chaos.
    PowerBudgetConservation,
    /// Fleet: a machine rejoining after a partition climbs the
    /// degradation ladder exactly one rung per confirmed-healthy window —
    /// never jumping from fallback-to-max straight to central control.
    RejoinMonotonicity,
    /// Thermal: once an emergency throttle engages, the machine's true
    /// temperature must settle under `max(entry, T_crit)` plus the
    /// ceiling margin within the settle window — the forced V/f floor
    /// actually bends the trajectory.
    ThermalCeiling,
    /// Thermal: the throttle ladder de-escalates exactly one rung per
    /// confirmed-cool window and every shutdown exit black-starts into
    /// the emergency floor (see `thermal::ThrottleLadder`).
    ThrottleMonotonicity,
    /// Fleet hierarchy: the region budgets the root hands out sum to the
    /// effective global budget every round — damping and brownout shocks
    /// redistribute watts, never mint or burn them.
    HierarchyBudgetConservation,
}

impl Invariant {
    /// Every invariant, in catalog order.
    pub const ALL: [Invariant; 15] = [
        Invariant::EventMonotonicity,
        Invariant::CounterConservation,
        Invariant::CacheSanity,
        Invariant::StoreQueueOccupancy,
        Invariant::GcPauseAccounting,
        Invariant::LadderMembership,
        Invariant::VfMonotonicity,
        Invariant::MetamorphicNonScaling,
        Invariant::MetamorphicMonotone,
        Invariant::PredictorBounds,
        Invariant::PowerBudgetConservation,
        Invariant::RejoinMonotonicity,
        Invariant::ThermalCeiling,
        Invariant::ThrottleMonotonicity,
        Invariant::HierarchyBudgetConservation,
    ];

    /// The stable kebab-case name used in reports, skip lists and the
    /// sabotage hook.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Invariant::EventMonotonicity => "event-monotonicity",
            Invariant::CounterConservation => "counter-conservation",
            Invariant::CacheSanity => "cache-sanity",
            Invariant::StoreQueueOccupancy => "store-queue-occupancy",
            Invariant::GcPauseAccounting => "gc-pause-accounting",
            Invariant::LadderMembership => "ladder-membership",
            Invariant::VfMonotonicity => "vf-monotonicity",
            Invariant::MetamorphicNonScaling => "metamorphic-nonscaling",
            Invariant::MetamorphicMonotone => "metamorphic-monotone",
            Invariant::PredictorBounds => "predictor-bounds",
            Invariant::PowerBudgetConservation => "power-budget-conservation",
            Invariant::RejoinMonotonicity => "rejoin-monotonicity",
            Invariant::ThermalCeiling => "thermal-ceiling",
            Invariant::ThrottleMonotonicity => "throttle-monotonicity",
            Invariant::HierarchyBudgetConservation => "hierarchy-budget-conservation",
        }
    }

    /// Looks an invariant up by its [`Invariant::name`].
    #[must_use]
    pub fn from_name(name: &str) -> Option<Self> {
        Invariant::ALL.into_iter().find(|i| i.name() == name)
    }

    /// The cheapest mode at which this check runs.
    #[must_use]
    pub fn tier(self) -> InvariantMode {
        match self {
            Invariant::EventMonotonicity
            | Invariant::CounterConservation
            | Invariant::GcPauseAccounting
            | Invariant::LadderMembership
            | Invariant::VfMonotonicity
            | Invariant::PowerBudgetConservation
            | Invariant::RejoinMonotonicity
            | Invariant::ThermalCeiling
            | Invariant::ThrottleMonotonicity
            | Invariant::HierarchyBudgetConservation => InvariantMode::Cheap,
            Invariant::CacheSanity
            | Invariant::StoreQueueOccupancy
            | Invariant::MetamorphicNonScaling
            | Invariant::MetamorphicMonotone
            | Invariant::PredictorBounds => InvariantMode::Full,
        }
    }

    fn bit(self) -> u16 {
        1 << (Invariant::ALL.iter().position(|&i| i == self).expect("in catalog") as u16)
    }
}

impl fmt::Display for Invariant {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One recorded invariant violation.
#[derive(Debug, Clone, PartialEq)]
pub struct InvariantViolation {
    /// Which invariant failed.
    pub invariant: Invariant,
    /// Simulated time of the violation, in seconds.
    pub at_secs: f64,
    /// What exactly was inconsistent.
    pub detail: String,
}

impl InvariantViolation {
    /// Renders this violation as the unified error type.
    #[must_use]
    pub fn to_error(&self) -> depburst_core::DepburstError {
        depburst_core::DepburstError::InvariantViolation {
            invariant: self.invariant.name().to_owned(),
            at_secs: self.at_secs,
            detail: self.detail.clone(),
        }
    }
}

/// How many violations are stored verbatim; further ones only bump the
/// total counter (a corrupted run can violate on every epoch).
const MAX_STORED: usize = 32;

/// Relative slack for counter-conservation: component estimates are
/// maintained at epoch granularity and may legitimately overshoot a
/// slice's active time slightly (see `dvfs_trace::counters`).
const CONSERVATION_REL_TOL: f64 = 0.05;

/// Absolute slack for counter-conservation, in seconds (one cycle at the
/// lowest paper frequency).
const CONSERVATION_ABS_TOL: f64 = 1e-9;

/// The runtime invariant monitor: a mode, a skip set, an optional
/// sabotage hook, and the bounded violation log.
#[derive(Debug, Clone, Default)]
pub struct Monitor {
    mode: InvariantMode,
    /// Bitmask of suppressed invariants (bit i = `Invariant::ALL[i]`).
    skip: u16,
    /// Test-only hook: the named check is deliberately weakened so that a
    /// *healthy* run violates it — proving the violation path end to end.
    sabotage: Option<Invariant>,
    violations: Vec<InvariantViolation>,
    total: u64,
    /// Whether the last harvested segment ended mid-collection (an open
    /// GcStart), so the next segment may open with its GcEnd.
    gc_open: bool,
}

impl Monitor {
    /// A monitor at the given mode with nothing skipped.
    #[must_use]
    pub fn new(mode: InvariantMode) -> Self {
        Monitor {
            mode,
            ..Monitor::default()
        }
    }

    /// A monitor configured from the environment: mode from
    /// `DEPBURST_INVARIANTS`, skip set from `DEPBURST_INVARIANTS_SKIP`
    /// (comma-separated invariant names; unknown names are ignored).
    #[must_use]
    pub fn from_env() -> Self {
        let mut monitor = Monitor::new(InvariantMode::from_env());
        if let Ok(list) = std::env::var("DEPBURST_INVARIANTS_SKIP") {
            for name in list.split(',') {
                if let Some(inv) = Invariant::from_name(name.trim()) {
                    monitor.skip |= inv.bit();
                }
            }
        }
        monitor
    }

    /// The active checking depth.
    #[must_use]
    pub fn mode(&self) -> InvariantMode {
        self.mode
    }

    /// True if any checking is active at all. The hot paths gate on this
    /// first so `off` costs one predictable branch.
    #[inline]
    #[must_use]
    pub fn enabled(&self) -> bool {
        self.mode != InvariantMode::Off
    }

    /// True if the named check should run at the current mode.
    #[inline]
    #[must_use]
    pub fn on(&self, inv: Invariant) -> bool {
        self.mode >= inv.tier() && (self.skip & inv.bit()) == 0
    }

    /// Deliberately weakens `inv`'s check so a healthy run violates it.
    /// Only `counter-conservation` currently has a sabotaged variant; the
    /// hook exists purely so tests and CI can drive the violation path.
    pub fn sabotage(&mut self, inv: Invariant) {
        self.sabotage = Some(inv);
    }

    /// Whether `inv` is currently sabotaged.
    #[must_use]
    pub fn is_sabotaged(&self, inv: Invariant) -> bool {
        self.sabotage == Some(inv)
    }

    /// Records a violation (bounded storage, unbounded count).
    pub fn record(&mut self, invariant: Invariant, at_secs: f64, detail: String) {
        self.total += 1;
        if self.violations.len() < MAX_STORED {
            self.violations.push(InvariantViolation {
                invariant,
                at_secs,
                detail,
            });
        }
    }

    /// The stored violations (at most the first `MAX_STORED`).
    #[must_use]
    pub fn violations(&self) -> &[InvariantViolation] {
        &self.violations
    }

    /// Total violations observed, including any beyond the storage cap.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.total
    }

    /// The first violation as a unified error, if any were recorded.
    #[must_use]
    pub fn first_error(&self) -> Option<depburst_core::DepburstError> {
        self.violations.first().map(InvariantViolation::to_error)
    }

    /// Runs the trace-level checks on a freshly harvested (pre-fault)
    /// segment: structural validity, per-slice counter conservation, and
    /// GC marker balance. The caller gates on [`Monitor::enabled`].
    pub fn check_trace(&mut self, trace: &ExecutionTrace) {
        if self.on(Invariant::CounterConservation) {
            if let Err(err) = trace.validate() {
                self.record(
                    Invariant::CounterConservation,
                    trace.start.as_secs(),
                    format!("trace structure: {err}"),
                );
            }
            self.check_conservation(trace);
        }
        if self.on(Invariant::GcPauseAccounting) {
            self.check_marker_balance(trace);
        }
    }

    /// Per epoch and per thread slice, every non-scaling component must
    /// stay within active time plus tolerance. Under sabotage the bound
    /// is replaced by `active <= duration / 4`, which any real slice that
    /// runs most of an epoch violates immediately.
    fn check_conservation(&mut self, trace: &ExecutionTrace) {
        let sabotaged = self.is_sabotaged(Invariant::CounterConservation);
        for (i, epoch) in trace.epochs.iter().enumerate() {
            for slice in &epoch.threads {
                let c = &slice.counters;
                let active = c.active.as_secs();
                if sabotaged {
                    let broken_bound = epoch.duration.as_secs() * 0.25;
                    if active > broken_bound + CONSERVATION_ABS_TOL {
                        self.record(
                            Invariant::CounterConservation,
                            epoch.start.as_secs(),
                            format!(
                                "epoch {i} thread {}: active {active:.3e} s exceeds \
                                 (sabotaged) bound {broken_bound:.3e} s",
                                slice.thread
                            ),
                        );
                    }
                    continue;
                }
                let bound = active + active * CONSERVATION_REL_TOL + CONSERVATION_ABS_TOL;
                for (label, value) in [
                    ("crit", c.crit),
                    ("leading-loads", c.leading_loads),
                    ("stall", c.stall),
                    ("sq-full", c.sq_full),
                ] {
                    let v = value.as_secs();
                    if v > bound {
                        self.record(
                            Invariant::CounterConservation,
                            epoch.start.as_secs(),
                            format!(
                                "epoch {i} thread {}: {label} {v:.3e} s exceeds active \
                                 {active:.3e} s (+tolerance)",
                                slice.thread
                            ),
                        );
                    }
                    if v < -CONSERVATION_ABS_TOL {
                        self.record(
                            Invariant::CounterConservation,
                            epoch.start.as_secs(),
                            format!(
                                "epoch {i} thread {}: {label} is negative ({v:.3e} s)",
                                slice.thread
                            ),
                        );
                    }
                }
                if epoch.duration > TimeDelta::ZERO
                    && active > epoch.duration.as_secs() * (1.0 + CONSERVATION_REL_TOL)
                        + CONSERVATION_ABS_TOL
                {
                    self.record(
                        Invariant::CounterConservation,
                        epoch.start.as_secs(),
                        format!(
                            "epoch {i} thread {}: active {active:.3e} s exceeds epoch \
                             duration {:.3e} s",
                            slice.thread,
                            epoch.duration.as_secs()
                        ),
                    );
                }
            }
        }
    }

    /// GC phase markers must alternate GcStart/GcEnd and balance out: an
    /// unbalanced stream means pause time was attributed to the wrong side
    /// of the mutator/collector handoff. The depth carries across
    /// harvests: a managed run harvests once per quantum, and a quantum
    /// boundary can fall inside a collection.
    fn check_marker_balance(&mut self, trace: &ExecutionTrace) {
        let mut depth = i64::from(self.gc_open);
        for marker in &trace.markers {
            match marker.kind {
                PhaseKind::GcStart => depth += 1,
                PhaseKind::GcEnd => depth -= 1,
            }
            if depth < 0 {
                self.record(
                    Invariant::GcPauseAccounting,
                    marker.time.as_secs(),
                    "GcEnd marker without a matching GcStart".to_owned(),
                );
                depth = 0; // re-sync so one bad marker reports once
            }
            if depth > 1 {
                self.record(
                    Invariant::GcPauseAccounting,
                    marker.time.as_secs(),
                    format!("nested GcStart markers (depth {depth}): STW windows overlap"),
                );
            }
        }
        // A segment may end mid-collection (depth 1 at a quantum
        // boundary); deeper imbalance is a real accounting hole.
        if depth > 1 {
            self.record(
                Invariant::GcPauseAccounting,
                trace.start.as_secs() + trace.total.as_secs(),
                format!("segment ends with {depth} unclosed GcStart markers"),
            );
        }
        self.gc_open = depth > 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dvfs_trace::{
        DvfsCounters, EpochEnd, EpochRecord, Freq, PhaseMarker, ThreadId, ThreadSlice, Time,
    };

    fn trace_with(epochs: Vec<EpochRecord>, markers: Vec<PhaseMarker>) -> ExecutionTrace {
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

    fn epoch(start_s: f64, dur_s: f64, counters: DvfsCounters) -> EpochRecord {
        EpochRecord {
            start: Time::from_secs(start_s),
            duration: TimeDelta::from_secs(dur_s),
            threads: vec![ThreadSlice {
                thread: ThreadId(0),
                counters,
            }],
            end: EpochEnd::TraceEnd,
        }
    }

    fn healthy_counters(active_s: f64) -> DvfsCounters {
        let mut c = DvfsCounters::zero();
        c.active = TimeDelta::from_secs(active_s);
        c.crit = TimeDelta::from_secs(active_s * 0.5);
        c.stall = TimeDelta::from_secs(active_s * 0.3);
        c
    }

    #[test]
    fn mode_parsing_and_ordering() {
        assert_eq!(InvariantMode::parse("off"), Some(InvariantMode::Off));
        assert_eq!(InvariantMode::parse("CHEAP"), Some(InvariantMode::Cheap));
        assert_eq!(InvariantMode::parse(" full "), Some(InvariantMode::Full));
        assert_eq!(InvariantMode::parse("bogus"), None);
        assert!(InvariantMode::Full > InvariantMode::Cheap);
        assert!(InvariantMode::Cheap > InvariantMode::Off);
    }

    #[test]
    fn names_roundtrip_and_are_unique() {
        for inv in Invariant::ALL {
            assert_eq!(Invariant::from_name(inv.name()), Some(inv));
        }
        let mut names: Vec<_> = Invariant::ALL.iter().map(|i| i.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), Invariant::ALL.len());
    }

    #[test]
    fn gating_respects_tier_and_skip() {
        let off = Monitor::new(InvariantMode::Off);
        assert!(!off.enabled());
        assert!(!off.on(Invariant::EventMonotonicity));

        let cheap = Monitor::new(InvariantMode::Cheap);
        assert!(cheap.on(Invariant::CounterConservation));
        assert!(!cheap.on(Invariant::CacheSanity));

        let mut full = Monitor::new(InvariantMode::Full);
        assert!(full.on(Invariant::CacheSanity));
        full.skip |= Invariant::CacheSanity.bit();
        assert!(!full.on(Invariant::CacheSanity));
        assert!(full.on(Invariant::CounterConservation));
    }

    #[test]
    fn healthy_trace_is_clean() {
        let mut m = Monitor::new(InvariantMode::Full);
        let t = trace_with(
            vec![epoch(0.0, 1e-3, healthy_counters(9e-4))],
            vec![
                PhaseMarker::new(Time::from_secs(1e-4), PhaseKind::GcStart),
                PhaseMarker::new(Time::from_secs(2e-4), PhaseKind::GcEnd),
            ],
        );
        m.check_trace(&t);
        assert_eq!(m.total(), 0, "{:?}", m.violations());
    }

    #[test]
    fn overshooting_component_is_caught() {
        let mut m = Monitor::new(InvariantMode::Cheap);
        let mut c = healthy_counters(1e-4);
        c.crit = TimeDelta::from_secs(5e-4); // way past active + 5%
        m.check_trace(&trace_with(vec![epoch(0.0, 1e-3, c)], vec![]));
        assert!(m.total() >= 1);
        assert_eq!(
            m.violations()[0].invariant,
            Invariant::CounterConservation
        );
        assert!(m.first_error().is_some());
    }

    #[test]
    fn unbalanced_markers_are_caught() {
        let mut m = Monitor::new(InvariantMode::Cheap);
        let t = trace_with(
            vec![epoch(0.0, 1e-3, healthy_counters(5e-4))],
            vec![PhaseMarker::new(Time::from_secs(1e-4), PhaseKind::GcEnd)],
        );
        m.check_trace(&t);
        assert_eq!(m.violations()[0].invariant, Invariant::GcPauseAccounting);
    }

    #[test]
    fn a_collection_may_span_two_harvested_segments() {
        // A quantum boundary inside a collection: segment 1 ends after its
        // GcStart, and segment 2 opens with the matching GcEnd.
        let segment = |kind| {
            trace_with(
                vec![epoch(0.0, 1e-3, healthy_counters(5e-4))],
                vec![PhaseMarker::new(Time::from_secs(5e-4), kind)],
            )
        };
        let mut m = Monitor::new(InvariantMode::Cheap);
        m.check_trace(&segment(PhaseKind::GcStart));
        m.check_trace(&segment(PhaseKind::GcEnd));
        assert_eq!(m.total(), 0, "{:?}", m.violations());
        // The collection is closed now: a further GcEnd is unmatched.
        m.check_trace(&segment(PhaseKind::GcEnd));
        assert_eq!(m.violations()[0].invariant, Invariant::GcPauseAccounting);
    }

    #[test]
    fn sabotage_flags_a_healthy_trace() {
        let mut m = Monitor::new(InvariantMode::Full);
        m.sabotage(Invariant::CounterConservation);
        let t = trace_with(vec![epoch(0.0, 1e-3, healthy_counters(9e-4))], vec![]);
        m.check_trace(&t);
        assert!(m.total() >= 1, "sabotaged check must fire on healthy data");
        assert_eq!(
            m.violations()[0].invariant,
            Invariant::CounterConservation
        );
    }

    #[test]
    fn storage_is_bounded_but_count_is_not() {
        let mut m = Monitor::new(InvariantMode::Cheap);
        for i in 0..(MAX_STORED + 10) {
            m.record(
                Invariant::EventMonotonicity,
                i as f64,
                "regression".to_owned(),
            );
        }
        assert_eq!(m.violations().len(), MAX_STORED);
        assert_eq!(m.total(), (MAX_STORED + 10) as u64);
    }
}
