//! Fleet governor: central frequency allocation under a global power
//! budget, the per-machine local fallback, and the partition-tolerant
//! **degradation ladder**.
//!
//! The ROADMAP's fleet-scale service has one central DVFS governor
//! allocating frequencies to many machines. A central allocator is only
//! production-grade if each machine degrades gracefully when the fleet
//! misbehaves, so control authority forms a three-rung ladder:
//!
//! 1. [`GovernorMode::Central`] — the machine runs whatever frequency the
//!    central governor allocated from the global budget;
//! 2. [`GovernorMode::LocalDepBurst`] — on partition or sustained
//!    telemetry loss, the machine falls back to a local DEP+BURST-style
//!    governor ([`LocalGovernor`]): lowest ladder frequency within a
//!    tolerable predicted slowdown, the paper's §VI policy applied to the
//!    machine's own characterization (the Pac-Sim framing: a cheap local
//!    model stands in when full information is unavailable);
//! 3. [`GovernorMode::FallbackMax`] — on continued telemetry loss (or a
//!    crash restart) the machine pins its ladder maximum, the PR 1
//!    hardened fallback: always safe for latency, never for energy.
//!
//! Rejoin is **hysteretic**: each climb back up requires a full window of
//! confirmed-healthy rounds ([`REJOIN_THRESHOLD`]) and moves exactly one
//! rung, so a flapping link cannot oscillate a machine
//! between central and fallback control. [`DegradationLadder`] is a pure
//! state machine over `(reachable, telemetry_ok, thermal_ok)`
//! observations — no randomness, no clocks — which is what makes failover
//! sequences a pure function of the chaos schedule. It records its mode
//! changes in a [`simx::ladder::TransitionLog`], the log the thermal
//! throttle ladder keeps too, whose one monotonicity check lets
//! `simx::Invariant::RejoinMonotonicity` vet every recorded transition.

use core::fmt;
use std::collections::binary_heap::PeekMut;
use std::collections::BinaryHeap;

use dvfs_trace::{Freq, FreqLadder};
use simx::ladder::{Rung, TransitionLog};

use crate::power::PowerModel;

/// Who controls a machine's frequency right now (the ladder rung).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum GovernorMode {
    /// The central governor's allocation applies.
    #[default]
    Central,
    /// The machine self-governs with a local DEP+BURST policy.
    LocalDepBurst,
    /// The machine pins its maximum frequency (hardened fallback).
    FallbackMax,
}

impl GovernorMode {
    /// Stable kebab-case name used in reports and transition logs.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            GovernorMode::Central => "central",
            GovernorMode::LocalDepBurst => "local-depburst",
            GovernorMode::FallbackMax => "fallback-max",
        }
    }

    /// The rung one step toward central control, if any.
    #[must_use]
    pub fn promoted(self) -> Option<GovernorMode> {
        match self {
            GovernorMode::FallbackMax => Some(GovernorMode::LocalDepBurst),
            GovernorMode::LocalDepBurst => Some(GovernorMode::Central),
            GovernorMode::Central => None,
        }
    }
}

impl fmt::Display for GovernorMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Recovery height is centralization: FallbackMax < LocalDepBurst <
/// Central.
impl Rung for GovernorMode {
    fn rung(self) -> u8 {
        match self {
            GovernorMode::FallbackMax => 0,
            GovernorMode::LocalDepBurst => 1,
            GovernorMode::Central => 2,
        }
    }
}

/// Consecutive governor-unreachable rounds before the degradation ladder
/// leaves [`GovernorMode::Central`].
const PARTITION_TOLERANCE: u32 = 2;

/// Consecutive telemetry-less rounds before the degradation ladder drops
/// one rung (central control and the local predictor both starve without
/// counter harvests).
const LOSS_TOLERANCE: u32 = 4;

/// Consecutive fully-healthy rounds the degradation ladder requires per
/// one-rung climb back up (the hysteresis window).
pub const REJOIN_THRESHOLD: u32 = 3;

/// The per-machine degradation state machine. Deterministic: the mode
/// sequence is a pure function of the observation sequence.
#[derive(Debug, Clone, Default)]
pub struct DegradationLadder {
    /// The current mode and its transitions.
    pub log: TransitionLog<GovernorMode>,
    unreachable_streak: u32,
    loss_streak: u32,
    healthy_streak: u32,
}

impl DegradationLadder {
    /// A fresh ladder, starting under central control.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// The current mode.
    #[must_use]
    pub fn mode(&self) -> GovernorMode {
        self.log.stage()
    }

    /// Feeds one round's health observation and returns the mode that
    /// governs this round. `governor_reachable` is the control link,
    /// `telemetry_ok` the counter-harvest path. Demotions move at most
    /// one rung per round; promotions require a full
    /// [`REJOIN_THRESHOLD`] healthy window each.
    ///
    /// `thermal_ok` is the thermal dimension: a round under emergency
    /// throttle (or worse) is `thermal_ok = false`. A thermally
    /// constrained machine is pinned at its V/f floor and cannot follow
    /// central allocations, so such rounds never count toward the rejoin
    /// window — but they do not demote either (the throttle ladder, not
    /// governor authority, is handling the machine). Thermal-off fleets
    /// pass `true` every round.
    pub fn observe(
        &mut self,
        round: u64,
        governor_reachable: bool,
        telemetry_ok: bool,
        thermal_ok: bool,
    ) -> GovernorMode {
        if governor_reachable {
            self.unreachable_streak = 0;
        } else {
            self.unreachable_streak += 1;
        }
        if telemetry_ok {
            self.loss_streak = 0;
        } else {
            self.loss_streak += 1;
        }
        if governor_reachable && telemetry_ok && thermal_ok {
            self.healthy_streak += 1;
        } else {
            self.healthy_streak = 0;
        }

        match self.mode() {
            GovernorMode::Central => {
                if self.unreachable_streak >= PARTITION_TOLERANCE {
                    self.log.shift(round, GovernorMode::LocalDepBurst, "partition");
                } else if self.loss_streak >= LOSS_TOLERANCE {
                    self.log.shift(round, GovernorMode::LocalDepBurst, "telemetry-loss");
                }
            }
            GovernorMode::LocalDepBurst => {
                if self.loss_streak >= 2 * LOSS_TOLERANCE {
                    self.log.shift(round, GovernorMode::FallbackMax, "telemetry-loss");
                }
            }
            GovernorMode::FallbackMax => {}
        }

        if self.healthy_streak >= REJOIN_THRESHOLD {
            if let Some(up) = self.mode().promoted() {
                self.log.shift(round, up, "rejoin");
                // Each further rung needs its own full healthy window.
                self.healthy_streak = 0;
            }
        }
        self.mode()
    }

    /// Drops straight to [`GovernorMode::FallbackMax`] (a crash restart
    /// reboots into the hardened fallback, whatever the mode was).
    pub fn force_fallback(&mut self, round: u64, reason: &'static str) {
        if self.mode() != GovernorMode::FallbackMax {
            self.log.shift(round, GovernorMode::FallbackMax, reason);
        }
        self.unreachable_streak = 0;
        self.loss_streak = 0;
        self.healthy_streak = 0;
    }
}

/// Which fleet-level frequency policy governs the run (CLI `--policy`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum GovernorPolicy {
    /// Central allocation from the true characterization (upper bound:
    /// perfect models, perfect telemetry when reachable).
    Oracle,
    /// Central allocation from DEP+BURST-style telemetry (stale or lossy
    /// under chaos — the realistic operating point).
    DepBurst,
    /// No central control at all: every machine pins its ladder maximum
    /// (the naive, budget-oblivious baseline).
    NaiveStatic,
}

impl GovernorPolicy {
    /// Stable CLI spelling.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            GovernorPolicy::Oracle => "oracle",
            GovernorPolicy::DepBurst => "depburst",
            GovernorPolicy::NaiveStatic => "naive",
        }
    }

    /// Parses a [`GovernorPolicy::name`].
    #[must_use]
    pub fn from_name(name: &str) -> Option<Self> {
        [
            GovernorPolicy::Oracle,
            GovernorPolicy::DepBurst,
            GovernorPolicy::NaiveStatic,
        ]
        .into_iter()
        .find(|p| p.name() == name)
    }
}

impl fmt::Display for GovernorPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// What the central governor knows about one reachable machine: its V/f
/// ladder and a two-component service-time characterization
/// `s(f) = scaling_s / f_ghz + fixed_s` (frequency-scaling work over
/// memory/GC work that does not scale — the DEP+BURST decomposition
/// collapsed to request granularity).
#[derive(Debug, Clone, Copy)]
pub struct MachineView<'a> {
    /// Fleet-wide machine id (allocation order tiebreaker).
    pub id: usize,
    /// The machine's own V/f ladder (heterogeneous across the fleet).
    pub ladder: &'a FreqLadder,
    /// Frequency-scaling service seconds, normalized to 1 GHz.
    pub scaling_s: f64,
    /// Non-scaling service seconds.
    pub fixed_s: f64,
    /// Core count (drives the machine's power estimate).
    pub cores: usize,
}

impl MachineView<'_> {
    /// Predicted per-request service time at `freq`, seconds.
    #[must_use]
    pub fn service_time(&self, freq: Freq) -> f64 {
        self.scaling_s / freq.ghz() + self.fixed_s
    }
}

/// One central allocation round's outcome.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Allocation {
    /// Chosen frequency per view, parallel to the input slice.
    pub freqs: Vec<Freq>,
    /// Estimated fleet power of the chosen frequencies, watts.
    pub power_w: f64,
    /// The budget slice this allocation had to fit, watts.
    pub available_w: f64,
    /// The unavoidable floor: estimated power with every machine pinned
    /// to its ladder minimum, watts. Water-filling cannot go below it, so
    /// `power_w` may legitimately exceed a slice smaller than this.
    pub floor_w: f64,
}

/// A ladder's operating points with the full-activity power estimate of
/// each, for one core count.
#[derive(Debug)]
struct PowerTable {
    ladder: FreqLadder,
    cores: usize,
    freqs: Vec<Freq>,
    power_w: Vec<f64>,
}

/// The power tables of a fleet: one per distinct `(ladder, cores)` pair,
/// each entry the model's full-activity power at one operating point. A
/// fleet has a handful of such pairs, so one table serves many machines,
/// and a set built once serves every allocation of a run through
/// [`CentralGovernor::allocate`].
#[derive(Debug)]
pub struct TableSet {
    model: PowerModel,
    tables: Vec<PowerTable>,
}

impl TableSet {
    /// An empty set whose tables `model` will fill.
    #[must_use]
    pub fn new(model: &PowerModel) -> Self {
        TableSet {
            model: *model,
            tables: Vec::new(),
        }
    }

    /// The index of the table for `ladder` at `cores` (at least one),
    /// built on first use.
    pub fn insert(&mut self, ladder: &FreqLadder, cores: usize) -> usize {
        let cores = cores.max(1);
        if let Some(i) = self
            .tables
            .iter()
            .position(|t| t.ladder == *ladder && t.cores == cores)
        {
            return i;
        }
        let freqs: Vec<Freq> = ladder.iter().collect();
        let power_w = freqs
            .iter()
            .map(|&f| self.model.power_uniform(f, 1.0, cores).total())
            .collect();
        self.tables.push(PowerTable {
            ladder: *ladder,
            cores,
            freqs,
            power_w,
        });
        self.tables.len() - 1
    }

    /// The ladder of table `index`.
    ///
    /// # Panics
    /// If `index` was not returned by [`TableSet::insert`] on this set.
    #[must_use]
    pub fn ladder(&self, index: usize) -> &FreqLadder {
        &self.tables[index].ladder
    }
}

/// Reusable memory of [`CentralGovernor::allocate`]: the last
/// call's [`Allocation`] and the working buffers. Calls that reuse one
/// scratch allocate nothing once its buffers have grown to the largest
/// slice.
#[derive(Debug, Default)]
pub struct AllocScratch {
    result: Allocation,
    by_rank: Vec<usize>,
    notch: Vec<usize>,
    heap: BinaryHeap<Candidate>,
}

/// A machine waiting for its next notch, as one integer heap key: its
/// service time in the high half, ordered like [`f64::total_cmp`], over
/// its complemented tie-break rank. The max-heap therefore pops the worst
/// latency first and, among equal latencies, the lowest rank.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct Candidate(u128);

impl Candidate {
    fn new(latency: f64, rank: usize) -> Self {
        // Flipping every bit of a negative and the sign bit of a positive
        // makes unsigned order the IEEE total order.
        let bits = latency.to_bits();
        let ordered = if bits >> 63 == 1 { !bits } else { bits | 1 << 63 };
        Candidate(u128::from(ordered) << 64 | u128::from(!(rank as u64)))
    }

    fn rank(self) -> usize {
        !(self.0 as u64) as usize
    }
}

/// The central DVFS governor: greedy latency-levelling allocation under a
/// global power budget.
#[derive(Debug, Clone, Copy)]
pub struct CentralGovernor {
    /// Whole-fleet power budget, watts.
    pub budget_w: f64,
}

impl CentralGovernor {
    /// A governor with the given fleet budget.
    #[must_use]
    pub fn new(budget_w: f64) -> Self {
        CentralGovernor { budget_w }
    }

    /// Allocates frequencies to the reachable machines in `views`.
    ///
    /// Unreachable machines (self-governing on lower ladder rungs) keep a
    /// pro-rata share of the budget: with `fleet_machines` total, the
    /// reachable set fits inside `budget · |views| / fleet_machines`.
    ///
    /// Greedy water-filling: every machine starts at its ladder minimum;
    /// each step raises the machine with the worst predicted service time
    /// (ties broken by lower [`MachineView::id`]) one ladder notch, if the
    /// power estimate still fits; a machine whose next notch does not fit
    /// is frozen. Deterministic — no randomness, order fixed by
    /// (latency, id).
    ///
    /// View `i` reads table `table_of[i]` of `tables`, which must be the
    /// table of its ladder and core count; a caller allocating every round
    /// builds its [`TableSet`] once. The result lives in `scratch` until
    /// its next use.
    ///
    /// The candidates live in a max-heap, so a call costs
    /// O(notches · log |views|) rather than a rescan of every view per
    /// notch.
    ///
    /// # Panics
    /// If `table_of` is not parallel to `views` or names a table `tables`
    /// does not hold.
    pub fn allocate<'s>(
        &self,
        tables: &TableSet,
        views: &[MachineView<'_>],
        table_of: &[usize],
        fleet_machines: usize,
        scratch: &'s mut AllocScratch,
    ) -> &'s Allocation {
        assert_eq!(table_of.len(), views.len(), "one table index per view");
        let fleet = fleet_machines.max(views.len()).max(1);
        let available_w = self.budget_w * views.len() as f64 / fleet as f64;
        let table = |i: usize| &tables.tables[table_of[i]];

        let AllocScratch {
            result,
            by_rank,
            notch,
            heap,
        } = scratch;
        notch.clear();
        notch.resize(views.len(), 0);
        let mut power_w: f64 = (0..views.len()).map(|i| table(i).power_w[0]).sum();
        let floor_w = power_w;

        // Ties go to the lower id, then the earlier position: rank the
        // views in that order once (the fleet passes them id-ordered, so
        // the stable sort is usually skipped) so the heap key is a single
        // integer.
        by_rank.clear();
        by_rank.extend(0..views.len());
        if !views.is_sorted_by_key(|v| v.id) {
            by_rank.sort_by_key(|&i| views[i].id);
        }

        // Machines with headroom. A machine whose next notch does not fit
        // leaves the heap (frozen), as does one reaching its ladder top.
        heap.clear();
        heap.extend(
            by_rank
                .iter()
                .enumerate()
                .filter(|&(_, &i)| table(i).freqs.len() > 1)
                .map(|(rank, &i)| Candidate::new(views[i].service_time(table(i).freqs[0]), rank)),
        );
        while let Some(mut top) = heap.peek_mut() {
            let rank = top.rank();
            let i = by_rank[rank];
            let t = table(i);
            let delta = t.power_w[notch[i] + 1] - t.power_w[notch[i]];
            if power_w + delta <= available_w {
                notch[i] += 1;
                power_w += delta;
                if notch[i] + 1 < t.freqs.len() {
                    // Re-keyed in place: dropping `top` sifts it down.
                    *top = Candidate::new(views[i].service_time(t.freqs[notch[i]]), rank);
                    continue;
                }
            }
            PeekMut::pop(top);
        }

        result.freqs.clear();
        result
            .freqs
            .extend(notch.iter().enumerate().map(|(i, &k)| table(i).freqs[k]));
        result.power_w = power_w;
        result.available_w = available_w;
        result.floor_w = floor_w;
        result
    }

    /// The pre-heap allocator, kept as the reference the heap must match
    /// bit for bit: each step rescans every view for the worst-latency
    /// machine with headroom (ties to the lower id, then the earlier
    /// position) and recomputes both power estimates from the model.
    #[cfg(test)]
    fn allocate_scan(
        &self,
        model: &PowerModel,
        views: &[MachineView<'_>],
        fleet_machines: usize,
    ) -> Allocation {
        let fleet = fleet_machines.max(views.len()).max(1);
        let available_w = self.budget_w * views.len() as f64 / fleet as f64;

        let ladders: Vec<Vec<Freq>> = views.iter().map(|v| v.ladder.iter().collect()).collect();
        let mut idx: Vec<usize> = vec![0; views.len()];
        let mut frozen: Vec<bool> = vec![false; views.len()];
        let power_of = |view: &MachineView<'_>, freq: Freq| {
            model.power(freq, &vec![1.0; view.cores.max(1)]).total()
        };
        let mut power_w: f64 = views
            .iter()
            .zip(&ladders)
            .map(|(v, l)| power_of(v, l[0]))
            .sum();
        let floor_w = power_w;

        loop {
            // The worst-latency machine that still has headroom.
            let mut pick: Option<(f64, usize, usize)> = None;
            for (i, view) in views.iter().enumerate() {
                if frozen[i] || idx[i] + 1 >= ladders[i].len() {
                    continue;
                }
                let lat = view.service_time(ladders[i][idx[i]]);
                let better = match pick {
                    None => true,
                    Some((best, best_id, _)) => lat > best || (lat == best && view.id < best_id),
                };
                if better {
                    pick = Some((lat, view.id, i));
                }
            }
            let Some((_, _, i)) = pick else { break };
            let delta = power_of(&views[i], ladders[i][idx[i] + 1])
                - power_of(&views[i], ladders[i][idx[i]]);
            if power_w + delta <= available_w {
                idx[i] += 1;
                power_w += delta;
            } else {
                frozen[i] = true;
            }
        }

        Allocation {
            freqs: idx.iter().zip(&ladders).map(|(&i, l)| l[i]).collect(),
            power_w,
            available_w,
            floor_w,
        }
    }
}

/// The local DEP+BURST fallback governor: lowest ladder frequency whose
/// predicted slowdown vs. the ladder maximum stays within the bound
/// (paper §VI, applied to the machine's own characterization).
#[derive(Debug, Clone, Copy)]
pub struct LocalGovernor {
    /// Tolerable slowdown vs. the ladder maximum (e.g. `0.05` = 5%).
    pub slowdown_bound: f64,
}

impl LocalGovernor {
    /// A local governor with the given slowdown bound.
    #[must_use]
    pub fn new(slowdown_bound: f64) -> Self {
        LocalGovernor {
            slowdown_bound: slowdown_bound.max(0.0),
        }
    }

    /// Picks the frequency for one machine. Always a member of `ladder`.
    #[must_use]
    pub fn choose(&self, view: &MachineView<'_>) -> Freq {
        let max = view.ladder.max();
        let budget = view.service_time(max) * (1.0 + self.slowdown_bound);
        view.ladder
            .iter()
            .find(|&f| view.service_time(f) <= budget)
            .unwrap_or(max)
    }
}

/// The root of the hierarchical governor: it owns no machines, only the
/// split of the effective global budget across region aggregators.
///
/// Region *shares* (fractions summing to one) are the persistent state.
/// Budget **cuts** propagate instantly — a brownout multiplies every
/// region's watts through the effective budget the same round — but
/// share *redistribution* is damped and dead-banded, so demand swings
/// and shock windows cannot oscillate watts back and forth across
/// regions (the anti-cascade hysteresis). When the root itself is down,
/// shares freeze and every region keeps allocating autonomously inside
/// its frozen share; machines notice nothing. That asymmetry — flat
/// central control dies with its root, a hierarchy only stops
/// *rebalancing* — is the whole point of the extra tier.
#[derive(Debug, Clone)]
pub struct HierarchicalGovernor {
    shares: Vec<f64>,
}

impl HierarchicalGovernor {
    /// A root over `regions` regions, starting at equal shares.
    #[must_use]
    pub fn new(regions: usize) -> Self {
        let regions = regions.max(1);
        HierarchicalGovernor {
            shares: vec![1.0 / regions as f64; regions],
        }
    }

    /// Number of regions.
    #[must_use]
    pub fn regions(&self) -> usize {
        self.shares.len()
    }

    /// The current region shares (always summing to 1 within float
    /// rounding).
    #[must_use]
    pub fn shares(&self) -> &[f64] {
        &self.shares
    }

    /// Fraction of the share gap closed per rebalance (30% per round).
    const DAMPING: f64 = 0.3;

    /// Largest per-region share gap that is left alone (hysteresis: 2% of
    /// share).
    const DEADBAND: f64 = 0.02;

    /// One rebalance step toward demand-proportional shares. `demand` is
    /// any non-negative per-region load proxy (reachable machines,
    /// queued work); `root_down` freezes the shares entirely — the
    /// regions run autonomously on what they last held.
    ///
    /// Anti-cascade containment: regions marked `frozen` (typically:
    /// their aggregator is unreachable, so their demand signal is
    /// silence, not absence) keep their current share untouched, and
    /// only the active regions' slice of the budget is redistributed
    /// among the active regions. Without this, an orphaned region's share
    /// bleeds to its siblings round over round — the siblings run hotter
    /// on the windfall, and the region rejoins into a starved,
    /// floor-power slice: a textbook failure cascade.
    ///
    /// An empty `frozen` mask means no region is frozen.
    pub fn rebalance(&mut self, demand: &[f64], frozen: &[bool], root_down: bool) {
        if root_down || demand.len() != self.shares.len() {
            return;
        }
        if !frozen.is_empty() && frozen.len() != self.shares.len() {
            return;
        }
        let is_frozen = |r: usize| frozen.get(r).copied().unwrap_or(false);
        let frozen_mass: f64 = self
            .shares
            .iter()
            .enumerate()
            .filter(|(r, _)| is_frozen(*r))
            .map(|(_, s)| s)
            .sum();
        let active_mass = (1.0 - frozen_mass).max(0.0);
        let total: f64 = demand
            .iter()
            .enumerate()
            .filter(|(r, _)| !is_frozen(*r))
            .map(|(_, d)| d.max(0.0))
            .sum();
        if total <= 0.0 || active_mass <= 0.0 {
            return;
        }
        // A frozen region's target is its current share, which no step
        // before its own changes.
        let desired = |r: usize, share: f64| {
            if is_frozen(r) {
                share
            } else {
                active_mass * demand[r].max(0.0) / total
            }
        };
        let gap = self
            .shares
            .iter()
            .enumerate()
            .map(|(r, &s)| (desired(r, s) - s).abs())
            .fold(0.0f64, f64::max);
        if gap <= Self::DEADBAND {
            return;
        }
        for (r, share) in self.shares.iter_mut().enumerate() {
            *share += (desired(r, *share) - *share) * Self::DAMPING;
        }
        // Renormalize only the active mass: rounding drift must never
        // leak into (or out of) a frozen region's share.
        let active_sum: f64 = self
            .shares
            .iter()
            .enumerate()
            .filter(|(r, _)| !is_frozen(*r))
            .map(|(_, s)| s)
            .sum();
        if active_sum > 0.0 {
            for (r, share) in self.shares.iter_mut().enumerate() {
                if !is_frozen(r) {
                    *share *= active_mass / active_sum;
                }
            }
        }
    }

    /// The watts region `region` may allocate this round, given the
    /// effective (possibly browned-out) global budget. Cuts flow through
    /// immediately; only share redistribution is damped.
    #[must_use]
    pub fn region_budget(&self, region: usize, effective_w: f64) -> f64 {
        self.shares.get(region).copied().unwrap_or(0.0) * effective_w
    }
}

/// Trip parameters of the fleet's overshoot breaker.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BreakerConfig {
    /// Relative overshoot of the effective budget tolerated before the
    /// breaker trips anyone.
    pub rel_tol: f64,
    /// Rounds a tripped machine holds the V/f floor.
    pub hold_rounds: u32,
    /// Release stagger stride: the k-th machine tripped in one round is
    /// released `k * stagger_rounds` later than the first, so a tripped
    /// cohort cannot re-inrush together (anti-cascade).
    pub stagger_rounds: u32,
}

impl Default for BreakerConfig {
    fn default() -> Self {
        BreakerConfig {
            rel_tol: 0.10,
            hold_rounds: 3,
            stagger_rounds: 2,
        }
    }
}

/// The power-integrity breaker at the feed: when measured fleet power
/// exceeds the effective budget beyond tolerance, the worst overshooting
/// machines are forced to their V/f floor for a hold, released staggered.
/// Deterministic — candidates are ordered by (power, id).
///
/// This is the physical backstop under the governors: a fleet whose
/// machines degraded to budget-*oblivious* local control (a flat root
/// crash during a brownout) overshoots, trips, and pays for it in
/// latency; a hierarchy that kept its machines centrally governed fits
/// the budget and never meets the breaker.
#[derive(Debug, Clone)]
pub struct OvershootBreaker {
    config: BreakerConfig,
    /// Per machine: first round it is free again (0 = not tripped).
    tripped_until: Vec<u64>,
    trips: u64,
    /// Trip candidates of the last overshooting round, kept for reuse.
    candidates: Vec<(usize, f64)>,
}

impl OvershootBreaker {
    /// A breaker over `machines` machines.
    #[must_use]
    pub fn new(machines: usize, config: BreakerConfig) -> Self {
        OvershootBreaker {
            config,
            tripped_until: vec![0; machines],
            trips: 0,
            candidates: Vec::new(),
        }
    }

    /// Total trip events so far.
    #[must_use]
    pub fn trips(&self) -> u64 {
        self.trips
    }

    /// True if `machine` must run its V/f floor in `round`.
    #[must_use]
    pub fn is_tripped(&self, round: u64, machine: usize) -> bool {
        self.tripped_until.get(machine).is_some_and(|&until| round < until)
    }

    /// Feeds one round's measured per-machine powers. If the fleet
    /// overshoots `effective_w` beyond tolerance, trips machines —
    /// heaviest overshooters first — until the projected shed covers the
    /// excess. Returns how many machines were newly tripped.
    pub fn observe(&mut self, round: u64, effective_w: f64, power_w: &[f64]) -> usize {
        let total: f64 = power_w.iter().sum();
        let excess = total - effective_w * (1.0 + self.config.rel_tol);
        if excess <= 0.0 {
            return 0;
        }
        let fair = effective_w / power_w.len().max(1) as f64;
        let mut candidates = std::mem::take(&mut self.candidates);
        candidates.clear();
        candidates.extend(
            power_w
                .iter()
                .copied()
                .enumerate()
                .filter(|&(m, p)| p > fair && !self.is_tripped(round + 1, m)),
        );
        // Ids are distinct, so the order is total and an unstable sort
        // (which needs no buffer) gives the stable one.
        candidates.sort_unstable_by(|a, b| {
            b.1.partial_cmp(&a.1)
                .unwrap_or(core::cmp::Ordering::Equal)
                .then(a.0.cmp(&b.0))
        });
        let mut shed = 0.0;
        let mut newly = 0usize;
        for &(m, p) in &candidates {
            if shed >= excess {
                break;
            }
            // Forcing the floor recovers most of a busy machine's draw.
            shed += p * 0.8;
            let hold = u64::from(self.config.hold_rounds)
                + newly as u64 * u64::from(self.config.stagger_rounds);
            self.tripped_until[m] = round + 1 + hold;
            self.trips += 1;
            newly += 1;
        }
        self.candidates = candidates;
        newly
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simx::ladder::Transition;

    fn obs(ladder: &mut DegradationLadder, rounds: &[(bool, bool)]) -> Vec<GovernorMode> {
        rounds
            .iter()
            .enumerate()
            .map(|(r, &(reach, tel))| ladder.observe(r as u64, reach, tel, true))
            .collect()
    }

    /// One allocation over a fresh table set and scratch.
    fn allocate(
        gov: &CentralGovernor,
        model: &PowerModel,
        views: &[MachineView<'_>],
        fleet_machines: usize,
    ) -> Allocation {
        let mut tables = TableSet::new(model);
        let table_of: Vec<usize> = views.iter().map(|v| tables.insert(v.ladder, v.cores)).collect();
        let mut scratch = AllocScratch::default();
        gov.allocate(&tables, views, &table_of, fleet_machines, &mut scratch);
        scratch.result
    }

    #[test]
    fn partition_demotes_to_local_after_tolerance() {
        let mut l = DegradationLadder::new();
        let modes = obs(&mut l, &[(true, true), (false, true), (false, true)]);
        assert_eq!(
            modes,
            vec![
                GovernorMode::Central,
                GovernorMode::Central,
                GovernorMode::LocalDepBurst
            ]
        );
        assert_eq!(l.log.transitions().len(), 1);
        assert_eq!(l.log.transitions()[0].reason, "partition");
    }

    #[test]
    fn sustained_loss_walks_the_whole_ladder_down() {
        let mut l = DegradationLadder::new();
        let modes = obs(&mut l, &[(true, false); 2 * LOSS_TOLERANCE as usize]);
        assert_eq!(
            modes[LOSS_TOLERANCE as usize - 1],
            GovernorMode::LocalDepBurst,
            "loss demotes central"
        );
        assert_eq!(
            *modes.last().unwrap(),
            GovernorMode::FallbackMax,
            "continued loss reaches the hardened fallback"
        );
        assert!(l.log.monotonicity_issue().is_none());
    }

    #[test]
    fn rejoin_is_hysteretic_one_rung_per_window() {
        assert_eq!(REJOIN_THRESHOLD, 3, "the rounds below assume a 3-round window");
        let mut l = DegradationLadder::new();
        l.force_fallback(0, "crash-restart");
        assert_eq!(l.mode(), GovernorMode::FallbackMax);
        // Two healthy rounds are not enough; flapping resets the window.
        l.observe(1, true, true, true);
        l.observe(2, true, true, true);
        l.observe(3, false, true, true);
        assert_eq!(l.mode(), GovernorMode::FallbackMax);
        // A full window climbs exactly one rung...
        for r in 4..7 {
            l.observe(r, true, true, true);
        }
        assert_eq!(l.mode(), GovernorMode::LocalDepBurst);
        // ...and the next rung needs its own full window.
        l.observe(7, true, true, true);
        l.observe(8, true, true, true);
        assert_eq!(l.mode(), GovernorMode::LocalDepBurst);
        l.observe(9, true, true, true);
        assert_eq!(l.mode(), GovernorMode::Central);
        assert!(l.log.monotonicity_issue().is_none());
    }

    #[test]
    fn mode_sequence_is_a_pure_function_of_observations() {
        let pattern: Vec<(bool, bool)> = (0..40)
            .map(|r| (r % 7 != 0, r % 5 != 0))
            .collect();
        let mut a = DegradationLadder::new();
        let mut b = DegradationLadder::new();
        assert_eq!(obs(&mut a, &pattern), obs(&mut b, &pattern));
        assert_eq!(a.log.transitions(), b.log.transitions());
    }

    #[test]
    fn monotonicity_catches_a_forged_multi_rung_rejoin() {
        let mut l = DegradationLadder::new();
        l.log.forge(Transition {
            round: 1,
            from: GovernorMode::FallbackMax,
            to: GovernorMode::Central,
            reason: "forged",
        });
        assert!(l.log.monotonicity_issue().unwrap().contains("multi-rung"));
    }

    fn ladder() -> FreqLadder {
        FreqLadder::paper_default()
    }

    #[test]
    fn allocation_respects_budget_and_ladders() {
        let model = PowerModel::haswell_22nm();
        let l = ladder();
        let views: Vec<MachineView<'_>> = (0..4)
            .map(|id| MachineView {
                id,
                ladder: &l,
                scaling_s: 0.8 + 0.1 * id as f64,
                fixed_s: 0.2,
                cores: 4,
            })
            .collect();
        let gov = CentralGovernor::new(200.0);
        let alloc = allocate(&gov, &model, &views, 4);
        assert!(alloc.power_w <= alloc.available_w + 1e-9);
        for (f, v) in alloc.freqs.iter().zip(&views) {
            assert!(v.ladder.contains(*f), "{f:?} not on the ladder");
        }
        // The heaviest machine (largest scaling_s) gets at least as much
        // frequency as the lightest.
        assert!(alloc.freqs[3] >= alloc.freqs[0]);
    }

    #[test]
    fn huge_budget_pins_everyone_at_max_and_zero_budget_at_min() {
        let model = PowerModel::haswell_22nm();
        let l = ladder();
        let views: Vec<MachineView<'_>> = (0..3)
            .map(|id| MachineView {
                id,
                ladder: &l,
                scaling_s: 1.0,
                fixed_s: 0.1,
                cores: 4,
            })
            .collect();
        let rich = allocate(&CentralGovernor::new(1e6), &model, &views, 3);
        assert!(rich.freqs.iter().all(|&f| f == l.max()));
        let poor = allocate(&CentralGovernor::new(0.0), &model, &views, 3);
        assert!(poor.freqs.iter().all(|&f| f == l.min()));
    }

    #[test]
    fn unreachable_machines_reserve_their_budget_share() {
        let model = PowerModel::haswell_22nm();
        let l = ladder();
        let views = vec![MachineView {
            id: 0,
            ladder: &l,
            scaling_s: 1.0,
            fixed_s: 0.1,
            cores: 4,
        }];
        let gov = CentralGovernor::new(400.0);
        let alone = allocate(&gov, &model, &views, 1);
        let shared = allocate(&gov, &model, &views, 4);
        assert!((alone.available_w - 400.0).abs() < 1e-9);
        assert!((shared.available_w - 100.0).abs() < 1e-9);
        assert!(shared.freqs[0] <= alone.freqs[0]);
    }

    #[test]
    fn latency_ties_go_to_the_lower_id_whatever_the_view_order() {
        let model = PowerModel::haswell_22nm();
        let l = ladder();
        // Identical machines tie on every notch; the budget raises only
        // some of them, so the tie-break decides who.
        let views: Vec<MachineView<'_>> = (0..6)
            .map(|id| MachineView {
                id: 10 + id,
                ladder: &l,
                scaling_s: 1.0,
                fixed_s: 0.1,
                cores: 4,
            })
            .collect();
        let gov = CentralGovernor::new(6.0 * 30.0);
        let forward = allocate(&gov, &model, &views, 6);
        let reversed: Vec<MachineView<'_>> = views.iter().rev().copied().collect();
        let backward = allocate(&gov, &model, &reversed, 6);
        let by_id = |views: &[MachineView<'_>], alloc: &Allocation| {
            let mut pairs: Vec<(usize, Freq)> = views
                .iter()
                .map(|v| v.id)
                .zip(alloc.freqs.iter().copied())
                .collect();
            pairs.sort_unstable();
            pairs
        };
        let forward_by_id = by_id(&views, &forward);
        assert_eq!(forward_by_id, by_id(&reversed, &backward));
        assert!(
            forward.freqs.windows(2).any(|w| w[0] != w[1]),
            "the budget must split the tied machines for the test to bite"
        );
        assert!(
            forward.freqs.windows(2).all(|w| w[0] >= w[1]),
            "lower ids win the ties"
        );
        assert_eq!(forward.power_w.to_bits(), backward.power_w.to_bits());
    }

    #[test]
    fn candidate_keys_order_like_total_cmp() {
        let values = [
            f64::NEG_INFINITY,
            -2.5,
            -f64::MIN_POSITIVE,
            -0.0,
            0.0,
            f64::MIN_POSITIVE,
            1e-300,
            0.3,
            2.5,
            f64::INFINITY,
            f64::NAN,
        ];
        for a in values {
            for b in values {
                assert_eq!(
                    Candidate::new(a, 7).cmp(&Candidate::new(b, 7)),
                    a.total_cmp(&b),
                    "{a} vs {b}"
                );
            }
            // Equal latencies: the lower rank wins the max-heap.
            assert!(Candidate::new(a, 3) > Candidate::new(a, 4));
            assert_eq!(Candidate::new(a, 5).rank(), 5);
        }
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        /// The fleet's three V/f ladder shapes plus a single-rung one.
        fn shapes() -> [FreqLadder; 4] {
            [
                FreqLadder::paper_default(),
                FreqLadder::new(Freq::from_ghz(1.0), Freq::from_ghz(3.5), 250).expect("ladder"),
                FreqLadder::new(Freq::from_mhz(1250), Freq::from_mhz(3750), 125).expect("ladder"),
                FreqLadder::new(Freq::from_mhz(2000), Freq::from_mhz(2000), 125).expect("ladder"),
            ]
        }

        proptest! {
            /// The heap allocator returns the reference scan's allocation
            /// bit for bit: same frequencies, same power, floor and
            /// slice. Machines draw their latency terms from a small
            /// pool half the time, so exact ties (same ladder, same
            /// terms, same notch) are common; ids come ascending,
            /// descending or duplicated; budgets sweep from zero to
            /// everyone at max.
            #[test]
            fn heap_allocator_matches_the_reference_scan(
                machines in proptest::collection::vec(
                    (0usize..4, 0usize..8, 0.01f64..2.0, 0.001f64..0.5),
                    0..301,
                ),
                cores in 1usize..=8,
                budget in (0u8..4, 0.0f64..=1.0),
                unreachable in 0usize..4,
                ids in 0u8..3,
            ) {
                let ladders = shapes();
                let pool = [(0.8, 0.2), (1.0, 0.1), (0.5, 0.05), (1.2, 0.3)];
                let n = machines.len();
                let views: Vec<MachineView<'_>> = machines
                    .iter()
                    .enumerate()
                    .map(|(i, &(shape, tie, scaling_s, fixed_s))| {
                        let (scaling_s, fixed_s) = pool.get(tie).copied().unwrap_or((scaling_s, fixed_s));
                        // Ascending ids as the fleet passes them, descending,
                        // or duplicated in pairs (ties fall back to position).
                        let id = match ids {
                            0 => i,
                            1 => n - 1 - i,
                            _ => i / 2,
                        };
                        MachineView { id, ladder: &ladders[shape], scaling_s, fixed_s, cores }
                    })
                    .collect();
                let model = PowerModel::haswell_22nm();
                let fleet = views.len() + unreachable;
                let full = vec![1.0; cores];
                let floor_w: f64 = views.iter().map(|v| model.power(v.ladder.min(), &full).total()).sum();
                let max_w: f64 = views.iter().map(|v| model.power(v.ladder.max(), &full).total()).sum();
                // Slice watts: zero, the floor, everyone at max, or a
                // fraction of the way from the floor to the max.
                let (kind, frac) = budget;
                let slice_w = match kind {
                    0 => 0.0,
                    1 => floor_w,
                    2 => max_w,
                    _ => floor_w + frac * (max_w - floor_w),
                };
                let gov = CentralGovernor::new(slice_w * fleet.max(1) as f64 / views.len().max(1) as f64);
                let heap = allocate(&gov, &model, &views, fleet);
                let scan = gov.allocate_scan(&model, &views, fleet);
                prop_assert_eq!(&heap.freqs, &scan.freqs);
                prop_assert_eq!(heap.power_w.to_bits(), scan.power_w.to_bits());
                prop_assert_eq!(heap.floor_w.to_bits(), scan.floor_w.to_bits());
                prop_assert_eq!(heap.available_w.to_bits(), scan.available_w.to_bits());
            }

            /// One long-lived table set and scratch serve many slices, as
            /// in the fleet's round loop: each slice mixes ladders and
            /// core counts, arrives in shuffled order (ids unsorted, and
            /// duplicated in pairs for some slices) and gets its own
            /// budget. The shared tables must give a fresh table set's
            /// and the reference scan's allocation bit for bit.
            #[test]
            fn indexed_allocator_reuses_one_table_set_across_slices(
                slices in proptest::collection::vec(
                    (
                        proptest::collection::vec(
                            (0usize..4, 1usize..=8, 0usize..8, 0.01f64..2.0, 0.001f64..0.5, 0u64..u64::MAX),
                            0..121,
                        ),
                        (0u8..4, 0.0f64..=1.0),
                        0usize..4,
                        0u8..2,
                    ),
                    1..13,
                ),
            ) {
                let ladders = shapes();
                let pool = [(0.8, 0.2), (1.0, 0.1), (0.5, 0.05), (1.2, 0.3)];
                let model = PowerModel::haswell_22nm();
                let mut tables = TableSet::new(&model);
                let mut scratch = AllocScratch::default();
                for (machines, (kind, frac), unreachable, paired) in &slices {
                    let mut order: Vec<usize> = (0..machines.len()).collect();
                    order.sort_by_key(|&i| machines[i].5);
                    let views: Vec<MachineView<'_>> = order
                        .iter()
                        .map(|&i| {
                            let (shape, cores, tie, scaling_s, fixed_s, _) = machines[i];
                            let (scaling_s, fixed_s) = pool.get(tie).copied().unwrap_or((scaling_s, fixed_s));
                            let id = if *paired == 1 { i / 2 } else { i };
                            MachineView { id, ladder: &ladders[shape], scaling_s, fixed_s, cores }
                        })
                        .collect();
                    let table_of: Vec<usize> =
                        views.iter().map(|v| tables.insert(v.ladder, v.cores)).collect();
                    let at = |f: fn(&FreqLadder) -> Freq| -> f64 {
                        views.iter().map(|v| model.power(f(v.ladder), &vec![1.0; v.cores]).total()).sum()
                    };
                    let (floor_w, max_w) = (at(FreqLadder::min), at(FreqLadder::max));
                    let slice_w = match kind {
                        0 => 0.0,
                        1 => floor_w,
                        2 => max_w,
                        _ => floor_w + frac * (max_w - floor_w),
                    };
                    let fleet = views.len() + unreachable;
                    let gov = CentralGovernor::new(slice_w * fleet.max(1) as f64 / views.len().max(1) as f64);
                    let whole = allocate(&gov, &model, &views, fleet);
                    let scan = gov.allocate_scan(&model, &views, fleet);
                    let indexed = gov.allocate(&tables, &views, &table_of, fleet, &mut scratch);
                    for reference in [&whole, &scan] {
                        prop_assert_eq!(&indexed.freqs, &reference.freqs);
                        prop_assert_eq!(indexed.power_w.to_bits(), reference.power_w.to_bits());
                        prop_assert_eq!(indexed.floor_w.to_bits(), reference.floor_w.to_bits());
                        prop_assert_eq!(indexed.available_w.to_bits(), reference.available_w.to_bits());
                    }
                }
                // Four ladder shapes × eight core counts bound the set,
                // however many slices it served.
                prop_assert!(tables.tables.len() <= 32);
            }
        }
    }

    #[test]
    fn local_governor_honors_the_slowdown_bound_on_the_ladder() {
        let l = ladder();
        let view = MachineView {
            id: 0,
            ladder: &l,
            scaling_s: 0.9,
            fixed_s: 0.3,
            cores: 4,
        };
        let f = LocalGovernor::new(0.10).choose(&view);
        assert!(l.contains(f));
        let bound = view.service_time(l.max()) * 1.10;
        assert!(view.service_time(f) <= bound + 1e-12);
        // A zero bound forces the maximum.
        assert_eq!(LocalGovernor::new(0.0).choose(&view), l.max());
    }

    #[test]
    fn thermal_emergency_blocks_rejoin_but_never_demotes() {
        // A thermally-unhappy but connected machine stays where it is.
        let mut hot = DegradationLadder::new();
        for r in 0..6 {
            assert_eq!(
                hot.observe(r, true, true, false),
                GovernorMode::Central,
                "thermal distress alone must not demote"
            );
        }
        // After a partition heals, a thermal emergency holds the rejoin.
        let mut l = DegradationLadder::new();
        l.observe(0, false, true, true);
        l.observe(1, false, true, true);
        assert_eq!(l.mode(), GovernorMode::LocalDepBurst);
        for r in 2..8 {
            assert_eq!(
                l.observe(r, true, true, false),
                GovernorMode::LocalDepBurst,
                "rejoin streak must not accumulate while throttling"
            );
        }
        // Only a full healthy window after the emergency rejoins.
        let rejoin = 8 + u64::from(REJOIN_THRESHOLD) - 1;
        for r in 8..rejoin {
            assert_eq!(l.observe(r, true, true, true), GovernorMode::LocalDepBurst);
        }
        assert_eq!(l.observe(rejoin, true, true, true), GovernorMode::Central);
        assert!(l.log.monotonicity_issue().is_none());
    }

    #[test]
    fn hierarchy_starts_equal_and_conserves_the_budget() {
        let h = HierarchicalGovernor::new(4);
        assert_eq!(h.regions(), 4);
        let total: f64 = (0..4).map(|r| h.region_budget(r, 240.0)).sum();
        assert!((total - 240.0).abs() < 1e-9);
        for r in 0..4 {
            assert!((h.region_budget(r, 240.0) - 60.0).abs() < 1e-9);
        }
    }

    #[test]
    fn hierarchy_rebalance_is_damped_and_freezes_when_root_is_down() {
        let mut h = HierarchicalGovernor::new(2);
        // Root down: shares frozen no matter the demand skew.
        h.rebalance(&[10.0, 0.0], &[], true);
        assert!((h.shares()[0] - 0.5).abs() < 1e-12);
        // Root up: one step moves partway toward demand, not all the way.
        h.rebalance(&[3.0, 1.0], &[], false);
        assert!(h.shares()[0] > 0.5 && h.shares()[0] < 0.75);
        let after_one = h.shares()[0];
        // Repeated steps converge toward the demand split.
        for _ in 0..50 {
            h.rebalance(&[3.0, 1.0], &[], false);
        }
        assert!(h.shares()[0] > after_one);
        assert!((h.shares()[0] - 0.75).abs() < HierarchicalGovernor::DEADBAND + 1e-9);
        let total: f64 = h.shares().iter().sum();
        assert!((total - 1.0).abs() < 1e-9);
    }

    #[test]
    fn hierarchy_deadband_suppresses_small_swings() {
        let mut h = HierarchicalGovernor::new(2);
        h.rebalance(&[1.01, 0.99], &[], false);
        assert!((h.shares()[0] - 0.5).abs() < 1e-12, "inside the deadband nothing moves");
    }

    #[test]
    fn breaker_ignores_fleets_inside_the_budget() {
        let mut b = OvershootBreaker::new(3, BreakerConfig::default());
        assert_eq!(b.observe(0, 300.0, &[100.0, 100.0, 100.0]), 0);
        assert_eq!(b.trips(), 0);
        assert!(!b.is_tripped(1, 0));
    }

    #[test]
    fn breaker_trips_heaviest_overshooters_with_staggered_release() {
        let cfg = BreakerConfig {
            rel_tol: 0.10,
            hold_rounds: 2,
            stagger_rounds: 3,
        };
        let mut b = OvershootBreaker::new(3, cfg);
        // 420 W against a 200 W budget: machine 2 then machine 1 trip.
        let newly = b.observe(5, 200.0, &[60.0, 160.0, 200.0]);
        assert_eq!(newly, 2);
        assert_eq!(b.trips(), 2);
        assert!(!b.is_tripped(6, 0), "the light machine rides through");
        assert!(b.is_tripped(6, 1) && b.is_tripped(6, 2));
        // First trip (machine 2) holds 2 rounds, second adds one stagger.
        assert!(!b.is_tripped(8, 2));
        assert!(b.is_tripped(8, 1));
        assert!(!b.is_tripped(11, 1));
    }

    #[test]
    fn breaker_is_deterministic_on_ties() {
        let mut a = OvershootBreaker::new(4, BreakerConfig::default());
        let mut b = OvershootBreaker::new(4, BreakerConfig::default());
        let powers = [150.0, 150.0, 150.0, 150.0];
        a.observe(0, 300.0, &powers);
        b.observe(0, 300.0, &powers);
        for m in 0..4 {
            assert_eq!(a.is_tripped(1, m), b.is_tripped(1, m));
        }
    }
}
