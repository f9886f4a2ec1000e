//! Fleet topology and the seeded deterministic chaos schedule.
//!
//! The ROADMAP's north star is a fleet-scale energy-management service: a
//! central DVFS governor allocating frequencies to many machines under a
//! global power budget. This module holds the simulator-side substrate —
//! how machines map onto shards, how per-machine random streams derive
//! from one fleet seed, and the **chaos schedule**: a pure function of
//! `(ChaosConfig, machines, rounds, regions)` stating, for every round
//! and machine, which fleet-level faults are active, and for every round
//! which governor tiers are down and how deep the brownout cuts.
//!
//! Design rules, inherited from [`crate::faults`]:
//!
//! * every stream is a per-(class, machine) [`SplitMix64`], so one
//!   machine's chaos never perturbs another's and one class's intensity
//!   never shifts another class's draws;
//! * zero intensity consumes no randomness: an all-zero [`ChaosConfig`]
//!   yields a schedule of default [`ChaosState`]s, bit-identical to not
//!   generating one at all;
//! * crash and partition faults are *outages with duration* (a machine
//!   that crashes stays down for a drawn number of rounds, then
//!   restarts); telemetry dropout and staleness are per-round Bernoulli
//!   events; a slow link delays a round's telemetry by one to three
//!   rounds.

use depburst_core::stablehash::SplitMix64;

/// How machines map onto shards, and how per-machine streams derive from
/// the fleet seed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FleetTopology {
    /// Number of simulated machines.
    pub machines: usize,
    /// Number of shards machines are partitioned into (contiguous
    /// blocks; clamped to `[1, machines]`).
    pub shards: usize,
    /// The fleet seed every per-machine stream derives from.
    pub seed: u64,
}

impl FleetTopology {
    /// A topology of `machines` machines in `shards` contiguous shards.
    #[must_use]
    pub fn new(machines: usize, shards: usize, seed: u64) -> Self {
        let machines = machines.max(1);
        FleetTopology {
            machines,
            shards: shards.clamp(1, machines),
            seed,
        }
    }

    /// The shard owning `machine`. Machines are split into contiguous
    /// blocks, the first `machines % shards` shards holding one extra.
    #[must_use]
    pub fn shard_of(&self, machine: usize) -> usize {
        let base = self.machines / self.shards;
        let extra = self.machines % self.shards;
        // The first `extra` shards hold `base + 1` machines each.
        let boundary = extra * (base + 1);
        if machine < boundary {
            machine / (base + 1)
        } else {
            extra + (machine - boundary) / base
        }
    }

    /// The machines of `shard`, as a contiguous range.
    #[must_use]
    pub fn machines_in(&self, shard: usize) -> std::ops::Range<usize> {
        let base = self.machines / self.shards;
        let extra = self.machines % self.shards;
        let start = shard.min(extra) * (base + 1) + shard.saturating_sub(extra) * base;
        let len = base + usize::from(shard < extra);
        start..(start + len).min(self.machines)
    }

    /// The per-machine seed for machine-local streams (traffic, local
    /// decisions). Derived, not sequential, so adjacent machines'
    /// streams are uncorrelated.
    #[must_use]
    pub fn machine_seed(&self, machine: usize) -> u64 {
        SplitMix64::new(self.seed ^ (machine as u64).wrapping_mul(0xA076_1D64_78BD_642F)).next_u64()
    }
}

/// The region owning `machine` when `machines` machines tile `regions`
/// contiguous regions (the first `machines % regions` regions holding
/// one extra — the same tiling as [`FleetTopology::shard_of`]). Regions
/// are the governor hierarchy's granularity; shards remain the parallel
/// stepping granularity, and the two tilings are independent.
#[must_use]
pub fn region_of(machines: usize, regions: usize, machine: usize) -> usize {
    let machines = machines.max(1);
    let regions = regions.clamp(1, machines);
    let base = machines / regions;
    let extra = machines % regions;
    let boundary = extra * (base + 1);
    if machine < boundary {
        machine / (base + 1)
    } else {
        (extra + (machine - boundary) / base).min(regions - 1)
    }
}

/// Per-class chaos intensities (each in `[0, 1]`; zero disables the
/// class) plus the seed every chaos stream derives from. The fleet
/// counterpart of [`crate::FaultConfig`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChaosConfig {
    /// Seed for all chaos streams (independent of the workload seed).
    pub seed: u64,
    /// Machine crash/restart outages.
    pub crash: f64,
    /// Per-round whole-telemetry loss.
    pub telemetry_loss: f64,
    /// Per-round stale (previous-round) telemetry delivery.
    pub stale_telemetry: f64,
    /// Governor↔machine partition outages.
    pub partition: f64,
    /// Per-round slow-link telemetry delay.
    pub slow_link: f64,
    /// Thermal-sensor-stuck windows (the software throttle ladder goes
    /// blind; the hardware trip still reads the true temperature).
    pub sensor_stuck: f64,
    /// Region-aggregator (and, on its own stream, root-governor) crash
    /// outages.
    pub aggregator_crash: f64,
    /// Power-brownout windows: the global budget drops to a drawn
    /// fraction for the window's duration.
    pub brownout: f64,
    /// Mean duration, in rounds, of crash and partition outages.
    pub mean_outage_rounds: u32,
}

impl ChaosConfig {
    /// An inert configuration: every class disabled.
    #[must_use]
    pub fn none(seed: u64) -> Self {
        ChaosConfig {
            seed,
            crash: 0.0,
            telemetry_loss: 0.0,
            stale_telemetry: 0.0,
            partition: 0.0,
            slow_link: 0.0,
            sensor_stuck: 0.0,
            aggregator_crash: 0.0,
            brownout: 0.0,
            mean_outage_rounds: 6,
        }
    }

    /// Every *legacy* class at the same intensity (the fleet binary's
    /// single `--chaos` knob). The thermal/hierarchy classes
    /// (sensor-stuck, aggregator-crash, brownout) stay at zero: they are
    /// opt-in knobs, and keeping them out of `uniform` pins every
    /// pre-thermal chaos run — including the committed fleet goldens —
    /// byte-identical.
    #[must_use]
    pub fn uniform(intensity: f64, seed: u64) -> Self {
        let i = intensity.clamp(0.0, 1.0);
        ChaosConfig {
            crash: i,
            telemetry_loss: i,
            stale_telemetry: i,
            partition: i,
            slow_link: i,
            ..Self::none(seed)
        }
    }
}

/// The chaos active on one machine in one round.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ChaosState {
    /// The machine is down (crashed, not yet restarted).
    pub crashed: bool,
    /// This round's telemetry is lost entirely.
    pub telemetry_lost: bool,
    /// This round's telemetry delivers the previous round's snapshot.
    pub stale: bool,
    /// The governor↔machine control link is partitioned.
    pub partitioned: bool,
    /// Rounds this round's telemetry is delayed by the slow link
    /// (0 = on time).
    pub link_delay: u8,
    /// The machine's thermal sensor is stuck at its last reading.
    pub sensor_stuck: bool,
}

impl ChaosState {
    /// True if no chaos touches the machine this round.
    #[must_use]
    pub fn is_clear(&self) -> bool {
        *self == ChaosState::default()
    }
}

/// Per-class stream salts, in the style of [`crate::faults`].
const CRASH_SALT: u64 = 0x0063_7261_7368;
const LOSS_SALT: u64 = 0x6C6F_7373;
const STALE_SALT: u64 = 0x0073_7461_6C65;
const PARTITION_SALT: u64 = 0x7061_7274;
const LINK_SALT: u64 = 0x6C69_6E6B;
const STUCK_SALT: u64 = 0x0073_7475_636B;
const REGION_SALT: u64 = 0x7265_6769_6F6E;
const ROOT_SALT: u64 = 0x726F_6F74;
const BROWNOUT_SALT: u64 = 0x62726F776E;
const BROWNOUT_DEPTH_SALT: u64 = 0x6465707468;

/// Per-round event probability at intensity 1.0 for the Bernoulli
/// classes (dropout, staleness, slow link).
const BERNOULLI_RATE: f64 = 0.35;

/// Per-round outage-start probability at intensity 1.0 for the windowed
/// classes (crash, partition), while no outage is in progress.
const OUTAGE_RATE: f64 = 0.08;

/// The full chaos schedule of a fleet run: for every `(round, machine)`,
/// the active [`ChaosState`]. A pure function of
/// `(ChaosConfig, machines, rounds)` — regenerating it, on any worker
/// count, in any process, yields identical states.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChaosSchedule {
    machines: usize,
    rounds: usize,
    regions: usize,
    /// Round-major: `states[round * machines + machine]`.
    states: Vec<ChaosState>,
    /// Round-major: `aggregator_down[round * regions + region]`.
    aggregator_down: Vec<bool>,
    /// Per round: the root governor is down.
    root_down: Vec<bool>,
    /// Per round: the global-budget multiplier in thousandths
    /// (1000 = full budget; a brownout window holds a drawn fraction).
    budget_milli: Vec<u16>,
    /// Distinct crash outages, counted while generating.
    crash_events: usize,
    /// Distinct partition outages, counted while generating.
    partition_events: usize,
}

impl ChaosSchedule {
    /// Generates the schedule for a fleet of `regions` regions. Each
    /// (class, machine) pair draws from its own salted stream, walked over
    /// the rounds in order; disabled classes consume no randomness at
    /// all. On top come one aggregator-outage stream per region, one
    /// root-outage stream, and the global brownout stream. The region
    /// count only adds streams — it never shifts the per-machine draws,
    /// so a one-region schedule's machine states equal an N-region
    /// schedule's.
    #[must_use]
    pub fn generate(config: &ChaosConfig, machines: usize, rounds: usize, regions: usize) -> Self {
        let regions = regions.clamp(1, machines.max(1));
        let mut states = vec![ChaosState::default(); rounds * machines];
        let (mut crash_events, mut partition_events) = (0, 0);
        for machine in 0..machines {
            let m = machine as u64;
            let mut crash = OutageWalk::new(
                SplitMix64::keyed(config.seed ^ CRASH_SALT, m),
                config.crash,
                config.mean_outage_rounds,
            );
            let mut partition = OutageWalk::new(
                SplitMix64::keyed(config.seed ^ PARTITION_SALT, m),
                config.partition,
                config.mean_outage_rounds,
            );
            let mut stuck = OutageWalk::new(
                SplitMix64::keyed(config.seed ^ STUCK_SALT, m),
                config.sensor_stuck,
                config.mean_outage_rounds,
            );
            let mut loss = SplitMix64::keyed(config.seed ^ LOSS_SALT, m);
            let mut stale = SplitMix64::keyed(config.seed ^ STALE_SALT, m);
            let mut link = SplitMix64::keyed(config.seed ^ LINK_SALT, m);
            let (mut was_crashed, mut was_partitioned) = (false, false);
            for round in 0..rounds {
                let state = &mut states[round * machines + machine];
                state.crashed = crash.step();
                state.partitioned = partition.step();
                crash_events += usize::from(state.crashed && !was_crashed);
                partition_events += usize::from(state.partitioned && !was_partitioned);
                (was_crashed, was_partitioned) = (state.crashed, state.partitioned);
                state.sensor_stuck = stuck.step();
                state.telemetry_lost = loss.chance(config.telemetry_loss * BERNOULLI_RATE);
                state.stale = stale.chance(config.stale_telemetry * BERNOULLI_RATE);
                if link.chance(config.slow_link * BERNOULLI_RATE) {
                    // One to three rounds of delay; the draw is made only
                    // when the event fires, so lower intensities do not
                    // shift later rounds' delays.
                    state.link_delay = 1 + (link.next_u64() % 3) as u8;
                }
            }
        }

        // Governor-tier outages: one windowed walk per region aggregator
        // plus one for the root, all on the aggregator-crash intensity.
        let mut aggregator_down = vec![false; rounds * regions];
        for region in 0..regions {
            let mut walk = OutageWalk::new(
                SplitMix64::keyed(config.seed ^ REGION_SALT, region as u64),
                config.aggregator_crash,
                config.mean_outage_rounds,
            );
            for round in 0..rounds {
                aggregator_down[round * regions + region] = walk.step();
            }
        }
        let mut root_walk = OutageWalk::new(
            SplitMix64::new(config.seed ^ ROOT_SALT),
            config.aggregator_crash,
            config.mean_outage_rounds,
        );
        let root_down: Vec<bool> = (0..rounds).map(|_| root_walk.step()).collect();

        // Brownouts: a windowed walk; the budget fraction of each window
        // is drawn once, from its own stream, only when a window starts.
        let mut brown_walk = OutageWalk::new(
            SplitMix64::new(config.seed ^ BROWNOUT_SALT),
            config.brownout,
            config.mean_outage_rounds,
        );
        let mut depth_rng = SplitMix64::new(config.seed ^ BROWNOUT_SALT ^ BROWNOUT_DEPTH_SALT);
        let mut budget_milli = vec![1000u16; rounds];
        let mut prev = false;
        let mut depth = 1000u16;
        for slot in &mut budget_milli {
            let down = brown_walk.step();
            if down && !prev {
                // Uniform in [550, 850] thousandths: a 15–45% budget cut.
                depth = 550 + (depth_rng.next_u64() % 301) as u16;
            }
            if down {
                *slot = depth;
            }
            prev = down;
        }

        ChaosSchedule {
            machines,
            rounds,
            regions,
            states,
            aggregator_down,
            root_down,
            budget_milli,
            crash_events,
            partition_events,
        }
    }

    /// Number of regions the governor-tier streams were generated for.
    #[must_use]
    pub fn regions(&self) -> usize {
        self.regions
    }

    /// True if `region`'s aggregator is down in `round`. Out-of-range
    /// queries are healthy.
    #[must_use]
    pub fn aggregator_down(&self, round: usize, region: usize) -> bool {
        if round >= self.rounds || region >= self.regions {
            return false;
        }
        self.aggregator_down[round * self.regions + region]
    }

    /// True if the root governor is down in `round`.
    #[must_use]
    pub fn root_down(&self, round: usize) -> bool {
        self.root_down.get(round).copied().unwrap_or(false)
    }

    /// The global-budget multiplier of `round`, in thousandths
    /// (1000 = no brownout; out-of-range queries are full budget).
    #[must_use]
    pub fn budget_milli(&self, round: usize) -> u16 {
        self.budget_milli.get(round).copied().unwrap_or(1000)
    }

    /// Rounds spent in a brownout window.
    #[must_use]
    pub fn brownout_rounds(&self) -> usize {
        self.budget_milli.iter().filter(|&&m| m < 1000).count()
    }

    /// Distinct governor-tier outages (region-aggregator plus root
    /// down-transitions).
    #[must_use]
    pub fn aggregator_events(&self) -> usize {
        let mut events = 0;
        for region in 0..self.regions {
            let mut prev = false;
            for round in 0..self.rounds {
                let now = self.aggregator_down[round * self.regions + region];
                events += usize::from(now && !prev);
                prev = now;
            }
        }
        let mut prev = false;
        for round in 0..self.rounds {
            let now = self.root_down[round];
            events += usize::from(now && !prev);
            prev = now;
        }
        events
    }

    /// Every machine's chaos in `round`, indexed by machine id: one row of
    /// the schedule, so a fleet round reads its states without a range
    /// check per machine. Past the horizon the row is empty.
    #[must_use]
    pub fn round_states(&self, round: usize) -> &[ChaosState] {
        self.states
            .get(round * self.machines..(round + 1) * self.machines)
            .unwrap_or(&[])
    }

    /// The chaos on `machine` in `round`. Out-of-range queries (a fleet
    /// loop probing past the horizon) are clear.
    #[must_use]
    pub fn state(&self, round: usize, machine: usize) -> ChaosState {
        if round >= self.rounds || machine >= self.machines {
            return ChaosState::default();
        }
        self.states[round * self.machines + machine]
    }

    /// Number of scheduled rounds.
    #[must_use]
    pub fn rounds(&self) -> usize {
        self.rounds
    }

    /// True if no `(round, machine)` cell, governor-tier stream, or
    /// brownout window carries any chaos.
    #[must_use]
    pub fn is_clear(&self) -> bool {
        self.states.iter().all(ChaosState::is_clear)
            && !self.aggregator_down.iter().any(|&d| d)
            && !self.root_down.iter().any(|&d| d)
            && self.budget_milli.iter().all(|&m| m == 1000)
    }

    /// How many distinct crash outages (down-transitions) the schedule
    /// contains, summed over machines.
    #[must_use]
    pub fn crash_events(&self) -> usize {
        self.crash_events
    }

    /// How many distinct partition outages the schedule contains.
    #[must_use]
    pub fn partition_events(&self) -> usize {
        self.partition_events
    }

    /// The down-transitions of `flag` by rescanning every cell: the
    /// definition the counts kept while generating must equal.
    #[cfg(test)]
    fn transitions(&self, flag: impl Fn(&ChaosState) -> bool) -> usize {
        let mut events = 0;
        for machine in 0..self.machines {
            let mut prev = false;
            for round in 0..self.rounds {
                let now = flag(&self.states[round * self.machines + machine]);
                events += usize::from(now && !prev);
                prev = now;
            }
        }
        events
    }
}

/// A windowed-outage walk: while healthy, each round draws the start
/// event; on a start, the outage duration is drawn once and the walk
/// reports "down" for that many rounds. At zero intensity no randomness
/// is consumed.
#[derive(Debug)]
struct OutageWalk {
    rng: SplitMix64,
    intensity: f64,
    mean_rounds: u32,
    remaining: u32,
}

impl OutageWalk {
    fn new(rng: SplitMix64, intensity: f64, mean_rounds: u32) -> Self {
        OutageWalk {
            rng,
            intensity,
            mean_rounds: mean_rounds.max(1),
            remaining: 0,
        }
    }

    fn step(&mut self) -> bool {
        if self.remaining > 0 {
            self.remaining -= 1;
            return true;
        }
        if self.rng.chance(self.intensity * OUTAGE_RATE) {
            // Uniform in [1, 2·mean − 1]: mean `mean_rounds`, never zero.
            let span = u64::from(2 * self.mean_rounds - 1);
            self.remaining = (1 + self.rng.next_u64() % span) as u32;
            self.remaining -= 1; // this round is the first down round
            return true;
        }
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shards_partition_the_machines_contiguously() {
        for (machines, shards) in [(1, 1), (8, 2), (10, 3), (7, 7), (5, 9)] {
            let topo = FleetTopology::new(machines, shards, 1);
            let mut covered = Vec::new();
            for shard in 0..topo.shards {
                for m in topo.machines_in(shard) {
                    assert_eq!(topo.shard_of(m), shard, "{machines}/{shards} machine {m}");
                    covered.push(m);
                }
            }
            assert_eq!(
                covered,
                (0..machines).collect::<Vec<_>>(),
                "{machines} machines over {shards} shards must tile exactly"
            );
        }
    }

    #[test]
    fn machine_seeds_are_deterministic_and_distinct() {
        let topo = FleetTopology::new(16, 4, 99);
        let seeds: Vec<u64> = (0..16).map(|m| topo.machine_seed(m)).collect();
        let again: Vec<u64> = (0..16).map(|m| topo.machine_seed(m)).collect();
        assert_eq!(seeds, again);
        let mut unique = seeds.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), seeds.len(), "per-machine seeds must differ");
    }

    #[test]
    fn zero_intensity_schedule_is_all_clear() {
        let schedule = ChaosSchedule::generate(&ChaosConfig::none(5), 8, 64, 1);
        assert!(schedule.is_clear());
        assert_eq!(schedule.crash_events(), 0);
    }

    #[test]
    fn schedule_is_a_pure_function_of_its_inputs() {
        let config = ChaosConfig::uniform(0.7, 42);
        let a = ChaosSchedule::generate(&config, 6, 80, 1);
        let b = ChaosSchedule::generate(&config, 6, 80, 1);
        assert_eq!(a, b);
        let c = ChaosSchedule::generate(&ChaosConfig::uniform(0.7, 43), 6, 80, 1);
        assert_ne!(a, c, "a different chaos seed must change the schedule");
    }

    #[test]
    fn classes_draw_from_independent_streams() {
        // Turning one class off must not shift another class's events.
        let full = ChaosSchedule::generate(&ChaosConfig::uniform(0.8, 7), 4, 60, 1);
        let mut no_crash = ChaosConfig::uniform(0.8, 7);
        no_crash.crash = 0.0;
        let partial = ChaosSchedule::generate(&no_crash, 4, 60, 1);
        for round in 0..60 {
            for m in 0..4 {
                let f = full.state(round, m);
                let p = partial.state(round, m);
                assert!(!p.crashed);
                assert_eq!(f.telemetry_lost, p.telemetry_lost);
                assert_eq!(f.stale, p.stale);
                assert_eq!(f.partitioned, p.partitioned);
                assert_eq!(f.link_delay, p.link_delay);
            }
        }
    }

    #[test]
    fn crashes_are_outages_with_duration() {
        let config = ChaosConfig {
            crash: 1.0,
            mean_outage_rounds: 4,
            ..ChaosConfig::none(3)
        };
        let schedule = ChaosSchedule::generate(&config, 2, 200, 1);
        assert!(schedule.crash_events() >= 2, "full intensity must crash");
        // Outages have duration: some crash run must span several rounds
        // (a pure per-round Bernoulli at this rate would make multi-round
        // runs rare), and machines must also spend time healthy.
        let mut longest = 0u32;
        let mut healthy = 0usize;
        for m in 0..2 {
            let mut run = 0u32;
            for round in 0..200 {
                if schedule.state(round, m).crashed {
                    run += 1;
                    longest = longest.max(run);
                } else {
                    run = 0;
                    healthy += 1;
                }
            }
        }
        assert!(longest >= 2, "no multi-round outage in 400 machine-rounds");
        assert!(healthy > 0, "machines must restart after an outage");
    }

    #[test]
    fn slow_link_delays_are_bounded() {
        let config = ChaosConfig {
            slow_link: 1.0,
            ..ChaosConfig::none(11)
        };
        let schedule = ChaosSchedule::generate(&config, 3, 100, 1);
        let mut fired = false;
        for round in 0..100 {
            for m in 0..3 {
                let d = schedule.state(round, m).link_delay;
                assert!(d <= 3);
                fired |= d > 0;
            }
        }
        assert!(fired, "full intensity must delay some telemetry");
    }

    #[test]
    fn out_of_range_queries_are_clear() {
        let schedule = ChaosSchedule::generate(&ChaosConfig::uniform(1.0, 1), 2, 10, 1);
        assert!(schedule.state(10, 0).is_clear());
        assert!(schedule.state(0, 2).is_clear());
    }

    #[test]
    fn generation_time_event_counts_equal_a_rescan() {
        for (config, machines, rounds, regions) in [
            (ChaosConfig::none(5), 8, 64, 1),
            (ChaosConfig::uniform(0.7, 42), 6, 80, 1),
            (ChaosConfig::uniform(1.0, 3), 33, 200, 4),
            (
                ChaosConfig {
                    mean_outage_rounds: 1,
                    ..ChaosConfig::uniform(0.9, 8)
                },
                5,
                150,
                2,
            ),
            (ChaosConfig::uniform(0.5, 9), 7, 0, 1),
        ] {
            let s = ChaosSchedule::generate(&config, machines, rounds, regions);
            assert_eq!(s.crash_events(), s.transitions(|c| c.crashed), "{config:?}");
            assert_eq!(
                s.partition_events(),
                s.transitions(|c| c.partitioned),
                "{config:?}"
            );
        }
        assert!(
            ChaosSchedule::generate(&ChaosConfig::uniform(1.0, 3), 33, 200, 1).crash_events() > 0
        );
    }

    #[test]
    fn round_rows_are_the_per_machine_states() {
        let schedule = ChaosSchedule::generate(&ChaosConfig::uniform(0.8, 4), 5, 30, 1);
        for round in 0..30 {
            let row = schedule.round_states(round);
            assert_eq!(row.len(), 5);
            for (m, state) in row.iter().enumerate() {
                assert_eq!(*state, schedule.state(round, m));
            }
        }
        assert!(schedule.round_states(30).is_empty());
    }

    fn storm(seed: u64) -> ChaosConfig {
        ChaosConfig {
            sensor_stuck: 0.8,
            aggregator_crash: 0.8,
            brownout: 0.8,
            ..ChaosConfig::none(seed)
        }
    }

    #[test]
    fn regions_tile_the_machines_contiguously() {
        for (machines, regions) in [(1, 1), (9, 3), (10, 3), (7, 7), (5, 9)] {
            let mut covered = Vec::new();
            let r = regions.clamp(1, machines);
            for region in 0..r {
                for m in 0..machines {
                    if region_of(machines, regions, m) == region {
                        covered.push(m);
                    }
                }
            }
            covered.sort_unstable();
            assert_eq!(covered, (0..machines).collect::<Vec<_>>());
            // Contiguity: region index is non-decreasing in machine id.
            let ids: Vec<usize> = (0..machines).map(|m| region_of(machines, regions, m)).collect();
            assert!(ids.windows(2).all(|w| w[0] <= w[1]), "{ids:?}");
        }
    }

    #[test]
    fn new_classes_are_windowed_bounded_and_deterministic() {
        let schedule = ChaosSchedule::generate(&storm(13), 6, 200, 3);
        assert_eq!(schedule, ChaosSchedule::generate(&storm(13), 6, 200, 3));
        assert!(schedule.aggregator_events() > 0, "aggregators must crash");
        assert!(schedule.brownout_rounds() > 0, "brownouts must occur");
        let mut stuck_rounds = 0;
        for round in 0..200 {
            let milli = schedule.budget_milli(round);
            assert!(milli == 1000 || (550..=850).contains(&milli), "depth {milli}");
            for m in 0..6 {
                stuck_rounds += usize::from(schedule.state(round, m).sensor_stuck);
            }
        }
        assert!(stuck_rounds > 0, "sensors must stick");
        // Out-of-range queries are healthy.
        assert!(!schedule.aggregator_down(200, 0));
        assert!(!schedule.aggregator_down(0, 3));
        assert!(!schedule.root_down(200));
        assert_eq!(schedule.budget_milli(200), 1000);
    }

    #[test]
    fn region_count_never_shifts_per_machine_draws() {
        let config = ChaosConfig {
            sensor_stuck: 0.6,
            ..ChaosConfig::uniform(0.7, 21)
        };
        let one = ChaosSchedule::generate(&config, 5, 80, 1);
        let four = ChaosSchedule::generate(&config, 5, 80, 4);
        for round in 0..80 {
            for m in 0..5 {
                assert_eq!(one.state(round, m), four.state(round, m));
            }
        }
    }

    #[test]
    fn inert_new_classes_draw_nothing_and_clear_schedules_stay_clear() {
        // Legacy-only chaos: the governor-tier and brownout streams must
        // be all-healthy, and the machine states must equal a schedule
        // generated before those streams existed (same seeds, same
        // draws).
        let legacy = ChaosSchedule::generate(&ChaosConfig::uniform(0.5, 7), 4, 60, 3);
        for round in 0..60 {
            assert!(!legacy.root_down(round));
            assert_eq!(legacy.budget_milli(round), 1000);
            for r in 0..3 {
                assert!(!legacy.aggregator_down(round, r));
            }
            for m in 0..4 {
                assert!(!legacy.state(round, m).sensor_stuck);
            }
        }
        assert!(ChaosSchedule::generate(&ChaosConfig::none(5), 4, 60, 3).is_clear());
        assert!(!ChaosSchedule::generate(&storm(5), 4, 200, 2).is_clear());
    }
}
