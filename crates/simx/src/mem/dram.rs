//! A banked DRAM model with row-buffer locality, per-bank queueing, and a
//! shared write-drain path.
//!
//! The point of this model (vs. a fixed latency) is the paper's §II-A
//! observation: the leading-loads predictor assumes every long-latency miss
//! costs the same, while real memory latency varies with bank conflicts,
//! row-buffer state, scheduling, and write interference. CRIT was designed
//! to survive that variability; this model supplies it.
//!
//! All DRAM timing is expressed in wall-clock time and therefore does not
//! scale with core frequency — it is the physical source of every
//! "non-scaling" component the predictors estimate.

use depburst_core::stablehash::SplitMix64;
use dvfs_trace::{Time, TimeDelta};

use crate::config::DramConfig;
use crate::cpu::{CritEstimator, LeadingLoadsEstimator};
use crate::faults::DRAM_SALT;

/// Injected read-latency perturbation (see [`crate::faults`]): models a
/// memory subsystem whose service latency is less predictable than the
/// banked model alone — thermal throttling, refresh storms, shared-bus
/// interference from devices outside the simulated chip.
#[derive(Debug, Clone)]
struct LatencyJitter {
    amplitude: f64,
    rng: SplitMix64,
}

/// Aggregate DRAM statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct DramStats {
    /// Read (line-fill) requests serviced.
    pub reads: u64,
    /// Row-buffer hits among reads.
    pub read_row_hits: u64,
    /// Line writes drained.
    pub writes: u64,
    /// Total read latency accumulated (for mean-latency reporting).
    pub total_read_latency: TimeDelta,
    /// Portion of read latency spent queued behind earlier requests.
    pub total_queue_delay: TimeDelta,
}

/// How line addresses map to (bank, row): shift/mask when the bank and
/// row counts are powers of two (the common case — the per-read step is
/// the hottest code in the whole simulator and u64 division dominates it
/// otherwise), with a division fallback for arbitrary geometries. Both
/// paths compute the exact same mapping; [`Dram::miss_rounds`] picks one
/// once per chunk.
#[derive(Debug, Clone, Copy)]
enum AddrMap {
    /// `bank = addr & bank_mask`, `row = (addr >> row_shift) & row_mask`.
    Pow2 {
        bank_mask: u64,
        row_shift: u32,
        row_mask: u64,
    },
    /// General geometry: divide/modulo as documented on `bank_and_row`.
    Div,
}

/// One memory chunk's DRAM miss rounds, as the core model plans them:
/// `width` independent miss chains each issue one read per round, rounds
/// are serialized by dependence, and the first `rounds` of the chunk's
/// `ceil(misses / width)` rounds are simulated.
#[derive(Debug, Clone, Copy)]
pub struct MissRounds<'a> {
    /// Issue time of the first round (the chunk start).
    pub start: Time,
    /// Reads in the whole chunk, simulated or not.
    pub misses: u64,
    /// Reads per round (at least 1).
    pub width: u64,
    /// Rounds to simulate, at most `ceil(misses / width)`.
    pub rounds: u64,
    /// Seed of the per-read line hash.
    pub seed: u64,
    /// Representative DRAM lines from the cache sample, walked cyclically
    /// (empty: the read index stands in for the line).
    pub lines: &'a [u64],
    /// Scaling compute charged to each round, in seconds.
    pub compute_per_round: f64,
    /// Stall-counter slack per round, in seconds.
    pub slack: f64,
    /// Dependence gap between rounds, in seconds.
    pub round_gap: f64,
}

/// What the simulated rounds of a [`MissRounds`] plan produced.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RoundsOutcome {
    /// Ground truth: the sum of each round's critical (slowest) read
    /// latency, in seconds.
    pub dram_time: f64,
    /// Stall-time counter: each round's critical latency beyond its compute
    /// and slack, summed in round order, in seconds.
    pub stall: f64,
    /// The CRIT counter over every simulated read.
    pub crit: TimeDelta,
    /// The leading-loads counter over every simulated read.
    pub leading_loads: TimeDelta,
    /// Reads simulated.
    pub issued: u64,
    /// Issue time after the last simulated round and its gap.
    pub end: Time,
}

/// A 16-bit hash of (seed, index), used to jitter miss line addresses.
#[inline(always)]
fn mix16(seed: u64, idx: u64) -> u64 {
    depburst_core::stablehash::fmix64(seed ^ idx.wrapping_mul(0x9E37_79B9_7F4A_7C15)) & 0xFFFF
}

/// `x.min(cap)` for an `x` that is not NaN, as one compare and select.
/// `f64::min` adds NaN fix-up instructions to the read path's dependence
/// chain; with `x` known to be a number the two agree for every `cap`,
/// NaN included (both return `x`).
#[inline(always)]
fn capped(x: f64, cap: f64) -> f64 {
    if cap < x {
        cap
    } else {
        x
    }
}

/// The device state one chunk's reads touch, hoisted out of [`Dram`] for
/// the duration of [`Dram::miss_rounds`]: the bank slices, the per-read
/// constants and running statistics in locals, and the address map
/// resolved to `map`. `JITTER` is whether `jitter` is set, so the
/// common jitter-free path carries no jitter code at all.
struct ReadPath<'d, M, const JITTER: bool> {
    map: M,
    bank_free: &'d mut [Time],
    open_row: &'d mut [u64],
    jitter: Option<&'d mut LatencyJitter>,
    cas: TimeDelta,
    row_miss_access: TimeDelta,
    line_transfer: TimeDelta,
    controller_overhead: TimeDelta,
    service_cap_secs: f64,
    row_hits: u64,
    total_queue_delay: TimeDelta,
    total_read_latency: TimeDelta,
}

impl<M: Fn(u64) -> (usize, u64), const JITTER: bool> ReadPath<'_, M, JITTER> {
    /// Services a read (line fill) for the line containing `line_addr`
    /// issued at `now`; returns the request's total latency, including any
    /// time queued behind earlier requests to the same bank and
    /// `write_penalty`, the bounded wait for in-progress write drains
    /// (controllers prioritise reads, so a read waits for at most the
    /// write burst currently on the bus, not the whole write backlog).
    #[inline(always)]
    fn read(&mut self, now: Time, write_penalty: TimeDelta, line_addr: u64) -> TimeDelta {
        let (bank, row) = (self.map)(line_addr);
        // Bank queueing, bounded at a few service times: the simulator
        // times whole chunks in one batch, so `bank_free` may hold
        // reservations from a concurrent chunk's *future* requests that a
        // real out-of-order controller would interleave around. The cap
        // keeps genuine contention (a couple of queued services) while
        // clipping the batch artifact.
        let queue = if self.bank_free[bank] > now {
            TimeDelta::from_secs(capped(
                self.bank_free[bank].since(now).as_secs(),
                self.service_cap_secs,
            ))
        } else {
            TimeDelta::ZERO
        };
        let start = now + queue + write_penalty;
        self.total_queue_delay += start.since(now);
        let row_hit = self.open_row[bank] == row;
        let access = if row_hit {
            self.cas
        } else {
            self.row_miss_access
        };
        let done = start + access + self.line_transfer;
        self.bank_free[bank] = done;
        self.open_row[bank] = row;

        let mut latency = self.controller_overhead + done.since(now);
        if JITTER {
            if let Some(j) = &mut self.jitter {
                latency =
                    (latency * (1.0 + j.amplitude * j.rng.next_signed())).clamp_non_negative();
            }
        }
        self.row_hits += u64::from(row_hit);
        self.total_read_latency += latency;
        latency
    }
}

/// The DRAM device shared by all cores.
#[derive(Debug, Clone)]
pub struct Dram {
    config: DramConfig,
    /// Per-bank time at which the bank becomes free.
    bank_free: Vec<Time>,
    /// Per-bank currently open row.
    open_row: Vec<u64>,
    /// Time at which the shared write-drain path becomes free.
    write_free: Time,
    stats: DramStats,
    jitter: Option<LatencyJitter>,
    addr_map: AddrMap,
    /// Hoisted per-read constants (pure functions of `config`).
    service_cap_secs: f64,
    write_cap_secs: f64,
}

impl Dram {
    /// Builds the device.
    #[must_use]
    pub fn new(config: DramConfig) -> Self {
        let banks = config.banks as usize;
        let addr_map = if config.banks.is_power_of_two() && config.rows_per_bank.is_power_of_two()
        {
            AddrMap::Pow2 {
                bank_mask: u64::from(config.banks) - 1,
                // 64 lines (4 KB) per row page: drop the bank bits and the
                // 6 in-row line bits before masking the row index.
                row_shift: config.banks.trailing_zeros() + 6,
                row_mask: u64::from(config.rows_per_bank) - 1,
            }
        } else {
            AddrMap::Div
        };
        let service_cap_secs = 3.0
            * (config.cas + config.row_miss_penalty + config.line_transfer).as_secs();
        let write_cap_secs = 4.0 * config.write_line_service.as_secs();
        Dram {
            config,
            bank_free: vec![Time::ZERO; banks],
            open_row: vec![u64::MAX; banks],
            write_free: Time::ZERO,
            stats: DramStats::default(),
            jitter: None,
            addr_map,
            service_cap_secs,
            write_cap_secs,
        }
    }

    /// Enables (`amplitude > 0`) or disables deterministic read-latency
    /// jitter. This perturbs the *ground truth* the predictors must track,
    /// not just what they observe.
    pub fn set_jitter(&mut self, amplitude: f64, seed: u64) {
        self.jitter = (amplitude > 0.0).then(|| LatencyJitter {
            amplitude: amplitude.clamp(0.0, 1.0),
            rng: SplitMix64::new(seed ^ DRAM_SALT),
        });
    }

    /// Simulates the first `plan.rounds` rounds of a chunk's DRAM misses:
    /// every read is serviced through the banked model in issue order,
    /// observed by the CRIT and leading-loads estimators, and folded into
    /// its round's critical latency. Successive reads are spread across
    /// banks and rows by a hash of the read index over the representative
    /// lines (a linear stride would alias with the bank interleave and
    /// create systematic conflicts).
    ///
    /// This is the simulator's hottest loop, so the address map and
    /// whether jitter is on are resolved once per call (one instance of
    /// the loop per combination), the device state is held in locals, the
    /// per-read step is forced inline, and its caps and the round maximum
    /// are compare-and-select rather than `f64::min`/`max`. It stays
    /// branchy on purpose: the loop is latency-bound on the `t_cursor →
    /// read → round_max → t_cursor` chain, and making the bank-busy test
    /// or the estimators branch-free lengthened that chain.
    pub fn miss_rounds(&mut self, plan: &MissRounds<'_>) -> RoundsOutcome {
        if self.jitter.is_some() {
            self.rounds_mapped::<true>(plan)
        } else {
            self.rounds_mapped::<false>(plan)
        }
    }

    #[inline(always)]
    fn rounds_mapped<const JITTER: bool>(&mut self, plan: &MissRounds<'_>) -> RoundsOutcome {
        match self.addr_map {
            AddrMap::Pow2 {
                bank_mask,
                row_shift,
                row_mask,
            } => self.rounds_with::<_, JITTER>(plan, move |line: u64| {
                ((line & bank_mask) as usize, (line >> row_shift) & row_mask)
            }),
            AddrMap::Div => {
                let banks = u64::from(self.config.banks);
                let rows = u64::from(self.config.rows_per_bank);
                self.rounds_with::<_, JITTER>(plan, move |line: u64| {
                    // 64 lines (4 KB) per row page.
                    ((line % banks) as usize, (line / banks / 64) % rows)
                })
            }
        }
    }

    #[inline(always)]
    fn rounds_with<M: Fn(u64) -> (usize, u64), const JITTER: bool>(
        &mut self,
        plan: &MissRounds<'_>,
        map: M,
    ) -> RoundsOutcome {
        let Dram {
            config,
            bank_free,
            open_row,
            write_free,
            stats,
            jitter,
            service_cap_secs,
            write_cap_secs,
            ..
        } = self;
        let mut path = ReadPath::<M, JITTER> {
            map,
            bank_free,
            open_row,
            jitter: jitter.as_mut(),
            cas: config.cas,
            row_miss_access: config.cas + config.row_miss_penalty,
            line_transfer: config.line_transfer,
            controller_overhead: config.controller_overhead,
            service_cap_secs: *service_cap_secs,
            row_hits: 0,
            total_queue_delay: stats.total_queue_delay,
            total_read_latency: stats.total_read_latency,
        };
        // Reads never move the write path, so its state is read once.
        let write_free = *write_free;
        let write_cap_secs = *write_cap_secs;
        let lines = plan.lines;
        let mut line_cursor = 0usize;
        let mut crit = CritEstimator::new();
        let mut ll = LeadingLoadsEstimator::new();
        let mut dram_time = 0.0;
        let mut stall = 0.0f64;
        let mut issued = 0u64;
        let mut t_cursor = plan.start;
        for _ in 0..plan.rounds {
            let in_round = plan.width.min(plan.misses - issued);
            // Every read of a round issues at `t_cursor`: the write
            // penalty, proportional to write-path pressure and capped at
            // one write burst's worth of bus occupancy, is per round.
            let write_penalty = if write_free > t_cursor {
                let backlog = write_free.since(t_cursor).as_secs();
                TimeDelta::from_secs(capped(backlog, write_cap_secs))
            } else {
                TimeDelta::ZERO
            };
            let mut round_max = 0.0f64;
            for idx in issued..issued + in_round {
                let base = if lines.is_empty() {
                    idx
                } else {
                    let line = lines[line_cursor];
                    line_cursor += 1;
                    if line_cursor == lines.len() {
                        line_cursor = 0;
                    }
                    line
                };
                let line = base.wrapping_add(mix16(plan.seed, idx));
                let lat = path.read(t_cursor, write_penalty, line).as_secs();
                let done = t_cursor + TimeDelta::from_secs(lat);
                crit.observe(t_cursor, done);
                ll.observe(t_cursor, done);
                // `round_max.max(lat)`: `round_max` is never NaN, and a
                // NaN `lat` leaves it unchanged either way.
                round_max = if lat > round_max { lat } else { round_max };
            }
            issued += in_round;
            dram_time += round_max;
            stall += (round_max - plan.compute_per_round - plan.slack).max(0.0);
            // Advance the issue clock past this round plus its dependence gap.
            t_cursor += TimeDelta::from_secs(round_max + plan.round_gap);
        }
        stats.reads += issued;
        stats.read_row_hits += path.row_hits;
        stats.total_queue_delay = path.total_queue_delay;
        stats.total_read_latency = path.total_read_latency;
        RoundsOutcome {
            dram_time,
            stall,
            crit: crit.non_scaling(),
            leading_loads: ll.non_scaling(),
            issued,
            end: t_cursor,
        }
    }

    /// Credits statistics for reads that were *extrapolated* rather than
    /// individually serviced (see `MachineConfig::dram_round_sample_cap`):
    /// a memory chunk that samples only a prefix of its miss rounds reports
    /// the unsimulated remainder here so aggregate read counts, row-hit
    /// rates, and mean latencies still describe the whole run.
    pub fn credit_extrapolated_reads(
        &mut self,
        reads: u64,
        row_hits: u64,
        total_latency: TimeDelta,
        queue_delay: TimeDelta,
    ) {
        self.stats.reads += reads;
        self.stats.read_row_hits += row_hits;
        self.stats.total_read_latency += total_latency;
        self.stats.total_queue_delay += queue_delay;
    }

    /// Reserves write-drain bandwidth for `lines` line writes starting at
    /// `now`; returns the time the last line has drained. Write drains
    /// occupy the shared write path and delay subsequent reads, but do not
    /// block the issuing core (the store queue does that).
    pub fn drain_writes(&mut self, now: Time, lines: u64) -> Time {
        let start = now.max(self.write_free);
        let done = start + self.config.write_line_service * lines as f64;
        self.write_free = done;
        self.stats.writes += lines;
        done
    }

    /// Statistics so far.
    #[must_use]
    pub fn stats(&self) -> DramStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The per-read path `miss_rounds` replaced, kept as its oracle: one
    /// call per read, the address map matched and the write penalty
    /// computed on every call, the device state read through `self`.
    impl Dram {
        fn bank_and_row(&self, line_addr: u64) -> (usize, u64) {
            match self.addr_map {
                AddrMap::Pow2 {
                    bank_mask,
                    row_shift,
                    row_mask,
                } => (
                    (line_addr & bank_mask) as usize,
                    (line_addr >> row_shift) & row_mask,
                ),
                AddrMap::Div => {
                    let banks = u64::from(self.config.banks);
                    let bank = (line_addr % banks) as usize;
                    let row = (line_addr / banks / 64) % u64::from(self.config.rows_per_bank);
                    (bank, row)
                }
            }
        }

        fn read(&mut self, now: Time, line_addr: u64) -> TimeDelta {
            let (bank, row) = self.bank_and_row(line_addr);
            let write_penalty = if self.write_free > now {
                let backlog = self.write_free.since(now).as_secs();
                TimeDelta::from_secs(backlog.min(self.write_cap_secs))
            } else {
                TimeDelta::ZERO
            };
            let queue = if self.bank_free[bank] > now {
                TimeDelta::from_secs(
                    self.bank_free[bank]
                        .since(now)
                        .as_secs()
                        .min(self.service_cap_secs),
                )
            } else {
                TimeDelta::ZERO
            };
            let start = now + queue + write_penalty;
            self.stats.total_queue_delay += start.since(now);
            let row_hit = self.open_row[bank] == row;
            let access = if row_hit {
                self.config.cas
            } else {
                self.config.cas + self.config.row_miss_penalty
            };
            let done = start + access + self.config.line_transfer;
            self.bank_free[bank] = done;
            self.open_row[bank] = row;

            let mut latency = self.config.controller_overhead + done.since(now);
            if let Some(j) = &mut self.jitter {
                latency =
                    (latency * (1.0 + j.amplitude * j.rng.next_signed())).clamp_non_negative();
            }
            self.stats.reads += 1;
            if row_hit {
                self.stats.read_row_hits += 1;
            }
            self.stats.total_read_latency += latency;
            latency
        }
    }

    /// The round loop as the core model ran it before `miss_rounds`: one
    /// oracle `read` per simulated miss.
    fn per_read_rounds(d: &mut Dram, plan: &MissRounds<'_>) -> RoundsOutcome {
        let mut dram_time = 0.0;
        let mut stall = 0.0f64;
        let mut crit_est = CritEstimator::new();
        let mut ll_est = LeadingLoadsEstimator::new();
        let mut issued = 0u64;
        let mut t_cursor = plan.start;
        let n_lines = plan.lines.len() as u64;
        let mut line_cursor = 0u64;
        for _ in 0..plan.rounds {
            let in_round = plan.width.min(plan.misses - issued);
            let mut round_max = 0.0f64;
            for k in 0..in_round {
                let idx = issued + k;
                let base = if n_lines == 0 {
                    idx
                } else {
                    plan.lines[line_cursor as usize]
                };
                line_cursor += 1;
                if line_cursor == n_lines {
                    line_cursor = 0;
                }
                let line = base.wrapping_add(mix16(plan.seed, idx));
                let lat = d.read(t_cursor, line).as_secs();
                crit_est.observe(t_cursor, t_cursor + TimeDelta::from_secs(lat));
                ll_est.observe(t_cursor, t_cursor + TimeDelta::from_secs(lat));
                round_max = round_max.max(lat);
            }
            issued += in_round;
            dram_time += round_max;
            stall += (round_max - plan.compute_per_round - plan.slack).max(0.0);
            t_cursor += TimeDelta::from_secs(round_max + plan.round_gap);
        }
        RoundsOutcome {
            dram_time,
            stall,
            crit: crit_est.non_scaling(),
            leading_loads: ll_est.non_scaling(),
            issued,
            end: t_cursor,
        }
    }

    fn dram() -> Dram {
        Dram::new(crate::MachineConfig::haswell_quad().dram)
    }

    #[test]
    fn row_hit_is_faster_than_row_miss() {
        let mut d = dram();
        let cold = d.read(Time::ZERO, 0);
        // Same line again, bank now free in the future; issue after it frees.
        let t1 = Time::from_secs(1.0);
        let warm = d.read(t1, 0);
        assert!(
            warm < cold,
            "row hit {warm} should beat row miss {cold}"
        );
    }

    #[test]
    fn same_bank_requests_queue() {
        let mut d = dram();
        let banks = u64::from(crate::MachineConfig::haswell_quad().dram.banks);
        let first = d.read(Time::ZERO, 0);
        // Immediately issue to the same bank (line_addr multiple of banks).
        let second = d.read(Time::ZERO, banks * 64);
        assert!(
            second > first,
            "queued request {second} must see more latency than {first}"
        );
    }

    #[test]
    fn different_banks_do_not_queue() {
        let mut d = dram();
        let a = d.read(Time::ZERO, 0); // bank 0
        let b = d.read(Time::ZERO, 1); // bank 1
        // Both are cold row misses with no queueing: equal latency.
        assert!((a.as_nanos() - b.as_nanos()).abs() < 1e-9);
    }

    #[test]
    fn writes_delay_reads() {
        let mut d = dram();
        let quiet = d.read(Time::ZERO, 2);
        let mut d2 = dram();
        d2.drain_writes(Time::ZERO, 100);
        let busy = d2.read(Time::ZERO, 2);
        assert!(
            busy > quiet,
            "read behind write drain ({busy}) must exceed quiet read ({quiet})"
        );
    }

    #[test]
    fn write_drain_accumulates_bandwidth() {
        let mut d = dram();
        let done1 = d.drain_writes(Time::ZERO, 10);
        let done2 = d.drain_writes(Time::ZERO, 10);
        assert!(done2 > done1);
        let per_line = crate::MachineConfig::haswell_quad()
            .dram
            .write_line_service;
        assert!((done2.since(Time::ZERO).as_secs() - 20.0 * per_line.as_secs()).abs() < 1e-12);
    }

    #[test]
    fn jitter_perturbs_latency_deterministically() {
        let quiet = dram().read(Time::ZERO, 0);
        let mut a = dram();
        a.set_jitter(0.5, 11);
        let mut b = dram();
        b.set_jitter(0.5, 11);
        let la = a.read(Time::ZERO, 0);
        let lb = b.read(Time::ZERO, 0);
        assert_eq!(la, lb, "same seed must give the same perturbation");
        assert_ne!(la, quiet, "amplitude 0.5 must move the latency");
        assert!(!la.is_negative());
        // Disabling restores the nominal path.
        let mut c = dram();
        c.set_jitter(0.5, 11);
        c.set_jitter(0.0, 11);
        assert_eq!(c.read(Time::ZERO, 0), quiet);
    }

    #[test]
    fn stats_track_requests() {
        let mut d = dram();
        d.read(Time::ZERO, 0);
        d.read(Time::from_secs(1.0), 0);
        d.drain_writes(Time::ZERO, 5);
        let s = d.stats();
        assert_eq!(s.reads, 2);
        assert_eq!(s.writes, 5);
        assert_eq!(s.read_row_hits, 1);
        assert!(s.total_read_latency > TimeDelta::ZERO);
    }

    /// Every bit of device state the kernel may touch: statistics, bank
    /// timing and open rows by `to_bits`, the write path, and the jitter
    /// stream (through `Debug`, which prints its state exactly).
    fn state_bits(d: &Dram) -> (Vec<u64>, Vec<u64>, u64, [u64; 5], String) {
        let s = d.stats;
        (
            d.bank_free.iter().map(|t| t.as_secs().to_bits()).collect(),
            d.open_row.clone(),
            d.write_free.as_secs().to_bits(),
            [
                s.reads,
                s.read_row_hits,
                s.writes,
                s.total_read_latency.as_secs().to_bits(),
                s.total_queue_delay.as_secs().to_bits(),
            ],
            format!("{:?}", d.jitter),
        )
    }

    fn outcome_bits(o: &RoundsOutcome) -> [u64; 6] {
        [
            o.dram_time.to_bits(),
            o.stall.to_bits(),
            o.crit.as_secs().to_bits(),
            o.leading_loads.as_secs().to_bits(),
            o.issued,
            o.end.as_secs().to_bits(),
        ]
    }

    /// The shipped geometry (powers of two: the shift/mask map), a small
    /// power-of-two one where rows collide often, and one with 12 banks
    /// and 1000 rows (the division map).
    fn geometry(pick: u64) -> DramConfig {
        let mut config = crate::MachineConfig::haswell_quad().dram;
        match pick % 3 {
            0 => {}
            1 => {
                config.banks = 4;
                config.rows_per_bank = 8;
            }
            _ => {
                config.banks = 12;
                config.rows_per_bank = 1000;
            }
        }
        config
    }

    /// Runs the chunks `seeds` describe on two clones of one device, one
    /// through `miss_rounds` and one through the per-read oracle, and
    /// requires bit-identical outcomes and device state after each chunk.
    /// Each chunk draws its width (1–16), miss count, round cap (below or
    /// above the chunk's round count), start time (chunks of other cores
    /// may start earlier than the last one's reservations), representative
    /// lines (0–8, drawn from few values so reads of one round share
    /// banks) and an optional write drain ahead of it.
    fn assert_kernel_matches_per_read_loop(config: DramConfig, jitter: f64, seeds: &[u64]) {
        let mut kernel = Dram::new(config);
        kernel.set_jitter(jitter, 0x5EED);
        let mut oracle = kernel.clone();
        for (chunk, &seed) in seeds.iter().enumerate() {
            let mut r = SplitMix64::new(seed);
            let width = 1 + r.next_u64() % 16;
            let misses = r.next_u64() % 300;
            let rounds = misses.div_ceil(width);
            let cap = 1 + r.next_u64() % 40;
            let start = Time::from_secs((r.next_u64() % 4000) as f64 * 1e-9);
            let lines: Vec<u64> = (0..r.next_u64() % 9)
                .map(|_| (r.next_u64() % 4) * 64 * u64::from(config.banks) + r.next_u64() % 3)
                .collect();
            if r.next_u64() & 1 == 0 {
                let at = Time::from_secs((r.next_u64() % 3000) as f64 * 1e-9);
                let n = r.next_u64() % 400;
                kernel.drain_writes(at, n);
                oracle.drain_writes(at, n);
            }
            let plan = MissRounds {
                start,
                misses,
                width,
                rounds: rounds.min(cap),
                seed: r.next_u64(),
                lines: &lines,
                compute_per_round: (r.next_u64() % 200) as f64 * 1e-9,
                slack: (r.next_u64() % 20) as f64 * 1e-9,
                round_gap: (r.next_u64() % 10) as f64 * 1e-9,
            };
            let got = kernel.miss_rounds(&plan);
            let want = per_read_rounds(&mut oracle, &plan);
            assert_eq!(
                outcome_bits(&got),
                outcome_bits(&want),
                "chunk {chunk} ({plan:?}): outcome diverged: {got:?} vs {want:?}"
            );
            assert_eq!(
                state_bits(&kernel),
                state_bits(&oracle),
                "chunk {chunk} ({plan:?}): device state diverged"
            );
        }
    }

    #[test]
    fn kernel_matches_per_read_loop_at_every_width_and_geometry() {
        for pick in 0..3 {
            for jitter in [0.0, 0.4] {
                for width in 1..=16u64 {
                    // Search chunk seeds until this width appears both with
                    // rounds below the cap and with rounds cut by it.
                    let mut seeds = Vec::new();
                    let (mut below, mut above) = (false, false);
                    let mut seed = width * 1000 + pick;
                    while !(below && above) {
                        seed += 1;
                        let mut r = SplitMix64::new(seed);
                        if 1 + r.next_u64() % 16 != width {
                            continue;
                        }
                        let rounds = (r.next_u64() % 300).div_ceil(width);
                        let cap = 1 + r.next_u64() % 40;
                        if rounds > 0 && rounds <= cap && !below {
                            below = true;
                            seeds.push(seed);
                        } else if rounds > cap && !above {
                            above = true;
                            seeds.push(seed);
                        }
                    }
                    assert_kernel_matches_per_read_loop(geometry(pick), jitter, &seeds);
                }
            }
        }
    }

    mod kernel_properties {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(64))]

            /// Chunk sequences on one device: state carried from chunk to
            /// chunk (open rows, bank reservations, write backlog, the
            /// jitter stream) must stay identical to the per-read loop's.
            #[test]
            fn kernel_matches_per_read_loop_over_chunk_sequences(
                pick in 0u64..3,
                jittered in 0u8..2,
                amplitude in 0.05..1.0f64,
                seeds in proptest::collection::vec(0u64..u64::MAX, 1..12),
            ) {
                let jitter = if jittered == 1 { amplitude } else { 0.0 };
                assert_kernel_matches_per_read_loop(geometry(pick), jitter, &seeds);
            }
        }
    }
}
