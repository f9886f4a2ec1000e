//! Machine configuration (paper Table II).

use depburst_core::stablehash::StableHasher;
use dvfs_trace::{Freq, TimeDelta};
use serde::{Deserialize, Serialize};

/// Geometry and latency of one cache level.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub capacity: u64,
    /// Set associativity.
    pub associativity: u32,
    /// Line size in bytes.
    pub line_size: u32,
    /// Access latency in cycles of the clock domain the cache lives in
    /// (core clock for L1/L2, the fixed uncore clock for L3).
    pub latency_cycles: u32,
}

impl CacheConfig {
    /// Number of sets.
    #[must_use]
    pub fn sets(&self) -> u64 {
        self.capacity / u64::from(self.line_size) / u64::from(self.associativity)
    }
}

/// DRAM timing and geometry.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DramConfig {
    /// Number of independent banks.
    pub banks: u32,
    /// Number of rows tracked per bank (for row-buffer hit modelling).
    pub rows_per_bank: u32,
    /// Fixed controller + bus overhead per request (seconds).
    pub controller_overhead: TimeDelta,
    /// Column access latency (row-buffer hit).
    pub cas: TimeDelta,
    /// Additional precharge + activate penalty on a row-buffer miss.
    pub row_miss_penalty: TimeDelta,
    /// Data-transfer occupancy of one 64 B line on a bank (limits
    /// per-bank bandwidth).
    pub line_transfer: TimeDelta,
    /// Sustained line write drain time on the *shared* write path (global
    /// write bandwidth, all cores together).
    pub write_line_service: TimeDelta,
    /// Per-core minimum line drain time: a single core's store misses are
    /// limited by its line-fill buffers (each missing line needs a
    /// read-for-ownership round trip), so one core cannot use the whole
    /// device bandwidth. This is what lets a store burst saturate the
    /// store queue even at low core frequency (paper §III-D).
    pub core_fill_line_time: TimeDelta,
}

/// Analytical out-of-order core model parameters (interval model).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CoreModelConfig {
    /// Core cycles of reorder-buffer slack available to hide a shared-L3
    /// hit under independent work. An L3 hit only stalls the pipeline for
    /// the part of its (fixed, uncore-clocked) latency exceeding this many
    /// core cycles — so L3 visibility *grows* with core frequency, one of
    /// the effects that makes DVFS prediction hard.
    pub rob_hide_cycles: f64,
    /// Core cycles to resolve the address of the next dependent miss after
    /// the previous one returns (serialization gap between miss rounds;
    /// scales with frequency).
    pub round_gap_cycles: f64,
    /// Core cycles of commit slack the stall-time counter fails to observe
    /// per miss round (commit proceeds underneath a miss while the ROB
    /// drains) — the published stall-time model's systematic undercount.
    pub stall_slack_cycles: f64,
    /// Fraction of DRAM stall time under which the out-of-order engine can
    /// overlap independent compute.
    pub overlap_frac: f64,
    /// Multiplier on a work item's MLP when overlapping L3 hits (L3 hits
    /// overlap more readily than DRAM misses).
    pub l3_mlp_boost: f64,
    /// Kernel-entry overhead charged per futex syscall, in core cycles.
    pub syscall_cycles: u64,
}

impl Default for CoreModelConfig {
    fn default() -> Self {
        CoreModelConfig {
            rob_hide_cycles: 48.0,
            round_gap_cycles: 8.0,
            stall_slack_cycles: 48.0,
            overlap_frac: 0.35,
            l3_mlp_boost: 2.0,
            syscall_cycles: 1200,
        }
    }
}

/// Full machine configuration, defaults mirroring Table II of the paper
/// (a quad-core Intel Haswell i7-4770K-like part).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MachineConfig {
    /// Number of cores (chip-wide DVFS).
    pub cores: usize,
    /// Initial core frequency.
    pub initial_freq: Freq,
    /// The fixed uncore/L3 clock (the paper runs the shared L3 at 1.5 GHz,
    /// so L3 hit time does *not* scale with core frequency).
    pub uncore_freq: Freq,
    /// Private L1 data cache.
    pub l1d: CacheConfig,
    /// Private L2 cache.
    pub l2: CacheConfig,
    /// Shared L3 cache.
    pub l3: CacheConfig,
    /// DRAM model.
    pub dram: DramConfig,
    /// Analytical core-model parameters.
    pub core_model: CoreModelConfig,
    /// Store-queue entries (stores awaiting retirement to memory).
    pub store_queue_entries: u32,
    /// Peak sustainable store issue rate, stores per core cycle.
    pub store_issue_per_cycle: f64,
    /// Maximum commit width (instructions per cycle) used by the stall-time
    /// counter's notion of "committing usefully".
    pub commit_width: f64,
    /// OS scheduler time slice for oversubscribed cores.
    pub timeslice: TimeDelta,
    /// Chip-wide DVFS transition stall (paper: fixed 2 µs).
    pub dvfs_transition: TimeDelta,
    /// Target wall-clock chunk length the cores aim for when slicing work
    /// items (simulation granularity, not an architectural parameter).
    pub chunk_target: TimeDelta,
    /// Cache sampling ratio K: one access in K is simulated against caches
    /// whose capacity is scaled down by K (set sampling). Preserves
    /// footprint/capacity ratios while bounding simulation cost.
    pub sample_ratio: u32,
    /// Upper bound on sampled addresses per chunk (variance/cost knob).
    pub cache_sample_cap: u32,
    /// Upper bound on DRAM miss rounds *simulated in full* per memory
    /// chunk. The DRAM miss-round loop (`Dram::miss_rounds`) is the
    /// simulator's hottest code: a sampling profile put about half of a
    /// perfbench `fig3-exact` operation in it while it called `Dram::read`
    /// and libm `round` out of line, and about 40% once those calls were
    /// inlined (EXPERIMENTS.md, simulator-core section). A chunk whose round
    /// count exceeds this cap simulates the first `dram_round_sample_cap`
    /// rounds exactly through the banked DRAM model and extrapolates the
    /// remainder from the sampled rounds' mean timing. `0` disables
    /// sampling (every round simulated exactly). Like `sample_ratio` this
    /// is a fidelity/cost knob, not an architectural parameter; results
    /// remain a deterministic pure function of the configuration.
    pub dram_round_sample_cap: u32,
    /// How many events the engine dispatches between wall-clock watchdog
    /// polls (see [`crate::watchdog`]). The default
    /// ([`crate::WATCHDOG_STRIDE`]) makes the `Instant::now()` call vanish
    /// in event-dispatch cost on realistic points; the fuzzer tightens it
    /// on tiny inputs that dispatch few events. A value of 0 is treated
    /// as 1 (poll every event).
    pub watchdog_stride: u32,
}

impl MachineConfig {
    /// The paper's simulated system (Table II): quad-core, 32 KB L1I/L1D,
    /// 256 KB L2, 4 MB shared L3 at 1.5 GHz, 64 B lines, LRU.
    #[must_use]
    pub fn haswell_quad() -> Self {
        MachineConfig {
            cores: 4,
            initial_freq: Freq::from_ghz(1.0),
            uncore_freq: Freq::from_ghz(1.5),
            l1d: CacheConfig {
                capacity: 32 * 1024,
                associativity: 4,
                line_size: 64,
                latency_cycles: 2,
            },
            l2: CacheConfig {
                capacity: 256 * 1024,
                associativity: 8,
                line_size: 64,
                latency_cycles: 11,
            },
            l3: CacheConfig {
                capacity: 4 * 1024 * 1024,
                associativity: 16,
                line_size: 64,
                latency_cycles: 40,
            },
            dram: DramConfig {
                // Two ranks of eight banks; per-request service times are
                // effective values under FR-FCFS scheduling and bank-group
                // overlap, not raw device timings.
                banks: 16,
                rows_per_bank: 1 << 15,
                controller_overhead: TimeDelta::from_nanos(14.0),
                cas: TimeDelta::from_nanos(12.0),
                row_miss_penalty: TimeDelta::from_nanos(15.0),
                line_transfer: TimeDelta::from_nanos(4.0),
                write_line_service: TimeDelta::from_nanos(5.0),
                core_fill_line_time: TimeDelta::from_nanos(13.0),
            },
            core_model: CoreModelConfig::default(),
            store_queue_entries: 42,
            store_issue_per_cycle: 1.0,
            commit_width: 4.0,
            timeslice: TimeDelta::from_millis(2.0),
            dvfs_transition: TimeDelta::from_micros(2.0),
            chunk_target: TimeDelta::from_micros(25.0),
            sample_ratio: 64,
            cache_sample_cap: 512,
            dram_round_sample_cap: 24,
            watchdog_stride: crate::WATCHDOG_STRIDE,
        }
    }

    /// The L3 hit latency in wall-clock time (uncore clock is fixed, so this
    /// does not change with core DVFS).
    #[must_use]
    pub fn l3_hit_time(&self) -> TimeDelta {
        self.uncore_freq
            .cycles_to_time(f64::from(self.l3.latency_cycles))
    }

    /// Folds every field into `h` in declaration order. Run results are a
    /// pure function of the configuration, so this digest (together with the
    /// workload/fault/seed digests) keys the simulation memo cache — any
    /// field change must change the digest.
    pub fn hash_into(&self, h: &mut StableHasher) {
        h.write_tag("simx::MachineConfig");
        h.write_u64(self.cores as u64);
        h.write_u32(self.initial_freq.mhz());
        h.write_u32(self.uncore_freq.mhz());
        for (tag, c) in [("l1d", &self.l1d), ("l2", &self.l2), ("l3", &self.l3)] {
            h.write_tag(tag);
            h.write_u64(c.capacity);
            h.write_u32(c.associativity);
            h.write_u32(c.line_size);
            h.write_u32(c.latency_cycles);
        }
        h.write_tag("dram");
        h.write_u32(self.dram.banks);
        h.write_u32(self.dram.rows_per_bank);
        h.write_f64(self.dram.controller_overhead.as_secs());
        h.write_f64(self.dram.cas.as_secs());
        h.write_f64(self.dram.row_miss_penalty.as_secs());
        h.write_f64(self.dram.line_transfer.as_secs());
        h.write_f64(self.dram.write_line_service.as_secs());
        h.write_f64(self.dram.core_fill_line_time.as_secs());
        h.write_tag("core_model");
        h.write_f64(self.core_model.rob_hide_cycles);
        h.write_f64(self.core_model.round_gap_cycles);
        h.write_f64(self.core_model.stall_slack_cycles);
        h.write_f64(self.core_model.overlap_frac);
        h.write_f64(self.core_model.l3_mlp_boost);
        h.write_u64(self.core_model.syscall_cycles);
        h.write_tag("rest");
        h.write_u32(self.store_queue_entries);
        h.write_f64(self.store_issue_per_cycle);
        h.write_f64(self.commit_width);
        h.write_f64(self.timeslice.as_secs());
        h.write_f64(self.dvfs_transition.as_secs());
        h.write_f64(self.chunk_target.as_secs());
        h.write_u32(self.sample_ratio);
        h.write_u32(self.cache_sample_cap);
        h.write_u32(self.dram_round_sample_cap);
        h.write_u32(self.watchdog_stride);
    }

    /// Stable content digest of the whole configuration (see [`hash_into`]).
    ///
    /// [`hash_into`]: MachineConfig::hash_into
    #[must_use]
    pub fn digest(&self) -> u128 {
        let mut h = StableHasher::new();
        self.hash_into(&mut h);
        h.finish()
    }
}

impl Default for MachineConfig {
    fn default() -> Self {
        Self::haswell_quad()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn haswell_matches_table_ii() {
        let c = MachineConfig::haswell_quad();
        assert_eq!(c.cores, 4);
        assert_eq!(c.l1d.capacity, 32 * 1024);
        assert_eq!(c.l2.capacity, 256 * 1024);
        assert_eq!(c.l3.capacity, 4 * 1024 * 1024);
        assert_eq!(c.l1d.line_size, 64);
        assert_eq!(c.l3.associativity, 16);
        assert_eq!(c.uncore_freq, Freq::from_ghz(1.5));
        assert!((c.dvfs_transition.as_micros() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn l3_hit_time_is_frequency_independent() {
        let c = MachineConfig::haswell_quad();
        // 40 cycles at 1.5 GHz = 26.67 ns regardless of core frequency.
        assert!((c.l3_hit_time().as_nanos() - 40.0 / 1.5).abs() < 1e-9);
    }

    #[test]
    fn cache_sets() {
        let c = MachineConfig::haswell_quad();
        assert_eq!(c.l1d.sets(), 32 * 1024 / 64 / 4);
        assert_eq!(c.l3.sets(), 4 * 1024 * 1024 / 64 / 16);
    }

    #[test]
    fn digest_is_stable_and_field_sensitive() {
        let base = MachineConfig::haswell_quad();
        assert_eq!(base.digest(), MachineConfig::haswell_quad().digest());
        let mut freq = base.clone();
        freq.initial_freq = Freq::from_ghz(2.0);
        assert_ne!(base.digest(), freq.digest());
        let mut knob = base.clone();
        knob.core_model.overlap_frac += 1e-9;
        assert_ne!(base.digest(), knob.digest());
        let mut stride = base.clone();
        stride.watchdog_stride = 256;
        assert_ne!(base.digest(), stride.digest());
        let mut cap = base.clone();
        cap.dram_round_sample_cap = 0;
        assert_ne!(base.digest(), cap.digest());
    }

    #[test]
    fn watchdog_stride_defaults_to_the_historic_constant() {
        assert_eq!(MachineConfig::haswell_quad().watchdog_stride, 4096);
        assert_eq!(MachineConfig::default().watchdog_stride, crate::WATCHDOG_STRIDE);
    }
}
