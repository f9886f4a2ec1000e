//! Slicing work items into timed chunks — the interval core model.
//!
//! This module is where ground-truth timing *and* the four counter
//! estimation algorithms are computed, deliberately as separate
//! calculations:
//!
//! * ground truth comes from the DRAM/bank model, the fixed-clock L3, and
//!   the store-queue fluid model;
//! * the **CRIT** counter accumulates the critical path through dependent
//!   miss rounds (Miftakhutdinov et al.);
//! * the **leading-loads** counter accumulates only the first miss latency
//!   of each round;
//! * the **stall-time** counter accumulates commit-blocked time, which
//!   systematically undercounts because commit proceeds beneath misses;
//! * the **store-queue-full** counter (the paper's new hardware counter)
//!   accumulates time the store queue is saturated.
//!
//! Their divergence from ground truth — L3 hits nobody counts, round
//! serialization gaps, queueing shifts at the target frequency — is what
//! gives the predictors realistic error behaviour.

use dvfs_trace::{CoreId, DvfsCounters, Freq, Time, TimeDelta};

use super::{Chunk, StoreQueues};
use crate::config::MachineConfig;
use crate::mem::{AccessPattern, Dram, MemoryHierarchy};
use crate::program::WorkItem;

/// Everything a cursor needs to time one chunk.
#[derive(Debug)]
pub struct ChunkEnv<'a> {
    /// Current simulated time (chunk start).
    pub now: Time,
    /// Current chip frequency.
    pub freq: Freq,
    /// The core executing the chunk.
    pub core: CoreId,
    /// Machine configuration.
    pub config: &'a MachineConfig,
    /// The cache hierarchy (shared).
    pub hierarchy: &'a mut MemoryHierarchy,
    /// The DRAM device (shared).
    pub dram: &'a mut Dram,
    /// All cores' store queues (indexed by `core`).
    pub store_queues: &'a mut StoreQueues,
}

/// Progress state of a work item being executed chunk by chunk.
#[derive(Debug, Clone)]
pub enum WorkCursor {
    /// Remaining pure compute.
    Compute {
        /// Instructions left.
        remaining: u64,
        /// Sustained IPC.
        ipc: f64,
    },
    /// Remaining load-dominated work.
    Memory {
        /// Loads left.
        remaining: u64,
        /// Loads already issued (offsets the address stream).
        issued: u64,
        /// Access pattern.
        pattern: AccessPattern,
        /// Memory-level parallelism (independent miss chains).
        mlp: f64,
        /// Instructions per load.
        compute_per_access: f64,
        /// IPC of interleaved compute.
        ipc: f64,
        /// Address-stream seed.
        seed: u64,
        /// Adaptive estimate of seconds per access (picks chunk size).
        est_access_time: f64,
    },
    /// Remaining store burst.
    Store {
        /// Cache lines left to write.
        remaining_lines: u64,
        /// Lines already written.
        issued_lines: u64,
        /// Store target pattern.
        pattern: AccessPattern,
        /// Address-stream seed.
        seed: u64,
    },
}

impl WorkCursor {
    /// Builds a cursor over `item`.
    #[must_use]
    pub fn new(item: WorkItem) -> Self {
        match item {
            WorkItem::Compute { instructions, ipc } => WorkCursor::Compute {
                remaining: instructions,
                ipc: ipc.max(0.05),
            },
            WorkItem::Memory {
                accesses,
                pattern,
                mlp,
                compute_per_access,
                ipc,
                seed,
            } => WorkCursor::Memory {
                remaining: accesses,
                issued: 0,
                pattern,
                mlp: mlp.max(1.0),
                compute_per_access,
                ipc: ipc.max(0.05),
                seed,
                est_access_time: 5e-9,
            },
            WorkItem::StoreBurst {
                bytes,
                pattern,
                seed,
            } => WorkCursor::Store {
                remaining_lines: bytes.div_ceil(64),
                issued_lines: 0,
                pattern,
                seed,
            },
        }
    }

    /// A cursor that charges `cycles` of kernel/syscall overhead.
    #[must_use]
    pub fn syscall(cycles: u64) -> Self {
        WorkCursor::Compute {
            remaining: cycles,
            ipc: 1.0,
        }
    }

    /// Produces the next chunk, or `None` when the work item is finished.
    pub fn next_chunk(&mut self, env: &mut ChunkEnv<'_>) -> Option<Chunk> {
        match self {
            WorkCursor::Compute { remaining, ipc } => {
                if *remaining == 0 {
                    return None;
                }
                let f = env.freq.hz();
                let target_instr = (*ipc * f * env.config.chunk_target.as_secs()) as u64;
                let n = (*remaining).min(target_instr.max(1));
                *remaining -= n;
                let duration = TimeDelta::from_secs(n as f64 / (*ipc * f));
                Some(Chunk::compute(duration, n))
            }
            WorkCursor::Memory {
                remaining,
                issued,
                pattern,
                mlp,
                compute_per_access,
                ipc,
                seed,
                est_access_time,
            } => {
                if *remaining == 0 {
                    return None;
                }
                // Memory chunks are kept short so concurrent chunks from
                // different cores interleave at fine granularity in the
                // shared DRAM (each chunk's requests are issued in a batch).
                let target = env.config.chunk_target.as_secs() / 6.0;
                let mut n = (target / est_access_time.max(1e-10)) as u64;
                n = n.clamp(64, 50_000).min(*remaining);
                let chunk = memory_chunk(
                    env,
                    MemoryChunkSpec {
                        accesses: n,
                        pattern: offset_pattern(*pattern, *issued),
                        mlp: *mlp,
                        compute_per_access: *compute_per_access,
                        ipc: *ipc,
                        seed: seed.wrapping_add(*issued),
                    },
                );
                *issued += n;
                *remaining -= n;
                *est_access_time = (chunk.duration.as_secs() / n as f64).max(1e-11);
                Some(chunk)
            }
            WorkCursor::Store {
                remaining_lines,
                issued_lines,
                pattern,
                seed,
            } => {
                if *remaining_lines == 0 {
                    return None;
                }
                // Short chunks: write-path bandwidth reservations from
                // concurrent bursts then interleave fairly.
                let per_line = env.config.dram.core_fill_line_time.as_secs();
                let max_lines =
                    (env.config.chunk_target.as_secs() / 6.0 / per_line) as u64;
                let lines = (*remaining_lines).min(max_lines.max(16));
                let chunk = store_chunk(
                    env,
                    offset_pattern(*pattern, *issued_lines),
                    lines,
                    seed.wrapping_add(*issued_lines),
                );
                *issued_lines += lines;
                *remaining_lines -= lines;
                Some(chunk)
            }
        }
    }

    /// True if no work remains.
    #[must_use]
    pub fn is_finished(&self) -> bool {
        match self {
            WorkCursor::Compute { remaining, .. } => *remaining == 0,
            WorkCursor::Memory { remaining, .. } => *remaining == 0,
            WorkCursor::Store { remaining_lines, .. } => *remaining_lines == 0,
        }
    }
}

/// Shifts a pattern's base so successive chunks continue where the previous
/// one left off (streaming/strided patterns advance; random does not need
/// to).
fn offset_pattern(pattern: AccessPattern, issued: u64) -> AccessPattern {
    match pattern {
        AccessPattern::Streaming { base } => AccessPattern::Streaming {
            base: base + issued * 64,
        },
        strided @ AccessPattern::Strided { .. } => strided,
        random @ AccessPattern::Random { .. } => random,
    }
}

/// A 16-bit hash of (seed, index), used to jitter miss line addresses.
fn mix16(seed: u64, idx: u64) -> u64 {
    let mut z = seed ^ idx.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    (z ^ (z >> 31)) & 0xFFFF
}

struct MemoryChunkSpec {
    accesses: u64,
    pattern: AccessPattern,
    mlp: f64,
    compute_per_access: f64,
    ipc: f64,
    seed: u64,
}

/// Times one load-dominated chunk and computes all counter estimates.
fn memory_chunk(env: &mut ChunkEnv<'_>, spec: MemoryChunkSpec) -> Chunk {
    let cm = &env.config.core_model;
    let f = env.freq.hz();
    let cycle = 1.0 / f;
    let a = spec.accesses;

    let mix = env
        .hierarchy
        .sample_mix(env.core, spec.pattern, spec.seed, a);
    let l2_count = a as f64 * mix.l2;
    let l3_count = a as f64 * mix.l3;
    let miss_count = (a as f64 * mix.dram).round() as u64;

    let width = spec.mlp.round().max(1.0) as u64;
    let rounds = miss_count.div_ceil(width.max(1));

    // --- Shared L3 hits: fixed uncore latency, partially hidden by the ROB
    // (hiding shrinks, in wall-clock terms, as core frequency rises).
    let l3_hit = env.config.l3_hit_time().as_secs();
    let l3_visible_unit = (l3_hit - cm.rob_hide_cycles * cycle).max(0.0);
    let l3_par = (spec.mlp * cm.l3_mlp_boost).clamp(1.0, 8.0);
    let l3_time = l3_count * l3_visible_unit / l3_par;

    // --- Scaling compute: the interleaved instructions, L2 hit service,
    // and per-round dependence gaps. Computed before the miss loop so the
    // per-round stall contribution can be folded in as rounds complete
    // instead of buffering every round's critical latency.
    let instructions = (a as f64 * spec.compute_per_access).round() as u64;
    let l2_cycles = f64::from(env.config.l2.latency_cycles);
    let compute_time = instructions as f64 / (spec.ipc * f)
        + l2_count * l2_cycles * cycle / 2.0
        + rounds as f64 * cm.round_gap_cycles * cycle;
    let compute_per_round = if rounds > 0 {
        compute_time / rounds as f64
    } else {
        0.0
    };
    let slack = cm.stall_slack_cycles * cycle;
    let round_gap = cm.round_gap_cycles * cycle;

    // --- DRAM miss rounds: `width` independent chains progress together;
    // rounds are serialized by dependence. Ground truth comes from the
    // per-round critical latency; the CRIT and leading-loads *counters*
    // observe the same (issue, completion) intervals through their
    // published streaming algorithms.
    //
    // This loop is the simulator's hottest code (cycle counters around it
    // put 44–47% of a perfbench `fig3-exact` operation here, DRAM reads
    // included, on a 2-vCPU Intel Xeon VM), and it is latency-bound on the
    // serial FP dependence t_cursor → read → round_max → t_cursor, so
    // shaving instructions barely helps. Instead, a chunk with more rounds
    // than `dram_round_sample_cap` simulates only that many rounds exactly
    // and extrapolates the rest from the sample's mean round timing (the
    // cap guarantees every sampled round is full-width, since
    // `rounds > cap` implies `miss_count > cap * width`).
    let cap = u64::from(env.config.dram_round_sample_cap);
    let sim_rounds = if cap > 0 { rounds.min(cap) } else { rounds };
    let stats_before = env.dram.stats();
    let mut dram_time = 0.0; // ground truth: sum of per-round critical latency
    let mut stall = 0.0f64; // per-round stall, folded in round order
    let mut crit_est = super::CritEstimator::new();
    let mut ll_est = super::LeadingLoadsEstimator::new();
    let mut issued = 0u64;
    let mut t_cursor = env.now;
    // The representative-line cursor walks the sample buffer cyclically;
    // tracking it incrementally avoids a u64 modulo per miss.
    let n_lines = mix.dram_lines.len() as u64;
    let mut line_cursor = 0u64;
    for _ in 0..sim_rounds {
        let in_round = width.min(miss_count - issued);
        let mut round_max = 0.0f64;
        for k in 0..in_round {
            let idx = issued + k;
            // Spread successive misses across banks/rows with a cheap hash
            // of the request index (a linear stride would alias with the
            // bank interleave and create systematic conflicts).
            let base = if n_lines == 0 {
                idx
            } else {
                mix.dram_lines.get(line_cursor as usize)
            };
            line_cursor += 1;
            if line_cursor == n_lines {
                line_cursor = 0;
            }
            let line = base.wrapping_add(mix16(spec.seed, idx));
            let lat = env.dram.read(t_cursor, line).as_secs();
            crit_est.observe(t_cursor, t_cursor + TimeDelta::from_secs(lat));
            ll_est.observe(t_cursor, t_cursor + TimeDelta::from_secs(lat));
            round_max = round_max.max(lat);
        }
        issued += in_round;
        dram_time += round_max;
        stall += (round_max - compute_per_round - slack).max(0.0);
        // Advance the issue clock past this round plus its dependence gap.
        t_cursor += TimeDelta::from_secs(round_max + round_gap);
    }
    // Counter estimates from the simulated rounds (the estimators saw the
    // same miss stream the ground truth was built from, but through their
    // own algorithms).
    let mut crit = crit_est.non_scaling().as_secs();
    let mut ll = ll_est.non_scaling();
    if sim_rounds < rounds {
        // Extrapolate the unsimulated tail: remaining rounds are charged
        // the sampled rounds' mean timing, and the DRAM device is credited
        // the remaining reads so aggregate stats (read counts, row-hit
        // rate, mean latency) still describe the whole run.
        let grow = rounds as f64 / sim_rounds as f64;
        let tail = grow - 1.0;
        dram_time += dram_time * tail;
        stall += stall * tail;
        crit += crit * tail;
        ll += ll * tail;
        let sampled = env.dram.stats();
        let rem_misses = miss_count - issued;
        let miss_ratio = rem_misses as f64 / issued as f64;
        let hits = sampled.read_row_hits - stats_before.read_row_hits;
        env.dram.credit_extrapolated_reads(
            rem_misses,
            (hits as f64 * miss_ratio).round() as u64,
            (sampled.total_read_latency - stats_before.total_read_latency) * miss_ratio,
            (sampled.total_queue_delay - stats_before.total_queue_delay) * miss_ratio,
        );
    }

    // --- Composition: the OoO engine overlaps part of the compute under
    // outstanding misses.
    let overlap = compute_time.min(cm.overlap_frac * dram_time);
    let duration = compute_time + dram_time + l3_time - overlap;
    let scaling = compute_time - overlap;

    Chunk {
        duration: TimeDelta::from_secs(duration),
        scaling: TimeDelta::from_secs(scaling),
        counters: DvfsCounters {
            active: TimeDelta::from_secs(duration),
            crit: TimeDelta::from_secs(crit),
            leading_loads: ll,
            stall: TimeDelta::from_secs(stall),
            sq_full: TimeDelta::ZERO,
            instructions: instructions + a,
            loads: a,
            stores: 0,
            llc_misses: miss_count,
        },
    }
}

/// Times one store-burst chunk through the store queue.
fn store_chunk(
    env: &mut ChunkEnv<'_>,
    pattern: AccessPattern,
    lines: u64,
    seed: u64,
) -> Chunk {
    let f = env.freq.hz();
    let stores = lines * 8; // eight 8-byte stores per 64-byte line
    let issue_rate = env.config.store_issue_per_cycle * f;

    // Which levels absorb the lines? Lines that miss all caches drain
    // through the shared DRAM write path (slow, contended); lines hitting
    // on-chip caches retire quickly.
    let mix = env.hierarchy.sample_mix(env.core, pattern, seed, lines);
    let dram_lines = (lines as f64 * mix.dram).round() as u64;
    let dram_line_time = if dram_lines > 0 {
        let done = env.dram.drain_writes(env.now, dram_lines);
        let shared_path = done.since(env.now).as_secs() / dram_lines as f64;
        // One core's drain is additionally limited by its line-fill
        // buffers (RFO round trips), even when the shared path is idle.
        shared_path.max(env.config.dram.core_fill_line_time.as_secs())
    } else {
        0.0
    };
    let l3_line_time = env.config.l3_hit_time().as_secs() / 8.0;
    let l2_line_time = f64::from(env.config.l2.latency_cycles) / f / 4.0;
    let mean_line_time = mix.dram * dram_line_time
        + mix.l3 * l3_line_time
        + (mix.l1 + mix.l2) * l2_line_time;
    // Stores per second the memory system retires.
    let drain_rate = if mean_line_time > 0.0 {
        8.0 / mean_line_time
    } else {
        issue_rate * 16.0
    };

    let absorbed = env
        .store_queues
        .absorb(env.core.index(), env.now, stores as f64, issue_rate, drain_rate);
    let duration = absorbed.duration;
    let sq_full = absorbed.sq_full;
    let scaling = (duration - sq_full).clamp_non_negative();

    Chunk {
        duration,
        scaling,
        counters: DvfsCounters {
            active: duration,
            crit: TimeDelta::ZERO,
            leading_loads: TimeDelta::ZERO,
            // Commit blocks while the store queue is full; the stall-time
            // counter does observe that on real hardware.
            stall: sq_full,
            sq_full,
            instructions: stores,
            loads: 0,
            stores,
            llc_misses: 0,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mem::{Dram, MemoryHierarchy};

    fn env_parts() -> (MachineConfig, MemoryHierarchy, Dram, StoreQueues) {
        let config = MachineConfig::haswell_quad();
        let hierarchy = MemoryHierarchy::new(&config);
        let dram = Dram::new(config.dram);
        let sq = StoreQueues::new(config.store_queue_entries, config.cores);
        (config, hierarchy, dram, sq)
    }

    fn run_to_completion(item: WorkItem, ghz: f64) -> (TimeDelta, DvfsCounters) {
        let (config, mut hierarchy, mut dram, mut sq) = env_parts();
        let mut cursor = WorkCursor::new(item);
        let mut now = Time::ZERO;
        let mut total = DvfsCounters::zero();
        loop {
            let mut env = ChunkEnv {
                now,
                freq: Freq::from_ghz(ghz),
                core: CoreId(0),
                config: &config,
                hierarchy: &mut hierarchy,
                dram: &mut dram,
                store_queues: &mut sq,
            };
            match cursor.next_chunk(&mut env) {
                Some(chunk) => {
                    now += chunk.duration;
                    total += chunk.counters;
                }
                None => break,
            }
        }
        (now.since(Time::ZERO), total)
    }

    #[test]
    fn compute_scales_perfectly_with_frequency() {
        let item = WorkItem::Compute {
            instructions: 10_000_000,
            ipc: 2.0,
        };
        let (t1, c1) = run_to_completion(item, 1.0);
        let (t4, c4) = run_to_completion(item, 4.0);
        assert!((t1.as_secs() / t4.as_secs() - 4.0).abs() < 1e-9);
        assert_eq!(c1.instructions, 10_000_000);
        assert_eq!(c4.instructions, 10_000_000);
        assert_eq!(c1.crit, TimeDelta::ZERO);
    }

    #[test]
    fn dram_bound_work_barely_scales() {
        let item = WorkItem::Memory {
            accesses: 50_000,
            pattern: AccessPattern::Random {
                base: 0,
                working_set: 256 << 20,
            },
            mlp: 1.0,
            compute_per_access: 2.0,
            ipc: 2.0,
            seed: 7,
        };
        let (t1, c1) = run_to_completion(item, 1.0);
        let (t4, _) = run_to_completion(item, 4.0);
        let speedup = t1.as_secs() / t4.as_secs();
        assert!(
            speedup < 1.5,
            "pointer-chasing through DRAM should barely speed up, got {speedup}"
        );
        // CRIT should capture most of the non-scaling time.
        assert!(c1.crit > t1 * 0.5, "crit {} vs total {}", c1.crit, t1);
        assert!(c1.llc_misses > 40_000);
    }

    #[test]
    fn counter_estimates_are_bounded_by_crit() {
        // CRIT tracks the full critical path; leading-loads and stall-time
        // are both partial views of it, and none exceed the elapsed time.
        let item = WorkItem::Memory {
            accesses: 20_000,
            pattern: AccessPattern::Random {
                base: 0,
                working_set: 256 << 20,
            },
            mlp: 4.0,
            compute_per_access: 4.0,
            ipc: 2.0,
            seed: 3,
        };
        let (t, c) = run_to_completion(item, 2.0);
        let eps = TimeDelta::from_nanos(1.0);
        assert!(c.stall <= c.crit + eps);
        assert!(c.leading_loads <= c.crit + eps);
        assert!(c.crit <= t + eps);
        assert!(c.crit > TimeDelta::ZERO);
        // Leading loads misses the slow non-leading misses of each round.
        assert!(c.leading_loads < c.crit);
    }

    #[test]
    fn mlp_speeds_up_memory_work() {
        let mk = |mlp| WorkItem::Memory {
            accesses: 30_000,
            pattern: AccessPattern::Random {
                base: 0,
                working_set: 256 << 20,
            },
            mlp,
            compute_per_access: 1.0,
            ipc: 2.0,
            seed: 11,
        };
        let (serial, _) = run_to_completion(mk(1.0), 2.0);
        let (parallel, _) = run_to_completion(mk(8.0), 2.0);
        assert!(
            serial.as_secs() > 3.0 * parallel.as_secs(),
            "mlp=8 should be much faster: {serial} vs {parallel}"
        );
    }

    #[test]
    fn store_burst_is_drain_bound_and_flags_sq_full() {
        let item = WorkItem::StoreBurst {
            bytes: 8 << 20, // 8 MB zero-init
            pattern: AccessPattern::Streaming { base: 1 << 32 },
            seed: 1,
        };
        let (t1, c1) = run_to_completion(item, 1.0);
        let (t4, c4) = run_to_completion(item, 4.0);
        // Drain-bound: barely faster at 4 GHz.
        assert!(
            t1.as_secs() / t4.as_secs() < 1.4,
            "store burst should be memory-bound: {t1} vs {t4}"
        );
        // Store queue must saturate at both frequencies, more at 4 GHz.
        assert!(c1.sq_full > t1 * 0.3, "sq_full {} of {}", c1.sq_full, t1);
        assert!(c4.sq_full.ratio(t4) > c1.sq_full.ratio(t1));
        assert_eq!(c1.stores, (8 << 20) / 8);
    }

    #[test]
    fn cached_store_burst_does_not_stall() {
        // A tiny burst fits in L1/L2 after the first pass: re-run the same
        // small region so lines are resident.
        let (config, mut hierarchy, mut dram, mut sq) = env_parts();
        let pattern = AccessPattern::Strided {
            base: 0,
            stride: 64,
            working_set: 16 * 1024,
        };
        let mut total_sq_full = TimeDelta::ZERO;
        let mut now = Time::ZERO;
        for i in 0..4 {
            let mut cursor = WorkCursor::new(WorkItem::StoreBurst {
                bytes: 16 * 1024,
                pattern,
                seed: i,
            });
            let mut env = ChunkEnv {
                now,
                freq: Freq::from_ghz(2.0),
                core: CoreId(0),
                config: &config,
                hierarchy: &mut hierarchy,
                dram: &mut dram,
                store_queues: &mut sq,
            };
            while let Some(chunk) = cursor.next_chunk(&mut env) {
                env.now += chunk.duration;
                total_sq_full += chunk.counters.sq_full;
                now = env.now;
            }
        }
        // After warmup the lines are on-chip; drains keep up with issue.
        assert!(
            total_sq_full < TimeDelta::from_micros(200.0),
            "cached stores should not saturate the queue: {total_sq_full}"
        );
    }

    #[test]
    fn chunks_tile_the_work_item_exactly() {
        let (config, mut hierarchy, mut dram, mut sq) = env_parts();
        let mut cursor = WorkCursor::new(WorkItem::Memory {
            accesses: 12_345,
            pattern: AccessPattern::Streaming { base: 0 },
            mlp: 4.0,
            compute_per_access: 3.0,
            ipc: 2.0,
            seed: 9,
        });
        let mut loads = 0;
        let mut now = Time::ZERO;
        loop {
            let mut env = ChunkEnv {
                now,
                freq: Freq::from_ghz(3.0),
                core: CoreId(1),
                config: &config,
                hierarchy: &mut hierarchy,
                dram: &mut dram,
                store_queues: &mut sq,
            };
            match cursor.next_chunk(&mut env) {
                Some(c) => {
                    loads += c.counters.loads;
                    now += c.duration;
                }
                None => break,
            }
        }
        assert_eq!(loads, 12_345);
        assert!(cursor.is_finished());
    }

    #[test]
    fn syscall_cursor_charges_cycles() {
        let (t, c) = run_to_completion_cursor(WorkCursor::syscall(1200), 1.0);
        assert_eq!(c.instructions, 1200);
        assert!((t.as_nanos() - 1200.0).abs() < 1e-6);
    }

    mod round_sampling_properties {
        use super::*;
        use crate::mem::DramStats;
        use proptest::prelude::*;

        /// Runs `item` to completion on a fresh machine whose
        /// `dram_round_sample_cap` is `cap`, returning everything the cap
        /// could possibly perturb: elapsed time, the full counter set,
        /// and the DRAM device's aggregate statistics.
        fn run_with_cap(item: WorkItem, ghz: f64, cap: u32) -> (TimeDelta, DvfsCounters, DramStats) {
            let mut config = MachineConfig::haswell_quad();
            config.dram_round_sample_cap = cap;
            let mut hierarchy = MemoryHierarchy::new(&config);
            let mut dram = Dram::new(config.dram);
            let mut sq = StoreQueues::new(config.store_queue_entries, config.cores);
            let mut cursor = WorkCursor::new(item);
            let mut now = Time::ZERO;
            let mut total = DvfsCounters::zero();
            loop {
                let mut env = ChunkEnv {
                    now,
                    freq: Freq::from_ghz(ghz),
                    core: CoreId(0),
                    config: &config,
                    hierarchy: &mut hierarchy,
                    dram: &mut dram,
                    store_queues: &mut sq,
                };
                match cursor.next_chunk(&mut env) {
                    Some(chunk) => {
                        now += chunk.duration;
                        total += chunk.counters;
                    }
                    None => break,
                }
            }
            (now.since(Time::ZERO), total, dram.stats())
        }

        fn memory_item(accesses: u64, ws_log: u32, mlp: u8, seed: u64) -> WorkItem {
            WorkItem::Memory {
                accesses,
                pattern: AccessPattern::Random {
                    base: 0,
                    working_set: 1 << ws_log,
                },
                mlp: f64::from(mlp),
                compute_per_access: 2.0,
                ipc: 2.0,
                seed,
            }
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(12))]

            /// cap = 0 (sampling disabled) and a cap no chunk can exceed
            /// must take the exact same code path — both simulate every
            /// round — so their outputs are byte-identical down to the
            /// last f64 bit: time, every counter, every DRAM statistic.
            #[test]
            fn cap_zero_and_saturating_cap_are_byte_identical(
                accesses in 2_000u64..30_000,
                ws_log in 22u32..29,
                mlp in 1u8..=8,
                seed in 0u64..=u64::MAX,
            ) {
                let item = memory_item(accesses, ws_log, mlp, seed);
                let exact = run_with_cap(item, 2.0, 0);
                let saturating = run_with_cap(item, 2.0, u32::MAX);
                prop_assert_eq!(exact.0, saturating.0, "elapsed time diverged");
                prop_assert_eq!(exact.1, saturating.1, "counters diverged");
                prop_assert_eq!(exact.2, saturating.2, "DRAM stats diverged");
            }

            /// A tiny cap extrapolates almost every round, and
            /// `credit_extrapolated_reads` must keep the aggregate DRAM
            /// statistics describing the *whole* run: the device's read
            /// count equals the LLC-miss counter exactly (every miss is a
            /// DRAM read, simulated or credited), row hits never exceed
            /// reads, and the credited latencies stay physical.
            #[test]
            fn tiny_cap_conserves_aggregate_dram_read_stats(
                accesses in 5_000u64..30_000,
                ws_log in 26u32..29,
                mlp in 1u8..=8,
                cap in 1u32..12,
                seed in 0u64..=u64::MAX,
            ) {
                let item = memory_item(accesses, ws_log, mlp, seed);
                let (elapsed, counters, stats) = run_with_cap(item, 2.0, cap);
                prop_assert_eq!(
                    stats.reads, counters.llc_misses,
                    "extrapolated reads must be credited back to the device"
                );
                prop_assert!(stats.read_row_hits <= stats.reads);
                prop_assert!(stats.total_read_latency >= TimeDelta::ZERO);
                prop_assert!(stats.total_queue_delay >= TimeDelta::ZERO);
                if stats.reads > 0 {
                    prop_assert!(
                        stats.total_read_latency > TimeDelta::ZERO,
                        "credited reads must carry latency"
                    );
                }
                prop_assert!(elapsed > TimeDelta::ZERO);
            }
        }
    }

    fn run_to_completion_cursor(mut cursor: WorkCursor, ghz: f64) -> (TimeDelta, DvfsCounters) {
        let (config, mut hierarchy, mut dram, mut sq) = env_parts();
        let mut now = Time::ZERO;
        let mut total = DvfsCounters::zero();
        loop {
            let mut env = ChunkEnv {
                now,
                freq: Freq::from_ghz(ghz),
                core: CoreId(0),
                config: &config,
                hierarchy: &mut hierarchy,
                dram: &mut dram,
                store_queues: &mut sq,
            };
            match cursor.next_chunk(&mut env) {
                Some(chunk) => {
                    now += chunk.duration;
                    total += chunk.counters;
                }
                None => break,
            }
        }
        (now.since(Time::ZERO), total)
    }
}
