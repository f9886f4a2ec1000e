//! The round-based work generator all benchmark models are built from.
//!
//! A mutator thread executes `rounds` rounds; each round interleaves an
//! optional critical section, compute, memory accesses, allocation, and an
//! optional barrier or timer sleep. Sizes are jittered with a seeded RNG so
//! rounds vary realistically while the total work is deterministic per
//! seed.

use depburst_core::num::round_u64;
use mrt::{Step, StepContext, WorkSource};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use simx::mem::AccessPattern;
use simx::WorkItem;

/// Per-thread, per-round workload parameters (sizes are per round).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RoundParams {
    /// Rounds to execute.
    pub rounds: u64,
    /// Instructions of plain compute per round.
    pub compute_instr: u64,
    /// IPC of the compute.
    pub ipc: f64,
    /// Loads per round.
    pub mem_accesses: u64,
    /// Working-set size the loads walk.
    pub mem_ws: u64,
    /// Memory-level parallelism of the loads.
    pub mem_mlp: f64,
    /// Instructions per load.
    pub mem_cpa: f64,
    /// Bytes allocated per allocation round.
    pub alloc_bytes: u64,
    /// Allocate every n-th round (0 = never).
    pub alloc_every: u64,
    /// Enter the shared critical section every n-th round (0 = never).
    pub lock_every: u64,
    /// Instructions executed while holding the lock.
    pub crit_instr: u64,
    /// Arrive at barrier 0 every n-th round (0 = never).
    pub barrier_every: u64,
    /// Sleep every n-th round (0 = never).
    pub sleep_every: u64,
    /// Sleep duration in microseconds.
    pub sleep_us: f64,
    /// Multiplicative jitter amplitude on work sizes (0 = none,
    /// 0.5 = sizes vary in [0.5x, 1.5x]).
    pub jitter: f64,
}

impl RoundParams {
    /// A quiet default: pure compute rounds.
    #[must_use]
    pub fn compute_only(rounds: u64, instr: u64, ipc: f64) -> Self {
        RoundParams {
            rounds,
            compute_instr: instr,
            ipc,
            mem_accesses: 0,
            mem_ws: 1 << 20,
            mem_mlp: 4.0,
            mem_cpa: 4.0,
            alloc_bytes: 0,
            alloc_every: 0,
            lock_every: 0,
            crit_instr: 0,
            barrier_every: 0,
            sleep_every: 0,
            sleep_us: 0.0,
            jitter: 0.0,
        }
    }

    /// Scales the *number of rounds* (total work) without changing
    /// per-round behaviour, so GC pressure and synchronisation rates are
    /// preserved. Used to shrink runs for tests.
    #[must_use]
    pub fn scaled(mut self, scale: f64) -> Self {
        self.rounds = (round_u64(self.rounds as f64 * scale)).max(1);
        self
    }
}

/// Sub-steps of one round, in emission order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SubStep {
    Lock,
    Crit,
    Unlock,
    Compute,
    Memory,
    Alloc,
    Barrier,
    Sleep,
}

const ORDER: [SubStep; 8] = [
    SubStep::Lock,
    SubStep::Crit,
    SubStep::Unlock,
    SubStep::Compute,
    SubStep::Memory,
    SubStep::Alloc,
    SubStep::Barrier,
    SubStep::Sleep,
];

/// A [`WorkSource`] emitting the round structure described by
/// [`RoundParams`].
#[derive(Debug)]
pub struct RoundSource {
    params: RoundParams,
    /// Base address of this thread's private data region.
    region: u64,
    round: u64,
    sub: usize,
    rng: ChaCha8Rng,
    seed_counter: u64,
}

impl RoundSource {
    /// Creates the source for one thread. `region` is the thread's private
    /// data region base address; `seed` pins all jitter.
    #[must_use]
    pub fn new(params: RoundParams, region: u64, seed: u64) -> Self {
        RoundSource {
            params,
            region,
            round: 0,
            sub: 0,
            rng: ChaCha8Rng::seed_from_u64(seed),
            seed_counter: seed << 20,
        }
    }

    fn jittered(&mut self, value: u64) -> u64 {
        if self.params.jitter <= 0.0 || value == 0 {
            return value;
        }
        let j = self.params.jitter;
        let factor = 1.0 + self.rng.gen_range(-j..j);
        (round_u64(value as f64 * factor)).max(1)
    }

    fn every(round: u64, n: u64) -> bool {
        n > 0 && round % n == n - 1
    }

    fn next_sub(&mut self, ctx: &StepContext) -> Option<Option<Step>> {
        let p = self.params;
        if self.round >= p.rounds {
            return None;
        }
        let sub = ORDER[self.sub];
        self.sub += 1;
        if self.sub == ORDER.len() {
            self.sub = 0;
            self.round += 1;
        }
        let round = self.round;
        let _ = ctx;
        let step = match sub {
            SubStep::Lock if Self::every(round, p.lock_every) => Some(Step::Lock(0)),
            SubStep::Crit if Self::every(round, p.lock_every) && p.crit_instr > 0 => {
                let n = self.jittered(p.crit_instr);
                Some(Step::Work(WorkItem::Compute {
                    instructions: n,
                    ipc: p.ipc,
                }))
            }
            SubStep::Unlock if Self::every(round, p.lock_every) => Some(Step::Unlock(0)),
            SubStep::Compute if p.compute_instr > 0 => {
                let n = self.jittered(p.compute_instr);
                Some(Step::Work(WorkItem::Compute {
                    instructions: n,
                    ipc: p.ipc,
                }))
            }
            SubStep::Memory if p.mem_accesses > 0 => {
                let n = self.jittered(p.mem_accesses);
                self.seed_counter += 1;
                Some(Step::Work(WorkItem::Memory {
                    accesses: n,
                    pattern: AccessPattern::Random {
                        base: self.region,
                        working_set: p.mem_ws,
                    },
                    mlp: p.mem_mlp,
                    compute_per_access: p.mem_cpa,
                    ipc: p.ipc,
                    seed: self.seed_counter,
                }))
            }
            SubStep::Alloc if Self::every(round, p.alloc_every) && p.alloc_bytes > 0 => {
                let n = self.jittered(p.alloc_bytes);
                Some(Step::Alloc { bytes: n.max(64) })
            }
            SubStep::Barrier if Self::every(round, p.barrier_every) => Some(Step::Barrier(0)),
            SubStep::Sleep if Self::every(round, p.sleep_every) && p.sleep_us > 0.0 => {
                let us = p.sleep_us * (1.0 + self.rng.gen_range(-0.3..0.3));
                Some(Step::Sleep(dvfs_trace::TimeDelta::from_micros(us)))
            }
            _ => None,
        };
        Some(step)
    }
}

impl WorkSource for RoundSource {
    fn next_step(&mut self, ctx: &StepContext) -> Option<Step> {
        loop {
            match self.next_sub(ctx) {
                None => return None,
                Some(Some(step)) => return Some(step),
                Some(None) => continue,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dvfs_trace::Time;

    fn ctx() -> StepContext {
        StepContext {
            now: Time::ZERO,
            gc_count: 0,
        }
    }

    fn collect(params: RoundParams, seed: u64) -> Vec<Step> {
        let mut src = RoundSource::new(params, 1 << 40, seed);
        let mut steps = Vec::new();
        while let Some(s) = src.next_step(&ctx()) {
            steps.push(s);
            assert!(steps.len() < 100_000, "runaway source");
        }
        steps
    }

    #[test]
    fn compute_only_emits_one_step_per_round() {
        let steps = collect(RoundParams::compute_only(5, 1000, 2.0), 1);
        assert_eq!(steps.len(), 5);
        assert!(steps
            .iter()
            .all(|s| matches!(s, Step::Work(WorkItem::Compute { .. }))));
    }

    #[test]
    fn lock_rounds_are_balanced() {
        let mut p = RoundParams::compute_only(12, 1000, 2.0);
        p.lock_every = 3;
        p.crit_instr = 100;
        let steps = collect(p, 2);
        let locks = steps.iter().filter(|s| matches!(s, Step::Lock(_))).count();
        let unlocks = steps
            .iter()
            .filter(|s| matches!(s, Step::Unlock(_)))
            .count();
        assert_eq!(locks, 4);
        assert_eq!(locks, unlocks);
        // Every Lock is followed by crit work then Unlock.
        for (i, s) in steps.iter().enumerate() {
            if matches!(s, Step::Lock(_)) {
                assert!(matches!(steps[i + 1], Step::Work(_)));
                assert!(matches!(steps[i + 2], Step::Unlock(_)));
            }
        }
    }

    #[test]
    fn alloc_and_barrier_cadence() {
        let mut p = RoundParams::compute_only(10, 1000, 2.0);
        p.alloc_bytes = 4096;
        p.alloc_every = 2;
        p.barrier_every = 5;
        let steps = collect(p, 3);
        let allocs = steps
            .iter()
            .filter(|s| matches!(s, Step::Alloc { .. }))
            .count();
        let barriers = steps
            .iter()
            .filter(|s| matches!(s, Step::Barrier(_)))
            .count();
        assert_eq!(allocs, 5);
        assert_eq!(barriers, 2);
    }

    #[test]
    fn jitter_is_deterministic_per_seed() {
        let mut p = RoundParams::compute_only(20, 10_000, 2.0);
        p.jitter = 0.4;
        let a = collect(p, 7);
        let b = collect(p, 7);
        let c = collect(p, 8);
        assert_eq!(a, b);
        assert_ne!(a, c);
        // Jitter actually varies the sizes.
        let sizes: Vec<u64> = a
            .iter()
            .map(|s| match s {
                Step::Work(WorkItem::Compute { instructions, .. }) => *instructions,
                _ => 0,
            })
            .collect();
        assert!(sizes.iter().any(|&s| s != sizes[0]));
    }

    #[test]
    fn scaled_changes_rounds_only() {
        let p = RoundParams::compute_only(100, 5_000, 2.0);
        let half = p.scaled(0.5);
        assert_eq!(half.rounds, 50);
        assert_eq!(half.compute_instr, p.compute_instr);
        let tiny = p.scaled(0.0001);
        assert_eq!(tiny.rounds, 1);
    }
}
