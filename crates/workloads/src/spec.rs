//! Benchmark registry: the seven DaCapo workloads of Table I.

use mrt::{ManagedRuntime, RuntimeConfig, WorkSource};
use simx::Machine;

use crate::benches;
use crate::rounds::RoundSource;

/// Memory- vs compute-intensive classification (Table I: an application
/// spending >10% of its time in GC is memory-intensive).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BenchClass {
    /// Memory-intensive (GC > 10% of execution time).
    Memory,
    /// Compute-intensive.
    Compute,
}

/// The paper's published Table I numbers, kept for comparison in the
/// harness output (we calibrate toward them, we do not hard-code them into
/// the simulation).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PaperNumbers {
    /// Execution time at 1 GHz, milliseconds.
    pub exec_ms: f64,
    /// GC time at 1 GHz, milliseconds.
    pub gc_ms: f64,
}

/// A benchmark model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Benchmark {
    /// Canonical name (matches the paper).
    pub name: &'static str,
    /// Memory/compute classification.
    pub class: BenchClass,
    /// Heap size in MB (Table I).
    pub heap_mb: u64,
    /// Application threads (4 everywhere except avrora's 6).
    pub app_threads: usize,
    /// The paper's reference timings.
    pub paper: PaperNumbers,
}

/// All seven benchmarks, in the paper's Table I order.
#[must_use]
pub fn all_benchmarks() -> &'static [Benchmark] {
    const ALL: [Benchmark; 7] = [
        Benchmark {
            name: "xalan",
            class: BenchClass::Memory,
            heap_mb: 108,
            app_threads: 4,
            paper: PaperNumbers {
                exec_ms: 1400.0,
                gc_ms: 270.0,
            },
        },
        Benchmark {
            name: "pmd",
            class: BenchClass::Memory,
            heap_mb: 98,
            app_threads: 4,
            paper: PaperNumbers {
                exec_ms: 1345.0,
                gc_ms: 230.0,
            },
        },
        Benchmark {
            name: "pmd-scale",
            class: BenchClass::Memory,
            heap_mb: 98,
            app_threads: 4,
            paper: PaperNumbers {
                exec_ms: 500.0,
                gc_ms: 80.0,
            },
        },
        Benchmark {
            name: "lusearch",
            class: BenchClass::Memory,
            heap_mb: 68,
            app_threads: 4,
            paper: PaperNumbers {
                exec_ms: 2600.0,
                gc_ms: 285.0,
            },
        },
        Benchmark {
            name: "lusearch-fix",
            class: BenchClass::Compute,
            heap_mb: 68,
            app_threads: 4,
            paper: PaperNumbers {
                exec_ms: 1249.0,
                gc_ms: 42.0,
            },
        },
        Benchmark {
            name: "avrora",
            class: BenchClass::Compute,
            heap_mb: 98,
            app_threads: 6,
            paper: PaperNumbers {
                exec_ms: 1782.0,
                gc_ms: 5.0,
            },
        },
        Benchmark {
            name: "sunflow",
            class: BenchClass::Compute,
            heap_mb: 108,
            app_threads: 4,
            paper: PaperNumbers {
                exec_ms: 4900.0,
                gc_ms: 82.0,
            },
        },
    ];
    &ALL
}

/// Looks up a benchmark by name.
#[must_use]
pub fn benchmark(name: &str) -> Option<&'static Benchmark> {
    all_benchmarks().iter().find(|b| b.name == name)
}

impl Benchmark {
    /// The managed-runtime configuration for this benchmark (heap sizing
    /// per Table I).
    #[must_use]
    pub fn runtime_config(&self) -> RuntimeConfig {
        benches::runtime_config(self)
    }

    /// Folds the benchmark's *derived* workload content into `h` for the
    /// simulation memo cache key: the per-thread round parameters, the
    /// synchronisation shape, and the runtime configuration — everything
    /// [`Benchmark::install`] feeds the machine. Hashing the derived data
    /// rather than just the name means a recalibration of a benchmark model
    /// invalidates its cached results automatically.
    pub fn hash_into(&self, h: &mut depburst_core::stablehash::StableHasher) {
        h.write_tag("dacapo_sim::Benchmark");
        h.write_str(self.name);
        h.write_u64(self.heap_mb);
        h.write_u64(self.app_threads as u64);
        for t in 0..self.app_threads {
            let p = benches::thread_params(self, t);
            h.write_tag("thread");
            h.write_u64(p.rounds);
            h.write_u64(p.compute_instr);
            h.write_f64(p.ipc);
            h.write_u64(p.mem_accesses);
            h.write_u64(p.mem_ws);
            h.write_f64(p.mem_mlp);
            h.write_f64(p.mem_cpa);
            h.write_u64(p.alloc_bytes);
            h.write_u64(p.alloc_every);
            h.write_u64(p.lock_every);
            h.write_u64(p.crit_instr);
            h.write_u64(p.barrier_every);
            h.write_u64(p.sleep_every);
            h.write_f64(p.sleep_us);
            h.write_f64(p.jitter);
        }
        let (locks, barriers) = benches::sync_shape(self);
        h.write_tag("sync");
        h.write_u64(locks as u64);
        h.write_u64(barriers.len() as u64);
        for parties in &barriers {
            h.write_u32(*parties);
        }
        let rc = self.runtime_config();
        h.write_tag("runtime");
        h.write_u64(rc.heap_size);
        h.write_u64(rc.nursery_size);
        h.write_u64(rc.gc_workers as u64);
        h.write_f64(rc.survivor_fraction);
        h.write_u32(rc.full_heap_period);
        h.write_f64(rc.full_heap_reclaim);
        h.write_u64(rc.packet_bytes);
        h.write_f64(rc.trace_reads_per_line);
        h.write_u64(rc.queue_lock_hold_cycles);
        h.write_bool(rc.jit);
        h.write_u64(rc.jit_budget_instructions);
        h.write_f64(rc.jit_period.as_secs());
        h.write_opt_u64(rc.service_affinity.map(u64::from));
        h.write_opt_u64(rc.mutator_affinity.map(u64::from));
    }

    /// Stable content digest of the workload spec (see
    /// [`hash_into`](Benchmark::hash_into)).
    #[must_use]
    pub fn spec_digest(&self) -> u128 {
        let mut h = depburst_core::stablehash::StableHasher::new();
        self.hash_into(&mut h);
        h.finish()
    }

    /// Installs the benchmark on a machine at the given work `scale`
    /// (1.0 = the paper's full run; tests use small scales) and RNG seed.
    pub fn install(&self, machine: &mut Machine, scale: f64, seed: u64) -> ManagedRuntime {
        self.install_with(machine, scale, seed, self.runtime_config())
    }

    /// [`install`](Self::install) under a modified runtime configuration
    /// (the per-core DVFS study pins thread groups to cores through its
    /// affinity masks); the workload itself is unchanged.
    pub fn install_with(
        &self,
        machine: &mut Machine,
        scale: f64,
        seed: u64,
        runtime_config: RuntimeConfig,
    ) -> ManagedRuntime {
        let sources: Vec<Box<dyn WorkSource>> = (0..self.app_threads)
            .map(|t| {
                let params = benches::thread_params(self, t).scaled(scale);
                let region = mrt_region(t);
                Box::new(RoundSource::new(
                    params,
                    region,
                    seed ^ ((t as u64 + 1) * 0x9E37_79B9),
                )) as Box<dyn WorkSource>
            })
            .collect();
        let (locks, barriers) = benches::sync_shape(self);
        ManagedRuntime::install(
            machine,
            runtime_config,
            sources,
            locks,
            &barriers,
        )
    }
}

/// Private data region for thread `t`.
fn mrt_region(t: usize) -> u64 {
    mrt::AddressMap::app_region(t as u64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_matches_table_i() {
        let all = all_benchmarks();
        assert_eq!(all.len(), 7);
        let xalan = benchmark("xalan").expect("exists");
        assert_eq!(xalan.heap_mb, 108);
        assert_eq!(xalan.class, BenchClass::Memory);
        let avrora = benchmark("avrora").expect("exists");
        assert_eq!(avrora.app_threads, 6);
        assert_eq!(avrora.class, BenchClass::Compute);
        assert!(benchmark("nonesuch").is_none());
        // Memory-intensive benchmarks have GC > 10% of exec per Table I.
        for b in all {
            let frac = b.paper.gc_ms / b.paper.exec_ms;
            match b.class {
                BenchClass::Memory => assert!(frac > 0.10, "{}: {frac}", b.name),
                BenchClass::Compute => assert!(frac < 0.10, "{}: {frac}", b.name),
            }
        }
    }

    #[test]
    fn spec_digests_are_stable_and_distinct() {
        let mut seen = std::collections::HashSet::new();
        for b in all_benchmarks() {
            assert_eq!(b.spec_digest(), b.spec_digest(), "{} unstable", b.name);
            assert!(seen.insert(b.spec_digest()), "{} collides", b.name);
        }
    }
}
