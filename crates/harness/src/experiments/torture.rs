//! Crash-consistency torture: prove the durable layer's contract under
//! injected storage faults.
//!
//! The contract (ISSUE 9): a run killed at *any* VFS operation and
//! restarted with `--resume` must produce output byte-identical to an
//! uninterrupted run — or fail closed with a structured
//! [`FailureCause::Storage`] exit. Never silent corruption. This module
//! sweeps that contract across four phases over a small fig. 3 run:
//!
//! 0. **Census** — the reference output with
//!    [`RealVfs`](crate::vfs::RealVfs), then the same pass through an
//!    *inert* [`FaultyVfs`]: the injector at zero intensity must be
//!    bit-identical to the real filesystem (the same identity discipline
//!    `simx::faults` maintains), and its operation counter sizes the
//!    crash-point coordinate space.
//! 1. **Crash-point sweep** — for each selected operation index: run with
//!    a crash point there (power loss truncates unsynced file tails,
//!    every later operation fails), then resume against the real
//!    filesystem over the surviving bytes and classify the outcome as
//!    byte-identical, failed-closed, or silent corruption.
//! 2. **Bit-flip sweep** — flip single bits at evenly-strided positions
//!    of a persisted cache envelope; every flip must be detected (the
//!    envelope quarantined, the truth recomputed), never served.
//! 3. **Soak** — three passes at a uniform fault intensity over one
//!    shared cache directory and a twice-resumed checkpoint, exercising
//!    torn writes, dropped fsyncs, failed renames, ENOSPC windows, and
//!    read-side bit rot together; every output must equal the reference,
//!    and every one of those fault classes must fire at least once.
//!
//! Everything is seeded and deterministic (`jobs = 1`, so the fault
//! schedule is a pure function of the operation sequence). The `torture`
//! binary renders the report and exits nonzero on any contract breach.

use std::convert::Infallible;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use serde::Serialize;

use crate::cache::{SimCache, SimKey};
use crate::experiments::fig3::{self, Direction};
use crate::resilience::{FailureCause, PointFailure, RetryPolicy};
use crate::run::ExecCtx;
use crate::vfs::{FaultyVfs, StorageFaultConfig, StorageFaultStats};

/// The torture sweep's knobs. Defaults are the acceptance-criteria run:
/// every operation index crash-tested at stride 1 for the first
/// [`dense`](Self::dense) ops, strided beyond, 64 bit flips, a 0.3
/// soak. CI uses a much smaller smoke configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TortureConfig {
    /// Work scale of the underlying fig. 3 run.
    pub scale: f64,
    /// Workload seed of the underlying fig. 3 run.
    pub seed: u64,
    /// Crash-test every operation index below this at stride 1.
    pub dense: u64,
    /// Stride between crash points beyond the dense prefix.
    pub stride: u64,
    /// Hard cap on swept crash points (0 = unlimited).
    pub max_points: usize,
    /// Single-bit flips injected into a persisted envelope.
    pub bitflips: usize,
    /// Fault intensity of the soak phase (see
    /// [`StorageFaultConfig::uniform`]).
    pub soak_intensity: f64,
    /// Master seed for every injector the sweep builds.
    pub storage_seed: u64,
}

impl Default for TortureConfig {
    fn default() -> Self {
        TortureConfig {
            scale: 0.02,
            seed: 1,
            dense: 200,
            stride: 17,
            max_points: 0,
            bitflips: 64,
            soak_intensity: 0.3,
            storage_seed: 0xD15C,
        }
    }
}

/// What the sweep found, one run = one report.
#[derive(Debug, Clone, Serialize)]
pub struct TortureReport {
    /// Work scale of the underlying fig. 3 run.
    pub scale: f64,
    /// Workload seed of the underlying fig. 3 run.
    pub seed: u64,
    /// VFS operations in one uninterrupted pass (the census).
    pub total_ops: u64,
    /// Whether the inert injector reproduced the reference output
    /// byte-identically (it must).
    pub inert_identical: bool,
    /// Crash points swept.
    pub crash_points: usize,
    /// Crash points whose resumed output was byte-identical.
    pub identical: usize,
    /// Crash points where the run failed closed with structured storage
    /// failures instead of resuming to identical output.
    pub failed_closed: usize,
    /// Crash points that produced wrong output or an unstructured
    /// failure — the contract breach this harness exists to catch.
    pub silent_corruptions: usize,
    /// Bit flips injected into a persisted envelope.
    pub bitflips: usize,
    /// Flips detected: envelope quarantined, truth recomputed.
    pub bitflips_detected: usize,
    /// Flips that were served from disk — corrupted data reached a
    /// consumer. Must be zero.
    pub bitflips_missed: usize,
    /// Fault intensity of the soak phase.
    pub soak_intensity: f64,
    /// Whether every soak pass reproduced the reference output.
    pub soak_identical: bool,
    /// Everything the soak passes injected, summed.
    pub soak_faults: StorageFaultStats,
    /// The crash points behind `failed_closed`.
    pub failed_closed_points: Vec<u64>,
    /// The crash points behind `silent_corruptions`.
    pub silent_points: Vec<u64>,
}

impl TortureReport {
    /// True when every contract the sweep checks held, and a soak at a
    /// nonzero intensity fired every fault class.
    #[must_use]
    pub fn clean(&self) -> bool {
        self.inert_identical
            && self.silent_corruptions == 0
            && self.bitflips_missed == 0
            && self.soak_identical
            && (self.soak_intensity <= 0.0 || self.soak_dead_classes().is_empty())
    }

    /// The soak's fault classes that never fired: a class that injected
    /// nothing tested nothing.
    #[must_use]
    pub fn soak_dead_classes(&self) -> Vec<&'static str> {
        let s = &self.soak_faults;
        [
            ("torn writes", s.torn_writes),
            ("dropped fsyncs", s.dropped_fsyncs),
            ("rename failures", s.rename_failures),
            ("enospc", s.enospc_failures),
            ("corrupted reads", s.corrupted_reads),
        ]
        .into_iter()
        .filter(|&(_, fired)| fired == 0)
        .map(|(class, _)| class)
        .collect()
    }

    /// The human-readable report.
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "storage-fault torture: fig3 @ scale {} seed {}\n",
            self.scale, self.seed
        ));
        out.push_str(&format!(
            "census: {} VFS ops per pass; inert injector bit-identical: {}\n",
            self.total_ops,
            if self.inert_identical { "yes" } else { "NO" }
        ));
        out.push_str(&format!(
            "crash points swept: {}\n  byte-identical after resume: {}\n  \
             failed closed (structured storage exit): {}\n  SILENT CORRUPTIONS: {}\n",
            self.crash_points, self.identical, self.failed_closed, self.silent_corruptions
        ));
        if !self.failed_closed_points.is_empty() {
            out.push_str(&format!("  failed-closed at ops: {:?}\n", self.failed_closed_points));
        }
        if !self.silent_points.is_empty() {
            out.push_str(&format!("  SILENT at ops: {:?}\n", self.silent_points));
        }
        out.push_str(&format!(
            "bit-flips: {}/{} detected ({} MISSED)\n",
            self.bitflips_detected, self.bitflips, self.bitflips_missed
        ));
        let s = &self.soak_faults;
        out.push_str(&format!(
            "soak: output identical across all three passes: {}\n  injected: {} ops, {} torn writes, \
             {} dropped fsyncs, {} rename failures, {} enospc, {} corrupted reads\n",
            if self.soak_identical { "yes" } else { "NO" },
            s.ops, s.torn_writes, s.dropped_fsyncs, s.rename_failures, s.enospc_failures,
            s.corrupted_reads
        ));
        let dead = self.soak_dead_classes();
        if self.soak_intensity > 0.0 && !dead.is_empty() {
            out.push_str(&format!("  SOAK CLASSES THAT NEVER FIRED: {}\n", dead.join(", ")));
        }
        out.push_str(if self.clean() {
            "verdict: PASS (zero silent corruptions, all flips detected, every soak class fired)\n"
        } else {
            "verdict: FAIL\n"
        });
        out
    }
}

/// The fig. 3 output whose byte-identity the whole sweep is about: one
/// direction (base 1 GHz) of the paper's figure, all three target
/// renders concatenated.
fn fig3_output(ctx: &ExecCtx, scale: f64, seed: u64) -> depburst_core::Result<String> {
    let cells = fig3::collect_with(ctx, Direction::LowToHigh, scale, &[seed])?;
    let mut out = String::new();
    for target in [2.0, 3.0, 4.0] {
        out.push_str(&fig3::render(&cells, target));
        out.push('\n');
    }
    Ok(out)
}

/// One pass's observable outcome.
struct PassOutcome {
    output: depburst_core::Result<String>,
    failures: Vec<PointFailure>,
    stats: Option<StorageFaultStats>,
}

/// The per-pass scratch locations inside the torture workdir.
struct PassDirs {
    cache: PathBuf,
    checkpoint: PathBuf,
}

impl PassDirs {
    fn under(workdir: &Path, name: &str) -> Self {
        PassDirs {
            cache: workdir.join(format!("{name}-cache")),
            checkpoint: workdir.join(format!("{name}-checkpoint")),
        }
    }

    /// Removes every byte this pass family has written.
    fn clean(&self) {
        let _ = std::fs::remove_dir_all(&self.cache);
        let _ = std::fs::remove_dir_all(&self.checkpoint);
    }
}

/// Runs one fig. 3 pass: fresh context, one worker (the fault schedule
/// must be a pure function of the operation sequence), no retries (a
/// retried storage failure would consume extra fault draws), persistent
/// cache and checkpoint in `dirs`, all durable I/O through `storage` when
/// given. `resume` replays the existing checkpoint instead of starting
/// a fresh one.
fn run_pass(
    dirs: &PassDirs,
    scale: f64,
    seed: u64,
    storage: Option<Arc<FaultyVfs>>,
    resume: bool,
) -> PassOutcome {
    let mut ctx = ExecCtx::new(1)
        .with_policy(RetryPolicy::none())
        .with_cache(SimCache::persistent(&dirs.cache));
    if let Some(vfs) = storage {
        ctx = ctx.with_storage(vfs);
    }
    if let Err(open_err) = ctx.open_checkpoint(&dirs.checkpoint, !resume) {
        // A crash or fault while preparing the checkpoint: the pass
        // continues without one, exactly like a binary whose checkpoint
        // directory filled up. The crash itself still fails the points.
        eprintln!("torture: pass has no checkpoint ({open_err})");
    }
    let output = fig3_output(&ctx, scale, seed);
    PassOutcome {
        output,
        failures: ctx.failures(),
        stats: ctx.storage().map(|s| s.stats()),
    }
}

/// The crash-point indices `cfg` selects out of `total_ops` operations:
/// every index below `dense`, then every `stride`-th, capped at
/// `max_points`.
fn crash_points(cfg: &TortureConfig, total_ops: u64) -> Vec<u64> {
    let mut points: Vec<u64> = (0..total_ops.min(cfg.dense)).collect();
    let mut next = cfg.dense;
    while next < total_ops {
        points.push(next);
        next += cfg.stride.max(1);
    }
    if cfg.max_points > 0 {
        points.truncate(cfg.max_points);
    }
    points
}

fn add_stats(a: StorageFaultStats, b: StorageFaultStats) -> StorageFaultStats {
    StorageFaultStats {
        ops: a.ops + b.ops,
        torn_writes: a.torn_writes + b.torn_writes,
        dropped_fsyncs: a.dropped_fsyncs + b.dropped_fsyncs,
        rename_failures: a.rename_failures + b.rename_failures,
        enospc_failures: a.enospc_failures + b.enospc_failures,
        corrupted_reads: a.corrupted_reads + b.corrupted_reads,
        files_truncated_at_crash: a.files_truncated_at_crash + b.files_truncated_at_crash,
        crashed: a.crashed || b.crashed,
    }
}

/// Runs the full torture sweep. Progress goes to stderr; the returned
/// report is the single source of truth for pass/fail.
///
/// # Errors
/// Only infrastructure failures (the reference pass itself failing, no
/// envelope to flip) error out; contract breaches are *reported*, not
/// errored, so the binary can render them before exiting nonzero.
pub fn run(cfg: &TortureConfig) -> Result<TortureReport, Box<dyn std::error::Error>> {
    let workdir =
        std::env::temp_dir().join(format!("depburst-torture-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&workdir);
    std::fs::create_dir_all(&workdir)?;

    // Phase 0a: the reference output, plain real filesystem.
    eprintln!("torture: reference pass (RealVfs)");
    let ref_dirs = PassDirs::under(&workdir, "reference");
    let reference = run_pass(&ref_dirs, cfg.scale, cfg.seed, None, false)
        .output
        .map_err(|e| format!("reference pass failed: {e}"))?;
    ref_dirs.clean();

    // Phase 0b: census — the inert injector must change nothing and
    // tells us how many operations one pass performs.
    eprintln!("torture: census pass (inert injector)");
    let census_dirs = PassDirs::under(&workdir, "census");
    let census_vfs = Arc::new(FaultyVfs::new(StorageFaultConfig::none(cfg.storage_seed)));
    let census = run_pass(
        &census_dirs,
        cfg.scale,
        cfg.seed,
        Some(Arc::clone(&census_vfs)),
        false,
    );
    let inert_identical = census.output.as_deref() == Ok(reference.as_str());
    let total_ops = census_vfs.op_count();
    census_dirs.clean();
    eprintln!("torture: {total_ops} VFS ops per pass; inert identical: {inert_identical}");

    // Phase 1: the crash-point sweep.
    let points = crash_points(cfg, total_ops);
    let mut identical = 0usize;
    let mut failed_closed_points: Vec<u64> = Vec::new();
    let mut silent_points: Vec<u64> = Vec::new();
    let crash_dirs = PassDirs::under(&workdir, "crash");
    for (i, &point) in points.iter().enumerate() {
        if i % 25 == 0 {
            eprintln!("torture: crash point {}/{} (op {point})", i + 1, points.len());
        }
        crash_dirs.clean();
        let faulty = Arc::new(FaultyVfs::new(StorageFaultConfig::crash_at(
            point,
            cfg.storage_seed,
        )));
        let crash = run_pass(&crash_dirs, cfg.scale, cfg.seed, Some(faulty), false);
        // A crash landing after the last result was assembled can let the
        // pass complete; its output must then already be correct.
        if let Ok(out) = &crash.output {
            if *out != reference {
                silent_points.push(point);
                continue;
            }
        }
        // The machine "rebooted": resume over whatever bytes survived.
        let resumed = run_pass(&crash_dirs, cfg.scale, cfg.seed, None, true);
        match &resumed.output {
            Ok(out) if *out == reference => identical += 1,
            Ok(_) => silent_points.push(point),
            Err(_) => {
                // Failing closed is within contract only when every
                // recorded failure is a structured storage failure.
                let structured = !resumed.failures.is_empty()
                    && resumed
                        .failures
                        .iter()
                        .all(|f| f.cause == FailureCause::Storage);
                if structured {
                    failed_closed_points.push(point);
                } else {
                    silent_points.push(point);
                }
            }
        }
    }
    crash_dirs.clean();

    // Phase 2: the bit-flip sweep over one persisted envelope.
    eprintln!("torture: bit-flip sweep ({} flips)", cfg.bitflips);
    let (bitflips_detected, bitflips_missed) =
        bitflip_sweep(&workdir, cfg).map_err(|e| format!("bit-flip sweep: {e}"))?;

    // Phase 3: the soak — every probabilistic fault class at once,
    // three passes over one cache directory and one checkpoint. Pass A
    // starts the checkpoint fresh, so it reads only cache misses; passes
    // B and C resume it through *differently seeded* injectors, so the
    // replay and load paths meet read-side corruption and fresh write
    // faults. Pass C reads what A and B left between them, enough reads
    // for the bit-rot class to fire.
    eprintln!("torture: soak @ intensity {}", cfg.soak_intensity);
    let soak_dirs = PassDirs::under(&workdir, "soak");
    let mut soak_identical = true;
    let mut soak_faults = StorageFaultStats::default();
    for pass in 0..3u64 {
        let vfs = FaultyVfs::new(StorageFaultConfig::uniform(
            cfg.soak_intensity,
            cfg.storage_seed.wrapping_add(pass),
        ));
        let soak = run_pass(&soak_dirs, cfg.scale, cfg.seed, Some(Arc::new(vfs)), pass > 0);
        soak_identical &= soak.output.as_deref() == Ok(reference.as_str());
        soak_faults = add_stats(soak_faults, soak.stats.unwrap_or_default());
    }
    soak_dirs.clean();
    let _ = std::fs::remove_dir_all(&workdir);

    Ok(TortureReport {
        scale: cfg.scale,
        seed: cfg.seed,
        total_ops,
        inert_identical,
        crash_points: points.len(),
        identical,
        failed_closed: failed_closed_points.len(),
        silent_corruptions: silent_points.len(),
        bitflips: cfg.bitflips,
        bitflips_detected,
        bitflips_missed,
        soak_intensity: cfg.soak_intensity,
        soak_identical,
        soak_faults,
        failed_closed_points,
        silent_points,
    })
}

/// Persists one real envelope, then flips one bit at a time at evenly
/// strided positions (covering header and payload alike) and checks each
/// flip is caught: the envelope quarantined and the truth recomputed,
/// never the flipped bytes served. Returns `(detected, missed)`.
fn bitflip_sweep(
    workdir: &Path,
    cfg: &TortureConfig,
) -> Result<(usize, usize), Box<dyn std::error::Error>> {
    let flip_root = workdir.join("flip-cache");
    let seeder = ExecCtx::new(1)
        .with_policy(RetryPolicy::none())
        .with_cache(SimCache::persistent(&flip_root));
    let bench = dacapo_sim::benchmark("lusearch").ok_or("lusearch exists")?;
    let mut plan = crate::run::SweepPlan::new();
    plan.push(crate::run::SimPoint::new(
        bench,
        dvfs_trace::Freq::from_ghz(2.0),
        cfg.scale,
        cfg.seed,
    ));
    let truth = seeder
        .execute(&plan)
        .map_err(|e| format!("seeding run failed: {e}"))?
        .remove(0);
    // The envelope the seeding run just persisted (exactly one).
    let schema_dir = flip_root.join(format!("v{}", crate::cache::SCHEMA_VERSION));
    let envelope_path = std::fs::read_dir(&schema_dir)?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .find(|p| p.extension().is_some_and(|x| x == "json"))
        .ok_or("no persisted envelope to flip")?;
    let key_hex = envelope_path
        .file_stem()
        .and_then(|s| s.to_str())
        .ok_or("envelope file name")?;
    let key = SimKey(u128::from_str_radix(key_hex, 16)?);
    let good = std::fs::read(&envelope_path)?;
    let total_bits = good.len() * 8;

    let mut detected = 0usize;
    let mut missed = 0usize;
    for i in 0..cfg.bitflips {
        let bit = i * total_bits / cfg.bitflips.max(1);
        let mut bad = good.clone();
        bad[bit / 8] ^= 1 << (bit % 8);
        std::fs::write(&envelope_path, &bad)?;
        let probe = SimCache::persistent(&flip_root);
        let Ok(served) = probe.get_or_compute(key, || Ok::<_, Infallible>((*truth).clone()));
        let stats = probe.stats();
        if stats.disk_hits == 0 && stats.quarantined == 1 && *served == *truth {
            detected += 1;
        } else {
            missed += 1;
            eprintln!(
                "torture: bit {bit} NOT caught (disk_hits {}, quarantined {}, equal {})",
                stats.disk_hits,
                stats.quarantined,
                *served == *truth
            );
        }
        // Restore the slot for the next flip.
        let _ = std::fs::remove_dir_all(flip_root.join("quarantine"));
        std::fs::write(&envelope_path, &good)?;
    }
    let _ = std::fs::remove_dir_all(&flip_root);
    Ok((detected, missed))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crash_points_are_dense_then_strided_and_capped() {
        let cfg = TortureConfig {
            dense: 4,
            stride: 10,
            max_points: 0,
            ..TortureConfig::default()
        };
        assert_eq!(crash_points(&cfg, 30), vec![0, 1, 2, 3, 4, 14, 24]);
        // Fewer ops than the dense prefix: every op is a point.
        assert_eq!(crash_points(&cfg, 3), vec![0, 1, 2]);
        // The cap truncates from the front (dense points first).
        let capped = TortureConfig {
            max_points: 5,
            ..cfg
        };
        assert_eq!(crash_points(&capped, 30), vec![0, 1, 2, 3, 4]);
        assert!(crash_points(&cfg, 0).is_empty());
    }

    #[test]
    fn report_renders_verdict_and_counts() {
        let report = TortureReport {
            scale: 0.02,
            seed: 1,
            total_ops: 150,
            inert_identical: true,
            crash_points: 150,
            identical: 149,
            failed_closed: 1,
            silent_corruptions: 0,
            bitflips: 64,
            bitflips_detected: 64,
            bitflips_missed: 0,
            soak_intensity: 0.3,
            soak_identical: true,
            soak_faults: StorageFaultStats {
                torn_writes: 1,
                dropped_fsyncs: 2,
                rename_failures: 3,
                enospc_failures: 4,
                corrupted_reads: 5,
                ..StorageFaultStats::default()
            },
            failed_closed_points: vec![7],
            silent_points: vec![],
        };
        assert!(report.clean());
        let text = report.render();
        assert!(text.contains("SILENT CORRUPTIONS: 0"));
        assert!(text.contains("bit-flips: 64/64 detected"));
        assert!(text.contains("verdict: PASS"));
        let broken = TortureReport {
            silent_corruptions: 1,
            silent_points: vec![33],
            ..report.clone()
        };
        assert!(!broken.clean());
        assert!(broken.render().contains("verdict: FAIL"));
        // A soak class that never fired fails the verdict, by name.
        let dead = TortureReport {
            soak_faults: StorageFaultStats {
                corrupted_reads: 0,
                ..report.soak_faults
            },
            ..report.clone()
        };
        assert_eq!(dead.soak_dead_classes(), ["corrupted reads"]);
        assert!(!dead.clean());
        assert!(dead.render().contains("NEVER FIRED: corrupted reads"));
        // No soak, no class to fire.
        let unsoaked = TortureReport {
            soak_intensity: 0.0,
            ..dead
        };
        assert!(unsoaked.clean());
    }
}
