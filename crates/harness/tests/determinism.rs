//! Differential determinism test: the parallel runner must be
//! bit-for-bit indistinguishable from the historical sequential harness,
//! and a warm cache — in-memory or replayed from disk by a fresh
//! context — must not change a single byte of output.
//!
//! One test shares the simulated points across all four comparisons so
//! the suite simulates each (benchmark, frequency) point at most twice.
//! Two more interrupt a finished checkpoint the way a crash or SIGINT
//! would (half its entries never written, one torn mid-write) and prove
//! the resumed run is byte-identical too.

use std::path::{Path, PathBuf};

use harness::experiments::fig1;
use harness::{ExecCtx, SimCache};

const SCALE: f64 = 0.01;
const SEEDS: [u64; 1] = [1];

/// The envelopes a checkpoint rooted at `root` holds, sorted.
fn checkpoint_entries(root: &Path) -> Vec<PathBuf> {
    let schema_dir = root.join(format!("v{}", harness::cache::SCHEMA_VERSION));
    let mut entries: Vec<PathBuf> = std::fs::read_dir(schema_dir)
        .expect("checkpoint written")
        .map(|e| e.expect("readable entry").path())
        .collect();
    entries.sort();
    entries
}

/// Interrupts the finished checkpoint at `root` as a crash would: the
/// second half of its entries are deleted (never written) and the first
/// survivor is truncated mid-write. Returns how many intact entries
/// remain.
fn interrupt(root: &Path) -> u64 {
    let entries = checkpoint_entries(root);
    assert!(entries.len() >= 4, "need enough entries to interrupt");
    let half = entries.len() / 2;
    for lost in &entries[half..] {
        std::fs::remove_file(lost).expect("delete entry");
    }
    let bytes = std::fs::read(&entries[0]).expect("read entry");
    std::fs::write(&entries[0], &bytes[..bytes.len() / 2]).expect("truncate entry");
    (half - 1) as u64
}

/// A context with `jobs` workers and the checkpoint at `root` open,
/// fresh or resumed.
fn checkpointed(jobs: usize, root: &Path, fresh: bool) -> ExecCtx {
    let mut ctx = ExecCtx::new(jobs);
    ctx.open_checkpoint(root, fresh).expect("checkpoint opens");
    ctx
}

fn fig1_report(ctx: &ExecCtx) -> String {
    let (rows, cells) = fig1::run_with(ctx, SCALE, &SEEDS).expect("fig1 succeeds");
    let mut out = fig1::render(&rows);
    out.push('\n');
    out.push_str(&serde_json::to_string_pretty(&rows).expect("rows serialize"));
    out.push('\n');
    out.push_str(&serde_json::to_string_pretty(&cells).expect("cells serialize"));
    out
}

#[test]
fn fig1_is_byte_identical_across_jobs_and_cache_states() {
    let dir = std::env::temp_dir().join(format!("depburst-diff-cache-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    // jobs=1, in-memory cache: the historical sequential harness.
    let sequential = fig1_report(&ExecCtx::sequential());

    // jobs=4, persisting every computed point to `dir`.
    let par_ctx = ExecCtx::new(4).with_cache(SimCache::persistent(&dir));
    let parallel = fig1_report(&par_ctx);
    assert_eq!(
        sequential, parallel,
        "jobs=4 produced different bytes than jobs=1"
    );
    let cold = par_ctx.cache.stats();
    assert!(cold.misses > 0, "cold pass must simulate");

    // Same context again: every point now served from the in-process memo.
    let warm = fig1_report(&par_ctx);
    let stats = par_ctx.cache.stats();
    assert_eq!(parallel, warm, "warm cache changed the report bytes");
    assert_eq!(
        stats.misses, cold.misses,
        "warm pass must not simulate anything new"
    );
    assert!(
        stats.memory_hits > cold.memory_hits,
        "warm pass must be served from the memo"
    );

    // A brand-new context sharing only the directory must replay the
    // whole figure from disk, byte-identical, without simulating.
    let replay_ctx = ExecCtx::new(2).with_cache(SimCache::persistent(&dir));
    let replayed = fig1_report(&replay_ctx);
    let replay_stats = replay_ctx.cache.stats();
    assert_eq!(
        sequential, replayed,
        "disk-replayed report differs from the computed one"
    );
    assert_eq!(
        replay_stats.misses, 0,
        "persisted envelopes must satisfy every point"
    );
    assert!(replay_stats.disk_hits > 0);

    let _ = std::fs::remove_dir_all(&dir);
}

/// The sampled tier must satisfy the same determinism contract as exact
/// execution: pool width, cache temperature, and disk replay may not
/// change a byte. Sampled points decompose into probe/measure sub-runs
/// plus an extrapolation — every stage must be pure for this to hold.
#[test]
fn sampled_runs_are_byte_identical_across_jobs_and_cache_states() {
    let dir = std::env::temp_dir().join(format!("depburst-sampled-cache-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let cfg = Some(simx::SamplingConfig::default());

    // jobs=1, in-memory cache.
    let sequential = fig1_report(&ExecCtx::sequential().with_sampling(cfg));

    // jobs=4, persisting both the sampled envelopes and their exact
    // sub-runs to `dir`.
    let par_ctx = ExecCtx::new(4)
        .with_cache(SimCache::persistent(&dir))
        .with_sampling(cfg);
    let parallel = fig1_report(&par_ctx);
    assert_eq!(
        sequential, parallel,
        "sampled jobs=4 produced different bytes than jobs=1"
    );
    let cold = par_ctx.cache.stats();
    assert!(cold.misses > 0, "cold sampled pass must simulate");

    // Warm memo: nothing re-simulates, bytes unchanged.
    let warm = fig1_report(&par_ctx);
    let stats = par_ctx.cache.stats();
    assert_eq!(parallel, warm, "warm cache changed the sampled bytes");
    assert_eq!(stats.misses, cold.misses, "warm sampled pass must not simulate");

    // A fresh context replays the sampled envelopes from disk without
    // re-running the extrapolator or any sub-run.
    let replay_ctx = ExecCtx::new(2)
        .with_cache(SimCache::persistent(&dir))
        .with_sampling(cfg);
    let replayed = fig1_report(&replay_ctx);
    assert_eq!(sequential, replayed, "disk-replayed sampled report differs");
    assert_eq!(
        replay_ctx.cache.stats().misses,
        0,
        "persisted sampled envelopes must satisfy every point"
    );

    let _ = std::fs::remove_dir_all(&dir);
}

/// A sampled sweep interrupted mid-checkpoint must resume
/// byte-identically, exactly like the exact tier: surviving sampled
/// envelopes replay, the lost ones re-run their probe/measure sub-runs
/// and re-extrapolate.
#[test]
fn sampled_interrupted_journal_resumes_byte_identical() {
    let dir = std::env::temp_dir().join(format!("depburst-sampled-resume-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let root = dir.join("run");
    let cfg = Some(simx::SamplingConfig::default());

    let baseline = fig1_report(&ExecCtx::sequential().with_sampling(cfg));

    {
        let ctx = checkpointed(4, &root, true).with_sampling(cfg);
        let full = fig1_report(&ctx);
        assert_eq!(baseline, full, "checkpointed sampled run changed the bytes");
        assert!(
            checkpoint_entries(&root).len() > 2,
            "the checkpoint must record the sampled points"
        );
    }

    let intact = interrupt(&root);

    let ctx = checkpointed(2, &root, false).with_sampling(cfg);
    let resumed = fig1_report(&ctx);
    assert_eq!(baseline, resumed, "resumed sampled run differs from baseline");
    let stats = ctx.checkpoint().expect("checkpoint attached").stats();
    assert_eq!(stats.disk_hits, intact, "every intact sampled entry must replay");
    assert_eq!(stats.quarantined, 1, "the torn entry must be rejected");
    assert!(
        ctx.cache.stats().misses > 0,
        "lost sampled tail must be recomputed"
    );

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn invariant_monitor_mode_never_changes_the_physics() {
    // The monitor observes; it must not perturb. A run's summary —
    // every f64 bit included — must be byte-identical whether the
    // monitor is off (the pre-monitor harness), cheap, or full. The
    // goldens suite separately pins the off-mode bytes to the
    // checked-in references, so transitivity pins all three modes to
    // the pre-monitor behaviour.
    let bench = dacapo_sim::benchmark("lusearch").expect("exists");
    let config = harness::RunConfig {
        freq: dvfs_trace::Freq::from_ghz(2.0),
        scale: SCALE,
        seed: 1,
    };
    let summary_at = |mode: simx::InvariantMode| {
        let result = harness::try_run_benchmark_monitored(bench, config, mode)
            .unwrap_or_else(|e| panic!("clean run under {mode} failed: {e}"));
        serde_json::to_string_pretty(&result.summarize()).expect("summary serializes")
    };
    let off = summary_at(simx::InvariantMode::Off);
    assert_eq!(off, summary_at(simx::InvariantMode::Cheap), "cheap != off");
    assert_eq!(off, summary_at(simx::InvariantMode::Full), "full != off");
}

#[test]
fn interrupted_journal_resumes_byte_identical() {
    let dir = std::env::temp_dir().join(format!("depburst-resume-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let root = dir.join("run");

    // The uninterrupted reference run (no checkpoint, no cache dir).
    let baseline = fig1_report(&ExecCtx::sequential());

    // A full checkpointed run: every cacheable point lands in the store.
    let full_misses = {
        let ctx = checkpointed(4, &root, true);
        let full = fig1_report(&ctx);
        assert_eq!(baseline, full, "checkpointed run changed the report bytes");
        assert!(
            checkpoint_entries(&root).len() > 2,
            "the checkpoint must record the sweep's points"
        );
        ctx.cache.stats().misses
    };

    // Interrupt: half the entries lost, one torn mid-write.
    let intact = interrupt(&root);

    // Resume: the intact entries replay (zero cache misses for them),
    // the lost and torn ones recompute, and the bytes match exactly.
    let resumed_misses = {
        let ctx = checkpointed(2, &root, false);
        let resumed = fig1_report(&ctx);
        assert_eq!(baseline, resumed, "resumed run differs from baseline");
        let stats = ctx.checkpoint().expect("checkpoint attached").stats();
        assert_eq!(stats.disk_hits, intact, "every intact entry must replay");
        assert_eq!(stats.quarantined, 1, "the torn entry must be rejected");
        ctx.cache.stats().misses
    };
    assert!(resumed_misses > 0, "lost tail must be recomputed");
    assert!(
        resumed_misses < full_misses,
        "replayed records must not be recomputed ({resumed_misses} vs {full_misses})"
    );

    // The resumed run re-stored the lost and torn entries, so a third
    // pass replays everything: zero simulations.
    let ctx = checkpointed(2, &root, false);
    let third = fig1_report(&ctx);
    assert_eq!(baseline, third, "healed-checkpoint run differs from baseline");
    assert_eq!(
        ctx.cache.stats().misses,
        0,
        "a healed checkpoint must satisfy every cacheable point"
    );

    let _ = std::fs::remove_dir_all(&dir);
}
