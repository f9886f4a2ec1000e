//! Storage-layer integration tests: quarantine semantics under
//! concurrent loaders, and the crash → fail-closed → resume →
//! byte-identical contract end to end through [`ExecCtx`].

use std::convert::Infallible;
use std::sync::{Arc, Barrier};

use harness::{
    ExecCtx, FailureCause, FaultyVfs, RetryPolicy, RunConfig, SimCache, SimKey, SimPoint,
    StorageFaultConfig, SweepPlan,
};

const SCALE: f64 = 0.01;

/// One genuinely simulated summary to seed cache slots with.
fn real_summary() -> harness::RunSummary {
    let bench = dacapo_sim::benchmark("lusearch").expect("lusearch exists");
    harness::try_run_benchmark(
        bench,
        RunConfig {
            freq: dvfs_trace::Freq::from_ghz(2.0),
            scale: SCALE,
            seed: 1,
        },
    )
    .expect("clean run")
    .summarize()
}

/// Plants `bytes` in `key`'s envelope slot of a persistent cache rooted
/// at `dir`, replacing whatever a seeding pass stored there.
fn plant(dir: &std::path::Path, key: SimKey, truth: &harness::RunSummary, mutate: impl Fn(&mut Vec<u8>)) {
    let seeder = SimCache::persistent(dir);
    let truth = truth.clone();
    seeder
        .get_or_compute::<_, Infallible>(key, || Ok(truth))
        .expect("seeding store succeeds");
    let slot = dir
        .join(format!("v{}", harness::cache::SCHEMA_VERSION))
        .join(format!("{}.json", key.hex()));
    let mut bytes = std::fs::read(&slot).expect("seeded envelope exists");
    mutate(&mut bytes);
    std::fs::write(&slot, &bytes).expect("plant corrupt envelope");
}

/// Races `n` fresh cache instances (distinct processes in spirit: no
/// shared memo, no shared in-flight table) against one bad envelope and
/// checks the quarantine fired exactly once and every loader got the
/// truth by recomputing, never the bad bytes.
fn race_loaders(dir: &std::path::Path, key: SimKey, truth: &harness::RunSummary, n: usize) {
    let barrier = Barrier::new(n);
    std::thread::scope(|scope| {
        for _ in 0..n {
            scope.spawn(|| {
                let cache = SimCache::persistent(dir);
                barrier.wait();
                let truth_for_miss = truth.clone();
                let served = cache
                    .get_or_compute::<_, Infallible>(key, || Ok(truth_for_miss))
                    .expect("loader succeeds");
                assert_eq!(
                    serde_json::to_string(&*served).expect("serializes"),
                    serde_json::to_string(truth).expect("serializes"),
                    "a loader was served something other than the truth"
                );
            });
        }
    });
    let quarantine: Vec<_> = std::fs::read_dir(dir.join("quarantine"))
        .expect("quarantine dir exists")
        .collect();
    assert_eq!(
        quarantine.len(),
        1,
        "the bad envelope must land in quarantine exactly once"
    );
    // Whoever recomputed re-persisted a good envelope: a later cache
    // serves the slot from disk without quarantining anything.
    let fresh = SimCache::persistent(dir);
    let truth_unused = truth.clone();
    fresh
        .get_or_compute::<_, Infallible>(key, || Ok(truth_unused))
        .expect("replay succeeds");
    let stats = fresh.stats();
    assert_eq!(stats.disk_hits, 1, "healed slot must replay from disk");
    assert_eq!(stats.quarantined, 0);
}

#[test]
fn corrupt_envelopes_quarantine_exactly_once_under_concurrent_loaders() {
    let dir = std::env::temp_dir().join(format!("depburst-storage-race-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let truth = real_summary();
    let key = SimKey(0xDEAD_BEEF);
    // Flip one payload bit: the checksum must catch it.
    plant(&dir, key, &truth, |bytes| {
        let at = bytes.len() - bytes.len() / 4;
        bytes[at] ^= 0x01;
    });
    race_loaders(&dir, key, &truth, 2);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn stale_schema_envelopes_quarantine_exactly_once_under_concurrent_loaders() {
    let dir = std::env::temp_dir().join(format!("depburst-storage-stale-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let truth = real_summary();
    let key = SimKey(0xCAFE);
    // A valid envelope whose schema predates the current format.
    plant(&dir, key, &truth, |bytes| {
        let text = String::from_utf8(bytes.clone()).expect("utf8 envelope");
        let marker = format!("\"schema\":{}", harness::cache::SCHEMA_VERSION);
        assert!(text.contains(&marker), "envelope must carry its schema");
        *bytes = text.replacen(&marker, "\"schema\":1", 1).into_bytes();
    });
    race_loaders(&dir, key, &truth, 2);
    let _ = std::fs::remove_dir_all(&dir);
}

/// The end-to-end crash contract: a sweep dying at a crash point fails
/// closed with structured [`FailureCause::Storage`] failures, and a
/// resumed run over the surviving bytes is byte-identical to an
/// uninterrupted one — replaying what was durably committed instead of
/// re-simulating it.
#[test]
fn crash_interrupted_sweep_fails_closed_then_resumes_byte_identical() {
    let dir = std::env::temp_dir().join(format!("depburst-storage-crash-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let cache_dir = dir.join("cache");
    let checkpoint_root = dir.join("checkpoint");

    let mut plan = SweepPlan::new();
    for name in ["lusearch", "sunflow"] {
        let bench = dacapo_sim::benchmark(name).expect("benchmark exists");
        for ghz in [1.0, 4.0] {
            plan.push(SimPoint::new(bench, dvfs_trace::Freq::from_ghz(ghz), SCALE, 1));
        }
    }
    let reference: Vec<String> = ExecCtx::sequential()
        .execute(&plan)
        .expect("reference sweep")
        .iter()
        .map(|s| serde_json::to_string(&**s).expect("serializes"))
        .collect();

    // Crash after the first point's cache envelope commit. Ops: the
    // checkpoint's create_dir_all (1); for the first point the cache's
    // read-miss (2; a fresh checkpoint serves its memo and reads
    // nothing), then the cache envelope's create_dir_all, write, fsync
    // and rename (3-6). The checkpoint's own store of that point is the
    // op that dies.
    let faulty = Arc::new(FaultyVfs::new(StorageFaultConfig::crash_at(6, 99)));
    let mut ctx = ExecCtx::new(1)
        .with_policy(RetryPolicy::none())
        .with_cache(SimCache::persistent(&cache_dir))
        .with_storage(Arc::clone(&faulty));
    ctx.open_checkpoint(&checkpoint_root, true).expect("checkpoint");
    let crashed = ctx.execute(&plan);
    assert!(crashed.is_err(), "a crashed sweep must not return results");
    assert!(faulty.crashed());
    let failures = ctx.failures();
    assert!(!failures.is_empty());
    assert!(
        failures.iter().all(|f| f.cause == FailureCause::Storage),
        "every post-crash failure must be structured as Storage: {failures:?}"
    );

    assert_eq!(
        ctx.checkpoint().expect("checkpoint attached").stats().persist_failures,
        1,
        "the checkpoint store of the first point died at the crash"
    );

    // "Reboot": plain filesystem over whatever survived the power loss.
    let mut resumed_ctx = ExecCtx::new(1).with_cache(SimCache::persistent(&cache_dir));
    resumed_ctx
        .open_checkpoint(&checkpoint_root, false)
        .expect("resume checkpoint");
    let resumed: Vec<String> = resumed_ctx
        .execute(&plan)
        .expect("resumed sweep completes")
        .iter()
        .map(|s| serde_json::to_string(&**s).expect("serializes"))
        .collect();
    assert_eq!(reference, resumed, "resumed sweep must be byte-identical");
    let stats = resumed_ctx.cache.stats();
    assert!(
        stats.disk_hits >= 1,
        "the envelope committed before the crash must replay from disk"
    );
    assert!(stats.misses >= 1, "the lost tail must re-simulate");
    assert_eq!(stats.quarantined, 0, "committed envelopes must verify clean");

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn storage_cause_serializes_structurally() {
    assert_eq!(
        serde_json::to_string(&FailureCause::Storage).expect("serializes"),
        "\"Storage\""
    );
}
