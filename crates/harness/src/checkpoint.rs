//! A run's checkpoint: the persistent [`SimCache`] that `--run-id ID`
//! opens, and `--resume ID` reopens, at `<checkpoint dir>/<ID>/`.
//!
//! A checkpoint is not a store of its own. It is the memo cache's
//! envelope store rooted at the run id, so its entries have the cache's
//! framing, checksum, quarantine and atomic commit ([`crate::cache`]),
//! and the point pipeline reads and writes it with
//! [`load`](SimCache::load) and [`store`](SimCache::store). What belongs
//! to the role alone lives here: turning a run id into a root directory,
//! and what opening that root fresh or for a resume does to the entries
//! an earlier run left.

use std::io;
use std::path::PathBuf;

use crate::cache::SimCache;

impl SimCache {
    /// The root of run `run_id`'s checkpoint store: `<dir>/<ID>`, where
    /// `<dir>` is `DEPBURST_CHECKPOINT_DIR`, or `results/checkpoints`.
    ///
    /// # Errors
    /// An invalid run id (it becomes a directory name): use
    /// `[A-Za-z0-9._-]`, at most 128 characters, not starting with `.`.
    pub fn checkpoint_root(run_id: &str) -> io::Result<PathBuf> {
        let ok = !run_id.is_empty()
            && run_id.len() <= 128
            && run_id
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '-' | '_' | '.'))
            && !run_id.starts_with('.');
        if !ok {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!("invalid run id {run_id:?} (use [A-Za-z0-9._-], not starting with '.')"),
            ));
        }
        let dir = std::env::var_os("DEPBURST_CHECKPOINT_DIR")
            .map_or_else(|| PathBuf::from("results/checkpoints"), PathBuf::from);
        Ok(dir.join(run_id))
    }

    /// Prepares this persistent store as a run's checkpoint, through its
    /// storage layer. `fresh` (a new `--run-id`) removes every entry an
    /// earlier run with the same id left in the schema directory, so a
    /// new run never replays an old one's points; the store then serves
    /// its memo only, since every read of that directory would miss, and
    /// still persists each point it stores. Otherwise (`--resume`)
    /// the entries stay and load on demand; a missing store starts from
    /// scratch with a warning, which names a journal file the checkpoint
    /// format before this one left at `<root>.jsonl`, since it is not
    /// read.
    ///
    /// # Errors
    /// Listing, removing or creating the directory failed: the caller
    /// runs without a checkpoint.
    pub fn begin_checkpoint(&mut self, fresh: bool) -> io::Result<()> {
        self.memo_only = fresh;
        let Some(dir) = self.dir.as_deref() else {
            return Ok(());
        };
        if fresh {
            if self.vfs.exists(dir) {
                for entry in self.vfs.list(dir)? {
                    self.vfs.remove(&entry)?;
                }
            }
        } else if !self.vfs.exists(dir) {
            let root = dir.parent().unwrap_or(dir);
            let mut journal = root.as_os_str().to_owned();
            journal.push(".jsonl");
            let journal = PathBuf::from(journal);
            if self.vfs.exists(&journal) {
                eprintln!(
                    "warning: no checkpoint at {}; {} is an older journal and is not read; \
                     starting from scratch",
                    root.display(),
                    journal.display()
                );
            } else {
                eprintln!(
                    "warning: no checkpoint at {}; starting from scratch",
                    root.display()
                );
            }
        }
        self.vfs.create_dir_all(dir)
    }
}

#[cfg(test)]
mod tests {
    use std::convert::Infallible;

    use super::*;
    use crate::cache::{write_envelope, SimKey, SCHEMA_VERSION};
    use crate::run::RunSummary;
    use crate::vfs::{FaultyVfs, RealVfs, StorageFaultConfig, Vfs};
    use dvfs_trace::{ExecutionTrace, Freq, Time, TimeDelta};
    use std::path::Path;
    use std::sync::Arc;

    fn summary(marker: u64) -> RunSummary {
        RunSummary {
            exec: TimeDelta::from_millis(marker as f64 + 0.1),
            gc_time: TimeDelta::ZERO,
            gc_count: marker,
            allocated: marker * 3,
            total_active: TimeDelta::ZERO,
            trace: Arc::new(ExecutionTrace {
                base: Freq::from_ghz(2.0),
                start: Time::ZERO,
                total: TimeDelta::ZERO,
                epochs: vec![],
                markers: vec![],
                threads: vec![],
            }),
            sampled: None,
        }
    }

    /// A fresh per-test checkpoint root.
    fn checkpoint_root(tag: &str) -> PathBuf {
        let root =
            std::env::temp_dir().join(format!("depburst-checkpoint-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        root
    }

    /// Opens the store at `root` as a checkpoint, fresh or resumed.
    fn open_checkpoint(root: &Path, fresh: bool) -> SimCache {
        let mut store = SimCache::persistent(root);
        store.begin_checkpoint(fresh).expect("checkpoint opens");
        store
    }

    #[test]
    fn append_replay_roundtrip() {
        let root = checkpoint_root("roundtrip");
        let store = open_checkpoint(&root, true);
        for k in 1..=5u64 {
            store.store(SimKey(u128::from(k)), &Arc::new(summary(k)));
        }
        // Idempotent: a key the store holds is not rewritten, even when
        // its persisted bytes have since changed.
        let path = store.entry_path(SimKey(3)).expect("persistent");
        std::fs::write(&path, b"overwritten").expect("overwrite");
        store.store(SimKey(3), &Arc::new(summary(3)));
        assert_eq!(std::fs::read(&path).expect("read"), b"overwritten");
        assert_eq!(store.load(SimKey(3)).expect("memo").gc_count, 3);
        assert_eq!(store.stats().memory_hits, 1);
        drop(store);

        let resumed = open_checkpoint(&root, false);
        for k in [1u64, 2, 4, 5] {
            let s = resumed.load(SimKey(u128::from(k))).expect("replayed");
            assert_eq!(*s, summary(k));
        }
        assert!(resumed.load(SimKey(3)).is_none(), "the overwritten entry is not served");
        assert!(resumed.load(SimKey(99)).is_none());
        let stats = resumed.stats();
        assert_eq!((stats.disk_hits, stats.quarantined, stats.misses), (4, 1, 0));
        // A loaded key is held: storing it again writes nothing.
        resumed.store(SimKey(1), &Arc::new(summary(1)));
        assert_eq!(resumed.stats().persist_failures, 0);
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn torn_final_line_is_skipped_and_healed() {
        let root = checkpoint_root("torn");
        let store = open_checkpoint(&root, true);
        store.store(SimKey(1), &Arc::new(summary(1)));
        store.store(SimKey(2), &Arc::new(summary(2)));
        let torn = store.entry_path(SimKey(2)).expect("persistent");
        drop(store);
        // Simulate an interrupt that tore the last entry: keep half of it.
        let bytes = std::fs::read(&torn).expect("read");
        std::fs::write(&torn, &bytes[..bytes.len() / 2]).expect("tear");

        let resumed = open_checkpoint(&root, false);
        let intact = resumed.load(SimKey(1)).expect("intact entries survive the tear");
        assert_eq!(*intact, summary(1));
        assert!(resumed.load(SimKey(2)).is_none(), "the torn entry is not served");
        assert_eq!(resumed.stats().quarantined, 1, "the fragment is counted");
        assert!(!torn.exists(), "the fragment leaves its slot");
        // Re-executing the point stores it afresh.
        resumed.store(SimKey(2), &Arc::new(summary(2)));
        drop(resumed);

        let healed = open_checkpoint(&root, false);
        let replayed = healed.load(SimKey(2)).expect("the re-stored entry is replayable");
        assert_eq!(*replayed, summary(2));
        assert_eq!(healed.stats().quarantined, 0);
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn missing_journal_resumes_from_scratch() {
        let root = checkpoint_root("missing");
        let store = open_checkpoint(&root, false);
        assert!(store.load(SimKey(7)).is_none());
        store.store(SimKey(7), &Arc::new(summary(7)));
        assert!(store.entry_path(SimKey(7)).expect("persistent").exists());
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn stale_schema_records_are_ignored() {
        let root = checkpoint_root("schema");
        let store = open_checkpoint(&root, true);
        store.store(SimKey(1), &Arc::new(summary(1)));
        let path = store.entry_path(SimKey(1)).expect("persistent");
        drop(store);
        let text = std::fs::read_to_string(&path).expect("read");
        let current = format!("\"schema\":{SCHEMA_VERSION}");
        assert!(text.contains(&current), "entries must carry the schema tag");
        std::fs::write(&path, text.replace(&current, "\"schema\":999")).expect("rewrite");
        let resumed = open_checkpoint(&root, false);
        assert!(resumed.load(SimKey(1)).is_none(), "stale schema must not replay");
        assert_eq!(resumed.stats().quarantined, 1);
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn corrupted_payloads_fail_their_checksum_and_reexecute() {
        let root = checkpoint_root("checksum");
        let store = open_checkpoint(&root, true);
        store.store(SimKey(1), &Arc::new(summary(1)));
        store.store(SimKey(2), &Arc::new(summary(2)));
        let path = store.entry_path(SimKey(1)).expect("persistent");
        drop(store);
        // Rot one digit inside the first entry's payload: the envelope
        // still parses, but the checksum no longer covers its bytes.
        let text = std::fs::read_to_string(&path).expect("read");
        let corrupted = text.replacen("\"gc_count\":1", "\"gc_count\":7", 1);
        assert_ne!(corrupted, text, "the payload digit was found and flipped");
        std::fs::write(&path, corrupted).expect("rot");

        let resumed = open_checkpoint(&root, false);
        assert!(resumed.load(SimKey(1)).is_none(), "the rotted entry must not be served");
        assert_eq!(resumed.load(SimKey(2)).expect("intact").gc_count, 2);
        assert_eq!(resumed.stats().quarantined, 1);
        let mut reexecuted = false;
        let served = resumed
            .get_or_compute::<_, Infallible>(SimKey(1), || {
                reexecuted = true;
                Ok(summary(1))
            })
            .expect("ok");
        assert!(reexecuted, "the rotted point is simulated again");
        assert_eq!(*served, summary(1));
        let _ = std::fs::remove_dir_all(&root);
    }

    /// The real filesystem, except that every fsync fails.
    #[derive(Debug)]
    struct FailingFsync;

    impl Vfs for FailingFsync {
        fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
            RealVfs.read(path)
        }
        fn write(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
            RealVfs.write(path, bytes)
        }
        fn fsync(&self, _path: &Path) -> io::Result<()> {
            Err(io::Error::other("fsync refused"))
        }
        fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
            RealVfs.rename(from, to)
        }
        fn remove(&self, path: &Path) -> io::Result<()> {
            RealVfs.remove(path)
        }
        fn create_dir_all(&self, path: &Path) -> io::Result<()> {
            RealVfs.create_dir_all(path)
        }
        fn list(&self, dir: &Path) -> io::Result<Vec<PathBuf>> {
            RealVfs.list(dir)
        }
    }

    #[test]
    fn fsync_failures_are_counted_not_swallowed() {
        let root = checkpoint_root("fsync");
        let mut store = SimCache::persistent(&root).with_vfs(Arc::new(FailingFsync));
        store.begin_checkpoint(true).expect("opens");
        store.store(SimKey(1), &Arc::new(summary(1)));
        store.store(SimKey(2), &Arc::new(summary(2)));
        let stats = store.stats();
        assert_eq!((stats.fsync_failures, stats.persist_failures), (2, 0));
        // Counted, and the entry still commits.
        let resumed = open_checkpoint(&root, false);
        assert_eq!(*resumed.load(SimKey(2)).expect("committed"), summary(2));
        let leftovers = std::fs::read_dir(root.join(format!("v{SCHEMA_VERSION}")))
            .expect("schema dir")
            .count();
        assert_eq!(leftovers, 2, "no temp file is left behind");
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn append_failures_are_counted_and_the_sweep_survives() {
        let root = checkpoint_root("torn-writes");
        // Every write tears: the points are lost to a resume, but `store`
        // itself never errors out of the sweep.
        let vfs = Arc::new(FaultyVfs::new(StorageFaultConfig {
            torn_write: 1.0,
            ..StorageFaultConfig::none(4)
        }));
        let mut store = SimCache::persistent(&root).with_vfs(vfs);
        store.begin_checkpoint(true).expect("opening writes no file");
        store.store(SimKey(1), &Arc::new(summary(1)));
        store.store(SimKey(2), &Arc::new(summary(2)));
        assert_eq!(store.stats().persist_failures, 2);
        let held = store.load(SimKey(1)).expect("the sweep keeps the point in memory");
        assert_eq!(*held, summary(1));
        drop(store);
        // The torn temp files never reached an entry's slot: a real
        // resume replays nothing and quarantines nothing.
        let resumed = open_checkpoint(&root, false);
        assert!(resumed.load(SimKey(1)).is_none());
        assert!(resumed.load(SimKey(2)).is_none());
        assert_eq!(resumed.stats().quarantined, 0);
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn a_fresh_run_id_drops_stale_entries() {
        let root = checkpoint_root("fresh");
        let first = open_checkpoint(&root, true);
        first.store(SimKey(1), &Arc::new(summary(1)));
        first.store(SimKey(2), &Arc::new(summary(2)));
        // Beside the schema directory, nothing is touched.
        std::fs::write(root.join("keep"), b"unrelated").expect("plant");
        drop(first);
        let second = open_checkpoint(&root, true);
        assert!(second.load(SimKey(1)).is_none(), "a new run replays nothing");
        assert!(second.load(SimKey(2)).is_none());
        let schema_dir = root.join(format!("v{SCHEMA_VERSION}"));
        assert_eq!(std::fs::read_dir(&schema_dir).expect("kept").count(), 0);
        assert!(root.join("keep").exists());
        let _ = std::fs::remove_dir_all(&root);
    }

    /// The real filesystem, counting reads.
    #[derive(Debug, Default)]
    struct CountingReads(std::sync::atomic::AtomicU64);

    impl CountingReads {
        fn reads(&self) -> u64 {
            self.0.load(std::sync::atomic::Ordering::Relaxed)
        }
    }

    impl Vfs for CountingReads {
        fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
            self.0.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            RealVfs.read(path)
        }
        fn write(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
            RealVfs.write(path, bytes)
        }
        fn fsync(&self, path: &Path) -> io::Result<()> {
            RealVfs.fsync(path)
        }
        fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
            RealVfs.rename(from, to)
        }
        fn remove(&self, path: &Path) -> io::Result<()> {
            RealVfs.remove(path)
        }
        fn create_dir_all(&self, path: &Path) -> io::Result<()> {
            RealVfs.create_dir_all(path)
        }
        fn list(&self, dir: &Path) -> io::Result<Vec<PathBuf>> {
            RealVfs.list(dir)
        }
    }

    #[test]
    fn a_fresh_run_reads_nothing_and_a_resume_still_replays() {
        let root = checkpoint_root("fresh-reads");
        let vfs = Arc::new(CountingReads::default());
        let mut store = SimCache::persistent(&root).with_vfs(Arc::clone(&vfs) as Arc<dyn Vfs>);
        store.begin_checkpoint(true).expect("opens");
        // The point pipeline's order: look up, miss, simulate, store.
        for k in 1..=3u64 {
            assert!(store.load(SimKey(u128::from(k))).is_none());
            store.store(SimKey(u128::from(k)), &Arc::new(summary(k)));
        }
        assert_eq!(store.load(SimKey(2)).expect("memo").gc_count, 2);
        let served = store
            .get_or_compute::<_, Infallible>(SimKey(4), || Ok(summary(4)))
            .expect("computes");
        assert_eq!(served.gc_count, 4);
        assert_eq!(vfs.reads(), 0, "a fresh checkpoint read its emptied directory");
        drop(store);

        let mut resumed = SimCache::persistent(&root).with_vfs(Arc::clone(&vfs) as Arc<dyn Vfs>);
        resumed.begin_checkpoint(false).expect("opens");
        for k in 1..=4u64 {
            assert_eq!(*resumed.load(SimKey(u128::from(k))).expect("replayed"), summary(k));
        }
        assert_eq!(vfs.reads(), 4, "a resume reads each stored point once");
        assert_eq!(resumed.stats().disk_hits, 4);
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn a_legacy_journal_is_ignored_not_read() {
        let root = checkpoint_root("legacy");
        let journal = root.with_file_name(format!(
            "{}.jsonl",
            root.file_name().and_then(|n| n.to_str()).expect("name")
        ));
        std::fs::create_dir_all(root.parent().expect("parent")).expect("mkdir");
        let line = String::from_utf8(write_envelope(SimKey(1), &summary(1))).expect("utf8");
        std::fs::write(&journal, format!("{line}\n")).expect("plant journal");
        let store = open_checkpoint(&root, false);
        assert!(store.load(SimKey(1)).is_none(), "journal lines are not replayed");
        assert_eq!(std::fs::read_to_string(&journal).expect("left alone"), format!("{line}\n"));
        let _ = std::fs::remove_file(&journal);
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn run_ids_are_validated() {
        let root = SimCache::checkpoint_root("fig3-2026-08-06").expect("valid");
        assert!(root.ends_with("fig3-2026-08-06"));
        let long = "x".repeat(129);
        for bad in ["", "../escape", ".hidden", "has space", long.as_str()] {
            assert!(SimCache::checkpoint_root(bad).is_err(), "{bad:?}");
        }
    }
}
