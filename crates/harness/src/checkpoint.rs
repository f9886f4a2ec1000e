//! Append-only checkpoint journal for interruptible sweeps.
//!
//! Every completed simulation point is appended as one JSON line —
//! `{schema, key, checksum, summary}` — to
//! `results/checkpoints/<run-id>.jsonl` (directory overridable via
//! `DEPBURST_CHECKPOINT_DIR`), fsynced in batches of [`FLUSH_BATCH`]. A
//! SIGINT'd or crashed sweep restarted with `--resume <run-id>` replays
//! the journaled points instead of re-simulating them, and — because
//! summaries roundtrip JSON with exact f64 bit patterns (asserted by the
//! golden suite) and results assemble in plan order — the resumed run's
//! output is byte-identical to an uninterrupted one (asserted by
//! `tests/determinism.rs` and the CI interrupt-resume step).
//!
//! Torn writes: a run killed mid-append can leave a truncated final line.
//! Replay tolerates it — the fragment is skipped with a warning, the file
//! is re-terminated with a newline so subsequent appends start clean, and
//! the lost point simply re-simulates. The `checksum` field —
//! `stablehash::checksum64` over the record's summary bytes as written,
//! checked against the stored bytes before parsing by
//! `cache::open_envelope` — extends the same
//! fail-closed posture to *silent* corruption: a record whose bytes
//! rotted since the write is skipped and counted, never replayed into an
//! experiment's numbers. Records share the disk cache's framing and
//! [`SCHEMA_VERSION`](crate::cache::SCHEMA_VERSION): both persist the same
//! `RunSummary` payload, so they go stale together: a schema-3 line
//! (FNV-1a checksum) in a journal resumed at schema 4 is skipped and its
//! point re-simulated.
//!
//! All file I/O routes through a [`Vfs`] ([`RealVfs`] by default), so the
//! storage-fault torture harness can subject the journal to torn
//! appends, dropped fsyncs, and crash points. Fsync errors are *counted*
//! (surfaced in [`JournalStats`] and the end-of-run report), not
//! swallowed: a journal that cannot sync still works in-process, but the
//! operator learns resumability is at risk.

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use serde::Serialize;

use crate::cache::{compose_envelope, open_envelope, summary_checksum, SimKey};
use crate::run::RunSummary;
use crate::vfs::{RealVfs, Vfs};

/// Records appended between fsyncs. Small enough that an interrupt loses
/// at most a few points, large enough to amortize the sync cost over a
/// sweep writing multi-megabyte trace summaries.
pub const FLUSH_BATCH: usize = 4;

#[derive(Debug)]
struct JournalState {
    /// Appends since the last fsync.
    unsynced: usize,
    /// Everything known to be in the journal (replayed + appended).
    seen: HashMap<u128, Arc<RunSummary>>,
}

/// Counters describing a journal's health, for the end-of-run report.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize)]
pub struct JournalStats {
    /// Records loaded from the file at open.
    pub loaded: usize,
    /// Points served from the journal instead of simulating.
    pub replays: u64,
    /// Records appended by this process.
    pub appends: u64,
    /// Appends that failed (full disk, torn write, crash): those points
    /// are not resumable.
    pub append_failures: u64,
    /// Fsyncs that returned an error: recent appends may not survive a
    /// crash.
    pub fsync_failures: u64,
    /// Lines skipped at open (torn, unparsable, stale schema, or
    /// checksum mismatch).
    pub corrupt_lines: u64,
}

/// An append-only journal of completed point results, keyed by
/// [`SimKey`]. Shared by reference across pool workers; a coarse mutex is
/// fine because journal traffic is rare next to simulation cost.
#[derive(Debug)]
pub struct Journal {
    path: PathBuf,
    vfs: Arc<dyn Vfs>,
    state: Mutex<JournalState>,
    replays: AtomicU64,
    appends: AtomicU64,
    append_failures: AtomicU64,
    fsync_failures: AtomicU64,
    /// Lines skipped during replay at open.
    corrupt_lines: u64,
    /// Records loaded from the file at open.
    loaded: usize,
}

impl Journal {
    /// The checkpoint directory: `DEPBURST_CHECKPOINT_DIR` or
    /// `results/checkpoints`.
    #[must_use]
    pub fn default_dir() -> PathBuf {
        std::env::var_os("DEPBURST_CHECKPOINT_DIR")
            .map_or_else(|| PathBuf::from("results/checkpoints"), PathBuf::from)
    }

    /// Validates a user-supplied run id (it becomes a file name).
    fn checked_id(run_id: &str) -> std::io::Result<&str> {
        let ok = !run_id.is_empty()
            && run_id.len() <= 128
            && run_id
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '-' | '_' | '.'))
            && !run_id.starts_with('.');
        if ok {
            Ok(run_id)
        } else {
            Err(std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                format!("invalid run id {run_id:?} (use [A-Za-z0-9._-], not starting with '.')"),
            ))
        }
    }

    /// The journal path for `run_id` under the default directory.
    pub fn path_for(run_id: &str) -> std::io::Result<PathBuf> {
        Ok(Self::default_dir().join(format!("{}.jsonl", Self::checked_id(run_id)?)))
    }

    /// Starts a fresh journal for `run_id` (truncating any previous one —
    /// a new `--run-id` means a new run).
    pub fn create(run_id: &str) -> std::io::Result<Self> {
        Self::create_with(run_id, Arc::new(RealVfs))
    }

    /// [`create`](Self::create) with an explicit storage layer.
    pub fn create_with(run_id: &str, vfs: Arc<dyn Vfs>) -> std::io::Result<Self> {
        Self::create_at_with(Self::path_for(run_id)?, vfs)
    }

    /// Resumes the journal for `run_id`, replaying its completed points.
    /// A missing journal is not an error — the run starts from nothing,
    /// with a warning.
    pub fn resume(run_id: &str) -> std::io::Result<Self> {
        Self::resume_with(run_id, Arc::new(RealVfs))
    }

    /// [`resume`](Self::resume) with an explicit storage layer.
    pub fn resume_with(run_id: &str, vfs: Arc<dyn Vfs>) -> std::io::Result<Self> {
        Self::resume_at_with(Self::path_for(run_id)?, vfs)
    }

    /// [`create`](Self::create) at an explicit path (tests).
    pub fn create_at(path: impl Into<PathBuf>) -> std::io::Result<Self> {
        Self::create_at_with(path, Arc::new(RealVfs))
    }

    /// [`create_at`](Self::create_at) with an explicit storage layer.
    pub fn create_at_with(path: impl Into<PathBuf>, vfs: Arc<dyn Vfs>) -> std::io::Result<Self> {
        let path = path.into();
        if let Some(parent) = path.parent() {
            vfs.create_dir_all(parent)?;
        }
        vfs.write(&path, b"")?;
        Ok(Journal {
            path,
            vfs,
            state: Mutex::new(JournalState {
                unsynced: 0,
                seen: HashMap::new(),
            }),
            replays: AtomicU64::new(0),
            appends: AtomicU64::new(0),
            append_failures: AtomicU64::new(0),
            fsync_failures: AtomicU64::new(0),
            corrupt_lines: 0,
            loaded: 0,
        })
    }

    /// [`resume`](Self::resume) at an explicit path (tests).
    pub fn resume_at(path: impl Into<PathBuf>) -> std::io::Result<Self> {
        Self::resume_at_with(path, Arc::new(RealVfs))
    }

    /// [`resume_at`](Self::resume_at) with an explicit storage layer.
    pub fn resume_at_with(path: impl Into<PathBuf>, vfs: Arc<dyn Vfs>) -> std::io::Result<Self> {
        let path = path.into();
        if !vfs.exists(&path) {
            eprintln!(
                "warning: no checkpoint journal at {}; starting from scratch",
                path.display()
            );
            return Self::create_at_with(path, vfs);
        }
        let bytes = vfs.read(&path)?;
        let (seen, corrupt_lines) = Self::replay_lines(&path, &bytes);
        let loaded = seen.len();
        if bytes.last().is_some_and(|b| *b != b'\n') {
            // A torn final line: terminate it so our appends start on a
            // fresh line (the fragment stays behind, skipped on replay).
            vfs.append(&path, b"\n")?;
        }
        Ok(Journal {
            path,
            vfs,
            state: Mutex::new(JournalState { unsynced: 0, seen }),
            replays: AtomicU64::new(0),
            appends: AtomicU64::new(0),
            append_failures: AtomicU64::new(0),
            fsync_failures: AtomicU64::new(0),
            corrupt_lines,
            loaded,
        })
    }

    /// Tolerant line-by-line replay: skips (with a warning, and a count)
    /// lines that fail [`open_envelope`] — a torn fragment (expected for
    /// at most the final line), a different schema version, or a payload
    /// whose stored bytes no longer match their checksum — and lines whose
    /// verified payload does not parse. Returns the surviving records and
    /// how many lines were skipped.
    fn replay_lines(path: &Path, bytes: &[u8]) -> (HashMap<u128, Arc<RunSummary>>, u64) {
        let mut seen = HashMap::new();
        let mut corrupt = 0u64;
        let lines: Vec<&[u8]> = bytes
            .split(|b| *b == b'\n')
            .filter(|l| !l.trim_ascii().is_empty())
            .collect();
        let last = lines.len().saturating_sub(1);
        for (i, line) in lines.iter().enumerate() {
            let record = open_envelope(line).and_then(|(key, payload)| {
                serde_json::from_slice::<RunSummary>(payload)
                    .map(|summary| (key, summary))
                    .map_err(|e| e.to_string())
            });
            match record {
                Ok((key, summary)) => {
                    seen.insert(key.0, Arc::new(summary));
                }
                Err(why) if i == last => {
                    corrupt += 1;
                    eprintln!(
                        "warning: checkpoint journal {}: final line is unusable ({why}), \
                         likely a torn write; that point will re-simulate",
                        path.display()
                    );
                }
                Err(why) => {
                    corrupt += 1;
                    eprintln!(
                        "warning: checkpoint journal {}: skipping line {} ({why}); \
                         that point will re-simulate",
                        path.display(),
                        i + 1
                    );
                }
            }
        }
        (seen, corrupt)
    }

    /// The journal's on-disk path.
    #[must_use]
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Looks up a completed point. Counts a replay on hit.
    #[must_use]
    pub fn lookup(&self, key: SimKey) -> Option<Arc<RunSummary>> {
        let hit = self
            .state
            .lock()
            .expect("journal lock")
            .seen
            .get(&key.0)
            .cloned();
        if hit.is_some() {
            self.replays.fetch_add(1, Ordering::Relaxed);
        }
        hit
    }

    /// Appends a completed point (idempotent: a key already in the
    /// journal — replayed or appended — is skipped). Append errors are
    /// counted and reported to stderr but otherwise non-fatal: a full
    /// disk must not kill the sweep, it only costs resumability of later
    /// points. A failed append may have persisted a partial line, so a
    /// best-effort newline re-terminates the file — replay skips the
    /// fragment and subsequent appends start clean.
    pub fn record(&self, key: SimKey, summary: &Arc<RunSummary>) {
        let mut state = self.state.lock().expect("journal lock");
        if state.seen.contains_key(&key.0) {
            return;
        }
        let Ok(summary_json) = serde_json::to_string(&**summary) else {
            eprintln!(
                "warning: checkpoint journal: unserializable record for {}",
                key.hex()
            );
            return;
        };
        let mut line = compose_envelope(key, &summary_checksum(&summary_json), &summary_json);
        line.push('\n');
        if let Err(write_err) = self.vfs.append(&self.path, line.as_bytes()) {
            self.append_failures.fetch_add(1, Ordering::Relaxed);
            eprintln!(
                "warning: checkpoint journal {}: append failed ({write_err}); \
                 this point will not be resumable",
                self.path.display()
            );
            let _ = self.vfs.append(&self.path, b"\n"); // heal a torn partial line
            return;
        }
        state.seen.insert(key.0, Arc::clone(summary));
        state.unsynced += 1;
        if state.unsynced >= FLUSH_BATCH {
            self.sync(&mut state);
        }
        self.appends.fetch_add(1, Ordering::Relaxed);
    }

    /// Fsyncs the journal, counting (and reporting once) failures
    /// instead of swallowing them: an fsync that errors means recent
    /// appends may not survive a crash, which the operator — and the
    /// end-of-run report — should know about.
    fn sync(&self, state: &mut JournalState) {
        if let Err(sync_err) = self.vfs.fsync(&self.path) {
            let prior = self.fsync_failures.fetch_add(1, Ordering::Relaxed);
            if prior == 0 {
                eprintln!(
                    "warning: checkpoint journal {}: fsync failed ({sync_err}); \
                     recent appends may not survive a crash",
                    self.path.display()
                );
            }
        }
        state.unsynced = 0;
    }

    /// Flushes and fsyncs any unsynced appends (end of an execute pass).
    pub fn flush(&self) {
        let mut state = self.state.lock().expect("journal lock");
        if state.unsynced > 0 {
            self.sync(&mut state);
        }
    }

    /// Points this process served from the journal.
    #[must_use]
    pub fn replays(&self) -> u64 {
        self.replays.load(Ordering::Relaxed)
    }

    /// Records this process appended.
    #[must_use]
    pub fn appends(&self) -> u64 {
        self.appends.load(Ordering::Relaxed)
    }

    /// Records loaded from the file when the journal was opened.
    #[must_use]
    pub fn loaded(&self) -> usize {
        self.loaded
    }

    /// The journal's health counters so far.
    #[must_use]
    pub fn stats(&self) -> JournalStats {
        JournalStats {
            loaded: self.loaded,
            replays: self.replays.load(Ordering::Relaxed),
            appends: self.appends.load(Ordering::Relaxed),
            append_failures: self.append_failures.load(Ordering::Relaxed),
            fsync_failures: self.fsync_failures.load(Ordering::Relaxed),
            corrupt_lines: self.corrupt_lines,
        }
    }
}

impl Drop for Journal {
    fn drop(&mut self) {
        self.flush();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::SCHEMA_VERSION;
    use crate::vfs::{FaultyVfs, StorageFaultConfig};
    use dvfs_trace::{ExecutionTrace, Freq, Time, TimeDelta};

    fn summary(marker: u64) -> Arc<RunSummary> {
        Arc::new(RunSummary {
            exec: TimeDelta::from_millis(marker as f64 + 0.1),
            gc_time: TimeDelta::ZERO,
            gc_count: marker,
            allocated: marker * 3,
            total_active: TimeDelta::ZERO,
            trace: ExecutionTrace {
                base: Freq::from_ghz(2.0),
                start: Time::ZERO,
                total: TimeDelta::ZERO,
                epochs: vec![],
                markers: vec![],
                threads: vec![],
            },
            sampled: None,
        })
    }

    fn tmp(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!("depburst-journal-{}-{name}.jsonl", std::process::id()))
    }

    #[test]
    fn append_replay_roundtrip() {
        let path = tmp("roundtrip");
        let _ = std::fs::remove_file(&path);
        let journal = Journal::create_at(&path).expect("create");
        for k in 1..=5u64 {
            journal.record(SimKey(u128::from(k)), &summary(k));
        }
        // Idempotent: re-recording an existing key appends nothing.
        journal.record(SimKey(3), &summary(3));
        assert_eq!(journal.appends(), 5);
        drop(journal); // flush

        let resumed = Journal::resume_at(&path).expect("resume");
        assert_eq!(resumed.loaded(), 5);
        for k in 1..=5u64 {
            let s = resumed.lookup(SimKey(u128::from(k))).expect("replayed");
            assert_eq!(s.gc_count, k);
            assert_eq!(s.exec, TimeDelta::from_millis(k as f64 + 0.1));
        }
        assert_eq!(resumed.replays(), 5);
        assert!(resumed.lookup(SimKey(99)).is_none());
        let stats = resumed.stats();
        assert_eq!(stats.corrupt_lines, 0);
        assert_eq!(stats.append_failures, 0);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn torn_final_line_is_skipped_and_healed() {
        let path = tmp("torn");
        let _ = std::fs::remove_file(&path);
        let journal = Journal::create_at(&path).expect("create");
        journal.record(SimKey(1), &summary(1));
        journal.record(SimKey(2), &summary(2));
        journal.flush();
        drop(journal);

        // Simulate an interrupt mid-append: a truncated record with no
        // trailing newline.
        let mut bytes = std::fs::read(&path).expect("read");
        bytes.extend_from_slice(br#"{"schema":1,"key":"0000000000000000000000000000"#);
        std::fs::write(&path, &bytes).expect("tear");

        let resumed = Journal::resume_at(&path).expect("torn journals resume");
        assert_eq!(resumed.loaded(), 2, "intact records survive the tear");
        assert_eq!(resumed.stats().corrupt_lines, 1, "the fragment is counted");
        // Appending after the tear must start on a fresh line.
        resumed.record(SimKey(3), &summary(3));
        drop(resumed);

        let healed = Journal::resume_at(&path).expect("resume again");
        assert_eq!(healed.loaded(), 3, "post-tear appends are replayable");
        assert_eq!(healed.lookup(SimKey(3)).expect("new record").gc_count, 3);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn missing_journal_resumes_from_scratch() {
        let path = tmp("missing");
        let _ = std::fs::remove_file(&path);
        let journal = Journal::resume_at(&path).expect("fresh start");
        assert_eq!(journal.loaded(), 0);
        journal.record(SimKey(7), &summary(7));
        drop(journal);
        assert!(path.exists());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn stale_schema_records_are_ignored() {
        let path = tmp("schema");
        let _ = std::fs::remove_file(&path);
        let journal = Journal::create_at(&path).expect("create");
        journal.record(SimKey(1), &summary(1));
        drop(journal);
        let mut bytes = std::fs::read(&path).expect("read");
        let current = format!("\"schema\":{SCHEMA_VERSION}");
        let text = String::from_utf8(bytes.clone()).expect("utf8");
        assert!(text.contains(&current), "journal must carry the schema tag");
        bytes = text.replace(&current, "\"schema\":999").into_bytes();
        std::fs::write(&path, &bytes).expect("rewrite");
        let resumed = Journal::resume_at(&path).expect("resume");
        assert_eq!(resumed.loaded(), 0, "stale schema must not replay");
        assert_eq!(resumed.stats().corrupt_lines, 1);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn corrupted_payloads_fail_their_checksum_and_reexecute() {
        let path = tmp("checksum");
        let _ = std::fs::remove_file(&path);
        let journal = Journal::create_at(&path).expect("create");
        journal.record(SimKey(1), &summary(1));
        journal.record(SimKey(2), &summary(2));
        drop(journal);
        // Rot one digit inside the *first* record's payload: the line
        // still parses, but the checksum no longer covers its bytes.
        let text = std::fs::read_to_string(&path).expect("read");
        let corrupted = text.replacen("\"gc_count\":1", "\"gc_count\":7", 1);
        assert_ne!(corrupted, text, "the payload digit was found and flipped");
        std::fs::write(&path, corrupted).expect("rot");

        let resumed = Journal::resume_at(&path).expect("resume");
        assert_eq!(resumed.loaded(), 1, "only the intact record replays");
        assert!(
            resumed.lookup(SimKey(1)).is_none(),
            "the rotted record must not be served"
        );
        assert_eq!(resumed.lookup(SimKey(2)).expect("intact").gc_count, 2);
        assert_eq!(resumed.stats().corrupt_lines, 1);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn fsync_failures_are_counted_not_swallowed() {
        let path = tmp("fsync");
        let _ = std::fs::remove_file(&path);
        let journal = Journal::create_at(&path).expect("create");
        journal.record(SimKey(1), &summary(1));
        // Yank the file out from under the journal: the explicit flush's
        // fsync cannot open it and must count the failure.
        std::fs::remove_file(&path).expect("yank");
        journal.flush();
        let stats = journal.stats();
        assert_eq!(stats.fsync_failures, 1);
        assert_eq!(stats.appends, 1);
        // Dropping flushes again only if unsynced > 0; it is not, so the
        // count stays stable.
        drop(journal);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn append_failures_are_counted_and_the_sweep_survives() {
        let dir = std::env::temp_dir().join(format!("depburst-journal-af-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("mkdir");
        let path = dir.join("run.jsonl");
        // Every append tears: records are lost (not resumable) but
        // `record` itself never errors out of the sweep.
        let vfs = Arc::new(FaultyVfs::new(StorageFaultConfig {
            torn_write: 1.0,
            ..StorageFaultConfig::none(4)
        }));
        let journal = Journal::create_at_with(&path, vfs).expect_err("create's write also tears");
        // The constructor itself surfaces the torn create as an error —
        // build the journal against the real fs, then install the faulty
        // appends by re-resuming through the injector.
        let _ = journal;
        Journal::create_at(&path).expect("create for real");
        let vfs = Arc::new(FaultyVfs::new(StorageFaultConfig {
            torn_write: 1.0,
            ..StorageFaultConfig::none(4)
        }));
        let journal = Journal::resume_at_with(&path, vfs).expect("resume through the injector");
        journal.record(SimKey(1), &summary(1));
        journal.record(SimKey(2), &summary(2));
        let stats = journal.stats();
        assert_eq!(stats.append_failures, 2);
        assert_eq!(stats.appends, 0);
        drop(journal);
        // Both records were torn mid-line and healed with newlines; a
        // real resume skips the fragments instead of dying.
        let resumed = Journal::resume_at(&path).expect("resume");
        assert_eq!(resumed.loaded(), 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn run_ids_are_validated() {
        assert!(Journal::path_for("fig3-2026-08-06").is_ok());
        assert!(Journal::path_for("").is_err());
        assert!(Journal::path_for("../escape").is_err());
        assert!(Journal::path_for(".hidden").is_err());
        assert!(Journal::path_for("has space").is_err());
    }
}
