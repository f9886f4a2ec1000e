//! Storage abstraction with deterministic fault injection.
//!
//! The durable layer of the harness — the simulation cache
//! ([`crate::cache`]), persisted as the memo cache and as a run's
//! checkpoint — routes every filesystem operation through the [`Vfs`]
//! trait, and commits every entry with [`write_atomic`].
//! [`RealVfs`] is the zero-cost passthrough default. [`FaultyVfs`] is a
//! seeded deterministic injector in the spirit of `simx::faults`: each
//! fault class draws from its own [`SplitMix64`] stream, so enabling one
//! class never perturbs another, and a class at zero intensity consumes
//! no randomness at all — an inert injector is bit-identical to the real
//! filesystem (asserted by the torture harness's census pass).
//!
//! Fault classes:
//!
//! * **Torn writes** — a write persists a random prefix of its bytes,
//!   then fails. Models a crash or I/O error mid-`write(2)`.
//! * **Dropped fsyncs** — `fsync` returns `Ok` without making anything
//!   durable. The silent failure mode of consumer drives and some
//!   virtualized block devices; only observable through the crash-point
//!   mode below.
//! * **Rename failures** — `rename` fails without moving anything,
//!   breaking the write-temp-then-rename commit protocol at its
//!   commit point.
//! * **ENOSPC windows** — a triggered "disk full" persists for a few
//!   subsequent operations (real disks do not un-fill between two
//!   writes), failing writes inside the window.
//! * **Read corruption** — a read succeeds but one drawn bit of the
//!   returned buffer is flipped. Models bit rot and bus corruption; the
//!   checksum framing on envelopes must catch every such flip.
//! * **Crash point** — after the Nth VFS operation the injector
//!   simulates power loss: every file with writes not yet covered by a
//!   successful `fsync` (or committed by `rename`) is truncated to a
//!   drawn fraction of its unsynced tail, and all subsequent operations
//!   fail. A run killed this way, then resumed against [`RealVfs`],
//!   must produce byte-identical output or fail closed — the contract
//!   the `torture` binary sweeps.
//!
//! Determinism: with a fixed seed and a single worker (`--jobs 1`) the
//! entire fault schedule is a pure function of the operation sequence.
//! With concurrent workers the draws are still seeded but interleave
//! with the schedule of whichever thread reaches the injector first, so
//! crash-point sweeps pin `jobs = 1`.

use std::collections::HashMap;
use std::fmt;
use std::fs::{File, OpenOptions};
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;

use serde::Serialize;
use simx::faults::SplitMix64;

/// FNV-1a, re-exported for the benchmark, which digests its outputs with
/// it under this path. Envelopes are checksummed with
/// `depburst_core::stablehash::checksum64`, not with this.
pub use depburst_core::stablehash::fnv1a64;

/// The filesystem surface the durable layer consumes. Small on purpose:
/// everything the cache does decomposes into these eight operations, and
/// every one of them is a place storage can lie.
pub trait Vfs: Send + Sync + fmt::Debug {
    /// Reads a whole file.
    fn read(&self, path: &Path) -> io::Result<Vec<u8>>;
    /// Creates or truncates `path` with `bytes`.
    fn write(&self, path: &Path, bytes: &[u8]) -> io::Result<()>;
    /// Syncs `path`'s data to stable storage.
    fn fsync(&self, path: &Path) -> io::Result<()>;
    /// Renames `from` to `to` (the commit point of atomic writes).
    fn rename(&self, from: &Path, to: &Path) -> io::Result<()>;
    /// Removes the file at `path`.
    fn remove(&self, path: &Path) -> io::Result<()>;
    /// Creates `path` and any missing parents.
    fn create_dir_all(&self, path: &Path) -> io::Result<()>;
    /// Lists the entries of `dir`, sorted (deterministic order).
    fn list(&self, dir: &Path) -> io::Result<Vec<PathBuf>>;
    /// Whether a file exists at `path` (metadata probe, never faulted).
    fn exists(&self, path: &Path) -> bool {
        path.exists()
    }
}

/// The passthrough implementation: plain `std::fs`, no bookkeeping, no
/// branches beyond the calls themselves. The default everywhere.
#[derive(Debug, Default, Clone, Copy)]
pub struct RealVfs;

impl Vfs for RealVfs {
    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        std::fs::read(path)
    }

    fn write(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        std::fs::write(path, bytes)
    }

    fn fsync(&self, path: &Path) -> io::Result<()> {
        // A read-only handle can sync data on every platform we target.
        File::open(path)?.sync_data()
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        std::fs::rename(from, to)
    }

    fn remove(&self, path: &Path) -> io::Result<()> {
        std::fs::remove_file(path)
    }

    fn create_dir_all(&self, path: &Path) -> io::Result<()> {
        std::fs::create_dir_all(path)
    }

    fn list(&self, dir: &Path) -> io::Result<Vec<PathBuf>> {
        let mut entries: Vec<PathBuf> = std::fs::read_dir(dir)?
            .filter_map(|e| e.ok().map(|e| e.path()))
            .collect();
        entries.sort();
        Ok(entries)
    }
}

/// Monotonic suffix distinguishing concurrent atomic writers inside one
/// process; the pid alone distinguishes processes.
static ATOMIC_WRITE_SEQ: AtomicU64 = AtomicU64::new(0);

/// The durable atomic write: a unique temp file, fsynced, then renamed
/// over `path`, so concurrent writers of the same path (or an
/// interrupted run) never leave a torn file behind. The temp name
/// carries the pid *and* a per-process counter: two threads persisting
/// the same key at once each get their own temp file instead of racing
/// on one (the loser of the rename simply commits second, which is fine
/// — both wrote identical content-addressed bytes).
///
/// A failed fsync does not stop the commit: `Ok(Some(err))` means the
/// bytes are in place but may not survive a crash. Callers checksum what
/// they write, so a lost entry is at worst recomputed.
///
/// # Errors
/// The write or the rename failed; nothing was committed.
pub fn write_atomic(vfs: &dyn Vfs, path: &Path, bytes: &[u8]) -> io::Result<Option<io::Error>> {
    let seq = ATOMIC_WRITE_SEQ.fetch_add(1, Ordering::Relaxed);
    let tmp = path.with_extension(format!("tmp.{}.{seq}", std::process::id()));
    vfs.write(&tmp, bytes)?;
    let synced = vfs.fsync(&tmp);
    vfs.rename(&tmp, path).inspect_err(|_| {
        // Don't leave the orphaned temp file shadowing the directory.
        let _ = vfs.remove(&tmp);
    })?;
    Ok(synced.err())
}

/// The configuration of a [`FaultyVfs`]: per-class intensities in
/// `[0, 1]` plus the optional crash point. Everything defaults to off.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StorageFaultConfig {
    /// Master seed; each class derives its own stream from it.
    pub seed: u64,
    /// Probability a write persists only a drawn prefix.
    pub torn_write: f64,
    /// Probability an fsync silently does nothing.
    pub dropped_fsync: f64,
    /// Probability a rename fails at the commit point.
    pub rename_fail: f64,
    /// Probability a write opens an ENOSPC window.
    pub enospc: f64,
    /// Probability a read comes back with one bit flipped.
    pub read_corrupt: f64,
    /// Simulate power loss after this many VFS operations.
    pub crash_after: Option<u64>,
}

impl StorageFaultConfig {
    /// Every class off: the injector is pure passthrough (plus the op
    /// counter, which the torture census uses).
    #[must_use]
    pub fn none(seed: u64) -> Self {
        StorageFaultConfig {
            seed,
            torn_write: 0.0,
            dropped_fsync: 0.0,
            rename_fail: 0.0,
            enospc: 0.0,
            read_corrupt: 0.0,
            crash_after: None,
        }
    }

    /// All probabilistic classes scaled from one intensity knob,
    /// weighted by how often each fault is survivable: dropped fsyncs
    /// are silent until a crash, torn writes and read corruption must be
    /// caught by framing, rename and ENOSPC failures only cost
    /// persistence.
    #[must_use]
    pub fn uniform(intensity: f64, seed: u64) -> Self {
        let i = intensity.clamp(0.0, 1.0);
        StorageFaultConfig {
            seed,
            torn_write: 0.35 * i,
            dropped_fsync: 0.5 * i,
            rename_fail: 0.25 * i,
            enospc: 0.15 * i,
            read_corrupt: 0.35 * i,
            crash_after: None,
        }
    }

    /// Pure crash-point mode: no probabilistic faults, power loss after
    /// `ops` operations (the torture sweep's per-point configuration).
    #[must_use]
    pub fn crash_at(ops: u64, seed: u64) -> Self {
        StorageFaultConfig {
            crash_after: Some(ops),
            ..Self::none(seed)
        }
    }

    /// True when no class can ever fire (passthrough behaviour).
    #[must_use]
    pub fn is_inert(&self) -> bool {
        self.torn_write <= 0.0
            && self.dropped_fsync <= 0.0
            && self.rename_fail <= 0.0
            && self.enospc <= 0.0
            && self.read_corrupt <= 0.0
            && self.crash_after.is_none()
    }
}

/// Parses a `--storage-faults` / `DEPBURST_STORAGE_FAULTS` spec.
///
/// Grammar: `off` (or empty, or `0`) disables injection entirely;
/// otherwise a comma-separated list of tokens, each either a bare
/// intensity in `[0, 1]` (expanded by [`StorageFaultConfig::uniform`]),
/// `seed=N`, or `crash=N` (power loss after N VFS operations).
/// `0.2,seed=7` and `crash=120` are typical.
///
/// # Errors
/// A malformed token returns a description of what was expected.
pub fn parse_storage_faults(spec: &str) -> Result<Option<StorageFaultConfig>, String> {
    match spec.trim() {
        "" | "0" | "off" => return Ok(None),
        _ => {}
    }
    let mut cfg = StorageFaultConfig::none(0);
    let mut any = false;
    for token in spec.split(',').map(str::trim).filter(|t| !t.is_empty()) {
        if let Some(v) = token.strip_prefix("seed=") {
            cfg.seed = v
                .parse()
                .map_err(|_| format!("bad seed in storage-faults spec: {v:?}"))?;
        } else if let Some(v) = token.strip_prefix("crash=") {
            let n: u64 = v
                .parse()
                .map_err(|_| format!("bad crash point in storage-faults spec: {v:?}"))?;
            cfg.crash_after = Some(n);
            any = true;
        } else {
            let intensity: f64 = token.parse().map_err(|_| {
                format!(
                    "bad storage-faults token {token:?} (want an intensity, seed=N, or crash=N)"
                )
            })?;
            if !(0.0..=1.0).contains(&intensity) {
                return Err(format!("storage-faults intensity {intensity} outside [0, 1]"));
            }
            let seeded = StorageFaultConfig::uniform(intensity, cfg.seed);
            cfg = StorageFaultConfig {
                seed: cfg.seed,
                crash_after: cfg.crash_after,
                ..seeded
            };
            any = intensity > 0.0 || any;
        }
    }
    if !any && cfg.is_inert() {
        return Ok(None);
    }
    Ok(Some(cfg))
}

/// Counters of what a [`FaultyVfs`] actually injected, for reports and
/// the torture harness's summary.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize)]
pub struct StorageFaultStats {
    /// VFS operations issued.
    pub ops: u64,
    /// Writes that persisted only a prefix.
    pub torn_writes: u64,
    /// Fsyncs that silently did nothing.
    pub dropped_fsyncs: u64,
    /// Renames failed at the commit point.
    pub rename_failures: u64,
    /// Writes failed inside an ENOSPC window.
    pub enospc_failures: u64,
    /// Reads returned with a flipped bit.
    pub corrupted_reads: u64,
    /// Files that lost unsynced bytes at the crash point.
    pub files_truncated_at_crash: u64,
    /// Whether the crash point fired.
    pub crashed: bool,
}

/// Per-file durability tracking: how many leading bytes a crash is
/// guaranteed to preserve (`synced`) versus what the process observes
/// (`len`).
#[derive(Debug, Clone, Copy)]
struct SyncState {
    synced: u64,
    len: u64,
}

/// The mutex-guarded mutable half of the injector: the per-class random
/// streams and the durability map.
#[derive(Debug)]
struct FaultState {
    torn: SplitMix64,
    fsync: SplitMix64,
    rename: SplitMix64,
    read: SplitMix64,
    enospc: SplitMix64,
    crash: SplitMix64,
    /// Durability tracking for every file written through this injector.
    tracked: HashMap<PathBuf, SyncState>,
    /// Writes before this op index fail with ENOSPC (an open window).
    enospc_until: u64,
}

/// The deterministic storage-fault injector. Wraps the real filesystem:
/// operations genuinely happen (in the caller's directories — point it
/// at a scratch dir), but each one may be torn, dropped, failed, or
/// corrupted per [`StorageFaultConfig`], and the crash point genuinely
/// truncates unsynced file tails on disk so a subsequent resume sees
/// exactly what a machine rebooting after power loss would.
pub struct FaultyVfs {
    cfg: StorageFaultConfig,
    state: Mutex<FaultState>,
    ops: AtomicU64,
    crashed: AtomicBool,
    torn_writes: AtomicU64,
    dropped_fsyncs: AtomicU64,
    rename_failures: AtomicU64,
    enospc_failures: AtomicU64,
    corrupted_reads: AtomicU64,
    files_truncated_at_crash: AtomicU64,
}

impl fmt::Debug for FaultyVfs {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("FaultyVfs")
            .field("cfg", &self.cfg)
            .field("ops", &self.ops.load(Ordering::Relaxed))
            .field("crashed", &self.crashed.load(Ordering::Relaxed))
            .finish_non_exhaustive()
    }
}

/// Salts deriving one independent stream per fault class from the master
/// seed (same discipline as `simx::faults`).
const SALT_TORN: u64 = 0x746F_726E_5F77_7274;
const SALT_FSYNC: u64 = 0x6673_796E_635F_6472;
const SALT_RENAME: u64 = 0x7265_6E61_6D65_5F66;
const SALT_READ: u64 = 0x7265_6164_5F63_6F72;
const SALT_ENOSPC: u64 = 0x656E_6F73_7063_5F77;
const SALT_CRASH: u64 = 0x6372_6173_685F_7074;

fn crash_error() -> io::Error {
    io::Error::other("storage fault: simulated power loss (crash point reached)")
}

fn enospc_error() -> io::Error {
    io::Error::other("storage fault: no space left on device (injected ENOSPC window)")
}

fn torn_error() -> io::Error {
    io::Error::other("storage fault: torn write (only a prefix persisted)")
}

fn rename_error() -> io::Error {
    io::Error::other("storage fault: rename failed at the commit point")
}

impl FaultyVfs {
    /// An injector over the real filesystem with `cfg`'s fault schedule.
    #[must_use]
    pub fn new(cfg: StorageFaultConfig) -> Self {
        FaultyVfs {
            cfg,
            state: Mutex::new(FaultState {
                torn: SplitMix64::new(cfg.seed ^ SALT_TORN),
                fsync: SplitMix64::new(cfg.seed ^ SALT_FSYNC),
                rename: SplitMix64::new(cfg.seed ^ SALT_RENAME),
                read: SplitMix64::new(cfg.seed ^ SALT_READ),
                enospc: SplitMix64::new(cfg.seed ^ SALT_ENOSPC),
                crash: SplitMix64::new(cfg.seed ^ SALT_CRASH),
                tracked: HashMap::new(),
                enospc_until: 0,
            }),
            ops: AtomicU64::new(0),
            crashed: AtomicBool::new(false),
            torn_writes: AtomicU64::new(0),
            dropped_fsyncs: AtomicU64::new(0),
            rename_failures: AtomicU64::new(0),
            enospc_failures: AtomicU64::new(0),
            corrupted_reads: AtomicU64::new(0),
            files_truncated_at_crash: AtomicU64::new(0),
        }
    }

    /// The configuration this injector was built with.
    #[must_use]
    pub fn config(&self) -> &StorageFaultConfig {
        &self.cfg
    }

    /// VFS operations issued so far (the crash-point coordinate space).
    #[must_use]
    pub fn op_count(&self) -> u64 {
        self.ops.load(Ordering::Relaxed)
    }

    /// Whether the crash point has fired: all further operations fail,
    /// and the sweep executor abandons remaining points (the process is
    /// "dead").
    #[must_use]
    pub fn crashed(&self) -> bool {
        self.crashed.load(Ordering::Relaxed)
    }

    /// A snapshot of everything injected so far.
    #[must_use]
    pub fn stats(&self) -> StorageFaultStats {
        StorageFaultStats {
            ops: self.ops.load(Ordering::Relaxed),
            torn_writes: self.torn_writes.load(Ordering::Relaxed),
            dropped_fsyncs: self.dropped_fsyncs.load(Ordering::Relaxed),
            rename_failures: self.rename_failures.load(Ordering::Relaxed),
            enospc_failures: self.enospc_failures.load(Ordering::Relaxed),
            corrupted_reads: self.corrupted_reads.load(Ordering::Relaxed),
            files_truncated_at_crash: self.files_truncated_at_crash.load(Ordering::Relaxed),
            crashed: self.crashed(),
        }
    }

    /// Counts one operation; fails fast after power loss and fires the
    /// crash point when the counter crosses it. Returns the op's index
    /// (1-based).
    fn tick(&self) -> io::Result<u64> {
        if self.crashed() {
            return Err(crash_error());
        }
        let index = self.ops.fetch_add(1, Ordering::Relaxed) + 1;
        if let Some(crash_after) = self.cfg.crash_after {
            if index > crash_after {
                self.power_loss();
                return Err(crash_error());
            }
        }
        Ok(index)
    }

    /// Simulates power loss: every tracked file loses a drawn fraction
    /// of its unsynced tail (bytes past the last successful fsync or
    /// rename commit), then every subsequent operation fails.
    fn power_loss(&self) {
        let mut st = self.state.lock().expect("fault state lock");
        // Deterministic truncation order regardless of HashMap iteration.
        let mut files: Vec<(PathBuf, SyncState)> =
            st.tracked.iter().map(|(p, s)| (p.clone(), *s)).collect();
        files.sort_by(|a, b| a.0.cmp(&b.0));
        for (path, sync) in files {
            if sync.len <= sync.synced {
                continue;
            }
            let tail = sync.len - sync.synced;
            let keep = sync.synced + (st.crash.next_f64() * tail as f64) as u64;
            let truncated = OpenOptions::new()
                .write(true)
                .open(&path)
                .and_then(|f| f.set_len(keep));
            if truncated.is_ok() {
                self.files_truncated_at_crash.fetch_add(1, Ordering::Relaxed);
            }
        }
        st.tracked.clear();
        self.crashed.store(true, Ordering::Relaxed);
    }

    /// The durability entry for `path`, initialized from the on-disk
    /// length for files that predate this injector (bytes that survived
    /// a previous session are already durable).
    fn entry<'a>(st: &'a mut FaultState, path: &Path) -> &'a mut SyncState {
        st.tracked.entry(path.to_path_buf()).or_insert_with(|| {
            let len = std::fs::metadata(path).map_or(0, |m| m.len());
            SyncState { synced: len, len }
        })
    }

    /// Fails writes inside an open ENOSPC window, and draws whether this
    /// write opens a new one.
    fn enospc_gate(&self, st: &mut FaultState, index: u64) -> io::Result<()> {
        if index < st.enospc_until {
            self.enospc_failures.fetch_add(1, Ordering::Relaxed);
            return Err(enospc_error());
        }
        if self.cfg.enospc > 0.0 && st.enospc.next_f64() < self.cfg.enospc {
            // The window outlives this op: disks do not un-fill between
            // two writes.
            st.enospc_until = index + 2 + st.enospc.next_u64() % 7;
            self.enospc_failures.fetch_add(1, Ordering::Relaxed);
            return Err(enospc_error());
        }
        Ok(())
    }

    /// Draws a torn-write prefix length for `len` payload bytes, or
    /// `None` when this write goes through whole.
    fn torn_gate(&self, st: &mut FaultState, len: usize) -> Option<usize> {
        if self.cfg.torn_write > 0.0 && st.torn.next_f64() < self.cfg.torn_write {
            self.torn_writes.fetch_add(1, Ordering::Relaxed);
            return Some((st.torn.next_f64() * len as f64) as usize);
        }
        None
    }
}

impl Vfs for FaultyVfs {
    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        self.tick()?;
        let mut bytes = std::fs::read(path)?;
        if self.cfg.read_corrupt > 0.0 {
            let mut st = self.state.lock().expect("fault state lock");
            if st.read.next_f64() < self.cfg.read_corrupt && !bytes.is_empty() {
                let bit = st.read.next_u64() as usize % (bytes.len() * 8);
                bytes[bit / 8] ^= 1 << (bit % 8);
                self.corrupted_reads.fetch_add(1, Ordering::Relaxed);
            }
        }
        Ok(bytes)
    }

    fn write(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        let index = self.tick()?;
        let mut st = self.state.lock().expect("fault state lock");
        self.enospc_gate(&mut st, index)?;
        if let Some(prefix) = self.torn_gate(&mut st, bytes.len()) {
            let _ = std::fs::write(path, &bytes[..prefix]);
            *FaultyVfs::entry(&mut st, path) = SyncState {
                synced: 0,
                len: prefix as u64,
            };
            return Err(torn_error());
        }
        std::fs::write(path, bytes)?;
        *FaultyVfs::entry(&mut st, path) = SyncState {
            synced: 0,
            len: bytes.len() as u64,
        };
        Ok(())
    }

    fn fsync(&self, path: &Path) -> io::Result<()> {
        self.tick()?;
        let mut st = self.state.lock().expect("fault state lock");
        if self.cfg.dropped_fsync > 0.0 && st.fsync.next_f64() < self.cfg.dropped_fsync {
            // The lie: report success, make nothing durable.
            self.dropped_fsyncs.fetch_add(1, Ordering::Relaxed);
            return Ok(());
        }
        File::open(path)?.sync_data()?;
        let entry = FaultyVfs::entry(&mut st, path);
        entry.synced = entry.len;
        Ok(())
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        self.tick()?;
        let mut st = self.state.lock().expect("fault state lock");
        if self.cfg.rename_fail > 0.0 && st.rename.next_f64() < self.cfg.rename_fail {
            self.rename_failures.fetch_add(1, Ordering::Relaxed);
            return Err(rename_error());
        }
        std::fs::rename(from, to)?;
        // Modeling choice: a committed rename is durable (as if the
        // directory entry were fsynced). Stricter journaling would also
        // require a directory fsync; the cache's commit protocol treats
        // rename as the commit point, so the injector does too.
        let moved = st.tracked.remove(from);
        let len = moved.map_or_else(|| std::fs::metadata(to).map_or(0, |m| m.len()), |s| s.len);
        st.tracked.insert(to.to_path_buf(), SyncState { synced: len, len });
        Ok(())
    }

    fn remove(&self, path: &Path) -> io::Result<()> {
        self.tick()?;
        let mut st = self.state.lock().expect("fault state lock");
        std::fs::remove_file(path)?;
        st.tracked.remove(path);
        Ok(())
    }

    fn create_dir_all(&self, path: &Path) -> io::Result<()> {
        self.tick()?;
        std::fs::create_dir_all(path)
    }

    fn list(&self, dir: &Path) -> io::Result<Vec<PathBuf>> {
        self.tick()?;
        RealVfs.list(dir)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    fn scratch(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("depburst-vfs-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("mkdir");
        dir
    }

    #[test]
    fn real_vfs_roundtrips() {
        let dir = scratch("real");
        let vfs = RealVfs;
        let a = dir.join("a.txt");
        vfs.write(&a, b"hello world").expect("write");
        vfs.fsync(&a).expect("fsync");
        assert_eq!(vfs.read(&a).expect("read"), b"hello world");
        let b = dir.join("b.txt");
        vfs.rename(&a, &b).expect("rename");
        assert!(!vfs.exists(&a) && vfs.exists(&b));
        assert_eq!(vfs.list(&dir).expect("list"), vec![b.clone()]);
        vfs.remove(&b).expect("remove");
        assert!(vfs.list(&dir).expect("list").is_empty());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn inert_injector_is_passthrough_and_draws_nothing() {
        let dir = scratch("inert");
        let vfs = FaultyVfs::new(StorageFaultConfig::none(7));
        let path = dir.join("x.json");
        vfs.write(&path, b"payload").expect("write");
        vfs.fsync(&path).expect("fsync");
        vfs.write(&path, b"payload+tail").expect("rewrite");
        assert_eq!(vfs.read(&path).expect("read"), b"payload+tail");
        assert_eq!(vfs.op_count(), 4);
        assert!(!vfs.crashed());
        // Zero intensity consumed no randomness: the streams still sit
        // at their seeds.
        let st = vfs.state.lock().expect("lock");
        assert_eq!(st.torn, SplitMix64::new(7 ^ SALT_TORN));
        assert_eq!(st.read, SplitMix64::new(7 ^ SALT_READ));
        drop(st);
        assert_eq!(
            vfs.stats(),
            StorageFaultStats {
                ops: 4,
                ..StorageFaultStats::default()
            }
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn fault_schedule_is_deterministic_per_seed() {
        let run = |seed: u64| -> (Vec<bool>, StorageFaultStats) {
            let dir = scratch(&format!("det{seed}"));
            let vfs = FaultyVfs::new(StorageFaultConfig {
                torn_write: 0.4,
                enospc: 0.2,
                ..StorageFaultConfig::none(seed)
            });
            let outcomes = (0..32)
                .map(|i| vfs.write(&dir.join(format!("f{i}")), b"0123456789").is_ok())
                .collect();
            let stats = vfs.stats();
            let _ = std::fs::remove_dir_all(&dir);
            (outcomes, stats)
        };
        let (a1, s1) = run(11);
        let (a2, s2) = run(11);
        assert_eq!(a1, a2, "same seed, same schedule");
        assert_eq!(s1, s2);
        assert!(s1.torn_writes + s1.enospc_failures > 0, "faults fired at 0.4/0.2");
        let (b1, _) = run(12);
        assert_ne!(a1, b1, "different seeds diverge");
    }

    #[test]
    fn crash_point_truncates_unsynced_tail_and_kills_the_vfs() {
        let dir = scratch("crash");
        let synced = dir.join("synced.json");
        let unsynced = dir.join("unsynced.json");
        // Ops: 1 write, 2 fsync, 3 write, 4 fsync, 5 write → crash.
        let vfs = FaultyVfs::new(StorageFaultConfig::crash_at(4, 42));
        vfs.write(&synced, b"AAAA\n").expect("write");
        vfs.fsync(&synced).expect("fsync");
        vfs.write(&unsynced, b"BBBBBBBBBB").expect("write");
        vfs.fsync(&synced).expect("fsync of the other file");
        let err = vfs.write(&dir.join("late"), b"DDDD\n").expect_err("crash point");
        assert!(err.to_string().contains("power loss"), "{err}");
        assert!(vfs.crashed());
        // Everything after it fails fast, even reads.
        assert!(vfs.read(&synced).is_err());
        assert!(vfs.write(&dir.join("other"), b"x").is_err());
        // The synced file survived whole; a drawn part of the unsynced
        // one (10 bytes) was lost.
        assert_eq!(std::fs::read(&synced).expect("on real disk"), b"AAAA\n");
        let on_disk = std::fs::read(&unsynced).expect("file still on real disk");
        assert!(on_disk.len() < 10, "tail truncated: {on_disk:?}");
        assert!(!dir.join("late").exists(), "the crashing op did nothing");
        assert!(vfs.stats().crashed);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn dropped_fsync_loses_the_tail_at_crash() {
        let dir = scratch("dropfsync");
        let path = dir.join("f");
        let vfs = FaultyVfs::new(StorageFaultConfig {
            dropped_fsync: 1.0,
            crash_after: Some(2),
            ..StorageFaultConfig::none(9)
        });
        vfs.write(&path, b"0123456789").expect("write");
        vfs.fsync(&path).expect("fsync reports success");
        assert_eq!(vfs.stats().dropped_fsyncs, 1);
        let _ = vfs.read(&path).expect_err("crash fires on op 3");
        // The fsync lied, so the whole file was fair game for truncation.
        let on_disk = std::fs::read(&path).expect("read");
        assert!(on_disk.len() < 10, "unsynced bytes lost: {on_disk:?}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn enospc_windows_persist_across_operations() {
        let dir = scratch("enospc");
        let vfs = FaultyVfs::new(StorageFaultConfig {
            enospc: 1.0,
            ..StorageFaultConfig::none(3)
        });
        let first = vfs.write(&dir.join("a"), b"x").expect_err("window opens");
        assert!(first.to_string().contains("no space"), "{first}");
        // The window stays open for at least the next write (>= 2 ops).
        assert!(vfs.write(&dir.join("b"), b"x").is_err());
        assert!(vfs.stats().enospc_failures >= 2);
        // Reads are unaffected by a full disk.
        vfs.write(&dir.join("c"), b"x").err();
        assert!(std::fs::read_dir(&dir).expect("dir readable").next().is_none());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn read_corruption_flips_exactly_one_bit() {
        let dir = scratch("bitrot");
        let path = dir.join("f");
        std::fs::write(&path, vec![0u8; 64]).expect("plant");
        let vfs = FaultyVfs::new(StorageFaultConfig {
            read_corrupt: 1.0,
            ..StorageFaultConfig::none(5)
        });
        let bytes = vfs.read(&path).expect("read succeeds");
        let flipped: u32 = bytes.iter().map(|b| b.count_ones()).sum();
        assert_eq!(flipped, 1, "exactly one bit flipped");
        assert_eq!(vfs.stats().corrupted_reads, 1);
        // The file itself is untouched — corruption is on the read path.
        assert_eq!(std::fs::read(&path).expect("read"), vec![0u8; 64]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn rename_failures_leave_both_paths_alone() {
        let dir = scratch("rename");
        let from = dir.join("tmp");
        let to = dir.join("final");
        std::fs::write(&from, b"payload").expect("plant");
        let vfs = FaultyVfs::new(StorageFaultConfig {
            rename_fail: 1.0,
            ..StorageFaultConfig::none(2)
        });
        assert!(vfs.rename(&from, &to).is_err());
        assert!(from.exists() && !to.exists());
        assert_eq!(vfs.stats().rename_failures, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn write_atomic_concurrent_writers_never_tear() {
        // Regression for the tmp-name collision: with a pid-only suffix,
        // two threads persisting the same path raced on one temp file
        // and could commit a torn interleaving. The per-process counter
        // gives each writer its own temp file.
        let dir = scratch("atomic");
        let path = dir.join("slot.json");
        let payload_a = vec![b'a'; 64 * 1024];
        let payload_b = vec![b'b'; 64 * 1024];
        for _round in 0..8 {
            std::thread::scope(|scope| {
                for payload in [&payload_a, &payload_b] {
                    scope.spawn(|| {
                        write_atomic(&RealVfs, &path, payload).expect("atomic write");
                    });
                }
            });
            let committed = std::fs::read(&path).expect("committed");
            assert!(
                committed == payload_a || committed == payload_b,
                "no interleaving of the two payloads"
            );
            // No temp files left behind.
            let leftovers: Vec<PathBuf> = RealVfs
                .list(&dir)
                .expect("list")
                .into_iter()
                .filter(|p| p != &path)
                .collect();
            assert!(leftovers.is_empty(), "leftovers: {leftovers:?}");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn write_atomic_cleans_up_on_rename_failure() {
        let dir = scratch("atomic-fail");
        let path = dir.join("slot.json");
        let vfs = FaultyVfs::new(StorageFaultConfig {
            rename_fail: 1.0,
            ..StorageFaultConfig::none(1)
        });
        assert!(write_atomic(&vfs, &path, b"payload").is_err());
        assert_eq!(vfs.op_count(), 4, "write, fsync, rename, remove");
        assert!(!path.exists());
        assert!(RealVfs.list(&dir).expect("list").is_empty(), "tmp removed");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn spec_parsing_covers_the_grammar() {
        assert_eq!(parse_storage_faults("off"), Ok(None));
        assert_eq!(parse_storage_faults(""), Ok(None));
        assert_eq!(parse_storage_faults("0"), Ok(None));
        assert_eq!(parse_storage_faults("0.0,seed=9"), Ok(None), "inert collapses to off");
        let cfg = parse_storage_faults("0.2,seed=7").expect("ok").expect("on");
        assert_eq!(cfg.seed, 7);
        assert!((cfg.torn_write - 0.07).abs() < 1e-12);
        assert!((cfg.dropped_fsync - 0.1).abs() < 1e-12);
        assert_eq!(cfg.crash_after, None);
        let cfg = parse_storage_faults("crash=120").expect("ok").expect("on");
        assert_eq!(cfg.crash_after, Some(120));
        assert_eq!(cfg.torn_write, 0.0);
        let cfg = parse_storage_faults("seed=3,crash=5,0.5").expect("ok").expect("on");
        assert_eq!((cfg.seed, cfg.crash_after), (3, Some(5)));
        assert!(cfg.read_corrupt > 0.0);
        assert!(parse_storage_faults("1.5").is_err());
        assert!(parse_storage_faults("seed=x").is_err());
        assert!(parse_storage_faults("crash=-1").is_err());
        assert!(parse_storage_faults("frobnicate").is_err());
    }

    #[test]
    fn injector_is_shareable_across_threads() {
        // The executor hands Arc<FaultyVfs> to the cache and the
        // checkpoint on pool workers; the injector must be Sync.
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<FaultyVfs>();
        assert_send_sync::<Arc<dyn Vfs>>();
    }
}
