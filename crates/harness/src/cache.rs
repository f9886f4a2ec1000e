//! Content-addressed memoization of simulation runs.
//!
//! A seeded simulation is a pure function of (workload spec, machine
//! config, fault config, scale, seed) — the frequency rides inside the
//! machine config. The cache keys a [`RunSummary`] by a stable 128-bit
//! digest of exactly those inputs ([`sim_key`]) so that experiments
//! sharing points (every figure re-runs the same baselines) simulate each
//! point once.
//!
//! Results are memoized in-process always; optionally they also persist
//! under `results/cache/v<N>/<hex-key>.json` as versioned JSON envelopes.
//! Persistence is **off by default** (hermetic tests) and enabled by the
//! `DEPBURST_CACHE` environment variable: `1` uses the default
//! `results/cache` directory, any other non-empty value (except `0`) is
//! used as the directory itself. A bump of [`SCHEMA_VERSION`] — required
//! whenever the simulator's observable behaviour or the summary layout
//! changes — retires every old entry by moving to a fresh subdirectory;
//! envelopes whose schema or key do not match are ignored and recomputed.
//! v4 changed only the envelope checksum, from FNV-1a to
//! [`checksum64`]: a warm sweep verifies every byte it loads, and
//! FNV-1a's one-byte-at-a-time multiply chain cost about a quarter of
//! the load, where four independent word lanes run at memory speed.
//! v5 changed only the payload's epoch stream: a trace's epochs are
//! written as columns, one array per field (`dvfs_trace`'s `columns`
//! module), where v4 wrote an object per epoch and per thread slice
//! that repeated the nine counter names. The values and their float text
//! are unchanged; a payload is about 38% of its v4 size, and parsing it
//! is most of a warm load.
//!
//! Both directions stream: a store writes the summary's JSON straight
//! from the typed value (`Serialize::write_json`, no `serde::Value`
//! tree; the tree walk wrote the same bytes, so the schema stands), and
//! a load reads it back the same way (`Deserialize::from_json`). A cold
//! store's serialization was mostly building and freeing that tree.
//!
//! The same store is the checkpoint of a resumable run: `--run-id ID`
//! roots a second, always-persistent `SimCache` at
//! `results/checkpoints/<ID>/` ([`crate::checkpoint`]), the point
//! pipeline [`load`](SimCache::load)s through it before simulating and
//! [`store`](SimCache::store)s each completed point into it, and
//! `--resume ID` serves the stored points instead of re-simulating them.
//! Every entry, in either role, is committed by
//! [`write_atomic`]: temp file, fsync, rename.

use std::collections::{HashMap, HashSet};
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};

use dacapo_sim::Benchmark;
use depburst_core::stablehash::{checksum64, StableHasher};
use serde::{JsonWriter, Serialize};
use simx::{FaultConfig, MachineConfig};

use crate::run::RunSummary;
use crate::vfs::{write_atomic, RealVfs, Vfs};

/// Version of the cached-entry schema. Bump on any change to the
/// simulator's observable behaviour, the workload models, or the
/// [`RunSummary`] layout — stale entries are then simply never looked at.
/// v2: DRAM round sampling (`dram_round_sample_cap`), the multiplicative
/// random address map, and digest-composed keys.
/// v3: FNV-1a integrity checksum on every envelope and journal record
/// (backward compatible by construction: old entries live under `v2/`
/// and are simply never read).
/// v4: the checksum is [`checksum64`] (four word lanes) instead of
/// FNV-1a, whose byte-serial multiply chain cost a quarter of a warm
/// load. Same framing and field widths; v3 entries stay under `v3/`
/// and are never read.
/// v5: the trace's epochs are serialized as columns (per-epoch `start`,
/// `duration`, `end` and slice count `slices`, then one array per
/// thread-slice field) instead of one object per epoch and slice. Same
/// framing, checksum and values; v4 entries stay under `v4/` and are
/// never read.
pub const SCHEMA_VERSION: u32 = 5;

/// The content digest keying one simulation run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SimKey(pub u128);

impl SimKey {
    /// The key as the fixed-width hex string used for file names.
    #[must_use]
    pub fn hex(&self) -> String {
        format!("{:032x}", self.0)
    }

    /// Derives the key this run records under inside `namespace`.
    ///
    /// Fleet sweeps run the *same* characterization point on many shards;
    /// the memo cache must share those (one simulation fleet-wide), but
    /// the checkpoint must not — replaying shard A's point as shard B's
    /// would corrupt a resumed run if the shards ever diverge. Checkpoint
    /// entries for namespaced executions therefore key under
    /// `key.in_namespace("shard3")` while the cache keeps the raw key.
    #[must_use]
    pub fn in_namespace(&self, namespace: &str) -> SimKey {
        let mut h = StableHasher::new();
        h.write_tag("depburst::sim_key::namespace");
        h.write_u64((self.0 >> 64) as u64);
        h.write_u64(self.0 as u64);
        h.write_str(namespace);
        SimKey(h.finish())
    }

    /// Derives the key a *sampled* execution of this point caches and
    /// checkpoints under (see `simx::sampling`): the exact key plus the
    /// digest of the sampling configuration. A sampled result is an
    /// extrapolation, not a simulation — it must never collide with the
    /// exact entry for the same point, and two different region
    /// placements must not collide with each other. The probe/measure
    /// prefix runs themselves are plain exact runs at reduced scales and
    /// key normally.
    #[must_use]
    pub fn with_sampling(&self, sampling: u128) -> SimKey {
        let mut h = StableHasher::new();
        h.write_tag("depburst::sim_key::sampled");
        h.write_u64((self.0 >> 64) as u64);
        h.write_u64(self.0 as u64);
        h.write_u64((sampling >> 64) as u64);
        h.write_u64(sampling as u64);
        SimKey(h.finish())
    }
}

/// Stable digest of a sampled-tier configuration (the second input of
/// [`SimKey::with_sampling`]).
#[must_use]
pub fn sampling_digest(cfg: &simx::SamplingConfig) -> u128 {
    let mut h = StableHasher::new();
    cfg.hash_into(&mut h);
    h.finish()
}

/// Computes the cache key of one run: every input the simulation result
/// depends on. `fault` is the injector configuration installed on the
/// machine, if any (`None` hashes like an inert config — installing an
/// inert injector is bit-identical to not installing one).
///
/// Composed from per-input digests so sweep executors can pre-digest the
/// expensive parts (the benchmark spec and the machine config, shared by
/// hundreds of points) once and derive per-point keys with
/// [`sim_key_from_digests`] — three words hashed per point instead of a
/// full config walk.
#[must_use]
pub fn sim_key(
    bench: &Benchmark,
    machine: &MachineConfig,
    fault: Option<&FaultConfig>,
    scale: f64,
    seed: u64,
) -> SimKey {
    sim_key_from_digests(bench_digest(bench), machine.digest(), fault_digest(fault), scale, seed)
}

/// Stable digest of a benchmark's workload spec (the machine-independent
/// part of a [`sim_key`]).
#[must_use]
pub fn bench_digest(bench: &Benchmark) -> u128 {
    let mut h = StableHasher::new();
    bench.hash_into(&mut h);
    h.finish()
}

/// Stable digest of a fault-injector configuration; `None` digests like an
/// inert config, so an uninstalled injector keys identically to an
/// installed-but-inert one.
#[must_use]
pub fn fault_digest(fault: Option<&FaultConfig>) -> u128 {
    let mut h = StableHasher::new();
    fault
        .copied()
        .unwrap_or_else(|| FaultConfig::none(0))
        .hash_into(&mut h);
    h.finish()
}

/// Derives a run's key from pre-computed input digests (see [`sim_key`];
/// the machine digest is [`MachineConfig::digest`]).
#[must_use]
pub fn sim_key_from_digests(
    bench: u128,
    machine: u128,
    fault: u128,
    scale: f64,
    seed: u64,
) -> SimKey {
    let mut h = StableHasher::new();
    h.write_tag("depburst::sim_key");
    h.write_u32(SCHEMA_VERSION);
    for digest in [bench, machine, fault] {
        h.write_u64((digest >> 64) as u64);
        h.write_u64(digest as u64);
    }
    h.write_f64(scale);
    h.write_u64(seed);
    SimKey(h.finish())
}

/// The envelope's fixed framing, before and between its fields.
const SCHEMA_FIELD: &str = "{\"schema\":";
const KEY_FIELD: &str = ",\"key\":\"";
const CHECKSUM_FIELD: &str = "\",\"checksum\":\"";
const SUMMARY_FIELD: &str = "\",\"summary\":";

/// Writes `summary`'s envelope:
/// `{"schema":N,"key":"<32 hex>","checksum":"<16 hex>","summary":<payload>}`
/// with `N` the [`SCHEMA_VERSION`] and the checksum the [`checksum64`] of
/// the payload bytes. That is the canonical serialization of a struct with
/// those four fields (asserted by a test); the header fields are plain
/// hex and integers, so no JSON escaping is needed. The header goes into
/// the buffer first with a zero checksum, the payload streams in after it,
/// and the checksum is then written over the zeros: the payload is
/// serialized once and never copied. [`open_envelope`] reads it back.
pub(crate) fn write_envelope(key: SimKey, summary: &RunSummary) -> Vec<u8> {
    const HEADER_CAP: usize = 128;
    let mut header = [0u8; HEADER_CAP];
    let mut free = &mut header[..];
    write!(
        free,
        "{SCHEMA_FIELD}{SCHEMA_VERSION}{KEY_FIELD}{:032x}{CHECKSUM_FIELD}{:016x}{SUMMARY_FIELD}",
        key.0, 0
    )
    .expect("the header fits its buffer");
    let header_len = HEADER_CAP - free.len();
    let mut w = JsonWriter::compact();
    w.raw(std::str::from_utf8(&header[..header_len]).expect("the header is ASCII"));
    summary.write_json(&mut w);
    w.raw("}");
    let mut bytes = w.into_string().into_bytes();
    let checksum = checksum64(&bytes[header_len..bytes.len() - 1]);
    let at = header_len - SUMMARY_FIELD.len() - 16;
    write!(&mut bytes[at..at + 16], "{checksum:016x}").expect("16 hex digits");
    bytes
}

/// Opens an envelope written by `write_envelope`: matches its exact
/// header, checks the [`checksum64`] of the payload bytes *as stored*
/// against the stored checksum, and returns the envelope's key with the
/// payload slice (still to be parsed). Every byte outside the key is
/// either fixed framing or covered by the checksum, so a change to any of
/// them is rejected here; a changed key digit yields a different key,
/// which the caller's lookup never matches to the original point.
///
/// # Errors
/// Why the bytes are not a sound schema-[`SCHEMA_VERSION`] envelope: a
/// foreign header or schema, malformed hex, a missing closing brace, or a
/// checksum mismatch.
pub fn open_envelope(bytes: &[u8]) -> Result<(SimKey, &[u8]), String> {
    let rest = bytes
        .strip_prefix(SCHEMA_FIELD.as_bytes())
        .ok_or("not an envelope (no schema header)")?;
    let digits = rest.iter().take_while(|b| b.is_ascii_digit()).count();
    let (schema, rest) = rest.split_at(digits);
    // The writer's exact digits: no leading zero, value SCHEMA_VERSION.
    let canonical = schema.first() != Some(&b'0')
        && std::str::from_utf8(schema).ok().and_then(|s| s.parse().ok()) == Some(SCHEMA_VERSION);
    if !canonical {
        return Err(format!(
            "schema {} (want {SCHEMA_VERSION})",
            String::from_utf8_lossy(schema)
        ));
    }
    let rest = rest
        .strip_prefix(KEY_FIELD.as_bytes())
        .ok_or("malformed key field")?;
    let (key, rest) = lower_hex(rest, 32).ok_or("malformed key field")?;
    let rest = rest
        .strip_prefix(CHECKSUM_FIELD.as_bytes())
        .ok_or("malformed checksum field")?;
    let (stored, rest) = lower_hex(rest, 16).ok_or("malformed checksum field")?;
    let payload = rest
        .strip_prefix(SUMMARY_FIELD.as_bytes())
        .and_then(|r| r.strip_suffix(b"}"))
        .ok_or("malformed summary field")?;
    let computed = u128::from(checksum64(payload));
    if computed != stored {
        return Err(format!(
            "checksum mismatch (stored {stored:016x}, computed {computed:016x})"
        ));
    }
    Ok((SimKey(key), payload))
}

/// Splits `width` lowercase hex digits — the only case the writer emits,
/// so an upper-cased digit is a changed byte — off the front of `bytes`.
fn lower_hex(bytes: &[u8], width: usize) -> Option<(u128, &[u8])> {
    let (digits, rest) = bytes.split_at_checked(width)?;
    let value = digits.iter().try_fold(0u128, |acc, &b| {
        let d = match b {
            b'0'..=b'9' => b - b'0',
            b'a'..=b'f' => b - b'a' + 10,
            _ => return None,
        };
        Some(acc << 4 | u128::from(d))
    })?;
    Some((value, rest))
}

/// Decodes the envelope persisted in `key`'s slot. The checksum is
/// verified over the stored payload bytes before anything is parsed, so
/// the payload is parsed exactly once and any bit flipped since the write
/// is rejected (and the entry quarantined), never served. A key other
/// than `key` means a renamed file, rejected likewise rather than left
/// shadowing the slot.
fn decode_entry(key: SimKey, bytes: &[u8]) -> Result<RunSummary, String> {
    let (stored, payload) = open_envelope(bytes)?;
    if stored != key {
        return Err(format!("envelope mismatch (key {})", stored.hex()));
    }
    serde_json::from_slice(payload).map_err(|e| e.to_string())
}

/// Hit/miss counters of a cache (for CI logs and tests).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Results served from the in-process map.
    pub memory_hits: u64,
    /// Results served from a persisted JSON envelope.
    pub disk_hits: u64,
    /// Results that had to be simulated.
    pub misses: u64,
    /// Corrupt or mismatched envelopes moved to the quarantine directory.
    pub quarantined: u64,
    /// Persist attempts that failed (I/O); the run keeps going in memory
    /// but loses that entry's warm-start (or, in a checkpoint, its
    /// resumability).
    pub persist_failures: u64,
    /// Entries committed although their fsync failed: they may not
    /// survive a crash, and are then simply recomputed.
    pub fsync_failures: u64,
}

/// A content-addressed memo of simulation results: always in-process,
/// optionally persistent. Shared by reference across pool workers.
#[derive(Debug)]
pub struct SimCache {
    mem: Mutex<HashMap<u128, Arc<RunSummary>>>,
    /// Keys currently being computed, so concurrent workers hitting the
    /// same key wait for the one computation instead of duplicating it.
    in_flight: Mutex<HashSet<u128>>,
    flight_done: Condvar,
    pub(crate) dir: Option<PathBuf>,
    /// Set on a checkpoint begun fresh, whose directory was just emptied:
    /// lookups serve the memo only, since every disk read would miss.
    pub(crate) memo_only: bool,
    /// The storage layer all persistence I/O routes through. [`RealVfs`]
    /// by default; the storage-fault harness swaps in a `FaultyVfs`.
    pub(crate) vfs: Arc<dyn Vfs>,
    memory_hits: AtomicU64,
    disk_hits: AtomicU64,
    misses: AtomicU64,
    quarantined: AtomicU64,
    persist_failures: AtomicU64,
    fsync_failures: AtomicU64,
}

impl Default for SimCache {
    fn default() -> Self {
        Self::in_memory()
    }
}

impl SimCache {
    /// A purely in-process cache (no filesystem traffic).
    #[must_use]
    pub fn in_memory() -> Self {
        SimCache {
            mem: Mutex::new(HashMap::new()),
            in_flight: Mutex::new(HashSet::new()),
            flight_done: Condvar::new(),
            dir: None,
            memo_only: false,
            vfs: Arc::new(RealVfs),
            memory_hits: AtomicU64::new(0),
            disk_hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            quarantined: AtomicU64::new(0),
            persist_failures: AtomicU64::new(0),
            fsync_failures: AtomicU64::new(0),
        }
    }

    /// A cache that additionally persists under `dir` (the schema
    /// subdirectory is appended automatically).
    #[must_use]
    pub fn persistent(dir: impl Into<PathBuf>) -> Self {
        let mut cache = Self::in_memory();
        cache.dir = Some(dir.into().join(format!("v{SCHEMA_VERSION}")));
        cache
    }

    /// Builds the cache the `DEPBURST_CACHE` environment variable asks
    /// for: unset, empty, or `0` → in-memory only; `1` → persist under
    /// `results/cache`; anything else → persist under that path.
    #[must_use]
    pub fn from_env() -> Self {
        match std::env::var("DEPBURST_CACHE") {
            Err(_) => Self::in_memory(),
            Ok(v) => match v.trim() {
                "" | "0" => Self::in_memory(),
                "1" => Self::persistent("results/cache"),
                path => Self::persistent(path),
            },
        }
    }

    /// Whether this cache persists entries to disk.
    #[must_use]
    pub fn is_persistent(&self) -> bool {
        self.dir.is_some()
    }

    /// Routes this cache's persistence I/O through `vfs` (builder
    /// style). The default is [`RealVfs`]; the torture harness installs
    /// a `FaultyVfs` here.
    #[must_use]
    pub fn with_vfs(mut self, vfs: Arc<dyn Vfs>) -> Self {
        self.vfs = vfs;
        self
    }

    /// Routes this cache's persistence I/O through `vfs` (in place; the
    /// `--storage-faults` flag installs the injector on an already-built
    /// context).
    pub fn set_vfs(&mut self, vfs: Arc<dyn Vfs>) {
        self.vfs = vfs;
    }

    /// The hit/miss counters so far.
    #[must_use]
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            memory_hits: self.memory_hits.load(Ordering::Relaxed),
            disk_hits: self.disk_hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            quarantined: self.quarantined.load(Ordering::Relaxed),
            persist_failures: self.persist_failures.load(Ordering::Relaxed),
            fsync_failures: self.fsync_failures.load(Ordering::Relaxed),
        }
    }

    /// Returns the summary for `key`, computing (and memoizing) it with
    /// `compute` on a miss. Concurrent callers of the same key are
    /// deduplicated: exactly one computes while the rest block until the
    /// result lands in the memo, so the hit/miss statistics — like the
    /// results themselves — do not depend on worker scheduling. An error
    /// from `compute` is returned unchanged and memoizes nothing.
    pub fn get_or_compute<F, E>(&self, key: SimKey, compute: F) -> Result<Arc<RunSummary>, E>
    where
        F: FnOnce() -> Result<RunSummary, E>,
    {
        loop {
            if let Some(hit) = self.mem.lock().expect("cache lock").get(&key.0) {
                self.memory_hits.fetch_add(1, Ordering::Relaxed);
                return Ok(Arc::clone(hit));
            }
            let mut flying = self.in_flight.lock().expect("flight lock");
            if flying.insert(key.0) {
                break; // this caller owns the computation
            }
            // Wait out the owner, then re-check the memo. A spurious
            // wakeup or an owner that errored just loops again.
            drop(self.flight_done.wait(flying).expect("flight lock"));
        }
        let guard = FlightGuard { cache: self, key };
        let outcome = self.load_or_compute(key, compute);
        if let Ok(summary) = &outcome {
            self.mem
                .lock()
                .expect("cache lock")
                .insert(key.0, Arc::clone(summary));
        }
        drop(guard); // release waiters only after the memo is populated
        outcome
    }

    fn load_or_compute<F, E>(&self, key: SimKey, compute: F) -> Result<Arc<RunSummary>, E>
    where
        F: FnOnce() -> Result<RunSummary, E>,
    {
        if let Some(summary) = self.load_from_disk(key) {
            self.disk_hits.fetch_add(1, Ordering::Relaxed);
            return Ok(Arc::new(summary));
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        let summary = Arc::new(compute()?);
        self.store_to_disk(key, &summary);
        Ok(summary)
    }

    pub(crate) fn entry_path(&self, key: SimKey) -> Option<PathBuf> {
        self.dir.as_ref().map(|d| d.join(format!("{}.json", key.hex())))
    }

    fn load_from_disk(&self, key: SimKey) -> Option<RunSummary> {
        if self.memo_only {
            return None;
        }
        let path = self.entry_path(key)?;
        // An absent entry is the ordinary cold-cache case, not corruption.
        let bytes = self.vfs.read(&path).ok()?;
        match decode_entry(key, &bytes) {
            Ok(summary) => Some(summary),
            Err(why) => {
                self.quarantine(&path, &why);
                None
            }
        }
    }

    /// Moves a corrupt or mismatched envelope aside — to
    /// `<cache-root>/quarantine/` — so the slot can be recomputed and the
    /// bad bytes stay available for diagnosis, and says so once on stderr.
    /// Silently degrading to in-memory (the old behaviour) hid real
    /// corruption *and* threw persistence away for the whole process.
    fn quarantine(&self, path: &Path, why: &str) {
        self.quarantined.fetch_add(1, Ordering::Relaxed);
        let Some(schema_dir) = self.dir.as_deref() else {
            return;
        };
        let qdir = schema_dir.parent().unwrap_or(schema_dir).join("quarantine");
        let dest = qdir.join(path.file_name().unwrap_or_default());
        let moved = self
            .vfs
            .create_dir_all(&qdir)
            .and_then(|()| self.vfs.rename(path, &dest));
        match moved {
            Ok(()) => eprintln!(
                "warning: quarantined corrupt cache entry {} -> {}: {why}",
                path.display(),
                dest.display()
            ),
            Err(io_err) => eprintln!(
                "warning: corrupt cache entry {} ({why}) could not be quarantined: {io_err}",
                path.display()
            ),
        }
    }

    /// Best-effort persistence: a full results directory or read-only
    /// checkout must never fail the experiment itself — but dropped
    /// persist attempts are counted (and the CLI warns) instead of being
    /// silently discarded. A failed fsync is counted and warned about
    /// once; the entry still commits, since its checksum makes a
    /// non-durable entry safe: at worst it is recomputed.
    fn store_to_disk(&self, key: SimKey, summary: &RunSummary) {
        let Some(path) = self.entry_path(key) else {
            return;
        };
        let envelope = write_envelope(key, summary);
        if let Some(parent) = path.parent() {
            let _ = self.vfs.create_dir_all(parent); // a failure surfaces in the write below
        }
        match write_atomic(self.vfs.as_ref(), &path, &envelope) {
            Ok(None) => {}
            Ok(Some(sync_err)) => {
                if self.fsync_failures.fetch_add(1, Ordering::Relaxed) == 0 {
                    eprintln!(
                        "warning: fsync of {} failed ({sync_err}); entries written since \
                         may not survive a crash",
                        path.display()
                    );
                }
            }
            Err(_) => {
                self.persist_failures.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    /// Looks `key` up without computing it: the in-process memo first,
    /// then the persisted envelope (verified, and quarantined if bad),
    /// which then joins the memo. Counts a memory or disk hit; a miss
    /// counts nothing, since nothing was simulated.
    pub fn load(&self, key: SimKey) -> Option<Arc<RunSummary>> {
        if let Some(hit) = self.peek(key) {
            self.memory_hits.fetch_add(1, Ordering::Relaxed);
            return Some(hit);
        }
        let summary = Arc::new(self.load_from_disk(key)?);
        self.disk_hits.fetch_add(1, Ordering::Relaxed);
        self.seed(key, &summary);
        Some(summary)
    }

    /// Records a completed point: memoizes it and persists its envelope.
    /// Idempotent: a key the memo already holds — loaded or stored — is
    /// not rewritten.
    pub fn store(&self, key: SimKey, summary: &Arc<RunSummary>) {
        {
            let mut mem = self.mem.lock().expect("cache lock");
            if mem.contains_key(&key.0) {
                return;
            }
            mem.insert(key.0, Arc::clone(summary));
        }
        self.store_to_disk(key, summary);
    }

    /// Quarantines `key`'s cache envelope (and drops the in-process
    /// entry): the slot's persisted bytes move to
    /// `<cache-root>/quarantine/` exactly like a corrupt envelope's
    /// would. Used when an invariant violation is discovered mid-sweep —
    /// the entry's inputs produced self-inconsistent physics, so neither
    /// this run nor a later resume should trust the envelope. A no-op
    /// beyond the counter when the cache is in-memory or the slot was
    /// never persisted.
    pub fn quarantine_key(&self, key: SimKey, why: &str) {
        self.mem.lock().expect("cache lock").remove(&key.0);
        if let Some(path) = self.entry_path(key) {
            if self.vfs.exists(&path) {
                self.quarantine(&path, why);
                return;
            }
        }
        // Still count the event so the failure report's `quarantined`
        // field reflects every envelope withdrawn from service.
        self.quarantined.fetch_add(1, Ordering::Relaxed);
    }

    /// Seeds the in-process memo with a summary replayed from a
    /// checkpoint (no disk-cache traffic, no stats impact beyond later
    /// memory hits). First write wins, matching `get_or_compute`.
    pub fn seed(&self, key: SimKey, summary: &Arc<RunSummary>) {
        self.mem
            .lock()
            .expect("cache lock")
            .entry(key.0)
            .or_insert_with(|| Arc::clone(summary));
    }

    /// Looks up `key` in the in-process memo only (no disk traffic, no
    /// stats impact).
    #[must_use]
    pub fn peek(&self, key: SimKey) -> Option<Arc<RunSummary>> {
        self.mem.lock().expect("cache lock").get(&key.0).cloned()
    }
}

/// Removes a key from the in-flight set on scope exit — including an
/// unwinding `compute` — so waiters blocked on the same key never hang.
struct FlightGuard<'a> {
    cache: &'a SimCache,
    key: SimKey,
}

impl Drop for FlightGuard<'_> {
    fn drop(&mut self) {
        self.cache
            .in_flight
            .lock()
            .expect("flight lock")
            .remove(&self.key.0);
        self.cache.flight_done.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use std::convert::Infallible;

    use super::*;
    use dacapo_sim::benchmark;

    fn key_for(seed: u64) -> SimKey {
        sim_key(
            benchmark("lusearch").expect("exists"),
            &MachineConfig::haswell_quad(),
            None,
            0.05,
            seed,
        )
    }

    fn dummy_summary(marker: u64) -> RunSummary {
        RunSummary {
            exec: dvfs_trace::TimeDelta::from_millis(marker as f64),
            gc_time: dvfs_trace::TimeDelta::ZERO,
            gc_count: marker,
            allocated: 0,
            total_active: dvfs_trace::TimeDelta::ZERO,
            trace: Arc::new(dvfs_trace::ExecutionTrace {
                base: dvfs_trace::Freq::from_ghz(1.0),
                start: dvfs_trace::Time::ZERO,
                total: dvfs_trace::TimeDelta::ZERO,
                epochs: vec![],
                markers: vec![],
                threads: vec![],
            }),
            sampled: None,
        }
    }

    #[test]
    fn memoizes_in_process() {
        let cache = SimCache::in_memory();
        let mut computes = 0;
        for _ in 0..3 {
            let s = cache
                .get_or_compute::<_, Infallible>(key_for(1), || {
                    computes += 1;
                    Ok(dummy_summary(42))
                })
                .expect("ok");
            assert_eq!(s.gc_count, 42);
        }
        assert_eq!(computes, 1);
        let stats = cache.stats();
        assert_eq!(stats.misses, 1);
        assert_eq!(stats.memory_hits, 2);
    }

    #[test]
    fn errors_are_not_cached() {
        let cache = SimCache::in_memory();
        let r = cache.get_or_compute(key_for(2), || {
            Err(depburst_core::DepburstError::Machine {
                detail: "boom".into(),
            })
        });
        assert!(r.is_err());
        let s = cache
            .get_or_compute::<_, Infallible>(key_for(2), || Ok(dummy_summary(7)))
            .expect("retry succeeds");
        assert_eq!(s.gc_count, 7);
    }

    #[test]
    fn persists_and_reloads_across_instances() {
        let dir = std::env::temp_dir().join(format!("depburst-cache-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let writer = SimCache::persistent(&dir);
        writer
            .get_or_compute::<_, Infallible>(key_for(3), || Ok(dummy_summary(9)))
            .expect("ok");
        // A second instance (fresh process, same directory) hits disk.
        let reader = SimCache::persistent(&dir);
        let s = reader
            .get_or_compute::<_, Infallible>(key_for(3), || panic!("must not recompute"))
            .expect("ok");
        assert_eq!(s.gc_count, 9);
        assert_eq!(reader.stats().disk_hits, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_or_mismatched_entries_recompute() {
        let (cache, dir) = planted("bad", key_for(4), "{ not json");
        let path = cache.entry_path(key_for(4)).expect("persistent");
        let s = cache
            .get_or_compute::<_, Infallible>(key_for(4), || Ok(dummy_summary(11)))
            .expect("ok");
        assert_eq!(s.gc_count, 11);
        assert_eq!(cache.stats().misses, 1);
        // The corrupt bytes were moved aside, not deleted or left in place.
        assert_eq!(cache.stats().quarantined, 1);
        let quarantined = dir
            .join("quarantine")
            .join(path.file_name().expect("file name"));
        assert_eq!(
            std::fs::read(&quarantined).expect("quarantined file exists"),
            b"{ not json"
        );
        // The recompute re-persisted a good envelope in the original slot.
        let fresh = SimCache::persistent(&dir);
        let replayed = fresh
            .get_or_compute::<_, Infallible>(key_for(4), || panic!("must hit disk"))
            .expect("ok");
        assert_eq!(replayed.gc_count, 11);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn composed_envelope_matches_the_derived_serializer() {
        // `write_envelope` writes the header by hand around the streamed
        // summary and patches its checksum in. It must stay the canonical
        // serialization of the four-field envelope, byte for byte, so
        // that the on-disk format is plain JSON of a fixed shape; and
        // `open_envelope` must hand back exactly the payload bytes.
        #[derive(Debug, serde::Serialize, serde::Deserialize)]
        struct Envelope {
            schema: u32,
            key: String,
            checksum: String,
            summary: RunSummary,
        }
        let summary = dummy_summary(23);
        let summary_json = serde_json::to_string(&summary).expect("serialize");
        let checksum = format!("{:016x}", checksum64(summary_json.as_bytes()));
        let composed =
            String::from_utf8(write_envelope(key_for(1), &summary)).expect("envelopes are UTF-8");
        let parsed: Envelope = serde_json::from_str(&composed).expect("parses");
        assert_eq!(parsed.schema, SCHEMA_VERSION);
        assert_eq!(parsed.key, key_for(1).hex());
        assert_eq!(parsed.checksum, checksum);
        assert_eq!(parsed.summary, summary);
        assert_eq!(
            serde_json::to_string(&parsed).expect("re-serialize"),
            composed,
            "manual composition is byte-identical to the derived serializer"
        );
        let (key, payload) = open_envelope(composed.as_bytes()).expect("opens");
        assert_eq!(key, key_for(1));
        assert_eq!(payload, summary_json.as_bytes());
        // Only the writer's exact schema digits open.
        let header = format!("{{\"schema\":{SCHEMA_VERSION},");
        let v = SCHEMA_VERSION;
        let near = [
            format!("0{v}"),
            format!("{v}0"),
            format!("{}", v - 1),
            format!("{}", u64::from(v) + (1 << 32)),
        ];
        for schema in near.iter().map(String::as_str).chain(["0", ""]) {
            let foreign = composed.replacen(&header, &format!("{{\"schema\":{schema},"), 1);
            assert!(open_envelope(foreign.as_bytes()).is_err(), "schema {schema:?}");
        }
    }

    /// The payload of `dummy_summary(23)` as the writer renders it: its
    /// empty epoch stream as columns.
    const PAYLOAD_23: &str = concat!(
        r#"{"exec":0.023,"gc_time":0.0,"gc_count":23,"allocated":0,"#,
        r#""total_active":0.0,"trace":{"base":1000,"start":0.0,"total":0.0,"#,
        r#""epochs":{"start":[],"duration":[],"end":[],"slices":[],"thread":[],"#,
        r#""active":[],"crit":[],"leading_loads":[],"stall":[],"sq_full":[],"#,
        r#""instructions":[],"loads":[],"stores":[],"llc_misses":[]},"#,
        r#""markers":[],"threads":[]}}"#
    );

    /// The same payload as schemas 3 and 4 wrote it: epochs as rows.
    const ROW_PAYLOAD_23: &str = concat!(
        r#"{"exec":0.023,"gc_time":0.0,"gc_count":23,"allocated":0,"#,
        r#""total_active":0.0,"trace":{"base":1000,"start":0.0,"total":0.0,"#,
        r#""epochs":[],"markers":[],"threads":[]}}"#
    );

    const KEY_23: SimKey = SimKey(0x0123_4567_89ab_cdef_fedc_ba98_7654_3210);

    /// The envelope of `payload` under [`KEY_23`], spelled out by hand
    /// rather than by [`write_envelope`].
    fn envelope_23(schema: u32, checksum: &str, payload: &str) -> String {
        format!(
            r#"{{"schema":{schema},"key":"{}","checksum":"{checksum}","summary":{payload}}}"#,
            KEY_23.hex()
        )
    }

    /// Plants `bytes` in `key`'s slot of a fresh persistent cache under a
    /// per-test directory.
    fn planted(tag: &str, key: SimKey, bytes: &str) -> (SimCache, PathBuf) {
        let dir =
            std::env::temp_dir().join(format!("depburst-cache-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cache = SimCache::persistent(&dir);
        let path = cache.entry_path(key).expect("persistent");
        std::fs::create_dir_all(path.parent().expect("parent")).expect("mkdir");
        std::fs::write(&path, bytes).expect("plant");
        (cache, dir)
    }

    #[test]
    fn a_pinned_v5_envelope_loads_and_is_rewritten_byte_for_byte() {
        // Pins the schema-5 on-disk format: the header, the checksum
        // algorithm and its rendering, and the columnar epoch stream. A
        // change that moves these bytes needs a schema bump.
        let written = envelope_23(5, "40f0d040b35fd9a7", PAYLOAD_23);
        let (cache, dir) = planted("v5", KEY_23, &written);
        let served = cache
            .get_or_compute::<_, Infallible>(KEY_23, || panic!("must hit disk"))
            .expect("ok");
        assert_eq!(*served, dummy_summary(23));
        assert_eq!(cache.stats().disk_hits, 1);
        // The write side produces exactly those bytes.
        let fresh = SimCache::persistent(dir.join("rewrite"));
        fresh
            .get_or_compute::<_, Infallible>(KEY_23, || Ok(dummy_summary(23)))
            .expect("ok");
        let rewritten = std::fs::read(fresh.entry_path(KEY_23).expect("persistent")).expect("read");
        assert_eq!(rewritten, written.as_bytes());
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Plants `envelope` in [`KEY_23`]'s slot and requires a lookup to
    /// reject, quarantine and recompute it rather than serve it.
    fn recomputed_not_served(tag: &str, envelope: &str) {
        let (cache, dir) = planted(tag, KEY_23, envelope);
        let mut computed = false;
        let served = cache
            .get_or_compute::<_, Infallible>(KEY_23, || {
                computed = true;
                Ok(dummy_summary(24))
            })
            .expect("ok");
        assert!(computed, "the {tag} envelope was served");
        assert_eq!(served.gc_count, 24);
        let stats = cache.stats();
        assert_eq!((stats.disk_hits, stats.misses, stats.quarantined), (0, 1, 1));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_v3_envelope_in_the_slot_is_recomputed_not_served() {
        // A schema-3 envelope (FNV-1a checksum), exactly as the v3 writer
        // left it. v3 entries live under `v3/` and are never looked at;
        // one copied into the current slot is rejected, quarantined and
        // recomputed.
        assert_eq!(
            depburst_core::stablehash::fnv1a64(ROW_PAYLOAD_23.as_bytes()),
            0x2a41_863b_0465_c0bd,
            "the planted bytes are a sound v3 envelope"
        );
        recomputed_not_served("v3", &envelope_23(3, "2a41863b0465c0bd", ROW_PAYLOAD_23));
    }

    #[test]
    fn a_v4_envelope_in_the_slot_is_recomputed_not_served() {
        // A schema-4 envelope (row-form epochs), exactly as the v4 writer
        // left it. v4 entries live under `v4/` and are never looked at;
        // one copied into the v5 slot is rejected by its schema.
        let checksum = checksum64(ROW_PAYLOAD_23.as_bytes());
        assert_eq!(checksum, 0x63af_00f4_e45f_819f, "the planted bytes are a sound v4 envelope");
        recomputed_not_served("v4", &envelope_23(4, "63af00f4e45f819f", ROW_PAYLOAD_23));
        // Relabelled schema 5, its checksum still sound, the row-form
        // payload does not parse as a v5 trace.
        recomputed_not_served("v4-as-v5", &envelope_23(5, "63af00f4e45f819f", ROW_PAYLOAD_23));
    }

    /// Every single-bit flip of `bytes`, one at a time.
    fn bit_flips(bytes: &[u8]) -> impl Iterator<Item = Vec<u8>> + '_ {
        (0..bytes.len() * 8).map(move |bit| {
            let mut flipped = bytes.to_vec();
            flipped[bit / 8] ^= 1 << (bit % 8);
            flipped
        })
    }

    /// A summary whose payload carries float exponents (`1e-10`).
    fn exponent_summary() -> RunSummary {
        RunSummary {
            gc_time: dvfs_trace::TimeDelta::from_secs(1e-10),
            ..dummy_summary(3)
        }
    }

    #[test]
    fn every_bit_flip_of_a_stored_envelope_is_rejected() {
        let dir = std::env::temp_dir().join(format!("depburst-cache-bits-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cache = SimCache::persistent(&dir);
        cache
            .get_or_compute::<_, Infallible>(key_for(9), || Ok(exponent_summary()))
            .expect("ok");
        let stored =
            std::fs::read(cache.entry_path(key_for(9)).expect("persistent")).expect("read");
        let _ = std::fs::remove_dir_all(&dir);
        assert_eq!(decode_entry(key_for(9), &stored), Ok(exponent_summary()));
        for (bit, flipped) in bit_flips(&stored).enumerate() {
            assert!(
                decode_entry(key_for(9), &flipped).is_err(),
                "flip of bit {bit} was served"
            );
        }
    }

    #[test]
    fn every_bit_flip_of_a_journal_line_is_rejected_or_rekeyed() {
        // A checkpoint entry is what a journal line was: the same
        // envelope, now one per file.
        let dir =
            std::env::temp_dir().join(format!("depburst-cache-jbits-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut store = SimCache::persistent(&dir);
        store.begin_checkpoint(true).expect("checkpoint opens");
        store.store(key_for(10), &Arc::new(exponent_summary()));
        let line =
            std::fs::read(store.entry_path(key_for(10)).expect("persistent")).expect("read");
        let _ = std::fs::remove_dir_all(&dir);
        let (key, payload) = open_envelope(&line).expect("intact entry opens");
        assert_eq!(key, key_for(10));
        // The key sits outside the checksum, so a flipped key digit that
        // stays lowercase hex opens under a different key, which no
        // lookup for this point matches. Every other flip is rejected
        // outright.
        let mut rekeyed = 0;
        for (bit, flipped) in bit_flips(&line).enumerate() {
            match open_envelope(&flipped) {
                Err(_) => {}
                Ok((other, same)) => {
                    assert_ne!(other, key, "flip of bit {bit} opened as the original key");
                    assert_eq!(same, payload, "flip of bit {bit} changed the payload");
                    rekeyed += 1;
                }
            }
        }
        let key_digit_flips = key
            .hex()
            .bytes()
            .flat_map(|d| (0..8).map(move |b| d ^ (1 << b)))
            .filter(|c| matches!(c, b'0'..=b'9' | b'a'..=b'f'))
            .count();
        assert_eq!(rekeyed, key_digit_flips, "only key digits can re-key");
    }

    #[test]
    fn exponent_case_flip_is_rejected() {
        // `e` -> `E` is a single bit (0x20). The flipped number parses to
        // the same f64, so a check that re-serialized the parsed summary
        // reproduced the original bytes and served the flipped entry.
        // The stored-byte check rejects it.
        let summary = exponent_summary();
        let summary_json = serde_json::to_string(&summary).expect("serialize");
        let mut flipped = write_envelope(key_for(1), &summary);
        let at = flipped
            .windows(5)
            .position(|w| w == b"1e-10")
            .expect("exponent in payload")
            + 1;
        flipped[at] = b'E';
        let header = flipped.len() - summary_json.len() - 1;
        let payload = &flipped[header..flipped.len() - 1];
        let reparsed: RunSummary = serde_json::from_slice(payload).expect("still parses");
        assert_eq!(reparsed, summary, "the flip does not change the value");
        assert_eq!(
            serde_json::to_string(&reparsed).expect("serialize"),
            summary_json
        );
        let why = open_envelope(&flipped).expect_err("flipped bytes rejected");
        assert!(why.contains("checksum mismatch"), "{why}");
    }

    #[test]
    fn checksum_framing_detects_payload_bit_flips() {
        let dir =
            std::env::temp_dir().join(format!("depburst-cache-flip-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let writer = SimCache::persistent(&dir);
        writer
            .get_or_compute::<_, Infallible>(key_for(12), || Ok(dummy_summary(31)))
            .expect("ok");
        let path = writer.entry_path(key_for(12)).expect("persistent");
        let good = std::fs::read(&path).expect("envelope");
        // Flip one bit inside the payload (past the header fields) such
        // that the envelope still parses: pick a digit of a number after
        // the `"summary":` marker, so the checksum branch (not the
        // schema/key mismatch branch) is the one that must catch it.
        let text = String::from_utf8(good.clone()).expect("utf8");
        let payload_at = text.find("\"summary\":").expect("summary field");
        let pos = payload_at
            + good[payload_at..]
                .iter()
                .position(|b| b.is_ascii_digit())
                .expect("numbers in payload");
        let mut bad = good.clone();
        bad[pos] ^= 0x01; // '0' <-> '1', '2' <-> '3', ... stays a digit
        assert_ne!(bad, good);
        std::fs::write(&path, &bad).expect("corrupt");
        let reader = SimCache::persistent(&dir);
        let served = reader
            .get_or_compute::<_, Infallible>(key_for(12), || Ok(dummy_summary(31)))
            .expect("recomputes");
        assert_eq!(served.gc_count, 31, "served from recompute, not the flipped bytes");
        let stats = reader.stats();
        assert_eq!(stats.disk_hits, 0, "the corrupt envelope must not count as a hit");
        assert_eq!(stats.quarantined, 1);
        assert_eq!(stats.misses, 1);
        assert_eq!(
            std::fs::read(dir.join("quarantine").join(path.file_name().expect("name")))
                .expect("quarantined"),
            bad
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn failed_persist_attempts_are_counted_not_silent() {
        // Make the schema directory path unusable by planting a regular
        // file where the directory should go: every persist must fail.
        let root =
            std::env::temp_dir().join(format!("depburst-cache-ro-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        std::fs::create_dir_all(&root).expect("mkdir");
        std::fs::write(root.join(format!("v{SCHEMA_VERSION}")), b"in the way").expect("plant");
        let cache = SimCache::persistent(&root);
        let s = cache
            .get_or_compute::<_, Infallible>(key_for(6), || Ok(dummy_summary(21)))
            .expect("the experiment itself must not fail");
        assert_eq!(s.gc_count, 21);
        assert_eq!(cache.stats().persist_failures, 1);
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn seed_and_peek_bypass_disk_and_stats() {
        let cache = SimCache::in_memory();
        assert!(cache.peek(key_for(8)).is_none());
        let summary = Arc::new(dummy_summary(5));
        cache.seed(key_for(8), &summary);
        assert_eq!(cache.peek(key_for(8)).expect("seeded").gc_count, 5);
        // First write wins: re-seeding does not replace the entry.
        cache.seed(key_for(8), &Arc::new(dummy_summary(99)));
        assert_eq!(cache.peek(key_for(8)).expect("seeded").gc_count, 5);
        assert_eq!(cache.stats(), CacheStats::default(), "no stats impact");
        // get_or_compute then serves the seeded entry as a memory hit.
        let served = cache
            .get_or_compute::<_, Infallible>(key_for(8), || panic!("must not recompute"))
            .expect("ok");
        assert_eq!(served.gc_count, 5);
        assert_eq!(cache.stats().memory_hits, 1);
    }

    #[test]
    fn quarantine_key_withdraws_the_envelope_and_memo_entry() {
        let dir = std::env::temp_dir().join(format!("depburst-cache-q-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cache = SimCache::persistent(&dir);
        cache
            .get_or_compute::<_, Infallible>(key_for(7), || Ok(dummy_summary(17)))
            .expect("ok");
        let path = cache.entry_path(key_for(7)).expect("persistent");
        assert!(path.exists());
        cache.quarantine_key(key_for(7), "invariant violation [test]");
        assert!(!path.exists(), "envelope moved out of the slot");
        assert!(dir
            .join("quarantine")
            .join(path.file_name().expect("file name"))
            .exists());
        assert!(cache.peek(key_for(7)).is_none(), "memo entry dropped");
        assert_eq!(cache.stats().quarantined, 1);
        // In-memory caches only count the event.
        let mem = SimCache::in_memory();
        mem.quarantine_key(key_for(7), "whatever");
        assert_eq!(mem.stats().quarantined, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn concurrent_same_key_computes_once() {
        use std::sync::atomic::{AtomicU64, Ordering};

        let cache = SimCache::in_memory();
        let computes = AtomicU64::new(0);
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    let s = cache
                        .get_or_compute::<_, Infallible>(key_for(5), || {
                            computes.fetch_add(1, Ordering::SeqCst);
                            // Widen the race window: without in-flight
                            // dedup every thread would land in here.
                            std::thread::sleep(std::time::Duration::from_millis(20));
                            Ok(dummy_summary(13))
                        })
                        .expect("ok");
                    assert_eq!(s.gc_count, 13);
                });
            }
        });
        assert_eq!(computes.load(Ordering::SeqCst), 1, "one computation total");
        let stats = cache.stats();
        assert_eq!(stats.misses, 1);
        assert_eq!(stats.memory_hits, 3);
    }

    #[test]
    fn pre_digested_keys_match_the_direct_form() {
        let mc = MachineConfig::haswell_quad();
        let lu = benchmark("lusearch").expect("exists");
        let bd = bench_digest(lu);
        let md = mc.digest();
        let fd = fault_digest(None);
        assert_eq!(
            sim_key(lu, &mc, None, 0.25, 7),
            sim_key_from_digests(bd, md, fd, 0.25, 7)
        );
        // The inert-injector equivalence holds through the digest form.
        let inert = FaultConfig::none(0);
        assert_eq!(fault_digest(Some(&inert)), fd);
    }

    #[test]
    fn sampled_keys_never_collide_with_exact_or_each_other() {
        let base = key_for(1);
        let cfg = simx::SamplingConfig::default();
        let sampled = base.with_sampling(sampling_digest(&cfg));
        assert_ne!(sampled, base, "sampled result must not shadow the exact one");
        let wider = simx::SamplingConfig {
            measure_fraction: 0.5,
            ..cfg
        };
        assert_ne!(
            base.with_sampling(sampling_digest(&wider)),
            sampled,
            "different region placements are different results"
        );
        assert_eq!(base.with_sampling(sampling_digest(&cfg)), sampled);
        assert_ne!(base.in_namespace("x"), sampled);
    }

    #[test]
    fn keys_separate_benchmarks_and_seeds() {
        let mc = MachineConfig::haswell_quad();
        let lu = benchmark("lusearch").expect("exists");
        let sf = benchmark("sunflow").expect("exists");
        assert_ne!(sim_key(lu, &mc, None, 0.05, 1), sim_key(sf, &mc, None, 0.05, 1));
        assert_ne!(key_for(1), key_for(2));
        assert_eq!(key_for(1), key_for(1));
    }
}
