//! Writing JSON builds no `Value` tree. Under a counting global
//! allocator, `serde_json::to_string` of a `RunSummary` (the payload of
//! every cache envelope) allocates only its output `String`, whose growth
//! reallocates in place and is not counted: a small constant whatever the
//! trace's epoch count. A whole envelope write through a persistent
//! store likewise allocates a constant, and holds one payload-sized
//! buffer, never a second copy. Rendering a fleet report allocates a
//! count independent of its transition count, since each transition is
//! formatted straight into the output. This file holds a single test: the
//! allocator counts per thread, but it is global to the test binary.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

use harness::experiments::fleet::{self, FleetConfig};
use harness::fuzz::fleet_profile;
use harness::{RunSummary, SimCache, SimKey};
use serde::Serialize;
use simx::fleet::ChaosConfig;
use simx::ThermalConfig;

struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    /// Allocations of at least this many bytes are payload-sized.
    static LARGE: Cell<usize> = const { Cell::new(usize::MAX) };
    /// Payload-sized allocations alive now, and at most so far.
    static LIVE_LARGE: Cell<u64> = const { Cell::new(0) };
    static PEAK_LARGE: Cell<u64> = const { Cell::new(0) };
}

/// Tracks an allocation resized from `old` to `new` bytes (0: none).
fn resized(old: usize, new: usize) {
    let _ = LARGE.try_with(|large| {
        let (was, is) = (old >= large.get(), new >= large.get());
        LIVE_LARGE.with(|live| match (was, is) {
            (false, true) => {
                live.set(live.get() + 1);
                PEAK_LARGE.with(|peak| peak.set(peak.get().max(live.get())));
            }
            (true, false) => live.set(live.get().saturating_sub(1)),
            _ => {}
        });
    });
}

// SAFETY: every operation is forwarded unchanged to `System`; the only
// additions are thread-local counters with const initializers and no
// destructors, which never allocate themselves.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
        resized(0, layout.size());
        // SAFETY: the caller upholds `alloc`'s contract, which `System`
        // shares.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
        resized(0, layout.size());
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // Growing an allocation is not a new one.
        resized(layout.size(), new_size);
        // SAFETY: `ptr` came from this allocator, which is `System`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        resized(layout.size(), 0);
        // SAFETY: `ptr` came from this allocator, which is `System`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations a write may make: its output buffer.
const OUTPUT: u64 = 1;

/// The allocations of writing `v` compact and pretty, and the bytes
/// written.
fn write_allocs<T: Serialize>(v: &T) -> (u64, u64, usize) {
    let before = ALLOCS.with(Cell::get);
    let compact = serde_json::to_string(v).expect("serializes");
    let mid = ALLOCS.with(Cell::get);
    let pretty = serde_json::to_string_pretty(v).expect("serializes");
    let after = ALLOCS.with(Cell::get);
    (mid - before, after - mid, compact.len() + pretty.len())
}

/// Stores `summary` under `key` in a fresh persistent store at `dir`:
/// the allocations of the whole envelope write, and how many
/// allocations of at least half the payload's size were alive at once.
fn envelope_allocs(dir: &std::path::Path, key: SimKey, summary: &RunSummary) -> (u64, u64) {
    let payload = serde_json::to_string(summary).expect("serializes").len();
    let _ = std::fs::remove_dir_all(dir);
    let store = SimCache::persistent(dir);
    let summary = Arc::new(summary.clone());
    LARGE.with(|large| large.set(payload / 2));
    LIVE_LARGE.with(|live| live.set(0));
    PEAK_LARGE.with(|peak| peak.set(0));
    let before = ALLOCS.with(Cell::get);
    store.store(key, &summary);
    let allocs = ALLOCS.with(Cell::get) - before;
    LARGE.with(|large| large.set(usize::MAX));
    assert_eq!(store.stats().persist_failures, 0, "the envelope was written");
    let _ = std::fs::remove_dir_all(dir);
    (allocs, PEAK_LARGE.with(Cell::get))
}

#[test]
fn writes_allocate_only_their_output() {
    let golden = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/goldens/lusearch_1ghz.json"
    );
    let text = std::fs::read_to_string(golden).expect("golden readable");
    let summary: RunSummary = serde_json::from_str(&text).expect("golden parses");
    let epochs = summary.trace.epochs.len();
    assert!(
        epochs > 100,
        "the golden must have a trace for the test to bite"
    );
    let mut short = summary.clone();
    short.trace.epochs.truncate(epochs / 10);
    for (what, s) in [("golden summary", &summary), ("tenth of it", &short)] {
        let (compact, pretty, _) = write_allocs(s);
        assert!(
            compact <= OUTPUT && pretty <= OUTPUT,
            "writing the {what} ({} epochs) made {compact} compact and {pretty} pretty \
             allocations; {OUTPUT} allowed, for the output",
            s.trace.epochs.len()
        );
    }

    // A whole envelope write: one buffer of payload size, and the same
    // allocations for a tenth of the trace as for all of it.
    let dir = std::env::temp_dir().join(format!("depburst-store-allocs-{}", std::process::id()));
    let (whole, whole_buffers) = envelope_allocs(&dir.join("a"), SimKey(1), &summary);
    let (tenth, tenth_buffers) = envelope_allocs(&dir.join("b"), SimKey(2), &short);
    assert_eq!(
        (whole_buffers, tenth_buffers),
        (1, 1),
        "an envelope write held {whole_buffers} (whole trace) and {tenth_buffers} (a tenth) \
         payload-sized buffers at once; one allowed"
    );
    assert_eq!(
        whole, tenth,
        "an envelope write made {whole} allocations for {epochs} epochs and {tenth} for a tenth"
    );
    let _ = std::fs::remove_dir_all(&dir);

    // Two thermal fleets whose transition logs differ several-fold.
    let params: Vec<_> = (0..4).map(fleet_profile).collect();
    let report = |rounds: usize| {
        let mut config = FleetConfig::new(32, 4, rounds, 0.02, 1);
        config.regions = 4;
        config.hierarchy = true;
        config.thermal = ThermalConfig::datacenter(7);
        config.chaos = ChaosConfig {
            sensor_stuck: 0.3,
            aggregator_crash: 0.3,
            brownout: 0.4,
            ..ChaosConfig::uniform(0.5, 7)
        };
        fleet::run_synthetic(&config, &params).expect("fleet runs clean")
    };
    let transitions = |r: &fleet::FleetReport| -> usize {
        r.machines
            .iter()
            .map(|m| m.transitions.len() + m.thermal_transitions.len())
            .sum()
    };
    let (few, many) = (report(20), report(160));
    assert!(
        transitions(&many) > 2 * transitions(&few) && transitions(&few) > 0,
        "the fleets must differ in transitions for the test to bite: {} vs {}",
        transitions(&few),
        transitions(&many)
    );
    for (what, r) in [("short fleet", &few), ("long fleet", &many)] {
        let (compact, pretty, bytes) = write_allocs(r);
        assert!(
            compact <= OUTPUT && pretty <= OUTPUT,
            "rendering the {what} report ({} transitions, {bytes} bytes) made {compact} \
             compact and {pretty} pretty allocations; {OUTPUT} allowed, for the output",
            transitions(r)
        );
    }
}
