//! Loading a cache envelope builds no `Value` tree. Under a counting
//! global allocator, opening a persisted envelope and reading its
//! `RunSummary` may allocate at most one buffer per `Vec` of the loaded
//! value (a `Vec` that grows in place counts once), one `String` per
//! thread name and the one `Arc` the trace is shared through, and so no
//! `String` per map key and no buffer per column of the epoch stream.
//! Summarizing a simulated run allocates only that `Arc`: the trace
//! moves into it, whatever its length. The allocator counts per thread,
//! so the tests do not see each other's allocations.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::convert::Infallible;
use std::fs;

use dvfs_trace::DvfsCounters;
use harness::cache::open_envelope;
use harness::{RunResult, RunSummary, SimCache, SimKey};
use simx::RunStats;

struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

// SAFETY: every operation is forwarded unchanged to `System`; the only
// addition is a thread-local counter with a const initializer and no
// destructor, which never allocates itself.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
        // SAFETY: the caller upholds `alloc`'s contract, which `System`
        // shares.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // Growing an allocation is not a new one.
        // SAFETY: `ptr` came from this allocator, which is `System`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, which is `System`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

/// The `Vec`s of a loaded summary: the epochs, each epoch's slices, the
/// markers and the thread table.
fn vecs(summary: &RunSummary) -> u64 {
    let trace = &summary.trace;
    3 + trace.epochs.len() as u64
}

/// The one allocation a summary's shared trace adds: its `Arc`.
const TRACE_ARC: u64 = 1;

fn golden() -> RunSummary {
    let golden = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/goldens/lusearch_1ghz.json"
    );
    let text = fs::read_to_string(golden).expect("golden readable");
    serde_json::from_str(&text).expect("golden parses")
}

#[test]
fn loading_an_envelope_allocates_only_arrays_and_thread_names() {
    let summary = golden();

    // Persist it the way a sweep does, then read the envelope back.
    let dir = std::env::temp_dir().join(format!("depburst-load-allocs-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    let key = SimKey(0x5eed);
    SimCache::persistent(&dir)
        .get_or_compute::<_, Infallible>(key, || Ok(summary.clone()))
        .expect("stores");
    let entry = fs::read_dir(dir.join(format!("v{}", harness::cache::SCHEMA_VERSION)))
        .expect("schema dir")
        .map(|e| e.expect("dir entry").path())
        .find(|p| p.extension().is_some_and(|x| x == "json"))
        .expect("an envelope was written");
    let bytes = fs::read(&entry).expect("envelope readable");
    fs::remove_dir_all(&dir).expect("temp dir removed");

    let bound = vecs(&summary) + summary.trace.threads.len() as u64 + TRACE_ARC;
    assert_eq!(bound, 236, "the bound of the lusearch golden");
    let slices: usize = summary.trace.epochs.iter().map(|e| e.threads.len()).sum();

    let before = allocs();
    let (opened_key, payload) = open_envelope(&bytes).expect("opens");
    let loaded: RunSummary = serde_json::from_slice(payload).expect("loads");
    let made = allocs() - before;

    assert_eq!(opened_key, key);
    assert_eq!(
        serde_json::to_string(&loaded).expect("serializes"),
        serde_json::to_string(&summary).expect("serializes"),
        "the load must be bit-identical"
    );
    assert!(
        made <= bound,
        "loading one envelope made {made} allocations; at most {bound} allowed \
         (one per Vec of the summary, one per thread name and the trace's Arc) \
         for {slices} thread slices"
    );
}

#[test]
fn summarizing_a_run_allocates_only_the_trace_arc() {
    let trace = &golden().trace;
    let mut stats = RunStats::default();
    for info in &trace.threads {
        stats.thread_counters.insert(info.id, DvfsCounters::default());
    }
    for epochs in [10, 1_000] {
        let mut owned = (**trace).clone();
        owned.epochs = trace.epochs.iter().cycle().take(epochs).cloned().collect();
        let result = RunResult {
            exec: trace.total,
            gc_time: trace.gc_time(),
            gc_count: 1,
            allocated: 1,
            trace: owned,
            stats: stats.clone(),
        };

        let before = allocs();
        let summary = result.summarize();
        let made = allocs() - before;

        assert_eq!(summary.trace.epochs.len(), epochs);
        assert_eq!(
            made, TRACE_ARC,
            "summarizing a run of {epochs} epochs made {made} allocations; \
             only the trace's Arc is allowed"
        );
    }
}
