//! Loading a cache envelope builds no `Value` tree. Under a counting
//! global allocator, opening a persisted envelope and reading its
//! `RunSummary` may allocate at most one buffer per `Vec` of the loaded
//! value (a `Vec` that grows in place counts once) plus one `String` per
//! thread name, and so no `String` per map key and no buffer per column
//! of the epoch stream. This file holds a single test: the allocator
//! counts per thread, but it is global to the test binary.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::fs;

use harness::cache::open_envelope;
use harness::{RunSummary, SimCache, SimKey};

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

#[test]
fn loading_an_envelope_allocates_only_arrays_and_thread_names() {
    let golden = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/goldens/lusearch_1ghz.json"
    );
    let text = fs::read_to_string(golden).expect("golden readable");
    let summary: RunSummary = serde_json::from_str(&text).expect("golden parses");

    // Persist it the way a sweep does, then read the envelope back.
    let dir = std::env::temp_dir().join(format!("depburst-load-allocs-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    let key = SimKey(0x5eed);
    SimCache::persistent(&dir)
        .get_or_compute(key, || Ok(summary.clone()))
        .expect("stores");
    let entry = fs::read_dir(dir.join(format!("v{}", harness::cache::SCHEMA_VERSION)))
        .expect("schema dir")
        .map(|e| e.expect("dir entry").path())
        .find(|p| p.extension().is_some_and(|x| x == "json"))
        .expect("an envelope was written");
    let bytes = fs::read(&entry).expect("envelope readable");
    fs::remove_dir_all(&dir).expect("temp dir removed");

    let bound = vecs(&summary) + summary.trace.threads.len() as u64;
    assert_eq!(bound, 235, "the bound of the lusearch golden");
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
         (one per Vec of the summary plus one per thread name) for {slices} thread slices"
    );
}
