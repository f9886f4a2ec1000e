//! A fleet round allocates only for real events. Under a counting global
//! allocator, the allocations of rounds R..2R are the difference between
//! a 2R-round and an R-round run of one config: the chaos schedule's
//! first R rounds do not depend on the horizon, and neither does set-up.
//! Past what the new transitions account for (a log's first entry and
//! its row's copy; logs grow in place and the report holds no string per
//! transition), that difference must be zero, at one region and at
//! sixteen alike. This file holds a single test: the allocator counts
//! per thread, but it is global to the test binary.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use harness::experiments::fleet::{self, FleetConfig, FleetReport};
use harness::fuzz::fleet_profile;
use simx::fleet::ChaosConfig;
use simx::ThermalConfig;

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

const MACHINES: usize = 1024;
const R: usize = 12;

/// Allocations per round allowed past the transitions' own.
const PER_ROUND: u64 = 0;

/// A hierarchical thermal fleet under every chaos class.
fn config(regions: usize, rounds: usize) -> FleetConfig {
    let mut config = FleetConfig::new(MACHINES, 4, rounds, 0.02, 1);
    config.regions = regions;
    config.hierarchy = true;
    config.thermal = ThermalConfig::datacenter(7);
    config.chaos = ChaosConfig {
        sensor_stuck: 0.3,
        aggregator_crash: 0.3,
        brownout: 0.4,
        ..ChaosConfig::uniform(0.5, 7)
    };
    config
}

/// The allocations the report's transition logs account for: per
/// non-empty log, its first entry on the machine's ladder and its row's
/// copy. A log grows by reallocating, which is not a new allocation.
fn transition_allocs(report: &FleetReport) -> u64 {
    logs(report).map(|n| if n > 0 { 2 } else { 0 }).sum()
}

/// The length of every transition log of the report.
fn logs(report: &FleetReport) -> impl Iterator<Item = usize> + '_ {
    report
        .machines
        .iter()
        .flat_map(|r| [r.transitions.len(), r.thermal_transitions.len()])
}

/// A run's allocations, how many of them its transition logs account
/// for, and its transitions.
fn run(regions: usize, rounds: usize) -> (u64, u64, usize) {
    let params: Vec<_> = (0..4).map(fleet_profile).collect();
    let config = config(regions, rounds);
    let before = ALLOCS.with(Cell::get);
    let report = fleet::run_synthetic(&config, &params).expect("fleet runs clean");
    let made = ALLOCS.with(Cell::get) - before;
    (made, transition_allocs(&report), logs(&report).sum())
}

#[test]
fn rounds_allocate_only_for_transitions_at_any_region_count() {
    for regions in [1, 16] {
        let (short, short_logged, short_transitions) = run(regions, R);
        let (long, long_logged, long_transitions) = run(regions, 2 * R);
        let logged = long_logged - short_logged;
        assert!(
            long_transitions > short_transitions,
            "the chaos must record transitions for the test to bite"
        );
        let made = long - short;
        let per_round = made.saturating_sub(logged) as f64 / R as f64;
        assert!(
            made <= logged + PER_ROUND * R as u64,
            "{regions} region(s): rounds {R}..{} made {made} allocations, {logged} of them \
             for transitions: {per_round:.1} per round, {PER_ROUND} allowed",
            2 * R,
        );
    }
}
