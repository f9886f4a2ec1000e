//! One `Dep::predict` allocates a fixed number of times, however many
//! epochs the trace holds: the delta counters and the per-epoch splits
//! live in buffers made once per call. Under a counting global allocator,
//! a 1 000-epoch trace must allocate exactly as often as a 10-epoch trace
//! over the same threads. The same holds for `predict_many` of DEP, COOP
//! and M+CRIT at 1 and at 25 targets. The allocator counts per thread, so
//! the tests do not see each other's allocations.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use depburst::{Coop, CtpMode, Dep, DvfsPredictor, MCrit, NonScalingModel};
use dvfs_trace::{
    DvfsCounters, EpochEnd, EpochRecord, ExecutionTrace, Freq, FreqLadder, ThreadId, ThreadInfo,
    ThreadRole, ThreadSlice, Time, TimeDelta,
};

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
        let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
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

/// `epochs` epochs of 10 µs over four threads: each epoch runs three of
/// them (rotating) and ends with one of them stalling.
fn trace(epochs: usize) -> ExecutionTrace {
    let duration = TimeDelta::from_micros(10.0);
    let records = (0..epochs)
        .map(|i| EpochRecord {
            start: Time::from_secs(i as f64 * 10e-6),
            duration,
            threads: (0..3)
                .map(|k| ThreadSlice {
                    thread: ThreadId(((i + k) % 4) as u32),
                    counters: DvfsCounters {
                        active: duration * (0.5 + 0.1 * k as f64),
                        crit: duration * 0.2,
                        sq_full: duration * 0.05,
                        ..DvfsCounters::zero()
                    },
                })
                .collect(),
            end: EpochEnd::Stall(ThreadId((i % 4) as u32)),
        })
        .collect();
    ExecutionTrace {
        base: Freq::from_ghz(4.0),
        start: Time::ZERO,
        total: duration * epochs as f64,
        epochs: records,
        markers: vec![],
        threads: (0..4)
            .map(|t| ThreadInfo {
                id: ThreadId(t),
                role: ThreadRole::Application,
                name: format!("t{t}"),
                spawn: Time::ZERO,
                exit: None,
            })
            .collect(),
    }
}

fn predict_allocs(dep: Dep, trace: &ExecutionTrace) -> u64 {
    let before = allocs();
    let predicted = dep.predict(trace, Freq::from_ghz(2.0));
    let n = allocs() - before;
    assert!(predicted > TimeDelta::ZERO);
    n
}

#[test]
fn dep_predict_allocates_independently_of_the_epoch_count() {
    let (short, long) = (trace(10), trace(1_000));
    for ctp in [CtpMode::AcrossEpoch, CtpMode::PerEpoch] {
        let dep = Dep::new(NonScalingModel::Crit, true, ctp);
        let (few, many) = (predict_allocs(dep, &short), predict_allocs(dep, &long));
        assert_eq!(
            few, many,
            "{ctp:?}: 10 epochs {few} allocations, 1000 epochs {many}"
        );
        assert!(many <= 4, "{ctp:?}: {many} allocations for one prediction");
    }
}

fn predict_many_allocs(model: &dyn DvfsPredictor, trace: &ExecutionTrace, targets: &[Freq]) -> u64 {
    let mut out = Vec::new();
    let before = allocs();
    model.predict_many(trace, targets, &mut out);
    let n = allocs() - before;
    assert_eq!(out.len(), targets.len());
    assert!(out.iter().all(|&p| p > TimeDelta::ZERO));
    n
}

#[test]
fn predict_many_allocates_independently_of_the_epoch_count() {
    let (short, long) = (trace(10), trace(1_000));
    let ladder: Vec<Freq> = FreqLadder::paper_default().iter().collect();
    assert_eq!(ladder.len(), 25);
    let models: [Box<dyn DvfsPredictor>; 4] = [
        Box::new(Dep::new(NonScalingModel::Crit, true, CtpMode::AcrossEpoch)),
        Box::new(Dep::new(NonScalingModel::Crit, true, CtpMode::PerEpoch)),
        Box::new(Coop::new(NonScalingModel::Crit, true)),
        Box::new(MCrit::new(NonScalingModel::Crit, true)),
    ];
    for model in &models {
        for targets in [&ladder[..1], &ladder[..]] {
            let few = predict_many_allocs(model.as_ref(), &short, targets);
            let many = predict_many_allocs(model.as_ref(), &long, targets);
            assert_eq!(
                few,
                many,
                "{} at {} targets: 10 epochs {few} allocations, 1000 epochs {many}",
                model.name(),
                targets.len()
            );
        }
    }
}
