//! A hand-rolled work-stealing thread pool for experiment sweeps.
//!
//! The vendored dependency shims are no-ops, so there is no `rayon` here —
//! just `std::thread::scope`. Each worker owns a deque of item indices,
//! pops from its own front, and steals from a victim's back when it runs
//! dry. Results land in per-index slots, so the output order is always the
//! input order regardless of which worker finished what when — the
//! determinism contract every experiment report relies on.
//!
//! With `jobs <= 1` (or a single item) no threads are spawned at all and
//! the items are mapped in place, reproducing the historical sequential
//! runner exactly.
//!
//! Panic isolation: every item runs under `catch_unwind`, so one
//! panicking item can neither kill its worker (which would strand the
//! rest of that worker's queue) nor poison the result slots. [`try_map`]
//! surfaces each item's panic as an `Err` payload; [`map`] completes
//! every item first and only then re-raises the earliest panic.

use std::any::Any;
use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// The opaque payload of a caught panic (what `std::panic::catch_unwind`
/// yields), carried per item by [`try_map`].
pub type PanicPayload = Box<dyn Any + Send>;

/// Renders a panic payload the way the default panic hook would: the
/// `&str` or `String` message when there is one, a placeholder otherwise.
#[must_use]
pub fn panic_message(payload: &PanicPayload) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "panic with a non-string payload".to_owned()
    }
}

/// The number of workers to use when the caller does not say: the
/// machine's available parallelism (1 if it cannot be determined).
#[must_use]
pub fn default_jobs() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// Resolves a jobs request: `Some(n)` is clamped to at least 1, `None`
/// falls back to the `DEPBURST_JOBS` environment variable and then to
/// [`default_jobs`].
#[must_use]
pub fn resolve_jobs(requested: Option<usize>) -> usize {
    match requested {
        Some(n) => n.max(1),
        None => std::env::var("DEPBURST_JOBS")
            .ok()
            .and_then(|v| v.trim().parse::<usize>().ok())
            .map_or_else(default_jobs, |n| n.max(1)),
    }
}

/// Maps `f` over `items` on up to `jobs` workers, returning the results
/// in input order. `f` must be a pure function of its item (it runs once
/// per item, on an arbitrary worker).
///
/// # Panics
/// If `f` panics for any item, every *other* item still completes and the
/// earliest (lowest-index) panic is then re-raised on the calling thread
/// — a panicking point no longer strands the rest of the sweep in an
/// undefined half-run state. Callers that want panics as data use
/// [`try_map`].
pub fn map<T, R, F>(items: Vec<T>, jobs: usize, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    let mut out = Vec::with_capacity(items.len());
    for outcome in try_map(items, jobs, f) {
        match outcome {
            Ok(r) => out.push(r),
            Err(payload) => resume_unwind(payload),
        }
    }
    out
}

/// Runs `f` on every item in place, on up to `jobs` workers that each
/// take one contiguous run of items. For state updated round after round
/// (the fleet's shards): nothing moves, and with `jobs <= 1` (or a single
/// item) nothing is spawned or allocated. `f` must depend only on its
/// item and what it captures immutably, so every split of the items gives
/// the same result.
///
/// # Panics
/// If `f` panics: the sequential path stops at that item; the parallel
/// path lets every run finish, then re-raises the earliest run's panic.
pub fn for_each_mut<T, F>(items: &mut [T], jobs: usize, f: F)
where
    T: Send,
    F: Fn(&mut T) + Sync,
{
    if jobs <= 1 || items.len() <= 1 {
        items.iter_mut().for_each(f);
        return;
    }
    let run = items.len().div_ceil(jobs.min(items.len()));
    let f = &f;
    let outcomes: Vec<std::thread::Result<()>> = std::thread::scope(|scope| {
        let runs: Vec<_> = items
            .chunks_mut(run)
            .map(|chunk| scope.spawn(move || chunk.iter_mut().for_each(f)))
            .collect();
        runs.into_iter().map(|worker| worker.join()).collect()
    });
    for outcome in outcomes {
        if let Err(payload) = outcome {
            resume_unwind(payload);
        }
    }
}

/// Like [`map`], but panic-isolated: each item's result arrives as
/// `Ok(r)` or `Err(payload)` when `f` panicked on it. All items run to
/// completion regardless of how many panic.
pub fn try_map<T, R, F>(items: Vec<T>, jobs: usize, f: F) -> Vec<Result<R, PanicPayload>>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    let n = items.len();
    if jobs <= 1 || n <= 1 {
        return items
            .into_iter()
            .map(|item| catch_unwind(AssertUnwindSafe(|| f(item))))
            .collect();
    }
    let workers = jobs.min(n);

    // Item and result slots, indexed by input position.
    let slots: Vec<Mutex<Option<T>>> = items.into_iter().map(|t| Mutex::new(Some(t))).collect();
    let results: Vec<Mutex<Option<Result<R, PanicPayload>>>> =
        (0..n).map(|_| Mutex::new(None)).collect();
    let completed = AtomicUsize::new(0);

    // Deal indices round-robin so neighbouring (similar-cost) points
    // spread across workers.
    let queues: Vec<Mutex<VecDeque<usize>>> = (0..workers)
        .map(|w| Mutex::new((w..n).step_by(workers).collect()))
        .collect();

    std::thread::scope(|scope| {
        for w in 0..workers {
            let queues = &queues;
            let slots = &slots;
            let results = &results;
            let completed = &completed;
            let f = &f;
            scope.spawn(move || loop {
                // Own queue first (front), then steal from victims (back).
                let mut idx = queues[w].lock().expect("queue lock").pop_front();
                if idx.is_none() {
                    for v in 1..workers {
                        let victim = (w + v) % workers;
                        idx = queues[victim].lock().expect("queue lock").pop_back();
                        if idx.is_some() {
                            break;
                        }
                    }
                }
                match idx {
                    Some(i) => {
                        let item = slots[i]
                            .lock()
                            .expect("slot lock")
                            .take()
                            .expect("item taken once");
                        // AssertUnwindSafe: `f` is shared by reference and
                        // a panicking call's partial effects stay behind
                        // the caller's own synchronization (the slot/result
                        // mutexes themselves are never held across `f`).
                        let r = catch_unwind(AssertUnwindSafe(|| f(item)));
                        *results[i].lock().expect("result lock") = Some(r);
                        completed.fetch_add(1, Ordering::SeqCst);
                    }
                    None => {
                        if completed.load(Ordering::SeqCst) >= n {
                            break;
                        }
                        // Another worker still holds in-flight items that
                        // cannot be stolen; wait for it to finish or to
                        // push nothing more.
                        std::thread::yield_now();
                    }
                }
            });
        }
    });

    results
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("result lock")
                .expect("every index completed")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sequential_and_parallel_agree_in_order() {
        let items: Vec<u64> = (0..57).collect();
        let seq = map(items.clone(), 1, |x| x * x + 1);
        for jobs in [2, 4, 9] {
            let par = map(items.clone(), jobs, |x| x * x + 1);
            assert_eq!(seq, par, "jobs={jobs}");
        }
    }

    #[test]
    fn for_each_mut_matches_sequential_for_every_split() {
        let reference: Vec<u64> = (0..23).map(|x| x * 3 + 1).collect();
        for jobs in [1, 2, 4, 23, 40] {
            let mut items: Vec<u64> = (0..23).collect();
            for_each_mut(&mut items, jobs, |x| *x = *x * 3 + 1);
            assert_eq!(items, reference, "jobs={jobs}");
        }
        let mut none: Vec<u64> = Vec::new();
        for_each_mut(&mut none, 4, |x| *x += 1);
        assert!(none.is_empty());
    }

    #[test]
    fn for_each_mut_finishes_every_run_then_reraises() {
        let mut items: Vec<u32> = (0..8).collect();
        let caught = catch_unwind(AssertUnwindSafe(|| {
            for_each_mut(&mut items, 4, |x| {
                if *x == 1 {
                    panic!("item one");
                }
                *x += 100;
            });
        }))
        .expect_err("the panic propagates");
        assert_eq!(panic_message(&caught), "item one");
        // Runs of two: the panicking run stops at its item, the others
        // complete.
        assert_eq!(items, vec![100, 1, 102, 103, 104, 105, 106, 107]);
    }

    #[test]
    fn handles_empty_and_single() {
        assert_eq!(map(Vec::<u32>::new(), 4, |x| x), Vec::<u32>::new());
        assert_eq!(map(vec![7], 4, |x| x + 1), vec![8]);
    }

    #[test]
    fn more_workers_than_items() {
        let out = map(vec![1, 2, 3], 16, |x| x * 10);
        assert_eq!(out, vec![10, 20, 30]);
    }

    #[test]
    fn uneven_work_still_ordered() {
        // Make early items slow so stealing actually happens.
        let items: Vec<u64> = (0..32).collect();
        let out = map(items, 4, |x| {
            if x < 4 {
                std::thread::sleep(std::time::Duration::from_millis(5));
            }
            x
        });
        assert_eq!(out, (0..32).collect::<Vec<_>>());
    }

    #[test]
    fn resolve_jobs_clamps_and_defaults() {
        assert_eq!(resolve_jobs(Some(0)), 1);
        assert_eq!(resolve_jobs(Some(3)), 3);
        assert!(resolve_jobs(None) >= 1);
    }

    #[test]
    fn try_map_isolates_panics_per_item() {
        for jobs in [1, 4] {
            let outcomes = try_map((0u64..16).collect(), jobs, |x| {
                assert!(x != 5 && x != 11, "boom at {x}");
                x * 2
            });
            assert_eq!(outcomes.len(), 16, "jobs={jobs}: all items complete");
            for (i, outcome) in outcomes.iter().enumerate() {
                match outcome {
                    Ok(r) => assert_eq!(*r, i as u64 * 2),
                    Err(payload) => {
                        assert!(i == 5 || i == 11);
                        assert!(panic_message(payload).contains("boom"));
                    }
                }
            }
        }
    }

    #[test]
    fn map_completes_everything_before_reraising() {
        use std::sync::atomic::AtomicUsize;
        let ran = AtomicUsize::new(0);
        let caught = catch_unwind(AssertUnwindSafe(|| {
            map((0u64..16).collect(), 4, |x| {
                ran.fetch_add(1, Ordering::SeqCst);
                assert_ne!(x, 3, "dead point");
                x
            })
        }));
        assert!(caught.is_err(), "the panic still surfaces");
        assert_eq!(
            ran.load(Ordering::SeqCst),
            16,
            "a panicking item must not strand the others"
        );
    }

    #[test]
    fn panic_message_renders_common_payloads() {
        let s = catch_unwind(|| panic!("plain &str")).unwrap_err();
        assert_eq!(panic_message(&s), "plain &str");
        let owned = catch_unwind(|| panic!("value {}", 42)).unwrap_err();
        assert_eq!(panic_message(&owned), "value 42");
    }
}
