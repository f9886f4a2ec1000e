//! Host-time spans recorded by the traced run around calls into each
//! layer's public functions, their self-time analysis, and their export
//! as Chrome trace-event JSON (opens in Perfetto).
//!
//! A span has a name (`<layer>.<what>`), a start and end on one clock, the
//! span that caused it, and the lane of the thread that ran it. Spans nest
//! per thread through a thread-local stack; work handed to the pool adopts
//! the span that dispatched it as its parent ([`Recorder::adopt`]). The
//! recorder only observes: the traced code computes exactly what the timed
//! code computes, which each traced run checks by comparing output digests.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One closed span. Times are nanoseconds since the recorder's creation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Unique within its recorder.
    pub id: u64,
    /// The enclosing span, if any.
    pub parent: Option<u64>,
    /// `<layer>.<what>`; the layer is the text before the first dot.
    pub name: &'static str,
    /// Display track: 0 for the first recording thread, then one per
    /// concurrently live pool thread.
    pub lane: usize,
    /// Start, ns.
    pub start: u64,
    /// End, ns.
    pub end: u64,
}

impl Span {
    /// The layer this span belongs to.
    #[must_use]
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }

    /// Duration, ns.
    #[must_use]
    pub fn dur(&self) -> u64 {
        self.end - self.start
    }
}

/// Collects spans and named counters from any number of threads.
#[derive(Debug)]
pub struct Recorder {
    origin: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
    counters: Mutex<BTreeMap<&'static str, f64>>,
}

thread_local! {
    /// Open spans of this thread, innermost last.
    static STACK: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
    /// This thread's display lane, assigned on its first span.
    static LANE: LaneSlot = const { LaneSlot(Cell::new(None)) };
}

/// Lanes of threads that have exited, for reuse: the pool spawns fresh
/// threads per map, and a trace with one track per thread ever spawned
/// would be unreadable.
static FREE_LANES: Mutex<Vec<usize>> = Mutex::new(Vec::new());
static NEXT_LANE: AtomicUsize = AtomicUsize::new(0);

struct LaneSlot(Cell<Option<usize>>);

impl Drop for LaneSlot {
    fn drop(&mut self) {
        if let (Some(lane), Ok(mut free)) = (self.0.get(), FREE_LANES.lock()) {
            free.push(lane);
        }
    }
}

fn lane() -> usize {
    LANE.with(|slot| {
        if let Some(lane) = slot.0.get() {
            return lane;
        }
        let reused = FREE_LANES.lock().ok().and_then(|mut free| {
            free.sort_unstable();
            (!free.is_empty()).then(|| free.remove(0))
        });
        let lane = reused.unwrap_or_else(|| NEXT_LANE.fetch_add(1, Ordering::Relaxed));
        slot.0.set(Some(lane));
        lane
    })
}

/// A span that has been opened and not yet closed.
#[derive(Debug)]
#[must_use = "an open span records nothing until closed"]
pub struct Open {
    id: u64,
    parent: Option<u64>,
    start: u64,
}

impl Open {
    /// The id the span will close under.
    #[must_use]
    pub fn id(&self) -> u64 {
        self.id
    }
}

impl Default for Recorder {
    fn default() -> Self {
        Self::new()
    }
}

impl Recorder {
    /// An empty recorder whose clock starts now.
    #[must_use]
    pub fn new() -> Self {
        Recorder {
            origin: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
            counters: Mutex::new(BTreeMap::new()),
        }
    }

    fn now(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span under this thread's innermost open span.
    pub fn open(&self) -> Open {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let parent = STACK.with(|s| {
            let mut s = s.borrow_mut();
            let parent = s.last().copied();
            s.push(id);
            parent
        });
        Open {
            id,
            parent,
            start: self.now(),
        }
    }

    /// Closes `open` under `name` (chosen at close, so a span can be named
    /// by what the call turned out to do).
    pub fn close(&self, open: Open, name: &'static str) {
        let end = self.now();
        STACK.with(|s| {
            let mut s = s.borrow_mut();
            debug_assert_eq!(s.last(), Some(&open.id), "spans close innermost first");
            s.pop();
        });
        let span = Span {
            id: open.id,
            parent: open.parent,
            name,
            lane: lane(),
            start: open.start,
            end,
        };
        self.spans.lock().expect("span list lock").push(span);
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<R>(&self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let open = self.open();
        let out = f();
        self.close(open, name);
        out
    }

    /// The innermost span open on this thread.
    #[must_use]
    pub fn current(&self) -> Option<u64> {
        STACK.with(|s| s.borrow().last().copied())
    }

    /// Runs `f` on this (pool) thread as if `parent` were open here, so
    /// spans `f` opens attach to the span that dispatched the work.
    pub fn adopt<R>(&self, parent: Option<u64>, f: impl FnOnce() -> R) -> R {
        let Some(parent) = parent else { return f() };
        STACK.with(|s| s.borrow_mut().push(parent));
        let out = f();
        STACK.with(|s| {
            let popped = s.borrow_mut().pop();
            debug_assert_eq!(popped, Some(parent));
        });
        out
    }

    /// Adds `by` to the counter `name`.
    pub fn count(&self, name: &'static str, by: f64) {
        *self
            .counters
            .lock()
            .expect("counter lock")
            .entry(name)
            .or_insert(0.0) += by;
    }

    /// Sets the counter `name` to `value` (for results of a whole pass,
    /// such as an output's accuracy, that must not add up).
    pub fn set(&self, name: &'static str, value: f64) {
        self.counters
            .lock()
            .expect("counter lock")
            .insert(name, value);
    }

    /// A counter's value (0 when never counted).
    #[must_use]
    pub fn counter(&self, name: &str) -> f64 {
        self.counters
            .lock()
            .expect("counter lock")
            .get(name)
            .copied()
            .unwrap_or(0.0)
    }

    /// The spans closed so far, in closing order.
    #[must_use]
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span list lock").clone()
    }
}

/// Total length of the union of `intervals`.
fn union_len(mut intervals: Vec<(u64, u64)>) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut cur: Option<(u64, u64)> = None;
    for (s, e) in intervals {
        match cur {
            Some((cs, ce)) if s <= ce => cur = Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                cur = Some((s, e));
            }
            None => cur = Some((s, e)),
        }
    }
    total + cur.map_or(0, |(s, e)| e - s)
}

/// Per-span self time, ns, keyed by span id: the span's duration minus the
/// part of its interval its children cover. Children on other threads may
/// overlap each other; the union is subtracted once.
#[must_use]
pub fn self_times(spans: &[Span]) -> BTreeMap<u64, u64> {
    let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start, s.end));
        }
    }
    spans
        .iter()
        .map(|s| {
            let covered = children.get(&s.id).map_or(0, |kids| {
                union_len(
                    kids.iter()
                        .map(|&(a, b)| (a.max(s.start), b.min(s.end)))
                        .filter(|(a, b)| a < b)
                        .collect(),
                )
            });
            (s.id, s.dur().saturating_sub(covered))
        })
        .collect()
}

/// Per-name aggregates of a span set.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct NameTotals {
    /// Spans with this name.
    pub count: u64,
    /// Summed durations, s.
    pub inclusive_s: f64,
    /// Summed self times, s.
    pub self_s: f64,
}

/// The analysis the per-layer metrics are computed from.
#[derive(Debug, Clone, Default)]
pub struct Profile {
    /// Per span name.
    pub by_name: BTreeMap<&'static str, NameTotals>,
    /// Summed self time over every span, s: the denominator of the
    /// `.pct` shares (it exceeds wall time when pool threads run in
    /// parallel).
    pub total_self_s: f64,
    /// Share of `root`'s wall time during which some span outside the
    /// `bench` layer was open on any thread.
    pub coverage: f64,
}

impl Profile {
    /// Analyzes `spans`, whose outermost span is `root`.
    #[must_use]
    pub fn of(spans: &[Span], root: u64) -> Self {
        let selfs = self_times(spans);
        let mut by_name: BTreeMap<&'static str, NameTotals> = BTreeMap::new();
        for s in spans {
            let t = by_name.entry(s.name).or_default();
            t.count += 1;
            t.inclusive_s += s.dur() as f64 * 1e-9;
            t.self_s += selfs[&s.id] as f64 * 1e-9;
        }
        let total_self_s = selfs.values().sum::<u64>() as f64 * 1e-9;
        let coverage = spans.iter().find(|s| s.id == root).map_or(0.0, |r| {
            let layered = spans
                .iter()
                .filter(|s| s.layer() != "bench")
                .map(|s| (s.start.max(r.start), s.end.min(r.end)))
                .filter(|(a, b)| a < b)
                .collect();
            union_len(layered) as f64 / r.dur().max(1) as f64
        });
        Profile {
            by_name,
            total_self_s,
            coverage,
        }
    }

    /// Summed over names matching `pred`.
    #[must_use]
    pub fn sum(&self, pred: impl Fn(&str) -> bool) -> NameTotals {
        let mut out = NameTotals::default();
        for (name, t) in &self.by_name {
            if pred(name) {
                out.count += t.count;
                out.inclusive_s += t.inclusive_s;
                out.self_s += t.self_s;
            }
        }
        out
    }

    /// Self-time share, %, of the names matching `pred`.
    #[must_use]
    pub fn self_pct(&self, pred: impl Fn(&str) -> bool) -> f64 {
        if self.total_self_s <= 0.0 {
            return 0.0;
        }
        100.0 * self.sum(pred).self_s / self.total_self_s
    }
}

/// Renders `spans` as Chrome trace-event JSON: one complete ("X") event per
/// span on its lane's track, plus track names.
#[must_use]
pub fn chrome_trace(spans: &[Span]) -> String {
    use serde::Value;
    let mut events = Vec::with_capacity(spans.len() + 8);
    let mut lanes: Vec<usize> = spans.iter().map(|s| s.lane).collect();
    lanes.sort_unstable();
    lanes.dedup();
    for (i, lane) in lanes.iter().enumerate() {
        let track = if i == 0 {
            "main".to_owned()
        } else {
            format!("pool-{i}")
        };
        events.push(Value::Map(vec![
            ("name".into(), Value::Str("thread_name".into())),
            ("ph".into(), Value::Str("M".into())),
            ("pid".into(), Value::U64(1)),
            ("tid".into(), Value::U64(*lane as u64)),
            (
                "args".into(),
                Value::Map(vec![("name".into(), Value::Str(track))]),
            ),
        ]));
    }
    for s in spans {
        let mut args = vec![("id".into(), Value::U64(s.id))];
        if let Some(p) = s.parent {
            args.push(("parent".into(), Value::U64(p)));
        }
        events.push(Value::Map(vec![
            ("name".into(), Value::Str(s.name.into())),
            ("cat".into(), Value::Str(s.layer().into())),
            ("ph".into(), Value::Str("X".into())),
            ("ts".into(), Value::F64(s.start as f64 / 1e3)),
            ("dur".into(), Value::F64(s.dur() as f64 / 1e3)),
            ("pid".into(), Value::U64(1)),
            ("tid".into(), Value::U64(s.lane as u64)),
            ("args".into(), Value::Map(args)),
        ]));
    }
    crate::json::render(&Value::Map(vec![
        ("traceEvents".into(), Value::Seq(events)),
        ("displayTimeUnit".into(), Value::Str("ms".into())),
    ]))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: Option<u64>, name: &'static str, start: u64, end: u64) -> Span {
        Span {
            id,
            parent,
            name,
            lane: 0,
            start,
            end,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span(1, None, "bench.pass", 0, 100),
            span(2, Some(1), "harness.pool.map", 10, 90),
            // Two pool threads overlapping in time: covered once.
            span(3, Some(2), "harness.cache", 10, 60),
            span(4, Some(2), "harness.cache", 20, 80),
            span(5, Some(3), "simx.run", 15, 55),
        ];
        let selfs = self_times(&spans);
        assert_eq!(selfs[&1], 20);
        assert_eq!(selfs[&2], 10); // 80 wide, children cover 10..80
        assert_eq!(selfs[&3], 10);
        assert_eq!(selfs[&4], 60);
        assert_eq!(selfs[&5], 40);
        let p = Profile::of(&spans, 1);
        assert!((p.coverage - 0.8).abs() < 1e-12);
        assert!((p.self_pct(|n| n == "simx.run") - 40.0 / 140.0 * 100.0).abs() < 1e-9);
    }

    #[test]
    fn nesting_follows_threads_and_adoption() {
        let rec = Recorder::new();
        let (outer, inner) = rec.span("bench.pass", || {
            let outer = rec.current();
            let inner = std::thread::scope(|scope| {
                scope
                    .spawn(|| rec.adopt(outer, || rec.span("simx.run", || rec.current())))
                    .join()
                    .expect("worker")
            });
            (outer, inner)
        });
        let spans = rec.spans();
        assert_eq!(spans.len(), 2);
        let run = spans
            .iter()
            .find(|s| s.name == "simx.run")
            .expect("run span");
        assert_eq!(run.parent, outer);
        assert_eq!(Some(run.id), inner);
        assert!(rec.current().is_none(), "stack unwound");
        let json = chrome_trace(&spans);
        assert!(json.contains("\"traceEvents\"") && json.contains("\"ph\":\"X\""));
    }
}
