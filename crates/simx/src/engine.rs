//! Discrete-event simulation engine: a deterministic time-ordered event
//! queue with FIFO tie-breaking.
//!
//! The queue is a flat calendar (bucket ring) rather than a binary heap:
//! the simulator's event times are near-monotone — events are always
//! scheduled at `now + delta` with small `delta`, and the population is a
//! handful of events per core — so almost every push lands in a bucket at
//! or just ahead of the cursor, and almost every pop scans one short
//! bucket. Events beyond the calendar horizon (timers, long sleeps) wait
//! in an overflow band — a binary heap in the same order — and are folded
//! in when the cursor reaches them.
//! Ordering is exactly the heap's contract: earliest `time` first, FIFO by
//! insertion `seq` among equal times (see [`reference::HeapQueue`], kept
//! as the oracle for the equivalence proptest).

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use dvfs_trace::{CoreId, ThreadId, Time};

/// Events dispatched by the simulation loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Event {
    /// A core finished its current work chunk. The generation stamp guards
    /// against stale events after preemption or a DVFS transition
    /// re-timed the chunk.
    ChunkDone {
        /// The core that finished.
        core: CoreId,
        /// The core's chunk generation at scheduling time.
        generation: u64,
    },
    /// A sleeping thread's timer expired.
    TimerFire {
        /// The thread to wake.
        thread: ThreadId,
    },
    /// The scheduler time slice of a core expired (round-robin among
    /// oversubscribed runnable threads).
    TimeSlice {
        /// The core whose slice expired.
        core: CoreId,
        /// The core's generation at scheduling time.
        generation: u64,
    },
}

/// A scheduled event with deterministic ordering: earliest time first,
/// FIFO among equal times.
#[derive(Debug, Clone, Copy)]
struct Scheduled {
    time: Time,
    seq: u64,
    event: Event,
}

impl Scheduled {
    /// The deterministic ordering key.
    #[inline]
    fn key(&self) -> (Time, u64) {
        (self.time, self.seq)
    }
}

impl PartialEq for Scheduled {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}

impl Eq for Scheduled {}

impl PartialOrd for Scheduled {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Scheduled {
    /// Reversed [`Scheduled::key`] order: `BinaryHeap` is a max-heap, so
    /// the earliest event (lowest seq among equal times) is its top.
    fn cmp(&self, other: &Self) -> Ordering {
        other
            .time
            .cmp(&self.time)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// Number of day-buckets in the calendar ring (power of two).
const N_BUCKETS: usize = 64;
/// Bucket width in seconds. Chunk events arrive a few microseconds apart,
/// so one bucket holds roughly one dispatch round's worth of events and
/// the 64-bucket horizon (64 µs) covers everything but timers and long
/// sleeps, which ride in the overflow band. Any width is *correct* — only
/// the bucket occupancy changes.
const BUCKET_WIDTH: f64 = 1e-6;

/// Deterministic discrete-event queue (flat calendar).
#[derive(Debug)]
pub struct EventQueue {
    /// Ring of day-buckets; the bucket holding an event is a pure function
    /// of its time — `bucket_index(t) & 63` — never of queue state.
    /// Buckets are unsorted — pops select the minimum `(time, seq)` by
    /// scanning, which keeps ties exact regardless of storage order.
    ///
    /// The purity is load-bearing: an earlier implementation derived the
    /// slot from a drifting f64 `base` (advanced by `+= width` on every
    /// cursor step), and the accumulated rounding let two pushes of the
    /// *same* time land in adjacent buckets — popping a later-seq tie
    /// first and silently breaking the heap contract. The adversarial
    /// boundary-cluster proptest below pins this.
    buckets: Vec<Vec<Scheduled>>,
    /// Bucket number (global, not ring slot) of the current bucket; the
    /// ring covers bucket numbers `[base_idx, base_idx + N_BUCKETS)`.
    base_idx: u64,
    /// Events whose bucket was at or beyond `base_idx + N_BUCKETS` when
    /// they were pushed, earliest on top.
    overflow: BinaryHeap<Scheduled>,
    /// Events currently stored in `buckets` (not `overflow`).
    in_buckets: usize,
    /// Occupancy bitmask: bit `i` set iff `buckets[i]` is non-empty.
    /// With exactly 64 buckets the "first occupied bucket at or after the
    /// cursor" query is one rotate + `trailing_zeros`.
    occupied: u64,
    /// Total pending events.
    len: usize,
    /// Monotone insertion stamp for FIFO tie-breaking.
    next_seq: u64,
    /// The earliest pending `(time, seq)`, maintained across push/pop so
    /// `peek_time` is O(1) (the run loop peeks before every dispatch).
    cached_min: Option<(Time, u64)>,
}

// The occupancy mask is a u64: one bit per bucket.
const _: () = assert!(N_BUCKETS == 64);

impl Default for EventQueue {
    fn default() -> Self {
        EventQueue {
            buckets: (0..N_BUCKETS).map(|_| Vec::new()).collect(),
            base_idx: 0,
            overflow: BinaryHeap::new(),
            in_buckets: 0,
            occupied: 0,
            len: 0,
            next_seq: 0,
            cached_min: None,
        }
    }
}

impl EventQueue {
    /// An empty queue.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Global bucket number of a time. A pure function of `t` alone:
    /// monotone in `t`, so bucket order always agrees with time order,
    /// and equal times always share a bucket (FIFO reduces to the
    /// in-bucket seq scan).
    #[inline]
    fn bucket_index(t: f64) -> u64 {
        (t / BUCKET_WIDTH) as u64
    }

    /// Ring slot of the current bucket.
    #[inline]
    fn cursor(&self) -> usize {
        (self.base_idx & (N_BUCKETS as u64 - 1)) as usize
    }

    /// Files `s` (bucket number `idx`) into the ring. Bucket numbers at or
    /// behind the cursor (possible only through FP rounding at a bucket
    /// boundary, or for overflow events the cursor has overtaken) clamp
    /// into the cursor bucket; the min-scan still orders them correctly
    /// since every other bucket holds strictly later times.
    #[inline]
    fn file(&mut self, s: Scheduled, idx: u64) {
        let slot = if idx <= self.base_idx {
            self.cursor()
        } else {
            (idx & (N_BUCKETS as u64 - 1)) as usize
        };
        self.buckets[slot].push(s);
        self.occupied |= 1 << slot;
        self.in_buckets += 1;
    }

    /// Schedules `event` at `time`. Events scheduled for the same instant
    /// pop in scheduling order.
    pub fn push(&mut self, time: Time, event: Event) {
        let seq = self.next_seq;
        self.next_seq += 1;
        let s = Scheduled { time, seq, event };
        let idx = Self::bucket_index(time.as_secs());
        if idx >= self.base_idx + N_BUCKETS as u64 {
            self.overflow.push(s);
        } else {
            self.file(s, idx);
        }
        self.len += 1;
        if self.cached_min.is_none_or(|m| s.key() < m) {
            self.cached_min = Some(s.key());
        }
    }

    /// Removes and returns the earliest event.
    ///
    /// The minimum is the smaller of two candidates: the first occupied
    /// bucket's minimum, and the overflow band's minimum. Overflow must be
    /// consulted even when buckets are occupied — an event filed beyond
    /// the horizon *at push time* can fall inside the ring's range once
    /// the cursor has advanced, without having been migrated.
    pub fn pop(&mut self) -> Option<(Time, Event)> {
        if self.len == 0 {
            return None;
        }
        if self.in_buckets == 0 {
            // Every ring bucket is empty: jump the calendar to the
            // overflow band and fold the near future back in.
            self.refill_from_overflow();
        }
        // Jump the cursor to the first occupied bucket and find its
        // minimum (one rotate + count-trailing-zeros on the mask).
        let ahead = self
            .occupied
            .rotate_right(self.cursor() as u32)
            .trailing_zeros() as u64;
        self.base_idx += ahead;
        let cur = self.cursor();
        let bucket = &self.buckets[cur];
        let mut best = 0;
        for i in 1..bucket.len() {
            if bucket[i].key() < bucket[best].key() {
                best = i;
            }
        }
        let s = match self.overflow.peek() {
            Some(o) if o.key() < bucket[best].key() => {
                self.overflow.pop().expect("peeked overflow event")
            }
            _ => {
                self.in_buckets -= 1;
                let s = self.buckets[cur].swap_remove(best);
                if self.buckets[cur].is_empty() {
                    self.occupied &= !(1 << cur);
                }
                s
            }
        };
        self.len -= 1;
        self.cached_min = self.find_min();
        Some((s.time, s.event))
    }

    /// Jumps the calendar to the earliest overflow event and moves every
    /// overflow event within the new horizon into the ring. Only called
    /// when all buckets are empty and overflow is not. Bucket numbers are
    /// monotone in time, so those events are exactly the heap's top run.
    fn refill_from_overflow(&mut self) {
        debug_assert!(self.in_buckets == 0 && !self.overflow.is_empty());
        // Re-anchor the ring at the minimum's bucket (never behind the
        // current base — time only moves forward).
        let min = self
            .overflow
            .peek()
            .expect("refill requires a non-empty overflow band");
        self.base_idx = self.base_idx.max(Self::bucket_index(min.time.as_secs()));
        let horizon_end = self.base_idx + N_BUCKETS as u64;
        while let Some(top) = self.overflow.peek() {
            let idx = Self::bucket_index(top.time.as_secs());
            if idx >= horizon_end {
                break;
            }
            let s = self.overflow.pop().expect("peeked overflow event");
            self.file(s, idx);
        }
    }

    /// The earliest pending `(time, seq)` without mutating the calendar:
    /// the smaller of the first occupied bucket's minimum (buckets
    /// partition time monotonically along the ring) and the overflow
    /// band's minimum (see [`EventQueue::pop`] for why both matter).
    fn find_min(&self) -> Option<(Time, u64)> {
        if self.len == 0 {
            return None;
        }
        let bucket_min = (self.in_buckets > 0).then(|| {
            let cursor = self.cursor();
            let ahead = self.occupied.rotate_right(cursor as u32).trailing_zeros();
            let bucket = &self.buckets[(cursor + ahead as usize) & (N_BUCKETS - 1)];
            bucket
                .iter()
                .map(Scheduled::key)
                .min()
                .expect("occupied bucket must be non-empty")
        });
        match (bucket_min, self.overflow.peek().map(Scheduled::key)) {
            (Some(b), Some(o)) => Some(b.min(o)),
            (m, None) | (None, m) => m,
        }
    }

    /// The time of the earliest pending event.
    #[must_use]
    #[inline]
    pub fn peek_time(&self) -> Option<Time> {
        self.cached_min.map(|(t, _)| t)
    }

    /// Number of pending events.
    #[must_use]
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if no events are pending.
    #[must_use]
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

/// The original `BinaryHeap` event queue, kept as the ordering oracle for
/// the calendar queue's equivalence proptest.
#[doc(hidden)]
pub mod reference {
    use std::collections::BinaryHeap;

    use super::{Event, Scheduled};
    use dvfs_trace::Time;

    /// Deterministic discrete-event queue backed by a binary heap.
    #[derive(Debug, Default)]
    pub struct HeapQueue {
        heap: BinaryHeap<Scheduled>,
        next_seq: u64,
    }

    impl HeapQueue {
        /// An empty queue.
        #[must_use]
        pub fn new() -> Self {
            Self::default()
        }

        /// Schedules `event` at `time` (FIFO among equal times).
        pub fn push(&mut self, time: Time, event: Event) {
            let seq = self.next_seq;
            self.next_seq += 1;
            self.heap.push(Scheduled { time, seq, event });
        }

        /// Removes and returns the earliest event.
        pub fn pop(&mut self) -> Option<(Time, Event)> {
            self.heap.pop().map(|s| (s.time, s.event))
        }

        /// The time of the earliest pending event.
        #[must_use]
        pub fn peek_time(&self) -> Option<Time> {
            self.heap.peek().map(|s| s.time)
        }

        /// Number of pending events.
        #[must_use]
        pub fn len(&self) -> usize {
            self.heap.len()
        }

        /// True if no events are pending.
        #[must_use]
        pub fn is_empty(&self) -> bool {
            self.heap.is_empty()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(s: f64) -> Time {
        Time::from_secs(s)
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(t(3.0), Event::TimerFire { thread: ThreadId(3) });
        q.push(t(1.0), Event::TimerFire { thread: ThreadId(1) });
        q.push(t(2.0), Event::TimerFire { thread: ThreadId(2) });
        let order: Vec<_> = std::iter::from_fn(|| q.pop())
            .map(|(_, e)| match e {
                Event::TimerFire { thread } => thread.0,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(order, vec![1, 2, 3]);
    }

    #[test]
    fn equal_times_pop_fifo() {
        let mut q = EventQueue::new();
        for i in 0..10 {
            q.push(t(1.0), Event::TimerFire { thread: ThreadId(i) });
        }
        let order: Vec<_> = std::iter::from_fn(|| q.pop())
            .map(|(_, e)| match e {
                Event::TimerFire { thread } => thread.0,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(order, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn peek_does_not_remove() {
        let mut q = EventQueue::new();
        q.push(t(5.0), Event::TimerFire { thread: ThreadId(0) });
        assert_eq!(q.peek_time(), Some(t(5.0)));
        assert_eq!(q.len(), 1);
        assert!(!q.is_empty());
        q.pop();
        assert!(q.is_empty());
        assert_eq!(q.peek_time(), None);
    }

    #[test]
    fn far_future_events_ride_the_overflow_band() {
        let mut q = EventQueue::new();
        // Well beyond the 64 µs horizon: seconds apart.
        q.push(t(2.0), Event::TimerFire { thread: ThreadId(2) });
        q.push(t(0.5), Event::TimerFire { thread: ThreadId(1) });
        q.push(t(1e-7), Event::TimerFire { thread: ThreadId(0) });
        assert_eq!(q.peek_time(), Some(t(1e-7)));
        let order: Vec<_> = std::iter::from_fn(|| q.pop())
            .map(|(_, e)| match e {
                Event::TimerFire { thread } => thread.0,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(order, vec![0, 1, 2]);
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            /// The calendar queue is observationally equivalent to the
            /// heap oracle on arbitrary interleaved schedules: same pop
            /// order (FIFO under ties included), same peeks, same lengths.
            /// The op encoding drives every structural path — exact ties
            /// with an earlier push (including times now behind the
            /// calendar cursor), in-horizon deltas, and far-future events
            /// that ride the overflow band.
            #[test]
            fn calendar_matches_heap_on_arbitrary_schedules(
                ops in proptest::collection::vec((0u8..4, 0u32..=u32::MAX), 1..300)
            ) {
                let mut cal = EventQueue::new();
                let mut heap = reference::HeapQueue::new();
                let mut now = 0.0f64;
                let mut last_push = Time::from_secs(0.0);
                for (i, &(kind, raw)) in ops.iter().enumerate() {
                    if kind == 0 {
                        prop_assert_eq!(cal.pop(), heap.pop(), "pop at op {}", i);
                    } else {
                        let r = f64::from(raw) / f64::from(u32::MAX);
                        let tm = match kind {
                            1 => last_push, // exact tie, possibly in the past
                            2 => Time::from_secs(now + r * 4e-5), // in horizon
                            _ => Time::from_secs(now + r * 1e-2), // overflow band
                        };
                        last_push = tm;
                        let ev = Event::TimerFire {
                            thread: ThreadId(i as u32 % 8),
                        };
                        cal.push(tm, ev);
                        heap.push(tm, ev);
                    }
                    prop_assert_eq!(cal.peek_time(), heap.peek_time(), "peek at op {}", i);
                    prop_assert_eq!(cal.len(), heap.len(), "len at op {}", i);
                    if let Some(pt) = heap.peek_time() {
                        now = now.max(pt.as_secs());
                    }
                }
                while let Some(e) = heap.pop() {
                    prop_assert_eq!(cal.pop(), Some(e));
                }
                prop_assert!(cal.is_empty());
            }

            /// Adversarial schedules aimed squarely at the minimum
            /// bookkeeping (`cached_min`, the overflow heap): clusters of exact
            /// ties placed on bucket-boundary multiples (FP clamp paths),
            /// deep far-future clusters that make the overflow band the
            /// true minimum while buckets are still occupied, pushes tied
            /// to the current cached minimum (which must NOT displace it —
            /// FIFO), pushes behind the cursor, and pop bursts that drain
            /// the ring so `refill_from_overflow` re-anchors the calendar.
            /// Every step cross-checks peek/len/pop against the heap
            /// oracle, so a stale cached minimum shows up immediately as a
            /// divergent peek.
            #[test]
            fn cached_minima_survive_adversarial_overflow_schedules(
                ops in proptest::collection::vec(
                    (0u8..6, 0u32..=u32::MAX, 1usize..6),
                    1..200,
                )
            ) {
                let mut cal = EventQueue::new();
                let mut heap = reference::HeapQueue::new();
                let mut now = 0.0f64;
                let mut thread = 0u32;
                for (i, &(kind, raw, count)) in ops.iter().enumerate() {
                    let r = f64::from(raw) / f64::from(u32::MAX);
                    match kind {
                        0 => {
                            // Pop burst: drains buckets (forcing overflow
                            // refills) and invalidates cached minima
                            // `count` times in a row.
                            for _ in 0..count {
                                prop_assert_eq!(cal.pop(), heap.pop(), "pop at op {}", i);
                            }
                        }
                        1 => {
                            // Tie cluster pinned to an exact bucket
                            // boundary: `t = k * BUCKET_WIDTH` lands on
                            // the FP seam between two buckets, and may be
                            // in the ring or the overflow band depending
                            // on how far the cursor has advanced.
                            let k = (now / BUCKET_WIDTH).ceil() + (raw % 200) as f64;
                            let tm = Time::from_secs(k * BUCKET_WIDTH);
                            for _ in 0..count {
                                let ev = Event::TimerFire { thread: ThreadId(thread % 8) };
                                thread += 1;
                                cal.push(tm, ev);
                                heap.push(tm, ev);
                            }
                        }
                        2 => {
                            // Deep far-future cluster: overflow band holds
                            // these for many horizons; identical times
                            // exercise the overflow heap's FIFO ties.
                            let tm = Time::from_secs(now + 1e-3 + r * 1e-2);
                            for _ in 0..count {
                                let ev = Event::TimerFire { thread: ThreadId(thread % 8) };
                                thread += 1;
                                cal.push(tm, ev);
                                heap.push(tm, ev);
                            }
                        }
                        3 => {
                            // Push at exactly the current minimum: the
                            // cached minimum must keep the earlier seq.
                            let tm = heap.peek_time().unwrap_or(Time::from_secs(now));
                            let ev = Event::TimerFire { thread: ThreadId(thread % 8) };
                            thread += 1;
                            cal.push(tm, ev);
                            heap.push(tm, ev);
                        }
                        4 => {
                            // Push behind the cursor (clamps into the
                            // cursor bucket) — possible through FP
                            // rounding in the real simulator.
                            let tm = Time::from_secs((now - r * 1e-6).max(0.0));
                            let ev = Event::TimerFire { thread: ThreadId(thread % 8) };
                            thread += 1;
                            cal.push(tm, ev);
                            heap.push(tm, ev);
                        }
                        _ => {
                            // In-horizon filler keeping the ring occupied
                            // while overflow holds the minimum's rivals.
                            let tm = Time::from_secs(now + r * 4e-5);
                            let ev = Event::TimerFire { thread: ThreadId(thread % 8) };
                            thread += 1;
                            cal.push(tm, ev);
                            heap.push(tm, ev);
                        }
                    }
                    prop_assert_eq!(cal.peek_time(), heap.peek_time(), "peek at op {}", i);
                    prop_assert_eq!(cal.len(), heap.len(), "len at op {}", i);
                    if let Some(pt) = heap.peek_time() {
                        now = now.max(pt.as_secs());
                    }
                }
                while let Some(e) = heap.pop() {
                    prop_assert_eq!(cal.pop(), Some(e));
                    prop_assert_eq!(cal.peek_time(), heap.peek_time());
                }
                prop_assert!(cal.is_empty());
            }
        }
    }

    #[test]
    fn interleaved_push_pop_tracks_the_heap_oracle() {
        // Deterministic mixed workload: near-monotone times with ties and
        // occasional far-future jumps, interleaved pushes and pops.
        let mut cal = EventQueue::new();
        let mut heap = reference::HeapQueue::new();
        let mut state = 0x2545_F491_4F6C_DD1Du64;
        let mut now = 0.0f64;
        for step in 0..2000 {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            let r = (state >> 11) as f64 / (1u64 << 53) as f64;
            if state & 3 == 0 {
                assert_eq!(cal.pop(), heap.pop(), "step {step}");
                assert_eq!(cal.peek_time(), heap.peek_time());
            } else {
                let dt = match state & 15 {
                    1 => 0.0, // exact tie with `now`
                    2..=5 => r * 1e-6,
                    6..=13 => r * 4e-5,
                    _ => r * 3e-3, // beyond the horizon
                };
                let tm = t(now + dt);
                let ev = Event::TimerFire {
                    thread: ThreadId((state >> 20) as u32 % 8),
                };
                cal.push(tm, ev);
                heap.push(tm, ev);
                assert_eq!(cal.peek_time(), heap.peek_time());
                assert_eq!(cal.len(), heap.len());
            }
            if let Some(pt) = heap.peek_time() {
                now = now.max(pt.as_secs());
            }
        }
        while let Some(e) = heap.pop() {
            assert_eq!(cal.pop(), Some(e));
        }
        assert!(cal.is_empty());
    }
}
