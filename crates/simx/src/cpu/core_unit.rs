//! The hardware cores: each executes at most one thread's chunk at a time.
//!
//! Per-core state lives in a struct-of-arrays [`CoreBank`] rather than a
//! `Vec` of per-core structs: the event loop touches one field family at a
//! time (generation guards on every `ChunkDone`, busy time on every commit,
//! slice generations on every reschedule), and the SoA layout keeps each
//! family densely packed in host cache lines. All vectors are allocated
//! once at machine construction and never grow.

use depburst_core::DepburstError;
use dvfs_trace::{CoreId, DvfsCounters, ThreadId, Time};

use super::Chunk;

/// The chunk currently in flight on a core.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Running {
    /// The software thread executing.
    pub thread: ThreadId,
    /// The chunk being executed.
    pub chunk: Chunk,
    /// When the chunk started.
    pub started: Time,
}

impl Running {
    /// When the chunk will complete (absent interruptions).
    #[must_use]
    pub fn finish_time(&self) -> Time {
        self.started + self.chunk.duration
    }

    /// Fraction of the chunk elapsed at `now`, clamped to [0, 1].
    /// (`now` may precede `started` during a DVFS transition stall.)
    #[must_use]
    pub fn fraction_at(&self, now: Time) -> f64 {
        let d = self.chunk.duration.as_secs();
        if d <= 0.0 {
            1.0
        } else {
            ((now - self.started).as_secs() / d).clamp(0.0, 1.0)
        }
    }

    /// Counter increments accrued by `now` (linear interpolation).
    #[must_use]
    pub fn counters_at(&self, now: Time) -> DvfsCounters {
        self.chunk.counters_at_fraction(self.fraction_at(now))
    }
}

/// All cores of the simulated chip, struct-of-arrays. Core `c` everywhere
/// is the index into every column; its identity is `CoreId(c as u8)`.
#[derive(Debug)]
pub struct CoreBank {
    /// The in-flight chunk per core, if busy.
    running: Vec<Option<Running>>,
    /// A thread that occupies the core *between* chunks (its chunk just
    /// finished and the machine is deciding what it does next). Keeps the
    /// core from being handed to another thread mid-decision.
    reserved: Vec<Option<ThreadId>>,
    /// Monotone stamp guarding against stale `ChunkDone` events: bumped
    /// every time the core's occupancy changes.
    generation: Vec<u64>,
    /// When the running thread was last scheduled onto this core
    /// (time-slice accounting).
    slice_start: Vec<Time>,
    /// Per-core slice generation (survives chunk boundaries; bumped when
    /// the core's *thread* changes). Guards stale `TimeSlice` events.
    slice_gen: Vec<u64>,
    /// Per-core accumulated busy time (for per-core energy accounting).
    busy: Vec<dvfs_trace::TimeDelta>,
    /// Per-slice counter accumulator: the resident thread's cumulative
    /// counters (committed chunks only). Loaded from the thread at
    /// schedule-in, added to on every chunk commit while the thread stays
    /// on the core, and stored back to the thread when it leaves — so the
    /// hot commit path writes one slot that is already in cache instead of
    /// chasing into the thread table per event.
    slice_total: Vec<DvfsCounters>,
}

impl CoreBank {
    /// A bank of `n` idle cores.
    ///
    /// # Panics
    /// Panics if `n` does not fit the 8-bit [`CoreId`] space.
    #[must_use]
    pub fn new(n: usize) -> Self {
        assert!(n <= usize::from(u8::MAX) + 1, "core index must fit in u8");
        CoreBank {
            running: vec![None; n],
            reserved: vec![None; n],
            generation: vec![0; n],
            slice_start: vec![Time::ZERO; n],
            slice_gen: vec![0; n],
            busy: vec![dvfs_trace::TimeDelta::ZERO; n],
            slice_total: vec![DvfsCounters::default(); n],
        }
    }

    /// Number of cores in the bank.
    #[must_use]
    pub fn len(&self) -> usize {
        self.running.len()
    }

    /// True if the bank has no cores.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.running.is_empty()
    }

    /// The identity of core `c`.
    #[must_use]
    pub fn id(&self, c: usize) -> CoreId {
        CoreId(c as u8)
    }

    /// True if no thread occupies core `c`.
    #[must_use]
    pub fn is_idle(&self, c: usize) -> bool {
        self.running[c].is_none() && self.reserved[c].is_none()
    }

    /// The thread currently occupying core `c` (running or reserved).
    #[must_use]
    pub fn occupant(&self, c: usize) -> Option<ThreadId> {
        self.running[c].as_ref().map(|r| r.thread).or(self.reserved[c])
    }

    /// Core `c`'s current generation stamp.
    #[must_use]
    pub fn generation(&self, c: usize) -> u64 {
        self.generation[c]
    }

    /// Core `c`'s current slice generation.
    #[must_use]
    pub fn slice_gen(&self, c: usize) -> u64 {
        self.slice_gen[c]
    }

    /// Bumps core `c`'s slice generation; returns the new value.
    pub fn bump_slice_gen(&mut self, c: usize) -> u64 {
        self.slice_gen[c] += 1;
        self.slice_gen[c]
    }

    /// The in-flight chunk on core `c`, if any.
    #[must_use]
    pub fn running(&self, c: usize) -> Option<&Running> {
        self.running[c].as_ref()
    }

    /// Adds committed busy time to core `c`.
    pub fn add_busy(&mut self, c: usize, delta: dvfs_trace::TimeDelta) {
        self.busy[c] += delta;
    }

    /// Committed busy time per core (excludes in-flight chunk progress).
    #[must_use]
    pub fn busy_snapshot(&self) -> Vec<dvfs_trace::TimeDelta> {
        self.busy.clone()
    }

    /// The resident thread's accumulated counters on core `c` (committed
    /// chunks only; in-flight progress is interpolated by the caller).
    #[must_use]
    pub fn slice_total(&self, c: usize) -> DvfsCounters {
        self.slice_total[c]
    }

    /// Accumulates a committed chunk's counters into core `c`'s slice
    /// accumulator. Must mirror every busy-time commit while a thread is
    /// resident — the invariant monitor's counter-conservation check
    /// catches a missed commit.
    pub fn add_slice_counters(&mut self, c: usize, counters: DvfsCounters) {
        self.slice_total[c] += counters;
    }

    /// Claims core `c` for `thread` at `now`, seeding the slice accumulator
    /// with the thread's counters so subsequent commits extend the same
    /// running total the thread table held.
    pub fn reserve(&mut self, c: usize, thread: ThreadId, now: Time, counters: DvfsCounters) {
        self.reserved[c] = Some(thread);
        self.slice_start[c] = now;
        self.slice_total[c] = counters;
    }

    /// Starts `chunk` for `thread` on core `c`; returns the new generation
    /// stamp to attach to the completion event.
    pub fn start_chunk(&mut self, c: usize, thread: ThreadId, chunk: Chunk, now: Time) -> u64 {
        debug_assert!(self.running[c].is_none(), "core {c} already busy");
        debug_assert!(
            self.reserved[c].is_none() || self.reserved[c] == Some(thread),
            "core {c} reserved for another thread"
        );
        self.reserved[c] = None;
        self.generation[c] += 1;
        self.running[c] = Some(Running {
            thread,
            chunk,
            started: now,
        });
        self.generation[c]
    }

    /// Completes the in-flight chunk on core `c`; the core stays reserved
    /// for the thread until it starts another chunk or releases the core.
    ///
    /// # Errors
    /// [`DepburstError::CoreProtocol`] if the core has no chunk in flight —
    /// a protocol violation by the caller (e.g. a stale completion event
    /// that slipped past the generation guard), reported instead of
    /// panicking so a faulted run can keep going.
    pub fn finish_chunk(&mut self, c: usize) -> Result<Running, DepburstError> {
        self.generation[c] += 1;
        let Some(running) = self.running[c].take() else {
            return Err(DepburstError::CoreProtocol {
                core: c as u8,
                detail: "finish_chunk on idle core",
            });
        };
        self.reserved[c] = Some(running.thread);
        Ok(running)
    }

    /// Releases core `c` entirely (thread blocked or exited).
    pub fn release(&mut self, c: usize) {
        self.generation[c] += 1;
        self.running[c] = None;
        self.reserved[c] = None;
    }

    /// Interrupts the in-flight chunk on core `c` at `now`; returns the
    /// completed part (for counter accounting) and the remaining part (to
    /// resume later). The core is left fully idle.
    pub fn interrupt(&mut self, c: usize, now: Time) -> Option<(ThreadId, Chunk, Chunk)> {
        let running = self.running[c].take()?;
        self.reserved[c] = None;
        self.generation[c] += 1;
        let frac = running.fraction_at(now);
        let (done, rest) = running.chunk.split(frac);
        Some((running.thread, done, rest))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dvfs_trace::TimeDelta;

    fn chunk_us(us: f64) -> Chunk {
        Chunk::compute(TimeDelta::from_micros(us), (us * 1000.0) as u64)
    }

    #[test]
    fn lifecycle_start_finish() {
        let mut bank = CoreBank::new(1);
        assert!(bank.is_idle(0));
        let g1 = bank.start_chunk(0, ThreadId(5), chunk_us(10.0), Time::ZERO);
        assert!(!bank.is_idle(0));
        let running = *bank.running(0).expect("busy");
        assert_eq!(running.thread, ThreadId(5));
        assert!((running.finish_time().as_secs() - 10e-6).abs() < 1e-15);
        let done = bank.finish_chunk(0).expect("chunk in flight");
        assert_eq!(done.thread, ThreadId(5));
        // Between chunks the core stays reserved for the thread.
        assert!(!bank.is_idle(0));
        assert_eq!(bank.occupant(0), Some(ThreadId(5)));
        bank.release(0);
        assert!(bank.is_idle(0));
        assert!(bank.generation(0) > g1);
    }

    #[test]
    fn finish_on_idle_core_is_a_protocol_error() {
        let mut bank = CoreBank::new(5);
        let err = bank.finish_chunk(4).expect_err("idle core");
        assert_eq!(
            err,
            DepburstError::CoreProtocol {
                core: 4,
                detail: "finish_chunk on idle core",
            }
        );
    }

    #[test]
    fn interpolation_midway() {
        let mut bank = CoreBank::new(2);
        bank.start_chunk(1, ThreadId(1), chunk_us(10.0), Time::ZERO);
        let r = *bank.running(1).expect("busy");
        let mid = Time::from_secs(5e-6);
        assert!((r.fraction_at(mid) - 0.5).abs() < 1e-12);
        let c = r.counters_at(mid);
        assert!((c.active.as_micros() - 5.0).abs() < 1e-9);
        assert_eq!(c.instructions, 5000);
    }

    #[test]
    fn interrupt_splits_chunk() {
        let mut bank = CoreBank::new(3);
        bank.start_chunk(2, ThreadId(7), chunk_us(20.0), Time::ZERO);
        let (tid, done, rest) = bank
            .interrupt(2, Time::from_secs(15e-6))
            .expect("was running");
        assert_eq!(tid, ThreadId(7));
        assert!((done.duration.as_micros() - 15.0).abs() < 1e-9);
        assert!((rest.duration.as_micros() - 5.0).abs() < 1e-9);
        assert!(bank.is_idle(2));
        assert!(bank.interrupt(2, Time::ZERO).is_none());
    }

    #[test]
    fn fraction_clamps_outside_chunk() {
        let mut bank = CoreBank::new(4);
        bank.start_chunk(3, ThreadId(1), chunk_us(10.0), Time::from_secs(1.0));
        let r = bank.running(3).expect("busy");
        assert_eq!(r.fraction_at(Time::from_secs(0.5)), 0.0);
        assert_eq!(r.fraction_at(Time::from_secs(2.0)), 1.0);
    }

    #[test]
    fn slice_accumulator_round_trips_through_reserve() {
        let mut bank = CoreBank::new(2);
        let base = DvfsCounters {
            instructions: 1000,
            ..DvfsCounters::default()
        };
        bank.reserve(0, ThreadId(3), Time::ZERO, base);
        assert_eq!(bank.occupant(0), Some(ThreadId(3)));
        let delta = DvfsCounters {
            instructions: 234,
            ..DvfsCounters::default()
        };
        bank.add_slice_counters(0, delta);
        assert_eq!(bank.slice_total(0).instructions, 1234);
        // A later reserve for another thread replaces, not extends.
        bank.release(0);
        bank.reserve(0, ThreadId(4), Time::ZERO, DvfsCounters::default());
        assert_eq!(bank.slice_total(0).instructions, 0);
    }

    #[test]
    fn slice_generations_are_independent_per_core() {
        let mut bank = CoreBank::new(3);
        assert_eq!(bank.bump_slice_gen(1), 1);
        assert_eq!(bank.bump_slice_gen(1), 2);
        assert_eq!(bank.slice_gen(0), 0);
        assert_eq!(bank.slice_gen(2), 0);
        assert_eq!(bank.id(2), CoreId(2));
    }
}
