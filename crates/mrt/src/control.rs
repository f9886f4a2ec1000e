//! Shared runtime control state: GC phase machine, futexes, application
//! locks and barriers.
//!
//! All simulated threads hold an `Arc<RuntimeShared>`. The *values* here
//! are the "user-space memory" of the runtime; the kernel-visible
//! synchronisation goes through the futexes registered on the machine,
//! exactly mirroring how a pthreads-based JVM behaves (paper §III-B).

use std::collections::VecDeque;

use simx::program::{FutexId, SharedWord};
use simx::Machine;

use crate::config::RuntimeConfig;
use crate::heap::HeapState;
use crate::sync::{SyncCell, SyncRefCell, Word};

/// The collector phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GcPhase {
    /// Mutators running normally.
    Running,
    /// A mutator requested a collection; the coordinator has not yet
    /// acknowledged.
    Requested,
    /// The coordinator is waiting for all mutators to reach safepoints.
    Stopping,
    /// The world is stopped; GC workers are collecting.
    Collecting,
}

impl Word for GcPhase {
    #[inline]
    fn to_word(self) -> u64 {
        self as u64
    }

    #[inline]
    fn from_word(word: u64) -> Self {
        [
            GcPhase::Running,
            GcPhase::Requested,
            GcPhase::Stopping,
            GcPhase::Collecting,
        ][word as usize]
    }
}

/// A futex-backed mutex (word protocol: 0 free, 1 held, 2 held with
/// waiters — the classic futex mutex).
#[derive(Debug, Clone)]
pub struct FutexMutex {
    /// The user-space word.
    pub word: SharedWord,
    /// The kernel futex id.
    pub futex: FutexId,
}

impl FutexMutex {
    /// Registers a new mutex on the machine.
    pub fn new(machine: &mut Machine) -> Self {
        let (futex, word) = machine.register_futex(0);
        FutexMutex { word, futex }
    }

    /// Uncontended fast path: acquire if free. Returns `true` on success.
    pub fn try_acquire(&self) -> bool {
        if self.word.get() == 0 {
            self.word.set(1);
            true
        } else {
            false
        }
    }

    /// Acquire attempt after having slept on the futex. On success the
    /// word is set to the *contended* value — the waker cannot know
    /// whether other waiters remain, so the next release must wake again
    /// (the classic futex-mutex protocol).
    pub fn acquire_contended(&self) -> bool {
        if self.word.get() == 0 {
            self.word.set(2);
            true
        } else {
            false
        }
    }

    /// Marks the mutex contended (caller is about to sleep). Returns the
    /// word value to pass as the futex expected value.
    pub fn mark_contended(&self) -> u32 {
        self.word.set(2);
        2
    }

    /// Releases the mutex. Returns `true` if waiters may exist and a wake
    /// is required.
    pub fn release(&self) -> bool {
        let contended = self.word.get() == 2;
        self.word.set(0);
        contended
    }
}

/// A futex-backed generation barrier for application threads.
#[derive(Debug)]
pub struct AppBarrier {
    /// Threads expected at the barrier.
    pub parties: SyncCell<u32>,
    /// Threads arrived so far this generation.
    pub arrived: SyncCell<u32>,
    /// Generation counter (the futex word mirrors it).
    pub word: SharedWord,
    /// Kernel futex id.
    pub futex: FutexId,
}

impl AppBarrier {
    /// Registers a barrier for `parties` threads.
    pub fn new(machine: &mut Machine, parties: u32) -> Self {
        let (futex, word) = machine.register_futex(0);
        AppBarrier {
            parties: SyncCell::new(parties),
            arrived: SyncCell::new(0),
            word,
            futex,
        }
    }

    /// Registers an arrival. Returns `true` if the caller is the last
    /// party (and must release the barrier).
    pub fn arrive(&self) -> bool {
        let n = self.arrived.get() + 1;
        if n >= self.parties.get() {
            self.arrived.set(0);
            self.word.set(self.word.get() + 1); // next generation
            true
        } else {
            self.arrived.set(n);
            false
        }
    }

    /// Reduces the party count (a participating thread exited).
    /// Returns `true` if this release-by-exit completes the barrier.
    pub fn withdraw(&self) -> bool {
        let parties = self.parties.get().saturating_sub(1);
        self.parties.set(parties);
        if parties > 0 && self.arrived.get() >= parties {
            self.arrived.set(0);
            self.word.set(self.word.get() + 1);
            true
        } else {
            false
        }
    }
}

/// One unit of collector work: trace a slice of the live set and copy its
/// survivors.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GcPacket {
    /// Bytes of survivor data to copy.
    pub copy_bytes: u64,
    /// Pointer-graph reads to perform while tracing.
    pub trace_reads: u64,
    /// Base address of the region the reads walk.
    pub trace_base: u64,
    /// Size of the region the reads walk.
    pub trace_span: u64,
    /// Destination address for the copy.
    pub copy_dest: u64,
}

/// Everything the runtime's threads share.
#[derive(Debug)]
pub struct RuntimeShared {
    /// Static configuration.
    pub config: RuntimeConfig,
    /// Heap occupancy.
    pub heap: SyncRefCell<HeapState>,

    /// Collector phase.
    pub phase: SyncCell<GcPhase>,
    /// Live (not exited) mutators.
    pub mutators_total: SyncCell<u32>,
    /// Mutators stopped at a safepoint.
    pub mutators_stopped: SyncCell<u32>,
    /// Mutators blocked in safepoint-safe waits (locks/barriers/sleeps).
    pub mutators_safe: SyncCell<u32>,

    /// World futex: mutators sleep here during a collection; the word is
    /// the GC generation.
    pub world_futex: FutexId,
    /// World generation word.
    pub world_word: SharedWord,
    /// Coordinator doorbell futex.
    pub coord_futex: FutexId,
    /// Coordinator doorbell event counter.
    pub coord_word: SharedWord,
    /// GC worker start futex; word = collection generation.
    pub worker_futex: FutexId,
    /// Worker start generation word.
    pub worker_word: SharedWord,
    /// Collection-finished futex: the coordinator sleeps here until the
    /// last worker checks in.
    pub done_futex: FutexId,
    /// Done event counter.
    pub done_word: SharedWord,

    /// Lock protecting the GC work-packet queue.
    pub queue_lock: FutexMutex,
    /// Pending collector work.
    pub packets: SyncRefCell<VecDeque<GcPacket>>,
    /// Workers (incl. coordinator) that drained the queue this collection.
    pub workers_done: SyncCell<u32>,

    /// Application mutexes, indexed by `Step::Lock`.
    pub app_locks: Vec<FutexMutex>,
    /// Application barriers, indexed by `Step::Barrier`.
    pub app_barriers: Vec<AppBarrier>,

    /// Wall-time statistics: completed collections' survivor bytes.
    pub bytes_copied: SyncCell<u64>,

    /// The machine's invariant-monitor depth at install time. Runtime
    /// threads check the GC-handoff invariants when this is at least
    /// `Cheap`; at `Off` the checks cost one branch.
    pub invariant_mode: simx::InvariantMode,
    /// GC-handoff invariant violations observed by runtime threads. They
    /// cannot hold a machine borrow while running, so violations collect
    /// here as `(at_secs, detail)` pairs and the harness merges them into
    /// the machine's monitor after the run.
    pub gc_violations: SyncRefCell<Vec<(f64, String)>>,
}

impl RuntimeShared {
    /// Builds the shared state, registering all futexes on the machine.
    pub fn new(
        machine: &mut Machine,
        config: RuntimeConfig,
        mutators: u32,
        app_locks: usize,
        app_barriers: &[u32],
    ) -> Self {
        let heap = HeapState::new(config.heap_size, config.nursery_size);
        let (world_futex, world_word) = machine.register_futex(0);
        let (coord_futex, coord_word) = machine.register_futex(0);
        let (worker_futex, worker_word) = machine.register_futex(0);
        let (done_futex, done_word) = machine.register_futex(0);
        let queue_lock = FutexMutex::new(machine);
        let app_locks = (0..app_locks).map(|_| FutexMutex::new(machine)).collect();
        let app_barriers = app_barriers
            .iter()
            .map(|&parties| AppBarrier::new(machine, parties))
            .collect();
        RuntimeShared {
            config,
            heap: SyncRefCell::new(heap),
            phase: SyncCell::new(GcPhase::Running),
            mutators_total: SyncCell::new(mutators),
            mutators_stopped: SyncCell::new(0),
            mutators_safe: SyncCell::new(0),
            world_futex,
            world_word,
            coord_futex,
            coord_word,
            worker_futex,
            worker_word,
            done_futex,
            done_word,
            queue_lock,
            packets: SyncRefCell::new(VecDeque::new()),
            workers_done: SyncCell::new(0),
            app_locks,
            app_barriers,
            bytes_copied: SyncCell::new(0),
            invariant_mode: machine.invariant_mode(),
            gc_violations: SyncRefCell::new(Vec::new()),
        }
    }

    /// True if the GC-handoff invariants should be checked (the machine's
    /// monitor was at least at `cheap` depth when the runtime installed).
    #[must_use]
    pub fn check_gc_invariants(&self) -> bool {
        self.invariant_mode >= simx::InvariantMode::Cheap
    }

    /// Records a GC-handoff invariant violation for later merging into the
    /// machine's monitor.
    pub fn record_gc_violation(&self, at_secs: f64, detail: String) {
        self.gc_violations.borrow_mut().push((at_secs, detail));
    }

    /// Drains the recorded GC-handoff violations.
    #[must_use]
    pub fn take_gc_violations(&self) -> Vec<(f64, String)> {
        std::mem::take(&mut *self.gc_violations.borrow_mut())
    }

    /// True if mutators must stop at their next safepoint.
    #[must_use]
    pub fn stop_requested(&self) -> bool {
        self.phase.get() != GcPhase::Running
    }

    /// True once every live mutator is either stopped at a safepoint or
    /// parked in a safepoint-safe wait.
    #[must_use]
    pub fn world_is_stopped(&self) -> bool {
        self.mutators_stopped.get() + self.mutators_safe.get() >= self.mutators_total.get()
    }

    /// Rings the coordinator's doorbell (bump the event counter). The
    /// caller must follow with a `FutexWake` on [`Self::coord_futex`].
    pub fn ring_coordinator(&self) {
        self.coord_word.set(self.coord_word.get().wrapping_add(1));
    }

    /// Requests a collection if one is not already in progress.
    pub fn request_gc(&self) {
        if self.phase.get() == GcPhase::Running {
            self.phase.set(GcPhase::Requested);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simx::MachineConfig;

    fn shared() -> (Machine, RuntimeShared) {
        let mut machine = Machine::new(MachineConfig::haswell_quad());
        let config = RuntimeConfig::with_heap(64 << 20);
        let shared = RuntimeShared::new(&mut machine, config, 4, 2, &[4]);
        (machine, shared)
    }

    #[test]
    fn gc_phase_cell_roundtrips_every_phase() {
        let cell = SyncCell::new(GcPhase::Running);
        for phase in [
            GcPhase::Requested,
            GcPhase::Stopping,
            GcPhase::Collecting,
            GcPhase::Running,
        ] {
            cell.set(phase);
            assert_eq!(cell.get(), phase);
        }
    }

    #[test]
    fn futex_mutex_protocol() {
        let mut machine = Machine::new(MachineConfig::haswell_quad());
        let m = FutexMutex::new(&mut machine);
        assert!(m.try_acquire());
        assert!(!m.try_acquire());
        assert_eq!(m.mark_contended(), 2);
        assert!(m.release(), "contended release must wake");
        assert!(m.try_acquire());
        assert!(!m.release(), "uncontended release needs no wake");
    }

    #[test]
    fn barrier_arrivals() {
        let mut machine = Machine::new(MachineConfig::haswell_quad());
        let b = AppBarrier::new(&mut machine, 3);
        assert!(!b.arrive());
        assert!(!b.arrive());
        assert!(b.arrive(), "third arrival releases");
        assert_eq!(b.word.get(), 1);
        assert_eq!(b.arrived.get(), 0);
    }

    #[test]
    fn barrier_withdraw_can_release() {
        let mut machine = Machine::new(MachineConfig::haswell_quad());
        let b = AppBarrier::new(&mut machine, 3);
        b.arrive();
        b.arrive();
        // The third party exits instead of arriving.
        assert!(b.withdraw());
        assert_eq!(b.parties.get(), 2);
    }

    #[test]
    fn stop_accounting() {
        let (_machine, s) = shared();
        assert!(!s.stop_requested());
        s.request_gc();
        assert_eq!(s.phase.get(), GcPhase::Requested);
        assert!(s.stop_requested());
        assert!(!s.world_is_stopped());
        s.mutators_stopped.set(2);
        s.mutators_safe.set(2);
        assert!(s.world_is_stopped());
        // A mutator exits: 3 suffice.
        s.mutators_total.set(3);
        s.mutators_stopped.set(1);
        assert!(s.world_is_stopped());
    }

    #[test]
    fn request_gc_does_not_clobber_active_phase() {
        let (_machine, s) = shared();
        s.phase.set(GcPhase::Collecting);
        s.request_gc();
        assert_eq!(s.phase.get(), GcPhase::Collecting);
    }
}
