//! The machine: cores + memory + OS + tracer, driven by a discrete-event
//! loop.

use core::fmt;

use dvfs_trace::{
    DvfsCounters, EpochEnd, ExecutionTrace, Freq, ThreadId, ThreadRole, Time, TimeDelta,
};

use crate::config::MachineConfig;
use crate::cpu::{ChunkEnv, CoreBank, StoreQueues, WorkCursor};
use crate::engine::{Event, EventQueue};
use crate::faults::{FaultConfig, FaultInjector};
use crate::invariants::{Invariant, InvariantMode, Monitor};
use crate::mem::{Dram, MemoryHierarchy};
use crate::os::{FutexTable, Scheduler, SleepKind, Thread, ThreadState};
use crate::program::{Action, FutexId, SharedWord, SpawnRequest, WaitOutcome};
use crate::stats::RunStats;
use crate::tracebuild::TraceBuilder;

/// The default for [`MachineConfig::watchdog_stride`]: how many events the
/// engine dispatches between wall-clock watchdog polls. Large enough that
/// the `Instant::now()` call vanishes in the event-dispatch cost, small
/// enough that a runaway point is noticed within milliseconds (realistic
/// points dispatch millions of events). Tiny fuzzer inputs override the
/// config field downward so their few events still poll the watchdog.
pub const WATCHDOG_STRIDE: u32 = 4096;

/// Why a run stopped.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum RunOutcome {
    /// Every application thread exited; the field is the completion time.
    Completed(Time),
    /// The requested deadline was reached with application threads alive.
    DeadlineReached,
}

/// Machine-level failures.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum MachineError {
    /// No runnable work remains but application threads have not exited:
    /// every live thread is blocked with nothing to wake it.
    Deadlock {
        /// When the deadlock was detected.
        at: Time,
    },
    /// `set_frequency` was called with un-harvested trace data measured at
    /// a different frequency (harvest first; a trace segment must have a
    /// single base frequency).
    DirtyTrace,
    /// An operation referenced a thread id that does not exist.
    UnknownThread(ThreadId),
    /// The platform refused the frequency change (an injected
    /// [`crate::faults::FaultClass::TransitionDenied`] fault — real
    /// voltage regulators deny requests during settling). The machine
    /// keeps running at its current frequency.
    TransitionDenied {
        /// When the request was denied.
        at: Time,
    },
    /// The harness's per-point wall-clock watchdog (see
    /// [`crate::watchdog`]) expired while this machine was running; the
    /// event loop abandoned the run cleanly instead of hanging the sweep.
    WatchdogExpired {
        /// Simulated time when the expiry was noticed.
        at: Time,
    },
}

impl fmt::Display for MachineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MachineError::Deadlock { at } => {
                write!(f, "deadlock: all threads blocked at {at}")
            }
            MachineError::DirtyTrace => write!(
                f,
                "cannot change frequency with un-harvested trace epochs; call harvest_trace first"
            ),
            MachineError::UnknownThread(t) => write!(f, "unknown thread {t}"),
            MachineError::TransitionDenied { at } => {
                write!(f, "DVFS transition denied by the platform at {at}")
            }
            MachineError::WatchdogExpired { at } => {
                write!(f, "per-point wall-clock watchdog expired at simulated {at}")
            }
        }
    }
}

impl std::error::Error for MachineError {}

impl From<MachineError> for depburst_core::DepburstError {
    fn from(err: MachineError) -> Self {
        match err {
            MachineError::TransitionDenied { at } => {
                depburst_core::DepburstError::TransitionDenied {
                    at_secs: at.as_secs(),
                }
            }
            MachineError::WatchdogExpired { at } => {
                depburst_core::DepburstError::WatchdogExpired {
                    at_secs: at.as_secs(),
                }
            }
            other => depburst_core::DepburstError::Machine {
                detail: other.to_string(),
            },
        }
    }
}

/// The simulated machine. See the crate docs for the modelling approach.
pub struct Machine {
    config: MachineConfig,
    now: Time,
    /// Per-core frequency (the paper's scheme is chip-wide DVFS; the
    /// per-core extension lets experiments scale core subsets).
    freqs: Vec<Freq>,
    queue: EventQueue,
    /// Per-core state (occupancy, generations, busy time, slice counter
    /// accumulators), struct-of-arrays.
    cores: CoreBank,
    /// Per-core store queues, struct-of-arrays.
    store_queues: StoreQueues,
    threads: Vec<Thread>,
    sched: Scheduler,
    futexes: FutexTable,
    hierarchy: MemoryHierarchy,
    dram: Dram,
    tracer: TraceBuilder,
    app_live: usize,
    futex_sleeps: u64,
    futex_wakes: u64,
    preemptions: u64,
    dvfs_transitions: u64,
    transitions_denied: u64,
    events_dispatched: u64,
    epochs_harvested: usize,
    /// Injects deterministic faults between the machine and its observers.
    faults: Option<FaultInjector>,
    /// Sanitizer-style runtime invariant monitor (off by default; see
    /// [`crate::invariants`]).
    monitor: Monitor,
}

impl fmt::Debug for Machine {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Machine")
            .field("now", &self.now)
            .field("freqs", &self.freqs)
            .field("threads", &self.threads.len())
            .field("app_live", &self.app_live)
            .finish_non_exhaustive()
    }
}

impl Machine {
    /// Builds an idle machine.
    #[must_use]
    pub fn new(config: MachineConfig) -> Self {
        Machine {
            freqs: vec![config.initial_freq; config.cores],
            hierarchy: MemoryHierarchy::new(&config),
            dram: Dram::new(config.dram),
            cores: CoreBank::new(config.cores),
            store_queues: StoreQueues::new(config.store_queue_entries, config.cores),
            config,
            now: Time::ZERO,
            queue: EventQueue::new(),
            threads: Vec::new(),
            sched: Scheduler::new(),
            futexes: FutexTable::new(),
            tracer: TraceBuilder::new(Time::ZERO),
            app_live: 0,
            futex_sleeps: 0,
            futex_wakes: 0,
            preemptions: 0,
            dvfs_transitions: 0,
            transitions_denied: 0,
            events_dispatched: 0,
            epochs_harvested: 0,
            faults: None,
            monitor: Monitor::new(InvariantMode::from_env()),
        }
    }

    /// Installs a fault injector (see [`crate::faults`]). All subsequent
    /// harvests, frequency changes and DRAM reads are subject to the
    /// configured fault classes. Installing a configuration where
    /// [`FaultConfig::is_inert`] holds leaves the machine's observable
    /// behaviour bit-identical to an un-instrumented run.
    pub fn install_faults(&mut self, config: FaultConfig) {
        self.dram.set_jitter(config.dram_jitter, config.seed);
        self.faults = Some(FaultInjector::new(config));
    }

    /// The installed fault configuration, if any.
    #[must_use]
    pub fn fault_config(&self) -> Option<&FaultConfig> {
        self.faults.as_ref().map(FaultInjector::config)
    }

    /// Current simulated time.
    #[must_use]
    pub fn now(&self) -> Time {
        self.now
    }

    /// Current chip-wide frequency. With the per-core DVFS extension in
    /// use (heterogeneous frequencies), this reports core 0's frequency.
    #[must_use]
    pub fn frequency(&self) -> Freq {
        self.freqs[0]
    }

    /// Current frequency of one core.
    #[must_use]
    pub fn core_frequency(&self, core: dvfs_trace::CoreId) -> Freq {
        self.freqs[core.index()]
    }

    /// The machine configuration.
    #[must_use]
    pub fn config(&self) -> &MachineConfig {
        &self.config
    }

    /// The invariant monitor's active checking depth. The managed runtime
    /// and the energy manager read this at install/start time so every
    /// layer follows one machine-wide setting.
    #[must_use]
    pub fn invariant_mode(&self) -> InvariantMode {
        self.monitor.mode()
    }

    /// Read access to the invariant monitor (recorded violations, mode).
    #[must_use]
    pub fn monitor(&self) -> &Monitor {
        &self.monitor
    }

    /// Mutable access to the invariant monitor. Tests and the fuzzer use
    /// this to sabotage a check or merge violations observed by layers
    /// that cannot hold a machine borrow (the managed runtime).
    pub fn monitor_mut(&mut self) -> &mut Monitor {
        &mut self.monitor
    }

    /// Replaces the monitor with a fresh one at `mode`, overriding the
    /// `DEPBURST_INVARIANTS` environment default read at construction.
    pub fn set_invariant_mode(&mut self, mode: InvariantMode) {
        self.monitor = Monitor::new(mode);
    }

    /// The first recorded invariant violation as a unified error, if the
    /// monitor caught anything.
    #[must_use]
    pub fn invariant_error(&self) -> Option<depburst_core::DepburstError> {
        self.monitor.first_error()
    }

    /// Registers a futex word with an initial value. Programs share the
    /// returned [`SharedWord`] for their user-space fast paths.
    pub fn register_futex(&mut self, initial: u32) -> (FutexId, SharedWord) {
        self.futexes.register(initial)
    }

    /// Spawns a root thread (programs spawn further threads with
    /// [`Action::Spawn`]). Returns the new thread's id.
    pub fn spawn(&mut self, request: SpawnRequest) -> ThreadId {
        let tid = self.create_thread(request);
        self.epoch_boundary(EpochEnd::Wake(tid));
        self.dispatch_idle_cores();
        tid
    }

    /// Runs until every application thread has exited.
    pub fn run(&mut self) -> Result<RunOutcome, MachineError> {
        self.run_until(Time::from_secs(f64::MAX))
    }

    /// Runs until `deadline` or application completion, whichever is first.
    ///
    /// # Errors
    /// Returns [`MachineError::Deadlock`] when no runnable work remains
    /// with application threads alive, and
    /// [`MachineError::WatchdogExpired`] when the calling thread's
    /// per-point wall-clock watchdog (armed by the harness, polled every
    /// [`WATCHDOG_STRIDE`] events) has passed its deadline.
    pub fn run_until(&mut self, deadline: Time) -> Result<RunOutcome, MachineError> {
        if let Some(injector) = &mut self.faults {
            // The seeded panic-point fault fires (at most once per machine)
            // before any event is dispatched, so an injected death never
            // leaves a half-simulated point behind.
            injector.maybe_panic_point();
        }
        let stride = self.config.watchdog_stride.max(1);
        let mut events: u32 = 0;
        loop {
            if self.app_live == 0 {
                return Ok(RunOutcome::Completed(self.now));
            }
            let Some(next) = self.queue.peek_time() else {
                return Err(MachineError::Deadlock { at: self.now });
            };
            if next > deadline {
                self.now = deadline;
                return Ok(RunOutcome::DeadlineReached);
            }
            events = events.wrapping_add(1);
            if events.is_multiple_of(stride) && crate::watchdog::expired() {
                return Err(MachineError::WatchdogExpired { at: self.now });
            }
            self.events_dispatched += 1;
            let (t, event) = self.queue.pop().expect("peeked");
            if t < self.now && self.monitor.on(Invariant::EventMonotonicity) {
                self.monitor.record(
                    Invariant::EventMonotonicity,
                    t.as_secs(),
                    format!("event queue popped {t} after the clock reached {}", self.now),
                );
            }
            self.now = t;
            self.dispatch_event(event);
        }
    }

    /// Runs for `delta` of simulated time (or to completion).
    pub fn run_for(&mut self, delta: TimeDelta) -> Result<RunOutcome, MachineError> {
        let deadline = self.now + delta;
        self.run_until(deadline)
    }

    /// Changes the chip-wide frequency (the paper's DVFS scheme). All
    /// busy cores stall for the DVFS transition latency and their
    /// in-flight work is re-timed.
    ///
    /// # Errors
    /// Returns [`MachineError::DirtyTrace`] if trace epochs recorded at the
    /// old frequency have not been harvested, or
    /// [`MachineError::TransitionDenied`] if an injected fault refuses the
    /// change (the machine keeps its current frequency).
    pub fn set_frequency(&mut self, freq: Freq) -> Result<(), MachineError> {
        if self.freqs.iter().all(|&f| f == freq) {
            return Ok(());
        }
        if !self.tracer.clean_at(self.now) {
            return Err(MachineError::DirtyTrace);
        }
        if let Some(inj) = &mut self.faults {
            if inj.transition_denied() {
                self.transitions_denied += 1;
                return Err(MachineError::TransitionDenied { at: self.now });
            }
        }
        let stall = self.transition_stall();
        for c in 0..self.cores.len() {
            self.retime_core(c, freq, stall);
        }
        self.dvfs_transitions += 1;
        Ok(())
    }

    /// Changes one core's frequency (the per-core DVFS extension the
    /// paper leaves as future work). Traces harvested while cores run at
    /// different frequencies carry core 0's frequency as their base and
    /// are not meaningful inputs for the chip-wide predictors; per-core
    /// experiments measure ground-truth timing instead.
    ///
    /// # Errors
    /// Returns [`MachineError::DirtyTrace`] if trace epochs recorded at
    /// the old frequencies have not been harvested, or
    /// [`MachineError::TransitionDenied`] if an injected fault refuses the
    /// change.
    pub fn set_core_frequency(
        &mut self,
        core: dvfs_trace::CoreId,
        freq: Freq,
    ) -> Result<(), MachineError> {
        let c = core.index();
        if self.freqs[c] == freq {
            return Ok(());
        }
        if !self.tracer.clean_at(self.now) {
            return Err(MachineError::DirtyTrace);
        }
        if let Some(inj) = &mut self.faults {
            if inj.transition_denied() {
                self.transitions_denied += 1;
                return Err(MachineError::TransitionDenied { at: self.now });
            }
        }
        let stall = self.transition_stall();
        self.retime_core(c, freq, stall);
        self.dvfs_transitions += 1;
        Ok(())
    }

    /// The DVFS transition stall for the next transition: the configured
    /// latency, possibly stretched by an injected fault.
    fn transition_stall(&mut self) -> TimeDelta {
        let nominal = self.config.dvfs_transition;
        match &mut self.faults {
            Some(inj) => inj.transition_stall(nominal),
            None => nominal,
        }
    }

    /// Applies a frequency change to one core: interrupt, re-time, restart
    /// after the transition stall.
    fn retime_core(&mut self, c: usize, freq: Freq, stall: TimeDelta) {
        let ratio = self.freqs[c].scaling_ratio_to(freq);
        self.freqs[c] = freq;
        let Some((tid, done, rest)) = self.cores.interrupt(c, self.now) else {
            return;
        };
        self.cores.add_busy(c, done.duration);
        // The thread stays on this core across the re-time, so the commit
        // lands in the core's slice accumulator, not the thread table.
        self.cores.add_slice_counters(c, done.counters);
        let retimed = rest.retimed(ratio);
        let restart = self.now + stall;
        let generation = self.cores.start_chunk(c, tid, retimed, restart);
        self.queue.push(
            restart + retimed.duration,
            Event::ChunkDone {
                core: self.cores.id(c),
                generation,
            },
        );
    }

    /// Closes the current trace segment and returns it. The segment covers
    /// everything since the previous harvest (or machine start) and was
    /// measured entirely at one frequency. With a fault injector installed,
    /// the returned segment is what the (unreliable) measurement path
    /// delivers — the machine's internal state is unaffected.
    pub fn harvest_trace(&mut self) -> ExecutionTrace {
        let threads = &self.threads;
        let cores = &self.cores;
        let base = self.freqs[0];
        let trace = self
            .tracer
            .harvest(self.now, base, |tid| cumulative(threads, cores, self.now, tid));
        self.epochs_harvested += trace.epochs.len();
        // Invariants run on the pre-fault trace: the injector deliberately
        // corrupts harvested counters, and the monitor's job is the
        // machine's own physics, not the (unreliable) measurement path.
        if self.monitor.enabled() {
            self.monitor.check_trace(&trace);
            if self.monitor.on(Invariant::StoreQueueOccupancy) {
                for c in 0..self.store_queues.len() {
                    if self.store_queues.level(c) > self.store_queues.capacity() + 1e-9 {
                        self.monitor.record(
                            Invariant::StoreQueueOccupancy,
                            self.now.as_secs(),
                            format!(
                                "store queue {c}: level {:.3} exceeds capacity {:.0}",
                                self.store_queues.level(c),
                                self.store_queues.capacity()
                            ),
                        );
                    }
                }
            }
            if self.monitor.on(Invariant::CacheSanity) {
                for issue in self.hierarchy.sanity_issues() {
                    self.monitor
                        .record(Invariant::CacheSanity, self.now.as_secs(), issue);
                }
            }
        }
        match &mut self.faults {
            Some(inj) => inj.filter_harvest(trace),
            None => trace,
        }
    }

    /// Aggregate statistics so far.
    #[must_use]
    pub fn stats(&self) -> RunStats {
        let mut thread_counters = std::collections::BTreeMap::new();
        for t in &self.threads {
            thread_counters.insert(t.id, cumulative(&self.threads, &self.cores, self.now, t.id));
        }
        RunStats {
            elapsed: self.now.since(Time::ZERO),
            core_busy: {
                // Include in-flight chunk progress.
                let mut busy = self.cores.busy_snapshot();
                for (c, b) in busy.iter_mut().enumerate() {
                    if let Some(r) = self.cores.running(c) {
                        *b += r.counters_at(self.now).active;
                    }
                }
                busy
            },
            thread_counters,
            dram: self.dram.stats(),
            epochs: self.epochs_harvested,
            futex_sleeps: self.futex_sleeps,
            futex_wakes: self.futex_wakes,
            preemptions: self.preemptions,
            dvfs_transitions: self.dvfs_transitions,
            transitions_denied: self.transitions_denied,
            events_dispatched: self.events_dispatched,
        }
    }

    // ----- internals -------------------------------------------------

    fn create_thread(&mut self, request: SpawnRequest) -> ThreadId {
        let tid = ThreadId(self.threads.len() as u32);
        let mut thread = Thread::new(tid, request.name, request.role, request.program, self.now);
        thread.affinity = request.affinity;
        self.tracer
            .register_thread(tid, &thread.name, thread.role, self.now);
        if thread.role == ThreadRole::Application {
            self.app_live += 1;
        }
        self.threads.push(thread);
        self.sched.enqueue(tid);
        tid
    }

    fn dispatch_event(&mut self, event: Event) {
        match event {
            Event::ChunkDone { core, generation } => {
                let c = core.index();
                if self.cores.generation(c) != generation || self.cores.is_idle(c) {
                    return;
                }
                let Ok(running) = self.cores.finish_chunk(c) else {
                    return; // stale event for an idle core: nothing to commit
                };
                self.cores.add_busy(c, running.chunk.duration);
                // Batched harvest: the thread stays reserved on this core,
                // so the commit extends the slice accumulator; the thread
                // table is updated only when the thread leaves the core.
                self.cores.add_slice_counters(c, running.chunk.counters);
                self.continue_thread(running.thread);
            }
            Event::TimerFire { thread } => {
                let t = &mut self.threads[thread.index()];
                if t.state != ThreadState::Sleeping(SleepKind::Timer) {
                    return;
                }
                t.last_wait = WaitOutcome::TimerFired;
                self.wake_thread(thread);
            }
            Event::TimeSlice { core, generation } => {
                self.handle_timeslice(core.index(), generation);
            }
        }
    }

    fn handle_timeslice(&mut self, c: usize, generation: u64) {
        if self.cores.slice_gen(c) != generation || self.cores.is_idle(c) {
            return;
        }
        let threads = &self.threads;
        let can_use_core = self
            .sched
            .has_waiting_matching(|t| threads[t.index()].allowed_on(c));
        if !can_use_core {
            // Nothing eligible to rotate in; re-arm.
            self.queue.push(
                self.now + self.config.timeslice,
                Event::TimeSlice {
                    core: self.cores.id(c),
                    generation,
                },
            );
            return;
        }
        let Some((tid, done, rest)) = self.cores.interrupt(c, self.now) else {
            return; // between chunks; the thread is about to decide anyway
        };
        self.cores.add_busy(c, done.duration);
        self.preemptions += 1;
        let freq = self.freqs[c];
        // The thread leaves the core: fold the final partial chunk into the
        // slice accumulator, then store the running total back to the
        // thread table where off-core reads find it.
        self.cores.add_slice_counters(c, done.counters);
        {
            let t = &mut self.threads[tid.index()];
            t.counters = self.cores.slice_total(c);
            if rest.duration > TimeDelta::ZERO {
                t.resume_chunk = Some((rest, freq));
            }
            t.state = ThreadState::Runnable;
        }
        self.epoch_boundary(EpochEnd::Stall(tid));
        self.sched.enqueue(tid);
        self.cores.bump_slice_gen(c);
        self.dispatch_idle_cores();
    }

    /// Ensures the thread (which must be Running on a core with no
    /// in-flight chunk) makes progress: resume work, continue the cursor,
    /// or ask the program for its next action.
    fn continue_thread(&mut self, tid: ThreadId) {
        loop {
            let ThreadState::Running(core_id) = self.threads[tid.index()].state else {
                return;
            };
            let c = core_id.index();

            // 1. A preempted chunk to resume?
            if let Some((chunk, old_freq)) = self.threads[tid.index()].resume_chunk.take() {
                let retimed = chunk.retimed(old_freq.scaling_ratio_to(self.freqs[c]));
                self.begin_chunk(c, tid, retimed);
                return;
            }

            // 2. More chunks in the current work item?
            let has_cursor = self.threads[tid.index()].cursor.is_some();
            if has_cursor {
                let chunk = {
                    let mut env = ChunkEnv {
                        now: self.now,
                        freq: self.freqs[c],
                        core: self.cores.id(c),
                        config: &self.config,
                        hierarchy: &mut self.hierarchy,
                        dram: &mut self.dram,
                        store_queues: &mut self.store_queues,
                    };
                    self.threads[tid.index()]
                        .cursor
                        .as_mut()
                        .expect("checked")
                        .next_chunk(&mut env)
                };
                match chunk {
                    Some(chunk) => {
                        self.begin_chunk(c, tid, chunk);
                        return;
                    }
                    None => {
                        self.threads[tid.index()].cursor = None;
                    }
                }
            }

            // 3. Ask the program.
            let action = {
                let t = &mut self.threads[tid.index()];
                let mut ctx = t.context(self.now);
                let action = t.program.next(&mut ctx);
                t.last_wait = WaitOutcome::None;
                t.last_spawned = None;
                action
            };
            if self.apply_action(tid, action) == Flow::Blocked {
                return;
            }
        }
    }

    fn begin_chunk(&mut self, c: usize, tid: ThreadId, chunk: crate::cpu::Chunk) {
        let generation = self.cores.start_chunk(c, tid, chunk, self.now);
        self.queue.push(
            self.now + chunk.duration,
            Event::ChunkDone {
                core: self.cores.id(c),
                generation,
            },
        );
    }

    fn apply_action(&mut self, tid: ThreadId, action: Action) -> Flow {
        let syscall = self.config.core_model.syscall_cycles;
        match action {
            Action::Work(item) => {
                self.threads[tid.index()].cursor = Some(WorkCursor::new(item));
                Flow::Continue
            }
            Action::FutexWait { futex, expected } => {
                match self.futexes.wait(tid, futex, expected) {
                    crate::os::FutexWaitResult::Sleep => {
                        self.futex_sleeps += 1;
                        // Kernel-exit cost is paid when the thread wakes.
                        self.threads[tid.index()].cursor =
                            Some(WorkCursor::syscall(syscall));
                        self.block_thread(tid, SleepKind::Futex(futex));
                        Flow::Blocked
                    }
                    crate::os::FutexWaitResult::ValueMismatch => {
                        self.threads[tid.index()].last_wait = WaitOutcome::ValueMismatch;
                        self.threads[tid.index()].cursor =
                            Some(WorkCursor::syscall(syscall));
                        Flow::Continue
                    }
                }
            }
            Action::FutexWake { futex, count } => {
                self.futex_wakes += 1;
                let woken = self.futexes.wake(futex, count);
                for w in woken {
                    let t = &mut self.threads[w.index()];
                    t.last_wait = WaitOutcome::Woken;
                    self.wake_thread(w);
                }
                self.threads[tid.index()].cursor = Some(WorkCursor::syscall(syscall));
                Flow::Continue
            }
            Action::SleepFor(delta) => {
                self.block_thread(tid, SleepKind::Timer);
                self.queue
                    .push(self.now + delta, Event::TimerFire { thread: tid });
                Flow::Blocked
            }
            Action::Spawn(request) => {
                let new_tid = self.create_thread(request);
                self.threads[tid.index()].last_spawned = Some(new_tid);
                self.epoch_boundary(EpochEnd::Wake(new_tid));
                self.dispatch_idle_cores();
                self.threads[tid.index()].cursor = Some(WorkCursor::syscall(syscall * 8));
                Flow::Continue
            }
            Action::MarkPhase(kind) => {
                self.tracer.mark_phase(self.now, kind);
                self.threads[tid.index()].cursor = Some(WorkCursor::syscall(syscall / 4));
                Flow::Continue
            }
            Action::Exit => {
                {
                    let t = &mut self.threads[tid.index()];
                    t.state = ThreadState::Exited;
                    t.exit = Some(self.now);
                }
                self.tracer.note_exit(tid, self.now);
                if self.threads[tid.index()].role == ThreadRole::Application {
                    self.app_live -= 1;
                }
                self.epoch_boundary(EpochEnd::Exit(tid));
                self.free_core_of(tid);
                self.dispatch_idle_cores();
                Flow::Blocked
            }
        }
    }

    fn block_thread(&mut self, tid: ThreadId, kind: SleepKind) {
        self.threads[tid.index()].state = ThreadState::Sleeping(kind);
        self.epoch_boundary(EpochEnd::Stall(tid));
        self.free_core_of(tid);
        self.dispatch_idle_cores();
    }

    /// Marks the core the thread was occupying idle (the thread has
    /// already changed state).
    fn free_core_of(&mut self, tid: ThreadId) {
        for c in 0..self.cores.len() {
            if self.cores.occupant(c) == Some(tid) {
                // Threads block between chunks, so normally only the
                // reservation is held; commit any in-flight work
                // defensively.
                if let Some((_, done, _)) = self.cores.interrupt(c, self.now) {
                    self.cores.add_busy(c, done.duration);
                    self.cores.add_slice_counters(c, done.counters);
                }
                // The thread leaves the core: its running total moves from
                // the slice accumulator back to the thread table.
                self.threads[tid.index()].counters = self.cores.slice_total(c);
                self.cores.release(c);
                self.cores.bump_slice_gen(c);
                return;
            }
        }
    }

    fn wake_thread(&mut self, tid: ThreadId) {
        debug_assert!(matches!(
            self.threads[tid.index()].state,
            ThreadState::Sleeping(_)
        ));
        self.threads[tid.index()].state = ThreadState::Runnable;
        self.epoch_boundary(EpochEnd::Wake(tid));
        self.sched.enqueue(tid);
        self.dispatch_idle_cores();
    }

    fn dispatch_idle_cores(&mut self) {
        loop {
            if !self.sched.has_waiting() {
                return;
            }
            // Find an (idle core, eligible thread) pair, FIFO per core.
            let mut assignment = None;
            for c in 0..self.cores.len() {
                if !self.cores.is_idle(c) {
                    continue;
                }
                let threads = &self.threads;
                if let Some(tid) = self
                    .sched
                    .dequeue_matching(|t| threads[t.index()].allowed_on(c))
                {
                    assignment = Some((tid, c));
                    break;
                }
            }
            let Some((tid, c)) = assignment else {
                return; // no idle core can serve any queued thread
            };
            self.schedule_in(tid, c);
            self.continue_thread(tid);
        }
    }

    fn schedule_in(&mut self, tid: ThreadId, c: usize) {
        let core_id = self.cores.id(c);
        self.threads[tid.index()].state = ThreadState::Running(core_id);
        // Claim the core immediately so nested dispatches cannot hand it to
        // another thread before this one starts its first chunk. Seeding
        // the slice accumulator with the thread's counters here is what
        // lets every subsequent chunk commit stay core-local.
        self.cores
            .reserve(c, tid, self.now, self.threads[tid.index()].counters);
        let generation = self.cores.bump_slice_gen(c);
        self.queue.push(
            self.now + self.config.timeslice,
            Event::TimeSlice {
                core: core_id,
                generation,
            },
        );
        let snapshot = cumulative(&self.threads, &self.cores, self.now, tid);
        self.tracer.note_running(tid, snapshot);
    }

    /// Closes the current epoch and re-seeds still-running threads as
    /// participants of the next one.
    fn epoch_boundary(&mut self, end: EpochEnd) {
        {
            let threads = &self.threads;
            let cores = &self.cores;
            let now = self.now;
            self.tracer
                .boundary(now, end, |tid| cumulative(threads, cores, now, tid));
        }
        for c in 0..self.cores.len() {
            if let Some(tid) = self.cores.occupant(c) {
                let snapshot = cumulative(&self.threads, &self.cores, self.now, tid);
                self.tracer.note_running(tid, snapshot);
            }
        }
    }
}

/// Cumulative counters for a thread: committed chunks plus interpolated
/// progress of any in-flight chunk. While a thread is resident on a core
/// its committed total lives in that core's slice accumulator (the thread
/// table is only synchronized when it leaves); off-core threads read
/// straight from the thread table.
fn cumulative(threads: &[Thread], cores: &CoreBank, now: Time, tid: ThreadId) -> DvfsCounters {
    for c in 0..cores.len() {
        if cores.occupant(c) == Some(tid) {
            let mut total = cores.slice_total(c);
            if let Some(r) = cores.running(c) {
                total += r.counters_at(now);
            }
            return total;
        }
    }
    threads[tid.index()].counters
}

/// Control flow after applying an action.
#[derive(Debug, PartialEq, Eq)]
enum Flow {
    /// The thread keeps running (a cursor may have been installed).
    Continue,
    /// The thread blocked or exited; its core was released.
    Blocked,
}
