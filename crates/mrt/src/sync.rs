//! `Sync` cell wrappers for the runtime's shared "user-space memory".
//!
//! The simulated runtime is cooperatively scheduled: exactly one simulated
//! thread mutates this state at a time, driven by a single-threaded event
//! loop. Historically that let the state live in `Cell`/`RefCell` behind an
//! `Rc`. The experiment pool, however, moves whole machines between OS
//! worker threads, which requires every captured structure to be `Send` —
//! so the cells must be `Sync`. One OS thread drives one machine at a time,
//! so there is never a race to order: a machine changes threads only
//! through a synchronizing handoff (the pool's mutex-guarded item and
//! result slots, a thread spawn or join), which already orders every write
//! before the move ahead of every read after it.
//!
//! * [`SyncCell`] holds a `Copy` value ([`Word`]: counters and the GC
//!   phase) in a relaxed atomic, like `simx::program::WordCell` — a plain
//!   load or store on the safepoint-poll path, no lock;
//! * [`SyncRefCell`] holds everything else (the heap, packet queues) in an
//!   always-uncontended `Mutex`, whose guard stands in for `Ref`/`RefMut`.
//!
//! Both keep the `Cell`/`RefCell` method names so runtime code reads
//! unchanged.

use std::fmt;
use std::marker::PhantomData;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard};

/// A `Copy` value a [`SyncCell`] can hold: it round-trips through a `u64`.
pub trait Word: Copy {
    /// The value as a word.
    fn to_word(self) -> u64;
    /// The value a word written by [`Word::to_word`] encodes.
    fn from_word(word: u64) -> Self;
}

impl Word for u32 {
    #[inline]
    fn to_word(self) -> u64 {
        u64::from(self)
    }

    #[inline]
    fn from_word(word: u64) -> Self {
        word as u32
    }
}

impl Word for u64 {
    #[inline]
    fn to_word(self) -> u64 {
        self
    }

    #[inline]
    fn from_word(word: u64) -> Self {
        word
    }
}

/// A `Sync` replacement for `Cell<T>`: `get`/`set` on a `Copy` value,
/// stored in a relaxed atomic.
pub struct SyncCell<T: Word>(AtomicU64, PhantomData<T>);

impl<T: Word> SyncCell<T> {
    /// A cell holding `value`.
    pub fn new(value: T) -> Self {
        SyncCell(AtomicU64::new(value.to_word()), PhantomData)
    }

    /// Reads the value.
    #[inline]
    pub fn get(&self) -> T {
        T::from_word(self.0.load(Ordering::Relaxed))
    }

    /// Writes the value.
    #[inline]
    pub fn set(&self, value: T) {
        self.0.store(value.to_word(), Ordering::Relaxed);
    }
}

impl<T: Word + fmt::Debug> fmt::Debug for SyncCell<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_tuple("SyncCell").field(&self.get()).finish()
    }
}

/// A `Sync` replacement for `RefCell<T>`: `borrow`/`borrow_mut` guards.
#[derive(Debug, Default)]
pub struct SyncRefCell<T>(Mutex<T>);

impl<T> SyncRefCell<T> {
    /// A cell holding `value`.
    pub fn new(value: T) -> Self {
        SyncRefCell(Mutex::new(value))
    }

    /// Immutably borrows the value (the guard derefs like `Ref`).
    pub fn borrow(&self) -> MutexGuard<'_, T> {
        self.0.lock().expect("SyncRefCell poisoned")
    }

    /// Mutably borrows the value (the guard derefs like `RefMut`).
    pub fn borrow_mut(&self) -> MutexGuard<'_, T> {
        self.0.lock().expect("SyncRefCell poisoned")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cell_roundtrip() {
        let c = SyncCell::new(7u32);
        assert_eq!(c.get(), 7);
        c.set(9);
        assert_eq!(c.get(), 9);
    }

    #[test]
    fn wide_cell_keeps_every_bit() {
        let c = SyncCell::new(u64::MAX);
        assert_eq!(c.get(), u64::MAX);
        c.set(1 << 40);
        assert_eq!(c.get(), 1 << 40);
        assert_eq!(format!("{c:?}"), format!("SyncCell({})", 1u64 << 40));
    }

    #[test]
    fn refcell_roundtrip() {
        let c = SyncRefCell::new(vec![1, 2]);
        c.borrow_mut().push(3);
        assert_eq!(c.borrow().len(), 3);
    }

    #[test]
    fn wrappers_are_sync_and_send() {
        fn assert_bounds<T: Send + Sync>() {}
        assert_bounds::<SyncCell<u64>>();
        assert_bounds::<SyncRefCell<Vec<u8>>>();
    }
}
