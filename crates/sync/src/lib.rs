//! Rank-disciplined synchronization primitives shared by every MultiPub
//! crate that holds a lock.
//!
//! PRs 4–7 grew the broker from one global topic map into ~10
//! lock-bearing modules. Deadlock-freedom across them is maintained as a
//! *checked* property, not a convention (DESIGN.md §14):
//!
//! * **Statically**, the lint's pass L6 (`xtask`, run by `cargo test`) requires every
//!   `Mutex`/`RwLock` declaration to carry a `// lock:rank(name, N)`
//!   annotation and reports any nested acquisition whose rank is not
//!   strictly greater than every rank already held.
//! * **Dynamically**, the [`Mutex`]/[`RwLock`] wrappers here carry their
//!   rank at runtime. In debug/test builds with `MULTIPUB_LOCK_WITNESS=1`
//!   every acquisition is checked against a thread-local stack of held
//!   ranks, and an out-of-order acquire panics with the backtraces of
//!   **both** acquisition sites (see [`witness`]). Release builds compile
//!   the wrappers down to zero-cost pass-throughs: no rank storage, no
//!   per-acquisition branch, no witness code at all.
//!
//! # Rule
//!
//! Ranks must be **strictly increasing** in acquisition order on any one
//! thread. Equal ranks are reserved for families of locks that are never
//! nested (the broker's per-topic shard mutexes, the trace ring's slot
//! mutexes); acquiring two locks of the same rank on one thread is a
//! violation, which is exactly the invariant those families document.
//!
//! # Backends
//!
//! Two interchangeable backends keep every consumer on one code path:
//!
//! * `std::sync` (default) — dependency-free, poison-recovering: a
//!   panicked holder does not wedge the metrics pipeline or the broker,
//! * `loom` (`RUSTFLAGS="--cfg loom"`) — the model checker used by the
//!   `loom_models` suites; the dependency is appended transiently by CI
//!   and is never committed to a manifest (DESIGN.md §9).
//!
//! Sync-only: the wrappers are for synchronous critical sections.
//! `tokio::sync::Mutex` guards legitimately live across `.await` and are
//! outside the witness's per-thread model; those locks carry a
//! `lock:rank` annotation for the static pass only.

#![forbid(unsafe_code)]

#[cfg(all(debug_assertions, not(loom)))]
pub mod witness;

use core::fmt;
use core::ops::{Deref, DerefMut};

#[cfg(loom)]
mod imp {
    pub use loom::sync::atomic::{AtomicI64, AtomicU64, Ordering};
    pub use loom::sync::Arc;
    pub(crate) type Mutex<T> = loom::sync::Mutex<T>;
    pub(crate) type MutexGuard<'a, T> = loom::sync::MutexGuard<'a, T>;
    pub(crate) type RwLock<T> = loom::sync::RwLock<T>;
    pub(crate) type RwLockReadGuard<'a, T> = loom::sync::RwLockReadGuard<'a, T>;
    pub(crate) type RwLockWriteGuard<'a, T> = loom::sync::RwLockWriteGuard<'a, T>;

    // A panicked holder aborts the loom model anyway; recover the guard
    // rather than double-panicking.
    pub(crate) fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
        mutex.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    pub(crate) fn read<T>(lock: &RwLock<T>) -> RwLockReadGuard<'_, T> {
        lock.read().unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    pub(crate) fn write<T>(lock: &RwLock<T>) -> RwLockWriteGuard<'_, T> {
        lock.write().unwrap_or_else(std::sync::PoisonError::into_inner)
    }
}

#[cfg(not(loom))]
mod imp {
    pub use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
    pub use std::sync::Arc;
    pub(crate) type Mutex<T> = std::sync::Mutex<T>;
    pub(crate) type MutexGuard<'a, T> = std::sync::MutexGuard<'a, T>;
    pub(crate) type RwLock<T> = std::sync::RwLock<T>;
    pub(crate) type RwLockReadGuard<'a, T> = std::sync::RwLockReadGuard<'a, T>;
    pub(crate) type RwLockWriteGuard<'a, T> = std::sync::RwLockWriteGuard<'a, T>;

    // Poison recovery: the value may be mid-update, but every consumer
    // (metrics registry, trace ring, broker state) prefers a possibly
    // stale value over a permanently wedged pipeline.
    pub(crate) fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
        mutex.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    pub(crate) fn read<T>(lock: &RwLock<T>) -> RwLockReadGuard<'_, T> {
        lock.read().unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    pub(crate) fn write<T>(lock: &RwLock<T>) -> RwLockWriteGuard<'_, T> {
        lock.write().unwrap_or_else(std::sync::PoisonError::into_inner)
    }
}

pub use imp::{Arc, AtomicI64, AtomicU64, Ordering};

/// A mutual-exclusion lock carrying a lock rank (DESIGN.md §14).
///
/// `rank` and `name` come from the lock's `// lock:rank(name, N)`
/// annotation; the lint (`xtask`, pass L6) keeps the two in agreement.
/// The rank is enforced at runtime by the debug-build [`witness`]; in
/// release builds the wrapper stores only the inner lock.
pub struct Mutex<T> {
    #[cfg(all(debug_assertions, not(loom)))]
    rank: u16,
    #[cfg(all(debug_assertions, not(loom)))]
    name: &'static str,
    inner: imp::Mutex<T>,
}

impl<T> Mutex<T> {
    /// Creates a ranked mutex. `rank` and `name` must match the
    /// declaration's `// lock:rank(name, N)` annotation (checked by L6).
    #[cfg(not(loom))]
    #[cfg_attr(not(debug_assertions), allow(unused_variables))]
    pub const fn new(rank: u16, name: &'static str, value: T) -> Self {
        Mutex {
            #[cfg(debug_assertions)]
            rank,
            #[cfg(debug_assertions)]
            name,
            inner: imp::Mutex::new(value),
        }
    }

    /// Creates a ranked mutex (loom backend: not `const`, witness off —
    /// loom's own exhaustive scheduler covers ordering there).
    #[cfg(loom)]
    pub fn new(rank: u16, name: &'static str, value: T) -> Self {
        let _ = (rank, name);
        Mutex { inner: imp::Mutex::new(value) }
    }

    /// Acquires the lock, blocking the current thread.
    ///
    /// # Panics
    ///
    /// With the witness armed (`MULTIPUB_LOCK_WITNESS=1`, debug builds),
    /// panics if this thread already holds a lock of rank ≥ this one.
    pub fn lock(&self) -> MutexGuard<'_, T> {
        // Witness first: report the ordering violation *before* blocking
        // on the inner lock, so a real deadlock becomes a panic instead.
        #[cfg(all(debug_assertions, not(loom)))]
        let token = witness::acquire(self.rank, self.name);
        MutexGuard {
            inner: imp::lock(&self.inner),
            #[cfg(all(debug_assertions, not(loom)))]
            _token: token,
        }
    }
}

impl<T> fmt::Debug for Mutex<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        #[cfg(all(debug_assertions, not(loom)))]
        {
            write!(f, "Mutex({}#{})", self.name, self.rank)
        }
        #[cfg(not(all(debug_assertions, not(loom))))]
        {
            f.pad("Mutex { .. }")
        }
    }
}

/// RAII guard for [`Mutex::lock`]; releases the witness entry on drop.
pub struct MutexGuard<'a, T> {
    inner: imp::MutexGuard<'a, T>,
    #[cfg(all(debug_assertions, not(loom)))]
    _token: witness::Token,
}

impl<T> Deref for MutexGuard<'_, T> {
    type Target = T;

    fn deref(&self) -> &T {
        &self.inner
    }
}

impl<T> DerefMut for MutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.inner
    }
}

impl<T: fmt::Debug> fmt::Debug for MutexGuard<'_, T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        (**self).fmt(f)
    }
}

/// A reader-writer lock carrying a lock rank (DESIGN.md §14).
///
/// Read and write acquisitions both count against the rank discipline:
/// a read guard can deadlock a same-thread writer (and, with a writer
/// queued between two reads, even a second reader), so the witness makes
/// no distinction.
pub struct RwLock<T> {
    #[cfg(all(debug_assertions, not(loom)))]
    rank: u16,
    #[cfg(all(debug_assertions, not(loom)))]
    name: &'static str,
    inner: imp::RwLock<T>,
}

impl<T> RwLock<T> {
    /// Creates a ranked reader-writer lock. `rank` and `name` must match
    /// the declaration's `// lock:rank(name, N)` annotation (L6).
    #[cfg(not(loom))]
    #[cfg_attr(not(debug_assertions), allow(unused_variables))]
    pub const fn new(rank: u16, name: &'static str, value: T) -> Self {
        RwLock {
            #[cfg(debug_assertions)]
            rank,
            #[cfg(debug_assertions)]
            name,
            inner: imp::RwLock::new(value),
        }
    }

    /// Creates a ranked reader-writer lock (loom backend).
    #[cfg(loom)]
    pub fn new(rank: u16, name: &'static str, value: T) -> Self {
        let _ = (rank, name);
        RwLock { inner: imp::RwLock::new(value) }
    }

    /// Acquires shared read access.
    ///
    /// # Panics
    ///
    /// With the witness armed, panics if this thread already holds a
    /// lock of rank ≥ this one (reads included — see the type docs).
    pub fn read(&self) -> RwLockReadGuard<'_, T> {
        #[cfg(all(debug_assertions, not(loom)))]
        let token = witness::acquire(self.rank, self.name);
        RwLockReadGuard {
            inner: imp::read(&self.inner),
            #[cfg(all(debug_assertions, not(loom)))]
            _token: token,
        }
    }

    /// Acquires exclusive write access.
    ///
    /// # Panics
    ///
    /// With the witness armed, panics if this thread already holds a
    /// lock of rank ≥ this one.
    pub fn write(&self) -> RwLockWriteGuard<'_, T> {
        #[cfg(all(debug_assertions, not(loom)))]
        let token = witness::acquire(self.rank, self.name);
        RwLockWriteGuard {
            inner: imp::write(&self.inner),
            #[cfg(all(debug_assertions, not(loom)))]
            _token: token,
        }
    }
}

impl<T> fmt::Debug for RwLock<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        #[cfg(all(debug_assertions, not(loom)))]
        {
            write!(f, "RwLock({}#{})", self.name, self.rank)
        }
        #[cfg(not(all(debug_assertions, not(loom))))]
        {
            f.pad("RwLock { .. }")
        }
    }
}

/// RAII guard for [`RwLock::read`]; releases the witness entry on drop.
pub struct RwLockReadGuard<'a, T> {
    inner: imp::RwLockReadGuard<'a, T>,
    #[cfg(all(debug_assertions, not(loom)))]
    _token: witness::Token,
}

impl<T> Deref for RwLockReadGuard<'_, T> {
    type Target = T;

    fn deref(&self) -> &T {
        &self.inner
    }
}

impl<T: fmt::Debug> fmt::Debug for RwLockReadGuard<'_, T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        (**self).fmt(f)
    }
}

/// RAII guard for [`RwLock::write`]; releases the witness entry on drop.
pub struct RwLockWriteGuard<'a, T> {
    inner: imp::RwLockWriteGuard<'a, T>,
    #[cfg(all(debug_assertions, not(loom)))]
    _token: witness::Token,
}

impl<T> Deref for RwLockWriteGuard<'_, T> {
    type Target = T;

    fn deref(&self) -> &T {
        &self.inner
    }
}

impl<T> DerefMut for RwLockWriteGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.inner
    }
}

impl<T: fmt::Debug> fmt::Debug for RwLockWriteGuard<'_, T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        (**self).fmt(f)
    }
}

#[cfg(all(test, not(loom)))]
mod tests {
    use super::*;

    #[test]
    fn mutex_roundtrip() {
        let mutex = Mutex::new(10, "test.roundtrip", 41);
        *mutex.lock() += 1;
        assert_eq!(*mutex.lock(), 42);
    }

    #[test]
    fn rwlock_roundtrip() {
        let lock = RwLock::new(20, "test.rw", String::from("a"));
        lock.write().push('b');
        assert_eq!(*lock.read(), "ab");
    }

    #[test]
    fn const_constructible_in_statics() {
        static COUNTER: Mutex<u64> = Mutex::new(30, "test.static", 0);
        *COUNTER.lock() += 1;
        assert!(*COUNTER.lock() >= 1);
    }

    #[test]
    fn debug_impls_do_not_lock() {
        let mutex = Mutex::new(10, "test.debug", 0u8);
        let _guard = mutex.lock();
        // Formatting while the lock is held must not deadlock.
        let printed = format!("{mutex:?}");
        assert!(printed.contains("Mutex"));
    }
}
