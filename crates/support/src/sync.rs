//! `parking_lot`-flavoured synchronization primitives over `std::sync`,
//! plus the [`atomic`] facade — with a `--cfg loom` face for model checking.
//!
//! The workspace was written against `parking_lot`'s API: `lock()` returns
//! the guard directly (no `Result`), and `Condvar::wait` takes `&mut
//! MutexGuard`. With no registry access, we provide the same calling
//! convention over the standard library. Poisoning is deliberately ignored
//! (`parking_lot` has none): a panic while holding a lock propagates to the
//! panicking thread, and other threads simply continue with the data as the
//! panicking thread left it — exactly the semantics the callers were
//! written for.
//!
//! ## The facade contract
//!
//! Concurrency-critical code in `ad-stm`/`ad-defer` must reach atomics and
//! locks through this module (`ad_support::sync::{atomic, Mutex, RwLock,
//! Condvar}`), never `std::sync` directly — `ad-lint`'s `raw-atomic` rule
//! enforces this for `crates/stm`. In a normal build everything here is a
//! zero-cost re-export/thin wrapper of `std`; under `RUSTFLAGS="--cfg
//! loom"` the same paths resolve to the instrumented [`crate::model`]
//! primitives, so the `verify` model suites explore interleavings of the
//! *production* code, not a copy of it.

/// Atomic types and fences for concurrency-critical code.
///
/// Normal builds: a verbatim re-export of [`std::sync::atomic`] — the
/// facade compiles away completely. `--cfg loom` builds: the instrumented
/// [`crate::model::atomic`] types, where every operation is a scheduling
/// point executed at `SeqCst` (the model explores sequentially consistent
/// interleavings; see the [`crate::model`] docs for the precise guarantee).
#[cfg(not(loom))]
pub mod atomic {
    pub use std::sync::atomic::*;
}

#[cfg(loom)]
pub use crate::model::atomic;

#[cfg(loom)]
pub use crate::model::sync::{
    Condvar, Mutex, MutexGuard, RwLock, RwLockReadGuard, RwLockWriteGuard,
};

#[cfg(not(loom))]
pub use std_impl::{Condvar, Mutex, MutexGuard, RwLock, RwLockReadGuard, RwLockWriteGuard};

#[cfg(not(loom))]
mod std_impl {
    use std::ops::{Deref, DerefMut};
    use std::sync;

    /// Recover the guard from a poisoned lock: parking_lot-style "ignore
    /// poisoning" semantics.
    fn unpoison<G>(r: Result<G, sync::PoisonError<G>>) -> G {
        r.unwrap_or_else(sync::PoisonError::into_inner)
    }

    /// A mutual-exclusion lock with `parking_lot`'s calling convention.
    pub struct Mutex<T: ?Sized>(sync::Mutex<T>);

    /// RAII guard for [`Mutex`]. The `Option` dance exists so
    /// [`Condvar::wait`] can temporarily take ownership of the inner std guard
    /// in safe code; it is always `Some` outside that window.
    pub struct MutexGuard<'a, T: ?Sized>(Option<sync::MutexGuard<'a, T>>);

    impl<T> Mutex<T> {
        /// Create a new mutex.
        pub const fn new(value: T) -> Self {
            Mutex(sync::Mutex::new(value))
        }

        /// Consume the mutex, returning the inner value.
        pub fn into_inner(self) -> T {
            unpoison(self.0.into_inner())
        }
    }

    impl<T: ?Sized> Mutex<T> {
        /// Acquire the lock, blocking until available.
        pub fn lock(&self) -> MutexGuard<'_, T> {
            MutexGuard(Some(unpoison(self.0.lock())))
        }

        /// Try to acquire the lock without blocking.
        pub fn try_lock(&self) -> Option<MutexGuard<'_, T>> {
            match self.0.try_lock() {
                Ok(g) => Some(MutexGuard(Some(g))),
                Err(sync::TryLockError::Poisoned(p)) => Some(MutexGuard(Some(p.into_inner()))),
                Err(sync::TryLockError::WouldBlock) => None,
            }
        }

        /// Mutable access without locking (requires exclusive ownership).
        pub fn get_mut(&mut self) -> &mut T {
            unpoison(self.0.get_mut())
        }
    }

    impl<T: Default> Default for Mutex<T> {
        fn default() -> Self {
            Mutex::new(T::default())
        }
    }

    impl<T: ?Sized + std::fmt::Debug> std::fmt::Debug for Mutex<T> {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            self.0.fmt(f)
        }
    }

    impl<T: ?Sized> Deref for MutexGuard<'_, T> {
        type Target = T;
        fn deref(&self) -> &T {
            self.0.as_deref().expect("guard taken during condvar wait")
        }
    }

    impl<T: ?Sized> DerefMut for MutexGuard<'_, T> {
        fn deref_mut(&mut self) -> &mut T {
            self.0
                .as_deref_mut()
                .expect("guard taken during condvar wait")
        }
    }

    /// A reader-writer lock with `parking_lot`'s calling convention.
    pub struct RwLock<T: ?Sized>(sync::RwLock<T>);

    /// Shared-access RAII guard for [`RwLock`].
    pub struct RwLockReadGuard<'a, T: ?Sized>(sync::RwLockReadGuard<'a, T>);
    /// Exclusive-access RAII guard for [`RwLock`].
    pub struct RwLockWriteGuard<'a, T: ?Sized>(sync::RwLockWriteGuard<'a, T>);

    impl<T> RwLock<T> {
        /// Create a new reader-writer lock.
        pub const fn new(value: T) -> Self {
            RwLock(sync::RwLock::new(value))
        }
    }

    impl<T: ?Sized> RwLock<T> {
        /// Acquire shared access.
        pub fn read(&self) -> RwLockReadGuard<'_, T> {
            RwLockReadGuard(unpoison(self.0.read()))
        }

        /// Acquire exclusive access.
        pub fn write(&self) -> RwLockWriteGuard<'_, T> {
            RwLockWriteGuard(unpoison(self.0.write()))
        }

        /// Try to acquire shared access without blocking.
        pub fn try_read(&self) -> Option<RwLockReadGuard<'_, T>> {
            match self.0.try_read() {
                Ok(g) => Some(RwLockReadGuard(g)),
                Err(sync::TryLockError::Poisoned(p)) => Some(RwLockReadGuard(p.into_inner())),
                Err(sync::TryLockError::WouldBlock) => None,
            }
        }

        /// Try to acquire exclusive access without blocking.
        pub fn try_write(&self) -> Option<RwLockWriteGuard<'_, T>> {
            match self.0.try_write() {
                Ok(g) => Some(RwLockWriteGuard(g)),
                Err(sync::TryLockError::Poisoned(p)) => Some(RwLockWriteGuard(p.into_inner())),
                Err(sync::TryLockError::WouldBlock) => None,
            }
        }
    }

    impl<T: Default> Default for RwLock<T> {
        fn default() -> Self {
            RwLock::new(T::default())
        }
    }

    impl<T: ?Sized> Deref for RwLockReadGuard<'_, T> {
        type Target = T;
        fn deref(&self) -> &T {
            &self.0
        }
    }

    impl<T: ?Sized> Deref for RwLockWriteGuard<'_, T> {
        type Target = T;
        fn deref(&self) -> &T {
            &self.0
        }
    }

    impl<T: ?Sized> DerefMut for RwLockWriteGuard<'_, T> {
        fn deref_mut(&mut self) -> &mut T {
            &mut self.0
        }
    }

    /// A condition variable usable with [`MutexGuard`], `parking_lot`-style:
    /// `wait` takes `&mut MutexGuard` and re-acquires the lock before returning.
    #[derive(Default)]
    pub struct Condvar(sync::Condvar);

    impl Condvar {
        /// Create a new condition variable.
        pub const fn new() -> Self {
            Condvar(sync::Condvar::new())
        }

        /// Atomically release the guarded mutex and wait for a notification;
        /// the lock is re-acquired before returning. Spurious wakeups are
        /// possible, as with any condvar — callers loop on their predicate.
        pub fn wait<T>(&self, guard: &mut MutexGuard<'_, T>) {
            let inner = guard.0.take().expect("guard already taken");
            guard.0 = Some(unpoison(self.0.wait(inner)));
        }

        /// Wake one waiting thread.
        pub fn notify_one(&self) {
            self.0.notify_one();
        }

        /// Wake all waiting threads.
        pub fn notify_all(&self) {
            self.0.notify_all();
        }
    }
}

#[cfg(all(test, not(loom)))]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::time::Duration;

    #[test]
    fn mutex_roundtrip() {
        let m = Mutex::new(1);
        *m.lock() += 1;
        assert_eq!(*m.lock(), 2);
        assert!(m.try_lock().is_some());
    }

    #[test]
    fn rwlock_shared_and_exclusive() {
        let l = RwLock::new(5);
        {
            let a = l.read();
            let b = l.read();
            assert_eq!(*a + *b, 10);
        }
        *l.write() = 7;
        assert_eq!(*l.read(), 7);
    }

    #[test]
    fn condvar_signals_across_threads() {
        let pair = Arc::new((Mutex::new(false), Condvar::new()));
        let p2 = Arc::clone(&pair);
        let h = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(20));
            *p2.0.lock() = true;
            p2.1.notify_one();
        });
        let (lock, cv) = &*pair;
        let mut ready = lock.lock();
        while !*ready {
            cv.wait(&mut ready);
        }
        drop(ready);
        h.join().unwrap();
    }

    #[test]
    fn poisoned_lock_is_recovered() {
        let m = Arc::new(Mutex::new(41));
        let m2 = Arc::clone(&m);
        let _ = std::thread::spawn(move || {
            let _g = m2.lock();
            panic!("poison it");
        })
        .join();
        *m.lock() += 1;
        assert_eq!(*m.lock(), 42);
    }

    #[test]
    fn atomic_facade_is_std() {
        // In a non-loom build the facade types must *be* the std types
        // (zero-cost passthrough): an `atomic::AtomicU64` coerces to
        // `&std::sync::atomic::AtomicU64` with no conversion.
        let a = atomic::AtomicU64::new(3);
        let r: &std::sync::atomic::AtomicU64 = &a;
        assert_eq!(r.load(std::sync::atomic::Ordering::SeqCst), 3);
        atomic::fence(atomic::Ordering::SeqCst);
    }
}
