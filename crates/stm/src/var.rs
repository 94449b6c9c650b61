//! Transactional variables.
//!
//! A [`TVar<T>`] is a typed handle to a [`VarCore`]: a versioned, lockable
//! cell holding the committed value. The design follows TL2:
//!
//! * `version` is an even/odd word — even values are the commit timestamp of
//!   the current value, an odd value means a committing transaction holds
//!   the cell's write lock.
//! * the committed value is stored as an `Arc<dyn Any + Send + Sync>` in a
//!   lock-free [`SnapshotCell`]: an atomic pointer published under the
//!   version seqlock and reclaimed via epochs (see `snapshot.rs`). Readers
//!   take a consistent (version-stable) snapshot by borrowing the value
//!   under an epoch pin — no lock, no refcount, no shared write at all.
//!
//! Nothing else: a `retry` waiter polls `version`, so no variable keeps a
//! list of who waits on it.
//!
//! Values must be `Clone`: a read hands the transaction its own copy. For
//! large payloads, store `Arc<T>` inside the `TVar` so clones are cheap —
//! this mirrors the paper's advice that deferrable buffers be encapsulated
//! behind handles.

use ad_support::sync::atomic::{AtomicU64, Ordering};
use std::any::Any;
use std::marker::PhantomData;
use std::sync::Arc;

use crate::clock;
use crate::snapshot::{EpochGuard, Pinned, SnapshotCell};

/// Type-erased committed value.
pub(crate) type Value = Arc<dyn Any + Send + Sync>;

/// Helper to build a [`Value`] from a concrete type.
pub(crate) fn new_value<T: Any + Send + Sync>(v: T) -> Value {
    Arc::new(v)
}

/// The untyped core of a transactional variable.
pub(crate) struct VarCore {
    /// Even = commit timestamp of `value`; odd = write-locked.
    version: AtomicU64,
    /// The committed value: a lock-free atomic pointer, paired with
    /// `version` by the seqlock read protocol in [`read`](Self::read).
    value: SnapshotCell,
}

impl VarCore {
    pub(crate) fn new(initial: Value) -> Arc<Self> {
        Arc::new(VarCore {
            version: AtomicU64::new(clock::now()),
            value: SnapshotCell::new(initial),
        })
    }

    /// Stable identity used as read/write-set key.
    #[inline]
    pub(crate) fn id(self: &Arc<Self>) -> usize {
        Arc::as_ptr(self) as usize
    }

    /// The cell holding the committed value (its address identifies the
    /// variable a [`Pinned`] read came from).
    pub(crate) fn cell(&self) -> &SnapshotCell {
        &self.value
    }

    /// Current version word, for validation and watch lists.
    ///
    /// `Acquire` (not `SeqCst`) is enough for TL2 validation: a validator
    /// that observes an even version equal to the one it recorded needs to
    /// know the value it read earlier has not been superseded by a commit
    /// ordered before this load. Every commit stores the new version with
    /// `Release` *after* publishing the value, so an `Acquire` load that
    /// sees version `v` also sees the value committed at `v`; and a commit
    /// that *has* happened but is not yet visible here would carry a
    /// version `> v` or an odd lock word — either of which fails the
    /// comparison and aborts, which is always safe.
    #[inline]
    pub(crate) fn version(&self) -> u64 {
        self.version.load(Ordering::Acquire)
    }

    /// Take a version-consistent snapshot under `pin`: returns
    /// `(version, value)` such that `value` was the committed value at
    /// `version` and `version` is even. The value is borrowed, not cloned,
    /// for as long as `pin` and `self` live. Spins across concurrent commit
    /// write-backs (which are short).
    ///
    /// Lock-free and write-free: the value load is a single `Acquire`
    /// pointer read under the even/odd seqlock. If a writer swaps the
    /// pointer between `v1` and `v2`, the writer's preceding lock CAS (odd
    /// version) or its final version stamp is visible by the time the new
    /// pointer is (both are ordered before the `Release`-swapped pointer),
    /// so `v2 != v1` and the read retries.
    #[inline]
    pub(crate) fn read<'a>(&'a self, pin: &'a EpochGuard) -> (u64, Pinned<'a>) {
        loop {
            let v1 = self.version.load(Ordering::Acquire);
            if clock::is_locked(v1) {
                std::hint::spin_loop();
                continue;
            }
            let val = self.value.load(pin);
            let v2 = self.version.load(Ordering::Acquire);
            if v1 == v2 {
                return (v1, val);
            }
        }
    }

    /// Attempt to write-lock the cell for commit. On success returns the
    /// pre-lock (even) version, which the committer uses both for read-set
    /// validation and to restore on abort.
    pub(crate) fn try_lock(&self) -> Option<u64> {
        let v = self.version.load(Ordering::Acquire);
        if clock::is_locked(v) {
            return None;
        }
        self.version
            .compare_exchange(v, v | 1, Ordering::AcqRel, Ordering::Relaxed)
            .ok()
            .map(|_| v)
    }

    /// Undo `try_lock` without changing the value (commit failed
    /// validation).
    pub(crate) fn unlock_restore(&self, pre_lock_version: u64) {
        debug_assert!(!clock::is_locked(pre_lock_version));
        self.version.store(pre_lock_version, Ordering::Release);
    }

    /// Install a new committed value and release the write lock, stamping
    /// the cell with write version `wv`. Caller must hold the lock (odd
    /// version).
    pub(crate) fn write_back(&self, val: Value, wv: u64) {
        debug_assert!(clock::is_locked(self.version.load(Ordering::Relaxed)));
        debug_assert!(!clock::is_locked(wv));
        // Holding the version lock satisfies `SnapshotCell::store`'s
        // single-writer contract; the subsequent `Release` version stamp
        // publishes value and version together for `read`.
        self.value.store(val);
        self.version.store(wv, Ordering::Release);
    }

    /// Uninstrumented write used by serial/irrevocable transactions and by
    /// non-transactional `TVar::store`. Serial mode is exclusive, and
    /// non-transactional stores still follow the lock protocol, so
    /// concurrent speculative readers remain correct: they either see the
    /// old version or the new one, never a mix.
    pub(crate) fn direct_write(&self, val: Value) -> u64 {
        // Spin until we own the cell (contention here is rare: commit
        // write-backs and competing direct stores).
        let pre = loop {
            if let Some(pre) = self.try_lock() {
                break pre;
            }
            std::hint::spin_loop();
        };
        // The commit clock, taken after the lock like a committer's: the
        // stamp is unique and exceeds `pre` (clock.rs module docs).
        let wv = clock::tick();
        debug_assert!(wv > pre);
        self.write_back(val, wv);
        wv
    }

    #[cfg(all(test, not(loom)))]
    pub(crate) fn force_version_for_test(&self, v: u64) {
        self.version.store(v, Ordering::SeqCst);
    }
}

/// A typed transactional variable.
///
/// Cloning a `TVar` clones the *handle*; both handles refer to the same
/// cell. All access from inside transactions goes through
/// [`Tx::read`](crate::Tx::read) / [`Tx::write`](crate::Tx::write);
/// [`TVar::load`] and [`TVar::store`] provide single-variable
/// non-transactional access (safe at any time, linearizable per variable)
/// for use outside transactions — e.g. from deferred operations that hold
/// the protecting `TxLock`.
pub struct TVar<T> {
    core: Arc<VarCore>,
    _marker: PhantomData<fn() -> T>,
}

impl<T> Clone for TVar<T> {
    fn clone(&self) -> Self {
        TVar {
            core: Arc::clone(&self.core),
            _marker: PhantomData,
        }
    }
}

impl<T: Any + Send + Sync + Clone> TVar<T> {
    /// Create a new transactional variable holding `initial`.
    pub fn new(initial: T) -> Self {
        TVar {
            core: VarCore::new(new_value(initial)),
            _marker: PhantomData,
        }
    }

    /// Non-transactional consistent read of this single variable.
    pub fn load(&self) -> T {
        // A pin of its own: a depth increment inside a transaction attempt.
        let pin = crate::snapshot::pin_scope();
        let (_, val) = self.core.read(&pin);
        downcast::<T>(&val)
    }

    /// Non-transactional write. Follows the version-lock protocol and bumps
    /// the global clock, so concurrent transactions that read this variable
    /// detect the change (their validation fails) and `retry`-waiters see
    /// it — exactly the behaviour deferred operations rely on when they
    /// update fields of a locked deferrable object.
    pub fn store(&self, v: T) {
        self.core.direct_write(new_value(v));
        // Reclamation safe point (snapshot.rs invariant 5): `write_back`
        // restored an even version word before we got here, so freed
        // values may run user Drop code without deadlocking on this cell.
        // Serial in-transaction writes reach `direct_write` without this
        // flush (tx.rs) and drain at the runner's post-commit safe point.
        crate::snapshot::flush();
    }

    /// Read-modify-write convenience built on [`load`](Self::load)/
    /// [`store`](Self::store). **Not** atomic with respect to other writers;
    /// callers must hold the protecting `TxLock` (the deferred-operation
    /// contract) or otherwise have exclusive write access.
    pub fn update_locked(&self, f: impl FnOnce(T) -> T) {
        let cur = self.load();
        self.store(f(cur));
    }
}

impl<T> TVar<T> {
    /// Stable identity of the underlying cell (useful for debugging and for
    /// keying auxiliary tables).
    pub fn id(&self) -> usize {
        self.core.id()
    }

    pub(crate) fn core(&self) -> &Arc<VarCore> {
        &self.core
    }
}

impl<T: Any + Send + Sync + Clone + Default> Default for TVar<T> {
    fn default() -> Self {
        TVar::new(T::default())
    }
}

impl<T> std::fmt::Debug for TVar<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TVar")
            .field("id", &(Arc::as_ptr(&self.core) as usize))
            .field("version", &self.core.version())
            .finish()
    }
}

/// Downcast a type-erased value to `T` and clone it out.
///
/// Panics only on an internal invariant violation (a `TVar<T>` cell can only
/// ever hold values written through `TVar<T>`).
pub(crate) fn downcast<T: Any + Send + Sync + Clone>(val: &Value) -> T {
    val.downcast_ref::<T>()
        .expect("ad-stm internal error: TVar value has wrong type")
        .clone()
}

#[cfg(all(test, not(loom)))]
mod tests {
    use super::*;

    #[test]
    fn load_store_roundtrip() {
        let v = TVar::new(41u64);
        assert_eq!(v.load(), 41);
        v.store(42);
        assert_eq!(v.load(), 42);
    }

    #[test]
    fn store_bumps_version() {
        let v = TVar::new(0u8);
        let before = v.core().version();
        v.store(1);
        assert!(v.core().version() > before);
        assert_eq!(v.core().version() % 2, 0);
    }

    #[test]
    fn clone_aliases_same_cell() {
        let a = TVar::new(String::from("x"));
        let b = a.clone();
        a.store(String::from("y"));
        assert_eq!(b.load(), "y");
        assert_eq!(a.id(), b.id());
    }

    #[test]
    fn try_lock_and_restore() {
        let v = TVar::new(7i32);
        let core = Arc::clone(v.core());
        let pre = core.try_lock().expect("unlocked cell must lock");
        assert!(core.try_lock().is_none(), "double lock must fail");
        core.unlock_restore(pre);
        assert_eq!(core.version(), pre);
        assert_eq!(v.load(), 7);
    }

    #[test]
    fn write_back_installs_value_and_version() {
        let v = TVar::new(1u32);
        let core = Arc::clone(v.core());
        core.try_lock().unwrap();
        let wv = clock::tick();
        core.write_back(new_value(99u32), wv);
        assert_eq!(v.load(), 99);
        assert_eq!(core.version(), wv);
    }

    #[test]
    fn update_locked_applies_function() {
        let v = TVar::new(10u64);
        v.update_locked(|x| x * 3);
        assert_eq!(v.load(), 30);
    }

    #[test]
    fn concurrent_nontransactional_stores_never_tear() {
        // Store (i, i) pairs from many threads; readers must never observe
        // a mixed pair.
        let v = TVar::new((0u64, 0u64));
        let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let mut writers = Vec::new();
        for t in 0..4u64 {
            let v = v.clone();
            let stop = Arc::clone(&stop);
            writers.push(std::thread::spawn(move || {
                let mut i = t;
                while !stop.load(Ordering::Relaxed) {
                    v.store((i, i));
                    i += 4;
                }
            }));
        }
        for _ in 0..50_000 {
            let (a, b) = v.load();
            assert_eq!(a, b, "torn read observed");
        }
        stop.store(true, Ordering::Relaxed);
        for w in writers {
            w.join().unwrap();
        }
    }

    #[test]
    fn transactional_and_nontransactional_stamps_never_collide() {
        // Non-transactional stores and commits draw from the one clock
        // word, so no stamp is handed out twice (clock.rs module docs).
        let mut stamps: Vec<u64> = std::thread::scope(|s| {
            let workers: Vec<_> = (0..4)
                .map(|_| {
                    s.spawn(|| {
                        let v = TVar::new(0u64);
                        (0..20_000u64)
                            .map(|i| {
                                if i % 2 == 0 {
                                    v.core().direct_write(new_value(i))
                                } else {
                                    clock::tick()
                                }
                            })
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            workers
                .into_iter()
                .flat_map(|w| w.join().unwrap())
                .collect()
        });
        let total = stamps.len();
        stamps.sort_unstable();
        stamps.dedup();
        let dups = total - stamps.len();
        assert_eq!(dups, 0, "{dups} duplicate stamps");
    }

    #[test]
    fn a_var_core_is_two_words() {
        // The version word and the value pointer, and nothing else: no
        // variable carries a list of the transactions waiting on it.
        assert_eq!(std::mem::size_of::<VarCore>(), 16);
    }

    #[test]
    fn default_tvar() {
        let v: TVar<Vec<u8>> = TVar::default();
        assert!(v.load().is_empty());
    }

    #[test]
    fn debug_formatting_mentions_version() {
        let v = TVar::new(0u8);
        let s = format!("{v:?}");
        assert!(s.contains("TVar"));
        assert!(s.contains("version"));
    }
}
