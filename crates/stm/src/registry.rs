//! Thread activity registry: quiescence, the serial handshake, and the
//! per-thread counters.
//!
//! The C++ TMTS does not segregate transactional from non-transactional
//! memory, so an STM must solve the *privatization problem* (paper §2): a
//! writer that commits must wait — *quiesce* — until every transaction that
//! started before its commit has finished, before its thread may touch
//! privatized data non-transactionally. The paper's Figure 1 shows how this
//! makes one long transaction stall completely unrelated threads, which is
//! precisely the pathology atomic deferral removes.
//!
//! Implementation: each thread owns an [`ActivitySlot`] per runtime holding
//! the read version (`rv`) of its in-flight transaction, or `INACTIVE`, and
//! the thread's hot counters ([`ThreadCounters`]). The slot is padded by a
//! cache line on each side and only its owner writes it, so a transaction
//! that reads nothing shared writes nothing shared.
//!
//! * **Quiescence.** A committing writer with write version `wv` spins
//!   until no other slot holds a value `< wv`. It walks a copy of the slot
//!   list that its thread keeps per runtime ([`Local`]), re-taken only when
//!   the registry's generation word has moved — read after the writer's
//!   `tick`, so a slot registered later belongs to a transaction that
//!   starts at `rv >= wv` and needs no wait. No lock and no `Arc` clone on
//!   the commit path.
//! * **The serial handshake.** An irrevocable transaction must run alone.
//!   A speculative attempt publishes its slot (`SeqCst`), then loads the
//!   runtime's `serial` flag (`SeqCst`); while the flag is set it clears
//!   its slot and waits. An irrevocable transaction takes the serial mutex,
//!   sets the flag (`SeqCst`), then waits until every other slot is
//!   `INACTIVE`. Of the two store→load pairs at least one thread sees the
//!   other's store, so no speculative attempt overlaps an irrevocable one
//!   (`verify::serial_model`). This replaces a reader-writer lock whose
//!   reader count every transaction wrote.
//! * **Counters.** `Runtime::stats` sums the live slots' counters with the
//!   counts folded in from threads that have exited (a thread's slot leaves
//!   the registry with it).
//!
//! Memory-safety note: in this Rust STM, values live behind `Arc`s, so
//! skipping quiescence can never cause a use-after-free — quiescence here
//! reproduces the *performance semantics* of a C/C++ STM (and programs may
//! still rely on it for logical privatization). It is switchable per
//! runtime for the quiescence ablation benchmark.

use ad_support::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::cell::RefCell;
use std::rc::Rc;
use std::sync::{Arc, Weak};
use std::time::Instant;

use ad_support::sync::{Mutex, MutexGuard};

use crate::fxhash::FxHashMap;
use crate::stats::{Stats, StatsReport, StatsSnapshot, ThreadCounters};

/// Sentinel meaning "no transaction in flight on this thread".
pub(crate) const INACTIVE: u64 = u64::MAX;

/// `T` with a cache line of padding on each side, so no other
/// allocation shares a line with it. Padding, not
/// `#[repr(align(128))]`: an over-aligned allocation takes the
/// allocator's aligned path, and with it every benchmark set-up (which
/// creates runtimes and their slots) ran measurably slower.
#[repr(C)]
pub(crate) struct Padded<T> {
    _front: [u64; 8],
    value: T,
    _back: [u64; 8],
}

impl<T> Padded<T> {
    pub(crate) fn new(value: T) -> Self {
        Padded {
            _front: [0; 8],
            value,
            _back: [0; 8],
        }
    }
}

impl<T: Default> Default for Padded<T> {
    fn default() -> Self {
        Padded::new(T::default())
    }
}

impl<T> std::ops::Deref for Padded<T> {
    type Target = T;

    #[inline]
    fn deref(&self) -> &T {
        &self.value
    }
}

/// A thread's slot as the registry holds it: padded, so no other slot
/// shares its lines.
pub(crate) type Slot = Arc<Padded<ActivitySlot>>;

/// One thread's slot in one runtime: its activity word and its counters.
/// Written only by its owner (but for a stats reset, which writes the
/// counters' baseline).
pub(crate) struct ActivitySlot {
    active: AtomicU64,
    pub(crate) counters: ThreadCounters,
}

impl ActivitySlot {
    fn new() -> Slot {
        Arc::new(Padded::new(ActivitySlot {
            active: AtomicU64::new(INACTIVE),
            counters: ThreadCounters::default(),
        }))
    }

    /// Publish that this thread runs a transaction with read version `rv`.
    #[inline]
    pub(crate) fn begin(&self, rv: u64) {
        self.active.store(rv, Ordering::SeqCst);
    }

    /// Update the published read version after a snapshot extension. A later
    /// snapshot means later writers need not wait for us (DESIGN.md §7).
    #[inline]
    pub(crate) fn extend(&self, rv: u64) {
        self.active.store(rv, Ordering::SeqCst);
    }

    /// Publish that the transaction finished (committed or aborted).
    ///
    /// Idempotent and cheap to call twice: the commit path ends the slot
    /// eagerly (before quiescing) and the panic-safety guard ends it again
    /// on scope exit. Only the owning thread stores to its slot, so the
    /// `Relaxed` self-read below is exact, and the second call skips the
    /// (comparatively expensive) SeqCst store.
    #[inline]
    pub(crate) fn end(&self) {
        if self.active.load(Ordering::Relaxed) != INACTIVE {
            self.active.store(INACTIVE, Ordering::SeqCst);
        }
    }

    #[inline]
    fn load(&self) -> u64 {
        self.active.load(Ordering::SeqCst)
    }
}

/// All activity slots of one runtime, its serial flag, and its counters.
#[derive(Default)]
pub(crate) struct Registry {
    slots: Mutex<Vec<Slot>>,
    /// Moves, under `slots`' lock, whenever a slot joins or leaves.
    generation: AtomicU64,
    /// Set while an irrevocable transaction runs or waits to run. Every
    /// attempt loads it, so it is padded: no other registry word (the
    /// counters' fold, the slot list's lock) may share its line.
    serial: Padded<AtomicBool>,
    /// Held by the irrevocable transaction that owns `serial`.
    serial_lock: Mutex<()>,
    pub(crate) stats: Stats,
}

/// What a thread keeps for one runtime: its slot, and quiescence's copy of
/// the other slots with the registry generation it was taken at. Dropped
/// at thread exit, which takes the slot out of the registry and folds its
/// counts into the runtime's.
pub(crate) struct Local {
    pub(crate) slot: Slot,
    registry: Weak<Registry>,
    others: RefCell<(u64, Vec<Slot>)>,
}

impl Drop for Local {
    fn drop(&mut self) {
        if let Some(reg) = self.registry.upgrade() {
            let mut slots = reg.slots.lock();
            slots.retain(|s| !Arc::ptr_eq(s, &self.slot));
            reg.stats.fold(&self.slot.counters);
            reg.generation.fetch_add(1, Ordering::SeqCst);
        }
    }
}

thread_local! {
    /// runtime-id -> this thread's [`Local`] for that runtime.
    static LOCALS: RefCell<FxHashMap<u64, Rc<Local>>> = RefCell::new(FxHashMap::default());
}

/// An irrevocable transaction's hold on the serial flag; clears it on drop.
pub(crate) struct SerialGuard<'a> {
    registry: &'a Registry,
    _lock: MutexGuard<'a, ()>,
}

impl Drop for SerialGuard<'_> {
    fn drop(&mut self) {
        self.registry.serial.store(false, Ordering::SeqCst);
    }
}

impl Registry {
    /// Get (registering on first use) the calling thread's [`Local`].
    pub(crate) fn local(self: &Arc<Self>, runtime_id: u64) -> Rc<Local> {
        LOCALS.with(|m| {
            let mut m = m.borrow_mut();
            if let Some(local) = m.get(&runtime_id) {
                return Rc::clone(local);
            }
            let slot = ActivitySlot::new();
            {
                let mut slots = self.slots.lock();
                slots.push(Arc::clone(&slot));
                self.generation.fetch_add(1, Ordering::SeqCst);
            }
            let local = Rc::new(Local {
                slot,
                registry: Arc::downgrade(self),
                others: RefCell::new((u64::MAX, Vec::new())),
            });
            m.insert(runtime_id, Rc::clone(&local));
            local
        })
    }

    /// Run `f` over every slot but `me`'s, from `me`'s copy of the list,
    /// re-taken if the generation moved. The caller's `SeqCst` store (its
    /// `tick`, or the serial flag) precedes the generation load, so a slot
    /// missing from the copy was registered after that store.
    fn with_others<R>(&self, me: &Local, f: impl FnOnce(&[Slot]) -> R) -> R {
        let mut others = me.others.borrow_mut();
        if self.generation.load(Ordering::SeqCst) != others.0 {
            let slots = self.slots.lock();
            others.0 = self.generation.load(Ordering::SeqCst);
            others.1.clear();
            others
                .1
                .extend(slots.iter().filter(|s| !Arc::ptr_eq(s, &me.slot)).cloned());
        }
        f(&others.1)
    }

    /// Wait until every *other* transaction that started before `wv` has
    /// finished. Returns the nanoseconds spent waiting.
    ///
    /// The caller must have already marked its own slot inactive (a
    /// committed writer is no hazard to anyone, and clearing first prevents
    /// two quiescing writers from deadlocking on each other).
    pub(crate) fn quiesce(&self, wv: u64, me: &Local) -> u64 {
        self.with_others(me, |slots| wait_until(slots, |v| v == INACTIVE || v >= wv))
    }

    /// Is an irrevocable transaction running or waiting to run? A
    /// speculative attempt asks after publishing its slot.
    #[inline]
    pub(crate) fn serial_pending(&self) -> bool {
        self.serial.load(Ordering::SeqCst)
    }

    /// Block until the irrevocable transaction that set the flag is done.
    pub(crate) fn wait_serial(&self) {
        drop(self.serial_lock.lock());
    }

    /// Become the one irrevocable transaction: take the serial mutex, set
    /// the flag, and wait until no other slot is active.
    pub(crate) fn enter_serial(&self, me: &Local) -> SerialGuard<'_> {
        let lock = self.serial_lock.lock();
        self.serial.store(true, Ordering::SeqCst);
        self.with_others(me, |slots| wait_until(slots, |v| v == INACTIVE));
        SerialGuard {
            registry: self,
            _lock: lock,
        }
    }

    /// The counters: the runtime's own plus every live thread's.
    pub(crate) fn snapshot(&self) -> StatsSnapshot {
        let slots = self.slots.lock();
        let mut s = self.stats.snapshot();
        for slot in slots.iter() {
            s.add_thread(&slot.counters);
        }
        s
    }

    /// [`snapshot`](Self::snapshot) with the histograms.
    pub(crate) fn report(&self) -> StatsReport {
        let mut r = self.stats.report();
        r.counters = self.snapshot();
        r
    }

    /// Zero the runtime's counters and every live thread's.
    pub(crate) fn reset_stats(&self) {
        let slots = self.slots.lock();
        self.stats.reset();
        for slot in slots.iter() {
            slot.counters.reset();
        }
    }

    #[cfg(test)]
    pub(crate) fn slot_count(&self) -> usize {
        self.slots.lock().len()
    }
}

/// Spin until `done` holds for every slot's activity word. Returns the
/// nanoseconds spent waiting; lazily timestamped, so only callers that
/// actually wait pay for the `Instant::now` clock_gettime.
fn wait_until(slots: &[Slot], done: impl Fn(u64) -> bool) -> u64 {
    let mut start: Option<Instant> = None;
    for slot in slots {
        let mut spins = 0u32;
        while !done(slot.load()) {
            start.get_or_insert_with(Instant::now);
            spins += 1;
            if spins < 128 {
                std::hint::spin_loop();
            } else {
                std::thread::yield_now();
            }
        }
    }
    match start {
        Some(s) => s.elapsed().as_nanos() as u64,
        None => 0,
    }
}

#[cfg(all(test, not(loom)))]
mod tests {
    use super::*;
    use std::time::Duration;

    /// A slot of another "thread", registered by hand.
    fn foreign_slot(r: &Registry) -> Slot {
        let slot = ActivitySlot::new();
        r.slots.lock().push(Arc::clone(&slot));
        r.generation.fetch_add(1, Ordering::SeqCst);
        slot
    }

    fn end_after(slot: &Slot, ms: u64) -> std::thread::JoinHandle<()> {
        let slot = Arc::clone(slot);
        std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(ms));
            slot.end();
        })
    }

    #[test]
    fn local_is_stable_per_thread() {
        let r = Arc::new(Registry::default());
        let a = r.local(7001);
        let b = r.local(7001);
        assert!(Arc::ptr_eq(&a.slot, &b.slot));
        assert_eq!(r.slot_count(), 1);
    }

    #[test]
    fn distinct_runtimes_get_distinct_slots() {
        let r1 = Arc::new(Registry::default());
        let r2 = Arc::new(Registry::default());
        let a = r1.local(7002);
        let b = r2.local(7003);
        assert!(!Arc::ptr_eq(&a.slot, &b.slot));
    }

    #[test]
    fn a_thread_leaves_the_registry_when_it_exits() {
        let r = Arc::new(Registry::default());
        let r2 = Arc::clone(&r);
        std::thread::spawn(move || {
            let me = r2.local(7008);
            me.slot.counters.bump(crate::stats::Hot::Commits);
        })
        .join()
        .unwrap();
        assert_eq!(r.slot_count(), 0);
        assert_eq!(
            r.snapshot().commits,
            1,
            "the exited thread's count was lost"
        );
    }

    #[test]
    fn quiesce_passes_when_alone() {
        let r = Arc::new(Registry::default());
        let me = r.local(7004);
        me.slot.end();
        let ns = r.quiesce(100, &me);
        assert_eq!(ns, 0);
    }

    #[test]
    fn quiesce_ignores_newer_transactions() {
        let r = Arc::new(Registry::default());
        let me = r.local(7005);
        me.slot.end();
        // Another "thread" running a transaction that started after wv.
        foreign_slot(&r).begin(200);
        let ns = r.quiesce(100, &me);
        assert_eq!(ns, 0);
    }

    #[test]
    fn quiesce_waits_for_older_transaction() {
        let r = Arc::new(Registry::default());
        let me = r.local(7006);
        me.slot.end();
        let other = foreign_slot(&r);
        other.begin(50);
        let h = end_after(&other, 30);
        let ns = r.quiesce(100, &me);
        h.join().unwrap();
        assert!(
            ns >= 10_000_000,
            "expected to wait ~30ms for the older transaction, waited {ns}ns"
        );
    }

    #[test]
    fn extend_releases_quiescer() {
        let r = Arc::new(Registry::default());
        let me = r.local(7007);
        me.slot.end();
        let other = foreign_slot(&r);
        other.begin(50);

        let other2 = Arc::clone(&other);
        let h = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(20));
            // The older transaction extends its snapshot past wv: the
            // quiescing writer no longer needs to wait for it.
            other2.extend(150);
        });
        r.quiesce(100, &me);
        h.join().unwrap();
    }

    #[test]
    fn alternating_two_runtimes_still_waits_in_each() {
        // One thread quiesces in two runtimes in turn; each copy of the
        // slot list is its own, so neither hides the other's older
        // transaction.
        let (r1, r2) = (Arc::new(Registry::default()), Arc::new(Registry::default()));
        let (me1, me2) = (r1.local(7009), r2.local(7010));
        let (o1, o2) = (foreign_slot(&r1), foreign_slot(&r2));
        for round in 0..3 {
            for (r, me, other) in [(&r1, &me1, &o1), (&r2, &me2, &o2)] {
                me.slot.end();
                other.begin(50);
                let h = end_after(other, 20);
                let ns = r.quiesce(100, me);
                h.join().unwrap();
                assert!(ns >= 5_000_000, "round {round}: did not wait ({ns}ns)");
            }
        }
    }

    #[test]
    fn a_slot_registered_after_the_copy_joins_the_next_commits_copy() {
        let r = Arc::new(Registry::default());
        let me = r.local(7011);
        me.slot.end();
        // The first commit caches a list without the newcomer.
        assert_eq!(r.quiesce(100, &me), 0);
        let late = foreign_slot(&r);
        late.begin(50);
        let h = end_after(&late, 20);
        let ns = r.quiesce(100, &me);
        h.join().unwrap();
        assert!(
            ns >= 5_000_000,
            "the late slot was not in the new copy ({ns}ns)"
        );
    }

    #[test]
    fn enter_serial_waits_for_active_slots_and_flags_newcomers() {
        let r = Arc::new(Registry::default());
        let me = r.local(7012);
        let other = foreign_slot(&r);
        other.begin(50);
        let h = end_after(&other, 20);
        let t0 = Instant::now();
        let guard = r.enter_serial(&me);
        h.join().unwrap();
        assert!(t0.elapsed() >= Duration::from_millis(10));
        assert!(r.serial_pending());
        drop(guard);
        assert!(!r.serial_pending());
    }
}
