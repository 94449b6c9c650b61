//! Lock classes: what atomic deferral costs, measured per kind of holder.
//!
//! A transaction that defers an operation holds the `TxLock`s of the
//! operation's objects from its commit until the operation ends (PAPER.md
//! §1, step 4). That is the paper's trade — no irrevocability, at the
//! price of a lock hold — and it is two numbers:
//!
//! * `txlock_hold_ns`: the start of a deferred operation → its release,
//!   one sample per lock it releases, for one deferred operation in
//!   [`HOLD_SAMPLE_EVERY`] per thread. A transaction's post-commit work
//!   starts with its first deferred operation, so that operation's hold
//!   runs from the commit; a later one in the same transaction leaves out
//!   the time the earlier ones ran;
//! * `txlock_blocked_ns`: the time a transaction spent parked in `retry`
//!   on a held `TxLock`, subscribing or acquiring — one sample per wait,
//!   recorded in the class of the holder it waited for.
//!
//! A holder names its class when it defers ([`crate::atomic_defer_as`]),
//! and the class rides in the lock word, so a waiter knows whose hold it
//! is blocked on. A class is a `static` declared by the crate that holds
//! such locks — as an `AppEvent` is — so this crate names no layer above
//! it: `ad-kv` declares its store shards', `ad-shard` its cross-shard
//! batches', and [`DEFERRABLE_LOCKS`] is every other `atomic_defer`'s.
//! Both histograms are always on; [`txlock_stats_json`] reports every
//! class in use.

use std::cell::Cell;
use std::sync::{Mutex, OnceLock, PoisonError};

use ad_support::hist::{Histogram, HistogramSnapshot};

/// A class of `TxLock` holders, with its hold and blocked histograms
/// (module docs). Declare one as a `static`.
pub struct LockClass {
    name: &'static str,
    hists: OnceLock<Hists>,
}

#[derive(Default)]
struct Hists {
    hold: Histogram,
    blocked: Histogram,
}

/// Each thread times the hold of its first deferred operation, then of
/// every `HOLD_SAMPLE_EVERY`th: so the hold histogram's mean is every
/// hold's, and its count an eighth of them. Timing every hold — two clock
/// reads and a histogram shared by every committing thread — cost
/// `defer_io` about 5 % of its throughput (EXPERIMENTS.md, "Lock hold and
/// blocked time"); waits are always timed, as each already parks.
pub const HOLD_SAMPLE_EVERY: u32 = 8;

/// Does the calling thread time the hold of the deferred operation it is
/// about to run?
pub(crate) fn sample_hold() -> bool {
    thread_local! {
        static OPS: Cell<u32> = const { Cell::new(0) };
    }
    OPS.with(|ops| {
        let n = ops.get();
        ops.set(n.wrapping_add(1));
        n % HOLD_SAMPLE_EVERY == 0
    })
}

/// Every class whose histograms exist, in first-use order.
static CLASSES: Mutex<Vec<&'static LockClass>> = Mutex::new(Vec::new());

/// The class of an [`atomic_defer`](crate::atomic_defer) that names none.
pub static DEFERRABLE_LOCKS: LockClass = LockClass::new("deferrable");

impl LockClass {
    /// A class named `name` — its key in [`txlock_stats_json`].
    pub const fn new(name: &'static str) -> Self {
        LockClass {
            name,
            hists: OnceLock::new(),
        }
    }

    fn hists(&'static self) -> &'static Hists {
        self.hists.get_or_init(|| {
            CLASSES
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .push(self);
            Hists::default()
        })
    }

    /// `txlock_hold_ns`: start of the deferred operation → release of each
    /// lock held in this class.
    pub fn hold(&'static self) -> HistogramSnapshot {
        self.hists().hold.snapshot()
    }

    /// `txlock_blocked_ns`: each wait of a transaction parked on a lock
    /// held in this class.
    pub fn blocked(&'static self) -> HistogramSnapshot {
        self.hists().blocked.snapshot()
    }

    pub(crate) fn hold_hist(&'static self) -> &'static Histogram {
        &self.hists().hold
    }

    pub(crate) fn blocked_hist(&'static self) -> &'static Histogram {
        &self.hists().blocked
    }
}

/// `{"<class>":{"txlock_hold_ns":{..},"txlock_blocked_ns":{..}},..}` for
/// every class in use in the process, by name.
pub fn txlock_stats_json() -> String {
    let mut classes = CLASSES
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .clone();
    classes.sort_by_key(|c| c.name);
    let body: Vec<String> = classes
        .iter()
        .map(|c| {
            format!(
                "\"{}\":{{\"txlock_hold_ns\":{},\"txlock_blocked_ns\":{}}}",
                c.name,
                c.hold().to_json(),
                c.blocked().to_json()
            )
        })
        .collect();
    format!("{{{}}}", body.join(","))
}
