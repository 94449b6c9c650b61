//! Progress (SEMANTICS.md): ad-stm aborts a transaction only on a
//! conflict, and a transaction blocks only in `retry` — for a deferrable
//! reader, exactly while a deferred op holds the lock it subscribes to.
//!
//! A binary of its own: the `deferrable` lock class is process-wide, and
//! no other test may add samples while the second test measures.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use ad_defer::{atomic_defer, Defer, DEFERRABLE_LOCKS};
use ad_stm::{Runtime, TVar, TmConfig};

/// Progressiveness (Kuznetsov & Ravi): two threads that share only a
/// variable neither writes commit every transaction on its first attempt.
#[test]
fn transactions_that_do_not_conflict_never_abort() {
    const TXNS: u64 = 20_000;
    let rt = Runtime::new(TmConfig::stm());
    let shared = TVar::new(7u64);
    let mine: Vec<TVar<u64>> = (0..2).map(|_| TVar::new(0)).collect();
    std::thread::scope(|s| {
        for v in &mine {
            let (rt, shared) = (&rt, &shared);
            s.spawn(move || {
                for _ in 0..TXNS {
                    rt.atomically(|tx| {
                        let k = tx.read(shared)?;
                        let x = tx.read(v)?;
                        tx.write(v, x + k)
                    });
                }
            });
        }
    });
    let st = rt.stats();
    assert_eq!(st.commits, 2 * TXNS);
    assert_eq!((st.aborts_conflict, st.retries), (0, 0), "{st:?}");
    assert_eq!(st.starts, st.commits, "{st:?}");
    assert!(mine.iter().all(|v| v.load() == 7 * TXNS));
}

struct Cell {
    v: TVar<u64>,
}

/// A reader of a deferrable waits while a deferred op holds its lock and
/// goes on as soon as the op releases it; a reader of another deferrable
/// does not wait at all. The wait is recorded in `txlock_blocked_ns`.
#[test]
fn a_reader_blocks_exactly_while_its_lock_is_held() {
    const HOLD: Duration = Duration::from_millis(150);
    let rt = Runtime::new(TmConfig::stm());
    let held = Defer::new(Cell { v: TVar::new(0) });
    let free = Defer::new(Cell { v: TVar::new(0) });
    let running = Arc::new(AtomicBool::new(false));
    let blocked0 = DEFERRABLE_LOCKS.blocked();

    let holder = {
        let (rt, held, running) = (rt.clone(), held.clone(), Arc::clone(&running));
        std::thread::spawn(move || {
            rt.atomically(|tx| {
                let (h, running) = (held.clone(), Arc::clone(&running));
                atomic_defer(tx, &[&held.clone()], move || {
                    running.store(true, Ordering::Release);
                    std::thread::sleep(HOLD);
                    h.locked().v.store(1);
                })
            });
            Instant::now()
        })
    };
    while !running.load(Ordering::Acquire) {
        std::thread::yield_now();
    }
    let t0 = Instant::now();

    // The unrelated object is readable at once.
    let other = rt.atomically(|tx| free.with(tx, |c, tx| tx.read(&c.v)));
    assert_eq!(other, 0);
    assert!(
        t0.elapsed() < HOLD / 2,
        "a reader of a free object waited {:?}",
        t0.elapsed()
    );

    // The held object's reader sees only the op's result, after the release.
    let seen = rt.atomically(|tx| held.with(tx, |c, tx| tx.read(&c.v)));
    let done = Instant::now();
    let released = holder.join().unwrap();
    assert_eq!(seen, 1, "the reader saw the held object mid-op");
    assert!(
        done.duration_since(t0) >= HOLD * 9 / 10,
        "waited only {:?}",
        done - t0
    );
    assert!(
        done.saturating_duration_since(released) < Duration::from_millis(100),
        "the reader went on {:?} after the release",
        done.saturating_duration_since(released)
    );

    let blocked = DEFERRABLE_LOCKS.blocked().delta_since(&blocked0);
    assert_eq!(blocked.count(), 1, "one wait, in the holder's class");
    assert!(
        Duration::from_nanos(blocked.sum()) >= HOLD * 8 / 10,
        "txlock_blocked_ns recorded {} ns of a {HOLD:?} hold",
        blocked.sum()
    );
}
