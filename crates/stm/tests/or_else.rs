#![cfg(not(loom))]

//! Tests for the `orElse` combinator (Harris et al.): alternative blocking
//! branches inside one transaction.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::Duration;

use ad_stm::{atomically, Runtime, StmError, TVar, TmConfig};

#[test]
fn first_branch_wins_when_it_succeeds() {
    let v = TVar::new(1u32);
    let got = atomically(|tx| {
        let v = v.clone();
        tx.or_else(move |tx| tx.read(&v), |_tx| Ok(99))
    });
    assert_eq!(got, 1);
}

#[test]
fn second_branch_runs_when_first_retries() {
    let a: TVar<Option<u32>> = TVar::new(None);
    let b: TVar<Option<u32>> = TVar::new(Some(7));
    let got = atomically(|tx| {
        let (a, b) = (a.clone(), b.clone());
        tx.or_else(
            move |tx| match tx.read(&a)? {
                Some(x) => Ok(x),
                None => tx.retry(),
            },
            move |tx| match tx.read(&b)? {
                Some(x) => Ok(x),
                None => tx.retry(),
            },
        )
    });
    assert_eq!(got, 7);
}

#[test]
fn first_branch_writes_are_discarded_on_retry() {
    let side = TVar::new(0u32);
    let picked = atomically(|tx| {
        let side = side.clone();
        tx.or_else(
            move |tx| {
                tx.write(&side, 111)?; // must evaporate
                tx.retry::<&str>()
            },
            |_tx| Ok("second"),
        )
    });
    assert_eq!(picked, "second");
    assert_eq!(side.load(), 0, "abandoned branch's write leaked");
}

#[test]
fn first_branch_deferred_actions_are_discarded() {
    let rt = Runtime::new(TmConfig::stm());
    let ran_first = Arc::new(AtomicBool::new(false));
    let ran_second = Arc::new(AtomicBool::new(false));
    let (r1, r2) = (Arc::clone(&ran_first), Arc::clone(&ran_second));
    rt.atomically(move |tx| {
        let (r1, r2) = (Arc::clone(&r1), Arc::clone(&r2));
        tx.or_else(
            move |tx| {
                let r1 = Arc::clone(&r1);
                tx.defer_post_commit(Box::new(move |_| r1.store(true, Ordering::Relaxed)));
                tx.retry::<()>()
            },
            move |tx| {
                let r2 = Arc::clone(&r2);
                tx.defer_post_commit(Box::new(move |_| r2.store(true, Ordering::Relaxed)));
                Ok(())
            },
        )
    });
    assert!(
        !ran_first.load(Ordering::Relaxed),
        "abandoned deferred action ran"
    );
    assert!(ran_second.load(Ordering::Relaxed));
}

#[test]
fn waits_on_union_of_both_branches() {
    // Both branches retry; waking either variable must unblock the
    // transaction.
    for wake_first in [true, false] {
        let a: TVar<Option<u32>> = TVar::new(None);
        let b: TVar<Option<u32>> = TVar::new(None);
        let (a2, b2) = (a.clone(), b.clone());
        let waiter = thread::spawn(move || {
            atomically(|tx| {
                let (a, b) = (a2.clone(), b2.clone());
                tx.or_else(
                    move |tx| match tx.read(&a)? {
                        Some(x) => Ok(("a", x)),
                        None => tx.retry(),
                    },
                    move |tx| match tx.read(&b)? {
                        Some(x) => Ok(("b", x)),
                        None => tx.retry(),
                    },
                )
            })
        });
        thread::sleep(Duration::from_millis(30));
        if wake_first {
            atomically(|tx| tx.write(&a, Some(1)));
            assert_eq!(waiter.join().unwrap(), ("a", 1));
        } else {
            atomically(|tx| tx.write(&b, Some(2)));
            assert_eq!(waiter.join().unwrap(), ("b", 2));
        }
    }
}

#[test]
fn nested_or_else() {
    let got = atomically(|tx| {
        tx.or_else(
            |tx| tx.or_else(|tx| tx.retry::<u32>(), |tx| tx.retry::<u32>()),
            |_tx| Ok(42u32),
        )
    });
    assert_eq!(got, 42);
}

#[test]
fn first_branch_conflict_is_not_caught() {
    // or_else only catches Retry; a Conflict propagates and re-executes the
    // whole transaction.
    let attempts = Arc::new(AtomicBool::new(true));
    let a2 = Arc::clone(&attempts);
    let got = atomically(move |tx| {
        let first_attempt = a2.swap(false, Ordering::Relaxed);
        tx.or_else(
            move |_tx| {
                if first_attempt {
                    Err(StmError::Conflict)
                } else {
                    Ok("retried whole tx")
                }
            },
            |_tx| Ok("second branch"),
        )
    });
    assert_eq!(got, "retried whole tx");
}

#[test]
fn or_else_in_serial_mode_without_prior_writes() {
    let rt = Runtime::new(TmConfig::stm());
    let v = TVar::new(5u32);
    let got = rt.synchronized(|tx| {
        let v = v.clone();
        tx.or_else(move |tx| tx.retry::<u32>(), move |tx| tx.read(&v))
    });
    assert_eq!(got, 5);
}

#[test]
fn or_else_read_your_writes_across_branches() {
    // A write before or_else is visible inside both branches.
    let v = TVar::new(0u32);
    let got = atomically(|tx| {
        tx.write(&v, 10)?;
        let v = v.clone();
        tx.or_else(
            move |tx| {
                let x = tx.read(&v)?;
                if x == 10 {
                    Ok(x)
                } else {
                    tx.retry()
                }
            },
            |_tx| Ok(0),
        )
    });
    assert_eq!(got, 10);
    assert_eq!(v.load(), 10);
}

/// A first branch that retries on a timed wait (`retry_timed`) and is
/// abandoned leaves nothing to time: the park belongs to the second
/// branch, which times it only if it asks to.
#[test]
fn an_abandoned_timed_retry_does_not_time_the_second_branchs_wait() {
    use ad_support::hist::Histogram;
    for second_timed in [false, true] {
        let first: &'static Histogram = Box::leak(Box::default());
        let second: &'static Histogram = Box::leak(Box::default());
        let b: TVar<Option<u32>> = TVar::new(None);
        let b2 = b.clone();
        let waiter = thread::spawn(move || {
            atomically(|tx| {
                let b = b2.clone();
                tx.or_else(
                    |tx| tx.retry_timed(first),
                    move |tx| match tx.read(&b)? {
                        Some(x) => Ok(x),
                        None if second_timed => tx.retry_timed(second),
                        None => tx.retry(),
                    },
                )
            })
        });
        thread::sleep(Duration::from_millis(30));
        atomically(|tx| tx.write(&b, Some(5)));
        assert_eq!(waiter.join().unwrap(), 5);
        assert_eq!(
            first.snapshot().count(),
            0,
            "the abandoned branch timed the park"
        );
        assert_eq!(second.snapshot().count(), u64::from(second_timed));
    }
}
