//! A small bounded-queue worker pool.
//!
//! This is the `ad-net` server's connection executor: one accept thread
//! hands each accepted connection to a worker through
//! [`Pool::accept_loop`], and the worker owns it until it closes.
//!
//! Design points:
//!
//! * **Bounded queue.** Submission blocks while the queue is full, so a
//!   saturated pool pushes back on its producer instead of queueing
//!   unbounded work.
//! * **Panic isolation.** A panicking job is caught with `catch_unwind`
//!   and the worker keeps serving.
//! * **Self-drop safety.** The pool may be dropped *from one of its own
//!   workers* (a job can own the last handle). Drop joins every worker
//!   except the current thread, which is detached — joining yourself
//!   would deadlock.

use std::cell::Cell;
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::thread::JoinHandle;

use crate::sync::{Condvar, Mutex};

thread_local! {
    /// Is this thread a worker of some pool? Set once at worker startup,
    /// before the first job runs; a thread serves one pool for its whole
    /// life.
    static IS_WORKER: Cell<bool> = const { Cell::new(false) };
}

/// A unit of work. Jobs must be `Send` (they hop to a worker thread) and
/// `'static` (the pool outlives any borrow the submitter could prove).
type Job = Box<dyn FnOnce() + Send + 'static>;

struct State {
    queue: VecDeque<Job>,
    shutdown: bool,
}

struct Shared {
    state: Mutex<State>,
    /// Signals workers: queue non-empty or shutdown.
    work: Condvar,
    /// Signals submitters: queue has room.
    room: Condvar,
    capacity: usize,
}

/// A fixed-size worker pool over a bounded FIFO job queue.
pub struct Pool {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
}

impl Pool {
    /// Spawn `workers` threads (clamped to at least 1) serving a queue with
    /// room for `queue_cap` waiting jobs (clamped to at least 1). The
    /// worker count stays fixed for the pool's lifetime.
    pub fn new(workers: usize, queue_cap: usize) -> Pool {
        let shared = Arc::new(Shared {
            state: Mutex::new(State {
                queue: VecDeque::new(),
                shutdown: false,
            }),
            work: Condvar::new(),
            room: Condvar::new(),
            capacity: queue_cap.max(1),
        });
        let workers = (0..workers.max(1))
            .map(|i| spawn_worker(&shared, i))
            .collect();
        Pool { shared, workers }
    }

    /// Queue a job, blocking while the queue is at capacity.
    fn submit(&self, job: Job) {
        let mut st = self.shared.state.lock();
        while st.queue.len() >= self.shared.capacity {
            self.shared.room.wait(&mut st);
        }
        st.queue.push_back(job);
        drop(st);
        self.shared.work.notify_one();
    }

    /// Is the calling thread a worker of any pool? A worker blocking on
    /// another runtime's deferred work ties up a thread that runtime may
    /// itself be waiting on — `ad-stm` reports it as the remote-wait
    /// hazard.
    pub fn current_thread_is_any_worker() -> bool {
        IS_WORKER.get()
    }

    /// Drive an accept loop on the calling thread: pull items from `next`
    /// until it returns `None`, handing each to `handle` on a pool worker.
    ///
    /// This is the `ad-net` server's front door — `next` is a blocking
    /// `TcpListener::accept` wrapper, `handle` owns one connection until it
    /// closes — but the shape is generic: any producer whose items each
    /// need a worker's undivided attention. Submission blocks while the
    /// queue is full, so a saturated pool (every worker busy, queue full)
    /// pushes back on the *accept* side: new items wait in the kernel's
    /// backlog instead of piling up as unbounded queued jobs. Returns once
    /// `next` yields `None` — queued items still complete (drop the pool
    /// to wait for them).
    pub fn accept_loop<T, N, H>(&self, mut next: N, handle: H)
    where
        T: Send + 'static,
        N: FnMut() -> Option<T>,
        H: Fn(T) + Send + Sync + 'static,
    {
        let handle = Arc::new(handle);
        while let Some(item) = next() {
            let handle = Arc::clone(&handle);
            self.submit(Box::new(move || handle(item)));
        }
    }
}

fn spawn_worker(shared: &Arc<Shared>, id: usize) -> JoinHandle<()> {
    let shared = Arc::clone(shared);
    std::thread::Builder::new()
        .name(format!("ad-pool-{id}"))
        .spawn(move || worker_loop(&shared))
        .expect("spawning pool worker")
}

fn worker_loop(shared: &Shared) {
    IS_WORKER.set(true);
    loop {
        let job = {
            let mut st = shared.state.lock();
            loop {
                if let Some(job) = st.queue.pop_front() {
                    break job;
                }
                if st.shutdown {
                    return;
                }
                shared.work.wait(&mut st);
            }
        };
        // A slot opened up; wake one blocked submitter.
        shared.room.notify_one();
        // A panicking job must not take the worker down with it.
        let _ = catch_unwind(AssertUnwindSafe(job));
    }
}

impl Drop for Pool {
    /// Shut down after draining: workers finish every queued job, then exit.
    /// Joins every worker except the current thread — the pool can be
    /// dropped from inside one of its own jobs, and a thread cannot join
    /// itself.
    fn drop(&mut self) {
        {
            let mut st = self.shared.state.lock();
            st.shutdown = true;
        }
        self.shared.work.notify_all();
        let me = std::thread::current().id();
        for h in self.workers.drain(..) {
            if h.thread().id() != me {
                let _ = h.join();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::time::Duration;

    #[test]
    fn runs_every_job() {
        let pool = Pool::new(4, 8);
        let n = Arc::new(AtomicUsize::new(0));
        for _ in 0..100 {
            let n = Arc::clone(&n);
            pool.submit(Box::new(move || {
                n.fetch_add(1, Ordering::Relaxed);
            }));
        }
        drop(pool);
        assert_eq!(n.load(Ordering::Relaxed), 100);
    }

    #[test]
    fn bounded_submit_blocks_then_completes() {
        let pool = Pool::new(1, 1);
        let n = Arc::new(AtomicUsize::new(0));
        // First job occupies the worker; second fills the queue; third must
        // block in submit until the worker frees a slot.
        for _ in 0..3 {
            let n = Arc::clone(&n);
            pool.submit(Box::new(move || {
                std::thread::sleep(Duration::from_millis(5));
                n.fetch_add(1, Ordering::Relaxed);
            }));
        }
        drop(pool);
        assert_eq!(n.load(Ordering::Relaxed), 3);
    }

    #[test]
    fn panicking_job_leaves_the_worker_serving() {
        let pool = Pool::new(1, 4);
        pool.submit(Box::new(|| panic!("job goes boom")));
        let n = Arc::new(AtomicUsize::new(0));
        let n2 = Arc::clone(&n);
        pool.submit(Box::new(move || {
            n2.fetch_add(1, Ordering::Relaxed);
        }));
        drop(pool);
        assert_eq!(n.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn drop_drains_queued_jobs() {
        let n = Arc::new(AtomicUsize::new(0));
        {
            let pool = Pool::new(2, 16);
            for _ in 0..32 {
                let n = Arc::clone(&n);
                pool.submit(Box::new(move || {
                    n.fetch_add(1, Ordering::Relaxed);
                }));
            }
        }
        assert_eq!(n.load(Ordering::Relaxed), 32);
    }

    #[test]
    fn drop_from_inside_a_job_does_not_deadlock() {
        let pool = Arc::new(Pool::new(2, 4));
        let (tx, rx) = std::sync::mpsc::channel();
        let p2 = Arc::clone(&pool);
        pool.submit(Box::new(move || {
            // This job owns the last other handle; dropping it here makes
            // the worker run Pool::drop, which must skip joining itself.
            drop(p2);
            tx.send(()).unwrap();
        }));
        drop(pool);
        rx.recv_timeout(Duration::from_secs(10)).unwrap();
    }

    #[test]
    fn accept_loop_dispatches_every_item_then_returns() {
        let pool = Pool::new(2, 4);
        let done = Arc::new(AtomicUsize::new(0));
        let mut remaining = 25;
        let d2 = Arc::clone(&done);
        pool.accept_loop(
            move || {
                if remaining == 0 {
                    None
                } else {
                    remaining -= 1;
                    Some(remaining)
                }
            },
            move |_item: usize| {
                d2.fetch_add(1, Ordering::Relaxed);
            },
        );
        // accept_loop returned once the producer dried up; the items it
        // dispatched may still be in flight until the pool is dropped.
        drop(pool);
        assert_eq!(done.load(Ordering::Relaxed), 25);
    }

    #[test]
    fn any_worker_marker_sees_workers_of_every_pool() {
        let pool = Pool::new(1, 4);
        assert!(!Pool::current_thread_is_any_worker());
        let (tx, rx) = std::sync::mpsc::channel();
        pool.submit(Box::new(move || {
            tx.send(Pool::current_thread_is_any_worker()).unwrap();
        }));
        assert!(rx.recv_timeout(Duration::from_secs(10)).unwrap());
    }

    #[test]
    fn fifo_order_single_worker() {
        let pool = Pool::new(1, 64);
        let order = Arc::new(Mutex::new(Vec::new()));
        for i in 0..20 {
            let order = Arc::clone(&order);
            pool.submit(Box::new(move || {
                order.lock().push(i);
            }));
        }
        drop(pool);
        assert_eq!(*order.lock(), (0..20).collect::<Vec<_>>());
    }
}
