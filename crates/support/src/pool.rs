//! A small bounded-queue worker pool.
//!
//! This is the execution substrate for the `ad-stm` `Pool` deferred-op
//! executor: the committing thread hands a post-commit batch to the pool and
//! returns immediately; a worker runs the batch (and releases its `TxLock`s
//! on completion — the two-phase-locking shrinking phase happens on the
//! worker, which is safe because 2PL cares about *who holds which locks*,
//! never about which OS thread executes the critical work).
//!
//! Design points:
//!
//! * **Bounded queue with two submit flavors.** [`Pool::submit`] blocks
//!   while the queue is full; [`Pool::try_submit`] hands the job back
//!   instead. Either way the backpressure is load-bearing: a committer
//!   that produces deferred work faster than the workers can retire it
//!   degrades gracefully toward inline execution cost instead of queueing
//!   unbounded memory (and unbounded lock-hold time).
//! * **Panic isolation.** A panicking job is caught with `catch_unwind`,
//!   counted, and the worker keeps serving. Callers that need lock-release
//!   on panic must arrange it *inside* the job (`ad-defer` does).
//! * **Self-drop safety.** The pool may be dropped *from one of its own
//!   workers* (the last `Runtime` handle can die inside a queued job). Drop
//!   joins every worker except the current thread, which is detached —
//!   joining yourself would deadlock.

use std::cell::Cell;
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

use crate::sync::{Condvar, Mutex};

thread_local! {
    /// Identity of the pool this thread serves as a worker (the `Shared`
    /// allocation's address), or 0 for threads that are not pool workers.
    /// Set once at worker startup, before the first job runs; a thread
    /// serves at most one pool for its whole life, so no save/restore.
    static WORKER_OF: Cell<usize> = const { Cell::new(0) };
}

/// A unit of work. Jobs must be `Send` (they hop to a worker thread) and
/// `'static` (the pool outlives any borrow the submitter could prove).
pub type Job = Box<dyn FnOnce() + Send + 'static>;

struct State {
    queue: VecDeque<Job>,
    /// Jobs submitted but not yet completed (queued + running).
    pending: usize,
    shutdown: bool,
}

struct Shared {
    state: Mutex<State>,
    /// Signals workers: queue non-empty or shutdown.
    work: Condvar,
    /// Signals submitters: queue has room.
    room: Condvar,
    /// Signals drainers: pending hit zero.
    idle: Condvar,
    capacity: usize,
    panics: AtomicU64,
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
                pending: 0,
                shutdown: false,
            }),
            work: Condvar::new(),
            room: Condvar::new(),
            idle: Condvar::new(),
            capacity: queue_cap.max(1),
            panics: AtomicU64::new(0),
        });
        let workers = (0..workers.max(1))
            .map(|i| spawn_worker(&shared, i))
            .collect();
        Pool { shared, workers }
    }

    /// Queue a job, blocking while the queue is at capacity. Returns the
    /// queue depth *before* this job was added (telemetry for the
    /// `DeferOffload` trace event).
    pub fn submit(&self, job: Job) -> usize {
        let mut st = self.shared.state.lock();
        while st.queue.len() >= self.shared.capacity {
            self.shared.room.wait(&mut st);
        }
        let depth = st.queue.len();
        st.queue.push_back(job);
        st.pending += 1;
        drop(st);
        self.shared.work.notify_one();
        depth
    }

    /// Queue a job without blocking. If the queue is at capacity the job is
    /// handed back in `Err`, so the caller can degrade to running it inline
    /// instead of stalling (the `ad-stm` commit path does exactly that —
    /// a full queue means the workers are saturated, and blocking the
    /// committing thread would only add queue-wait latency on top of the
    /// work it could already be doing itself). On success, returns the
    /// queue depth *before* this job was added, as [`Pool::submit`] does.
    pub fn try_submit(&self, job: Job) -> Result<usize, Job> {
        let mut st = self.shared.state.lock();
        if st.queue.len() >= self.shared.capacity {
            return Err(job);
        }
        let depth = st.queue.len();
        st.queue.push_back(job);
        st.pending += 1;
        drop(st);
        self.shared.work.notify_one();
        Ok(depth)
    }

    /// Number of jobs waiting in the queue right now (racy snapshot).
    pub fn queue_len(&self) -> usize {
        self.shared.state.lock().queue.len()
    }

    /// Jobs submitted but not yet completed (queued + currently running).
    pub fn pending(&self) -> usize {
        self.shared.state.lock().pending
    }

    /// Block until every job submitted so far has completed. New jobs may be
    /// submitted concurrently; this returns at a moment when `pending == 0`.
    pub fn drain(&self) {
        let mut st = self.shared.state.lock();
        while st.pending > 0 {
            self.shared.idle.wait(&mut st);
        }
    }

    /// Number of jobs that panicked (the panic is caught, counted, and the
    /// worker keeps serving).
    pub fn panic_count(&self) -> u64 {
        self.shared.panics.load(Ordering::Relaxed)
    }

    /// Number of worker threads.
    pub fn worker_count(&self) -> usize {
        self.workers.len()
    }

    /// Is the calling thread one of *this* pool's workers — i.e. is it
    /// currently inside a job this pool dispatched? The question matters
    /// because a worker that blocks waiting for another job of the same
    /// pool can deadlock when no other worker is free to run it (the
    /// single-worker self-wait of DESIGN.md §10); `ad-stm` uses this to
    /// detect that hazard at the wait site.
    pub fn current_thread_is_worker(&self) -> bool {
        WORKER_OF.get() == Arc::as_ptr(&self.shared) as usize
    }

    /// Would the calling thread deadlock by blocking until some *other*
    /// queued job of this pool completes? True exactly when the caller is
    /// this pool's sole worker: whatever it waits for sits behind the job
    /// it is running and can never be dispatched.
    pub fn wait_would_self_deadlock(&self) -> bool {
        self.current_thread_is_worker() && self.workers.len() == 1
    }

    /// Is the calling thread a worker of *any* pool (not necessarily this
    /// one)? The cross-runtime cousin of
    /// [`Pool::current_thread_is_worker`]: a worker of runtime A's pool
    /// blocking on runtime B's deferred work ties up a thread B may itself
    /// be waiting on — `ad-stm` reports it as the remote-wait hazard.
    pub fn current_thread_is_any_worker() -> bool {
        WORKER_OF.get() != 0
    }

    /// Drive an accept loop on the calling thread: pull items from `next`
    /// until it returns `None`, handing each to `handle` on a pool worker.
    ///
    /// This is the `ad-net` server's front door — `next` is a blocking
    /// `TcpListener::accept` wrapper, `handle` owns one connection until it
    /// closes — but the shape is generic: any producer whose items each
    /// need a worker's undivided attention. Submission uses the blocking
    /// [`Pool::submit`], so a saturated pool (every worker busy, queue
    /// full) pushes back on the *accept* side: new items wait in the
    /// kernel's backlog instead of piling up as unbounded queued jobs.
    /// Returns once `next` yields `None` — queued items still complete
    /// (drain or drop the pool to wait for them).
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
        .name(format!("ad-defer-pool-{id}"))
        .spawn(move || worker_loop(&shared))
        .expect("spawning pool worker")
}

fn worker_loop(shared: &Arc<Shared>) {
    WORKER_OF.set(Arc::as_ptr(shared) as usize);
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
        if catch_unwind(AssertUnwindSafe(job)).is_err() {
            shared.panics.fetch_add(1, Ordering::Relaxed);
        }
        let mut st = shared.state.lock();
        st.pending -= 1;
        let idle = st.pending == 0;
        drop(st);
        if idle {
            shared.idle.notify_all();
        }
    }
}

impl Drop for Pool {
    /// Shut down after draining: workers finish every queued job, then exit.
    /// Joins every worker except the current thread — the pool can be
    /// dropped from inside one of its own jobs (the job held the last
    /// `Runtime` handle), and a thread cannot join itself.
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

impl std::fmt::Debug for Pool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Pool")
            .field("workers", &self.worker_count())
            .field("capacity", &self.shared.capacity)
            .field("queue_len", &self.queue_len())
            .finish()
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
        pool.drain();
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
        pool.drain();
        assert_eq!(n.load(Ordering::Relaxed), 3);
    }

    #[test]
    fn try_submit_returns_job_when_queue_is_full() {
        let pool = Pool::new(1, 1);
        let (gate_tx, gate_rx) = std::sync::mpsc::channel::<()>();
        let (started_tx, started_rx) = std::sync::mpsc::channel::<()>();
        // Park the only worker so the queue cannot drain, and wait until it
        // has actually dequeued this job (otherwise it still occupies the
        // queue slot the next submit expects to find free).
        pool.submit(Box::new(move || {
            started_tx.send(()).unwrap();
            gate_rx.recv().unwrap();
        }));
        started_rx.recv().unwrap();
        // Fill the one queue slot.
        let queued = Arc::new(AtomicUsize::new(0));
        let q2 = Arc::clone(&queued);
        let depth = pool
            .try_submit(Box::new(move || {
                q2.fetch_add(1, Ordering::Relaxed);
            }))
            .unwrap_or_else(|_| panic!("one slot free"));
        assert_eq!(depth, 0);
        // Queue now full: the job must come back intact, not run or drop.
        let inline = Arc::new(AtomicUsize::new(0));
        let i2 = Arc::clone(&inline);
        let rejected = match pool.try_submit(Box::new(move || {
            i2.fetch_add(1, Ordering::Relaxed);
        })) {
            Err(job) => job,
            Ok(_) => panic!("queue should be full"),
        };
        assert_eq!(inline.load(Ordering::Relaxed), 0);
        // The caller degrades to running it inline.
        rejected();
        assert_eq!(inline.load(Ordering::Relaxed), 1);
        gate_tx.send(()).unwrap();
        pool.drain();
        assert_eq!(queued.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn panicking_job_is_counted_and_worker_survives() {
        let pool = Pool::new(1, 4);
        pool.submit(Box::new(|| panic!("job goes boom")));
        let n = Arc::new(AtomicUsize::new(0));
        let n2 = Arc::clone(&n);
        pool.submit(Box::new(move || {
            n2.fetch_add(1, Ordering::Relaxed);
        }));
        pool.drain();
        assert_eq!(pool.panic_count(), 1);
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
        // dispatched may still be in flight until the pool drains.
        pool.drain();
        assert_eq!(done.load(Ordering::Relaxed), 25);
    }

    #[test]
    fn worker_marker_identifies_its_own_pool_only() {
        let pool = Arc::new(Pool::new(1, 4));
        let other = Pool::new(1, 4);
        // The submitting thread is nobody's worker.
        assert!(!pool.current_thread_is_worker());
        assert!(!pool.wait_would_self_deadlock());
        let (tx, rx) = std::sync::mpsc::channel();
        let p2 = Arc::clone(&pool);
        pool.submit(Box::new(move || {
            tx.send(p2.current_thread_is_worker() && p2.wait_would_self_deadlock())
                .unwrap();
        }));
        assert!(rx.recv_timeout(Duration::from_secs(10)).unwrap());
        // A worker of one pool is not a worker of another.
        let (tx, rx) = std::sync::mpsc::channel();
        other.submit(Box::new({
            let p2 = Arc::clone(&pool);
            move || tx.send(p2.current_thread_is_worker()).unwrap()
        }));
        assert!(!rx.recv_timeout(Duration::from_secs(10)).unwrap());
    }

    #[test]
    fn multi_worker_pool_is_not_a_self_wait_hazard() {
        let pool = Arc::new(Pool::new(2, 4));
        let (tx, rx) = std::sync::mpsc::channel();
        let p2 = Arc::clone(&pool);
        pool.submit(Box::new(move || {
            tx.send((p2.current_thread_is_worker(), p2.wait_would_self_deadlock()))
                .unwrap();
        }));
        let (is_worker, hazard) = rx.recv_timeout(Duration::from_secs(10)).unwrap();
        assert!(is_worker);
        assert!(!hazard, "a second worker can still serve the queue");
    }

    #[test]
    fn fixed_pool_never_scales() {
        let pool = Pool::new(2, 8);
        let (gate_tx, gate_rx) = std::sync::mpsc::channel::<()>();
        let gate_rx = Arc::new(Mutex::new(gate_rx));
        for _ in 0..6 {
            let gate_rx = Arc::clone(&gate_rx);
            pool.submit(Box::new(move || {
                let g = gate_rx.lock();
                g.recv().unwrap();
            }));
        }
        assert_eq!(pool.worker_count(), 2);
        for _ in 0..6 {
            gate_tx.send(()).unwrap();
        }
        pool.drain();
        assert_eq!(pool.worker_count(), 2);
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
        pool.drain();
        assert_eq!(*order.lock(), (0..20).collect::<Vec<_>>());
    }
}
