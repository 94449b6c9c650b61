//! The in-process hop between shards: one job queue per shard, and the
//! one-shot gates a sender hands the other side.
//!
//! Each shard has **one** unbounded FIFO of [`Job`]s and **one** worker
//! (spawned by the router) consuming it. The worker runs the participant
//! side of a prepare and may block for that gid's whole prepare→release
//! window, which serializes staged slices per shard — exactly the
//! exclusion the participant's shard locks would enforce anyway.
//!
//! Nothing travels back through a queue. Whoever will wait creates a
//! [`Gate`] and sends it along; the other side opens it directly: the
//! participant's ack step opens `acked`, the coordinator's release step
//! opens each `released`, a dequeued barrier opens `drained`. A release
//! therefore overtakes any prepare parked in the FIFO by construction —
//! it is never queued — and a participant waiting for release can always
//! hear it.
//!
//! The FIFO is hand-rolled because `ad_support::channel` is bounded and a
//! push must never block on protocol progress: the router's liveness
//! argument (wait-for edges only ascend in shard id) counts protocol
//! waits, not queue-full waits.

use std::collections::VecDeque;
use std::sync::Arc;

use ad_kv::RedoOps;
use ad_support::sync::{Condvar, Mutex};

/// A one-shot latch: [`wait`](Gate::wait) returns once
/// [`open`](Gate::open) has been called, whichever happens first.
pub(crate) struct Gate {
    open: Mutex<bool>,
    cv: Condvar,
}

impl Gate {
    pub(crate) fn new() -> Arc<Gate> {
        Arc::new(Gate {
            open: Mutex::new(false),
            cv: Condvar::new(),
        })
    }

    pub(crate) fn open(&self) {
        *self.open.lock() = true;
        self.cv.notify_all();
    }

    pub(crate) fn wait(&self) {
        let mut g = self.open.lock();
        while !*g {
            self.cv.wait(&mut g);
        }
    }
}

/// One unit of work for a shard's worker.
pub(crate) enum Job {
    /// Stage this slice of batch `gid` durably, open `acked`, hold the
    /// slice invisible until `released` opens, then expose it.
    Prepare {
        /// Global cross-shard transaction id (coordinator shard in the
        /// high 16 bits).
        gid: u64,
        /// The participant's slice, in application order.
        ops: RedoOps,
        /// Opened by the participant: the slice is staged durably.
        acked: Arc<Gate>,
        /// Opened by the coordinator: the decision for `gid` is durable.
        released: Arc<Gate>,
    },
    /// Drain marker: `drained` opens only after every earlier job on this
    /// queue ran to its end.
    Barrier { drained: Arc<Gate> },
    /// Stop the worker.
    Shutdown,
}

/// A shard's unbounded job FIFO: any number of senders, one consumer.
pub(crate) struct JobQueue {
    jobs: Mutex<VecDeque<Job>>,
    cv: Condvar,
}

impl JobQueue {
    pub(crate) fn new() -> Arc<JobQueue> {
        Arc::new(JobQueue {
            jobs: Mutex::new(VecDeque::new()),
            cv: Condvar::new(),
        })
    }

    pub(crate) fn push(&self, job: Job) {
        self.jobs.lock().push_back(job);
        self.cv.notify_one();
    }

    pub(crate) fn pop_blocking(&self) -> Job {
        let mut g = self.jobs.lock();
        loop {
            if let Some(job) = g.pop_front() {
                return job;
            }
            self.cv.wait(&mut g);
        }
    }
}

#[cfg(all(test, not(loom)))]
mod tests {
    use super::*;

    #[test]
    fn a_gate_opened_before_the_wait_does_not_block() {
        let gate = Gate::new();
        gate.open();
        gate.wait();
    }

    /// What `checkpoint_all`'s barrier rests on.
    #[test]
    fn jobs_leave_in_the_order_they_were_pushed() {
        let q = JobQueue::new();
        q.push(Job::Prepare {
            gid: 7,
            ops: vec![("k".into(), None)],
            acked: Gate::new(),
            released: Gate::new(),
        });
        q.push(Job::Barrier {
            drained: Gate::new(),
        });
        assert!(matches!(q.pop_blocking(), Job::Prepare { gid: 7, .. }));
        assert!(matches!(q.pop_blocking(), Job::Barrier { .. }));
    }
}
