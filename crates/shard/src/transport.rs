//! The frame protocol between shards, and its in-process implementation.
//!
//! [`Transport`] is deliberately tiny — fire-and-forget frame delivery —
//! so a wire implementation (ad-net style: length-prefixed, CRC-guarded)
//! can slot in later without touching the router. [`LocalTransport`]
//! backs it with in-process queues, two per shard:
//!
//! - the **data** queue carries [`Frame::Prepare`] (and barriers). Its
//!   consumer may block for the full prepare→release window of a gid,
//!   which serializes staged slices per shard — exactly the exclusion
//!   the participant's shard locks would enforce anyway.
//! - the **control** queue carries [`Frame::Ack`] / [`Frame::Release`] /
//!   [`Frame::BarrierAck`]. Its consumer never blocks on protocol
//!   progress, so acks and releases overtake a parked prepare — without
//!   this split, a participant waiting for release could never hear it.

use std::collections::VecDeque;
use std::sync::Arc;

use ad_kv::RedoOps;
use ad_support::sync::{Condvar, Mutex};

/// One protocol message. `Prepare`/`Ack`/`Release` are the 2-phase
/// commit itself; `Barrier`/`BarrierAck` are the quiesce handshake
/// [`crate::ShardRouter::checkpoint_all`] uses; `Shutdown` is local
/// queue control (a wire transport would map it to connection close).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Frame {
    /// Coordinator → participant: stage this slice of batch `gid`
    /// durably, ack, and hold it invisible until release.
    Prepare {
        /// Global cross-shard transaction id (coordinator shard in the
        /// high 16 bits).
        gid: u64,
        /// Coordinator shard index — where the ack goes back to.
        from: u16,
        /// The participant's slice, in application order.
        ops: RedoOps,
    },
    /// Participant → coordinator: the slice of `gid` is staged durably.
    Ack {
        /// The acked transaction.
        gid: u64,
        /// Participant shard index.
        from: u16,
    },
    /// Coordinator → participant: the decision record for `gid` is
    /// durable — expose the slice.
    Release {
        /// The decided transaction.
        gid: u64,
    },
    /// Drain marker: answered with [`Frame::BarrierAck`] only after
    /// every earlier data frame fully resolved.
    Barrier {
        /// Caller-chosen handshake id.
        id: u64,
        /// Shard whose control queue receives the ack.
        from: u16,
    },
    /// Answer to [`Frame::Barrier`].
    BarrierAck {
        /// The handshake id being answered.
        id: u64,
        /// The shard that drained.
        from: u16,
    },
    /// Stop the receiving worker (in-process control).
    Shutdown,
}

/// Fire-and-forget frame delivery to a shard. Sends must not block on
/// protocol progress (queueing is fine; waiting for the peer to act is
/// not) — the router's liveness argument depends on it.
pub trait Transport: Send + Sync {
    /// Deliver `frame` to shard `to`.
    fn send(&self, to: u16, frame: Frame);
}

struct Queue {
    frames: Mutex<VecDeque<Frame>>,
    cv: Condvar,
}

impl Queue {
    fn new() -> Self {
        Queue {
            frames: Mutex::new(VecDeque::new()),
            cv: Condvar::new(),
        }
    }

    fn push(&self, frame: Frame) {
        self.frames.lock().push_back(frame);
        // One consumer per queue (a router worker).
        self.cv.notify_one();
    }

    fn pop_blocking(&self) -> Frame {
        let mut g = self.frames.lock();
        loop {
            if let Some(f) = g.pop_front() {
                return f;
            }
            self.cv.wait(&mut g);
        }
    }
}

/// In-process [`Transport`]: one data + one control queue per shard,
/// consumed by the router's worker threads.
pub struct LocalTransport {
    data: Vec<Arc<Queue>>,
    ctl: Vec<Arc<Queue>>,
}

impl LocalTransport {
    /// Queues for `n` shards.
    pub fn new(n: usize) -> Self {
        LocalTransport {
            data: (0..n).map(|_| Arc::new(Queue::new())).collect(),
            ctl: (0..n).map(|_| Arc::new(Queue::new())).collect(),
        }
    }

    /// Number of shards this transport serves.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True when built for zero shards (degenerate; routers refuse it).
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Blocking receive on shard `s`'s data queue (prepares, barriers).
    pub(crate) fn recv_data(&self, s: usize) -> Frame {
        self.data[s].pop_blocking()
    }

    /// Blocking receive on shard `s`'s control queue (acks, releases).
    pub(crate) fn recv_ctl(&self, s: usize) -> Frame {
        self.ctl[s].pop_blocking()
    }
}

impl Transport for LocalTransport {
    fn send(&self, to: u16, frame: Frame) {
        let to = to as usize;
        match frame {
            Frame::Prepare { .. } | Frame::Barrier { .. } => self.data[to].push(frame),
            Frame::Ack { .. } | Frame::Release { .. } | Frame::BarrierAck { .. } => {
                self.ctl[to].push(frame)
            }
            // Shutdown is broadcast by the router to both queues
            // explicitly; a bare send targets data.
            Frame::Shutdown => self.data[to].push(frame),
        }
    }
}

impl LocalTransport {
    /// Push [`Frame::Shutdown`] to both of shard `s`'s queues.
    pub(crate) fn shutdown(&self, s: usize) {
        self.data[s].push(Frame::Shutdown);
        self.ctl[s].push(Frame::Shutdown);
    }
}

#[cfg(all(test, not(loom)))]
mod tests {
    use super::*;

    #[test]
    fn frames_route_to_the_right_queue() {
        let t = LocalTransport::new(2);
        t.send(
            1,
            Frame::Prepare {
                gid: 7,
                from: 0,
                ops: vec![("k".into(), None)],
            },
        );
        t.send(1, Frame::Release { gid: 7 });
        t.send(0, Frame::Ack { gid: 7, from: 1 });
        // Control frames are readable even though a prepare is still
        // queued on data — the split that keeps release deliverable.
        assert_eq!(t.recv_ctl(1), Frame::Release { gid: 7 });
        assert_eq!(t.recv_ctl(0), Frame::Ack { gid: 7, from: 1 });
        match t.recv_data(1) {
            Frame::Prepare {
                gid: 7,
                from: 0,
                ops,
            } => {
                assert_eq!(ops, vec![("k".to_string(), None)]);
            }
            other => panic!("unexpected frame {other:?}"),
        }
    }
}
