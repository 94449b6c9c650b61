//! Contention management (paper §2).
//!
//! On conflict aborts we back off with randomized exponential delay; after
//! `serialize_after` failed attempts the runtime escalates the transaction
//! to serial, irrevocable execution — "most TM implementations employ
//! serialization as a last resort". The threshold is the knob explored by
//! the `serialize_threshold` ablation bench (cf. Diegues et al. [4]).

use std::cell::Cell;

thread_local! {
    /// Per-thread xorshift state for backoff jitter. Seeded from the
    /// thread's slot address so threads desynchronize without needing an
    /// RNG dependency inside the STM.
    static JITTER: Cell<u64> = Cell::new({
        let local = 0u8;
        (&local as *const u8 as u64) | 1
    });
}

fn next_jitter() -> u64 {
    JITTER.with(|s| {
        let mut x = s.get();
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        s.set(x);
        x
    })
}

/// Tracks one logical transaction's attempts and provides backoff.
pub(crate) struct ContentionManager {
    failures: u32,
    serialize_after: u32,
    max_spins: u32,
}

impl ContentionManager {
    pub(crate) fn new(serialize_after: u32, max_spins: u32) -> Self {
        ContentionManager {
            failures: 0,
            serialize_after,
            max_spins: max_spins.max(1),
        }
    }

    /// Record a failed attempt (conflict/capacity/unsupported) and back off.
    pub(crate) fn on_failure(&mut self) {
        self.failures += 1;
        self.backoff();
    }

    /// Record an `unsupported` abort: the closure needs serial mode. No
    /// point in backing off or re-trying speculatively more than the HTM/
    /// STM policy allows — we still count it so `should_serialize` fires,
    /// but callers may also force serialization immediately.
    pub(crate) fn on_unsupported(&mut self) {
        self.failures = self.failures.max(self.serialize_after);
    }

    /// Should the next attempt run serially/irrevocably?
    pub(crate) fn should_serialize(&self) -> bool {
        self.failures >= self.serialize_after
    }

    #[cfg(all(test, not(loom)))]
    pub(crate) fn failures(&self) -> u32 {
        self.failures
    }

    /// Randomized exponential backoff: spin between 0 and
    /// `min(64 << failures, max_spins)` iterations, yielding occasionally
    /// for long waits.
    fn backoff(&self) {
        let ceiling = (64u64 << self.failures.min(20)).min(self.max_spins as u64);
        let spins = next_jitter() % (ceiling + 1);
        for i in 0..spins {
            if i % 1024 == 1023 {
                std::thread::yield_now();
            } else {
                std::hint::spin_loop();
            }
        }
    }
}

#[cfg(all(test, not(loom)))]
mod tests {
    use super::*;

    #[test]
    fn serializes_after_threshold() {
        let mut cm = ContentionManager::new(3, 64);
        assert!(!cm.should_serialize());
        cm.on_failure();
        cm.on_failure();
        assert!(!cm.should_serialize());
        cm.on_failure();
        assert!(cm.should_serialize());
        assert_eq!(cm.failures(), 3);
    }

    #[test]
    fn threshold_zero_serializes_immediately() {
        let cm = ContentionManager::new(0, 64);
        assert!(cm.should_serialize());
    }

    #[test]
    fn unsupported_jumps_to_threshold() {
        let mut cm = ContentionManager::new(100, 64);
        cm.on_unsupported();
        assert!(cm.should_serialize());
    }

    #[test]
    fn jitter_advances() {
        let a = next_jitter();
        let b = next_jitter();
        assert_ne!(a, b);
    }

    #[test]
    fn backoff_terminates_even_at_high_failure_counts() {
        let mut cm = ContentionManager::new(1000, 1 << 10);
        for _ in 0..64 {
            cm.on_failure();
        }
        // Reaching here means backoff() didn't overflow or hang.
        assert_eq!(cm.failures(), 64);
    }
}
