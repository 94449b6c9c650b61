//! Runtime policy configuration.
//!
//! A [`TmConfig`] captures the knobs the paper's evaluation varies: STM vs
//! (simulated) HTM execution, the contention manager's serialization
//! threshold (GCC defaults: 100 for STM, 2 for HTM — paper §2), whether
//! writers quiesce for privatization safety (§2), and how `retry` waits
//! (§4.2).

/// How a transaction waits after `retry`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RetryPolicy {
    /// Abort and poll the read set's versions, spinning/yielding — the
    /// paper's implementation ("aborting and immediately retrying, instead
    /// of de-scheduling the transaction", §6.1). Default, used for all
    /// figure reproductions.
    Spin,
    /// Park the thread on the read set and let the next conflicting
    /// committer unpark it — the "efficient retry" the paper wishes the C++
    /// TMTS provided. Exercised by the `ablation_retry` bench.
    Park,
}

/// Execution mode: real STM or simulated best-effort HTM.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Software TM: invisible readers, commit-time validation, quiescence.
    Stm,
    /// Simulated best-effort hardware TM (substitution for Intel TSX, see
    /// DESIGN.md §5): capacity-bounded footprint, no quiescence, unsafe
    /// operations abort, low retry budget before the serial fallback lock.
    HtmSim(HtmConfig),
}

/// Parameters of the simulated HTM.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HtmConfig {
    /// Maximum tracked footprint in bytes before a
    /// [`Capacity`](crate::StmError::Capacity) abort. Models the L1-bounded write set of
    /// real best-effort HTM. Default 32 KiB.
    pub capacity_bytes: u64,
    /// Footprint charged per distinct transactional variable accessed
    /// (models one cache line per word-sized location). Default 64.
    pub bytes_per_access: u64,
}

impl Default for HtmConfig {
    fn default() -> Self {
        HtmConfig {
            capacity_bytes: 32 * 1024,
            bytes_per_access: 64,
        }
    }
}

/// Complete policy configuration for a [`Runtime`](crate::Runtime).
#[derive(Debug, Clone, Copy)]
pub struct TmConfig {
    /// STM or simulated HTM.
    pub mode: Mode,
    /// Number of failed attempts (conflict/capacity/unsupported) after which
    /// the contention manager escalates to serial, irrevocable execution.
    pub serialize_after: u32,
    /// Whether writer commits quiesce (wait for all concurrent transactions
    /// that started earlier). Required for privatization safety in the C++
    /// TMTS model; switchable here for the quiescence ablation.
    pub quiesce: bool,
    /// How `retry` waits.
    pub retry_policy: RetryPolicy,
    /// Upper bound on contention-manager backoff spins (exponential from 64).
    pub max_backoff_spins: u32,
    /// Capacity, in events, of each thread's trace ring (rounded up to a
    /// power of two, minimum 2). Older events are overwritten once the ring
    /// wraps between drains; `Trace::dropped` counts the overwritten ones.
    /// Smaller rings cost less memory per thread, larger ones survive
    /// longer gaps between `Runtime::take_trace` calls. Default 16384.
    pub trace_ring_events: usize,
}

impl TmConfig {
    /// GCC-libitm-like STM defaults: serialize after 100 attempts, quiesce
    /// on, spin retry.
    pub fn stm() -> Self {
        TmConfig {
            mode: Mode::Stm,
            serialize_after: 100,
            quiesce: true,
            retry_policy: RetryPolicy::Spin,
            max_backoff_spins: 1 << 14,
            trace_ring_events: 1 << 14,
        }
    }

    /// Simulated-HTM defaults: serialize after 2 attempts (GCC's HTM
    /// default), no quiescence (hardware TM does not need it).
    pub fn htm() -> Self {
        TmConfig {
            mode: Mode::HtmSim(HtmConfig::default()),
            serialize_after: 2,
            quiesce: false,
            retry_policy: RetryPolicy::Spin,
            max_backoff_spins: 1 << 10,
            trace_ring_events: 1 << 14,
        }
    }

    /// Builder-style override of the serialization threshold.
    pub fn with_serialize_after(mut self, attempts: u32) -> Self {
        self.serialize_after = attempts;
        self
    }

    /// Builder-style override of quiescence.
    pub fn with_quiesce(mut self, on: bool) -> Self {
        self.quiesce = on;
        self
    }

    /// Builder-style override of the retry policy.
    pub fn with_retry_policy(mut self, p: RetryPolicy) -> Self {
        self.retry_policy = p;
        self
    }

    /// Builder-style override of the simulated HTM capacity (no-op in STM
    /// mode).
    pub fn with_htm_capacity(mut self, bytes: u64) -> Self {
        if let Mode::HtmSim(ref mut h) = self.mode {
            h.capacity_bytes = bytes;
        }
        self
    }

    /// Builder-style override of the per-thread trace ring capacity (in
    /// events; rounded up to a power of two, minimum 2, at ring creation).
    pub fn with_trace_ring(mut self, events: usize) -> Self {
        self.trace_ring_events = events;
        self
    }

    /// True when running as simulated HTM.
    pub fn is_htm(&self) -> bool {
        matches!(self.mode, Mode::HtmSim(_))
    }
}

impl Default for TmConfig {
    fn default() -> Self {
        TmConfig::stm()
    }
}

#[cfg(all(test, not(loom)))]
mod tests {
    use super::*;

    #[test]
    fn stm_defaults_match_gcc() {
        let c = TmConfig::stm();
        assert_eq!(c.serialize_after, 100);
        assert!(c.quiesce);
        assert!(!c.is_htm());
    }

    #[test]
    fn htm_defaults_match_gcc() {
        let c = TmConfig::htm();
        assert_eq!(c.serialize_after, 2);
        assert!(!c.quiesce);
        assert!(c.is_htm());
    }

    #[test]
    fn builders_compose() {
        let c = TmConfig::htm()
            .with_serialize_after(5)
            .with_quiesce(true)
            .with_retry_policy(RetryPolicy::Park)
            .with_htm_capacity(1024)
            .with_trace_ring(256);
        assert_eq!(c.serialize_after, 5);
        assert!(c.quiesce);
        assert_eq!(c.retry_policy, RetryPolicy::Park);
        assert_eq!(c.trace_ring_events, 256);
        match c.mode {
            Mode::HtmSim(h) => assert_eq!(h.capacity_bytes, 1024),
            _ => panic!("expected HTM mode"),
        }
    }

    #[test]
    fn htm_capacity_override_is_noop_for_stm() {
        let c = TmConfig::stm().with_htm_capacity(1);
        assert!(!c.is_htm());
    }
}
