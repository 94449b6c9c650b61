//! Runtime policy configuration.
//!
//! A [`TmConfig`] captures the knobs the paper's evaluation varies: STM vs
//! (simulated) HTM execution and its capacity, the contention manager's
//! serialization threshold (GCC defaults: 100 for STM, 2 for HTM — paper
//! §2), and whether writers quiesce for privatization safety (§2). `retry`
//! has one meaning, the paper's (§4.2): abort, then spin and yield until a
//! version in the read set moves (`retry.rs`).

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
}

impl HtmConfig {
    /// Footprint charged per distinct transactional variable accessed
    /// (models one cache line per word-sized location).
    pub const ACCESS_BYTES: u64 = 64;
}

impl Default for HtmConfig {
    fn default() -> Self {
        HtmConfig {
            capacity_bytes: 32 * 1024,
        }
    }
}

impl Mode {
    /// Upper bound on contention-manager backoff spins (exponential from
    /// 64): a short ceiling for simulated HTM, whose serial fallback comes
    /// after two attempts, a long one for STM.
    pub(crate) fn backoff_ceiling(&self) -> u32 {
        match self {
            Mode::Stm => 1 << 14,
            Mode::HtmSim(_) => 1 << 10,
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
}

impl TmConfig {
    /// GCC-libitm-like STM defaults: serialize after 100 attempts, quiesce
    /// on.
    pub fn stm() -> Self {
        TmConfig {
            mode: Mode::Stm,
            serialize_after: 100,
            quiesce: true,
        }
    }

    /// Simulated-HTM defaults: serialize after 2 attempts (GCC's HTM
    /// default), no quiescence (hardware TM does not need it).
    pub fn htm() -> Self {
        TmConfig {
            mode: Mode::HtmSim(HtmConfig::default()),
            serialize_after: 2,
            quiesce: false,
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

    /// Builder-style override of the simulated HTM capacity (no-op in STM
    /// mode).
    pub fn with_htm_capacity(mut self, bytes: u64) -> Self {
        if let Mode::HtmSim(ref mut h) = self.mode {
            h.capacity_bytes = bytes;
        }
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
        assert_eq!(c.mode.backoff_ceiling(), 1 << 14);
    }

    #[test]
    fn htm_defaults_match_gcc() {
        let c = TmConfig::htm();
        assert_eq!(c.serialize_after, 2);
        assert!(!c.quiesce);
        assert!(c.is_htm());
        assert_eq!(c.mode.backoff_ceiling(), 1 << 10);
    }

    #[test]
    fn builders_compose() {
        let c = TmConfig::htm()
            .with_serialize_after(5)
            .with_quiesce(true)
            .with_htm_capacity(1024);
        assert_eq!(c.serialize_after, 5);
        assert!(c.quiesce);
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
