//! Seeded inputs: the PRNG, the zipf key chooser, per-workload operation
//! streams, and the self-describing values the read-back checks decode.
//!
//! Everything here is the harness's own (no program crate's PRNG), so the
//! same `--seed` gives the same inputs on any later commit.

/// Preloaded keys every workload draws from.
pub const N_KEYS: usize = 10_000;
/// Zipf skew of the key choice (YCSB's default).
pub const ZIPF_THETA: f64 = 0.99;
/// Bytes per value.
pub const VALUE_LEN: usize = 100;
/// Closed-loop client threads (`nproc` of the sandbox this was sized on).
pub const THREADS: usize = 2;
/// Writer id carried by preloaded values.
pub const PRELOAD_WRITER: u64 = u64::MAX;
/// Writer id carried by the fixed write tail that precedes timed reopens.
pub const TAIL_WRITER: u64 = u64::MAX - 1;
/// Files (and counters) in `defer_io`.
pub const N_FILES: usize = 4;
/// Bytes per `defer_io` record.
pub const RECORD_LEN: usize = 128;

/// splitmix64: small, fast, and good enough to drive a workload.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        mix(self.0)
    }

    /// Uniform in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: u64) -> u64 {
        ((self.next_u64() as u128 * n as u128) >> 64) as u64
    }
}

fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Zipf over ranks `0..n` by inverse CDF lookup (rank 0 is the hottest).
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, theta: f64) -> Zipf {
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for rank in 1..=n {
            acc += 1.0 / (rank as f64).powf(theta);
            cdf.push(acc);
        }
        for c in &mut cdf {
            *c /= acc;
        }
        Zipf { cdf }
    }

    pub fn sample(&self, rng: &mut Rng) -> u32 {
        let u = rng.next_f64();
        self.cdf
            .partition_point(|&c| c <= u)
            .min(self.cdf.len() - 1) as u32
    }
}

/// The five workloads, by the names later issues refer to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    NetUpdate,
    NetRead,
    ShardCross,
    KvVolatile,
    DeferIo,
}

impl Workload {
    pub const ALL: [Workload; 5] = [
        Workload::NetUpdate,
        Workload::NetRead,
        Workload::ShardCross,
        Workload::KvVolatile,
        Workload::DeferIo,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::NetUpdate => "net_update",
            Workload::NetRead => "net_read",
            Workload::ShardCross => "shard_cross",
            Workload::KvVolatile => "kv_volatile",
            Workload::DeferIo => "defer_io",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Percent of operations of each kind; sums to 100.
    fn mix(self) -> &'static [(u32, OpKind)] {
        match self {
            Workload::NetUpdate => &[(50, OpKind::Read), (50, OpKind::Write)],
            Workload::NetRead => &[(100, OpKind::Read)],
            Workload::ShardCross => &[
                (50, OpKind::Read),
                (24, OpKind::Write),
                (24, OpKind::CrossWrite),
                (2, OpKind::Probe),
            ],
            Workload::KvVolatile => &[
                (80, OpKind::Read),
                (19, OpKind::PairWrite),
                (1, OpKind::Scan),
            ],
            Workload::DeferIo => &[(50, OpKind::Read), (50, OpKind::Write)],
        }
    }

    /// Does the window write to a durable store, every write waiting for
    /// its fsync?
    pub fn waits_for_disk(self) -> bool {
        matches!(self, Workload::NetUpdate | Workload::ShardCross)
    }

    /// Are the stores on real files?
    pub fn durable(self) -> bool {
        matches!(
            self,
            Workload::NetUpdate | Workload::NetRead | Workload::ShardCross
        )
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum OpKind {
    Read,
    Write,
    PairWrite,
    CrossWrite,
    Scan,
    Probe,
}

/// One generated operation. Keys are indices into the key table; in
/// `defer_io` they are file indices.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    Read {
        key: u32,
    },
    Write {
        key: u32,
    },
    /// Two distinct keys in one batch.
    PairWrite {
        a: u32,
        b: u32,
    },
    /// A two-key batch whose second key is `key`'s partner on the other
    /// shard (known only once the stores are open).
    CrossWrite {
        key: u32,
    },
    Scan {
        key: u32,
    },
    Probe,
}

/// A thread's operation stream: `seed ^ thread` seeds its own PRNG, so
/// the streams are independent and each repeats exactly.
pub struct OpStream<'a> {
    rng: Rng,
    zipf: &'a Zipf,
    workload: Workload,
}

impl<'a> OpStream<'a> {
    pub fn new(workload: Workload, seed: u64, thread: usize, zipf: &'a Zipf) -> OpStream<'a> {
        OpStream {
            rng: Rng::new(mix(seed ^ thread as u64)),
            zipf,
            workload,
        }
    }

    fn key(&mut self) -> u32 {
        if self.workload == Workload::DeferIo {
            self.rng.below(N_FILES as u64) as u32
        } else {
            self.zipf.sample(&mut self.rng)
        }
    }

    pub fn next_op(&mut self) -> Op {
        let mut roll = self.rng.below(100) as u32;
        let mut kind = OpKind::Read;
        for &(share, k) in self.workload.mix() {
            kind = k;
            if roll < share {
                break;
            }
            roll -= share;
        }
        match kind {
            OpKind::Read => Op::Read { key: self.key() },
            OpKind::Write => Op::Write { key: self.key() },
            OpKind::PairWrite => {
                let a = self.key();
                let mut b = self.key();
                if b == a {
                    b = (a + 1) % N_KEYS as u32;
                }
                Op::PairWrite { a, b }
            }
            OpKind::CrossWrite => Op::CrossWrite { key: self.key() },
            OpKind::Scan => Op::Scan { key: self.key() },
            OpKind::Probe => Op::Probe,
        }
    }
}

/// Key names: the zipf keys `k00000000..`, then one canary per thread and
/// the atomicity-probe candidates. Fixed width, so name order is index
/// order for the zipf keys and the extras sort after them.
pub struct KeyTable {
    names: Vec<String>,
}

/// Probe-key candidates per thread; enough that two of them land on
/// different shards under any sane partition function.
pub const PROBE_CANDIDATES: usize = 16;

impl KeyTable {
    pub fn new() -> KeyTable {
        let mut names: Vec<String> = (0..N_KEYS).map(|i| format!("k{i:08}")).collect();
        for t in 0..THREADS {
            names.push(format!("z-canary-{t}"));
        }
        for t in 0..THREADS {
            for c in 0..PROBE_CANDIDATES {
                names.push(format!("z-probe-{t}-{c:02}"));
            }
        }
        KeyTable { names }
    }

    pub fn name(&self, idx: u32) -> &str {
        &self.names[idx as usize]
    }

    pub fn len(&self) -> usize {
        self.names.len()
    }

    pub fn canary(thread: usize) -> u32 {
        (N_KEYS + thread) as u32
    }

    pub fn probe_candidate(thread: usize, c: usize) -> u32 {
        (N_KEYS + THREADS + thread * PROBE_CANDIDATES + c) as u32
    }
}

/// What a value says about the write that produced it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Stamp {
    /// Writing thread, or [`PRELOAD_WRITER`].
    pub writer: u64,
    /// That thread's write sequence number (from 1; 0 for the preload).
    pub seq: u64,
    /// Index of the key the value was written to.
    pub key: u32,
}

/// A `VALUE_LEN`-byte value: `(writer, seq)` in the first 16 bytes, then
/// the key index, a check word over those 20 bytes, and filler that is a
/// function of the stamp — so a torn, truncated or misplaced value cannot
/// decode.
pub fn encode_value(stamp: Stamp) -> Vec<u8> {
    let mut v = Vec::with_capacity(VALUE_LEN);
    v.extend_from_slice(&stamp.writer.to_le_bytes());
    v.extend_from_slice(&stamp.seq.to_le_bytes());
    v.extend_from_slice(&stamp.key.to_le_bytes());
    let word = check_word(stamp);
    v.extend_from_slice(&(word as u32).to_le_bytes());
    let filler = word.to_le_bytes();
    while v.len() < VALUE_LEN {
        v.push(filler[v.len() % 8]);
    }
    v
}

fn check_word(stamp: Stamp) -> u64 {
    mix(stamp.writer ^ mix(stamp.seq ^ mix(u64::from(stamp.key))))
}

/// Decode a value; `None` unless it is byte-for-byte what
/// [`encode_value`] produces for the stamp it carries.
pub fn decode_value(v: &[u8]) -> Option<Stamp> {
    if v.len() != VALUE_LEN {
        return None;
    }
    let stamp = Stamp {
        writer: u64::from_le_bytes(v[0..8].try_into().ok()?),
        seq: u64::from_le_bytes(v[8..16].try_into().ok()?),
        key: u32::from_le_bytes(v[16..20].try_into().ok()?),
    };
    let word = check_word(stamp);
    let filler = word.to_le_bytes();
    let ok = v[20..24] == (word as u32).to_le_bytes()
        && v[24..]
            .iter()
            .enumerate()
            .all(|(i, &b)| b == filler[(24 + i) % 8]);
    ok.then_some(stamp)
}

/// One `defer_io` record: the file's counter value, then the writer and
/// its op sequence, padded to [`RECORD_LEN`].
pub fn encode_record(counter: u64, thread: u64, seq: u64) -> [u8; RECORD_LEN] {
    let mut r = [b'.'; RECORD_LEN];
    r[0..8].copy_from_slice(&counter.to_le_bytes());
    r[8..16].copy_from_slice(&thread.to_le_bytes());
    r[16..24].copy_from_slice(&seq.to_le_bytes());
    r[RECORD_LEN - 1] = b'\n';
    r
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_gives_the_same_op_list() {
        let zipf = Zipf::new(N_KEYS, ZIPF_THETA);
        for w in Workload::ALL {
            let list = |seed, thread| -> Vec<Op> {
                let mut s = OpStream::new(w, seed, thread, &zipf);
                (0..5000).map(|_| s.next_op()).collect()
            };
            assert_eq!(list(7, 0), list(7, 0), "{}", w.name());
            assert_ne!(
                list(7, 0),
                list(7, 1),
                "{}: threads share a stream",
                w.name()
            );
            assert_ne!(list(7, 0), list(8, 0), "{}: seed ignored", w.name());
        }
    }

    #[test]
    fn mixes_sum_to_100_and_are_honoured() {
        let zipf = Zipf::new(N_KEYS, ZIPF_THETA);
        for w in Workload::ALL {
            assert_eq!(
                w.mix().iter().map(|m| m.0).sum::<u32>(),
                100,
                "{}",
                w.name()
            );
        }
        let mut s = OpStream::new(Workload::ShardCross, 1, 0, &zipf);
        let n = 100_000;
        let probes = (0..n).filter(|_| s.next_op() == Op::Probe).count();
        assert!(
            (1_700..2_300).contains(&probes),
            "probe share off: {probes}"
        );
    }

    #[test]
    fn zipf_is_skewed_and_in_range() {
        let zipf = Zipf::new(N_KEYS, ZIPF_THETA);
        let mut rng = Rng::new(3);
        let mut hot = 0;
        for _ in 0..100_000 {
            let k = zipf.sample(&mut rng);
            assert!((k as usize) < N_KEYS);
            hot += usize::from(k < 10);
        }
        // theta 0.99 over 10k keys puts ~30% of the mass on the top ten.
        assert!((25_000..35_000).contains(&hot), "top-10 share off: {hot}");
    }

    #[test]
    fn values_decode_only_when_intact() {
        let stamp = Stamp {
            writer: 1,
            seq: 42,
            key: 977,
        };
        let v = encode_value(stamp);
        assert_eq!(v.len(), VALUE_LEN);
        assert_eq!(decode_value(&v), Some(stamp));
        for i in [0, 9, 17, 21, 50, VALUE_LEN - 1] {
            let mut bad = v.clone();
            bad[i] ^= 1;
            assert_eq!(decode_value(&bad), None, "flipped byte {i} still decodes");
        }
        assert_eq!(decode_value(&v[..VALUE_LEN - 1]), None);
    }
}
