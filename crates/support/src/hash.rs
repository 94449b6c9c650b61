//! Non-cryptographic 64-bit hashing for key placement.
//!
//! [`fnv1a64`] is the one key hash of the workspace: the shard router
//! partitions the key space with it and each store places keys on its
//! internal lock stripes from it. Two consumers that both reduce the *same*
//! hash modulo small numbers pick correlated residues — a router sending
//! the even hashes to shard 0 leaves that store only its even stripes — so
//! the inner consumer decorrelates with [`mix64`] first.

/// FNV-1a over `data` (64-bit offset basis and prime).
pub fn fnv1a64(data: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in data {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// A bijective finalizer (MurmurHash3 `fmix64`): every output bit depends
/// on every input bit, so residues of `mix64(h)` are independent of
/// residues of `h`.
pub fn mix64(mut h: u64) -> u64 {
    h ^= h >> 33;
    h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
    h ^= h >> 33;
    h = h.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
    h ^ (h >> 33)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv1a64_matches_the_reference_vectors() {
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn mix64_decorrelates_low_bits() {
        // Inputs that agree in their low four bits spread over every
        // residue class mod 16 once mixed.
        let mut seen = [false; 16];
        for i in 0..1000u64 {
            seen[(mix64(i << 4) % 16) as usize] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }
}
