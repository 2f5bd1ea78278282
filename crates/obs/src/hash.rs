//! The workspace's two dependency-free hashes, defined once:
//!
//! * **FNV-1a** — stable content fingerprints (golden traces, reply and
//!   output fingerprints, simulator fault fates) and consistent-hash
//!   ring placement.
//! * **splitmix64** — seed streams (simtest schedules) and resume
//!   tokens; its finalizer also avalanches ring points.
//!
//! Every output is pinned somewhere (golden-trace hashes, simtest
//! fingerprints, ring placement, token strings), so these functions
//! must never change.

/// FNV-1a 64-bit offset basis.
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV-1a 64-bit prime.
pub const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Continue an FNV-1a hash from state `h` over `bytes`.
pub fn fnv1a_extend(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// FNV-1a of `bytes` from the standard offset basis.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    fnv1a_extend(FNV_OFFSET, bytes)
}

/// Fold a whole 64-bit word into an FNV accumulator with one
/// xor-multiply step (how aggregate fingerprints combine per-seed ones).
pub fn fnv_fold(h: u64, word: u64) -> u64 {
    (h ^ word).wrapping_mul(FNV_PRIME)
}

/// splitmix64 increment (the 64-bit golden ratio).
pub const SPLITMIX_GAMMA: u64 = 0x9e37_79b9_7f4a_7c15;

/// The splitmix64 finalizer: a bijective avalanche of `z`.
pub fn splitmix64_mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Advance the splitmix64 stream at `state` and return the next draw.
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(SPLITMIX_GAMMA);
    splitmix64_mix(*state)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv1a_matches_published_vectors() {
        assert_eq!(fnv1a(b""), FNV_OFFSET);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a_extend(fnv1a(b"fo"), b"o"), fnv1a(b"foo"));
    }

    #[test]
    fn splitmix64_matches_reference_stream() {
        // First draws of the reference splitmix64 generator seeded at 0.
        let mut s = 0u64;
        assert_eq!(splitmix64(&mut s), 0xe220_a839_7b1d_cdaf);
        assert_eq!(splitmix64(&mut s), 0x6e78_9e6a_a1b9_65f4);
    }
}
