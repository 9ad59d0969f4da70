//! The benchmark's own PRNG and checksum.
//!
//! Inputs must be byte-identical for one seed on every commit, so the
//! generator cannot borrow `vendor/rand` (a stand-in the repository may
//! change). SplitMix64 is small enough to own.

/// SplitMix64 (Steele, Lea, Flood 2014).
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn new(seed: u64) -> SplitMix64 {
        SplitMix64(seed)
    }

    /// An independent stream for one purpose (`tag`) of one seed, so adding
    /// a draw to one generator never shifts another's.
    pub fn stream(seed: u64, tag: &str) -> SplitMix64 {
        SplitMix64(seed ^ fnv1a64(tag.as_bytes()))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`). The modulo bias is below 2^-40 for the
    /// sizes used here and is the same on every run, which is what matters.
    pub fn below(&mut self, n: u64) -> u64 {
        assert!(n > 0, "below(0)");
        self.next_u64() % n
    }

    /// Uniform in `lo..hi`.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.below(hi - lo)
    }

    /// `k` distinct values from `lo..hi`, ascending (Floyd's algorithm).
    pub fn sample(&mut self, lo: u64, hi: u64, k: usize) -> Vec<u64> {
        let n = hi - lo;
        assert!(k as u64 <= n, "sample of {k} from {n}");
        let mut chosen = std::collections::BTreeSet::new();
        for j in (n - k as u64)..n {
            let t = self.below(j + 1);
            if !chosen.insert(lo + t) {
                chosen.insert(lo + j);
            }
        }
        chosen.into_iter().collect()
    }
}

/// FNV-1a, 64 bit.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_matches_reference_vector() {
        // Reference outputs for seed 1234567 from the published algorithm.
        let mut r = SplitMix64::new(1234567);
        assert_eq!(r.next_u64(), 6457827717110365317);
        assert_eq!(r.next_u64(), 3203168211198807973);
        assert_eq!(r.next_u64(), 9817491932198370423);
    }

    #[test]
    fn fnv_matches_reference_vectors() {
        assert_eq!(fnv1a64(b""), 0xCBF2_9CE4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xAF63_DC4C_8601_EC8C);
        assert_eq!(fnv1a64(b"foobar"), 0x8594_4171_F739_67E8);
    }

    #[test]
    fn sample_is_distinct_sorted_and_in_range() {
        let mut r = SplitMix64::new(7);
        let s = r.sample(10, 30, 20);
        assert_eq!(s.len(), 20);
        assert!(s.windows(2).all(|w| w[0] < w[1]));
        assert!(s.iter().all(|&v| (10..30).contains(&v)));
    }

    #[test]
    fn streams_differ_by_tag_and_repeat_by_seed() {
        let a: Vec<u64> = {
            let mut r = SplitMix64::stream(1, "audit");
            (0..4).map(|_| r.next_u64()).collect()
        };
        let b: Vec<u64> = {
            let mut r = SplitMix64::stream(1, "ops");
            (0..4).map(|_| r.next_u64()).collect()
        };
        let a2: Vec<u64> = {
            let mut r = SplitMix64::stream(1, "audit");
            (0..4).map(|_| r.next_u64()).collect()
        };
        assert_ne!(a, b);
        assert_eq!(a, a2);
    }
}
