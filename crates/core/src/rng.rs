//! The workspace's one seeded random generator: xoroshiro128++ seeded by
//! splitmix64.
//!
//! Seeded workloads (the synthetic commercial system, random call trees,
//! the state-machine experiment's corruption) must replay the same system
//! from the same seed on every build, so the streams here are pinned by
//! test vectors. [`splitmix64`] and its finalizer [`mix64`] are also the
//! workspace's one integer mixer: UUID seeding and the exemplar sampler
//! use them. Statistical quality targets simulation, not cryptography.

use std::ops::{Bound, RangeBounds};

const GOLDEN_GAMMA: u64 = 0x9e37_79b9_7f4a_7c15;

/// The splitmix64 finalizer: every output bit depends on every input bit.
pub fn mix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// One splitmix64 step: advances `state` and returns the next output.
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(GOLDEN_GAMMA);
    mix64(*state)
}

/// A small, fast, seedable generator (xoroshiro128++).
#[derive(Debug, Clone)]
pub struct Rng {
    s0: u64,
    s1: u64,
}

impl Rng {
    /// Builds a generator from a 16-byte seed (two little-endian words).
    pub fn from_seed(seed: [u8; 16]) -> Rng {
        let (lo, hi) = seed.split_at(8);
        let s0 = u64::from_le_bytes(lo.try_into().expect("8 bytes"));
        let s1 = u64::from_le_bytes(hi.try_into().expect("8 bytes"));
        if s0 == 0 && s1 == 0 {
            // The all-zero state is a fixed point of xoroshiro.
            return Rng { s0: GOLDEN_GAMMA, s1: 1 };
        }
        Rng { s0, s1 }
    }

    /// Builds a generator by expanding a 64-bit seed with splitmix64.
    pub fn seed_from_u64(seed: u64) -> Rng {
        let mut state = seed;
        let mut raw = [0u8; 16];
        for chunk in raw.chunks_exact_mut(8) {
            chunk.copy_from_slice(&splitmix64(&mut state).to_le_bytes());
        }
        Rng::from_seed(raw)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        let (s0, mut s1) = (self.s0, self.s1);
        let result = s0.wrapping_add(s1).rotate_left(17).wrapping_add(s0);
        s1 ^= s0;
        self.s0 = s0.rotate_left(49) ^ s1 ^ (s1 << 21);
        self.s1 = s1.rotate_left(28);
        result
    }

    /// A value inside `range` (`a..b` or `a..=b`): 128 random bits reduced
    /// modulo the span.
    ///
    /// # Panics
    ///
    /// Panics on an empty or unbounded range.
    pub fn gen_range(&mut self, range: impl RangeBounds<usize>) -> usize {
        let lo = match range.start_bound() {
            Bound::Included(&n) => n,
            _ => panic!("gen_range needs an inclusive start"),
        };
        let span = match range.end_bound() {
            Bound::Excluded(&hi) if hi > lo => (hi - lo) as u128,
            Bound::Included(&hi) if hi >= lo => (hi - lo) as u128 + 1,
            _ => panic!("gen_range over an empty or unbounded range"),
        };
        let bits = ((self.next_u64() as u128) << 64) | self.next_u64() as u128;
        lo + (bits % span) as usize
    }

    /// `true` with probability `p`.
    ///
    /// # Panics
    ///
    /// Panics unless `0.0 <= p <= 1.0`.
    pub fn gen_bool(&mut self, p: f64) -> bool {
        assert!((0.0..=1.0).contains(&p), "gen_bool probability {p} outside [0, 1]");
        // 53 uniform mantissa bits in [0, 1).
        let unit = (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
        unit < p
    }

    /// Shuffles `items` in place (Fisher–Yates, from the back).
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.gen_range(0..=i);
            items.swap(i, j);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // Every vector below was produced by the xoroshiro128++ generator the
    // seeded workloads used before this module existed; equal streams keep
    // every seeded system and experiment exactly where it was.

    fn first8(mut rng: Rng) -> [u64; 8] {
        std::array::from_fn(|_| rng.next_u64())
    }

    #[test]
    fn seeded_streams_match_the_pinned_vectors() {
        assert_eq!(
            first8(Rng::seed_from_u64(0)),
            [
                0x6f68e1e7e2646ee1,
                0xbf971b7f454094ad,
                0x48f2de556f30de38,
                0x6ea7c59f89bbfc75,
                0x765437c08f02e2f5,
                0x54e0c2b4db118f37,
                0xde7254080893a80d,
                0xb1c148b286ad9556,
            ]
        );
        assert_eq!(
            first8(Rng::seed_from_u64(42)),
            [
                0xe88af6caef1d3c23,
                0x54a303b2a5a54931,
                0xf370812ccd646345,
                0x345839c63f9abb35,
                0x57c3b20e1a93eb7f,
                0x178a65c896610064,
                0x7d7184a88f527ec2,
                0x1976c31eb11d8feb,
            ]
        );
        assert_eq!(
            first8(Rng::seed_from_u64(u64::MAX)),
            [
                0xb897602e7938c912,
                0x92ac733c00c69e74,
                0x79077f68c57fd4f5,
                0xc2236f3f6278b151,
                0x157f5de82353f0d1,
                0x46a3988ee5683084,
                0xf708c970c29dfce6,
                0x125b1c8d2759c42d,
            ]
        );
        let seed: [u8; 16] = std::array::from_fn(|i| i as u8 + 1);
        assert_eq!(
            first8(Rng::from_seed(seed)),
            [
                0x302b26211c17322d,
                0x501a260c061f3b25,
                0x64fc560c2f90d5e8,
                0x667884d629e61984,
                0x36b5d7b45730a91c,
                0xfe597b6c1b494d0b,
                0x5945546d37981f79,
                0xfb90c689089b4da5,
            ]
        );
    }

    #[test]
    fn sampling_matches_the_pinned_vectors() {
        let mut rng = Rng::seed_from_u64(7);
        let draws: Vec<usize> = (0..32).map(|_| rng.gen_range(0..7usize)).collect();
        assert_eq!(
            draws,
            [
                1, 1, 0, 0, 2, 6, 6, 0, 0, 6, 5, 4, 4, 6, 5, 1, 2, 0, 3, 0, 6, 2, 1, 1, 0, 3, 4, 2,
                1, 2, 3, 5
            ]
        );
        let mut rng = Rng::seed_from_u64(7);
        let draws: Vec<usize> = (0..32).map(|_| rng.gen_range(1..=3usize)).collect();
        assert_eq!(
            draws,
            [
                2, 2, 2, 2, 2, 2, 1, 3, 1, 2, 1, 1, 2, 3, 1, 3, 3, 3, 3, 2, 2, 3, 3, 3, 1, 2, 2, 1,
                1, 3, 1, 2
            ]
        );
        let mut rng = Rng::seed_from_u64(7);
        let hits: String = (0..32).map(|_| if rng.gen_bool(0.3) { '1' } else { '0' }).collect();
        assert_eq!(hits, "01001001010000110101010000010110");
        let mut rng = Rng::seed_from_u64(7);
        let mut items: Vec<u32> = (0..16).collect();
        rng.shuffle(&mut items);
        assert_eq!(items, [1, 5, 8, 14, 7, 12, 6, 3, 2, 13, 11, 15, 9, 0, 4, 10]);
    }

    #[test]
    fn all_zero_seed_is_replaced() {
        let mut rng = Rng::from_seed([0; 16]);
        assert_ne!(rng.next_u64(), rng.next_u64());
    }

    #[test]
    fn gen_range_respects_bounds_and_gen_bool_its_extremes() {
        let mut rng = Rng::seed_from_u64(11);
        for _ in 0..1000 {
            assert!((3..10).contains(&rng.gen_range(3..10)));
            assert!((1..=3).contains(&rng.gen_range(1..=3)));
        }
        assert!((0..100).all(|_| !rng.gen_bool(0.0)));
        assert!((0..100).all(|_| rng.gen_bool(1.0)));
    }

    #[test]
    fn mix64_is_the_splitmix64_finalizer() {
        let mut state = 5;
        assert_eq!(splitmix64(&mut state), mix64(5 + GOLDEN_GAMMA));
        assert_eq!(state, 5 + GOLDEN_GAMMA);
    }
}
