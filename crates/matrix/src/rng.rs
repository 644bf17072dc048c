//! In-tree deterministic RNG: SplitMix64.
//!
//! The workspace builds with no registry access, so everything that needs
//! randomness — dataset generators, fault injection, randomized tests —
//! shares this tiny generator instead of the `rand` crate. SplitMix64 is
//! the same mixer [`random_cell`] makes `RandomMatrix` cells with; it is
//! statistically solid for simulation purposes, trivially seedable, and
//! its streams are reproducible across platforms (pure `u64` arithmetic).

/// Cell `(i, j)` of `random` matrix `matrix` under `seed`: a uniform
/// `f64` in `[0, 1)`, SplitMix64's mixer over the cell coordinates. Pure,
/// so a `RandomMatrix` is the same wherever it is made — the engine's
/// oracle and every worker process that owns one of its tiles
/// ([`crate::BlockedMatrix::tile_from_fn`]). Inlined across crates: it is
/// called once per cell from generic tile loops instantiated elsewhere.
#[inline]
pub fn random_cell(seed: u64, matrix: u32, i: usize, j: usize) -> f64 {
    let mut z = seed
        .wrapping_add(u64::from(matrix) << 48)
        .wrapping_add((i as u64) << 24)
        .wrapping_add(j as u64)
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^= z >> 31;
    (z >> 11) as f64 / (1u64 << 53) as f64
}

/// A SplitMix64 pseudo-random generator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Seed the generator.
    pub fn new(seed: u64) -> SplitMix64 {
        SplitMix64 { state: seed }
    }

    /// Next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform `f64` in `[0, 1)` (53 bits of precision).
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform integer in `[0, bound)`. `bound` must be non-zero.
    pub fn below(&mut self, bound: usize) -> usize {
        debug_assert!(bound > 0);
        // Multiply-shift bounded sampling (Lemire); bias is < 2^-64 per
        // draw, irrelevant at simulation scale.
        (((self.next_u64() as u128) * (bound as u128)) >> 64) as usize
    }

    /// Uniform integer in `[lo, hi]` inclusive.
    pub fn range_inclusive(&mut self, lo: usize, hi: usize) -> usize {
        lo + self.below(hi - lo + 1)
    }

    /// Uniform `f64` in `[lo, hi)`.
    pub fn range_f64(&mut self, lo: f64, hi: f64) -> f64 {
        lo + self.next_f64() * (hi - lo)
    }

    /// Bernoulli draw with probability `p`. Always advances the stream,
    /// even for `p <= 0`, so fault schedules stay aligned across configs.
    pub fn chance(&mut self, p: f64) -> bool {
        self.next_f64() < p
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_per_seed() {
        let mut a = SplitMix64::new(42);
        let mut b = SplitMix64::new(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut c = SplitMix64::new(43);
        assert_ne!(SplitMix64::new(42).next_u64(), c.next_u64());
    }

    #[test]
    fn f64_in_unit_interval_and_uniform_ish() {
        let mut r = SplitMix64::new(7);
        let n = 10_000;
        let mut sum = 0.0;
        for _ in 0..n {
            let x = r.next_f64();
            assert!((0.0..1.0).contains(&x));
            sum += x;
        }
        let mean = sum / n as f64;
        assert!((mean - 0.5).abs() < 0.02, "mean {mean}");
    }

    #[test]
    fn bounded_draws_cover_range() {
        let mut r = SplitMix64::new(1);
        let mut seen = [false; 10];
        for _ in 0..1000 {
            let x = r.below(10);
            assert!(x < 10);
            seen[x] = true;
        }
        assert!(seen.iter().all(|&s| s), "all buckets hit");
        for _ in 0..100 {
            let x = r.range_inclusive(3, 5);
            assert!((3..=5).contains(&x));
        }
    }

    #[test]
    fn chance_extremes() {
        let mut r = SplitMix64::new(9);
        assert!(!(0..100).any(|_| r.chance(0.0)));
        assert!((0..100).all(|_| r.chance(1.1)));
    }
}
