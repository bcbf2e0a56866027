//! Stand-in for the part of `rand` 0.9 the benchmarked crates use:
//! `StdRng::seed_from_u64`, `Rng::random::<f64>()` and `Rng::random_range`
//! (over `f64`, and over `usize` for the harness's own shuffles).
//! The generator is xoshiro256++ seeded through SplitMix64, **not** the
//! real `StdRng` (ChaCha12): streams differ from real-`rand` streams.

use std::ops::Range;

/// Source of raw 64-bit words.
pub trait RngCore {
    /// The next 64 random bits.
    fn next_u64(&mut self) -> u64;
}

/// Construction from a seed.
pub trait SeedableRng: Sized {
    /// Builds a generator whose whole stream is a function of `seed`.
    fn seed_from_u64(seed: u64) -> Self;
}

/// Types `Rng::random` can produce.
pub trait Random {
    /// Draws one value.
    fn random<R: RngCore + ?Sized>(rng: &mut R) -> Self;
}

impl Random for f64 {
    /// Uniform in `[0, 1)` with 53 random bits.
    fn random<R: RngCore + ?Sized>(rng: &mut R) -> f64 {
        (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

/// Ranges `Rng::random_range` can sample from.
pub trait SampleRange<T> {
    /// Draws one value inside the range.
    fn sample<R: RngCore + ?Sized>(self, rng: &mut R) -> T;
}

impl SampleRange<f64> for Range<f64> {
    fn sample<R: RngCore + ?Sized>(self, rng: &mut R) -> f64 {
        assert!(self.start < self.end, "cannot sample an empty range");
        self.start + (self.end - self.start) * f64::random(rng)
    }
}

impl SampleRange<usize> for Range<usize> {
    /// Multiply-shift reduction; its bias (< 2^-32 for the spans used here)
    /// is irrelevant to a workload generator.
    fn sample<R: RngCore + ?Sized>(self, rng: &mut R) -> usize {
        assert!(self.start < self.end, "cannot sample an empty range");
        let span = (self.end - self.start) as u128;
        self.start + ((rng.next_u64() as u128 * span) >> 64) as usize
    }
}

/// The user-facing sampling methods, available on every [`RngCore`].
pub trait Rng: RngCore {
    /// A value of `T` from its standard distribution.
    fn random<T: Random>(&mut self) -> T {
        T::random(self)
    }

    /// A value uniformly inside `range`.
    fn random_range<T, S: SampleRange<T>>(&mut self, range: S) -> T {
        range.sample(self)
    }
}

impl<R: RngCore + ?Sized> Rng for R {}

/// Generators.
pub mod rngs {
    use super::{RngCore, SeedableRng};

    /// xoshiro256++ (Blackman & Vigna).
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct StdRng {
        s: [u64; 4],
    }

    impl SeedableRng for StdRng {
        fn seed_from_u64(seed: u64) -> Self {
            // SplitMix64 expands the seed and never yields the all-zero state.
            let mut x = seed;
            let mut next = || {
                x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
                let mut z = x;
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                z ^ (z >> 31)
            };
            StdRng { s: [next(), next(), next(), next()] }
        }
    }

    impl RngCore for StdRng {
        fn next_u64(&mut self) -> u64 {
            let s = &mut self.s;
            let result = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
            let t = s[1] << 17;
            s[2] ^= s[0];
            s[3] ^= s[1];
            s[1] ^= s[2];
            s[0] ^= s[3];
            s[2] ^= t;
            s[3] = s[3].rotate_left(45);
            result
        }
    }
}
