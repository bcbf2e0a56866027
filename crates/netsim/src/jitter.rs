//! Optional per-hop latency noise.
//!
//! Real WAN hops vary around their base latency. The engine asks the
//! jitter model for an extra delay on every hop; with [`Jitter::disabled`]
//! the simulation is exactly the analytic model, which is how the
//! integration tests cross-validate the two.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Per-hop jitter configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Jitter {
    /// No jitter: every hop takes exactly its base latency.
    Disabled,
    /// Uniform extra delay in `[0, amplitude_ms)` per hop.
    Uniform {
        /// Amplitude of the uniform noise, in milliseconds.
        amplitude_ms: f64,
    },
}

impl Jitter {
    /// No jitter.
    pub fn disabled() -> Self {
        Jitter::Disabled
    }

    /// Uniform jitter in `[0, amplitude_ms)`.
    ///
    /// # Panics
    ///
    /// Panics if `amplitude_ms` is negative or not finite.
    pub fn uniform(amplitude_ms: f64) -> Self {
        assert!(
            amplitude_ms.is_finite() && amplitude_ms >= 0.0,
            "jitter amplitude must be finite and non-negative"
        );
        if amplitude_ms == 0.0 {
            Jitter::Disabled
        } else {
            Jitter::Uniform { amplitude_ms }
        }
    }
}

/// A seeded source of per-hop jitter samples.
#[derive(Debug)]
pub struct JitterSource {
    jitter: Jitter,
    rng: StdRng,
}

impl JitterSource {
    /// Creates a source with the given model and seed.
    pub fn new(jitter: Jitter, seed: u64) -> Self {
        JitterSource { jitter, rng: StdRng::seed_from_u64(seed) }
    }

    /// Whether every sample is 0.0, drawn from no random number.
    pub(crate) fn is_disabled(&self) -> bool {
        self.jitter == Jitter::Disabled
    }

    /// The extra delay for one hop, in milliseconds.
    pub fn sample(&mut self) -> f64 {
        match self.jitter {
            Jitter::Disabled => 0.0,
            Jitter::Uniform { amplitude_ms } => self.rng.random_range(0.0..amplitude_ms),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_samples_zero() {
        let mut s = JitterSource::new(Jitter::disabled(), 1);
        for _ in 0..10 {
            assert_eq!(s.sample(), 0.0);
        }
    }

    #[test]
    fn uniform_within_bounds() {
        let mut s = JitterSource::new(Jitter::uniform(3.0), 1);
        for _ in 0..1000 {
            let v = s.sample();
            assert!((0.0..3.0).contains(&v));
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let mut a = JitterSource::new(Jitter::uniform(3.0), 9);
        let mut b = JitterSource::new(Jitter::uniform(3.0), 9);
        for _ in 0..100 {
            assert_eq!(a.sample(), b.sample());
        }
    }

    #[test]
    fn zero_amplitude_collapses_to_disabled() {
        assert_eq!(Jitter::uniform(0.0), Jitter::Disabled);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_amplitude_rejected() {
        let _ = Jitter::uniform(-1.0);
    }
}
