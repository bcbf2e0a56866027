//! Optional per-hop latency noise.
//!
//! Real WAN hops vary around their base latency. The engine asks the
//! jitter model for an extra delay on every hop, scaling the hop's keyed
//! draw ([`multipub_core::draw`]); with [`Jitter::disabled`] it draws
//! nothing and the simulation is exactly the analytic model, which is how
//! the integration tests cross-validate the two.

use multipub_core::draw::{unit, Key};

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

    /// The extra delay of a hop whose draw `draw` returns, in
    /// milliseconds. Calls `draw` only when jitter is enabled.
    pub(crate) fn delay_ms(self, draw: impl FnOnce() -> u64) -> f64 {
        match self {
            Jitter::Disabled => 0.0,
            Jitter::Uniform { amplitude_ms } => unit(draw()) * amplitude_ms,
        }
    }
}

/// A seeded sequence of jitter samples: sample `n` scales the draw at
/// position `n` of the seed's key.
#[derive(Debug)]
pub struct JitterSource {
    jitter: Jitter,
    key: Key,
    drawn: u64,
}

impl JitterSource {
    /// Creates a source with the given model and seed.
    pub fn new(jitter: Jitter, seed: u64) -> Self {
        JitterSource { jitter, key: Key::new(seed), drawn: 0 }
    }

    /// The extra delay for one hop, in milliseconds.
    pub fn sample(&mut self) -> f64 {
        self.drawn += 1;
        self.jitter.delay_ms(|| self.key.at(self.drawn - 1))
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
    fn sample_n_scales_the_keyed_draw_at_position_n() {
        let mut s = JitterSource::new(Jitter::uniform(3.0), 9);
        for n in 0..100 {
            assert_eq!(s.sample(), unit(Key::new(9).at(n)) * 3.0);
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
