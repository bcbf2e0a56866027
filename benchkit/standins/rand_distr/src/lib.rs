//! Stand-in for `rand_distr`: only `LogNormal<f64>` behind `Distribution`,
//! sampled with Box–Muller (the real crate uses a ziggurat, so values
//! differ from real-`rand_distr` ones for the same seed).

use rand::Rng;

/// Types that can be sampled given a generator.
pub trait Distribution<T> {
    /// Draws one value.
    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> T;
}

/// Rejected log-normal parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Error;

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("log-normal sigma must be finite and non-negative")
    }
}

impl std::error::Error for Error {}

/// `exp(N(mu, sigma²))`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LogNormal<F> {
    mu: F,
    sigma: F,
}

impl LogNormal<f64> {
    /// # Errors
    ///
    /// Returns [`Error`] unless `sigma` is finite and non-negative.
    pub fn new(mu: f64, sigma: f64) -> Result<Self, Error> {
        if sigma.is_finite() && sigma >= 0.0 && mu.is_finite() {
            Ok(LogNormal { mu, sigma })
        } else {
            Err(Error)
        }
    }
}

impl Distribution<f64> for LogNormal<f64> {
    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        // 1 - u lies in (0, 1], so the logarithm is finite.
        let radius = (-2.0 * (1.0 - rng.random::<f64>()).ln()).sqrt();
        let angle = std::f64::consts::TAU * rng.random::<f64>();
        (self.mu + self.sigma * radius * angle.cos()).exp()
    }
}
