//! One keyed generator: SplitMix64, and draws keyed by what they decide.
//!
//! A simulator draw (a hop's jitter, a copy's loss, a delivery's reorder
//! delay) comes from no sequential stream: it is a pure function of the
//! engine seed, the topic, the publication's position in its topic and the
//! region, folded into a [`Key`] once per arrival, and of the stream (what
//! it decides), the subscriber or peer and the copy, which [`Key::draw`]
//! reads with one finalizer. No draw depends on event order or on another
//! draw. [`step`] is SplitMix64's sequential form, which the seeded tests
//! call.
//!
//! Three copies of the finalizer remain: `obs::trace` keeps its own because
//! `obs` sits below `core`, `filter`'s tests because that crate builds on
//! `std` alone (DESIGN.md), and the live broker's `session.rs` until ROADMAP
//! item 13 replaces the live half.

/// SplitMix64's increment, 2^64 over the golden ratio rounded to odd.
const GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;

/// The SplitMix64 finalizer (Stafford's variant 13), a bijection.
pub const fn mix(z: u64) -> u64 {
    let z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    let z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// One SplitMix64 step: advances `state` and returns the next output.
pub fn step(state: &mut u64) -> u64 {
    *state = state.wrapping_add(GAMMA);
    mix(*state)
}

/// The top 53 bits of `bits` as a uniform `f64` in `[0, 1)`.
pub fn unit(bits: u64) -> f64 {
    (bits >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// The words folded so far, as the start of a SplitMix64 sequence.
#[derive(Debug, Clone, Copy)]
pub struct Key(u64);

impl Key {
    /// The key of seed `seed`, nothing folded yet.
    pub const fn new(seed: u64) -> Self {
        Key(mix(seed))
    }

    /// This key with `word` folded in; distinct words, distinct keys.
    pub fn fold(self, word: u64) -> Self {
        Key(self.at(word))
    }

    /// Output `position + 1` of the sequence this key starts; distinct
    /// positions, distinct draws.
    pub fn at(self, position: u64) -> u64 {
        let mut state = self.0.wrapping_add(position.wrapping_mul(GAMMA));
        step(&mut state)
    }

    /// Stream `stream`'s draw (one of 8) about copy `copy` (below
    /// [`COPIES`]) to `member`: the draw at the position that puts the
    /// copy's 29 bits, the member's 32 and the stream's 3 side by side.
    pub fn draw(self, stream: u8, member: u32, copy: u32) -> u64 {
        debug_assert!(stream < 8 && u64::from(copy) < COPIES);
        self.at((u64::from(copy) << 32 | u64::from(member)) << 3 | u64::from(stream))
    }
}

/// How many copies of one delivery [`Key::draw`] tells apart.
pub const COPIES: u64 = 1 << 29;

#[cfg(test)]
mod tests {
    use super::*;

    const SEEDS: u64 = 1_000;

    /// `stream`'s draw about copy `copy` to `member` (a subscriber, a peer
    /// region, or 0 for an upload) of publication `publication` of topic
    /// `topic` at region `region`, under engine seed `seed`, keyed as the
    /// simulator keys it.
    fn draw(
        seed: u64,
        stream: u8,
        topic: u64,
        publication: u32,
        region: u8,
        member: u32,
        copy: u32,
    ) -> u64 {
        let arrival = u64::from(publication) << 8 | u64::from(region);
        Key::new(seed).fold(topic).fold(arrival).draw(stream, member, copy)
    }

    #[test]
    fn step_is_splitmix64() {
        // The published SplitMix64 outputs from state 0.
        let mut state = 0;
        assert_eq!(step(&mut state), 0xE220_A839_7B1D_CDAF);
        assert_eq!(step(&mut state), 0x6E78_9E6A_A1B9_65F4);
        assert_eq!(state, GAMMA.wrapping_mul(2), "two steps of the increment");
        // A key's positions are the sequence it starts, jumped to.
        let key = Key::new(7);
        let mut state = mix(7);
        for position in 0..5 {
            assert_eq!(key.at(position), step(&mut state));
        }
    }

    #[test]
    fn unit_spans_the_half_open_interval() {
        assert_eq!(unit(0), 0.0);
        assert_eq!(unit(u64::MAX), 1.0 - f64::EPSILON / 2.0);
        assert_eq!(unit(1 << 63), 0.5);
        assert!(unit(u64::MAX) * 5.0 < 5.0, "a sample never reaches its amplitude");
    }

    #[test]
    fn a_draw_puts_stream_member_and_copy_side_by_side() {
        let (key, last_copy) = (Key::new(3), (COPIES - 1) as u32);
        assert_eq!(key.draw(0, 0, 0), key.at(0));
        assert_eq!(key.draw(7, 0, 0), key.at(7));
        assert_eq!(key.draw(0, 1, 0), key.at(1 << 3));
        assert_eq!(key.draw(0, u32::MAX, 0), key.at(u64::from(u32::MAX) << 3));
        assert_eq!(key.draw(0, 0, 1), key.at(1 << 35));
        assert_eq!(key.draw(7, u32::MAX, last_copy), key.at(u64::MAX));
    }

    /// The largest distance between the empirical distribution of
    /// `samples` and U[0, `amplitude`).
    fn ks_distance(mut samples: Vec<f64>, amplitude: f64) -> f64 {
        samples.sort_by(f64::total_cmp);
        let n = samples.len() as f64;
        samples.iter().enumerate().fold(0.0, |worst: f64, (i, &x)| {
            let cdf = x / amplitude;
            worst.max(cdf - i as f64 / n).max((i + 1) as f64 / n - cdf)
        })
    }

    #[test]
    fn jitter_and_reorder_samples_are_uniform() {
        // Netsim's delivery-jitter stream (5) at the jitter amplitude and
        // its reorder stream (6) at the reorder span, as the engine scales
        // them, over 1 000 seeds and every key of a small arrival. The
        // bound is the one-sample KS test's at α = 0.001.
        for (stream, amplitude) in [(5, 5.0), (6, 20.0)] {
            let samples: Vec<f64> = (0..SEEDS)
                .flat_map(|seed| {
                    (0..8).flat_map(move |member| {
                        (0..2).map(move |copy| {
                            unit(draw(seed, stream, 3, 17, 2, member, copy)) * amplitude
                        })
                    })
                })
                .collect();
            assert!(samples.iter().all(|&x| (0.0..amplitude).contains(&x)));
            let bound = 1.95 / (samples.len() as f64).sqrt();
            let distance = ks_distance(samples, amplitude);
            assert!(distance <= bound, "stream {stream}: KS distance {distance} > {bound}");
        }
    }

    #[test]
    fn neighbouring_keys_are_uncorrelated() {
        // For each seed, the keys that differ only in one word, in order
        // (64 of them, or every stream); the lag-1 correlation of their
        // draws, pooled over the seeds, is N(0, 1/n) for independent
        // uniforms (known mean 1/2, variance 1/12).
        type Vary = fn(u64, u32) -> u64;
        let words: [(&str, u32, Vary); 6] = [
            ("subscriber", 64, |seed, i| draw(seed, 4, 3, 17, 2, i, 0)),
            ("copy", 64, |seed, i| draw(seed, 4, 3, 17, 2, 5, i)),
            ("publication", 64, |seed, i| draw(seed, 4, 3, i, 2, 5, 0)),
            ("topic", 64, |seed, i| draw(seed, 4, u64::from(i), 17, 2, 5, 0)),
            ("region", 64, |seed, i| draw(seed, 4, 3, 17, i as u8, 5, 0)),
            ("stream", 8, |seed, i| draw(seed, i as u8, 3, 17, 2, 5, 0)),
        ];
        for (word, keys, vary) in words {
            let (mut sum, mut n) = (0.0, 0u64);
            for seed in 0..SEEDS {
                let draws: Vec<f64> = (0..keys).map(|i| unit(vary(seed, i)) - 0.5).collect();
                for pair in draws.windows(2) {
                    sum += pair[0] * pair[1];
                    n += 1;
                }
            }
            let correlation = 12.0 * sum / n as f64;
            let bound = 4.0 / (n as f64).sqrt();
            assert!(
                correlation.abs() <= bound,
                "{word}: lag-1 correlation {correlation} > {bound}"
            );
        }
    }
}
