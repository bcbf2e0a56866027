//! The seeded random source shared by this crate's property tests.

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};

/// SplitMix64 (Steele et al.), stepped by `multipub_core::draw::step`:
/// the whole random source of these tests.
pub struct SplitMix64(pub u64);

impl SplitMix64 {
    pub fn next_u64(&mut self) -> u64 {
        multipub_core::draw::step(&mut self.0)
    }

    /// Uniform index in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    pub fn coin(&mut self) -> bool {
        self.below(2) == 0
    }
}

/// Runs `property` once per seed in `0..cases`, naming the seed that
/// fails; a property draws everything from its seed, so that seed alone
/// replays the failure.
pub fn for_each_seed(cases: u64, property: impl Fn(u64)) {
    for seed in 0..cases {
        if let Err(panic) = catch_unwind(AssertUnwindSafe(|| property(seed))) {
            eprintln!("failing seed: {seed}");
            resume_unwind(panic);
        }
    }
}
