//! `benchkit` — the repo benchmark: the paper's measure → decide →
//! reconfigure loop over `multipub-netsim` + `multipub-core`, four seeded
//! workloads, an audit of every run's outputs, per-layer probes and a
//! traced run. See `README.md` beside this package.

pub mod audit;
pub mod control;
pub mod metrics;
pub mod probes;
pub mod run;
pub mod stats;
pub mod sys;
pub mod trace;
pub mod workloads;
