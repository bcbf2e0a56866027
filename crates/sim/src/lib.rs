//! # multipub-sim
//!
//! The MultiPub experiment harness — the Rust counterpart of the paper's
//! Python simulation package (§V.B). It can express any scenario the paper
//! runs: any number of topics, per-topic publisher/subscriber populations
//! placed near chosen EC2 regions, per-publisher rates and sizes, and a
//! per-topic delivery constraint `<ratio_T, max_T>`.
//!
//! * [`population`] — generates client populations (latency rows via the
//!   King-style model of `multipub-data`) and turns them into analytic
//!   workloads or discrete-event scenarios.
//! * [`horizon`] — scales interval costs to the paper's "$/day" figures.
//! * [`table`] — plain-text result tables (markdown / CSV).
//! * [`experiments`] — the paper's four experiments:
//!   [`experiments::exp1`] (Fig. 3), [`experiments::exp2`] (Fig. 4),
//!   [`experiments::exp3`] (Fig. 5), [`experiments::exp4`] (Fig. 6).
//!
//! Every experiment is deterministic, and each returns typed rows that
//! render as tables; `examples/paper_experiments` prints them.

#![forbid(unsafe_code)]
#![warn(missing_docs, missing_debug_implementations)]

pub mod experiments;
pub mod horizon;
pub mod population;
pub mod spec;
pub mod table;
