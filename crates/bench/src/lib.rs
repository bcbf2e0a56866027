//! # multipub-bench
//!
//! Live throughput harness: the [`live`] module drives a **real broker
//! over loopback sockets** through the `bench-pub` / `bench-sub` /
//! `bench-live` binaries, measuring end-to-end msgs/sec and trip-time
//! percentiles and emitting `BENCH_throughput.json` (DESIGN.md §11).
//!
//! The paper's tables and figures are not here: they are
//! `multipub_sim::experiments` (`cargo run --release --example
//! paper_experiments`), and the kernels behind them are timed by the
//! `benchkit` per-layer probes (`BENCHMARK.json`).

#![forbid(unsafe_code)]

pub mod live;
