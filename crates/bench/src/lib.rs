//! # dvs-bench
//!
//! Reproduction harness for every table and figure in the evaluation
//! section of Li & Tropper (ICPP 2008).
//!
//! The `repro` binary regenerates the paper's artifacts:
//!
//! ```text
//! cargo run --release -p dvs-bench --bin repro -- all
//! cargo run --release -p dvs-bench --bin repro -- table1 table3 fig6
//! cargo run --release -p dvs-bench --bin repro -- --scale quick all
//! ```
//!
//! The golden test (`tests/golden.rs`, part of `cargo test`) runs a fixed
//! deterministic smoke grid and the wire cases and holds every leaf of their
//! canonical reports to `results/bench_baseline.json` exactly:
//!
//! ```text
//! cargo test -p dvs-bench --test golden
//! ```
//!
//! See [`experiments`] for the per-table implementations and DESIGN.md /
//! EXPERIMENTS.md for the experiment index and measured results. The
//! correctness suites — fuzz, kill, chaos, DST — and the golden test's wire
//! cases all build, run and compare through [`scenario`].

pub mod experiments;
pub mod scenario;
