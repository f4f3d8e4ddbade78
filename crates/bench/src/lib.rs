//! # dvs-bench
//!
//! Reproduction harness for every table and figure in the evaluation
//! section of Li & Tropper (ICPP 2008), plus Criterion micro-benchmarks of
//! the partitioning and simulation substrates.
//!
//! The `repro` binary regenerates the paper's artifacts:
//!
//! ```text
//! cargo run --release -p dvs-bench --bin repro -- all
//! cargo run --release -p dvs-bench --bin repro -- table1 table3 fig6
//! cargo run --release -p dvs-bench --bin repro -- --scale quick all
//! ```
//!
//! The `bench_gate` binary is the CI perf-regression gate: it runs a fixed
//! deterministic smoke grid, writes a schema-versioned `BENCH_<label>.json`
//! artifact, and compares it against `results/bench_baseline.json` (see
//! [`gate`]):
//!
//! ```text
//! cargo run --release -p dvs-bench --bin bench_gate -- --label ci
//! cargo run --release -p dvs-bench --bin bench_gate -- --write-baseline
//! ```
//!
//! See [`experiments`] for the per-table implementations and DESIGN.md /
//! EXPERIMENTS.md for the experiment index and measured results. The
//! correctness suites — fuzz, kill, chaos, DST — and the gate's wire cases
//! all build, run and compare through [`scenario`].

pub mod experiments;
pub mod gate;
pub mod scenario;
