//! # dvs-sim
//!
//! Gate-level event-driven Verilog simulation — the substrate the paper's
//! partitioner is evaluated on. Reproduces the relevant architecture of DVS
//! (Li, Huang & Tropper, PADS 2003) in Rust:
//!
//! * [`logic`] — four-valued logic (`0/1/X/Z`) and primitive evaluation;
//! * [`wheel`] — event queues: a binary-heap queue and a calendar-style
//!   timing wheel specialized for unit gate delays;
//! * [`stimulus`] — seeded random vector streams (the paper drives its
//!   Viterbi decoder with 1 M random vectors, 10 k during pre-simulation);
//! * [`seq`] — the sequential reference simulator (speedup baseline), with
//!   an observer interface for per-partition event accounting;
//! * `tables` (private) — the packed gate tables and per-epoch frontier both
//!   event loops run on: built once per simulator over the gates it owns,
//!   after which neither loop reads the `Netlist`;
//! * [`cluster`] — mapping of a per-gate partition onto simulation clusters:
//!   local gate sets, cut-net channels, per-cluster stimulus;
//! * [`timewarp`] — a Clustered Time Warp kernel: optimistic execution
//!   with incremental state saving, rollback, anti-messages, GVT and fossil
//!   collection (OOCTW's role in the paper), runnable threaded or under the
//!   deterministic-schedule executor ([`timewarp::dst`]) with seedable and
//!   adversarial schedules;
//! * [`cluster_model`] — a deterministic meta-simulation of the k-machine
//!   cluster (2001-era Athlon + 1 Gb Ethernet constants) that reports wall
//!   time, message and rollback counts reproducibly — used by the
//!   table/figure harness;
//! * [`stats`] — simulation statistics shared by all kernels;
//! * [`artifact`] — JSON serialization of the above (stats, run results,
//!   checkpoints — the checkpoint serialization is also the wire format of
//!   the process transport).

// Hot paths must not abort the process on recoverable conditions; the few
// justified `unwrap`s are allow-listed at the call site with a proof sketch.
#![cfg_attr(not(test), warn(clippy::unwrap_used))]

pub mod artifact;
pub mod cluster;
pub mod cluster_model;
pub mod logic;
pub mod seq;
pub mod stats;
pub mod stimulus;
mod tables;
pub mod timewarp;
pub mod wheel;

pub use artifact::tw_run_canonical_json;
pub use cluster::ClusterPlan;
pub use cluster_model::{ClusterModel, ClusterModelConfig, ClusterRun};
pub use logic::Logic;
pub use seq::{SeqSim, SimConfig};
pub use stats::SimStats;
pub use stimulus::VectorStimulus;
pub use timewarp::{
    Checkpoint, FaultPlan, RecoveryOutcome, SchedulePolicy, TimeWarpConfig, TimeWarpError,
    Transport,
};
