//! Machine-readable run artifacts: JSON serialization of every report the
//! flow produces.
//!
//! The paper's argument is carried by measured numbers — cut sizes,
//! message and rollback counts, pre-simulation vs full-run times. This
//! module turns those numbers into schema-versioned JSON so that every run
//! is an artifact: comparable across commits, pinned in CI (the golden
//! test, `crates/bench/tests/golden.rs`), and consumable by plotting
//! scripts without scraping text tables.
//!
//! Serialization is layered by ownership (the shared JSON traits live in
//! `dvs-json`, so the orphan rule puts each `impl` next to its type):
//! simulation types — including the [`Checkpoint`] wire format of the
//! process transport — serialize in `dvs_sim::artifact`, netlist
//! statistics in `dvs_verilog::artifact`, and this module assembles the
//! flow-level reports on top.
//!
//! Two serializations exist for a [`FlowReport`]:
//!
//! * [`FlowReport::to_json`] — everything, including host wall-clock
//!   measurements (which vary run to run and machine to machine);
//! * [`FlowReport::canonical_json`] — only the **deterministic** content:
//!   counters, modeled times, partitions. Two runs of the same flow — on
//!   one thread or eight, today or next year — emit byte-identical
//!   canonical artifacts, which is what makes exact CI comparisons
//!   possible (following the determinism-first argument of Gottesbüren
//!   et al., *Deterministic Parallel Hypergraph Partitioning*).
//!
//! The flow artifacts are write-only: nothing in the workspace loads one
//! back into its struct (the golden test compares [`Json`] trees), so
//! these types have emitters and no readers. The emission itself parses
//! back to the same tree, floats bit-exactly (shortest-representation
//! formatting) — `tests/tests/json_roundtrip.rs` holds it to that.
//!
//! [`Checkpoint`]: dvs_sim::timewarp::Checkpoint

use crate::json::{uint_array, Json, ObjBuilder, ToJson, SCHEMA_VERSION};
use crate::pipeline::{FlowMetrics, FlowReport, PointCost};
use crate::presim::{PartitionQuality, PointTiming, PresimPoint};
use dvs_sim::artifact::cluster_run_core;

pub use dvs_sim::artifact::tw_run_canonical_json;

impl ToJson for PartitionQuality {
    fn to_json(&self) -> Json {
        ObjBuilder::new()
            .uint("cut", self.cut)
            .uint("max_load", self.max_load)
            .uint("min_load", self.min_load)
            .uint("balance_violations", self.balance_violations as u64)
            .build()
    }
}

impl ToJson for PointTiming {
    fn to_json(&self) -> Json {
        ObjBuilder::new()
            .float("partition_seconds", self.partition_seconds)
            .float("cone_seconds", self.cone_seconds)
            .float("refine_seconds", self.refine_seconds)
            .float("simulate_seconds", self.simulate_seconds)
            .uint("flattens", self.flattens as u64)
            .uint("fm_rounds", self.fm_rounds as u64)
            .build()
    }
}

/// The deterministic fields of a [`PresimPoint`]. Canonical artifacts add
/// only the two deterministic work counters of its timing block.
fn presim_point_core(p: &PresimPoint) -> ObjBuilder {
    ObjBuilder::new()
        .uint("k", p.k as u64)
        .float("b", p.b)
        .uint("cut", p.cut)
        .float("sim_seconds", p.sim_seconds)
        .float("seq_seconds", p.seq_seconds)
        .float("speedup", p.speedup)
        .uint("messages", p.messages)
        .uint("rollbacks", p.rollbacks)
        .field("machine_messages", uint_array(&p.machine_messages))
        .field("machine_rollbacks", uint_array(&p.machine_rollbacks))
        .field(
            "gate_blocks",
            Json::Array(p.gate_blocks.iter().map(|&b| Json::Int(b as i64)).collect()),
        )
        .bool("balanced", p.balanced)
        .field("quality", p.quality.to_json())
        .field(
            "tw",
            match &p.tw {
                Some(s) => s.to_json(),
                None => Json::Null,
            },
        )
        .field(
            "tw_crash",
            match &p.tw_crash {
                Some(s) => s.to_json(),
                None => Json::Null,
            },
        )
}

impl ToJson for PresimPoint {
    fn to_json(&self) -> Json {
        presim_point_core(self)
            .field("timing", self.timing.to_json())
            .build()
    }
}

fn presim_point_canonical(p: &PresimPoint) -> Json {
    presim_point_core(p)
        .field(
            "timing",
            ObjBuilder::new()
                .uint("flattens", p.timing.flattens as u64)
                .uint("fm_rounds", p.timing.fm_rounds as u64)
                .build(),
        )
        .build()
}

impl ToJson for PointCost {
    fn to_json(&self) -> Json {
        ObjBuilder::new()
            .uint("k", self.k as u64)
            .float("b", self.b)
            .float("seconds", self.seconds)
            .build()
    }
}

impl ToJson for FlowMetrics {
    fn to_json(&self) -> Json {
        ObjBuilder::new()
            .float("parse_elaborate_seconds", self.parse_elaborate_seconds)
            .float("cone_partition_seconds", self.cone_partition_seconds)
            .float("pairwise_refine_seconds", self.pairwise_refine_seconds)
            .array(
                "point_costs",
                self.point_costs.iter().map(|c| c.to_json()).collect(),
            )
            .float("search_seconds", self.search_seconds)
            .float("full_run_seconds", self.full_run_seconds)
            .float("total_seconds", self.total_seconds)
            .uint("flatten_events", self.flatten_events)
            .uint("fm_passes", self.fm_passes)
            .uint("presim_runs", self.presim_runs)
            .uint("search_workers", self.search_workers as u64)
            .build()
    }
}

/// The deterministic work counters of [`FlowMetrics`] — the subset that is
/// identical for every thread count and host.
fn metrics_canonical(m: &FlowMetrics) -> Json {
    ObjBuilder::new()
        .uint("flatten_events", m.flatten_events)
        .uint("fm_passes", m.fm_passes)
        .uint("presim_runs", m.presim_runs)
        .build()
}

fn flow_report_header(kind: &str) -> ObjBuilder {
    ObjBuilder::new()
        .int("schema_version", SCHEMA_VERSION)
        .str("kind", kind)
}

impl ToJson for FlowReport {
    fn to_json(&self) -> Json {
        flow_report_header("flow_report")
            .field("design", self.design.to_json())
            .array(
                "presim_points",
                self.presim_points.iter().map(|p| p.to_json()).collect(),
            )
            .field("chosen", self.chosen.to_json())
            .uint("presim_runs", self.presim_runs as u64)
            .field("full", self.full.to_json())
            .float("full_speedup", self.full_speedup)
            .field("metrics", self.metrics.to_json())
            .build()
    }
}

impl FlowReport {
    /// The **deterministic** artifact of this run: counters, modeled
    /// times, partitions and design statistics — no host wall-clock
    /// measurement and no worker count. Serial and threaded runs of the
    /// same flow emit byte-identical canonical artifacts; the golden test
    /// and the `flow_api` tests assert exactly that.
    pub fn canonical_json(&self) -> Json {
        flow_report_header("flow_report")
            .field("design", self.design.to_json())
            .array(
                "presim_points",
                self.presim_points
                    .iter()
                    .map(presim_point_canonical)
                    .collect(),
            )
            .field("chosen", presim_point_canonical(&self.chosen))
            .uint("presim_runs", self.presim_runs as u64)
            .field("full", cluster_run_core(&self.full).build())
            .float("full_speedup", self.full_speedup)
            .field("metrics", metrics_canonical(&self.metrics))
            .build()
    }
}
