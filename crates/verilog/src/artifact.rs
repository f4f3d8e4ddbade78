//! JSON serialization of netlist-level statistics.
//!
//! Lives here (rather than in `dvs-core`) so that every crate owning a
//! type also owns its artifact serialization — the orphan rule then lets
//! the shared [`dvs_json`] traits be implemented next to the type. The
//! flow-level artifact assembly stays in `dvs_core::artifact`.

use crate::stats::DesignStats;
use dvs_json::{Json, ObjBuilder, ToJson};

impl ToJson for DesignStats {
    fn to_json(&self) -> Json {
        let kinds = Json::Object(
            self.gates_by_kind
                .iter()
                .map(|&(name, n)| {
                    (
                        name.to_string(),
                        Json::Int(i64::try_from(n).unwrap_or(i64::MAX)),
                    )
                })
                .collect(),
        );
        ObjBuilder::new()
            .uint("module_defs", self.module_defs as u64)
            .uint("instances", self.instances as u64)
            .uint("max_depth", self.max_depth as u64)
            .uint("gates", self.gates as u64)
            .uint("nets", self.nets as u64)
            .uint("primary_inputs", self.primary_inputs as u64)
            .uint("primary_outputs", self.primary_outputs as u64)
            .field("gates_by_kind", kinds)
            .uint("sequential_gates", self.sequential_gates as u64)
            .uint("max_fanout", self.max_fanout as u64)
            .float("mean_fanout", self.mean_fanout)
            .field(
                "logic_depth",
                match self.logic_depth {
                    Some(d) => Json::Int(d as i64),
                    None => Json::Null,
                },
            )
            .build()
    }
}
