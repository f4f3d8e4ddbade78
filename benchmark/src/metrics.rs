//! The benchmark's metrics by name: unit, direction, regression bound, and
//! whether the value is an exact count that must repeat bit for bit.
//! `BENCHMARK.json` at the repo root lists the same names; a test keeps the
//! two in step.

use crate::stats::Better::{self, Higher, Lower};
use dvs_json::{Json, ObjBuilder};
use std::collections::BTreeMap;

pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which an end-to-end metric may worsen.
    /// Per-layer metrics are not gated; `--compare` judges them at
    /// [`PER_LAYER_BOUND`].
    pub bound: Option<f64>,
    /// A count the deterministic code paths return: equal seeds give equal
    /// values on every run of one commit, so commits compare by equality.
    pub exact: bool,
}

/// The bound `--compare` applies to timed per-layer metrics.
pub const PER_LAYER_BOUND: f64 = 0.10;

const fn gated(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: Some(bound),
        exact: false,
    }
}

const fn timed(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: None,
        exact: false,
    }
}

const fn exact(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: None,
        exact: true,
    }
}

/// What a user of the system sees; printed by an untraced run, on every
/// workload. README.md says what each measures on each workload.
pub const END_TO_END: &[MetricDef] = &[
    gated("setup_s", "s", Lower, 0.25),
    gated("seq_events_per_s", "events/s", Higher, 0.25),
    gated("committed_events_per_s", "events/s", Higher, 0.25),
    gated("partition_gates_per_s", "gates/s", Higher, 0.25),
    gated("peak_rss_mb", "MB", Lower, 0.15),
];

/// One layer each; printed by a traced run. A layer a workload does not
/// exercise reports 0.
pub const PER_LAYER: &[MetricDef] = &[
    timed("workloads.generate_s", "s", Lower),
    timed("verilog.parse_s", "s", Lower),
    timed("verilog.elaborate_s", "s", Lower),
    timed("verilog.gates_per_s", "gates/s", Higher),
    timed("hypergraph.gate_level_build_s", "s", Lower),
    timed("hypergraph.design_level_build_s", "s", Lower),
    timed("core.partition_wall_s", "s", Lower),
    timed("core.partition_s_per_100k_gates", "s", Lower),
    timed("core.cone_s", "s", Lower),
    timed("core.refine_s", "s", Lower),
    exact("core.cut_nets", "count", Lower),
    exact("core.flattens", "count", Lower),
    exact("core.fm_rounds", "count", Lower),
    timed("core.flow_wall_s", "s", Lower),
    timed("core.search_s", "s", Lower),
    timed("core.presim_point_s", "s", Lower),
    exact("core.presim_runs", "count", Lower),
    timed("hmetis.partition_s", "s", Lower),
    timed("hmetis.s_per_100k_gates", "s", Lower),
    exact("hmetis.cut_nets", "count", Lower),
    timed("sim.seq.init_s", "s", Lower),
    timed("sim.seq.run_s", "s", Lower),
    exact("sim.seq.events", "count", Lower),
    timed("sim.seq.ns_per_event", "ns", Lower),
    timed("sim.cluster.plan_s", "s", Lower),
    exact("sim.cluster.cut_nets", "count", Lower),
    exact("sim.cluster.load_imbalance", "ratio", Lower),
    timed("sim.cluster_model.run_s", "s", Lower),
    exact("sim.cluster_model.modeled_speedup", "ratio", Higher),
    timed("sim.timewarp.k1.wall_s", "s", Lower),
    timed("sim.timewarp.k1.overhead_ratio", "ratio", Lower),
    timed("sim.timewarp.threads.wall_s", "s", Lower),
    timed("sim.timewarp.threads.wall_iqr_s", "s", Lower),
    timed("sim.timewarp.threads.executed_events", "count", Lower),
    timed("sim.timewarp.threads.rolled_back_events", "count", Lower),
    timed("sim.timewarp.threads.useful_fraction", "ratio", Higher),
    timed("sim.timewarp.threads.rollbacks", "count", Lower),
    timed("sim.timewarp.threads.messages", "count", Lower),
    timed("sim.timewarp.threads.anti_messages", "count", Lower),
    timed("sim.timewarp.threads.gvt_rounds", "count", Lower),
    timed("sim.timewarp.threads.ns_per_committed_event", "ns", Lower),
    timed("sim.timewarp.threads.speedup_measured", "ratio", Higher),
    timed("sim.timewarp.inproc.wall_s", "s", Lower),
    exact("sim.timewarp.inproc.executed_events", "count", Lower),
    exact("sim.timewarp.inproc.rolled_back_events", "count", Lower),
    exact("sim.timewarp.inproc.messages", "count", Lower),
    exact("sim.timewarp.inproc.anti_messages", "count", Lower),
    exact("sim.timewarp.inproc.rollbacks", "count", Lower),
    exact("sim.timewarp.inproc.gvt_rounds", "count", Lower),
    timed("sim.timewarp.process.wall_s", "s", Lower),
    timed("sim.timewarp.process.wire_overhead_ratio", "ratio", Lower),
    exact("sim.timewarp.process.frames_sent", "count", Lower),
    exact("sim.timewarp.process.messages_sent", "count", Lower),
    exact("sim.timewarp.process.checkpoint_bytes_full", "bytes", Lower),
    exact(
        "sim.timewarp.process.ckpt_bytes_per_gvt_round",
        "bytes",
        Lower,
    ),
    exact("sim.timewarp.checkpoint.image_bytes", "bytes", Lower),
    timed("sim.timewarp.checkpoint.capture_us", "us", Lower),
    timed("sim.timewarp.checkpoint.encode_mb_per_s", "MB/s", Higher),
    timed("sim.timewarp.checkpoint.decode_mb_per_s", "MB/s", Higher),
    timed("json.emit_mb_per_s", "MB/s", Higher),
    timed("json.parse_mb_per_s", "MB/s", Higher),
    timed("trace.overhead_frac", "ratio", Lower),
];

/// The direction of the metric named `name`; run-internal samples, which are
/// all wall times, read lower-is-better.
pub fn better_of(name: &str) -> Better {
    END_TO_END
        .iter()
        .chain(PER_LAYER)
        .find(|m| m.name == name)
        .map_or(Lower, |m| m.better)
}

/// The measured values of one run, by metric name.
pub type Values = BTreeMap<&'static str, f64>;

/// What one run of one workload found.
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub values: Values,
}

impl Outcome {
    /// The contract's result object: every metric of `defs` with its unit.
    /// A per-layer metric this workload did not exercise reads 0; a missing
    /// end-to-end metric is a bug in the workload and panics.
    pub fn result_json(&self, defs: &[MetricDef]) -> Json {
        let mut metrics = ObjBuilder::new();
        for m in defs {
            let value = match self.values.get(m.name) {
                Some(&v) => v,
                None if m.bound.is_none() => 0.0,
                None => panic!("workload did not measure end-to-end metric {}", m.name),
            };
            metrics = metrics.field(
                m.name,
                ObjBuilder::new()
                    .float("value", value)
                    .str("unit", m.unit)
                    .build(),
            );
        }
        ObjBuilder::new()
            .bool("correct", self.failed == 0)
            .uint("attempted", self.attempted)
            .uint("failed", self.failed)
            .field("metrics", metrics.build())
            .build()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_within_the_contract_limits() {
        let mut seen = std::collections::BTreeSet::new();
        for m in END_TO_END.iter().chain(PER_LAYER) {
            assert!(seen.insert(m.name), "duplicate metric {}", m.name);
            assert!(m.name.len() <= 64 && m.unit.len() <= 16, "{}", m.name);
            assert!(m
                .name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(m
                .unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
        assert!(END_TO_END.len() <= 16 && PER_LAYER.len() <= 128);
        assert!(END_TO_END
            .iter()
            .all(|m| m.bound.is_some_and(|b| b <= 0.25)));
        assert!(PER_LAYER.iter().all(|m| m.bound.is_none()));
    }

    #[test]
    fn benchmark_json_lists_the_same_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = Json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json")).unwrap();
        for (key, defs) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let listed = doc.field(key).unwrap().as_array().unwrap();
            assert_eq!(listed.len(), defs.len(), "{key}");
            for (j, m) in listed.iter().zip(defs) {
                assert_eq!(j.field("name").unwrap().as_str().unwrap(), m.name);
                assert_eq!(j.field("unit").unwrap().as_str().unwrap(), m.unit);
                let better = match j.field("better").unwrap().as_str().unwrap() {
                    "lower" => Lower,
                    "higher" => Higher,
                    other => panic!("better: {other}"),
                };
                assert_eq!(better, m.better);
                assert_eq!(j.get("bound").map(|b| b.as_f64().unwrap()), m.bound);
            }
        }
        let listed: Vec<&str> = doc
            .field("workloads")
            .unwrap()
            .as_array()
            .unwrap()
            .iter()
            .map(|w| w.field("name").unwrap().as_str().unwrap())
            .collect();
        assert_eq!(listed, crate::workloads::NAMES);
    }

    #[test]
    fn the_result_line_parses_back_with_every_metric_and_unit() {
        let mut values = Values::new();
        for (i, m) in END_TO_END.iter().enumerate() {
            values.insert(m.name, 1.25 + i as f64);
        }
        let outcome = Outcome {
            attempted: 12,
            failed: 0,
            values,
        };
        let text = outcome.result_json(END_TO_END).emit().unwrap();
        assert!(!text.contains('\n'));
        let doc = Json::parse(&text).unwrap();
        let keys: Vec<&str> = doc
            .as_object()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert!(doc.field("correct").unwrap().as_bool().unwrap());
        assert_eq!(doc.field("attempted").unwrap().as_u64().unwrap(), 12);
        let metrics = doc.field("metrics").unwrap();
        assert_eq!(metrics.as_object().unwrap().len(), END_TO_END.len());
        let setup = metrics.field("setup_s").unwrap();
        assert_eq!(setup.field("value").unwrap().as_f64().unwrap(), 1.25);
        assert_eq!(setup.field("unit").unwrap().as_str().unwrap(), "s");

        // A traced run reports layers it did not exercise as 0.
        let per_layer = outcome.result_json(PER_LAYER);
        let hm = per_layer
            .field("metrics")
            .unwrap()
            .field("hmetis.partition_s")
            .unwrap();
        assert_eq!(hm.field("value").unwrap().as_f64().unwrap(), 0.0);
    }
}
