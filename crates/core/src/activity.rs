//! Activity-based load metric — the extension the paper's conclusion asks
//! for.
//!
//! "Currently our load metric is the number of gates, which is not entirely
//! adequate" (§5). Gate counts assume every gate is equally active; real
//! circuits have hot spots. This module profiles per-gate *evaluation
//! counts* with a short sequential run and uses them as vertex weights, so
//! the balance constraint equalizes **simulation work** instead of
//! structure.
//!
//! ```
//! use dvs_core::activity::profile_gate_activity;
//! use dvs_core::multiway::{partition_multiway_weighted, MultiwayConfig};
//! use dvs_sim::stimulus::VectorStimulus;
//!
//! let src = "module top(clk, a, y); input clk, a; output y;\n\
//!            wire t; not g1 (t, a); dff f (y, clk, t); endmodule";
//! let nl = dvs_verilog::parse_and_elaborate(src).unwrap().into_netlist();
//! let stim = VectorStimulus::from_netlist(&nl, 10, 1);
//! let activity = profile_gate_activity(&nl, &stim, 50);
//! assert_eq!(activity.len(), nl.gate_count());
//! let r = partition_multiway_weighted(&nl, &MultiwayConfig::new(2, 30.0), Some(&activity[..]));
//! assert_eq!(r.gate_blocks.len(), nl.gate_count());
//! ```

use dvs_sim::seq::{SeqSim, SimConfig, SimObserver};
use dvs_sim::stimulus::VectorStimulus;
use dvs_sim::wheel::VTime;
use dvs_verilog::netlist::{GateId, GateKind, NetId, Netlist};

/// Observer accumulating per-gate evaluation counts; a `Dff`'s are the
/// rises of its clock net, counted per net.
struct ActivityProfiler {
    counts: Vec<u64>,
    rises: Vec<u64>,
}

impl SimObserver for ActivityProfiler {
    #[inline]
    fn gate_eval(&mut self, gate: GateId, _time: VTime) {
        self.counts[gate.idx()] += 1;
    }

    #[inline]
    fn dffs_clocked(&mut self, net: NetId, _time: VTime) {
        self.rises[net.idx()] += 1;
    }
}

/// Profile per-gate evaluation counts over `cycles` vectors. Every gate is
/// clamped to a minimum weight of 1 so completely idle logic still counts
/// as load (it occupies memory and fanout lists on its machine).
pub fn profile_gate_activity(nl: &Netlist, stim: &VectorStimulus, cycles: u64) -> Vec<u64> {
    let mut prof = ActivityProfiler {
        counts: vec![0; nl.gate_count()],
        rises: vec![0; nl.net_count()],
    };
    let mut sim = SeqSim::new(
        nl,
        &SimConfig {
            cycles,
            init_zero: true,
        },
    );
    sim.run(stim, cycles, &mut prof);
    for (g, (c, gate)) in prof.counts.iter_mut().zip(&nl.gates).enumerate() {
        if gate.kind == GateKind::Dff {
            *c = prof.rises[nl.inputs(GateId(g as u32))[0].idx()];
        }
        *c = (*c).max(1);
    }
    prof.counts
}

/// Imbalance of *events* (not gates) under a per-gate block assignment:
/// `max block events / mean block events − 1`. The quantity the activity
/// metric is supposed to minimize.
pub fn event_imbalance(activity: &[u64], gate_blocks: &[u32], k: u32) -> f64 {
    assert_eq!(activity.len(), gate_blocks.len());
    let mut per_block = vec![0u64; k as usize];
    for (gi, &b) in gate_blocks.iter().enumerate() {
        per_block[b as usize] += activity[gi];
    }
    let total: u64 = per_block.iter().sum();
    if total == 0 {
        return 0.0;
    }
    let mean = total as f64 / k as f64;
    let max = *per_block.iter().max().expect("k >= 1") as f64;
    max / mean - 1.0
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::multiway::{partition_multiway, partition_multiway_weighted, MultiwayConfig};

    fn hotspot_netlist() -> Netlist {
        // Two modules of equal gate count; `hot` toggles every cycle (fed by
        // the clock through an inverter chain), `cold` is fed by a constant
        // and never toggles after settling.
        let mut src =
            String::from("module top(clk, y, z);\n input clk; output y, z;\n supply0 gnd;\n");
        src.push_str(" chain hot (clk, y);\n");
        src.push_str(" chain cold (gnd, z);\n");
        src.push_str("endmodule\n");
        src.push_str("module chain(i, o);\n input i; output o;\n");
        for j in 0..=12 {
            src.push_str(&format!(" wire t{j};\n"));
        }
        src.push_str(" buf b0 (t0, i);\n");
        for j in 0..12 {
            src.push_str(&format!(" not n{j} (t{}, t{j});\n", j + 1));
        }
        src.push_str(" buf bo (o, t12);\nendmodule\n");
        dvs_verilog::parse_and_elaborate(&src)
            .unwrap()
            .into_netlist()
    }

    #[test]
    fn profiler_sees_the_hotspot() {
        let nl = hotspot_netlist();
        let stim = VectorStimulus::from_netlist(&nl, 10, 1);
        let act = profile_gate_activity(&nl, &stim, 80);
        assert_eq!(act.len(), nl.gate_count());
        // Total activity in the hot chain dwarfs the cold chain.
        let chain_activity = |name: &str| -> u64 {
            nl.gates
                .iter()
                .enumerate()
                .filter(|(_, g)| nl.instance_path(g.owner).contains(name))
                .map(|(gi, _)| act[gi])
                .sum()
        };
        let hot = chain_activity("hot");
        let cold = chain_activity("cold");
        assert!(hot > 5 * cold, "hot {hot} vs cold {cold}");
    }

    #[test]
    fn activity_weights_balance_events_better() {
        let nl = hotspot_netlist();
        let stim = VectorStimulus::from_netlist(&nl, 10, 1);
        let act = profile_gate_activity(&nl, &stim, 80);
        let cfg = MultiwayConfig::new(2, 10.0);

        let by_gates = partition_multiway(&nl, &cfg);
        let by_activity = partition_multiway_weighted(&nl, &cfg, Some(&act[..]));

        let ib_gates = event_imbalance(&act, &by_gates.gate_blocks, 2);
        let ib_act = event_imbalance(&act, &by_activity.gate_blocks, 2);
        // Gate-count balancing puts one whole chain per block (perfect gate
        // balance, terrible event balance); activity weighting must split
        // the hot chain.
        assert!(
            ib_act < ib_gates,
            "activity imbalance {ib_act:.2} !< gate-metric imbalance {ib_gates:.2}"
        );
        assert!(by_activity.balanced);
    }

    #[test]
    fn event_imbalance_zero_when_even() {
        let act = vec![5u64; 8];
        let blocks = vec![0, 0, 0, 0, 1, 1, 1, 1];
        assert!(event_imbalance(&act, &blocks, 2).abs() < 1e-12);
        let skew = [0, 0, 0, 0, 1, 1, 1, 1]
            .iter()
            .map(|&b| b as u32)
            .collect::<Vec<_>>();
        let act2 = vec![10, 10, 10, 10, 1, 1, 1, 1];
        assert!(event_imbalance(&act2, &skew, 2) > 0.5);
    }
}
