//! Mapping a gate partition onto simulation clusters.
//!
//! A [`ClusterPlan`] is the static routing information both parallel kernels
//! need: which gates each machine simulates, which primary inputs it
//! generates stimulus for, which of its nets are *exported* (read by remote
//! clusters — every toggle becomes one message per remote reader), and which
//! are *imported* (driven remotely). This mirrors the paper's treatment of
//! Verilog instances as LPs: only port state crossing the cut is
//! communicated; everything inside a cluster stays local.

use dvs_verilog::netlist::{GateId, NetId, Netlist};

/// One machine's share of the circuit.
#[derive(Debug, Clone, Default)]
pub struct Cluster {
    /// Gates simulated by this cluster.
    pub gates: Vec<GateId>,
    /// Primary inputs feeding this cluster's gates (stimulus is generated
    /// locally for these).
    pub stimulus_nets: Vec<NetId>,
    /// Locally driven nets with remote readers: `(net, remote clusters)`.
    pub exports: Vec<(NetId, Vec<u32>)>,
    /// Remotely driven nets read by this cluster's gates.
    pub imports: Vec<NetId>,
    /// Total gates (the paper's load metric).
    pub load: u64,
}

/// The full placement of a netlist onto `k` clusters.
#[derive(Debug, Clone)]
pub struct ClusterPlan {
    pub k: usize,
    /// Per-gate cluster assignment.
    pub gate_block: Vec<u32>,
    pub clusters: Vec<Cluster>,
}

impl ClusterPlan {
    /// Build the plan from a per-gate block assignment.
    pub fn new(nl: &Netlist, gate_block: &[u32], k: usize) -> Self {
        assert_eq!(gate_block.len(), nl.gate_count());
        assert!(k >= 1);
        debug_assert!(gate_block.iter().all(|&b| (b as usize) < k));
        let fanout = nl.build_fanout();
        let mut clusters: Vec<Cluster> = vec![Cluster::default(); k];

        for (gi, &blk) in gate_block.iter().enumerate() {
            let c = &mut clusters[blk as usize];
            c.gates.push(GateId(gi as u32));
            c.load += 1;
        }

        // Primary inputs: a PI is stimulus for every cluster reading it.
        // (Replicating the vector source costs nothing — the paper's nodes
        // all read the same vector file.)
        let mut scratch: Vec<bool> = vec![false; k];
        for &pi in &nl.primary_inputs {
            scratch.iter_mut().for_each(|s| *s = false);
            for &g in fanout.readers(pi) {
                scratch[gate_block[g.idx()] as usize] = true;
            }
            for (b, &wants) in scratch.iter().enumerate() {
                if wants {
                    clusters[b].stimulus_nets.push(pi);
                }
            }
        }

        // Exports and imports along cut nets.
        for ni in 0..nl.net_count() {
            let net = NetId(ni as u32);
            let Some(driver) = nl.nets[ni].driver else {
                continue;
            };
            let src = gate_block[driver.idx()];
            scratch.iter_mut().for_each(|s| *s = false);
            for &g in fanout.readers(net) {
                let dst = gate_block[g.idx()];
                if dst != src {
                    scratch[dst as usize] = true;
                }
            }
            let dests: Vec<u32> = (0..k as u32).filter(|&b| scratch[b as usize]).collect();
            if !dests.is_empty() {
                for &d in &dests {
                    clusters[d as usize].imports.push(net);
                }
                clusters[src as usize].exports.push((net, dests));
            }
        }

        ClusterPlan {
            k,
            gate_block: gate_block.to_vec(),
            clusters,
        }
    }

    /// Number of *communication* nets: driven nets with remote readers.
    /// This is at most the hyperedge cut — primary-input nets read from
    /// several clusters are cut hyperedges but carry no messages, because
    /// every machine generates the vector stimulus locally.
    pub fn cut_nets(&self) -> usize {
        self.clusters.iter().map(|c| c.exports.len()).sum()
    }

    /// Total (net, destination) pairs — the per-toggle message multiplier.
    pub fn channel_count(&self) -> usize {
        self.clusters
            .iter()
            .flat_map(|c| c.exports.iter())
            .map(|(_, d)| d.len())
            .sum()
    }

    /// Per-cluster loads (gate counts).
    pub fn loads(&self) -> Vec<u64> {
        self.clusters.iter().map(|c| c.load).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dvs_verilog::parse_and_elaborate;

    const SRC: &str = r#"
        module top(clk, a, b, y);
          input clk, a, b; output y;
          wire w1, w2, w3;
          and g0 (w1, a, b);
          not g1 (w2, w1);
          dff g2 (w3, clk, w2);
          buf g3 (y, w3);
        endmodule
    "#;

    fn netlist() -> Netlist {
        parse_and_elaborate(SRC).unwrap().into_netlist()
    }

    #[test]
    fn split_plan_routes_cut_nets() {
        let nl = netlist();
        // g0, g1 on cluster 0; g2, g3 on cluster 1. Cut nets: w2 (g1→g2).
        let plan = ClusterPlan::new(&nl, &[0, 0, 1, 1], 2);
        assert_eq!(plan.cut_nets(), 1);
        assert_eq!(plan.channel_count(), 1);
        assert_eq!(plan.loads(), vec![2, 2]);
        let c0 = &plan.clusters[0];
        let c1 = &plan.clusters[1];
        assert_eq!(c0.exports.len(), 1);
        assert_eq!(c0.exports[0].1, vec![1]);
        assert_eq!(c1.imports.len(), 1);
        assert_eq!(c0.exports[0].0, c1.imports[0]);
    }

    #[test]
    fn stimulus_assigned_to_reading_clusters() {
        let nl = netlist();
        let plan = ClusterPlan::new(&nl, &[0, 0, 1, 1], 2);
        // a, b read by cluster 0 (g0); clk read by cluster 1 (g2).
        let names = |c: &Cluster| -> Vec<String> {
            c.stimulus_nets.iter().map(|&n| nl.net_name(n)).collect()
        };
        let s0 = names(&plan.clusters[0]);
        let s1 = names(&plan.clusters[1]);
        assert!(s0.iter().any(|n| n.ends_with(".a")));
        assert!(s0.iter().any(|n| n.ends_with(".b")));
        assert!(!s0.iter().any(|n| n.ends_with(".clk")));
        assert!(s1.iter().any(|n| n.ends_with(".clk")));
    }

    #[test]
    fn single_cluster_has_no_channels() {
        let nl = netlist();
        let plan = ClusterPlan::new(&nl, &[0, 0, 0, 0], 1);
        assert_eq!(plan.cut_nets(), 0);
        assert_eq!(plan.channel_count(), 0);
        assert_eq!(plan.clusters[0].load, 4);
        assert!(plan.clusters[0].imports.is_empty());
    }

    #[test]
    fn multicast_net_counts_per_destination() {
        // One driver read by gates on two other clusters: 1 cut net, 2
        // channels.
        let src = r#"
            module top(a, b, y, z);
              input a, b; output y, z;
              wire w;
              and g0 (w, a, b);
              not g1 (y, w);
              buf g2 (z, w);
            endmodule
        "#;
        let nl = parse_and_elaborate(src).unwrap().into_netlist();
        let plan = ClusterPlan::new(&nl, &[0, 1, 2], 3);
        assert_eq!(plan.cut_nets(), 1);
        assert_eq!(plan.channel_count(), 2);
        let dests = &plan.clusters[0].exports[0].1;
        assert_eq!(dests.as_slice(), &[1, 2]);
    }

    #[test]
    fn shared_pi_is_stimulus_for_both() {
        let src = r#"
            module top(a, y, z);
              input a; output y, z;
              not g0 (y, a);
              buf g1 (z, a);
            endmodule
        "#;
        let nl = parse_and_elaborate(src).unwrap().into_netlist();
        let plan = ClusterPlan::new(&nl, &[0, 1], 2);
        assert_eq!(plan.clusters[0].stimulus_nets.len(), 1);
        assert_eq!(plan.clusters[1].stimulus_nets.len(), 1);
        // A PI is not a cut net even when read everywhere.
        assert_eq!(plan.cut_nets(), 0);
    }
}
