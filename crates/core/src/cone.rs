//! Cone partitioning — the initial k-way partition (Saucier, Brasen & Hiol,
//! ICCAD 1993, as used by the paper).
//!
//! "Cone partitioning emphasizes the concurrency present in the design. The
//! algorithm starts at the primary inputs of the circuit and traverses the
//! hypergraph." We grow one cone at a time: starting from an unassigned
//! vertex adjacent to the primary inputs (or any remaining vertex once the
//! input frontier is exhausted), a breadth-first traversal in signal-flow
//! direction collects vertices until the cone reaches the per-block target
//! weight; the cone is assigned to the lightest block so far. Input cones
//! evaluate concurrently during simulation, which is exactly the concurrency
//! the heuristic preserves.

use dvs_hypergraph::builder::HierHypergraph;
use dvs_hypergraph::partition::Partition;
use dvs_hypergraph::VertexId;
use dvs_verilog::netlist::{Fanout, Netlist};
use std::collections::VecDeque;

/// Build the initial k-way partition of `hh` by cone growth.
pub fn cone_partition(nl: &Netlist, hh: &HierHypergraph, k: u32) -> Partition {
    cone_partition_with(nl, &nl.build_fanout(), hh, k, 1.0)
}

/// Cone growth over a `fanout` of `nl` the caller already built, with a
/// scaled per-cone weight target. Scales below 1 grow more, smaller cones;
/// above 1 fewer, larger ones. Restarts of the multiway partitioner perturb
/// this to diversify the initial partitions (cone growth is otherwise
/// deterministic).
pub(crate) fn cone_partition_with(
    nl: &Netlist,
    fanout: &Fanout,
    hh: &HierHypergraph,
    k: u32,
    target_scale: f64,
) -> Partition {
    let nv = hh.hg.vertex_count();
    let total = hh.hg.total_vweight();
    let target = (((total / k as u64) as f64 * target_scale) as u64).max(1);

    // Directed successor lists between hypergraph vertices, following net
    // direction (driver -> readers).
    let mut succs: Vec<Vec<u32>> = vec![Vec::new(); nv];
    for (ni, net) in nl.nets.iter().enumerate() {
        let Some(driver) = net.driver else { continue };
        let src = hh.gate_vertex[driver.idx()];
        for &r in fanout.readers(dvs_verilog::netlist::NetId(ni as u32)) {
            let dst = hh.gate_vertex[r.idx()];
            if dst != src {
                succs[src as usize].push(dst);
            }
        }
    }
    for s in &mut succs {
        s.sort_unstable();
        s.dedup();
    }

    // Seed order: vertices reading primary inputs first (in PI order), then
    // everything else by index — deterministic.
    let mut seed_order: Vec<u32> = Vec::with_capacity(nv);
    let mut seeded = vec![false; nv];
    for &pi in &nl.primary_inputs {
        for &r in fanout.readers(pi) {
            let v = hh.gate_vertex[r.idx()];
            if !seeded[v as usize] {
                seeded[v as usize] = true;
                seed_order.push(v);
            }
        }
    }
    for v in 0..nv as u32 {
        if !seeded[v as usize] {
            seed_order.push(v);
        }
    }

    let mut assign = vec![u32::MAX; nv];
    let mut loads = vec![0u64; k as usize];
    let mut queue: VecDeque<u32> = VecDeque::new();
    let mut seed_iter = seed_order.into_iter();

    // Start a new cone at each next unassigned seed.
    while let Some(seed) = seed_iter.by_ref().find(|&s| assign[s as usize] == u32::MAX) {
        // Assign this cone to the lightest block.
        let block = loads
            .iter()
            .enumerate()
            .min_by_key(|&(_, &w)| w)
            .map(|(b, _)| b as u32)
            .expect("k >= 1");
        let mut cone_w = 0u64;
        queue.clear();
        queue.push_back(seed);
        assign[seed as usize] = block;
        while let Some(v) = queue.pop_front() {
            cone_w += hh.hg.vweight(VertexId(v));
            if cone_w >= target {
                break;
            }
            for &nx in &succs[v as usize] {
                if assign[nx as usize] == u32::MAX {
                    assign[nx as usize] = block;
                    queue.push_back(nx);
                }
            }
        }
        // Vertices queued but not expanded stay in the cone (already
        // assigned above).
        loads[block as usize] += cone_w;
        while let Some(v) = queue.pop_front() {
            loads[block as usize] += hh.hg.vweight(VertexId(v));
            let _ = v;
        }
    }

    // Anything unreachable defaults to the lightest block.
    for (v, slot) in assign.iter_mut().enumerate() {
        if *slot == u32::MAX {
            let block = loads
                .iter()
                .enumerate()
                .min_by_key(|&(_, &w)| w)
                .map(|(b, _)| b as u32)
                .unwrap();
            *slot = block;
            loads[block as usize] += hh.hg.vweight(VertexId(v as u32));
        }
    }

    Partition::from_assignment(&hh.hg, k, assign)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dvs_hypergraph::builder::design_level;
    use dvs_verilog::flatten::Frontier;
    use dvs_verilog::parse_and_elaborate;

    fn chain_of_modules(n: usize) -> Netlist {
        let mut src = String::new();
        src.push_str("module top(a, y);\n input a; output y;\n");
        for i in 0..=n {
            src.push_str(&format!(" wire w{i};\n"));
        }
        src.push_str(" buf bi (w0, a);\n");
        for i in 0..n {
            src.push_str(&format!(" stage s{i} (w{i}, w{});\n", i + 1));
        }
        src.push_str(&format!(" buf bo (y, w{n});\nendmodule\n"));
        src.push_str(
            "module stage(i, o);\n input i; output o;\n wire t;\n not n1 (t, i);\n not n2 (o, t);\nendmodule\n",
        );
        parse_and_elaborate(&src).unwrap().into_netlist()
    }

    #[test]
    fn cone_partition_covers_all_vertices() {
        let nl = chain_of_modules(12);
        let hh = design_level(&nl, &Frontier::initial(&nl));
        for k in [1u32, 2, 3, 4] {
            let p = cone_partition(&nl, &hh, k);
            assert_eq!(p.k(), k);
            let total: u64 = p.block_weights().iter().sum();
            assert_eq!(total, hh.hg.total_vweight());
        }
    }

    #[test]
    fn cones_are_roughly_balanced() {
        let nl = chain_of_modules(16);
        let hh = design_level(&nl, &Frontier::initial(&nl));
        let p = cone_partition(&nl, &hh, 4);
        let avg = hh.hg.total_vweight() as f64 / 4.0;
        for &w in p.block_weights() {
            assert!(
                (w as f64) < 2.5 * avg,
                "block weight {w} far above average {avg}"
            );
        }
        // All blocks should be used.
        assert!(p.block_weights().iter().all(|&w| w > 0));
    }

    #[test]
    fn cones_are_contiguous_on_a_chain() {
        // On a pure pipeline, cone growth should keep consecutive stages
        // together much better than round-robin would.
        let nl = chain_of_modules(16);
        let hh = design_level(&nl, &Frontier::initial(&nl));
        let p = cone_partition(&nl, &hh, 2);
        let cut = p.hyperedge_cut(&hh.hg);
        // Round-robin would cut ~all 17 inter-stage nets; cones should cut
        // only a few.
        assert!(cut <= 6, "cone cut {cut} too fragmented");
    }

    #[test]
    fn scaled_targets_change_granularity() {
        let nl = chain_of_modules(16);
        let hh = design_level(&nl, &Frontier::initial(&nl));
        let fanout = nl.build_fanout();
        let small = cone_partition_with(&nl, &fanout, &hh, 4, 0.5);
        let large = cone_partition_with(&nl, &fanout, &hh, 4, 1.5);
        // Both are complete partitions of the same total weight.
        let sum = |p: &Partition| p.block_weights().iter().sum::<u64>();
        assert_eq!(sum(&small), sum(&large));
        // Different cone sizes generally give different assignments.
        assert_ne!(small.assignment(), large.assignment());
    }

    #[test]
    fn k1_assigns_everything_to_block_zero() {
        let nl = chain_of_modules(5);
        let hh = design_level(&nl, &Frontier::initial(&nl));
        let p = cone_partition(&nl, &hh, 1);
        assert!(p.assignment().iter().all(|&b| b == 0));
    }
}
