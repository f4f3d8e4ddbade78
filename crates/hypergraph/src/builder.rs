//! Netlist → hypergraph builders.
//!
//! Two views of the same circuit:
//!
//! * [`gate_level`] — one vertex per gate (weight 1), one hyperedge per net.
//!   This is the flattened view that conventional partitioners (the hMetis
//!   baseline) operate on.
//! * [`design_level`] — one vertex per *frontier* instance (a **super-gate**,
//!   weighted by its subtree gate count) plus one vertex per loose gate.
//!   Nets entirely inside a super-gate vanish; this is the compact,
//!   hierarchy-preserving view the paper's design-driven algorithm uses.
//!
//! [`HierHypergraph`] keeps the vertex↔netlist correspondence so partitions
//! can be projected down to gates (for simulation) and carried across
//! frontier changes (when a super-gate is flattened).

use crate::hgraph::{Hypergraph, HypergraphBuilder, VertexId};
use crate::partition::Partition;
use dvs_verilog::flatten::Frontier;
use dvs_verilog::netlist::{Fanout, GateId, InstId, NetId, Netlist};

/// What a hypergraph vertex corresponds to in the netlist.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VertexOrigin {
    /// A frontier module instance acting as a super-gate.
    Super(InstId),
    /// A single gate (loose gate at design level, or any gate at gate level).
    Gate(GateId),
}

/// A hypergraph plus its correspondence to the source netlist.
#[derive(Debug, Clone)]
pub struct HierHypergraph {
    pub hg: Hypergraph,
    /// Per-vertex origin.
    pub origins: Vec<VertexOrigin>,
    /// Per-gate owning vertex.
    pub gate_vertex: Vec<u32>,
    /// Per-edge source net.
    pub edge_nets: Vec<NetId>,
}

impl HierHypergraph {
    /// Project a partition of this hypergraph down to a per-gate block
    /// assignment.
    pub fn gate_blocks(&self, part: &Partition) -> Vec<u32> {
        self.gate_vertex
            .iter()
            .map(|&v| part.block_of(VertexId(v)))
            .collect()
    }

    /// Lift a per-gate block assignment to a per-vertex assignment of this
    /// hypergraph. Every gate of a vertex must map to the same block; in
    /// debug builds this is asserted. Used to carry a partition across a
    /// frontier change (all gates of any *new* vertex shared an old vertex).
    pub fn assignment_from_gate_blocks(&self, gate_blocks: &[u32]) -> Vec<u32> {
        assert_eq!(gate_blocks.len(), self.gate_vertex.len());
        let mut assign = vec![u32::MAX; self.hg.vertex_count()];
        for (g, &v) in self.gate_vertex.iter().enumerate() {
            let blk = gate_blocks[g];
            if assign[v as usize] == u32::MAX {
                assign[v as usize] = blk;
            } else {
                debug_assert_eq!(
                    assign[v as usize], blk,
                    "gate {g} disagrees with its vertex's block"
                );
            }
        }
        // Zero-gate vertices (empty modules) default to block 0.
        for a in &mut assign {
            if *a == u32::MAX {
                *a = 0;
            }
        }
        assign
    }
}

/// Build the gate-level (flattened) hypergraph: vertex per gate, hyperedge
/// per net joining the driver and all readers.
pub fn gate_level(nl: &Netlist) -> HierHypergraph {
    let fanout = nl.build_fanout();
    let mut b = HypergraphBuilder::with_capacity(nl.gate_count(), nl.net_count());
    let mut origins = Vec::with_capacity(nl.gate_count());
    let mut gate_vertex = Vec::with_capacity(nl.gate_count());
    for gi in 0..nl.gate_count() {
        let v = b.add_vertex(1);
        origins.push(VertexOrigin::Gate(GateId(gi as u32)));
        gate_vertex.push(v.0);
    }
    let mut edge_nets = Vec::new();
    let mut pins: Vec<VertexId> = Vec::with_capacity(16);
    for ni in 0..nl.net_count() {
        let net = NetId(ni as u32);
        pins.clear();
        if let Some(d) = nl.nets[ni].driver {
            pins.push(VertexId(d.0));
        }
        pins.extend(fanout.readers(net).iter().map(|g| VertexId(g.0)));
        if b.add_edge(pins.iter().copied(), 1) {
            edge_nets.push(net);
        }
    }
    HierHypergraph {
        hg: b.build(),
        origins,
        gate_vertex,
        edge_nets,
    }
}

/// Build the design-level hypergraph for a given hierarchy `frontier`:
/// one super-gate vertex per frontier instance (weight = subtree gates) and
/// one unit vertex per loose gate. Nets whose pins all fall inside one
/// vertex produce no hyperedge.
pub fn design_level(nl: &Netlist, frontier: &Frontier) -> HierHypergraph {
    design_level_weighted(nl, frontier, None)
}

/// [`design_level`] with an optional per-gate weight vector (e.g. profiled
/// activity counts). Super-gate weight = sum of its gates' weights; loose
/// gates carry their own weight. `None` falls back to the paper's
/// gate-count metric (every gate weighs 1).
pub fn design_level_weighted(
    nl: &Netlist,
    frontier: &Frontier,
    gate_weights: Option<&[u64]>,
) -> HierHypergraph {
    design_level_with(nl, &nl.build_fanout(), frontier, gate_weights)
}

/// [`design_level_weighted`] over a `fanout` of `nl` the caller already
/// built — the partitioner rebuilds the hypergraph after every flatten.
pub fn design_level_with(
    nl: &Netlist,
    fanout: &Fanout,
    frontier: &Frontier,
    gate_weights: Option<&[u64]>,
) -> HierHypergraph {
    if let Some(w) = gate_weights {
        assert_eq!(w.len(), nl.gate_count());
    }
    let weight_of = |gi: usize| gate_weights.map_or(1, |w| w[gi]);
    let gate_frontier = frontier.gate_assignment(nl);

    let mut b = HypergraphBuilder::new();
    let mut origins = Vec::new();

    // Super-gate vertices, in frontier order.
    let mut frontier_vertex = Vec::with_capacity(frontier.nodes.len());
    let mut super_weight = vec![0u64; frontier.nodes.len()];
    if gate_weights.is_some() {
        for (gi, fa) in gate_frontier.iter().enumerate() {
            if let Some(fi) = fa {
                super_weight[*fi as usize] += weight_of(gi);
            }
        }
    }
    for (fi, &inst) in frontier.nodes.iter().enumerate() {
        let w = if gate_weights.is_some() {
            super_weight[fi]
        } else {
            nl.instances[inst.idx()].subtree_gates
        };
        let v = b.add_vertex(w);
        origins.push(VertexOrigin::Super(inst));
        frontier_vertex.push(v.0);
    }

    // Loose gates get their own vertices.
    let mut gate_vertex = vec![u32::MAX; nl.gate_count()];
    for (gi, fa) in gate_frontier.iter().enumerate() {
        match fa {
            Some(fi) => gate_vertex[gi] = frontier_vertex[*fi as usize],
            None => {
                let v = b.add_vertex(weight_of(gi));
                origins.push(VertexOrigin::Gate(GateId(gi as u32)));
                gate_vertex[gi] = v.0;
            }
        }
    }

    let mut edge_nets = Vec::new();
    let mut pins: Vec<VertexId> = Vec::with_capacity(16);
    for ni in 0..nl.net_count() {
        let net = NetId(ni as u32);
        pins.clear();
        if let Some(d) = nl.nets[ni].driver {
            pins.push(VertexId(gate_vertex[d.idx()]));
        }
        pins.extend(
            fanout
                .readers(net)
                .iter()
                .map(|g| VertexId(gate_vertex[g.idx()])),
        );
        if b.add_edge(pins.iter().copied(), 1) {
            edge_nets.push(net);
        }
    }
    HierHypergraph {
        hg: b.build(),
        origins,
        gate_vertex,
        edge_nets,
    }
}

/// Hyperedge cut of a per-gate block assignment, measured on the flat
/// netlist: the number of nets whose driver/readers span >1 block. This is
/// the apples-to-apples metric for comparing the design-driven partitioner
/// with the flat hMetis baseline (paper Tables 1 and 2).
pub fn cut_nets(nl: &Netlist, gate_blocks: &[u32]) -> Vec<NetId> {
    cut_nets_with(nl, &nl.build_fanout(), gate_blocks)
}

/// [`cut_nets`] over a `fanout` of `nl` the caller already built.
pub fn cut_nets_with(nl: &Netlist, fanout: &Fanout, gate_blocks: &[u32]) -> Vec<NetId> {
    assert_eq!(gate_blocks.len(), nl.gate_count());
    let mut cut = Vec::new();
    for ni in 0..nl.net_count() {
        let net = NetId(ni as u32);
        let mut first: Option<u32> = None;
        let mut is_cut = false;
        if let Some(d) = nl.nets[ni].driver {
            first = Some(gate_blocks[d.idx()]);
        }
        for r in fanout.readers(net) {
            let blk = gate_blocks[r.idx()];
            match first {
                None => first = Some(blk),
                Some(f) if f != blk => {
                    is_cut = true;
                    break;
                }
                _ => {}
            }
        }
        if is_cut {
            cut.push(net);
        }
    }
    cut
}

/// Convenience: `cut_nets(..).len()` as u64.
pub fn cut_size_gates(nl: &Netlist, gate_blocks: &[u32]) -> u64 {
    cut_nets(nl, gate_blocks).len() as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use dvs_verilog::parse_and_elaborate;

    const SRC: &str = r#"
        module top(a, b, y, z);
          input a, b; output y, z;
          wire t;
          and g0 (t, a, b);
          pair p0 (t, y);
          pair p1 (t, z);
        endmodule
        module pair(i, o);
          input i; output o;
          wire m;
          not n0 (m, i);
          buf b0 (o, m);
        endmodule
    "#;

    #[test]
    fn gate_level_shape() {
        let d = parse_and_elaborate(SRC).unwrap();
        let nl = d.netlist();
        let gh = gate_level(nl);
        assert_eq!(gh.hg.vertex_count(), 5); // and + 2*(not+buf)
                                             // Nets: a, b feed g0 only... a: driver none, readers {g0} → 1 pin,
                                             // dropped. t: driver g0, readers n0(p0), n0(p1) → 3 pins. m in each
                                             // pair: 2 pins. y, z: 1 pin each (no readers) → dropped.
        assert_eq!(gh.hg.edge_count(), 3);
        assert_eq!(gh.gate_vertex.len(), 5);
        assert!(gh
            .origins
            .iter()
            .all(|o| matches!(o, VertexOrigin::Gate(_))));
    }

    #[test]
    fn design_level_shape() {
        let d = parse_and_elaborate(SRC).unwrap();
        let nl = d.netlist();
        let f = Frontier::initial(nl);
        let dh = design_level(nl, &f);
        // Vertices: p0, p1 super-gates + loose g0.
        assert_eq!(dh.hg.vertex_count(), 3);
        assert_eq!(dh.hg.vweight(VertexId(0)), 2);
        assert_eq!(dh.hg.vweight(VertexId(1)), 2);
        assert_eq!(dh.hg.vweight(VertexId(2)), 1);
        // Only net `t` crosses vertices (m is inside a super-gate).
        assert_eq!(dh.hg.edge_count(), 1);
        assert_eq!(dh.hg.pin_degree(crate::hgraph::EdgeId(0)), 3);
        assert_eq!(dh.hg.total_vweight(), 5);
    }

    #[test]
    fn design_level_after_flattening() {
        let d = parse_and_elaborate(SRC).unwrap();
        let nl = d.netlist();
        let mut f = Frontier::initial(nl);
        let p0 = f.nodes[0];
        f.flatten_node(nl, p0);
        let dh = design_level(nl, &f);
        // p0's two gates are now loose vertices (p0 has no children).
        assert_eq!(dh.hg.vertex_count(), 4); // p1 + g0 + not + buf
                                             // Net m inside old p0 is now visible: edges t and m... but m has 2
                                             // pins (n0, b0) both loose now → edge kept.
        assert_eq!(dh.hg.edge_count(), 2);
    }

    #[test]
    fn projection_roundtrip() {
        let d = parse_and_elaborate(SRC).unwrap();
        let nl = d.netlist();
        let f = Frontier::initial(nl);
        let dh = design_level(nl, &f);
        let part = Partition::from_assignment(&dh.hg, 2, vec![0, 1, 0]);
        let gates = dh.gate_blocks(&part);
        assert_eq!(gates.len(), nl.gate_count());
        // Lift back.
        let lifted = dh.assignment_from_gate_blocks(&gates);
        assert_eq!(lifted, vec![0, 1, 0]);
    }

    #[test]
    fn design_cut_matches_gate_cut() {
        // Hyperedge cut measured on the design hypergraph equals the flat
        // net cut of the projected assignment.
        let d = parse_and_elaborate(SRC).unwrap();
        let nl = d.netlist();
        let f = Frontier::initial(nl);
        let dh = design_level(nl, &f);
        for assign in [vec![0, 1, 0], vec![0, 0, 1], vec![1, 1, 0], vec![0, 1, 1]] {
            let part = Partition::from_assignment(&dh.hg, 2, assign);
            let design_cut = part.hyperedge_cut(&dh.hg);
            let gate_cut = cut_size_gates(nl, &dh.gate_blocks(&part));
            assert_eq!(design_cut, gate_cut);
        }
    }

    #[test]
    fn cut_nets_identifies_crossing_nets() {
        let d = parse_and_elaborate(SRC).unwrap();
        let nl = d.netlist();
        let gh = gate_level(nl);
        // Split: and-gate in block 0, everything else block 1.
        let mut blocks = vec![1u32; nl.gate_count()];
        blocks[0] = 0;
        let cuts = cut_nets(nl, &blocks);
        assert_eq!(cuts.len(), 1);
        let name = &nl.nets[cuts[0].idx()].name;
        assert!(name.ends_with(".t"), "cut net should be t, got {name}");
        let _ = gh;
    }
}
