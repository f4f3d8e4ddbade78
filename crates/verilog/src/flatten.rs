//! Hierarchy queries.
//!
//! The netlist produced by elaboration is already flat at the gate level;
//! what distinguishes the paper's *design-driven* algorithm from flat-netlist
//! partitioners (hMetis) is whether the instance tree is consulted. Both
//! partition a hypergraph built over a [`Frontier`]: the design-driven one
//! starts from [`Frontier::initial`], and the hMetis baseline's gate-level
//! hypergraph (`dvs_hypergraph::builder::gate_level`) is the one over
//! [`Frontier::flat`], which has no super-gates. This module provides the
//! frontier helpers used by the super-gate machinery.

use crate::netlist::{InstId, Netlist};

/// A frontier is a set of instance nodes that cuts the hierarchy tree: every
/// gate is owned by exactly one frontier node or by an ancestor of the
/// frontier (the "loose" region). The paper's partitioner starts with the
/// frontier = children of the root (each child a *super-gate*) and lowers it
/// by flattening one node at a time.
#[derive(Debug, Clone)]
pub struct Frontier {
    /// Instance nodes currently acting as super-gates.
    pub nodes: Vec<InstId>,
}

impl Frontier {
    /// The initial frontier: the root's direct children.
    pub fn initial(nl: &Netlist) -> Frontier {
        Frontier {
            nodes: nl.instances[0].children.clone(),
        }
    }

    /// A fully flattened frontier (no super-gates at all).
    pub fn flat() -> Frontier {
        Frontier { nodes: Vec::new() }
    }

    /// Replace `node` with its children; gates directly owned by `node`
    /// become loose. Returns `false` if `node` was not on the frontier.
    pub fn flatten_node(&mut self, nl: &Netlist, node: InstId) -> bool {
        let Some(pos) = self.nodes.iter().position(|&n| n == node) else {
            return false;
        };
        self.nodes.swap_remove(pos);
        self.nodes
            .extend(nl.instances[node.idx()].children.iter().copied());
        true
    }

    /// Map every gate to the frontier node owning it (`Some(frontier index)`)
    /// or `None` when the gate is loose (owned above/outside the frontier).
    ///
    /// Complexity `O(instances + gates)`.
    pub fn gate_assignment(&self, nl: &Netlist) -> Vec<Option<u32>> {
        // Label each instance subtree with its frontier index.
        let mut inst_label: Vec<Option<u32>> = vec![None; nl.instances.len()];
        for (fi, &node) in self.nodes.iter().enumerate() {
            for sub in nl.subtree(node) {
                debug_assert!(
                    inst_label[sub.idx()].is_none(),
                    "frontier nodes must have disjoint subtrees"
                );
                inst_label[sub.idx()] = Some(fi as u32);
            }
        }
        nl.gates.iter().map(|g| inst_label[g.owner.idx()]).collect()
    }

    /// Total gate weight of each frontier node (its super-gate weight).
    pub fn weights(&self, nl: &Netlist) -> Vec<u64> {
        self.nodes
            .iter()
            .map(|&n| nl.instances[n.idx()].subtree_gates)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse_and_elaborate;

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
          leaf l0 (i, m);
          buf b0 (o, m);
        endmodule
        module leaf(i, o);
          input i; output o;
          not n0 (o, i);
        endmodule
    "#;

    #[test]
    fn initial_frontier_is_top_children() {
        let d = parse_and_elaborate(SRC).unwrap();
        let nl = d.netlist();
        let f = Frontier::initial(nl);
        assert_eq!(f.nodes.len(), 2); // p0, p1
        assert_eq!(f.weights(nl), vec![2, 2]);
    }

    #[test]
    fn gate_assignment_marks_loose_gates() {
        let d = parse_and_elaborate(SRC).unwrap();
        let nl = d.netlist();
        let f = Frontier::initial(nl);
        let assign = f.gate_assignment(nl);
        // Gate g0 (and at top) is loose.
        let loose = assign.iter().filter(|a| a.is_none()).count();
        assert_eq!(loose, 1);
        let in_p0 = assign.iter().filter(|a| **a == Some(0)).count();
        assert_eq!(in_p0, 2);
    }

    #[test]
    fn flatten_node_descends_one_level() {
        let d = parse_and_elaborate(SRC).unwrap();
        let nl = d.netlist();
        let mut f = Frontier::initial(nl);
        let p0 = f.nodes[0];
        assert!(f.flatten_node(nl, p0));
        // p0 is replaced by its single child (leaf l0); p0's own buf becomes loose.
        assert_eq!(f.nodes.len(), 2);
        let assign = f.gate_assignment(nl);
        let loose = assign.iter().filter(|a| a.is_none()).count();
        assert_eq!(loose, 2); // top's and + p0's buf
        assert!(!f.flatten_node(nl, p0), "p0 no longer on frontier");
    }

    #[test]
    fn flat_frontier_has_all_loose() {
        let d = parse_and_elaborate(SRC).unwrap();
        let nl = d.netlist();
        let f = Frontier::flat();
        assert!(f.gate_assignment(nl).iter().all(|a| a.is_none()));
    }
}
