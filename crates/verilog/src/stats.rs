//! Design statistics: the numbers the paper quotes about its workload
//! (module count, gate count) plus structural measures useful for validating
//! generated circuits (fanout distribution, logic depth, sequential ratio).

use crate::netlist::{GateId, NetId, Netlist};
use std::collections::HashMap;
use std::fmt;

/// Summary statistics over an elaborated netlist.
#[derive(Debug, Clone, PartialEq)]
pub struct DesignStats {
    /// Number of distinct module definitions actually instantiated
    /// (including the top module).
    pub module_defs: usize,
    /// Number of module instances, excluding the root.
    pub instances: usize,
    /// Maximum hierarchy depth (root = 0).
    pub max_depth: u32,
    pub gates: usize,
    pub nets: usize,
    pub primary_inputs: usize,
    pub primary_outputs: usize,
    /// Gates per [`crate::netlist::GateKind`], indexed by kind name.
    pub gates_by_kind: Vec<(&'static str, usize)>,
    pub sequential_gates: usize,
    pub max_fanout: usize,
    pub mean_fanout: f64,
    /// Longest combinational path in gate levels (DFFs/latches cut paths).
    /// `None` if the combinational netlist contains a cycle.
    pub logic_depth: Option<u32>,
}

impl fmt::Display for DesignStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "module defs      : {}", self.module_defs)?;
        writeln!(f, "instances        : {}", self.instances)?;
        writeln!(f, "max depth        : {}", self.max_depth)?;
        writeln!(f, "gates            : {}", self.gates)?;
        writeln!(f, "nets             : {}", self.nets)?;
        writeln!(f, "primary inputs   : {}", self.primary_inputs)?;
        writeln!(f, "primary outputs  : {}", self.primary_outputs)?;
        writeln!(f, "sequential gates : {}", self.sequential_gates)?;
        writeln!(f, "max fanout       : {}", self.max_fanout)?;
        writeln!(f, "mean fanout      : {:.2}", self.mean_fanout)?;
        match self.logic_depth {
            Some(d) => writeln!(f, "logic depth      : {d}")?,
            None => writeln!(f, "logic depth      : (combinational cycle)")?,
        }
        for (kind, n) in &self.gates_by_kind {
            writeln!(f, "  {kind:<8}: {n}")?;
        }
        Ok(())
    }
}

/// Compute [`DesignStats`] for a netlist.
pub fn stats(nl: &Netlist) -> DesignStats {
    let mut by_kind: HashMap<&'static str, usize> = HashMap::new();
    let mut sequential = 0usize;
    for g in &nl.gates {
        *by_kind.entry(g.kind.name()).or_default() += 1;
        if g.kind.is_sequential() {
            sequential += 1;
        }
    }
    let mut gates_by_kind: Vec<(&'static str, usize)> = by_kind.into_iter().collect();
    gates_by_kind.sort_by_key(|(k, _)| *k);

    let fanout = nl.build_fanout();
    let mut max_fanout = 0usize;
    let mut total_fanout = 0usize;
    for i in 0..nl.nets.len() {
        let d = fanout.degree(NetId(i as u32));
        max_fanout = max_fanout.max(d);
        total_fanout += d;
    }
    let mean_fanout = if nl.nets.is_empty() {
        0.0
    } else {
        total_fanout as f64 / nl.nets.len() as f64
    };

    let module_defs = {
        let mut defs: Vec<&str> = nl.instances.iter().map(|i| i.module.as_str()).collect();
        defs.sort_unstable();
        defs.dedup();
        defs.len()
    };

    DesignStats {
        module_defs,
        instances: nl.instance_count(),
        max_depth: nl.instances.iter().map(|i| i.depth).max().unwrap_or(0),
        gates: nl.gate_count(),
        nets: nl.net_count(),
        primary_inputs: nl.primary_inputs.len(),
        primary_outputs: nl.primary_outputs.len(),
        gates_by_kind,
        sequential_gates: sequential,
        max_fanout,
        mean_fanout,
        logic_depth: logic_depth(nl),
    }
}

/// Longest combinational path length in gates. Sequential elements
/// (DFF/latch) act as path endpoints: their outputs are sources with level 0
/// and their inputs are sinks. Returns `None` on a combinational cycle.
pub fn logic_depth(nl: &Netlist) -> Option<u32> {
    let fanout = nl.build_fanout();
    let n = nl.gates.len();
    // In-degree over combinational gates only.
    let mut indeg = vec![0u32; n];
    for (gi, g) in nl.gates.iter().enumerate() {
        if g.kind.is_sequential() || g.kind.is_const() {
            continue;
        }
        for &inp in nl.inputs(GateId(gi as u32)) {
            if let Some(d) = nl.nets[inp.idx()].driver {
                if !nl.gates[d.idx()].kind.is_sequential() && !nl.gates[d.idx()].kind.is_const() {
                    indeg[gi] += 1;
                }
            }
        }
    }
    let mut level = vec![0u32; n];
    let mut queue: Vec<usize> = (0..n)
        .filter(|&gi| {
            let g = &nl.gates[gi];
            !g.kind.is_sequential() && !g.kind.is_const() && indeg[gi] == 0
        })
        .collect();
    let mut processed = queue.len();
    let comb_total = nl
        .gates
        .iter()
        .filter(|g| !g.kind.is_sequential() && !g.kind.is_const())
        .count();
    let mut head = 0;
    let mut max_level = if comb_total > 0 { 1 } else { 0 };
    while head < queue.len() {
        let gi = queue[head];
        head += 1;
        let out = nl.gates[gi].output;
        for &reader in fanout.readers(out) {
            let rg = &nl.gates[reader.idx()];
            if rg.kind.is_sequential() || rg.kind.is_const() {
                continue;
            }
            let ri = reader.idx();
            level[ri] = level[ri].max(level[gi] + 1);
            max_level = max_level.max(level[ri] + 1);
            indeg[ri] -= 1;
            if indeg[ri] == 0 {
                queue.push(ri);
                processed += 1;
            }
        }
    }
    if processed < comb_total {
        None // cycle
    } else {
        Some(max_level)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse_and_elaborate;

    #[test]
    fn full_adder_stats() {
        let src = r#"
            module top(a, b, cin, sum, cout);
              input a, b, cin; output sum, cout;
              wire s1, c1, c2;
              xor x1 (s1, a, b);
              xor x2 (sum, s1, cin);
              and a1 (c1, a, b);
              and a2 (c2, s1, cin);
              or  o1 (cout, c1, c2);
            endmodule
        "#;
        let d = parse_and_elaborate(src).unwrap();
        let s = stats(d.netlist());
        assert_eq!(s.gates, 5);
        assert_eq!(s.primary_inputs, 3);
        assert_eq!(s.primary_outputs, 2);
        // Longest path: x1 -> a2 -> o1 = 3 gate levels.
        assert_eq!(s.logic_depth, Some(3));
        assert_eq!(s.sequential_gates, 0);
        assert!(s.max_fanout >= 2); // s1 feeds x2 and a2
        let and_count = s.gates_by_kind.iter().find(|(k, _)| *k == "and").unwrap().1;
        assert_eq!(and_count, 2);
    }

    #[test]
    fn dff_cuts_depth() {
        let src = r#"
            module top(clk, a, q);
              input clk, a; output q;
              wire n1, n2;
              not g1 (n1, a);
              dff f (n2, clk, n1);
              not g2 (q, n2);
            endmodule
        "#;
        let d = parse_and_elaborate(src).unwrap();
        let s = stats(d.netlist());
        assert_eq!(s.logic_depth, Some(1));
        assert_eq!(s.sequential_gates, 1);
    }

    #[test]
    fn feedback_through_dff_is_not_a_cycle() {
        let src = r#"
            module top(clk, q);
              input clk; output q;
              wire d;
              not g (d, q);
              dff f (q, clk, d);
            endmodule
        "#;
        let d = parse_and_elaborate(src).unwrap();
        assert_eq!(logic_depth(d.netlist()), Some(1));
    }

    #[test]
    fn combinational_cycle_detected() {
        // A direct combinational loop: a = not(b), b = not(a).
        let src = r#"
            module top(y);
              output y;
              wire a, b;
              not g1 (a, b);
              not g2 (b, a);
              buf g3 (y, a);
            endmodule
        "#;
        let d = parse_and_elaborate(src).unwrap();
        assert_eq!(logic_depth(d.netlist()), None);
    }

    #[test]
    fn display_renders() {
        let src = "module top(a, y); input a; output y; buf b (y, a); endmodule";
        let d = parse_and_elaborate(src).unwrap();
        let text = stats(d.netlist()).to_string();
        assert!(text.contains("gates"));
        assert!(text.contains("buf"));
    }
}
