//! K-way partition state, cut metrics and the paper's balance constraint.

use crate::hgraph::{EdgeId, Hypergraph, VertexId};

/// The load-balancing constraint of Li & Tropper, formula (1):
///
/// ```text
/// load·(1/k − b/100) ≤ load[i] ≤ load·(1/k + b/100)
/// ```
///
/// where `load` is the total vertex weight (gate count), `k` the number of
/// blocks and `b` the balance factor in percent. The constraint "guarantees
/// that the difference in the load assigned to two different processors is
/// less than 2·b percent of the total load".
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BalanceConstraint {
    pub k: u32,
    pub total_weight: u64,
    /// The paper's `b`, in percent (e.g. `7.5`).
    pub b_percent: f64,
}

impl BalanceConstraint {
    pub fn new(k: u32, total_weight: u64, b_percent: f64) -> Self {
        assert!(k >= 1, "k must be at least 1");
        assert!(b_percent >= 0.0, "b must be non-negative");
        BalanceConstraint {
            k,
            total_weight,
            b_percent,
        }
    }

    /// Lower bound on a block's weight (clamped at 0).
    pub fn lower(&self) -> u64 {
        let f = 1.0 / self.k as f64 - self.b_percent / 100.0;
        if f <= 0.0 {
            0
        } else {
            (self.total_weight as f64 * f).ceil() as u64
        }
    }

    /// Upper bound on a block's weight.
    pub fn upper(&self) -> u64 {
        let f = 1.0 / self.k as f64 + self.b_percent / 100.0;
        (self.total_weight as f64 * f).floor() as u64
    }

    /// Is a single block weight feasible?
    pub fn block_ok(&self, w: u64) -> bool {
        w >= self.lower() && w <= self.upper()
    }

    /// Are all block weights feasible?
    pub fn satisfied(&self, weights: &[u64]) -> bool {
        weights.iter().all(|&w| self.block_ok(w))
    }

    /// How far (in weight units) the given block weights are from
    /// feasibility; 0 when satisfied. Useful as a repair objective.
    pub fn violation(&self, weights: &[u64]) -> u64 {
        let lo = self.lower();
        let hi = self.upper();
        weights
            .iter()
            .map(|&w| if w < lo { lo - w } else { w.saturating_sub(hi) })
            .sum()
    }
}

/// Explicit per-block weight bounds. [`BalanceConstraint`] generates the
/// uniform case; recursive bisection uses asymmetric targets (e.g. a 2:1
/// split when dividing for k=3).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BlockBounds {
    pub lower: Vec<u64>,
    pub upper: Vec<u64>,
}

impl BlockBounds {
    /// Uniform bounds from the paper's constraint.
    pub fn uniform(c: &BalanceConstraint) -> Self {
        BlockBounds {
            lower: vec![c.lower(); c.k as usize],
            upper: vec![c.upper(); c.k as usize],
        }
    }

    /// Asymmetric two-block bounds: block weights targeted at
    /// `total·frac` / `total·(1−frac)` with a tolerance of `tol` (fraction
    /// of total) on each side.
    pub fn bisection(total: u64, frac: f64, tol: f64) -> Self {
        assert!(frac > 0.0 && frac < 1.0);
        let t = total as f64;
        let bound = |f: f64| -> (u64, u64) {
            let lo = (t * (f - tol)).max(0.0).ceil() as u64;
            let hi = (t * (f + tol)).floor().min(t) as u64;
            (lo, hi.max(lo))
        };
        let (l0, u0) = bound(frac);
        let (l1, u1) = bound(1.0 - frac);
        BlockBounds {
            lower: vec![l0, l1],
            upper: vec![u0, u1],
        }
    }

    pub fn k(&self) -> usize {
        self.lower.len()
    }

    /// Distance of block `blk`'s weight `w` from its feasible interval.
    #[inline]
    pub fn block_violation(&self, blk: u32, w: u64) -> u64 {
        let lo = self.lower[blk as usize];
        let hi = self.upper[blk as usize];
        if w < lo {
            lo - w
        } else {
            w.saturating_sub(hi)
        }
    }

    pub fn block_ok(&self, blk: u32, w: u64) -> bool {
        self.block_violation(blk, w) == 0
    }

    pub fn satisfied(&self, weights: &[u64]) -> bool {
        weights
            .iter()
            .enumerate()
            .all(|(b, &w)| self.block_ok(b as u32, w))
    }

    pub fn violation(&self, weights: &[u64]) -> u64 {
        weights
            .iter()
            .enumerate()
            .map(|(b, &w)| self.block_violation(b as u32, w))
            .sum()
    }
}

/// A k-way assignment of hypergraph vertices with maintained block weights.
#[derive(Debug, Clone, PartialEq)]
pub struct Partition {
    k: u32,
    assign: Vec<u32>,
    block_weights: Vec<u64>,
}

impl Partition {
    /// Build from an explicit assignment vector. Panics if an assignment is
    /// out of range or the length mismatches the graph.
    pub fn from_assignment(hg: &Hypergraph, k: u32, assign: Vec<u32>) -> Self {
        assert_eq!(assign.len(), hg.vertex_count());
        let mut block_weights = vec![0u64; k as usize];
        for (v, &blk) in assign.iter().enumerate() {
            assert!(blk < k, "vertex {v} assigned to block {blk} >= k={k}");
            block_weights[blk as usize] += hg.vweight(VertexId(v as u32));
        }
        Partition {
            k,
            assign,
            block_weights,
        }
    }

    #[inline]
    pub fn k(&self) -> u32 {
        self.k
    }

    #[inline]
    pub fn block_of(&self, v: VertexId) -> u32 {
        self.assign[v.idx()]
    }

    #[inline]
    pub fn block_weight(&self, blk: u32) -> u64 {
        self.block_weights[blk as usize]
    }

    pub fn block_weights(&self) -> &[u64] {
        &self.block_weights
    }

    pub fn assignment(&self) -> &[u32] {
        &self.assign
    }

    /// Move vertex `v` to block `to`, maintaining weights.
    pub fn move_vertex(&mut self, hg: &Hypergraph, v: VertexId, to: u32) {
        debug_assert!(to < self.k);
        let from = self.assign[v.idx()];
        if from == to {
            return;
        }
        let w = hg.vweight(v);
        self.block_weights[from as usize] -= w;
        self.block_weights[to as usize] += w;
        self.assign[v.idx()] = to;
    }

    /// Number of distinct blocks edge `e` spans.
    pub fn edge_span(&self, hg: &Hypergraph, e: EdgeId) -> u32 {
        // Nets are small in gate-level circuits; a tiny on-stack scan beats a
        // hash set for the common fanout (< 16).
        let mut seen: Vec<u32> = Vec::with_capacity(8);
        for p in hg.pins(e) {
            let b = self.assign[p.idx()];
            if !seen.contains(&b) {
                seen.push(b);
            }
        }
        seen.len() as u32
    }

    /// Hyperedge cut: number of edges spanning more than one block — the
    /// metric of the paper's Tables 1 and 2 (unweighted) .
    pub fn hyperedge_cut(&self, hg: &Hypergraph) -> u64 {
        hg.edges().filter(|&e| self.edge_span(hg, e) > 1).count() as u64
    }

    /// Weighted hyperedge cut: sum of edge weights over cut edges.
    pub fn weighted_cut(&self, hg: &Hypergraph) -> u64 {
        hg.edges()
            .filter(|&e| self.edge_span(hg, e) > 1)
            .map(|e| hg.eweight(e) as u64)
            .sum()
    }

    /// The (λ−1) metric: Σ (span−1)·weight. Equals weighted cut for k=2.
    pub fn connectivity_minus_one(&self, hg: &Hypergraph) -> u64 {
        hg.edges()
            .map(|e| (self.edge_span(hg, e) as u64 - 1) * hg.eweight(e) as u64)
            .sum()
    }

    /// Pairwise cut matrix: entry `(a, b)` is the weight of edges with pins
    /// in both blocks `a` and `b` (a symmetric matrix; diagonal zero). Used
    /// by the cut-based pairing strategy.
    pub fn pair_cut_matrix(&self, hg: &Hypergraph) -> Vec<Vec<u64>> {
        let k = self.k as usize;
        let mut m = vec![vec![0u64; k]; k];
        let mut seen: Vec<u32> = Vec::with_capacity(8);
        for e in hg.edges() {
            seen.clear();
            for p in hg.pins(e) {
                let b = self.assign[p.idx()];
                if !seen.contains(&b) {
                    seen.push(b);
                }
            }
            if seen.len() > 1 {
                let w = hg.eweight(e) as u64;
                for i in 0..seen.len() {
                    for j in i + 1..seen.len() {
                        let (a, b) = (seen[i] as usize, seen[j] as usize);
                        m[a][b] += w;
                        m[b][a] += w;
                    }
                }
            }
        }
        m
    }

    /// Largest / smallest block weight ratio minus 1 — a scale-free imbalance
    /// measure for reporting.
    pub fn imbalance(&self) -> f64 {
        let max = *self.block_weights.iter().max().unwrap_or(&0);
        let total: u64 = self.block_weights.iter().sum();
        if total == 0 {
            return 0.0;
        }
        let avg = total as f64 / self.k as f64;
        max as f64 / avg - 1.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hgraph::HypergraphBuilder;

    fn chain() -> Hypergraph {
        // v0 -e0- v1 -e1- v2 -e2- v3, all unit weights.
        let mut b = HypergraphBuilder::new();
        let v: Vec<_> = (0..4).map(|_| b.add_vertex(1)).collect();
        b.add_edge([v[0], v[1]], 1);
        b.add_edge([v[1], v[2]], 1);
        b.add_edge([v[2], v[3]], 1);
        b.build()
    }

    #[test]
    fn balance_bounds_match_formula() {
        // load = 1000, k = 4, b = 7.5 → 1000*(0.25−0.075)=175 .. 1000*0.325=325.
        let c = BalanceConstraint::new(4, 1000, 7.5);
        assert_eq!(c.lower(), 175);
        assert_eq!(c.upper(), 325);
        assert!(c.block_ok(250));
        assert!(!c.block_ok(100));
        assert!(!c.block_ok(326));
        assert!(c.satisfied(&[250, 250, 250, 250]));
        assert!(!c.satisfied(&[325, 325, 325, 25]));
    }

    #[test]
    fn balance_lower_clamps_to_zero() {
        // 1/k − b/100 < 0 when b > 100/k.
        let c = BalanceConstraint::new(4, 1000, 30.0);
        assert_eq!(c.lower(), 0);
    }

    #[test]
    fn violation_measures_distance() {
        let c = BalanceConstraint::new(2, 100, 10.0);
        // bounds: 40..60
        assert_eq!(c.violation(&[50, 50]), 0);
        assert_eq!(c.violation(&[70, 30]), 10 + 10);
        assert_eq!(c.violation(&[61, 39]), 1 + 1);
    }

    #[test]
    fn cut_metrics_on_chain() {
        let hg = chain();
        let p = Partition::from_assignment(&hg, 2, vec![0, 0, 1, 1]);
        assert_eq!(p.hyperedge_cut(&hg), 1);
        assert_eq!(p.weighted_cut(&hg), 1);
        assert_eq!(p.connectivity_minus_one(&hg), 1);
        assert_eq!(p.block_weight(0), 2);
        assert_eq!(p.block_weight(1), 2);
    }

    #[test]
    fn multiway_span() {
        let mut b = HypergraphBuilder::new();
        let v: Vec<_> = (0..3).map(|_| b.add_vertex(1)).collect();
        b.add_edge([v[0], v[1], v[2]], 2);
        let hg = b.build();
        let p = Partition::from_assignment(&hg, 3, vec![0, 1, 2]);
        assert_eq!(p.edge_span(&hg, EdgeId(0)), 3);
        assert_eq!(p.hyperedge_cut(&hg), 1);
        assert_eq!(p.connectivity_minus_one(&hg), 4);
    }

    #[test]
    fn move_vertex_maintains_weights() {
        let hg = chain();
        let mut p = Partition::from_assignment(&hg, 2, vec![0, 0, 1, 1]);
        p.move_vertex(&hg, VertexId(1), 1);
        assert_eq!(p.block_weight(0), 1);
        assert_eq!(p.block_weight(1), 3);
        assert_eq!(p.block_of(VertexId(1)), 1);
        assert_eq!(p.hyperedge_cut(&hg), 1); // cut moved to e0
                                             // Move back.
        p.move_vertex(&hg, VertexId(1), 0);
        assert_eq!(p.block_weights(), &[2, 2]);
    }

    #[test]
    fn pair_cut_matrix_is_symmetric() {
        let mut b = HypergraphBuilder::new();
        let v: Vec<_> = (0..4).map(|_| b.add_vertex(1)).collect();
        b.add_edge([v[0], v[1]], 1); // blocks 0-1
        b.add_edge([v[0], v[2]], 3); // blocks 0-2
        b.add_edge([v[1], v[2], v[3]], 1); // blocks 1-2-3
        let hg = b.build();
        let p = Partition::from_assignment(&hg, 4, vec![0, 1, 2, 3]);
        let m = p.pair_cut_matrix(&hg);
        assert_eq!(m[0][1], 1);
        assert_eq!(m[0][2], 3);
        assert_eq!(m[1][2], 1);
        assert_eq!(m[1][3], 1);
        assert_eq!(m[2][3], 1);
        for (a, row) in m.iter().enumerate() {
            assert_eq!(row[a], 0);
            for (b2, &cell) in row.iter().enumerate() {
                assert_eq!(cell, m[b2][a]);
            }
        }
    }

    #[test]
    fn imbalance_metric() {
        let hg = chain();
        let p = Partition::from_assignment(&hg, 2, vec![0, 0, 0, 1]);
        // weights 3 and 1, avg 2 → imbalance = 0.5
        assert!((p.imbalance() - 0.5).abs() < 1e-9);
        let q = Partition::from_assignment(&hg, 2, vec![0, 0, 1, 1]);
        assert!(q.imbalance().abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "assigned to block")]
    fn out_of_range_assignment_panics() {
        let hg = chain();
        let _ = Partition::from_assignment(&hg, 2, vec![0, 0, 2, 1]);
    }
}
