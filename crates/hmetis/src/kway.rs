//! K-way partitioning by recursive multilevel bisection.
//!
//! Each bisection targets an asymmetric `⌈m/2⌉ : ⌊m/2⌋` weight split so any
//! k works (the paper runs k = 2, 3, 4). Per-side bounds are derived from
//! the *global* per-block bounds of the paper's formula (1): if every final
//! block must weigh in `[lo, hi]`, then a side destined to hold `m` blocks
//! must weigh in `[m·lo, m·hi]` — recursing this way keeps the final k-way
//! partition inside the constraint envelope.

use crate::bisect::multilevel_bisect;
use crate::config::HmetisConfig;
use dvs_hypergraph::partition::{BalanceConstraint, BlockBounds, Partition};
use dvs_hypergraph::{Hypergraph, HypergraphBuilder, VertexId};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Partition `hg` into `k` blocks under the paper's balance constraint with
/// factor `cfg.ubfactor` (percent). Deterministic given `cfg.seed`.
pub fn partition_kway(hg: &Hypergraph, k: u32, cfg: &HmetisConfig) -> Partition {
    assert!(k >= 1);
    let total = hg.total_vweight();
    let global = BalanceConstraint::new(k, total, cfg.ubfactor);
    let mut assign = vec![0u32; hg.vertex_count()];
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let all: Vec<u32> = (0..hg.vertex_count() as u32).collect();
    recurse(hg, &all, k, 0, &global, &mut rng, &mut assign);
    Partition::from_assignment(hg, k, assign)
}

/// Recursively bisect the sub-hypergraph induced by `vertices` into `m`
/// blocks, writing block ids starting at `first_block`. Every final block
/// must satisfy `global`.
fn recurse(
    hg: &Hypergraph,
    vertices: &[u32],
    m: u32,
    first_block: u32,
    global: &BalanceConstraint,
    rng: &mut StdRng,
    assign: &mut [u32],
) {
    if m == 1 {
        for &v in vertices {
            assign[v as usize] = first_block;
        }
        return;
    }
    let sub = induced_subhypergraph(hg, vertices);
    let ml = m.div_ceil(2);
    let mr = m - ml;
    let sub_total = sub.total_vweight();

    // Side bounds from the global per-block envelope, clamped to what this
    // sub-problem can actually supply (side weights must sum to sub_total).
    let (glo, ghi) = (global.lower(), global.upper());
    let lo0 = (ml as u64 * glo).min(sub_total);
    let hi0 = (ml as u64 * ghi).min(sub_total);
    let lo1 = (mr as u64 * glo).min(sub_total);
    let hi1 = (mr as u64 * ghi).min(sub_total);
    let bounds = BlockBounds {
        lower: vec![
            lo0.max(sub_total.saturating_sub(hi1)),
            lo1.max(sub_total.saturating_sub(hi0)),
        ],
        upper: vec![hi0, hi1],
    };

    let part = multilevel_bisect(&sub, &bounds, rng);

    let mut left = Vec::new();
    let mut right = Vec::new();
    for (i, &ov) in vertices.iter().enumerate() {
        if part.block_of(VertexId(i as u32)) == 0 {
            left.push(ov);
        } else {
            right.push(ov);
        }
    }
    recurse(hg, &left, ml, first_block, global, rng, assign);
    recurse(hg, &right, mr, first_block + ml, global, rng, assign);
}

/// Extract the sub-hypergraph induced by `vertices`: edges keep only pins
/// inside the set; edges left with <2 pins vanish. Sub-vertex `i` is
/// `vertices[i]`.
fn induced_subhypergraph(hg: &Hypergraph, vertices: &[u32]) -> Hypergraph {
    let mut to_sub = vec![u32::MAX; hg.vertex_count()];
    let mut b = HypergraphBuilder::with_capacity(vertices.len(), 0);
    for (i, &v) in vertices.iter().enumerate() {
        to_sub[v as usize] = i as u32;
        b.add_vertex(hg.vweight(VertexId(v)));
    }
    // Visit each edge once by scanning all edges; pins outside drop out.
    let mut pins: Vec<VertexId> = Vec::with_capacity(16);
    for e in hg.edges() {
        pins.clear();
        for p in hg.pins(e) {
            let s = to_sub[p.idx()];
            if s != u32::MAX {
                pins.push(VertexId(s));
            }
        }
        if pins.len() >= 2 {
            b.add_edge(pins.iter().copied(), hg.eweight(e));
        }
    }
    b.build()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `parts` unit-weight cliques of size `sz`, loosely chained.
    fn clusters(parts: usize, sz: usize) -> Hypergraph {
        let mut b = HypergraphBuilder::new();
        let mut all = Vec::new();
        for _ in 0..parts {
            let v: Vec<_> = (0..sz).map(|_| b.add_vertex(1)).collect();
            for i in 0..sz {
                for j in i + 1..sz {
                    b.add_edge([v[i], v[j]], 1);
                }
            }
            all.push(v);
        }
        for w in all.windows(2) {
            b.add_edge([w[0][sz - 1], w[1][0]], 1);
        }
        b.build()
    }

    #[test]
    fn kway_respects_paper_balance_for_all_k() {
        let hg = clusters(12, 6); // 72 vertices
        for k in [2u32, 3, 4] {
            let cfg = HmetisConfig::with_balance(7.5, 77);
            let part = partition_kway(&hg, k, &cfg);
            let c = BalanceConstraint::new(k, hg.total_vweight(), 7.5);
            assert!(
                c.satisfied(part.block_weights()),
                "k={k}: weights {:?} outside [{}, {}]",
                part.block_weights(),
                c.lower(),
                c.upper()
            );
        }
    }

    #[test]
    fn kway_finds_cluster_structure() {
        let hg = clusters(4, 8);
        let cfg = HmetisConfig::with_balance(10.0, 5);
        let part = partition_kway(&hg, 4, &cfg);
        // 4 clusters, 4 blocks: ideal cut is the 3 chain edges.
        assert!(
            part.hyperedge_cut(&hg) <= 6,
            "cut {} too large",
            part.hyperedge_cut(&hg)
        );
        // Each clique should land entirely in one block.
        let mut pure = 0;
        for c in 0..4 {
            let blocks: std::collections::HashSet<u32> = (0..8)
                .map(|i| part.block_of(VertexId((c * 8 + i) as u32)))
                .collect();
            if blocks.len() == 1 {
                pure += 1;
            }
        }
        assert!(pure >= 3, "only {pure} cliques kept whole");
    }

    #[test]
    fn k1_is_trivial() {
        let hg = clusters(2, 4);
        let cfg = HmetisConfig::default();
        let part = partition_kway(&hg, 1, &cfg);
        assert_eq!(part.hyperedge_cut(&hg), 0);
        assert!(part.assignment().iter().all(|&b| b == 0));
    }

    #[test]
    fn k3_nonpower_of_two() {
        let hg = clusters(9, 5);
        let cfg = HmetisConfig::with_balance(10.0, 21);
        let part = partition_kway(&hg, 3, &cfg);
        let c = BalanceConstraint::new(3, hg.total_vweight(), 10.0);
        assert!(c.satisfied(part.block_weights()));
        assert_eq!(part.k(), 3);
        // All three blocks used.
        let used: std::collections::HashSet<u32> = part.assignment().iter().copied().collect();
        assert_eq!(used.len(), 3);
    }

    #[test]
    fn induced_subhypergraph_drops_outside_pins() {
        let mut b = HypergraphBuilder::new();
        let v: Vec<_> = (0..4).map(|i| b.add_vertex(i as u64 + 1)).collect();
        b.add_edge([v[0], v[1], v[2]], 1);
        b.add_edge([v[2], v[3]], 1);
        let hg = b.build();
        let sub = induced_subhypergraph(&hg, &[0, 1]);
        assert_eq!(sub.vertex_count(), 2);
        assert_eq!(sub.edge_count(), 1); // {0,1} survives with 2 pins
        assert_eq!(sub.vweight(VertexId(0)), 1);
    }

    #[test]
    fn deterministic_given_seed() {
        let hg = clusters(6, 5);
        let cfg = HmetisConfig::with_balance(10.0, 1234);
        let p1 = partition_kway(&hg, 3, &cfg);
        let p2 = partition_kway(&hg, 3, &cfg);
        assert_eq!(p1.assignment(), p2.assignment());
    }
}
