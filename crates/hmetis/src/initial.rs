//! Initial bisection of the coarsest hypergraph.
//!
//! hMetis generates many candidate bisections on the coarsest graph and
//! keeps the best; we implement the two classic generators — random greedy
//! fill and BFS region growing over hyperedges — refine each candidate with
//! a short FM run, and select by (balance violation, cut).

use dvs_hypergraph::fm::{pairwise_fm, FmConfig};
use dvs_hypergraph::partition::{BlockBounds, Partition};
use dvs_hypergraph::{Hypergraph, VertexId};
use rand::seq::SliceRandom;
use rand::Rng;

/// Candidate bisections tried on the coarsest graph (hMetis's `nruns`).
const NRUNS: usize = 10;

/// Generate the best initial bisection of `hg` under `bounds` (2 blocks),
/// trying `NRUNS` candidates, alternating generators.
pub fn initial_bisection(hg: &Hypergraph, bounds: &BlockBounds, rng: &mut impl Rng) -> Partition {
    assert_eq!(bounds.k(), 2);
    let mut best: Option<(u64, u64, Partition)> = None;
    let fm_cfg = FmConfig {
        max_passes: 2,
        bounds: bounds.clone(),
    };
    for run in 0..NRUNS {
        let assign = if run % 2 == 0 {
            random_fill(hg, bounds, rng)
        } else {
            bfs_grow(hg, bounds, rng)
        };
        let mut part = Partition::from_assignment(hg, 2, assign);
        pairwise_fm(hg, &mut part, 0, 1, &fm_cfg);
        let viol = bounds.violation(part.block_weights());
        let cut = part.weighted_cut(hg);
        if best
            .as_ref()
            .is_none_or(|(bv, bc, _)| (viol, cut) < (*bv, *bc))
        {
            best = Some((viol, cut, part));
        }
    }
    best.expect("NRUNS >= 1 guarantees a candidate").2
}

/// Shuffle vertices and fill block 0 until its target weight is reached.
fn random_fill(hg: &Hypergraph, bounds: &BlockBounds, rng: &mut impl Rng) -> Vec<u32> {
    let target0 = (bounds.lower[0] + bounds.upper[0]) / 2;
    let mut order: Vec<u32> = (0..hg.vertex_count() as u32).collect();
    order.shuffle(rng);
    let mut assign = vec![1u32; hg.vertex_count()];
    let mut w0 = 0u64;
    for v in order {
        if w0 >= target0 {
            break;
        }
        assign[v as usize] = 0;
        w0 += hg.vweight(VertexId(v));
    }
    assign
}

/// Grow block 0 as a BFS region from a random seed vertex, spreading through
/// hyperedges, until the target weight is reached. Produces spatially
/// coherent blocks with far smaller initial cuts than random fill.
fn bfs_grow(hg: &Hypergraph, bounds: &BlockBounds, rng: &mut impl Rng) -> Vec<u32> {
    let nv = hg.vertex_count();
    let target0 = (bounds.lower[0] + bounds.upper[0]) / 2;
    let mut assign = vec![1u32; nv];
    if nv == 0 {
        return assign;
    }
    let mut visited = vec![false; nv];
    let mut queue = std::collections::VecDeque::new();
    let mut w0 = 0u64;

    let mut remaining: Vec<u32> = (0..nv as u32).collect();
    remaining.shuffle(rng);
    let mut seed_iter = remaining.into_iter();

    while w0 < target0 {
        // (Re)seed when the frontier empties (disconnected graphs).
        if queue.is_empty() {
            let Some(seed) = seed_iter.find(|&s| !visited[s as usize]) else {
                break;
            };
            visited[seed as usize] = true;
            queue.push_back(seed);
        }
        let Some(v) = queue.pop_front() else { break };
        assign[v as usize] = 0;
        w0 += hg.vweight(VertexId(v));
        for e in hg.edges_of(VertexId(v)) {
            for p in hg.pins(e) {
                if !visited[p.idx()] {
                    visited[p.idx()] = true;
                    queue.push_back(p.0);
                }
            }
        }
    }
    assign
}

#[cfg(test)]
mod tests {
    use super::*;
    use dvs_hypergraph::partition::BalanceConstraint;
    use dvs_hypergraph::HypergraphBuilder;
    use rand::SeedableRng;

    fn ring(n: usize) -> Hypergraph {
        let mut b = HypergraphBuilder::new();
        let v: Vec<_> = (0..n).map(|_| b.add_vertex(1)).collect();
        for i in 0..n {
            b.add_edge([v[i], v[(i + 1) % n]], 1);
        }
        b.build()
    }

    #[test]
    fn initial_bisection_is_feasible_and_cut_small() {
        let hg = ring(32);
        let bounds = BlockBounds::uniform(&BalanceConstraint::new(2, hg.total_vweight(), 10.0));
        let mut rng = rand::rngs::StdRng::seed_from_u64(2);
        let part = initial_bisection(&hg, &bounds, &mut rng);
        assert!(bounds.satisfied(part.block_weights()));
        // A ring's optimal bisection cut is 2; FM from BFS growth should be
        // at or near it.
        assert!(
            part.hyperedge_cut(&hg) <= 4,
            "cut {}",
            part.hyperedge_cut(&hg)
        );
    }

    #[test]
    fn asymmetric_targets_respected() {
        let hg = ring(30);
        // 2:1 split with 10% tolerance.
        let bounds = BlockBounds::bisection(hg.total_vweight(), 2.0 / 3.0, 0.05);
        let mut rng = rand::rngs::StdRng::seed_from_u64(4);
        let part = initial_bisection(&hg, &bounds, &mut rng);
        assert!(
            bounds.satisfied(part.block_weights()),
            "weights {:?} bounds {:?}",
            part.block_weights(),
            bounds
        );
        assert!(part.block_weight(0) > part.block_weight(1));
    }

    #[test]
    fn bfs_grow_handles_disconnected_graphs() {
        // Two disjoint rings.
        let mut b = HypergraphBuilder::new();
        let v: Vec<_> = (0..20).map(|_| b.add_vertex(1)).collect();
        for i in 0..10 {
            b.add_edge([v[i], v[(i + 1) % 10]], 1);
            b.add_edge([v[10 + i], v[10 + (i + 1) % 10]], 1);
        }
        let hg = b.build();
        let bounds = BlockBounds::uniform(&BalanceConstraint::new(2, hg.total_vweight(), 5.0));
        let mut rng = rand::rngs::StdRng::seed_from_u64(9);
        let assign = bfs_grow(&hg, &bounds, &mut rng);
        let part = Partition::from_assignment(&hg, 2, assign);
        // Ideal: one ring per block, cut 0.
        assert!(part.hyperedge_cut(&hg) <= 4);
    }
}
