//! Coarsening phase: build a sequence of successively smaller hypergraphs by
//! FirstChoice clustering.
//!
//! The clustering pass scores vertex affinity by summed hyperedge weight
//! scaled by `1/(|e|−1)` (the clique-expansion heuristic hMetis uses), visits
//! vertices in random order, lets a vertex join an already-formed cluster,
//! and caps cluster weights so no coarse vertex grows beyond a fraction of a
//! balanced block — otherwise the coarsest graph could be impossible to
//! partition within bounds.

use dvs_hypergraph::contract::{contract, Contraction};
use dvs_hypergraph::{Hypergraph, VertexId};
use rand::seq::SliceRandom;
use rand::Rng;

/// Stop coarsening when at most this many vertices remain.
const COARSEN_TO: usize = 100;
/// Cluster weight cap, as a fraction of the total vertex weight.
const MAX_CLUSTER_FRAC: f64 = 0.25;
/// A level whose clustering keeps more than this fraction of its vertices
/// ends either ladder (guards against coarsening stalls).
const MIN_SHRINK: f64 = 0.95;

/// The heaviest cluster coarsening `hg` may form.
fn max_cluster_weight(hg: &Hypergraph) -> u64 {
    ((hg.total_vweight() as f64 * MAX_CLUSTER_FRAC).ceil() as u64).max(1)
}

/// Cluster level after level with `cluster`, each from the previous level's
/// coarse graph, and contract it, until a level has at most `COARSEN_TO`
/// vertices or its clustering keeps more than `MIN_SHRINK` of them. Returns
/// the contractions, finest first.
fn build_ladder(
    hg: &Hypergraph,
    mut cluster: impl FnMut(&Hypergraph) -> (Vec<u32>, usize),
) -> Vec<Contraction> {
    let mut ladder: Vec<Contraction> = Vec::new();
    loop {
        let cur = ladder.last().map_or(hg, |c| &c.coarse);
        let nv = cur.vertex_count();
        if nv <= COARSEN_TO {
            return ladder;
        }
        let (cluster_of, n) = cluster(cur);
        if n as f64 > nv as f64 * MIN_SHRINK {
            return ladder;
        }
        let level = contract(cur, &cluster_of, n);
        ladder.push(level);
    }
}

/// The ladder of a fresh bisection.
pub(crate) fn coarsen_ladder(hg: &Hypergraph, rng: &mut impl Rng) -> Vec<Contraction> {
    let max_cluster_w = max_cluster_weight(hg);
    build_ladder(hg, |cur| first_choice(cur, None, max_cluster_w, rng))
}

/// The ladder of a V-cycle: clusters stay inside the blocks of `assign`, so
/// the partition projects onto every coarse level exactly. Returns the
/// contractions and the partition on the coarsest level.
pub(crate) fn coarsen_within_blocks(
    hg: &Hypergraph,
    assign: Vec<u32>,
    rng: &mut impl Rng,
) -> (Vec<Contraction>, Vec<u32>) {
    let max_cluster_w = max_cluster_weight(hg);
    // The partition of every level clustered so far: `levels[i]` is level
    // i's (the last may belong to a clustering the ladder declined).
    let mut levels = vec![assign];
    let ladder = build_ladder(hg, |cur| {
        let assign = levels.last().expect("the finest level's partition");
        let (cluster_of, n) = first_choice(cur, Some(assign), max_cluster_w, rng);
        let mut coarse_assign = vec![0u32; n];
        for (v, &cl) in cluster_of.iter().enumerate() {
            coarse_assign[cl as usize] = assign[v];
        }
        levels.push(coarse_assign);
        (cluster_of, n)
    });
    let coarsest = levels.swap_remove(ladder.len());
    (ladder, coarsest)
}

/// One FirstChoice clustering pass: each unclustered vertex, in random
/// order, joins the admissible neighbour (or that neighbour's cluster) of
/// highest affinity, or starts a cluster of its own. With `blocks`, a pin
/// counts only if it shares the vertex's block. Returns every vertex's
/// cluster, numbered densely from 0, and the number of clusters.
fn first_choice(
    hg: &Hypergraph,
    blocks: Option<&[u32]>,
    max_cluster_w: u64,
    rng: &mut impl Rng,
) -> (Vec<u32>, usize) {
    const UNMATCHED: u32 = u32::MAX;
    let nv = hg.vertex_count();
    // cluster_of[v] = representative vertex id of v's cluster.
    let mut cluster_of = vec![UNMATCHED; nv];
    let mut cluster_w = vec![0u64; nv];

    let mut order: Vec<u32> = (0..nv as u32).collect();
    order.shuffle(rng);

    // Scratch affinity accumulator with a touched-list for O(deg) reset.
    let mut score = vec![0.0f64; nv];
    let mut touched: Vec<u32> = Vec::with_capacity(64);

    for &v in &order {
        if cluster_of[v as usize] != UNMATCHED {
            continue;
        }
        let vw = hg.vweight(VertexId(v));
        let counts = |u: u32| u != v && blocks.is_none_or(|b| b[u as usize] == b[v as usize]);

        touched.clear();
        for e in hg.edges_of(VertexId(v)) {
            let deg = hg.pin_degree(e);
            if deg < 2 {
                continue;
            }
            let w = hg.eweight(e) as f64 / (deg as f64 - 1.0);
            for p in hg.pins(e) {
                if !counts(p.0) {
                    continue;
                }
                if score[p.idx()] == 0.0 {
                    touched.push(p.0);
                }
                score[p.idx()] += w;
            }
        }

        // Pick the neighbour (or its cluster) with the highest affinity
        // that the weight cap admits.
        let mut best: Option<(u32, f64)> = None;
        for &u in &touched {
            let s = score[u as usize];
            let rep = cluster_of[u as usize];
            let (target, tw) = if rep == UNMATCHED {
                (u, hg.vweight(VertexId(u)))
            } else {
                (rep, cluster_w[rep as usize])
            };
            if tw + vw <= max_cluster_w && best.is_none_or(|(_, bs)| s > bs) {
                best = Some((target, s));
            }
        }

        let rep = match best {
            Some((target, _)) => {
                if cluster_of[target as usize] == UNMATCHED {
                    // Form a fresh cluster with `target` as representative.
                    cluster_of[target as usize] = target;
                    cluster_w[target as usize] = hg.vweight(VertexId(target));
                }
                cluster_of[target as usize]
            }
            None => v,
        };
        cluster_of[v as usize] = rep;
        cluster_w[rep as usize] += vw;

        for &u in &touched {
            score[u as usize] = 0.0;
        }
    }

    renumber(&cluster_of)
}

/// Renumber arbitrary representative ids to a dense `0..n` range.
fn renumber(cluster_of: &[u32]) -> (Vec<u32>, usize) {
    let width = cluster_of
        .iter()
        .map(|&c| c as usize + 1)
        .max()
        .unwrap_or(0);
    let mut remap = vec![u32::MAX; width];
    let mut next = 0u32;
    let mut out = Vec::with_capacity(cluster_of.len());
    for &c in cluster_of {
        let slot = &mut remap[c as usize];
        if *slot == u32::MAX {
            *slot = next;
            next += 1;
        }
        out.push(*slot);
    }
    (out, next as usize)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dvs_hypergraph::HypergraphBuilder;
    use rand::SeedableRng;

    fn grid(n: usize) -> Hypergraph {
        // n x n grid graph as 2-pin hyperedges.
        let mut b = HypergraphBuilder::new();
        let v: Vec<Vec<VertexId>> = (0..n)
            .map(|_| (0..n).map(|_| b.add_vertex(1)).collect())
            .collect();
        for i in 0..n {
            for j in 0..n {
                if i + 1 < n {
                    b.add_edge([v[i][j], v[i + 1][j]], 1);
                }
                if j + 1 < n {
                    b.add_edge([v[i][j], v[i][j + 1]], 1);
                }
            }
        }
        b.build()
    }

    #[test]
    fn coarsening_shrinks_monotonically() {
        let hg = grid(16); // 256 vertices
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        let ladder = coarsen_ladder(&hg, &mut rng);
        assert!(!ladder.is_empty());
        let mut prev = hg.vertex_count();
        for c in &ladder {
            assert!(c.coarse.vertex_count() < prev);
            prev = c.coarse.vertex_count();
        }
        let coarsest = &ladder.last().unwrap().coarse;
        assert!(coarsest.vertex_count() >= 2, "must not collapse to a point");
        assert_eq!(coarsest.total_vweight(), hg.total_vweight());
    }

    #[test]
    fn cluster_weight_cap_is_respected() {
        // Cluster until nothing merges under a cap of 10 vertices.
        let mut hg = grid(10);
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        loop {
            let (cluster_of, n) = first_choice(&hg, None, 10, &mut rng);
            if n == hg.vertex_count() {
                break;
            }
            hg = contract(&hg, &cluster_of, n).coarse;
        }
        for v in hg.vertices() {
            assert!(hg.vweight(v) <= 10);
        }
    }

    #[test]
    fn first_choice_can_exceed_pairs() {
        // A star: center + leaves; FirstChoice should form one cluster
        // around the center (up to the cap), not only a pair.
        let mut b = HypergraphBuilder::new();
        let center = b.add_vertex(1);
        let leaves: Vec<_> = (0..6).map(|_| b.add_vertex(1)).collect();
        for &l in &leaves {
            b.add_edge([center, l], 1);
        }
        let hg = b.build();
        let mut rng = rand::rngs::StdRng::seed_from_u64(11);
        let (_, n) = first_choice(&hg, None, 100, &mut rng);
        assert!(n < 4);
    }

    #[test]
    fn restricted_coarsening_respects_blocks() {
        let hg = grid(8);
        let assign: Vec<u32> = (0..64).map(|i| if i < 32 { 0 } else { 1 }).collect();
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        let (cluster_of, n) = first_choice(&hg, Some(&assign), 100, &mut rng);
        assert!(n < hg.vertex_count());
        // Every cluster contains vertices of a single block.
        let mut block_of_cluster = vec![u32::MAX; n];
        for (v, &cl) in cluster_of.iter().enumerate() {
            let b = assign[v];
            if block_of_cluster[cl as usize] == u32::MAX {
                block_of_cluster[cl as usize] = b;
            } else {
                assert_eq!(block_of_cluster[cl as usize], b);
            }
        }
    }

    #[test]
    fn renumber_is_dense() {
        let (dense, n) = renumber(&[5, 5, 2, 7, 2]);
        assert_eq!(n, 3);
        assert_eq!(dense, vec![0, 0, 1, 2, 1]);
    }
}
