//! Coarsening phase: build a sequence of successively smaller hypergraphs.
//!
//! Both schemes score vertex affinity by summed hyperedge weight scaled by
//! `1/(|e|−1)` (the clique-expansion heuristic hMetis uses), visit vertices
//! in random order, and cap cluster weights so no coarse vertex grows beyond
//! a fraction of a balanced block — otherwise the coarsest graph could be
//! impossible to partition within bounds.

use crate::config::{CoarsenScheme, HmetisConfig};
use dvs_hypergraph::contract::{contract, Contraction};
use dvs_hypergraph::{Hypergraph, VertexId};
use rand::seq::SliceRandom;
use rand::Rng;

/// A level that shrinks the graph to more than this fraction of its
/// vertices ends coarsening (guards against coarsening stalls).
const MIN_SHRINK: f64 = 0.95;

/// One coarsening level. Returns `None` when the scheme cannot shrink the
/// graph to at most `MIN_SHRINK` of its vertices (coarsening has converged).
pub fn coarsen_level(
    hg: &Hypergraph,
    cfg: &HmetisConfig,
    max_cluster_w: u64,
    rng: &mut impl Rng,
) -> Option<Contraction> {
    let nv = hg.vertex_count();
    if nv <= cfg.coarsen_to {
        return None;
    }
    let cluster_of = match cfg.scheme {
        CoarsenScheme::EdgeCoarsening => edge_matching(hg, max_cluster_w, rng, false),
        CoarsenScheme::FirstChoice => edge_matching(hg, max_cluster_w, rng, true),
    };
    let num_clusters = renumber(&cluster_of);
    if (num_clusters.1 as f64) > nv as f64 * MIN_SHRINK {
        return None;
    }
    Some(contract(hg, &num_clusters.0, num_clusters.1))
}

/// Run the full coarsening loop, returning the ladder of contractions
/// (finest first) and the coarsest graph.
pub fn coarsen_ladder(
    hg: &Hypergraph,
    cfg: &HmetisConfig,
    rng: &mut impl Rng,
) -> (Vec<Contraction>, Hypergraph) {
    // Cap clusters to a fraction of a balanced bisection side.
    let max_cluster_w = ((hg.total_vweight() as f64 * cfg.max_cluster_frac).ceil() as u64).max(1);
    let mut ladder = Vec::new();
    let mut cur = hg.clone();
    while let Some(c) = coarsen_level(&cur, cfg, max_cluster_w, rng) {
        cur = c.coarse.clone();
        ladder.push(c);
    }
    (ladder, cur)
}

/// Matching/clustering pass shared by both schemes. With
/// `allow_joining = false` this is heavy-edge matching (clusters of ≤ 2);
/// with `true` it is FirstChoice (a vertex may join an existing cluster).
fn edge_matching(
    hg: &Hypergraph,
    max_cluster_w: u64,
    rng: &mut impl Rng,
    allow_joining: bool,
) -> Vec<u32> {
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

        touched.clear();
        for e in hg.edges_of(VertexId(v)) {
            let deg = hg.pin_degree(e);
            if deg < 2 {
                continue;
            }
            let w = hg.eweight(e) as f64 / (deg as f64 - 1.0);
            for p in hg.pins(e) {
                if p.0 == v {
                    continue;
                }
                if score[p.idx()] == 0.0 {
                    touched.push(p.0);
                }
                score[p.idx()] += w;
            }
        }

        // Pick the admissible neighbor (or its cluster) with the highest
        // affinity.
        let mut best: Option<(u32, f64)> = None;
        for &u in &touched {
            let s = score[u as usize];
            let rep = cluster_of[u as usize];
            let candidate = if rep == UNMATCHED {
                // Unmatched neighbor: pair with it.
                Some((u, hg.vweight(VertexId(u))))
            } else if allow_joining {
                Some((rep, cluster_w[rep as usize]))
            } else {
                None
            };
            if let Some((target, tw)) = candidate {
                if tw + vw <= max_cluster_w && best.is_none_or(|(_, bs)| s > bs) {
                    best = Some((target, s));
                }
            }
        }

        match best {
            Some((target, _)) => {
                let rep = if cluster_of[target as usize] == UNMATCHED {
                    // Form a fresh cluster with `target` as representative.
                    cluster_of[target as usize] = target;
                    cluster_w[target as usize] = hg.vweight(VertexId(target));
                    target
                } else {
                    cluster_of[target as usize]
                };
                cluster_of[v as usize] = rep;
                cluster_w[rep as usize] += vw;
            }
            None => {
                cluster_of[v as usize] = v;
                cluster_w[v as usize] = vw;
            }
        }

        for &u in &touched {
            score[u as usize] = 0.0;
        }
    }

    cluster_of
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

/// Coarsening restricted to a partition: vertices may only cluster with
/// vertices of the same block. Used by V-cycles so a projected partition
/// stays well defined on the coarse graph.
pub fn coarsen_within_blocks(
    hg: &Hypergraph,
    assign: &[u32],
    cfg: &HmetisConfig,
    max_cluster_w: u64,
    rng: &mut impl Rng,
) -> Option<Contraction> {
    const UNMATCHED: u32 = u32::MAX;
    let nv = hg.vertex_count();
    if nv <= cfg.coarsen_to {
        return None;
    }
    let mut cluster_of = vec![UNMATCHED; nv];
    let mut cluster_w = vec![0u64; nv];
    let mut order: Vec<u32> = (0..nv as u32).collect();
    order.shuffle(rng);
    let mut score = vec![0.0f64; nv];
    let mut touched: Vec<u32> = Vec::with_capacity(64);

    for &v in &order {
        if cluster_of[v as usize] != UNMATCHED {
            continue;
        }
        let vw = hg.vweight(VertexId(v));
        touched.clear();
        for e in hg.edges_of(VertexId(v)) {
            let deg = hg.pin_degree(e);
            if deg < 2 {
                continue;
            }
            let w = hg.eweight(e) as f64 / (deg as f64 - 1.0);
            for p in hg.pins(e) {
                if p.0 == v || assign[p.idx()] != assign[v as usize] {
                    continue;
                }
                if score[p.idx()] == 0.0 {
                    touched.push(p.0);
                }
                score[p.idx()] += w;
            }
        }
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
        match best {
            Some((target, _)) => {
                let rep = if cluster_of[target as usize] == UNMATCHED {
                    cluster_of[target as usize] = target;
                    cluster_w[target as usize] = hg.vweight(VertexId(target));
                    target
                } else {
                    cluster_of[target as usize]
                };
                cluster_of[v as usize] = rep;
                cluster_w[rep as usize] += vw;
            }
            None => {
                cluster_of[v as usize] = v;
                cluster_w[v as usize] = vw;
            }
        }
        for &u in &touched {
            score[u as usize] = 0.0;
        }
    }

    let (dense, n) = renumber(&cluster_of);
    if n == nv {
        return None;
    }
    Some(contract(hg, &dense, n))
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
        let cfg = HmetisConfig {
            coarsen_to: 20,
            ..Default::default()
        };
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        let (ladder, coarsest) = coarsen_ladder(&hg, &cfg, &mut rng);
        assert!(!ladder.is_empty());
        let mut prev = hg.vertex_count();
        for c in &ladder {
            assert!(c.coarse.vertex_count() < prev);
            prev = c.coarse.vertex_count();
        }
        assert!(coarsest.vertex_count() <= 256);
        assert!(coarsest.vertex_count() >= 2, "must not collapse to a point");
        assert_eq!(coarsest.total_vweight(), hg.total_vweight());
    }

    #[test]
    fn cluster_weight_cap_is_respected() {
        let hg = grid(10);
        let cfg = HmetisConfig {
            coarsen_to: 2,
            max_cluster_frac: 0.1, // cap = 10 vertices
            ..Default::default()
        };
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        let (ladder, coarsest) = coarsen_ladder(&hg, &cfg, &mut rng);
        let _ = ladder;
        for v in coarsest.vertices() {
            assert!(coarsest.vweight(v) <= 10);
        }
    }

    #[test]
    fn edge_coarsening_pairs_only() {
        let hg = grid(8);
        let cfg = HmetisConfig {
            scheme: CoarsenScheme::EdgeCoarsening,
            coarsen_to: 2,
            ..Default::default()
        };
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        let max_w = hg.total_vweight();
        let c = coarsen_level(&hg, &cfg, max_w, &mut rng).unwrap();
        // Pure matching at most halves: every cluster has ≤ 2 fine vertices.
        let mut counts = vec![0u32; c.coarse.vertex_count()];
        for &cl in &c.vertex_map {
            counts[cl as usize] += 1;
        }
        assert!(counts.iter().all(|&c| c <= 2));
        assert!(c.coarse.vertex_count() >= hg.vertex_count() / 2);
    }

    #[test]
    fn first_choice_can_exceed_pairs() {
        // A star: center + leaves; FirstChoice should form one cluster
        // around the center (up to the cap), EC only a pair.
        let mut b = HypergraphBuilder::new();
        let center = b.add_vertex(1);
        let leaves: Vec<_> = (0..6).map(|_| b.add_vertex(1)).collect();
        for &l in &leaves {
            b.add_edge([center, l], 1);
        }
        let hg = b.build();
        let cfg = HmetisConfig {
            scheme: CoarsenScheme::FirstChoice,
            coarsen_to: 1,
            ..Default::default()
        };
        let mut rng = rand::rngs::StdRng::seed_from_u64(11);
        let c = coarsen_level(&hg, &cfg, 100, &mut rng).unwrap();
        assert!(c.coarse.vertex_count() < 4);
    }

    #[test]
    fn restricted_coarsening_respects_blocks() {
        let hg = grid(8);
        let assign: Vec<u32> = (0..64).map(|i| if i < 32 { 0 } else { 1 }).collect();
        let cfg = HmetisConfig {
            coarsen_to: 4,
            ..Default::default()
        };
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        let c = coarsen_within_blocks(&hg, &assign, &cfg, 100, &mut rng).unwrap();
        // Every coarse vertex contains fine vertices of a single block.
        let mut block_of_cluster = vec![u32::MAX; c.coarse.vertex_count()];
        for (v, &cl) in c.vertex_map.iter().enumerate() {
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
