//! Multilevel bisection: coarsen → initial partition → uncoarsen + refine,
//! then V-cycles.

use crate::coarsen::{coarsen_ladder, coarsen_within_blocks};
use crate::initial::initial_bisection;
use dvs_hypergraph::contract::Contraction;
use dvs_hypergraph::fm::{pairwise_fm, FmConfig};
use dvs_hypergraph::partition::{BlockBounds, Partition};
use dvs_hypergraph::Hypergraph;
use rand::Rng;

/// FM passes per uncoarsening level.
const FM_PASSES: usize = 6;
/// V-cycle iterations after the first full multilevel run.
const VCYCLES: usize = 1;

/// Bisect `hg` under the given two-block `bounds`. Deterministic given
/// `rng`'s state.
pub(crate) fn multilevel_bisect(
    hg: &Hypergraph,
    bounds: &BlockBounds,
    rng: &mut impl Rng,
) -> Partition {
    assert_eq!(bounds.k(), 2);
    if hg.vertex_count() == 0 {
        return Partition::from_assignment(hg, 2, Vec::new());
    }

    let fm_cfg = FmConfig {
        max_passes: FM_PASSES,
        bounds: bounds.clone(),
    };

    // Phase 1: coarsen.
    let ladder = coarsen_ladder(hg, rng);

    // Phase 2: initial partition of the coarsest graph.
    let coarsest = ladder.last().map_or(hg, |c| &c.coarse);
    let coarse_part = initial_bisection(coarsest, bounds, rng);

    // Phase 3: uncoarsen with FM refinement at every level.
    let assign = refine_down(hg, &ladder, coarse_part.assignment().to_vec(), &fm_cfg);
    let mut part = Partition::from_assignment(hg, 2, assign);

    // V-cycles: re-coarsen the *partitioned* graph within blocks,
    // giving refinement a fresh multilevel view of the current solution.
    for _ in 0..VCYCLES {
        let (ladder, coarse_assign) = coarsen_within_blocks(hg, part.assignment().to_vec(), rng);
        let assign = refine_down(hg, &ladder, coarse_assign, &fm_cfg);
        let candidate = Partition::from_assignment(hg, 2, assign);
        let better = (
            bounds.violation(candidate.block_weights()),
            candidate.weighted_cut(hg),
        ) < (
            bounds.violation(part.block_weights()),
            part.weighted_cut(hg),
        );
        if better {
            part = candidate;
        }
    }

    part
}

/// Refine an assignment from the coarsest level of `ladder` down to `hg`,
/// running FM at every level. `assign` must live on `ladder.last().coarse`
/// (or on `hg` if the ladder is empty).
fn refine_down(
    hg: &Hypergraph,
    ladder: &[Contraction],
    mut assign: Vec<u32>,
    fm_cfg: &FmConfig,
) -> Vec<u32> {
    // Level 0 is `hg`; level i > 0 is `ladder[i - 1].coarse`.
    for i in (0..=ladder.len()).rev() {
        if let Some(c) = ladder.get(i) {
            assign = c.uncontract_assignment(&assign);
        }
        let level = if i == 0 { hg } else { &ladder[i - 1].coarse };
        let mut p = Partition::from_assignment(level, 2, assign);
        pairwise_fm(level, &mut p, 0, 1, fm_cfg);
        assign = p.assignment().to_vec();
    }
    assign
}

#[cfg(test)]
mod tests {
    use super::*;
    use dvs_hypergraph::partition::BalanceConstraint;
    use dvs_hypergraph::HypergraphBuilder;
    use rand::SeedableRng;

    /// Two 5x5 grids joined by 2 bridge edges: the optimal bisection cuts 2.
    fn dumbbell() -> Hypergraph {
        let mut b = HypergraphBuilder::new();
        let n = 5;
        let mut grids = Vec::new();
        for _ in 0..2 {
            let v: Vec<Vec<_>> = (0..n)
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
            grids.push(v);
        }
        b.add_edge([grids[0][2][4], grids[1][2][0]], 1);
        b.add_edge([grids[0][3][4], grids[1][3][0]], 1);
        b.build()
    }

    #[test]
    fn bisection_finds_the_bottleneck() {
        let hg = dumbbell();
        let bounds = BlockBounds::uniform(&BalanceConstraint::new(2, hg.total_vweight(), 10.0));
        let mut rng = rand::rngs::StdRng::seed_from_u64(6);
        let part = multilevel_bisect(&hg, &bounds, &mut rng);
        assert!(bounds.satisfied(part.block_weights()));
        assert!(
            part.hyperedge_cut(&hg) <= 4,
            "expected near-optimal cut, got {}",
            part.hyperedge_cut(&hg)
        );
    }

    #[test]
    fn bisection_is_deterministic_given_seed() {
        let hg = dumbbell();
        let bounds = BlockBounds::uniform(&BalanceConstraint::new(2, hg.total_vweight(), 10.0));
        let p1 = multilevel_bisect(&hg, &bounds, &mut rand::rngs::StdRng::seed_from_u64(99));
        let p2 = multilevel_bisect(&hg, &bounds, &mut rand::rngs::StdRng::seed_from_u64(99));
        assert_eq!(p1.assignment(), p2.assignment());
    }

    #[test]
    fn tiny_graph_bisection() {
        let mut b = HypergraphBuilder::new();
        let x = b.add_vertex(1);
        let y = b.add_vertex(1);
        b.add_edge([x, y], 1);
        let hg = b.build();
        let bounds = BlockBounds::uniform(&BalanceConstraint::new(2, 2, 10.0));
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        let part = multilevel_bisect(&hg, &bounds, &mut rng);
        assert_ne!(
            part.block_of(dvs_hypergraph::VertexId(0)),
            part.block_of(dvs_hypergraph::VertexId(1))
        );
    }
}
