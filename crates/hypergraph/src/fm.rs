//! Pairwise Fiduccia–Mattheyses refinement.
//!
//! [`pairwise_fm`] improves the hyperedge cut between **two blocks of a
//! k-way partition** by iteratively moving free vertices between them — the
//! paper's "iterative moving" step, executed after each pairing decision.
//! Edges with pins in any *other* block are permanently cut no matter what
//! this pair does, so they contribute zero gain and are skipped; edges fully
//! inside the pair follow the classic FM gain rules.
//!
//! Moves respect per-block weight bounds ([`BlockBounds`], typically built
//! from the paper's [`BalanceConstraint`]): a pass may explore temporarily
//! imbalanced states within a one-move excursion budget, but the prefix that
//! is kept never ends up worse-balanced than the start — and when the start
//! is infeasible, restoring feasibility takes priority over the cut. Passes
//! repeat until neither the cut nor the balance violation improves.

use crate::gain::GainTable;
use crate::hgraph::{Hypergraph, VertexId};
use crate::partition::{BalanceConstraint, BlockBounds, Partition};

/// Tuning knobs for [`pairwise_fm`].
#[derive(Debug, Clone)]
pub struct FmConfig {
    /// Maximum refinement passes per invocation.
    pub max_passes: usize,
    /// Per-block weight bounds moves must respect.
    pub bounds: BlockBounds,
}

impl FmConfig {
    /// Uniform bounds from the paper's balance constraint.
    pub fn new(balance: BalanceConstraint) -> Self {
        FmConfig {
            max_passes: 8,
            bounds: BlockBounds::uniform(&balance),
        }
    }
}

/// Outcome of a [`pairwise_fm`] call.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct FmResult {
    /// Total cut improvement (positive = cut reduced).
    pub gain: i64,
    /// Number of passes executed.
    pub passes: usize,
    /// Number of vertex moves kept (over all passes).
    pub moves: usize,
}

/// State for one refinement pass.
struct PassState {
    /// 0 = not in the pair, 1 = block `a`, 2 = block `b`.
    side: Vec<u8>,
    locked: Vec<bool>,
    /// Per-edge pin counts inside the pair (only meaningful for internal
    /// edges).
    cnt_a: Vec<u32>,
    cnt_b: Vec<u32>,
    /// Edge has at least one pin outside the pair → permanently cut.
    external: Vec<bool>,
}

/// Refine the cut between blocks `a` and `b` of `part`. Returns the
/// improvement achieved. `part` is updated in place.
pub fn pairwise_fm(
    hg: &Hypergraph,
    part: &mut Partition,
    a: u32,
    b: u32,
    cfg: &FmConfig,
) -> FmResult {
    assert!(a != b, "cannot refine a block against itself");
    assert!(a < part.k() && b < part.k());
    let mut result = FmResult::default();
    let max_gain = hg.max_gain_bound();

    for _pass in 0..cfg.max_passes {
        let (gain, moves, viol_reduced) = run_pass(hg, part, a, b, cfg, max_gain);
        result.passes += 1;
        result.gain += gain;
        result.moves += moves;
        if gain <= 0 && !viol_reduced {
            break;
        }
    }
    result
}

/// One FM pass; returns (kept gain, kept moves, violation reduced?).
fn run_pass(
    hg: &Hypergraph,
    part: &mut Partition,
    a: u32,
    b: u32,
    cfg: &FmConfig,
    max_gain: i64,
) -> (i64, usize, bool) {
    let nv = hg.vertex_count();
    let ne = hg.edge_count();
    let mut st = PassState {
        side: vec![0; nv],
        locked: vec![false; nv],
        cnt_a: vec![0; ne],
        cnt_b: vec![0; ne],
        external: vec![false; ne],
    };

    let mut movable: Vec<u32> = Vec::new();
    for v in 0..nv as u32 {
        let blk = part.block_of(VertexId(v));
        if blk == a {
            st.side[v as usize] = 1;
            movable.push(v);
        } else if blk == b {
            st.side[v as usize] = 2;
            movable.push(v);
        }
    }
    if movable.is_empty() {
        return (0, 0, false);
    }
    // Classic FM must allow *temporary* imbalance so that swap-like
    // sequences (a→b then b→a) can cross tightly balanced states; the
    // excursion budget of one move is bounded by twice the heaviest movable
    // vertex (both blocks deviate by at most that weight).
    let excursion: u64 = movable
        .iter()
        .map(|&v| hg.vweight(VertexId(v)))
        .max()
        .unwrap_or(0)
        * 2;

    for e in hg.edges() {
        for p in hg.pins(e) {
            match st.side[p.idx()] {
                1 => st.cnt_a[e.idx()] += 1,
                2 => st.cnt_b[e.idx()] += 1,
                _ => st.external[e.idx()] = true,
            }
        }
    }

    // Initial gains.
    let mut table = GainTable::new(nv, max_gain.max(1));
    for &v in &movable {
        table.insert(v, vertex_gain(hg, &st, v));
    }

    let start_violation = pair_violation(part, a, b, &cfg.bounds);
    let mut cur_violation = start_violation;

    // Tentative move log: (vertex, from_block, cumulative_gain, violation).
    let mut log: Vec<(u32, u32, i64, u64)> = Vec::new();
    let mut cum_gain = 0i64;

    loop {
        let bounds = &cfg.bounds;
        // A move is admissible if the violation it creates stays within the
        // current violation or the one-move excursion budget; the final
        // prefix selection below guarantees the *kept* state never ends up
        // worse-balanced than the start.
        let pick = {
            let part_ref = &*part;
            let side = &st.side;
            table.find_max(|v| {
                let (from, to) = if side[v as usize] == 1 {
                    (a, b)
                } else {
                    (b, a)
                };
                let w = hg.vweight(VertexId(v));
                let new_from = part_ref.block_weight(from) - w;
                let new_to = part_ref.block_weight(to) + w;
                let new_viol =
                    bounds.block_violation(from, new_from) + bounds.block_violation(to, new_to);
                new_viol <= cur_violation.max(excursion)
            })
        };
        let Some((v, g)) = pick else { break };

        let from = if st.side[v as usize] == 1 { a } else { b };
        let to = if from == a { b } else { a };
        apply_move(hg, &mut st, &mut table, v, part, to);
        cum_gain += g;
        cur_violation = pair_violation(part, a, b, &cfg.bounds);
        log.push((v, from, cum_gain, cur_violation));
    }

    // Find the best prefix. Feasibility dominates: minimize the balance
    // violation first, then maximize gain — so a pass repairing an
    // infeasible partition may accept a worse cut, while a pass starting
    // feasible only keeps strictly cut-improving (and still feasible)
    // prefixes.
    let mut best_idx: Option<usize> = None;
    let mut best_key = (start_violation, 0i64); // (violation, -gain), minimized
    for (i, &(_, _, g, viol)) in log.iter().enumerate() {
        let key = (viol, -g);
        if key < best_key {
            best_key = key;
            best_idx = Some(i);
        }
    }

    // Roll back everything after the best prefix.
    let keep = best_idx.map_or(0, |i| i + 1);
    for &(v, from, _, _) in log[keep..].iter().rev() {
        part.move_vertex(hg, VertexId(v), from);
    }

    let kept_gain = if keep > 0 { log[keep - 1].2 } else { 0 };
    let final_viol = if keep > 0 {
        log[keep - 1].3
    } else {
        start_violation
    };
    (kept_gain, keep, final_viol < start_violation)
}

/// FM gain of moving `v` to the opposite side.
fn vertex_gain(hg: &Hypergraph, st: &PassState, v: u32) -> i64 {
    let from_a = st.side[v as usize] == 1;
    let mut gain = 0i64;
    for e in hg.edges_of(VertexId(v)) {
        if st.external[e.idx()] {
            continue; // always cut regardless of this pair's moves
        }
        let w = hg.eweight(e) as i64;
        let (cnt_f, cnt_t) = if from_a {
            (st.cnt_a[e.idx()], st.cnt_b[e.idx()])
        } else {
            (st.cnt_b[e.idx()], st.cnt_a[e.idx()])
        };
        if cnt_f == 1 {
            gain += w; // edge becomes uncut
        }
        if cnt_t == 0 {
            gain -= w; // edge becomes cut
        }
    }
    gain
}

fn pair_violation(part: &Partition, a: u32, b: u32, bounds: &BlockBounds) -> u64 {
    bounds.block_violation(a, part.block_weight(a))
        + bounds.block_violation(b, part.block_weight(b))
}

/// Apply a tentative move and update neighbor gains with the standard FM
/// before/after rules.
fn apply_move(
    hg: &Hypergraph,
    st: &mut PassState,
    table: &mut GainTable,
    v: u32,
    part: &mut Partition,
    to: u32,
) {
    let from_a = st.side[v as usize] == 1;
    table.remove(v);
    st.locked[v as usize] = true;

    for e in hg.edges_of(VertexId(v)) {
        if st.external[e.idx()] {
            continue;
        }
        let w = hg.eweight(e) as i64;
        // Counts seen from the moving vertex: F = source side, T = target.
        let (cnt_f, cnt_t) = if from_a {
            (st.cnt_a[e.idx()], st.cnt_b[e.idx()])
        } else {
            (st.cnt_b[e.idx()], st.cnt_a[e.idx()])
        };

        // Before the move.
        if cnt_t == 0 {
            // Edge currently uncut on F: every other free pin gains w.
            for p in hg.pins(e) {
                let u = p.0;
                if u != v && !st.locked[u as usize] && table.contains(u) {
                    table.adjust(u, w);
                }
            }
        } else if cnt_t == 1 {
            // The lone T-side pin loses its "uncut it" bonus.
            for p in hg.pins(e) {
                let u = p.0;
                if u != v
                    && !st.locked[u as usize]
                    && side_matches(st, u, !from_a)
                    && table.contains(u)
                {
                    table.adjust(u, -w);
                }
            }
        }

        // Update counts.
        if from_a {
            st.cnt_a[e.idx()] -= 1;
            st.cnt_b[e.idx()] += 1;
        } else {
            st.cnt_b[e.idx()] -= 1;
            st.cnt_a[e.idx()] += 1;
        }
        let cnt_f_after = cnt_f - 1;

        // After the move.
        if cnt_f_after == 0 {
            // Edge now uncut on T: every other free pin loses w.
            for p in hg.pins(e) {
                let u = p.0;
                if u != v && !st.locked[u as usize] && table.contains(u) {
                    table.adjust(u, -w);
                }
            }
        } else if cnt_f_after == 1 {
            // The lone remaining F-side pin gains the "uncut it" bonus.
            for p in hg.pins(e) {
                let u = p.0;
                if u != v
                    && !st.locked[u as usize]
                    && side_matches(st, u, from_a)
                    && table.contains(u)
                {
                    table.adjust(u, w);
                }
            }
        }
    }

    // Flip the side and commit to the partition.
    st.side[v as usize] = if from_a { 2 } else { 1 };
    part.move_vertex(hg, VertexId(v), to);
}

#[inline]
fn side_matches(st: &PassState, u: u32, want_a: bool) -> bool {
    st.side[u as usize] == if want_a { 1 } else { 2 }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hgraph::HypergraphBuilder;

    /// Two unit-weight cliques of 4 joined by a single bridge edge. The
    /// optimal bisection cuts only the bridge.
    fn two_cliques() -> Hypergraph {
        let mut bld = HypergraphBuilder::new();
        let v: Vec<_> = (0..8).map(|_| bld.add_vertex(1)).collect();
        for grp in [&v[0..4], &v[4..8]] {
            for i in 0..4 {
                for j in i + 1..4 {
                    bld.add_edge([grp[i], grp[j]], 1);
                }
            }
        }
        bld.add_edge([v[3], v[4]], 1);
        bld.build()
    }

    #[test]
    fn fm_untangles_interleaved_cliques() {
        let hg = two_cliques();
        // Interleave the cliques across the two blocks: terrible start.
        let assign = vec![0, 1, 0, 1, 0, 1, 0, 1];
        let mut part = Partition::from_assignment(&hg, 2, assign);
        let before = part.hyperedge_cut(&hg);
        let cfg = FmConfig::new(BalanceConstraint::new(2, hg.total_vweight(), 10.0));
        let res = pairwise_fm(&hg, &mut part, 0, 1, &cfg);
        let after = part.hyperedge_cut(&hg);
        assert_eq!(after, 1, "optimal cut is the single bridge edge");
        assert_eq!(before - after, res.gain as u64);
        assert!(cfg.bounds.satisfied(part.block_weights()));
    }

    #[test]
    fn fm_respects_balance() {
        let hg = two_cliques();
        // All in block 0: moving everything to block 1 would zero the cut
        // but violate balance; FM must keep blocks within bounds.
        let mut part = Partition::from_assignment(&hg, 2, vec![0; 8]);
        let cfg = FmConfig::new(BalanceConstraint::new(2, hg.total_vweight(), 12.5));
        pairwise_fm(&hg, &mut part, 0, 1, &cfg);
        assert!(
            cfg.bounds.satisfied(part.block_weights()),
            "weights {:?} violate {:?}",
            part.block_weights(),
            cfg.bounds
        );
        // The rebalanced solution should cut only the bridge.
        assert_eq!(part.hyperedge_cut(&hg), 1);
    }

    #[test]
    fn fm_never_worsens_cut() {
        let hg = two_cliques();
        let assign = vec![0, 0, 0, 0, 1, 1, 1, 1]; // already optimal
        let mut part = Partition::from_assignment(&hg, 2, assign);
        let cfg = FmConfig::new(BalanceConstraint::new(2, hg.total_vweight(), 10.0));
        let res = pairwise_fm(&hg, &mut part, 0, 1, &cfg);
        assert_eq!(part.hyperedge_cut(&hg), 1);
        assert_eq!(res.gain, 0);
    }

    #[test]
    fn pairwise_ignores_other_blocks() {
        // 3 blocks; an edge into block 2 is permanently cut, so refining the
        // (0,1) pair must not move vertices chasing it.
        let mut bld = HypergraphBuilder::new();
        let v: Vec<_> = (0..6).map(|_| bld.add_vertex(1)).collect();
        bld.add_edge([v[0], v[1]], 1);
        bld.add_edge([v[2], v[3]], 1);
        bld.add_edge([v[0], v[4]], 1); // to block 2
        bld.add_edge([v[2], v[5]], 1); // to block 2
        bld.add_edge([v[0], v[2]], 1); // the only pair-internal cut edge
        let hg = bld.build();
        let mut part = Partition::from_assignment(&hg, 3, vec![0, 0, 1, 1, 2, 2]);
        let before_others = {
            let m = part.pair_cut_matrix(&hg);
            m[0][2] + m[1][2]
        };
        let cfg = FmConfig::new(BalanceConstraint::new(3, hg.total_vweight(), 20.0));
        pairwise_fm(&hg, &mut part, 0, 1, &cfg);
        // Vertices of block 2 must not have moved.
        assert_eq!(part.block_of(VertexId(4)), 2);
        assert_eq!(part.block_of(VertexId(5)), 2);
        let after_others = {
            let m = part.pair_cut_matrix(&hg);
            m[0][2] + m[1][2]
        };
        assert_eq!(before_others, after_others);
    }

    #[test]
    fn weighted_vertices_respected() {
        // A heavy super-gate cannot move if it would break balance.
        let mut bld = HypergraphBuilder::new();
        let heavy = bld.add_vertex(90);
        let l1 = bld.add_vertex(5);
        let l2 = bld.add_vertex(5);
        bld.add_edge([heavy, l1], 1);
        bld.add_edge([heavy, l2], 1);
        let hg = bld.build();
        let mut part = Partition::from_assignment(&hg, 2, vec![0, 1, 1]);
        // Bounds 10..90: any end state with the heavy vertex sharing a block
        // with a light one is infeasible, so the start (90, 10) with cut 2 is
        // already optimal among feasible states reachable by FM.
        let cfg = FmConfig::new(BalanceConstraint::new(2, 100, 40.0));
        pairwise_fm(&hg, &mut part, 0, 1, &cfg);
        assert_eq!(part.block_of(VertexId(0)), 0);
        assert!(cfg.bounds.satisfied(part.block_weights()));
        assert_eq!(part.hyperedge_cut(&hg), 2);
    }

    #[test]
    fn zero_pass_on_empty_pair() {
        let mut bld = HypergraphBuilder::new();
        let a = bld.add_vertex(1);
        let b = bld.add_vertex(1);
        bld.add_edge([a, b], 1);
        let hg = bld.build();
        // Both vertices in block 2; refining (0,1) has nothing to do.
        let mut part = Partition::from_assignment(&hg, 3, vec![2, 2]);
        let cfg = FmConfig::new(BalanceConstraint::new(3, 2, 50.0));
        let res = pairwise_fm(&hg, &mut part, 0, 1, &cfg);
        assert_eq!(res.moves, 0);
    }

    proptest::proptest! {
        /// On random hypergraphs and random initial 2-way partitions, FM
        /// never increases the cut and never worsens balance violation.
        #[test]
        fn prop_fm_improves(seed in 0u64..200) {
            use rand::{Rng, SeedableRng};
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let nv = rng.gen_range(4..40);
            let ne = rng.gen_range(2..80);
            let mut bld = HypergraphBuilder::new();
            for _ in 0..nv {
                bld.add_vertex(rng.gen_range(1..5));
            }
            for _ in 0..ne {
                let deg = rng.gen_range(2..5).min(nv);
                let pins: Vec<_> = (0..deg)
                    .map(|_| VertexId(rng.gen_range(0..nv as u32)))
                    .collect();
                bld.add_edge(pins, rng.gen_range(1..3));
            }
            let hg = bld.build();
            let assign: Vec<u32> = (0..nv).map(|_| rng.gen_range(0..2)).collect();
            let mut part = Partition::from_assignment(&hg, 2, assign);
            let balance = BalanceConstraint::new(2, hg.total_vweight(), 25.0);
            let before_cut = part.weighted_cut(&hg);
            let before_viol = balance.violation(part.block_weights());
            let cfg = FmConfig::new(balance);
            let res = pairwise_fm(&hg, &mut part, 0, 1, &cfg);
            let after_cut = part.weighted_cut(&hg);
            let after_viol = balance.violation(part.block_weights());
            // FM never worsens balance, and only trades cut for balance
            // when it strictly improves feasibility.
            proptest::prop_assert!(after_viol <= before_viol);
            proptest::prop_assert!(after_viol < before_viol || after_cut <= before_cut);
            proptest::prop_assert_eq!(before_cut as i64 - after_cut as i64, res.gain);
        }
    }
}
