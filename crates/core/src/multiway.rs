//! The design-driven multiway partitioning algorithm (paper Fig. 2).
//!
//! 1. Build the **design-level hypergraph**: one super-gate vertex per
//!    top-level module instance (weight = contained gates) plus loose-gate
//!    vertices; hyperedges are the visible nets.
//! 2. **Cone partitioning** produces the initial k-way partition directly
//!    (not recursively — the paper argues direct pairwise multiway avoids
//!    the power-of-two restriction and the diminishing returns of recursive
//!    bisection).
//! 3. Repeat: **pair** two partitions, run **iterative movement** (pairwise
//!    FM) until no free vertex or no gain; an improvement re-arms all
//!    pairings.
//! 4. If the balance constraint (formula (1)) is not met, **flatten the
//!    largest super-gate** in an overweight partition — replacing it with
//!    its children on the hierarchy frontier — and resume iterative
//!    movement on the finer hypergraph.
//! 5. Stop when no pairing configuration is available; the result minimizes
//!    the hyperedge cut subject to the balance constraint.

use crate::cone::cone_partition_with;
use crate::pairing::{PairingState, PairingStrategy};
use dvs_hypergraph::builder::{cut_nets_with, design_level_with, HierHypergraph, VertexOrigin};
use dvs_hypergraph::fm::{pairwise_fm, FmConfig};
use dvs_hypergraph::partition::{BalanceConstraint, Partition};
use dvs_verilog::flatten::Frontier;
use dvs_verilog::netlist::{Fanout, InstId, Netlist};
use std::collections::HashMap;

/// FM passes per pairing.
const FM_PASSES: usize = 4;

/// Configuration of the multiway partitioner.
#[derive(Debug, Clone)]
pub struct MultiwayConfig {
    /// Number of partitions (processors), the paper's `k`.
    pub k: u32,
    /// Balance factor in percent, the paper's `b`.
    pub b_percent: f64,
    /// Pair selection policy (the paper evaluates with cut-based).
    pub pairing: PairingStrategy,
    /// Seed for the random pairing strategy.
    pub seed: u64,
    /// Independent restarts (different seeds); the best feasible result by
    /// (violation, cut) wins. FM is a local search — restarts are the
    /// standard cheap defense against local minima.
    pub restarts: usize,
}

impl MultiwayConfig {
    pub fn new(k: u32, b_percent: f64) -> Self {
        MultiwayConfig {
            k,
            b_percent,
            pairing: PairingStrategy::CutBased,
            seed: 0xD5,
            restarts: 3,
        }
    }
}

/// Result of [`partition_multiway`].
#[derive(Debug, Clone)]
pub struct MultiwayResult {
    /// Per-gate block assignment (projected from the design level).
    pub gate_blocks: Vec<u32>,
    /// Hyperedge cut measured on the flat netlist — the paper's Table 1/2
    /// metric, directly comparable with the hMetis baseline.
    pub cut: u64,
    /// Hyperedge cut on the final design-level hypergraph (equal to `cut`;
    /// kept as a consistency check).
    pub design_cut: u64,
    /// Final per-block gate loads.
    pub loads: Vec<u64>,
    /// Whether formula (1) is satisfied.
    pub balanced: bool,
    /// Super-gates flattened to reach balance.
    pub flattens: usize,
    /// Pairwise FM invocations.
    pub fm_rounds: usize,
    /// Vertices in the final design-level hypergraph.
    pub final_vertices: usize,
    /// Host seconds spent in cone partitioning (all restarts). A
    /// measurement on the reproducing machine, not part of the model —
    /// excluded from determinism comparisons.
    pub cone_seconds: f64,
    /// Host seconds spent in pairwise refinement (all restarts).
    pub refine_seconds: f64,
}

/// Run the design-driven multiway partitioning algorithm with restarts,
/// using the paper's gate-count load metric.
pub fn partition_multiway(nl: &Netlist, cfg: &MultiwayConfig) -> MultiwayResult {
    partition_multiway_weighted(nl, cfg, None)
}

/// [`partition_multiway`] with an optional per-gate weight vector as the
/// load metric — the extension the paper's conclusion calls for ("our load
/// metric is the number of gates, which is not entirely adequate").
/// Profiled event counts (see [`crate::activity`]) balance *simulation
/// work* instead of structure. `MultiwayResult::loads` is then expressed in
/// weight units rather than gates.
pub fn partition_multiway_weighted(
    nl: &Netlist,
    cfg: &MultiwayConfig,
    gate_weights: Option<&[u64]>,
) -> MultiwayResult {
    assert!(cfg.k >= 1);
    let total: u64 = match gate_weights {
        Some(w) => w.iter().sum(),
        None => nl.gate_count() as u64,
    };
    let balance = BalanceConstraint::new(cfg.k, total, cfg.b_percent);
    // The fanout is the same for every restart and every flatten, and a
    // frontier's design-level hypergraph is the same for every restart that
    // flattens its way to it: build each once per call.
    let fanout = nl.build_fanout();
    let initial = design_level_with(nl, &fanout, &Frontier::initial(nl), gate_weights);
    let mut hypergraphs = HashMap::from([(Vec::new(), initial)]);
    let mut best: Option<MultiwayResult> = None;
    let mut cone_seconds = 0.0;
    let mut refine_seconds = 0.0;
    for r in 0..cfg.restarts.max(1) {
        let run_cfg = MultiwayConfig {
            // Cone partitioning is deterministic; vary the pairing seed and
            // rotate the strategy's tie-breaking by seed.
            seed: cfg.seed.wrapping_add(r as u64 * 0x9E37_79B9),
            restarts: 1,
            ..cfg.clone()
        };
        let candidate =
            partition_multiway_once(nl, &fanout, &mut hypergraphs, &run_cfg, gate_weights);
        cone_seconds += candidate.cone_seconds;
        refine_seconds += candidate.refine_seconds;
        let key = (balance.violation(&candidate.loads), candidate.cut);
        let better = best
            .as_ref()
            .is_none_or(|b| key < (balance.violation(&b.loads), b.cut));
        if better {
            best = Some(candidate);
        }
    }
    let mut best = best.expect("restarts >= 1");
    // The winner reports the work of the whole restart loop, not only its
    // own restart, so callers see the true cost of this invocation.
    best.cone_seconds = cone_seconds;
    best.refine_seconds = refine_seconds;
    best
}

/// Sweep the balance factor over `bs` (ascending) for a fixed `k`, carrying
/// the best feasible partition forward: any partition meeting a tighter
/// constraint also meets every looser one, so the reported cut is the best
/// over all candidates feasible at each `b`. This is how the paper's Table 1
/// row family should be read — the algorithm never has a reason to return a
/// worse partition when the constraint relaxes.
pub fn partition_multiway_sweep(
    nl: &Netlist,
    k: u32,
    bs: &[f64],
    base: &MultiwayConfig,
) -> Vec<MultiwayResult> {
    let total = nl.gate_count() as u64;
    let mut results: Vec<MultiwayResult> = Vec::with_capacity(bs.len());
    let mut pool: Vec<MultiwayResult> = Vec::new();
    for &b in bs {
        let cfg = MultiwayConfig {
            k,
            b_percent: b,
            ..base.clone()
        };
        let fresh = partition_multiway(nl, &cfg);
        pool.push(fresh);
        let balance = BalanceConstraint::new(k, total, b);
        let best = pool
            .iter()
            .filter(|r| balance.satisfied(&r.loads))
            .min_by_key(|r| r.cut)
            .or_else(|| {
                pool.iter()
                    .min_by_key(|r| (balance.violation(&r.loads), r.cut))
            })
            .expect("pool is non-empty")
            .clone();
        results.push(MultiwayResult {
            balanced: balance.satisfied(&best.loads),
            ..best
        });
    }
    results
}

/// A single restart of the algorithm. `hypergraphs` holds the design-level
/// hypergraphs of `nl` built so far, each keyed by the instances flattened,
/// in order, from [`Frontier::initial`] (whose own is keyed by `[]`); a
/// frontier this restart reaches is built only if no restart reached it
/// before.
fn partition_multiway_once(
    nl: &Netlist,
    fanout: &Fanout,
    hypergraphs: &mut HashMap<Vec<InstId>, HierHypergraph>,
    cfg: &MultiwayConfig,
    gate_weights: Option<&[u64]>,
) -> MultiwayResult {
    let total_weight: u64 = match gate_weights {
        Some(w) => w.iter().sum(),
        None => nl.gate_count() as u64,
    };
    let balance = BalanceConstraint::new(cfg.k, total_weight, cfg.b_percent);

    let mut frontier = Frontier::initial(nl);
    // The key of the current frontier's hypergraph.
    let mut flattened: Vec<InstId> = Vec::new();
    // Derive a cone-size perturbation from the seed so restarts explore
    // different initial partitions (0.7 .. 1.3 around the balanced target).
    let frac = (cfg.seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 40) as f64 / (1u64 << 24) as f64;
    let scale = 0.7 + 0.6 * frac;
    let t_cone = std::time::Instant::now();
    let mut part = cone_partition_with(nl, fanout, &hypergraphs[&flattened], cfg.k, scale);
    let cone_seconds = t_cone.elapsed().as_secs_f64();

    let mut fm_rounds = 0usize;
    let mut refine_seconds = 0.0f64;

    loop {
        let hh = &hypergraphs[&flattened];
        // Iterative movement over pairings until no configuration is left.
        let t_refine = std::time::Instant::now();
        refine_all_pairs(hh, &mut part, &balance, cfg, &mut fm_rounds);
        refine_seconds += t_refine.elapsed().as_secs_f64();

        if balance.satisfied(part.block_weights()) {
            break;
        }

        // Balance unmet: flatten the largest super-gate in an overweight
        // block (or the largest anywhere, if only underweight blocks exist).
        let Some(victim) = pick_flatten_victim(hh, &part, &balance) else {
            break; // fully flat and still infeasible: FM did its best
        };
        let VertexOrigin::Super(inst) = hh.origins[victim as usize] else {
            unreachable!("victim is always a super-gate");
        };
        let gate_blocks = hh.gate_blocks(&part);
        let ok = frontier.flatten_node(nl, inst);
        debug_assert!(ok, "victim must be on the frontier");
        flattened.push(inst);
        let finer = hypergraphs
            .entry(flattened.clone())
            .or_insert_with(|| design_level_with(nl, fanout, &frontier, gate_weights));
        let assign = finer.assignment_from_gate_blocks(&gate_blocks);
        part = Partition::from_assignment(&finer.hg, cfg.k, assign);
    }

    let hh = &hypergraphs[&flattened];
    let gate_blocks = hh.gate_blocks(&part);
    let cut = cut_nets_with(nl, fanout, &gate_blocks).len() as u64;
    let design_cut = part.hyperedge_cut(&hh.hg);
    let loads = load_of_blocks(&gate_blocks, cfg.k, gate_weights);
    let balanced = balance.satisfied(&loads);

    MultiwayResult {
        gate_blocks,
        cut,
        design_cut,
        loads,
        balanced,
        flattens: flattened.len(),
        fm_rounds,
        final_vertices: hh.hg.vertex_count(),
        cone_seconds,
        refine_seconds,
    }
}

/// Run pairings + pairwise FM until no pairing configuration is available.
fn refine_all_pairs(
    hh: &HierHypergraph,
    part: &mut Partition,
    balance: &BalanceConstraint,
    cfg: &MultiwayConfig,
    fm_rounds: &mut usize,
) {
    if cfg.k < 2 {
        return;
    }
    let fm_cfg = FmConfig {
        max_passes: FM_PASSES,
        bounds: dvs_hypergraph::partition::BlockBounds::uniform(balance),
    };
    let mut pairing = PairingState::new(cfg.k, cfg.pairing, cfg.seed);
    while let Some((a, b)) = pairing.next_pair(&hh.hg, part, &fm_cfg) {
        let before_viol = balance.violation(part.block_weights());
        let res = pairwise_fm(&hh.hg, part, a, b, &fm_cfg);
        *fm_rounds += 1;
        let after_viol = balance.violation(part.block_weights());
        if res.gain > 0 || after_viol < before_viol {
            pairing.reset();
        }
        pairing.mark_tried(a, b);
    }
}

/// The flattening victim: the heaviest super-gate in an overweight block,
/// falling back to the heaviest super-gate anywhere.
fn pick_flatten_victim(
    hh: &HierHypergraph,
    part: &Partition,
    balance: &BalanceConstraint,
) -> Option<u32> {
    let upper = balance.upper();
    let mut best_over: Option<(u64, u32)> = None;
    let mut best_any: Option<(u64, u32)> = None;
    for (vi, origin) in hh.origins.iter().enumerate() {
        let VertexOrigin::Super(inst) = origin else {
            continue;
        };
        let v = dvs_hypergraph::VertexId(vi as u32);
        let w = hh.hg.vweight(v);
        // A childless leaf module still "flattens" (its gates become loose),
        // which lets single gates migrate; only zero-weight supers are
        // pointless to expand.
        if w == 0 {
            continue;
        }
        let _ = inst;
        let entry = (w, vi as u32);
        if best_any.is_none_or(|(bw, _)| w > bw) {
            best_any = Some(entry);
        }
        if part.block_weight(part.block_of(v)) > upper && best_over.is_none_or(|(bw, _)| w > bw) {
            best_over = Some(entry);
        }
    }
    best_over.or(best_any).map(|(_, v)| v)
}

fn load_of_blocks(gate_blocks: &[u32], k: u32, gate_weights: Option<&[u64]>) -> Vec<u64> {
    let mut loads = vec![0u64; k as usize];
    for (gi, &b) in gate_blocks.iter().enumerate() {
        loads[b as usize] += gate_weights.map_or(1, |w| w[gi]);
    }
    loads
}

#[cfg(test)]
mod tests {
    use super::*;
    use dvs_verilog::parse_and_elaborate;

    /// Eight equal modules in a chain — ideal for any k dividing 8.
    fn chain8() -> Netlist {
        let mut src = String::from("module top(clk, a, y);\n input clk, a; output y;\n");
        for i in 0..=8 {
            src.push_str(&format!(" wire w{i};\n"));
        }
        src.push_str(" buf bi (w0, a);\n");
        for i in 0..8 {
            src.push_str(&format!(" blk u{i} (clk, w{i}, w{});\n", i + 1));
        }
        src.push_str(" buf bo (y, w8);\nendmodule\n");
        src.push_str(
            "module blk(clk, i, o);\n input clk, i; output o;\n wire a, b, c;\n \
             not g1 (a, i);\n and g2 (b, a, i);\n xor g3 (c, b, a);\n dff g4 (o, clk, c);\n\
             endmodule\n",
        );
        parse_and_elaborate(&src).unwrap().into_netlist()
    }

    /// One giant module plus small ones: forces flattening at tight b.
    fn lopsided() -> Netlist {
        let mut src = String::from("module top(a, y);\n input a; output y;\n");
        src.push_str(" wire wb, ws0, ws1;\n");
        src.push_str(" big ub (a, wb);\n");
        src.push_str(" small us0 (wb, ws0);\n");
        src.push_str(" small us1 (ws0, ws1);\n");
        src.push_str(" buf bo (y, ws1);\nendmodule\n");
        // big: a chain of 40 inverters wrapped in two sub-blocks of 20.
        src.push_str("module big(i, o);\n input i; output o;\n wire m;\n half20 h0 (i, m);\n half20 h1 (m, o);\nendmodule\n");
        src.push_str("module half20(i, o);\n input i; output o;\n");
        for j in 0..=20 {
            src.push_str(&format!(" wire t{j};\n"));
        }
        src.push_str(" buf bi (t0, i);\n");
        for j in 0..20 {
            src.push_str(&format!(" not n{j} (t{}, t{j});\n", j + 1));
        }
        src.push_str(" buf bo (o, t20);\nendmodule\n");
        src.push_str("module small(i, o);\n input i; output o;\n wire t;\n not n1 (t, i);\n not n2 (o, t);\nendmodule\n");
        parse_and_elaborate(&src).unwrap().into_netlist()
    }

    #[test]
    fn balanced_partition_without_flattening() {
        let nl = chain8();
        for k in [2u32, 4] {
            let cfg = MultiwayConfig::new(k, 15.0);
            let r = partition_multiway(&nl, &cfg);
            assert!(r.balanced, "k={k} loads {:?}", r.loads);
            assert_eq!(r.flattens, 0, "equal modules need no flattening");
            assert_eq!(r.gate_blocks.len(), nl.gate_count());
            assert_eq!(r.cut, r.design_cut);
        }
    }

    #[test]
    fn k3_works_without_power_of_two() {
        let nl = chain8();
        let cfg = MultiwayConfig::new(3, 15.0);
        let r = partition_multiway(&nl, &cfg);
        assert!(r.balanced, "loads {:?}", r.loads);
        let used: std::collections::HashSet<u32> = r.gate_blocks.iter().copied().collect();
        assert_eq!(used.len(), 3);
    }

    #[test]
    fn flattening_breaks_oversized_super_gates() {
        let nl = lopsided();
        // `big` holds ~85% of the gates: k=2 with tight b is impossible
        // without flattening it.
        let cfg = MultiwayConfig::new(2, 10.0);
        let r = partition_multiway(&nl, &cfg);
        assert!(r.flattens > 0, "flattening must trigger");
        assert!(r.balanced, "loads {:?}", r.loads);
    }

    #[test]
    fn looser_b_gives_no_worse_cut() {
        // The paper's Tables 1: cut decreases monotonically with b.
        let nl = chain8();
        let tight = partition_multiway(&nl, &MultiwayConfig::new(4, 5.0));
        let loose = partition_multiway(&nl, &MultiwayConfig::new(4, 25.0));
        assert!(
            loose.cut <= tight.cut,
            "loose {} vs tight {}",
            loose.cut,
            tight.cut
        );
    }

    #[test]
    fn k1_is_trivial() {
        let nl = chain8();
        let r = partition_multiway(&nl, &MultiwayConfig::new(1, 10.0));
        assert_eq!(r.cut, 0);
        assert!(r.balanced);
        assert!(r.gate_blocks.iter().all(|&b| b == 0));
    }

    #[test]
    fn all_strategies_produce_valid_partitions() {
        let nl = chain8();
        for strat in [
            PairingStrategy::Random,
            PairingStrategy::Exhaustive,
            PairingStrategy::CutBased,
            PairingStrategy::GainBased,
        ] {
            let cfg = MultiwayConfig {
                pairing: strat,
                ..MultiwayConfig::new(3, 15.0)
            };
            let r = partition_multiway(&nl, &cfg);
            assert!(r.balanced, "{}: loads {:?}", strat.name(), r.loads);
            assert!(r.fm_rounds > 0);
        }
    }

    /// `restarts: 3` returns exactly what the best, by (violation, cut), of
    /// its three single restarts returns on its own, on circuits that flatten,
    /// and each restart run after the others over their shared hypergraphs
    /// returns what it returns alone: restarts must not see each other.
    #[test]
    fn restarts_equal_the_best_single_restart() {
        use dvs_workloads::random_hier::{generate_random_hier, RandomHierParams};
        use dvs_workloads::{generate_viterbi, ViterbiParams};
        let elaborate = |src: String| parse_and_elaborate(&src).unwrap().into_netlist();
        let viterbi = elaborate(generate_viterbi(&ViterbiParams::paper_class()));
        let hier = elaborate(generate_random_hier(&RandomHierParams {
            depth: 3,
            ..RandomHierParams::default()
        }));
        let pin = |r: &MultiwayResult| {
            let blocks = r.gate_blocks.clone();
            (blocks, r.cut, r.loads.clone(), r.flattens, r.fm_rounds)
        };
        for (nl, k, b) in [
            (&viterbi, 2, 2.5),
            (&viterbi, 4, 2.5),
            (&hier, 2, 2.5),
            (&hier, 4, 5.0),
            (&lopsided(), 2, 10.0),
        ] {
            let cfg = MultiwayConfig::new(k, b);
            let balance = BalanceConstraint::new(k, nl.gate_count() as u64, b);
            let one = |r: u64| MultiwayConfig {
                seed: cfg.seed.wrapping_add(r * 0x9E37_79B9),
                restarts: 1,
                ..cfg.clone()
            };
            let singles: Vec<MultiwayResult> =
                (0..3).map(|r| partition_multiway(nl, &one(r))).collect();
            let best = singles
                .iter()
                .min_by_key(|s| (balance.violation(&s.loads), s.cut))
                .unwrap();
            let all = partition_multiway(nl, &cfg);
            assert!(all.flattens > 0, "k={k} b={b}: the case must flatten");
            assert_eq!(pin(&all), pin(best), "k={k} b={b}");

            let fanout = nl.build_fanout();
            let initial = design_level_with(nl, &fanout, &Frontier::initial(nl), None);
            let mut shared = HashMap::from([(Vec::new(), initial)]);
            for (r, single) in singles.iter().enumerate() {
                let after = partition_multiway_once(nl, &fanout, &mut shared, &one(r as u64), None);
                assert_eq!(pin(&after), pin(single), "k={k} b={b} restart {r}");
            }
            if std::ptr::eq(nl, &viterbi) && k == 2 {
                // Restarts 0 and 2 each flatten one super-gate, not the same
                // one: only the empty prefix is shared between them.
                let shape = |s: &MultiwayResult| (s.flattens, s.final_vertices);
                assert_eq!([shape(&singles[0]), shape(&singles[2])], [(1, 43), (1, 27)]);
            }
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let nl = chain8();
        let cfg = MultiwayConfig::new(4, 10.0);
        let r1 = partition_multiway(&nl, &cfg);
        let r2 = partition_multiway(&nl, &cfg);
        assert_eq!(r1.gate_blocks, r2.gate_blocks);
    }
}
