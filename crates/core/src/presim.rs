//! Pre-simulation (paper §3.4, §4.2): evaluating the load-balance /
//! communication trade-off by simulating a short prefix of the workload.
//!
//! "We use pre-simulation to evaluate the trade-off between load balance and
//! the communication cost … The criterion used to evaluate a circuit
//! partition is the speedup during the pre-simulation. The partition which
//! produces the best speedup for some choice of k and b is used in the
//! circuit simulation." The paper uses 10 000 random vectors for
//! pre-simulation vs 1 000 000 for the full run.
//!
//! Two search modes are provided, as in the paper:
//!
//! * [`brute_force_presim`] — every (k, b) combination (Table 3);
//! * [`heuristic_presim`] — the greedy search of paper Fig. 3: for each k
//!   from the maximum down to 2, sweep b upward from 7.5 in steps of 2.5
//!   (b < 15) and stop the sweep at the first speedup decrease. (The
//!   paper's pseudo-code returns the loop's final indices; we return the
//!   argmax it tracked, which is its evident intent.)

use crate::engine::{map_indexed, mix_seed, Parallelism};
use crate::multiway::{partition_multiway, MultiwayConfig};
use dvs_sim::cluster::ClusterPlan;
use dvs_sim::cluster_model::{run_batch, ClusterModelConfig, ClusterRun};
use dvs_sim::stats::SimStats;
use dvs_sim::stimulus::VectorStimulus;
use dvs_sim::timewarp::{run_timewarp, FaultPlan, SchedulePolicy, TimeWarpConfig, Transport};
use dvs_verilog::netlist::Netlist;
use std::cmp::Ordering;
use std::time::Instant;

/// Optional exact-counter leg of pre-simulation: run each candidate
/// partition under the deterministic Time Warp executor
/// ([`dvs_sim::timewarp::dst`]) in addition to the modeled cluster run.
/// The resulting [`SimStats`] — rollbacks, anti-messages, GVT rounds,
/// fossil collections — are exact, seed-reproducible protocol counters
/// (where the cluster model only *estimates* messages and rollbacks), so
/// they land in canonical artifacts and are byte-compared by the perf gate.
#[derive(Debug, Clone)]
pub struct TwPresimConfig {
    /// Seed for the virtual scheduler.
    pub seed: u64,
    /// Schedule policy driving the deterministic executor.
    pub schedule: SchedulePolicy,
    /// Vectors simulated under the executor. Kept smaller than the modeled
    /// run's `vectors` — the executor simulates every gate for real.
    pub vectors: u64,
    /// Kernel tuning (window, epochs per quantum). Its `transport` is
    /// ignored: the leg runs on the in-process deterministic executor under
    /// `seed` and `schedule` above, so it is always deterministic.
    pub kernel: TimeWarpConfig,
    /// When set, run a second deterministic leg with this crash fault
    /// injected and record its counters in [`PresimPoint::tw_crash`].
    /// Recovery is exact, so the crash leg's counters must equal the clean
    /// leg's — the perf gate byte-compares both, turning crash recovery
    /// into a CI-checked invariant.
    pub fault: Option<FaultPlan>,
}

impl TwPresimConfig {
    /// Defaults: round-robin schedule, 100 vectors, stock kernel tuning,
    /// no crash leg.
    pub fn new(seed: u64) -> Self {
        TwPresimConfig {
            seed,
            schedule: SchedulePolicy::RoundRobin,
            vectors: 100,
            kernel: TimeWarpConfig::default(),
            fault: None,
        }
    }
}

/// Pre-simulation parameters.
#[derive(Debug, Clone)]
pub struct PresimConfig {
    /// Random vectors for the pre-simulation run (paper: 10 000).
    pub vectors: u64,
    /// Vector period in gate delays.
    pub period: u64,
    /// Stimulus seed.
    pub stim_seed: u64,
    /// Cluster cost model.
    pub model: ClusterModelConfig,
    /// Partitioner seed.
    pub part_seed: u64,
    /// When set, each point additionally runs the deterministic Time Warp
    /// executor and records exact protocol counters in
    /// [`PresimPoint::tw`].
    pub timewarp: Option<TwPresimConfig>,
}

impl PresimConfig {
    /// Defaults matching the paper's setup. The cost model is the same at
    /// every design size ([`ClusterModelConfig::athlon_cluster`] ignores
    /// its gate count).
    pub fn paper_defaults() -> Self {
        PresimConfig {
            vectors: 10_000,
            period: 10,
            stim_seed: 0x1234,
            model: ClusterModelConfig::athlon_cluster(0),
            part_seed: 0xD5,
            timewarp: None,
        }
    }
}

/// Host-side cost of producing one [`PresimPoint`]: wall time per stage and
/// the partitioner's work counters. Wall times are measurements on the
/// reproducing machine (they vary run to run and are excluded from
/// determinism comparisons); the counters are deterministic.
#[derive(Debug, Clone, Copy, Default)]
pub struct PointTiming {
    /// Seconds spent partitioning (cone + refinement + flattening).
    pub partition_seconds: f64,
    /// Seconds of `partition_seconds` spent in cone partitioning.
    pub cone_seconds: f64,
    /// Seconds of `partition_seconds` spent in pairwise FM refinement.
    pub refine_seconds: f64,
    /// Seconds spent pre-simulating the partition under the cluster model:
    /// the point's own cluster plan, Time Warp legs and model stage, plus an
    /// equal 1/N share of the profiling pass it shared with the N − 1 other
    /// points of its batch — so the sum over a search's points still
    /// accounts for the search's CPU seconds.
    pub simulate_seconds: f64,
    /// Super-gates flattened while partitioning (deterministic counter).
    pub flattens: usize,
    /// Pairwise FM invocations while partitioning (deterministic counter).
    pub fm_rounds: usize,
}

/// Deterministic quality measures of one partition — the numbers the
/// paper's Tables 1–4 argue from, in machine-readable form for run
/// artifacts and the CI perf gate.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PartitionQuality {
    /// Flat-netlist hyperedge cut (the Table 1/2 metric).
    pub cut: u64,
    /// Heaviest block load in gates.
    pub max_load: u64,
    /// Lightest block load in gates.
    pub min_load: u64,
    /// Blocks whose load falls outside the balance envelope of the
    /// paper's formula (1); zero iff the partition is balanced.
    pub balance_violations: u32,
}

impl PartitionQuality {
    /// Measure a per-gate block assignment against formula (1) for
    /// `(k, b)` over `total` weight units.
    pub fn measure(gate_blocks: &[u32], cut: u64, k: u32, b: f64, total: u64) -> Self {
        let mut loads = vec![0u64; k as usize];
        for &blk in gate_blocks {
            loads[blk as usize] += 1;
        }
        let balance = dvs_hypergraph::partition::BalanceConstraint::new(k, total, b);
        PartitionQuality {
            cut,
            max_load: loads.iter().copied().max().unwrap_or(0),
            min_load: loads.iter().copied().min().unwrap_or(0),
            balance_violations: loads.iter().filter(|&&w| !balance.block_ok(w)).count() as u32,
        }
    }
}

/// One evaluated (k, b) data point — a row of the paper's Table 3.
#[derive(Debug, Clone, Default)]
pub struct PresimPoint {
    pub k: u32,
    pub b: f64,
    /// Flat-netlist hyperedge cut of the produced partition.
    pub cut: u64,
    /// Modeled parallel pre-simulation wall time (seconds).
    pub sim_seconds: f64,
    /// Modeled sequential time for the same workload.
    pub seq_seconds: f64,
    pub speedup: f64,
    pub messages: u64,
    pub rollbacks: u64,
    /// Per-machine message counts.
    pub machine_messages: Vec<u64>,
    /// Per-machine rollback counts.
    pub machine_rollbacks: Vec<u64>,
    /// The partition itself, for reuse in the full simulation.
    pub gate_blocks: Vec<u32>,
    pub balanced: bool,
    /// Deterministic quality measures (cut, load spread, violations).
    pub quality: PartitionQuality,
    /// Exact Time Warp protocol counters from the deterministic executor
    /// (present iff [`PresimConfig::timewarp`] was set).
    pub tw: Option<SimStats>,
    /// Counters from the crash-injected deterministic leg (present iff
    /// [`TwPresimConfig::fault`] was also set). Exact recovery makes these
    /// equal to [`PresimPoint::tw`] — an invariant the perf gate checks.
    pub tw_crash: Option<SimStats>,
    /// Host cost of producing this point.
    pub timing: PointTiming,
}

/// The partitioner seed used for the point `(k, b)`: a pure function of the
/// configured `part_seed`, the point's coordinates and the stimulus seed.
/// Deriving the seed per point (instead of sharing one seed across the
/// sweep) is what lets the search engine evaluate points on any number of
/// threads, in any completion order, and still produce bit-identical
/// results — no point's RNG stream depends on which points ran before it.
pub fn point_seed(k: u32, b: f64, cfg: &PresimConfig) -> u64 {
    cfg.part_seed ^ mix_seed(k as u64, b.to_bits(), cfg.stim_seed)
}

/// A partition to evaluate: what [`evaluate_partitions`] takes per point.
#[derive(Debug, Clone, Copy)]
pub struct Candidate<'a> {
    pub k: u32,
    pub b: f64,
    /// Per-gate block assignment, and its flat-netlist hyperedge cut.
    pub gate_blocks: &'a [u32],
    pub cut: u64,
    pub balanced: bool,
}

/// Partition for every `(k, b)` of `coords` on up to `par` worker threads
/// and evaluate the partitions with [`evaluate_partitions`] — one profiling
/// pass for all of them. Each partitioner is seeded with [`point_seed`], so
/// a point is a pure function of `(nl, k, b, cfg)` — independent of what
/// else is in the batch, of evaluation order and of thread count.
pub fn presim_points(
    nl: &Netlist,
    coords: &[(u32, f64)],
    cfg: &PresimConfig,
    par: Parallelism,
) -> Vec<PresimPoint> {
    let parts = map_indexed(coords.len(), par, |i| {
        let (k, b) = coords[i];
        let mcfg = MultiwayConfig {
            seed: point_seed(k, b, cfg),
            ..MultiwayConfig::new(k, b)
        };
        let t_part = Instant::now();
        let part = partition_multiway(nl, &mcfg);
        (part, t_part.elapsed().as_secs_f64())
    });
    let cands: Vec<Candidate> = coords
        .iter()
        .zip(&parts)
        .map(|(&(k, b), (part, _))| Candidate {
            k,
            b,
            gate_blocks: &part.gate_blocks,
            cut: part.cut,
            balanced: part.balanced,
        })
        .collect();
    let mut points = evaluate_partitions(nl, &cands, cfg, par);
    for (point, (part, partition_seconds)) in points.iter_mut().zip(&parts) {
        point.timing = PointTiming {
            partition_seconds: *partition_seconds,
            cone_seconds: part.cone_seconds,
            refine_seconds: part.refine_seconds,
            flattens: part.flattens,
            fm_rounds: part.fm_rounds,
            ..point.timing
        };
    }
    points
}

/// Evaluate existing partitions (any partitioner's, so all sides share one
/// measurement path) with `vectors` pre-simulation vectors under the
/// cluster model, in three stages: (A) per candidate, on up to `par` worker
/// threads, its cluster plan and the Time Warp legs; (B) **one** sequential
/// profiling pass attributing the workload to every plan at once
/// ([`dvs_sim::cluster_model::run_batch`]) — the simulation is the same for
/// every candidate; (C) each point completed from its plan's modeled run,
/// in `cands` order.
pub fn evaluate_partitions(
    nl: &Netlist,
    cands: &[Candidate],
    cfg: &PresimConfig,
    par: Parallelism,
) -> Vec<PresimPoint> {
    let stim = VectorStimulus::from_netlist(nl, cfg.period, cfg.stim_seed);
    let staged = map_indexed(cands.len(), par, |i| {
        let t_stage = Instant::now();
        let Candidate {
            k,
            b,
            gate_blocks,
            cut,
            balanced,
        } = cands[i];
        let plan = ClusterPlan::new(nl, gate_blocks, k as usize);
        // Deterministic mode makes a leg a pure function of its inputs, so
        // points stay bit-identical for any evaluation order or thread count.
        let run_leg = |t: &TwPresimConfig, fault: FaultPlan| {
            // The presim leg is always deterministic, whatever the kernel
            // config says: the in-process executor under the presim's own
            // seed and schedule.
            let mut twcfg = t.kernel.clone();
            twcfg.transport = Transport::in_proc(t.seed, t.schedule);
            twcfg.fault = fault;
            match run_timewarp(nl, &plan, &stim, t.vectors, &twcfg) {
                Ok(r) => r.stats,
                // A wedged kernel during pre-simulation is a configuration/
                // protocol bug, not a recoverable condition of the sweep.
                Err(e) => panic!("deterministic presim leg failed (k={k}, b={b}): {e}"),
            }
        };
        let tw = cfg
            .timewarp
            .as_ref()
            .map(|t| run_leg(t, FaultPlan::default()));
        let tw_crash = cfg
            .timewarp
            .as_ref()
            .and_then(|t| t.fault.map(|f| run_leg(t, f)));
        // The point as far as the partition alone decides it.
        let point = PresimPoint {
            k,
            b,
            cut,
            balanced,
            quality: PartitionQuality::measure(gate_blocks, cut, k, b, nl.gate_count() as u64),
            gate_blocks: gate_blocks.to_vec(),
            tw,
            tw_crash,
            ..PresimPoint::default()
        };
        (point, plan, t_stage.elapsed().as_secs_f64())
    });
    let plans: Vec<&ClusterPlan> = staged.iter().map(|(_, plan, _)| plan).collect();
    let runs = run_batch(nl, &plans, &cfg.model, &stim, cfg.vectors);
    let complete = |((point, _, stage_seconds), run): ((PresimPoint, _, f64), ClusterRun)| {
        let host = run.timing;
        PresimPoint {
            sim_seconds: run.wall_seconds,
            seq_seconds: run.seq_seconds,
            speedup: run.speedup,
            messages: run.stats.messages,
            rollbacks: run.stats.rollbacks,
            machine_messages: run.machine_messages,
            machine_rollbacks: run.machine_rollbacks,
            timing: PointTiming {
                simulate_seconds: stage_seconds + host.profile_seconds + host.model_seconds,
                ..PointTiming::default()
            },
            ..point
        }
    };
    staged.into_iter().zip(runs).map(complete).collect()
}

/// Evaluate every (k, b) combination — the full Table 3 sweep — with up to
/// `par` worker threads and one profiling pass ([`presim_points`] over the
/// grid). Points are returned in grid order (`ks` major, `bs` minor) and
/// each point's partitioner is seeded by [`point_seed`], so the output is
/// bit-identical for every thread count.
pub fn brute_force_presim(
    nl: &Netlist,
    ks: &[u32],
    bs: &[f64],
    cfg: &PresimConfig,
    par: Parallelism,
) -> Vec<PresimPoint> {
    let grid: Vec<(u32, f64)> = ks
        .iter()
        .flat_map(|&k| bs.iter().map(move |&b| (k, b)))
        .collect();
    presim_points(nl, &grid, cfg, par)
}

/// Canonical "is `a` better than `b`" ordering over pre-simulation points:
/// higher speedup wins; exact speedup ties go to fewer machines, then to the
/// tighter balance factor. A total order over distinct grid points, so the
/// selected winner never depends on evaluation order or thread count.
fn compare_points(a: &PresimPoint, b: &PresimPoint) -> Ordering {
    a.speedup
        .partial_cmp(&b.speedup)
        .expect("finite speedups")
        .then_with(|| b.k.cmp(&a.k))
        .then_with(|| b.b.partial_cmp(&a.b).expect("finite balance factors"))
}

/// The best point by speedup (the paper's Table 4 selection), with
/// deterministic tie-breaking.
pub fn best_point(points: &[PresimPoint]) -> Option<&PresimPoint> {
    points.iter().max_by(|a, b| compare_points(a, b))
}

/// The heuristic search of paper Fig. 3: every point it evaluates, and the
/// number of rounds — profiling passes — it took; select the winner with
/// [`best_point`]. Within one `k` the sweep is sequential — the paper's
/// early stop ("increase b until the speedup decreases for the first time")
/// depends on the previous point — but different `k` sweeps are
/// independent, so the search runs in rounds: round j evaluates
/// `b = 7.5 + 2.5 j` for every `k` whose sweep has not yet seen its first
/// decrease, as one [`presim_points`] batch (at most three profiling
/// passes). Points are returned in the serial scan order (k descending from
/// `max_k`, b ascending within each k), so the output is the sequential
/// definition's for every thread count.
pub fn heuristic_presim(
    nl: &Netlist,
    max_k: u32,
    cfg: &PresimConfig,
    par: Parallelism,
) -> (Vec<PresimPoint>, usize) {
    assert!(max_k >= 2);
    let ks: Vec<u32> = (2..=max_k).rev().collect();
    let mut sweeps: Vec<Vec<PresimPoint>> = vec![Vec::new(); ks.len()];
    let mut active: Vec<usize> = (0..ks.len()).collect();
    let mut rounds = 0;
    // "Allow b to vary from 7.5 to 15 … increase b until the speedup
    // decreases for the first time and halt when this happens."
    let mut b = 7.5;
    while b < 15.0 && !active.is_empty() {
        let coords: Vec<(u32, f64)> = active.iter().map(|&i| (ks[i], b)).collect();
        let points = presim_points(nl, &coords, cfg, par);
        rounds += 1;
        let mut rising = Vec::with_capacity(active.len());
        for (&i, point) in active.iter().zip(points) {
            let fell = sweeps[i]
                .last()
                .is_some_and(|prev| point.speedup <= prev.speedup);
            sweeps[i].push(point);
            if !fell {
                rising.push(i); // no decrease yet for this k
            }
        }
        active = rising;
        b += 2.5;
    }
    (sweeps.into_iter().flatten().collect(), rounds)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dvs_verilog::parse_and_elaborate;

    fn pipeline_netlist() -> Netlist {
        let mut src = String::from("module top(clk, a, y);\n input clk, a; output y;\n");
        for i in 0..=12 {
            src.push_str(&format!(" wire w{i};\n"));
        }
        src.push_str(" buf bi (w0, a);\n");
        for i in 0..12 {
            src.push_str(&format!(" blk u{i} (clk, w{i}, w{});\n", i + 1));
        }
        src.push_str(" buf bo (y, w12);\nendmodule\n");
        src.push_str(
            "module blk(clk, i, o);\n input clk, i; output o;\n wire a, b, c;\n \
             not g1 (a, i);\n xor g2 (b, a, i);\n or g3 (c, b, a);\n dff g4 (o, clk, c);\n\
             endmodule\n",
        );
        parse_and_elaborate(&src).unwrap().into_netlist()
    }

    fn quick_cfg() -> PresimConfig {
        let mut cfg = PresimConfig::paper_defaults();
        cfg.vectors = 60;
        cfg
    }

    /// [`presim_points`] for the one point `(k, b)`.
    fn presim_point(nl: &Netlist, k: u32, b: f64, cfg: &PresimConfig) -> PresimPoint {
        let mut points = presim_points(nl, &[(k, b)], cfg, Parallelism::Serial);
        points.pop().expect("one point in, one point out")
    }

    #[test]
    fn presim_point_is_deterministic() {
        let nl = pipeline_netlist();
        let cfg = quick_cfg();
        let p1 = presim_point(&nl, 2, 10.0, &cfg);
        let p2 = presim_point(&nl, 2, 10.0, &cfg);
        assert_eq!(p1.cut, p2.cut);
        assert_eq!(p1.messages, p2.messages);
        assert_eq!(p1.rollbacks, p2.rollbacks);
        assert!((p1.speedup - p2.speedup).abs() < 1e-12);
    }

    #[test]
    fn brute_force_covers_grid() {
        let nl = pipeline_netlist();
        let cfg = quick_cfg();
        let pts = brute_force_presim(&nl, &[2, 3], &[7.5, 12.5], &cfg, Parallelism::Serial);
        assert_eq!(pts.len(), 4);
        let ks: Vec<u32> = pts.iter().map(|p| p.k).collect();
        assert_eq!(ks, vec![2, 2, 3, 3]);
        let best = best_point(&pts).unwrap();
        assert!(pts.iter().all(|p| p.speedup <= best.speedup));
    }

    #[test]
    fn heuristic_spends_fewer_runs_than_brute_force() {
        let nl = pipeline_netlist();
        let cfg = quick_cfg();
        let (points, _) = heuristic_presim(&nl, 4, &cfg, Parallelism::Serial);
        let runs = points.len();
        let best = best_point(&points).expect("at least one run");
        // Brute force over the same space would be 3 k-values × 3 b-values.
        assert!(runs <= 9, "runs = {runs}");
        assert!(runs >= 3, "at least one run per k");
        assert!(best.k >= 2 && best.k <= 4);
        assert!(best.speedup > 0.0);
    }

    #[test]
    fn single_machine_speedup_is_one() {
        let nl = pipeline_netlist();
        let cfg = quick_cfg();
        let p = presim_point(&nl, 1, 10.0, &cfg);
        assert!((p.speedup - 1.0).abs() < 1e-9);
        assert_eq!(p.messages, 0);
        assert_eq!(p.rollbacks, 0);
    }

    #[test]
    fn parallel_grid_matches_serial_grid() {
        let nl = pipeline_netlist();
        let cfg = quick_cfg();
        let ks = [2u32, 3, 4];
        let bs = [7.5, 10.0, 12.5];
        let serial = brute_force_presim(&nl, &ks, &bs, &cfg, Parallelism::Serial);
        let par = brute_force_presim(&nl, &ks, &bs, &cfg, Parallelism::Threads(4));
        assert_eq!(serial.len(), par.len());
        for (s, p) in serial.iter().zip(&par) {
            assert_eq!((s.k, s.b.to_bits()), (p.k, p.b.to_bits()));
            assert_eq!(s.gate_blocks, p.gate_blocks);
            assert_eq!(s.cut, p.cut);
            assert_eq!(s.messages, p.messages);
            assert_eq!(s.rollbacks, p.rollbacks);
            assert_eq!(s.speedup.to_bits(), p.speedup.to_bits());
        }
    }

    #[test]
    fn parallel_heuristic_matches_serial_heuristic() {
        let nl = pipeline_netlist();
        let cfg = quick_cfg();
        let (serial, _) = heuristic_presim(&nl, 4, &cfg, Parallelism::Serial);
        let (par, _) = heuristic_presim(&nl, 4, &cfg, Parallelism::Threads(3));
        assert_eq!(serial.len(), par.len());
        for (s, p) in serial.iter().zip(&par) {
            assert_eq!((s.k, s.b.to_bits()), (p.k, p.b.to_bits()));
            assert_eq!(s.gate_blocks, p.gate_blocks);
            assert_eq!(s.speedup.to_bits(), p.speedup.to_bits());
        }
    }

    /// The Fig. 3 search as the paper writes it, one point at a time.
    fn sequential_heuristic(nl: &Netlist, max_k: u32, cfg: &PresimConfig) -> Vec<PresimPoint> {
        let mut points = Vec::new();
        for k in (2..=max_k).rev() {
            let mut prev_speedup = f64::NEG_INFINITY;
            let mut b = 7.5;
            while b < 15.0 {
                let point = presim_point(nl, k, b, cfg);
                let speedup = point.speedup;
                points.push(point);
                if speedup <= prev_speedup {
                    break; // first decrease for this k
                }
                prev_speedup = speedup;
                b += 2.5;
            }
        }
        points
    }

    #[test]
    fn heuristic_rounds_match_the_sequential_definition() {
        use dvs_workloads::random_hier::{generate_random_hier, RandomHierParams};
        let random_hier = |seed| {
            let src = generate_random_hier(&RandomHierParams {
                seed,
                ..Default::default()
            });
            parse_and_elaborate(&src).unwrap().into_netlist()
        };
        let mut sweep_lengths = std::collections::BTreeSet::new();
        for (nl, max_k) in [
            (pipeline_netlist(), 4),
            (random_hier(0), 4),
            (random_hier(2), 5),
        ] {
            let cfg = quick_cfg();
            let expected = sequential_heuristic(&nl, max_k, &cfg);
            let (points, rounds) = heuristic_presim(&nl, max_k, &cfg, Parallelism::Serial);
            let key = |p: &PresimPoint| (p.k, p.b.to_bits(), p.speedup.to_bits(), p.cut);
            assert_eq!(
                points.iter().map(key).collect::<Vec<_>>(),
                expected.iter().map(key).collect::<Vec<_>>()
            );
            for (p, e) in points.iter().zip(&expected) {
                assert_eq!(p.gate_blocks, e.gate_blocks);
            }
            let per_k = |k| points.iter().filter(|p| p.k == k).count();
            assert_eq!(rounds, (2..=max_k).map(per_k).max().unwrap());
            sweep_lengths.extend((2..=max_k).map(per_k));
        }
        // The case worth testing: sweeps that stop at different b.
        assert!(sweep_lengths.len() > 1, "sweeps {sweep_lengths:?}");
    }

    #[test]
    fn quality_measures_load_spread_and_violations() {
        let nl = pipeline_netlist();
        let cfg = quick_cfg();
        let p = presim_point(&nl, 2, 10.0, &cfg);
        assert_eq!(p.quality.cut, p.cut);
        assert!(p.quality.max_load >= p.quality.min_load);
        assert_eq!(
            p.quality.max_load + p.quality.min_load,
            nl.gate_count() as u64,
            "two blocks partition every gate"
        );
        assert_eq!(p.quality.balance_violations == 0, p.balanced);
    }

    #[test]
    fn timewarp_leg_yields_exact_reproducible_counters() {
        let nl = pipeline_netlist();
        let mut cfg = quick_cfg();
        cfg.timewarp = Some(TwPresimConfig {
            vectors: 40,
            ..TwPresimConfig::new(7)
        });
        let p1 = presim_point(&nl, 2, 10.0, &cfg);
        let p2 = presim_point(&nl, 2, 10.0, &cfg);
        let tw = p1.tw.as_ref().expect("tw leg enabled");
        assert_eq!(p1.tw, p2.tw, "same seed/schedule ⇒ identical counters");
        assert!(tw.events > 0);
        assert!(tw.gvt_rounds > 0);
        // Disabled leg stays disabled.
        cfg.timewarp = None;
        assert!(presim_point(&nl, 2, 10.0, &cfg).tw.is_none());
    }

    #[test]
    fn point_seed_is_a_pure_function_of_the_point() {
        let cfg = PresimConfig::paper_defaults();
        assert_eq!(point_seed(2, 7.5, &cfg), point_seed(2, 7.5, &cfg));
        assert_ne!(point_seed(2, 7.5, &cfg), point_seed(3, 7.5, &cfg));
        assert_ne!(point_seed(2, 7.5, &cfg), point_seed(2, 10.0, &cfg));
    }

    #[test]
    fn evaluate_partition_matches_presim_point() {
        // The shared measurement path must agree with the combined call.
        let nl = pipeline_netlist();
        let cfg = quick_cfg();
        let p = presim_point(&nl, 2, 10.0, &cfg);
        let cand = Candidate {
            k: 2,
            b: 10.0,
            gate_blocks: &p.gate_blocks,
            cut: p.cut,
            balanced: p.balanced,
        };
        let again = &evaluate_partitions(&nl, &[cand], &cfg, Parallelism::Serial)[0];
        assert_eq!(p.messages, again.messages);
        assert!((p.sim_seconds - again.sim_seconds).abs() < 1e-12);
    }
}
