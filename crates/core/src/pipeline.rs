//! End-to-end flow: Verilog source → partition selection → full simulation.
//!
//! This is the library's front door for downstream users: hand a [`Flow`]
//! a synthesized netlist (or source text) and it runs the whole methodology
//! of the paper — parse and elaborate, pre-simulate the (k, b) candidates
//! (brute force or the Fig. 3 heuristic), pick the best partition, and run
//! the full-length simulation on the calibrated cluster model.
//!
//! Flows are constructed with [`FlowBuilder`]:
//!
//! ```no_run
//! use dvs_core::{FlowBuilder, Parallelism, Search};
//!
//! # let src = "";
//! let report = FlowBuilder::from_source(src)
//!     .search(Search::Heuristic { max_k: 4 })
//!     .parallelism(Parallelism::Threads(4))
//!     .build()?
//!     .run()?;
//! println!("chosen k={} b={}", report.chosen.k, report.chosen.b);
//! # Ok::<(), dvs_core::FlowError>(())
//! ```
//!
//! The `(k, b)` candidates are evaluated by a multi-threaded search engine
//! (see [`crate::engine`]). Every candidate derives its partitioner seed
//! from its own `(k, b, stim_seed)` via [`crate::presim::point_seed`] and
//! results are collected in grid order, so a [`Parallelism::Serial`] run
//! and a [`Parallelism::Threads`] run produce bit-identical reports.

use crate::engine::Parallelism;
use crate::presim::{
    best_point, brute_force_presim, heuristic_presim, PresimConfig, PresimPoint, TwPresimConfig,
    PERIOD,
};
use dvs_sim::cluster::ClusterPlan;
use dvs_sim::cluster_model::{ClusterModel, ClusterModelConfig, ClusterRun};
use dvs_sim::stimulus::VectorStimulus;
use dvs_verilog::stats::{stats, DesignStats};
use dvs_verilog::{Error, Netlist};
use std::borrow::Cow;
use std::fmt;
use std::time::Instant;

/// How to search the (k, b) space.
#[derive(Debug, Clone)]
pub enum Search {
    /// Evaluate every combination (paper Table 3).
    BruteForce { ks: Vec<u32>, bs: Vec<f64> },
    /// The paper's Fig. 3 heuristic, scanning k from `max_k` down to 2.
    Heuristic { max_k: u32 },
}

/// Why a flow could not be built or run.
#[derive(Debug)]
pub enum FlowError {
    /// The configured search describes no evaluable (k, b) point: empty
    /// `ks`/`bs` lists, a `k` of zero, or a heuristic `max_k` below 2.
    EmptySearchSpace {
        /// What exactly was empty or out of range.
        reason: String,
    },
    /// The Verilog source failed to parse or elaborate.
    Verilog(Error),
}

impl fmt::Display for FlowError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FlowError::EmptySearchSpace { reason } => {
                write!(f, "empty (k, b) search space: {reason}")
            }
            FlowError::Verilog(e) => write!(f, "verilog error: {e}"),
        }
    }
}

impl std::error::Error for FlowError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            FlowError::EmptySearchSpace { .. } => None,
            FlowError::Verilog(e) => Some(e),
        }
    }
}

impl From<Error> for FlowError {
    fn from(e: Error) -> Self {
        FlowError::Verilog(e)
    }
}

/// Flow configuration.
#[derive(Debug, Clone)]
pub struct FlowConfig {
    pub search: Search,
    pub presim: PresimConfig,
    /// Vectors for the full simulation (paper: 1 000 000).
    pub full_vectors: u64,
    /// Worker threads for the (k, b) search. The report is bit-identical
    /// for every setting; this only changes host wall time.
    pub parallelism: Parallelism,
}

/// Host wall time of one pre-simulation point, for [`FlowMetrics`].
#[derive(Debug, Clone, Copy)]
pub struct PointCost {
    pub k: u32,
    pub b: f64,
    /// Host seconds spent producing this point: partition + simulate, the
    /// latter including the point's equal share of its batch's one
    /// profiling pass (see
    /// [`PointTiming::simulate_seconds`](crate::presim::PointTiming)).
    pub seconds: f64,
}

/// Per-stage host wall times and work counters of one flow run. Wall times
/// are measurements on the reproducing machine — they differ run to run and
/// with the thread count, and are excluded from determinism comparisons.
/// The counters are deterministic.
#[derive(Debug, Clone, Default)]
pub struct FlowMetrics {
    /// Seconds spent parsing and elaborating the source (zero when the
    /// flow was built from an existing netlist).
    pub parse_elaborate_seconds: f64,
    /// Seconds spent in cone partitioning, summed over all presim points.
    pub cone_partition_seconds: f64,
    /// Seconds spent in pairwise FM refinement, summed over all points.
    pub pairwise_refine_seconds: f64,
    /// Host cost of each evaluated (k, b) point, in report order.
    pub point_costs: Vec<PointCost>,
    /// Wall seconds of the whole (k, b) search stage: per point its
    /// partition, plan and Time Warp legs, and `profile_passes` sequential
    /// simulations shared by all points. With a serial search this is the
    /// sum of `point_costs`; with a parallel search, less.
    pub search_seconds: f64,
    /// Wall seconds of the full-length simulation of the chosen partition.
    pub full_run_seconds: f64,
    /// Wall seconds of the whole flow run.
    pub total_seconds: f64,
    /// Super-gates flattened across all presim partitionings.
    pub flatten_events: u64,
    /// Pairwise FM invocations across all presim partitionings.
    pub fm_passes: u64,
    /// Pre-simulation runs spent: candidate points evaluated.
    pub presim_runs: u64,
    /// Sequential simulations the search ran to profile those points: one
    /// for a brute-force grid, one per round (at most three) for the
    /// heuristic. Host-side only — not in any artifact.
    pub profile_passes: u64,
    /// Worker threads the search actually used.
    pub search_workers: usize,
}

/// Everything the flow produced.
#[derive(Debug, Clone)]
pub struct FlowReport {
    /// Netlist statistics (module count, gate count, …).
    pub design: DesignStats,
    /// Every pre-simulation point evaluated, in deterministic grid/scan
    /// order (for the heuristic: k descending, b ascending within k).
    pub presim_points: Vec<PresimPoint>,
    /// The winning (k, b) point.
    pub chosen: PresimPoint,
    /// Number of pre-simulation runs spent.
    pub presim_runs: usize,
    /// Full-length simulation of the chosen partition.
    pub full: ClusterRun,
    /// Speedup of the full run (sequential / parallel modeled time).
    pub full_speedup: f64,
    /// Per-stage host timing and work counters.
    pub metrics: FlowMetrics,
}

enum Input<'a> {
    Source(&'a str),
    Netlist(&'a Netlist),
}

/// Builder for [`Flow`]. Construct with [`FlowBuilder::from_source`] or
/// [`FlowBuilder::from_netlist`], adjust knobs, then [`FlowBuilder::build`].
pub struct FlowBuilder<'a> {
    input: Input<'a>,
    search: Search,
    presim_vectors: Option<u64>,
    full_vectors: u64,
    parallelism: Parallelism,
    stim_seed: Option<u64>,
    part_seed: Option<u64>,
    timewarp_presim: Option<TwPresimConfig>,
}

impl<'a> FlowBuilder<'a> {
    fn new(input: Input<'a>) -> Self {
        FlowBuilder {
            input,
            search: Search::BruteForce {
                ks: vec![2, 3, 4],
                bs: vec![2.5, 5.0, 7.5, 10.0, 12.5, 15.0],
            },
            presim_vectors: None,
            full_vectors: 1_000_000,
            parallelism: Parallelism::Auto,
            stim_seed: None,
            part_seed: None,
            timewarp_presim: None,
        }
    }

    /// A flow that parses and elaborates Verilog source text in `build`.
    pub fn from_source(src: &'a str) -> Self {
        FlowBuilder::new(Input::Source(src))
    }

    /// A flow over an already-elaborated netlist.
    pub fn from_netlist(nl: &'a Netlist) -> Self {
        FlowBuilder::new(Input::Netlist(nl))
    }

    /// How to search the (k, b) space (default: the paper's brute-force
    /// grid, k ∈ {2,3,4} × b ∈ {2.5 … 15}).
    pub fn search(mut self, search: Search) -> Self {
        self.search = search;
        self
    }

    /// Vectors per pre-simulation run (paper: 10 000).
    pub fn presim_vectors(mut self, vectors: u64) -> Self {
        self.presim_vectors = Some(vectors);
        self
    }

    /// Vectors for the full simulation (paper: 1 000 000).
    pub fn full_vectors(mut self, vectors: u64) -> Self {
        self.full_vectors = vectors;
        self
    }

    /// Worker threads for the (k, b) search (default:
    /// [`Parallelism::Auto`]). Purely a host-performance knob: the report
    /// is bit-identical for every setting.
    pub fn parallelism(mut self, parallelism: Parallelism) -> Self {
        self.parallelism = parallelism;
        self
    }

    /// Seed for the stimulus generator (default: the presim config's).
    pub fn stim_seed(mut self, seed: u64) -> Self {
        self.stim_seed = Some(seed);
        self
    }

    /// Base seed for the partitioner; each (k, b) point derives its own
    /// seed from this via [`crate::presim::point_seed`] (default: the
    /// presim config's).
    pub fn part_seed(mut self, seed: u64) -> Self {
        self.part_seed = Some(seed);
        self
    }

    /// Additionally run each candidate partition under the deterministic
    /// Time Warp executor — the stock kernel, in process, under the
    /// config's seed and schedule — recording exact protocol counters
    /// (rollbacks, anti-messages, GVT rounds, fossil collections) in every
    /// [`PresimPoint::tw`]. Deterministic for any thread count, so the
    /// counters appear in canonical artifacts.
    pub fn timewarp_presim(mut self, tw: TwPresimConfig) -> Self {
        self.timewarp_presim = Some(tw);
        self
    }

    /// Validate the search space, parse the source if needed, and produce
    /// a runnable [`Flow`].
    pub fn build(self) -> Result<Flow<'a>, FlowError> {
        validate_search(&self.search)?;
        let (nl, parse_elaborate_seconds) = match self.input {
            Input::Netlist(nl) => (Cow::Borrowed(nl), 0.0),
            Input::Source(src) => {
                let t = Instant::now();
                let design = dvs_verilog::parse_and_elaborate(src)?;
                (Cow::Owned(design.into_netlist()), t.elapsed().as_secs_f64())
            }
        };
        let mut presim = PresimConfig::paper_defaults();
        if let Some(v) = self.presim_vectors {
            presim.vectors = v;
        }
        if let Some(s) = self.stim_seed {
            presim.stim_seed = s;
        }
        if let Some(s) = self.part_seed {
            presim.part_seed = s;
        }
        if let Some(tw) = self.timewarp_presim {
            presim.timewarp = Some(tw);
        }
        Ok(Flow {
            nl,
            cfg: FlowConfig {
                search: self.search,
                presim,
                full_vectors: self.full_vectors,
                parallelism: self.parallelism,
            },
            parse_elaborate_seconds,
        })
    }
}

fn validate_search(search: &Search) -> Result<(), FlowError> {
    let empty = |reason: String| FlowError::EmptySearchSpace { reason };
    match search {
        Search::BruteForce { ks, bs } => {
            if ks.is_empty() {
                return Err(empty("brute force with no k values".into()));
            }
            if bs.is_empty() {
                return Err(empty("brute force with no b values".into()));
            }
            if let Some(&k) = ks.iter().find(|&&k| k == 0) {
                return Err(empty(format!("k = {k} is not a valid machine count")));
            }
            if let Some(&b) = bs.iter().find(|&&b| !b.is_finite() || b < 0.0) {
                return Err(empty(format!("b = {b} is not a valid balance factor")));
            }
        }
        Search::Heuristic { max_k } => {
            if *max_k < 2 {
                return Err(empty(format!("heuristic needs max_k >= 2, got {max_k}")));
            }
        }
    }
    Ok(())
}

/// A validated, runnable flow. Construct with [`FlowBuilder`].
pub struct Flow<'a> {
    nl: Cow<'a, Netlist>,
    cfg: FlowConfig,
    parse_elaborate_seconds: f64,
}

impl fmt::Debug for Flow<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Flow")
            .field("gates", &self.netlist().gate_count())
            .field("cfg", &self.cfg)
            .finish_non_exhaustive()
    }
}

impl Flow<'_> {
    /// The elaborated netlist this flow will partition and simulate.
    pub fn netlist(&self) -> &Netlist {
        &self.nl
    }

    /// The resolved configuration.
    pub fn config(&self) -> &FlowConfig {
        &self.cfg
    }

    /// Run pre-simulation search and the full simulation. Deterministic:
    /// the report's semantic content (points, chosen partition, modeled
    /// times, counters) is bit-identical for every [`Parallelism`] setting;
    /// only the host wall times in [`FlowReport::metrics`] vary.
    pub fn run(&self) -> Result<FlowReport, FlowError> {
        let t_total = Instant::now();
        let nl = self.netlist();
        let cfg = &self.cfg;
        let design = stats(nl);

        let t_search = Instant::now();
        let (presim_points, profile_passes) = match &cfg.search {
            // The whole grid is one batch: one profiling pass.
            Search::BruteForce { ks, bs } => (
                brute_force_presim(nl, ks, bs, &cfg.presim, cfg.parallelism),
                1,
            ),
            Search::Heuristic { max_k } => {
                heuristic_presim(nl, *max_k, &cfg.presim, cfg.parallelism)
            }
        };
        let search_seconds = t_search.elapsed().as_secs_f64();
        let chosen = best_point(&presim_points)
            .ok_or_else(|| FlowError::EmptySearchSpace {
                reason: "search evaluated no points".into(),
            })?
            .clone();
        let presim_runs = presim_points.len();

        // Full simulation with the chosen partition.
        let t_full = Instant::now();
        let plan = ClusterPlan::new(nl, &chosen.gate_blocks, chosen.k as usize);
        let model = ClusterModel::new(
            nl,
            plan,
            ClusterModelConfig::athlon_cluster(nl.gate_count()),
        );
        let stim = VectorStimulus::from_netlist(nl, PERIOD, cfg.presim.stim_seed);
        let full = model.run(&stim, cfg.full_vectors);
        let full_run_seconds = t_full.elapsed().as_secs_f64();
        let full_speedup = full.speedup;

        let metrics = FlowMetrics {
            parse_elaborate_seconds: self.parse_elaborate_seconds,
            cone_partition_seconds: presim_points.iter().map(|p| p.timing.cone_seconds).sum(),
            pairwise_refine_seconds: presim_points.iter().map(|p| p.timing.refine_seconds).sum(),
            point_costs: presim_points
                .iter()
                .map(|p| PointCost {
                    k: p.k,
                    b: p.b,
                    seconds: p.timing.partition_seconds + p.timing.simulate_seconds,
                })
                .collect(),
            search_seconds,
            full_run_seconds,
            total_seconds: t_total.elapsed().as_secs_f64(),
            flatten_events: presim_points.iter().map(|p| p.timing.flattens as u64).sum(),
            fm_passes: presim_points
                .iter()
                .map(|p| p.timing.fm_rounds as u64)
                .sum(),
            presim_runs: presim_runs as u64,
            profile_passes: profile_passes as u64,
            search_workers: cfg.parallelism.workers_for(presim_runs.max(1)),
        };

        Ok(FlowReport {
            design,
            presim_points,
            chosen,
            presim_runs,
            full,
            full_speedup,
            metrics,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SRC: &str = r#"
        module top(clk, a, y);
          input clk, a; output y;
          wire w0, w1, w2, w3;
          buf bi (w0, a);
          blk u0 (clk, w0, w1);
          blk u1 (clk, w1, w2);
          blk u2 (clk, w2, w3);
          buf bo (y, w3);
        endmodule
        module blk(clk, i, o);
          input clk, i; output o;
          wire a, b;
          not g1 (a, i);
          xor g2 (b, a, i);
          dff g3 (o, clk, b);
        endmodule
    "#;

    fn quick_builder(search: Search) -> FlowBuilder<'static> {
        FlowBuilder::from_source(SRC)
            .search(search)
            .presim_vectors(40)
            .full_vectors(120)
    }

    #[test]
    fn brute_force_flow_end_to_end() {
        let report = quick_builder(Search::BruteForce {
            ks: vec![2, 3],
            bs: vec![10.0, 15.0],
        })
        .build()
        .unwrap()
        .run()
        .unwrap();
        assert_eq!(report.presim_runs, 4);
        assert_eq!(report.presim_points.len(), 4);
        assert!(report.chosen.k == 2 || report.chosen.k == 3);
        assert!(report.full.wall_seconds > 0.0);
        assert!(report.design.gates > 5);
        // Chosen point has the max speedup of the sweep.
        for p in &report.presim_points {
            assert!(p.speedup <= report.chosen.speedup + 1e-12);
        }
        // Metrics cover every stage of the run.
        assert!(report.metrics.parse_elaborate_seconds > 0.0);
        assert!(report.metrics.search_seconds > 0.0);
        assert!(report.metrics.full_run_seconds > 0.0);
        assert!(report.metrics.total_seconds >= report.metrics.search_seconds);
        assert_eq!(report.metrics.presim_runs, 4);
        // Four points, one sequential simulation (the full run is the other).
        assert_eq!(report.metrics.profile_passes, 1);
        assert_eq!(report.metrics.point_costs.len(), 4);
        assert!(report.metrics.fm_passes > 0);
        assert!(report.metrics.search_workers >= 1);
    }

    #[test]
    fn heuristic_flow_end_to_end() {
        let report = quick_builder(Search::Heuristic { max_k: 3 })
            .build()
            .unwrap()
            .run()
            .unwrap();
        assert!(report.presim_runs >= 2);
        assert_eq!(report.presim_points.len(), report.presim_runs);
        assert!((1..=3).contains(&report.metrics.profile_passes));
        assert!(report.chosen.k >= 2);
        assert!(report.full_speedup > 0.0);
    }

    #[test]
    fn parse_errors_are_typed() {
        let err = FlowBuilder::from_source("module broken(")
            .search(Search::Heuristic { max_k: 2 })
            .build()
            .unwrap_err();
        assert!(matches!(err, FlowError::Verilog(_)));
        assert!(err.to_string().contains("verilog"));
    }

    #[test]
    fn empty_search_space_is_typed_not_a_panic() {
        for search in [
            Search::BruteForce {
                ks: vec![],
                bs: vec![10.0],
            },
            Search::BruteForce {
                ks: vec![2],
                bs: vec![],
            },
            Search::BruteForce {
                ks: vec![0],
                bs: vec![10.0],
            },
            Search::Heuristic { max_k: 1 },
        ] {
            let err = quick_builder(search).build().unwrap_err();
            assert!(
                matches!(err, FlowError::EmptySearchSpace { .. }),
                "got {err:?}"
            );
        }
    }

    #[test]
    fn builder_seed_overrides_reach_presim() {
        let flow = quick_builder(Search::Heuristic { max_k: 2 })
            .stim_seed(0xABCD)
            .part_seed(0x42)
            .build()
            .unwrap();
        assert_eq!(flow.config().presim.stim_seed, 0xABCD);
        assert_eq!(flow.config().presim.part_seed, 0x42);
    }

    #[test]
    fn flow_from_netlist_borrows() {
        let nl = dvs_verilog::parse_and_elaborate(SRC)
            .unwrap()
            .into_netlist();
        let report = FlowBuilder::from_netlist(&nl)
            .search(Search::BruteForce {
                ks: vec![2],
                bs: vec![10.0],
            })
            .presim_vectors(40)
            .full_vectors(120)
            .build()
            .unwrap()
            .run()
            .unwrap();
        assert_eq!(report.chosen.k, 2);
        assert_eq!(report.metrics.parse_elaborate_seconds, 0.0);
    }
}
