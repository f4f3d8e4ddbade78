//! Regeneration of the paper's tables and figures.
//!
//! All experiments run over one generated Viterbi decoder workload and share
//! one [`ReproData`] cache so the same partitions feed Table 1 (cut), Table
//! 3 (pre-simulation), Table 4/5 (best partitions, full run) and Figures
//! 5–7 (time vs machines, messages, rollbacks) — exactly as the paper's
//! pipeline reuses its partitions.
//!
//! Scaling: the default `paper_scaled` configuration uses the 64-state
//! decoder (≈12 k gates, 457 module instances vs the paper's 388) with
//! 2 000 pre-simulation vectors and 20 000 full-run vectors; the cluster
//! model is calibrated so the *sequential time per vector* matches the
//! paper's testbed (38.93 s / 10 000 vectors), which preserves the
//! compute/communication balance that determines speedups. `full` switches
//! to the 4096-state, ≈1 M-gate decoder and the paper's vector counts.

use dvs_core::engine::{map_indexed, Parallelism};
use dvs_core::multiway::{partition_multiway_sweep, MultiwayConfig, MultiwayResult};
use dvs_core::presim::{evaluate_partitions, Candidate, PresimConfig, PresimPoint};
use dvs_core::report::{secs, speedup, Table};
use dvs_hmetis::{partition_kway, HmetisConfig};
use dvs_hypergraph::builder::{cut_size_gates, gate_level};
use dvs_sim::cluster::ClusterPlan;
use dvs_sim::cluster_model::{run_batch, ClusterRun};
use dvs_sim::stimulus::VectorStimulus;
use dvs_verilog::netlist::Netlist;
use dvs_verilog::stats::{stats, DesignStats};
use dvs_workloads::pipeline_soc::{generate_pipeline_soc, PipelineParams};
use dvs_workloads::viterbi::{generate_viterbi, ViterbiParams};
use std::time::{Duration, Instant};

/// Experiment scale and sweep configuration.
#[derive(Debug, Clone)]
pub struct ReproConfig {
    pub viterbi: ViterbiParams,
    /// Pre-simulation vectors (paper: 10 000).
    pub presim_vectors: u64,
    /// Full-simulation vectors (paper: 1 000 000).
    pub full_vectors: u64,
    pub ks: Vec<u32>,
    pub bs: Vec<f64>,
    pub seed: u64,
    /// Worker threads for the per-`k` grid fan-out (the b-sweep within one
    /// `k` is a feasible-envelope carry and stays sequential). Purely a
    /// host-performance knob: results are identical for every setting.
    pub parallelism: Parallelism,
}

impl ReproConfig {
    /// The default reproduction: paper-shaped decoder at 1/100 gate scale,
    /// vector counts scaled to keep total runtime around a minute.
    pub fn paper_scaled() -> Self {
        ReproConfig {
            viterbi: ViterbiParams::paper_class(),
            presim_vectors: 2_000,
            full_vectors: 20_000,
            ks: vec![2, 3, 4],
            bs: vec![2.5, 5.0, 7.5, 10.0, 12.5, 15.0],
            seed: 0xD5,
            parallelism: Parallelism::Auto,
        }
    }

    /// A seconds-scale smoke configuration for tests.
    pub fn quick() -> Self {
        ReproConfig {
            presim_vectors: 200,
            full_vectors: 600,
            bs: vec![5.0, 10.0, 15.0],
            ..Self::paper_scaled()
        }
    }

    /// Paper-scale: the 1 M-gate decoder with the paper's vector counts.
    /// Hours of compute — see EXPERIMENTS.md before running.
    pub fn full() -> Self {
        ReproConfig {
            viterbi: ViterbiParams::full_scale(),
            presim_vectors: 10_000,
            full_vectors: 1_000_000,
            ..Self::paper_scaled()
        }
    }
}

/// The generated workload.
pub struct Workload {
    pub nl: Netlist,
    pub stats: DesignStats,
}

/// Generate, parse and elaborate the Viterbi decoder.
pub fn build_workload(cfg: &ReproConfig) -> Workload {
    let src = generate_viterbi(&cfg.viterbi);
    let nl = dvs_verilog::parse_and_elaborate(&src)
        .expect("generated decoder must elaborate")
        .into_netlist();
    let stats = stats(&nl);
    Workload { nl, stats }
}

/// One design-driven grid point with its pre-simulation evaluation.
pub struct GridPoint {
    pub k: u32,
    pub b: f64,
    pub dd: MultiwayResult,
    pub dd_time: Duration,
    pub hm_cut: u64,
    pub hm_time: Duration,
    pub presim: PresimPoint,
}

/// Everything computed once and shared by all tables/figures.
pub struct ReproData {
    pub cfg: ReproConfig,
    pub grid: Vec<GridPoint>,
    /// `machines → (b → presim point index)` convenience index.
    pub seq_presim_seconds: f64,
}

/// Run the full grid: partition (design-driven sweep + hMetis baseline) and
/// pre-simulate every (k, b). The per-`k` column computations are
/// independent, so they fan out over `cfg.parallelism` worker threads; the
/// b-sweep within one `k` carries the feasible envelope forward and stays
/// sequential. The whole grid is then pre-simulated as one batch — one
/// profiling pass. Results are identical for every thread count — columns
/// are collected in `ks` order and nothing is seeded by schedule.
pub fn compute_grid(wl: &Workload, cfg: &ReproConfig) -> ReproData {
    let nl = &wl.nl;
    let gh = gate_level(nl);
    let mut presim_cfg = PresimConfig::paper_defaults();
    presim_cfg.vectors = cfg.presim_vectors;

    let columns = map_indexed(cfg.ks.len(), cfg.parallelism, |ki| {
        let k = cfg.ks[ki];
        // Design-driven sweep over b (ascending; feasible-envelope).
        let base = MultiwayConfig {
            seed: cfg.seed,
            ..MultiwayConfig::new(k, 0.0)
        };
        let t0 = Instant::now();
        let dd_sweep = partition_multiway_sweep(nl, k, &cfg.bs, &base);
        let dd_total = t0.elapsed();
        let dd_each = dd_total / cfg.bs.len() as u32;

        let mut column = Vec::with_capacity(cfg.bs.len());
        for (bi, &b) in cfg.bs.iter().enumerate() {
            let dd = dd_sweep[bi].clone();

            let t0 = Instant::now();
            let hm_cfg = HmetisConfig::with_balance(b, cfg.seed ^ 0x6417);
            let hm = partition_kway(&gh.hg, k, &hm_cfg);
            let hm_time = t0.elapsed();
            let hm_cut = cut_size_gates(nl, &gh.gate_blocks(&hm));
            column.push(GridPoint {
                k,
                b,
                dd,
                dd_time: dd_each,
                hm_cut,
                hm_time,
                presim: PresimPoint::default(), // filled in below
            });
        }
        column
    });
    let mut grid: Vec<GridPoint> = columns.into_iter().flatten().collect();
    let cands: Vec<Candidate> = grid
        .iter()
        .map(|g| Candidate {
            k: g.k,
            b: g.b,
            gate_blocks: &g.dd.gate_blocks,
            cut: g.dd.cut,
            balanced: g.dd.balanced,
        })
        .collect();
    let presims = evaluate_partitions(nl, &cands, &presim_cfg, cfg.parallelism);
    for (g, presim) in grid.iter_mut().zip(presims) {
        g.presim = presim;
    }
    let seq_secs = grid.last().map_or(0.0, |g| g.presim.seq_seconds);
    ReproData {
        cfg: cfg.clone(),
        grid,
        seq_presim_seconds: seq_secs,
    }
}

impl ReproData {
    /// The best (max pre-simulation speedup) grid point for machine count
    /// `k` — the paper's Table 4 selection.
    pub fn best_for_k(&self, k: u32) -> &GridPoint {
        self.grid
            .iter()
            .filter(|g| g.k == k)
            .max_by(|a, b| {
                a.presim
                    .speedup
                    .partial_cmp(&b.presim.speedup)
                    .expect("finite")
            })
            .expect("k must be in the grid")
    }
}

/// Table 1: hyperedge cut of the design-driven algorithm per (k, b).
pub fn table1(data: &ReproData) -> Table {
    let mut t = Table::new(vec!["k", "b", "Hyperedge cut"]);
    for g in &data.grid {
        t.row(vec![g.k.to_string(), trim(g.b), g.dd.cut.to_string()]);
    }
    t
}

/// Table 2: hyperedge cut of the hMetis baseline per (k, b), with the
/// partitioning-time comparison the paper discusses in §4.
pub fn table2(data: &ReproData) -> Table {
    let mut t = Table::new(vec![
        "k",
        "b",
        "Hyperedge cut",
        "hMetis time (s)",
        "design-driven time (s)",
    ]);
    for g in &data.grid {
        t.row(vec![
            g.k.to_string(),
            trim(g.b),
            g.hm_cut.to_string(),
            format!("{:.3}", g.hm_time.as_secs_f64()),
            format!("{:.3}", g.dd_time.as_secs_f64()),
        ]);
    }
    t
}

/// Table 3: pre-simulation time and speedup per (k, b).
pub fn table3(data: &ReproData) -> Table {
    let mut t = Table::new(vec![
        "k",
        "b",
        "cut-size",
        "Simulation time (Seconds)",
        "Speedup",
    ]);
    for g in &data.grid {
        t.row(vec![
            g.k.to_string(),
            trim(g.b),
            g.presim.cut.to_string(),
            secs(g.presim.sim_seconds),
            speedup(g.presim.speedup),
        ]);
    }
    t
}

/// Table 4: the best partition per k (largest pre-simulation speedup).
pub fn table4(data: &ReproData) -> Table {
    let mut t = Table::new(vec![
        "k",
        "b",
        "cut-size",
        "Simulation time (Seconds)",
        "Speedup",
    ]);
    for &k in &data.cfg.ks {
        let g = data.best_for_k(k);
        t.row(vec![
            g.k.to_string(),
            trim(g.b),
            g.presim.cut.to_string(),
            secs(g.presim.sim_seconds),
            speedup(g.presim.speedup),
        ]);
    }
    t
}

/// The full-length simulations every full-run table and figure reads: one
/// machine, and the best partition of each `k` — profiled in one pass.
pub struct FullRuns {
    /// One machine: the sequential run.
    pub seq: ClusterRun,
    /// The run of `data.best_for_k(k)`, in `ks` order.
    pub by_k: Vec<(u32, ClusterRun)>,
}

/// Simulate `cfg.full_vectors` vectors once and model the cluster under the
/// one-machine plan and under the best partition of each `k`.
pub fn full_runs(wl: &Workload, data: &ReproData) -> FullRuns {
    let nl = &wl.nl;
    let mut plans = vec![ClusterPlan::new(nl, &vec![0; nl.gate_count()], 1)];
    plans.extend(
        data.cfg
            .ks
            .iter()
            .map(|&k| ClusterPlan::new(nl, &data.best_for_k(k).presim.gate_blocks, k as usize)),
    );
    let plans: Vec<&ClusterPlan> = plans.iter().collect();
    let mcfg = PresimConfig::paper_defaults().model;
    let stim = VectorStimulus::from_netlist(nl, 10, 0x1234);
    let mut runs = run_batch(nl, &plans, &mcfg, &stim, data.cfg.full_vectors).into_iter();
    let seq = runs.next().expect("the one-machine plan leads the batch");
    FullRuns {
        seq,
        by_k: data.cfg.ks.iter().copied().zip(runs).collect(),
    }
}

/// Table 5: full-simulation time and speedup for the best (k, b) rows.
pub fn table5(data: &ReproData, full: &FullRuns) -> Table {
    let mut t = Table::new(vec![
        "k",
        "b",
        "cut-size",
        "Simulation time (Seconds)",
        "Speedup",
    ]);
    for (k, run) in &full.by_k {
        let g = data.best_for_k(*k);
        t.row(vec![
            g.k.to_string(),
            trim(g.b),
            g.presim.cut.to_string(),
            secs(run.wall_seconds),
            speedup(run.speedup),
        ]);
    }
    t
}

/// Figure 5: full-simulation time vs number of machines (1..=max k).
pub fn fig5(full: &FullRuns) -> Table {
    let mut t = Table::new(vec!["Machines", "Simulation time (Seconds)"]);
    t.row(vec!["1".to_string(), secs(full.seq.seq_seconds)]);
    for (k, run) in &full.by_k {
        t.row(vec![k.to_string(), secs(run.wall_seconds)]);
    }
    t
}

/// Figure 6: message count during pre-simulation, per machine count and b.
pub fn fig6(data: &ReproData) -> Table {
    per_b_by_machines(data, "Message number", |g| g.presim.messages)
}

/// Figure 7: rollback count during pre-simulation, per machine count and b.
pub fn fig7(data: &ReproData) -> Table {
    per_b_by_machines(data, "Rollback number", |g| g.presim.rollbacks)
}

fn per_b_by_machines(data: &ReproData, what: &str, f: impl Fn(&GridPoint) -> u64) -> Table {
    let mut headers = vec![format!("{what} / machines")];
    headers.extend(data.cfg.ks.iter().map(|k| k.to_string()));
    let mut t = Table::new(headers);
    for &b in &data.cfg.bs {
        let mut row = vec![format!("b={}", trim(b))];
        for &k in &data.cfg.ks {
            let g = data
                .grid
                .iter()
                .find(|g| g.k == k && g.b == b)
                .expect("full grid");
            row.push(f(g).to_string());
        }
        t.row(row);
    }
    t
}

/// The paper's §5 headline numbers: average cut ratio vs hMetis and the
/// best full-run speedup.
pub struct Headline {
    /// Geometric mean of (hMetis cut / design-driven cut) over the grid.
    pub cut_ratio_vs_hmetis: f64,
    /// Geometric mean of (hMetis partitioning time / design-driven time).
    pub time_ratio_vs_hmetis: f64,
    pub best_full_speedup: f64,
    pub best_k: u32,
    pub best_b: f64,
}

pub fn headline(data: &ReproData, full: &FullRuns) -> Headline {
    let mut cut_log = 0.0f64;
    let mut time_log = 0.0f64;
    for g in &data.grid {
        cut_log += (g.hm_cut.max(1) as f64 / g.dd.cut.max(1) as f64).ln();
        time_log += (g.hm_time.as_secs_f64().max(1e-9) / g.dd_time.as_secs_f64().max(1e-9)).ln();
    }
    let n = data.grid.len() as f64;
    let best_k = *data
        .cfg
        .ks
        .iter()
        .max_by(|&&a, &&b| {
            data.best_for_k(a)
                .presim
                .speedup
                .partial_cmp(&data.best_for_k(b).presim.speedup)
                .expect("finite")
        })
        .expect("non-empty ks");
    let g = data.best_for_k(best_k);
    let (_, run) = full
        .by_k
        .iter()
        .find(|(k, _)| *k == best_k)
        .expect("one full run per k");
    Headline {
        cut_ratio_vs_hmetis: (cut_log / n).exp(),
        time_ratio_vs_hmetis: (time_log / n).exp(),
        best_full_speedup: run.speedup,
        best_k,
        best_b: g.b,
    }
}

/// Supplementary regime analysis (not in the paper): design-driven vs the
/// flat multilevel baseline on two interconnect shapes — the paper's
/// shuffle-trellis decoder, where flat min-cut can split module internals
/// profitably, and a modular pipeline, where module boundaries are the
/// optimal cut. Quantifies when the paper's Table 1/2 ordering holds.
pub fn regime_table(cfg: &ReproConfig) -> Table {
    let mut t = Table::new(vec![
        "workload",
        "k",
        "dd cut",
        "hMetis cut",
        "dd time (ms)",
        "hMetis time (ms)",
    ]);
    let cases: Vec<(&str, String)> = vec![
        ("viterbi (shuffle trellis)", generate_viterbi(&cfg.viterbi)),
        (
            "pipeline SoC (modular)",
            generate_pipeline_soc(&PipelineParams::default()),
        ),
    ];
    for (name, src) in cases {
        let nl = dvs_verilog::parse_and_elaborate(&src)
            .expect("workload elaborates")
            .into_netlist();
        let gh = gate_level(&nl);
        for k in [2u32, 4] {
            let t0 = Instant::now();
            let dd = dvs_core::multiway::partition_multiway(&nl, &MultiwayConfig::new(k, 7.5));
            let dd_ms = t0.elapsed().as_secs_f64() * 1e3;
            let t0 = Instant::now();
            let hm = partition_kway(&gh.hg, k, &HmetisConfig::with_balance(7.5, cfg.seed));
            let hm_ms = t0.elapsed().as_secs_f64() * 1e3;
            let hm_cut = cut_size_gates(&nl, &gh.gate_blocks(&hm));
            t.row(vec![
                name.to_string(),
                k.to_string(),
                dd.cut.to_string(),
                hm_cut.to_string(),
                format!("{dd_ms:.1}"),
                format!("{hm_ms:.1}"),
            ]);
        }
    }
    t
}

fn trim(b: f64) -> String {
    if b.fract() == 0.0 {
        format!("{b:.0}")
    } else {
        format!("{b}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_data() -> (Workload, ReproData) {
        let mut cfg = ReproConfig::quick();
        cfg.ks = vec![2, 3];
        cfg.bs = vec![7.5, 15.0];
        cfg.presim_vectors = 60;
        cfg.full_vectors = 120;
        cfg.parallelism = Parallelism::Serial;
        // A smaller decoder keeps this unit test fast.
        cfg.viterbi = ViterbiParams {
            constraint_len: 5,
            metric_width: 4,
            survivor_depth: 8,
            bank_size: 8,
            uneven_banks: true,
            lanes: 1,
        };
        let wl = build_workload(&cfg);
        let data = compute_grid(&wl, &cfg);
        (wl, data)
    }

    #[test]
    fn grid_is_thread_count_invariant() {
        let (wl, serial_data) = quick_data();
        let mut cfg = serial_data.cfg.clone();
        cfg.parallelism = Parallelism::Threads(3);
        let par_data = compute_grid(&wl, &cfg);
        assert_eq!(serial_data.grid.len(), par_data.grid.len());
        for (s, p) in serial_data.grid.iter().zip(&par_data.grid) {
            assert_eq!((s.k, s.b.to_bits()), (p.k, p.b.to_bits()));
            assert_eq!(s.dd.cut, p.dd.cut);
            assert_eq!(s.dd.gate_blocks, p.dd.gate_blocks);
            assert_eq!(s.hm_cut, p.hm_cut);
            assert_eq!(s.presim.messages, p.presim.messages);
            assert_eq!(s.presim.speedup.to_bits(), p.presim.speedup.to_bits());
        }
    }

    #[test]
    fn grid_covers_all_combinations() {
        let (_, data) = quick_data();
        assert_eq!(data.grid.len(), 4);
        for g in &data.grid {
            assert!(g.dd.cut > 0, "a split trellis always has cut");
            assert!(g.presim.speedup > 0.0);
        }
    }

    #[test]
    fn tables_render_with_correct_shapes() {
        let (wl, data) = quick_data();
        assert_eq!(table1(&data).len(), 4);
        assert_eq!(table2(&data).len(), 4);
        assert_eq!(table3(&data).len(), 4);
        assert_eq!(table4(&data).len(), 2); // one row per k
        let full = full_runs(&wl, &data);
        assert_eq!(full.by_k.len(), 2);
        assert_eq!(table5(&data, &full).len(), 2);
        assert_eq!(fig5(&full).len(), 3); // machines 1, 2, 3
        assert_eq!(fig6(&data).len(), 2); // one row per b
        assert_eq!(fig7(&data).len(), 2);
    }

    #[test]
    fn sweep_cut_is_monotone_in_b() {
        let (_, data) = quick_data();
        for &k in &data.cfg.ks {
            let cuts: Vec<u64> = data
                .grid
                .iter()
                .filter(|g| g.k == k)
                .map(|g| g.dd.cut)
                .collect();
            assert!(
                cuts.windows(2).all(|w| w[1] <= w[0]),
                "k={k}: cuts {cuts:?} not non-increasing in b"
            );
        }
    }

    #[test]
    fn best_for_k_maximizes_speedup() {
        let (_, data) = quick_data();
        let best = data.best_for_k(2);
        for g in data.grid.iter().filter(|g| g.k == 2) {
            assert!(g.presim.speedup <= best.presim.speedup + 1e-12);
        }
    }

    #[test]
    fn headline_is_finite() {
        let (wl, data) = quick_data();
        let h = headline(&data, &full_runs(&wl, &data));
        assert!(h.cut_ratio_vs_hmetis.is_finite());
        assert!(h.time_ratio_vs_hmetis > 1.0, "design-driven must be faster");
        assert!(h.best_full_speedup > 0.0);
    }
}
