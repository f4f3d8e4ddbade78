//! Choosing (k, b): brute force vs the paper's Fig. 3 heuristic.
//!
//! The paper notes that "it is not practical to try all combinations of k
//! and b in a realistic environment" and proposes a greedy search. This
//! example runs both on the same circuit and reports how many
//! pre-simulation runs the heuristic saves and how close its pick is.
//!
//! ```text
//! cargo run --release -p dvs-examples --bin presim_tuning
//! ```

use dvs_core::presim::{best_point, brute_force_presim, heuristic_presim, PresimConfig};
use dvs_core::Parallelism;
use dvs_workloads::viterbi::{generate_viterbi, ViterbiParams};
use std::time::Instant;

fn main() {
    let params = ViterbiParams {
        constraint_len: 6, // 32 states keeps this example snappy
        ..ViterbiParams::paper_class()
    };
    let src = generate_viterbi(&params);
    let nl = dvs_verilog::parse_and_elaborate(&src)
        .expect("decoder elaborates")
        .into_netlist();
    println!(
        "workload: {} gates, {} module instances",
        nl.gate_count(),
        nl.instance_count()
    );

    let mut cfg = PresimConfig::paper_defaults();
    cfg.vectors = 300;

    // Brute force: the full Table 3 sweep.
    let ks = [2u32, 3, 4];
    let bs = [7.5, 10.0, 12.5];
    let t0 = Instant::now();
    let grid = brute_force_presim(&nl, &ks, &bs, &cfg, Parallelism::Serial);
    let brute_time = t0.elapsed();
    let best = best_point(&grid).expect("non-empty grid");
    println!(
        "\nbrute force: {} runs in {:.2?} -> best k={} b={} speedup={:.2}",
        grid.len(),
        brute_time,
        best.k,
        best.b,
        best.speedup
    );

    // Heuristic: paper Fig. 3.
    let t0 = Instant::now();
    let (points, _) = heuristic_presim(&nl, 4, &cfg, Parallelism::Serial);
    let heur_time = t0.elapsed();
    let runs = points.len();
    let hbest = best_point(&points).expect("at least one run");
    println!(
        "heuristic  : {} runs in {:.2?} -> best k={} b={} speedup={:.2}",
        runs, heur_time, hbest.k, hbest.b, hbest.speedup
    );

    let quality = hbest.speedup / best.speedup;
    println!(
        "\nheuristic found {:.0}% of the brute-force speedup using {} of {} runs",
        quality * 100.0,
        runs,
        grid.len()
    );
    if quality < 1.0 {
        println!("(the paper notes the heuristic \"could be trapped in the local minimum\")");
    }
}
