//! `fullscale_probe` — a one-point feasibility check of the paper-scale
//! (~1.1 M gate) decoder: generation, elaboration, design-driven
//! partitioning at (k=4, b=7.5), a 100-vector modeled cluster run, and the
//! same 100 vectors measured: `SeqSim` against the shipped kernel
//! (`Transport::Threads`, k=2 b=10 — the `decoder_1m_threads` shape), checked
//! net by net. The full `repro --scale full` grid takes hours; this answers
//! "does the stack handle a megagate netlist, and is the speedup positive?"
//! in seconds. See EXPERIMENTS.md §Running at full scale.
//!
//! Progress goes to stderr; the result is a schema-versioned JSON
//! artifact (the same serializers as the golden test and `repro`) on stdout, or
//! to a file with `--artifact PATH`.

use dvs_core::json::{uint_array, ObjBuilder, ToJson, SCHEMA_VERSION};
use dvs_core::PartitionQuality;
use std::time::Instant;

fn main() {
    let mut artifact_path: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--artifact" => {
                artifact_path = Some(args.next().unwrap_or_else(|| {
                    eprintln!("--artifact needs a path");
                    std::process::exit(2);
                }))
            }
            "--help" | "-h" => {
                println!("usage: fullscale_probe [--artifact PATH]");
                return;
            }
            other => {
                eprintln!("unknown argument `{other}` (see --help)");
                std::process::exit(2);
            }
        }
    }

    const K: u32 = 4;
    const B: f64 = 7.5;
    const VECTORS: u64 = 100;

    let p = dvs_workloads::viterbi::ViterbiParams::full_scale();
    let t0 = Instant::now();
    let src = dvs_workloads::viterbi::generate_viterbi(&p);
    eprintln!(
        "generated {} MB in {:.1?}",
        src.len() / 1_000_000,
        t0.elapsed()
    );
    let t0 = Instant::now();
    let nl = dvs_verilog::parse_and_elaborate(&src)
        .unwrap()
        .into_netlist();
    let elaborate_seconds = t0.elapsed().as_secs_f64();
    eprintln!(
        "elaborated {} gates, {} instances in {:.1}s",
        nl.gate_count(),
        nl.instance_count(),
        elaborate_seconds
    );
    let t0 = Instant::now();
    let r =
        dvs_core::multiway::partition_multiway(&nl, &dvs_core::multiway::MultiwayConfig::new(K, B));
    let partition_seconds = t0.elapsed().as_secs_f64();
    let quality = PartitionQuality::measure(&r.gate_blocks, r.cut, K, B, nl.gate_count() as u64);
    eprintln!(
        "dd partition: cut {} bal {} in {:.1}s",
        r.cut, r.balanced, partition_seconds
    );
    let t0 = Instant::now();
    let plan = dvs_sim::cluster::ClusterPlan::new(&nl, &r.gate_blocks, K as usize);
    let model = dvs_sim::cluster_model::ClusterModel::new(
        &nl,
        plan,
        dvs_sim::cluster_model::ClusterModelConfig::athlon_cluster(nl.gate_count()),
    );
    let stim = dvs_sim::stimulus::VectorStimulus::from_netlist(&nl, 10, 1);
    let run = model.run(&stim, VECTORS);
    let model_seconds = t0.elapsed().as_secs_f64();
    eprintln!(
        "modeled {VECTORS} vectors in {model_seconds:.1}s: speedup {:.2} msgs {}",
        run.speedup, run.stats.messages
    );

    // The measured leg: real wall-clock of the two event loops on the
    // vectors the model just ran. k = 2 because that is what fits two cores.
    const MEASURED_K: u32 = 2;
    const MEASURED_B: f64 = 10.0;
    let t0 = Instant::now();
    let mut seq = dvs_sim::seq::SeqSim::new(
        &nl,
        &dvs_sim::seq::SimConfig {
            cycles: VECTORS,
            init_zero: true,
        },
    );
    seq.run(&stim, VECTORS, &mut dvs_sim::seq::NullObserver);
    let seq_seconds = t0.elapsed().as_secs_f64();
    let seq_stats = seq.stats().clone();
    let evals_per_event = seq_stats.gate_evals as f64 / seq_stats.events as f64;
    let visited_per_event = seq.gates_visited() as f64 / seq_stats.events as f64;
    eprintln!(
        "SeqSim {VECTORS} vectors in {seq_seconds:.3}s: {} events, {} gate evals (triggered {evals_per_event:.1} / visited {visited_per_event:.1} evaluations per event)",
        seq_stats.events, seq_stats.gate_evals
    );
    let halves = dvs_core::multiway::partition_multiway(
        &nl,
        &dvs_core::multiway::MultiwayConfig::new(MEASURED_K, MEASURED_B),
    );
    let plan = dvs_sim::cluster::ClusterPlan::new(&nl, &halves.gate_blocks, MEASURED_K as usize);
    let t0 = Instant::now();
    let tw = dvs_sim::timewarp::run_timewarp(
        &nl,
        &plan,
        &stim,
        VECTORS,
        &dvs_sim::timewarp::TimeWarpConfig::default(),
    )
    .unwrap_or_else(|e| {
        eprintln!("Time Warp run failed: {e}");
        std::process::exit(1);
    });
    let threads_seconds = t0.elapsed().as_secs_f64();
    let wrong = seq.mismatches(&nl, &tw.values).len();
    if wrong > 0 || tw.recovery.degraded {
        eprintln!("Time Warp differs from SeqSim on {wrong} driven nets or inputs");
        std::process::exit(1);
    }
    let measured_speedup = seq_seconds / threads_seconds;
    let cluster_evals: Vec<u64> = tw.cluster_stats.iter().map(|c| c.gate_evals).collect();
    // Where the work is: a cluster's committed events, not its gate count,
    // bound what a second thread can take off the critical path.
    let committed: Vec<u64> = tw
        .cluster_stats
        .iter()
        .map(|c| c.committed_events())
        .collect();
    let heaviest_share = committed.iter().copied().max().unwrap_or(0) as f64
        / committed.iter().sum::<u64>().max(1) as f64;
    eprintln!(
        "Threads k={MEASURED_K} b={MEASURED_B} (loads {:?}) in {threads_seconds:.3}s: {} events executed, gate evals per cluster {cluster_evals:?}, {} messages, {} rollbacks",
        plan.loads(),
        tw.stats.events,
        tw.stats.messages,
        tw.stats.rollbacks
    );
    eprintln!(
        "committed events per cluster {committed:?}: the heaviest holds {:.0} % of the events",
        100.0 * heaviest_share
    );
    eprintln!(
        "measured speedup {measured_speedup:.2} (Threads k={MEASURED_K}, this host) beside modeled {:.2} (athlon cluster, k={K})",
        run.speedup
    );

    let artifact = ObjBuilder::new()
        .int("schema_version", SCHEMA_VERSION)
        .str("kind", "fullscale_probe")
        .field("design", dvs_verilog::stats::stats(&nl).to_json())
        .field(
            "partition",
            ObjBuilder::new()
                .uint("k", K as u64)
                .float("b", B)
                .bool("balanced", r.balanced)
                .field("quality", quality.to_json())
                .build(),
        )
        .uint("vectors", VECTORS)
        .field("run", run.to_json())
        .field(
            "host",
            ObjBuilder::new()
                .float("elaborate_seconds", elaborate_seconds)
                .float("partition_seconds", partition_seconds)
                .float("model_seconds", model_seconds)
                .uint("measured_k", MEASURED_K as u64)
                .uint("seq_events", seq_stats.events)
                .uint("seq_gate_evals", seq_stats.gate_evals)
                .uint("seq_gates_visited", seq.gates_visited())
                .float("evals_per_event", evals_per_event)
                .float("seq_seconds", seq_seconds)
                .uint("threads_gate_evals", cluster_evals.iter().sum())
                .field("threads_committed_events", uint_array(&committed))
                .float("heaviest_cluster_event_share", heaviest_share)
                .float("threads_seconds", threads_seconds)
                .float("measured_speedup", measured_speedup)
                .build(),
        )
        .build();
    let text = artifact.emit_pretty().expect("serialize probe artifact");
    match &artifact_path {
        Some(path) => {
            std::fs::write(path, &text).unwrap_or_else(|e| {
                eprintln!("cannot write `{path}`: {e}");
                std::process::exit(2);
            });
            eprintln!("wrote {path}");
        }
        None => print!("{text}"),
    }
}
