//! Clustered Time Warp demo: partition a circuit, run it optimistically,
//! validate bit-exact agreement with the sequential simulator, and report
//! protocol statistics.
//!
//! ```text
//! cargo run --release -p dvs-examples --bin timewarp_demo -- \
//!     [machines] [vectors] [--transport threads|inproc|process|tcp]
//! ```
//!
//! `--transport threads` (the default) runs one OS thread per cluster.
//! `--transport inproc` runs the deterministic single-threaded executor.
//! `--transport process` spawns one `tw_worker` OS process per cluster;
//! build it first (`cargo build --release -p dvs-bench --bin tw_worker`) so
//! the binary sits next to this demo.
//! `--transport tcp` binds a localhost listener and has each spawned
//! `tw_worker` dial back in over TCP (`tw_worker --connect`), exercising
//! the remote-worker wire path end to end on one machine.
//!
//! The three supervised transports run `SchedulePolicy::RoundRobin`, the
//! lock-step rounds `threads` runs, so all four print the same `artifact
//! fnv1a`: a 64-bit FNV-1a hash of the run's canonical artifact.

use dvs_core::multiway::{partition_multiway, MultiwayConfig};
use dvs_sim::cluster::ClusterPlan;
use dvs_sim::seq::{NullObserver, SeqSim, SimConfig};
use dvs_sim::stimulus::VectorStimulus;
use dvs_sim::timewarp::{run_timewarp, SchedulePolicy, TimeWarpConfig, Transport};
use dvs_sim::tw_run_canonical_json;
use dvs_workloads::viterbi::{generate_viterbi, ViterbiParams};
use std::time::Instant;

/// Demo seed for the deterministic transports, so repeated runs are
/// byte-for-byte reproducible.
const SCHED_SEED: u64 = 2008;

fn parse_transport(name: &str) -> Transport {
    match name {
        "threads" => Transport::Threads,
        "inproc" => Transport::in_proc(SCHED_SEED, SchedulePolicy::RoundRobin),
        "process" => Transport::process(SCHED_SEED, SchedulePolicy::RoundRobin),
        "tcp" => Transport::tcp(SCHED_SEED, SchedulePolicy::RoundRobin),
        other => {
            eprintln!("unknown transport `{other}` (expected threads|inproc|process|tcp)");
            std::process::exit(2);
        }
    }
}

fn main() {
    let mut machines: usize = 4;
    let mut vectors: u64 = 300;
    let mut transport = Transport::Threads;
    let mut positional = 0usize;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        if arg == "--transport" {
            let Some(name) = args.next() else {
                eprintln!("--transport needs a value (threads|inproc|process|tcp)");
                std::process::exit(2);
            };
            transport = parse_transport(&name);
        } else {
            match positional {
                0 => machines = arg.parse().unwrap_or(machines),
                _ => vectors = arg.parse().unwrap_or(vectors),
            }
            positional += 1;
        }
    }

    let params = ViterbiParams {
        constraint_len: 6,
        ..ViterbiParams::paper_class()
    };
    let src = generate_viterbi(&params);
    let nl = dvs_verilog::parse_and_elaborate(&src)
        .expect("decoder elaborates")
        .into_netlist();
    println!(
        "workload: {} gates; {machines} Time Warp clusters; {vectors} vectors",
        nl.gate_count()
    );

    // Partition with the paper's algorithm.
    let part = partition_multiway(&nl, &MultiwayConfig::new(machines as u32, 10.0));
    let plan = ClusterPlan::new(&nl, &part.gate_blocks, machines);
    println!(
        "partition: cut = {} nets, loads = {:?}",
        part.cut,
        plan.loads()
    );

    let stim = VectorStimulus::from_netlist(&nl, 10, 7);

    // Sequential reference.
    let t0 = Instant::now();
    let mut seq = SeqSim::new(
        &nl,
        &SimConfig {
            cycles: vectors,
            init_zero: true,
        },
    );
    seq.run(&stim, vectors, &mut NullObserver);
    let seq_time = t0.elapsed();
    println!(
        "\nsequential : {:.2?} ({} events, {} gate evals)",
        seq_time,
        seq.stats().events,
        seq.stats().gate_evals
    );

    // Optimistic parallel run over the selected transport.
    let twcfg = TimeWarpConfig {
        transport,
        ..TimeWarpConfig::default()
    };
    let t0 = Instant::now();
    let tw = run_timewarp(&nl, &plan, &stim, vectors, &twcfg).unwrap_or_else(|e| {
        eprintln!("time warp run failed: {e}");
        std::process::exit(1);
    });
    let tw_time = t0.elapsed();
    println!(
        "time warp  : {:.2?} over `{}` transport ({} events incl. re-execution)",
        tw_time,
        twcfg.transport.name(),
        tw.stats.events
    );
    println!("  messages      : {}", tw.stats.messages);
    println!("  anti-messages : {}", tw.stats.anti_messages);
    println!("  rollbacks     : {}", tw.stats.rollbacks);
    println!("  rolled-back ev: {}", tw.stats.rolled_back_events);
    println!("  GVT rounds    : {}", tw.gvt_rounds);
    let canonical = tw_run_canonical_json(&tw).emit().expect("canonical emit");
    let fnv1a = canonical.bytes().fold(0xcbf2_9ce4_8422_2325_u64, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    });
    println!("  artifact fnv1a: {fnv1a:016x}");
    // Where the work is: committed events per cluster beside the gate loads.
    let committed: Vec<u64> = tw
        .cluster_stats
        .iter()
        .map(|c| c.committed_events())
        .collect();
    println!(
        "  committed ev  : {committed:?} per cluster, the heaviest {:.0} % of them (gate loads {:?})",
        100.0 * committed.iter().copied().max().unwrap_or(0) as f64
            / committed.iter().sum::<u64>().max(1) as f64,
        plan.loads()
    );

    // Validate: every driven net and every primary input must agree with
    // the sequential result.
    let mismatches = seq.mismatches(&nl, &tw.values).len();
    if mismatches == 0 {
        println!(
            "\nvalidation: PASS — all {} driven nets bit-exact",
            nl.net_count()
        );
    } else {
        println!("\nvalidation: FAIL — {mismatches} nets differ");
        std::process::exit(1);
    }

    let ratio = seq_time.as_secs_f64() / tw_time.as_secs_f64();
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "measured speedup, sequential wall / time-warp wall: {ratio:.2}x \
         ({} clusters on `{}`, {cores} hardware threads)",
        plan.k,
        twcfg.transport.name()
    );
}
