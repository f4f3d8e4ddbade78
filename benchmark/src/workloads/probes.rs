//! Probes only the traced run makes: layers the timed legs do not reach, or
//! reach only as part of a larger call.

use super::decoder::{tw_leg, Decoder, Reference, SCHED_SEED};
use super::Run;
use crate::stats::{quiet_quartile, Better};
use dvs_hmetis::{partition_kway, HmetisConfig};
use dvs_hypergraph::builder::{cut_size_gates, design_level, gate_level};
use dvs_json::{FromJson, Json, ToJson};
use dvs_sim::cluster::ClusterPlan;
use dvs_sim::cluster_model::{ClusterModel, ClusterModelConfig};
use dvs_sim::timewarp::proc::ClusterProcess;
use dvs_sim::timewarp::{Checkpoint, SchedulePolicy, StateSaving, Transport};
use dvs_verilog::flatten::Frontier;
use dvs_verilog::Netlist;
use dvs_workloads::viterbi::{generate_viterbi, ViterbiParams};
use std::collections::VecDeque;
use std::time::Instant;

/// The two hypergraph views the partitioners start from.
pub fn hypergraph_builds(run: &mut Run, nl: &Netlist) {
    let (_, gate_s) = run.tr.time("hypergraph.gate_level", || gate_level(nl));
    run.report("hypergraph.gate_level_build_s", gate_s);
    let (_, design_s) = run.tr.time("hypergraph.design_level", || {
        design_level(nl, &Frontier::initial(nl))
    });
    run.report("hypergraph.design_level_build_s", design_s);
}

/// The whole decoder as one Time Warp cluster: no message, no rollback, so
/// the wall over `SeqSim`'s (`sim.timewarp.k1.overhead_ratio`) is what the
/// kernel's forward path costs per event. It caps the k-cluster speedup at
/// k ÷ that ratio.
pub fn single_cluster(run: &mut Run, d: &Decoder, vectors: u64, reference: &Reference) {
    let plan = ClusterPlan::new(&d.nl, &vec![0; d.nl.gate_count()], 1);
    let leg = tw_leg(
        run,
        "sim.timewarp.k1",
        d,
        &plan,
        vectors,
        Transport::in_proc(SCHED_SEED, SchedulePolicy::RoundRobin),
        reference,
    );
    if let Some((_, wall)) = leg {
        run.report("sim.timewarp.k1.wall_s", wall);
    }
}

/// The calibrated cluster model on the same plan and vectors, so that its
/// modeled speedup prints beside the measured one.
pub fn cluster_model(run: &mut Run, d: &Decoder, vectors: u64) {
    let model = ClusterModel::new(
        &d.nl,
        d.plan.clone(),
        ClusterModelConfig::athlon_cluster(d.nl.gate_count()),
    );
    let (modeled, secs) = run
        .tr
        .time("sim.cluster_model.run", || model.run(&d.stim, vectors));
    run.report("sim.cluster_model.run_s", secs);
    run.report("sim.cluster_model.modeled_speedup", modeled.speedup);
}

/// What one GVT round's checkpoint costs on the wire transports, split into
/// capture, the checkpoint codec and the JSON emitter and parser under it.
/// The clusters are stepped in turn, messages delivered at once, to the
/// middle of the run; cluster 0 is then fossil-collected [`GVT_LAG`] behind
/// that point, as the GVT round of a quantum would leave it.
pub fn checkpoint_codec(run: &mut Run, d: &Decoder, vectors: u64) {
    const ROUNDS: usize = 15;
    /// Gate delays by which GVT trails the probed cluster's clock. With a GVT
    /// round every quantum little history survives a round; at this lag the
    /// image is about the size the process leg ships per round
    /// (`ckpt_bytes_per_gvt_round`).
    const GVT_LAG: u64 = 2;
    let open = run.tr.begin("sim.timewarp.checkpoint");
    let mut clusters: Vec<ClusterProcess> = (0..d.plan.k as u32)
        .map(|c| {
            let stim = d.stim.clone();
            ClusterProcess::new(
                &d.nl,
                &d.plan,
                c,
                stim,
                vectors,
                StateSaving::IncrementalUndo,
            )
        })
        .collect();
    let midway = d.stim.end_time(vectors) / 2;
    let mut in_flight = VecDeque::new();
    let mut sent = Vec::new();
    loop {
        let mut progressed = false;
        for c in 0..clusters.len() {
            progressed |= clusters[c].process_next_epoch(midway, &mut |m| in_flight.push_back(m));
            while let Some(m) = in_flight.pop_front() {
                clusters[m.dst as usize].handle_message(m, &mut |m| sent.push(m));
                in_flight.extend(sent.drain(..));
            }
        }
        if !progressed {
            break;
        }
    }
    let cluster = &mut clusters[0];
    let gvt = midway.saturating_sub(GVT_LAG);
    cluster.fossil_collect(gvt);

    let timed = |f: &mut dyn FnMut()| {
        let walls: Vec<f64> = (0..ROUNDS)
            .map(|_| {
                let t = Instant::now();
                f();
                t.elapsed().as_secs_f64()
            })
            .collect();
        quiet_quartile(&walls, Better::Lower)
    };
    let image = cluster.checkpoint(gvt);
    let tree = image.to_json();
    let text = tree.emit().expect("checkpoint serializes");
    let mb = text.len() as f64 / 1e6;

    let capture = timed(&mut || drop(std::hint::black_box(cluster.checkpoint(gvt))));
    let encode = timed(&mut || drop(std::hint::black_box(image.to_json().emit())));
    let decode = timed(&mut || {
        let parsed = Json::parse(std::hint::black_box(&text)).expect("parses back");
        drop(std::hint::black_box(Checkpoint::from_json(&parsed)));
    });
    let emit = timed(&mut || drop(std::hint::black_box(tree.emit())));
    let parse = timed(&mut || drop(std::hint::black_box(Json::parse(&text))));
    run.tr.end(open);

    let round_trip = Json::parse(&text).and_then(|j| Checkpoint::from_json(&j));
    run.op(
        "checkpoint round trip",
        match round_trip {
            Ok(back) if back.to_json() == tree => Ok(()),
            Ok(_) => Err("decoded image differs".into()),
            Err(e) => Err(e.to_string()),
        },
    );
    run.report("sim.timewarp.checkpoint.image_bytes", text.len() as f64);
    run.report("sim.timewarp.checkpoint.capture_us", capture * 1e6);
    run.report("sim.timewarp.checkpoint.encode_mb_per_s", mb / encode);
    run.report("sim.timewarp.checkpoint.decode_mb_per_s", mb / decode);
    run.report("json.emit_mb_per_s", mb / emit);
    run.report("json.parse_mb_per_s", mb / parse);
}

/// The hMetis-style baseline, k = 2, on a 42 958-gate decoder (a deeper
/// survivor memory on the paper-class trellis). It takes seconds there and
/// minutes at 210 k gates, so no larger; gated by nothing.
pub fn hmetis(run: &mut Run) {
    let params = ViterbiParams {
        survivor_depth: if run.opts.quick { 32 } else { 512 },
        ..ViterbiParams::paper_class()
    };
    let nl = dvs_verilog::parse_and_elaborate(&generate_viterbi(&params))
        .expect("generated decoder elaborates")
        .into_netlist();
    let gates = nl.gate_count();
    let graph = gate_level(&nl);
    let cfg = HmetisConfig::with_balance(10.0, HmetisConfig::default().seed);
    let (part, secs) = run.tr.time("hmetis.partition_kway", || {
        partition_kway(&graph.hg, 2, &cfg)
    });
    run.report("hmetis.partition_s", secs);
    run.report("hmetis.s_per_100k_gates", secs * 1e5 / gates as f64);
    let cut = cut_size_gates(&nl, &graph.gate_blocks(&part));
    run.report("hmetis.cut_nets", cut as f64);
}
