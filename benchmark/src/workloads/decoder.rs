//! The three `decoder_*` workloads: one Viterbi decoder, cut in two by the
//! design-driven partitioner, simulated by `SeqSim` and then by the Time Warp
//! kernel on the same vectors, every driven net compared after every run.

use super::{front_end, partition_sample, probes, Run, PERIOD};
use dvs_core::multiway::{partition_multiway, MultiwayConfig, MultiwayResult};
use dvs_sim::cluster::ClusterPlan;
use dvs_sim::logic::Logic;
use dvs_sim::seq::{NullObserver, SeqSim, SimConfig};
use dvs_sim::stimulus::VectorStimulus;
use dvs_sim::timewarp::{run_timewarp, SchedulePolicy, TimeWarpConfig, Transport, TwRunResult};
use dvs_sim::tw_run_canonical_json;
use dvs_verilog::{NetId, Netlist};
use dvs_workloads::viterbi::ViterbiParams;

/// Clusters wherever wall-clock is read: the sandbox has two cores, so k = 4
/// would oversubscribe and only its counts would mean anything.
const K: u32 = 2;
const B: f64 = 10.0;

/// Seed of the deterministic transports' scheduler (the demo's).
pub const SCHED_SEED: u64 = 2008;

pub struct Decoder {
    pub nl: Netlist,
    pub part: MultiwayResult,
    pub plan: ClusterPlan,
    pub stim: VectorStimulus,
}

/// Generate → parse → elaborate → partition → `ClusterPlan` → stimulus.
fn set_up(run: &mut Run, params: &ViterbiParams) -> Decoder {
    let nl = front_end(run, params);
    let (part, _) = run.tr.time("core.partition_multiway", || {
        partition_multiway(&nl, &MultiwayConfig::new(K, B))
    });
    let (plan, plan_s) = run.tr.time("sim.cluster.plan", || {
        ClusterPlan::new(&nl, &part.gate_blocks, K as usize)
    });
    run.sample("sim.cluster.plan_s", plan_s);
    let stim = VectorStimulus::from_netlist(&nl, PERIOD, run.opts.seed);
    Decoder {
        nl,
        part,
        plan,
        stim,
    }
}

fn report_set_up(run: &mut Run, d: &Decoder) {
    run.report("sim.cluster.cut_nets", d.plan.cut_nets() as f64);
    let loads = d.plan.loads();
    let mean = loads.iter().sum::<u64>() as f64 / loads.len() as f64;
    let heaviest = loads.iter().copied().max().unwrap_or(0) as f64;
    run.report("sim.cluster.load_imbalance", heaviest / mean);
}

/// What `SeqSim` computed: the reference every other leg is held to.
pub struct Reference {
    pub events: u64,
    pub values: Vec<Logic>,
}

/// One `SeqSim::new` + `run` over `vectors`, timed as a whole.
pub fn seq_leg(run: &mut Run, nl: &Netlist, stim: &VectorStimulus, vectors: u64) -> Reference {
    let cfg = SimConfig {
        cycles: vectors,
        init_zero: true,
    };
    let leg = run.tr.begin("sim.seq");
    let (mut seq, init_s) = run.tr.time("sim.seq.new", || SeqSim::new(nl, &cfg));
    let (_, run_s) = run
        .tr
        .time("sim.seq.run", || seq.run(stim, vectors, &mut NullObserver));
    let wall = run.tr.end(leg);
    let events = seq.stats().events;
    run.sample("sim.seq.init_s", init_s);
    run.sample("sim.seq.run_s", run_s);
    run.sample("sim.seq.ns_per_event", wall * 1e9 / events as f64);
    run.sample("seq_wall_s", wall);
    run.sample("seq_events_per_s", events as f64 / wall);
    Reference {
        events,
        values: (0..nl.net_count())
            .map(|i| seq.value(NetId(i as u32)))
            .collect(),
    }
}

/// A timed `SeqSim` rep must reproduce the warm-up's reference exactly.
pub fn timed_seq_leg(
    run: &mut Run,
    nl: &Netlist,
    stim: &VectorStimulus,
    vectors: u64,
    reference: &Reference,
) {
    let again = seq_leg(run, nl, stim, vectors);
    let same = again.events == reference.events && again.values == reference.values;
    run.op(
        "SeqSim rep",
        same.then_some(())
            .ok_or_else(|| "differs from the warm-up run".to_string()),
    );
}

pub fn report_seq(run: &mut Run, reference: &Reference) {
    run.report("sim.seq.events", reference.events as f64);
    if let Some(&k1_wall) = run.values.get("sim.timewarp.k1.wall_s") {
        let seq_wall = run.estimate("seq_wall_s");
        run.report("sim.timewarp.k1.overhead_ratio", k1_wall / seq_wall);
    }
}

/// One `run_timewarp` over `transport` with every other knob at its default.
/// The run fails if it errs, degraded to the sequential simulator, or
/// differs from `SeqSim` on any driven net. Returns the result and its wall.
pub fn tw_leg(
    run: &mut Run,
    span: &'static str,
    d: &Decoder,
    plan: &ClusterPlan,
    vectors: u64,
    transport: Transport,
    reference: &Reference,
) -> Option<(TwRunResult, f64)> {
    let nl = &d.nl;
    let mut cfg = TimeWarpConfig::default();
    cfg.transport = transport;
    let (result, wall) = run
        .tr
        .time(span, || run_timewarp(nl, plan, &d.stim, vectors, &cfg));
    let checked = match &result {
        Err(e) => Err(e.to_string()),
        Ok(r) if r.recovery.degraded => Err("degraded to the sequential simulator".into()),
        Ok(r) => {
            let wrong = nl
                .nets
                .iter()
                .enumerate()
                .filter(|(i, net)| net.driver.is_some() && r.values[*i] != reference.values[*i])
                .count();
            if wrong == 0 {
                Ok(())
            } else {
                Err(format!("{wrong} driven nets differ from SeqSim"))
            }
        }
    };
    let ok = checked.is_ok();
    run.op(span, checked);
    result.ok().filter(|_| ok).map(|r| (r, wall))
}

/// `decoder_1m_threads` and `decoder_12k_threads`: `SeqSim`, then
/// `Transport::Threads`, in pairs.
pub fn threads(run: &mut Run, params: ViterbiParams, full_vectors: u64) {
    let vectors = run.vectors(full_vectors);
    let d = run.set_up(|run| set_up(run, &params));
    report_set_up(run, &d);

    let reference = run.warm_up(|run| {
        let reference = seq_leg(run, &d.nl, &d.stim, vectors);
        threads_leg(run, &d, vectors, &reference, false);
        reference
    });
    if run.opts.trace {
        probes::hypergraph_builds(run, &d.nl);
        probes::single_cluster(run, &d, vectors, &reference);
        // The exact-count view of the kernel and the calibrated model are
        // affordable on the 12 k-gate decoder only.
        if d.nl.gate_count() < 100_000 {
            in_proc_leg(run, &d, vectors, &reference);
            probes::cluster_model(run, &d, vectors);
        }
    }

    run.measure(|run, recorded| {
        timed_seq_leg(run, &d.nl, &d.stim, vectors, &reference);
        threads_leg(run, &d, vectors, &reference, recorded);
        partition_sample(run, &d.nl, K, B, &d.part);
    });

    report_seq(run, &reference);
    run.report_partition(&d.part);
    report_threads(run);
    run.report_trace_overhead();
}

fn threads_leg(run: &mut Run, d: &Decoder, vectors: u64, reference: &Reference, recorded: bool) {
    let leg = tw_leg(
        run,
        "sim.timewarp.threads",
        d,
        &d.plan,
        vectors,
        Transport::Threads,
        reference,
    );
    let Some((r, wall)) = leg else { return };
    let committed = reference.events as f64;
    run.sample("committed_events_per_s", committed / wall);
    run.sample("sim.timewarp.threads.wall_s", wall);
    run.sample_primary_wall(recorded, wall);
    let s = &r.stats;
    run.sample("sim.timewarp.threads.executed_events", s.events as f64);
    run.sample(
        "sim.timewarp.threads.rolled_back_events",
        s.rolled_back_events as f64,
    );
    run.sample(
        "sim.timewarp.threads.useful_fraction",
        committed / s.events as f64,
    );
    run.sample("sim.timewarp.threads.rollbacks", s.rollbacks as f64);
    run.sample("sim.timewarp.threads.messages", s.messages as f64);
    run.sample("sim.timewarp.threads.anti_messages", s.anti_messages as f64);
    run.sample("sim.timewarp.threads.gvt_rounds", r.gvt_rounds as f64);
    run.sample(
        "sim.timewarp.threads.ns_per_committed_event",
        wall * 1e9 / committed,
    );
}

fn report_threads(run: &mut Run) {
    let (q1, _, q3) = crate::stats::quartiles(run.samples_of("sim.timewarp.threads.wall_s"));
    run.report("sim.timewarp.threads.wall_iqr_s", q3 - q1);
    // Reported, never gated: a faster SeqSim must not score as a regression.
    let speedup = run.estimate("committed_events_per_s") / run.estimate("seq_events_per_s");
    run.report("sim.timewarp.threads.speedup_measured", speedup);
}

/// k = 2 on the deterministic in-process executor: the same kernel with
/// seed-exact counters. Returns the run's canonical artifact.
fn in_proc_leg(run: &mut Run, d: &Decoder, vectors: u64, reference: &Reference) -> Option<String> {
    let (r, wall) = tw_leg(
        run,
        "sim.timewarp.inproc",
        d,
        &d.plan,
        vectors,
        Transport::in_proc(SCHED_SEED, SchedulePolicy::RoundRobin),
        reference,
    )?;
    run.report("sim.timewarp.inproc.wall_s", wall);
    let s = &r.stats;
    run.report("sim.timewarp.inproc.executed_events", s.events as f64);
    run.report(
        "sim.timewarp.inproc.rolled_back_events",
        s.rolled_back_events as f64,
    );
    run.report("sim.timewarp.inproc.messages", s.messages as f64);
    run.report("sim.timewarp.inproc.anti_messages", s.anti_messages as f64);
    run.report("sim.timewarp.inproc.rollbacks", s.rollbacks as f64);
    run.report("sim.timewarp.inproc.gvt_rounds", r.gvt_rounds as f64);
    tw_run_canonical_json(&r).emit().ok()
}

/// `decoder_6k_process`: one OS process per cluster over Unix sockets, with
/// the benchmark's own worker binary, against the in-process run of the
/// identical decision sequence.
pub fn process(run: &mut Run, full_vectors: u64) {
    let vectors = run.vectors(full_vectors);
    let params = ViterbiParams {
        constraint_len: 6,
        ..ViterbiParams::paper_class()
    };
    let worker = std::env::current_exe()
        .expect("own path")
        .with_file_name("bench_worker");
    assert!(
        worker.is_file(),
        "{} is not built; build every binary of the benchmark crate",
        worker.display()
    );
    // The supervisor binds its sockets under the temporary directory: keep
    // them inside the checkout, by a relative path so that `sun_path` fits.
    let sockets = crate::out_dir().join("sockets");
    std::fs::create_dir_all(&sockets).expect("socket directory");
    std::env::set_var("TMPDIR", &sockets);
    let transport =
        || Transport::process_with_worker(SCHED_SEED, SchedulePolicy::RoundRobin, worker.clone());

    let d = run.set_up(|run| set_up(run, &params));
    report_set_up(run, &d);

    let (reference, canonical) = run.warm_up(|run| {
        let reference = seq_leg(run, &d.nl, &d.stim, vectors);
        let canonical = in_proc_leg(run, &d, vectors, &reference);
        process_leg(run, &d, vectors, transport(), &reference, &canonical, false);
        (reference, canonical)
    });
    if run.opts.trace {
        probes::hypergraph_builds(run, &d.nl);
        probes::single_cluster(run, &d, vectors, &reference);
        probes::checkpoint_codec(run, &d, vectors);
    }

    run.measure(|run, recorded| {
        timed_seq_leg(run, &d.nl, &d.stim, vectors, &reference);
        process_leg(
            run,
            &d,
            vectors,
            transport(),
            &reference,
            &canonical,
            recorded,
        );
        partition_sample(run, &d.nl, K, B, &d.part);
    });

    report_seq(run, &reference);
    run.report_partition(&d.part);
    if let Some(&in_proc_wall) = run.values.get("sim.timewarp.inproc.wall_s") {
        let ratio = run.estimate("sim.timewarp.process.wall_s") / in_proc_wall;
        run.report("sim.timewarp.process.wire_overhead_ratio", ratio);
    }
    run.report_trace_overhead();
}

/// One `Transport::Process` run, worker spawn included. Its canonical
/// artifact must be byte-identical to the in-process leg's — which makes it
/// identical across reps too.
fn process_leg(
    run: &mut Run,
    d: &Decoder,
    vectors: u64,
    transport: Transport,
    reference: &Reference,
    canonical: &Option<String>,
    recorded: bool,
) {
    let leg = tw_leg(
        run,
        "sim.timewarp.process",
        d,
        &d.plan,
        vectors,
        transport,
        reference,
    );
    let Some((r, wall)) = leg else { return };
    let same = tw_run_canonical_json(&r).emit().ok() == *canonical && canonical.is_some();
    run.op(
        "canonical artifact",
        same.then_some(())
            .ok_or_else(|| "process and in-process artifacts differ".to_string()),
    );
    run.sample("committed_events_per_s", reference.events as f64 / wall);
    run.sample("sim.timewarp.process.wall_s", wall);
    run.sample_primary_wall(recorded, wall);
    let rec = &r.recovery;
    run.sample("sim.timewarp.process.frames_sent", rec.frames_sent as f64);
    run.sample(
        "sim.timewarp.process.messages_sent",
        rec.messages_sent as f64,
    );
    run.sample(
        "sim.timewarp.process.checkpoint_bytes_full",
        rec.checkpoint_bytes_full as f64,
    );
    run.sample(
        "sim.timewarp.process.ckpt_bytes_per_gvt_round",
        rec.checkpoint_bytes_full as f64 / r.gvt_rounds.max(1) as f64,
    );
}
