//! `flow_search`: the paper's methodology end to end on the paper-class
//! decoder — parse, cone + pairwise FM, eighteen modeled pre-simulations,
//! selection, the full modeled run — and the partitioner alone at paper
//! scale. The Time Warp kernel and the wire do nothing here, so a change to
//! either must leave this workload where it was.

use super::decoder::{report_seq, seq_leg, timed_seq_leg};
use super::{front_end, partition_sample, probes, Run, PERIOD};
use dvs_core::multiway::{partition_multiway, MultiwayConfig};
use dvs_core::{FlowBuilder, FlowReport, Parallelism};
use dvs_sim::stimulus::VectorStimulus;
use dvs_workloads::viterbi::{generate_viterbi, ViterbiParams};

/// The paper's best configuration, at which the 1.1 M-gate decoder is cut.
const K: u32 = 4;
const B: f64 = 7.5;

pub fn flow_search(run: &mut Run) {
    let presim_vectors = run.vectors(200);
    let full_vectors = run.vectors(800);
    let seed = run.opts.seed;

    // Set-up: the 1.1 M-gate netlist the partitioner cuts, and the source
    // the flow parses itself plus its netlist for the `SeqSim` leg.
    let (big, big_part, source, small) = run.set_up(|run| {
        let big = front_end(run, &ViterbiParams::full_scale());
        let (big_part, _) = run.tr.time("core.partition_multiway", || {
            partition_multiway(&big, &MultiwayConfig::new(K, B))
        });
        let source = generate_viterbi(&ViterbiParams::paper_class());
        let small = dvs_verilog::parse_and_elaborate(&source)
            .expect("generated decoder elaborates")
            .into_netlist();
        (big, big_part, source, small)
    });
    let stim = VectorStimulus::from_netlist(&small, PERIOD, seed);

    let flow = |run: &mut Run| {
        run.tr.time("core.flow", || {
            FlowBuilder::from_source(&source)
                .presim_vectors(presim_vectors)
                .full_vectors(full_vectors)
                .parallelism(Parallelism::Serial)
                .stim_seed(seed)
                .build()
                .and_then(|flow| flow.run())
        })
    };

    // Warm-up. Every modeled run of the flow profiles its vectors on the
    // sequential kernel, so the events the flow simulates are exact:
    // one pre-simulation's events per (k, b) point plus the full run's.
    let (presim_events, reference, first) = run.warm_up(|run| {
        let presim_events = seq_leg(run, &small, &stim, presim_vectors).events;
        let reference = seq_leg(run, &small, &stim, full_vectors);
        let (first, _) = flow(run);
        let first = first.expect("the default search space is not empty");
        run.op("Flow warm-up", check_flow(&first, &first));
        (presim_events, reference, first)
    });
    let flow_events = presim_events * first.presim_runs as u64 + reference.events;
    if run.opts.trace {
        probes::hypergraph_builds(run, &big);
        probes::hmetis(run);
    }

    run.measure(|run, recorded| {
        timed_seq_leg(run, &small, &stim, full_vectors, &reference);
        let (report, wall) = flow(run);
        match report {
            Err(e) => run.op("Flow", Err(e.to_string())),
            Ok(report) => {
                run.op("Flow", check_flow(&report, &first));
                run.sample("committed_events_per_s", flow_events as f64 / wall);
                run.sample("core.flow_wall_s", wall);
                run.sample_primary_wall(recorded, wall);
                let m = &report.metrics;
                run.sample("core.search_s", m.search_seconds);
                for p in &m.point_costs {
                    run.sample("core.presim_point_s", p.seconds);
                }
            }
        }
        partition_sample(run, &big, K, B, &big_part);
    });

    report_seq(run, &reference);
    run.report_partition(&big_part);
    run.report("core.presim_runs", first.presim_runs as f64);
    run.report_trace_overhead();
}

/// A flow rep fails if its chosen partition is unbalanced or anything it
/// decided differs from the first run's.
fn check_flow(report: &FlowReport, first: &FlowReport) -> Result<(), String> {
    if !report.chosen.balanced {
        return Err(format!(
            "chosen partition k={} b={} is unbalanced",
            report.chosen.k, report.chosen.b
        ));
    }
    let decided = |r: &FlowReport| {
        let points: Vec<_> = r
            .presim_points
            .iter()
            .map(|p| (p.k, p.b.to_bits(), p.cut, p.speedup.to_bits(), p.balanced))
            .collect();
        (
            r.chosen.k,
            r.chosen.b.to_bits(),
            r.chosen.cut,
            r.full_speedup.to_bits(),
            points,
        )
    };
    if decided(report) != decided(first) {
        return Err(format!(
            "chose k={} b={} cut={}, the first run k={} b={} cut={}",
            report.chosen.k,
            report.chosen.b,
            report.chosen.cut,
            first.chosen.k,
            first.chosen.b,
            first.chosen.cut
        ));
    }
    Ok(())
}
