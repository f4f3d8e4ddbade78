//! Time Warp correctness on *real* workloads with *real* partitions:
//! the optimistic kernel must agree bit-for-bit with the sequential kernel
//! when driven by the design-driven partitioner's output — the combination
//! that the whole reproduction stands on.

use dvs_core::multiway::{partition_multiway, MultiwayConfig};
use dvs_integration_tests::elaborate;
use dvs_sim::cluster::ClusterPlan;
use dvs_sim::seq::{NullObserver, SeqSim, SimConfig};
use dvs_sim::stimulus::VectorStimulus;
use dvs_sim::timewarp::{run_timewarp, SchedulePolicy, TimeWarpConfig, Transport};
use dvs_workloads::random_hier::{generate_random_hier, RandomHierParams};
use dvs_workloads::seqcirc::generate_counter;
use dvs_workloads::viterbi::{generate_viterbi, ViterbiParams};

fn assert_bit_exact(src: &str, k: u32, b: f64, cycles: u64, seed: u64) {
    let nl = elaborate(src);
    let part = partition_multiway(&nl, &MultiwayConfig::new(k, b));
    let plan = ClusterPlan::new(&nl, &part.gate_blocks, k as usize);
    let stim = VectorStimulus::from_netlist(&nl, 10, seed);

    let mut seq = SeqSim::new(
        &nl,
        &SimConfig {
            cycles,
            init_zero: true,
        },
    );
    seq.run(&stim, cycles, &mut NullObserver);

    let tw = run_timewarp(&nl, &plan, &stim, cycles, &TimeWarpConfig::default())
        .expect("time warp run stalled");
    for (ni, net) in nl.nets.iter().enumerate() {
        if net.driver.is_some() {
            assert_eq!(
                tw.values[ni],
                seq.value(dvs_verilog::NetId(ni as u32)),
                "net `{}` differs (k={k}, seed={seed})",
                net.name
            );
        }
    }
}

#[test]
fn viterbi_tiny_on_partitioned_clusters() {
    let src = generate_viterbi(&ViterbiParams::tiny());
    for k in [2u32, 3] {
        assert_bit_exact(&src, k, 15.0, 40, 3);
    }
}

#[test]
fn viterbi_small_four_machines() {
    let p = ViterbiParams {
        constraint_len: 4,
        metric_width: 4,
        survivor_depth: 4,
        bank_size: 2,
        uneven_banks: true,
        lanes: 1,
    };
    let src = generate_viterbi(&p);
    assert_bit_exact(&src, 4, 20.0, 30, 9);
}

#[test]
fn counter_feedback_across_machines() {
    let src = generate_counter(12);
    assert_bit_exact(&src, 2, 25.0, 50, 5);
    assert_bit_exact(&src, 3, 30.0, 50, 6);
}

#[test]
fn random_hierarchies_bit_exact() {
    for seed in [1u64, 8] {
        let src = generate_random_hier(&RandomHierParams {
            seed,
            gates_per_module: 8,
            ..Default::default()
        });
        assert_bit_exact(&src, 2, 25.0, 35, seed);
    }
}

#[test]
fn deterministic_mode_matches_golden_counters() {
    // Under `Transport::InProc` the rollback machinery is exactly
    // reproducible, so we can pin the counters to golden values: any kernel
    // change that alters scheduling, annihilation, GVT sampling or fossil
    // collection shows up here as an exact diff, not a flaky tolerance.
    let src = generate_viterbi(&ViterbiParams::tiny());
    let nl = elaborate(&src);
    let part = partition_multiway(&nl, &MultiwayConfig::new(3, 20.0));
    let plan = ClusterPlan::new(&nl, &part.gate_blocks, 3);
    let stim = VectorStimulus::from_netlist(&nl, 10, 3);

    // (policy, events, rollbacks, anti_messages, messages, fossil, gvt_rounds)
    let golden = [
        (SchedulePolicy::RoundRobin, 15823, 114, 103, 835, 13413, 386),
        (
            SchedulePolicy::StragglerHeavy,
            89366,
            3042,
            2709,
            3441,
            13413,
            159,
        ),
    ];
    for (policy, events, rollbacks, anti, messages, fossil, gvt_rounds) in golden {
        let cfg = TimeWarpConfig::builder()
            .transport(Transport::in_proc(2008, policy))
            .window(8)
            .epochs_per_quantum(2)
            .gvt_interval(1)
            .build()
            .expect("valid config");
        let tw = run_timewarp(&nl, &plan, &stim, 40, &cfg).expect("time warp run stalled");
        let got = (
            policy,
            tw.stats.events,
            tw.stats.rollbacks,
            tw.stats.anti_messages,
            tw.stats.messages,
            tw.stats.fossil_collected,
            tw.gvt_rounds,
        );
        assert_eq!(
            got,
            (policy, events, rollbacks, anti, messages, fossil, gvt_rounds),
            "golden counters drifted for {}",
            policy.name()
        );
    }
}

#[test]
fn timewarp_stats_scale_with_cut() {
    // A worse partition (round-robin) must generate at least as many
    // messages as the design-driven one over the same run.
    let src = generate_viterbi(&ViterbiParams::tiny());
    let nl = elaborate(&src);
    let stim = VectorStimulus::from_netlist(&nl, 10, 4);

    let good = partition_multiway(&nl, &MultiwayConfig::new(2, 15.0));
    let bad: Vec<u32> = (0..nl.gate_count()).map(|i| (i % 2) as u32).collect();
    let good_plan = ClusterPlan::new(&nl, &good.gate_blocks, 2);
    let bad_plan = ClusterPlan::new(&nl, &bad, 2);
    assert!(bad_plan.cut_nets() > good_plan.cut_nets());

    let cfg = TimeWarpConfig::default();
    let rg = run_timewarp(&nl, &good_plan, &stim, 30, &cfg).expect("time warp run stalled");
    let rb = run_timewarp(&nl, &bad_plan, &stim, 30, &cfg).expect("time warp run stalled");
    assert!(
        rb.stats.messages > rg.stats.messages,
        "bad {} <= good {}",
        rb.stats.messages,
        rg.stats.messages
    );
}
