//! Time Warp correctness on *real* workloads with *real* partitions:
//! the optimistic kernel must agree bit-for-bit with the sequential kernel
//! when driven by the design-driven partitioner's output — the combination
//! that the whole reproduction stands on.

use dvs_bench::scenario::{Circuit, Partition, Scenario};
use dvs_sim::timewarp::{SchedulePolicy, TimeWarpConfig};
use dvs_workloads::viterbi::ViterbiParams;

/// `circuit` under the design-driven (k, b) partition on the stock kernel
/// — `TimeWarpConfig::default()`: plain threads, its window and quantum.
fn stock(circuit: Circuit, k: u32, b: f64, cycles: u64, seed: u64) -> Scenario {
    let stock = TimeWarpConfig::default();
    Scenario {
        window: stock.window,
        epochs_per_quantum: stock.epochs_per_quantum,
        ..Scenario::new(circuit, Partition::Multiway { k, b }, seed, cycles)
    }
}

fn assert_bit_exact(circuit: Circuit, k: u32, b: f64, cycles: u64, seed: u64) {
    let case = stock(circuit, k, b, cycles, seed);
    let built = case.build();
    let label = format!("k={k}, seed={seed}");
    case.assert_sequential(&built, &case.run_ok(&built), &label);
}

#[test]
fn viterbi_tiny_on_partitioned_clusters() {
    for k in [2u32, 3] {
        assert_bit_exact(Circuit::Viterbi(ViterbiParams::tiny()), k, 15.0, 40, 3);
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
    assert_bit_exact(Circuit::Viterbi(p), 4, 20.0, 30, 9);
}

#[test]
fn counter_feedback_across_machines() {
    assert_bit_exact(Circuit::Counter { bits: 12 }, 2, 25.0, 50, 5);
    assert_bit_exact(Circuit::Counter { bits: 12 }, 3, 30.0, 50, 6);
}

/// Both seeds have a primary input no gate reads: it must end where the
/// stimulus leaves it, as in the sequential simulator.
#[test]
fn random_hierarchies_bit_exact() {
    for seed in [1u64, 8] {
        assert_bit_exact(Circuit::random_hier(seed), 2, 25.0, 35, seed);
    }
}

#[test]
fn deterministic_mode_matches_golden_counters() {
    // Under `Transport::InProc` the rollback machinery is exactly
    // reproducible, so we can pin the counters to golden values: any kernel
    // change that alters scheduling, annihilation, GVT sampling or fossil
    // collection shows up here as an exact diff, not a flaky tolerance.
    let base = Scenario::tiny_viterbi(3, 40);
    let built = base.build();

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
        let tw = base.in_proc(2008, policy).run_ok(&built);
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
    let good = stock(Circuit::Viterbi(ViterbiParams::tiny()), 2, 15.0, 30, 4);
    let bad = Scenario {
        partition: Partition::Blocks(vec![0, 1]),
        ..good.clone()
    };
    let (good_built, bad_built) = (good.build(), bad.build());
    assert!(bad_built.plan.cut_nets() > good_built.plan.cut_nets());

    let rg = good.run_ok(&good_built);
    let rb = bad.run_ok(&bad_built);
    assert!(
        rb.stats.messages > rg.stats.messages,
        "bad {} <= good {}",
        rb.stats.messages,
        rg.stats.messages
    );
}
