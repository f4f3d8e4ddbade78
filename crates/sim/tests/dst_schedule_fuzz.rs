//! Schedule-fuzz suite for the deterministic Time Warp executor.
//!
//! Random seeded schedules over random small `seqcirc` circuits and random
//! partitions must (a) finish in exactly the sequential simulator's state,
//! (b) replay to identical statistics for the same seed, and (c) never
//! violate the optimistic protocol's invariants, which the executor asserts
//! at every decision when checking is enabled:
//!
//! * no event below GVT is processed and no message below GVT is delivered;
//! * annihilation leaves no orphan tombstones at quiescence;
//! * fossil collection never reclaims history at or above GVT.
//!
//! A case is a [`Scenario`]; a failing one (circuit, partition, schedule,
//! seeds) is written to `target/tmp/dst_fuzz_failure_<test>_<case-hash>.txt`
//! and CI uploads the whole set.

use dvs_bench::scenario::{
    assert_same_run, policies, Circuit, Dump, Executor, Partition, Scenario,
};
use dvs_sim::timewarp::SchedulePolicy;
use proptest::prelude::*;

const DUMP: Dump = Dump::new(env!("CARGO_TARGET_TMPDIR"), "dst_fuzz_failure");

/// A case from the strategy's tuples. Policy 3 holds the plan's first cut
/// channel, 4 is the fuzzer's own fifth family; invariant checks are forced
/// on whatever the build profile.
fn case(
    (counter, bits, k, part_seed): (bool, u32, usize, u64),
    (stim_seed, seed, policy_sel): (u64, u64, u8),
    (window, epochs_per_quantum, cycles): (u64, usize, u64),
) -> Scenario {
    let circuit = Circuit::seqcirc(counter, bits);
    let partition = Partition::Random { k, seed: part_seed };
    let mut case = Scenario {
        window,
        epochs_per_quantum,
        ..Scenario::new(circuit, partition, stim_seed, cycles)
    };
    let policy = match policy_sel {
        4 => SchedulePolicy::Bursty,
        sel => policies(&case.build().plan)[sel as usize],
    };
    case.executor = Executor::Dst {
        seed,
        policy,
        check: true,
    };
    case
}

fn case_strategy() -> impl Strategy<Value = Scenario> {
    let circuit = (any::<bool>(), 2u32..6, 2usize..4, any::<u64>());
    let seeds = (any::<u64>(), any::<u64>(), 0u8..5);
    let kernel = (
        prop_oneof![Just(4u64), Just(16u64), Just(64u64)],
        prop_oneof![Just(1usize), Just(2usize), Just(16usize)],
        10u64..40,
    );
    (circuit, seeds, kernel).prop_map(|(circuit, seeds, kernel)| case(circuit, seeds, kernel))
}

fn run_case(case: &Scenario) {
    let built = case.build();
    let tw = case.run_ok(&built);
    // (a) Sequential equivalence on every driven net and primary input.
    case.assert_sequential(&built, &tw, "first run");
    // (b) Same seed ⇒ identical execution, counter for counter.
    assert_same_run(&case.run_ok(&built), &tw, "replay");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn random_schedules_match_sequential_and_replay(case in case_strategy()) {
        DUMP.with_dump(&case, "random_schedules", run_case);
    }
}

/// The named adversarial policies on a fixed counter and on a random
/// hierarchy with a primary input no gate reads, still invariant-clean and
/// sequential-equivalent (complements the random sweep above with
/// deterministic, always-run cases for each policy).
#[test]
fn named_policies_on_fixed_case() {
    for policy_sel in 0..5u8 {
        let counter = case((true, 4, 3, 11), (22, 33, policy_sel), (8, 2, 30));
        let hier = Scenario {
            circuit: Circuit::random_hier(8),
            partition: Partition::Multiway { k: 3, b: 25.0 },
            ..counter.clone()
        };
        DUMP.with_dump(&counter, "named_policies", run_case);
        DUMP.with_dump(&hier, "named_policies", run_case);
    }
}
