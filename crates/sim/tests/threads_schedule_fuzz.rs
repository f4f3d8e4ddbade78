//! Determinism suite for the threaded Time Warp transport.
//!
//! [`Transport::Threads`] runs every cluster on its own OS thread, in
//! lock-step rounds; what a round does may not depend on which thread gets
//! there first. So every case runs twice, and both runs must leave
//! byte-identical canonical artifacts, match the sequential simulator on
//! every driven net and primary input, and ship every message the clusters
//! emitted exactly once. The deterministic supervisor's `RoundRobin` runs
//! the same rounds one cluster after another, so every case also runs
//! under `InProc { RoundRobin }`, which must leave `Threads`' artifact byte
//! for byte.
//!
//! A case is a [`Scenario`]; a failing one (circuit, partition, stimulus
//! seed, kernel knobs) is written to
//! `target/tmp/threads_fuzz_failure_<test>_<hash>.txt` — same dump
//! convention as the DST fuzzers, and CI uploads the set.
//!
//! [`Transport::Threads`]: dvs_sim::timewarp::Transport::Threads

use dvs_bench::scenario::{canonical, Circuit, Dump, Executor, Partition, Scenario};
use dvs_sim::timewarp::SchedulePolicy;
use proptest::prelude::*;

const DUMP: Dump = Dump::new(env!("CARGO_TARGET_TMPDIR"), "threads_fuzz_failure");

/// A case from the strategy's tuples.
fn case(
    (counter, bits, k, part_seed): (bool, u32, usize, u64),
    stim_seed: u64,
    (window, cycles): (u64, u64),
) -> Scenario {
    let circuit = Circuit::seqcirc(counter, bits);
    let partition = Partition::Random { k, seed: part_seed };
    Scenario {
        window,
        executor: Executor::Threads,
        ..Scenario::new(circuit, partition, stim_seed, cycles)
    }
}

fn case_strategy() -> impl Strategy<Value = Scenario> {
    let circuit = (any::<bool>(), 2u32..6, 2usize..4, any::<u64>());
    let kernel = (prop_oneof![Just(4u64), Just(16u64), Just(64u64)], 10u64..30);
    (circuit, any::<u64>(), kernel).prop_map(|(circuit, seed, kernel)| case(circuit, seed, kernel))
}

fn run_case(case: &Scenario) {
    let built = case.build();
    let first = case.run_ok(&built);
    let again = case.run_ok(&built);
    DUMP.expect_identical(&canonical(&first), &canonical(&again), "threads_rerun");
    let rounds = case.in_proc(0, SchedulePolicy::RoundRobin).run_ok(&built);
    DUMP.expect_identical(
        &canonical(&first),
        &canonical(&rounds),
        "threads_vs_inproc_rounds",
    );
    for tw in [&first, &again] {
        // Conservation: every message the clusters emitted was left in an
        // outbox exactly once, and no outbox was handed over empty.
        let emitted = tw.stats.messages + tw.stats.anti_messages;
        assert_eq!(
            emitted, tw.recovery.messages_sent,
            "emitted messages must equal shipped messages"
        );
        assert!(
            tw.recovery.frames_sent <= tw.recovery.messages_sent,
            "an outbox carries at least one message"
        );
        case.assert_sequential(&built, tw, "on threads");
    }
    assert_eq!(first.recovery, again.recovery, "the provenance diverged");
}

proptest! {
    // Real threads are slower than the deterministic executor, so the case
    // count is deliberately modest; the DST sweep covers schedule *space*,
    // this one covers the threaded executor on real threads.
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn threads_reruns_are_identical_and_sequential(case in case_strategy()) {
        DUMP.with_dump(&case, "threads_reruns", run_case);
    }
}

/// A fixed case — a deterministic, always-run complement to the random
/// sweep.
#[test]
fn fixed_case_reruns_identically() {
    let case = case((true, 4, 3, 11), 22, (8, 25));
    DUMP.with_dump(&case, "fixed_case_reruns_identically", run_case);
}
