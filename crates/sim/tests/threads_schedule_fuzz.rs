//! Scheduler-noise fuzz suite for the real-thread Time Warp transport.
//!
//! The deterministic executor (`dst_schedule_fuzz`) proves the protocol
//! correct under *chosen* adversarial schedules; this suite attacks the
//! same property from the other side, with *real* OS-thread interleavings
//! perturbed by seeded jitter ([`TimeWarpConfig::thread_jitter`]): each
//! worker rolls a per-quantum chance to sleep tens of microseconds or
//! yield its timeslice, so quantum boundaries land in places the OS
//! scheduler would rarely pick on an idle machine — stragglers, bursty
//! channels, mid-window preemption. Whatever the interleaving, the final
//! state must match the sequential simulator on every driven net and
//! primary input.
//!
//! A case is a [`Scenario`]; a failing one (circuit, partition, jitter seed,
//! kernel knobs) is written to
//! `target/tmp/threads_fuzz_failure_<test>_<hash>.txt` — same dump
//! convention as the DST fuzzers, and CI uploads the set.
//!
//! [`TimeWarpConfig::thread_jitter`]: dvs_sim::timewarp::TimeWarpConfig::thread_jitter

use dvs_bench::scenario::{Circuit, Dump, Executor, Partition, Scenario};
use proptest::prelude::*;

const DUMP: Dump = Dump::new(env!("CARGO_TARGET_TMPDIR"), "threads_fuzz_failure");

/// A case from the strategy's tuples.
fn case(
    (counter, bits, k, part_seed): (bool, u32, usize, u64),
    (stim_seed, jitter_seed): (u64, u64),
    (window, epochs_per_quantum, cycles): (u64, usize, u64),
) -> Scenario {
    let circuit = Circuit::seqcirc(counter, bits);
    let partition = Partition::Random { k, seed: part_seed };
    let jitter = Some(jitter_seed);
    Scenario {
        window,
        epochs_per_quantum,
        executor: Executor::Threads { jitter },
        ..Scenario::new(circuit, partition, stim_seed, cycles)
    }
}

fn case_strategy() -> impl Strategy<Value = Scenario> {
    let circuit = (any::<bool>(), 2u32..6, 2usize..4, any::<u64>());
    let seeds = (any::<u64>(), any::<u64>());
    let kernel = (
        prop_oneof![Just(4u64), Just(16u64), Just(64u64)],
        prop_oneof![Just(1usize), Just(2usize), Just(16usize)],
        10u64..30,
    );
    (circuit, seeds, kernel).prop_map(|(circuit, seeds, kernel)| case(circuit, seeds, kernel))
}

fn run_case(case: &Scenario) {
    let built = case.build();
    let tw = case.run_ok(&built);

    // Conservation: every message the clusters emitted was shipped into a
    // channel exactly once, one message per push.
    let emitted = tw.stats.messages + tw.stats.anti_messages;
    assert_eq!(
        emitted, tw.recovery.messages_sent,
        "emitted messages must equal shipped messages"
    );
    assert_eq!(
        tw.recovery.frames_sent, tw.recovery.messages_sent,
        "sends ship one message per push"
    );

    // Sequential equivalence on every driven net and primary input — the
    // jitter may change *when* rollbacks happen, never *what* converges.
    case.assert_sequential(&built, &tw, "under jitter");
}

proptest! {
    // Real threads are slower than the deterministic executor, so the case
    // count is deliberately modest; the DST sweep covers schedule *space*,
    // this one covers physical interleavings.
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn jittered_threads_match_sequential(case in case_strategy()) {
        DUMP.with_dump(&case, "jittered_threads", run_case);
    }
}

/// A fixed case across several jitter seeds — a deterministic, always-run
/// complement to the random sweep (and a regression anchor if the jitter
/// knob's seeding scheme changes).
#[test]
fn fixed_case_across_jitter_seeds() {
    for jitter_seed in [1u64, 0x00FF_00FF, u64::MAX] {
        let case = case((true, 4, 3, 11), (22, jitter_seed), (8, 2, 25));
        DUMP.with_dump(&case, "fixed_case_across_jitter_seeds", run_case);
    }
}
