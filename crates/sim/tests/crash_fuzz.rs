//! Crash-fault fuzz suite for the deterministic Time Warp executor.
//!
//! Random small circuits, random partitions, random schedules — and a
//! random crash: one cluster is killed at a property-drawn decision index,
//! losing its in-memory state and every in-flight message addressed to it.
//! The recovery supervisor must rebuild it from its last GVT-consistent
//! checkpoint, replay its input log, and refill its channels — and the
//! recovered run must be *indistinguishable* from the undisturbed one:
//! identical merged stats, identical per-cluster stats, identical final
//! values, identical GVT round count. Determinism is the oracle — any
//! recovery bug shows up as an exact counter diff, not a flaky tolerance.
//!
//! A second property exercises graceful degradation: when the fault fires
//! more times than the restart budget allows, the run must fall back to the
//! sequential simulator and still return the correct final state, flagged
//! with `degraded = true` rather than an error.
//!
//! A case is a [`Scenario`] whose fault plan is the recoverable one; a
//! failing case is written to
//! `target/tmp/crash_fuzz_failure_<test>_<case-hash>.txt` for CI upload.

use dvs_bench::scenario::{
    assert_same_run, first_burst, Circuit, Dump, Executor, Partition, Scenario,
};
use dvs_sim::timewarp::{FaultPlan, SchedulePolicy};
use proptest::prelude::*;

const DUMP: Dump = Dump::new(env!("CARGO_TARGET_TMPDIR"), "crash_fuzz_failure");

/// A case from the strategy's tuples. Invariant checks are forced on, which
/// also cross-checks the rebuilt channels against the dropped ones during
/// recovery.
fn case(
    (counter, bits, k, part_seed): (bool, u32, usize, u64),
    (stim_seed, seed, policy_sel): (u64, u64, u8),
    ((cycles, victim), (crash_at, crashes)): ((u64, u32), (u64, u32)),
) -> Scenario {
    let circuit = Circuit::seqcirc(counter, bits);
    let policy = [
        SchedulePolicy::RoundRobin,
        SchedulePolicy::SeededRandom,
        SchedulePolicy::StragglerHeavy,
    ][policy_sel as usize];
    let partition = Partition::Random { k, seed: part_seed };
    Scenario {
        executor: Executor::Dst {
            seed,
            policy,
            check: true,
        },
        fault: FaultPlan {
            crash_at: Some((victim % k as u32, crash_at)),
            crashes,
            max_restarts: crashes,
        },
        ..Scenario::new(circuit, partition, stim_seed, cycles)
    }
}

fn case_strategy() -> impl Strategy<Value = Scenario> {
    let circuit = (any::<bool>(), 2u32..6, 2usize..4, any::<u64>());
    let seeds = (any::<u64>(), any::<u64>(), 0u8..3);
    // Crash points span immediate (0) through mid-run; points past the end
    // of the run simply never fire, which is itself a valid case.
    let fault = ((10u64..30, 0u32..4), (0u64..600, 1u32..3));
    (circuit, seeds, fault).prop_map(|(circuit, seeds, fault)| case(circuit, seeds, fault))
}

/// The core property: crash + recover ≡ never crashed, field for field.
fn assert_crash_is_invisible(case: &Scenario) {
    let built = case.build();
    let clean = case.faulted(FaultPlan::default()).run_ok(&built);
    let crashed = case.run_ok(&built);
    assert!(
        !crashed.recovery.degraded,
        "budget should cover all crashes"
    );
    assert_eq!(
        crashed.recovery.crashes, crashed.recovery.restarts,
        "every fired crash must be recovered"
    );
    assert_same_run(&crashed, &clean, "crashed vs clean");
}

/// Degradation property: a budget one short of the crash count falls back
/// to the sequential simulator and still matches its final state.
fn assert_degradation_is_correct(case: &Scenario) {
    let built = case.build();
    let short = case.faulted(FaultPlan {
        crashes: case.fault.crashes + 1,
        ..case.fault
    });
    let tw = short.run_ok(&built);
    if tw.recovery.crashes <= case.fault.crashes {
        // The crash point was beyond the run's decision count (or the run
        // ended before the budget was spent); no degradation expected.
        assert!(!tw.recovery.degraded);
        return;
    }
    assert!(tw.recovery.degraded, "exhausted budget must degrade");
    short.assert_sequential(&built, &tw, "degraded run");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn recovered_runs_are_indistinguishable(case in case_strategy()) {
        DUMP.with_dump(&case, "indistinguishable", assert_crash_is_invisible);
    }

    #[test]
    fn exhausted_budgets_degrade_correctly(case in case_strategy()) {
        DUMP.with_dump(&case, "degradation", assert_degradation_is_correct);
    }
}

/// A deterministic always-run case per policy, so a plain `cargo test`
/// exercises recovery even when the proptest sweep is filtered out — on the
/// counter killed early, at the start, mid-run and late, and on a random
/// hierarchy with a primary input no gate reads.
#[test]
fn fixed_cases_per_policy() {
    for policy_sel in 0..3u8 {
        let fixed = |crash_at, crashes| {
            let seeds = (22, 33, policy_sel);
            case((true, 4, 3, 11), seeds, ((25, 1), (crash_at, crashes)))
        };
        let early = fixed(9, 2);
        let hier = Scenario {
            circuit: Circuit::random_hier(8),
            partition: Partition::Multiway { k: 3, b: 25.0 },
            ..early.clone()
        };
        for case in [&early, &hier] {
            DUMP.with_dump(case, "fixed", assert_crash_is_invisible);
            DUMP.with_dump(case, "fixed_degradation", assert_degradation_is_correct);
        }
        for (crash_at, crashes) in [(0u64, 1u32), (40, 2), (120, 1)] {
            let case = fixed(crash_at, crashes);
            DUMP.with_dump(&case, "fixed", assert_crash_is_invisible);
        }
    }
}

/// Crashes aimed *inside* a delivery run: the receiver of the first burst
/// of three consecutive decisions on one channel dies at the burst's 2nd
/// and at its 3rd decision. The run the supervisor hands the worker must
/// end where the armed fault fires — the crash is injected before the
/// schedule is consulted, with no results in hand — so recovery replays
/// exactly the operations the per-message executor had logged by then:
/// `replayed_ops` is pinned to what the commit before delivery runs (one
/// message per delivery) replayed for the same crash points.
#[test]
fn crashes_inside_a_burst_are_invisible() {
    // (policy, first decision of the burst, operations replayed after a
    // crash at its 2nd and at its 3rd decision), recorded at that commit.
    let recorded = [
        (0u8, 358usize, [8u64, 9]),
        (1, 52, [10, 11]),
        (2, 159, [5, 6]),
    ];
    for (policy_sel, start, replayed) in recorded {
        let clean = case((true, 4, 3, 13), (22, 33, policy_sel), ((25, 0), (0, 1)))
            .faulted(FaultPlan::default());
        let built = clean.build();
        let (_, decisions) = clean.record(&built);
        let (burst, dst) = first_burst(&decisions).expect("a burst");
        assert_eq!(burst, start, "policy {policy_sel}: the burst moved");
        for (nth, want) in [1, 2].into_iter().zip(replayed) {
            let case = clean.faulted(FaultPlan::crash(dst, (start + nth) as u64));
            DUMP.with_dump(&case, "burst", assert_crash_is_invisible);
            let crashed = case.run_ok(&built);
            assert_eq!(crashed.recovery.crashes, 1, "policy {policy_sel}, {case:?}");
            assert_eq!(
                crashed.recovery.replayed_ops,
                want,
                "policy {policy_sel}: crash at decision {} of the burst at {start}",
                nth + 1
            );
        }
    }
}
