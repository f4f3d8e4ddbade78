//! Deterministic-schedule Time Warp (the [`dvs_sim::timewarp::dst`]
//! executor) on a *fixed* workload + partition — `Scenario::tiny_viterbi` —
//! every schedule policy must reproduce the sequential simulator's final
//! state, repeated seeds must reproduce every counter exactly, and the
//! adversarial schedules must actually exercise the rollback machinery
//! they were designed to provoke.

use dvs_bench::scenario::{assert_same_run, canonical, policies, Circuit, Partition, Scenario};
use dvs_core::ToJson;
use dvs_sim::timewarp::{FaultPlan, SchedulePolicy};

/// The fixed workload: tiny Viterbi decoder, design-driven 3-way partition,
/// 30 vectors of seed 7.
fn viterbi() -> Scenario {
    Scenario::tiny_viterbi(7, 30)
}

#[test]
fn every_schedule_policy_matches_sequential() {
    let (base, built) = (viterbi(), viterbi().build());
    for policy in policies(&built.plan) {
        let case = base.in_proc(1, policy);
        case.assert_sequential(&built, &case.run_ok(&built), policy.name());
    }
}

#[test]
fn sixteen_random_seeds_match_sequential() {
    let (base, built) = (viterbi(), viterbi().build());
    for seed in 0..16u64 {
        let case = base.in_proc(seed, SchedulePolicy::SeededRandom);
        let label = format!("seeded_random seed {seed}");
        case.assert_sequential(&built, &case.run_ok(&built), &label);
    }
}

#[test]
fn repeated_seed_reproduces_stats_exactly() {
    let (base, built) = (viterbi(), viterbi().build());
    for policy in &policies(&built.plan)[..3] {
        let case = base.in_proc(42, *policy);
        assert_same_run(&case.run_ok(&built), &case.run_ok(&built), policy.name());
    }
}

/// Acceptance criterion: two same-seed runs emit *byte-identical* canonical
/// artifacts, counters included (serialization lives in `dvs_core::artifact`).
#[test]
fn same_seed_runs_emit_byte_identical_artifacts() {
    let built = viterbi().build();
    let case = viterbi().in_proc(0x5EED, SchedulePolicy::SeededRandom);
    let a = case.run_ok(&built).to_json().emit().expect("emit");
    let b = case.run_ok(&built).to_json().emit().expect("emit");
    assert_eq!(a, b, "same (seed, schedule) must serialize identically");
    assert!(a.contains("\"rollbacks\""), "artifact must carry counters");
}

/// Acceptance criterion for crash-fault tolerance: a crash injected at ANY
/// decision index recovers and produces a canonical artifact byte-identical
/// to the no-crash run's — recovery restores the exact pre-crash state, so
/// every counter (rollbacks, messages, fossil collection, GVT rounds)
/// continues unchanged.
#[test]
fn crash_at_any_decision_index_yields_byte_identical_canonical_artifact() {
    let built = viterbi().build();
    for policy in [SchedulePolicy::RoundRobin, SchedulePolicy::SeededRandom] {
        let clean = viterbi().in_proc(11, policy);
        let clean_tw = clean.run_ok(&built);
        assert_eq!(clean_tw.recovery.crashes, 0);

        // Early, mid-run and late crash points, on every cluster. Points
        // beyond the run's decision count simply never fire (the run is
        // then trivially identical); the `fired` tally below proves the
        // sweep exercised real crashes at several depths.
        let mut fired = 0u32;
        for (victim, at) in [(0u32, 0u64), (1, 7), (2, 100), (0, 400), (1, 900)] {
            let case = clean.faulted(FaultPlan::crash(victim, at));
            let tw = case.run_ok(&built);
            let label = format!("{} crash=({victim},{at})", policy.name());
            case.assert_sequential(&built, &tw, &label);
            assert_eq!(
                tw.recovery.crashes, tw.recovery.restarts,
                "{label}: every fired crash must be recovered"
            );
            assert!(!tw.recovery.degraded, "{label}: unexpected degradation");
            fired += tw.recovery.crashes;
            assert_eq!(
                canonical(&tw),
                canonical(&clean_tw),
                "{label}: canonical artifact differs from the no-crash run"
            );
        }
        assert!(
            fired >= 3,
            "{}: only {fired} crash points fired — sweep too shallow",
            policy.name()
        );
    }
}

/// Repeated crashes of the same cluster (fault re-arms after each recovery)
/// still converge to the no-crash artifact as long as the restart budget
/// holds.
#[test]
fn repeated_crashes_within_budget_still_converge() {
    let built = viterbi().build();
    let clean = viterbi().in_proc(3, SchedulePolicy::StragglerHeavy);
    let crashed = clean.faulted(FaultPlan {
        crash_at: Some((2, 40)),
        crashes: 3,
        max_restarts: 3,
    });
    let tw = crashed.run_ok(&built);
    assert_eq!(tw.recovery.crashes, 3);
    assert_eq!(tw.recovery.restarts, 3);
    assert!(!tw.recovery.degraded);
    assert!(tw.recovery.replayed_ops > 0, "recovery must replay the log");
    assert_eq!(canonical(&tw), canonical(&clean.run_ok(&built)));
}

/// Exhausting the restart budget degrades gracefully to the sequential
/// simulator: the run still returns the correct final state, flagged with
/// `degraded = true` rather than an error — on the fixture, and on a random
/// hierarchy with a primary input no gate reads, where the degraded run's
/// values must be the healthy run's on every net the oracle compares.
#[test]
fn exhausted_restart_budget_degrades_to_sequential() {
    let two = Partition::Multiway { k: 2, b: 25.0 };
    let hier = Scenario::new(Circuit::random_hier(8), two, 8, 35);
    for base in [viterbi(), hier] {
        let built = base.build();
        let healthy = base.in_proc(5, SchedulePolicy::RoundRobin);
        let case = healthy.faulted(FaultPlan {
            crash_at: Some((1, 10)),
            crashes: 3,
            max_restarts: 2,
        });
        let tw = case.run_ok(&built);
        assert!(tw.recovery.degraded, "restart budget was not exhausted");
        assert_eq!(tw.recovery.crashes, 3);
        assert_eq!(tw.recovery.restarts, 2);
        assert!(
            tw.recovery.checkpoint_bytes_full > 0,
            "a degraded run still reports the images it captured"
        );
        case.assert_sequential(&built, &tw, "degraded run");
        case.assert_sequential(&built, &healthy.run_ok(&built), "healthy run");
    }
}

/// The full (non-canonical) serialization carries the recovery provenance;
/// the canonical form excludes it so crashed and undisturbed runs compare
/// equal.
#[test]
fn recovery_provenance_is_serialized_but_not_canonical() {
    let case = viterbi()
        .in_proc(8, SchedulePolicy::RoundRobin)
        .faulted(FaultPlan::crash(0, 25));
    let tw = case.run_ok(&case.build());
    let full = tw.to_json().emit().expect("emit");
    assert!(
        full.contains("\"recovery\""),
        "full artifact lacks recovery"
    );
    assert!(full.contains("\"restarts\":1"), "{full}");
    assert!(!canonical(&tw).contains("\"recovery\""));
}

/// Acceptance criterion: at least one adversarial schedule provably triggers
/// rollbacks while still converging to the sequential final state.
#[test]
fn adversarial_schedule_triggers_rollbacks_and_still_converges() {
    let (base, built) = (viterbi(), viterbi().build());
    let mut best = 0u64;
    for policy in &policies(&built.plan)[2..] {
        let case = base.in_proc(9, *policy);
        let tw = case.run_ok(&built);
        case.assert_sequential(&built, &tw, policy.name());
        best = best.max(tw.stats.rollbacks);
    }
    assert!(
        best > 0,
        "adversarial schedules produced no rollbacks at all"
    );
}
