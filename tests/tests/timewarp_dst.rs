//! Deterministic-schedule Time Warp (the [`dvs_sim::timewarp::dst`]
//! executor) on a *fixed* workload + partition: every schedule policy must
//! reproduce the sequential simulator's final state, repeated seeds must
//! reproduce every counter exactly, and the adversarial schedules must
//! actually exercise the rollback machinery they were designed to provoke.

use dvs_core::multiway::{partition_multiway, MultiwayConfig};
use dvs_core::ToJson;
use dvs_integration_tests::elaborate;
use dvs_sim::cluster::ClusterPlan;
use dvs_sim::seq::{NullObserver, SeqSim, SimConfig};
use dvs_sim::stimulus::VectorStimulus;
use dvs_sim::timewarp::dst::first_cut_channel;
use dvs_sim::timewarp::{
    run_timewarp, FaultPlan, SchedulePolicy, TimeWarpConfig, Transport, TwRunResult,
};
use dvs_verilog::Netlist;
use dvs_workloads::viterbi::{generate_viterbi, ViterbiParams};

const CYCLES: u64 = 30;
const STIM_SEED: u64 = 7;
const K: u32 = 3;

/// The fixed workload: tiny Viterbi decoder, design-driven 3-way partition.
fn fixture() -> (Netlist, ClusterPlan, VectorStimulus) {
    let src = generate_viterbi(&ViterbiParams::tiny());
    let nl = elaborate(&src);
    let part = partition_multiway(&nl, &MultiwayConfig::new(K, 20.0));
    let plan = ClusterPlan::new(&nl, &part.gate_blocks, K as usize);
    let stim = VectorStimulus::from_netlist(&nl, 10, STIM_SEED);
    (nl, plan, stim)
}

fn dst_config(seed: u64, schedule: SchedulePolicy) -> TimeWarpConfig {
    TimeWarpConfig::builder()
        .transport(Transport::in_proc(seed, schedule))
        .window(8)
        .epochs_per_quantum(2)
        .gvt_interval(1)
        .build()
        .expect("valid config")
}

fn run(
    nl: &Netlist,
    plan: &ClusterPlan,
    stim: &VectorStimulus,
    cfg: &TimeWarpConfig,
) -> TwRunResult {
    run_timewarp(nl, plan, stim, CYCLES, cfg).expect("deterministic run stalled")
}

/// Final driven-net state must equal the sequential simulator's.
fn assert_matches_sequential(nl: &Netlist, stim: &VectorStimulus, tw: &TwRunResult, label: &str) {
    let mut seq = SeqSim::new(
        nl,
        &SimConfig {
            cycles: CYCLES,
            init_zero: true,
        },
    );
    seq.run(stim, CYCLES, &mut NullObserver);
    for (ni, net) in nl.nets.iter().enumerate() {
        if net.driver.is_some() {
            assert_eq!(
                tw.values[ni],
                seq.value(dvs_verilog::NetId(ni as u32)),
                "net `{}` differs under {label}",
                net.name
            );
        }
    }
}

#[test]
fn every_schedule_policy_matches_sequential() {
    let (nl, plan, stim) = fixture();
    let delay = first_cut_channel(&plan).expect("k=3 partition must have a cut channel");
    let policies = [
        SchedulePolicy::RoundRobin,
        SchedulePolicy::SeededRandom,
        SchedulePolicy::StragglerHeavy,
        SchedulePolicy::DelayChannel {
            src: delay.0,
            dst: delay.1,
        },
    ];
    for policy in policies {
        let tw = run(&nl, &plan, &stim, &dst_config(1, policy));
        assert_matches_sequential(&nl, &stim, &tw, policy.name());
    }
}

#[test]
fn sixteen_random_seeds_match_sequential() {
    let (nl, plan, stim) = fixture();
    for seed in 0..16u64 {
        let tw = run(
            &nl,
            &plan,
            &stim,
            &dst_config(seed, SchedulePolicy::SeededRandom),
        );
        assert_matches_sequential(&nl, &stim, &tw, &format!("seeded_random seed {seed}"));
    }
}

#[test]
fn repeated_seed_reproduces_stats_exactly() {
    let (nl, plan, stim) = fixture();
    for policy in [
        SchedulePolicy::RoundRobin,
        SchedulePolicy::SeededRandom,
        SchedulePolicy::StragglerHeavy,
    ] {
        let cfg = dst_config(42, policy);
        let a = run(&nl, &plan, &stim, &cfg);
        let b = run(&nl, &plan, &stim, &cfg);
        assert_eq!(a.stats, b.stats, "merged stats differ ({})", policy.name());
        assert_eq!(
            a.cluster_stats,
            b.cluster_stats,
            "per-cluster stats differ ({})",
            policy.name()
        );
        assert_eq!(
            a.gvt_rounds,
            b.gvt_rounds,
            "gvt_rounds differ ({})",
            policy.name()
        );
    }
}

/// Acceptance criterion: two same-seed runs emit *byte-identical* canonical
/// artifacts, counters included (serialization lives in `dvs_core::artifact`).
#[test]
fn same_seed_runs_emit_byte_identical_artifacts() {
    let (nl, plan, stim) = fixture();
    let cfg = dst_config(0x5EED, SchedulePolicy::SeededRandom);
    let a = run(&nl, &plan, &stim, &cfg).to_json().emit().expect("emit");
    let b = run(&nl, &plan, &stim, &cfg).to_json().emit().expect("emit");
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
    let (nl, plan, stim) = fixture();
    for policy in [SchedulePolicy::RoundRobin, SchedulePolicy::SeededRandom] {
        let clean_cfg = dst_config(11, policy);
        let clean = run(&nl, &plan, &stim, &clean_cfg);
        let clean_bytes = dvs_core::tw_run_canonical_json(&clean)
            .emit()
            .expect("emit");
        assert_eq!(clean.recovery.crashes, 0);

        // Early, mid-run and late crash points, on every cluster. Points
        // beyond the run's decision count simply never fire (the run is
        // then trivially identical); the `fired` tally below proves the
        // sweep exercised real crashes at several depths.
        let mut fired = 0u32;
        for (victim, at) in [(0u32, 0u64), (1, 7), (2, 100), (0, 400), (1, 900)] {
            let mut cfg = clean_cfg.clone();
            cfg.fault = FaultPlan::crash(victim, at);
            let tw = run(&nl, &plan, &stim, &cfg);
            let label = format!("{} crash=({victim},{at})", policy.name());
            assert_matches_sequential(&nl, &stim, &tw, &label);
            assert_eq!(
                tw.recovery.crashes, tw.recovery.restarts,
                "{label}: every fired crash must be recovered"
            );
            assert!(!tw.recovery.degraded, "{label}: unexpected degradation");
            fired += tw.recovery.crashes;
            let bytes = dvs_core::tw_run_canonical_json(&tw).emit().expect("emit");
            assert_eq!(
                bytes, clean_bytes,
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
    let (nl, plan, stim) = fixture();
    let clean_cfg = dst_config(3, SchedulePolicy::StragglerHeavy);
    let clean = run(&nl, &plan, &stim, &clean_cfg);
    let clean_bytes = dvs_core::tw_run_canonical_json(&clean)
        .emit()
        .expect("emit");

    let mut cfg = clean_cfg;
    cfg.fault = FaultPlan {
        crash_at: Some((2, 40)),
        crashes: 3,
        max_restarts: 3,
    };
    let tw = run(&nl, &plan, &stim, &cfg);
    assert_eq!(tw.recovery.crashes, 3);
    assert_eq!(tw.recovery.restarts, 3);
    assert!(!tw.recovery.degraded);
    assert!(tw.recovery.replayed_ops > 0, "recovery must replay the log");
    let bytes = dvs_core::tw_run_canonical_json(&tw).emit().expect("emit");
    assert_eq!(bytes, clean_bytes);
}

/// Exhausting the restart budget degrades gracefully to the sequential
/// simulator: the run still returns the correct final state, flagged with
/// `degraded = true` rather than an error.
#[test]
fn exhausted_restart_budget_degrades_to_sequential() {
    let (nl, plan, stim) = fixture();
    let mut cfg = dst_config(5, SchedulePolicy::RoundRobin);
    cfg.fault = FaultPlan {
        crash_at: Some((1, 10)),
        crashes: 3,
        max_restarts: 2,
    };
    let tw = run(&nl, &plan, &stim, &cfg);
    assert!(tw.recovery.degraded, "restart budget was not exhausted");
    assert_eq!(tw.recovery.crashes, 3);
    assert_eq!(tw.recovery.restarts, 2);
    assert!(
        tw.recovery.checkpoint_bytes_full > 0,
        "a degraded run still reports the images it captured"
    );
    assert_matches_sequential(&nl, &stim, &tw, "degraded run");
}

/// The full (non-canonical) serialization carries the recovery provenance;
/// the canonical form excludes it so crashed and undisturbed runs compare
/// equal.
#[test]
fn recovery_provenance_is_serialized_but_not_canonical() {
    let (nl, plan, stim) = fixture();
    let mut cfg = dst_config(8, SchedulePolicy::RoundRobin);
    cfg.fault = FaultPlan::crash(0, 25);
    let tw = run(&nl, &plan, &stim, &cfg);
    let full = tw.to_json().emit().expect("emit");
    assert!(
        full.contains("\"recovery\""),
        "full artifact lacks recovery"
    );
    assert!(full.contains("\"restarts\":1"), "{full}");
    let canonical = dvs_core::tw_run_canonical_json(&tw).emit().expect("emit");
    assert!(!canonical.contains("\"recovery\""));
}

/// Acceptance criterion: at least one adversarial schedule provably triggers
/// rollbacks while still converging to the sequential final state.
#[test]
fn adversarial_schedule_triggers_rollbacks_and_still_converges() {
    let (nl, plan, stim) = fixture();
    let delay = first_cut_channel(&plan).expect("cut channel");
    let mut best = 0u64;
    for policy in [
        SchedulePolicy::StragglerHeavy,
        SchedulePolicy::DelayChannel {
            src: delay.0,
            dst: delay.1,
        },
    ] {
        let tw = run(&nl, &plan, &stim, &dst_config(9, policy));
        assert_matches_sequential(&nl, &stim, &tw, policy.name());
        best = best.max(tw.stats.rollbacks);
    }
    assert!(
        best > 0,
        "adversarial schedules produced no rollbacks at all"
    );
}
