//! Crash-fault fuzz suite for the deterministic Time Warp executor.
//!
//! Random small circuits, random partitions, random schedules — and now a
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
//! On failure the offending case is written to
//! `target/tmp/crash_fuzz_failure_<test>_<case-hash>.txt` for CI upload,
//! one file per test and case.

use dvs_sim::cluster::ClusterPlan;
use dvs_sim::seq::{NullObserver, SeqSim, SimConfig};
use dvs_sim::stimulus::VectorStimulus;
use dvs_sim::timewarp::dst::{run_deterministic, run_with_schedule};
use dvs_sim::timewarp::{
    DstAction, DstView, FaultPlan, Schedule, SchedulePolicy, TimeWarpConfig, TwRunResult,
};
use dvs_verilog::netlist::Netlist;
use dvs_verilog::parse_and_elaborate;
use dvs_workloads::seqcirc::{generate_counter, generate_lfsr};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Everything needed to replay one crash-fuzz case.
#[derive(Debug, Clone)]
struct CrashCase {
    counter_not_lfsr: bool,
    bits: u32,
    k: usize,
    part_seed: u64,
    stim_seed: u64,
    sched_seed: u64,
    policy_sel: u8,
    cycles: u64,
    victim: u32,
    crash_at: u64,
    crashes: u32,
}

fn case_strategy() -> impl Strategy<Value = CrashCase> {
    let circuit = (any::<bool>(), 2u32..6, 2usize..4, any::<u64>());
    let seeds = (any::<u64>(), any::<u64>(), 0u8..3);
    // Crash points span immediate (0) through mid-run; points past the end
    // of the run simply never fire, which is itself a valid case.
    let fault = ((10u64..30, 0u32..4), (0u64..600, 1u32..3));
    (circuit, seeds, fault).prop_map(
        |(
            (counter_not_lfsr, bits, k, part_seed),
            (stim_seed, sched_seed, policy_sel),
            ((cycles, victim), (crash_at, crashes)),
        )| CrashCase {
            counter_not_lfsr,
            bits,
            k,
            part_seed,
            stim_seed,
            sched_seed,
            policy_sel,
            cycles,
            victim: victim % k as u32,
            crash_at,
            crashes,
        },
    )
}

fn elaborate_case(case: &CrashCase) -> Netlist {
    let src = if case.counter_not_lfsr {
        generate_counter(case.bits)
    } else {
        generate_lfsr(case.bits.max(2), &[case.bits.max(2), 1])
    };
    parse_and_elaborate(&src)
        .expect("generated circuit parses")
        .into_netlist()
}

/// A seeded random gate→cluster assignment with every cluster non-empty.
fn random_partition(nl: &Netlist, k: usize, seed: u64) -> Vec<u32> {
    let mut rng = StdRng::seed_from_u64(seed);
    let n = nl.gate_count();
    let mut gb: Vec<u32> = (0..n).map(|_| rng.gen_range(0..k as u32)).collect();
    for (i, slot) in gb.iter_mut().enumerate().take(k.min(n)) {
        *slot = i as u32;
    }
    gb
}

fn policy_for(case: &CrashCase) -> SchedulePolicy {
    match case.policy_sel {
        0 => SchedulePolicy::RoundRobin,
        1 => SchedulePolicy::SeededRandom,
        _ => SchedulePolicy::StragglerHeavy,
    }
}

/// Run the deterministic executor with the given fault plan (invariant
/// checks forced on, which also cross-checks the rebuilt channels against
/// the dropped ones during recovery).
fn run_with_fault(case: &CrashCase, fault: FaultPlan) -> TwRunResult {
    let nl = elaborate_case(case);
    let gb = random_partition(&nl, case.k, case.part_seed);
    let plan = ClusterPlan::new(&nl, &gb, case.k);
    let stim = VectorStimulus::from_netlist(&nl, 10, case.stim_seed);
    let cfg = TimeWarpConfig::builder()
        .window(8)
        .epochs_per_quantum(2)
        .fault(fault)
        .build()
        .expect("valid config");
    run_deterministic(
        &nl,
        &plan,
        &stim,
        case.cycles,
        &cfg,
        case.sched_seed,
        &policy_for(case),
        true,
    )
    .expect("deterministic run stalled")
}

/// The core property: crash + recover ≡ never crashed, field for field.
fn assert_crash_is_invisible(case: &CrashCase) {
    let clean = run_with_fault(case, FaultPlan::default());
    let fault = FaultPlan {
        crash_at: Some((case.victim, case.crash_at)),
        crashes: case.crashes,
        max_restarts: case.crashes,
    };
    let crashed = run_with_fault(case, fault);
    assert!(
        !crashed.recovery.degraded,
        "budget should cover all crashes"
    );
    assert_eq!(
        crashed.recovery.crashes, crashed.recovery.restarts,
        "every fired crash must be recovered"
    );
    assert_eq!(crashed.stats, clean.stats, "merged stats diverged");
    assert_eq!(
        crashed.cluster_stats, clean.cluster_stats,
        "per-cluster stats diverged"
    );
    assert_eq!(crashed.values, clean.values, "final values diverged");
    assert_eq!(crashed.gvt_rounds, clean.gvt_rounds, "GVT rounds diverged");
}

/// Degradation property: a budget one short of the crash count falls back
/// to the sequential simulator and still matches its final state.
fn assert_degradation_is_correct(case: &CrashCase) {
    let fault = FaultPlan {
        crash_at: Some((case.victim, case.crash_at)),
        crashes: case.crashes + 1,
        max_restarts: case.crashes,
    };
    let tw = run_with_fault(case, fault);
    if tw.recovery.crashes <= case.crashes {
        // The crash point was beyond the run's decision count (or the run
        // ended before the budget was spent); no degradation expected.
        assert!(!tw.recovery.degraded);
        return;
    }
    assert!(tw.recovery.degraded, "exhausted budget must degrade");
    let nl = elaborate_case(case);
    let stim = VectorStimulus::from_netlist(&nl, 10, case.stim_seed);
    let scfg = SimConfig {
        cycles: case.cycles,
        init_zero: true,
    };
    let mut seq = SeqSim::new(&nl, &scfg);
    seq.run(&stim, case.cycles, &mut NullObserver);
    for (ni, net) in nl.nets.iter().enumerate() {
        let id = dvs_verilog::NetId(ni as u32);
        if net.driver.is_some() || nl.primary_inputs.contains(&id) {
            assert_eq!(
                tw.values[ni],
                seq.value(id),
                "net `{}` wrong in degraded run",
                net.name
            );
        }
    }
}

/// Run a property, dumping the case to a uniquely named file on panic so
/// the CI job can upload the repro without collisions.
fn with_dump(case: &CrashCase, test: &str, f: impl Fn(&CrashCase)) {
    use std::hash::{Hash, Hasher};
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| f(case)));
    if let Err(payload) = result {
        let msg = payload
            .downcast_ref::<String>()
            .map(String::as_str)
            .or_else(|| payload.downcast_ref::<&str>().copied())
            .unwrap_or("<non-string panic>");
        let dump = format!("failing crash fuzz case ({test}):\n{case:#?}\n\npanic: {msg}\n");
        let mut h = std::collections::hash_map::DefaultHasher::new();
        format!("{case:?}").hash(&mut h);
        let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR"));
        let _ = std::fs::create_dir_all(dir);
        let name = format!("crash_fuzz_failure_{test}_{:016x}.txt", h.finish());
        let _ = std::fs::write(dir.join(name), &dump);
        eprintln!("{dump}");
        std::panic::resume_unwind(payload);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn recovered_runs_are_indistinguishable(case in case_strategy()) {
        with_dump(&case, "indistinguishable", assert_crash_is_invisible);
    }

    #[test]
    fn exhausted_budgets_degrade_correctly(case in case_strategy()) {
        with_dump(&case, "degradation", assert_degradation_is_correct);
    }
}

/// A deterministic always-run case per policy, so a plain `cargo test`
/// exercises recovery even when the proptest sweep is filtered out.
#[test]
fn fixed_cases_per_policy() {
    for policy_sel in 0..3u8 {
        let case = CrashCase {
            counter_not_lfsr: true,
            bits: 4,
            k: 3,
            part_seed: 11,
            stim_seed: 22,
            sched_seed: 33,
            policy_sel,
            cycles: 25,
            victim: 1,
            crash_at: 9,
            crashes: 2,
        };
        with_dump(&case, "fixed", assert_crash_is_invisible);
        with_dump(&case, "fixed_degradation", assert_degradation_is_correct);
        // The same circuit killed at the start, mid-run and late.
        for (crash_at, crashes) in [(0u64, 1u32), (40, 2), (120, 1)] {
            let case = CrashCase {
                crash_at,
                crashes,
                ..case.clone()
            };
            with_dump(&case, "fixed", assert_crash_is_invisible);
        }
    }
}

/// A policy's schedule that also notes down every decision it makes. Its
/// fork is the policy's own, so it sizes delivery runs exactly as the
/// policy does.
struct Recording {
    inner: Box<dyn Schedule + Send>,
    decisions: Vec<DstAction>,
}

impl Schedule for Recording {
    fn next(&mut self, view: &DstView<'_>) -> DstAction {
        let action = self.inner.next(view);
        self.decisions.push(action);
        action
    }

    fn fork(&self) -> Option<Box<dyn Schedule + Send>> {
        self.inner.fork()
    }
}

/// The decision sequence of `case`'s undisturbed run.
fn decisions_of(case: &CrashCase) -> Vec<DstAction> {
    let nl = elaborate_case(case);
    let gb = random_partition(&nl, case.k, case.part_seed);
    let plan = ClusterPlan::new(&nl, &gb, case.k);
    let stim = VectorStimulus::from_netlist(&nl, 10, case.stim_seed);
    let cfg = TimeWarpConfig::builder()
        .window(8)
        .epochs_per_quantum(2)
        .build()
        .expect("valid config");
    let mut schedule = Recording {
        inner: policy_for(case).build(case.sched_seed),
        decisions: Vec::new(),
    };
    run_with_schedule(
        &nl,
        &plan,
        &stim,
        case.cycles,
        &cfg,
        &mut schedule,
        true,
        "recording",
    )
    .expect("deterministic run stalled");
    schedule.decisions
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
        let mut case = CrashCase {
            counter_not_lfsr: true,
            bits: 4,
            k: 3,
            part_seed: 13,
            stim_seed: 22,
            sched_seed: 33,
            policy_sel,
            cycles: 25,
            victim: 0,
            crash_at: 0,
            crashes: 1,
        };
        let decisions = decisions_of(&case);
        let burst = decisions.windows(3).position(|w| {
            matches!(w[0], DstAction::Deliver { .. }) && w[0] == w[1] && w[1] == w[2]
        });
        assert_eq!(burst, Some(start), "policy {policy_sel}: the burst moved");
        let DstAction::Deliver { dst, .. } = decisions[start] else {
            unreachable!("a burst is made of deliveries");
        };
        for (nth, want) in [1, 2].into_iter().zip(replayed) {
            case.victim = dst;
            case.crash_at = (start + nth) as u64;
            with_dump(&case, "burst", assert_crash_is_invisible);
            let crashed = run_with_fault(&case, FaultPlan::crash(dst, case.crash_at));
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
