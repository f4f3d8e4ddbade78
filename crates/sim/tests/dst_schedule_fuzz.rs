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
//! On failure the offending case (circuit, partition, schedule, seeds) is
//! written to `target/tmp/dst_fuzz_failure_<test>_<case-hash>.txt` — one
//! file per test and case, so concurrently failing tests (or several
//! shrunk cases from one proptest run) never clobber each other's repro —
//! and CI uploads the whole set.

use dvs_sim::cluster::ClusterPlan;
use dvs_sim::seq::{NullObserver, SeqSim, SimConfig};
use dvs_sim::stimulus::VectorStimulus;
use dvs_sim::timewarp::dst::{first_cut_channel, run_deterministic};
use dvs_sim::timewarp::{SchedulePolicy, TimeWarpConfig};
use dvs_verilog::netlist::Netlist;
use dvs_verilog::parse_and_elaborate;
use dvs_workloads::seqcirc::{generate_counter, generate_lfsr};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Everything needed to replay one fuzz case.
#[derive(Debug, Clone)]
struct FuzzCase {
    counter_not_lfsr: bool,
    bits: u32,
    k: usize,
    part_seed: u64,
    stim_seed: u64,
    sched_seed: u64,
    policy_sel: u8,
    window: u64,
    epochs_per_quantum: usize,
    cycles: u64,
}

fn case_strategy() -> impl Strategy<Value = FuzzCase> {
    let circuit = (any::<bool>(), 2u32..6, 2usize..4, any::<u64>());
    let seeds = (any::<u64>(), any::<u64>(), 0u8..5);
    let kernel = (
        prop_oneof![Just(4u64), Just(16u64), Just(64u64)],
        prop_oneof![Just(1usize), Just(2usize), Just(16usize)],
        10u64..40,
    );
    (circuit, seeds, kernel).prop_map(
        |(
            (counter_not_lfsr, bits, k, part_seed),
            (stim_seed, sched_seed, policy_sel),
            (window, epochs_per_quantum, cycles),
        )| FuzzCase {
            counter_not_lfsr,
            bits,
            k,
            part_seed,
            stim_seed,
            sched_seed,
            policy_sel,
            window,
            epochs_per_quantum,
            cycles,
        },
    )
}

fn elaborate_case(case: &FuzzCase) -> Netlist {
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
        *slot = i as u32; // guarantee non-empty clusters
    }
    gb
}

fn policy_for(case: &FuzzCase, plan: &ClusterPlan) -> SchedulePolicy {
    match case.policy_sel {
        0 => SchedulePolicy::RoundRobin,
        1 => SchedulePolicy::SeededRandom,
        2 => SchedulePolicy::StragglerHeavy,
        3 => match first_cut_channel(plan) {
            Some((src, dst)) => SchedulePolicy::DelayChannel { src, dst },
            None => SchedulePolicy::SeededRandom,
        },
        _ => SchedulePolicy::Bursty,
    }
}

fn run_case(case: &FuzzCase) {
    let nl = elaborate_case(case);
    let gb = random_partition(&nl, case.k, case.part_seed);
    let plan = ClusterPlan::new(&nl, &gb, case.k);
    let policy = policy_for(case, &plan);
    let stim = VectorStimulus::from_netlist(&nl, 10, case.stim_seed);

    let cfg = TimeWarpConfig::builder()
        .window(case.window)
        .epochs_per_quantum(case.epochs_per_quantum)
        .build()
        .expect("valid config");

    // Invariant checks forced on regardless of build profile.
    let tw = run_deterministic(
        &nl,
        &plan,
        &stim,
        case.cycles,
        &cfg,
        case.sched_seed,
        &policy,
        true,
    )
    .expect("deterministic run stalled");

    // (a) Sequential equivalence on every driven net and primary input.
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
                "net `{}` diverged from sequential under {policy:?}",
                net.name
            );
        }
    }

    // (b) Same seed ⇒ identical execution, counter for counter.
    let replay = run_deterministic(
        &nl,
        &plan,
        &stim,
        case.cycles,
        &cfg,
        case.sched_seed,
        &policy,
        true,
    )
    .expect("deterministic replay stalled");
    assert_eq!(tw.stats, replay.stats, "replay diverged under {policy:?}");
    assert_eq!(tw.cluster_stats, replay.cluster_stats);
    assert_eq!(tw.values, replay.values);
}

/// Run a case, dumping it on panic to a file whose name encodes the test
/// and a hash of the case, so parallel test binaries and repeated proptest
/// shrink iterations each keep their own repro instead of overwriting a
/// single shared `dst_fuzz_failure.txt`.
fn run_case_with_dump(case: &FuzzCase, test: &str) {
    use std::hash::{Hash, Hasher};
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| run_case(case)));
    if let Err(payload) = result {
        let msg = payload
            .downcast_ref::<String>()
            .map(String::as_str)
            .or_else(|| payload.downcast_ref::<&str>().copied())
            .unwrap_or("<non-string panic>");
        let dump = format!("failing DST fuzz case ({test}):\n{case:#?}\n\npanic: {msg}\n");
        let mut h = std::collections::hash_map::DefaultHasher::new();
        format!("{case:?}").hash(&mut h);
        let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR"));
        let _ = std::fs::create_dir_all(dir);
        let name = format!("dst_fuzz_failure_{test}_{:016x}.txt", h.finish());
        let _ = std::fs::write(dir.join(name), &dump);
        eprintln!("{dump}");
        std::panic::resume_unwind(payload);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn random_schedules_match_sequential_and_replay(case in case_strategy()) {
        run_case_with_dump(&case, "random_schedules");
    }
}

/// The named adversarial policies on a fixed circuit, still invariant-clean
/// and sequential-equivalent (complements the random sweep above with a
/// deterministic, always-run case for each policy).
#[test]
fn named_policies_on_fixed_case() {
    for policy_sel in 0..5u8 {
        let case = FuzzCase {
            counter_not_lfsr: true,
            bits: 4,
            k: 3,
            part_seed: 11,
            stim_seed: 22,
            sched_seed: 33,
            policy_sel,
            window: 8,
            epochs_per_quantum: 2,
            cycles: 30,
        };
        run_case_with_dump(&case, "named_policies");
    }
}
