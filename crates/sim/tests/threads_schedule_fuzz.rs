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
//! On failure the offending case (circuit, partition, jitter seed, kernel
//! knobs) is written to `target/tmp/threads_fuzz_failure_<test>_<hash>.txt`
//! — same dump convention as the DST fuzzers, and CI uploads the set.

use dvs_sim::cluster::ClusterPlan;
use dvs_sim::seq::{NullObserver, SeqSim, SimConfig};
use dvs_sim::stimulus::VectorStimulus;
use dvs_sim::timewarp::{run_timewarp, TimeWarpConfig, Transport};
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
    jitter_seed: u64,
    window: u64,
    epochs_per_quantum: usize,
    cycles: u64,
}

fn case_strategy() -> impl Strategy<Value = FuzzCase> {
    let circuit = (any::<bool>(), 2u32..6, 2usize..4, any::<u64>());
    let seeds = (any::<u64>(), any::<u64>());
    let kernel = (
        prop_oneof![Just(4u64), Just(16u64), Just(64u64)],
        prop_oneof![Just(1usize), Just(2usize), Just(16usize)],
        10u64..30,
    );
    (circuit, seeds, kernel).prop_map(
        |(
            (counter_not_lfsr, bits, k, part_seed),
            (stim_seed, jitter_seed),
            (window, epochs_per_quantum, cycles),
        )| FuzzCase {
            counter_not_lfsr,
            bits,
            k,
            part_seed,
            stim_seed,
            jitter_seed,
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

fn run_case(case: &FuzzCase) {
    let nl = elaborate_case(case);
    let gb = random_partition(&nl, case.k, case.part_seed);
    let plan = ClusterPlan::new(&nl, &gb, case.k);
    let stim = VectorStimulus::from_netlist(&nl, 10, case.stim_seed);

    let cfg = TimeWarpConfig::builder()
        .transport(Transport::Threads)
        .window(case.window)
        .epochs_per_quantum(case.epochs_per_quantum)
        .thread_jitter(case.jitter_seed)
        .build()
        .expect("valid config");

    let tw = run_timewarp(&nl, &plan, &stim, case.cycles, &cfg).expect("threads run failed");

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
                "net `{}` diverged from sequential under jitter seed {}",
                net.name,
                case.jitter_seed
            );
        }
    }
}

/// Run a case, dumping it on panic to a file whose name encodes the test
/// and a hash of the case — same convention as the DST fuzzers, so CI can
/// upload every repro without collisions.
fn run_case_with_dump(case: &FuzzCase, test: &str) {
    use std::hash::{Hash, Hasher};
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| run_case(case)));
    if let Err(payload) = result {
        let msg = payload
            .downcast_ref::<String>()
            .map(String::as_str)
            .or_else(|| payload.downcast_ref::<&str>().copied())
            .unwrap_or("<non-string panic>");
        let dump = format!("failing threads fuzz case ({test}):\n{case:#?}\n\npanic: {msg}\n");
        let mut h = std::collections::hash_map::DefaultHasher::new();
        format!("{case:?}").hash(&mut h);
        let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR"));
        let _ = std::fs::create_dir_all(dir);
        let name = format!("threads_fuzz_failure_{test}_{:016x}.txt", h.finish());
        let _ = std::fs::write(dir.join(name), &dump);
        eprintln!("{dump}");
        std::panic::resume_unwind(payload);
    }
}

proptest! {
    // Real threads are slower than the deterministic executor, so the case
    // count is deliberately modest; the DST sweep covers schedule *space*,
    // this one covers physical interleavings.
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn jittered_threads_match_sequential(case in case_strategy()) {
        run_case_with_dump(&case, "jittered_threads");
    }
}

/// A fixed case across several jitter seeds — a deterministic, always-run
/// complement to the random sweep (and a regression anchor if the jitter
/// knob's seeding scheme changes).
#[test]
fn fixed_case_across_jitter_seeds() {
    for jitter_seed in [1u64, 0x00FF_00FF, u64::MAX] {
        let case = FuzzCase {
            counter_not_lfsr: true,
            bits: 4,
            k: 3,
            part_seed: 11,
            stim_seed: 22,
            jitter_seed,
            window: 8,
            epochs_per_quantum: 2,
            cycles: 25,
        };
        run_case_with_dump(&case, "fixed_case_across_jitter_seeds");
    }
}
