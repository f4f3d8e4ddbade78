//! Kill-harness tests for [`Transport::Tcp`]: the bodies the two wire
//! suites share (`wire_kill/mod.rs`, which see) with workers dialing a
//! localhost TCP listener, plus connection resets: a connection [`cut`] on
//! the supervisor's side while the worker process stays up.

mod wire_kill;

use dvs_bench::scenario::{canonical, serial, Dump, Scenario};
use dvs_sim::timewarp::{FaultPlan, SchedulePolicy, Transport, TwRunResult};
use wire_kill::*;

const TCP: Wire = Wire {
    transport: tcp,
    dump: Dump::new(env!("CARGO_TARGET_TMPDIR"), "wire_kill_diff_tcp"),
};

fn tcp(policy: SchedulePolicy) -> Transport {
    Transport::tcp_with_worker(SCHED_SEED, policy, worker_bin())
}

/// Run the fixture over TCP with `victim`'s connection [`cut`] at
/// supervisor→worker frame `frame` — the network-partition shape of a
/// fault, as opposed to host death — and hold the artifact to the
/// undisturbed in-process one.
fn run_reset(policy: SchedulePolicy, victim: u32, frame: u64, label: &str) -> TwRunResult {
    let base = viterbi();
    let built = base.build();
    let clean = canonical(&base.in_proc(SCHED_SEED, policy).run_ok(&built));
    let reset = Scenario {
        chaos: Some(cut(victim, frame)),
        ..TCP.on(&base, policy)
    };
    let tw = reset.run_ok(&built);
    assert_eq!(
        tw.recovery.chaos_faults_injected, 1,
        "{label}: reset did not fire"
    );
    TCP.dump.expect_identical(&clean, &canonical(&tw), label);
    tw
}

#[test]
fn clean_tcp_run_matches_inproc_bytes() {
    let _g = serial();
    let legs = [SchedulePolicy::RoundRobin, SchedulePolicy::SeededRandom].map(|p| (p, STIM_SEED));
    clean_run_matches_inproc_bytes(TCP, &legs);
}

#[test]
fn sigkilled_tcp_worker_recovers_byte_identically() {
    let _g = serial();
    sigkilled_worker_recovers_byte_identically(TCP);
}

/// The supervisor must treat the dropped connection exactly like a kill:
/// respawn, restore from the last GVT checkpoint, replay, and converge to
/// the undisturbed artifact.
#[test]
fn reset_connection_recovers_byte_identically() {
    let _g = serial();
    let policy = SchedulePolicy::SeededRandom;
    for (victim, frame) in [(1u32, 47u64), (2, 211)] {
        let label = format!("reset cluster {victim} at frame {frame}");
        let tw = run_reset(policy, victim, frame, &label);
        assert_eq!(tw.recovery.crashes, 1, "{label}");
        assert_eq!(tw.recovery.restarts, 1, "{label}");
        assert_eq!(tw.recovery.victims, vec![victim], "{label}");
        assert!(!tw.recovery.degraded, "{label}");
    }
}

/// One worker `SIGKILL`ed *and* one connection reset mid-run, artifact
/// still byte-identical to the undisturbed in-proc run. (The deterministic
/// fault injector arms one victim per run, so the two faults are split
/// across two runs — each recovering on top of an already-exercised
/// recovery path at a different decision depth.)
#[test]
fn killed_and_reset_mid_run_still_byte_identical() {
    let _g = serial();
    let (base, policy) = (viterbi(), SchedulePolicy::RoundRobin);
    let built = base.build();
    let clean = canonical(&base.in_proc(SCHED_SEED, policy).run_ok(&built));
    // Leg 1: SIGKILL cluster 0 early.
    let kill = TCP.on(&base, policy).faulted(FaultPlan::crash(0, 3));
    let killed = kill.run_ok(&built);
    assert!(killed.recovery.crashes >= 1, "kill leg fired no fault");
    TCP.dump
        .expect_identical(&clean, &canonical(&killed), "acceptance kill leg");
    // Leg 2: reset cluster 2 later in the run, in round 119.
    let reset = run_reset(policy, 2, 128, "acceptance reset leg");
    assert!(reset.recovery.crashes >= 1, "reset leg fired no fault");
}

/// After the initial GVT-0 image (command 1), die before the 6th command:
/// in round 4.
#[test]
fn selfkilled_tcp_worker_converges() {
    let _g = serial();
    selfkilled_worker_converges(TCP, 6);
}

#[test]
fn exhausted_budget_degrades_gracefully() {
    let _g = serial();
    wire_kill::exhausted_budget_degrades_gracefully(TCP);
}

/// `RoundRobin` over TCP runs `Threads`' rounds on the 6 k decoder: its
/// counters and its artifact.
#[test]
fn tcp_rounds_match_threads_on_the_6k_decoder() {
    let _g = serial();
    rounds_match_threads_on_the_6k_decoder(TCP);
}

/// The process suite's deaths inside a round, over TCP: a `SIGKILL` and a
/// connection reset where cluster 1's reply would come, in round 5 and two
/// rounds past the image of round 15.
#[test]
fn deaths_inside_a_round_recover_byte_identically() {
    let _g = serial();
    wire_kill::deaths_inside_a_round_recover_byte_identically(
        TCP,
        &[(5, 12), (18, 5)],
        &[(8, 12), (23, 7)],
    );
}
