//! Kill-harness tests for [`Transport::Tcp`]: the scenarios of the shared
//! harness (`wire_kill/mod.rs`, which see) with workers dialing a
//! localhost TCP listener, plus the fault only this link has — a
//! supervisor-side connection reset (`DVS_TW_TCP_FAULT=reset`).

mod wire_kill;

use dvs_sim::timewarp::{FaultPlan, SchedulePolicy, Transport, TwRunResult};
use wire_kill::*;

const TCP: Wire = Wire {
    name: "tcp",
    transport: tcp,
};

fn tcp(policy: SchedulePolicy) -> Transport {
    Transport::tcp_with_worker(SCHED_SEED, policy, worker_bin())
}

/// Run the fixture over TCP with `fault` injected as a connection reset:
/// the stream is torn down while the worker process stays up — the
/// network-partition shape of a fault, as opposed to host death.
fn run_reset(policy: SchedulePolicy, fault: FaultPlan) -> TwRunResult {
    let (nl, gb, stim) = fixture();
    std::env::set_var("DVS_TW_TCP_FAULT", "reset");
    let tw = run(&nl, &gb, &stim, &config(tcp(policy), fault));
    std::env::remove_var("DVS_TW_TCP_FAULT");
    tw
}

/// The undisturbed in-process artifact under `policy`.
fn clean(policy: SchedulePolicy) -> String {
    let (nl, gb, stim) = fixture();
    clean_inproc(&nl, &gb, &stim, policy)
}

#[test]
fn clean_tcp_run_matches_inproc_bytes() {
    let _g = lock();
    for policy in [SchedulePolicy::RoundRobin, SchedulePolicy::SeededRandom] {
        clean_run_matches_inproc_bytes(TCP, policy, STIM_SEED);
    }
}

#[test]
fn sigkilled_tcp_worker_recovers_byte_identically() {
    let _g = lock();
    sigkilled_worker_recovers_byte_identically(TCP);
}

/// The supervisor must treat the dropped connection exactly like a kill:
/// respawn, restore from the last GVT checkpoint, replay, and converge to
/// the undisturbed artifact.
#[test]
fn reset_connection_recovers_byte_identically() {
    let _g = lock();
    let policy = SchedulePolicy::SeededRandom;
    for (victim, at) in [(1u32, 47u64), (2, 211)] {
        let tw = run_reset(policy, FaultPlan::crash(victim, at));
        let label = format!("reset cluster {victim} at decision {at}");
        assert_eq!(tw.recovery.crashes, 1, "{label}: reset did not fire");
        assert_eq!(tw.recovery.restarts, 1, "{label}");
        assert_eq!(tw.recovery.victims, vec![victim], "{label}");
        assert!(!tw.recovery.degraded, "{label}");
        assert_identical(TCP, &clean(policy), &canonical(&tw), &label);
    }
}

/// One worker `SIGKILL`ed *and* one connection reset mid-run, artifact
/// still byte-identical to the undisturbed in-proc run. (The deterministic
/// fault injector arms one victim per run, so the two faults are split
/// across two runs — each recovering on top of an already-exercised
/// recovery path at a different decision depth.)
#[test]
fn killed_and_reset_mid_run_still_byte_identical() {
    let _g = lock();
    let (nl, gb, stim) = fixture();
    let policy = SchedulePolicy::RoundRobin;
    let clean = clean(policy);
    // Leg 1: SIGKILL cluster 0 early.
    let cfg = config(tcp(policy), FaultPlan::crash(0, 3));
    let killed = run(&nl, &gb, &stim, &cfg);
    assert!(killed.recovery.crashes >= 1, "kill leg fired no fault");
    assert_identical(TCP, &clean, &canonical(&killed), "acceptance kill leg");
    // Leg 2: reset cluster 2 later in the run.
    let reset = run_reset(policy, FaultPlan::crash(2, 211));
    assert!(reset.recovery.crashes >= 1, "reset leg fired no fault");
    assert_identical(TCP, &clean, &canonical(&reset), "acceptance reset leg");
}

/// After the initial GVT-0 checkpoint (command 1), die before the 6th
/// command.
#[test]
fn selfkilled_tcp_worker_converges() {
    let _g = lock();
    selfkilled_worker_converges(TCP, 6);
}

#[test]
fn exhausted_budget_degrades_gracefully() {
    let _g = lock();
    wire_kill::exhausted_budget_degrades_gracefully(TCP);
}
