//! Kill-harness tests for [`Transport::Process`]: the bodies the two wire
//! suites share (`wire_kill/mod.rs`, which see) over Unix sockets, plus
//! the legs only this link has.

mod wire_kill;

use dvs_bench::scenario::{
    canonical, first_burst, fnv1a, policies, serial, Dump, EnvGuard, Executor,
};
use dvs_sim::timewarp::{FaultPlan, SchedulePolicy, TimeWarpError, Transport};
use wire_kill::*;

const PROCESS: Wire = Wire {
    transport: process,
    dump: Dump::new(env!("CARGO_TARGET_TMPDIR"), "wire_kill_diff_process"),
};

fn process(policy: SchedulePolicy) -> Transport {
    Transport::process_with_worker(SCHED_SEED, policy, worker_bin())
}

/// The third leg's stimulus seed exceeds `i64::MAX`: it must reach the
/// workers through the `init` frame losslessly (a saturated seed once made
/// them simulate a different stimulus than their supervisor).
#[test]
fn clean_process_run_matches_inproc_bytes() {
    let _g = serial();
    let legs = [
        (SchedulePolicy::RoundRobin, STIM_SEED),
        (SchedulePolicy::SeededRandom, STIM_SEED),
        (SchedulePolicy::SeededRandom, 11_601_856_998_475_820_192),
    ];
    clean_run_matches_inproc_bytes(PROCESS, &legs);
}

#[test]
fn sigkilled_worker_recovers_byte_identically() {
    let _g = serial();
    wire_kill::sigkilled_worker_recovers_byte_identically(PROCESS);
}

#[test]
fn selfkilled_worker_converges() {
    let _g = serial();
    // Under this schedule cluster 1's 1st command captures the GVT-0 image
    // and the `n`-th after it is round `n - 2`; round 15 captures the next
    // image. Die in round 1, in round 3 — a death no cluster's answer of
    // that round may survive into the log — and in round 17. The
    // operations replayed say where each death landed: round 0's step and
    // deliveries; rounds 0 to 2 with their fossil collections; round 16
    // alone, past the image.
    for (before, replayed) in [(3, 1u64), (5, 8), (19, 3)] {
        let tw = wire_kill::selfkilled_worker_converges(PROCESS, before);
        assert_eq!(
            tw.recovery.replayed_ops, replayed,
            "death before command {before}"
        );
    }
}

#[test]
fn exhausted_budget_degrades_gracefully() {
    let _g = serial();
    wire_kill::exhausted_budget_degrades_gracefully(PROCESS);
}

/// A worker that cannot be launched — here a text file without the
/// execute bit — fails the run with a typed transport error and leaves
/// nothing behind: the socket file bound for it is removed again.
#[test]
fn a_worker_that_cannot_be_launched_leaves_no_socket_file() {
    let _g = serial();
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("unlaunchable_worker");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("private temp dir");
    let worker = dir.join("not_a_program");
    std::fs::write(&worker, "not a program\n").expect("write the worker file");
    let transport = Transport::process_with_worker(SCHED_SEED, SchedulePolicy::RoundRobin, &worker);
    let unlaunchable = viterbi().on(Executor::Wire(transport));
    let built = unlaunchable.build();

    let outcome = {
        let _tmpdir = EnvGuard::set("TMPDIR", &dir);
        unlaunchable.run(&built)
    };

    let err = outcome.expect_err("a text file is no worker");
    assert!(
        matches!(&err, TimeWarpError::Transport { cluster: 0, detail } if detail.contains("spawn")),
        "{err:?}"
    );
    let left: Vec<_> = std::fs::read_dir(&dir)
        .expect("list the temp dir")
        .map(|entry| entry.expect("entry").file_name())
        .filter(|name| name.to_string_lossy().starts_with("dvs-tw-"))
        .collect();
    assert!(left.is_empty(), "socket files left behind: {left:?}");
}

/// Under each policy the process run is byte-identical to the
/// in-process run, and both are the recorded artifact (its FNV-1a hash):
/// the one the per-decision executor has produced since before delivery
/// runs, and for `RoundRobin` the lock-step rounds' own.
#[test]
fn every_policy_keeps_its_recorded_artifact() {
    let _g = serial();
    let base = viterbi();
    let built = base.build();
    let recorded = [
        0x27aa_8e32_be09_0af2_u64,
        0xb514_c580_3c23_c027,
        0x4c44_0256_b502_2e54,
        0x4396_ddfe_27ce_1184,
        0xaab8_da31_a5c4_ede5,
    ];
    let swept = policies(&built.plan)
        .into_iter()
        .chain([SchedulePolicy::Bursty]);
    for (policy, hash) in swept.zip(recorded) {
        let a = base.in_proc(SCHED_SEED, policy).run_ok(&built);
        let b = PROCESS.on(&base, policy).run_ok(&built);
        assert_eq!(canonical(&a), canonical(&b), "{policy:?}: process diverged");
        assert_eq!(
            fnv1a(canonical(&a).as_bytes()),
            hash,
            "{policy:?}: not the recorded artifact"
        );
        // A round carries every message its receiver takes in it; a
        // delivery decision carries one.
        let wire = &b.recovery;
        let rounds = policy == SchedulePolicy::RoundRobin;
        assert!(
            (wire.frames_sent < wire.messages_sent) == rounds
                && wire.frames_sent <= wire.messages_sent,
            "{policy:?}: {} frames for {} messages",
            wire.frames_sent,
            wire.messages_sent
        );
    }
}

/// `SIGKILL`s aimed *inside* a burst: the receiver of the first burst of
/// three consecutive deliveries on one channel is killed at the burst's
/// 2nd and at its 3rd decision. Each delivery is one exchange, so the
/// recovery replays exactly what the per-message executor had logged by
/// then — `replayed_ops` is pinned to what it replayed for the same kills
/// — and the artifact is the undisturbed one.
#[test]
fn sigkill_inside_a_burst_recovers_byte_identically() {
    let _g = serial();
    let base = viterbi();
    let built = base.build();
    // (policy, first decision of the burst, operations replayed after a
    // kill at its 2nd and at its 3rd decision).
    let recorded = [(SchedulePolicy::SeededRandom, 168usize, [21u64, 22])];
    for (policy, start, replayed) in recorded {
        let (clean, decisions) = base.in_proc(SCHED_SEED, policy).record(&built);
        let (burst, dst) = first_burst(&decisions).expect("a burst");
        assert_eq!(burst, start, "{policy:?}: the burst moved");
        for (nth, want) in [1, 2].into_iter().zip(replayed) {
            let kill = FaultPlan::crash(dst, (start + nth) as u64);
            let tw = PROCESS.on(&base, policy).faulted(kill).run_ok(&built);
            let label = format!("{policy:?}: kill at decision {} of the burst", nth + 1);
            assert_eq!(tw.recovery.crashes, 1, "{label}");
            assert_eq!(tw.recovery.replayed_ops, want, "{label}");
            assert_eq!(canonical(&tw), canonical(&clean), "{label}");
        }
    }
}

/// `RoundRobin` over Unix sockets runs `Threads`' rounds on the 6 k
/// decoder: its counters and its artifact.
#[test]
fn process_rounds_match_threads_on_the_6k_decoder() {
    let _g = serial();
    rounds_match_threads_on_the_6k_decoder(PROCESS);
}

/// A `SIGKILL` and a cut reply inside a round (see
/// [`deaths_inside_a_round_recover_byte_identically`]): in round 5, whose
/// replay reaches back to the GVT-0 image, and in round 18, two rounds
/// past the image of round 15.
#[test]
fn deaths_inside_a_round_recover_byte_identically() {
    let _g = serial();
    wire_kill::deaths_inside_a_round_recover_byte_identically(
        PROCESS,
        &[(5, 12), (18, 5)],
        &[(8, 12), (23, 7)],
    );
}
