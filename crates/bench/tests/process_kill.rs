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
    // Cluster 1's commands under this schedule open with `gvt` (the GVT-0
    // image), `step`, `gvt`, `step`, a `deliver` of three messages (which
    // stops after the first), a `deliver` of the other two, `gvt`. Die
    // before the 5th — a run of several, of which nothing may count as
    // delivered — before the 6th, and before the 7th: a GVT round in which
    // cluster 0 has already answered when the loss is seen. The operations
    // replayed say where each death landed: the `step` alone, the `step`
    // and the one message the first run applied, the whole interval.
    for (before, replayed) in [(5, 1u64), (6, 2), (7, 4)] {
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

/// Delivery runs are sized by a fork of the schedule, so every schedule
/// family gets its turn: under each policy the process run is
/// byte-identical to the in-process run, and both are the artifact the
/// commit before delivery runs produced (its FNV-1a hash, recorded there).
#[test]
fn every_policy_keeps_its_recorded_artifact() {
    let _g = serial();
    let base = viterbi();
    let built = base.build();
    let recorded = [
        0x9808_30da_a9d1_7c60_u64,
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
        // One answered frame per delivery run: never more than one per
        // message, and under every one of these policies some run is
        // longer than one.
        let wire = &b.recovery;
        assert!(
            wire.frames_sent < wire.messages_sent,
            "{policy:?}: {} frames for {} messages",
            wire.frames_sent,
            wire.messages_sent
        );
    }
}

/// `SIGKILL`s aimed *inside* a delivery run: the receiver of the first
/// burst of three consecutive decisions on one channel is killed at the
/// burst's 2nd and at its 3rd decision. The run handed to the worker ends
/// where the armed fault fires, so the recovery replays exactly what the
/// per-message executor had logged by then — `replayed_ops` is pinned to
/// what the commit before delivery runs replayed for the same kills — and
/// the artifact is the undisturbed one.
#[test]
fn sigkill_inside_a_burst_recovers_byte_identically() {
    let _g = serial();
    let base = viterbi();
    let built = base.build();
    // (policy, first decision of the burst, operations replayed after a
    // kill at its 2nd and at its 3rd decision), recorded at that commit.
    let recorded = [
        (SchedulePolicy::RoundRobin, 7usize, [2u64, 3]),
        (SchedulePolicy::SeededRandom, 168, [21, 22]),
    ];
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
