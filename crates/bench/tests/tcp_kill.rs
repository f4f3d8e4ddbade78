//! Kill-harness tests for [`Transport::Tcp`]: real `tw_worker` OS
//! processes dialing a localhost TCP listener, real `SIGKILL`s, real
//! supervisor-side connection resets — and the strongest oracle the kernel
//! offers: the canonical artifact of a crashed-and-recovered TCP run must
//! be **byte-identical** to the same-seed undisturbed in-process run.
//!
//! The worker binary is the `tw_worker` sibling target of this crate;
//! Cargo hands its path to integration tests via `CARGO_BIN_EXE_tw_worker`.
//!
//! Tests in this file serialize on a mutex: the reset and self-kill
//! scenarios configure workers through the process environment
//! (`DVS_TW_TCP_FAULT`, `DVS_TW_SELFKILL`), which would leak into any
//! concurrently spawned worker.
//!
//! On an artifact mismatch the failing pair is dumped to
//! `target/tmp/tcp_kill_diff_<label>.txt` so CI can upload it.

use dvs_core::tw_run_canonical_json;
use dvs_core::{partition_multiway, MultiwayConfig};
use dvs_sim::cluster::ClusterPlan;
use dvs_sim::stimulus::VectorStimulus;
use dvs_sim::timewarp::{
    run_timewarp, CheckpointCadence, FaultPlan, SchedulePolicy, TimeWarpConfig, Transport,
    TwRunResult,
};
use dvs_verilog::Netlist;
use dvs_workloads::viterbi::{generate_viterbi, ViterbiParams};
use std::path::PathBuf;
use std::sync::{Mutex, MutexGuard, OnceLock};

const K: u32 = 3;
const CYCLES: u64 = 20;
const STIM_SEED: u64 = 7;
const SCHED_SEED: u64 = 2008;

fn worker_bin() -> PathBuf {
    PathBuf::from(env!("CARGO_BIN_EXE_tw_worker"))
}

/// Serialize every test in this file (see module docs).
fn lock() -> MutexGuard<'static, ()> {
    static GATE: OnceLock<Mutex<()>> = OnceLock::new();
    GATE.get_or_init(|| Mutex::new(()))
        .lock()
        .unwrap_or_else(|p| p.into_inner())
}

fn fixture() -> (Netlist, Vec<u32>, VectorStimulus) {
    let src = generate_viterbi(&ViterbiParams::tiny());
    let nl = dvs_verilog::parse_and_elaborate(&src)
        .expect("viterbi elaborates")
        .into_netlist();
    let part = partition_multiway(&nl, &MultiwayConfig::new(K, 20.0));
    let stim = VectorStimulus::from_netlist(&nl, 10, STIM_SEED);
    (nl, part.gate_blocks, stim)
}

fn config(transport: Transport, fault: FaultPlan) -> TimeWarpConfig {
    config_cadenced(transport, fault, 1)
}

fn config_cadenced(transport: Transport, fault: FaultPlan, cadence: u32) -> TimeWarpConfig {
    TimeWarpConfig::builder()
        .transport(transport)
        .window(8)
        .epochs_per_quantum(2)
        .gvt_interval(1)
        .checkpoint_cadence(CheckpointCadence::every_n_rounds(cadence))
        .fault(fault)
        .build()
        .expect("valid config")
}

fn run(nl: &Netlist, gb: &[u32], stim: &VectorStimulus, cfg: &TimeWarpConfig) -> TwRunResult {
    let plan = ClusterPlan::new(nl, gb, K as usize);
    run_timewarp(nl, &plan, stim, CYCLES, cfg).expect("time warp run failed")
}

fn canonical(tw: &TwRunResult) -> String {
    tw_run_canonical_json(tw).emit().expect("canonical emit")
}

fn in_proc(policy: SchedulePolicy) -> Transport {
    Transport::in_proc(SCHED_SEED, policy)
}

fn tcp(policy: SchedulePolicy) -> Transport {
    Transport::tcp_with_worker(SCHED_SEED, policy, worker_bin())
}

/// Byte-identity assertion that dumps both artifacts to
/// `target/tmp/tcp_kill_diff_<label>.txt` on mismatch, for CI to upload.
fn assert_identical(expected: &str, got: &str, label: &str) {
    if expected == got {
        return;
    }
    let slug: String = label
        .chars()
        .map(|c| if c.is_ascii_alphanumeric() { c } else { '_' })
        .collect();
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR"));
    let _ = std::fs::create_dir_all(&dir);
    let path = dir.join(format!("tcp_kill_diff_{slug}.txt"));
    let body = format!(
        "scenario: {label}\n\n--- expected (in-proc) ---\n{expected}\n\n--- got (tcp) ---\n{got}\n"
    );
    let _ = std::fs::write(&path, body);
    panic!("{label}: TCP artifact diverged from in-proc (diff dumped to {path:?})");
}

/// An undisturbed TCP run must be byte-identical to the same-seed
/// in-process run: the transport is invisible in the artifacts.
#[test]
fn clean_tcp_run_matches_inproc_bytes() {
    let _g = lock();
    let (nl, gb, stim) = fixture();
    for policy in [SchedulePolicy::RoundRobin, SchedulePolicy::SeededRandom] {
        let a = run(
            &nl,
            &gb,
            &stim,
            &config(in_proc(policy), FaultPlan::default()),
        );
        let b = run(&nl, &gb, &stim, &config(tcp(policy), FaultPlan::default()));
        assert_eq!(b.recovery.crashes, 0, "{}: phantom crash", policy.name());
        assert_identical(
            &canonical(&a),
            &canonical(&b),
            &format!("clean_{}", policy.name()),
        );
    }
}

/// `SIGKILL` a worker at assorted decision depths (the supervisor's fault
/// injector kills the real OS process and observes the connection EOF).
/// The recovered run's canonical artifact must equal the undisturbed
/// in-proc run's, byte for byte, and the victim must be recorded.
#[test]
fn sigkilled_tcp_worker_recovers_byte_identically() {
    let _g = lock();
    let (nl, gb, stim) = fixture();
    let policy = SchedulePolicy::SeededRandom;
    let clean = canonical(&run(
        &nl,
        &gb,
        &stim,
        &config(in_proc(policy), FaultPlan::default()),
    ));
    // Decision indices chosen from the seed to cover early/mid/late kills
    // without hand-tuning to the workload.
    let mut fired = 0u32;
    for (victim, at) in [(0u32, 3u64), (1, 47), (2, 211), (0, 800)] {
        let tw = run(
            &nl,
            &gb,
            &stim,
            &config(tcp(policy), FaultPlan::crash(victim, at)),
        );
        let label = format!("kill cluster {victim} at decision {at}");
        assert_eq!(
            tw.recovery.crashes, tw.recovery.restarts,
            "{label}: every kill must be recovered"
        );
        assert!(!tw.recovery.degraded, "{label}: unexpected degradation");
        assert_eq!(
            tw.recovery.victims,
            vec![victim; tw.recovery.crashes as usize],
            "{label}: victim not recorded"
        );
        fired += tw.recovery.crashes;
        assert_identical(&clean, &canonical(&tw), &label);
    }
    assert!(fired >= 2, "sweep fired only {fired} kills — widen indices");
}

/// Supervisor-side connection reset (`DVS_TW_TCP_FAULT=reset`): the stream
/// is torn down while the worker process stays up — the network-partition
/// shape of a fault, as opposed to host death. The supervisor must treat
/// the dropped connection exactly like a kill: respawn, restore from the
/// last GVT checkpoint, replay, and converge to the undisturbed artifact.
#[test]
fn reset_connection_recovers_byte_identically() {
    let _g = lock();
    let (nl, gb, stim) = fixture();
    let policy = SchedulePolicy::SeededRandom;
    let clean = canonical(&run(
        &nl,
        &gb,
        &stim,
        &config(in_proc(policy), FaultPlan::default()),
    ));
    std::env::set_var("DVS_TW_TCP_FAULT", "reset");
    let tw = run(
        &nl,
        &gb,
        &stim,
        &config(tcp(policy), FaultPlan::crash(1, 47)),
    );
    std::env::remove_var("DVS_TW_TCP_FAULT");
    assert_eq!(tw.recovery.crashes, 1, "reset did not fire");
    assert_eq!(tw.recovery.restarts, 1);
    assert_eq!(tw.recovery.victims, vec![1]);
    assert!(!tw.recovery.degraded);
    assert_identical(&clean, &canonical(&tw), "reset cluster 1 at decision 47");
}

/// The acceptance scenario of this PR in one run each way: one worker
/// `SIGKILL`ed *and* one connection reset mid-run, artifact still
/// byte-identical to the undisturbed in-proc run. (The deterministic
/// fault injector arms one victim per run, so the two faults are split
/// across two runs — each recovering on top of an already-exercised
/// recovery path at a different decision depth.)
#[test]
fn killed_and_reset_mid_run_still_byte_identical() {
    let _g = lock();
    let (nl, gb, stim) = fixture();
    let policy = SchedulePolicy::RoundRobin;
    let clean = canonical(&run(
        &nl,
        &gb,
        &stim,
        &config(in_proc(policy), FaultPlan::default()),
    ));
    // Leg 1: SIGKILL cluster 0 early.
    let killed = run(
        &nl,
        &gb,
        &stim,
        &config(tcp(policy), FaultPlan::crash(0, 3)),
    );
    assert!(killed.recovery.crashes >= 1, "kill leg fired no fault");
    assert_identical(&clean, &canonical(&killed), "acceptance kill leg");
    // Leg 2: reset cluster 2 later in the run.
    std::env::set_var("DVS_TW_TCP_FAULT", "reset");
    let reset = run(
        &nl,
        &gb,
        &stim,
        &config(tcp(policy), FaultPlan::crash(2, 211)),
    );
    std::env::remove_var("DVS_TW_TCP_FAULT");
    assert!(reset.recovery.crashes >= 1, "reset leg fired no fault");
    assert_identical(&clean, &canonical(&reset), "acceptance reset leg");
}

/// The delta-cadence leg over TCP: bases every 4th GVT round, one
/// `SIGKILL` and one connection reset landing *between* bases — each
/// recovery restores from base + replayed delta chain shipped over the
/// socket, and the artifact stays byte-identical to the undisturbed
/// in-proc run.
#[test]
fn faults_between_bases_restore_from_delta_chain() {
    let _g = lock();
    let (nl, gb, stim) = fixture();
    let policy = SchedulePolicy::SeededRandom;
    let clean = canonical(&run(
        &nl,
        &gb,
        &stim,
        &config(in_proc(policy), FaultPlan::default()),
    ));
    // Kill leg: SIGKILL mid-chain.
    let killed = run(
        &nl,
        &gb,
        &stim,
        &config_cadenced(tcp(policy), FaultPlan::crash(1, 83), 4),
    );
    assert!(
        killed.recovery.crashes >= 1,
        "cadence kill leg fired no fault"
    );
    assert!(
        killed.recovery.checkpoint_bytes_delta > 0,
        "cadence kill leg counted no delta bytes"
    );
    assert_identical(&clean, &canonical(&killed), "cadence kill cluster 1 at 83");
    // Reset leg: connection torn down mid-chain while the process lives.
    std::env::set_var("DVS_TW_TCP_FAULT", "reset");
    let reset = run(
        &nl,
        &gb,
        &stim,
        &config_cadenced(tcp(policy), FaultPlan::crash(2, 211), 4),
    );
    std::env::remove_var("DVS_TW_TCP_FAULT");
    assert!(
        reset.recovery.crashes >= 1,
        "cadence reset leg fired no fault"
    );
    assert!(
        reset.recovery.checkpoint_bytes_delta > 0,
        "cadence reset leg counted no delta bytes"
    );
    assert_identical(&clean, &canonical(&reset), "cadence reset cluster 2 at 211");
}

/// Asynchronous death over TCP: the worker aborts *itself*
/// (`DVS_TW_SELFKILL`) right before dispatching a command, at a point the
/// supervisor did not choose. The supervisor sees a dead connection
/// mid-exchange and must still converge to the undisturbed artifact.
#[test]
fn selfkilled_tcp_worker_converges() {
    let _g = lock();
    let (nl, gb, stim) = fixture();
    let policy = SchedulePolicy::RoundRobin;
    let clean = canonical(&run(
        &nl,
        &gb,
        &stim,
        &config(in_proc(policy), FaultPlan::default()),
    ));
    // After the initial GVT-0 checkpoint (command 1), die before the 6th
    // command. The restored worker disarms the hook, so exactly one crash
    // fires.
    std::env::set_var("DVS_TW_SELFKILL", "1:6");
    let tw = run(&nl, &gb, &stim, &config(tcp(policy), FaultPlan::default()));
    std::env::remove_var("DVS_TW_SELFKILL");
    assert_eq!(tw.recovery.crashes, 1, "self-kill did not fire");
    assert_eq!(tw.recovery.restarts, 1);
    assert_eq!(tw.recovery.victims, vec![1]);
    assert_identical(&clean, &canonical(&tw), "selfkill cluster 1");
}

/// Killing the same worker more times than the restart budget allows
/// degrades to the sequential simulator — correct values, `degraded`
/// flagged, every victim recorded — rather than erroring out or hanging.
#[test]
fn exhausted_budget_degrades_gracefully() {
    let _g = lock();
    let (nl, gb, stim) = fixture();
    let policy = SchedulePolicy::RoundRobin;
    let fault = FaultPlan {
        crash_at: Some((2, 30)),
        crashes: 3,
        max_restarts: 2,
        corrupt_restores: 0,
    };
    let a = run(&nl, &gb, &stim, &config(in_proc(policy), fault));
    let b = run(&nl, &gb, &stim, &config(tcp(policy), fault));
    for (tw, which) in [(&a, "in-proc"), (&b, "tcp")] {
        assert!(tw.recovery.degraded, "{which}: budget was not exhausted");
        assert_eq!(tw.recovery.crashes, 3, "{which}");
        assert_eq!(tw.recovery.restarts, 2, "{which}");
        assert_eq!(tw.recovery.victims, vec![2, 2, 2], "{which}");
    }
    assert_identical(&canonical(&a), &canonical(&b), "degraded budget");
}
