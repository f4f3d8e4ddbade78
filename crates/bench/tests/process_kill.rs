//! Kill-harness tests for [`Transport::Process`]: real `tw_worker` OS
//! processes, real `SIGKILL`s, and the strongest oracle the kernel offers —
//! the canonical artifact of a crashed-and-recovered process run must be
//! **byte-identical** to the same-seed undisturbed in-process run.
//!
//! The worker binary is the `tw_worker` sibling target of this crate;
//! Cargo hands its path to integration tests via `CARGO_BIN_EXE_tw_worker`.
//!
//! Tests in this file serialize on a mutex: the self-kill test configures
//! workers through the process environment (`DVS_TW_SELFKILL`), which
//! would leak into any concurrently spawned worker.

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

fn process(policy: SchedulePolicy) -> Transport {
    Transport::process_with_worker(SCHED_SEED, policy, worker_bin())
}

/// An undisturbed process run must be byte-identical to the same-seed
/// in-process run: the transport is invisible in the artifacts. The
/// last leg's stimulus seed exceeds `i64::MAX`: it must reach the
/// workers through the `init` frame losslessly (a saturated seed once made
/// them simulate a different stimulus than their supervisor).
#[test]
fn clean_process_run_matches_inproc_bytes() {
    let _g = lock();
    let (nl, gb, stim) = fixture();
    let big_seed = VectorStimulus::from_netlist(&nl, 10, 11_601_856_998_475_820_192);
    for (policy, stim) in [
        (SchedulePolicy::RoundRobin, &stim),
        (SchedulePolicy::SeededRandom, &stim),
        (SchedulePolicy::SeededRandom, &big_seed),
    ] {
        let a = run(
            &nl,
            &gb,
            stim,
            &config(in_proc(policy), FaultPlan::default()),
        );
        let b = run(
            &nl,
            &gb,
            stim,
            &config(process(policy), FaultPlan::default()),
        );
        assert_eq!(b.recovery.crashes, 0, "{}: phantom crash", policy.name());
        assert_eq!(
            canonical(&a),
            canonical(&b),
            "{}: process transport diverged from in-proc",
            policy.name()
        );
    }
}

/// `SIGKILL` a worker at assorted decision depths (the supervisor's fault
/// injector kills the real OS process and observes the socket EOF). The
/// recovered run's canonical artifact must equal the undisturbed in-proc
/// run's, byte for byte, and the victim must be recorded.
#[test]
fn sigkilled_worker_recovers_byte_identically() {
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
            &config(process(policy), FaultPlan::crash(victim, at)),
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
        if tw.recovery.crashes > 0 {
            assert!(
                tw.recovery.replayed_ops > 0 || tw.recovery.crashes == 0,
                "{label}: recovery replayed nothing"
            );
        }
        fired += tw.recovery.crashes;
        assert_eq!(canonical(&tw), clean, "{label}: artifact diverged");
    }
    assert!(fired >= 2, "sweep fired only {fired} kills — widen indices");
}

/// The delta-cadence leg: with bases only every 4th GVT round and deltas
/// in between, `SIGKILL`s that land *between* bases force a restore from
/// the base plus the replayed delta chain plus the input log over the
/// N-round retention window — and the recovered artifact must still be
/// byte-identical to the undisturbed in-proc run.
#[test]
fn sigkill_between_bases_restores_from_delta_chain() {
    let _g = lock();
    let (nl, gb, stim) = fixture();
    let policy = SchedulePolicy::SeededRandom;
    let clean = canonical(&run(
        &nl,
        &gb,
        &stim,
        &config(in_proc(policy), FaultPlan::default()),
    ));
    // Capture is side-effect-free: a clean cadence-4 process run must be
    // byte-identical to the plain cadence-1 run.
    let quiet = run(
        &nl,
        &gb,
        &stim,
        &config_cadenced(process(policy), FaultPlan::default(), 4),
    );
    assert_eq!(quiet.recovery.crashes, 0, "phantom crash under cadence");
    assert!(
        quiet.recovery.checkpoint_bytes_delta > 0,
        "cadence-4 clean run captured no deltas"
    );
    assert_eq!(canonical(&quiet), clean, "cadence perturbed the artifact");
    // With gvt_interval 1 and bases every 4th round, these decision depths
    // land the kill between bases at several chain lengths.
    let mut fired = 0u32;
    for (victim, at) in [(0u32, 29u64), (1, 83), (2, 211)] {
        let tw = run(
            &nl,
            &gb,
            &stim,
            &config_cadenced(process(policy), FaultPlan::crash(victim, at), 4),
        );
        let label = format!("cadence-4 kill cluster {victim} at decision {at}");
        assert_eq!(
            tw.recovery.crashes, tw.recovery.restarts,
            "{label}: every kill must be recovered"
        );
        assert!(!tw.recovery.degraded, "{label}: unexpected degradation");
        assert!(
            tw.recovery.checkpoint_bytes_delta > 0,
            "{label}: no delta bytes counted"
        );
        fired += tw.recovery.crashes;
        assert_eq!(canonical(&tw), clean, "{label}: artifact diverged");
    }
    assert!(fired >= 2, "sweep fired only {fired} kills — widen indices");
}

/// Asynchronous death: the worker aborts *itself* (`DVS_TW_SELFKILL`)
/// right before dispatching a command, at a point the supervisor did not
/// choose. The supervisor sees a dead socket mid-exchange and must still
/// converge to the undisturbed artifact.
#[test]
fn selfkilled_worker_converges() {
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
    let tw = run(
        &nl,
        &gb,
        &stim,
        &config(process(policy), FaultPlan::default()),
    );
    std::env::remove_var("DVS_TW_SELFKILL");
    assert_eq!(tw.recovery.crashes, 1, "self-kill did not fire");
    assert_eq!(tw.recovery.restarts, 1);
    assert_eq!(tw.recovery.victims, vec![1]);
    assert_eq!(canonical(&tw), clean, "async death diverged");
}

/// Killing the same worker more times than the restart budget allows
/// degrades to the sequential simulator — correct values, `degraded`
/// flagged, every victim recorded — rather than erroring out.
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
    let b = run(&nl, &gb, &stim, &config(process(policy), fault));
    for (tw, which) in [(&a, "in-proc"), (&b, "process")] {
        assert!(tw.recovery.degraded, "{which}: budget was not exhausted");
        assert_eq!(tw.recovery.crashes, 3, "{which}");
        assert_eq!(tw.recovery.restarts, 2, "{which}");
        assert_eq!(tw.recovery.victims, vec![2, 2, 2], "{which}");
    }
    assert_eq!(
        canonical(&a),
        canonical(&b),
        "degraded artifacts diverged across transports"
    );
}
