//! The kill harness the two wire transports share: real `tw_worker` OS
//! processes, real `SIGKILL`s, and the strongest oracle the kernel offers —
//! the canonical artifact of a crashed-and-recovered wire run must be
//! **byte-identical** to the same-seed undisturbed in-process run.
//!
//! `process_kill.rs` (Unix sockets) and `tcp_kill.rs` (workers dialing a
//! localhost listener) are one wire worker behind two links, so each
//! scenario both run is written once here, as a function of the [`Wire`]
//! under test; the two files hold the `#[test]` names — a failure names
//! its wire — and the legs only one link has.
//!
//! The worker binary is the `tw_worker` sibling target of this crate;
//! Cargo hands its path to integration tests via `CARGO_BIN_EXE_tw_worker`.
//!
//! Every test takes [`lock`]: the self-kill and reset scenarios configure
//! workers through the process environment (`DVS_TW_SELFKILL`,
//! `DVS_TW_TCP_FAULT`), which would leak into any concurrently spawned
//! worker.
//!
//! On an artifact mismatch the failing pair is dumped to
//! `target/tmp/wire_kill_diff_<wire>_<label>.txt` so CI can upload it.

use dvs_core::tw_run_canonical_json;
use dvs_core::{partition_multiway, MultiwayConfig};
use dvs_sim::cluster::ClusterPlan;
use dvs_sim::stimulus::VectorStimulus;
use dvs_sim::timewarp::{
    run_timewarp, FaultPlan, SchedulePolicy, TimeWarpConfig, Transport, TwRunResult,
};
use dvs_verilog::Netlist;
use dvs_workloads::viterbi::{generate_viterbi, ViterbiParams};
use std::path::PathBuf;
use std::sync::{Mutex, MutexGuard, OnceLock};

pub const K: u32 = 3;
pub const CYCLES: u64 = 20;
pub const STIM_SEED: u64 = 7;
pub const SCHED_SEED: u64 = 2008;

pub fn worker_bin() -> PathBuf {
    PathBuf::from(env!("CARGO_BIN_EXE_tw_worker"))
}

/// Serialize every test of a file (see module docs).
pub fn lock() -> MutexGuard<'static, ()> {
    static GATE: OnceLock<Mutex<()>> = OnceLock::new();
    GATE.get_or_init(|| Mutex::new(()))
        .lock()
        .unwrap_or_else(|p| p.into_inner())
}

pub fn fixture() -> (Netlist, Vec<u32>, VectorStimulus) {
    let src = generate_viterbi(&ViterbiParams::tiny());
    let nl = dvs_verilog::parse_and_elaborate(&src)
        .expect("viterbi elaborates")
        .into_netlist();
    let part = partition_multiway(&nl, &MultiwayConfig::new(K, 20.0));
    let stim = VectorStimulus::from_netlist(&nl, 10, STIM_SEED);
    (nl, part.gate_blocks, stim)
}

pub fn config(transport: Transport, fault: FaultPlan) -> TimeWarpConfig {
    TimeWarpConfig::builder()
        .transport(transport)
        .window(8)
        .epochs_per_quantum(2)
        .gvt_interval(1)
        .fault(fault)
        .build()
        .expect("valid config")
}

pub fn run(nl: &Netlist, gb: &[u32], stim: &VectorStimulus, cfg: &TimeWarpConfig) -> TwRunResult {
    let plan = ClusterPlan::new(nl, gb, K as usize);
    run_timewarp(nl, &plan, stim, CYCLES, cfg).expect("time warp run failed")
}

pub fn canonical(tw: &TwRunResult) -> String {
    tw_run_canonical_json(tw).emit().expect("canonical emit")
}

pub fn in_proc(policy: SchedulePolicy) -> Transport {
    Transport::in_proc(SCHED_SEED, policy)
}

/// The wire under test: its name in labels and dumps, and the transport
/// that runs `policy` on it with this crate's `tw_worker`.
#[derive(Clone, Copy)]
pub struct Wire {
    pub name: &'static str,
    pub transport: fn(SchedulePolicy) -> Transport,
}

/// Byte-identity assertion that dumps both artifacts to
/// `target/tmp/wire_kill_diff_<wire>_<label>.txt` on mismatch, for CI to
/// upload.
pub fn assert_identical(wire: Wire, expected: &str, got: &str, label: &str) {
    if expected == got {
        return;
    }
    let wire = wire.name;
    let slug: String = label
        .chars()
        .map(|c| if c.is_ascii_alphanumeric() { c } else { '_' })
        .collect();
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR"));
    let _ = std::fs::create_dir_all(&dir);
    let path = dir.join(format!("wire_kill_diff_{wire}_{slug}.txt"));
    let body = format!(
        "scenario: {label}\n\n--- expected (in-proc) ---\n{expected}\n\n--- got ({wire}) ---\n{got}\n"
    );
    let _ = std::fs::write(&path, body);
    panic!("{label}: {wire} artifact diverged from in-proc (diff dumped to {path:?})");
}

/// The undisturbed in-process artifact every leg under `policy` must
/// reproduce.
pub fn clean_inproc(
    nl: &Netlist,
    gb: &[u32],
    stim: &VectorStimulus,
    policy: SchedulePolicy,
) -> String {
    let cfg = config(in_proc(policy), FaultPlan::default());
    canonical(&run(nl, gb, stim, &cfg))
}

/// An undisturbed wire run must be byte-identical to the same-seed
/// in-process run: the transport is invisible in the artifacts.
pub fn clean_run_matches_inproc_bytes(wire: Wire, policy: SchedulePolicy, stim_seed: u64) {
    let (nl, gb, _) = fixture();
    let stim = VectorStimulus::from_netlist(&nl, 10, stim_seed);
    let clean = clean_inproc(&nl, &gb, &stim, policy);
    let cfg = config((wire.transport)(policy), FaultPlan::default());
    let tw = run(&nl, &gb, &stim, &cfg);
    let label = format!("clean_{}_{stim_seed}", policy.name());
    assert_eq!(tw.recovery.crashes, 0, "{label}: phantom crash");
    assert_identical(wire, &clean, &canonical(&tw), &label);
}

/// `SIGKILL` a worker at assorted decision depths (the supervisor's fault
/// injector kills the real OS process and observes the connection EOF).
/// The recovered run's canonical artifact must equal the undisturbed
/// in-proc run's, byte for byte, and the victim must be recorded.
pub fn sigkilled_worker_recovers_byte_identically(wire: Wire) {
    let (nl, gb, stim) = fixture();
    let policy = SchedulePolicy::SeededRandom;
    let clean = clean_inproc(&nl, &gb, &stim, policy);
    // Decision indices chosen from the seed to cover early/mid/late kills
    // without hand-tuning to the workload.
    let mut fired = 0u32;
    for (victim, at) in [(0u32, 3u64), (0, 29), (1, 47), (1, 83), (2, 211), (0, 800)] {
        let cfg = config((wire.transport)(policy), FaultPlan::crash(victim, at));
        let tw = run(&nl, &gb, &stim, &cfg);
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
        assert!(
            tw.recovery.replayed_ops > 0 || tw.recovery.crashes == 0,
            "{label}: recovery replayed nothing"
        );
        fired += tw.recovery.crashes;
        assert_identical(wire, &clean, &canonical(&tw), &label);
    }
    assert!(fired >= 2, "sweep fired only {fired} kills — widen indices");
}

/// Asynchronous death: cluster 1's worker aborts *itself*
/// (`DVS_TW_SELFKILL`) right before dispatching its `before`-th command,
/// at a point the supervisor did not choose. The supervisor sees a dead
/// connection mid-exchange and must still converge to the undisturbed
/// artifact. The restored worker disarms the hook, so exactly one crash
/// fires.
pub fn selfkilled_worker_converges(wire: Wire, before: u64) -> TwRunResult {
    let (nl, gb, stim) = fixture();
    let policy = SchedulePolicy::RoundRobin;
    let clean = clean_inproc(&nl, &gb, &stim, policy);
    std::env::set_var("DVS_TW_SELFKILL", format!("1:{before}"));
    let cfg = config((wire.transport)(policy), FaultPlan::default());
    let tw = run(&nl, &gb, &stim, &cfg);
    std::env::remove_var("DVS_TW_SELFKILL");
    let label = format!("death before command {before}");
    assert_eq!(tw.recovery.crashes, 1, "{label}: self-kill did not fire");
    assert_eq!(tw.recovery.restarts, 1, "{label}");
    assert_eq!(tw.recovery.victims, vec![1], "{label}");
    assert_identical(wire, &clean, &canonical(&tw), &label);
    tw
}

/// Killing the same worker more times than the restart budget allows
/// degrades to the sequential simulator — correct values, `degraded`
/// flagged, every victim recorded — rather than erroring out or hanging.
pub fn exhausted_budget_degrades_gracefully(wire: Wire) {
    let (nl, gb, stim) = fixture();
    let policy = SchedulePolicy::RoundRobin;
    let fault = FaultPlan {
        crash_at: Some((2, 30)),
        crashes: 3,
        max_restarts: 2,
    };
    let a = run(&nl, &gb, &stim, &config(in_proc(policy), fault));
    let b = run(&nl, &gb, &stim, &config((wire.transport)(policy), fault));
    for (tw, which) in [(&a, "in-proc"), (&b, wire.name)] {
        assert!(tw.recovery.degraded, "{which}: budget was not exhausted");
        assert_eq!(tw.recovery.crashes, 3, "{which}");
        assert_eq!(tw.recovery.restarts, 2, "{which}");
        assert_eq!(tw.recovery.victims, vec![2, 2, 2], "{which}");
        assert!(
            tw.recovery.checkpoint_bytes_full > 0,
            "{which}: the captured images went unreported"
        );
    }
    assert_identical(wire, &canonical(&a), &canonical(&b), "degraded budget");
}
