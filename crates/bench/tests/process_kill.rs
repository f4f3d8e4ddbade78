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
use dvs_sim::timewarp::dst::{first_cut_channel, run_with_schedule};
use dvs_sim::timewarp::{
    run_timewarp, CheckpointCadence, DstAction, DstView, FaultPlan, Schedule, SchedulePolicy,
    TimeWarpConfig, Transport, TwRunResult,
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
    // Cluster 1's commands under this schedule open with `gvt` (the GVT-0
    // image), `step`, `gvt`, `step`, a `deliver` of three messages (which
    // stops after the first), a `deliver` of the other two, `gvt`. Die
    // before the 5th — a run of several, of which nothing may count as
    // delivered — before the 6th, and before the 7th: a GVT round in which
    // cluster 0 has already answered when the loss is seen. The operations
    // replayed say where each death landed: the `step` alone, the `step`
    // and the one message the first run applied, the whole interval. The
    // restored worker disarms the hook, so exactly one crash fires.
    for (before, replayed) in [(5, 1u64), (6, 2), (7, 4)] {
        std::env::set_var("DVS_TW_SELFKILL", format!("1:{before}"));
        let tw = run(
            &nl,
            &gb,
            &stim,
            &config(process(policy), FaultPlan::default()),
        );
        std::env::remove_var("DVS_TW_SELFKILL");
        let label = format!("death before command {before}");
        assert_eq!(tw.recovery.crashes, 1, "{label}: self-kill did not fire");
        assert_eq!(tw.recovery.restarts, 1, "{label}");
        assert_eq!(tw.recovery.victims, vec![1], "{label}");
        assert_eq!(tw.recovery.replayed_ops, replayed, "{label}");
        assert_eq!(canonical(&tw), clean, "{label}: async death diverged");
    }
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

/// 64-bit FNV-1a, the hash `bench_gate` pins canonical artifacts with.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xCBF2_9CE4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3)
    })
}

/// Delivery runs are sized by a fork of the schedule, so every schedule
/// family gets its turn: under each policy the process run is
/// byte-identical to the in-process run, and both are the artifact the
/// commit before delivery runs produced (its FNV-1a hash, recorded there).
#[test]
fn every_policy_keeps_its_recorded_artifact() {
    let _g = lock();
    let (nl, gb, stim) = fixture();
    let (src, dst) =
        first_cut_channel(&ClusterPlan::new(&nl, &gb, K as usize)).expect("the fixture has a cut");
    let recorded = [
        (SchedulePolicy::RoundRobin, 0x9808_30da_a9d1_7c60_u64),
        (SchedulePolicy::SeededRandom, 0xb514_c580_3c23_c027),
        (SchedulePolicy::StragglerHeavy, 0x4c44_0256_b502_2e54),
        (
            SchedulePolicy::DelayChannel { src, dst },
            0x4396_ddfe_27ce_1184,
        ),
        (SchedulePolicy::Bursty, 0xaab8_da31_a5c4_ede5),
    ];
    for (policy, hash) in recorded {
        let a = run(
            &nl,
            &gb,
            &stim,
            &config(in_proc(policy), FaultPlan::default()),
        );
        let b = run(
            &nl,
            &gb,
            &stim,
            &config(process(policy), FaultPlan::default()),
        );
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

/// `SIGKILL`s aimed *inside* a delivery run: the receiver of the first
/// burst of three consecutive decisions on one channel is killed at the
/// burst's 2nd and at its 3rd decision. The run handed to the worker ends
/// where the armed fault fires, so the recovery replays exactly what the
/// per-message executor had logged by then — `replayed_ops` is pinned to
/// what the commit before delivery runs replayed for the same kills — and
/// the artifact is the undisturbed one.
#[test]
fn sigkill_inside_a_burst_recovers_byte_identically() {
    let _g = lock();
    let (nl, gb, stim) = fixture();
    let plan = ClusterPlan::new(&nl, &gb, K as usize);
    // (policy, first decision of the burst, operations replayed after a
    // kill at its 2nd and at its 3rd decision), recorded at that commit.
    let recorded = [
        (SchedulePolicy::RoundRobin, 7usize, [2u64, 3]),
        (SchedulePolicy::SeededRandom, 168, [21, 22]),
    ];
    for (policy, start, replayed) in recorded {
        let mut schedule = Recording {
            inner: policy.build(SCHED_SEED),
            decisions: Vec::new(),
        };
        let cfg = config(in_proc(policy), FaultPlan::default());
        let label = "recording";
        let clean = run_with_schedule(&nl, &plan, &stim, CYCLES, &cfg, &mut schedule, false, label)
            .expect("recording run");
        let decisions = schedule.decisions;
        let burst = decisions.windows(3).position(|w| {
            matches!(w[0], DstAction::Deliver { .. }) && w[0] == w[1] && w[1] == w[2]
        });
        assert_eq!(burst, Some(start), "{policy:?}: the burst moved");
        let DstAction::Deliver { dst, .. } = decisions[start] else {
            unreachable!("a burst is made of deliveries");
        };
        for (nth, want) in [1, 2].into_iter().zip(replayed) {
            let kill = FaultPlan::crash(dst, (start + nth) as u64);
            let tw = run(&nl, &gb, &stim, &config(process(policy), kill));
            let label = format!("{policy:?}: kill at decision {} of the burst", nth + 1);
            assert_eq!(tw.recovery.crashes, 1, "{label}");
            assert_eq!(tw.recovery.replayed_ops, want, "{label}");
            assert_eq!(canonical(&tw), canonical(&clean), "{label}");
        }
    }
}
