//! Network-chaos suite for [`Transport::Tcp`]: every run goes through the
//! deterministic fault-injection shim (`dvs_sim::timewarp::chaos`) wrapping
//! the supervisor side of each worker connection — flipped bits, truncated
//! and duplicated frames, split writes, injected latency, silent stalls,
//! and half-open partitions, all drawn from seeded, replayable plans.
//!
//! The oracle is the same as the kill harness's, and it is absolute: the
//! canonical artifact of every disturbed run must be **byte-identical** to
//! the same-seed undisturbed in-process run. Benign faults (duplicates,
//! split writes, latency) must be invisible outright; destructive faults
//! (corruption, truncation, stalls, partitions) must be detected — by the
//! CRC32 frame check or the heartbeat prober — and recovered through the
//! same crash-stop respawn/restore path a `SIGKILL` takes. No injected
//! fault may panic the supervisor or a worker, and none may leak into the
//! results.
//!
//! On an artifact mismatch the failing pair is dumped to
//! `target/tmp/tcp_chaos_diff_<label>.txt`, and a failing sweep seed to
//! `target/tmp/tcp_chaos_seed_<seed>.txt`, for CI to upload.

use dvs_core::tw_run_canonical_json;
use dvs_core::{partition_multiway, MultiwayConfig};
use dvs_sim::cluster::ClusterPlan;
use dvs_sim::stimulus::VectorStimulus;
use dvs_sim::timewarp::{
    run_timewarp, FaultPlan, NetDir, NetFault, NetFaultKind, NetPlan, SchedulePolicy,
    TimeWarpConfig, Transport, TwRunResult,
};
use dvs_verilog::Netlist;
use dvs_workloads::viterbi::{generate_viterbi, ViterbiParams};
use proptest::prelude::*;
use std::path::PathBuf;
use std::sync::{Mutex, MutexGuard, OnceLock};
use std::time::Duration;

const K: u32 = 3;
const CYCLES: u64 = 20;
const STIM_SEED: u64 = 7;
const SCHED_SEED: u64 = 2008;
/// Heartbeat interval for legs that need stall/partition detection. Short
/// enough to keep the suite fast, long enough (with the generous restart
/// budget) that a CI-preempted worker is re-adopted rather than failing
/// the run.
const HEARTBEAT_MS: u64 = 100;
const HEARTBEAT_BUDGET: u32 = 2;
/// Restart budget for chaos legs: a seeded plan carries up to three
/// destructive faults, and CI timing noise may add a spurious loss or
/// two — byte-identity must survive all of them without degrading.
const MAX_RESTARTS: u32 = 12;

fn worker_bin() -> PathBuf {
    PathBuf::from(env!("CARGO_BIN_EXE_tw_worker"))
}

/// Serialize every test in this file: each run spawns K worker processes,
/// and the stall/partition legs time out on real wall-clock heartbeats —
/// oversubscribing the host skews them.
fn lock() -> MutexGuard<'static, ()> {
    static GATE: OnceLock<Mutex<()>> = OnceLock::new();
    GATE.get_or_init(|| Mutex::new(()))
        .lock()
        .unwrap_or_else(|p| p.into_inner())
}

fn fixture() -> &'static (Netlist, Vec<u32>, VectorStimulus) {
    static FIX: OnceLock<(Netlist, Vec<u32>, VectorStimulus)> = OnceLock::new();
    FIX.get_or_init(|| {
        let src = generate_viterbi(&ViterbiParams::tiny());
        let nl = dvs_verilog::parse_and_elaborate(&src)
            .expect("viterbi elaborates")
            .into_netlist();
        let part = partition_multiway(&nl, &MultiwayConfig::new(K, 20.0));
        let stim = VectorStimulus::from_netlist(&nl, 10, STIM_SEED);
        (nl, part.gate_blocks, stim)
    })
}

struct RunSpec {
    transport: Transport,
    fault: FaultPlan,
    chaos: Option<NetPlan>,
    heartbeat: Option<(u64, u32)>,
}

impl RunSpec {
    fn tcp() -> RunSpec {
        RunSpec {
            transport: Transport::tcp_with_worker(
                SCHED_SEED,
                SchedulePolicy::SeededRandom,
                worker_bin(),
            ),
            fault: FaultPlan {
                max_restarts: MAX_RESTARTS,
                ..FaultPlan::default()
            },
            chaos: None,
            heartbeat: None,
        }
    }

    fn chaos(mut self, plan: NetPlan) -> RunSpec {
        self.chaos = Some(plan);
        self
    }

    fn heartbeat(mut self) -> RunSpec {
        self.heartbeat = Some((HEARTBEAT_MS, HEARTBEAT_BUDGET));
        self
    }
}

fn run(spec: RunSpec) -> TwRunResult {
    let (nl, gb, stim) = fixture();
    let mut b = TimeWarpConfig::builder()
        .transport(spec.transport)
        .window(8)
        .epochs_per_quantum(2)
        .gvt_interval(1)
        .fault(spec.fault);
    if let Some(plan) = spec.chaos {
        b = b.chaos(plan);
    }
    if let Some((ms, budget)) = spec.heartbeat {
        b = b
            .heartbeat_interval(Duration::from_millis(ms))
            .heartbeat_budget(budget);
    }
    let cfg = b.build().expect("valid config");
    let plan = ClusterPlan::new(nl, gb, K as usize);
    run_timewarp(nl, &plan, stim, CYCLES, &cfg).expect("time warp run failed")
}

fn canonical(tw: &TwRunResult) -> String {
    tw_run_canonical_json(tw).emit().expect("canonical emit")
}

/// The undisturbed in-process reference artifact, computed once.
fn clean() -> &'static str {
    static CLEAN: OnceLock<String> = OnceLock::new();
    CLEAN.get_or_init(|| {
        let (nl, gb, stim) = fixture();
        let cfg = TimeWarpConfig::builder()
            .transport(Transport::in_proc(SCHED_SEED, SchedulePolicy::SeededRandom))
            .window(8)
            .epochs_per_quantum(2)
            .gvt_interval(1)
            .build()
            .expect("valid config");
        let plan = ClusterPlan::new(nl, gb, K as usize);
        canonical(&run_timewarp(nl, &plan, stim, CYCLES, &cfg).expect("clean run"))
    })
}

/// Byte-identity assertion that dumps both artifacts to
/// `target/tmp/tcp_chaos_diff_<label>.txt` on mismatch, for CI to upload.
fn assert_identical(got: &str, label: &str) {
    let expected = clean();
    if expected == got {
        return;
    }
    let slug: String = label
        .chars()
        .map(|c| if c.is_ascii_alphanumeric() { c } else { '_' })
        .collect();
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR"));
    let _ = std::fs::create_dir_all(&dir);
    let path = dir.join(format!("tcp_chaos_diff_{slug}.txt"));
    let body = format!(
        "scenario: {label}\n\n--- expected (in-proc) ---\n{expected}\n\n--- got (chaos) ---\n{got}\n"
    );
    let _ = std::fs::write(&path, body);
    panic!("{label}: chaos artifact diverged from in-proc (diff dumped to {path:?})");
}

/// One seeded sweep iteration: draw the plan, run it, demand identity.
fn assert_seed_is_invisible(seed: u64) {
    let plan = NetPlan::seeded(seed, K);
    let tw = run(RunSpec::tcp().chaos(plan.clone()).heartbeat());
    assert!(
        !tw.recovery.degraded,
        "seed {seed:#018x}: degraded under plan {plan:?}"
    );
    assert_identical(&canonical(&tw), &format!("seed_{seed:016x}"));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The acceptance sweep: every proptest-drawn seed expands to a
    /// replayable [`NetPlan`] (one to three faults over random clusters,
    /// directions, frames, and kinds — corruption, truncation,
    /// duplication, split writes, latency, stalls, partitions), and every
    /// one of them must recover to a byte-identical artifact.
    #[test]
    fn seeded_chaos_plans_recover_byte_identically(seed in any::<u64>()) {
        let _g = lock();
        let result = std::panic::catch_unwind(|| assert_seed_is_invisible(seed));
        if let Err(payload) = result {
            let msg = payload
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| payload.downcast_ref::<&str>().copied())
                .unwrap_or("<non-string panic>");
            let dump = format!(
                "failing chaos sweep seed: {seed:#018x}\nplan: {:?}\n\npanic: {msg}\n",
                NetPlan::seeded(seed, K)
            );
            let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR"));
            let _ = std::fs::create_dir_all(&dir);
            let _ = std::fs::write(dir.join(format!("tcp_chaos_seed_{seed:016x}.txt")), &dump);
            eprintln!("{dump}");
            std::panic::resume_unwind(payload);
        }
    }
}

/// The nightly wide sweep: 64 fixed seeds on top of the 16 proptest-drawn
/// ones, run in release from the cron workflow
/// (`cargo test --release -p dvs-bench --test tcp_chaos -- --ignored`).
/// Too slow for the per-push job; `#[ignore]` keeps it out of `cargo test`
/// while leaving it one flag away.
#[test]
#[ignore = "wide sweep, run by the nightly workflow with -- --ignored"]
fn nightly_wide_seed_sweep() {
    let _g = lock();
    for i in 0..64u64 {
        // splitmix-style spread so the seeds don't share low bits.
        let seed = (i + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        assert_seed_is_invisible(seed);
    }
}

/// One fixed scenario per fault kind, each with its deterministic counter
/// expectations — benign kinds must not trigger recovery at all,
/// destructive kinds must be detected and recovered exactly once. The
/// default heartbeat interval (1 s) never fires on this workload, so the
/// frame sequence, and with it every counter, is exact.
#[test]
fn every_fault_kind_recovers_byte_identically() {
    let _g = lock();
    struct Scenario {
        label: &'static str,
        fault: NetFault,
        crashes: u32,
        corrupt_frames: u64,
    }
    let fault = |cluster, dir, frame, kind| NetFault {
        cluster,
        dir,
        frame,
        kind,
    };
    let scenarios = [
        Scenario {
            label: "bitflip_from_worker",
            fault: fault(
                1,
                NetDir::FromWorker,
                8,
                NetFaultKind::BitFlip { offset: 5 },
            ),
            crashes: 1,
            corrupt_frames: 1,
        },
        // A flipped supervisor→worker frame is caught by the *worker's*
        // CRC check; it hangs up quietly and the supervisor observes the
        // loss as EOF, not as a locally corrupt frame.
        Scenario {
            label: "bitflip_to_worker",
            fault: fault(0, NetDir::ToWorker, 8, NetFaultKind::BitFlip { offset: 2 }),
            crashes: 1,
            corrupt_frames: 0,
        },
        Scenario {
            label: "truncate_from_worker",
            fault: fault(2, NetDir::FromWorker, 9, NetFaultKind::Truncate),
            crashes: 1,
            corrupt_frames: 0,
        },
        Scenario {
            label: "duplicate_from_worker",
            fault: fault(1, NetDir::FromWorker, 7, NetFaultKind::Duplicate),
            crashes: 0,
            corrupt_frames: 0,
        },
        Scenario {
            label: "duplicate_to_worker",
            fault: fault(2, NetDir::ToWorker, 6, NetFaultKind::Duplicate),
            crashes: 0,
            corrupt_frames: 0,
        },
        Scenario {
            label: "split_write_to_worker",
            fault: fault(0, NetDir::ToWorker, 6, NetFaultKind::SplitWrite),
            crashes: 0,
            corrupt_frames: 0,
        },
        Scenario {
            label: "latency_from_worker",
            fault: fault(
                1,
                NetDir::FromWorker,
                5,
                NetFaultKind::Latency { millis: 3 },
            ),
            crashes: 0,
            corrupt_frames: 0,
        },
    ];
    for s in scenarios {
        let tw = run(RunSpec::tcp().chaos(NetPlan::new().fault(s.fault)));
        let r = &tw.recovery;
        assert_eq!(
            r.chaos_faults_injected, 1,
            "{}: the fault never fired",
            s.label
        );
        assert_eq!(r.crashes, s.crashes, "{}: crash count", s.label);
        assert_eq!(r.restarts, s.crashes, "{}: every crash recovered", s.label);
        assert_eq!(
            r.corrupt_frames, s.corrupt_frames,
            "{}: corrupt frame count",
            s.label
        );
        assert!(!r.degraded, "{}: unexpected degradation", s.label);
        assert_identical(&canonical(&tw), s.label);
    }
}

/// Stalls (both directions dead) and partitions (one direction dead — the
/// classic half-open connection) leave no EOF to observe; only the
/// heartbeat prober can detect them. Detection must be bounded at
/// `budget × interval`, surface as *typed recovery* (a recovered crash
/// with `heartbeats_missed` charged, never a fatal `WorkerTimeout`), and
/// the recovered run must still be byte-identical.
#[test]
fn stall_and_partition_surface_as_typed_recovery() {
    let _g = lock();
    for (label, fault) in [
        (
            "stall",
            NetFault {
                cluster: 1,
                dir: NetDir::ToWorker,
                frame: 10,
                kind: NetFaultKind::Stall,
            },
        ),
        (
            "partition_from_worker",
            NetFault {
                cluster: 2,
                dir: NetDir::FromWorker,
                frame: 9,
                kind: NetFaultKind::Partition,
            },
        ),
    ] {
        let tw = run(RunSpec::tcp()
            .chaos(NetPlan::new().fault(fault))
            .heartbeat());
        let r = &tw.recovery;
        assert_eq!(r.crashes, 1, "{label}: the silent link was not detected");
        assert_eq!(r.restarts, 1, "{label}");
        assert_eq!(
            r.heartbeats_missed,
            u64::from(HEARTBEAT_BUDGET),
            "{label}: budget exhaustion must be charged exactly once"
        );
        assert_eq!(r.victims, vec![fault.cluster], "{label}: victim recorded");
        assert!(!r.degraded, "{label}");
        assert_identical(&canonical(&tw), label);
    }
}
