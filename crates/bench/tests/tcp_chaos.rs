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
//! CRC32 frame check or the silence deadline — and recovered through the
//! same crash-stop respawn/restore path a `SIGKILL` takes. No injected
//! fault may panic the supervisor or a worker, and none may leak into the
//! results.
//!
//! On an artifact mismatch the failing pair is dumped to
//! `target/tmp/tcp_chaos_diff_<label>.txt`, and a failing sweep seed to
//! `target/tmp/tcp_chaos_seed_<seed>_<hash>.txt`, for CI to upload. A case
//! is a `dvs_bench::scenario::Scenario`; building, running, comparing and
//! dumping are that module's.

use dvs_bench::scenario::{canonical, serial, Built, Dump, Executor, Scenario};
use dvs_sim::timewarp::{
    FaultPlan, NetDir, NetFault, NetFaultKind, NetPlan, SchedulePolicy, Transport, TwRunResult,
};
use proptest::prelude::*;
use std::path::PathBuf;
use std::sync::OnceLock;
use std::time::Duration;

const K: u32 = 3;
const SCHED_SEED: u64 = 2008;
/// Silence deadline for legs that need stall/partition detection. Short
/// enough to keep the suite fast, long enough (with the generous restart
/// budget) that a CI-preempted worker is re-adopted rather than failing the
/// run.
const SILENCE: Duration = Duration::from_millis(200);
/// Restart budget for chaos legs: a seeded plan carries up to three
/// destructive faults, and CI timing noise may add a spurious loss or
/// two — byte-identity must survive all of them without degrading.
const MAX_RESTARTS: u32 = 12;
const DIFF: Dump = Dump::new(env!("CARGO_TARGET_TMPDIR"), "tcp_chaos_diff");
const SEED: Dump = Dump::new(env!("CARGO_TARGET_TMPDIR"), "tcp_chaos_seed");

/// The fixture — the tiny Viterbi decoder, 20 vectors of seed 7 — built
/// once, with its undisturbed in-process artifact under the seeded-random
/// schedule every leg runs. Every test takes `serial()`: each run spawns K
/// worker processes, and the stall/partition legs time out on real
/// wall-clock deadlines — oversubscribing the host skews them.
fn fixture() -> &'static (Scenario, Built, String) {
    static FIX: OnceLock<(Scenario, Built, String)> = OnceLock::new();
    FIX.get_or_init(|| {
        let base = Scenario::tiny_viterbi(7, 20);
        let built = base.build();
        let clean = base.in_proc(SCHED_SEED, SchedulePolicy::SeededRandom);
        let clean = canonical(&clean.run_ok(&built));
        (base, built, clean)
    })
}

/// The fixture over TCP under `plan`, with the short silence deadline when
/// the plan needs it.
fn chaos(plan: NetPlan, short_silence: bool) -> Scenario {
    let worker = PathBuf::from(env!("CARGO_BIN_EXE_tw_worker"));
    let tcp = Transport::tcp_with_worker(SCHED_SEED, SchedulePolicy::SeededRandom, worker);
    Scenario {
        executor: Executor::Wire(tcp),
        fault: FaultPlan {
            max_restarts: MAX_RESTARTS,
            ..FaultPlan::default()
        },
        chaos: Some(plan),
        silence: short_silence.then_some(SILENCE),
        ..fixture().0.clone()
    }
}

/// Run `case` and hold its artifact to the clean one.
fn run_identical(case: &Scenario, label: &str) -> TwRunResult {
    let (_, built, clean) = fixture();
    let tw = case.run_ok(built);
    DIFF.expect_identical(clean, &canonical(&tw), label);
    tw
}

/// One seeded sweep iteration: draw the plan, run it, demand identity. A
/// failing seed leaves its scenario — plan included — in
/// `target/tmp/tcp_chaos_seed_<seed>_<hash>.txt`.
fn assert_seed_is_invisible(seed: u64) {
    let case = chaos(NetPlan::seeded(seed, K), true);
    SEED.with_dump(&case, &format!("{seed:016x}"), |case| {
        let tw = run_identical(case, &format!("seed_{seed:016x}"));
        assert!(!tw.recovery.degraded, "seed {seed:#018x}: degraded");
    });
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
        let _g = serial();
        assert_seed_is_invisible(seed);
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
    let _g = serial();
    for i in 0..64u64 {
        // splitmix-style spread so the seeds don't share low bits.
        let seed = (i + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        assert_seed_is_invisible(seed);
    }
}

fn fault(cluster: u32, dir: NetDir, frame: u64, kind: NetFaultKind) -> NetFault {
    NetFault {
        cluster,
        dir,
        frame,
        kind,
    }
}

/// One fixed scenario per fault kind, each with its deterministic counter
/// expectations — benign kinds must not trigger recovery at all,
/// destructive kinds must be detected and recovered exactly once. Frame
/// indices count commands and replies only, and the default 30 s silence
/// deadline never expires on this workload, so every counter is exact.
#[test]
fn every_fault_kind_recovers_byte_identically() {
    let _g = serial();
    use NetDir::{FromWorker, ToWorker};
    let flip = |offset| NetFaultKind::BitFlip { offset };
    // (label, fault, crashes, corrupt frames the supervisor sees). A
    // flipped supervisor→worker frame is caught by the *worker's* CRC
    // check; it hangs up quietly and the supervisor observes the loss as
    // EOF, not as a locally corrupt frame.
    let kinds = [
        (
            "bitflip_from_worker",
            fault(1, FromWorker, 8, flip(5)),
            1,
            1,
        ),
        ("bitflip_to_worker", fault(0, ToWorker, 8, flip(2)), 1, 0),
        (
            "truncate_from_worker",
            fault(2, FromWorker, 9, NetFaultKind::Truncate),
            1,
            0,
        ),
        (
            "duplicate_from_worker",
            fault(1, FromWorker, 7, NetFaultKind::Duplicate),
            0,
            0,
        ),
        (
            "duplicate_to_worker",
            fault(2, ToWorker, 6, NetFaultKind::Duplicate),
            0,
            0,
        ),
        (
            "split_write_to_worker",
            fault(0, ToWorker, 6, NetFaultKind::SplitWrite),
            0,
            0,
        ),
        (
            "latency_from_worker",
            fault(1, FromWorker, 5, NetFaultKind::Latency { millis: 3 }),
            0,
            0,
        ),
    ];
    for (label, fault, crashes, corrupt_frames) in kinds {
        let tw = run_identical(&chaos(NetPlan::new().fault(fault), false), label);
        let r = &tw.recovery;
        assert_eq!(r.chaos_faults_injected, 1, "{label}: the fault never fired");
        assert_eq!(r.crashes, crashes, "{label}: crash count");
        assert_eq!(r.restarts, crashes, "{label}: every crash recovered");
        assert_eq!(
            r.corrupt_frames, corrupt_frames,
            "{label}: corrupt frame count"
        );
        assert!(!r.degraded, "{label}: unexpected degradation");
    }
}

/// Stalls (both directions dead) and partitions (one direction dead — the
/// classic half-open connection) leave no EOF to observe; only the
/// silence deadline can detect them. Detection must surface as *typed
/// recovery* (a recovered crash with one silent peer counted, never a fatal
/// `WorkerTimeout`), and the recovered run must still be byte-identical.
#[test]
fn stall_and_partition_surface_as_typed_recovery() {
    let _g = serial();
    for (label, fault) in [
        ("stall", fault(1, NetDir::ToWorker, 10, NetFaultKind::Stall)),
        (
            "partition_from_worker",
            fault(2, NetDir::FromWorker, 9, NetFaultKind::Partition),
        ),
    ] {
        let tw = run_identical(&chaos(NetPlan::new().fault(fault), true), label);
        let r = &tw.recovery;
        assert_eq!(r.crashes, 1, "{label}: the silent link was not detected");
        assert_eq!(r.restarts, 1, "{label}");
        assert_eq!(
            r.silent_peers, 1,
            "{label}: one connection dropped for silence"
        );
        assert_eq!(r.victims, vec![fault.cluster], "{label}: victim recorded");
        assert!(!r.degraded, "{label}");
    }
}
