//! The [`Wire`]-parameterised bodies the two kill suites share: real
//! `tw_worker` OS processes, real `SIGKILL`s, and the strongest oracle the
//! kernel offers — the canonical artifact of a crashed-and-recovered wire
//! run must be **byte-identical** to the same-seed undisturbed in-process
//! run.
//!
//! `process_kill.rs` (Unix sockets) and `tcp_kill.rs` (workers dialing a
//! localhost listener) are one wire worker behind two links, so each body
//! both run is written once here; the two files hold the `#[test]` names —
//! a failure names its wire — and the legs only one link has. What a body
//! runs is a `dvs_bench::scenario::Scenario`; building, running, comparing
//! and dumping (`target/tmp/wire_kill_diff_<wire>_<label>.txt`) are that
//! module's. Every test takes `scenario::serial()`: the self-kill and reset
//! scenarios steer workers through the process environment.

use dvs_bench::scenario::{canonical, Circuit, Dump, EnvGuard, Executor, Partition, Scenario};
use dvs_sim::timewarp::{FaultPlan, SchedulePolicy, Transport, TwRunResult};
use std::path::PathBuf;

pub const STIM_SEED: u64 = 7;
pub const SCHED_SEED: u64 = 2008;

/// The `tw_worker` sibling target of this crate; Cargo hands its path to
/// integration tests only.
pub fn worker_bin() -> PathBuf {
    PathBuf::from(env!("CARGO_BIN_EXE_tw_worker"))
}

/// The wire under test: the transport that runs a policy on it with this
/// crate's `tw_worker`, and where its artifact diffs go.
#[derive(Clone, Copy)]
pub struct Wire {
    pub transport: fn(SchedulePolicy) -> Transport,
    pub dump: Dump,
}

impl Wire {
    /// `base` on this wire under `policy`.
    pub fn on(self, base: &Scenario, policy: SchedulePolicy) -> Scenario {
        base.on(Executor::Wire((self.transport)(policy)))
    }
}

/// The fixture most bodies run: the tiny Viterbi decoder, 3 clusters.
pub fn viterbi() -> Scenario {
    Scenario::tiny_viterbi(STIM_SEED, 20)
}

/// A name for labels, a scenario, and where to kill it: `(victim, decision)`.
pub type Row = (&'static str, Scenario, &'static [(u32, u64)]);

/// What the clean and the `SIGKILL` bodies sweep, each row with the
/// `(victim, decision)` kill points that cover its run early, mid and late:
/// the fixture, a counter whose feedback crosses three machines, and a
/// random hierarchy with a primary input no gate reads — its final value is
/// in the artifact, so it is held byte for byte on every wire.
pub fn rows() -> [Row; 3] {
    let counter = Circuit::Counter { bits: 12 };
    let three = Partition::Multiway { k: 3, b: 30.0 };
    let two = Partition::Multiway { k: 2, b: 25.0 };
    [
        (
            "viterbi",
            viterbi(),
            &[(0, 3), (0, 29), (1, 47), (1, 83), (2, 211), (0, 800)],
        ),
        (
            "counter",
            Scenario::new(counter, three, 6, 50),
            &[(2, 3), (1, 83), (0, 211)],
        ),
        (
            "hier",
            Scenario::new(Circuit::random_hier(8), two, 8, 35),
            &[(1, 3), (0, 47), (1, 800)],
        ),
    ]
}

/// An undisturbed wire run must be byte-identical to the same-seed
/// in-process run — the transport is invisible in the artifacts — and end
/// in the sequential simulator's state, unread inputs included. The fixture
/// under each `(policy, stimulus seed)` of `legs`, then the other rows under
/// the seeded-random schedule.
pub fn clean_run_matches_inproc_bytes(wire: Wire, legs: &[(SchedulePolicy, u64)]) {
    let [(fixture, viterbi, _), others @ ..] = rows();
    let legs = legs.iter().map(|&(policy, stim_seed)| {
        let base = Scenario {
            stim_seed,
            ..viterbi.clone()
        };
        (fixture, base, policy)
    });
    let others = others.map(|(row, base, _)| (row, base, SchedulePolicy::SeededRandom));
    for (row, base, policy) in legs.chain(others) {
        let built = base.build();
        let clean = canonical(&base.in_proc(SCHED_SEED, policy).run_ok(&built));
        let tw = wire.on(&base, policy).run_ok(&built);
        let label = format!("clean_{row}_{}_{}", policy.name(), base.stim_seed);
        assert_eq!(tw.recovery.crashes, 0, "{label}: phantom crash");
        wire.dump.expect_identical(&clean, &canonical(&tw), &label);
        base.assert_sequential(&built, &tw, &label);
    }
}

/// `SIGKILL` a worker at assorted decision depths (the supervisor's fault
/// injector kills the real OS process and observes the connection EOF).
/// The recovered run's canonical artifact must equal the undisturbed
/// in-proc run's, byte for byte, and the victim must be recorded.
pub fn sigkilled_worker_recovers_byte_identically(wire: Wire) {
    let policy = SchedulePolicy::SeededRandom;
    for (row, base, kills) in rows() {
        let built = base.build();
        let clean = canonical(&base.in_proc(SCHED_SEED, policy).run_ok(&built));
        let mut fired = 0u32;
        for &(victim, at) in kills {
            let kill = wire.on(&base, policy).faulted(FaultPlan::crash(victim, at));
            let tw = kill.run_ok(&built);
            let label = format!("{row}: kill cluster {victim} at decision {at}");
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
            wire.dump.expect_identical(&clean, &canonical(&tw), &label);
        }
        assert!(
            fired >= 2,
            "{row}: only {fired} kills fired — widen indices"
        );
    }
}

/// Asynchronous death: cluster 1's worker aborts *itself*
/// (`DVS_TW_SELFKILL`) right before dispatching its `before`-th command,
/// at a point the supervisor did not choose. The supervisor sees a dead
/// connection mid-exchange and must still converge to the undisturbed
/// artifact. The restored worker disarms the hook, so exactly one crash
/// fires.
pub fn selfkilled_worker_converges(wire: Wire, before: u64) -> TwRunResult {
    let (base, policy) = (viterbi(), SchedulePolicy::RoundRobin);
    let built = base.build();
    let clean = canonical(&base.in_proc(SCHED_SEED, policy).run_ok(&built));
    let tw = {
        let _selfkill = EnvGuard::set("DVS_TW_SELFKILL", format!("1:{before}"));
        wire.on(&base, policy).run_ok(&built)
    };
    let label = format!("death before command {before}");
    assert_eq!(tw.recovery.crashes, 1, "{label}: self-kill did not fire");
    assert_eq!(tw.recovery.restarts, 1, "{label}");
    assert_eq!(tw.recovery.victims, vec![1], "{label}");
    wire.dump.expect_identical(&clean, &canonical(&tw), &label);
    tw
}

/// Killing the same worker more times than the restart budget allows
/// degrades to the sequential simulator — correct values, `degraded`
/// flagged, every victim recorded — rather than erroring out or hanging.
pub fn exhausted_budget_degrades_gracefully(wire: Wire) {
    let policy = SchedulePolicy::RoundRobin;
    let base = viterbi().faulted(FaultPlan {
        crash_at: Some((2, 30)),
        crashes: 3,
        max_restarts: 2,
    });
    let built = base.build();
    let a = base.in_proc(SCHED_SEED, policy).run_ok(&built);
    let b = wire.on(&base, policy).run_ok(&built);
    for (tw, which) in [(&a, "in-proc"), (&b, "wire")] {
        assert!(tw.recovery.degraded, "{which}: budget was not exhausted");
        assert_eq!(tw.recovery.crashes, 3, "{which}");
        assert_eq!(tw.recovery.restarts, 2, "{which}");
        assert_eq!(tw.recovery.victims, vec![2, 2, 2], "{which}");
        assert!(
            tw.recovery.checkpoint_bytes_full > 0,
            "{which}: the captured images went unreported"
        );
    }
    let dump = wire.dump;
    dump.expect_identical(&canonical(&a), &canonical(&b), "degraded budget");
}
