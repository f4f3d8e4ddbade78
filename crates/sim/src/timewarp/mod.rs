//! Clustered Time Warp — the optimistic parallel simulation kernel.
//!
//! This reproduces the role of OOCTW (the object-oriented Clustered Time
//! Warp kernel underneath the paper's DVS) with threads standing in for MPI
//! ranks: one worker thread per "machine", each owning one cluster of the
//! partitioned circuit, exchanging timestamped net-change messages over
//! channels.
//!
//! Protocol features implemented:
//!
//! * **optimistic execution** — each cluster processes its earliest pending
//!   epoch without waiting for neighbours, bounded by an optional optimism
//!   window above GVT;
//! * **state saving** — one history log: the processed events, each with
//!   the value it found on its net in a one-byte `replaced` column, and no
//!   log of sends. It is cluster-level: gates inside a cluster save nothing
//!   individually, and a rollback of the cluster rolls back all of its
//!   children together, exactly as the paper describes for Verilog-instance
//!   LPs (§4.3);
//! * **rollback** — a straggler or anti-message with a timestamp at or below
//!   the cluster's local clock walks the undone processed events backwards,
//!   restoring each net an event changed from its `replaced` value, drops
//!   the local events of undone epochs, requeues the other processed events
//!   and emits anti-messages for undone sends. Unit delay fixes both send
//!   times — an epoch at `t` schedules and sends for `t + 1` — so a rollback
//!   to `t` drops the local events (those after `t` on a net an owned gate
//!   drives) and cancels the sends timed after `t`: one per reader of each
//!   dropped event on an exported net, in the order they were sent. Every
//!   event is the 16-byte [`NetEvent`] the sequential simulator queues; one
//!   time's events drain in the order they were queued, and a requeue keeps
//!   that order;
//! * **anti-messages with annihilation** — positive messages always precede
//!   their anti-message in channel order (FIFO per sender), so when the
//!   anti-message arrives its positive is in the pending queue (put back by
//!   the rollback if it had been processed) and is removed from its
//!   time bucket on the spot. It is found by time and net: each net has one
//!   driving cluster, which sends at most one positive per time until the
//!   anti-message that precedes a re-send;
//! * **GVT** — a coordinator-free sampling scheme: each worker publishes its
//!   local virtual time; a sample is valid when no message is in transit and
//!   no send intervened (checked with a send-epoch counter), making the
//!   minimum published LVT a correct lower bound;
//! * **fossil collection** — processed events (with their `replaced`
//!   values) strictly below GVT are reclaimed.
//!
//! Determinism: the final circuit state equals the sequential simulator's
//! (asserted in tests) under every transport. Under [`Transport::Threads`]
//! the message/rollback *counts* depend on thread timing; under
//! [`Transport::InProc`], [`Transport::Process`] and [`Transport::Tcp`]
//! the same cluster state machines are driven by the single-threaded
//! deterministic supervisor (see [`dst`] and [`transport`]) and every
//! counter is an exact, seed-reproducible value — byte-identical between
//! them, whether the workers are in-process state machines, `SIGKILL`-able
//! OS processes on Unix sockets, or processes dialing in over TCP.
//! ([`crate::cluster_model`] remains as the fast *modeled* estimate of
//! those counts for pre-simulation sweeps.)

pub mod chaos;
pub mod checkpoint;
pub mod dst;
pub mod error;
pub mod gvt;
pub mod proc;
pub mod recovery;
pub mod transport;
pub mod wire;

pub use chaos::{NetDir, NetFault, NetFaultKind, NetPlan};
pub use checkpoint::{Checkpoint, CHECKPOINT_SCHEMA};
pub use dst::{DstAction, DstView, Schedule, SchedulePolicy};
pub use error::TimeWarpError;
pub use recovery::{FaultPlan, RecoveryOutcome};
pub use transport::{serve_worker, serve_worker_tcp, TcpWorkers, Transport};

use crate::cluster::ClusterPlan;
use crate::logic::Logic;
use crate::stats::SimStats;
use crate::stimulus::VectorStimulus;
use crate::wheel::{NetEvent, VTime};
use dvs_verilog::netlist::Netlist;
use gvt::GvtState;
use proc::ClusterProcess;
use std::sync::atomic::Ordering;

/// A timestamped inter-cluster message: 32 bytes. `src` picks the
/// supervisor's queue it waits in, and its position in that FIFO names it.
/// An anti-message annihilates the pending event at its `ev.time` on its
/// `ev.net`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TwMessage {
    pub src: u32,
    pub dst: u32,
    pub ev: NetEvent,
    pub anti: bool,
}

/// Kernel tuning parameters: set the fields that differ from the defaults.
/// [`run_timewarp`] checks the result with [`TimeWarpConfig::validate`]
/// before anything runs.
///
/// ```
/// use dvs_sim::timewarp::{SchedulePolicy, TimeWarpConfig, Transport};
///
/// let cfg = TimeWarpConfig {
///     transport: Transport::in_proc(0xFA17, SchedulePolicy::RoundRobin),
///     window: 32,
///     ..TimeWarpConfig::default()
/// };
/// cfg.validate().expect("valid config");
/// assert_eq!(cfg.window, 32);
/// ```
#[derive(Debug, Clone)]
pub struct TimeWarpConfig {
    /// How the cluster workers execute and exchange messages (see
    /// [`Transport`]).
    pub transport: Transport,
    /// Epochs processed per scheduling quantum: the span between two
    /// publications of local virtual time, GVT attempts (one per quantum;
    /// under the deterministic executor, one every this many decisions) and
    /// fossil collections. Incoming messages are taken before every epoch.
    pub epochs_per_quantum: usize,
    /// Optimism window: a cluster will not execute events more than this far
    /// (in virtual time) above the current GVT. `u64::MAX` = unthrottled.
    /// Gate-level circuits are tightly coupled (every vector cycle crosses
    /// the cut), so small windows — a few vector periods — avoid rollback
    /// storms; this mirrors CTW practice of throttling cluster optimism.
    pub window: VTime,
    /// Crash-fault injection and recovery plan (see [`FaultPlan`]). The
    /// default injects nothing; recovery machinery is only engaged when a
    /// crash is armed. A crash needs the deterministic supervisor, whose
    /// restore-and-replay is exact: [`TimeWarpConfig::validate`] refuses one
    /// under [`Transport::Threads`].
    pub fault: FaultPlan,
    /// Scheduler-noise injection for [`Transport::Threads`]: when set, each
    /// worker derives a seeded RNG from this value and sprinkles
    /// `yield_now` / short sleeps between scheduling quanta. Final state is
    /// unaffected (that is what the threads fuzz suite asserts); only
    /// thread interleaving — and therefore rollback/message counts —
    /// varies. `None` (the default) injects nothing; any other transport
    /// refuses a seed.
    pub thread_jitter: Option<u64>,
    /// How long a TCP worker may send nothing, once its handshake is done,
    /// before the supervisor drops the connection and recovers the cluster
    /// like a crash. The supervisor only waits on a worker that owes it a
    /// reply, so silence this long means a lost peer or a half-open link.
    /// Default 30 s; zero is refused.
    pub silence_timeout: std::time::Duration,
    /// Deterministic network fault injection for the wire transports (see
    /// [`NetPlan`]). `None` injects nothing; [`Transport::Threads`] and
    /// [`Transport::InProc`], which have no wire, refuse a plan.
    pub chaos: Option<NetPlan>,
}

/// How a cluster preserves enough history to roll back. One variant: the
/// type (and the sixth parameter of [`ClusterProcess::new`]) stays only
/// because `benchmark/src/workloads/probes.rs` names both.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum StateSaving {
    /// Keep beside each processed event the value it replaced on its net;
    /// rollback walks the processed events backwards and restores those
    /// values.
    IncrementalUndo,
}

impl Default for TimeWarpConfig {
    fn default() -> Self {
        TimeWarpConfig {
            transport: Transport::Threads,
            epochs_per_quantum: 16,
            window: 16,
            fault: FaultPlan::default(),
            thread_jitter: None,
            silence_timeout: std::time::Duration::from_secs(30),
            chaos: None,
        }
    }
}

/// Livelock watchdog: when GVT makes no progress for this many scheduling
/// decisions (deterministic executor) or idle scheduling quanta (threaded
/// executor), the run fails with [`TimeWarpError::Stalled`] instead of
/// hanging.
pub(crate) const STALL_LIMIT: u64 = 5_000_000;

impl TimeWarpConfig {
    /// Reject a configuration no run can use, or a setting the chosen
    /// transport would silently drop, each with its own reason.
    /// [`run_timewarp`] calls this first, whatever the transport.
    pub fn validate(&self) -> Result<(), TimeWarpError> {
        let invalid = |reason: &str| {
            Err(TimeWarpError::InvalidConfig {
                reason: reason.to_string(),
            })
        };
        if self.epochs_per_quantum == 0 {
            return invalid("epochs_per_quantum must be at least 1");
        }
        if self.silence_timeout.is_zero() {
            return invalid("silence timeout must be longer than zero");
        }
        let threads = self.transport == Transport::Threads;
        if threads && self.fault.crash_at.is_some() {
            return invalid("a crash fault needs the deterministic supervisor, not Threads");
        }
        let wired = matches!(
            self.transport,
            Transport::Process { .. } | Transport::Tcp { .. }
        );
        if self.chaos.is_some() && !wired {
            return invalid("a network fault plan needs a wire transport (Process or Tcp)");
        }
        if self.thread_jitter.is_some() && !threads {
            return invalid("thread jitter perturbs only the Threads transport");
        }
        Ok(())
    }
}

/// Outcome of a Time Warp run.
#[derive(Debug, Clone)]
pub struct TwRunResult {
    /// Merged statistics over all clusters.
    pub stats: SimStats,
    /// Per-cluster statistics.
    pub cluster_stats: Vec<SimStats>,
    /// Final value of every net: a driven net's from the cluster owning its
    /// driver, a primary input's where the stimulus left it — whether or not
    /// any gate reads it — so a run that degraded to the sequential
    /// simulator is indistinguishable here on every net
    /// [`crate::seq::SeqSim::mismatches`] compares. Floating nets are `X`.
    pub values: Vec<Logic>,
    /// GVT computations that produced progress.
    pub gvt_rounds: u64,
    /// Crash-fault recovery provenance (all-zero for an undisturbed run).
    pub recovery: RecoveryOutcome,
}

/// Run the Time Warp kernel over the clusters of `plan`, simulating
/// `cycles` vectors of `stim`. `cfg.transport` selects threaded execution
/// (one worker thread per cluster), the deterministic in-process executor,
/// one OS process per cluster driven over Unix-domain sockets, or workers
/// dialing in over TCP; final net values are identical in all of them, and
/// the deterministic transports produce byte-identical artifacts. On those
/// supervised transports crash faults — injected via `cfg.fault`, or
/// genuine worker deaths and dropped connections under
/// [`Transport::Process`] / [`Transport::Tcp`] — are recovered
/// transparently from the last GVT checkpoint; once the restart budget is
/// exhausted, the run degrades to the sequential simulator (flagged in
/// [`TwRunResult::recovery`]). [`Transport::Threads`] has no recovery. A
/// worker panic is fatal on every transport
/// ([`TimeWarpError::WorkerPanic`]). Errors are reserved for conditions no
/// retry can fix (see [`TimeWarpError`]), an invalid `cfg` first among
/// them.
pub fn run_timewarp(
    nl: &Netlist,
    plan: &ClusterPlan,
    stim: &VectorStimulus,
    cycles: u64,
    cfg: &TimeWarpConfig,
) -> Result<TwRunResult, TimeWarpError> {
    cfg.validate()?;
    cfg.fault.check_victim(plan.k)?;
    match &cfg.transport {
        Transport::Threads => run_threads(nl, plan, stim, cycles, cfg),
        Transport::InProc { seed, schedule } => dst::run_deterministic(
            nl,
            plan,
            stim,
            cycles,
            cfg,
            *seed,
            schedule,
            cfg!(debug_assertions),
        ),
        Transport::Process { .. } | Transport::Tcp { .. } => {
            transport::run_wire(nl, plan, stim, cycles, cfg)
        }
    }
}

/// The threaded execution path: one scoped attempt, no recovery. Message
/// delivery order is not logged under free-running threads, so a dead
/// worker cannot be replayed exactly, and a panic is deterministic, so a
/// restart would panic again. Each worker's whole life — building its
/// [`ClusterProcess`] included — runs inside its unwind boundary; a panic
/// raises `abort` at once and the run ends as [`TimeWarpError::WorkerPanic`]
/// for the lowest-numbered cluster that panicked, as on every other
/// transport. [`TimeWarpConfig::validate`] refuses a crash fault here.
fn run_threads(
    nl: &Netlist,
    plan: &ClusterPlan,
    stim: &VectorStimulus,
    cycles: u64,
    cfg: &TimeWarpConfig,
) -> Result<TwRunResult, TimeWarpError> {
    let shared = GvtState::new(plan.k);
    // One channel per worker; every worker holds every sender.
    let (senders, receivers): (Vec<_>, Vec<_>) = (0..plan.k)
        .map(|_| crossbeam::channel::unbounded::<TwMessage>())
        .unzip();
    let (senders, shared) = (&senders[..], &shared);
    let per_cluster = std::thread::scope(|scope| {
        let workers: Vec<_> = receivers
            .into_iter()
            .enumerate()
            .map(|(me, rx)| {
                scope.spawn(move || {
                    std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                        let mut proc = ClusterProcess::new(
                            nl,
                            plan,
                            me as u32,
                            stim.clone(),
                            cycles,
                            StateSaving::IncrementalUndo,
                        );
                        worker_loop(&mut proc, rx, senders, shared, cfg, me);
                        (proc.take_stats(), proc.into_values())
                    }))
                    .map_err(|payload| {
                        // Wake the survivors so they stop waiting for us.
                        shared.abort.store(true, Ordering::SeqCst);
                        TimeWarpError::WorkerPanic {
                            cluster: me as u32,
                            message: transport::panic_message(payload.as_ref()),
                        }
                    })
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().expect("a worker's panic is caught inside it"))
            .collect::<Result<Vec<_>, _>>()
    })?;
    if shared.stalled.load(Ordering::SeqCst) {
        return Err(TimeWarpError::Stalled {
            gvt: shared.gvt.load(Ordering::SeqCst),
            idle: STALL_LIMIT,
        });
    }
    let mut r = merge_results(
        nl,
        plan,
        stim,
        cycles,
        per_cluster,
        shared.gvt_rounds.load(Ordering::SeqCst),
    );
    // Transport provenance: one channel push per message. Under
    // free-running threads the value depends on interleaving (unlike the
    // deterministic transports).
    r.recovery.messages_sent = shared.messages_sent.load(Ordering::SeqCst);
    r.recovery.frames_sent = r.recovery.messages_sent;
    Ok(r)
}

/// Merge per-cluster stats and final net values into a [`TwRunResult`].
/// Each cluster owns the values of nets its gates drive and of its stimulus
/// inputs; constants are forced. A primary input no gate reads is listed by
/// no cluster (see [`ClusterPlan::new`]) and generates no event anywhere: it
/// takes the value the stimulus leaves it at, as in the sequential
/// simulator. Shared by the threaded and deterministic execution paths.
fn merge_results(
    nl: &Netlist,
    plan: &ClusterPlan,
    stim: &VectorStimulus,
    cycles: u64,
    per_cluster: Vec<(SimStats, Vec<Logic>)>,
    gvt_rounds: u64,
) -> TwRunResult {
    let mut stats = SimStats::default();
    let mut cluster_stats = Vec::with_capacity(per_cluster.len());
    let mut values = vec![Logic::X; nl.net_count()];
    // Where the stimulus leaves every input: the last vector's bit (the
    // initial zero after no vector), the clock low after its falling edge.
    for &pi in &stim.data_inputs {
        values[pi.idx()] = cycles
            .checked_sub(1)
            .map_or(Logic::Zero, |c| stim.bit(pi, c));
    }
    if let Some(clk) = stim.clock {
        values[clk.idx()] = Logic::Zero;
    }
    for (me, (s, vals)) in per_cluster.into_iter().enumerate() {
        stats.merge(&s);
        cluster_stats.push(s);
        for &g in &plan.clusters[me].gates {
            let out = nl.gates[g.idx()].output;
            values[out.idx()] = vals[out.idx()];
        }
        for &pi in &plan.clusters[me].stimulus_nets {
            values[pi.idx()] = vals[pi.idx()];
        }
    }
    if let Some(c0) = nl.const0_net {
        values[c0.idx()] = Logic::Zero;
    }
    if let Some(c1) = nl.const1_net {
        values[c1.idx()] = Logic::One;
    }
    stats.gvt_rounds = gvt_rounds;

    TwRunResult {
        stats,
        cluster_stats,
        values,
        gvt_rounds,
        recovery: RecoveryOutcome::default(),
    }
}

/// Hand every message waiting in `rx` to `proc`. The in-transit counter is
/// decremented only after the published local virtual time reflects the
/// insertions, keeping GVT samples sound.
fn take_messages(
    proc: &mut ClusterProcess<'_>,
    rx: &crossbeam::channel::Receiver<TwMessage>,
    send: &mut impl FnMut(TwMessage),
    shared: &GvtState,
    me: usize,
) {
    let mut taken = 0i64;
    while let Ok(msg) = rx.try_recv() {
        proc.handle_message(msg, send);
        taken += 1;
    }
    if taken > 0 {
        shared.publish_lvt(me, proc.lvt());
        shared.in_transit.fetch_sub(taken, Ordering::SeqCst);
    }
}

fn worker_loop(
    proc: &mut ClusterProcess<'_>,
    rx: crossbeam::channel::Receiver<TwMessage>,
    senders: &[crossbeam::channel::Sender<TwMessage>],
    shared: &GvtState,
    cfg: &TimeWarpConfig,
    me: usize,
) {
    // Messages count as in transit from the moment they are pushed, so GVT
    // can never advance past one. A failed send means the receiver's worker
    // panicked and is gone; the run ends as `WorkerPanic`, so the message
    // is moot.
    let mut send = |m: TwMessage| {
        shared.send_epoch.fetch_add(1, Ordering::SeqCst);
        shared.in_transit.fetch_add(1, Ordering::SeqCst);
        shared.messages_sent.fetch_add(1, Ordering::Relaxed);
        let _ = senders[m.dst as usize].send(m);
    };
    // Scheduler-noise injection: a per-worker seeded RNG (the shared seed
    // xor'd with the cluster id, so workers de-correlate) decides between
    // quanta whether to yield the OS slice or sleep a few tens of
    // microseconds. This perturbs interleavings the way a loaded host
    // would, without touching the protocol itself.
    let mut jitter = cfg.thread_jitter.map(|seed| {
        use rand::SeedableRng;
        rand::rngs::StdRng::seed_from_u64(seed ^ (me as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15))
    });
    // Livelock watchdog: consecutive quanta without local work and without
    // a GVT advance. Any progress — own epochs or a moving GVT — resets it.
    let mut idle_spins = 0u64;
    let mut seen_gvt: VTime = 0;
    loop {
        if let Some(rng) = jitter.as_mut() {
            use rand::Rng;
            let roll: u32 = rng.gen_range(0..100);
            if roll < 10 {
                std::thread::sleep(std::time::Duration::from_micros(u64::from(roll) * 10));
            } else if roll < 35 {
                std::thread::yield_now();
            }
        }
        // A peer panicked or the watchdog tripped: the run is over.
        if shared.abort.load(Ordering::SeqCst) {
            break;
        }

        take_messages(proc, &rx, &mut send, shared, me);
        shared.publish_lvt(me, proc.lvt());

        let gvt = shared.gvt.load(Ordering::SeqCst);
        if gvt == VTime::MAX {
            break; // global quiescence
        }
        if gvt > seen_gvt {
            seen_gvt = gvt;
            idle_spins = 0;
        }

        // Process a quantum of epochs within the optimism window.
        let limit = gvt.saturating_add(cfg.window);
        let mut worked = false;
        for _ in 0..cfg.epochs_per_quantum {
            // An epoch run past a message already in the channel is an
            // epoch rolled back: look before each one, not once a quantum.
            take_messages(proc, &rx, &mut send, shared, me);
            if !proc.process_next_epoch(limit, &mut send) {
                break;
            }
            worked = true;
        }
        shared.publish_lvt(me, proc.lvt());

        // One GVT attempt per quantum.
        if let Some(new_gvt) = shared.try_compute_gvt() {
            proc.fossil_collect(new_gvt);
        } else {
            let g = shared.gvt.load(Ordering::SeqCst);
            if g != VTime::MAX {
                proc.fossil_collect(g);
            }
        }
        if worked {
            idle_spins = 0;
        } else {
            idle_spins += 1;
            if idle_spins >= STALL_LIMIT {
                shared.stalled.store(true, Ordering::SeqCst);
                shared.abort.store(true, Ordering::SeqCst);
                break;
            }
            std::thread::yield_now();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    /// The records every queue and channel of the kernel moves: an event is
    /// `SeqSim`'s 16 bytes, and a message adds its two endpoints and its
    /// polarity to one.
    #[test]
    fn event_and_message_sizes_are_pinned() {
        assert_eq!((size_of::<NetEvent>(), size_of::<TwMessage>()), (16, 32));
    }

    /// Every invalid setting, set through its public field, on a transport
    /// that would otherwise run it: `run_timewarp` refuses each before
    /// anything starts, for its own reason.
    #[test]
    fn run_timewarp_rejects_each_invalid_setting_with_its_reason() {
        let nl = dvs_verilog::parse_and_elaborate(&dvs_workloads::seqcirc::generate_counter(4))
            .expect("the counter elaborates")
            .into_netlist();
        let blocks: Vec<u32> = (0..nl.gate_count() as u32).map(|g| g % 2).collect();
        let plan = ClusterPlan::new(&nl, &blocks, 2);
        let stim = VectorStimulus::from_netlist(&nl, 10, 1);
        let policy = SchedulePolicy::RoundRobin;
        let on = |transport: Transport| TimeWarpConfig {
            transport,
            ..TimeWarpConfig::default()
        };
        let no_epochs = |transport| TimeWarpConfig {
            epochs_per_quantum: 0,
            ..on(transport)
        };
        let rejected = [
            (no_epochs(Transport::Threads), "epochs_per_quantum"),
            (
                no_epochs(Transport::in_proc(1, policy)),
                "epochs_per_quantum",
            ),
            (
                no_epochs(Transport::process(1, policy)),
                "epochs_per_quantum",
            ),
            (
                TimeWarpConfig {
                    silence_timeout: Duration::ZERO,
                    ..on(Transport::tcp(1, policy))
                },
                "silence timeout",
            ),
            (
                TimeWarpConfig {
                    fault: FaultPlan::crash(1, 3),
                    ..on(Transport::Threads)
                },
                "crash fault",
            ),
            (
                TimeWarpConfig {
                    fault: FaultPlan::crash(2, 3),
                    ..on(Transport::in_proc(1, policy))
                },
                "crash victim 2",
            ),
            (
                TimeWarpConfig {
                    fault: FaultPlan::crash(2, 3),
                    ..on(Transport::process(1, policy))
                },
                "crash victim 2",
            ),
            (
                TimeWarpConfig {
                    fault: FaultPlan::crash(2, 3),
                    ..on(Transport::tcp(1, policy))
                },
                "crash victim 2",
            ),
            (
                TimeWarpConfig {
                    chaos: Some(NetPlan::new()),
                    ..on(Transport::in_proc(1, policy))
                },
                "network fault plan",
            ),
            (
                TimeWarpConfig {
                    thread_jitter: Some(7),
                    ..on(Transport::in_proc(1, policy))
                },
                "thread jitter",
            ),
        ];
        for (cfg, why) in rejected {
            let label = format!("{why} on {}", cfg.transport.name());
            match run_timewarp(&nl, &plan, &stim, 4, &cfg) {
                Err(TimeWarpError::InvalidConfig { reason }) => {
                    assert!(reason.contains(why), "{label}: rejected with {reason:?}")
                }
                other => panic!("{label}: {other:?}"),
            }
        }
        // The deterministic executor's own door refuses the same victim.
        let stray = TimeWarpConfig {
            fault: FaultPlan::crash(2, 3),
            ..on(Transport::in_proc(1, policy))
        };
        let direct = dst::run_deterministic(&nl, &plan, &stim, 4, &stray, 1, &policy, true);
        assert!(
            matches!(direct, Err(TimeWarpError::InvalidConfig { .. })),
            "{direct:?}"
        );
        TimeWarpConfig::default()
            .validate()
            .expect("the defaults are valid");
    }
}
