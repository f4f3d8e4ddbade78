//! Clustered Time Warp — the optimistic parallel simulation kernel.
//!
//! This reproduces the role of OOCTW (the object-oriented Clustered Time
//! Warp kernel underneath the paper's DVS) with threads standing in for MPI
//! ranks: one worker thread per "machine", each owning one cluster of the
//! partitioned circuit, exchanging timestamped net-change messages in
//! lock-step rounds.
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
//! * **GVT** — read by whoever holds every message in flight. Between two
//!   rounds of [`Transport::Threads`] each message sits in its sender's
//!   outbox, so GVT is the least LVT or outbox time, exactly. The
//!   supervisor of the other transports holds every message in its queues:
//!   between two of its rounds ([`SchedulePolicy::RoundRobin`]) GVT is the
//!   least LVT or queued send time, the same rule; one decision at a time,
//!   it advances GVT to the least LVT whenever the queues are empty;
//! * **fossil collection** — processed events (with their `replaced`
//!   values) strictly below GVT are reclaimed.
//!
//! Determinism: the final circuit state equals the sequential simulator's
//! (asserted in tests) under every transport, and every counter is exact.
//! [`Transport::Threads`] runs the clusters at once in lock-step rounds,
//! whose order depends on nothing but the plan, so a rerun reproduces its
//! counters. Under [`Transport::InProc`], [`Transport::Process`] and
//! [`Transport::Tcp`] the same cluster state machines are driven by the
//! deterministic supervisor (see [`dst`] and [`transport`]), and every
//! counter is a seed-reproducible value, byte-identical between them,
//! whether the workers are in-process state machines, `SIGKILL`-able OS
//! processes on Unix sockets, or processes dialing in over TCP. Under
//! [`SchedulePolicy::RoundRobin`] that supervisor runs `Threads`' rounds,
//! so all four transports leave one and the same canonical artifact, and
//! the wire workers run each round at the same time.
//! ([`crate::cluster_model`] remains as the fast *modeled* estimate of
//! those counts for pre-simulation sweeps.)

pub mod chaos;
pub mod checkpoint;
pub mod dst;
pub mod error;
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
use proc::ClusterProcess;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering::Relaxed};
use std::sync::{Barrier, Mutex};

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
    /// The per-decision GVT cadence of the deterministic supervisor: under
    /// every [`SchedulePolicy`] but `RoundRobin`, one GVT attempt, and with
    /// it a fossil collection, every this many decisions. Lock-step rounds
    /// ignore it — [`Transport::Threads`] and `RoundRobin` run one epoch
    /// per cluster a round and read GVT after every round.
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
            silence_timeout: std::time::Duration::from_secs(30),
            chaos: None,
        }
    }
}

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
        if self.transport == Transport::Threads && self.fault.crash_at.is_some() {
            return invalid("a crash fault needs the deterministic supervisor, not Threads");
        }
        let wired = matches!(
            self.transport,
            Transport::Process { .. } | Transport::Tcp { .. }
        );
        if self.chaos.is_some() && !wired {
            return invalid("a network fault plan needs a wire transport (Process or Tcp)");
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

/// The threaded execution path: one scoped thread per cluster, in lock-step
/// rounds behind one [`Barrier`]. Each round, a worker
/// 1. hands its cluster the messages sent to it the round before, in
///    ascending source order, FIFO per channel;
/// 2. processes at most one epoch, within GVT + `window`;
/// 3. leaves its sends in its own outbox per destination and publishes
///    min(LVT, earliest send);
/// 4. waits at the barrier, reads GVT as the least published value and
///    fossil-collects below it.
///
/// That GVT is exact, because every message in flight sits in an outbox, and
/// it rises every round, because every cluster at GVT processes its epoch
/// there. Outboxes and published values are double-buffered by round
/// parity, so one barrier a round suffices. No counter depends on thread
/// timing.
///
/// One attempt, no recovery: a panic is deterministic, so a restart would
/// panic again. A worker that panics, building its cluster or in a round,
/// raises `abort` and still waits at the barrier once, so no peer hangs.
/// Every worker checks `abort` after each barrier, and the run ends as
/// [`TimeWarpError::WorkerPanic`] for the lowest-numbered cluster that
/// panicked. [`TimeWarpConfig::validate`] refuses a crash fault here.
fn run_threads(
    nl: &Netlist,
    plan: &ClusterPlan,
    stim: &VectorStimulus,
    cycles: u64,
    cfg: &TimeWarpConfig,
) -> Result<TwRunResult, TimeWarpError> {
    let k = plan.k;
    let (barrier, abort) = (&Barrier::new(k), &AtomicBool::new(false));
    // Per round parity: each worker's published value, and the outbox of
    // each channel `src * k + dst`. `Relaxed` suffices for these and for
    // `abort`: each is stored before a `barrier.wait()` and loaded after
    // one, and the barrier's lock orders the two.
    let published: &[Vec<AtomicU64>; 2] =
        &std::array::from_fn(|_| (0..k).map(|_| AtomicU64::new(0)).collect());
    let outboxes: &[Vec<Mutex<Vec<TwMessage>>>; 2] =
        &std::array::from_fn(|_| (0..k * k).map(|_| Mutex::default()).collect());
    let outbox = |p: usize, src: usize, dst: usize| {
        outboxes[p][src * k + dst]
            .lock()
            .expect("no worker panics holding an outbox")
    };
    let lived = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..k)
            .map(|me| {
                scope.spawn(move || {
                    // The peers expect this worker at the barrier until the
                    // round that ends the run.
                    let mut owed = true;
                    catch_unwind(AssertUnwindSafe(|| {
                        let saving = StateSaving::IncrementalUndo;
                        let mut proc =
                            ClusterProcess::new(nl, plan, me as u32, stim.clone(), cycles, saving);
                        let mut out = vec![Vec::new(); k];
                        let (mut gvt, mut rounds, mut sent) = (0, 0u64, (0, 0));
                        while gvt != VTime::MAX {
                            let p = rounds as usize % 2;
                            let mut earliest = VTime::MAX;
                            let mut send = |m: TwMessage| {
                                earliest = earliest.min(m.ev.time);
                                out[m.dst as usize].push(m);
                            };
                            for src in 0..k {
                                let inbox = std::mem::take(&mut *outbox(1 - p, src, me));
                                for m in inbox {
                                    proc.handle_message(m, &mut send);
                                }
                            }
                            proc.process_next_epoch(gvt.saturating_add(cfg.window), &mut send);
                            for (dst, msgs) in out.iter_mut().enumerate() {
                                if !msgs.is_empty() {
                                    sent = (sent.0 + msgs.len() as u64, sent.1 + 1);
                                    std::mem::swap(&mut *outbox(p, me, dst), msgs);
                                }
                            }
                            published[p][me].store(proc.lvt().min(earliest), Relaxed);
                            barrier.wait();
                            if abort.load(Relaxed) {
                                owed = false;
                                return None;
                            }
                            let next = published[p].iter().map(|v| v.load(Relaxed)).min();
                            let next = next.expect("a plan has a cluster");
                            debug_assert!(next > gvt, "GVT stuck at {gvt} (cluster {me})");
                            (gvt, rounds, owed) = (next, rounds + 1, next != VTime::MAX);
                            proc.fossil_collect(gvt);
                        }
                        Some((proc.take_stats(), proc.into_values(), rounds, sent))
                    }))
                    .map_err(|payload| {
                        abort.store(true, Relaxed);
                        if owed {
                            barrier.wait();
                        }
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
    let (mut gvt_rounds, mut sent) = (0, (0, 0));
    let per_cluster = lived
        .into_iter()
        .map(|done| {
            let (stats, values, rounds, (messages, outboxes)) =
                done.expect("only a panic raises abort");
            (gvt_rounds, sent) = (rounds, (sent.0 + messages, sent.1 + outboxes));
            (stats, values)
        })
        .collect();
    let mut r = merge_results(nl, plan, stim, cycles, per_cluster, gvt_rounds);
    // Provenance: the messages moved, and the non-empty outboxes that
    // carried them, one per channel per round at most.
    (r.recovery.messages_sent, r.recovery.frames_sent) = sent;
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
