//! Crash-fault injection and recovery for the Time Warp kernel.
//!
//! The fault model is a *crash-stop* worker: a cluster dies, losing its
//! entire in-memory state. No message is lost with it: workers never send
//! to each other directly, and every message between clusters sits in the
//! supervisor's per-channel queue until its receiver has answered for it.
//! Under [`super::Transport::InProc`] the crash is simulated by discarding
//! the cluster state machine; under [`super::Transport::Process`] it is an
//! OS process dying for real (a `SIGKILL`'d worker, detected by the
//! supervisor as a socket EOF); under [`super::Transport::Tcp`] any dropped
//! connection — EOF, reset, or silence past
//! [`super::TimeWarpConfig::silence_timeout`] — is folded into the same
//! event, because over a network a silent peer and a dead one cannot
//! be told apart. Under [`super::Transport::Threads`] nothing is injected
//! and nothing is recovered: it has no supervisor holding the messages, and
//! a worker panic ends the run as [`super::TimeWarpError::WorkerPanic`].
//! Recovery is identical every way and rests on two facts:
//!
//! * **coordinated checkpoints at GVT rounds** — the supervisor advances
//!   GVT only when every queue is empty, so the set of per-cluster
//!   images taken right after a GVT advance is a consistent global cut with
//!   no channel state (see [`super::checkpoint`]). A full
//!   [`super::Checkpoint`] is captured at every tracked round and is the
//!   victim's restore image;
//! * **the supervisor pops a message only after its receiver answered for
//!   it** — a worker lost mid-delivery has consumed nothing as far as the
//!   supervisor knows, so the queues toward the victim are still exactly
//!   what it has yet to receive.
//!
//! On a crash the supervisor rebuilds the victim from its last image and
//! **replays its input log** (the exact sequence of step/deliver/fossil
//! operations applied since that image — the cluster state machine is
//! deterministic, so replay reproduces the pre-crash state bit-for-bit,
//! counters included, with re-sends suppressed because the originals are
//! already queued or delivered). Its incoming queues are left as they are.
//! The global state after recovery is therefore *exactly* the pre-crash
//! state, which is what makes crash runs byte-identical to no-crash runs
//! under the deterministic transports — determinism is the correctness
//! oracle for recovery, the same way it is for the schedule fuzzer and for
//! the process transport itself.
//!
//! When the restart budget is exhausted the supervisor degrades gracefully:
//! the whole workload is re-run on the sequential simulator, yielding a
//! correct final state with `degraded = true` in the result instead of an
//! error.

use super::proc::ClusterProcess;
use super::{TimeWarpError, TwMessage, TwRunResult};
use crate::seq::{NullObserver, SeqSim, SimConfig};
use crate::stimulus::VectorStimulus;
use crate::wheel::VTime;
use dvs_verilog::netlist::{NetId, Netlist};

/// Crash-fault injection plan — a first-class deterministic fault alongside
/// the [`super::dst::SchedulePolicy`] message faults.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultPlan {
    /// Crash cluster `.0` when the deterministic supervisor reaches
    /// decision index `.1` (under the in-proc transport the cluster state
    /// machine is discarded; under the process and TCP transports the
    /// worker process is killed with `SIGKILL`). `None` disables crash
    /// injection. [`super::Transport::Threads`] has no supervisor, so
    /// [`super::TimeWarpConfig::validate`] refuses `Some` there; a cluster
    /// the plan does not have is refused as well, before any worker starts.
    pub crash_at: Option<(u32, u64)>,
    /// How many times the fault fires in total. Treated as at least 1 when
    /// `crash_at` is set. Recovery consumes no decision, so after each one
    /// the re-armed fault fires again at the same decision index, back to
    /// back, until this budget is spent; `crashes > max_restarts` is how a
    /// plan reaches the sequential fallback.
    pub crashes: u32,
    /// Restarts the supervisor attempts before giving up and degrading to
    /// the sequential simulator.
    pub max_restarts: u32,
}

impl FaultPlan {
    /// A single crash of `cluster` at decision `at`, with the default
    /// restart budget.
    pub fn crash(cluster: u32, at: u64) -> Self {
        FaultPlan {
            crash_at: Some((cluster, at)),
            crashes: 1,
            ..FaultPlan::default()
        }
    }

    /// Refuse a crash aimed at a cluster outside a `k`-cluster plan: it
    /// would never fire, and the run would look like a survived crash.
    /// Checked by every door into the supervisor — [`super::run_timewarp`]
    /// and [`super::dst::run_with_schedule`] — before any worker starts.
    pub(crate) fn check_victim(&self, k: usize) -> Result<(), TimeWarpError> {
        match self.crash_at {
            Some((victim, _)) if victim as usize >= k => Err(TimeWarpError::InvalidConfig {
                reason: format!("crash victim {victim} is not a cluster of this {k}-cluster plan"),
            }),
            _ => Ok(()),
        }
    }

    /// Effective number of times the fault fires.
    pub(crate) fn crash_budget(&self) -> u32 {
        if self.crash_at.is_some() {
            self.crashes.max(1)
        } else {
            0
        }
    }
}

impl Default for FaultPlan {
    fn default() -> Self {
        FaultPlan {
            crash_at: None,
            crashes: 0,
            max_restarts: 3,
        }
    }
}

/// What the supervisor did about crash faults during a run. All fields are
/// deterministic under the deterministic transports, but they are *recovery
/// provenance*, not simulation content — canonical artifacts exclude them
/// so a recovered run serializes byte-identically to an undisturbed one.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct RecoveryOutcome {
    /// Crash faults that fired (injected or — under the process transport —
    /// genuine worker deaths).
    pub crashes: u32,
    /// Successful restore-and-replay recoveries.
    pub restarts: u32,
    /// Input-log operations replayed across all recoveries.
    pub replayed_ops: u64,
    /// The cluster that died, once per crash, in crash order.
    pub victims: Vec<u32>,
    /// Canonical-JSON bytes of every image captured during the run
    /// (including the initial GVT-0 ones). Counted identically on all
    /// deterministic transports, so it is exact and seed-reproducible.
    pub checkpoint_bytes_full: u64,
    /// Corrupt frames the supervisor observed on the wire (CRC32
    /// mismatches, sequence gaps, zero-length or oversized frames), each
    /// of which tore the connection down for recovery. Supervisor-side
    /// observations only: a frame corrupted on its way *to* a worker kills
    /// that worker's connection and is observed here as a connection loss,
    /// not a corrupt frame.
    pub corrupt_frames: u64,
    /// TCP connections the supervisor dropped because the worker sent
    /// nothing for [`super::TimeWarpConfig::silence_timeout`], one per
    /// drop — a lost peer or a half-open link.
    pub silent_peers: u64,
    /// Network faults from the [`super::NetPlan`] that actually fired
    /// (benign ones — duplicates, split writes, latency — included).
    pub chaos_faults_injected: u64,
    /// Messages shipped toward their receivers: the messages left in an
    /// outbox under [`super::Transport::Threads`], every one the clusters
    /// emitted, and supervisor→worker `deliver` payloads on the wire
    /// transports. Exact on every transport.
    pub messages_sent: u64,
    /// What carried those messages: the non-empty outboxes handed over
    /// under [`super::Transport::Threads`], at most one per channel a
    /// round, and answered `deliver` frames on the wire transports — one
    /// per delivery *run*. Either way at most `messages_sent`, and exact.
    pub frames_sent: u64,
    /// The restart budget ran out and the run fell back to the sequential
    /// simulator; `values`/`stats` are the sequential run's.
    pub degraded: bool,
}

/// One logged operation applied to a cluster since its last checkpoint.
/// The cluster state machine is a deterministic function of this sequence,
/// which is exactly why replaying it reconstructs the pre-crash state.
/// This is also a wire type: the process transport ships the victim's log
/// in the `restore` frame so the respawned worker replays it locally.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ReplayOp {
    /// `process_next_epoch(limit, ..)` was invoked (the optimism limit is
    /// constant between GVT rounds, but stored per-op for robustness).
    Step { limit: VTime },
    /// This exact message was delivered.
    Deliver(TwMessage),
    /// Fossil collection ran at this GVT. A GVT round that captures an
    /// image truncates the log in the same exchange, so this is replayed
    /// in one place only: after the final round (GVT = MAX, no image) by a
    /// worker that dies before its `finish` — skipping it there would
    /// leave the `fossil_collected` counter behind the undisturbed run's.
    Fossil(VTime),
}

/// Replay a logged operation sequence against a rebuilt cluster process.
/// Re-sends are suppressed: the original messages are already on the wire
/// or delivered, and re-emitting them would deliver them twice. Shared by
/// the in-proc worker and the process-worker serve loop.
pub(crate) fn replay_ops(p: &mut ClusterProcess<'_>, ops: &[ReplayOp]) {
    let mut suppress = |_m: TwMessage| {};
    for op in ops {
        match *op {
            ReplayOp::Step { limit } => {
                p.process_next_epoch(limit, &mut suppress);
            }
            ReplayOp::Deliver(m) => _ = p.handle_message(m, &mut suppress),
            ReplayOp::Fossil(gvt) => p.fossil_collect(gvt),
        }
    }
}

/// Recovery bookkeeping for the transport-generic supervisor: per-cluster
/// images with their input logs. Images are held *encoded* — the canonical
/// JSON text the worker captured them as — because the supervisor only
/// stores them and hands them back in a restore; whoever rebuilds a process
/// from one decodes it. Everything is scoped to one window, "since the last
/// tracked GVT round": that round captured an image of every cluster, and
/// its valid sample implies every channel was drained, so a restore never
/// reaches behind it. Unlike the worker state it protects, this lives
/// supervisor-side on **all** deterministic transports, which is what keeps
/// the recovery protocol identical whether the worker is a struct in this
/// process or an OS process on a socket.
pub(crate) struct RecoveryLog {
    bases: Vec<String>,
    input_log: Vec<Vec<ReplayOp>>,
}

impl RecoveryLog {
    /// Start from the initial coordinated checkpoints (GVT 0, fresh state).
    pub fn from_checkpoints(bases: Vec<String>) -> Self {
        let input_log = vec![Vec::new(); bases.len()];
        RecoveryLog { bases, input_log }
    }

    pub fn record_step(&mut self, c: usize, limit: VTime) {
        self.input_log[c].push(ReplayOp::Step { limit });
    }

    pub fn record_deliver(&mut self, m: TwMessage) {
        self.input_log[m.dst as usize].push(ReplayOp::Deliver(m));
    }

    pub fn record_fossil(&mut self, c: usize, gvt: VTime) {
        self.input_log[c].push(ReplayOp::Fossil(gvt));
    }

    /// A fresh image of cluster `i` was captured at a GVT round; its input
    /// log restarts from this image.
    pub fn set_base(&mut self, i: usize, ck: String) {
        self.bases[i] = ck;
        self.input_log[i].clear();
    }

    /// The victim's last image.
    pub fn base(&self, victim: usize) -> &str {
        &self.bases[victim]
    }

    /// The victim's input log since that image — the replay sequence
    /// applied on top of it.
    pub fn ops(&self, victim: usize) -> &[ReplayOp] {
        &self.input_log[victim]
    }
}

/// Graceful degradation: run the whole workload on the sequential simulator
/// and report its (correct) final state with `degraded = true`. The caller
/// fills in the crash/restart provenance.
pub(crate) fn degrade_sequential(nl: &Netlist, stim: &VectorStimulus, cycles: u64) -> TwRunResult {
    let mut seq = SeqSim::new(
        nl,
        &SimConfig {
            cycles,
            init_zero: true,
        },
    );
    seq.run(stim, cycles, &mut NullObserver);
    let values = (0..nl.net_count())
        .map(|i| seq.value(NetId(i as u32)))
        .collect();
    TwRunResult {
        stats: seq.stats().clone(),
        cluster_stats: Vec::new(),
        values,
        gvt_rounds: 0,
        recovery: RecoveryOutcome {
            degraded: true,
            ..RecoveryOutcome::default()
        },
    }
}
