//! Crash-fault injection and recovery for the Time Warp kernel.
//!
//! The fault model is a *crash-stop* worker: a cluster dies, losing its
//! entire in-memory state **and** every message currently in flight toward
//! it (its incoming channels die with it). Messages it already sent live on
//! — they left the node. Under [`super::Transport::InProc`] the crash is
//! simulated by discarding the cluster state machine; under
//! [`super::Transport::Process`] it is an OS process dying for real (a
//! `SIGKILL`'d worker, detected by the supervisor as a socket EOF); under
//! [`super::Transport::Tcp`] any dropped connection — EOF, reset, or a
//! read that times out — is folded into the same event, because over a
//! network a silent peer and a dead one cannot be told apart. Recovery is
//! identical every way and follows classic log-based rollback
//! recovery, built on two retention rules that piggyback on the existing
//! GVT machinery:
//!
//! * **coordinated checkpoints at GVT rounds** — a valid GVT sample requires
//!   `in_transit == 0`, i.e. empty channels, so the set of per-cluster
//!   images taken right after a GVT advance is a consistent global cut with
//!   no channel state (see [`super::checkpoint`]). A full
//!   [`super::Checkpoint`] is captured at every tracked round and is the
//!   victim's restore image;
//! * **sender-side retention for one round** — every message sent since
//!   the last GVT round is retained by its sender (the supervisor's
//!   `sent_log`); the GVT advance doubles as the group acknowledgement (the
//!   sample was only valid once every channel drained), so the retention
//!   window is exactly one GVT round.
//!
//! On a crash the supervisor rebuilds the victim from its last image,
//! **replays its input log** (the exact sequence of
//! step/deliver/fossil operations applied since that image —
//! the cluster state machine is deterministic, so replay reproduces the
//! pre-crash state bit-for-bit, counters included, with re-sends
//! suppressed because the originals are already on the wire or delivered),
//! and re-fills its incoming channels with the undelivered suffix of each
//! neighbour's retained output history.
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
use super::{TwMessage, TwRunResult};
use crate::seq::{NullObserver, SeqSim, SimConfig};
use crate::stimulus::VectorStimulus;
use crate::wheel::VTime;
use dvs_verilog::netlist::{NetId, Netlist};
use std::sync::atomic::{AtomicU32, Ordering};

/// Crash-fault injection plan — a first-class deterministic fault alongside
/// the [`super::dst::SchedulePolicy`] message faults.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultPlan {
    /// Crash cluster `.0` when the deterministic executor reaches decision
    /// index `.1` (under the in-proc transport the cluster state machine is
    /// discarded; under the process transport the worker process is killed
    /// with `SIGKILL`), or — under [`super::Transport::Threads`] — when
    /// that cluster's worker finishes its `.1`-th scheduling quantum, by
    /// panicking it. `None` disables crash injection.
    pub crash_at: Option<(u32, u64)>,
    /// How many times the fault fires in total: after each recovery the
    /// fault re-arms until the budget is spent. Treated as at least 1 when
    /// `crash_at` is set.
    pub crashes: u32,
    /// Restarts the supervisor attempts before giving up and degrading to
    /// the sequential simulator.
    pub max_restarts: u32,
}

impl FaultPlan {
    /// A single crash of `cluster` at decision/quantum `at`, with the
    /// default restart budget.
    pub fn crash(cluster: u32, at: u64) -> Self {
        FaultPlan {
            crash_at: Some((cluster, at)),
            crashes: 1,
            ..FaultPlan::default()
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
    /// Heartbeats missed on connections the supervisor declared half-open:
    /// each detection contributes exactly its exhausted miss budget
    /// (`heartbeat_budget` beats per event), so the counter is
    /// deterministic under a seeded fault plan. Transient late beats that
    /// recovered before the budget ran out are not counted.
    pub heartbeats_missed: u64,
    /// Network faults from the [`super::NetPlan`] that actually fired
    /// (benign ones — duplicates, split writes, latency — included).
    pub chaos_faults_injected: u64,
    /// Messages shipped toward their receivers: channel pushes under
    /// [`super::Transport::Threads`], supervisor→worker `deliver` payloads
    /// on the wire transports. Exact and seed-reproducible on the
    /// deterministic transports, interleaving-dependent under
    /// free-running threads.
    pub messages_sent: u64,
    /// What carried those messages: channel pushes under
    /// [`super::Transport::Threads`] (one per message, so equal to
    /// [`messages_sent`](RecoveryOutcome::messages_sent) there), answered
    /// `deliver` frames on the wire transports — one per delivery *run*,
    /// so at most `messages_sent` and exact for a given `(seed, schedule)`.
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
/// or delivered, and re-emitting them would duplicate `(src, seq)`
/// identities. Shared by the in-proc worker and the process-worker serve
/// loop.
pub(crate) fn replay_ops(p: &mut ClusterProcess<'_>, ops: &[ReplayOp]) {
    let mut suppress = |_m: TwMessage| {};
    for op in ops {
        match *op {
            ReplayOp::Step { limit } => {
                p.process_next_epoch(limit, &mut suppress);
            }
            ReplayOp::Deliver(m) => p.handle_message(m, &mut suppress),
            ReplayOp::Fossil(gvt) => p.fossil_collect(gvt),
        }
    }
}

/// Recovery bookkeeping for the transport-generic supervisor: per-cluster
/// images with their input logs, per-channel sender-side retention. Images
/// are held *encoded* — the canonical JSON text the worker captured them
/// as — because the supervisor only stores them and hands them back in a
/// restore; whoever rebuilds a process from one decodes it. Everything is
/// scoped to one window, "since the last tracked GVT round": that round
/// captured an image of every cluster, and its valid sample implies every
/// channel was drained, so a restore never reaches behind it. Unlike the
/// worker state it protects, this lives supervisor-side on **all**
/// deterministic transports, which is what keeps the recovery protocol
/// identical whether the worker is a struct in this process or an OS
/// process on a socket.
pub(crate) struct RecoveryLog {
    k: usize,
    bases: Vec<String>,
    input_log: Vec<Vec<ReplayOp>>,
    /// Messages sent on channel `src * k + dst` since the last round
    /// (positives *and* anti-messages, in send order — FIFO per channel).
    sent_log: Vec<Vec<TwMessage>>,
    /// Deliveries consumed from each channel since the last round.
    delivered: Vec<usize>,
}

impl RecoveryLog {
    /// Start from the initial coordinated checkpoints (GVT 0, fresh state).
    pub fn from_checkpoints(bases: Vec<String>) -> Self {
        let k = bases.len();
        RecoveryLog {
            k,
            bases,
            input_log: vec![Vec::new(); k],
            sent_log: vec![Vec::new(); k * k],
            delivered: vec![0; k * k],
        }
    }

    pub fn record_step(&mut self, c: usize, limit: VTime) {
        self.input_log[c].push(ReplayOp::Step { limit });
    }

    pub fn record_deliver(&mut self, m: TwMessage) {
        self.delivered[m.src as usize * self.k + m.dst as usize] += 1;
        self.input_log[m.dst as usize].push(ReplayOp::Deliver(m));
    }

    pub fn record_send(&mut self, m: TwMessage) {
        self.sent_log[m.src as usize * self.k + m.dst as usize].push(m);
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

    /// Close a GVT round after every cluster's image was captured. The
    /// round is the group acknowledgement: a restore will never reach
    /// behind the new images, so the sender-side retention windows reset.
    pub fn round_complete(&mut self) {
        for l in &mut self.sent_log {
            l.clear();
        }
        self.delivered.fill(0);
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

    /// The undelivered suffix of the `src → dst` channel: what was in
    /// flight when `dst` crashed, reconstructed from the sender's retained
    /// output history minus the prefix `dst` had already consumed.
    pub fn undelivered(&self, src: usize, dst: usize) -> &[TwMessage] {
        let ch = src * self.k + dst;
        &self.sent_log[ch][self.delivered[ch]..]
    }
}

/// Shared panic-injection trigger for the threaded executor. The budget is
/// shared across supervisor restarts so the fault fires exactly
/// [`FaultPlan::crashes`] times in total.
pub(crate) struct PanicInjector {
    pub victim: u32,
    pub quantum: u64,
    budget: AtomicU32,
    initial: u32,
}

impl PanicInjector {
    pub fn new(plan: &FaultPlan) -> Option<Self> {
        let (victim, quantum) = plan.crash_at?;
        let budget = plan.crash_budget();
        Some(PanicInjector {
            victim,
            quantum,
            budget: AtomicU32::new(budget),
            initial: budget,
        })
    }

    /// Should worker `me` die at `quantum`? Consumes one unit of budget on
    /// a hit (atomically — only one incarnation of the victim can fire per
    /// budget unit).
    pub fn should_fire(&self, me: usize, quantum: u64) -> bool {
        me as u32 == self.victim
            && quantum == self.quantum
            && self
                .budget
                .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |b| b.checked_sub(1))
                .is_ok()
    }

    /// Crashes fired so far.
    pub fn fired(&self) -> u32 {
        self.initial - self.budget.load(Ordering::SeqCst)
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

/// Exponential retry backoff for the threaded supervisor, capped so tests
/// stay fast. The deterministic executor has no wall clock — its "backoff"
/// is the bounded restart budget itself.
pub(crate) fn backoff(restart: u32) -> std::time::Duration {
    let ms = 1u64 << restart.min(6);
    std::time::Duration::from_millis(ms.min(50))
}
