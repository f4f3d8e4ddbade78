//! Pluggable worker transports for the Time Warp kernel.
//!
//! The deterministic executor ([`super::dst`]) drives one worker per
//! cluster through a small command vocabulary — step, deliver, GVT round,
//! restore, finish. `ClusterWorker` abstracts *where* that worker lives:
//!
//! * `InProcWorker` — the worker is a `ClusterProcess` owned by the
//!   supervisor itself, commands are direct method calls. This is the
//!   deterministic executor of [`Transport::InProc`], unchanged in
//!   behaviour from its pre-transport form.
//! * `ProcessWorker` — the worker is a separate OS process (the
//!   `tw_worker` binary) on a `WireStream`: either a Unix-domain socket
//!   ([`Transport::Process`], the supervisor spawns the child and owns the
//!   per-cluster socket) or a TCP connection ([`Transport::Tcp`], the
//!   supervisor binds one shared listener and each worker *dials in* with
//!   `tw_worker --connect host:port`). Commands are length-prefixed JSON
//!   frames either way. A `SIGKILL`'d worker surfaces as a socket EOF; a
//!   dropped TCP connection (EOF, reset, or a read that times out)
//!   surfaces the same way — and the supervisor treats every one of them
//!   exactly like an injected crash fault: restore from the last
//!   GVT-coordinated checkpoint, replay the input log, re-fill the lost
//!   channels (see [`super::recovery`]).
//!
//! The supervisor loop (`run_supervisor`) is transport-generic and
//! *identical* for all of them, which is what makes the canonical run
//! artifact of a process- or TCP-transport run — crashed and recovered or
//! not — byte-identical to the same-seed in-proc run: every transport
//! executes the same decision sequence against the same deterministic
//! cluster state machines.
//!
//! # Wire protocol
//!
//! The `hello` exchange (one frame each direction, supervisor first) uses
//! the legacy v2 framing — a bare `u32` little-endian length prefix — so
//! any peer version can parse it and version negotiation rejects a
//! mismatched pairing as [`TimeWarpError::VersionMismatch`] instead of a
//! framing error. Every frame after the hello carries the 12-byte
//! `[len][seq][crc32]` header wire v3 introduced, whose checksum covers
//! the sequence number and payload (framing lives in [`super::wire`]),
//! capped at [`MAX_FRAME`]. A checksum or sequence violation surfaces as
//! `WireError::Corrupt` (see [`super::wire`]), which the supervisor treats
//! exactly like a vanished peer: drop the connection, count the frame,
//! recover through checkpoint-restore. The supervisor's hello carries
//! [`WIRE_VERSION`] and [`CHECKPOINT_SCHEMA`] plus — over TCP — a per-run
//! token; the worker answers with its own `hello` (over TCP also echoing
//! the token and declaring which cluster it serves, so the shared listener
//! can match a reconnecting worker back to its cluster). An `init` frame
//! ships the reduced netlist (gate structure only — names, hierarchy and
//! declared delays do not affect simulation), the partition assignment and
//! the stimulus parameters; the worker rebuilds its [`ClusterPlan`]
//! locally, which is deterministic, so both sides agree on every cut
//! channel. The command vocabulary is listed at [`serve_worker`].
//!
//! Each command frame is written with a single buffered syscall and the
//! response is read back under a timeout. A blocking round trip costs tens
//! of microseconds of wake-up latency whatever the frame holds (see
//! EXPERIMENTS.md, "Wire path: round trips, not bytes"), so the vocabulary
//! is shaped to need few of them: a `deliver` carries a *run* of one
//! channel's queued messages (see `ClusterWorker::deliver`), and a GVT
//! round is one `gvt` command per worker, all of them written before the
//! first reply is read (see `ClusterWorker::gvt_round`); the image a
//! round captures travels, is stored and is shipped back in a `restore` as
//! the text the worker emitted, decoded only by whoever rebuilds a process
//! from it.
//!
//! On the Unix transport a hung worker is *not* crash-stop, so the timeout
//! is fatal ([`TimeWarpError::WorkerTimeout`]); over TCP the supervisor probes a
//! silent peer with heartbeat `ping` frames every `heartbeat_interval` and
//! declares it lost after `heartbeat_budget` consecutive unanswered
//! probes — bounding half-open-connection detection at
//! `budget × interval` instead of hanging for the full `io_timeout` — and
//! recovers it like a crash. Only the spawn/handshake phase (before the
//! first checkpoint exists) keeps the fatal timeout. Worker-side panics
//! are caught and shipped back as a typed `panic` frame
//! ([`TimeWarpError::WorkerPanic`]) instead of an opaque exit code.
//!
//! When a [`super::chaos::NetPlan`] is armed, the supervisor routes each
//! affected cluster's post-hello byte stream through the deterministic
//! fault-injection shim (`ChaosStream` in [`super::chaos`]), which corrupts,
//! duplicates, delays, truncates or suppresses whole frames at seeded
//! frame indices — every injected fault must resolve through the typed
//! recovery paths above, never a panic or a silent misparse.

use super::chaos::{ChaosStream, ClusterChaos};
use super::checkpoint::{Checkpoint, CheckpointDelta, DeltaError, CHECKPOINT_SCHEMA};
use super::dst::{DstAction, DstView, Schedule, SchedulePolicy};
use super::error::TimeWarpError;
use super::gvt::GvtState;
use super::proc::ClusterProcess;
use super::recovery::{degrade_sequential, replay_ops, RecoveryLog, RecoveryOutcome, ReplayOp};
use super::wire::{
    hello_json, hello_parse, json_kind, parse_json, read_frame, run_token, send_json, DialJitter,
    FrameSink, FrameSource, WireError, WireStream,
};
use super::{merge_results, StateSaving, TimeWarpConfig, TwMessage, TwRunResult};
use crate::artifact::{image_envelope, logic_str, logic_vec, ImageEnvelope};
use crate::cluster::ClusterPlan;
use crate::logic::Logic;
use crate::stats::SimStats;
use crate::stimulus::VectorStimulus;
use crate::wheel::VTime;
use dvs_json::{uint_array, uint_vec, FromJson, Json, ObjBuilder, ToJson};
use dvs_verilog::netlist::{Gate, GateId, GateKind, InstId, Net, NetId, Netlist};
use std::cell::RefCell;
use std::collections::{HashMap, VecDeque};
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::{Path, PathBuf};
use std::process::{Child, Command};
use std::rc::Rc;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

pub use super::wire::{MAX_FRAME, WIRE_VERSION};

/// Where the Time Warp workers execute. Selecting a transport also selects
/// the execution discipline: `Threads` is free-running (wall-clock fast,
/// counters timing-dependent), the other two are deterministically
/// scheduled by `(seed, schedule)`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
#[non_exhaustive]
pub enum Transport {
    /// One free-running OS thread per cluster, exchanging messages over
    /// channels. Fastest wall-clock; counters depend on thread timing.
    #[default]
    Threads,
    /// Single-threaded virtual scheduler stepping cluster state machines
    /// owned by the supervisor itself. `(seed, schedule)` fully determines
    /// the execution, making every counter exact and reproducible —
    /// including under adversarial schedules.
    InProc {
        /// Seed for the schedule policy.
        seed: u64,
        /// The scheduling policy driving the executor.
        schedule: SchedulePolicy,
    },
    /// The same deterministic scheduler, but each cluster is a separate OS
    /// process (the `tw_worker` binary) driven over a Unix-domain socket.
    /// Crash faults are real `SIGKILL`s; recovery is checkpoint-restore
    /// plus input-log replay, and the canonical artifact stays
    /// byte-identical to the same-seed [`Transport::InProc`] run.
    Process {
        /// Seed for the schedule policy.
        seed: u64,
        /// The scheduling policy driving the executor.
        schedule: SchedulePolicy,
        /// Explicit path to the worker binary. `None` falls back to the
        /// `DVS_TW_WORKER` environment variable, then to a `tw_worker`
        /// next to (or one directory above) the current executable.
        worker: Option<PathBuf>,
    },
    /// The same deterministic scheduler, but the workers dial in over TCP:
    /// the supervisor binds one listener at `listen`, mints a per-run
    /// token, and each `tw_worker --connect host:port` identifies itself
    /// with that token plus the cluster it serves. A dropped connection
    /// (EOF, reset, or read timeout) is crash-stop — checkpoint-restore
    /// recovery, exactly like a `SIGKILL` on [`Transport::Process`] — and
    /// the canonical artifact stays byte-identical to the same-seed
    /// [`Transport::InProc`] run.
    Tcp {
        /// Seed for the schedule policy.
        seed: u64,
        /// The scheduling policy driving the executor.
        schedule: SchedulePolicy,
        /// Address the supervisor listens on, e.g. `"127.0.0.1:0"` (port 0
        /// picks a free port; useful with [`TcpWorkers::Spawn`], where the
        /// supervisor tells the workers where to dial).
        listen: String,
        /// Where the dialing workers come from.
        workers: TcpWorkers,
    },
}

/// How [`Transport::Tcp`] obtains its workers.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum TcpWorkers {
    /// The supervisor spawns one local `tw_worker --connect` child per
    /// cluster (localhost only, but exercising the full TCP path — this is
    /// what the kill-harness CI runs). Crashed workers are respawned.
    Spawn {
        /// Explicit path to the worker binary; `None` resolves like
        /// [`Transport::Process`] (`DVS_TW_WORKER`, then a sibling).
        worker: Option<PathBuf>,
    },
    /// Workers are started externally (possibly on other hosts) and dial
    /// the supervisor themselves; the supervisor prints the listen address
    /// and run token on stderr and *waits* for reconnections instead of
    /// respawning — a worker that never comes back exhausts the restart
    /// budget and degrades the run to the sequential simulator.
    External,
}

impl Transport {
    /// Deterministic in-process execution under `schedule` seeded with
    /// `seed`.
    pub fn in_proc(seed: u64, schedule: SchedulePolicy) -> Self {
        Transport::InProc { seed, schedule }
    }

    /// Deterministic process-per-cluster execution, discovering the worker
    /// binary from the environment.
    pub fn process(seed: u64, schedule: SchedulePolicy) -> Self {
        Transport::Process {
            seed,
            schedule,
            worker: None,
        }
    }

    /// Deterministic process-per-cluster execution with an explicit worker
    /// binary.
    pub fn process_with_worker(
        seed: u64,
        schedule: SchedulePolicy,
        worker: impl Into<PathBuf>,
    ) -> Self {
        Transport::Process {
            seed,
            schedule,
            worker: Some(worker.into()),
        }
    }

    /// Deterministic TCP execution on localhost: the supervisor binds an
    /// ephemeral `127.0.0.1` port and spawns one local `tw_worker
    /// --connect` child per cluster.
    pub fn tcp(seed: u64, schedule: SchedulePolicy) -> Self {
        Transport::Tcp {
            seed,
            schedule,
            listen: "127.0.0.1:0".to_string(),
            workers: TcpWorkers::Spawn { worker: None },
        }
    }

    /// Like [`Transport::tcp`] with an explicit worker binary.
    pub fn tcp_with_worker(
        seed: u64,
        schedule: SchedulePolicy,
        worker: impl Into<PathBuf>,
    ) -> Self {
        Transport::Tcp {
            seed,
            schedule,
            listen: "127.0.0.1:0".to_string(),
            workers: TcpWorkers::Spawn {
                worker: Some(worker.into()),
            },
        }
    }

    /// Deterministic TCP execution with externally started workers: the
    /// supervisor listens on `listen` and waits for `k` dial-ins carrying
    /// the run token it prints on stderr.
    pub fn tcp_external(seed: u64, schedule: SchedulePolicy, listen: impl Into<String>) -> Self {
        Transport::Tcp {
            seed,
            schedule,
            listen: listen.into(),
            workers: TcpWorkers::External,
        }
    }

    /// Stable name for logs and artifacts.
    pub fn name(&self) -> &'static str {
        match self {
            Transport::Threads => "threads",
            Transport::InProc { .. } => "in_proc",
            Transport::Process { .. } => "process",
            Transport::Tcp { .. } => "tcp",
        }
    }
}

/// Why a worker command failed, as seen by the transport. Only `Lost` is
/// recoverable (crash-stop: the worker is gone and its state with it);
/// everything else is mapped to a typed [`TimeWarpError`] by [`fatal`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum WorkerFailure {
    /// The worker vanished: socket EOF, broken pipe, or a dead process.
    Lost { detail: String },
    /// No response arrived within the read timeout.
    Timeout { after_ms: u64 },
    /// The worker caught a panic and reported it before exiting.
    Panic { message: String },
    /// The conversation itself broke: malformed frame, unexpected kind,
    /// spawn failure.
    Protocol { detail: String },
    /// Version negotiation failed; `theirs` is `(wire, checkpoint_schema)`.
    Version { theirs: (u32, u32) },
    /// The shipped restore payload (base + delta chain) was rejected as
    /// corrupt by the restoring side. Recoverable: the supervisor demotes
    /// the victim's log to its last full base and retries, burning one
    /// restart-budget unit, before degrading to the sequential simulator.
    CorruptRestore { detail: String },
}

/// Map a non-recoverable worker failure to the public error type.
fn fatal(cluster: u32, f: WorkerFailure) -> TimeWarpError {
    match f {
        WorkerFailure::Lost { detail } => TimeWarpError::Transport { cluster, detail },
        WorkerFailure::Timeout { after_ms } => TimeWarpError::WorkerTimeout { cluster, after_ms },
        WorkerFailure::Panic { message } => TimeWarpError::WorkerPanic { cluster, message },
        WorkerFailure::Protocol { detail } => TimeWarpError::Transport { cluster, detail },
        WorkerFailure::Version { theirs } => TimeWarpError::VersionMismatch {
            cluster,
            ours: (WIRE_VERSION, CHECKPOINT_SCHEMA),
            theirs,
        },
        // Reachable only if a corrupt restore escapes the supervisor's
        // base-fallback path (it degrades instead); typed as a transport
        // failure rather than panicking on an impossible state.
        WorkerFailure::CorruptRestore { detail } => TimeWarpError::Transport { cluster, detail },
    }
}

fn protocol(detail: String) -> WorkerFailure {
    WorkerFailure::Protocol { detail }
}

/// Network-integrity counters a worker transport accumulates on the side,
/// folded into [`RecoveryOutcome`] when the run ends — cleanly or
/// degraded. Everything here is a *supervisor-side observation*:
/// supervisor→worker corruption is observed as a connection loss (the
/// worker hangs up on an untrustworthy stream), not as a corrupt frame.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub(crate) struct WireCounters {
    /// Inbound frames rejected by the v3 checksum/sequence validation.
    pub corrupt_frames: u64,
    /// Heartbeat probes charged by budget-exhaustion events (each
    /// detection contributes exactly its exhausted budget, keeping the
    /// counter schedule-exact; transient recovered misses are free).
    pub heartbeats_missed: u64,
    /// Faults the chaos shim actually injected on this worker's streams.
    pub chaos_faults_injected: u64,
    /// Messages this worker answered for, over all its `deliver` frames.
    pub messages_sent: u64,
    /// `deliver` frames this worker answered, one per delivery run.
    pub frames_sent: u64,
}

/// What one delivered message did to its receiver: the LVT afterwards and
/// the messages its application emitted (rollback anti-messages).
pub(crate) type Delivered = (VTime, Vec<TwMessage>);

/// What a GVT round captures from a worker after fossil-collecting it, per
/// the configured [`super::CheckpointCadence`]. The names are the wire's.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Image {
    /// Nothing: the run is untracked, or has just quiesced.
    None,
    /// A full [`Checkpoint`], the reference of the deltas that follow.
    Base,
    /// A [`CheckpointDelta`] against the previous round's image.
    Delta,
}

impl Image {
    const ALL: [Image; 3] = [Image::None, Image::Base, Image::Delta];

    fn name(self) -> &'static str {
        match self {
            Image::None => "none",
            Image::Base => "base",
            Image::Delta => "delta",
        }
    }
}

/// One Time Warp cluster as seen by the transport-generic supervisor.
/// Implementations must be deterministic state machines: the same command
/// sequence produces the same responses, counters included — that is the
/// contract the recovery replay and the cross-transport byte-identity
/// guarantee both rest on.
pub(crate) trait ClusterWorker: Sized {
    /// Current local virtual time (used once, at startup; afterwards the
    /// supervisor caches the LVT returned by each step/deliver).
    fn lvt(&mut self) -> Result<VTime, WorkerFailure>;
    /// Process the next pending epoch within `limit`; emitted messages are
    /// appended to `sends`. Returns the new LVT.
    fn step(&mut self, limit: VTime, sends: &mut Vec<TwMessage>) -> Result<VTime, WorkerFailure>;
    /// Deliver a *run*: `msgs` is a prefix of one channel's queue, applied
    /// in order up to and including the first message whose application
    /// emits a message or moves the LVT. Returns one [`Delivered`] per
    /// message applied — at least one, at most `msgs.len()`.
    ///
    /// The stop rule is what lets the supervisor hand over a run without
    /// guessing. Until the worker stops, the view the schedule sees changes
    /// by one queue pop per delivery and nothing else — no new message, no
    /// LVT move, and no GVT round, which cannot complete while the channel
    /// is non-empty — so what a [`Schedule::fork`] forecast on that view
    /// is what the schedule will decide. A run of one is a plain delivery;
    /// nothing is staged, and the unapplied remainder stays queued.
    fn deliver(&mut self, msgs: &[TwMessage]) -> Result<Vec<Delivered>, WorkerFailure>;
    /// One GVT round on every worker of `workers` — all of them, or the
    /// one being re-asked after a recovery: fossil-collect history
    /// strictly below `gvt`, then capture `image` (retaining it as the
    /// reference of the next delta). Returns, per worker, the image as the
    /// canonical JSON text it was captured as — empty for [`Image::None`].
    /// Taking the workers together lets a wire transport write every
    /// command before it reads the first reply.
    fn gvt_round(
        workers: &mut [Self],
        gvt: VTime,
        image: Image,
    ) -> Vec<Result<String, WorkerFailure>>;
    /// Rebuild the worker from the encoded `base` plus its encoded delta
    /// chain and replay `ops` (re-sends suppressed). Returns the restored
    /// LVT.
    fn respawn(
        &mut self,
        base: &str,
        deltas: &[String],
        ops: &[ReplayOp],
    ) -> Result<VTime, WorkerFailure>;
    /// Assert the quiescence invariants (check mode only): idle LVT, no
    /// orphan tombstones, no pending events.
    fn check_quiescence(&mut self) -> Result<(), WorkerFailure>;
    /// Tear down and return the final `(stats, net values)`.
    fn finish(&mut self) -> Result<(SimStats, Vec<Logic>), WorkerFailure>;
    /// Crash-fault injection: make this worker die right now, the same way
    /// a genuine crash would (in-proc: discard the state machine; process:
    /// `SIGKILL` the child and observe the socket EOF).
    fn inject_crash(&mut self);
    /// Unconditional teardown (degradation path / drop).
    fn kill(&mut self);
    /// Cumulative network-integrity counters (corrupt frames, heartbeat
    /// budget exhaustions, injected chaos faults). Zero for transports
    /// with no wire underneath.
    fn wire_counters(&self) -> WireCounters {
        WireCounters::default()
    }
}

// ---------------------------------------------------------------------------
// What every worker does to its cluster, wherever it lives
// ---------------------------------------------------------------------------

/// The delivery run of [`ClusterWorker::deliver`], stop rule included.
fn deliver_run(p: &mut ClusterProcess<'_>, msgs: &[TwMessage]) -> Vec<Delivered> {
    let mut results = Vec::with_capacity(msgs.len());
    let lvt = p.lvt();
    for &m in msgs {
        let mut sends = Vec::new();
        p.handle_message(m, &mut |m: TwMessage| sends.push(m));
        let after = p.lvt();
        let stop = !sends.is_empty() || after != lvt;
        results.push((after, sends));
        if stop {
            break;
        }
    }
    results
}

/// The worker's half of [`ClusterWorker::gvt_round`]: fossil-collect, then
/// capture `image` against (and as the next) reference image `prev`.
fn gvt_capture(
    p: &mut ClusterProcess<'_>,
    prev: &mut Option<Checkpoint>,
    gvt: VTime,
    image: Image,
    (check, me, label): (bool, u32, &str),
) -> Result<Option<Json>, String> {
    let before = check.then(|| p.history_at_or_after(gvt));
    p.fossil_collect(gvt);
    if let Some(before) = before {
        assert_eq!(
            before,
            p.history_at_or_after(gvt),
            "fossil collection on cluster {me} reclaimed history at or above GVT {gvt} ({label})"
        );
    }
    if image == Image::None {
        return Ok(None);
    }
    let next = p.checkpoint(gvt);
    let encoded = match (image, prev.as_ref()) {
        (Image::Delta, Some(prev)) => CheckpointDelta::between(prev, &next).to_json(),
        (Image::Delta, None) => return Err("delta image before any base image".to_string()),
        _ => next.to_json(),
    };
    *prev = Some(next);
    Ok(Some(encoded))
}

/// The worker's half of [`ClusterWorker::respawn`]: decode the base image
/// and its delta chain, rebuild the process they describe and replay `ops`
/// on it. Also returns the reconstructed image, the rebuilt worker's
/// reference for its next delta. A chain that does not apply is
/// [`WorkerFailure::CorruptRestore`] — recoverable, the supervisor retries
/// from the bare base; an image that does not decode, or names another
/// schema or cluster, means the supervisor itself is confused and stays a
/// protocol failure.
fn rebuild<'p>(
    nl: &Netlist,
    plan: &'p ClusterPlan,
    stim: &VectorStimulus,
    cycles: u64,
    base: &Json,
    deltas: &[Json],
    ops: &[ReplayOp],
) -> Result<(ClusterProcess<'p>, Checkpoint), WorkerFailure> {
    let undecodable = |e: dvs_json::JsonError| WorkerFailure::Protocol { detail: e.msg };
    let base = Checkpoint::from_json(base).map_err(undecodable)?;
    let deltas = deltas
        .iter()
        .map(CheckpointDelta::from_json)
        .collect::<Result<Vec<_>, _>>()
        .map_err(undecodable)?;
    let (mut p, image) = ClusterProcess::from_chain(nl, plan, stim.clone(), cycles, &base, &deltas)
        .map_err(|e| {
            let detail = format!("restore chain rejected: {e}");
            match e {
                DeltaError::Corrupt(_) | DeltaError::ChainMismatch { .. } => {
                    WorkerFailure::CorruptRestore { detail }
                }
                _ => WorkerFailure::Protocol { detail },
            }
        })?;
    replay_ops(&mut p, ops);
    Ok((p, image))
}

/// The quiescence invariants, asserted where the state lives.
fn quiescence_asserts(p: &mut ClusterProcess<'_>, me: u32, label: &str) {
    assert_eq!(
        p.lvt(),
        VTime::MAX,
        "cluster {me} still has pending work at quiescence ({label})"
    );
    assert_eq!(
        p.stray_anti_messages(),
        0,
        "cluster {me} received anti-messages with no positive to annihilate ({label})"
    );
    assert_eq!(
        p.pending_len(),
        0,
        "cluster {me} still has queued events at quiescence ({label})"
    );
}

// ---------------------------------------------------------------------------
// In-process transport
// ---------------------------------------------------------------------------

/// A cluster worker living inside the supervisor: commands are direct
/// method calls on a [`ClusterProcess`].
pub(crate) struct InProcWorker<'nl, 'p> {
    nl: &'nl Netlist,
    plan: &'p ClusterPlan,
    stim: VectorStimulus,
    cycles: u64,
    check: bool,
    label: String,
    me: u32,
    proc: Option<ClusterProcess<'p>>,
    /// The previous round's image — the reference for delta captures.
    /// `None` until the first full checkpoint is taken.
    prev: Option<Checkpoint>,
}

impl<'nl, 'p> InProcWorker<'nl, 'p> {
    pub fn new(
        nl: &'nl Netlist,
        plan: &'p ClusterPlan,
        stim: VectorStimulus,
        cycles: u64,
        check: bool,
        label: &str,
        me: u32,
    ) -> Self {
        let proc = ClusterProcess::new(
            nl,
            plan,
            me,
            stim.clone(),
            cycles,
            StateSaving::IncrementalUndo,
        );
        InProcWorker {
            nl,
            plan,
            stim,
            cycles,
            check,
            label: label.to_string(),
            me,
            proc: Some(proc),
            prev: None,
        }
    }
}

impl ClusterWorker for InProcWorker<'_, '_> {
    fn lvt(&mut self) -> Result<VTime, WorkerFailure> {
        Ok(self.proc.as_mut().expect("in-proc worker is alive").lvt())
    }

    fn step(&mut self, limit: VTime, sends: &mut Vec<TwMessage>) -> Result<VTime, WorkerFailure> {
        let p = self.proc.as_mut().expect("in-proc worker is alive");
        p.process_next_epoch(limit, &mut |m: TwMessage| sends.push(m));
        Ok(p.lvt())
    }

    fn deliver(&mut self, msgs: &[TwMessage]) -> Result<Vec<Delivered>, WorkerFailure> {
        let p = self.proc.as_mut().expect("in-proc worker is alive");
        Ok(deliver_run(p, msgs))
    }

    fn gvt_round(
        workers: &mut [Self],
        gvt: VTime,
        image: Image,
    ) -> Vec<Result<String, WorkerFailure>> {
        let encode = |w: &mut Self| {
            let p = w.proc.as_mut().expect("in-proc worker is alive");
            let whoami = (w.check, w.me, w.label.as_str());
            match gvt_capture(p, &mut w.prev, gvt, image, whoami)? {
                Some(encoded) => encoded.emit().map_err(|e| e.msg),
                None => Ok(String::new()),
            }
        };
        workers
            .iter_mut()
            .map(|w| encode(w).map_err(protocol))
            .collect()
    }

    fn respawn(
        &mut self,
        base: &str,
        deltas: &[String],
        ops: &[ReplayOp],
    ) -> Result<VTime, WorkerFailure> {
        let parse = |text: &str| Json::parse(text).map_err(|e| protocol(e.msg));
        let deltas = deltas
            .iter()
            .map(|d| parse(d))
            .collect::<Result<Vec<_>, _>>()?;
        let (mut p, image) = rebuild(
            self.nl,
            self.plan,
            &self.stim,
            self.cycles,
            &parse(base)?,
            &deltas,
            ops,
        )?;
        let lvt = p.lvt();
        self.proc = Some(p);
        self.prev = Some(image);
        Ok(lvt)
    }

    fn check_quiescence(&mut self) -> Result<(), WorkerFailure> {
        let p = self.proc.as_mut().expect("in-proc worker is alive");
        quiescence_asserts(p, self.me, &self.label);
        Ok(())
    }

    fn finish(&mut self) -> Result<(SimStats, Vec<Logic>), WorkerFailure> {
        let mut p = self.proc.take().expect("in-proc worker is alive");
        Ok((p.take_stats(), p.into_values()))
    }

    fn inject_crash(&mut self) {
        // Crash-stop: the in-memory state machine is simply gone.
        self.proc = None;
    }

    fn kill(&mut self) {
        self.proc = None;
    }
}

// ---------------------------------------------------------------------------
// Transport-generic supervisor
// ---------------------------------------------------------------------------

/// Run the deterministic executor over an arbitrary set of workers. This is
/// the loop formerly private to the DST module, now generic over
/// [`ClusterWorker`]; `track` arms the recovery log (always on for the
/// process transport — real workers can die at any time — and on for
/// in-proc only when a crash fault is configured, so undisturbed in-proc
/// runs pay nothing).
#[allow(clippy::too_many_arguments)]
pub(crate) fn run_supervisor<W: ClusterWorker>(
    nl: &Netlist,
    plan: &ClusterPlan,
    stim: &VectorStimulus,
    cycles: u64,
    cfg: &TimeWarpConfig,
    schedule: &mut dyn Schedule,
    check: bool,
    label: &str,
    workers: &mut [W],
    track: bool,
) -> Result<TwRunResult, TimeWarpError> {
    let k = plan.k;
    assert_eq!(workers.len(), k, "one worker per cluster");
    let mut lvts = vec![0 as VTime; k];
    for (i, l) in lvts.iter_mut().enumerate() {
        *l = workers[i].lvt().map_err(|f| fatal(i as u32, f))?;
    }
    // The initial coordinated "checkpoint" is the fresh state at GVT 0. A
    // worker death this early has nothing to restore from, so it is fatal
    // rather than recovered.
    let mut outcome = RecoveryOutcome::default();
    let log = if track {
        let mut bases = Vec::with_capacity(k);
        for (i, base) in W::gvt_round(workers, 0, Image::Base)
            .into_iter()
            .enumerate()
        {
            let base = base.map_err(|f| fatal(i as u32, f))?;
            outcome.checkpoint_bytes_full += base.len() as u64;
            bases.push(base);
        }
        Some(RecoveryLog::from_checkpoints(
            bases,
            cfg.checkpoint_cadence.every_n_rounds,
        ))
    } else {
        None
    };
    let mut sup = Supervisor {
        nl,
        stim,
        cycles,
        cfg,
        check,
        label,
        workers,
        k,
        shared: GvtState::new(k),
        queues: vec![VecDeque::new(); k * k],
        lvts,
        in_hand: VecDeque::new(),
        log,
        outcome,
        corrupts_left: cfg.fault.corrupt_restores,
    };
    match sup.run(schedule) {
        // Clean completion: per-cluster `(stats, values)` ready to merge.
        Ok(per_cluster) => {
            sup.fold_wire_counters();
            let mut result = merge_results(
                nl,
                plan,
                per_cluster,
                sup.shared.gvt_rounds.load(Ordering::SeqCst),
            );
            result.recovery = sup.outcome;
            Ok(result)
        }
        Err(Halt::Degraded(r)) => Ok(*r),
        Err(Halt::Failed(e)) => Err(e),
    }
}

/// Why the supervised run cannot go on as a Time Warp run.
enum Halt {
    /// Restart budget exhausted; the sequential fallback already ran.
    /// Boxed: a full run result dwarfs the other variant.
    Degraded(Box<TwRunResult>),
    Failed(TimeWarpError),
}

struct Supervisor<'a, W: ClusterWorker> {
    nl: &'a Netlist,
    stim: &'a VectorStimulus,
    cycles: u64,
    cfg: &'a TimeWarpConfig,
    check: bool,
    label: &'a str,
    workers: &'a mut [W],
    k: usize,
    shared: GvtState,
    /// One FIFO queue per directed cluster pair, indexed `src * k + dst`.
    /// FIFO within a queue is the per-channel ordering the annihilation
    /// protocol relies on; the schedule only controls *which* queue head
    /// is delivered next.
    queues: Vec<VecDeque<TwMessage>>,
    /// Cached per-cluster LVTs. `ClusterProcess::lvt` is idempotent
    /// between operations, so caching the value returned by each
    /// step/deliver is equivalent to re-querying every iteration — and
    /// under the process transport it saves a full round-trip per cluster
    /// per decision.
    lvts: Vec<VTime>,
    /// Results of the delivery run in progress that no decision has
    /// consumed yet: the worker applied these messages — still at the head
    /// of their channel's queue — in one exchange, and each coming
    /// decision, which the schedule's fork forecast to be that same
    /// delivery, takes the next one instead of a round trip.
    in_hand: VecDeque<Delivered>,
    log: Option<RecoveryLog>,
    outcome: RecoveryOutcome,
    /// Remaining [`super::recovery::FaultPlan::corrupt_restores`] fault
    /// injections: how many further restore attempts ship a poisoned
    /// delta chain.
    corrupts_left: u32,
}

/// The [`super::recovery::FaultPlan::corrupt_restores`] injector: decode
/// the encoded delta, mangle it so that applying it fails, encode it again.
fn poison(delta: &str) -> Result<String, String> {
    let decoded = Json::parse(delta).and_then(|j| CheckpointDelta::from_json(&j));
    let mut delta = decoded.map_err(|e| e.msg)?;
    delta.poison();
    delta.to_json().emit().map_err(|e| e.msg)
}

impl<W: ClusterWorker> Supervisor<'_, W> {
    fn run(&mut self, schedule: &mut dyn Schedule) -> Result<Vec<(SimStats, Vec<Logic>)>, Halt> {
        let fault = self.cfg.fault;
        let mut crashes_left = fault.crash_budget();
        let gvt_cadence =
            (self.cfg.epochs_per_quantum.max(1) * self.cfg.gvt_interval.max(1)) as u64;
        let mut decision: u64 = 0;
        let mut last_gvt: VTime = 0;
        let mut idle: u64 = 0;
        let mut steppable: Vec<u32> = Vec::with_capacity(self.k);
        let mut deliverable: Vec<(u32, u32)> = Vec::with_capacity(self.k * self.k);
        let mut sends: Vec<TwMessage> = Vec::new();
        let mut previous: Option<DstAction> = None;

        loop {
            let gvt = self.shared.gvt.load(Ordering::SeqCst);
            if gvt == VTime::MAX {
                break; // global quiescence
            }
            if gvt > last_gvt {
                last_gvt = gvt;
                idle = 0;
            }
            let limit = gvt.saturating_add(self.cfg.window);

            // Refresh the view: publish every LVT, list legal actions.
            steppable.clear();
            deliverable.clear();
            for (i, &l) in self.lvts.iter().enumerate() {
                self.shared.publish_lvt(i, l);
                if l != VTime::MAX && l <= limit {
                    steppable.push(i as u32);
                }
            }
            for src in 0..self.k {
                for dst in 0..self.k {
                    if !self.queues[src * self.k + dst].is_empty() {
                        deliverable.push((src as u32, dst as u32));
                    }
                }
            }

            if steppable.is_empty() && deliverable.is_empty() {
                // Everyone is idle or throttled and nothing is in transit:
                // the GVT sample is valid by construction and must advance
                // (the minimum LVT exceeds the current GVT, or is MAX =
                // done). If it does not, the protocol is wedged — no retry
                // can fix that.
                let Some(new_gvt) = self.shared.try_compute_gvt() else {
                    return Err(Halt::Failed(TimeWarpError::Stalled { gvt, idle }));
                };
                self.gvt_round(new_gvt, true)?;
                continue;
            }

            // Crash injection: the armed fault fires when the executor
            // reaches decision index `crash_at.1`, before the schedule is
            // consulted — so the decision sequence after recovery is
            // identical to the no-crash run's, which is what makes
            // artifacts byte-identical.
            let armed = fault
                .crash_at
                .filter(|&(victim, _)| crashes_left > 0 && (victim as usize) < self.k);
            if let Some((victim, at)) = armed {
                if decision == at {
                    crashes_left -= 1;
                    self.workers[victim as usize].inject_crash();
                    self.recover(victim as usize)?;
                    continue;
                }
            }

            let (action, run) = {
                let mut view = DstView {
                    gvt,
                    lvts: &self.lvts,
                    steppable: &steppable,
                    deliverable: &deliverable,
                    decision,
                };
                let action = schedule.next(&view);
                assert!(
                    view.is_legal(action),
                    "schedule returned illegal action {action:?} at decision {decision} ({})",
                    self.label
                );
                // Inside a delivery run the view changed by one queue pop
                // since the run's previous decision, exactly as the fork
                // was shown, so the schedule must be repeating itself.
                assert!(
                    self.in_hand.is_empty() || previous == Some(action),
                    "the schedule chose {action:?} at decision {decision} where its fork \
                     forecast {previous:?} again ({})",
                    self.label
                );
                previous = Some(action);
                // Size the delivery run this decision opens: ask a fork of
                // the schedule what it would pick next if the run went on,
                // and stop at the first other answer, at the end of the
                // queue, or where the armed crash fires before the
                // schedule is consulted.
                let mut run = 1;
                if let DstAction::Deliver { src, dst } = action {
                    let queued = self.queues[src as usize * self.k + dst as usize].len();
                    let fork = if self.in_hand.is_empty() && queued > 1 {
                        schedule.fork()
                    } else {
                        None
                    };
                    if let Some(mut fork) = fork {
                        while run < queued {
                            view.decision = decision + run as u64;
                            if armed.is_some_and(|(_, at)| at == view.decision)
                                || fork.next(&view) != action
                            {
                                break;
                            }
                            run += 1;
                        }
                    }
                }
                (action, run)
            };
            decision += 1;
            idle += 1;
            if self.cfg.stall_limit > 0 && idle >= self.cfg.stall_limit {
                // Livelock watchdog: work keeps happening but GVT never
                // advances, so nothing will ever commit or terminate.
                return Err(Halt::Failed(TimeWarpError::Stalled { gvt, idle }));
            }

            match action {
                DstAction::Step(c) => self.do_step(c as usize, gvt, limit, &mut sends)?,
                DstAction::Deliver { src, dst } => {
                    self.do_deliver(src as usize, dst as usize, run, gvt)?
                }
            }

            // Periodic GVT, mirroring the threaded workers' cadence of one
            // attempt per `gvt_interval` quanta of `epochs_per_quantum` epochs.
            if decision.is_multiple_of(gvt_cadence) {
                if let Some(new_gvt) = self.shared.try_compute_gvt() {
                    self.gvt_round(new_gvt, false)?;
                }
            }
        }

        // Quiescent: collect final state. A worker lost here is recovered
        // like any other (its log includes the final fossil collection).
        (0..self.k).map(|i| self.supervised(i, W::finish)).collect()
    }

    /// Have worker `i` do `op`, recovering it and asking again for as long
    /// as it is lost: a worker that died mid-command never applied it, so
    /// the supervisor simply re-issues it to the respawned incarnation.
    fn supervised<T>(
        &mut self,
        i: usize,
        mut op: impl FnMut(&mut W) -> Result<T, WorkerFailure>,
    ) -> Result<T, Halt> {
        loop {
            match op(&mut self.workers[i]) {
                Ok(done) => return Ok(done),
                Err(WorkerFailure::Lost { .. }) => self.recover(i)?,
                Err(f) => return Err(Halt::Failed(fatal(i as u32, f))),
            }
        }
    }

    /// Execute a `Step(c)` decision, recovering `c` as often as needed.
    fn do_step(
        &mut self,
        c: usize,
        gvt: VTime,
        limit: VTime,
        sends: &mut Vec<TwMessage>,
    ) -> Result<(), Halt> {
        if self.check {
            assert!(
                self.lvts[c] >= gvt,
                "cluster {c} would step an epoch at t={} below GVT {gvt} ({})",
                self.lvts[c],
                self.label
            );
        }
        let lvt = self.supervised(c, |w| {
            sends.clear();
            w.step(limit, sends)
        })?;
        // Recorded only after success: replay must not include an op the
        // worker died in.
        if let Some(log) = self.log.as_mut() {
            log.record_step(c, limit);
        }
        self.commit_sends(sends);
        self.lvts[c] = lvt;
        self.shared.publish_lvt(c, lvt);
        Ok(())
    }

    /// Execute a `Deliver { src, dst }` decision. With no results in hand
    /// it opens a run: `dst` is handed the first `run` messages of the
    /// channel in one exchange (recovering it as often as needed) and
    /// answers for as many as its stop rule let it apply. Either way the
    /// decision itself delivers one message — the head of the queue, with
    /// the next result in hand.
    fn do_deliver(&mut self, src: usize, dst: usize, run: usize, gvt: VTime) -> Result<(), Halt> {
        let ch = src * self.k + dst;
        if self.in_hand.is_empty() {
            // Peek, don't pop: if the worker dies mid-run the messages are
            // still in flight — they count toward the victim's lost channel
            // state and are re-delivered to the respawned incarnation
            // (recovery re-fills the queue with them at the head, FIFO
            // preserved). A run is one reply frame, so a worker lost
            // inside it has had none of it logged.
            let msgs: Vec<TwMessage> = self.queues[ch].iter().take(run).copied().collect();
            self.in_hand = self.supervised(dst, |w| w.deliver(&msgs))?.into();
        }
        let msg = self.queues[ch]
            .pop_front()
            .expect("deliverable channel is non-empty");
        let (lvt, sends) = self
            .in_hand
            .pop_front()
            .expect("a delivery answers for at least one message");
        if self.check {
            assert!(
                msg.ev.time >= gvt,
                "message {src}->{dst} at t={} delivered below GVT {gvt} ({})",
                msg.ev.time,
                self.label
            );
        }
        // Logged only now, one message per decision: replay after a crash
        // must cover exactly what the decision sequence has consumed.
        if let Some(log) = self.log.as_mut() {
            log.record_deliver(msg);
        }
        self.commit_sends(&sends);
        self.lvts[dst] = lvt;
        // Same ordering discipline as the threaded kernel: the in-transit
        // counter drops only after the receiver's LVT reflects the
        // insertion, keeping GVT samples sound.
        self.shared.publish_lvt(dst, lvt);
        self.shared.in_transit.fetch_sub(1, Ordering::SeqCst);
        Ok(())
    }

    /// Enqueue messages a worker emitted during a successful op and retain
    /// them in the sender-side log.
    fn commit_sends(&mut self, sends: &[TwMessage]) {
        for &m in sends {
            if self.check {
                let g = self.shared.gvt.load(Ordering::SeqCst);
                assert!(
                    m.ev.time >= g,
                    "message {}->{} at t={} sent below GVT {g} ({})",
                    m.src,
                    m.dst,
                    m.ev.time,
                    self.label
                );
            }
            self.shared.in_transit.fetch_add(1, Ordering::SeqCst);
            self.shared.send_epoch.fetch_add(1, Ordering::SeqCst);
            self.queues[m.src as usize * self.k + m.dst as usize].push_back(m);
            if let Some(log) = self.log.as_mut() {
                log.record_send(m);
            }
        }
    }

    /// One GVT round: fossil-collect everyone and — unless the run is
    /// untracked or just quiesced — capture the next coordinated checkpoint
    /// cut, in one exchange per worker. `quiesce` marks the no-action path,
    /// the only place quiescence checks run.
    fn gvt_round(&mut self, new_gvt: VTime, quiesce: bool) -> Result<(), Halt> {
        // On an every-N cadence, only every Nth round captures full bases;
        // the rounds between capture deltas against the previous round's
        // image. The cadence phase is global, so the coordinated cut stays
        // all-bases or all-deltas.
        let image = match self.log.as_ref() {
            Some(log) if new_gvt != VTime::MAX && log.next_is_base() => Image::Base,
            Some(_) if new_gvt != VTime::MAX => Image::Delta,
            _ => Image::None,
        };
        debug_assert!(self.in_hand.is_empty(), "a GVT round inside a delivery run");
        let replies = W::gvt_round(self.workers, new_gvt, image);
        for (i, reply) in replies.into_iter().enumerate() {
            // Fossil collection and capture are one command, so a worker
            // lost anywhere in the round has done neither as far as its log
            // knows: once recovered, it alone is asked again.
            let mut reply = Some(reply);
            let captured = self.supervised(i, |w| {
                let again = || W::gvt_round(std::slice::from_mut(w), new_gvt, image).pop();
                reply.take().or_else(again).expect("one reply per worker")
            })?;
            let Some(log) = self.log.as_mut() else {
                continue;
            };
            // Recorded even at GVT = MAX: a worker dying between this
            // round and its finish must replay the fossil collection or
            // its counter would diverge. (After a capture it survives only
            // in the base-window log of the corrupt-restore fallback.)
            log.record_fossil(i, new_gvt);
            match image {
                Image::None => {}
                Image::Base => {
                    self.outcome.checkpoint_bytes_full += captured.len() as u64;
                    log.set_base(i, captured);
                }
                Image::Delta => {
                    self.outcome.checkpoint_bytes_delta += captured.len() as u64;
                    log.push_delta(i, captured);
                }
            }
        }
        if let (Some(log), true) = (self.log.as_mut(), image != Image::None) {
            log.round_complete(image == Image::Base);
        }
        if quiesce && self.check && new_gvt == VTime::MAX {
            for i in 0..self.k {
                self.supervised(i, W::check_quiescence)?;
            }
        }
        Ok(())
    }

    /// Crash-stop recovery of cluster `v`: drop its incoming channels,
    /// respawn from the last base image plus its delta chain, replay the
    /// input log, re-fill the channels from sender-side retention (which
    /// spans the whole cadence window). Counts every death
    /// (including deaths during respawn itself) against the restart budget
    /// and degrades to the sequential simulator when it runs out.
    fn recover(&mut self, v: usize) -> Result<(), Halt> {
        assert!(
            self.in_hand.is_empty(),
            "cluster {v} is being recovered inside a delivery run ({})",
            self.label
        );
        // Crash-stop: the victim loses its in-memory state and its
        // incoming channels (in-flight messages toward it die with it).
        // Captured once — respawn retries compare against the originally
        // lost set.
        let mut dropped: Vec<Vec<TwMessage>> = Vec::with_capacity(self.k);
        let mut dropped_total = 0i64;
        for src in 0..self.k {
            let q = &mut self.queues[src * self.k + v];
            dropped_total += q.len() as i64;
            dropped.push(q.drain(..).collect());
        }
        if dropped_total > 0 {
            self.shared
                .in_transit
                .fetch_sub(dropped_total, Ordering::SeqCst);
        }
        let mut log = self
            .log
            .take()
            .expect("recovery requires an armed recovery log");
        let out = self.recover_inner(v, &dropped, &mut log);
        self.log = Some(log);
        out
    }

    /// Restart budget exhausted (or a base-only restore was itself
    /// rejected): kill everyone and fall back to the sequential simulator,
    /// carrying the exact recovery counters into the degraded result.
    fn degrade(&mut self) -> Halt {
        for w in self.workers.iter_mut() {
            w.kill();
        }
        self.fold_wire_counters();
        let mut r = degrade_sequential(self.nl, self.stim, self.cycles);
        r.recovery.crashes = self.outcome.crashes;
        r.recovery.restarts = self.outcome.restarts;
        r.recovery.replayed_ops = self.outcome.replayed_ops;
        r.recovery.victims = self.outcome.victims.clone();
        r.recovery.corrupt_frames = self.outcome.corrupt_frames;
        r.recovery.heartbeats_missed = self.outcome.heartbeats_missed;
        r.recovery.chaos_faults_injected = self.outcome.chaos_faults_injected;
        r.recovery.messages_sent = self.outcome.messages_sent;
        r.recovery.frames_sent = self.outcome.frames_sent;
        Halt::Degraded(Box::new(r))
    }

    /// Sum each worker's side-accumulated wire counters into the outcome.
    /// Called exactly once per run, on whichever path ends it.
    fn fold_wire_counters(&mut self) {
        for w in self.workers.iter() {
            let c = w.wire_counters();
            self.outcome.corrupt_frames += c.corrupt_frames;
            self.outcome.heartbeats_missed += c.heartbeats_missed;
            self.outcome.chaos_faults_injected += c.chaos_faults_injected;
            self.outcome.messages_sent += c.messages_sent;
            self.outcome.frames_sent += c.frames_sent;
        }
    }

    fn recover_inner(
        &mut self,
        v: usize,
        dropped: &[Vec<TwMessage>],
        log: &mut RecoveryLog,
    ) -> Result<(), Halt> {
        // Set after a shipped delta chain was rejected as corrupt: the
        // victim's log has been demoted to its last full base, and a
        // second rejection degrades instead of looping forever.
        let mut base_only = false;
        loop {
            self.outcome.crashes += 1;
            self.outcome.victims.push(v as u32);
            if self.outcome.restarts >= self.cfg.fault.max_restarts {
                return Err(self.degrade());
            }
            self.outcome.restarts += 1;
            // Fault injection: poison the delta chain about to ship so the
            // restoring side rejects it as `DeltaError::Corrupt` —
            // exercising the same base-fallback path a frame corrupted in
            // transit (but CRC-validated into a parseable chain) would take.
            let poisoned;
            let deltas: &[String] = if self.corrupts_left > 0 && !log.deltas(v).is_empty() {
                self.corrupts_left -= 1;
                let mut chain = log.deltas(v).to_vec();
                let last = chain.last_mut().expect("chain is non-empty");
                *last = poison(last)
                    .map_err(|detail| fatal(v as u32, WorkerFailure::Protocol { detail }))
                    .map_err(Halt::Failed)?;
                poisoned = chain;
                &poisoned
            } else {
                log.deltas(v)
            };
            match self.workers[v].respawn(log.base(v), deltas, log.ops(v)) {
                Ok(lvt) => {
                    self.outcome.replayed_ops += log.ops(v).len() as u64;
                    self.lvts[v] = lvt;
                    self.shared.publish_lvt(v, lvt);
                    // The lost channels are re-filled from each
                    // neighbour's retained output history (the
                    // undelivered suffix since the last base round).
                    let mut refilled = 0i64;
                    for (src, lost) in dropped.iter().enumerate() {
                        let und = log.undelivered(src, v);
                        if self.check {
                            assert_eq!(
                                und,
                                lost.as_slice(),
                                "recovered channel {src}->{v} differs from the lost \
                                 in-flight messages ({})",
                                self.label
                            );
                        }
                        refilled += und.len() as i64;
                        self.queues[src * self.k + v].extend(und.iter().copied());
                    }
                    if refilled > 0 {
                        self.shared.in_transit.fetch_add(refilled, Ordering::SeqCst);
                    }
                    return Ok(());
                }
                // The replacement died during respawn (possible only with
                // real processes): another crash against the budget.
                Err(WorkerFailure::Lost { .. }) => continue,
                // The shipped delta chain did not survive the trip: burn a
                // restart unit, demote the victim's log to its last full
                // base (the op log re-grows from the base round, which the
                // sender-side retention window already spans) and re-send
                // base-only.
                Err(WorkerFailure::CorruptRestore { .. }) if !base_only => {
                    base_only = true;
                    log.demote_to_base(v);
                    continue;
                }
                // Even the bare base was rejected: nothing left to restore
                // from — degrade to the sequential simulator.
                Err(WorkerFailure::CorruptRestore { .. }) => return Err(self.degrade()),
                Err(f) => return Err(Halt::Failed(fatal(v as u32, f))),
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Wire protocol: frame vocabulary (framing itself lives in super::wire)
// ---------------------------------------------------------------------------

/// Virtual times go on the wire as integers, with the idle sentinel
/// `VTime::MAX` as `null` (it does not fit a JSON int).
fn vtime_json(t: VTime) -> Json {
    if t == VTime::MAX {
        Json::Null
    } else if let Ok(i) = i64::try_from(t) {
        Json::Int(i)
    } else {
        // Virtual times beyond i64 don't occur in practice (they are
        // bounded by cycles × period), but the codec must not silently
        // saturate: fall back to a decimal string.
        Json::Str(t.to_string())
    }
}

fn vtime_from(v: &Json) -> Result<VTime, String> {
    match v {
        Json::Null => Ok(VTime::MAX),
        Json::Str(s) => s
            .parse::<VTime>()
            .map_err(|e| format!("bad vtime string {s:?}: {e}")),
        other => other.as_u64().map_err(|e| e.msg),
    }
}

fn ready_json(lvt: VTime) -> Json {
    ObjBuilder::new()
        .str("kind", "ready")
        .field("lvt", vtime_json(lvt))
        .build()
}

/// The `lvt` + `sends` pair a `step` answers with (under `kind: done`) and
/// a `deliver` once per message applied (under `results`).
fn delivered_json(open: ObjBuilder, (lvt, sends): &Delivered) -> Json {
    open.field("lvt", vtime_json(*lvt))
        .array("sends", sends.iter().map(ToJson::to_json).collect())
        .build()
}

fn delivered_from(j: &Json) -> Result<Delivered, String> {
    let lvt = vtime_from(j.field("lvt").map_err(|e| e.msg)?)?;
    let sends = j.field("sends").and_then(Json::as_array);
    let sends = sends.and_then(|a| a.iter().map(TwMessage::from_json).collect());
    Ok((lvt, sends.map_err(|e| e.msg)?))
}

fn error_json(detail: &str) -> Json {
    ObjBuilder::new()
        .str("kind", "error")
        .str("detail", detail)
        .build()
}

fn replay_op_json(op: &ReplayOp) -> Json {
    match *op {
        ReplayOp::Step { limit } => ObjBuilder::new()
            .str("op", "step")
            .field("limit", vtime_json(limit))
            .build(),
        ReplayOp::Deliver(m) => ObjBuilder::new()
            .str("op", "deliver")
            .field("msg", m.to_json())
            .build(),
        ReplayOp::Fossil(gvt) => ObjBuilder::new()
            .str("op", "fossil")
            .field("gvt", vtime_json(gvt))
            .build(),
    }
}

/// Build the `restore` frame around images kept as the text they were
/// captured as: the same bytes an [`ObjBuilder`] over the decoded images
/// would emit, without decoding them.
fn restore_frame(base: &str, deltas: &[String], ops: &[ReplayOp]) -> String {
    let ops = Json::Array(ops.iter().map(replay_op_json).collect());
    let ops = ops.emit().expect("replay ops hold no floats");
    let deltas = deltas.join(",");
    format!(r#"{{"kind":"restore","ck":{base},"deltas":[{deltas}],"ops":{ops}}}"#)
}

fn replay_op_from_json(v: &Json) -> Result<ReplayOp, String> {
    let err = |e: dvs_json::JsonError| e.msg;
    match v.field("op").and_then(Json::as_str).map_err(err)? {
        "step" => Ok(ReplayOp::Step {
            limit: vtime_from(v.field("limit").map_err(err)?)?,
        }),
        "deliver" => Ok(ReplayOp::Deliver(
            TwMessage::from_json(v.field("msg").map_err(err)?).map_err(err)?,
        )),
        "fossil" => Ok(ReplayOp::Fossil(vtime_from(v.field("gvt").map_err(err)?)?)),
        other => Err(format!("unknown replay op {other:?}")),
    }
}

/// Build the `init` frame: everything a worker needs to rebuild its
/// cluster — the reduced netlist (gate structure only; names, hierarchy
/// and declared delays do not affect the unit-delay simulation), the
/// partition assignment, and the stimulus parameters. The worker reruns
/// [`ClusterPlan::new`] locally, which is deterministic, so both sides
/// derive identical cut channels.
fn init_json(
    nl: &Netlist,
    plan: &ClusterPlan,
    stim: &VectorStimulus,
    cycles: u64,
    check: bool,
    cluster: u32,
    label: &str,
) -> Json {
    let opt_net = |n: Option<NetId>| match n {
        Some(id) => Json::Int(id.0 as i64),
        None => Json::Null,
    };
    let gates: Vec<Json> = nl
        .gates
        .iter()
        .map(|g| {
            let mut a = Vec::with_capacity(2 + g.inputs.len());
            a.push(Json::Str(g.kind.name().to_string()));
            a.push(Json::Int(g.output.0 as i64));
            a.extend(g.inputs.iter().map(|n| Json::Int(n.0 as i64)));
            Json::Array(a)
        })
        .collect();
    ObjBuilder::new()
        .str("kind", "init")
        .uint("cluster", cluster as u64)
        .uint("k", plan.k as u64)
        .bool("check", check)
        .str("label", label)
        .uint("cycles", cycles)
        .uint("nets", nl.net_count() as u64)
        .field("const0", opt_net(nl.const0_net))
        .field("const1", opt_net(nl.const1_net))
        .field(
            "primary_inputs",
            uint_array(
                &nl.primary_inputs
                    .iter()
                    .map(|n| n.0 as u64)
                    .collect::<Vec<_>>(),
            ),
        )
        .array("gates", gates)
        .field(
            "gate_block",
            uint_array(
                &plan
                    .gate_block
                    .iter()
                    .map(|&b| b as u64)
                    .collect::<Vec<_>>(),
            ),
        )
        .field(
            "stim",
            ObjBuilder::new()
                .field(
                    "data_inputs",
                    uint_array(
                        &stim
                            .data_inputs
                            .iter()
                            .map(|n| n.0 as u64)
                            .collect::<Vec<_>>(),
                    ),
                )
                .field("clock", opt_net(stim.clock))
                .uint("period", stim.period)
                .uint("seed", stim.seed)
                .build(),
        )
        .build()
}

/// Everything a worker rebuilds from the `init` frame.
struct WorkerInit {
    netlist: Netlist,
    gate_block: Vec<u32>,
    k: usize,
    cluster: u32,
    check: bool,
    cycles: u64,
    stim: VectorStimulus,
    label: String,
}

fn worker_init_from_json(v: &Json) -> Result<WorkerInit, String> {
    let err = |e: dvs_json::JsonError| e.msg;
    if json_kind(v)? != "init" {
        return Err(format!(
            "expected an init frame, got kind {:?}",
            json_kind(v)
        ));
    }
    let nets = v.field("nets").and_then(Json::as_usize).map_err(err)?;
    let opt_net = |x: &Json| -> Result<Option<NetId>, String> {
        match x {
            Json::Null => Ok(None),
            other => Ok(Some(NetId(other.as_u64().map_err(err)? as u32))),
        }
    };
    let net_ids = |x: &Json| -> Result<Vec<NetId>, String> {
        Ok(uint_vec(x)
            .map_err(err)?
            .into_iter()
            .map(|n| NetId(n as u32))
            .collect())
    };
    let mut netlist = Netlist {
        nets: (0..nets)
            .map(|_| Net {
                name: String::new(),
                driver: None,
            })
            .collect(),
        ..Netlist::default()
    };
    netlist.const0_net = opt_net(v.field("const0").map_err(err)?)?;
    netlist.const1_net = opt_net(v.field("const1").map_err(err)?)?;
    netlist.primary_inputs = net_ids(v.field("primary_inputs").map_err(err)?)?;
    for (i, g) in v
        .field("gates")
        .and_then(Json::as_array)
        .map_err(err)?
        .iter()
        .enumerate()
    {
        let parts = g.as_array().map_err(err)?;
        if parts.len() < 2 {
            return Err(format!("gate {i}: expected [kind, output, inputs...]"));
        }
        let kind_name = parts[0].as_str().map_err(err)?;
        let kind = GateKind::from_name(kind_name)
            .ok_or_else(|| format!("gate {i}: unknown gate kind {kind_name:?}"))?;
        let output = NetId(parts[1].as_u64().map_err(err)? as u32);
        if output.idx() >= nets {
            return Err(format!("gate {i}: output net {} out of range", output.0));
        }
        let inputs = parts[2..]
            .iter()
            .map(|p| p.as_u64().map(|n| NetId(n as u32)))
            .collect::<Result<Vec<_>, _>>()
            .map_err(err)?;
        if inputs.iter().any(|n| n.idx() >= nets) {
            return Err(format!("gate {i}: input net out of range"));
        }
        netlist.nets[output.idx()].driver = Some(GateId(netlist.gates.len() as u32));
        netlist.gates.push(Gate {
            kind,
            output,
            inputs,
            owner: InstId(0),
            delay: None,
        });
    }
    let gate_block: Vec<u32> = uint_vec(v.field("gate_block").map_err(err)?)
        .map_err(err)?
        .into_iter()
        .map(|b| b as u32)
        .collect();
    if gate_block.len() != netlist.gate_count() {
        return Err("gate_block length does not match the gate count".to_string());
    }
    let k = v.field("k").and_then(Json::as_usize).map_err(err)?;
    if k == 0 || gate_block.iter().any(|&b| (b as usize) >= k) {
        return Err("gate_block assigns a gate to an out-of-range cluster".to_string());
    }
    let cluster = v.field("cluster").and_then(Json::as_u64).map_err(err)? as u32;
    if cluster as usize >= k {
        return Err(format!("cluster {cluster} out of range for k={k}"));
    }
    let s = v.field("stim").map_err(err)?;
    let stim = VectorStimulus {
        data_inputs: net_ids(s.field("data_inputs").map_err(err)?)?,
        clock: opt_net(s.field("clock").map_err(err)?)?,
        period: s.field("period").and_then(Json::as_u64).map_err(err)?,
        seed: s.field("seed").and_then(Json::as_u64).map_err(err)?,
    };
    Ok(WorkerInit {
        netlist,
        gate_block,
        k,
        cluster,
        check: v.field("check").and_then(Json::as_bool).map_err(err)?,
        cycles: v.field("cycles").and_then(Json::as_u64).map_err(err)?,
        stim,
        label: v
            .field("label")
            .and_then(Json::as_str)
            .map_err(err)?
            .to_string(),
    })
}

// ---------------------------------------------------------------------------
// Process transport: supervisor side
// ---------------------------------------------------------------------------

/// How long the supervisor waits for a freshly spawned worker to connect.
const SPAWN_TIMEOUT: Duration = Duration::from_secs(10);

/// Wire-level timing knobs shared by every process/TCP worker, copied
/// once from the run's [`TimeWarpConfig`].
#[derive(Debug, Clone, Copy)]
pub(crate) struct WireTiming {
    /// Per-response read window. Unix: fatal on expiry (a hung local
    /// child is not crash-stop). TCP: governs only the spawn/handshake
    /// phase; afterwards heartbeat probing takes over.
    pub io: Duration,
    /// Dial-in / reconnect window for the TCP transport.
    pub connect: Duration,
    /// Idle interval between supervisor→worker heartbeat probes (TCP,
    /// post-handshake).
    pub heartbeat: Duration,
    /// Consecutive unanswered probes before the peer is declared lost.
    pub budget: u32,
}

impl WireTiming {
    pub fn from_cfg(cfg: &TimeWarpConfig) -> WireTiming {
        WireTiming {
            io: cfg.io_timeout,
            connect: cfg.connect_timeout,
            heartbeat: cfg.heartbeat_interval,
            budget: cfg.heartbeat_budget,
        }
    }
}

/// Worker-side connect/reconnect window: `DVS_TW_CONNECT_MS`, strictly
/// parsed — a present-but-malformed or zero value is an error, never a
/// silent fallback to the default (the worker has no builder, so the env
/// var is its only knob and a typo must not masquerade as a config).
fn worker_connect_window() -> io::Result<Duration> {
    match std::env::var("DVS_TW_CONNECT_MS") {
        Err(_) => Ok(Duration::from_millis(super::DEFAULT_CONNECT_TIMEOUT_MS)),
        Ok(s) => s
            .parse::<u64>()
            .ok()
            .filter(|&ms| ms > 0)
            .map(Duration::from_millis)
            .ok_or_else(|| {
                io::Error::new(
                    io::ErrorKind::InvalidInput,
                    format!(
                        "DVS_TW_CONNECT_MS must be a positive integer of milliseconds, \
                         got {s:?}"
                    ),
                )
            }),
    }
}

/// The byte stream a worker conversation runs over: the raw socket, or the
/// same socket routed through the deterministic fault-injection shim.
pub(crate) enum Conn {
    Plain(WireStream),
    Chaos(ChaosStream),
}

impl Conn {
    fn wrap(stream: WireStream, chaos: Option<&Rc<RefCell<ClusterChaos>>>) -> Conn {
        match chaos {
            Some(state) => Conn::Chaos(ChaosStream::new(stream, Rc::clone(state))),
            None => Conn::Plain(stream),
        }
    }

    fn try_clone(&self) -> io::Result<Conn> {
        match self {
            Conn::Plain(s) => s.try_clone().map(Conn::Plain),
            Conn::Chaos(s) => s.try_clone().map(Conn::Chaos),
        }
    }

    fn set_read_timeout(&self, d: Option<Duration>) -> io::Result<()> {
        match self {
            Conn::Plain(s) => s.set_read_timeout(d),
            Conn::Chaos(s) => s.set_read_timeout(d),
        }
    }

    fn shutdown_both(&self) {
        match self {
            Conn::Plain(s) => s.shutdown_both(),
            Conn::Chaos(s) => s.shutdown_both(),
        }
    }
}

impl Read for Conn {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        match self {
            Conn::Plain(s) => s.read(buf),
            Conn::Chaos(s) => s.read(buf),
        }
    }
}

impl Write for Conn {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        match self {
            Conn::Plain(s) => s.write(buf),
            Conn::Chaos(s) => s.write(buf),
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        match self {
            Conn::Plain(s) => s.flush(),
            Conn::Chaos(s) => s.flush(),
        }
    }
}

/// Locate the worker binary: explicit path, then `DVS_TW_WORKER`, then a
/// `tw_worker` sibling of the current executable (or of its parent
/// directory — test binaries live one level below the build root).
fn resolve_worker(explicit: Option<&Path>) -> Result<PathBuf, String> {
    if let Some(p) = explicit {
        return if p.is_file() {
            Ok(p.to_path_buf())
        } else {
            Err(format!("worker binary {} does not exist", p.display()))
        };
    }
    if let Ok(env) = std::env::var("DVS_TW_WORKER") {
        let p = PathBuf::from(env);
        return if p.is_file() {
            Ok(p)
        } else {
            Err(format!(
                "DVS_TW_WORKER points at {}, which does not exist",
                p.display()
            ))
        };
    }
    if let Ok(exe) = std::env::current_exe() {
        if let Some(dir) = exe.parent() {
            for d in [Some(dir), dir.parent()].into_iter().flatten() {
                let cand = d.join("tw_worker");
                if cand.is_file() {
                    return Ok(cand);
                }
            }
        }
    }
    Err(
        "no tw_worker binary found: pass Transport::Process { worker }, set DVS_TW_WORKER, \
         or place tw_worker next to the current executable"
            .to_string(),
    )
}

static SOCKET_SERIAL: AtomicU64 = AtomicU64::new(0);

fn next_socket_path(cluster: u32) -> PathBuf {
    let serial = SOCKET_SERIAL.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!(
        "dvs-tw-{}-{cluster}-{serial}.sock",
        std::process::id()
    ))
}

/// Supervisor side of [`Transport::Tcp`]: the single shared listener every
/// worker dials, plus the per-run token and the parking lot for dial-ins
/// that arrive while the supervisor is waiting on a *different* cluster
/// (TCP gives no ordering across connections, and after a network fault a
/// reconnecting worker can race a respawned one).
pub(crate) struct TcpBroker {
    listener: TcpListener,
    addr: SocketAddr,
    token: String,
    /// Read timeout applied to the hello exchange on a fresh connection —
    /// a dial-in that never completes its hello must not wedge the accept
    /// loop.
    hello_timeout: Duration,
    /// The configured dial-in window, reported in timeout failures (the
    /// caller owns the actual deadline).
    connect_window: Duration,
    /// Parked hello-negotiated connections, keyed by cluster.
    pending: RefCell<HashMap<u32, WireStream>>,
}

impl TcpBroker {
    fn bind(
        listen: &str,
        token: String,
        hello_timeout: Duration,
        connect_window: Duration,
    ) -> Result<Self, String> {
        let listener =
            TcpListener::bind(listen).map_err(|e| format!("bind TCP listener {listen}: {e}"))?;
        let addr = listener
            .local_addr()
            .map_err(|e| format!("TCP listener address: {e}"))?;
        listener
            .set_nonblocking(true)
            .map_err(|e| format!("TCP listener nonblocking: {e}"))?;
        Ok(TcpBroker {
            listener,
            addr,
            token,
            hello_timeout,
            connect_window,
            pending: RefCell::new(HashMap::new()),
        })
    }

    /// Wait until a hello-negotiated connection for `cluster` is available:
    /// either already parked from an earlier accept, or a fresh dial-in.
    /// `child` (spawn mode) lets the wait fail fast when the local worker
    /// process died instead of connecting. Dial-ins carrying the wrong
    /// token — strays from another run, port scanners — are dropped
    /// without disturbing the run; a correct-token peer with mismatched
    /// versions is fatal (mixed versions must never exchange state).
    fn accept_for(
        &self,
        cluster: u32,
        deadline: Instant,
        mut child: Option<&mut Child>,
    ) -> Result<WireStream, WorkerFailure> {
        loop {
            if let Some(s) = self.pending.borrow_mut().remove(&cluster) {
                return Ok(s);
            }
            match self.listener.accept() {
                // greet() returns None for stray peers, dropped quietly.
                Ok((conn, _)) => {
                    if let Some((who, stream)) = self.greet(conn)? {
                        if who == cluster {
                            return Ok(stream);
                        }
                        // Another cluster's worker arrived first; park it
                        // for that cluster's next accept (latest wins — a
                        // re-dial supersedes a stale parked connection).
                        self.pending.borrow_mut().insert(who, stream);
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    if let Some(c) = child.as_deref_mut() {
                        if let Some(status) = c.try_wait().ok().flatten() {
                            return Err(WorkerFailure::Lost {
                                detail: format!("worker exited during startup: {status}"),
                            });
                        }
                    }
                    if Instant::now() >= deadline {
                        return Err(WorkerFailure::Timeout {
                            after_ms: self.connect_window.as_millis() as u64,
                        });
                    }
                    std::thread::sleep(Duration::from_millis(2));
                }
                Err(e) => {
                    return Err(WorkerFailure::Protocol {
                        detail: format!("accept: {e}"),
                    })
                }
            }
        }
    }

    /// Hello exchange on a fresh dial-in. `Ok(Some((cluster, stream)))` is
    /// a negotiated worker; `Ok(None)` a stray to drop (wrong token,
    /// malformed hello, vanished mid-handshake).
    fn greet(&self, conn: TcpStream) -> Result<Option<(u32, WireStream)>, WorkerFailure> {
        let setup = conn
            .set_nodelay(true)
            .and_then(|()| conn.set_nonblocking(false))
            .and_then(|()| conn.set_read_timeout(Some(self.hello_timeout)));
        if setup.is_err() {
            return Ok(None);
        }
        let mut stream = WireStream::Tcp(conn);
        let Ok(mut writer) = stream.try_clone() else {
            return Ok(None);
        };
        // The supervisor speaks first, exactly as on the Unix transport;
        // the worker validates our token before revealing anything.
        if send_json(&mut writer, &hello_json(&self.token, None)).is_err() {
            return Ok(None);
        }
        let Ok(Some(bytes)) = read_frame(&mut stream) else {
            return Ok(None);
        };
        let Ok(theirs) = parse_json(&bytes).and_then(|j| hello_parse(&j)) else {
            return Ok(None);
        };
        if theirs.token != self.token {
            return Ok(None);
        }
        if theirs.versions() != (WIRE_VERSION, CHECKPOINT_SCHEMA) {
            return Err(WorkerFailure::Version {
                theirs: theirs.versions(),
            });
        }
        let Some(who) = theirs.cluster else {
            return Err(WorkerFailure::Protocol {
                detail: "TCP worker hello did not declare a cluster".to_string(),
            });
        };
        Ok(Some((who, stream)))
    }
}

/// Where a [`ProcessWorker`]'s byte stream comes from.
#[derive(Clone)]
enum Link {
    /// Supervisor-owned per-cluster Unix socket; the supervisor spawns the
    /// child with `--socket`.
    Unix { bin: PathBuf },
    /// Shared TCP listener; the worker dials in. `spawn` is the local
    /// binary to launch with `--connect` (None = externally started
    /// workers, the supervisor only waits).
    Tcp {
        broker: Rc<TcpBroker>,
        spawn: Option<PathBuf>,
    },
}

/// A cluster worker living in a separate OS process, driven over a
/// [`WireStream`] — a Unix-domain socket ([`Transport::Process`]) or a TCP
/// connection ([`Transport::Tcp`]). A dead child, a reset connection, or
/// (over TCP) a silent peer surfaces as [`WorkerFailure::Lost`] on the
/// next exchange, which is precisely the crash-stop signal the recovery
/// supervisor consumes.
pub(crate) struct ProcessWorker {
    cluster: u32,
    link: Link,
    init: Json,
    timing: WireTiming,
    /// Shared chaos state for this cluster (frame counters + pending
    /// faults survive reconnects); `None` routes frames straight through.
    chaos: Option<Rc<RefCell<ClusterChaos>>>,
    socket_path: Option<PathBuf>,
    child: Option<Child>,
    reader: Option<FrameSource<io::BufReader<Conn>>>,
    writer: Option<FrameSink<Conn>>,
    last_lvt: VTime,
    /// True once the init handshake completed on the current connection:
    /// TCP read timeouts switch from fatal to heartbeat probing.
    probing: bool,
    corrupt_frames: u64,
    heartbeats_missed: u64,
    messages_sent: u64,
    frames_sent: u64,
}

impl ProcessWorker {
    pub fn new(
        cluster: u32,
        bin: PathBuf,
        init: Json,
        timing: WireTiming,
        chaos: Option<Rc<RefCell<ClusterChaos>>>,
    ) -> Self {
        Self::on(Link::Unix { bin }, cluster, init, timing, chaos)
    }

    pub fn tcp(
        cluster: u32,
        broker: Rc<TcpBroker>,
        spawn: Option<PathBuf>,
        init: Json,
        timing: WireTiming,
        chaos: Option<Rc<RefCell<ClusterChaos>>>,
    ) -> Self {
        Self::on(Link::Tcp { broker, spawn }, cluster, init, timing, chaos)
    }

    fn on(
        link: Link,
        cluster: u32,
        init: Json,
        timing: WireTiming,
        chaos: Option<Rc<RefCell<ClusterChaos>>>,
    ) -> Self {
        ProcessWorker {
            cluster,
            link,
            init,
            timing,
            chaos,
            socket_path: None,
            child: None,
            reader: None,
            writer: None,
            last_lvt: 0,
            probing: false,
            corrupt_frames: 0,
            heartbeats_missed: 0,
            messages_sent: 0,
            frames_sent: 0,
        }
    }

    fn is_tcp(&self) -> bool {
        matches!(self.link, Link::Tcp { .. })
    }

    /// Tear down the byte stream (both directions) without touching the
    /// process. Over TCP this is how the supervisor declares a silent peer
    /// dead, and how a supervisor-side connection reset is injected.
    fn drop_connection(&mut self) {
        if let Some(w) = self.writer.as_ref() {
            w.get_ref().shutdown_both();
        }
        self.reader = None;
        self.writer = None;
        self.probing = false;
    }

    /// Spawn (or respawn / await reconnection of) the worker, negotiate
    /// versions, and initialize it. On success `last_lvt` holds the
    /// worker's fresh LVT.
    fn spawn(&mut self) -> Result<(), WorkerFailure> {
        self.kill_child();
        self.probing = false;
        let link = self.link.clone();
        // `greeted` marks streams whose hello exchange the broker already
        // completed (TCP); the Unix path negotiates below.
        let (stream, greeted) = match &link {
            Link::Unix { bin } => {
                let path = next_socket_path(self.cluster);
                let _ = std::fs::remove_file(&path);
                let listener = UnixListener::bind(&path)
                    .map_err(|e| protocol(format!("bind {}: {e}", path.display())))?;
                listener
                    .set_nonblocking(true)
                    .map_err(|e| protocol(format!("listener nonblocking: {e}")))?;
                let child = Command::new(bin)
                    .arg("--socket")
                    .arg(&path)
                    .spawn()
                    .map_err(|e| protocol(format!("spawn {}: {e}", bin.display())))?;
                self.child = Some(child);
                self.socket_path = Some(path);
                let deadline = Instant::now() + SPAWN_TIMEOUT;
                let stream = loop {
                    match listener.accept() {
                        Ok((s, _)) => break s,
                        Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                            if let Some(status) = self
                                .child
                                .as_mut()
                                .and_then(|c| c.try_wait().ok().flatten())
                            {
                                return Err(WorkerFailure::Lost {
                                    detail: format!("worker exited during startup: {status}"),
                                });
                            }
                            if Instant::now() >= deadline {
                                return Err(WorkerFailure::Timeout {
                                    after_ms: SPAWN_TIMEOUT.as_millis() as u64,
                                });
                            }
                            std::thread::sleep(Duration::from_millis(2));
                        }
                        Err(e) => return Err(protocol(format!("accept: {e}"))),
                    }
                };
                stream
                    .set_nonblocking(false)
                    .map_err(|e| protocol(format!("stream blocking: {e}")))?;
                (WireStream::Unix(stream), false)
            }
            Link::Tcp { broker, spawn } => {
                if let Some(bin) = spawn {
                    let child = Command::new(bin)
                        .arg("--connect")
                        .arg(broker.addr.to_string())
                        .arg("--cluster")
                        .arg(self.cluster.to_string())
                        .arg("--token")
                        .arg(&broker.token)
                        .spawn()
                        .map_err(|e| protocol(format!("spawn {}: {e}", bin.display())))?;
                    self.child = Some(child);
                }
                let deadline = Instant::now() + self.timing.connect;
                let stream = broker.accept_for(self.cluster, deadline, self.child.as_mut())?;
                (stream, true)
            }
        };
        self.adopt(stream, greeted)
    }

    /// The handshake half of [`Self::spawn`], on a connected stream:
    /// negotiate versions unless the broker already `greeted` the peer,
    /// then initialize the worker.
    fn adopt(&mut self, mut stream: WireStream, greeted: bool) -> Result<(), WorkerFailure> {
        // The whole handshake — hello, init, restore — runs under the
        // plain io window; heartbeat probing only arms once the worker
        // has answered.
        stream
            .set_read_timeout(Some(self.timing.io))
            .map_err(|e| protocol(format!("read timeout: {e}")))?;

        if !greeted {
            // Version negotiation: the supervisor speaks first; the worker
            // always answers with its own versions so a mismatch is
            // diagnosable on both sides. The hello stays on the legacy
            // 4-byte framing — a v2 peer can parse it, so the pairing
            // fails as a typed mismatch, not a framing error. (The Unix
            // transport carries no token — the per-cluster socket path
            // already scopes the conversation.)
            let mut hello_writer = stream
                .try_clone()
                .map_err(|e| protocol(format!("clone stream: {e}")))?;
            send_json(&mut hello_writer, &hello_json("", None)).map_err(|e| {
                WorkerFailure::Lost {
                    detail: format!("write failed: {e}"),
                }
            })?;
            let reply = match read_frame(&mut stream) {
                Ok(Some(bytes)) => bytes,
                Ok(None) => {
                    return Err(WorkerFailure::Lost {
                        detail: "socket EOF during hello".to_string(),
                    })
                }
                Err(e)
                    if e.kind() == io::ErrorKind::WouldBlock
                        || e.kind() == io::ErrorKind::TimedOut =>
                {
                    return Err(WorkerFailure::Timeout {
                        after_ms: self.timing.io.as_millis() as u64,
                    })
                }
                Err(e) => {
                    return Err(WorkerFailure::Lost {
                        detail: format!("read failed: {e}"),
                    })
                }
            };
            let theirs = parse_json(&reply)
                .and_then(|j| hello_parse(&j))
                .map_err(protocol)?;
            if theirs.versions() != (WIRE_VERSION, CHECKPOINT_SCHEMA) {
                return Err(WorkerFailure::Version {
                    theirs: theirs.versions(),
                });
            }
        }
        // Past the hello every frame is checksummed and sequenced and,
        // when a chaos plan targets this cluster, routed through the
        // fault-injection shim (wrapping re-arms suppressed directions:
        // a reconnect heals a partition or stall).
        let conn = Conn::wrap(stream, self.chaos.as_ref());
        let writer = conn
            .try_clone()
            .map_err(|e| protocol(format!("clone stream: {e}")))?;
        self.reader = Some(FrameSource::new(io::BufReader::new(conn)));
        self.writer = Some(FrameSink::new(writer));

        let init = self.init.clone();
        let ready = self.call(&init)?;
        self.last_lvt = self.expect_ready(&ready)?;
        if self.is_tcp() {
            // Handshake complete: arm heartbeat probing. The per-read
            // window drops to the probe interval, so a half-open
            // connection is detected in `budget × interval` instead of
            // hanging for the full io window.
            if let Some(r) = self.reader.as_ref() {
                r.get_ref()
                    .get_ref()
                    .set_read_timeout(Some(self.timing.heartbeat))
                    .map_err(|e| protocol(format!("read timeout: {e}")))?;
            }
            self.probing = true;
        }
        Ok(())
    }

    fn send(&mut self, j: &Json) -> Result<(), WorkerFailure> {
        let text = j
            .emit()
            .map_err(|e| WorkerFailure::Protocol { detail: e.msg })?;
        self.send_text(&text)
    }

    fn send_text(&mut self, text: &str) -> Result<(), WorkerFailure> {
        let w = self.writer.as_mut().ok_or_else(|| WorkerFailure::Lost {
            detail: "no connection to worker".to_string(),
        })?;
        w.send(text.as_bytes()).map_err(|e| WorkerFailure::Lost {
            detail: format!("write failed: {e}"),
        })
    }

    /// Read the next frame, whatever it says. A read timeout on a probing
    /// TCP connection counts one missed beat in `misses` and sends a
    /// `ping`; `heartbeat_budget` consecutive misses declare the peer lost
    /// (half-open connections are detected in bounded time instead of
    /// hanging until `io_timeout`). A checksum/sequence violation means
    /// the stream can no longer be trusted: count it, drop the connection,
    /// and let checkpoint-restore recovery rebuild the conversation from
    /// known-good state.
    fn read_frame(&mut self, misses: &mut u32) -> Result<Vec<u8>, WorkerFailure> {
        loop {
            let r = self.reader.as_mut().ok_or_else(|| WorkerFailure::Lost {
                detail: "no connection to worker".to_string(),
            })?;
            match r.recv() {
                Ok(Some(bytes)) => return Ok(bytes),
                Ok(None) => {
                    return Err(WorkerFailure::Lost {
                        detail: "socket EOF (worker process died)".to_string(),
                    })
                }
                Err(e) if e.timed_out() => {
                    if self.probing {
                        *misses += 1;
                        if *misses >= self.timing.budget {
                            self.heartbeats_missed += self.timing.budget as u64;
                            self.drop_connection();
                            return Err(WorkerFailure::Lost {
                                detail: format!(
                                    "heartbeat budget exhausted: {} probes over {} ms went \
                                     unanswered; connection dropped (crash-stop)",
                                    self.timing.budget,
                                    self.timing.heartbeat.as_millis() as u64
                                        * self.timing.budget as u64
                                ),
                            });
                        }
                        if self.send(&ok_json_cmd("ping")).is_err() {
                            self.drop_connection();
                            return Err(WorkerFailure::Lost {
                                detail: "connection died during a heartbeat probe".to_string(),
                            });
                        }
                        continue;
                    }
                    return Err(WorkerFailure::Timeout {
                        after_ms: self.timing.io.as_millis() as u64,
                    });
                }
                Err(e) if e.is_corrupt() => {
                    self.corrupt_frames += 1;
                    self.drop_connection();
                    return Err(WorkerFailure::Lost {
                        detail: format!("corrupt frame from worker ({e}); connection dropped"),
                    });
                }
                Err(WireError::Truncated(detail)) => {
                    self.drop_connection();
                    return Err(WorkerFailure::Lost {
                        detail: format!("truncated frame: {detail}"),
                    });
                }
                Err(e) => {
                    return Err(WorkerFailure::Lost {
                        detail: format!("read failed: {e}"),
                    })
                }
            }
        }
    }

    /// Read the next substantive response frame: heartbeat `pong`s are
    /// consumed transparently, and the frames a worker answers *any*
    /// command with when it cannot serve it become their typed failures.
    fn read_response(&mut self) -> Result<Json, WorkerFailure> {
        let mut misses: u32 = 0;
        loop {
            let bytes = self.read_frame(&mut misses)?;
            if let Some(response) = substantive(&bytes)? {
                return Ok(response);
            }
            misses = 0;
        }
    }

    /// Read the reply to a `gvt` command that asked for `image`: the
    /// image itself, as the canonical text the worker captured it as and
    /// kept as received — the supervisor only stores it, so only its
    /// envelope is looked at. Every other frame is handled as
    /// [`Self::read_response`] would.
    fn read_image(&mut self, gvt: VTime, image: Image) -> Result<String, WorkerFailure> {
        let asked_for = ImageEnvelope {
            delta: image == Image::Delta,
            schema: CHECKPOINT_SCHEMA,
            cluster: self.cluster,
            gvt,
        };
        let mut misses: u32 = 0;
        loop {
            let bytes = self.read_frame(&mut misses)?;
            let text = String::from_utf8(bytes)
                .map_err(|e| protocol(format!("frame is not UTF-8: {e}")))?;
            if image_envelope(&text) == Some(asked_for) {
                return Ok(text);
            }
            if substantive(text.as_bytes())?.is_some() {
                return Err(protocol(format!(
                    "the gvt round asked for {asked_for:?}, the worker answered {text:.120}"
                )));
            }
            misses = 0;
        }
    }

    /// One command round-trip: a single buffered write, then the response.
    /// Over TCP a silent remote peer is indistinguishable from a vanished
    /// host (no RST ever arrives from a powered-off machine);
    /// [`Self::read_frame`]'s heartbeat probing converts that silence into
    /// a crash-stop loss, which the recovery path respawns-or-awaits-
    /// reconnect. Over Unix a hung local child is *not* crash-stop, so the
    /// io timeout stays fatal.
    fn call(&mut self, j: &Json) -> Result<Json, WorkerFailure> {
        self.send(j)?;
        self.read_response()
    }

    fn expect_kind(&self, j: &Json, want: &str) -> Result<(), WorkerFailure> {
        let kind = json_kind(j).map_err(protocol)?;
        if kind == want {
            Ok(())
        } else {
            Err(protocol(format!("expected a {want:?} frame, got {kind:?}")))
        }
    }

    fn expect_ready(&self, j: &Json) -> Result<VTime, WorkerFailure> {
        self.expect_kind(j, "ready")?;
        j.field("lvt")
            .map_err(|e| WorkerFailure::Protocol { detail: e.msg })
            .and_then(|v| vtime_from(v).map_err(protocol))
    }

    fn kill_child(&mut self) {
        if let Some(mut child) = self.child.take() {
            let _ = child.kill();
            let _ = child.wait();
        }
        self.reader = None;
        self.writer = None;
        self.probing = false;
        if let Some(path) = self.socket_path.take() {
            let _ = std::fs::remove_file(path);
        }
    }
}

impl ClusterWorker for ProcessWorker {
    fn lvt(&mut self) -> Result<VTime, WorkerFailure> {
        Ok(self.last_lvt)
    }

    fn step(&mut self, limit: VTime, sends: &mut Vec<TwMessage>) -> Result<VTime, WorkerFailure> {
        let cmd = ObjBuilder::new()
            .str("kind", "step")
            .field("limit", vtime_json(limit))
            .build();
        let r = self.call(&cmd)?;
        self.expect_kind(&r, "done")?;
        let (lvt, emitted) = delivered_from(&r).map_err(protocol)?;
        sends.extend(emitted);
        Ok(lvt)
    }

    fn deliver(&mut self, msgs: &[TwMessage]) -> Result<Vec<Delivered>, WorkerFailure> {
        let cmd = ObjBuilder::new()
            .str("kind", "deliver")
            .array("msgs", msgs.iter().map(ToJson::to_json).collect())
            .build();
        let r = self.call(&cmd)?;
        self.expect_kind(&r, "done")?;
        let results = r.field("results").and_then(Json::as_array);
        let results = results.map_err(|e| protocol(e.msg))?;
        if results.is_empty() || results.len() > msgs.len() {
            return Err(protocol(format!(
                "a delivery of {} messages was answered with {} results",
                msgs.len(),
                results.len()
            )));
        }
        let results: Result<Vec<Delivered>, String> = results.iter().map(delivered_from).collect();
        let results = results.map_err(protocol)?;
        self.messages_sent += results.len() as u64;
        self.frames_sent += 1;
        Ok(results)
    }

    fn gvt_round(
        workers: &mut [Self],
        gvt: VTime,
        image: Image,
    ) -> Vec<Result<String, WorkerFailure>> {
        let cmd = ObjBuilder::new()
            .str("kind", "gvt")
            .field("gvt", vtime_json(gvt))
            .str("image", image.name())
            .build();
        // Every command is on its way before the first reply is awaited,
        // so the workers fossil-collect, capture and emit side by side
        // instead of one after the other.
        let written: Vec<_> = workers.iter_mut().map(|w| w.send(&cmd)).collect();
        let read = |(written, w): (Result<(), WorkerFailure>, &mut Self)| {
            written?;
            if image == Image::None {
                let r = w.read_response()?;
                w.expect_kind(&r, "ok").map(|()| String::new())
            } else {
                w.read_image(gvt, image)
            }
        };
        written.into_iter().zip(workers).map(read).collect()
    }

    fn respawn(
        &mut self,
        base: &str,
        deltas: &[String],
        ops: &[ReplayOp],
    ) -> Result<VTime, WorkerFailure> {
        // Over TCP a respawn that times out (the replacement never dials
        // in, or a remote worker never reconnects) is itself a crash-stop
        // loss: each failed attempt burns one unit of the restart budget,
        // so a vanished remote degrades the run to the sequential
        // simulator instead of hanging or erroring out.
        let tcp = self.is_tcp();
        let remap = |f: WorkerFailure| match f {
            WorkerFailure::Timeout { after_ms } if tcp => WorkerFailure::Lost {
                detail: format!("worker did not (re)connect within {after_ms} ms"),
            },
            other => other,
        };
        self.spawn().map_err(remap)?;
        self.send_text(&restore_frame(base, deltas, ops))?;
        let r = self.read_response()?;
        self.last_lvt = self.expect_ready(&r)?;
        Ok(self.last_lvt)
    }

    fn check_quiescence(&mut self) -> Result<(), WorkerFailure> {
        let r = self.call(&ok_json_cmd("quiesce"))?;
        self.expect_kind(&r, "ok")
    }

    fn finish(&mut self) -> Result<(SimStats, Vec<Logic>), WorkerFailure> {
        let r = self.call(&ok_json_cmd("finish"))?;
        self.expect_kind(&r, "finished")?;
        let stats = SimStats::from_json(r.field("stats").map_err(|e| protocol(e.msg))?)
            .map_err(|e| protocol(e.msg))?;
        let values = logic_vec(r.field("values").map_err(|e| protocol(e.msg))?)
            .map_err(|e| protocol(e.msg))?;
        Ok((stats, values))
    }

    fn inject_crash(&mut self) {
        // Over TCP, `DVS_TW_TCP_FAULT=reset` injects a supervisor-side
        // connection reset instead of a process kill: the stream is shut
        // down in both directions and dropped while the worker process
        // stays up. The worker observes EOF and exits (crash-stop from its
        // side); the supervisor's next exchange fails as `Lost` and the
        // stale incarnation is reaped by the next spawn. This is the
        // network-partition shape of a fault, as opposed to the host-death
        // shape below.
        if self.is_tcp() && std::env::var("DVS_TW_TCP_FAULT").as_deref() == Ok("reset") {
            self.drop_connection();
            return;
        }
        // A real SIGKILL, then observe the death the way a genuine crash
        // would surface: drain the socket to EOF before dropping it.
        if let Some(child) = self.child.as_mut() {
            let _ = child.kill();
            let _ = child.wait();
        }
        if let Some(r) = self.reader.as_mut() {
            while let Ok(Some(_)) = r.recv() {}
        }
        self.kill_child();
    }

    fn kill(&mut self) {
        self.kill_child();
    }

    fn wire_counters(&self) -> WireCounters {
        WireCounters {
            corrupt_frames: self.corrupt_frames,
            heartbeats_missed: self.heartbeats_missed,
            chaos_faults_injected: self.chaos.as_ref().map_or(0, |c| c.borrow().fired()),
            messages_sent: self.messages_sent,
            frames_sent: self.frames_sent,
        }
    }
}

impl Drop for ProcessWorker {
    fn drop(&mut self) {
        self.kill_child();
    }
}

/// Sort a worker→supervisor control frame: `Ok(None)` for a heartbeat
/// `pong` (it can interleave with, or precede, any response; it only
/// proves liveness), the typed failure for a `panic`, `error` or
/// `restore_corrupt` frame, the parsed frame otherwise.
fn substantive(bytes: &[u8]) -> Result<Option<Json>, WorkerFailure> {
    let j = parse_json(bytes).map_err(protocol)?;
    let said = |key: &str, absent: &str| {
        let said = j.field(key).and_then(Json::as_str);
        said.unwrap_or(absent).to_string()
    };
    match json_kind(&j).map_err(protocol)? {
        "pong" => Ok(None),
        "panic" => Err(WorkerFailure::Panic {
            message: said("message", "<no message>"),
        }),
        "error" => Err(WorkerFailure::Protocol {
            detail: said("detail", "<no detail>"),
        }),
        "restore_corrupt" => Err(WorkerFailure::CorruptRestore {
            detail: said("detail", "<no detail>"),
        }),
        _ => Ok(Some(j)),
    }
}

/// A bare `{"kind": <kind>}` frame.
fn ok_json_cmd(kind: &str) -> Json {
    ObjBuilder::new().str("kind", kind).build()
}

/// Run the Time Warp kernel with one OS process per cluster.
#[allow(clippy::too_many_arguments)]
pub(crate) fn run_process(
    nl: &Netlist,
    plan: &ClusterPlan,
    stim: &VectorStimulus,
    cycles: u64,
    cfg: &TimeWarpConfig,
    seed: u64,
    policy: &SchedulePolicy,
    worker_bin: Option<&Path>,
) -> Result<TwRunResult, TimeWarpError> {
    let check = cfg!(debug_assertions);
    // Same label as the in-proc executor: assertions and artifacts must
    // not depend on the transport.
    let label = format!("seed {seed}, schedule {policy:?}");
    let bin =
        resolve_worker(worker_bin).map_err(|reason| TimeWarpError::InvalidConfig { reason })?;
    let timing = WireTiming::from_cfg(cfg);
    let chaos_plan = cfg.chaos.clone().unwrap_or_default();
    let mut schedule = policy.build(seed);
    let mut workers: Vec<ProcessWorker> = (0..plan.k)
        .map(|me| {
            ProcessWorker::new(
                me as u32,
                bin.clone(),
                init_json(nl, plan, stim, cycles, check, me as u32, &label),
                timing,
                (!chaos_plan.is_empty()).then(|| chaos_plan.for_cluster(me as u32)),
            )
        })
        .collect();
    for w in &mut workers {
        let cluster = w.cluster;
        w.spawn().map_err(|f| fatal(cluster, f))?;
    }
    run_supervisor(
        nl,
        plan,
        stim,
        cycles,
        cfg,
        schedule.as_mut(),
        check,
        &label,
        &mut workers,
        true,
    )
}

/// Run the Time Warp kernel with workers dialing in over TCP. The
/// supervisor binds `listen`, mints a per-run token, and either spawns
/// local `tw_worker --connect` children ([`TcpWorkers::Spawn`]) or waits
/// for externally started ones ([`TcpWorkers::External`], printing the
/// address + token on stderr so the operator can start them).
#[allow(clippy::too_many_arguments)]
pub(crate) fn run_tcp(
    nl: &Netlist,
    plan: &ClusterPlan,
    stim: &VectorStimulus,
    cycles: u64,
    cfg: &TimeWarpConfig,
    seed: u64,
    policy: &SchedulePolicy,
    listen: &str,
    tcp_workers: &TcpWorkers,
) -> Result<TwRunResult, TimeWarpError> {
    let check = cfg!(debug_assertions);
    // Same label as the in-proc executor: assertions and artifacts must
    // not depend on the transport.
    let label = format!("seed {seed}, schedule {policy:?}");
    let invalid = |reason: String| TimeWarpError::InvalidConfig { reason };
    let spawn_bin = match tcp_workers {
        TcpWorkers::Spawn { worker } => Some(resolve_worker(worker.as_deref()).map_err(invalid)?),
        TcpWorkers::External => None,
    };
    let timing = WireTiming::from_cfg(cfg);
    let chaos_plan = cfg.chaos.clone().unwrap_or_default();
    let broker =
        Rc::new(TcpBroker::bind(listen, run_token(), timing.io, timing.connect).map_err(invalid)?);
    if spawn_bin.is_none() {
        // Externally started workers need the resolved address (port 0
        // picks one at bind time) and the run token.
        eprintln!(
            "tw supervisor listening on {addr}; start {k} workers with: \
             tw_worker --connect {addr} --cluster <0..{k}> --token {token}",
            addr = broker.addr,
            k = plan.k,
            token = broker.token,
        );
    }
    let mut schedule = policy.build(seed);
    let mut workers: Vec<ProcessWorker> = (0..plan.k)
        .map(|me| {
            ProcessWorker::tcp(
                me as u32,
                Rc::clone(&broker),
                spawn_bin.clone(),
                init_json(nl, plan, stim, cycles, check, me as u32, &label),
                timing,
                (!chaos_plan.is_empty()).then(|| chaos_plan.for_cluster(me as u32)),
            )
        })
        .collect();
    for w in &mut workers {
        let cluster = w.cluster;
        w.spawn().map_err(|f| fatal(cluster, f))?;
    }
    run_supervisor(
        nl,
        plan,
        stim,
        cycles,
        cfg,
        schedule.as_mut(),
        check,
        &label,
        &mut workers,
        true,
    )
}

// ---------------------------------------------------------------------------
// Process transport: worker side
// ---------------------------------------------------------------------------

/// Entry point for the `tw_worker` binary: connect back to the supervisor's
/// socket and serve one cluster until the supervisor says `finish` (or the
/// connection closes).
///
/// Protocol (every frame is compact JSON; the two hellos ride the legacy
/// `u32`-LE length prefix, everything after them the checksummed,
/// sequence-numbered framing of [`super::wire`]):
///
/// 1. supervisor sends `hello` (wire + checkpoint schema versions);
/// 2. worker always replies with its own `hello`, then exits quietly on a
///    mismatch — the supervisor owns the error report;
/// 3. supervisor sends `init` (netlist + gate block + stimulus + config);
///    worker replies `ready` with its LVT;
/// 4. command loop, one reply per command:
///    * `step` (`limit`) → `done` (`lvt`, `sends`);
///    * `deliver` (`msgs`: a run, see [`Schedule::fork`]) → `done`
///      (`results`: one `lvt` + `sends` per message applied);
///    * `gvt` (`gvt`, `image`: `base` | `delta` | `none`) → fossil-collect
///      below `gvt`, then `ok` for `none`, else the image itself — the
///      canonical `tw_checkpoint` / `tw_checkpoint_delta` document is the
///      whole reply frame, which is how the supervisor can keep it as
///      received;
///    * `restore` (`ck`, `deltas`, `ops`) → `ready`, or `restore_corrupt`
///      when the chain does not apply (the worker keeps serving);
///    * `quiesce` → `ok`; `ping` → `pong`; `finish` → `finished`, after
///      which the worker hangs up.
///
/// A command the worker cannot serve — unknown kind, missing or malformed
/// field — is answered with a typed `error` frame, after which the worker
/// hangs up. Worker panics inside a command are caught and shipped back as
/// a typed `panic` frame so the supervisor can raise
/// [`TimeWarpError::WorkerPanic`] instead of seeing an opaque dead socket.
pub fn serve_worker(socket: &Path) -> io::Result<()> {
    let stream = UnixStream::connect(socket)?;
    // The Unix transport carries no token: the per-cluster socket path
    // already scopes the conversation, and the supervisor sends "".
    serve_wire(WireStream::Unix(stream), None, "")
}

/// TCP entry point for the `tw_worker` binary: dial the supervisor at
/// `addr` (retrying refused connections with jittered doubling backoff
/// until `DVS_TW_CONNECT_MS` elapses — the supervisor may not have reached
/// this cluster's accept yet, or the worker may be reconnecting after a
/// network fault) and serve `cluster` until `finish` or EOF. The backoff
/// jitter is deterministic, seeded from the run token and cluster id, so a
/// cluster-wide reconnect storm de-synchronises reproducibly instead of
/// hammering the listener in lockstep. The hello exchange presents
/// `token`; a supervisor with a different token (another run) is abandoned
/// quietly.
pub fn serve_worker_tcp(addr: &str, cluster: u32, token: &str) -> io::Result<()> {
    let deadline = Instant::now() + worker_connect_window()?;
    let mut jitter = DialJitter::new(token, cluster);
    let base = Duration::from_millis(10);
    let cap = Duration::from_millis(500);
    let mut delay = base;
    let stream = loop {
        match TcpStream::connect(addr) {
            Ok(s) => break s,
            Err(e) => {
                if Instant::now() >= deadline {
                    return Err(e);
                }
                std::thread::sleep(delay);
                delay = jitter.next_delay(delay, base, cap);
            }
        }
    };
    stream.set_nodelay(true)?;
    serve_wire(WireStream::Tcp(stream), Some(cluster), token)
}

/// Map a framing error to `io::Error` for the worker's `io::Result` entry
/// points (integrity violations become `InvalidData`).
fn wire_io(e: WireError) -> io::Error {
    match e {
        WireError::Io(e) => e,
        other => io::Error::new(io::ErrorKind::InvalidData, other.to_string()),
    }
}

/// Worker-side read: a clean EOF ends the session, and so does an
/// integrity violation — a worker that can no longer trust its inbound
/// stream hangs up and lets the supervisor's recovery path observe the
/// loss and restore from checkpoint. Only genuine I/O errors escape.
fn worker_recv(source: &mut FrameSource<io::BufReader<WireStream>>) -> io::Result<Option<Vec<u8>>> {
    match source.recv() {
        Ok(frame) => Ok(frame),
        Err(WireError::Io(e)) => Err(e),
        Err(_corrupt_or_truncated) => Ok(None),
    }
}

fn serve_wire(stream: WireStream, identity: Option<u32>, token: &str) -> io::Result<()> {
    // Frames are built whole before hitting the socket, so the raw stream
    // needs no write-side buffering of its own.
    let mut writer = stream.try_clone()?;
    let mut reader = io::BufReader::new(stream);

    // Version + token negotiation: read the supervisor's hello, always
    // answer with ours (both sides can then diagnose a mismatch), bail
    // quietly if the versions or tokens differ — on a version mismatch the
    // supervisor raises the typed error; on a token mismatch this worker
    // simply dialed the wrong run and must not disturb it. Hellos stay on
    // the legacy length-only framing permanently so any wire version can
    // parse the other side's greeting before negotiation completes.
    let hello = match read_frame(&mut reader)? {
        Some(bytes) => bytes,
        None => return Ok(()),
    };
    send_json(&mut writer, &hello_json(token, identity))?;
    let theirs = parse_json(&hello)
        .and_then(|j| hello_parse(&j))
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?;
    if theirs.versions() != (WIRE_VERSION, CHECKPOINT_SCHEMA) {
        return Ok(());
    }
    if theirs.token != token {
        return Ok(());
    }

    // Everything after the hello rides the checksummed v3 framing.
    let mut source = FrameSource::new(reader);
    let mut sink = FrameSink::new(writer);
    let init = match worker_recv(&mut source)? {
        Some(bytes) => bytes,
        None => return Ok(()),
    };
    let init = match parse_json(&init).and_then(|j| worker_init_from_json(&j)) {
        Ok(init) => init,
        Err(detail) => {
            sink.send_json(&error_json(&detail)).map_err(wire_io)?;
            return Ok(());
        }
    };
    serve_cluster(init, source, sink)
}

/// Parse `DVS_TW_SELFKILL=<cluster>:<after>` — a test hook that makes this
/// worker abort (SIGABRT, no unwinding, no reply frame) immediately before
/// dispatching its `<after>`-th command. Exercises asynchronous worker
/// death at a point the supervisor did not choose.
fn selfkill_budget(cluster: u32) -> Option<u64> {
    let spec = std::env::var("DVS_TW_SELFKILL").ok()?;
    let (c, after) = spec.split_once(':')?;
    if c.parse::<u32>().ok()? != cluster {
        return None;
    }
    after.parse::<u64>().ok()
}

fn serve_cluster(
    init: WorkerInit,
    mut source: FrameSource<io::BufReader<WireStream>>,
    mut sink: FrameSink<WireStream>,
) -> io::Result<()> {
    let WorkerInit {
        netlist,
        gate_block,
        k,
        cluster,
        check,
        cycles,
        stim,
        label,
    } = init;
    let plan = ClusterPlan::new(&netlist, &gate_block, k);
    let mut fresh = ClusterProcess::new(
        &netlist,
        &plan,
        cluster,
        stim.clone(),
        cycles,
        StateSaving::IncrementalUndo,
    );
    sink.send_json(&ready_json(fresh.lvt())).map_err(wire_io)?;
    let mut proc = Some(fresh);
    let mut selfkill = selfkill_budget(cluster);
    // Reference image for delta capture: the last full or reconstructed
    // checkpoint this incarnation produced or was restored from.
    let mut prev_ckpt: Option<Checkpoint> = None;

    loop {
        let bytes = match worker_recv(&mut source)? {
            Some(bytes) => bytes,
            None => return Ok(()), // supervisor went away — crash-stop too
        };
        let cmd = match parse_json(&bytes) {
            Ok(cmd) => cmd,
            Err(detail) => {
                sink.send_json(&error_json(&detail)).map_err(wire_io)?;
                return Ok(());
            }
        };
        // Heartbeat probes are liveness traffic, not simulation commands:
        // answer before the self-kill hook so an idle-but-probed worker
        // burns its crash budget on real work, deterministically.
        if json_kind(&cmd) == Ok("ping") {
            sink.send_json(&ok_json_cmd("pong")).map_err(wire_io)?;
            continue;
        }
        if let Some(left) = selfkill.as_mut() {
            if *left <= 1 {
                // Die exactly like SIGKILL would: no unwinding, no drops,
                // no farewell frame.
                std::process::abort();
            }
            *left -= 1;
        }
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            dispatch(
                &cmd,
                &netlist,
                &plan,
                &stim,
                cycles,
                check,
                &label,
                cluster,
                &mut proc,
                &mut selfkill,
                &mut prev_ckpt,
            )
        }));
        // Every way out of a command but an answered one hangs up.
        let (reply, stop) = match outcome {
            Ok(Ok(answered)) => answered,
            Ok(Err(detail)) => (error_json(&detail), true),
            Err(payload) => {
                let panic = ObjBuilder::new()
                    .str("kind", "panic")
                    .str("message", &panic_message(payload.as_ref()));
                (panic.build(), true)
            }
        };
        sink.send_json(&reply).map_err(wire_io)?;
        if stop {
            return Ok(());
        }
    }
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_string()
    }
}

/// Execute one supervisor command against the local cluster process.
/// `Ok((reply, stop))` answers — and, for `finish`, then hangs up;
/// `Err(detail)` is a protocol error (typed `error` reply + hang up).
#[allow(clippy::too_many_arguments)]
fn dispatch<'p>(
    cmd: &Json,
    nl: &Netlist,
    plan: &'p ClusterPlan,
    stim: &VectorStimulus,
    cycles: u64,
    check: bool,
    label: &str,
    cluster: u32,
    proc: &mut Option<ClusterProcess<'p>>,
    selfkill: &mut Option<u64>,
    prev_ckpt: &mut Option<Checkpoint>,
) -> Result<(Json, bool), String> {
    let kind = json_kind(cmd)?;
    let after_finish = || format!("command {kind:?} after finish");
    let done = || ObjBuilder::new().str("kind", "done");
    let reply = match kind {
        "step" => {
            let p = proc.as_mut().ok_or_else(after_finish)?;
            let limit = vtime_from(cmd.field("limit").map_err(|e| e.msg)?)?;
            let mut sends = Vec::new();
            p.process_next_epoch(limit, &mut |m: TwMessage| sends.push(m));
            delivered_json(done(), &(p.lvt(), sends))
        }
        "deliver" => {
            let p = proc.as_mut().ok_or_else(after_finish)?;
            let msgs = cmd.field("msgs").and_then(Json::as_array);
            let msgs = msgs.and_then(|a| a.iter().map(TwMessage::from_json).collect());
            let msgs: Vec<TwMessage> = msgs.map_err(|e| e.msg)?;
            if msgs.is_empty() {
                return Err("a delivery must carry at least one message".to_string());
            }
            let strays = p.stray_anti_messages();
            let results = deliver_run(p, &msgs);
            if p.stray_anti_messages() != strays {
                let antis = msgs[..results.len()].iter().filter(|m| m.anti);
                return Err(format!(
                    "an anti-message among (src, seq, time) {:?} has no positive to annihilate",
                    antis.map(|m| (m.src, m.seq, m.ev.time)).collect::<Vec<_>>()
                ));
            }
            let results = results.iter().map(|d| delivered_json(ObjBuilder::new(), d));
            done().array("results", results.collect()).build()
        }
        "gvt" => {
            let p = proc.as_mut().ok_or_else(after_finish)?;
            let gvt = vtime_from(cmd.field("gvt").map_err(|e| e.msg)?)?;
            let image = cmd.field("image").and_then(Json::as_str);
            let image = image.map_err(|e| e.msg)?;
            let image = Image::ALL.into_iter().find(|i| i.name() == image);
            let image = image.ok_or_else(|| "unknown image kind".to_string())?;
            // The image, when one is asked for, is the whole reply.
            gvt_capture(p, prev_ckpt, gvt, image, (check, cluster, label))?
                .unwrap_or_else(|| ok_json_cmd("ok"))
        }
        "restore" => {
            let array = |key: &str| cmd.field(key).and_then(Json::as_array).map_err(|e| e.msg);
            let ops: Vec<ReplayOp> = array("ops")?
                .iter()
                .map(replay_op_from_json)
                .collect::<Result<_, _>>()?;
            let base = cmd.field("ck").map_err(|e| e.msg)?;
            match rebuild(nl, plan, stim, cycles, base, array("deltas")?, &ops) {
                Ok((mut p, image)) => {
                    let lvt = p.lvt();
                    *proc = Some(p);
                    *prev_ckpt = Some(image);
                    // A restored worker is a fresh process as far as the
                    // fault model is concerned; it must not re-arm the
                    // self-kill hook.
                    *selfkill = None;
                    ready_json(lvt)
                }
                // Integrity failures in the shipped chain are recoverable
                // on the supervisor side (it falls back to the last full
                // base), so answer with a typed frame and keep serving on
                // this connection instead of hanging up.
                Err(WorkerFailure::CorruptRestore { detail }) => ObjBuilder::new()
                    .str("kind", "restore_corrupt")
                    .str("detail", &detail)
                    .build(),
                Err(WorkerFailure::Protocol { detail }) => return Err(detail),
                Err(other) => return Err(format!("{other:?}")),
            }
        }
        "quiesce" => {
            let p = proc.as_mut().ok_or_else(after_finish)?;
            if check {
                quiescence_asserts(p, cluster, label);
            }
            ok_json_cmd("ok")
        }
        "finish" => {
            let mut p = proc.take().ok_or_else(after_finish)?;
            let stats = p.take_stats();
            let values = p.into_values();
            let finished = ObjBuilder::new()
                .str("kind", "finished")
                .field("stats", stats.to_json())
                .str("values", &logic_str(&values));
            return Ok((finished.build(), true));
        }
        other => return Err(format!("unknown command kind {other:?}")),
    };
    Ok((reply, false))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vtime_sentinel_round_trips() {
        for t in [0, 1, 42, VTime::MAX - 1, VTime::MAX] {
            let j = vtime_json(t);
            assert_eq!(vtime_from(&j).expect("round trip"), t);
        }
        assert_eq!(vtime_json(VTime::MAX), Json::Null);
    }

    #[test]
    fn replay_ops_round_trip() {
        let ops = [
            ReplayOp::Step { limit: VTime::MAX },
            ReplayOp::Step { limit: 16 },
            ReplayOp::Deliver(TwMessage {
                src: 1,
                dst: 0,
                seq: 4,
                ev: crate::wheel::NetEvent {
                    time: 9,
                    net: dvs_verilog::netlist::NetId(3),
                    value: Logic::One,
                },
                anti: false,
            }),
            ReplayOp::Fossil(VTime::MAX),
        ];
        for op in &ops {
            let j = replay_op_json(op);
            assert_eq!(&replay_op_from_json(&j).expect("round trip"), op);
        }
    }

    #[test]
    fn hello_mismatch_shuts_the_worker_down_quietly() {
        // Both directions of wire skew: a future supervisor with a newer
        // wire version, a v3 supervisor that would deliver one `msg` per
        // frame and ask for `fossil` and `ckpt` separately, and a stale v2
        // supervisor predating checksummed frames; plus current-wire
        // supervisors still on checkpoint schema 2 or 3. Hellos stay on
        // the legacy length-only framing precisely so this exchange parses
        // on both sides regardless of version.
        for (wire, schema) in [
            (WIRE_VERSION + 1, CHECKPOINT_SCHEMA),
            (3, CHECKPOINT_SCHEMA),
            (2, CHECKPOINT_SCHEMA),
            (WIRE_VERSION, 2),
            (WIRE_VERSION, 3),
        ] {
            let (sup, worker) = UnixStream::pair().expect("socketpair");
            let handle = std::thread::spawn(move || serve_wire(WireStream::Unix(worker), None, ""));

            let mut writer = sup.try_clone().expect("clone");
            let mut reader = io::BufReader::new(sup);
            let bad_hello = ObjBuilder::new()
                .str("kind", "hello")
                .uint("wire", wire as u64)
                .uint("checkpoint_schema", schema as u64)
                .build();
            send_json(&mut writer, &bad_hello).expect("send hello");

            // The worker still answers with its own hello…
            let reply = read_frame(&mut reader)
                .expect("read")
                .expect("worker hello");
            let reply = hello_parse(&parse_json(&reply).expect("parse")).expect("hello");
            assert_eq!(reply.versions(), (WIRE_VERSION, CHECKPOINT_SCHEMA));
            // …then hangs up instead of serving commands.
            assert_eq!(read_frame(&mut reader).expect("clean eof"), None);
            handle.join().expect("join").expect("serve_wire exits Ok");
        }
    }

    /// A worker dialed into the wrong run (the supervisor's hello carries
    /// a different token) answers the hello, then exits quietly instead of
    /// serving — it must not disturb a run it does not belong to.
    #[test]
    fn token_mismatch_shuts_the_worker_down_quietly() {
        let (sup, worker) = UnixStream::pair().expect("socketpair");
        let handle =
            std::thread::spawn(move || serve_wire(WireStream::Unix(worker), Some(0), "right"));

        let mut writer = sup.try_clone().expect("clone");
        let mut reader = io::BufReader::new(sup);
        send_json(&mut writer, &hello_json("wrong", None)).expect("send hello");

        let reply = read_frame(&mut reader)
            .expect("read")
            .expect("worker hello");
        let reply = hello_parse(&parse_json(&reply).expect("parse")).expect("hello");
        assert_eq!(reply.token, "right");
        assert_eq!(reply.cluster, Some(0));
        assert_eq!(read_frame(&mut reader).expect("clean eof"), None);
        handle.join().expect("join").expect("serve_wire exits Ok");
    }

    /// A worker dials the broker presenting `token` for `cluster`, speaking
    /// the protocol (read supervisor hello first, then answer).
    fn dial(addr: SocketAddr, token: &str, cluster: u32) -> std::thread::JoinHandle<WireStream> {
        let token = token.to_string();
        std::thread::spawn(move || {
            let conn = TcpStream::connect(addr).expect("connect");
            let mut stream = WireStream::Tcp(conn);
            let mut writer = stream.try_clone().expect("clone");
            let _sup_hello = read_frame(&mut stream).expect("read").expect("sup hello");
            send_json(&mut writer, &hello_json(&token, Some(cluster))).expect("send hello");
            stream
        })
    }

    /// The broker drops a wrong-token dial-in without disturbing the run,
    /// then matches the correct-token worker to its cluster.
    #[test]
    fn broker_ignores_strays_and_matches_by_cluster() {
        let broker = TcpBroker::bind(
            "127.0.0.1:0",
            "good-token".to_string(),
            Duration::from_millis(2_000),
            Duration::from_millis(2_000),
        )
        .expect("bind");
        let stray = dial(broker.addr, "evil-token", 0);
        // Give the stray a head start so the broker meets it first. (The
        // dialers block reading the supervisor hello, so they are joined
        // only after accept_for has greeted them.)
        std::thread::sleep(Duration::from_millis(50));
        let genuine = dial(broker.addr, "good-token", 0);
        let deadline = Instant::now() + Duration::from_secs(5);
        let got = broker.accept_for(0, deadline, None).expect("accept");
        // The genuine worker's connection is the one handed back: prove it
        // by round-tripping a frame (the stray's socket was dropped, so
        // writing to it would fail or go nowhere).
        let mut sup_side = got;
        send_json(&mut sup_side, &ok_json_cmd("ping")).expect("send");
        let mut worker_side = genuine.join().expect("worker thread");
        let bytes = read_frame(&mut worker_side).expect("read").expect("frame");
        let j = parse_json(&bytes).expect("parse");
        assert_eq!(json_kind(&j).expect("kind"), "ping");
        drop(stray.join().expect("stray thread"));
    }

    /// Out-of-order dial-ins: cluster 1's worker connects while the broker
    /// is waiting on cluster 0. The broker parks it and hands it back
    /// instantly on the next `accept_for(1)` — this is also the reconnect
    /// path: after a reset, a re-dialing worker is matched back to its
    /// cluster by the identity in its hello, whatever order it arrives in.
    #[test]
    fn broker_parks_out_of_order_dialins() {
        let broker = TcpBroker::bind(
            "127.0.0.1:0",
            "tok".to_string(),
            Duration::from_millis(2_000),
            Duration::from_millis(2_000),
        )
        .expect("bind");
        let w1 = dial(broker.addr, "tok", 1);
        std::thread::sleep(Duration::from_millis(50));
        let w0 = dial(broker.addr, "tok", 0);
        let deadline = Instant::now() + Duration::from_secs(5);
        let s0 = broker.accept_for(0, deadline, None).expect("accept 0");
        // Cluster 1 is already parked: no new dial-in needed.
        let s1 = broker
            .accept_for(1, Instant::now() + Duration::from_millis(200), None)
            .expect("accept 1 from pending");
        drop(s0);
        drop(s1);
        drop(w0.join().expect("w0 thread"));
        drop(w1.join().expect("w1 thread"));
    }

    /// A correct-token peer with a mismatched wire version or checkpoint
    /// schema is fatal — the checkpoint payload must never cross a
    /// mixed-version pair. A v3 worker (one message per `deliver`, no `gvt`
    /// command), a v2 worker (pre-checksum framing), a schema-2 worker (the only kind that could still expect a `state_saving` key
    /// in `init`) or a schema-3 worker (whose images carry tombstone sets)
    /// meeting this supervisor surfaces as the typed
    /// [`TimeWarpError::VersionMismatch`], not as garbled frames — hellos
    /// deliberately stay on the legacy framing every version can parse.
    #[test]
    fn broker_rejects_version_mismatch_as_fatal() {
        for theirs in [
            (3, CHECKPOINT_SCHEMA),
            (2, CHECKPOINT_SCHEMA),
            (WIRE_VERSION, 2),
            (WIRE_VERSION, 3),
        ] {
            let broker = TcpBroker::bind(
                "127.0.0.1:0",
                "tok".to_string(),
                Duration::from_millis(2_000),
                Duration::from_millis(2_000),
            )
            .expect("bind");
            let addr = broker.addr;
            let old = std::thread::spawn(move || {
                let conn = TcpStream::connect(addr).expect("connect");
                let mut stream = WireStream::Tcp(conn);
                let mut writer = stream.try_clone().expect("clone");
                let _ = read_frame(&mut stream).expect("read").expect("sup hello");
                let stale = ObjBuilder::new()
                    .str("kind", "hello")
                    .uint("wire", theirs.0 as u64)
                    .uint("checkpoint_schema", theirs.1 as u64)
                    .str("token", "tok")
                    .uint("cluster", 0)
                    .build();
                send_json(&mut writer, &stale).expect("send hello");
                stream
            });
            let deadline = Instant::now() + Duration::from_secs(5);
            let err = broker
                .accept_for(0, deadline, None)
                .expect_err("version mismatch must be fatal");
            assert_eq!(err, WorkerFailure::Version { theirs });
            assert!(matches!(
                fatal(0, err),
                TimeWarpError::VersionMismatch { .. }
            ));
            drop(old.join().expect("old peer thread"));
        }
    }

    /// A TCP worker that completes the hello but goes silent during the
    /// handshake (never answers `init`) surfaces as a read timeout, which
    /// the spawn path keeps *fatal*: [`TimeWarpError::WorkerTimeout`].
    /// (Only post-handshake silence, once a checkpoint exists to restore
    /// from, is converted to a recoverable loss.)
    #[test]
    fn handshake_read_timeout_is_worker_timeout() {
        let broker = Rc::new(
            TcpBroker::bind(
                "127.0.0.1:0",
                "tok".to_string(),
                Duration::from_millis(2_000),
                Duration::from_millis(2_000),
            )
            .expect("bind"),
        );
        let addr = broker.addr;
        let token = broker.token.clone();
        let mute = std::thread::spawn(move || {
            let conn = TcpStream::connect(addr).expect("connect");
            let mut stream = WireStream::Tcp(conn);
            let mut writer = stream.try_clone().expect("clone");
            let _ = read_frame(&mut stream).expect("read").expect("sup hello");
            send_json(&mut writer, &hello_json(&token, Some(0))).expect("send hello");
            // Swallow the init frame, then go silent until the supervisor
            // gives up (keep the socket open so no EOF arrives).
            let _init = read_frame(&mut stream).expect("read init");
            std::thread::sleep(Duration::from_millis(500));
        });
        let timing = WireTiming {
            io: Duration::from_millis(50),
            connect: Duration::from_millis(2_000),
            heartbeat: Duration::from_secs(1),
            budget: 30,
        };
        let mut w = ProcessWorker::tcp(0, broker, None, ok_json_cmd("init"), timing, None);
        let err = w.spawn().expect_err("silent worker must time out");
        assert_eq!(err, WorkerFailure::Timeout { after_ms: 50 });
        assert!(matches!(
            fatal(0, err),
            TimeWarpError::WorkerTimeout {
                cluster: 0,
                after_ms: 50
            }
        ));
        mute.join().expect("mute thread");
    }

    /// Post-handshake silence over TCP is crash-stop: the heartbeat prober
    /// sends `ping` frames each idle interval, and when `budget`
    /// consecutive probes go unanswered the connection is torn down and
    /// the worker is declared `Lost` — which routes it into
    /// checkpoint-restore recovery instead of a fatal
    /// [`TimeWarpError::WorkerTimeout`]. Detection is bounded at
    /// `budget * heartbeat` instead of the full I/O timeout.
    #[test]
    fn heartbeat_budget_exhaustion_over_tcp_becomes_lost() {
        let broker = Rc::new(
            TcpBroker::bind(
                "127.0.0.1:0",
                "tok".to_string(),
                Duration::from_millis(2_000),
                Duration::from_millis(2_000),
            )
            .expect("bind"),
        );
        let addr = broker.addr;
        let token = broker.token.clone();
        let mute = std::thread::spawn(move || {
            let conn = TcpStream::connect(addr).expect("connect");
            let mut stream = WireStream::Tcp(conn);
            let writer = stream.try_clone().expect("clone");
            let _ = read_frame(&mut stream).expect("read").expect("sup hello");
            let mut legacy_writer = writer.try_clone().expect("clone");
            send_json(&mut legacy_writer, &hello_json(&token, Some(0))).expect("send hello");
            // Post-hello traffic rides the checksummed v3 framing:
            // acknowledge init like a real worker, then never answer again.
            let mut source = FrameSource::new(io::BufReader::new(stream));
            let mut sink = FrameSink::new(writer);
            let _init = source.recv().expect("read init");
            sink.send_json(&ready_json(0)).expect("send ready");
            // Swallow every further frame (commands and heartbeat pings
            // alike) without ever answering, holding the socket open until
            // the supervisor gives up and shuts it down.
            while let Ok(Some(_)) = source.recv() {}
        });
        let timing = WireTiming {
            io: Duration::from_millis(2_000),
            connect: Duration::from_millis(2_000),
            heartbeat: Duration::from_millis(25),
            budget: 2,
        };
        let mut w = ProcessWorker::tcp(0, broker, None, ok_json_cmd("init"), timing, None);
        w.spawn().expect("handshake completes");
        let t0 = Instant::now();
        let err = w
            .call(&ok_json_cmd("quiesce"))
            .expect_err("silent peer must be declared lost");
        assert!(
            matches!(&err, WorkerFailure::Lost { detail } if detail.contains("heartbeat")),
            "expected heartbeat-budget Lost, got {err:?}"
        );
        // Detection is bounded by the heartbeat budget, far below the I/O
        // timeout a plain blocking read would have waited out.
        assert!(
            t0.elapsed() < timing.io,
            "heartbeat probing must beat the raw I/O timeout"
        );
        // A typed recovery signal, not a fatal timeout.
        assert!(matches!(fatal(0, err), TimeWarpError::Transport { .. }));
        // Budget exhaustion is charged exactly once, at `budget` misses.
        assert_eq!(
            w.wire_counters().heartbeats_missed,
            u64::from(timing.budget)
        );
        // The connection was dropped with it: the next command fails
        // immediately, without waiting out another probe cycle.
        let t0 = Instant::now();
        let err = w.call(&ok_json_cmd("quiesce")).expect_err("no stream");
        assert!(matches!(err, WorkerFailure::Lost { .. }));
        assert!(
            t0.elapsed() < timing.heartbeat,
            "second failure should be instant"
        );
        mute.join().expect("mute thread");
    }

    #[test]
    fn checkpoint_payload_crosses_a_real_socket() {
        let ck = sample_checkpoint();
        let (a, b) = UnixStream::pair().expect("socketpair");
        let payload = ck.to_json();
        let writer = std::thread::spawn(move || {
            // Checkpoints ride the checksummed v3 framing in production.
            let mut sink = FrameSink::new(a);
            sink.send_json(&payload).expect("send checkpoint");
        });
        let mut source = FrameSource::new(io::BufReader::new(b));
        let bytes = source.recv().expect("read").expect("one frame");
        let back =
            Checkpoint::from_json(&parse_json(&bytes).expect("parse")).expect("checkpoint decodes");
        assert_eq!(back.schema, ck.schema);
        assert_eq!(back.cluster, ck.cluster);
        assert_eq!(back.gvt, ck.gvt);
        assert_eq!(back.values, ck.values);
        assert_eq!(back.undo, ck.undo);
        assert_eq!(back.stim_cycle, ck.stim_cycle);
        assert_eq!(back.mseq, ck.mseq);
        writer.join().expect("writer thread");
    }

    /// Hand-authored `init` frame for a two-cluster chain `net0 → not →
    /// net1 → not → net2`. The served worker is cluster 1, whose single
    /// gate reads net 1 — the 0→1 message channel the tests below drive.
    /// The stimulus seed deliberately exceeds `i64::MAX`: it must survive
    /// the JSON codec's decimal-string fallback losslessly (a saturated
    /// seed once made workers simulate a different stimulus than their
    /// supervisor).
    fn tiny_init_json() -> Json {
        chain_init_json(&[0, 1], 2)
    }

    /// `init` frame for cluster 1 of a chain of inverters, gate `i` reading
    /// net `i`, driving net `i + 1` and living in cluster `gate_block[i]`.
    fn chain_init_json(gate_block: &[u64], period: u64) -> Json {
        let gate = |i: usize| {
            let net = |n: usize| Json::Int(n as i64);
            Json::Array(vec![Json::Str("not".to_string()), net(i + 1), net(i)])
        };
        ObjBuilder::new()
            .str("kind", "init")
            .uint("cluster", 1)
            .uint("k", 2)
            .bool("check", true)
            .str("label", "serve-unit")
            .uint("cycles", 4)
            .uint("nets", gate_block.len() as u64 + 1)
            .field("const0", Json::Null)
            .field("const1", Json::Null)
            .field("primary_inputs", uint_array(&[0]))
            .array("gates", (0..gate_block.len()).map(gate).collect())
            .field("gate_block", uint_array(gate_block))
            .field(
                "stim",
                ObjBuilder::new()
                    .field("data_inputs", uint_array(&[0]))
                    .field("clock", Json::Null)
                    .uint("period", period)
                    .uint("seed", 11_601_856_998_475_820_192)
                    .build(),
            )
            .build()
    }

    type WorkerSession = (
        FrameSink<WireStream>,
        FrameSource<io::BufReader<WireStream>>,
        std::thread::JoinHandle<io::Result<()>>,
    );

    /// Complete the hello + init handshake against a real [`serve_wire`]
    /// worker over a Unix socketpair, returning the supervisor side of
    /// the checksummed v3 framing with the worker ready for commands.
    fn worker_session() -> WorkerSession {
        let (sup, worker) = UnixStream::pair().expect("socketpair");
        let handle = std::thread::spawn(move || serve_wire(WireStream::Unix(worker), None, ""));
        let mut writer = WireStream::Unix(sup).try_clone().expect("clone");
        let mut reader = io::BufReader::new(writer.try_clone().expect("clone"));
        send_json(&mut writer, &hello_json("", None)).expect("send hello");
        let reply = read_frame(&mut reader)
            .expect("read")
            .expect("worker hello");
        let reply = hello_parse(&parse_json(&reply).expect("parse")).expect("hello");
        assert_eq!(reply.versions(), (WIRE_VERSION, CHECKPOINT_SCHEMA));
        let mut sink = FrameSink::new(writer);
        let mut source = FrameSource::new(reader);
        sink.send_json(&tiny_init_json()).expect("send init");
        let ready = source.recv().expect("read").expect("ready frame");
        let ready = parse_json(&ready).expect("parse ready");
        assert_eq!(json_kind(&ready).expect("kind"), "ready");
        (sink, source, handle)
    }

    fn channel_msg(seq: u64, time: VTime, value: Logic) -> TwMessage {
        TwMessage {
            src: 0,
            dst: 1,
            seq,
            ev: crate::wheel::NetEvent {
                time,
                net: NetId(1),
                value,
            },
            anti: false,
        }
    }

    fn deliver_cmd(msgs: &[TwMessage]) -> Json {
        ObjBuilder::new()
            .str("kind", "deliver")
            .array("msgs", msgs.iter().map(ToJson::to_json).collect())
            .build()
    }

    /// `deliver` frames round-trip through a real worker over a real
    /// socket — a worker whose `init` carried a stimulus seed above
    /// `i64::MAX` (see [`tiny_init_json`]) — a run of one and a run of two,
    /// each answered with `done` and its `results`.
    #[test]
    fn deliver_round_trips_through_a_real_worker() {
        let (mut sink, mut source, handle) = worker_session();
        let m = |seq| channel_msg(seq, seq, Logic::One);
        for run in [&[m(1)][..], &[m(2), m(3)]] {
            sink.send_json(&deliver_cmd(run)).expect("send deliver");
            let reply = parse_json(&source.recv().expect("read").expect("reply")).expect("parse");
            assert_eq!(json_kind(&reply).expect("kind"), "done");
            let results = reply.field("results").and_then(Json::as_array);
            let results = results.expect("results");
            assert!(
                (1..=run.len()).contains(&results.len()),
                "a run of {} answered with {} results",
                run.len(),
                results.len()
            );
        }
        sink.send_json(&ok_json_cmd("finish")).expect("send finish");
        let reply = parse_json(&source.recv().expect("read").expect("reply")).expect("parse");
        assert_eq!(json_kind(&reply).expect("kind"), "finished");
        assert_eq!(source.recv().expect("clean eof"), None);
        handle.join().expect("join").expect("serve_wire exits Ok");
    }

    /// Send `cmd` to a fresh served worker and return the `detail` of the
    /// typed `error` frame it must answer with before hanging up.
    fn refusal_of(cmd: &Json) -> String {
        let (mut sink, mut source, handle) = worker_session();
        sink.send_json(cmd).expect("send command");
        let reply = parse_json(&source.recv().expect("read").expect("reply")).expect("parse");
        assert_eq!(json_kind(&reply).expect("kind"), "error", "{cmd:?}");
        let detail = reply.field("detail").and_then(Json::as_str);
        let detail = detail.expect("detail").to_string();
        assert_eq!(source.recv().expect("clean eof"), None);
        handle.join().expect("join").expect("serve_wire exits Ok");
        detail
    }

    /// An anti-message whose positive never arrived cannot be annihilated.
    /// The kernel counts it instead of parking it: an in-process worker
    /// fails its quiescence check on it, and a served worker answers the
    /// `deliver` frame with a typed `error` frame and hangs up.
    #[test]
    fn lone_anti_message_is_refused() {
        let mut anti = channel_msg(7, 3, Logic::One);
        anti.anti = true;

        let init = worker_init_from_json(&tiny_init_json()).expect("init parses");
        let plan = ClusterPlan::new(&init.netlist, &init.gate_block, init.k);
        let mut w = InProcWorker::new(
            &init.netlist,
            &plan,
            init.stim,
            init.cycles,
            true,
            "lone-anti",
            init.cluster,
        );
        let mut sends = Vec::new();
        w.deliver(&[anti]).expect("in-proc deliver");
        while w.lvt().expect("in-proc lvt") != VTime::MAX {
            w.step(VTime::MAX, &mut sends).expect("in-proc step");
        }
        let refused =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| w.check_quiescence()))
                .expect_err("quiescence check must fail");
        let message = panic_message(refused.as_ref());
        assert!(message.contains("no positive"), "unexpected: {message}");

        let detail = refusal_of(&deliver_cmd(&[anti]));
        assert!(detail.contains("no positive"), "unexpected: {detail}");
    }

    /// Removed vocabulary is rejected, not ignored: a worker handed the
    /// batching PR's `msg_batch` or `deliver_next`, wire v3's `fossil`,
    /// `ckpt` or `ckpt_delta`, or a v3 `deliver` carrying one `msg`,
    /// answers with a typed `error` frame (which the supervisor maps to
    /// [`WorkerFailure::Protocol`]) and hangs up. So does one handed a
    /// delivery of nothing, or a `gvt` asking for an image kind that does
    /// not exist.
    #[test]
    fn removed_batch_commands_are_unknown() {
        let m = channel_msg(1, 1, Logic::One);
        let at_gvt = |kind: &str| {
            ObjBuilder::new()
                .str("kind", kind)
                .field("gvt", vtime_json(0))
        };
        let refused = [
            (
                ObjBuilder::new()
                    .str("kind", "msg_batch")
                    .uint("src", 0)
                    .array("msgs", vec![m.to_json()])
                    .build(),
                "unknown command kind",
            ),
            (
                ObjBuilder::new()
                    .str("kind", "deliver_next")
                    .uint("src", 0)
                    .uint("seq", m.seq)
                    .bool("anti", m.anti)
                    .build(),
                "unknown command kind",
            ),
            (at_gvt("fossil").build(), "unknown command kind"),
            (at_gvt("ckpt").build(), "unknown command kind"),
            (at_gvt("ckpt_delta").build(), "unknown command kind"),
            (
                ObjBuilder::new()
                    .str("kind", "deliver")
                    .field("msg", m.to_json())
                    .build(),
                "missing field `msgs`",
            ),
            (deliver_cmd(&[]), "at least one message"),
            (
                at_gvt("gvt").str("image", "full").build(),
                "unknown image kind",
            ),
        ];
        for (cmd, why) in &refused {
            let detail = refusal_of(cmd);
            assert!(detail.contains(why), "{cmd:?} refused with: {detail}");
        }
    }

    const TEST_TIMING: WireTiming = WireTiming {
        io: Duration::from_millis(5_000),
        connect: Duration::from_millis(5_000),
        heartbeat: Duration::from_secs(1),
        budget: 30,
    };

    /// A [`ProcessWorker`] on one end of a socketpair whose other end
    /// `peer` plays, past the hello and `init` handshake it is handed the
    /// checksummed framing for.
    fn attached(
        cluster: u32,
        init: Json,
        peer: impl FnOnce(WireStream) -> io::Result<()> + Send + 'static,
    ) -> (ProcessWorker, std::thread::JoinHandle<io::Result<()>>) {
        let (sup, worker) = UnixStream::pair().expect("socketpair");
        let handle = std::thread::spawn(move || peer(WireStream::Unix(worker)));
        let mut w = ProcessWorker::new(cluster, PathBuf::new(), init, TEST_TIMING, None);
        w.adopt(WireStream::Unix(sup), false).expect("handshake");
        (w, handle)
    }

    /// A peer that completes the handshake like a real worker, then answers
    /// the commands it is sent with `replies`, in order, whatever they ask.
    fn scripted(replies: Vec<String>) -> impl FnOnce(WireStream) -> io::Result<()> + Send {
        move |mut stream| {
            let mut writer = stream.try_clone()?;
            let _hello = read_frame(&mut stream)?;
            send_json(&mut writer, &hello_json("", None))?;
            let mut source = FrameSource::new(io::BufReader::new(stream));
            let mut sink = FrameSink::new(writer);
            let _init = source.recv().map_err(wire_io)?;
            sink.send_json(&ready_json(0)).map_err(wire_io)?;
            for reply in replies {
                let _command = source.recv().map_err(wire_io)?;
                sink.send(reply.as_bytes()).map_err(wire_io)?;
            }
            Ok(())
        }
    }

    /// A `done` frame answering for `n` messages that did nothing.
    fn done_for(n: usize) -> String {
        let quiet = |_| delivered_json(ObjBuilder::new(), &(5, Vec::new()));
        let done = ObjBuilder::new().str("kind", "done");
        let done = done.array("results", (0..n).map(quiet).collect());
        done.build().emit().expect("emit")
    }

    /// What a worker says is checked where it enters the supervisor: a
    /// delivery answered for no message, or for more than it was handed,
    /// is a typed protocol failure — and so is a GVT round answered with an
    /// image of another cluster, another GVT, or the other kind. Never a
    /// panic, and never stored.
    #[test]
    fn replies_that_do_not_fit_their_command_are_protocol_failures() {
        let run = [
            channel_msg(1, 1, Logic::One),
            channel_msg(2, 2, Logic::Zero),
        ];
        for (n, fits) in [(0, false), (1, true), (2, true), (3, false)] {
            let (mut w, peer) = attached(1, ok_json_cmd("init"), scripted(vec![done_for(n)]));
            let answered = w.deliver(&run);
            match answered {
                Ok(results) if fits => assert_eq!(results.len(), n),
                Err(WorkerFailure::Protocol { detail }) if !fits => {
                    assert!(detail.contains(&format!("{n} results")), "{detail}")
                }
                other => panic!("{n} results for a run of 2: {other:?}"),
            }
            let counted = w.wire_counters();
            let expected = if fits { (1, n as u64) } else { (0, 0) };
            assert_eq!((counted.frames_sent, counted.messages_sent), expected);
            drop(w);
            peer.join().expect("join").expect("peer exits Ok");
        }

        let image_of = |cluster: u32, gvt: VTime| {
            let mut ck = sample_checkpoint();
            (ck.cluster, ck.gvt) = (cluster, gvt);
            ck.to_json().emit().expect("emit")
        };
        let delta = {
            let (prev, mut next) = (sample_checkpoint(), sample_checkpoint());
            (next.cluster, next.gvt) = (1, 17);
            let prev = Checkpoint { cluster: 1, ..prev };
            let delta = CheckpointDelta::between(&prev, &next);
            delta.to_json().emit().expect("emit")
        };
        for (reply, fits) in [
            (image_of(1, 17), true),
            (image_of(2, 17), false),
            (image_of(1, 16), false),
            (delta, false),
            (done_for(1), false),
        ] {
            let (w, peer) = attached(1, ok_json_cmd("init"), scripted(vec![reply.clone()]));
            let mut workers = [w];
            let answered = ProcessWorker::gvt_round(&mut workers, 17, Image::Base);
            match answered.into_iter().next().expect("one reply per worker") {
                Ok(kept) if fits => assert_eq!(kept, reply, "the image is kept as received"),
                Err(WorkerFailure::Protocol { .. }) if !fits => {}
                other => panic!("{reply:.120}: {other:?}"),
            }
            drop(workers);
            peer.join().expect("join").expect("peer exits Ok");
        }
    }

    fn sample_checkpoint() -> Checkpoint {
        Checkpoint {
            schema: CHECKPOINT_SCHEMA,
            cluster: 2,
            gvt: 17,
            values: vec![Logic::Zero, Logic::One, Logic::X, Logic::Z],
            pending: Vec::new(),
            processed: Vec::new(),
            undo: vec![(12, 1, Logic::X)],
            outlog: Vec::new(),
            stim_cycle: 5,
            last_time: 16,
            settled: true,
            order: 40,
            mseq: 11,
            stats: SimStats::default(),
        }
    }

    /// The `restore` frame is assembled around images kept as text; it
    /// must be, byte for byte, the frame an encoder over the decoded
    /// images would emit — and read back as the images it was built from.
    #[test]
    fn restore_frame_around_kept_text_is_the_canonical_frame() {
        let base = sample_checkpoint();
        let mut next = base.clone();
        (next.gvt, next.mseq) = (23, 12);
        let delta = CheckpointDelta::between(&base, &next);
        let ops = [
            ReplayOp::Step { limit: 39 },
            ReplayOp::Deliver(channel_msg(4, 25, Logic::One)),
            ReplayOp::Fossil(VTime::MAX),
        ];
        let text = |j: Json| j.emit().expect("emit");
        for chain in [
            vec![],
            vec![text(delta.to_json())],
            vec![text(delta.to_json()); 2],
        ] {
            let frame = restore_frame(&text(base.to_json()), &chain, &ops);
            let encoded = ObjBuilder::new()
                .str("kind", "restore")
                .field("ck", base.to_json())
                .array("deltas", vec![delta.to_json(); chain.len()])
                .array("ops", ops.iter().map(replay_op_json).collect());
            assert_eq!(frame, text(encoded.build()));
            let back = Json::parse(&frame).expect("the frame parses");
            let ck = Checkpoint::from_json(back.field("ck").expect("ck")).expect("decodes");
            assert_eq!(ck, base);
        }
    }

    // -- Delivery runs ------------------------------------------------------

    use dvs_workloads::seqcirc::{generate_counter, generate_lfsr};
    use dvs_workloads::viterbi::{generate_viterbi, ViterbiParams};
    use proptest::prelude::*;

    fn elaborate(src: &str) -> Netlist {
        dvs_verilog::parse_and_elaborate(src)
            .expect("generated circuit elaborates")
            .into_netlist()
    }

    /// What [`stop_rule_holds`] saw: runs handed over, runs that applied
    /// more than one message, and runs stopped short of their queue.
    #[derive(Debug, Default, PartialEq, Eq)]
    struct RunCensus {
        runs: usize,
        longer_than_one: usize,
        stopped_short: usize,
    }

    /// The stop rule against its model. Two copies of a two-cluster run are
    /// driven in lockstep: every `burst` epochs the messages cluster 0 sent
    /// are delivered to cluster 1 — to the *model* one message per call, to
    /// the *subject* as the whole queue in one slice, re-offering the
    /// unapplied remainder until it is empty. The subject must answer,
    /// message for message, what the model answered; every run must stop
    /// exactly where the rule says — after the first message that emitted
    /// or moved the LVT, or at the end of the queue, and nowhere else; and
    /// both copies must end in the same state. (Cluster 1's messages go
    /// back one at a time on both sides, so cluster 0 rolls back and its
    /// queues carry anti-messages too.)
    fn stop_rule_holds(
        nl: &Netlist,
        gate_block: &[u32],
        stim_seed: u64,
        cycles: u64,
        burst: usize,
    ) -> RunCensus {
        let plan = ClusterPlan::new(nl, gate_block, 2);
        let stim = VectorStimulus::from_netlist(nl, 10, stim_seed);
        let pair = |label: &str| -> Vec<InProcWorker<'_, '_>> {
            let worker = |me| InProcWorker::new(nl, &plan, stim.clone(), cycles, true, label, me);
            vec![worker(0), worker(1)]
        };
        let (mut model, mut subject) = (pair("model"), pair("subject"));
        let mut census = RunCensus::default();
        loop {
            // Both sides run ahead of each other, identically.
            let mut queues: [Vec<TwMessage>; 2] = [Vec::new(), Vec::new()];
            for (c, queue) in queues.iter_mut().enumerate() {
                for _ in 0..burst {
                    let mut ignored = Vec::new();
                    model[c].step(VTime::MAX, queue).expect("step");
                    subject[c].step(VTime::MAX, &mut ignored).expect("step");
                }
            }
            let [to_one, mut to_zero] = queues;

            let mut offered = 0;
            while offered < to_one.len() {
                let before = model[1].lvt().expect("lvt");
                let answered = subject[1].deliver(&to_one[offered..]).expect("deliver");
                assert!(!answered.is_empty(), "a delivery applies something");
                census.runs += 1;
                census.longer_than_one += usize::from(answered.len() > 1);
                let applied = offered + answered.len();
                census.stopped_short += usize::from(applied < to_one.len());
                for (i, got) in answered.iter().enumerate() {
                    let m = to_one[offered + i];
                    let want = model[1].deliver(&[m]).expect("deliver").remove(0);
                    assert_eq!(got, &want, "message {} of the queue", offered + i);
                    let stops = !want.1.is_empty() || want.0 != before;
                    let last = i + 1 == answered.len();
                    assert!(
                        stops == last || (last && applied == to_one.len()),
                        "message {} (stops: {stops}) was {}the last of its run",
                        offered + i,
                        if last { "" } else { "not " }
                    );
                    to_zero.extend(want.1);
                }
                offered = applied;
            }
            for m in to_zero {
                let want = model[0].deliver(&[m]).expect("deliver");
                assert_eq!(subject[0].deliver(&[m]).expect("deliver"), want);
            }

            let idle = |w: &mut InProcWorker<'_, '_>| w.lvt().expect("lvt") == VTime::MAX;
            if model.iter_mut().all(idle) {
                break;
            }
        }
        let state = |workers: &mut [InProcWorker<'_, '_>]| -> Vec<String> {
            let images = InProcWorker::gvt_round(workers, 0, Image::Base);
            images.into_iter().map(|i| i.expect("capture")).collect()
        };
        assert_eq!(state(&mut subject), state(&mut model), "final checkpoints");
        census
    }

    /// The half of the stop rule random traffic hardly ever isolates: a
    /// delivery that emits while the LVT stays where it was. Cluster 1 of
    /// `net0 → not → net1 → not → net2 → not → net3` (the middle inverter)
    /// has processed a lone positive whose evaluation it exported, with a
    /// later message still pending; the anti-message for that positive
    /// rolls it back and emits the export's anti-message, and the LVT —
    /// the next stimulus cycle, below the pending message — does not
    /// move. The run must end there all the same.
    #[test]
    fn a_delivery_that_emits_ends_its_run_even_if_the_lvt_stays() {
        let init = worker_init_from_json(&chain_init_json(&[0, 1, 0], 10)).expect("init parses");
        let plan = ClusterPlan::new(&init.netlist, &init.gate_block, init.k);
        let (stim, cycles) = (init.stim, init.cycles);
        let mut w = InProcWorker::new(&init.netlist, &plan, stim, cycles, true, "emits", 1);
        let positive = channel_msg(1, 5, Logic::One);
        let pending = channel_msg(2, 25, Logic::Zero);
        w.deliver(&[positive, pending]).expect("deliver");
        let mut sent = Vec::new();
        while w.step(6, &mut sent).expect("step") <= 6 {}
        assert!(
            sent.iter().any(|m| m.ev.time == 6),
            "the positive's evaluation was exported: {sent:?}"
        );

        let lvt = w.lvt().expect("lvt");
        let anti = TwMessage {
            anti: true,
            ..positive
        };
        let after = channel_msg(3, 30, Logic::One);
        let answered = w.deliver(&[anti, after]).expect("deliver");
        assert_eq!(
            answered.len(),
            1,
            "the run went past a delivery that emitted"
        );
        let (lvt_after, emitted) = &answered[0];
        assert_eq!(*lvt_after, lvt, "the case must leave the LVT where it was");
        assert!(emitted.iter().all(|m| m.anti) && !emitted.is_empty());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn delivery_runs_stop_where_the_model_stops(
            circuit in (any::<bool>(), 2u32..6),
            seeds in (any::<u64>(), any::<u64>()),
            pace in (6u64..24, 1usize..12),
        ) {
            let ((counter, bits), (part_seed, stim_seed), (cycles, burst)) = (circuit, seeds, pace);
            let nl = elaborate(&if counter {
                generate_counter(bits)
            } else {
                generate_lfsr(bits.max(2), &[bits.max(2), 1])
            });
            // Any split into two non-empty clusters.
            let mut bits_of = part_seed;
            let mut gate_block: Vec<u32> = (0..nl.gate_count())
                .map(|_| {
                    bits_of = bits_of.rotate_left(7).wrapping_mul(0x9E37_79B9_7F4A_7C15);
                    (bits_of >> 63) as u32
                })
                .collect();
            gate_block[0] = 0;
            gate_block[1] = 1;
            stop_rule_holds(&nl, &gate_block, stim_seed, cycles, burst);
        }
    }

    /// The fixed case: the benchmark's 6 126-gate decoder under its
    /// design-driven two-way partition, where bursts are long — runs of
    /// several messages and runs stopped short both occur in number.
    #[test]
    fn delivery_runs_stop_where_the_model_stops_on_the_decoder() {
        let params = ViterbiParams {
            constraint_len: 6,
            ..ViterbiParams::paper_class()
        };
        let nl = elaborate(&generate_viterbi(&params));
        assert_eq!(nl.gate_count(), 6_126);
        let part = dvs_core::partition_multiway(&nl, &dvs_core::MultiwayConfig::new(2, 10.0));
        let census = stop_rule_holds(&nl, &part.gate_blocks, 1, 6, 3);
        assert!(
            census.longer_than_one >= 10 && census.stopped_short >= 10,
            "the case no longer exercises the rule: {census:?}"
        );
    }

    /// Real served workers — `serve_wire` threads on socketpairs — driven
    /// by the supervisor under a schedule. Returns the run and the workers'
    /// folded wire counters.
    fn run_wired(
        nl: &Netlist,
        plan: &ClusterPlan,
        stim: &VectorStimulus,
        cycles: u64,
        schedule: &mut dyn Schedule,
    ) -> TwRunResult {
        let label = "wired";
        let (mut workers, peers): (Vec<_>, Vec<_>) = (0..plan.k as u32)
            .map(|me| {
                let init = init_json(nl, plan, stim, cycles, true, me, label);
                attached(me, init, |stream| serve_wire(stream, None, ""))
            })
            .unzip();
        let cfg = wired_cfg();
        let run = run_supervisor(
            nl,
            plan,
            stim,
            cycles,
            &cfg,
            schedule,
            true,
            label,
            &mut workers,
            true,
        );
        drop(workers);
        for peer in peers {
            peer.join().expect("join").expect("serve_wire exits Ok");
        }
        run.expect("wired run")
    }

    /// A hand-written schedule — deliver whenever something is queued —
    /// that does not implement [`Schedule::fork`].
    struct Eager;

    impl Schedule for Eager {
        fn next(&mut self, view: &DstView<'_>) -> DstAction {
            view.action_at(0)
        }
    }

    /// [`Eager`] with a faithful fork.
    #[derive(Clone)]
    struct Forked;

    impl Schedule for Forked {
        fn next(&mut self, view: &DstView<'_>) -> DstAction {
            view.action_at(0)
        }

        fn fork(&self) -> Option<Box<dyn Schedule + Send>> {
            Some(Box::new(Forked))
        }
    }

    /// A schedule that rotates over the legal actions by decision index,
    /// under a fork that forecasts it will repeat itself forever.
    #[derive(Default)]
    struct Fickle {
        chose: Option<DstAction>,
    }

    impl Schedule for Fickle {
        fn next(&mut self, view: &DstView<'_>) -> DstAction {
            let turn = view.decision as usize % view.action_count();
            *self.chose.insert(view.action_at(turn))
        }

        fn fork(&self) -> Option<Box<dyn Schedule + Send>> {
            struct Stuck(DstAction);
            impl Schedule for Stuck {
                fn next(&mut self, _: &DstView<'_>) -> DstAction {
                    self.0
                }
            }
            Some(Box::new(Stuck(self.chose?)))
        }
    }

    /// The kill harnesses' kernel settings: short quanta, frequent rounds.
    fn wired_cfg() -> TimeWarpConfig {
        TimeWarpConfig {
            window: 8,
            epochs_per_quantum: 2,
            ..TimeWarpConfig::default()
        }
    }

    fn wired_case() -> (Netlist, Vec<u32>) {
        let nl = elaborate(&generate_viterbi(&ViterbiParams::tiny()));
        let part = dvs_core::partition_multiway(&nl, &dvs_core::MultiwayConfig::new(3, 20.0));
        (nl, part.gate_blocks)
    }

    /// A schedule without a fork keeps today's one message per frame; the
    /// same schedule with a faithful fork makes the same decisions — the
    /// run is identical down to every counter — in fewer frames.
    #[test]
    fn a_schedule_without_a_fork_delivers_one_message_per_frame() {
        let (nl, gate_block) = wired_case();
        let plan = ClusterPlan::new(&nl, &gate_block, 3);
        let stim = VectorStimulus::from_netlist(&nl, 10, 7);
        let plain = run_wired(&nl, &plan, &stim, 12, &mut Eager);
        assert!(plain.recovery.messages_sent > 0);
        assert_eq!(plain.recovery.frames_sent, plain.recovery.messages_sent);

        let forked = run_wired(&nl, &plan, &stim, 12, &mut Forked);
        assert_eq!(forked.recovery.messages_sent, plain.recovery.messages_sent);
        assert!(
            forked.recovery.frames_sent < plain.recovery.frames_sent,
            "no run longer than one message in {} frames",
            forked.recovery.frames_sent
        );
        assert_eq!(forked.stats, plain.stats);
        assert_eq!(forked.cluster_stats, plain.cluster_stats);
        assert_eq!(forked.values, plain.values);
        assert_eq!(
            forked.recovery.checkpoint_bytes_full,
            plain.recovery.checkpoint_bytes_full
        );
    }

    /// A fork that forecasts what its schedule then does not choose is
    /// caught at the first decision that leaves the run, by name.
    #[test]
    fn an_unfaithful_fork_is_caught_at_the_decision_it_misforecast() {
        let (nl, gate_block) = wired_case();
        let plan = ClusterPlan::new(&nl, &gate_block, 3);
        let stim = VectorStimulus::from_netlist(&nl, 10, 7);
        let workers = |label: &str| -> Vec<InProcWorker<'_, '_>> {
            let worker = |me| InProcWorker::new(&nl, &plan, stim.clone(), 12, true, label, me);
            (0..3).map(worker).collect()
        };
        let cfg = wired_cfg();
        let label = "seed 7, schedule Fickle";
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let mut workers = workers(label);
            let mut schedule = Fickle::default();
            let schedule: &mut dyn Schedule = &mut schedule;
            let _ = run_supervisor(
                &nl,
                &plan,
                &stim,
                12,
                &cfg,
                schedule,
                true,
                label,
                &mut workers,
                false,
            );
        }));
        let message = panic_message(caught.expect_err("the lie must be caught").as_ref());
        assert!(
            message.contains("fork") && message.contains(label),
            "unexpected: {message}"
        );
    }
}
