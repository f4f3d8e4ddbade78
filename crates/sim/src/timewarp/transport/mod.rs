//! Pluggable worker transports for the Time Warp kernel.
//!
//! The deterministic executor ([`super::dst`]) drives one worker per
//! cluster through a small command vocabulary — step, deliver, GVT round,
//! restore, finish. `ClusterWorker` abstracts *where* that worker lives:
//!
//! * `InProcWorker` — the worker is a `ClusterProcess` owned by the
//!   supervisor itself, commands are direct method calls. This is the
//!   deterministic executor of [`Transport::InProc`].
//! * `ProcessWorker` — the worker is a separate OS process (the
//!   `tw_worker` binary) on a `WireStream`: either a Unix-domain socket
//!   ([`Transport::Process`], the supervisor spawns the child and owns the
//!   per-cluster socket) or a TCP connection ([`Transport::Tcp`], the
//!   supervisor binds one shared listener and each worker *dials in* with
//!   `tw_worker --connect host:port`). Commands are length-prefixed JSON
//!   frames either way, and what answers them in the child is an
//!   `InProcWorker` again, behind the frame codec. A `SIGKILL`'d worker
//!   surfaces as a socket EOF; a dropped TCP connection (EOF, reset, or a
//!   read that times out) surfaces the same way — and the supervisor
//!   treats every one of them exactly like an injected crash fault:
//!   restore from the last GVT-coordinated checkpoint, replay the input
//!   log, re-fill the lost channels (see [`super::recovery`]).
//!
//! One file per seam, each importing only what is listed before it:
//!
//! * `mod.rs` — [`Transport`], the `ClusterWorker` contract and the
//!   `WorkerFailure` it fails with; imports no sibling.
//! * `in_proc.rs` — `InProcWorker`: what each command does to a cluster.
//! * `supervisor.rs` — `run_supervisor`: decisions, delivery runs, GVT
//!   rounds, recovery, over any `ClusterWorker`; no wire, no frame.
//! * `frames.rs` — how every frame is spelled as JSON; no socket, no
//!   worker.
//! * `remote.rs` — the supervisor's end of the wire: `ProcessWorker`, the
//!   two links, the dial-in wait, the hello, `run_wire`; imports
//!   `frames.rs` and `supervisor.rs`.
//! * `serve.rs` — the worker's end ([`serve_worker`]): an `InProcWorker`
//!   behind `frames.rs`; imports those two.
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
//! the stimulus parameters; the worker rebuilds its `ClusterPlan`
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
//! That text is streamed by [`super::Checkpoint::to_text`] (its `ToJson`
//! tree is the reference it must equal), and the frame CRC runs slice-by-8,
//! so an image costs about what moving its bytes does.
//!
//! On the Unix transport a hung worker is *not* crash-stop, so the timeout
//! is fatal ([`TimeWarpError::WorkerTimeout`]); over TCP the supervisor probes a
//! silent peer with heartbeat `ping` frames every `heartbeat_interval` and
//! declares it lost after `heartbeat_budget` consecutive unanswered
//! probes — bounding half-open-connection detection at
//! `budget × interval` instead of hanging for the full 30 s window — and
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

mod frames;
mod in_proc;
mod remote;
mod serve;
mod supervisor;
#[cfg(test)]
mod tests;

use super::checkpoint::CHECKPOINT_SCHEMA;
use super::dst::SchedulePolicy;
use super::error::TimeWarpError;
use super::recovery::ReplayOp;
use super::TwMessage;
use crate::logic::Logic;
use crate::stats::SimStats;
use crate::wheel::VTime;
use std::path::PathBuf;

pub(crate) use in_proc::InProcWorker;
pub(crate) use remote::run_wire;
pub use serve::{serve_worker, serve_worker_tcp};
pub(crate) use supervisor::run_supervisor;

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
        /// Explicit path to the worker binary. `None` falls back to a
        /// `tw_worker` next to (or one directory above) the current
        /// executable.
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
        /// [`Transport::Process`] (a `tw_worker` sibling).
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
    }
}

fn protocol(detail: String) -> WorkerFailure {
    WorkerFailure::Protocol { detail }
}

/// How long a worker gets to (re)connect, on either end of either link:
/// the supervisor's wait for a spawned or redialing worker, and a TCP
/// worker's retries against a listener that is not accepting yet.
const CONNECT_TIMEOUT: std::time::Duration = std::time::Duration::from_secs(10);

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

/// What a GVT round captures from a worker after fossil-collecting it.
/// The names are the wire's.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Image {
    /// Nothing: the run is untracked, or has just quiesced.
    None,
    /// A full [`super::Checkpoint`].
    Base,
}

impl Image {
    const ALL: [Image; 2] = [Image::None, Image::Base];

    fn name(self) -> &'static str {
        match self {
            Image::None => "none",
            Image::Base => "base",
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
    /// strictly below `gvt`, then capture `image`. Returns, per worker, the
    /// image as the canonical JSON text it was captured as — empty for
    /// [`Image::None`].
    /// Taking the workers together lets a wire transport write every
    /// command before it reads the first reply.
    fn gvt_round(
        workers: &mut [Self],
        gvt: VTime,
        image: Image,
    ) -> Vec<Result<String, WorkerFailure>>;
    /// Rebuild the worker from the encoded image `base` and replay `ops`
    /// (re-sends suppressed). Returns the restored LVT.
    fn respawn(&mut self, base: &str, ops: &[ReplayOp]) -> Result<VTime, WorkerFailure>;
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
