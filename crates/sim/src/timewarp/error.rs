//! Typed errors for the Time Warp kernel.

use crate::wheel::VTime;

/// A Time Warp run failed in a way the kernel can diagnose. Crash faults do
/// **not** surface here — they are injected only under the deterministic
/// supervisor, which either restores the dead cluster or degrades to the
/// sequential simulator (see [`super::recovery::FaultPlan`]); errors are
/// reserved for conditions no retry can fix.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum TimeWarpError {
    /// The deterministic supervisor's livelock watchdog tripped: GVT made
    /// no progress for `idle` scheduling decisions. A healthy run always
    /// advances GVT — the optimism window throttles every cluster to
    /// `GVT + window`, so five million decisions without GVT progress (the
    /// fixed limit) means the protocol is wedged. Lock-step rounds —
    /// [`super::Transport::Threads`], and
    /// [`super::SchedulePolicy::RoundRobin`] under the supervisor — raise
    /// GVT every round, so there one round without a rise is a stall, and
    /// only a worker that broke the protocol can cause one.
    Stalled {
        /// GVT value the run was stuck at.
        gvt: VTime,
        /// Decisions (rounds, in lock-step rounds) executed since GVT last
        /// advanced.
        idle: u64,
    },
    /// The configuration cannot run: [`super::TimeWarpConfig::validate`]
    /// rejected it, or a wire transport found no worker binary or could not
    /// bind its listener.
    InvalidConfig {
        /// What was wrong with it.
        reason: String,
    },
    /// A worker panicked. Under [`super::Transport::Threads`] the worker's
    /// thread catches it, building its cluster included, and still meets its
    /// peers at the round's barrier, so none of them waits forever; the
    /// lowest-numbered cluster that panicked is named. On the process and
    /// TCP transports it is caught worker-side and shipped back as a typed
    /// frame rather than an opaque exit code. Panics are deterministic —
    /// replaying the same operation would panic again — so they are fatal
    /// on every transport, not recoverable.
    WorkerPanic {
        /// The cluster whose worker panicked.
        cluster: u32,
        /// The panic payload, when it was a string.
        message: String,
    },
    /// The process or TCP transport failed at the protocol level: a
    /// malformed or oversized frame, an unexpected response kind, or a
    /// worker that could not be spawned or connected.
    Transport {
        /// The cluster whose link failed.
        cluster: u32,
        /// Human-readable description of the failure.
        detail: String,
    },
    /// A worker stopped responding: no frame arrived within the read
    /// timeout (30 s, fixed). On the Unix transport a wedged local worker
    /// is not crash-stop (its state may still mutate), so the run fails
    /// instead of attempting recovery — this is the process-transport arm
    /// of the stall watchdog. Over TCP this error is reserved for the
    /// spawn/handshake phase (before the first checkpoint exists); once a
    /// run is underway, a worker silent for
    /// [`super::TimeWarpConfig::silence_timeout`] has its connection
    /// dropped and *recovered* like a crash instead.
    WorkerTimeout {
        /// The cluster whose worker went silent.
        cluster: u32,
        /// The read timeout that elapsed, in milliseconds.
        after_ms: u64,
    },
    /// Version negotiation with a worker failed: its wire or checkpoint
    /// schema version differs from ours. Mixed-version deployments must be
    /// rejected up front — a checkpoint restored under a different schema
    /// would silently diverge.
    VersionMismatch {
        /// The cluster whose worker offered the other version.
        cluster: u32,
        /// Our combined version (wire, checkpoint schema).
        ours: (u32, u32),
        /// The worker's combined version.
        theirs: (u32, u32),
    },
}

impl std::fmt::Display for TimeWarpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TimeWarpError::Stalled { gvt, idle } => write!(
                f,
                "time warp stalled: GVT stuck at {gvt} for {idle} scheduling decisions"
            ),
            TimeWarpError::InvalidConfig { reason } => {
                write!(f, "invalid time warp configuration: {reason}")
            }
            TimeWarpError::WorkerPanic { cluster, message } => {
                write!(f, "worker for cluster {cluster} panicked: {message}")
            }
            TimeWarpError::Transport { cluster, detail } => {
                write!(f, "transport failure on cluster {cluster}: {detail}")
            }
            TimeWarpError::WorkerTimeout { cluster, after_ms } => write!(
                f,
                "worker for cluster {cluster} sent no frame for {after_ms} ms"
            ),
            TimeWarpError::VersionMismatch {
                cluster,
                ours,
                theirs,
            } => write!(
                f,
                "version mismatch with worker for cluster {cluster}: \
                 ours wire={} checkpoint={}, theirs wire={} checkpoint={}",
                ours.0, ours.1, theirs.0, theirs.1
            ),
        }
    }
}

impl std::error::Error for TimeWarpError {}
