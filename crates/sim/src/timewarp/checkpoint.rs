//! GVT-consistent cluster checkpoints.
//!
//! A [`Checkpoint`] is the complete fossil-stable image of one
//! [`super::proc::ClusterProcess`] taken at a successful GVT round. GVT
//! rounds are *consistent global cuts* for the kernel: a sample is only
//! valid while no message is in transit, so at the moment GVT advances
//! every channel is empty and the global state is exactly the union of the
//! per-cluster states — nothing is "on the wire". Capturing every cluster
//! right after the fossil collection for that round therefore yields a
//! coordinated checkpoint at minimal size (history strictly below GVT has
//! just been reclaimed).
//!
//! The image is *behaviorally exact*: restoring it produces a process whose
//! subsequent execution is bit-identical to the original's — including the
//! drain order of the pending queue (`order` stamps are preserved), rollback
//! history (processed/undo), the send cursor (`mseq`) and statistics. That is what lets the recovery
//! supervisor ([`super::recovery`]) replay a crashed cluster's input log on
//! top of its last checkpoint and land in exactly the pre-crash state.
//!
//! Serialization to the schema-versioned canonical JSON artifact format
//! lives in `dvs_sim::artifact`; [`Checkpoint`] itself is plain data with
//! public fields. The pending queue, whose internal layout depends on
//! history, is captured *sorted*, so capturing the same state twice yields
//! equal — and identically serialized — checkpoints. A worker emits
//! [`Checkpoint::to_text`], streamed; the `ToJson` tree is the reference it
//! equals byte for byte.

use super::TwMessage;
use crate::logic::Logic;
use crate::stats::SimStats;
use crate::wheel::VTime;

/// Schema version of the checkpoint image. Bumped when the layout changes
/// incompatibly; serializers embed it next to the artifact schema version.
/// Version 2 introduced delta images (since removed; the full image's
/// layout did not change with them); version 3 dropped the two snapshot keys of the removed
/// checkpoint/coast-forward rollback mode; version 4 dropped the tombstone
/// sets, the schedule log and the local-event sequence numbers when
/// cancellation moved into the pending queue. The wire hello
/// negotiates this next to the frame version, so a peer on an older schema
/// is rejected at the handshake instead of failing mid-restore.
pub const CHECKPOINT_SCHEMA: u32 = 4;

/// Provenance of a queued or processed event — mirrors the kernel's
/// internal source tag so rollback treatment survives a restore.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CkptSource {
    /// Environment input (vector stimulus or initial settling).
    Stimulus,
    /// Scheduled by local gate evaluation at `created_at`.
    Local { created_at: VTime },
    /// Received from cluster `src` with send sequence `seq`.
    Remote { src: u32, seq: u64 },
}

/// One pending or processed event with its tie-break stamp.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CkptEvent {
    pub time: VTime,
    pub net: u32,
    pub value: Logic,
    pub source: CkptSource,
    pub order: u64,
}

/// The complete state image of one cluster at a GVT round.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Checkpoint {
    /// Layout version ([`CHECKPOINT_SCHEMA`]).
    pub schema: u32,
    /// The cluster this image belongs to.
    pub cluster: u32,
    /// GVT at capture time — the consistent cut this image is part of.
    pub gvt: VTime,
    /// Net values (full vector, indexed by net id).
    pub values: Vec<Logic>,
    /// Pending events, sorted by `(time, order)` for deterministic capture.
    pub pending: Vec<CkptEvent>,
    /// Processed events retained for rollback, in processing order.
    pub processed: Vec<CkptEvent>,
    /// Incremental undo log: `(time, net, previous value)`.
    pub undo: Vec<(VTime, u32, Logic)>,
    /// Sent messages awaiting fossil collection: `(created_at, message)`.
    pub outlog: Vec<(VTime, TwMessage)>,
    /// Next stimulus cycle to generate (receive cursor of the environment).
    pub stim_cycle: u64,
    /// Local clock: time of the last processed epoch.
    pub last_time: VTime,
    /// Has initial settling run?
    pub settled: bool,
    /// Next tie-break stamp.
    pub order: u64,
    /// Next message sequence number (per-cluster send cursor).
    pub mseq: u64,
    /// Statistics accumulated so far.
    pub stats: SimStats,
}
