//! Cluster checkpoints: the images crash recovery restores.
//!
//! A [`Checkpoint`] is the complete fossil-stable image of one
//! [`super::proc::ClusterProcess`], taken at the end of a round whose
//! fossil collection has just reclaimed the history strictly below GVT, so
//! it is near its minimal size. It is its cluster's restore point: the
//! supervisor keeps every message the cluster has not answered for, so an
//! image and the operations logged since it rebuild that cluster alone,
//! whatever its peers did meanwhile.
//!
//! The image is *behaviorally exact*: restoring it produces a process whose
//! subsequent execution is bit-identical to the original's — including the
//! drain order of the pending queue (its events are listed in that order),
//! rollback history (the processed events and the values they replaced)
//! and statistics. That is what lets the recovery supervisor
//! ([`super::recovery`]) replay a crashed cluster's input log on top of its
//! last checkpoint and land in exactly the pre-crash state.
//!
//! An event is the kernel's own 16-byte [`NetEvent`]: nothing else is
//! stored per event, because the netlist and unit delay fix the rest. The
//! order of one time's events is the order they were queued in, where a
//! rollback came from is whether an owned gate drives the net, and an
//! anti-message names its positive by time and net. No send is stored
//! either: every send still to be cancelled went out with a local event on
//! an exported net that the image holds, processed or pending.
//!
//! Serialization to the schema-versioned canonical JSON artifact format
//! lives in `dvs_sim::artifact`; [`Checkpoint`] itself is plain data with
//! public fields. Capturing the same state twice yields equal — and
//! identically serialized — checkpoints. A worker emits
//! [`Checkpoint::to_text`], streamed; the `ToJson` tree is the reference it
//! equals byte for byte.

use crate::logic::Logic;
use crate::stats::SimStats;
use crate::wheel::{NetEvent, VTime};

/// Schema version of the checkpoint image. Bumped when the layout changes
/// incompatibly; serializers embed it next to the artifact schema version.
/// Version 2 introduced delta images (since removed; the full image's
/// layout did not change with them); version 3 dropped the two snapshot
/// keys of the removed checkpoint/coast-forward rollback mode; version 4
/// dropped the tombstone sets, the schedule log and the local-event
/// sequence numbers when cancellation moved into the pending queue; version
/// 5 replaced the `(time, net, old value)` records with the `replaced`
/// column of the processed events and dropped the send times of local
/// events and output-log entries, which unit delay implies; version 6
/// dropped each event's source and tie-break stamp and the next stamp, an
/// event becoming `{time, net, value}` with the pending ones listed in drain
/// order; version 7 dropped the output log and the message sequence number,
/// a rollback deriving its anti-messages from the local events it drops.
/// The wire hello negotiates this next to the frame version, so a peer on
/// an older schema is rejected at the handshake instead of failing
/// mid-restore.
pub const CHECKPOINT_SCHEMA: u32 = 7;

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
    /// Pending events, in the order they would be processed.
    pub pending: Vec<NetEvent>,
    /// Processed events retained for rollback, in processing order.
    pub processed: Vec<NetEvent>,
    /// The value each processed event found on its net, index for index.
    pub replaced: Vec<Logic>,
    /// Next stimulus cycle to generate (receive cursor of the environment).
    pub stim_cycle: u64,
    /// Local clock: time of the last processed epoch.
    pub last_time: VTime,
    /// Has initial settling run?
    pub settled: bool,
    /// Statistics accumulated so far.
    pub stats: SimStats,
}
