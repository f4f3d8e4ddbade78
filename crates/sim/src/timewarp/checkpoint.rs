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
//! lives in `dvs_core::artifact` (this crate stays dependency-free);
//! [`Checkpoint`] itself is plain data with public fields. The pending
//! queue, whose internal layout depends on history, is captured *sorted*, so
//! capturing the same state twice yields equal — and identically
//! serialized — checkpoints.
//!
//! # Incremental checkpoints
//!
//! Full images every round dominate checkpoint cost at scale, so the
//! supervisor can run on a [`CheckpointCadence`]: a full base image every
//! Nth GVT round with a [`CheckpointDelta`] — the edits against the
//! previous round's image — in between. A delta is a pure function of two
//! consecutive images ([`CheckpointDelta::between`]) and applying it
//! ([`Checkpoint::apply_delta`]) is exact: `apply(prev, between(prev,
//! next)) == next`, field for field. Chains are validated on apply — the
//! delta must carry the same schema and cluster and its `base_gvt` must
//! equal the image it is applied to — and every structural mismatch
//! surfaces as a typed [`DeltaError`], never a panic, so a truncated or
//! reordered chain read from disk or the wire fails loudly.

use super::TwMessage;
use crate::logic::Logic;
use crate::stats::SimStats;
use crate::wheel::VTime;

/// Schema version of the checkpoint image. Bumped when the layout changes
/// incompatibly; serializers embed it next to the artifact schema version.
/// Version 2 introduced delta images and the base+delta restore payload;
/// version 3 dropped the two snapshot keys of the removed
/// checkpoint/coast-forward rollback mode; version 4 dropped the tombstone
/// sets, the schedule log and the local-event sequence numbers when
/// cancellation moved into the pending queue. The wire hello
/// negotiates this next to the frame version, so a peer on an older schema
/// is rejected at the handshake instead of failing mid-restore.
pub const CHECKPOINT_SCHEMA: u32 = 4;

/// How often a full base image is captured. `every_n_rounds == 1` (the
/// default) reproduces the classic behaviour: a full [`Checkpoint`] at
/// every GVT round. With `N > 1`, rounds between bases capture
/// [`CheckpointDelta`]s and crash restore replays `base + deltas + input
/// log`; sender-side channel retention stretches to the same N rounds (see
/// [`super::recovery`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CheckpointCadence {
    /// Capture a full base every this many GVT rounds (>= 1).
    pub every_n_rounds: u32,
}

impl CheckpointCadence {
    /// A cadence taking a full base every `n` rounds (`n >= 1`).
    pub fn every_n_rounds(n: u32) -> Self {
        CheckpointCadence { every_n_rounds: n }
    }
}

impl Default for CheckpointCadence {
    fn default() -> Self {
        CheckpointCadence { every_n_rounds: 1 }
    }
}

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

/// Why a delta could not be applied to a base image. Every variant is a
/// structural rejection — corrupt, truncated or reordered chains are
/// reported, never panicked on, so untrusted artifacts fail safely.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DeltaError {
    /// The delta was produced under a different checkpoint schema.
    SchemaMismatch { expected: u32, got: u32 },
    /// The delta belongs to a different cluster than the base image.
    ClusterMismatch { expected: u32, got: u32 },
    /// The delta's `base_gvt` does not match the image it is applied to —
    /// the chain is truncated, reordered or spliced.
    ChainMismatch { expected: VTime, got: VTime },
    /// A field edit does not fit the base image (an element to remove is
    /// absent, a run is out of bounds, a log window exceeds the log).
    Corrupt(String),
}

impl std::fmt::Display for DeltaError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DeltaError::SchemaMismatch { expected, got } => {
                write!(
                    f,
                    "delta schema {got} does not match image schema {expected}"
                )
            }
            DeltaError::ClusterMismatch { expected, got } => {
                write!(f, "delta for cluster {got} applied to cluster {expected}")
            }
            DeltaError::ChainMismatch { expected, got } => {
                write!(
                    f,
                    "delta base gvt {got} does not match image gvt {expected}"
                )
            }
            DeltaError::Corrupt(detail) => write!(f, "corrupt delta: {detail}"),
        }
    }
}

impl std::error::Error for DeltaError {}

/// Edit script for the full net-value vector: either sparse runs of changed
/// values or a full replacement when the round touched too much of the
/// vector for runs to pay off. The choice is a deterministic function of
/// the two images, so identical rounds produce identical deltas.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ValuesDelta {
    /// Replace the whole vector.
    Full(Vec<Logic>),
    /// Overwrite runs `(start index, new values)`, ascending and disjoint.
    Runs(Vec<(u32, Vec<Logic>)>),
}

/// Edit script for a log-like field (processed history, undo log,
/// output log): fossil collection drains the front, rollback truncates the back and new entries append, so the next
/// image is a contiguous window of the previous one plus appended entries:
/// `next = prev[drop_front .. drop_front + keep] ++ append`. When no window
/// survives, `keep == 0` and the delta degenerates to a full replacement.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LogDelta<T> {
    /// Entries dropped from the front of the previous image.
    pub drop_front: u32,
    /// Entries of the previous image retained (starting at `drop_front`).
    /// The sentinel [`KEEP_ALL`] means "the whole previous log, whatever
    /// its length" — the identity edit, encodable without knowing the base.
    pub keep: u32,
    /// Entries appended after the retained window.
    pub append: Vec<T>,
}

/// Sentinel `keep` value marking the identity log edit (`drop_front` must
/// be 0 and `append` empty): the next image's log equals the previous one.
/// Lets the serializer omit unchanged logs entirely — a real log can never
/// retain `u32::MAX` entries, so the value is unambiguous.
pub const KEEP_ALL: u32 = u32::MAX;

impl<T> LogDelta<T> {
    /// The identity edit: keep the previous log unchanged.
    pub fn keep_all() -> Self {
        LogDelta {
            drop_front: 0,
            keep: KEEP_ALL,
            append: Vec::new(),
        }
    }

    /// Whether this is the identity edit (serializers omit these).
    pub fn is_keep_all(&self) -> bool {
        self.drop_front == 0 && self.keep == KEEP_ALL && self.append.is_empty()
    }
}

/// The edits turning one cluster image into the next round's image.
///
/// Produced by [`CheckpointDelta::between`] and consumed by
/// [`Checkpoint::apply_delta`]; serialization lives next to the checkpoint
/// codecs in `dvs_core::artifact` (kind `tw_checkpoint_delta`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CheckpointDelta {
    /// Layout version ([`CHECKPOINT_SCHEMA`]).
    pub schema: u32,
    /// The cluster this delta belongs to.
    pub cluster: u32,
    /// GVT of the image this delta applies on top of.
    pub base_gvt: VTime,
    /// GVT of the image this delta reconstructs.
    pub gvt: VTime,
    /// Net-value edits.
    pub values: ValuesDelta,
    /// Sort keys `(time, order)` of pending events removed since the
    /// previous image (sorted). Keys alone identify the victims — the full
    /// event payload lives in the base image, so shipping it again would
    /// only inflate the delta.
    pub pending_removed: Vec<(VTime, u64)>,
    /// Pending events added since the previous image (sorted).
    pub pending_added: Vec<CkptEvent>,
    /// Window-plus-append edit of the processed history.
    pub processed: LogDelta<CkptEvent>,
    /// Window-plus-append edit of the undo log.
    pub undo: LogDelta<(VTime, u32, Logic)>,
    /// Window-plus-append edit of the output log.
    pub outlog: LogDelta<(VTime, TwMessage)>,
    /// Replacement stimulus cursor.
    pub stim_cycle: u64,
    /// Replacement local clock.
    pub last_time: VTime,
    /// Replacement settling flag.
    pub settled: bool,
    /// Replacement tie-break cursor.
    pub order: u64,
    /// Replacement message sequence cursor.
    pub mseq: u64,
    /// Replacement statistics.
    pub stats: SimStats,
}

/// Diff the pending-event sets, identifying removals by their `(time,
/// order)` sort key only. The key is unique within an image (it is the
/// queue's total order), so the base image already holds everything needed
/// to locate a victim — the delta ships ~16 bytes per removal instead of a
/// full event. A key present in both images with a different payload is a
/// remove-then-add.
fn pending_delta(prev: &[CkptEvent], next: &[CkptEvent]) -> (Vec<(VTime, u64)>, Vec<CkptEvent>) {
    let key = |e: &CkptEvent| (e.time, e.order);
    let mut removed = Vec::new();
    let mut added = Vec::new();
    let (mut i, mut j) = (0, 0);
    while i < prev.len() && j < next.len() {
        match key(&prev[i]).cmp(&key(&next[j])) {
            std::cmp::Ordering::Less => {
                removed.push(key(&prev[i]));
                i += 1;
            }
            std::cmp::Ordering::Greater => {
                added.push(next[j]);
                j += 1;
            }
            std::cmp::Ordering::Equal => {
                if prev[i] != next[j] {
                    removed.push(key(&prev[i]));
                    added.push(next[j]);
                }
                i += 1;
                j += 1;
            }
        }
    }
    removed.extend(prev[i..].iter().map(key));
    added.extend(next[j..].iter().cloned());
    (removed, added)
}

/// Apply a pending-set edit: drop every event whose `(time, order)` key is
/// listed in `removed` (each key must match exactly one base event), then
/// merge `added` back in without key collisions.
fn pending_apply(
    prev: &[CkptEvent],
    removed: &[(VTime, u64)],
    added: &[CkptEvent],
) -> Result<Vec<CkptEvent>, DeltaError> {
    let key = |e: &CkptEvent| (e.time, e.order);
    let mut kept = Vec::with_capacity(prev.len().saturating_sub(removed.len()) + added.len());
    let mut ri = 0;
    for x in prev {
        if ri < removed.len() && removed[ri] == key(x) {
            ri += 1;
        } else {
            kept.push(*x);
        }
    }
    if ri != removed.len() {
        return Err(DeltaError::Corrupt(format!(
            "pending: removed key {:?} not present in base",
            removed[ri]
        )));
    }
    let mut out = Vec::with_capacity(kept.len() + added.len());
    let (mut i, mut j) = (0, 0);
    while i < kept.len() && j < added.len() {
        match key(&kept[i]).cmp(&key(&added[j])) {
            std::cmp::Ordering::Less => {
                out.push(kept[i]);
                i += 1;
            }
            std::cmp::Ordering::Greater => {
                out.push(added[j]);
                j += 1;
            }
            std::cmp::Ordering::Equal => {
                return Err(DeltaError::Corrupt(format!(
                    "pending: added event key {:?} collides with base",
                    key(&added[j])
                )));
            }
        }
    }
    out.extend(kept[i..].iter().cloned());
    out.extend(added[j..].iter().cloned());
    Ok(out)
}

/// Compute the window-plus-append edit for a log-like field: the largest
/// contiguous window of `prev` that is a prefix of `next`, everything after
/// it appended verbatim. Smallest `drop_front` wins ties so identical
/// inputs always produce the identical delta. An unchanged log collapses to
/// the [`KEEP_ALL`] identity edit, which serializers omit entirely.
fn log_delta<T: Clone + PartialEq>(prev: &[T], next: &[T]) -> LogDelta<T> {
    if prev == next {
        return LogDelta::keep_all();
    }
    let mut best_drop = 0usize;
    let mut best_keep = 0usize;
    for drop in 0..=prev.len() {
        let max = (prev.len() - drop).min(next.len());
        let mut l = 0;
        while l < max && prev[drop + l] == next[l] {
            l += 1;
        }
        if l > best_keep {
            best_keep = l;
            best_drop = drop;
            if best_keep == next.len() {
                break;
            }
        }
    }
    if best_keep == 0 {
        best_drop = 0;
    }
    LogDelta {
        drop_front: best_drop as u32,
        keep: best_keep as u32,
        append: next[best_keep..].to_vec(),
    }
}

/// Apply a window-plus-append edit, bounds-checked against the base log.
/// The [`KEEP_ALL`] sentinel returns the base log verbatim.
fn log_apply<T: Clone>(prev: &[T], d: &LogDelta<T>, field: &str) -> Result<Vec<T>, DeltaError> {
    if d.keep == KEEP_ALL {
        if d.drop_front != 0 || !d.append.is_empty() {
            return Err(DeltaError::Corrupt(format!(
                "{field}: keep-all sentinel with drop {} and {} appended",
                d.drop_front,
                d.append.len()
            )));
        }
        return Ok(prev.to_vec());
    }
    let drop = d.drop_front as usize;
    let keep = d.keep as usize;
    let end = drop.checked_add(keep).filter(|&e| e <= prev.len());
    let Some(end) = end else {
        return Err(DeltaError::Corrupt(format!(
            "{field}: window {drop}+{keep} exceeds base length {}",
            prev.len()
        )));
    };
    let mut out = prev[drop..end].to_vec();
    out.extend(d.append.iter().cloned());
    Ok(out)
}

/// Diff the net-value vectors. Sparse runs are used while fewer than a
/// quarter of the nets changed; beyond that a full replacement is at least
/// as compact once run headers are paid for. The threshold is part of the
/// deterministic capture contract — do not make it adaptive.
fn values_delta(prev: &[Logic], next: &[Logic]) -> ValuesDelta {
    if prev.len() != next.len() {
        return ValuesDelta::Full(next.to_vec());
    }
    let changed = prev.iter().zip(next).filter(|(a, b)| a != b).count();
    if changed * 4 >= next.len() {
        return ValuesDelta::Full(next.to_vec());
    }
    let mut runs = Vec::new();
    let mut i = 0;
    while i < next.len() {
        if prev[i] != next[i] {
            let start = i;
            while i < next.len() && prev[i] != next[i] {
                i += 1;
            }
            runs.push((start as u32, next[start..i].to_vec()));
        } else {
            i += 1;
        }
    }
    ValuesDelta::Runs(runs)
}

/// Apply a net-value edit, bounds-checked against the base vector.
fn values_apply(prev: &[Logic], d: &ValuesDelta) -> Result<Vec<Logic>, DeltaError> {
    match d {
        ValuesDelta::Full(v) => Ok(v.clone()),
        ValuesDelta::Runs(runs) => {
            let mut out = prev.to_vec();
            for (start, vals) in runs {
                let s = *start as usize;
                let end = s.checked_add(vals.len()).filter(|&e| e <= out.len());
                let Some(end) = end else {
                    return Err(DeltaError::Corrupt(format!(
                        "values: run at {s} of length {} exceeds {} nets",
                        vals.len(),
                        out.len()
                    )));
                };
                out[s..end].clone_from_slice(vals);
            }
            Ok(out)
        }
    }
}

impl CheckpointDelta {
    /// The edit script turning `prev` into `next`. Both images must belong
    /// to the same cluster and schema — diffing unrelated images is a
    /// caller bug, not a recoverable condition.
    pub fn between(prev: &Checkpoint, next: &Checkpoint) -> CheckpointDelta {
        assert_eq!(prev.cluster, next.cluster, "delta across clusters");
        assert_eq!(prev.schema, next.schema, "delta across schemas");
        let (pending_removed, pending_added) = pending_delta(&prev.pending, &next.pending);
        CheckpointDelta {
            schema: next.schema,
            cluster: next.cluster,
            base_gvt: prev.gvt,
            gvt: next.gvt,
            values: values_delta(&prev.values, &next.values),
            pending_removed,
            pending_added,
            processed: log_delta(&prev.processed, &next.processed),
            undo: log_delta(&prev.undo, &next.undo),
            outlog: log_delta(&prev.outlog, &next.outlog),
            stim_cycle: next.stim_cycle,
            last_time: next.last_time,
            settled: next.settled,
            order: next.order,
            mseq: next.mseq,
            stats: next.stats.clone(),
        }
    }
}

impl CheckpointDelta {
    /// Test hook for the corrupt-restore fallback: mangle this delta so
    /// that applying it fails with [`DeltaError::Corrupt`] — an
    /// out-of-bounds net-value run, the signature of retained state that
    /// rotted in memory or on disk. The structural envelope (schema,
    /// cluster, chain link) stays valid, so the corruption is only caught
    /// where a real one would be: inside [`Checkpoint::apply_delta`].
    pub(crate) fn poison(&mut self) {
        self.values = ValuesDelta::Runs(vec![(u32::MAX, vec![Logic::X])]);
    }
}

impl Checkpoint {
    /// Reconstruct the next round's image from this one plus its delta.
    /// Exact inverse of [`CheckpointDelta::between`]: `prev.apply_delta(
    /// &CheckpointDelta::between(&prev, &next)) == Ok(next)`.
    pub fn apply_delta(&self, d: &CheckpointDelta) -> Result<Checkpoint, DeltaError> {
        if d.schema != self.schema {
            return Err(DeltaError::SchemaMismatch {
                expected: self.schema,
                got: d.schema,
            });
        }
        if d.cluster != self.cluster {
            return Err(DeltaError::ClusterMismatch {
                expected: self.cluster,
                got: d.cluster,
            });
        }
        if d.base_gvt != self.gvt {
            return Err(DeltaError::ChainMismatch {
                expected: self.gvt,
                got: d.base_gvt,
            });
        }
        Ok(Checkpoint {
            schema: self.schema,
            cluster: self.cluster,
            gvt: d.gvt,
            values: values_apply(&self.values, &d.values)?,
            pending: pending_apply(&self.pending, &d.pending_removed, &d.pending_added)?,
            processed: log_apply(&self.processed, &d.processed, "processed")?,
            undo: log_apply(&self.undo, &d.undo, "undo")?,
            outlog: log_apply(&self.outlog, &d.outlog, "outlog")?,
            stim_cycle: d.stim_cycle,
            last_time: d.last_time,
            settled: d.settled,
            order: d.order,
            mseq: d.mseq,
            stats: d.stats.clone(),
        })
    }

    /// Fold a whole delta chain onto this base image, validating every
    /// link. An empty chain returns the base unchanged.
    pub fn apply_chain(&self, deltas: &[CheckpointDelta]) -> Result<Checkpoint, DeltaError> {
        let mut cur = self.clone();
        for d in deltas {
            cur = cur.apply_delta(d)?;
        }
        Ok(cur)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn log_delta_handles_drain_truncate_and_append() {
        // Fossil drained two from the front, rollback dropped one from the
        // back, two new entries appended.
        let prev = vec![1u32, 2, 3, 4, 5];
        let next = vec![3u32, 4, 8, 9];
        let d = log_delta(&prev, &next);
        assert_eq!((d.drop_front, d.keep), (2, 2));
        assert_eq!(d.append, vec![8, 9]);
        assert_eq!(log_apply(&prev, &d, "t").unwrap(), next);
    }

    #[test]
    fn log_delta_degenerates_to_replacement_without_overlap() {
        let prev = vec![1u32, 2, 3];
        let next = vec![7u32, 8];
        let d = log_delta(&prev, &next);
        assert_eq!((d.drop_front, d.keep), (0, 0));
        assert_eq!(log_apply(&prev, &d, "t").unwrap(), next);
    }

    #[test]
    fn log_apply_rejects_oversized_window() {
        let prev = vec![1u32, 2];
        let d = LogDelta {
            drop_front: 1,
            keep: 3,
            append: vec![],
        };
        assert!(matches!(
            log_apply(&prev, &d, "t"),
            Err(DeltaError::Corrupt(_))
        ));
    }

    #[test]
    fn log_delta_identity_collapses_to_keep_all_sentinel() {
        let log = vec![1u32, 2, 3];
        let d = log_delta(&log, &log);
        assert!(d.is_keep_all());
        assert_eq!(log_apply(&log, &d, "t").unwrap(), log);
        // The sentinel is unambiguous: any payload next to it is corruption.
        let bad = LogDelta {
            drop_front: 1,
            keep: KEEP_ALL,
            append: Vec::<u32>::new(),
        };
        assert!(matches!(
            log_apply(&log, &bad, "t"),
            Err(DeltaError::Corrupt(_))
        ));
    }

    #[test]
    fn pending_delta_ships_keys_only_and_round_trips() {
        let ev = |time: VTime, order: u64, net: u32| CkptEvent {
            time,
            net,
            value: Logic::One,
            source: CkptSource::Stimulus,
            order,
        };
        let prev = vec![ev(0, 1, 10), ev(5, 2, 11), ev(5, 3, 12)];
        let next = vec![ev(5, 3, 12), ev(7, 4, 13)];
        let (removed, added) = pending_delta(&prev, &next);
        assert_eq!(removed, vec![(0, 1), (5, 2)]);
        assert_eq!(added, vec![ev(7, 4, 13)]);
        assert_eq!(pending_apply(&prev, &removed, &added).unwrap(), next);
        // A key absent from the base is corruption, not a silent no-op.
        assert!(matches!(
            pending_apply(&prev, &[(9, 9)], &[]),
            Err(DeltaError::Corrupt(_))
        ));
        // Same key, different payload: remove-then-add by key.
        let repl = vec![ev(0, 1, 10), ev(5, 2, 99), ev(5, 3, 12)];
        let (removed, added) = pending_delta(&prev, &repl);
        assert_eq!(removed, vec![(5, 2)]);
        assert_eq!(added, vec![ev(5, 2, 99)]);
        assert_eq!(pending_apply(&prev, &removed, &added).unwrap(), repl);
    }

    #[test]
    fn values_delta_prefers_runs_when_sparse_and_full_when_dense() {
        let prev: Vec<Logic> = vec![Logic::Zero; 40];
        let mut next = prev.clone();
        next[3] = Logic::One;
        next[4] = Logic::One;
        next[20] = Logic::X;
        match values_delta(&prev, &next) {
            ValuesDelta::Runs(runs) => assert_eq!(runs.len(), 2),
            ValuesDelta::Full(_) => panic!("sparse change must use runs"),
        }
        assert_eq!(
            values_apply(&prev, &values_delta(&prev, &next)).unwrap(),
            next
        );
        let dense: Vec<Logic> = vec![Logic::One; 40];
        assert!(matches!(values_delta(&prev, &dense), ValuesDelta::Full(_)));
    }
}
