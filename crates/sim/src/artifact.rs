//! JSON serialization of simulation-level run artifacts.
//!
//! Each crate owns the artifact serialization of its own types (the orphan
//! rule requires it once the JSON traits live in the shared `dvs-json`
//! crate): this module covers simulation statistics, Time Warp run
//! results, recovery provenance, and the schema-versioned [`Checkpoint`]
//! image. The checkpoint serialization doubles as the **wire format** of
//! the process transport ([`crate::timewarp::Transport::Process`]) — a
//! respawned worker is restored from exactly these bytes, which is why the
//! round-trip must be lossless and the capture deterministic.
//!
//! Flow-level artifact assembly (reports, presim points) stays in
//! `dvs_core::artifact`; netlist statistics serialize in
//! `dvs_verilog::artifact`.

use crate::cluster_model::{ClusterRun, RunTiming};
use crate::stats::SimStats;
use crate::timewarp::{
    Checkpoint, CheckpointDelta, CkptEvent, CkptSource, LogDelta, RecoveryOutcome, TwMessage,
    TwRunResult, ValuesDelta, CHECKPOINT_SCHEMA,
};
use crate::wheel::NetEvent;
use crate::wheel::VTime;
use crate::Logic;
use dvs_json::{
    uint_array, uint_vec, FromJson, Json, JsonError, ObjBuilder, ToJson, SCHEMA_VERSION,
};
use dvs_verilog::netlist::NetId;

/// A logic-value vector as a compact display-char string (`"01xz…"`).
pub(crate) fn logic_str(values: &[Logic]) -> String {
    values.iter().map(|v| v.display_char()).collect()
}

pub(crate) fn logic_vec(v: &Json) -> Result<Vec<Logic>, JsonError> {
    v.as_str()?
        .chars()
        .map(|c| {
            Logic::from_display_char(c)
                .ok_or_else(|| JsonError::new(format!("invalid logic value character `{c}`")))
        })
        .collect()
}

pub(crate) fn logic_from_json(v: &Json) -> Result<Logic, JsonError> {
    let s = v.as_str()?;
    let mut chars = s.chars();
    match (
        chars.next().and_then(Logic::from_display_char),
        chars.next(),
    ) {
        (Some(l), None) => Ok(l),
        _ => Err(JsonError::new(format!("invalid logic value `{s}`"))),
    }
}

impl ToJson for SimStats {
    fn to_json(&self) -> Json {
        ObjBuilder::new()
            .uint("events", self.events)
            .uint("gate_evals", self.gate_evals)
            .uint("net_toggles", self.net_toggles)
            .uint("cycles", self.cycles)
            .uint("end_time", self.end_time)
            .uint("messages", self.messages)
            .uint("anti_messages", self.anti_messages)
            .uint("rollbacks", self.rollbacks)
            .uint("rolled_back_events", self.rolled_back_events)
            .uint("gvt_rounds", self.gvt_rounds)
            .uint("fossil_collected", self.fossil_collected)
            .build()
    }
}

impl FromJson for SimStats {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        Ok(SimStats {
            events: v.field("events")?.as_u64()?,
            gate_evals: v.field("gate_evals")?.as_u64()?,
            net_toggles: v.field("net_toggles")?.as_u64()?,
            cycles: v.field("cycles")?.as_u64()?,
            end_time: v.field("end_time")?.as_u64()?,
            messages: v.field("messages")?.as_u64()?,
            anti_messages: v.field("anti_messages")?.as_u64()?,
            rollbacks: v.field("rollbacks")?.as_u64()?,
            rolled_back_events: v.field("rolled_back_events")?.as_u64()?,
            gvt_rounds: v.field("gvt_rounds")?.as_u64()?,
            fossil_collected: v.field("fossil_collected")?.as_u64()?,
        })
    }
}

impl ToJson for RunTiming {
    fn to_json(&self) -> Json {
        ObjBuilder::new()
            .float("profile_seconds", self.profile_seconds)
            .float("model_seconds", self.model_seconds)
            .build()
    }
}

/// The deterministic portion of a [`ClusterRun`] (everything except the
/// host-side [`RunTiming`]). Public so `dvs_core::artifact` can assemble
/// the canonical flow report from it.
pub fn cluster_run_core(run: &ClusterRun) -> ObjBuilder {
    ObjBuilder::new()
        .field("stats", run.stats.to_json())
        .float("wall_seconds", run.wall_seconds)
        .float("seq_seconds", run.seq_seconds)
        .float("speedup", run.speedup)
        .field("machine_events", uint_array(&run.machine_events))
        .field("machine_rollbacks", uint_array(&run.machine_rollbacks))
        .field("machine_messages", uint_array(&run.machine_messages))
}

impl ToJson for ClusterRun {
    fn to_json(&self) -> Json {
        cluster_run_core(self)
            .field("timing", self.timing.to_json())
            .build()
    }
}

impl ToJson for RecoveryOutcome {
    fn to_json(&self) -> Json {
        ObjBuilder::new()
            .uint("crashes", self.crashes as u64)
            .uint("restarts", self.restarts as u64)
            .uint("replayed_ops", self.replayed_ops)
            .field(
                "victims",
                uint_array(&self.victims.iter().map(|&c| c as u64).collect::<Vec<_>>()),
            )
            .uint("checkpoint_bytes_full", self.checkpoint_bytes_full)
            .uint("checkpoint_bytes_delta", self.checkpoint_bytes_delta)
            .uint("corrupt_frames", self.corrupt_frames)
            .uint("heartbeats_missed", self.heartbeats_missed)
            .uint("chaos_faults_injected", self.chaos_faults_injected)
            .uint("messages_sent", self.messages_sent)
            .uint("frames_sent", self.frames_sent)
            .bool("degraded", self.degraded)
            .build()
    }
}

/// The simulation content of a Time Warp run — everything except the
/// recovery provenance.
fn tw_run_core(r: &TwRunResult) -> ObjBuilder {
    ObjBuilder::new()
        .field("stats", r.stats.to_json())
        .array(
            "cluster_stats",
            r.cluster_stats.iter().map(|s| s.to_json()).collect(),
        )
        .uint("gvt_rounds", r.gvt_rounds)
        .str("values", &logic_str(&r.values))
}

/// The **canonical** serialization of a Time Warp run: simulation content
/// only, recovery provenance excluded. Under the deterministic transports
/// ([`crate::timewarp::Transport::InProc`] and
/// [`crate::timewarp::Transport::Process`]) every included field is an
/// exact counter, and recovery restores the pre-crash state bit-for-bit —
/// so a run that crashed and recovered emits a canonical artifact
/// byte-identical to the undisturbed run's, *on either transport*. The
/// crash-recovery DST tests and the process kill harness assert exactly
/// that.
pub fn tw_run_canonical_json(r: &TwRunResult) -> Json {
    tw_run_core(r).build()
}

impl ToJson for TwRunResult {
    /// The full serialization: the canonical simulation content plus the
    /// `recovery` provenance block (crashes injected, restarts performed,
    /// operations replayed, victim clusters, degradation flag). Use
    /// [`tw_run_canonical_json`] for crash-invariant comparisons.
    fn to_json(&self) -> Json {
        tw_run_core(self)
            .field("recovery", self.recovery.to_json())
            .build()
    }
}

fn ckpt_source_json(s: &CkptSource) -> Json {
    match *s {
        CkptSource::Stimulus => ObjBuilder::new().str("kind", "stimulus").build(),
        CkptSource::Local { created_at } => ObjBuilder::new()
            .str("kind", "local")
            .uint("created_at", created_at)
            .build(),
        CkptSource::Remote { src, seq } => ObjBuilder::new()
            .str("kind", "remote")
            .uint("src", src as u64)
            .uint("seq", seq)
            .build(),
    }
}

fn ckpt_source_from_json(v: &Json) -> Result<CkptSource, JsonError> {
    match v.field("kind")?.as_str()? {
        "stimulus" => Ok(CkptSource::Stimulus),
        "local" => Ok(CkptSource::Local {
            created_at: v.field("created_at")?.as_u64()?,
        }),
        "remote" => Ok(CkptSource::Remote {
            src: v.field("src")?.as_u64()? as u32,
            seq: v.field("seq")?.as_u64()?,
        }),
        k => Err(JsonError::new(format!("unknown event source kind `{k}`"))),
    }
}

impl ToJson for CkptEvent {
    fn to_json(&self) -> Json {
        ObjBuilder::new()
            .uint("time", self.time)
            .uint("net", self.net as u64)
            .str("value", &self.value.display_char().to_string())
            .field("source", ckpt_source_json(&self.source))
            .uint("order", self.order)
            .build()
    }
}

impl FromJson for CkptEvent {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        Ok(CkptEvent {
            time: v.field("time")?.as_u64()?,
            net: v.field("net")?.as_u64()? as u32,
            value: logic_from_json(v.field("value")?)?,
            source: ckpt_source_from_json(v.field("source")?)?,
            order: v.field("order")?.as_u64()?,
        })
    }
}

impl ToJson for TwMessage {
    fn to_json(&self) -> Json {
        ObjBuilder::new()
            .uint("src", self.src as u64)
            .uint("dst", self.dst as u64)
            .uint("seq", self.seq)
            .uint("time", self.ev.time)
            .uint("net", self.ev.net.0 as u64)
            .str("value", &self.ev.value.display_char().to_string())
            .bool("anti", self.anti)
            .build()
    }
}

impl FromJson for TwMessage {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        Ok(TwMessage {
            src: v.field("src")?.as_u64()? as u32,
            dst: v.field("dst")?.as_u64()? as u32,
            seq: v.field("seq")?.as_u64()?,
            ev: NetEvent {
                time: v.field("time")?.as_u64()?,
                net: NetId(v.field("net")?.as_u64()? as u32),
                value: logic_from_json(v.field("value")?)?,
            },
            anti: v.field("anti")?.as_bool()?,
        })
    }
}

impl ToJson for Checkpoint {
    /// Schema-versioned checkpoint artifact (`kind: "tw_checkpoint"`). The
    /// capture is deterministic (nondeterministic collections are sorted
    /// when the image is taken), so equal cluster states serialize to
    /// byte-identical artifacts and the round-trip through [`FromJson`] is
    /// lossless — the `checkpoint_roundtrip` suite asserts both. These are
    /// the exact bytes the process transport ships in `Restore` frames.
    fn to_json(&self) -> Json {
        ObjBuilder::new()
            .int("schema_version", SCHEMA_VERSION)
            .str("kind", "tw_checkpoint")
            .uint("checkpoint_schema", self.schema as u64)
            .uint("cluster", self.cluster as u64)
            .uint("gvt", self.gvt)
            .str("values", &logic_str(&self.values))
            .array(
                "pending",
                self.pending.iter().map(|e| e.to_json()).collect(),
            )
            .array(
                "processed",
                self.processed.iter().map(|e| e.to_json()).collect(),
            )
            .array(
                "undo",
                self.undo
                    .iter()
                    .map(|&(t, net, val)| {
                        Json::Array(vec![
                            Json::Int(t as i64),
                            Json::Int(net as i64),
                            Json::Str(val.display_char().to_string()),
                        ])
                    })
                    .collect(),
            )
            .array(
                "outlog",
                self.outlog
                    .iter()
                    .map(|(t, m)| Json::Array(vec![Json::Int(*t as i64), m.to_json()]))
                    .collect(),
            )
            .uint("stim_cycle", self.stim_cycle)
            .uint("last_time", self.last_time)
            .bool("settled", self.settled)
            .uint("order", self.order)
            .uint("mseq", self.mseq)
            .field("stats", self.stats.to_json())
            .build()
    }
}

pub(crate) fn uint_pair(v: &Json) -> Result<(u64, u64), JsonError> {
    let pair = uint_vec(v)?;
    match pair.as_slice() {
        &[a, b] => Ok((a, b)),
        other => Err(JsonError::new(format!(
            "expected a 2-element array, got {} elements",
            other.len()
        ))),
    }
}

impl FromJson for Checkpoint {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        let version = v.field("schema_version")?.as_i64()?;
        if version != SCHEMA_VERSION {
            return Err(JsonError::new(format!(
                "unsupported schema_version {version} (expected {SCHEMA_VERSION})"
            )));
        }
        let kind = v.field("kind")?.as_str()?;
        if kind != "tw_checkpoint" {
            return Err(JsonError::new(format!(
                "expected kind `tw_checkpoint`, got `{kind}`"
            )));
        }
        let schema = v.field("checkpoint_schema")?.as_u64()? as u32;
        if schema != CHECKPOINT_SCHEMA {
            return Err(JsonError::new(format!(
                "unsupported checkpoint_schema {schema} (expected {CHECKPOINT_SCHEMA})"
            )));
        }
        let events = |key: &str| -> Result<Vec<CkptEvent>, JsonError> {
            v.field(key)?
                .as_array()?
                .iter()
                .map(CkptEvent::from_json)
                .collect()
        };
        Ok(Checkpoint {
            schema,
            cluster: v.field("cluster")?.as_u64()? as u32,
            gvt: v.field("gvt")?.as_u64()?,
            values: logic_vec(v.field("values")?)?,
            pending: events("pending")?,
            processed: events("processed")?,
            undo: v
                .field("undo")?
                .as_array()?
                .iter()
                .map(|u| {
                    let parts = u.as_array()?;
                    match parts {
                        [t, net, val] => {
                            Ok((t.as_u64()?, net.as_u64()? as u32, logic_from_json(val)?))
                        }
                        _ => Err(JsonError::new("undo entry must be [time, net, value]")),
                    }
                })
                .collect::<Result<_, _>>()?,
            outlog: v
                .field("outlog")?
                .as_array()?
                .iter()
                .map(|o| {
                    let parts = o.as_array()?;
                    match parts {
                        [t, m] => Ok((t.as_u64()?, TwMessage::from_json(m)?)),
                        _ => Err(JsonError::new("outlog entry must be [time, message]")),
                    }
                })
                .collect::<Result<_, _>>()?,
            stim_cycle: v.field("stim_cycle")?.as_u64()?,
            last_time: v.field("last_time")?.as_u64()?,
            settled: v.field("settled")?.as_bool()?,
            order: v.field("order")?.as_u64()?,
            mseq: v.field("mseq")?.as_u64()?,
            stats: SimStats::from_json(v.field("stats")?)?,
        })
    }
}

// --- delta checkpoint codec -------------------------------------------------

fn undo_entry_json(&(t, net, val): &(VTime, u32, Logic)) -> Json {
    Json::Array(vec![
        Json::Int(t as i64),
        Json::Int(net as i64),
        Json::Str(val.display_char().to_string()),
    ])
}

fn undo_entry_from(u: &Json) -> Result<(VTime, u32, Logic), JsonError> {
    match u.as_array()? {
        [t, net, val] => Ok((t.as_u64()?, net.as_u64()? as u32, logic_from_json(val)?)),
        _ => Err(JsonError::new("undo entry must be [time, net, value]")),
    }
}

/// Compact array form of a [`CkptEvent`] used only inside delta artifacts,
/// where events are the bulk of the payload: `[time, net, "v", order]` for
/// stimulus events, plus a `"l", created_at` or `"r", src, seq` tail for
/// local and remote ones. The full-image codec keeps the verbose
/// object form — images are shipped rarely, deltas every round.
fn ckpt_event_compact_json(e: &CkptEvent) -> Json {
    let mut a = vec![
        Json::Int(e.time as i64),
        Json::Int(e.net as i64),
        Json::Str(e.value.display_char().to_string()),
        Json::Int(e.order as i64),
    ];
    match e.source {
        CkptSource::Stimulus => {}
        CkptSource::Local { created_at } => {
            a.push(Json::Str("l".into()));
            a.push(Json::Int(created_at as i64));
        }
        CkptSource::Remote { src, seq } => {
            a.push(Json::Str("r".into()));
            a.push(Json::Int(src as i64));
            a.push(Json::Int(seq as i64));
        }
    }
    Json::Array(a)
}

fn ckpt_event_compact_from(v: &Json) -> Result<CkptEvent, JsonError> {
    let a = v.as_array()?;
    let source = match a {
        [_, _, _, _] => CkptSource::Stimulus,
        [_, _, _, _, tag, created_at] if tag.as_str()? == "l" => CkptSource::Local {
            created_at: created_at.as_u64()?,
        },
        [_, _, _, _, tag, src, seq] if tag.as_str()? == "r" => CkptSource::Remote {
            src: src.as_u64()? as u32,
            seq: seq.as_u64()?,
        },
        _ => {
            return Err(JsonError::new(
                "compact event must be [time, net, value, order, source...]",
            ))
        }
    };
    Ok(CkptEvent {
        time: a[0].as_u64()?,
        net: a[1].as_u64()? as u32,
        value: logic_from_json(&a[2])?,
        source,
        order: a[3].as_u64()?,
    })
}

/// Compact output-log entry for delta artifacts:
/// `[log_time, src, dst, seq, ev_time, net, "v", anti]`.
fn outlog_compact_json((t, m): &(VTime, TwMessage)) -> Json {
    Json::Array(vec![
        Json::Int(*t as i64),
        Json::Int(m.src as i64),
        Json::Int(m.dst as i64),
        Json::Int(m.seq as i64),
        Json::Int(m.ev.time as i64),
        Json::Int(m.ev.net.0 as i64),
        Json::Str(m.ev.value.display_char().to_string()),
        Json::Bool(m.anti),
    ])
}

fn outlog_compact_from(v: &Json) -> Result<(VTime, TwMessage), JsonError> {
    match v.as_array()? {
        [t, src, dst, seq, time, net, value, anti] => Ok((
            t.as_u64()?,
            TwMessage {
                src: src.as_u64()? as u32,
                dst: dst.as_u64()? as u32,
                seq: seq.as_u64()?,
                ev: NetEvent {
                    time: time.as_u64()?,
                    net: NetId(net.as_u64()? as u32),
                    value: logic_from_json(value)?,
                },
                anti: anti.as_bool()?,
            },
        )),
        _ => Err(JsonError::new(
            "compact outlog entry must be [t, src, dst, seq, time, net, value, anti]",
        )),
    }
}

fn log_delta_json<T>(d: &LogDelta<T>, enc: impl Fn(&T) -> Json) -> Json {
    ObjBuilder::new()
        .uint("drop", d.drop_front as u64)
        .uint("keep", d.keep as u64)
        .array("append", d.append.iter().map(enc).collect())
        .build()
}

fn log_delta_from<T>(
    v: &Json,
    dec: impl Fn(&Json) -> Result<T, JsonError>,
) -> Result<LogDelta<T>, JsonError> {
    Ok(LogDelta {
        drop_front: v.field("drop")?.as_u64()? as u32,
        keep: v.field("keep")?.as_u64()? as u32,
        append: v
            .field("append")?
            .as_array()?
            .iter()
            .map(dec)
            .collect::<Result<_, _>>()?,
    })
}

fn values_delta_json(d: &ValuesDelta) -> Json {
    match d {
        ValuesDelta::Full(vals) => ObjBuilder::new().str("full", &logic_str(vals)).build(),
        ValuesDelta::Runs(runs) => ObjBuilder::new()
            .array(
                "runs",
                runs.iter()
                    .map(|(start, vals)| {
                        Json::Array(vec![Json::Int(*start as i64), Json::Str(logic_str(vals))])
                    })
                    .collect(),
            )
            .build(),
    }
}

fn values_delta_from(v: &Json) -> Result<ValuesDelta, JsonError> {
    if let Some(full) = v.get("full") {
        return Ok(ValuesDelta::Full(logic_vec(full)?));
    }
    let runs = v
        .field("runs")?
        .as_array()?
        .iter()
        .map(|r| match r.as_array()? {
            [start, vals] => Ok((start.as_u64()? as u32, logic_vec(vals)?)),
            _ => Err(JsonError::new("values run must be [start, values]")),
        })
        .collect::<Result<_, _>>()?;
    Ok(ValuesDelta::Runs(runs))
}

impl ToJson for CheckpointDelta {
    /// Schema-versioned delta artifact (`kind: "tw_checkpoint_delta"`) —
    /// the edits against the previous round's image. Like the full image,
    /// the encoding is deterministic and lossless, and it doubles as the
    /// wire format: the process transport ships delta chains in `restore`
    /// frames and individual deltas in `ckpt_delta` replies.
    fn to_json(&self) -> Json {
        // No-change fields are omitted entirely — a delta's cost should
        // track what actually changed, not the number of fields in the
        // image. Absent set edits mean empty, an absent `values` field
        // means no net changed, and an absent log field is the `KEEP_ALL`
        // identity edit. The emission is still a deterministic function of
        // the delta, so byte-identity comparisons stay valid.
        let mut b = ObjBuilder::new()
            .int("schema_version", SCHEMA_VERSION)
            .str("kind", "tw_checkpoint_delta")
            .uint("checkpoint_schema", self.schema as u64)
            .uint("cluster", self.cluster as u64)
            .uint("base_gvt", self.base_gvt)
            .uint("gvt", self.gvt);
        let identity_values = matches!(&self.values, ValuesDelta::Runs(runs) if runs.is_empty());
        if !identity_values {
            b = b.field("values", values_delta_json(&self.values));
        }
        if !self.pending_removed.is_empty() {
            b = b.array(
                "pending_removed",
                self.pending_removed
                    .iter()
                    .map(|&(t, order)| uint_array(&[t, order]))
                    .collect(),
            );
        }
        if !self.pending_added.is_empty() {
            b = b.array(
                "pending_added",
                self.pending_added
                    .iter()
                    .map(ckpt_event_compact_json)
                    .collect(),
            );
        }
        if !self.processed.is_keep_all() {
            b = b.field(
                "processed",
                log_delta_json(&self.processed, ckpt_event_compact_json),
            );
        }
        if !self.undo.is_keep_all() {
            b = b.field("undo", log_delta_json(&self.undo, undo_entry_json));
        }
        if !self.outlog.is_keep_all() {
            b = b.field("outlog", log_delta_json(&self.outlog, outlog_compact_json));
        }
        b.uint("stim_cycle", self.stim_cycle)
            .uint("last_time", self.last_time)
            .bool("settled", self.settled)
            .uint("order", self.order)
            .uint("mseq", self.mseq)
            .field("stats", self.stats.to_json())
            .build()
    }
}

impl FromJson for CheckpointDelta {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        let version = v.field("schema_version")?.as_i64()?;
        if version != SCHEMA_VERSION {
            return Err(JsonError::new(format!(
                "unsupported schema_version {version} (expected {SCHEMA_VERSION})"
            )));
        }
        let kind = v.field("kind")?.as_str()?;
        if kind != "tw_checkpoint_delta" {
            return Err(JsonError::new(format!(
                "expected kind `tw_checkpoint_delta`, got `{kind}`"
            )));
        }
        let schema = v.field("checkpoint_schema")?.as_u64()? as u32;
        if schema != CHECKPOINT_SCHEMA {
            return Err(JsonError::new(format!(
                "unsupported checkpoint_schema {schema} (expected {CHECKPOINT_SCHEMA})"
            )));
        }
        // Absent fields are the no-change defaults the serializer elided:
        // empty set edits, the empty-runs values edit, `KEEP_ALL` log edits.
        fn log_opt<T>(
            v: &Json,
            key: &str,
            dec: impl Fn(&Json) -> Result<T, JsonError>,
        ) -> Result<LogDelta<T>, JsonError> {
            match v.get(key) {
                None => Ok(LogDelta::keep_all()),
                Some(d) => log_delta_from(d, dec),
            }
        }
        Ok(CheckpointDelta {
            schema,
            cluster: v.field("cluster")?.as_u64()? as u32,
            base_gvt: v.field("base_gvt")?.as_u64()?,
            gvt: v.field("gvt")?.as_u64()?,
            values: match v.get("values") {
                None => ValuesDelta::Runs(Vec::new()),
                Some(d) => values_delta_from(d)?,
            },
            pending_removed: match v.get("pending_removed") {
                None => Vec::new(),
                Some(a) => a
                    .as_array()?
                    .iter()
                    .map(uint_pair)
                    .collect::<Result<_, _>>()?,
            },
            pending_added: match v.get("pending_added") {
                None => Vec::new(),
                Some(a) => a
                    .as_array()?
                    .iter()
                    .map(ckpt_event_compact_from)
                    .collect::<Result<_, _>>()?,
            },
            processed: log_opt(v, "processed", ckpt_event_compact_from)?,
            undo: log_opt(v, "undo", undo_entry_from)?,
            outlog: log_opt(v, "outlog", outlog_compact_from)?,
            stim_cycle: v.field("stim_cycle")?.as_u64()?,
            last_time: v.field("last_time")?.as_u64()?,
            settled: v.field("settled")?.as_bool()?,
            order: v.field("order")?.as_u64()?,
            mseq: v.field("mseq")?.as_u64()?,
            stats: SimStats::from_json(v.field("stats")?)?,
        })
    }
}

/// The leading fields of an encoded [`Checkpoint`] or [`CheckpointDelta`]:
/// which of the two it is, and the schema, cluster and GVT it was captured
/// under.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct ImageEnvelope {
    pub delta: bool,
    pub schema: u32,
    pub cluster: u32,
    pub gvt: VTime,
}

/// Read the envelope of an encoded image without decoding its body — what
/// the wire supervisor checks on an image it only stores. Both codecs emit
/// the envelope first and it holds scalars only, so the first `,"gvt":` in
/// the text is its last member; everything up to that value is parsed as a
/// document of its own. `None` when `text` does not open with an envelope.
pub(crate) fn image_envelope(text: &str) -> Option<ImageEnvelope> {
    const LAST_KEY: &str = ",\"gvt\":";
    let value = text.find(LAST_KEY)? + LAST_KEY.len();
    let digits = text[value..].bytes().take_while(u8::is_ascii_digit).count();
    let head = Json::parse(&format!("{}}}", &text[..value + digits])).ok()?;
    let uint = |key: &str| head.get(key)?.as_u64().ok();
    Some(ImageEnvelope {
        delta: match head.get("kind")?.as_str().ok()? {
            "tw_checkpoint" => false,
            "tw_checkpoint_delta" => true,
            _ => return None,
        },
        schema: uint("checkpoint_schema")? as u32,
        cluster: uint("cluster")? as u32,
        gvt: uint("gvt")?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_stats() -> SimStats {
        SimStats {
            events: 101,
            gate_evals: 99,
            net_toggles: 55,
            cycles: 40,
            end_time: 400,
            messages: 12,
            anti_messages: 3,
            rollbacks: 2,
            rolled_back_events: 7,
            gvt_rounds: 9,
            fossil_collected: 88,
        }
    }

    #[test]
    fn sim_stats_round_trip_is_exact() {
        let s = sample_stats();
        let text = s.to_json().emit().unwrap();
        let back = SimStats::from_json(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(back, s);
    }

    #[test]
    fn sim_stats_missing_field_is_an_error() {
        let mut v = sample_stats().to_json();
        if let Json::Object(members) = &mut v {
            members.retain(|(k, _)| k != "rollbacks");
        }
        let err = SimStats::from_json(&v).unwrap_err();
        assert!(err.msg.contains("rollbacks"), "{err}");
    }

    fn sample_delta() -> CheckpointDelta {
        CheckpointDelta {
            schema: CHECKPOINT_SCHEMA,
            cluster: 2,
            base_gvt: 120,
            gvt: 140,
            values: ValuesDelta::Runs(vec![
                (3, vec![Logic::One, Logic::Zero]),
                (9, vec![Logic::Z]),
            ]),
            pending_removed: vec![(121, 11)],
            pending_added: vec![CkptEvent {
                time: 144,
                net: 6,
                value: Logic::One,
                source: CkptSource::Remote { src: 1, seq: 9 },
                order: 31,
            }],
            processed: LogDelta {
                drop_front: 2,
                keep: 1,
                append: vec![CkptEvent {
                    time: 133,
                    net: 2,
                    value: Logic::Zero,
                    source: CkptSource::Local { created_at: 130 },
                    order: 19,
                }],
            },
            undo: LogDelta {
                drop_front: 0,
                keep: 0,
                append: vec![(131, 5, Logic::One)],
            },
            outlog: LogDelta {
                drop_front: 4,
                keep: 0,
                append: vec![(
                    139,
                    TwMessage {
                        src: 2,
                        dst: 0,
                        seq: 77,
                        ev: NetEvent {
                            time: 141,
                            net: NetId(12),
                            value: Logic::One,
                        },
                        anti: false,
                    },
                )],
            },
            stim_cycle: 14,
            last_time: 151,
            settled: true,
            order: 64,
            mseq: 78,
            stats: sample_stats(),
        }
    }

    /// The envelope is read off the head of the encoded image, whichever
    /// kind it is, without decoding the body — and not at all off a frame
    /// that is no image, or off an image cut short of its envelope.
    #[test]
    fn image_envelope_is_read_without_decoding_the_body() {
        let delta = sample_delta();
        let text = delta.to_json().emit().unwrap();
        let envelope = ImageEnvelope {
            delta: true,
            schema: CHECKPOINT_SCHEMA,
            cluster: 2,
            gvt: 140,
        };
        assert_eq!(image_envelope(&text), Some(envelope));
        // Only the head is looked at: a body that no longer parses, or
        // that mentions `"gvt"` again, does not matter.
        let mangled = format!("{},\"gvt\":7,]]", &text[..text.len() - 1]);
        assert_eq!(image_envelope(&mangled), Some(envelope));

        let base = delta.to_json().emit().unwrap();
        let base = base.replace("tw_checkpoint_delta", "tw_checkpoint");
        let base = base.replace("\"base_gvt\":120,", "");
        let envelope = ImageEnvelope {
            delta: false,
            ..envelope
        };
        assert_eq!(image_envelope(&base), Some(envelope));

        for not_an_image in [
            "{\"kind\":\"pong\"}",
            "{\"kind\":\"done\",\"lvt\":4,\"gvt\":9}",
            "{\"kind\":\"error\",\"detail\":\"no ,\\\"gvt\\\": here\"}",
            &text[..60],
            "",
        ] {
            assert_eq!(image_envelope(not_an_image), None, "{not_an_image}");
        }
    }

    #[test]
    fn checkpoint_delta_round_trip_is_exact() {
        let d = sample_delta();
        let text = d.to_json().emit().unwrap();
        let back = CheckpointDelta::from_json(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(back, d);

        // A dense edit serialises as a full-vector replacement and must
        // round-trip through the `full` arm too.
        let mut dense = d;
        dense.values = ValuesDelta::Full(vec![Logic::One, Logic::Z, Logic::X]);
        let text = dense.to_json().emit().unwrap();
        let back = CheckpointDelta::from_json(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(back, dense);
    }

    #[test]
    fn checkpoint_delta_elides_no_change_fields() {
        // A quiet round — nothing changed except the scalar cursors. The
        // emission must omit every set, values, and log field, and read
        // back as the same identity edits.
        let mut d = sample_delta();
        d.values = ValuesDelta::Runs(Vec::new());
        d.pending_removed.clear();
        d.pending_added.clear();
        d.processed = LogDelta::keep_all();
        d.undo = LogDelta::keep_all();
        d.outlog = LogDelta::keep_all();
        let v = d.to_json();
        for elided in [
            "values",
            "pending_removed",
            "pending_added",
            "processed",
            "undo",
            "outlog",
        ] {
            assert!(v.get(elided).is_none(), "`{elided}` should be elided");
        }
        let text = v.emit().unwrap();
        let back = CheckpointDelta::from_json(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(back, d);
    }

    #[test]
    fn checkpoint_delta_rejects_wrong_kind_and_schema() {
        let d = sample_delta();

        let mut v = d.to_json();
        if let Json::Object(members) = &mut v {
            for (k, val) in members.iter_mut() {
                if k == "kind" {
                    *val = Json::Str("tw_checkpoint".into());
                }
            }
        }
        let err = CheckpointDelta::from_json(&v).unwrap_err();
        assert!(err.msg.contains("tw_checkpoint_delta"), "{err}");

        // A future schema, schema 2 (which still carried the removed
        // snapshot keys) and schema 3 (tombstone sets and a schedule log).
        for schema in [999, 2, 3] {
            let mut v = d.to_json();
            if let Json::Object(members) = &mut v {
                for (k, val) in members.iter_mut() {
                    if k == "checkpoint_schema" {
                        *val = Json::Int(schema);
                    }
                }
            }
            let err = CheckpointDelta::from_json(&v).unwrap_err();
            assert!(err.msg.contains("checkpoint_schema"), "{err}");
        }
    }
}
