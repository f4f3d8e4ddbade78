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
    Checkpoint, CkptEvent, CkptSource, RecoveryOutcome, TwMessage, TwRunResult, CHECKPOINT_SCHEMA,
};
use crate::wheel::NetEvent;
use crate::wheel::VTime;
use crate::Logic;
use dvs_json::{uint_array, FromJson, Json, JsonError, ObjBuilder, ToJson, SCHEMA_VERSION};
use dvs_verilog::netlist::NetId;
use std::fmt::Write as _;

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
    /// This is the reference; a worker writes them with [`Checkpoint::to_text`].
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

impl Checkpoint {
    /// The canonical `tw_checkpoint` text — byte for byte what
    /// `self.to_json().emit()` produces — written straight into one
    /// pre-sized `String` without building the tree (bar the eleven
    /// counters of `stats`). This is what a worker emits for every image;
    /// the [`ToJson`] impl above stays the reference the tests and check
    /// mode hold it to.
    pub fn to_text(&self) -> String {
        let entries = self.pending.len() + self.processed.len() + self.outlog.len();
        let size = 512 + self.values.len() + 112 * entries + 24 * self.undo.len();
        let mut w = Text(String::with_capacity(size));
        w.raw("{\"schema_version\":").int(SCHEMA_VERSION);
        w.raw(",\"kind\":\"tw_checkpoint\",\"checkpoint_schema\":");
        w.uint(self.schema as u64);
        w.raw(",\"cluster\":").uint(self.cluster as u64);
        w.raw(",\"gvt\":").uint(self.gvt);
        w.raw(",\"values\":\"");
        w.0.extend(self.values.iter().map(|v| v.display_char()));
        w.raw("\",\"pending\":").list(&self.pending, Text::event);
        w.raw(",\"processed\":").list(&self.processed, Text::event);
        w.raw(",\"undo\":").list(&self.undo, |w, &(t, net, v)| {
            w.raw("[").int(t as i64).raw(",").int(net as i64);
            w.raw(",").logic(v).raw("]");
        });
        w.raw(",\"outlog\":").list(&self.outlog, |w, (t, m)| {
            w.raw("[").int(*t as i64).raw(",").message(m).raw("]");
        });
        w.raw(",\"stim_cycle\":").uint(self.stim_cycle);
        w.raw(",\"last_time\":").uint(self.last_time);
        w.raw(",\"settled\":").bool(self.settled);
        w.raw(",\"order\":").uint(self.order);
        w.raw(",\"mseq\":").uint(self.mseq);
        let stats = self.stats.to_json().emit().expect("counters emit");
        w.raw(",\"stats\":").raw(&stats).raw("}");
        w.0
    }
}

/// The writer behind [`Checkpoint::to_text`]: each method appends what
/// [`Json::emit`] writes for the tree node the matching [`ToJson`] impl
/// builds.
struct Text(String);

impl Text {
    fn raw(&mut self, s: &str) -> &mut Self {
        self.0.push_str(s);
        self
    }

    /// `Json::Int`'s spelling (given an `i64`).
    fn int(&mut self, v: impl std::fmt::Display) -> &mut Self {
        write!(self.0, "{v}").expect("a String takes any write");
        self
    }

    /// [`dvs_json::uint_json`]'s spelling: a bare integer up to `i64::MAX`,
    /// a decimal string above.
    fn uint(&mut self, v: u64) -> &mut Self {
        match i64::try_from(v) {
            Ok(i) => self.int(i),
            Err(_) => self.raw("\"").int(v).raw("\""),
        }
    }

    fn bool(&mut self, b: bool) -> &mut Self {
        self.raw(if b { "true" } else { "false" })
    }

    fn logic(&mut self, v: Logic) -> &mut Self {
        self.0.extend(['"', v.display_char(), '"']);
        self
    }

    fn list<T>(&mut self, items: &[T], mut each: impl FnMut(&mut Self, &T)) -> &mut Self {
        self.0.push('[');
        for (i, item) in items.iter().enumerate() {
            each(self.raw(if i > 0 { "," } else { "" }), item);
        }
        self.raw("]")
    }

    fn event(&mut self, e: &CkptEvent) {
        self.raw("{\"time\":").uint(e.time);
        self.raw(",\"net\":").uint(e.net as u64);
        self.raw(",\"value\":").logic(e.value);
        match e.source {
            CkptSource::Stimulus => self.raw(",\"source\":{\"kind\":\"stimulus\""),
            CkptSource::Local { created_at } => {
                self.raw(",\"source\":{\"kind\":\"local\",\"created_at\":");
                self.uint(created_at)
            }
            CkptSource::Remote { src, seq } => {
                self.raw(",\"source\":{\"kind\":\"remote\",\"src\":");
                self.uint(src as u64).raw(",\"seq\":").uint(seq)
            }
        };
        self.raw("},\"order\":").uint(e.order).raw("}");
    }

    fn message(&mut self, m: &TwMessage) -> &mut Self {
        self.raw("{\"src\":").uint(m.src as u64);
        self.raw(",\"dst\":").uint(m.dst as u64);
        self.raw(",\"seq\":").uint(m.seq);
        self.raw(",\"time\":").uint(m.ev.time);
        self.raw(",\"net\":").uint(m.ev.net.0 as u64);
        self.raw(",\"value\":").logic(m.ev.value);
        self.raw(",\"anti\":").bool(m.anti).raw("}")
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

/// The leading fields of an encoded [`Checkpoint`]: the schema, cluster and
/// GVT it was captured under.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct ImageEnvelope {
    pub schema: u32,
    pub cluster: u32,
    pub gvt: VTime,
}

/// Read the envelope of an encoded image without decoding its body — what
/// the wire supervisor checks on an image it only stores. The codec emits
/// the envelope first and it holds scalars only, so the first `,"gvt":` in
/// the text is its last member; everything up to that value is parsed as a
/// document of its own. `None` when `text` does not open with the envelope
/// of a `tw_checkpoint`.
pub(crate) fn image_envelope(text: &str) -> Option<ImageEnvelope> {
    const LAST_KEY: &str = ",\"gvt\":";
    let value = text.find(LAST_KEY)? + LAST_KEY.len();
    let digits = text[value..].bytes().take_while(u8::is_ascii_digit).count();
    let head = Json::parse(&format!("{}}}", &text[..value + digits])).ok()?;
    let uint = |key: &str| head.get(key)?.as_u64().ok();
    if head.get("kind")?.as_str().ok()? != "tw_checkpoint" {
        return None;
    }
    Some(ImageEnvelope {
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

    fn sample_checkpoint() -> Checkpoint {
        Checkpoint {
            schema: CHECKPOINT_SCHEMA,
            cluster: 2,
            gvt: 140,
            values: vec![Logic::One, Logic::Zero, Logic::Z],
            pending: vec![CkptEvent {
                time: 144,
                net: 6,
                value: Logic::One,
                source: CkptSource::Remote { src: 1, seq: 9 },
                order: 31,
            }],
            processed: Vec::new(),
            undo: vec![(141, 5, Logic::One)],
            outlog: Vec::new(),
            stim_cycle: 14,
            last_time: 151,
            settled: true,
            order: 64,
            mseq: 78,
            stats: sample_stats(),
        }
    }

    /// The envelope is read off the head of the encoded image without
    /// decoding the body — and not at all off a frame that is no image, or
    /// off an image cut short of its envelope.
    #[test]
    fn image_envelope_is_read_without_decoding_the_body() {
        let text = sample_checkpoint().to_json().emit().unwrap();
        let envelope = ImageEnvelope {
            schema: CHECKPOINT_SCHEMA,
            cluster: 2,
            gvt: 140,
        };
        assert_eq!(image_envelope(&text), Some(envelope));
        // Only the head is looked at: a body that no longer parses, or
        // that mentions `"gvt"` again, does not matter.
        let mangled = format!("{},\"gvt\":7,]]", &text[..text.len() - 1]);
        assert_eq!(image_envelope(&mangled), Some(envelope));

        for not_an_image in [
            "{\"kind\":\"pong\"}",
            "{\"kind\":\"done\",\"lvt\":4,\"gvt\":9}",
            "{\"kind\":\"error\",\"detail\":\"no ,\\\"gvt\\\": here\"}",
            &text.replace("\"tw_checkpoint\"", "\"tw_checkpoint_delta\""),
            &text[..60],
            "",
        ] {
            assert_eq!(image_envelope(not_an_image), None, "{not_an_image}");
        }
    }

    /// Arbitrary checkpoints: every `u64` over its whole range with the
    /// `i64::MAX` edge drawn often, all four logic values, all three event
    /// sources, and arrays that are often empty. The GVT stays within
    /// `i64`, where a captured image's envelope is readable.
    struct AnyCheckpoint;

    impl proptest::strategy::Strategy for AnyCheckpoint {
        type Value = Checkpoint;

        fn generate(&self, rng: &mut proptest::test_runner::TestRng) -> Checkpoint {
            use rand::Rng;
            fn wide(rng: &mut impl Rng) -> u64 {
                const EDGE: u64 = i64::MAX as u64;
                match rng.gen_range(0..4) {
                    0 => rng.gen_range(0..1000),
                    1 => rng.gen_range(EDGE - 2..=EDGE + 2),
                    2 => rng.gen_range(u64::MAX - 2..=u64::MAX),
                    _ => rng.gen(),
                }
            }
            fn logic(rng: &mut impl Rng) -> Logic {
                [Logic::Zero, Logic::One, Logic::X, Logic::Z][rng.gen_range(0..4)]
            }
            fn len(rng: &mut impl Rng) -> usize {
                rng.gen_range(0..8usize).saturating_sub(3)
            }
            fn event(rng: &mut impl Rng) -> CkptEvent {
                let source = match rng.gen_range(0..3) {
                    0 => CkptSource::Stimulus,
                    1 => CkptSource::Local {
                        created_at: wide(rng),
                    },
                    _ => CkptSource::Remote {
                        src: rng.gen_range(0..=u32::MAX),
                        seq: wide(rng),
                    },
                };
                CkptEvent {
                    time: wide(rng),
                    net: rng.gen_range(0..=u32::MAX),
                    value: logic(rng),
                    source,
                    order: wide(rng),
                }
            }
            fn message(rng: &mut impl Rng) -> TwMessage {
                TwMessage {
                    src: rng.gen_range(0..=u32::MAX),
                    dst: rng.gen_range(0..=u32::MAX),
                    seq: wide(rng),
                    ev: NetEvent {
                        time: wide(rng),
                        net: NetId(rng.gen_range(0..=u32::MAX)),
                        value: logic(rng),
                    },
                    anti: rng.gen(),
                }
            }
            Checkpoint {
                schema: CHECKPOINT_SCHEMA,
                cluster: rng.gen_range(0..=u32::MAX),
                gvt: rng.gen_range(0..=i64::MAX as u64),
                values: (0..len(rng) * 5).map(|_| logic(rng)).collect(),
                pending: (0..len(rng)).map(|_| event(rng)).collect(),
                processed: (0..len(rng)).map(|_| event(rng)).collect(),
                undo: (0..len(rng))
                    .map(|_| (wide(rng), rng.gen_range(0..=u32::MAX), logic(rng)))
                    .collect(),
                outlog: (0..len(rng)).map(|_| (wide(rng), message(rng))).collect(),
                stim_cycle: wide(rng),
                last_time: wide(rng),
                settled: rng.gen(),
                order: wide(rng),
                mseq: wide(rng),
                stats: SimStats {
                    events: wide(rng),
                    gate_evals: wide(rng),
                    net_toggles: wide(rng),
                    cycles: wide(rng),
                    end_time: wide(rng),
                    messages: wide(rng),
                    anti_messages: wide(rng),
                    rollbacks: wide(rng),
                    rolled_back_events: wide(rng),
                    gvt_rounds: wide(rng),
                    fossil_collected: wide(rng),
                },
            }
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(512))]

        /// The streamed image is the reference encoding, byte for byte, and
        /// its envelope reads back.
        #[test]
        fn streamed_image_equals_the_reference(ck in AnyCheckpoint) {
            let text = ck.to_text();
            proptest::prop_assert_eq!(&text, &ck.to_json().emit().unwrap());
            let envelope = image_envelope(&text).expect("envelope");
            proptest::prop_assert_eq!(
                (envelope.schema, envelope.cluster, envelope.gvt),
                (ck.schema, ck.cluster, ck.gvt)
            );
        }
    }
}
