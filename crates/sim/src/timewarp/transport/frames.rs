//! The frame vocabulary of the wire protocol: how each command, reply and
//! field is spelled as JSON, both directions. Framing — how those bytes
//! move — lives in [`crate::timewarp::wire`]; what a frame makes a worker
//! do lives in `serve.rs`, what the supervisor makes of a reply in
//! `remote.rs`.

use super::Delivered;
use crate::cluster::ClusterPlan;
use crate::stimulus::VectorStimulus;
use crate::timewarp::recovery::ReplayOp;
use crate::timewarp::wire::json_kind;
use crate::timewarp::TwMessage;
use crate::wheel::VTime;
use dvs_json::{uint_array, uint_json, FromJson, Json, ObjBuilder, ToJson};
use dvs_verilog::netlist::{GateId, GateKind, InstId, Instance, Net, NetId, Netlist};

/// Virtual times go on the wire as unsigned integers, with the idle
/// sentinel `VTime::MAX` as `null`.
pub(super) fn vtime_json(t: VTime) -> Json {
    if t == VTime::MAX {
        Json::Null
    } else {
        uint_json(t)
    }
}

pub(super) fn vtime_from(v: &Json) -> Result<VTime, String> {
    match v {
        Json::Null => Ok(VTime::MAX),
        other => other.as_u64().map_err(|e| e.msg),
    }
}

/// A bare `{"kind": <kind>}` frame.
pub(super) fn ok_json_cmd(kind: &str) -> Json {
    ObjBuilder::new().str("kind", kind).build()
}

pub(super) fn ready_json(lvt: VTime) -> Json {
    ObjBuilder::new()
        .str("kind", "ready")
        .field("lvt", vtime_json(lvt))
        .build()
}

/// The `lvt` + `sends` pair a `step` answers with (under `kind: done`) and
/// a `deliver` once per message applied (under `results`).
pub(super) fn delivered_json(open: ObjBuilder, (lvt, sends): &Delivered) -> Json {
    open.field("lvt", vtime_json(*lvt))
        .array("sends", sends.iter().map(ToJson::to_json).collect())
        .build()
}

pub(super) fn delivered_from(j: &Json) -> Result<Delivered, String> {
    let lvt = vtime_from(j.field("lvt").map_err(|e| e.msg)?)?;
    let sends = j.field("sends").and_then(Json::as_array);
    let sends = sends.and_then(|a| a.iter().map(TwMessage::from_json).collect());
    Ok((lvt, sends.map_err(|e| e.msg)?))
}

pub(super) fn error_json(detail: &str) -> Json {
    ObjBuilder::new()
        .str("kind", "error")
        .str("detail", detail)
        .build()
}

pub(super) fn replay_op_json(op: &ReplayOp) -> Json {
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

/// Build the `restore` frame around an image kept as the text it was
/// captured as: the same bytes an [`ObjBuilder`] over the decoded image
/// would emit, without decoding it.
pub(super) fn restore_frame(base: &str, ops: &[ReplayOp]) -> String {
    let ops = Json::Array(ops.iter().map(replay_op_json).collect());
    let ops = ops.emit().expect("replay ops hold no floats");
    format!(r#"{{"kind":"restore","ck":{base},"ops":{ops}}}"#)
}

pub(super) fn replay_op_from_json(v: &Json) -> Result<ReplayOp, String> {
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
pub(super) fn init_json(
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
        .enumerate()
        .map(|(i, g)| {
            let inputs = nl.inputs(GateId(i as u32));
            let mut a = Vec::with_capacity(2 + inputs.len());
            a.push(Json::Str(g.kind.name().to_string()));
            a.push(Json::Int(g.output.0 as i64));
            a.extend(inputs.iter().map(|n| Json::Int(n.0 as i64)));
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
pub(super) struct WorkerInit {
    pub(super) netlist: Netlist,
    pub(super) gate_block: Vec<u32>,
    pub(super) k: usize,
    pub(super) cluster: u32,
    pub(super) check: bool,
    pub(super) cycles: u64,
    pub(super) stim: VectorStimulus,
    pub(super) label: String,
}

pub(super) fn worker_init_from_json(v: &Json) -> Result<WorkerInit, String> {
    let err = |e: dvs_json::JsonError| e.msg;
    if json_kind(v)? != "init" {
        return Err(format!(
            "expected an init frame, got kind {:?}",
            json_kind(v)
        ));
    }
    let nets = v.field("nets").and_then(Json::as_usize).map_err(err)?;
    // Every net id the frame names, gate terminal or not, must name one of
    // the `nets`: a worker indexes its tables by them unchecked.
    let net = |x: &Json| -> Result<NetId, String> {
        let id = x.as_u32().map_err(err)?;
        if (id as usize) < nets {
            Ok(NetId(id))
        } else {
            Err(format!("net {id} out of range for {nets} nets"))
        }
    };
    let opt_net = |x: &Json| match x {
        Json::Null => Ok(None),
        other => net(other).map(Some),
    };
    let net_ids = |x: &Json| -> Result<Vec<NetId>, String> {
        x.as_array().map_err(err)?.iter().map(net).collect()
    };
    let ids = |x: &Json| -> Result<Vec<u32>, String> {
        let ids = x.as_array().map_err(err)?.iter().map(Json::as_u32);
        ids.collect::<Result<_, _>>().map_err(err)
    };
    // No names or hierarchy travel: the worker's nets are named by their
    // ids, and one root instance owns every gate.
    let mut netlist = Netlist::default();
    netlist.instances.push(Instance {
        name: "worker".to_string(),
        module: "worker".to_string(),
        parent: None,
        children: Vec::new(),
        depth: 0,
        own_gates: 0,
        subtree_gates: 0,
    });
    netlist.nets = vec![Net::default(); nets];
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
        let output = net(&parts[1]).map_err(|e| format!("gate {i} output: {e}"))?;
        let inputs = parts[2..].iter().map(net).collect::<Result<Vec<_>, _>>();
        let inputs = inputs.map_err(|e| format!("gate {i} input: {e}"))?;
        netlist.add_gate(kind, output, &inputs, InstId(0), None);
    }
    // Arity, one driver per net and undriven primary inputs: a worker's
    // tables assume them all.
    netlist.recount_gates();
    netlist.validate()?;
    let gate_block = ids(v.field("gate_block").map_err(err)?)?;
    if gate_block.len() != netlist.gate_count() {
        return Err("gate_block length does not match the gate count".to_string());
    }
    let k = v.field("k").and_then(Json::as_usize).map_err(err)?;
    if k == 0 || gate_block.iter().any(|&b| (b as usize) >= k) {
        return Err("gate_block assigns a gate to an out-of-range cluster".to_string());
    }
    let cluster = v.field("cluster").and_then(Json::as_u32).map_err(err)?;
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
