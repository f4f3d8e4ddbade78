//! The worker's side of the wire: what the `tw_worker` binary runs. A
//! served worker is an [`InProcWorker`] behind the frame codec of
//! `frames.rs` — [`dispatch`] decodes a command, calls the
//! [`ClusterWorker`] operation it names and encodes the answer.

use super::frames::{
    delivered_json, error_json, ok_json_cmd, ready_json, replay_op_from_json, vtime_from,
    worker_init_from_json, WorkerInit,
};
use super::in_proc::InProcWorker;
use super::{protocol, ClusterWorker, Image, WorkerFailure, CONNECT_TIMEOUT};
use crate::artifact::logic_str;
use crate::cluster::ClusterPlan;
use crate::timewarp::checkpoint::CHECKPOINT_SCHEMA;
use crate::timewarp::recovery::ReplayOp;
use crate::timewarp::wire::{
    hello_json, hello_parse, json_kind, parse_json, read_frame, send_json, DialJitter, FrameSink,
    FrameSource, WireError, WireStream, WIRE_VERSION,
};
use crate::timewarp::TwMessage;
use dvs_json::{FromJson, Json, JsonError, ObjBuilder, ToJson};
use std::io;
use std::net::TcpStream;
use std::os::unix::net::UnixStream;
use std::path::Path;
use std::time::{Duration, Instant};

/// Entry point for the `tw_worker` binary: connect back to the supervisor's
/// socket and serve one cluster until the supervisor says `finish` (or the
/// connection closes).
///
/// Protocol (every frame is compact JSON; the two hellos ride the legacy
/// `u32`-LE length prefix, everything after them the checksummed,
/// sequence-numbered framing of [`crate::timewarp::wire`]):
///
/// 1. supervisor sends `hello` (wire + checkpoint schema versions);
/// 2. worker always replies with its own `hello`, then exits quietly on a
///    mismatch — the supervisor owns the error report;
/// 3. supervisor sends `init` (netlist + gate block + stimulus + config);
///    worker replies `ready` with its LVT;
/// 4. command loop, one reply per command:
///    * `step` (`limit`) → `done` (`lvt`, `sends`);
///    * `deliver` (`msgs`: a run, see [`crate::timewarp::Schedule::fork`]) →
///      `done`
///      (`results`: one `lvt` + `sends` per message applied);
///    * `gvt` (`gvt`, `image`: `base` | `none`) → fossil-collect below
///      `gvt`, then `ok` for `none`, else the image itself — the canonical
///      `tw_checkpoint` document is the whole reply frame, which is how
///      the supervisor can keep it as received;
///    * `restore` (`ck`, `ops`) → `ready`;
///    * `quiesce` → `ok`; `ping` → `pong`; `finish` → `finished`, after
///      which the worker hangs up.
///
/// A command the worker cannot serve — unknown kind, missing or malformed
/// field — is answered with a typed `error` frame, after which the worker
/// hangs up. Worker panics inside a command are caught and shipped back as
/// a typed `panic` frame so the supervisor can raise
/// [`crate::timewarp::TimeWarpError::WorkerPanic`] instead of seeing an opaque
/// dead socket.
pub fn serve_worker(socket: &Path) -> io::Result<()> {
    let stream = UnixStream::connect(socket)?;
    // The Unix transport carries no token: the per-cluster socket path
    // already scopes the conversation, and the supervisor sends "".
    serve_wire(Box::new(stream), None, "")
}

/// TCP entry point for the `tw_worker` binary: dial the supervisor at
/// `addr` (retrying refused connections with jittered doubling backoff
/// for 10 s (`CONNECT_TIMEOUT`) — the supervisor may not have reached
/// this cluster's accept yet, or the worker may be reconnecting after a
/// network fault) and serve `cluster` until `finish` or EOF. The backoff
/// jitter is deterministic, seeded from the run token and cluster id, so a
/// cluster-wide reconnect storm de-synchronises reproducibly instead of
/// hammering the listener in lockstep. The hello exchange presents
/// `token`; a supervisor with a different token (another run) is abandoned
/// quietly.
pub fn serve_worker_tcp(addr: &str, cluster: u32, token: &str) -> io::Result<()> {
    let deadline = Instant::now() + CONNECT_TIMEOUT;
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
    serve_wire(Box::new(stream), Some(cluster), token)
}

/// Map a framing error to `io::Error` for the worker's `io::Result` entry
/// points (integrity violations become `InvalidData`).
pub(super) fn wire_io(e: WireError) -> io::Error {
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

pub(super) fn serve_wire(stream: WireStream, identity: Option<u32>, token: &str) -> io::Result<()> {
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
    let plan = ClusterPlan::new(&init.netlist, &init.gate_block, init.k);
    // The served worker is the in-process worker behind the frame codec.
    let mut worker = InProcWorker::new(
        &init.netlist,
        &plan,
        init.stim,
        init.cycles,
        init.check,
        &init.label,
        init.cluster,
    );
    let fresh = worker.lvt().expect("a new worker holds its process");
    sink.send_json(&ready_json(fresh)).map_err(wire_io)?;
    let mut selfkill = selfkill_budget(init.cluster);

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
            dispatch(&cmd, &mut worker, &mut selfkill)
        }));
        // Every way out of a command but an answered one hangs up.
        let (reply, stop) = match outcome {
            Ok(Ok(answered)) => answered,
            Ok(Err(WorkerFailure::Protocol { detail })) => (text(error_json(&detail)), true),
            Ok(Err(other)) => (text(error_json(&format!("{other:?}"))), true),
            Err(payload) => {
                let panic = ObjBuilder::new()
                    .str("kind", "panic")
                    .str("message", &panic_message(payload.as_ref()));
                (text(panic.build()), true)
            }
        };
        sink.send(reply.as_bytes()).map_err(wire_io)?;
        if stop {
            return Ok(());
        }
    }
}

/// A reply frame as the text that goes on the wire.
fn text(frame: Json) -> String {
    frame.emit().expect("reply frames hold no floats")
}

pub(super) fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_string()
    }
}

/// Decode one supervisor command, have `worker` do the [`ClusterWorker`]
/// operation it names and encode the answer. `Ok((reply, stop))` answers —
/// and, for `finish`, then hangs up; `Err` is a protocol error (typed
/// `error` reply + hang up). What only a wire can get wrong is handled
/// here: a delivery of nothing and an anti-message that annihilated
/// nothing are refused, a `quiesce` sent to a worker built without check
/// mode asserts nothing.
fn dispatch(
    cmd: &Json,
    worker: &mut InProcWorker<'_, '_>,
    selfkill: &mut Option<u64>,
) -> Result<(String, bool), WorkerFailure> {
    let bad = |e: JsonError| protocol(e.msg);
    let vtime = |key: &str| vtime_from(cmd.field(key).map_err(bad)?).map_err(protocol);
    let done = || ObjBuilder::new().str("kind", "done");
    let reply = match json_kind(cmd).map_err(protocol)? {
        "step" => {
            let mut sends = Vec::new();
            let lvt = worker.step(vtime("limit")?, &mut sends)?;
            delivered_json(done(), &(lvt, sends))
        }
        "deliver" => {
            let msgs = cmd.field("msgs").and_then(Json::as_array);
            let msgs = msgs.and_then(|a| a.iter().map(TwMessage::from_json).collect());
            let msgs: Vec<TwMessage> = msgs.map_err(bad)?;
            if msgs.is_empty() {
                return Err(protocol(
                    "a delivery must carry at least one message".to_string(),
                ));
            }
            let strays = worker.stray_anti_messages()?;
            let results = worker.deliver(&msgs)?;
            if worker.stray_anti_messages()? != strays {
                let antis = msgs[..results.len()].iter().filter(|m| m.anti);
                return Err(protocol(format!(
                    "an anti-message among (src, seq, time) {:?} has no positive to annihilate",
                    antis.map(|m| (m.src, m.seq, m.ev.time)).collect::<Vec<_>>()
                )));
            }
            let results = results.iter().map(|d| delivered_json(ObjBuilder::new(), d));
            done().array("results", results.collect()).build()
        }
        "gvt" => {
            let gvt = vtime("gvt")?;
            let image = cmd.field("image").and_then(Json::as_str).map_err(bad)?;
            let image = Image::ALL.into_iter().find(|i| i.name() == image);
            let image = image.ok_or_else(|| protocol("unknown image kind".to_string()))?;
            // The image, when one is asked for, is the whole reply.
            match worker.capture(gvt, image)? {
                captured if captured.is_empty() => ok_json_cmd("ok"),
                captured => return Ok((captured, false)),
            }
        }
        "restore" => {
            // Ignoring a chain would silently restore an older round than
            // the one its sender means.
            if cmd.get("deltas").is_some() {
                return Err(protocol(
                    "a restore takes one full image, not a `deltas` chain".to_string(),
                ));
            }
            let ops = cmd.field("ops").and_then(Json::as_array).map_err(bad)?;
            let ops: Vec<ReplayOp> = ops
                .iter()
                .map(|op| replay_op_from_json(op).map_err(protocol))
                .collect::<Result<_, _>>()?;
            let lvt = worker.restore(cmd.field("ck").map_err(bad)?, &ops)?;
            // A restored worker is a fresh process as far as the fault
            // model is concerned; it must not re-arm the self-kill hook.
            *selfkill = None;
            ready_json(lvt)
        }
        "quiesce" => {
            if worker.check {
                worker.check_quiescence()?;
            }
            ok_json_cmd("ok")
        }
        "finish" => {
            let (stats, values) = worker.finish()?;
            let finished = ObjBuilder::new()
                .str("kind", "finished")
                .field("stats", stats.to_json())
                .str("values", &logic_str(&values));
            return Ok((text(finished.build()), true));
        }
        other => return Err(protocol(format!("unknown command kind {other:?}"))),
    };
    Ok((text(reply), false))
}
