//! The worker's side of the wire: what the `tw_worker` binary runs. A
//! served worker is an [`InProcWorker`] behind the frame codec of
//! `frames.rs` — [`dispatch`] decodes a command, calls the
//! [`ClusterWorker`] operation it names and encodes the answer.

use super::frames::{
    done_json, error_json, ok_json_cmd, ready_json, replay_op_from_json, round_from_json,
    worker_init_from_json, WorkerInit,
};
use super::in_proc::InProcWorker;
use super::{protocol, ClusterWorker, WorkerFailure, CONNECT_TIMEOUT};
use crate::artifact::logic_str;
use crate::cluster::ClusterPlan;
use crate::timewarp::checkpoint::CHECKPOINT_SCHEMA;
use crate::timewarp::recovery::ReplayOp;
use crate::timewarp::wire::{
    hello_json, hello_parse, json_kind, parse_json, read_frame, send_json, FrameSink, FrameSource,
    WireError, WireStream, WIRE_VERSION,
};
use crate::timewarp::TwMessage;
use dvs_json::{Json, JsonError, ObjBuilder, ToJson};
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
///    * `round` (`gvt`, `msgs`, `step` if the round steps, `image`) →
///      fossil-collect below `gvt`, apply `msgs` in order, process one
///      epoch within `step`, then `done` (`lvt`, `sends`); when `image` is
///      true the image follows as a second frame — the canonical
///      `tw_checkpoint` document is that whole frame, which is how the
///      supervisor can keep it as received;
///    * `restore` (`ck`, `ops`) → `ready`;
///    * `quiesce` → `ok`; `finish` → `finished`, after which the worker
///      hangs up.
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
/// `addr` and serve `cluster` until `finish` or EOF. A refused dial is
/// retried with doubling backoff (10 ms up to 500 ms) for 10 s
/// (`CONNECT_TIMEOUT`): a worker started by hand may come up before its
/// supervisor listens. The hello exchange presents `token`; a supervisor
/// with a different token (another run) is abandoned quietly.
pub fn serve_worker_tcp(addr: &str, cluster: u32, token: &str) -> io::Result<()> {
    let deadline = Instant::now() + CONNECT_TIMEOUT;
    let mut delay = Duration::from_millis(10);
    let stream = loop {
        match TcpStream::connect(addr) {
            Ok(s) => break s,
            Err(e) if Instant::now() >= deadline => return Err(e),
            Err(_) => {
                std::thread::sleep(delay);
                delay = (delay * 2).min(Duration::from_millis(500));
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
        let outcome =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| dispatch(&cmd, &mut worker)));
        // Every way out of a command but an answered one hangs up.
        let (replies, stop) = match outcome {
            Ok(Ok(answered)) => answered,
            Ok(Err(WorkerFailure::Protocol { detail })) => (vec![text(error_json(&detail))], true),
            Ok(Err(other)) => (vec![text(error_json(&format!("{other:?}")))], true),
            Err(payload) => {
                let panic = ObjBuilder::new()
                    .str("kind", "panic")
                    .str("message", &panic_message(payload.as_ref()));
                (vec![text(panic.build())], true)
            }
        };
        for reply in replies {
            sink.send(reply.as_bytes()).map_err(wire_io)?;
        }
        if stop {
            return Ok(());
        }
    }
}

/// A reply frame as the text that goes on the wire.
fn text(frame: Json) -> String {
    frame.emit().expect("reply frames hold no floats")
}

/// The text of a caught panic: its payload when that is a string.
pub(crate) fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_string()
    }
}

/// Decode one supervisor command, have `worker` do the [`ClusterWorker`]
/// operation it names and encode the answer. `Ok((replies, stop))` answers
/// with those frames — and, for `finish`, then hangs up; `Err` is a
/// protocol error (typed `error` reply + hang up). What only a wire can get
/// wrong is handled here: a message for another cluster or on a net this
/// cluster does not import, and an anti-message that annihilated nothing
/// are refused; a `quiesce` sent to a worker built without check mode
/// asserts nothing.
fn dispatch(
    cmd: &Json,
    worker: &mut InProcWorker<'_, '_>,
) -> Result<(Vec<String>, bool), WorkerFailure> {
    let bad = |e: JsonError| protocol(e.msg);
    let reply = match json_kind(cmd).map_err(protocol)? {
        "round" => {
            let round = round_from_json(cmd).map_err(protocol)?;
            let (me, imports) = (worker.me, worker.imports());
            let foreign = |m: &&TwMessage| m.dst != me || imports.binary_search(&m.ev.net).is_err();
            if let Some(m) = round.msgs.iter().find(foreign) {
                return Err(protocol(format!(
                    "a message for cluster {} on net {} is not an input of cluster {me}",
                    m.dst, m.ev.net.0
                )));
            }
            let strays = worker.stray_anti_messages()?;
            let reply = worker.serve(&round)?;
            if worker.stray_anti_messages()? != strays {
                let antis = round.msgs.iter().filter(|m| m.anti);
                return Err(protocol(format!(
                    "an anti-message among (time, net) {:?} has no positive to annihilate",
                    antis.map(|m| (m.ev.time, m.ev.net.0)).collect::<Vec<_>>()
                )));
            }
            let done = text(done_json(reply.lvt, &reply.sends));
            let image = Some(reply.image).filter(|i| !i.is_empty());
            return Ok((std::iter::once(done).chain(image).collect(), false));
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
            return Ok((vec![text(finished.build())], true));
        }
        other => return Err(protocol(format!("unknown command kind {other:?}"))),
    };
    Ok((vec![text(reply)], false))
}
