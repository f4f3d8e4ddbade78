//! The supervisor's side of the wire: a [`ProcessWorker`] per cluster
//! drives one `tw_worker` process over a [`Link`] — the per-cluster Unix
//! socket of [`Transport::Process`] or the shared, token-guarded TCP
//! listener of [`Transport::Tcp`]. The two links share the dial-in wait,
//! the hello exchange, the handshake and every command; they differ in how
//! a connection comes to be and in what a silent peer means (Unix: a hung
//! local child, fatal; TCP: past the silence deadline, recovered like a
//! crash).

use super::frames::{
    delivered_from, init_json, ok_json_cmd, restore_frame, vtime_from, vtime_json,
};
use super::supervisor::run_supervisor;
use super::{
    fatal, protocol, ClusterWorker, Delivered, TcpWorkers, Transport, WireCounters, WorkerFailure,
    CONNECT_TIMEOUT,
};
use crate::artifact::{image_envelope, logic_vec, ImageEnvelope};
use crate::cluster::ClusterPlan;
use crate::logic::Logic;
use crate::stats::SimStats;
use crate::stimulus::VectorStimulus;
use crate::timewarp::chaos::{ChaosStream, ClusterChaos};
use crate::timewarp::checkpoint::CHECKPOINT_SCHEMA;
use crate::timewarp::error::TimeWarpError;
use crate::timewarp::recovery::ReplayOp;
use crate::timewarp::wire::{
    hello_json, hello_parse, json_kind, parse_json, read_frame, run_token, send_json, FrameSink,
    FrameSource, Hello, WireError, WireStream, WIRE_VERSION,
};
use crate::timewarp::{TimeWarpConfig, TwMessage, TwRunResult};
use crate::wheel::VTime;
use dvs_json::{FromJson, Json, ObjBuilder, ToJson};
use dvs_verilog::netlist::Netlist;
use std::cell::RefCell;
use std::collections::HashMap;
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::unix::net::UnixListener;
use std::path::{Path, PathBuf};
use std::process::{Child, Command};
use std::rc::Rc;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Per-response read window. Unix: fatal on expiry (a hung local child is
/// not crash-stop). TCP: governs the hello and the handshake; afterwards
/// the silence deadline takes over.
const IO_TIMEOUT: Duration = Duration::from_secs(30);

/// Wire-level timing shared by every worker of a run: the read window
/// above, [`CONNECT_TIMEOUT`] and the run's silence deadline. A struct so
/// that unit tests can shrink the windows to milliseconds.
#[derive(Debug, Clone, Copy)]
pub(crate) struct WireTiming {
    pub io: Duration,
    pub connect: Duration,
    /// How long a TCP worker may send nothing, once its handshake is done,
    /// before its connection is dropped.
    pub silence: Duration,
}

impl WireTiming {
    pub fn from_cfg(cfg: &TimeWarpConfig) -> WireTiming {
        WireTiming {
            io: IO_TIMEOUT,
            connect: CONNECT_TIMEOUT,
            silence: cfg.silence_timeout,
        }
    }
}

/// Locate the worker binary: the explicit path, else a `tw_worker` sibling
/// of the current executable (or of its parent directory — test binaries
/// live one level below the build root). The path comes back canonicalized:
/// `Command` looks a bare relative name up on `PATH`, not in the directory
/// `is_file` found it in.
pub(super) fn resolve_worker(explicit: Option<&Path>) -> Result<PathBuf, String> {
    let runnable = |p: &Path| p.is_file().then(|| p.canonicalize().ok()).flatten();
    if let Some(p) = explicit {
        return runnable(p).ok_or_else(|| format!("worker binary {} does not exist", p.display()));
    }
    let exe = std::env::current_exe().ok();
    let dir = exe.as_deref().and_then(Path::parent);
    let mut dirs = [dir, dir.and_then(Path::parent)].into_iter().flatten();
    let sibling = dirs.find_map(|d| runnable(&d.join("tw_worker")));
    sibling.ok_or_else(|| {
        "no tw_worker binary found: pass Transport::Process { worker } \
         or place tw_worker next to the current executable"
            .to_string()
    })
}

static SOCKET_SERIAL: AtomicU64 = AtomicU64::new(0);

fn next_socket_path(cluster: u32) -> PathBuf {
    let serial = SOCKET_SERIAL.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!(
        "dvs-tw-{}-{cluster}-{serial}.sock",
        std::process::id()
    ))
}

fn lost(detail: String) -> WorkerFailure {
    WorkerFailure::Lost { detail }
}

/// One look at a non-blocking listener: `None` when nobody is waiting.
fn nonblocking<T>(accepted: io::Result<T>) -> Result<Option<T>, WorkerFailure> {
    match accepted {
        Ok(conn) => Ok(Some(conn)),
        Err(e) if e.kind() == io::ErrorKind::WouldBlock => Ok(None),
        Err(e) => Err(protocol(format!("accept: {e}"))),
    }
}

/// Wait for a worker to dial in: poll `accept` every 2 ms until it yields
/// the connection, failing fast when `child` — the local process expected
/// to dial, if there is one — died instead, and with a timeout once
/// `window` has passed.
pub(super) fn await_dial_in(
    mut accept: impl FnMut() -> Result<Option<WireStream>, WorkerFailure>,
    mut child: Option<&mut Child>,
    window: Duration,
) -> Result<WireStream, WorkerFailure> {
    let deadline = Instant::now() + window;
    loop {
        if let Some(stream) = accept()? {
            return Ok(stream);
        }
        let exited = child
            .as_deref_mut()
            .and_then(|c| c.try_wait().ok().flatten());
        if let Some(status) = exited {
            return Err(lost(format!("worker exited during startup: {status}")));
        }
        if Instant::now() >= deadline {
            return Err(WorkerFailure::Timeout {
                after_ms: window.as_millis() as u64,
            });
        }
        std::thread::sleep(Duration::from_millis(2));
    }
}

/// The supervisor's half of the hello exchange on a fresh connection. It
/// speaks first, presenting `token` (empty on the Unix link, where the
/// socket path already scopes the conversation), and the worker always
/// answers with its own hello, so a mismatch is diagnosable on both sides.
/// Both hellos ride the legacy 4-byte framing — any peer version can parse
/// them, so a mixed pairing fails [`same_versions`] as a typed mismatch,
/// not as a framing error. `window` bounds the wait for the answer and
/// stays the stream's read timeout for the handshake that follows.
pub(super) fn exchange_hellos(
    stream: &mut WireStream,
    token: &str,
    window: Duration,
) -> Result<Hello, WorkerFailure> {
    stream
        .set_read_timeout(Some(window))
        .map_err(|e| protocol(format!("read timeout: {e}")))?;
    send_json(stream, &hello_json(token, None)).map_err(|e| lost(format!("write failed: {e}")))?;
    let reply = match read_frame(stream).map_err(WireError::from) {
        Ok(Some(bytes)) => bytes,
        Ok(None) => return Err(lost("socket EOF during hello".to_string())),
        Err(e) if e.timed_out() => {
            return Err(WorkerFailure::Timeout {
                after_ms: window.as_millis() as u64,
            })
        }
        Err(e) => return Err(lost(format!("read failed: {e}"))),
    };
    parse_json(&reply)
        .and_then(|j| hello_parse(&j))
        .map_err(protocol)
}

/// Mixed versions must never exchange state.
pub(super) fn same_versions(theirs: &Hello) -> Result<(), WorkerFailure> {
    if theirs.versions() == (WIRE_VERSION, CHECKPOINT_SCHEMA) {
        return Ok(());
    }
    Err(WorkerFailure::Version {
        theirs: theirs.versions(),
    })
}

/// Supervisor side of [`Transport::Tcp`]: the single shared listener every
/// worker dials, plus the per-run token and the parking lot for dial-ins
/// that arrive while the supervisor is waiting on a *different* cluster
/// (TCP gives no ordering across connections, and after a network fault a
/// reconnecting worker can race a respawned one).
pub(crate) struct TcpBroker {
    listener: TcpListener,
    pub(super) addr: SocketAddr,
    pub(super) token: String,
    /// Parked hello-negotiated connections, keyed by cluster.
    pending: RefCell<HashMap<u32, WireStream>>,
}

impl TcpBroker {
    pub(super) fn bind(listen: &str, token: String) -> Result<Self, String> {
        let listener =
            TcpListener::bind(listen).map_err(|e| format!("bind TCP listener {listen}: {e}"))?;
        let addr = listener
            .local_addr()
            .map_err(|e| format!("TCP listener address: {e}"))?;
        listener
            .set_nonblocking(true)
            .map_err(|e| format!("TCP listener nonblocking: {e}"))?;
        Ok(TcpBroker {
            listener,
            addr,
            token,
            pending: RefCell::new(HashMap::new()),
        })
    }

    /// The hello-negotiated connection for `cluster`, if there is one yet:
    /// parked by an earlier call, or dialing in right now. A dial-in for
    /// another cluster is parked for that cluster's turn (latest wins — a
    /// re-dial supersedes a stale parked connection).
    pub(super) fn poll(
        &self,
        cluster: u32,
        hello_window: Duration,
    ) -> Result<Option<WireStream>, WorkerFailure> {
        if let Some(parked) = self.pending.borrow_mut().remove(&cluster) {
            return Ok(Some(parked));
        }
        let Some((conn, _)) = nonblocking(self.listener.accept())? else {
            return Ok(None);
        };
        if let Some((who, stream)) = self.greet(conn, hello_window)? {
            if who == cluster {
                return Ok(Some(stream));
            }
            self.pending.borrow_mut().insert(who, stream);
        }
        Ok(None)
    }

    /// Hello exchange on a fresh dial-in. `Ok(Some((cluster, stream)))` is
    /// a negotiated worker. `Ok(None)` is a stray — wrong token, malformed
    /// hello, vanished or silent mid-handshake: another run's worker or a
    /// port scanner, dropped without disturbing this run. A correct-token
    /// peer with mismatched versions, or none of a cluster, is fatal.
    fn greet(
        &self,
        conn: TcpStream,
        window: Duration,
    ) -> Result<Option<(u32, WireStream)>, WorkerFailure> {
        let setup = conn.set_nodelay(true);
        if setup.and_then(|()| conn.set_nonblocking(false)).is_err() {
            return Ok(None);
        }
        let mut stream: WireStream = Box::new(conn);
        let Ok(theirs) = exchange_hellos(&mut stream, &self.token, window) else {
            return Ok(None);
        };
        if theirs.token != self.token {
            return Ok(None);
        }
        same_versions(&theirs)?;
        let undeclared = || protocol("TCP worker hello did not declare a cluster".to_string());
        Ok(Some((theirs.cluster.ok_or_else(undeclared)?, stream)))
    }
}

/// Where a [`ProcessWorker`]'s byte stream comes from.
#[derive(Clone)]
pub(super) enum Link {
    /// Supervisor-owned per-cluster Unix socket; the supervisor spawns the
    /// child with `--socket`.
    Unix { bin: PathBuf },
    /// Shared TCP listener; the worker dials in. `spawn` is the local
    /// binary to launch with `--connect` (None = externally started
    /// workers, the supervisor only waits).
    Tcp {
        broker: Rc<TcpBroker>,
        spawn: Option<PathBuf>,
    },
}

/// A cluster worker living in a separate OS process, driven over a
/// [`WireStream`] — a Unix-domain socket ([`Transport::Process`]) or a TCP
/// connection ([`Transport::Tcp`]). A dead child, a reset connection, or
/// (over TCP) a silent peer surfaces as [`WorkerFailure::Lost`] on the
/// next exchange, which is precisely the crash-stop signal the recovery
/// supervisor consumes.
pub(crate) struct ProcessWorker {
    cluster: u32,
    link: Link,
    init: Json,
    timing: WireTiming,
    /// Shared chaos state for this cluster (frame counters + pending
    /// faults survive reconnects); `None` routes frames straight through.
    chaos: Option<Rc<RefCell<ClusterChaos>>>,
    socket_path: Option<PathBuf>,
    child: Option<Child>,
    reader: Option<FrameSource<io::BufReader<WireStream>>>,
    writer: Option<FrameSink<WireStream>>,
    last_lvt: VTime,
    /// True once the init handshake completed on the current TCP
    /// connection: a read timeout is then the silence deadline, which
    /// drops the connection instead of failing the run.
    deadline_armed: bool,
    /// Everything but `chaos_faults_injected`, which the chaos state counts.
    counters: WireCounters,
}

/// Start the worker binary.
fn launch(bin: &Path, args: &[&std::ffi::OsStr]) -> Result<Child, WorkerFailure> {
    let spawned = Command::new(bin).args(args).spawn();
    spawned.map_err(|e| protocol(format!("spawn {}: {e}", bin.display())))
}

impl ProcessWorker {
    pub(super) fn new(
        link: Link,
        cluster: u32,
        init: Json,
        timing: WireTiming,
        chaos: Option<Rc<RefCell<ClusterChaos>>>,
    ) -> Self {
        ProcessWorker {
            cluster,
            link,
            init,
            timing,
            chaos,
            socket_path: None,
            child: None,
            reader: None,
            writer: None,
            last_lvt: 0,
            deadline_armed: false,
            counters: WireCounters::default(),
        }
    }

    fn is_tcp(&self) -> bool {
        matches!(self.link, Link::Tcp { .. })
    }

    /// Tear down the byte stream (both directions) without touching the
    /// process: how the supervisor gives up on a corrupt stream and, over
    /// TCP, declares a silent peer dead.
    fn drop_connection(&mut self) {
        if let Some(w) = self.writer.as_ref() {
            w.get_ref().shutdown_both();
        }
        self.reader = None;
        self.writer = None;
        self.deadline_armed = false;
    }

    /// Spawn (or respawn / await reconnection of) the worker, negotiate
    /// versions, and initialize it. On success `last_lvt` holds the
    /// worker's fresh LVT.
    pub(super) fn spawn(&mut self) -> Result<(), WorkerFailure> {
        self.kill_child();
        let (cluster, timing) = (self.cluster, self.timing);
        let stream = match self.link.clone() {
            Link::Unix { bin } => {
                let path = next_socket_path(cluster);
                let _ = std::fs::remove_file(&path);
                let listener = UnixListener::bind(&path)
                    .map_err(|e| protocol(format!("bind {}: {e}", path.display())))?;
                // Recorded before anything else can fail: whoever tears
                // this worker down removes the file `bind` just created.
                self.socket_path = Some(path.clone());
                listener
                    .set_nonblocking(true)
                    .map_err(|e| protocol(format!("listener nonblocking: {e}")))?;
                self.child = Some(launch(&bin, &["--socket".as_ref(), path.as_ref()])?);
                let accept = || {
                    let Some((stream, _)) = nonblocking(listener.accept())? else {
                        return Ok(None);
                    };
                    stream
                        .set_nonblocking(false)
                        .map_err(|e| protocol(format!("stream blocking: {e}")))?;
                    Ok(Some(Box::new(stream) as WireStream))
                };
                let mut stream = await_dial_in(accept, self.child.as_mut(), timing.connect)?;
                same_versions(&exchange_hellos(&mut stream, "", timing.io)?)?;
                stream
            }
            Link::Tcp { broker, spawn } => {
                if let Some(bin) = spawn {
                    let (addr, cluster) = (broker.addr.to_string(), cluster.to_string());
                    let args = [
                        "--connect",
                        &addr,
                        "--cluster",
                        &cluster,
                        "--token",
                        &broker.token,
                    ];
                    self.child = Some(launch(&bin, &args.map(AsRef::as_ref))?);
                }
                let accept = || broker.poll(cluster, timing.io);
                await_dial_in(accept, self.child.as_mut(), timing.connect)?
            }
        };
        self.adopt(stream)
    }

    /// The second half of [`Self::spawn`], on a stream whose hellos are
    /// exchanged: initialize the worker. This — and, on a respawn, the
    /// `restore` that follows — still runs under the plain io window; the
    /// silence deadline only arms once the worker has answered.
    pub(super) fn adopt(&mut self, stream: WireStream) -> Result<(), WorkerFailure> {
        // Past the hello every frame is checksummed and sequenced and,
        // when a chaos plan targets this cluster, routed through the
        // fault-injection shim (wrapping re-arms suppressed directions:
        // a reconnect heals a partition or stall).
        let conn: WireStream = match &self.chaos {
            Some(state) => Box::new(ChaosStream::new(stream, Rc::clone(state))),
            None => stream,
        };
        let writer = conn
            .try_clone()
            .map_err(|e| protocol(format!("clone stream: {e}")))?;
        self.reader = Some(FrameSource::new(io::BufReader::new(conn)));
        self.writer = Some(FrameSink::new(writer));

        let init = self.init.clone();
        let ready = self.call(&init)?;
        self.last_lvt = self.expect_ready(&ready)?;
        if self.is_tcp() {
            // Handshake complete: the per-read window becomes the silence
            // deadline.
            if let Some(r) = self.reader.as_ref() {
                r.get_ref()
                    .get_ref()
                    .set_read_timeout(Some(self.timing.silence))
                    .map_err(|e| protocol(format!("read timeout: {e}")))?;
            }
            self.deadline_armed = true;
        }
        Ok(())
    }

    fn send(&mut self, j: &Json) -> Result<(), WorkerFailure> {
        let text = j
            .emit()
            .map_err(|e| WorkerFailure::Protocol { detail: e.msg })?;
        self.send_text(&text)
    }

    fn send_text(&mut self, text: &str) -> Result<(), WorkerFailure> {
        let w = self.writer.as_mut().ok_or_else(|| WorkerFailure::Lost {
            detail: "no connection to worker".to_string(),
        })?;
        w.send(text.as_bytes()).map_err(|e| WorkerFailure::Lost {
            detail: format!("write failed: {e}"),
        })
    }

    /// Read the next frame, whatever it says. A read timeout past the TCP
    /// handshake is a silent peer: count it, drop the connection and
    /// report it lost, for recovery to reconnect; before the handshake, or
    /// on a Unix link, it fails the run. A checksum/sequence violation
    /// means the stream can no longer be trusted: count it, drop the
    /// connection, and let checkpoint-restore recovery rebuild the
    /// conversation from known-good state.
    fn read_frame(&mut self) -> Result<Vec<u8>, WorkerFailure> {
        let r = self.reader.as_mut();
        let r = r.ok_or_else(|| lost("no connection to worker".to_string()))?;
        let e = match r.recv() {
            Ok(Some(bytes)) => return Ok(bytes),
            Ok(None) => return Err(lost("socket EOF (worker process died)".to_string())),
            Err(e) => e,
        };
        let detail = match e {
            e if e.timed_out() && self.deadline_armed => {
                self.counters.silent_peers += 1;
                format!(
                    "no frame for {} ms; connection dropped (crash-stop)",
                    self.timing.silence.as_millis()
                )
            }
            e if e.timed_out() => {
                return Err(WorkerFailure::Timeout {
                    after_ms: self.timing.io.as_millis() as u64,
                })
            }
            e if e.is_corrupt() => {
                self.counters.corrupt_frames += 1;
                format!("corrupt frame from worker ({e}); connection dropped")
            }
            WireError::Truncated(detail) => format!("truncated frame: {detail}"),
            e => return Err(lost(format!("read failed: {e}"))),
        };
        self.drop_connection();
        Err(lost(detail))
    }

    /// Read the next response frame: the frames a worker answers *any*
    /// command with when it cannot serve it become their typed failures.
    fn read_response(&mut self) -> Result<Json, WorkerFailure> {
        typed_response(&self.read_frame()?)
    }

    /// Read the reply to a `gvt` command that asked for an image: the
    /// image itself, as the canonical text the worker captured it as and
    /// kept as received — the supervisor only stores it, so only its
    /// envelope is looked at. Any other frame is handled as
    /// [`Self::read_response`] would, and a well-formed one that is no
    /// image is a protocol error.
    fn read_image(&mut self, gvt: VTime) -> Result<String, WorkerFailure> {
        let asked_for = ImageEnvelope {
            schema: CHECKPOINT_SCHEMA,
            cluster: self.cluster,
            gvt,
        };
        let bytes = self.read_frame()?;
        let text =
            String::from_utf8(bytes).map_err(|e| protocol(format!("frame is not UTF-8: {e}")))?;
        if image_envelope(&text) == Some(asked_for) {
            return Ok(text);
        }
        typed_response(text.as_bytes())?;
        Err(protocol(format!(
            "the gvt round asked for {asked_for:?}, the worker answered {text:.120}"
        )))
    }

    /// One command round-trip: a single buffered write, then the response.
    /// Over TCP a silent remote peer is indistinguishable from a vanished
    /// host (no RST ever arrives from a powered-off machine), and the
    /// supervisor only ever waits on a worker that owes it a reply;
    /// [`Self::read_frame`] turns silence past the deadline into a
    /// crash-stop loss, which the recovery path respawns-or-awaits-
    /// reconnect. Over Unix a hung local child is *not* crash-stop, so the
    /// io timeout stays fatal.
    pub(super) fn call(&mut self, j: &Json) -> Result<Json, WorkerFailure> {
        self.send(j)?;
        self.read_response()
    }

    fn expect_kind(&self, j: &Json, want: &str) -> Result<(), WorkerFailure> {
        let kind = json_kind(j).map_err(protocol)?;
        if kind == want {
            Ok(())
        } else {
            Err(protocol(format!("expected a {want:?} frame, got {kind:?}")))
        }
    }

    fn expect_ready(&self, j: &Json) -> Result<VTime, WorkerFailure> {
        self.expect_kind(j, "ready")?;
        j.field("lvt")
            .map_err(|e| WorkerFailure::Protocol { detail: e.msg })
            .and_then(|v| vtime_from(v).map_err(protocol))
    }

    fn kill_child(&mut self) {
        if let Some(mut child) = self.child.take() {
            let _ = child.kill();
            let _ = child.wait();
        }
        self.reader = None;
        self.writer = None;
        self.deadline_armed = false;
        if let Some(path) = self.socket_path.take() {
            let _ = std::fs::remove_file(path);
        }
    }
}

impl ClusterWorker for ProcessWorker {
    fn lvt(&mut self) -> Result<VTime, WorkerFailure> {
        Ok(self.last_lvt)
    }

    fn step(&mut self, limit: VTime, sends: &mut Vec<TwMessage>) -> Result<VTime, WorkerFailure> {
        let cmd = ObjBuilder::new()
            .str("kind", "step")
            .field("limit", vtime_json(limit))
            .build();
        let r = self.call(&cmd)?;
        self.expect_kind(&r, "done")?;
        let (lvt, emitted) = delivered_from(&r).map_err(protocol)?;
        sends.extend(emitted);
        Ok(lvt)
    }

    fn deliver(&mut self, msgs: &[TwMessage]) -> Result<Vec<Delivered>, WorkerFailure> {
        let cmd = ObjBuilder::new()
            .str("kind", "deliver")
            .array("msgs", msgs.iter().map(ToJson::to_json).collect())
            .build();
        let r = self.call(&cmd)?;
        self.expect_kind(&r, "done")?;
        let results = r.field("results").and_then(Json::as_array);
        let results = results.map_err(|e| protocol(e.msg))?;
        if results.is_empty() || results.len() > msgs.len() {
            return Err(protocol(format!(
                "a delivery of {} messages was answered with {} results",
                msgs.len(),
                results.len()
            )));
        }
        let results: Result<Vec<Delivered>, String> = results.iter().map(delivered_from).collect();
        let results = results.map_err(protocol)?;
        self.counters.messages_sent += results.len() as u64;
        self.counters.frames_sent += 1;
        Ok(results)
    }

    fn gvt_round(
        workers: &mut [Self],
        gvt: VTime,
        image: bool,
    ) -> Vec<Result<String, WorkerFailure>> {
        let cmd = ObjBuilder::new()
            .str("kind", "gvt")
            .field("gvt", vtime_json(gvt))
            .str("image", if image { "base" } else { "none" })
            .build();
        // Every command is on its way before the first reply is awaited,
        // so the workers fossil-collect, capture and emit side by side
        // instead of one after the other.
        let written: Vec<_> = workers.iter_mut().map(|w| w.send(&cmd)).collect();
        let read = |(written, w): (Result<(), WorkerFailure>, &mut Self)| {
            written?;
            if image {
                w.read_image(gvt)
            } else {
                let r = w.read_response()?;
                w.expect_kind(&r, "ok").map(|()| String::new())
            }
        };
        written.into_iter().zip(workers).map(read).collect()
    }

    fn respawn(&mut self, base: &str, ops: &[ReplayOp]) -> Result<VTime, WorkerFailure> {
        // Over TCP a respawn that times out (the replacement never dials
        // in, or a remote worker never reconnects) is itself a crash-stop
        // loss: each failed attempt burns one unit of the restart budget,
        // so a vanished remote degrades the run to the sequential
        // simulator instead of hanging or erroring out.
        let tcp = self.is_tcp();
        let remap = |f: WorkerFailure| match f {
            WorkerFailure::Timeout { after_ms } if tcp => WorkerFailure::Lost {
                detail: format!("worker did not (re)connect within {after_ms} ms"),
            },
            other => other,
        };
        self.spawn().map_err(remap)?;
        self.send_text(&restore_frame(base, ops))?;
        let r = self.read_response()?;
        self.last_lvt = self.expect_ready(&r)?;
        Ok(self.last_lvt)
    }

    fn check_quiescence(&mut self) -> Result<(), WorkerFailure> {
        let r = self.call(&ok_json_cmd("quiesce"))?;
        self.expect_kind(&r, "ok")
    }

    fn finish(&mut self) -> Result<(SimStats, Vec<Logic>), WorkerFailure> {
        let r = self.call(&ok_json_cmd("finish"))?;
        self.expect_kind(&r, "finished")?;
        let stats = SimStats::from_json(r.field("stats").map_err(|e| protocol(e.msg))?)
            .map_err(|e| protocol(e.msg))?;
        let values = logic_vec(r.field("values").map_err(|e| protocol(e.msg))?)
            .map_err(|e| protocol(e.msg))?;
        Ok((stats, values))
    }

    fn inject_crash(&mut self) {
        // A real SIGKILL, then observe the death the way a genuine crash
        // would surface: drain the socket to EOF before dropping it. (A
        // dropped connection with the process left up is a
        // `NetFaultKind::Truncate` in the run's `NetPlan`.)
        if let Some(child) = self.child.as_mut() {
            let _ = child.kill();
            let _ = child.wait();
        }
        if let Some(r) = self.reader.as_mut() {
            while let Ok(Some(_)) = r.recv() {}
        }
        self.kill_child();
    }

    fn kill(&mut self) {
        self.kill_child();
    }

    fn wire_counters(&self) -> WireCounters {
        WireCounters {
            chaos_faults_injected: self.chaos.as_ref().map_or(0, |c| c.borrow().fired()),
            ..self.counters
        }
    }
}

impl Drop for ProcessWorker {
    fn drop(&mut self) {
        self.kill_child();
    }
}

/// Sort a worker→supervisor frame: the typed failure for a `panic` or
/// `error` frame, the parsed frame otherwise.
pub(super) fn typed_response(bytes: &[u8]) -> Result<Json, WorkerFailure> {
    let j = parse_json(bytes).map_err(protocol)?;
    let said = |key: &str, absent: &str| {
        let said = j.field(key).and_then(Json::as_str);
        said.unwrap_or(absent).to_string()
    };
    match json_kind(&j).map_err(protocol)? {
        "panic" => Err(WorkerFailure::Panic {
            message: said("message", "<no message>"),
        }),
        "error" => Err(WorkerFailure::Protocol {
            detail: said("detail", "<no detail>"),
        }),
        _ => Ok(j),
    }
}

/// Run the Time Warp kernel with one OS process per cluster, on the link
/// `cfg.transport` names. [`Transport::Process`]: the supervisor spawns
/// each worker on a Unix socket of its own. [`Transport::Tcp`]: it binds
/// `listen`, mints a per-run token, and either spawns local `tw_worker
/// --connect` children ([`TcpWorkers::Spawn`]) or waits for externally
/// started ones ([`TcpWorkers::External`], printing the address + token on
/// stderr so the operator can start them).
pub(crate) fn run_wire(
    nl: &Netlist,
    plan: &ClusterPlan,
    stim: &VectorStimulus,
    cycles: u64,
    cfg: &TimeWarpConfig,
) -> Result<TwRunResult, TimeWarpError> {
    let invalid = |reason: String| TimeWarpError::InvalidConfig { reason };
    let (seed, policy, link) = match &cfg.transport {
        Transport::Process {
            seed,
            schedule,
            worker,
        } => {
            let bin = resolve_worker(worker.as_deref()).map_err(invalid)?;
            (seed, schedule, Link::Unix { bin })
        }
        Transport::Tcp {
            seed,
            schedule,
            listen,
            workers,
        } => {
            let spawn = match workers {
                TcpWorkers::Spawn { worker } => Some(resolve_worker(worker.as_deref())),
                TcpWorkers::External => None,
            };
            let spawn = spawn.transpose().map_err(invalid)?;
            let broker = TcpBroker::bind(listen, run_token()).map_err(invalid)?;
            if spawn.is_none() {
                // Externally started workers need the resolved address
                // (port 0 picks one at bind time) and the run token.
                eprintln!(
                    "tw supervisor listening on {addr}; start {k} workers with: \
                     tw_worker --connect {addr} --cluster <0..{k}> --token {token}",
                    addr = broker.addr,
                    k = plan.k,
                    token = broker.token,
                );
            }
            let broker = Rc::new(broker);
            (seed, schedule, Link::Tcp { broker, spawn })
        }
        Transport::Threads | Transport::InProc { .. } => {
            unreachable!("run_wire runs the wire transports")
        }
    };
    let check = cfg!(debug_assertions);
    // Same label as the in-proc executor: assertions and artifacts must
    // not depend on the transport.
    let label = format!("seed {seed}, schedule {policy:?}");
    let timing = WireTiming::from_cfg(cfg);
    let chaos_plan = cfg.chaos.clone().unwrap_or_default();
    let mut schedule = policy.build(*seed);
    let mut workers: Vec<ProcessWorker> = (0..plan.k as u32)
        .map(|me| {
            ProcessWorker::new(
                link.clone(),
                me,
                init_json(nl, plan, stim, cycles, check, me, &label),
                timing,
                (!chaos_plan.is_empty()).then(|| chaos_plan.for_cluster(me)),
            )
        })
        .collect();
    for w in &mut workers {
        let cluster = w.cluster;
        w.spawn().map_err(|f| fatal(cluster, f))?;
    }
    run_supervisor(
        nl,
        plan,
        stim,
        cycles,
        cfg,
        schedule.as_mut(),
        check,
        &label,
        &mut workers,
        true,
    )
}
