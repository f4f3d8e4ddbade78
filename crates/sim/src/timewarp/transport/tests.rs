use super::frames::*;
use super::in_proc::InProcWorker;
use super::remote::*;
use super::serve::{panic_message, serve_wire, wire_io};
use super::supervisor::run_supervisor;
use super::*;
use crate::cluster::ClusterPlan;
use crate::stimulus::VectorStimulus;
use crate::timewarp::checkpoint::Checkpoint;
use crate::timewarp::dst::{DstAction, DstView, Schedule};
use crate::timewarp::wire::{
    hello_json, hello_parse, json_kind, parse_json, read_frame, send_json, FrameSink, FrameSource,
    WireStream,
};
use crate::timewarp::{TimeWarpConfig, TwRunResult};
use dvs_json::{uint_array, FromJson, Json, ObjBuilder, ToJson};
use dvs_verilog::netlist::{NetId, Netlist};
use std::io;
use std::net::{SocketAddr, TcpStream};
use std::os::unix::net::UnixStream;
use std::rc::Rc;
use std::time::{Duration, Instant};

#[test]
fn vtime_sentinel_round_trips() {
    for t in [0, 1, 42, VTime::MAX - 1, VTime::MAX] {
        let j = vtime_json(t);
        assert_eq!(vtime_from(&j).expect("round trip"), t);
    }
    assert_eq!(vtime_json(VTime::MAX), Json::Null);
}

#[test]
fn replay_ops_round_trip() {
    let ops = [
        ReplayOp::Step { limit: VTime::MAX },
        ReplayOp::Step { limit: 16 },
        ReplayOp::Deliver(TwMessage {
            src: 1,
            dst: 0,
            ev: crate::wheel::NetEvent {
                time: 9,
                net: dvs_verilog::netlist::NetId(3),
                value: Logic::One,
            },
            anti: false,
        }),
        ReplayOp::Fossil(VTime::MAX),
    ];
    for op in &ops {
        let j = replay_op_json(op);
        assert_eq!(&replay_op_from_json(&j).expect("round trip"), op);
    }
}

#[test]
fn hello_mismatch_shuts_the_worker_down_quietly() {
    // Both directions of wire skew: a future supervisor with a newer
    // wire version, a v7 supervisor that would send `step`, `deliver` and
    // `gvt` where one `round` goes now, a v6 supervisor on checkpoint
    // schema 6 whose messages carry a sequence number and whose images
    // carry the output log, a v5
    // supervisor that would probe with `ping`, a v4 supervisor that would
    // ask for delta images and ship chains in `restore`, a v3 supervisor
    // that would deliver one `msg` per frame and ask for `fossil` and
    // `ckpt` separately, and a stale v2 supervisor predating checksummed
    // frames; plus current-wire supervisors still on checkpoint schema 2
    // or 3. Hellos stay on the legacy length-only framing precisely so
    // this exchange parses on both sides regardless of version.
    for (wire, schema) in [
        (WIRE_VERSION + 1, CHECKPOINT_SCHEMA),
        (7, CHECKPOINT_SCHEMA),
        (6, 6),
        (5, CHECKPOINT_SCHEMA),
        (4, CHECKPOINT_SCHEMA),
        (3, CHECKPOINT_SCHEMA),
        (2, CHECKPOINT_SCHEMA),
        (WIRE_VERSION, 2),
        (WIRE_VERSION, 3),
    ] {
        let (sup, worker) = UnixStream::pair().expect("socketpair");
        let handle = std::thread::spawn(move || serve_wire(Box::new(worker), None, ""));

        let mut writer = sup.try_clone().expect("clone");
        let mut reader = io::BufReader::new(sup);
        let bad_hello = ObjBuilder::new()
            .str("kind", "hello")
            .uint("wire", wire as u64)
            .uint("checkpoint_schema", schema as u64)
            .build();
        send_json(&mut writer, &bad_hello).expect("send hello");

        // The worker still answers with its own hello…
        let reply = read_frame(&mut reader)
            .expect("read")
            .expect("worker hello");
        let reply = hello_parse(&parse_json(&reply).expect("parse")).expect("hello");
        assert_eq!(reply.versions(), (WIRE_VERSION, CHECKPOINT_SCHEMA));
        // …then hangs up instead of serving commands.
        assert_eq!(read_frame(&mut reader).expect("clean eof"), None);
        handle.join().expect("join").expect("serve_wire exits Ok");
    }
}

/// A worker dialed into the wrong run (the supervisor's hello carries
/// a different token) answers the hello, then exits quietly instead of
/// serving — it must not disturb a run it does not belong to.
#[test]
fn token_mismatch_shuts_the_worker_down_quietly() {
    let (sup, worker) = UnixStream::pair().expect("socketpair");
    let handle = std::thread::spawn(move || serve_wire(Box::new(worker), Some(0), "right"));

    let mut writer = sup.try_clone().expect("clone");
    let mut reader = io::BufReader::new(sup);
    send_json(&mut writer, &hello_json("wrong", None)).expect("send hello");

    let reply = read_frame(&mut reader)
        .expect("read")
        .expect("worker hello");
    let reply = hello_parse(&parse_json(&reply).expect("parse")).expect("hello");
    assert_eq!(reply.token, "right");
    assert_eq!(reply.cluster, Some(0));
    assert_eq!(read_frame(&mut reader).expect("clean eof"), None);
    handle.join().expect("join").expect("serve_wire exits Ok");
}

/// A worker dials the broker presenting `token` for `cluster`, speaking
/// the protocol (read supervisor hello first, then answer).
fn dial(addr: SocketAddr, token: &str, cluster: u32) -> std::thread::JoinHandle<TcpStream> {
    let token = token.to_string();
    std::thread::spawn(move || {
        let mut stream = TcpStream::connect(addr).expect("connect");
        let _sup_hello = read_frame(&mut stream).expect("read").expect("sup hello");
        send_json(&mut stream, &hello_json(&token, Some(cluster))).expect("send hello");
        stream
    })
}

/// A worker named by a relative path comes back absolute: `Command` would
/// look a bare name up on `PATH`, not in the directory it was found in.
#[test]
fn a_relative_worker_path_is_resolved_to_an_absolute_one() {
    // Unit tests run in the crate root, where `Cargo.toml` is a file.
    let resolved = resolve_worker(Some("Cargo.toml".as_ref())).expect("the file exists");
    assert!(
        resolved.is_absolute() && resolved.ends_with("Cargo.toml"),
        "{resolved:?}"
    );
    assert!(resolve_worker(Some("no_such_worker".as_ref())).is_err());
}

/// The dial-in wait both links share ends three ways: with the connection,
/// with `Lost` as soon as the local child that should have dialed is seen
/// dead, and with `Timeout` naming the window once it has passed.
#[test]
fn a_dial_in_that_never_comes_is_lost_or_times_out() {
    let nobody = || Ok(None);
    let mut child = std::process::Command::new("true")
        .spawn()
        .expect("spawn true");
    let window = Duration::from_secs(5);
    let t0 = Instant::now();
    let err = await_dial_in(nobody, Some(&mut child), window).expect_err("the child is gone");
    assert!(
        matches!(&err, WorkerFailure::Lost { detail } if detail.contains("exited during startup")),
        "{err:?}"
    );
    assert!(t0.elapsed() < window, "a dead child must fail fast");

    let window = Duration::from_millis(25);
    let err = await_dial_in(nobody, None, window).expect_err("nobody dials");
    assert_eq!(err, WorkerFailure::Timeout { after_ms: 25 });
}

/// The supervisor's hello against a peer that hangs up, says nothing, or
/// answers with something that is no hello: `Lost`, `Timeout` naming the
/// window, `Protocol` — the three a Unix link fails hard on and the TCP
/// broker drops a stray for.
#[test]
fn a_hello_that_is_not_answered_fails_typed() {
    let window = Duration::from_millis(50);
    let against = |peer: fn(UnixStream)| {
        let (sup, worker) = UnixStream::pair().expect("socketpair");
        let peer = std::thread::spawn(move || peer(worker));
        let mut sup: WireStream = Box::new(sup);
        let said = exchange_hellos(&mut sup, "", window);
        drop(sup);
        peer.join().expect("peer thread");
        said.expect_err("no hello came back")
    };
    let eof = against(|mut worker| {
        let _hello = read_frame(&mut worker).expect("read").expect("sup hello");
    });
    assert!(matches!(&eof, WorkerFailure::Lost { detail } if detail.contains("EOF")));
    let silence = against(|mut worker| {
        let _hello = read_frame(&mut worker).expect("read").expect("sup hello");
        // Hold the socket open, silently, until the supervisor hangs up.
        assert_eq!(read_frame(&mut worker).expect("clean eof"), None);
    });
    assert_eq!(silence, WorkerFailure::Timeout { after_ms: 50 });
    let garbage = against(|mut worker| {
        let _hello = read_frame(&mut worker).expect("read").expect("sup hello");
        send_json(&mut worker, &ok_json_cmd("ready")).expect("send");
    });
    assert!(matches!(&garbage, WorkerFailure::Protocol { detail } if detail.contains("hello")));
}

/// The supervisor's wait for `cluster`'s dial-in, as a worker's spawn does
/// it: hellos under a 2 s window, the connection within `window`.
fn dial_in(
    broker: &TcpBroker,
    cluster: u32,
    window: Duration,
) -> Result<WireStream, WorkerFailure> {
    let accept = || broker.poll(cluster, Duration::from_secs(2));
    await_dial_in(accept, None, window)
}

/// The broker drops a wrong-token dial-in without disturbing the run,
/// then matches the correct-token worker to its cluster.
#[test]
fn broker_ignores_strays_and_matches_by_cluster() {
    let broker = TcpBroker::bind("127.0.0.1:0", "good-token".to_string()).expect("bind");
    let stray = dial(broker.addr, "evil-token", 0);
    // Give the stray a head start so the broker meets it first. (The
    // dialers block reading the supervisor hello, so they are joined
    // only after the broker has greeted them.)
    std::thread::sleep(Duration::from_millis(50));
    let genuine = dial(broker.addr, "good-token", 0);
    let got = dial_in(&broker, 0, Duration::from_secs(5)).expect("accept");
    // The genuine worker's connection is the one handed back: prove it
    // by round-tripping a frame (the stray's socket was dropped, so
    // writing to it would fail or go nowhere).
    let mut sup_side = got;
    send_json(&mut sup_side, &ok_json_cmd("quiesce")).expect("send");
    let mut worker_side = genuine.join().expect("worker thread");
    let bytes = read_frame(&mut worker_side).expect("read").expect("frame");
    let j = parse_json(&bytes).expect("parse");
    assert_eq!(json_kind(&j).expect("kind"), "quiesce");
    drop(stray.join().expect("stray thread"));
}

/// Out-of-order dial-ins: cluster 1's worker connects while the broker
/// is waiting on cluster 0. The broker parks it and hands it back
/// instantly on the next `poll(1)` — this is also the reconnect
/// path: after a reset, a re-dialing worker is matched back to its
/// cluster by the identity in its hello, whatever order it arrives in.
#[test]
fn broker_parks_out_of_order_dialins() {
    let broker = TcpBroker::bind("127.0.0.1:0", "tok".to_string()).expect("bind");
    let w1 = dial(broker.addr, "tok", 1);
    std::thread::sleep(Duration::from_millis(50));
    let w0 = dial(broker.addr, "tok", 0);
    let s0 = dial_in(&broker, 0, Duration::from_secs(5)).expect("accept 0");
    // Cluster 1 is already parked: no new dial-in needed.
    let s1 = dial_in(&broker, 1, Duration::from_millis(200)).expect("accept 1 from pending");
    drop(s0);
    drop(s1);
    drop(w0.join().expect("w0 thread"));
    drop(w1.join().expect("w1 thread"));
}

/// A correct-token peer with a mismatched wire version or checkpoint
/// schema is fatal — the checkpoint payload must never cross a
/// mixed-version pair. A v6 worker on checkpoint schema 6 (whose messages
/// carry `seq` and whose images carry the output log), a v5 worker (which expects `ping` probes), a v4
/// worker (which answers `restore` only when it carries a `deltas` chain),
/// a v3 worker (one message per `deliver`, no `gvt` command), a v2 worker
/// (pre-checksum framing), a schema-2 worker (the only kind that could
/// still expect a `state_saving` key in `init`) or a schema-3 worker (whose
/// images carry tombstone sets) meeting this supervisor surfaces as the typed
/// [`TimeWarpError::VersionMismatch`], not as garbled frames — hellos
/// deliberately stay on the legacy framing every version can parse.
#[test]
fn broker_rejects_version_mismatch_as_fatal() {
    for theirs in [
        (6, 6),
        (5, CHECKPOINT_SCHEMA),
        (4, CHECKPOINT_SCHEMA),
        (3, CHECKPOINT_SCHEMA),
        (2, CHECKPOINT_SCHEMA),
        (WIRE_VERSION, 2),
        (WIRE_VERSION, 3),
    ] {
        let broker = TcpBroker::bind("127.0.0.1:0", "tok".to_string()).expect("bind");
        let addr = broker.addr;
        let old = std::thread::spawn(move || {
            let mut stream = TcpStream::connect(addr).expect("connect");
            let _ = read_frame(&mut stream).expect("read").expect("sup hello");
            let stale = ObjBuilder::new()
                .str("kind", "hello")
                .uint("wire", theirs.0 as u64)
                .uint("checkpoint_schema", theirs.1 as u64)
                .str("token", "tok")
                .uint("cluster", 0)
                .build();
            send_json(&mut stream, &stale).expect("send hello");
            stream
        });
        let err = dial_in(&broker, 0, Duration::from_secs(5))
            .expect_err("version mismatch must be fatal");
        assert_eq!(err, WorkerFailure::Version { theirs });
        assert!(matches!(
            fatal(0, err),
            TimeWarpError::VersionMismatch { .. }
        ));
        drop(old.join().expect("old peer thread"));
    }
}

/// A TCP worker that completes the hello but goes silent during the
/// handshake (never answers `init`) surfaces as a read timeout, which
/// the spawn path keeps *fatal*: [`TimeWarpError::WorkerTimeout`].
/// (Only post-handshake silence, once a checkpoint exists to restore
/// from, is converted to a recoverable loss.)
#[test]
fn handshake_read_timeout_is_worker_timeout() {
    let broker = Rc::new(TcpBroker::bind("127.0.0.1:0", "tok".to_string()).expect("bind"));
    let addr = broker.addr;
    let token = broker.token.clone();
    let mute = std::thread::spawn(move || {
        let mut stream = TcpStream::connect(addr).expect("connect");
        let _ = read_frame(&mut stream).expect("read").expect("sup hello");
        send_json(&mut stream, &hello_json(&token, Some(0))).expect("send hello");
        // Swallow the init frame, then go silent until the supervisor
        // gives up (keep the socket open so no EOF arrives).
        let _init = read_frame(&mut stream).expect("read init");
        std::thread::sleep(Duration::from_millis(500));
    });
    let timing = WireTiming {
        io: Duration::from_millis(50),
        connect: Duration::from_millis(2_000),
        silence: Duration::from_secs(1),
    };
    let link = Link::Tcp {
        broker,
        spawn: None,
    };
    let mut w = ProcessWorker::new(link, 0, ok_json_cmd("init"), timing, None);
    let err = w.spawn().expect_err("silent worker must time out");
    assert_eq!(err, WorkerFailure::Timeout { after_ms: 50 });
    assert!(matches!(
        fatal(0, err),
        TimeWarpError::WorkerTimeout {
            cluster: 0,
            after_ms: 50
        }
    ));
    mute.join().expect("mute thread");
}

/// A [`ProcessWorker`] on a TCP link under the silence deadline
/// `silence`, past the handshake with a fake peer that acknowledges `init`
/// like a real worker and then reads every further frame: with
/// `Some(delay)` it answers each with `ok` after `delay`, with `None` it
/// never answers. Either way it holds the socket open until the
/// supervisor hangs up.
fn fake_tcp_peer(
    silence: Duration,
    answer_after: Option<Duration>,
) -> (ProcessWorker, std::thread::JoinHandle<()>) {
    let broker = Rc::new(TcpBroker::bind("127.0.0.1:0", "tok".to_string()).expect("bind"));
    let addr = broker.addr;
    let token = broker.token.clone();
    let peer = std::thread::spawn(move || {
        let mut stream = TcpStream::connect(addr).expect("connect");
        let writer = stream.try_clone().expect("clone");
        let _ = read_frame(&mut stream).expect("read").expect("sup hello");
        send_json(&mut stream, &hello_json(&token, Some(0))).expect("send hello");
        let mut source = FrameSource::new(io::BufReader::new(stream));
        let mut sink = FrameSink::new(writer);
        let _init = source.recv().expect("read init");
        sink.send_json(&ready_json(0)).expect("send ready");
        while let Ok(Some(_)) = source.recv() {
            if let Some(delay) = answer_after {
                std::thread::sleep(delay);
                // The supervisor may have hung up meanwhile.
                let _ = sink.send_json(&ok_json_cmd("ok"));
            }
        }
    });
    let timing = WireTiming {
        io: Duration::from_millis(2_000),
        connect: Duration::from_millis(2_000),
        silence,
    };
    let link = Link::Tcp {
        broker,
        spawn: None,
    };
    let mut w = ProcessWorker::new(link, 0, ok_json_cmd("init"), timing, None);
    w.spawn().expect("handshake completes");
    (w, peer)
}

/// Post-handshake silence over TCP is crash-stop: a peer that sends
/// nothing for the silence deadline has its connection torn down and is
/// declared `Lost` — which routes it into checkpoint-restore recovery
/// instead of a fatal [`TimeWarpError::WorkerTimeout`] — in the deadline,
/// not the full I/O timeout.
#[test]
fn silence_past_the_deadline_over_tcp_becomes_lost() {
    let silence = Duration::from_millis(50);
    let (mut w, peer) = fake_tcp_peer(silence, None);
    let t0 = Instant::now();
    let err = w
        .call(&ok_json_cmd("quiesce"))
        .expect_err("silent peer must be declared lost");
    assert!(
        matches!(&err, WorkerFailure::Lost { detail } if detail.contains("no frame for 50 ms")),
        "expected a silent-peer Lost, got {err:?}"
    );
    assert!(
        t0.elapsed() < Duration::from_millis(2_000),
        "the silence deadline must beat the raw I/O timeout"
    );
    // A typed recovery signal, not a fatal timeout, counted once.
    assert!(matches!(fatal(0, err), TimeWarpError::Transport { .. }));
    assert_eq!(w.wire_counters().silent_peers, 1);
    // The connection was dropped with it: the next command fails
    // immediately, without waiting out another deadline.
    let t0 = Instant::now();
    let err = w.call(&ok_json_cmd("quiesce")).expect_err("no stream");
    assert!(matches!(err, WorkerFailure::Lost { .. }));
    assert!(t0.elapsed() < silence, "second failure should be instant");
    assert_eq!(w.wire_counters().silent_peers, 1);
    peer.join().expect("peer thread");
}

/// No false silence: a peer that takes about half the deadline to answer
/// each command is slow, not lost — every call returns its reply and no
/// connection is dropped.
#[test]
fn a_reply_within_the_deadline_is_not_silence() {
    let silence = Duration::from_millis(400);
    let (mut w, peer) = fake_tcp_peer(silence, Some(silence / 2));
    for _ in 0..3 {
        let r = w
            .call(&ok_json_cmd("quiesce"))
            .expect("a slow peer answers");
        assert_eq!(json_kind(&r).expect("kind"), "ok");
    }
    assert_eq!(w.wire_counters().silent_peers, 0);
    w.kill();
    peer.join().expect("peer thread");
}

/// On a Unix link silence stays fatal past the handshake too: a wedged
/// local child is not crash-stop, so the read window expiring is
/// [`TimeWarpError::WorkerTimeout`], and no silent peer is counted.
#[test]
fn unix_silence_after_the_handshake_is_worker_timeout() {
    let timing = WireTiming {
        io: Duration::from_millis(100),
        ..TEST_TIMING
    };
    let (mut w, peer) = attached(1, ok_json_cmd("init"), timing, scripted(Vec::new()));
    let t0 = Instant::now();
    let err = w
        .call(&ok_json_cmd("quiesce"))
        .expect_err("a mute peer times out");
    assert!(t0.elapsed() < TEST_TIMING.io, "the window is the link's");
    assert_eq!(err, WorkerFailure::Timeout { after_ms: 100 });
    assert!(matches!(
        fatal(1, err),
        TimeWarpError::WorkerTimeout { cluster: 1, .. }
    ));
    assert_eq!(w.wire_counters().silent_peers, 0);
    drop(w);
    peer.join().expect("join").expect("peer exits Ok");
}

/// `j` with its member `key` replaced by `value`.
fn with_field(j: &Json, key: &str, value: Json) -> Json {
    let Json::Object(members) = j else {
        panic!("not an object: {j:?}")
    };
    let swap =
        |(k, v): &(String, Json)| (k.clone(), if k == key { value.clone() } else { v.clone() });
    Json::Object(members.iter().map(swap).collect())
}

/// An id beyond `u32` is refused on decode, never truncated onto a real
/// cluster or net: a message for cluster `2^32` does not reach cluster 0,
/// and an `init` naming cluster, gate output, gate input, gate block or
/// primary input `2^32 + n` builds no worker.
#[test]
fn ids_beyond_u32_are_refused_on_decode() {
    let wide = |n: i64| Json::Int((1 << 32) + n);
    let msg = with_field(&channel_msg(1, Logic::One).to_json(), "dst", wide(0));
    let err = TwMessage::from_json(&msg).expect_err("dst 2^32 is no cluster");
    assert!(err.msg.contains("overflows u32"), "{}", err.msg);

    let init = tiny_init_json();
    let not = |out: Json, inp: Json| Json::Array(vec![Json::Str("not".to_string()), out, inp]);
    let gates = |first: Json| Json::Array(vec![first, not(Json::Int(2), Json::Int(1))]);
    let pair = |a: Json, b: Json| Json::Array(vec![a, b]);
    for (key, value) in [
        ("cluster", wide(1)),
        ("gates", gates(not(wide(1), Json::Int(0)))),
        ("gates", gates(not(Json::Int(1), wide(0)))),
        ("gate_block", pair(wide(0), Json::Int(1))),
        ("primary_inputs", Json::Array(vec![wide(0)])),
    ] {
        let err = worker_init_from_json(&with_field(&init, key, value.clone()))
            .err()
            .expect("refused");
        assert!(err.contains("overflows u32"), "{key} = {value:?}: {err}");
    }
    assert!(worker_init_from_json(&init).is_ok());
}

/// An `init` naming a net outside its `nets` builds no worker, in every
/// field that names nets: a served worker answers it with a typed `error`
/// frame instead of panicking while it builds its cluster.
#[test]
fn init_nets_outside_the_netlist_are_refused() {
    let init = tiny_init_json();
    let stim = |key: &str, value: Json| with_field(init.field("stim").expect("stim"), key, value);
    let beyond = Json::Int(9); // the chain has 3 nets
    let cases = [
        ("primary_inputs", Json::Array(vec![beyond.clone()])),
        ("const0", beyond.clone()),
        ("const1", beyond.clone()),
        (
            "stim",
            stim("data_inputs", Json::Array(vec![beyond.clone()])),
        ),
        ("stim", stim("clock", beyond.clone())),
    ];
    for (key, value) in &cases {
        let err = worker_init_from_json(&with_field(&init, key, value.clone()))
            .err()
            .expect("refused");
        assert!(
            err.contains("net 9 out of range"),
            "{key} = {value:?}: {err}"
        );
    }

    let (mut sink, mut source, handle) = hello_session();
    sink.send_json(&with_field(&init, "const1", beyond))
        .expect("send init");
    let reply = parse_json(&source.recv().expect("read").expect("reply")).expect("parse");
    assert_eq!(json_kind(&reply).expect("kind"), "error");
    let detail = reply
        .field("detail")
        .and_then(Json::as_str)
        .expect("detail");
    assert!(detail.contains("net 9 out of range"), "{detail}");
    assert_eq!(source.recv().expect("clean eof"), None);
    handle.join().expect("join").expect("serve_wire exits Ok");
}

/// An `init` whose netlist breaks a rule the worker's tables assume — a
/// gate's arity, one driver per net, undriven primary inputs — builds no
/// worker: a served worker answers it with a typed `error` frame instead of
/// panicking while it builds its cluster.
#[test]
fn init_netlists_that_fail_validation_are_refused() {
    let init = tiny_init_json();
    let gate = |kind: &str, pins: &[i64]| {
        let pins = pins.iter().map(|&n| Json::Int(n));
        Json::Array(
            std::iter::once(Json::Str(kind.to_string()))
                .chain(pins)
                .collect(),
        )
    };
    let gates = |second: Json| Json::Array(vec![gate("not", &[1, 0]), second]);
    let no_clock = with_field(&init, "gates", gates(gate("dff", &[2])));
    let cases = [
        (no_clock.clone(), "(dff) has invalid arity 0"),
        (
            with_field(&init, "gates", gates(gate("not", &[1, 0]))),
            "expected g0",
        ),
        (
            with_field(&init, "primary_inputs", uint_array(&[1])),
            "has a driver",
        ),
    ];
    for (frame, why) in &cases {
        let err = worker_init_from_json(frame).err().expect("refused");
        assert!(err.contains(why), "{err}");
    }

    let (mut sink, mut source, handle) = hello_session();
    sink.send_json(&no_clock).expect("send init");
    let reply = parse_json(&source.recv().expect("read").expect("reply")).expect("parse");
    assert_eq!(json_kind(&reply).expect("kind"), "error");
    let detail = reply
        .field("detail")
        .and_then(Json::as_str)
        .expect("detail");
    assert!(detail.contains("invalid arity"), "{detail}");
    assert_eq!(source.recv().expect("clean eof"), None);
    handle.join().expect("join").expect("serve_wire exits Ok");
}

#[test]
fn checkpoint_payload_crosses_a_real_socket() {
    let ck = sample_checkpoint();
    let (a, b) = UnixStream::pair().expect("socketpair");
    let payload = ck.to_json();
    let writer = std::thread::spawn(move || {
        // Checkpoints ride the checksummed v3 framing in production.
        let mut sink = FrameSink::new(a);
        sink.send_json(&payload).expect("send checkpoint");
    });
    let mut source = FrameSource::new(io::BufReader::new(b));
    let bytes = source.recv().expect("read").expect("one frame");
    let back =
        Checkpoint::from_json(&parse_json(&bytes).expect("parse")).expect("checkpoint decodes");
    assert_eq!(back.schema, ck.schema);
    assert_eq!(back.cluster, ck.cluster);
    assert_eq!(back.gvt, ck.gvt);
    assert_eq!(back.values, ck.values);
    assert_eq!(back.replaced, ck.replaced);
    assert_eq!(back.stim_cycle, ck.stim_cycle);
    writer.join().expect("writer thread");
}

/// Hand-authored `init` frame for a two-cluster chain `net0 → not →
/// net1 → not → net2`. The served worker is cluster 1, whose single
/// gate reads net 1 — the 0→1 message channel the tests below drive.
/// The stimulus seed deliberately exceeds `i64::MAX`: it must survive
/// the JSON codec's decimal-string fallback losslessly (a saturated
/// seed once made workers simulate a different stimulus than their
/// supervisor).
fn tiny_init_json() -> Json {
    chain_init_json(&[0, 1], 2)
}

/// `init` frame for cluster 1 of a chain of inverters, gate `i` reading
/// net `i`, driving net `i + 1` and living in cluster `gate_block[i]`.
fn chain_init_json(gate_block: &[u64], period: u64) -> Json {
    let gate = |i: usize| {
        let net = |n: usize| Json::Int(n as i64);
        Json::Array(vec![Json::Str("not".to_string()), net(i + 1), net(i)])
    };
    ObjBuilder::new()
        .str("kind", "init")
        .uint("cluster", 1)
        .uint("k", 2)
        .bool("check", true)
        .str("label", "serve-unit")
        .uint("cycles", 4)
        .uint("nets", gate_block.len() as u64 + 1)
        .field("const0", Json::Null)
        .field("const1", Json::Null)
        .field("primary_inputs", uint_array(&[0]))
        .array("gates", (0..gate_block.len()).map(gate).collect())
        .field("gate_block", uint_array(gate_block))
        .field(
            "stim",
            ObjBuilder::new()
                .field("data_inputs", uint_array(&[0]))
                .field("clock", Json::Null)
                .uint("period", period)
                .uint("seed", 11_601_856_998_475_820_192)
                .build(),
        )
        .build()
}

type WorkerSession = (
    FrameSink<WireStream>,
    FrameSource<io::BufReader<WireStream>>,
    std::thread::JoinHandle<io::Result<()>>,
);

/// Complete the hello + init handshake against a real [`serve_wire`]
/// worker over a Unix socketpair, returning the supervisor side of
/// the checksummed v3 framing with the worker ready for commands.
fn worker_session() -> WorkerSession {
    let (mut sink, mut source, handle) = hello_session();
    sink.send_json(&tiny_init_json()).expect("send init");
    let ready = source.recv().expect("read").expect("ready frame");
    let ready = parse_json(&ready).expect("parse ready");
    assert_eq!(json_kind(&ready).expect("kind"), "ready");
    (sink, source, handle)
}

/// Complete the hello exchange against a real [`serve_wire`] worker over
/// a Unix socketpair; the worker waits for its `init`.
fn hello_session() -> WorkerSession {
    let (sup, worker) = UnixStream::pair().expect("socketpair");
    let handle = std::thread::spawn(move || serve_wire(Box::new(worker), None, ""));
    let mut writer: WireStream = Box::new(sup);
    let mut reader = io::BufReader::new(writer.try_clone().expect("clone"));
    send_json(&mut writer, &hello_json("", None)).expect("send hello");
    let reply = read_frame(&mut reader)
        .expect("read")
        .expect("worker hello");
    let reply = hello_parse(&parse_json(&reply).expect("parse")).expect("hello");
    assert_eq!(reply.versions(), (WIRE_VERSION, CHECKPOINT_SCHEMA));
    (FrameSink::new(writer), FrameSource::new(reader), handle)
}

fn channel_msg(time: VTime, value: Logic) -> TwMessage {
    TwMessage {
        src: 0,
        dst: 1,
        ev: crate::wheel::NetEvent {
            time,
            net: NetId(1),
            value,
        },
        anti: false,
    }
}

/// The `round` frame that delivers `msgs` and nothing else.
fn deliver_cmd(msgs: &[TwMessage]) -> Json {
    let round = RoundCmd {
        msgs: msgs.to_vec(),
        ..RoundCmd::default()
    };
    parse_json(round_frame(&round).as_bytes()).expect("a round frame parses")
}

/// `round` frames round-trip through a real worker over a real socket —
/// a worker whose `init` carried a stimulus seed above `i64::MAX` (see
/// [`tiny_init_json`]): a round of one message, a round of two that also
/// steps, each answered with one `done`, and a round that asks for an
/// image, answered with `done` and then the image of the worker's cluster
/// at the round's GVT.
#[test]
fn deliver_round_trips_through_a_real_worker() {
    let (mut sink, mut source, handle) = worker_session();
    let m = |time| channel_msg(time, Logic::One);
    let rounds = [
        (vec![m(1)], None, false),
        (vec![m(2), m(3)], Some(2), false),
        (Vec::new(), None, true),
    ];
    for (msgs, step, image) in rounds {
        let round = RoundCmd {
            gvt: 1,
            msgs,
            step,
            image,
        };
        let frame = parse_json(round_frame(&round).as_bytes()).expect("parse");
        assert_eq!(
            round_from_json(&frame),
            Ok(round.clone()),
            "the frame decodes"
        );
        sink.send(round_frame(&round).as_bytes())
            .expect("send round");
        let reply = parse_json(&source.recv().expect("read").expect("reply")).expect("parse");
        assert_eq!(json_kind(&reply).expect("kind"), "done");
        done_from(&reply).expect("an LVT and the sends");
        if image {
            let image = source.recv().expect("read").expect("image");
            let ck = Checkpoint::from_json(&parse_json(&image).expect("parse"));
            let ck = ck.expect("an image");
            assert_eq!((ck.cluster, ck.gvt), (1, 1));
        }
    }
    sink.send_json(&ok_json_cmd("finish")).expect("send finish");
    let reply = parse_json(&source.recv().expect("read").expect("reply")).expect("parse");
    assert_eq!(json_kind(&reply).expect("kind"), "finished");
    assert_eq!(source.recv().expect("clean eof"), None);
    handle.join().expect("join").expect("serve_wire exits Ok");
}

/// Send `cmd` to a fresh served worker and return the `detail` of the
/// typed `error` frame it must answer with before hanging up.
fn refusal_of(cmd: &Json) -> String {
    let (mut sink, mut source, handle) = worker_session();
    sink.send_json(cmd).expect("send command");
    let reply = parse_json(&source.recv().expect("read").expect("reply")).expect("parse");
    assert_eq!(json_kind(&reply).expect("kind"), "error", "{cmd:?}");
    let detail = reply.field("detail").and_then(Json::as_str);
    let detail = detail.expect("detail").to_string();
    assert_eq!(source.recv().expect("clean eof"), None);
    handle.join().expect("join").expect("serve_wire exits Ok");
    detail
}

/// An anti-message whose positive never arrived cannot be annihilated.
/// The kernel counts it instead of parking it: an in-process worker
/// fails its quiescence check on it, and a served worker answers the
/// `deliver` frame with a typed `error` frame and hangs up.
#[test]
fn lone_anti_message_is_refused() {
    let mut anti = channel_msg(3, Logic::One);
    anti.anti = true;

    let init = worker_init_from_json(&tiny_init_json()).expect("init parses");
    let plan = ClusterPlan::new(&init.netlist, &init.gate_block, init.k);
    let mut w = InProcWorker::new(
        &init.netlist,
        &plan,
        init.stim,
        init.cycles,
        true,
        "lone-anti",
        init.cluster,
    );
    deliver(&mut w, &[anti]);
    run_dry(&mut w);
    let refused = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| w.check_quiescence()))
        .expect_err("quiescence check must fail");
    let message = panic_message(refused.as_ref());
    assert!(message.contains("no positive"), "unexpected: {message}");

    let detail = refusal_of(&deliver_cmd(&[anti]));
    assert!(detail.contains("no positive"), "unexpected: {detail}");
}

/// Run `f` on a check-mode in-process worker for cluster 1 of
/// [`tiny_init_json`]'s chain, which reads net 1 and drives net 2.
fn with_tiny_worker<R>(label: &str, f: impl FnOnce(&mut InProcWorker<'_, '_>) -> R) -> R {
    let init = worker_init_from_json(&tiny_init_json()).expect("init parses");
    let plan = ClusterPlan::new(&init.netlist, &init.gate_block, init.k);
    let mut w = InProcWorker::new(
        &init.netlist,
        &plan,
        init.stim,
        init.cycles,
        true,
        label,
        init.cluster,
    );
    f(&mut w)
}

/// Process everything `w` holds.
fn run_dry(w: &mut InProcWorker<'_, '_>) {
    let step = RoundCmd {
        step: Some(VTime::MAX),
        ..RoundCmd::default()
    };
    while w.lvt().expect("in-proc lvt") != VTime::MAX {
        w.serve(&step).expect("in-proc step");
    }
}

/// Hand `msgs` to `w` in a round that does nothing else.
fn deliver(w: &mut InProcWorker<'_, '_>, msgs: &[TwMessage]) -> RoundReply {
    let round = RoundCmd {
        msgs: msgs.to_vec(),
        ..RoundCmd::default()
    };
    w.serve(&round).expect("in-proc round")
}

/// An anti-message names its positive by time and net, so a second anti
/// for the same pair finds nothing left and counts as a stray.
#[test]
fn second_anti_message_for_one_time_and_net_is_stray() {
    with_tiny_worker("second-anti", |w| {
        let positive = channel_msg(4, Logic::One);
        let anti = TwMessage {
            anti: true,
            ..positive
        };
        deliver(w, &[positive]);
        deliver(w, &[anti]);
        assert_eq!(w.stray_anti_messages().expect("alive"), 0);
        deliver(w, &[anti]);
        assert_eq!(w.stray_anti_messages().expect("alive"), 1);
    });
}

/// Two positives on one time and net break the protocol; their anti-message
/// would annihilate both, which check mode refuses.
#[test]
fn check_mode_refuses_an_anti_message_that_annihilates_two_events() {
    let refused = std::panic::catch_unwind(|| {
        with_tiny_worker("two-positives", |w| {
            let anti = TwMessage {
                anti: true,
                ..channel_msg(4, Logic::One)
            };
            for m in [channel_msg(4, Logic::One), channel_msg(4, Logic::X), anti] {
                deliver(w, &[m]);
            }
        })
    })
    .expect_err("check mode must refuse");
    let message = panic_message(refused.as_ref());
    assert!(
        message.contains("annihilated 2 events"),
        "unexpected: {message}"
    );
}

/// A processed positive, its anti-message (which rolls the worker back and
/// annihilates the requeued positive), then a re-send of the same time and
/// net with another value: the re-sent value is the one that stays.
#[test]
fn resent_positive_after_a_rollback_wins() {
    let (stats, values) = with_tiny_worker("resend", |w| {
        let positive = channel_msg(4, Logic::One);
        deliver(w, &[positive]);
        run_dry(w);
        let anti = TwMessage {
            anti: true,
            ..positive
        };
        deliver(w, &[anti]);
        deliver(w, &[channel_msg(4, Logic::X)]);
        run_dry(w);
        w.check_quiescence().expect("quiescent");
        w.finish().expect("finish")
    });
    assert_eq!(stats.rollbacks, 1);
    assert_eq!(&values[1..], [Logic::X, Logic::X]);
}

/// Removed vocabulary is rejected, not ignored: a worker handed the
/// batching PR's `msg_batch` or `deliver_next`, wire v3's `fossil`,
/// `ckpt` or `ckpt_delta`, wire v7's `step`, `deliver` or `gvt` (which
/// one `round` replaced), answers with a typed `error` frame (which the
/// supervisor maps to [`WorkerFailure::Protocol`]) and hangs up. So does
/// one handed a `round` without its `msgs` or `image`, or a v4 `restore`
/// carrying a `deltas` chain.
#[test]
fn removed_batch_commands_are_unknown() {
    let m = channel_msg(1, Logic::One);
    let at_gvt = |kind: &str| {
        ObjBuilder::new()
            .str("kind", kind)
            .field("gvt", vtime_json(0))
    };
    let refused = [
        (
            ObjBuilder::new()
                .str("kind", "msg_batch")
                .uint("src", 0)
                .array("msgs", vec![m.to_json()])
                .build(),
            "unknown command kind",
        ),
        (
            ObjBuilder::new()
                .str("kind", "deliver_next")
                .uint("src", 0)
                .uint("seq", 1)
                .bool("anti", m.anti)
                .build(),
            "unknown command kind",
        ),
        (at_gvt("fossil").build(), "unknown command kind"),
        (at_gvt("ckpt").build(), "unknown command kind"),
        (at_gvt("ckpt_delta").build(), "unknown command kind"),
        (
            at_gvt("gvt").str("image", "base").build(),
            "unknown command kind",
        ),
        (
            ObjBuilder::new()
                .str("kind", "step")
                .field("limit", vtime_json(9))
                .build(),
            "unknown command kind",
        ),
        (
            ObjBuilder::new()
                .str("kind", "deliver")
                .array("msgs", vec![m.to_json()])
                .build(),
            "unknown command kind",
        ),
        (
            at_gvt("round").bool("image", false).build(),
            "missing field `msgs`",
        ),
        (
            at_gvt("round").array("msgs", Vec::new()).build(),
            "missing field `image`",
        ),
        (
            ObjBuilder::new()
                .str("kind", "restore")
                .field("ck", sample_checkpoint().to_json())
                .array("deltas", Vec::new())
                .array("ops", Vec::new())
                .build(),
            "`deltas` chain",
        ),
    ];
    for (cmd, why) in &refused {
        let detail = refusal_of(cmd);
        assert!(detail.contains(why), "{cmd:?} refused with: {detail}");
    }
}

/// A `restore` carries an image of the served worker's own cluster over
/// its netlist's nets. Any other image is refused with a typed `error`,
/// so the worker neither simulates another cluster nor indexes past its
/// plan.
#[test]
fn restore_of_a_foreign_image_is_refused() {
    let restore = |cluster: u32, nets: usize| {
        let ck = Checkpoint {
            cluster,
            values: vec![Logic::Zero; nets],
            ..sample_checkpoint()
        };
        ObjBuilder::new()
            .str("kind", "restore")
            .field("ck", ck.to_json())
            .array("ops", Vec::new())
            .build()
    };
    for (cmd, why) in [
        (restore(0, 3), "image of cluster 0"),
        (restore(2, 3), "image of cluster 2"),
        (restore(1, 4), "4 net values"),
        (restore(1, 2), "2 net values"),
    ] {
        let detail = refusal_of(&cmd);
        assert!(detail.contains(why), "{detail}");
    }

    // The worker's own image is taken.
    let (mut sink, mut source, handle) = worker_session();
    sink.send_json(&restore(1, 3)).expect("send restore");
    let reply = parse_json(&source.recv().expect("read").expect("reply")).expect("parse");
    assert_eq!(json_kind(&reply).expect("kind"), "ready");
    sink.send_json(&ok_json_cmd("finish")).expect("send finish");
    let reply = parse_json(&source.recv().expect("read").expect("reply")).expect("parse");
    assert_eq!(json_kind(&reply).expect("kind"), "finished");
    assert_eq!(source.recv().expect("clean eof"), None);
    handle.join().expect("join").expect("serve_wire exits Ok");
}

/// A served worker takes only messages for its own cluster on a net it
/// imports. One on a net the netlist lacks, one for another cluster, and
/// one on the net the worker itself drives are each refused with a typed
/// `error`; so is a `restore` image with an event on a net the netlist
/// lacks.
#[test]
fn deliveries_and_images_naming_foreign_nets_are_refused() {
    let on_net = |net: u32| TwMessage {
        ev: crate::wheel::NetEvent {
            net: NetId(net),
            ..channel_msg(3, Logic::One).ev
        },
        ..channel_msg(3, Logic::One)
    };
    let for_cluster_0 = TwMessage {
        dst: 0,
        ..channel_msg(3, Logic::One)
    };
    for (msg, why) in [
        (on_net(99), "cluster 1 on net 99"),
        (for_cluster_0, "cluster 0 on net 1"),
        (on_net(2), "cluster 1 on net 2"),
    ] {
        let detail = refusal_of(&deliver_cmd(&[channel_msg(2, Logic::Zero), msg]));
        assert!(detail.contains(why), "{detail}");
    }

    for (pending, processed) in [(99, 1), (1, 99)] {
        let event = |net: u32| crate::wheel::NetEvent {
            time: 18,
            net: NetId(net),
            value: Logic::One,
        };
        let ck = Checkpoint {
            cluster: 1,
            values: vec![Logic::Zero; 3],
            pending: vec![event(pending)],
            processed: vec![event(processed)],
            ..sample_checkpoint()
        };
        let restore = ObjBuilder::new()
            .str("kind", "restore")
            .field("ck", ck.to_json())
            .array("ops", Vec::new())
            .build();
        let detail = refusal_of(&restore);
        assert!(detail.contains("event on net 99"), "{detail}");
    }
}

const TEST_TIMING: WireTiming = WireTiming {
    io: Duration::from_millis(5_000),
    connect: Duration::from_millis(5_000),
    silence: Duration::from_secs(1),
};

/// A [`ProcessWorker`] on one end of a socketpair whose other end
/// `peer` plays, past the hello and `init` handshake it is handed the
/// checksummed framing for.
fn attached(
    cluster: u32,
    init: Json,
    timing: WireTiming,
    peer: impl FnOnce(WireStream) -> io::Result<()> + Send + 'static,
) -> (ProcessWorker, std::thread::JoinHandle<io::Result<()>>) {
    let (sup, worker) = UnixStream::pair().expect("socketpair");
    let handle = std::thread::spawn(move || peer(Box::new(worker)));
    let link = Link::Unix {
        bin: PathBuf::new(),
    };
    let mut w = ProcessWorker::new(link, cluster, init, timing, None);
    let mut sup: WireStream = Box::new(sup);
    let theirs = exchange_hellos(&mut sup, "", timing.io).expect("hello");
    same_versions(&theirs).expect("versions");
    w.adopt(sup).expect("handshake");
    (w, handle)
}

/// A peer that completes the handshake like a real worker, then answers
/// the commands it is sent with the frames of `replies`, one entry per
/// command, in order, whatever they ask, and reads on without answering
/// until the supervisor hangs up.
fn scripted(replies: Vec<Vec<String>>) -> impl FnOnce(WireStream) -> io::Result<()> + Send {
    move |mut stream| {
        let mut writer = stream.try_clone()?;
        let _hello = read_frame(&mut stream)?;
        send_json(&mut writer, &hello_json("", None))?;
        let mut source = FrameSource::new(io::BufReader::new(stream));
        let mut sink = FrameSink::new(writer);
        let _init = source.recv().map_err(wire_io)?;
        sink.send_json(&ready_json(0)).map_err(wire_io)?;
        for frames in replies {
            let _command = source.recv().map_err(wire_io)?;
            for frame in frames {
                sink.send(frame.as_bytes()).map_err(wire_io)?;
            }
        }
        while source.recv().map_err(wire_io)?.is_some() {}
        Ok(())
    }
}

/// What a worker says is checked where it enters the supervisor: a round
/// answered with anything but `done`, or with a `done` that lacks its
/// LVT, and a round that asked for an image answered with an image of
/// another cluster, another GVT, or the other kind — or with no image —
/// is a typed protocol failure. Never a panic, never stored, and never
/// counted as a frame that carried its messages.
#[test]
fn replies_that_do_not_fit_their_command_are_protocol_failures() {
    let done = |j: Json| j.emit().expect("emit");
    let quiet = done(done_json(5, &[]));
    let image_of = |cluster: u32, gvt: VTime| {
        let mut ck = sample_checkpoint();
        (ck.cluster, ck.gvt) = (cluster, gvt);
        ck.to_json().emit().expect("emit")
    };
    let delta = image_of(1, 17).replace("\"tw_checkpoint\"", "\"tw_checkpoint_delta\"");
    let lvt_less = done(
        ObjBuilder::new()
            .str("kind", "done")
            .array("sends", Vec::new())
            .build(),
    );
    let cases = [
        (false, vec![quiet.clone()], true),
        (false, vec![done(ready_json(5))], false),
        (false, vec![lvt_less], false),
        (true, vec![quiet.clone(), image_of(1, 17)], true),
        (true, vec![quiet.clone(), image_of(2, 17)], false),
        (true, vec![quiet.clone(), image_of(1, 16)], false),
        (true, vec![quiet.clone(), delta], false),
        (true, vec![quiet.clone(), quiet.clone()], false),
    ];
    for (image, replies, fits) in cases {
        let label = format!("{replies:.120?}");
        let (w, peer) = attached(
            1,
            ok_json_cmd("init"),
            TEST_TIMING,
            scripted(vec![replies.clone()]),
        );
        let round = RoundCmd {
            gvt: 17,
            msgs: vec![channel_msg(18, Logic::One), channel_msg(19, Logic::Zero)],
            step: None,
            image,
        };
        let mut workers = [w];
        let answered = ProcessWorker::round(&mut workers, &[round], None);
        match answered.into_iter().next().expect("one reply per worker") {
            Ok(reply) if fits => {
                assert_eq!(reply.lvt, 5, "{label}");
                if image {
                    assert_eq!(reply.image, replies[1], "the image is kept as received");
                }
            }
            Err(WorkerFailure::Protocol { .. }) if !fits => {}
            other => panic!("{label}: {other:?}"),
        }
        let counted = workers[0].wire_counters();
        let expected = if fits { (1, 2) } else { (0, 0) };
        assert_eq!(
            (counted.frames_sent, counted.messages_sent),
            expected,
            "{label}"
        );
        drop(workers);
        peer.join().expect("join").expect("peer exits Ok");
    }
}

/// A worker sends as itself to another cluster of the run. A `done` frame
/// reporting any other send ends the run as a protocol failure of the
/// cluster that reported it: never an index out of bounds, and never a
/// message queued on another pair's channel, where its receiver would take
/// the blame.
#[test]
fn sends_a_worker_does_not_own_are_its_protocol_failure() {
    let (nl, gate_block) = wired_case();
    let plan = ClusterPlan::new(&nl, &gate_block, 3);
    let stim = VectorStimulus::from_netlist(&nl, 10, 7);
    let label = "forged sends";
    for (src, dst) in [(0, 9), (0, 40), (0, 7), (2, 1), (0, 0)] {
        let forged = TwMessage {
            src,
            dst,
            ..channel_msg(3, Logic::One)
        };
        let done = done_json(5, &[forged]).emit().expect("emit");
        let (mut workers, peers): (Vec<_>, Vec<_>) = (0..3)
            .map(|me| {
                let init = init_json(&nl, &plan, &stim, 12, true, me, label);
                if me == 0 {
                    attached(me, init, TEST_TIMING, scripted(vec![vec![done.clone()]]))
                } else {
                    attached(me, init, TEST_TIMING, |stream| serve_wire(stream, None, ""))
                }
            })
            .unzip();
        let run = run_supervisor(
            &nl,
            &plan,
            &stim,
            12,
            &wired_cfg(),
            Some(&mut Eager),
            true,
            label,
            &mut workers,
            false,
        );
        match run {
            Err(TimeWarpError::Transport { cluster: 0, detail }) => assert!(
                detail.contains(&format!("from cluster {src} to cluster {dst}")),
                "{detail}"
            ),
            other => panic!("a send {src} -> {dst} reported by cluster 0: {other:?}"),
        }
        drop(workers);
        for peer in peers {
            peer.join().expect("join").expect("peer exits Ok");
        }
    }
}

fn sample_checkpoint() -> Checkpoint {
    Checkpoint {
        schema: CHECKPOINT_SCHEMA,
        cluster: 2,
        gvt: 17,
        values: vec![Logic::Zero, Logic::One, Logic::X, Logic::Z],
        pending: Vec::new(),
        processed: vec![crate::wheel::NetEvent {
            time: 12,
            net: NetId(1),
            value: Logic::One,
        }],
        replaced: vec![Logic::X],
        stim_cycle: 5,
        last_time: 16,
        settled: true,
        stats: SimStats::default(),
    }
}

/// The `restore` frame is assembled around an image kept as text; it
/// must be, byte for byte, the frame an encoder over the decoded image
/// would emit — and read back as the image it was built from.
#[test]
fn restore_frame_around_kept_text_is_the_canonical_frame() {
    let base = sample_checkpoint();
    let ops = [
        ReplayOp::Step { limit: 39 },
        ReplayOp::Deliver(channel_msg(25, Logic::One)),
        ReplayOp::Fossil(VTime::MAX),
    ];
    let text = |j: Json| j.emit().expect("emit");
    let frame = restore_frame(&text(base.to_json()), &ops);
    let encoded = ObjBuilder::new()
        .str("kind", "restore")
        .field("ck", base.to_json())
        .array("ops", ops.iter().map(replay_op_json).collect());
    assert_eq!(frame, text(encoded.build()));
    let back = Json::parse(&frame).expect("the frame parses");
    let ck = Checkpoint::from_json(back.field("ck").expect("ck")).expect("decodes");
    assert_eq!(ck, base);
}

// -- Rounds ---------------------------------------------------------------

use dvs_workloads::seqcirc::{generate_counter, generate_lfsr};
use dvs_workloads::viterbi::{generate_viterbi, ViterbiParams};
use proptest::prelude::*;

fn elaborate(src: &str) -> Netlist {
    dvs_verilog::parse_and_elaborate(src)
        .expect("generated circuit elaborates")
        .into_netlist()
}

/// A round's deliveries against their model. Two copies of a two-cluster
/// run are driven in lockstep, `burst` epochs per cluster at a time, each
/// cluster then handed what the other sent: the *model* one message per
/// round and then a round per epoch, the *subject* the whole queue in the
/// round of its first epoch — the two orders a per-decision schedule and
/// the lock-step rounds hand messages over in. Each cluster must emit the
/// same messages in the same order and reach the same LVT on both sides,
/// and both copies must end in the same state. Returns how many subject
/// rounds carried more than one message.
fn a_round_applies_what_single_deliveries_apply(
    nl: &Netlist,
    gate_block: &[u32],
    stim_seed: u64,
    cycles: u64,
    burst: usize,
) -> usize {
    let plan = ClusterPlan::new(nl, gate_block, 2);
    let stim = VectorStimulus::from_netlist(nl, 10, stim_seed);
    let pair = |label: &str| -> Vec<InProcWorker<'_, '_>> {
        let worker = |me| InProcWorker::new(nl, &plan, stim.clone(), cycles, true, label, me);
        vec![worker(0), worker(1)]
    };
    let (mut model, mut subject) = (pair("model"), pair("subject"));
    let serve = |w: &mut InProcWorker<'_, '_>, cmd: RoundCmd| w.serve(&cmd).expect("round");
    let step = RoundCmd {
        step: Some(VTime::MAX),
        ..RoundCmd::default()
    };
    let mut queued: [Vec<TwMessage>; 2] = [Vec::new(), Vec::new()];
    let mut several = 0;
    loop {
        for c in 0..2 {
            let msgs = std::mem::take(&mut queued[c]);
            several += usize::from(msgs.len() > 1);
            let mut want = Vec::new();
            for &m in &msgs {
                let one = RoundCmd {
                    msgs: vec![m],
                    ..RoundCmd::default()
                };
                want.extend(serve(&mut model[c], one).sends);
            }
            let mut got = serve(
                &mut subject[c],
                RoundCmd {
                    msgs,
                    ..step.clone()
                },
            )
            .sends;
            want.extend(serve(&mut model[c], step.clone()).sends);
            for _ in 1..burst {
                got.extend(serve(&mut subject[c], step.clone()).sends);
                want.extend(serve(&mut model[c], step.clone()).sends);
            }
            assert_eq!(got, want, "cluster {c}'s sends");
            let lvts = (model[c].lvt().expect("lvt"), subject[c].lvt().expect("lvt"));
            assert_eq!(lvts.1, lvts.0, "cluster {c}'s LVT");
            queued[1 - c].extend(got);
        }
        let idle = |w: &mut InProcWorker<'_, '_>| w.lvt().expect("lvt") == VTime::MAX;
        if model.iter_mut().all(idle) && queued.iter().all(Vec::is_empty) {
            break;
        }
    }
    let image = RoundCmd {
        image: true,
        ..RoundCmd::default()
    };
    for c in 0..2 {
        let (want, got) = (
            serve(&mut model[c], image.clone()),
            serve(&mut subject[c], image.clone()),
        );
        assert_eq!(got.image, want.image, "cluster {c}'s final image");
    }
    several
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn a_round_applies_what_single_deliveries_apply_on_any_split(
        circuit in (any::<bool>(), 2u32..6),
        seeds in (any::<u64>(), any::<u64>()),
        pace in (6u64..24, 1usize..12),
    ) {
        let ((counter, bits), (part_seed, stim_seed), (cycles, burst)) = (circuit, seeds, pace);
        let nl = elaborate(&if counter {
            generate_counter(bits)
        } else {
            generate_lfsr(bits.max(2), &[bits.max(2), 1])
        });
        // Any split into two non-empty clusters.
        let mut bits_of = part_seed;
        let mut gate_block: Vec<u32> = (0..nl.gate_count())
            .map(|_| {
                bits_of = bits_of.rotate_left(7).wrapping_mul(0x9E37_79B9_7F4A_7C15);
                (bits_of >> 63) as u32
            })
            .collect();
        gate_block[0] = 0;
        gate_block[1] = 1;
        a_round_applies_what_single_deliveries_apply(&nl, &gate_block, stim_seed, cycles, burst);
    }
}

/// The fixed case: the benchmark's 6 126-gate decoder under its
/// design-driven two-way partition, where a cluster's queue often holds
/// several messages, anti-messages among them.
#[test]
fn a_round_applies_what_single_deliveries_apply_on_the_decoder() {
    let params = ViterbiParams {
        constraint_len: 6,
        ..ViterbiParams::paper_class()
    };
    let nl = elaborate(&generate_viterbi(&params));
    assert_eq!(nl.gate_count(), 6_126);
    let part = dvs_core::partition_multiway(&nl, &dvs_core::MultiwayConfig::new(2, 10.0));
    let several = a_round_applies_what_single_deliveries_apply(&nl, &part.gate_blocks, 1, 6, 3);
    assert!(
        several >= 10,
        "only {several} rounds carried several messages"
    );
}

/// Real served workers — `serve_wire` threads on socketpairs — driven
/// by the supervisor, in rounds when `schedule` is `None`. `track` arms
/// the images.
fn run_wired(
    nl: &Netlist,
    plan: &ClusterPlan,
    stim: &VectorStimulus,
    cycles: u64,
    schedule: Option<&mut dyn Schedule>,
) -> TwRunResult {
    let label = "wired";
    let (mut workers, peers): (Vec<_>, Vec<_>) = (0..plan.k as u32)
        .map(|me| {
            let init = init_json(nl, plan, stim, cycles, true, me, label);
            attached(me, init, TEST_TIMING, |stream| serve_wire(stream, None, ""))
        })
        .unzip();
    let cfg = wired_cfg();
    let run = run_supervisor(
        nl,
        plan,
        stim,
        cycles,
        &cfg,
        schedule,
        true,
        label,
        &mut workers,
        true,
    );
    drop(workers);
    for peer in peers {
        peer.join().expect("join").expect("serve_wire exits Ok");
    }
    run.expect("wired run")
}

/// A hand-written schedule: deliver whenever something is queued.
struct Eager;

impl Schedule for Eager {
    fn next(&mut self, view: &DstView<'_>) -> DstAction {
        view.action_at(0)
    }
}

/// The kill harnesses' kernel settings: short quanta, frequent rounds.
fn wired_cfg() -> TimeWarpConfig {
    TimeWarpConfig {
        window: 8,
        epochs_per_quantum: 2,
        ..TimeWarpConfig::default()
    }
}

fn wired_case() -> (Netlist, Vec<u32>) {
    let nl = elaborate(&generate_viterbi(&ViterbiParams::tiny()));
    let part = dvs_core::partition_multiway(&nl, &dvs_core::MultiwayConfig::new(3, 20.0));
    (nl, part.gate_blocks)
}

/// Rounds over real served workers are the in-process rounds, counter
/// for counter, with images on the way; a receiver takes every message of
/// a round in one frame, where a per-decision schedule pays a frame per
/// message.
#[test]
fn a_round_carries_every_message_of_a_receiver_in_one_frame() {
    let (nl, gate_block) = wired_case();
    let plan = ClusterPlan::new(&nl, &gate_block, 3);
    let stim = VectorStimulus::from_netlist(&nl, 10, 7);
    let rounds = run_wired(&nl, &plan, &stim, 12, None);
    let mut workers: Vec<_> = (0..3)
        .map(|me| InProcWorker::new(&nl, &plan, stim.clone(), 12, true, "in-proc", me))
        .collect();
    let cfg = wired_cfg();
    let in_proc = run_supervisor(
        &nl,
        &plan,
        &stim,
        12,
        &cfg,
        None,
        true,
        "in-proc",
        &mut workers,
        false,
    );
    let in_proc = in_proc.expect("in-proc rounds");
    assert_eq!(rounds.stats, in_proc.stats);
    assert_eq!(rounds.cluster_stats, in_proc.cluster_stats);
    assert_eq!(rounds.values, in_proc.values);
    assert_eq!(rounds.gvt_rounds, in_proc.gvt_rounds);
    let wire = &rounds.recovery;
    assert!(wire.checkpoint_bytes_full > 0, "no image was taken");
    let emitted = rounds.stats.messages + rounds.stats.anti_messages;
    assert_eq!(wire.messages_sent, emitted);
    assert!(
        wire.frames_sent < wire.messages_sent && wire.frames_sent <= 3 * rounds.gvt_rounds,
        "{} frames for {} messages in {} rounds",
        wire.frames_sent,
        wire.messages_sent,
        rounds.gvt_rounds
    );

    let eager = run_wired(&nl, &plan, &stim, 12, Some(&mut Eager));
    assert!(eager.recovery.messages_sent > 0);
    assert_eq!(eager.recovery.frames_sent, eager.recovery.messages_sent);
}

// -- Net names ----------------------------------------------------------

/// `top.port` or `top.port[bit]` for every bit of every input port of
/// `top`, in header order and LSB first, read off the AST.
fn input_port_names(src: &str, top: &str) -> Vec<String> {
    use dvs_verilog::ast::{Direction, Item};
    let unit = dvs_verilog::parse(src).expect("generated circuit parses");
    let decl = unit.module(top).expect("the top module is defined");
    let mut out = Vec::new();
    for port in &decl.ports {
        for item in &decl.items {
            let Item::PortDecl {
                direction: Direction::Input,
                range,
                names,
                ..
            } = item
            else {
                continue;
            };
            if !names.contains(port) {
                continue;
            }
            match range {
                None => out.push(format!("{top}.{port}")),
                Some(r) => out.extend(r.bits_lsb_first().map(|b| format!("{top}.{port}[{b}]"))),
            }
        }
    }
    out
}

/// Names are derived, not stored: on `random_hier` at depths 0–3 and the
/// tiny decoder every net's name is unique, the primary inputs carry their
/// ports' names so the clock is found by name, and a netlist decoded from
/// an `init` frame — which ships no names — names each net by its id and
/// reads the same gate inputs.
#[test]
fn net_names_are_unique_follow_the_ports_and_are_ids_on_the_wire() {
    use dvs_workloads::random_hier::{generate_random_hier, RandomHierParams};
    let mut circuits: Vec<(String, &str)> = (0..4)
        .map(|depth| {
            let params = RandomHierParams {
                depth,
                seed: 30 + u64::from(depth),
                ..RandomHierParams::default()
            };
            (generate_random_hier(&params), "rtop")
        })
        .collect();
    circuits.push((generate_viterbi(&ViterbiParams::tiny()), "viterbi"));
    for (src, top) in &circuits {
        let nl = dvs_verilog::parse_and_elaborate_top(src, top)
            .expect("generated circuit elaborates")
            .into_netlist();
        let names: Vec<String> = (0..nl.net_count() as u32)
            .map(|n| nl.net_name(NetId(n)))
            .collect();
        let unique: std::collections::HashSet<&String> = names.iter().collect();
        assert_eq!(unique.len(), names.len(), "{top}: a name is repeated");

        let inputs: Vec<&String> = nl.primary_inputs.iter().map(|n| &names[n.idx()]).collect();
        assert_eq!(
            inputs,
            input_port_names(src, top).iter().collect::<Vec<_>>()
        );
        let stim = VectorStimulus::from_netlist(&nl, 10, 1);
        let clk = stim.clock.map(|n| names[n.idx()].as_str());
        assert_eq!(clk, Some(format!("{top}.clk").as_str()), "{top}: clock");

        let plan = ClusterPlan::new(&nl, &vec![0; nl.gate_count()], 1);
        let frame = init_json(&nl, &plan, &stim, 4, true, 0, "names");
        let decoded = worker_init_from_json(&frame).expect("init parses").netlist;
        assert_eq!(decoded.net_count(), nl.net_count());
        for n in 0..nl.net_count() as u32 {
            assert_eq!(decoded.net_name(NetId(n)), format!("n{n}"));
        }
        for g in 0..nl.gate_count() as u32 {
            let g = dvs_verilog::netlist::GateId(g);
            assert_eq!(decoded.inputs(g), nl.inputs(g), "{top}: inputs of {g}");
        }
    }
}
