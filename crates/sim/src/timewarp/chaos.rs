//! Deterministic network fault injection for the wire transports.
//!
//! [`NetPlan`] is to the network what [`super::recovery::FaultPlan`] is to
//! processes: a seeded, replayable description of exactly which faults hit
//! which connection and when. Every fault is keyed by a **cumulative
//! per-direction frame count** on one cluster's connection — not by wall
//! time — so the same plan against the same run perturbs the same frames
//! every time, and the chaos sweep can assert that the recovered run's
//! canonical artifact is byte-identical to the undisturbed one.
//!
//! The injection point is `ChaosStream`: a shim wrapping any
//! `WireStream` on the supervisor side of a connection. It understands
//! just enough of the version-3 framing (the 12-byte header) to count and
//! reassemble frames passing through in each direction, and perturbs them
//! per the plan: bit flips (caught downstream by the frame CRC),
//! truncation (mid-frame connection death), duplication (skipped
//! downstream by the stale sequence number), split writes and added
//! latency (benign reorderings of syscalls and time that must change
//! nothing), and sticky stalls/partitions (the link silently eats traffic
//! until the connection is torn down and redialed — exactly the half-open
//! failure the silence deadline exists to detect). The supervisor sends
//! nothing but commands, so a frame index is a pure function of the
//! decision sequence, never of wall-clock time.
//!
//! Faults fire once each. Frame counters are cumulative across
//! reconnects of the same cluster (state lives in a shared
//! `ClusterChaos`, not in the stream wrapper), while sticky
//! stall/partition suppression heals on reconnect — a healed link is a
//! *new* link.

use super::wire::{Duplex, WireStream, FRAME_HEADER, MAX_FRAME};
use crate::stimulus::splitmix64;
use std::cell::RefCell;
use std::io::{self, Read, Write};
use std::rc::Rc;
use std::time::Duration;

/// Which direction of a cluster's supervisor↔worker connection a fault
/// applies to, named from the supervisor's point of view.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NetDir {
    /// Frames the supervisor sends (commands, restore payloads).
    ToWorker,
    /// Frames the supervisor receives (responses, checkpoints).
    FromWorker,
}

/// What happens to the targeted frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NetFaultKind {
    /// Flip one bit of the frame payload (at `offset % payload_len`). The
    /// receiver's CRC32 check rejects the frame as corrupt; the connection
    /// dies and recovery respawns/reconnects.
    BitFlip {
        /// Byte offset into the payload; reduced modulo the payload
        /// length, so any value is valid for any frame.
        offset: u32,
    },
    /// Deliver only the first half of the frame, then kill the
    /// connection — the peer observes EOF mid-frame.
    Truncate,
    /// Deliver the frame twice. Benign: the receiver skips the replay by
    /// its stale sequence number, and the run must be byte-identical.
    Duplicate,
    /// Deliver the frame in two separate syscalls. Benign: framing must
    /// reassemble it transparently.
    SplitWrite,
    /// Delay the frame. Benign: wall-clock time is not an input to the
    /// deterministic supervisor.
    Latency {
        /// How long to hold the frame.
        millis: u32,
    },
    /// The link goes silent in **both** directions (the frame itself is
    /// eaten too), and stays silent until the connection is replaced.
    /// Detected by the silence deadline.
    Stall,
    /// The link goes silent in the fault's direction only — the classic
    /// half-open connection (peer alive, one direction dead). Detected by
    /// the silence deadline.
    Partition,
}

/// One injected fault: on `cluster`'s connection, when cumulative frame
/// number `frame` (0-based, counted per direction since the start of the
/// run, hello frames excluded) passes in direction `dir`, apply `kind`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NetFault {
    /// Target cluster's connection.
    pub cluster: u32,
    /// Direction the counted frame travels in.
    pub dir: NetDir,
    /// Cumulative per-direction frame index that triggers the fault.
    pub frame: u64,
    /// The perturbation.
    pub kind: NetFaultKind,
}

/// A seeded, replayable set of network faults for one run — the network
/// analogue of [`super::recovery::FaultPlan`]. Attach as
/// [`super::TimeWarpConfig::chaos`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct NetPlan {
    /// The faults to inject. Order is irrelevant; each fires at most once.
    pub faults: Vec<NetFault>,
}

impl NetPlan {
    pub fn new() -> NetPlan {
        NetPlan::default()
    }

    /// Add one fault (builder-style).
    pub fn fault(mut self, f: NetFault) -> NetPlan {
        self.faults.push(f);
        self
    }

    pub fn is_empty(&self) -> bool {
        self.faults.is_empty()
    }

    /// A deterministic plan drawn from `seed` for a `k`-cluster run: one
    /// to three faults spread over clusters, directions, and fault kinds.
    /// The same `(seed, k)` always yields the same plan — the chaos sweep
    /// is a map from seeds to replayable scenarios. Frames below 4 are
    /// never targeted: the first frames of a connection carry `init` and
    /// the GVT-0 checkpoint, which run before the supervisor's recovery
    /// loop is armed.
    pub fn seeded(seed: u64, k: u32) -> NetPlan {
        let mut state = seed;
        let mut next = || {
            let out = splitmix64(state);
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            out
        };
        let n = 1 + (next() % 3) as usize;
        let mut plan = NetPlan::new();
        for _ in 0..n {
            let cluster = (next() % k.max(1) as u64) as u32;
            let dir = if next().is_multiple_of(2) {
                NetDir::ToWorker
            } else {
                NetDir::FromWorker
            };
            let frame = 4 + next() % 36;
            let kind = match next() % 8 {
                0 => NetFaultKind::BitFlip {
                    offset: next() as u32,
                },
                1 => NetFaultKind::Truncate,
                2 | 3 => NetFaultKind::Duplicate,
                4 => NetFaultKind::SplitWrite,
                5 => NetFaultKind::Latency {
                    millis: 1 + (next() % 5) as u32,
                },
                6 => NetFaultKind::Stall,
                _ => NetFaultKind::Partition,
            };
            plan = plan.fault(NetFault {
                cluster,
                dir,
                frame,
                kind,
            });
        }
        plan
    }

    /// The per-cluster fault state the supervisor threads into each
    /// worker's connection wrapper.
    pub(crate) fn for_cluster(&self, cluster: u32) -> Rc<RefCell<ClusterChaos>> {
        let mut to = Vec::new();
        let mut from = Vec::new();
        for f in &self.faults {
            if f.cluster == cluster {
                match f.dir {
                    NetDir::ToWorker => to.push((f.frame, f.kind)),
                    NetDir::FromWorker => from.push((f.frame, f.kind)),
                }
            }
        }
        Rc::new(RefCell::new(ClusterChaos {
            to: DirState::new(to),
            from: DirState::new(from),
            fired: 0,
        }))
    }
}

#[derive(Debug)]
struct DirState {
    /// Cumulative frames seen in this direction (across reconnects).
    frames: u64,
    /// Sticky silence: a stall/partition ate the link in this direction.
    suppressed: bool,
    /// Pending `(frame, kind)` faults, each fired at most once.
    faults: Vec<(u64, NetFaultKind)>,
}

impl DirState {
    fn new(faults: Vec<(u64, NetFaultKind)>) -> DirState {
        DirState {
            frames: 0,
            suppressed: false,
            faults,
        }
    }

    /// Count one frame passing and return the fault targeting it, if any.
    fn step(&mut self) -> Option<NetFaultKind> {
        let idx = self.frames;
        self.frames += 1;
        let pos = self.faults.iter().position(|&(f, _)| f == idx)?;
        Some(self.faults.swap_remove(pos).1)
    }
}

/// Per-cluster fault state shared by all [`ChaosStream`] clones wrapping
/// that cluster's connections over the run's lifetime.
#[derive(Debug)]
pub(crate) struct ClusterChaos {
    to: DirState,
    from: DirState,
    /// Faults that actually fired (feeds `chaos_faults_injected`).
    fired: u64,
}

impl ClusterChaos {
    pub fn fired(&self) -> u64 {
        self.fired
    }

    /// A replaced connection is a new link: sticky stall/partition
    /// silence does not survive a redial. Frame counters and unfired
    /// faults do.
    pub fn heal(&mut self) {
        self.to.suppressed = false;
        self.from.suppressed = false;
    }
}

/// The fault-injection shim: wraps the supervisor's side of one worker
/// connection and applies the plan's faults to version-3 command frames
/// passing through. Created (and re-created, on reconnect) by the
/// transport layer *after* the hello exchange, so hello frames are never
/// counted or perturbed.
#[derive(Debug)]
pub(crate) struct ChaosStream {
    inner: WireStream,
    state: Rc<RefCell<ClusterChaos>>,
    /// Perturbed frame bytes waiting to be served to the caller.
    out: Vec<u8>,
    out_pos: usize,
    /// The read side was cut (a truncation fault, or bytes that no longer
    /// delimit a frame): serve EOF forever.
    dead: bool,
}

impl ChaosStream {
    pub fn new(inner: WireStream, state: Rc<RefCell<ClusterChaos>>) -> ChaosStream {
        state.borrow_mut().heal();
        ChaosStream::on(inner, state)
    }

    /// The shim with nothing buffered, suppression left as it is.
    fn on(inner: WireStream, state: Rc<RefCell<ClusterChaos>>) -> ChaosStream {
        ChaosStream {
            inner,
            state,
            out: Vec::new(),
            out_pos: 0,
            dead: false,
        }
    }

    /// Read the next frame off the inner stream, and whether it is whole.
    /// Not whole: the stream ended inside it (empty at a frame boundary),
    /// or its length prefix is one the framing rejects — then only the
    /// header is read. An I/O error drops whatever arrived with it.
    fn next_frame(&mut self) -> io::Result<(Vec<u8>, bool)> {
        let mut frame = Vec::with_capacity(FRAME_HEADER);
        (&mut self.inner)
            .take(FRAME_HEADER as u64)
            .read_to_end(&mut frame)?;
        if frame.len() < FRAME_HEADER {
            return Ok((frame, false));
        }
        let len = u32::from_le_bytes(frame[..4].try_into().expect("4 bytes")) as usize;
        if len == 0 || len > MAX_FRAME {
            return Ok((frame, false));
        }
        (&mut self.inner).take(len as u64).read_to_end(&mut frame)?;
        let whole = frame.len() == FRAME_HEADER + len;
        Ok((frame, whole))
    }

    /// Serve buffered (already perturbed) bytes to the caller.
    fn serve(&mut self, buf: &mut [u8]) -> usize {
        let n = buf.len().min(self.out.len() - self.out_pos);
        buf[..n].copy_from_slice(&self.out[self.out_pos..self.out_pos + n]);
        self.out_pos += n;
        if self.out_pos == self.out.len() {
            self.out.clear();
            self.out_pos = 0;
        }
        n
    }
}

impl Duplex for ChaosStream {
    fn try_clone(&self) -> io::Result<WireStream> {
        let inner = self.inner.try_clone()?;
        Ok(Box::new(ChaosStream::on(inner, Rc::clone(&self.state))))
    }

    fn set_read_timeout(&self, d: Option<Duration>) -> io::Result<()> {
        self.inner.set_read_timeout(d)
    }

    fn shutdown_both(&self) {
        self.inner.shutdown_both();
    }
}

impl Read for ChaosStream {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        if buf.is_empty() {
            return Ok(0);
        }
        loop {
            if self.out_pos < self.out.len() {
                return Ok(self.serve(buf));
            }
            if self.dead {
                return Ok(0);
            }
            if self.state.borrow().from.suppressed {
                // Half-open link: whatever the worker sends is eaten. Read
                // and discard so the kernel buffers don't implicate flow
                // control; surface only the read timeout to the caller —
                // that is what the silence deadline measures.
                let mut sink = [0u8; 4096];
                return match self.inner.read(&mut sink) {
                    Ok(0) => Ok(0),
                    Ok(_) => {
                        continue;
                    }
                    Err(e) => Err(e),
                };
            }
            let (frame, whole) = self.next_frame()?;
            self.out_pos = 0;
            if !whole {
                // Cut short by EOF, or a length the framing rejects: pass
                // the bytes through for the frame source to type the
                // failure. Nothing after them can be delimited.
                self.out = frame;
                self.dead = true;
                continue;
            }
            let fault = {
                let mut st = self.state.borrow_mut();
                let f = st.from.step();
                if f.is_some() {
                    st.fired += 1;
                }
                f
            };
            match fault {
                None | Some(NetFaultKind::SplitWrite) => {
                    self.out = frame;
                }
                Some(NetFaultKind::BitFlip { offset }) => {
                    let mut frame = frame;
                    let body = frame.len() - FRAME_HEADER;
                    let at = (FRAME_HEADER + (offset as usize % body.max(1))).min(frame.len() - 1);
                    frame[at] ^= 0x01;
                    self.out = frame;
                }
                Some(NetFaultKind::Truncate) => {
                    let half = frame.len() / 2;
                    self.out = frame[..half.max(1)].to_vec();
                    self.dead = true;
                    self.inner.shutdown_both();
                }
                Some(NetFaultKind::Duplicate) => {
                    let mut doubled = frame.clone();
                    doubled.extend_from_slice(&frame);
                    self.out = doubled;
                }
                Some(NetFaultKind::Latency { millis }) => {
                    std::thread::sleep(Duration::from_millis(millis as u64));
                    self.out = frame;
                }
                Some(NetFaultKind::Stall) => {
                    let mut st = self.state.borrow_mut();
                    st.to.suppressed = true;
                    st.from.suppressed = true;
                }
                Some(NetFaultKind::Partition) => {
                    self.state.borrow_mut().from.suppressed = true;
                }
            }
        }
    }
}

impl Write for ChaosStream {
    /// Each `write` call carries exactly one encoded frame — the frame
    /// sink assembles header + payload into a single buffer precisely so
    /// that a frame is one syscall (and, here, one countable unit).
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        let fault = {
            let mut st = self.state.borrow_mut();
            if st.to.suppressed {
                // Eaten by the dead link; pretend success, like a kernel
                // buffering into a black hole.
                st.to.frames += 1;
                return Ok(buf.len());
            }
            let f = st.to.step();
            if f.is_some() {
                st.fired += 1;
            }
            f
        };
        match fault {
            None => self.inner.write_all(buf)?,
            Some(NetFaultKind::BitFlip { offset }) => {
                let mut bytes = buf.to_vec();
                let body = bytes.len().saturating_sub(FRAME_HEADER);
                let at = (FRAME_HEADER + (offset as usize % body.max(1))).min(bytes.len() - 1);
                bytes[at] ^= 0x01;
                self.inner.write_all(&bytes)?;
            }
            Some(NetFaultKind::Truncate) => {
                let half = (buf.len() / 2).max(1);
                self.inner.write_all(&buf[..half])?;
                let _ = self.inner.flush();
                self.inner.shutdown_both();
            }
            Some(NetFaultKind::Duplicate) => {
                self.inner.write_all(buf)?;
                self.inner.write_all(buf)?;
            }
            Some(NetFaultKind::SplitWrite) => {
                let half = (buf.len() / 2).max(1);
                self.inner.write_all(&buf[..half])?;
                self.inner.flush()?;
                self.inner.write_all(&buf[half..])?;
            }
            Some(NetFaultKind::Latency { millis }) => {
                std::thread::sleep(Duration::from_millis(millis as u64));
                self.inner.write_all(buf)?;
            }
            Some(NetFaultKind::Stall) => {
                let mut st = self.state.borrow_mut();
                st.to.suppressed = true;
                st.from.suppressed = true;
                return Ok(buf.len());
            }
            Some(NetFaultKind::Partition) => {
                self.state.borrow_mut().to.suppressed = true;
                return Ok(buf.len());
            }
        }
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        self.inner.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::timewarp::wire::{encode_frame, FrameSink, FrameSource, WireError};
    use std::io::BufReader;
    use std::net::{TcpListener, TcpStream};

    /// The supervisor's end boxed for the shim, the worker's end plain.
    fn tcp_pair() -> (WireStream, TcpStream) {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let dial = std::thread::spawn(move || TcpStream::connect(addr).expect("connect"));
        let (accepted, _) = listener.accept().expect("accept");
        (Box::new(accepted), dial.join().expect("dial"))
    }

    fn plan_state(faults: Vec<NetFault>) -> Rc<RefCell<ClusterChaos>> {
        NetPlan { faults }.for_cluster(0)
    }

    fn fault(dir: NetDir, frame: u64, kind: NetFaultKind) -> NetFault {
        NetFault {
            cluster: 0,
            dir,
            frame,
            kind,
        }
    }

    /// The seed → plan map the chaos sweep replays, pinned for four seeds
    /// that between them draw every fault kind: a change to the draw would
    /// silently re-target every seeded scenario.
    #[test]
    fn seeded_plans_are_pinned() {
        use NetDir::{FromWorker, ToWorker};
        use NetFaultKind::*;
        let at = |cluster, dir, frame, kind| NetFault {
            cluster,
            dir,
            frame,
            kind,
        };
        let pinned = [
            (
                1,
                vec![
                    at(1, ToWorker, 15, Truncate),
                    at(
                        2,
                        FromWorker,
                        25,
                        BitFlip {
                            offset: 1_952_540_566,
                        },
                    ),
                    at(0, ToWorker, 24, Duplicate),
                ],
            ),
            (3, vec![at(0, FromWorker, 27, Stall)]),
            (
                5,
                vec![
                    at(1, FromWorker, 33, Latency { millis: 2 }),
                    at(0, FromWorker, 32, Duplicate),
                    at(0, ToWorker, 31, Latency { millis: 2 }),
                ],
            ),
            (
                6,
                vec![
                    at(2, ToWorker, 28, Partition),
                    at(2, ToWorker, 4, Duplicate),
                    at(1, FromWorker, 13, SplitWrite),
                ],
            ),
        ];
        for (seed, faults) in pinned {
            assert_eq!(NetPlan::seeded(seed, 3), NetPlan { faults }, "seed {seed}");
        }
    }

    #[test]
    fn seeded_plans_are_deterministic_and_in_range() {
        for seed in 0..64u64 {
            let a = NetPlan::seeded(seed, 3);
            let b = NetPlan::seeded(seed, 3);
            assert_eq!(a, b);
            assert!(!a.is_empty() && a.faults.len() <= 3);
            for f in &a.faults {
                assert!(f.cluster < 3);
                assert!((4..40).contains(&f.frame));
            }
        }
        assert_ne!(NetPlan::seeded(1, 3), NetPlan::seeded(2, 3));
    }

    #[test]
    fn benign_faults_change_nothing_downstream() {
        // Duplicate + split write + latency on the supervisor→worker
        // direction: the receiver sees the exact frame sequence.
        let (sup, wrk) = tcp_pair();
        let state = plan_state(vec![
            fault(NetDir::ToWorker, 0, NetFaultKind::Duplicate),
            fault(NetDir::ToWorker, 1, NetFaultKind::SplitWrite),
            fault(NetDir::ToWorker, 2, NetFaultKind::Latency { millis: 1 }),
        ]);
        let mut sink = FrameSink::new(ChaosStream::new(sup, Rc::clone(&state)));
        let mut src = FrameSource::new(BufReader::new(wrk));
        for payload in [&b"frame a"[..], b"frame b", b"frame c", b"frame d"] {
            sink.send(payload).expect("send");
            assert_eq!(src.recv().expect("recv").as_deref(), Some(payload));
        }
        assert_eq!(src.dups_skipped, 1);
        assert_eq!(state.borrow().fired(), 3);
    }

    #[test]
    fn bitflips_are_rejected_by_the_receiver_crc() {
        let (sup, wrk) = tcp_pair();
        let state = plan_state(vec![fault(
            NetDir::ToWorker,
            1,
            NetFaultKind::BitFlip { offset: 3 },
        )]);
        let mut sink = FrameSink::new(ChaosStream::new(sup, state));
        let mut src = FrameSource::new(BufReader::new(wrk));
        sink.send(b"clean frame").expect("send");
        assert_eq!(
            src.recv().expect("recv").as_deref(),
            Some(&b"clean frame"[..])
        );
        sink.send(b"doomed frame").expect("send");
        let err = src.recv().expect_err("flipped frame must be corrupt");
        assert!(matches!(err, WireError::Corrupt(_)), "{err}");
    }

    #[test]
    fn read_side_bitflip_corrupts_the_supervisors_view() {
        let (sup, wrk) = tcp_pair();
        let state = plan_state(vec![fault(
            NetDir::FromWorker,
            0,
            NetFaultKind::BitFlip { offset: 0 },
        )]);
        let mut worker_sink = FrameSink::new(wrk);
        worker_sink.send(b"worker reply").expect("send");
        let shim = ChaosStream::new(sup, Rc::clone(&state));
        let mut src = FrameSource::new(BufReader::new(ReadAdapter(shim)));
        let err = src.recv().expect_err("flipped reply must be corrupt");
        assert!(matches!(err, WireError::Corrupt(_)), "{err}");
        assert_eq!(state.borrow().fired(), 1);
    }

    #[test]
    fn read_side_truncation_is_connection_death() {
        let (sup, wrk) = tcp_pair();
        let state = plan_state(vec![fault(NetDir::FromWorker, 0, NetFaultKind::Truncate)]);
        let mut worker_sink = FrameSink::new(wrk);
        worker_sink
            .send(b"a reply that will be cut short")
            .expect("send");
        let shim = ChaosStream::new(sup, state);
        let mut src = FrameSource::new(BufReader::new(ReadAdapter(shim)));
        let err = src.recv().expect_err("truncated reply");
        assert!(matches!(err, WireError::Truncated(_)), "{err}");
    }

    #[test]
    fn partition_surfaces_as_read_timeouts_until_healed() {
        let (sup, wrk) = tcp_pair();
        let state = plan_state(vec![fault(NetDir::FromWorker, 0, NetFaultKind::Partition)]);
        let shim = ChaosStream::new(sup, Rc::clone(&state));
        shim.set_read_timeout(Some(Duration::from_millis(20)))
            .expect("timeout");
        let mut worker_sink = FrameSink::new(wrk);
        worker_sink.send(b"eaten by the partition").expect("send");
        worker_sink.send(b"also eaten").expect("send");
        let mut src = FrameSource::new(BufReader::new(ReadAdapter(shim)));
        for _ in 0..2 {
            let err = src.recv().expect_err("partitioned link yields nothing");
            assert!(err.timed_out(), "{err}");
        }
        assert!(state.borrow().from.suppressed);
        state.borrow_mut().heal();
        assert!(!state.borrow().from.suppressed);
    }

    #[test]
    fn stall_eats_writes_in_both_directions() {
        let (sup, wrk) = tcp_pair();
        let state = plan_state(vec![fault(NetDir::ToWorker, 0, NetFaultKind::Stall)]);
        let mut sink = FrameSink::new(ChaosStream::new(sup, Rc::clone(&state)));
        sink.send(b"triggers the stall").expect("send");
        sink.send(b"never arrives").expect("send");
        assert!(state.borrow().to.suppressed && state.borrow().from.suppressed);
        // The worker side sees nothing at all.
        wrk.set_read_timeout(Some(Duration::from_millis(20)))
            .expect("timeout");
        let mut src = FrameSource::new(BufReader::new(wrk));
        assert!(src.recv().expect_err("nothing arrives").timed_out());
    }

    #[test]
    fn frame_counters_survive_reconnects_and_faults_fire_once() {
        let state = plan_state(vec![fault(NetDir::ToWorker, 2, NetFaultKind::Duplicate)]);
        {
            let (sup, wrk) = tcp_pair();
            let mut sink = FrameSink::new(ChaosStream::new(sup, Rc::clone(&state)));
            sink.send(b"frame 0").expect("send");
            sink.send(b"frame 1").expect("send");
            drop(wrk);
        }
        // Reconnect: counters carry over, so frame 2 (the first frame on
        // the *new* connection) still triggers the pending fault.
        let (sup, wrk) = tcp_pair();
        let mut sink = FrameSink::new(ChaosStream::new(sup, Rc::clone(&state)));
        sink.send(b"frame 2").expect("send");
        let mut src = FrameSource::new(BufReader::new(wrk));
        assert_eq!(src.recv().expect("recv").as_deref(), Some(&b"frame 2"[..]));
        // The duplicated copy is skipped on the next read (here: at EOF).
        drop(sink);
        assert_eq!(src.recv().expect("eof"), None);
        assert_eq!(src.dups_skipped, 1);
        assert_eq!(state.borrow().fired(), 1);
        assert_eq!(state.borrow().to.frames, 3);
    }

    /// `BufReader` requires `Read` on an owned value; a thin adapter lets
    /// the tests stack `FrameSource<BufReader<ReadAdapter>>` exactly like
    /// the transport does with its connection enum.
    struct ReadAdapter(ChaosStream);

    impl Read for ReadAdapter {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            self.0.read(buf)
        }
    }

    #[test]
    fn large_frames_cross_the_shim_in_chunks() {
        let (sup, wrk) = tcp_pair();
        let state = plan_state(vec![]);
        let payload = vec![0x5A_u8; 300 << 10];
        let send_payload = payload.clone();
        let sender = std::thread::spawn(move || {
            let mut sink = FrameSink::new(wrk);
            sink.send(&send_payload).expect("send");
        });
        let shim = ChaosStream::new(sup, state);
        let mut src = FrameSource::new(BufReader::new(ReadAdapter(shim)));
        assert_eq!(src.recv().expect("recv"), Some(payload));
        sender.join().expect("sender");
    }

    #[test]
    fn encode_frame_and_shim_agree_on_framing() {
        // The shim's frame reassembly reads the same header layout the
        // sink writes.
        let frame = encode_frame(0, b"layout check").expect("encode");
        assert_eq!(
            u32::from_le_bytes(frame[0..4].try_into().expect("len")) as usize,
            frame.len() - FRAME_HEADER
        );
    }
}
