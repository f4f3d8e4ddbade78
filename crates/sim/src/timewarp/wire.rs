//! Transport-generic byte stream and framing for the Time Warp wire
//! protocol.
//!
//! The process and TCP transports speak the same protocol. Since wire
//! version 3 every command frame carries a 12-byte header — payload
//! length, a per-direction sequence number, and a CRC32 over the sequence
//! number and payload — so a flipped bit anywhere in a frame surfaces as a
//! typed `WireError::Corrupt` instead of a silent misparse, and a
//! replayed (duplicated) frame is skipped by its stale sequence number
//! rather than double-applied. The conversation is still opened by a
//! `hello` exchange that negotiates [`WIRE_VERSION`] and the checkpoint
//! schema and — over TCP — authenticates the peer with a per-run token and
//! identifies which cluster a dialing worker serves. Hello frames keep the
//! legacy version-2 framing (a bare `u32`-LE length prefix): the first
//! frame in each direction must be parseable by *any* protocol version so
//! that an old peer is rejected by version negotiation
//! ([`super::transport`] maps it to a typed `VersionMismatch`) rather than
//! by a framing error it cannot diagnose. `Duplex` is the small
//! abstraction that lets one supervisor/worker implementation run over
//! either a Unix-domain socket (same-host, per-cluster socket paths) or a
//! TCP connection (any host, one shared listener the workers dial).
//!
//! Nothing here depends on *what* the frames say — the command vocabulary
//! lives in [`super::transport`]; this module owns how bytes move and how
//! a conversation is opened.

use super::checkpoint::CHECKPOINT_SCHEMA;
use dvs_json::{Json, ObjBuilder};
use std::io::{self, Read, Write};
use std::net::{Shutdown, TcpStream};
use std::os::unix::net::UnixStream;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Version of the framing and command vocabulary. Negotiated in the
/// `hello` exchange together with [`CHECKPOINT_SCHEMA`] (the restore
/// payload is a serialized checkpoint, so both must match — a peer on an
/// older schema is rejected at the handshake rather than failing when an
/// image arrives). Version 2
/// added the per-run `token` and the worker `cluster` identity to the
/// hello frame for the TCP transport. Version 3 added the checksummed,
/// sequence-numbered command-frame header and the `ping`/`pong` heartbeat
/// exchange; only the hello keeps the version-2 framing. Version 4 kept the
/// framing and changed the vocabulary: `deliver` carries a run of messages
/// (`msgs`, answered with `results`), and `gvt` replaced `fossil`, `ckpt`
/// and `ckpt_delta`. Version 5 removed delta images: `gvt` no longer takes
/// `image: "delta"`, `restore` lost its required `deltas` key, and with it
/// went the reply kind for a chain that did not apply.
pub const WIRE_VERSION: u32 = 5;

/// Upper bound on a frame payload (64 MiB). A length prefix above this is
/// a protocol error, not an allocation request.
pub const MAX_FRAME: usize = 64 << 20;

/// Size of a version-3 command-frame header: payload length (`u32`-LE),
/// per-direction sequence number (`u32`-LE), CRC32 of sequence number and
/// payload (`u32`-LE).
pub(crate) const FRAME_HEADER: usize = 12;

/// Payload reads are buffered in chunks of at most this size so a corrupt
/// length prefix below [`MAX_FRAME`] still cannot force a single huge
/// up-front allocation for bytes that may never arrive.
const READ_CHUNK: usize = 64 << 10;

/// A typed wire-level failure. The transport layer routes the
/// corruption-shaped variants ([`WireError::is_corrupt`]) and truncation
/// into the same respawn/reconnect + checkpoint-restore path a killed
/// worker takes — a flipped bit is a crash-stop event for the connection,
/// never a panic or a silent misparse.
#[derive(Debug)]
pub(crate) enum WireError {
    /// Frame bytes failed the CRC32 check, or a sequence number jumped
    /// ahead of the expected one (bytes were lost without the length
    /// prefix noticing).
    Corrupt(String),
    /// The stream ended inside a frame — the signature of a killed peer or
    /// a reset connection.
    Truncated(String),
    /// A length prefix above [`MAX_FRAME`]: rejected before any
    /// allocation.
    Oversize(usize),
    /// A zero-length command frame. Every command and response is a
    /// non-empty JSON object; an empty payload is corruption or a hostile
    /// peer, not a message.
    ZeroLength,
    /// The underlying stream failed (including read timeouts, which the
    /// supervisor's heartbeat logic inspects via [`WireError::timed_out`]).
    Io(io::Error),
}

impl WireError {
    /// Corruption-shaped errors: the bytes were readable but wrong. These
    /// feed the supervisor's `corrupt_frames` counter; truncation and I/O
    /// errors are connection-death-shaped instead.
    pub fn is_corrupt(&self) -> bool {
        matches!(
            self,
            WireError::Corrupt(_) | WireError::Oversize(_) | WireError::ZeroLength
        )
    }

    /// Did the underlying stream hit its read timeout (no bytes at all
    /// arrived within the timeout window)?
    pub fn timed_out(&self) -> bool {
        matches!(
            self,
            WireError::Io(e) if e.kind() == io::ErrorKind::WouldBlock
                || e.kind() == io::ErrorKind::TimedOut
        )
    }
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Corrupt(d) => write!(f, "corrupt frame: {d}"),
            WireError::Truncated(d) => write!(f, "truncated frame: {d}"),
            WireError::Oversize(len) => {
                write!(f, "frame of {len} bytes exceeds the {MAX_FRAME}-byte limit")
            }
            WireError::ZeroLength => write!(f, "zero-length command frame"),
            WireError::Io(e) => write!(f, "{e}"),
        }
    }
}

impl From<io::Error> for WireError {
    fn from(e: io::Error) -> WireError {
        WireError::Io(e)
    }
}

/// IEEE CRC32 (the zlib/Ethernet polynomial, reflected form), table-driven
/// and hand-rolled — the workspace vendors no checksum crate and the wire
/// needs nothing stronger: this is integrity against link/memory
/// corruption, not an authenticator.
/// This is the bytewise table; the checksum runs slice-by-8 over [`crc32_tables`].
const fn crc32_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
}

/// The slice-by-8 tables: `[0]` is [`crc32_table`], and `[k][b]` advances
/// `[k - 1][b]` by one zero byte, i.e. it is byte `b`'s contribution seen
/// `k` bytes before the end of an 8-byte block.
const fn crc32_tables() -> [[u32; 256]; 8] {
    let mut tables = [crc32_table(); 8];
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let c = tables[k - 1][i];
            tables[k][i] = tables[0][(c & 0xFF) as usize] ^ (c >> 8);
            i += 1;
        }
        k += 1;
    }
    tables
}

static CRC_TABLES: [[u32; 256]; 8] = crc32_tables();

/// CRC32 over the concatenation of `parts` (no copying): eight bytes per
/// step through [`CRC_TABLES`], the tail of each part a byte at a time.
pub(crate) fn crc32(parts: &[&[u8]]) -> u32 {
    let t = &CRC_TABLES;
    let mut c = 0xFFFF_FFFFu32;
    for part in parts {
        let mut blocks = part.chunks_exact(8);
        for b in &mut blocks {
            let lo = (c ^ u32::from_le_bytes([b[0], b[1], b[2], b[3]])).to_le_bytes();
            let block = [lo[0], lo[1], lo[2], lo[3], b[4], b[5], b[6], b[7]];
            c = (0..8).fold(0, |acc, i| acc ^ t[7 - i][block[i] as usize]);
        }
        for &b in blocks.remainder() {
            c = t[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
        }
    }
    !c
}

/// The checksum a version-3 frame header carries: CRC32 over the
/// sequence-number bytes followed by the payload, so a flip in *either* is
/// caught (the length prefix is implicitly covered — a wrong length
/// misaligns the CRC input and fails the check).
fn frame_crc(seq: u32, payload: &[u8]) -> u32 {
    crc32(&[&seq.to_le_bytes(), payload])
}

/// Encode one version-3 command frame: 12-byte header + payload in a
/// single buffer, so each frame costs one write syscall and a live peer
/// never observes a torn header.
pub(crate) fn encode_frame(seq: u32, payload: &[u8]) -> Result<Vec<u8>, WireError> {
    if payload.is_empty() {
        return Err(WireError::ZeroLength);
    }
    if payload.len() > MAX_FRAME {
        return Err(WireError::Oversize(payload.len()));
    }
    let mut buf = Vec::with_capacity(FRAME_HEADER + payload.len());
    buf.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    buf.extend_from_slice(&seq.to_le_bytes());
    buf.extend_from_slice(&frame_crc(seq, payload).to_le_bytes());
    buf.extend_from_slice(payload);
    Ok(buf)
}

/// The sending half of a version-3 conversation: owns the per-direction
/// sequence counter. Sequence numbers start at 0 on each (re)connection
/// and increment per frame; the receiver uses them to skip duplicated
/// frames and to detect silently dropped ones.
#[derive(Debug)]
pub(crate) struct FrameSink<W: Write> {
    w: W,
    seq: u32,
}

impl<W: Write> FrameSink<W> {
    pub fn new(w: W) -> FrameSink<W> {
        FrameSink { w, seq: 0 }
    }

    /// Encode the next frame (consuming a sequence number) without writing
    /// it — the chaos shim uses this to tamper with the encoded bytes
    /// before they hit the stream.
    pub fn encode_next(&mut self, payload: &[u8]) -> Result<Vec<u8>, WireError> {
        let buf = encode_frame(self.seq, payload)?;
        self.seq = self.seq.wrapping_add(1);
        Ok(buf)
    }

    /// Write pre-encoded frame bytes (from [`FrameSink::encode_next`]).
    pub fn send_encoded(&mut self, bytes: &[u8]) -> Result<(), WireError> {
        self.w.write_all(bytes)?;
        self.w.flush()?;
        Ok(())
    }

    pub fn send(&mut self, payload: &[u8]) -> Result<(), WireError> {
        let buf = self.encode_next(payload)?;
        self.send_encoded(&buf)
    }

    pub fn send_json(&mut self, j: &Json) -> Result<(), WireError> {
        let text = j
            .emit()
            .map_err(|e| WireError::Io(io::Error::new(io::ErrorKind::InvalidData, e.msg)))?;
        self.send(text.as_bytes())
    }

    pub fn get_ref(&self) -> &W {
        &self.w
    }
}

/// The receiving half of a version-3 conversation. Resumable: a read
/// timeout in the middle of a frame preserves the partially received bytes,
/// so the supervisor can wake up, count a missed heartbeat, probe the
/// peer, and call [`FrameSource::recv`] again without losing its place.
#[derive(Debug)]
pub(crate) struct FrameSource<R: Read> {
    r: R,
    /// Next sequence number we expect to accept.
    expect: u32,
    /// Duplicated frames skipped by their stale sequence number.
    pub dups_skipped: u64,
    header: [u8; FRAME_HEADER],
    header_got: usize,
    body: Vec<u8>,
    /// Declared payload length once the header is complete.
    body_len: Option<usize>,
}

impl<R: Read> FrameSource<R> {
    pub fn new(r: R) -> FrameSource<R> {
        FrameSource {
            r,
            expect: 0,
            dups_skipped: 0,
            header: [0u8; FRAME_HEADER],
            header_got: 0,
            body: Vec::new(),
            body_len: None,
        }
    }

    /// Read one verified command frame. `Ok(None)` is a clean EOF *at a
    /// frame boundary* (the peer closed deliberately); EOF inside a frame
    /// is [`WireError::Truncated`] — the signature of a killed worker or a
    /// reset connection. Frames whose CRC32 does not match are
    /// [`WireError::Corrupt`]; duplicated frames (stale sequence number)
    /// are skipped silently and counted in
    /// [`FrameSource::dups_skipped`]; a sequence number from the future is
    /// [`WireError::Corrupt`] — bytes were lost en route.
    pub fn recv(&mut self) -> Result<Option<Vec<u8>>, WireError> {
        loop {
            // Complete the 12-byte header first. The oversize check runs
            // on the declared length *before* any payload allocation.
            while self.body_len.is_none() {
                match self.r.read(&mut self.header[self.header_got..]) {
                    Ok(0) => {
                        if self.header_got == 0 {
                            return Ok(None);
                        }
                        return Err(WireError::Truncated(format!(
                            "connection closed {} bytes into a frame header",
                            self.header_got
                        )));
                    }
                    Ok(n) => self.header_got += n,
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                    Err(e) => return Err(WireError::Io(e)),
                }
                if self.header_got == FRAME_HEADER {
                    let len =
                        u32::from_le_bytes(self.header[0..4].try_into().expect("4 bytes")) as usize;
                    if len > MAX_FRAME {
                        return Err(WireError::Oversize(len));
                    }
                    if len == 0 {
                        return Err(WireError::ZeroLength);
                    }
                    self.body.clear();
                    self.body.reserve(len.min(READ_CHUNK));
                    self.body_len = Some(len);
                }
            }
            let len = self.body_len.unwrap_or(0);
            while self.body.len() < len {
                let want = (len - self.body.len()).min(READ_CHUNK);
                let start = self.body.len();
                self.body.resize(start + want, 0);
                match self.r.read(&mut self.body[start..]) {
                    Ok(0) => {
                        self.body.truncate(start);
                        return Err(WireError::Truncated(format!(
                            "connection closed {} bytes into a {len}-byte payload",
                            start
                        )));
                    }
                    Ok(n) => self.body.truncate(start + n),
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => {
                        self.body.truncate(start);
                    }
                    Err(e) => {
                        self.body.truncate(start);
                        return Err(WireError::Io(e));
                    }
                }
            }
            // Frame complete: reset the state machine, then verify.
            let seq = u32::from_le_bytes(self.header[4..8].try_into().expect("4 bytes"));
            let crc = u32::from_le_bytes(self.header[8..12].try_into().expect("4 bytes"));
            let payload = std::mem::take(&mut self.body);
            self.header_got = 0;
            self.body_len = None;
            if frame_crc(seq, &payload) != crc {
                return Err(WireError::Corrupt(format!(
                    "CRC32 mismatch on frame seq {seq} ({} bytes)",
                    payload.len()
                )));
            }
            if seq < self.expect {
                // A duplicated frame (replayed by a fault or a confused
                // middlebox): already applied, skip it.
                self.dups_skipped += 1;
                continue;
            }
            if seq > self.expect {
                return Err(WireError::Corrupt(format!(
                    "sequence gap: expected frame {} but received frame {seq}",
                    self.expect
                )));
            }
            self.expect = self.expect.wrapping_add(1);
            return Ok(Some(payload));
        }
    }

    pub fn get_ref(&self) -> &R {
        &self.r
    }
}

/// A duplex byte stream the wire protocol can run over: a Unix-domain
/// socket (same host, one per cluster), a TCP connection (any host, dialed
/// to the supervisor's shared listener — Nagle's algorithm off, every frame
/// is a whole command or response), or either behind the fault-injection
/// shim of [`super::chaos`]. All are used identically: blocking reads under
/// a read timeout, whole-frame buffered writes.
pub(crate) trait Duplex: Read + Write + std::fmt::Debug {
    fn try_clone(&self) -> io::Result<WireStream>;
    fn set_read_timeout(&self, d: Option<Duration>) -> io::Result<()>;
    /// Abruptly tear the connection down in both directions. Used when the
    /// supervisor declares a silent or reset peer dead: any bytes still in
    /// flight are discarded and the peer observes EOF/EPIPE — the same
    /// crash-stop signal a killed process produces.
    fn shutdown_both(&self);
}

pub(crate) type WireStream = Box<dyn Duplex>;

macro_rules! socket_duplex {
    ($($socket:ty),*) => {$(
        impl Duplex for $socket {
            fn try_clone(&self) -> io::Result<WireStream> {
                Ok(Box::new(<$socket>::try_clone(self)?))
            }
            fn set_read_timeout(&self, d: Option<Duration>) -> io::Result<()> {
                <$socket>::set_read_timeout(self, d)
            }
            fn shutdown_both(&self) {
                let _ = self.shutdown(Shutdown::Both);
            }
        }
    )*};
}
socket_duplex!(UnixStream, TcpStream);

/// Write one legacy `u32`-LE length-prefixed frame — the version-2 framing,
/// kept **only** for the `hello` exchange. The first frame in each
/// direction must be readable by any protocol version so that version
/// negotiation (not a framing error) rejects an old peer; everything after
/// the hello uses the checksummed [`FrameSink`]/[`FrameSource`] framing.
pub(crate) fn write_frame<W: Write>(w: &mut W, payload: &[u8]) -> io::Result<()> {
    if payload.len() > MAX_FRAME {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!(
                "frame of {} bytes exceeds the {MAX_FRAME}-byte limit",
                payload.len()
            ),
        ));
    }
    let mut buf = Vec::with_capacity(4 + payload.len());
    buf.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    buf.extend_from_slice(payload);
    w.write_all(&buf)?;
    w.flush()
}

/// Read one legacy (hello) frame. `Ok(None)` is a clean EOF *at a frame
/// boundary* (the peer closed deliberately); EOF inside a header or
/// payload is an `UnexpectedEof` error — the signature of a killed worker
/// or a reset connection. The oversize check runs on the length prefix
/// before any allocation.
pub(crate) fn read_frame<R: Read>(r: &mut R) -> io::Result<Option<Vec<u8>>> {
    let mut header = [0u8; 4];
    let mut got = 0;
    while got < 4 {
        match r.read(&mut header[got..]) {
            Ok(0) => {
                if got == 0 {
                    return Ok(None);
                }
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "connection closed inside a frame header",
                ));
            }
            Ok(n) => got += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        }
    }
    let len = u32::from_le_bytes(header) as usize;
    if len > MAX_FRAME {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("frame of {len} bytes exceeds the {MAX_FRAME}-byte limit"),
        ));
    }
    let mut payload = vec![0u8; len];
    r.read_exact(&mut payload)?;
    Ok(Some(payload))
}

/// Serialize and send one JSON frame in the legacy (hello) framing.
pub(crate) fn send_json<W: Write>(w: &mut W, j: &Json) -> io::Result<()> {
    let text = j
        .emit()
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.msg))?;
    write_frame(w, text.as_bytes())
}

pub(crate) fn parse_json(bytes: &[u8]) -> Result<Json, String> {
    let text = std::str::from_utf8(bytes).map_err(|e| format!("frame is not UTF-8: {e}"))?;
    Json::parse(text).map_err(|e| format!("frame is not JSON: {}", e.msg))
}

pub(crate) fn json_kind(j: &Json) -> Result<&str, String> {
    j.field("kind").and_then(Json::as_str).map_err(|e| e.msg)
}

/// The decoded contents of a `hello` frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Hello {
    /// Peer's wire-protocol version.
    pub wire: u32,
    /// Peer's checkpoint schema version.
    pub checkpoint_schema: u32,
    /// Per-run token. The supervisor mints one per TCP run and hands it to
    /// the workers it spawns (or the operator exports it to remote ones);
    /// a dial-in whose hello carries a different token is a stray from
    /// another run — or another program entirely — and is dropped without
    /// disturbing the run. Empty on the Unix transport, where the
    /// per-cluster socket path already scopes the conversation.
    pub token: String,
    /// The cluster this worker serves. Carried by worker hellos over TCP
    /// so the shared listener can match a (re)connecting worker back to
    /// its cluster; `None` in supervisor hellos and on the Unix transport,
    /// where the socket path identifies the cluster.
    pub cluster: Option<u32>,
}

impl Hello {
    pub fn versions(&self) -> (u32, u32) {
        (self.wire, self.checkpoint_schema)
    }
}

/// Build a `hello` frame carrying our versions, the run token, and — from
/// a TCP worker — its cluster identity.
pub(crate) fn hello_json(token: &str, cluster: Option<u32>) -> Json {
    let mut b = ObjBuilder::new()
        .str("kind", "hello")
        .uint("wire", WIRE_VERSION as u64)
        .uint("checkpoint_schema", CHECKPOINT_SCHEMA as u64)
        .str("token", token);
    if let Some(c) = cluster {
        b = b.uint("cluster", c as u64);
    }
    b.build()
}

/// Parse a `hello` frame. The `token` and `cluster` fields are optional on
/// the wire (a version-1 peer sends neither), defaulting to empty/absent —
/// version negotiation, not parsing, is what rejects such a peer.
pub(crate) fn hello_parse(j: &Json) -> Result<Hello, String> {
    if json_kind(j)? != "hello" {
        return Err(format!("expected a hello frame, got {j:?}"));
    }
    let err = |e: dvs_json::JsonError| e.msg;
    let wire = j.field("wire").and_then(Json::as_u64).map_err(err)? as u32;
    let checkpoint_schema = j
        .field("checkpoint_schema")
        .and_then(Json::as_u64)
        .map_err(err)? as u32;
    let token = match j.field("token") {
        Ok(v) => v.as_str().map_err(err)?.to_string(),
        Err(_) => String::new(),
    };
    let cluster = match j.field("cluster") {
        Ok(v) => Some(v.as_u64().map_err(err)? as u32),
        Err(_) => None,
    };
    Ok(Hello {
        wire,
        checkpoint_schema,
        token,
        cluster,
    })
}

/// Mint a fresh per-run token: unique across concurrent runs on one
/// machine and unguessable enough to keep strays from other runs out of
/// this one's listener. Not a cryptographic credential — the TCP transport
/// is meant for trusted cluster networks (see EXPERIMENTS.md).
pub(crate) fn run_token() -> String {
    static SERIAL: AtomicU64 = AtomicU64::new(0);
    let serial = SERIAL.fetch_add(1, Ordering::Relaxed);
    let nanos = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_nanos())
        .unwrap_or(0);
    format!("{:08x}-{:x}-{:x}", std::process::id(), nanos, serial)
}

const FNV_OFFSET: u64 = 0xCBF2_9CE4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01B3;

/// Deterministic decorrelated jitter for the worker dial-in backoff,
/// seeded from the run token and the worker's cluster id. After a
/// partition heals, every worker of a run retries on its *own* schedule —
/// same worker, same token: same schedule (replayable); different
/// clusters: decorrelated schedules (no reconnect stampede on the
/// broker).
#[derive(Debug)]
pub(crate) struct DialJitter {
    state: u64,
}

impl DialJitter {
    pub fn new(token: &str, cluster: u32) -> DialJitter {
        let mut h = FNV_OFFSET;
        for b in token.bytes() {
            h = (h ^ b as u64).wrapping_mul(FNV_PRIME);
        }
        h ^= (cluster as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        // xorshift64* needs a non-zero state.
        DialJitter {
            state: if h == 0 { FNV_OFFSET } else { h },
        }
    }

    fn next_u64(&mut self) -> u64 {
        // xorshift64* — tiny, seedable, and plenty for spreading retries.
        let mut x = self.state;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.state = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// The decorrelated-jitter step: `min(cap, base + rand(prev * 3))`.
    /// Grows like the doubling backoff it replaces on average, but two
    /// workers never share a retry cadence.
    pub fn next_delay(&mut self, prev: Duration, base: Duration, cap: Duration) -> Duration {
        let span = (prev.as_millis() as u64).saturating_mul(3).max(1);
        let jittered = base + Duration::from_millis(self.next_u64() % span);
        jittered.min(cap)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    /// A reader that yields at most one byte per `read` call — models a
    /// socket delivering frames in arbitrarily small pieces.
    struct Trickle<R>(R);

    impl<R: io::Read> io::Read for Trickle<R> {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            let n = buf.len().min(1);
            self.0.read(&mut buf[..n])
        }
    }

    #[test]
    fn crc32_matches_the_reference_vector() {
        // The canonical IEEE CRC32 check value.
        assert_eq!(crc32(&[b"123456789"]), 0xCBF4_3926);
        // Split input hashes identically to contiguous input.
        assert_eq!(crc32(&[b"1234", b"56789"]), 0xCBF4_3926);
        assert_eq!(crc32(&[b""]), 0);
    }

    /// The polynomial division itself, one bit at a time — no table.
    fn crc32_bitwise(bytes: &[u8]) -> u32 {
        let mut c = 0xFFFF_FFFFu32;
        for &b in bytes {
            c ^= b as u32;
            for _ in 0..8 {
                c = if c & 1 != 0 {
                    0xEDB8_8320 ^ (c >> 1)
                } else {
                    c >> 1
                };
            }
        }
        !c
    }

    /// `n` bytes of a fixed xorshift64* stream.
    fn seeded_bytes(seed: u64, n: usize) -> Vec<u8> {
        let mut x = seed | 1;
        (0..n)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                (x.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 56) as u8
            })
            .collect()
    }

    /// Slice-by-8 agrees with the bitwise definition on every length up to
    /// eight whole blocks (each block count with each tail length), on a
    /// MiB of random bytes, and however an input is split into parts —
    /// a split moves the block boundaries of everything after it.
    #[test]
    fn crc32_matches_the_bitwise_reference() {
        let short = seeded_bytes(0x5EED, 64);
        for len in 0..=64 {
            let input = &short[..len];
            let want = crc32_bitwise(input);
            assert_eq!(crc32(&[input]), want, "length {len}");
            for split in 0..=len {
                let (a, b) = input.split_at(split);
                assert_eq!(crc32(&[a, b]), want, "length {len} split at {split}");
            }
        }
        let mib = seeded_bytes(2008, 1 << 20);
        assert_eq!(crc32(&[&mib]), crc32_bitwise(&mib));
    }

    #[test]
    fn v3_frames_round_trip_with_sequence_numbers() {
        let mut buf = Vec::new();
        let mut sink = FrameSink::new(&mut buf);
        sink.send(b"first frame").expect("send");
        sink.send(b"second frame").expect("send");
        let mut src = FrameSource::new(io::Cursor::new(buf));
        assert_eq!(
            src.recv().expect("read").as_deref(),
            Some(&b"first frame"[..])
        );
        assert_eq!(
            src.recv().expect("read").as_deref(),
            Some(&b"second frame"[..])
        );
        assert_eq!(src.recv().expect("eof"), None);
        assert_eq!(src.dups_skipped, 0);
    }

    #[test]
    fn v3_frames_survive_split_reads() {
        let mut buf = Vec::new();
        let payload = vec![0xAB_u8; 1000];
        FrameSink::new(&mut buf).send(&payload).expect("send");
        let mut src = FrameSource::new(Trickle(io::Cursor::new(buf)));
        assert_eq!(src.recv().expect("read"), Some(payload));
        assert_eq!(src.recv().expect("eof"), None);
    }

    #[test]
    fn zero_length_command_frames_are_rejected_both_ways() {
        let mut sink = FrameSink::new(Vec::new());
        assert!(matches!(sink.send(b""), Err(WireError::ZeroLength)));
        // A crafted zero-length header is rejected on read too.
        let mut evil = 0u32.to_le_bytes().to_vec();
        evil.extend_from_slice(&0u32.to_le_bytes());
        evil.extend_from_slice(&frame_crc(0, b"").to_le_bytes());
        let mut src = FrameSource::new(io::Cursor::new(evil));
        assert!(matches!(src.recv(), Err(WireError::ZeroLength)));
    }

    #[test]
    fn oversized_v3_frame_is_rejected_before_allocation() {
        let mut evil = u32::MAX.to_le_bytes().to_vec();
        evil.extend_from_slice(&0u32.to_le_bytes());
        evil.extend_from_slice(&0u32.to_le_bytes());
        evil.extend_from_slice(b"junk");
        let mut src = FrameSource::new(io::Cursor::new(evil));
        assert!(matches!(src.recv(), Err(WireError::Oversize(_))));

        let too_big = vec![0u8; MAX_FRAME + 1];
        assert!(matches!(
            FrameSink::new(Vec::new()).send(&too_big),
            Err(WireError::Oversize(_))
        ));
    }

    #[test]
    fn truncation_inside_header_and_payload_is_typed() {
        let mut buf = Vec::new();
        FrameSink::new(&mut buf)
            .send(b"full payload")
            .expect("send");
        // Cut inside the 12-byte header.
        let mut src = FrameSource::new(io::Cursor::new(buf[..7].to_vec()));
        assert!(matches!(src.recv(), Err(WireError::Truncated(_))));
        // Cut inside the payload.
        let mut src = FrameSource::new(io::Cursor::new(buf[..buf.len() - 3].to_vec()));
        assert!(matches!(src.recv(), Err(WireError::Truncated(_))));
    }

    /// A bit flip at *every* byte offset of a frame — header and payload —
    /// is rejected with a typed error, never parsed and never a panic. A
    /// flip can land in the length prefix (the frame reads short or long:
    /// `Corrupt`, `Truncated`, `ZeroLength`, or `Oversize`), the sequence
    /// number or CRC or payload (CRC mismatch: `Corrupt`) — but no flipped
    /// frame is ever accepted.
    #[test]
    fn bit_flips_at_every_offset_are_rejected() {
        let payload = b"{\"kind\":\"step\",\"limit\":7}";
        let clean = encode_frame(0, payload).expect("encode");
        for offset in 0..clean.len() {
            for bit in [0x01u8, 0x80u8] {
                let mut bytes = clean.clone();
                bytes[offset] ^= bit;
                let mut src = FrameSource::new(io::Cursor::new(bytes));
                let got = src.recv();
                assert!(
                    got.is_err(),
                    "flip of bit {bit:#04x} at byte {offset} was accepted: {got:?}"
                );
            }
        }
        // The unflipped frame, for contrast, parses fine.
        let mut src = FrameSource::new(io::Cursor::new(clean));
        assert_eq!(src.recv().expect("clean").as_deref(), Some(&payload[..]));
    }

    #[test]
    fn duplicated_frames_are_skipped_by_sequence_number() {
        let mut sink = FrameSink::new(Vec::new());
        let first = sink.encode_next(b"frame zero").expect("encode");
        let second = sink.encode_next(b"frame one").expect("encode");
        let mut buf = Vec::new();
        buf.extend_from_slice(&first);
        buf.extend_from_slice(&first); // duplicated in flight
        buf.extend_from_slice(&second);
        let mut src = FrameSource::new(io::Cursor::new(buf));
        assert_eq!(
            src.recv().expect("read").as_deref(),
            Some(&b"frame zero"[..])
        );
        assert_eq!(
            src.recv().expect("read").as_deref(),
            Some(&b"frame one"[..])
        );
        assert_eq!(src.recv().expect("eof"), None);
        assert_eq!(src.dups_skipped, 1);
    }

    #[test]
    fn sequence_gaps_are_corrupt() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&encode_frame(0, b"frame zero").expect("encode"));
        // Frame 1 was lost; frame 2 arrives with a valid CRC.
        buf.extend_from_slice(&encode_frame(2, b"frame two").expect("encode"));
        let mut src = FrameSource::new(io::Cursor::new(buf));
        assert_eq!(
            src.recv().expect("read").as_deref(),
            Some(&b"frame zero"[..])
        );
        assert!(matches!(src.recv(), Err(WireError::Corrupt(_))));
    }

    #[test]
    fn a_read_timeout_mid_frame_is_resumable() {
        // A reader that delivers the first `cut` bytes, then times out
        // once, then delivers the rest.
        struct TimeoutOnce {
            bytes: Vec<u8>,
            pos: usize,
            cut: usize,
            fired: bool,
        }
        impl io::Read for TimeoutOnce {
            fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
                if self.pos == self.cut && !self.fired {
                    self.fired = true;
                    return Err(io::Error::new(io::ErrorKind::WouldBlock, "timed out"));
                }
                let end = if self.fired {
                    self.bytes.len()
                } else {
                    self.cut
                };
                let n = buf.len().min(end - self.pos);
                buf[..n].copy_from_slice(&self.bytes[self.pos..self.pos + n]);
                self.pos += n;
                Ok(n)
            }
        }
        let frame = encode_frame(0, b"resumable payload").expect("encode");
        for cut in [3, FRAME_HEADER, FRAME_HEADER + 5] {
            let mut src = FrameSource::new(TimeoutOnce {
                bytes: frame.clone(),
                pos: 0,
                cut,
                fired: false,
            });
            let err = src.recv().expect_err("first recv times out");
            assert!(err.timed_out(), "cut at {cut}: {err:?}");
            assert_eq!(
                src.recv().expect("resumed").as_deref(),
                Some(&b"resumable payload"[..]),
                "cut at {cut}"
            );
        }
    }

    #[test]
    fn legacy_hello_framing_round_trips() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"hello frames").expect("write");
        let mut r = Trickle(io::Cursor::new(buf));
        assert_eq!(
            read_frame(&mut r).expect("read").as_deref(),
            Some(&b"hello frames"[..])
        );
        assert_eq!(read_frame(&mut r).expect("eof"), None);
    }

    #[test]
    fn legacy_eof_inside_header_or_payload_is_an_error() {
        let mut r = io::Cursor::new(vec![7u8, 0]);
        let err = read_frame(&mut r).expect_err("partial header must error");
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);

        let mut buf = Vec::new();
        write_frame(&mut buf, b"full payload").expect("write");
        buf.truncate(buf.len() - 3);
        let mut r = io::Cursor::new(buf);
        let err = read_frame(&mut r).expect_err("partial payload must error");
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
    }

    #[test]
    fn legacy_oversized_frame_is_rejected_before_allocation() {
        let mut buf = (u32::MAX).to_le_bytes().to_vec();
        buf.extend_from_slice(b"junk");
        let mut r = io::Cursor::new(buf);
        let err = read_frame(&mut r).expect_err("oversized header must error");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);

        let too_big = vec![0u8; MAX_FRAME + 1];
        let err = write_frame(&mut Vec::new(), &too_big).expect_err("oversized write");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    /// An oversized length prefix arriving over a real TCP connection is
    /// rejected as a protocol error before any allocation — a malicious or
    /// corrupted remote peer cannot make the supervisor allocate 4 GiB.
    #[test]
    fn oversized_frame_over_tcp_is_a_protocol_error() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let sender = std::thread::spawn(move || {
            let mut s = TcpStream::connect(addr).expect("connect");
            let mut evil = ((MAX_FRAME as u32) + 1).to_le_bytes().to_vec();
            evil.extend_from_slice(&0u32.to_le_bytes());
            evil.extend_from_slice(&0u32.to_le_bytes());
            evil.extend_from_slice(b"payload never arrives");
            s.write_all(&evil).expect("write");
        });
        let (conn, _) = listener.accept().expect("accept");
        let conn: WireStream = Box::new(conn);
        let mut src = FrameSource::new(io::BufReader::new(conn));
        assert!(matches!(src.recv(), Err(WireError::Oversize(_))));
        sender.join().expect("sender");
    }

    /// Checksummed frames round-trip over a boxed TCP [`Duplex`] pair exactly
    /// as over the in-memory cursor used by the tests above; the legacy
    /// hello framing shares the stream.
    #[test]
    fn frames_cross_a_real_tcp_stream() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let sender = std::thread::spawn(move || {
            let mut s: WireStream = Box::new(TcpStream::connect(addr).expect("connect"));
            send_json(&mut s, &hello_json("tok-1", Some(3))).expect("send hello");
            let mut sink = FrameSink::new(s);
            sink.send(b"{\"kind\":\"step\"}").expect("send command");
        });
        let (conn, _) = listener.accept().expect("accept");
        let conn: WireStream = Box::new(conn);
        let mut r = io::BufReader::new(conn);
        let bytes = read_frame(&mut r).expect("read").expect("one frame");
        let hello = hello_parse(&parse_json(&bytes).expect("parse")).expect("hello");
        assert_eq!(hello.versions(), (WIRE_VERSION, CHECKPOINT_SCHEMA));
        assert_eq!(hello.token, "tok-1");
        assert_eq!(hello.cluster, Some(3));
        let mut src = FrameSource::new(r);
        assert_eq!(
            src.recv().expect("command").as_deref(),
            Some(&b"{\"kind\":\"step\"}"[..])
        );
        sender.join().expect("sender");
    }

    #[test]
    fn hello_round_trips_with_and_without_identity() {
        for (token, cluster) in [("", None), ("run-abc", Some(0)), ("t", Some(7))] {
            let j = hello_json(token, cluster);
            let h = hello_parse(&j).expect("parse");
            assert_eq!(h.versions(), (WIRE_VERSION, CHECKPOINT_SCHEMA));
            assert_eq!(h.token, token);
            assert_eq!(h.cluster, cluster);
        }
        // A version-2 hello (token but no command-frame checksums) still
        // parses; version negotiation is what rejects it.
        let v2 = ObjBuilder::new()
            .str("kind", "hello")
            .uint("wire", 2)
            .uint("checkpoint_schema", CHECKPOINT_SCHEMA as u64)
            .str("token", "old-run")
            .build();
        let h = hello_parse(&v2).expect("v2 parses");
        assert_eq!(h.wire, 2);
        assert_eq!(h.token, "old-run");
        assert_eq!(h.cluster, None);
    }

    #[test]
    fn run_tokens_are_unique() {
        let a = run_token();
        let b = run_token();
        assert_ne!(a, b);
        assert!(!a.is_empty());
    }

    #[test]
    fn dial_jitter_is_deterministic_and_decorrelated() {
        let base = Duration::from_millis(10);
        let cap = Duration::from_millis(500);
        let sample = |token: &str, cluster: u32| {
            let mut j = DialJitter::new(token, cluster);
            let mut prev = base;
            let mut out = Vec::new();
            for _ in 0..6 {
                prev = j.next_delay(prev, base, cap);
                assert!(prev >= base && prev <= cap);
                out.push(prev);
            }
            out
        };
        // Same identity: same schedule (replayable).
        assert_eq!(sample("run-1", 0), sample("run-1", 0));
        // Different cluster or run: decorrelated schedules.
        assert_ne!(sample("run-1", 0), sample("run-1", 1));
        assert_ne!(sample("run-1", 0), sample("run-2", 0));
    }
}
