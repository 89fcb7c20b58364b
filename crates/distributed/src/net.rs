//! Networked scatter-gather serving: real nodes behind TCP sockets.
//!
//! [`crate::cluster::SimulatedCluster`] searches every partition in one
//! process; this module promotes each partition to a real serving
//! endpoint — a [`NodeServer`] listening on its own socket, answering
//! framed search requests from the partition's index — and a
//! [`Coordinator`] that scatter-gathers over those sockets the way the
//! paper's §3.4 broadcast would run on an actual LAN. The in-process
//! cluster is retained as the **differential oracle**: networked results
//! must stay bit-identical (docids, `f32::to_bits` scores, tie-breaks) to
//! [`crate::cluster::SimulatedCluster::search_scatter`].
//!
//! The gather decides, its driver moves bytes. A private `Gather` holds
//! every partition's replica order, hedge timer and failover, and the
//! query's one deadline; it does no I/O, starts no thread and reads no
//! clock — every input carries the time. [`Coordinator::search`] is its
//! TCP driver, and the query's own thread is the only one it uses: it
//! writes each attempt the gather asks for on a pooled nonblocking
//! connection, waits on every attempt's socket at once with one `poll(2)`
//! until the gather's next wake, and feeds back each complete answer or
//! the timeout. The tests drive the same `Gather` on a virtual clock. It
//! treats every peer as failable:
//!
//! * **One deadline** — the query carries a total time budget shared by
//!   every partition; sockets never block past it.
//! * **Hedged retries** — if the serving replica has not answered within a
//!   hedge delay (the partition's observed p99 once enough samples exist,
//!   a configured initial value before that), the same request is
//!   re-issued to the next replica and the first answer wins.
//! * **Failover** — a replica that times out, refuses/resets the
//!   connection, or returns a malformed frame is marked down and the next
//!   replica serves; down replicas are deprioritized, not abandoned, so a
//!   recovered node re-enters rotation on its next success.
//! * **Typed errors, never panics** — protocol decode failures surface as
//!   [`NetError`] variants; when every replica of a partition is
//!   exhausted the query returns [`NetError::PartitionUnavailable`].
//!
//! # Frame layout
//!
//! Every message is one length-prefixed frame:
//!
//! ```text
//! [0..4)   u32 LE  payload length (≤ 16 MiB; larger lengths are rejected
//!                  before any allocation trusts them)
//! [4]      u8      protocol version (1)
//! [5]      u8      kind: 1 = search request, 2 = search hits, 3 = error
//! [6..8)   u16 LE  reserved (must be 0)
//! [8..16)  u64 LE  request id (echoed by the response; a mismatch on a
//!                  pooled connection means a stale frame — typed error,
//!                  connection dropped)
//! [16..24) u64 LE  FNV-1a-64 checksum of the payload
//! [24..)   payload
//! ```
//!
//! Payloads are little-endian. A search request is `strategy tag (u8,
//! [`SearchStrategy::wire_tag`]), top-n (u32), term count (u32), terms
//! (u32 each)`. A hits response is `passes (u8), cpu nanos (u64), io
//! reads/bytes/nanos (u64 each), hit count (u32), (global docid u32,
//! score bits u32) pairs` — scores travel as `f32::to_bits`, so the wire
//! cannot perturb a single bit of the ranking. An error frame carries a
//! UTF-8 message and maps to [`NetError::Remote`].

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::raw::{c_int, c_short, c_ulong};
use std::os::unix::io::AsRawFd;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use x100_ir::SearchStrategy;
use x100_storage::{fnv1a64, IoStats};

use crate::cluster::{Node, SimulatedCluster};
use crate::serve::LatencyHistogram;

/// Protocol version byte carried by every frame.
pub const PROTOCOL_VERSION: u8 = 1;
/// Frame header length in bytes.
const HEADER_LEN: usize = 24;
/// Hard ceiling on a frame's payload: decode rejects larger declared
/// lengths before allocating (an adversarial or corrupt length must not
/// become an allocation bomb).
pub const MAX_PAYLOAD: usize = 16 << 20;

const KIND_SEARCH: u8 = 1;
const KIND_HITS: u8 = 2;
const KIND_ERROR: u8 = 3;

// ---------------------------------------------------------------------------
// Errors
// ---------------------------------------------------------------------------

/// Typed failures of the networked serving path. Protocol violations are
/// data, not panics: the coordinator consumes them to mark replicas down
/// and fail over.
#[derive(Debug)]
pub enum NetError {
    /// Transport-level I/O failure (connect refused, reset, EOF mid-frame).
    Io(io::Error),
    /// A socket operation exceeded its deadline.
    Timeout,
    /// The peer spoke a different protocol version.
    BadVersion {
        /// Version byte received.
        got: u8,
    },
    /// The frame kind byte is not one this protocol defines.
    BadKind {
        /// Kind byte received.
        got: u8,
    },
    /// The frame declared a payload longer than [`MAX_PAYLOAD`].
    FrameTooLarge {
        /// Declared payload length.
        len: u64,
    },
    /// The payload checksum did not match the header's.
    ChecksumMismatch {
        /// Checksum the header declared.
        expected: u64,
        /// Checksum of the payload actually received.
        got: u64,
    },
    /// The response echoed a different request id than the one in flight
    /// (a stale frame on a reused connection).
    RequestIdMismatch {
        /// Id of the request in flight.
        expected: u64,
        /// Id the response carried.
        got: u64,
    },
    /// The payload failed structural validation.
    Malformed(&'static str),
    /// The remote node answered with a typed error of its own (e.g. a
    /// strategy its index cannot plan). Deterministic: every replica of
    /// the partition would answer the same, so this is not failed over.
    Remote(String),
    /// Every replica of a partition was tried (or the deadline expired)
    /// without a usable response.
    PartitionUnavailable {
        /// The partition that could not be served.
        partition: usize,
        /// Replica attempts actually issued before giving up.
        attempts: usize,
    },
}

impl std::fmt::Display for NetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NetError::Io(e) => write!(f, "network I/O: {e}"),
            NetError::Timeout => write!(f, "deadline exceeded"),
            NetError::BadVersion { got } => {
                write!(f, "protocol version {got} (expected {PROTOCOL_VERSION})")
            }
            NetError::BadKind { got } => write!(f, "unknown frame kind {got}"),
            NetError::FrameTooLarge { len } => {
                write!(f, "declared payload of {len} bytes exceeds {MAX_PAYLOAD}")
            }
            NetError::ChecksumMismatch { expected, got } => {
                write!(
                    f,
                    "payload checksum {got:#018x} != declared {expected:#018x}"
                )
            }
            NetError::RequestIdMismatch { expected, got } => {
                write!(f, "response for request {got} while {expected} in flight")
            }
            NetError::Malformed(what) => write!(f, "malformed payload: {what}"),
            NetError::Remote(msg) => write!(f, "remote error: {msg}"),
            NetError::PartitionUnavailable {
                partition,
                attempts,
            } => write!(
                f,
                "partition {partition} unavailable after {attempts} replica attempt(s)"
            ),
        }
    }
}

impl std::error::Error for NetError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            NetError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for NetError {
    fn from(e: io::Error) -> Self {
        match e.kind() {
            io::ErrorKind::TimedOut | io::ErrorKind::WouldBlock => NetError::Timeout,
            _ => NetError::Io(e),
        }
    }
}

// ---------------------------------------------------------------------------
// Frame codec
// ---------------------------------------------------------------------------

/// Encodes one frame, header then payload, into `out` (cleared first).
fn encode_frame(out: &mut Vec<u8>, kind: u8, req_id: u64, payload: &[u8]) {
    debug_assert!(payload.len() <= MAX_PAYLOAD);
    out.clear();
    out.reserve(HEADER_LEN + payload.len());
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    // [6..8) reserved, zero.
    out.extend_from_slice(&[PROTOCOL_VERSION, kind, 0, 0]);
    out.extend_from_slice(&req_id.to_le_bytes());
    out.extend_from_slice(&fnv1a64(payload).to_le_bytes());
    out.extend_from_slice(payload);
}

/// Writes one frame with a single write, so that under `TCP_NODELAY` it
/// leaves as one segment; `buf` is the scratch it is encoded in.
fn write_frame(
    w: &mut impl Write,
    buf: &mut Vec<u8>,
    kind: u8,
    req_id: u64,
    payload: &[u8],
) -> io::Result<()> {
    encode_frame(buf, kind, req_id, payload);
    w.write_all(buf)
}

/// A parsed frame: `(kind, request id, payload, bytes it spans)`.
type Frame<'a> = (u8, u64, &'a [u8], usize);

/// Parses and validates the frame at the front of `buf`, or `None` while
/// `buf` holds only a prefix of one. The header is checked as soon as it
/// is whole, so a bad length, version, kind or reserved byte fails before
/// its payload arrives. Both ends read through it, keeping partial bytes
/// between reads.
fn parse_frame(buf: &[u8]) -> Result<Option<Frame<'_>>, NetError> {
    let Some(header) = buf.get(..HEADER_LEN) else {
        return Ok(None);
    };
    let len = u32::from_le_bytes(header[0..4].try_into().unwrap()) as usize;
    if len > MAX_PAYLOAD {
        return Err(NetError::FrameTooLarge { len: len as u64 });
    }
    let version = header[4];
    if version != PROTOCOL_VERSION {
        return Err(NetError::BadVersion { got: version });
    }
    let kind = header[5];
    if !(KIND_SEARCH..=KIND_ERROR).contains(&kind) {
        return Err(NetError::BadKind { got: kind });
    }
    if header[6] != 0 || header[7] != 0 {
        return Err(NetError::Malformed("reserved header bytes set"));
    }
    let Some(payload) = buf.get(HEADER_LEN..HEADER_LEN + len) else {
        return Ok(None);
    };
    let req_id = u64::from_le_bytes(header[8..16].try_into().unwrap());
    let expected = u64::from_le_bytes(header[16..24].try_into().unwrap());
    let got = fnv1a64(payload);
    if got != expected {
        return Err(NetError::ChecksumMismatch { expected, got });
    }
    Ok(Some((kind, req_id, payload, HEADER_LEN + len)))
}

/// Bytes one read asks for.
const READ_CHUNK: usize = 4096;

/// Appends what one `read` returns to `buf`; `Ok(0)` is end of stream.
fn read_some(r: &mut impl Read, buf: &mut Vec<u8>) -> io::Result<usize> {
    let filled = buf.len();
    buf.resize(filled + READ_CHUNK, 0);
    let read = r.read(&mut buf[filled..]);
    buf.truncate(filled + read.as_ref().map_or(0, |&n| n));
    read
}

/// A read or write that found nothing to do: the socket would block, or
/// a blocking read's timeout (the node's poll tick) passed.
fn idle(e: &io::Error) -> bool {
    use io::ErrorKind::{Interrupted, TimedOut, WouldBlock};
    matches!(e.kind(), WouldBlock | TimedOut | Interrupted)
}

/// Little-endian payload reader with bounds-checked, typed failures.
struct PayloadReader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> PayloadReader<'a> {
    fn new(bytes: &'a [u8]) -> Self {
        PayloadReader { bytes, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], NetError> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.bytes.len())
            .ok_or(NetError::Malformed("payload shorter than declared"))?;
        let slice = &self.bytes[self.pos..end];
        self.pos = end;
        Ok(slice)
    }

    fn u8(&mut self) -> Result<u8, NetError> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, NetError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64, NetError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// A declared count of `width`-byte items, checked against the bytes
    /// left before anything is reserved for them.
    fn count(&mut self, width: usize) -> Result<usize, NetError> {
        let count = self.u32()? as usize;
        let left = self.bytes.len() - self.pos;
        if count.checked_mul(width).is_none_or(|need| need > left) {
            return Err(NetError::Malformed("declared count exceeds the payload"));
        }
        Ok(count)
    }

    fn finish(&self) -> Result<(), NetError> {
        if self.pos == self.bytes.len() {
            Ok(())
        } else {
            Err(NetError::Malformed("trailing bytes after payload"))
        }
    }
}

struct SearchRequest {
    strategy: SearchStrategy,
    n: usize,
    terms: Vec<u32>,
}

fn encode_search_request(terms: &[u32], strategy: SearchStrategy, n: usize) -> Vec<u8> {
    let mut out = Vec::with_capacity(9 + terms.len() * 4);
    out.push(strategy.wire_tag());
    out.extend_from_slice(&u32::try_from(n).unwrap_or(u32::MAX).to_le_bytes());
    out.extend_from_slice(&(terms.len() as u32).to_le_bytes());
    for &t in terms {
        out.extend_from_slice(&t.to_le_bytes());
    }
    out
}

fn decode_search_request(payload: &[u8]) -> Result<SearchRequest, NetError> {
    let mut r = PayloadReader::new(payload);
    let strategy = SearchStrategy::from_wire_tag(r.u8()?)
        .ok_or(NetError::Malformed("unknown strategy tag"))?;
    let n = r.u32()? as usize;
    let count = r.count(4)?;
    let mut terms = Vec::with_capacity(count);
    for _ in 0..count {
        terms.push(r.u32()?);
    }
    r.finish()?;
    Ok(SearchRequest { strategy, n, terms })
}

/// A decoded hits response: what one replica answered for one partition
/// query.
struct WireHits {
    hits: Vec<(u32, f32)>,
    passes: u8,
    io: IoStats,
}

fn encode_hits(hits: &[(u32, f32)], passes: u8, cpu: Duration, io: &IoStats, out: &mut Vec<u8>) {
    out.clear();
    out.reserve(37 + hits.len() * 8);
    out.push(passes);
    out.extend_from_slice(
        &u64::try_from(cpu.as_nanos())
            .unwrap_or(u64::MAX)
            .to_le_bytes(),
    );
    out.extend_from_slice(&io.reads.to_le_bytes());
    out.extend_from_slice(&io.bytes.to_le_bytes());
    out.extend_from_slice(
        &u64::try_from(io.sim_time.as_nanos())
            .unwrap_or(u64::MAX)
            .to_le_bytes(),
    );
    out.extend_from_slice(&(hits.len() as u32).to_le_bytes());
    for &(docid, score) in hits {
        out.extend_from_slice(&docid.to_le_bytes());
        out.extend_from_slice(&score.to_bits().to_le_bytes());
    }
}

fn decode_hits(payload: &[u8]) -> Result<WireHits, NetError> {
    let mut r = PayloadReader::new(payload);
    let passes = r.u8()?;
    let _cpu_nanos = r.u64()?;
    let io = IoStats {
        reads: r.u64()?,
        bytes: r.u64()?,
        sim_time: Duration::from_nanos(r.u64()?),
    };
    let count = r.count(8)?;
    let mut hits = Vec::with_capacity(count);
    for _ in 0..count {
        let docid = r.u32()?;
        let score = f32::from_bits(r.u32()?);
        hits.push((docid, score));
    }
    r.finish()?;
    Ok(WireHits { hits, passes, io })
}

fn encode_error(msg: &str) -> Vec<u8> {
    let bytes = msg.as_bytes();
    let keep = bytes.len().min(4096);
    let mut out = Vec::with_capacity(4 + keep);
    out.extend_from_slice(&(keep as u32).to_le_bytes());
    out.extend_from_slice(&bytes[..keep]);
    out
}

fn decode_error(payload: &[u8]) -> Result<String, NetError> {
    let mut r = PayloadReader::new(payload);
    let len = r.u32()? as usize;
    let bytes = r.take(len)?;
    r.finish()?;
    Ok(String::from_utf8_lossy(bytes).into_owned())
}

// ---------------------------------------------------------------------------
// Node server
// ---------------------------------------------------------------------------

/// Fault-injection modes a [`NodeServer`] can be switched into, so suites
/// and the bench can exercise the coordinator's failure handling against
/// real sockets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// Serve normally.
    None,
    /// Accept requests but never answer them (the client's hedge or
    /// deadline must fire).
    Stall,
    /// Answer every request with a frame whose payload checksum is wrong.
    Garbage,
}

impl Fault {
    fn from_u8(v: u8) -> Fault {
        match v {
            1 => Fault::Stall,
            2 => Fault::Garbage,
            _ => Fault::None,
        }
    }

    fn as_u8(self) -> u8 {
        match self {
            Fault::None => 0,
            Fault::Stall => 1,
            Fault::Garbage => 2,
        }
    }
}

/// How often a connection worker wakes from a blocked read to check the
/// shutdown flag and fault mode.
const SERVER_POLL: Duration = Duration::from_millis(25);

/// One partition's serving endpoint: a loopback TCP listener whose
/// per-connection workers answer framed search requests from the
/// partition's [`Node`] (shared `Arc`: several replica servers over the
/// same node state model replicated serving endpoints — identical data,
/// so whichever replica answers, the hits are bit-identical).
///
/// A worker that panics mid-query (e.g. the injected node fault) kills
/// only its own connection: the client observes a reset and fails over,
/// the listener keeps accepting — panic containment is structural, not a
/// `catch_unwind`.
pub struct NodeServer {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    fault: Arc<AtomicU8>,
    accept: Mutex<Option<JoinHandle<()>>>,
    workers: Arc<Mutex<Vec<JoinHandle<()>>>>,
}

impl NodeServer {
    /// Binds a fresh loopback listener for `node`'s partition and starts
    /// accepting. `partition` only labels threads and errors.
    pub fn spawn(node: Arc<Node>, partition: usize) -> io::Result<NodeServer> {
        let listener = TcpListener::bind((std::net::Ipv4Addr::LOCALHOST, 0))?;
        let addr = listener.local_addr()?;
        let shutdown = Arc::new(AtomicBool::new(false));
        let fault = Arc::new(AtomicU8::new(Fault::None.as_u8()));
        let workers: Arc<Mutex<Vec<JoinHandle<()>>>> = Arc::new(Mutex::new(Vec::new()));
        let accept = {
            let shutdown = Arc::clone(&shutdown);
            let fault = Arc::clone(&fault);
            let workers = Arc::clone(&workers);
            std::thread::Builder::new()
                .name(format!("node-server-p{partition}"))
                .spawn(move || loop {
                    let (stream, _) = match listener.accept() {
                        Ok(conn) => conn,
                        Err(_) => {
                            if shutdown.load(Ordering::SeqCst) {
                                return;
                            }
                            continue;
                        }
                    };
                    if shutdown.load(Ordering::SeqCst) {
                        return; // the unblocking dummy connect
                    }
                    let node = Arc::clone(&node);
                    let shutdown = Arc::clone(&shutdown);
                    let fault = Arc::clone(&fault);
                    if let Ok(handle) = std::thread::Builder::new()
                        .name(format!("node-conn-p{partition}"))
                        .spawn(move || serve_connection(stream, &node, &shutdown, &fault))
                    {
                        let mut workers = workers.lock().unwrap_or_else(|e| e.into_inner());
                        // Connections come and go (failovers, stale pooled
                        // streams): keep live threads only. A finished one
                        // has nothing left to join, and `kill` would ignore
                        // its outcome (a contained panic) anyway.
                        workers.retain(|h| !h.is_finished());
                        workers.push(handle);
                    }
                })?
        };
        Ok(NodeServer {
            addr,
            shutdown,
            fault,
            accept: Mutex::new(Some(accept)),
            workers,
        })
    }

    /// The address the server is listening on.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Switches the server's fault-injection mode (effective for the next
    /// request on every connection).
    pub fn set_fault(&self, fault: Fault) {
        self.fault.store(fault.as_u8(), Ordering::SeqCst);
    }

    /// Kills the server: stops accepting, drops every open connection
    /// (in-flight clients observe EOF/reset), and joins its threads. New
    /// connection attempts are refused by the OS once the listener is
    /// gone. Idempotent, and `&self` so a fault-injecting thread can kill
    /// a server out from under a coordinator mid-query.
    pub fn kill(&self) {
        if self.shutdown.swap(true, Ordering::SeqCst) {
            return;
        }
        // Unblock the accept loop; if the listener is already gone this
        // simply fails.
        let _ = TcpStream::connect_timeout(&self.addr, Duration::from_millis(100));
        let accept = self.accept.lock().unwrap_or_else(|e| e.into_inner()).take();
        if let Some(handle) = accept {
            let _ = handle.join();
        }
        let workers: Vec<JoinHandle<()>> =
            std::mem::take(&mut *self.workers.lock().unwrap_or_else(|e| e.into_inner()));
        for handle in workers {
            // A worker that died of an injected panic reports Err — that
            // is the contained outcome, not a server bug.
            let _ = handle.join();
        }
    }
}

impl Drop for NodeServer {
    fn drop(&mut self) {
        self.kill();
    }
}

/// Per-connection server loop: read a request frame, run the partition's
/// local search, answer with globally-mapped hits (or a typed error
/// frame). Returns — dropping the connection — on client disconnect,
/// protocol garbage, or shutdown. A request's bytes may arrive across
/// several poll ticks: what has arrived stays in `received` until its
/// frame is whole.
fn serve_connection(mut stream: TcpStream, node: &Node, shutdown: &AtomicBool, fault: &AtomicU8) {
    let _ = stream.set_nodelay(true);
    if stream.set_read_timeout(Some(SERVER_POLL)).is_err() {
        return;
    }
    let (mut received, mut frame, mut response, mut hits) = (vec![], vec![], vec![], vec![]);
    loop {
        if shutdown.load(Ordering::SeqCst) {
            return;
        }
        let (kind, req_id, payload, used) = match parse_frame(&received) {
            Ok(Some(parsed)) => parsed,
            Ok(None) => match read_some(&mut stream, &mut received) {
                Ok(0) => return, // disconnect
                Ok(_) => continue,
                Err(e) if idle(&e) => continue, // poll tick: re-check shutdown
                Err(_) => return,
            },
            Err(_) => return, // unrecoverable garbage: drop
        };
        match Fault::from_u8(fault.load(Ordering::SeqCst)) {
            Fault::None => {}
            Fault::Stall => {
                // Hold the request open without answering until the server
                // is killed or the fault cleared, then drop the connection
                // (the client has long since hedged away).
                while !shutdown.load(Ordering::SeqCst)
                    && Fault::from_u8(fault.load(Ordering::SeqCst)) == Fault::Stall
                {
                    std::thread::sleep(SERVER_POLL);
                }
                return;
            }
            Fault::Garbage => {
                // A syntactically framed but checksum-corrupt answer: the
                // client must detect it as ChecksumMismatch, never decode
                // garbage hits.
                let garbage = encode_error("garbage fault");
                encode_frame(&mut frame, KIND_ERROR, req_id, &garbage);
                frame[16] ^= 0xFF;
                let _ = stream.write_all(&frame);
                return;
            }
        }
        if kind != KIND_SEARCH {
            return;
        }
        let decoded = decode_search_request(payload);
        received.drain(..used);
        let request = match decoded {
            Ok(req) => req,
            Err(e) => {
                let error = encode_error(&e.to_string());
                let _ = write_frame(&mut stream, &mut frame, KIND_ERROR, req_id, &error);
                return;
            }
        };
        // An injected panic unwinds this worker here; the dropped stream
        // is the client's failover signal.
        let search = node.search_hits_into(&request.terms, request.strategy, request.n, &mut hits);
        let kind = match search {
            Ok(meta) => {
                // Local → global docid translation happens on the node;
                // the in-process gather translates the same hits before
                // the same merge.
                for hit in &mut hits {
                    hit.0 = node.global_id(hit.0);
                }
                encode_hits(&hits, meta.passes, meta.cpu_time, &meta.io, &mut response);
                KIND_HITS
            }
            Err(e) => {
                response = encode_error(&e.to_string());
                KIND_ERROR
            }
        };
        if write_frame(&mut stream, &mut frame, kind, req_id, &response).is_err() {
            return;
        }
    }
}

// ---------------------------------------------------------------------------
// Coordinator
// ---------------------------------------------------------------------------

/// Tunables of the coordinator's failure handling.
#[derive(Debug, Clone)]
pub struct CoordinatorConfig {
    /// Total time budget per query, shared by all partitions and attempts.
    pub deadline: Duration,
    /// Hedge delay used until a partition has [`Self::hedge_min_samples`]
    /// observed latencies; after that the partition's p99 (raised to at
    /// least 1 ms, then capped at `deadline / 2`) takes over.
    pub hedge_after: Duration,
    /// Successful samples required before the p99-based hedge delay
    /// replaces [`Self::hedge_after`].
    pub hedge_min_samples: u64,
    /// Per-attempt TCP connect timeout (also capped by the remaining
    /// deadline).
    pub connect_timeout: Duration,
}

impl Default for CoordinatorConfig {
    fn default() -> Self {
        CoordinatorConfig {
            deadline: Duration::from_secs(2),
            hedge_after: Duration::from_millis(50),
            hedge_min_samples: 64,
            connect_timeout: Duration::from_millis(250),
        }
    }
}

/// One replica endpoint of a partition, with health state and a pool of
/// idle nonblocking connections (a connection re-enters the pool only
/// after a fully completed exchange, so no stale bytes can linger on it).
struct Replica {
    addr: SocketAddr,
    down: AtomicBool,
    served: AtomicU64,
    idle: Mutex<Vec<TcpStream>>,
}

impl Replica {
    fn new(addr: SocketAddr) -> Self {
        Replica {
            addr,
            down: AtomicBool::new(false),
            served: AtomicU64::new(0),
            idle: Mutex::new(Vec::new()),
        }
    }

    fn park(&self, conn: TcpStream) {
        let mut idle = self.idle.lock().unwrap_or_else(|e| e.into_inner());
        if idle.len() < 8 {
            idle.push(conn);
        }
    }
}

/// One replica attempt in flight on the query's thread: its connection,
/// how much of its request frame is written, and the response bytes read
/// so far.
struct Attempt {
    partition: usize,
    replica: usize,
    req_id: u64,
    /// `None` until connected.
    conn: Option<TcpStream>,
    /// Taken from the idle pool: the peer may have closed it since.
    pooled: bool,
    frame: Vec<u8>,
    written: usize,
    response: Vec<u8>,
}

impl Attempt {
    /// What `poll` waits for on this attempt's socket.
    fn poll_fd(&self) -> PollFd {
        let writing = self.written < self.frame.len();
        PollFd {
            fd: self.conn.as_ref().map_or(-1, AsRawFd::as_raw_fd),
            events: if writing { POLLOUT } else { POLLIN },
            revents: 0,
        }
    }

    /// Writes what the socket takes of the request or, once it is all
    /// written, reads what has arrived of the response: the outcome once
    /// the response frame is whole, `None` before.
    fn exchange(&mut self) -> Option<Result<WireHits, NetError>> {
        let conn = self.conn.as_mut().expect("connected before its exchange");
        let writing = self.written < self.frame.len();
        let moved = if writing {
            let wrote = conn.write(&self.frame[self.written..]);
            wrote.inspect(|n| self.written += n)
        } else {
            read_some(conn, &mut self.response)
        };
        match moved {
            // The peer closed the connection.
            Ok(0) => return Some(Err(io::Error::from(io::ErrorKind::UnexpectedEof).into())),
            Ok(_) if writing => return None,
            Ok(_) => {}
            Err(e) if idle(&e) => return None,
            Err(e) => return Some(Err(e.into())),
        }
        let frame = parse_frame(&self.response).transpose()?;
        Some(frame.and_then(|(kind, got, body, used)| {
            if got != self.req_id {
                return Err(NetError::RequestIdMismatch {
                    expected: self.req_id,
                    got,
                });
            }
            if used != self.response.len() {
                return Err(NetError::Malformed("bytes after the response frame"));
            }
            match kind {
                KIND_HITS => decode_hits(body),
                KIND_ERROR => Err(NetError::Remote(decode_error(body)?)),
                other => Err(NetError::BadKind { got: other }),
            }
        }))
    }
}

/// `struct pollfd` of `poll(2)`.
#[repr(C)]
struct PollFd {
    fd: c_int,
    events: c_short,
    revents: c_short,
}

const POLLIN: c_short = 0x1;
const POLLOUT: c_short = 0x4;

extern "C" {
    fn poll(fds: *mut PollFd, nfds: c_ulong, timeout: c_int) -> c_int;
}

/// Waits until a socket of `fds` is ready, or `timeout` has passed: the
/// number of ready sockets, each flagged in its `revents`. The timeout is
/// rounded up to whole milliseconds, as rounding down would wake before
/// the gather's wake and spin; an interrupted wait is resumed.
fn wait(fds: &mut [PollFd], timeout: Duration) -> io::Result<usize> {
    let ms = c_int::try_from(timeout.as_nanos().div_ceil(1_000_000)).unwrap_or(c_int::MAX);
    loop {
        // SAFETY: the pointer and length describe `fds`, an exclusively
        // borrowed slice of `#[repr(C)]` `pollfd` records that outlives
        // the call, and `poll` writes only their `revents`. Every `fd` is
        // the socket of an attempt the caller still owns, so none is
        // closed during the call.
        let ready = unsafe { poll(fds.as_mut_ptr(), fds.len() as c_ulong, ms) };
        if let Ok(ready) = usize::try_from(ready) {
            return Ok(ready);
        }
        let e = io::Error::last_os_error();
        if e.kind() != io::ErrorKind::Interrupted {
            return Err(e);
        }
    }
}

/// Per-partition serving state: the replica set and the counters behind
/// [`Coordinator::stats`], shared by the drivers of concurrent queries.
#[derive(Default)]
struct PartitionState {
    id: usize,
    replicas: Vec<Replica>,
    /// Successful attempt wall latencies; feeds the p99 hedge delay and
    /// the per-node tail-latency attribution.
    latency: Mutex<LatencyHistogram>,
    requests: AtomicU64,
    hedged: AtomicU64,
    failed_over: AtomicU64,
    unavailable: AtomicU64,
    io_reads: AtomicU64,
    io_bytes: AtomicU64,
    io_nanos: AtomicU64,
}

impl PartitionState {
    /// Replica indices, healthy first (stable within each class), so a
    /// down replica is deprioritized but still reachable when everything
    /// else fails — and self-heals on its next success.
    fn replica_order(&self) -> Vec<usize> {
        let mut order: Vec<usize> = (0..self.replicas.len()).collect();
        order.sort_by_key(|&i| self.replicas[i].down.load(Ordering::SeqCst));
        order
    }
}

/// The partition's hedge delay: its observed p99 over `samples`
/// successful attempts once there are enough, the configured initial
/// delay before that.
fn hedge_delay(samples: u64, p99: Duration, config: &CoordinatorConfig) -> Duration {
    if samples >= config.hedge_min_samples {
        // Not `clamp`, which panics when `deadline / 2 < 1 ms`.
        p99.max(Duration::from_millis(1)).min(config.deadline / 2)
    } else {
        config.hedge_after
    }
}

// ---------------------------------------------------------------------------
// Gather: the coordinator's decisions, without a clock or a socket
// ---------------------------------------------------------------------------

/// Why the [`Gather`] asks for an attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum LaunchKind {
    /// The partition's first attempt.
    First,
    /// The partition's one hedge: its attempt outlived the hedge delay.
    Hedge,
    /// A retryable error moved the partition to its next replica.
    Failover,
}

/// An attempt the [`Gather`] asks its driver to start.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Launch {
    partition: usize,
    replica: usize,
    kind: LaunchKind,
}

/// The answer that won a partition.
#[derive(Debug)]
struct Won<T> {
    replica: usize,
    /// From the partition's first launch in flight to this answer.
    wall: Duration,
    hedged: bool,
    failed_over: bool,
    answer: T,
}

/// One partition's progress through one gathered query.
struct PartitionGather<T> {
    /// Replica indices in attempt order ([`PartitionState::replica_order`]).
    order: Vec<usize>,
    hedge_delay: Duration,
    /// When the first launch went in flight.
    started: Duration,
    /// A launch asked for and not yet handed to the driver.
    pending: Option<LaunchKind>,
    launched: usize,
    completed: usize,
    hedged: bool,
    failed_over: bool,
    /// The latest launch plus the hedge delay, while a hedge is left.
    hedge_at: Option<Duration>,
    /// Set once resolved; a later outcome is a hedge loser's.
    result: Option<Result<Won<T>, NetError>>,
}

/// The decisions of one gathered query: every partition's replica order,
/// hedge timer and failover, and the query's one deadline. It does no I/O,
/// starts no thread and never reads a clock: times are offsets from the
/// query's start, carried by every input.
///
/// A driver starts each [`Launch`] that [`Self::poll_launch`] hands out
/// and reports it [`Self::in_flight`], then feeds back each attempt's
/// outcome ([`Self::on_outcome`]), or [`Self::on_wake`] if none arrives
/// by [`Self::next_wake`], until that is `None`.
struct Gather<T> {
    parts: Vec<PartitionGather<T>>,
    deadline: Duration,
}

impl<T> Gather<T> {
    /// A gather over `(replica order, hedge delay)` per partition, in
    /// partition order, each with its first launch pending.
    fn new(plans: impl IntoIterator<Item = (Vec<usize>, Duration)>, deadline: Duration) -> Self {
        let parts = plans
            .into_iter()
            .map(|(order, hedge_delay)| PartitionGather {
                order,
                hedge_delay,
                started: Duration::ZERO,
                pending: Some(LaunchKind::First),
                launched: 0,
                completed: 0,
                hedged: false,
                failed_over: false,
                hedge_at: None,
                result: None,
            })
            .collect();
        Gather { parts, deadline }
    }

    /// The next attempt to start, lowest partition first.
    fn poll_launch(&mut self) -> Option<Launch> {
        let mut parts = self.parts.iter_mut().enumerate();
        let (partition, g) = parts.find(|(_, g)| g.pending.is_some())?;
        g.launched += 1;
        let (replica, kind) = (g.order[g.launched - 1], g.pending.take()?);
        Some(Launch {
            partition,
            replica,
            kind,
        })
    }

    /// The partition's latest launch is in flight at `now`: its hedge
    /// timer starts, while no hedge has fired and a replica is left.
    fn in_flight(&mut self, partition: usize, now: Duration) {
        let g = &mut self.parts[partition];
        if g.launched == 1 {
            g.started = now;
        }
        let left = !g.hedged && g.launched < g.order.len();
        g.hedge_at = now.checked_add(g.hedge_delay).filter(|_| left);
    }

    /// The earliest pending hedge or the deadline; `None` once every
    /// partition has resolved.
    fn next_wake(&self) -> Option<Duration> {
        let open = self.parts.iter().filter(|g| g.result.is_none());
        open.map(|g| g.hedge_at.map_or(self.deadline, |at| at.min(self.deadline)))
            .min()
    }

    /// Applies `replica`'s outcome for `partition`, delivered at `now`.
    /// The first answer wins an open partition; an outcome for a resolved
    /// one is a hedge loser's. [`NetError::Remote`] resolves the partition;
    /// any other error fails over to the next replica or, with none left
    /// and none in flight, makes it unavailable. At the deadline the query
    /// expires instead. No hedge fires here: an answer already waiting is
    /// applied first.
    fn on_outcome(
        &mut self,
        partition: usize,
        replica: usize,
        outcome: Result<T, NetError>,
        now: Duration,
    ) {
        if now >= self.deadline {
            return self.expire();
        }
        let g = &mut self.parts[partition];
        if g.result.is_some() {
            return;
        }
        g.result = match outcome {
            Ok(answer) => Some(Ok(Won {
                replica,
                wall: now.saturating_sub(g.started),
                hedged: g.hedged,
                failed_over: g.failed_over,
                answer,
            })),
            Err(e @ NetError::Remote(_)) => Some(Err(e)),
            Err(_) => {
                g.completed += 1;
                if g.launched < g.order.len() {
                    (g.failed_over, g.pending) = (true, Some(LaunchKind::Failover));
                }
                let exhausted = g.launched == g.order.len() && g.completed == g.launched;
                exhausted.then(|| Err(unavailable(partition, g.launched)))
            }
        };
    }

    /// Nothing arrived by [`Self::next_wake`]. At the deadline every open
    /// partition becomes unavailable; before it, the first open partition
    /// whose hedge is due hedges: one hedge per wake.
    fn on_wake(&mut self, now: Duration) {
        if now >= self.deadline {
            return self.expire();
        }
        let mut open = self.parts.iter_mut().filter(|g| g.result.is_none());
        if let Some(g) = open.find(|g| g.hedge_at.is_some_and(|at| at <= now)) {
            (g.hedged, g.hedge_at, g.pending) = (true, None, Some(LaunchKind::Hedge));
        }
    }

    fn expire(&mut self) {
        for (partition, g) in self.parts.iter_mut().enumerate() {
            let attempts = g.launched;
            g.result
                .get_or_insert_with(|| Err(unavailable(partition, attempts)));
        }
    }

    /// Every partition's result, in partition order, once `next_wake` is
    /// `None`.
    fn finish(self) -> impl Iterator<Item = Result<Won<T>, NetError>> {
        let results = self.parts.into_iter().map(|g| g.result);
        results.map(|r| r.expect("the gather resolves every partition"))
    }
}

fn unavailable(partition: usize, attempts: usize) -> NetError {
    NetError::PartitionUnavailable {
        partition,
        attempts,
    }
}

/// What one partition contributed to a gathered query.
#[derive(Debug, Clone)]
pub struct PartitionAttempt {
    /// Partition index.
    pub partition: usize,
    /// Replica that served the winning response.
    pub replica: usize,
    /// Wall time from the partition's first attempt in flight to the
    /// winning response.
    pub wall: Duration,
    /// Whether a hedge fired for this query.
    pub hedged: bool,
    /// Whether a replica error forced a failover for this query.
    pub failed_over: bool,
    /// Execution passes the serving node reported.
    pub passes: u8,
    /// Simulated I/O the serving node charged to this query.
    pub io: IoStats,
}

/// A gathered networked query: the merged global top-N plus per-partition
/// attribution.
#[derive(Debug, Clone)]
pub struct NetSearchOutcome {
    /// Globally ranked `(docid, score)` hits, best first — bit-identical
    /// to the in-process [`SimulatedCluster::search_scatter`] oracle.
    pub hits: Vec<(u32, f32)>,
    /// Max of the per-node pass counts (as the in-process service
    /// reports).
    pub passes: u8,
    /// One record per partition, in partition order.
    pub partitions: Vec<PartitionAttempt>,
}

/// Point-in-time serving statistics for one partition.
#[derive(Debug, Clone)]
pub struct PartitionServeStats {
    /// Partition index.
    pub partition: usize,
    /// Queries this partition served.
    pub requests: u64,
    /// Queries whose hedge timer fired.
    pub hedged: u64,
    /// Queries that failed over after a replica error.
    pub failed_over: u64,
    /// Queries that exhausted every replica.
    pub unavailable: u64,
    /// Median successful attempt latency.
    pub latency_p50: Duration,
    /// 95th-percentile successful attempt latency.
    pub latency_p95: Duration,
    /// 99th-percentile successful attempt latency — what gates the tail
    /// of every gathered query (§3.4's load-imbalance effect, now
    /// per-node attributable).
    pub latency_p99: Duration,
    /// Which replicas are currently marked down.
    pub replicas_down: Vec<bool>,
    /// Winning responses served per replica.
    pub served_by_replica: Vec<u64>,
}

/// Coordinator-wide serving statistics.
#[derive(Debug, Clone)]
pub struct CoordinatorStats {
    /// Per-partition records, in partition order.
    pub partitions: Vec<PartitionServeStats>,
    /// Total hedges fired.
    pub hedged: u64,
    /// Total failovers taken.
    pub failed_over: u64,
    /// Total partition-unavailable outcomes.
    pub unavailable: u64,
}

/// The networked scatter-gather coordinator: one replica set per
/// partition, a deadline per query, p99-hedged retries, and failover, as
/// described in the [module docs](self).
pub struct Coordinator {
    partitions: Vec<PartitionState>,
    config: CoordinatorConfig,
    next_request_id: AtomicU64,
}

impl Coordinator {
    /// A coordinator over `replica_addrs[partition][replica]` endpoints.
    ///
    /// # Panics
    /// Panics if any partition has no replicas.
    pub fn new(replica_addrs: Vec<Vec<SocketAddr>>, config: CoordinatorConfig) -> Self {
        assert!(!replica_addrs.is_empty(), "at least one partition required");
        let partitions = replica_addrs
            .into_iter()
            .enumerate()
            .map(|(id, addrs)| {
                assert!(!addrs.is_empty(), "partition {id} has no replicas");
                PartitionState {
                    id,
                    replicas: addrs.into_iter().map(Replica::new).collect(),
                    ..PartitionState::default()
                }
            })
            .collect();
        Coordinator {
            partitions,
            config,
            next_request_id: AtomicU64::new(1),
        }
    }

    /// Number of partitions.
    pub fn num_partitions(&self) -> usize {
        self.partitions.len()
    }

    /// The deterministic coordinator merge: descending score
    /// (`total_cmp`), global-docid tie-break, truncate to `n`. It is the
    /// one top-n merge: [`SimulatedCluster::search`] and
    /// [`SimulatedCluster::search_scatter`] gather through it too, so
    /// networked and in-process rankings are bit-identical on the same
    /// per-node lists.
    pub fn merge_hits(per_partition: Vec<Vec<(u32, f32)>>, n: usize) -> Vec<(u32, f32)> {
        let mut merged: Vec<(u32, f32)> = per_partition.into_iter().flatten().collect();
        merged.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
        merged.truncate(n);
        merged
    }

    /// Scatter-gathers one query over the socket layer on the calling
    /// thread, the only one it uses. This is the TCP driver of the query's
    /// `Gather` (see the [module docs](self)): the gather decides every
    /// launch, hedge, failover and the deadline; the driver moves bytes. It
    /// writes each launch's request on a pooled nonblocking connection,
    /// waits on every attempt's socket with one `poll(2)` until the
    /// gather's next wake, and feeds it each complete answer or the
    /// timeout. It keeps [`CoordinatorStats`], the replicas' health and
    /// the latency histogram behind the hedge delay, and merges the
    /// winners' hits.
    ///
    /// Errors are typed, never panics: a partition whose replicas are all
    /// exhausted, or that is unresolved at the deadline, yields
    /// [`NetError::PartitionUnavailable`]; a remote planning error
    /// propagates as [`NetError::Remote`]. With several, the first in
    /// partition order is returned.
    pub fn search(
        &self,
        terms: &[u32],
        strategy: SearchStrategy,
        n: usize,
    ) -> Result<NetSearchOutcome, NetError> {
        let payload = encode_search_request(terms, strategy, n);
        let start = Instant::now();
        let plans = self.partitions.iter().map(|part| {
            let hist = part.latency.lock().unwrap_or_else(|e| e.into_inner());
            let delay = hedge_delay(hist.count(), hist.p99(), &self.config);
            (part.replica_order(), delay)
        });
        let mut gather = Gather::new(plans, self.config.deadline);
        let mut flight: Vec<Attempt> = Vec::new();
        let mut fds: Vec<PollFd> = Vec::new();
        loop {
            while let Some(launch) = gather.poll_launch() {
                let part = &self.partitions[launch.partition];
                let counter = match launch.kind {
                    LaunchKind::First => &part.requests,
                    LaunchKind::Hedge => &part.hedged,
                    LaunchKind::Failover => &part.failed_over,
                };
                counter.fetch_add(1, Ordering::Relaxed);
                let req_id = self.next_request_id.fetch_add(1, Ordering::Relaxed);
                let mut frame = Vec::new();
                encode_frame(&mut frame, KIND_SEARCH, req_id, &payload);
                let idle = &part.replicas[launch.replica].idle;
                let conn = idle.lock().unwrap_or_else(|e| e.into_inner()).pop();
                let mut attempt = Attempt {
                    partition: launch.partition,
                    replica: launch.replica,
                    req_id,
                    pooled: conn.is_some(),
                    conn,
                    frame,
                    written: 0,
                    response: Vec::new(),
                };
                gather.in_flight(launch.partition, start.elapsed());
                match self.advance(&mut attempt, start) {
                    Some(outcome) => self.settle(attempt, outcome, &mut gather, start),
                    None => flight.push(attempt),
                }
            }
            let Some(wake) = gather.next_wake() else {
                break;
            };
            fds.clear();
            fds.extend(flight.iter().map(Attempt::poll_fd));
            wait(&mut fds, wake.saturating_sub(start.elapsed()))?;
            // Back to front, so that `swap_remove` moves visited attempts only.
            for (i, fd) in fds.iter().enumerate().rev() {
                if fd.revents != 0 {
                    if let Some(outcome) = self.advance(&mut flight[i], start) {
                        let attempt = flight.swap_remove(i);
                        self.settle(attempt, outcome, &mut gather, start);
                    }
                }
            }
            // After the answers that arrived, so that sockets that stay
            // ready cannot hold off a hedge or the deadline.
            if gather.next_wake().is_some_and(|at| start.elapsed() >= at) {
                gather.on_wake(start.elapsed());
            }
        }
        // What is still in flight is dropped with its connection: hedge
        // losers, and at the deadline attempts that timed out, whose
        // replicas go down.
        if start.elapsed() >= self.config.deadline {
            for a in &flight {
                self.partitions[a.partition].replicas[a.replica]
                    .down
                    .store(true, Ordering::SeqCst);
            }
        }
        // Partition order, exactly like the in-process gather.
        let mut lists = Vec::with_capacity(self.partitions.len());
        let mut partitions = Vec::with_capacity(self.partitions.len());
        let mut first_error = None;
        for (part, result) in self.partitions.iter().zip(gather.finish()) {
            let won = match result {
                Ok(won) => won,
                Err(e) => {
                    if matches!(e, NetError::PartitionUnavailable { .. }) {
                        part.unavailable.fetch_add(1, Ordering::Relaxed);
                    }
                    first_error.get_or_insert(e);
                    continue;
                }
            };
            let io = won.answer.io;
            part.latency
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .record(won.wall);
            part.replicas[won.replica]
                .served
                .fetch_add(1, Ordering::Relaxed);
            part.io_reads.fetch_add(io.reads, Ordering::Relaxed);
            part.io_bytes.fetch_add(io.bytes, Ordering::Relaxed);
            part.io_nanos.fetch_add(
                u64::try_from(io.sim_time.as_nanos()).unwrap_or(u64::MAX),
                Ordering::Relaxed,
            );
            partitions.push(PartitionAttempt {
                partition: part.id,
                replica: won.replica,
                wall: won.wall,
                hedged: won.hedged,
                failed_over: won.failed_over,
                passes: won.answer.passes,
                io,
            });
            lists.push(won.answer.hits);
        }
        if let Some(e) = first_error {
            return Err(e);
        }
        Ok(NetSearchOutcome {
            hits: Self::merge_hits(lists, n),
            passes: partitions.iter().map(|p| p.passes).fold(1, u8::max),
            partitions,
        })
    }

    /// Moves `a` as far as its socket allows without blocking, connecting
    /// it first if it has no connection: its outcome once complete. A
    /// transport failure on a pooled connection before any response byte
    /// is the peer having closed it while idle, so the attempt is retried
    /// once on a fresh connection, whose verdict is authoritative.
    fn advance(&self, a: &mut Attempt, start: Instant) -> Option<Result<WireHits, NetError>> {
        loop {
            if a.conn.is_none() {
                let addr = self.partitions[a.partition].replicas[a.replica].addr;
                match self.connect(addr, start.elapsed()) {
                    Ok(conn) => a.conn = Some(conn),
                    Err(e) => return Some(Err(e)),
                }
            }
            match a.exchange() {
                Some(Err(NetError::Io(_))) if a.pooled && a.response.is_empty() => {
                    (a.conn, a.pooled, a.written) = (None, false, 0);
                }
                outcome => return outcome,
            }
        }
    }

    /// A fresh connection to `addr`: connected blocking, within the connect
    /// timeout and what is left at `now` of the deadline, then switched to
    /// nonblocking.
    fn connect(&self, addr: SocketAddr, now: Duration) -> Result<TcpStream, NetError> {
        let left = self.config.deadline.saturating_sub(now);
        let timeout = self.config.connect_timeout.min(left);
        if timeout.is_zero() {
            return Err(NetError::Timeout);
        }
        let conn = TcpStream::connect_timeout(&addr, timeout)?;
        conn.set_nodelay(true)?;
        conn.set_nonblocking(true)?;
        Ok(conn)
    }

    /// Applies a finished attempt's outcome: to its replica's health (an
    /// answer marks it up, a transport or protocol failure down, and a
    /// remote refusal is a healthy transport), to the idle pool, which
    /// takes the connection back after a complete exchange, and to the
    /// gather.
    fn settle(
        &self,
        a: Attempt,
        outcome: Result<WireHits, NetError>,
        gather: &mut Gather<WireHits>,
        start: Instant,
    ) {
        let replica = &self.partitions[a.partition].replicas[a.replica];
        let remote = matches!(outcome, Err(NetError::Remote(_)));
        if !remote {
            replica.down.store(outcome.is_err(), Ordering::SeqCst);
        }
        if let Some(conn) = a.conn.filter(|_| remote || outcome.is_ok()) {
            replica.park(conn);
        }
        gather.on_outcome(a.partition, a.replica, outcome, start.elapsed());
    }

    /// Point-in-time serving statistics, per partition and total.
    pub fn stats(&self) -> CoordinatorStats {
        let partitions: Vec<PartitionServeStats> = self
            .partitions
            .iter()
            .map(|p| {
                let hist = p.latency.lock().unwrap_or_else(|e| e.into_inner());
                PartitionServeStats {
                    partition: p.id,
                    requests: p.requests.load(Ordering::Relaxed),
                    hedged: p.hedged.load(Ordering::Relaxed),
                    failed_over: p.failed_over.load(Ordering::Relaxed),
                    unavailable: p.unavailable.load(Ordering::Relaxed),
                    latency_p50: hist.p50(),
                    latency_p95: hist.p95(),
                    latency_p99: hist.p99(),
                    replicas_down: p
                        .replicas
                        .iter()
                        .map(|r| r.down.load(Ordering::SeqCst))
                        .collect(),
                    served_by_replica: p
                        .replicas
                        .iter()
                        .map(|r| r.served.load(Ordering::Relaxed))
                        .collect(),
                }
            })
            .collect();
        let hedged = partitions.iter().map(|p| p.hedged).sum();
        let failed_over = partitions.iter().map(|p| p.failed_over).sum();
        let unavailable = partitions.iter().map(|p| p.unavailable).sum();
        CoordinatorStats {
            partitions,
            hedged,
            failed_over,
            unavailable,
        }
    }

    /// Cumulative simulated I/O the remote nodes reported for queries this
    /// coordinator gathered.
    pub fn io_stats(&self) -> IoStats {
        let mut total = IoStats::default();
        for p in &self.partitions {
            total.merge(&IoStats {
                reads: p.io_reads.load(Ordering::Relaxed),
                bytes: p.io_bytes.load(Ordering::Relaxed),
                sim_time: Duration::from_nanos(p.io_nanos.load(Ordering::Relaxed)),
            });
        }
        total
    }
}

/// Worker-pool integration: every admitted query scatter-gathers over the
/// socket layer with the coordinator's deadline/hedge/failover machinery.
/// Per the [`crate::serve::QueryService`] contract the pool serves
/// well-configured plans; with replication a node fault is absorbed by
/// failover, so reaching an actual [`NetError`] here (every replica of a
/// partition gone) is a serving-configuration fault and panics with the
/// typed error's message.
impl crate::serve::QueryService for Arc<Coordinator> {
    fn execute(
        &self,
        terms: &[u32],
        strategy: SearchStrategy,
        n: usize,
    ) -> crate::serve::ServedQuery {
        let outcome = self
            .search(terms, strategy, n)
            .unwrap_or_else(|e| panic!("networked serving path: {e}"));
        // As for the in-process cluster service: the slowest node's
        // simulated disk time gates the query.
        let io_time = outcome
            .partitions
            .iter()
            .map(|p| p.io.sim_time)
            .max()
            .unwrap_or(Duration::ZERO);
        crate::serve::ServedQuery {
            hits: outcome.hits,
            io_time,
            passes: outcome.passes,
        }
    }

    fn io_stats(&self) -> IoStats {
        Coordinator::io_stats(self)
    }
}

// ---------------------------------------------------------------------------
// Cluster-to-network assembly
// ---------------------------------------------------------------------------

/// A [`SimulatedCluster`] promoted to the network: `replicas` serving
/// endpoints per partition (sharing the partition's node state — the
/// replicated-data case where any replica answers bit-identically) and a
/// [`Coordinator`] wired to all of them.
pub struct NetCluster {
    servers: Vec<Vec<NodeServer>>,
    coordinator: Arc<Coordinator>,
}

impl NetCluster {
    /// Spawns `replicas` [`NodeServer`]s per partition of `cluster` on
    /// loopback and a coordinator over them.
    ///
    /// # Panics
    /// Panics if `replicas == 0`.
    pub fn serve(
        cluster: &SimulatedCluster,
        replicas: usize,
        config: CoordinatorConfig,
    ) -> io::Result<NetCluster> {
        assert!(replicas > 0, "at least one replica required");
        let mut servers = Vec::with_capacity(cluster.num_nodes());
        let mut addrs = Vec::with_capacity(cluster.num_nodes());
        for (partition, node) in cluster.nodes().iter().enumerate() {
            let mut replica_servers = Vec::with_capacity(replicas);
            let mut replica_addrs = Vec::with_capacity(replicas);
            for _ in 0..replicas {
                let server = NodeServer::spawn(Arc::clone(node), partition)?;
                replica_addrs.push(server.addr());
                replica_servers.push(server);
            }
            servers.push(replica_servers);
            addrs.push(replica_addrs);
        }
        Ok(NetCluster {
            servers,
            coordinator: Arc::new(Coordinator::new(addrs, config)),
        })
    }

    /// The coordinator (clone the `Arc` to hand it to a worker pool).
    pub fn coordinator(&self) -> &Arc<Coordinator> {
        &self.coordinator
    }

    /// The serving endpoint for `partition`'s `replica` (fault
    /// injection).
    pub fn server(&self, partition: usize, replica: usize) -> &NodeServer {
        &self.servers[partition][replica]
    }

    /// Kills one serving endpoint (see [`NodeServer::kill`]).
    pub fn kill_server(&self, partition: usize, replica: usize) {
        self.servers[partition][replica].kill();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frames_roundtrip() {
        let payload = encode_search_request(&[3, 1, 4, 1, 5], SearchStrategy::Bm25TwoPass, 20);
        let mut wire = Vec::new();
        encode_frame(&mut wire, KIND_SEARCH, 42, &payload);
        let (kind, id, body, used) = parse_frame(&wire).unwrap().unwrap();
        assert_eq!((kind, id, used), (KIND_SEARCH, 42, wire.len()));
        let req = decode_search_request(body).unwrap();
        assert_eq!(req.terms, vec![3, 1, 4, 1, 5]);
        assert_eq!(req.strategy, SearchStrategy::Bm25TwoPass);
        assert_eq!(req.n, 20);
    }

    #[test]
    fn hits_roundtrip_is_bit_exact() {
        // Scores travel as f32 bits: NaNs, negative zero and denormals
        // survive untouched.
        let hits = vec![
            (7u32, f32::from_bits(0x7fc0_1234)), // a NaN payload
            (1, -0.0),
            (u32::MAX, f32::MIN_POSITIVE / 2.0),
        ];
        let io = IoStats {
            reads: 3,
            bytes: 4096,
            sim_time: Duration::from_micros(17),
        };
        let mut payload = Vec::new();
        encode_hits(&hits, 2, Duration::from_millis(1), &io, &mut payload);
        let decoded = decode_hits(&payload).unwrap();
        assert_eq!(decoded.passes, 2);
        assert_eq!(decoded.io, io);
        assert_eq!(decoded.hits.len(), hits.len());
        for (got, want) in decoded.hits.iter().zip(&hits) {
            assert_eq!(got.0, want.0);
            assert_eq!(got.1.to_bits(), want.1.to_bits());
        }
    }

    #[test]
    fn corrupt_frames_surface_typed_errors_never_panic() {
        let payload = encode_search_request(&[1, 2], SearchStrategy::Bm25, 10);
        let mut wire = Vec::new();
        encode_frame(&mut wire, KIND_SEARCH, 7, &payload);

        // Every single-byte flip decodes to a typed error or (for payload
        // bytes whose flip keeps the checksum math consistent — none, the
        // checksum covers all of them) a valid frame.
        for i in 0..wire.len() {
            let mut bad = wire.clone();
            bad[i] ^= 0xFF;
            match parse_frame(&bad) {
                Ok(Some((kind, id, body, _))) => {
                    // Only the request-id bytes can flip without breaking
                    // any validated field.
                    assert!((8..16).contains(&i), "byte {i} flip silently accepted");
                    assert_eq!(kind, KIND_SEARCH);
                    assert_ne!(id, 7);
                    assert_eq!(body, payload);
                }
                // A longer declared length waits for more bytes.
                Ok(None) => assert!(i < 4, "byte {i} flip made the frame look incomplete"),
                Err(e) => {
                    let _ = e.to_string(); // display must not panic either
                }
            }
        }

        // Every truncation is incomplete, never a frame: a reader waits
        // for the rest.
        for len in 0..wire.len() {
            assert!(matches!(parse_frame(&wire[..len]), Ok(None)));
        }

        // An oversized declared length is rejected before allocation.
        let mut bomb = wire.clone();
        bomb[0..4].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(
            parse_frame(&bomb[..HEADER_LEN]),
            Err(NetError::FrameTooLarge { .. })
        ));
    }

    #[test]
    fn malformed_payloads_are_typed() {
        assert!(matches!(
            decode_search_request(&[]),
            Err(NetError::Malformed(_))
        ));
        // Unknown strategy tag.
        let mut bad = encode_search_request(&[1], SearchStrategy::Bm25, 5);
        bad[0] = 200;
        assert!(matches!(
            decode_search_request(&bad),
            Err(NetError::Malformed(_))
        ));
        // Declared more terms than bytes present.
        let mut short = encode_search_request(&[1, 2, 3], SearchStrategy::Bm25, 5);
        short.truncate(short.len() - 4);
        assert!(matches!(
            decode_search_request(&short),
            Err(NetError::Malformed(_))
        ));
        // Trailing bytes rejected.
        let mut long = encode_search_request(&[1], SearchStrategy::Bm25, 5);
        long.push(0);
        assert!(matches!(
            decode_search_request(&long),
            Err(NetError::Malformed(_))
        ));
        // Hits with a short body.
        assert!(decode_hits(&[1, 2, 3]).is_err());
    }

    #[test]
    fn a_declared_count_beyond_the_payload_fails_before_reserving() {
        // A 9-byte request declaring u32::MAX terms, and a hits payload
        // declaring u32::MAX hits: each is refused by its own message, not
        // after reserving room for what it declared.
        let too_many = |r: Result<_, NetError>| {
            matches!(
                r,
                Err(NetError::Malformed("declared count exceeds the payload"))
            )
        };
        let mut request = encode_search_request(&[], SearchStrategy::Bm25, 10);
        assert_eq!(request.len(), 9);
        request[5..9].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(too_many(decode_search_request(&request).map(|_| ())));
        let mut hits = Vec::new();
        encode_hits(&[], 1, Duration::ZERO, &IoStats::default(), &mut hits);
        let at = hits.len() - 4;
        hits[at..].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(too_many(decode_hits(&hits).map(|_| ())));
    }

    /// A `Write` that counts its calls.
    #[derive(Default)]
    struct CountingWrite {
        calls: usize,
        bytes: Vec<u8>,
    }

    impl Write for CountingWrite {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.calls += 1;
            self.bytes.extend_from_slice(buf);
            Ok(buf.len())
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn every_frame_is_one_write() {
        let mut hits = Vec::new();
        encode_hits(
            &[(3, 0.5)],
            1,
            Duration::ZERO,
            &IoStats::default(),
            &mut hits,
        );
        let frames = [
            (
                KIND_SEARCH,
                encode_search_request(&[1, 2], SearchStrategy::Bm25, 10),
            ),
            (KIND_HITS, hits),
            (KIND_ERROR, encode_error("refused")),
        ];
        let mut buf = Vec::new();
        for (kind, payload) in frames {
            let mut w = CountingWrite::default();
            write_frame(&mut w, &mut buf, kind, 5, &payload).unwrap();
            assert_eq!(w.calls, 1, "frame kind {kind}");
            let (got, id, body, used) = parse_frame(&w.bytes).unwrap().unwrap();
            assert_eq!(
                (got, id, body, used),
                (kind, 5, &payload[..], w.bytes.len())
            );
        }
    }

    #[test]
    fn a_request_straddling_poll_ticks_is_answered() {
        // The header, then the payload three poll ticks later: the node
        // keeps the header it read and answers the whole request.
        let c = x100_corpus::SyntheticCollection::generate(&x100_corpus::CollectionConfig::tiny());
        let cluster = SimulatedCluster::build(&c, 1, &x100_ir::IndexConfig::compressed());
        let server = NodeServer::spawn(Arc::clone(&cluster.nodes()[0]), 0).unwrap();
        let payload = encode_search_request(&c.eval_queries[0].terms, SearchStrategy::Bm25, 10);
        let mut frame = Vec::new();
        encode_frame(&mut frame, KIND_SEARCH, 99, &payload);
        let mut conn = TcpStream::connect(server.addr()).unwrap();
        conn.write_all(&frame[..HEADER_LEN]).unwrap();
        std::thread::sleep(3 * SERVER_POLL);
        conn.write_all(&frame[HEADER_LEN..]).unwrap();
        conn.set_read_timeout(Some(Duration::from_secs(2))).unwrap();
        let mut response = Vec::new();
        while parse_frame(&response).unwrap().is_none() {
            assert_ne!(read_some(&mut conn, &mut response).unwrap(), 0, "closed");
        }
        let (kind, id, body, _) = parse_frame(&response).unwrap().unwrap();
        assert_eq!((kind, id), (KIND_HITS, 99));
        assert!(!decode_hits(body).unwrap().hits.is_empty());
        server.kill();
    }

    #[test]
    fn a_remote_refusal_on_a_pooled_connection_is_asked_once_and_parked() {
        // A fake node: hits for its first request, a refusal for every
        // later one, counting requests and accepted connections.
        let listener = TcpListener::bind((std::net::Ipv4Addr::LOCALHOST, 0)).unwrap();
        let addr = listener.local_addr().unwrap();
        let requests = Arc::new(AtomicU64::new(0));
        let conns = Arc::new(AtomicU64::new(0));
        let (served, accepted) = (Arc::clone(&requests), Arc::clone(&conns));
        std::thread::spawn(move || {
            for mut conn in listener.incoming().map_while(Result::ok) {
                accepted.fetch_add(1, Ordering::SeqCst);
                let served = Arc::clone(&served);
                std::thread::spawn(move || {
                    let (mut received, mut frame, mut hits) = (Vec::new(), Vec::new(), Vec::new());
                    encode_hits(&[], 1, Duration::ZERO, &IoStats::default(), &mut hits);
                    loop {
                        let Ok(Some((_, id, _, used))) = parse_frame(&received) else {
                            match read_some(&mut conn, &mut received) {
                                Ok(n) if n > 0 => continue,
                                _ => return,
                            }
                        };
                        received.drain(..used);
                        let answer = match served.fetch_add(1, Ordering::SeqCst) {
                            0 => (KIND_HITS, hits.clone()),
                            _ => (KIND_ERROR, encode_error("refused")),
                        };
                        write_frame(&mut conn, &mut frame, answer.0, id, &answer.1).unwrap();
                    }
                });
            }
        });
        let coordinator = Coordinator::new(vec![vec![addr]], CoordinatorConfig::default());
        let search = || coordinator.search(&[1], SearchStrategy::Bm25, 10);
        assert!(search().unwrap().hits.is_empty());
        assert!(matches!(search(), Err(NetError::Remote(msg)) if msg == "refused"));
        let counts = (
            requests.load(Ordering::SeqCst),
            conns.load(Ordering::SeqCst),
        );
        assert_eq!(counts, (2, 1), "(requests, connections)");
    }

    #[test]
    fn merge_hits_matches_cluster_merge_ordering() {
        // The one merge contract, in-process gathers included: score
        // descending by total_cmp, docid ascending on ties, truncate.
        let merged = Coordinator::merge_hits(
            vec![vec![(5, 2.0), (9, 1.0)], vec![(3, 2.0), (1, 1.0), (2, 0.5)]],
            4,
        );
        assert_eq!(merged, vec![(3, 2.0), (5, 2.0), (1, 1.0), (9, 1.0)]);
    }

    #[test]
    fn server_drops_the_handles_of_finished_connections() {
        let c = x100_corpus::SyntheticCollection::generate(&x100_corpus::CollectionConfig::tiny());
        let cluster = SimulatedCluster::build(&c, 1, &x100_ir::IndexConfig::compressed());
        let server = NodeServer::spawn(Arc::clone(&cluster.nodes()[0]), 0).unwrap();
        for _ in 0..50 {
            drop(TcpStream::connect(server.addr()).unwrap());
        }
        // The list shrinks on an accept: connect until the threads of the
        // dropped connections have ended and left it.
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            let _stream = TcpStream::connect(server.addr()).unwrap();
            std::thread::sleep(Duration::from_millis(20));
            let n = server.workers.lock().unwrap().len();
            if n <= 4 {
                break;
            }
            assert!(Instant::now() < deadline, "{n} connection handles kept");
        }
        server.kill();
    }

    #[test]
    fn hedge_delay_never_exceeds_half_the_deadline() {
        // Under a 2 ms deadline the 1 ms floor and the cap cross; the cap
        // wins.
        for deadline in [Duration::from_millis(1), Duration::from_secs(2)] {
            let config = CoordinatorConfig {
                deadline,
                hedge_min_samples: 0,
                ..CoordinatorConfig::default()
            };
            let floor = Duration::from_millis(1).min(deadline / 2);
            assert_eq!(hedge_delay(0, Duration::ZERO, &config), floor);
            let slow = Duration::from_secs(30);
            assert_eq!(hedge_delay(1, slow, &config), deadline / 2);
        }
    }

    /// Drains the gather's launches, each put in flight at `now`.
    fn launches(g: &mut Gather<()>, now: Duration) -> Vec<Launch> {
        std::iter::from_fn(|| {
            let launch = g.poll_launch()?;
            g.in_flight(launch.partition, now);
            Some(launch)
        })
        .collect()
    }

    #[test]
    fn one_hedge_fires_per_wake_and_a_waiting_answer_is_applied() {
        // Three partitions whose hedges fall due together at 5 ms.
        let ms = Duration::from_millis;
        let mut g = Gather::new((0..3).map(|_| (vec![0, 1], ms(5))), ms(100));
        let first = launches(&mut g, ms(0));
        assert!(first
            .iter()
            .all(|l| l.kind == LaunchKind::First && l.replica == 0));
        assert_eq!(first.len(), 3);
        assert_eq!(g.next_wake(), Some(ms(5)));
        let hedge = |partition| Launch {
            partition,
            replica: 1,
            kind: LaunchKind::Hedge,
        };
        // One wake, one hedge: the lowest due partition.
        g.on_wake(ms(5));
        assert_eq!(launches(&mut g, ms(5)), [hedge(0)]);
        assert_eq!(g.next_wake(), Some(ms(5)), "two hedges are still due");
        // An outcome fires no hedge, and the answer it carries is applied.
        g.on_outcome(1, 0, Ok(()), ms(5));
        assert_eq!(launches(&mut g, ms(5)), []);
        // The next wake hedges the last due partition.
        g.on_wake(ms(5));
        assert_eq!(launches(&mut g, ms(5)), [hedge(2)]);
        assert_eq!(g.next_wake(), Some(ms(100)));
        // A loser changes nothing; the deadline expires the rest.
        g.on_outcome(1, 1, Err(NetError::Timeout), ms(6));
        g.on_wake(ms(100));
        assert_eq!(g.next_wake(), None);
        let results: Vec<_> = g.finish().collect();
        assert!(matches!(
            results[1],
            Ok(Won {
                replica: 0,
                hedged: false,
                ..
            })
        ));
        for p in [0, 2] {
            assert!(matches!(
                results[p],
                Err(NetError::PartitionUnavailable { partition, attempts: 2 }) if partition == p
            ));
        }
    }

    /// SplitMix64: the virtual-clock property's seeded draws.
    struct Rng(u64);

    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        fn below(&mut self, n: u64) -> u64 {
            self.next() % n
        }

        /// A duration of `0..=max` whole microseconds.
        fn upto(&mut self, max: Duration) -> Duration {
            Duration::from_micros(self.below(max.as_micros() as u64 + 1))
        }
    }

    /// How a replica answers in the virtual cluster.
    #[derive(Debug, Clone, Copy, PartialEq)]
    enum Fault {
        Answer,
        Retryable,
        Remote,
        /// Never answers.
        Stall,
    }

    /// One drawn case: the coordinator's configuration and its partitions.
    #[derive(Debug)]
    struct Case {
        config: CoordinatorConfig,
        partitions: Vec<Part>,
    }

    /// A partition's replica order, hedge delay, and each replica's
    /// latency and fault.
    #[derive(Debug)]
    struct Part {
        order: Vec<usize>,
        delay: Duration,
        replicas: Vec<(Duration, Fault)>,
    }

    fn draw(seed: u64) -> Case {
        let mut rng = Rng(seed);
        let ms = Duration::from_millis;
        // A quarter of the deadlines fall under 2 ms, where the hedge
        // delay's floor and cap cross.
        let spread = if rng.below(4) == 0 { ms(1) } else { ms(1999) };
        let deadline = ms(1) + rng.upto(spread);
        let config = CoordinatorConfig {
            deadline,
            hedge_after: rng.upto(deadline * 2),
            hedge_min_samples: rng.below(4),
            ..CoordinatorConfig::default()
        };
        let replicas = 1 + rng.below(3) as usize;
        let partitions = (0..1 + rng.below(6))
            .map(|_| {
                let mut order: Vec<usize> = (0..replicas).collect();
                for i in (1..replicas).rev() {
                    order.swap(i, rng.below(i as u64 + 1) as usize);
                }
                let (samples, p99) = (rng.below(6), rng.upto(deadline * 2));
                let delay = hedge_delay(samples, p99, &config);
                let replicas = (0..replicas)
                    .map(|_| {
                        // One latency in eight lands a first attempt's
                        // answer exactly on the deadline.
                        let latency = match rng.below(8) {
                            0 => deadline,
                            1 => Duration::ZERO,
                            _ => rng.upto(deadline * 3 / 2),
                        };
                        let fault = match rng.below(6) {
                            0..=2 => Fault::Answer,
                            3 => Fault::Retryable,
                            4 => Fault::Remote,
                            _ => Fault::Stall,
                        };
                        (latency, fault)
                    })
                    .collect();
                Part {
                    order,
                    delay,
                    replicas,
                }
            })
            .collect();
        Case { config, partitions }
    }

    /// The input the virtual driver last gave the gather.
    #[derive(Debug, Clone, Copy, PartialEq)]
    enum Input {
        Start,
        Wake,
        Outcome { partition: usize, fault: Fault },
    }

    /// Drives one case's gather on a virtual clock — attempt outcomes are
    /// events delivered from a heap in `(time, seq)` order, with no thread
    /// and no sleep — and checks its invariants after every input.
    fn run_case(seed: u64) {
        use std::cmp::Reverse;
        use std::collections::BinaryHeap;

        let case = draw(seed);
        let deadline = case.config.deadline;
        let ctx = |what: &str| format!("seed {seed}: {what}\n{case:#?}");
        let parts = &case.partitions;
        let mut gather: Gather<usize> = Gather::new(
            parts.iter().map(|part| (part.order.clone(), part.delay)),
            deadline,
        );
        let mut events = BinaryHeap::new();
        let mut seq = 0u64;
        let mut now = Duration::ZERO;
        let mut input = Input::Start;
        // Per partition: the launches, the armed hedge time, the retryable
        // errors delivered, the first answer or refusal delivered before
        // the deadline (step, replica, fault), and the step, time and
        // result at resolution.
        let mut launched: Vec<Vec<Launch>> = vec![Vec::new(); parts.len()];
        let mut hedge_at: Vec<Option<Duration>> = vec![None; parts.len()];
        let mut retryable = vec![0usize; parts.len()];
        let mut first_final: Vec<Option<(usize, usize, Fault)>> = vec![None; parts.len()];
        let mut resolved: Vec<Option<(usize, Duration, String)>> = vec![None; parts.len()];
        // On a wake: the lowest open partition whose hedge is due.
        let mut due = None;
        for step in 0.. {
            assert!(step < 1_000, "{}", ctx("the gather does not terminate"));
            for (p, g) in gather.parts.iter().enumerate() {
                if let (Some(result), None) = (&g.result, &resolved[p]) {
                    resolved[p] = Some((step, now, format!("{result:?}")));
                }
            }
            let mut hedged = Vec::new();
            while let Some(l) = gather.poll_launch() {
                let p = l.partition;
                let Part {
                    order,
                    delay,
                    replicas,
                } = &parts[p];
                assert!(
                    resolved[p].is_none(),
                    "{}",
                    ctx("launch for a resolved partition")
                );
                assert_eq!(
                    order.get(launched[p].len()),
                    Some(&l.replica),
                    "{}",
                    ctx("launch out of order")
                );
                match l.kind {
                    LaunchKind::First => assert!(input == Input::Start && launched[p].is_empty()),
                    LaunchKind::Hedge => {
                        hedged.push(p);
                        assert_eq!(input, Input::Wake, "{}", ctx("hedge not on a wake"));
                        assert!(
                            hedge_at[p].is_some_and(|at| at <= now),
                            "{}",
                            ctx("early hedge")
                        );
                        assert!(launched[p].iter().all(|l| l.kind != LaunchKind::Hedge));
                    }
                    LaunchKind::Failover => {
                        let after = Input::Outcome {
                            partition: p,
                            fault: Fault::Retryable,
                        };
                        assert_eq!(
                            input,
                            after,
                            "{}",
                            ctx("failover not after a retryable error")
                        );
                    }
                }
                launched[p].push(l);
                gather.in_flight(p, now);
                let hedged = launched[p].iter().any(|l| l.kind == LaunchKind::Hedge);
                hedge_at[p] = (!hedged && launched[p].len() < order.len())
                    .then(|| now.checked_add(*delay))
                    .flatten();
                let (latency, fault) = replicas[l.replica];
                if fault != Fault::Stall {
                    seq += 1;
                    events.push(Reverse((now + latency, seq, p, l.replica)));
                }
            }
            if input == Input::Wake {
                let expected: Vec<usize> = due.into_iter().collect();
                assert_eq!(hedged, expected, "{}", ctx("not one hedge per wake"));
            }
            let Some(wake) = gather.next_wake() else {
                break;
            };
            let open = (0..parts.len()).filter(|&p| resolved[p].is_none());
            let earliest = open
                .filter_map(|p| hedge_at[p])
                .fold(deadline, Duration::min);
            assert_eq!(
                wake,
                earliest,
                "{}",
                ctx("not the earliest hedge or the deadline")
            );
            match events.peek() {
                Some(&Reverse((at, _, p, replica))) if at <= wake.max(now) => {
                    events.pop();
                    now = at;
                    let fault = parts[p].replicas[replica].1;
                    let is_final = matches!(fault, Fault::Answer | Fault::Remote);
                    if is_final && now < deadline && first_final[p].is_none() {
                        first_final[p] = Some((step + 1, replica, fault));
                    }
                    retryable[p] += usize::from(fault == Fault::Retryable);
                    let outcome = match fault {
                        Fault::Answer => Ok(replica),
                        Fault::Retryable => Err(NetError::Timeout),
                        Fault::Remote => Err(NetError::Remote("refused".into())),
                        Fault::Stall => unreachable!("a stall never answers"),
                    };
                    input = Input::Outcome {
                        partition: p,
                        fault,
                    };
                    gather.on_outcome(p, replica, outcome, now);
                }
                _ => {
                    now = now.max(wake);
                    due = (0..parts.len()).find(|&p| {
                        now < deadline
                            && resolved[p].is_none()
                            && hedge_at[p].is_some_and(|at| at <= now)
                    });
                    input = Input::Wake;
                    gather.on_wake(now);
                }
            }
        }
        let (mut hedges, mut failovers, mut launches) = (0, 0, 0);
        for (p, result) in gather.finish().enumerate() {
            let (step, at, seen) = resolved[p].clone().expect("resolved before the end");
            assert!(at <= deadline, "{}", ctx("resolved after the deadline"));
            assert_eq!(
                format!("{result:?}"),
                seen,
                "{}",
                ctx("a later outcome changed a result")
            );
            let attempts = launched[p].len();
            // The first answer or refusal that reaches the open partition
            // before the deadline resolves it; without one, it is
            // unavailable, out of replicas or out of time.
            match (result, first_final[p]) {
                (Ok(won), Some((s, replica, Fault::Answer))) if s == step => {
                    assert_eq!((won.replica, won.answer), (replica, replica));
                    let hedged = launched[p].iter().any(|l| l.kind == LaunchKind::Hedge);
                    assert_eq!(won.hedged, hedged, "{}", ctx("hedged flag"));
                }
                (Err(NetError::Remote(_)), Some((s, _, Fault::Remote))) if s == step => {}
                (
                    Err(NetError::PartitionUnavailable {
                        partition,
                        attempts: a,
                    }),
                    last,
                ) if last.is_none_or(|(s, ..)| s > step) => {
                    assert_eq!((partition, a), (p, attempts), "{}", ctx("attempts"));
                    let exhausted = attempts == parts[p].order.len() && retryable[p] == attempts;
                    let why = "unavailable with a replica left before the deadline";
                    assert!(exhausted || at >= deadline, "{}", ctx(why));
                }
                (result, first) => panic!(
                    "{}",
                    ctx(&format!(
                        "{result:?} at step {step}, first final reply {first:?}"
                    ))
                ),
            }
            launches += attempts;
            hedges += launched[p]
                .iter()
                .filter(|l| l.kind == LaunchKind::Hedge)
                .count();
            failovers += launched[p]
                .iter()
                .filter(|l| l.kind == LaunchKind::Failover)
                .count();
        }
        assert_eq!(
            hedges + failovers,
            launches - parts.len(),
            "{}",
            ctx("launch kinds")
        );
    }

    #[test]
    fn gather_on_a_virtual_clock_keeps_its_invariants() {
        let started = Instant::now();
        for seed in 0..4_000 {
            // A panic inside the gather carries no seed of its own.
            if std::panic::catch_unwind(|| run_case(seed)).is_err() {
                panic!("virtual-clock case {seed} failed, as reported above");
            }
        }
        eprintln!("4 000 virtual-clock cases in {:?}", started.elapsed());
    }
}
