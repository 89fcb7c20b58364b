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
//! TCP driver: it starts each attempt the gather asks for on a detached
//! thread, waits on one channel until the gather's next wake, and feeds
//! back each outcome or the timeout. The tests drive the same `Gather`
//! on a virtual clock. It treats every peer as failable:
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
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, Ordering};
use std::sync::mpsc;
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

fn write_frame(w: &mut impl Write, kind: u8, req_id: u64, payload: &[u8]) -> Result<(), NetError> {
    debug_assert!(payload.len() <= MAX_PAYLOAD);
    let mut header = [0u8; HEADER_LEN];
    header[0..4].copy_from_slice(&(payload.len() as u32).to_le_bytes());
    header[4] = PROTOCOL_VERSION;
    header[5] = kind;
    // [6..8) reserved, zero.
    header[8..16].copy_from_slice(&req_id.to_le_bytes());
    header[16..24].copy_from_slice(&fnv1a64(payload).to_le_bytes());
    w.write_all(&header)?;
    w.write_all(payload)?;
    w.flush()?;
    Ok(())
}

/// Reads and validates one frame: `(kind, request id, payload)`.
fn read_frame(r: &mut impl Read) -> Result<(u8, u64, Vec<u8>), NetError> {
    let mut header = [0u8; HEADER_LEN];
    r.read_exact(&mut header)?;
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
    let req_id = u64::from_le_bytes(header[8..16].try_into().unwrap());
    let expected = u64::from_le_bytes(header[16..24].try_into().unwrap());
    let mut payload = vec![0u8; len];
    r.read_exact(&mut payload)?;
    let got = fnv1a64(&payload);
    if got != expected {
        return Err(NetError::ChecksumMismatch { expected, got });
    }
    Ok((kind, req_id, payload))
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
    let count = r.u32()? as usize;
    let mut terms = Vec::with_capacity(count.min(MAX_PAYLOAD / 4));
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
    let count = r.u32()? as usize;
    let mut hits = Vec::with_capacity(count.min(MAX_PAYLOAD / 8));
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
/// protocol garbage, or shutdown.
fn serve_connection(mut stream: TcpStream, node: &Node, shutdown: &AtomicBool, fault: &AtomicU8) {
    let _ = stream.set_nodelay(true);
    if stream.set_read_timeout(Some(SERVER_POLL)).is_err() {
        return;
    }
    let mut hits: Vec<(u32, f32)> = Vec::new();
    let mut response = Vec::new();
    loop {
        if shutdown.load(Ordering::SeqCst) {
            return;
        }
        let (kind, req_id, payload) = match read_frame(&mut stream) {
            Ok(frame) => frame,
            Err(NetError::Timeout) => continue, // poll tick: re-check shutdown
            Err(_) => return,                   // disconnect or unrecoverable garbage: drop
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
                let payload = encode_error("garbage fault");
                let mut header = [0u8; HEADER_LEN];
                header[0..4].copy_from_slice(&(payload.len() as u32).to_le_bytes());
                header[4] = PROTOCOL_VERSION;
                header[5] = KIND_ERROR;
                header[8..16].copy_from_slice(&req_id.to_le_bytes());
                header[16..24].copy_from_slice(&(fnv1a64(&payload) ^ 0xDEAD_BEEF).to_le_bytes());
                let _ = stream.write_all(&header);
                let _ = stream.write_all(&payload);
                let _ = stream.flush();
                return;
            }
        }
        if kind != KIND_SEARCH {
            return;
        }
        let request = match decode_search_request(&payload) {
            Ok(req) => req,
            Err(e) => {
                let _ = write_frame(
                    &mut stream,
                    KIND_ERROR,
                    req_id,
                    &encode_error(&e.to_string()),
                );
                return;
            }
        };
        // An injected panic unwinds this worker here; the dropped stream
        // is the client's failover signal.
        match node.search_hits_into(&request.terms, request.strategy, request.n, &mut hits) {
            Ok(meta) => {
                // Local → global docid translation happens on the node;
                // the in-process gather translates the same hits before
                // the same merge.
                for hit in &mut hits {
                    hit.0 = node.global_id(hit.0);
                }
                encode_hits(&hits, meta.passes, meta.cpu_time, &meta.io, &mut response);
                if write_frame(&mut stream, KIND_HITS, req_id, &response).is_err() {
                    return;
                }
            }
            Err(e) => {
                if write_frame(
                    &mut stream,
                    KIND_ERROR,
                    req_id,
                    &encode_error(&e.to_string()),
                )
                .is_err()
                {
                    return;
                }
            }
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
/// idle connections (a connection re-enters the pool only after a fully
/// completed exchange, so no stale bytes can linger on it).
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

    /// One request/response exchange against this replica, bounded by
    /// `deadline` (unbounded when `None`). Tries a pooled idle connection
    /// first; because an idle connection may have been closed by the peer
    /// since, a failure on it is retried once on a fresh connection, whose
    /// verdict is authoritative.
    fn request(
        &self,
        payload: &[u8],
        req_id: u64,
        deadline: Option<Instant>,
        connect_timeout: Duration,
    ) -> Result<WireHits, NetError> {
        let pooled = self.idle.lock().unwrap_or_else(|e| e.into_inner()).pop();
        if let Some(mut conn) = pooled {
            if let Ok(hits) = exchange(&mut conn, payload, req_id, deadline) {
                self.park(conn);
                return Ok(hits);
            }
            // Stale pooled connection: fall through to a fresh one.
        }
        let timeout = remaining(deadline)?.map_or(connect_timeout, |r| connect_timeout.min(r));
        let mut conn = TcpStream::connect_timeout(&self.addr, timeout)?;
        let _ = conn.set_nodelay(true);
        let hits = exchange(&mut conn, payload, req_id, deadline)?;
        self.park(conn);
        Ok(hits)
    }

    fn park(&self, conn: TcpStream) {
        let mut idle = self.idle.lock().unwrap_or_else(|e| e.into_inner());
        if idle.len() < 8 {
            idle.push(conn);
        }
    }
}

/// The time left before `deadline`, `None` for no deadline; a deadline
/// that has passed is [`NetError::Timeout`].
fn remaining(deadline: Option<Instant>) -> Result<Option<Duration>, NetError> {
    let left = |at: Instant| at.checked_duration_since(Instant::now());
    deadline
        .map(|at| left(at).filter(|d| !d.is_zero()).ok_or(NetError::Timeout))
        .transpose()
}

/// Writes the request and reads the matching response on one connection.
fn exchange(
    conn: &mut TcpStream,
    payload: &[u8],
    req_id: u64,
    deadline: Option<Instant>,
) -> Result<WireHits, NetError> {
    conn.set_write_timeout(remaining(deadline)?)?;
    write_frame(conn, KIND_SEARCH, req_id, payload)?;
    conn.set_read_timeout(remaining(deadline)?)?;
    let (kind, got_id, body) = read_frame(conn)?;
    if got_id != req_id {
        return Err(NetError::RequestIdMismatch {
            expected: req_id,
            got: got_id,
        });
    }
    match kind {
        KIND_HITS => decode_hits(&body),
        KIND_ERROR => Err(NetError::Remote(decode_error(&body)?)),
        other => Err(NetError::BadKind { got: other }),
    }
}

/// Per-partition serving state: the replica set and the counters behind
/// [`Coordinator::stats`]. Only the `Arc<Replica>`s cross into attempt
/// threads; the drivers of concurrent queries update the rest.
#[derive(Default)]
struct PartitionState {
    id: usize,
    replicas: Vec<Arc<Replica>>,
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

/// The result of one replica attempt, raced through the query's channel.
struct AttemptOutcome {
    partition: usize,
    replica: usize,
    result: Result<WireHits, NetError>,
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
                    replicas: addrs
                        .into_iter()
                        .map(|a| Arc::new(Replica::new(a)))
                        .collect(),
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
    /// thread. This is the TCP driver of the query's `Gather` (see the
    /// [module docs](self)): the gather decides every launch, hedge,
    /// failover and the deadline; the driver moves bytes. It starts each
    /// launch on a detached thread, waits on one channel until the
    /// gather's next wake, and feeds it each outcome or the timeout. It
    /// keeps [`CoordinatorStats`] and the latency histogram behind the
    /// hedge delay, and merges the winners' hits.
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
        let payload: Arc<Vec<u8>> = Arc::new(encode_search_request(terms, strategy, n));
        let start = Instant::now();
        // A deadline past what an `Instant` can hold puts no timeout on
        // the sockets; the gather keeps it as an offset either way.
        let deadline = start.checked_add(self.config.deadline);
        let (tx, rx) = mpsc::channel::<AttemptOutcome>();
        let plans = self.partitions.iter().map(|part| {
            let hist = part.latency.lock().unwrap_or_else(|e| e.into_inner());
            let delay = hedge_delay(hist.count(), hist.p99(), &self.config);
            (part.replica_order(), delay)
        });
        let mut gather = Gather::new(plans, self.config.deadline);
        loop {
            while let Some(launch) = gather.poll_launch() {
                let part = &self.partitions[launch.partition];
                let counter = match launch.kind {
                    LaunchKind::First => &part.requests,
                    LaunchKind::Hedge => &part.hedged,
                    LaunchKind::Failover => &part.failed_over,
                };
                counter.fetch_add(1, Ordering::Relaxed);
                self.launch_attempt(part, launch.replica, &payload, deadline, &tx);
                gather.in_flight(launch.partition, start.elapsed());
            }
            let Some(wake) = gather.next_wake() else {
                break;
            };
            // The driver holds `tx`, so the only receive error is the timeout.
            match rx.recv_timeout(wake.saturating_sub(start.elapsed())) {
                Ok(AttemptOutcome {
                    partition,
                    replica,
                    result,
                }) => gather.on_outcome(partition, replica, result, start.elapsed()),
                Err(_) => gather.on_wake(start.elapsed()),
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

    /// Starts one replica attempt on a detached thread (never joined: a
    /// loser must not be able to delay the query past its winner; its
    /// socket timeout bounds its own lifetime). The thread owns the
    /// health-state transition for its replica.
    fn launch_attempt(
        &self,
        part: &PartitionState,
        replica: usize,
        payload: &Arc<Vec<u8>>,
        deadline: Option<Instant>,
        tx: &mpsc::Sender<AttemptOutcome>,
    ) {
        let partition = part.id;
        let req_id = self.next_request_id.fetch_add(1, Ordering::Relaxed);
        let replica_state = Arc::clone(&part.replicas[replica]);
        let payload = Arc::clone(payload);
        let connect_timeout = self.config.connect_timeout;
        let builder = std::thread::Builder::new().name(format!("attempt-p{partition}"));
        let thread_tx = tx.clone();
        let spawned = builder.spawn(move || {
            let result = replica_state.request(&payload, req_id, deadline, connect_timeout);
            match &result {
                Ok(_) => replica_state.down.store(false, Ordering::SeqCst),
                // A remote planning error is a healthy transport.
                Err(NetError::Remote(_)) => {}
                Err(_) => replica_state.down.store(true, Ordering::SeqCst),
            }
            let _ = thread_tx.send(AttemptOutcome {
                partition,
                replica,
                result,
            });
        });
        if spawned.is_err() {
            // Spawn failure behaves like an instantly-failed attempt.
            let _ = tx.send(AttemptOutcome {
                partition,
                replica,
                result: Err(NetError::Io(io::Error::other("spawn failed"))),
            });
        }
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
        write_frame(&mut wire, KIND_SEARCH, 42, &payload).unwrap();
        let (kind, id, body) = read_frame(&mut wire.as_slice()).unwrap();
        assert_eq!((kind, id), (KIND_SEARCH, 42));
        let req = decode_search_request(&body).unwrap();
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
        write_frame(&mut wire, KIND_SEARCH, 7, &payload).unwrap();

        // Every single-byte flip decodes to a typed error or (for payload
        // bytes whose flip keeps the checksum math consistent — none, the
        // checksum covers all of them) a valid frame.
        for i in 0..wire.len() {
            let mut bad = wire.clone();
            bad[i] ^= 0xFF;
            match read_frame(&mut bad.as_slice()) {
                Ok((kind, id, body)) => {
                    // Only the request-id bytes can flip without breaking
                    // any validated field.
                    assert!((8..16).contains(&i), "byte {i} flip silently accepted");
                    assert_eq!(kind, KIND_SEARCH);
                    assert_ne!(id, 7);
                    assert_eq!(body, payload);
                }
                Err(e) => {
                    let _ = e.to_string(); // display must not panic either
                }
            }
        }

        // Every truncation is a typed error.
        for len in 0..wire.len() {
            assert!(read_frame(&mut wire[..len].as_ref()).is_err());
        }

        // An oversized declared length is rejected before allocation.
        let mut bomb = wire.clone();
        bomb[0..4].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(
            read_frame(&mut bomb.as_slice()),
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
