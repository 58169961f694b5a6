//! The daemon core: blocking accept loop, one reader per session, a
//! fixed pool of verify workers, graceful drain.
//!
//! One TCP connection is one *session*, served by one **reader**
//! thread: it frames bytes, decodes requests, answers admin frames
//! inline, and does admission *before* anything is queued. Admitted
//! requests go to one **verify pool** of W long-lived workers shared by
//! every session (W is the base config's
//! [`VerifierConfig::effective_threads`], so `--threads` sets it). Each
//! request is verified single-threaded against the shared warm
//! [`SessionHost`]: the pool already supplies the parallelism. A
//! session holds at most `queue_cap` requests that are admitted but not
//! yet answered; at the cap its reader stops draining the socket, which
//! is TCP backpressure — the daemon never buffers unboundedly. Requests
//! pipelined on one connection may be answered out of order; every
//! response carries its request id.
//!
//! The accept loop blocks in `accept()`, so a connection is served the
//! moment it arrives. The periodic work lives on one ticker thread that
//! wakes every `read_poll_ms`: it prints the snapshot the snapshot flag
//! asks for, and once shutdown is requested it wakes the blocked accept
//! with a loopback connection that is never counted as a session.
//!
//! Robustness contract (enforced by the chaos suite):
//! - a malformed frame, torn write, or slow-loris stall costs *that
//!   session only* — a typed error and/or a close, never a panic;
//! - a panicking request degrades to an `internal` error response for
//!   that request; the session, its queue, and every sibling continue;
//! - over-budget tenants are refused immediately (`status:"refused"`)
//!   and never queued;
//! - a panic anywhere in a pool job is contained by the job wrapper:
//!   the request is answered `internal`, its ticket and session slot
//!   are released, and the worker goes on serving;
//! - a pool worker waits on a peer for at most a few milliseconds per
//!   response: what the socket does not take by then is left to the
//!   session's own reader, so a peer that stops reading stalls only
//!   its session, never a worker another tenant needs;
//! - shutdown stops intake, drains every queued request, flushes the
//!   verdict store, and reports zero leaked sessions in the final
//!   [`MetricsSnapshot`].

use crate::admission::{Admission, AdmitTicket, TenantPolicy};
use crate::chaos::{WireFault, WireFaultPlan};
use crate::protocol::{
    frame_bytes, read_frame, AdminRequest, ErrorCode, Frame, FrameError, Request, Response,
    WireVerdict,
};
use crate::telemetry::{Telemetry, DEFAULT_RING_CAP};
use daenerys_idf::exec::Backend;
use daenerys_idf::exec::VerifierConfig;
use daenerys_idf::parser::DEFAULT_MAX_ERRORS;
use daenerys_idf::session::{SessionError, SessionHost, VerifyRequest};
use daenerys_obs::{ClockKind, Labels, TraceHandle, Value};
use std::fmt::Write as _;
use std::io::{self, BufReader, Write as _};
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr, Shutdown, SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError, TryLockError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Daemon configuration.
#[derive(Debug)]
pub struct ServerConfig {
    /// Bind address (`127.0.0.1:0` picks an ephemeral port).
    pub addr: String,
    /// Verification backend for every session.
    pub backend: Backend,
    /// Base verifier configuration. `cache_dir` here opens the warm
    /// shared store; `trace` is the root every request context derives
    /// from.
    pub base: VerifierConfig,
    /// The per-tenant admission envelope.
    pub policy: TenantPolicy,
    /// Most requests one session may have admitted but not yet
    /// answered; at the cap its reader stops reading (backpressure).
    pub queue_cap: usize,
    /// A started frame must complete within this many milliseconds —
    /// the slow-loris cutoff.
    pub frame_deadline_ms: u64,
    /// Shutdown and slow-loris granularity, milliseconds: how often
    /// idle readers and the ticker look at the shutdown and snapshot
    /// flags, and how finely a frame deadline is checked. Accepting a
    /// connection never waits on it.
    pub read_poll_ms: u64,
    /// Server-side wire-fault injection (tests): synthesizes framing
    /// faults at deterministic `(session, frame)` points.
    pub wire_faults: WireFaultPlan,
    /// Serve the live telemetry plane (labeled metrics, trace ring,
    /// admin frames). When on and `base.trace` is disabled, the daemon
    /// installs its own monotonic trace pipeline feeding the telemetry
    /// sink; an explicitly configured `base.trace` is left untouched
    /// (its sink wins, and `metrics` scrapes still serve the labeled
    /// registry).
    pub telemetry: bool,
    /// Per-tenant trace-ring capacity (events) for `trace_tail`.
    pub trace_ring_cap: usize,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            backend: Backend::Destabilized,
            base: VerifierConfig::default(),
            policy: TenantPolicy::default(),
            queue_cap: 4,
            frame_deadline_ms: 2_000,
            read_poll_ms: 25,
            wire_faults: WireFaultPlan::none(),
            telemetry: true,
            trace_ring_cap: DEFAULT_RING_CAP,
        }
    }
}

/// Monotonic counters, updated by every session thread.
#[derive(Default, Debug)]
struct Counters {
    sessions_opened: AtomicU64,
    sessions_closed: AtomicU64,
    requests_received: AtomicU64,
    responses_ok: AtomicU64,
    requests_refused: AtomicU64,
    requests_errored: AtomicU64,
    internal_crashes: AtomicU64,
    frame_errors: AtomicU64,
    admin_frames: AtomicU64,
}

/// The final state of a drained daemon, emitted at shutdown (and, for
/// the smoke gate, asserted on: `leaked_sessions` must be 0).
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct MetricsSnapshot {
    /// Sessions accepted over the daemon's lifetime.
    pub sessions_opened: u64,
    /// Sessions fully closed (reader joined after every admitted
    /// request of the session was answered).
    pub sessions_closed: u64,
    /// `sessions_opened - sessions_closed`; 0 after a graceful drain.
    pub leaked_sessions: u64,
    /// Frames successfully read and counted as requests.
    pub requests_received: u64,
    /// Requests answered `status:"ok"`.
    pub responses_ok: u64,
    /// Requests refused by admission control (never queued).
    pub requests_refused: u64,
    /// Requests answered `status:"error"` (parse/bad-request/internal
    /// /shutdown).
    pub requests_errored: u64,
    /// Whole-request panics contained by `catch_unwind`.
    pub internal_crashes: u64,
    /// Framing failures (torn/garbage/oversized/slow-loris), each
    /// costing one session.
    pub frame_errors: u64,
    /// Admin-plane frames answered (metrics/health/trace_tail) —
    /// counted separately from `requests_received`, which stays a
    /// verification-traffic measure.
    pub admin_frames: u64,
    /// Entries in the verdict store after the final flush.
    pub store_entries: u64,
    /// Undecodable store lines skipped when the store was opened.
    pub store_corrupt_lines: u64,
}

impl MetricsSnapshot {
    /// One-line JSON for the smoke gate and ops logs.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        let fields = [
            ("sessions_opened", self.sessions_opened),
            ("sessions_closed", self.sessions_closed),
            ("leaked_sessions", self.leaked_sessions),
            ("requests_received", self.requests_received),
            ("responses_ok", self.responses_ok),
            ("requests_refused", self.requests_refused),
            ("requests_errored", self.requests_errored),
            ("internal_crashes", self.internal_crashes),
            ("frame_errors", self.frame_errors),
            ("admin_frames", self.admin_frames),
            ("store_entries", self.store_entries),
            ("store_corrupt_lines", self.store_corrupt_lines),
        ];
        out.push('{');
        for (i, (k, v)) in fields.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "\"{}\":{}", k, v);
        }
        out.push('}');
        out
    }
}

/// State shared by the accept loop, the ticker, every reader and every
/// pool worker.
struct Shared {
    host: SessionHost,
    admission: Arc<Admission>,
    trace: TraceHandle,
    telemetry: Option<Arc<Telemetry>>,
    shutdown: Arc<AtomicBool>,
    /// Set (by SIGUSR1 or a test) to make the ticker print one
    /// [`MetricsSnapshot`] without stopping.
    snapshot_flag: Arc<AtomicBool>,
    counters: Counters,
    queue_cap: usize,
    frame_deadline: Duration,
    read_poll: Duration,
    wire_faults: WireFaultPlan,
}

/// A bound daemon, not yet serving. [`Server::run`] blocks until a
/// shutdown is requested through [`Server::shutdown_flag`].
pub struct Server {
    listener: TcpListener,
    shared: Arc<Shared>,
    /// Verify-pool width W.
    workers: usize,
    /// What a pool worker runs per request ([`process`]; tests swap in
    /// stand-ins).
    verify: Verify,
    /// Where the ticker connects to wake a blocked `accept()`.
    wake: SocketAddr,
}

impl std::fmt::Debug for Server {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Server({:?})", self.listener.local_addr())
    }
}

impl Server {
    /// Binds the listener and opens the warm store.
    ///
    /// # Errors
    ///
    /// Propagates bind/configuration I/O errors.
    pub fn bind(config: ServerConfig) -> io::Result<Server> {
        let listener = TcpListener::bind(&config.addr)?;
        let wake = wake_addr(listener.local_addr()?);
        let telemetry = config
            .telemetry
            .then(|| Telemetry::new(config.trace_ring_cap));
        let mut base = config.base;
        if let Some(t) = &telemetry {
            // Tee the trace pipeline into the telemetry plane — but
            // only when the operator didn't wire their own sink.
            if !base.trace.is_enabled() {
                base.trace = TraceHandle::new(Arc::new(t.sink()), ClockKind::Monotonic);
            }
        }
        let trace = base.trace.clone();
        // The pool supplies the parallelism; each request runs on one
        // worker, single-threaded.
        let workers = base.effective_threads();
        base.threads = 1;
        let host = SessionHost::new(config.backend, base);
        Ok(Server {
            listener,
            workers,
            verify: process,
            wake,
            shared: Arc::new(Shared {
                host,
                admission: Admission::new(config.policy),
                trace,
                telemetry,
                shutdown: Arc::new(AtomicBool::new(false)),
                snapshot_flag: Arc::new(AtomicBool::new(false)),
                counters: Counters::default(),
                queue_cap: config.queue_cap.max(1),
                frame_deadline: Duration::from_millis(config.frame_deadline_ms.max(1)),
                read_poll: Duration::from_millis(config.read_poll_ms.clamp(1, 1_000)),
                wire_faults: config.wire_faults,
            }),
        })
    }

    /// The bound address (read the ephemeral port from here).
    ///
    /// # Errors
    ///
    /// Propagates the OS lookup failure.
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// The shutdown flag: set it (from a signal handler bridge or a
    /// test) and [`Server::run`] drains and returns.
    pub fn shutdown_flag(&self) -> Arc<AtomicBool> {
        Arc::clone(&self.shared.shutdown)
    }

    /// The snapshot flag: set it (the SIGUSR1 bridge, or a test) and
    /// the ticker prints one `daenerysd snapshot {…}` line to
    /// stdout without stopping, then clears the flag.
    pub fn snapshot_flag(&self) -> Arc<AtomicBool> {
        Arc::clone(&self.shared.snapshot_flag)
    }

    /// The live telemetry plane, when enabled (embedded harnesses
    /// scrape it in-process instead of over the wire).
    pub fn telemetry(&self) -> Option<Arc<Telemetry>> {
        self.shared.telemetry.clone()
    }

    /// Serves until shutdown, then drains in-flight sessions, flushes
    /// the verdict store, and returns the final metrics snapshot.
    ///
    /// The drain runs in order: the accept loop exits; each reader
    /// stops at its next frame boundary and returns once its admitted
    /// requests are answered; the pool queue closes and the workers
    /// join; the store is flushed.
    pub fn run(self) -> MetricsSnapshot {
        let pool = Pool::start(&self.shared, self.workers, self.verify);
        let accepting = Arc::new(AtomicBool::new(true));
        let ticker = ticker(&self.shared, self.wake, &accepting);
        let mut sessions: Vec<JoinHandle<()>> = Vec::new();
        let mut next_session: u64 = 0;
        for stream in self.listener.incoming() {
            // Woken after shutdown (by the ticker, or a late client):
            // that connection is dropped and never counted.
            if self.shared.shutdown.load(Ordering::SeqCst) {
                break;
            }
            match stream {
                Ok(stream) => {
                    next_session += 1;
                    let sid = next_session;
                    self.shared
                        .counters
                        .sessions_opened
                        .fetch_add(1, Ordering::Relaxed);
                    let shared = Arc::clone(&self.shared);
                    let pool = pool.tx.clone();
                    sessions.push(std::thread::spawn(move || {
                        // The session loop is itself unwind-contained:
                        // nothing a session does can kill the daemon.
                        let outcome = catch_unwind(AssertUnwindSafe(|| {
                            session_loop(&shared, &pool, stream, sid);
                        }));
                        if outcome.is_err() {
                            shared
                                .counters
                                .internal_crashes
                                .fetch_add(1, Ordering::Relaxed);
                        }
                        shared
                            .counters
                            .sessions_closed
                            .fetch_add(1, Ordering::Relaxed);
                    }));
                }
                // Transient accept errors (per-connection resets,
                // descriptor pressure) must not kill the daemon.
                Err(_) => std::thread::sleep(self.shared.read_poll),
            }
            sessions.retain(|h| !h.is_finished());
        }
        accepting.store(false, Ordering::SeqCst);
        for handle in sessions {
            let _ = handle.join();
        }
        pool.close();
        ticker.thread().unpark();
        let _ = ticker.join();
        let _ = self.shared.host.flush_store();
        self.shared.trace.flush();
        self.shared.snapshot()
    }
}

impl Shared {
    fn snapshot(&self) -> MetricsSnapshot {
        let c = &self.counters;
        let opened = c.sessions_opened.load(Ordering::SeqCst);
        let closed = c.sessions_closed.load(Ordering::SeqCst);
        MetricsSnapshot {
            sessions_opened: opened,
            sessions_closed: closed,
            leaked_sessions: opened.saturating_sub(closed),
            requests_received: c.requests_received.load(Ordering::SeqCst),
            responses_ok: c.responses_ok.load(Ordering::SeqCst),
            requests_refused: c.requests_refused.load(Ordering::SeqCst),
            requests_errored: c.requests_errored.load(Ordering::SeqCst),
            internal_crashes: c.internal_crashes.load(Ordering::SeqCst),
            frame_errors: c.frame_errors.load(Ordering::SeqCst),
            admin_frames: c.admin_frames.load(Ordering::SeqCst),
            store_entries: self.host.store_len() as u64,
            store_corrupt_lines: self.host.store_corrupt_lines() as u64,
        }
    }
}

/// The listener's own address with an unspecified IP mapped to
/// loopback: connectable, so the ticker can wake `accept()`.
fn wake_addr(mut addr: SocketAddr) -> SocketAddr {
    match addr.ip() {
        IpAddr::V4(ip) if ip.is_unspecified() => addr.set_ip(IpAddr::V4(Ipv4Addr::LOCALHOST)),
        IpAddr::V6(ip) if ip.is_unspecified() => addr.set_ip(IpAddr::V6(Ipv6Addr::LOCALHOST)),
        _ => {}
    }
    addr
}

/// The periodic work, once per `read_poll`: print a requested snapshot,
/// and after shutdown wake the accept loop — retried every tick until
/// the loop has exited, since a wake connection can race a late
/// client's.
fn ticker(shared: &Arc<Shared>, wake: SocketAddr, accepting: &Arc<AtomicBool>) -> JoinHandle<()> {
    let shared = Arc::clone(shared);
    let accepting = Arc::clone(accepting);
    std::thread::spawn(move || loop {
        if shared.snapshot_flag.swap(false, Ordering::SeqCst) {
            // Not `println!`: a closed stdout must not kill the ticker,
            // which shutdown needs to wake the accept loop.
            let line = format!("daenerysd snapshot {}\n", shared.snapshot().to_json());
            let _ = io::stdout().write_all(line.as_bytes());
        }
        if !accepting.load(Ordering::SeqCst) {
            return;
        }
        if shared.shutdown.load(Ordering::SeqCst) {
            let _ = TcpStream::connect_timeout(&wake, shared.read_poll);
        }
        std::thread::park_timeout(shared.read_poll);
    })
}

/// How a pool worker turns a request into a response: [`process`] in
/// the daemon, a stand-in in tests.
type Verify = fn(&Shared, &Request, u64, u64) -> Response;

/// The fixed verify pool: long-lived workers draining one queue that
/// every session's reader feeds.
struct Pool {
    tx: Sender<PoolJob>,
    workers: Vec<JoinHandle<()>>,
}

impl Pool {
    fn start(shared: &Arc<Shared>, width: usize, verify: Verify) -> Pool {
        let (tx, rx) = channel::<PoolJob>();
        let rx = Arc::new(Mutex::new(rx));
        let workers = (0..width.max(1))
            .map(|_| {
                let shared = Arc::clone(shared);
                let rx = Arc::clone(&rx);
                std::thread::spawn(move || worker_loop(&shared, &rx, verify))
            })
            .collect();
        Pool { tx, workers }
    }

    /// Closes the queue and joins the workers once it is empty. Call
    /// after every reader (each holding a sender) has returned.
    fn close(self) {
        drop(self.tx);
        for worker in self.workers {
            let _ = worker.join();
        }
    }
}

fn worker_loop(shared: &Shared, rx: &Mutex<Receiver<PoolJob>>, verify: Verify) {
    loop {
        // The queue lock is held only while waiting for the next job.
        let next = lock(rx).recv();
        match next {
            Ok(job) => run_job(shared, job, verify),
            Err(_) => return,
        }
    }
}

/// Longest one socket `write` blocks before it returns what it sent, so
/// every write loop looks at its deadline this often.
const SEND_TIMEOUT: Duration = Duration::from_millis(1);
/// How long a pool worker may spend putting one response on the wire;
/// what the peer has not taken by then waits in the session's backlog.
const POOL_WRITE_BUDGET: Duration = Duration::from_millis(5);
/// A reader gives its peer up once the backlog has taken no byte for
/// this long.
const WRITE_STALL: Duration = Duration::from_secs(10);

/// One session's end of the pool: where its responses go and how many
/// of its admitted requests are still unanswered.
///
/// Pool workers never wait on a peer. A response goes straight to the
/// socket only when nothing is backlogged and the socket takes it
/// within [`POOL_WRITE_BUDGET`]; every other byte is appended to the
/// backlog, which only the session's own reader drains
/// ([`SessionLink::flush`]). A peer that stops reading therefore
/// stalls its reader, and no worker another tenant needs.
struct SessionLink {
    sid: u64,
    /// The socket's write half; whoever holds it is the one writer.
    writer: Mutex<TcpStream>,
    /// Response bytes not yet sent: whole frames in order, the first
    /// possibly a frame's unsent tail.
    backlog: Mutex<Vec<u8>>,
    /// Requests admitted but not yet answered (or skipped).
    pending: Mutex<usize>,
    answered: Condvar,
    /// Set when a write fails or the peer stops taking bytes: the
    /// session's remaining jobs are skipped, their tickets still
    /// released.
    peer_gone: AtomicBool,
}

impl SessionLink {
    fn new(sid: u64, writer: TcpStream) -> SessionLink {
        let _ = writer.set_write_timeout(Some(SEND_TIMEOUT));
        SessionLink {
            sid,
            writer: Mutex::new(writer),
            backlog: Mutex::new(Vec::new()),
            pending: Mutex::new(0),
            answered: Condvar::new(),
            peer_gone: AtomicBool::new(false),
        }
    }

    fn peer_gone(&self) -> bool {
        self.peer_gone.load(Ordering::SeqCst)
    }

    /// Sends one response frame, waiting on the peer for at most
    /// [`POOL_WRITE_BUDGET`]: the rest goes to the backlog. Behind a
    /// backlog, or while the reader is flushing, the whole frame does.
    fn respond(&self, response: &Response) {
        let frame = frame_bytes(response.encode().as_bytes());
        let mut backlog = lock(&self.backlog);
        if self.peer_gone() {
            return;
        }
        if backlog.is_empty() {
            if let Some(mut w) = try_lock(&self.writer) {
                match write_until(&mut w, &frame, Instant::now() + POOL_WRITE_BUDGET) {
                    Ok(sent) => backlog.extend_from_slice(&frame[sent..]),
                    Err(_) => self.peer_gone.store(true, Ordering::SeqCst),
                }
                return;
            }
        }
        backlog.extend_from_slice(&frame);
    }

    /// Sends the whole backlog, blocking the calling reader (never a
    /// pool worker). Returns false once the peer is gone: a write
    /// failed, or the peer took nothing for [`WRITE_STALL`].
    fn flush(&self) -> bool {
        if lock(&self.backlog).is_empty() {
            return !self.peer_gone();
        }
        let mut w = lock(&self.writer);
        loop {
            let chunk = std::mem::take(&mut *lock(&self.backlog));
            if chunk.is_empty() || self.peer_gone() {
                return !self.peer_gone();
            }
            let mut sent = 0;
            while sent < chunk.len() {
                match write_until(&mut w, &chunk[sent..], Instant::now() + WRITE_STALL) {
                    Ok(n) if n > 0 => sent += n,
                    _ => {
                        self.peer_gone.store(true, Ordering::SeqCst);
                        return false;
                    }
                }
            }
        }
    }

    /// Blocks until fewer than `cap` requests are pending.
    fn wait_below(&self, cap: usize) {
        let mut pending = lock(&self.pending);
        while *pending >= cap {
            pending = self
                .answered
                .wait(pending)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }

    fn admit(&self) {
        *lock(&self.pending) += 1;
    }

    fn finish(&self) {
        let mut pending = lock(&self.pending);
        *pending = pending.saturating_sub(1);
        self.answered.notify_all();
    }
}

/// Writes `buf` until all of it is out or `deadline` has passed
/// (checked after every `write`, each of which blocks at most
/// [`SEND_TIMEOUT`]); returns how many bytes the peer took.
fn write_until(w: &mut TcpStream, buf: &[u8], deadline: Instant) -> io::Result<usize> {
    let mut sent = 0;
    while sent < buf.len() {
        match w.write(&buf[sent..]) {
            Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
            Ok(n) => sent += n,
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock
                        | io::ErrorKind::TimedOut
                        | io::ErrorKind::Interrupted
                ) => {}
            Err(e) => return Err(e),
        }
        if Instant::now() >= deadline {
            break;
        }
    }
    Ok(sent)
}

/// One admitted request on its way to the pool. The ticket rides along
/// so the tenant's envelope is held exactly while the request is queued
/// or running.
struct PoolJob {
    req: Request,
    ticket: AdmitTicket,
    session: Arc<SessionLink>,
    /// 1-based admission order within the session.
    seq: u64,
}

/// Runs one pool job to the end, whatever happens in it. A panic in
/// `verify`, the counters or the response write is contained: the
/// request is answered `internal` when nothing was written yet. The
/// ticket and the session's pending slot are always released, so a
/// panic neither shrinks the pool nor strands the session's reader.
fn run_job(shared: &Shared, job: PoolJob, verify: Verify) {
    let PoolJob {
        req,
        ticket,
        session,
        seq,
    } = job;
    let mut ticket = Some(ticket);
    let mut written = false;
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        if session.peer_gone() {
            return;
        }
        let response = verify(shared, &req, session.sid, seq);
        let counter = match &response {
            Response::Ok { .. } => &shared.counters.responses_ok,
            Response::Refused { .. } => &shared.counters.requests_refused,
            // Admin responses are written by the reader, never pooled.
            Response::Err { .. } | Response::Admin { .. } => &shared.counters.requests_errored,
        };
        counter.fetch_add(1, Ordering::Relaxed);
        // The ticket is released only now — after the verify — so the
        // tenant's envelope covered the whole run.
        ticket = None;
        written = true;
        session.respond(&response);
    }));
    drop(ticket);
    if let Err(panic) = outcome {
        shared
            .counters
            .internal_crashes
            .fetch_add(1, Ordering::Relaxed);
        if !written {
            shared
                .counters
                .requests_errored
                .fetch_add(1, Ordering::Relaxed);
            session.respond(&Response::Err {
                id: req.id,
                code: ErrorCode::Internal,
                message: panic_message(&*panic),
            });
        }
    }
    session.finish();
}

fn session_loop(shared: &Shared, pool: &Sender<PoolJob>, stream: TcpStream, sid: u64) {
    let _ = stream.set_read_timeout(Some(shared.read_poll));
    let _ = stream.set_nodelay(true);
    let link = match stream.try_clone() {
        Ok(w) => Arc::new(SessionLink::new(sid, w)),
        Err(_) => return,
    };
    let mut reader = BufReader::new(stream);
    let mut frames: u64 = 0;
    let mut admitted: u64 = 0;
    loop {
        // Responses the pool could not send at once go out here, before
        // the next request is read: a peer that stops reading stops its
        // own intake, and the backlog never outgrows one session's
        // answers.
        if !link.flush() || shared.shutdown.load(Ordering::SeqCst) {
            break;
        }
        let mut frame_deadline_at: Option<Instant> = None;
        let result = read_frame(&mut reader, |mid_frame| {
            if shared.shutdown.load(Ordering::SeqCst) || !link.flush() {
                return false;
            }
            if !mid_frame {
                frame_deadline_at = None;
                return true;
            }
            let at =
                *frame_deadline_at.get_or_insert_with(|| Instant::now() + shared.frame_deadline);
            Instant::now() < at
        });
        // Server-side chaos: synthesize a framing fault at the plan's
        // deterministic points, exercising the exact error paths a
        // corrupted wire would.
        let result = match shared.wire_faults.fault_for(sid, frames) {
            WireFault::None => result,
            WireFault::Torn { keep_per_mille } => Err(FrameError::Torn {
                expected: 1000,
                got: keep_per_mille as usize,
            }),
            WireFault::GarbageHeader => {
                Err(FrameError::BadHeader("injected garbage header".to_string()))
            }
            WireFault::Disconnect => Err(FrameError::Closed),
            WireFault::SlowLoris { .. } => Err(FrameError::Aborted { mid_frame: true }),
        };
        match result {
            Ok(payload) => {
                frames += 1;
                match Frame::decode(&payload) {
                    // Admin frames are answered inline by the reader:
                    // never queued behind verification work, never
                    // admission-controlled — the telemetry plane keeps
                    // answering while every tenant budget is saturated
                    // and while the verify pool is busy.
                    Ok(Frame::Admin(areq)) => {
                        shared.counters.admin_frames.fetch_add(1, Ordering::Relaxed);
                        link.respond(&admin_response(shared, &areq));
                    }
                    Err(message) => {
                        shared
                            .counters
                            .requests_received
                            .fetch_add(1, Ordering::Relaxed);
                        shared
                            .counters
                            .requests_errored
                            .fetch_add(1, Ordering::Relaxed);
                        // A delimited frame with a bad payload does not
                        // desync the stream: answer and keep serving.
                        link.respond(&Response::Err {
                            id: 0,
                            code: ErrorCode::BadRequest,
                            message,
                        });
                    }
                    Ok(Frame::Verify(req)) => {
                        shared
                            .counters
                            .requests_received
                            .fetch_add(1, Ordering::Relaxed);
                        if shared.shutdown.load(Ordering::SeqCst) {
                            shared
                                .counters
                                .requests_errored
                                .fetch_add(1, Ordering::Relaxed);
                            link.respond(&Response::Err {
                                id: req.id,
                                code: ErrorCode::Shutdown,
                                message: "server is draining".to_string(),
                            });
                            break;
                        }
                        match shared.admission.try_admit(&req.tenant, req.solver_fuel) {
                            Err(detail) => {
                                shared
                                    .counters
                                    .requests_refused
                                    .fetch_add(1, Ordering::Relaxed);
                                if let Some(t) = &shared.telemetry {
                                    t.registry().add(
                                        "daenerysd.refused",
                                        &Labels::none().with("tenant", &req.tenant),
                                        1,
                                    );
                                }
                                // Refused immediately — never queued.
                                link.respond(&Response::Refused { id: req.id, detail });
                            }
                            Ok(ticket) => {
                                admitted += 1;
                                link.admit();
                                let job = PoolJob {
                                    req,
                                    ticket,
                                    session: Arc::clone(&link),
                                    seq: admitted,
                                };
                                if pool.send(job).is_err() {
                                    // The job (and its ticket) came back
                                    // and is dropped here.
                                    link.finish();
                                    break;
                                }
                                // At the cap the socket stops draining
                                // and TCP pushes back on the client.
                                link.wait_below(shared.queue_cap);
                            }
                        }
                    }
                }
            }
            Err(FrameError::Closed) | Err(FrameError::Aborted { mid_frame: false }) => break,
            Err(FrameError::Aborted { .. }) if link.peer_gone() => break,
            Err(e) => {
                // Torn frame, garbage header, oversized payload,
                // slow-loris cutoff, or hard I/O failure: one typed
                // error (best-effort — the stream may already be
                // gone), then close this session only.
                shared.counters.frame_errors.fetch_add(1, Ordering::Relaxed);
                link.respond(&Response::Err {
                    id: 0,
                    code: ErrorCode::BadRequest,
                    message: e.to_string(),
                });
                break;
            }
        }
    }
    // Every admitted request is answered (or skipped, when the peer is
    // gone) before the session closes.
    link.wait_below(1);
    link.flush();
    let _ = reader.get_ref().shutdown(Shutdown::Both);
}

/// Answers one admin frame from the telemetry plane (reader-side, see
/// [`session_loop`]).
fn admin_response(shared: &Shared, req: &AdminRequest) -> Response {
    let Some(t) = &shared.telemetry else {
        return Response::Err {
            id: req.id(),
            code: ErrorCode::BadRequest,
            message: "telemetry plane is disabled".to_string(),
        };
    };
    let body = match req {
        AdminRequest::Metrics { .. } => t.metrics_json(&shared.trace.metrics()),
        AdminRequest::Health { .. } => t.health_json(
            &shared.admission.stats(),
            shared.shutdown.load(Ordering::SeqCst),
        ),
        AdminRequest::TraceTail { after_seq, max, .. } => t.ring().tail(*after_seq, *max).to_json(),
    };
    Response::Admin {
        id: req.id(),
        kind: req.kind().to_string(),
        body,
    }
}

/// Verifies one admitted request. Never panics: the whole request is
/// behind `catch_unwind` (on top of the verifier's own per-method
/// isolation), so the worst outcome is an `internal` error response.
fn process(shared: &Shared, req: &Request, sid: u64, seq: u64) -> Response {
    let started = Instant::now();
    let budget = shared
        .admission
        .policy()
        .effective_budget(req.deadline_ms, req.solver_fuel);
    let trace = shared.trace.with_context(vec![
        ("tenant".to_string(), Value::Str(req.tenant.clone())),
        ("session".to_string(), Value::UInt(sid)),
        ("request".to_string(), Value::UInt(req.id)),
        ("request_seq".to_string(), Value::UInt(seq)),
    ]);
    let vreq = VerifyRequest {
        source: req.source.clone(),
        budget: Some(budget),
        max_errors: req.max_errors.unwrap_or(DEFAULT_MAX_ERRORS),
        trace: Some(trace),
    };
    let session = shared.host.session();
    let labels = Labels::none().with("tenant", &req.tenant);
    let response = match catch_unwind(AssertUnwindSafe(|| session.verify(&vreq))) {
        Ok(Ok(outcome)) => {
            if let Some(t) = &shared.telemetry {
                let reg = t.registry();
                let s = &outcome.stats;
                // Fuel proxy: the search's work units (conflicts,
                // propagations, decisions).
                let fuel = (s.solver_conflicts + s.solver_propagations + s.solver_branches) as u64;
                reg.record("daenerysd.fuel", &labels, fuel);
                reg.add("daenerysd.cache_hits", &labels, s.cache_hits as u64);
                reg.add("daenerysd.cache_misses", &labels, s.cache_misses as u64);
                reg.add(
                    "daenerysd.solver_conflicts",
                    &labels,
                    s.solver_conflicts as u64,
                );
                reg.add(
                    "daenerysd.solver_restarts",
                    &labels,
                    s.solver_restarts as u64,
                );
                // The incremental store plane, per tenant: verdicts
                // served warm, genuine fingerprint misses, and warm
                // hits discarded by transitive spec dirtiness.
                // Tenants with identical answer-affecting config share
                // store entries, so one tenant's writes surface as
                // another's hits here.
                if let Some(hits) = outcome.store_hits {
                    reg.add("daenerysd.store_hits", &labels, hits as u64);
                }
                if let Some(misses) = outcome.store_misses {
                    reg.add("daenerysd.store_misses", &labels, misses as u64);
                }
                if let Some(dirty) = outcome.store_dirty_transitive {
                    reg.add("daenerysd.store_dirty_transitive", &labels, dirty as u64);
                }
            }
            Response::Ok {
                id: req.id,
                verdicts: outcome
                    .verdicts
                    .iter()
                    .map(|(name, v)| (name.clone(), WireVerdict::from_verdict(v)))
                    .collect(),
                reverified: outcome.reverified.map(|n| n as u64),
            }
        }
        Ok(Err(SessionError::Parse(errs))) => Response::Err {
            id: req.id,
            code: ErrorCode::Parse,
            message: format!("{} parse error(s); first: {}", errs.len(), errs[0]),
        },
        Err(panic) => {
            shared
                .counters
                .internal_crashes
                .fetch_add(1, Ordering::Relaxed);
            Response::Err {
                id: req.id,
                code: ErrorCode::Internal,
                message: panic_message(&panic),
            }
        }
    };
    if let Some(t) = &shared.telemetry {
        let reg = t.registry();
        reg.add("daenerysd.requests", &labels, 1);
        reg.record(
            "daenerysd.latency_us",
            &labels,
            u64::try_from(started.elapsed().as_micros()).unwrap_or(u64::MAX),
        );
        match &response {
            Response::Ok { verdicts, .. } => {
                for v in verdicts.values() {
                    reg.add(&format!("daenerysd.verdict.{}", v.kind), &labels, 1);
                }
            }
            Response::Err { .. } => reg.add("daenerysd.errors", &labels, 1),
            Response::Refused { .. } | Response::Admin { .. } => {}
        }
    }
    response
}

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

fn try_lock<T>(m: &Mutex<T>) -> Option<MutexGuard<'_, T>> {
    match m.try_lock() {
        Ok(guard) => Some(guard),
        Err(TryLockError::Poisoned(p)) => Some(p.into_inner()),
        Err(TryLockError::WouldBlock) => None,
    }
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "opaque panic payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const GOOD: &str = "field val: Int
method set(c: Ref) requires acc(c.val) ensures acc(c.val) && c.val == 1 { c.val := 1 }";

    /// Panics on request 1, verifies everything else.
    fn panics_on_first(shared: &Shared, req: &Request, sid: u64, seq: u64) -> Response {
        if req.id == 1 {
            panic!("injected pool-job panic");
        }
        process(shared, req, sid, seq)
    }

    #[test]
    fn a_panicking_pool_job_is_answered_and_releases_its_slot() {
        let server = Server::bind(ServerConfig::default()).expect("bind");
        let shared = &server.shared;
        // A loopback pair: the session writes to `ours`, the test
        // reads what the peer receives.
        let peer = TcpStream::connect(server.local_addr().expect("addr")).expect("connect");
        peer.set_read_timeout(Some(Duration::from_millis(100)))
            .expect("read timeout");
        let (ours, _) = server.listener.accept().expect("accept");
        let link = Arc::new(SessionLink::new(1, ours));
        // One worker: the request after the panic proves it survived.
        let pool = Pool::start(shared, 1, panics_on_first);
        for id in 1..=2u64 {
            let req = Request::new(id, "tenant", GOOD);
            let ticket = shared
                .admission
                .try_admit(&req.tenant, None)
                .expect("admit");
            link.admit();
            let job = PoolJob {
                req,
                ticket,
                session: Arc::clone(&link),
                seq: id,
            };
            assert!(pool.tx.send(job).is_ok(), "the pool is open");
        }
        let mut reader = BufReader::new(&peer);
        let mut answers = Vec::new();
        // Fail, not hang, when a job is never answered.
        let deadline = Instant::now() + Duration::from_secs(10);
        for _ in 0..2 {
            let payload =
                read_frame(&mut reader, |_| Instant::now() < deadline).expect("response frame");
            answers.push(Response::decode(&payload).expect("decode"));
        }
        link.wait_below(1);
        assert_eq!(*lock(&link.pending), 0, "the session's slots came back");
        assert_eq!(shared.admission.total_in_flight(), 0, "tickets released");
        match &answers[0] {
            Response::Err { id, code, message } => {
                assert_eq!(*id, 1);
                assert_eq!(*code, ErrorCode::Internal);
                assert!(message.contains("injected"), "{}", message);
            }
            other => panic!("expected an internal error, got {:?}", other),
        }
        assert!(
            matches!(answers[1], Response::Ok { id: 2, .. }),
            "the worker went on serving: {:?}",
            answers[1]
        );
        pool.close();
        let snap = shared.snapshot();
        assert_eq!(snap.internal_crashes, 1, "{:?}", snap);
        assert_eq!(snap.requests_errored, 1, "{:?}", snap);
        assert_eq!(snap.responses_ok, 1, "{:?}", snap);
    }

    /// Answers tenant `flood` with a 1 MiB error at no verify cost;
    /// verifies everyone else.
    fn floods(shared: &Shared, req: &Request, sid: u64, seq: u64) -> Response {
        if req.tenant == "flood" {
            return Response::Err {
                id: req.id,
                code: ErrorCode::Internal,
                message: "x".repeat(1 << 20),
            };
        }
        process(shared, req, sid, seq)
    }

    /// One connection pipelines 16 MiB of responses and never reads
    /// them — far more than the socket buffers hold. With a single pool
    /// worker, another tenant's request is still answered at once: the
    /// flood's unsent bytes wait on its own reader, not on the worker.
    #[test]
    fn a_peer_that_stops_reading_never_holds_a_pool_worker() {
        let mut server = Server::bind(ServerConfig {
            base: VerifierConfig {
                threads: 1,
                ..VerifierConfig::default()
            },
            read_poll_ms: 5,
            ..ServerConfig::default()
        })
        .expect("bind");
        server.verify = floods;
        assert_eq!(server.workers, 1);
        let addr = server.local_addr().expect("addr");
        let flag = server.shutdown_flag();
        let handle = std::thread::spawn(move || server.run());
        let flood = TcpStream::connect(addr).expect("connect");
        for id in 1..=16u64 {
            let req = Request::new(id, "flood", GOOD);
            crate::protocol::write_frame(&mut &flood, req.encode().as_bytes()).expect("send");
        }
        // Let the flood's first responses fill the socket buffers.
        std::thread::sleep(Duration::from_millis(300));
        let started = Instant::now();
        let answer = crate::client::Client::new(addr)
            .request_once(&Request::new(100, "victim", GOOD), 0)
            .expect("victim answered");
        let elapsed = started.elapsed();
        assert!(
            matches!(answer, Response::Ok { id: 100, .. }),
            "{:?}",
            answer
        );
        assert!(
            elapsed < Duration::from_secs(2),
            "the victim waited {:?} behind a peer that does not read",
            elapsed
        );
        // The flood's peer leaves with its responses unread; its
        // session drains and closes.
        drop(flood);
        flag.store(true, Ordering::SeqCst);
        let snap = handle.join().expect("server thread");
        assert_eq!(snap.leaked_sessions, 0, "{:?}", snap);
        assert_eq!(snap.sessions_opened, 2, "{:?}", snap);
    }
}
