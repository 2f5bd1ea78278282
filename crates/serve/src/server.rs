//! The `fmml-serve` server: acceptor + reader-per-session + a shared
//! worker pool doing deadline-aware micro-batched CEM enforcement.
//!
//! ```text
//!            ┌────────────┐   Hello/Interval    ┌──────────────────────┐
//!  clients ─▶│  acceptor  │──▶ reader thread ──▶│ bounded session queue│
//!            └────────────┘   (per session:     └──────────┬───────────┘
//!                              validate, window,           │ micro-batch
//!                              model forward)              ▼ (≤ max_batch,
//!                                               ┌──────────────────────┐
//!                                               │ worker pool: one     │
//!                                               │ enforce_degraded_-   │
//!                                               │ batch per coalesced  │
//!                                               │ batch, shared cache  │
//!                                               └──────────┬───────────┘
//!                                                          ▼
//!                                        Imputed{series, level} per seq
//! ```
//!
//! Division of labour keeps replies *bitwise-identical* to the offline
//! path: the reader thread does everything order-sensitive (sliding
//! window, model forward) sequentially per session, producing
//! [`PreparedWindow`]s; workers only run `enforce_degraded_batch` over
//! coalesced `(constraints, prediction)` items — the same pure function
//! an offline pipeline calls on the same windows.
//!
//! Admission control: each session has a bounded in-flight budget
//! (`queue_depth`); intervals over budget are answered `Busy` and
//! dropped (`serve.rejected`). A peer that stops reading its replies
//! blocks a worker's write until `write_timeout`, after which the
//! session is killed (`serve.slow_disconnects`) rather than letting one
//! slow reader wedge the pool. Shutdown drains: the acceptor closes,
//! readers stop ingesting and wait for their in-flight replies, workers
//! exit once the queue is empty and every reader is gone.

use crate::protocol::{encode_frame_with, write_bytes, Frame, WireCodec, WireError, MAX_FRAME_LEN};
use crate::session::{
    await_opening, CoreConfig, Counters, Identity, LifecycleMetrics, Lineage, Opening, ProtocolBug,
    SessionCore, TokenStyle,
};
use crate::transport::{Accepted, Conn, TcpTransport, Transport};
use fmml_core::streaming::{PreparedWindow, StreamOptions, StreamingImputer};
use fmml_core::transformer_imputer::TransformerImputer;
use fmml_fault::{record_process_fault, FaultKind, ProcessFaultPlan};
use fmml_fm::cem::{
    cache::DEFAULT_CAPACITY, enforce_degraded_batch, BreakerConfig, CemEngine, DegradationLevel,
    EnforceOptions, LadderConfig, SolutionCache,
};
use fmml_obs::trace::{self, TraceContext};
use fmml_obs::{log_event, Clock, Counter, FloatGauge, Gauge, Histogram, Unit};
use std::collections::{HashMap, VecDeque};
use std::net::{SocketAddr, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Session-lifecycle metrics, bumped by the session core.
static METRICS: LifecycleMetrics = LifecycleMetrics {
    sessions: Counter::new("serve.sessions"),
    active: Gauge::new("serve.sessions.active"),
    parked: Gauge::new("serve.sessions.parked"),
    resumes: Counter::new("serve.resumes"),
    resume_misses: Counter::new("serve.resume_misses"),
    replayed: Counter::new("serve.replayed"),
    replies: Counter::new("serve.replies"),
    malformed: Counter::new("serve.malformed"),
};
static ACCEPTED: Counter = Counter::new("serve.accepted");
static REJECTED: Counter = Counter::new("serve.rejected");
static BATCHES: Counter = Counter::new("serve.batches");
static BATCH_SIZE: Histogram = Histogram::new("serve.batch_size", Unit::Count);
static LATENCY_US: Histogram = Histogram::new("serve.latency_us", Unit::Micros);
static DEADLINE_MISS: Counter = Counter::new("serve.deadline_miss");
static VIOLATIONS: Counter = Counter::new("serve.violations");
static SLOW_DISCONNECTS: Counter = Counter::new("serve.slow_disconnects");

// Supervision.
static WORKER_PANICS: Counter = Counter::new("serve.worker.panics");
static WORKER_RESTARTS: Counter = Counter::new("serve.worker.restarts");
static REQUEUE_LATENCY_US: Histogram =
    Histogram::new("serve.worker.requeue_latency_us", Unit::Micros);

// Per-stage latency histograms: one interval's journey decomposed as
// decode → queue → batch → enforce → encode → write. Samples are
// recorded in nanoseconds and scaled to the display unit at snapshot.
static STAGE_DECODE_US: Histogram = Histogram::new("serve.stage.decode_us", Unit::Micros);
static STAGE_QUEUE_US: Histogram = Histogram::new("serve.stage.queue_us", Unit::Micros);
static STAGE_BATCH_US: Histogram = Histogram::new("serve.stage.batch_us", Unit::Micros);
static STAGE_ENFORCE_US: Histogram = Histogram::new("serve.stage.enforce_us", Unit::Micros);
static STAGE_ENCODE_US: Histogram = Histogram::new("serve.stage.encode_us", Unit::Micros);
static STAGE_WRITE_US: Histogram = Histogram::new("serve.stage.write_us", Unit::Micros);

// SLO watchdog exposition (sliding window over recent replies).
static SLO_MISS_RATE: FloatGauge = FloatGauge::new("slo.deadline_miss_rate");
static SLO_DEGRADED_RATE: FloatGauge = FloatGauge::new("slo.degraded_rate");
static SLO_QUEUE_DEPTH: Gauge = Gauge::new("slo.queue_depth");
static SLO_WINDOW_REPLIES: Gauge = Gauge::new("slo.window_replies");
static SLO_BREACHES: Counter = Counter::new("slo.breaches");

/// Span name for the enforce stage, keyed by the rung the batch's ladder
/// actually landed on — so a flamegraph separates full-fidelity solves
/// from degraded ones without needing per-span payloads.
fn enforce_span_name(level: DegradationLevel) -> &'static str {
    match level {
        DegradationLevel::Full => "serve.enforce[full]",
        DegradationLevel::EscalatedRetry => "serve.enforce[retry]",
        DegradationLevel::FastFallback => "serve.enforce[fast_fallback]",
        DegradationLevel::ClampProjection => "serve.enforce[clamp]",
        DegradationLevel::MeasurementRelaxed => "serve.enforce[relaxed]",
    }
}

/// Server tuning knobs. `Default` is the 50 ms wire-period deployment
/// from the paper's §5 on loopback.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address; port `0` picks an ephemeral port (see
    /// [`ServerHandle::addr`]).
    pub addr: String,
    /// CEM worker threads (each runs one micro-batch at a time).
    pub workers: usize,
    /// Intra-batch parallelism handed to `EnforceOptions::jobs`.
    pub jobs: usize,
    /// Top rung of the degradation ladder.
    pub engine: CemEngine,
    /// Per-interval end-to-end budget: accept→reply-written. Misses are
    /// counted (`serve.deadline_miss`), and it bounds micro-batch
    /// coalescing.
    pub deadline: Duration,
    /// When `true`, each batch's remaining slack (min over its jobs) is
    /// threaded into `LadderConfig::deadline`, so late intervals degrade
    /// to the clamp rung instead of missing silently. Off by default:
    /// wall-clock-dependent rungs make replies nondeterministic, and the
    /// differential harness asserts bitwise identity with the offline
    /// path.
    pub ladder_deadline: bool,
    /// `LadderConfig::escalation_factor` for the batch ladder.
    pub escalation_factor: u32,
    /// Micro-batch size cap.
    pub max_batch: usize,
    /// Extra time a worker may wait for the batch to fill, additionally
    /// bounded by half the first job's remaining slack.
    pub batch_wait: Duration,
    /// Per-session in-flight cap; intervals beyond it are answered
    /// `Busy` (admission control).
    pub queue_depth: usize,
    /// Shared solution-cache capacity (`0` disables caching).
    pub cache_capacity: usize,
    /// Socket read timeout — the reader's shutdown-poll granularity.
    pub read_timeout: Duration,
    /// Socket write timeout — a reply blocked longer than this marks the
    /// peer a slow reader and kills the session.
    pub write_timeout: Duration,
    /// Consecutive mid-frame read timeouts before a stalled sender is
    /// disconnected.
    pub max_stalls: u32,
    /// Decode cap for this server's frame readers: a length prefix
    /// above it is rejected *before* any buffer allocation. The default
    /// ([`MAX_FRAME_LEN`], 1 MiB) fits any client frame; router↔backend
    /// links carry batched replay traffic and raise it. (The `Hello`
    /// geometry caps are the session core's constants, e.g.
    /// [`crate::session::MAX_WINDOW_INTERVALS`].)
    pub max_frame_len: usize,
    /// SLO watchdog sliding-window length: replies older than this fall
    /// out of the deadline-miss / degradation rates.
    pub slo_window: Duration,
    /// How often the watchdog re-evaluates the window and republishes
    /// the `slo.*` gauges.
    pub slo_tick: Duration,
    /// Deadline-miss rate above which the watchdog declares a breach.
    pub slo_max_miss_rate: f64,
    /// Fraction of replies degraded below [`DegradationLevel::Full`]
    /// above which the watchdog declares a breach.
    pub slo_max_degraded_rate: f64,
    /// Minimum replies in the window before breach math applies (a
    /// single slow reply at startup is not an SLO event).
    pub slo_min_samples: usize,
    /// Circuit breaker over the SMT rung of the batch ladder (see
    /// [`fmml_fm::cem::breaker`]); `None` disables it. Only consulted
    /// when `engine` is SMT, so the default costs nothing on the fast
    /// path.
    pub breaker: Option<BreakerConfig>,
    /// Restart budget per worker slot: after this many restarts a slot
    /// is declared dead (`worker.dead` event) and left empty.
    pub max_restarts: u32,
    /// Supervisor backoff before restart `k` is `restart_backoff * 2^k`,
    /// capped at `restart_backoff_cap` — deterministic, no jitter, so
    /// recovery-latency benches are reproducible.
    pub restart_backoff: Duration,
    pub restart_backoff_cap: Duration,
    /// Per-session replay window: recently shipped replies retained
    /// (keyed by seq) for resumption. `0` disables resumption entirely
    /// (no tokens are handed out).
    pub replay_window: usize,
    /// Disconnected sessions parked for resumption: how many at most,
    /// and for how long. Oldest parked sessions are evicted first.
    pub max_parked: usize,
    pub parked_ttl: Duration,
    /// How long a resume handshake waits for its session to park before
    /// answering with a fresh session (the old connection's reader may
    /// still be unwinding when the client reconnects). Real time even
    /// under a virtual clock: it is poll patience, not protocol time.
    /// Unknown and expired tokens are answered at once.
    pub resume_claim_wait: Duration,
    /// Deterministic process-fault injection (worker panics, solver
    /// stalls, slow writes) — the recovery chaos hook. Inactive by
    /// default; see [`ProcessFaultPlan`].
    pub process_faults: ProcessFaultPlan,
    /// Preferred wire codec for negotiated sessions (`--wire`). The
    /// server picks this codec in its `Welcome` when the client's `Hello`
    /// advertises it; otherwise the session stays on JSON. Decoding is
    /// always sniffed per frame, so this knob never rejects anyone.
    pub wire: WireCodec,
    /// Time source for every deadline, TTL, backoff, and watchdog tick.
    /// [`Clock::System`] in production; the deterministic simulation
    /// harness injects a virtual clock so full session lifecycles run
    /// in milliseconds with zero real sleeps.
    pub clock: Clock,
    /// Deliberate protocol bugs, used by `fmml-simtest` to validate
    /// that the conformance checker actually catches violations (a
    /// checker that never fires proves nothing). `None` in production.
    pub injected_bug: Option<ProtocolBug>,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            addr: "127.0.0.1:0".into(),
            workers: 2,
            jobs: 1,
            engine: CemEngine::Fast,
            deadline: Duration::from_millis(50),
            ladder_deadline: false,
            escalation_factor: LadderConfig::default().escalation_factor,
            max_batch: 16,
            batch_wait: Duration::from_millis(1),
            queue_depth: 64,
            cache_capacity: DEFAULT_CAPACITY,
            read_timeout: Duration::from_millis(25),
            write_timeout: Duration::from_secs(2),
            max_stalls: 80,
            max_frame_len: MAX_FRAME_LEN,
            slo_window: Duration::from_secs(5),
            slo_tick: Duration::from_millis(200),
            slo_max_miss_rate: 0.05,
            slo_max_degraded_rate: 0.5,
            slo_min_samples: 20,
            breaker: Some(BreakerConfig::default()),
            max_restarts: 5,
            restart_backoff: Duration::from_millis(10),
            restart_backoff_cap: Duration::from_millis(500),
            replay_window: 1024,
            max_parked: 64,
            parked_ttl: Duration::from_secs(30),
            resume_claim_wait: crate::session::CLAIM_WAIT,
            wire: WireCodec::Json,
            process_faults: ProcessFaultPlan::none(),
            clock: Clock::System,
            injected_bug: None,
        }
    }
}

/// One declared SLO violation, kept (bounded) on the server handle so
/// operators and tests can ask "what breached, and which traces show
/// it" after the fact. The same information is emitted live as a
/// `slo.breach` RunLog event.
#[derive(Debug, Clone)]
pub struct SloBreach {
    /// `"deadline_miss_rate"` or `"degraded_rate"`.
    pub kind: &'static str,
    /// The offending rate over the sliding window at declaration time.
    pub rate: f64,
    /// The configured threshold it exceeded.
    pub threshold: f64,
    /// Replies in the window when the breach was declared.
    pub window_replies: usize,
    /// Trace ids of offending replies (deadline-missed or degraded ones
    /// respectively) — each reconstructable from a journal snapshot.
    pub trace_ids: Vec<u64>,
}

/// What the worker pool tells the watchdog about each written reply.
struct ReplyObs {
    at: Instant,
    missed: bool,
    degraded: bool,
    trace_id: u64,
}

/// Replies retained for the sliding window (hard cap so a hot server
/// can't grow the deque without bound between watchdog ticks).
const SLO_OBS_CAP: usize = 8192;
/// Breach records retained on the handle.
const SLO_BREACH_CAP: usize = 64;
/// Trace ids attached to one breach record / event.
const SLO_BREACH_TRACES: usize = 8;

/// The write half of a session, shared between its reader thread and the
/// worker pool. All frame writes go through [`send`](SessionWriter::send)
/// under one mutex, so replies never interleave mid-frame.
///
/// This is also the object that *survives* a disconnect: on resumption
/// the new connection's stream is swapped in under the mutex and `dead`
/// is re-armed, so in-flight workers keep writing to wherever the
/// session currently lives. Its [`Lineage`] (replay log, watermark,
/// codec) travels with it.
struct SessionWriter<C: Conn> {
    stream: Mutex<C>,
    /// Intervals accepted but not yet answered (admission-control level).
    inflight: AtomicUsize,
    /// Replies successfully written (for `ByeAck`).
    answered: AtomicU64,
    dead: AtomicBool,
    lineage: Lineage,
}

impl<C: Conn> SessionWriter<C> {
    /// Write one frame; on failure the session is marked dead and the
    /// socket shut down (waking the reader thread). Returns success.
    fn send(&self, shared: &Shared<C>, frame: &Frame) -> bool {
        let Ok(bytes) = encode_frame_with(frame, self.lineage.codec(), shared.cfg.max_frame_len)
        else {
            return false;
        };
        self.send_bytes(shared, &bytes, frame.tag())
    }

    /// Write pre-encoded frame bytes (the traced reply path encodes
    /// separately so the encode and write stages time independently).
    /// Same failure semantics as [`send`](SessionWriter::send).
    fn send_bytes(&self, shared: &Shared<C>, bytes: &[u8], tag: &'static str) -> bool {
        if self.dead.load(Ordering::Acquire) {
            return false;
        }
        let mut stream = self.stream.lock().unwrap();
        match write_bytes(&mut *stream, bytes) {
            Ok(()) => true,
            Err(e) => {
                if !self.dead.swap(true, Ordering::AcqRel) {
                    if e == WireError::Timeout {
                        shared.slow_disconnect();
                        log_event!("serve.slow_disconnect", "frame" = tag);
                    }
                    stream.shutdown_both();
                }
                false
            }
        }
    }

    /// Commit + send a per-seq reply frame (the reader-side Ack / Busy /
    /// Reject path; the worker path encodes separately for stage timing
    /// and commits itself).
    fn send_reply(&self, shared: &Shared<C>, seq: u64, frame: &Frame) -> bool {
        let Ok(bytes) = encode_frame_with(frame, self.lineage.codec(), shared.cfg.max_frame_len)
        else {
            return false;
        };
        self.lineage.commit(seq, &bytes);
        self.send_bytes(shared, &bytes, frame.tag())
    }

    /// Point the writer at a new connection (resumption). The old stream
    /// is dropped; `dead` is re-armed *after* the swap so a concurrent
    /// worker either fails against the old dead stream (and the reply is
    /// replayed) or succeeds against the new one.
    fn attach(&self, stream: C) {
        *self.stream.lock().unwrap_or_else(PoisonError::into_inner) = stream;
        self.dead.store(false, Ordering::Release);
    }
}

/// One enforcement unit: a fully prepared window plus where the answer
/// goes.
struct Job<C: Conn> {
    seq: u64,
    prepared: PreparedWindow,
    accepted_at: Instant,
    /// When the job entered the shared queue (start of the queue stage).
    enqueued_at: Instant,
    /// The interval's trace (the `serve.interval` root span's context);
    /// [`TraceContext::NONE`] when tracing is off.
    trace: TraceContext,
    writer: Arc<SessionWriter<C>>,
    /// Set when a worker panic poisoned this job's batch and the
    /// supervisor re-enqueued it: when the retried reply is finally
    /// written, `requeued_at → now` is the recovery latency.
    requeued_at: Option<Instant>,
}

/// What a panicking worker leaves behind for the supervisor: which slot
/// died, why, and which admitted intervals were in flight.
struct WorkerObit {
    worker: usize,
    payload: String,
    trace_ids: Vec<u64>,
    requeued: usize,
}

/// Requeue-latency samples retained on the handle (recovery benches).
const REQUEUE_LAT_CAP: usize = 4096;

struct Shared<C: Conn> {
    cfg: ServerConfig,
    model: Arc<TransformerImputer>,
    cache: Option<Arc<SolutionCache>>,
    /// The session protocol: handshake, draining, parking, resume,
    /// replay, and the counters behind `StatsReply`.
    core: SessionCore<Session<C>>,
    // Supervision accounting (typed handle accessors, not on the wire).
    worker_panics: AtomicU64,
    worker_restarts: AtomicU64,
    queue: Mutex<VecDeque<Job<C>>>,
    queue_cv: Condvar,
    shutdown: AtomicBool,
    active_readers: AtomicUsize,
    /// Recent replies for the SLO watchdog's sliding window.
    slo_obs: Mutex<VecDeque<ReplyObs>>,
    /// Declared breaches (bounded at [`SLO_BREACH_CAP`], oldest evicted).
    breaches: Mutex<Vec<SloBreach>>,
    /// Panic reports from workers, drained by the supervisor.
    obits: Mutex<Vec<WorkerObit>>,
    /// Recovery latencies of re-enqueued jobs, in µs (bounded).
    requeue_lat: Mutex<Vec<u64>>,
}

impl<C: Conn> Shared<C> {
    fn shutting_down(&self) -> bool {
        self.shutdown.load(Ordering::Acquire)
    }

    fn counters(&self) -> &Counters {
        self.core.counters()
    }

    fn slow_disconnect(&self) {
        SLOW_DISCONNECTS.inc();
        self.counters()
            .slow_disconnects
            .fetch_add(1, Ordering::Relaxed);
    }
}

/// Decrements `active_readers` on drop — **including unwind**. If a
/// session thread panics, the count still reaches zero and the worker
/// pool's shutdown condition (`shutting_down && active_readers == 0`)
/// still holds; without this, [`ServerHandle::shutdown`] would hang
/// forever joining workers after any reader panic.
struct ReaderGuard<C: Conn>(Arc<Shared<C>>);

impl<C: Conn> Drop for ReaderGuard<C> {
    fn drop(&mut self) {
        self.0.active_readers.fetch_sub(1, Ordering::AcqRel);
        self.0.queue_cv.notify_all();
    }
}

/// A running server, generic over the connection type it serves
/// (`TcpStream` in production, [`crate::sim::SimConn`] under the
/// simulation harness). Dropping the handle without calling
/// [`shutdown`](ServerHandle::shutdown) leaves the threads running for
/// the life of the process.
pub struct ServerHandle<C: Conn = TcpStream> {
    /// Bound socket address — `Some` only for TCP transports.
    addr: Option<SocketAddr>,
    shared: Arc<Shared<C>>,
    acceptor: Option<JoinHandle<()>>,
    /// The supervisor owns the worker pool's join handles; joining it
    /// joins (or has already joined) every worker.
    supervisor: Option<JoinHandle<()>>,
    readers: Arc<Mutex<Vec<JoinHandle<()>>>>,
    watchdog: Option<JoinHandle<()>>,
}

impl ServerHandle<TcpStream> {
    /// The bound address (resolves ephemeral ports).
    pub fn addr(&self) -> SocketAddr {
        self.addr.expect("TCP server always has a bound address")
    }
}

impl<C: Conn> ServerHandle<C> {
    /// This instance's counters as a [`Frame::StatsReply`].
    pub fn stats(&self) -> Frame {
        self.shared.core.counters().stats_frame()
    }

    /// The shared solution cache, if enabled.
    pub fn cache(&self) -> Option<&Arc<SolutionCache>> {
        self.shared.cache.as_ref()
    }

    /// SLO breaches the watchdog has declared so far (bounded history,
    /// oldest evicted first).
    pub fn slo_breaches(&self) -> Vec<SloBreach> {
        self.shared
            .breaches
            .lock()
            .map(|b| b.clone())
            .unwrap_or_default()
    }

    /// Supervision accounting: `(worker panics, worker restarts)`.
    pub fn worker_stats(&self) -> (u64, u64) {
        (
            self.shared.worker_panics.load(Ordering::Relaxed),
            self.shared.worker_restarts.load(Ordering::Relaxed),
        )
    }

    /// Resumption accounting: `(sessions resumed, replies replayed)`.
    pub fn resume_stats(&self) -> (u64, u64) {
        let c = self.shared.core.counters();
        (
            c.resumes.load(Ordering::Relaxed),
            c.replayed.load(Ordering::Relaxed),
        )
    }

    /// Recovery latencies (µs) of intervals that were re-enqueued after
    /// a worker panic: requeue → reply written. Bounded sample buffer.
    pub fn requeue_latencies(&self) -> Vec<u64> {
        self.shared
            .requeue_lat
            .lock()
            .map(|v| v.clone())
            .unwrap_or_default()
    }

    /// Sessions currently parked for resumption.
    pub fn parked_count(&self) -> usize {
        self.shared.core.parked_count()
    }

    /// Whether a parked session exists for `token` right now. Test
    /// introspection: lets a deterministic harness wait for a specific
    /// disconnect to be parked instead of racing on `parked_count`
    /// (which also counts stale entries awaiting lazy TTL pruning).
    pub fn parked_contains(&self, token: &str) -> bool {
        self.shared.core.parked_contains(token)
    }

    /// Begin draining for a planned hand-off: existing sessions are
    /// served to completion, but every new `Hello` (fresh *or* resume)
    /// is answered `Error{code:"draining"}` — a router treats that as
    /// "place this session elsewhere". Unlike
    /// [`shutdown`](ServerHandle::shutdown) the node stays up.
    pub fn begin_drain(&self) {
        if self.shared.core.begin_drain() {
            log_event!("serve.draining");
        }
    }

    /// Whether [`begin_drain`](ServerHandle::begin_drain) was called.
    pub fn is_draining(&self) -> bool {
        self.shared.core.is_draining()
    }

    /// Signal shutdown and gracefully drain: stop accepting, let every
    /// session's in-flight intervals be answered, join all threads.
    /// Returns the final stats.
    pub fn shutdown(mut self) -> Frame {
        self.shared.shutdown.store(true, Ordering::Release);
        self.shared.queue_cv.notify_all();
        // Under virtual time, drain loops sleep on the injected clock;
        // from here on nothing semantic is being timed, so let sleepers
        // advance it themselves instead of requiring a driver.
        if let Some(vc) = self.shared.cfg.clock.virtual_handle() {
            vc.set_auto_advance(true);
        }
        if let Some(a) = self.acceptor.take() {
            let _ = a.join();
        }
        // Readers exit on their next poll tick (they drain first).
        let readers = std::mem::take(&mut *self.readers.lock().unwrap());
        for r in readers {
            let _ = r.join();
        }
        self.shared.queue_cv.notify_all();
        if let Some(s) = self.supervisor.take() {
            let _ = s.join();
        }
        if let Some(w) = self.watchdog.take() {
            let _ = w.join();
        }
        let counters = self.shared.core.counters();
        log_event!(
            "serve.shutdown",
            "sessions" = counters.sessions.load(Ordering::Relaxed),
            "replies" = counters.replies.load(Ordering::Relaxed)
        );
        counters.stats_frame()
    }
}

/// Spawn a server on `cfg.addr` serving imputations from `model`.
pub fn spawn(model: Arc<TransformerImputer>, cfg: ServerConfig) -> std::io::Result<ServerHandle> {
    let transport = TcpTransport::bind(&cfg.addr)?;
    let addr = transport.addr();
    let mut handle = spawn_with(transport, model, cfg);
    handle.addr = Some(addr);
    Ok(handle)
}

/// Spawn a server over an arbitrary [`Transport`] — the simulation
/// harness passes the in-memory [`crate::sim::SimTransport`] here and
/// gets the identical session/worker/supervisor machinery.
pub fn spawn_with<T: Transport>(
    transport: T,
    model: Arc<TransformerImputer>,
    cfg: ServerConfig,
) -> ServerHandle<T::Conn> {
    let cache = if cfg.cache_capacity > 0 {
        Some(Arc::new(SolutionCache::new(cfg.cache_capacity)))
    } else {
        None
    };
    let workers = cfg.workers.max(1);
    let core = SessionCore::new(CoreConfig {
        wire: cfg.wire,
        replay_window: cfg.replay_window,
        max_parked: cfg.max_parked,
        parked_ttl: cfg.parked_ttl,
        claim_wait: cfg.resume_claim_wait,
        clock: cfg.clock.clone(),
        injected_bug: cfg.injected_bug,
        tokens: TokenStyle::Node,
        metrics: &METRICS,
    });
    let shared = Arc::new(Shared {
        cfg,
        model,
        cache,
        core,
        worker_panics: AtomicU64::new(0),
        worker_restarts: AtomicU64::new(0),
        queue: Mutex::new(VecDeque::new()),
        queue_cv: Condvar::new(),
        shutdown: AtomicBool::new(false),
        active_readers: AtomicUsize::new(0),
        slo_obs: Mutex::new(VecDeque::new()),
        breaches: Mutex::new(Vec::new()),
        obits: Mutex::new(Vec::new()),
        requeue_lat: Mutex::new(Vec::new()),
    });
    let readers: Arc<Mutex<Vec<JoinHandle<()>>>> = Arc::new(Mutex::new(Vec::new()));

    let worker_handles: Vec<Option<JoinHandle<()>>> = (0..workers)
        .map(|i| Some(spawn_worker(&shared, i)))
        .collect();
    let supervisor = {
        let shared = Arc::clone(&shared);
        std::thread::Builder::new()
            .name("serve-supervisor".into())
            .spawn(move || supervisor_loop(&shared, worker_handles))
            .expect("spawn supervisor")
    };

    let acceptor = {
        let shared = Arc::clone(&shared);
        let readers = Arc::clone(&readers);
        std::thread::Builder::new()
            .name("serve-acceptor".into())
            .spawn(move || {
                let desc = transport.desc();
                log_event!("serve.listening", "addr" = desc.as_str());
                loop {
                    match transport.accept() {
                        Accepted::Conn(stream) => {
                            let shared = Arc::clone(&shared);
                            shared.active_readers.fetch_add(1, Ordering::AcqRel);
                            let h = std::thread::Builder::new()
                                .name("serve-session".into())
                                .spawn(move || {
                                    // Drop guard: the decrement must run
                                    // even if handle_connection unwinds.
                                    let _guard = ReaderGuard(Arc::clone(&shared));
                                    handle_connection(&shared, stream);
                                })
                                .expect("spawn session");
                            let mut rs = readers.lock().unwrap();
                            reap_finished(&mut rs);
                            rs.push(h);
                        }
                        Accepted::Retry => {
                            if shared.shutting_down() {
                                break;
                            }
                            reap_finished(&mut readers.lock().unwrap());
                            // Poll cadence, not semantic time: stays on
                            // the real clock even under virtual time.
                            std::thread::sleep(Duration::from_millis(2));
                        }
                        Accepted::Closed => break,
                    }
                }
            })
            .expect("spawn acceptor")
    };

    let watchdog = {
        let shared = Arc::clone(&shared);
        std::thread::Builder::new()
            .name("serve-slo-watchdog".into())
            .spawn(move || watchdog_loop(&shared))
            .expect("spawn watchdog")
    };

    ServerHandle {
        addr: None,
        shared,
        acceptor: Some(acceptor),
        supervisor: Some(supervisor),
        readers,
        watchdog: Some(watchdog),
    }
}

/// Spawn worker slot `i` running the crash-isolated batch loop.
fn spawn_worker<C: Conn>(shared: &Arc<Shared<C>>, i: usize) -> JoinHandle<()> {
    let shared = Arc::clone(shared);
    std::thread::Builder::new()
        .name(format!("serve-worker-{i}"))
        .spawn(move || worker_loop(&shared, i))
        .expect("spawn worker")
}

/// Supervisor: watches for worker panic obits, re-enqueues nothing
/// itself (the dying worker already re-enqueued its batch), and
/// restarts the dead slot under a bounded budget with deterministic
/// exponential backoff. On shutdown it joins whatever workers remain.
fn supervisor_loop<C: Conn>(shared: &Arc<Shared<C>>, mut slots: Vec<Option<JoinHandle<()>>>) {
    let cfg = &shared.cfg;
    let mut restarts: Vec<u32> = vec![0; slots.len()];
    loop {
        if shared.shutting_down() {
            for slot in slots.iter_mut() {
                if let Some(h) = slot.take() {
                    let _ = h.join();
                }
            }
            return;
        }
        let pending: Vec<WorkerObit> = {
            let mut obits = shared.obits.lock().unwrap_or_else(PoisonError::into_inner);
            std::mem::take(&mut *obits)
        };
        for obit in pending {
            // The worker pushed its obit on the way out; join reclaims
            // the thread (its panic was caught, so join returns Ok).
            if let Some(h) = slots.get_mut(obit.worker).and_then(Option::take) {
                let _ = h.join();
            }
            let n = &mut restarts[obit.worker];
            let traces_str = obit
                .trace_ids
                .iter()
                .map(|t| t.to_string())
                .collect::<Vec<_>>()
                .join(",");
            if *n >= cfg.max_restarts {
                log_event!(
                    "worker.dead",
                    "worker" = obit.worker,
                    "restarts" = *n,
                    "payload" = obit.payload.as_str(),
                    "traces" = traces_str.as_str()
                );
                continue;
            }
            // Deterministic exponential backoff: base * 2^k, capped.
            // Measured on the injected clock so simulated restarts
            // back off in virtual time.
            let backoff = cfg
                .restart_backoff
                .saturating_mul(1u32 << (*n).min(20))
                .min(cfg.restart_backoff_cap);
            let until = cfg.clock.now() + backoff;
            while cfg.clock.now() < until && !shared.shutting_down() {
                cfg.clock.sleep(
                    Duration::from_millis(1).min(until.saturating_duration_since(cfg.clock.now())),
                );
            }
            if shared.shutting_down() {
                // Drained queue + no readers: no one needs the slot.
                continue;
            }
            *n += 1;
            WORKER_RESTARTS.inc();
            shared.worker_restarts.fetch_add(1, Ordering::Relaxed);
            log_event!(
                "worker.restart",
                "worker" = obit.worker,
                "restarts" = *n,
                "backoff_ms" = backoff.as_millis() as u64,
                "requeued" = obit.requeued,
                "payload" = obit.payload.as_str(),
                "traces" = traces_str.as_str()
            );
            slots[obit.worker] = Some(spawn_worker(shared, obit.worker));
        }
        std::thread::sleep(Duration::from_millis(2));
    }
}

/// SLO watchdog: every `slo_tick`, prune the sliding window, republish
/// the `slo.*` gauges, and declare breaches on the rising edge of either
/// rate crossing its threshold. Breach events carry the trace ids of
/// offending replies so a journal snapshot can reconstruct exactly what
/// the slow/degraded requests went through.
fn watchdog_loop<C: Conn>(shared: &Arc<Shared<C>>) {
    let cfg = &shared.cfg;
    let mut miss_breached = false;
    let mut degraded_breached = false;
    loop {
        cfg.clock.sleep(cfg.slo_tick);
        let now = cfg.clock.now();
        let (replies, misses, degraded, miss_traces, degraded_traces) = {
            let mut obs = shared.slo_obs.lock().unwrap();
            while obs
                .front()
                .is_some_and(|o| now.saturating_duration_since(o.at) > cfg.slo_window)
            {
                obs.pop_front();
            }
            let mut misses = 0usize;
            let mut degraded = 0usize;
            let mut miss_traces = Vec::new();
            let mut degraded_traces = Vec::new();
            for o in obs.iter() {
                if o.missed {
                    misses += 1;
                    if o.trace_id != 0 && miss_traces.len() < SLO_BREACH_TRACES {
                        miss_traces.push(o.trace_id);
                    }
                }
                if o.degraded {
                    degraded += 1;
                    if o.trace_id != 0 && degraded_traces.len() < SLO_BREACH_TRACES {
                        degraded_traces.push(o.trace_id);
                    }
                }
            }
            (obs.len(), misses, degraded, miss_traces, degraded_traces)
        };
        let miss_rate = if replies == 0 {
            0.0
        } else {
            misses as f64 / replies as f64
        };
        let degraded_rate = if replies == 0 {
            0.0
        } else {
            degraded as f64 / replies as f64
        };
        SLO_MISS_RATE.set(miss_rate);
        SLO_DEGRADED_RATE.set(degraded_rate);
        SLO_WINDOW_REPLIES.set(replies as i64);
        SLO_QUEUE_DEPTH.set(shared.queue.lock().map(|q| q.len()).unwrap_or(0) as i64);

        let enough = replies >= cfg.slo_min_samples;
        declare_breach(
            shared,
            &mut miss_breached,
            enough && miss_rate > cfg.slo_max_miss_rate,
            "deadline_miss_rate",
            miss_rate,
            cfg.slo_max_miss_rate,
            replies,
            miss_traces,
        );
        declare_breach(
            shared,
            &mut degraded_breached,
            enough && degraded_rate > cfg.slo_max_degraded_rate,
            "degraded_rate",
            degraded_rate,
            cfg.slo_max_degraded_rate,
            replies,
            degraded_traces,
        );
        if shared.shutting_down() {
            return;
        }
    }
}

/// Rising-edge breach bookkeeping: record + emit only on the off→on
/// transition of one kind, re-arm when the rate recovers.
#[allow(clippy::too_many_arguments)]
fn declare_breach<C: Conn>(
    shared: &Shared<C>,
    armed: &mut bool,
    over: bool,
    kind: &'static str,
    rate: f64,
    threshold: f64,
    window_replies: usize,
    trace_ids: Vec<u64>,
) {
    if !over {
        *armed = false;
        return;
    }
    if *armed {
        return; // still inside the same breach episode
    }
    *armed = true;
    SLO_BREACHES.inc();
    let traces_str = trace_ids
        .iter()
        .map(|t| t.to_string())
        .collect::<Vec<_>>()
        .join(",");
    log_event!(
        "slo.breach",
        "kind" = kind,
        "rate" = rate,
        "threshold" = threshold,
        "window_replies" = window_replies,
        "traces" = traces_str.as_str()
    );
    if let Ok(mut b) = shared.breaches.lock() {
        if b.len() >= SLO_BREACH_CAP {
            b.remove(0);
        }
        b.push(SloBreach {
            kind,
            rate,
            threshold,
            window_replies,
            trace_ids,
        });
    }
}

/// Join (and drop) session threads that have already exited, so a
/// long-running server doesn't accumulate one `JoinHandle` per
/// connection ever accepted. Called from the acceptor's idle tick and
/// before registering each new session.
fn reap_finished(handles: &mut Vec<JoinHandle<()>>) {
    let mut i = 0;
    while i < handles.len() {
        if handles[i].is_finished() {
            let h = handles.swap_remove(i);
            let _ = h.join();
        } else {
            i += 1;
        }
    }
}

/// Per-session state owned by the reader thread.
struct Session<C: Conn> {
    id: u64,
    tenant: String,
    imputers: HashMap<usize, StreamingImputer<Arc<TransformerImputer>>>,
    writer: Arc<SessionWriter<C>>,
}

/// How a session's read loop ended — decides parking.
#[derive(PartialEq)]
enum SessionEnd {
    /// Client said `Bye` (or the server is draining): nothing to resume.
    Graceful,
    /// The connection died mid-session: park for resumption.
    Disconnected,
}

fn handle_connection<C: Conn>(shared: &Arc<Shared<C>>, stream: C) {
    let cfg = &shared.cfg;
    let Some((opening, stream, mut reader)) = await_opening(
        &shared.core,
        stream,
        cfg.read_timeout,
        cfg.write_timeout,
        cfg.max_frame_len,
        || shared.shutting_down(),
    ) else {
        return;
    };
    let session = match opening {
        Opening::Fresh {
            id,
            identity,
            lineage,
            ..
        } => open_fresh(shared, id, identity, lineage, stream),
        Opening::Resume {
            id,
            last_acked,
            state,
        } => resume_session(shared, Session { id, ..state }, last_acked, stream),
    };
    let Some(mut session) = session else {
        return;
    };
    log_event!(
        "serve.session.open",
        "session" = session.id,
        "tenant" = session.tenant.as_str()
    );

    let mut stalls: u32 = 0;
    let mut end = SessionEnd::Disconnected;
    loop {
        if shared.shutting_down() {
            drain_inflight(shared, &session.writer);
            let _ = session.writer.send(
                shared,
                &Frame::Error {
                    code: "shutting_down".into(),
                    message: "server draining; goodbye".into(),
                },
            );
            end = SessionEnd::Graceful;
            break;
        }
        if session.writer.dead.load(Ordering::Acquire) {
            break; // killed by a worker (slow reader)
        }
        match reader.poll_frame() {
            Ok(None) => {
                if reader.pending() > 0 {
                    stalls += 1;
                    if stalls > cfg.max_stalls {
                        shared.slow_disconnect();
                        log_event!("serve.stall_disconnect", "session" = session.id);
                        break;
                    }
                } else {
                    stalls = 0;
                }
            }
            Ok(Some(frame)) => {
                stalls = 0;
                let decode_ns = reader.last_decode_ns();
                if !handle_frame(shared, &mut session, frame, decode_ns) {
                    end = SessionEnd::Graceful; // only `Bye` ends in-band
                    break;
                }
            }
            Err(WireError::Closed) => break,
            Err(
                e @ (WireError::Truncated { .. }
                | WireError::Oversized { .. }
                | WireError::Malformed(_)),
            ) => {
                // Framing is lost — report and hang up.
                shared.core.malformed();
                let _ = session.writer.send(
                    shared,
                    &Frame::Error {
                        code: "bad_frame".into(),
                        message: e.to_string(),
                    },
                );
                break;
            }
            Err(_) => break,
        }
    }
    session.writer.dead.store(true, Ordering::Release);
    log_event!(
        "serve.session.close",
        "session" = session.id,
        "answered" = session.writer.answered.load(Ordering::Relaxed)
    );
    if end == SessionEnd::Disconnected && !shared.shutting_down() {
        park_session(shared, session);
    } else {
        shared.core.close(&session.writer.lineage);
    }
}

/// Park a disconnected session in the core for resumption: its sliding
/// windows and writer (with the lineage's replay log). Whatever the core
/// evicts to make room is simply dropped.
fn park_session<C: Conn>(shared: &Shared<C>, session: Session<C>) {
    log_event!(
        "serve.session.park",
        "session" = session.id,
        "inflight" = session.writer.inflight.load(Ordering::Acquire)
    );
    let writer = Arc::clone(&session.writer);
    drop(shared.core.park(&writer.lineage, session));
}

/// A fresh lineage: build the session's sliding windows, then send the
/// core's `Welcome`. The writer speaks the negotiated codec from here on.
fn open_fresh<C: Conn>(
    shared: &Arc<Shared<C>>,
    id: u64,
    identity: Identity,
    lineage: Lineage,
    stream: C,
) -> Option<Session<C>> {
    let cfg = &shared.cfg;
    let opts = StreamOptions {
        ladder: LadderConfig {
            engine: cfg.engine.clone(),
            ..LadderConfig::default()
        },
        ..StreamOptions::default()
    };
    let imputers = identity
        .ports
        .iter()
        .map(|&p| {
            (
                p,
                StreamingImputer::with_options(
                    Arc::clone(&shared.model),
                    opts.clone(),
                    p,
                    identity.queues,
                    identity.interval_len,
                    identity.window_intervals,
                ),
            )
        })
        .collect();
    let writer = Arc::new(SessionWriter {
        stream: Mutex::new(stream),
        inflight: AtomicUsize::new(0),
        answered: AtomicU64::new(0),
        dead: AtomicBool::new(false),
        lineage,
    });
    let welcome = shared
        .core
        .welcome(id, &writer.lineage, cfg.deadline.as_millis() as u64);
    if !writer.send_bytes(shared, &welcome, "Welcome") {
        shared.core.close(&writer.lineage);
        return None;
    }
    Some(Session {
        id,
        tenant: identity.tenant,
        imputers,
        writer,
    })
}

/// Finish a claimed resume: drain stragglers into the lineage's replay
/// log, attach the new connection to the parked writer, and send the
/// core's `Welcome` and replay. Until the handshake completes on the new
/// connection, any failure re-parks the session under the same token (a
/// dropped replay log would turn a reconnect hiccup into reply loss).
fn resume_session<C: Conn>(
    shared: &Arc<Shared<C>>,
    session: Session<C>,
    last_acked: Option<u64>,
    stream: C,
) -> Option<Session<C>> {
    let id = session.id;
    let writer = Arc::clone(&session.writer);
    // Let replies already in the worker pipeline commit to the replay
    // log before the core reads the watermark — after this, every seq
    // ≤ resume_seq has a logged reply and every seq above it never
    // reached the server.
    drain_inflight_for_resume(shared, &writer);
    writer.attach(stream);
    let replay = shared.core.resume(
        id,
        &writer.lineage,
        last_acked,
        shared.cfg.deadline.as_millis() as u64,
    );
    if !writer.send_bytes(shared, &replay.welcome, "Welcome") {
        park_session(shared, session);
        return None;
    }
    let mut replayed = 0u64;
    for bytes in &replay.replies {
        if !writer.send_bytes(shared, bytes, "Replay") {
            break;
        }
        replayed += 1;
    }
    shared.core.resumed(replayed);
    log_event!(
        "serve.session.resume",
        "session" = id,
        "resume_seq" = writer.lineage.highest_seq(),
        "replayed" = replayed,
        "tenant" = session.tenant.as_str()
    );
    Some(session)
}

/// Process one client frame. `decode_ns` is how long the reader spent
/// parsing this frame (0 when tracing is off). Returns `false` to end
/// the session.
fn handle_frame<C: Conn>(
    shared: &Arc<Shared<C>>,
    session: &mut Session<C>,
    frame: Frame,
    decode_ns: u64,
) -> bool {
    let cfg = &shared.cfg;
    let counters = shared.core.counters();
    match frame {
        Frame::Interval {
            seq,
            update,
            trace_id,
        } => {
            let accepted_at = cfg.clock.now();
            // Root this interval's trace, adopting the client's id when
            // one rode in on the frame so both halves stitch together.
            // The RAII span itself covers admit + window + model forward
            // (everything this thread does); later stages attach to its
            // context retroactively from the worker pool.
            let root = trace::root_with_id("serve.interval", trace_id.unwrap_or(0));
            let ctx = root.context();
            if decode_ns > 0 && ctx.is_set() {
                STAGE_DECODE_US.record(decode_ns);
                let dur = Duration::from_nanos(decode_ns);
                let start = accepted_at.checked_sub(dur).unwrap_or(accepted_at);
                trace::record_span("serve.decode", ctx, start, dur);
            }
            // Duplicate delivery (client retransmit after resume) is
            // answered from the replay log — the sliding window is NEVER
            // fed twice, which is what keeps resumed streams
            // bitwise-identical.
            if let Some(bytes) = shared.core.duplicate(&session.writer.lineage, seq) {
                if session.writer.send_bytes(shared, &bytes, "Replay") {
                    shared.core.reply_sent();
                }
                return true;
            }
            // Admission control first: over-budget intervals are dropped
            // before costing a model forward pass.
            let depth = session.writer.inflight.load(Ordering::Acquire);
            if depth >= cfg.queue_depth {
                REJECTED.inc();
                counters.rejected.fetch_add(1, Ordering::Relaxed);
                session
                    .writer
                    .send_reply(shared, seq, &Frame::Busy { seq, depth });
                return true;
            }
            let Some(imputer) = session.imputers.get_mut(&update.port) else {
                shared.core.malformed();
                session.writer.send_reply(
                    shared,
                    seq,
                    &Frame::Reject {
                        seq,
                        reason: format!("port {} not announced in Hello", update.port),
                    },
                );
                return true;
            };
            match imputer.try_prepare(update) {
                Err(e) => {
                    shared.core.malformed();
                    session.writer.send_reply(
                        shared,
                        seq,
                        &Frame::Reject {
                            seq,
                            reason: e.to_string(),
                        },
                    );
                }
                Ok(None) => {
                    ACCEPTED.inc();
                    counters.accepted.fetch_add(1, Ordering::Relaxed);
                    let buffered = imputer.buffered();
                    session
                        .writer
                        .send_reply(shared, seq, &Frame::Ack { seq, buffered });
                }
                Ok(Some(prepared)) => {
                    ACCEPTED.inc();
                    counters.accepted.fetch_add(1, Ordering::Relaxed);
                    session.writer.inflight.fetch_add(1, Ordering::AcqRel);
                    let job = Job {
                        seq,
                        prepared,
                        accepted_at,
                        enqueued_at: cfg.clock.now(),
                        trace: ctx,
                        writer: Arc::clone(&session.writer),
                        requeued_at: None,
                    };
                    shared.queue.lock().unwrap().push_back(job);
                    shared.queue_cv.notify_one();
                }
            }
            true
        }
        Frame::Bye => {
            drain_inflight(shared, &session.writer);
            let answered = session.writer.answered.load(Ordering::Relaxed);
            // Honest drain accounting: if the bounded drain budget ran
            // out, report how many accepted intervals are still
            // unanswered instead of implying a full drain.
            let remaining = session.writer.inflight.load(Ordering::Acquire) as u64;
            session.writer.send(
                shared,
                &Frame::ByeAck {
                    answered,
                    remaining,
                },
            );
            false
        }
        other => {
            let core = &shared.core;
            let reply = core
                .probe(&other)
                .unwrap_or_else(|| core.unexpected(&other));
            session.writer.send(shared, &reply);
            true
        }
    }
}

/// Wait (bounded) until every accepted interval of this session has been
/// answered — the graceful-drain guarantee behind `Bye` and shutdown.
/// Bails early on a dead writer: the peer is gone, nothing it was owed
/// can be delivered on this connection.
fn drain_inflight<C: Conn>(shared: &Shared<C>, writer: &SessionWriter<C>) {
    drain_inflight_inner(shared, writer, false)
}

/// Resume-path drain: waits even on a dead writer. Workers decrement
/// `inflight` whether or not the socket write succeeds, and they commit
/// the lineage commit first — so once this returns with `inflight == 0`,
/// every accepted seq is in the replay log and the resume watermark
/// covers it.
fn drain_inflight_for_resume<C: Conn>(shared: &Shared<C>, writer: &SessionWriter<C>) {
    drain_inflight_inner(shared, writer, true)
}

fn drain_inflight_inner<C: Conn>(shared: &Shared<C>, writer: &SessionWriter<C>, ignore_dead: bool) {
    let clock = &shared.cfg.clock;
    let budget = shared.cfg.deadline.max(Duration::from_millis(50)) * 20;
    let deadline = clock.now() + budget;
    while writer.inflight.load(Ordering::Acquire) > 0
        && (ignore_dead || !writer.dead.load(Ordering::Acquire))
        && clock.now() < deadline
    {
        clock.sleep(Duration::from_millis(1));
    }
}

/// Worker: pop one job, coalesce whatever else is queued (bounded by
/// `max_batch` and by the first job's remaining deadline slack), run one
/// `enforce_degraded_batch`, write replies.
///
/// The batch body runs under `catch_unwind` so a panic (injected or
/// genuine) takes down only this iteration, not the server. The sealed
/// batch lives in a `Mutex` holder whose guard is held for the whole
/// body: jobs are popped from the front only *after* their reply is
/// fully committed, so on unwind the poisoned holder yields exactly the
/// unanswered tail, which [`worker_down`] re-enqueues at the head of
/// the queue. The supervisor then respawns this slot.
fn worker_loop<C: Conn>(shared: &Arc<Shared<C>>, worker: usize) {
    let cfg = &shared.cfg;
    let base_ladder = LadderConfig {
        engine: cfg.engine.clone(),
        deadline: None,
        escalation_factor: cfg.escalation_factor,
        breaker: cfg.breaker.clone(),
    };
    loop {
        let Some(batch) = collect_batch(shared) else {
            return;
        };
        let holder = Mutex::new(batch);
        let result = catch_unwind(AssertUnwindSafe(|| {
            process_batch(shared, &holder, &base_ladder)
        }));
        if let Err(payload) = result {
            let survivors = holder.into_inner().unwrap_or_else(PoisonError::into_inner);
            worker_down(shared, worker, payload, survivors);
            // The thread exits; the supervisor joins it and spawns a
            // replacement under the restart budget.
            return;
        }
    }
}

/// Block until at least one job is available (or shutdown drains the
/// queue), then coalesce up to `max_batch` jobs bounded by the first
/// job's remaining deadline slack. `None` means clean shutdown.
fn collect_batch<C: Conn>(shared: &Arc<Shared<C>>) -> Option<Vec<Job<C>>> {
    let cfg = &shared.cfg;
    let mut q = shared.queue.lock().unwrap();
    let first = loop {
        if let Some(j) = q.pop_front() {
            break j;
        }
        if shared.shutting_down() && shared.active_readers.load(Ordering::Acquire) == 0 {
            return None;
        }
        let (guard, _) = shared
            .queue_cv
            .wait_timeout(q, Duration::from_millis(20))
            .unwrap();
        q = guard;
    };
    let mut batch = vec![first];
    while batch.len() < cfg.max_batch {
        match q.pop_front() {
            Some(j) => batch.push(j),
            None => break,
        }
    }
    // Deadline-aware coalescing: wait a short beat for stragglers,
    // but never longer than half the first job's remaining slack.
    // Skipped under virtual time: the wait below is a *real* condvar
    // wait against virtual slack, which a simulated schedule would have
    // to drive by advancing the clock mid-batch — sealing immediately
    // keeps batch composition a pure function of the queue state.
    if batch.len() < cfg.max_batch && !cfg.batch_wait.is_zero() && !cfg.clock.is_virtual() {
        let slack = cfg.deadline.saturating_sub(
            cfg.clock
                .now()
                .saturating_duration_since(batch[0].accepted_at),
        );
        let wait_until = Instant::now() + cfg.batch_wait.min(slack / 2);
        while batch.len() < cfg.max_batch {
            let remaining = wait_until.saturating_duration_since(Instant::now());
            if remaining.is_zero() {
                break;
            }
            let (guard, res) = shared.queue_cv.wait_timeout(q, remaining).unwrap();
            q = guard;
            while batch.len() < cfg.max_batch {
                match q.pop_front() {
                    Some(j) => batch.push(j),
                    None => break,
                }
            }
            if res.timed_out() {
                break;
            }
        }
    }
    Some(batch)
}

/// Enforce one sealed batch and ship its replies. Runs under
/// `catch_unwind`; the holder's guard is held throughout so unwinding
/// leaves the unanswered jobs recoverable via the poisoned mutex.
fn process_batch<C: Conn>(
    shared: &Arc<Shared<C>>,
    holder: &Mutex<Vec<Job<C>>>,
    base_ladder: &LadderConfig,
) {
    let cfg = &shared.cfg;
    let mut guard = holder.lock().unwrap();
    let batch: &mut Vec<Job<C>> = &mut guard;

    BATCHES.inc();
    // The returned pre-increment value is this batch's ordinal — the
    // deterministic clock the process-fault plan keys on. A re-enqueued
    // batch is re-collected and gets a *new* ordinal, so a panic cadence
    // of `every >= 2` cannot poison its own retry forever.
    let ordinal = shared.counters().batches.fetch_add(1, Ordering::Relaxed);
    let pf = &cfg.process_faults;
    if ProcessFaultPlan::fires(pf.worker_panic_every, ordinal) {
        record_process_fault(FaultKind::WorkerPanic);
        // Fires before ANY reply is committed: the whole batch survives
        // in the holder and is re-enforced, so replies stay
        // bitwise-identical to an uninterrupted run.
        panic!("injected worker panic (batch ordinal {ordinal})");
    }

    // The batch is sealed: the queue stage (enqueue → batch seal)
    // ends here for every member. All timeline measurements in this
    // function run on the injected clock so they share one origin with
    // `accepted_at`/`enqueued_at` (identical to `Instant::now()` under
    // the production `Clock::System`).
    let sealed_at = cfg.clock.now();
    for j in batch.iter() {
        let waited = sealed_at.saturating_duration_since(j.enqueued_at);
        STAGE_QUEUE_US.record_duration(waited);
        trace::record_span("serve.queue", j.trace, j.enqueued_at, waited);
    }

    let mut ladder = base_ladder.clone();
    if cfg.ladder_deadline {
        let min_slack = batch
            .iter()
            .map(|j| {
                cfg.deadline
                    .saturating_sub(sealed_at.saturating_duration_since(j.accepted_at))
            })
            .min()
            .unwrap_or(cfg.deadline)
            .max(Duration::from_micros(200));
        ladder.deadline = Some(min_slack);
    }
    let items: Vec<_> = batch.iter().map(|j| j.prepared.item()).collect();
    let opts = EnforceOptions::new(cfg.jobs, shared.cache.as_deref());
    BATCH_SIZE.record(batch.len() as u64);
    // Batch stage: seal → enforce start (ladder setup, item views).
    let enforce_start = cfg.clock.now();
    let batch_dur = enforce_start.saturating_duration_since(sealed_at);
    STAGE_BATCH_US.record_duration(batch_dur);
    for j in batch.iter() {
        trace::record_span("serve.batch", j.trace, sealed_at, batch_dur);
    }
    if ProcessFaultPlan::fires(pf.solver_stall_every, ordinal) {
        record_process_fault(FaultKind::SolverStall);
        cfg.clock.sleep(Duration::from_millis(pf.solver_stall_ms));
    }
    // Run the batch under the first traced member's context so the
    // ladder's own spans (`cem.enforce_window`, `cem.solve`) attach
    // to a real trace; the other members get their per-rung enforce
    // span retroactively below.
    let lead_ctx = batch
        .iter()
        .map(|j| j.trace)
        .find(TraceContext::is_set)
        .unwrap_or(TraceContext::NONE);
    let outcomes = trace::with_context(lead_ctx, || enforce_degraded_batch(&items, &ladder, &opts));
    drop(items);
    let enforce_dur = cfg.clock.now().saturating_duration_since(enforce_start);
    let slow_write = ProcessFaultPlan::fires(pf.slow_write_every, ordinal);
    let mut first_write = true;

    for outcome in outcomes {
        // Borrow the front job; it is removed only after its reply is
        // fully committed, so an unwind mid-reply re-enqueues it.
        let job = &batch[0];
        // Self-check: the ladder's contract is that outputs satisfy
        // the (possibly relaxed) constraints exactly. Count, never
        // ship silently.
        let effective = outcome.effective_constraints(&job.prepared.constraints);
        if !effective.satisfied_exact(&outcome.corrected) {
            VIOLATIONS.inc();
            shared.counters().violations.fetch_add(1, Ordering::Relaxed);
            log_event!("serve.violation", "seq" = job.seq);
        }
        let series = job.prepared.newest_interval(&outcome.corrected);
        let level = job.prepared.newest_level(&outcome.levels);
        STAGE_ENFORCE_US.record_duration(enforce_dur);
        trace::record_span(
            enforce_span_name(level),
            job.trace,
            enforce_start,
            enforce_dur,
        );
        let latency = cfg.clock.now().saturating_duration_since(job.accepted_at);
        LATENCY_US.record_duration(latency);
        let missed = latency > cfg.deadline;
        if missed {
            DEADLINE_MISS.inc();
            shared
                .counters()
                .deadline_misses
                .fetch_add(1, Ordering::Relaxed);
        }
        let frame = Frame::Imputed {
            seq: job.seq,
            port: job.prepared.port,
            series,
            level: level.label().to_string(),
            enforced: level != DegradationLevel::MeasurementRelaxed,
            latency_us: latency.as_micros() as u64,
            trace_id: (job.trace.trace_id != 0).then_some(job.trace.trace_id),
        };
        // Encode and write timed separately, so a slow peer shows up
        // in `serve.stage.write_us` rather than smearing the batch.
        let encode_start = cfg.clock.now();
        let bytes = encode_frame_with(&frame, job.writer.lineage.codec(), cfg.max_frame_len);
        let encode_dur = cfg.clock.now().saturating_duration_since(encode_start);
        let sent = match &bytes {
            Ok(bytes) => {
                STAGE_ENCODE_US.record_duration(encode_dur);
                trace::record_span("serve.encode", job.trace, encode_start, encode_dur);
                if slow_write && first_write {
                    record_process_fault(FaultKind::SlowWrite);
                    cfg.clock.sleep(Duration::from_millis(pf.slow_write_ms));
                }
                first_write = false;
                // Record into the replay log BEFORE the socket write: a
                // reply that may have reached the wire must be
                // replayable, or a crash between write and record would
                // lose it for a resuming client.
                job.writer.lineage.commit(job.seq, bytes);
                let write_start = cfg.clock.now();
                let ok = job.writer.send_bytes(shared, bytes, frame.tag());
                let write_dur = cfg.clock.now().saturating_duration_since(write_start);
                STAGE_WRITE_US.record_duration(write_dur);
                trace::record_span("serve.write", job.trace, write_start, write_dur);
                ok
            }
            Err(_) => false,
        };
        if sent {
            shared.core.reply_sent();
            job.writer.answered.fetch_add(1, Ordering::Relaxed);
        }
        // Recovery latency: requeue (panic) → reply committed.
        if let Some(requeued_at) = job.requeued_at {
            let lat = cfg.clock.now().saturating_duration_since(requeued_at);
            REQUEUE_LATENCY_US.record_duration(lat);
            if let Ok(mut v) = shared.requeue_lat.lock() {
                if v.len() < REQUEUE_LAT_CAP {
                    v.push(lat.as_micros() as u64);
                }
            }
        }
        job.writer.inflight.fetch_sub(1, Ordering::AcqRel);
        // Feed the SLO watchdog's sliding window (bounded).
        if let Ok(mut obs) = shared.slo_obs.lock() {
            if obs.len() >= SLO_OBS_CAP {
                obs.pop_front();
            }
            obs.push_back(ReplyObs {
                at: cfg.clock.now(),
                missed,
                degraded: level != DegradationLevel::Full,
                trace_id: job.trace.trace_id,
            });
        }
        // Reply fully committed: drop the job from the recoverable set.
        batch.remove(0);
    }
}

/// A worker thread is unwinding: account the panic, re-enqueue the
/// unanswered jobs at the *head* of the queue (preserving admission
/// order), and leave an obit for the supervisor to act on.
fn worker_down<C: Conn>(
    shared: &Arc<Shared<C>>,
    worker: usize,
    payload: Box<dyn std::any::Any + Send>,
    mut survivors: Vec<Job<C>>,
) {
    let msg = payload
        .downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-string panic payload".to_string());
    WORKER_PANICS.inc();
    shared.worker_panics.fetch_add(1, Ordering::Relaxed);
    let trace_ids: Vec<u64> = survivors
        .iter()
        .map(|j| j.trace.trace_id)
        .filter(|&t| t != 0)
        .collect();
    let requeued = survivors.len();
    let now = shared.cfg.clock.now();
    {
        // Poison-tolerant: this runs on the panicking thread's unwind
        // path and must make progress even if another holder panicked.
        let mut q = shared.queue.lock().unwrap_or_else(PoisonError::into_inner);
        // push_front in reverse keeps the survivors' relative order.
        for mut job in survivors.drain(..).rev() {
            job.requeued_at.get_or_insert(now);
            q.push_front(job);
        }
    }
    shared.queue_cv.notify_all();
    shared
        .obits
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .push(WorkerObit {
            worker,
            payload: msg,
            trace_ids,
            requeued,
        });
}
